//! The worker contract: running engine lanes on N workers must not move
//! a single byte of the event trace (or any metric) relative to the
//! single-worker run. Lanes carry pre-split RNG streams and merge in
//! lane order at every slot barrier, and a callback's DSP runs serially
//! on its lane's thread, so the worker count is invisible to everything
//! the simulation observes. Every worker-count case runs a build of
//! several lanes — the worker count of a one-lane build picks nothing.
//! The kernel backend is held to the same contract: every SIMD arm is
//! bit-exact, so the backend is invisible too.

use slingshot::chaos::{chaos_pool_deployment, run_scenario};
use slingshot::{Deployment, DeploymentBuilder};
use slingshot_ran::{CellConfig, Fidelity, UeConfig};
use slingshot_sim::chaos::{FaultKind, FaultTarget, Scenario};
use slingshot_sim::{
    KernelBackend, KernelConfig, MetricsRegistry, Nanos, SpanProfiler, SLOT_DURATION,
};
use slingshot_transport::{UdpCbrSource, UdpSink};

fn small_cell() -> CellConfig {
    CellConfig {
        num_prbs: 24,
        fidelity: Fidelity::Sampled,
        ..CellConfig::default()
    }
}

/// The DSP side of a run: held fixed by the worker-count tests, varied
/// by the cross-backend one.
#[derive(Clone, Copy)]
struct Dsp {
    fidelity: Fidelity,
    /// `None` leaves the engine default (the detected backend).
    backend: Option<KernelBackend>,
    /// Add a downlink flow per cell beside the uplink one.
    dl_flow: bool,
}

const SAMPLED_UL: Dsp = Dsp {
    fidelity: Fidelity::Sampled,
    backend: None,
    dl_flow: false,
};

/// Every DSP stage, both directions, on the engine-default backend.
const FULL_UL_DL: Dsp = Dsp {
    fidelity: Fidelity::Full,
    backend: None,
    dl_flow: true,
};

/// The run decoded an uplink TB of at least nine code blocks — more
/// than one LDPC batch, so the lockstep decoder ran with full and
/// partial lanes. Nothing publishes TB sizes; but every byte the core
/// forwarded to the server rode in a TB that passed CRC, so the largest
/// such TB carried at least the mean, and a payload of 1 022 bytes is
/// `(1022 + 3) * 8 = 8 200` info bits, which segments into nine blocks.
fn assert_decoded_a_multi_batch_tb(metrics: &MetricsRegistry) {
    let ok_tbs = metrics.counter("c0-phy-primary", "ul_tbs_decoded")
        - metrics.counter("c0-phy-primary", "ul_crc_failures");
    let bytes = metrics.counter("link:core->server", "bytes");
    assert!(
        ok_tbs > 0 && bytes / ok_tbs >= 1022,
        "no UL TB of >= 9 code blocks: {bytes} B over {ok_tbs} TBs — raise the flow rate"
    );
}

/// Everything a run leaves behind that must not depend on workers or
/// backend: the trace bytes, the trace hash, the engine's
/// dispatched-event hash, and the full published-metrics dump.
type Observed = (Vec<u8>, u64, u64, String);

fn observe(d: &mut Deployment) -> Observed {
    d.publish_metrics();
    let trace = d.engine.event_trace();
    (
        trace.to_bytes(),
        trace.hash(),
        d.engine.trace_hash(),
        d.engine.metrics().to_text(),
    )
}

/// Run a deployment with one uplink flow per cell. A Full-fidelity run
/// must have decoded a TB spanning more than one LDPC batch.
fn run(seed: u64, cells: usize, workers: usize, dsp: Dsp) -> Observed {
    let ues: Vec<UeConfig> = (0..cells)
        .map(|c| UeConfig::new(100 + c as u16, c as u8, &format!("ue-c{c}"), 22.0))
        .collect();
    let mut b = DeploymentBuilder::new()
        .seed(seed)
        .cell(CellConfig {
            fidelity: dsp.fidelity,
            ..small_cell()
        })
        .cells(cells)
        .workers(workers)
        .ues(ues);
    if let Some(backend) = dsp.backend {
        b = b.kernel_config(KernelConfig::forced(backend));
    }
    let mut d = b.build();
    // These cells share nothing within a slot, so each is its own lane
    // (DESIGN.md §5g): at several workers a multi-cell run dispatches
    // lanes in parallel.
    let lanes = if cells > 1 { cells + 1 } else { 1 };
    assert_eq!(d.engine.lane_loads().len(), lanes);
    for i in 0..cells {
        d.add_flow(
            i,
            100 + i as u16,
            Box::new(UdpCbrSource::new(3_000_000, 900, Nanos::ZERO)),
            Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
        );
        if dsp.dl_flow {
            d.add_flow(
                i,
                100 + i as u16,
                Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
                Box::new(UdpCbrSource::new(3_000_000, 900, Nanos::ZERO)),
            );
        }
    }
    d.engine.run_until(Nanos::from_millis(150));
    let observed = observe(&mut d);
    if dsp.fidelity == Fidelity::Full {
        assert_decoded_a_multi_batch_tb(d.engine.metrics());
    }
    observed
}

/// `cells` Sampled cells with an uplink flow each, through a crash of
/// cell 0's active PHY, judged by every trace oracle. One cell gets a
/// one-deep spare pool: the shape most of tier-1 runs, one lane.
/// Several get none, so that each cell is a lane of its own (a pool
/// would couple them into one, DESIGN.md §5g).
fn run_crash(cells: usize, workers: usize, kernels: KernelConfig) -> Observed {
    let scenario =
        Scenario::new("crash", 1600).fault(600, FaultTarget::ActivePhy, FaultKind::PhyCrash);
    let ues: Vec<UeConfig> = (0..cells)
        .map(|c| UeConfig::new(100 + c as u16, c as u8, &format!("ue{c}"), 22.0))
        .collect();
    let mut d = DeploymentBuilder::new()
        .seed(42)
        .cell(small_cell())
        .cells(cells)
        .workers(workers)
        .spare_pool(usize::from(cells == 1))
        .ues(ues)
        .kernel_config(kernels)
        .build();
    let lanes = if cells > 1 { cells + 1 } else { 1 };
    assert_eq!(d.engine.lane_loads().len(), lanes);
    for c in 0..cells {
        d.add_flow(
            c,
            100 + c as u16,
            Box::new(UdpCbrSource::new(4_000_000, 1000, Nanos::ZERO)),
            Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
        );
    }
    let report = run_scenario(&mut d, &scenario);
    assert!(
        report.ok(),
        "oracle violations (workers {workers}, {kernels:?}): {:?}",
        report.violations
    );
    observe(&mut d)
}

/// Across 8 seeds, a 4-worker run of four cells, each in a lane of its
/// own, is byte-identical (trace and metrics) to the 1-worker run of
/// the same seed.
#[test]
fn four_workers_match_single_worker_across_seeds() {
    for seed in 1..=8u64 {
        let (bytes_1, hash_1, _, metrics_1) = run(seed, 4, 1, SAMPLED_UL);
        let (bytes_4, hash_4, _, metrics_4) = run(seed, 4, 4, SAMPLED_UL);
        assert!(!bytes_1.is_empty(), "trace must not be empty (seed {seed})");
        assert_eq!(hash_1, hash_4, "trace hash diverged at seed {seed}");
        assert_eq!(bytes_1, bytes_4, "trace bytes diverged at seed {seed}");
        assert_eq!(metrics_1, metrics_4, "metrics diverged at seed {seed}");
    }
}

/// The same holds on a multi-cell deployment, whose cells run in lanes
/// of their own, so the barrier merge order matters most.
#[test]
fn multi_cell_parallel_matches_serial() {
    for seed in [3u64, 7] {
        let (bytes_1, hash_1, _, metrics_1) = run(seed, 2, 1, SAMPLED_UL);
        let (bytes_4, hash_4, _, metrics_4) = run(seed, 2, 4, SAMPLED_UL);
        assert!(!bytes_1.is_empty(), "trace must not be empty (seed {seed})");
        assert_eq!(hash_1, hash_4, "trace hash diverged at seed {seed}");
        assert_eq!(bytes_1, bytes_4, "trace bytes diverged at seed {seed}");
        assert_eq!(metrics_1, metrics_4, "metrics diverged at seed {seed}");
    }
}

/// The backend contract above kernel level, held here and nowhere
/// else: the scalar arms and the SIMD arms agree on whole deployments.
/// Two shapes — Full fidelity with UL and DL traffic (every DSP stage,
/// both directions, multi-batch LDPC) and the Sampled chaos deployment
/// through an active-PHY crash — each built on every backend this host
/// can run, must yield the same trace, the same dispatched-event hash
/// and the same metrics as the scalar oracle. On a host without AVX2
/// only scalar is available and this passes vacuously.
#[test]
fn kernel_backends_yield_identical_traces() {
    assert_backends_agree("full UL+DL", |backend| {
        let dsp = Dsp {
            backend: Some(backend),
            ..FULL_UL_DL
        };
        run(9, 1, 1, dsp)
    });
    assert_backends_agree("sampled crash", |backend| {
        run_crash(1, 1, KernelConfig::forced(backend))
    });
}

fn assert_backends_agree(shape: &str, run_on: impl Fn(KernelBackend) -> Observed) {
    // Scalar — the oracle — is always first.
    let mut backends = KernelBackend::all_available().into_iter();
    let (bytes_s, hash_s, engine_hash_s, metrics_s) = run_on(backends.next().expect("scalar"));
    assert!(!bytes_s.is_empty(), "{shape}: trace must not be empty");
    for backend in backends {
        let (bytes, hash, engine_hash, metrics) = run_on(backend);
        assert_eq!(hash_s, hash, "{shape}: trace hash diverged on {backend}");
        assert_eq!(
            engine_hash_s, engine_hash,
            "{shape}: event hash diverged on {backend}"
        );
        assert_eq!(bytes_s, bytes, "{shape}: trace bytes diverged on {backend}");
        assert_eq!(metrics_s, metrics, "{shape}: metrics diverged on {backend}");
    }
}

/// Four Full-fidelity cells, each in a lane of its own, at 1 and 4
/// workers: a lane decodes its TBs' LDPC batches in place, their
/// composition set by the TBs alone, so the thread that runs the lane
/// cannot move a byte.
#[test]
fn full_fidelity_four_workers_match_single_worker() {
    let (bytes_1, hash_1, engine_hash_1, metrics_1) = run(9, 4, 1, FULL_UL_DL);
    let (bytes_4, hash_4, engine_hash_4, metrics_4) = run(9, 4, 4, FULL_UL_DL);
    assert_eq!(hash_1, hash_4, "trace hash diverged");
    assert_eq!(engine_hash_1, engine_hash_4, "event hash diverged");
    assert_eq!(bytes_1, bytes_4, "trace bytes diverged");
    assert_eq!(metrics_1, metrics_4, "metrics diverged");
}

/// A coupled Sampled deployment — four cells and two spares in one
/// lane, whose PHYs decode each uplink instant's blocks in shared
/// lockstep batches — leaves the same trace and metrics (the batch and
/// code-block counters among them) on the scalar backend as on the
/// detected one.
#[test]
fn coupled_sampled_deployment_matches_across_backends() {
    let observe_with = |backend: Option<KernelBackend>| {
        let mut d = chaos_pool_deployment(5);
        if let Some(b) = backend {
            d.engine.set_kernel_config(KernelConfig::forced(b));
        }
        d.engine.run_until(Nanos::from_millis(100));
        observe(&mut d)
    };
    let reference = observe_with(None);
    assert!(
        reference.3.contains("ldpc_batches"),
        "the PHYs publish their batch counter"
    );
    assert!(
        reference == observe_with(Some(KernelBackend::Scalar)),
        "the scalar backend diverged"
    );
}

/// The wall-clock profiler is a side channel: enabling it (with a tight
/// deadline budget, so miss-counting paths run too) must not move a
/// byte of the deterministic trace, and the registry stays clean until
/// an explicit `publish`.
#[test]
fn profiler_never_perturbs_trace_or_metrics() {
    let run_profiled = |seed: u64, cells: usize, workers: usize| {
        let ues: Vec<UeConfig> = (0..cells)
            .map(|c| UeConfig::new(100 + c as u16, c as u8, &format!("ue-c{c}"), 22.0))
            .collect();
        let mut d = DeploymentBuilder::new()
            .seed(seed)
            .cell(small_cell())
            .cells(cells)
            .workers(workers)
            .ues(ues)
            .build();
        for c in 0..cells {
            d.add_flow(
                c,
                100 + c as u16,
                Box::new(UdpCbrSource::new(3_000_000, 900, Nanos::ZERO)),
                Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
            );
        }
        d.engine
            .set_profiler(SpanProfiler::with_deadline_ns(SLOT_DURATION.0));
        d.engine.run_until(Nanos::from_millis(150));
        d.publish_metrics();
        let trace = d.engine.event_trace();
        let profile = d.engine.profiler().report().expect("profiler saw slots");
        assert!(profile.slots > 0);
        (trace.to_bytes(), trace.hash(), d.engine.metrics().to_text())
    };
    for seed in [5u64, 11] {
        let (bytes_off, hash_off, _, metrics_off) = run(seed, 1, 1, SAMPLED_UL);
        let (bytes_on, hash_on, metrics_on) = run_profiled(seed, 1, 1);
        assert_eq!(
            hash_off, hash_on,
            "profiler changed trace hash (seed {seed})"
        );
        assert_eq!(
            bytes_off, bytes_on,
            "profiler changed trace bytes (seed {seed})"
        );
        assert_eq!(
            metrics_off, metrics_on,
            "profiler leaked into metrics without publish (seed {seed})"
        );
        // Four cells in lanes of their own, profiled at 4 workers.
        let (bytes_4_off, ..) = run(seed, 4, 1, SAMPLED_UL);
        let (bytes_4_on, ..) = run_profiled(seed, 4, 4);
        assert_eq!(
            bytes_4_off, bytes_4_on,
            "profiled 4-worker run diverged (seed {seed})"
        );
    }
}

/// Chaos smoke at several workers: a primary-PHY crash in one of four
/// cells, each in a lane of its own, satisfies every trace oracle at
/// 4 workers and leaves the 1-worker run's trace and metrics.
#[test]
fn chaos_crash_scenario_passes_oracles_with_workers() {
    let one = run_crash(4, 1, KernelConfig::detect());
    assert!(
        one == run_crash(4, 4, KernelConfig::detect()),
        "4 workers diverged"
    );
}
