//! The worker-pool contract: fanning slot DSP out over N workers must
//! not move a single byte of the event trace (or any metric) relative
//! to the serial single-worker run. Dispatch order, RNG draws, and
//! merge order are all pinned in the serial prepare/merge phases, so
//! the pool size is invisible to everything the simulation observes.
//! The kernel backend is held to the same contract: every SIMD arm is
//! bit-exact, so the backend is invisible too.

use slingshot::chaos::run_scenario;
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

/// The shape most of tier-1 runs: one Sampled cell with a one-deep
/// spare pool and an uplink flow, through a crash of the active PHY,
/// judged by every trace oracle.
fn run_crash(workers: usize, kernels: KernelConfig) -> Observed {
    let scenario =
        Scenario::new("crash", 1600).fault(600, FaultTarget::ActivePhy, FaultKind::PhyCrash);
    let mut d = DeploymentBuilder::new()
        .seed(42)
        .cell(small_cell())
        .workers(workers)
        .spare_pool(1)
        .ue(UeConfig::new(100, 0, "ue100", 22.0))
        .kernel_config(kernels)
        .build();
    d.add_flow(
        0,
        100,
        Box::new(UdpCbrSource::new(4_000_000, 1000, Nanos::ZERO)),
        Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
    );
    let report = run_scenario(&mut d, &scenario);
    assert!(
        report.ok(),
        "oracle violations (workers {workers}, {kernels:?}): {:?}",
        report.violations
    );
    observe(&mut d)
}

/// Across 8 seeds, a 4-worker run is byte-identical (trace and
/// metrics) to the 1-worker run of the same seed.
#[test]
fn four_workers_match_single_worker_across_seeds() {
    for seed in 1..=8u64 {
        let (bytes_1, hash_1, _, metrics_1) = run(seed, 1, 1, SAMPLED_UL);
        let (bytes_4, hash_4, _, metrics_4) = run(seed, 1, 4, SAMPLED_UL);
        assert!(!bytes_1.is_empty(), "trace must not be empty (seed {seed})");
        assert_eq!(hash_1, hash_4, "trace hash diverged at seed {seed}");
        assert_eq!(bytes_1, bytes_4, "trace bytes diverged at seed {seed}");
        assert_eq!(metrics_1, metrics_4, "metrics diverged at seed {seed}");
    }
}

/// The same holds on a multi-cell deployment, where per-cell slot work
/// is interleaved in the queue and the merge order matters most.
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
        run_crash(1, KernelConfig::forced(backend))
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

/// The same Full-fidelity deployment at 1 and 4 workers: a TB's LDPC
/// batches are the pool's jobs, and their composition comes from the
/// TB's size alone, so the worker count still cannot move a byte.
#[test]
fn full_fidelity_four_workers_match_single_worker() {
    let (bytes_1, hash_1, engine_hash_1, metrics_1) = run(9, 1, 1, FULL_UL_DL);
    let (bytes_4, hash_4, engine_hash_4, metrics_4) = run(9, 1, 4, FULL_UL_DL);
    assert_eq!(hash_1, hash_4, "trace hash diverged");
    assert_eq!(engine_hash_1, engine_hash_4, "event hash diverged");
    assert_eq!(bytes_1, bytes_4, "trace bytes diverged");
    assert_eq!(metrics_1, metrics_4, "metrics diverged");
}

/// The wall-clock profiler is a side channel: enabling it (with a tight
/// deadline budget, so miss-counting paths run too) must not move a
/// byte of the deterministic trace, and the registry stays clean until
/// an explicit `publish`.
#[test]
fn profiler_never_perturbs_trace_or_metrics() {
    let run_profiled = |seed: u64, workers: usize| {
        let mut d = DeploymentBuilder::new()
            .seed(seed)
            .cell(small_cell())
            .workers(workers)
            .ue(UeConfig::new(100, 0, "ue-c0", 22.0))
            .build();
        d.add_flow(
            0,
            100,
            Box::new(UdpCbrSource::new(3_000_000, 900, Nanos::ZERO)),
            Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
        );
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
        let (bytes_on, hash_on, metrics_on) = run_profiled(seed, 1);
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
        let (bytes_w4, ..) = run_profiled(seed, 4);
        assert_eq!(
            bytes_off, bytes_w4,
            "profiled 4-worker run diverged (seed {seed})"
        );
    }
}

/// Chaos smoke under a worker pool: a primary-PHY crash handled while
/// slot DSP runs on 4 workers still satisfies every trace oracle.
#[test]
fn chaos_crash_scenario_passes_oracles_with_workers() {
    run_crash(4, KernelConfig::detect());
}
