//! The five workloads: seed → inputs, inputs → one measured repetition.
//!
//! `--seed` is consumed here and nowhere else. A generator turns it
//! into an [`Inputs`] value (deployment seed, UE SNR draws, fault
//! schedule); the program under test sees only that value, through
//! `DeploymentBuilder` and `ChaosRunner`.

use std::collections::BTreeMap;
use std::time::Instant;

use slingshot::chaos::{expectations_for, ChaosRunner};
use slingshot::{Deployment, DeploymentBuilder, DeploymentConfig, SwitchNode};
use slingshot_netsim::Capture;
use slingshot_ran::{
    AppServerNode, CellConfig, Fidelity, L2Node, MobilityConfig, SliceKind, UeConfig, UeNode,
};
use slingshot_sim::chaos::{oracle, FaultKind, FaultTarget, Scenario};
use slingshot_sim::slo::{self, SloConfig};
use slingshot_sim::trace::TraceEventKind;
use slingshot_sim::{
    KernelConfig, LogHistogram, Nanos, NodeId, Sampler, SimRng, SpanProfiler, TraceBuffer,
    SLOT_DURATION,
};
use slingshot_transport::{UdpCbrSource, UdpSink};

use crate::spans::Spans;

/// Goodput accounting bin; warm-ups are whole multiples of it.
const BIN: Nanos = Nanos::from_millis(10);
const SLOTS_PER_BIN: u64 = BIN.0 / SLOT_DURATION.0;
/// DDDSU: one UL slot in five.
const TDD_STRIDE: u64 = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FullUl,
    FullMixed,
    ScaleAbstract,
    Failover,
    Handover,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::FullUl,
        Workload::FullMixed,
        Workload::ScaleAbstract,
        Workload::Failover,
        Workload::Handover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FullUl => "full_ul",
            Workload::FullMixed => "full_mixed",
            Workload::ScaleAbstract => "scale_abstract",
            Workload::Failover => "failover",
            Workload::Handover => "handover",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// One-line rationale, copied into `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::FullUl => {
                "Full-fidelity UL at 22 dB on 4 cells, 1 worker: the LDPC wall; a phy_dsp or \
                 ran::phy win must show here while failover and handover code stays idle"
            }
            Workload::FullMixed => {
                "Full-fidelity DL+UL at the paper's near-threshold SNRs, 2 workers: encode, \
                 HARQ retx, UE decode and sim::pool; catches iteration tricks that cost BLER"
            }
            Workload::ScaleAbstract => {
                "64 Abstract cells on a 4-leaf fabric: DSP bypassed, so engine lanes, codecs, \
                 fh_mbox, Orion and L2 set the time; must not move when full_ul moves"
            }
            Workload::Failover => {
                "4 Sampled cells + 2 spares under crash, hang and burst-loss faults plus a seeded \
                 crash train: the paper's detection, dropped-TTI and repair claims"
            }
            Workload::Handover => {
                "2 cells with a URLLC corridor walker, a crash and a handover storm: the \
                 fh_mbox UE directory and slice scheduler, not the RU-to-PHY map"
            }
        }
    }
}

/// One CBR flow pair on one UE (either direction may be 0 = absent).
#[derive(Debug, Clone, Copy)]
pub struct Flow {
    pub ue_idx: usize,
    pub rnti: u16,
    pub ul_bps: u64,
    pub dl_bps: u64,
    pub packet: usize,
}

/// Everything the program is given for one workload + seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Workload,
    /// The `--seed` these inputs were drawn from.
    pub seed: u64,
    pub cfg: DeploymentConfig,
    pub cells: usize,
    pub workers: usize,
    pub cell_groups: usize,
    pub shards: usize,
    pub ues: Vec<UeConfig>,
    pub flows: Vec<Flow>,
    /// Fault schedule (chaos workloads); its horizon is the run's end.
    pub scenario: Option<Scenario>,
    pub warmup_slots: u64,
    pub end_slot: u64,
    /// Trace kinds kept (empty = all). Long or wide runs keep only what
    /// the analysis chain reads, as `availability_report` does.
    pub trace_kinds: Vec<TraceEventKind>,
    pub trace_capacity: usize,
}

impl Inputs {
    pub fn timed_slots(&self) -> u64 {
        self.end_slot - self.warmup_slots
    }

    pub fn timed_cell_slots(&self) -> u64 {
        self.cells as u64 * self.timed_slots()
    }

    /// Stable one-line description: the whole seed-derived input.
    pub fn describe(&self) -> String {
        // Every SNR when they fit on a line, else the first four and a
        // checksum over all of them.
        let mut snrs: Vec<String> = self
            .ues
            .iter()
            .take(if self.ues.len() > 8 { 4 } else { 8 })
            .map(|u| format!("{}@{:.3}dB", u.rnti, u.snr.mean_db))
            .collect();
        if self.ues.len() > snrs.len() {
            let sum = self.ues.iter().fold(0u64, |h, u| {
                (h ^ u.snr.mean_db.to_bits()).wrapping_mul(0x0000_0100_0000_01B3)
            });
            snrs.push(format!("... {} UEs, snr-hash {sum:016x}", self.ues.len()));
        }
        let faults = self
            .scenario
            .as_ref()
            .map_or_else(|| "no faults".to_string(), Scenario::describe);
        format!(
            "{} seed={} cells={} ues=[{}] slots={}..{} {}",
            self.workload.name(),
            self.seed,
            self.cells,
            snrs.join(","),
            self.warmup_slots,
            self.end_slot,
            faults
        )
    }
}

/// Horizon scale: `Full` is what the metrics are defined on; `Check`
/// is the `--check` smoke (same code paths, a sliver of the time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Check,
}

fn cell(fidelity: Fidelity) -> CellConfig {
    CellConfig {
        num_prbs: 51,
        fidelity,
        ..CellConfig::default()
    }
}

/// The simulator's own seed is part of the workload, not of `--seed`:
/// one noise realization per workload (the repo's golden-trace seed),
/// perturbed through the inputs below. Measured on `full_ul`, ten
/// simulator seeds spread `goodput_mbps` by 6 % and `tb_bler` more.
const ENGINE_SEED: u64 = 4242;

/// Half-width of the seeded SNR draw, dB. Small on purpose: link
/// adaptation steps at MCS thresholds, so a UE's BLER is a sawtooth in
/// its mean SNR and a wide draw would measure where the seed landed on
/// the sawtooth, not the workload. Over twenty seeds a 0.05 dB draw
/// spread `goodput_mbps` / `tb_success_ratio` by 1.4 % / 1.2 % on
/// `full_ul`; this one by 0.4 % / 0.7 %, and 0.01 dB gained nothing more
/// (any perturbation flips a few marginal TBs), so the driver's bounds on
/// the two can sit at 3 %, under the 3 BLER points (3.9 % of
/// `tb_success_ratio`) an iteration-cap trick costs on `full_mixed`.
const SNR_JITTER_DB: f64 = 0.02;

fn config(cell: CellConfig) -> DeploymentConfig {
    DeploymentConfig {
        cell,
        seed: ENGINE_SEED,
        ..DeploymentConfig::default()
    }
}

/// The kinds `slo::analyze`, `oracle::check` and the failover timing
/// rows read; everything else is per-slot chatter.
fn analysis_kinds() -> Vec<TraceEventKind> {
    vec![
        TraceEventKind::MapFlip,
        TraceEventKind::UlSlotProcessed,
        TraceEventKind::DetectorSaturated,
        TraceEventKind::SpareRequested,
        TraceEventKind::SpareGranted,
        TraceEventKind::SpareReturned,
        TraceEventKind::StandbyRepaired,
    ]
}

/// Generate a workload's inputs from the seed.
pub fn generate(w: Workload, seed: u64, scale: Scale) -> Inputs {
    let mut rng = SimRng::new(seed ^ 0x51_1265_0b3c_4a11);
    let mut snr = |nominal: f64| nominal + rng.range_f64(-SNR_JITTER_DB, SNR_JITTER_DB);
    let check = scale == Scale::Check;
    match w {
        Workload::FullUl => {
            let cells = 4;
            let ues: Vec<UeConfig> = (0..cells)
                .map(|c| UeConfig::new(100 + c as u16, c as u8, &format!("ue-c{c}"), snr(22.0)))
                .collect();
            let flows = (0..cells)
                .map(|c| Flow {
                    ue_idx: c,
                    rnti: 100 + c as u16,
                    ul_bps: 12_000_000,
                    dl_bps: 0,
                    packet: 1200,
                })
                .collect();
            Inputs {
                workload: w,
                seed,
                cfg: config(cell(Fidelity::Full)),
                cells,
                workers: 1,
                cell_groups: 1,
                shards: 1,
                ues,
                flows,
                scenario: None,
                warmup_slots: if check { 20 } else { 100 },
                end_slot: if check { 40 } else { 500 },
                trace_kinds: Vec::new(),
                trace_capacity: 1 << 20,
            }
        }
        Workload::FullMixed => {
            let cells = 2;
            // The paper's three handsets (OnePlus / Samsung / RPi).
            let nominal = [19.5, 16.5, 24.0];
            let mut ues = Vec::new();
            let mut flows = Vec::new();
            for c in 0..cells {
                for (k, &db) in nominal.iter().enumerate() {
                    let idx = c * nominal.len() + k;
                    let rnti = 100 + idx as u16;
                    ues.push(UeConfig::new(
                        rnti,
                        c as u8,
                        &format!("ue-c{c}-{k}"),
                        snr(db),
                    ));
                    flows.push(Flow {
                        ue_idx: idx,
                        rnti,
                        ul_bps: 1_500_000,
                        dl_bps: 6_000_000,
                        packet: 1000,
                    });
                }
            }
            Inputs {
                workload: w,
                seed,
                cfg: config(cell(Fidelity::Full)),
                cells,
                workers: 2,
                cell_groups: 1,
                shards: 1,
                ues,
                flows,
                scenario: None,
                warmup_slots: if check { 20 } else { 100 },
                end_slot: if check { 40 } else { 400 },
                trace_kinds: Vec::new(),
                trace_capacity: 1 << 20,
            }
        }
        Workload::ScaleAbstract => {
            let cells = if check { 16 } else { 64 };
            let ues: Vec<UeConfig> = (0..cells)
                .map(|c| UeConfig::new(100 + c as u16, c as u8, &format!("ue-c{c}"), snr(22.0)))
                .collect();
            let flows = (0..cells)
                .map(|c| Flow {
                    ue_idx: c,
                    rnti: 100 + c as u16,
                    ul_bps: 1_000_000,
                    dl_bps: 0,
                    packet: 600,
                })
                .collect();
            Inputs {
                workload: w,
                seed,
                cfg: config(cell(Fidelity::Abstract)),
                cells,
                workers: 1,
                cell_groups: 4,
                shards: 2,
                ues,
                flows,
                scenario: None,
                warmup_slots: if check { 20 } else { 100 },
                end_slot: if check { 60 } else { 2100 },
                trace_kinds: analysis_kinds(),
                trace_capacity: 1 << 18,
            }
        }
        Workload::Failover => {
            let cells = 4;
            let horizon: u64 = if check { 1_200 } else { 8_000 };
            let ues: Vec<UeConfig> = (0..cells)
                .map(|c| UeConfig::new(100 + c as u16, c as u8, &format!("ue{c}"), snr(22.0)))
                .collect();
            let flows = (0..cells)
                .map(|c| Flow {
                    ue_idx: c,
                    rnti: 100 + c as u16,
                    ul_bps: 4_000_000,
                    dl_bps: 0,
                    packet: 1000,
                })
                .collect();
            Inputs {
                workload: w,
                seed,
                cfg: DeploymentConfig {
                    spare_pool: 2,
                    ..config(cell(Fidelity::Sampled))
                },
                cells,
                workers: 1,
                cell_groups: 1,
                shards: 1,
                ues,
                flows,
                scenario: Some(failover_scenario(&mut rng, cells as u64, horizon)),
                warmup_slots: 200,
                end_slot: horizon,
                trace_kinds: Vec::new(),
                trace_capacity: 1 << 20,
            }
        }
        Workload::Handover => {
            // The chaos suite's mobility testbed and its two handover
            // scenarios in one run. The corridor model is RNG-free
            // (report ~slot 615, armed 631, flip 635 on every seed), so
            // the crash at 628 lands mid-handover; its slot stays fixed
            // because one slot either way moves a dropped TTI.
            let ues = vec![
                UeConfig::new(100, 0, "ue-mobile", snr(22.0))
                    .with_slice(SliceKind::Urllc)
                    .with_mobility(MobilityConfig::two_cell_corridor()),
                UeConfig::new(101, 0, "ue-embb", snr(24.0)).with_slice(SliceKind::Embb),
                UeConfig::new(102, 1, "ue-mmtc", snr(24.0)).with_slice(SliceKind::Mmtc),
            ];
            let flows = vec![
                Flow {
                    ue_idx: 0,
                    rnti: 100,
                    ul_bps: 1_000_000,
                    dl_bps: 0,
                    packet: 200,
                },
                Flow {
                    ue_idx: 1,
                    rnti: 101,
                    ul_bps: 4_000_000,
                    dl_bps: 0,
                    packet: 1000,
                },
                Flow {
                    ue_idx: 2,
                    rnti: 102,
                    ul_bps: 500_000,
                    dl_bps: 0,
                    packet: 400,
                },
            ];
            // The --check horizon ends after the handover, before the storm.
            let horizon = if check { 900 } else { 2_800 };
            let mut scenario = Scenario::new("handover", horizon).fault(
                628,
                FaultTarget::ActivePhyOf(1),
                FaultKind::PhyCrash,
            );
            if !check {
                scenario = scenario.fault(
                    1_500,
                    FaultTarget::HandoverController,
                    FaultKind::HandoverStorm { requests: 8 },
                );
            }
            Inputs {
                workload: w,
                seed,
                cfg: DeploymentConfig {
                    spare_pool: 1,
                    handover: true,
                    ..config(cell(Fidelity::Sampled))
                },
                cells: 2,
                workers: 1,
                cell_groups: 1,
                shards: 1,
                ues,
                flows,
                scenario: Some(scenario),
                warmup_slots: 200,
                end_slot: horizon,
                trace_kinds: Vec::new(),
                trace_capacity: 1 << 21,
            }
        }
    }
}

/// Crashes in the seeded train of the `failover` workload.
const CRASH_TRAIN: u64 = 8;

/// Three of the chaos suite's fixed fault classes on cell 0 (crash,
/// hang, fronthaul burst loss), then a seeded crash train over all
/// cells. The suite's fourth class, a planned migration,
/// is left out: on a multi-cell deployment the per-cell oracle flags the
/// old PHY's last pipelined UL slot as `one-active-phy` on every seed
/// and slot tried, and a workload must be one on which nothing fails.
fn failover_scenario(rng: &mut SimRng, cells: u64, horizon: u64) -> Scenario {
    let mut s = Scenario::new("failover", horizon)
        .fault(400, FaultTarget::ActivePhy, FaultKind::PhyCrash)
        .fault(
            700,
            FaultTarget::ActivePhy,
            FaultKind::PhyHang { slots: 40 },
        )
        .fault(
            1_000,
            FaultTarget::Fronthaul,
            FaultKind::BurstLoss { p: 0.2, slots: 60 },
        );
    // Eight crashes, two per cell in cell order, one every 700 slots
    // with a seeded phase: the seed moves when, not how many or where.
    // (Which cell falls first is not neutral: rotating the victims moved
    // `goodput_mbps` between 10.6 and 13.6 while `avail_nines` held, which
    // is a finding about the program, not noise to average over.)
    for k in 0..CRASH_TRAIN {
        let slot = 1_400 + k * 700 + rng.below(200);
        if slot + 400 >= horizon {
            break; // the --check horizon holds only the fixed faults
        }
        let victim = (k % cells) as u8;
        s = s.fault(slot, FaultTarget::ActivePhyOf(victim), FaultKind::PhyCrash);
    }
    s
}

/// Cumulative counters at one instant; two of them bracket the timed
/// window. Taking one calls `publish_metrics`, so it happens outside
/// the timed window (the first is part of set-up).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// The metrics registry's counters, keyed `(scope, name)`.
    counters: BTreeMap<(String, String), u64>,
    pub dispatched: u64,
    pub link_sent: u64,
    pub link_bytes: u64,
    pub lane_busy_ns: Vec<u64>,
    pub sched_new_tx: u64,
    pub sched_retx: u64,
    pub harq_failures: u64,
}

impl Snapshot {
    pub fn take(d: &mut Deployment) -> Snapshot {
        d.publish_metrics();
        let counters = d
            .engine
            .metrics()
            .counters()
            .map(|(scope, name, v)| ((scope.to_string(), name.to_string()), v))
            .collect();
        let links = d.engine.total_link_stats();
        let (mut new_tx, mut retx, mut harq_failures) = (0, 0, 0);
        for l2 in d.cells.iter().filter_map(|c| d.engine.node::<L2Node>(c.l2)) {
            new_tx += l2.sched.ul_new_tx + l2.sched.dl_new_tx;
            retx += l2.sched.ul_retx + l2.sched.dl_retx;
            harq_failures += l2.sched.ul_harq_failures + l2.sched.dl_harq_failures;
        }
        Snapshot {
            counters,
            dispatched: d.engine.dispatched(),
            link_sent: links.sent,
            link_bytes: links.bytes,
            lane_busy_ns: d.engine.lane_busy_ns(),
            sched_new_tx: new_tx,
            sched_retx: retx,
            harq_failures,
        }
    }

    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.counters.get(k).copied().unwrap_or(0)))
                .collect(),
            dispatched: self.dispatched - earlier.dispatched,
            link_sent: self.link_sent - earlier.link_sent,
            link_bytes: self.link_bytes - earlier.link_bytes,
            lane_busy_ns: self
                .lane_busy_ns
                .iter()
                .zip(&earlier.lane_busy_ns)
                .map(|(a, b)| a - b)
                .collect(),
            sched_new_tx: self.sched_new_tx - earlier.sched_new_tx,
            sched_retx: self.sched_retx - earlier.sched_retx,
            harq_failures: self.harq_failures - earlier.harq_failures,
        }
    }

    /// A counter summed over the scopes `keep` accepts.
    pub fn sum_in(&self, keep: impl Fn(&str) -> bool, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|((scope, n), _)| n == name && keep(scope))
            .map(|(_, v)| v)
            .sum()
    }

    /// A counter summed over every node that publishes it.
    pub fn sum(&self, name: &str) -> u64 {
        self.sum_in(|_| true, name)
    }
}

/// The switches that run the fronthaul middlebox: the leaves of a
/// fabric build, else the one shared switch.
pub fn switches(d: &Deployment) -> Vec<NodeId> {
    if d.leaves.is_empty() {
        vec![d.switch]
    } else {
        d.leaves.clone()
    }
}

/// What one repetition hands back.
pub struct RepOutcome {
    /// Build + flows + warm-up, host seconds.
    pub setup_s: f64,
    /// `DeploymentBuilder::build` alone, host seconds.
    pub build_s: f64,
    /// Timed window, host seconds.
    pub wall_s: f64,
    /// `oracle::check`, host seconds (chaos workloads).
    pub oracle_check_s: f64,
    /// Engine event-stream hash and structured-trace hash at the end.
    pub hashes: (u64, u64),
    pub d: Deployment,
    pub oracle: Option<oracle::OracleReport>,
    pub urllc_deadline_slots: Option<u64>,
    /// One frame capture per switch (traced repetitions only).
    pub captures: Vec<Capture>,
    /// Counters at the end of warm-up.
    pub warm: Snapshot,
}

fn slot_time(slot: u64) -> Nanos {
    Nanos(slot * SLOT_DURATION.0)
}

/// Build the deployment `inputs` describes, with the DSP backend pinned
/// (detect, tolerance 0.0) so the environment cannot change the kernels.
pub fn build(inputs: &Inputs, workers: usize) -> Deployment {
    let mut d = DeploymentBuilder::new()
        .config(inputs.cfg.clone())
        .cells(inputs.cells)
        .cell_groups(inputs.cell_groups)
        .shards(inputs.shards)
        .workers(workers)
        .kernel_config(KernelConfig::detect())
        .trace(inputs.trace_capacity)
        .ues(inputs.ues.iter().cloned())
        .build();
    if !inputs.trace_kinds.is_empty() {
        d.engine
            .event_trace_mut()
            .set_kind_filter(&inputs.trace_kinds);
    }
    for f in &inputs.flows {
        if f.ul_bps > 0 {
            d.add_flow(
                f.ue_idx,
                f.rnti,
                Box::new(UdpCbrSource::new(f.ul_bps, f.packet, Nanos::ZERO)),
                Box::new(UdpSink::new(Nanos::ZERO, BIN)),
            );
        }
        if f.dl_bps > 0 {
            d.add_flow(
                f.ue_idx,
                f.rnti,
                Box::new(UdpSink::new(Nanos::ZERO, BIN)),
                Box::new(UdpCbrSource::new(f.dl_bps, f.packet, Nanos::ZERO)),
            );
        }
    }
    d
}

/// One repetition: build, warm up, run the timed window. With
/// `profiler` enabled this is the traced repetition; `spans` records
/// the benchmark's own calls either way (it is inert when disabled).
pub fn run_rep(
    inputs: &Inputs,
    workers: usize,
    profiler: SpanProfiler,
    spans: &Spans,
) -> RepOutcome {
    let traced = profiler.is_enabled();
    let _rep = spans.enter("rep");
    let t0 = Instant::now();
    let mut d = {
        let _s = spans.enter("build");
        build(inputs, workers)
    };
    let build_s = t0.elapsed().as_secs_f64();
    let mut captures = Vec::new();
    if traced {
        for sw in switches(&d) {
            let node = d.engine.node_mut::<SwitchNode>(sw);
            captures.push(node.expect("a middlebox switch").enable_capture());
        }
    }
    // Expectations read the initial serving map, so before any slot runs.
    let exp = inputs.scenario.as_ref().map(|s| expectations_for(&d, s));
    {
        let _s = spans.enter("warm_up");
        d.engine.run_until(slot_time(inputs.warmup_slots));
    }
    let warm = Snapshot::take(&mut d);
    for c in &captures {
        c.clear();
    }
    let setup_s = t0.elapsed().as_secs_f64();

    // The profiler goes on after warm-up so its counts are the timed
    // window's. (Lanes of a sharded engine copy the handle at build
    // time, so on the lane path only barrier spans reach it.)
    d.engine.set_profiler(profiler);
    let wall_s = {
        let _s = spans.enter("run");
        let t1 = Instant::now();
        match &inputs.scenario {
            Some(s) => ChaosRunner::new(s).run(&mut d, inputs.end_slot),
            None => d.engine.run_until(slot_time(inputs.end_slot)),
        }
        t1.elapsed().as_secs_f64()
    };
    d.engine.set_profiler(SpanProfiler::disabled());

    let hashes = (d.engine.trace_hash(), d.engine.event_trace().hash());
    let t2 = Instant::now();
    let oracle = exp.as_ref().map(|exp| {
        let _s = spans.enter("oracle_check");
        oracle::check(d.engine.event_trace(), exp)
    });
    RepOutcome {
        setup_s,
        build_s,
        wall_s,
        oracle_check_s: t2.elapsed().as_secs_f64(),
        hashes,
        d,
        oracle,
        urllc_deadline_slots: exp.and_then(|e| e.urllc_deadline_slots),
        captures,
        warm,
    }
}

/// Simulated-clock results of one repetition. Deterministic for a
/// given `Inputs`: every field must repeat bit for bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimResults {
    pub goodput_mbps: f64,
    pub delivered_bytes: u64,
    pub tbs_attempted: u64,
    pub tbs_failed: u64,
    pub ul_ttis_expected: u64,
    pub ul_ttis_dropped: u64,
    pub avail_nines: f64,
    pub orion_fwd_p50_us: f64,
    pub orion_fwd_p99_us: f64,
    pub detections: u64,
    pub detect_us_p50: f64,
    pub detect_us_max: f64,
    pub dropped_ttis_max: u64,
    pub mttr_ms: f64,
    pub repair_ms_p50: f64,
    pub ho_interrupt_slots_max: u64,
    pub urllc_deadline_misses: u64,
    pub oracle_violations: u64,
    pub trace_events: u64,
    pub trace_truncated: bool,
}

impl SimResults {
    pub fn tb_success_ratio(&self) -> f64 {
        1.0 - self.tb_bler()
    }

    pub fn tb_bler(&self) -> f64 {
        self.tbs_failed as f64 / self.tbs_attempted.max(1) as f64
    }
}

/// A finished repetition reduced to numbers.
pub struct Analysis {
    pub sim: SimResults,
    /// Counters over the timed window.
    pub counts: Snapshot,
    /// Busiest lane's host time per simulated slot; 0 on the unsharded
    /// engine path, which has no lanes.
    pub lane_slot_us: f64,
    pub slo_analyze_ms: f64,
}

/// Reduce a finished repetition: counters over the timed window, the
/// SLO analysis, and the simulated-clock results.
pub fn analyze(inputs: &Inputs, out: &mut RepOutcome, spans: &Spans) -> Analysis {
    let counts = {
        let _s = spans.enter("publish_metrics");
        Snapshot::take(&mut out.d).since(&out.warm)
    };
    let d = &out.d;
    let first_bin = (inputs.warmup_slots / SLOTS_PER_BIN) as usize;
    let last_bin = (inputs.end_slot / SLOTS_PER_BIN) as usize;
    let window = |sink: &UdpSink| -> u64 {
        let bins = sink.bins.bins();
        bins[first_bin.min(bins.len())..last_bin.min(bins.len())]
            .iter()
            .sum()
    };
    let server = d
        .engine
        .node::<AppServerNode>(d.server)
        .expect("deployment has an app server");
    let mut delivered = 0u64;
    for f in &inputs.flows {
        if f.ul_bps > 0 {
            delivered += server.app::<UdpSink>(f.rnti, 0).map_or(0, window);
        }
        if f.dl_bps > 0 {
            let ue = d
                .engine
                .node::<UeNode>(d.ues[f.ue_idx])
                .expect("flow names a UE");
            // The DL sink is the UE's second app when it also sends UL.
            let idx = usize::from(f.ul_bps > 0);
            delivered += ue.app::<UdpSink>(idx).map_or(0, window);
        }
    }
    let timed_s = inputs.timed_slots() as f64 * SLOT_DURATION.0 as f64 / 1e9;

    let mut orion = LogHistogram::new();
    for (_, name, h) in d.engine.metrics().histograms() {
        if name == "fwd_latency_ns" {
            orion.merge(h);
        }
    }

    let trace = d.engine.event_trace();
    let slo_cfg = SloConfig {
        // The UL TTI in flight when the run stops is not an outage.
        horizon_slots: inputs.end_slot - TDD_STRIDE,
        initial_active: d
            .cells
            .iter()
            .map(|c| (c.ru_id as u64, c.primary_phy_id as u64))
            .collect(),
        ..SloConfig::default()
    };
    let t = Instant::now();
    let report = {
        let _s = spans.enter("slo_analyze");
        slo::analyze(trace, &slo_cfg)
    };
    let slo_analyze_ms = t.elapsed().as_secs_f64() * 1e3;
    let fleet = &report.fleet;
    let us = |n: Option<Nanos>| n.map_or(0.0, |n| n.0 as f64 / 1e3);
    let dropped_ttis_max = report
        .cells
        .iter()
        .flat_map(|c| c.outages.iter())
        .map(|o| o.missing_ttis)
        .max()
        .unwrap_or(0);
    // Request → repaired, per cell, in trace order.
    let mut repair = Sampler::new();
    let mut pending: BTreeMap<u64, Nanos> = BTreeMap::new();
    for e in trace.iter() {
        match e.kind {
            TraceEventKind::SpareRequested => {
                pending.entry(e.a).or_insert(e.at);
            }
            TraceEventKind::StandbyRepaired => {
                if let Some(t0) = pending.remove(&e.a) {
                    repair.record_nanos(e.at.saturating_sub(t0));
                }
            }
            _ => {}
        }
    }
    let (ho_interrupt, urllc_misses) = if d.handover.is_some() {
        let deadlines: Vec<(u64, u64)> = out
            .urllc_deadline_slots
            .map(|dl| vec![(SliceKind::Urllc as u64, dl)])
            .unwrap_or_default();
        let slices = slo::analyze_slices(trace, &deadlines);
        let misses = slices
            .slice(SliceKind::Urllc as u64)
            .map_or(0, |s| s.deadline_misses);
        (handover_interruption(trace), misses)
    } else {
        (0, 0)
    };

    let busiest_lane_ns = counts.lane_busy_ns.iter().max().copied().unwrap_or(0);
    let lane_slot_us = busiest_lane_ns as f64 / inputs.timed_slots() as f64 / 1e3;
    let sim = SimResults {
        goodput_mbps: delivered as f64 * 8.0 / timed_s / 1e6,
        delivered_bytes: delivered,
        tbs_attempted: counts.sum("ul_tbs_decoded")
            + counts.sum("dl_tbs_ok")
            + counts.sum("dl_tbs_bad"),
        tbs_failed: counts.sum("ul_crc_failures") + counts.sum("dl_tbs_bad"),
        ul_ttis_expected: fleet.expected_ttis,
        ul_ttis_dropped: fleet.dropped_ttis,
        avail_nines: fleet.nines,
        orion_fwd_p50_us: orion.p50().unwrap_or(0) as f64 / 1e3,
        orion_fwd_p99_us: orion.p99().unwrap_or(0) as f64 / 1e3,
        detections: fleet.detections,
        detect_us_p50: us(fleet.detection_p50),
        detect_us_max: us(fleet.detection_max),
        dropped_ttis_max,
        mttr_ms: us(fleet.mttr) / 1e3,
        repair_ms_p50: repair.median().unwrap_or(0) as f64 / 1e6,
        ho_interrupt_slots_max: ho_interrupt,
        urllc_deadline_misses: urllc_misses,
        oracle_violations: out.oracle.as_ref().map_or(0, |o| o.violations.len() as u64),
        trace_events: trace.total_recorded(),
        trace_truncated: report.truncated,
    };
    Analysis {
        sim,
        counts,
        lane_slot_us,
        slo_analyze_ms,
    }
}

/// Worst gap, in slots, from a `HandoverFlip` to that UE's next
/// `UeScheduled` on the target cell.
fn handover_interruption(trace: &TraceBuffer) -> u64 {
    let mut worst = 0;
    for flip in trace.of_kind(TraceEventKind::HandoverFlip) {
        // HandoverFlip: a = RNTI, b = (source RU << 16) | target RU.
        // UeScheduled: a = RNTI | (RU << 16) | (slice << 24), b = slot.
        let (rnti, target) = (flip.a, flip.b & 0xFFFF);
        let flip_slot = flip.at.0 / SLOT_DURATION.0;
        let next = trace
            .of_kind(TraceEventKind::UeScheduled)
            .filter(|e| e.a & 0xFFFF == rnti && (e.a >> 16) & 0xFF == target)
            .map(|e| e.b)
            .filter(|&s| s >= flip_slot)
            .min();
        if let Some(s) = next {
            worst = worst.max(s - flip_slot);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_for_every_workload() {
        for w in Workload::ALL {
            let a = generate(w, 4242, Scale::Full).describe();
            let b = generate(w, 4242, Scale::Full).describe();
            assert_eq!(a, b, "{}", w.name());
        }
    }

    #[test]
    fn different_seed_different_snrs_for_every_workload() {
        for w in Workload::ALL {
            let a = generate(w, 4242, Scale::Full);
            let b = generate(w, 4243, Scale::Full);
            let snr = |i: &Inputs| -> Vec<u64> {
                i.ues.iter().map(|u| u.snr.mean_db.to_bits()).collect()
            };
            assert_ne!(snr(&a), snr(&b), "{}", w.name());
        }
    }

    #[test]
    fn fault_schedules_follow_the_seed_and_stay_inside_the_horizon() {
        let a = generate(Workload::Failover, 1, Scale::Full)
            .scenario
            .expect("chaos workload");
        let b = generate(Workload::Failover, 2, Scale::Full)
            .scenario
            .expect("chaos workload");
        assert_ne!(a.describe(), b.describe());
        assert_eq!(a.faults.len() as u64, 3 + CRASH_TRAIN);
        // Same crashes on the same cells; only their phase moves.
        let victims =
            |s: &Scenario| -> Vec<FaultTarget> { s.faults.iter().map(|f| f.target).collect() };
        assert_eq!(victims(&a), victims(&b));
        for f in a.faults.iter().chain(&b.faults) {
            assert!(f.at_slot > 200 && f.at_slot + 400 < a.horizon_slots, "{f}");
        }
        // The handover choreography is seed-independent, so its faults are.
        let h = |seed| generate(Workload::Handover, seed, Scale::Full).scenario;
        assert_eq!(h(1), h(2));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{}", w.name());
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
