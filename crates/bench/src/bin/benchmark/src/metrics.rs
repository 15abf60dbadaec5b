//! The metric catalogue: every name the benchmark emits, with its unit,
//! clock, direction, bound and definition (the tables print the
//! definition beside each value). `BENCHMARK.json` is printed from these
//! tables (`--manifest`) and `--check` fails if the two ever differ.

use crate::json::Json;
use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall clock of the machine running the simulator: noisy, reported
    /// as a median over repetitions.
    Host,
    /// Simulated time or a count made by the program: repeats exactly
    /// for a given seed, so any change is real.
    Sim,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// By what share of `base` is `new` worse? Positive = worse. From a
    /// base of 0 (where most bound-0 claims sit) any worsening is
    /// infinite, so it is over every bound.
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        let worse_by = match self {
            Better::Higher => base - new,
            Better::Lower => new - base,
        };
        if base != 0.0 {
            worse_by / base.abs()
        } else if worse_by > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    }
}

use Better::{Higher, Lower};
use Clock::{Host, Sim};

/// An end-to-end metric every workload reports (the manifest's
/// `end_to_end` list; the driver wants each of them, non-zero, on every
/// workload).
///
/// Two bounds, for two comparisons. `bound` is the issue's regression
/// bound: `--compare` and `results.json` apply it to two result sets of
/// one seed, where simulated-clock values repeat exactly and host-clock
/// values are medians over all rounds; a host metric whose own spread
/// (IQR over median) exceeds it reads `unresolved`, never `ok`.
/// `driver_bound` is the manifest's: the driver compares medians of
/// single runs over *different* seeds and accepts a bound only if the
/// spread of ten such runs stays within a third of it, so it is three
/// times the widest spread measured on any workload (README, "Measured
/// spreads"), and at most 0.25.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    pub bound: f64,
    pub driver_bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        clock: Host,
        better: Lower,
        bound: 0.15,
        driver_bound: 0.25,
        what: "DeploymentBuilder::build + flows + warm-up to the first timed slot (lazy Gold, \
               pilot, LUT and scratch caches fill here); median of repetitions",
    },
    EndToEnd {
        name: "cell_slots_per_s",
        unit: "1/s",
        clock: Host,
        better: Higher,
        bound: 0.10,
        driver_bound: 0.25,
        what: "timed cell-slots divided by host wall time; median of repetitions",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        clock: Host,
        better: Lower,
        bound: 0.05,
        driver_bound: 0.15,
        what: "VmHWM after the process's first repetition: what one run of the workload needs",
    },
    EndToEnd {
        name: "goodput_mbps",
        unit: "Mbps",
        clock: Sim,
        better: Higher,
        bound: 0.01,
        driver_bound: 0.03,
        what: "application bytes delivered in the timed window divided by its simulated length",
    },
    // `bound` here is the issue's +0.002 absolute BLER, taken at the 0.66
    // to 0.87 the DSP workloads run at.
    EndToEnd {
        name: "tb_success_ratio",
        unit: "ratio",
        clock: Sim,
        better: Higher,
        bound: 0.003,
        driver_bound: 0.03,
        what: "1 - tb_bler: transport blocks that passed CRC over blocks handed to a decode \
               chain (UL at the PHY + DL at the UE) in the timed window",
    },
];

/// A metric measured only where its mechanism runs (the issue's other
/// end-to-end rows). `results.json` and `--compare` carry it on
/// `workloads` under `name`; the driver sees it on every workload under
/// `layer`, its per-layer name, where off-path it reads 0. `hard_max` is
/// the paper's limit, checked by the correctness gate. Simulated-clock
/// claims have bound 0: same seed, any worsening is real.
pub struct Claim {
    pub name: &'static str,
    pub layer: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    pub bound: f64,
    pub workloads: &'static [Workload],
    pub hard_max: Option<f64>,
    pub what: &'static str,
}

use Workload::{Failover, FullMixed, FullUl, Handover, ScaleAbstract};

pub const CLAIMS: &[Claim] = &[
    Claim {
        name: "lane_slot_us",
        layer: "sim.engine.lane_slot_us",
        unit: "us",
        clock: Host,
        better: Lower,
        bound: 0.10,
        workloads: &[ScaleAbstract],
        hard_max: None,
        what: "host time the busiest engine lane needs per simulated slot (the 450 us \
               capacity criterion): worst Engine::lane_busy_ns over timed slots",
    },
    Claim {
        name: "tb_bler",
        layer: "phy_dsp.harq.tb_bler",
        unit: "ratio",
        clock: Sim,
        better: Lower,
        bound: 0.0,
        workloads: &[FullUl, FullMixed],
        hard_max: None,
        what: "CRC-failed TBs over TBs attempted (1 - tb_success_ratio)",
    },
    Claim {
        name: "orion_fwd_p99_us",
        layer: "core.orion.fwd_p99_us",
        unit: "us",
        clock: Sim,
        better: Lower,
        bound: 0.0,
        workloads: &[FullMixed, Failover],
        hard_max: Some(200.0),
        what: "p99 of Orion fwd_latency_ns over the whole run (Fig. 12 in situ)",
    },
    Claim {
        name: "detect_us_max",
        layer: "core.failover.detect_us_max",
        unit: "us",
        clock: Sim,
        better: Lower,
        bound: 0.0,
        workloads: &[Failover, Handover],
        hard_max: Some(450.0),
        what: "FleetSlo::detection_max: last heartbeat to DetectorSaturated",
    },
    Claim {
        name: "dropped_ttis_max",
        layer: "core.failover.dropped_ttis_max",
        unit: "TTIs",
        clock: Sim,
        better: Lower,
        bound: 0.0,
        workloads: &[Failover, Handover],
        hard_max: Some(3.0),
        what: "worst per-outage count of UL TTIs that were never delivered",
    },
    Claim {
        name: "avail_nines",
        layer: "sim.slo.avail_nines",
        unit: "nines",
        clock: Sim,
        better: Higher,
        bound: 0.0,
        workloads: &[Failover, Handover],
        hard_max: None,
        what: "FleetSlo::nines: -log10 of the share of expected UL TTIs that were not \
               delivered (9 when none was dropped)",
    },
    Claim {
        name: "mttr_ms",
        layer: "core.recovery.mttr_ms",
        unit: "ms",
        clock: Sim,
        better: Lower,
        bound: 0.0,
        workloads: &[Failover],
        hard_max: None,
        what: "FleetSlo::mttr: mean outage duration",
    },
    Claim {
        name: "ho_interrupt_slots_max",
        layer: "core.handover.interrupt_slots_max",
        unit: "slots",
        clock: Sim,
        better: Lower,
        bound: 0.0,
        workloads: &[Handover],
        hard_max: None,
        what: "worst HandoverFlip to that UE's next UeScheduled on the target cell",
    },
    Claim {
        name: "urllc_deadline_misses",
        layer: "ran.sched.urllc_deadline_misses",
        unit: "count",
        clock: Sim,
        better: Lower,
        bound: 0.0,
        workloads: &[Handover],
        hard_max: Some(0.0),
        what: "analyze_slices URLLC row: scheduling gaps beyond the deadline",
    },
    Claim {
        name: "oracle_violations",
        layer: "sim.chaos.oracle_violations",
        unit: "count",
        clock: Sim,
        better: Lower,
        bound: 0.0,
        workloads: &[Failover, Handover],
        hard_max: Some(0.0),
        what: "OracleReport::violations.len()",
    },
];

/// A per-layer metric: `<crate>.<module>.<what>`.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub what: &'static str,
}

const fn l(name: &'static str, unit: &'static str, better: Better, what: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better,
        what,
    }
}

/// Sources: *trace* = the traced repetition's registry, trace ring,
/// engine counters and capture, timed window only; *stage* = SpanProfiler
/// stage histogram, count x mean; *probe* = the layer's public function
/// timed from the benchmark on workload-shaped inputs.
pub const PER_LAYER: &[Layer] = &[
    l(
        "sim.engine.events",
        "count",
        Lower,
        "trace: Engine::dispatched",
    ),
    l(
        "sim.engine.events_per_cell_slot",
        "count",
        Lower,
        "events over timed cell-slots",
    ),
    l(
        "sim.equeue.push_ns",
        "ns",
        Lower,
        "probe: CalendarQueue::push at the engine's depth",
    ),
    l(
        "sim.equeue.pop_ns",
        "ns",
        Lower,
        "probe: CalendarQueue::pop_le at the engine's depth",
    ),
    l(
        "sim.engine.lane_dispatch_ms",
        "ms",
        Lower,
        "trace: sum of Engine::lane_busy_ns (lane path)",
    ),
    l("sim.engine.lane_slot_us", "us", Lower, "claim lane_slot_us"),
    l(
        "sim.engine.barrier_merge_ms",
        "ms",
        Lower,
        "stage barrier_merge (lane path)",
    ),
    l(
        "sim.pool.speedup_w2",
        "ratio",
        Higher,
        "full_mixed wall at workers 1 over workers 2",
    ),
    l(
        "sim.trace.events",
        "count",
        Lower,
        "trace: TraceBuffer::total_recorded, whole run",
    ),
    l(
        "sim.slo.analyze_ms",
        "ms",
        Lower,
        "benchmark span around slo::analyze",
    ),
    l("sim.slo.avail_nines", "nines", Higher, "claim avail_nines"),
    l(
        "sim.chaos.oracle_check_ms",
        "ms",
        Lower,
        "benchmark span around oracle::check",
    ),
    l(
        "sim.chaos.oracle_violations",
        "count",
        Lower,
        "claim oracle_violations",
    ),
    l(
        "netsim.frame.frames",
        "count",
        Lower,
        "trace: total_link_stats().sent",
    ),
    l(
        "netsim.frame.bytes_per_cell_slot",
        "B",
        Lower,
        "total_link_stats().bytes over cell-slots",
    ),
    l(
        "fronthaul.messages.encode_ns",
        "ns",
        Lower,
        "probe: FhMessage::to_bytes, U-plane",
    ),
    l(
        "fronthaul.messages.decode_ns",
        "ns",
        Lower,
        "probe: FhMessage::from_bytes, U-plane",
    ),
    l(
        "fronthaul.messages.peek_ns",
        "ns",
        Lower,
        "probe: peek_headers",
    ),
    l(
        "fronthaul.messages.uplane_frames",
        "count",
        Lower,
        "capture: eCPRI frames of 128 B or more",
    ),
    l(
        "fronthaul.messages.cplane_frames",
        "count",
        Lower,
        "capture: eCPRI frames under 128 B",
    ),
    l(
        "fronthaul.bfp.compress_ns_per_prb",
        "ns",
        Lower,
        "probe: DspKernels::bfp_compress",
    ),
    l(
        "fronthaul.bfp.decompress_ns_per_prb",
        "ns",
        Lower,
        "probe: DspKernels::bfp_decompress",
    ),
    l(
        "fronthaul.bfp.prbs",
        "count",
        Lower,
        "capture: eCPRI payload bytes over BfpPrb::WIRE_BYTES",
    ),
    l(
        "fapi.codec.encode_ns",
        "ns",
        Lower,
        "probe: fapi::encode of a DL_TTI",
    ),
    l(
        "fapi.codec.decode_ns",
        "ns",
        Lower,
        "probe: fapi::decode of a DL_TTI",
    ),
    l(
        "fapi.codec.msgs",
        "count",
        Lower,
        "trace: Orion forwarded_to_phy + forwarded_to_l2",
    ),
    l(
        "core.fh_mbox.ul_fwd_ns",
        "ns",
        Lower,
        "probe: FhMbox::process, RU to active PHY",
    ),
    l(
        "core.fh_mbox.dl_fwd_ns",
        "ns",
        Lower,
        "probe: FhMbox::process, active PHY to RU",
    ),
    l(
        "core.fh_mbox.dl_filter_ns",
        "ns",
        Lower,
        "probe: FhMbox::process, standby PHY filtered",
    ),
    l(
        "core.fh_mbox.tick_ns",
        "ns",
        Lower,
        "probe: FhMbox::on_generator_tick, healthy fleet",
    ),
    l(
        "switch.pktgen.ticks",
        "count",
        Lower,
        "timed window over the tick interval, per switch",
    ),
    l(
        "core.fh_mbox.frames_forwarded",
        "count",
        Lower,
        "trace: SwitchNode forwarded_frames",
    ),
    l(
        "core.fh_mbox.dl_filtered",
        "count",
        Lower,
        "trace: dl_filtered",
    ),
    l(
        "core.fh_mbox.migrations_executed",
        "count",
        Lower,
        "trace: migrations_executed",
    ),
    l(
        "core.fh_mbox.ctl_packets",
        "count",
        Lower,
        "trace: ctl_packets",
    ),
    l(
        "core.spine.forwarded_frames",
        "count",
        Lower,
        "trace: SpineSwitchNode forwarded_frames",
    ),
    l(
        "core.orion.fwd_p50_us",
        "us",
        Lower,
        "trace: p50 of fwd_latency_ns, whole run",
    ),
    l(
        "core.orion.fwd_p99_us",
        "us",
        Lower,
        "claim orion_fwd_p99_us",
    ),
    l(
        "core.orion.null_fapi_sent",
        "count",
        Lower,
        "trace: null_fapi_sent",
    ),
    l(
        "core.orion.dropped_standby_msgs",
        "count",
        Lower,
        "trace: dropped_standby_msgs",
    ),
    l("core.orion.failovers", "count", Lower, "trace: failovers"),
    l(
        "core.failover.detect_us_p50",
        "us",
        Lower,
        "FleetSlo::detection_p50",
    ),
    l(
        "core.failover.detect_us_max",
        "us",
        Lower,
        "claim detect_us_max",
    ),
    l(
        "core.failover.dropped_ttis_max",
        "TTIs",
        Lower,
        "claim dropped_ttis_max",
    ),
    l(
        "core.failover.notify_to_flip_us",
        "us",
        Lower,
        "median FailureNotifySent to MapFlip",
    ),
    l(
        "core.failover.flip_to_first_ul_us",
        "us",
        Lower,
        "median MapFlip to the new PHY's next UL",
    ),
    l("core.recovery.grants", "count", Lower, "trace: grants"),
    l(
        "core.recovery.requests_queued",
        "count",
        Lower,
        "trace: requests_queued",
    ),
    l(
        "core.recovery.scrubs_completed",
        "count",
        Lower,
        "trace: scrubs_completed",
    ),
    l(
        "core.recovery.repair_ms_p50",
        "ms",
        Lower,
        "median SpareRequested to StandbyRepaired",
    ),
    l("core.recovery.mttr_ms", "ms", Lower, "claim mttr_ms"),
    l(
        "core.handover.started",
        "count",
        Lower,
        "trace: handovers_started",
    ),
    l(
        "core.handover.completed",
        "count",
        Higher,
        "trace: handovers_completed",
    ),
    l(
        "core.handover.aborted",
        "count",
        Lower,
        "trace: handovers_aborted",
    ),
    l(
        "core.handover.arm_to_flip_slots",
        "slots",
        Lower,
        "median HandoverArmed to HandoverFlip",
    ),
    l(
        "core.handover.interrupt_slots_max",
        "slots",
        Lower,
        "claim ho_interrupt_slots_max",
    ),
    l(
        "core.deployment.build_ms",
        "ms",
        Lower,
        "benchmark span around DeploymentBuilder::build",
    ),
    l(
        "phy_dsp.ldpc.decode_us_per_cb",
        "us",
        Lower,
        "probe: decode_tb's own ldpc_ns per block",
    ),
    l(
        "phy_dsp.ldpc.iters_mean",
        "count",
        Lower,
        "probe: min-sum iterations per code block",
    ),
    l(
        "phy_dsp.ldpc.encode_us_per_cb",
        "us",
        Lower,
        "probe: LdpcCode::encode_packed",
    ),
    l(
        "phy_dsp.ldpc.code_blocks",
        "count",
        Lower,
        "TBs decoded x code blocks per TB",
    ),
    l(
        "phy_dsp.ldpc.decode_busy_ms",
        "ms",
        Lower,
        "stage ldpc_decode (UL at the PHY)",
    ),
    l(
        "phy_dsp.modulation.demap_ns_per_sym",
        "ns",
        Lower,
        "probe: demodulate_llr_into",
    ),
    l(
        "phy_dsp.modulation.modulate_ns_per_sym",
        "ns",
        Lower,
        "probe: modulate_packed_into",
    ),
    l(
        "phy_dsp.scramble.ns_per_kbit",
        "ns",
        Lower,
        "probe: scramble_packed",
    ),
    l(
        "phy_dsp.crc.crc24a_ns_per_kb",
        "ns",
        Lower,
        "probe: attach_crc24a",
    ),
    l(
        "phy_dsp.ratematch.ns_per_kbit",
        "ns",
        Lower,
        "probe: rate_match_packed",
    ),
    l(
        "phy_dsp.channel.awgn_ns_per_sample",
        "ns",
        Lower,
        "probe: DspKernels::awgn_apply",
    ),
    l("phy_dsp.channel.busy_ms", "ms", Lower, "stage channel"),
    l(
        "phy_dsp.tbchain.encode_tb_us",
        "us",
        Lower,
        "probe: DspKernels::encode_tb",
    ),
    l(
        "phy_dsp.tbchain.decode_tb_us",
        "us",
        Lower,
        "probe: DspKernels::decode_tb at the SNR",
    ),
    l(
        "phy_dsp.harq.retx_ratio",
        "ratio",
        Lower,
        "trace: scheduler retransmissions over grants",
    ),
    l("phy_dsp.harq.tb_bler", "ratio", Lower, "claim tb_bler"),
    l(
        "ran.phy.ul_decode_busy_ms",
        "ms",
        Lower,
        "stage ul_decode minus its ldpc_decode child",
    ),
    l("ran.phy.dl_encode_busy_ms", "ms", Lower, "stage dl_encode"),
    l("ran.phy.slot_prepare_ms", "ms", Lower, "stage slot_prepare"),
    l("ran.phy.slot_merge_ms", "ms", Lower, "stage slot_merge"),
    l("ran.phy.slot_p50_us", "us", Lower, "profiler slot_ns p50"),
    l(
        "ran.phy.slot_p99_us",
        "us",
        Lower,
        "profiler slot_ns at the highest supported percentile",
    ),
    l("ran.phy.work_slots", "count", Lower, "trace: work_slots"),
    l("ran.phy.null_slots", "count", Lower, "trace: null_slots"),
    l(
        "ran.phy.ul_tbs_decoded",
        "count",
        Lower,
        "trace: ul_tbs_decoded",
    ),
    l(
        "ran.phy.ul_crc_failures",
        "count",
        Lower,
        "trace: ul_crc_failures",
    ),
    l("ran.ue.encode_busy_ms", "ms", Lower, "stage ue_encode"),
    l(
        "ran.ue.dl_decode_busy_ms",
        "ms",
        Lower,
        "DL TBs x probe decode_tb_us (no span exists)",
    ),
    l("ran.ue.dl_tbs_ok", "count", Higher, "trace: dl_tbs_ok"),
    l("ran.ue.dl_tbs_bad", "count", Lower, "trace: dl_tbs_bad"),
    l(
        "ran.sched.ul_grant_ns",
        "ns",
        Lower,
        "probe: Scheduler::ul_grant + on_ul_crc cycle",
    ),
    l(
        "ran.sched.dl_assign_ns",
        "ns",
        Lower,
        "probe: Scheduler::dl_assign + on_dl_ack cycle",
    ),
    l(
        "ran.sched.urllc_deadline_misses",
        "count",
        Lower,
        "claim urllc_deadline_misses",
    ),
    l("ran.rlc.build_tb_ns", "ns", Lower, "probe: RlcTx::build_tb"),
    l("ran.rlc.on_tb_ns", "ns", Lower, "probe: RlcRx::on_tb"),
    l(
        "transport.udp.delivered_bytes",
        "B",
        Higher,
        "UdpSink bytes in the timed window",
    ),
    l(
        "layers.coverage_pct",
        "%",
        Higher,
        "sum of leaf rows' busy time over the traced wall",
    ),
    l(
        "layers.unattributed_ms",
        "ms",
        Lower,
        "traced wall minus the leaf rows' busy time",
    ),
    l(
        "trace.overhead_pct",
        "%",
        Lower,
        "(traced wall - timed wall) over timed wall",
    ),
];

/// One driver run. The box this was built on drifts between speed
/// levels some 20 % apart that last seconds to tens of seconds, so a run
/// should span several of them; 114 driver runs of 20 s leave a quarter
/// of the driver's 3420 s for its two builds and process start-up.
pub const RUN_SECONDS: u64 = 20;

pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "crates/bench/src/bin/benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, exactly the keys the contract names.
pub fn manifest() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strs(COMMAND)),
        ("paths", strs(&["crates/bench/src/bin/benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                            ("bound", Json::Num(m.driver_bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_meets_the_manifest_contract() {
        let mut seen = BTreeSet::new();
        for w in Workload::ALL {
            assert!(valid_name(w.name()) && seen.insert(w.name()));
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.driver_bound > 0.0 && m.driver_bound <= 0.25, "{}", m.name);
            // The driver's bound covers seed-to-seed spread on top of
            // what a same-seed comparison has to allow.
            assert!(m.bound > 0.0 && m.bound <= m.driver_bound, "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .map(|m| m.driver_bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.driver_bound, largest);
        assert!(manifest().compact().len() < 64 * 1024);
    }

    #[test]
    fn every_claim_has_its_layer_row() {
        for c in CLAIMS {
            let row = PER_LAYER.iter().find(|m| m.name == c.layer);
            assert_eq!(row.map(|m| m.unit), Some(c.unit), "{}", c.name);
            assert_eq!(row.map(|m| m.better), Some(c.better), "{}", c.name);
            assert!(!c.workloads.is_empty());
            // Simulated values repeat exactly; only a host clock needs slack.
            assert_eq!(c.bound > 0.0, c.clock == Clock::Host, "{}", c.name);
        }
    }

    #[test]
    fn checked_in_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&text),
            Ok(manifest()),
            "regenerate with --manifest"
        );
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Better::Higher.worsening(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((Better::Lower.worsening(100.0, 90.0) + 0.1).abs() < 1e-12);
        // From a zero base any worsening is over every bound, even 0.
        assert_eq!(Better::Lower.worsening(0.0, 7.0), f64::INFINITY);
        assert_eq!(Better::Higher.worsening(0.0, -1.0), f64::INFINITY);
        assert_eq!(Better::Lower.worsening(0.0, 0.0), 0.0);
        assert_eq!(Better::Higher.worsening(0.0, 3.0), 0.0);
    }
}
