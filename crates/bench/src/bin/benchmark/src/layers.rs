//! The outside-in layer table for one workload: counts from the traced
//! repetition, per-op times from the probes, and `busy_ms = count x
//! per-op` (or the profiler's stage histogram, `count x mean`, where a
//! span exists). Busy times are self times: a stage's children are
//! subtracted. Rows marked `leaf` do not overlap one another, so they
//! sum: `layers.coverage_pct` is their share of the traced wall.

use std::collections::BTreeMap;

use slingshot_netsim::{Capture, EtherType};
use slingshot_phy_dsp::iq::BfpPrb;
use slingshot_sim::trace::TraceEventKind;
use slingshot_sim::{Nanos, ProfilerReport, Sampler, TraceBuffer, SLOT_DURATION};

use crate::json::Json;
use crate::metrics::{Claim, CLAIMS, PER_LAYER};
use crate::probes::{Probes, Shape};
use crate::stats::tail_percentile;
use crate::workloads::{Analysis, Inputs, SimResults};

/// eCPRI frames at or above this wire size carry IQ or shadow payload;
/// below it they are C-plane, DCI and UCI control. `Capture` keeps only
/// ethertype and size, so size is what the frame mix is split by.
const UPLANE_MIN_WIRE_BYTES: usize = 128;

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    /// The catalogue's definition, printed beside the value.
    pub what: &'static str,
    pub value: f64,
    /// How many times the layer ran in the timed window.
    pub count: Option<f64>,
    /// `count x per-op`, or the stage's self time, in host ms.
    pub busy_ms: Option<f64>,
    /// Counted in `layers.coverage_pct`.
    pub leaf: bool,
}

/// Everything the table is computed from.
pub struct Sources<'a> {
    pub inputs: &'a Inputs,
    pub shape: &'a Shape,
    pub probes: &'a Probes,
    /// The traced repetition, analysed.
    pub traced: &'a Analysis,
    pub trace: &'a TraceBuffer,
    /// Switches with a packet generator: the leaves, or the one switch.
    pub switches: usize,
    pub profile: Option<&'a ProfilerReport>,
    /// One capture per switch (empty when untraced).
    pub captures: &'a [Capture],
    pub build_ms: f64,
    pub oracle_check_ms: f64,
    /// Timed window of the untraced and the traced repetition.
    pub timed_wall_s: f64,
    pub traced_wall_s: f64,
    /// Untraced wall at workers 1 over workers 2 (`full_mixed` only).
    pub speedup_w2: Option<f64>,
}

struct Table {
    rows: BTreeMap<&'static str, Row>,
}

impl Table {
    fn put(
        &mut self,
        name: &'static str,
        value: f64,
        count: Option<f64>,
        busy_ms: Option<f64>,
        leaf: bool,
    ) {
        let def = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not in the metric catalogue"));
        let row = Row {
            name: def.name,
            unit: def.unit,
            what: def.what,
            value,
            count,
            busy_ms,
            leaf,
        };
        assert!(
            self.rows.insert(def.name, row).is_none(),
            "{name} set twice"
        );
    }

    /// A plain count or a simulated-clock value.
    fn set(&mut self, name: &'static str, value: f64) {
        self.put(name, value, None, None, false);
    }

    /// A probe's per-op time in ns-based `unit`s, run `count` times.
    fn op(&mut self, name: &'static str, per_op: f64, ns_per_unit: f64, count: f64, leaf: bool) {
        let busy_ms = per_op * ns_per_unit * count / 1e6;
        self.put(name, per_op, Some(count), Some(busy_ms), leaf);
    }

    /// A busy time measured in place (a stage's self time).
    fn busy(&mut self, name: &'static str, ms: f64, count: f64, leaf: bool) {
        self.put(name, ms, Some(count), Some(ms), leaf);
    }
}

/// `(count, total ms)` of a profiler stage; zeros when it never ran.
fn stage(profile: Option<&ProfilerReport>, name: &str) -> (f64, f64) {
    profile
        .and_then(|p| p.stages.iter().find(|s| s.stage == name))
        .map_or((0.0, 0.0), |s| {
            (s.count as f64, s.count as f64 * s.mean_ns / 1e6)
        })
}

fn median_us(s: &mut Sampler) -> f64 {
    s.median().unwrap_or(0) as f64 / 1e3
}

/// Failover choreography read off the trace: the first notify about a
/// PHY to the flip away from it, and a flip to the new PHY's first
/// delivered UL TTI. Medians, in us.
fn failover_timings(trace: &TraceBuffer) -> (f64, f64) {
    let mut notify_to_flip = Sampler::new();
    let mut flip_to_ul = Sampler::new();
    let notified: Vec<(Nanos, u64)> = trace
        .of_kind(TraceEventKind::FailureNotifySent)
        .map(|e| (e.at, e.a))
        .collect();
    for flip in trace.of_kind(TraceEventKind::MapFlip) {
        // MapFlip: b = (old PHY << 16) | new PHY.
        let (old_phy, new_phy) = ((flip.b >> 16) & 0xFFFF, flip.b & 0xFFFF);
        // Within one slot before the flip; planned flips have no notify.
        let first = notified
            .iter()
            .filter(|(at, phy)| {
                *phy == old_phy && *at <= flip.at && flip.at.0 - at.0 < SLOT_DURATION.0
            })
            .map(|(at, _)| *at)
            .min();
        if let Some(at) = first {
            notify_to_flip.record_nanos(flip.at.saturating_sub(at));
        }
        // UlSlotProcessed: b = the id of the PHY that delivered the TTI.
        let next_ul = trace
            .of_kind(TraceEventKind::UlSlotProcessed)
            .filter(|e| e.at >= flip.at && e.b == new_phy)
            .map(|e| e.at)
            .min();
        if let Some(at) = next_ul {
            flip_to_ul.record_nanos(at.saturating_sub(flip.at));
        }
    }
    (median_us(&mut notify_to_flip), median_us(&mut flip_to_ul))
}

/// Median slots from `HandoverArmed` to the same UE's `HandoverFlip`.
fn arm_to_flip_slots(trace: &TraceBuffer) -> f64 {
    let mut s = Sampler::new();
    for flip in trace.of_kind(TraceEventKind::HandoverFlip) {
        let armed = trace
            .of_kind(TraceEventKind::HandoverArmed)
            .filter(|e| e.a == flip.a && e.at <= flip.at)
            .map(|e| e.at)
            .max();
        if let Some(at) = armed {
            s.record((flip.at.0 - at.0) / SLOT_DURATION.0);
        }
    }
    s.median().unwrap_or(0) as f64
}

/// `lane_slot_us` is the one host-clock claim: a repetition's own
/// sample, or the median of them.
fn claim_value(c: &Claim, sim: &SimResults, lane_slot_us: f64) -> f64 {
    match c.name {
        "lane_slot_us" => lane_slot_us,
        "avail_nines" => sim.avail_nines,
        "tb_bler" => sim.tb_bler(),
        "orion_fwd_p99_us" => sim.orion_fwd_p99_us,
        "detect_us_max" => sim.detect_us_max,
        "dropped_ttis_max" => sim.dropped_ttis_max as f64,
        "mttr_ms" => sim.mttr_ms,
        "ho_interrupt_slots_max" => sim.ho_interrupt_slots_max as f64,
        "urllc_deadline_misses" => sim.urllc_deadline_misses as f64,
        "oracle_violations" => sim.oracle_violations as f64,
        other => panic!("claim {other} has no source"),
    }
}

/// The claims that apply to this workload, by their ISSUE names.
pub fn claims_for(
    inputs: &Inputs,
    sim: &SimResults,
    lane_slot_us: f64,
) -> Vec<(&'static Claim, f64)> {
    CLAIMS
        .iter()
        .filter(|c| c.workloads.contains(&inputs.workload))
        .map(|c| (c, claim_value(c, sim, lane_slot_us)))
        .collect()
}

/// Build the table. Every catalogue name gets a row; a layer that is
/// not on this workload's path reads 0.
pub fn table(src: &Sources<'_>) -> Vec<Row> {
    let mut t = Table {
        rows: BTreeMap::new(),
    };
    let (inputs, shape, pr) = (src.inputs, src.shape, src.probes);
    let (sim, c) = (&src.traced.sim, &src.traced.counts);
    let prof = src.profile;
    let cell_slots = inputs.timed_cell_slots() as f64;
    let timed_ns = inputs.timed_slots() as f64 * SLOT_DURATION.0 as f64;
    let trace = src.trace;
    let switches = |scope: &str| scope == "switch" || scope.starts_with("leaf");

    // --- sim ---
    let events = c.dispatched as f64;
    t.set("sim.engine.events", events);
    t.set("sim.engine.events_per_cell_slot", events / cell_slots);
    // Every dispatched event was pushed once and popped once.
    t.op("sim.equeue.push_ns", pr.equeue_push_ns, 1.0, events, true);
    t.op("sim.equeue.pop_ns", pr.equeue_pop_ns, 1.0, events, true);
    let lanes = c.lane_busy_ns.len() as f64;
    let lane_ms = c.lane_busy_ns.iter().sum::<u64>() as f64 / 1e6;
    t.busy("sim.engine.lane_dispatch_ms", lane_ms, lanes, false);
    let (n, ms) = stage(prof, "barrier_merge");
    t.busy("sim.engine.barrier_merge_ms", ms, n, true);
    t.set("sim.pool.speedup_w2", src.speedup_w2.unwrap_or(0.0));
    t.set("sim.trace.events", sim.trace_events as f64);
    t.set("sim.slo.analyze_ms", src.traced.slo_analyze_ms);
    t.set("sim.chaos.oracle_check_ms", src.oracle_check_ms);

    // --- netsim ---
    t.set("netsim.frame.frames", c.link_sent as f64);
    t.set(
        "netsim.frame.bytes_per_cell_slot",
        c.link_bytes as f64 / cell_slots,
    );

    // --- fronthaul (frame mix from the switches' captures) ---
    let records: Vec<_> = src.captures.iter().flat_map(Capture::records).collect();
    let ecpri = || records.iter().filter(|r| r.ethertype == EtherType::Ecpri);
    let uplane = ecpri().filter(|r| r.wire_size >= UPLANE_MIN_WIRE_BYTES);
    let uplane_frames = uplane.clone().count() as f64;
    let cplane_frames = ecpri().count() as f64 - uplane_frames;
    let prbs = uplane
        .map(|r| r.wire_size / BfpPrb::WIRE_BYTES)
        .sum::<usize>() as f64;
    // Encode and decode run inside RU and PHY handlers, partly under the
    // PHY's slot_prepare / slot_merge spans, so these rows are not leaves.
    t.op(
        "fronthaul.messages.encode_ns",
        pr.fh_encode_ns,
        1.0,
        uplane_frames,
        false,
    );
    t.op(
        "fronthaul.messages.decode_ns",
        pr.fh_decode_ns,
        1.0,
        uplane_frames,
        false,
    );
    t.op(
        "fronthaul.messages.peek_ns",
        pr.fh_peek_ns,
        1.0,
        uplane_frames + cplane_frames,
        false,
    );
    t.set("fronthaul.messages.uplane_frames", uplane_frames);
    t.set("fronthaul.messages.cplane_frames", cplane_frames);
    t.op(
        "fronthaul.bfp.compress_ns_per_prb",
        pr.bfp_compress_ns_per_prb,
        1.0,
        prbs,
        false,
    );
    t.op(
        "fronthaul.bfp.decompress_ns_per_prb",
        pr.bfp_decompress_ns_per_prb,
        1.0,
        prbs,
        false,
    );
    t.set("fronthaul.bfp.prbs", prbs);

    // --- fapi: each message is encoded once and decoded once per hop ---
    let fapi_msgs = (c.sum("forwarded_to_phy") + c.sum("forwarded_to_l2")) as f64;
    t.op(
        "fapi.codec.encode_ns",
        pr.fapi_encode_ns,
        1.0,
        fapi_msgs,
        true,
    );
    t.op(
        "fapi.codec.decode_ns",
        pr.fapi_decode_ns,
        1.0,
        fapi_msgs,
        true,
    );
    t.set("fapi.codec.msgs", fapi_msgs);

    // --- switch + core ---
    let forwarded = c.sum_in(switches, "forwarded_frames") as f64;
    let filtered = c.sum_in(switches, "dl_filtered") as f64;
    // Forwarded frames split by direction in the capture's proportions;
    // without a capture (or on an idle one) call them all uplink.
    let ul_share = if uplane_frames + cplane_frames > 0.0 {
        uplane_frames / (uplane_frames + cplane_frames)
    } else {
        1.0
    };
    t.op(
        "core.fh_mbox.ul_fwd_ns",
        pr.mbox_ul_fwd_ns,
        1.0,
        forwarded * ul_share,
        true,
    );
    t.op(
        "core.fh_mbox.dl_fwd_ns",
        pr.mbox_dl_fwd_ns,
        1.0,
        forwarded * (1.0 - ul_share),
        true,
    );
    t.op(
        "core.fh_mbox.dl_filter_ns",
        pr.mbox_dl_filter_ns,
        1.0,
        filtered,
        true,
    );
    let ticks =
        (timed_ns / inputs.cfg.detector.tick_interval().0 as f64).floor() * src.switches as f64;
    t.op("core.fh_mbox.tick_ns", pr.mbox_tick_ns, 1.0, ticks, true);
    t.set("switch.pktgen.ticks", ticks);
    t.set("core.fh_mbox.frames_forwarded", forwarded);
    t.set("core.fh_mbox.dl_filtered", filtered);
    t.set(
        "core.fh_mbox.migrations_executed",
        c.sum("migrations_executed") as f64,
    );
    t.set("core.fh_mbox.ctl_packets", c.sum("ctl_packets") as f64);
    t.set(
        "core.spine.forwarded_frames",
        c.sum_in(|s| s == "spine", "forwarded_frames") as f64,
    );
    t.set("core.orion.fwd_p50_us", sim.orion_fwd_p50_us);
    t.set("core.orion.null_fapi_sent", c.sum("null_fapi_sent") as f64);
    t.set(
        "core.orion.dropped_standby_msgs",
        c.sum("dropped_standby_msgs") as f64,
    );
    t.set("core.orion.failovers", c.sum("failovers") as f64);
    t.set("core.failover.detect_us_p50", sim.detect_us_p50);
    let (notify_to_flip, flip_to_ul) = failover_timings(trace);
    t.set("core.failover.notify_to_flip_us", notify_to_flip);
    t.set("core.failover.flip_to_first_ul_us", flip_to_ul);
    t.set("core.recovery.grants", c.sum("grants") as f64);
    t.set(
        "core.recovery.requests_queued",
        c.sum("requests_queued") as f64,
    );
    t.set(
        "core.recovery.scrubs_completed",
        c.sum("scrubs_completed") as f64,
    );
    t.set("core.recovery.repair_ms_p50", sim.repair_ms_p50);
    let handover = |s: &str| s == "handover";
    t.set(
        "core.handover.started",
        c.sum_in(handover, "handovers_started") as f64,
    );
    t.set(
        "core.handover.completed",
        c.sum_in(handover, "handovers_completed") as f64,
    );
    t.set(
        "core.handover.aborted",
        c.sum_in(handover, "handovers_aborted") as f64,
    );
    t.set("core.handover.arm_to_flip_slots", arm_to_flip_slots(trace));
    t.set("core.deployment.build_ms", src.build_ms);

    // --- phy_dsp ---
    let ul_tbs = c.sum("ul_tbs_decoded") as f64;
    let dl_tbs = (c.sum("dl_tbs_ok") + c.sum("dl_tbs_bad")) as f64;
    let cbs = shape.code_blocks_per_tb() as f64;
    let tp = shape.tb_params();
    let symbols_per_tb = (tp.e_bits / tp.modulation.bits_per_symbol()) as f64;
    let kbit_per_tb = tp.e_bits as f64 / 1e3;
    // The abstract chain runs no DSP; its TBs cost these kernels nothing.
    let dsp_tbs = if inputs.cfg.cell.fidelity == slingshot_ran::Fidelity::Abstract {
        0.0
    } else {
        ul_tbs + dl_tbs
    };
    let (ldpc_n, ldpc_ms) = stage(prof, "ldpc_decode");
    t.op(
        "phy_dsp.ldpc.decode_us_per_cb",
        pr.ldpc_decode_us_per_cb,
        1e3,
        ldpc_n * cbs,
        false,
    );
    t.set("phy_dsp.ldpc.iters_mean", pr.ldpc_iters_mean);
    t.op(
        "phy_dsp.ldpc.encode_us_per_cb",
        pr.ldpc_encode_us_per_cb,
        1e3,
        dsp_tbs * cbs,
        false,
    );
    t.set("phy_dsp.ldpc.code_blocks", ldpc_n * cbs);
    t.busy("phy_dsp.ldpc.decode_busy_ms", ldpc_ms, ldpc_n, true);
    // The kernels below run inside ue_encode / dl_encode / ul_decode,
    // whose stage rows are the leaves.
    t.op(
        "phy_dsp.modulation.demap_ns_per_sym",
        pr.demap_ns_per_sym,
        1.0,
        dsp_tbs * symbols_per_tb,
        false,
    );
    t.op(
        "phy_dsp.modulation.modulate_ns_per_sym",
        pr.modulate_ns_per_sym,
        1.0,
        dsp_tbs * symbols_per_tb,
        false,
    );
    t.op(
        "phy_dsp.scramble.ns_per_kbit",
        pr.scramble_ns_per_kbit,
        1.0,
        2.0 * dsp_tbs * kbit_per_tb,
        false,
    );
    t.op(
        "phy_dsp.crc.crc24a_ns_per_kb",
        pr.crc24a_ns_per_kb,
        1.0,
        2.0 * dsp_tbs * shape.chain_bytes as f64 / 1e3,
        false,
    );
    t.op(
        "phy_dsp.ratematch.ns_per_kbit",
        pr.ratematch_ns_per_kbit,
        1.0,
        2.0 * dsp_tbs * kbit_per_tb,
        false,
    );
    let (chan_n, chan_ms) = stage(prof, "channel");
    t.op(
        "phy_dsp.channel.awgn_ns_per_sample",
        pr.awgn_ns_per_sample,
        1.0,
        dsp_tbs * symbols_per_tb,
        false,
    );
    t.busy("phy_dsp.channel.busy_ms", chan_ms, chan_n, true);
    t.op(
        "phy_dsp.tbchain.encode_tb_us",
        pr.encode_tb_us,
        1e3,
        dsp_tbs,
        false,
    );
    t.op(
        "phy_dsp.tbchain.decode_tb_us",
        pr.decode_tb_us,
        1e3,
        dsp_tbs,
        false,
    );
    let tx = (c.sched_new_tx + c.sched_retx) as f64;
    t.set(
        "phy_dsp.harq.retx_ratio",
        if tx > 0.0 {
            c.sched_retx as f64 / tx
        } else {
            0.0
        },
    );

    // --- ran ---
    let (ul_n, ul_ms) = stage(prof, "ul_decode");
    t.busy(
        "ran.phy.ul_decode_busy_ms",
        (ul_ms - ldpc_ms).max(0.0),
        ul_n,
        true,
    );
    let (n, ms) = stage(prof, "dl_encode");
    t.busy("ran.phy.dl_encode_busy_ms", ms, n, true);
    let (n, ms) = stage(prof, "slot_prepare");
    t.busy("ran.phy.slot_prepare_ms", ms, n, true);
    let (n, ms) = stage(prof, "slot_merge");
    t.busy("ran.phy.slot_merge_ms", ms, n, true);
    let slots = prof.map_or(0, |p| p.slots);
    t.set(
        "ran.phy.slot_p50_us",
        prof.map_or(0.0, |p| p.slot_p50_ns as f64 / 1e3),
    );
    // The report carries p50, p99 and max; p99 needs a thousand slots
    // to have ten samples beyond it, else fall back to the median.
    let p99_ok = tail_percentile(slots).is_some_and(|p| p >= 99.0);
    t.set(
        "ran.phy.slot_p99_us",
        prof.map_or(
            0.0,
            |p| if p99_ok { p.slot_p99_ns } else { p.slot_p50_ns } as f64 / 1e3,
        ),
    );
    t.set("ran.phy.work_slots", c.sum("work_slots") as f64);
    t.set("ran.phy.null_slots", c.sum("null_slots") as f64);
    t.set("ran.phy.ul_tbs_decoded", ul_tbs);
    t.set("ran.phy.ul_crc_failures", c.sum("ul_crc_failures") as f64);
    let (n, ms) = stage(prof, "ue_encode");
    t.busy("ran.ue.encode_busy_ms", ms, n, true);
    // The UE's DL decode has no span. The probe decodes a TB that fills
    // its allocation; CBR traffic rarely does, so this is an upper
    // estimate and stays out of the coverage sum.
    let dl_dsp_tbs = if dsp_tbs > 0.0 { dl_tbs } else { 0.0 };
    t.busy(
        "ran.ue.dl_decode_busy_ms",
        dl_dsp_tbs * pr.decode_tb_us / 1e3,
        dl_dsp_tbs,
        false,
    );
    t.set("ran.ue.dl_tbs_ok", c.sum("dl_tbs_ok") as f64);
    t.set("ran.ue.dl_tbs_bad", c.sum("dl_tbs_bad") as f64);
    t.op(
        "ran.sched.ul_grant_ns",
        pr.sched_ul_grant_ns,
        1.0,
        ul_tbs,
        true,
    );
    t.op(
        "ran.sched.dl_assign_ns",
        pr.sched_dl_assign_ns,
        1.0,
        dl_tbs,
        true,
    );
    t.op(
        "ran.rlc.build_tb_ns",
        pr.rlc_build_tb_ns,
        1.0,
        c.sched_new_tx as f64,
        true,
    );
    t.op(
        "ran.rlc.on_tb_ns",
        pr.rlc_on_tb_ns,
        1.0,
        ul_tbs + dl_tbs,
        true,
    );
    t.set("transport.udp.delivered_bytes", sim.delivered_bytes as f64);

    // --- claims, under their per-layer names (measured everywhere;
    // off their workloads most read 0 because nothing failed) ---
    for claim in CLAIMS {
        t.set(
            claim.layer,
            claim_value(claim, sim, src.traced.lane_slot_us),
        );
    }

    // --- totals ---
    let traced_ms = src.traced_wall_s * 1e3;
    let attributed: f64 = t
        .rows
        .values()
        .filter(|r| r.leaf)
        .filter_map(|r| r.busy_ms)
        .sum();
    t.set("layers.coverage_pct", 100.0 * attributed / traced_ms);
    t.set("layers.unattributed_ms", traced_ms - attributed);
    t.set(
        "trace.overhead_pct",
        100.0 * (src.traced_wall_s - src.timed_wall_s) / src.timed_wall_s,
    );

    // Catalogue order, and every name present.
    PER_LAYER
        .iter()
        .map(|m| {
            t.rows
                .remove(m.name)
                .unwrap_or_else(|| panic!("{} has no row", m.name))
        })
        .collect()
}

pub fn to_json(rows: &[Row]) -> Json {
    let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("name", Json::str(r.name)),
                    ("unit", Json::str(r.unit)),
                    ("value", Json::Num(r.value)),
                    ("count", opt(r.count)),
                    ("busy_ms", opt(r.busy_ms)),
                    ("leaf", Json::Bool(r.leaf)),
                ])
            })
            .collect(),
    )
}

/// The table as text: busy rows first by size would hide the layering,
/// so it stays in catalogue (outside-in) order.
pub fn to_text(rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<40} {:>14} {:<6} {:>12} {:>12} leaf  source",
        "layer metric", "value", "unit", "count", "busy_ms"
    );
    for r in rows {
        let num = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.1}"));
        let _ = writeln!(
            out,
            "  {:<40} {:>14.3} {:<6} {:>12} {:>12} {:<4}  {}",
            r.name,
            r.value,
            r.unit,
            num(r.count),
            num(r.busy_ms),
            if r.leaf { "*" } else { "" },
            r.what
        );
    }
    out
}
