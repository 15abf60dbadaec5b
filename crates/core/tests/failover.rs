//! End-to-end Slingshot tests: PHY failover and planned migration on
//! the full deployment (switch middlebox + failure detector + Orion +
//! complete vRAN stack).

use slingshot::{
    Deployment, DeploymentBuilder, DeploymentConfig, OrionL2Node, SwitchNode, SECONDARY_PHY_ID,
};
use slingshot_ran::{CellConfig, Fidelity, PhyNode, RuNode, UeConfig, UeNode, UeState};
use slingshot_sim::slo::{self, SloConfig};
use slingshot_sim::trace::detections;
use slingshot_sim::{Nanos, Sampler, TraceEventKind};
use slingshot_transport::{UdpCbrSource, UdpSink};

fn cfg(seed: u64) -> DeploymentConfig {
    DeploymentConfig {
        cell: CellConfig {
            num_prbs: 51,
            fidelity: Fidelity::Sampled,
            ..CellConfig::default()
        },
        seed,
        ..DeploymentConfig::default()
    }
}

fn one_ue() -> Vec<UeConfig> {
    vec![UeConfig::new(100, 0, "ue100", 22.0)]
}

/// Build a deployment with a 4 Mbps uplink UDP flow from the UE.
fn deployment_with_ul_flow(seed: u64) -> Deployment {
    let mut d = DeploymentBuilder::new()
        .config(cfg(seed))
        .ues(one_ue())
        .build();
    d.add_flow(
        0,
        100,
        Box::new(UdpCbrSource::new(4_000_000, 1000, Nanos::ZERO)),
        Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
    );
    d
}

#[test]
fn steady_state_traffic_flows_through_slingshot() {
    let mut d = deployment_with_ul_flow(1);
    d.engine.run_until(Nanos::from_millis(1000));
    let sink: &UdpSink = d
        .engine
        .node::<slingshot_ran::AppServerNode>(d.server)
        .unwrap()
        .app(100, 0)
        .unwrap();
    assert!(sink.total_rx > 300, "rx={}", sink.total_rx);
    assert!(sink.loss_rate() < 0.15, "loss={}", sink.loss_rate());
    // The secondary is alive on null FAPIs, its downlink filtered.
    let sw = d.engine.node::<SwitchNode>(d.switch).unwrap();
    assert!(
        sw.mbox.dl_filtered > 1000,
        "filtered={}",
        sw.mbox.dl_filtered
    );
    let sec = d.engine.node::<PhyNode>(d.secondary_phy).unwrap();
    assert!(sec.crash_time.is_none(), "standby must stay alive");
    let orion = d.engine.node::<OrionL2Node>(d.orion_l2).unwrap();
    assert!(orion.null_fapi_sent > 3000);
    assert!(orion.dropped_standby_msgs > 0);
}

#[test]
fn failover_keeps_ue_connected_and_traffic_flowing() {
    let mut d = deployment_with_ul_flow(2);
    let kill_at = Nanos::from_millis(500);
    d.kill_primary_at(kill_at);
    d.engine.run_until(Nanos::from_millis(1500));

    // 1. Failure detected within the detector bound (450 µs + tick +
    //    propagation) of the last heartbeat (≤ ~1 ms after the kill).
    let orion = d.engine.node::<OrionL2Node>(d.orion_l2).unwrap();
    let notified = orion.last_failure_notified.expect("failure detected");
    let detect_ms = (notified - kill_at).as_millis();
    assert!(detect_ms < 1.0, "detection took {detect_ms} ms");
    assert_eq!(orion.failovers, 1);

    // 2. The UE never saw RLF — the gap was far below 50 ms.
    let ue = d.engine.node::<UeNode>(d.ues[0]).unwrap();
    assert_eq!(ue.rlf_count, 0, "UE must not lose the cell");
    assert_eq!(ue.state, UeState::Connected);

    // 3. The switch remapped the RU to the secondary.
    let sw = d.engine.node::<SwitchNode>(d.switch).unwrap();
    assert_eq!(sw.mbox.migrations_executed, 1);

    // 4. Traffic kept flowing: no 10 ms bin after recovery is empty,
    //    and the post-failover rate matches the offered rate.
    let sink: &UdpSink = d
        .engine
        .node::<slingshot_ran::AppServerNode>(d.server)
        .unwrap()
        .app(100, 0)
        .unwrap();
    let mbps = sink.bins.mbps();
    let post: &[f64] = &mbps[60..min_idx(&mbps, 150)];
    let post_avg: f64 = post.iter().sum::<f64>() / post.len() as f64;
    assert!(
        (3.0..5.0).contains(&post_avg),
        "post-failover avg={post_avg}"
    );
    // Availability target: at most one zero 10 ms bin around failover.
    let zeros = sink
        .bins
        .zero_bins_between(Nanos::from_millis(480), Nanos::from_millis(600));
    assert!(zeros <= 1, "blackout bins={zeros}");
}

fn min_idx(v: &[f64], want: usize) -> usize {
    want.min(v.len())
}

#[test]
fn failover_drops_at_most_three_ttis() {
    // §8.2: Slingshot reduces dropped TTIs to at most 3.
    let mut d = deployment_with_ul_flow(3);
    let kill_at = Nanos::from_millis(500);
    d.kill_primary_at(kill_at);
    d.engine.run_until(Nanos::from_millis(1500));

    // Collect the union of uplink slots processed by both PHYs; UL
    // slots are every 5th (DDDSU), so consecutive processed UL slots
    // differ by 5 in steady state.
    let mut slots: Vec<u64> = Vec::new();
    for phy in [d.primary_phy, d.secondary_phy] {
        slots.extend(&d.engine.node::<PhyNode>(phy).unwrap().processed_ul_slots);
    }
    slots.sort_unstable();
    slots.dedup();
    let first = *slots.first().unwrap();
    let last = *slots.last().unwrap();
    let expected = (last - first) / 5 + 1;
    let missing = expected as usize - slots.len();
    assert!(
        missing <= 3,
        "missing {missing} uplink TTIs (expected ≤ 3): {expected} expected, {} seen",
        slots.len()
    );
}

#[test]
fn planned_migration_drops_zero_ttis_and_no_blackout() {
    let mut d = deployment_with_ul_flow(4);
    d.planned_migration_at(Nanos::from_millis(500));
    d.engine.run_until(Nanos::from_millis(1500));

    let orion = d.engine.node::<OrionL2Node>(d.orion_l2).unwrap();
    assert_eq!(orion.planned_migrations, 1);
    let sw = d.engine.node::<SwitchNode>(d.switch).unwrap();
    assert_eq!(sw.mbox.migrations_executed, 1);

    // Zero dropped uplink TTIs: every UL slot processed by one PHY.
    let mut slots: Vec<u64> = Vec::new();
    for phy in [d.primary_phy, d.secondary_phy] {
        slots.extend(&d.engine.node::<PhyNode>(phy).unwrap().processed_ul_slots);
    }
    slots.sort_unstable();
    slots.dedup();
    let first = *slots.first().unwrap();
    let last = *slots.last().unwrap();
    let expected = (last - first) / 5 + 1;
    assert_eq!(
        slots.len(),
        expected as usize,
        "planned migration must drop zero TTIs"
    );

    // No blackout at all.
    let sink: &UdpSink = d
        .engine
        .node::<slingshot_ran::AppServerNode>(d.server)
        .unwrap()
        .app(100, 0)
        .unwrap();
    let zeros = sink
        .bins
        .zero_bins_between(Nanos::from_millis(480), Nanos::from_millis(600));
    assert_eq!(zeros, 0, "planned migration must not black out");
    let ue = d.engine.node::<UeNode>(d.ues[0]).unwrap();
    assert_eq!(ue.rlf_count, 0);

    // The old primary is still alive and is now the hot standby
    // receiving null FAPIs (roles swapped).
    let old_primary = d.engine.node::<PhyNode>(d.primary_phy).unwrap();
    assert!(old_primary.crash_time.is_none(), "old primary survives");
}

#[test]
fn ru_stays_lit_through_failover() {
    let mut d = deployment_with_ul_flow(5);
    d.kill_primary_at(Nanos::from_millis(500));
    d.engine.run_until(Nanos::from_millis(1500));
    let ru = d.engine.node::<RuNode>(d.ru).unwrap();
    // D/S slots per second = 4/5 × 2000 = 1600; over 1.5 s ≈ 2400.
    // A handful may go dark around the failover; the cell must not
    // stay dark (the §8.1 baseline's failure mode).
    assert!(ru.slots_dark < 10, "dark slots = {}", ru.slots_dark);
}

/// The paper's two headline §8.2 numbers, derived from the event trace
/// alone — not from ad-hoc counters: detection latency (detector
/// saturation − last heartbeat) ≤ 450 µs, and ≤ 3 dropped uplink TTIs
/// (gaps in the trace's delivered-slot sequence).
#[test]
fn trace_derives_detection_latency_and_dropped_ttis() {
    let mut d = deployment_with_ul_flow(6);
    let kill_at = Nanos::from_millis(500);
    d.kill_primary_at(kill_at);
    d.engine.run_until(Nanos::from_millis(1500));

    let trace = d.engine.event_trace();

    // Detection latency from the trace: the detector saturates at most
    // T = 450 µs after the last heartbeat it saw (n ticks of T/n each,
    // minus the sub-tick phase of the heartbeat's arrival).
    let dets = detections(trace.iter());
    assert_eq!(dets.len(), 1, "exactly one detection in the trace");
    let det = &dets[0];
    assert_eq!(det.phy, slingshot::PRIMARY_PHY_ID as u64);
    assert!(det.at > kill_at, "saturation after the kill");
    assert!(
        det.latency() <= Nanos(450_000),
        "detection latency {} ns exceeds the 450 µs detector timeout",
        det.latency().0
    );

    // Dropped TTIs from the trace: the cell's UlSlotProcessed series,
    // attributed across both PHYs, must have at most 3 holes in the
    // stride-5 (DDDSU) sequence.
    let slo_cfg = SloConfig {
        initial_active: d.initial_active(),
        ..SloConfig::default()
    };
    let cell = &slo::analyze(trace, &slo_cfg).cells[0];
    assert!(
        cell.delivered_ttis > 100,
        "delivered {} slots",
        cell.delivered_ttis
    );
    assert!(
        cell.dropped_ttis <= 3,
        "trace shows {} dropped TTIs (paper: ≤ 3)",
        cell.dropped_ttis
    );

    // The full failover lifecycle appears in causal order.
    let at_of = |kind: TraceEventKind| trace.of_kind(kind).next().map(|e| e.at);
    let saturated = at_of(TraceEventKind::DetectorSaturated).expect("saturation");
    let notified_rx = at_of(TraceEventKind::FailureNotifyReceived).expect("notify");
    let armed = at_of(TraceEventKind::MigrateArmed).expect("migrate armed");
    let flip = at_of(TraceEventKind::MapFlip).expect("map flip");
    assert!(saturated <= notified_rx && notified_rx <= armed && armed <= flip);
}

#[test]
fn deterministic_failover_runs() {
    let run = |seed| {
        let mut d = deployment_with_ul_flow(seed);
        d.kill_primary_at(Nanos::from_millis(300));
        d.engine.run_until(Nanos::from_millis(800));
        (d.engine.trace_hash(), d.engine.dispatched())
    };
    assert_eq!(run(7), run(7));
}

#[test]
fn failure_detection_latency_distribution() {
    // Repeated failovers at varying offsets within the slot: detection
    // latency stays within T + tick + small propagation of the last
    // heartbeat — all well under two slots.
    let mut sampler = Sampler::new();
    for i in 0..8u64 {
        let mut d = deployment_with_ul_flow(100 + i);
        let kill_at = Nanos(Nanos::from_millis(400).0 + i * 137_000);
        d.kill_primary_at(kill_at);
        d.engine.run_until(kill_at + Nanos::from_millis(20));
        let orion = d.engine.node::<OrionL2Node>(d.orion_l2).unwrap();
        let notified = orion.last_failure_notified.expect("detected");
        sampler.record((notified - kill_at).0);
    }
    let max_us = sampler.max().unwrap() as f64 / 1e3;
    // Worst case: heartbeat just sent → full 450 µs timeout + 9 µs
    // precision + heartbeat spacing (~250 µs) + propagation.
    assert!(max_us < 800.0, "max detection latency {max_us} µs");
    let min_us = sampler.min().unwrap() as f64 / 1e3;
    assert!(min_us > 100.0, "suspiciously fast detection: {min_us} µs");
}

/// The switch's capture mirror reproduces §8.6's timestamp-and-mirror
/// measurement: inter-packet gaps in the primary's downlink stream.
#[test]
fn switch_capture_measures_heartbeat_gaps() {
    let mut d = deployment_with_ul_flow(42);
    let cap = d
        .engine
        .node_mut::<SwitchNode>(d.switch)
        .unwrap()
        .enable_capture();
    d.engine.run_until(Nanos::from_millis(500));
    let primary_mac = slingshot_netsim::MacAddr::for_phy(slingshot::PRIMARY_PHY_ID);
    let gaps = cap.inter_packet_gaps(|r| r.src == primary_mac);
    assert!(gaps.len() > 500, "captured {} gaps", gaps.len());
    let max_gap = *gaps.iter().max().unwrap();
    assert!(
        max_gap < 450_000,
        "healthy stream exceeded the detector timeout: {max_gap} ns"
    );
    // Consistent with the mbox's own in-pipeline measurement.
    let sw = d.engine.node::<SwitchNode>(d.switch).unwrap();
    let mbox_gap = sw.mbox.max_dl_gap(slingshot::PRIMARY_PHY_ID).0;
    assert!(
        (mbox_gap as i64 - max_gap as i64).abs() < 50_000,
        "capture {max_gap} vs mbox {mbox_gap}"
    );
    // Unused variable silence for SECONDARY id import coherence.
    let _ = SECONDARY_PHY_ID;
}

/// The fronthaul latency budget: one-way RU↔PHY must stay well under
/// 100 µs (the 5G fronthaul requirement §5 cites), including the
/// switch pipeline and serialization of full-size U-plane frames.
#[test]
fn fronthaul_one_way_stays_within_budget() {
    let mut d = deployment_with_ul_flow(55);
    let cap = d
        .engine
        .node_mut::<SwitchNode>(d.switch)
        .unwrap()
        .enable_capture();
    d.engine.run_until(Nanos::from_millis(200));
    // Path budget: RU→switch link (20 µs fiber + serialization at
    // 25 GbE) + pipeline (0.4 µs) + switch→PHY (2 µs at 100 GbE).
    // Largest captured frame sets the serialization worst case.
    let max_frame = cap
        .records()
        .iter()
        .map(|r| r.wire_size)
        .max()
        .expect("captured frames");
    let ser_ru_leg = Nanos((max_frame as u64 * 8 * 1_000_000_000) / 25_000_000_000);
    let ser_phy_leg = Nanos((max_frame as u64 * 8 * 1_000_000_000) / 100_000_000_000);
    let one_way = Nanos(20_000)
        + ser_ru_leg
        + slingshot_switch::PIPELINE_LATENCY
        + Nanos(2_000)
        + ser_phy_leg;
    assert!(
        one_way < Nanos::from_micros(100),
        "one-way fronthaul {} exceeds the 100 µs budget (frame {max_frame} B)",
        one_way
    );
}
