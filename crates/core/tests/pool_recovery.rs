//! The shared spare-pool acceptance battery: four cells, a two-deep
//! spare pool, three back-to-back primary crashes in distinct cells.
//!
//! Three crashes exceed the pool, so the run only survives if the
//! recovery orchestrator's full loop works: grant a spare, replay the
//! duplicated init-FAPI, promote it to secondary at a slot boundary,
//! *and* scrub/recycle the dead ex-primaries back into the pool in time
//! for the third request. Every crash must still meet the paper's
//! single-failure bounds (detection within 450 us, at most 3 dropped
//! TTIs), every affected cell must end re-paired, and the whole
//! sequence must be byte-identical between 1- and 4-worker runs.

use slingshot::{
    chaos_pool_deployment, expectations_for, run_scenario, ChaosRunner, Deployment,
    DeploymentBuilder, DeploymentConfig, OrionL2Node, OrionPhyNode, RecoveryOrchestrator,
    SwitchNode,
};
use slingshot_ran::{CellConfig, Fidelity, UeConfig};
use slingshot_sim::chaos::{oracle, FaultKind, FaultTarget, Scenario};
use slingshot_sim::{Nanos, TraceEventKind};
use slingshot_transport::{UdpCbrSource, UdpSink};

/// Crashes 60 slots apart: wider than the orchestrator's 40-slot scrub
/// hold-off, so the pool refills between failures — the provisioning
/// contract the sequence is sized to prove.
fn triple_crash() -> Scenario {
    Scenario::new("triple-crash-pool", 1700)
        .fault(700, FaultTarget::ActivePhyOf(0), FaultKind::PhyCrash)
        .fault(760, FaultTarget::ActivePhyOf(1), FaultKind::PhyCrash)
        .fault(820, FaultTarget::ActivePhyOf(2), FaultKind::PhyCrash)
}

fn pool_deployment(seed: u64, workers: usize) -> Deployment {
    let cfg = DeploymentConfig {
        cell: CellConfig {
            num_prbs: 51,
            fidelity: Fidelity::Sampled,
            ..CellConfig::default()
        },
        seed,
        ..DeploymentConfig::default()
    };
    let mut b = DeploymentBuilder::new()
        .config(cfg)
        .cells(4)
        .spare_pool(2)
        .workers(workers);
    for i in 0..4u8 {
        b = b.ue(UeConfig::new(100 + i as u16, i, &format!("ue{i}"), 22.0));
    }
    let mut d = b.build();
    for i in 0..4usize {
        d.add_flow(
            i,
            100 + i as u16,
            Box::new(UdpCbrSource::new(4_000_000, 1000, Nanos::ZERO)),
            Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
        );
    }
    d
}

/// Per-cell single-crash bounds, not the summed global budget: each
/// crash individually must cost no more than one crash is allowed to.
fn strict_expectations(d: &Deployment, scenario: &Scenario) -> oracle::Expectations {
    oracle::Expectations {
        max_dropped_ttis: 3,
        ..expectations_for(d, scenario)
    }
}

fn run(seed: u64, workers: usize) -> (Deployment, oracle::OracleReport) {
    let scenario = triple_crash();
    let mut d = pool_deployment(seed, workers);
    let exp = strict_expectations(&d, &scenario);
    ChaosRunner::new(&scenario).run(&mut d, scenario.horizon_slots);
    let report = oracle::check(d.engine.event_trace(), &exp);
    (d, report)
}

#[test]
fn three_sequential_crashes_all_recover() {
    let (mut d, report) = run(0x9001, 1);
    assert!(
        report.ok(),
        "oracle violations: {:#?}\nscenario: {}",
        report.violations,
        triple_crash().describe()
    );

    // Every crash was detected in-switch, each within the 450 us bound.
    let fleet = &report.slo.fleet;
    assert_eq!(fleet.detections, 3, "one detection per crashed primary");
    let worst = fleet.detection_max.unwrap_or_default();
    assert!(
        worst <= Nanos::from_micros(450),
        "worst detection latency {} us",
        worst.0 / 1_000
    );

    // Every affected cell is re-paired at scenario end: a live primary
    // serving traffic and a live standby bound as its secondary.
    for ru in 0..3u8 {
        let active = d
            .engine
            .node_mut::<SwitchNode>(d.switch)
            .expect("switch node")
            .active_phy(ru);
        let active_node = d.phy_nodes[&active];
        assert!(
            d.engine.is_alive(active_node),
            "cell {ru}: active PHY {active} is dead"
        );
        let orion_l2 = d.cells[ru as usize].orion_l2;
        let standby = d
            .engine
            .node::<OrionL2Node>(orion_l2)
            .expect("orion node")
            .standby_of(ru)
            .unwrap_or_else(|| panic!("cell {ru}: no standby bound after recovery"));
        assert_ne!(active, standby, "cell {ru}: active and standby collide");
        assert!(
            d.engine.is_alive(d.phy_nodes[&standby]),
            "cell {ru}: standby PHY {standby} is dead"
        );
    }

    // The untouched cell still has its original pairing.
    let active3 = d
        .engine
        .node_mut::<SwitchNode>(d.switch)
        .expect("switch node")
        .active_phy(3);
    assert_eq!(
        active3, d.cells[3].primary_phy_id,
        "cell 3 must be unaffected"
    );

    // Pool accounting: 2 spares granted out, 3 dead primaries scrubbed
    // and returned, 1 re-granted -> 3 grants, 3 returns, pool back to 2.
    let recovery = d
        .engine
        .node::<RecoveryOrchestrator>(d.recovery.expect("pool deployment has an orchestrator"))
        .expect("recovery node");
    assert_eq!(recovery.grants, 3, "three spares granted");
    assert_eq!(recovery.scrubs_completed, 3, "three ex-primaries recycled");
    assert_eq!(recovery.pool_size(), 2, "pool refilled by scenario end");
    assert_eq!(recovery.pending_requests(), 0, "no request left starving");
}

/// The whole crash-and-recover sequence is invisible to the worker
/// pool: same seed, 1 vs 4 workers, byte-identical trace.
#[test]
fn pool_recovery_trace_is_worker_count_invariant() {
    let (d1, r1) = run(7, 1);
    let (d4, r4) = run(7, 4);
    assert!(r1.ok(), "serial run violations: {:?}", r1.violations);
    assert!(r4.ok(), "parallel run violations: {:?}", r4.violations);
    assert_eq!(
        d1.engine.event_trace().hash(),
        d4.engine.event_trace().hash(),
        "trace hash diverged between 1 and 4 workers"
    );
    assert_eq!(
        d1.engine.event_trace().to_bytes(),
        d4.engine.event_trace().to_bytes(),
        "trace bytes diverged between 1 and 4 workers"
    );
}

/// One cell, a two-deep pool, and three crashes of whichever PHY is
/// active, spaced as in [`triple_crash`]: every re-pair goes through
/// the orchestrator, and the third needs a scrubbed ex-primary back in
/// the pool. Each crash individually stays within the paper's bounds.
#[test]
fn single_cell_pool_survives_three_crashes() {
    let scenario = Scenario::new("triple-crash-one-cell", 1700)
        .fault(700, FaultTarget::ActivePhyOf(0), FaultKind::PhyCrash)
        .fault(760, FaultTarget::ActivePhyOf(0), FaultKind::PhyCrash)
        .fault(820, FaultTarget::ActivePhyOf(0), FaultKind::PhyCrash);
    let mut d = DeploymentBuilder::new()
        .seed(0x9001)
        .cell(CellConfig {
            num_prbs: 51,
            fidelity: Fidelity::Sampled,
            ..CellConfig::default()
        })
        .spare_pool(2)
        .ue(UeConfig::new(100, 0, "ue0", 22.0))
        .build();
    d.add_flow(
        0,
        100,
        Box::new(UdpCbrSource::new(4_000_000, 1000, Nanos::ZERO)),
        Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
    );
    let report = run_scenario(&mut d, &scenario);
    assert!(report.ok(), "oracle violations: {:#?}", report.violations);
    let fleet = &report.slo.fleet;
    assert_eq!(fleet.detections, 3, "one detection per crash");
    let worst = fleet.detection_max.unwrap_or_default();
    assert!(
        worst <= Nanos::from_micros(450),
        "worst detection latency {} us",
        worst.0 / 1_000
    );
    // The crashes are 60 slots apart, so each one's blackout is its own
    // outage in the cell's delivered-TTI series: the longest outage is
    // the worst single crash.
    let cell = &report.slo.cells[0];
    let worst = cell.outages.iter().map(|o| o.missing_ttis).max();
    assert!(worst <= Some(3), "a single crash dropped {worst:?} TTIs");

    // The cell ends re-paired on live servers.
    let active = d
        .engine
        .node_mut::<SwitchNode>(d.switch)
        .expect("switch node")
        .active_phy(0);
    let standby = d
        .engine
        .node::<OrionL2Node>(d.cells[0].orion_l2)
        .expect("orion node")
        .standby_of(0)
        .expect("standby bound after the third recovery");
    assert_ne!(active, standby);
    assert!(d.engine.is_alive(d.phy_nodes[&active]));
    assert!(d.engine.is_alive(d.phy_nodes[&standby]));
}

/// A scrubbed ex-primary recycled into another cell delivers that
/// cell's uplink. Two cells and a one-deep pool, crashes 60 slots apart
/// (wider than the 40-slot scrub): cell 0's primary, PHY 1, dies and is
/// scrubbed back into the pool; it is granted to cell 1 as its standby
/// when cell 1's primary dies; and it becomes cell 1's active PHY when
/// cell 1's second PHY dies. From that flip on, every UL slot PHY 1
/// decodes must reach cell 1's L2-side Orion as a `FapiToL2` for RU 1.
#[test]
fn recycled_spare_delivers_uplink_in_its_new_cell() {
    const HORIZON: u64 = 1400;
    let scenario = Scenario::new("pool-recycle", HORIZON)
        .fault(700, FaultTarget::ActivePhyOf(0), FaultKind::PhyCrash)
        .fault(760, FaultTarget::ActivePhyOf(1), FaultKind::PhyCrash)
        .fault(820, FaultTarget::ActivePhyOf(1), FaultKind::PhyCrash);
    let mut d = DeploymentBuilder::new()
        .seed(0x9001)
        .cell(CellConfig {
            num_prbs: 51,
            fidelity: Fidelity::Sampled,
            ..CellConfig::default()
        })
        .cells(2)
        .spare_pool(1)
        .ue(UeConfig::new(100, 0, "ue0", 22.0))
        .ue(UeConfig::new(101, 1, "ue1", 22.0))
        .build();
    for (ue_idx, rnti) in [(0, 100), (1, 101)] {
        d.add_flow(
            ue_idx,
            rnti,
            Box::new(UdpCbrSource::new(4_000_000, 1000, Nanos::ZERO)),
            Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
        );
    }
    let report = run_scenario(&mut d, &scenario);

    let trace = d.engine.event_trace();
    let (phy1, c1_orion_l2) = (d.phy_nodes[&1], d.cells[1].orion_l2);
    assert_eq!(d.engine.node_name(c1_orion_l2), "c1-orion-l2");
    // The flip of RU 1 onto PHY 1 (`b` = old PHY << 16 | new PHY).
    let flip = trace
        .iter()
        .find(|e| e.kind == TraceEventKind::MapFlip && e.a == 1 && e.b & 0xFFFF == 1)
        .expect("recycled PHY 1 becomes cell 1's active PHY");
    // After the scrub PHY 1 serves RU 1 only, so every UL slot it
    // decodes past the flip is RU 1's; the last few slots may still be
    // in flight at the horizon.
    let decoded: Vec<u64> = trace
        .iter()
        .filter(|e| e.kind == TraceEventKind::UlSlotProcessed && e.node == phy1)
        .filter(|e| e.at > flip.at && e.a + 4 < HORIZON)
        .map(|e| e.a)
        .collect();
    assert!(
        decoded.len() >= 50,
        "PHY 1 decoded only {} UL slots for RU 1",
        decoded.len()
    );
    let delivered = |abs: u64| {
        trace.iter().any(|e| {
            e.kind == TraceEventKind::FapiToL2 && e.node == c1_orion_l2 && e.a == 1 && e.b == abs
        })
    };
    let lost: Vec<u64> = decoded
        .iter()
        .copied()
        .filter(|&abs| !delivered(abs))
        .collect();
    assert!(
        lost.is_empty(),
        "{} of {} UL slots PHY 1 decoded for RU 1 never reached c1-orion-l2 (first: {:?})",
        lost.len(),
        decoded.len(),
        lost.first()
    );
    assert!(report.ok(), "oracle violations: {:#?}", report.violations);
}

/// A PHY-side Orion stops covering an RU once that RU has failed over
/// away from its PHY. The §6.1 loss guard fills holes in an RU's
/// request stream with null UL_TTI + DL_TTI pairs; the L2-side Orion
/// now sends the failed PHY's Orion a FAPI `Stop` for the RU, so the
/// guard does not fill every slot for the rest of the run — into the
/// dead PHY, and after the scrub into the recycled one. `chaos_soak`'s
/// `pool-recycle` run (four cells, two spares; crashes of cells 0, 2,
/// 1, 1) crashes PHYs 1, 5, 3 and 4: each of their Orions must inject
/// no more nulls than a PHY that never crashed, give or take a few.
#[test]
fn failed_over_phy_orion_stops_guarding_its_old_ru() {
    let scenario = Scenario::new("pool-recycle", 1900)
        .fault(700, FaultTarget::ActivePhyOf(0), FaultKind::PhyCrash)
        .fault(760, FaultTarget::ActivePhyOf(2), FaultKind::PhyCrash)
        .fault(820, FaultTarget::ActivePhyOf(1), FaultKind::PhyCrash)
        .fault(880, FaultTarget::ActivePhyOf(1), FaultKind::PhyCrash);
    let mut d = chaos_pool_deployment(6003);
    let report = run_scenario(&mut d, &scenario);
    assert!(report.ok(), "oracle violations: {:?}", report.violations);

    let killed: Vec<u64> = d
        .engine
        .event_trace()
        .of_kind(TraceEventKind::NodeKilled)
        .map(|e| e.a)
        .collect();
    let nulls = |id: u8| {
        let orion = d.engine.node::<OrionPhyNode>(d.phy_orions[&id]).unwrap();
        orion.loss_nulls_injected
    };
    let (crashed, healthy): (Vec<u8>, Vec<u8>) = d
        .phy_nodes
        .keys()
        .copied()
        .partition(|id| killed.contains(&(d.phy_nodes[id].0 as u64)));
    assert_eq!(crashed, [1, 3, 4, 5]);
    let healthy_max = healthy.iter().map(|&id| nulls(id)).max().unwrap();
    for id in crashed {
        assert!(
            nulls(id) <= healthy_max + 8,
            "crashed PHY {id}'s Orion injected {} nulls, a healthy PHY's at most {healthy_max}",
            nulls(id)
        );
    }
}
