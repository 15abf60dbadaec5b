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
    expectations_for, run_scenario, ChaosRunner, Deployment, DeploymentBuilder, DeploymentConfig,
    OrionL2Node, RecoveryOrchestrator, SwitchNode,
};
use slingshot_ran::{CellConfig, Fidelity, UeConfig};
use slingshot_sim::chaos::{oracle, FaultKind, FaultTarget, Scenario};
use slingshot_sim::Nanos;
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
        .node::<OrionL2Node>(d.orion_l2)
        .expect("orion node")
        .standby_of(0)
        .expect("standby bound after the third recovery");
    assert_ne!(active, standby);
    assert!(d.engine.is_alive(d.phy_nodes[&active]));
    assert!(d.engine.is_alive(d.phy_nodes[&standby]));
}
