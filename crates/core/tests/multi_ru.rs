//! Multi-RU co-location tests: two cells sharing two PHY processes
//! with crossed primary/secondary roles (§8's deployment note), built
//! by `DeploymentBuilder::crossed_standbys` and judged by the same
//! trace oracle and SLO analyzer as every other deployment.

use slingshot::{Deployment, DeploymentBuilder, DeploymentConfig, OrionL2Node, SwitchNode};
use slingshot_ran::{CellConfig, Fidelity, PhyNode, UeConfig, UeNode, UeState};
use slingshot_sim::chaos::oracle;
use slingshot_sim::slo::{self, SloConfig};
use slingshot_sim::{Nanos, SLOT_DURATION};
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

/// Cell 0: primary PHY 1, standby PHY 3; cell 1: primary PHY 3,
/// standby PHY 1. One UE per cell, each with a 3 Mbps uplink flow.
fn build(seed: u64) -> Deployment {
    let mut d = DeploymentBuilder::new()
        .config(cfg(seed))
        .cells(2)
        .crossed_standbys()
        .ue(UeConfig::new(100, 0, "cell0-ue", 22.0))
        .ue(UeConfig::new(200, 1, "cell1-ue", 22.0))
        .build();
    for (ue_idx, rnti) in [(0, 100), (1, 200)] {
        d.add_flow(
            ue_idx,
            rnti,
            Box::new(UdpCbrSource::new(3_000_000, 900, Nanos::ZERO)),
            Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
        );
    }
    d
}

fn sink_rx(d: &Deployment, rnti: u16) -> u64 {
    let sink: &UdpSink = d
        .engine
        .node::<slingshot_ran::AppServerNode>(d.server)
        .unwrap()
        .app(rnti, 0)
        .unwrap();
    sink.total_rx
}

#[test]
fn both_cells_flow_with_crossed_standbys() {
    let mut d = build(1);
    d.engine.run_until(Nanos::from_millis(1500));
    assert!(sink_rx(&d, 100) > 300, "cell0 rx={}", sink_rx(&d, 100));
    assert!(sink_rx(&d, 200) > 300, "cell1 rx={}", sink_rx(&d, 200));
    // Each PHY does real work (one cell) AND null slots (the other).
    for phy in [d.cells[0].primary_phy, d.cells[1].primary_phy] {
        let p = d.engine.node::<PhyNode>(phy).unwrap();
        assert!(p.work_slots > 100, "work={}", p.work_slots);
        assert!(p.null_slots > 1000, "null={}", p.null_slots);
    }
}

#[test]
fn one_phy_crash_fails_over_one_cell_without_disturbing_the_other() {
    let mut d = build(2);
    d.engine.run_until(Nanos::from_millis(700));
    d.engine.kill(d.cells[0].primary_phy); // primary of cell 0, standby of cell 1
    d.engine.run_until(Nanos::from_millis(2000));

    // The trace agrees: every invariant holds, and each cell dropped at
    // most the paper's 3 TTIs — cell 1's deliveries from PHY 3 count as
    // its own even once PHY 3 serves cell 0 too.
    let initial_active = d.initial_active();
    let exp = oracle::Expectations {
        initial_active: initial_active.clone(),
        ..oracle::Expectations::default()
    };
    let report = oracle::check(d.engine.event_trace(), &exp);
    assert!(report.ok(), "violations: {:?}", report.violations);
    let horizon_slots = Nanos::from_millis(2000).0 / SLOT_DURATION.0;
    let slo_cfg = SloConfig {
        horizon_slots,
        initial_active,
    };
    let slo = slo::analyze(d.engine.event_trace(), &slo_cfg);
    assert_eq!(slo.cells.len(), 2);
    for cell in &slo.cells {
        assert!(
            cell.dropped_ttis <= 3,
            "ru {}: {} dropped TTIs",
            cell.ru,
            cell.dropped_ttis
        );
    }

    // Cell 0 failed over to PHY 3 and stayed connected.
    let orion0 = d.engine.node::<OrionL2Node>(d.cells[0].orion_l2).unwrap();
    assert_eq!(orion0.failovers, 1);
    let ue0 = d.engine.node::<UeNode>(d.cells[0].ues[0]).unwrap();
    assert_eq!(ue0.rlf_count, 0);
    assert_eq!(ue0.state, UeState::Connected);

    // Cell 1 (already on PHY 3) was never disturbed; it lost only its
    // standby.
    let orion1 = d.engine.node::<OrionL2Node>(d.cells[1].orion_l2).unwrap();
    assert_eq!(orion1.failovers, 0, "cell1 must not fail over");
    let ue1 = d.engine.node::<UeNode>(d.cells[1].ues[0]).unwrap();
    assert_eq!(ue1.rlf_count, 0);

    // The switch executed exactly one migration (cell 0's).
    let sw = d.engine.node::<SwitchNode>(d.switch).unwrap();
    assert_eq!(sw.mbox.migrations_executed, 1);

    // Both cells' traffic still flows — co-resident on PHY 3.
    let before0 = sink_rx(&d, 100);
    let before1 = sink_rx(&d, 200);
    d.engine.run_until(Nanos::from_millis(3000));
    assert!(sink_rx(&d, 100) > before0 + 100, "cell0 resumed");
    assert!(sink_rx(&d, 200) > before1 + 100, "cell1 kept flowing");
    let survivor = d.engine.node::<PhyNode>(d.cells[1].primary_phy).unwrap();
    assert!(survivor.crash_time.is_none());
}

#[test]
fn dual_ru_deterministic() {
    let run = |seed| {
        let mut d = build(seed);
        d.engine.run_until(Nanos::from_millis(600));
        d.engine.kill(d.cells[0].primary_phy);
        d.engine.run_until(Nanos::from_millis(1000));
        (d.engine.trace_hash(), d.engine.dispatched())
    };
    assert_eq!(run(5), run(5));
}
