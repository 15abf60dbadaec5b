//! Chaos-engine integration tests: slot-scheduled and randomized fault
//! scenarios against the full deployment, judged by the trace oracle.
//!
//! These are the DSL ports of the original hand-rolled failover/outage
//! tests plus coverage for the fault kinds only the chaos engine can
//! express (hangs, partitions, restarts, storms).

use slingshot::chaos::{
    chaos_deployment, chaos_pool_deployment, expectations_for, run_scenario, ChaosRunner,
};
use slingshot::{OrionL2Node, SwitchNode, PRIMARY_PHY_ID, RU_ID, SECONDARY_PHY_ID};
use slingshot_ran::{PhyNode, UeNode};
use slingshot_sim::chaos::oracle::{self, Invariant};
use slingshot_sim::chaos::{ChaosDistribution, FaultKind, FaultTarget, Scenario};
use slingshot_sim::Nanos;

/// DSL port of `failover_keeps_ue_connected_and_traffic_flowing`: kill
/// the active PHY mid-run; the oracle's invariants subsume the
/// original's hand-rolled assertions.
#[test]
fn crash_scenario_passes_oracle() {
    let scenario = Scenario::new("crash-active", 2400).fault(
        1000,
        FaultTarget::ActivePhy,
        FaultKind::PhyCrash,
    );
    let mut d = chaos_deployment(11);
    let report = run_scenario(&mut d, &scenario);
    assert!(
        report.ok(),
        "violations: {:?}\nscenario: {}",
        report.violations,
        scenario.describe()
    );
    let fleet = &report.slo.fleet;
    assert_eq!(fleet.detections, 1);
    assert!(fleet.dropped_ttis <= 3, "dropped {}", fleet.dropped_ttis);
    // The pooled spare was promoted to standby after the failover
    // consumed the secondary (§4.4 re-pairing).
    let ol2 = d.engine.node::<OrionL2Node>(d.orion_l2).unwrap();
    assert_eq!(ol2.standby_of(RU_ID), Some(d.spare_phys[0].0));
    let ue = d.engine.node::<UeNode>(d.ues[0]).unwrap();
    assert_eq!(ue.rlf_count, 0);
}

/// DSL port of `planned_migration_drops_zero_ttis_and_no_blackout`.
#[test]
fn planned_migration_scenario_passes_oracle() {
    let scenario = Scenario::new("planned", 2400).fault(
        1000,
        FaultTarget::OrionL2,
        FaultKind::PlannedMigration,
    );
    let mut d = chaos_deployment(12);
    let report = run_scenario(&mut d, &scenario);
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert_eq!(
        report.slo.fleet.detections, 0,
        "planned path must not trip the detector"
    );
    assert_eq!(
        report.slo.fleet.dropped_ttis, 0,
        "planned migration drops zero TTIs"
    );
    // Roles swapped: the old primary is the new standby.
    let ol2 = d.engine.node::<OrionL2Node>(d.orion_l2).unwrap();
    assert_eq!(ol2.primary_of(RU_ID), Some(SECONDARY_PHY_ID));
    assert_eq!(ol2.standby_of(RU_ID), Some(PRIMARY_PHY_ID));
}

/// The same planned migration on the four-cell pool deployment. The
/// switch flips cell 0 on the first packet stamped at the boundary —
/// two slots ahead of the wall clock — while the old primary drains
/// the last pre-boundary UL slot: that drain is cell 0's delivery, not
/// a ghost PHY, and no cell drops a TTI or trips the detector.
#[test]
fn planned_migration_on_pool_deployment_passes_oracle() {
    let scenario = Scenario::new("pool-planned", 2400).fault(
        1000,
        FaultTarget::OrionL2,
        FaultKind::PlannedMigration,
    );
    let mut d = chaos_pool_deployment(12);
    let report = run_scenario(&mut d, &scenario);
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert_eq!(report.slo.fleet.detections, 0);
    assert_eq!(
        report.slo.fleet.dropped_ttis, 0,
        "summed over all four cells"
    );
    for cell in &report.slo.cells {
        assert_eq!(cell.dropped_ttis, 0, "cell {}", cell.ru);
        assert!(cell.delivered_ttis > 300, "cell {}", cell.ru);
    }
    let ol2 = d.engine.node::<OrionL2Node>(d.orion_l2).unwrap();
    assert_eq!(ol2.primary_of(RU_ID), Some(SECONDARY_PHY_ID));
}

/// A gray failure: the active PHY wedges (missing every TTI deadline)
/// without dying. The detector must fire on the missing heartbeats and
/// the RU must migrate; when the revenant wakes up it must not cause a
/// split brain — the switch filters its downlink and its Orion's loss
/// guard keeps it idling on null FAPI as an unpaired warm process.
#[test]
fn hang_scenario_fails_over_without_split_brain() {
    let scenario = Scenario::new("hang-active", 2600).fault(
        1000,
        FaultTarget::ActivePhy,
        FaultKind::PhyHang { slots: 40 },
    );
    let mut d = chaos_deployment(13);
    let report = run_scenario(&mut d, &scenario);
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert!(report.slo.fleet.detections >= 1);
    let sw = d.engine.node::<SwitchNode>(d.switch).unwrap();
    assert_eq!(
        sw.mbox.migrations_executed, 1,
        "exactly one data-plane remap"
    );
    // The revenant's downlink never reached the RU again.
    assert!(sw.mbox.dl_filtered > 0, "zombie downlink must be filtered");
}

/// DSL port of the fronthaul outage coverage: a short full partition of
/// the RU <-> switch link. Heartbeats ride the server links, so the
/// detector must NOT declare a PHY failure (no false failover); the
/// dropped TTIs stay within the window's budget.
#[test]
fn fronthaul_partition_causes_no_false_failover() {
    let scenario = Scenario::new("fh-partition", 2200).fault(
        1000,
        FaultTarget::Fronthaul,
        FaultKind::LinkPartition { slots: 10 },
    );
    let mut d = chaos_deployment(14);
    let report = run_scenario(&mut d, &scenario);
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert_eq!(
        report.slo.fleet.detections, 0,
        "partition must not look like a PHY death"
    );
    let sw = d.engine.node::<SwitchNode>(d.switch).unwrap();
    assert_eq!(sw.mbox.failures_reported, 0);
    assert_eq!(sw.mbox.migrations_executed, 0);
}

/// Flaky fronthaul: duplicated and reordered packets. The middlebox and
/// PHY must absorb both without duplicate FAPI responses reaching L2.
#[test]
fn dup_and_reorder_scenario_passes_oracle() {
    let scenario = Scenario::new("dup-reorder", 2400)
        .fault(
            900,
            FaultTarget::Fronthaul,
            FaultKind::DupPackets { p: 0.2, slots: 60 },
        )
        .fault(
            1400,
            FaultTarget::Fronthaul,
            FaultKind::ReorderPackets {
                p: 0.15,
                hold: Nanos(80_000),
                slots: 60,
            },
        );
    let mut d = chaos_deployment(15);
    let report = run_scenario(&mut d, &scenario);
    assert!(report.ok(), "violations: {:?}", report.violations);
    // The link actually duplicated frames (the fault was live).
    let stats = d.engine.link_stats(d.switch, d.ru).unwrap();
    let stats_ul = d.engine.link_stats(d.ru, d.switch).unwrap();
    assert!(
        stats.duplicated + stats_ul.duplicated > 0,
        "dup fault never fired"
    );
}

/// The L2-side Orion dies and restarts with retained config (§6's
/// deliberately restartable shim). PHYs must survive on their local
/// loss guards and the FAPI flow must resume after the restart.
#[test]
fn orion_restart_scenario_recovers() {
    let scenario = Scenario::new("orion-restart", 2400).fault(
        1000,
        FaultTarget::OrionL2,
        FaultKind::OrionRestart { down_slots: 10 },
    );
    let mut d = chaos_deployment(16);
    let report = run_scenario(&mut d, &scenario);
    assert!(report.ok(), "violations: {:?}", report.violations);
    let fleet = &report.slo.fleet;
    assert_eq!(fleet.detections, 0, "PHYs must outlive an Orion restart");
    // FAPI flow resumed: uplink TTIs delivered well past the outage.
    assert!(
        fleet.delivered_ttis > 300,
        "delivered {}",
        fleet.delivered_ttis
    );
    let phy = d.engine.node::<PhyNode>(d.primary_phy).unwrap();
    assert!(
        phy.crash_time.is_none(),
        "loss guard must keep the PHY alive"
    );
}

/// A migration-request storm: the control plane serializes concurrent
/// requests (one in-flight migration per RU) without dropping TTIs.
#[test]
fn migration_storm_is_serialized() {
    let scenario = Scenario::new("storm", 2400).fault(
        1000,
        FaultTarget::OrionL2,
        FaultKind::MigrationStorm { requests: 5 },
    );
    let mut d = chaos_deployment(17);
    let report = run_scenario(&mut d, &scenario);
    assert!(report.ok(), "violations: {:?}", report.violations);
    let sw = d.engine.node::<SwitchNode>(d.switch).unwrap();
    assert_eq!(
        sw.mbox.migrations_executed, 1,
        "storm must collapse to one migration"
    );
}

/// Chained faults with apply-time target resolution: after the first
/// crash fails the RU over to the secondary, burst loss lands on the
/// fronthaul while the spare (promoted standby) keeps the cell warm.
#[test]
fn chained_faults_resolve_targets_at_apply_time() {
    let scenario = Scenario::new("chained", 3000)
        .fault(1000, FaultTarget::ActivePhy, FaultKind::PhyCrash)
        .fault(
            1600,
            FaultTarget::Fronthaul,
            FaultKind::BurstLoss { p: 0.1, slots: 40 },
        );
    let mut d = chaos_deployment(18);
    let report = run_scenario(&mut d, &scenario);
    assert!(report.ok(), "violations: {:?}", report.violations);
    // The crash took PHY 1; the active PHY is now the old secondary.
    let active = d
        .engine
        .node_mut::<SwitchNode>(d.switch)
        .unwrap()
        .active_phy(RU_ID);
    assert_eq!(active, SECONDARY_PHY_ID);
}

/// Same deployment seed + same scenario = byte-identical event trace —
/// the property that makes a failing nightly seed reproducible locally.
#[test]
fn chaos_runs_are_byte_identical() {
    let run = |seed: u64| {
        let scenario = ChaosDistribution::default().sample(seed);
        let mut d = chaos_deployment(seed);
        let mut runner = ChaosRunner::new(&scenario);
        runner.run(&mut d, scenario.horizon_slots);
        (
            d.engine.event_trace().to_bytes(),
            d.engine.trace_hash(),
            d.engine.dispatched(),
        )
    };
    let a = run(21);
    let b = run(21);
    assert_eq!(a.1, b.1, "trace hash must match");
    assert_eq!(a.2, b.2, "dispatch count must match");
    assert_eq!(a.0, b.0, "trace bytes must match");
    assert_ne!(run(22).1, a.1, "different seed, different run");
}

/// A couple of fixed random seeds through the full sample -> run ->
/// judge pipeline (the soak harness does this at scale nightly).
#[test]
fn sampled_scenarios_pass_oracle() {
    for seed in [3, 4] {
        let scenario = ChaosDistribution::default().sample(seed);
        let mut d = chaos_deployment(seed);
        let report = run_scenario(&mut d, &scenario);
        assert!(
            report.ok(),
            "seed {seed} violated: {:?}\nscenario: {}",
            report.violations,
            scenario.describe()
        );
    }
}

/// The oracle really judges real runs: a crash scenario held to an
/// impossible 1 ns detection bound must be flagged (sanity check that
/// the oracle is not vacuously green).
#[test]
fn oracle_flags_impossible_expectations() {
    let scenario =
        Scenario::new("strict", 2200).fault(1000, FaultTarget::ActivePhy, FaultKind::PhyCrash);
    let mut d = chaos_deployment(19);
    let exp = oracle::Expectations {
        max_detection_latency: Nanos(1),
        ..expectations_for(&d, &scenario)
    };
    ChaosRunner::new(&scenario).run(&mut d, scenario.horizon_slots);
    let report = oracle::check(d.engine.event_trace(), &exp);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::DetectionLatency),
        "in-switch detection cannot be faster than 1 ns; got {:?}",
        report.violations
    );
}
