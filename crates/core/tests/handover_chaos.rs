//! Chaos-crossed handover acceptance battery: faults injected while a
//! network-initiated handover is in flight, judged by the per-slice
//! mobility oracle, with 1-vs-4-worker byte-identical trace goldens.
//!
//! Timing background: the corridor UE (rnti 100) reports the A3
//! crossing around slot 615; the switch is armed near slot 631 and the
//! directory flips at the aligned boundary 635. Mobility is RNG-free,
//! so this choreography lands at the same slots for every seed — faults
//! planted in the 610–660 window hit mid-choreography.

use slingshot::chaos::{
    chaos_handover_deployment, chaos_handover_deployment_with_workers, run_scenario, ChaosRunner,
};
use slingshot::HandoverController;
use slingshot_ran::UeNode;
use slingshot_sim::chaos::oracle::Invariant;
use slingshot_sim::chaos::{FaultKind, FaultTarget, Scenario};
use slingshot_sim::TraceEventKind;

fn flip_count(d: &slingshot::Deployment) -> usize {
    d.engine
        .event_trace()
        .iter()
        .filter(|e| e.kind == TraceEventKind::HandoverFlip)
        .count()
}

/// The headline acceptance test: the target cell's active PHY dies in
/// the middle of the handover choreography (context transferred, switch
/// armed, cutover pending). Failover and handover must compose: the
/// spare pool repairs the cell, the cutover lands, and the per-slice
/// oracle holds — across 8 seeds, with the 4-worker trace byte-equal to
/// the 1-worker golden.
#[test]
fn active_phy_crash_mid_handover_across_seeds() {
    let scenario = Scenario::new("crash-mid-handover", 2000).fault(
        628,
        FaultTarget::ActivePhyOf(1),
        FaultKind::PhyCrash,
    );
    for seed in 1..=8u64 {
        let run = |workers: usize| {
            let mut d = chaos_handover_deployment_with_workers(seed, workers);
            let report = run_scenario(&mut d, &scenario);
            (report, d)
        };
        let (report, d) = run(1);
        assert!(
            report.ok(),
            "seed {seed} violated: {:?}\nscenario: {}",
            report.violations,
            scenario.describe()
        );
        assert!(flip_count(&d) >= 1, "seed {seed}: handover must land");
        let detections = report.slo.fleet.detections;
        assert_eq!(detections, 1, "seed {seed}: crash must be detected");
        let ue = d.engine.node::<UeNode>(d.cells[0].ues[0]).unwrap();
        assert_eq!(ue.serving_ru(), 1, "seed {seed}: UE must end on cell 1");

        // 1-vs-4-worker golden: byte-identical trace, same hash.
        let bytes_1 = d.engine.event_trace().to_bytes();
        let hash_1 = d.engine.trace_hash();
        let (_, d4) = run(4);
        assert_eq!(
            hash_1,
            d4.engine.trace_hash(),
            "seed {seed}: worker count changed the trace hash"
        );
        assert_eq!(
            bytes_1,
            d4.engine.event_trace().to_bytes(),
            "seed {seed}: worker count changed the trace bytes"
        );
        // Golden stability: a fresh identical run reproduces the hash.
        let (_, d1b) = run(1);
        assert_eq!(hash_1, d1b.engine.trace_hash(), "seed {seed}: not golden");
    }
}

/// A handover storm against a dry spare pool: the cell-0 crash at slot
/// 400 consumes the only spare, then eight forced measurement reports
/// slam the controller at slot 1000. The controller must serialize per
/// UE (dup guard), every forced flip must stay consistent in the
/// directory/trace, and the oracle's per-slice budgets — widened by the
/// storm's damage allowance — must hold.
#[test]
fn handover_storm_with_dry_spare_pool() {
    let scenario = Scenario::new("storm-dry-pool", 2800)
        .fault(400, FaultTarget::ActivePhyOf(0), FaultKind::PhyCrash)
        .fault(
            1000,
            FaultTarget::HandoverController,
            FaultKind::HandoverStorm { requests: 8 },
        );
    let mut d = chaos_handover_deployment(51);
    let report = run_scenario(&mut d, &scenario);
    assert!(
        report.ok(),
        "violations: {:?}\nscenario: {}",
        report.violations,
        scenario.describe()
    );
    assert_eq!(report.slo.fleet.detections, 1, "the crash must be detected");
    let h = d
        .engine
        .node::<HandoverController>(d.handover.unwrap())
        .unwrap();
    // 3 UEs: 8 storm reports collapse to at most one in-flight attempt
    // per UE at a time, plus the corridor UE's organic crossings.
    assert!(h.started >= 3, "started {}", h.started);
    assert_eq!(h.in_flight(), 0, "storm must drain by end of run");
    assert!(flip_count(&d) >= 3, "forced handovers must execute");
}

/// The controller itself crash-restarts just before the corridor UE's
/// measurement report arrives: the report is lost with all controller
/// soft state. The UE's report timeout re-arms its crossing detector,
/// the retried report lands on the restarted controller, and the
/// handover completes late — nobody is stranded.
#[test]
fn controller_restart_mid_handover_recovers() {
    let scenario = Scenario::new("ctl-restart", 2400).fault(
        610,
        FaultTarget::HandoverController,
        FaultKind::OrionRestart { down_slots: 20 },
    );
    let mut d = chaos_handover_deployment(52);
    let report = run_scenario(&mut d, &scenario);
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert!(
        flip_count(&d) >= 1,
        "the retried report must complete the handover"
    );
    let ue = d.engine.node::<UeNode>(d.cells[0].ues[0]).unwrap();
    assert_eq!(ue.serving_ru(), 1, "UE must still reach cell 1");
}

/// A partition between controller and switch exactly while the context
/// transfer is in flight swallows the data-plane arming frame: the UE
/// retunes on command, the control plane believes the handover
/// completed, but the switch directory still points at the source cell.
/// The oracle must catch this silent control/data-plane divergence as a
/// single-serving-cell violation — this is precisely the failure class
/// the per-slice serving timeline exists to detect.
#[test]
fn partition_during_context_transfer_is_caught_by_oracle() {
    let scenario = Scenario::new("partition-ctx-transfer", 2000).fault(
        620,
        FaultTarget::HandoverController,
        FaultKind::LinkPartition { slots: 40 },
    );
    let mut d = chaos_handover_deployment(53);
    let report = run_scenario(&mut d, &scenario);
    // Control plane saw a completed handover...
    let h = d
        .engine
        .node::<HandoverController>(d.handover.unwrap())
        .unwrap();
    assert!(
        h.completed >= 1,
        "control plane believes the handover landed"
    );
    // ...but the arming frame died in the partition: no directory flip.
    assert_eq!(flip_count(&d), 0, "the switch must have missed the flip");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::SingleServingCell),
        "oracle must flag the divergence, got: {:?}",
        report.violations
    );
}

/// Storms and crashes are reproducible: the full sample -> run -> judge
/// pipeline over the handover deployment is byte-identical run to run.
#[test]
fn chaos_crossed_runs_are_byte_identical() {
    let run = || {
        let scenario = Scenario::new("storm-repro", 2000)
            .fault(628, FaultTarget::ActivePhyOf(1), FaultKind::PhyCrash)
            .fault(
                900,
                FaultTarget::HandoverController,
                FaultKind::HandoverStorm { requests: 4 },
            );
        let mut d = chaos_handover_deployment(54);
        let mut runner = ChaosRunner::new(&scenario);
        runner.run(&mut d, scenario.horizon_slots);
        (d.engine.event_trace().to_bytes(), d.engine.trace_hash())
    };
    let a = run();
    let b = run();
    assert_eq!(a.1, b.1, "trace hash must match");
    assert_eq!(a.0, b.0, "trace bytes must match");
}
