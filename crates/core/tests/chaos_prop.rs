//! Property test: no single fault, of any kind, at any slot, under any
//! deployment seed, may ever produce a split brain — two PHYs completing
//! uplink processing for the same absolute slot (§4.3's exactly-one
//! active PHY invariant).
//!
//! The other oracle invariants carry per-scenario damage budgets and are
//! exercised by the scenario tests and the soak harness; this one is
//! unconditional, so it gets the property treatment: draw a random
//! (fault kind, target, slot, parameters, deployment seed) tuple and
//! assert the invariant over the full event trace.

use proptest::prelude::*;
use slingshot::chaos::{chaos_deployment, expectations_for, ChaosRunner};
use slingshot_sim::chaos::oracle::{self, Invariant};
use slingshot_sim::chaos::{FaultKind, FaultTarget, Scenario};
use slingshot_sim::Nanos;

/// The supported single-fault universe: every (target, kind) pair the
/// randomized sampler can draw, plus the standby-PHY variants of the
/// process faults.
fn fault_from(idx: u8, p: f64, dur: u64, hold: Nanos) -> (FaultTarget, FaultKind) {
    match idx {
        0 => (FaultTarget::ActivePhy, FaultKind::PhyCrash),
        1 => (FaultTarget::ActivePhy, FaultKind::PhyHang { slots: dur }),
        2 => (FaultTarget::StandbyPhy, FaultKind::PhyCrash),
        3 => (FaultTarget::StandbyPhy, FaultKind::PhyHang { slots: dur }),
        4 => (
            FaultTarget::Fronthaul,
            FaultKind::BurstLoss { p, slots: dur },
        ),
        5 => (
            FaultTarget::Fronthaul,
            FaultKind::LinkPartition { slots: dur.min(12) },
        ),
        6 => (
            FaultTarget::FronthaulUplink,
            FaultKind::IqCorrupt {
                p: p * 0.4,
                slots: dur,
            },
        ),
        7 => (
            FaultTarget::Fronthaul,
            FaultKind::DupPackets { p, slots: dur },
        ),
        8 => (
            FaultTarget::Fronthaul,
            FaultKind::ReorderPackets {
                p,
                hold,
                slots: dur,
            },
        ),
        9 => (
            FaultTarget::OrionL2,
            FaultKind::OrionRestart {
                down_slots: dur.min(15),
            },
        ),
        10 => (
            FaultTarget::OrionL2,
            FaultKind::MigrationStorm {
                requests: 2 + (dur % 5) as u32,
            },
        ),
        _ => (FaultTarget::OrionL2, FaultKind::PlannedMigration),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn single_fault_never_splits_the_brain(
        idx in 0u8..12,
        at_slot in 600u64..1000,
        p in 0.05f64..0.30,
        dur in 8u64..48,
        hold_us in 20u64..120,
        seed in 0u64..1_000_000,
    ) {
        let (target, kind) = fault_from(idx, p, dur, Nanos(hold_us * 1000));
        let horizon = at_slot + dur + 300;
        let scenario = Scenario::new("prop-single", horizon).fault(at_slot, target, kind);

        let mut d = chaos_deployment(seed);
        let mut runner = ChaosRunner::new(&scenario);
        runner.run(&mut d, scenario.horizon_slots);

        // Judge only the unconditional invariant: detection latency,
        // TTI budgets and repair all depend on the scenario, but two
        // PHYs must never both own a slot of the cell.
        let exp = expectations_for(&d, &scenario);
        let report = oracle::check(d.engine.event_trace(), &exp);
        let split: Vec<_> = report
            .violations
            .iter()
            .filter(|v| v.invariant == Invariant::OneActivePhy)
            .collect();
        prop_assert!(
            split.is_empty(),
            "seed={seed} scenario={} violations={split:?}",
            scenario.describe()
        );
    }
}
