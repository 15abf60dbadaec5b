//! Deterministic chaos engineering for the simulator.
//!
//! This module provides the three generic pieces of the chaos subsystem
//! (the Slingshot-aware fault *application* lives in the `core` crate,
//! which knows the deployment topology):
//!
//! 1. A scenario DSL: a [`Scenario`] is a named list of slot-scheduled
//!    [`Fault`]s (`Fault { at_slot, target, kind }`) covering the failure
//!    modes the paper argues a resilient vRAN must survive (§2, §6) —
//!    PHY crash, PHY hang/slowdown, link partition, burst loss, IQ
//!    corruption, duplicated/reordered fronthaul packets, Orion restart,
//!    and migration-request storms.
//! 2. A seeded randomized scheduler ([`ChaosDistribution`]) that samples
//!    fault sequences from a configurable distribution. A whole scenario
//!    is reproducible from one `u64` seed; harnesses print the seed on
//!    failure so any run can be replayed byte-identically.
//! 3. A trace-driven invariant checker ([`oracle`]) that replays the
//!    recorded event trace after a run and judges it against the table
//!    of named invariants in [`oracle::Invariant::ALL`] (DESIGN.md §5c).
//!
//! Everything here is pure data + pure functions over the trace; nothing
//! touches the engine directly, so the same scenarios can drive future
//! deployments (multi-RU, baseline) through their own runners.

use crate::time::Nanos;
use crate::SimRng;

/// What a fault acts on, in deployment-symbolic terms. The runner (in
/// the `core` crate) resolves these against the live topology at the
/// moment the fault fires, so "the active PHY" tracks failovers that
/// earlier faults in the same scenario caused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// The PHY currently serving the RU (resolved at injection time).
    /// Alias for `ActivePhyOf(0)`, kept for single-cell scenarios.
    ActivePhy,
    /// The PHY currently serving cell `ru` in a multi-cell deployment
    /// (resolved at injection time, so it tracks earlier failovers).
    ActivePhyOf(u8),
    /// The current standby PHY of cell `ru`.
    StandbyPhyOf(u8),
    /// Both directions of the RU <-> switch fronthaul link.
    Fronthaul,
    /// RU -> switch only (uplink IQ samples).
    FronthaulUplink,
    /// Switch -> RU only (downlink slot data + heartbeats).
    FronthaulDownlink,
    /// The L2-side Orion shim process.
    OrionL2,
    /// The mobility/handover controller process (handover deployments).
    HandoverController,
}

impl std::fmt::Display for FaultTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultTarget::ActivePhy => f.write_str("active-phy"),
            FaultTarget::ActivePhyOf(ru) => write!(f, "active-phy[cell{ru}]"),
            FaultTarget::StandbyPhyOf(ru) => write!(f, "standby-phy[cell{ru}]"),
            FaultTarget::Fronthaul => f.write_str("fronthaul"),
            FaultTarget::FronthaulUplink => f.write_str("fronthaul-ul"),
            FaultTarget::FronthaulDownlink => f.write_str("fronthaul-dl"),
            FaultTarget::OrionL2 => f.write_str("orion-l2"),
            FaultTarget::HandoverController => f.write_str("handover-ctl"),
        }
    }
}

/// The failure mode to inject. Durations are in slots (500 us each).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Fail-stop process crash (SIGKILL); the node never comes back on
    /// its own — recovery, if any, comes from Slingshot's failover.
    PhyCrash,
    /// The PHY stays alive but misses its TTI deadlines for `slots`
    /// slots: no heartbeats, no uplink processing (a wedged DPDK poll
    /// loop, a long GC pause). After the window it resumes — by then the
    /// switch has usually failed over, and the revenant never feeds the
    /// RU again (no split brain): with a spare pool it has been scrubbed
    /// back into the pool, without one it is starved of FAPI requests
    /// and the FAPI-liveness rule kills it a few slots later.
    PhyHang { slots: u64 },
    /// Drop every packet in both directions for `slots` slots.
    LinkPartition { slots: u64 },
    /// Drop each packet with probability `p` for `slots` slots.
    BurstLoss { p: f64, slots: u64 },
    /// Corrupt each packet with probability `p` for `slots` slots
    /// (bit-flips in IQ payloads; the FEC/CRC chain has to absorb it).
    IqCorrupt { p: f64, slots: u64 },
    /// Duplicate each packet with probability `p` for `slots` slots.
    DupPackets { p: f64, slots: u64 },
    /// With probability `p`, hold a packet back by `hold` so later
    /// packets overtake it, for `slots` slots.
    ReorderPackets { p: f64, hold: Nanos, slots: u64 },
    /// Kill the target process and restart it `down_slots` later; the
    /// restarted process re-runs its startup path with retained config
    /// (Slingshot's Orion shim is deliberately restart-tolerant, §4.2).
    OrionRestart { down_slots: u64 },
    /// Fire `requests` planned-migration requests back to back — the
    /// control plane must serialize them (one in-flight migration per
    /// RU) without dropping TTIs.
    MigrationStorm { requests: u32 },
    /// A single operator-initiated planned migration (§6.2).
    PlannedMigration,
    /// Fire `requests` forced measurement reports back to back at the
    /// handover controller — a handover storm. The controller must
    /// serialize (one in-flight handover per UE) and survive a dry
    /// spare pool or mid-storm crashes without stranding any UE.
    HandoverStorm { requests: u32 },
}

impl FaultKind {
    /// Whether this fault permanently removes a PHY from service when
    /// aimed at a PHY target (used by the sampler to bound how much
    /// redundancy a random scenario may burn).
    pub(crate) fn lethal_to_phy(&self) -> bool {
        matches!(self, FaultKind::PhyCrash | FaultKind::PhyHang { .. })
    }

    /// The window during which the fault actively degrades the system.
    pub fn duration_slots(&self) -> u64 {
        match *self {
            FaultKind::PhyHang { slots }
            | FaultKind::LinkPartition { slots }
            | FaultKind::BurstLoss { slots, .. }
            | FaultKind::IqCorrupt { slots, .. }
            | FaultKind::DupPackets { slots, .. }
            | FaultKind::ReorderPackets { slots, .. } => slots,
            FaultKind::OrionRestart { down_slots } => down_slots,
            FaultKind::PhyCrash
            | FaultKind::MigrationStorm { .. }
            | FaultKind::HandoverStorm { .. }
            | FaultKind::PlannedMigration => 0,
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FaultKind::PhyCrash => write!(f, "phy-crash"),
            FaultKind::PhyHang { slots } => write!(f, "phy-hang({slots} slots)"),
            FaultKind::LinkPartition { slots } => write!(f, "partition({slots} slots)"),
            FaultKind::BurstLoss { p, slots } => write!(f, "burst-loss(p={p:.2}, {slots} slots)"),
            FaultKind::IqCorrupt { p, slots } => write!(f, "iq-corrupt(p={p:.2}, {slots} slots)"),
            FaultKind::DupPackets { p, slots } => write!(f, "dup(p={p:.2}, {slots} slots)"),
            FaultKind::ReorderPackets { p, hold, slots } => {
                write!(
                    f,
                    "reorder(p={p:.2}, hold={}us, {slots} slots)",
                    hold.0 / 1_000
                )
            }
            FaultKind::OrionRestart { down_slots } => {
                write!(f, "orion-restart({down_slots} slots down)")
            }
            FaultKind::MigrationStorm { requests } => write!(f, "migration-storm({requests})"),
            FaultKind::PlannedMigration => write!(f, "planned-migration"),
            FaultKind::HandoverStorm { requests } => write!(f, "handover-storm({requests})"),
        }
    }
}

/// One scheduled fault: at absolute slot `at_slot`, apply `kind` to
/// `target`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    pub at_slot: u64,
    pub target: FaultTarget,
    pub kind: FaultKind,
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "@{} {} {}", self.at_slot, self.target, self.kind)
    }
}

/// A named, ordered fault schedule plus the run horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    pub name: String,
    pub faults: Vec<Fault>,
    /// Run the simulation until this absolute slot before judging.
    pub horizon_slots: u64,
}

impl Scenario {
    pub fn new(name: &str, horizon_slots: u64) -> Scenario {
        Scenario {
            name: name.to_string(),
            faults: Vec::new(),
            horizon_slots,
        }
    }

    /// Builder-style: append a fault (kept sorted by slot at run time).
    pub fn fault(mut self, at_slot: u64, target: FaultTarget, kind: FaultKind) -> Scenario {
        self.faults.push(Fault {
            at_slot,
            target,
            kind,
        });
        self
    }

    /// Faults sorted by injection slot (stable for equal slots).
    pub fn sorted_faults(&self) -> Vec<Fault> {
        let mut f = self.faults.clone();
        f.sort_by_key(|x| x.at_slot);
        f
    }

    /// One-line human description, printed by harnesses on failure.
    pub fn describe(&self) -> String {
        let faults: Vec<String> = self.sorted_faults().iter().map(|f| f.to_string()).collect();
        format!("{}: [{}]", self.name, faults.join(", "))
    }
}

/// Configurable distribution over fault sequences. `sample(seed)` is a
/// pure function: the same seed always yields the same scenario, which
/// is what makes a failing nightly seed replayable locally.
#[derive(Debug, Clone)]
pub struct ChaosDistribution {
    /// Earliest slot a fault may fire (leave room for UE attach and
    /// traffic ramp-up).
    pub first_fault_slot: u64,
    /// Latest slot a new fault may fire.
    pub last_fault_slot: u64,
    /// Minimum spacing between fault injection slots, so one disruption
    /// settles (failover completes, links restore) before the next hits.
    pub min_gap_slots: u64,
    /// Upper bound on faults per scenario (at least one is always drawn).
    pub max_faults: usize,
    /// Slots to keep running after the last fault before judging.
    pub cooldown_slots: u64,
}

impl Default for ChaosDistribution {
    fn default() -> ChaosDistribution {
        ChaosDistribution {
            first_fault_slot: 700,
            last_fault_slot: 1500,
            min_gap_slots: 250,
            max_faults: 3,
            cooldown_slots: 700,
        }
    }
}

impl ChaosDistribution {
    /// Sample a scenario. At most one PHY-lethal fault is drawn per
    /// scenario: a single spare only restores redundancy once, and the
    /// oracle's bounds assume the deployment is never asked to survive
    /// more simultaneous failures than the paper's provisioning model
    /// (§4.4) provides for.
    pub fn sample(&self, seed: u64) -> Scenario {
        let mut rng = SimRng::new(seed ^ 0x5eed_c4a0_5eed_c4a0);
        let n = 1 + rng.below(self.max_faults as u64) as usize;
        let mut scenario = Scenario::new(&format!("rand-{seed:#x}"), 0);
        let mut slot =
            self.first_fault_slot + rng.below(self.last_fault_slot - self.first_fault_slot);
        let mut lethal_used = false;
        let mut last_slot = slot;
        for _ in 0..n {
            let (target, kind) = self.sample_fault(&mut rng, &mut lethal_used);
            scenario.faults.push(Fault {
                at_slot: slot,
                target,
                kind,
            });
            last_slot = slot + kind.duration_slots();
            slot += self.min_gap_slots + rng.below(self.min_gap_slots);
        }
        scenario.horizon_slots = last_slot + self.cooldown_slots;
        scenario
    }

    fn sample_fault(&self, rng: &mut SimRng, lethal_used: &mut bool) -> (FaultTarget, FaultKind) {
        loop {
            // Weighted table; weights sum to 13.
            let draw = rng.below(13);
            let (target, kind) = match draw {
                0 | 1 => (FaultTarget::ActivePhy, FaultKind::PhyCrash),
                2 | 3 => (
                    FaultTarget::ActivePhy,
                    FaultKind::PhyHang {
                        slots: 10 + rng.below(50),
                    },
                ),
                4 | 5 => (
                    FaultTarget::Fronthaul,
                    FaultKind::BurstLoss {
                        p: 0.05 + rng.range_f64(0.0, 0.25),
                        slots: 20 + rng.below(80),
                    },
                ),
                6 => (
                    FaultTarget::Fronthaul,
                    FaultKind::LinkPartition {
                        slots: 4 + rng.below(12),
                    },
                ),
                7 | 8 => (
                    FaultTarget::FronthaulUplink,
                    FaultKind::IqCorrupt {
                        p: 0.02 + rng.range_f64(0.0, 0.10),
                        slots: 20 + rng.below(80),
                    },
                ),
                9 => (
                    FaultTarget::Fronthaul,
                    FaultKind::DupPackets {
                        p: 0.05 + rng.range_f64(0.0, 0.30),
                        slots: 20 + rng.below(80),
                    },
                ),
                10 => (
                    FaultTarget::Fronthaul,
                    FaultKind::ReorderPackets {
                        p: 0.05 + rng.range_f64(0.0, 0.20),
                        hold: Nanos(20_000 + rng.below(130_000)),
                        slots: 20 + rng.below(80),
                    },
                ),
                11 => (
                    FaultTarget::OrionL2,
                    FaultKind::OrionRestart {
                        down_slots: 5 + rng.below(15),
                    },
                ),
                _ => {
                    if rng.chance(0.5) {
                        (
                            FaultTarget::OrionL2,
                            FaultKind::MigrationStorm {
                                requests: 2 + rng.below(5) as u32,
                            },
                        )
                    } else {
                        (FaultTarget::OrionL2, FaultKind::PlannedMigration)
                    }
                }
            };
            if kind.lethal_to_phy() {
                if *lethal_used {
                    continue; // redraw: one lethal fault per scenario
                }
                *lethal_used = true;
            }
            return (target, kind);
        }
    }
}

pub mod oracle;

#[cfg(test)]
mod tests {
    // The DSL and sampler tests, and the oracle's scenarios over
    // synthetic traces; `oracle`'s witness table builds its rows from
    // these helpers.
    use super::oracle::{check, Expectations, Invariant};
    use super::*;
    use crate::engine::NodeId;
    use crate::time::{SlotId, SLOT_DURATION};
    use crate::trace::{TraceBuffer, TraceEventKind};

    pub(super) fn slot_time(abs: u64) -> Nanos {
        Nanos(abs * SLOT_DURATION.0)
    }

    pub(super) fn record(tb: &mut TraceBuffer, abs: u64, kind: TraceEventKind, a: u64, b: u64) {
        record_node(tb, abs, 0, kind, a, b);
    }

    pub(super) fn record_node(
        tb: &mut TraceBuffer,
        abs: u64,
        node: usize,
        kind: TraceEventKind,
        a: u64,
        b: u64,
    ) {
        tb.record_at_slot(
            slot_time(abs),
            NodeId(node),
            SlotId::from_absolute(abs),
            kind,
            a,
            b,
        );
    }

    /// Cell `ru` of the test layout: primary PHY `2 ru + 1`, PHY node
    /// `10 (ru + 1)`, L2-side Orion node `10 (ru + 1) + 1`.
    pub(super) fn primary(ru: u64) -> u64 {
        2 * ru + 1
    }

    /// Cell `ru` delivers UL slot `abs` from `phy`, its Orion forwarding
    /// the FAPI response once.
    pub(super) fn deliver(tb: &mut TraceBuffer, ru: u64, abs: u64, phy: u64) {
        let node = 10 * (ru as usize + 1);
        record_node(tb, abs, node, TraceEventKind::UlSlotProcessed, abs, phy);
        record_node(tb, abs, node + 1, TraceEventKind::FapiToL2, phy, abs);
    }

    /// The UL slots of a DDDSU run of `slots` slots.
    pub(super) fn ul_slots(slots: u64) -> impl Iterator<Item = u64> {
        (0..slots).filter(|s| s % 5 == 4)
    }

    /// A clean trace: every one of `cells` cells delivers every UL slot
    /// from its primary PHY.
    pub(super) fn healthy_trace(cells: u64, slots: u64) -> TraceBuffer {
        let mut tb = TraceBuffer::new(1 << 16);
        for abs in ul_slots(slots) {
            for ru in 0..cells {
                deliver(&mut tb, ru, abs, primary(ru));
            }
        }
        tb
    }

    /// Default expectations with `cells` cells declared.
    pub(super) fn exp_for(cells: u64) -> Expectations {
        Expectations {
            initial_active: (0..cells).map(|ru| (ru, primary(ru))).collect(),
            ..Expectations::default()
        }
    }

    /// A one-cell deployment is judged by the same code as an n-cell
    /// one, so every oracle test over cell traffic runs at both.
    fn at_each_cell_count(test: impl Fn(u64)) {
        for cells in [1, 4] {
            test(cells);
        }
    }

    #[test]
    fn healthy_trace_passes() {
        at_each_cell_count(|cells| {
            let tb = healthy_trace(cells, 500);
            let rep = check(&tb, &exp_for(cells));
            assert!(rep.ok(), "unexpected violations: {:?}", rep.violations);
            assert_eq!(rep.slo.fleet.dropped_ttis, 0);
            assert_eq!(rep.slo.fleet.delivered_ttis, 100 * cells, "per-cell sum");
            // With no cells declared every producer is a ghost: the
            // oracle judges declared cells, it does not guess them.
            let rep = check(&tb, &Expectations::default());
            assert!(rep
                .violations
                .iter()
                .any(|v| v.invariant == Invariant::OneActivePhy));
            assert_eq!(rep.slo.fleet.delivered_ttis, 0);
        });
    }

    #[test]
    fn split_brain_flagged() {
        at_each_cell_count(|cells| {
            // PHY 99 belongs to no cell's active mapping; it delivering
            // a slot means the switch leaked uplink to a ghost replica.
            let mut tb = healthy_trace(cells, 100);
            record_node(&mut tb, 44, 90, TraceEventKind::UlSlotProcessed, 44, 99);
            let rep = check(&tb, &exp_for(cells));
            assert!(rep
                .violations
                .iter()
                .any(|v| v.invariant == Invariant::OneActivePhy && v.detail.contains("PHY 99")));

            // The last cell fails over to PHY 98 at slot 50, and both
            // replicas complete slot 49: each is within the boundary
            // grace, but a slot has one producer.
            let ru = cells - 1;
            let mut tb = healthy_trace(cells, 50);
            record(
                &mut tb,
                50,
                TraceEventKind::MapFlip,
                ru,
                (primary(ru) << 16) | 98,
            );
            record_node(&mut tb, 49, 90, TraceEventKind::UlSlotProcessed, 49, 98);
            let rep = check(&tb, &exp_for(cells));
            let contested = format!("cell {ru} slot 49 processed by 2 PHYs");
            assert!(rep
                .violations
                .iter()
                .any(|v| v.invariant == Invariant::OneActivePhy && v.detail.contains(&contested)));
        });
    }

    #[test]
    fn duplicate_fapi_flagged() {
        let mut tb = healthy_trace(1, 100);
        record_node(&mut tb, 49, 11, TraceEventKind::FapiToL2, 2, 49);
        let rep = check(&tb, &exp_for(1));
        assert!(rep
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::NoDupFapi));
    }

    #[test]
    fn excess_dropped_ttis_flagged() {
        at_each_cell_count(|cells| {
            // The last cell blacks out for 30 slots (6 TTIs, budget 3)
            // while every other cell keeps delivering those absolute
            // slots: neighbours must not mask it, nor be charged for it.
            let victim = cells - 1;
            let mut tb = TraceBuffer::new(1 << 16);
            for abs in ul_slots(200) {
                for ru in 0..cells {
                    if ru != victim || !(60..90).contains(&abs) {
                        deliver(&mut tb, ru, abs, primary(ru));
                    }
                }
            }
            let rep = check(&tb, &exp_for(cells));
            let dropped: Vec<_> = rep
                .violations
                .iter()
                .filter(|v| v.invariant == Invariant::DroppedTtis)
                .collect();
            assert_eq!(dropped.len(), 1, "only the victim: {dropped:?}");
            assert!(dropped[0].detail.contains(&format!("cell {victim}:")));
            assert_eq!(rep.slo.fleet.dropped_ttis, 6);
        });
    }

    #[test]
    fn late_detection_flagged() {
        let mut tb = healthy_trace(1, 100);
        // Saturation 600us after the last heartbeat (bound is 450us).
        let last_hb = slot_time(50);
        tb.record(
            last_hb + Nanos::from_micros(600),
            NodeId(3),
            TraceEventKind::DetectorSaturated,
            1,
            last_hb.0,
        );
        let rep = check(&tb, &exp_for(1));
        assert!(rep
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::DetectionLatency));
        assert_eq!(rep.slo.fleet.detections, 1);
    }

    /// Cell 0 fails over from its primary to PHY 50 at slot 100 (UL
    /// slots 99 and 104 lost); every other cell is untouched.
    pub(super) fn failover_trace(cells: u64) -> TraceBuffer {
        let mut tb = TraceBuffer::new(1 << 16);
        for abs in ul_slots(250) {
            if !(95..105).contains(&abs) {
                deliver(&mut tb, 0, abs, if abs < 100 { primary(0) } else { 50 });
            }
            for ru in 1..cells {
                deliver(&mut tb, ru, abs, primary(ru));
            }
        }
        record(
            &mut tb,
            100,
            TraceEventKind::MapFlip,
            0,
            (primary(0) << 16) | 50,
        );
        tb
    }

    #[test]
    fn missing_repair_flagged() {
        at_each_cell_count(|cells| {
            let tb = failover_trace(cells);
            // A flipped cell owes a re-pairing when the scenario demands
            // one (`expect_repair`) or a spare pool makes one possible.
            let planned = Expectations {
                expect_repair: true,
                ..exp_for(cells)
            };
            let pooled = Expectations {
                expect_pool: Some(2),
                ..exp_for(cells)
            };
            // Traffic continues past the flip but no null-FAPI
            // keep-alive is ever fed: not re-paired, and attributed to
            // cell 0 specifically.
            for exp in [&planned, &pooled] {
                let rep = check(&tb, exp);
                assert!(rep.violations.iter().any(
                    |v| v.invariant == Invariant::EventualRepair && v.detail.contains("cell 0")
                ));
                assert_eq!(rep.violations.len(), 1, "{:?}", rep.violations);
            }
            // A lethal fault with nothing to re-pair from owes none.
            let rep = check(&tb, &exp_for(cells));
            assert!(rep.ok(), "unexpected violations: {:?}", rep.violations);
            // A keep-alive started for cell 0 after the settle window
            // clears it; one started for another cell does not.
            let started = TraceEventKind::KeepAliveStarted;
            let mut late = tb.clone();
            record_node(&mut late, 150, 21, started, 1, (7 << 32) | 150);
            assert!(!check(&late, &planned).ok());
            record_node(&mut late, 150, 11, started, 0, (7 << 32) | 150);
            for exp in [&planned, &pooled] {
                let rep = check(&late, exp);
                assert!(rep.ok(), "unexpected violations: {:?}", rep.violations);
            }

            // The feed's state at the settle slot (flip 100 + 10)
            // decides: a start before it with no later stop keeps the
            // cell warm ...
            let stopped = TraceEventKind::KeepAliveStopped;
            let mut on = tb.clone();
            record_node(&mut on, 20, 11, started, 0, (50 << 32) | 20);
            record_node(&mut on, 105, 11, started, 0, (7 << 32) | 105);
            let rep = check(&on, &planned);
            assert!(rep.ok(), "unexpected violations: {:?}", rep.violations);
            // ... a stop before it with no later start does not ...
            let mut off = on.clone();
            record_node(&mut off, 108, 11, stopped, 0, 108);
            let rep = check(&off, &planned);
            assert!(rep
                .violations
                .iter()
                .any(|v| v.invariant == Invariant::EventualRepair && v.detail.contains("cell 0")));
            assert_eq!(rep.violations.len(), 1, "{:?}", rep.violations);
            // ... and a stop after it does not undo the pairing.
            record_node(&mut on, 140, 11, stopped, 0, 140);
            let rep = check(&on, &planned);
            assert!(rep.ok(), "unexpected violations: {:?}", rep.violations);

            // A scenario that demands a failover and records no flip.
            let rep = check(&healthy_trace(cells, 250), &planned);
            assert!(rep.violations.iter().any(
                |v| v.invariant == Invariant::EventualRepair && v.detail.contains("no MapFlip")
            ));
        });
    }

    /// A data-plane flip is traced when the first packet stamped at or
    /// past the boundary arrives — DL C-plane runs two slots ahead of
    /// the wall clock — while the old PHY still completes the last
    /// pre-boundary UL slot (the planned-migration drain, paper §7).
    /// Ownership is keyed by the stamped boundary, including when the
    /// 5 120-slot packet scalar wraps between arrival and boundary.
    #[test]
    fn flip_is_keyed_by_its_stamped_boundary_slot() {
        for boundary in [1005u64, 5120] {
            let mut tb = TraceBuffer::new(1 << 16);
            for abs in ul_slots(boundary + 100).filter(|&s| s > boundary - 100) {
                deliver(&mut tb, 0, abs, if abs < boundary { 1 } else { 2 });
            }
            tb.record_at_slot(
                slot_time(boundary - 2),
                NodeId(0),
                SlotId::from_absolute(boundary % 5120),
                TraceEventKind::MapFlip,
                0,
                (1 << 16) | 2,
            );
            record(
                &mut tb,
                boundary - 2,
                TraceEventKind::KeepAliveStarted,
                0,
                (1 << 32) | boundary,
            );
            let exp = Expectations {
                expect_repair: true,
                ..exp_for(1)
            };
            let rep = check(&tb, &exp);
            assert!(rep.ok(), "boundary {boundary}: {:?}", rep.violations);
            let cell = &rep.slo.cells[0];
            assert_eq!(cell.delivered_ttis, 40, "the drained slot is cell 0's");
            assert_eq!(cell.dropped_ttis, 0);
        }
    }

    #[test]
    fn sampler_is_deterministic_and_seed_sensitive() {
        let dist = ChaosDistribution::default();
        let a = dist.sample(42);
        let b = dist.sample(42);
        assert_eq!(a, b);
        let c = dist.sample(43);
        assert_ne!(a, c);
        assert!(!a.faults.is_empty() && a.faults.len() <= dist.max_faults);
        assert!(a.horizon_slots > a.sorted_faults().last().unwrap().at_slot);
    }

    #[test]
    fn sampler_draws_at_most_one_lethal_fault() {
        let dist = ChaosDistribution::default();
        for seed in 0..200 {
            let s = dist.sample(seed);
            let lethal = s.faults.iter().filter(|f| f.kind.lethal_to_phy()).count();
            assert!(lethal <= 1, "seed {seed} drew {lethal} lethal faults");
            for w in s.sorted_faults().windows(2) {
                assert!(
                    w[1].at_slot - w[0].at_slot >= dist.min_gap_slots,
                    "seed {seed}: faults too close"
                );
            }
        }
    }

    #[test]
    fn expectations_scale_with_injected_damage() {
        let quiet = Scenario::new("quiet", 1000);
        assert_eq!(Expectations::for_scenario(&quiet, true).max_dropped_ttis, 3);

        let crash =
            Scenario::new("crash", 2000).fault(900, FaultTarget::ActivePhy, FaultKind::PhyCrash);
        let exp = Expectations::for_scenario(&crash, true);
        assert_eq!(exp.max_dropped_ttis, 3);
        assert!(exp.expect_repair);
        let exp = Expectations::for_scenario(&crash, false);
        assert!(!exp.expect_repair);

        let storm = Scenario::new("storm", 2000).fault(
            900,
            FaultTarget::OrionL2,
            FaultKind::MigrationStorm { requests: 4 },
        );
        let exp = Expectations::for_scenario(&storm, false);
        assert!(exp.expect_repair, "planned migrations re-pair by swapping");

        let hang = Scenario::new("hang", 2000).fault(
            900,
            FaultTarget::ActivePhy,
            FaultKind::PhyHang { slots: 40 },
        );
        assert!(Expectations::for_scenario(&hang, true).max_dropped_ttis >= 3 + 8);
    }

    #[test]
    fn pool_ledger_balanced_passes() {
        let mut tb = healthy_trace(1, 300);
        record(&mut tb, 100, TraceEventKind::SpareRequested, 0, 1);
        record(&mut tb, 105, TraceEventKind::SpareGranted, 0, (5 << 16) | 1);
        record(&mut tb, 110, TraceEventKind::StandbyRepaired, 0, 5);
        record(&mut tb, 150, TraceEventKind::SpareReturned, 1, 2);
        let exp = Expectations {
            expect_pool: Some(2),
            ..exp_for(1)
        };
        let rep = check(&tb, &exp);
        assert!(rep.ok(), "unexpected violations: {:?}", rep.violations);
    }

    #[test]
    fn pool_ledger_count_mismatch_flagged() {
        let mut tb = healthy_trace(1, 300);
        // Grant claims the pool still holds 2 spares; with an initial
        // size of 2 the ledger says 1 remain after the grant.
        record(&mut tb, 100, TraceEventKind::SpareGranted, 0, (5 << 16) | 2);
        record(&mut tb, 110, TraceEventKind::StandbyRepaired, 0, 5);
        let exp = Expectations {
            expect_pool: Some(2),
            ..exp_for(1)
        };
        let rep = check(&tb, &exp);
        assert!(rep
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::PoolAccounting
                && v.detail.contains("recorded pool size")));
    }

    #[test]
    fn over_returned_pool_flagged() {
        let mut tb = healthy_trace(1, 300);
        record(&mut tb, 100, TraceEventKind::SpareReturned, 5, 3);
        let exp = Expectations {
            expect_pool: Some(2),
            ..exp_for(1)
        };
        let rep = check(&tb, &exp);
        assert!(
            rep.violations
                .iter()
                .any(|v| v.invariant == Invariant::PoolAccounting
                    && v.detail.contains("already-full"))
        );
    }

    #[test]
    fn incomplete_recovery_chain_flagged() {
        // A request that is never granted (pool ran dry and stayed dry).
        let mut tb = healthy_trace(1, 300);
        record(&mut tb, 100, TraceEventKind::SpareRequested, 2, 7);
        let exp = Expectations {
            expect_pool: Some(1),
            ..exp_for(1)
        };
        let rep = check(&tb, &exp);
        assert!(rep.violations.iter().any(
            |v| v.invariant == Invariant::PoolAccounting && v.detail.contains("granted only 0")
        ));

        // A grant whose re-pairing never completed (Orion never
        // promoted the spare to secondary).
        let mut tb = healthy_trace(1, 300);
        record(&mut tb, 100, TraceEventKind::SpareRequested, 2, 7);
        record(&mut tb, 105, TraceEventKind::SpareGranted, 2, 9 << 16);
        let rep = check(&tb, &exp);
        assert!(rep
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::PoolAccounting && v.detail.contains("re-pairing")));
    }

    #[test]
    fn fault_display_roundtrips_key_facts() {
        let f = Fault {
            at_slot: 950,
            target: FaultTarget::ActivePhy,
            kind: FaultKind::PhyHang { slots: 25 },
        };
        let s = f.to_string();
        assert!(s.contains("950") && s.contains("active-phy") && s.contains("25"));

        let h = Fault {
            at_slot: 800,
            target: FaultTarget::HandoverController,
            kind: FaultKind::HandoverStorm { requests: 6 },
        };
        let s = h.to_string();
        assert!(s.contains("handover-ctl") && s.contains("handover-storm(6)"));
    }

    /// UE 100 (URLLC, slice 1) served by cell 0 every 5th slot until a
    /// handover to cell 1 at slot 100, then by cell 1.
    pub(super) fn handover_trace(interruption: u64) -> TraceBuffer {
        let mut tb = TraceBuffer::new(1 << 16);
        for abs in (0..300u64).filter(|s| s % 5 == 4) {
            let (ru, skip) = if abs < 100 {
                (0u64, false)
            } else {
                (1u64, abs < 100 + interruption)
            };
            if !skip {
                let a = 100 | (ru << 16) | (1 << 24);
                record(&mut tb, abs, TraceEventKind::UeScheduled, a, abs);
            }
        }
        record(&mut tb, 100, TraceEventKind::HandoverFlip, 100, 1);
        tb
    }

    pub(super) fn handover_exp() -> Expectations {
        Expectations {
            initial_serving: vec![(100, 0)],
            max_handover_interruption_slots: 20,
            ..Expectations::default()
        }
    }

    #[test]
    fn clean_handover_passes_mobility_oracle() {
        let tb = handover_trace(0);
        let rep = check(&tb, &handover_exp());
        assert!(rep.ok(), "unexpected violations: {:?}", rep.violations);
    }

    #[test]
    fn dual_serve_flagged() {
        let mut tb = handover_trace(0);
        // Cell 0 keeps scheduling UE 100 long after the cutover.
        let a = 100 | (1 << 24);
        record(&mut tb, 149, TraceEventKind::UeScheduled, a, 149);
        let rep = check(&tb, &handover_exp());
        assert!(rep
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::SingleServingCell));
    }

    #[test]
    fn same_slot_dual_schedule_flagged() {
        let mut tb = handover_trace(0);
        // Both cells schedule UE 100 in slot 99 (inside cutover grace,
        // so the timeline check alone would pass either one).
        let a = 100 | (1 << 16) | (1 << 24);
        record(&mut tb, 99, TraceEventKind::UeScheduled, a, 99);
        let b = 100 | (1 << 24);
        record(&mut tb, 99, TraceEventKind::UeScheduled, b, 99);
        let rep = check(&tb, &handover_exp());
        assert!(
            rep.violations
                .iter()
                .any(|v| v.invariant == Invariant::SingleServingCell
                    && v.detail.contains("same slot"))
        );
    }

    #[test]
    fn excess_handover_interruption_flagged() {
        let tb = handover_trace(40);
        let rep = check(&tb, &handover_exp());
        assert!(rep
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::HandoverInterruption));
    }

    #[test]
    fn stranded_ue_after_handover_flagged() {
        let mut tb = TraceBuffer::new(1 << 16);
        for abs in (0..100u64).filter(|s| s % 5 == 4) {
            let a = 100 | (1 << 24);
            record(&mut tb, abs, TraceEventKind::UeScheduled, a, abs);
        }
        record(&mut tb, 100, TraceEventKind::HandoverFlip, 100, 1);
        // Nothing after the flip: the UE vanished.
        let rep = check(&tb, &handover_exp());
        assert!(rep
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::HandoverInterruption && v.detail.contains("never")));
    }

    #[test]
    fn urllc_deadline_miss_flagged() {
        let tb = handover_trace(0);
        // Tight deadline: the 5-slot cadence passes at 10, fails at 4.
        let exp = Expectations {
            urllc_deadline_slots: Some(10),
            ..handover_exp()
        };
        assert!(check(&tb, &exp).ok());
        let exp = Expectations {
            urllc_deadline_slots: Some(4),
            ..handover_exp()
        };
        let rep = check(&tb, &exp);
        assert!(rep
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::UrllcDeadline));
    }

    #[test]
    fn slice_gap_budget_flagged() {
        let tb = handover_trace(30);
        let exp = Expectations {
            max_handover_interruption_slots: 100,
            slice_gap_budgets: vec![(1, 20)],
            ..handover_exp()
        };
        let rep = check(&tb, &exp);
        assert!(rep
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::SliceGap));
        // URLLC deadline takes precedence for slice 1 when both are set.
        let exp = Expectations {
            urllc_deadline_slots: Some(20),
            ..exp
        };
        let rep = check(&tb, &exp);
        assert!(rep
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::UrllcDeadline));
    }
}
