//! Trace-driven invariant checking: replay the event trace after a run
//! and judge it against the paper's bounds and our own. The invariants
//! are one table, [`Invariant::ALL`] — a name, the paper section it
//! encodes and one check each — and DESIGN.md §5c prints that table.
//! [`check`] derives the trace once (per-cell deliveries, their SLO
//! report, per-UE schedules) and runs every row over that derivation.

use std::collections::BTreeMap;

use super::{FaultKind, FaultTarget, Scenario};
use crate::ownership::{scheduled_per_ue, Deliveries, Ownership};
use crate::slo::{self, SloReport};
use crate::time::{Nanos, SLOT_DURATION, TDD_CYCLE_SLOTS};
use crate::trace::{detections, TraceBuffer, TraceEventKind};

/// The URLLC slice's discriminant in `UeScheduled` records.
const URLLC_SLICE: u64 = 1;

/// What a scenario is allowed to cost. Built per scenario by
/// [`Expectations::for_scenario`] so the allowance follows the
/// injected damage instead of being one global constant.
#[derive(Debug, Clone)]
pub struct Expectations {
    /// Paper §5.2: in-switch detection fires within the 450 us
    /// timeout period of the last heartbeat.
    pub max_detection_latency: Nanos,
    /// Paper §6.1: a PHY crash costs at most 3 dropped TTIs; link
    /// and control-plane faults widen this budget proportionally.
    pub max_dropped_ttis: u64,
    /// Whether the run must flip and end re-paired (a lethal fault with
    /// a spare to re-pair from, or a planned migration); with a spare
    /// pool every flipped cell owes a re-pairing anyway.
    pub expect_repair: bool,
    /// `(ru, primary phy)` at slot 0 for every cell of the deployment:
    /// the cells the per-cell invariants judge, each on its own
    /// active-PHY timeline (`MapFlip`s layered over this map).
    pub initial_active: Vec<(u64, u64)>,
    /// Shared spare-pool size at slot 0; set, it arms the pool ledger.
    pub expect_pool: Option<u64>,
    /// `(rnti, serving ru)` at slot 0 for every tracked UE (handover
    /// deployments); non-empty, it arms the four mobility invariants.
    pub initial_serving: Vec<(u64, u64)>,
    /// Longest tolerated gap (in slots) between the last scheduled
    /// slot before a handover cutover and the first after it.
    pub max_handover_interruption_slots: u64,
    /// URLLC scheduling-cadence SLO: the longest tolerated gap (in
    /// slots) between consecutive scheduled slots of any URLLC UE.
    /// `None` = no deadline oracle.
    pub urllc_deadline_slots: Option<u64>,
    /// Per-slice dropped-TTI budgets: `(slice discriminant, max
    /// scheduling gap in slots)`. Coarser than the URLLC deadline —
    /// a slice-wide blackout bound that survives chaos windows.
    pub slice_gap_budgets: Vec<(u64, u64)>,
}

impl Default for Expectations {
    fn default() -> Expectations {
        Expectations {
            max_detection_latency: Nanos::from_micros(450),
            max_dropped_ttis: 3,
            expect_repair: false,
            initial_active: Vec::new(),
            expect_pool: None,
            initial_serving: Vec::new(),
            max_handover_interruption_slots: 50,
            urllc_deadline_slots: None,
            slice_gap_budgets: Vec::new(),
        }
    }
}

impl Expectations {
    /// Derive the damage budget for a scenario. `has_spare` is
    /// whether the deployment keeps a spare PHY to re-pair with
    /// after a failover consumes the standby.
    pub fn for_scenario(scenario: &Scenario, has_spare: bool) -> Expectations {
        let mut allowed: u64 = 0;
        let mut lethal = false;
        let mut flips = false;
        for f in &scenario.faults {
            let on_active = matches!(
                f.target,
                FaultTarget::ActivePhy | FaultTarget::ActivePhyOf(_)
            );
            match f.kind {
                FaultKind::PhyCrash if on_active => {
                    allowed += 3;
                    lethal = true;
                }
                // Detection + failover costs <= 3; a hang too short to
                // trip the detector instead skips up to one TTI per TDD
                // cycle outright.
                FaultKind::PhyHang { slots } if on_active => {
                    allowed += 3 + slots.div_ceil(TDD_CYCLE_SLOTS) + 1;
                    lethal = true;
                }
                // A dead or hung standby drops no traffic; it only burns
                // the redundancy margin.
                FaultKind::PhyCrash | FaultKind::PhyHang { .. } => allowed += 1,
                FaultKind::LinkPartition { slots } | FaultKind::BurstLoss { slots, .. } => {
                    allowed += slots.div_ceil(TDD_CYCLE_SLOTS) + 2;
                }
                FaultKind::IqCorrupt { .. } => allowed += 2,
                FaultKind::DupPackets { .. } | FaultKind::ReorderPackets { .. } => allowed += 1,
                FaultKind::OrionRestart { down_slots } => {
                    allowed += down_slots.div_ceil(TDD_CYCLE_SLOTS) + 3;
                }
                FaultKind::MigrationStorm { .. } => {
                    allowed += 1;
                    flips = true;
                }
                FaultKind::PlannedMigration => flips = true,
                // A handover storm costs control-plane churn, not
                // PHY redundancy; each cutover may skip a TTI.
                FaultKind::HandoverStorm { requests } => allowed += requests as u64,
            }
        }
        Expectations {
            max_dropped_ttis: allowed.max(3),
            expect_repair: (lethal && has_spare) || (flips && !lethal),
            ..Expectations::default()
        }
    }
}

/// The oracle's invariants, one check each. Every check owns its arming
/// condition: the pool ledger judges only when
/// `Expectations::expect_pool` is set, the four mobility invariants only
/// when `initial_serving` is not empty; the first five judge every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// Detection within the timeout of the failed PHY's last heartbeat.
    DetectionLatency,
    /// Each delivered UL slot has one producer: its cell's active PHY.
    OneActivePhy,
    /// Each cell's missing UL TTIs within the scenario's damage budget.
    DroppedTtis,
    /// At most one FAPI uplink response per slot reaches L2.
    NoDupFapi,
    /// A flipped cell that can re-pair serves and keeps a warm standby.
    EventualRepair,
    /// The spare-pool ledger balances; every request is re-paired.
    PoolAccounting,
    /// No UE scheduled by a cell other than its serving cell.
    SingleServingCell,
    /// Bounded scheduling gap around every cutover; nobody stranded.
    HandoverInterruption,
    /// Every scheduling gap of a URLLC UE within its deadline.
    UrllcDeadline,
    /// Every scheduling gap of a budgeted slice's UEs within budget.
    SliceGap,
}

/// One invariant's judgement of the derived trace: a detail line per
/// violation.
type Check = fn(&Evidence) -> Vec<String>;

impl Invariant {
    /// Every invariant, in the order [`check`] reports violations.
    pub const ALL: [Invariant; 10] = [
        Invariant::DetectionLatency,
        Invariant::OneActivePhy,
        Invariant::DroppedTtis,
        Invariant::NoDupFapi,
        Invariant::EventualRepair,
        Invariant::PoolAccounting,
        Invariant::SingleServingCell,
        Invariant::HandoverInterruption,
        Invariant::UrllcDeadline,
        Invariant::SliceGap,
    ];

    /// The name a [`Violation`] is printed under.
    pub fn name(self) -> &'static str {
        match self {
            Invariant::DetectionLatency => "detection-latency",
            Invariant::OneActivePhy => "one-active-phy",
            Invariant::DroppedTtis => "dropped-ttis",
            Invariant::NoDupFapi => "no-dup-fapi",
            Invariant::EventualRepair => "eventual-repair",
            Invariant::PoolAccounting => "pool-accounting",
            Invariant::SingleServingCell => "single-serving-cell",
            Invariant::HandoverInterruption => "handover-interruption",
            Invariant::UrllcDeadline => "urllc-deadline",
            Invariant::SliceGap => "slice-gap",
        }
    }

    /// The paper section the invariant encodes, or "ours" for a bound
    /// this reproduction adds.
    pub fn section(self) -> &'static str {
        self.row().0
    }

    /// The invariant's section and its check.
    fn row(self) -> (&'static str, Check) {
        match self {
            Invariant::DetectionLatency => ("§5.2", detection_latency),
            Invariant::OneActivePhy => ("§4.3", one_active_phy),
            Invariant::DroppedTtis => ("§6.1", dropped_ttis),
            Invariant::NoDupFapi => ("§6", no_dup_fapi),
            Invariant::EventualRepair => ("§4.4", eventual_repair),
            Invariant::PoolAccounting => ("ours", pool_accounting),
            Invariant::SingleServingCell => ("ours", single_serving_cell),
            Invariant::HandoverInterruption => ("ours", handover_interruption),
            Invariant::UrllcDeadline => ("ours", urllc_deadline),
            Invariant::SliceGap => ("ours", slice_gap),
        }
    }
}

/// A single invariant violation, with enough detail to debug from a
/// CI log alone.
#[derive(Debug, Clone)]
pub struct Violation {
    pub invariant: Invariant,
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant.name(), self.detail)
    }
}

/// The oracle's verdict, plus the SLO report of the same per-cell
/// series it judged: detections, delivered and dropped TTIs per cell
/// and fleet-wide, judged between each cell's first and last delivery.
#[derive(Debug, Clone)]
pub struct OracleReport {
    pub violations: Vec<Violation>,
    pub slo: SloReport,
}

impl OracleReport {
    /// No invariant was violated over a whole trace. A ring that evicted
    /// events (`slo.truncated`) leaves a window the invariants cannot
    /// vouch for, so it is never ok.
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && !self.slo.truncated
    }
}

/// The trace, derived once: everything an invariant reads.
struct Evidence<'a> {
    trace: &'a TraceBuffer,
    exp: &'a Expectations,
    /// Every `UlSlotProcessed`, attributed to its cell.
    delivered: Deliveries,
    /// The SLO report over `delivered`, with no trailing blackout.
    slo: SloReport,
    /// Per UE: `(slot, scheduling ru, slice)`, ascending.
    sched: BTreeMap<u64, Vec<(u64, u64, u64)>>,
}

/// Replay `trace` and check every invariant against `exp`.
pub fn check(trace: &TraceBuffer, exp: &Expectations) -> OracleReport {
    let delivered = Deliveries::from_trace(&exp.initial_active, trace);
    let ev = Evidence {
        trace,
        exp,
        slo: slo::from_deliveries(trace, &delivered, 0),
        delivered,
        sched: scheduled_per_ue(trace),
    };
    let mut violations = Vec::new();
    for invariant in Invariant::ALL {
        for detail in (invariant.row().1)(&ev) {
            violations.push(Violation { invariant, detail });
        }
    }
    OracleReport {
        violations,
        slo: ev.slo,
    }
}

fn detection_latency(ev: &Evidence) -> Vec<String> {
    let (bound, mut out) = (ev.exp.max_detection_latency, Vec::new());
    for d in detections(ev.trace.iter()) {
        let (phy, latency) = (d.phy, d.latency());
        if latency > bound {
            let (us, max) = (latency.0 / 1_000, bound.0 / 1_000);
            out.push(format!(
                "phy {phy} detected {us} us after last heartbeat (bound {max} us)"
            ));
        }
    }
    out
}

fn one_active_phy(ev: &Evidence) -> Vec<String> {
    let ghosts = ev.delivered.unowned.iter().map(|(slot, phy)| {
        format!("slot {slot} processed by PHY {phy} which no cell's active mapping owns")
    });
    let contested = ev.delivered.contested.iter().map(|(ru, slot, phys)| {
        let n = phys.len();
        format!("cell {ru} slot {slot} processed by {n} PHYs: {phys:?}")
    });
    ghosts.chain(contested).collect()
}

fn dropped_ttis(ev: &Evidence) -> Vec<String> {
    let (budget, mut out) = (ev.exp.max_dropped_ttis, Vec::new());
    for cell in &ev.slo.cells {
        let dropped: u64 = cell.outages.iter().map(|o| o.missing_ttis).sum();
        if dropped > budget {
            let (ru, n) = (cell.ru, cell.delivered_ttis);
            out.push(format!(
                "cell {ru}: {dropped} TTIs dropped (budget {budget}), {n} delivered"
            ));
        }
    }
    out
}

/// Each cell's L2-side Orion is a distinct node, so duplicates are
/// keyed by (forwarding node, slot).
fn no_dup_fapi(ev: &Evidence) -> Vec<String> {
    let mut per_slot: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for e in ev.trace.of_kind(TraceEventKind::FapiToL2) {
        *per_slot.entry((e.node.0 as u64, e.b)).or_insert(0) += 1;
    }
    let dups = per_slot.into_iter().filter(|&(_, count)| count > 1);
    dups.map(|((node, slot), count)| {
        format!("node {node} slot {slot}: {count} FAPI uplink responses reached L2")
    })
    .collect()
}

/// A cell can re-pair when the deployment has a spare pool or the flip
/// was planned (`expect_repair`: roles merely swap). It must then, once
/// its own last flip settles (10 slots for the control plane to
/// finalize), both serve traffic on the new active PHY and keep a
/// standby warm (null FAPI, a = ru).
fn eventual_repair(ev: &Evidence) -> Vec<String> {
    let exp = ev.exp;
    let can_repair = exp.expect_pool.is_some() || exp.expect_repair;
    let mut out = Vec::new();
    let mut flipped = false;
    for (ru, tl) in ev.delivered.active.iter() {
        // A timeline's first entry is its slot-0 owner, not a flip.
        let &[_, .., (last_flip, _)] = tl else {
            continue;
        };
        flipped = true;
        if !can_repair {
            continue;
        }
        let settle = last_flip + 10;
        if ev.delivered.slots[&ru].last().is_none_or(|&s| s <= settle) {
            out.push(format!(
                "cell {ru}: no uplink TTIs delivered after its last map flip (slot {last_flip})"
            ));
        }
        let mut keep_alives = ev.trace.of_kind(TraceEventKind::NullFapiSent);
        if !keep_alives.any(|e| e.a == ru && e.b > settle) {
            out.push(format!(
                "cell {ru}: no null-FAPI keep-alives after its last map flip (slot {last_flip}) \
                 — the cell did not re-pair"
            ));
        }
    }
    if exp.expect_repair && !flipped {
        out.push("no MapFlip recorded although the scenario requires a failover".to_string());
    }
    out
}

/// Replay `SpareGranted`/`SpareReturned` chronologically against the
/// initial pool size, then require the request -> grant ->
/// `StandbyRepaired` chain to complete for every requesting cell.
fn pool_accounting(ev: &Evidence) -> Vec<String> {
    let Some(pool0) = ev.exp.expect_pool else {
        return Vec::new();
    };
    let full = pool0 as i64;
    let (mut running, mut out) = (full, Vec::new());
    let kinds = [TraceEventKind::SpareGranted, TraceEventKind::SpareReturned];
    let mut ledger: Vec<_> = ev
        .trace
        .iter()
        .filter(|e| kinds.contains(&e.kind))
        .collect();
    ledger.sort_by_key(|e| e.at);
    for e in ledger {
        let (who, recorded) = (e.a, e.b as i64);
        if e.kind == TraceEventKind::SpareGranted {
            running -= 1;
            if running < 0 {
                let us = e.at.0 / 1_000;
                out.push(format!(
                    "cell {who} granted a spare from an empty pool at {us} us"
                ));
                running = 0;
            }
            let recorded = recorded & 0xFFFF;
            if recorded != running {
                out.push(format!(
                    "grant to cell {who} recorded pool size {recorded}, ledger says {running}"
                ));
            }
        } else {
            running += 1;
            if running > full {
                out.push(format!(
                    "PHY {who} returned to an already-full pool (size would be {running} > {pool0})"
                ));
                running = full;
            }
            if recorded != running {
                out.push(format!(
                    "return of PHY {who} recorded pool size {recorded}, ledger says {running}"
                ));
            }
        }
    }

    let per_cell = |kind| {
        let mut n: BTreeMap<u64, u64> = BTreeMap::new();
        for e in ev.trace.of_kind(kind) {
            *n.entry(e.a).or_insert(0) += 1;
        }
        n
    };
    let granted = per_cell(TraceEventKind::SpareGranted);
    for (ru, want) in per_cell(TraceEventKind::SpareRequested) {
        let got = granted.get(&ru).copied().unwrap_or(0);
        if got < want {
            out.push(format!(
                "cell {ru} requested {want} spare(s) but was granted only {got}"
            ));
        }
    }
    let repaired = per_cell(TraceEventKind::StandbyRepaired);
    for (&ru, &want) in &granted {
        let got = repaired.get(&ru).copied().unwrap_or(0);
        if got < want {
            out.push(format!(
                "cell {ru} was granted {want} spare(s) but completed only {got} re-pairing(s)"
            ));
        }
    }
    out
}

/// Each tracked UE's serving-cell timeline is `exp.initial_serving`
/// with every `HandoverFlip` (a = rnti, b = source<<16 | target)
/// layered on. A schedule from a cell the timeline does not own at that
/// slot (±1 slot of cutover grace, as the flip trace lands mid-slot) is
/// a dual-serve leak; so is the same UE scheduled by two cells in one
/// slot.
fn single_serving_cell(ev: &Evidence) -> Vec<String> {
    if ev.exp.initial_serving.is_empty() {
        return Vec::new();
    }
    let flip = TraceEventKind::HandoverFlip;
    let serving = Ownership::from_trace(&ev.exp.initial_serving, ev.trace, flip);
    let mut out = Vec::new();
    for (rnti, _) in serving.iter() {
        // Only UEs the caller chose to track are judged.
        let Some(evs) = ev.sched.get(&rnti) else {
            continue;
        };
        for &(slot, ru, _) in evs {
            if !serving.holds_near(rnti, ru, slot) {
                let owner = serving.owner_at(rnti, slot);
                out.push(format!(
                    "UE {rnti} scheduled by cell {ru} at slot {slot}, but its serving cell \
                     there is {owner}"
                ));
            }
        }
        for w in evs.windows(2) {
            let ((slot, a, _), (next, b, _)) = (w[0], w[1]);
            if slot == next && a != b {
                out.push(format!(
                    "UE {rnti} scheduled by cells {a} and {b} in the same slot {slot}"
                ));
            }
        }
    }
    out
}

fn handover_interruption(ev: &Evidence) -> Vec<String> {
    if ev.exp.initial_serving.is_empty() {
        return Vec::new();
    }
    let (budget, mut out) = (ev.exp.max_handover_interruption_slots, Vec::new());
    for e in ev.trace.of_kind(TraceEventKind::HandoverFlip) {
        let (rnti, slot) = (e.a, e.at.0 / SLOT_DURATION.0);
        let Some(evs) = ev.sched.get(&rnti) else {
            continue;
        };
        let before = evs.iter().rev().find(|x| x.0 < slot).map(|x| x.0);
        let after = evs.iter().find(|x| x.0 >= slot).map(|x| x.0);
        match (before, after) {
            (Some(b), Some(a)) if a - b > budget => out.push(format!(
                "UE {rnti}: {} slots without scheduling around the cutover at slot {slot} \
                 (budget {budget})",
                a - b
            )),
            (Some(_), None) => out.push(format!(
                "UE {rnti} was never scheduled again after its cutover at slot {slot}"
            )),
            _ => {}
        }
    }
    out
}

fn urllc_deadline(ev: &Evidence) -> Vec<String> {
    let deadline = ev.exp.urllc_deadline_slots;
    cadence(ev, |slice| deadline.filter(|_| slice == URLLC_SLICE))
}

/// A URLLC deadline, when set, judges the URLLC slice instead.
fn slice_gap(ev: &Evidence) -> Vec<String> {
    let exp = ev.exp;
    cadence(ev, |slice| {
        if slice == URLLC_SLICE && exp.urllc_deadline_slots.is_some() {
            return None;
        }
        let budget = exp.slice_gap_budgets.iter().find(|&&(s, _)| s == slice);
        budget.map(|&(_, gap)| gap)
    })
}

/// Hold every UE whose slice `budget_of` gives a budget to it: the
/// worst scheduling gap over budget is one violation per UE.
fn cadence(ev: &Evidence, budget_of: impl Fn(u64) -> Option<u64>) -> Vec<String> {
    if ev.exp.initial_serving.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (rnti, evs) in &ev.sched {
        let slice = evs[0].2;
        let Some(budget) = budget_of(slice) else {
            continue;
        };
        let mut worst: Option<(u64, u64)> = None;
        for w in evs.windows(2) {
            let gap = w[1].0 - w[0].0;
            if gap > budget && worst.is_none_or(|(g, _)| gap > g) {
                worst = Some((gap, w[0].0));
            }
        }
        if let Some((gap, at)) = worst {
            out.push(format!(
                "UE {rnti} (slice {slice}): {gap}-slot scheduling gap after slot {at} \
                 (budget {budget})"
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::tests::{
        deliver, exp_for, failover_trace, handover_exp, handover_trace, healthy_trace, primary,
        record, record_node, slot_time, ul_slots,
    };
    use crate::engine::NodeId;

    /// For every invariant, a synthetic trace and expectations that fire
    /// that invariant and no other. An invariant with no row fails here,
    /// so the table cannot grow a clause nothing shows can fire.
    #[test]
    fn every_invariant_has_an_exclusive_witness() {
        let late_detection = {
            let mut tb = healthy_trace(1, 100);
            // Saturation 600 us after the last heartbeat (bound 450 us).
            let last_hb = slot_time(50);
            let at = last_hb + Nanos::from_micros(600);
            let kind = TraceEventKind::DetectorSaturated;
            tb.record(at, NodeId(3), kind, 1, last_hb.0);
            (tb, exp_for(1))
        };
        let ghost_phy = {
            let mut tb = healthy_trace(1, 100);
            record_node(&mut tb, 44, 90, TraceEventKind::UlSlotProcessed, 44, 99);
            (tb, exp_for(1))
        };
        let blackout = {
            // 30 slots dark: 6 TTIs against a budget of 3.
            let mut tb = TraceBuffer::new(1 << 16);
            for abs in ul_slots(200).filter(|s| !(60..90).contains(s)) {
                deliver(&mut tb, 0, abs, primary(0));
            }
            (tb, exp_for(1))
        };
        let dup_fapi = {
            let mut tb = healthy_trace(1, 100);
            record_node(&mut tb, 49, 11, TraceEventKind::FapiToL2, 2, 49);
            (tb, exp_for(1))
        };
        let unrepaired = Expectations {
            expect_repair: true,
            ..exp_for(1)
        };
        let over_return = {
            let mut tb = healthy_trace(1, 300);
            record(&mut tb, 100, TraceEventKind::SpareReturned, 5, 3);
            let exp = Expectations {
                expect_pool: Some(2),
                ..exp_for(1)
            };
            (tb, exp)
        };
        let dual_serve = {
            // Cell 0 keeps scheduling URLLC UE 100 long after the cutover.
            let mut tb = handover_trace(0);
            let ue = 100 | (1 << 24);
            record(&mut tb, 149, TraceEventKind::UeScheduled, ue, 149);
            (tb, handover_exp())
        };
        let deadline_miss = Expectations {
            urllc_deadline_slots: Some(4),
            ..handover_exp()
        };
        let slice_budget = Expectations {
            max_handover_interruption_slots: 100,
            slice_gap_budgets: vec![(1, 20)],
            ..handover_exp()
        };
        let rows = [
            (Invariant::DetectionLatency, late_detection),
            (Invariant::OneActivePhy, ghost_phy),
            (Invariant::DroppedTtis, blackout),
            (Invariant::NoDupFapi, dup_fapi),
            (Invariant::EventualRepair, (failover_trace(1), unrepaired)),
            (Invariant::PoolAccounting, over_return),
            (Invariant::SingleServingCell, dual_serve),
            (
                Invariant::HandoverInterruption,
                (handover_trace(40), handover_exp()),
            ),
            (Invariant::UrllcDeadline, (handover_trace(0), deadline_miss)),
            (Invariant::SliceGap, (handover_trace(30), slice_budget)),
        ];
        let witnessed: Vec<Invariant> = rows.iter().map(|r| r.0).collect();
        assert_eq!(witnessed, Invariant::ALL, "one witness per invariant");
        for (invariant, (tb, exp)) in &rows {
            let rep = check(tb, exp);
            let name = invariant.name();
            assert!(!rep.ok(), "{name}: its witness fires nothing");
            let others = rep.violations.iter().filter(|v| v.invariant != *invariant);
            let others: Vec<_> = others.collect();
            assert!(
                others.is_empty(),
                "{name}: its witness also fires {others:?}"
            );
        }
    }

    /// DESIGN.md §5c and README's chaos section print the invariant
    /// table: their rows are `ALL`'s names and sections, in order.
    #[test]
    fn the_docs_tables_are_the_invariant_list() {
        let docs = [
            (
                "DESIGN.md",
                include_str!("../../../../DESIGN.md"),
                "\n## 5c.",
            ),
            (
                "README.md",
                include_str!("../../../../README.md"),
                "\n## Chaos testing",
            ),
        ];
        let want: Vec<_> = Invariant::ALL
            .iter()
            .map(|i| (i.name(), i.section()))
            .collect();
        for (file, text, heading) in docs {
            let section = text.split(heading).nth(1).unwrap_or_default();
            let section = section.split("\n## ").next().unwrap_or_default();
            let rows: Vec<(&str, &str)> = section
                .lines()
                .filter_map(|l| l.strip_prefix("| `"))
                .map(|row| {
                    let mut cols = row.split('|').map(str::trim);
                    let name = cols.next().unwrap_or_default().trim_end_matches('`');
                    (name, cols.next().unwrap_or_default())
                })
                .collect();
            assert_eq!(rows, want, "{file}");
        }
    }
}
