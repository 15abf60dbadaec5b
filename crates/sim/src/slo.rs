//! Long-horizon availability / SLO analysis over the event trace.
//!
//! The chaos oracle ([`crate::chaos::oracle`]) answers a pass/fail
//! question about one scenario. This module answers the quantitative
//! question operators (and the Markov models in "Designing Reliable
//! Virtualized RANs") actually ask: *how available* was each cell over
//! a long horizon, and how is repair time distributed?
//!
//! Everything is derived purely from the deterministic trace stream:
//!
//! - per-cell delivered-TTI series from the series builder the oracle
//!   also judges on (`MapFlip` ownership layered over the initial
//!   RU→PHY map attributes every `UlSlotProcessed` TTI to a cell);
//! - gaps in a cell's delivered-TTI cadence become *outage intervals*,
//!   which yield nines-of-availability, MTBF, MTTR, and time-to-repair
//!   distributions per cell and fleet-wide;
//! - `DetectorSaturated` events yield detection-latency stats, and the
//!   `SpareRequested`/`SpareGranted`/`SpareReturned`/`StandbyRepaired`
//!   lifecycle events yield the spare-pool ledger.
//!
//! Because the trace buffer is a bounded ring, a long run may have
//! evicted its oldest events; [`SloReport::truncated`] surfaces the
//! trace's eviction count (`TraceBuffer::dropped_oldest`) so downstream
//! reports never present numbers from a silently clipped window as
//! full-horizon availability.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::LogHistogram;
use crate::ownership::{scheduled_per_ue, Deliveries};
use crate::stats::Sampler;
use crate::time::{Nanos, SLOT_DURATION, TDD_CYCLE_SLOTS};
use crate::trace::{detections, TraceBuffer, TraceEventKind};

/// Analyzer configuration.
#[derive(Debug, Clone, Default)]
pub struct SloConfig {
    /// Absolute slot the run was driven to. When non-zero, a cell that
    /// stopped delivering before the horizon is charged a trailing
    /// outage (a permanently dead cell must not look 100% available
    /// just because its delivered-TTI window ended early). 0 = judge
    /// only between each cell's first and last delivery.
    pub horizon_slots: u64,
    /// Initial RU → active-PHY map, one entry per cell, as in
    /// `oracle::Expectations::initial_active`: the cells the report
    /// covers.
    pub initial_active: Vec<(u64, u64)>,
}

/// One contiguous service interruption of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    pub ru: u64,
    /// Last delivered absolute slot before the gap.
    pub start_slot: u64,
    /// First delivered absolute slot after the gap (or the horizon for
    /// a trailing outage the cell never recovered from).
    pub end_slot: u64,
    /// Scheduled uplink TTIs that were never delivered in the gap.
    pub missing_ttis: u64,
}

impl Outage {
    /// Outage duration in simulated time (missing TTIs × TDD cycle).
    pub fn duration(&self) -> Nanos {
        Nanos(self.missing_ttis * TDD_CYCLE_SLOTS * SLOT_DURATION.0)
    }
}

/// Availability summary of one cell.
#[derive(Debug, Clone)]
pub struct CellSlo {
    pub ru: u64,
    pub expected_ttis: u64,
    pub delivered_ttis: u64,
    pub dropped_ttis: u64,
    /// delivered / expected in [0, 1].
    pub availability: f64,
    /// −log₁₀(1 − availability), capped at 9.0 (no drop ⇒ 9.0).
    pub nines: f64,
    pub outages: Vec<Outage>,
    /// Mean up-time between outage starts (None with no outage).
    pub mtbf: Option<Nanos>,
    /// Mean outage duration (None with no outage).
    pub mttr: Option<Nanos>,
    pub ttr_p50: Option<Nanos>,
    pub ttr_p99: Option<Nanos>,
    pub ttr_max: Option<Nanos>,
    /// p99 of per-outage dropped-TTI counts (0 with no outage).
    pub dropped_tti_p99: u64,
    /// Histogram of per-outage dropped-TTI counts.
    pub dropped_hist: LogHistogram,
}

/// Fleet-wide aggregate plus control-plane lifecycle stats.
#[derive(Debug, Clone)]
pub struct FleetSlo {
    pub cells: u64,
    pub expected_ttis: u64,
    pub delivered_ttis: u64,
    pub dropped_ttis: u64,
    pub availability: f64,
    pub nines: f64,
    pub outages: u64,
    pub mtbf: Option<Nanos>,
    pub mttr: Option<Nanos>,
    pub ttr_p50: Option<Nanos>,
    pub ttr_p99: Option<Nanos>,
    pub ttr_max: Option<Nanos>,
    /// Failure detections and their latency tail (§5.2's ≤ 450 µs).
    pub detections: u64,
    pub detection_p50: Option<Nanos>,
    pub detection_max: Option<Nanos>,
    /// Spare-pool lifecycle counts.
    pub spare_requests: u64,
    pub spare_grants: u64,
    pub spare_returns: u64,
    pub repairs: u64,
    /// Worst single cell, for SLO floors.
    pub worst_cell_nines: f64,
    pub worst_cell_dropped_tti_p99: u64,
}

/// The full availability report.
#[derive(Debug, Clone)]
pub struct SloReport {
    pub cells: Vec<CellSlo>,
    pub fleet: FleetSlo,
    /// True when the trace ring evicted events: the window is partial
    /// and every number here is a lower-confidence estimate.
    pub truncated: bool,
    pub evicted_events: u64,
    pub horizon_slots: u64,
}

/// Availability capped into nines: 0 drops ⇒ 9.0 ("nine nines or
/// better"), total blackout ⇒ 0.0.
pub(crate) fn nines_of(availability: f64) -> f64 {
    if availability >= 1.0 {
        9.0
    } else if availability <= 0.0 {
        0.0
    } else {
        (-(1.0 - availability).log10()).clamp(0.0, 9.0)
    }
}

/// Derive the full availability report from a trace.
pub fn analyze(trace: &TraceBuffer, cfg: &SloConfig) -> SloReport {
    let delivered = Deliveries::from_trace(&cfg.initial_active, trace);
    from_deliveries(trace, &delivered, cfg.horizon_slots)
}

/// [`analyze`] over per-cell deliveries already derived from `trace`.
pub(crate) fn from_deliveries(
    trace: &TraceBuffer,
    delivered: &Deliveries,
    horizon_slots: u64,
) -> SloReport {
    let mut cells = Vec::new();
    let mut all_ttr = Sampler::new();
    let mut fleet_expected = 0u64;
    let mut fleet_delivered = 0u64;
    let mut fleet_outages = 0u64;
    let mut fleet_uptime_ns = 0u128;
    for (&ru, slots) in &delivered.slots {
        let cell = analyze_cell(ru, slots, horizon_slots);
        for o in &cell.outages {
            all_ttr.record_nanos(o.duration());
        }
        fleet_expected += cell.expected_ttis;
        fleet_delivered += cell.delivered_ttis;
        fleet_outages += cell.outages.len() as u64;
        if let (Some(&first), Some(&last)) = (slots.first(), slots.last()) {
            let span_end = horizon_slots.max(last);
            let dropped_ns =
                cell.dropped_ttis as u128 * TDD_CYCLE_SLOTS as u128 * SLOT_DURATION.0 as u128;
            fleet_uptime_ns +=
                ((span_end - first) as u128 * SLOT_DURATION.0 as u128).saturating_sub(dropped_ns);
        }
        cells.push(cell);
    }

    let fleet_dropped = fleet_expected.saturating_sub(fleet_delivered);
    let fleet_avail = if fleet_expected == 0 {
        0.0
    } else {
        fleet_delivered as f64 / fleet_expected as f64
    };
    let dets = detections(trace.iter());
    let mut det_lat = Sampler::new();
    for d in &dets {
        det_lat.record_nanos(d.latency());
    }
    let count_kind = |k: TraceEventKind| trace.of_kind(k).count() as u64;
    let fleet = FleetSlo {
        cells: cells.len() as u64,
        expected_ttis: fleet_expected,
        delivered_ttis: fleet_delivered,
        dropped_ttis: fleet_dropped,
        availability: fleet_avail,
        nines: nines_of(fleet_avail),
        outages: fleet_outages,
        mtbf: (fleet_outages > 0).then(|| Nanos((fleet_uptime_ns / fleet_outages as u128) as u64)),
        mttr: all_ttr
            .mean()
            .filter(|_| !all_ttr.is_empty())
            .map(|m| Nanos(m as u64)),
        ttr_p50: all_ttr.percentile(50.0).map(Nanos),
        ttr_p99: all_ttr.percentile(99.0).map(Nanos),
        ttr_max: all_ttr.max().map(Nanos),
        detections: dets.len() as u64,
        detection_p50: det_lat.percentile(50.0).map(Nanos),
        detection_max: det_lat.max().map(Nanos),
        spare_requests: count_kind(TraceEventKind::SpareRequested),
        spare_grants: count_kind(TraceEventKind::SpareGranted),
        spare_returns: count_kind(TraceEventKind::SpareReturned),
        repairs: count_kind(TraceEventKind::StandbyRepaired),
        worst_cell_nines: cells.iter().map(|c| c.nines).fold(9.0, f64::min),
        worst_cell_dropped_tti_p99: cells.iter().map(|c| c.dropped_tti_p99).max().unwrap_or(0),
    };
    SloReport {
        cells,
        fleet,
        truncated: trace.dropped_oldest() > 0,
        evicted_events: trace.dropped_oldest(),
        horizon_slots,
    }
}

/// Every gap in one cell's ascending delivered-TTI series: the outage
/// list the SLO report times and the oracle's dropped-TTI budget sums.
pub(crate) fn gaps(ru: u64, delivered: &[u64]) -> Vec<Outage> {
    let gap = |w: &[u64]| {
        let missing = ((w[1] - w[0]) / TDD_CYCLE_SLOTS).saturating_sub(1);
        (missing > 0).then_some(Outage {
            ru,
            start_slot: w[0],
            end_slot: w[1],
            missing_ttis: missing,
        })
    };
    delivered.windows(2).filter_map(gap).collect()
}

fn analyze_cell(ru: u64, delivered: &[u64], horizon_slots: u64) -> CellSlo {
    let mut outages = gaps(ru, delivered);
    let mut ttr = Sampler::new();
    let mut dropped_hist = LogHistogram::new();
    let delivered_n = delivered.len() as u64;
    let expected = match (delivered.first(), delivered.last()) {
        (Some(&first), Some(&last)) => {
            let mut span_last = last;
            // Trailing blackout: the cell went quiet before the horizon.
            if horizon_slots > last {
                let missing = (horizon_slots - last) / TDD_CYCLE_SLOTS;
                if missing > 0 {
                    outages.push(Outage {
                        ru,
                        start_slot: last,
                        end_slot: horizon_slots,
                        missing_ttis: missing,
                    });
                    span_last = last + missing * TDD_CYCLE_SLOTS;
                }
            }
            (span_last - first) / TDD_CYCLE_SLOTS + 1
        }
        // No deliveries at all: a horizon says how long the cell should
        // have served and charges it in full; without one (0) there is
        // nothing to judge.
        _ => horizon_slots / TDD_CYCLE_SLOTS,
    };
    for o in &outages {
        ttr.record_nanos(o.duration());
        dropped_hist.record(o.missing_ttis);
    }
    let dropped = expected.saturating_sub(delivered_n);
    let availability = if expected == 0 {
        0.0
    } else {
        delivered_n as f64 / expected as f64
    };
    let observed_ns = expected as u128 * TDD_CYCLE_SLOTS as u128 * SLOT_DURATION.0 as u128;
    let outage_ns: u128 = outages.iter().map(|o| o.duration().0 as u128).sum();
    CellSlo {
        ru,
        expected_ttis: expected,
        delivered_ttis: delivered_n,
        dropped_ttis: dropped,
        availability,
        nines: nines_of(availability),
        mtbf: (!outages.is_empty())
            .then(|| Nanos((observed_ns.saturating_sub(outage_ns) / outages.len() as u128) as u64)),
        mttr: (!outages.is_empty()).then(|| Nanos((outage_ns / outages.len() as u128) as u64)),
        ttr_p50: ttr.percentile(50.0).map(Nanos),
        ttr_p99: ttr.percentile(99.0).map(Nanos),
        ttr_max: ttr.max().map(Nanos),
        dropped_tti_p99: dropped_hist.p99().unwrap_or(0),
        dropped_hist,
        outages,
    }
}

/// Per-slice scheduling SLO summary, derived from the opt-in
/// `UeScheduled` trace stream of slice-aware deployments. Orthogonal to
/// the per-cell availability in [`analyze`]: this answers *which
/// service class* absorbed an outage (a PHY crash that costs eMBB a few
/// TTIs may be an SLO breach for URLLC), growing the oracle's view from
/// per-cell to per-cell-per-slice.
#[derive(Debug, Clone)]
pub struct SliceSlo {
    /// Slice discriminant (0 = eMBB, 1 = URLLC, 2 = mMTC).
    pub slice: u64,
    /// Distinct UEs observed in this slice.
    pub ues: u64,
    /// Total scheduled slots across the slice's UEs.
    pub scheduled: u64,
    /// Worst gap (in slots) between consecutive scheduled slots of any
    /// single UE in the slice.
    pub max_gap_slots: u64,
    /// Scheduling-cadence deadline this slice was judged against.
    pub deadline_slots: Option<u64>,
    /// Inter-schedule gaps exceeding the deadline (0 without one).
    pub deadline_misses: u64,
    /// Executed handover cutovers for the slice's UEs.
    pub handovers: u64,
}

/// The per-slice report: one row per slice observed in the trace, in
/// discriminant order.
#[derive(Debug, Clone, Default)]
pub struct SliceSloReport {
    pub slices: Vec<SliceSlo>,
}

impl SliceSloReport {
    pub fn slice(&self, slice: u64) -> Option<&SliceSlo> {
        self.slices.iter().find(|s| s.slice == slice)
    }

    /// Human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for s in &self.slices {
            let deadline = match s.deadline_slots {
                Some(d) => format!("{d}"),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "slice {}: {} UEs, {} scheduled slots, max gap {} slots \
                 (deadline {deadline}), {} deadline misses, {} handovers",
                s.slice, s.ues, s.scheduled, s.max_gap_slots, s.deadline_misses, s.handovers,
            );
        }
        out
    }
}

/// Derive per-slice scheduling SLOs from a trace. `deadlines` maps a
/// slice discriminant to its cadence deadline in slots; slices without
/// an entry are best-effort (gaps are reported but never counted as
/// misses).
pub fn analyze_slices(trace: &TraceBuffer, deadlines: &[(u64, u64)]) -> SliceSloReport {
    let mut flips_per_ue: BTreeMap<u64, u64> = BTreeMap::new();
    for e in trace.of_kind(TraceEventKind::HandoverFlip) {
        *flips_per_ue.entry(e.a).or_insert(0) += 1;
    }

    let mut slices: BTreeMap<u64, SliceSlo> = BTreeMap::new();
    for (rnti, evs) in &scheduled_per_ue(trace) {
        // A UE's slice does not change over a run.
        let slice = evs[0].2;
        let mut slots: Vec<u64> = evs.iter().map(|&(slot, _, _)| slot).collect();
        slots.dedup();
        let deadline = deadlines
            .iter()
            .find(|&&(s, _)| s == slice)
            .map(|&(_, d)| d);
        let row = slices.entry(slice).or_insert_with(|| SliceSlo {
            slice,
            ues: 0,
            scheduled: 0,
            max_gap_slots: 0,
            deadline_slots: deadline,
            deadline_misses: 0,
            handovers: 0,
        });
        row.ues += 1;
        row.scheduled += slots.len() as u64;
        row.handovers += flips_per_ue.get(rnti).copied().unwrap_or(0);
        for w in slots.windows(2) {
            let gap = w[1] - w[0];
            row.max_gap_slots = row.max_gap_slots.max(gap);
            if deadline.is_some_and(|d| gap > d) {
                row.deadline_misses += 1;
            }
        }
    }
    SliceSloReport {
        slices: slices.into_values().collect(),
    }
}

fn ms(n: Option<Nanos>) -> String {
    match n {
        Some(n) => format!("{:.3}", n.0 as f64 / 1e6),
        None => "null".to_string(),
    }
}

fn us(n: Option<Nanos>) -> String {
    match n {
        Some(n) => format!("{:.1}", n.0 as f64 / 1e3),
        None => "null".to_string(),
    }
}

impl SloReport {
    /// Human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if self.truncated {
            let _ = writeln!(
                out,
                "WARNING: trace ring evicted {} events — availability below is \
                 computed from a TRUNCATED window, not the full run",
                self.evicted_events
            );
        }
        let f = &self.fleet;
        let _ = writeln!(
            out,
            "fleet: {} cells, {}/{} TTIs delivered ({} dropped) — availability {:.6} ({:.2} nines)",
            f.cells, f.delivered_ttis, f.expected_ttis, f.dropped_ttis, f.availability, f.nines,
        );
        let _ = writeln!(
            out,
            "  outages {}  MTBF {} ms  MTTR {} ms  TTR p50/p99/max {}/{}/{} ms",
            f.outages,
            ms(f.mtbf),
            ms(f.mttr),
            ms(f.ttr_p50),
            ms(f.ttr_p99),
            ms(f.ttr_max),
        );
        let _ = writeln!(
            out,
            "  detections {} (p50 {} us, max {} us)  spares: {} requested, {} granted, \
             {} returned, {} repairs",
            f.detections,
            us(f.detection_p50),
            us(f.detection_max),
            f.spare_requests,
            f.spare_grants,
            f.spare_returns,
            f.repairs,
        );
        for c in &self.cells {
            let _ = writeln!(
                out,
                "  cell {}: {}/{} TTIs ({} dropped) — {:.6} avail ({:.2} nines), \
                 {} outages, MTTR {} ms, dropped-TTI p99 {}",
                c.ru,
                c.delivered_ttis,
                c.expected_ttis,
                c.dropped_ttis,
                c.availability,
                c.nines,
                c.outages.len(),
                ms(c.mttr),
                c.dropped_tti_p99,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NodeId;
    use crate::time::SlotId;

    fn slot_time(abs: u64) -> Nanos {
        Nanos(abs * SLOT_DURATION.0)
    }

    fn record(tb: &mut TraceBuffer, abs_slot: u64, kind: TraceEventKind, a: u64, b: u64) {
        tb.record_at_slot(
            slot_time(abs_slot),
            NodeId(1),
            SlotId::from_absolute(abs_slot),
            kind,
            a,
            b,
        );
    }

    /// Deliver the UL slot of every TDD cycle in [from, to) for `phy`,
    /// skipping cycles listed in `skip`.
    fn deliver(tb: &mut TraceBuffer, phy: u64, from: u64, to: u64, skip: &[u64]) {
        let mut s = from;
        while s < to {
            if !skip.contains(&s) {
                record(tb, s, TraceEventKind::UlSlotProcessed, s, phy);
            }
            s += 5;
        }
    }

    /// One declared cell: RU 0 served by PHY 1 from slot 0.
    fn one_cell() -> SloConfig {
        SloConfig {
            initial_active: vec![(0, 1)],
            ..SloConfig::default()
        }
    }

    #[test]
    fn perfect_cadence_is_nine_nines() {
        let mut tb = TraceBuffer::new(4096);
        deliver(&mut tb, 1, 4, 504, &[]);
        let r = analyze(&tb, &one_cell());
        assert_eq!(r.cells.len(), 1);
        let c = &r.cells[0];
        assert_eq!(c.dropped_ttis, 0);
        assert_eq!(c.delivered_ttis, c.expected_ttis);
        assert_eq!(c.availability, 1.0);
        assert_eq!(c.nines, 9.0);
        assert!(c.outages.is_empty());
        assert_eq!(c.mttr, None);
        assert!(!r.truncated);
        assert_eq!(r.fleet.nines, 9.0);
        assert_eq!(r.fleet.mttr, None);
    }

    #[test]
    fn single_gap_yields_one_outage() {
        let mut tb = TraceBuffer::new(4096);
        // 100 cycles, cycles at slots 54..74 missing (4 TTIs dropped).
        deliver(&mut tb, 1, 4, 504, &[54, 59, 64, 69]);
        let r = analyze(&tb, &one_cell());
        let c = &r.cells[0];
        assert_eq!(c.outages.len(), 1);
        let o = &c.outages[0];
        assert_eq!(o.missing_ttis, 4);
        assert_eq!(o.start_slot, 49);
        assert_eq!(o.end_slot, 74);
        assert_eq!(c.dropped_ttis, 4);
        assert_eq!(c.expected_ttis, 100);
        assert_eq!(c.delivered_ttis, 96);
        assert!((c.availability - 0.96).abs() < 1e-12);
        // 4 missing TTIs * 5 slots * 500us = 10 ms outage.
        assert_eq!(c.mttr, Some(Nanos(10_000_000)));
        assert_eq!(c.ttr_max, Some(Nanos(10_000_000)));
        assert_eq!(c.dropped_tti_p99, 4);
        assert_eq!(r.fleet.outages, 1);
        assert_eq!(r.fleet.worst_cell_dropped_tti_p99, 4);
    }

    #[test]
    fn gaps_count_the_scheduled_ttis_never_delivered() {
        // DDDSU: UL slots every 5. Delivered 0,5,10,25,30 → 15,20 missing.
        let found = gaps(3, &[0, 5, 10, 25, 30]);
        let hole = Outage {
            ru: 3,
            start_slot: 10,
            end_slot: 25,
            missing_ttis: 2,
        };
        assert_eq!(found, [hole]);
        assert!(gaps(3, &[]).is_empty());
        assert!(gaps(3, &[7]).is_empty());
    }

    #[test]
    fn trailing_blackout_charged_against_horizon() {
        let mut tb = TraceBuffer::new(4096);
        // Delivers to slot 249 then dies; horizon says 500 slots.
        deliver(&mut tb, 1, 4, 250, &[]);
        let with_horizon = analyze(
            &tb,
            &SloConfig {
                horizon_slots: 500,
                ..one_cell()
            },
        );
        let without = analyze(&tb, &one_cell());
        assert_eq!(without.cells[0].dropped_ttis, 0);
        let c = &with_horizon.cells[0];
        assert_eq!(c.outages.len(), 1);
        assert!(c.dropped_ttis >= 50, "dropped={}", c.dropped_ttis);
        assert!(c.availability < 0.6);
        assert!(c.nines < 1.0);
    }

    #[test]
    fn silent_cell_with_horizon_is_zero_available() {
        let tb = TraceBuffer::new(64);
        let r = analyze(
            &tb,
            &SloConfig {
                horizon_slots: 1000,
                ..one_cell()
            },
        );
        let c = &r.cells[0];
        assert_eq!(c.delivered_ttis, 0);
        assert_eq!(c.expected_ttis, 200);
        assert_eq!(c.availability, 0.0);
        assert_eq!(c.nines, 0.0);
    }

    #[test]
    fn no_declared_cells_means_an_empty_report() {
        let mut tb = TraceBuffer::new(4096);
        deliver(&mut tb, 1, 4, 504, &[]);
        let r = analyze(&tb, &SloConfig::default());
        assert!(r.cells.is_empty(), "an undeclared PHY serves no cell");
        assert_eq!(r.fleet.cells, 0);
        assert_eq!(r.fleet.delivered_ttis, 0);
    }

    #[test]
    fn map_flip_attributes_deliveries_to_new_owner() {
        let mut tb = TraceBuffer::new(4096);
        // Two cells: ru 0 on phy 1, ru 1 on phy 3. Cell 0 fails over to
        // phy 2 at slot 100 with a 2-cycle gap.
        deliver(&mut tb, 1, 4, 100, &[]);
        record(&mut tb, 100, TraceEventKind::MapFlip, 0, (1 << 16) | 2);
        deliver(&mut tb, 2, 114, 504, &[]);
        deliver(&mut tb, 3, 4, 504, &[]);
        let r = analyze(
            &tb,
            &SloConfig {
                initial_active: vec![(0, 1), (1, 3)],
                ..SloConfig::default()
            },
        );
        assert_eq!(r.cells.len(), 2);
        let c0 = &r.cells[0];
        let c1 = &r.cells[1];
        assert_eq!(c1.dropped_ttis, 0, "cell 1 never faulted");
        assert_eq!(c1.nines, 9.0);
        assert_eq!(c0.outages.len(), 1, "cell 0 has the failover gap");
        assert!(c0.dropped_ttis >= 1);
        assert!(c0.nines < 9.0);
        assert!(r.fleet.worst_cell_nines < 9.0);
        assert_eq!(r.fleet.cells, 2);
    }

    #[test]
    fn lifecycle_counters_and_detections_surface() {
        let mut tb = TraceBuffer::new(4096);
        deliver(&mut tb, 1, 4, 504, &[]);
        record(
            &mut tb,
            100,
            TraceEventKind::DetectorSaturated,
            1,
            slot_time(100).0 - 400_000,
        );
        record(&mut tb, 101, TraceEventKind::SpareRequested, 0, 1);
        record(&mut tb, 102, TraceEventKind::SpareGranted, 0, (5 << 16) | 1);
        record(&mut tb, 150, TraceEventKind::SpareReturned, 1, 2);
        record(&mut tb, 151, TraceEventKind::StandbyRepaired, 0, 5);
        let r = analyze(&tb, &one_cell());
        assert_eq!(r.fleet.detections, 1);
        assert_eq!(r.fleet.detection_max, Some(Nanos(400_000)));
        assert_eq!(r.fleet.spare_requests, 1);
        assert_eq!(r.fleet.spare_grants, 1);
        assert_eq!(r.fleet.spare_returns, 1);
        assert_eq!(r.fleet.repairs, 1);
    }

    #[test]
    fn truncated_ring_sets_flag_and_warns() {
        let mut tb = TraceBuffer::new(8);
        deliver(&mut tb, 1, 4, 504, &[]);
        assert!(tb.dropped_oldest() > 0);
        let r = analyze(&tb, &one_cell());
        assert!(r.truncated);
        assert!(r.evicted_events > 0);
        assert!(r.to_text().contains("TRUNCATED"));
    }

    #[test]
    fn slice_report_aggregates_per_slice() {
        let mut tb = TraceBuffer::new(4096);
        // UE 1: URLLC on cell 0, scheduled every 5 slots with one
        // 20-slot gap; UE 2: eMBB, every 10 slots; UE 1 hands over once.
        for abs in (4..300u64).step_by(5) {
            if (100..120).contains(&abs) {
                continue;
            }
            let a = 1 | (1 << 24);
            record(&mut tb, abs, TraceEventKind::UeScheduled, a, abs);
        }
        for abs in (4..300u64).step_by(10) {
            record(&mut tb, abs, TraceEventKind::UeScheduled, 2, abs);
        }
        record(&mut tb, 150, TraceEventKind::HandoverFlip, 1, 1);

        let r = analyze_slices(&tb, &[(1, 10)]);
        assert_eq!(r.slices.len(), 2);
        let urllc = r.slice(1).unwrap();
        assert_eq!(urllc.ues, 1);
        assert_eq!(urllc.max_gap_slots, 25);
        assert_eq!(urllc.deadline_slots, Some(10));
        assert_eq!(urllc.deadline_misses, 1);
        assert_eq!(urllc.handovers, 1);
        let embb = r.slice(0).unwrap();
        assert_eq!(embb.ues, 1);
        assert_eq!(embb.max_gap_slots, 10);
        assert_eq!(embb.deadline_slots, None);
        assert_eq!(embb.deadline_misses, 0, "best-effort slices never miss");
        assert_eq!(embb.handovers, 0);

        assert!(r.to_text().contains("slice 1"));
    }

    #[test]
    fn nines_of_edge_cases() {
        assert_eq!(nines_of(1.0), 9.0);
        assert_eq!(nines_of(0.0), 0.0);
        assert_eq!(nines_of(-0.5), 0.0);
        assert!((nines_of(0.999) - 3.0).abs() < 1e-9);
        assert!((nines_of(0.99999) - 5.0).abs() < 1e-9);
    }
}
