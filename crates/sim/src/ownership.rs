//! Ownership timelines reconstructed from flip events in the trace —
//! which PHY is a cell's active one (`MapFlip`), or which cell serves a
//! UE (`HandoverFlip`), at any slot — and the two series built on them
//! that the chaos oracle and the SLO analyzer both read: delivered
//! uplink TTIs per cell and scheduled slots per UE.

use std::collections::BTreeMap;

use crate::time::{abs_of_scalar, SLOT_DURATION};
use crate::trace::{TraceBuffer, TraceEvent, TraceEventKind};

/// The absolute slot a flip took effect from: the one the event is
/// *stamped* with, unwrapped to the scalar epoch nearest its arrival.
/// The switch flips on the first packet stamped at or past the armed
/// boundary and DL C-plane runs ahead of the wall clock, so the arrival
/// lands slots before the boundary the old owner still serves up to.
fn stamped_slot(e: &TraceEvent) -> u64 {
    abs_of_scalar(e.at.0 / SLOT_DURATION.0, e.slot.scalar())
}

/// Per-key owner timelines: key → `[(from_slot, owner)]`, ascending.
pub(crate) struct Ownership(BTreeMap<u64, Vec<(u64, u64)>>);

impl Ownership {
    /// Layer every `flip` event (a = key, b = old<<16 | new) in time
    /// order over the `initial` `(key, owner)` pairs at slot 0.
    pub(crate) fn from_trace(
        initial: &[(u64, u64)],
        trace: &TraceBuffer,
        flip: TraceEventKind,
    ) -> Ownership {
        let mut timelines: BTreeMap<u64, Vec<(u64, u64)>> = initial
            .iter()
            .map(|&(key, owner)| (key, vec![(0, owner)]))
            .collect();
        let mut flips: Vec<_> = trace.of_kind(flip).collect();
        flips.sort_by_key(|e| e.at);
        for e in flips {
            let owners = timelines.entry(e.a).or_default();
            owners.push((stamped_slot(e), e.b & 0xFFFF));
        }
        Ownership(timelines)
    }

    /// Every tracked key with its timeline.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[(u64, u64)])> {
        self.0.iter().map(|(&key, tl)| (key, tl.as_slice()))
    }

    /// The owner of `key` at `slot`; `u64::MAX` (no owner) before its
    /// first entry or for an untracked key.
    pub(crate) fn owner_at(&self, key: u64, slot: u64) -> u64 {
        self.0.get(&key).map_or(u64::MAX, |tl| held(tl, slot))
    }

    /// Whether `owner` holds `key` at `slot`, give or take one slot:
    /// the grace absorbs flip-boundary races (the old owner's last
    /// in-flight slot completes while the new one's first is under way).
    pub(crate) fn holds_near(&self, key: u64, owner: u64, slot: u64) -> bool {
        self.0.get(&key).is_some_and(|tl| near(tl, owner, slot))
    }

    /// The key `owner` holds at `slot`: an exact match first, then one
    /// within the ±1-slot grace of [`Ownership::holds_near`].
    pub(crate) fn attribute(&self, owner: u64, slot: u64) -> Option<u64> {
        self.0
            .iter()
            .find(|(_, tl)| held(tl, slot) == owner)
            .or_else(|| self.0.iter().find(|(_, tl)| near(tl, owner, slot)))
            .map(|(&key, _)| key)
    }
}

/// The owner a timeline records for `slot`.
fn held(timeline: &[(u64, u64)], slot: u64) -> u64 {
    let entry = timeline.iter().rev().find(|&&(from, _)| from <= slot);
    entry.map_or(u64::MAX, |&(_, owner)| owner)
}

fn near(timeline: &[(u64, u64)], owner: u64, slot: u64) -> bool {
    [slot, slot.saturating_sub(1), slot + 1]
        .iter()
        .any(|&s| held(timeline, s) == owner)
}

/// Every `UlSlotProcessed` in a trace, attributed to the cell whose
/// active PHY produced it.
pub(crate) struct Deliveries {
    /// The active-PHY timelines the attribution used.
    pub active: Ownership,
    /// Cell → the absolute slots it delivered, ascending, one entry per
    /// slot. Every declared or ever-flipped cell is here, silent or not.
    pub slots: BTreeMap<u64, Vec<u64>>,
    /// `(cell, slot, producers)` where more than one PHY delivered.
    pub contested: Vec<(u64, u64, Vec<u64>)>,
    /// `(slot, phy)` deliveries by a PHY no cell's active mapping owns.
    pub unowned: Vec<(u64, u64)>,
}

impl Deliveries {
    /// Attribute against `MapFlip`s layered over `(ru, primary phy)`.
    pub(crate) fn from_trace(initial_active: &[(u64, u64)], trace: &TraceBuffer) -> Deliveries {
        let active = Ownership::from_trace(initial_active, trace, TraceEventKind::MapFlip);
        let mut produced: BTreeMap<u64, Vec<(u64, u64)>> =
            active.iter().map(|(ru, _)| (ru, Vec::new())).collect();
        let mut unowned = Vec::new();
        for e in trace.of_kind(TraceEventKind::UlSlotProcessed) {
            match active.attribute(e.b, e.a) {
                Some(ru) => produced.entry(ru).or_default().push((e.a, e.b)),
                None => unowned.push((e.a, e.b)),
            }
        }
        let mut slots = BTreeMap::new();
        let mut contested = Vec::new();
        for (ru, mut by_slot) in produced {
            by_slot.sort_unstable();
            by_slot.dedup();
            let mut series = Vec::new();
            for same in by_slot.chunk_by(|x, y| x.0 == y.0) {
                series.push(same[0].0);
                if same.len() > 1 {
                    contested.push((ru, same[0].0, same.iter().map(|p| p.1).collect()));
                }
            }
            slots.insert(ru, series);
        }
        Deliveries {
            active,
            slots,
            contested,
            unowned,
        }
    }
}

/// Every UE's `UeScheduled` records (a = rnti | ru<<16 | slice<<24,
/// b = abs slot) as `(slot, scheduling ru, slice)`, ascending by slot.
pub(crate) fn scheduled_per_ue(trace: &TraceBuffer) -> BTreeMap<u64, Vec<(u64, u64, u64)>> {
    let mut sched: BTreeMap<u64, Vec<(u64, u64, u64)>> = BTreeMap::new();
    for e in trace.of_kind(TraceEventKind::UeScheduled) {
        sched
            .entry(e.a & 0xFFFF)
            .or_default()
            .push((e.b, (e.a >> 16) & 0xFF, (e.a >> 24) & 0xFF));
    }
    for evs in sched.values_mut() {
        evs.sort_unstable();
    }
    sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NodeId;
    use crate::time::{Nanos, SlotId};

    fn flip_at(at_slot: u64, stamped: SlotId) -> TraceEvent {
        TraceEvent {
            at: Nanos(at_slot * SLOT_DURATION.0),
            node: NodeId(0),
            slot: stamped,
            kind: TraceEventKind::MapFlip,
            a: 0,
            b: (1 << 16) | 2,
        }
    }

    #[test]
    fn stamped_slot_unwraps_to_the_epoch_nearest_arrival() {
        // Clock-stamped (control-plane) flips are their arrival slot.
        for abs in [0, 1003, 5119, 5120, 20_479, 20_480, 1_000_003] {
            assert_eq!(stamped_slot(&flip_at(abs, SlotId::from_absolute(abs))), abs);
        }
        // Packet-stamped flips: the scalar runs ahead of the arrival.
        assert_eq!(
            stamped_slot(&flip_at(1003, SlotId::from_absolute(1005))),
            1005
        );
        assert_eq!(stamped_slot(&flip_at(5119, SlotId::from_absolute(1))), 5121);
        assert_eq!(
            stamped_slot(&flip_at(10_239, SlotId::from_absolute(1))),
            10_241
        );
        // ... or, for a late packet, behind it — across the wrap too.
        assert_eq!(
            stamped_slot(&flip_at(5121, SlotId::from_absolute(5119))),
            5119
        );
        assert_eq!(stamped_slot(&flip_at(0, SlotId::from_absolute(5119))), 0);
    }
}
