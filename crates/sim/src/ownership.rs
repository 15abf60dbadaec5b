//! Ownership timelines reconstructed from flip events in the trace:
//! which PHY is a cell's active one (`MapFlip`), or which cell serves a
//! UE (`HandoverFlip`), at any slot. Shared by the chaos oracle and the
//! SLO analyzer so both attribute a slot to the same owner.

use std::collections::BTreeMap;

use crate::time::SLOT_DURATION;
use crate::trace::{TraceBuffer, TraceEventKind};

/// Per-key owner timelines: key → `[(from_slot, owner)]`, ascending.
pub(crate) struct Ownership(BTreeMap<u64, Vec<(u64, u64)>>);

impl Ownership {
    /// Layer every `flip` event (a = key, b = old<<16 | new) in time
    /// order over the `initial` `(key, owner)` pairs at slot 0.
    pub fn from_trace(
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
            let slot = e.at.0 / SLOT_DURATION.0;
            timelines.entry(e.a).or_default().push((slot, e.b & 0xFFFF));
        }
        Ownership(timelines)
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Every tracked key with its timeline.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[(u64, u64)])> {
        self.0.iter().map(|(&key, tl)| (key, tl.as_slice()))
    }

    /// The owner of `key` at `slot`; `u64::MAX` (no owner) before its
    /// first entry or for an untracked key.
    pub fn owner_at(&self, key: u64, slot: u64) -> u64 {
        self.0.get(&key).map_or(u64::MAX, |tl| held(tl, slot))
    }

    /// Whether `owner` holds `key` at `slot`, give or take one slot:
    /// the grace absorbs flip-boundary races (the flip trace lands
    /// mid-slot while the old owner's last in-flight slot completes).
    pub fn holds_near(&self, key: u64, owner: u64, slot: u64) -> bool {
        self.0.get(&key).is_some_and(|tl| near(tl, owner, slot))
    }

    /// The key `owner` holds at `slot`: an exact match first, then one
    /// within the ±1-slot grace of [`Ownership::holds_near`].
    pub fn attribute(&self, owner: u64, slot: u64) -> Option<u64> {
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
