//! Slot-bucketed calendar queue for the engine hot path.
//!
//! The discrete-event engine used to keep every pending event of a
//! lane in one `BinaryHeap<Reverse<QueuedEvent>>`. That
//! is O(log n) per operation with comparator-driven cache misses, and —
//! worse for a simulator whose message enum is large — every sift moves
//! whole payloads through the heap array.
//!
//! [`CalendarQueue`] exploits the workload's structure instead: almost
//! every event lands within a few slots ([`SLOT_DURATION`]) of the
//! current time. Events are hashed by slot into a power-of-two ring of
//! buckets; each bucket is a small heap of fixed-size 24-byte keys
//! `(at, seq, idx)` whose `idx` points into a free-list arena holding
//! the payload. Push and pop are O(1) amortized (the per-bucket heaps
//! stay tiny — one slot's worth of events), payloads never move after
//! insertion, and freed arena cells are recycled so steady-state
//! operation performs no allocation at all.
//!
//! ## Ordering contract
//!
//! Identical to the heap it replaces: strict `(at, seq)` order. `seq`
//! is the caller's monotone insertion counter, so simultaneous events
//! pop in FIFO insertion order. This is the engine's determinism
//! contract — golden traces stay byte-identical.
//!
//! ## Far-future events (bucket wrap)
//!
//! A ring of `N` buckets covers `N` slots per revolution; an event more
//! than `N` slots ahead shares a bucket with nearer "years". The pop
//! path guards against that with an exact slot check on the bucket top
//! (`at / SLOT_NS == slot`): a far-year top means the slot is really
//! empty. Since a bucket's heap orders by `at`, an event of slot `s`
//! always surfaces before any event of slot `s + kN` in the same
//! bucket, so the check never misses a due event. If a full revolution
//! finds nothing, the cursor jumps straight to the global minimum's
//! slot — so a queue holding only far-future timers still pops in O(N)
//! worst case, not O(horizon).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{Nanos, SLOT_DURATION};

/// Bucket count; power of two so the slot→bucket map is a mask.
const N_BUCKETS: usize = 64;
const BUCKET_MASK: u64 = (N_BUCKETS as u64) - 1;

/// Nanoseconds per calendar slot (one engine slot barrier).
const SLOT_NS: u64 = SLOT_DURATION.0;

#[inline]
fn slot_of(at: u64) -> u64 {
    at / SLOT_NS
}

/// Bucket key: `(at, seq, arena index)`. `seq` is unique per queue,
/// so the index never participates in a comparison.
type BucketHeap = BinaryHeap<Reverse<(u64, u64, u32)>>;

/// A slot-bucketed priority queue delivering `(at, seq, payload)` in
/// strict `(at, seq)` order. See the module docs for the design.
pub struct CalendarQueue<T> {
    /// Ring of per-slot key heaps.
    buckets: Box<[BucketHeap]>,
    /// Payload arena; `None` marks a free cell.
    arena: Vec<Option<T>>,
    /// Recycled arena indices.
    free: Vec<u32>,
    /// The earliest slot that may hold a pending event. Invariant: no
    /// queued event's slot is smaller (push rewinds it if needed).
    base_slot: u64,
    len: usize,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    pub fn new() -> Self {
        let buckets = (0..N_BUCKETS)
            .map(|_| BinaryHeap::new())
            .collect::<Vec<_>>()
            .into_boxed_slice();
        CalendarQueue {
            buckets,
            arena: Vec::new(),
            free: Vec::new(),
            base_slot: 0,
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert an event. `seq` must be unique and reflect insertion
    /// order at equal `at` (the engine's monotone event counter).
    pub fn push(&mut self, at: Nanos, seq: u64, value: T) {
        let idx = match self.free.pop() {
            Some(i) => {
                debug_assert!(self.arena[i as usize].is_none());
                self.arena[i as usize] = Some(value);
                i
            }
            None => {
                assert!(
                    self.arena.len() < u32::MAX as usize,
                    "calendar queue overflow"
                );
                self.arena.push(Some(value));
                (self.arena.len() - 1) as u32
            }
        };
        let s = slot_of(at.0);
        // An empty queue re-bases outright (avoids sweeping from a
        // stale cursor); otherwise only rewind — slots between `s` and
        // the old base are provably empty, so rewinding is safe and
        // keeps the "nothing before base" invariant.
        if self.len == 0 || s < self.base_slot {
            self.base_slot = s;
        }
        self.buckets[(s & BUCKET_MASK) as usize].push(Reverse((at.0, seq, idx)));
        self.len += 1;
    }

    /// Pop the earliest event if its time is `<= until`; `None` means
    /// the queue is empty or the next event lies beyond `until`.
    pub fn pop_le(&mut self, until: Nanos) -> Option<(Nanos, u64, T)> {
        if self.len == 0 {
            return None;
        }
        let min_at = self.locate_min();
        if min_at > until.0 {
            return None;
        }
        let bucket = &mut self.buckets[(self.base_slot & BUCKET_MASK) as usize];
        let Reverse((at, seq, idx)) = bucket.pop().expect("located min vanished");
        self.len -= 1;
        let value = self.arena[idx as usize]
            .take()
            .expect("arena cell empty for live key");
        self.free.push(idx);
        Some((Nanos(at), seq, value))
    }

    /// The earliest pending `at`, or `None` when empty. Advances the
    /// slot cursor as a side effect (hence `&mut`).
    pub(crate) fn peek_at(&mut self) -> Option<Nanos> {
        if self.len == 0 {
            return None;
        }
        Some(Nanos(self.locate_min()))
    }

    /// Advance `base_slot` to the earliest nonempty slot and return its
    /// minimum `at`. Caller guarantees `len > 0`.
    fn locate_min(&mut self) -> u64 {
        loop {
            for s in self.base_slot..self.base_slot + N_BUCKETS as u64 {
                if let Some(&Reverse((at, _, _))) = self.buckets[(s & BUCKET_MASK) as usize].peek()
                {
                    if slot_of(at) == s {
                        self.base_slot = s;
                        return at;
                    }
                }
            }
            // Nothing within one ring revolution: every pending event
            // is ≥ base + N slots out. Jump to the global minimum's
            // slot and retry (guaranteed hit on the next sweep).
            let min = self
                .buckets
                .iter()
                .filter_map(|b| b.peek())
                .map(|&Reverse(key)| key)
                .min()
                .expect("len > 0 but all buckets empty");
            self.base_slot = slot_of(min.0);
        }
    }

    /// Drain every event in `(at, seq)` order — used when handing a
    /// queue's contents to another owner (e.g. shard enablement).
    pub(crate) fn drain_sorted(&mut self) -> Vec<(Nanos, u64, T)> {
        let mut out = Vec::with_capacity(self.len);
        while let Some(e) = self.pop_le(Nanos(u64::MAX)) {
            out.push(e);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Model-based equivalence: the calendar queue pops in exactly the
    /// order of a plain `BinaryHeap<Reverse<(at, seq)>>` across a
    /// workload mixing same-instant ties, near events, far-future
    /// timers (bucket wrap), and interleaved pushes after pops.
    #[test]
    fn matches_binary_heap_model() {
        let mut cq: CalendarQueue<u64> = CalendarQueue::new();
        let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        // Deterministic pseudo-random stream (xorshift); no external RNG.
        let mut x = 0x243f_6a88_85a3_08d3u64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut seq = 0u64;
        let mut now = 0u64;
        for round in 0..2_000 {
            // Push a burst with varied horizons: same-instant, within
            // the slot, a few slots out, and far beyond the ring.
            let burst = (rand() % 4) + 1;
            for _ in 0..burst {
                let at = match rand() % 10 {
                    0..=3 => now,                              // tie at current instant
                    4..=6 => now + rand() % SLOT_NS,           // same/next slot
                    7..=8 => now + rand() % (8 * SLOT_NS),     // a few slots out
                    _ => now + (64 + rand() % 1000) * SLOT_NS, // far beyond the ring
                };
                cq.push(Nanos(at), seq, seq);
                model.push(Reverse((at, seq)));
                seq += 1;
            }
            // Pop everything due in a window that sometimes jumps far
            // ahead (forcing the global-min fallback sweep).
            let until = if round % 97 == 0 {
                now + 2000 * SLOT_NS
            } else {
                now + rand() % (2 * SLOT_NS)
            };
            loop {
                let got = cq.pop_le(Nanos(until));
                let want = match model.peek() {
                    Some(&Reverse((at, _))) if at <= until => model.pop(),
                    _ => None,
                };
                match (got, want) {
                    (None, None) => break,
                    (Some((at, s, payload)), Some(Reverse((mat, mseq)))) => {
                        assert_eq!((at.0, s), (mat, mseq), "order diverged from model");
                        assert_eq!(payload, mseq, "payload mixed up");
                        now = now.max(at.0);
                    }
                    (g, w) => panic!("queue/model disagree: {g:?} vs {w:?}"),
                }
            }
            assert_eq!(cq.len(), model.len());
        }
        // Drain the tail and confirm full equality.
        let rest = cq.drain_sorted();
        let mut model_rest = Vec::new();
        while let Some(Reverse(k)) = model.pop() {
            model_rest.push(k);
        }
        assert_eq!(
            rest.iter().map(|(at, s, _)| (at.0, *s)).collect::<Vec<_>>(),
            model_rest
        );
        assert!(cq.is_empty());
    }

    #[test]
    fn same_instant_pops_in_seq_order() {
        let mut q: CalendarQueue<&'static str> = CalendarQueue::new();
        q.push(Nanos(1000), 2, "third");
        q.push(Nanos(1000), 0, "first");
        q.push(Nanos(1000), 1, "second");
        let order: Vec<_> = q.drain_sorted().into_iter().map(|(_, _, v)| v).collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn far_future_shares_bucket_with_near_event() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        // Same bucket (slot 0 and slot N_BUCKETS), far one pushed first.
        let far = (N_BUCKETS as u64) * SLOT_NS + 7;
        q.push(Nanos(far), 0, 99);
        q.push(Nanos(5), 1, 1);
        assert_eq!(q.pop_le(Nanos(10)).map(|e| e.2), Some(1));
        // The far event is not due yet...
        assert_eq!(q.pop_le(Nanos(far - 1)).map(|e| e.2), None);
        // ...but pops once the window reaches it.
        let (at, _, v) = q.pop_le(Nanos(far)).unwrap();
        assert_eq!((at.0, v), (far, 99));
        assert!(q.is_empty());
    }

    #[test]
    fn rewinds_base_after_peeking_ahead() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        // Locate a far event (cursor advances), then push an earlier
        // one: the cursor must rewind so the early event pops first.
        q.push(Nanos(100 * SLOT_NS), 0, 100);
        assert_eq!(q.peek_at(), Some(Nanos(100 * SLOT_NS)));
        q.push(Nanos(3), 1, 3);
        assert_eq!(q.pop_le(Nanos(u64::MAX)).map(|e| e.2), Some(3));
        assert_eq!(q.pop_le(Nanos(u64::MAX)).map(|e| e.2), Some(100));
    }

    #[test]
    fn arena_recycles_cells() {
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        for round in 0..100u64 {
            for i in 0..16u64 {
                q.push(Nanos(round * 10), round * 16 + i, i);
            }
            while q.pop_le(Nanos(u64::MAX)).is_some() {}
        }
        // Steady-state: arena never grew beyond one burst.
        assert!(q.arena.len() <= 16, "arena grew: {}", q.arena.len());
    }
}
