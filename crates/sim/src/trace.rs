//! Structured, slot-aware event tracing.
//!
//! Every engine owns a bounded [`TraceBuffer`] into which nodes record
//! [`TraceEvent`]s through [`Ctx::trace`](crate::engine::Ctx::trace).
//! Each record carries the simulated time, the emitting node, the 5G NR
//! slot identity (`sfn.subframe.slot`) at which it happened, a
//! [`TraceEventKind`] naming the Slingshot lifecycle step, and two
//! free-form `u64` payload words whose meaning is per-kind (documented on
//! each variant).
//!
//! Because the simulator is single-threaded and fully seeded, the trace
//! is itself a determinism oracle: two runs with the same seed must
//! produce byte-identical traces ([`TraceBuffer::to_bytes`] /
//! [`TraceBuffer::hash`]), and the integration tests assert exactly that.
//!
//! The buffer is a ring: once `capacity` events have been recorded the
//! oldest are overwritten and `dropped_oldest` counts the evictions, so
//! tracing never grows heap proportionally to run length.
//!
//! Exporters: [`TraceBuffer::write_chrome_trace`] emits Chrome
//! `trace_event` JSON loadable in `chrome://tracing` or Perfetto;
//! [`TraceBuffer::write_summary`] renders a human-readable timeline.
//! Failure-detection latency is derived here ([`detections`]); the
//! delivered-TTI measures (dropped TTIs, outages) are [`crate::slo`]'s,
//! so tests assert the paper's headline numbers from the trace rather
//! than ad-hoc counters.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Write};

use crate::engine::NodeId;
use crate::time::{Nanos, SlotClock, SlotId};

/// What happened. Variants map 1:1 to steps of the Slingshot failure
/// story (§5 of the paper) plus generic engine lifecycle events.
///
/// The `a`/`b` payload convention for each variant is documented inline;
/// unused words are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
pub enum TraceEventKind {
    /// A downlink fronthaul packet (the implicit heartbeat) reset a
    /// PHY's failure counter. Coalesced to at most one event per
    /// (PHY, slot). `a` = PHY id, `b` = absolute slot.
    HeartbeatSeen = 1,
    /// The in-switch detector started covering a PHY. `a` = PHY id.
    DetectorArmed = 2,
    /// Detector progress: a PHY's counter crossed half of the
    /// saturation threshold `n` without a heartbeat (emitted once per
    /// outage, not per tick). `a` = PHY id, `b` = counter value.
    DetectorTick = 3,
    /// A PHY's counter reached `n` ticks with no heartbeat: failure
    /// declared. `a` = PHY id, `b` = arrival time (ns) of the last
    /// heartbeat from that PHY, so detection latency = `at - b`.
    DetectorSaturated = 4,
    /// The switch emitted a FailureNotify control packet.
    /// `a` = failed PHY id, `b` = subscriber index.
    FailureNotifySent = 5,
    /// A node received a FailureNotify. `a` = failed PHY id.
    FailureNotifyReceived = 6,
    /// A `migrate_on_slot` register write was armed in the switch.
    /// `a` = RU id, `b` = packed (dest PHY << 16) | slot scalar.
    MigrateArmed = 7,
    /// The RU→PHY steering map changed. `a` = RU id, `b` = packed
    /// (old PHY << 16) | new PHY.
    MapFlip = 8,
    /// A downlink packet from a non-active PHY was filtered (duplicate
    /// suppression). `a` = sending PHY id, `b` = absolute slot.
    DlFiltered = 9,
    /// Orion issued a null FAPI response to mask a missing PHY reply.
    /// `a` = RU id, `b` = absolute slot.
    NullFapiSent = 10,
    /// Orion dropped a duplicate response already answered by the
    /// other PHY. `a` = PHY id, `b` = absolute slot.
    DupResponseDropped = 11,
    /// A late response from a pipelined slot was drained to the L2
    /// after failover. `a` = PHY id, `b` = absolute slot.
    PipelinedSlotDrained = 12,
    /// A node was killed (fail-stop crash). `a` = node id.
    NodeKilled = 13,
    /// A node was revived. `a` = node id.
    NodeRevived = 14,
    /// The L2 reset HARQ/RLC state for a UE. `a` = RNTI.
    HarqReset = 15,
    /// A PHY missed its slot deadline (no FAPI download in time).
    /// `a` = consecutive missing streak, `b` = absolute slot.
    SlotDeadlineMiss = 16,
    /// A PHY finished uplink processing for a slot and delivered the
    /// TTI. `a` = absolute slot, `b` = PHY id (`PhyConfig::phy_id`, the
    /// id ownership attributes deliveries by; not the node id).
    UlSlotProcessed = 17,
    /// Orion accepted a FAPI uplink response from a PHY and forwarded it
    /// to L2. `a` = source PHY id, `b` = absolute slot. The chaos oracle
    /// uses this to assert that at most one PHY's response per slot ever
    /// reaches L2 (§6.3's exactly-once delivery across failover).
    FapiToL2 = 18,
    /// An L2-side Orion exhausted its local standbys after a failover
    /// and asked the recovery orchestrator for a spare from the shared
    /// pool. `a` = RU id, `b` = failed (drained) PHY id.
    SpareRequested = 19,
    /// The recovery orchestrator granted a pooled spare to a cell.
    /// `a` = RU id, `b` = `(phy_id << 16) | pool_size_after_grant`.
    SpareGranted = 20,
    /// A drained ex-primary finished its scrub cycle and rejoined the
    /// shared spare pool. `a` = PHY id, `b` = pool size after return.
    SpareReturned = 21,
    /// An L2-side Orion installed a granted spare as the cell's new
    /// standby at a slot boundary and replayed the duplicated init-FAPI
    /// to it (§6.3) — the cell is re-paired. `a` = RU id, `b` = PHY id.
    StandbyRepaired = 22,
    /// A network-initiated handover was armed in the switch's handover
    /// register (SMARTHO-style, mirroring `MigrateArmed`). `a` = RNTI,
    /// `b` = packed (target RU << 16) | cutover slot scalar.
    HandoverArmed = 23,
    /// The switch's UE directory re-pointed a UE to its target cell at
    /// the armed slot boundary. `a` = RNTI, `b` = packed
    /// (source RU << 16) | target RU.
    HandoverFlip = 24,
    /// An L2 scheduled a UE in a slot (UL grant or DL assignment) —
    /// the per-cell-per-slice serving record the handover/slice oracle
    /// consumes. Emitted only by slice-aware deployments (opt-in), so
    /// legacy traces and their golden hashes are unchanged.
    /// `a` = RNTI | (serving RU << 16) | (slice kind << 24),
    /// `b` = absolute slot.
    UeScheduled = 25,
}

impl TraceEventKind {
    /// Stable display name (used in summaries and Chrome traces).
    pub fn as_str(self) -> &'static str {
        match self {
            TraceEventKind::HeartbeatSeen => "heartbeat_seen",
            TraceEventKind::DetectorArmed => "detector_armed",
            TraceEventKind::DetectorTick => "detector_tick",
            TraceEventKind::DetectorSaturated => "detector_saturated",
            TraceEventKind::FailureNotifySent => "failure_notify_sent",
            TraceEventKind::FailureNotifyReceived => "failure_notify_received",
            TraceEventKind::MigrateArmed => "migrate_armed",
            TraceEventKind::MapFlip => "map_flip",
            TraceEventKind::DlFiltered => "dl_filtered",
            TraceEventKind::NullFapiSent => "null_fapi_sent",
            TraceEventKind::DupResponseDropped => "dup_response_dropped",
            TraceEventKind::PipelinedSlotDrained => "pipelined_slot_drained",
            TraceEventKind::NodeKilled => "node_killed",
            TraceEventKind::NodeRevived => "node_revived",
            TraceEventKind::HarqReset => "harq_reset",
            TraceEventKind::SlotDeadlineMiss => "slot_deadline_miss",
            TraceEventKind::UlSlotProcessed => "ul_slot_processed",
            TraceEventKind::FapiToL2 => "fapi_to_l2",
            TraceEventKind::SpareRequested => "spare_requested",
            TraceEventKind::SpareGranted => "spare_granted",
            TraceEventKind::SpareReturned => "spare_returned",
            TraceEventKind::StandbyRepaired => "standby_repaired",
            TraceEventKind::HandoverArmed => "handover_armed",
            TraceEventKind::HandoverFlip => "handover_flip",
            TraceEventKind::UeScheduled => "ue_scheduled",
        }
    }

    /// Perfetto category, used to group related rows when filtering.
    pub(crate) fn category(self) -> &'static str {
        match self {
            TraceEventKind::HeartbeatSeen
            | TraceEventKind::DetectorArmed
            | TraceEventKind::DetectorTick
            | TraceEventKind::DetectorSaturated
            | TraceEventKind::FailureNotifySent => "detector",
            TraceEventKind::FailureNotifyReceived
            | TraceEventKind::NullFapiSent
            | TraceEventKind::DupResponseDropped
            | TraceEventKind::PipelinedSlotDrained => "orion",
            TraceEventKind::MigrateArmed | TraceEventKind::MapFlip | TraceEventKind::DlFiltered => {
                "switch"
            }
            TraceEventKind::NodeKilled | TraceEventKind::NodeRevived => "lifecycle",
            TraceEventKind::SpareRequested
            | TraceEventKind::SpareGranted
            | TraceEventKind::SpareReturned
            | TraceEventKind::StandbyRepaired => "recovery",
            TraceEventKind::FapiToL2 => "orion",
            TraceEventKind::HandoverArmed | TraceEventKind::HandoverFlip => "handover",
            TraceEventKind::HarqReset
            | TraceEventKind::SlotDeadlineMiss
            | TraceEventKind::UlSlotProcessed
            | TraceEventKind::UeScheduled => "ran",
        }
    }
}

/// One trace record. 40 bytes, `Copy`, written into the engine's ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub at: Nanos,
    /// Node that emitted it ([`NodeId::EXTERNAL`] for harness actions).
    pub node: NodeId,
    /// NR slot identity at `at` (or carried in the triggering packet).
    pub slot: SlotId,
    pub kind: TraceEventKind,
    /// First payload word; meaning is per-kind (see [`TraceEventKind`]).
    pub a: u64,
    /// Second payload word; meaning is per-kind.
    pub b: u64,
}

impl TraceEvent {
    /// Deterministic 40-byte little-endian encoding, the unit of
    /// [`TraceBuffer::to_bytes`] and [`TraceBuffer::hash`].
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.at.0.to_le_bytes());
        out.extend_from_slice(&(self.node.0 as u64).to_le_bytes());
        out.extend_from_slice(&self.slot.sfn.to_le_bytes());
        out.push(self.slot.subframe);
        out.push(self.slot.slot);
        out.extend_from_slice(&(self.kind as u16).to_le_bytes());
        out.extend_from_slice(&[0u8; 2]); // padding for alignment/stability
        out.extend_from_slice(&self.a.to_le_bytes());
        out.extend_from_slice(&self.b.to_le_bytes());
    }
}

/// Default ring capacity: enough for every lifecycle event of a
/// multi-second failover run (~25k events) with a wide margin, while
/// bounding memory at ~10 MB even for pathological instrumentation.
pub(crate) const DEFAULT_TRACE_CAPACITY: usize = 262_144;

/// Bounded ring buffer of [`TraceEvent`]s owned by the engine.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    /// Events evicted because the ring was full.
    dropped_oldest: u64,
    /// Total events ever recorded (including evicted ones).
    total: u64,
    /// Clock used to stamp events with their slot identity.
    clock: SlotClock,
    /// Bitmask over [`TraceEventKind`] discriminants; a record whose
    /// kind bit is clear is silently ignored. `!0` (the default)
    /// records everything.
    kind_mask: u64,
}

impl Default for TraceBuffer {
    fn default() -> TraceBuffer {
        TraceBuffer::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceBuffer {
    pub fn new(capacity: usize) -> TraceBuffer {
        TraceBuffer {
            events: VecDeque::new(),
            capacity: capacity.max(1),
            dropped_oldest: 0,
            total: 0,
            clock: SlotClock::new(Nanos::ZERO),
            kind_mask: !0,
        }
    }

    /// Restrict recording to the given kinds; anything else is dropped
    /// at the record call, before it can occupy ring space. Off by
    /// default (everything is recorded). Long-horizon harnesses that
    /// only consume the failover/delivery subset use this so a
    /// million-slot run fits in a modest ring instead of needing
    /// gigabytes — note that per-kind helpers over other kinds will see
    /// nothing, and the byte stream/hash reflect only the kept kinds.
    pub fn set_kind_filter(&mut self, kinds: &[TraceEventKind]) {
        self.kind_mask = kinds.iter().fold(0u64, |m, k| m | 1u64 << (*k as u16));
    }

    /// Change the ring capacity, evicting oldest events if shrinking.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.events.len() > self.capacity {
            self.events.pop_front();
            self.dropped_oldest += 1;
        }
    }

    pub fn clock(&self) -> SlotClock {
        self.clock
    }

    /// Record an event whose slot is derived from `at` via the engine's
    /// slot clock.
    pub fn record(&mut self, at: Nanos, node: NodeId, kind: TraceEventKind, a: u64, b: u64) {
        let slot = self.clock.slot_id(at);
        self.record_at_slot(at, node, slot, kind, a, b);
    }

    /// Record an event with an explicit slot identity (for events whose
    /// slot is carried in a packet header rather than derived from the
    /// arrival time).
    pub(crate) fn record_at_slot(
        &mut self,
        at: Nanos,
        node: NodeId,
        slot: SlotId,
        kind: TraceEventKind,
        a: u64,
        b: u64,
    ) {
        if self.kind_mask & (1u64 << (kind as u16)) == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped_oldest += 1;
        }
        self.events.push_back(TraceEvent {
            at,
            node,
            slot,
            kind,
            a,
            b,
        });
        self.total += 1;
    }

    /// Make this buffer a lane's staging area for `global`: same slot
    /// clock and kind filter, and unbounded — it is drained into
    /// `global` at every barrier, and only `global`'s ring may evict.
    pub(crate) fn stage_for(&mut self, global: &TraceBuffer) {
        self.clock = global.clock;
        self.kind_mask = global.kind_mask;
        self.capacity = usize::MAX;
    }

    /// Take every buffered event out, preserving record order, into a
    /// caller-owned buffer, so barrier merges can reuse one scratch
    /// `Vec` across slots instead of allocating per call. The
    /// `total`/`dropped_oldest` accounting is *not* reset: a staging
    /// buffer's totals keep accumulating across drains, so every lane
    /// count reports the same totals.
    pub(crate) fn drain_events_into(&mut self, out: &mut Vec<TraceEvent>) {
        out.extend(self.events.drain(..));
    }

    /// Append an already-built event (from a lane's staging buffer),
    /// bypassing the kind filter — staging already applied it — but
    /// honoring ring capacity.
    pub(crate) fn append_event(&mut self, ev: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped_oldest += 1;
        }
        self.events.push_back(ev);
        self.total += 1;
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events ever recorded, including ones evicted from the ring.
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Events evicted because the ring was full (0 in a healthy run).
    pub(crate) fn dropped_oldest(&self) -> u64 {
        self.dropped_oldest
    }

    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Events of one kind, in record order.
    pub fn of_kind(&self, kind: TraceEventKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped_oldest = 0;
        self.total = 0;
    }

    /// Deterministic binary encoding of the whole trace. Two same-seed
    /// runs must produce byte-identical output.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.events.len() * 40);
        for ev in &self.events {
            ev.encode(&mut out);
        }
        out
    }

    /// FNV-1a hash over [`TraceBuffer::to_bytes`]; the cheap equality
    /// check used by determinism tests.
    pub fn hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.to_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Write Chrome `trace_event` JSON (the "JSON Array Format" plus
    /// process/thread metadata), loadable in `chrome://tracing` and
    /// Perfetto. Each node becomes a thread named after
    /// `node_names[id]`; events are instant events with their payload
    /// words and slot identity in `args`.
    pub fn write_chrome_trace<W: Write>(&self, w: &mut W, node_names: &[String]) -> io::Result<()> {
        writeln!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
        writeln!(
            w,
            " {{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{{\"name\":\"slingshot-sim\"}}}}"
        )?;
        let mut tids_seen: BTreeMap<usize, &str> = BTreeMap::new();
        for ev in &self.events {
            let tid = tid_for(ev.node);
            tids_seen.entry(tid).or_insert_with(|| {
                node_names.get(ev.node.0).map(String::as_str).unwrap_or(
                    if ev.node == NodeId::EXTERNAL {
                        "harness"
                    } else {
                        "?"
                    },
                )
            });
        }
        for (tid, name) in &tids_seen {
            writeln!(
                w,
                ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape_json(name)
            )?;
        }
        for ev in &self.events {
            // ts is microseconds; keep nanosecond precision in the
            // fraction so relative timestamps stay exact.
            let us = ev.at.0 / 1_000;
            let frac = ev.at.0 % 1_000;
            writeln!(
                w,
                ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{us}.{frac:03},\"pid\":0,\"tid\":{},\
                 \"args\":{{\"a\":{},\"b\":{},\"slot\":\"{}\"}}}}",
                ev.kind.as_str(),
                ev.kind.category(),
                tid_for(ev.node),
                ev.a,
                ev.b,
                ev.slot,
            )?;
        }
        writeln!(w, "]}}")
    }

    /// Human-readable timeline, one line per event.
    pub fn write_summary<W: Write>(&self, w: &mut W, node_names: &[String]) -> io::Result<()> {
        writeln!(
            w,
            "trace: {} events ({} recorded, {} evicted)",
            self.events.len(),
            self.total,
            self.dropped_oldest
        )?;
        if self.dropped_oldest > 0 {
            writeln!(
                w,
                "WARNING: ring wrapped — the oldest {} events were evicted; \
                 this summary (and anything derived from it) covers a \
                 TRUNCATED window of the run",
                self.dropped_oldest
            )?;
        }
        for ev in &self.events {
            let name = node_names.get(ev.node.0).map(String::as_str).unwrap_or(
                if ev.node == NodeId::EXTERNAL {
                    "harness"
                } else {
                    "?"
                },
            );
            writeln!(
                w,
                "{:>14}  slot {:>9}  {:<12} {:<24} a={} b={}",
                format!("{}", ev.at),
                format!("{}", ev.slot),
                name,
                ev.kind.as_str(),
                ev.a,
                ev.b
            )?;
        }
        Ok(())
    }
}

/// Chrome trace thread id for a node (EXTERNAL gets a high sentinel).
fn tid_for(node: NodeId) -> usize {
    if node == NodeId::EXTERNAL {
        9_999
    } else {
        node.0 + 1
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A failure detection measured from the trace: the saturation event
/// plus the latency back to the last heartbeat it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detection {
    /// PHY whose failure was detected.
    pub phy: u64,
    /// Time the detector saturated (failure declared).
    pub at: Nanos,
    /// Arrival time of the last heartbeat from that PHY.
    pub last_heartbeat: Nanos,
}

impl Detection {
    /// Detection latency as the paper defines it: declaration time
    /// minus last heartbeat arrival (§5.2; ≤ T = 450 µs by design).
    pub fn latency(&self) -> Nanos {
        self.at.saturating_sub(self.last_heartbeat)
    }
}

/// Extract every failure detection from a trace. `DetectorSaturated`
/// events carry the last-heartbeat arrival in their `b` payload.
pub fn detections<'a, I: IntoIterator<Item = &'a TraceEvent>>(events: I) -> Vec<Detection> {
    events
        .into_iter()
        .filter(|e| e.kind == TraceEventKind::DetectorSaturated)
        .map(|e| Detection {
            phy: e.a,
            at: e.at,
            last_heartbeat: Nanos(e.b),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, kind: TraceEventKind, a: u64, b: u64) -> TraceEvent {
        TraceEvent {
            at: Nanos(at),
            node: NodeId(1),
            slot: SlotId::ZERO,
            kind,
            a,
            b,
        }
    }

    #[test]
    fn ring_bounds_memory_and_counts_evictions() {
        let mut t = TraceBuffer::new(4);
        for i in 0..10 {
            t.record(Nanos(i), NodeId(0), TraceEventKind::HeartbeatSeen, i, 0);
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.total_recorded(), 10);
        assert_eq!(t.dropped_oldest(), 6);
        let first = t.iter().next().unwrap();
        assert_eq!(first.a, 6, "oldest events evicted first");
    }

    #[test]
    fn summary_warns_when_ring_wrapped() {
        let mut t = TraceBuffer::new(4);
        for i in 0..3 {
            t.record(Nanos(i), NodeId(0), TraceEventKind::HeartbeatSeen, i, 0);
        }
        let mut out = Vec::new();
        t.write_summary(&mut out, &[]).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(!text.contains("WARNING"), "no warning before eviction");
        for i in 3..10 {
            t.record(Nanos(i), NodeId(0), TraceEventKind::HeartbeatSeen, i, 0);
        }
        let mut out = Vec::new();
        t.write_summary(&mut out, &[]).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("WARNING"), "wrapped ring must warn: {text}");
        assert!(text.contains("TRUNCATED"));
    }

    #[test]
    fn kind_filter_drops_unlisted_kinds_without_counting_them() {
        let mut t = TraceBuffer::new(16);
        t.set_kind_filter(&[TraceEventKind::MapFlip, TraceEventKind::UlSlotProcessed]);
        t.record(Nanos(1), NodeId(0), TraceEventKind::HeartbeatSeen, 1, 0);
        t.record(Nanos(2), NodeId(0), TraceEventKind::MapFlip, 0, 3);
        t.record(Nanos(3), NodeId(0), TraceEventKind::UlSlotProcessed, 5, 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.total_recorded(), 2, "filtered events are not 'recorded'");
        assert_eq!(t.dropped_oldest(), 0, "filtering is not eviction");
        assert_eq!(t.of_kind(TraceEventKind::HeartbeatSeen).count(), 0);
    }

    #[test]
    fn encoding_is_stable_and_hash_discriminates() {
        let mut t1 = TraceBuffer::new(16);
        let mut t2 = TraceBuffer::new(16);
        for t in [&mut t1, &mut t2] {
            t.record(
                Nanos(500_000),
                NodeId(3),
                TraceEventKind::MapFlip,
                0,
                (1 << 16) | 2,
            );
        }
        assert_eq!(t1.to_bytes(), t2.to_bytes());
        assert_eq!(t1.hash(), t2.hash());
        t2.record(Nanos(600_000), NodeId(3), TraceEventKind::DlFiltered, 1, 0);
        assert_ne!(t1.hash(), t2.hash());
        assert_eq!(t1.to_bytes().len(), 40);
    }

    #[test]
    fn slot_stamped_from_clock() {
        let mut t = TraceBuffer::default();
        // 500 µs slots: t=1.25 ms is absolute slot 2 = sfn 0, subframe 1, slot 0.
        t.record(
            Nanos(1_250_000),
            NodeId(0),
            TraceEventKind::HeartbeatSeen,
            0,
            0,
        );
        let e = t.iter().next().unwrap();
        assert_eq!((e.slot.sfn, e.slot.subframe, e.slot.slot), (0, 1, 0));
    }

    #[test]
    fn detection_latency_from_trace() {
        let events = [
            ev(100_000, TraceEventKind::HeartbeatSeen, 1, 0),
            ev(550_000, TraceEventKind::DetectorSaturated, 1, 100_000),
        ];
        let d = detections(events.iter());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].latency(), Nanos(450_000));
        assert_eq!(d[0].phy, 1);
    }

    #[test]
    fn chrome_trace_is_wellformed_json_shape() {
        let mut t = TraceBuffer::new(16);
        t.record(Nanos(1_000), NodeId(0), TraceEventKind::NodeKilled, 0, 0);
        t.record(Nanos(2_500), NodeId(1), TraceEventKind::MapFlip, 0, 2);
        let mut out = Vec::new();
        t.write_chrome_trace(&mut out, &["switch".into(), "orion".into()])
            .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("{\"displayTimeUnit\""));
        assert!(s.trim_end().ends_with("]}"));
        assert!(s.contains("\"name\":\"map_flip\""));
        assert!(s.contains("\"ts\":1.000"));
        assert!(s.contains("\"ts\":2.500"));
        assert!(s.contains("\"name\":\"orion\""));
        // Balanced braces (cheap well-formedness check without a parser).
        let open = s.matches('{').count();
        let close = s.matches('}').count();
        assert_eq!(open, close);
    }
}
