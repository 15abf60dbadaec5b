//! RLC unacknowledged-mode (UM) segmentation and windowed reassembly.
//!
//! The MAC packs variable-size user packets into fixed-budget transport
//! blocks; RLC UM provides sequence numbers and segmentation so packets
//! can span TBs. The receiver reassembles out-of-order arrivals within
//! a reordering window (HARQ retransmissions reorder TBs by several
//! slots) and delivers packets **in order**, skipping a gap only after
//! the t-Reassembly timeout — exactly the role RLC UM's reassembly
//! window plays in real stacks, and the reason TCP above never sees
//! HARQ-induced reordering, only residual loss.

use bytes::{Buf, BufMut, Bytes};
use std::collections::{BTreeMap, VecDeque};

use slingshot_sim::Nanos;

/// Default t-Reassembly: covers two HARQ retransmission rounds
/// (~3.5 ms feedback round trip each). Chosen low enough that a gap
/// skip stays within the paper's 10 ms availability target; TBs that
/// need a third or fourth HARQ attempt (≲0.3% at the operating BLER)
/// surface as residual loss, as in real low-latency RLC configs.
pub(crate) const T_REASSEMBLY: Nanos = Nanos::from_millis(10);

/// One RLC PDU header: sequence number plus segmentation flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RlcPdu {
    /// Per-packet sequence number (all segments of a packet share it).
    pub sn: u16,
    /// Byte offset of this segment within the packet.
    pub so: u16,
    /// Last segment of the packet.
    pub last: bool,
    pub payload: Bytes,
}

impl RlcPdu {
    pub const HEADER_LEN: usize = 7;

    pub(crate) fn wire_len(&self) -> usize {
        Self::HEADER_LEN + self.payload.len()
    }

    fn write(&self, buf: &mut Vec<u8>) {
        buf.put_u16(self.sn);
        buf.put_u16(self.so);
        buf.put_u8(self.last as u8);
        buf.put_u16(self.payload.len() as u16);
        buf.extend_from_slice(&self.payload);
    }

    fn read(buf: &mut impl Buf) -> Option<RlcPdu> {
        if buf.remaining() < Self::HEADER_LEN {
            return None;
        }
        let sn = buf.get_u16();
        let so = buf.get_u16();
        let last = buf.get_u8() != 0;
        let len = buf.get_u16() as usize;
        if buf.remaining() < len {
            return None;
        }
        Some(RlcPdu {
            sn,
            so,
            last,
            payload: buf.copy_to_bytes(len),
        })
    }
}

/// Transmit-side RLC: queues packets, emits TB-sized PDU batches.
#[derive(Debug, Default)]
pub struct RlcTx {
    queue: VecDeque<Bytes>,
    next_sn: u16,
    /// Offset already sent of the packet at the queue head.
    head_offset: usize,
    /// Total bytes currently queued (including the unsent remainder of
    /// the head packet).
    queued_bytes: usize,
}

impl RlcTx {
    pub fn new() -> RlcTx {
        RlcTx::default()
    }

    /// Enqueue a user packet for transmission.
    pub fn enqueue(&mut self, packet: Bytes) {
        self.queued_bytes += packet.len();
        self.queue.push_back(packet);
    }

    /// Bytes waiting (buffer status for the scheduler).
    pub fn backlog(&self) -> usize {
        self.queued_bytes
    }

    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Fill up to `budget` bytes with PDUs (headers included) and
    /// serialize them into a MAC SDU. Returns `None` when nothing is
    /// queued.
    pub fn build_tb(&mut self, budget: usize) -> Option<Bytes> {
        if self.queue.is_empty() || budget <= RlcPdu::HEADER_LEN {
            return None;
        }
        let mut out = Vec::with_capacity(budget.min(65_536));
        let mut remaining = budget;
        while remaining > RlcPdu::HEADER_LEN + 1 {
            let Some(head) = self.queue.front() else {
                break;
            };
            let head_len = head.len();
            let avail = head_len - self.head_offset;
            let take = avail.min(remaining - RlcPdu::HEADER_LEN);
            if take == 0 {
                break;
            }
            let seg = head.slice(self.head_offset..self.head_offset + take);
            let last = self.head_offset + take == head_len;
            let pdu = RlcPdu {
                sn: self.next_sn,
                so: self.head_offset as u16,
                last,
                payload: seg,
            };
            pdu.write(&mut out);
            remaining -= pdu.wire_len();
            self.queued_bytes -= take;
            if last {
                self.queue.pop_front();
                self.head_offset = 0;
                self.next_sn = self.next_sn.wrapping_add(1);
            } else {
                self.head_offset += take;
            }
        }
        if out.is_empty() {
            None
        } else {
            Some(Bytes::from(out))
        }
    }
}

/// One packet being assembled from segments.
#[derive(Debug)]
struct Asm {
    /// Segments by byte offset.
    segs: BTreeMap<u16, Bytes>,
    /// Total length, known once the `last` segment arrives.
    total: Option<usize>,
    first_seen: Nanos,
}

impl Asm {
    fn new(now: Nanos) -> Asm {
        Asm {
            segs: BTreeMap::new(),
            total: None,
            first_seen: now,
        }
    }

    fn add(&mut self, pdu: &RlcPdu) {
        if pdu.last {
            self.total = Some(pdu.so as usize + pdu.payload.len());
        }
        self.segs.insert(pdu.so, pdu.payload.clone());
    }

    /// Contiguous from offset 0 through the known total?
    fn assemble(&self) -> Option<Bytes> {
        let total = self.total?;
        let mut out = Vec::with_capacity(total);
        for (so, seg) in &self.segs {
            let so = *so as usize;
            if so > out.len() {
                return None; // hole
            }
            if so + seg.len() > out.len() {
                out.extend_from_slice(&seg[out.len() - so..]);
            }
        }
        if out.len() == total {
            Some(Bytes::from(out))
        } else {
            None
        }
    }
}

/// Receive-side RLC UM with a reordering/reassembly window.
#[derive(Debug)]
pub struct RlcRx {
    t_reassembly: Nanos,
    /// Deliver strictly in SN order (hold complete packets behind a
    /// gap until t-Reassembly). Real deployments configure this per
    /// bearer: TCP-style bearers want in-order delivery (PDCP
    /// reordering); UDP/RTP bearers deliver complete SDUs immediately.
    ordered: bool,
    /// Next (unwrapped) SN to deliver.
    expected: u32,
    /// SNs ≥ `expected` already delivered out of order (dedup guard).
    delivered_set: std::collections::BTreeSet<u32>,
    /// Highest unwrapped SN seen, for 16-bit wrap resolution.
    highest: u32,
    started: bool,
    pending: BTreeMap<u32, Asm>,
    /// Packets abandoned (gap timeout or stale fragments).
    pub discarded: u64,
    pub delivered: u64,
}

impl Default for RlcRx {
    fn default() -> Self {
        RlcRx::new()
    }
}

impl RlcRx {
    pub fn new() -> RlcRx {
        RlcRx::with_timeout(T_REASSEMBLY)
    }

    pub(crate) fn with_timeout(t_reassembly: Nanos) -> RlcRx {
        RlcRx {
            t_reassembly,
            ordered: true,
            expected: 0,
            delivered_set: std::collections::BTreeSet::new(),
            highest: 0,
            started: false,
            pending: BTreeMap::new(),
            discarded: 0,
            delivered: 0,
        }
    }

    /// Unordered-delivery bearer (UDP/RTP style): complete packets are
    /// delivered immediately; the window only assembles segments.
    pub fn unordered() -> RlcRx {
        RlcRx {
            ordered: false,
            ..RlcRx::new()
        }
    }

    /// Resolve a wire SN to an unwrapped sequence near the highest seen.
    fn unwrap_sn(&mut self, sn: u16) -> u32 {
        if !self.started {
            return sn as u32;
        }
        let h = self.highest as i64;
        let base = h & !0xFFFF;
        let mut best = base | sn as i64;
        for cand in [best - 0x1_0000, best + 0x1_0000] {
            if cand >= 0 && (cand - h).abs() < (best - h).abs() {
                best = cand;
            }
        }
        best.max(0) as u32
    }

    /// Consume one received TB payload at time `now`; returns packets
    /// deliverable in order.
    pub fn on_tb(&mut self, now: Nanos, tb: &[u8]) -> Vec<Bytes> {
        let mut buf = tb;
        while let Some(pdu) = RlcPdu::read(&mut buf) {
            // MAC padding parses as empty non-final segments: stop.
            if pdu.payload.is_empty() && !pdu.last {
                break;
            }
            let sn = self.unwrap_sn(pdu.sn);
            if !self.started {
                self.started = true;
                self.expected = sn;
                self.highest = sn;
            }
            self.highest = self.highest.max(sn);
            if sn < self.expected || self.delivered_set.contains(&sn) {
                continue; // duplicate/stale (late HARQ copy)
            }
            self.pending
                .entry(sn)
                .or_insert_with(|| Asm::new(now))
                .add(&pdu);
        }
        self.drain(now)
    }

    /// Timer hook: deliver or skip past gaps whose t-Reassembly expired.
    pub fn poll_expired(&mut self, now: Nanos) -> Vec<Bytes> {
        self.drain(now)
    }

    fn drain(&mut self, now: Nanos) -> Vec<Bytes> {
        if !self.ordered {
            return self.drain_unordered(now);
        }
        let mut out = Vec::new();
        loop {
            // In-order completions first.
            if let Some(asm) = self.pending.get(&self.expected) {
                if let Some(b) = asm.assemble() {
                    self.pending.remove(&self.expected);
                    self.expected += 1;
                    self.delivered += 1;
                    out.push(b);
                    continue;
                }
            }
            // Stalled. Has the window waited long enough to skip?
            let oldest = self.pending.values().map(|a| a.first_seen).min();
            let expired = matches!(
                oldest,
                Some(t0) if now.saturating_sub(t0) >= self.t_reassembly
            );
            if !expired {
                break;
            }
            // Skip to the first complete pending packet, discarding the
            // gap (and any incomplete fragments inside it).
            let next_complete = self
                .pending
                .iter()
                .find_map(|(sn, a)| a.assemble().map(|b| (*sn, b)));
            match next_complete {
                Some((sn, b)) => {
                    let dropped_fragments = self.pending.range(..sn).count() as u64;
                    let missing = (sn - self.expected) as u64;
                    self.discarded += missing.max(dropped_fragments);
                    let stale: Vec<u32> = self.pending.range(..=sn).map(|(k, _)| *k).collect();
                    for k in stale {
                        self.pending.remove(&k);
                    }
                    self.expected = sn + 1;
                    self.delivered += 1;
                    out.push(b);
                }
                None => {
                    // Nothing assemblable: drop expired fragments.
                    let stale: Vec<u32> = self
                        .pending
                        .iter()
                        .filter(|(_, a)| now.saturating_sub(a.first_seen) >= self.t_reassembly)
                        .map(|(k, _)| *k)
                        .collect();
                    if stale.is_empty() {
                        break;
                    }
                    let past = stale.iter().max().unwrap() + 1;
                    for k in stale {
                        self.pending.remove(&k);
                        self.discarded += 1;
                    }
                    self.expected = self.expected.max(past);
                }
            }
        }
        out
    }
}

impl RlcRx {
    /// Unordered drain: deliver every complete packet now; GC stale
    /// fragments and advance the duplicate-suppression window.
    fn drain_unordered(&mut self, now: Nanos) -> Vec<Bytes> {
        let mut out = Vec::new();
        let complete: Vec<u32> = self
            .pending
            .iter()
            .filter(|(_, a)| a.assemble().is_some())
            .map(|(sn, _)| *sn)
            .collect();
        for sn in complete {
            let asm = self.pending.remove(&sn).expect("present");
            out.push(asm.assemble().expect("complete"));
            self.delivered += 1;
            self.delivered_set.insert(sn);
        }
        // Expire incomplete fragments.
        let stale: Vec<u32> = self
            .pending
            .iter()
            .filter(|(_, a)| now.saturating_sub(a.first_seen) >= self.t_reassembly)
            .map(|(k, _)| *k)
            .collect();
        for k in stale {
            self.pending.remove(&k);
            self.discarded += 1;
            self.delivered_set.insert(k); // never resurrect
        }
        // Advance the dedup window past contiguous delivered SNs.
        while self.delivered_set.remove(&self.expected) {
            self.expected += 1;
        }
        // Bound the dedup set (duplicates arrive within the HARQ
        // horizon, far less than 1024 SNs).
        while self.delivered_set.len() > 1024 {
            let first = *self.delivered_set.iter().next().expect("nonempty");
            self.delivered_set.remove(&first);
            self.expected = self.expected.max(first + 1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn packet(n: usize, tag: u8) -> Bytes {
        Bytes::from(vec![tag; n])
    }

    fn t(ms: u64) -> Nanos {
        Nanos(ms * MS)
    }

    #[test]
    fn single_packet_single_tb() {
        let mut tx = RlcTx::new();
        let mut rx = RlcRx::new();
        tx.enqueue(packet(100, 1));
        let tb = tx.build_tb(200).unwrap();
        assert_eq!(rx.on_tb(t(0), &tb), vec![packet(100, 1)]);
        assert!(tx.is_empty());
    }

    #[test]
    fn packet_spans_multiple_tbs() {
        let mut tx = RlcTx::new();
        let mut rx = RlcRx::new();
        tx.enqueue(packet(1000, 2));
        let mut got = Vec::new();
        let mut tbs = 0;
        while let Some(tb) = tx.build_tb(300) {
            got.extend(rx.on_tb(t(tbs), &tb));
            tbs += 1;
            assert!(tbs < 10);
        }
        assert_eq!(got, vec![packet(1000, 2)]);
        assert!(tbs >= 4);
    }

    #[test]
    fn multiple_packets_packed_into_one_tb() {
        let mut tx = RlcTx::new();
        let mut rx = RlcRx::new();
        for i in 0..5 {
            tx.enqueue(packet(50, i));
        }
        let tb = tx.build_tb(1000).unwrap();
        let got = rx.on_tb(t(0), &tb);
        assert_eq!(got.len(), 5);
        for (i, p) in got.iter().enumerate() {
            assert_eq!(p, &packet(50, i as u8));
        }
    }

    #[test]
    fn backlog_tracks_bytes() {
        let mut tx = RlcTx::new();
        tx.enqueue(packet(100, 1));
        tx.enqueue(packet(200, 2));
        assert_eq!(tx.backlog(), 300);
        let _ = tx.build_tb(150);
        assert!(tx.backlog() < 300);
    }

    #[test]
    fn out_of_order_tbs_reassemble_without_loss() {
        // The HARQ case: TB_n is retransmitted and arrives *after*
        // TB_{n+1}. The windowed reassembler must deliver everything,
        // in order.
        let mut tx = RlcTx::new();
        let mut rx = RlcRx::new();
        tx.enqueue(packet(600, 3)); // spans tb1+tb2
        tx.enqueue(packet(100, 4));
        let tb1 = tx.build_tb(300).unwrap();
        let tb2 = tx.build_tb(300).unwrap();
        let tb3 = tx.build_tb(300).unwrap();
        let mut got = Vec::new();
        got.extend(rx.on_tb(t(0), &tb1));
        got.extend(rx.on_tb(t(1), &tb3)); // arrives early
        assert!(got.is_empty(), "must hold for in-order delivery");
        got.extend(rx.on_tb(t(5), &tb2)); // HARQ retx lands
        assert_eq!(got, vec![packet(600, 3), packet(100, 4)]);
        assert_eq!(rx.discarded, 0);
    }

    #[test]
    fn gap_skipped_after_t_reassembly() {
        let mut tx = RlcTx::new();
        let mut rx = RlcRx::new();
        tx.enqueue(packet(100, 1));
        tx.enqueue(packet(100, 2));
        tx.enqueue(packet(100, 3));
        // Budget sized to exactly one packet + header per TB.
        let tb1 = tx.build_tb(107).unwrap();
        let _tb2 = tx.build_tb(107).unwrap(); // lost forever
        let tb3 = tx.build_tb(107).unwrap();
        assert_eq!(rx.on_tb(t(0), &tb1), vec![packet(100, 1)]);
        assert!(rx.on_tb(t(1), &tb3).is_empty(), "held for packet 2");
        // Before the timeout: still held.
        assert!(rx.poll_expired(t(5)).is_empty());
        // After: gap skipped, packet 3 delivered, loss counted.
        assert_eq!(rx.poll_expired(t(15)), vec![packet(100, 3)]);
        assert_eq!(rx.discarded, 1);
    }

    #[test]
    fn duplicate_tb_is_harmless() {
        let mut tx = RlcTx::new();
        let mut rx = RlcRx::new();
        tx.enqueue(packet(100, 7));
        let tb = tx.build_tb(200).unwrap();
        assert_eq!(rx.on_tb(t(0), &tb).len(), 1);
        assert!(rx.on_tb(t(1), &tb).is_empty(), "duplicate ignored");
        assert_eq!(rx.delivered, 1);
    }

    #[test]
    fn empty_queue_builds_nothing() {
        let mut tx = RlcTx::new();
        assert!(tx.build_tb(100).is_none());
        tx.enqueue(packet(10, 1));
        assert!(tx.build_tb(RlcPdu::HEADER_LEN).is_none());
    }

    #[test]
    fn garbage_and_padding_yield_nothing() {
        let mut rx = RlcRx::new();
        assert!(rx.on_tb(t(0), &[0xFF; 3]).is_empty());
        // All-zero padding parses as an empty non-final PDU: ignored.
        assert!(rx.on_tb(t(0), &[0u8; 64]).is_empty());
        assert_eq!(rx.pending.len(), 0);
    }

    #[test]
    fn padding_after_data_does_not_disturb_window() {
        let mut tx = RlcTx::new();
        let mut rx = RlcRx::new();
        tx.enqueue(packet(50, 1));
        let mut tb = tx.build_tb(200).unwrap().to_vec();
        tb.resize(300, 0); // MAC padding
        assert_eq!(rx.on_tb(t(0), &tb), vec![packet(50, 1)]);
        tx.enqueue(packet(50, 2));
        let tb2 = tx.build_tb(200).unwrap();
        assert_eq!(rx.on_tb(t(1), &tb2), vec![packet(50, 2)]);
        assert_eq!(rx.discarded, 0);
    }

    #[test]
    fn sn_wraparound_is_transparent() {
        let mut tx = RlcTx::new();
        let mut rx = RlcRx::new();
        // Force the TX sequence near the wrap point.
        tx.next_sn = u16::MAX - 2;
        let mut got = Vec::new();
        for i in 0..6 {
            tx.enqueue(packet(40, i));
            let tb = tx.build_tb(100).unwrap();
            got.extend(rx.on_tb(t(i as u64), &tb));
        }
        assert_eq!(got.len(), 6);
        assert_eq!(rx.discarded, 0);
    }

    #[test]
    fn sustained_loss_recovers_each_time() {
        let mut tx = RlcTx::new();
        let mut rx = RlcRx::new();
        let mut delivered = 0;
        let mut now = 0u64;
        for round in 0..20u64 {
            for i in 0..5 {
                tx.enqueue(packet(400, i));
            }
            let mut i = 0;
            while let Some(tb) = tx.build_tb(250) {
                i += 1;
                now += 1;
                if i % 5 == 0 {
                    continue; // drop every 5th TB
                }
                delivered += rx.on_tb(t(now), &tb).len();
            }
            // Allow timeouts to release held packets.
            now += 30;
            delivered += rx.poll_expired(t(now)).len();
            let _ = round;
        }
        assert!(delivered >= 50, "delivered={delivered}");
        assert!(rx.discarded >= 10);
    }

    #[test]
    fn unordered_mode_delivers_immediately_past_gaps() {
        let mut tx = RlcTx::new();
        let mut rx = RlcRx::unordered();
        tx.enqueue(packet(100, 1));
        tx.enqueue(packet(100, 2));
        tx.enqueue(packet(100, 3));
        let tb1 = tx.build_tb(107).unwrap();
        let _tb2 = tx.build_tb(107).unwrap(); // lost
        let tb3 = tx.build_tb(107).unwrap();
        assert_eq!(rx.on_tb(t(0), &tb1), vec![packet(100, 1)]);
        // Packet 3 delivered immediately despite the gap at SN 1.
        assert_eq!(rx.on_tb(t(1), &tb3), vec![packet(100, 3)]);
    }

    #[test]
    fn unordered_mode_suppresses_duplicates() {
        let mut tx = RlcTx::new();
        let mut rx = RlcRx::unordered();
        tx.enqueue(packet(100, 7));
        let tb = tx.build_tb(200).unwrap();
        assert_eq!(rx.on_tb(t(0), &tb).len(), 1);
        assert!(rx.on_tb(t(1), &tb).is_empty());
        assert!(rx.on_tb(t(30), &tb).is_empty());
        assert_eq!(rx.delivered, 1);
    }

    #[test]
    fn interleaved_segments_of_same_packet_duplicate_offsets() {
        // Chase-combining HARQ can deliver the same TB twice; same
        // offsets must overwrite cleanly.
        let mut tx = RlcTx::new();
        let mut rx = RlcRx::new();
        tx.enqueue(packet(500, 9));
        let tb1 = tx.build_tb(300).unwrap();
        let tb2 = tx.build_tb(300).unwrap();
        let mut got = Vec::new();
        got.extend(rx.on_tb(t(0), &tb1));
        got.extend(rx.on_tb(t(1), &tb1)); // duplicate first half
        got.extend(rx.on_tb(t(2), &tb2));
        assert_eq!(got, vec![packet(500, 9)]);
    }
}
