//! A miniature TCP (Reno) implementation: slow start, congestion
//! avoidance, fast retransmit/recovery on triple duplicate ACKs, and an
//! RTO with exponential backoff.
//!
//! This exists to reproduce the *mechanism* behind Fig. 10b: when a PHY
//! failover drops a few TTIs of uplink, TCP's in-order delivery stalls
//! the receiver until the sender's RTO fires, then the retransmission
//! burst arrives all at once (the paper's 157 Mbps spike). Payload
//! content is zero-filled (iperf-style), so the sender retransmits from
//! sequence ranges without buffering data.

use bytes::{Buf, BufMut, Bytes};
use std::collections::BTreeMap;

use slingshot_sim::{Nanos, RateBins};

use crate::app::UserApp;

/// Segment header magic values.
const DATA_MAGIC: u8 = 0xC1;
const ACK_MAGIC: u8 = 0xC2;

/// Fixed maximum segment size (payload bytes).
pub(crate) const MSS: usize = 1400;

const DATA_HEADER: usize = 1 + 8 + 8 + 2;
const ACK_LEN: usize = 1 + 8 + 8;

fn encode_data(seq: u64, ts: Nanos, len: usize) -> Bytes {
    let mut v = Vec::with_capacity(DATA_HEADER + len);
    v.put_u8(DATA_MAGIC);
    v.put_u64(seq);
    v.put_u64(ts.0);
    v.put_u16(len as u16);
    v.resize(DATA_HEADER + len, 0);
    Bytes::from(v)
}

fn encode_ack(ack: u64, echo_ts: Nanos) -> Bytes {
    let mut v = Vec::with_capacity(ACK_LEN);
    v.put_u8(ACK_MAGIC);
    v.put_u64(ack);
    v.put_u64(echo_ts.0);
    Bytes::from(v)
}

enum Parsed {
    Data { seq: u64, ts: Nanos, len: usize },
    Ack { ack: u64, echo_ts: Nanos },
}

fn parse(payload: &[u8]) -> Option<Parsed> {
    let mut buf = payload;
    if buf.remaining() < ACK_LEN {
        return None;
    }
    match buf.get_u8() {
        DATA_MAGIC => {
            if buf.remaining() < 8 + 8 + 2 {
                return None;
            }
            let seq = buf.get_u64();
            let ts = Nanos(buf.get_u64());
            let len = buf.get_u16() as usize;
            if buf.remaining() < len {
                return None;
            }
            Some(Parsed::Data { seq, ts, len })
        }
        ACK_MAGIC => {
            let ack = buf.get_u64();
            let echo_ts = Nanos(buf.get_u64());
            Some(Parsed::Ack { ack, echo_ts })
        }
        _ => None,
    }
}

/// The sending endpoint of a bulk TCP flow (iperf-style: unlimited
/// data, zero-filled payloads).
#[derive(Debug)]
pub struct TcpSender {
    /// Next new byte sequence to send.
    next_seq: u64,
    /// Oldest unacknowledged byte.
    snd_una: u64,
    /// Congestion window, bytes.
    pub cwnd: f64,
    pub ssthresh: f64,
    srtt: Option<f64>,
    rttvar: f64,
    rto: Nanos,
    min_rto: Nanos,
    /// Absolute deadline of the retransmission timer.
    rto_deadline: Option<Nanos>,
    dup_acks: u32,
    /// In fast recovery until snd_una passes this.
    recover: Option<u64>,
    /// Pending retransmission queue (seq ranges).
    retransmit: Vec<(u64, usize)>,
    pub retransmissions: u64,
    pub timeouts: u64,
    pub acked_bytes: u64,
    /// Optional cap on outstanding new data (receiver window stand-in).
    pub max_window: f64,
}

impl TcpSender {
    pub fn new() -> TcpSender {
        TcpSender {
            next_seq: 0,
            snd_una: 0,
            cwnd: (10 * MSS) as f64, // RFC 6928 initial window
            ssthresh: f64::INFINITY,
            srtt: None,
            rttvar: 0.0,
            rto: Nanos::from_millis(100),
            min_rto: Nanos::from_millis(50),
            rto_deadline: None,
            dup_acks: 0,
            recover: None,
            retransmit: Vec::new(),
            retransmissions: 0,
            timeouts: 0,
            acked_bytes: 0,
            max_window: (4 * 1024 * 1024) as f64,
        }
    }

    pub fn in_flight(&self) -> u64 {
        self.next_seq - self.snd_una
    }

    fn update_rtt(&mut self, sample: Nanos) {
        let s = sample.0 as f64;
        match self.srtt {
            None => {
                self.srtt = Some(s);
                self.rttvar = s / 2.0;
            }
            Some(srtt) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - s).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * s);
            }
        }
        let rto = self.srtt.unwrap() + 4.0 * self.rttvar;
        self.rto = Nanos((rto as u64).max(self.min_rto.0));
    }

    fn on_timeout(&mut self, now: Nanos) {
        self.timeouts += 1;
        self.ssthresh = (self.in_flight() as f64 / 2.0).max((2 * MSS) as f64);
        self.cwnd = MSS as f64;
        self.dup_acks = 0;
        self.recover = None;
        // Go-back-N: everything past snd_una is presumed lost. Payloads
        // are regenerated from sequence numbers (zero-filled), so we
        // simply rewind and let slow start resend; the receiver ignores
        // duplicates of data it already holds.
        self.retransmit.clear();
        self.next_seq = self.snd_una;
        self.rto = Nanos((self.rto.0 * 2).min(Nanos::from_secs(2).0));
        self.rto_deadline = Some(now + self.rto);
    }
}

impl Default for TcpSender {
    fn default() -> Self {
        TcpSender::new()
    }
}

impl UserApp for TcpSender {
    fn on_packet(&mut self, now: Nanos, payload: &[u8]) {
        let Some(Parsed::Ack { ack, echo_ts }) = parse(payload) else {
            return;
        };
        if ack > self.snd_una {
            let newly = ack - self.snd_una;
            self.acked_bytes += newly;
            self.snd_una = ack;
            self.dup_acks = 0;
            if echo_ts.0 > 0 {
                self.update_rtt(now.saturating_sub(echo_ts));
            }
            match self.recover {
                Some(rec) if ack < rec => {
                    // Partial ACK during recovery: retransmit next hole.
                    self.retransmit
                        .push((ack, MSS.min((self.next_seq - ack) as usize)));
                    self.retransmissions += 1;
                }
                Some(_) => {
                    self.recover = None;
                    self.cwnd = self.ssthresh;
                }
                None => {
                    if self.cwnd < self.ssthresh {
                        self.cwnd += newly as f64; // slow start
                    } else {
                        self.cwnd += (MSS * MSS) as f64 / self.cwnd; // CA
                    }
                }
            }
            self.cwnd = self.cwnd.min(self.max_window);
            self.rto_deadline = if self.in_flight() > 0 {
                Some(now + self.rto)
            } else {
                None
            };
        } else if ack == self.snd_una && self.in_flight() > 0 {
            self.dup_acks += 1;
            if self.dup_acks == 3 && self.recover.is_none() {
                // Fast retransmit.
                self.ssthresh = (self.in_flight() as f64 / 2.0).max((2 * MSS) as f64);
                self.cwnd = self.ssthresh + (3 * MSS) as f64;
                self.recover = Some(self.next_seq);
                self.retransmit.push((
                    self.snd_una,
                    MSS.min((self.next_seq - self.snd_una) as usize),
                ));
                self.retransmissions += 1;
            } else if self.dup_acks > 3 {
                self.cwnd += MSS as f64;
            }
        }
    }

    fn poll_transmit(&mut self, now: Nanos) -> Vec<Bytes> {
        let mut out = Vec::new();
        if let Some(deadline) = self.rto_deadline {
            if now >= deadline && self.in_flight() > 0 {
                self.on_timeout(now);
                self.retransmissions += 1;
            }
        }
        for (seq, len) in std::mem::take(&mut self.retransmit) {
            if len > 0 {
                out.push(encode_data(seq, now, len));
            }
        }
        // New data within the window.
        let mut budget = 128; // cap per poll to bound event bursts
        while (self.in_flight() as f64 + MSS as f64) <= self.cwnd && budget > 0 {
            out.push(encode_data(self.next_seq, now, MSS));
            self.next_seq += MSS as u64;
            budget -= 1;
        }
        if !out.is_empty() && self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.rto);
        }
        out
    }

    fn next_wakeup(&self, _now: Nanos) -> Option<Nanos> {
        self.rto_deadline
    }
}

/// The receiving endpoint: cumulative ACKs, out-of-order reassembly,
/// per-bin goodput accounting.
#[derive(Debug)]
pub struct TcpReceiver {
    rcv_nxt: u64,
    ooo: BTreeMap<u64, usize>,
    pending_acks: Vec<Bytes>,
    pub bins: RateBins,
    pub total_bytes: u64,
    /// Latest data timestamp to echo for RTT measurement.
    last_ts: Nanos,
}

impl TcpReceiver {
    pub fn new(origin: Nanos, bin_width: Nanos) -> TcpReceiver {
        TcpReceiver {
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            pending_acks: Vec::new(),
            bins: RateBins::new(origin, bin_width),
            total_bytes: 0,
            last_ts: Nanos::ZERO,
        }
    }
}

impl UserApp for TcpReceiver {
    fn on_packet(&mut self, now: Nanos, payload: &[u8]) {
        let Some(Parsed::Data { seq, ts, len }) = parse(payload) else {
            return;
        };
        self.last_ts = ts;
        if seq + (len as u64) > self.rcv_nxt {
            self.ooo.insert(seq, len);
        }
        // Advance over any contiguous prefix.
        let mut advanced = 0u64;
        while let Some((&s, &l)) = self.ooo.first_key_value() {
            if s <= self.rcv_nxt {
                let end = s + l as u64;
                if end > self.rcv_nxt {
                    advanced += end - self.rcv_nxt;
                    self.rcv_nxt = end;
                }
                self.ooo.remove(&s);
            } else {
                break;
            }
        }
        if advanced > 0 {
            self.total_bytes += advanced;
            self.bins.record(now, advanced);
        }
        // Echo ts only for in-order data (Karn-ish: avoids sampling
        // retransmitted holes as fresh RTTs being ambiguous is fine
        // here since content is regenerated).
        let echo = if advanced > 0 { ts } else { Nanos::ZERO };
        self.pending_acks.push(encode_ack(self.rcv_nxt, echo));
    }

    fn poll_transmit(&mut self, _now: Nanos) -> Vec<Bytes> {
        std::mem::take(&mut self.pending_acks)
    }

    fn next_wakeup(&self, _now: Nanos) -> Option<Nanos> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    /// Drive sender and receiver over a perfect in-memory pipe with a
    /// fixed one-way delay, optionally dropping specific segments.
    fn run_pipe(
        duration_ms: u64,
        one_way_ms: u64,
        mut drop: impl FnMut(u64, u64) -> bool, // (time_ms, seq) -> drop?
    ) -> (TcpSender, TcpReceiver) {
        let mut snd = TcpSender::new();
        let mut rcv = TcpReceiver::new(Nanos(0), Nanos(10 * MS));
        // (deliver_at_ms, to_receiver?, packet)
        let mut wire: Vec<(u64, bool, Bytes)> = Vec::new();
        for t in 0..duration_ms {
            let now = Nanos(t * MS);
            // Deliveries due this tick.
            let due: Vec<_> = wire.iter().filter(|(at, _, _)| *at == t).cloned().collect();
            wire.retain(|(at, _, _)| *at != t);
            for (_, to_rcv, pkt) in due {
                if to_rcv {
                    rcv.on_packet(now, &pkt);
                } else {
                    snd.on_packet(now, &pkt);
                }
            }
            for pkt in snd.poll_transmit(now) {
                let seq = u64::from_be_bytes(pkt[1..9].try_into().unwrap());
                if !drop(t, seq) {
                    wire.push((t + one_way_ms, true, pkt));
                }
            }
            for ack in rcv.poll_transmit(now) {
                wire.push((t + one_way_ms, false, ack));
            }
        }
        (snd, rcv)
    }

    #[test]
    fn bulk_transfer_no_loss() {
        let (snd, rcv) = run_pipe(500, 5, |_, _| false);
        assert!(rcv.total_bytes > 1_000_000, "bytes={}", rcv.total_bytes);
        assert_eq!(snd.timeouts, 0);
        assert_eq!(snd.retransmissions, 0);
        // In-order: no out-of-order segments left.
        assert!(rcv.ooo.is_empty());
    }

    #[test]
    fn slow_start_grows_cwnd() {
        let (snd, _) = run_pipe(100, 5, |_, _| false);
        assert!(snd.cwnd > (100 * MSS) as f64, "cwnd={}", snd.cwnd);
    }

    #[test]
    fn single_loss_fast_retransmits() {
        let mut dropped = false;
        let (snd, rcv) = run_pipe(400, 5, |t, _| {
            if t == 100 && !dropped {
                dropped = true;
                true
            } else {
                false
            }
        });
        assert!(snd.retransmissions >= 1);
        assert_eq!(snd.timeouts, 0, "fast retransmit should avoid RTO");
        assert!(rcv.total_bytes > 500_000);
    }

    #[test]
    fn blackout_causes_rto_then_recovery() {
        // Drop everything in [100, 140) ms — like a PHY failover window.
        let (snd, rcv) = run_pipe(600, 5, |t, _| (100..140).contains(&t));
        assert!(snd.timeouts >= 1, "expected an RTO");
        // Receiver throughput: zero during the stall, recovers after.
        let mbps = rcv.bins.mbps();
        let stall_bins = &mbps[11..15]; // 110–150 ms
        assert!(
            stall_bins.contains(&0.0),
            "expected a zero bin in {stall_bins:?}"
        );
        let tail: f64 = mbps[40..].iter().sum::<f64>() / (mbps.len() - 40) as f64;
        assert!(tail > 10.0, "recovered tail rate = {tail}");
    }

    #[test]
    fn rto_backoff_under_persistent_outage() {
        let (snd, _) = run_pipe(1000, 5, |t, _| t >= 50);
        assert!(snd.timeouts >= 2, "timeouts={}", snd.timeouts);
        assert!(snd.cwnd <= (2 * MSS) as f64);
    }

    #[test]
    fn receiver_reassembles_out_of_order() {
        let mut rcv = TcpReceiver::new(Nanos(0), Nanos(10 * MS));
        let s2 = encode_data(MSS as u64, Nanos(1), MSS);
        let s1 = encode_data(0, Nanos(1), MSS);
        rcv.on_packet(Nanos(0), &s2);
        assert_eq!(rcv.total_bytes, 0);
        let acks = rcv.poll_transmit(Nanos(0));
        assert_eq!(acks.len(), 1); // dup ack for 0
        rcv.on_packet(Nanos(1), &s1);
        assert_eq!(rcv.total_bytes, 2 * MSS as u64);
    }

    #[test]
    fn cwnd_capped_by_max_window() {
        let mut snd = TcpSender::new();
        snd.max_window = (20 * MSS) as f64;
        let mut rcv = TcpReceiver::new(Nanos(0), Nanos(10 * MS));
        for t in 0..200u64 {
            let now = Nanos(t * MS);
            for pkt in snd.poll_transmit(now) {
                rcv.on_packet(now, &pkt);
            }
            for ack in rcv.poll_transmit(now) {
                snd.on_packet(Nanos((t + 1) * MS), &ack);
            }
        }
        assert!(snd.cwnd <= (20 * MSS) as f64 + 1.0, "cwnd={}", snd.cwnd);
        assert!(rcv.total_bytes > 0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse(b"").is_none());
        assert!(parse(&[0xC1, 1, 2]).is_none());
        assert!(parse(&[0x55; 40]).is_none());
    }
}
