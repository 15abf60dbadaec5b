//! A ping application: periodic echo requests with RTT sampling, and
//! the echo responder for the far end. Reproduces the paper's Fig. 9
//! measurement (ping every 10 ms across a PHY failover) and the Orion
//! latency-neutrality check of §8.7.

use bytes::{Buf, BufMut, Bytes};
use slingshot_sim::Nanos;

use crate::app::UserApp;

const PING_MAGIC: u8 = 0xE1;
const PONG_MAGIC: u8 = 0xE2;
const LEN: usize = 1 + 8 + 8;

fn encode(magic: u8, seq: u64, ts: Nanos) -> Bytes {
    let mut v = Vec::with_capacity(LEN);
    v.put_u8(magic);
    v.put_u64(seq);
    v.put_u64(ts.0);
    Bytes::from(v)
}

fn decode(payload: &[u8]) -> Option<(u8, u64, Nanos)> {
    let mut buf = payload;
    if buf.remaining() < LEN {
        return None;
    }
    let magic = buf.get_u8();
    if magic != PING_MAGIC && magic != PONG_MAGIC {
        return None;
    }
    Some((magic, buf.get_u64(), Nanos(buf.get_u64())))
}

/// The pinging side.
#[derive(Debug)]
pub struct PingApp {
    interval: Nanos,
    next_send: Nanos,
    next_seq: u64,
    /// (send_time, rtt) per completed echo.
    pub rtts: Vec<(Nanos, Nanos)>,
    pub sent: u64,
    pub received: u64,
}

impl PingApp {
    pub fn new(interval: Nanos, start: Nanos) -> PingApp {
        PingApp {
            interval,
            next_send: start,
            next_seq: 0,
            rtts: Vec::new(),
            sent: 0,
            received: 0,
        }
    }

    /// Fraction of pings answered.
    pub fn success_rate(&self) -> f64 {
        if self.sent == 0 {
            1.0
        } else {
            self.received as f64 / self.sent as f64
        }
    }
}

impl UserApp for PingApp {
    fn on_packet(&mut self, now: Nanos, payload: &[u8]) {
        if let Some((PONG_MAGIC, _seq, ts)) = decode(payload) {
            self.received += 1;
            self.rtts.push((ts, now.saturating_sub(ts)));
        }
    }

    fn poll_transmit(&mut self, now: Nanos) -> Vec<Bytes> {
        let mut out = Vec::new();
        while self.next_send <= now {
            out.push(encode(PING_MAGIC, self.next_seq, now));
            self.next_seq += 1;
            self.sent += 1;
            self.next_send += self.interval;
        }
        out
    }

    fn next_wakeup(&self, _now: Nanos) -> Option<Nanos> {
        Some(self.next_send)
    }
}

/// The echoing side: answers pings immediately.
#[derive(Debug, Default)]
pub struct EchoResponder {
    pending: Vec<Bytes>,
    pub echoed: u64,
}

impl EchoResponder {
    pub fn new() -> EchoResponder {
        EchoResponder::default()
    }
}

impl UserApp for EchoResponder {
    fn on_packet(&mut self, _now: Nanos, payload: &[u8]) {
        if let Some((PING_MAGIC, seq, ts)) = decode(payload) {
            self.pending.push(encode(PONG_MAGIC, seq, ts));
            self.echoed += 1;
        }
    }

    fn poll_transmit(&mut self, _now: Nanos) -> Vec<Bytes> {
        std::mem::take(&mut self.pending)
    }

    fn next_wakeup(&self, _now: Nanos) -> Option<Nanos> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn ping_pong_measures_rtt() {
        let mut ping = PingApp::new(Nanos(10 * MS), Nanos(0));
        let mut echo = EchoResponder::new();
        let reqs = ping.poll_transmit(Nanos(0));
        assert_eq!(reqs.len(), 1);
        echo.on_packet(Nanos(5 * MS), &reqs[0]);
        let resp = echo.poll_transmit(Nanos(5 * MS));
        assert_eq!(resp.len(), 1);
        ping.on_packet(Nanos(11 * MS), &resp[0]);
        assert_eq!(ping.rtts.len(), 1);
        assert_eq!(ping.rtts[0].1, Nanos(11 * MS));
        assert_eq!(ping.success_rate(), 1.0);
        // An unanswered ping lowers the success rate.
        let _ = ping.poll_transmit(Nanos(10 * MS));
        assert_eq!(ping.success_rate(), 0.5);
    }

    #[test]
    fn periodic_sends() {
        let mut ping = PingApp::new(Nanos(10 * MS), Nanos(0));
        let mut total = 0;
        for t in (0..100).step_by(10) {
            total += ping.poll_transmit(Nanos(t * MS)).len();
        }
        assert_eq!(total, 10);
        assert_eq!(ping.next_wakeup(Nanos(0)), Some(Nanos(100 * MS)));
    }

    #[test]
    fn responder_ignores_noise() {
        let mut echo = EchoResponder::new();
        echo.on_packet(Nanos(0), b"garbage");
        echo.on_packet(Nanos(0), &encode(PONG_MAGIC, 1, Nanos(0)));
        assert!(echo.poll_transmit(Nanos(0)).is_empty());
        assert_eq!(echoed(&echo), 0);
    }

    fn echoed(e: &EchoResponder) -> u64 {
        e.echoed
    }
}
