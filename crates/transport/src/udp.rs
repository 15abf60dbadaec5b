//! UDP constant-bit-rate flows — the iperf-UDP workload of the paper's
//! Figs. 10–11 and Table 2 — plus the receiving sink with per-10 ms
//! throughput/loss accounting.

use bytes::{Buf, BufMut, Bytes};
use slingshot_sim::{Nanos, RateBins};

use crate::app::UserApp;

/// Magic byte distinguishing test-flow packets.
const UDP_MAGIC: u8 = 0xD7;

/// Header: magic, sequence number, send timestamp.
const HEADER_LEN: usize = 1 + 8 + 8;

/// Encode a test packet of exactly `size` bytes (padded).
pub(crate) fn encode_packet(seq: u64, now: Nanos, size: usize) -> Bytes {
    let size = size.max(HEADER_LEN);
    let mut v = Vec::with_capacity(size);
    v.put_u8(UDP_MAGIC);
    v.put_u64(seq);
    v.put_u64(now.0);
    v.resize(size, 0);
    Bytes::from(v)
}

/// Decode a test packet header: (seq, send_time).
pub(crate) fn decode_packet(payload: &[u8]) -> Option<(u64, Nanos)> {
    let mut buf = payload;
    if buf.remaining() < HEADER_LEN || buf.get_u8() != UDP_MAGIC {
        return None;
    }
    let seq = buf.get_u64();
    let ts = Nanos(buf.get_u64());
    Some((seq, ts))
}

/// A constant-bit-rate UDP source.
#[derive(Debug)]
pub struct UdpCbrSource {
    pub bitrate_bps: u64,
    pub packet_size: usize,
    next_seq: u64,
    next_send: Nanos,
    pub sent_packets: u64,
}

impl UdpCbrSource {
    pub fn new(bitrate_bps: u64, packet_size: usize, start: Nanos) -> UdpCbrSource {
        assert!(bitrate_bps > 0 && packet_size >= HEADER_LEN);
        UdpCbrSource {
            bitrate_bps,
            packet_size,
            next_seq: 0,
            next_send: start,
            sent_packets: 0,
        }
    }

    fn interval(&self) -> Nanos {
        Nanos((self.packet_size as u64 * 8).saturating_mul(1_000_000_000) / self.bitrate_bps)
    }
}

impl UserApp for UdpCbrSource {
    fn on_packet(&mut self, _now: Nanos, _payload: &[u8]) {}

    fn poll_transmit(&mut self, now: Nanos) -> Vec<Bytes> {
        let mut out = Vec::new();
        // Catch up to `now`, but cap the burst to avoid runaway after a
        // long stall (the kernel would have dropped from the socket
        // buffer anyway).
        let mut backlog = 0;
        while self.next_send <= now && backlog < 64 {
            out.push(encode_packet(self.next_seq, now, self.packet_size));
            self.next_seq += 1;
            self.sent_packets += 1;
            self.next_send += self.interval();
            backlog += 1;
        }
        if self.next_send <= now {
            // Dropped the remainder: skip ahead.
            let behind = now.0 - self.next_send.0;
            let skip = behind / self.interval().0 + 1;
            self.next_seq += skip;
            self.next_send += Nanos(skip * self.interval().0);
        }
        out
    }

    fn next_wakeup(&self, _now: Nanos) -> Option<Nanos> {
        Some(self.next_send)
    }
}

/// The receiving side: tracks per-bin goodput and loss.
#[derive(Debug)]
pub struct UdpSink {
    pub bins: RateBins,
    /// Packets received per bin (for loss-rate per bin).
    pub rx_packets: RateBins,
    /// Expected-but-missing per bin, attributed to the bin of the
    /// highest sequence seen when the gap was noticed.
    pub lost_packets: RateBins,
    highest_seq: Option<u64>,
    pub total_rx: u64,
    pub total_lost: u64,
}

impl UdpSink {
    pub fn new(origin: Nanos, bin_width: Nanos) -> UdpSink {
        UdpSink {
            bins: RateBins::new(origin, bin_width),
            rx_packets: RateBins::new(origin, bin_width),
            lost_packets: RateBins::new(origin, bin_width),
            highest_seq: None,
            total_rx: 0,
            total_lost: 0,
        }
    }

    /// Overall loss fraction (gaps / expected).
    pub fn loss_rate(&self) -> f64 {
        let expected = self.total_rx + self.total_lost;
        if expected == 0 {
            0.0
        } else {
            self.total_lost as f64 / expected as f64
        }
    }

    /// Max loss fraction within any single bin.
    pub fn max_bin_loss_rate(&self) -> f64 {
        let rx = self.rx_packets.bins();
        let lost = self.lost_packets.bins();
        let mut max = 0.0f64;
        for i in 0..rx.len().max(lost.len()) {
            let r = rx.get(i).copied().unwrap_or(0) as f64;
            let l = lost.get(i).copied().unwrap_or(0) as f64;
            if r + l > 0.0 {
                max = max.max(l / (r + l));
            }
        }
        max
    }
}

impl UserApp for UdpSink {
    fn on_packet(&mut self, now: Nanos, payload: &[u8]) {
        let Some((seq, _)) = decode_packet(payload) else {
            return;
        };
        self.bins.record(now, payload.len() as u64);
        self.rx_packets.record(now, 1);
        self.total_rx += 1;
        match self.highest_seq {
            None => self.highest_seq = Some(seq),
            Some(h) if seq > h => {
                let gap = seq - h - 1;
                if gap > 0 {
                    self.total_lost += gap;
                    self.lost_packets.record(now, gap);
                }
                self.highest_seq = Some(seq);
            }
            _ => {} // reordered late arrival; already counted as lost
        }
    }

    fn poll_transmit(&mut self, _now: Nanos) -> Vec<Bytes> {
        Vec::new()
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
    fn packet_roundtrip() {
        let p = encode_packet(42, Nanos(12345), 200);
        assert_eq!(p.len(), 200);
        assert_eq!(decode_packet(&p), Some((42, Nanos(12345))));
        assert!(decode_packet(&p[..10]).is_none());
        assert!(decode_packet(b"not a test packet....").is_none());
    }

    #[test]
    fn cbr_rate_is_accurate() {
        // 8 Mbps with 1000-byte packets = 1 packet per ms.
        let mut src = UdpCbrSource::new(8_000_000, 1000, Nanos(0));
        let mut total = 0;
        for t in 0..100 {
            total += src.poll_transmit(Nanos(t * MS)).len();
        }
        assert!((99..=101).contains(&total), "total={total}");
    }

    #[test]
    fn cbr_caps_burst_after_stall() {
        let mut src = UdpCbrSource::new(8_000_000, 1000, Nanos(0));
        let burst = src.poll_transmit(Nanos(10_000 * MS));
        assert!(burst.len() <= 64);
        // And subsequent polls resume normal pacing, not a flood.
        let next = src.poll_transmit(Nanos(10_001 * MS));
        assert!(next.len() <= 2, "len={}", next.len());
    }

    #[test]
    fn sink_tracks_throughput_and_loss() {
        let mut sink = UdpSink::new(Nanos(0), Nanos(10 * MS));
        let mut t = Nanos(0);
        for seq in 0..100u64 {
            if seq % 10 == 3 {
                continue; // drop every 10th
            }
            sink.on_packet(t, &encode_packet(seq, t, 500));
            t += Nanos(MS);
        }
        assert_eq!(sink.total_rx, 90);
        assert_eq!(sink.total_lost, 10);
        assert!((sink.loss_rate() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn sink_blackout_visible_in_bins() {
        let mut sink = UdpSink::new(Nanos(0), Nanos(10 * MS));
        for seq in 0..10u64 {
            sink.on_packet(Nanos(seq * MS), &encode_packet(seq, Nanos(0), 500));
        }
        // 30 ms silence, then resume.
        for seq in 10..20u64 {
            sink.on_packet(Nanos((40 + seq) * MS), &encode_packet(seq, Nanos(0), 500));
        }
        sink.bins.extend_to(Nanos(60 * MS));
        let zero = sink.bins.zero_bins_between(Nanos(0), Nanos(60 * MS));
        assert!(zero >= 2, "zero={zero}");
    }

    #[test]
    fn max_bin_loss_rate_catches_burst_loss() {
        let mut sink = UdpSink::new(Nanos(0), Nanos(10 * MS));
        for seq in 0..10u64 {
            sink.on_packet(Nanos(seq * MS), &encode_packet(seq, Nanos(0), 500));
        }
        // Lose 30 packets in one bin.
        sink.on_packet(Nanos(15 * MS), &encode_packet(40, Nanos(0), 500));
        assert!(sink.max_bin_loss_rate() > 0.9);
    }
}
