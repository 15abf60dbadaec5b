//! Frame capture, in the spirit of smoltcp's `--pcap` option: any node
//! can mirror the frames it sees into a [`Capture`] for later analysis.
//! The paper's §8.6 inter-packet-gap measurement uses exactly this
//! mechanism (a P4 program timestamping and mirroring downlink packets);
//! our switch model mirrors into a `Capture` instead.

use std::sync::{Arc, Mutex};

use crate::frame::{EtherType, Frame};
use crate::mac::MacAddr;
use slingshot_sim::Nanos;

/// One captured frame with its ingress timestamp.
#[derive(Debug, Clone)]
pub struct CaptureRecord {
    pub at: Nanos,
    pub src: MacAddr,
    pub dst: MacAddr,
    pub ethertype: EtherType,
    pub wire_size: usize,
}

/// A shared, cheaply clonable capture sink. `Send`, so a capturing node
/// can live inside a sharded engine lane; the mutex is uncontended in
/// practice (one switch writes, the harness reads after the run).
#[derive(Debug, Clone, Default)]
pub struct Capture {
    inner: Arc<Mutex<Vec<CaptureRecord>>>,
}

impl Capture {
    pub fn new() -> Capture {
        Capture::default()
    }

    pub fn record(&self, at: Nanos, frame: &Frame) {
        self.inner.lock().unwrap().push(CaptureRecord {
            at,
            src: frame.src,
            dst: frame.dst,
            ethertype: frame.ethertype,
            wire_size: frame.wire_size(),
        });
    }

    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.lock().unwrap().is_empty()
    }

    /// Snapshot of all records.
    pub fn records(&self) -> Vec<CaptureRecord> {
        self.inner.lock().unwrap().clone()
    }

    /// Inter-arrival gaps (ns) between consecutive captured frames
    /// matching `pred`, in capture order. This reproduces the paper's
    /// §8.6 measurement of the maximum inter-packet gap in a healthy
    /// PHY's downlink stream (393 µs measured → 450 µs timeout chosen).
    pub fn inter_packet_gaps<F>(&self, pred: F) -> Vec<u64>
    where
        F: Fn(&CaptureRecord) -> bool,
    {
        let recs = self.inner.lock().unwrap();
        let times: Vec<Nanos> = recs.iter().filter(|r| pred(r)).map(|r| r.at).collect();
        times.windows(2).map(|w| (w[1] - w[0]).0).collect()
    }

    pub fn clear(&self) {
        self.inner.lock().unwrap().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn frame(src: MacAddr, len: usize) -> Frame {
        Frame::new(
            MacAddr::for_phy(0),
            src,
            EtherType::Ecpri,
            Bytes::from(vec![0; len]),
        )
    }

    #[test]
    fn records_and_clones_share_storage() {
        let cap = Capture::new();
        let cap2 = cap.clone();
        cap.record(Nanos(10), &frame(MacAddr::for_ru(1), 100));
        cap2.record(Nanos(20), &frame(MacAddr::for_ru(2), 50));
        assert_eq!(cap.len(), 2);
        assert_eq!(cap2.len(), 2);
    }

    #[test]
    fn inter_packet_gaps_filtered() {
        let cap = Capture::new();
        let a = MacAddr::for_ru(1);
        let b = MacAddr::for_ru(2);
        cap.record(Nanos(0), &frame(a, 10));
        cap.record(Nanos(5), &frame(b, 10));
        cap.record(Nanos(100), &frame(a, 10));
        cap.record(Nanos(450), &frame(a, 10));
        let gaps = cap.inter_packet_gaps(|r| r.src == a);
        assert_eq!(gaps, vec![100, 350]);
    }

    #[test]
    fn clear_empties() {
        let cap = Capture::new();
        cap.record(Nanos(0), &frame(MacAddr::for_ru(1), 10));
        assert!(!cap.is_empty());
        cap.clear();
        assert!(cap.is_empty());
    }
}
