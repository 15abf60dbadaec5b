//! Ethernet II frames.
//!
//! All inter-server traffic in the reproduction — fronthaul (eCPRI),
//! Orion's FAPI-over-UDP transport, and switch control packets — travels
//! as [`Frame`]s whose payloads are produced by the real protocol codecs.

use bytes::Bytes;

use crate::mac::MacAddr;
use slingshot_sim::SimRng;

/// EtherType values used in the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// eCPRI, as used by O-RAN split 7.2x fronthaul.
    Ecpri,
    /// IPv4 (Orion FAPI-over-UDP and user-plane traffic).
    Ipv4,
    /// Switch control/notification packets (migration commands, failure
    /// notifications, timer ticks). A locally assigned experimental type.
    SlingshotCtl,
    /// Anything else.
    Other(u16),
}

impl EtherType {
    pub(crate) fn as_u16(self) -> u16 {
        match self {
            EtherType::Ecpri => 0xAEFE,
            EtherType::Ipv4 => 0x0800,
            EtherType::SlingshotCtl => 0x88B5,
            EtherType::Other(v) => v,
        }
    }

    pub(crate) fn from_u16(v: u16) -> EtherType {
        match v {
            0xAEFE => EtherType::Ecpri,
            0x0800 => EtherType::Ipv4,
            0x88B5 => EtherType::SlingshotCtl,
            other => EtherType::Other(other),
        }
    }
}

/// Ethernet header bytes on the wire (dst + src + ethertype).
pub(crate) const ETH_HEADER_LEN: usize = 14;

/// Frame check sequence length (accounted in wire size).
pub(crate) const ETH_FCS_LEN: usize = 4;

/// An Ethernet II frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub dst: MacAddr,
    pub src: MacAddr,
    pub ethertype: EtherType,
    pub payload: Bytes,
}

impl Frame {
    pub fn new(dst: MacAddr, src: MacAddr, ethertype: EtherType, payload: Bytes) -> Frame {
        Frame {
            dst,
            src,
            ethertype,
            payload,
        }
    }

    /// Total on-wire size including header and FCS (no preamble).
    pub fn wire_size(&self) -> usize {
        ETH_HEADER_LEN + self.payload.len() + ETH_FCS_LEN
    }

    /// Serialize to wire bytes (header + payload; FCS omitted — links
    /// model corruption explicitly instead of via checksums here).
    pub fn to_bytes(&self) -> Bytes {
        let mut v = Vec::with_capacity(ETH_HEADER_LEN + self.payload.len());
        v.extend_from_slice(&self.dst.0);
        v.extend_from_slice(&self.src.0);
        v.extend_from_slice(&self.ethertype.as_u16().to_be_bytes());
        v.extend_from_slice(&self.payload);
        Bytes::from(v)
    }

    /// Parse from wire bytes.
    pub fn from_bytes(b: &[u8]) -> Option<Frame> {
        if b.len() < ETH_HEADER_LEN {
            return None;
        }
        let mut dst = [0u8; 6];
        dst.copy_from_slice(&b[0..6]);
        let mut src = [0u8; 6];
        src.copy_from_slice(&b[6..12]);
        let ethertype = EtherType::from_u16(u16::from_be_bytes([b[12], b[13]]));
        Some(Frame {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype,
            payload: Bytes::copy_from_slice(&b[ETH_HEADER_LEN..]),
        })
    }

    /// Flip one random byte of the payload — the fault injector's
    /// corruption model (mirrors smoltcp's `--corrupt-chance`).
    pub fn corrupt_payload(&mut self, rng: &mut SimRng) -> bool {
        if self.payload.is_empty() {
            return false;
        }
        let mut v = self.payload.to_vec();
        let idx = rng.below(v.len() as u64) as usize;
        let bit = rng.below(8) as u8;
        v[idx] ^= 1 << bit;
        self.payload = Bytes::from(v);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame::new(
            MacAddr::for_phy(1),
            MacAddr::for_ru(2),
            EtherType::Ecpri,
            Bytes::from_static(b"hello fronthaul"),
        )
    }

    #[test]
    fn wire_roundtrip() {
        let f = sample();
        let parsed = Frame::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(parsed, f);
    }

    #[test]
    fn wire_size_accounts_header_and_fcs() {
        let f = sample();
        assert_eq!(f.wire_size(), 14 + 15 + 4);
    }

    #[test]
    fn short_buffer_rejected() {
        assert!(Frame::from_bytes(&[0u8; 13]).is_none());
        assert!(Frame::from_bytes(&[]).is_none());
    }

    #[test]
    fn ethertype_roundtrip() {
        for et in [
            EtherType::Ecpri,
            EtherType::Ipv4,
            EtherType::SlingshotCtl,
            EtherType::Other(0x1234),
        ] {
            assert_eq!(EtherType::from_u16(et.as_u16()), et);
        }
    }

    #[test]
    fn corruption_changes_exactly_one_bit() {
        let mut f = sample();
        let before = f.payload.clone();
        let mut rng = SimRng::new(1);
        assert!(f.corrupt_payload(&mut rng));
        let diff: u32 = before
            .iter()
            .zip(f.payload.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1);
    }

    #[test]
    fn empty_payload_cannot_corrupt() {
        let mut f = Frame::new(MacAddr::ZERO, MacAddr::ZERO, EtherType::Ipv4, Bytes::new());
        let mut rng = SimRng::new(1);
        assert!(!f.corrupt_payload(&mut rng));
    }
}
