//! eCPRI framing and the fronthaul application header.
//!
//! O-RAN split 7.2x carries fronthaul messages in Ethernet frames with
//! an eCPRI common header followed by an application header that names
//! the PHY-level frame / subframe / slot / symbol the payload belongs
//! to. Those timing fields are the key to the paper's §5.1 insight:
//! the switch data plane can detect TTI boundaries by parsing them,
//! without being time-synchronized itself.

use bytes::{Buf, BufMut};
use slingshot_sim::SlotId;

/// eCPRI protocol revision nibble used on the wire.
pub(crate) const ECPRI_VERSION: u8 = 1;

/// eCPRI message types we use (subset of the spec).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EcpriMsgType {
    /// IQ data — the U-plane.
    IqData,
    /// Real-time control data — the C-plane.
    RtControl,
    /// Vendor extension: decoded PDCCH content (DCI). Real deployments
    /// carry PDCCH as IQ inside the U-plane; we carry its *content*
    /// explicitly so the reproduction does not have to model PDCCH
    /// polar coding (documented substitution, DESIGN.md §2).
    VendorDci,
    /// Vendor extension: decoded PUCCH content (UCI / HARQ feedback),
    /// same substitution as [`EcpriMsgType::VendorDci`].
    VendorUci,
    /// Vendor extension: the "shadow" transport-block payload used by
    /// the reduced-fidelity DSP modes (Sampled/Abstract, DESIGN.md §2),
    /// where not every code block's IQ is physically modeled. Opaque to
    /// the switch, which only parses the timing headers.
    VendorShadow,
}

impl EcpriMsgType {
    pub(crate) fn as_u8(self) -> u8 {
        match self {
            EcpriMsgType::IqData => 0x00,
            EcpriMsgType::RtControl => 0x02,
            EcpriMsgType::VendorDci => 0x40,
            EcpriMsgType::VendorUci => 0x41,
            EcpriMsgType::VendorShadow => 0x42,
        }
    }

    pub fn from_u8(v: u8) -> Option<EcpriMsgType> {
        match v {
            0x00 => Some(EcpriMsgType::IqData),
            0x02 => Some(EcpriMsgType::RtControl),
            0x40 => Some(EcpriMsgType::VendorDci),
            0x41 => Some(EcpriMsgType::VendorUci),
            0x42 => Some(EcpriMsgType::VendorShadow),
            _ => None,
        }
    }
}

/// Transfer direction of a fronthaul message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// RU → PHY (received radio samples).
    Uplink,
    /// PHY → RU (samples / control to transmit).
    Downlink,
}

impl Direction {
    pub(crate) fn as_u8(self) -> u8 {
        match self {
            Direction::Uplink => 0,
            Direction::Downlink => 1,
        }
    }

    pub fn from_u8(v: u8) -> Option<Direction> {
        match v {
            0 => Some(Direction::Uplink),
            1 => Some(Direction::Downlink),
            _ => None,
        }
    }
}

/// The fronthaul application header carried after the eCPRI common
/// header. `frame` is the SFN modulo 256, as in O-RAN's 8-bit frameId.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FhHeader {
    pub direction: Direction,
    /// SFN mod 256.
    pub frame: u8,
    /// Subframe within the frame (0..10).
    pub subframe: u8,
    /// Slot within the subframe (0..2 at µ=1).
    pub slot: u8,
    /// OFDM symbol within the slot (0..14).
    pub symbol: u8,
    /// RU antenna/eAxC port the message belongs to.
    pub ru_port: u8,
}

impl FhHeader {
    pub(crate) const WIRE_LEN: usize = 6;

    pub fn write(&self, buf: &mut impl BufMut) {
        buf.put_u8(self.direction.as_u8());
        buf.put_u8(self.frame);
        buf.put_u8(self.subframe);
        buf.put_u8(self.slot);
        buf.put_u8(self.symbol);
        buf.put_u8(self.ru_port);
    }

    pub fn read(buf: &mut impl Buf) -> Option<FhHeader> {
        if buf.remaining() < Self::WIRE_LEN {
            return None;
        }
        let direction = Direction::from_u8(buf.get_u8())?;
        Some(FhHeader {
            direction,
            frame: buf.get_u8(),
            subframe: buf.get_u8(),
            slot: buf.get_u8(),
            symbol: buf.get_u8(),
            ru_port: buf.get_u8(),
        })
    }

    /// The (frame, subframe, slot) triple as a comparable scalar in
    /// 0..(256*10*2): what the switch's migration matcher compares
    /// against a `migrate_on_slot` command. Wraps every 2.56 s.
    pub fn slot_scalar(&self) -> u16 {
        SlotId {
            sfn: self.frame as u16,
            subframe: self.subframe,
            slot: self.slot,
        }
        .scalar()
    }
}

/// The eCPRI common header (4 bytes on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EcpriHeader {
    pub msg_type: EcpriMsgType,
    /// Payload bytes following the common header.
    pub payload_len: u16,
}

impl EcpriHeader {
    pub(crate) const WIRE_LEN: usize = 4;

    pub fn write(&self, buf: &mut impl BufMut) {
        buf.put_u8(ECPRI_VERSION << 4);
        buf.put_u8(self.msg_type.as_u8());
        buf.put_u16(self.payload_len);
    }

    pub fn read(buf: &mut impl Buf) -> Option<EcpriHeader> {
        if buf.remaining() < Self::WIRE_LEN {
            return None;
        }
        let ver = buf.get_u8() >> 4;
        if ver != ECPRI_VERSION {
            return None;
        }
        let msg_type = EcpriMsgType::from_u8(buf.get_u8())?;
        let payload_len = buf.get_u16();
        Some(EcpriHeader {
            msg_type,
            payload_len,
        })
    }
}

/// Cheap parse of just the headers — what the in-switch middlebox does
/// at line rate. Returns the eCPRI type and the application header
/// without touching the IQ payload.
pub fn peek_headers(payload: &[u8]) -> Option<(EcpriMsgType, FhHeader)> {
    let mut buf = payload;
    let ec = EcpriHeader::read(&mut buf)?;
    let fh = FhHeader::read(&mut buf)?;
    Some((ec.msg_type, fh))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr() -> FhHeader {
        FhHeader {
            direction: Direction::Downlink,
            frame: 200,
            subframe: 7,
            slot: 1,
            symbol: 3,
            ru_port: 2,
        }
    }

    #[test]
    fn fh_header_roundtrip() {
        let h = hdr();
        let mut buf = Vec::new();
        h.write(&mut buf);
        assert_eq!(buf.len(), FhHeader::WIRE_LEN);
        let parsed = FhHeader::read(&mut &buf[..]).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn ecpri_header_roundtrip() {
        let e = EcpriHeader {
            msg_type: EcpriMsgType::RtControl,
            payload_len: 1234,
        };
        let mut buf = Vec::new();
        e.write(&mut buf);
        let parsed = EcpriHeader::read(&mut &buf[..]).unwrap();
        assert_eq!(parsed, e);
    }

    #[test]
    fn bad_version_rejected() {
        let e = EcpriHeader {
            msg_type: EcpriMsgType::IqData,
            payload_len: 0,
        };
        let mut buf = Vec::new();
        e.write(&mut buf);
        buf[0] = 0x30; // version 3
        assert!(EcpriHeader::read(&mut &buf[..]).is_none());
    }

    #[test]
    fn short_buffers_rejected() {
        assert!(FhHeader::read(&mut &[0u8; 3][..]).is_none());
        assert!(EcpriHeader::read(&mut &[0u8; 2][..]).is_none());
        assert!(peek_headers(&[0u8; 5]).is_none());
    }

    #[test]
    fn unknown_msg_type_rejected() {
        let buf = [ECPRI_VERSION << 4, 0x07, 0, 0];
        assert!(EcpriHeader::read(&mut &buf[..]).is_none());
    }

    #[test]
    fn peek_parses_both_headers() {
        let mut buf = Vec::new();
        EcpriHeader {
            msg_type: EcpriMsgType::IqData,
            payload_len: 6,
        }
        .write(&mut buf);
        hdr().write(&mut buf);
        buf.extend_from_slice(&[0xAA; 32]); // opaque IQ
        let (t, h) = peek_headers(&buf).unwrap();
        assert_eq!(t, EcpriMsgType::IqData);
        assert_eq!(h, hdr());
    }

    #[test]
    fn slot_scalar_ordering_and_wrap() {
        let a = FhHeader {
            frame: 0,
            subframe: 0,
            slot: 0,
            ..hdr()
        };
        let b = FhHeader {
            frame: 0,
            subframe: 0,
            slot: 1,
            ..hdr()
        };
        let c = FhHeader {
            frame: 0,
            subframe: 1,
            slot: 0,
            ..hdr()
        };
        let d = FhHeader {
            frame: 1,
            subframe: 0,
            slot: 0,
            ..hdr()
        };
        assert!(a.slot_scalar() < b.slot_scalar());
        assert!(b.slot_scalar() < c.slot_scalar());
        assert!(c.slot_scalar() < d.slot_scalar());
        let max = FhHeader {
            frame: 255,
            subframe: 9,
            slot: 1,
            ..hdr()
        };
        assert_eq!(max.slot_scalar(), 256 * 20 - 1);
    }
}
