//! Full fronthaul message bodies: C-plane sections and U-plane IQ data.
//!
//! A healthy PHY emits at least one downlink C-plane message per slot
//! (scheduling the RU's transmission window) — the "natural heartbeat"
//! Slingshot's in-switch failure detector monitors (§5.2.1). U-plane
//! messages carry block-floating-point compressed PRBs of IQ samples.

use bytes::{Buf, BufMut, Bytes};

use crate::ecpri::{Direction, EcpriHeader, EcpriMsgType, FhHeader};
use slingshot_phy_dsp::iq::{bfp_from_bytes, bfp_write_bytes, BfpPrb, SC_PER_PRB};
use slingshot_phy_dsp::{Cplx, DspKernels};
use slingshot_sim::SlotId;

/// A C-plane section: one scheduled region of the resource grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CSection {
    pub section_id: u16,
    pub start_prb: u16,
    pub num_prb: u16,
    /// Resource-element mask / beam id — carried opaquely.
    pub beam_id: u16,
}

impl CSection {
    pub(crate) const WIRE_LEN: usize = 8;

    fn write(&self, buf: &mut impl BufMut) {
        buf.put_u16(self.section_id);
        buf.put_u16(self.start_prb);
        buf.put_u16(self.num_prb);
        buf.put_u16(self.beam_id);
    }

    fn read(buf: &mut impl Buf) -> Option<CSection> {
        if buf.remaining() < Self::WIRE_LEN {
            return None;
        }
        Some(CSection {
            section_id: buf.get_u16(),
            start_prb: buf.get_u16(),
            num_prb: buf.get_u16(),
            beam_id: buf.get_u16(),
        })
    }
}

/// A C-plane (real-time control) message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CPlaneMsg {
    pub hdr: FhHeader,
    pub sections: Vec<CSection>,
}

/// A U-plane (IQ data) message: compressed PRBs starting at `start_prb`.
#[derive(Debug, Clone, PartialEq)]
pub struct UPlaneMsg {
    pub hdr: FhHeader,
    pub start_prb: u16,
    pub prbs: Vec<BfpPrb>,
}

/// One decoded downlink control information entry (a scheduling grant
/// or assignment). Carried on the fronthaul as a vendor-extension
/// message instead of coded PDCCH IQ (see [`EcpriMsgType::VendorDci`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DciEntry {
    pub rnti: u16,
    /// True for an uplink grant, false for a downlink assignment.
    pub uplink: bool,
    /// The slot the grant/assignment applies to may differ from the
    /// carrying slot (uplink grants are delivered in advance).
    pub target_slot_scalar: u16,
    pub harq_id: u8,
    pub ndi: bool,
    pub rv: u8,
    pub mcs: u8,
    pub start_prb: u16,
    pub num_prb: u16,
    pub tb_bytes: u32,
}

/// A vendor-extension DCI message (PHY → RU → over the air).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DciMsg {
    pub hdr: FhHeader,
    pub entries: Vec<DciEntry>,
}

/// One uplink control entry: a HARQ acknowledgment for a downlink TB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UciEntry {
    pub rnti: u16,
    pub harq_id: u8,
    pub ack: bool,
}

/// A vendor-extension UCI message (RU → PHY).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UciMsg {
    pub hdr: FhHeader,
    pub entries: Vec<UciEntry>,
}

/// A vendor-extension shadow-payload message (reduced-fidelity DSP
/// modes; see [`crate::ecpri::EcpriMsgType::VendorShadow`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShadowMsg {
    pub hdr: FhHeader,
    pub rnti: u16,
    /// SNR (dB × 100) the carried signal experienced — stands in for
    /// what pilot estimation would measure in full-fidelity mode.
    pub snr_db_x100: i32,
    pub data: Bytes,
}

/// Any fronthaul message.
#[derive(Debug, Clone, PartialEq)]
pub enum FhMessage {
    CPlane(CPlaneMsg),
    UPlane(UPlaneMsg),
    Dci(DciMsg),
    Uci(UciMsg),
    Shadow(ShadowMsg),
}

impl FhMessage {
    pub fn hdr(&self) -> &FhHeader {
        match self {
            FhMessage::CPlane(m) => &m.hdr,
            FhMessage::UPlane(m) => &m.hdr,
            FhMessage::Dci(m) => &m.hdr,
            FhMessage::Uci(m) => &m.hdr,
            FhMessage::Shadow(m) => &m.hdr,
        }
    }

    pub fn direction(&self) -> Direction {
        self.hdr().direction
    }

    /// Exact serialized body length (app header + payload, excluding
    /// the eCPRI header). Every field is fixed-width, so the frame can
    /// be written into a single exactly-sized allocation.
    fn body_len(&self) -> usize {
        FhHeader::WIRE_LEN
            + match self {
                FhMessage::CPlane(m) => 2 + m.sections.len() * CSection::WIRE_LEN,
                FhMessage::UPlane(m) => 4 + m.prbs.len() * BfpPrb::WIRE_BYTES,
                FhMessage::Dci(m) => 2 + m.entries.len() * 17,
                FhMessage::Uci(m) => 2 + m.entries.len() * 4,
                FhMessage::Shadow(m) => 10 + m.data.len(),
            }
    }

    /// Serialize to an Ethernet payload (eCPRI header + app header +
    /// body) — one exactly-sized allocation per frame; no intermediate
    /// body buffer, and [`Bytes::from`] takes the Vec without copying.
    pub fn to_bytes(&self) -> Bytes {
        let body_len = self.body_len();
        let ec = EcpriHeader {
            msg_type: match self {
                FhMessage::CPlane(_) => EcpriMsgType::RtControl,
                FhMessage::UPlane(_) => EcpriMsgType::IqData,
                FhMessage::Dci(_) => EcpriMsgType::VendorDci,
                FhMessage::Uci(_) => EcpriMsgType::VendorUci,
                FhMessage::Shadow(_) => EcpriMsgType::VendorShadow,
            },
            payload_len: body_len as u16,
        };
        let mut out = Vec::with_capacity(EcpriHeader::WIRE_LEN + body_len);
        ec.write(&mut out);
        match self {
            FhMessage::CPlane(m) => {
                m.hdr.write(&mut out);
                out.put_u16(m.sections.len() as u16);
                for s in &m.sections {
                    s.write(&mut out);
                }
            }
            FhMessage::UPlane(m) => {
                m.hdr.write(&mut out);
                out.put_u16(m.start_prb);
                out.put_u16(m.prbs.len() as u16);
                for p in &m.prbs {
                    bfp_write_bytes(p, &mut out);
                }
            }
            FhMessage::Dci(m) => {
                m.hdr.write(&mut out);
                out.put_u16(m.entries.len() as u16);
                for e in &m.entries {
                    out.put_u16(e.rnti);
                    out.put_u8(e.uplink as u8);
                    out.put_u16(e.target_slot_scalar);
                    out.put_u8(e.harq_id);
                    out.put_u8(e.ndi as u8);
                    out.put_u8(e.rv);
                    out.put_u8(e.mcs);
                    out.put_u16(e.start_prb);
                    out.put_u16(e.num_prb);
                    out.put_u32(e.tb_bytes);
                }
            }
            FhMessage::Uci(m) => {
                m.hdr.write(&mut out);
                out.put_u16(m.entries.len() as u16);
                for e in &m.entries {
                    out.put_u16(e.rnti);
                    out.put_u8(e.harq_id);
                    out.put_u8(e.ack as u8);
                }
            }
            FhMessage::Shadow(m) => {
                m.hdr.write(&mut out);
                out.put_u16(m.rnti);
                out.put_i32(m.snr_db_x100);
                out.put_u32(m.data.len() as u32);
                out.extend_from_slice(&m.data);
            }
        }
        debug_assert_eq!(out.len(), EcpriHeader::WIRE_LEN + body_len);
        Bytes::from(out)
    }

    /// Parse from an Ethernet payload.
    pub fn from_bytes(payload: &[u8]) -> Option<FhMessage> {
        let mut buf = payload;
        let ec = EcpriHeader::read(&mut buf)?;
        let hdr = FhHeader::read(&mut buf)?;
        match ec.msg_type {
            EcpriMsgType::RtControl => {
                if buf.remaining() < 2 {
                    return None;
                }
                let n = buf.get_u16() as usize;
                if n > 4096 {
                    return None;
                }
                let mut sections = Vec::with_capacity(n);
                for _ in 0..n {
                    sections.push(CSection::read(&mut buf)?);
                }
                Some(FhMessage::CPlane(CPlaneMsg { hdr, sections }))
            }
            EcpriMsgType::IqData => {
                if buf.remaining() < 4 {
                    return None;
                }
                let start_prb = buf.get_u16();
                let n = buf.get_u16() as usize;
                if n > 4096 {
                    return None;
                }
                let mut prbs = Vec::with_capacity(n);
                for _ in 0..n {
                    if buf.remaining() < BfpPrb::WIRE_BYTES {
                        return None;
                    }
                    let prb = bfp_from_bytes(&buf.chunk()[..BfpPrb::WIRE_BYTES])?;
                    buf.advance(BfpPrb::WIRE_BYTES);
                    prbs.push(prb);
                }
                Some(FhMessage::UPlane(UPlaneMsg {
                    hdr,
                    start_prb,
                    prbs,
                }))
            }
            EcpriMsgType::VendorDci => {
                if buf.remaining() < 2 {
                    return None;
                }
                let n = buf.get_u16() as usize;
                if n > 4096 {
                    return None;
                }
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    if buf.remaining() < 17 {
                        return None;
                    }
                    entries.push(DciEntry {
                        rnti: buf.get_u16(),
                        uplink: buf.get_u8() != 0,
                        target_slot_scalar: buf.get_u16(),
                        harq_id: buf.get_u8(),
                        ndi: buf.get_u8() != 0,
                        rv: buf.get_u8(),
                        mcs: buf.get_u8(),
                        start_prb: buf.get_u16(),
                        num_prb: buf.get_u16(),
                        tb_bytes: buf.get_u32(),
                    });
                }
                Some(FhMessage::Dci(DciMsg { hdr, entries }))
            }
            EcpriMsgType::VendorUci => {
                if buf.remaining() < 2 {
                    return None;
                }
                let n = buf.get_u16() as usize;
                if n > 4096 {
                    return None;
                }
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    if buf.remaining() < 4 {
                        return None;
                    }
                    entries.push(UciEntry {
                        rnti: buf.get_u16(),
                        harq_id: buf.get_u8(),
                        ack: buf.get_u8() != 0,
                    });
                }
                Some(FhMessage::Uci(UciMsg { hdr, entries }))
            }
            EcpriMsgType::VendorShadow => {
                if buf.remaining() < 10 {
                    return None;
                }
                let rnti = buf.get_u16();
                let snr_db_x100 = buf.get_i32();
                let len = buf.get_u32() as usize;
                if len > 16 * 1024 * 1024 || buf.remaining() < len {
                    return None;
                }
                let data = Bytes::copy_from_slice(&buf.chunk()[..len]);
                Some(FhMessage::Shadow(ShadowMsg {
                    hdr,
                    rnti,
                    snr_db_x100,
                    data,
                }))
            }
        }
    }
}

/// Build the application header for a slot/symbol.
pub fn fh_header(direction: Direction, slot: SlotId, symbol: u8, ru_port: u8) -> FhHeader {
    FhHeader {
        direction,
        frame: (slot.sfn % 256) as u8,
        subframe: slot.subframe,
        slot: slot.slot,
        symbol,
        ru_port,
    }
}

/// Compress a symbol's worth of samples (multiple of 12) into PRBs.
///
/// Bit-exact across kernel backends (the BFP kernels are part of the
/// always-on exactness contract), so the choice of `kernels` never
/// changes the wire bytes — only how fast they are produced.
pub fn compress_symbol_with(kernels: DspKernels, samples: &[Cplx]) -> Vec<BfpPrb> {
    assert!(samples.len().is_multiple_of(SC_PER_PRB));
    samples
        .chunks(SC_PER_PRB)
        .map(|c| {
            let mut arr = [Cplx::ZERO; SC_PER_PRB];
            arr.copy_from_slice(c);
            kernels.bfp_compress(&arr)
        })
        .collect()
}

/// Decompress PRBs back into a flat sample vector.
pub fn decompress_prbs_with(kernels: DspKernels, prbs: &[BfpPrb]) -> Vec<Cplx> {
    let mut out = Vec::with_capacity(prbs.len() * SC_PER_PRB);
    for p in prbs {
        out.extend_from_slice(&kernels.bfp_decompress(p));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecpri::peek_headers;

    fn slot() -> SlotId {
        SlotId {
            sfn: 300,
            subframe: 4,
            slot: 1,
        }
    }

    fn samples(n: usize) -> Vec<Cplx> {
        (0..n)
            .map(|i| Cplx::new((i as f32 * 0.3).cos(), (i as f32 * 0.3).sin()))
            .collect()
    }

    /// `detect()` exercises the SIMD path where the host supports it
    /// (bit-exact with scalar by contract).
    fn compress_symbol(s: &[Cplx]) -> Vec<BfpPrb> {
        compress_symbol_with(DspKernels::detect(), s)
    }

    fn decompress_prbs(prbs: &[BfpPrb]) -> Vec<Cplx> {
        decompress_prbs_with(DspKernels::detect(), prbs)
    }

    #[test]
    fn cplane_roundtrip() {
        let msg = FhMessage::CPlane(CPlaneMsg {
            hdr: fh_header(Direction::Downlink, slot(), 0, 1),
            sections: vec![
                CSection {
                    section_id: 1,
                    start_prb: 0,
                    num_prb: 100,
                    beam_id: 0,
                },
                CSection {
                    section_id: 2,
                    start_prb: 100,
                    num_prb: 173,
                    beam_id: 7,
                },
            ],
        });
        let bytes = msg.to_bytes();
        assert_eq!(FhMessage::from_bytes(&bytes), Some(msg));
    }

    #[test]
    fn uplane_roundtrip_preserves_iq_within_quantization() {
        let s = samples(48); // 4 PRBs
        let msg = FhMessage::UPlane(UPlaneMsg {
            hdr: fh_header(Direction::Uplink, slot(), 5, 0),
            start_prb: 10,
            prbs: compress_symbol(&s),
        });
        let bytes = msg.to_bytes();
        let parsed = FhMessage::from_bytes(&bytes).unwrap();
        match parsed {
            FhMessage::UPlane(u) => {
                assert_eq!(u.start_prb, 10);
                let d = decompress_prbs(&u.prbs);
                assert_eq!(d.len(), 48);
                for (a, b) in s.iter().zip(&d) {
                    assert!((*a - *b).abs() < 0.01);
                }
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn to_bytes_is_exactly_sized() {
        let msgs = [
            FhMessage::CPlane(CPlaneMsg {
                hdr: fh_header(Direction::Downlink, slot(), 0, 1),
                sections: vec![CSection {
                    section_id: 1,
                    start_prb: 0,
                    num_prb: 100,
                    beam_id: 0,
                }],
            }),
            FhMessage::UPlane(UPlaneMsg {
                hdr: fh_header(Direction::Uplink, slot(), 5, 0),
                start_prb: 10,
                prbs: compress_symbol(&samples(48)),
            }),
            FhMessage::Shadow(ShadowMsg {
                hdr: fh_header(Direction::Uplink, slot(), 0, 0),
                rnti: 100,
                snr_db_x100: -1234,
                data: Bytes::from(vec![9u8; 37]),
            }),
        ];
        for msg in msgs {
            let bytes = msg.to_bytes();
            assert_eq!(bytes.len(), EcpriHeader::WIRE_LEN + msg.body_len());
            assert_eq!(FhMessage::from_bytes(&bytes), Some(msg));
        }
    }

    #[test]
    fn frame_field_is_sfn_mod_256() {
        let h = fh_header(Direction::Downlink, slot(), 0, 0);
        assert_eq!(h.frame, (300 % 256) as u8);
    }

    #[test]
    fn peek_matches_full_parse() {
        let msg = FhMessage::CPlane(CPlaneMsg {
            hdr: fh_header(Direction::Downlink, slot(), 0, 3),
            sections: vec![],
        });
        let bytes = msg.to_bytes();
        let (t, h) = peek_headers(&bytes).unwrap();
        assert_eq!(t, EcpriMsgType::RtControl);
        assert_eq!(&h, msg.hdr());
    }

    #[test]
    fn truncated_uplane_rejected() {
        let s = samples(24);
        let msg = FhMessage::UPlane(UPlaneMsg {
            hdr: fh_header(Direction::Uplink, slot(), 1, 0),
            start_prb: 0,
            prbs: compress_symbol(&s),
        });
        let bytes = msg.to_bytes();
        for cut in [bytes.len() - 1, bytes.len() / 2, 11] {
            assert!(FhMessage::from_bytes(&bytes[..cut]).is_none(), "cut={cut}");
        }
    }

    #[test]
    fn absurd_counts_rejected() {
        // Craft a C-plane claiming 65535 sections.
        let mut body = Vec::new();
        fh_header(Direction::Downlink, slot(), 0, 0).write(&mut body);
        body.put_u16(u16::MAX);
        let mut out = Vec::new();
        EcpriHeader {
            msg_type: EcpriMsgType::RtControl,
            payload_len: body.len() as u16,
        }
        .write(&mut out);
        out.extend_from_slice(&body);
        assert!(FhMessage::from_bytes(&out).is_none());
    }

    #[test]
    fn compress_symbol_requires_prb_multiple() {
        let s = samples(24);
        assert_eq!(compress_symbol(&s).len(), 2);
    }

    #[test]
    #[should_panic]
    fn compress_symbol_rejects_partial_prb() {
        compress_symbol(&samples(13));
    }
}
