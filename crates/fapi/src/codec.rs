//! Wire codec for FAPI messages.
//!
//! Orion transports FAPI over a lean UDP-based protocol between servers
//! (paper §6.1); this codec produces the datagram payloads. The format
//! is a compact fixed-layout binary encoding: one type byte, then
//! message fields big-endian.

use bytes::{Buf, BufMut, Bytes};

use crate::messages::*;
use slingshot_sim::SlotId;

const TAG_CONFIG: u8 = 1;
const TAG_START: u8 = 2;
const TAG_STOP: u8 = 3;
const TAG_SLOT_IND: u8 = 4;
const TAG_DL_TTI: u8 = 5;
const TAG_UL_TTI: u8 = 6;
const TAG_TX_DATA: u8 = 7;
const TAG_RX_DATA: u8 = 8;
const TAG_CRC_IND: u8 = 9;
const TAG_UCI_IND: u8 = 10;
const TAG_ERROR: u8 = 11;

/// Upper bound on any repeated-element count; guards against parsing
/// hostile or corrupted datagrams.
const MAX_COUNT: usize = 4096;

fn put_slot(buf: &mut impl BufMut, s: SlotId) {
    buf.put_u16(s.sfn);
    buf.put_u8(s.subframe);
    buf.put_u8(s.slot);
}

fn get_slot(buf: &mut impl Buf) -> Option<SlotId> {
    if buf.remaining() < 4 {
        return None;
    }
    Some(SlotId {
        sfn: buf.get_u16(),
        subframe: buf.get_u8(),
        slot: buf.get_u8(),
    })
}

fn get_count(buf: &mut impl Buf) -> Option<usize> {
    if buf.remaining() < 2 {
        return None;
    }
    let n = buf.get_u16() as usize;
    if n > MAX_COUNT {
        None
    } else {
        Some(n)
    }
}

fn put_bytes(buf: &mut Vec<u8>, b: &Bytes) {
    buf.put_u32(b.len() as u32);
    buf.extend_from_slice(b);
}

fn get_bytes(buf: &mut impl Buf) -> Option<Bytes> {
    if buf.remaining() < 4 {
        return None;
    }
    let len = buf.get_u32() as usize;
    if len > 16 * 1024 * 1024 || buf.remaining() < len {
        return None;
    }
    Some(buf.copy_to_bytes(len))
}

fn put_sched_pdus(buf: &mut Vec<u8>, pdus: &[SchedPdu]) {
    buf.put_u16(pdus.len() as u16);
    for p in pdus {
        buf.put_u16(p.rnti);
        buf.put_u8(p.harq_id);
        buf.put_u8(p.ndi as u8);
        buf.put_u8(p.rv);
        buf.put_u8(p.mcs);
        buf.put_u16(p.start_prb);
        buf.put_u16(p.num_prb);
        buf.put_u32(p.tb_bytes);
    }
}

fn get_sched_pdus(buf: &mut impl Buf) -> Option<Vec<SchedPdu>> {
    let n = get_count(buf)?;
    let mut pdus = Vec::with_capacity(n);
    for _ in 0..n {
        if buf.remaining() < 14 {
            return None;
        }
        pdus.push(SchedPdu {
            rnti: buf.get_u16(),
            harq_id: buf.get_u8(),
            ndi: buf.get_u8() != 0,
            rv: buf.get_u8(),
            mcs: buf.get_u8(),
            start_prb: buf.get_u16(),
            num_prb: buf.get_u16(),
            tb_bytes: buf.get_u32(),
        });
    }
    Some(pdus)
}

/// Serialize a FAPI message to a datagram payload.
pub fn encode(msg: &FapiMsg) -> Bytes {
    let mut buf = Vec::with_capacity(64);
    match msg {
        FapiMsg::Config(m) => {
            buf.put_u8(TAG_CONFIG);
            buf.put_u8(m.ru_id);
            buf.put_u16(m.cell_id);
            buf.put_u16(m.num_prbs);
            buf.put_u8(m.tdd_pattern.len() as u8);
            buf.extend_from_slice(m.tdd_pattern.as_bytes());
        }
        FapiMsg::Start { ru_id } => {
            buf.put_u8(TAG_START);
            buf.put_u8(*ru_id);
        }
        FapiMsg::Stop { ru_id } => {
            buf.put_u8(TAG_STOP);
            buf.put_u8(*ru_id);
        }
        FapiMsg::SlotInd(m) => {
            buf.put_u8(TAG_SLOT_IND);
            buf.put_u8(m.ru_id);
            put_slot(&mut buf, m.slot);
        }
        FapiMsg::DlTti(m) => {
            buf.put_u8(TAG_DL_TTI);
            buf.put_u8(m.ru_id);
            put_slot(&mut buf, m.slot);
            put_sched_pdus(&mut buf, &m.pdsch);
        }
        FapiMsg::UlTti(m) => {
            buf.put_u8(TAG_UL_TTI);
            buf.put_u8(m.ru_id);
            put_slot(&mut buf, m.slot);
            put_sched_pdus(&mut buf, &m.pusch);
        }
        FapiMsg::TxData(m) => {
            buf.put_u8(TAG_TX_DATA);
            buf.put_u8(m.ru_id);
            put_slot(&mut buf, m.slot);
            buf.put_u16(m.tbs.len() as u16);
            for (rnti, payload) in &m.tbs {
                buf.put_u16(*rnti);
                put_bytes(&mut buf, payload);
            }
        }
        FapiMsg::RxData(m) => {
            buf.put_u8(TAG_RX_DATA);
            buf.put_u8(m.ru_id);
            put_slot(&mut buf, m.slot);
            buf.put_u16(m.tbs.len() as u16);
            for tb in &m.tbs {
                buf.put_u16(tb.rnti);
                buf.put_u8(tb.harq_id);
                put_bytes(&mut buf, &tb.payload);
            }
        }
        FapiMsg::CrcInd(m) => {
            buf.put_u8(TAG_CRC_IND);
            buf.put_u8(m.ru_id);
            put_slot(&mut buf, m.slot);
            buf.put_u16(m.crcs.len() as u16);
            for c in &m.crcs {
                buf.put_u16(c.rnti);
                buf.put_u8(c.harq_id);
                buf.put_u8(c.ok as u8);
                buf.put_i16(c.snr_x10);
            }
        }
        FapiMsg::UciInd(m) => {
            buf.put_u8(TAG_UCI_IND);
            buf.put_u8(m.ru_id);
            put_slot(&mut buf, m.slot);
            buf.put_u16(m.acks.len() as u16);
            for a in &m.acks {
                buf.put_u16(a.rnti);
                buf.put_u8(a.harq_id);
                buf.put_u8(a.ack as u8);
            }
        }
        FapiMsg::Error(m) => {
            buf.put_u8(TAG_ERROR);
            buf.put_u8(m.ru_id);
            put_slot(&mut buf, m.slot);
            buf.put_u16(m.code);
        }
    }
    Bytes::from(buf)
}

/// Parse a FAPI message from a datagram payload.
pub fn decode(payload: &[u8]) -> Option<FapiMsg> {
    let mut buf = payload;
    if buf.remaining() < 2 {
        return None;
    }
    let tag = buf.get_u8();
    let ru_id = buf.get_u8();
    match tag {
        TAG_CONFIG => {
            if buf.remaining() < 5 {
                return None;
            }
            let cell_id = buf.get_u16();
            let num_prbs = buf.get_u16();
            let plen = buf.get_u8() as usize;
            if buf.remaining() < plen {
                return None;
            }
            let pattern = std::str::from_utf8(&buf.chunk()[..plen]).ok()?.to_string();
            Some(FapiMsg::Config(ConfigRequest {
                ru_id,
                cell_id,
                num_prbs,
                tdd_pattern: pattern,
            }))
        }
        TAG_START => Some(FapiMsg::Start { ru_id }),
        TAG_STOP => Some(FapiMsg::Stop { ru_id }),
        TAG_SLOT_IND => {
            let slot = get_slot(&mut buf)?;
            Some(FapiMsg::SlotInd(SlotIndication { ru_id, slot }))
        }
        TAG_DL_TTI => {
            let slot = get_slot(&mut buf)?;
            let pdsch = get_sched_pdus(&mut buf)?;
            Some(FapiMsg::DlTti(DlTtiRequest { ru_id, slot, pdsch }))
        }
        TAG_UL_TTI => {
            let slot = get_slot(&mut buf)?;
            let pusch = get_sched_pdus(&mut buf)?;
            Some(FapiMsg::UlTti(UlTtiRequest { ru_id, slot, pusch }))
        }
        TAG_TX_DATA => {
            let slot = get_slot(&mut buf)?;
            let n = get_count(&mut buf)?;
            let mut tbs = Vec::with_capacity(n);
            for _ in 0..n {
                if buf.remaining() < 2 {
                    return None;
                }
                let rnti = buf.get_u16();
                let payload = get_bytes(&mut buf)?;
                tbs.push((rnti, payload));
            }
            Some(FapiMsg::TxData(TxDataRequest { ru_id, slot, tbs }))
        }
        TAG_RX_DATA => {
            let slot = get_slot(&mut buf)?;
            let n = get_count(&mut buf)?;
            let mut tbs = Vec::with_capacity(n);
            for _ in 0..n {
                if buf.remaining() < 3 {
                    return None;
                }
                let rnti = buf.get_u16();
                let harq_id = buf.get_u8();
                let payload = get_bytes(&mut buf)?;
                tbs.push(RxTb {
                    rnti,
                    harq_id,
                    payload,
                });
            }
            Some(FapiMsg::RxData(RxDataIndication { ru_id, slot, tbs }))
        }
        TAG_CRC_IND => {
            let slot = get_slot(&mut buf)?;
            let n = get_count(&mut buf)?;
            let mut crcs = Vec::with_capacity(n);
            for _ in 0..n {
                if buf.remaining() < 6 {
                    return None;
                }
                crcs.push(CrcEntry {
                    rnti: buf.get_u16(),
                    harq_id: buf.get_u8(),
                    ok: buf.get_u8() != 0,
                    snr_x10: buf.get_i16(),
                });
            }
            Some(FapiMsg::CrcInd(CrcIndication { ru_id, slot, crcs }))
        }
        TAG_UCI_IND => {
            let slot = get_slot(&mut buf)?;
            let n = get_count(&mut buf)?;
            let mut acks = Vec::with_capacity(n);
            for _ in 0..n {
                if buf.remaining() < 4 {
                    return None;
                }
                acks.push(UciAck {
                    rnti: buf.get_u16(),
                    harq_id: buf.get_u8(),
                    ack: buf.get_u8() != 0,
                });
            }
            Some(FapiMsg::UciInd(UciIndication { ru_id, slot, acks }))
        }
        TAG_ERROR => {
            let slot = get_slot(&mut buf)?;
            if buf.remaining() < 2 {
                return None;
            }
            Some(FapiMsg::Error(ErrorIndication {
                ru_id,
                slot,
                code: buf.get_u16(),
            }))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot() -> SlotId {
        SlotId {
            sfn: 511,
            subframe: 9,
            slot: 1,
        }
    }

    fn all_messages() -> Vec<FapiMsg> {
        vec![
            FapiMsg::Config(ConfigRequest {
                ru_id: 3,
                cell_id: 42,
                num_prbs: 273,
                tdd_pattern: "DDDSU".into(),
            }),
            FapiMsg::Start { ru_id: 3 },
            FapiMsg::Stop { ru_id: 3 },
            FapiMsg::SlotInd(SlotIndication {
                ru_id: 3,
                slot: slot(),
            }),
            FapiMsg::DlTti(DlTtiRequest {
                ru_id: 3,
                slot: slot(),
                pdsch: vec![PdschPdu {
                    rnti: 0x4601,
                    harq_id: 5,
                    ndi: true,
                    rv: 2,
                    mcs: 9,
                    start_prb: 0,
                    num_prb: 106,
                    tb_bytes: 3821,
                }],
            }),
            FapiMsg::UlTti(UlTtiRequest {
                ru_id: 3,
                slot: slot(),
                pusch: vec![
                    PuschPdu {
                        rnti: 0x4601,
                        harq_id: 1,
                        ndi: false,
                        rv: 0,
                        mcs: 4,
                        start_prb: 0,
                        num_prb: 50,
                        tb_bytes: 900,
                    },
                    PuschPdu {
                        rnti: 0x4602,
                        harq_id: 2,
                        ndi: true,
                        rv: 1,
                        mcs: 11,
                        start_prb: 50,
                        num_prb: 56,
                        tb_bytes: 2000,
                    },
                ],
            }),
            FapiMsg::TxData(TxDataRequest {
                ru_id: 3,
                slot: slot(),
                tbs: vec![(0x4601, Bytes::from_static(b"downlink payload"))],
            }),
            FapiMsg::RxData(RxDataIndication {
                ru_id: 3,
                slot: slot(),
                tbs: vec![RxTb {
                    rnti: 0x4601,
                    harq_id: 1,
                    payload: Bytes::from_static(b"uplink payload"),
                }],
            }),
            FapiMsg::CrcInd(CrcIndication {
                ru_id: 3,
                slot: slot(),
                crcs: vec![CrcEntry {
                    rnti: 0x4601,
                    harq_id: 1,
                    ok: false,
                    snr_x10: 183,
                }],
            }),
            FapiMsg::UciInd(UciIndication {
                ru_id: 3,
                slot: slot(),
                acks: vec![UciAck {
                    rnti: 0x4601,
                    harq_id: 5,
                    ack: true,
                }],
            }),
            FapiMsg::Error(ErrorIndication {
                ru_id: 3,
                slot: slot(),
                code: 0x0101,
            }),
        ]
    }

    #[test]
    fn roundtrip_all_message_types() {
        for msg in all_messages() {
            let bytes = encode(&msg);
            let parsed = decode(&bytes);
            assert_eq!(parsed.as_ref(), Some(&msg), "{msg:?}");
        }
    }

    #[test]
    fn ul_and_dl_tti_differ_only_in_the_tag_byte() {
        let pdus: Vec<SchedPdu> = all_messages()
            .into_iter()
            .flat_map(|m| match m {
                FapiMsg::DlTti(d) => d.pdsch,
                FapiMsg::UlTti(u) => u.pusch,
                _ => Vec::new(),
            })
            .collect();
        assert_eq!(pdus.len(), 3);
        let dl = encode(&FapiMsg::DlTti(DlTtiRequest {
            ru_id: 3,
            slot: slot(),
            pdsch: pdus.clone(),
        }));
        let ul = encode(&FapiMsg::UlTti(UlTtiRequest {
            ru_id: 3,
            slot: slot(),
            pusch: pdus,
        }));
        assert_eq!((dl[0], ul[0]), (TAG_DL_TTI, TAG_UL_TTI));
        assert_eq!(dl[1..], ul[1..]);
    }

    #[test]
    fn null_requests_are_tiny() {
        let null = FapiMsg::UlTti(UlTtiRequest::null(1, slot()));
        assert!(encode(&null).len() <= 8, "len={}", encode(&null).len());
        assert!(matches!(&null, FapiMsg::UlTti(u) if u.pusch.is_empty()));
    }

    #[test]
    fn truncation_never_panics_and_fails_cleanly() {
        for msg in all_messages() {
            let bytes = encode(&msg);
            for cut in 0..bytes.len() {
                // Must not panic; may return None or a shorter valid
                // prefix-parse only for list-free messages.
                let _ = decode(&bytes[..cut]);
            }
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(decode(&[99, 0, 0, 0, 0, 0]).is_none());
        assert!(decode(&[]).is_none());
    }

    #[test]
    fn hostile_counts_rejected() {
        // UL_TTI with count=65535 but no payload.
        let mut buf = vec![6u8, 1, 0, 0, 0, 0, 0xFF, 0xFF];
        buf.extend_from_slice(&[0u8; 10]);
        assert!(decode(&buf).is_none());
    }

    #[test]
    fn slot_and_ru_accessors() {
        for msg in all_messages() {
            assert_eq!(msg.ru_id(), 3);
            if !matches!(
                msg,
                FapiMsg::Config(_) | FapiMsg::Start { .. } | FapiMsg::Stop { .. }
            ) {
                assert_eq!(msg.slot(), Some(slot()));
            }
        }
    }

    #[test]
    fn request_vs_indication_classification() {
        for msg in all_messages() {
            let expect = matches!(
                msg,
                FapiMsg::Config(_)
                    | FapiMsg::Start { .. }
                    | FapiMsg::Stop { .. }
                    | FapiMsg::DlTti(_)
                    | FapiMsg::UlTti(_)
                    | FapiMsg::TxData(_)
            );
            assert_eq!(msg.is_request(), expect);
        }
    }
}
