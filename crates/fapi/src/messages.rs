//! FAPI message types (modeled on the Small Cell Forum 5G FAPI PHY API).
//!
//! The FAPI interface is the "narrow waist" between L2 and PHY that
//! Orion interposes on (paper §6). The spec requires the L2 to send
//! `DL_TTI.request` and `UL_TTI.request` in *every* slot — a PHY that
//! stops receiving them is allowed to crash (FlexRAN does). Slingshot's
//! null-FAPI trick (§6.2) sends requests with zero PDUs to keep the
//! secondary PHY alive at negligible cost; [`DlTtiRequest::null`] and
//! [`UlTtiRequest::null`] construct exactly those.

use bytes::Bytes;

use slingshot_sim::SlotId;

/// A shared-channel scheduling entry: one transport block on one HARQ
/// process over a PRB range. A link has two directions and one PDU
/// shape, so the wire format cannot fork between them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedPdu {
    pub rnti: u16,
    pub harq_id: u8,
    /// New-data indicator; toggles for a fresh transport block.
    pub ndi: bool,
    /// Redundancy version of this transmission.
    pub rv: u8,
    pub mcs: u8,
    pub start_prb: u16,
    pub num_prb: u16,
    /// Transport block size in bytes.
    pub tb_bytes: u32,
}

/// A downlink shared-channel PDU (PDSCH scheduling entry).
pub type PdschPdu = SchedPdu;

/// An uplink shared-channel PDU (PUSCH grant).
pub type PuschPdu = SchedPdu;

/// `DL_TTI.request`: downlink work for one slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DlTtiRequest {
    pub ru_id: u8,
    pub slot: SlotId,
    pub pdsch: Vec<PdschPdu>,
}

impl DlTtiRequest {
    /// A null request: protocol-valid, zero signal-processing work.
    pub fn null(ru_id: u8, slot: SlotId) -> DlTtiRequest {
        DlTtiRequest {
            ru_id,
            slot,
            pdsch: Vec::new(),
        }
    }
}

/// `UL_TTI.request`: uplink grants for one slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UlTtiRequest {
    pub ru_id: u8,
    pub slot: SlotId,
    pub pusch: Vec<PuschPdu>,
}

impl UlTtiRequest {
    pub fn null(ru_id: u8, slot: SlotId) -> UlTtiRequest {
        UlTtiRequest {
            ru_id,
            slot,
            pusch: Vec::new(),
        }
    }
}

/// `TX_Data.request`: downlink transport-block payloads for a slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxDataRequest {
    pub ru_id: u8,
    pub slot: SlotId,
    pub tbs: Vec<(u16, Bytes)>,
}

/// `RX_Data.indication`: decoded uplink payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RxDataIndication {
    pub ru_id: u8,
    pub slot: SlotId,
    pub tbs: Vec<RxTb>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RxTb {
    pub rnti: u16,
    pub harq_id: u8,
    pub payload: Bytes,
}

/// `CRC.indication`: per-PDU uplink decode outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrcIndication {
    pub ru_id: u8,
    pub slot: SlotId,
    pub crcs: Vec<CrcEntry>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrcEntry {
    pub rnti: u16,
    pub harq_id: u8,
    pub ok: bool,
    /// PHY-reported post-equalization SNR ×10 (dB), for scheduler link
    /// adaptation.
    pub snr_x10: i16,
}

/// `UCI.indication`: uplink control (downlink HARQ acknowledgments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UciIndication {
    pub ru_id: u8,
    pub slot: SlotId,
    pub acks: Vec<UciAck>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UciAck {
    pub rnti: u16,
    pub harq_id: u8,
    pub ack: bool,
}

/// `CONFIG.request`: carrier/cell configuration for an RU. The L2-side
/// Orion stores a duplicate of this to initialize secondary PHYs
/// (paper §6.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigRequest {
    pub ru_id: u8,
    pub cell_id: u16,
    pub num_prbs: u16,
    /// TDD pattern string, e.g. "DDDSU".
    pub tdd_pattern: String,
}

/// `SLOT.indication`: the PHY's per-slot tick to the L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotIndication {
    pub ru_id: u8,
    pub slot: SlotId,
}

/// `ERROR.indication`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorIndication {
    pub ru_id: u8,
    pub slot: SlotId,
    pub code: u16,
}

/// Any FAPI message.
#[derive(Debug, Clone, PartialEq)]
pub enum FapiMsg {
    Config(ConfigRequest),
    Start { ru_id: u8 },
    Stop { ru_id: u8 },
    SlotInd(SlotIndication),
    DlTti(DlTtiRequest),
    UlTti(UlTtiRequest),
    TxData(TxDataRequest),
    RxData(RxDataIndication),
    CrcInd(CrcIndication),
    UciInd(UciIndication),
    Error(ErrorIndication),
}

impl FapiMsg {
    /// The RU (carrier) this message belongs to.
    pub fn ru_id(&self) -> u8 {
        match self {
            FapiMsg::Config(m) => m.ru_id,
            FapiMsg::Start { ru_id } | FapiMsg::Stop { ru_id } => *ru_id,
            FapiMsg::SlotInd(m) => m.ru_id,
            FapiMsg::DlTti(m) => m.ru_id,
            FapiMsg::UlTti(m) => m.ru_id,
            FapiMsg::TxData(m) => m.ru_id,
            FapiMsg::RxData(m) => m.ru_id,
            FapiMsg::CrcInd(m) => m.ru_id,
            FapiMsg::UciInd(m) => m.ru_id,
            FapiMsg::Error(m) => m.ru_id,
        }
    }

    /// The slot this message refers to, if slot-scoped.
    pub fn slot(&self) -> Option<SlotId> {
        match self {
            FapiMsg::SlotInd(m) => Some(m.slot),
            FapiMsg::DlTti(m) => Some(m.slot),
            FapiMsg::UlTti(m) => Some(m.slot),
            FapiMsg::TxData(m) => Some(m.slot),
            FapiMsg::RxData(m) => Some(m.slot),
            FapiMsg::CrcInd(m) => Some(m.slot),
            FapiMsg::UciInd(m) => Some(m.slot),
            FapiMsg::Error(m) => Some(m.slot),
            _ => None,
        }
    }

    /// True for L2→PHY requests, false for PHY→L2 indications.
    pub fn is_request(&self) -> bool {
        matches!(
            self,
            FapiMsg::Config(_)
                | FapiMsg::Start { .. }
                | FapiMsg::Stop { .. }
                | FapiMsg::DlTti(_)
                | FapiMsg::UlTti(_)
                | FapiMsg::TxData(_)
        )
    }
}
