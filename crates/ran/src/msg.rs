//! The global simulation message type.
//!
//! Every node in the testbed — RUs, PHY servers, the L2 server, Orion
//! middleboxes, the switch, the core network, UEs, and app servers —
//! exchanges values of [`Msg`]. Inter-server traffic is always
//! [`Msg::Eth`] (real serialized frames); the over-the-air path uses
//! typed radio bursts carrying actual modulated symbols.

use std::sync::Arc;

use bytes::Bytes;

use crate::fidelity::TbSignal;
use slingshot_fapi::FapiMsg;
use slingshot_fronthaul::{DciEntry, UciEntry};
use slingshot_netsim::Frame;
use slingshot_sim::{Message, Nanos, SimRng, SlotId};

/// A downlink over-the-air burst, broadcast by the RU each slot in
/// which it received downlink fronthaul from its PHY. Its mere presence
/// is the cell's reference signal: a UE that misses bursts for its
/// radio-link-failure timeout declares RLF.
///
/// The payload vectors are `Arc`-shared: the RU broadcasts one burst to
/// every attached UE, and the PDSCH symbol buffers are by far the
/// largest allocations on the hot path, so cloning the burst per UE is
/// a reference-count bump, not a deep copy. Receivers only read through
/// the `Arc` (each UE clones just its own allocation's signal to apply
/// its receiver channel), which keeps the shared payload immutable.
#[derive(Debug, Clone)]
pub struct RadioDlBurst {
    pub ru_id: u8,
    pub slot: SlotId,
    /// Decoded scheduling information (PDCCH content).
    pub dcis: Arc<Vec<DciEntry>>,
    /// Per-assignment PDSCH symbols, keyed by the PRB range in the DCI.
    pub pdsch: Arc<Vec<DlAllocation>>,
}

/// One UE's downlink allocation worth of signal.
#[derive(Debug, Clone)]
pub struct DlAllocation {
    pub rnti: u16,
    pub start_prb: u16,
    pub num_prb: u16,
    /// Clean signal at the RU; each UE applies its own channel.
    pub signal: TbSignal,
}

/// An uplink over-the-air transmission from one UE for one slot.
#[derive(Debug, Clone)]
pub struct RadioUlBurst {
    pub ru_id: u8,
    pub slot: SlotId,
    pub rnti: u16,
    pub start_prb: u16,
    pub num_prb: u16,
    /// Channel noise already applied (the UE knows its own SNR
    /// process; statistically equivalent to applying it at the RU).
    pub signal: TbSignal,
    /// HARQ feedback for downlink TBs (decoded PUCCH content).
    pub ucis: Vec<UciEntry>,
}

/// A user-plane packet (an opaque transport-layer segment) traversing
/// app server ↔ core ↔ L2 ↔ UE.
#[derive(Debug, Clone)]
pub struct UserPacket {
    /// The UE this packet belongs to.
    pub rnti: u16,
    /// True when heading toward the UE (downlink).
    pub downlink: bool,
    pub payload: Bytes,
}

impl UserPacket {
    /// Approximate IP+UDP overhead added on the wire.
    pub(crate) const HEADER_OVERHEAD: usize = 28;

    pub fn wire_size(&self) -> usize {
        self.payload.len() + Self::HEADER_OVERHEAD
    }
}

/// Control-plane messages (RRC/NGAP-scale signaling and experiment
/// control). These do not model message contents, only their timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtlMsg {
    /// UE requests attachment (random access + RRC setup start).
    AttachRequest { rnti: u16 },
    /// Network accepted; UE is connected.
    AttachAccept { rnti: u16 },
    /// UE context released (network side observed loss).
    Detach { rnti: u16 },
    /// Operator/controller-initiated planned PHY migration for an RU
    /// (live upgrade, §8.3; delivered to the L2-side Orion).
    PlannedMigration { ru_id: u8 },
    /// Recovery-orchestrator command to a (just-restarted) PHY process:
    /// wipe all per-RU soft state and clear crash flags so the server
    /// can be returned to the shared spare pool as a clean machine.
    PhyScrub,
    /// A3 measurement report: the UE's mobility model saw a neighbour
    /// beat its serving cell by the hysteresis margin for the full
    /// time-to-trigger window. SNRs are centi-dB fixed point (this enum
    /// is `Eq`; no floats). Sent UE → serving L2 → handover controller.
    MeasurementReport {
        rnti: u16,
        serving_ru: u8,
        target_ru: u8,
        serving_snr_cdb: i32,
        target_snr_cdb: i32,
    },
    /// Handover controller → source L2: flush the UE's HARQ state,
    /// release it locally, and export its context toward the target.
    HandoverContextRequest { rnti: u16, target_ru: u8 },
    /// Source L2 → controller → target L2: the UE's portable context
    /// (link-adaptation SNR in centi-dB, slice kind as its `u8`
    /// discriminant). The source has already flushed HARQ and stopped
    /// scheduling the UE when this leaves.
    HandoverContextTransfer {
        rnti: u16,
        source_ru: u8,
        target_ru: u8,
        snr_cdb: i32,
        slice: u8,
    },
    /// Controller → UE: re-tune to the target cell at the given slot
    /// scalar (the same wrapping slot-scalar space the switch's
    /// migrate-on-slot register uses).
    HandoverCommand {
        rnti: u16,
        source_ru: u8,
        target_ru: u8,
        slot_scalar: u16,
    },
    /// UE → target L2 → controller: the UE came up on the target cell
    /// at the cutover boundary.
    HandoverComplete { rnti: u16, target_ru: u8 },
    /// Controller → core: re-point the UE's downlink route to the L2 of
    /// `target_ru` (the backhaul-side half of the cutover).
    RouteUpdate { rnti: u16, target_ru: u8 },
}

/// The top-level message enum.
#[derive(Debug)]
pub enum Msg {
    /// An Ethernet frame: fronthaul eCPRI, Orion's FAPI-over-UDP, user
    /// plane between servers, switch control packets.
    Eth(Frame),
    /// FAPI over shared memory (same-host L2↔Orion↔PHY hops).
    FapiShm(FapiMsg),
    /// Over-the-air downlink.
    RadioDl(RadioDlBurst),
    /// Over-the-air uplink.
    RadioUl(RadioUlBurst),
    /// User-plane packet on non-RAN segments (server ↔ core ↔ L2).
    User(UserPacket),
    /// Signaling.
    Ctl(CtlMsg),
}

impl Message for Msg {
    fn wire_size(&self) -> usize {
        match self {
            Msg::Eth(f) => f.wire_size(),
            // SHM messages don't serialize; model a small fixed copy
            // cost by reporting a nominal size.
            Msg::FapiShm(_) => 64,
            // Radio bursts traverse the air, not a bandwidth-limited
            // link; size is irrelevant.
            Msg::RadioDl(_) | Msg::RadioUl(_) => 0,
            Msg::User(p) => p.wire_size(),
            Msg::Ctl(_) => 64,
        }
    }

    fn corrupt(&mut self, rng: &mut SimRng) -> bool {
        match self {
            Msg::Eth(f) => f.corrupt_payload(rng),
            _ => false,
        }
    }

    fn duplicate(&self) -> Option<Self> {
        match self {
            // Only wire-format frames can be duplicated by a flaky
            // network element; SHM handles, radio bursts, and abstract
            // control messages have no replicable wire representation.
            // Frame payloads are `Bytes` (a shared, refcounted buffer),
            // so a dup fault is zero-copy: the clone shares the payload
            // rather than duplicating it.
            Msg::Eth(f) => Some(Msg::Eth(f.clone())),
            _ => None,
        }
    }
}

/// Timer tokens shared across RAN nodes. Each node's `on_timer`
/// dispatches on these well-known values; node-specific tokens start at
/// [`timer_tokens::NODE_BASE`].
pub(crate) mod timer_tokens {
    /// Fires at (or just before) each slot boundary.
    pub(crate) const SLOT_TICK: u64 = 1;
    /// App poll wakeup.
    pub(crate) const APP_POLL: u64 = 2;
    /// Generic per-node timers start here.
    pub(crate) const NODE_BASE: u64 = 100;
}

/// Convenience: total simulated air propagation delay (RU ↔ UE). Small
/// but nonzero to keep event ordering honest.
pub(crate) const AIR_LATENCY: Nanos = Nanos(3_000);

#[cfg(test)]
mod tests {
    use super::*;
    use slingshot_netsim::{EtherType, MacAddr};

    #[test]
    fn wire_sizes() {
        let f = Frame::new(
            MacAddr::for_phy(0),
            MacAddr::for_ru(0),
            EtherType::Ecpri,
            Bytes::from(vec![0u8; 100]),
        );
        assert_eq!(Msg::Eth(f).wire_size(), 118);
        let p = UserPacket {
            rnti: 1,
            downlink: true,
            payload: Bytes::from(vec![0u8; 1000]),
        };
        assert_eq!(Msg::User(p).wire_size(), 1028);
        assert_eq!(Msg::Ctl(CtlMsg::AttachRequest { rnti: 1 }).wire_size(), 64);
    }

    #[test]
    fn only_eth_corruptible() {
        let mut rng = SimRng::new(1);
        let mut m = Msg::Ctl(CtlMsg::Detach { rnti: 2 });
        assert!(!m.corrupt(&mut rng));
        let mut e = Msg::Eth(Frame::new(
            MacAddr::ZERO,
            MacAddr::ZERO,
            EtherType::Ipv4,
            Bytes::from_static(b"xyz"),
        ));
        assert!(e.corrupt(&mut rng));
    }
}
