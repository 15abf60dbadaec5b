//! The radio unit (RU) model.
//!
//! The RU is deliberately dumb, like the commercial O-RAN radios the
//! paper targets (§9: "special logic in the RUs ... is not possible
//! with today's commercial radios"): it digitizes uplink radio into
//! fronthaul packets addressed to a *virtual PHY MAC address* (§5.1),
//! and transmits downlink only when its PHY feeds it fronthaul — when
//! the PHY dies, the cell goes dark and UEs start their RLF timers.

use std::collections::HashMap;

use slingshot_fronthaul::{
    compress_symbol_with, decompress_prbs_with, fh_header, CPlaneMsg, DciEntry, Direction,
    FhMessage, ShadowMsg, UPlaneMsg, UciMsg,
};
use slingshot_netsim::{EtherType, Frame, MacAddr};
use slingshot_phy_dsp::{Cplx, SC_PER_PRB};
use slingshot_sim::{Ctx, Node, NodeId, SlotClock, SlotId, SLOT_DURATION};

use crate::fidelity::TbSignal;
use crate::msg::{timer_tokens, DlAllocation, Msg, RadioDlBurst, RadioUlBurst, AIR_LATENCY};
use slingshot_phy_dsp::DspKernels;

/// PRBs per U-plane message chunk (keeps frames under typical MTU:
/// 48 × 28 B ≈ 1.3 KB).
pub const PRBS_PER_CHUNK: usize = 48;

/// In-assembly downlink state for one slot.
#[derive(Debug, Default)]
struct DlSlotBuf {
    /// Any downlink fronthaul seen for this slot ⇒ the PHY scheduled it.
    alive: bool,
    dcis: Vec<DciEntry>,
    /// Keyed by the allocation's absolute start PRB.
    chunks: HashMap<u16, Vec<(u8, Vec<Cplx>)>>,
    /// Shadow payloads keyed by RNTI.
    shadows: HashMap<u16, (f64, bytes::Bytes)>,
}

/// The RU node.
pub struct RuNode {
    pub ru_id: u8,
    clock: SlotClock,
    /// Ethernet peer (the switch).
    switch: Option<NodeId>,
    /// Attached UEs (radio broadcast domain).
    ues: Vec<NodeId>,
    mac: MacAddr,
    /// Where uplink fronthaul is addressed: the virtual PHY address by
    /// default (the in-switch middlebox translates it).
    pub uplink_dst: MacAddr,
    dl_slots: HashMap<u16, DlSlotBuf>,
    ul_pending: Vec<RadioUlBurst>,
    /// Stats.
    pub bursts_tx: u64,
    pub slots_dark: u64,
    pub ul_frames_tx: u64,
}

impl RuNode {
    pub fn new(ru_id: u8, clock: SlotClock) -> RuNode {
        RuNode {
            ru_id,
            clock,
            switch: None,
            ues: Vec::new(),
            mac: MacAddr::for_ru(ru_id),
            uplink_dst: MacAddr::virtual_phy(ru_id),
            dl_slots: HashMap::new(),
            ul_pending: Vec::new(),
            bursts_tx: 0,
            slots_dark: 0,
            ul_frames_tx: 0,
        }
    }

    pub fn wire(&mut self, switch: NodeId, ues: Vec<NodeId>) {
        self.switch = Some(switch);
        self.ues = ues;
    }

    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    fn send_fh(&mut self, ctx: &mut Ctx<'_, Msg>, msg: &FhMessage) {
        let frame = Frame::new(self.uplink_dst, self.mac, EtherType::Ecpri, msg.to_bytes());
        if let Some(sw) = self.switch {
            ctx.send(sw, Msg::Eth(frame));
            self.ul_frames_tx += 1;
        }
    }

    /// Pack one uplink burst into fronthaul messages.
    fn uplink_to_fronthaul(&mut self, ctx: &mut Ctx<'_, Msg>, burst: RadioUlBurst) {
        let slot = burst.slot;
        // Compressed IQ chunks (pilots ‖ data as one flat stream),
        // tagged with the allocation's absolute start PRB and a chunk
        // index in the symbol field. The burst is consumed: its pilot
        // buffer becomes the flat scratch, so nothing is cloned here.
        let TbSignal {
            pilots: mut flat,
            symbols,
            shadow,
            snr_db,
        } = burst.signal;
        flat.extend_from_slice(&symbols);
        // Pad to a whole PRB; chunk boundaries then stay PRB-aligned.
        while !flat.len().is_multiple_of(SC_PER_PRB) {
            flat.push(Cplx::ZERO);
        }
        let kernels = DspKernels::from_config(ctx.kernel_config());
        let samples_per_chunk = PRBS_PER_CHUNK * SC_PER_PRB;
        for (idx, chunk) in flat.chunks(samples_per_chunk).enumerate() {
            let msg = FhMessage::UPlane(UPlaneMsg {
                hdr: fh_header(Direction::Uplink, slot, idx as u8, self.ru_id),
                start_prb: burst.start_prb,
                prbs: compress_symbol_with(kernels, chunk),
            });
            self.send_fh(ctx, &msg);
        }
        if !shadow.is_empty() {
            let msg = FhMessage::Shadow(ShadowMsg {
                hdr: fh_header(Direction::Uplink, slot, 0, self.ru_id),
                rnti: burst.rnti,
                snr_db_x100: (snr_db * 100.0) as i32,
                data: shadow,
            });
            self.send_fh(ctx, &msg);
        }
        if !burst.ucis.is_empty() {
            let msg = FhMessage::Uci(UciMsg {
                hdr: fh_header(Direction::Uplink, slot, 0, self.ru_id),
                entries: burst.ucis,
            });
            self.send_fh(ctx, &msg);
        }
    }

    /// Emit the over-the-air downlink burst for a slot, if the PHY fed
    /// us fronthaul for it.
    fn radiate(&mut self, ctx: &mut Ctx<'_, Msg>, slot: SlotId) {
        let Some(mut buf) = self.dl_slots.remove(&slot.scalar()) else {
            self.slots_dark += 1;
            return;
        };
        if !buf.alive {
            self.slots_dark += 1;
            return;
        }
        let mut pdsch = Vec::new();
        for dci in buf.dcis.iter().filter(|d| !d.uplink) {
            // Reassemble this allocation's samples from its chunks.
            let mut samples = Vec::new();
            if let Some(mut chunks) = buf.chunks.remove(&dci.start_prb) {
                chunks.sort_by_key(|(idx, _)| *idx);
                for (_, c) in chunks {
                    samples.extend(c);
                }
            }
            let pilot_len = dci.num_prb as usize * SC_PER_PRB;
            let (pilots, symbols) = if samples.len() >= pilot_len {
                let symbols = samples.split_off(pilot_len);
                (samples, symbols)
            } else {
                (Vec::new(), Vec::new())
            };
            let (snr_hint, shadow) = buf
                .shadows
                .get(&dci.rnti)
                .cloned()
                .unwrap_or((f64::NAN, bytes::Bytes::new()));
            pdsch.push(DlAllocation {
                rnti: dci.rnti,
                start_prb: dci.start_prb,
                num_prb: dci.num_prb,
                signal: TbSignal {
                    pilots,
                    symbols,
                    shadow,
                    snr_db: snr_hint,
                },
            });
        }
        // One Arc-shared burst for the whole cell: the per-UE clone
        // below is two reference-count bumps, not a deep copy of the
        // PDSCH symbol buffers.
        let burst = RadioDlBurst {
            ru_id: self.ru_id,
            slot,
            dcis: std::sync::Arc::new(buf.dcis),
            pdsch: std::sync::Arc::new(pdsch),
        };
        self.bursts_tx += 1;
        for i in 0..self.ues.len() {
            let ue = self.ues[i];
            ctx.send_in(ue, AIR_LATENCY, Msg::RadioDl(burst.clone()));
        }
    }

    fn on_dl_fronthaul(&mut self, kernels: DspKernels, msg: FhMessage) {
        let scalar = msg.hdr().slot_scalar();
        let buf = self.dl_slots.entry(scalar).or_default();
        buf.alive = true;
        match msg {
            FhMessage::CPlane(CPlaneMsg { .. }) => {}
            FhMessage::Dci(d) => buf.dcis.extend(d.entries),
            FhMessage::UPlane(u) => {
                buf.chunks
                    .entry(u.start_prb)
                    .or_default()
                    .push((u.hdr.symbol, decompress_prbs_with(kernels, &u.prbs)));
            }
            FhMessage::Shadow(s) => {
                buf.shadows
                    .insert(s.rnti, (s.snr_db_x100 as f64 / 100.0, s.data));
            }
            FhMessage::Uci(_) => {} // uplink-only; ignore
        }
        // Garbage-collect stale slots (keep a window of ~64 slots).
        if self.dl_slots.len() > 256 {
            let min_keep = scalar.wrapping_sub(64);
            self.dl_slots.retain(|k, _| k.wrapping_sub(min_keep) < 128);
        }
    }
}

impl Node<Msg> for RuNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.timer_at(
            self.clock.next_slot_start(ctx.now()),
            timer_tokens::SLOT_TICK,
        );
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        if token != timer_tokens::SLOT_TICK {
            return;
        }
        let now = ctx.now();
        let slot = self.clock.slot_id(now);
        // 1. Radiate downlink for the slot that just began.
        self.radiate(ctx, slot);
        // 2. Forward uplink captured during the previous slot.
        for burst in std::mem::take(&mut self.ul_pending) {
            self.uplink_to_fronthaul(ctx, burst);
        }
        ctx.timer(SLOT_DURATION, timer_tokens::SLOT_TICK);
    }

    fn on_msg(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        match msg {
            Msg::Eth(frame) => {
                if frame.ethertype != EtherType::Ecpri || frame.dst != self.mac {
                    return;
                }
                if let Some(fh) = FhMessage::from_bytes(&frame.payload) {
                    if fh.direction() == Direction::Downlink {
                        let kernels = DspKernels::from_config(ctx.kernel_config());
                        self.on_dl_fronthaul(kernels, fh);
                    }
                }
            }
            Msg::RadioUl(burst) if burst.ru_id == self.ru_id => {
                self.ul_pending.push(burst);
            }
            _ => {}
        }
    }
}
