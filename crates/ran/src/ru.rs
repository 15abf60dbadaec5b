//! The radio unit (RU) model.
//!
//! The RU is deliberately dumb, like the commercial O-RAN radios the
//! paper targets (§9: "special logic in the RUs ... is not possible
//! with today's commercial radios"): it digitizes uplink radio into
//! fronthaul packets addressed to a *virtual PHY MAC address* (§5.1),
//! and transmits downlink only when its PHY feeds it fronthaul — when
//! the PHY dies, the cell goes dark and UEs start their RLF timers.

use slingshot_fronthaul::{fh_header, Direction, FhMessage, UciMsg};
use slingshot_netsim::{EtherType, Frame, MacAddr};
use slingshot_sim::{Ctx, Node, NodeId, SlotClock, SlotId, SLOT_DURATION};

use crate::fidelity::{kernels_of, pilot_len, FhAssembly};
use crate::msg::{timer_tokens, DlAllocation, Msg, RadioDlBurst, RadioUlBurst, AIR_LATENCY};

/// The RU node.
pub struct RuNode {
    pub ru_id: u8,
    clock: SlotClock,
    /// Ethernet peer (the switch).
    switch: Option<NodeId>,
    /// Attached UEs (radio broadcast domain).
    ues: Vec<NodeId>,
    mac: MacAddr,
    /// Downlink fronthaul being assembled per slot. Any frame for a
    /// slot — the heartbeat C-plane included — means the PHY fed it.
    dl_rx: FhAssembly,
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
            dl_rx: FhAssembly::default(),
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

    /// Uplink fronthaul goes to the RU's virtual PHY address, which the
    /// in-switch middlebox translates to the active PHY (§5.1).
    fn send_fh(&mut self, ctx: &mut Ctx<'_, Msg>, msg: &FhMessage) {
        let dst = MacAddr::virtual_phy(self.ru_id);
        let frame = Frame::new(dst, self.mac, EtherType::Ecpri, msg.to_bytes());
        if let Some(sw) = self.switch {
            ctx.send(sw, Msg::Eth(frame));
            self.ul_frames_tx += 1;
        }
    }

    /// Pack one uplink burst into fronthaul messages.
    fn uplink_to_fronthaul(&mut self, ctx: &mut Ctx<'_, Msg>, burst: RadioUlBurst) {
        let hdr = fh_header(Direction::Uplink, burst.slot, 0, self.ru_id);
        burst
            .signal
            .pack(kernels_of(ctx), hdr, burst.start_prb, burst.rnti, |m| {
                self.send_fh(ctx, m)
            });
        if !burst.ucis.is_empty() {
            let entries = burst.ucis;
            self.send_fh(ctx, &FhMessage::Uci(UciMsg { hdr, entries }));
        }
    }

    /// Emit the over-the-air downlink burst for slot `abs`, if the PHY
    /// fed us fronthaul for it.
    fn radiate(&mut self, ctx: &mut Ctx<'_, Msg>, abs: u64) {
        let Some(mut buf) = self.dl_rx.remove(abs) else {
            self.slots_dark += 1;
            return;
        };
        let dcis = std::mem::take(&mut buf.dcis);
        let pdsch = dcis
            .iter()
            .filter(|d| !d.uplink)
            .map(|dci| DlAllocation {
                rnti: dci.rnti,
                start_prb: dci.start_prb,
                num_prb: dci.num_prb,
                signal: buf.take(dci.start_prb, dci.rnti, pilot_len(dci.num_prb)),
            })
            .collect();
        // One Arc-shared burst for the whole cell: the per-UE clone
        // below is two reference-count bumps, not a deep copy of the
        // PDSCH symbol buffers.
        let burst = RadioDlBurst {
            ru_id: self.ru_id,
            slot: SlotId::from_absolute(abs),
            dcis: std::sync::Arc::new(dcis),
            pdsch: std::sync::Arc::new(pdsch),
        };
        self.bursts_tx += 1;
        for i in 0..self.ues.len() {
            let ue = self.ues[i];
            ctx.send_in(ue, AIR_LATENCY, Msg::RadioDl(burst.clone()));
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
        let abs = self.clock.absolute_slot(ctx.now());
        // 1. Radiate downlink for the slot that just began.
        self.radiate(ctx, abs);
        self.dl_rx.gc(abs);
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
                        let abs = self.clock.abs_of_scalar(ctx.now(), fh.hdr().slot_scalar());
                        self.dl_rx.absorb(kernels_of(ctx), abs, fh);
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

#[cfg(test)]
mod tests {
    use super::*;
    use slingshot_fronthaul::CPlaneMsg;
    use slingshot_sim::time::SCALAR_EPOCH;
    use slingshot_sim::{Engine, Nanos};

    /// A UE-side listener: the slot of every downlink burst it hears.
    #[derive(Default)]
    struct Ear {
        heard: Vec<SlotId>,
    }

    impl Node<Msg> for Ear {
        fn on_msg(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
            if let Msg::RadioDl(burst) = msg {
                self.heard.push(burst.slot);
            }
        }
    }

    /// Downlink fronthaul for slot `abs` — the PHY's bare heartbeat
    /// C-plane is enough to mark a slot as fed — arriving `at_us` into
    /// slot `during`.
    fn feed(eng: &mut Engine<Msg>, ru: NodeId, abs: u64, during: u64, at_us: u64) {
        let fh = FhMessage::CPlane(CPlaneMsg {
            hdr: fh_header(Direction::Downlink, SlotId::from_absolute(abs), 0, 0),
            sections: Vec::new(),
        });
        let frame = Frame::new(
            MacAddr::for_ru(0),
            MacAddr::for_phy(0),
            EtherType::Ecpri,
            fh.to_bytes(),
        );
        let at = Nanos(during * SLOT_DURATION.0 + at_us * 1_000);
        eng.post(at, ru, Msg::Eth(frame));
    }

    #[test]
    fn fronthaul_fed_across_the_scalar_wrap_still_radiates() {
        // The wire scalar wraps at SCALAR_EPOCH; a stale-buffer sweep
        // that runs in the last slots before the wrap must not take the
        // already-delivered fronthaul of the first slots after it.
        let wrap = SCALAR_EPOCH;
        let mut eng = Engine::<Msg>::new(7);
        let ru = eng.add_node("ru", Box::new(RuNode::new(0, SlotClock::new(Nanos::ZERO))));
        let ear = eng.add_node("ear", Box::new(Ear::default()));
        eng.node_mut::<RuNode>(ru).unwrap().wire(ear, vec![ear]);
        // A mid-slot heartbeat names a slot that already radiated and
        // leaves one stale buffer behind; 254 of those, the two future
        // slots' fronthaul, and one more packet in the last slot before
        // the wrap make 257 buffers — past the threshold at which the
        // scalar-keyed sweep this test pins used to run.
        for abs in wrap - 255..=wrap - 2 {
            feed(&mut eng, ru, abs, abs, 250);
        }
        feed(&mut eng, ru, wrap, wrap - 2, 300);
        feed(&mut eng, ru, wrap + 1, wrap - 2, 310);
        feed(&mut eng, ru, wrap - 1, wrap - 1, 250);
        eng.run_until(Nanos((wrap + 2) * SLOT_DURATION.0 + 100_000));
        let heard = &eng.node::<Ear>(ear).unwrap().heard;
        assert_eq!(
            heard,
            &[SlotId::from_absolute(wrap), SlotId::from_absolute(wrap + 1)],
            "both slots past the wrap were fed two slots ahead and must radiate"
        );
    }
}
