//! The L2 node: MAC scheduler + RLC + FAPI client (the CapGemini-L2
//! stand-in). It issues `UL_TTI.request` / `DL_TTI.request` for every
//! slot (with the configured advance), packs downlink user traffic
//! into transport blocks, reassembles uplink, and runs HARQ via the
//! [`crate::sched::Scheduler`].

use std::collections::BTreeMap;

use bytes::{BufMut, Bytes};

use slingshot_fapi::{ConfigRequest, DlTtiRequest, FapiMsg, TxDataRequest, UlTtiRequest};
use slingshot_sim::{Ctx, Node, NodeId, SlotClock, SlotId, SlotKind, TraceEventKind};

use crate::cell::CellConfig;
use crate::msg::{timer_tokens, CtlMsg, Msg, UserPacket};
use crate::rlc::{RlcRx, RlcTx};
use crate::sched::{Policy, Scheduler};
use crate::slice::SliceKind;

/// MAC SDU marker bytes: RLC data vs padding.
pub(crate) const MAC_MARKER_DATA: u8 = 0x01;
pub(crate) const MAC_MARKER_PADDING: u8 = 0x00;

/// Build a MAC PDU of exactly `tbs` bytes from an RLC queue (padding
/// if short; pure padding when the queue is empty).
pub(crate) fn build_mac_pdu(rlc: &mut RlcTx, tbs: usize) -> Bytes {
    let mut out = Vec::with_capacity(tbs);
    if let Some(sdu) = rlc.build_tb(tbs.saturating_sub(1)) {
        out.put_u8(MAC_MARKER_DATA);
        out.extend_from_slice(&sdu);
    } else {
        out.put_u8(MAC_MARKER_PADDING);
    }
    out.resize(tbs, 0);
    Bytes::from(out)
}

/// Parse a MAC PDU; returns the RLC SDU bytes when it carries data.
pub(crate) fn parse_mac_pdu(pdu: &[u8]) -> Option<&[u8]> {
    match pdu.split_first() {
        Some((&MAC_MARKER_DATA, rest)) => Some(rest),
        _ => None,
    }
}

/// Per-UE L2 state.
struct UeCtx {
    dl_rlc: RlcTx,
    ul_rlc: RlcRx,
    connected: bool,
}

fn new_rlc_rx(ordered: bool) -> RlcRx {
    if ordered {
        RlcRx::new()
    } else {
        RlcRx::unordered()
    }
}

/// The L2 node.
pub struct L2Node {
    cell: CellConfig,
    clock: SlotClock,
    ru_id: u8,
    /// Where FAPI requests go: the L2-side Orion, or a PHY directly.
    fapi_peer: Option<NodeId>,
    /// The core network node (user-plane + signaling).
    core: Option<NodeId>,
    pub sched: Scheduler,
    ues: BTreeMap<u16, UeCtx>,
    started: bool,
    /// The handover controller, when this deployment runs one.
    /// Measurement reports and completes are forwarded there.
    handover_ctl: Option<NodeId>,
    /// Emit a `UeScheduled` trace event per granted UE per slot.
    /// Opt-in: only slice/handover-aware deployments turn this on, so
    /// legacy golden trace hashes are untouched.
    trace_sched: bool,
    /// Stats.
    pub ul_packets_up: u64,
    pub dl_packets_queued: u64,
    pub slots_driven: u64,
    pub handovers_out: u64,
    pub handovers_in: u64,
}

impl L2Node {
    pub fn new(cell: CellConfig, clock: SlotClock, ru_id: u8) -> L2Node {
        let sched = Scheduler::new(
            Policy::ProportionalFair,
            cell.la_margin_db,
            cell.fec_iterations,
        );
        L2Node {
            cell,
            clock,
            ru_id,
            fapi_peer: None,
            core: None,
            sched,
            ues: BTreeMap::new(),
            started: false,
            handover_ctl: None,
            trace_sched: false,
            ul_packets_up: 0,
            dl_packets_queued: 0,
            slots_driven: 0,
            handovers_out: 0,
            handovers_in: 0,
        }
    }

    pub fn wire(&mut self, fapi_peer: NodeId, core: NodeId) {
        self.fapi_peer = Some(fapi_peer);
        self.core = Some(core);
    }

    /// Point measurement reports / handover completes at a controller.
    pub fn wire_handover(&mut self, ctl: NodeId) {
        self.handover_ctl = Some(ctl);
    }

    /// Turn on per-slot `UeScheduled` trace emission (slice SLOs and
    /// the handover oracle consume these).
    pub fn enable_sched_trace(&mut self) {
        self.trace_sched = true;
    }

    /// Pre-register a UE as attached from t=0 (initial camping).
    pub fn preattach_ue(&mut self, rnti: u16, initial_snr_db: f64) {
        self.sched.add_ue(rnti, initial_snr_db);
        let ordered = self.cell.rlc_ordered;
        self.ues.insert(
            rnti,
            UeCtx {
                dl_rlc: RlcTx::new(),
                ul_rlc: new_rlc_rx(ordered),
                connected: true,
            },
        );
    }

    /// Assign a preattached UE to a traffic slice (activates the
    /// slice-aware PRB split in the scheduler).
    pub fn set_ue_slice(&mut self, rnti: u16, slice: SliceKind) {
        self.sched.set_slice(rnti, slice);
    }

    fn send_fapi(&mut self, ctx: &mut Ctx<'_, Msg>, msg: FapiMsg) {
        if let Some(peer) = self.fapi_peer {
            ctx.send(peer, Msg::FapiShm(msg));
        }
    }

    fn connected_ues(&self) -> Vec<u16> {
        let mut v: Vec<u16> = self
            .ues
            .iter()
            .filter(|(_, u)| u.connected)
            .map(|(r, _)| *r)
            .collect();
        v.sort_unstable();
        v
    }

    /// Drive one slot: issue the FAPI requests for `target` (= now +
    /// advance).
    fn drive_slot(&mut self, ctx: &mut Ctx<'_, Msg>, target_abs: u64) {
        self.slots_driven += 1;
        let slot = SlotId::from_absolute(target_abs);
        let kind = self.cell.tdd.kind(target_abs);
        let data_symbols = self.cell.data_symbols;
        let num_prbs = self.cell.num_prbs;
        let ues = self.connected_ues();

        let mut granted: Vec<u16> = Vec::new();

        // Uplink grants.
        let mut ul = UlTtiRequest::null(self.ru_id, slot);
        if kind == SlotKind::Uplink && !ues.is_empty() {
            for (rnti, start, num) in self.sched.split_prbs(&ues, num_prbs) {
                if let Some(grant) = self.sched.ul_grant(rnti, start, num, data_symbols) {
                    granted.push(rnti);
                    ul.pusch.push(grant.pdu);
                }
            }
        }
        self.send_fapi(ctx, FapiMsg::UlTti(ul));

        // Downlink assignments: only UEs with queued data get PRBs.
        let mut dl = DlTtiRequest::null(self.ru_id, slot);
        let mut tx = TxDataRequest {
            ru_id: self.ru_id,
            slot,
            tbs: Vec::new(),
        };
        if matches!(kind, SlotKind::Downlink) {
            let backlogged: Vec<u16> = ues
                .iter()
                .copied()
                .filter(|r|

                    // Retransmissions also need PRBs even with an empty
                    // queue.
                    self.ues[r].dl_rlc.backlog() > 0
                        || self.sched.ues[r].dl_inflight() > 0)
                .collect();
            if !backlogged.is_empty() {
                for (rnti, start, num) in self.sched.split_prbs(&backlogged, num_prbs) {
                    let ue = self.ues.get_mut(&rnti).expect("backlogged ue");
                    let rlc = &mut ue.dl_rlc;
                    if let Some((pdu, payload)) =
                        self.sched.dl_assign(rnti, start, num, data_symbols, |tbs| {
                            Some(build_mac_pdu(rlc, tbs))
                        })
                    {
                        granted.push(rnti);
                        dl.pdsch.push(pdu);
                        tx.tbs.push((rnti, payload));
                    }
                }
            }
        }
        let has_data = !dl.pdsch.is_empty();
        self.send_fapi(ctx, FapiMsg::DlTti(dl));
        if has_data {
            self.send_fapi(ctx, FapiMsg::TxData(tx));
        }
        if self.trace_sched && !granted.is_empty() {
            granted.sort_unstable();
            granted.dedup();
            for rnti in granted {
                let slice = self.sched.slice_of(rnti).map(|s| s as u8).unwrap_or(0);
                let a = rnti as u64 | ((self.ru_id as u64) << 16) | ((slice as u64) << 24);
                ctx.trace(TraceEventKind::UeScheduled, a, target_abs);
            }
        }
    }

    fn on_fapi(&mut self, ctx: &mut Ctx<'_, Msg>, msg: FapiMsg) {
        match msg {
            FapiMsg::CrcInd(ind) => {
                for c in ind.crcs {
                    self.sched
                        .on_ul_crc(c.rnti, c.harq_id, c.ok, c.snr_x10 as f64 / 10.0);
                }
            }
            FapiMsg::RxData(ind) => {
                let now = ctx.now();
                for tb in ind.tbs {
                    let Some(ue) = self.ues.get_mut(&tb.rnti) else {
                        continue;
                    };
                    if let Some(sdu) = parse_mac_pdu(&tb.payload) {
                        for packet in ue.ul_rlc.on_tb(now, sdu) {
                            self.ul_packets_up += 1;
                            if let Some(core) = self.core {
                                ctx.send(
                                    core,
                                    Msg::User(UserPacket {
                                        rnti: tb.rnti,
                                        downlink: false,
                                        payload: packet,
                                    }),
                                );
                            }
                        }
                    }
                }
            }
            FapiMsg::UciInd(ind) => {
                for a in ind.acks {
                    self.sched.on_dl_ack(a.rnti, a.harq_id, a.ack);
                }
            }
            _ => {}
        }
    }
}

impl Node<Msg> for L2Node {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // Configure + start the PHY path for our RU.
        self.send_fapi(
            ctx,
            FapiMsg::Config(ConfigRequest {
                ru_id: self.ru_id,
                cell_id: self.cell.cell_id,
                num_prbs: self.cell.num_prbs,
                tdd_pattern: "DDDSU".into(),
            }),
        );
        self.send_fapi(ctx, FapiMsg::Start { ru_id: self.ru_id });
        self.started = true;
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
        let abs = self.clock.absolute_slot(now);
        self.sched.tick(30);
        self.drive_slot(ctx, abs + self.cell.fapi_advance_slots);
        // Release any uplink packets held past their reassembly window.
        let rntis: Vec<u16> = self.ues.keys().copied().collect();
        for rnti in rntis {
            let ue = self.ues.get_mut(&rnti).expect("ue exists");
            let released = ue.ul_rlc.poll_expired(now);
            for packet in released {
                self.ul_packets_up += 1;
                if let Some(core) = self.core {
                    ctx.send(
                        core,
                        Msg::User(UserPacket {
                            rnti,
                            downlink: false,
                            payload: packet,
                        }),
                    );
                }
            }
        }
        ctx.timer_at(self.clock.slot_start(abs + 1), timer_tokens::SLOT_TICK);
    }

    fn on_msg(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::FapiShm(f) => self.on_fapi(ctx, f),
            Msg::User(p) if p.downlink => {
                if let Some(ue) = self.ues.get_mut(&p.rnti) {
                    if ue.connected {
                        ue.dl_rlc.enqueue(p.payload);
                        self.dl_packets_queued += 1;
                    }
                }
            }
            Msg::Ctl(CtlMsg::AttachRequest { rnti }) => {
                // (Re)admit the UE: reset any stale HARQ/RLC state.
                let ordered = self.cell.rlc_ordered;
                let entry = self.ues.entry(rnti).or_insert_with(|| UeCtx {
                    dl_rlc: RlcTx::new(),
                    ul_rlc: new_rlc_rx(ordered),
                    connected: false,
                });
                entry.connected = true;
                entry.ul_rlc = new_rlc_rx(ordered);
                if !self.sched.ues.contains_key(&rnti) {
                    self.sched.add_ue(rnti, 15.0);
                }
                self.sched.reset_ue(rnti);
                ctx.trace(TraceEventKind::HarqReset, rnti as u64, 0);
                // Accept back over the signaling path the request came
                // in on (RRC setup completion toward the UE).
                if from != NodeId::EXTERNAL {
                    ctx.send_in(
                        from,
                        slingshot_sim::Nanos::from_micros(500),
                        Msg::Ctl(CtlMsg::AttachAccept { rnti }),
                    );
                }
            }
            Msg::Ctl(report @ CtlMsg::MeasurementReport { .. }) => {
                // UE → serving L2 → handover controller.
                if let Some(ctl) = self.handover_ctl {
                    ctx.send_in(ctl, slingshot_sim::Nanos::from_micros(50), Msg::Ctl(report));
                }
            }
            Msg::Ctl(CtlMsg::HandoverContextRequest { rnti, target_ru }) => {
                // We are the source cell: stop scheduling the UE, flush
                // its HARQ processes, and export its portable context
                // back to the requester (the controller).
                let snr_cdb = self
                    .sched
                    .ues
                    .get(&rnti)
                    .map(|u| (u.dl_snr_db * 100.0).round() as i32)
                    .unwrap_or(1_500);
                let slice = self.sched.slice_of(rnti).map(|s| s as u8).unwrap_or(0);
                let ordered = self.cell.rlc_ordered;
                if let Some(ue) = self.ues.get_mut(&rnti) {
                    ue.connected = false;
                    ue.dl_rlc = RlcTx::new();
                    ue.ul_rlc = new_rlc_rx(ordered);
                }
                self.sched.reset_ue(rnti);
                ctx.trace(TraceEventKind::HarqReset, rnti as u64, 0);
                self.handovers_out += 1;
                if from != NodeId::EXTERNAL {
                    ctx.send_in(
                        from,
                        slingshot_sim::Nanos::from_micros(50),
                        Msg::Ctl(CtlMsg::HandoverContextTransfer {
                            rnti,
                            source_ru: self.ru_id,
                            target_ru,
                            snr_cdb,
                            slice,
                        }),
                    );
                }
            }
            Msg::Ctl(CtlMsg::HandoverContextTransfer {
                rnti,
                target_ru,
                snr_cdb,
                slice,
                ..
            }) if target_ru == self.ru_id => {
                // We are the target cell: pre-admit the UE with the
                // imported link-adaptation state so the first grants
                // after cutover use a sane MCS.
                let ordered = self.cell.rlc_ordered;
                let entry = self.ues.entry(rnti).or_insert_with(|| UeCtx {
                    dl_rlc: RlcTx::new(),
                    ul_rlc: new_rlc_rx(ordered),
                    connected: false,
                });
                entry.connected = true;
                entry.dl_rlc = RlcTx::new();
                entry.ul_rlc = new_rlc_rx(ordered);
                let snr_db = snr_cdb as f64 / 100.0;
                if !self.sched.ues.contains_key(&rnti) {
                    self.sched.add_ue(rnti, snr_db);
                } else {
                    self.sched.reset_ue(rnti);
                }
                if let Some(u) = self.sched.ues.get_mut(&rnti) {
                    u.ul_snr_db = snr_db;
                    u.dl_snr_db = snr_db;
                }
                if let Some(kind) = SliceKind::from_u8(slice) {
                    self.sched.set_slice(rnti, kind);
                }
                ctx.trace(TraceEventKind::HarqReset, rnti as u64, 0);
                self.handovers_in += 1;
            }
            Msg::Ctl(complete @ CtlMsg::HandoverComplete { .. }) => {
                // UE came up on us post-cutover; notify the controller
                // so it finalizes routing.
                if let CtlMsg::HandoverComplete { rnti, .. } = complete {
                    if let Some(ue) = self.ues.get_mut(&rnti) {
                        ue.connected = true;
                    }
                }
                if let Some(ctl) = self.handover_ctl {
                    ctx.send_in(
                        ctl,
                        slingshot_sim::Nanos::from_micros(50),
                        Msg::Ctl(complete),
                    );
                }
            }
            Msg::Ctl(CtlMsg::Detach { rnti }) => {
                let ordered = self.cell.rlc_ordered;
                if let Some(ue) = self.ues.get_mut(&rnti) {
                    ue.connected = false;
                    ue.dl_rlc = RlcTx::new();
                    ue.ul_rlc = new_rlc_rx(ordered);
                }
                self.sched.reset_ue(rnti);
                ctx.trace(TraceEventKind::HarqReset, rnti as u64, 0);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_pdu_roundtrip_with_data() {
        let mut rlc = RlcTx::new();
        rlc.enqueue(Bytes::from_static(b"hello user plane"));
        let pdu = build_mac_pdu(&mut rlc, 100);
        assert_eq!(pdu.len(), 100);
        let sdu = parse_mac_pdu(&pdu).unwrap();
        let mut rx = RlcRx::new();
        let got = rx.on_tb(slingshot_sim::Nanos::ZERO, sdu);
        assert_eq!(got, vec![Bytes::from_static(b"hello user plane")]);
    }

    #[test]
    fn mac_pdu_padding_when_empty() {
        let mut rlc = RlcTx::new();
        let pdu = build_mac_pdu(&mut rlc, 50);
        assert_eq!(pdu.len(), 50);
        assert_eq!(pdu[0], MAC_MARKER_PADDING);
        assert!(parse_mac_pdu(&pdu).is_none());
    }

    #[test]
    fn mac_pdu_exact_fill() {
        let mut rlc = RlcTx::new();
        rlc.enqueue(Bytes::from(vec![9u8; 5000]));
        let pdu = build_mac_pdu(&mut rlc, 256);
        assert_eq!(pdu.len(), 256);
        assert!(rlc.backlog() > 0, "remainder stays queued");
    }
}
