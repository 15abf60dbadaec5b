//! The UE model: attach / radio-link-failure / reattach state machine,
//! grant-driven uplink transmission with real coding and HARQ
//! retransmission from its transmit buffer, downlink reception with
//! soft combining and HARQ feedback, and hosting of traffic apps.
//!
//! The RLF timer (50 ms, matching the paper's setup) and the measured
//! 6.2 s reattach delay are the two constants behind the paper's §8.1
//! baseline result: without Slingshot, a PHY crash darkens the cell
//! long enough to trip RLF, and the UE is then gone for seconds.

use std::collections::HashMap;

use bytes::Bytes;

use slingshot_fronthaul::{DciEntry, UciEntry};
use slingshot_phy_dsp::channel::AwgnChannel;
use slingshot_phy_dsp::{SnrProcess, SnrProcessConfig};
use slingshot_sim::{
    Ctx, InstrumentSink, Nanos, Node, NodeId, SimRng, SlotClock, SlotId, SLOT_DURATION,
};
use slingshot_transport::UserApp;

use crate::cell::{CellConfig, REATTACH_DELAY, RLF_TIMEOUT};
use crate::fidelity::{
    apply_channel, encode_signal, kernels_of, receive_into, LdpcWork, LinkParamsTb, RxProcessPool,
};
use crate::l2::{build_mac_pdu, parse_mac_pdu};
use crate::mobility::{MobilityConfig, MobilityModel};
use crate::msg::{timer_tokens, CtlMsg, Msg, RadioUlBurst, AIR_LATENCY};
use crate::rlc::{RlcRx, RlcTx};
use crate::slice::SliceKind;

const TIMER_ATTACH_DONE: u64 = timer_tokens::NODE_BASE + 1;

/// How long a reported crossing may wait for a `HandoverCommand` before
/// the UE re-arms detection (120 slots = 60 ms, comfortably past the
/// controller's own 100-slot attempt timeout so the two never race).
const HO_REPORT_TIMEOUT: Nanos = Nanos(120 * SLOT_DURATION.0);

/// UE configuration.
#[derive(Debug, Clone)]
pub struct UeConfig {
    pub rnti: u16,
    pub ru_id: u8,
    /// Human-readable label ("OnePlus N10", "Samsung A52s", "RPi").
    pub name: String,
    pub snr: SnrProcessConfig,
    /// Traffic class for slice-aware scheduling and per-slice SLOs.
    pub slice: SliceKind,
    /// Deterministic corridor mobility; `None` pins the UE in place
    /// (the legacy static-radio behavior).
    pub mobility: Option<MobilityConfig>,
}

impl UeConfig {
    pub fn new(rnti: u16, ru_id: u8, name: &str, mean_snr_db: f64) -> UeConfig {
        UeConfig {
            rnti,
            ru_id,
            name: name.to_string(),
            snr: SnrProcessConfig {
                mean_db: mean_snr_db,
                ..Default::default()
            },
            slice: SliceKind::Embb,
            mobility: None,
        }
    }

    /// Builder: assign the UE's traffic slice.
    pub fn with_slice(mut self, slice: SliceKind) -> UeConfig {
        self.slice = slice;
        self
    }

    /// Builder: give the UE a mobility trajectory.
    pub fn with_mobility(mut self, mobility: MobilityConfig) -> UeConfig {
        self.mobility = Some(mobility);
        self
    }
}

/// Connection state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UeState {
    Connected,
    /// Lost the cell (RLF); waiting for it to reappear.
    Idle,
    /// Cell visible again; random access + RRC + core signaling in
    /// progress until the deadline.
    Attaching(Nanos),
}

/// One in-flight uplink HARQ process at the UE (the transmit buffer
/// that allows retransmission).
#[derive(Debug)]
struct UlTxProc {
    ndi: bool,
    payload: Bytes,
}

/// The UE node.
pub struct UeNode {
    pub cfg: UeConfig,
    cell: CellConfig,
    clock: SlotClock,
    channel: AwgnChannel,
    snr: SnrProcess,
    rng: SimRng,
    /// Corridor walker; `None` for the legacy static UE.
    mobility: Option<MobilityModel>,
    /// RU id of the cell currently serving us. Starts at
    /// `cfg.ru_id` and is re-pointed by handover cutover.
    serving_ru: u8,
    /// Per-cell radio wiring (RU node, L2 node), keyed by RU id. The
    /// serving pair is mirrored in `ru`/`l2`.
    cells: HashMap<u8, (NodeId, NodeId)>,
    /// An accepted `HandoverCommand`: (target RU, absolute cutover
    /// slot). Applied at the first slot tick at/after the boundary.
    pending_handover: Option<(u8, u64)>,
    /// When the last measurement report left, while the crossing is
    /// still unanswered. If no `HandoverCommand` arrives within
    /// [`HO_REPORT_TIMEOUT`] the crossing detector re-arms, so a lost
    /// report (or a dead handover controller) strands nobody.
    ho_report_time: Option<Nanos>,
    pub state: UeState,
    last_dl_burst: Nanos,
    /// Last time the network scheduled us (a DCI with our RNTI). A
    /// connected UE that stops being scheduled AND acknowledged loses
    /// radio-link sync (the baseline's failure mode: a backup stack
    /// with no context for us radiates, but never addresses us).
    last_served: Nanos,
    ru: Option<NodeId>,
    l2: Option<NodeId>,
    /// UL grants by absolute target slot.
    grants: HashMap<u64, Vec<DciEntry>>,
    ul_tx: HashMap<u8, UlTxProc>,
    dl_pool: RxProcessPool,
    ul_rlc: RlcTx,
    dl_rlc: RlcRx,
    pending_ucis: Vec<UciEntry>,
    apps: Vec<Box<dyn UserApp>>,
    pub current_snr_db: f64,
    /// Stats / instrumentation.
    pub rlf_count: u64,
    pub reattach_times: Vec<Nanos>,
    pub dl_tbs_ok: u64,
    pub dl_tbs_bad: u64,
    /// LDPC work of the downlink decodes, one TB per decode call
    /// (published as `dl_code_blocks` and `dl_ldpc_batches`).
    dl_ldpc: LdpcWork,
    pub ul_grants_served: u64,
    pub delivered_to_apps: u64,
    pub handovers_completed: u64,
}

impl UeNode {
    pub fn new(cfg: UeConfig, cell: CellConfig, clock: SlotClock, mut rng: SimRng) -> UeNode {
        let channel = AwgnChannel::new(rng.fork("channel"));
        let snr = SnrProcess::new(cfg.snr.clone(), rng.fork("snr"));
        let mean = cfg.snr.mean_db;
        let dl_rlc = if cell.rlc_ordered {
            RlcRx::new()
        } else {
            RlcRx::unordered()
        };
        let mobility = cfg
            .mobility
            .clone()
            .map(|m| MobilityModel::new(m, cfg.ru_id));
        let serving_ru = cfg.ru_id;
        UeNode {
            cfg,
            cell,
            clock,
            channel,
            snr,
            rng,
            mobility,
            serving_ru,
            cells: HashMap::new(),
            pending_handover: None,
            ho_report_time: None,
            state: UeState::Connected, // pre-camped, as in the paper
            last_dl_burst: Nanos::ZERO,
            last_served: Nanos::ZERO,
            ru: None,
            l2: None,
            grants: HashMap::new(),
            ul_tx: HashMap::new(),
            dl_pool: RxProcessPool::new(),
            ul_rlc: RlcTx::new(),
            dl_rlc,
            pending_ucis: Vec::new(),
            apps: Vec::new(),
            current_snr_db: mean,
            rlf_count: 0,
            reattach_times: Vec::new(),
            dl_tbs_ok: 0,
            dl_tbs_bad: 0,
            dl_ldpc: LdpcWork::default(),
            ul_grants_served: 0,
            delivered_to_apps: 0,
            handovers_completed: 0,
        }
    }

    pub fn wire(&mut self, ru: NodeId, l2: NodeId) {
        self.ru = Some(ru);
        self.l2 = Some(l2);
        self.cells.insert(self.cfg.ru_id, (ru, l2));
    }

    /// Register the radio wiring for one cell of a multi-cell
    /// deployment. The pair for the serving RU also becomes the active
    /// `ru`/`l2` pair, so calling this for every cell (including the
    /// home cell) fully replaces [`UeNode::wire`].
    pub fn wire_cell(&mut self, ru_id: u8, ru: NodeId, l2: NodeId) {
        self.cells.insert(ru_id, (ru, l2));
        if ru_id == self.serving_ru {
            self.ru = Some(ru);
            self.l2 = Some(l2);
        }
    }

    /// The RU id currently serving this UE.
    pub fn serving_ru(&self) -> u8 {
        self.serving_ru
    }

    /// This UE's RNTI.
    pub fn rnti(&self) -> u16 {
        self.cfg.rnti
    }

    /// This UE's traffic slice.
    pub fn slice(&self) -> SliceKind {
        self.cfg.slice
    }

    /// Corridor position in metres, if this UE is mobile.
    pub fn position_m(&self) -> Option<f64> {
        self.mobility.as_ref().map(|m| m.position_m())
    }

    /// Host a traffic application on this UE.
    pub fn add_app(&mut self, app: Box<dyn UserApp>) {
        self.apps.push(app);
    }

    /// Borrow a hosted app (post-run inspection).
    pub fn app<T: 'static>(&self, idx: usize) -> Option<&T> {
        let app = self.apps.get(idx)?;
        (app.as_ref() as &dyn std::any::Any).downcast_ref::<T>()
    }

    fn poll_apps(&mut self, now: Nanos) {
        let mut to_send = Vec::new();
        for app in &mut self.apps {
            to_send.extend(app.poll_transmit(now));
        }
        for payload in to_send {
            self.ul_rlc.enqueue(payload);
        }
    }

    /// Drop everything tied to the current radio link — grants, HARQ
    /// and RLC state, unsent UCI — as a radio-link failure or a
    /// handover cutover does.
    fn flush_radio_state(&mut self) {
        self.grants.clear();
        self.ul_tx.clear();
        self.dl_pool.clear();
        self.pending_ucis.clear();
        self.ul_rlc = RlcTx::new();
        self.dl_rlc = if self.cell.rlc_ordered {
            RlcRx::new()
        } else {
            RlcRx::unordered()
        };
    }

    fn link_params(&self, grant: &DciEntry) -> LinkParamsTb {
        let cell = &self.cell;
        LinkParamsTb::from_grant(grant, cell.cell_id, cell.data_symbols, cell.fec_iterations)
    }

    /// Transmit on any grant targeting the current slot.
    fn serve_grants(&mut self, ctx: &mut Ctx<'_, Msg>, abs: u64, slot: SlotId) {
        let Some(grants) = self.grants.remove(&abs) else {
            return;
        };
        if self.state != UeState::Connected {
            return;
        }
        let kernels = kernels_of(ctx);
        for g in grants {
            self.ul_grants_served += 1;
            // New data or retransmission? Track NDI per HARQ process.
            let fresh = match self.ul_tx.get(&g.harq_id) {
                Some(p) => p.ndi != g.ndi,
                None => true,
            };
            let payload = if fresh {
                let p = build_mac_pdu(&mut self.ul_rlc, g.tb_bytes as usize);
                self.ul_tx.insert(
                    g.harq_id,
                    UlTxProc {
                        ndi: g.ndi,
                        payload: p.clone(),
                    },
                );
                p
            } else {
                self.ul_tx
                    .get(&g.harq_id)
                    .map(|p| p.payload.clone())
                    .unwrap_or_else(|| build_mac_pdu(&mut self.ul_rlc, g.tb_bytes as usize))
            };
            let lp = self.link_params(&g);
            let encode_span = ctx.profiler().span("ue_encode", abs);
            let mut signal = encode_signal(kernels, self.cell.fidelity, &payload, &lp);
            drop(encode_span);
            let channel_span = ctx.profiler().span("channel", abs);
            apply_channel(kernels, &mut signal, self.current_snr_db, &mut self.channel);
            drop(channel_span);
            let burst = RadioUlBurst {
                ru_id: self.serving_ru,
                slot,
                rnti: self.cfg.rnti,
                start_prb: g.start_prb,
                num_prb: g.num_prb,
                signal,
                ucis: std::mem::take(&mut self.pending_ucis),
            };
            if let Some(ru) = self.ru {
                ctx.send_in(ru, AIR_LATENCY, Msg::RadioUl(burst));
            }
        }
    }

    fn on_dl_burst(&mut self, ctx: &mut Ctx<'_, Msg>, burst: crate::msg::RadioDlBurst) {
        let now = ctx.now();
        self.last_dl_burst = now;
        match self.state {
            UeState::Idle => {
                // Cell is back: begin the reattach procedure (random
                // access, RRC re-establishment, core signaling) — the
                // measured multi-second outage of §8.1.
                self.state = UeState::Attaching(now + REATTACH_DELAY);
                ctx.timer(REATTACH_DELAY, TIMER_ATTACH_DONE);
                return;
            }
            UeState::Attaching(_) => return,
            UeState::Connected => {}
        }
        if burst.dcis.iter().any(|d| d.rnti == self.cfg.rnti) {
            self.last_served = now;
        }
        // Store uplink grants for their target slots.
        for dci in burst
            .dcis
            .iter()
            .filter(|d| d.uplink && d.rnti == self.cfg.rnti)
        {
            let abs = self.clock.abs_of_scalar(now, dci.target_slot_scalar);
            self.grants.entry(abs).or_default().push(*dci);
        }
        // Decode downlink assignments addressed to us.
        let kernels = kernels_of(ctx);
        for dci in burst
            .dcis
            .iter()
            .filter(|d| !d.uplink && d.rnti == self.cfg.rnti)
        {
            let Some(alloc) = burst
                .pdsch
                .iter()
                .find(|a| a.rnti == self.cfg.rnti && a.start_prb == dci.start_prb)
            else {
                continue;
            };
            let lp = self.link_params(dci);
            // Receiver-side channel: noise applied at the UE antenna.
            let mut signal = alloc.signal.clone();
            let channel_span = ctx.profiler().span("channel", burst.slot.epoch_index());
            apply_channel(kernels, &mut signal, self.current_snr_db, &mut self.channel);
            drop(channel_span);
            // The whole TB decode is one span; its LDPC share is not
            // re-recorded under `ldpc_decode`, which stays the child of
            // the PHY's `ul_decode` alone.
            let decode_span = ctx.profiler().span("ue_decode", burst.slot.epoch_index());
            let mut state = self.dl_pool.take(dci.rnti, dci.harq_id);
            let fidelity = self.cell.fidelity;
            let (rng, work) = (&mut self.rng, &mut self.dl_ldpc);
            let out = receive_into(kernels, &mut state, fidelity, &signal, &lp, rng, work);
            self.dl_pool.put(dci.rnti, dci.harq_id, state);
            drop(decode_span);
            let ok = out.payload.is_some();
            if ok {
                self.dl_tbs_ok += 1;
            } else {
                self.dl_tbs_bad += 1;
            }
            self.pending_ucis.push(UciEntry {
                rnti: self.cfg.rnti,
                harq_id: dci.harq_id,
                ack: ok,
            });
            if let Some(pdu) = out.payload {
                if let Some(sdu) = parse_mac_pdu(&pdu) {
                    for packet in self.dl_rlc.on_tb(now, sdu) {
                        self.delivered_to_apps += 1;
                        for app in &mut self.apps {
                            app.on_packet(now, &packet);
                        }
                    }
                }
            }
        }
    }
}

impl Node<Msg> for UeNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.timer_at(
            self.clock.next_slot_start(ctx.now()),
            timer_tokens::SLOT_TICK,
        );
        self.last_dl_burst = ctx.now();
        self.last_served = ctx.now();
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        match token {
            timer_tokens::SLOT_TICK => {
                let now = ctx.now();
                let abs = self.clock.absolute_slot(now);
                let slot = SlotId::from_absolute(abs);
                // Handover cutover: at the commanded boundary, re-tune
                // to the target cell. Radio-side state is flushed like
                // an RLF would, but the RRC state machine stays
                // Connected — the interruption is the slot gap between
                // the source's last grant and the target's first.
                if let Some((target, at_abs)) = self.pending_handover {
                    if abs >= at_abs {
                        self.pending_handover = None;
                        if let Some(&(ru, l2)) = self.cells.get(&target) {
                            self.serving_ru = target;
                            self.ru = Some(ru);
                            self.l2 = Some(l2);
                            self.flush_radio_state();
                            self.last_dl_burst = now;
                            self.last_served = now;
                            self.handovers_completed += 1;
                            if let Some(m) = self.mobility.as_mut() {
                                m.confirm_handover(target);
                            }
                            ctx.send_in(
                                l2,
                                AIR_LATENCY,
                                Msg::Ctl(CtlMsg::HandoverComplete {
                                    rnti: self.cfg.rnti,
                                    target_ru: target,
                                }),
                            );
                        } else if let Some(m) = self.mobility.as_mut() {
                            // Unknown target cell: abandon and re-arm.
                            m.abort_handover();
                        }
                    }
                }
                // Mobility: move, re-aim the SNR process at the serving
                // cell's path-loss mean, and raise measurement reports.
                if let Some(m) = self.mobility.as_mut() {
                    // A report that never drew a command (lost on the
                    // wire, controller dead): give up and re-arm the
                    // crossing detector.
                    if let Some(t) = self.ho_report_time {
                        if self.pending_handover.is_none()
                            && now.saturating_sub(t) > HO_REPORT_TIMEOUT
                        {
                            self.ho_report_time = None;
                            m.abort_handover();
                        }
                    }
                    let crossing = m.step(SLOT_DURATION.0 as f64 * 1e-9);
                    self.snr.set_mean_db(m.mean_snr_db(self.serving_ru));
                    if let Some(e) = crossing {
                        let reportable = self.state == UeState::Connected
                            && self.pending_handover.is_none()
                            && self.l2.is_some();
                        if reportable {
                            let l2 = self.l2.unwrap();
                            self.ho_report_time = Some(now);
                            ctx.send_in(
                                l2,
                                AIR_LATENCY,
                                Msg::Ctl(CtlMsg::MeasurementReport {
                                    rnti: self.cfg.rnti,
                                    serving_ru: e.serving_ru,
                                    target_ru: e.target_ru,
                                    serving_snr_cdb: e.serving_snr_cdb,
                                    target_snr_cdb: e.target_snr_cdb,
                                }),
                            );
                        } else {
                            // Can't report while detached/mid-handover;
                            // re-arm so the A3 window retriggers later.
                            m.abort_handover();
                        }
                    }
                }
                self.current_snr_db = self.snr.step();
                // Radio-link failure detection: the cell went dark, or
                // it is radiating but no longer serving us.
                let dark = now.saturating_sub(self.last_dl_burst) > RLF_TIMEOUT;
                let unserved = now.saturating_sub(self.last_served) > RLF_TIMEOUT;
                if self.state == UeState::Connected && (dark || unserved) {
                    self.state = UeState::Idle;
                    self.rlf_count += 1;
                    self.flush_radio_state();
                    if let Some(l2) = self.l2 {
                        // The network also notices (RRC inactivity); we
                        // short-circuit that via signaling.
                        ctx.send_in(
                            l2,
                            Nanos::from_millis(1),
                            Msg::Ctl(CtlMsg::Detach {
                                rnti: self.cfg.rnti,
                            }),
                        );
                    }
                }
                // Release downlink packets held past t-Reassembly.
                for packet in self.dl_rlc.poll_expired(now) {
                    self.delivered_to_apps += 1;
                    for app in &mut self.apps {
                        app.on_packet(now, &packet);
                    }
                }
                self.poll_apps(now);
                self.serve_grants(ctx, abs, slot);
                ctx.timer_at(self.clock.slot_start(abs + 1), timer_tokens::SLOT_TICK);
            }
            TIMER_ATTACH_DONE => {
                if let UeState::Attaching(deadline) = self.state {
                    if ctx.now() >= deadline {
                        if let Some(l2) = self.l2 {
                            ctx.send_in(
                                l2,
                                Nanos::from_millis(2),
                                Msg::Ctl(CtlMsg::AttachRequest {
                                    rnti: self.cfg.rnti,
                                }),
                            );
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn on_msg(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        match msg {
            Msg::RadioDl(burst) if burst.ru_id == self.serving_ru => {
                self.on_dl_burst(ctx, burst);
            }
            Msg::Ctl(CtlMsg::HandoverCommand {
                rnti,
                target_ru,
                slot_scalar,
                ..
            }) if rnti == self.cfg.rnti => {
                if self.state == UeState::Connected
                    && self.pending_handover.is_none()
                    && self.cells.contains_key(&target_ru)
                {
                    let at = self.clock.abs_of_scalar(ctx.now(), slot_scalar);
                    self.pending_handover = Some((target_ru, at));
                    self.ho_report_time = None;
                } else if let Some(m) = self.mobility.as_mut() {
                    m.abort_handover();
                    self.ho_report_time = None;
                }
            }
            Msg::Ctl(CtlMsg::AttachAccept { rnti }) if rnti == self.cfg.rnti => {
                if matches!(self.state, UeState::Attaching(_)) {
                    self.state = UeState::Connected;
                    self.last_served = ctx.now();
                    self.last_dl_burst = ctx.now();
                    self.reattach_times.push(ctx.now());
                }
            }
            _ => {}
        }
    }

    fn instrument(&self, scope: &str, sink: &mut dyn InstrumentSink) {
        sink.counter(scope, "rlf_count", self.rlf_count);
        sink.counter(scope, "dl_tbs_ok", self.dl_tbs_ok);
        sink.counter(scope, "dl_tbs_bad", self.dl_tbs_bad);
        sink.counter(scope, "dl_code_blocks", self.dl_ldpc.code_blocks);
        sink.counter(scope, "dl_ldpc_batches", self.dl_ldpc.batches);
        sink.counter(scope, "ul_grants_served", self.ul_grants_served);
        sink.counter(scope, "delivered_to_apps", self.delivered_to_apps);
        sink.counter(scope, "handovers_completed", self.handovers_completed);
        sink.gauge(
            scope,
            "connected",
            matches!(self.state, UeState::Connected) as i64,
        );
    }
}
