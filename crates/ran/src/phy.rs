//! The software PHY (L1) node — this reproduction's stand-in for Intel
//! FlexRAN.
//!
//! Faithful behaviors that Slingshot depends on:
//!
//! - **Strict slot cadence**: per-slot processing driven by the PTP
//!   clock; downlink C-plane packets emitted in every slot — the
//!   "natural heartbeat" the in-switch failure detector watches.
//! - **Crash on missing FAPI**: if slot requests stop arriving, the
//!   PHY crashes after a few slots (valid per the FAPI spec; FlexRAN
//!   does this — the reason Orion must feed the secondary *null* FAPI
//!   requests rather than nothing, §6.2).
//! - **Inter-TTI soft state only**: HARQ soft buffers and per-UE SNR
//!   filters ([`crate::fidelity::RxProcessPool`], `SnrFilter`) — the
//!   state Slingshot discards at migration (§4.2).
//! - **Pipelined slot processing** (§7, Fig. 7): uplink slot N's
//!   indications are emitted at the N+2 boundary, so a migrating
//!   primary still produces results for pre-boundary slots afterwards.
//! - **Null FAPI ≈ free**: per-slot CPU cost is accounted; null slots
//!   cost ~0 (§8.5).
//!
//! The PHYs of one engine lane share the LDPC decoder at each slot
//! boundary: a slot tick only queues its uplink code blocks in the
//! lane's `UlBatch` and defers the rest of the tick ([`Ctx::defer`]);
//! the first continuation decodes every queued block in shared lockstep
//! batches, and each continuation then sends its own PHY's results.

use std::collections::{BTreeMap, HashMap};

use bytes::Bytes;

use slingshot_fapi::{
    CrcEntry, CrcIndication, FapiMsg, PdschPdu, PuschPdu, RxDataIndication, RxTb, SchedPdu,
    SlotIndication, UciIndication,
};
use slingshot_fronthaul::{fh_header, CPlaneMsg, CSection, DciEntry, DciMsg, Direction, FhMessage};
use slingshot_netsim::{EtherType, Frame, MacAddr};
use slingshot_phy_dsp::snr::SnrFilter;
use slingshot_phy_dsp::tbchain::{decode_prepared, PreparedTb};
use slingshot_phy_dsp::DspKernels;
use slingshot_sim::{
    Ctx, InstrumentSink, Nanos, Node, NodeId, SimRng, SlotClock, SlotId, TraceEventKind,
};

use crate::cell::{CellConfig, FAPI_ADVANCE_SLOTS};
use crate::fidelity::{
    encode_signal, kernels_of, receive_finish, receive_prepare, FhAssembly, LinkParamsTb,
    Reception, RxDecode, RxOutcome, RxProcessPool, RxSoftState,
};
use crate::msg::{timer_tokens, CtlMsg, Msg};

const TIMER_HEARTBEAT: u64 = timer_tokens::NODE_BASE + 1;

/// PHY configuration.
#[derive(Debug, Clone)]
pub struct PhyConfig {
    pub phy_id: u8,
    /// Min-sum decoder iterations — the §8.3 upgrade knob. Overrides
    /// the cell default.
    pub fec_iterations: usize,
}

/// A PHY crashes after this many consecutive slots without FAPI
/// requests, as FlexRAN aborts when its L2 stops feeding it.
pub(crate) const CRASH_AFTER_MISSING_SLOTS: u32 = 3;

impl PhyConfig {
    pub fn new(phy_id: u8) -> PhyConfig {
        PhyConfig {
            phy_id,
            fec_iterations: 8,
        }
    }
}

/// Per-RU (carrier) PHY state.
struct RuCtx {
    cell_id: u16,
    started: bool,
    /// FAPI requests by absolute slot.
    ul_tti: HashMap<u64, Vec<PuschPdu>>,
    dl_seen: HashMap<u64, bool>,
    /// Uplink fronthaul being assembled per slot.
    ul_rx: FhAssembly,
    rx_pool: RxProcessPool,
    snr_filters: HashMap<u16, SnrFilter>,
    /// Massive-MIMO extension: per-UE channel-knowledge state —
    /// (uplink TBs processed since (re)acquisition, last slot seen).
    csi: HashMap<u16, (u64, u64)>,
    /// Consecutive slots with no FAPI requests.
    missing_streak: u32,
    any_fapi_seen: bool,
}

/// The uplink TBs the PHYs of one engine lane queued at one instant,
/// decoded together by the first continuation that needs them (a
/// [`Ctx::lane_state`]).
#[derive(Default)]
pub(crate) struct UlBatch {
    at: Nanos,
    tbs: Vec<PreparedTb>,
    /// `tbs[..decoded]` have been through the decoder.
    decoded: usize,
    /// Code blocks queued at this instant.
    blocks: usize,
    /// Wall-clock nanoseconds the flushes at this instant took, when
    /// the profiler times them (profiling only).
    decode_ns: u64,
}

impl UlBatch {
    /// Queue `tb` for decoding at `now`; the ticket names it to
    /// [`UlBatch::take`]. What an earlier instant left (the TBs of a PHY
    /// killed or scrubbed before its continuation) is dropped.
    fn submit(&mut self, now: Nanos, tb: PreparedTb) -> usize {
        if self.at != now {
            self.tbs.clear();
            self.decoded = 0;
            self.blocks = 0;
            self.decode_ns = 0;
            self.at = now;
        }
        self.blocks += tb.code_blocks();
        self.tbs.push(tb);
        self.tbs.len() - 1
    }

    /// Decode every TB queued since the last flush, in shared lockstep
    /// batches; returns each batch's wall-clock nanoseconds.
    fn flush(&mut self, kernels: DspKernels) -> Vec<u64> {
        let batch_ns = decode_prepared(kernels, &mut self.tbs[self.decoded..]);
        self.decoded = self.tbs.len();
        batch_ns
    }

    /// The decoded TB of `ticket`, queued at this instant.
    fn take(&mut self, ticket: usize) -> PreparedTb {
        std::mem::take(&mut self.tbs[ticket])
    }
}

/// One PDU's reception between the slot tick and its continuation.
enum UlRx {
    Done(RxOutcome),
    /// Queued in the lane's [`UlBatch`] under a ticket.
    Queued(usize, RxDecode),
}

/// One RU's uplink slot between the tick that queued its decodes and
/// the continuation that sends its indications.
struct UlSlot {
    ru_id: u8,
    abs: u64,
    pdus: Vec<PuschPdu>,
    /// Per PDU, in order: its HARQ soft state and its reception.
    rx: Vec<(RxSoftState, UlRx)>,
    /// Code blocks it queued in the lane's batch.
    blocks: usize,
    /// Wall-clock nanoseconds the tick spent on it (profiling only).
    tick_ns: u64,
}

/// CPU cost model constants (rough FlexRAN-like shape: decode cost
/// dominates and scales with iterations).
const CPU_SLOT_BASE_NS: u64 = 3_000;
const CPU_NULL_SLOT_NS: u64 = 400;
const CPU_ENCODE_PER_EBIT_NS: f64 = 0.25;
const CPU_DECODE_PER_ITER_KBIT_NS: f64 = 700.0;

/// The DCI that announces a scheduled PDU over the air: the PDU plus
/// its direction and target slot.
fn dci_of(pdu: &SchedPdu, uplink: bool, target: SlotId) -> DciEntry {
    DciEntry {
        rnti: pdu.rnti,
        uplink,
        target_slot_scalar: target.scalar(),
        harq_id: pdu.harq_id,
        ndi: pdu.ndi,
        rv: pdu.rv,
        mcs: pdu.mcs,
        start_prb: pdu.start_prb,
        num_prb: pdu.num_prb,
        tb_bytes: pdu.tb_bytes,
    }
}

/// The PHY node.
pub struct PhyNode {
    pub cfg: PhyConfig,
    cell: CellConfig,
    clock: SlotClock,
    rng: SimRng,
    mac: MacAddr,
    switch: Option<NodeId>,
    fapi_peer: Option<NodeId>,
    rus: BTreeMap<u8, RuCtx>,
    crashed: bool,
    /// Chaos hook: a stalled PHY is alive but wedged — its slot timer
    /// still fires (the clock interrupt) yet no work is done and its
    /// queues drop on the floor. It misses TTI deadlines without dying,
    /// the gray failure the in-switch detector must still catch.
    stalled: bool,
    /// Statistics / experiment instrumentation.
    pub crash_time: Option<Nanos>,
    pub busy_ns_total: u64,
    pub null_slots: u64,
    pub work_slots: u64,
    pub ul_tbs_decoded: u64,
    pub ul_crc_failures: u64,
    /// LDPC code blocks this PHY queued for decoding.
    pub ul_code_blocks: u64,
    /// Lockstep LDPC batches this PHY's continuations ran. The first
    /// continuation at an instant decodes every block its lane queued,
    /// so summed over a lane's PHYs this is the lane's batch count.
    pub ldpc_batches: u64,
    pub processed_ul_slots: Vec<u64>,
    started_at: Option<Nanos>,
    /// DL_TTI requests awaiting their TX_Data payloads.
    pending_dl: HashMap<(u8, u64), Vec<PdschPdu>>,
    /// Uplink slots the current slot tick queued, finished by its
    /// continuation.
    ul_slots: Vec<UlSlot>,
}

impl PhyNode {
    pub fn new(cfg: PhyConfig, cell: CellConfig, clock: SlotClock, rng: SimRng) -> PhyNode {
        let mac = MacAddr::for_phy(cfg.phy_id);
        PhyNode {
            cfg,
            cell,
            clock,
            rng,
            mac,
            switch: None,
            fapi_peer: None,
            rus: BTreeMap::new(),
            crashed: false,
            stalled: false,
            crash_time: None,
            busy_ns_total: 0,
            null_slots: 0,
            work_slots: 0,
            ul_tbs_decoded: 0,
            ul_crc_failures: 0,
            ul_code_blocks: 0,
            ldpc_batches: 0,
            processed_ul_slots: Vec::new(),
            started_at: None,
            pending_dl: HashMap::new(),
            ul_slots: Vec::new(),
        }
    }

    pub fn wire(&mut self, switch: NodeId, fapi_peer: NodeId) {
        self.switch = Some(switch);
        self.fapi_peer = Some(fapi_peer);
    }

    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// Average CPU utilization since start (busy ns / wall ns).
    pub fn cpu_utilization(&self, now: Nanos) -> f64 {
        match self.started_at {
            Some(t0) if now > t0 => self.busy_ns_total as f64 / (now - t0).0 as f64,
            _ => 0.0,
        }
    }

    /// Live-upgrade knob (§8.3): change the decoder iteration budget.
    pub fn set_fec_iterations(&mut self, iters: usize) {
        self.cfg.fec_iterations = iters;
    }

    /// Chaos hook: wedge or un-wedge the PHY's poll loop. While stalled
    /// it emits no heartbeats, processes no slots, and drops every
    /// incoming message — but stays alive. Un-stalling resumes the slot
    /// cadence. A PHY that was failed over from in the meantime also
    /// dropped the FAPI `Stop` the failover sent its Orion, so it still
    /// counts the lost RU as started. With a spare pool the recovery
    /// orchestrator scrubs it (`scrub` clears the RU and the stall) and
    /// returns it to the pool, so it wakes with no RU and idles there.
    /// Without one it wakes starved of FAPI requests: it records a
    /// `SlotDeadlineMiss` at its second and third boundaries awake and
    /// crashes itself cleanly at the third (the FAPI-liveness rule,
    /// `CRASH_AFTER_MISSING_SLOTS`).
    pub fn set_stalled(&mut self, stalled: bool) {
        self.stalled = stalled;
    }

    /// Recovery-orchestrator scrub: drop every per-RU soft state (the
    /// §4.2 point — nothing here is worth preserving) and clear crash
    /// flags, returning the process to a factory-fresh spare. Called
    /// after the engine restarted the node, so the slot-timer chain
    /// re-armed by `on_start` resumes the cadence.
    pub fn scrub(&mut self) {
        self.rus.clear();
        self.pending_dl.clear();
        self.ul_slots.clear();
        self.crashed = false;
        self.stalled = false;
        self.crash_time = None;
        self.started_at = None;
    }

    /// Ablation hook: extract this RU's HARQ soft state (what a
    /// hypothetical state-transferring migration would ship across).
    /// The real Slingshot discards it.
    pub fn take_soft_state(&mut self, ru_id: u8) -> Option<RxProcessPool> {
        self.rus
            .get_mut(&ru_id)
            .map(|ru| std::mem::take(&mut ru.rx_pool))
    }

    /// Ablation hook: install transferred HARQ soft state.
    pub fn install_soft_state(&mut self, ru_id: u8, pool: RxProcessPool) {
        if let Some(ru) = self.rus.get_mut(&ru_id) {
            ru.rx_pool = pool;
        }
    }

    /// Bytes of HARQ soft state currently held for an RU.
    pub fn soft_state_bytes(&self, ru_id: u8) -> usize {
        self.rus
            .get(&ru_id)
            .map(|ru| ru.rx_pool.memory_bytes())
            .unwrap_or(0)
    }

    fn send_fapi(&mut self, ctx: &mut Ctx<'_, Msg>, msg: FapiMsg) {
        if let Some(peer) = self.fapi_peer {
            ctx.send(peer, Msg::FapiShm(msg));
        }
    }

    fn send_fh(&mut self, ctx: &mut Ctx<'_, Msg>, ru_id: u8, msg: &FhMessage) {
        let dst = MacAddr::for_ru(ru_id);
        let frame = Frame::new(dst, self.mac, EtherType::Ecpri, msg.to_bytes());
        if let Some(sw) = self.switch {
            ctx.send(sw, Msg::Eth(frame));
        }
    }

    fn heartbeat(&mut self, ctx: &mut Ctx<'_, Msg>, slot: SlotId) {
        let targets: Vec<u8> = self
            .rus
            .iter()
            .filter(|(_, r)| r.started)
            .map(|(id, _)| *id)
            .collect();
        for ru_id in targets {
            let msg = FhMessage::CPlane(CPlaneMsg {
                hdr: fh_header(Direction::Downlink, slot, 0, ru_id),
                sections: Vec::new(),
            });
            self.send_fh(ctx, ru_id, &msg);
        }
    }

    /// Process downlink work for slot `n` (requests arrived ~2 slots in
    /// advance): encode PDSCH and emit fronthaul to the RU.
    fn process_dl(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        ru_id: u8,
        slot: SlotId,
        pdsch: Vec<PdschPdu>,
        tbs: Vec<(u16, Bytes)>,
    ) {
        let Some(ru) = self.rus.get(&ru_id) else {
            return;
        };
        let cell_id = ru.cell_id;
        let hdr = fh_header(Direction::Downlink, slot, 0, ru_id);
        // Alive marker: a C-plane with the scheduled sections.
        let sections: Vec<CSection> = pdsch
            .iter()
            .enumerate()
            .map(|(i, p)| CSection {
                section_id: i as u16,
                start_prb: p.start_prb,
                num_prb: p.num_prb,
                beam_id: 0,
            })
            .collect();
        self.send_fh(ctx, ru_id, &FhMessage::CPlane(CPlaneMsg { hdr, sections }));
        if pdsch.is_empty() {
            self.busy_ns_total += CPU_NULL_SLOT_NS;
            self.null_slots += 1;
            return;
        }
        self.work_slots += 1;
        let payloads: HashMap<u16, Bytes> = tbs.into_iter().collect();
        let abs = slot.epoch_index();
        // Encode every PDU with a payload, then send in PDU order. The
        // wall-clock TTI accounting is a side channel, inert when the
        // profiler is disabled.
        let kernels = kernels_of(ctx);
        let profiler = ctx.profiler();
        let slot_t0 = profiler.is_enabled().then(std::time::Instant::now);
        let (fidelity, data_symbols) = (self.cell.fidelity, self.cell.data_symbols);
        let iters = self.cfg.fec_iterations;
        let mut signals = Vec::with_capacity(pdsch.len());
        for pdu in &pdsch {
            let Some(payload) = payloads.get(&pdu.rnti) else {
                continue;
            };
            let dci = dci_of(pdu, false, slot);
            let lp = LinkParamsTb::from_grant(&dci, cell_id, data_symbols, iters);
            let _encode_span = profiler.span("dl_encode", abs);
            let signal = encode_signal(kernels, fidelity, payload, &lp);
            signals.push((dci, lp.e_bits(), signal));
        }
        let merge_span = profiler.span("slot_merge", abs);
        let mut entries = Vec::new();
        for (dci, e_bits, signal) in signals {
            self.busy_ns_total +=
                CPU_SLOT_BASE_NS + (e_bits as f64 * CPU_ENCODE_PER_EBIT_NS) as u64;
            entries.push(dci);
            signal.pack(kernels, hdr, dci.start_prb, dci.rnti, |m| {
                self.send_fh(ctx, ru_id, m)
            });
        }
        self.send_fh(ctx, ru_id, &FhMessage::Dci(DciMsg { hdr, entries }));
        drop(merge_span);
        if let Some(t0) = slot_t0 {
            profiler.complete_slot(abs, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Queue uplink slot `abs` (its fronthaul arrived during abs+1; we
    /// run at the abs+2 boundary — the 3-slot pipeline of Fig. 7): in
    /// PDU order, fronthaul reassembly, CSI bookkeeping, HARQ
    /// soft-state checkout, RNG stream splits and the reception up to
    /// the TB's decode. The TBs join the lane's [`UlBatch`], which the
    /// lane's first continuation decodes, and [`PhyNode::finish_ul`]
    /// sends the results.
    fn queue_ul(&mut self, ctx: &mut Ctx<'_, Msg>, ru_id: u8, abs: u64) {
        let Some(ru) = self.rus.get_mut(&ru_id) else {
            return;
        };
        let Some(pdus) = ru.ul_tti.remove(&abs) else {
            return;
        };
        let slot = SlotId::from_absolute(abs);
        let mut data = ru.ul_rx.remove(abs).unwrap_or_default();
        if pdus.is_empty() {
            self.busy_ns_total += CPU_NULL_SLOT_NS;
            self.null_slots += 1;
            return;
        }
        self.work_slots += 1;
        self.processed_ul_slots.push(abs);
        ctx.trace_at_slot(
            TraceEventKind::UlSlotProcessed,
            slot,
            abs,
            self.cfg.phy_id as u64,
        );
        let profiler = ctx.profiler();
        let tick_t0 = profiler.is_enabled().then(std::time::Instant::now);
        let _prepare_span = profiler.span("slot_prepare", abs);
        let (fidelity, iters) = (self.cell.fidelity, self.cfg.fec_iterations);
        let now = ctx.now();
        let batch = ctx.lane_state::<UlBatch>();
        let mut rx = Vec::with_capacity(pdus.len());
        let mut blocks = 0;
        for (i, pdu) in pdus.iter().enumerate() {
            let lp = LinkParamsTb::from_grant(
                &dci_of(pdu, true, slot),
                ru.cell_id,
                self.cell.data_symbols,
                iters,
            );
            let mut signal = data.take(pdu.start_prb, pdu.rnti, lp.pilot_len());
            // Massive-MIMO extension (§10): a PHY without fresh channel
            // knowledge for this UE operates with reduced effective SNR
            // until its precoding/equalization state reconverges.
            let reconverge = self.cell.mimo_reconverge_slots;
            if reconverge > 0 {
                let entry = ru.csi.entry(pdu.rnti).or_insert((0, abs));
                // Long silence ⇒ stale CSI: reacquire from scratch.
                if abs.saturating_sub(entry.1) > reconverge {
                    entry.0 = 0;
                }
                entry.1 = abs;
                let progress = (entry.0 as f64 / reconverge as f64).min(1.0);
                entry.0 += 1;
                signal.snr_db -= self.cell.mimo_cold_penalty_db * (1.0 - progress);
            }
            let mut state = ru.rx_pool.take(pdu.rnti, pdu.harq_id);
            let mut rng = self.rng.split(i as u64);
            let decode_span = profiler.span("ul_decode", abs);
            let reception = receive_prepare(&mut state, fidelity, &signal, &lp, &mut rng);
            drop(decode_span);
            rx.push(match reception {
                Reception::Done(outcome) => (state, UlRx::Done(outcome)),
                Reception::Decode(mut decode) => {
                    blocks += decode.tb.code_blocks();
                    let ticket = batch.submit(now, std::mem::take(&mut decode.tb));
                    (state, UlRx::Queued(ticket, decode))
                }
            });
        }
        self.ul_code_blocks += blocks as u64;
        self.ul_slots.push(UlSlot {
            ru_id,
            abs,
            pdus,
            rx,
            blocks,
            tick_ns: tick_t0.map_or(0, |t| t.elapsed().as_nanos() as u64),
        });
    }

    /// Finish the uplink slots this instant's tick queued: decode what
    /// the lane queued and no continuation has decoded yet (the first
    /// PHY here decodes the whole lane's queue), then per slot return
    /// the soft state, account CPU, update SNR filters and send the
    /// FAPI indications, in PDU order. A slot whose RU the PHY no longer
    /// serves is dropped whole.
    fn finish_ul(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let slots = std::mem::take(&mut self.ul_slots);
        let Some(first) = slots.first() else {
            return;
        };
        let profiler = ctx.profiler();
        let (mut decode_ns, mut lane_blocks) = (0, 0);
        if slots.iter().any(|ul| ul.blocks > 0) {
            let abs = first.abs;
            let kernels = kernels_of(ctx);
            let batch = ctx.lane_state::<UlBatch>();
            let flush_t0 = profiler.is_enabled().then(std::time::Instant::now);
            let decode_span = profiler.span("ul_decode", abs);
            let batch_ns = batch.flush(kernels);
            drop(decode_span);
            if let Some(t0) = flush_t0 {
                batch.decode_ns += t0.elapsed().as_nanos() as u64;
            }
            (decode_ns, lane_blocks) = (batch.decode_ns, batch.blocks as u64);
            for ns in &batch_ns {
                profiler.record_span_ns("ldpc_decode", abs, *ns);
            }
            self.ldpc_batches += batch_ns.len() as u64;
        }
        for ul in slots {
            // A slot is charged its blocks' share of the lane's decode,
            // so the lane's slot totals add up to the work it did.
            let share_ns = (decode_ns * ul.blocks as u64)
                .checked_div(lane_blocks)
                .unwrap_or(0);
            let merge_t0 = profiler.is_enabled().then(std::time::Instant::now);
            let merge_span = profiler.span("slot_merge", ul.abs);
            let (abs, tick_ns) = (ul.abs, ul.tick_ns);
            self.merge_ul(ctx, ul);
            drop(merge_span);
            if let Some(t0) = merge_t0 {
                let merge_ns = t0.elapsed().as_nanos() as u64;
                profiler.complete_slot(abs, tick_ns + share_ns + merge_ns);
            }
        }
    }

    fn merge_ul(&mut self, ctx: &mut Ctx<'_, Msg>, ul: UlSlot) {
        let UlSlot {
            ru_id,
            abs,
            pdus,
            rx,
            ..
        } = ul;
        let Some(ru) = self.rus.get_mut(&ru_id) else {
            return;
        };
        let slot = SlotId::from_absolute(abs);
        let iters = self.cfg.fec_iterations;
        let batch = ctx.lane_state::<UlBatch>();
        let results: Vec<(RxSoftState, RxOutcome)> = rx
            .into_iter()
            .map(|(mut state, r)| {
                let outcome = match r {
                    UlRx::Done(outcome) => outcome,
                    UlRx::Queued(ticket, mut decode) => {
                        decode.tb = batch.take(ticket);
                        receive_finish(&mut state, decode)
                    }
                };
                (state, outcome)
            })
            .collect();
        let mut crcs = Vec::new();
        let mut rx_tbs = Vec::new();
        let mut busy = CPU_SLOT_BASE_NS;
        for (pdu, (state, outcome)) in pdus.iter().zip(results) {
            ru.rx_pool.put(pdu.rnti, pdu.harq_id, state);
            // Decode cost scales with iterations × transport-block bits
            // (the whole TB: in reduced-fidelity modes the
            // representative block's iteration count stands in for all
            // code blocks).
            let iters_used = if outcome.iterations > 0 {
                outcome.iterations
            } else {
                iters / 2 + 1
            };
            busy += (iters_used as f64
                * (pdu.tb_bytes as f64 * 8.0 / 1000.0)
                * CPU_DECODE_PER_ITER_KBIT_NS) as u64
                + 2_000;
            // SNR moving-average filter (§4.2 inter-TTI state).
            let filt = ru
                .snr_filters
                .entry(pdu.rnti)
                .or_insert_with(|| SnrFilter::new(0.1));
            let reported = if outcome.snr_db.is_finite() {
                filt.update(outcome.snr_db)
            } else {
                filt.value_or(-10.0)
            };
            let ok = outcome.payload.is_some();
            self.ul_tbs_decoded += 1;
            if !ok {
                self.ul_crc_failures += 1;
            }
            crcs.push(CrcEntry {
                rnti: pdu.rnti,
                harq_id: pdu.harq_id,
                ok,
                snr_x10: (reported * 10.0) as i16,
            });
            if let Some(payload) = outcome.payload {
                rx_tbs.push(RxTb {
                    rnti: pdu.rnti,
                    harq_id: pdu.harq_id,
                    payload,
                });
            }
        }
        self.busy_ns_total += busy;
        self.send_fapi(ctx, FapiMsg::CrcInd(CrcIndication { ru_id, slot, crcs }));
        if !rx_tbs.is_empty() {
            let tbs = rx_tbs;
            self.send_fapi(ctx, FapiMsg::RxData(RxDataIndication { ru_id, slot, tbs }));
        }
    }

    fn crash(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.crashed = true;
        self.crash_time = Some(ctx.now());
        let me = ctx.id();
        ctx.kill(me);
    }

    /// The rest of slot tick `abs` after its uplink decodes were
    /// queued, in the order a tick always sent: uplink results,
    /// SLOT.indications, FAPI liveness (and the crash it may call for),
    /// the next tick.
    fn end_tick(&mut self, ctx: &mut Ctx<'_, Msg>, abs: u64) {
        self.finish_ul(ctx);
        let slot = SlotId::from_absolute(abs);
        let ru_ids: Vec<u8> = self
            .rus
            .iter()
            .filter(|(_, r)| r.started)
            .map(|(id, _)| *id)
            .collect();
        let expect = abs + FAPI_ADVANCE_SLOTS;
        let mut must_crash = false;
        for ru_id in ru_ids {
            self.send_fapi(ctx, FapiMsg::SlotInd(SlotIndication { ru_id, slot }));
            let ru = self.rus.get_mut(&ru_id).expect("ru exists");
            let have = ru.ul_tti.contains_key(&expect) || ru.dl_seen.contains_key(&expect);
            if ru.any_fapi_seen {
                if have {
                    ru.missing_streak = 0;
                } else {
                    ru.missing_streak += 1;
                    // The L2 sends slot `expect`'s requests at this
                    // same boundary, so a streak of 1 is every healthy
                    // slot (the request lands later and resets it). A
                    // streak of 2 or more means no UL_TTI or DL_TTI for
                    // this RU arrived in the whole slot since the last
                    // check: a real miss.
                    if ru.missing_streak > 1 {
                        ctx.trace(
                            TraceEventKind::SlotDeadlineMiss,
                            ru.missing_streak as u64,
                            expect,
                        );
                    }
                    if ru.missing_streak >= CRASH_AFTER_MISSING_SLOTS {
                        must_crash = true;
                    }
                }
            }
            // GC stale per-slot maps.
            ru.dl_seen.retain(|k, _| *k + 8 > abs);
            ru.ul_rx.gc(abs);
            ru.ul_tti.retain(|k, _| *k + 8 > abs);
        }
        self.busy_ns_total += CPU_NULL_SLOT_NS;
        if must_crash {
            // FlexRAN aborts when the L2 stops feeding it slot requests
            // — the behavior that makes null FAPIs necessary (§6.2).
            self.crash(ctx);
            return;
        }
        ctx.timer_at(self.clock.slot_start(abs + 1), timer_tokens::SLOT_TICK);
    }

    fn on_fapi(&mut self, ctx: &mut Ctx<'_, Msg>, msg: FapiMsg) {
        match msg {
            FapiMsg::Config(c) => {
                self.rus.insert(
                    c.ru_id,
                    RuCtx {
                        cell_id: c.cell_id,
                        started: false,
                        ul_tti: HashMap::new(),
                        dl_seen: HashMap::new(),
                        ul_rx: FhAssembly::default(),
                        rx_pool: RxProcessPool::new(),
                        snr_filters: HashMap::new(),
                        csi: HashMap::new(),
                        missing_streak: 0,
                        any_fapi_seen: false,
                    },
                );
            }
            FapiMsg::Start { ru_id } => {
                if let Some(ru) = self.rus.get_mut(&ru_id) {
                    ru.started = true;
                }
                if self.started_at.is_none() {
                    self.started_at = Some(ctx.now());
                }
            }
            FapiMsg::Stop { ru_id } => {
                if let Some(ru) = self.rus.get_mut(&ru_id) {
                    ru.started = false;
                }
            }
            FapiMsg::UlTti(req) => {
                let abs = self.clock.abs_of_slot(ctx.now(), req.slot);
                let started = match self.rus.get_mut(&req.ru_id) {
                    Some(ru) => {
                        ru.any_fapi_seen = true;
                        ru.missing_streak = 0;
                        ru.ul_tti.insert(abs, req.pusch.clone());
                        ru.started
                    }
                    None => return,
                };
                // Emit the uplink-grant DCI over the fronthaul, carried
                // in the (downlink-capable) slot preceding the target —
                // DDDSU guarantees slot (n−1) is Special for UL slot n.
                if started && !req.pusch.is_empty() && abs >= 1 {
                    let carry = SlotId::from_absolute(abs - 1);
                    let entries = req
                        .pusch
                        .iter()
                        .map(|p| dci_of(p, true, req.slot))
                        .collect();
                    self.send_fh(
                        ctx,
                        req.ru_id,
                        &FhMessage::Dci(DciMsg {
                            hdr: fh_header(Direction::Downlink, carry, 0, req.ru_id),
                            entries,
                        }),
                    );
                }
            }
            FapiMsg::DlTti(req) => {
                let abs = self.clock.abs_of_slot(ctx.now(), req.slot);
                if let Some(ru) = self.rus.get_mut(&req.ru_id) {
                    ru.any_fapi_seen = true;
                    ru.missing_streak = 0;
                    ru.dl_seen.insert(abs, true);
                }
                // Null DL still emits the slot's alive C-plane; data DL
                // waits for TX_Data (sent immediately after DL_TTI by
                // the L2, so pairing via a small pending map).
                if req.pdsch.is_empty() {
                    self.process_dl(ctx, req.ru_id, req.slot, Vec::new(), Vec::new());
                } else {
                    self.pending_dl.insert((req.ru_id, abs), req.pdsch);
                }
            }
            FapiMsg::TxData(t) => {
                let abs = self.clock.abs_of_slot(ctx.now(), t.slot);
                if let Some(pdsch) = self.pending_dl.remove(&(t.ru_id, abs)) {
                    self.process_dl(ctx, t.ru_id, t.slot, pdsch, t.tbs);
                }
            }
            _ => {}
        }
    }
}

impl Node<Msg> for PhyNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.timer_at(
            self.clock.next_slot_start(ctx.now()),
            timer_tokens::SLOT_TICK,
        );
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        if self.crashed {
            return;
        }
        match token {
            timer_tokens::SLOT_TICK => {
                let now = ctx.now();
                let abs = self.clock.absolute_slot(now);
                if self.stalled {
                    // Wedged: keep the clock interrupt alive so the
                    // cadence can resume, but do no slot work.
                    ctx.timer_at(self.clock.slot_start(abs + 1), timer_tokens::SLOT_TICK);
                    return;
                }
                let slot = SlotId::from_absolute(abs);
                // Per-slot heartbeat at the boundary...
                self.heartbeat(ctx, slot);
                // ...and a second one mid-slot with jitter, so a healthy
                // PHY's max inter-packet gap stays well under the slot
                // length (§8.6 measures 393 µs).
                let jitter = Nanos(self.rng.below(90_000));
                ctx.timer(Nanos(250_000) + jitter, TIMER_HEARTBEAT);
                // Pipelined uplink: slot (abs-2)'s results are due now.
                // Its code blocks join the lane's batch; when any did,
                // the rest of the tick waits for the instant's other
                // PHYs to queue theirs.
                self.ul_slots.clear();
                if abs >= 2 {
                    let ru_ids: Vec<u8> = self.rus.keys().copied().collect();
                    for ru_id in ru_ids {
                        self.queue_ul(ctx, ru_id, abs - 2);
                    }
                }
                if self.ul_slots.iter().any(|ul| ul.blocks > 0) {
                    ctx.defer(timer_tokens::SLOT_TICK);
                } else {
                    self.end_tick(ctx, abs);
                }
            }
            TIMER_HEARTBEAT => {
                if self.stalled {
                    return;
                }
                let slot = self.clock.slot_id(ctx.now());
                self.heartbeat(ctx, slot);
            }
            _ => {}
        }
    }

    /// The continuation of a slot tick that queued uplink code blocks.
    /// A PHY killed since its tick gets none; one scrubbed since has
    /// nothing left to send; one wedged since drops the slot's results
    /// and keeps only its clock interrupt, as a stalled tick does.
    fn on_deferred(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        if token != timer_tokens::SLOT_TICK {
            return;
        }
        let abs = self.clock.absolute_slot(ctx.now());
        if self.stalled {
            self.ul_slots.clear();
            ctx.timer_at(self.clock.slot_start(abs + 1), timer_tokens::SLOT_TICK);
            return;
        }
        self.end_tick(ctx, abs);
    }

    fn on_msg(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        if let Msg::Ctl(CtlMsg::PhyScrub) = msg {
            // Recovery-orchestrator scrub: handled even while the
            // crashed/stalled flags are set — it is exactly how a dead
            // process is wiped before rejoining the spare pool.
            self.scrub();
            return;
        }
        if self.crashed || self.stalled {
            // A wedged poll loop never drains its rings: incoming FAPI
            // and fronthaul are lost, not deferred.
            return;
        }
        match msg {
            Msg::FapiShm(f) => self.on_fapi(ctx, f),
            Msg::Eth(frame) => {
                if frame.ethertype != EtherType::Ecpri || frame.dst != self.mac {
                    return;
                }
                let Some(fh) = FhMessage::from_bytes(&frame.payload) else {
                    return;
                };
                if fh.direction() != Direction::Uplink {
                    return;
                }
                let hdr = *fh.hdr();
                // Resolve the 8-bit frame id against current time.
                let abs = self.clock.abs_of_scalar(ctx.now(), hdr.slot_scalar());
                let ru_id = hdr.ru_port;
                let Some(ru) = self.rus.get_mut(&ru_id) else {
                    return;
                };
                match fh {
                    FhMessage::Uci(u) => {
                        let acks = u
                            .entries
                            .iter()
                            .map(|e| slingshot_fapi::UciAck {
                                rnti: e.rnti,
                                harq_id: e.harq_id,
                                ack: e.ack,
                            })
                            .collect();
                        let slot = SlotId::from_absolute(abs);
                        self.send_fapi(ctx, FapiMsg::UciInd(UciIndication { ru_id, slot, acks }));
                    }
                    iq => ru.ul_rx.absorb(kernels_of(ctx), abs, iq),
                }
            }
            _ => {}
        }
    }

    fn instrument(&self, scope: &str, sink: &mut dyn InstrumentSink) {
        sink.counter(scope, "busy_ns_total", self.busy_ns_total);
        sink.counter(scope, "null_slots", self.null_slots);
        sink.counter(scope, "work_slots", self.work_slots);
        sink.counter(scope, "ul_tbs_decoded", self.ul_tbs_decoded);
        sink.counter(scope, "ul_crc_failures", self.ul_crc_failures);
        sink.counter(scope, "ul_code_blocks", self.ul_code_blocks);
        sink.counter(scope, "ldpc_batches", self.ldpc_batches);
        sink.counter(
            scope,
            "processed_ul_slots",
            self.processed_ul_slots.len() as u64,
        );
        // The PHY's own FlexRAN-style abort on missing FAPI; external
        // kills show up as node_killed trace events instead.
        sink.gauge(scope, "self_crashed", self.crash_time.is_some() as i64);
    }
}
