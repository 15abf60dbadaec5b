//! Fidelity-aware transport-block transmission and reception.
//!
//! All three DSP modes (see [`crate::cell::Fidelity`] and DESIGN.md §2)
//! share one code path:
//!
//! - **Full**: every code block is LDPC-encoded to symbols; the
//!   receiver recovers the payload from decoded bits.
//! - **Sampled**: one representative code block is physically coded at
//!   the TB's modulation and code rate; its decode outcome gates
//!   delivery of the "shadow" payload. All code blocks of a TB see the
//!   same channel, so per-TB error remains channel-dominated.
//! - **Abstract**: no IQ at all; the calibrated BLER model
//!   ([`slingshot_phy_dsp::bler`]) draws the outcome, with HARQ modeled
//!   as chase-combined SNR accumulation.

use bytes::Bytes;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use crate::cell::Fidelity;
use crate::msg::Msg;
use slingshot_fapi::mcs;
use slingshot_fronthaul::{
    compress_symbol_with, decompress_prbs_with, DciEntry, FhHeader, FhMessage, ShadowMsg, UPlaneMsg,
};
use slingshot_phy_dsp::bler;
use slingshot_phy_dsp::channel::{db_to_linear, AwgnChannel};
use slingshot_phy_dsp::scramble::GoldSequence;
use slingshot_phy_dsp::snr::estimate_snr_db;
use slingshot_phy_dsp::tbchain::{
    decode_prepared, finish_tb, mother_buffer_len, prepare_tb, PreparedTb, TbParams,
};
use slingshot_phy_dsp::{Cplx, DspKernels, Modulation, SC_PER_PRB};
use slingshot_sim::{Ctx, SimRng};

/// Cap on the representative code block's payload in Sampled mode:
/// 125 bytes + 3-byte CRC = 1024 info bits = one code block.
const SAMPLED_PAYLOAD_CAP: usize = 125;

/// PRBs per U-plane message chunk (keeps frames under typical MTU:
/// 48 × 28 B ≈ 1.3 KB).
pub(crate) const PRBS_PER_CHUNK: usize = 48;

/// Per-slot fronthaul buffers older than this many slots are stale:
/// both pipelines consume a slot's fronthaul within three slots.
const FH_RETAIN_SLOTS: u64 = 8;

/// The engine's kernel backend as a DSP dispatch handle.
pub(crate) fn kernels_of(ctx: &Ctx<'_, Msg>) -> DspKernels {
    DspKernels::from_config(ctx.kernel_config())
}

/// A transport block as it travels over the air / fronthaul.
#[derive(Debug, Clone)]
pub struct TbSignal {
    /// Known pilot symbols (clean at TX; noisy after the channel).
    pub pilots: Vec<Cplx>,
    /// Data symbols (empty in Abstract mode).
    pub symbols: Vec<Cplx>,
    /// The shadow payload (empty in Full mode).
    pub shadow: Bytes,
    /// SNR (dB) the signal experienced; set when the channel is
    /// applied. NaN before.
    pub snr_db: f64,
}

/// Pilot length of an allocation: one OFDM symbol across its PRBs.
pub(crate) fn pilot_len(num_prb: u16) -> usize {
    num_prb as usize * SC_PER_PRB
}

impl TbSignal {
    /// Serialize into fronthaul messages, handed to `emit` in wire
    /// order: pilots ‖ data as one flat IQ stream, padded to a whole
    /// PRB, BFP-compressed into U-plane chunks of `PRBS_PER_CHUNK`
    /// tagged with the allocation's start PRB (chunk index in the
    /// symbol field), then the shadow frame. `hdr` carries direction,
    /// slot and RU port. The signal is consumed: its pilot buffer
    /// becomes the flat scratch, so nothing is cloned here.
    pub fn pack(
        self,
        kernels: DspKernels,
        hdr: FhHeader,
        start_prb: u16,
        rnti: u16,
        mut emit: impl FnMut(&FhMessage),
    ) {
        let mut flat = self.pilots;
        flat.extend_from_slice(&self.symbols);
        // Pad to a whole PRB; chunk boundaries then stay PRB-aligned.
        flat.resize(flat.len().next_multiple_of(SC_PER_PRB), Cplx::ZERO);
        for (idx, chunk) in flat.chunks(PRBS_PER_CHUNK * SC_PER_PRB).enumerate() {
            emit(&FhMessage::UPlane(UPlaneMsg {
                hdr: FhHeader {
                    symbol: idx as u8,
                    ..hdr
                },
                start_prb,
                prbs: compress_symbol_with(kernels, chunk),
            }));
        }
        if !self.shadow.is_empty() {
            emit(&FhMessage::Shadow(ShadowMsg {
                hdr,
                rnti,
                // NaN (no channel applied yet: the downlink) is 0.
                snr_db_x100: (self.snr_db * 100.0) as i32,
                data: self.shadow,
            }));
        }
    }
}

/// One slot's fronthaul as absorbed so far.
#[derive(Debug, Default)]
pub struct SlotRx {
    /// Scheduling information carried in this slot (downlink only).
    pub dcis: Vec<DciEntry>,
    /// IQ chunks keyed by the allocation's start PRB.
    chunks: HashMap<u16, Vec<(u8, Vec<Cplx>)>>,
    /// Shadow payloads (with the carried SNR) keyed by RNTI.
    shadows: HashMap<u16, (f64, Bytes)>,
}

impl SlotRx {
    /// Reassemble one allocation's signal: chunks in index order,
    /// split at `pilot_len`. Pilots with no data symbols behind them
    /// are lost IQ — they come back as an empty signal, so they
    /// neither feed an SNR filter nor draw channel noise.
    pub fn take(&mut self, start_prb: u16, rnti: u16, pilot_len: usize) -> TbSignal {
        let mut samples = Vec::new();
        if let Some(mut chunks) = self.chunks.remove(&start_prb) {
            chunks.sort_by_key(|(idx, _)| *idx);
            for (_, c) in chunks {
                samples.extend(c);
            }
        }
        let (pilots, symbols) = if samples.len() > pilot_len {
            let symbols = samples.split_off(pilot_len);
            (samples, symbols)
        } else {
            (Vec::new(), Vec::new())
        };
        let (snr_db, shadow) = self
            .shadows
            .get(&rnti)
            .cloned()
            .unwrap_or((f64::NAN, Bytes::new()));
        TbSignal {
            pilots,
            symbols,
            shadow,
            snr_db,
        }
    }
}

/// Per-slot fronthaul reassembly for one direction of one carrier,
/// keyed by absolute slot (resolve a header's wire scalar with
/// `SlotClock::abs_of_scalar` first).
#[derive(Debug, Default)]
pub struct FhAssembly {
    slots: HashMap<u64, SlotRx>,
}

impl FhAssembly {
    /// File one fronthaul message under slot `abs`. Any message marks
    /// the slot as fed; U-plane, shadow and DCI contents are kept.
    pub fn absorb(&mut self, kernels: DspKernels, abs: u64, msg: FhMessage) {
        let slot = self.slots.entry(abs).or_default();
        match msg {
            FhMessage::UPlane(u) => slot
                .chunks
                .entry(u.start_prb)
                .or_default()
                .push((u.hdr.symbol, decompress_prbs_with(kernels, &u.prbs))),
            FhMessage::Shadow(s) => {
                slot.shadows
                    .insert(s.rnti, (s.snr_db_x100 as f64 / 100.0, s.data));
            }
            FhMessage::Dci(d) => slot.dcis.extend(d.entries),
            FhMessage::CPlane(_) | FhMessage::Uci(_) => {}
        }
    }

    /// Hand slot `abs` over for processing, if anything arrived for it.
    pub fn remove(&mut self, abs: u64) -> Option<SlotRx> {
        self.slots.remove(&abs)
    }

    /// Drop buffers that fell [`FH_RETAIN_SLOTS`] behind `now_abs`
    /// (late or duplicate frames for slots already processed).
    pub(crate) fn gc(&mut self, now_abs: u64) {
        self.slots.retain(|abs, _| *abs + FH_RETAIN_SLOTS > now_abs);
    }
}

/// Radio-link parameters of one TB transmission.
#[derive(Debug, Clone, Copy)]
pub struct LinkParamsTb {
    pub modulation: Modulation,
    pub mcs: u8,
    pub num_prb: u16,
    pub data_symbols: u8,
    pub rnti: u16,
    pub cell_id: u16,
    pub rv: u8,
    pub fec_iterations: usize,
    /// The TB size the grant names.
    pub tb_bytes: usize,
    /// New-data indicator; a toggle starts a fresh HARQ series.
    pub ndi: bool,
}

impl LinkParamsTb {
    /// The link parameters a grant implies in a cell.
    pub(crate) fn from_grant(
        grant: &DciEntry,
        cell_id: u16,
        data_symbols: u8,
        fec_iterations: usize,
    ) -> LinkParamsTb {
        LinkParamsTb {
            modulation: mcs(grant.mcs).modulation,
            mcs: grant.mcs,
            num_prb: grant.num_prb,
            data_symbols,
            rnti: grant.rnti,
            cell_id,
            rv: grant.rv,
            fec_iterations,
            tb_bytes: grant.tb_bytes as usize,
            ndi: grant.ndi,
        }
    }

    /// Coded-bit budget of the full allocation.
    pub fn e_bits(&self) -> usize {
        slingshot_fapi::e_bits(self.mcs, self.num_prb, self.data_symbols)
    }

    pub(crate) fn pilot_len(&self) -> usize {
        pilot_len(self.num_prb)
    }

    fn sampled_split(&self, payload_len: usize) -> (usize, usize) {
        let rep_bytes = payload_len.min(SAMPLED_PAYLOAD_CAP);
        let full_info = (payload_len + 3) * 8;
        let rep_info = (rep_bytes + 3) * 8;
        let bps = self.modulation.bits_per_symbol();
        let mut e_rep = self.e_bits() * rep_info / full_info;
        e_rep -= e_rep % bps;
        (rep_bytes, e_rep.max(bps))
    }

    fn tb_params(&self, e_bits: usize) -> TbParams {
        TbParams {
            modulation: self.modulation,
            e_bits,
            rnti: self.rnti,
            cell_id: self.cell_id,
            rv: self.rv,
            fec_iterations: self.fec_iterations,
        }
    }
}

/// The UE-specific pilot sequence (QPSK from a Gold sequence keyed by
/// RNTI), used by the receiver for SNR estimation.
pub(crate) fn pilot_sequence(rnti: u16, cell_id: u16, len: usize) -> Vec<Cplx> {
    let mut g = GoldSequence::new(GoldSequence::c_init_data(rnti ^ 0x5A5A, cell_id));
    let bits = g.bits(2 * len);
    let a = std::f32::consts::FRAC_1_SQRT_2;
    (0..len)
        .map(|i| {
            Cplx::new(
                if bits[2 * i] == 0 { -a } else { a },
                if bits[2 * i + 1] == 0 { -a } else { a },
            )
        })
        .collect()
}

/// Pilot cache: (RNTI, cell) → shared pilot symbol prefix.
type PilotCache = HashMap<(u16, u16), Arc<Vec<Cplx>>>;

thread_local! {
    /// Per-thread cache of pilot sequences keyed by (RNTI, cell). The
    /// same UE's pilots are regenerated on both the encode and the
    /// receive path of every TB; symbol `i` depends only on Gold bits
    /// 2i/2i+1, so a longer cached sequence serves any shorter request
    /// as a prefix.
    static PILOT_CACHE: RefCell<PilotCache> = RefCell::new(HashMap::new());
}

/// Cap on cached pilot entries per thread (guards pathological RNTI
/// churn; a deployment has a handful of active UEs).
const PILOT_CACHE_MAX: usize = 1024;

fn cached_pilots(rnti: u16, cell_id: u16, len: usize) -> Arc<Vec<Cplx>> {
    PILOT_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(p) = cache.get(&(rnti, cell_id)) {
            if p.len() >= len {
                return Arc::clone(p);
            }
        }
        if cache.len() >= PILOT_CACHE_MAX {
            cache.clear();
        }
        let p = Arc::new(pilot_sequence(rnti, cell_id, len));
        cache.insert((rnti, cell_id), Arc::clone(&p));
        p
    })
}

/// Encode a TB for transmission under the given fidelity.
pub(crate) fn encode_signal(
    kernels: DspKernels,
    fidelity: Fidelity,
    payload: &Bytes,
    lp: &LinkParamsTb,
) -> TbSignal {
    let encode = |bytes: &[u8], e_bits| kernels.encode_tb(bytes, &lp.tb_params(e_bits));
    let pilots = match fidelity {
        Fidelity::Abstract => Vec::new(),
        _ => cached_pilots(lp.rnti, lp.cell_id, lp.pilot_len())[..lp.pilot_len()].to_vec(),
    };
    let (symbols, shadow) = match fidelity {
        Fidelity::Full => (encode(payload, lp.e_bits()), Bytes::new()),
        Fidelity::Sampled => {
            let (rep_bytes, e_rep) = lp.sampled_split(payload.len());
            (encode(&payload[..rep_bytes], e_rep), payload.clone())
        }
        Fidelity::Abstract => (Vec::new(), payload.clone()),
    };
    TbSignal {
        pilots,
        symbols,
        shadow,
        snr_db: f64::NAN,
    }
}

/// Pass a signal through the channel at `snr_db`, its noise drawn from
/// per-chunk RNG streams (`DspKernels::awgn_apply_with`). AWGN
/// generation goes through the `kernels` seam: one noise source, the
/// same f32 noise on every backend.
pub(crate) fn apply_channel(
    kernels: DspKernels,
    signal: &mut TbSignal,
    snr_db: f64,
    channel: &mut AwgnChannel,
) {
    signal.snr_db = snr_db;
    for iq in [&mut signal.pilots, &mut signal.symbols] {
        if !iq.is_empty() {
            *iq = kernels.awgn_apply_with(channel, iq, snr_db).0;
        }
    }
}

/// Per-process receiver soft state (HARQ buffer across fidelities).
#[derive(Debug, Default)]
struct RxProc {
    ndi: bool,
    llr_acc: Vec<f32>,
    snr_acc: Vec<f64>,
}

/// Pool of receiver HARQ soft state, keyed by (RNTI, HARQ id). This is
/// exactly the inter-TTI PHY state Slingshot discards on migration
/// ([`RxProcessPool::clear`]).
#[derive(Debug, Default)]
pub struct RxProcessPool {
    procs: HashMap<(u16, u8), RxProc>,
}

/// One HARQ process's soft state, moved out of an [`RxProcessPool`]
/// while a (possibly pool-executed) decode owns it. Opaque: callers
/// only shuttle it between [`RxProcessPool::take`], `receive_into`
/// (or `receive_prepare` and `receive_finish`), and
/// [`RxProcessPool::put`].
#[derive(Debug, Default)]
pub struct RxSoftState(RxProc);

/// Result of a TB reception attempt.
#[derive(Debug)]
pub struct RxOutcome {
    /// The payload, when decoding succeeded.
    pub payload: Option<Bytes>,
    /// Estimated (or carried) SNR in dB, for link adaptation reports.
    pub snr_db: f64,
    /// Decoder iterations spent (compute-cost proxy; 0 in Abstract).
    pub iterations: usize,
}

/// A reception whose decode is pending: the prepared TB, which the
/// caller decodes with [`decode_prepared`] — alone or batched with
/// other receptions' — before [`receive_finish`].
#[derive(Debug)]
pub(crate) struct RxDecode {
    pub(crate) tb: PreparedTb,
    snr_db: f64,
    /// Full fidelity delivers the decoded bits; Sampled, the shadow.
    full: bool,
    shadow: Bytes,
}

/// What [`receive_prepare`] leaves: the outcome, when no LDPC decode is
/// needed (Abstract, lost IQ), else the pending decode.
#[derive(Debug)]
pub(crate) enum Reception {
    Done(RxOutcome),
    Decode(RxDecode),
}

impl RxProcessPool {
    pub fn new() -> RxProcessPool {
        RxProcessPool::default()
    }

    pub fn len(&self) -> usize {
        self.procs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// Discard all soft state (PHY migration / UE detach).
    pub fn clear(&mut self) {
        self.procs.clear();
    }

    /// Approximate bytes of soft state held.
    pub fn memory_bytes(&self) -> usize {
        self.procs
            .values()
            .map(|p| p.llr_acc.len() * 4 + p.snr_acc.len() * 8)
            .sum()
    }

    /// Move a HARQ process's soft state out of the pool (a fresh,
    /// empty state when the process has none). Pairs with
    /// [`RxProcessPool::put`]; this is what lets a reception queued at
    /// the slot tick own the state until its continuation merges it.
    pub fn take(&mut self, rnti: u16, harq_id: u8) -> RxSoftState {
        RxSoftState(self.procs.remove(&(rnti, harq_id)).unwrap_or_default())
    }

    /// Return soft state taken with [`RxProcessPool::take`]. State
    /// emptied by a successful decode (or never written) is dropped,
    /// which is what retires a HARQ process.
    pub fn put(&mut self, rnti: u16, harq_id: u8, state: RxSoftState) {
        if !state.0.llr_acc.is_empty() || !state.0.snr_acc.is_empty() {
            self.procs.insert((rnti, harq_id), state.0);
        }
    }
}

/// The LDPC work a receiver did: code blocks decoded, and the lockstep
/// batches (one per distinct `(k, iterations)` of a decode call, at most
/// eight blocks each) they ran in.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LdpcWork {
    pub(crate) code_blocks: u64,
    pub(crate) batches: u64,
}

/// Attempt to receive one TB transmission into caller-held soft state:
/// [`receive_prepare`], the LDPC decode of this TB alone (counted into
/// `work`), then [`receive_finish`].
///
/// The receiver takes the state out of its pool and puts it back after.
/// A successful decode empties the state, which is how the HARQ process
/// retires when the caller `put`s it back. `lp.ndi` starts a fresh HARQ series when toggled; `rng`
/// supplies the Abstract mode's BLER draw.
pub(crate) fn receive_into(
    kernels: DspKernels,
    state: &mut RxSoftState,
    fidelity: Fidelity,
    signal: &TbSignal,
    lp: &LinkParamsTb,
    rng: &mut SimRng,
    work: &mut LdpcWork,
) -> RxOutcome {
    match receive_prepare(state, fidelity, signal, lp, rng) {
        Reception::Done(outcome) => outcome,
        Reception::Decode(mut rx) => {
            work.code_blocks += rx.tb.code_blocks() as u64;
            let batches = decode_prepared(kernels, std::slice::from_mut(&mut rx.tb));
            work.batches += batches.len() as u64;
            receive_finish(state, rx)
        }
    }
}

/// Everything of [`receive_into`] before the TB's decode: HARQ series
/// reset, SNR estimate, and in Full and Sampled mode the TB's split
/// into code blocks ([`prepare_tb`]). Abstract mode and lost IQ finish
/// here.
pub(crate) fn receive_prepare(
    state: &mut RxSoftState,
    fidelity: Fidelity,
    signal: &TbSignal,
    lp: &LinkParamsTb,
    rng: &mut SimRng,
) -> Reception {
    let (expected_bytes, ndi) = (lp.tb_bytes, lp.ndi);
    let proc = &mut state.0;
    if proc.ndi != ndi || (proc.llr_acc.is_empty() && proc.snr_acc.is_empty()) {
        proc.llr_acc.clear();
        proc.snr_acc.clear();
        proc.ndi = ndi;
    }
    // SNR: estimate from pilots where present, else trust the
    // carried value (Abstract mode's stand-in for estimation).
    let snr_db = if !signal.pilots.is_empty() {
        let reference = cached_pilots(lp.rnti, lp.cell_id, lp.pilot_len());
        estimate_snr_db(&signal.pilots, &reference[..lp.pilot_len()])
    } else {
        signal.snr_db
    };
    match fidelity {
        Fidelity::Full | Fidelity::Sampled => {
            let full = fidelity == Fidelity::Full;
            let (coded_bytes, e_bits) = if full {
                (expected_bytes, lp.e_bits())
            } else {
                lp.sampled_split(expected_bytes)
            };
            let need = mother_buffer_len(coded_bytes);
            if proc.llr_acc.len() != need {
                proc.llr_acc.clear();
                proc.llr_acc.resize(need, 0.0);
            }
            if signal.symbols.is_empty() {
                // Lost IQ (e.g., dropped fronthaul): nothing to
                // combine; decoding garbage fails.
                return Reception::Done(RxOutcome {
                    payload: None,
                    snr_db,
                    iterations: 0,
                });
            }
            let noise_var = (1.0 / db_to_linear(snr_db)).max(1e-6) as f32;
            // Trim any transport padding (fronthaul PRB/chunk
            // rounding) to the exact coded-symbol count; short
            // bursts become erasures in the decode's front end.
            let expected_syms = e_bits / lp.modulation.bits_per_symbol();
            let symbols = &signal.symbols[..signal.symbols.len().min(expected_syms)];
            let tb = prepare_tb(
                &proc.llr_acc,
                symbols,
                noise_var,
                coded_bytes,
                &lp.tb_params(e_bits),
            );
            Reception::Decode(RxDecode {
                tb,
                snr_db,
                full,
                shadow: signal.shadow.clone(),
            })
        }
        Fidelity::Abstract => {
            proc.snr_acc.push(snr_db);
            let combined = bler::combined_snr_db(&proc.snr_acc);
            let row = mcs(lp.mcs);
            let info_bits = (expected_bytes + 3) * 8;
            let code_rate = info_bits as f64 / lp.e_bits() as f64;
            let block_bits = info_bits.min(1024);
            let p_err = bler::bler(
                combined,
                row.modulation.bits_per_symbol(),
                code_rate,
                block_bits,
                lp.fec_iterations,
            );
            let ok = !rng.chance(p_err);
            let payload = if ok {
                Some(signal.shadow.clone())
            } else {
                None
            };
            if ok {
                proc.llr_acc.clear();
                proc.snr_acc.clear();
            }
            Reception::Done(RxOutcome {
                payload,
                snr_db,
                iterations: 0,
            })
        }
    }
}

/// Everything of [`receive_into`] after the decode of `rx.tb`:
/// HARQ merge into `state` (the state `rx` was prepared from), CRC, and
/// the payload — retiring the HARQ process on success.
pub(crate) fn receive_finish(state: &mut RxSoftState, rx: RxDecode) -> RxOutcome {
    let proc = &mut state.0;
    let out = finish_tb(&mut proc.llr_acc, rx.tb);
    let payload = out
        .payload
        .map(|p| if rx.full { Bytes::from(p) } else { rx.shadow });
    if payload.is_some() {
        proc.llr_acc.clear();
        proc.snr_acc.clear();
    }
    RxOutcome {
        payload,
        snr_db: rx.snr_db,
        iterations: out.ldpc_iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slingshot_fronthaul::{fh_header, Direction};
    use slingshot_sim::{SimRng, SlotId};

    /// The host's best backend — bit-exact with scalar by contract, so
    /// every outcome below is backend-independent.
    fn kernels() -> DspKernels {
        DspKernels::detect()
    }

    fn encode_signal(fidelity: Fidelity, payload: &Bytes, lp: &LinkParamsTb) -> TbSignal {
        super::encode_signal(kernels(), fidelity, payload, lp)
    }

    #[allow(clippy::too_many_arguments)]
    fn receive(
        procs: &mut RxProcessPool,
        fidelity: Fidelity,
        signal: &TbSignal,
        lp: &LinkParamsTb,
        expected_bytes: usize,
        harq_id: u8,
        ndi: bool,
        rng: &mut SimRng,
    ) -> RxOutcome {
        let lp = LinkParamsTb {
            tb_bytes: expected_bytes,
            ndi,
            ..*lp
        };
        let mut state = procs.take(lp.rnti, harq_id);
        let mut work = LdpcWork::default();
        let out = receive_into(kernels(), &mut state, fidelity, signal, &lp, rng, &mut work);
        procs.put(lp.rnti, harq_id, state);
        out
    }

    fn grant(rv: u8) -> DciEntry {
        DciEntry {
            rnti: 0x4601,
            uplink: true,
            target_slot_scalar: 0,
            harq_id: 0,
            ndi: true,
            rv,
            mcs: 4,
            start_prb: 0,
            num_prb: 24,
            tb_bytes: 0,
        }
    }

    fn lp(rv: u8) -> LinkParamsTb {
        LinkParamsTb::from_grant(&grant(rv), 1, 12, 8)
    }

    fn payload(n: usize) -> Bytes {
        Bytes::from((0..n).map(|i| (i * 13) as u8).collect::<Vec<_>>())
    }

    /// A payload filling the grant's transport block (MCS 4, 24 PRBs),
    /// so the effective code rate matches the MCS nominal rate.
    fn tbs_payload() -> Bytes {
        payload(slingshot_fapi::tbs_bytes(4, 24, 12))
    }

    fn roundtrip(fidelity: Fidelity, snr_db: f64, seed: u64) -> bool {
        let mut ch = AwgnChannel::new(SimRng::new(seed));
        let mut rng = SimRng::new(seed + 1);
        let l = lp(0);
        let data = payload(200);
        let mut sig = encode_signal(fidelity, &data, &l);
        apply_channel(kernels(), &mut sig, snr_db, &mut ch);
        let mut pool = RxProcessPool::new();
        let out = receive(&mut pool, fidelity, &sig, &l, data.len(), 0, true, &mut rng);
        out.payload.as_ref() == Some(&data)
    }

    #[test]
    fn full_fidelity_roundtrip_high_snr() {
        assert!(roundtrip(Fidelity::Full, 30.0, 1));
    }

    #[test]
    fn sampled_fidelity_roundtrip_high_snr() {
        assert!(roundtrip(Fidelity::Sampled, 30.0, 2));
    }

    #[test]
    fn abstract_fidelity_roundtrip_high_snr() {
        assert!(roundtrip(Fidelity::Abstract, 30.0, 3));
    }

    #[test]
    fn all_modes_fail_at_terrible_snr() {
        for (f, s) in [
            (Fidelity::Full, 4u64),
            (Fidelity::Sampled, 5),
            (Fidelity::Abstract, 6),
        ] {
            assert!(!roundtrip(f, -15.0, s), "{f:?}");
        }
    }

    #[test]
    fn snr_estimate_close_to_truth() {
        let mut ch = AwgnChannel::new(SimRng::new(7));
        let mut rng = SimRng::new(8);
        let l = lp(0);
        let data = payload(100);
        let mut sig = encode_signal(Fidelity::Full, &data, &l);
        apply_channel(kernels(), &mut sig, 15.0, &mut ch);
        let mut pool = RxProcessPool::new();
        let out = receive(
            &mut pool,
            Fidelity::Full,
            &sig,
            &l,
            data.len(),
            0,
            true,
            &mut rng,
        );
        assert!((out.snr_db - 15.0).abs() < 3.0, "est={}", out.snr_db);
    }

    #[test]
    fn harq_combining_works_in_sampled_mode() {
        // At an SNR where a single transmission usually fails, two
        // combined transmissions should usually succeed.
        let mut single_ok = 0;
        let mut combined_ok = 0;
        let trials = 12;
        for t in 0..trials {
            let mut ch = AwgnChannel::new(SimRng::new(100 + t));
            let mut rng = SimRng::new(200 + t);
            let data = tbs_payload();
            let mut pool = RxProcessPool::new();
            // MCS 4 (QPSK 0.59, eff 1.18) at 2.5 dB: marginal for a
            // single transmission, comfortable after combining.
            let snr = 2.5;
            let l0 = lp(0);
            let mut s0 = encode_signal(Fidelity::Sampled, &data, &l0);
            apply_channel(kernels(), &mut s0, snr, &mut ch);
            let o0 = receive(
                &mut pool,
                Fidelity::Sampled,
                &s0,
                &l0,
                data.len(),
                0,
                true,
                &mut rng,
            );
            if o0.payload.is_some() {
                single_ok += 1;
                continue;
            }
            let l1 = lp(2);
            let mut s1 = encode_signal(Fidelity::Sampled, &data, &l1);
            apply_channel(kernels(), &mut s1, snr, &mut ch);
            let o1 = receive(
                &mut pool,
                Fidelity::Sampled,
                &s1,
                &l1,
                data.len(),
                0,
                true,
                &mut rng,
            );
            if o1.payload.is_some() {
                combined_ok += 1;
            }
        }
        assert!(
            combined_ok > single_ok,
            "single={single_ok} combined={combined_ok}"
        );
    }

    #[test]
    fn abstract_mode_harq_gain() {
        // Abstract mode: repeated receives at marginal SNR should
        // succeed more often than the first attempt alone.
        let trials = 400;
        let mut first_ok = 0;
        let mut second_ok = 0;
        let mut rng = SimRng::new(42);
        for t in 0..trials {
            let l = lp(0);
            let data = tbs_payload();
            // Effective efficiency as the receiver computes it.
            let rate = ((data.len() + 3) * 8) as f64 / l.e_bits() as f64;
            let sig = {
                let mut s = encode_signal(Fidelity::Abstract, &data, &l);
                s.snr_db = slingshot_phy_dsp::bler::threshold_db(2, rate, 8) - 1.0;
                s
            };
            let mut pool = RxProcessPool::new();
            let o1 = receive(
                &mut pool,
                Fidelity::Abstract,
                &sig,
                &l,
                data.len(),
                0,
                true,
                &mut rng,
            );
            if o1.payload.is_some() {
                first_ok += 1;
                continue;
            }
            let o2 = receive(
                &mut pool,
                Fidelity::Abstract,
                &sig,
                &l,
                data.len(),
                0,
                true,
                &mut rng,
            );
            if o2.payload.is_some() {
                second_ok += 1;
            }
            let _ = t;
        }
        // Below threshold: first attempt fails most of the time, but a
        // combined (+3 dB) second attempt flips the odds.
        assert!(first_ok < trials / 2, "first={first_ok}");
        assert!(second_ok > (trials - first_ok) / 2, "second={second_ok}");
    }

    #[test]
    fn ndi_toggle_resets_soft_state() {
        let mut rng = SimRng::new(9);
        let l = lp(0);
        let data = payload(64);
        let mut pool = RxProcessPool::new();
        let mut sig = encode_signal(Fidelity::Abstract, &data, &l);
        sig.snr_db = -20.0;
        let _ = receive(
            &mut pool,
            Fidelity::Abstract,
            &sig,
            &l,
            data.len(),
            3,
            true,
            &mut rng,
        );
        assert_eq!(pool.len(), 1);
        // Toggled NDI → fresh state (old SNR history must not help).
        let _ = receive(
            &mut pool,
            Fidelity::Abstract,
            &sig,
            &l,
            data.len(),
            3,
            false,
            &mut rng,
        );
        let mem = pool.memory_bytes();
        assert!(mem <= 16, "should hold one fresh snr entry, mem={mem}");
    }

    #[test]
    fn clear_discards_everything() {
        let mut rng = SimRng::new(10);
        let l = lp(0);
        let data = payload(64);
        let mut pool = RxProcessPool::new();
        let mut sig = encode_signal(Fidelity::Abstract, &data, &l);
        sig.snr_db = -20.0;
        for h in 0..4 {
            let _ = receive(
                &mut pool,
                Fidelity::Abstract,
                &sig,
                &l,
                data.len(),
                h,
                true,
                &mut rng,
            );
        }
        assert_eq!(pool.len(), 4);
        pool.clear();
        assert!(pool.is_empty());
        assert_eq!(pool.memory_bytes(), 0);
    }

    #[test]
    fn lost_iq_fails_cleanly_in_full_mode() {
        let mut rng = SimRng::new(11);
        let l = lp(0);
        let data = payload(100);
        let sig = TbSignal {
            pilots: pilot_sequence(l.rnti, l.cell_id, l.pilot_len()),
            symbols: Vec::new(), // fronthaul lost
            shadow: Bytes::new(),
            snr_db: 20.0,
        };
        let mut pool = RxProcessPool::new();
        let out = receive(
            &mut pool,
            Fidelity::Full,
            &sig,
            &l,
            data.len(),
            0,
            true,
            &mut rng,
        );
        assert!(out.payload.is_none());
    }

    /// Pack `signal`, put every frame through the wire codec, keep the
    /// frames `keep` selects, deliver them in `order`, absorb them
    /// under one slot and take the allocation back out.
    fn fronthaul_roundtrip(
        dir: Direction,
        signal: TbSignal,
        num_prb: u16,
        keep: impl Fn(usize, &FhMessage) -> bool,
        order: impl Fn(&mut Vec<FhMessage>),
    ) -> (Vec<FhMessage>, TbSignal) {
        let slot = SlotId::from_absolute(5119);
        let mut sent = Vec::new();
        signal.pack(kernels(), fh_header(dir, slot, 0, 2), 7, 0x4601, |m| {
            sent.push(FhMessage::from_bytes(&m.to_bytes()).expect("parses"))
        });
        assert!(sent.iter().all(|m| m.direction() == dir));
        assert!(sent.iter().all(|m| m.hdr().slot_scalar() == slot.scalar()));
        let mut delivered: Vec<FhMessage> = sent
            .iter()
            .enumerate()
            .filter(|(i, m)| keep(*i, m))
            .map(|(_, m)| m.clone())
            .collect();
        order(&mut delivered);
        let mut rx = FhAssembly::default();
        for m in delivered {
            rx.absorb(kernels(), 5119, m);
        }
        let mut buf = rx.remove(5119).unwrap_or_default();
        (sent, buf.take(7, 0x4601, pilot_len(num_prb)))
    }

    fn iq(rng: &mut SimRng, n: usize) -> Vec<Cplx> {
        (0..n)
            .map(|_| {
                Cplx::new(
                    rng.range_f64(-1.0, 1.0) as f32,
                    rng.range_f64(-1.0, 1.0) as f32,
                )
            })
            .collect()
    }

    /// Equal up to 9-bit BFP quantisation of samples in the unit box.
    fn close(got: &[Cplx], want: &[Cplx]) -> bool {
        got.len() == want.len() && got.iter().zip(want).all(|(a, b)| (*a - *b).abs() < 0.02)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn pack_absorb_take_roundtrips_in_both_directions(
            num_prb in 1u16..130,
            n_symbols in 1usize..2500,
            seed in 0u64..1 << 32,
            keep_mask in 0u64..1 << 16,
        ) {
            use proptest::prelude::*;
            for dir in [Direction::Uplink, Direction::Downlink] {
                let mut rng = SimRng::new(seed);
                let plen = pilot_len(num_prb);
                let original = TbSignal {
                    pilots: iq(&mut rng, plen),
                    symbols: iq(&mut rng, n_symbols),
                    shadow: payload(40),
                    // The downlink is packed before any channel.
                    snr_db: if dir == Direction::Uplink { 12.34 } else { f64::NAN },
                };
                let carried_snr = if dir == Direction::Uplink { 12.34 } else { 0.0 };
                let mut padded = [original.pilots.clone(), original.symbols.clone()].concat();
                padded.resize(padded.len().next_multiple_of(SC_PER_PRB), Cplx::ZERO);
                let shuffle = |v: &mut Vec<FhMessage>| {
                    let mut r = SimRng::new(seed ^ 0x5bd1);
                    for i in (1..v.len()).rev() {
                        v.swap(i, r.below(i as u64 + 1) as usize);
                    }
                };

                // Nothing lost, any arrival order: the original comes
                // back up to BFP quantisation (plus the PRB padding).
                let (sent, got) =
                    fronthaul_roundtrip(dir, original.clone(), num_prb, |_, _| true, shuffle);
                let chunks = padded.len().div_ceil(PRBS_PER_CHUNK * SC_PER_PRB);
                prop_assert_eq!(sent.len(), chunks + 1);
                prop_assert!(matches!(sent.last(), Some(FhMessage::Shadow(_))));
                prop_assert!(close(&got.pilots, &padded[..plen]));
                prop_assert!(close(&got.symbols, &padded[plen..]));
                prop_assert_eq!(&got.shadow, &original.shadow);
                prop_assert_eq!(got.snr_db, carried_snr);

                // A random subset lost: what survives is concatenated in
                // chunk order and split at the pilot length — or, when
                // no data symbol follows the pilots, lost IQ altogether.
                let kept = |i: usize, _: &FhMessage| keep_mask >> (i % 16) & 1 == 1;
                let (sent, got) = fronthaul_roundtrip(dir, original.clone(), num_prb, kept, shuffle);
                let mut survived = Vec::new();
                for (i, chunk) in padded.chunks(PRBS_PER_CHUNK * SC_PER_PRB).enumerate() {
                    if kept(i, &sent[i]) {
                        survived.extend_from_slice(chunk);
                    }
                }
                if survived.len() > plen {
                    prop_assert!(close(&got.pilots, &survived[..plen]));
                    prop_assert!(close(&got.symbols, &survived[plen..]));
                } else {
                    prop_assert!(got.pilots.is_empty() && got.symbols.is_empty());
                }
                if kept(sent.len() - 1, &sent[sent.len() - 1]) {
                    prop_assert_eq!(&got.shadow, &original.shadow);
                    prop_assert_eq!(got.snr_db, carried_snr);
                } else {
                    prop_assert!(got.shadow.is_empty() && got.snr_db.is_nan());
                }
            }
        }
    }

    #[test]
    fn pilots_without_data_symbols_are_lost_iq() {
        // 48 PRBs of pilots fill chunk 0 exactly, so losing the data
        // chunks leaves `samples.len() == pilot_len`: both directions
        // hand back an empty signal, not pilots with nothing behind them.
        for dir in [Direction::Uplink, Direction::Downlink] {
            let mut rng = SimRng::new(3);
            let signal = TbSignal {
                pilots: iq(&mut rng, pilot_len(48)),
                symbols: iq(&mut rng, 700),
                shadow: Bytes::new(),
                snr_db: f64::NAN,
            };
            let data_lost = |i: usize, _: &FhMessage| i == 0;
            let (sent, got) = fronthaul_roundtrip(dir, signal.clone(), 48, data_lost, |_| {});
            assert_eq!(
                sent.len(),
                3,
                "{dir:?}: pilots + two data chunks, no shadow"
            );
            assert!(got.pilots.is_empty() && got.symbols.is_empty(), "{dir:?}");
            assert!(got.shadow.is_empty() && got.snr_db.is_nan(), "{dir:?}");
            // One data symbol behind the pilots is a (short) signal.
            let one_more = |i: usize, _: &FhMessage| i <= 1;
            let (_, got) = fronthaul_roundtrip(dir, signal, 48, one_more, |_| {});
            assert_eq!((got.pilots.len(), got.symbols.len()), (576, 576), "{dir:?}");
        }
    }
}
