//! The full transport-block processing chain, tying the substrate
//! together exactly as a 5G PHY does on PUSCH/PDSCH:
//!
//! ```text
//! tx:  payload → CRC-24A → segmentation → LDPC encode → rate match (RV)
//!        → scramble (Gold) → QAM modulate → symbols
//! rx:  symbols → LLR demap → descramble → rate recover (soft-combine
//!        into the HARQ buffer) → LDPC decode (min-sum, N iterations)
//!        → CRC check → payload | failure
//! ```
//!
//! The HARQ soft buffer is passed in by the caller (`ran::fidelity`'s
//! `RxProcessPool` owns the live ones), which is what lets the PHY —
//! and Slingshot's migration — own or discard that state explicitly.
//!
//! Bits move through the chain packed 64 per word ([`BitBuf`]), the
//! scrambling sequence comes from the per-thread
//! [`cached_sequence`] word cache, and the chain borrows its working
//! buffers from the calling thread (`WORKSPACE`), so steady-state
//! slots allocate almost nothing. No stage moves one bit per call: the
//! LDPC encoder solves its parity a word at a time
//! ([`LdpcCode::encode_packed`]), the parity interleave gathers 64 bits
//! per pushed word, and rate recovery adds over contiguous runs of the
//! circular buffer rather than indexing modulo `n`. All of it is
//! bit-identical to the original byte-per-bit chain — same bits, same
//! f32 operations in the same order — so traces and HARQ accumulators
//! are unchanged.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use crate::bits::BitBuf;
use crate::crc::{attach_crc24a, check_crc24a};
use crate::dispatch::DspKernels;
use crate::iq::Cplx;
use crate::ldpc::{LdpcCode, BATCH_LANES};
use crate::modulation::{modulate_packed, Modulation};
use crate::ratematch::{rate_match_packed, rate_recover};
use crate::scramble::{cached_sequence, descramble_llrs_packed, scramble_packed, GoldSequence};
use crate::scratch::{Workspace, WORKSPACE};

/// Maximum information bits per LDPC code block (including the share of
/// the TB CRC). Larger transport blocks are segmented.
pub const MAX_CB_INFO_BITS: usize = 1024;

/// A cached LDPC code plus its transmission (interleave) order.
type CachedCode = (Rc<LdpcCode>, Rc<Vec<u32>>);

thread_local! {
    static CODE_CACHE: RefCell<HashMap<usize, CachedCode>> = RefCell::new(HashMap::new());
}

/// The LDPC code and its cached transmission (interleave) order for
/// information length `k`: `order[pos]` is the codeword index sent at
/// circular-buffer position `pos`.
fn code_for(k: usize) -> CachedCode {
    CODE_CACHE.with(|c| {
        c.borrow_mut()
            .entry(k)
            .or_insert_with(|| {
                let code = LdpcCode::new(k);
                let order = tx_order(k, code.n()).iter().map(|&i| i as u32).collect();
                (Rc::new(code), Rc::new(order))
            })
            .clone()
    })
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Transmission order for the circular buffer: systematic bits first,
/// then parity bits in a strided (coprime-step) order. The stride
/// spreads punctured parity positions across the staircase chain —
/// contiguous tail puncturing of degree-2 parity variables would wreck
/// the code's waterfall (the same reason 5G's circular buffer is built
/// over a structured interleave rather than the raw codeword).
fn tx_order(k: usize, n: usize) -> Vec<usize> {
    let m = n - k;
    let mut stride = ((m as f64 * 0.618) as usize) | 1;
    while gcd(stride, m) != 1 {
        stride += 2;
    }
    let mut order = Vec::with_capacity(n);
    order.extend(0..k);
    for i in 0..m {
        order.push(k + (i * stride) % m);
    }
    order
}

/// Per-transmission parameters of a transport block.
#[derive(Debug, Clone)]
pub struct TbParams {
    pub modulation: Modulation,
    /// Total coded bits available on the air for this TB (PRBs × 12
    /// subcarriers × data symbols × bits/symbol). Must be a multiple of
    /// bits-per-symbol.
    pub e_bits: usize,
    pub rnti: u16,
    pub cell_id: u16,
    /// Redundancy version of this transmission (0..4).
    pub rv: u8,
    /// Min-sum decoder iteration budget.
    pub fec_iterations: usize,
}

/// Deterministic segmentation of `total_bits` info bits into code
/// blocks of at most [`MAX_CB_INFO_BITS`], each at least 8 bits.
pub fn segment_sizes(total_bits: usize) -> Vec<usize> {
    assert!(total_bits >= 8);
    let nblocks = total_bits.div_ceil(MAX_CB_INFO_BITS);
    let base = total_bits / nblocks;
    let rem = total_bits % nblocks;
    (0..nblocks)
        .map(|i| if i < rem { base + 1 } else { base })
        .collect()
}

/// Length of the concatenated mother-codeword HARQ buffer for a payload
/// of `payload_bytes` (payload + 24-bit TB CRC, all code blocks).
pub fn mother_buffer_len(payload_bytes: usize) -> usize {
    let total_bits = (payload_bytes + 3) * 8;
    segment_sizes(total_bits).iter().map(|k| 3 * k).sum()
}

/// Split the per-TB coded-bit budget across code blocks proportionally
/// to their info sizes (exactly consuming `e_bits`).
fn e_split(e_bits: usize, ks: &[usize]) -> Vec<usize> {
    let total_k: usize = ks.iter().sum();
    let mut out = Vec::with_capacity(ks.len());
    let mut assigned = 0usize;
    let mut acc_k = 0usize;
    for &k in ks {
        acc_k += k;
        let target = e_bits * acc_k / total_k;
        out.push(target - assigned);
        assigned = target;
    }
    out
}

/// Encode a transport block: per code block, LDPC encode, the parity
/// interleave and rate matching, appended in block order; then one
/// scramble of the whole coded TB and modulation. Working buffers come
/// from the calling thread's workspace.
///
/// `_kernels` keeps the entry point uniform with the decode chain; the
/// encode path is integer/LUT work with no SIMD variant today, so every
/// backend runs the same code.
pub fn encode_tb(_kernels: DspKernels, payload: &[u8], p: &TbParams) -> Vec<Cplx> {
    let bps = p.modulation.bits_per_symbol();
    assert!(
        p.e_bits.is_multiple_of(bps),
        "e_bits {} not a multiple of bits/symbol {}",
        p.e_bits,
        bps
    );
    let framed = attach_crc24a(payload);
    let bits = BitBuf::from_bytes_msb(&framed);
    let ks = segment_sizes(bits.len());
    let es = e_split(p.e_bits, &ks);
    let seq = cached_sequence(GoldSequence::c_init_data(p.rnti, p.cell_id), p.e_bits);

    let mut s = WORKSPACE.take();
    let mut tx_bits = BitBuf::with_capacity(p.e_bits);
    let mut offset = 0;
    for (&k, &e) in ks.iter().zip(&es) {
        let (code, order) = code_for(k);
        s.bits_a.clear();
        code.encode_packed(&bits.slice(offset, k), &mut s.bits_a);
        // Permute into transmission order: the systematic prefix is the
        // identity, the parity part is strided and gathered 64 bits per
        // pushed word.
        s.bits_b.clear();
        s.bits_b.append_range(&s.bits_a, 0, k);
        let cw = s.bits_a.words();
        for idxs in order[k..].chunks(64) {
            let mut word = 0u64;
            for (j, &idx) in idxs.iter().enumerate() {
                word |= ((cw[idx as usize >> 6] >> (idx & 63)) & 1) << j;
            }
            s.bits_b.push_word(word, idxs.len());
        }
        rate_match_packed(&s.bits_b, e, p.rv, &mut tx_bits);
        offset += k;
    }
    WORKSPACE.set(s);
    scramble_packed(&mut tx_bits, &seq, 0);
    modulate_packed(&tx_bits, p.modulation)
}

/// Outcome of a transport-block decode attempt.
#[derive(Debug, Clone)]
pub struct TbDecodeOutcome {
    /// Decoded payload if the TB CRC checked out.
    pub payload: Option<Vec<u8>>,
    /// Total min-sum iterations spent across code blocks — the PHY's
    /// compute-cost proxy for this TB.
    pub ldpc_iterations: usize,
    /// Whether every code block satisfied its LDPC parity checks.
    pub all_parity_ok: bool,
    /// Wall-clock nanoseconds spent inside the LDPC min-sum decoder,
    /// each batch of code blocks counted once (host-dependent; for
    /// profiling only — never feed it back into simulation logic).
    pub ldpc_ns: u64,
}

/// One code block of a received transport block, from [`prepare_tb`]
/// to [`finish_tb`]: its symbol window and front-end parameters, its
/// HARQ accumulator segment (transmission order) — soft-combined with
/// this transmission just before its batch decodes — and the decoder's
/// verdict.
#[derive(Debug)]
struct RxBlock {
    k: usize,
    e: usize,
    /// Bits of the first symbol in the window that belong to the
    /// previous block (symbol-boundary overlap).
    lead: usize,
    /// The block's bit offset into the codeword / scrambling sequence.
    offset_e: usize,
    syms: Vec<Cplx>,
    modulation: Modulation,
    noise_var: f32,
    rv: u8,
    seq: Arc<Vec<u64>>,
    seg: Vec<f32>,
    info: BitBuf,
    iterations: usize,
    parity_ok: bool,
}

impl RxBlock {
    /// The per-block front end: LLR demap of the symbol window, trim of
    /// the lead bits, erasures for missing tail symbols (lost
    /// fronthaul), descramble, and rate recovery soft-combined into the
    /// HARQ segment — which lives in transmission (interleaved) order,
    /// so the decoder reads it through the interleave, straight into its
    /// posteriors.
    fn front_end(&mut self, kernels: DspKernels, s: &mut Workspace) {
        let syms = std::mem::take(&mut self.syms);
        kernels.demodulate_llr_into(&syms, self.modulation, self.noise_var, &mut s.demod_llrs);
        let lo = self.lead.min(s.demod_llrs.len());
        let hi = (self.lead + self.e).min(s.demod_llrs.len());
        s.llr_e.clear();
        s.llr_e.extend_from_slice(&s.demod_llrs[lo..hi]);
        s.llr_e.resize(self.e, 0.0);
        descramble_llrs_packed(&mut s.llr_e, &self.seq, self.offset_e);
        rate_recover(&mut self.seg, &s.llr_e, self.rv);
    }
}

/// A received transport block between its three decode steps:
/// [`prepare_tb`] (split into code blocks), [`decode_prepared`] (each
/// block's front end and LDPC, batched with the blocks of any other TBs
/// decoded at the same time) and [`finish_tb`] (HARQ merge, CRC).
/// `Default` is the empty TB, with no code blocks.
#[derive(Debug, Default)]
pub struct PreparedTb {
    total_bits: usize,
    fec_iterations: usize,
    blocks: Vec<RxBlock>,
}

impl PreparedTb {
    /// Code blocks the TB segments into.
    pub fn code_blocks(&self) -> usize {
        self.blocks.len()
    }
}

/// Prepare a transport block for decoding: split it into code blocks,
/// each with its window of `rx_symbols` (missing tail symbols, lost
/// fronthaul, become erasures), its front-end parameters and a copy of
/// its segment of the HARQ accumulator `acc` (which [`finish_tb`]
/// writes back). The DSP — demap, descramble, rate recovery — runs in
/// [`decode_prepared`] right before the block's batch decode, so both
/// share the cache.
pub fn prepare_tb(
    acc: &[f32],
    rx_symbols: &[Cplx],
    noise_var: f32,
    payload_bytes: usize,
    p: &TbParams,
) -> PreparedTb {
    let bps = p.modulation.bits_per_symbol();
    let total_bits = (payload_bytes + 3) * 8;
    let ks = segment_sizes(total_bits);
    let es = e_split(p.e_bits, &ks);
    debug_assert_eq!(acc.len(), ks.iter().map(|k| 3 * k).sum::<usize>());
    let seq = cached_sequence(GoldSequence::c_init_data(p.rnti, p.cell_id), p.e_bits);
    let mut blocks = Vec::with_capacity(ks.len());
    let mut llr_off = 0;
    let mut acc_off = 0;
    for (&k, &e) in ks.iter().zip(&es) {
        let n = 3 * k;
        // The block's coded bits [llr_off, llr_off+e) live in symbols
        // [s0, s1); the first symbol may straddle the block boundary.
        let s0 = (llr_off / bps).min(rx_symbols.len());
        let s1 = (llr_off + e).div_ceil(bps).min(rx_symbols.len());
        blocks.push(RxBlock {
            k,
            e,
            lead: llr_off - (llr_off / bps) * bps,
            offset_e: llr_off,
            syms: rx_symbols[s0..s1].to_vec(),
            modulation: p.modulation,
            noise_var,
            rv: p.rv,
            seq: Arc::clone(&seq),
            seg: acc[acc_off..acc_off + n].to_vec(),
            info: BitBuf::default(),
            iterations: 0,
            parity_ok: false,
        });
        llr_off += e;
        acc_off += n;
    }
    PreparedTb {
        total_bits,
        fec_iterations: p.fec_iterations,
        blocks,
    }
}

/// One lockstep batch of [`decode_prepared`]: its code group and its
/// blocks as `(tb, block)` indices, in submission order.
struct Batch {
    k: usize,
    fec_iterations: usize,
    members: Vec<(usize, usize)>,
}

/// Decode every code block of `tbs` in lockstep batches: the blocks of
/// all the TBs, in submission order (TB order, then block order),
/// grouped by `(k, fec_iterations)` into batches of at most
/// [`BATCH_LANES`] — a block joins the newest batch of its group while
/// that has a free lane, else opens a new one. Batches decode in place,
/// in batch order, with the calling thread's working buffers: their
/// blocks' front ends, then one lockstep decode. Composition never
/// changes a block's outcome: [`DspKernels::ldpc_decode_batch_into`]
/// gives each lane exactly what a one-block decode would, so the result
/// is identical for any mix of TBs. Returns each batch's wall-clock
/// nanoseconds inside the decoder, in batch order (host-dependent; for
/// profiling only — never feed it back into simulation logic).
pub fn decode_prepared(kernels: DspKernels, tbs: &mut [PreparedTb]) -> Vec<u64> {
    let mut batches: Vec<Batch> = Vec::new();
    for (t, tb) in tbs.iter().enumerate() {
        for (b, block) in tb.blocks.iter().enumerate() {
            let (k, fec_iterations) = (block.k, tb.fec_iterations);
            let newest = batches
                .iter_mut()
                .rev()
                .find(|x| x.k == k && x.fec_iterations == fec_iterations);
            match newest {
                Some(batch) if batch.members.len() < BATCH_LANES => batch.members.push((t, b)),
                _ => batches.push(Batch {
                    k,
                    fec_iterations,
                    members: vec![(t, b)],
                }),
            }
        }
    }

    let mut s = WORKSPACE.take();
    s.out.resize_with(BATCH_LANES, Default::default);
    let mut batch_ns = Vec::with_capacity(batches.len());
    for batch in &batches {
        let (code, order) = code_for(batch.k);
        for &(t, b) in &batch.members {
            tbs[t].blocks[b].front_end(kernels, &mut s);
        }
        let mut views: [&[f32]; BATCH_LANES] = [&[]; BATCH_LANES];
        for (view, &(t, b)) in views.iter_mut().zip(&batch.members) {
            *view = &tbs[t].blocks[b].seg;
        }
        let lanes = batch.members.len();
        let ldpc_start = std::time::Instant::now();
        kernels.ldpc_decode_batch_into(
            &code,
            &order,
            &views[..lanes],
            batch.fec_iterations,
            &mut s.ldpc,
            &mut s.out[..lanes],
        );
        batch_ns.push(ldpc_start.elapsed().as_nanos() as u64);
        for (&(t, b), o) in batch.members.iter().zip(&s.out) {
            let block = &mut tbs[t].blocks[b];
            block.info = o.hard.slice(0, batch.k);
            block.iterations = o.iterations;
            block.parity_ok = o.parity_ok;
        }
    }
    WORKSPACE.set(s);
    batch_ns
}

/// Finish a decoded transport block: write each code block's combined
/// segment back into the HARQ accumulator `acc` (the one `tb` was
/// prepared from), concatenate the info bits and check the TB CRC.
/// `ldpc_ns` is left 0: [`decode_prepared`] reports LDPC time per
/// batch, and a batch may serve several TBs.
pub fn finish_tb(acc: &mut [f32], tb: PreparedTb) -> TbDecodeOutcome {
    debug_assert_eq!(
        acc.len(),
        tb.blocks.iter().map(|b| b.seg.len()).sum::<usize>()
    );
    let mut info_bits = BitBuf::with_capacity(tb.total_bits);
    let mut iterations = 0;
    let mut all_parity_ok = true;
    let mut acc_off = 0;
    for block in tb.blocks {
        acc[acc_off..acc_off + block.seg.len()].copy_from_slice(&block.seg);
        acc_off += block.seg.len();
        info_bits.append(&block.info);
        iterations += block.iterations;
        all_parity_ok &= block.parity_ok;
    }
    let bytes = info_bits.to_bytes_msb();
    let payload = check_crc24a(&bytes).map(|p| p.to_vec());
    TbDecodeOutcome {
        payload,
        ldpc_iterations: iterations,
        all_parity_ok,
        ldpc_ns: 0,
    }
}

/// Decode one transport block: [`prepare_tb`], [`decode_prepared`] on
/// this TB alone, [`finish_tb`], soft-combining into the caller-owned
/// HARQ accumulator `acc`. Its batches are runs of up to
/// [`BATCH_LANES`] consecutive blocks of equal `k` ([`segment_sizes`]
/// yields at most two runs), so they depend only on the TB's size. The
/// result — including every f32 of `acc` — is identical to decoding the
/// TB batched with any others.
pub fn decode_tb(
    kernels: DspKernels,
    acc: &mut [f32],
    rx_symbols: &[Cplx],
    noise_var: f32,
    payload_bytes: usize,
    p: &TbParams,
) -> TbDecodeOutcome {
    let mut tb = prepare_tb(acc, rx_symbols, noise_var, payload_bytes, p);
    let batch_ns = decode_prepared(kernels, std::slice::from_mut(&mut tb));
    TbDecodeOutcome {
        ldpc_ns: batch_ns.iter().sum(),
        ..finish_tb(acc, tb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::AwgnChannel;
    use slingshot_sim::SimRng;

    /// Chain entry points through the dispatch handle with the host's
    /// best backend, so the whole test battery exercises the SIMD path
    /// where available (bit-exact with scalar by the dispatch contract).
    fn encode_tb(payload: &[u8], p: &TbParams) -> Vec<Cplx> {
        DspKernels::detect().encode_tb(payload, p)
    }

    fn decode_tb(
        acc: &mut [f32],
        rx_symbols: &[Cplx],
        noise_var: f32,
        payload_bytes: usize,
        p: &TbParams,
    ) -> TbDecodeOutcome {
        DspKernels::detect().decode_tb(acc, rx_symbols, noise_var, payload_bytes, p)
    }

    fn params(e_bits: usize, rv: u8) -> TbParams {
        TbParams {
            modulation: Modulation::Qam16,
            e_bits,
            rnti: 0x4601,
            cell_id: 42,
            rv,
            fec_iterations: 8,
        }
    }

    fn payload(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = SimRng::new(seed);
        (0..n).map(|_| (rng.next_u64() & 0xFF) as u8).collect()
    }

    #[test]
    fn segment_sizes_respect_limits() {
        for total in [8usize, 100, 1024, 1025, 5000, 30_000] {
            let ks = segment_sizes(total);
            assert_eq!(ks.iter().sum::<usize>(), total);
            assert!(ks.iter().all(|k| *k <= MAX_CB_INFO_BITS && *k >= 8));
            let max = ks.iter().max().unwrap();
            let min = ks.iter().min().unwrap();
            assert!(max - min <= 1, "balanced: {ks:?}");
        }
    }

    #[test]
    fn e_split_exact() {
        let ks = [100, 100, 50];
        let es = e_split(1000, &ks);
        assert_eq!(es.iter().sum::<usize>(), 1000);
        assert_eq!(es.len(), 3);
        assert!(es[2] < es[0]);
    }

    #[test]
    fn clean_channel_roundtrip_single_block() {
        let data = payload(40, 1);
        // (40+3)*8 = 344 info bits; rate 1/2 => ~688 coded bits, round
        // to multiple of 4 (16-QAM).
        let p = params(688, 0);
        let syms = encode_tb(&data, &p);
        assert_eq!(syms.len(), 688 / 4);
        let mut acc = vec![0.0; mother_buffer_len(data.len())];
        let out = decode_tb(&mut acc, &syms, 0.001, data.len(), &p);
        assert_eq!(out.payload.as_deref(), Some(&data[..]));
        assert!(out.all_parity_ok);
    }

    #[test]
    fn clean_channel_roundtrip_multi_block() {
        let data = payload(400, 2); // (400+3)*8 = 3224 bits → 4 blocks
        let p = params(6448, 0);
        let syms = encode_tb(&data, &p);
        let mut acc = vec![0.0; mother_buffer_len(data.len())];
        let out = decode_tb(&mut acc, &syms, 0.001, data.len(), &p);
        assert_eq!(out.payload.as_deref(), Some(&data[..]));
    }

    #[test]
    fn noisy_channel_decodes_at_reasonable_snr() {
        let mut ch = AwgnChannel::new(SimRng::new(3));
        let data = payload(100, 3);
        let p = params(2472, 0); // rate ~1/3: (103*8)=824 bits, e=2472
        let syms = encode_tb(&data, &p);
        let (rx, nv) = ch.apply(&syms, 8.0);
        let mut acc = vec![0.0; mother_buffer_len(data.len())];
        let out = decode_tb(&mut acc, &rx, nv, data.len(), &p);
        assert_eq!(out.payload.as_deref(), Some(&data[..]));
    }

    #[test]
    fn low_snr_fails_crc() {
        let mut ch = AwgnChannel::new(SimRng::new(4));
        let data = payload(100, 5);
        let p = params(1648, 0); // rate 1/2
        let syms = encode_tb(&data, &p);
        let (rx, nv) = ch.apply(&syms, -4.0);
        let mut acc = vec![0.0; mother_buffer_len(data.len())];
        let out = decode_tb(&mut acc, &rx, nv, data.len(), &p);
        assert!(out.payload.is_none());
    }

    #[test]
    fn harq_combining_rescues_marginal_snr() {
        // Find behavior at an SNR where single transmissions mostly
        // fail but two soft-combined transmissions mostly succeed.
        let mut ch = AwgnChannel::new(SimRng::new(6));
        let data = payload(80, 7);
        let e = 1336; // (83*8)=664 info bits, rate ~1/2
        let snr = 1.0;
        let trials = 15;
        let mut single_ok = 0;
        let mut combined_ok = 0;
        for _ in 0..trials {
            let p0 = TbParams {
                modulation: Modulation::Qpsk,
                ..params(e, 0)
            };
            let syms0 = encode_tb(&data, &p0);
            let (rx0, nv0) = ch.apply(&syms0, snr);
            let mut acc = vec![0.0; mother_buffer_len(data.len())];
            let out0 = decode_tb(&mut acc, &rx0, nv0, data.len(), &p0);
            if out0.payload.is_some() {
                single_ok += 1;
            }
            // Retransmission with rv=2 soft-combines into the same acc.
            let p1 = TbParams {
                modulation: Modulation::Qpsk,
                ..params(e, 2)
            };
            let syms1 = encode_tb(&data, &p1);
            let (rx1, nv1) = ch.apply(&syms1, snr);
            let out1 = decode_tb(&mut acc, &rx1, nv1, data.len(), &p1);
            if out1.payload.is_some() {
                combined_ok += 1;
            }
        }
        assert!(
            combined_ok > single_ok,
            "combining must help: single={single_ok} combined={combined_ok}"
        );
        assert!(combined_ok >= trials * 2 / 3, "combined={combined_ok}");
    }

    #[test]
    fn discarded_harq_buffer_loses_combining_gain() {
        // The migration scenario: if the accumulated buffer is thrown
        // away between transmissions, the second decode sees only the
        // second transmission's LLRs.
        let mut ch = AwgnChannel::new(SimRng::new(8));
        let data = payload(80, 9);
        let e = 1336;
        let snr = 1.5; // single transmissions essentially never decode here
        let trials = 10;
        let mut kept_ok = 0;
        let mut discarded_ok = 0;
        for _ in 0..trials {
            let mut acc_kept = vec![0.0; mother_buffer_len(data.len())];
            for (i, rv) in [0u8, 2].iter().enumerate() {
                let p = TbParams {
                    modulation: Modulation::Qpsk,
                    ..params(e, *rv)
                };
                let syms = encode_tb(&data, &p);
                let (rx, nv) = ch.apply(&syms, snr);
                let out = decode_tb(&mut acc_kept, &rx, nv, data.len(), &p);
                if i == 1 && out.payload.is_some() {
                    kept_ok += 1;
                }
            }
            // Discarded: decode second tx alone in a fresh buffer.
            let p = TbParams {
                modulation: Modulation::Qpsk,
                ..params(e, 2)
            };
            let syms = encode_tb(&data, &p);
            let (rx, nv) = ch.apply(&syms, snr);
            let mut acc_fresh = vec![0.0; mother_buffer_len(data.len())];
            let out = decode_tb(&mut acc_fresh, &rx, nv, data.len(), &p);
            if out.payload.is_some() {
                discarded_ok += 1;
            }
        }
        assert!(
            kept_ok > discarded_ok,
            "kept={kept_ok} discarded={discarded_ok}"
        );
    }

    #[test]
    fn job_on_a_thread_whose_workspace_is_taken_is_bit_identical() {
        // A chain call that starts on a thread whose workspace is
        // already borrowed finds it taken, works in an empty one, and
        // must produce the same bits.
        let data = payload(400, 23);
        let p = params(6448, 0);
        let syms = encode_tb(&data, &p);
        let mut ch = AwgnChannel::new(SimRng::new(24));
        let (rx, nv) = ch.apply(&syms, 6.0);
        let mut acc = vec![0.0; mother_buffer_len(data.len())];
        let out = decode_tb(&mut acc, &rx, nv, data.len(), &p);

        let held = WORKSPACE.take();
        assert!(
            held.llr_e.capacity() > 0,
            "the first run used and returned it"
        );
        let syms_taken = encode_tb(&data, &p);
        let mut acc_taken = vec![0.0; mother_buffer_len(data.len())];
        let out_taken = decode_tb(&mut acc_taken, &rx, nv, data.len(), &p);
        WORKSPACE.set(held);

        assert_eq!(syms, syms_taken);
        assert_eq!(acc, acc_taken);
        assert_eq!(out.payload, out_taken.payload);
        assert_eq!(out.ldpc_iterations, out_taken.ldpc_iterations);
        assert_eq!(out.all_parity_ok, out_taken.all_parity_ok);
    }

    /// One received TB of a batching mix: its parameters, the symbols
    /// as received, and the HARQ accumulator before this decode.
    struct Reception {
        payload_bytes: usize,
        p: TbParams,
        rx: Vec<Cplx>,
        nv: f32,
        acc: Vec<f32>,
    }

    /// Receive `payload_bytes` at `snr` dB: the symbols of redundancy
    /// version `rv` (its last `lost` symbols missing, as a short burst),
    /// into a fresh accumulator or — `combine` — one already holding a
    /// failed-or-not rv-0 reception of the same TB.
    #[allow(clippy::too_many_arguments)]
    fn reception(
        ch: &mut AwgnChannel,
        payload_bytes: usize,
        e_bits: usize,
        rv: u8,
        fec_iterations: usize,
        snr: f64,
        lost: usize,
        combine: bool,
    ) -> Reception {
        let data = payload(payload_bytes, payload_bytes as u64);
        let p = TbParams {
            modulation: Modulation::Qpsk,
            rv,
            fec_iterations,
            ..params(e_bits, rv)
        };
        let mut acc = vec![0.0; mother_buffer_len(payload_bytes)];
        if combine {
            let first = TbParams { rv: 0, ..p.clone() };
            let (rx0, nv0) = ch.apply(&encode_tb(&data, &first), snr);
            decode_tb(&mut acc, &rx0, nv0, payload_bytes, &first);
        }
        let (mut rx, nv) = ch.apply(&encode_tb(&data, &p), snr);
        rx.truncate(rx.len() - lost.min(rx.len()));
        Reception {
            payload_bytes,
            p,
            rx,
            nv,
            acc,
        }
    }

    /// Decode `mix` one TB at a time and as one batching call, on
    /// `kernels`; every payload, iteration total, parity verdict and
    /// HARQ accumulator bit must agree. Returns the batch count of the
    /// joint call.
    fn assert_joint_decode_identical(kernels: DspKernels, mix: &[Reception]) -> usize {
        let mut joint: Vec<PreparedTb> = mix
            .iter()
            .map(|r| prepare_tb(&r.acc, &r.rx, r.nv, r.payload_bytes, &r.p))
            .collect();
        let batches = decode_prepared(kernels, &mut joint).len();
        for (i, (r, tb)) in mix.iter().zip(joint).enumerate() {
            let mut acc_alone = r.acc.clone();
            let alone =
                super::decode_tb(kernels, &mut acc_alone, &r.rx, r.nv, r.payload_bytes, &r.p);
            let mut acc_joint = r.acc.clone();
            let together = finish_tb(&mut acc_joint, tb);
            let what = format!("{} TB {i} of {}", kernels.name(), mix.len());
            assert_eq!(alone.payload, together.payload, "{what}: payload");
            assert_eq!(
                alone.ldpc_iterations, together.ldpc_iterations,
                "{what}: iterations"
            );
            assert_eq!(
                alone.all_parity_ok, together.all_parity_ok,
                "{what}: parity"
            );
            let bits = |a: &[f32]| a.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&acc_alone),
                bits(&acc_joint),
                "{what}: HARQ accumulator"
            );
        }
        batches
    }

    #[test]
    fn batching_across_tbs_is_bit_identical_to_one_tb_at_a_time() {
        let mut rng = SimRng::new(31);
        let mut ch = AwgnChannel::new(SimRng::new(32));
        for kernels in [DspKernels::scalar(), DspKernels::detect()] {
            // A later TB's overflow batch opens after an earlier TB's
            // second-k batch: 1 121 bytes segment into [1000, 999 x 8],
            // 997 bytes into [1000 x 8], so the second TB fills the
            // first's k = 1000 batch to eight lanes and opens a third
            // batch after the k = 999 one.
            let mix = [
                reception(&mut ch, 1121, 18_000, 0, 8, 2.0, 0, false),
                reception(&mut ch, 997, 16_000, 2, 8, 2.0, 40, true),
            ];
            assert_eq!(assert_joint_decode_identical(kernels, &mix), 3);
            for _ in 0..4 {
                let tbs = 2 + rng.below(4) as usize;
                let mix: Vec<Reception> = (0..tbs)
                    .map(|_| {
                        // 1..=26 code blocks, runs of k and k+1.
                        let payload_bytes = 8 + rng.below(3_300) as usize;
                        let info = (payload_bytes + 3) * 8;
                        let e_bits = 2 * (info + rng.below(info as u64) as usize);
                        let rv = if rng.chance(0.5) { 0 } else { 2 };
                        let fec = if rng.chance(0.5) { 4 } else { 8 };
                        let snr = 0.5 + rng.below(30) as f64 / 10.0;
                        let lost = if rng.chance(0.3) {
                            1 + rng.below(200) as usize
                        } else {
                            0
                        };
                        reception(
                            &mut ch,
                            payload_bytes,
                            e_bits,
                            rv,
                            fec,
                            snr,
                            lost,
                            rng.chance(0.5),
                        )
                    })
                    .collect();
                assert_joint_decode_identical(kernels, &mix);
            }
        }
    }

    #[test]
    fn wrong_rnti_fails() {
        let data = payload(40, 10);
        let p = params(688, 0);
        let syms = encode_tb(&data, &p);
        let wrong = TbParams { rnti: 0x1234, ..p };
        let mut acc = vec![0.0; mother_buffer_len(data.len())];
        let out = decode_tb(&mut acc, &syms, 0.001, data.len(), &wrong);
        assert!(out.payload.is_none());
    }

    #[test]
    fn repetition_coding_for_small_payloads() {
        // e_bits much larger than the mother codeword: circular repeat.
        let data = payload(16, 11);
        let p = TbParams {
            modulation: Modulation::Qpsk,
            e_bits: 2048,
            rnti: 1,
            cell_id: 1,
            rv: 0,
            fec_iterations: 8,
        };
        let mut ch = AwgnChannel::new(SimRng::new(12));
        let syms = encode_tb(&data, &p);
        let (rx, nv) = ch.apply(&syms, -3.0);
        let mut acc = vec![0.0; mother_buffer_len(data.len())];
        let out = decode_tb(&mut acc, &rx, nv, data.len(), &p);
        assert_eq!(out.payload.as_deref(), Some(&data[..]));
    }
}
