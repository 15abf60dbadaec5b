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
//! [`cached_sequence`] word cache, and jobs borrow their working
//! buffers from the thread they run on ([`WORKSPACE`]), so steady-state
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
use crate::scratch::WORKSPACE;
use slingshot_sim::WorkerPool;

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

/// Per-code-block unit of encode work, prepared serially so jobs are
/// self-contained (owned packed info bits and the block's bit offset
/// into the codeword / scrambling sequence).
struct EncodeBlock {
    k: usize,
    e: usize,
    offset_e: usize,
    bits: BitBuf,
}

/// Encode a transport block, fanning per-code-block work (LDPC encode,
/// rate match, scramble) out across `pool` with working buffers drawn
/// from the thread each job runs on. Bit-identical to the serial path
/// for any worker count: blocks are independent, scrambling offsets are
/// fixed in serial prepare order, and results merge in block order.
///
/// `_kernels` keeps the entry point uniform with the decode chain; the
/// encode path is integer/LUT work with no SIMD variant today, so every
/// backend runs the same code.
pub fn encode_tb_with(
    _kernels: DspKernels,
    pool: &WorkerPool,
    payload: &[u8],
    p: &TbParams,
) -> Vec<Cplx> {
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

    let mut blocks = Vec::with_capacity(ks.len());
    let mut offset = 0;
    let mut offset_e = 0;
    for (&k, &e) in ks.iter().zip(&es) {
        blocks.push(EncodeBlock {
            k,
            e,
            offset_e,
            bits: bits.slice(offset, k),
        });
        offset_e += e;
        offset += k;
    }

    let rv = p.rv;
    let segs = pool.run(
        blocks
            .into_iter()
            .map(|b| {
                let seq = Arc::clone(&seq);
                move || {
                    let (code, order) = code_for(b.k);
                    let mut s = WORKSPACE.take();
                    s.bits_a.clear();
                    code.encode_packed(&b.bits, &mut s.bits_a);
                    // Permute into transmission order: the systematic
                    // prefix is the identity, the parity part is strided
                    // and gathered 64 bits per pushed word.
                    s.bits_b.clear();
                    s.bits_b.append_range(&s.bits_a, 0, b.k);
                    let cw = s.bits_a.words();
                    for idxs in order[b.k..].chunks(64) {
                        let mut word = 0u64;
                        for (j, &idx) in idxs.iter().enumerate() {
                            word |= ((cw[idx as usize >> 6] >> (idx & 63)) & 1) << j;
                        }
                        s.bits_b.push_word(word, idxs.len());
                    }
                    let mut seg = BitBuf::with_capacity(b.e);
                    rate_match_packed(&s.bits_b, b.e, rv, &mut seg);
                    scramble_packed(&mut seg, &seq, b.offset_e);
                    WORKSPACE.set(s);
                    seg
                }
            })
            .collect::<Vec<_>>(),
    );

    let mut tx_bits = BitBuf::with_capacity(p.e_bits);
    for seg in &segs {
        tx_bits.append(seg);
    }
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

/// Per-code-block unit of decode work: the block's symbol window, its
/// bit offset into the codeword / scrambling sequence, and its HARQ
/// accumulator segment (moved out and merged back after the batch).
struct DecodeBlock {
    k: usize,
    e: usize,
    /// Bits of the first symbol in the window that belong to the
    /// previous block (symbol-boundary overlap).
    lead: usize,
    offset_e: usize,
    syms: Vec<Cplx>,
    seg: Vec<f32>,
}

/// What a decode job hands back per code block: the updated HARQ
/// segment, the decoded info bits, iterations spent and the parity
/// verdict.
type DecodedBlock = (Vec<f32>, BitBuf, usize, bool);

/// Decode a transport block, fanning per-batch work (LLR demap,
/// descramble, rate recover per block, then one LDPC batch decode) out
/// across `pool`, with working buffers drawn from the thread the job
/// runs on. A batch is up to
/// [`BATCH_LANES`] *consecutive* blocks of equal `k` — they share one
/// LDPC code, so the SIMD backend decodes them in lockstep — and
/// [`segment_sizes`] yields at most two runs of equal `k`, so batch
/// composition depends only on the TB's size. The HARQ accumulator is
/// split into per-block segments in serial prepare order and merged
/// back in block order, so the result — including every f32 operation —
/// is identical to the serial path for any worker count.
pub fn decode_tb_with(
    kernels: DspKernels,
    pool: &WorkerPool,
    acc: &mut [f32],
    rx_symbols: &[Cplx],
    noise_var: f32,
    payload_bytes: usize,
    p: &TbParams,
) -> TbDecodeOutcome {
    let bps = p.modulation.bits_per_symbol();
    let total_bits = (payload_bytes + 3) * 8;
    let ks = segment_sizes(total_bits);
    let es = e_split(p.e_bits, &ks);
    debug_assert_eq!(acc.len(), ks.iter().map(|k| 3 * k).sum::<usize>());
    let seq = cached_sequence(GoldSequence::c_init_data(p.rnti, p.cell_id), p.e_bits);

    let mut batches: Vec<Vec<DecodeBlock>> = Vec::new();
    let mut llr_off = 0;
    let mut acc_off = 0;
    for (&k, &e) in ks.iter().zip(&es) {
        let n = 3 * k;
        // The block's coded bits [llr_off, llr_off+e) live in symbols
        // [s0, s1); the first symbol may straddle the block boundary.
        let s0 = (llr_off / bps).min(rx_symbols.len());
        let s1 = (llr_off + e).div_ceil(bps).min(rx_symbols.len());
        let block = DecodeBlock {
            k,
            e,
            lead: llr_off - (llr_off / bps) * bps,
            offset_e: llr_off,
            syms: rx_symbols[s0..s1].to_vec(),
            seg: acc[acc_off..acc_off + n].to_vec(),
        };
        match batches.last_mut() {
            Some(batch) if batch[0].k == k && batch.len() < BATCH_LANES => batch.push(block),
            _ => batches.push(vec![block]),
        }
        llr_off += e;
        acc_off += n;
    }

    let rv = p.rv;
    let fec_iterations = p.fec_iterations;
    let modulation = p.modulation;
    let results = pool.run(
        batches
            .into_iter()
            .map(|mut batch| {
                let seq = Arc::clone(&seq);
                move || {
                    let k = batch[0].k;
                    let (code, order) = code_for(k);
                    let mut s = WORKSPACE.take();
                    for b in batch.iter_mut() {
                        kernels.demodulate_llr_into(
                            &b.syms,
                            modulation,
                            noise_var,
                            &mut s.demod_llrs,
                        );
                        // Trim the lead bits belonging to the previous
                        // block and pad missing tail symbols (lost
                        // fronthaul packets) as erasures.
                        let lo = b.lead.min(s.demod_llrs.len());
                        let hi = (b.lead + b.e).min(s.demod_llrs.len());
                        s.llr_e.clear();
                        s.llr_e.extend_from_slice(&s.demod_llrs[lo..hi]);
                        s.llr_e.resize(b.e, 0.0);
                        descramble_llrs_packed(&mut s.llr_e, &seq, b.offset_e);
                        // The HARQ accumulator lives in transmission
                        // (interleaved) order; the decoder reads it
                        // through the interleave, straight into its
                        // posteriors.
                        rate_recover(&mut b.seg, &s.llr_e, rv);
                    }
                    let mut segs: [&[f32]; BATCH_LANES] = [&[]; BATCH_LANES];
                    for (view, b) in segs.iter_mut().zip(&batch) {
                        *view = &b.seg;
                    }
                    s.out.resize_with(BATCH_LANES, Default::default);
                    let ldpc_start = std::time::Instant::now();
                    kernels.ldpc_decode_batch_into(
                        &code,
                        &order,
                        &segs[..batch.len()],
                        fec_iterations,
                        &mut s.ldpc,
                        &mut s.out[..batch.len()],
                    );
                    let ldpc_ns = ldpc_start.elapsed().as_nanos() as u64;
                    let decoded: Vec<DecodedBlock> = batch
                        .into_iter()
                        .zip(&s.out)
                        .map(|(b, o)| (b.seg, o.hard.slice(0, k), o.iterations, o.parity_ok))
                        .collect();
                    WORKSPACE.set(s);
                    (decoded, ldpc_ns)
                }
            })
            .collect::<Vec<_>>(),
    );

    let mut info_bits = BitBuf::with_capacity(total_bits);
    let mut iterations = 0;
    let mut all_parity_ok = true;
    let mut ldpc_ns = 0u64;
    let mut acc_off = 0;
    for (decoded, batch_ldpc_ns) in results {
        for (seg, info, iters, parity_ok) in decoded {
            acc[acc_off..acc_off + seg.len()].copy_from_slice(&seg);
            acc_off += seg.len();
            info_bits.append(&info);
            iterations += iters;
            all_parity_ok &= parity_ok;
        }
        ldpc_ns += batch_ldpc_ns;
    }
    let bytes = info_bits.to_bytes_msb();
    let payload = check_crc24a(&bytes).map(|p| p.to_vec());
    TbDecodeOutcome {
        payload,
        ldpc_iterations: iterations,
        all_parity_ok,
        ldpc_ns,
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
    fn parallel_encode_decode_bit_identical_to_serial() {
        // Multi-block TB with noise and a truncated (lost-tail) symbol
        // vector: the 4-worker path must match the serial path exactly,
        // down to every f32 in the HARQ accumulator.
        let pool = WorkerPool::with_threads(4);
        let data = payload(400, 21); // 4 code blocks
        let p = params(6448, 0);
        let serial_syms = encode_tb(&data, &p);
        let par_syms = encode_tb_with(DspKernels::detect(), &pool, &data, &p);
        assert_eq!(serial_syms, par_syms);

        let mut ch = AwgnChannel::new(SimRng::new(22));
        let (mut rx, nv) = ch.apply(&serial_syms, 6.0);
        rx.truncate(rx.len() - 100); // lost fronthaul tail → erasures
        let mut acc_serial = vec![0.0; mother_buffer_len(data.len())];
        let mut acc_par = acc_serial.clone();
        let out_serial = decode_tb(&mut acc_serial, &rx, nv, data.len(), &p);
        let out_par = decode_tb_with(
            DspKernels::detect(),
            &pool,
            &mut acc_par,
            &rx,
            nv,
            data.len(),
            &p,
        );
        assert_eq!(acc_serial, acc_par);
        assert_eq!(out_serial.payload, out_par.payload);
        assert_eq!(out_serial.ldpc_iterations, out_par.ldpc_iterations);
        assert_eq!(out_serial.all_parity_ok, out_par.all_parity_ok);
    }

    #[test]
    fn job_on_a_thread_whose_workspace_is_taken_is_bit_identical() {
        // A thread blocked in `WorkerPool::run` helps drain the queue,
        // so a job can start on a thread that is already inside another
        // job's borrow: it finds the workspace taken, works in an empty
        // one, and must produce the same bits.
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
