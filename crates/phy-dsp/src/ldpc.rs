//! LDPC coding with iterative min-sum decoding.
//!
//! The code is a systematic "staircase" (IRA-style) LDPC: information
//! columns have weight 3 and connect to randomly chosen check rows (a
//! deterministic construction so all nodes use the same code), and the
//! parity part of H is lower-bidiagonal, which gives linear-time
//! encoding by forward substitution — the same structural trick as the
//! dual-diagonal parity parts of the 5G/802.11 QC-LDPC codes.
//!
//! The decoder is normalized min-sum with early termination. Its
//! iteration count is the "FEC iterations" knob that the paper's live
//! upgrade experiment (§8.3, Fig. 11) turns: the upgraded PHY runs more
//! iterations and therefore decodes at lower SNR.
//!
//! The Tanner-graph edge list is stored flattened (CSR) and built once
//! at construction — the decoder previously rebuilt it on every call;
//! a row's information columns are the head of its edge run. Decoding
//! works entirely in an [`LdpcScratch`] so steady-state decodes
//! allocate nothing; edge order is identical to the original per-call
//! build, so every min-sum message (and thus every decode) is
//! bit-identical.
//!
//! [`LdpcCode::encode`] (one byte per bit, row by row) is the encoder's
//! reference. [`LdpcCode::encode_packed`] is the one the chain runs: it
//! scatters each set information bit into its three rows of a packed
//! syndrome (from the per-column rows the construction draws) and
//! solves the staircase a word at a time with a prefix XOR, instead of
//! one row lookup and one bit push per parity bit.
//!
//! [`LdpcCode::decode_into`] is the one scalar decoder and the oracle.
//! [`LdpcCode::decode_batch_into`] decodes up to [`BATCH_LANES`] blocks
//! *of the same code*, read in transmission order through the
//! interleave, and is defined as that decoder run once per block; its
//! AVX2 arm ([`avx2`], reached through
//! `DspKernels::ldpc_decode_batch_into`) runs the blocks in lockstep,
//! one block per f32 lane. Every block of a batch shares this code's
//! Tanner graph, so the row sweep walks the edge list once and each
//! posterior / message is one contiguous 8-float vector — no gathers —
//! and each lane computes exactly what [`row_sweep_scalar`] computes,
//! in its order, so a lane's result is bit-identical to `decode_into`
//! on that block alone (DESIGN.md §5h). Its per-iteration parity check
//! is the encoder's column scatter run on posterior sign bytes: one
//! exact syndrome for all eight lanes, where `decode_into` walks the
//! rows of its one block.

use crate::bits::BitBuf;
use slingshot_sim::SimRng;

/// Mother code rate: 1/3 (m = 2k parity bits). Higher rates come from
/// puncturing in the rate matcher; lower from repetition.
pub(crate) const PARITY_FACTOR: usize = 2;

/// Normalization factor for min-sum check updates (standard 0.75).
const MIN_SUM_NORM: f32 = 0.75;

/// Most blocks one [`LdpcCode::decode_batch_into`] call takes: the f32
/// lanes of a 256-bit vector, one code block per lane.
pub const BATCH_LANES: usize = 8;

/// One value per block of a lockstep batch (lane `b` belongs to block
/// `b`), aligned so a vector load never straddles a cache line.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(32))]
struct Lanes([f32; BATCH_LANES]);

/// A constructed LDPC code for a fixed information length `k`.
#[derive(Debug, Clone)]
pub struct LdpcCode {
    k: usize,
    m: usize,
    /// The three check rows of each information column, in draw order:
    /// the encoder's column scatter, and the lockstep decoder's parity
    /// check.
    col_rows: Vec<[u32; 3]>,
    /// CSR over the full Tanner graph: variables on row `i`'s edges are
    /// `edge_var[row_start[i]..row_start[i+1]]` — info columns first,
    /// then parity k+i, then k+i-1 for i > 0.
    row_start: Vec<u32>,
    edge_var: Vec<u32>,
}

/// Reusable decoder working set: check-to-variable messages, posterior
/// LLRs and hard decisions. Sized on first use per code dimension and
/// reused across decodes (the transport-block chain keeps one per
/// thread).
///
/// The per-edge message arrays are deliberate: a compressed per-row
/// representation (`(p1, p2, min_idx)` + packed sign bits — min-sum
/// only ever emits two magnitudes per row) reconstructs every message
/// bit-exactly while halving the streamed working set, but measured
/// consistently *slower* here even at transport-block sizes — the
/// decoder is gather-latency- and compute-bound, not bandwidth-bound,
/// and the per-edge decompress/recompress costs more than the traffic
/// it saves.
#[derive(Debug, Clone, Default)]
pub struct LdpcScratch {
    pub c2v: Vec<f32>,
    /// Per-edge variable-to-check messages of the current row pass,
    /// cached in the first sweep so the update sweep reads contiguously
    /// instead of re-deriving them from the (randomly indexed) totals.
    pub v2c: Vec<f32>,
    pub total: Vec<f32>,
    pub hard: Vec<u8>,
    /// The lockstep batch decoder's check-to-variable messages (per
    /// edge) and posteriors (per variable), lane-interleaved, the
    /// posterior sign of each variable in each lane (bit `b` of byte
    /// `v`), and each check row's syndrome in each lane (bit `b` of byte
    /// `i`). Empty until the first multi-block batch on the AVX2
    /// backend; never zeroed after that (every decode writes each entry
    /// before it reads it).
    #[cfg(target_arch = "x86_64")]
    lane_c2v: Vec<Lanes>,
    #[cfg(target_arch = "x86_64")]
    lane_total: Vec<Lanes>,
    #[cfg(target_arch = "x86_64")]
    signs: Vec<u8>,
    #[cfg(target_arch = "x86_64")]
    syndrome: Vec<u8>,
}

/// One block's result from [`LdpcCode::decode_batch_into`]: what
/// [`LdpcCode::decode_into`] returns, plus the hard-decision word it
/// leaves in [`LdpcScratch::hard`], packed (`[..k]` info bits, `[k..n]`
/// parity decisions).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LdpcBlockOut {
    pub parity_ok: bool,
    pub iterations: usize,
    pub hard: BitBuf,
}

impl LdpcCode {
    /// Construct the code for information length `k` (bits). The
    /// construction is deterministic: every encoder and decoder in the
    /// system builds exactly the same matrix.
    pub fn new(k: usize) -> LdpcCode {
        assert!(k >= 8, "ldpc blocks shorter than 8 bits are not useful");
        let m = PARITY_FACTOR * k;
        let mut rng = SimRng::new(0x51AC_C0DE ^ (k as u64));
        let mut row_info: Vec<Vec<u32>> = vec![Vec::new(); m];
        let mut col_rows = Vec::with_capacity(k);
        for col in 0..k {
            // Column weight 3, distinct rows.
            let mut rows = [0u32; 3];
            let mut chosen = 0;
            while chosen < 3 {
                let r = rng.below(m as u64) as u32;
                if !rows[..chosen].contains(&r) {
                    rows[chosen] = r;
                    chosen += 1;
                }
            }
            for r in rows {
                row_info[r as usize].push(col as u32);
            }
            col_rows.push(rows);
        }
        // Lay out the decoder's edge list once (info edges, then parity
        // k+i, then k+i-1 when i > 0 — the exact order the decoder used
        // to rebuild per call).
        let mut row_start = Vec::with_capacity(m + 1);
        let mut edge_var = Vec::with_capacity(3 * k + 2 * m);
        for (i, row) in row_info.iter().enumerate() {
            row_start.push(edge_var.len() as u32);
            edge_var.extend_from_slice(row);
            edge_var.push((k + i) as u32);
            if i > 0 {
                edge_var.push((k + i - 1) as u32);
            }
        }
        row_start.push(edge_var.len() as u32);
        LdpcCode {
            k,
            m,
            col_rows,
            row_start,
            edge_var,
        }
    }

    pub fn k(&self) -> usize {
        self.k
    }

    pub fn m(&self) -> usize {
        self.m
    }

    /// Codeword length n = k + m.
    pub fn n(&self) -> usize {
        self.k + self.m
    }

    /// Information columns of check row `i`: the head of its edge run,
    /// before parity k+i (and k+i-1 when i > 0).
    #[inline]
    fn info_row(&self, i: usize) -> &[u32] {
        let parity_edges = 1 + (i > 0) as usize;
        &self.edge_var[self.row_start[i] as usize..self.row_start[i + 1] as usize - parity_edges]
    }

    /// Encode systematically: output is `info ‖ parity`.
    pub fn encode(&self, info: &[u8]) -> Vec<u8> {
        assert_eq!(info.len(), self.k, "info length mismatch");
        let mut out = Vec::with_capacity(self.n());
        out.extend_from_slice(info);
        let mut prev = 0u8;
        for i in 0..self.m {
            let mut acc = prev;
            for &col in self.info_row(i) {
                acc ^= info[col as usize];
            }
            out.push(acc);
            prev = acc;
        }
        out
    }

    /// Encode a packed information block, appending `info ‖ parity` to
    /// `out`. Bit-identical to [`LdpcCode::encode`], a word at a time:
    /// each set info bit flips its three rows of a packed row syndrome
    /// `s`, and the staircase `p_i = p_{i-1} ^ s_i` is then a prefix
    /// XOR within each 64-bit word plus a carry between words.
    pub fn encode_packed(&self, info: &BitBuf, out: &mut BitBuf) {
        assert_eq!(info.len(), self.k, "info length mismatch");
        out.append(info);
        let mut syndrome = vec![0u64; self.m.div_ceil(64)];
        for (w, &word) in info.words().iter().enumerate() {
            // Bits past `len` are zero (`BitBuf` invariant), so every
            // set bit is a column < k.
            let mut rest = word;
            while rest != 0 {
                let col = w * 64 + rest.trailing_zeros() as usize;
                for r in self.col_rows[col] {
                    syndrome[r as usize >> 6] ^= 1 << (r & 63);
                }
                rest &= rest - 1;
            }
        }
        // All ones when the previous word's last parity bit is set.
        let mut carry = 0u64;
        for (w, &s) in syndrome.iter().enumerate() {
            let mut p = s;
            p ^= p << 1;
            p ^= p << 2;
            p ^= p << 4;
            p ^= p << 8;
            p ^= p << 16;
            p ^= p << 32;
            p ^= carry;
            carry = (p >> 63).wrapping_neg();
            out.push_word(p, (self.m - 64 * w).min(64));
        }
    }

    /// Check whether a hard-decision word satisfies all parity checks.
    pub fn parity_ok(&self, word: &[u8]) -> bool {
        debug_assert_eq!(word.len(), self.n());
        let mut prev = 0u8;
        for i in 0..self.m {
            let cur = word[self.k + i];
            let mut acc = prev ^ cur;
            for &col in self.info_row(i) {
                acc ^= word[col as usize];
            }
            if acc != 0 {
                return false;
            }
            prev = cur;
        }
        true
    }

    /// [`LdpcCode::parity_ok`] evaluated directly on posterior LLR
    /// signs — exactly the parity check of the implied hard decisions
    /// (`llr < 0`), without materializing the hard-decision word. The
    /// decoder calls this once per iteration; the hard word itself is
    /// only built when the decode loop exits.
    fn parity_ok_totals(&self, total: &[f32]) -> bool {
        debug_assert_eq!(total.len(), self.n());
        let mut prev = 0u8;
        for i in 0..self.m {
            let cur = (total[self.k + i] < 0.0) as u8;
            let mut acc = prev ^ cur;
            for &col in self.info_row(i) {
                // SAFETY: construction stores only column indices < k,
                // and the decoder sizes `total` to n > k (asserted on
                // entry against the channel LLR length).
                acc ^= (unsafe { *total.get_unchecked(col as usize) } < 0.0) as u8;
            }
            if acc != 0 {
                return false;
            }
            prev = cur;
        }
        true
    }

    /// Decode from channel LLRs into caller scratch. Runs normalized
    /// min-sum for up to `max_iters` iterations with early termination.
    /// On return `scratch.hard[..k]` holds the decoded info bits (and
    /// `[k..n]` the parity decisions); returns (all parity checks
    /// satisfied, iterations executed).
    pub fn decode_into(
        &self,
        channel_llrs: &[f32],
        max_iters: usize,
        scratch: &mut LdpcScratch,
    ) -> (bool, usize) {
        assert_eq!(channel_llrs.len(), self.n(), "llr length mismatch");
        // Posterior (total) LLR per variable.
        scratch.total.clear();
        scratch.total.extend_from_slice(channel_llrs);
        let result = self.decode_totals(max_iters, scratch);
        harden(&scratch.total, &mut scratch.hard);
        result
    }

    /// The min-sum loop of [`LdpcCode::decode_into`], starting from the
    /// channel LLRs already in `scratch.total` and leaving the final
    /// posteriors there.
    fn decode_totals(&self, max_iters: usize, scratch: &mut LdpcScratch) -> (bool, usize) {
        let edge_count = *self.row_start.last().unwrap() as usize;
        // Check-to-variable messages, initialized to zero.
        scratch.c2v.clear();
        scratch.c2v.resize(edge_count, 0.0);
        // No zero-fill: each row sweep writes its `v2c` entries in the
        // first pass before the second reads them.
        scratch.v2c.resize(edge_count, 0.0);

        if self.parity_ok_totals(&scratch.total) {
            return (true, 0);
        }
        for it in 1..=max_iters {
            for row in 0..self.m {
                let (s, e) = (
                    self.row_start[row] as usize,
                    self.row_start[row + 1] as usize,
                );
                row_sweep_scalar(
                    &self.edge_var[s..e],
                    &mut scratch.c2v[s..e],
                    &mut scratch.v2c[s..e],
                    &mut scratch.total,
                );
            }
            if self.parity_ok_totals(&scratch.total) {
                return (true, it);
            }
        }
        (false, max_iters)
    }

    /// Decode up to [`BATCH_LANES`] blocks of this code, each given in
    /// transmission order: `order` is a permutation of `0..n`, and block
    /// `b`'s codeword LLR `order[p]` is `segs[b][p]`. `out[b]` gets
    /// exactly what [`LdpcCode::decode_into`] yields for that codeword.
    /// This is the definition — per block, the scatter straight into the
    /// posteriors, then `decode_into`'s loop; the lockstep arm in
    /// [`avx2`] must match it bit for bit.
    pub(crate) fn decode_batch_into(
        &self,
        order: &[u32],
        segs: &[&[f32]],
        max_iters: usize,
        scratch: &mut LdpcScratch,
        out: &mut [LdpcBlockOut],
    ) {
        assert!(segs.len() <= BATCH_LANES, "batch wider than the lanes");
        assert_eq!(out.len(), segs.len(), "one result slot per block");
        assert_eq!(order.len(), self.n(), "interleave length mismatch");
        for (seg, o) in segs.iter().zip(out.iter_mut()) {
            assert_eq!(seg.len(), self.n(), "llr length mismatch");
            // No clear: the permutation writes every posterior.
            scratch.total.resize(self.n(), 0.0);
            for (&l, &v) in seg.iter().zip(order) {
                scratch.total[v as usize] = l;
            }
            (o.parity_ok, o.iterations) = self.decode_totals(max_iters, scratch);
            o.hard.clear();
            for chunk in scratch.total.chunks(64) {
                let word = chunk
                    .iter()
                    .enumerate()
                    .fold(0u64, |w, (j, l)| w | ((*l < 0.0) as u64) << j);
                o.hard.push_word(word, chunk.len());
            }
        }
    }

    /// Decode from channel LLRs (allocating convenience wrapper around
    /// [`LdpcCode::decode_into`]).
    pub fn decode(&self, channel_llrs: &[f32], max_iters: usize) -> LdpcDecodeResult {
        let mut scratch = LdpcScratch::default();
        let (parity_ok, iterations) = self.decode_into(channel_llrs, max_iters, &mut scratch);
        LdpcDecodeResult {
            info: scratch.hard[..self.k].to_vec(),
            parity_ok,
            iterations,
        }
    }
}

/// Rebuild the hard-decision word from the posterior LLR signs — the
/// decoder calls this only when the decode loop exits, not per
/// iteration (the per-iteration parity check reads signs directly via
/// [`LdpcCode::parity_ok_totals`]).
fn harden(total: &[f32], hard: &mut Vec<u8>) {
    hard.clear();
    hard.extend(total.iter().map(|l| (*l < 0.0) as u8));
}

/// One check-row min-sum sweep (both passes) of
/// [`LdpcCode::decode_into`].
///
/// `vars` are the row's variable indices; `c2v` and `vc` are this row's
/// slices of the per-edge message buffers.
#[inline]
fn row_sweep_scalar(vars: &[u32], c2v: &mut [f32], vc: &mut [f32], total: &mut [f32]) {
    debug_assert!(vars.iter().all(|&v| (v as usize) < total.len()));
    // Variable-to-check messages: total minus this edge's c2v.
    // Compute min and second-min of |v2c| and the sign parity.
    // The messages are cached in `vc` so the update sweep only
    // touches `total` once per edge.
    let mut neg_parity = 0u32;
    let mut min1 = f32::INFINITY;
    let mut min2 = f32::INFINITY;
    let mut min_idx = 0usize;
    for (j, ((&v, &msg), vcj)) in vars.iter().zip(c2v.iter()).zip(vc.iter_mut()).enumerate() {
        // SAFETY: edge variable indices are < n by construction
        // (debug-asserted above); `total` has length n in the caller.
        let v2c = unsafe { *total.get_unchecked(v as usize) } - msg;
        *vcj = v2c;
        let a = v2c.abs();
        neg_parity ^= (v2c < 0.0) as u32;
        // Branchless two-smallest update (selects compile
        // to cmov/minss): identical results to the
        // `if a < min1 { .. } else if a < min2 { .. }`
        // chain, including NaN handling (comparisons with
        // NaN are false, leaving all three untouched).
        let smaller = a < min1;
        let demoted = if smaller { min1 } else { a };
        min1 = if smaller { a } else { min1 };
        min_idx = if smaller { j } else { min_idx };
        min2 = if demoted < min2 { demoted } else { min2 };
    }
    // Update c2v and totals. `MIN_SUM_NORM * s_edge * mag` with
    // s_edge = ±1 is exactly ±(MIN_SUM_NORM * mag), so the
    // normalized magnitudes are computed once per row and only
    // the sign is applied per edge.
    let p1 = MIN_SUM_NORM * min1;
    let p2 = MIN_SUM_NORM * min2;
    for (j, ((&v, msg), &v2c)) in vars.iter().zip(c2v.iter_mut()).zip(vc.iter()).enumerate() {
        let mag = if j == min_idx { p2 } else { p1 };
        // Sign application via sign-bit XOR — bit-identical to the
        // branchy `±mag` select (mag is +INF when every |v2c| fold
        // failed, never NaN).
        let sign = (neg_parity ^ ((v2c < 0.0) as u32)) << 31;
        let new_c2v = f32::from_bits(mag.to_bits() ^ sign);
        // SAFETY: same index invariant as the first pass.
        unsafe { *total.get_unchecked_mut(v as usize) = v2c + new_c2v };
        *msg = new_c2v;
    }
}

/// AVX2 lockstep batch decoder: up to eight blocks of one code, one
/// block per f32 lane, bit-identical per lane to
/// [`LdpcCode::decode_into`].
///
/// Posteriors and check-to-variable messages are lane-interleaved
/// ([`Lanes`] per variable / per edge), so the row sweep reads the
/// shared edge list once and every access is one aligned 256-bit load.
/// Each lane computes what the scalar sweep computes, in its order:
///
/// - `v2c < 0.0` is `_CMP_LT_OQ` (false on NaN and on `-0.0`), never
///   the raw sign bit; the sign is applied by XOR into the sign bit and
///   `0.75 * min` is one `mul_ps` — no FMA.
/// - The two-smallest fold is `max_ps` / `min_ps` with the operands in
///   the order that *is* the scalar select: x86 defines
///   `min_ps(x, y) = if x < y { x } else { y }` and
///   `max_ps(x, y) = if x > y { x } else { y }` (second operand on NaN
///   or equality), so `min_ps(a, min1)`, `max_ps(min1, a)` and
///   `min_ps(demoted, min2)` are `row_sweep_scalar`'s three selects bit
///   for bit — NaN never enters a minimum, as in scalar. (Swapping
///   either operand pair fails `kernel_equiv`.) As compare + `blendv`
///   the same fold measured 43 µs per block against 32 µs.
/// - The scalar sweep gives edge `min_idx` the second minimum and the
///   rest the first. Here the edge is found by `|v2c| == min1` instead
///   of carrying an index: if the minimum is unique that is the same
///   edge, and if it is tied (or no edge ever compared below the
///   initial `+INF`) then `min2 == min1` and both magnitudes are the
///   same bits, so the choice cannot show.
/// - The variable-to-check message is recomputed in the update pass
///   (`total - c2v`; a row's variables are distinct, so neither operand
///   has changed since the first pass) instead of being cached per
///   edge: the loads are contiguous here, there is no gather to save.
///
/// A lane *retires* at the iteration its parity check first passes
/// (iteration 0 included): its hard bits and iteration count are
/// snapshotted into `out` then, exactly where `decode_into` returns.
/// Retired lanes keep computing — their values are never read again —
/// and the batch stops when no lane is live or at `max_iters`. Unused
/// lanes repeat block 0 and are never live.
///
/// Input and output stay in lane layout: the tx-order segments are read
/// in step, eight lanes per position, and stored through the interleave
/// straight into the posteriors (no de-interleaved copy, no transpose,
/// no zero fill), and the hard decisions leave packed from the sign
/// bytes the parity pass writes.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use super::{Lanes, LdpcBlockOut, LdpcCode, LdpcScratch, BATCH_LANES, MIN_SUM_NORM};
    use std::arch::x86_64::*;

    /// # Safety
    /// Requires AVX2 (caller checks `is_x86_feature_detected!`).
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn decode_batch_into(
        code: &LdpcCode,
        order: &[u32],
        segs: &[&[f32]],
        max_iters: usize,
        scratch: &mut LdpcScratch,
        out: &mut [LdpcBlockOut],
    ) {
        assert!(segs.len() <= BATCH_LANES, "batch wider than the lanes");
        assert_eq!(out.len(), segs.len(), "one result slot per block");
        let n = code.n();
        assert_eq!(order.len(), n, "interleave length mismatch");
        for seg in segs {
            assert_eq!(seg.len(), n, "llr length mismatch");
        }
        let edge_count = *code.row_start.last().unwrap() as usize;

        // No zero-fill: the first sweep writes every message before any
        // read (each edge is on one row), the permutation writes every
        // posterior, and each parity pass every sign byte and every
        // syndrome byte. `signs` is padded to whole 64-bit hard-decision
        // words.
        scratch.lane_c2v.resize(edge_count, Lanes::default());
        scratch.lane_total.resize(n, Lanes::default());
        scratch.signs.resize(n.next_multiple_of(64), 0);
        scratch.syndrome.resize(code.m, 0);
        let (c2v, total, signs, syndrome) = (
            &mut scratch.lane_c2v[..],
            &mut scratch.lane_total[..],
            &mut scratch.signs[..],
            &mut scratch.syndrome[..code.m],
        );
        // Read the tx-order segments in step and store each position's
        // eight lanes at its codeword index: one line written per
        // position, where gathering by codeword index would touch eight.
        // Unused lanes repeat block 0: never live, never read back.
        let mut lanes = [segs[0]; BATCH_LANES];
        lanes[..segs.len()].copy_from_slice(segs);
        for (p, &v) in order.iter().enumerate() {
            let [s0, s1, s2, s3, s4, s5, s6, s7] = lanes.map(|seg| seg[p]);
            store(
                &mut total[v as usize],
                _mm256_setr_ps(s0, s1, s2, s3, s4, s5, s6, s7),
            );
        }

        // Bit `b` set: block `b` has not passed parity yet.
        let mut live = (1u32 << segs.len()) - 1;
        let passed = live & parity_pass_mask(code, total, signs, syndrome);
        retire(passed, true, 0, signs, n, out);
        live &= !passed;
        for it in 1..=max_iters {
            if live == 0 {
                break;
            }
            if it == 1 {
                sweep::<true>(code, c2v, total);
            } else {
                sweep::<false>(code, c2v, total);
            }
            let passed = live & parity_pass_mask(code, total, signs, syndrome);
            retire(passed, true, it, signs, n, out);
            live &= !passed;
        }
        // Lanes still live ran out of iterations: `decode_into`'s
        // `(false, max_iters)` exit. `signs` is from the last pass.
        retire(live, false, max_iters, signs, n, out);
    }

    /// Snapshot the lanes in `lanes` into `out`: verdict, iteration
    /// count, and the `n` hard decisions, packed 32 at a time from the
    /// sign bytes (shift lane `b`'s bit to each byte's top, `movemask`).
    #[target_feature(enable = "avx2")]
    fn retire(
        lanes: u32,
        parity_ok: bool,
        iterations: usize,
        signs: &[u8],
        n: usize,
        out: &mut [LdpcBlockOut],
    ) {
        for (lane, o) in out.iter_mut().enumerate() {
            if lanes & (1 << lane) == 0 {
                continue;
            }
            o.parity_ok = parity_ok;
            o.iterations = iterations;
            o.hard.clear();
            let to_top = _mm_cvtsi32_si128(7 - lane as i32);
            let half = |bytes: &[u8]| {
                // SAFETY: `bytes` is 32 bytes (a half of a 64-byte chunk).
                let v = unsafe { _mm256_loadu_si256(bytes.as_ptr().cast()) };
                _mm256_movemask_epi8(_mm256_sll_epi16(v, to_top)) as u32 as u64
            };
            for (w, chunk) in signs.chunks_exact(64).enumerate() {
                let word = half(&chunk[..32]) | half(&chunk[32..]) << 32;
                o.hard.push_word(word, (n - 64 * w).min(64));
            }
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn load(l: &Lanes) -> __m256 {
        // SAFETY: a `&Lanes` is eight f32 at 32-byte alignment
        // (`repr(C, align(32))`) — a valid aligned 256-bit read.
        unsafe { _mm256_load_ps(l.0.as_ptr()) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn store(l: &mut Lanes, v: __m256) {
        // SAFETY: as `load`; `&mut` makes the write exclusive.
        unsafe { _mm256_store_ps(l.0.as_mut_ptr(), v) }
    }

    /// One min-sum iteration over every check row, in row order. Row
    /// `i`'s staircase edges, parity `k+i` and then `k+i-1` (`i > 0`),
    /// are the last of its edge run and are addressed by position: only
    /// the information columns are read from the edge list.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn sweep<const FIRST: bool>(code: &LdpcCode, c2v: &mut [Lanes], total: &mut [Lanes]) {
        let (info_total, parity) = total.split_at_mut(code.k);
        let edges = |row: usize| code.row_start[row] as usize..code.row_start[row + 1] as usize;
        let r = edges(0);
        let Some((info_msgs, [cur_msg])) = c2v[r.clone()].split_last_chunk_mut() else {
            unreachable!("row 0 ends in parity k");
        };
        let info = &code.edge_var[r.start..r.end - 1];
        row_sweep::<FIRST, 1>(info, info_msgs, info_total, [(&mut parity[0], cur_msg)]);
        for row in 1..code.m {
            let r = edges(row);
            let Some((info_msgs, [cur_msg, prev_msg])) = c2v[r.clone()].split_last_chunk_mut()
            else {
                unreachable!("row i > 0 ends in parity k+i, k+i-1");
            };
            let [prev, cur] = &mut parity[row - 1..row + 1] else {
                unreachable!("a two-element range");
            };
            let info = &code.edge_var[r.start..r.end - 2];
            let stair = [(cur, cur_msg), (prev, prev_msg)];
            row_sweep::<FIRST, 2>(info, info_msgs, info_total, stair);
        }
    }

    /// One check-row sweep for all eight lanes: `row_sweep_scalar` with
    /// every scalar a vector, over the row's information edges (`info`
    /// into `info_total`, messages `info_msgs`) and then its `P`
    /// staircase edges (posterior, message) in edge order. `FIRST` is
    /// the first iteration's sweep, where `decode_into`'s messages are
    /// still its zero fill: it subtracts a `+0.0` register instead of
    /// loading the (stale) message, and the store then initialises it.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn row_sweep<const FIRST: bool, const P: usize>(
        info: &[u32],
        info_msgs: &mut [Lanes],
        info_total: &mut [Lanes],
        stair: [(&mut Lanes, &mut Lanes); P],
    ) {
        let zero = _mm256_setzero_ps();
        let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
        let sign_bit = _mm256_castsi256_ps(_mm256_set1_epi32(i32::MIN));
        let message = |msg: &Lanes| if FIRST { zero } else { load(msg) };

        let mut neg_parity = zero; // all-ones lanes where the parity is odd
        let mut min1 = _mm256_set1_ps(f32::INFINITY);
        let mut min2 = min1;
        let mut fold = |v2c: __m256| {
            let a = _mm256_and_ps(v2c, abs_mask);
            neg_parity = _mm256_xor_ps(neg_parity, _mm256_cmp_ps::<_CMP_LT_OQ>(v2c, zero));
            let demoted = _mm256_max_ps(min1, a);
            min1 = _mm256_min_ps(a, min1);
            min2 = _mm256_min_ps(demoted, min2);
        };
        for (&v, msg) in info.iter().zip(info_msgs.iter()) {
            fold(_mm256_sub_ps(load(&info_total[v as usize]), message(msg)));
        }
        for (t, msg) in &stair {
            fold(_mm256_sub_ps(load(t), message(msg)));
        }
        // The row's sign parity goes into both magnitudes once, so an
        // edge's message is its magnitude XOR its own sign: the same
        // bits as `mag ^ (neg_parity ^ neg)`.
        let norm = _mm256_set1_ps(MIN_SUM_NORM);
        let row_sign = _mm256_and_ps(neg_parity, sign_bit);
        let p1 = _mm256_xor_ps(_mm256_mul_ps(norm, min1), row_sign);
        let p2 = _mm256_xor_ps(_mm256_mul_ps(norm, min2), row_sign);
        let update = |t: &mut Lanes, msg: &mut Lanes| {
            let v2c = _mm256_sub_ps(load(t), message(msg));
            let is_min = _mm256_cmp_ps::<_CMP_EQ_OQ>(_mm256_and_ps(v2c, abs_mask), min1);
            let neg = _mm256_cmp_ps::<_CMP_LT_OQ>(v2c, zero);
            let new_c2v = _mm256_xor_ps(
                _mm256_blendv_ps(p1, p2, is_min),
                _mm256_and_ps(neg, sign_bit),
            );
            store(t, _mm256_add_ps(v2c, new_c2v));
            store(msg, new_c2v);
        };
        for (&v, msg) in info.iter().zip(info_msgs.iter_mut()) {
            update(&mut info_total[v as usize], msg);
        }
        for (t, msg) in stair {
            update(t, msg);
        }
    }

    /// Bit `b` set: lane `b`'s posterior signs satisfy every parity
    /// check ([`LdpcCode::parity_ok_totals`] per lane), exact for all
    /// eight lanes. First writes every variable's sign byte (`total <
    /// 0.0` per lane, one `movemask`), then each row's syndrome byte:
    /// the staircase term `sign[k+i] ^ sign[k+i-1]` (`sign[k]` for row
    /// 0), then each information column's sign byte XORed into its three
    /// rows through `col_rows`, the encoder's scatter; then an OR over
    /// the rows. No row walk and no early exit: a pass costs the same
    /// whichever lanes fail, and no loop's length depends on a row's
    /// degree.
    #[target_feature(enable = "avx2")]
    fn parity_pass_mask(
        code: &LdpcCode,
        total: &[Lanes],
        signs: &mut [u8],
        syndrome: &mut [u8],
    ) -> u32 {
        let zero = _mm256_setzero_ps();
        for (s, t) in signs.iter_mut().zip(total) {
            *s = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(load(t), zero)) as u8;
        }
        let parity = &signs[code.k..code.n()];
        syndrome[0] = parity[0];
        for ((syn, &cur), &prev) in syndrome[1..].iter_mut().zip(&parity[1..]).zip(parity) {
            *syn = cur ^ prev;
        }
        for (&sign, rows) in signs.iter().zip(&code.col_rows) {
            for &r in rows {
                syndrome[r as usize] ^= sign;
            }
        }
        !syndrome.iter().fold(0u8, |failed, &syn| failed | syn) as u32
    }
}

/// Result of an LDPC decode attempt.
#[derive(Debug, Clone)]
pub struct LdpcDecodeResult {
    pub info: Vec<u8>,
    /// All parity checks satisfied (necessary but not sufficient for
    /// correctness — the CRC above this layer is authoritative).
    pub parity_ok: bool,
    pub iterations: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_bits(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = SimRng::new(seed);
        (0..n).map(|_| (rng.next_u64() & 1) as u8).collect()
    }

    fn bits_to_llrs(bits: &[u8], amp: f32) -> Vec<f32> {
        bits.iter()
            .map(|b| if *b == 0 { amp } else { -amp })
            .collect()
    }

    fn add_noise(llrs: &mut [f32], snr_db: f32, seed: u64) {
        // Model BPSK over AWGN: LLR = 2y/sigma^2 where y = ±1 + noise.
        let mut rng = SimRng::new(seed);
        let sigma2 = 10f32.powf(-snr_db / 10.0);
        for l in llrs.iter_mut() {
            let x = if *l > 0.0 { 1.0 } else { -1.0 };
            let y = x + sigma2.sqrt() * rng.gaussian() as f32;
            *l = 2.0 * y / sigma2;
        }
    }

    #[test]
    fn encode_produces_valid_codeword() {
        let code = LdpcCode::new(128);
        let info = random_bits(128, 1);
        let cw = code.encode(&info);
        assert_eq!(cw.len(), code.n());
        assert!(code.parity_ok(&cw));
        assert_eq!(&cw[..128], &info[..]);
    }

    #[test]
    fn packed_encode_matches_bytewise() {
        let code = LdpcCode::new(128);
        let info = random_bits(128, 21);
        let mut packed = BitBuf::new();
        code.encode_packed(&BitBuf::from_bits(&info), &mut packed);
        assert_eq!(packed.to_bits(), code.encode(&info));
        // Appending starts where the buffer ends.
        let mut offset = BitBuf::from_bits(&[1, 0, 1]);
        code.encode_packed(&BitBuf::from_bits(&info), &mut offset);
        assert_eq!(offset.len(), 3 + code.n());
        assert_eq!(offset.to_bits()[3..], code.encode(&info)[..]);
    }

    #[test]
    fn all_zero_is_codeword() {
        let code = LdpcCode::new(64);
        let cw = code.encode(&[0u8; 64]);
        assert!(cw.iter().all(|b| *b == 0));
        assert!(code.parity_ok(&cw));
    }

    #[test]
    fn code_is_linear() {
        let code = LdpcCode::new(64);
        let a = random_bits(64, 2);
        let b = random_bits(64, 3);
        let x: Vec<u8> = a.iter().zip(&b).map(|(p, q)| p ^ q).collect();
        let ca = code.encode(&a);
        let cb = code.encode(&b);
        let cx = code.encode(&x);
        let sum: Vec<u8> = ca.iter().zip(&cb).map(|(p, q)| p ^ q).collect();
        assert_eq!(cx, sum);
    }

    #[test]
    fn construction_is_deterministic() {
        let a = LdpcCode::new(256);
        let b = LdpcCode::new(256);
        let info = random_bits(256, 4);
        assert_eq!(a.encode(&info), b.encode(&info));
    }

    #[test]
    fn decode_noiseless() {
        let code = LdpcCode::new(128);
        let info = random_bits(128, 5);
        let cw = code.encode(&info);
        let llrs = bits_to_llrs(&cw, 8.0);
        let res = code.decode(&llrs, 10);
        assert!(res.parity_ok);
        assert_eq!(res.info, info);
        assert_eq!(res.iterations, 0, "noiseless should early-terminate");
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        // One scratch across decodes of different outcomes and sizes
        // must give the same results as fresh scratch every time.
        let mut scratch = LdpcScratch::default();
        for (k, snr, seed) in [(128usize, 3.0f32, 50u64), (256, -0.5, 51), (128, -6.0, 52)] {
            let code = LdpcCode::new(k);
            let info = random_bits(k, seed);
            let cw = code.encode(&info);
            let mut llrs = bits_to_llrs(&cw, 1.0);
            add_noise(&mut llrs, snr, seed + 1000);
            let fresh = code.decode(&llrs, 12);
            let (ok, iters) = code.decode_into(&llrs, 12, &mut scratch);
            assert_eq!(ok, fresh.parity_ok, "k={k} snr={snr}");
            assert_eq!(iters, fresh.iterations, "k={k} snr={snr}");
            assert_eq!(&scratch.hard[..k], &fresh.info[..], "k={k} snr={snr}");
        }
    }

    #[test]
    fn decode_corrects_moderate_noise() {
        let code = LdpcCode::new(256);
        let mut ok = 0;
        let trials = 20;
        for t in 0..trials {
            let info = random_bits(256, 100 + t);
            let cw = code.encode(&info);
            let mut llrs = bits_to_llrs(&cw, 1.0);
            add_noise(&mut llrs, 3.0, 200 + t);
            let res = code.decode(&llrs, 25);
            if res.parity_ok && res.info == info {
                ok += 1;
            }
        }
        // Rate-1/3 code at 3 dB (BPSK) should decode essentially always.
        assert!(ok >= trials - 1, "ok={ok}/{trials}");
    }

    #[test]
    fn decode_fails_under_heavy_noise() {
        let code = LdpcCode::new(256);
        let mut fails = 0;
        for t in 0..10 {
            let info = random_bits(256, 300 + t);
            let cw = code.encode(&info);
            let mut llrs = bits_to_llrs(&cw, 1.0);
            add_noise(&mut llrs, -6.0, 400 + t);
            let res = code.decode(&llrs, 12);
            if !(res.parity_ok && res.info == info) {
                fails += 1;
            }
        }
        assert!(fails >= 8, "fails={fails}");
    }

    #[test]
    fn more_iterations_decode_more() {
        // Near the waterfall, iteration count matters — this is the
        // paper's Fig. 11 upgrade mechanism.
        let code = LdpcCode::new(256);
        let trials = 40;
        let mut ok_few = 0;
        let mut ok_many = 0;
        for t in 0..trials {
            let info = random_bits(256, 500 + t);
            let cw = code.encode(&info);
            let mut llrs = bits_to_llrs(&cw, 1.0);
            add_noise(&mut llrs, -0.5, 600 + t);
            let few = code.decode(&llrs, 2);
            let many = code.decode(&llrs, 30);
            if few.parity_ok && few.info == info {
                ok_few += 1;
            }
            if many.parity_ok && many.info == info {
                ok_many += 1;
            }
        }
        assert!(
            ok_many > ok_few,
            "more iterations should help: few={ok_few} many={ok_many}"
        );
    }

    #[test]
    fn parity_ok_rejects_corrupted_codeword() {
        let code = LdpcCode::new(64);
        let mut cw = code.encode(&random_bits(64, 7));
        cw[10] ^= 1;
        assert!(!code.parity_ok(&cw));
    }

    #[test]
    #[should_panic]
    fn encode_rejects_wrong_length() {
        LdpcCode::new(64).encode(&[0u8; 32]);
    }
}
