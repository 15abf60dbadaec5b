//! Property-based equivalence: every word-packed / table-driven kernel
//! against the retired scalar implementation it replaced.
//!
//! The references here are deliberate re-implementations of the
//! pre-rewrite code (bitwise CRC long division, the one-bit-per-step
//! Gold LFSR, per-symbol PAM arithmetic, the per-call edge-list min-sum
//! decoder), kept self-contained in this test so drift in the
//! production kernels cannot silently drift the oracle too.
//!
//! Equality is exact: bits are compared as integers and every f32 is
//! compared via `to_bits`, because the simulator's determinism contract
//! (byte-identical traces across worker counts and releases) depends on
//! the kernels performing the same float operations in the same order.

use proptest::prelude::*;
use slingshot_phy_dsp::bits::BitBuf;
use slingshot_phy_dsp::channel::AwgnChannel;
use slingshot_phy_dsp::crc::{attach_crc24a, check_crc24a, crc16, crc24a};
use slingshot_phy_dsp::iq::SC_PER_PRB;
use slingshot_phy_dsp::ldpc::{LdpcBlockOut, LdpcCode, LdpcScratch, BATCH_LANES};
use slingshot_phy_dsp::modulation::{modulate, modulate_packed, Modulation};
use slingshot_phy_dsp::ratematch::{rate_match, rate_match_packed, rate_recover};
use slingshot_phy_dsp::scramble::{
    cached_sequence, descramble_llrs_packed, scramble_bits_with, scramble_packed, GoldSequence,
};
use slingshot_phy_dsp::Cplx;
use slingshot_phy_dsp::{mother_buffer_len, DspKernels, KernelBackend, TbParams};
use slingshot_sim::{SimRng, WorkerPool};

// ---------------------------------------------------------------- CRC

/// Pre-rewrite CRC-24A: bit-serial long division (TS 38.212 §5.1).
fn crc24a_ref(data: &[u8]) -> u32 {
    let mut crc: u32 = 0;
    for &byte in data {
        crc ^= (byte as u32) << 16;
        for _ in 0..8 {
            crc <<= 1;
            if crc & 0x0100_0000 != 0 {
                crc ^= 0x864CFB;
            }
        }
    }
    crc & 0x00FF_FFFF
}

/// Pre-rewrite CRC-16 (CCITT).
fn crc16_ref(data: &[u8]) -> u16 {
    let mut crc: u16 = 0;
    for &byte in data {
        crc ^= (byte as u16) << 8;
        for _ in 0..8 {
            let msb = crc & 0x8000 != 0;
            crc <<= 1;
            if msb {
                crc ^= 0x1021;
            }
        }
    }
    crc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn crc_tables_match_bitwise_reference(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        prop_assert_eq!(crc24a(&data), crc24a_ref(&data));
        prop_assert_eq!(crc16(&data), crc16_ref(&data));
        let attached = attach_crc24a(&data);
        prop_assert_eq!(check_crc24a(&attached), Some(&data[..]));
    }
}

// --------------------------------------------------------------- Gold

/// Pre-rewrite Gold generator: one bit per step (TS 38.211 §5.2.1),
/// including the Nc = 1600 fast-forward.
struct GoldRef {
    x1: u32,
    x2: u32,
}

impl GoldRef {
    fn new(c_init: u32) -> GoldRef {
        let mut g = GoldRef {
            x1: 1,
            x2: c_init & 0x7FFF_FFFF,
        };
        for _ in 0..1600 {
            g.step();
        }
        g
    }

    fn step(&mut self) -> u8 {
        let out = ((self.x1 ^ self.x2) & 1) as u8;
        let x1_new = ((self.x1 >> 3) ^ self.x1) & 1;
        let x2_new = ((self.x2 >> 3) ^ (self.x2 >> 2) ^ (self.x2 >> 1) ^ self.x2) & 1;
        self.x1 = (self.x1 >> 1) | (x1_new << 30);
        self.x2 = (self.x2 >> 1) | (x2_new << 30);
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gold_generator_matches_reference_lfsr(c_init in any::<u32>(), n in 0usize..1200) {
        let mut fast = GoldSequence::new(c_init);
        let mut slow = GoldRef::new(c_init);
        let got = fast.bits(n);
        for (i, &b) in got.iter().enumerate() {
            prop_assert_eq!(b, slow.step(), "bit {} of c_init {:#x}", i, c_init);
        }
    }

    #[test]
    fn gold_skip_matches_stepping(c_init in any::<u32>(), skip in 0usize..4000, n in 1usize..64) {
        let mut jumped = GoldSequence::new(c_init);
        jumped.skip(skip);
        let mut stepped = GoldSequence::new(c_init);
        for _ in 0..skip {
            stepped.next_bit();
        }
        prop_assert_eq!(jumped.bits(n), stepped.bits(n));
    }

    #[test]
    fn packed_scramble_matches_scalar(
        bits in proptest::collection::vec(0u8..2, 0..1200),
        c_init in any::<u32>(),
        offset in 0usize..200,
    ) {
        // Scalar path: positioned bit-serial generator.
        let mut expect = bits.clone();
        let mut g = GoldSequence::new(c_init);
        g.skip(offset);
        scramble_bits_with(&mut expect, &mut g);
        // Packed path: shared cached sequence plus bit offset.
        let seq = cached_sequence(c_init, offset + bits.len());
        let mut packed = BitBuf::from_bits(&bits);
        scramble_packed(&mut packed, &seq, offset);
        prop_assert_eq!(packed.to_bits(), expect);
    }

    #[test]
    fn packed_descramble_matches_scalar(
        mut llrs in proptest::collection::vec(-8.0f32..8.0, 0..1200),
        c_init in any::<u32>(),
        offset in 0usize..200,
        seed in any::<u64>(),
    ) {
        // A sprinkle of the values where a sign flip is not a
        // subtraction: ±0.0, ±∞ and NaN (with a payload).
        let mut rng = SimRng::new(seed);
        for _ in 0..llrs.len() / 8 {
            let special = [
                0.0,
                -0.0,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::NAN,
                f32::from_bits(0xFFC0_1234),
            ];
            let at = rng.below(llrs.len() as u64) as usize;
            llrs[at] = special[rng.below(special.len() as u64) as usize];
        }
        let mut expect = llrs.clone();
        let mut g = GoldSequence::new(c_init);
        g.skip(offset);
        slingshot_phy_dsp::scramble::descramble_llrs_with(&mut expect, &mut g);
        let seq = cached_sequence(c_init, offset + llrs.len());
        let mut got = llrs.clone();
        descramble_llrs_packed(&mut got, &seq, offset);
        for (a, b) in got.iter().zip(expect.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

// --------------------------------------------------------------- LDPC

/// Pre-rewrite LDPC, nested-Vec form: the same deterministic
/// construction (seed 0x51AC_C0DE ^ k, column weight 3), bytewise
/// staircase encode, and the per-call edge-list min-sum decoder.
struct LdpcRef {
    k: usize,
    m: usize,
    row_info: Vec<Vec<usize>>,
}

impl LdpcRef {
    fn new(k: usize) -> LdpcRef {
        let m = 2 * k;
        let mut rng = SimRng::new(0x51AC_C0DE ^ (k as u64));
        let mut row_info: Vec<Vec<usize>> = vec![Vec::new(); m];
        for col in 0..k {
            let mut rows = [0usize; 3];
            let mut chosen = 0;
            while chosen < 3 {
                let r = rng.below(m as u64) as usize;
                if !rows[..chosen].contains(&r) {
                    rows[chosen] = r;
                    chosen += 1;
                }
            }
            for r in rows {
                row_info[r].push(col);
            }
        }
        LdpcRef { k, m, row_info }
    }

    fn encode(&self, info: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.k + self.m);
        out.extend_from_slice(info);
        let mut prev = 0u8;
        for row in &self.row_info {
            let mut acc = prev;
            for &col in row {
                acc ^= info[col];
            }
            out.push(acc);
            prev = acc;
        }
        out
    }

    fn parity_ok(&self, word: &[u8]) -> bool {
        let mut prev = 0u8;
        for (i, row) in self.row_info.iter().enumerate() {
            let mut acc = prev ^ word[self.k + i];
            for &col in row {
                acc ^= word[col];
            }
            if acc != 0 {
                return false;
            }
            prev = word[self.k + i];
        }
        true
    }

    /// Per-call edge-list normalized min-sum, exactly as the retired
    /// decoder ran it. Returns (total LLRs, hard bits, parity, iters).
    fn decode(&self, channel_llrs: &[f32], max_iters: usize) -> (Vec<f32>, Vec<u8>, bool, usize) {
        let mut edge_var: Vec<usize> = Vec::new();
        let mut row_start: Vec<usize> = Vec::new();
        for (i, row) in self.row_info.iter().enumerate() {
            row_start.push(edge_var.len());
            edge_var.extend(row.iter().copied());
            edge_var.push(self.k + i);
            if i > 0 {
                edge_var.push(self.k + i - 1);
            }
        }
        row_start.push(edge_var.len());
        let mut c2v: Vec<f32> = vec![0.0; edge_var.len()];
        let mut total: Vec<f32> = channel_llrs.to_vec();
        let mut hard: Vec<u8> = total.iter().map(|l| (*l < 0.0) as u8).collect();
        if self.parity_ok(&hard) {
            return (total, hard, true, 0);
        }
        let mut iters = 0;
        for it in 1..=max_iters {
            iters = it;
            for row in 0..self.m {
                let (s, e) = (row_start[row], row_start[row + 1]);
                let mut sign: f32 = 1.0;
                let mut min1 = f32::INFINITY;
                let mut min2 = f32::INFINITY;
                let mut min_idx = s;
                for eidx in s..e {
                    let v = edge_var[eidx];
                    let v2c = total[v] - c2v[eidx];
                    let a = v2c.abs();
                    if v2c < 0.0 {
                        sign = -sign;
                    }
                    if a < min1 {
                        min2 = min1;
                        min1 = a;
                        min_idx = eidx;
                    } else if a < min2 {
                        min2 = a;
                    }
                }
                for eidx in s..e {
                    let v = edge_var[eidx];
                    let v2c = total[v] - c2v[eidx];
                    let mag = if eidx == min_idx { min2 } else { min1 };
                    let s_edge = if v2c < 0.0 { -sign } else { sign };
                    let new_c2v = 0.75 * s_edge * mag;
                    total[v] = v2c + new_c2v;
                    c2v[eidx] = new_c2v;
                }
            }
            for (h, l) in hard.iter_mut().zip(total.iter()) {
                *h = (*l < 0.0) as u8;
            }
            if self.parity_ok(&hard) {
                return (total, hard, true, iters);
            }
        }
        (total, hard, false, iters)
    }
}

/// Both encoders against the reference for one random block of `k`
/// info bits. The packed one appends to a buffer that already holds an
/// odd number of bits, so its output starts mid-word.
fn check_encode(k: usize, seed: u64) -> Result<(), TestCaseError> {
    let reference = LdpcRef::new(k);
    let code = LdpcCode::new(k);
    let mut rng = SimRng::new(seed);
    let info: Vec<u8> = (0..k).map(|_| (rng.next_u64() & 1) as u8).collect();
    let expect = reference.encode(&info);
    prop_assert_eq!(code.encode(&info), expect.clone(), "k={}", k);
    let lead: Vec<u8> = (0..2 * rng.below(70) + 1)
        .map(|_| (rng.next_u64() & 1) as u8)
        .collect();
    let mut packed = BitBuf::from_bits(&lead);
    code.encode_packed(&BitBuf::from_bits(&info), &mut packed);
    let got = packed.to_bits();
    prop_assert_eq!(&got[..lead.len()], &lead[..], "k={} lead", k);
    prop_assert_eq!(&got[lead.len()..], &expect[..], "k={}", k);
    prop_assert!(code.parity_ok(&expect));
    Ok(())
}

/// Info lengths at the word edges of the info bits (31..33, 63..65),
/// the production maximum (1 023, 1 024) and `kernel_bench`'s k = 6 144.
#[test]
fn ldpc_encode_matches_reference_at_word_edges() {
    for k in [31, 32, 33, 63, 64, 65, 1023, 1024, 6144] {
        if let Err(e) = check_encode(k, 0xED6E ^ k as u64) {
            panic!("{e}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn ldpc_encode_matches_reference(k in 8usize..1025, seed in any::<u64>()) {
        check_encode(k, seed)?;
    }

    #[test]
    fn ldpc_decode_matches_reference(
        k in 8usize..128,
        seed in any::<u64>(),
        snr_db in 0.0f32..6.0,
        max_iters in 1usize..12,
    ) {
        let reference = LdpcRef::new(k);
        let code = LdpcCode::new(k);
        let mut rng = SimRng::new(seed);
        let info: Vec<u8> = (0..k).map(|_| (rng.next_u64() & 1) as u8).collect();
        let cw = reference.encode(&info);
        // BPSK over AWGN at the drawn SNR.
        let sigma2 = 10f32.powf(-snr_db / 10.0);
        let llrs: Vec<f32> = cw
            .iter()
            .map(|&b| {
                let x = if b == 0 { 1.0 } else { -1.0 };
                let y = x + sigma2.sqrt() * rng.gaussian() as f32;
                2.0 * y / sigma2
            })
            .collect();
        let (ref_total, ref_hard, ref_ok, ref_iters) = reference.decode(&llrs, max_iters);
        let mut scratch = LdpcScratch::default();
        let (ok, iters) = code.decode_into(&llrs, max_iters, &mut scratch);
        prop_assert_eq!(ok, ref_ok);
        prop_assert_eq!(iters, ref_iters);
        prop_assert_eq!(&scratch.hard, &ref_hard);
        // The posterior LLRs must match to the bit: min-sum message
        // order is part of the determinism contract.
        for (i, (a, b)) in scratch.total.iter().zip(ref_total.iter()).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "total[{}] differs", i);
        }
    }
}

// --------------------------------------------------------- modulation

fn gray(v: usize) -> usize {
    v ^ (v >> 1)
}

fn pam_level_ref(bits: &[u8]) -> i32 {
    let n = bits.len();
    let m = 1usize << n;
    let mut idx = 0usize;
    for &b in bits {
        idx = (idx << 1) | b as usize;
    }
    for r in 0..m {
        if gray(r) == idx {
            return (2 * r as i32 + 1) - m as i32;
        }
    }
    unreachable!("gray code is a bijection")
}

fn axis_scale_ref(modulation: Modulation) -> f32 {
    let m = 1usize << (modulation.bits_per_symbol() / 2);
    let e = ((m * m - 1) as f32) / 3.0 * 2.0;
    1.0 / e.sqrt()
}

/// Pre-rewrite per-symbol mapper.
fn modulate_ref(bits: &[u8], modulation: Modulation) -> Vec<Cplx> {
    let bps = modulation.bits_per_symbol();
    let half = bps / 2;
    let scale = axis_scale_ref(modulation);
    bits.chunks(bps)
        .map(|chunk| {
            let i_bits: Vec<u8> = (0..half).map(|k| chunk[2 * k]).collect();
            let q_bits: Vec<u8> = (0..half).map(|k| chunk[2 * k + 1]).collect();
            Cplx::new(
                pam_level_ref(&i_bits) as f32 * scale,
                pam_level_ref(&q_bits) as f32 * scale,
            )
        })
        .collect()
}

/// Pre-rewrite bit-outer max-log demapper.
fn demodulate_llr_ref(symbols: &[Cplx], modulation: Modulation, noise_var: f32) -> Vec<f32> {
    let half = modulation.bits_per_symbol() / 2;
    let scale = axis_scale_ref(modulation);
    let m = 1usize << half;
    let table: Vec<(f32, usize)> = (0..m)
        .map(|r| (((2 * r + 1) as i32 - m as i32) as f32, gray(r)))
        .collect();
    let sigma2 = (noise_var / 2.0).max(1e-9);
    let mut out = Vec::with_capacity(symbols.len() * modulation.bits_per_symbol());
    for s in symbols {
        let mut axis_llrs = vec![0.0f32; 2 * half];
        for (axis, y) in [(0usize, s.re), (1usize, s.im)] {
            for bit in 0..half {
                let mut best0 = f32::INFINITY;
                let mut best1 = f32::INFINITY;
                for (level, pattern) in &table {
                    let d = y - level * scale;
                    let d2 = d * d;
                    if (pattern >> (half - 1 - bit)) & 1 == 0 {
                        best0 = best0.min(d2);
                    } else {
                        best1 = best1.min(d2);
                    }
                }
                axis_llrs[axis + 2 * bit] = (best1 - best0) / (2.0 * sigma2);
            }
        }
        for k in 0..half {
            out.push(axis_llrs[2 * k]);
            out.push(axis_llrs[1 + 2 * k]);
        }
    }
    out
}

const ALL_MODS: [Modulation; 4] = [
    Modulation::Qpsk,
    Modulation::Qam16,
    Modulation::Qam64,
    Modulation::Qam256,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn modulate_lut_matches_scalar(bits in proptest::collection::vec(0u8..2, 0..30)) {
        for &m in &ALL_MODS {
            let bps = m.bits_per_symbol();
            let take = bits.len() / bps * bps;
            let chunk = &bits[..take];
            let expect = modulate_ref(chunk, m);
            for (a, b) in modulate(chunk, m).iter().zip(expect.iter()) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
            let packed = modulate_packed(&BitBuf::from_bits(chunk), m);
            for (a, b) in packed.iter().zip(expect.iter()) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    #[test]
    fn demap_matches_scalar(
        raw in proptest::collection::vec((-1.5f32..1.5, -1.5f32..1.5), 0..40),
        noise_var in 0.001f32..0.5,
    ) {
        let symbols: Vec<Cplx> = raw.iter().map(|&(re, im)| Cplx::new(re, im)).collect();
        for &m in &ALL_MODS {
            let got = DspKernels::scalar().demodulate_llr(&symbols, m, noise_var);
            let expect = demodulate_llr_ref(&symbols, m, noise_var);
            prop_assert_eq!(got.len(), expect.len());
            for (i, (a, b)) in got.iter().zip(expect.iter()).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "llr {} of {:?}", i, m);
            }
        }
    }
}

// ------------------------------------------------- rate matching, bits

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_rate_match_matches_scalar(
        coded in proptest::collection::vec(0u8..2, 1..600),
        e in 1usize..1500,
        rv in 0u8..4,
    ) {
        let expect = rate_match(&coded, e, rv);
        let mut packed = BitBuf::new();
        rate_match_packed(&BitBuf::from_bits(&coded), e, rv, &mut packed);
        prop_assert_eq!(packed.to_bits(), expect);
    }

    #[test]
    fn rate_recover_matches_modulo_indexing(
        acc0 in proptest::collection::vec(-8.0f32..8.0, 1..600),
        llrs in proptest::collection::vec(-8.0f32..8.0, 1205),
        rv in 0u8..4,
        e_idx in 0usize..5,
    ) {
        // Puncturing, the exact buffer, one and two-plus wraps; the
        // accumulator starts non-zero, as under chase combining.
        let n = acc0.len();
        let e = [1, n - 1, n, n + 1, 2 * n + 5][e_idx];
        let rx = &llrs[..e];
        let mut expect = acc0.clone();
        let start = n * rv as usize / 4;
        for (i, l) in rx.iter().enumerate() {
            expect[(start + i) % n] += *l;
        }
        let mut got = acc0.clone();
        rate_recover(&mut got, rx, rv);
        for (i, (a, b)) in got.iter().zip(&expect).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "acc[{}] n={} e={} rv={}", i, n, e, rv);
        }
    }

    #[test]
    fn bitbuf_roundtrips(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        // MSB-first byte packing must invert exactly.
        let buf = BitBuf::from_bytes_msb(&bytes);
        prop_assert_eq!(buf.len(), bytes.len() * 8);
        prop_assert_eq!(buf.to_bytes_msb(), bytes.clone());
        // Bit-vector form round-trips, and random subranges agree.
        let bits = buf.to_bits();
        let rebuilt = BitBuf::from_bits(&bits);
        prop_assert_eq!(rebuilt.to_bytes_msb(), bytes.clone());
        let mut rng = SimRng::new(bytes.len() as u64);
        for _ in 0..8 {
            if bits.is_empty() {
                break;
            }
            let start = rng.below(bits.len() as u64) as usize;
            let len = rng.below((bits.len() - start).min(64) as u64 + 1) as usize;
            let mut sub = BitBuf::new();
            sub.append_range(&buf, start, len);
            prop_assert_eq!(sub.to_bits(), bits[start..start + len].to_vec());
            if len > 0 && len <= 64 {
                let word = buf.get_bits(start, len);
                for (j, &b) in bits[start..start + len].iter().enumerate() {
                    prop_assert_eq!(((word >> j) & 1) as u8, b);
                }
            }
        }
    }
}

// ------------------------------------------- SIMD backend equivalence
//
// The runtime-dispatched backends (DESIGN.md §5h) against the scalar
// oracle, via `DspKernels::forced`. `KernelBackend::all_available()`
// returns only backends this host can run, so on a machine without
// AVX2 these properties degenerate to scalar-vs-scalar and pass
// vacuously — skip-clean by construction. Every kernel with a backend
// arm is compared exactly (demap and BFP: every f32 via `to_bits`; the
// LDPC batch decode: parity flag, iteration count and all `n` hard bits
// per block against `decode_into`), and the transport-block chain is
// compared end to end so the demapper's lead/trim/erasure handling and
// the chain's batching are checked where they are used.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn demap_bit_exact_across_backends(
        raw in proptest::collection::vec((-1.5f32..1.5, -1.5f32..1.5), 0..64),
        noise_var in 0.001f32..0.5,
    ) {
        let symbols: Vec<Cplx> = raw.iter().map(|&(re, im)| Cplx::new(re, im)).collect();
        for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64, Modulation::Qam256] {
            let expect = DspKernels::scalar().demodulate_llr(&symbols, m, noise_var);
            for backend in KernelBackend::all_available() {
                let got = DspKernels::forced(backend).demodulate_llr(&symbols, m, noise_var);
                prop_assert_eq!(got.len(), expect.len());
                for (i, (a, b)) in got.iter().zip(expect.iter()).enumerate() {
                    prop_assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "llr {} of {:?} on {}",
                        i,
                        m,
                        backend
                    );
                }
            }
        }
    }

    #[test]
    fn bfp_bit_exact_across_backends(
        raw in proptest::collection::vec((-4.0f32..4.0, -4.0f32..4.0), SC_PER_PRB),
        amp in 0.01f32..3000.0,
    ) {
        // `amp` sweeps the block through every exponent regime,
        // including the saturating range the AVX2 fast path must punt
        // to scalar on.
        let mut samples = [Cplx::ZERO; SC_PER_PRB];
        for (s, &(re, im)) in samples.iter_mut().zip(raw.iter()) {
            *s = Cplx::new(re * amp, im * amp);
        }
        let ref_prb = DspKernels::scalar().bfp_compress(&samples);
        let ref_out = DspKernels::scalar().bfp_decompress(&ref_prb);
        for backend in KernelBackend::all_available() {
            let kernels = DspKernels::forced(backend);
            let prb = kernels.bfp_compress(&samples);
            prop_assert_eq!(prb, ref_prb, "compressed PRB differs on {}", backend);
            let out = kernels.bfp_decompress(&prb);
            for (i, (a, b)) in out.iter().zip(ref_out.iter()).enumerate() {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits(), "re[{}] on {}", i, backend);
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits(), "im[{}] on {}", i, backend);
            }
        }
    }

    #[test]
    fn tb_chain_bit_exact_across_backends(
        seed in any::<u64>(),
        payload_bytes in 20usize..400,
        large in 0usize..4,
        snr_db in 2.0f64..14.0,
        m_idx in 0usize..4,
        lost_eighths in 0usize..4,
    ) {
        // One case in four is a TB of 26+ code blocks: both `k` runs of
        // the segmentation, several full LDPC batches and a partial
        // one. The rest are 1..=4 blocks (one-block and short batches).
        let payload_bytes = if large == 0 { 3300 + payload_bytes } else { payload_bytes };
        let modulation =
            [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64, Modulation::Qam256][m_idx];
        let bps = modulation.bits_per_symbol();
        let mut rng = SimRng::new(seed);
        let payload: Vec<u8> = (0..payload_bytes).map(|_| rng.next_u64() as u8).collect();
        // Rate ~1/2 in whole symbols. The per-block shares of `e_bits`
        // are not symbol-aligned, so blocks past the first start
        // mid-symbol (lead trim); `lost_eighths` drops the tail of the
        // symbol vector (lost fronthaul packets → erasure padding).
        let e_bits = ((payload_bytes + 3) * 16).div_ceil(bps) * bps;
        let backends = KernelBackend::all_available();
        let mut ref_acc = vec![0.0f32; mother_buffer_len(payload_bytes)];
        let mut accs = vec![ref_acc.clone(); backends.len()];
        let mut ch = AwgnChannel::new(SimRng::new(seed ^ 0xA5));
        // rv 0 then rv 2 into the same accumulator: the second decode
        // starts from whatever soft bits the first one left behind.
        for rv in [0u8, 2] {
            let p = TbParams {
                modulation,
                e_bits,
                rnti: 0x4601,
                cell_id: 7,
                rv,
                fec_iterations: 8,
            };
            let tx = DspKernels::scalar().encode_tb(&payload, &p);
            let (mut rx, nv) = ch.apply(&tx, snr_db);
            rx.truncate(rx.len() - rx.len() * lost_eighths / 8);
            let expect = DspKernels::scalar().decode_tb(&mut ref_acc, &rx, nv, payload_bytes, &p);
            for (&backend, acc) in backends.iter().zip(accs.iter_mut()) {
                let kernels = DspKernels::forced(backend);
                prop_assert_eq!(&kernels.encode_tb(&payload, &p), &tx, "tx symbols on {}", backend);
                let got = kernels.decode_tb(acc, &rx, nv, payload_bytes, &p);
                prop_assert_eq!(&got.payload, &expect.payload, "payload on {}", backend);
                prop_assert_eq!(
                    got.ldpc_iterations,
                    expect.ldpc_iterations,
                    "iterations on {}",
                    backend
                );
                prop_assert_eq!(got.all_parity_ok, expect.all_parity_ok, "parity on {}", backend);
                for (i, (a, b)) in acc.iter().zip(ref_acc.iter()).enumerate() {
                    prop_assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "harq acc[{}] rv {} on {}",
                        i,
                        rv,
                        backend
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn awgn_bit_exact_across_backends(seed in any::<u64>(), snr_db in -20.0f64..60.0) {
        let pool = WorkerPool::with_threads(2);
        // Lengths around the 2 048-sample draw block and chunk: empty,
        // one, one short, exact, one over, and several chunks plus a
        // short last quad.
        for len in [0usize, 1, 2047, 2048, 2049, 3 * 2048 + 17] {
            let mut rng = SimRng::new(seed ^ len as u64);
            let symbols: Vec<Cplx> = (0..len)
                .map(|_| Cplx::new(rng.gaussian() as f32, rng.gaussian() as f32))
                .collect();
            let run = |kernels: DspKernels| {
                let mut ch = AwgnChannel::new(SimRng::new(seed ^ 0xA96));
                let (serial, nv) = kernels.awgn_apply(&mut ch, &symbols, snr_db);
                let (chunked, nv_chunked) =
                    kernels.awgn_apply_with(&mut ch, &pool, &symbols, snr_db);
                let (garbage, _) = kernels.awgn_garbage(&mut ch, len);
                let bits = |v: &[Cplx]| -> Vec<(u32, u32)> {
                    v.iter().map(|s| (s.re.to_bits(), s.im.to_bits())).collect()
                };
                (bits(&serial), bits(&chunked), bits(&garbage), nv.to_bits(), nv_chunked.to_bits())
            };
            let expect = run(DspKernels::scalar());
            prop_assert_eq!(expect.0.len(), len);
            for backend in KernelBackend::all_available() {
                let got = run(DspKernels::forced(backend));
                prop_assert!(got.0 == expect.0, "apply differs on {} (len {})", backend, len);
                prop_assert!(got.1 == expect.1, "apply_with differs on {} (len {})", backend, len);
                prop_assert!(got.2 == expect.2, "garbage differs on {} (len {})", backend, len);
                prop_assert_eq!((got.3, got.4), (expect.3, expect.4));
            }
        }
    }
}

/// `n` codeword indices in a random transmission order: `order[p]` is
/// the codeword index at tx position `p`.
fn random_interleave(n: usize, rng: &mut SimRng) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// `llrs` (codeword order) laid out in tx order.
fn to_tx_order(llrs: &[f32], order: &[u32]) -> Vec<f32> {
    order.iter().map(|&v| llrs[v as usize]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ldpc_batch_matches_per_block_decode(
        k in 8usize..220,
        k_idx in 0usize..16,
        seed in any::<u64>(),
        batch in 1usize..BATCH_LANES + 1,
        iters_idx in 0usize..4,
    ) {
        let max_iters = [0usize, 1, 8, 30][iters_idx];
        // Besides the range, m = 2k that is not a multiple of 32 or 64
        // at the smallest codes and at the production size.
        let k = [8, 9, 1019].get(k_idx).copied().unwrap_or(k);
        let code = LdpcCode::new(k);
        let n = code.n();
        let mut rng = SimRng::new(seed);
        // Lanes at mixed SNRs, so they retire at different iterations:
        // noiseless (iteration 0), comfortable, near the waterfall, and
        // hopeless (never). A third of the lanes also get the values
        // the chain and a saturated demapper feed the decoder:
        // punctured / erased positions (0.0), -0.0, ±INFINITY and NaN
        // (which the compares and the min/max folds must skip exactly
        // as the scalar selects do). The fifth class is a noiseless
        // codeword with one sign flipped, in an information column, in
        // parity k (row 0's only staircase edge) or in parity n - 1 (the
        // last row's): `decode_into` fails its iteration-0 check, and a
        // lane check that drops that column's scatter or that staircase
        // term would pass it there instead.
        let blocks: Vec<Vec<f32>> = (0..batch)
            .map(|_| {
                let info: Vec<u8> = (0..k).map(|_| (rng.next_u64() & 1) as u8).collect();
                let cw = code.encode(&info);
                let class = rng.below(5) as usize;
                let snr_db = [f32::INFINITY, 4.0, 0.0, -8.0, f32::INFINITY][class];
                let sigma2 = 10f32.powf(-snr_db / 10.0);
                let mut llrs: Vec<f32> = cw
                    .iter()
                    .map(|&b| {
                        let x = if b == 0 { 1.0 } else { -1.0 };
                        if sigma2 == 0.0 {
                            return 8.0 * x;
                        }
                        let y = x + sigma2.sqrt() * rng.gaussian() as f32;
                        2.0 * y / sigma2
                    })
                    .collect();
                if class == 4 {
                    let flip = [rng.below(k as u64) as usize, k, n - 1][rng.below(3) as usize];
                    llrs[flip] = -llrs[flip];
                } else if rng.below(3) == 0 {
                    for _ in 0..n / 4 {
                        let special =
                            [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 0.0, 0.0, 0.0];
                        llrs[rng.below(n as u64) as usize] = special[rng.below(8) as usize];
                    }
                }
                llrs
            })
            .collect();
        // The batch entry reads tx-order segments through the
        // interleave.
        let order = random_interleave(n, &mut rng);
        let segs: Vec<Vec<f32>> = blocks.iter().map(|b| to_tx_order(b, &order)).collect();
        let views: Vec<&[f32]> = segs.iter().map(|b| &b[..]).collect();
        let mut scratch = LdpcScratch::default();
        let expect: Vec<LdpcBlockOut> = blocks
            .iter()
            .map(|llrs| {
                let (parity_ok, iterations) = code.decode_into(llrs, max_iters, &mut scratch);
                LdpcBlockOut { parity_ok, iterations, hard: BitBuf::from_bits(&scratch.hard) }
            })
            .collect();
        // A larger code's full batch leaves every lane buffer of the
        // scratch dirty (messages, posteriors, sign bytes) past what
        // this batch uses: nothing of it may leak into the result.
        let big = LdpcCode::new(k + 1 + rng.below(64) as usize);
        let big_order = random_interleave(big.n(), &mut rng);
        let big_segs: Vec<Vec<f32>> = (0..BATCH_LANES)
            .map(|_| (0..big.n()).map(|_| 4.0 * rng.gaussian() as f32 - 1.0).collect())
            .collect();
        let big_views: Vec<&[f32]> = big_segs.iter().map(|b| &b[..]).collect();
        let mut big_out = vec![LdpcBlockOut::default(); BATCH_LANES];
        for backend in KernelBackend::all_available() {
            let kernels = DspKernels::forced(backend);
            kernels.ldpc_decode_batch_into(
                &big,
                &big_order,
                &big_views,
                3,
                &mut scratch,
                &mut big_out,
            );
            // Result slots arrive dirty, as they do from a reused arena.
            let mut got = vec![
                LdpcBlockOut {
                    parity_ok: true,
                    iterations: 99,
                    hard: BitBuf::from_bits(&[1, 0, 1, 1, 1]),
                };
                batch
            ];
            kernels.ldpc_decode_batch_into(&code, &order, &views, max_iters, &mut scratch, &mut got);
            for (lane, (g, e)) in got.iter().zip(&expect).enumerate() {
                prop_assert_eq!(g.hard.len(), n);
                prop_assert_eq!(g, e, "lane {} of {} on {}", lane, batch, backend);
            }
        }
    }
}
