//! Gray-mapped QAM modulation and max-log LLR demapping.
//!
//! Square constellations (QPSK, 16/64/256-QAM) are built per-axis from
//! Gray-coded PAM, normalized to unit average power, as in TS 38.211.
//! The demapper produces per-bit max-log LLRs with the convention that
//! **positive LLR means bit = 0**.
//!
//! Both directions are table-driven: the mapper indexes a per-modulation
//! symbol LUT (one entry per bit-group, built once per process), and the
//! demapper walks a precomputed `(level·scale, gray pattern)` table with
//! a level-outer loop so each candidate distance is computed once and
//! shared across the per-bit minima. Table entries are produced by the
//! same arithmetic as the original per-symbol computation, so mapped
//! symbols and LLRs are bit-identical to the scalar form.

use crate::bits::BitBuf;
use crate::iq::Cplx;
use std::sync::OnceLock;

/// Modulation orders used by the MCS table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    Qpsk,
    Qam16,
    Qam64,
    Qam256,
}

impl Modulation {
    /// Bits per modulated symbol.
    pub fn bits_per_symbol(self) -> usize {
        match self {
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
            Modulation::Qam256 => 8,
        }
    }

    /// Bits per axis (PAM order exponent).
    fn bits_per_axis(self) -> usize {
        self.bits_per_symbol() / 2
    }

    /// Per-axis amplitude normalization so E[|x|^2] = 1.
    fn axis_scale(self) -> f32 {
        // For M-PAM with levels ±1, ±3, …, ±(M-1): E[a^2] = (M^2 - 1)/3.
        // Two axes double it.
        let m = 1usize << self.bits_per_axis();
        let e = ((m * m - 1) as f32) / 3.0 * 2.0;
        1.0 / e.sqrt()
    }

    fn table_index(self) -> usize {
        match self {
            Modulation::Qpsk => 0,
            Modulation::Qam16 => 1,
            Modulation::Qam64 => 2,
            Modulation::Qam256 => 3,
        }
    }
}

/// Gray code of `v`.
fn gray(v: usize) -> usize {
    v ^ (v >> 1)
}

/// PAM level (…,-3,-1,1,3,…) for a Gray-coded bit group, matching the
/// 38.211 convention where bit 0 selects the sign.
fn pam_level(bits: &[u8]) -> i32 {
    // Interpret the bit group as an index whose Gray decoding yields the
    // level rank. We build a lookup: for each rank r (level = 2r+1-M),
    // the Gray code of r gives the bit pattern.
    let n = bits.len();
    let m = 1usize << n;
    let mut idx = 0usize;
    for &b in bits {
        idx = (idx << 1) | b as usize;
    }
    // Find rank whose gray code equals idx.
    for r in 0..m {
        if gray(r) == idx {
            return (2 * r as i32 + 1) - m as i32;
        }
    }
    unreachable!("gray code is a bijection")
}

/// Per-axis PAM level table: level for each rank, and the bit pattern.
fn pam_table(bits_per_axis: usize) -> Vec<(f32, usize)> {
    let m = 1usize << bits_per_axis;
    (0..m)
        .map(|r| (((2 * r + 1) as i32 - m as i32) as f32, gray(r)))
        .collect()
}

/// Precomputed per-modulation tables.
struct ModTables {
    /// Symbol for each packed bit-group: index bit `j` (LSB-first) is
    /// stream bit `j` of the symbol's chunk.
    symbols: Vec<Cplx>,
    /// Demap candidates per axis: (level × axis_scale, Gray pattern).
    levels: Vec<(f32, usize)>,
    /// For each axis bit, the level ranks whose Gray pattern has that
    /// bit clear / set — the demapper's candidate partition, in the
    /// same rank order as `levels`.
    bit_zeros: [Vec<u8>; 4],
    bit_ones: [Vec<u8>; 4],
}

fn mod_tables(modulation: Modulation) -> &'static ModTables {
    static TABLES: [OnceLock<ModTables>; 4] = [
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
    ];
    TABLES[modulation.table_index()].get_or_init(|| {
        let bps = modulation.bits_per_symbol();
        let half = modulation.bits_per_axis();
        let scale = modulation.axis_scale();
        let symbols = (0..1usize << bps)
            .map(|idx| {
                // Even stream positions map to I, odd to Q, exactly as
                // the scalar mapper sliced its chunk.
                let i_bits: Vec<u8> = (0..half).map(|k| ((idx >> (2 * k)) & 1) as u8).collect();
                let q_bits: Vec<u8> = (0..half)
                    .map(|k| ((idx >> (2 * k + 1)) & 1) as u8)
                    .collect();
                Cplx::new(
                    pam_level(&i_bits) as f32 * scale,
                    pam_level(&q_bits) as f32 * scale,
                )
            })
            .collect();
        let levels: Vec<(f32, usize)> = pam_table(half)
            .into_iter()
            .map(|(level, pattern)| (level * scale, pattern))
            .collect();
        let mut bit_zeros: [Vec<u8>; 4] = Default::default();
        let mut bit_ones: [Vec<u8>; 4] = Default::default();
        for (bit, (zeros, ones)) in bit_zeros.iter_mut().zip(bit_ones.iter_mut()).enumerate() {
            if bit >= half {
                break;
            }
            for (rank, &(_, pattern)) in levels.iter().enumerate() {
                if (pattern >> (half - 1 - bit)) & 1 == 0 {
                    zeros.push(rank as u8);
                } else {
                    ones.push(rank as u8);
                }
            }
        }
        ModTables {
            symbols,
            levels,
            bit_zeros,
            bit_ones,
        }
    })
}

/// Map a bit slice to constellation symbols. `bits.len()` must be a
/// multiple of `bits_per_symbol`.
pub fn modulate(bits: &[u8], modulation: Modulation) -> Vec<Cplx> {
    let bps = modulation.bits_per_symbol();
    assert!(
        bits.len().is_multiple_of(bps),
        "bit count {} not a multiple of {}",
        bits.len(),
        bps
    );
    let lut = &mod_tables(modulation).symbols;
    bits.chunks(bps)
        .map(|chunk| {
            let mut idx = 0usize;
            for (j, &b) in chunk.iter().enumerate() {
                idx |= (b as usize & 1) << j;
            }
            lut[idx]
        })
        .collect()
}

/// Map a packed bit buffer to constellation symbols, appending to `out`.
pub fn modulate_packed_into(bits: &BitBuf, modulation: Modulation, out: &mut Vec<Cplx>) {
    let bps = modulation.bits_per_symbol();
    assert!(
        bits.len().is_multiple_of(bps),
        "bit count {} not a multiple of {}",
        bits.len(),
        bps
    );
    let lut = &mod_tables(modulation).symbols;
    let n_syms = bits.len() / bps;
    out.reserve(n_syms);
    for s in 0..n_syms {
        out.push(lut[bits.get_bits(s * bps, bps) as usize]);
    }
}

/// Map a packed bit buffer to constellation symbols.
pub fn modulate_packed(bits: &BitBuf, modulation: Modulation) -> Vec<Cplx> {
    let mut out = Vec::new();
    modulate_packed_into(bits, modulation, &mut out);
    out
}

/// Scalar max-log demap, appending to `out` without clearing — the
/// bit-exactness oracle shared by the public entry point and the SIMD
/// tail handler.
pub(crate) fn demod_scalar_append(
    symbols: &[Cplx],
    modulation: Modulation,
    noise_var: f32,
    out: &mut Vec<f32>,
) {
    let half = modulation.bits_per_axis();
    let tables = mod_tables(modulation);
    let levels = &tables.levels;
    // Per-axis noise variance is half the complex variance.
    let sigma2 = (noise_var / 2.0).max(1e-9);
    out.reserve(symbols.len() * modulation.bits_per_symbol());
    let mut axis_llrs = [0.0f32; 8];
    let mut d2 = [0.0f32; 16];
    for s in symbols {
        for (axis, y) in [(0usize, s.re), (1usize, s.im)] {
            // max-log: LLR = (min over levels with bit=1 of d^2 -
            //                 min over levels with bit=0 of d^2) / (2 sigma^2)
            // One d^2 per candidate level, then per-bit minima over the
            // precomputed rank partition (same candidate sets in the
            // same rank order as the retired bit-outer scalar loop, so
            // every minimum — and thus every LLR — is bit-identical).
            for (dd, &(ls, _)) in d2.iter_mut().zip(levels.iter()) {
                let d = y - ls;
                *dd = d * d;
            }
            for bit in 0..half {
                let mut best0 = f32::INFINITY;
                for &rank in &tables.bit_zeros[bit] {
                    best0 = best0.min(d2[rank as usize]);
                }
                let mut best1 = f32::INFINITY;
                for &rank in &tables.bit_ones[bit] {
                    best1 = best1.min(d2[rank as usize]);
                }
                axis_llrs[axis + 2 * bit] = (best1 - best0) / (2.0 * sigma2);
            }
        }
        // Reassemble in the interleaved order used by `modulate`:
        // chunk[2k] is I-axis bit k, chunk[2k+1] is Q-axis bit k.
        for k in 0..half {
            out.push(axis_llrs[2 * k]); // I axis, bit k
            out.push(axis_llrs[1 + 2 * k]); // Q axis, bit k
        }
    }
}

/// Scalar max-log demap into a caller-provided buffer (cleared first).
pub(crate) fn demod_scalar_into(
    symbols: &[Cplx],
    modulation: Modulation,
    noise_var: f32,
    out: &mut Vec<f32>,
) {
    out.clear();
    demod_scalar_append(symbols, modulation, noise_var, out);
}

/// AVX2 max-log demapper: 8 symbols per iteration. Bit-identical to the
/// scalar oracle: per-level squared distances use the same subtract/
/// multiply per lane, the per-bit minima fold in the same rank order
/// with `_mm256_min_ps(d2, best)` (whose NaN/zero semantics match
/// `best.min(d2)` for these operands), and the final LLR uses a true
/// IEEE `vdivps` by the identical `2·sigma²` denominator. Tail symbols
/// (< 8) run through the scalar appender.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use super::{demod_scalar_append, mod_tables, Cplx, Modulation};
    use std::arch::x86_64::*;

    /// # Safety
    /// Requires AVX2 (caller checks `is_x86_feature_detected!`).
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn demodulate_llr_into(
        symbols: &[Cplx],
        modulation: Modulation,
        noise_var: f32,
        out: &mut Vec<f32>,
    ) {
        let half = modulation.bits_per_axis();
        let tables = mod_tables(modulation);
        let levels = &tables.levels;
        let sigma2 = (noise_var / 2.0).max(1e-9);
        let denom = _mm256_set1_ps(2.0 * sigma2);
        out.clear();
        out.reserve(symbols.len() * modulation.bits_per_symbol());
        let chunks = symbols.len() / 8;
        // `Cplx` is repr(C), so symbols are interleaved re/im f32 words.
        let base = symbols.as_ptr() as *const f32;
        let inf = _mm256_set1_ps(f32::INFINITY);
        let mut d2 = [_mm256_setzero_ps(); 16];
        let mut lanes = [[0.0f32; 8]; 8]; // [axis + 2·bit][symbol]
        for c in 0..chunks {
            let v0 = _mm256_loadu_ps(base.add(16 * c));
            let v1 = _mm256_loadu_ps(base.add(16 * c + 8));
            // Deinterleave re/im: gather same-128-bit-lane pairs, then
            // pick even (re) / odd (im) words.
            let p0 = _mm256_permute2f128_ps::<0x20>(v0, v1);
            let p1 = _mm256_permute2f128_ps::<0x31>(v0, v1);
            let ys = [
                _mm256_shuffle_ps::<0b10_00_10_00>(p0, p1), // I axis, 8 symbols
                _mm256_shuffle_ps::<0b11_01_11_01>(p0, p1), // Q axis, 8 symbols
            ];
            for (axis, &y) in ys.iter().enumerate() {
                for (dd, &(ls, _)) in d2.iter_mut().zip(levels.iter()) {
                    let d = _mm256_sub_ps(y, _mm256_set1_ps(ls));
                    *dd = _mm256_mul_ps(d, d);
                }
                for bit in 0..half {
                    let mut best0 = inf;
                    for &rank in &tables.bit_zeros[bit] {
                        best0 = _mm256_min_ps(d2[rank as usize], best0);
                    }
                    let mut best1 = inf;
                    for &rank in &tables.bit_ones[bit] {
                        best1 = _mm256_min_ps(d2[rank as usize], best1);
                    }
                    let llr = _mm256_div_ps(_mm256_sub_ps(best1, best0), denom);
                    _mm256_storeu_ps(lanes[axis + 2 * bit].as_mut_ptr(), llr);
                }
            }
            // Re-interleave in modulate's bit order: chunk[2k] is I-axis
            // bit k, chunk[2k+1] is Q-axis bit k. `s` walks the lane
            // dimension across several `lanes` rows at once.
            #[allow(clippy::needless_range_loop)]
            for s in 0..8 {
                for k in 0..half {
                    out.push(lanes[2 * k][s]);
                    out.push(lanes[1 + 2 * k][s]);
                }
            }
        }
        demod_scalar_append(&symbols[chunks * 8..], modulation, noise_var, out);
    }
}

/// Hard-decide LLRs into bits (positive LLR = 0).
pub fn hard_decide(llrs: &[f32]) -> Vec<u8> {
    llrs.iter().map(|l| if *l >= 0.0 { 0 } else { 1 }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::DspKernels;
    use slingshot_sim::SimRng;

    /// Demap through the dispatch handle with the host's best backend,
    /// so these oracles also exercise the SIMD path where available.
    fn demod(symbols: &[Cplx], modulation: Modulation, noise_var: f32) -> Vec<f32> {
        DspKernels::detect().demodulate_llr(symbols, modulation, noise_var)
    }

    const ALL: [Modulation; 4] = [
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
        Modulation::Qam256,
    ];

    fn random_bits(n: usize, rng: &mut SimRng) -> Vec<u8> {
        (0..n).map(|_| (rng.next_u64() & 1) as u8).collect()
    }

    /// The retired scalar mapper, kept as the equivalence reference.
    fn modulate_scalar(bits: &[u8], modulation: Modulation) -> Vec<Cplx> {
        let bps = modulation.bits_per_symbol();
        let half = bps / 2;
        let scale = modulation.axis_scale();
        bits.chunks(bps)
            .map(|chunk| {
                let i_bits: Vec<u8> = (0..half).map(|k| chunk[2 * k]).collect();
                let q_bits: Vec<u8> = (0..half).map(|k| chunk[2 * k + 1]).collect();
                Cplx::new(
                    pam_level(&i_bits) as f32 * scale,
                    pam_level(&q_bits) as f32 * scale,
                )
            })
            .collect()
    }

    /// The retired scalar demapper, kept as the equivalence reference.
    fn demodulate_llr_scalar(symbols: &[Cplx], modulation: Modulation, noise_var: f32) -> Vec<f32> {
        let half = modulation.bits_per_axis();
        let scale = modulation.axis_scale();
        let table = pam_table(half);
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
                        let bit_val = (pattern >> (half - 1 - bit)) & 1;
                        if bit_val == 0 {
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

    #[test]
    fn lut_mapper_bit_identical_to_scalar() {
        let mut rng = SimRng::new(11);
        for m in ALL {
            let bits = random_bits(m.bits_per_symbol() * 257, &mut rng);
            let fast = modulate(&bits, m);
            let slow = modulate_scalar(&bits, m);
            assert_eq!(fast.len(), slow.len());
            for (a, b) in fast.iter().zip(&slow) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "{m:?}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "{m:?}");
            }
            let packed = modulate_packed(&BitBuf::from_bits(&bits), m);
            assert_eq!(packed.len(), slow.len());
            for (a, b) in packed.iter().zip(&slow) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "{m:?} packed");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "{m:?} packed");
            }
        }
    }

    #[test]
    fn lut_demapper_bit_identical_to_scalar() {
        let mut rng = SimRng::new(12);
        for m in ALL {
            let bits = random_bits(m.bits_per_symbol() * 129, &mut rng);
            let syms: Vec<Cplx> = modulate(&bits, m)
                .into_iter()
                .map(|s| s + Cplx::new(0.2 * rng.gaussian() as f32, 0.2 * rng.gaussian() as f32))
                .collect();
            for nv in [0.001f32, 0.1, 1.0] {
                let fast = demod(&syms, m, nv);
                let slow = demodulate_llr_scalar(&syms, m, nv);
                assert_eq!(fast.len(), slow.len());
                for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{m:?} nv={nv} llr {i}");
                }
            }
        }
    }

    #[test]
    fn unit_average_power() {
        let mut rng = SimRng::new(1);
        for m in ALL {
            let bits = random_bits(m.bits_per_symbol() * 4096, &mut rng);
            let syms = modulate(&bits, m);
            let p: f32 = syms.iter().map(|s| s.norm_sq()).sum::<f32>() / syms.len() as f32;
            assert!((p - 1.0).abs() < 0.05, "{:?} power={p}", m);
        }
    }

    #[test]
    fn noiseless_roundtrip_all_modulations() {
        let mut rng = SimRng::new(2);
        for m in ALL {
            let bits = random_bits(m.bits_per_symbol() * 256, &mut rng);
            let syms = modulate(&bits, m);
            let llrs = demod(&syms, m, 0.001);
            assert_eq!(hard_decide(&llrs), bits, "{:?}", m);
        }
    }

    #[test]
    fn gray_mapping_adjacent_symbols_differ_one_bit() {
        // For QPSK per-axis: only 1 bit per axis, trivially Gray. Check
        // 16-QAM: adjacent I levels differ in exactly one I bit.
        let m = Modulation::Qam16;
        let half = 2;
        let table = pam_table(half);
        let mut sorted = table.clone();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in sorted.windows(2) {
            let diff = (w[0].1 ^ w[1].1).count_ones();
            assert_eq!(diff, 1, "{:?}", m);
        }
    }

    #[test]
    fn llr_magnitude_scales_with_noise() {
        let bits = vec![0, 0];
        let syms = modulate(&bits, Modulation::Qpsk);
        let llr_low_noise = demod(&syms, Modulation::Qpsk, 0.01);
        let llr_high_noise = demod(&syms, Modulation::Qpsk, 1.0);
        assert!(llr_low_noise[0] > llr_high_noise[0]);
        assert!(llr_low_noise[0] > 0.0 && llr_high_noise[0] > 0.0);
    }

    #[test]
    fn qpsk_known_constellation() {
        // Bits (0,0) -> both axes level +? With M=2 PAM: rank 0 -> level
        // -1, gray(0)=0; rank 1 -> +1, gray(1)=1. So bit 0 => -1.
        let s = modulate(&[0, 0], Modulation::Qpsk);
        let v = 1.0 / 2f32.sqrt();
        assert!((s[0].re + v).abs() < 1e-6);
        assert!((s[0].im + v).abs() < 1e-6);
        let s = modulate(&[1, 1], Modulation::Qpsk);
        assert!((s[0].re - v).abs() < 1e-6);
        assert!((s[0].im - v).abs() < 1e-6);
    }

    #[test]
    fn noisy_qpsk_mostly_correct_at_high_snr() {
        let mut rng = SimRng::new(3);
        let bits = random_bits(2000, &mut rng);
        let syms = modulate(&bits, Modulation::Qpsk);
        // 10 dB SNR => noise_var = 0.1.
        let noisy: Vec<Cplx> = syms
            .iter()
            .map(|s| {
                *s + Cplx::new(
                    (0.05f32).sqrt() * rng.gaussian() as f32,
                    (0.05f32).sqrt() * rng.gaussian() as f32,
                )
            })
            .collect();
        let llrs = demod(&noisy, Modulation::Qpsk, 0.1);
        let rx = hard_decide(&llrs);
        let errors = rx.iter().zip(&bits).filter(|(a, b)| a != b).count();
        // QPSK BER at 10 dB SNR ≈ Q(sqrt(10)) ≈ 8e-4.
        assert!(errors < 20, "errors={errors}");
    }

    #[test]
    #[should_panic]
    fn modulate_rejects_partial_symbol() {
        modulate(&[0, 1, 0], Modulation::Qpsk);
    }
}
