//! Wireless channel models.
//!
//! [`AwgnChannel`] perturbs actual modulated symbols with complex
//! Gaussian noise at a given SNR, so decode success and failure *emerge*
//! from the LLR/LDPC math rather than being asserted — this is what
//! makes the paper's central claim ("processing impairments resemble
//! signal impairments") demonstrable in this reproduction.
//!
//! [`SnrProcess`] models each UE's slowly varying link quality: a
//! mean-reverting random walk plus occasional deep fades, calibrated to
//! the kind of 4x variation stationary 5G UEs see in practice (§4).

use crate::dispatch::DspKernels;
use crate::iq::Cplx;
use slingshot_sim::SimRng;

/// Symbols per noise-generation chunk in [`AwgnChannel::apply_with`],
/// and per draw block of the AVX2 arm.
pub(crate) const CHANNEL_CHUNK: usize = 2048;

/// Convert dB to linear power ratio.
pub fn db_to_linear(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Convert linear power ratio to dB.
pub(crate) fn linear_to_db(lin: f64) -> f64 {
    10.0 * lin.max(1e-30).log10()
}

/// One complex noise sample: a full Box–Muller pair from a single
/// `(u1, u2)` uniform draw. The sine and cosine outputs of one draw
/// are independent N(0,1) variates, so using both per symbol halves
/// the `ln`/`sqrt` count and fuses the two trig calls into one
/// `sin_cos` — the transcendentals are the entire cost of the scalar
/// channel (measured ~2x over one `gaussian()` call per axis). Two
/// uniforms per symbol instead of four also makes the per-symbol draw
/// budget explicit. [`SimRng::gaussian`] itself stays pair-free so
/// fork/clone semantics of the general-purpose RNG are untouched.
///
/// This is the noise definition: the scalar backend runs it, and the
/// AVX2 arm ([`avx2::noise_into`]) returns exactly its f32 values.
#[inline]
fn noise_pair(rng: &mut SimRng, per_axis: f32) -> (f32, f32) {
    let (u1, u2) = draw_uniforms(rng);
    let (yc, ys) = libm_pair(u1, u2);
    (per_axis * yc as f32, per_axis * ys as f32)
}

/// One `(u1, u2)` uniform pair: `u1` is redrawn while it is not above
/// `f64::MIN_POSITIVE` (on the 2^-53 grid, only an exact 0 is not), so
/// `ln(u1)` is finite.
#[inline]
fn draw_uniforms(rng: &mut SimRng) -> (f64, f64) {
    loop {
        let u1 = rng.f64();
        if u1 > f64::MIN_POSITIVE {
            return (u1, rng.f64());
        }
    }
}

/// Box–Muller `(r·cos θ, r·sin θ)` of one uniform pair in libm
/// arithmetic, before the f32 rounding.
#[inline]
fn libm_pair(u1: f64, u2: f64) -> (f64, f64) {
    let r = (-2.0 * u1.ln()).sqrt();
    let (s, c) = (2.0 * std::f64::consts::PI * u2).sin_cos();
    (r * c, r * s)
}

/// One noise symbol per element of `iq`, one [`noise_pair`] each, drawn
/// serially from `rng`: added to the element when `add`, else stored
/// over it. Bit-identical on every backend.
fn noise_into(kernels: DspKernels, rng: &mut SimRng, per_axis: f32, iq: &mut [Cplx], add: bool) {
    #[cfg(target_arch = "x86_64")]
    if kernels.use_avx2() {
        // SAFETY: backend is only Avx2 when the feature was detected.
        unsafe { avx2::noise_into(rng, per_axis, iq, add) };
        return;
    }
    let _ = kernels;
    for x in iq {
        let (re, im) = noise_pair(rng, per_axis);
        let noise = Cplx::new(re, im);
        *x = if add { *x + noise } else { noise };
    }
}

/// Additive white Gaussian noise channel for unit-power constellations.
#[derive(Debug, Clone)]
pub struct AwgnChannel {
    rng: SimRng,
}

impl AwgnChannel {
    pub fn new(rng: SimRng) -> AwgnChannel {
        AwgnChannel { rng }
    }

    /// Apply noise at `snr_db` to unit-average-power symbols, returning
    /// the noisy symbols and the complex noise variance the receiver
    /// should assume. `DspKernels::awgn_apply` on the host's backend
    /// (the same noise on every backend).
    pub fn apply(&mut self, symbols: &[Cplx], snr_db: f64) -> (Vec<Cplx>, f32) {
        self.apply_on(DspKernels::detect(), symbols, snr_db)
    }

    /// [`AwgnChannel::apply`] on a given backend.
    pub(crate) fn apply_on(
        &mut self,
        kernels: DspKernels,
        symbols: &[Cplx],
        snr_db: f64,
    ) -> (Vec<Cplx>, f32) {
        let noise_var = (1.0 / db_to_linear(snr_db)) as f32;
        let per_axis = (noise_var / 2.0).sqrt();
        let mut out = symbols.to_vec();
        noise_into(kernels, &mut self.rng, per_axis, &mut out, true);
        (out, noise_var)
    }

    /// Chunked variant of [`AwgnChannel::apply`]: chunk `i` of
    /// [`CHANNEL_CHUNK`] symbols draws its noise from stream `split(i)`
    /// of one fork of the channel RNG, the splits taken in chunk order.
    /// The realization differs from `apply` (different stream layout);
    /// a caller must use one variant consistently.
    pub(crate) fn apply_with(
        &mut self,
        kernels: DspKernels,
        symbols: &[Cplx],
        snr_db: f64,
    ) -> (Vec<Cplx>, f32) {
        let noise_var = (1.0 / db_to_linear(snr_db)) as f32;
        let per_axis = (noise_var / 2.0).sqrt();
        let mut base = self.rng.fork("awgn-chunks");
        let mut out = symbols.to_vec();
        for (i, chunk) in out.chunks_mut(CHANNEL_CHUNK).enumerate() {
            noise_into(kernels, &mut base.split(i as u64), per_axis, chunk, true);
        }
        (out, noise_var)
    }

    /// Replace symbols entirely with noise — what the PHY sees when
    /// fronthaul packets are lost and it processes garbage IQ (§4:
    /// "indistinguishable from a noisy wireless channel").
    pub fn garbage(&mut self, len: usize) -> (Vec<Cplx>, f32) {
        self.garbage_on(DspKernels::detect(), len)
    }

    /// [`AwgnChannel::garbage`] on a given backend.
    pub(crate) fn garbage_on(&mut self, kernels: DspKernels, len: usize) -> (Vec<Cplx>, f32) {
        let mut out = vec![Cplx::ZERO; len];
        noise_into(kernels, &mut self.rng, (0.5f32).sqrt(), &mut out, false);
        (out, 1.0)
    }
}

/// AVX2 arm of the noise source: the same f32 noise as [`noise_pair`],
/// four samples at a time.
///
/// The uniforms are drawn serially, exactly as `noise_pair` draws them
/// (rejection included), into the thread's workspace. Then, in f64×4
/// lanes:
///
/// - `ln(u1)`: fdlibm's reduction `u1 = 2^k·(1+f)`, `√2/2 ≤ 1+f < √2`,
///   and its Lg1–Lg7 polynomial in `s = f/(2+f)`;
/// - `r = sqrt(-2·ln u1)`, correctly rounded as in the scalar path;
/// - `x = (2π)·u2`, the very multiply the scalar path does, so `x` is
///   bit-equal;
/// - `sin x`, `cos x`: a two-step Cody–Waite reduction by π/2
///   (`k = round(x·2/π)` in 0..=4; `k·PIO2_1` is exact and the first
///   subtraction is exact by Sterbenz) and fdlibm's S1–S6 / C1–C6
///   kernels on `|t| ≤ π/4`, the quadrant applied by swap and sign.
///
/// None of this is libm, so `y = r·c` may differ from libm's in its last
/// bits. A sample is kept only when that cannot change its f32: with
/// `e = (|y| + r)·2^-40`, `(y - e) as f32 == (y + e) as f32` means every
/// value within `e` of `y` rounds to the same f32 (rounding is
/// monotone), and libm's `y` is within `e`. Both sides are a few ulps
/// from the true value, so the real distance is below ~2^-50·(|y| + r)
/// (`polynomials_stay_far_inside_the_margin` measures it): a
/// thousandfold headroom. A sample that fails the check — its `y` sits
/// within `e` of an f32 rounding boundary, ~0.04 % of samples — is
/// recomputed with `noise_pair`'s libm arithmetic. No FMA: the arm needs
/// AVX2 alone.
#[cfg(target_arch = "x86_64")]
// The coefficients are fdlibm's published decimals, digit for digit.
#[allow(clippy::excessive_precision)]
pub(crate) mod avx2 {
    use super::{draw_uniforms, libm_pair, CHANNEL_CHUNK};
    use crate::iq::Cplx;
    use crate::scratch::WORKSPACE;
    use slingshot_sim::SimRng;
    use std::arch::x86_64::*;

    /// Half-width of the certified interval, relative to `|y| + r`.
    pub(crate) const MARGIN: f64 = 1.0 / (1u64 << 40) as f64;

    // fdlibm e_log.c.
    const LN2_HI: f64 = 6.931_471_803_691_238_164_90e-1;
    const LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;
    const LG1: f64 = 6.666_666_666_666_735_130e-1;
    const LG2: f64 = 3.999_999_999_940_941_908e-1;
    const LG3: f64 = 2.857_142_874_366_239_149e-1;
    const LG4: f64 = 2.222_219_843_214_978_396e-1;
    const LG5: f64 = 1.818_357_216_161_805_012e-1;
    const LG6: f64 = 1.531_383_769_920_937_332e-1;
    const LG7: f64 = 1.479_819_860_511_658_591e-1;
    // fdlibm k_sin.c / k_cos.c.
    const S1: f64 = -1.666_666_666_666_663_243_48e-1;
    const S2: f64 = 8.333_333_333_322_489_461_24e-3;
    const S3: f64 = -1.984_126_982_985_794_931_34e-4;
    const S4: f64 = 2.755_731_370_707_006_767_89e-6;
    const S5: f64 = -2.505_076_025_340_686_341_95e-8;
    const S6: f64 = 1.589_690_995_211_550_102_21e-10;
    const C1: f64 = 4.166_666_666_666_660_190_37e-2;
    const C2: f64 = -1.388_888_888_887_410_957_49e-3;
    const C3: f64 = 2.480_158_728_947_672_941_78e-5;
    const C4: f64 = -2.755_731_435_139_066_330_35e-7;
    const C5: f64 = 2.087_572_321_298_174_827_90e-9;
    const C6: f64 = -1.135_964_755_778_819_482_65e-11;
    // fdlibm e_rem_pio2.c: the first 33 bits of π/2 and the rest.
    const PIO2_1: f64 = 1.570_796_326_734_125_614_17;
    const PIO2_1T: f64 = 6.077_100_506_506_192_249_32e-11;

    /// `super::noise_into`: [`super::noise_pair`]'s values, drawn
    /// serially from `rng`, added to `iq` (or stored over it).
    ///
    /// # Safety
    /// Requires AVX2 (caller checks `is_x86_feature_detected!`).
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn noise_into(rng: &mut SimRng, per_axis: f32, iq: &mut [Cplx], add: bool) {
        let mut ws = WORKSPACE.take();
        let (u1s, u2s) = (&mut ws.awgn_u1, &mut ws.awgn_u2);
        let scale = _mm_set1_ps(per_axis);
        for block in iq.chunks_mut(CHANNEL_CHUNK) {
            u1s.clear();
            u2s.clear();
            for _ in 0..block.len() {
                let (u1, u2) = draw_uniforms(rng);
                u1s.push(u1);
                u2s.push(u2);
            }
            // A short last quad is padded with a harmless pair.
            u1s.resize(block.len().next_multiple_of(4), 0.5);
            u2s.resize(block.len().next_multiple_of(4), 0.0);
            let quads = u1s.chunks_exact(4).zip(u2s.chunks_exact(4));
            for (quad, (u1, u2)) in block.chunks_mut(4).zip(quads) {
                let (u1, u2): (&[f64; 4], &[f64; 4]) =
                    (u1.try_into().unwrap(), u2.try_into().unwrap());
                let (c, s, kept) = certified4(u1, u2);
                // `per_axis * (y as f32)`, as (re, im) pairs in order.
                let (c, s) = (_mm_mul_ps(scale, c), _mm_mul_ps(scale, s));
                let pairs = [_mm_unpacklo_ps(c, s), _mm_unpackhi_ps(c, s)];
                if kept == 0b1111 && quad.len() == 4 {
                    for (two, noise) in quad.chunks_exact_mut(2).zip(pairs) {
                        let p = two.as_mut_ptr().cast::<f32>();
                        // SAFETY: two `repr(C)` `Cplx` are four
                        // contiguous f32.
                        unsafe {
                            let v = if add {
                                _mm_add_ps(_mm_loadu_ps(p), noise)
                            } else {
                                noise
                            };
                            _mm_storeu_ps(p, v);
                        }
                    }
                    continue;
                }
                // A lane libm must redo, or a short last quad.
                let mut noise = [0f32; 8];
                // SAFETY: unaligned stores into a local `[f32; 8]`.
                unsafe {
                    _mm_storeu_ps(noise.as_mut_ptr(), pairs[0]);
                    _mm_storeu_ps(noise.as_mut_ptr().add(4), pairs[1]);
                }
                for (j, x) in quad.iter_mut().enumerate() {
                    let (re, im) = if kept & (1 << j) != 0 {
                        (noise[2 * j], noise[2 * j + 1])
                    } else {
                        let (c, s) = libm_pair(u1[j], u2[j]);
                        (per_axis * c as f32, per_axis * s as f32)
                    };
                    let n = Cplx::new(re, im);
                    *x = if add { *x + n } else { n };
                }
            }
        }
        WORKSPACE.set(ws);
    }

    /// `y as f32` for `r·cos θ` and `r·sin θ` of four uniform pairs, and
    /// a mask whose bit `j` is set when lane `j`'s two values are
    /// certified equal to libm's (the other lanes must be recomputed).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn certified4(u1: &[f64; 4], u2: &[f64; 4]) -> (__m128, __m128, u32) {
        // SAFETY: unaligned loads of two `[f64; 4]`s.
        let (u1, u2) = unsafe { (_mm256_loadu_pd(u1.as_ptr()), _mm256_loadu_pd(u2.as_ptr())) };
        let (r, yc, ys) = box_muller4(u1, u2);
        let (c, ok_c) = certify(yc, r);
        let (s, ok_s) = certify(ys, r);
        let kept = _mm_movemask_ps(_mm_castsi128_ps(_mm_and_si128(ok_c, ok_s))) as u32;
        (c, s, kept)
    }

    /// `y as f32`, and all-ones 32-bit lanes where `(y ± e) as f32`
    /// agree, `e = (|y| + r)·MARGIN`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn certify(y: __m256d, r: __m256d) -> (__m128, __m128i) {
        let abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(i64::MAX));
        let e = _mm256_mul_pd(
            _mm256_add_pd(_mm256_and_pd(y, abs_mask), r),
            _mm256_set1_pd(MARGIN),
        );
        let lo = _mm256_cvtpd_ps(_mm256_sub_pd(y, e));
        let hi = _mm256_cvtpd_ps(_mm256_add_pd(y, e));
        let ok = _mm_cmpeq_epi32(_mm_castps_si128(lo), _mm_castps_si128(hi));
        (_mm256_cvtpd_ps(y), ok)
    }

    /// `(r, r·cos 2πu2, r·sin 2πu2)` with `r = sqrt(-2 ln u1)`, four
    /// lanes, in the polynomials described on the module. `u1` must be
    /// a positive normal number at most 1, `u2` in `[0, 1)`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn box_muller4(u1: __m256d, u2: __m256d) -> (__m256d, __m256d, __m256d) {
        let r = _mm256_sqrt_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0), ln4(u1)));
        let x = _mm256_mul_pd(_mm256_set1_pd(2.0 * std::f64::consts::PI), u2);
        let (s, c) = sin_cos4(x);
        (r, _mm256_mul_pd(r, c), _mm256_mul_pd(r, s))
    }

    /// Horner evaluation of `c[0] + z·(c[1] + z·(…))`, no FMA.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn horner(z: __m256d, c: &[f64]) -> __m256d {
        let (last, rest) = c.split_last().expect("a polynomial has a coefficient");
        let mut acc = _mm256_set1_pd(*last);
        for &k in rest.iter().rev() {
            acc = _mm256_add_pd(_mm256_set1_pd(k), _mm256_mul_pd(z, acc));
        }
        acc
    }

    /// Natural log of a positive normal `x` (fdlibm `__ieee754_log`'s
    /// main path).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn ln4(x: __m256d) -> __m256d {
        let bits = _mm256_castpd_si256(x);
        // High word of each lane: exponent and top 20 fraction bits.
        let hx = _mm256_srli_epi64::<32>(bits);
        let frac_hi = _mm256_and_si256(hx, _mm256_set1_epi64x(0x000f_ffff));
        // Fractions past √2 take the next exponent: 1+f in [√2/2, √2).
        let i = _mm256_and_si256(
            _mm256_add_epi64(frac_hi, _mm256_set1_epi64x(0x95f64)),
            _mm256_set1_epi64x(0x10_0000),
        );
        let high = _mm256_or_si256(
            frac_hi,
            _mm256_xor_si256(i, _mm256_set1_epi64x(0x3ff0_0000)),
        );
        let low = _mm256_and_si256(bits, _mm256_set1_epi64x(0xffff_ffff));
        let m = _mm256_castsi256_pd(_mm256_or_si256(_mm256_slli_epi64::<32>(high), low));
        // k + 1024 in 0..2048, converted exactly through 2^52.
        let k_biased = _mm256_add_epi64(
            _mm256_srli_epi64::<20>(hx),
            _mm256_add_epi64(_mm256_srli_epi64::<20>(i), _mm256_set1_epi64x(1)),
        );
        let magic = _mm256_set1_epi64x(0x4330_0000_0000_0000);
        let dk = _mm256_sub_pd(
            _mm256_castsi256_pd(_mm256_or_si256(k_biased, magic)),
            _mm256_set1_pd(4_503_599_627_371_520.0), // 2^52 + 1024
        );
        let f = _mm256_sub_pd(m, _mm256_set1_pd(1.0));
        let s = _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
        let z = _mm256_mul_pd(s, s);
        let w = _mm256_mul_pd(z, z);
        let t1 = _mm256_mul_pd(w, horner(w, &[LG2, LG4, LG6]));
        let t2 = _mm256_mul_pd(z, horner(w, &[LG1, LG3, LG5, LG7]));
        let rr = _mm256_add_pd(t2, t1);
        let hfsq = _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(0.5), f), f);
        // dk·ln2_hi - ((hfsq - (s·(hfsq + R) + dk·ln2_lo)) - f)
        let inner = _mm256_add_pd(
            _mm256_mul_pd(s, _mm256_add_pd(hfsq, rr)),
            _mm256_mul_pd(dk, _mm256_set1_pd(LN2_LO)),
        );
        let tail = _mm256_sub_pd(_mm256_sub_pd(hfsq, inner), f);
        _mm256_sub_pd(_mm256_mul_pd(dk, _mm256_set1_pd(LN2_HI)), tail)
    }

    /// `(sin x, cos x)` for `x` in `[0, 2π]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn sin_cos4(x: __m256d) -> (__m256d, __m256d) {
        let kf = _mm256_round_pd::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm256_mul_pd(x, _mm256_set1_pd(std::f64::consts::FRAC_2_PI)),
        );
        let t = _mm256_sub_pd(
            _mm256_sub_pd(x, _mm256_mul_pd(kf, _mm256_set1_pd(PIO2_1))),
            _mm256_mul_pd(kf, _mm256_set1_pd(PIO2_1T)),
        );
        let z = _mm256_mul_pd(t, t);
        // k_sin: t + t·z·(S1 + z·(S2 + …))
        let sin_t = _mm256_add_pd(
            t,
            _mm256_mul_pd(_mm256_mul_pd(z, t), horner(z, &[S1, S2, S3, S4, S5, S6])),
        );
        // k_cos: w + (((1 - w) - z/2) + z·R), w = 1 - z/2, R = z·(C1 + …)
        let one = _mm256_set1_pd(1.0);
        let hz = _mm256_mul_pd(_mm256_set1_pd(0.5), z);
        let w = _mm256_sub_pd(one, hz);
        let rc = _mm256_mul_pd(z, horner(z, &[C1, C2, C3, C4, C5, C6]));
        let cos_t = _mm256_add_pd(
            w,
            _mm256_add_pd(
                _mm256_sub_pd(_mm256_sub_pd(one, w), hz),
                _mm256_mul_pd(z, rc),
            ),
        );
        // Quadrant q = k mod 4: (sin, cos) = (s, c), (c, -s), (-s, -c), (-c, s).
        let q = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(kf));
        let bit0 = _mm256_set1_epi64x(1);
        let odd = _mm256_castsi256_pd(_mm256_cmpeq_epi64(_mm256_and_si256(q, bit0), bit0));
        let sin_v = _mm256_blendv_pd(sin_t, cos_t, odd);
        let cos_v = _mm256_blendv_pd(cos_t, sin_t, odd);
        let bit1 = _mm256_set1_epi64x(2);
        let sin_sign = _mm256_slli_epi64::<62>(_mm256_and_si256(q, bit1));
        let cos_sign = _mm256_slli_epi64::<62>(_mm256_and_si256(_mm256_add_epi64(q, bit0), bit1));
        (
            _mm256_xor_pd(sin_v, _mm256_castsi256_pd(sin_sign)),
            _mm256_xor_pd(cos_v, _mm256_castsi256_pd(cos_sign)),
        )
    }
}

/// Parameters of a UE's SNR evolution.
#[derive(Debug, Clone)]
pub struct SnrProcessConfig {
    /// Long-run mean SNR in dB.
    pub mean_db: f64,
    /// Standard deviation of per-step innovation, dB.
    pub step_std_db: f64,
    /// Mean-reversion rate per step (0..1).
    pub reversion: f64,
    /// Probability per step of entering a deep fade.
    pub fade_chance: f64,
    /// Fade depth in dB.
    pub fade_depth_db: f64,
    /// Fade duration in steps.
    pub fade_steps: u32,
}

impl Default for SnrProcessConfig {
    fn default() -> SnrProcessConfig {
        SnrProcessConfig {
            mean_db: 18.0,
            step_std_db: 0.35,
            reversion: 0.05,
            fade_chance: 0.0008,
            fade_depth_db: 8.0,
            fade_steps: 20,
        }
    }
}

/// A per-UE SNR process, stepped once per slot.
#[derive(Debug, Clone)]
pub struct SnrProcess {
    cfg: SnrProcessConfig,
    rng: SimRng,
    current_db: f64,
    fade_remaining: u32,
}

impl SnrProcess {
    pub fn new(cfg: SnrProcessConfig, rng: SimRng) -> SnrProcess {
        let current_db = cfg.mean_db;
        SnrProcess {
            cfg,
            rng,
            current_db,
            fade_remaining: 0,
        }
    }

    /// Advance one slot and return the SNR (dB) for that slot.
    pub fn step(&mut self) -> f64 {
        let innovation = self.rng.normal(0.0, self.cfg.step_std_db);
        self.current_db += self.cfg.reversion * (self.cfg.mean_db - self.current_db) + innovation;
        if self.fade_remaining > 0 {
            self.fade_remaining -= 1;
        } else if self.rng.chance(self.cfg.fade_chance) {
            self.fade_remaining = self.cfg.fade_steps;
        }
        let fade = if self.fade_remaining > 0 {
            self.cfg.fade_depth_db
        } else {
            0.0
        };
        self.current_db - fade
    }

    /// The long-run mean the process reverts to.
    pub fn mean_db(&self) -> f64 {
        self.cfg.mean_db
    }

    /// Re-target the long-run mean (a mobility model moving the UE
    /// through a path-loss field retargets this every slot; the walk
    /// then reverts toward the new mean instead of jumping).
    pub fn set_mean_db(&mut self, db: f64) {
        self.cfg.mean_db = db;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::DspKernels;
    use crate::modulation::{hard_decide, modulate, Modulation};

    fn demodulate_llr(symbols: &[Cplx], modulation: Modulation, noise_var: f32) -> Vec<f32> {
        DspKernels::scalar().demodulate_llr(symbols, modulation, noise_var)
    }

    #[test]
    fn snr_process_fork_determinism() {
        // Same seed + same fork label ⇒ byte-identical trajectory.
        let mut parent_a = SimRng::new(42);
        let mut parent_b = SimRng::new(42);
        let mut p1 = SnrProcess::new(SnrProcessConfig::default(), parent_a.fork("snr"));
        let mut p2 = SnrProcess::new(SnrProcessConfig::default(), parent_b.fork("snr"));
        for _ in 0..5_000 {
            assert_eq!(p1.step().to_bits(), p2.step().to_bits());
        }
        // A different fork label diverges.
        let mut p3 = SnrProcess::new(SnrProcessConfig::default(), SimRng::new(42).fork("other"));
        let mut p4 = SnrProcess::new(SnrProcessConfig::default(), SimRng::new(42).fork("snr"));
        let same = (0..100).all(|_| p3.step().to_bits() == p4.step().to_bits());
        assert!(!same, "distinct fork labels must yield distinct streams");
    }

    #[test]
    fn snr_process_split_reproducibility() {
        // split(k) from equal parents is reproducible, and distinct
        // shard indices produce distinct trajectories.
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        let mut p1 = SnrProcess::new(SnrProcessConfig::default(), a.split(3));
        let mut p2 = SnrProcess::new(SnrProcessConfig::default(), b.split(3));
        for _ in 0..2_000 {
            assert_eq!(p1.step().to_bits(), p2.step().to_bits());
        }
        let mut c = SimRng::new(7);
        let mut d = SimRng::new(7);
        let mut q1 = SnrProcess::new(SnrProcessConfig::default(), c.split(0));
        let mut q2 = SnrProcess::new(SnrProcessConfig::default(), d.split(1));
        let same = (0..100).all(|_| q1.step().to_bits() == q2.step().to_bits());
        assert!(!same, "distinct shard splits must yield distinct streams");
    }

    #[test]
    fn snr_process_stays_bounded_at_extremes() {
        // Mean reversion keeps the walk near the mean even with a large
        // innovation std; fades only subtract a bounded depth.
        for (mean, std) in [(-10.0, 3.0), (0.0, 0.0), (45.0, 5.0)] {
            let cfg = SnrProcessConfig {
                mean_db: mean,
                step_std_db: std,
                reversion: 0.05,
                fade_chance: 0.01,
                fade_depth_db: 8.0,
                fade_steps: 20,
            };
            let mut p = SnrProcess::new(cfg.clone(), SimRng::new(9));
            for _ in 0..20_000 {
                let v = p.step();
                assert!(v.is_finite());
                // Stationary std of an AR(1) walk is
                // std/sqrt(1-(1-r)^2); 10 sigma plus fade depth is a
                // deep deterministic bound.
                let stationary = if std > 0.0 {
                    std / (1.0 - (1.0 - cfg.reversion).powi(2)).sqrt()
                } else {
                    0.0
                };
                let bound = 10.0 * stationary + cfg.fade_depth_db + 1e-9;
                assert!(
                    (v - mean).abs() <= bound,
                    "snr {v} strayed past {bound} dB from mean {mean}"
                );
            }
        }
        // Zero variance, zero fades: the process is pinned to its mean.
        let cfg = SnrProcessConfig {
            mean_db: 12.0,
            step_std_db: 0.0,
            fade_chance: 0.0,
            ..SnrProcessConfig::default()
        };
        let mut p = SnrProcess::new(cfg, SimRng::new(1));
        for _ in 0..100 {
            assert_eq!(p.step(), 12.0);
        }
    }

    #[test]
    fn snr_process_retargets_mean_without_jumping() {
        let cfg = SnrProcessConfig {
            step_std_db: 0.0,
            fade_chance: 0.0,
            ..SnrProcessConfig::default()
        };
        let mut p = SnrProcess::new(cfg, SimRng::new(3));
        assert_eq!(p.mean_db(), 18.0);
        p.set_mean_db(6.0);
        assert_eq!(p.mean_db(), 6.0);
        let first = p.step();
        // One reversion step moves 5% of the gap, not the whole way.
        assert!((first - (18.0 + 0.05 * (6.0 - 18.0))).abs() < 1e-9);
        let mut last = first;
        for _ in 0..2_000 {
            last = p.step();
        }
        assert!((last - 6.0).abs() < 0.01, "converges to the new mean");
    }

    #[test]
    fn db_conversions() {
        assert!((db_to_linear(0.0) - 1.0).abs() < 1e-12);
        assert!((db_to_linear(10.0) - 10.0).abs() < 1e-9);
        assert!((linear_to_db(100.0) - 20.0).abs() < 1e-9);
        assert!((linear_to_db(db_to_linear(7.3)) - 7.3).abs() < 1e-9);
    }

    #[test]
    fn awgn_noise_power_matches_snr() {
        let mut ch = AwgnChannel::new(SimRng::new(1));
        let symbols = vec![Cplx::new(1.0, 0.0); 50_000];
        let (noisy, nv) = ch.apply(&symbols, 10.0);
        assert!((nv - 0.1).abs() < 1e-6);
        let measured: f32 = noisy
            .iter()
            .zip(&symbols)
            .map(|(a, b)| (*a - *b).norm_sq())
            .sum::<f32>()
            / symbols.len() as f32;
        assert!((measured - 0.1).abs() < 0.01, "measured={measured}");
    }

    #[test]
    fn high_snr_transparent_low_snr_destructive() {
        let mut ch = AwgnChannel::new(SimRng::new(2));
        let bits: Vec<u8> = (0..4000).map(|i| ((i * 13) % 2) as u8).collect();
        let syms = modulate(&bits, Modulation::Qam16);
        let (clean, nv) = ch.apply(&syms, 30.0);
        let rx = hard_decide(&demodulate_llr(&clean, Modulation::Qam16, nv));
        let errs_hi = rx.iter().zip(&bits).filter(|(a, b)| a != b).count();
        assert_eq!(errs_hi, 0);
        let (dirty, nv) = ch.apply(&syms, -5.0);
        let rx = hard_decide(&demodulate_llr(&dirty, Modulation::Qam16, nv));
        let errs_lo = rx.iter().zip(&bits).filter(|(a, b)| a != b).count();
        assert!(errs_lo > 800, "errs_lo={errs_lo}");
    }

    #[test]
    fn apply_with_realization_is_pinned() {
        // A known answer for the chunked realization: per-chunk streams
        // `split(i)` of one fork, over three chunks and a short fourth,
        // on every backend. The pin is an FNV-1a hash of the output's
        // f32 bits; the channel stream must have advanced by the one
        // draw of the fork.
        let symbols = vec![Cplx::new(1.0, -1.0); 3 * CHANNEL_CHUNK + 17];
        for kernels in [DspKernels::scalar(), DspKernels::detect()] {
            let mut ch = AwgnChannel::new(SimRng::new(9));
            let (a, nv) = ch.apply_with(kernels, &symbols, 12.0);
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for x in a.iter().flat_map(|s| [s.re.to_bits(), s.im.to_bits()]) {
                h = (h ^ x as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
            assert_eq!(
                h,
                0x35e7_eeaf_a470_6d2f,
                "realization on {}",
                kernels.name()
            );
            assert_eq!(nv.to_bits(), 0x3d81_3856);
            assert_eq!(ch.rng.next_u64(), 0x4061_9b85_d152_fbf9);
            // Noise power still matches the requested SNR.
            let measured: f32 = a
                .iter()
                .zip(&symbols)
                .map(|(x, s)| (*x - *s).norm_sq())
                .sum::<f32>()
                / a.len() as f32;
            assert!((measured - nv).abs() < 0.005, "measured={measured}");
        }
    }

    /// The AVX2 arm's `y = r·cos θ`, `r·sin θ` against libm's before
    /// the f32 rounding, on 10^6 draws plus the inputs where the
    /// reductions are hardest: `u2` at and around each quadrant boundary
    /// k/4, `u1` tiny and just below 1. The distance must stay 2^6 below
    /// the certification margin, so a polynomial regression fails here
    /// rather than hiding behind the libm fallback.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn polynomials_stay_far_inside_the_margin() {
        use slingshot_sim::KernelBackend;
        use std::arch::x86_64::*;

        #[target_feature(enable = "avx2")]
        fn fast4(u1: &[f64; 4], u2: &[f64; 4]) -> [[f64; 4]; 3] {
            let mut out = [[0.0; 4]; 3];
            // SAFETY: unaligned loads and stores of `[f64; 4]`s.
            unsafe {
                let (r, yc, ys) =
                    avx2::box_muller4(_mm256_loadu_pd(u1.as_ptr()), _mm256_loadu_pd(u2.as_ptr()));
                for (o, v) in out.iter_mut().zip([r, yc, ys]) {
                    _mm256_storeu_pd(o.as_mut_ptr(), v);
                }
            }
            out
        }

        if !KernelBackend::Avx2.available() {
            return;
        }
        let mut rng = SimRng::new(0xB0C5);
        let mut pairs: Vec<(f64, f64)> = (0..1_000_000).map(|_| draw_uniforms(&mut rng)).collect();
        let mut u1s = vec![1e-300, f64::MIN_POSITIVE * 2.0, 2f64.powi(-53), 0.5, 1.0];
        u1s.extend((0..=40).map(|j| 1.0 - j as f64 * 2.5e-15));
        u1s.extend((0..20).map(|_| rng.f64().max(1e-9)));
        for q in 0..=4 {
            for j in -1000i32..=1000 {
                let u2 = q as f64 / 4.0 + j as f64 * 1e-15;
                if (0.0..1.0).contains(&u2) {
                    pairs.extend(u1s.iter().map(|&u1| (u1, u2)));
                }
            }
        }
        assert!(pairs.len() > 1_500_000, "{} draws", pairs.len());
        let mut worst = 0.0f64;
        let mut fallbacks = 0usize;
        for (q, quad) in pairs.chunks_exact(4).enumerate() {
            let u1 = std::array::from_fn(|j| quad[j].0);
            let u2 = std::array::from_fn(|j| quad[j].1);
            // SAFETY: AVX2 was detected above.
            let [r, yc, ys] = unsafe { fast4(&u1, &u2) };
            for j in 0..4 {
                let (lc, ls) = libm_pair(u1[j], u2[j]);
                let r_libm = (-2.0 * u1[j].ln()).sqrt();
                for (fast, libm) in [(yc[j], lc), (ys[j], ls)] {
                    // The arm's own check, on the random draws only.
                    let e = (fast.abs() + r[j]) * avx2::MARGIN;
                    if q < 250_000 && ((fast - e) as f32).to_bits() != ((fast + e) as f32).to_bits()
                    {
                        fallbacks += 1;
                    }
                    let scale = libm.abs() + r_libm;
                    if scale > 0.0 {
                        worst = worst.max((fast - libm).abs() / scale);
                    } else {
                        assert_eq!(fast.to_bits(), libm.to_bits(), "u1 {} u2 {}", u1[j], u2[j]);
                    }
                }
                assert!((r[j] - r_libm).abs() <= r_libm * 1e-14, "r at u1 {}", u1[j]);
            }
        }
        assert!(
            worst <= avx2::MARGIN / 64.0,
            "worst |y_fast - y_libm| / (|y| + r) = 2^{:.1}, margin 2^{:.1}",
            worst.log2(),
            avx2::MARGIN.log2()
        );
        // Each of 2·10^6 values falls back with probability ~2^-12 (the
        // margin over an f32 ulp): ~500 expected.
        assert!(
            fallbacks < 2_000,
            "{fallbacks} of 2 000 000 values fell back to libm"
        );
        eprintln!(
            "worst distance 2^{:.1} of (|y| + r); {fallbacks} of 2 000 000 values fell back",
            worst.log2()
        );
    }

    #[test]
    fn garbage_looks_like_noise() {
        let mut ch = AwgnChannel::new(SimRng::new(3));
        let (g, nv) = ch.garbage(10_000);
        assert_eq!(nv, 1.0);
        let p: f32 = g.iter().map(|s| s.norm_sq()).sum::<f32>() / g.len() as f32;
        assert!((p - 1.0).abs() < 0.05, "power={p}");
    }

    #[test]
    fn snr_process_reverts_to_mean() {
        let cfg = SnrProcessConfig {
            fade_chance: 0.0,
            ..Default::default()
        };
        let mean = cfg.mean_db;
        let mut p = SnrProcess::new(cfg, SimRng::new(4));
        let samples: Vec<f64> = (0..20_000).map(|_| p.step()).collect();
        let avg = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((avg - mean).abs() < 1.0, "avg={avg}");
        let max = samples.iter().cloned().fold(f64::MIN, f64::max);
        let min = samples.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min > 1.0, "should vary");
        assert!(max - min < 25.0, "should not blow up: range={}", max - min);
    }

    #[test]
    fn fades_reduce_snr_temporarily() {
        let cfg = SnrProcessConfig {
            fade_chance: 0.05,
            fade_depth_db: 10.0,
            fade_steps: 5,
            step_std_db: 0.01,
            ..Default::default()
        };
        let mean = cfg.mean_db;
        let mut p = SnrProcess::new(cfg, SimRng::new(5));
        let samples: Vec<f64> = (0..5_000).map(|_| p.step()).collect();
        let faded = samples.iter().filter(|s| **s < mean - 5.0).count();
        assert!(faded > 100, "faded={faded}");
        // And it recovers: last stretch not permanently faded.
        let tail_avg = samples[4_900..].iter().sum::<f64>() / 100.0;
        assert!(tail_avg > mean - 10.0);
    }

    #[test]
    fn snr_process_deterministic() {
        let mk = || SnrProcess::new(Default::default(), SimRng::new(6));
        let a: Vec<f64> = {
            let mut p = mk();
            (0..100).map(|_| p.step()).collect()
        };
        let b: Vec<f64> = {
            let mut p = mk();
            (0..100).map(|_| p.step()).collect()
        };
        assert_eq!(a, b);
    }
}
