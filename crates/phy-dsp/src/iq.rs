//! IQ samples and O-RAN-style block floating point (BFP) compression.
//!
//! The fronthaul carries frequency-domain IQ samples. O-RAN split 7.2x
//! deployments compress them with block floating point: each PRB's 12
//! complex samples share a 4-bit exponent, and mantissas are quantized
//! (commonly to 9 bits). We implement the same scheme; its quantization
//! noise is part of what the PHY's decoder sees.

use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A complex baseband sample.
///
/// `repr(C)` so slices of samples are guaranteed to be interleaved
/// `re, im, re, im, …` f32 words in memory — the layout the SIMD
/// kernels load and deinterleave directly.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cplx {
    pub re: f32,
    pub im: f32,
}

impl Cplx {
    pub const ZERO: Cplx = Cplx { re: 0.0, im: 0.0 };

    pub fn new(re: f32, im: f32) -> Cplx {
        Cplx { re, im }
    }

    pub(crate) fn norm_sq(self) -> f32 {
        self.re * self.re + self.im * self.im
    }

    pub fn abs(self) -> f32 {
        self.norm_sq().sqrt()
    }

    pub(crate) fn conj(self) -> Cplx {
        Cplx::new(self.re, -self.im)
    }

    pub fn scale(self, s: f32) -> Cplx {
        Cplx::new(self.re * s, self.im * s)
    }
}

impl Add for Cplx {
    type Output = Cplx;
    fn add(self, rhs: Cplx) -> Cplx {
        Cplx::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Cplx {
    fn add_assign(&mut self, rhs: Cplx) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Cplx {
    type Output = Cplx;
    fn sub(self, rhs: Cplx) -> Cplx {
        Cplx::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Cplx {
    type Output = Cplx;
    fn mul(self, rhs: Cplx) -> Cplx {
        Cplx::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Neg for Cplx {
    type Output = Cplx;
    fn neg(self) -> Cplx {
        Cplx::new(-self.re, -self.im)
    }
}

/// Subcarriers per physical resource block.
pub const SC_PER_PRB: usize = 12;

/// Mantissa width used by the BFP compressor (O-RAN's common 9-bit mode).
pub(crate) const BFP_MANTISSA_BITS: u32 = 9;

/// One PRB's worth of compressed IQ: a shared exponent and 12 pairs of
/// signed mantissas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfpPrb {
    pub exponent: u8,
    /// Interleaved re/im mantissas, two's complement in `i16`.
    pub mantissas: [i16; 2 * SC_PER_PRB],
}

impl BfpPrb {
    /// Serialized size on the wire: 1 exponent byte + 24 mantissas at 9
    /// bits, rounded up to whole bytes (matching O-RAN's packed layout).
    pub const WIRE_BYTES: usize = 1 + (2 * SC_PER_PRB * BFP_MANTISSA_BITS as usize).div_ceil(8);
}

/// Fixed-point reference scale: map float 1.0 to 2^12. This leaves
/// headroom for constellation peaks and channel gain.
const SCALE: f32 = 4096.0;

/// Compress 12 complex samples into a BFP PRB (scalar oracle). Input
/// amplitudes are expected to be "sane" baseband values (|x| < ~2^15
/// after the fixed scaling); values beyond that saturate.
pub(crate) fn bfp_compress_scalar(samples: &[Cplx; SC_PER_PRB]) -> BfpPrb {
    let mut fixed = [0i64; 2 * SC_PER_PRB];
    for (i, s) in samples.iter().enumerate() {
        fixed[2 * i] = (s.re as f64 * SCALE as f64).round() as i64;
        fixed[2 * i + 1] = (s.im as f64 * SCALE as f64).round() as i64;
    }
    bfp_pack_fixed(&fixed)
}

/// Exponent selection and mantissa quantization shared by the scalar
/// and SIMD compressors (both produce the same fixed-point words, so
/// everything downstream of this point is common, integer-exact code).
fn bfp_pack_fixed(fixed: &[i64; 2 * SC_PER_PRB]) -> BfpPrb {
    let mut max_abs: i64 = 0;
    for f in fixed {
        max_abs = max_abs.max(f.abs());
    }
    // Choose the smallest exponent such that max_abs >> exp fits in the
    // signed mantissa range. Exponent is capped at the wire field's
    // 8-bit range; anything larger saturates the mantissas.
    let limit = (1i64 << (BFP_MANTISSA_BITS - 1)) - 1;
    let mut exponent = 0u8;
    while exponent < 40 && (max_abs >> exponent) > limit {
        exponent += 1;
    }
    let mut mantissas = [0i16; 2 * SC_PER_PRB];
    for (m, f) in mantissas.iter_mut().zip(fixed.iter()) {
        *m = (f >> exponent).clamp(-(limit + 1), limit) as i16;
    }
    BfpPrb {
        exponent,
        mantissas,
    }
}

/// Decompress a BFP PRB back to float samples (scalar oracle).
pub(crate) fn bfp_decompress_scalar(prb: &BfpPrb) -> [Cplx; SC_PER_PRB] {
    let mut out = [Cplx::ZERO; SC_PER_PRB];
    for (i, o) in out.iter_mut().enumerate() {
        let re = (prb.mantissas[2 * i] as i64) << prb.exponent.min(40);
        let im = (prb.mantissas[2 * i + 1] as i64) << prb.exponent.min(40);
        *o = Cplx::new(re as f32 / SCALE, im as f32 / SCALE);
    }
    out
}

/// AVX2 BFP pack/unpack. Bit-exact versus the scalar oracle: the
/// float→fixed rounding is done in f64 exactly as the scalar path
/// (`round()` = half-away-from-zero, reproduced as
/// `trunc(y + copysign(0.5, y))`, which is exact for every `f32 × 4096`
/// value in the fast-path range), and everything after the fixed-point
/// conversion is shared integer code. Inputs outside ±2^19 (where the
/// product no longer fits the vector i32 path) or non-finite fall back
/// to the scalar compressor, which defines saturation behavior.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use super::{bfp_pack_fixed, BfpPrb, Cplx, SCALE, SC_PER_PRB};
    use std::arch::x86_64::*;

    /// Fast-path amplitude bound: |x| < 2^19 keeps |x·4096| < 2^31.
    const FAST_ABS_LIMIT: f32 = 524_288.0;

    /// # Safety
    /// Requires AVX2 (caller checks `is_x86_feature_detected!`).
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn bfp_compress(samples: &[Cplx; SC_PER_PRB]) -> BfpPrb {
        let p = samples.as_ptr() as *const f32;
        let absmask = _mm256_set1_ps(f32::from_bits(0x7FFF_FFFF));
        let lim = _mm256_set1_ps(FAST_ABS_LIMIT);
        let mut in_range = 0xFFu32;
        for k in 0..3 {
            let v = _mm256_loadu_ps(p.add(8 * k));
            let ok = _mm256_cmp_ps::<_CMP_LT_OQ>(_mm256_and_ps(v, absmask), lim);
            in_range &= _mm256_movemask_ps(ok) as u32;
        }
        if in_range != 0xFF {
            // Huge or non-finite samples: the scalar path defines
            // saturation, so let it handle the whole PRB.
            return super::bfp_compress_scalar(samples);
        }
        let scale = _mm256_set1_pd(SCALE as f64);
        let half = _mm256_set1_pd(0.5);
        let signmask = _mm256_set1_pd(f64::from_bits(0x8000_0000_0000_0000));
        let mut fixed32 = [0i32; 2 * SC_PER_PRB];
        for k in 0..6 {
            let q = _mm256_cvtps_pd(_mm_loadu_ps(p.add(4 * k)));
            let y = _mm256_mul_pd(q, scale);
            // round half away from zero, exactly as f64::round().
            let bias = _mm256_or_pd(_mm256_and_pd(y, signmask), half);
            let t = _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(_mm256_add_pd(
                y, bias,
            ));
            let i = _mm256_cvttpd_epi32(t);
            _mm_storeu_si128(fixed32.as_mut_ptr().add(4 * k) as *mut __m128i, i);
        }
        let mut fixed = [0i64; 2 * SC_PER_PRB];
        for (w, f) in fixed.iter_mut().zip(fixed32.iter()) {
            *w = *f as i64;
        }
        bfp_pack_fixed(&fixed)
    }

    /// # Safety
    /// Requires AVX2 (caller checks `is_x86_feature_detected!`).
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn bfp_decompress(prb: &BfpPrb) -> [Cplx; SC_PER_PRB] {
        // mantissa · 2^(exp-12): an exact power-of-two scaling of a
        // 9-bit integer, identical to the scalar `(m << e) as f32 / 4096`.
        let exp = prb.exponent.min(40) as i32;
        let scale = _mm256_set1_ps(f32::from_bits(((127 + exp - 12) as u32) << 23));
        let mut out = [Cplx::ZERO; SC_PER_PRB];
        let dst = out.as_mut_ptr() as *mut f32;
        for k in 0..3 {
            let m16 = _mm_loadu_si128(prb.mantissas.as_ptr().add(8 * k) as *const __m128i);
            let m32 = _mm256_cvtepi16_epi32(m16);
            let f = _mm256_mul_ps(_mm256_cvtepi32_ps(m32), scale);
            _mm256_storeu_ps(dst.add(8 * k), f);
        }
        out
    }
}

/// Append a PRB's wire form (exponent byte, then mantissas packed as
/// 9-bit big-endian fields) to an existing buffer, so message
/// serialization packs a whole symbol's PRBs into one frame body.
pub fn bfp_write_bytes(prb: &BfpPrb, out: &mut Vec<u8>) {
    out.push(prb.exponent);
    let mut acc: u32 = 0;
    let mut nbits: u32 = 0;
    for &m in &prb.mantissas {
        let v = (m as u16) & ((1 << BFP_MANTISSA_BITS) - 1);
        acc = (acc << BFP_MANTISSA_BITS) | v as u32;
        nbits += BFP_MANTISSA_BITS;
        while nbits >= 8 {
            nbits -= 8;
            out.push((acc >> nbits) as u8);
        }
    }
    if nbits > 0 {
        out.push((acc << (8 - nbits)) as u8);
    }
}

/// Parse a BFP PRB from bytes.
pub fn bfp_from_bytes(b: &[u8]) -> Option<BfpPrb> {
    if b.len() < BfpPrb::WIRE_BYTES {
        return None;
    }
    let exponent = b[0];
    let mut mantissas = [0i16; 2 * SC_PER_PRB];
    let mut acc: u32 = 0;
    let mut nbits: u32 = 0;
    let mut idx = 1;
    for m in mantissas.iter_mut() {
        while nbits < BFP_MANTISSA_BITS {
            acc = (acc << 8) | b[idx] as u32;
            idx += 1;
            nbits += 8;
        }
        nbits -= BFP_MANTISSA_BITS;
        let raw = ((acc >> nbits) & ((1 << BFP_MANTISSA_BITS) - 1)) as u16;
        // Sign-extend from 9 bits.
        let sign_bit = 1u16 << (BFP_MANTISSA_BITS - 1);
        *m = if raw & sign_bit != 0 {
            (raw | !((1 << BFP_MANTISSA_BITS) - 1)) as i16
        } else {
            raw as i16
        };
    }
    Some(BfpPrb {
        exponent,
        mantissas,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `detect()` runs the SIMD path on capable hosts (bit-exact with
    /// scalar by contract, so every assertion below is backend-free).
    fn bfp_compress(s: &[Cplx; SC_PER_PRB]) -> BfpPrb {
        crate::DspKernels::detect().bfp_compress(s)
    }

    fn bfp_decompress(prb: &BfpPrb) -> [Cplx; SC_PER_PRB] {
        crate::DspKernels::detect().bfp_decompress(prb)
    }

    fn sample_prb(scale: f32) -> [Cplx; SC_PER_PRB] {
        let mut s = [Cplx::ZERO; SC_PER_PRB];
        for (i, v) in s.iter_mut().enumerate() {
            let phase = i as f32 * 0.7;
            *v = Cplx::new(scale * phase.cos(), scale * phase.sin());
        }
        s
    }

    #[test]
    fn complex_arithmetic() {
        let a = Cplx::new(1.0, 2.0);
        let b = Cplx::new(3.0, -1.0);
        assert_eq!(a + b, Cplx::new(4.0, 1.0));
        assert_eq!(a - b, Cplx::new(-2.0, 3.0));
        assert_eq!(a * b, Cplx::new(5.0, 5.0));
        assert_eq!(a.conj(), Cplx::new(1.0, -2.0));
        assert_eq!((-a), Cplx::new(-1.0, -2.0));
        assert!((a.norm_sq() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn bfp_roundtrip_error_bounded() {
        for scale in [0.1f32, 1.0, 3.0] {
            let s = sample_prb(scale);
            let prb = bfp_compress(&s);
            let d = bfp_decompress(&prb);
            for (orig, dec) in s.iter().zip(d.iter()) {
                let err = (*orig - *dec).abs();
                // Quantization step = 2^exp / 4096.
                let step = (1u32 << prb.exponent) as f32 / 4096.0;
                assert!(err <= step * 1.5, "err={err} step={step} scale={scale}");
            }
        }
    }

    #[test]
    fn bfp_snr_is_high() {
        // 9-bit mantissas should give > 40 dB SQNR on typical signals.
        let s = sample_prb(1.0);
        let prb = bfp_compress(&s);
        let d = bfp_decompress(&prb);
        let sig: f32 = s.iter().map(|x| x.norm_sq()).sum();
        let noise: f32 = s
            .iter()
            .zip(d.iter())
            .map(|(a, b)| (*a - *b).norm_sq())
            .sum();
        let snr_db = 10.0 * (sig / noise.max(1e-12)).log10();
        assert!(snr_db > 40.0, "snr={snr_db}dB");
    }

    #[test]
    fn bfp_wire_roundtrip() {
        let s = sample_prb(0.8);
        let prb = bfp_compress(&s);
        let mut bytes = Vec::new();
        bfp_write_bytes(&prb, &mut bytes);
        assert_eq!(bytes.len(), BfpPrb::WIRE_BYTES);
        let parsed = bfp_from_bytes(&bytes).unwrap();
        assert_eq!(parsed, prb);
    }

    #[test]
    fn bfp_handles_zero_block() {
        let s = [Cplx::ZERO; SC_PER_PRB];
        let prb = bfp_compress(&s);
        let d = bfp_decompress(&prb);
        assert!(d.iter().all(|x| x.norm_sq() == 0.0));
    }

    #[test]
    fn bfp_saturates_not_panics_on_huge_values() {
        let mut s = [Cplx::ZERO; SC_PER_PRB];
        s[0] = Cplx::new(1e9, -1e9);
        let prb = bfp_compress(&s);
        let _ = bfp_decompress(&prb);
    }

    #[test]
    fn bfp_from_short_buffer_is_none() {
        assert!(bfp_from_bytes(&[0u8; 3]).is_none());
    }

    #[test]
    fn bfp_negative_mantissa_sign_extension() {
        let mut s = [Cplx::ZERO; SC_PER_PRB];
        s[3] = Cplx::new(-0.5, 0.25);
        let prb = bfp_compress(&s);
        let mut bytes = Vec::new();
        bfp_write_bytes(&prb, &mut bytes);
        let parsed = bfp_from_bytes(&bytes).unwrap();
        let d = bfp_decompress(&parsed);
        assert!((d[3].re + 0.5).abs() < 0.01);
        assert!((d[3].im - 0.25).abs() < 0.01);
    }
}
