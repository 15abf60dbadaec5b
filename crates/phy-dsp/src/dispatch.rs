//! Runtime-dispatched DSP kernel handle.
//!
//! [`DspKernels`] is the single seam through which every hot kernel in
//! this crate is invoked: LDPC min-sum decode (one block, or a lockstep
//! batch of blocks), max-log demapping, AWGN generation and BFP
//! pack/unpack. It is a tiny `Copy` handle wrapping
//! the engine-carried [`KernelConfig`], constructed once per deployment
//! (`DeploymentBuilder::kernel_config(...)` → `Engine` → `Ctx`) and
//! handed down the call chain.
//!
//! ## Backend contract
//!
//! The scalar implementations are the oracle. A kernel has a SIMD arm
//! only if the arm is **bit-identical** to scalar and **faster** than
//! it on this repo's own measurements (`kernel_bench` fails when a
//! detected arm loses), so backend selection can never change a golden
//! trace hash (`tests/kernel_equiv.rs` proves this per available
//! backend). Demap, BFP, AWGN and the LDPC *batch* decode carry an
//! AVX2 arm: lanes across the code blocks of a batch
//! (`ldpc::avx2`), and for AWGN f64 polynomials whose every
//! sample is certified to round to libm's f32 or recomputed with libm
//! (`channel::avx2`). Every non-empty batch takes the lockstep arm on
//! AVX2, a batch of one block included (one live lane). The scalar
//! min-sum of [`LdpcCode::decode_into`] is the oracle the arm is held
//! to; [`DspKernels::ldpc_decode_into`] runs it on every backend.

use crate::channel::AwgnChannel;
use crate::iq::{BfpPrb, Cplx, SC_PER_PRB};
use crate::ldpc::{LdpcBlockOut, LdpcCode, LdpcScratch};
use crate::modulation::Modulation;
use crate::tbchain::{self, TbDecodeOutcome, TbParams};
use slingshot_sim::{KernelBackend, KernelConfig};

/// Backend-dispatched entry points for the hot DSP kernels.
///
/// Cheap to copy; pass it by value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DspKernels {
    cfg: KernelConfig,
}

impl DspKernels {
    /// The best backend this host supports.
    pub fn detect() -> DspKernels {
        DspKernels {
            cfg: KernelConfig::detect(),
        }
    }

    /// The portable scalar oracle.
    pub fn scalar() -> DspKernels {
        DspKernels {
            cfg: KernelConfig::scalar(),
        }
    }

    /// A specific backend; falls back to scalar if the host cannot
    /// execute it (same results either way, by the backend contract).
    pub fn forced(backend: KernelBackend) -> DspKernels {
        DspKernels {
            cfg: KernelConfig::forced(backend),
        }
    }

    /// Wrap an engine-carried config. The backend is re-validated
    /// against this host (configs may be built from parsed strings or
    /// cross a process boundary), falling back to scalar if needed.
    pub fn from_config(cfg: KernelConfig) -> DspKernels {
        DspKernels {
            cfg: KernelConfig::forced(cfg.backend),
        }
    }

    pub fn backend(&self) -> KernelBackend {
        self.cfg.backend
    }

    pub fn config(&self) -> KernelConfig {
        self.cfg
    }

    /// Stable lowercase backend name for reports and baseline keys.
    pub fn name(&self) -> &'static str {
        self.cfg.backend.name()
    }

    #[inline]
    pub(crate) fn use_avx2(&self) -> bool {
        self.cfg.backend == KernelBackend::Avx2
    }

    /// LDPC normalized min-sum decode of one block:
    /// [`LdpcCode::decode_into`] on every backend (the one scalar
    /// decoder, and the oracle for the batch arm below).
    pub fn ldpc_decode_into(
        &self,
        code: &LdpcCode,
        channel_llrs: &[f32],
        max_iters: usize,
        scratch: &mut LdpcScratch,
    ) -> (bool, usize) {
        code.decode_into(channel_llrs, max_iters, scratch)
    }

    /// LDPC decode of up to [`crate::ldpc::BATCH_LANES`] blocks of one
    /// code, each given in transmission order: `order` is a permutation
    /// of `0..n`, and block `b`'s codeword LLR `order[p]` is
    /// `segs[b][p]`. `out[b]` is bit-exactly what
    /// [`LdpcCode::decode_into`] yields for that codeword on every
    /// backend. AVX2 runs the blocks in lockstep, one per lane, reading
    /// the segments straight into the lanes; a batch of one is one live
    /// lane, which still beats the scalar decoder (`kernel_bench`'s
    /// `ldpc_decode_batch1_k1024` row holds that). The scalar backend
    /// runs the definition, `LdpcCode::decode_batch_into`'s per-block
    /// loop.
    pub fn ldpc_decode_batch_into(
        &self,
        code: &LdpcCode,
        order: &[u32],
        segs: &[&[f32]],
        max_iters: usize,
        scratch: &mut LdpcScratch,
        out: &mut [LdpcBlockOut],
    ) {
        #[cfg(target_arch = "x86_64")]
        if self.use_avx2() && !segs.is_empty() {
            // SAFETY: backend is only Avx2 when the feature was detected.
            unsafe {
                crate::ldpc::avx2::decode_batch_into(code, order, segs, max_iters, scratch, out)
            };
            return;
        }
        code.decode_batch_into(order, segs, max_iters, scratch, out);
    }

    /// Max-log LLR demap into `out` (cleared first; bit-exact across
    /// backends). Positive LLR means bit 0.
    pub fn demodulate_llr_into(
        &self,
        symbols: &[Cplx],
        modulation: Modulation,
        noise_var: f32,
        out: &mut Vec<f32>,
    ) {
        #[cfg(target_arch = "x86_64")]
        if self.use_avx2() {
            // SAFETY: backend is only Avx2 when the feature was detected.
            unsafe {
                crate::modulation::avx2::demodulate_llr_into(symbols, modulation, noise_var, out)
            };
            return;
        }
        crate::modulation::demod_scalar_into(symbols, modulation, noise_var, out);
    }

    /// Max-log LLR demap (allocating convenience wrapper).
    pub fn demodulate_llr(
        &self,
        symbols: &[Cplx],
        modulation: Modulation,
        noise_var: f32,
    ) -> Vec<f32> {
        let mut out = Vec::new();
        self.demodulate_llr_into(symbols, modulation, noise_var, &mut out);
        out
    }

    /// BFP-compress one PRB of samples (bit-exact across backends).
    pub fn bfp_compress(&self, samples: &[Cplx; SC_PER_PRB]) -> BfpPrb {
        #[cfg(target_arch = "x86_64")]
        if self.use_avx2() {
            // SAFETY: backend is only Avx2 when the feature was detected.
            return unsafe { crate::iq::avx2::bfp_compress(samples) };
        }
        crate::iq::bfp_compress_scalar(samples)
    }

    /// Decompress one BFP PRB (bit-exact across backends).
    pub fn bfp_decompress(&self, prb: &BfpPrb) -> [Cplx; SC_PER_PRB] {
        #[cfg(target_arch = "x86_64")]
        if self.use_avx2() {
            // SAFETY: backend is only Avx2 when the feature was detected.
            return unsafe { crate::iq::avx2::bfp_decompress(prb) };
        }
        crate::iq::bfp_decompress_scalar(prb)
    }

    /// AWGN at `snr_db` (serial), [`AwgnChannel::apply`]. One noise
    /// source, so one realization per seed: the scalar backend runs the
    /// libm Box–Muller, and the AVX2 arm returns the same f32 noise
    /// (polynomials certified per sample, libm where they cannot be).
    pub fn awgn_apply(
        &self,
        channel: &mut AwgnChannel,
        symbols: &[Cplx],
        snr_db: f64,
    ) -> (Vec<Cplx>, f32) {
        channel.apply_on(*self, symbols, snr_db)
    }

    /// AWGN at `snr_db` from per-chunk noise streams,
    /// `AwgnChannel::apply_with`; the same noise on every backend, as
    /// [`DspKernels::awgn_apply`].
    pub fn awgn_apply_with(
        &self,
        channel: &mut AwgnChannel,
        symbols: &[Cplx],
        snr_db: f64,
    ) -> (Vec<Cplx>, f32) {
        channel.apply_with(*self, symbols, snr_db)
    }

    /// Pure noise symbols, [`AwgnChannel::garbage`]; the same noise on
    /// every backend, as [`DspKernels::awgn_apply`].
    pub fn awgn_garbage(&self, channel: &mut AwgnChannel, len: usize) -> (Vec<Cplx>, f32) {
        channel.garbage_on(*self, len)
    }

    /// Encode a transport block, [`tbchain::encode_tb`].
    pub fn encode_tb(&self, payload: &[u8], p: &TbParams) -> Vec<Cplx> {
        tbchain::encode_tb(*self, payload, p)
    }

    /// Decode a transport block, soft-combining into the caller-owned
    /// HARQ accumulator, [`tbchain::decode_tb`].
    pub fn decode_tb(
        &self,
        acc: &mut [f32],
        rx_symbols: &[Cplx],
        noise_var: f32,
        payload_bytes: usize,
        p: &TbParams,
    ) -> TbDecodeOutcome {
        tbchain::decode_tb(*self, acc, rx_symbols, noise_var, payload_bytes, p)
    }
}

impl Default for DspKernels {
    /// The engine default: the best backend this host supports.
    fn default() -> DspKernels {
        DspKernels::detect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slingshot_sim::SimRng;

    #[test]
    fn forced_backend_validates_availability() {
        let b = KernelBackend::Avx2;
        let k = DspKernels::forced(b);
        assert!(k.backend().available());
        if !b.available() {
            assert_eq!(k.backend(), KernelBackend::Scalar);
        }
        assert_eq!(DspKernels::scalar().name(), "scalar");
    }

    #[test]
    fn from_config_revalidates() {
        // A hand-built config naming an unavailable backend must land
        // on scalar.
        let cfg = KernelConfig {
            backend: KernelBackend::Avx2,
        };
        let k = DspKernels::from_config(cfg);
        assert!(k.backend().available());
    }

    #[test]
    fn demap_bit_exact_across_available_backends() {
        let mut rng = SimRng::new(77);
        let syms: Vec<Cplx> = (0..97)
            .map(|_| Cplx::new(rng.gaussian() as f32 * 0.9, rng.gaussian() as f32 * 0.9))
            .collect();
        let oracle = DspKernels::scalar().demodulate_llr(&syms, Modulation::Qam64, 0.2);
        for b in KernelBackend::all_available() {
            let got = DspKernels::forced(b).demodulate_llr(&syms, Modulation::Qam64, 0.2);
            assert_eq!(oracle.len(), got.len());
            for (i, (a, g)) in oracle.iter().zip(&got).enumerate() {
                assert_eq!(a.to_bits(), g.to_bits(), "backend {b} llr {i}");
            }
        }
    }

    #[test]
    fn bfp_bit_exact_across_available_backends() {
        let mut rng = SimRng::new(78);
        for trial in 0..50 {
            let mut prb = [Cplx::ZERO; SC_PER_PRB];
            for s in prb.iter_mut() {
                let amp = if trial % 5 == 0 { 3000.0 } else { 1.5 };
                *s = Cplx::new(rng.gaussian() as f32 * amp, rng.gaussian() as f32 * amp);
            }
            let oracle = DspKernels::scalar().bfp_compress(&prb);
            for b in KernelBackend::all_available() {
                let k = DspKernels::forced(b);
                let got = k.bfp_compress(&prb);
                assert_eq!(oracle.exponent, got.exponent, "backend {b}");
                assert_eq!(oracle.mantissas, got.mantissas, "backend {b}");
                let back_oracle = DspKernels::scalar().bfp_decompress(&oracle);
                let back = k.bfp_decompress(&got);
                for (a, g) in back_oracle.iter().zip(&back) {
                    assert_eq!(a.re.to_bits(), g.re.to_bits(), "backend {b}");
                    assert_eq!(a.im.to_bits(), g.im.to_bits(), "backend {b}");
                }
            }
        }
    }
}
