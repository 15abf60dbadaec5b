//! Abstracted block-error-rate (BLER) model.
//!
//! Long experiments (the paper's Table 2 runs 60 s of simulated time at
//! up to 50 migrations/s) cannot afford running the full LDPC chain for
//! every transport block. This module provides a closed-form BLER as a
//! function of SNR, modulation order, code rate, block length, and
//! decoder iteration budget, **calibrated against the full chain** (the
//! `bler_model` entry of the bench crate's `figures` registry, which
//! `figures --check` holds to its rows, and the `bler_calibration_*`
//! tests): the 50 %-BLER gap from Shannon was measured across rate ×
//! modulation × iterations and fit as
//!
//! ```text
//! gap(dB) = base(iters) + 0.58·(bits_per_symbol − 2) + rate_penalty
//! base(iters) = 2.8 + 6.0 / iters
//! rate_penalty = 2.7 · clamp((rate − 0.5) / 0.1, 0, 1)
//! ```
//!
//! The scheduler's link adaptation uses the same thresholds, so MCS
//! choices stay consistent between the abstract and physical modes.
//! HARQ combining is modeled by accumulating linear SNR across
//! transmissions (chase combining's matched-filter bound).

use crate::channel::db_to_linear;

/// Iteration-dependent decoder loss (dB), from calibration.
pub(crate) fn base_loss_db(fec_iterations: usize) -> f64 {
    2.8 + 6.0 / (fec_iterations.max(1) as f64)
}

/// Extra loss per modulation order above QPSK (max-log LLR penalty and
/// constellation packing), from calibration.
pub(crate) fn modulation_loss_db(bits_per_symbol: usize) -> f64 {
    0.58 * (bits_per_symbol.saturating_sub(2)) as f64
}

/// Penalty for heavy puncturing of the rate-1/3 mother code, from
/// calibration: kicks in above rate ≈ 0.5 and saturates near 0.6.
pub(crate) fn rate_penalty_db(code_rate: f64) -> f64 {
    2.7 * ((code_rate - 0.5) / 0.1).clamp(0.0, 1.0)
}

/// SNR (dB) at which BLER crosses 50 % for the given link parameters.
pub fn threshold_db(bits_per_symbol: usize, code_rate: f64, fec_iterations: usize) -> f64 {
    let eff = bits_per_symbol as f64 * code_rate;
    let snr_min = (2f64.powf(eff) - 1.0).max(1e-3);
    10.0 * snr_min.log10()
        + base_loss_db(fec_iterations)
        + modulation_loss_db(bits_per_symbol)
        + rate_penalty_db(code_rate)
}

/// Waterfall steepness (per dB): longer blocks have sharper waterfalls.
/// Calibrated to ≈ 2–2.5 /dB at 1024-bit blocks.
pub(crate) fn steepness(block_bits: usize) -> f64 {
    0.8 + (block_bits.max(16) as f64).ln() * 0.22
}

/// Block error probability for a single transmission.
pub fn bler(
    snr_db: f64,
    bits_per_symbol: usize,
    code_rate: f64,
    block_bits: usize,
    fec_iterations: usize,
) -> f64 {
    if !snr_db.is_finite() {
        return 1.0;
    }
    let th = threshold_db(bits_per_symbol, code_rate, fec_iterations);
    let a = steepness(block_bits);
    1.0 / (1.0 + ((snr_db - th) * a).exp())
}

/// Effective SNR (dB) after chase-combining transmissions received at
/// the given per-transmission SNRs (dB).
pub fn combined_snr_db(snrs_db: &[f64]) -> f64 {
    let lin: f64 = snrs_db
        .iter()
        .filter(|s| s.is_finite())
        .map(|s| db_to_linear(*s))
        .sum();
    10.0 * lin.max(1e-30).log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bler_monotone_in_snr() {
        let mut prev = 1.0;
        for snr in -10..40 {
            let b = bler(snr as f64, 4, 0.5, 1000, 8);
            assert!(b <= prev + 1e-12);
            prev = b;
        }
    }

    #[test]
    fn bler_limits_and_nan_guard() {
        assert!(bler(-20.0, 2, 0.5, 1000, 8) > 0.99);
        assert!(bler(40.0, 2, 0.5, 1000, 8) < 1e-6);
        assert_eq!(bler(f64::NAN, 2, 0.5, 1000, 8), 1.0);
    }

    #[test]
    fn higher_order_modulation_needs_more_snr() {
        assert!(threshold_db(8, 0.5, 8) > threshold_db(4, 0.5, 8) + 5.0);
    }

    #[test]
    fn heavier_puncturing_costs_more() {
        // Same spectral efficiency (2 b/sym), different rate choices:
        // 16QAM rate 1/2 should beat QPSK... rather: verify the rate
        // penalty itself.
        assert_eq!(rate_penalty_db(0.4), 0.0);
        assert!(rate_penalty_db(0.6) > 2.0);
        assert_eq!(rate_penalty_db(0.8), rate_penalty_db(0.95));
    }

    #[test]
    fn more_iterations_lower_threshold() {
        let t4 = threshold_db(2, 0.5, 4);
        let t16 = threshold_db(2, 0.5, 16);
        assert!(t16 < t4 - 0.5, "t4={t4} t16={t16}");
    }

    #[test]
    fn combining_gains_3db_for_equal_snr() {
        let c = combined_snr_db(&[10.0, 10.0]);
        assert!((c - 13.010).abs() < 0.01, "c={c}");
        // NaN entries (pre-channel) are ignored.
        let c2 = combined_snr_db(&[10.0, f64::NAN]);
        assert!((c2 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn longer_blocks_sharper_waterfall() {
        let th = threshold_db(2, 0.5, 8);
        let short_above = bler(th + 2.0, 2, 0.5, 100, 8);
        let long_above = bler(th + 2.0, 2, 0.5, 8000, 8);
        assert!(long_above < short_above);
    }

    /// Calibration checks against the full LDPC chain, at the corners
    /// of the fitted surface (the data is `figures bler_model`).
    #[test]
    fn bler_calibration_against_full_chain() {
        use crate::channel::AwgnChannel;
        use crate::dispatch::DspKernels;
        use crate::modulation::Modulation;
        use crate::tbchain::{mother_buffer_len, TbDecodeOutcome, TbParams};
        use slingshot_sim::SimRng;

        fn encode_tb(payload: &[u8], p: &TbParams) -> Vec<crate::Cplx> {
            DspKernels::detect().encode_tb(payload, p)
        }
        fn decode_tb(
            acc: &mut [f32],
            rx: &[crate::Cplx],
            nv: f32,
            bytes: usize,
            p: &TbParams,
        ) -> TbDecodeOutcome {
            DspKernels::detect().decode_tb(acc, rx, nv, bytes, p)
        }

        let payload: Vec<u8> = (0..125u32).map(|i| (i * 11) as u8).collect(); // 1024 bits
        let mut ch = AwgnChannel::new(SimRng::new(77));
        let cases = [
            (Modulation::Qpsk, 2usize, 2048usize, 8usize), // rate 0.5
            (Modulation::Qam64, 6, 1536, 8),               // rate 2/3
            (Modulation::Qam256, 8, 2048, 8),              // rate 0.5
        ];
        for (m, bps, e_raw, iters) in cases {
            let e = e_raw - e_raw % bps;
            let rate = 1024.0 / e as f64;
            let th = threshold_db(bps, rate, iters);
            let trials = 12;
            let mut fails_low = 0;
            let mut fails_high = 0;
            for _ in 0..trials {
                for (snr, fails) in [(th - 3.0, &mut fails_low), (th + 3.0, &mut fails_high)] {
                    let p = TbParams {
                        modulation: m,
                        e_bits: e,
                        rnti: 1,
                        cell_id: 1,
                        rv: 0,
                        fec_iterations: iters,
                    };
                    let syms = encode_tb(&payload, &p);
                    let (rx, nv) = ch.apply(&syms, snr);
                    let mut acc = vec![0.0; mother_buffer_len(payload.len())];
                    if decode_tb(&mut acc, &rx, nv, payload.len(), &p)
                        .payload
                        .is_none()
                    {
                        *fails += 1;
                    }
                }
            }
            assert!(fails_low >= trials - 2, "{m:?}: low={fails_low}");
            assert!(fails_high <= 3, "{m:?}: high={fails_high}");
        }
    }
}
