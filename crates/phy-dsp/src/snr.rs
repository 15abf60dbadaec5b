//! SNR estimation and the per-UE moving-average filter.
//!
//! The moving-average SNR is the *other* piece of inter-TTI PHY soft
//! state the paper's §4.2 enumerates (besides HARQ buffers). The PHY
//! uses it to detect UE disconnection; Slingshot discards it during
//! migration and lets the filter reconverge (~25 ms in the paper).

use crate::channel::linear_to_db;
use crate::iq::Cplx;

/// Estimate SNR (dB) from received pilot symbols given the known
/// transmitted pilots: signal power from the correlation, noise power
/// from the residual.
pub fn estimate_snr_db(received: &[Cplx], pilots: &[Cplx]) -> f64 {
    assert_eq!(received.len(), pilots.len());
    assert!(!received.is_empty());
    // Least-squares complex gain h = <r, p> / <p, p>.
    let mut num = Cplx::ZERO;
    let mut den = 0.0f32;
    for (r, p) in received.iter().zip(pilots) {
        num += *r * p.conj();
        den += p.norm_sq();
    }
    let h = num.scale(1.0 / den.max(1e-12));
    let mut sig = 0.0f64;
    let mut noise = 0.0f64;
    for (r, p) in received.iter().zip(pilots) {
        let est = h * *p;
        sig += est.norm_sq() as f64;
        noise += (*r - est).norm_sq() as f64;
    }
    linear_to_db(sig / noise.max(1e-12))
}

/// Exponentially weighted moving average of per-slot SNR estimates —
/// the PHY's persistent SNR state.
#[derive(Debug, Clone)]
pub struct SnrFilter {
    alpha: f64,
    value_db: Option<f64>,
    updates: u64,
}

impl SnrFilter {
    /// `alpha` is the weight of each new sample (e.g. 0.1 ≈ ~10-slot
    /// memory; at 500 µs slots that converges in a few ms and fully
    /// settles in ~25 ms, matching the paper's reconvergence figure).
    pub fn new(alpha: f64) -> SnrFilter {
        assert!(alpha > 0.0 && alpha <= 1.0);
        SnrFilter {
            alpha,
            value_db: None,
            updates: 0,
        }
    }

    pub fn update(&mut self, sample_db: f64) -> f64 {
        let v = match self.value_db {
            None => sample_db,
            Some(prev) => prev + self.alpha * (sample_db - prev),
        };
        self.value_db = Some(v);
        self.updates += 1;
        v
    }

    /// Current filtered SNR; `default_db` before any update (a freshly
    /// migrated PHY reports this stale/default value until the filter
    /// reconverges — paper §4.2).
    pub fn value_or(&self, default_db: f64) -> f64 {
        self.value_db.unwrap_or(default_db)
    }

    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Discard state — the effect of PHY migration on this filter.
    pub fn reset(&mut self) {
        self.value_db = None;
        self.updates = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::AwgnChannel;
    use slingshot_sim::SimRng;

    fn pilots(n: usize) -> Vec<Cplx> {
        (0..n)
            .map(|i| {
                let phase = i as f32 * std::f32::consts::FRAC_PI_4;
                Cplx::new(phase.cos(), phase.sin())
            })
            .collect()
    }

    #[test]
    fn estimator_tracks_true_snr() {
        let mut ch = AwgnChannel::new(SimRng::new(1));
        for true_snr in [0.0f64, 10.0, 20.0] {
            let p = pilots(2048);
            let (rx, _) = ch.apply(&p, true_snr);
            let est = estimate_snr_db(&rx, &p);
            assert!((est - true_snr).abs() < 1.5, "true={true_snr} est={est}");
        }
    }

    #[test]
    fn estimator_handles_channel_gain() {
        let mut ch = AwgnChannel::new(SimRng::new(2));
        let p = pilots(2048);
        let scaled: Vec<Cplx> = p.iter().map(|s| s.scale(0.5)).collect();
        // SNR of the scaled signal at noise var 0.025 => 10*log10(0.25/0.025)=10dB.
        let (rx, _) = ch.apply(&scaled, 0.0); // noise var 1.0 relative to unit power
                                              // signal power 0.25, noise 1.0 → SNR = -6 dB.
        let est = estimate_snr_db(&rx, &p);
        assert!((est + 6.0).abs() < 1.5, "est={est}");
    }

    #[test]
    fn filter_converges_to_step() {
        let mut f = SnrFilter::new(0.1);
        for _ in 0..100 {
            f.update(20.0);
        }
        assert!((f.value_or(0.0) - 20.0).abs() < 0.01);
        // Step down: converges to the new level.
        let mut last = 0.0;
        for _ in 0..100 {
            last = f.update(5.0);
        }
        assert!((last - 5.0).abs() < 0.01);
    }

    #[test]
    fn filter_reconvergence_time() {
        // With alpha=0.1, after ~44 updates the residual is < 1% — at
        // 500 µs slots that's ~22 ms, matching the paper's ≈25 ms.
        let mut f = SnrFilter::new(0.1);
        f.update(0.0);
        let mut n = 0;
        loop {
            n += 1;
            let v = f.update(20.0);
            if (v - 20.0).abs() < 0.2 {
                break;
            }
            assert!(n < 100);
        }
        assert!((40..=50).contains(&n), "n={n}");
    }

    #[test]
    fn reset_discards_state() {
        let mut f = SnrFilter::new(0.2);
        f.update(15.0);
        assert_eq!(f.updates(), 1);
        f.reset();
        assert_eq!(f.updates(), 0);
        assert_eq!(f.value_or(-3.0), -3.0);
    }

    #[test]
    fn first_update_jumps_to_sample() {
        let mut f = SnrFilter::new(0.05);
        assert_eq!(f.update(12.0), 12.0);
    }
}
