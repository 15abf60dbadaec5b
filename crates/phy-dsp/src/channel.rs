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

use crate::iq::Cplx;
use slingshot_sim::{SimRng, WorkerPool};

/// Symbols per noise-generation chunk in [`AwgnChannel::apply_with`].
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
#[inline]
fn noise_pair(rng: &mut SimRng, per_axis: f32) -> (f32, f32) {
    loop {
        let u1 = rng.f64();
        if u1 > f64::MIN_POSITIVE {
            let u2 = rng.f64();
            let r = (-2.0 * u1.ln()).sqrt();
            let (s, c) = (2.0 * std::f64::consts::PI * u2).sin_cos();
            return (per_axis * (r * c) as f32, per_axis * (r * s) as f32);
        }
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
    /// should assume.
    pub fn apply(&mut self, symbols: &[Cplx], snr_db: f64) -> (Vec<Cplx>, f32) {
        let noise_var = (1.0 / db_to_linear(snr_db)) as f32;
        let per_axis = (noise_var / 2.0).sqrt();
        let out = symbols
            .iter()
            .map(|s| {
                let (re, im) = noise_pair(&mut self.rng, per_axis);
                *s + Cplx::new(re, im)
            })
            .collect();
        (out, noise_var)
    }

    /// Chunked-parallel variant of [`AwgnChannel::apply`]. Noise draws
    /// come from per-chunk streams split off one fork of the channel
    /// RNG *in serial chunk order*, so the realization depends only on
    /// the channel RNG state — never on the pool's worker count. The
    /// realization differs from `apply` (different stream layout); a
    /// caller must use one variant consistently.
    pub(crate) fn apply_with(
        &mut self,
        pool: &WorkerPool,
        symbols: &[Cplx],
        snr_db: f64,
    ) -> (Vec<Cplx>, f32) {
        let noise_var = (1.0 / db_to_linear(snr_db)) as f32;
        let per_axis = (noise_var / 2.0).sqrt();
        let mut base = self.rng.fork("awgn-chunks");
        let jobs: Vec<_> = symbols
            .chunks(CHANNEL_CHUNK)
            .enumerate()
            .map(|(i, chunk)| {
                let mut rng = base.split(i as u64);
                let chunk = chunk.to_vec();
                move || {
                    chunk
                        .iter()
                        .map(|s| {
                            let (re, im) = noise_pair(&mut rng, per_axis);
                            *s + Cplx::new(re, im)
                        })
                        .collect::<Vec<Cplx>>()
                }
            })
            .collect();
        let mut out = Vec::with_capacity(symbols.len());
        for part in pool.run(jobs) {
            out.extend(part);
        }
        (out, noise_var)
    }

    /// Replace symbols entirely with noise — what the PHY sees when
    /// fronthaul packets are lost and it processes garbage IQ (§4:
    /// "indistinguishable from a noisy wireless channel").
    pub fn garbage(&mut self, len: usize) -> (Vec<Cplx>, f32) {
        let per_axis = (0.5f32).sqrt();
        let out = (0..len)
            .map(|_| {
                let (re, im) = noise_pair(&mut self.rng, per_axis);
                Cplx::new(re, im)
            })
            .collect();
        (out, 1.0)
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
    fn apply_with_is_worker_count_independent() {
        let symbols = vec![Cplx::new(1.0, -1.0); 3 * CHANNEL_CHUNK + 17];
        let mut ch1 = AwgnChannel::new(SimRng::new(9));
        let mut ch4 = AwgnChannel::new(SimRng::new(9));
        let (a, nv_a) = ch1.apply_with(&WorkerPool::serial(), &symbols, 12.0);
        let (b, nv_b) = ch4.apply_with(&WorkerPool::with_threads(4), &symbols, 12.0);
        assert_eq!(a, b);
        assert_eq!(nv_a, nv_b);
        // Noise power still matches the requested SNR.
        let measured: f32 = a
            .iter()
            .zip(&symbols)
            .map(|(x, s)| (*x - *s).norm_sq())
            .sum::<f32>()
            / a.len() as f32;
        assert!((measured - nv_a).abs() < 0.005, "measured={measured}");
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
