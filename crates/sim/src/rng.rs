//! Deterministic random number generation.
//!
//! Every stochastic component in the simulation draws from a [`SimRng`]
//! seeded from a single master seed, so a run is exactly reproducible
//! from its seed alone (and across platforms — the generator is our own
//! xoshiro256** implementation, not a version-dependent one).

use rand::RngCore;

/// SplitMix64: used to expand seeds into xoshiro state, per Vigna's
/// recommendation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256** deterministic PRNG.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> SimRng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive an independent child generator for a named component.
    /// Hashing the label into the seed keeps sibling components
    /// decorrelated while remaining fully reproducible.
    pub fn fork(&mut self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        SimRng::new(self.next_u64() ^ h)
    }

    /// Derive an independent child generator for a numbered shard (the
    /// numeric analog of [`SimRng::fork`]). Used to pre-split streams
    /// *in a fixed order* — one per engine lane, per PDU, per AWGN
    /// chunk — so each consumer owns its stream and the draws it makes
    /// are independent of worker count and scheduling.
    pub fn split(&mut self, shard: u64) -> SimRng {
        // Mix the shard index through splitmix64 so adjacent shards land
        // far apart in seed space, then combine with a fresh draw from
        // the parent (as fork does with the label hash).
        let mut sm = shard ^ 0x51C0_75EE_D051_ACED;
        let mixed = splitmix64(&mut sm);
        SimRng::new(self.next_u64() ^ mixed)
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform f64 in [0, 1).
    pub fn f64(&mut self) -> f64 {
        // 53 high-quality bits into the mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in [0, n). Uses rejection to avoid modulo bias.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is undefined");
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }

    /// Uniform f64 in [lo, hi).
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.f64() * (hi - lo)
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal via Box–Muller. Each call performs a fresh draw
    /// (no caching) to keep fork/clone semantics simple.
    pub fn gaussian(&mut self) -> f64 {
        loop {
            let u1 = self.f64();
            if u1 > f64::MIN_POSITIVE {
                let u2 = self.f64();
                return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            }
        }
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gaussian()
    }

    /// Exponentially distributed value with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (SimRng::next_u64(self) >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        SimRng::next_u64(self)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let v = SimRng::next_u64(self).to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_decorrelated_and_deterministic() {
        let mut parent1 = SimRng::new(7);
        let mut parent2 = SimRng::new(7);
        let mut c1 = parent1.fork("phy");
        let mut c2 = parent2.fork("phy");
        let mut other = parent1.fork("l2");
        assert_eq!(c1.next_u64(), c2.next_u64());
        // Extremely unlikely to collide if properly decorrelated.
        assert_ne!(c1.next_u64(), other.next_u64());
    }

    #[test]
    fn split_is_decorrelated_and_deterministic() {
        let mut parent1 = SimRng::new(11);
        let mut parent2 = SimRng::new(11);
        let mut a1 = parent1.split(0);
        let mut a2 = parent2.split(0);
        let mut b = parent1.split(1);
        assert_eq!(a1.next_u64(), a2.next_u64());
        assert_ne!(a1.next_u64(), b.next_u64());
        // Splitting advances the parent, so successive splits differ
        // even with the same shard index.
        let mut c = parent1.split(0);
        assert_ne!(a1.next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn below_bounds_and_coverage() {
        let mut r = SimRng::new(4);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = r.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn gaussian_moments() {
        let mut r = SimRng::new(5);
        let n = 100_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let v = r.gaussian();
            sum += v;
            sumsq += v * v;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.03, "var={var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::new(6);
        let n = 100_000;
        let mean_target = 3.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean_target)).sum();
        let mean = sum / n as f64;
        assert!((mean - mean_target).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(8);
        assert!(!(0..1000).any(|_| r.chance(0.0)));
        assert!((0..1000).all(|_| r.chance(1.0)));
    }

    #[test]
    fn fill_bytes_all_lengths() {
        let mut r = SimRng::new(9);
        for len in 0..33 {
            let mut buf = vec![0u8; len];
            r.fill_bytes(&mut buf);
            if len >= 16 {
                // Should not be all zeros.
                assert!(buf.iter().any(|b| *b != 0));
            }
        }
    }
}
