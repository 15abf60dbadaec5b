//! Kernel backend selection shared between the engine and the DSP
//! crates.
//!
//! The simulation engine carries a [`KernelConfig`] exactly like it
//! carries a [`crate::pool::WorkerPool`]: a tiny `Copy` handle that
//! nodes read through `Ctx` and hand to whichever compute kernels they
//! invoke. The enum lives here (not in `phy-dsp`) because `phy-dsp`
//! depends on this crate, so the engine cannot name `phy-dsp` types —
//! the DSP crate wraps this config in its own dispatch handle.
//!
//! ## Exactness contract
//!
//! Selecting a SIMD backend must not change any golden trace hash. The
//! vectorized kernels are therefore split into two classes:
//!
//! - **Bit-exact** (LDPC min-sum sweeps, max-log demap folds, BFP
//!   pack/unpack): the SIMD implementation reproduces the scalar f32
//!   results bit-for-bit, so they run whenever the backend supports
//!   them.
//! - **Tolerance-gated** (AWGN generation): a vectorized variant would
//!   be a different (statistically equivalent) noise realization, so it
//!   only engages when [`KernelConfig::tolerance`] is explicitly raised
//!   above zero. The default of `0.0` means "bit-exact only", which is
//!   what CI's golden traces assert.

use std::fmt;

/// Which kernel implementation family to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// Portable scalar Rust: the bit-exactness oracle on every host.
    Scalar,
    /// x86-64 AVX2 (8 × f32 lanes), runtime-detected.
    Avx2,
}

impl KernelBackend {
    /// The best backend this host supports, detected at runtime.
    pub fn detect() -> KernelBackend {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return KernelBackend::Avx2;
            }
        }
        KernelBackend::Scalar
    }

    /// Whether this host can actually execute the backend.
    pub fn available(self) -> bool {
        match self {
            KernelBackend::Scalar => true,
            KernelBackend::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
        }
    }

    /// Every backend the host can execute, scalar first. Test harnesses
    /// iterate this to prove scalar/SIMD equivalence per available
    /// implementation.
    pub fn all_available() -> Vec<KernelBackend> {
        let mut v = vec![KernelBackend::Scalar];
        if KernelBackend::Avx2.available() {
            v.push(KernelBackend::Avx2);
        }
        v
    }

    /// Stable lowercase name, used in bench reports and baseline keys.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2 => "avx2",
        }
    }

    /// Parse a backend name as accepted by the `KERNEL_BACKEND`
    /// environment override (`scalar` / `avx2` / `detect`).
    pub fn parse(s: &str) -> Option<KernelBackend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelBackend::Scalar),
            "avx2" => Some(KernelBackend::Avx2),
            "detect" | "auto" | "native" => Some(KernelBackend::detect()),
            _ => None,
        }
    }
}

impl fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Engine-carried kernel selection: the backend plus the tolerance knob
/// gating non-bit-exact SIMD variants (see module docs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelConfig {
    pub backend: KernelBackend,
    /// Maximum relative f32 deviation permitted for kernels whose SIMD
    /// variant cannot reproduce the scalar fold order. `0.0` (default)
    /// keeps those kernels on the bit-exact path regardless of backend.
    pub tolerance: f32,
}

impl KernelConfig {
    /// Runtime-detected backend, bit-exact kernels only.
    pub fn detect() -> KernelConfig {
        KernelConfig {
            backend: KernelBackend::detect(),
            tolerance: 0.0,
        }
    }

    /// The portable scalar oracle.
    pub fn scalar() -> KernelConfig {
        KernelConfig {
            backend: KernelBackend::Scalar,
            tolerance: 0.0,
        }
    }

    /// A specific backend, bit-exact kernels only. Falls back to scalar
    /// (with the same semantics, by the exactness contract) when the
    /// host cannot execute `backend`.
    pub fn forced(backend: KernelBackend) -> KernelConfig {
        let backend = if backend.available() {
            backend
        } else {
            KernelBackend::Scalar
        };
        KernelConfig {
            backend,
            tolerance: 0.0,
        }
    }

    /// Honor the `KERNEL_BACKEND` env override if set and valid, else
    /// runtime-detect. This is the engine default, so
    /// `KERNEL_BACKEND=scalar cargo test` forces the oracle everywhere
    /// without touching any call site. `KERNEL_TOLERANCE=<f32>` opts a
    /// run into the tolerance-gated SIMD variants (see
    /// [`with_tolerance`](Self::with_tolerance)); unset or unparsable
    /// means 0.0, i.e. byte-identical traces.
    pub fn from_env() -> KernelConfig {
        let cfg = match std::env::var("KERNEL_BACKEND") {
            Ok(s) => match KernelBackend::parse(&s) {
                Some(b) => KernelConfig::forced(b),
                None => KernelConfig::detect(),
            },
            Err(_) => KernelConfig::detect(),
        };
        match std::env::var("KERNEL_TOLERANCE") {
            Ok(s) => match s.trim().parse::<f32>() {
                Ok(tol) if tol.is_finite() && tol > 0.0 => cfg.with_tolerance(tol),
                _ => cfg,
            },
            Err(_) => cfg,
        }
    }

    /// Permit tolerance-gated SIMD variants up to `tol` relative f32
    /// deviation. Runs that enable this opt out of byte-identical
    /// traces versus scalar; CI never does.
    pub fn with_tolerance(mut self, tol: f32) -> KernelConfig {
        self.tolerance = tol;
        self
    }
}

impl Default for KernelConfig {
    fn default() -> KernelConfig {
        KernelConfig::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_always_available() {
        assert!(KernelBackend::Scalar.available());
        assert_eq!(KernelBackend::all_available()[0], KernelBackend::Scalar);
    }

    #[test]
    fn parse_round_trips_names() {
        for b in [KernelBackend::Scalar, KernelBackend::Avx2] {
            assert_eq!(KernelBackend::parse(b.name()), Some(b));
        }
        assert_eq!(KernelBackend::parse("AVX2"), Some(KernelBackend::Avx2));
        assert_eq!(
            KernelBackend::parse("detect"),
            Some(KernelBackend::detect())
        );
        assert_eq!(KernelBackend::parse("mmx"), None);
        assert_eq!(KernelBackend::parse("neon"), None);
    }

    #[test]
    fn forced_unavailable_falls_back_to_scalar() {
        // A backend the host cannot execute must degrade to scalar
        // rather than crash at dispatch time.
        let b = KernelBackend::Avx2;
        if !b.available() {
            assert_eq!(KernelConfig::forced(b).backend, KernelBackend::Scalar);
        }
    }

    #[test]
    fn detect_backend_is_available() {
        assert!(KernelBackend::detect().available());
        assert!(KernelConfig::default().backend.available());
    }

    #[test]
    fn tolerance_knob_defaults_off() {
        assert_eq!(KernelConfig::detect().tolerance, 0.0);
        assert_eq!(KernelConfig::scalar().with_tolerance(0.5).tolerance, 0.5);
    }
}
