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
//! ## Backend contract
//!
//! A kernel has a SIMD arm only if the arm is **bit-identical** to the
//! scalar reference *and* **faster** than it on this repo's own
//! measurements (`kernel_bench` times both in one process and fails
//! when a detected arm loses). Selecting a backend can therefore never
//! change a golden trace hash, and the choice comes from the CPU —
//! there is no user-set value that trades exactness for speed. Today
//! the max-log demapper, BFP pack/unpack and the LDPC batch decode
//! carry an AVX2 arm; the single-block LDPC decoder and the AWGN source
//! are scalar on every backend.

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
}

impl fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Engine-carried kernel selection (see module docs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelConfig {
    pub backend: KernelBackend,
}

impl KernelConfig {
    /// Runtime-detected backend.
    pub fn detect() -> KernelConfig {
        KernelConfig {
            backend: KernelBackend::detect(),
        }
    }

    /// The portable scalar oracle.
    pub fn scalar() -> KernelConfig {
        KernelConfig {
            backend: KernelBackend::Scalar,
        }
    }

    /// A specific backend. Falls back to scalar (same results, by the
    /// backend contract) when the host cannot execute `backend`.
    pub fn forced(backend: KernelBackend) -> KernelConfig {
        let backend = if backend.available() {
            backend
        } else {
            KernelBackend::Scalar
        };
        KernelConfig { backend }
    }
}

impl Default for KernelConfig {
    /// The engine default: the best backend this host supports.
    fn default() -> KernelConfig {
        KernelConfig::detect()
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
}
