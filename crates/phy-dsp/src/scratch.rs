//! Slot-scoped DSP scratch arenas.
//!
//! Every job in the transport-block chain needs the same working set:
//! demapped LLRs, the rate-recovered codeword view, and the LDPC
//! decoder's message buffers. Allocating those per TB per TTI is pure
//! churn — the sizes recur every slot — so jobs check a [`DspScratch`]
//! out of a shared [`DspScratchPool`] ([`slingshot_sim::ScratchPool`])
//! and return it when done, and borrow the decoder's buffers
//! ([`DecodeScratch`]) from the thread they run on. Scratch contents
//! never carry information between uses (every consumer clears or fully
//! overwrites a buffer before reading it), so handout order has no
//! effect on results and worker scheduling stays trace-invisible.

use std::cell::RefCell;

use crate::bits::BitBuf;
use crate::ldpc::{LdpcBlockOut, LdpcScratch};
use slingshot_sim::ScratchPool;

/// Reusable per-job working set for the encode and decode chains.
#[derive(Debug, Clone, Default)]
pub struct DspScratch {
    /// Demapper output for a block's symbol window.
    pub demod_llrs: Vec<f32>,
    /// The block's `e` coded-bit LLRs (lead-trimmed, erasure-padded).
    pub llr_e: Vec<f32>,
    /// Packed-bit workspace (encode: the mother codeword).
    pub bits_a: BitBuf,
    /// Packed-bit workspace (encode: the tx-ordered circular buffer).
    pub bits_b: BitBuf,
}

/// Shared free-list of [`DspScratch`] arenas, cloneable into worker
/// jobs.
pub type DspScratchPool = ScratchPool<DspScratch>;

/// The LDPC stage's working set for one batch of code blocks. One per
/// decoding thread, not per arena: every PHY and UE node owns an arena
/// pool, and a batch's decoder state (~0.4 MB at k = 1024, most of it
/// the lane-interleaved messages) multiplied by nodes × workers would
/// be the largest thing the process holds.
#[derive(Debug, Default)]
pub(crate) struct DecodeScratch {
    /// De-interleaved mother-codeword LLRs fed to the LDPC decoder, one
    /// `n`-float run per block of the batch.
    pub cw_llrs: Vec<f32>,
    /// LDPC min-sum message buffers.
    pub ldpc: LdpcScratch,
    /// Per-block decode results.
    pub out: Vec<LdpcBlockOut>,
}

thread_local! {
    static DEFAULT_POOL: DspScratchPool = DspScratchPool::new();
    /// The calling thread's [`DecodeScratch`]: a batch job `take()`s it
    /// and `set()`s it back, so the next batch on this thread reuses
    /// its buffers.
    pub(crate) static DECODE_SCRATCH: RefCell<DecodeScratch> = RefCell::default();
}

/// The calling thread's default scratch pool, used by the convenience
/// wrappers (`encode_tb` / `decode_tb` / `encode_signal` / `receive`)
/// so their signatures stay scratch-free while still reusing buffers
/// across calls.
pub fn default_scratch_pool() -> DspScratchPool {
    DEFAULT_POOL.with(|p| p.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pool_is_shared_per_thread() {
        let a = default_scratch_pool();
        let b = default_scratch_pool();
        let mut s = a.take();
        s.demod_llrs.resize(1024, 0.0);
        a.put(s);
        // Same underlying free-list: b sees what a returned.
        let s = b.take();
        assert!(s.demod_llrs.capacity() >= 1024);
        b.put(s);
    }
}
