//! The thread's DSP workspace.
//!
//! Every job in the transport-block chain needs the same working set:
//! demapped LLRs, packed-bit staging for the encoder, the channel's
//! uniform draws and the LDPC decoder's message buffers. Allocating
//! those per TB per TTI is pure churn — the sizes recur every slot — so
//! a job borrows the [`Workspace`] of the thread it runs on: it
//! `take()`s [`WORKSPACE`] and `set()`s it back, and the next job on
//! that thread reuses the buffers. One per thread, not per node: a
//! batch's decoder state (~0.4 MB at k = 1024, most of it the
//! lane-interleaved messages) multiplied by nodes × workers would be
//! the largest thing the process holds. A job that finds the workspace
//! already taken (it runs inside another job's borrow) gets an empty
//! one and allocates; workspace contents never carry information
//! between uses (every consumer clears or fully overwrites a buffer
//! before reading it), so which workspace a job gets has no effect on
//! results and worker scheduling stays trace-invisible.

use std::cell::RefCell;

use crate::bits::BitBuf;
use crate::ldpc::{LdpcBlockOut, LdpcScratch};

/// Reusable working set for one encode job or one decode batch.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// Demapper output for a block's symbol window.
    pub demod_llrs: Vec<f32>,
    /// The block's `e` coded-bit LLRs (lead-trimmed, erasure-padded).
    pub llr_e: Vec<f32>,
    /// Encode: the mother codeword.
    pub bits_a: BitBuf,
    /// Encode: the tx-ordered circular buffer.
    pub bits_b: BitBuf,
    /// The AVX2 channel arm's serially drawn Box–Muller uniforms, one
    /// draw block at a time.
    pub awgn_u1: Vec<f64>,
    pub awgn_u2: Vec<f64>,
    /// LDPC min-sum message buffers.
    pub ldpc: LdpcScratch,
    /// Per-block decode results.
    pub out: Vec<LdpcBlockOut>,
}

thread_local! {
    /// The calling thread's [`Workspace`].
    pub(crate) static WORKSPACE: RefCell<Workspace> = RefCell::default();
}
