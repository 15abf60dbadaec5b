//! # slingshot-phy-dsp
//!
//! The signal-processing substrate of the Slingshot reproduction — the
//! parts of a 5G PHY that Intel FlexRAN provides in the paper's testbed,
//! reimplemented from scratch so that decode success and failure emerge
//! from real coding/modulation math under channel noise:
//!
//! - [`crc`]: the CRC-24A every transport block carries (TS 38.212)
//! - [`scramble`]: length-31 Gold sequence scrambling (TS 38.211)
//! - [`modulation`]: Gray-mapped QPSK…256-QAM with max-log LLR demapping
//! - [`ldpc`]: systematic staircase LDPC, normalized min-sum decoding
//!   with a configurable iteration budget (the paper's §8.3 upgrade
//!   knob), one block at a time or a batch of blocks in lockstep
//! - [`ratematch`]: circular-buffer rate matching with redundancy
//!   versions (incremental redundancy / chase combining)
//! - [`snr`]: pilot-based SNR estimation and the moving-average filter —
//!   the other discarded inter-TTI state (§4.2)
//! - [`channel`]: AWGN channel and per-UE SNR processes
//! - [`iq`]: complex samples and O-RAN-style block-floating-point
//!   compression used on the fronthaul
//! - [`tbchain`]: the end-to-end transport-block encode/decode chain
//! - [`bler`]: a calibrated closed-form BLER model for long experiments
//!   (fidelity/runtime trade-off; see DESIGN.md)

pub mod bits;
pub mod bler;
pub mod channel;
pub mod crc;
pub mod dispatch;
pub mod iq;
pub mod ldpc;
pub mod modulation;
pub mod ratematch;
pub mod scramble;
mod scratch;
pub mod snr;
pub mod tbchain;

pub use bits::BitBuf;
pub use channel::{AwgnChannel, SnrProcess, SnrProcessConfig};
pub use dispatch::DspKernels;
pub use iq::{Cplx, SC_PER_PRB};
pub use ldpc::{LdpcBlockOut, LdpcCode, LdpcScratch};
pub use modulation::Modulation;
pub use snr::SnrFilter;
// Kernel backend selection originates in the sim crate (the engine
// carries it); re-export so DSP callers have one import surface.
pub use slingshot_sim::{KernelBackend, KernelConfig};
pub use tbchain::{mother_buffer_len, TbDecodeOutcome, TbParams};
