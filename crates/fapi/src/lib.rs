//! # slingshot-fapi
//!
//! FAPI (Small Cell Forum 5G PHY API style) message definitions, the
//! compact wire codec Orion uses for its lean UDP transport (paper
//! §6.1), and the MCS/TBS tables the scheduler and PHY share.
//!
//! FAPI is the "narrow waist" between L2 and PHY implementations that
//! lets Orion provide PHY resilience transparently (paper §3.2, I-3).

#![forbid(unsafe_code)]

pub mod codec;
pub mod mcs;
pub mod messages;

pub use codec::{decode, encode};
pub use mcs::{e_bits, max_mcs, mcs, mcs_for_snr, tbs_bytes, McsRow, MCS_TABLE};
pub use messages::*;
