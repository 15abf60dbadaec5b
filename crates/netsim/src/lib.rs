//! # slingshot-netsim
//!
//! Ethernet substrate for the Slingshot reproduction: MAC addressing
//! (including the virtual PHY address scheme), Ethernet II frames, and
//! pcap-style frame capture. Links themselves (latency/bandwidth/
//! faults) live in `slingshot-sim`; this crate defines what travels
//! over them.

#![forbid(unsafe_code)]

pub mod capture;
pub mod frame;
pub mod mac;

pub use capture::{Capture, CaptureRecord};
pub use frame::{EtherType, Frame};
pub use mac::MacAddr;
