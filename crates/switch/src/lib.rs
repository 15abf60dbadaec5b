//! # slingshot-switch
//!
//! A programmable (P4/Tofino-style) switch model: exact-match tables,
//! data-plane-writable register arrays, a packet generator for timer
//! emulation, a control plane with realistic (millisecond) rule-update
//! latency, and an ASIC resource estimator. The Slingshot fronthaul
//! middlebox and in-switch failure detector (in the `slingshot` crate)
//! are programs written against these primitives.

#![forbid(unsafe_code)]

pub mod control;
pub mod pipeline;
pub mod pktgen;
pub mod ports;
mod resources;
pub mod tables;

pub use control::ControlPlaneModel;
pub use pipeline::{PortId, SwitchAction, SwitchProgram, PIPELINE_LATENCY};
pub use pktgen::PktGenConfig;
pub use ports::PortSpace;
pub use resources::{estimate, PipelineManifest, ResourceUsage};
pub use tables::{ExactTable, RegisterArray, TableFull};
