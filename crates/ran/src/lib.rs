//! # slingshot-ran
//!
//! The complete vRAN stack the Slingshot paper's testbed runs,
//! re-implemented as simulation nodes: RU, PHY (FlexRAN stand-in), L2
//! (MAC scheduler + RLC), UEs, the core-network stub, and the app
//! server — plus the global message type and the fidelity-aware DSP
//! paths they share.

#![forbid(unsafe_code)]

pub mod cell;
mod core_net;
pub mod fidelity;
pub mod l2;
pub mod mobility;
pub mod msg;
pub mod phy;
pub mod rlc;
pub mod ru;
pub mod sched;
pub mod slice;
pub mod ue;

pub use cell::{CellConfig, Fidelity};
pub use core_net::{AppServerNode, CoreNode};
pub use fidelity::{LinkParamsTb, RxOutcome, RxProcessPool, TbSignal};
pub use l2::L2Node;
pub use mobility::{CrossingEvent, MobilityConfig, MobilityModel};
pub use msg::{CtlMsg, DlAllocation, Msg, RadioDlBurst, RadioUlBurst, UserPacket};
pub use phy::{PhyConfig, PhyNode};
pub use ru::RuNode;
pub use sched::{Policy, Scheduler};
pub use slice::{SliceKind, SliceProfile};
pub use ue::{UeConfig, UeNode, UeState};
