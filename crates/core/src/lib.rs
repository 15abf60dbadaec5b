//! # slingshot
//!
//! The paper's primary contribution: transparent resilience for the
//! vRAN PHY layer via stateless PHY migration, built from:
//!
//! - [`fh_mbox`]: the in-switch fronthaul middlebox (§5) — virtual PHY
//!   addresses, an ID-indirected data-plane-updatable RU→PHY mapping,
//!   the migration request store, downlink filtering of standby PHYs —
//!   and the in-switch failure detector (§5.2) that uses downlink
//!   fronthaul packets as natural heartbeats.
//! - [`orion`]: the L2↔PHY FAPI middlebox (§6) — lean stateless UDP
//!   transport, null-FAPI hot standby, response filtering, duplicated
//!   initialization, migration initiation, and pipelined-slot draining.
//! - [`ctl`]: the `migrate_on_slot` / failure-notification packets.
//! - [`switch_node`]: the engine node hosting the middlebox program,
//!   with in-switch vs software forwarding models (the §5 ablation).
//! - [`deployment`]: a builder wiring the full testbed of Fig. 4(b).
//! - [`chaos`]: the deployment-aware chaos runner — expands
//!   `slingshot_sim::chaos` scenarios into timed kill/stall/degrade
//!   operations against the live topology and judges the resulting
//!   event trace with the invariant oracle.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod ctl;
pub mod deployment;
pub mod fh_mbox;
pub mod handover;
pub mod multi_ru;
pub mod nfapi;
pub mod orion;
pub mod recovery;
pub mod spine;
pub mod switch_node;

pub use chaos::{
    chaos_deployment, chaos_pool_deployment, expectations_for, run_scenario, ChaosRunner,
};
pub use ctl::CtlPacket;
pub use deployment::{
    CellDeployment, Deployment, DeploymentBuilder, DeploymentConfig, L2_ID, PRIMARY_PHY_ID, RU_ID,
    SECONDARY_PHY_ID,
};
pub use fh_mbox::FhMbox;
pub use handover::{handover_mac, HandoverController};
pub use multi_ru::{CellNodes, DualRuDeployment};
pub use orion::{orion_l2_mac, orion_phy_mac, OrionCost, OrionL2Node, OrionPhyNode};
pub use recovery::{recovery_mac, RecoveryOrchestrator};
pub use spine::SpineSwitchNode;
pub use switch_node::{ForwardingModel, SwitchNode};
