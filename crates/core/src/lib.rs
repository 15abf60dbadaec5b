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
//! - [`deployment`]: the one builder of every testbed shape — the
//!   Fig. 4(b) testbed, N cells, partitioned cell groups, spare pools,
//!   and the §8 co-located (crossed-standby) deployment.
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
pub mod nfapi;
pub mod orion;
pub mod recovery;
pub mod switch_node;

pub use chaos::{
    chaos_deployment, chaos_pool_deployment, expectations_for, run_scenario, ChaosRunner,
};
pub use ctl::CtlPacket;
pub use deployment::{CellDeployment, Deployment, DeploymentBuilder, DeploymentConfig};
pub use fh_mbox::FhMbox;
pub use handover::{handover_mac, HandoverController};
pub use orion::{
    orion_l2_mac, orion_phy_mac, OrionL2Node, OrionPhyNode, ORION_PER_BYTE_NS, ORION_PER_MSG,
};
pub use recovery::{recovery_mac, RecoveryOrchestrator};
pub use switch_node::{ForwardingModel, SwitchNode};
