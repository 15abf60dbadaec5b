//! # slingshot-baseline
//!
//! The paper's two comparison points:
//!
//! - [`vm_migration`]: pre-copy VM live migration of a FlexRAN-like
//!   guest (Fig. 3) — hundreds of milliseconds of pause, guest crashes
//!   in every run.
//! - [`backup_vran`]: today's best-available failover without
//!   Slingshot — a full hot backup vRAN stack with switch-based
//!   fronthaul rerouting, which still incurs a ~6.2 s outage because
//!   the UE must fully re-attach (§8.1).

#![forbid(unsafe_code)]

pub mod backup_vran;
pub mod vm_migration;

pub use backup_vran::{BaselineDeployment, StackSelector};
pub use vm_migration::{migrate_batch, migrate_once, VmMigrationConfig, VmMigrationOutcome};
