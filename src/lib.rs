//! # slingshot-repro
//!
//! Umbrella crate of the Slingshot (SIGCOMM 2023) reproduction: re-exports
//! every workspace crate and hosts the workspace-level examples, the
//! integration tests, and the property-test suite. See `README.md` for an
//! overview, `DESIGN.md` for the system inventory and hardware→simulation
//! substitutions, and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! The five-minute tour — build the full testbed, run traffic, crash the
//! primary PHY, and confirm the UE never noticed:
//!
//! ```
//! use slingshot::{DeploymentBuilder, OrionL2Node};
//! use slingshot_ran::{CellConfig, Fidelity, UeConfig, UeNode, UeState};
//! use slingshot_sim::Nanos;
//! use slingshot_transport::{UdpCbrSource, UdpSink};
//!
//! let mut d = DeploymentBuilder::new()
//!     .seed(1)
//!     .cell(CellConfig {
//!         num_prbs: 24,                 // small cell keeps the doctest fast
//!         fidelity: Fidelity::Sampled,  // real LDPC on a representative block
//!         ..CellConfig::default()
//!     })
//!     .ue(UeConfig::new(100, 0, "ue", 22.0))
//!     .build();
//! d.add_flow(
//!     0,
//!     100,
//!     Box::new(UdpCbrSource::new(1_000_000, 600, Nanos::ZERO)),   // at the UE
//!     Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))), // at the server
//! );
//! d.kill_primary_at(Nanos::from_millis(300));
//! d.engine.run_until(Nanos::from_millis(700));
//!
//! // The in-switch detector fired within its 450 µs + tick budget…
//! let orion = d.engine.node::<OrionL2Node>(d.cells[0].orion_l2).unwrap();
//! let detect = orion.last_failure_notified.unwrap() - Nanos::from_millis(300);
//! assert!(detect < Nanos::from_millis(1));
//! // …and the UE rode through the failover without radio-link failure.
//! let ue = d.engine.node::<UeNode>(d.ues[0]).unwrap();
//! assert_eq!(ue.state, UeState::Connected);
//! assert_eq!(ue.rlf_count, 0);
//! ```

#![forbid(unsafe_code)]

pub use slingshot as core;
pub use slingshot_baseline as baseline;
pub use slingshot_fapi as fapi;
pub use slingshot_fronthaul as fronthaul;
pub use slingshot_netsim as netsim;
pub use slingshot_phy_dsp as phy_dsp;
pub use slingshot_ran as ran;
pub use slingshot_sim as sim;
pub use slingshot_switch as switch;
pub use slingshot_transport as transport;
