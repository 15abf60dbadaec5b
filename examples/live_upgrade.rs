//! Live PHY upgrade (the paper's §8.3 scenario): the hot standby runs a
//! newer PHY build with a stronger FEC decoder; a planned migration
//! moves the cell onto it with zero downtime, and the UEs' throughput
//! improves.
//!
//! Run with:
//! ```sh
//! cargo run --release --example live_upgrade
//! ```

use slingshot::{DeploymentBuilder, DeploymentConfig};
use slingshot_ran::{AppServerNode, CellConfig, Fidelity, PhyNode, UeConfig, UeNode};
use slingshot_sim::Nanos;
use slingshot_transport::{UdpCbrSource, UdpSink};

fn main() {
    let cfg = DeploymentConfig {
        cell: CellConfig {
            num_prbs: 106,
            fidelity: Fidelity::Sampled,
            fec_iterations: 8, // what the scheduler assumes
            ..CellConfig::default()
        },
        seed: 11,
        // The standby runs the upgraded build: double the decoder
        // iteration budget.
        secondary_fec_iterations: Some(16),
        ..DeploymentConfig::default()
    };
    // A UE whose SNR sits near the decode threshold: it feels the
    // difference between the old and new decoder.
    let ues = vec![UeConfig::new(100, 0, "edge-ue", 16.0)];
    let mut d = DeploymentBuilder::new().config(cfg).ues(ues).build();
    // The currently deployed build is older than the scheduler assumes:
    // it decodes with only 2 iterations.
    d.engine
        .node_mut::<PhyNode>(d.cells[0].primary_phy)
        .unwrap()
        .set_fec_iterations(2);

    d.add_flow(
        0,
        100,
        Box::new(UdpCbrSource::new(25_000_000, 1200, Nanos::ZERO)),
        Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(500))),
    );

    // Upgrade at t = 3 s via planned migration (zero downtime).
    d.planned_migration_at(Nanos::from_secs(3));
    d.engine.run_until(Nanos::from_secs(6));

    let sink: &UdpSink = d
        .engine
        .node::<AppServerNode>(d.server)
        .unwrap()
        .app(100, 0)
        .unwrap();
    let mbps = sink.bins.mbps();
    let before: f64 = mbps[1..6].iter().sum::<f64>() / 5.0;
    let after: f64 = mbps[7..12].iter().sum::<f64>() / 5.0;
    println!("uplink throughput before upgrade (old build, 2 FEC iters): {before:.1} Mbps");
    println!("uplink throughput after  upgrade (new build, 16 FEC iters): {after:.1} Mbps");

    let ue = d.engine.node::<UeNode>(d.ues[0]).unwrap();
    println!(
        "downtime during the upgrade: UE radio-link failures = {} (zero-downtime)",
        ue.rlf_count
    );
    let old = d.engine.node::<PhyNode>(d.cells[0].primary_phy).unwrap();
    println!(
        "old build still alive as the new hot standby (crashed: {})",
        old.crash_time.is_some()
    );
}
