//! Quickstart: build the full Slingshot testbed, run traffic, kill the
//! primary PHY, and watch the failover happen without the UE noticing.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quickstart
//! ```

use slingshot::{DeploymentBuilder, DeploymentConfig, OrionL2Node, SwitchNode};
use slingshot_ran::{AppServerNode, CellConfig, Fidelity, UeConfig, UeNode, UeState};
use slingshot_sim::{Nanos, TraceEventKind};
use slingshot_transport::{UdpCbrSource, UdpSink};

/// The control-plane steps of a failover, as the trace records them.
const FAILOVER_KINDS: [TraceEventKind; 5] = [
    TraceEventKind::FailureNotifyReceived,
    TraceEventKind::MigrateArmed,
    TraceEventKind::MapFlip,
    TraceEventKind::SpareRequested,
    TraceEventKind::StandbyRepaired,
];

fn main() {
    // 1. Configure the cell. `Sampled` fidelity runs a real LDPC-coded
    //    representative block per transport block — fast enough for
    //    multi-second simulations while keeping decode outcomes
    //    physical. Use `Fidelity::Full` for bit-exact small cells.
    let cfg = DeploymentConfig {
        cell: CellConfig {
            num_prbs: 106, // 40 MHz worth of PRBs for a quick run
            fidelity: Fidelity::Sampled,
            ..CellConfig::default()
        },
        seed: 7,
        ..DeploymentConfig::default()
    };

    // 2. One UE camped on the cell at 22 dB mean SNR.
    let ues = vec![UeConfig::new(100, 0, "my-phone", 22.0)];

    // 3. Build the deployment: RU, switch (with the Slingshot fronthaul
    //    middlebox + failure detector), primary + hot-standby PHY (each
    //    paired with a PHY-side Orion), L2 + L2-side Orion, core, and
    //    an application server.
    let mut d = DeploymentBuilder::new().config(cfg).ues(ues).build();

    // 4. Attach an uplink iperf-style flow: UDP source on the UE,
    //    sink on the app server.
    d.add_flow(
        0,
        100,
        Box::new(UdpCbrSource::new(8_000_000, 1000, Nanos::ZERO)),
        Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
    );

    // 5. Let it run for a second, then SIGKILL the primary PHY.
    println!("running: 1 s of steady state...");
    d.kill_primary_at(Nanos::from_millis(1000));
    println!("killed the primary PHY at t=1.000 s");
    d.engine.run_until(Nanos::from_millis(2500));

    // 6. What happened?
    let orion = d.engine.node::<OrionL2Node>(d.cells[0].orion_l2).unwrap();
    let detected = orion.last_failure_notified.expect("failure detected");
    println!(
        "in-switch detector fired at t={:.6} s ({} µs after the kill)",
        detected.as_secs(),
        (detected - Nanos::from_millis(1000)).as_micros()
    );
    let trace = d.engine.event_trace();
    for ev in trace.iter().filter(|e| FAILOVER_KINDS.contains(&e.kind)) {
        println!(
            "  {} @ {:.6}s: {} a={} b={:#x}",
            d.engine.node_name(ev.node),
            ev.at.as_secs(),
            ev.kind.as_str(),
            ev.a,
            ev.b
        );
    }
    let sw = d.engine.node::<SwitchNode>(d.switch).unwrap();
    println!(
        "switch: {} data-plane migration(s), {} standby downlink frames filtered",
        sw.mbox.migrations_executed, sw.mbox.dl_filtered
    );

    let ue = d.engine.node::<UeNode>(d.ues[0]).unwrap();
    assert_eq!(ue.state, UeState::Connected);
    println!(
        "UE: still {:?}, radio-link failures: {} (the whole point!)",
        ue.state, ue.rlf_count
    );

    let sink: &UdpSink = d
        .engine
        .node::<AppServerNode>(d.server)
        .unwrap()
        .app(100, 0)
        .unwrap();
    println!(
        "uplink flow: {} packets delivered, {:.2}% loss, worst 10 ms bin {:.1} Mbps",
        sink.total_rx,
        sink.loss_rate() * 100.0,
        sink.bins
            .mbps()
            .iter()
            .skip(20) // skip slow start
            .cloned()
            .fold(f64::MAX, f64::min)
    );
}
