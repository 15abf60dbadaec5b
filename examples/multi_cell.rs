//! Two cells, two PHY servers, crossed roles — the paper's production
//! deployment shape (§8): "Slingshot will co-locate primary and
//! secondary PHYs for different RUs within PHY processes, i.e., our
//! design does not require dedicated servers to run just secondary
//! PHYs." Kill one server and watch one cell fail over while the other
//! keeps running on the same surviving process.
//!
//! Run with:
//! ```sh
//! cargo run --release --example multi_cell
//! ```

use slingshot::{DeploymentBuilder, DeploymentConfig, OrionL2Node};
use slingshot_ran::{CellConfig, Fidelity, PhyNode, UeConfig, UeNode};
use slingshot_sim::{Nanos, TraceEventKind};
use slingshot_transport::{UdpCbrSource, UdpSink};

fn main() {
    let cfg = DeploymentConfig {
        cell: CellConfig {
            num_prbs: 51,
            fidelity: Fidelity::Sampled,
            ..CellConfig::default()
        },
        seed: 77,
        ..DeploymentConfig::default()
    };
    let mut d = DeploymentBuilder::new()
        .config(cfg)
        .cells(2)
        .crossed_standbys()
        .ue(UeConfig::new(100, 0, "cell0-phone", 22.0))
        .ue(UeConfig::new(200, 1, "cell1-phone", 22.0))
        .build();
    for (ue_idx, rnti) in [(0, 100), (1, 200)] {
        d.add_flow(
            ue_idx,
            rnti,
            Box::new(UdpCbrSource::new(3_000_000, 900, Nanos::ZERO)),
            Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
        );
    }
    for cell in &d.cells {
        println!(
            "cell {}: primary = PHY {} (standby PHY {})",
            cell.ru_id, cell.primary_phy_id, cell.secondary_phy_id
        );
    }
    println!();

    d.engine.run_until(Nanos::from_millis(800));
    println!("t=0.8 s: killing PHY 1 (cell 0's primary, cell 1's standby)");
    d.engine.kill(d.cells[0].primary_phy);
    d.engine.run_until(Nanos::from_millis(2500));

    for (i, label) in ["cell 0", "cell 1"].iter().enumerate() {
        let orion = d.engine.node::<OrionL2Node>(d.cells[i].orion_l2).unwrap();
        let ue = d.engine.node::<UeNode>(d.cells[i].ues[0]).unwrap();
        println!(
            "{label}: failovers={} | UE {:?}, RLF={}",
            orion.failovers, ue.state, ue.rlf_count
        );
    }
    let failover_kinds = [
        TraceEventKind::FailureNotifyReceived,
        TraceEventKind::MigrateArmed,
        TraceEventKind::MapFlip,
        TraceEventKind::SpareRequested,
        TraceEventKind::StandbyRepaired,
    ];
    let trace = d.engine.event_trace();
    for ev in trace.iter().filter(|e| failover_kinds.contains(&e.kind)) {
        println!(
            "  {} @ {:.6}s: {} a={} b={:#x}",
            d.engine.node_name(ev.node),
            ev.at.as_secs(),
            ev.kind.as_str(),
            ev.a,
            ev.b
        );
    }
    let survivor = d.engine.node::<PhyNode>(d.cells[1].primary_phy).unwrap();
    println!(
        "\nPHY 3 now carries both cells: work slots={}, crashed={}",
        survivor.work_slots,
        survivor.crash_time.is_some()
    );
    for rnti in [100u16, 200] {
        let sink: &UdpSink = d
            .engine
            .node::<slingshot_ran::AppServerNode>(d.server)
            .unwrap()
            .app(rnti, 0)
            .unwrap();
        println!(
            "ue {rnti}: {} packets delivered, {:.2}% loss",
            sink.total_rx,
            sink.loss_rate() * 100.0
        );
    }
}
