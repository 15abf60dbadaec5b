//! Fault-injection tests, smoltcp-style: random drops and corruption on
//! the deployment's links must degrade gracefully — codecs reject
//! garbage, HARQ/RLC absorb losses, the failure detector neither
//! misses real failures nor false-fires, and Orion's §6.1 loss guard
//! keeps a starved PHY alive.

use slingshot::chaos::ChaosRunner;
use slingshot::{
    Deployment, DeploymentBuilder, DeploymentConfig, OrionL2Node, OrionPhyNode, SwitchNode,
};
use slingshot_ran::{CellConfig, Fidelity, PhyNode, UeConfig, UeNode, UeState};
use slingshot_sim::chaos::{FaultKind, FaultTarget, Scenario};
use slingshot_sim::{LinkParams, Nanos};
use slingshot_transport::{UdpCbrSource, UdpSink};

fn cfg(seed: u64) -> DeploymentConfig {
    DeploymentConfig {
        cell: CellConfig {
            num_prbs: 51,
            fidelity: Fidelity::Sampled,
            ..CellConfig::default()
        },
        seed,
        ..DeploymentConfig::default()
    }
}

fn with_flow(seed: u64) -> Deployment {
    let mut d = DeploymentBuilder::new()
        .config(cfg(seed))
        .ue(UeConfig::new(100, 0, "ue", 22.0))
        .build();
    d.add_flow(
        0,
        100,
        Box::new(UdpCbrSource::new(4_000_000, 1000, Nanos::ZERO)),
        Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
    );
    d
}

fn sink_stats(d: &Deployment) -> (u64, f64) {
    let sink: &UdpSink = d
        .engine
        .node::<slingshot_ran::AppServerNode>(d.server)
        .unwrap()
        .app(100, 0)
        .unwrap();
    (sink.total_rx, sink.loss_rate())
}

#[test]
fn lossy_fronthaul_degrades_gracefully() {
    // Expressed in the chaos DSL: 1% random loss on both fronthaul
    // legs for the whole run (4000 slots = 2 s).
    let scenario = Scenario::new("lossy-fh", 4000).fault(
        0,
        FaultTarget::Fronthaul,
        FaultKind::BurstLoss {
            p: 0.01,
            slots: 4000,
        },
    );
    let mut d = with_flow(1);
    ChaosRunner::new(&scenario).run(&mut d, scenario.horizon_slots);
    let (rx, loss) = sink_stats(&d);
    assert!(rx > 500, "rx={rx}");
    assert!(loss < 0.2, "loss={loss}");
    // No false failure detection: heartbeats are redundant enough.
    let sw = d.engine.node::<SwitchNode>(d.switch).unwrap();
    assert_eq!(sw.mbox.failures_reported, 0);
    let ue = d.engine.node::<UeNode>(d.ues[0]).unwrap();
    assert_eq!(ue.rlf_count, 0);
}

#[test]
fn corrupting_fronthaul_never_panics_and_flows() {
    let mut d = with_flow(2);
    let bad = LinkParams::with_bandwidth(Nanos(20_000), 25_000_000_000)
        .corrupt_chance(0.02)
        .drop_chance(0.005);
    d.engine
        .reconfigure_link(d.cells[0].ru, d.switch, bad.clone());
    d.engine.reconfigure_link(d.switch, d.cells[0].ru, bad);
    d.engine.run_until(Nanos::from_secs(2));
    let (rx, _) = sink_stats(&d);
    assert!(rx > 300, "rx={rx}");
    let ue = d.engine.node::<UeNode>(d.ues[0]).unwrap();
    assert_eq!(ue.state, UeState::Connected);
}

#[test]
fn lossy_fapi_transport_triggers_orion_loss_guard() {
    let mut d = with_flow(3);
    // Heavy loss on the L2-side Orion → switch leg (FAPI datagrams).
    let lossy = LinkParams::with_bandwidth(Nanos(2_000), 100_000_000_000).drop_chance(0.05);
    d.engine
        .reconfigure_link(d.cells[0].orion_l2, d.switch, lossy);
    d.engine.run_until(Nanos::from_secs(2));
    // §6.1: Orion injected nulls for the lost slots; the PHY survived.
    let guard = d
        .engine
        .node::<OrionPhyNode>(d.cells[0].orion_primary)
        .unwrap()
        .loss_nulls_injected;
    assert!(guard > 50, "nulls injected = {guard}");
    let phy = d.engine.node::<PhyNode>(d.cells[0].primary_phy).unwrap();
    assert!(
        phy.crash_time.is_none(),
        "PHY must not starve under FAPI datagram loss"
    );
    // Traffic persists (some loss is fine at 5% signaling drop).
    let (rx, _) = sink_stats(&d);
    assert!(rx > 200, "rx={rx}");
}

#[test]
fn failover_still_works_under_background_loss() {
    // Chaos DSL port: 0.5% background fronthaul loss for the whole run
    // with the active PHY crashing mid-way (slot 1600 = 800 ms).
    let scenario = Scenario::new("loss+crash", 4000)
        .fault(
            0,
            FaultTarget::Fronthaul,
            FaultKind::BurstLoss {
                p: 0.005,
                slots: 4000,
            },
        )
        .fault(1600, FaultTarget::ActivePhy, FaultKind::PhyCrash);
    let mut d = with_flow(4);
    ChaosRunner::new(&scenario).run(&mut d, scenario.horizon_slots);
    let orion = d.engine.node::<OrionL2Node>(d.cells[0].orion_l2).unwrap();
    assert_eq!(orion.failovers, 1);
    let ue = d.engine.node::<UeNode>(d.ues[0]).unwrap();
    assert_eq!(ue.rlf_count, 0);
    assert_eq!(ue.state, UeState::Connected);
}

#[test]
fn jittery_server_links_keep_fapi_within_budget() {
    let mut d = with_flow(5);
    for n in [
        d.cells[0].orion_l2,
        d.cells[0].orion_primary,
        d.cells[0].orion_secondary,
    ] {
        d.engine.reconfigure_link(
            n,
            d.switch,
            LinkParams::with_bandwidth(Nanos(2_000), 100_000_000_000).jitter(Nanos(20_000)),
        );
        d.engine.reconfigure_link(
            d.switch,
            n,
            LinkParams::with_bandwidth(Nanos(2_000), 100_000_000_000).jitter(Nanos(20_000)),
        );
    }
    d.engine.run_until(Nanos::from_secs(2));
    let phy = d.engine.node::<PhyNode>(d.cells[0].primary_phy).unwrap();
    assert!(phy.crash_time.is_none());
    let (rx, loss) = sink_stats(&d);
    assert!(rx > 500 && loss < 0.1, "rx={rx} loss={loss}");
}
