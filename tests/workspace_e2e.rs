//! Workspace-level integration tests: the public API end to end, from
//! the root crate, exactly as a downstream user would drive it.

use slingshot::{Deployment, DeploymentBuilder, OrionL2Node, SwitchNode};
use slingshot_baseline::BaselineDeployment;
use slingshot_ran::{AppServerNode, CellConfig, Fidelity, UeConfig, UeNode, UeState};
use slingshot_sim::{Nanos, TraceEventKind};
use slingshot_transport::{EchoResponder, PingApp, UdpCbrSource, UdpSink};

fn cell() -> CellConfig {
    CellConfig {
        num_prbs: 51,
        fidelity: Fidelity::Sampled,
        ..CellConfig::default()
    }
}

fn slingshot_deployment(seed: u64) -> Deployment {
    DeploymentBuilder::new()
        .seed(seed)
        .cell(cell())
        .ue(UeConfig::new(100, 0, "ue", 22.0))
        .build()
}

/// The headline contrast, in one test: the same crash, handled by
/// Slingshot (UE stays up) and by today's best fallback (UE is gone for
/// multiple seconds).
#[test]
fn slingshot_vs_baseline_headline() {
    // With Slingshot.
    let mut s = slingshot_deployment(1);
    s.add_flow(
        0,
        100,
        Box::new(UdpCbrSource::new(4_000_000, 1000, Nanos::ZERO)),
        Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
    );
    s.kill_primary_at(Nanos::from_secs(1));
    s.engine.run_until(Nanos::from_secs(3));
    let ue = s.engine.node::<UeNode>(s.ues[0]).unwrap();
    assert_eq!(ue.rlf_count, 0);
    assert_eq!(ue.state, UeState::Connected);

    // Without Slingshot (full backup vRAN, fronthaul rerouted).
    let mut b = BaselineDeployment::build(1, cell(), vec![UeConfig::new(100, 0, "ue", 22.0)]);
    b.add_flow(
        0,
        100,
        Box::new(UdpCbrSource::new(4_000_000, 1000, Nanos::ZERO)),
        Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
    );
    b.kill_primary_at(Nanos::from_secs(1));
    b.engine.run_until(Nanos::from_secs(9));
    let ue = b.engine.node::<UeNode>(b.ues[0]).unwrap();
    assert_eq!(ue.rlf_count, 1);
    let outage = (*ue.reattach_times.first().unwrap() - Nanos::from_secs(1)).as_secs();
    assert!(outage > 5.0, "baseline outage only {outage:.1} s");
}

/// Three UEs pinging through repeated planned migrations: nobody drops.
#[test]
fn three_ues_survive_repeated_planned_migrations() {
    let ues = vec![
        UeConfig::new(100, 0, "a", 21.0),
        UeConfig::new(101, 0, "b", 18.0),
        UeConfig::new(102, 0, "c", 24.0),
    ];
    let mut d = DeploymentBuilder::new()
        .seed(2)
        .cell(cell())
        .ues(ues)
        .build();
    for (i, rnti) in [100u16, 101, 102].iter().enumerate() {
        d.add_flow(
            i,
            *rnti,
            Box::new(EchoResponder::new()),
            Box::new(PingApp::new(
                Nanos::from_millis(10),
                Nanos::from_millis(100),
            )),
        );
    }
    for ms in [500u64, 900, 1300, 1700] {
        d.planned_migration_at(Nanos::from_millis(ms));
    }
    d.engine.run_until(Nanos::from_millis(2500));
    let orion = d.engine.node::<OrionL2Node>(d.orion_l2).unwrap();
    assert_eq!(orion.planned_migrations, 4);
    let sw = d.engine.node::<SwitchNode>(d.switch).unwrap();
    assert_eq!(sw.mbox.migrations_executed, 4);
    for (i, rnti) in [100u16, 101, 102].iter().enumerate() {
        let ue = d.engine.node::<UeNode>(d.ues[i]).unwrap();
        assert_eq!(ue.rlf_count, 0, "ue {rnti}");
        let ping: &PingApp = d
            .engine
            .node::<AppServerNode>(d.server)
            .unwrap()
            .app(*rnti, 0)
            .unwrap();
        assert!(
            ping.success_rate() > 0.9,
            "ue {rnti}: {}",
            ping.success_rate()
        );
    }
}

/// Failover followed by a second failover onto the spare PHY: the
/// replacement-standby path of §6.3, through the recovery orchestrator.
#[test]
fn spare_phy_takes_over_after_double_failure() {
    let mut d = DeploymentBuilder::new()
        .seed(3)
        .cell(cell())
        .spare_pool(1)
        .ue(UeConfig::new(100, 0, "ue", 22.0))
        .build();
    d.add_flow(
        0,
        100,
        Box::new(UdpCbrSource::new(2_000_000, 800, Nanos::ZERO)),
        Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
    );
    // First failure: primary dies, secondary takes over, and the
    // orchestrator grants the pooled spare as the new standby.
    d.kill_primary_at(Nanos::from_millis(500));
    d.engine.run_until(Nanos::from_millis(1500));
    let orion = d.engine.node::<OrionL2Node>(d.orion_l2).unwrap();
    assert_eq!(orion.failovers, 1);
    let trace = d.engine.event_trace();
    for kind in [
        TraceEventKind::SpareGranted,
        TraceEventKind::StandbyRepaired,
    ] {
        assert_eq!(trace.of_kind(kind).count(), 1, "{kind:?} after first kill");
    }
    // Second failure: the new primary (old secondary) dies; the spare
    // must take over.
    d.engine.kill(d.secondary_phy);
    d.engine.run_until(Nanos::from_millis(3000));
    let orion = d.engine.node::<OrionL2Node>(d.orion_l2).unwrap();
    assert_eq!(orion.failovers, 2, "second failover onto the spare");
    let ue = d.engine.node::<UeNode>(d.ues[0]).unwrap();
    assert_eq!(ue.rlf_count, 0, "UE survives both failures");
    assert_eq!(ue.state, UeState::Connected);
}

/// Determinism across the whole public API surface.
#[test]
fn full_deployment_is_deterministic() {
    let run = |seed: u64| {
        let mut d = slingshot_deployment(seed);
        d.add_flow(
            0,
            100,
            Box::new(UdpCbrSource::new(2_000_000, 800, Nanos::ZERO)),
            Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
        );
        d.planned_migration_at(Nanos::from_millis(300));
        d.kill_primary_at(Nanos::from_millis(700));
        d.engine.run_until(Nanos::from_millis(1200));
        (d.engine.trace_hash(), d.engine.dispatched())
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9).0, run(10).0);
}
