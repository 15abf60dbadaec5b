//! End-to-end integration tests of the RAN stack with a plain
//! (non-Slingshot) switch: a static MAC forwarder that also resolves
//! the RU's virtual PHY address to the single PHY — the "conventional
//! RAN deployment" of paper §5.1.

use slingshot_netsim::{EtherType, Frame, MacAddr};
use slingshot_ran::*;
use slingshot_sim::{Ctx, Engine, LinkParams, Nanos, Node, NodeId, SimRng, SlotClock};
use slingshot_transport::{EchoResponder, PingApp, UdpCbrSource, UdpSink};

/// A dumb switch: static MAC → node routing, with the virtual PHY
/// address statically mapped to the one real PHY.
struct PlainSwitch {
    routes: Vec<(MacAddr, NodeId)>,
    /// virtual address → physical address rewrite.
    translate: Vec<(MacAddr, MacAddr)>,
}

impl Node<Msg> for PlainSwitch {
    fn on_msg(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        let Msg::Eth(mut frame) = msg else { return };
        if let Some((_, phys)) = self.translate.iter().find(|(v, _)| *v == frame.dst) {
            frame.dst = *phys;
        }
        if let Some((_, node)) = self.routes.iter().find(|(m, _)| *m == frame.dst) {
            let node = *node;
            ctx.send(node, Msg::Eth(frame));
        }
    }
}

/// A fully wired single-cell testbed without Slingshot.
struct Testbed {
    engine: Engine<Msg>,
    server: NodeId,
    l2: NodeId,
    phy: NodeId,
    ru: NodeId,
    ues: Vec<NodeId>,
}

fn build(seed: u64, ue_cfgs: Vec<UeConfig>, cell: CellConfig) -> Testbed {
    let mut engine: Engine<Msg> = Engine::new(seed);
    let clock = SlotClock::new(Nanos::ZERO);
    let mut rng = SimRng::new(seed ^ 0xBEEF);

    let server = engine.add_node("server", Box::new(AppServerNode::new()));
    let core = engine.add_node("core", Box::new(CoreNode::new()));
    let mut l2n = L2Node::new(cell.clone(), clock, 0);
    for cfg in &ue_cfgs {
        l2n.preattach_ue(cfg.rnti, cfg.snr.mean_db);
    }
    let l2 = engine.add_node("l2", Box::new(l2n));
    let phyn = PhyNode::new(PhyConfig::new(1), cell.clone(), clock, rng.fork("phy"));
    let phy_mac = phyn.mac();
    let phy = engine.add_node("phy", Box::new(phyn));
    let run = RuNode::new(0, clock);
    let ru_mac = run.mac();
    let ru = engine.add_node("ru", Box::new(run));
    let mut ues = Vec::new();
    for cfg in ue_cfgs {
        let name = cfg.name.clone();
        let ue = UeNode::new(cfg, cell.clone(), clock, rng.fork(&name));
        ues.push(engine.add_node(&name, Box::new(ue)));
    }
    let sw = engine.add_node(
        "switch",
        Box::new(PlainSwitch {
            routes: vec![(phy_mac, phy), (ru_mac, ru)],
            translate: vec![(MacAddr::virtual_phy(0), phy_mac)],
        }),
    );

    // Wiring.
    engine.node_mut::<AppServerNode>(server).unwrap().wire(core);
    engine.node_mut::<CoreNode>(core).unwrap().wire(l2, server);
    engine.node_mut::<L2Node>(l2).unwrap().wire(phy, core);
    engine.node_mut::<PhyNode>(phy).unwrap().wire(sw, l2);
    engine.node_mut::<RuNode>(ru).unwrap().wire(sw, ues.clone());
    for ue in &ues {
        engine.node_mut::<UeNode>(*ue).unwrap().wire(ru, l2);
    }

    // Links. Backhaul: server↔core↔L2 (the ~20 ms RTT budget of the
    // paper's ping experiments lives here). Fronthaul: 25 GbE, 20 µs.
    let backhaul = LinkParams::with_bandwidth(Nanos::from_millis(4), 10_000_000_000);
    engine.connect_duplex(server, core, backhaul.clone());
    engine.connect_duplex(
        core,
        l2,
        LinkParams::with_bandwidth(Nanos::from_millis(4), 10_000_000_000),
    );
    // L2↔PHY FAPI (co-located / SHM in this baseline).
    engine.connect_duplex(l2, phy, LinkParams::ideal(Nanos(2_000)));
    // Fronthaul legs through the switch.
    engine.connect_duplex(
        phy,
        sw,
        LinkParams::with_bandwidth(Nanos(5_000), 100_000_000_000),
    );
    engine.connect_duplex(
        ru,
        sw,
        LinkParams::with_bandwidth(Nanos(20_000), 25_000_000_000),
    );

    Testbed {
        engine,
        server,
        l2,
        phy,
        ru,
        ues,
    }
}

fn one_ue(snr_db: f64) -> Vec<UeConfig> {
    vec![UeConfig::new(100, 0, "ue100", snr_db)]
}

#[test]
fn uplink_udp_flow_delivers() {
    let cell = CellConfig {
        num_prbs: 51,
        fidelity: Fidelity::Sampled,
        ..CellConfig::default()
    };
    let mut tb = build(1, one_ue(22.0), cell);
    // 4 Mbps uplink CBR from the UE to the server.
    tb.engine
        .node_mut::<UeNode>(tb.ues[0])
        .unwrap()
        .add_app(Box::new(UdpCbrSource::new(4_000_000, 1000, Nanos::ZERO)));
    tb.engine
        .node_mut::<AppServerNode>(tb.server)
        .unwrap()
        .add_app(
            100,
            Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
        );
    tb.engine.run_until(Nanos::from_millis(2000));
    let sink: &UdpSink = tb
        .engine
        .node::<AppServerNode>(tb.server)
        .unwrap()
        .app(100, 0)
        .unwrap();
    assert!(sink.total_rx > 500, "rx={}", sink.total_rx);
    assert!(sink.loss_rate() < 0.15, "loss={}", sink.loss_rate());
    // Steady state throughput ≈ offered rate.
    let mbps = sink.bins.mbps();
    let steady: f64 = mbps[100..].iter().sum::<f64>() / (mbps.len() - 100) as f64;
    assert!((3.0..5.0).contains(&steady), "steady={steady} Mbps");
}

#[test]
fn downlink_udp_flow_delivers() {
    let cell = CellConfig {
        num_prbs: 51,
        fidelity: Fidelity::Sampled,
        ..CellConfig::default()
    };
    let mut tb = build(2, one_ue(22.0), cell);
    tb.engine
        .node_mut::<AppServerNode>(tb.server)
        .unwrap()
        .add_app(
            100,
            Box::new(UdpCbrSource::new(8_000_000, 1000, Nanos::ZERO)),
        );
    tb.engine
        .node_mut::<UeNode>(tb.ues[0])
        .unwrap()
        .add_app(Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))));
    tb.engine.run_until(Nanos::from_millis(2000));
    let ue = tb.engine.node::<UeNode>(tb.ues[0]).unwrap();
    let sink: &UdpSink = ue.app(0).unwrap();
    assert!(sink.total_rx > 1000, "rx={}", sink.total_rx);
    assert!(sink.loss_rate() < 0.15, "loss={}", sink.loss_rate());
    assert!(ue.dl_tbs_ok > 100, "dl ok={}", ue.dl_tbs_ok);
}

#[test]
fn ping_rtt_matches_paper_scale() {
    let cell = CellConfig {
        num_prbs: 51,
        fidelity: Fidelity::Sampled,
        ..CellConfig::default()
    };
    let mut tb = build(3, one_ue(22.0), cell);
    // Server pings the UE every 10 ms (paper §8.7: median 22.8 ms).
    tb.engine
        .node_mut::<AppServerNode>(tb.server)
        .unwrap()
        .add_app(
            100,
            Box::new(PingApp::new(
                Nanos::from_millis(10),
                Nanos::from_millis(100),
            )),
        );
    tb.engine
        .node_mut::<UeNode>(tb.ues[0])
        .unwrap()
        .add_app(Box::new(EchoResponder::new()));
    tb.engine.run_until(Nanos::from_millis(3000));
    let ping: &PingApp = tb
        .engine
        .node::<AppServerNode>(tb.server)
        .unwrap()
        .app(100, 0)
        .unwrap();
    {
        let ue = tb.engine.node::<UeNode>(tb.ues[0]).unwrap();
        let echo: &EchoResponder = ue.app(0).unwrap();
        let srv = tb.engine.node::<AppServerNode>(tb.server).unwrap();
        eprintln!("dbg ping: sent={} delivered_to_ue_apps={} echoed={} srv_rx={} srv_tx={} ue_dl_ok={} ue_dl_bad={}",
            ping.sent, ue.delivered_to_apps, echo.echoed, srv.rx_packets, srv.tx_packets, ue.dl_tbs_ok, ue.dl_tbs_bad);
    }
    assert!(ping.rtts.len() > 200, "completed={}", ping.rtts.len());
    assert!(ping.success_rate() > 0.9, "success={}", ping.success_rate());
    let mut s = slingshot_sim::Sampler::new();
    for (_, rtt) in &ping.rtts {
        s.record(rtt.0);
    }
    let median_ms = s.median().unwrap() as f64 / 1e6;
    assert!(
        (12.0..40.0).contains(&median_ms),
        "median rtt = {median_ms} ms"
    );
}

#[test]
fn phy_crash_darkens_cell_then_ue_reattaches() {
    let cell = CellConfig {
        num_prbs: 51,
        fidelity: Fidelity::Sampled,
        ..CellConfig::default()
    };
    let mut tb = build(4, one_ue(22.0), cell);
    tb.engine.run_until(Nanos::from_millis(500));
    // SIGKILL the PHY.
    tb.engine.kill(tb.phy);
    tb.engine.run_until(Nanos::from_millis(1000));
    let ue = tb.engine.node::<UeNode>(tb.ues[0]).unwrap();
    assert_eq!(ue.rlf_count, 1, "UE should declare RLF");
    assert_ne!(ue.state, UeState::Connected);
    let ru = tb.engine.node::<RuNode>(tb.ru).unwrap();
    assert!(ru.slots_dark > 500, "dark={}", ru.slots_dark);
    // Without a standby PHY the UE stays down (no cell to reattach to).
    tb.engine.run_until(Nanos::from_millis(9000));
    let ue = tb.engine.node::<UeNode>(tb.ues[0]).unwrap();
    assert_ne!(ue.state, UeState::Connected);
}

#[test]
fn l2_death_crashes_phy_within_slots() {
    let cell = CellConfig {
        num_prbs: 24,
        fidelity: Fidelity::Sampled,
        ..CellConfig::default()
    };
    let mut tb = build(5, one_ue(20.0), cell);
    tb.engine.run_until(Nanos::from_millis(100));
    assert!(tb
        .engine
        .node::<PhyNode>(tb.phy)
        .unwrap()
        .crash_time
        .is_none());
    // Kill the L2: FAPI requests stop; FlexRAN-like crash follows.
    tb.engine.kill(tb.l2);
    tb.engine.run_until(Nanos::from_millis(200));
    let phy = tb.engine.node::<PhyNode>(tb.phy).unwrap();
    let crash = phy.crash_time.expect("PHY must crash without FAPI");
    let delta_ms = (crash - Nanos::from_millis(100)).as_millis();
    assert!(delta_ms < 10.0, "crash after {delta_ms} ms");
}

#[test]
fn deterministic_across_runs() {
    let run = |seed| {
        let cell = CellConfig {
            num_prbs: 24,
            fidelity: Fidelity::Sampled,
            ..CellConfig::default()
        };
        let mut tb = build(seed, one_ue(20.0), cell);
        tb.engine
            .node_mut::<UeNode>(tb.ues[0])
            .unwrap()
            .add_app(Box::new(UdpCbrSource::new(2_000_000, 800, Nanos::ZERO)));
        tb.engine
            .node_mut::<AppServerNode>(tb.server)
            .unwrap()
            .add_app(
                100,
                Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
            );
        tb.engine.run_until(Nanos::from_millis(500));
        (tb.engine.trace_hash(), tb.engine.dispatched())
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42).0, run(43).0);
}

#[test]
fn full_fidelity_small_cell_works_end_to_end() {
    // The real LDPC chain end to end (24 PRBs keeps it fast).
    let cell = CellConfig::small_test_cell();
    let mut tb = build(6, one_ue(24.0), cell);
    tb.engine
        .node_mut::<UeNode>(tb.ues[0])
        .unwrap()
        .add_app(Box::new(UdpCbrSource::new(1_000_000, 600, Nanos::ZERO)));
    tb.engine
        .node_mut::<AppServerNode>(tb.server)
        .unwrap()
        .add_app(
            100,
            Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
        );
    tb.engine.run_until(Nanos::from_millis(800));
    let sink: &UdpSink = tb
        .engine
        .node::<AppServerNode>(tb.server)
        .unwrap()
        .app(100, 0)
        .unwrap();
    assert!(sink.total_rx > 50, "rx={}", sink.total_rx);
}

/// Regression guard: frames other than eCPRI are ignored by RU/PHY.
#[test]
fn foreign_frames_ignored() {
    let cell = CellConfig {
        num_prbs: 24,
        fidelity: Fidelity::Sampled,
        ..CellConfig::default()
    };
    let mut tb = build(7, one_ue(20.0), cell);
    let ru_mac = MacAddr::for_ru(0);
    tb.engine.post(
        Nanos::from_millis(10),
        tb.ru,
        Msg::Eth(Frame::new(
            ru_mac,
            MacAddr::ZERO,
            EtherType::Ipv4,
            bytes::Bytes::from_static(b"not ecpri"),
        )),
    );
    tb.engine.run_until(Nanos::from_millis(50));
    // Nothing crashed, stack still alive.
    assert!(tb
        .engine
        .node::<PhyNode>(tb.phy)
        .unwrap()
        .crash_time
        .is_none());
}

#[test]
#[ignore]
fn debug_downlink_counters() {
    let cell = CellConfig {
        num_prbs: 51,
        fidelity: Fidelity::Sampled,
        ..CellConfig::default()
    };
    let mut tb = build(2, one_ue(22.0), cell);
    tb.engine
        .node_mut::<AppServerNode>(tb.server)
        .unwrap()
        .add_app(
            100,
            Box::new(UdpCbrSource::new(8_000_000, 1000, Nanos::ZERO)),
        );
    tb.engine
        .node_mut::<UeNode>(tb.ues[0])
        .unwrap()
        .add_app(Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))));
    tb.engine.run_until(Nanos::from_millis(500));
    let ue = tb.engine.node::<UeNode>(tb.ues[0]).unwrap();
    let l2 = tb.engine.node::<L2Node>(tb.l2).unwrap();
    let phy = tb.engine.node::<PhyNode>(tb.phy).unwrap();
    let ru = tb.engine.node::<RuNode>(tb.ru).unwrap();
    println!(
        "ue: dl_ok={} dl_bad={} delivered={} grants={} state={:?}",
        ue.dl_tbs_ok, ue.dl_tbs_bad, ue.delivered_to_apps, ue.ul_grants_served, ue.state
    );
    println!(
        "l2: dl_queued={} new_tx={} retx={} dl_harq_fail={} ",
        l2.dl_packets_queued, l2.sched.dl_new_tx, l2.sched.dl_retx, l2.sched.dl_harq_failures
    );
    println!(
        "phy: work_slots={} null_slots={} crash={:?}",
        phy.work_slots, phy.null_slots, phy.crash_time
    );
    println!(
        "ru: bursts={} dark={} ulframes={}",
        ru.bursts_tx, ru.slots_dark, ru.ul_frames_tx
    );
    let sink: &UdpSink = ue.app(0).unwrap();
    println!("sink rx={} lost={}", sink.total_rx, sink.total_lost);
}

/// Deep periodic fades: link adaptation walks MCS down and back up;
/// the connection rides through (the "routine wireless impairments"
/// the paper's whole premise leans on).
#[test]
fn deep_fades_are_survived_by_link_adaptation() {
    let cell = CellConfig {
        num_prbs: 51,
        fidelity: Fidelity::Sampled,
        ..CellConfig::default()
    };
    let mut cfg = UeConfig::new(100, 0, "fady", 21.0);
    cfg.snr = slingshot_phy_dsp::SnrProcessConfig {
        mean_db: 21.0,
        fade_chance: 0.004,
        fade_depth_db: 12.0,
        fade_steps: 60, // 30 ms fades
        ..Default::default()
    };
    let mut tb = build(8, vec![cfg], cell);
    tb.engine
        .node_mut::<UeNode>(tb.ues[0])
        .unwrap()
        .add_app(Box::new(UdpCbrSource::new(3_000_000, 900, Nanos::ZERO)));
    tb.engine
        .node_mut::<AppServerNode>(tb.server)
        .unwrap()
        .add_app(
            100,
            Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
        );
    tb.engine.run_until(Nanos::from_secs(4));
    let ue = tb.engine.node::<UeNode>(tb.ues[0]).unwrap();
    assert_eq!(ue.state, UeState::Connected, "fades must not disconnect");
    let sink: &UdpSink = tb
        .engine
        .node::<AppServerNode>(tb.server)
        .unwrap()
        .app(100, 0)
        .unwrap();
    assert!(sink.total_rx > 800, "rx={}", sink.total_rx);
    // Link adaptation must have moved through multiple MCS levels.
    let l2 = tb.engine.node::<L2Node>(tb.l2).unwrap();
    let ue_sched = &l2.sched.ues[&100];
    assert!(ue_sched.ul_snr_db.is_finite());
    // HARQ was exercised by the fades.
    assert!(
        l2.sched.ul_retx > 20,
        "fades should force retransmissions: {}",
        l2.sched.ul_retx
    );
}
