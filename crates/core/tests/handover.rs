//! Handover state-machine battery: controller unit tests against stub
//! cells, plus the end-to-end corridor walk on the two-cell deployment
//! (mobility -> measurement report -> context transfer -> switch
//! directory flip -> slot-aligned cutover -> route update).

use slingshot::chaos::{chaos_handover_deployment, expectations_for, run_scenario};
use slingshot::{CtlPacket, HandoverController, SwitchNode};
use slingshot_ran::{CtlMsg, Msg, SliceKind, UeNode};
use slingshot_sim::chaos::Scenario;
use slingshot_sim::{Ctx, Engine, Nanos, Node, NodeId, SlotClock, TraceEventKind};

/// A node that swallows every message: stands in for an L2 (or UE) that
/// never answers, so controller timeouts and dup-guards can be probed
/// in isolation.
struct Blackhole;

impl Node<Msg> for Blackhole {
    fn on_msg(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: Msg) {}
}

/// Controller + two blackhole L2s on a bare engine.
fn controller_rig() -> (Engine<Msg>, NodeId) {
    let mut engine: Engine<Msg> = Engine::new(7);
    let l2a = engine.add_node("l2-a", Box::new(Blackhole));
    let l2b = engine.add_node("l2-b", Box::new(Blackhole));
    let ctl = engine.add_node(
        "handover",
        Box::new(HandoverController::new(SlotClock::new(Nanos::ZERO))),
    );
    let h = engine.node_mut::<HandoverController>(ctl).unwrap();
    h.register_cell(0, l2a);
    h.register_cell(1, l2b);
    (engine, ctl)
}

fn report(rnti: u16, serving_ru: u8, target_ru: u8) -> Msg {
    Msg::Ctl(CtlMsg::MeasurementReport {
        rnti,
        serving_ru,
        target_ru,
        serving_snr_cdb: 1_000,
        target_snr_cdb: 1_800,
    })
}

#[test]
fn report_for_unknown_cell_is_ignored() {
    let (mut engine, ctl) = controller_rig();
    engine.post(Nanos::from_micros(10), ctl, report(100, 0, 9));
    engine.post(Nanos::from_micros(20), ctl, report(100, 9, 1));
    engine.run_until(Nanos::from_millis(1));
    let h = engine.node::<HandoverController>(ctl).unwrap();
    assert_eq!(h.started, 0);
    assert_eq!(h.in_flight(), 0);
}

#[test]
fn same_cell_report_is_ignored() {
    let (mut engine, ctl) = controller_rig();
    engine.post(Nanos::from_micros(10), ctl, report(100, 0, 0));
    engine.run_until(Nanos::from_millis(1));
    assert_eq!(engine.node::<HandoverController>(ctl).unwrap().started, 0);
}

/// The dup guard: repeated reports for a UE with an attempt already in
/// flight collapse into one attempt (one context request, one timer).
#[test]
fn duplicate_reports_collapse_to_one_attempt() {
    let (mut engine, ctl) = controller_rig();
    for i in 0..5u64 {
        engine.post(Nanos::from_micros(10 + i), ctl, report(100, 0, 1));
    }
    engine.run_until(Nanos::from_millis(1));
    let h = engine.node::<HandoverController>(ctl).unwrap();
    assert_eq!(h.started, 1, "one attempt per UE at a time");
    assert_eq!(h.in_flight(), 1);
}

/// Distinct UEs each get their own attempt.
#[test]
fn independent_ues_run_concurrent_attempts() {
    let (mut engine, ctl) = controller_rig();
    engine.post(Nanos::from_micros(10), ctl, report(100, 0, 1));
    engine.post(Nanos::from_micros(11), ctl, report(101, 1, 0));
    engine.run_until(Nanos::from_millis(1));
    let h = engine.node::<HandoverController>(ctl).unwrap();
    assert_eq!(h.started, 2);
    assert_eq!(h.in_flight(), 2);
}

/// The source L2 never answers the context request (dead process,
/// partitioned link): the attempt must time out and be abandoned, not
/// pin the UE's handover slot forever.
#[test]
fn stuck_attempt_times_out_and_aborts() {
    let (mut engine, ctl) = controller_rig();
    engine.post(Nanos::from_micros(10), ctl, report(100, 0, 1));
    // The controller's 100-slot attempt timeout is 50 ms; run well past it.
    engine.run_until(Nanos::from_millis(80));
    let h = engine.node::<HandoverController>(ctl).unwrap();
    assert_eq!(h.aborted, 1);
    assert_eq!(h.in_flight(), 0);
    assert_eq!(h.completed, 0);
}

/// A context transfer that does not match the in-flight attempt (wrong
/// source or target cell — e.g. a stale duplicate from a previous
/// attempt) must not advance the state machine.
#[test]
fn mismatched_context_transfer_is_ignored() {
    let (mut engine, ctl) = controller_rig();
    engine.post(Nanos::from_micros(10), ctl, report(100, 0, 1));
    let stale = Msg::Ctl(CtlMsg::HandoverContextTransfer {
        rnti: 100,
        source_ru: 1,
        target_ru: 0,
        snr_cdb: 1_000,
        slice: SliceKind::Embb as u8,
    });
    engine.post(Nanos::from_micros(200), ctl, stale);
    // A matching completion must also be refused while AwaitContext.
    engine.post(
        Nanos::from_micros(300),
        ctl,
        Msg::Ctl(CtlMsg::HandoverComplete {
            rnti: 100,
            target_ru: 0,
        }),
    );
    engine.run_until(Nanos::from_millis(1));
    let h = engine.node::<HandoverController>(ctl).unwrap();
    assert_eq!(h.completed, 0);
    assert_eq!(h.in_flight(), 1, "attempt still awaiting real context");
}

/// The happy path through the raw state machine: context transfer moves
/// the attempt to AwaitComplete, completion retires it.
#[test]
fn transfer_then_complete_retires_attempt() {
    let (mut engine, ctl) = controller_rig();
    engine.post(Nanos::from_micros(10), ctl, report(100, 0, 1));
    engine.post(
        Nanos::from_micros(200),
        ctl,
        Msg::Ctl(CtlMsg::HandoverContextTransfer {
            rnti: 100,
            source_ru: 0,
            target_ru: 1,
            snr_cdb: 1_000,
            slice: SliceKind::Urllc as u8,
        }),
    );
    engine.post(
        Nanos::from_micros(400),
        ctl,
        Msg::Ctl(CtlMsg::HandoverComplete {
            rnti: 100,
            target_ru: 1,
        }),
    );
    engine.run_until(Nanos::from_millis(1));
    let h = engine.node::<HandoverController>(ctl).unwrap();
    assert_eq!(h.completed, 1);
    assert_eq!(h.aborted, 0);
    assert_eq!(h.in_flight(), 0);
}

/// A controller restart forgets all soft state: in-flight attempts are
/// abandoned (the UEs recover via RLF), nothing dangles.
#[test]
fn restart_clears_in_flight_attempts() {
    let (mut engine, ctl) = controller_rig();
    engine.post(Nanos::from_micros(10), ctl, report(100, 0, 1));
    engine.run_until(Nanos::from_millis(1));
    assert_eq!(
        engine.node::<HandoverController>(ctl).unwrap().in_flight(),
        1
    );
    engine.kill(ctl);
    engine.restart(ctl);
    engine.run_until(Nanos::from_millis(2));
    assert_eq!(
        engine.node::<HandoverController>(ctl).unwrap().in_flight(),
        0
    );
}

/// The wire codec for the switch-arming packet round-trips.
#[test]
fn handover_on_slot_codec_roundtrips() {
    let pkt = CtlPacket::HandoverOnSlot {
        rnti: 0x1234,
        source_ru: 2,
        target_ru: 5,
        slot_scalar: 4999,
    };
    assert_eq!(CtlPacket::from_bytes(&pkt.to_bytes()), Some(pkt));
}

// ---------------------------------------------------------------------
// End-to-end corridor walk on the real two-cell deployment.
// ---------------------------------------------------------------------

#[test]
fn corridor_walk_hands_over_end_to_end() {
    let scenario = Scenario::new("clean-corridor", 2400);
    let mut d = chaos_handover_deployment(41);
    let exp = expectations_for(&d, &scenario);
    assert_eq!(
        exp.initial_serving,
        vec![(100, 0), (101, 0), (102, 1)],
        "expectations must capture the built serving map"
    );
    let report = run_scenario(&mut d, &scenario);
    assert!(report.ok(), "violations: {:?}", report.violations);

    // The controller saw the full choreography.
    let h = d
        .engine
        .node::<HandoverController>(d.handover.unwrap())
        .unwrap();
    assert!(h.completed >= 1, "completed {}", h.completed);
    assert_eq!(h.in_flight(), 0, "no attempt may dangle at end of run");

    // The UE ended up served by the target cell...
    let ue = d.engine.node::<UeNode>(d.cells[0].ues[0]).unwrap();
    assert_eq!(ue.rnti(), 100);
    assert_eq!(ue.serving_ru(), 1, "mobile UE must end on cell 1");
    // ...and the switch's UE directory agrees (data plane flipped).
    let sw = d.engine.node_mut::<SwitchNode>(d.switch).unwrap();
    assert_eq!(sw.mbox.serving_ru(100), 1);
    // Static UEs never moved.
    assert_eq!(sw.mbox.serving_ru(101), 0);
    assert_eq!(sw.mbox.serving_ru(102), 1);

    // The trace carries the armed + flip pair for the data plane.
    let trace = d.engine.event_trace();
    let armed = trace
        .iter()
        .filter(|e| e.kind == TraceEventKind::HandoverArmed)
        .count();
    let flips: Vec<_> = trace
        .iter()
        .filter(|e| e.kind == TraceEventKind::HandoverFlip)
        .collect();
    assert!(armed >= 1, "switch must log the armed cutover");
    assert!(!flips.is_empty());
    for f in &flips {
        assert_eq!(f.a, 100, "only the mobile UE flips");
        assert_eq!(f.b & 0xFFFF, 1, "flip must point at cell 1");
    }
}

/// The cutover is slot-aligned: every HandoverFlip executes on a packet
/// whose carried slot sits on a TDD-cycle boundary (epoch slot index
/// divisible by 5), mirroring the migrate-on-slot discipline. The
/// event's wall-clock `at` can precede the boundary slot because
/// fronthaul packets for slot N traverse the switch ahead of N (timing
/// advance); the packet-carried slot is the data-plane truth.
#[test]
fn cutover_lands_on_tdd_boundary() {
    let scenario = Scenario::new("clean-corridor", 2400);
    let mut d = chaos_handover_deployment(42);
    run_scenario(&mut d, &scenario);
    let flips: Vec<_> = d
        .engine
        .event_trace()
        .iter()
        .filter(|e| e.kind == TraceEventKind::HandoverFlip)
        .map(|e| e.slot.epoch_index())
        .collect();
    assert!(!flips.is_empty());
    for abs in flips {
        assert_eq!(abs % 5, 0, "cutover at slot {abs} is not TDD-aligned");
    }
}

/// Same seed, same scenario: the corridor walk is byte-identical run to
/// run, and different seeds genuinely differ.
#[test]
fn corridor_walk_is_reproducible() {
    let run = |seed: u64| {
        let scenario = Scenario::new("clean-corridor", 2000);
        let mut d = chaos_handover_deployment(seed);
        run_scenario(&mut d, &scenario);
        (d.engine.event_trace().to_bytes(), d.engine.trace_hash())
    };
    let a = run(43);
    let b = run(43);
    assert_eq!(a.1, b.1);
    assert_eq!(a.0, b.0);
    assert_ne!(run(44).1, a.1, "different seed, different trace");
}
