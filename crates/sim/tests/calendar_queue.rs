//! Engine-level edge cases for the slot-bucketed calendar event queue
//! (DESIGN.md §5i): same-instant FIFO ordering, timers landing many
//! slots past the bucket ring, `Engine::restart` mid-slot, and
//! byte-identical traces under duplicating/reordering link faults.

use std::sync::{Arc, Mutex};

use slingshot_sim::{Ctx, Engine, LinkParams, Message, Nanos, Node, NodeId, SimRng, SLOT_DURATION};

#[derive(Debug, Clone)]
struct TMsg(u64);

impl Message for TMsg {
    fn wire_size(&self) -> usize {
        64
    }
    fn duplicate(&self) -> Option<Self> {
        Some(self.clone())
    }
}

type Log = Arc<Mutex<Vec<(u64, Nanos)>>>;

/// Records every message payload and timer token with its arrival time.
struct Recorder {
    log: Log,
}

impl Node<TMsg> for Recorder {
    fn on_msg(&mut self, ctx: &mut Ctx<'_, TMsg>, _from: NodeId, msg: TMsg) {
        self.log.lock().unwrap().push((msg.0, ctx.now()));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, TMsg>, token: u64) {
        self.log.lock().unwrap().push((token, ctx.now()));
    }
}

/// Events scheduled for the same nanosecond must dispatch in submission
/// (sequence) order — the calendar queue's `(at, seq)` tie-break, which
/// the golden traces depend on.
#[test]
fn same_instant_events_dispatch_in_submission_order() {
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let mut e: Engine<TMsg> = Engine::new(7);
    let rec = e.add_node("rec", Box::new(Recorder { log: log.clone() }));
    let at = Nanos(123_456);
    for i in 0..64 {
        e.post(at, rec, TMsg(i));
    }
    e.run_until(Nanos::from_millis(1));
    let got = log.lock().unwrap().clone();
    assert_eq!(got.len(), 64);
    for (i, (payload, t)) in got.iter().enumerate() {
        assert_eq!(*payload, i as u64, "same-instant FIFO order violated");
        assert_eq!(*t, at);
    }
}

/// Schedules one-shot timers at irregular distances spanning many slot
/// durations — far past the calendar's bucket ring, forcing every
/// overflow/wrap path — all from the same instant.
struct FarScheduler {
    log: Log,
    delays: Vec<Nanos>,
}

impl Node<TMsg> for FarScheduler {
    fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
        for (i, &d) in self.delays.iter().enumerate() {
            ctx.timer(d, i as u64);
        }
    }
    fn on_msg(&mut self, _ctx: &mut Ctx<'_, TMsg>, _from: NodeId, _msg: TMsg) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, TMsg>, token: u64) {
        self.log.lock().unwrap().push((token, ctx.now()));
    }
}

#[test]
fn far_timers_fire_at_exact_instants() {
    // Irregular spacings from sub-slot up to ~200 slots out, including
    // exact bucket-ring multiples and off-by-one neighbors.
    let mut rng = SimRng::new(99);
    let mut delays: Vec<Nanos> = (0..96)
        .map(|_| Nanos(rng.below(200 * SLOT_DURATION.0) + 1))
        .collect();
    for mult in [64u64, 128, 192] {
        delays.push(Nanos(mult * SLOT_DURATION.0));
        delays.push(Nanos(mult * SLOT_DURATION.0 + 1));
        delays.push(Nanos(mult * SLOT_DURATION.0 - 1));
    }
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let mut e: Engine<TMsg> = Engine::new(11);
    e.add_node(
        "far",
        Box::new(FarScheduler {
            log: log.clone(),
            delays: delays.clone(),
        }),
    );
    e.run_until(Nanos(201 * SLOT_DURATION.0));
    let got = log.lock().unwrap().clone();
    assert_eq!(got.len(), delays.len(), "every far timer must fire");
    for (token, t) in &got {
        assert_eq!(
            *t, delays[*token as usize],
            "timer {token} fired at the wrong instant"
        );
    }
    // Arrival order must be the (at, seq) sort of the schedule.
    let mut expect: Vec<(Nanos, u64)> = delays
        .iter()
        .enumerate()
        .map(|(i, &d)| (d, i as u64))
        .collect();
    expect.sort();
    let order: Vec<(Nanos, u64)> = got.iter().map(|&(tok, t)| (t, tok)).collect();
    assert_eq!(order, expect);
}

/// A worker that re-arms a heartbeat timer forever and reports each
/// start; killing it mid-slot and calling [`Engine::restart`] must
/// replay `on_start`, drop its dead-interval timers, and leave the
/// trace deterministic.
struct Worker {
    log: Log,
    beats: u64,
}

const START_MARK: u64 = 1_000_000;

impl Node<TMsg> for Worker {
    fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
        self.log
            .lock()
            .unwrap()
            .push((START_MARK + self.beats, ctx.now()));
        ctx.timer(Nanos(20_000), 0);
    }
    fn on_msg(&mut self, _ctx: &mut Ctx<'_, TMsg>, _from: NodeId, _msg: TMsg) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, TMsg>, _token: u64) {
        self.beats += 1;
        self.log.lock().unwrap().push((self.beats, ctx.now()));
        ctx.timer(Nanos(20_000), 0);
    }
}

#[test]
fn restart_mid_slot_replays_start_and_drops_dead_timers() {
    let run = |restart: bool| -> (Vec<(u64, Nanos)>, u64) {
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        let mut e: Engine<TMsg> = Engine::new(5);
        let w = e.add_node(
            "worker",
            Box::new(Worker {
                log: log.clone(),
                beats: 0,
            }),
        );
        // Kill and restart mid-slot: both instants are deliberately
        // unaligned to the slot grid.
        let t_kill = Nanos(SLOT_DURATION.0 + SLOT_DURATION.0 / 3);
        let t_restart = Nanos(3 * SLOT_DURATION.0 + SLOT_DURATION.0 / 7);
        e.run_until(t_kill);
        e.kill(w);
        e.run_until(t_restart);
        if restart {
            e.restart(w);
        }
        e.run_until(Nanos(5 * SLOT_DURATION.0));
        let events = log.lock().unwrap().clone();
        (events, e.trace_hash())
    };

    let (events, hash_a) = run(true);
    // on_start fired twice: once at t=0, once at the restart instant.
    let starts: Vec<&(u64, Nanos)> = events.iter().filter(|(t, _)| *t >= START_MARK).collect();
    assert_eq!(starts.len(), 2, "restart must replay on_start");
    assert_eq!(starts[0].1, Nanos(0));
    assert_eq!(
        starts[1].1,
        Nanos(3 * SLOT_DURATION.0 + SLOT_DURATION.0 / 7),
        "on_start must replay at the mid-slot restart instant"
    );
    // No heartbeat fired while dead, and the chain resumed relative to
    // the restart instant (20 µs after it), not the pre-kill phase.
    let t_kill = Nanos(SLOT_DURATION.0 + SLOT_DURATION.0 / 3);
    let t_restart = Nanos(3 * SLOT_DURATION.0 + SLOT_DURATION.0 / 7);
    for (tok, t) in events.iter().filter(|(t, _)| *t < START_MARK) {
        assert!(
            *t < t_kill || *t >= t_restart + Nanos(20_000),
            "heartbeat {tok} fired at {t:?} inside the dead interval"
        );
    }
    // Deterministic: the same run gives the same trace hash.
    let (_, hash_b) = run(true);
    assert_eq!(hash_a, hash_b);
    // And the no-restart control never sees a second start.
    let (control, _) = run(false);
    assert_eq!(
        control.iter().filter(|(t, _)| *t >= START_MARK).count(),
        1,
        "control without restart must not replay on_start"
    );
}

/// An echo ring node: forwards each token to the next hop until its
/// hop budget is spent.
struct EchoRing {
    next: Option<NodeId>,
}

impl Node<TMsg> for EchoRing {
    fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
        // Each node seeds one token with a fresh hop budget.
        ctx.timer(Nanos(1_000), 400);
    }
    fn on_msg(&mut self, ctx: &mut Ctx<'_, TMsg>, _from: NodeId, msg: TMsg) {
        if msg.0 > 0 {
            ctx.send(self.next.unwrap(), TMsg(msg.0 - 1));
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, TMsg>, token: u64) {
        ctx.send(self.next.unwrap(), TMsg(token));
    }
}

fn faulty_ring(seed: u64, lanes: usize, exec_shards: usize) -> Engine<TMsg> {
    const N: usize = 12;
    let mut e: Engine<TMsg> = Engine::new(seed);
    // NodeId is the add order, so ring pointers are known up front.
    let ids: Vec<NodeId> = (0..N)
        .map(|i| {
            e.add_node(
                &format!("echo{i}"),
                Box::new(EchoRing {
                    next: Some(NodeId((i + 1) % N)),
                }),
            )
        })
        .collect();
    for (i, id) in ids.iter().enumerate() {
        assert_eq!(id.0, i);
        // Aggressive fault cocktail: duplication, reordering, jitter,
        // and a little loss, all drawn from the link RNG.
        let params = LinkParams::with_bandwidth(Nanos(5_000), 10_000_000_000)
            .jitter(Nanos(3_000))
            .dup_chance(0.4)
            .reorder(0.4, Nanos(8_000))
            .drop_chance(0.05);
        e.connect(*id, ids[(i + 1) % N], params);
    }
    if lanes > 1 {
        let lane_of: Vec<u32> = (0..N).map(|i| (i % lanes) as u32).collect();
        e.enable_shards(lane_of, lanes);
        e.set_exec_shards(exec_shards);
    }
    e
}

/// Duplicating/reordering/jittering links must stay byte-identical
/// run-to-run for every seed, and — on several lanes — for every
/// exec-shard count (the fault draws live on the sender's lane RNG).
#[test]
fn dup_reorder_fault_traces_are_deterministic() {
    let horizon = Nanos::from_millis(4);
    for seed in 0..8u64 {
        let mut a = faulty_ring(seed, 1, 1);
        a.run_until(horizon);
        let mut b = faulty_ring(seed, 1, 1);
        b.run_until(horizon);
        assert_eq!(a.trace_hash(), b.trace_hash(), "seed {seed}: unsharded");
        assert_eq!(
            a.event_trace().to_bytes(),
            b.event_trace().to_bytes(),
            "seed {seed}: unsharded trace bytes"
        );
        assert!(a.dispatched() > 100, "seed {seed}: ring traffic died early");

        // Sharded: exec-shard count is an execution knob only.
        let mut s1 = faulty_ring(seed, 3, 1);
        s1.run_until(horizon);
        let mut s4 = faulty_ring(seed, 3, 4);
        s4.run_until(horizon);
        assert_eq!(
            s1.trace_hash(),
            s4.trace_hash(),
            "seed {seed}: exec shards changed the trace"
        );
        assert_eq!(s1.event_trace().to_bytes(), s4.event_trace().to_bytes());
    }
}
