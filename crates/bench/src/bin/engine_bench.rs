//! Engine hot-path microbenchmark: raw event throughput of the
//! discrete-event core, isolated from PHY/DSP work.
//!
//! Five synthetic scenarios. Every engine is 1..n lanes advanced in
//! windows that end at slot barriers, so all five cross the barrier;
//! the first four run as one lane, the last as four:
//!
//! - `timer_ring`: self-rearming 1 us timers on 64 nodes — pure
//!   queue push/pop churn, no links.
//! - `mesh_ping`: 32 nodes in a ring forwarding 64 tokens over lossy
//!   10 Gbps links — link model + serialization + trace path.
//! - `dup_storm`: an 8-sender star with dup_chance=1.0 and reordering
//!   — the zero-copy duplicate path and reorder holds.
//! - `far_timers`: a 3:1 mix of near timers and timers up to ~200
//!   slots ahead — calendar bucket wrap and the global-min sweep.
//! - `sharded_lanes`: 4 lanes x 16 nodes of timer churn — the window
//!   loop over more than one lane, outbox drain and the lane-trace
//!   merge.
//! - `sharded_lanes_w2`: the same at 2 workers — the lane runner, one
//!   runner thread plus the caller claiming lanes per window. Reported,
//!   never floored (what two threads buy depends on the host's free
//!   cores); its trace hash must equal `sharded_lanes`'.
//!
//! Every row also prints its windows' summed critical path (the
//! busiest unit of lanes per window) against the lanes' summed busy
//! time ([`Engine::window_timing`]).
//!
//! Each scenario reports events/sec and ns/event; a second profiled
//! pass breaks the slot loop down by stage (queue_push / queue_pop /
//! lane_dispatch / barrier_merge p50s) at one lane and at four. Every
//! JSON row carries its scenario's lane count. Every scenario is run twice
//! and the two trace hashes must match — throughput work must not cost
//! determinism.
//!
//! One mode: 200 simulated ms per scenario (~4 s in all), every
//! scenario held to the floors of `baselines/engine_bench.baseline`,
//! which are compiled in — below 80 % of a floor fails the run, and so
//! does a floor that names no scenario. `BENCH_JSON_DIR=dir` writes the
//! `engine_bench.json` artifact.

use std::collections::HashMap;
use std::time::Instant;

use slingshot_bench::{banner, floor_failures, BenchReport};
use slingshot_sim::engine::{Ctx, Engine, LinkParams, Message, Node, NodeId};
use slingshot_sim::time::{Nanos, SLOT_DURATION};
use slingshot_sim::{SpanProfiler, WindowTiming};

/// Minimal wire-capable message for the link scenarios.
#[derive(Debug, Clone)]
struct Token {
    hops: u32,
    payload: u64,
}

#[derive(Debug, Clone)]
enum BenchMsg {
    Token(Token),
}

impl Message for BenchMsg {
    fn wire_size(&self) -> usize {
        // Nonzero so bandwidth serialization delay is exercised.
        64
    }

    fn duplicate(&self) -> Option<Self> {
        Some(self.clone())
    }
}

// ---------------------------------------------------------------------
// Scenario nodes
// ---------------------------------------------------------------------

/// Re-arms a timer every `period` forever.
struct TimerNode {
    period: Nanos,
}

impl Node<BenchMsg> for TimerNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, BenchMsg>) {
        ctx.timer(self.period, 0);
    }

    fn on_msg(&mut self, _ctx: &mut Ctx<'_, BenchMsg>, _from: NodeId, _msg: BenchMsg) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, BenchMsg>, token: u64) {
        ctx.timer(self.period, token);
    }
}

/// Forwards every received token to a fixed next hop over a link.
struct RingNode {
    next: NodeId,
}

impl Node<BenchMsg> for RingNode {
    fn on_msg(&mut self, ctx: &mut Ctx<'_, BenchMsg>, _from: NodeId, msg: BenchMsg) {
        let BenchMsg::Token(mut t) = msg;
        t.hops += 1;
        t.payload = t
            .payload
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(1);
        ctx.send(self.next, BenchMsg::Token(t));
    }
}

/// Fires a token at a sink every `period`; the link's faults (dup,
/// reorder, jitter) do the interesting work.
struct StormSender {
    sink: NodeId,
    period: Nanos,
    sent: u64,
}

impl Node<BenchMsg> for StormSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_, BenchMsg>) {
        ctx.timer(self.period, 0);
    }

    fn on_msg(&mut self, _ctx: &mut Ctx<'_, BenchMsg>, _from: NodeId, _msg: BenchMsg) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, BenchMsg>, token: u64) {
        self.sent += 1;
        ctx.send(
            self.sink,
            BenchMsg::Token(Token {
                hops: 0,
                payload: self.sent,
            }),
        );
        ctx.timer(self.period, token);
    }
}

/// Swallows tokens (the dup storm sink).
struct Sink;

impl Node<BenchMsg> for Sink {
    fn on_msg(&mut self, _ctx: &mut Ctx<'_, BenchMsg>, _from: NodeId, _msg: BenchMsg) {}
}

/// Keeps a near heartbeat re-armed every few microseconds and, on every
/// 16th beat, also drops a far one-shot up to ~200 slots out — forcing
/// calendar bucket wrap-around and the sparse-queue global-min sweep
/// without starving the near-event stream.
struct FarTimerNode {
    counter: u64,
}

const NEAR_TOKEN: u64 = 0;
const FAR_TOKEN: u64 = 1;

impl Node<BenchMsg> for FarTimerNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, BenchMsg>) {
        ctx.timer(Nanos(2_000), NEAR_TOKEN);
    }

    fn on_msg(&mut self, _ctx: &mut Ctx<'_, BenchMsg>, _from: NodeId, _msg: BenchMsg) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, BenchMsg>, token: u64) {
        if token == FAR_TOKEN {
            return; // one-shot
        }
        self.counter += 1;
        ctx.timer(Nanos(1_000 + (self.counter % 7) * 500), NEAR_TOKEN);
        if self.counter.is_multiple_of(16) {
            // 1..=200 slots ahead, > the 64-bucket ring span.
            let slots = 1 + (self.counter * 37) % 200;
            ctx.timer(Nanos(slots * SLOT_DURATION.0), FAR_TOKEN);
        }
    }
}

// ---------------------------------------------------------------------
// Scenario builders
// ---------------------------------------------------------------------

struct Outcome {
    events: u64,
    wall_secs: f64,
    trace_hash: u64,
    lanes: usize,
    timing: WindowTiming,
    profile: Option<HashMap<String, (u64, u64)>>, // stage -> (p50_ns, count)
}

fn finish(engine: &Engine<BenchMsg>, started: Instant) -> Outcome {
    let wall_secs = started.elapsed().as_secs_f64();
    let profile = engine.profiler().report().map(|rep| {
        rep.stages
            .iter()
            .map(|s| (s.stage.clone(), (s.p50_ns, s.count)))
            .collect()
    });
    Outcome {
        events: engine.dispatched(),
        wall_secs,
        trace_hash: engine.trace_hash(),
        lanes: engine.lane_loads().len(),
        timing: engine.window_timing(),
        profile,
    }
}

fn run_timer_ring(horizon: Nanos, profiled: bool) -> Outcome {
    let mut engine: Engine<BenchMsg> = Engine::new(11);
    if profiled {
        engine.set_profiler(SpanProfiler::enabled());
    }
    for i in 0..64 {
        engine.add_node(
            &format!("t{i}"),
            Box::new(TimerNode {
                period: Nanos(1_000),
            }),
        );
    }
    let started = Instant::now();
    engine.run_for(horizon);
    finish(&engine, started)
}

fn run_mesh_ping(horizon: Nanos, profiled: bool) -> Outcome {
    let mut engine: Engine<BenchMsg> = Engine::new(12);
    if profiled {
        engine.set_profiler(SpanProfiler::enabled());
    }
    let n = 32usize;
    let ids: Vec<NodeId> = (0..n)
        .map(|i| {
            engine.add_node(
                &format!("r{i}"),
                Box::new(RingNode {
                    // Filled in below once all ids exist; placeholder.
                    next: NodeId(0),
                }),
            )
        })
        .collect();
    for (i, &id) in ids.iter().enumerate() {
        let next = ids[(i + 1) % n];
        engine.node_mut::<RingNode>(id).unwrap().next = next;
        engine.connect(
            id,
            next,
            LinkParams::with_bandwidth(Nanos(5_000), 10_000_000_000).jitter(Nanos(200)),
        );
    }
    // 64 tokens spread around the ring.
    for k in 0..64u64 {
        let dst = ids[(k as usize) % n];
        engine.post(
            Nanos(100 + k),
            dst,
            BenchMsg::Token(Token {
                hops: 0,
                payload: k,
            }),
        );
    }
    let started = Instant::now();
    engine.run_for(horizon);
    finish(&engine, started)
}

fn run_dup_storm(horizon: Nanos, profiled: bool) -> Outcome {
    let mut engine: Engine<BenchMsg> = Engine::new(13);
    if profiled {
        engine.set_profiler(SpanProfiler::enabled());
    }
    let sink = engine.add_node("sink", Box::new(Sink));
    for i in 0..8 {
        let s = engine.add_node(
            &format!("s{i}"),
            Box::new(StormSender {
                sink,
                period: Nanos(5_000),
                sent: 0,
            }),
        );
        engine.connect(
            s,
            sink,
            LinkParams::ideal(Nanos(2_000))
                .dup_chance(1.0)
                .reorder(0.5, Nanos(7_000))
                .jitter(Nanos(500)),
        );
    }
    let started = Instant::now();
    engine.run_for(horizon);
    finish(&engine, started)
}

fn run_far_timers(horizon: Nanos, profiled: bool) -> Outcome {
    let mut engine: Engine<BenchMsg> = Engine::new(14);
    if profiled {
        engine.set_profiler(SpanProfiler::enabled());
    }
    for i in 0..32u64 {
        engine.add_node(
            &format!("f{i}"),
            Box::new(FarTimerNode { counter: i * 131 }),
        );
    }
    let started = Instant::now();
    engine.run_for(horizon);
    finish(&engine, started)
}

fn run_sharded_lanes(horizon: Nanos, profiled: bool) -> Outcome {
    sharded_lanes(horizon, profiled, 1)
}

fn run_sharded_lanes_w2(horizon: Nanos, profiled: bool) -> Outcome {
    sharded_lanes(horizon, profiled, 2)
}

fn sharded_lanes(horizon: Nanos, profiled: bool, workers: usize) -> Outcome {
    let mut engine: Engine<BenchMsg> = Engine::new(15);
    if profiled {
        engine.set_profiler(SpanProfiler::enabled());
    }
    let lanes = 4usize;
    let per_lane = 16usize;
    let mut lane_of = Vec::new();
    for lane in 0..lanes {
        for i in 0..per_lane {
            engine.add_node(
                &format!("l{lane}n{i}"),
                Box::new(TimerNode {
                    period: Nanos(10_000),
                }),
            );
            lane_of.push(lane as u32);
        }
    }
    engine.enable_shards(lane_of, lanes, workers);
    let started = Instant::now();
    engine.run_for(horizon);
    finish(&engine, started)
}

type Runner = fn(Nanos, bool) -> Outcome;

const SCENARIOS: [(&str, Runner); 6] = [
    ("timer_ring", run_timer_ring),
    ("mesh_ping", run_mesh_ping),
    ("dup_storm", run_dup_storm),
    ("far_timers", run_far_timers),
    ("sharded_lanes", run_sharded_lanes),
    ("sharded_lanes_w2", run_sharded_lanes_w2),
];

const FLOORS: &str = include_str!("../../baselines/engine_bench.baseline");

/// Simulated milliseconds per scenario.
const HORIZON_MS: u64 = 200;

fn main() {
    banner(
        "engine event-loop throughput",
        "calendar queue + pooled delivery hot path (Slingshot engine overhaul)",
    );

    let horizon = Nanos::from_millis(HORIZON_MS);

    let mut report = BenchReport::new(
        "engine_bench",
        "engine event-loop throughput",
        "Slingshot engine hot path",
    );
    report.label("horizon_ms", &HORIZON_MS.to_string());

    let mut results: Vec<(String, f64)> = Vec::new();
    let mut failed = false;

    println!(
        "{:<16} {:>12} {:>14} {:>10} {:>17}  determinism",
        "scenario", "events", "events/sec", "ns/event", "crit/busy ms"
    );
    let mut hashes = HashMap::new();
    for (name, run) in SCENARIOS {
        // Timed pass + determinism re-run (hashes must match, and a
        // 2-worker run must match its 1-worker twin).
        let a = run(horizon, false);
        let b = run(horizon, false);
        let twin = name.strip_suffix("_w2").map(|w1| hashes[w1]);
        let deterministic = a.trace_hash == b.trace_hash && twin.is_none_or(|h| h == a.trace_hash);
        if !deterministic {
            eprintln!(
                "engine_bench: FAIL {name}: trace hash differs across identical runs \
                 ({:#x} vs {:#x}, 1-worker twin {twin:#x?})",
                a.trace_hash, b.trace_hash
            );
            failed = true;
        }
        hashes.insert(name, a.trace_hash);
        let best_secs = a.wall_secs.min(b.wall_secs);
        let eps = a.events as f64 / best_secs.max(1e-9);
        let ns_per_event = 1e9 / eps.max(1e-9);
        let WindowTiming {
            busy_ns,
            critical_ns,
            ..
        } = a.timing;
        println!(
            "{:<16} {:>12} {:>14.0} {:>10.1} {:>8.1}/{:<8.1}  {}",
            name,
            a.events,
            eps,
            ns_per_event,
            critical_ns as f64 / 1e6,
            busy_ns as f64 / 1e6,
            if deterministic { "ok" } else { "MISMATCH" }
        );
        report.scalar(&format!("{name}_events_per_sec"), eps);
        report.scalar(&format!("{name}_ns_per_event"), ns_per_event);
        report.scalar(&format!("{name}_lanes"), a.lanes as f64);
        report.scalar(
            &format!("{name}_critical_over_busy"),
            critical_ns as f64 / busy_ns.max(1) as f64,
        );
        results.push((name.to_string(), eps));
    }

    // Profiled pass: slot-loop overhead breakdown at one lane and at
    // four.
    println!("\nslot-loop overhead breakdown (p50 per span):");
    for name in ["timer_ring", "sharded_lanes"] {
        let run = SCENARIOS.iter().find(|(n, _)| *n == name).unwrap().1;
        let out = run(Nanos(horizon.0 / 4), true);
        let Some(profile) = out.profile else {
            continue;
        };
        let mut stages: Vec<_> = profile.iter().collect();
        stages.sort_by(|a, b| a.0.cmp(b.0));
        for (stage, (p50, count)) in stages {
            if !matches!(
                stage.as_str(),
                "queue_push" | "queue_pop" | "lane_dispatch" | "barrier_merge"
            ) {
                continue;
            }
            println!("  {name:<14} {stage:<14} p50 {p50:>6} ns  x{count}");
            report.scalar(&format!("{name}_{stage}_p50_ns"), *p50 as f64);
        }
    }

    let below = floor_failures(FLOORS, &results);
    below.iter().for_each(|f| eprintln!("engine_bench: {f}"));
    failed |= !below.is_empty();

    report.write();
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The run's own floor check with speed taken out of it: what is
    /// left to fail is a floor that names no scenario.
    #[test]
    fn every_floor_names_a_scenario() {
        let names = SCENARIOS
            .iter()
            .map(|(name, _)| (name.to_string(), f64::INFINITY));
        let unmatched = floor_failures(FLOORS, &names.collect::<Vec<_>>());
        assert_eq!(unmatched, [] as [String; 0]);
    }
}
