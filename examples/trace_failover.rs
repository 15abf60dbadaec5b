//! A PHY failover as a slot timeline: runs the §8.2 failover scenario,
//! then exports the engine's structured event trace as Chrome
//! `trace_event` JSON — open `trace_failover.json` in
//! `chrome://tracing` or <https://ui.perfetto.dev> to see detector
//! saturation, failure notification, and RU→PHY map flip on one
//! nanosecond-resolution timeline. Heartbeats are not traced: the
//! heartbeat gap is the span from `DetectorSaturated.b`, the last
//! heartbeat's arrival, to the saturation.
//!
//! The run also opts into the wall-clock slot profiler (a side channel
//! that never touches the deterministic trace) and finishes with the
//! SLO analyzer's availability report over the same trace — the full
//! observability surface on one failover.
//!
//! Run with:
//! ```sh
//! cargo run --release --example trace_failover
//! ```

use slingshot::{DeploymentBuilder, DeploymentConfig};
use slingshot_ran::{CellConfig, Fidelity, UeConfig};
use slingshot_sim::slo::{self, SloConfig};
use slingshot_sim::trace::detections;
use slingshot_sim::{Nanos, SpanProfiler, TraceEventKind, SLOT_DURATION};
use slingshot_transport::{UdpCbrSource, UdpSink};

fn main() {
    let cfg = DeploymentConfig {
        cell: CellConfig {
            num_prbs: 51,
            fidelity: Fidelity::Sampled,
            ..CellConfig::default()
        },
        seed: 8,
        ..DeploymentConfig::default()
    };
    let mut d = DeploymentBuilder::new()
        .config(cfg)
        .ue(UeConfig::new(100, 0, "ue100", 22.0))
        .build();
    d.add_flow(
        0,
        100,
        Box::new(UdpCbrSource::new(4_000_000, 1000, Nanos::ZERO)),
        Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
    );

    // Opt into wall-clock span profiling with the 500 µs TTI as the
    // deadline budget. The profiler is a side channel: enabling it
    // leaves the deterministic event trace byte-identical.
    d.engine
        .set_profiler(SpanProfiler::with_deadline_ns(SLOT_DURATION.0));

    let kill_at = Nanos::from_millis(500);
    d.kill_primary_at(kill_at);
    d.engine.run_until(Nanos::from_millis(1500));
    d.publish_metrics();

    // --- the failover, reconstructed purely from the trace ---
    let trace = d.engine.event_trace();
    let at_of = |kind: TraceEventKind| {
        trace
            .of_kind(kind)
            .next()
            .unwrap_or_else(|| panic!("missing {kind:?} in trace"))
            .at
    };
    let det = &detections(trace.iter())[0];
    let saturated = at_of(TraceEventKind::DetectorSaturated);
    let notify_sent = at_of(TraceEventKind::FailureNotifySent);
    let notify_rx = at_of(TraceEventKind::FailureNotifyReceived);
    let armed = at_of(TraceEventKind::MigrateArmed);
    let flip = at_of(TraceEventKind::MapFlip);
    assert!(
        det.last_heartbeat < saturated
            && saturated <= notify_sent
            && notify_sent <= notify_rx
            && notify_rx <= armed
            && armed <= flip,
        "lifecycle out of order"
    );
    assert!(det.latency() <= Nanos(450_000));

    let rel = |t: Nanos| (t.0 as i64 - kill_at.0 as i64) as f64 / 1e3;
    println!("failover timeline (µs relative to the kill at t=500 ms):");
    println!(
        "  {:>9.1}  last heartbeat from primary",
        rel(det.last_heartbeat)
    );
    println!(
        "  {:>9.1}  detector saturated (gap > 450 µs)",
        rel(saturated)
    );
    println!(
        "  {:>9.1}  failure notification sent (switch)",
        rel(notify_sent)
    );
    println!(
        "  {:>9.1}  failure notification received (orion-l2)",
        rel(notify_rx)
    );
    println!("  {:>9.1}  migrate_on_slot armed", rel(armed));
    println!("  {:>9.1}  RU→PHY map flipped", rel(flip));
    // Service-level view of the same trace. No horizon: the cell is
    // judged between its first and last delivery.
    let slo_cfg = SloConfig {
        initial_active: d.initial_active(),
        ..SloConfig::default()
    };
    let slo = slo::analyze(trace, &slo_cfg);
    println!(
        "  detection latency {:.1} µs, dropped TTIs {}",
        det.latency().0 as f64 / 1e3,
        slo.cells[0].dropped_ttis
    );

    // --- exports ---
    let names = d.engine.node_names().to_vec();
    let mut json = Vec::new();
    trace.write_chrome_trace(&mut json, &names).unwrap();
    std::fs::write("trace_failover.json", &json).unwrap();
    println!(
        "\nwrote trace_failover.json ({} events, {} bytes) — open in chrome://tracing or ui.perfetto.dev",
        trace.len(),
        json.len()
    );

    let mut summary = Vec::new();
    trace.write_summary(&mut summary, &names).unwrap();
    println!("\n{}", String::from_utf8(summary).unwrap());

    // --- the availability report, against the run's horizon ---
    let slo_cfg = SloConfig {
        horizon_slots: 3000, // 1500 ms at 500 µs per slot
        ..slo_cfg
    };
    println!("availability report:");
    println!("{}", slo::analyze(trace, &slo_cfg).to_text());

    // --- wall-clock slot profile (side channel; host-dependent) ---
    let profiler = d.engine.profiler();
    profiler.publish(d.engine.metrics_mut());
    if let Some(p) = profiler.report() {
        println!("{}", p.to_text());
    }
    let mut spans = Vec::new();
    profiler.write_chrome_trace(&mut spans).unwrap();
    std::fs::write("trace_failover_profile.json", &spans).unwrap();
    println!(
        "wrote trace_failover_profile.json ({} bytes) — wall-clock spans for the same run\n",
        spans.len()
    );

    println!("metrics snapshot:\n{}", d.engine.metrics().to_text());
}
