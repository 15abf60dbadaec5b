//! Lane-load diagnostic for the sharded fabric: builds a cells/4-leaf
//! deployment at Abstract fidelity, runs 40 simulated ms, and prints
//! where the events actually went — per-lane dispatch counts, per-lane
//! busy time, wall vs CPU time, and a trace-kind histogram. Use it to
//! answer "which lane is hot and why" when scale_bench flags a
//! configuration as unsustainable.
//!
//! Knobs: PROBE_CELLS=64 PROBE_UES=0|1 PROBE_FLOWS=0|1
//! PROBE_BPS=1000000 (per-UE uplink rate) PROBE_METRICS=1 (dump the
//! metrics registry to target/probe_metrics.txt).
use std::collections::BTreeMap;

use slingshot::{DeploymentBuilder, DeploymentConfig};
use slingshot_ran::{CellConfig, Fidelity, UeConfig};
use slingshot_sim::Nanos;
use slingshot_transport::{UdpCbrSource, UdpSink};

fn envn(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Process CPU time from the scheduler's own accounting, so a noisy
/// shared host doesn't masquerade as simulator load.
fn cpu_ns() -> u64 {
    let mut total = 0u64;
    if let Ok(rd) = std::fs::read_dir("/proc/self/task") {
        for t in rd.flatten() {
            if let Ok(txt) = std::fs::read_to_string(t.path().join("schedstat")) {
                if let Some(first) = txt.split_whitespace().next() {
                    total += first.parse::<u64>().unwrap_or(0);
                }
            }
        }
    }
    total
}

fn main() {
    let cfg = DeploymentConfig {
        cell: CellConfig {
            num_prbs: 51,
            fidelity: Fidelity::Abstract,
            ..CellConfig::default()
        },
        seed: 4242,
        ..DeploymentConfig::default()
    };
    let cells = envn("PROBE_CELLS", 64);
    let ues = envn("PROBE_UES", 1);
    let flows = envn("PROBE_FLOWS", 1);
    let mut b = DeploymentBuilder::new()
        .config(cfg)
        .cells(cells)
        .cell_groups(4)
        .shards(4)
        .workers(4);
    if ues > 0 {
        for c in 0..cells {
            b = b.ue(UeConfig::new(
                (100 + c) as u16,
                c as u8,
                &format!("ue{c}"),
                22.0,
            ));
        }
    }
    let mut d = b.build();
    if ues > 0 && flows > 0 {
        for i in 0..cells {
            d.add_flow(
                i,
                (100 + i) as u16,
                Box::new(UdpCbrSource::new(
                    envn("PROBE_BPS", 1_000_000) as u64,
                    600,
                    Nanos::ZERO,
                )),
                Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
            );
        }
    }
    let t = std::time::Instant::now();
    let c0 = cpu_ns();
    d.engine.run_until(Nanos::from_millis(40));
    let cpu_ms = (cpu_ns() - c0) as f64 / 1e6;
    eprintln!(
        "cells={cells} ues={ues} flows={flows} wall {:?} cpu {cpu_ms:.1}ms dispatched {}",
        t.elapsed(),
        d.engine.dispatched()
    );
    eprintln!("lane loads (events): {:?}", d.engine.lane_loads());
    eprintln!("lane busy (ns): {:?}", d.engine.lane_busy_ns());
    if std::env::var("PROBE_METRICS").is_ok() {
        d.publish_metrics();
        let txt = d.engine.metrics().to_text();
        std::fs::write("target/probe_metrics.txt", &txt).unwrap();
    }
    let mut hist: BTreeMap<String, usize> = BTreeMap::new();
    for ev in d.engine.event_trace().iter() {
        *hist.entry(format!("{:?}", ev.kind)).or_default() += 1;
    }
    eprintln!("trace kinds: {hist:?}");
}
