//! Slot-pipeline throughput harness: how many cell-slots per second of
//! wall clock the simulator sustains, swept over deployment size (1, 2,
//! 4, 8 cells) and DSP worker-pool size (1 vs N workers).
//!
//! Every run uses `Fidelity::Full` — real LDPC on every code block —
//! with one UL-heavy UE per cell, so the measurement is dominated by
//! the same baseband compute the worker pool parallelizes. For each
//! cell count the harness also proves the determinism contract: the
//! N-worker run's event trace must be byte-identical to the 1-worker
//! run's, or the binary exits non-zero.
//!
//! Knobs (env):
//!   SLOTS_CELLS=1,2,4,8    cell counts to sweep
//!   SLOTS_WORKERS=1,4      worker-pool sizes to sweep
//!   SLOTS_MS=200           simulated milliseconds per run
//!   SLOTS_PRBS=51          cell bandwidth in PRBs
//!   KERNEL_BACKEND=<b>     DSP kernel backend: scalar | avx2 | detect
//!                          (default: best available)
//!   SLOTS_PROFILE=1        attach the SpanProfiler and print the
//!                          per-stage slot-loop breakdown to stderr
//!   SLOTS_BASELINE=<path>  baseline file: `<key> <slots_per_sec>`
//!                          lines; fail the run if any measured config
//!                          drops below 80% of its baseline. A key may
//!                          carry a `@<backend>` suffix; suffixed
//!                          floors only apply when that backend runs
//!                          and take precedence over the bare key.
//!
//! JSON artifact: `slots_per_sec.json` in `$BENCH_JSON_DIR`, scalars
//! keyed `c{cells}_w{workers}` plus `speedup_c{cells}` ratios; the
//! `labels.backend` field records which kernel backend ran.

use std::time::Instant;

use slingshot::DeploymentBuilder;
use slingshot_bench::{banner, load_floors, BenchReport};
use slingshot_ran::{CellConfig, Fidelity, UeConfig};
use slingshot_sim::{KernelConfig, Nanos, SpanProfiler, SLOT_DURATION};
use slingshot_transport::{UdpCbrSource, UdpSink};

fn env_usize_list(name: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(name) {
        Ok(v) => v
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("bad {name}: {s:?}"))
            })
            .collect(),
        Err(_) => default.to_vec(),
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .map(|v| v.parse().unwrap_or_else(|_| panic!("bad {name}: {v:?}")))
        .unwrap_or(default)
}

struct RunOutcome {
    slots_per_sec: f64,
    trace_bytes: Vec<u8>,
}

/// One measured run: `cells` cells, one UL-heavy UE each, `workers`
/// DSP workers, `sim_ms` of simulated time.
fn run_one(cells: usize, workers: usize, sim_ms: u64, prbs: u16) -> RunOutcome {
    let ues: Vec<UeConfig> = (0..cells)
        .map(|c| UeConfig::new(100 + c as u16, c as u8, &format!("ue-c{c}"), 22.0))
        .collect();
    let mut d = DeploymentBuilder::new()
        .seed(4242)
        .cell(CellConfig {
            num_prbs: prbs,
            fidelity: Fidelity::Full,
            ..CellConfig::default()
        })
        .cells(cells)
        .workers(workers)
        .ues(ues)
        .build();
    for i in 0..cells {
        d.add_flow(
            i,
            100 + i as u16,
            Box::new(UdpCbrSource::new(12_000_000, 1200, Nanos::ZERO)),
            Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
        );
    }
    if std::env::var("SLOTS_PROFILE").is_ok_and(|v| v == "1") {
        d.engine.set_profiler(SpanProfiler::enabled());
    }
    let horizon = Nanos::from_millis(sim_ms);
    let started = Instant::now();
    d.engine.run_until(horizon);
    if let Some(rep) = d.engine.profiler().report() {
        eprintln!("# profile c{cells}_w{workers}\n{}", rep.to_text());
    }
    let wall = started.elapsed().as_secs_f64();
    let cell_slots = cells as u64 * (horizon.0 / SLOT_DURATION.0);
    RunOutcome {
        slots_per_sec: cell_slots as f64 / wall,
        trace_bytes: d.engine.event_trace().to_bytes(),
    }
}

fn main() {
    let cells_sweep = env_usize_list("SLOTS_CELLS", &[1, 2, 4, 8]);
    let workers_sweep = env_usize_list("SLOTS_WORKERS", &[1, 4]);
    let sim_ms = env_u64("SLOTS_MS", 200);
    let prbs = env_u64("SLOTS_PRBS", 51) as u16;

    // The engine picks this up from KERNEL_BACKEND / auto-detection;
    // resolve it here too so the report can label the run.
    let backend = KernelConfig::from_env().backend.name();

    banner(
        "slot-pipeline throughput: cell-slots/sec over cells × workers",
        "deterministic parallel slot pipeline (DESIGN.md §5d, §5h)",
    );
    println!(
        "# Fidelity::Full, {prbs} PRBs, {sim_ms} ms simulated, one 12 Mbps UL UE per cell, \
         kernel backend {backend}\n"
    );

    let mut report = BenchReport::new(
        "slots_per_sec",
        "Slot-pipeline throughput (cell-slots per wall-clock second)",
        "DESIGN.md §5d, §5h",
    );
    report.label("backend", backend);
    let mut measured: Vec<(String, f64)> = Vec::new();
    let mut determinism_ok = true;

    println!(
        "{:>6} {:>8} {:>14} {:>10}",
        "cells", "workers", "slots/sec", "speedup"
    );
    for &cells in &cells_sweep {
        let mut serial_rate = None;
        let mut serial_trace: Option<Vec<u8>> = None;
        for &workers in &workers_sweep {
            let out = run_one(cells, workers, sim_ms, prbs);
            let speedup = serial_rate
                .map(|s: f64| out.slots_per_sec / s)
                .unwrap_or(1.0);
            if workers == 1 {
                serial_rate = Some(out.slots_per_sec);
                serial_trace = Some(out.trace_bytes);
            } else if let Some(base) = &serial_trace {
                // The determinism contract: the pool must be invisible
                // to the event trace.
                if *base != out.trace_bytes {
                    eprintln!(
                        "DETERMINISM VIOLATION: cells={cells} workers={workers} trace \
                         differs from the single-worker run"
                    );
                    determinism_ok = false;
                }
            }
            let key = format!("c{cells}_w{workers}");
            println!(
                "{:>6} {:>8} {:>14.1} {:>9.2}x",
                cells, workers, out.slots_per_sec, speedup
            );
            report.scalar(&key, out.slots_per_sec);
            if workers != 1 && serial_rate.is_some() {
                report.scalar(&format!("speedup_c{cells}_w{workers}"), speedup);
            }
            measured.push((key, out.slots_per_sec));
        }
    }

    report.write();

    if !determinism_ok {
        std::process::exit(1);
    }

    if let Ok(path) = std::env::var("SLOTS_BASELINE") {
        let baseline = load_floors(&path);
        let mut regressed = false;
        for (raw_key, base) in &baseline {
            // `<key>@<backend>` floors apply only when that backend is
            // running; a bare key covers every backend unless a
            // backend-specific floor shadows it.
            let (key, floor_backend) = match raw_key.split_once('@') {
                Some((k, b)) => (k, Some(b)),
                None => (raw_key.as_str(), None),
            };
            match floor_backend {
                Some(b) if b != backend => {
                    println!("# baseline {raw_key}: backend {b} not running, skipped");
                    continue;
                }
                None if baseline
                    .iter()
                    .any(|(other, _)| *other == format!("{key}@{backend}")) =>
                {
                    println!("# baseline {raw_key}: shadowed by {key}@{backend}");
                    continue;
                }
                _ => {}
            }
            match measured.iter().find(|(k, _)| k == key) {
                Some((_, got)) if *got < 0.8 * base => {
                    eprintln!(
                        "REGRESSION: {key}@{backend} = {got:.1} slots/sec, below 80% of \
                         baseline {base:.1}"
                    );
                    regressed = true;
                }
                Some((_, got)) => {
                    println!("# baseline {raw_key}: {got:.1} vs {base:.1} ok");
                }
                None => println!("# baseline {raw_key}: not measured in this sweep, skipped"),
            }
        }
        if regressed {
            std::process::exit(1);
        }
    }
}
