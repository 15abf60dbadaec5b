//! City-scale capacity harness for the sharded leaf/spine engine: how
//! many cells the fabric sustains, swept over cells × UEs-per-cell ×
//! exec-shards × workers at Abstract fidelity.
//!
//! **Sustainability** is judged per shard, the quantity that matters on
//! scale-out hardware: a deployment is sustainable when every lane
//! (the spine domain and each leaf cell-group) executes one slot's
//! worth of its own events within the 500 µs slot duration, with 10%
//! headroom reserved for the barrier. Per-lane busy time is measured
//! directly by the engine (`lane_busy_ns`), so the verdict reflects
//! "each shard pinned to a dedicated core" regardless of how many
//! cores the benchmark host happens to have. The aggregate wall-clock
//! cell-slots/s is reported alongside for single-host throughput
//! tracking.
//!
//! The harness also enforces the sharding contract: for a fixed
//! topology, every (shards, workers) combination must produce a
//! byte-identical event trace, or the binary exits non-zero.
//!
//! Knobs (env):
//!   SCALE_CELLS=16,32,64,128  cell counts to sweep
//!   SCALE_UES=1               UEs per cell to sweep
//!   SCALE_SHARDS=1,4          exec-shard counts to sweep
//!   SCALE_WORKERS=1           worker-pool sizes to sweep
//!   SCALE_GROUPS=4            leaf groups (topology; fixed per run)
//!   SCALE_MS=40               simulated milliseconds per run
//!   SCALE_REPS=2              repetitions per config (best kept)
//!   SCALE_FIDELITY=abstract   abstract | sampled
//!   SCALE_QUICK=1             small sweep for CI (overridden by the
//!                             explicit knobs above)
//!   SCALE_BASELINE=<path>     baseline file: `<key> <value>` lines;
//!                             throughput keys fail below 80% of
//!                             baseline, `max_sustainable_cells` is an
//!                             absolute floor
//!
//! JSON artifact: `scale_bench.json` in `$BENCH_JSON_DIR`, scalars
//! keyed `c{cells}_u{ues}_s{shards}_w{workers}` (cell-slots/s) plus
//! `lane_slot_us_c{cells}_u{ues}` (worst lane's per-slot busy µs),
//! `bytes_per_cell_c{cells}_u{ues}`, and `max_sustainable_cells`.

use std::time::Instant;

use slingshot::{DeploymentBuilder, DeploymentConfig};
use slingshot_bench::{banner, load_floors, BenchReport};
use slingshot_ran::{CellConfig, Fidelity, UeConfig};
use slingshot_sim::{Nanos, SLOT_DURATION};
use slingshot_transport::{UdpCbrSource, UdpSink};

/// Per-shard real-time budget: one slot of lane work must fit in the
/// slot duration minus 10% barrier headroom.
const LANE_SLOT_BUDGET_NS: u64 = SLOT_DURATION.0 * 9 / 10;

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
    bytes_per_cell: f64,
    /// Worst lane's busy nanoseconds per simulated slot.
    max_lane_slot_ns: u64,
    trace_bytes: Vec<u8>,
}

fn run_one(
    cells: usize,
    ues_per_cell: usize,
    groups: usize,
    shards: usize,
    workers: usize,
    sim_ms: u64,
    fidelity: Fidelity,
) -> RunOutcome {
    let cfg = DeploymentConfig {
        cell: CellConfig {
            num_prbs: 51,
            fidelity,
            ..CellConfig::default()
        },
        seed: 4242,
        ..DeploymentConfig::default()
    };
    let mut b = DeploymentBuilder::new()
        .config(cfg)
        .cells(cells)
        .cell_groups(groups.min(cells))
        .shards(shards)
        .workers(workers);
    for c in 0..cells {
        for u in 0..ues_per_cell {
            b = b.ue(UeConfig::new(
                (100 + c * ues_per_cell + u) as u16,
                c as u8,
                &format!("ue-c{c}-{u}"),
                22.0,
            ));
        }
    }
    let mut d = b.build();
    for i in 0..cells * ues_per_cell {
        d.add_flow(
            i,
            (100 + i) as u16,
            Box::new(UdpCbrSource::new(1_000_000, 600, Nanos::ZERO)),
            Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
        );
    }
    let horizon = Nanos::from_millis(sim_ms);
    let n_slots = horizon.0 / SLOT_DURATION.0;
    let started = Instant::now();
    d.engine.run_until(horizon);
    let wall = started.elapsed().as_secs_f64();
    let cell_slots = cells as u64 * n_slots;
    let link_bytes = d.engine.total_link_stats().bytes;
    let max_lane_slot_ns = d.engine.lane_busy_ns().into_iter().max().unwrap_or(0) / n_slots.max(1);
    RunOutcome {
        slots_per_sec: cell_slots as f64 / wall,
        bytes_per_cell: link_bytes as f64 / cells as f64,
        max_lane_slot_ns,
        trace_bytes: d.engine.event_trace().to_bytes(),
    }
}

fn main() {
    let quick = env_u64("SCALE_QUICK", 0) != 0;
    let cells_sweep = env_usize_list(
        "SCALE_CELLS",
        if quick { &[16, 64] } else { &[16, 32, 64, 128] },
    );
    let ues_sweep = env_usize_list("SCALE_UES", &[1]);
    let shards_sweep = env_usize_list("SCALE_SHARDS", &[1, 4]);
    let workers_sweep = env_usize_list("SCALE_WORKERS", &[1]);
    let groups = env_u64("SCALE_GROUPS", 4) as usize;
    let sim_ms = env_u64("SCALE_MS", 40);
    let reps = env_u64("SCALE_REPS", 2).max(1);
    let fidelity = match std::env::var("SCALE_FIDELITY").as_deref() {
        Ok("sampled") => Fidelity::Sampled,
        Ok("abstract") | Err(_) => Fidelity::Abstract,
        Ok(other) => panic!("bad SCALE_FIDELITY: {other:?} (abstract|sampled)"),
    };

    banner(
        "city-scale capacity: per-shard slot budget over cells × UEs × shards × workers",
        "sharded leaf/spine engine (DESIGN.md §5g)",
    );
    println!(
        "# {fidelity:?} fidelity, {groups} leaf groups, {sim_ms} ms simulated, {reps} rep(s), \
         1 Mbps UL per UE"
    );
    println!(
        "# sustainable = worst lane's per-slot busy time <= {} us \
         (slot {} us minus barrier headroom)\n",
        LANE_SLOT_BUDGET_NS / 1_000,
        SLOT_DURATION.0 / 1_000
    );

    let mut report = BenchReport::new(
        "scale_bench",
        "City-scale capacity: per-shard slot budget and aggregate cell-slots/s on the sharded fabric",
        "DESIGN.md §5g",
    );
    let mut measured: Vec<(String, f64)> = Vec::new();
    let mut determinism_ok = true;
    let mut max_sustainable = 0usize;

    println!(
        "{:>6} {:>4} {:>7} {:>8} {:>14} {:>14} {:>13} {:>12}",
        "cells",
        "ues",
        "shards",
        "workers",
        "slots/sec",
        "bytes/cell",
        "lane us/slot",
        "sustainable"
    );
    for &cells in &cells_sweep {
        for &ues in &ues_sweep {
            let mut reference: Option<Vec<u8>> = None;
            let mut best_lane_slot_ns = u64::MAX;
            let mut bytes_per_cell = 0.0;
            for &shards in &shards_sweep {
                for &workers in &workers_sweep {
                    // Best-of-reps, per metric: wall-clock throughput and
                    // lane budget are both noise-prone on shared hosts,
                    // and their best reps need not coincide.
                    let mut best_rate = 0.0f64;
                    let mut best_lane = u64::MAX;
                    for _ in 0..reps {
                        let out = run_one(cells, ues, groups, shards, workers, sim_ms, fidelity);
                        match &reference {
                            None => reference = Some(out.trace_bytes.clone()),
                            Some(base) if *base != out.trace_bytes => {
                                eprintln!(
                                    "DETERMINISM VIOLATION: cells={cells} ues={ues} \
                                     shards={shards} workers={workers} trace differs from \
                                     the first configuration"
                                );
                                determinism_ok = false;
                            }
                            Some(_) => {}
                        }
                        best_rate = best_rate.max(out.slots_per_sec);
                        best_lane = best_lane.min(out.max_lane_slot_ns);
                        bytes_per_cell = out.bytes_per_cell;
                    }
                    best_lane_slot_ns = best_lane_slot_ns.min(best_lane);
                    let sustainable = best_lane <= LANE_SLOT_BUDGET_NS;
                    println!(
                        "{:>6} {:>4} {:>7} {:>8} {:>14.1} {:>14.1} {:>13.1} {:>12}",
                        cells,
                        ues,
                        shards,
                        workers,
                        best_rate,
                        bytes_per_cell,
                        best_lane as f64 / 1_000.0,
                        if sustainable { "yes" } else { "NO" }
                    );
                    let key = format!("c{cells}_u{ues}_s{shards}_w{workers}");
                    report.scalar(&key, best_rate);
                    measured.push((key, best_rate));
                }
            }
            report.scalar(&format!("bytes_per_cell_c{cells}_u{ues}"), bytes_per_cell);
            report.scalar(
                &format!("lane_slot_us_c{cells}_u{ues}"),
                best_lane_slot_ns as f64 / 1_000.0,
            );
            // The headline number is judged on the default UE load (the
            // first entry of the sweep) so extra UE dimensions don't
            // move it.
            if ues == ues_sweep[0] && best_lane_slot_ns <= LANE_SLOT_BUDGET_NS {
                max_sustainable = max_sustainable.max(cells);
            }
        }
    }

    println!("\n# max sustainable cells (every shard within slot budget): {max_sustainable}");
    report.scalar("max_sustainable_cells", max_sustainable as f64);
    measured.push(("max_sustainable_cells".to_string(), max_sustainable as f64));
    report.write();

    if !determinism_ok {
        std::process::exit(1);
    }

    if let Ok(path) = std::env::var("SCALE_BASELINE") {
        let mut regressed = false;
        for (key, base) in load_floors(&path) {
            let floor = if key == "max_sustainable_cells" {
                base // capacity floor is absolute, not 80%-slacked
            } else {
                0.8 * base
            };
            match measured.iter().find(|(k, _)| *k == key) {
                Some((_, got)) if *got < floor => {
                    eprintln!(
                        "REGRESSION: {key} = {got:.1}, below floor {floor:.1} (baseline {base:.1})"
                    );
                    regressed = true;
                }
                Some((_, got)) => {
                    println!("# baseline {key}: {got:.1} vs {base:.1} ok");
                }
                None => println!("# baseline {key}: not measured in this sweep, skipped"),
            }
        }
        if regressed {
            std::process::exit(1);
        }
    }
}
