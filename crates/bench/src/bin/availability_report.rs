//! Long-horizon availability report: a seeded crash process over
//! hundreds of thousands of Abstract-fidelity slots, swept across
//! cells x spare-pool-size, with every run distilled into service-level
//! numbers (nines, MTBF/MTTR, TTR and dropped-TTI distributions) by the
//! `sim::slo` analyzer.
//!
//! Two kinds of configuration run:
//!
//! - `c4_s2` — the canonical 4-cell / 2-spare triple-crash schedule
//!   (the same fault train as chaos_soak's `pool-3crash`) stretched to
//!   a long horizon, so the reported nines reflect steady-state service
//!   around a bounded, fully-understood disruption. This is the number
//!   the baseline floor gates.
//! - `proc_cN_sM` — a renewal crash process: `PhyCrash` faults aimed at
//!   a uniformly random cell's *current* active PHY, with inter-arrival
//!   gaps drawn by the same spacing rule `ChaosDistribution::sample`
//!   uses (`min_gap + U[0, min_gap)` slots), repeated until the horizon
//!   is exhausted. Over a long horizon this demands dozens-to-hundreds
//!   of grant -> scrub -> return pool cycles per run.
//!
//! Knobs (env):
//!   AVAIL_QUICK=1            short horizons + the two headline configs
//!                            (the CI smoke); full mode sweeps
//!                            cells {2,4} x spares {1,2}
//!   AVAIL_BASELINE=<path>    baseline file: `<key> <min_nines>` lines;
//!                            fail the run if a measured config's nines
//!                            drop below its floor (absolute, not 80%:
//!                            nines are already log-scaled)
//!
//! JSON artifacts in `$BENCH_JSON_DIR`: `availability_report.json`
//! (scalar summary per config) plus one full `SloReport` JSON per
//! configuration (`availability_<config>.json`). A truncated trace ring
//! (events evicted mid-run) is a hard failure: availability numbers
//! derived from a wrapped ring undercount outages.

use slingshot::{ChaosRunner, Deployment, DeploymentBuilder, DeploymentConfig};
use slingshot_bench::{artifact_path, banner, load_floors, BenchReport};
use slingshot_ran::{CellConfig, Fidelity, UeConfig};
use slingshot_sim::chaos::{ChaosDistribution, FaultKind, FaultTarget, Scenario};
use slingshot_sim::slo::{self, SloConfig};
use slingshot_sim::trace::TraceEventKind;
use slingshot_sim::{Nanos, SimRng};
use slingshot_transport::{UdpCbrSource, UdpSink};

/// A pooled multi-cell deployment at Abstract fidelity: the failover
/// machinery (heartbeats, detector, orchestrator) is identical to the
/// Sampled chaos testbed, but slots are cheap enough to run hundreds of
/// thousands of them per configuration.
fn pool_deployment(seed: u64, cells: usize, spares: usize) -> Deployment {
    let cfg = DeploymentConfig {
        cell: CellConfig {
            num_prbs: 51,
            fidelity: Fidelity::Abstract,
            rlc_ordered: false,
            ..CellConfig::default()
        },
        seed,
        ..DeploymentConfig::default()
    };
    let mut b = DeploymentBuilder::new()
        .config(cfg)
        .cells(cells)
        .spare_pool(spares);
    for i in 0..cells {
        b = b.ue(UeConfig::new(
            100 + i as u16,
            i as u8,
            &format!("ue{i}"),
            22.0,
        ));
    }
    let mut d = b.build();
    for i in 0..cells {
        d.add_flow(
            i,
            100 + i as u16,
            Box::new(UdpCbrSource::new(4_000_000, 1000, Nanos::ZERO)),
            Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
        );
    }
    d
}

/// A renewal crash process: faults at gaps of `min_gap + U[0, min_gap)`
/// slots (the `ChaosDistribution::sample` spacing rule), each aimed at
/// a random cell's active PHY, until `cooldown_slots` before the
/// horizon. The same seed always yields the same schedule.
fn crash_process(
    name: &str,
    dist: &ChaosDistribution,
    seed: u64,
    cells: usize,
    horizon: u64,
) -> Scenario {
    let mut rng = SimRng::new(seed ^ 0x00ca_5cad_e500_5107);
    let mut s = Scenario::new(name, horizon);
    let mut slot = dist.first_fault_slot + rng.below(dist.min_gap_slots);
    while slot + dist.cooldown_slots < horizon {
        let victim = rng.below(cells as u64) as u8;
        s = s.fault(slot, FaultTarget::ActivePhyOf(victim), FaultKind::PhyCrash);
        slot += dist.min_gap_slots + rng.below(dist.min_gap_slots);
    }
    s
}

/// The chaos suite's `pool-3crash` fault train on a long horizon.
fn triple_crash(horizon: u64) -> Scenario {
    Scenario::new("triple-crash", horizon)
        .fault(700, FaultTarget::ActivePhyOf(0), FaultKind::PhyCrash)
        .fault(760, FaultTarget::ActivePhyOf(1), FaultKind::PhyCrash)
        .fault(820, FaultTarget::ActivePhyOf(2), FaultKind::PhyCrash)
}

struct ConfigResult {
    key: String,
    nines: f64,
    report_json: String,
    truncated: bool,
}

/// Run one configuration end to end and reduce its trace to SLOs.
fn run_config(
    key: &str,
    seed: u64,
    cells: usize,
    spares: usize,
    scenario: &Scenario,
) -> ConfigResult {
    let mut d = pool_deployment(seed, cells, spares);
    // Keep only what the SLO analyzer consumes — per-slot chatter
    // (heartbeats, FAPI forwarding) would need a multi-hundred-MB ring
    // at this horizon — and size the ring for one UlSlotProcessed per
    // delivered UL TTI plus lifecycle noise around each crash.
    let trace = d.engine.event_trace_mut();
    trace.set_kind_filter(&[
        TraceEventKind::MapFlip,
        TraceEventKind::UlSlotProcessed,
        TraceEventKind::DetectorSaturated,
        TraceEventKind::SpareRequested,
        TraceEventKind::SpareGranted,
        TraceEventKind::SpareReturned,
        TraceEventKind::StandbyRepaired,
    ]);
    let ul_ttis = scenario.horizon_slots / 5 * cells as u64;
    trace.set_capacity((ul_ttis + 65_536) as usize);

    let mut runner = ChaosRunner::new(scenario);
    runner.run(&mut d, scenario.horizon_slots);

    let slo_cfg = SloConfig {
        horizon_slots: scenario.horizon_slots,
        initial_active: d.initial_active(),
        ..SloConfig::default()
    };
    let report = slo::analyze(d.engine.event_trace(), &slo_cfg);

    println!(
        "--- {key}: {} cells, {} spares, {} crashes, {} slots ---",
        cells,
        spares,
        scenario.faults.len(),
        scenario.horizon_slots
    );
    println!("{}", report.to_text());

    ConfigResult {
        key: key.to_string(),
        nines: report.fleet.nines,
        report_json: report.to_json(),
        truncated: report.truncated,
    }
}

fn write_slo_json(key: &str, json: &str) {
    let Some(path) = artifact_path(&format!("availability_{key}.json")) else {
        return;
    };
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn main() {
    let quick = std::env::var("AVAIL_QUICK").is_ok_and(|v| v != "0")
        || std::env::args().any(|a| a == "--quick");
    // Full mode: ~100 s of simulated air time per configuration. Quick
    // mode keeps the same structure at an eighth of the horizon so the
    // CI gate finishes in seconds.
    let horizon: u64 = if quick { 24_000 } else { 200_000 };
    banner(
        &format!(
            "Availability report: {horizon}-slot horizon, crash process over cells x spares{}",
            if quick { " (quick)" } else { "" }
        ),
        "sections 6.1 (dropped TTIs), 4.4 (spare provisioning); long-horizon SLO view",
    );

    // Inter-arrival spacing for the renewal process: minutes-scale MTBF
    // would make crashes vanishingly rare at this horizon, so gaps are
    // seconds-scale — every run exercises many full pool cycles while
    // staying clear of the ~40-slot scrub turnaround.
    let dist = ChaosDistribution {
        first_fault_slot: 1_000,
        last_fault_slot: horizon,
        min_gap_slots: 4_000,
        cooldown_slots: 1_000,
        ..ChaosDistribution::default()
    };

    let sweep: &[(usize, usize)] = if quick {
        &[(4, 2)]
    } else {
        &[(2, 1), (2, 2), (4, 1), (4, 2)]
    };

    let mut results: Vec<ConfigResult> = Vec::new();

    // The gated headline config: pool-3crash on 4 cells / 2 spares.
    results.push(run_config("c4_s2", 42, 4, 2, &triple_crash(horizon)));

    for &(cells, spares) in sweep {
        let key = format!("proc_c{cells}_s{spares}");
        let scenario = crash_process(&key, &dist, 7, cells, horizon);
        results.push(run_config(&key, 42, cells, spares, &scenario));
    }

    let mut report = BenchReport::new(
        "availability_report",
        "Long-horizon availability / SLO sweep",
        "sections 6.1, 4.4",
    );
    report.scalar("horizon_slots", horizon as f64);
    let mut truncated_any = false;
    for r in &results {
        report.scalar(&format!("{}_nines", r.key), r.nines);
        write_slo_json(&r.key, &r.report_json);
        truncated_any |= r.truncated;
    }
    report.write();

    let mut failed = truncated_any;
    if truncated_any {
        eprintln!("FAIL: trace ring wrapped mid-run; availability numbers are untrustworthy");
    }
    if let Ok(path) = std::env::var("AVAIL_BASELINE") {
        for (key, floor) in load_floors(&path) {
            match results.iter().find(|r| format!("{}_nines", r.key) == key) {
                Some(r) if r.nines < floor => {
                    eprintln!(
                        "REGRESSION: {key} = {:.2} nines, below floor {floor:.2}",
                        r.nines
                    );
                    failed = true;
                }
                Some(r) => println!("# baseline {key}: {:.2} vs floor {floor:.2} ok", r.nines),
                None => println!("# baseline {key}: not measured, skipped"),
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
