//! Chaos soak harness: N seeds x M scenarios through the deterministic
//! chaos engine, every run judged by the trace oracle (its invariants
//! are the table in DESIGN.md §5c).
//!
//! Each seed runs the fixed scenario suite (one per major fault class)
//! plus one scenario sampled from the randomized chaos distribution.
//! Any oracle violation prints the seed, the full fault schedule and
//! each violation as `[name] (section) detail` — re-running with the
//! same seed reproduces the failing run byte-for-byte — and dumps the
//! offending run's Chrome trace next to the JSON report for post-mortem
//! in Perfetto.
//!
//! Knobs (a value outside what is listed, or any command-line
//! argument, is exit 2 and not a fallback: a typo must not soak a
//! different suite than the one asked for):
//! - `CHAOS_SEEDS=<n>`: number of seeds, a positive integer (default
//!   16). The CI smoke uses 4; the nightly soak uses 64.
//! - `CHAOS_SUITE=all|handover`: `handover` restricts each seed to the
//!   two handover-chaos scenarios on the mobility deployment (the quick
//!   CI smoke); `all` (default) runs everything.
//! - `BENCH_JSON_DIR`: where the JSON report and failure traces go
//!   (unset: neither is written).
//!
//! Exit status is non-zero iff any invariant was violated or a replay
//! diverged.

use slingshot::chaos::{
    chaos_deployment, chaos_handover_deployment, chaos_pool_deployment, expectations_for,
    ChaosRunner,
};
use slingshot_bench::{artifact_path, banner, BenchReport};
use slingshot_sim::chaos::{oracle, ChaosDistribution, FaultKind, FaultTarget, Scenario};
use slingshot_sim::slo::{self, SloConfig};

/// One scenario per major fault class, exercised under every seed's
/// deployment (traffic timing, channel noise and link jitter all vary
/// with the seed).
fn fixed_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new("crash", 2400).fault(1000, FaultTarget::ActivePhy, FaultKind::PhyCrash),
        Scenario::new("hang", 2600).fault(
            1000,
            FaultTarget::ActivePhy,
            FaultKind::PhyHang { slots: 40 },
        ),
        Scenario::new("planned", 2400).fault(
            1000,
            FaultTarget::OrionL2,
            FaultKind::PlannedMigration,
        ),
        Scenario::new("fh-burst", 2400).fault(
            1000,
            FaultTarget::Fronthaul,
            FaultKind::BurstLoss { p: 0.2, slots: 60 },
        ),
    ]
}

/// Sequential multi-cell crash scenarios against the 4-cell / 2-spare
/// pool deployment. Three (and then four) back-to-back crashes in
/// distinct cells outnumber the pool, so these runs only pass if the
/// orchestrator scrubs and recycles dead ex-primaries between failures;
/// the oracle holds every crash to the single-failure bounds and audits
/// the pool ledger. `pool-planned` keeps the multi-cell planned path
/// judged: cell 0 migrates (its old primary drains the last
/// pre-boundary slot) while a neighbour crashes.
fn pool_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new("pool-3crash", 1700)
            .fault(700, FaultTarget::ActivePhyOf(0), FaultKind::PhyCrash)
            .fault(760, FaultTarget::ActivePhyOf(1), FaultKind::PhyCrash)
            .fault(820, FaultTarget::ActivePhyOf(2), FaultKind::PhyCrash),
        Scenario::new("pool-4crash", 1900)
            .fault(700, FaultTarget::ActivePhyOf(0), FaultKind::PhyCrash)
            .fault(760, FaultTarget::ActivePhyOf(1), FaultKind::PhyCrash)
            .fault(820, FaultTarget::ActivePhyOf(2), FaultKind::PhyCrash)
            .fault(880, FaultTarget::ActivePhyOf(3), FaultKind::PhyCrash),
        Scenario::new("pool-planned", 1700)
            .fault(700, FaultTarget::OrionL2, FaultKind::PlannedMigration)
            .fault(760, FaultTarget::ActivePhyOf(2), FaultKind::PhyCrash),
    ]
}

/// Chaos crossed with mobility: faults landing while the corridor UE's
/// network-initiated handover is mid-choreography (the A3 report fires
/// near slot 615 and the directory flips at ~635 on every seed — the
/// corridor model is RNG-free). One active-PHY crash in the handover
/// target cell, and one handover storm against a deployment whose only
/// spare was already consumed.
fn handover_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new("ho-crash", 2000).fault(
            628,
            FaultTarget::ActivePhyOf(1),
            FaultKind::PhyCrash,
        ),
        Scenario::new("ho-storm", 2800)
            .fault(400, FaultTarget::ActivePhyOf(0), FaultKind::PhyCrash)
            .fault(
                1000,
                FaultTarget::HandoverController,
                FaultKind::HandoverStorm { requests: 8 },
            ),
    ]
}

struct RunResult {
    ok: bool,
    dropped_ttis: u64,
    max_detection_us: f64,
    /// Fleet nines from the SLO analyzer over this run's trace.
    nines: f64,
    /// Worst per-cell dropped-TTI p99 (0 when nothing was dropped).
    worst_cell_dropped_tti_p99: u64,
    /// Fleet MTTR in ms (0.0 when the run had no outage).
    mttr_ms: f64,
}

/// Run one (deployment seed, scenario) pair and report violations.
fn run_one(deploy_seed: u64, scenario: &Scenario, chaos_seed: u64) -> RunResult {
    run_with_deployment(chaos_deployment(deploy_seed), scenario, chaos_seed, None)
}

/// Like [`run_one`] but on the shared-pool deployment, holding every
/// crash to the per-cell single-failure TTI budget.
fn run_one_pool(deploy_seed: u64, scenario: &Scenario, chaos_seed: u64) -> RunResult {
    run_with_deployment(
        chaos_pool_deployment(deploy_seed),
        scenario,
        chaos_seed,
        Some(3),
    )
}

/// Like [`run_one`] but on the two-cell mobility deployment with the
/// handover controller and per-slice oracle armed.
fn run_one_handover(deploy_seed: u64, scenario: &Scenario, chaos_seed: u64) -> RunResult {
    run_with_deployment(
        chaos_handover_deployment(deploy_seed),
        scenario,
        chaos_seed,
        None,
    )
}

fn run_with_deployment(
    mut d: slingshot::Deployment,
    scenario: &Scenario,
    chaos_seed: u64,
    tti_budget: Option<u64>,
) -> RunResult {
    let mut exp = expectations_for(&d, scenario);
    if let Some(budget) = tti_budget {
        exp.max_dropped_ttis = budget;
    }
    let mut runner = ChaosRunner::new(scenario);
    runner.run(&mut d, scenario.horizon_slots);
    let report = oracle::check(d.engine.event_trace(), &exp);

    // Same trace, service-level view: nines / MTTR / dropped-TTI tails
    // for the per-seed availability summary in the JSON report.
    let slo_cfg = SloConfig {
        horizon_slots: scenario.horizon_slots,
        initial_active: d.initial_active(),
    };
    let slo = slo::analyze(d.engine.event_trace(), &slo_cfg);

    let status = if report.ok() { "ok" } else { "VIOLATED" };
    let judged = &report.slo.fleet;
    let max_detection_us = judged.detection_max.map_or(0.0, |n| n.0 as f64 / 1e3);
    println!(
        "seed={chaos_seed} scenario={:<10} {status}  dropped_ttis={} detections={} max_det={:.1}us nines={:.2}",
        scenario.name, judged.dropped_ttis, judged.detections, max_detection_us, slo.fleet.nines,
    );
    // Handover deployments also get the per-slice service view.
    if d.handover.is_some() {
        let deadlines: Vec<(u64, u64)> = exp
            .urllc_deadline_slots
            .map(|dl| vec![(slingshot_ran::SliceKind::Urllc as u64, dl)])
            .unwrap_or_default();
        let slices = slo::analyze_slices(d.engine.event_trace(), &deadlines);
        for s in &slices.slices {
            println!(
                "    slice={} ues={} max_gap={} deadline_misses={} handovers={}",
                s.slice, s.ues, s.max_gap_slots, s.deadline_misses, s.handovers
            );
        }
    }
    if !report.ok() {
        eprintln!(
            "FAILING SEED: {chaos_seed} (deployment seed {})",
            d.cfg.seed
        );
        eprintln!("  reproduce: CHAOS_SEEDS is irrelevant; this pair is fully determined");
        eprintln!("  schedule: {}", scenario.describe());
        for v in &report.violations {
            let (name, section) = (v.invariant.name(), v.invariant.section());
            eprintln!("  [{name}] ({section}) {}", v.detail);
        }
        for (at, what) in &runner.log {
            eprintln!("  applied @{:.3}ms: {what}", at.0 as f64 / 1e6);
        }
        dump_failure_trace(&d, scenario, chaos_seed);
    }
    RunResult {
        ok: report.ok(),
        dropped_ttis: judged.dropped_ttis,
        max_detection_us,
        nines: slo.fleet.nines,
        worst_cell_dropped_tti_p99: slo.fleet.worst_cell_dropped_tti_p99,
        mttr_ms: slo.fleet.mttr.map_or(0.0, |m| m.0 as f64 / 1e6),
    }
}

/// Write the failing run's Chrome trace into `$BENCH_JSON_DIR`.
fn dump_failure_trace(d: &slingshot::Deployment, scenario: &Scenario, seed: u64) {
    let file = format!("chaos_fail_{}_{seed}.trace.json", scenario.name);
    let Some(path) = artifact_path(&file) else {
        return;
    };
    let names: Vec<String> = d.engine.node_names().to_vec();
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            if let Err(e) = d.engine.event_trace().write_chrome_trace(&mut f, &names) {
                eprintln!("  could not write {}: {e}", path.display());
            } else {
                eprintln!("  trace dumped: {}", path.display());
            }
        }
        Err(e) => eprintln!("  could not create {}: {e}", path.display()),
    }
}

/// Replay a seed's randomized run and require a byte-identical trace.
fn replay_is_identical(seed: u64, scenario: &Scenario) -> bool {
    let run = || {
        let mut d = chaos_deployment(seed);
        let mut runner = ChaosRunner::new(scenario);
        runner.run(&mut d, scenario.horizon_slots);
        d.engine.event_trace().to_bytes()
    };
    let first = run();
    let second = run();
    first == second
}

/// `CHAOS_SEEDS` and whether `CHAOS_SUITE` is `handover`, or what is
/// wrong with them — or with `arg`, since there are no arguments.
fn knobs(
    arg: Option<&str>,
    seeds: Option<&str>,
    suite: Option<&str>,
) -> Result<(u64, bool), String> {
    if let Some(arg) = arg {
        return Err(format!(
            "no arguments (got {arg}); set CHAOS_SEEDS / CHAOS_SUITE"
        ));
    }
    let seeds = match seeds.map(str::parse::<u64>) {
        None => 16,
        Some(Ok(n)) if n >= 1 => n,
        Some(_) => return Err("CHAOS_SEEDS must be a positive integer".into()),
    };
    match suite {
        None | Some("all") => Ok((seeds, false)),
        Some("handover") => Ok((seeds, true)),
        Some(other) => Err(format!("CHAOS_SUITE={other}: must be all or handover")),
    }
}

fn main() {
    let arg = std::env::args().nth(1);
    let seeds = std::env::var("CHAOS_SEEDS").ok();
    let suite = std::env::var("CHAOS_SUITE").ok();
    let knobs = knobs(arg.as_deref(), seeds.as_deref(), suite.as_deref());
    let (seeds, handover_only) = knobs.unwrap_or_else(|e| {
        eprintln!("chaos_soak: {e}");
        std::process::exit(2);
    });
    let suite_desc = if handover_only {
        format!("Chaos soak: {seeds} seeds x 2 handover scenarios")
    } else {
        format!("Chaos soak: {seeds} seeds x (4 fixed + 3 pool + 2 handover + 1 random) scenarios")
    };
    banner(
        &suite_desc,
        "the oracle's invariant table, DESIGN.md section 5c",
    );

    let dist = ChaosDistribution::default();
    let fixed = if handover_only {
        Vec::new()
    } else {
        fixed_scenarios()
    };
    let pool = if handover_only {
        Vec::new()
    } else {
        pool_scenarios()
    };
    let handover = handover_scenarios();
    let mut runs = 0u64;
    let mut failures = 0u64;
    let mut replay_mismatches = 0u64;
    let mut worst_detection_us = 0f64;
    let mut total_dropped = 0u64;
    // Per-seed availability summary: the worst run of each seed, as
    // (seed, value) series in the JSON report.
    let mut seed_min_nines: Vec<(f64, f64)> = Vec::new();
    let mut seed_worst_p99: Vec<(f64, f64)> = Vec::new();
    let mut seed_max_mttr_ms: Vec<(f64, f64)> = Vec::new();

    for seed in 0..seeds {
        let mut min_nines = f64::INFINITY;
        let mut worst_p99 = 0u64;
        let mut max_mttr_ms = 0f64;
        let mut tally = |r: &RunResult,
                         runs: &mut u64,
                         failures: &mut u64,
                         total_dropped: &mut u64,
                         worst_detection_us: &mut f64| {
            *runs += 1;
            *failures += u64::from(!r.ok);
            *total_dropped += r.dropped_ttis;
            *worst_detection_us = worst_detection_us.max(r.max_detection_us);
            min_nines = min_nines.min(r.nines);
            worst_p99 = worst_p99.max(r.worst_cell_dropped_tti_p99);
            max_mttr_ms = max_mttr_ms.max(r.mttr_ms);
        };
        for (idx, scenario) in fixed.iter().enumerate() {
            let r = run_one(1000 * seed + idx as u64, scenario, seed);
            tally(
                &r,
                &mut runs,
                &mut failures,
                &mut total_dropped,
                &mut worst_detection_us,
            );
        }
        for (idx, scenario) in pool.iter().enumerate() {
            let r = run_one_pool(2000 * seed + idx as u64, scenario, seed);
            tally(
                &r,
                &mut runs,
                &mut failures,
                &mut total_dropped,
                &mut worst_detection_us,
            );
        }
        for (idx, scenario) in handover.iter().enumerate() {
            let r = run_one_handover(3000 * seed + idx as u64, scenario, seed);
            tally(
                &r,
                &mut runs,
                &mut failures,
                &mut total_dropped,
                &mut worst_detection_us,
            );
        }
        if !handover_only {
            let random = dist.sample(seed);
            let r = run_one(seed, &random, seed);
            tally(
                &r,
                &mut runs,
                &mut failures,
                &mut total_dropped,
                &mut worst_detection_us,
            );
        }
        seed_min_nines.push((seed as f64, min_nines));
        seed_worst_p99.push((seed as f64, worst_p99 as f64));
        seed_max_mttr_ms.push((seed as f64, max_mttr_ms));
    }

    // Determinism spot check: the first two seeds' randomized runs must
    // replay byte-identically (the property that makes every failing
    // seed above reproducible).
    if !handover_only {
        for seed in 0..seeds.min(2) {
            let scenario = dist.sample(seed);
            if replay_is_identical(seed, &scenario) {
                println!("seed={seed} replay: byte-identical");
            } else {
                replay_mismatches += 1;
                eprintln!("seed={seed} replay DIVERGED: {}", scenario.describe());
            }
        }
    }

    println!(
        "\n{runs} runs, {failures} violations, {replay_mismatches} replay mismatches, \
         worst detection {worst_detection_us:.1} us, {total_dropped} dropped TTIs total"
    );

    let mut report = BenchReport::new(
        "chaos_soak",
        "Chaos soak: randomized + scheduled fault injection",
        "sections 5.2, 6.1, 4.3, 4.4",
    );
    report.scalar("seeds", seeds as f64);
    report.scalar("runs", runs as f64);
    report.scalar("violations", failures as f64);
    report.scalar("replay_mismatches", replay_mismatches as f64);
    report.scalar("worst_detection_us", worst_detection_us);
    report.scalar("total_dropped_ttis", total_dropped as f64);
    report.scalar(
        "min_seed_nines",
        seed_min_nines
            .iter()
            .map(|p| p.1)
            .fold(f64::INFINITY, f64::min),
    );
    report.series("per_seed_min_nines", seed_min_nines);
    report.series("per_seed_worst_cell_dropped_tti_p99", seed_worst_p99);
    report.series("per_seed_max_mttr_ms", seed_max_mttr_ms);
    report.write();

    if failures > 0 || replay_mismatches > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::knobs;

    #[test]
    fn a_knob_outside_its_values_is_an_error_not_a_fallback() {
        assert_eq!(knobs(None, None, None), Ok((16, false)));
        assert_eq!(knobs(None, Some("4"), Some("all")), Ok((4, false)));
        assert_eq!(knobs(None, Some("1"), Some("handover")), Ok((1, true)));
        for seeds in ["abc", "", "0", "-3", "4 "] {
            let refused = knobs(None, Some(seeds), None);
            assert!(refused.is_err(), "CHAOS_SEEDS={seeds:?}");
        }
        let typo = knobs(None, None, Some("hanodver")).unwrap_err();
        assert!(typo.contains("hanodver") && typo.contains("all or handover"));
        // The dropped flag must not fall back to 16 seeds either.
        assert!(knobs(Some("--seeds"), Some("4"), None).is_err());
    }
}
