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

use std::collections::BTreeMap;

use slingshot::chaos::{
    chaos_deployment, chaos_handover_deployment, chaos_pool_deployment, expectations_for,
    ChaosRunner,
};
use slingshot::{Deployment, DeploymentBuilder};
use slingshot_bench::{artifact_path, banner, BenchReport};
use slingshot_ran::{CellConfig, Fidelity, UeConfig};
use slingshot_sim::chaos::{oracle, ChaosDistribution, FaultKind, FaultTarget, Scenario};
use slingshot_sim::slo::{self, SloConfig};
use slingshot_sim::Nanos;
use slingshot_transport::{UdpCbrSource, UdpSink};

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
/// pre-boundary slot) while a neighbour crashes. `pool-recycle` makes a
/// recycled PHY active in a foreign cell: cell 0's primary is scrubbed
/// back into the pool and granted to cell 1, whose active PHY then dies
/// so that the recycled one serves.
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
        // The pool grants spares 9 (to cell 0) and 10 (to cell 2), then
        // cell 0's scrubbed PHY 1 to cell 1; the last crash flips cell 1
        // onto PHY 1.
        Scenario::new("pool-recycle", 1900)
            .fault(700, FaultTarget::ActivePhyOf(0), FaultKind::PhyCrash)
            .fault(760, FaultTarget::ActivePhyOf(2), FaultKind::PhyCrash)
            .fault(820, FaultTarget::ActivePhyOf(1), FaultKind::PhyCrash)
            .fault(880, FaultTarget::ActivePhyOf(1), FaultKind::PhyCrash),
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

/// `cells` cells of the single-cell testbed on `builder`, each with
/// that testbed's UE and 4 Mbps uplink flow.
fn testbed_cells(builder: DeploymentBuilder, cells: u8) -> Deployment {
    let cell = CellConfig {
        num_prbs: 51,
        fidelity: Fidelity::Sampled,
        ..CellConfig::default()
    };
    let ues = (0..cells)
        .map(|c| UeConfig::new(100 + c as u16, c, &format!("ue{}", 100 + c as u16), 22.0));
    let mut d = builder.cell(cell).cells(cells as usize).ues(ues).build();
    for c in 0..cells {
        d.add_flow(
            c as usize,
            100 + c as u16,
            Box::new(UdpCbrSource::new(4_000_000, 1000, Nanos::ZERO)),
            Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
        );
    }
    d
}

/// The §8 co-located deployment: two cells whose PHYs are each one
/// cell's primary and the other's hot standby (`crossed_standbys`).
fn crossed_deployment(seed: u64) -> Deployment {
    testbed_cells(DeploymentBuilder::new().seed(seed).crossed_standbys(), 2)
}

/// Four cells in two cell groups: two middleboxes `leaf0` / `leaf1`,
/// each detecting only its own cells' PHYs, in two engine lanes.
fn fabric_deployment(seed: u64) -> Deployment {
    testbed_cells(DeploymentBuilder::new().seed(seed).cell_groups(2), 4)
}

/// A crash of cell 0's primary, which is also cell 1's standby: cell 0
/// fails over onto cell 1's primary, and the survivor serves both.
fn crossed_scenarios() -> Vec<Scenario> {
    vec![Scenario::new("crossed-crash", 2400).fault(
        1000,
        FaultTarget::ActivePhyOf(0),
        FaultKind::PhyCrash,
    )]
}

/// One primary crash in each cell group, 60 slots apart: each leaf
/// detects its own, and each cell fails over to its standby.
fn fabric_scenarios() -> Vec<Scenario> {
    vec![Scenario::new("fabric-crash", 2400)
        .fault(1000, FaultTarget::ActivePhyOf(0), FaultKind::PhyCrash)
        .fault(1060, FaultTarget::ActivePhyOf(3), FaultKind::PhyCrash)]
}

/// The most crashes `scenario` aims at one cell's active PHY (at least
/// one). The oracle sums each cell's dropped TTIs over the run, so a
/// per-crash budget scales by it.
fn most_crashes_on_one_cell(scenario: &Scenario) -> u64 {
    let mut per_cell = BTreeMap::new();
    for f in &scenario.faults {
        let ru = match f.target {
            FaultTarget::ActivePhy => 0,
            FaultTarget::ActivePhyOf(ru) => ru,
            _ => continue,
        };
        if f.kind == FaultKind::PhyCrash {
            *per_cell.entry(ru).or_insert(0) += 1;
        }
    }
    per_cell.into_values().max().unwrap_or(1)
}

/// One run of the soak: `scenario` on `deployment(seed)`, with every
/// crash held to `tti_budget` dropped TTIs where the deployment's
/// default budget is not the one to judge by.
struct Case {
    deployment: fn(u64) -> Deployment,
    seed: u64,
    tti_budget: Option<u64>,
    scenario: Scenario,
}

/// What chaos seed `seed` runs, in order: the fixed suite on the
/// single-cell deployment, the pool suite on the 4-cell / 2-spare pool
/// (every crash held to the per-cell single-failure budget), the
/// handover suite on the two-cell mobility deployment, the crossed
/// suite on the co-located deployment, the fabric suite on two cell
/// groups, and one scenario sampled from `dist`. `handover_only` keeps
/// only the handover suite.
fn cases(seed: u64, handover_only: bool, dist: &ChaosDistribution) -> Vec<Case> {
    let suite = |deployment, stride: u64, tti_budget, scenarios: Vec<Scenario>| {
        let numbered = scenarios.into_iter().zip(stride * seed..);
        numbered.map(move |(scenario, seed)| Case {
            deployment,
            seed,
            tti_budget,
            scenario,
        })
    };
    let handover = suite(chaos_handover_deployment, 3000, None, handover_scenarios());
    if handover_only {
        return handover.collect();
    }
    let random = Case {
        deployment: chaos_deployment,
        seed,
        tti_budget: None,
        scenario: dist.sample(seed),
    };
    suite(chaos_deployment, 1000, None, fixed_scenarios())
        .chain(suite(
            chaos_pool_deployment,
            2000,
            Some(3),
            pool_scenarios(),
        ))
        .chain(handover)
        .chain(suite(crossed_deployment, 4000, None, crossed_scenarios()))
        .chain(suite(fabric_deployment, 5000, None, fabric_scenarios()))
        .chain([random])
        .collect()
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

/// Run one case under `chaos_seed` and report violations.
fn run_case(case: &Case, chaos_seed: u64) -> RunResult {
    let (mut d, scenario) = ((case.deployment)(case.seed), &case.scenario);
    let mut exp = expectations_for(&d, scenario);
    if let Some(budget) = case.tti_budget {
        exp.max_dropped_ttis = budget * most_crashes_on_one_cell(scenario);
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
        if report.slo.truncated {
            eprintln!(
                "  trace ring evicted {} events: the oracle judged a truncated window",
                report.slo.evicted_events
            );
        }
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

/// What the soak sums over every run, and the worst run of each seed
/// as (seed, value) series for the JSON report.
#[derive(Default)]
struct Totals {
    runs: u64,
    failures: u64,
    dropped_ttis: u64,
    worst_detection_us: f64,
    min_nines: Vec<(f64, f64)>,
    worst_p99: Vec<(f64, f64)>,
    max_mttr_ms: Vec<(f64, f64)>,
}

impl Totals {
    fn add_seed(&mut self, seed: u64, runs: &[RunResult]) {
        self.runs += runs.len() as u64;
        self.failures += runs.iter().filter(|r| !r.ok).count() as u64;
        self.dropped_ttis += runs.iter().map(|r| r.dropped_ttis).sum::<u64>();
        let detection = runs.iter().map(|r| r.max_detection_us);
        self.worst_detection_us = detection.fold(self.worst_detection_us, f64::max);
        let x = seed as f64;
        let nines = runs.iter().map(|r| r.nines).fold(f64::INFINITY, f64::min);
        self.min_nines.push((x, nines));
        let p99 = runs.iter().map(|r| r.worst_cell_dropped_tti_p99).max();
        self.worst_p99.push((x, p99.unwrap_or(0) as f64));
        let mttr = runs.iter().map(|r| r.mttr_ms).fold(0.0, f64::max);
        self.max_mttr_ms.push((x, mttr));
    }
}

/// Write the failing run's Chrome trace into `$BENCH_JSON_DIR`.
fn dump_failure_trace(d: &Deployment, scenario: &Scenario, seed: u64) {
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
        format!("Chaos soak: {seeds} seeds x (4 fixed + 4 pool + 2 handover + 1 crossed + 1 fabric + 1 random) scenarios")
    };
    banner(
        &suite_desc,
        "the oracle's invariant table, DESIGN.md section 5c",
    );

    let dist = ChaosDistribution::default();
    let mut totals = Totals::default();
    for seed in 0..seeds {
        let cases = cases(seed, handover_only, &dist);
        let runs: Vec<RunResult> = cases.iter().map(|c| run_case(c, seed)).collect();
        totals.add_seed(seed, &runs);
    }
    let mut replay_mismatches = 0u64;

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

    let Totals {
        runs,
        failures,
        dropped_ttis,
        worst_detection_us,
        ..
    } = totals;
    println!(
        "\n{runs} runs, {failures} violations, {replay_mismatches} replay mismatches, \
         worst detection {worst_detection_us:.1} us, {dropped_ttis} dropped TTIs total"
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
    report.scalar("total_dropped_ttis", dropped_ttis as f64);
    let min_nines = totals.min_nines.iter().map(|p| p.1);
    report.scalar("min_seed_nines", min_nines.fold(f64::INFINITY, f64::min));
    report.series("per_seed_min_nines", totals.min_nines);
    report.series("per_seed_worst_cell_dropped_tti_p99", totals.worst_p99);
    report.series("per_seed_max_mttr_ms", totals.max_mttr_ms);
    report.write();

    if failures > 0 || replay_mismatches > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deployment seed is how a failing run is reproduced, so which
    /// seed each scenario runs on is pinned, not only how many run.
    #[test]
    fn a_seed_runs_its_scenarios_on_pinned_deployment_seeds_and_budgets() {
        let dist = ChaosDistribution::default();
        let pinned = |handover_only| {
            let cases = cases(3, handover_only, &dist).into_iter();
            let row = |c: Case| (c.scenario.name, c.seed, c.tti_budget);
            cases.map(row).collect::<Vec<_>>()
        };
        let handover = [
            ("ho-crash".to_string(), 9000, None),
            ("ho-storm".to_string(), 9001, None),
        ];
        let mut all = vec![
            ("crash".to_string(), 3000, None),
            ("hang".to_string(), 3001, None),
            ("planned".to_string(), 3002, None),
            ("fh-burst".to_string(), 3003, None),
            ("pool-3crash".to_string(), 6000, Some(3)),
            ("pool-4crash".to_string(), 6001, Some(3)),
            ("pool-planned".to_string(), 6002, Some(3)),
            ("pool-recycle".to_string(), 6003, Some(3)),
        ];
        all.extend(handover.clone());
        all.push(("crossed-crash".to_string(), 12000, None));
        all.push(("fabric-crash".to_string(), 15000, None));
        all.push((dist.sample(3).name, 3, None));
        assert_eq!(pinned(false), all);
        assert_eq!(pinned(true), handover);
        // The budget is per crash; `pool-recycle` crashes cell 1 twice.
        let crashes: Vec<u64> = pool_scenarios()
            .iter()
            .map(most_crashes_on_one_cell)
            .collect();
        assert_eq!(crashes, [1, 1, 1, 2]);
    }

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
