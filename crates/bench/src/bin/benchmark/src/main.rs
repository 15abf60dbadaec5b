//! The Slingshot benchmark. See `README.md` beside `Cargo.toml` for the
//! metric glossary, the workloads and how to run and compare.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! benchmark [--seed <n>] [--out <dir>] [--trace]
//! benchmark --check | --manifest | --compare <a.json> <b.json>
//! ```
//!
//! The first form runs one workload in this process and prints, as its
//! last line, the result object `BENCHMARK.json`'s contract names. The
//! second runs every workload exactly as the driver does (the manifest's
//! `run_seconds` per run), one child process per workload per round,
//! rounds interleaved A B C A B C, and writes `results.json`,
//! `layers.json` and `spans.trace.json`.

mod json;
mod layers;
mod metrics;
mod probes;
mod report;
mod runner;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use json::Json;
use workloads::{Scale, Workload};

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
  benchmark [--seed <n>] [--out <dir>] [--trace]
  benchmark --check | --manifest | --compare <a.json> <b.json>
workloads: full_ul full_mixed scale_abstract failover handover";

#[derive(Debug, Default)]
struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    check: bool,
    manifest: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>, flag: &str| {
        it.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let v = value(&mut it, flag)?;
                args.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value(&mut it, flag)?;
                args.seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value(&mut it, flag)?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {v} is outside (0, 600]"));
                }
                args.seconds = Some(s);
            }
            // `--trace 0|1` for the driver, bare `--trace` by hand.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    args.trace = false;
                }
                Some("1") => {
                    it.next();
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            "--out" => args.out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--check" => args.check = true,
            "--manifest" => args.manifest = true,
            "--compare" => {
                let a = PathBuf::from(value(&mut it, flag)?);
                let b = PathBuf::from(value(&mut it, flag)?);
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn chrome_trace(events: Vec<Json>) -> Json {
    Json::obj([("traceEvents", Json::Arr(events))])
}

/// One workload in this process; the result object is the last line.
fn single(
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<&Path>,
) -> Result<bool, String> {
    let mut report = runner::run(w, seed, seconds, traced, Scale::Full);
    println!("{}", report.inputs);
    for f in &report.failures {
        println!("GATE FAILED: {f}");
    }
    if let Some(rows) = &report.layers {
        print!("{}", layers::to_text(rows));
    } else {
        let row = |name: &str, value: f64, unit: &str, clock: metrics::Clock, what: &str| {
            println!(
                "  {name:<24} {value:>16.4} {unit:<6} {:<5} {what}",
                clock.name()
            );
        };
        for (m, value) in report.end_to_end() {
            row(m.name, value, m.unit, m.clock, m.what);
        }
        for (c, value) in &report.claims {
            row(c.name, *value, c.unit, c.clock, c.what);
        }
    }
    if let Some(dir) = out {
        write_file(
            &dir.join(format!("{}.json", w.name())),
            &report.detail().pretty(),
        )?;
        if traced {
            let spans = chrome_trace(std::mem::take(&mut report.span_events));
            write_file(
                &dir.join(format!("{}.spans.trace.json", w.name())),
                &spans.compact(),
            )?;
        }
    }
    println!("{}", report.result_line());
    Ok(report.correct())
}

/// Run this binary again for one workload and read its detail file.
/// Returns the detail and the child's printed tables (its stdout less
/// the result line).
fn child(
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    dir: &Path,
) -> Result<(Json, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: cannot start: {e}", w.name()))?;
    // A failed gate exits 1 but still wrote its detail; anything else
    // (a panic, a signal) is an error of the run itself.
    if !output.status.success() && output.status.code() != Some(1) {
        return Err(format!(
            "{}: child process ended with {}",
            w.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let tables = stdout
        .trim_end()
        .rsplit_once('\n')
        .map_or("", |(head, _)| head);
    let detail = read_json(&dir.join(format!("{}.json", w.name())))?;
    Ok((detail, format!("{tables}\n")))
}

/// Timed rounds of the all-workloads run: every host-clock median pools
/// 40 or more repetitions taken over ten minutes of the machine's moods.
const ROUNDS: usize = 5;

/// Every workload: `ROUNDS` timed rounds, interleaved, then one traced
/// pass when asked; each run is the driver's (`RUN_SECONDS`), so a hand
/// run and the driver measure the same thing. Writes the three
/// artifacts into `out`.
fn all(seed: u64, out: &Path, traced: bool) -> Result<bool, String> {
    let started = Instant::now();
    let seconds = metrics::RUN_SECONDS as f64;
    let env = report::environment();
    println!("environment: {}", env.compact());
    let mut details: Vec<Vec<Json>> = vec![Vec::new(); Workload::ALL.len()];
    for round in 0..ROUNDS {
        for (i, w) in Workload::ALL.into_iter().enumerate() {
            eprintln!("round {}/{ROUNDS}: {}", round + 1, w.name());
            let dir = out.join("runs").join(format!("r{round}"));
            details[i].push(child(w, seed, seconds, false, &dir)?.0);
        }
    }
    let mut workloads = Vec::new();
    let mut ok = true;
    for (w, runs) in Workload::ALL.into_iter().zip(&details) {
        let entry = report::merge_workload(runs)?;
        print!("{}", report::workload_text(w.name(), &entry));
        ok &= entry.get("correct") == Some(&Json::Bool(true));
        workloads.push((w.name(), entry));
    }
    let results = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("rounds", Json::Num(ROUNDS as f64)),
        ("seconds_per_run", Json::Num(seconds)),
        ("environment", env),
        ("workloads", Json::obj(workloads)),
    ]);
    write_file(&out.join("results.json"), &results.pretty())?;

    if traced {
        let mut tables = Vec::new();
        let mut events = Vec::new();
        for w in Workload::ALL {
            eprintln!("traced: {}", w.name());
            let dir = out.join("runs").join("traced");
            let (d, text) = child(w, seed, seconds, true, &dir)?;
            ok &= d.get("correct") == Some(&Json::Bool(true));
            print!("{text}");
            tables.push((w.name(), d.get("layers").cloned().unwrap_or(Json::Null)));
            let spans = read_json(&dir.join(format!("{}.spans.trace.json", w.name())))?;
            events.extend(
                spans
                    .get("traceEvents")
                    .and_then(Json::as_arr)
                    .unwrap_or_default()
                    .iter()
                    .cloned(),
            );
        }
        write_file(&out.join("layers.json"), &Json::obj(tables).pretty())?;
        write_file(
            &out.join("spans.trace.json"),
            &chrome_trace(events).compact(),
        )?;
    }
    println!(
        "wrote {} in {:.0} s: {}",
        out.display(),
        started.elapsed().as_secs_f64(),
        if ok { "all gates passed" } else { "FAILED" }
    );
    Ok(ok)
}

/// `--check`: every workload at a sliver of its horizon, traced and
/// untraced; the names emitted must be exactly the manifest's.
fn check() -> Result<bool, String> {
    let started = Instant::now();
    let manifest = read_json(Path::new("BENCHMARK.json"))?;
    let mut ok = true;
    if manifest != metrics::manifest() {
        println!(
            "BENCHMARK.json differs from the catalogue in metrics.rs; regenerate with --manifest"
        );
        ok = false;
    }
    let names = |key: &str| -> Vec<String> {
        manifest
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_string))
            .collect()
    };
    for w in Workload::ALL {
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = runner::run(w, 4242, 0.0, traced, Scale::Check);
            let line = Json::parse(&report.result_line())?;
            let emitted: Vec<String> = line
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap_or_default()
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            let expected = names(key);
            for n in expected.iter().filter(|n| !emitted.contains(n)) {
                println!(
                    "{}: {key} metric {n} is in the manifest but was not emitted",
                    w.name()
                );
                ok = false;
            }
            for n in emitted.iter().filter(|n| !expected.contains(n)) {
                println!(
                    "{}: {key} metric {n} was emitted but is not in the manifest",
                    w.name()
                );
                ok = false;
            }
            if report.attempted == 0 {
                println!("{}: nothing attempted", w.name());
                ok = false;
            }
            // Hard limits assume the full horizon; determinism does not.
            for f in report.failures.iter().filter(|f| f.contains("differ")) {
                println!("{}: {f}", w.name());
                ok = false;
            }
        }
    }
    if !names("workloads")
        .iter()
        .map(String::as_str)
        .eq(Workload::ALL.iter().map(|w| w.name()))
    {
        println!("manifest workloads differ from the benchmark's");
        ok = false;
    }
    println!(
        "check {} in {:.1} s",
        if ok { "passed" } else { "FAILED" },
        started.elapsed().as_secs_f64()
    );
    Ok(ok)
}

fn run(args: Args) -> Result<bool, String> {
    if args.manifest {
        print!("{}", metrics::manifest().pretty());
        return Ok(true);
    }
    if let Some((a, b)) = &args.compare {
        let (text, ok) = report::compare(&read_json(a)?, &read_json(b)?)?;
        print!("{text}");
        return Ok(ok);
    }
    let knobs = report::forbidden_env();
    if !knobs.is_empty() {
        return Err(format!(
            "refusing to measure with {} set: the benchmark pins the kernel backend and takes \
             its shape from its workloads, not from the environment",
            knobs.join(", ")
        ));
    }
    if args.check {
        return check();
    }
    match args.workload {
        Some(w) => {
            let seed = args.seed.ok_or("--workload needs --seed")?;
            let seconds = args.seconds.ok_or("--workload needs --seconds")?;
            single(w, seed, seconds, args.trace, args.out.as_deref())
        }
        None if args.seconds.is_some() => {
            Err("--seconds goes with --workload; every workload runs for run_seconds".into())
        }
        None => all(
            args.seed.unwrap_or(4242),
            &args
                .out
                .unwrap_or_else(|| PathBuf::from("target/benchmark")),
            args.trace,
        ),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_form_parses() {
        let a = parse(&[
            "--workload",
            "failover",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Some(Workload::Failover));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), Some(12.0), true));
        let a = parse(&["--trace", "0", "--workload", "full_ul"]).expect("valid");
        assert!(!a.trace && a.workload == Some(Workload::FullUl));
    }

    /// The lines of a manifest's `[profile.release]` table.
    fn release_profile(manifest: &str) -> Vec<String> {
        let text = std::fs::read_to_string(manifest).expect(manifest);
        text.lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect()
    }

    /// This package restates the root release profile (it cannot inherit
    /// it); the numbers mean what the repo's own bins see only while the
    /// two agree.
    #[test]
    fn release_profile_is_the_root_workspaces() {
        let own = release_profile(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
        let root = release_profile(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../../../../Cargo.toml"
        ));
        assert!(!own.is_empty());
        assert_eq!(own, root);
    }

    #[test]
    fn bare_trace_flag_and_bad_input() {
        let a = parse(&["--trace", "--out", "x"]).expect("valid");
        assert!(a.trace && a.out == Some(PathBuf::from("x")));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seconds", "nan"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--compare", "a.json"]).is_err());
    }
}
