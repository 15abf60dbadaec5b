//! Merging per-process runs into `results.json` / `layers.json`, the
//! printed tables, the environment stamp, and `--compare`.

use std::fmt::Write as _;
use std::process::Command;

use slingshot_sim::KernelConfig;

use crate::json::Json;
use crate::metrics::{Better, Clock, CLAIMS, END_TO_END};
use crate::stats::Summary;

/// Where the numbers were taken: enough to tell two machines, two
/// toolchains or a loaded box apart after the fact.
pub fn environment() -> Json {
    let run = |cmd: &str, args: &[&str]| -> String {
        Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let load1 = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .next()
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(-1.0);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::str(cpu)),
        (
            "kernel_backend",
            Json::str(KernelConfig::detect().backend.name()),
        ),
        ("rustc", Json::str(run("rustc", &["--version"]))),
        ("commit", Json::str(run("git", &["rev-parse", "HEAD"]))),
        ("load_1m", Json::Num(load1)),
    ])
}

/// Environment knobs that would change what is measured. The kernel
/// backend is pinned in code; a stray knob means the caller expects
/// otherwise, so refuse rather than measure something else.
pub fn forbidden_env() -> Vec<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| {
            k == "KERNEL_BACKEND"
                || k == "KERNEL_TOLERANCE"
                || k.starts_with("SLOTS_")
                || k.starts_with("SCALE_")
        })
        .collect()
}

fn floats(v: Option<&Json>) -> Vec<f64> {
    v.and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Merge one workload's per-process details (one per round) into its
/// `results.json` entry. Host samples pool across rounds; simulated
/// values must be bit-equal in every round.
pub fn merge_workload(details: &[Json]) -> Result<Json, String> {
    let first = details.first().ok_or("no runs to merge")?;
    let name = first.get("workload").and_then(Json::as_str).unwrap_or("?");
    let mut failures: Vec<Json> = Vec::new();
    for d in details {
        failures.extend(
            d.get("failures")
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .cloned(),
        );
        for key in ["sim", "claims", "hashes", "inputs"] {
            if d.get(key) != first.get(key) {
                failures.push(Json::str(format!("{name}: {key} differs between rounds")));
            }
        }
    }
    // A host-clock row pools the repetitions of every round; a
    // simulated-clock row is the one value every round agreed on.
    let host_row = |key: &str, bound: f64| -> Option<Vec<(&str, Json)>> {
        let mut samples = Vec::new();
        for d in details {
            samples.extend(floats(d.get("host").and_then(|h| h.get(key))));
        }
        let s = Summary::of(&samples)?;
        let resolved = s.iqr_share() <= bound;
        Some(vec![
            ("median", Json::Num(s.median)),
            ("q1", Json::Num(s.q1)),
            ("q3", Json::Num(s.q3)),
            ("n", Json::Num(s.n as f64)),
            (
                "status",
                Json::str(if resolved { "ok" } else { "unresolved" }),
            ),
        ])
    };
    let sim_row = |block: &str, key: &str| -> Option<Vec<(&str, Json)>> {
        let v = first.get(block)?.get(key)?.as_f64()?;
        Some(vec![("median", Json::Num(v)), ("status", Json::str("ok"))])
    };
    let mut metrics: Vec<(String, Json)> = Vec::new();
    for m in END_TO_END {
        let mut row = vec![
            ("unit", Json::str(m.unit)),
            ("clock", Json::str(m.clock.name())),
            ("better", Json::str(m.better.name())),
            ("bound", Json::Num(m.bound)),
        ];
        let measured = match m.clock {
            Clock::Host => host_row(m.name, m.bound),
            Clock::Sim => sim_row("sim", m.name),
        };
        row.extend(measured.ok_or(format!("{name}: no value of {}", m.name))?);
        metrics.push((m.name.to_string(), Json::obj(row)));
    }
    // A claim has a row only on the workloads it was measured on.
    for c in CLAIMS {
        let measured = match c.clock {
            Clock::Host => host_row(c.name, c.bound),
            Clock::Sim => sim_row("claims", c.name),
        };
        let Some(measured) = measured else { continue };
        let mut row = vec![
            ("unit", Json::str(c.unit)),
            ("clock", Json::str(c.clock.name())),
            ("better", Json::str(c.better.name())),
            ("bound", Json::Num(c.bound)),
            ("hard_max", c.hard_max.map_or(Json::Null, Json::Num)),
        ];
        row.extend(measured);
        metrics.push((c.name.to_string(), Json::obj(row)));
    }
    let sim = |k: &str| {
        first
            .get("sim")
            .and_then(|s| s.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let attempted = sim("tbs_attempted") + sim("ul_ttis_expected");
    let failed = sim("tbs_failed") + sim("ul_ttis_dropped");
    Ok(Json::obj([
        ("inputs", first.get("inputs").cloned().unwrap_or(Json::Null)),
        ("correct", Json::Bool(failures.is_empty())),
        ("failures", Json::Arr(failures)),
        ("hashes", first.get("hashes").cloned().unwrap_or(Json::Null)),
        // The modelled radio's own failures: CRC-failed TBs and dropped
        // UL TTIs over TBs decoded and UL TTIs expected.
        (
            "ops",
            Json::obj([
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                (
                    "failure_share",
                    Json::Num(if attempted > 0.0 {
                        failed / attempted
                    } else {
                        0.0
                    }),
                ),
            ]),
        ),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// One workload's end-to-end block, for the terminal.
pub fn workload_text(name: &str, entry: &Json) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{name}: {}",
        entry.get("inputs").and_then(Json::as_str).unwrap_or("")
    );
    let _ = writeln!(
        out,
        "  {:<24} {:>14} {:<6} {:<5} {:>14} {:>14} {:>3}  status",
        "metric", "median", "unit", "clock", "q1", "q3", "n"
    );
    for (k, m) in entry
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or_default()
    {
        let f = |key: &str| m.get(key).and_then(Json::as_f64);
        let s = |key: &str| m.get(key).and_then(Json::as_str).unwrap_or("");
        let q = |key: &str| f(key).map_or_else(|| "-".to_string(), |v| format!("{v:.4}"));
        // A spread wider than the bound is not a number to quote.
        let median = if s("status") == "unresolved" {
            "unresolved".to_string()
        } else {
            format!("{:.4}", f("median").unwrap_or(f64::NAN))
        };
        let _ = writeln!(
            out,
            "  {:<24} {:>14} {:<6} {:<5} {:>14} {:>14} {:>3}  {}",
            k,
            median,
            s("unit"),
            s("clock"),
            q("q1"),
            q("q3"),
            f("n").map_or_else(|| "-".to_string(), |n| format!("{n:.0}")),
            s("status"),
        );
    }
    if let Some(ops) = entry.get("ops") {
        let f = |key: &str| ops.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let _ = writeln!(
            out,
            "  ops: {:.0} attempted, {:.0} failed (share {:.4})",
            f("attempted"),
            f("failed"),
            f("failure_share")
        );
    }
    for f in entry
        .get("failures")
        .and_then(Json::as_arr)
        .unwrap_or_default()
    {
        let _ = writeln!(out, "  GATE FAILED: {}", f.as_str().unwrap_or("?"));
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric on one workload, base against new.
pub fn verdict(base: &Json, new: &Json) -> Option<(f64, f64, f64, Verdict)> {
    let a = base.get("median")?.as_f64()?;
    let b = new.get("median")?.as_f64()?;
    let bound = base.get("bound")?.as_f64()?;
    let better = match base.get("better")?.as_str()? {
        "higher" => Better::Higher,
        _ => Better::Lower,
    };
    let unresolved = [base, new]
        .iter()
        .any(|m| m.get("status").and_then(Json::as_str) == Some("unresolved"));
    let v = if unresolved {
        Verdict::Unresolved
    } else if better.worsening(a, b) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    Some((a, b, bound, v))
}

/// `--compare`: one row per (workload, end-to-end metric). Returns the
/// table and whether every row is `ok`.
pub fn compare(base: &Json, new: &Json) -> Result<(String, bool), String> {
    let workloads = |j: &'_ Json| -> Result<Vec<(String, Json)>, String> {
        j.get("workloads")
            .and_then(Json::as_obj)
            .map(<[(String, Json)]>::to_vec)
            .ok_or_else(|| "not a results.json: no \"workloads\" object".to_string())
    };
    let (base_w, new_w) = (workloads(base)?, workloads(new)?);
    let mut out = String::new();
    let mut all_ok = true;
    let _ = writeln!(
        out,
        "{:<15} {:<24} {:>14} {:>14} {:>22} {:>7}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound"
    );
    for (name, b_entry) in &base_w {
        let Some((_, n_entry)) = new_w.iter().find(|(k, _)| k == name) else {
            let _ = writeln!(out, "{name:<15} missing from the new results");
            all_ok = false;
            continue;
        };
        for (metric, b) in b_entry
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap_or_default()
        {
            let n = n_entry.get("metrics").and_then(|m| m.get(metric));
            let Some((a, v, bound, verdict)) = n.and_then(|n| verdict(b, n)) else {
                let _ = writeln!(out, "{name:<15} {metric:<24} missing from the new results");
                all_ok = false;
                continue;
            };
            let ratio = if a != 0.0 {
                format!("{:.4} (base {a:.4})", v / a)
            } else {
                format!("- (base {a:.4})")
            };
            let _ = writeln!(
                out,
                "{name:<15} {metric:<24} {a:>14.4} {v:>14.4} {ratio:>22} {:>6.1}%  {}",
                bound * 100.0,
                verdict.name()
            );
            all_ok &= verdict == Verdict::Ok;
        }
    }
    Ok((out, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(median: f64, better: &str, bound: f64, status: &str) -> Json {
        Json::obj([
            ("median", Json::Num(median)),
            ("better", Json::str(better)),
            ("bound", Json::Num(bound)),
            ("status", Json::str(status)),
        ])
    }

    #[test]
    fn verdict_respects_direction_bound_and_spread() {
        let base = metric(100.0, "higher", 0.10, "ok");
        let v = |new: &Json| verdict(&base, new).map(|x| x.3);
        assert_eq!(v(&metric(95.0, "higher", 0.10, "ok")), Some(Verdict::Ok));
        assert_eq!(v(&metric(89.0, "higher", 0.10, "ok")), Some(Verdict::Worse));
        assert_eq!(v(&metric(150.0, "higher", 0.10, "ok")), Some(Verdict::Ok));
        assert_eq!(
            v(&metric(100.0, "higher", 0.10, "unresolved")),
            Some(Verdict::Unresolved)
        );
        let lower = metric(10.0, "lower", 0.0, "ok");
        assert_eq!(
            verdict(&lower, &metric(10.0, "lower", 0.0, "ok")).map(|x| x.3),
            Some(Verdict::Ok)
        );
        assert_eq!(
            verdict(&lower, &metric(10.5, "lower", 0.0, "ok")).map(|x| x.3),
            Some(Verdict::Worse)
        );
        // Most bound-0 claims sit at 0: a regression from there is `worse`.
        let zero = metric(0.0, "lower", 0.0, "ok");
        let from_zero = |new: f64| verdict(&zero, &metric(new, "lower", 0.0, "ok")).map(|x| x.3);
        assert_eq!(from_zero(7.0), Some(Verdict::Worse));
        assert_eq!(from_zero(0.0), Some(Verdict::Ok));
        assert_eq!(verdict(&lower, &Json::Null), None);
    }

    #[test]
    fn compare_reports_every_row_and_the_overall_result() {
        let results = |cs: f64| {
            Json::obj([(
                "workloads",
                Json::obj([(
                    "full_ul",
                    Json::obj([(
                        "metrics",
                        Json::obj([("cell_slots_per_s", metric(cs, "higher", 0.10, "ok"))]),
                    )]),
                )]),
            )])
        };
        let (text, ok) = compare(&results(1300.0), &results(1290.0)).expect("well-formed");
        assert!(
            ok && text.contains("full_ul") && text.contains("0.9923 (base 1300.0000)"),
            "{text}"
        );
        let (text, ok) = compare(&results(1300.0), &results(1000.0)).expect("well-formed");
        assert!(!ok && text.contains("worse"), "{text}");
        assert!(compare(&Json::Null, &results(1.0)).is_err());
    }

    #[test]
    fn merge_pools_host_samples_and_demands_equal_sim_values() {
        let detail_with_lanes = |cs: &[f64], goodput: f64, lanes: &[f64]| {
            let arr = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
            Json::obj([
                ("workload", Json::str("full_ul")),
                ("inputs", Json::str("x")),
                ("failures", Json::Arr(vec![])),
                ("hashes", Json::Arr(vec![Json::str("a"), Json::str("b")])),
                (
                    "host",
                    Json::obj([
                        ("setup_s", arr(&[0.3])),
                        ("cell_slots_per_s", arr(cs)),
                        ("lane_slot_us", arr(lanes)),
                        ("peak_rss_mb", arr(&[50.0])),
                    ]),
                ),
                (
                    "sim",
                    Json::obj([
                        ("goodput_mbps", Json::Num(goodput)),
                        ("tb_success_ratio", Json::Num(0.75)),
                        ("tbs_attempted", Json::Num(400.0)),
                        ("tbs_failed", Json::Num(100.0)),
                        ("ul_ttis_expected", Json::Num(100.0)),
                        ("ul_ttis_dropped", Json::Num(0.0)),
                    ]),
                ),
                ("claims", Json::obj([("tb_bler", Json::Num(0.25))])),
            ])
        };
        let detail = |cs: &[f64], goodput: f64| detail_with_lanes(cs, goodput, &[]);
        let merged = merge_workload(&[detail(&[1300.0, 1310.0], 33.0), detail(&[1290.0], 33.0)])
            .expect("mergeable");
        let cs = merged
            .get("metrics")
            .and_then(|m| m.get("cell_slots_per_s"))
            .expect("metric");
        assert_eq!(cs.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(cs.get("median").and_then(Json::as_f64), Some(1300.0));
        assert_eq!(merged.get("correct"), Some(&Json::Bool(true)));
        let share = merged
            .get("ops")
            .and_then(|o| o.get("failure_share"))
            .and_then(Json::as_f64);
        assert_eq!(share, Some(0.2));
        assert!(merged
            .get("metrics")
            .and_then(|m| m.get("tb_bler"))
            .is_some());

        // The host-clock claim has a row where it has samples, and only there.
        let lanes = |m: &Json| {
            m.get("metrics")
                .and_then(|m| m.get("lane_slot_us"))
                .cloned()
        };
        assert_eq!(lanes(&merged), None);
        let sharded = merge_workload(&[
            detail_with_lanes(&[1300.0], 33.0, &[240.0]),
            detail_with_lanes(&[1300.0], 33.0, &[250.0, 260.0]),
        ])
        .expect("mergeable");
        let row = lanes(&sharded).expect("lane_slot_us row");
        assert_eq!(row.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(row.get("median").and_then(Json::as_f64), Some(250.0));
        assert_eq!(sharded.get("correct"), Some(&Json::Bool(true)));

        let split =
            merge_workload(&[detail(&[1300.0], 33.0), detail(&[1300.0], 34.0)]).expect("mergeable");
        assert_eq!(split.get("correct"), Some(&Json::Bool(false)));
        // A spread wider than the bound is flagged, not quoted.
        let noisy = merge_workload(&[detail(&[1000.0, 1300.0, 1600.0], 33.0)]).expect("mergeable");
        let cs = noisy
            .get("metrics")
            .and_then(|m| m.get("cell_slots_per_s"))
            .expect("metric");
        assert_eq!(cs.get("status").and_then(Json::as_str), Some("unresolved"));
        assert!(workload_text("full_ul", &noisy).contains("unresolved"));
    }
}
