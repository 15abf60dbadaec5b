//! The paper's evaluation, as one command over the experiment registry
//! (`slingshot_bench::experiments::REGISTRY`):
//!
//!   figures [id…]    run the named entries (default: all) and print
//!                    each one's paper-vs-measured table
//!   figures --check  run everything; exit 1 if a row is outside its
//!                    band, or if what the run regenerates differs from
//!                    the committed FIGURES.json or from the generated
//!                    block of EXPERIMENTS.md
//!   figures --bless  run everything and rewrite both
//!
//! Every run leaves each entry's full series as TSV under
//! `target/figures/<id>.tsv`.

use slingshot_bench::contract::Experiment;
use slingshot_bench::contract::{figures_json, first_difference, series_tsv, splice_tables};
use slingshot_bench::experiments::REGISTRY;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let whole = args == ["--check"] || args == ["--bless"];
    let unknown = args.iter().find(|a| !REGISTRY.iter().any(|e| e.id == **a));
    if let Some(arg) = unknown.filter(|_| !whole) {
        eprintln!("figures: no experiment `{arg}`\nusage: figures [id…] | --check | --bless\nids:");
        REGISTRY.iter().for_each(|e| eprintln!("  {}", e.id));
        return ExitCode::from(2);
    }
    let chosen = |e: &&Experiment| whole || args.is_empty() || args.iter().any(|a| a == e.id);

    let tsv_dir = root.join("target/figures");
    std::fs::create_dir_all(&tsv_dir).expect("target/figures can be created");
    let (mut results, mut problems) = (Vec::new(), Vec::new());
    for experiment in REGISTRY.iter().filter(chosen) {
        let report = experiment.run();
        println!("{}", experiment.table(&report));
        problems.extend(experiment.failures(&report));
        let series = report.all_series().iter();
        let tsv: String = series
            .map(|(k, pts)| format!("# {k}\n{}", series_tsv(pts)))
            .collect();
        std::fs::write(tsv_dir.join(format!("{}.tsv", experiment.id)), tsv).expect("TSV written");
        results.push((experiment, report));
    }

    if whole {
        let (json_path, doc_path) = (root.join("FIGURES.json"), root.join("EXPERIMENTS.md"));
        let doc = std::fs::read_to_string(&doc_path).expect("EXPERIMENTS.md is readable");
        let json = figures_json(&results);
        let doc_now = splice_tables(&doc, &results).expect("EXPERIMENTS.md has both markers");
        if args[0] == "--bless" {
            std::fs::write(&json_path, json).expect("FIGURES.json written");
            std::fs::write(&doc_path, doc_now).expect("EXPERIMENTS.md written");
            println!("blessed FIGURES.json and EXPERIMENTS.md");
        } else {
            let committed = std::fs::read_to_string(&json_path).unwrap_or_default();
            let moved = first_difference(&committed, &json, |l| l.starts_with('"'));
            problems.extend(moved.map(|d| format!("FIGURES.json differs {d}")));
            let moved = first_difference(&doc, &doc_now, |l| l.starts_with("### "));
            problems.extend(moved.map(|d| format!("EXPERIMENTS.md differs {d}")));
        }
    }
    problems.iter().for_each(|p| eprintln!("FAIL {p}"));
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
