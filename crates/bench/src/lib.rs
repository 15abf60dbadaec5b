//! # slingshot-bench
//!
//! The experiment harness. The paper's evaluation is a registry of
//! experiments ([`experiments::REGISTRY`], indexed in DESIGN.md §4)
//! judged against per-row expectations ([`contract`]) by the one
//! `figures` binary; the floored benches are binaries of their own.
//! This library also holds the scenario builders and report helpers
//! both share.

#![forbid(unsafe_code)]

pub mod contract;
pub mod experiments;

use slingshot_phy_dsp::SnrProcessConfig;
use slingshot_ran::{CellConfig, Fidelity, UeConfig};
use std::fmt::Display;

/// The paper's three UEs (Table 1), with SNR means chosen so their
/// behavior matches the roles they play in the figures: the phones sit
/// closer to the decode threshold than the Raspberry Pi.
pub fn paper_ues() -> Vec<UeConfig> {
    vec![
        ue("OnePlus-N10", 100, 19.5),
        ue("Samsung-A52s", 101, 16.5),
        ue("Raspberry-Pi", 102, 24.0),
    ]
}

pub fn ue(name: &str, rnti: u16, snr_db: f64) -> UeConfig {
    UeConfig {
        snr: SnrProcessConfig {
            mean_db: snr_db,
            ..Default::default()
        },
        ..UeConfig::new(rnti, 0, name, snr_db)
    }
}

/// Full-size cell (273 PRBs) at Sampled fidelity — the standard
/// configuration for the end-to-end figures.
pub fn figure_cell() -> CellConfig {
    CellConfig {
        num_prbs: 273,
        fidelity: Fidelity::Sampled,
        ..CellConfig::default()
    }
}

/// Fast cell for minute-long stress runs (Table 2).
pub fn stress_cell() -> CellConfig {
    CellConfig {
        num_prbs: 273,
        fidelity: Fidelity::Abstract,
        // The stress flow is UDP: a UDP/RTP-style bearer delivers
        // complete SDUs immediately (no in-order hold).
        rlc_ordered: false,
        ..CellConfig::default()
    }
}

/// What a bench or an experiment measured: scalar results and (x, y)
/// series. A bench binary writes it as `<name>.json` into
/// `$BENCH_JSON_DIR` ([`BenchReport::write`]); a registry experiment
/// returns it to the `figures` command, which judges and records it.
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    name: String,
    title: String,
    paper: String,
    labels: Vec<(String, String)>,
    scalars: Vec<(String, f64)>,
    series: Vec<(String, Vec<(f64, f64)>)>,
}

impl BenchReport {
    pub fn new(name: &str, title: &str, paper: &str) -> BenchReport {
        BenchReport {
            name: name.to_string(),
            title: title.to_string(),
            paper: paper.to_string(),
            labels: Vec::new(),
            scalars: Vec::new(),
            series: Vec::new(),
        }
    }

    /// Record a named string label (e.g. `backend: "avx2"`) — run
    /// configuration that downstream tooling needs to interpret the
    /// scalars, kept separate so numbers stay numbers.
    pub fn label(&mut self, key: &str, value: &str) {
        self.labels.push((key.to_string(), value.to_string()));
    }

    /// Record a named scalar result (e.g. `max_lost_ttis`).
    pub fn scalar(&mut self, key: &str, value: f64) {
        self.scalars.push((key.to_string(), value));
    }

    /// Record a scalar at the precision it is reported at. Every
    /// registry experiment goes through here, so `FIGURES.json` pins
    /// the reported digits and not the last ulp of a libm call.
    pub fn scalar_dp(&mut self, key: &str, value: f64, decimals: usize) {
        self.scalar(key, round_dp(value, decimals));
    }

    /// `scalar_dp` under the key `metric:variant` — one metric of one
    /// arm (a UE, a load level, a design) of an experiment.
    pub fn scalar_of(&mut self, metric: &str, variant: impl Display, value: f64, decimals: usize) {
        self.scalar_dp(&format!("{metric}:{variant}"), value, decimals);
    }

    /// Record a named (x, y) series (e.g. a latency time series).
    pub fn series(&mut self, key: &str, points: Vec<(f64, f64)>) {
        self.series.push((key.to_string(), points));
    }

    /// Record a series at its reported precision (see `scalar_dp`).
    pub fn series_dp(
        &mut self,
        key: &str,
        points: impl IntoIterator<Item = (f64, f64)>,
        (x_dp, y_dp): (usize, usize),
    ) {
        let rounded = points
            .into_iter()
            .map(|(x, y)| (round_dp(x, x_dp), round_dp(y, y_dp)));
        self.series(key, rounded.collect());
    }

    pub fn scalars(&self) -> &[(String, f64)] {
        &self.scalars
    }

    pub fn all_series(&self) -> &[(String, Vec<(f64, f64)>)] {
        &self.series
    }

    /// Serialize to a JSON string (insertion order preserved).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"name\":{}", json_str(&self.name)));
        out.push_str(&format!(",\"title\":{}", json_str(&self.title)));
        out.push_str(&format!(",\"paper\":{}", json_str(&self.paper)));
        out.push_str(",\"labels\":{");
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_str(k), json_str(v)));
        }
        out.push_str("},\"scalars\":{");
        for (i, (k, v)) in self.scalars.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_str(k), json_num(*v)));
        }
        out.push_str("},\"series\":{");
        for (i, (k, pts)) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:[", json_str(k)));
            for (j, (x, y)) in pts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{},{}]", json_num(*x), json_num(*y)));
            }
            out.push(']');
        }
        out.push_str("}}");
        out
    }

    /// Write `<name>.json` into `$BENCH_JSON_DIR` and return the path;
    /// no artifact when the variable is unset. Errors are reported,
    /// not fatal: a bench should not fail because the artifact
    /// directory is read-only.
    pub fn write(&self) -> Option<std::path::PathBuf> {
        let path = artifact_path(&format!("{}.json", self.name))?;
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => {
                println!("# wrote {}", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("# could not write {}: {e}", path.display());
                None
            }
        }
    }
}

/// Where a bench artifact named `file` goes: `$BENCH_JSON_DIR/<file>`,
/// or nowhere (one note on stderr) when the variable is unset.
pub fn artifact_path(file: &str) -> Option<std::path::PathBuf> {
    let dir = std::env::var_os("BENCH_JSON_DIR");
    if dir.is_none() {
        eprintln!("# BENCH_JSON_DIR unset: not writing {file}");
    }
    dir.map(|d| std::path::PathBuf::from(d).join(file))
}

/// `v` as the decimal `{v:.decimals$}` prints, read back.
pub fn round_dp(v: f64, decimals: usize) -> f64 {
    format!("{v:.decimals$}")
        .parse()
        .expect("a formatted f64 parses")
}

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub(crate) fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Print a bench header in a uniform style.
pub fn banner(title: &str, paper: &str) {
    println!("==============================================================");
    println!("{title}");
    println!("paper reference: {paper}");
    println!("==============================================================");
}

/// Hold `measured` to a floor file (one `<key> <floor>` pair per line,
/// `#` starting a comment): one message per key measured below 80 % of
/// its floor, and per key nothing measured — a floor that checks
/// nothing is a typo or a renamed kernel, and would pass CI for ever.
pub fn floor_failures(floors: &str, measured: &[(String, f64)]) -> Vec<String> {
    let judge = |(key, floor): (String, f64)| match measured.iter().find(|(k, _)| *k == key) {
        Some((_, got)) if *got >= 0.8 * floor => None,
        Some((_, got)) => Some(format!(
            "REGRESSION: {key} = {got:.0}, below 80% of its floor {floor:.0}"
        )),
        None => Some(format!("FLOOR CHECKS NOTHING: `{key}` is not measured")),
    };
    parse_floors(floors).into_iter().filter_map(judge).collect()
}

/// The pairs of a floor file; a malformed line panics.
fn parse_floors(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(|l| {
            let mut it = l.split_whitespace();
            let key = it.next().expect("baseline key").to_string();
            let v: f64 = it
                .next()
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("bad baseline line: {l:?}"));
            (key, v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floors_skip_comments_and_blank_lines() {
        let floors = parse_floors("# header\n\nc2_w1 650  # trailing\n   \nldpc@avx2 1.5e3\n");
        assert_eq!(
            floors,
            vec![
                ("c2_w1".to_string(), 650.0),
                ("ldpc@avx2".to_string(), 1500.0)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "bad baseline line")]
    fn floors_reject_a_bad_number() {
        parse_floors("c2_w1 fast\n");
    }

    #[test]
    fn a_floor_fails_below_80_percent_or_when_nothing_measures_it() {
        let measured = [("fast".to_string(), 81.0), ("slow".to_string(), 79.0)];
        assert_eq!(
            floor_failures("fast 100\nslow 100\nrenamed 100\n", &measured),
            [
                "REGRESSION: slow = 79, below 80% of its floor 100",
                "FLOOR CHECKS NOTHING: `renamed` is not measured"
            ]
        );
    }

    #[test]
    fn paper_ues_distinct() {
        let ues = paper_ues();
        assert_eq!(ues.len(), 3);
        let mut rntis: Vec<u16> = ues.iter().map(|u| u.rnti).collect();
        rntis.dedup();
        assert_eq!(rntis.len(), 3);
    }

    #[test]
    fn cells_use_full_bandwidth() {
        assert_eq!(figure_cell().num_prbs, 273);
        assert_eq!(stress_cell().fidelity, Fidelity::Abstract);
    }

    #[test]
    fn bench_report_json_shape() {
        let mut r = BenchReport::new("t", "A \"title\"", "ref");
        r.scalar("a", 1.5);
        r.scalar("bad", f64::NAN);
        r.series("s", vec![(0.0, 1.0), (1.0, 2.5)]);
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"name\":\"t\""));
        assert!(j.contains("A \\\"title\\\""));
        assert!(j.contains("\"a\":1.5"));
        assert!(j.contains("\"bad\":null"));
        assert!(j.contains("\"s\":[[0,1],[1,2.5]]"));
    }
}
