//! The paper contract. An [`Experiment`] is one table or figure of the
//! paper's evaluation: a body that measures (filling a
//! [`BenchReport`]) and the [`Expect`]ations its rows must meet — the
//! paper's value, the [`Band`] this reproduction claims, and a note
//! where the two knowingly differ. Everything the `figures` command
//! prints, records in `FIGURES.json` or writes into EXPERIMENTS.md is
//! rendered here from those rows, one line per row, so that a plain
//! line compare names the row that moved.

use crate::{json_num, json_str, BenchReport};
use std::fmt;

pub struct Experiment {
    pub id: &'static str,
    /// The figure or section, and what the paper reports for it.
    pub paper: &'static str,
    pub body: fn(&mut BenchReport),
    pub expect: &'static [Expect],
}

/// One checked row: a scalar (or, for [`Band::NonDecreasing`], a
/// series) the experiment emits, what the paper says about it and what
/// this reproduction claims.
pub struct Expect {
    pub row: &'static str,
    pub paper: &'static str,
    pub band: Band,
    /// Why the band is not the paper's value, where it is not.
    pub deviation: &'static str,
}

pub const fn row(row: &'static str, paper: &'static str, band: Band) -> Expect {
    Expect {
        row,
        paper,
        band,
        deviation: "",
    }
}

impl Expect {
    pub const fn deviation(mut self, note: &'static str) -> Expect {
        self.deviation = note;
        self
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Band {
    AtMost(f64),
    AtLeast(f64),
    /// `Within(center, pct)`: inside center ± pct %.
    Within(f64, f64),
    Equals(f64),
    /// The named series' y never falls as x grows.
    NonDecreasing,
}

impl Band {
    /// `values` is the row's one scalar, or its series' y in x order.
    /// A missing row is `[]` and a NaN compares false: both fail.
    pub fn holds(&self, values: &[f64]) -> bool {
        match (*self, values) {
            (Band::NonDecreasing, ys) => ys.len() >= 2 && ys.windows(2).all(|w| w[0] <= w[1]),
            (Band::AtMost(hi), [v]) => *v <= hi,
            (Band::AtLeast(lo), [v]) => *v >= lo,
            (Band::Within(center, pct), [v]) => (*v - center).abs() <= center.abs() * pct / 100.0,
            (Band::Equals(x), [v]) => *v == x,
            _ => false,
        }
    }
}

impl fmt::Display for Band {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Band::AtMost(hi) => write!(f, "≤ {hi}"),
            Band::AtLeast(lo) => write!(f, "≥ {lo}"),
            Band::Within(center, pct) => write!(f, "{center} ± {pct} %"),
            Band::Equals(x) => write!(f, "= {x}"),
            Band::NonDecreasing => write!(f, "non-decreasing"),
        }
    }
}

/// What a judged row is rendered as, in table and `FIGURES.json` order.
const COLUMNS: [&str; 6] = [
    "row",
    "paper",
    "claimed",
    "measured",
    "verdict",
    "deviation",
];

impl Experiment {
    pub fn run(&self) -> BenchReport {
        let mut report = BenchReport::new(self.id, self.paper, "");
        (self.body)(&mut report);
        report
    }

    /// One [`COLUMNS`] record per expectation, judged against `report`.
    pub fn rows(&self, report: &BenchReport) -> Vec<[String; 6]> {
        let judge = |e: &Expect| {
            let values: Vec<f64> = if e.band == Band::NonDecreasing {
                let series = report.all_series().iter().find(|(k, _)| k == e.row);
                series.map_or(Vec::new(), |(_, pts)| pts.iter().map(|p| p.1).collect())
            } else {
                let scalar = report.scalars().iter().find(|(k, _)| k == e.row);
                scalar.map_or(Vec::new(), |(_, v)| vec![*v])
            };
            // The scalar, or the series' y values in x order.
            let shown: Vec<String> = values.iter().map(|v| json_num(*v)).collect();
            let measured = if shown.is_empty() {
                "missing".into()
            } else {
                shown.join(" → ")
            };
            let verdict = if e.band.holds(&values) {
                "pass"
            } else {
                "FAIL"
            };
            let (band, note) = (e.band.to_string(), e.deviation.into());
            [
                e.row.into(),
                e.paper.into(),
                band,
                measured,
                verdict.into(),
                note,
            ]
        };
        self.expect.iter().map(judge).collect()
    }

    /// One message per row outside its band.
    pub fn failures(&self, report: &BenchReport) -> Vec<String> {
        let failed = self.rows(report).into_iter().filter(|r| r[4] == "FAIL");
        let message = |[row, _, claimed, measured, ..]: [String; 6]| {
            format!(
                "{}: {row} = {measured} is outside its band ({claimed})",
                self.id
            )
        };
        failed.map(message).collect()
    }

    /// The paper-vs-measured table, as markdown.
    pub fn table(&self, report: &BenchReport) -> String {
        let line = |cells: &[String]| format!("| {} |\n", cells.join(" | "));
        let rows: String = self.rows(report).iter().map(|r| line(r)).collect();
        let head = line(&COLUMNS.map(String::from)) + &line(&COLUMNS.map(|_| "---".into()));
        format!("### `{}`\n\n{}\n\n{head}{rows}", self.id, self.paper)
    }

    /// This experiment's member of `FIGURES.json`.
    pub fn json(&self, report: &BenchReport) -> String {
        let scalars = report.scalars().iter();
        let scalars = scalars.map(|(k, v)| format!("  {}: {}", json_str(k), json_num(*v)));
        let rows = self.rows(report).into_iter().map(|r| {
            let pairs = COLUMNS.iter().zip(&r);
            let pairs: Vec<String> = pairs
                .map(|(k, v)| format!("\"{k}\": {}", json_str(v)))
                .collect();
            format!("  {{{}}}", pairs.join(", "))
        });
        let series = report.all_series().iter().map(|(k, pts)| {
            let hash = fnv64(series_tsv(pts).as_bytes());
            format!(
                "  {}: {{\"len\": {}, \"fnv64\": \"{hash:016x}\"}}",
                json_str(k),
                pts.len()
            )
        });
        format!(
            "{}: {{\n \"paper\": {},\n{},\n{},\n{}\n}}",
            json_str(self.id),
            json_str(self.paper),
            member(" \"scalars\": {", scalars.collect(), " }"),
            member(" \"rows\": [", rows.collect(), " ]"),
            member(" \"series\": {", series.collect(), " }"),
        )
    }
}

fn member(open: &str, lines: Vec<String>, close: &str) -> String {
    format!("{open}\n{}\n{close}", lines.join(",\n"))
}

/// A series as the TSV `figures` leaves under `target/figures/`; the
/// `fnv64` in `FIGURES.json` is over exactly these bytes.
pub fn series_tsv(points: &[(f64, f64)]) -> String {
    let lines = points.iter().map(|(x, y)| format!("{x}\t{y}\n"));
    lines.collect()
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// `FIGURES.json` for a set of judged experiments.
pub fn figures_json(results: &[(&Experiment, BenchReport)]) -> String {
    let members: Vec<String> = results.iter().map(|(e, r)| e.json(r)).collect();
    format!("{{\n{}\n}}\n", members.join(",\n"))
}

pub const BLOCK_BEGIN: &str =
    "<!-- figures:begin (generated by `figures --bless`; do not edit) -->";
pub const BLOCK_END: &str = "<!-- figures:end -->";

/// `doc` with everything between the two markers replaced by the
/// tables of `results`; `None` when a marker is missing.
pub fn splice_tables(doc: &str, results: &[(&Experiment, BenchReport)]) -> Option<String> {
    let (head, rest) = doc.split_once(BLOCK_BEGIN)?;
    let (_, tail) = rest.split_once(BLOCK_END)?;
    let tables: Vec<String> = results.iter().map(|(e, r)| e.table(r)).collect();
    Some(format!(
        "{head}{BLOCK_BEGIN}\n\n{}\n{BLOCK_END}{tail}",
        tables.join("\n")
    ))
}

/// The first line that differs, with the line that opens the section
/// it sits in (`is_header`), so the message names the experiment.
pub fn first_difference(old: &str, new: &str, is_header: fn(&str) -> bool) -> Option<String> {
    let (old, new): (Vec<&str>, Vec<&str>) = (old.lines().collect(), new.lines().collect());
    let at = (0..old.len().max(new.len())).find(|&i| old.get(i) != new.get(i))?;
    let before = old[..at.min(old.len())].iter().rev();
    Some(format!(
        "in {}\n  committed:   {}\n  regenerated: {}",
        before
            .copied()
            .find(|l| is_header(l))
            .unwrap_or("the preamble"),
        old.get(at).unwrap_or(&"<end of file>"),
        new.get(at).unwrap_or(&"<end of file>")
    ))
}

#[cfg(test)]
mod tests {
    use super::Band::*;
    use super::*;
    use crate::experiments::REGISTRY;

    const COMMITTED: &str = include_str!("../../../FIGURES.json");

    /// The committed member of experiment `id`: its `"id": {` line
    /// through its closing brace.
    fn committed_member(id: &str) -> &'static str {
        let start = COMMITTED.find(&format!("\n\"{id}\": {{\n"));
        let start = start.unwrap_or_else(|| panic!("{id} is not in FIGURES.json")) + 1;
        let len = COMMITTED[start..].find("\n}").expect("a closing brace") + 2;
        &COMMITTED[start..start + len]
    }

    /// The name each line of `member`'s `block` (`scalars`, `rows` or
    /// `series`) opens with.
    fn names<'a>(member: &'a str, block: &str) -> Vec<&'a str> {
        let lines = member
            .lines()
            .skip_while(|l| !l.starts_with(&format!(" \"{block}\": ")));
        let lines = lines.skip(1).take_while(|l| l.starts_with("  "));
        lines
            .map(|l| {
                let l = l.trim_start().trim_start_matches("{\"row\": ");
                l[1..].split('"').next().expect("a quoted name")
            })
            .collect()
    }

    #[test]
    fn registry_ids_are_unique_and_committed_in_order() {
        let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len(), "duplicate experiment id");
        let committed = COMMITTED.lines().filter(|l| l.starts_with('"'));
        let committed: Vec<&str> = committed
            .map(|l| l[1..].split('"').next().unwrap())
            .collect();
        assert_eq!(
            committed, ids,
            "FIGURES.json lists other experiments than the registry"
        );
    }

    #[test]
    fn every_expectation_names_a_row_its_entry_emits_and_is_committed() {
        for e in &REGISTRY {
            let member = committed_member(e.id);
            let expected: Vec<&str> = e.expect.iter().map(|x| x.row).collect();
            assert_eq!(names(member, "rows"), expected, "{}: committed rows", e.id);
            assert!(!e.expect.is_empty(), "{} checks nothing", e.id);
            for x in e.expect {
                let block = if x.band == NonDecreasing {
                    "series"
                } else {
                    "scalars"
                };
                let emitted = names(member, block);
                assert!(
                    emitted.contains(&x.row),
                    "{}: no {block} row `{}`",
                    e.id,
                    x.row
                );
            }
        }
    }

    #[test]
    fn engine_free_entries_reproduce_their_committed_rows() {
        for id in [
            "fig3_vm_migration",
            "fig12_orion_latency",
            "ablation_transport",
        ] {
            let e = REGISTRY.iter().find(|e| e.id == id).expect("a registry id");
            let regenerated = e.json(&e.run());
            let moved = first_difference(committed_member(id), &regenerated, |_| false);
            assert_eq!(moved, None, "{id} moved; `figures --bless` if intended");
        }
    }

    /// One band of each kind with values inside (edges included) and
    /// outside it on both sides, so an inverted comparison fails here.
    #[test]
    fn every_band_kind_passes_inside_and_fails_outside() {
        type Values = &'static [&'static [f64]];
        let table: [(Band, Values, Values); 5] = [
            (AtMost(3.0), &[&[3.0], &[-1.0]], &[&[3.5]]),
            (AtLeast(1.0), &[&[1.0], &[7.0]], &[&[0.5]]),
            (
                Within(6.2, 5.0),
                &[&[5.9], &[6.2], &[6.5]],
                &[&[5.8], &[6.6]],
            ),
            (Equals(0.0), &[&[0.0]], &[&[-1.0], &[1.0]]),
            (
                NonDecreasing,
                &[&[1.0, 1.0, 2.0]],
                &[&[1.0, 2.0, 1.5], &[2.0, 1.0], &[1.0]],
            ),
        ];
        for (band, inside, outside) in table {
            for values in inside {
                assert!(band.holds(values), "{band} must hold for {values:?}");
            }
            for values in outside {
                assert!(!band.holds(values), "{band} must not hold for {values:?}");
            }
            assert!(!band.holds(&[f64::NAN]), "{band} must not hold for NaN");
            assert!(!band.holds(&[]), "{band} must not hold for a missing row");
        }
    }

    fn probe(r: &mut BenchReport) {
        r.scalar("dropped_ttis", 4.0);
        r.scalar("detect_us", 446.4);
        r.scalar("unmeasured", f64::NAN);
        r.series("loss_by_rate", vec![(1.0, 0.3), (10.0, 0.2)]);
    }

    #[test]
    fn a_failing_row_is_reported_with_id_row_value_and_band() {
        const PROBE: Experiment = Experiment {
            id: "probe",
            paper: "",
            body: probe,
            expect: &[
                row("dropped_ttis", "≤ 3", AtMost(3.0)),
                row("detect_us", "≤ 459", AtMost(459.0)),
                row("unmeasured", "", AtLeast(0.0)),
                row("loss_by_rate", "", NonDecreasing),
                row("never_emitted", "", Equals(0.0)),
            ],
        };
        let (e, report) = (PROBE, PROBE.run());
        assert_eq!(
            e.failures(&report),
            [
                "probe: dropped_ttis = 4 is outside its band (≤ 3)",
                "probe: unmeasured = null is outside its band (≥ 0)",
                "probe: loss_by_rate = 0.3 → 0.2 is outside its band (non-decreasing)",
                "probe: never_emitted = missing is outside its band (= 0)",
            ]
        );
        assert!(e
            .table(&report)
            .contains("| dropped_ttis | ≤ 3 | ≤ 3 | 4 | FAIL |"));
        assert!(e
            .json(&report)
            .contains("\"measured\": \"446.4\", \"verdict\": \"pass\""));
    }

    #[test]
    fn a_changed_line_is_named_with_its_section() {
        let old = "\"a\": {\n  \"x\": 1\n}\n\"b\": {\n  \"y\": 2\n}\n";
        let new = old.replace("\"y\": 2", "\"y\": 3");
        let moved = first_difference(old, &new, |l| l.starts_with('"')).expect("a difference");
        assert!(
            moved.contains("in \"b\": {")
                && moved.contains("\"y\": 2")
                && moved.contains("\"y\": 3")
        );
        assert_eq!(first_difference(old, old, |_| true), None);
    }
}
