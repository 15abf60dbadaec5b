//! One workload in one process: repetitions inside a time budget, the
//! correctness gate, and (traced mode) the layer table.

use std::time::{Duration, Instant};

use slingshot_sim::SpanProfiler;

use crate::json::Json;
use crate::layers::{self, Row};
use crate::metrics::{Claim, Clock, EndToEnd, END_TO_END};
use crate::probes::{self, Shape};
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{analyze, generate, run_rep, switches, Inputs, Scale, SimResults, Workload};

/// What one process measured.
pub struct RunReport {
    pub workload: Workload,
    pub seed: u64,
    pub inputs: String,
    /// Host-clock samples, one per untraced repetition.
    pub setup_s: Vec<f64>,
    pub cell_slots_per_s: Vec<f64>,
    /// Empty on the unsharded engine path, which has no lanes.
    pub lane_slot_us: Vec<f64>,
    pub peak_rss_mb: f64,
    pub sim: SimResults,
    /// The paper claims measured on this workload.
    pub claims: Vec<(&'static Claim, f64)>,
    pub hashes: (u64, u64),
    /// Timed cell-slots simulated and checked, and those in
    /// repetitions the gate rejected.
    pub attempted: u64,
    pub failed: u64,
    /// Why the gate failed, if it did.
    pub failures: Vec<String>,
    /// Traced mode only.
    pub layers: Option<Vec<Row>>,
    pub span_events: Vec<Json>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Medians of the end-to-end metrics, in catalogue order.
    pub fn end_to_end(&self) -> Vec<(&'static EndToEnd, f64)> {
        END_TO_END
            .iter()
            .map(|m| {
                let med = |v: &[f64]| median(v).unwrap_or(0.0);
                let value = match m.name {
                    "setup_s" => med(&self.setup_s),
                    "cell_slots_per_s" => med(&self.cell_slots_per_s),
                    "peak_rss_mb" => self.peak_rss_mb,
                    "goodput_mbps" => self.sim.goodput_mbps,
                    "tb_success_ratio" => self.sim.tb_success_ratio(),
                    other => panic!("end-to-end metric {other} has no source"),
                };
                (m, value)
            })
            .collect()
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metric = |value: f64, unit: &str| {
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
        };
        let metrics: Vec<(String, Json)> = match &self.layers {
            Some(rows) => rows
                .iter()
                .map(|r| (r.name.to_string(), metric(r.value, r.unit)))
                .collect(),
            None => self
                .end_to_end()
                .into_iter()
                .map(|(m, value)| (m.name.to_string(), metric(value, m.unit)))
                .collect(),
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .compact()
    }

    /// Everything, for the all-workloads runner to merge.
    pub fn detail(&self) -> Json {
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
        let s = &self.sim;
        let sim: Vec<(&str, f64)> = vec![
            ("goodput_mbps", s.goodput_mbps),
            ("tb_success_ratio", s.tb_success_ratio()),
            ("tbs_attempted", s.tbs_attempted as f64),
            ("tbs_failed", s.tbs_failed as f64),
            ("ul_ttis_expected", s.ul_ttis_expected as f64),
            ("ul_ttis_dropped", s.ul_ttis_dropped as f64),
            ("detections", s.detections as f64),
            ("trace_events", s.trace_events as f64),
        ];
        Json::obj([
            ("workload", Json::str(self.workload.name())),
            ("seed", Json::Num(self.seed as f64)),
            ("inputs", Json::str(&self.inputs)),
            ("correct", Json::Bool(self.correct())),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "hashes",
                Json::Arr(vec![
                    Json::str(format!("{:016x}", self.hashes.0)),
                    Json::str(format!("{:016x}", self.hashes.1)),
                ]),
            ),
            (
                "host",
                Json::obj([
                    ("setup_s", nums(&self.setup_s)),
                    ("cell_slots_per_s", nums(&self.cell_slots_per_s)),
                    ("lane_slot_us", nums(&self.lane_slot_us)),
                    ("peak_rss_mb", nums(&[self.peak_rss_mb])),
                ]),
            ),
            (
                "sim",
                Json::obj(sim.into_iter().map(|(k, v)| (k, Json::Num(v)))),
            ),
            // Simulated-clock claims only: this block must repeat exactly
            // from round to round (a host-clock claim's samples are above).
            (
                "claims",
                Json::obj(
                    self.claims
                        .iter()
                        .filter(|(c, _)| c.clock == Clock::Sim)
                        .map(|(c, v)| (c.name, Json::Num(*v))),
                ),
            ),
            (
                "layers",
                self.layers.as_deref().map_or(Json::Null, layers::to_json),
            ),
        ])
    }
}

/// Peak resident set of this process so far, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The paper's hard limits and the benchmark's own invariants on one
/// repetition's simulated results.
fn check_sim(inputs: &Inputs, sim: &SimResults, failures: &mut Vec<String>) {
    if sim.trace_truncated {
        failures.push("trace ring truncated: analysis saw a clipped window".into());
    }
    if sim.tbs_attempted == 0 || sim.ul_ttis_expected == 0 {
        failures.push("no operations attempted".into());
    }
    for (c, value) in layers::claims_for(inputs, sim, 0.0) {
        if c.hard_max.is_some_and(|limit| value > limit) {
            failures.push(format!(
                "{} = {value} {} is over its hard limit",
                c.name, c.unit
            ));
        }
    }
}

/// Run one workload for about `seconds` of host time.
pub fn run(w: Workload, seed: u64, seconds: f64, traced: bool, scale: Scale) -> RunReport {
    let started = Instant::now();
    let inputs = generate(w, seed, scale);
    let cell_slots = inputs.timed_cell_slots();
    let mut report = RunReport {
        workload: w,
        seed,
        inputs: inputs.describe(),
        setup_s: Vec::new(),
        cell_slots_per_s: Vec::new(),
        lane_slot_us: Vec::new(),
        peak_rss_mb: 0.0,
        sim: SimResults::default(),
        claims: Vec::new(),
        hashes: (0, 0),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        layers: None,
        span_events: Vec::new(),
    };
    let mut reference: Option<((u64, u64), SimResults)> = None;
    // One repetition, folded into the gate; an untraced one at the
    // workload's own worker count also yields host-clock samples.
    let mut rep =
        |report: &mut RunReport, workers: usize, profiler: SpanProfiler, spans: &Spans| {
            let timed = !profiler.is_enabled() && workers == inputs.workers;
            let mut out = run_rep(&inputs, workers, profiler, spans);
            let a = analyze(&inputs, &mut out, spans);
            let known = report.failures.len();
            match &reference {
                None => {
                    check_sim(&inputs, &a.sim, &mut report.failures);
                    reference = Some((out.hashes, a.sim.clone()));
                }
                Some((hashes, sim)) => {
                    let what = if timed {
                        "a repetition"
                    } else if workers != inputs.workers {
                        "workers 1"
                    } else {
                        "the traced repetition"
                    };
                    if *hashes != out.hashes {
                        report.failures.push(format!(
                            "{what}: trace hash differs from the first repetition"
                        ));
                    } else if *sim != a.sim {
                        report.failures.push(format!(
                            "{what}: simulated results differ from the first repetition"
                        ));
                    }
                }
            }
            report.attempted += cell_slots;
            if report.failures.len() > known {
                report.failed += cell_slots;
            }
            // What one run of the workload needs: read after the first
            // repetition (build, warm-up, timed window, analysis). Later
            // repetitions add what the allocator happened to keep, which
            // on these 12 to 50 MB footprints was a 4 MB coin toss
            // (14.7 or 18.4 MB on `handover` for one seed and binary).
            if report.peak_rss_mb == 0.0 {
                report.peak_rss_mb = peak_rss_mb();
            }
            if timed {
                report.setup_s.push(out.setup_s);
                report.cell_slots_per_s.push(cell_slots as f64 / out.wall_s);
                if a.lane_slot_us > 0.0 {
                    report.lane_slot_us.push(a.lane_slot_us);
                }
            }
            (out, a)
        };
    let off = SpanProfiler::disabled;

    if !traced {
        // As many repetitions as fit; the last one's cost predicts the next.
        loop {
            let t = Instant::now();
            rep(&mut report, inputs.workers, off(), &Spans::disabled());
            let rep_s = t.elapsed().as_secs_f64();
            if started.elapsed().as_secs_f64() + rep_s > seconds {
                break;
            }
        }
    } else {
        let timed_wall_s = rep(&mut report, inputs.workers, off(), &Spans::disabled())
            .0
            .wall_s;
        let speedup_w2 = (inputs.workers == 2)
            .then(|| rep(&mut report, 1, off(), &Spans::disabled()).0.wall_s / timed_wall_s);

        let spans = Spans::enabled(w.name());
        let profiler = SpanProfiler::enabled();
        let (out, a) = rep(&mut report, inputs.workers, profiler.clone(), &spans);

        let shape = Shape::of(&inputs);
        let left = seconds - started.elapsed().as_secs_f64();
        let budget = Duration::from_secs_f64(match scale {
            Scale::Full => (left - 0.5).clamp(0.3, 3.0),
            Scale::Check => 0.06,
        });
        let probed = probes::run(&shape, budget, &spans);
        let profile = profiler.report();
        report.layers = Some(layers::table(&layers::Sources {
            inputs: &inputs,
            shape: &shape,
            probes: &probed,
            traced: &a,
            trace: out.d.engine.event_trace(),
            switches: switches(&out.d).len(),
            profile: profile.as_ref(),
            captures: &out.captures,
            build_ms: out.build_s * 1e3,
            oracle_check_ms: out.oracle_check_s * 1e3,
            timed_wall_s,
            traced_wall_s: out.wall_s,
            speedup_w2,
        }));
        report.span_events = spans.chrome_events();
        report.span_events.extend(profiler_events(&profiler));
    }

    let (hashes, sim) = reference.expect("at least one repetition ran");
    report.hashes = hashes;
    let lane_slot_us = median(&report.lane_slot_us).unwrap_or(0.0);
    report.claims = layers::claims_for(&inputs, &sim, lane_slot_us);
    report.sim = sim;
    report
}

/// Whatever raw spans survived the profiler's buffer cap, as Chrome
/// events (pid 1, so they sit under the benchmark's own pid-0 spans).
fn profiler_events(profiler: &SpanProfiler) -> Vec<Json> {
    let mut buf = Vec::new();
    if profiler.write_chrome_trace(&mut buf).is_err() {
        return Vec::new();
    }
    String::from_utf8(buf)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|v| {
            v.get("traceEvents")
                .and_then(Json::as_arr)
                .map(<[Json]>::to_vec)
        })
        .unwrap_or_default()
}
