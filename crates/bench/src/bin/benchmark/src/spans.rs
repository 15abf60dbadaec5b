//! The benchmark's own spans: one record around each call it makes
//! into the program (build, warm-up, run, publish_metrics, slo::analyze,
//! oracle::check, every probe). Kept in memory, written out as Chrome
//! `trace_event` JSON when the run ends. Disabled recorders read no
//! clock, so timed repetitions pay nothing for them.

use std::cell::RefCell;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

struct State {
    epoch: Instant,
    records: Vec<SpanRecord>,
    open: Vec<usize>,
}

pub struct Spans {
    workload: &'static str,
    state: Option<RefCell<State>>,
}

impl Spans {
    pub fn disabled() -> Spans {
        Spans {
            workload: "",
            state: None,
        }
    }

    pub fn enabled(workload: &'static str) -> Spans {
        Spans {
            workload,
            state: Some(RefCell::new(State {
                epoch: Instant::now(),
                records: Vec::new(),
                open: Vec::new(),
            })),
        }
    }

    /// Open a span; it closes when the guard drops.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        let Some(state) = &self.state else {
            return SpanGuard {
                spans: None,
                idx: 0,
            };
        };
        let mut st = state.borrow_mut();
        let idx = st.records.len();
        let start_ns = st.epoch.elapsed().as_nanos() as u64;
        let parent = st.open.last().copied();
        st.records.push(SpanRecord {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        st.open.push(idx);
        SpanGuard {
            spans: Some(self),
            idx,
        }
    }

    pub fn records(&self) -> Vec<SpanRecord> {
        self.state
            .as_ref()
            .map_or_else(Vec::new, |s| s.borrow().records.clone())
    }

    /// Chrome `trace_event` objects, one per span, each carrying its id,
    /// its parent's id and the workload.
    pub fn chrome_events(&self) -> Vec<Json> {
        self.records()
            .iter()
            .enumerate()
            .map(|(i, r)| {
                Json::obj([
                    ("name", Json::str(r.name)),
                    ("cat", Json::str("benchmark")),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(r.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((r.end_ns - r.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(0.0)),
                    ("tid", Json::Num(0.0)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(i as f64)),
                            (
                                "parent",
                                r.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("workload", Json::str(self.workload)),
                        ]),
                    ),
                ])
            })
            .collect()
    }
}

pub struct SpanGuard<'a> {
    spans: Option<&'a Spans>,
    idx: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(state) = self.spans.and_then(|s| s.state.as_ref()) else {
            return;
        };
        let mut st = state.borrow_mut();
        let end = st.epoch.elapsed().as_nanos() as u64;
        st.records[self.idx].end_ns = end;
        // Guards drop in LIFO order, so this is the innermost open span.
        st.open.retain(|&i| i != self.idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let s = Spans::disabled();
        drop(s.enter("build"));
        assert!(s.records().is_empty());
        assert!(s.chrome_events().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_ordered_times() {
        let s = Spans::enabled("full_ul");
        {
            let _rep = s.enter("rep");
            drop(s.enter("build"));
            drop(s.enter("run"));
        }
        drop(s.enter("probe"));
        let r = s.records();
        let names: Vec<_> = r.iter().map(|x| x.name).collect();
        assert_eq!(names, ["rep", "build", "run", "probe"]);
        assert_eq!(r[0].parent, None);
        assert_eq!(r[1].parent, Some(0));
        assert_eq!(r[2].parent, Some(0));
        assert_eq!(r[3].parent, None);
        assert!(r[0].end_ns >= r[2].end_ns && r[2].start_ns >= r[1].end_ns);
        let ev = s.chrome_events();
        let args = ev[1].get("args").expect("args");
        assert_eq!(args.get("parent"), Some(&Json::Num(0.0)));
        assert_eq!(args.get("workload"), Some(&Json::str("full_ul")));
        assert_eq!(
            ev[0].get("args").and_then(|a| a.get("parent")),
            Some(&Json::Null)
        );
    }
}
