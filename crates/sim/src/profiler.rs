//! Side-channel wall-clock profiler for the slot pipeline.
//!
//! The deterministic trace ([`crate::trace`]) records *simulated* time
//! and must stay byte-identical across worker counts and host machines.
//! Wall-clock measurements — how long a slot's prepare, DSP and merge
//! actually took on this host — therefore live here, in a profiler
//! buffer that is never hashed and never feeds back into the
//! simulation.
//!
//! The profiler is **disabled by default** and zero-cost when disabled:
//! [`SpanProfiler::span`] returns an inert guard without reading the
//! clock. A deployment opts in with [`Engine::set_profiler`](crate::Engine::set_profiler) before the run; the handle is
//! a cheap `Arc` clone, so the nodes of lanes running on different
//! threads record spans into one buffer.
//!
//! What it collects:
//! - per-stage wall-clock histograms (`slot_prepare`, `slot_merge`,
//!   `dl_encode`, `ul_decode`, `ldpc_decode`, `channel`, `ue_encode`,
//!   `ue_decode`)
//! - per-TTI totals against a configurable deadline budget, with a
//!   deadline-miss counter (the vRAN "did the slot fit in 500 µs on
//!   this host" question)
//! - a bounded buffer of raw spans exportable as Chrome `trace_event`
//!   JSON for flame-chart inspection
//!
//! [`SpanProfiler::publish`] copies the summary into a
//! [`MetricsRegistry`] on demand; nothing is published implicitly, so
//! default-configured runs keep registry output independent of wall
//! time and worker count.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::metrics::{LogHistogram, MetricsRegistry};

/// Stage label of the whole-slot span recorded by [`SpanProfiler::complete_slot`].
pub(crate) const SLOT_STAGE: &str = "slot_total";

/// Cap on buffered raw spans; beyond it spans still feed the stage
/// histograms but are not kept individually (counted as dropped).
pub(crate) const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// One recorded wall-clock span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Pipeline stage label (static so recording never allocates).
    pub stage: &'static str,
    /// Absolute slot the work belonged to (0 when not slot-scoped).
    pub slot: u64,
    /// Wall-clock start, nanoseconds since the profiler was created.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
}

#[derive(Debug, Default)]
struct ProfilerState {
    spans: Vec<SpanRecord>,
    spans_dropped: u64,
    stages: BTreeMap<&'static str, LogHistogram>,
    slot_ns: LogHistogram,
    slots: u64,
    deadline_misses: u64,
}

#[derive(Debug)]
struct ProfilerInner {
    epoch: Instant,
    /// Per-TTI wall-clock budget in ns; 0 disables deadline accounting.
    deadline_ns: u64,
    span_capacity: usize,
    state: Mutex<ProfilerState>,
}

impl ProfilerInner {
    fn record(&self, stage: &'static str, slot: u64, start_ns: u64, dur_ns: u64) {
        let mut st = self.state.lock().expect("profiler poisoned");
        if st.spans.len() < self.span_capacity {
            st.spans.push(SpanRecord {
                stage,
                slot,
                start_ns,
                dur_ns,
            });
        } else {
            st.spans_dropped += 1;
        }
        st.stages.entry(stage).or_default().record(dur_ns);
    }
}

/// Cloneable handle to the (optional) profiler. `Send + Sync`: clones
/// may be moved into worker-pool jobs.
#[derive(Debug, Clone, Default)]
pub struct SpanProfiler {
    inner: Option<Arc<ProfilerInner>>,
}

impl SpanProfiler {
    /// The inert profiler: every operation is a no-op and no clock is
    /// read. This is what an engine carries unless a harness opts in.
    pub fn disabled() -> SpanProfiler {
        SpanProfiler { inner: None }
    }

    /// An active profiler with no deadline budget.
    pub fn enabled() -> SpanProfiler {
        SpanProfiler::with_deadline_ns(0)
    }

    /// An active profiler that checks each completed slot against a
    /// wall-clock budget of `deadline_ns` (0 = no budget; a real-time
    /// PHY would use the 500 000 ns slot duration).
    pub fn with_deadline_ns(deadline_ns: u64) -> SpanProfiler {
        SpanProfiler {
            inner: Some(Arc::new(ProfilerInner {
                epoch: Instant::now(),
                deadline_ns,
                span_capacity: DEFAULT_SPAN_CAPACITY,
                state: Mutex::new(ProfilerState::default()),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Start timing a pipeline stage; the span is recorded when the
    /// returned guard drops. Inert (no clock read) when disabled.
    pub fn span(&self, stage: &'static str, slot: u64) -> SpanGuard {
        SpanGuard {
            inner: self.inner.as_ref().map(|i| SpanGuardInner {
                profiler: Arc::clone(i),
                stage,
                slot,
                start: Instant::now(),
            }),
        }
    }

    /// Record an externally measured span (e.g. a sub-stage duration
    /// returned by a DSP kernel that was timed inside a worker job).
    pub fn record_span_ns(&self, stage: &'static str, slot: u64, dur_ns: u64) {
        if let Some(inner) = &self.inner {
            let start_ns = inner
                .epoch
                .elapsed()
                .as_nanos()
                .saturating_sub(dur_ns as u128) as u64;
            inner.record(stage, slot, start_ns, dur_ns);
        }
    }

    /// Account one completed TTI: records the whole-slot span, feeds the
    /// slot-time histogram, and checks the deadline budget.
    pub fn complete_slot(&self, slot: u64, elapsed_ns: u64) {
        if let Some(inner) = &self.inner {
            let start_ns = inner
                .epoch
                .elapsed()
                .as_nanos()
                .saturating_sub(elapsed_ns as u128) as u64;
            {
                let mut st = inner.state.lock().expect("profiler poisoned");
                st.slot_ns.record(elapsed_ns);
                st.slots += 1;
                if inner.deadline_ns > 0 && elapsed_ns > inner.deadline_ns {
                    st.deadline_misses += 1;
                }
            }
            inner.record(SLOT_STAGE, slot, start_ns, elapsed_ns);
        }
    }

    /// Snapshot the collected data; `None` when disabled or when no
    /// slot ever completed and no span was recorded.
    pub fn report(&self) -> Option<ProfilerReport> {
        let inner = self.inner.as_ref()?;
        let st = inner.state.lock().expect("profiler poisoned");
        if st.slots == 0 && st.stages.is_empty() {
            return None;
        }
        let stages = st
            .stages
            .iter()
            .map(|(stage, h)| StageProfile {
                stage: (*stage).to_string(),
                count: h.count(),
                min_ns: h.min().unwrap_or(0),
                mean_ns: h.mean().unwrap_or(0.0),
                p50_ns: h.p50().unwrap_or(0),
                p99_ns: h.p99().unwrap_or(0),
                max_ns: h.max().unwrap_or(0),
            })
            .collect();
        Some(ProfilerReport {
            slots: st.slots,
            deadline_ns: inner.deadline_ns,
            deadline_misses: st.deadline_misses,
            slot_p50_ns: st.slot_ns.p50().unwrap_or(0),
            slot_p99_ns: st.slot_ns.p99().unwrap_or(0),
            slot_max_ns: st.slot_ns.max().unwrap_or(0),
            stages,
            spans_kept: st.spans.len(),
            spans_dropped: st.spans_dropped,
        })
    }

    /// Copy the summary into a metrics registry under the `profiler`
    /// scope. Explicit and on-demand: harnesses that want wall-clock
    /// data in their metrics dump call this after the run; nothing in
    /// the engine does, so registry contents of default runs stay
    /// machine-independent.
    pub fn publish(&self, registry: &mut MetricsRegistry) {
        let Some(inner) = &self.inner else { return };
        let st = inner.state.lock().expect("profiler poisoned");
        registry.set_counter("profiler", "slots", st.slots);
        registry.set_counter("profiler", "deadline_misses", st.deadline_misses);
        registry.set_counter("profiler", "spans_dropped", st.spans_dropped);
        if inner.deadline_ns > 0 {
            registry.set_gauge("profiler", "deadline_ns", inner.deadline_ns as i64);
        }
        *registry.histogram_mut("profiler", "slot_ns") = st.slot_ns.clone();
        for (stage, h) in &st.stages {
            *registry.histogram_mut("profiler", &format!("{stage}_ns")) = h.clone();
        }
    }

    /// Emit buffered spans as Chrome `trace_event` JSON ("X" complete
    /// events, one thread row per stage) — load in `chrome://tracing`
    /// or Perfetto next to the simulated-time trace.
    pub fn write_chrome_trace<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let Some(inner) = &self.inner else {
            return write!(w, "{{\"traceEvents\":[]}}");
        };
        let st = inner.state.lock().expect("profiler poisoned");
        let mut tids: BTreeMap<&'static str, usize> = BTreeMap::new();
        for s in &st.spans {
            let next = tids.len() + 1;
            tids.entry(s.stage).or_insert(next);
        }
        writeln!(w, "{{\"traceEvents\":[")?;
        for (i, s) in st.spans.iter().enumerate() {
            let comma = if i + 1 == st.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"cat\":\"profiler\",\"ph\":\"X\",\"ts\":{:.3},\
                 \"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"slot\":{}}}}}{comma}",
                s.stage,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                tids[s.stage],
                s.slot,
            )?;
        }
        writeln!(w, "]}}")
    }
}

struct SpanGuardInner {
    profiler: Arc<ProfilerInner>,
    stage: &'static str,
    slot: u64,
    start: Instant,
}

/// RAII guard returned by [`SpanProfiler::span`]; records on drop.
pub struct SpanGuard {
    inner: Option<SpanGuardInner>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(g) = self.inner.take() {
            let dur_ns = g.start.elapsed().as_nanos() as u64;
            let start_ns = g.start.duration_since(g.profiler.epoch).as_nanos() as u64;
            g.profiler.record(g.stage, g.slot, start_ns, dur_ns);
        }
    }
}

/// Fixed-size wall-clock summary of one pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageProfile {
    pub stage: String,
    pub count: u64,
    pub min_ns: u64,
    pub mean_ns: f64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
}

/// Snapshot of everything the profiler collected.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilerReport {
    /// TTIs accounted via [`SpanProfiler::complete_slot`].
    pub slots: u64,
    /// Configured budget (0 = none).
    pub deadline_ns: u64,
    /// Slots whose wall-clock total exceeded the budget.
    pub deadline_misses: u64,
    pub slot_p50_ns: u64,
    pub slot_p99_ns: u64,
    pub slot_max_ns: u64,
    /// Per-stage summaries, sorted by stage name.
    pub stages: Vec<StageProfile>,
    pub spans_kept: usize,
    pub spans_dropped: u64,
}

impl ProfilerReport {
    /// Human-readable per-stage deadline profile.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "slot-deadline profile: {} slots, p50 {:.1} us, p99 {:.1} us, max {:.1} us",
            self.slots,
            self.slot_p50_ns as f64 / 1e3,
            self.slot_p99_ns as f64 / 1e3,
            self.slot_max_ns as f64 / 1e3,
        );
        if self.deadline_ns > 0 {
            let _ = writeln!(
                out,
                "  budget {:.1} us: {} deadline misses ({:.4}% of slots)",
                self.deadline_ns as f64 / 1e3,
                self.deadline_misses,
                if self.slots > 0 {
                    100.0 * self.deadline_misses as f64 / self.slots as f64
                } else {
                    0.0
                },
            );
        }
        for s in &self.stages {
            let _ = writeln!(
                out,
                "  {:<14} n={:<8} p50={:>9.1}us p99={:>9.1}us max={:>9.1}us mean={:>9.1}us",
                s.stage,
                s.count,
                s.p50_ns as f64 / 1e3,
                s.p99_ns as f64 / 1e3,
                s.max_ns as f64 / 1e3,
                s.mean_ns / 1e3,
            );
        }
        if self.spans_dropped > 0 {
            let _ = writeln!(
                out,
                "  ({} spans kept, {} dropped beyond buffer capacity)",
                self.spans_kept, self.spans_dropped
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_is_inert() {
        let p = SpanProfiler::disabled();
        assert!(!p.is_enabled());
        drop(p.span("slot_prepare", 7));
        p.complete_slot(7, 1_000_000);
        p.record_span_ns("ldpc_decode", 7, 500);
        assert!(p.report().is_none());
        let mut reg = MetricsRegistry::new();
        p.publish(&mut reg);
        assert_eq!(reg.counter("profiler", "slots"), 0);
        let mut buf = Vec::new();
        p.write_chrome_trace(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "{\"traceEvents\":[]}");
    }

    #[test]
    fn spans_and_slots_accumulate() {
        let p = SpanProfiler::with_deadline_ns(1_000);
        {
            let _g = p.span("slot_prepare", 4);
            std::hint::black_box(0u64);
        }
        p.record_span_ns("ldpc_decode", 4, 750);
        p.complete_slot(4, 500); // within budget
        p.complete_slot(9, 2_000); // miss
        let r = p.report().expect("enabled profiler has a report");
        assert_eq!(r.slots, 2);
        assert_eq!(r.deadline_misses, 1);
        assert_eq!(r.deadline_ns, 1_000);
        let names: Vec<&str> = r.stages.iter().map(|s| s.stage.as_str()).collect();
        assert!(names.contains(&"slot_prepare"));
        assert!(names.contains(&"ldpc_decode"));
        assert!(names.contains(&SLOT_STAGE));
        let ldpc = r.stages.iter().find(|s| s.stage == "ldpc_decode").unwrap();
        assert_eq!(ldpc.count, 1);
        assert_eq!(ldpc.max_ns, 750);
        let text = r.to_text();
        assert!(text.contains("deadline misses"));
        assert!(text.contains("ldpc_decode"));
    }

    #[test]
    fn publish_exposes_counters_and_histograms() {
        let p = SpanProfiler::with_deadline_ns(100);
        p.complete_slot(0, 50);
        p.complete_slot(1, 200);
        let mut reg = MetricsRegistry::new();
        p.publish(&mut reg);
        assert_eq!(reg.counter("profiler", "slots"), 2);
        assert_eq!(reg.counter("profiler", "deadline_misses"), 1);
        assert_eq!(reg.gauge("profiler", "deadline_ns"), Some(100));
        assert_eq!(reg.histogram("profiler", "slot_ns").unwrap().count(), 2);
        assert!(reg.histogram("profiler", "slot_total_ns").is_some());
        // Publishing is a snapshot: repeating does not double-count.
        p.publish(&mut reg);
        assert_eq!(reg.counter("profiler", "slots"), 2);
        assert_eq!(reg.histogram("profiler", "slot_ns").unwrap().count(), 2);
    }

    #[test]
    fn chrome_trace_emits_complete_events() {
        let p = SpanProfiler::enabled();
        p.record_span_ns("ul_decode", 12, 4_000);
        p.complete_slot(12, 9_000);
        let mut buf = Vec::new();
        p.write_chrome_trace(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"name\":\"ul_decode\""));
        assert!(s.contains("\"slot\":12"));
        assert!(s.ends_with("]}\n"));
    }

    #[test]
    fn span_buffer_is_bounded() {
        let p = SpanProfiler::enabled();
        let inner = p.inner.as_ref().unwrap();
        for i in 0..(inner.span_capacity as u64 + 10) {
            p.record_span_ns("channel", i, 1);
        }
        let r = p.report().unwrap();
        assert_eq!(r.spans_kept, DEFAULT_SPAN_CAPACITY);
        assert_eq!(r.spans_dropped, 10);
        // The histogram still saw everything.
        let ch = r.stages.iter().find(|s| s.stage == "channel").unwrap();
        assert_eq!(ch.count, DEFAULT_SPAN_CAPACITY as u64 + 10);
    }

    #[test]
    fn clones_share_state_across_threads() {
        let p = SpanProfiler::enabled();
        let clones: Vec<SpanProfiler> = (0..4).map(|_| p.clone()).collect();
        let handles: Vec<_> = clones
            .into_iter()
            .map(|c| {
                std::thread::spawn(move || {
                    for s in 0..100u64 {
                        c.record_span_ns("ul_decode", s, 10);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let r = p.report().unwrap();
        let d = r.stages.iter().find(|s| s.stage == "ul_decode").unwrap();
        assert_eq!(d.count, 400);
    }
}
