//! # slingshot-sim
//!
//! Deterministic discrete-event simulation engine underpinning the
//! Slingshot (SIGCOMM 2023) reproduction.
//!
//! The crate provides:
//!
//! - [`time`]: nanosecond simulated time and 5G NR slot/TTI arithmetic
//!   (30 kHz SCS, 500 µs slots, SFN wraparound, the DDDSU TDD pattern).
//! - [`rng`]: a self-contained xoshiro256** PRNG with labeled forking so
//!   every component gets an independent, reproducible stream.
//! - [`engine`]: the event queue, the [`engine::Node`] trait, and
//!   point-to-point links with latency, bandwidth, FIFO queueing and
//!   fault injection (drop / corrupt / jitter), in the spirit of
//!   smoltcp's fault-injecting device wrappers.
//! - [`stats`]: percentile samplers, 10 ms-bin throughput accounting and
//!   online statistics used by every experiment harness.
//! - [`trace`]: the slot-aware structured event trace every engine
//!   records into — a bounded ring of `(time, node, slot, kind, payload)`
//!   records with Chrome `trace_event` export and derived measures
//!   (detection latency, delivered-TTI gaps). Byte-identical across
//!   same-seed runs.
//! - [`metrics`]: bounded-memory counters/gauges/log-bucketed histograms
//!   scoped per component, with deterministic text, JSON and
//!   Prometheus-exposition exporters.
//! - [`profiler`]: an opt-in wall-clock span profiler for the slot
//!   pipeline (deadline budgets, per-stage histograms, Chrome-trace
//!   spans). Strictly a side channel: it never writes to the hashed
//!   deterministic trace, so enabling it cannot perturb determinism.
//! - [`slo`]: long-horizon availability analysis — per-cell outage
//!   intervals, nines, MTBF/MTTR and time-to-repair distributions
//!   derived purely from the deterministic trace stream.
//!
//! Design note: event dispatch is synchronous and single-threaded.
//! Real vRAN software busy-polls on dedicated cores; in a simulation,
//! an async runtime would add nondeterminism without modeling value, so
//! (per the project's networking guides) we use event-driven synchronous
//! code and replace wall-clock waiting with simulated time. Pure DSP
//! compute *within* one event, however, may fan out across the
//! [`pool::WorkerPool`]: jobs carry pre-split RNG streams and results
//! merge in submission order, so worker count never changes the trace
//! (see DESIGN.md §5d).

#![forbid(unsafe_code)]

pub mod chaos;
pub mod engine;
pub mod equeue;
pub mod kernels;
pub mod metrics;
mod ownership;
pub mod pool;
pub mod profiler;
pub mod rng;
pub mod slo;
pub mod stats;
pub mod time;
pub mod trace;

pub use chaos::{ChaosDistribution, Fault, FaultKind, FaultTarget, Scenario};
pub use engine::{Ctx, Engine, LinkParams, LinkStats, Message, Node, NodeId};
pub use equeue::CalendarQueue;
pub use kernels::{KernelBackend, KernelConfig};
pub use metrics::{InstrumentSink, LogHistogram, MetricsRegistry};
pub use pool::WorkerPool;
pub use profiler::{ProfilerReport, SpanGuard, SpanProfiler, StageProfile};
pub use rng::SimRng;
pub use slo::{CellSlo, FleetSlo, Outage, SloConfig, SloReport};
pub use stats::{RateBins, Sampler};
pub use time::{slot_kind, Nanos, SlotClock, SlotId, SlotKind, SLOT_DURATION, TDD_PATTERN};
pub use trace::{Detection, TraceBuffer, TraceEvent, TraceEventKind};
