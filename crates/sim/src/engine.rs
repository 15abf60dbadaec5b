//! The discrete-event simulation engine.
//!
//! The engine owns a set of [`Node`]s identified by [`NodeId`], a priority
//! queue of pending events, and a table of point-to-point links.
//! Nodes exchange messages of a single application-defined type `M`
//! (an enum in the higher-level crates covering Ethernet frames, radio
//! bursts, and control messages). Links model propagation latency,
//! serialization delay at a configured bandwidth, FIFO queueing, and
//! optional fault injection.
//!
//! Event dispatch is single-threaded and deterministic: the same master
//! seed and the same sequence of API calls produce byte-identical event
//! traces (see [`Engine::trace_hash`]). Nodes may offload pure compute
//! within one callback to the engine's [`WorkerPool`]
//! ([`Ctx::worker_pool`]); because jobs carry pre-split RNG streams and
//! results merge in submission order, the trace is independent of the
//! pool's worker count.

use std::any::Any;
use std::sync::Arc;

use crate::equeue::CalendarQueue;
use crate::kernels::KernelConfig;
use crate::metrics::MetricsRegistry;
use crate::pool::WorkerPool;
use crate::profiler::SpanProfiler;
use crate::rng::SimRng;
use crate::time::{Nanos, SlotId};
use crate::trace::{TraceBuffer, TraceEventKind};

/// Slot width used to stamp profiler spans with a slot index.
const SLOT_NS: u64 = crate::time::SLOT_DURATION.0;

/// Identifies a node registered with the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Sender id used for events injected from outside the simulation
    /// (test harnesses, experiment scripts).
    pub const EXTERNAL: NodeId = NodeId(usize::MAX);
}

/// Messages exchanged between nodes.
///
/// `wire_size` is the serialized size used to compute transmission delay
/// on bandwidth-limited links; messages that never cross such links may
/// keep the default. `corrupt` is invoked by the fault injector and may
/// flip bits in the payload; the default is a no-op (the message is then
/// dropped instead, which is the conservative interpretation).
pub trait Message: std::fmt::Debug + Send + 'static {
    fn wire_size(&self) -> usize {
        0
    }

    /// Mutate the message as in-flight corruption would. Returns `true`
    /// if corruption was applied; if `false`, the link drops the message
    /// instead.
    fn corrupt(&mut self, _rng: &mut SimRng) -> bool {
        false
    }

    /// Produce a copy of this message for link-level duplication faults.
    /// Returning `None` (the default) means the message type cannot be
    /// duplicated and the link's `dup_chance` is a no-op for it; message
    /// enums typically implement this only for their wire-format variants
    /// (a switch can duplicate an Ethernet frame, not a shared-memory
    /// handle).
    fn duplicate(&self) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }
}

/// A simulation participant. Nodes react to messages and timers; all
/// side effects go through the [`Ctx`].
pub trait Node<M: Message>: Any + Send {
    /// Called once when the simulation starts, before any event fires.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// A message from `from` has arrived.
    fn on_msg(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: M);

    /// A timer scheduled by this node has fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, M>, _token: u64) {}
}

/// Parameters of a unidirectional point-to-point link.
#[derive(Debug, Clone)]
pub struct LinkParams {
    /// One-way propagation latency.
    pub latency: Nanos,
    /// Bits per second; 0 means infinite (no serialization delay).
    pub bandwidth_bps: u64,
    /// Probability of dropping each message.
    pub drop_chance: f64,
    /// Probability of corrupting each message (falls back to a drop if
    /// the message type does not implement corruption).
    pub corrupt_chance: f64,
    /// Additional uniformly distributed latency jitter in [0, jitter].
    pub jitter: Nanos,
    /// Probability of duplicating each message (only applies to message
    /// types whose [`Message::duplicate`] returns `Some`).
    pub dup_chance: f64,
    /// Probability of delaying a message by `reorder_hold`, letting
    /// later-sent messages overtake it.
    pub reorder_chance: f64,
    /// Extra delay applied to messages selected for reordering.
    pub reorder_hold: Nanos,
}

impl LinkParams {
    /// An ideal link with the given latency and no bandwidth limit.
    pub fn ideal(latency: Nanos) -> LinkParams {
        LinkParams {
            latency,
            bandwidth_bps: 0,
            drop_chance: 0.0,
            corrupt_chance: 0.0,
            jitter: Nanos::ZERO,
            dup_chance: 0.0,
            reorder_chance: 0.0,
            reorder_hold: Nanos::ZERO,
        }
    }

    /// A link with latency and a finite bandwidth.
    pub fn with_bandwidth(latency: Nanos, bandwidth_bps: u64) -> LinkParams {
        LinkParams {
            bandwidth_bps,
            ..LinkParams::ideal(latency)
        }
    }

    pub fn drop_chance(mut self, p: f64) -> LinkParams {
        self.drop_chance = p;
        self
    }

    pub fn corrupt_chance(mut self, p: f64) -> LinkParams {
        self.corrupt_chance = p;
        self
    }

    pub fn jitter(mut self, j: Nanos) -> LinkParams {
        self.jitter = j;
        self
    }

    pub fn dup_chance(mut self, p: f64) -> LinkParams {
        self.dup_chance = p;
        self
    }

    /// With probability `p`, hold a message back by `hold` so that
    /// later-sent messages overtake it.
    pub fn reorder(mut self, p: f64, hold: Nanos) -> LinkParams {
        self.reorder_chance = p;
        self.reorder_hold = hold;
        self
    }
}

#[derive(Debug)]
struct Link {
    params: LinkParams,
    /// Time at which the link's transmitter becomes free (FIFO model).
    busy_until: Nanos,
    /// Metrics scope (`link:<from>-><to>`), interned at `connect()` time
    /// so the per-snapshot publish path never formats names.
    scope: String,
    /// Counters for observability.
    sent: u64,
    dropped: u64,
    corrupted: u64,
    duplicated: u64,
    bytes: u64,
}

/// The engine's link directory: rows indexed by source node id, each
/// row sorted by destination. Lookup is a binary search over a node's
/// out-degree (single digits in every deployment here) — no hashing on
/// the per-send path — and iteration is naturally in `(from, to)`
/// order, so the metrics publish path needs no sort.
#[derive(Default)]
struct LinkTable {
    by_src: Vec<Vec<(NodeId, Link)>>,
}

impl LinkTable {
    fn insert(&mut self, from: NodeId, to: NodeId, link: Link) {
        if self.by_src.len() <= from.0 {
            self.by_src.resize_with(from.0 + 1, Vec::new);
        }
        let row = &mut self.by_src[from.0];
        match row.binary_search_by_key(&to, |(d, _)| *d) {
            Ok(i) => row[i].1 = link,
            Err(i) => row.insert(i, (to, link)),
        }
    }

    fn get(&self, from: NodeId, to: NodeId) -> Option<&Link> {
        let row = self.by_src.get(from.0)?;
        row.binary_search_by_key(&to, |(d, _)| *d)
            .ok()
            .map(|i| &row[i].1)
    }

    fn get_mut(&mut self, from: NodeId, to: NodeId) -> Option<&mut Link> {
        let row = self.by_src.get_mut(from.0)?;
        match row.binary_search_by_key(&to, |(d, _)| *d) {
            Ok(i) => Some(&mut row[i].1),
            Err(_) => None,
        }
    }

    /// One source's outgoing links, sorted by destination.
    fn row(&self, from: usize) -> &[(NodeId, Link)] {
        self.by_src.get(from).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Every link in `(from, to)` order.
    fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId, &Link)> {
        self.by_src
            .iter()
            .enumerate()
            .flat_map(|(from, row)| row.iter().map(move |(to, l)| (NodeId(from), *to, l)))
    }

    /// Remove and return every link in `(from, to)` order (shard
    /// enablement moves links to their sender's lane).
    fn drain_all(&mut self) -> Vec<(NodeId, NodeId, Link)> {
        let rows = std::mem::take(&mut self.by_src);
        rows.into_iter()
            .enumerate()
            .flat_map(|(from, row)| row.into_iter().map(move |(to, l)| (NodeId(from), to, l)))
            .collect()
    }
}

/// Per-link statistics snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    pub sent: u64,
    pub dropped: u64,
    pub corrupted: u64,
    pub duplicated: u64,
    pub bytes: u64,
}

enum EventKind<M> {
    Msg {
        from: NodeId,
        msg: M,
    },
    Timer {
        token: u64,
    },
    /// Re-run the node's `on_start` — used by [`Engine::restart`] to model
    /// a process restart that re-establishes its timer chains.
    Start,
}

/// `LaneCore::local` sentinel: node is not a member of this lane.
const NOT_LOCAL: u32 = u32::MAX;
/// `LaneCore::alive` states (indexed by node id).
const MEMBER_NONE: u8 = 0;
const MEMBER_DEAD: u8 = 1;
const MEMBER_ALIVE: u8 = 2;

/// Queue payload: destination plus event body. The `(at, seq)` key
/// lives in the calendar queue's bucket heaps; payloads sit in its
/// arena and never move once inserted (see [`crate::equeue`]).
type Queued<M> = (NodeId, EventKind<M>);

/// Engine internals shared with nodes through [`Ctx`].
struct Core<M> {
    now: Nanos,
    seq: u64,
    queue: CalendarQueue<Queued<M>>,
    links: LinkTable,
    alive: Vec<bool>,
    names: Vec<String>,
    rng: SimRng,
    trace_hash: u64,
    dispatched: u64,
    trace: TraceBuffer,
    metrics: MetricsRegistry,
    pool: WorkerPool,
    profiler: SpanProfiler,
    kernels: KernelConfig,
}

impl<M> Core<M> {
    /// Record a node death/revival in the event trace, only on actual
    /// state transitions so repeated kills do not pollute the timeline.
    fn set_alive(&mut self, node: NodeId, actor: NodeId, alive: bool) {
        if self.alive[node.0] == alive {
            return;
        }
        self.alive[node.0] = alive;
        let kind = if alive {
            TraceEventKind::NodeRevived
        } else {
            TraceEventKind::NodeKilled
        };
        self.trace.record(self.now, actor, kind, node.0 as u64, 0);
    }
}

impl<M: Message> Core<M> {
    fn push(&mut self, at: Nanos, dst: NodeId, kind: EventKind<M>) {
        let _s = self.profiler.span("queue_push", at.0 / SLOT_NS);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at, seq, (dst, kind));
    }

    fn send_via_link(&mut self, from: NodeId, dst: NodeId, msg: M) -> bool {
        let now = self.now;
        self.send_via_link_at(from, dst, now, msg)
    }

    /// Link transmission whose earliest departure is `depart_floor`
    /// (models local processing completing before the NIC takes over).
    fn send_via_link_at(&mut self, from: NodeId, dst: NodeId, depart_floor: Nanos, msg: M) -> bool {
        let now = depart_floor.max(self.now);
        let link = match self.links.get_mut(from, dst) {
            Some(l) => l,
            None => panic!(
                "no link {} -> {}; use connect() or send_in()",
                self.names.get(from.0).map(String::as_str).unwrap_or("ext"),
                self.names.get(dst.0).map(String::as_str).unwrap_or("?"),
            ),
        };
        match link_transmit(link, &mut self.rng, now, msg) {
            LinkOutcome::Lost => false,
            LinkOutcome::Deliver { arrive, msg, copy } => {
                if let Some(copy) = copy {
                    // The copy lands at the same instant; FIFO seq ordering
                    // preserves the original/copy pair's relative order.
                    self.push(arrive, dst, EventKind::Msg { from, msg: copy });
                }
                self.push(arrive, dst, EventKind::Msg { from, msg });
                true
            }
        }
    }
}

/// Result of pushing one message through a link's fault and timing model.
enum LinkOutcome<M> {
    /// Dropped (fault injection or failed corruption).
    Lost,
    /// Deliver `msg` (and, for duplication faults, `copy` first) at
    /// `arrive`.
    Deliver {
        arrive: Nanos,
        msg: M,
        copy: Option<M>,
    },
}

/// The link model shared by the single-loop and sharded dispatch paths:
/// FIFO serialization at the configured bandwidth, then fault injection.
/// All probability draws come from `rng` (the domain that owns the link)
/// and are gated on a non-zero chance so links without faults consume no
/// RNG state — this keeps pre-existing seeds byte-identical and makes
/// cross-shard sends shard-invariant (the sender's lane always draws).
fn link_transmit<M: Message>(
    link: &mut Link,
    rng: &mut SimRng,
    now: Nanos,
    mut msg: M,
) -> LinkOutcome<M> {
    link.sent += 1;
    let size = msg.wire_size();
    link.bytes += size as u64;
    if link.params.drop_chance > 0.0 && rng.chance(link.params.drop_chance) {
        link.dropped += 1;
        return LinkOutcome::Lost;
    }
    if link.params.corrupt_chance > 0.0 && rng.chance(link.params.corrupt_chance) {
        if msg.corrupt(rng) {
            link.corrupted += 1;
        } else {
            link.dropped += 1;
            return LinkOutcome::Lost;
        }
    }
    // bandwidth 0 = infinite: no serialization delay.
    let tx_time = (size as u64 * 8)
        .saturating_mul(1_000_000_000)
        .checked_div(link.params.bandwidth_bps)
        .map_or(Nanos::ZERO, Nanos);
    let depart = link.busy_until.max(now);
    let done = depart + tx_time;
    link.busy_until = done;
    let params = &link.params;
    let mut arrive = done + params.latency;
    if params.jitter.0 > 0 {
        arrive += Nanos(rng.below(params.jitter.0 + 1));
    }
    if params.reorder_chance > 0.0 && rng.chance(params.reorder_chance) {
        arrive += params.reorder_hold;
    }
    let mut copy = None;
    if params.dup_chance > 0.0 && rng.chance(params.dup_chance) {
        if let Some(c) = msg.duplicate() {
            link.duplicated += 1;
            copy = Some(c);
        }
    }
    LinkOutcome::Deliver { arrive, msg, copy }
}

/// A cross-lane side effect staged during a shard window, applied
/// serially at the next slot barrier in (lane index, emission) order.
/// Keeping kills/restarts in the same FIFO stream as messages preserves
/// a node's emission order across the barrier (e.g. a deferred restart's
/// `Start` event is enqueued before a scrub message emitted right after
/// it).
enum Outbound<M> {
    Msg {
        /// Arrival computed by the sender-lane link model (or direct
        /// delay); quantized up to the barrier instant at drain time.
        arrive: Nanos,
        dst: NodeId,
        from: NodeId,
        msg: M,
    },
    SetAlive {
        node: NodeId,
        actor: NodeId,
        alive: bool,
    },
    Restart {
        node: NodeId,
        actor: NodeId,
    },
}

/// Per-lane engine state for sharded dispatch: one independent event
/// domain (queue, clock, RNG, links, liveness, staged trace) per cell
/// group. Lanes advance in parallel between slot barriers and exchange
/// effects only through their outboxes, drained serially at barriers —
/// so the trace is byte-identical for any shard or worker count.
struct LaneCore<M> {
    now: Nanos,
    seq: u64,
    queue: CalendarQueue<Queued<M>>,
    links: LinkTable,
    /// Authoritative liveness for this lane's member nodes, indexed by
    /// node id: `MEMBER_NONE` (not ours), `MEMBER_DEAD`, `MEMBER_ALIVE`.
    alive: Vec<u8>,
    /// Fleet-wide liveness snapshot, rebuilt at barriers after a
    /// liveness transition. Cross-lane `is_alive`/send checks read this
    /// (stale by at most one slot); the destination lane's
    /// dispatch-time check stays authoritative.
    alive_view: Arc<Vec<bool>>,
    /// Set on any member liveness transition; cleared when the fleet
    /// snapshot is rebuilt. Lets quiescent barriers skip the rebuild.
    alive_dirty: bool,
    /// Member node id -> slot in the window's node vector
    /// (`NOT_LOCAL` for non-members). Plain index, no hashing: this is
    /// read on every dispatched event.
    local: Vec<u32>,
    /// Member node ids in registration order.
    members: Vec<usize>,
    names: Arc<Vec<String>>,
    rng: SimRng,
    trace_hash: u64,
    dispatched: u64,
    /// Wall-clock nanoseconds this lane spent executing its windows.
    /// Measurement only — never read by simulation logic, so it cannot
    /// perturb determinism. Drives the scale bench's per-shard
    /// real-time budget (a lane is sustainable when its per-slot busy
    /// time fits within the slot duration).
    busy_ns: u64,
    /// Staged trace events, merged into the global buffer at barriers.
    trace: TraceBuffer,
    outbox: Vec<Outbound<M>>,
    pool: WorkerPool,
    profiler: SpanProfiler,
    kernels: KernelConfig,
}

impl<M> LaneCore<M> {
    fn owns(&self, node: NodeId) -> bool {
        self.local.get(node.0).is_some_and(|&s| s != NOT_LOCAL)
    }

    fn node_alive(&self, node: NodeId) -> bool {
        match self.alive.get(node.0).copied().unwrap_or(MEMBER_NONE) {
            MEMBER_ALIVE => true,
            MEMBER_DEAD => false,
            _ => self.alive_view.get(node.0).copied().unwrap_or(false),
        }
    }

    /// Record a member death/revival (transitions only), staging the
    /// trace event for the barrier merge.
    fn set_alive_local(&mut self, node: NodeId, actor: NodeId, alive: bool) {
        let slot = &mut self.alive[node.0];
        assert!(*slot != MEMBER_NONE, "not a lane member");
        let next = if alive { MEMBER_ALIVE } else { MEMBER_DEAD };
        if *slot == next {
            return;
        }
        *slot = next;
        self.alive_dirty = true;
        let kind = if alive {
            TraceEventKind::NodeRevived
        } else {
            TraceEventKind::NodeKilled
        };
        self.trace.record(self.now, actor, kind, node.0 as u64, 0);
    }
}

impl<M: Message> LaneCore<M> {
    fn push(&mut self, at: Nanos, dst: NodeId, kind: EventKind<M>) {
        let _s = self.profiler.span("queue_push", at.0 / SLOT_NS);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at, seq, (dst, kind));
    }

    /// Send along a link owned by this lane. Same-lane deliveries go to
    /// the local queue; cross-lane ones are staged on the outbox (the
    /// sender's link model and RNG already ran, so the outcome does not
    /// depend on shard count).
    fn send_via_link_at(&mut self, from: NodeId, dst: NodeId, depart_floor: Nanos, msg: M) -> bool {
        let now = depart_floor.max(self.now);
        let link = match self.links.get_mut(from, dst) {
            Some(l) => l,
            None => panic!(
                "no link {} -> {}; use connect() or send_in()",
                self.names.get(from.0).map(String::as_str).unwrap_or("ext"),
                self.names.get(dst.0).map(String::as_str).unwrap_or("?"),
            ),
        };
        match link_transmit(link, &mut self.rng, now, msg) {
            LinkOutcome::Lost => false,
            LinkOutcome::Deliver { arrive, msg, copy } => {
                if self.owns(dst) {
                    if let Some(copy) = copy {
                        self.push(arrive, dst, EventKind::Msg { from, msg: copy });
                    }
                    self.push(arrive, dst, EventKind::Msg { from, msg });
                } else {
                    if let Some(copy) = copy {
                        self.outbox.push(Outbound::Msg {
                            arrive,
                            dst,
                            from,
                            msg: copy,
                        });
                    }
                    self.outbox.push(Outbound::Msg {
                        arrive,
                        dst,
                        from,
                        msg,
                    });
                }
                true
            }
        }
    }
}

/// Handle through which a node interacts with the engine during a
/// callback. Backed either by the single-loop core or, in sharded mode,
/// by the node's lane.
enum CtxInner<'a, M: Message> {
    Global(&'a mut Core<M>),
    Lane(&'a mut LaneCore<M>),
}

/// Handle through which a node interacts with the engine during a
/// callback.
pub struct Ctx<'a, M: Message> {
    inner: CtxInner<'a, M>,
    id: NodeId,
}

impl<'a, M: Message> Ctx<'a, M> {
    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        match &self.inner {
            CtxInner::Global(c) => c.now,
            CtxInner::Lane(l) => l.now,
        }
    }

    /// The id of the node being called.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Send a message over the configured link to `dst`. Returns `false`
    /// if the link's fault injector dropped the message.
    ///
    /// Panics if no link `self -> dst` was configured; this catches
    /// wiring bugs early.
    pub fn send(&mut self, dst: NodeId, msg: M) -> bool {
        let id = self.id;
        match &mut self.inner {
            CtxInner::Global(core) => {
                if !core.alive[dst.0] {
                    // Messages to a crashed node vanish, as frames to a
                    // dead server would — but the link records the loss.
                    if let Some(link) = core.links.get_mut(id, dst) {
                        link.dropped += 1;
                    }
                    return false;
                }
                core.send_via_link(id, dst, msg)
            }
            CtxInner::Lane(lane) => {
                if !lane.node_alive(dst) {
                    if let Some(link) = lane.links.get_mut(id, dst) {
                        link.dropped += 1;
                    }
                    return false;
                }
                let now = lane.now;
                lane.send_via_link_at(id, dst, now, msg)
            }
        }
    }

    /// Send over the configured link to `dst`, but with the departure
    /// delayed by `delay` (local processing before the NIC): the link's
    /// bandwidth, queueing, and fault injection still apply.
    pub fn send_link_in(&mut self, dst: NodeId, delay: Nanos, msg: M) -> bool {
        let id = self.id;
        match &mut self.inner {
            CtxInner::Global(core) => {
                if !core.alive[dst.0] {
                    if let Some(link) = core.links.get_mut(id, dst) {
                        link.dropped += 1;
                    }
                    return false;
                }
                let depart = core.now + delay;
                core.send_via_link_at(id, dst, depart, msg)
            }
            CtxInner::Lane(lane) => {
                if !lane.node_alive(dst) {
                    if let Some(link) = lane.links.get_mut(id, dst) {
                        link.dropped += 1;
                    }
                    return false;
                }
                let depart = lane.now + delay;
                lane.send_via_link_at(id, dst, depart, msg)
            }
        }
    }

    /// Deliver a message directly after `delay`, bypassing any link
    /// (models same-host shared memory or abstract control channels).
    pub fn send_in(&mut self, dst: NodeId, delay: Nanos, msg: M) {
        let id = self.id;
        match &mut self.inner {
            CtxInner::Global(core) => {
                if !core.alive[dst.0] {
                    return;
                }
                let at = core.now + delay;
                core.push(at, dst, EventKind::Msg { from: id, msg });
            }
            CtxInner::Lane(lane) => {
                if !lane.node_alive(dst) {
                    return;
                }
                let at = lane.now + delay;
                if lane.owns(dst) {
                    lane.push(at, dst, EventKind::Msg { from: id, msg });
                } else {
                    lane.outbox.push(Outbound::Msg {
                        arrive: at,
                        dst,
                        from: id,
                        msg,
                    });
                }
            }
        }
    }

    /// Schedule a timer for this node after `delay`.
    pub fn timer(&mut self, delay: Nanos, token: u64) {
        let id = self.id;
        match &mut self.inner {
            CtxInner::Global(core) => {
                let at = core.now + delay;
                core.push(at, id, EventKind::Timer { token });
            }
            CtxInner::Lane(lane) => {
                let at = lane.now + delay;
                lane.push(at, id, EventKind::Timer { token });
            }
        }
    }

    /// Schedule a timer for this node at the absolute time `at` (clamped
    /// to now if already past).
    pub fn timer_at(&mut self, at: Nanos, token: u64) {
        let id = self.id;
        match &mut self.inner {
            CtxInner::Global(core) => {
                let at = at.max(core.now);
                core.push(at, id, EventKind::Timer { token });
            }
            CtxInner::Lane(lane) => {
                let at = at.max(lane.now);
                lane.push(at, id, EventKind::Timer { token });
            }
        }
    }

    /// Crash another node: all its queued and future events are dropped
    /// until it is revived. Models a fail-stop process crash (SIGKILL).
    /// Records a `NodeKilled` trace event. In sharded mode a cross-lane
    /// kill takes effect at the next slot barrier.
    pub fn kill(&mut self, node: NodeId) {
        let id = self.id;
        match &mut self.inner {
            CtxInner::Global(core) => core.set_alive(node, id, false),
            CtxInner::Lane(lane) => {
                if lane.owns(node) {
                    lane.set_alive_local(node, id, false);
                } else {
                    lane.outbox.push(Outbound::SetAlive {
                        node,
                        actor: id,
                        alive: false,
                    });
                }
            }
        }
    }

    /// Bring a previously killed node back (e.g., a restarted process).
    /// Records a `NodeRevived` trace event. In sharded mode a cross-lane
    /// revive takes effect at the next slot barrier.
    pub fn revive(&mut self, node: NodeId) {
        let id = self.id;
        match &mut self.inner {
            CtxInner::Global(core) => core.set_alive(node, id, true),
            CtxInner::Lane(lane) => {
                if lane.owns(node) {
                    lane.set_alive_local(node, id, true);
                } else {
                    lane.outbox.push(Outbound::SetAlive {
                        node,
                        actor: id,
                        alive: true,
                    });
                }
            }
        }
    }

    /// Restart a killed node from inside the simulation (an
    /// orchestrator node re-launching a crashed process): revive it and
    /// re-run its `on_start` at the current time so it can re-establish
    /// its timer chains. The node keeps its in-memory state. Only call
    /// on dead nodes — on a live node `on_start` would fire again and
    /// double its timer chains. In sharded mode a cross-lane restart
    /// takes effect at the next slot barrier.
    pub fn restart(&mut self, node: NodeId) {
        let id = self.id;
        match &mut self.inner {
            CtxInner::Global(core) => {
                core.set_alive(node, id, true);
                let now = core.now;
                core.push(now, node, EventKind::Start);
            }
            CtxInner::Lane(lane) => {
                if lane.owns(node) {
                    lane.set_alive_local(node, id, true);
                    let now = lane.now;
                    lane.push(now, node, EventKind::Start);
                } else {
                    lane.outbox.push(Outbound::Restart { node, actor: id });
                }
            }
        }
    }

    /// Liveness of `node`. In sharded mode, cross-lane queries read the
    /// barrier snapshot (stale by at most one slot); same-lane queries
    /// are exact.
    pub fn is_alive(&self, node: NodeId) -> bool {
        match &self.inner {
            CtxInner::Global(core) => core.alive[node.0],
            CtxInner::Lane(lane) => lane.node_alive(node),
        }
    }

    /// Engine-level RNG; nodes normally hold their own forked [`SimRng`]
    /// and use this only for incidental draws. In sharded mode this is
    /// the lane's RNG stream (pre-split per lane, so draws stay
    /// shard-invariant).
    pub fn rng(&mut self) -> &mut SimRng {
        match &mut self.inner {
            CtxInner::Global(core) => &mut core.rng,
            CtxInner::Lane(lane) => &mut lane.rng,
        }
    }

    /// Record a structured trace event attributed to this node, stamped
    /// with the slot identity derived from the current time. See
    /// [`TraceEventKind`] for the per-kind payload conventions.
    pub fn trace(&mut self, kind: TraceEventKind, a: u64, b: u64) {
        let id = self.id;
        match &mut self.inner {
            CtxInner::Global(core) => {
                let now = core.now;
                core.trace.record(now, id, kind, a, b);
            }
            CtxInner::Lane(lane) => {
                let now = lane.now;
                lane.trace.record(now, id, kind, a, b);
            }
        }
    }

    /// Record a trace event carrying an explicit slot identity (for
    /// events whose slot comes from a packet header rather than the
    /// arrival time).
    pub fn trace_at_slot(&mut self, kind: TraceEventKind, slot: SlotId, a: u64, b: u64) {
        let id = self.id;
        match &mut self.inner {
            CtxInner::Global(core) => {
                let now = core.now;
                core.trace.record_at_slot(now, id, slot, kind, a, b);
            }
            CtxInner::Lane(lane) => {
                let now = lane.now;
                lane.trace.record_at_slot(now, id, slot, kind, a, b);
            }
        }
    }

    /// The engine's compute worker pool (a cheap shared handle). Pure
    /// per-slot DSP work may fan out here; everything observable through
    /// this `Ctx` must still happen serially, in submission order, so
    /// worker count never changes the trace.
    pub fn worker_pool(&self) -> WorkerPool {
        match &self.inner {
            CtxInner::Global(core) => core.pool.clone(),
            CtxInner::Lane(lane) => lane.pool.clone(),
        }
    }

    /// The engine's kernel backend selection (a `Copy` config). Nodes
    /// build their DSP dispatch handle from this once per callback, so
    /// every kernel in the deployment runs the same implementation
    /// family and forced-scalar runs stay trace-identical.
    pub fn kernel_config(&self) -> KernelConfig {
        match &self.inner {
            CtxInner::Global(core) => core.kernels,
            CtxInner::Lane(lane) => lane.kernels,
        }
    }

    /// The engine's wall-clock span profiler (a cheap shared handle).
    /// Disabled by default, in which case every span call is inert —
    /// no clock reads, no allocation — so hot paths may call it
    /// unconditionally. Timing lives in a side-channel buffer, never in
    /// the deterministic trace.
    pub fn profiler(&self) -> SpanProfiler {
        match &self.inner {
            CtxInner::Global(core) => core.profiler.clone(),
            CtxInner::Lane(lane) => lane.profiler.clone(),
        }
    }
}

/// Sharded-dispatch state: the lane set plus the slot-barrier cursor.
struct Fabric<M> {
    /// `Option` so windows can move a lane into a worker job.
    lanes: Vec<Option<LaneCore<M>>>,
    lane_of: Arc<Vec<u32>>,
    /// Next absolute slot-barrier instant (multiple of the quantum).
    next_barrier: Nanos,
    /// Barrier spacing; [`crate::time::SLOT_DURATION`] by default.
    quantum: Nanos,
    /// How many parallel jobs the lane set is chunked into per window
    /// (`shards(k)`). Purely an execution knob: any value produces the
    /// same trace.
    exec_shards: usize,
    /// Recycled backing store for outbox drains: swapped with one
    /// lane's outbox at a time so barrier processing reuses capacity
    /// instead of reallocating every slot.
    outbox_scratch: Vec<Outbound<M>>,
    /// Recycled staging buffer for the barrier trace merge.
    merge_scratch: Vec<crate::trace::TraceEvent>,
}

/// The deterministic discrete-event simulation engine.
pub struct Engine<M: Message> {
    core: Core<M>,
    nodes: Vec<Option<Box<dyn Node<M>>>>,
    started: bool,
    fabric: Option<Fabric<M>>,
}

impl<M: Message> Engine<M> {
    pub fn new(seed: u64) -> Engine<M> {
        Engine {
            core: Core {
                now: Nanos::ZERO,
                seq: 0,
                queue: CalendarQueue::new(),
                links: LinkTable::default(),
                alive: Vec::new(),
                names: Vec::new(),
                rng: SimRng::new(seed),
                trace_hash: 0xcbf2_9ce4_8422_2325,
                dispatched: 0,
                trace: TraceBuffer::default(),
                metrics: MetricsRegistry::new(),
                pool: WorkerPool::serial(),
                profiler: SpanProfiler::disabled(),
                kernels: KernelConfig::from_env(),
            },
            nodes: Vec::new(),
            started: false,
            fabric: None,
        }
    }

    /// Install the compute worker pool nodes reach through
    /// [`Ctx::worker_pool`]. Defaults to the inline serial pool; a
    /// deployment that wants parallel slot processing installs a shared
    /// threaded pool here before the run starts.
    pub fn set_worker_pool(&mut self, pool: WorkerPool) {
        self.core.pool = pool;
    }

    /// The engine's compute worker pool (a cheap shared handle).
    pub fn worker_pool(&self) -> WorkerPool {
        self.core.pool.clone()
    }

    /// Install the kernel backend selection nodes reach through
    /// [`Ctx::kernel_config`]. Defaults to [`KernelConfig::from_env`]
    /// (the `KERNEL_BACKEND` override if set, else runtime detection);
    /// deployments pin it explicitly through the builder.
    pub fn set_kernel_config(&mut self, kernels: KernelConfig) {
        self.core.kernels = kernels;
    }

    /// The engine's kernel backend selection.
    pub fn kernel_config(&self) -> KernelConfig {
        self.core.kernels
    }

    /// Install a wall-clock span profiler nodes reach through
    /// [`Ctx::profiler`]. Defaults to a disabled (inert) profiler;
    /// enabling one only adds side-channel timing — the deterministic
    /// trace, its hash, and the metrics registry are untouched unless
    /// [`SpanProfiler::publish`] is called explicitly after the run.
    pub fn set_profiler(&mut self, profiler: SpanProfiler) {
        self.core.profiler = profiler;
    }

    /// The engine's span profiler handle (clones share state).
    pub fn profiler(&self) -> SpanProfiler {
        self.core.profiler.clone()
    }

    /// Register a node; the returned id is stable for the engine's life.
    pub fn add_node(&mut self, name: &str, node: Box<dyn Node<M>>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Some(node));
        self.core.alive.push(true);
        self.core.names.push(name.to_string());
        id
    }

    /// Create a unidirectional link `from -> to`.
    pub fn connect(&mut self, from: NodeId, to: NodeId, params: LinkParams) {
        assert!(
            from != NodeId::EXTERNAL,
            "links originate from registered nodes; use post() for external injection"
        );
        let name = |id: NodeId| -> &str {
            self.core
                .names
                .get(id.0)
                .map(String::as_str)
                .unwrap_or(if id == NodeId::EXTERNAL { "ext" } else { "?" })
        };
        let scope = format!("link:{}->{}", name(from), name(to));
        let link = Link {
            params,
            busy_until: Nanos::ZERO,
            scope,
            sent: 0,
            dropped: 0,
            corrupted: 0,
            duplicated: 0,
            bytes: 0,
        };
        if let Some(fabric) = self.fabric.as_mut() {
            let l = fabric.lane_of[from.0] as usize;
            fabric.lanes[l]
                .as_mut()
                .expect("lane in place")
                .links
                .insert(from, to, link);
            return;
        }
        self.core.links.insert(from, to, link);
    }

    /// Create links in both directions with identical parameters.
    pub fn connect_duplex(&mut self, a: NodeId, b: NodeId, params: LinkParams) {
        self.connect(a, b, params.clone());
        self.connect(b, a, params);
    }

    /// The link `from -> to`, wherever it lives (the global table, or
    /// the owning lane's table in sharded mode).
    fn link(&self, from: NodeId, to: NodeId) -> Option<&Link> {
        match &self.fabric {
            None => self.core.links.get(from, to),
            Some(fabric) => {
                let l = *fabric.lane_of.get(from.0)? as usize;
                fabric.lanes[l].as_ref()?.links.get(from, to)
            }
        }
    }

    fn link_mut(&mut self, from: NodeId, to: NodeId) -> Option<&mut Link> {
        match &mut self.fabric {
            None => self.core.links.get_mut(from, to),
            Some(fabric) => {
                let l = *fabric.lane_of.get(from.0)? as usize;
                fabric.lanes[l].as_mut()?.links.get_mut(from, to)
            }
        }
    }

    /// Replace the parameters of an existing link (e.g., to degrade it
    /// mid-experiment). Panics if the link does not exist.
    pub fn reconfigure_link(&mut self, from: NodeId, to: NodeId, params: LinkParams) {
        let link = self
            .link_mut(from, to)
            .expect("reconfigure_link: no such link");
        link.params = params;
    }

    pub fn link_stats(&self, from: NodeId, to: NodeId) -> Option<LinkStats> {
        self.link(from, to).map(|l| LinkStats {
            sent: l.sent,
            dropped: l.dropped,
            corrupted: l.corrupted,
            duplicated: l.duplicated,
            bytes: l.bytes,
        })
    }

    /// Aggregate counters across every link in the engine (all lanes in
    /// sharded mode) — the fabric-wide byte/drop accounting the scale
    /// benches report per cell.
    pub fn total_link_stats(&self) -> LinkStats {
        let mut total = LinkStats::default();
        let mut add = |l: &Link| {
            total.sent += l.sent;
            total.dropped += l.dropped;
            total.corrupted += l.corrupted;
            total.duplicated += l.duplicated;
            total.bytes += l.bytes;
        };
        match &self.fabric {
            None => self.core.links.iter().for_each(|(_, _, l)| add(l)),
            Some(fabric) => {
                for lane in fabric.lanes.iter().flatten() {
                    lane.links.iter().for_each(|(_, _, l)| add(l));
                }
            }
        }
        total
    }

    /// The current parameters of a link, e.g. to save them before a
    /// chaos fault degrades the link and restore them afterwards.
    pub fn link_params(&self, from: NodeId, to: NodeId) -> Option<LinkParams> {
        self.link(from, to).map(|l| l.params.clone())
    }

    /// Inject a message from outside the simulation.
    pub fn post(&mut self, at: Nanos, dst: NodeId, msg: M) {
        let at = at.max(self.core.now);
        let kind = EventKind::Msg {
            from: NodeId::EXTERNAL,
            msg,
        };
        if let Some(fabric) = self.fabric.as_mut() {
            let l = fabric.lane_of.get(dst.0).copied().unwrap_or(0) as usize;
            fabric.lanes[l]
                .as_mut()
                .expect("lane in place")
                .push(at, dst, kind);
            return;
        }
        self.core.push(at, dst, kind);
    }

    /// Kill a node from outside the simulation (the experiment script's
    /// `SIGKILL`). Records a `NodeKilled` trace event attributed to
    /// [`NodeId::EXTERNAL`].
    pub fn kill(&mut self, node: NodeId) {
        if self.fabric.is_some() {
            self.set_alive_sharded(node, NodeId::EXTERNAL, false);
            return;
        }
        self.core.set_alive(node, NodeId::EXTERNAL, false);
    }

    pub fn revive(&mut self, node: NodeId) {
        if self.fabric.is_some() {
            self.set_alive_sharded(node, NodeId::EXTERNAL, true);
            return;
        }
        self.core.set_alive(node, NodeId::EXTERNAL, true);
    }

    /// Restart a killed node: revive it and re-run its `on_start` at the
    /// current time so it can re-establish its timer chains (timers
    /// scheduled before the kill were dropped while it was dead). The
    /// node keeps its in-memory state, modeling a process restart that
    /// reloads the same configuration. No-op scheduling-wise if the node
    /// is already alive (but `on_start` still fires, so only call this on
    /// dead nodes).
    pub fn restart(&mut self, node: NodeId) {
        if self.fabric.is_some() {
            self.set_alive_sharded(node, NodeId::EXTERNAL, true);
            let now = self.core.now;
            let fabric = self.fabric.as_mut().expect("fabric");
            let l = fabric.lane_of[node.0] as usize;
            fabric.lanes[l]
                .as_mut()
                .expect("lane in place")
                .push(now, node, EventKind::Start);
            return;
        }
        self.core.set_alive(node, NodeId::EXTERNAL, true);
        let now = self.core.now;
        self.core.push(now, node, EventKind::Start);
    }

    /// Engine-level liveness change in sharded mode: updates the owning
    /// lane, records the transition in the global trace, and refreshes
    /// the fleet-wide snapshot so the next window observes it.
    fn set_alive_sharded(&mut self, node: NodeId, actor: NodeId, alive: bool) {
        let now = self.core.now;
        let changed = {
            let fabric = self.fabric.as_mut().expect("fabric");
            let l = fabric.lane_of[node.0] as usize;
            let lane = fabric.lanes[l].as_mut().expect("lane in place");
            let slot = &mut lane.alive[node.0];
            assert!(*slot != MEMBER_NONE, "not a lane member");
            let next = if alive { MEMBER_ALIVE } else { MEMBER_DEAD };
            if *slot == next {
                false
            } else {
                *slot = next;
                lane.alive_dirty = true;
                true
            }
        };
        if changed {
            let kind = if alive {
                TraceEventKind::NodeRevived
            } else {
                TraceEventKind::NodeKilled
            };
            self.core.trace.record(now, actor, kind, node.0 as u64, 0);
            self.refresh_alive_view();
        }
    }

    pub fn is_alive(&self, node: NodeId) -> bool {
        if let Some(fabric) = &self.fabric {
            let l = fabric.lane_of[node.0] as usize;
            let lane = fabric.lanes[l].as_ref().expect("lane in place");
            return lane.alive.get(node.0).copied().unwrap_or(MEMBER_NONE) == MEMBER_ALIVE;
        }
        self.core.alive[node.0]
    }

    pub fn now(&self) -> Nanos {
        self.core.now
    }

    /// Number of dispatched events so far.
    pub fn dispatched(&self) -> u64 {
        let lanes: u64 = self
            .fabric
            .iter()
            .flat_map(|f| f.lanes.iter().flatten())
            .map(|l| l.dispatched)
            .sum();
        self.core.dispatched + lanes
    }

    /// Per-lane dispatched-event counts, in lane order. Empty when the
    /// engine is not sharded. A load-balance diagnostic: lane 0 is the
    /// spine domain, lanes 1..=g the leaf groups, and parallel speedup
    /// is bounded by the heaviest lane's share.
    pub fn lane_loads(&self) -> Vec<u64> {
        self.fabric
            .iter()
            .flat_map(|f| f.lanes.iter().flatten())
            .map(|l| l.dispatched)
            .collect()
    }

    /// Per-lane cumulative window execution time in wall-clock
    /// nanoseconds, in lane order (empty when not sharded). Divide by
    /// the simulated slot count for the per-shard per-slot cost: a
    /// deployment holds real time on parallel hardware exactly when
    /// every lane's per-slot cost stays under the slot duration.
    pub fn lane_busy_ns(&self) -> Vec<u64> {
        self.fabric
            .iter()
            .flat_map(|f| f.lanes.iter().flatten())
            .map(|l| l.busy_ns)
            .collect()
    }

    /// FNV-style hash over the dispatched event stream; equal seeds and
    /// programs produce equal hashes (the determinism regression test).
    /// In sharded mode, the per-lane stream hashes are folded together
    /// in lane order — still shard- and worker-count invariant.
    pub fn trace_hash(&self) -> u64 {
        let mut h = self.core.trace_hash;
        if let Some(fabric) = &self.fabric {
            for lane in fabric.lanes.iter().flatten() {
                h ^= lane.trace_hash;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    /// The structured event trace recorded so far (see [`crate::trace`]).
    pub fn event_trace(&self) -> &TraceBuffer {
        &self.core.trace
    }

    /// Mutable trace access: resize the ring, clear between phases, or
    /// record harness-level events.
    pub fn event_trace_mut(&mut self) -> &mut TraceBuffer {
        &mut self.core.trace
    }

    /// The engine-wide metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.core.metrics
    }

    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.core.metrics
    }

    /// Copy every link's counters into the metrics registry, one scope
    /// per link (`link:<from>-><to>`), with `sent`/`dropped`/
    /// `corrupted`/`bytes` counters. Idempotent: counters are set, not
    /// accumulated, so it can be called repeatedly (e.g. once per
    /// snapshot). Scopes were interned at `connect()` time and the link
    /// table iterates in `(from, to)` order, so a snapshot neither
    /// sorts nor formats — it is a flat copy of counters.
    pub fn publish_link_metrics(&mut self) {
        fn emit(metrics: &mut MetricsRegistry, link: &Link) {
            metrics.set_counter(&link.scope, "sent", link.sent);
            metrics.set_counter(&link.scope, "dropped", link.dropped);
            metrics.set_counter(&link.scope, "corrupted", link.corrupted);
            metrics.set_counter(&link.scope, "duplicated", link.duplicated);
            metrics.set_counter(&link.scope, "bytes", link.bytes);
        }
        let metrics = &mut self.core.metrics;
        match &self.fabric {
            None => {
                for (_, _, link) in self.core.links.iter() {
                    emit(metrics, link);
                }
            }
            Some(fabric) => {
                // A link lives in its sender's lane; walking source ids
                // in ascending order across lanes preserves the global
                // `(from, to)` emission order.
                for (from, &lane_idx) in fabric.lane_of.iter().enumerate() {
                    let lane = fabric.lanes[lane_idx as usize]
                        .as_ref()
                        .expect("lane in place");
                    for (_, link) in lane.links.row(from) {
                        emit(metrics, link);
                    }
                }
            }
        }
    }

    pub fn node_name(&self, id: NodeId) -> &str {
        &self.core.names[id.0]
    }

    /// All node names, indexed by `NodeId` — the argument the trace
    /// exporters take to label threads/scopes.
    pub fn node_names(&self) -> &[String] {
        &self.core.names
    }

    /// Immutable access to a node, downcast to its concrete type.
    pub fn node<T: 'static>(&self, id: NodeId) -> Option<&T> {
        let node = self.nodes[id.0].as_deref()?;
        (node as &dyn Any).downcast_ref::<T>()
    }

    /// Mutable access to a node, downcast to its concrete type. Intended
    /// for experiment setup and post-run inspection, not for use while
    /// the engine is dispatching.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        let node = self.nodes[id.0].as_deref_mut()?;
        (node as &mut dyn Any).downcast_mut::<T>()
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        if self.fabric.is_some() {
            // Sharded start is serial, in node id order, through each
            // node's lane ctx; outboxes drain after every callback so
            // startup semantics match the single-loop path exactly.
            for i in 0..self.nodes.len() {
                let lane_idx = {
                    let fabric = self.fabric.as_ref().expect("fabric");
                    fabric.lane_of[i] as usize
                };
                let mut node = self.nodes[i].take().expect("node missing at start");
                {
                    let fabric = self.fabric.as_mut().expect("fabric");
                    let lane = fabric.lanes[lane_idx].as_mut().expect("lane in place");
                    let mut ctx = Ctx {
                        inner: CtxInner::Lane(lane),
                        id: NodeId(i),
                    };
                    node.on_start(&mut ctx);
                }
                self.nodes[i] = Some(node);
                self.drain_outbox_of(lane_idx, Nanos::ZERO);
            }
            self.refresh_alive_view();
            return;
        }
        for i in 0..self.nodes.len() {
            let mut node = self.nodes[i].take().expect("node missing at start");
            {
                let mut ctx = Ctx {
                    inner: CtxInner::Global(&mut self.core),
                    id: NodeId(i),
                };
                node.on_start(&mut ctx);
            }
            self.nodes[i] = Some(node);
        }
    }

    /// Run until the queue is empty or simulated time reaches `until`.
    /// Afterwards `now() == until` (unless the queue emptied first, in
    /// which case `now()` still advances to `until`).
    pub fn run_until(&mut self, until: Nanos) {
        if self.fabric.is_some() {
            self.run_until_sharded(until);
            return;
        }
        self.start_if_needed();
        loop {
            let popped = {
                let _s = self
                    .core
                    .profiler
                    .span("queue_pop", self.core.now.0 / SLOT_NS);
                self.core.queue.pop_le(until)
            };
            let (at, _seq, (dst, kind)) = match popped {
                Some(e) => e,
                None => break,
            };
            debug_assert!(at >= self.core.now, "time went backwards");
            self.core.now = at;
            if dst.0 >= self.nodes.len() || !self.core.alive[dst.0] {
                continue;
            }
            // Trace hash: mixes (time, dst, kind) for determinism checks.
            let kind_tag: u64 = match &kind {
                EventKind::Msg { .. } => 1,
                EventKind::Timer { .. } => 2,
                EventKind::Start => 3,
            };
            let mut h = self.core.trace_hash;
            for v in [at.0, dst.0 as u64, kind_tag] {
                h ^= v;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            self.core.trace_hash = h;
            self.core.dispatched += 1;

            let mut node = self.nodes[dst.0].take().expect("node missing");
            {
                let mut ctx = Ctx {
                    inner: CtxInner::Global(&mut self.core),
                    id: dst,
                };
                match kind {
                    EventKind::Msg { from, msg } => node.on_msg(&mut ctx, from, msg),
                    EventKind::Timer { token } => node.on_timer(&mut ctx, token),
                    EventKind::Start => node.on_start(&mut ctx),
                }
            }
            self.nodes[dst.0] = Some(node);
        }
        self.core.now = self.core.now.max(until);
    }

    /// Run for an additional duration of simulated time.
    pub fn run_for(&mut self, d: Nanos) {
        let until = self.core.now + d;
        self.run_until(until);
    }

    // ---- sharded dispatch -------------------------------------------------

    /// Partition the node space into parallel dispatch lanes (cell-group
    /// shards). `lane_of[i]` is node `i`'s lane; lane 0 is conventionally
    /// the spine domain (core network, recovery orchestrator, spare
    /// pool). Must be called after every node and link is registered and
    /// before the first run.
    ///
    /// Lanes advance independently between slot barriers (every
    /// [`crate::time::SLOT_DURATION`]); cross-lane messages and liveness
    /// changes are staged on per-lane outboxes and applied serially at
    /// the barrier, with delivery times quantized up to the barrier
    /// instant. Because each lane owns its own event queue, RNG stream
    /// (pre-split per lane), links, and trace staging buffer, the result
    /// is byte-identical for every `set_exec_shards` value and every
    /// worker count.
    pub fn enable_shards(&mut self, lane_of: Vec<u32>, n_lanes: usize) {
        assert!(
            !self.started,
            "enable_shards must be called before the first run"
        );
        assert!(self.fabric.is_none(), "enable_shards called twice");
        assert_eq!(
            lane_of.len(),
            self.nodes.len(),
            "lane_of must cover every node"
        );
        assert!(n_lanes >= 1, "need at least one lane");
        assert!(
            lane_of.iter().all(|&l| (l as usize) < n_lanes),
            "lane index out of range"
        );
        let lane_of = Arc::new(lane_of);
        let n_nodes = self.nodes.len();
        let names = Arc::new(self.core.names.clone());
        let mut lanes: Vec<LaneCore<M>> = (0..n_lanes)
            .map(|i| LaneCore {
                now: self.core.now,
                seq: self.core.seq,
                queue: CalendarQueue::new(),
                links: LinkTable::default(),
                alive: vec![MEMBER_NONE; n_nodes],
                alive_view: Arc::new(Vec::new()),
                alive_dirty: false,
                local: vec![NOT_LOCAL; n_nodes],
                members: Vec::new(),
                names: Arc::clone(&names),
                rng: self.core.rng.split(i as u64),
                trace_hash: 0xcbf2_9ce4_8422_2325,
                dispatched: 0,
                busy_ns: 0,
                trace: self.core.trace.fork_staging(),
                outbox: Vec::new(),
                pool: self.core.pool.clone(),
                profiler: self.core.profiler.clone(),
                kernels: self.core.kernels,
            })
            .collect();
        for (i, &l) in lane_of.iter().enumerate() {
            let lane = &mut lanes[l as usize];
            lane.local[i] = lane.members.len() as u32;
            lane.members.push(i);
            lane.alive[i] = if self.core.alive[i] {
                MEMBER_ALIVE
            } else {
                MEMBER_DEAD
            };
        }
        // A link belongs to its sender's lane: the sender's clock and
        // RNG run the link model, so fault draws stay shard-invariant.
        for (from, to, link) in self.core.links.drain_all() {
            let l = lane_of[from.0] as usize;
            lanes[l].links.insert(from, to, link);
        }
        // Pending events go to the destination's lane, keeping their
        // original (at, seq) so relative order survives the handoff.
        for (at, seq, (dst, kind)) in self.core.queue.drain_sorted() {
            let l = lane_of.get(dst.0).copied().unwrap_or(0) as usize;
            lanes[l].queue.push(at, seq, (dst, kind));
        }
        let quantum = crate::time::SLOT_DURATION;
        let next_barrier = Nanos((self.core.now.0 / quantum.0 + 1) * quantum.0);
        self.fabric = Some(Fabric {
            lanes: lanes.into_iter().map(Some).collect(),
            lane_of,
            next_barrier,
            quantum,
            exec_shards: n_lanes,
            outbox_scratch: Vec::new(),
            merge_scratch: Vec::new(),
        });
        self.refresh_alive_view();
    }

    /// How many parallel jobs the lane set is chunked into per window.
    /// Purely an execution knob — any value yields the same trace. No-op
    /// unless sharding is enabled.
    pub fn set_exec_shards(&mut self, k: usize) {
        if let Some(fabric) = self.fabric.as_mut() {
            fabric.exec_shards = k.max(1);
        }
    }

    /// True when [`Engine::enable_shards`] has installed dispatch lanes.
    pub fn is_sharded(&self) -> bool {
        self.fabric.is_some()
    }

    fn run_until_sharded(&mut self, until: Nanos) {
        self.start_if_needed();
        loop {
            let (barrier, quantum) = {
                let fabric = self.fabric.as_ref().expect("fabric");
                (fabric.next_barrier, fabric.quantum)
            };
            if barrier > until {
                self.advance_lanes_to(until);
                self.merge_lane_traces();
                break;
            }
            self.advance_lanes_to(barrier);
            self.barrier_sync(barrier);
            self.fabric.as_mut().expect("fabric").next_barrier = barrier + quantum;
            // Early exit once the whole fabric is quiescent: no queued
            // events, no staged cross-lane traffic.
            let idle = {
                let fabric = self.fabric.as_ref().expect("fabric");
                fabric
                    .lanes
                    .iter()
                    .flatten()
                    .all(|l| l.queue.is_empty() && l.outbox.is_empty())
            };
            if idle {
                self.advance_lanes_to(until);
                break;
            }
        }
        self.core.now = self.core.now.max(until);
        if let Some(fabric) = self.fabric.as_mut() {
            for lane in fabric.lanes.iter_mut().flatten() {
                lane.now = lane.now.max(until);
            }
        }
    }

    /// Advance every lane to `target`, chunked into `exec_shards`
    /// parallel jobs on the worker pool. Each job owns its lanes' state
    /// and node boxes for the duration of the window, so no
    /// synchronization happens inside a window.
    fn advance_lanes_to(&mut self, target: Nanos) {
        let n_lanes = self.fabric.as_ref().expect("fabric").lanes.len();
        let shards = self
            .fabric
            .as_ref()
            .expect("fabric")
            .exec_shards
            .clamp(1, n_lanes);
        let mut bundles: Vec<LaneBundle<M>> = Vec::with_capacity(n_lanes);
        {
            let fabric = self.fabric.as_mut().expect("fabric");
            for idx in 0..n_lanes {
                let lane = fabric.lanes[idx].take().expect("lane in place");
                let mut nodes: Vec<Option<Box<dyn Node<M>>>> =
                    Vec::with_capacity(lane.members.len());
                for &m in &lane.members {
                    nodes.push(Some(self.nodes[m].take().expect("node missing")));
                }
                bundles.push(LaneBundle { idx, lane, nodes });
            }
        }
        // Contiguous, near-even chunks; chunk boundaries cannot affect
        // the result because lane windows are fully independent.
        let base = n_lanes / shards;
        let extra = n_lanes % shards;
        let mut jobs: Vec<Box<dyn FnOnce() -> Vec<LaneBundle<M>> + Send>> =
            Vec::with_capacity(shards);
        let mut rest = bundles;
        for c in 0..shards {
            let take = base + usize::from(c < extra);
            let tail = rest.split_off(take.min(rest.len()));
            let mut chunk = rest;
            rest = tail;
            jobs.push(Box::new(move || {
                for b in &mut chunk {
                    run_lane_window(&mut b.lane, &mut b.nodes, target);
                }
                chunk
            }));
        }
        let done = self.core.pool.run(jobs);
        let fabric = self.fabric.as_mut().expect("fabric");
        for bundle in done.into_iter().flatten() {
            let LaneBundle {
                idx,
                lane,
                mut nodes,
            } = bundle;
            for (slot, &m) in lane.members.iter().enumerate() {
                self.nodes[m] = Some(nodes[slot].take().expect("node returned"));
            }
            fabric.lanes[idx] = Some(lane);
        }
    }

    /// Serial synchronization at a slot barrier: merge staged traces in
    /// lane order, drain every outbox (lane order = deterministic), and
    /// refresh the fleet-wide liveness snapshot.
    fn barrier_sync(&mut self, barrier: Nanos) {
        let _s = self
            .core
            .profiler
            .span("barrier_merge", barrier.0 / SLOT_NS);
        self.merge_lane_traces();
        let n_lanes = self.fabric.as_ref().expect("fabric").lanes.len();
        for idx in 0..n_lanes {
            self.drain_outbox_of(idx, barrier);
        }
        self.refresh_alive_view();
        self.core.now = barrier;
    }

    /// Apply one lane's staged cross-lane effects. `floor` is the
    /// barrier instant: deliveries quantize up to it, and liveness
    /// transitions are stamped with it.
    fn drain_outbox_of(&mut self, lane_idx: usize, floor: Nanos) {
        // Swap the lane's outbox with the fabric-held scratch Vec so
        // the drained buffer's capacity is recycled on the next slot
        // instead of dropped (the old `mem::take` freed it every time).
        let mut ops = {
            let fabric = self.fabric.as_mut().expect("fabric");
            let scratch = std::mem::take(&mut fabric.outbox_scratch);
            std::mem::replace(
                &mut fabric.lanes[lane_idx]
                    .as_mut()
                    .expect("lane in place")
                    .outbox,
                scratch,
            )
        };
        for op in ops.drain(..) {
            match op {
                Outbound::Msg {
                    arrive,
                    dst,
                    from,
                    msg,
                } => {
                    let at = arrive.max(floor);
                    let fabric = self.fabric.as_mut().expect("fabric");
                    let l = fabric.lane_of.get(dst.0).copied().unwrap_or(0) as usize;
                    fabric.lanes[l].as_mut().expect("lane in place").push(
                        at,
                        dst,
                        EventKind::Msg { from, msg },
                    );
                }
                Outbound::SetAlive { node, actor, alive } => {
                    self.apply_remote_alive(node, actor, alive, floor);
                }
                Outbound::Restart { node, actor } => {
                    self.apply_remote_alive(node, actor, true, floor);
                    let fabric = self.fabric.as_mut().expect("fabric");
                    let l = fabric.lane_of[node.0] as usize;
                    fabric.lanes[l].as_mut().expect("lane in place").push(
                        floor,
                        node,
                        EventKind::Start,
                    );
                }
            }
        }
        self.fabric.as_mut().expect("fabric").outbox_scratch = ops;
    }

    fn apply_remote_alive(&mut self, node: NodeId, actor: NodeId, alive: bool, at: Nanos) {
        let changed = {
            let fabric = self.fabric.as_mut().expect("fabric");
            let l = fabric.lane_of[node.0] as usize;
            let lane = fabric.lanes[l].as_mut().expect("lane in place");
            let slot = &mut lane.alive[node.0];
            assert!(*slot != MEMBER_NONE, "not a lane member");
            let next = if alive { MEMBER_ALIVE } else { MEMBER_DEAD };
            if *slot == next {
                false
            } else {
                *slot = next;
                lane.alive_dirty = true;
                true
            }
        };
        if changed {
            let kind = if alive {
                TraceEventKind::NodeRevived
            } else {
                TraceEventKind::NodeKilled
            };
            self.core.trace.record(at, actor, kind, node.0 as u64, 0);
        }
    }

    /// Rebuild the fleet-wide liveness snapshot every lane reads for
    /// cross-lane queries during the next window. Skipped entirely when
    /// no lane recorded a liveness transition since the last rebuild —
    /// the common case, sparing a fleet-sized allocation per barrier.
    fn refresh_alive_view(&mut self) {
        let fabric = self.fabric.as_mut().expect("fabric");
        let n = self.nodes.len();
        let stale = fabric
            .lanes
            .iter()
            .flatten()
            .any(|l| l.alive_dirty || l.alive_view.len() != n);
        if !stale {
            return;
        }
        let mut view = vec![false; n];
        for lane in fabric.lanes.iter().flatten() {
            for (id, &state) in lane.alive.iter().enumerate() {
                if state != MEMBER_NONE {
                    view[id] = state == MEMBER_ALIVE;
                }
            }
        }
        let view = Arc::new(view);
        for lane in fabric.lanes.iter_mut().flatten() {
            lane.alive_view = Arc::clone(&view);
            lane.alive_dirty = false;
        }
    }

    /// Move every lane's staged trace events into the global buffer,
    /// time-sorted (stable, so lane order breaks ties — deterministic
    /// for every shard and worker count).
    fn merge_lane_traces(&mut self) {
        let fabric = self.fabric.as_mut().expect("fabric");
        let mut staged = std::mem::take(&mut fabric.merge_scratch);
        for lane in fabric.lanes.iter_mut().flatten() {
            lane.trace.drain_events_into(&mut staged);
            lane.trace.sync_filter_from(&self.core.trace);
        }
        // Stable sort: lane order breaks same-instant ties, so the
        // merged stream is deterministic for every shard/worker count.
        staged.sort_by_key(|ev| ev.at);
        for ev in staged.drain(..) {
            self.core.trace.append_event(ev);
        }
        fabric.merge_scratch = staged;
    }
}

#[cfg(feature = "dispatch-histogram")]
pub static DISPATCH_HISTOGRAM: std::sync::Mutex<std::collections::BTreeMap<String, u64>> =
    std::sync::Mutex::new(std::collections::BTreeMap::new());

/// One lane's movable window state: the lane core plus its member nodes
/// (indexed by the lane's `local` map).
struct LaneBundle<M: Message> {
    idx: usize,
    lane: LaneCore<M>,
    nodes: Vec<Option<Box<dyn Node<M>>>>,
}

/// Advance a single lane to `until`: the same pop/dispatch loop as the
/// single-loop engine, against lane-local state only. Runs inside a
/// worker job; everything it touches is owned by the job.
fn run_lane_window<M: Message>(
    lane: &mut LaneCore<M>,
    nodes: &mut [Option<Box<dyn Node<M>>>],
    until: Nanos,
) {
    let window_t0 = std::time::Instant::now();
    let _window_span = lane.profiler.span("lane_dispatch", until.0 / SLOT_NS);
    loop {
        let popped = {
            let _s = lane.profiler.span("queue_pop", lane.now.0 / SLOT_NS);
            lane.queue.pop_le(until)
        };
        let (at, _seq, (dst, kind)) = match popped {
            Some(e) => e,
            None => break,
        };
        debug_assert!(at >= lane.now, "time went backwards");
        lane.now = at;
        let slot = match lane.local.get(dst.0).copied() {
            Some(s) if s != NOT_LOCAL => s as usize,
            _ => continue,
        };
        if lane.alive.get(dst.0).copied().unwrap_or(MEMBER_NONE) != MEMBER_ALIVE {
            continue;
        }
        let kind_tag: u64 = match &kind {
            EventKind::Msg { .. } => 1,
            EventKind::Timer { .. } => 2,
            EventKind::Start => 3,
        };
        let mut h = lane.trace_hash;
        for v in [at.0, dst.0 as u64, kind_tag] {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        lane.trace_hash = h;
        lane.dispatched += 1;
        #[cfg(feature = "dispatch-histogram")]
        {
            let name = lane.names.get(dst.0).cloned().unwrap_or_default();
            let pfx: String = name.chars().take_while(|c| !c.is_ascii_digit()).collect();
            let tag = match &kind {
                EventKind::Msg { .. } => "msg",
                EventKind::Timer { .. } => "timer",
                EventKind::Start => "start",
            };
            *DISPATCH_HISTOGRAM
                .lock()
                .unwrap()
                .entry(format!("{pfx}/{tag}"))
                .or_insert(0u64) += 1;
        }

        let mut node = nodes[slot].take().expect("node missing");
        {
            let mut ctx = Ctx {
                inner: CtxInner::Lane(lane),
                id: dst,
            };
            match kind {
                EventKind::Msg { from, msg } => node.on_msg(&mut ctx, from, msg),
                EventKind::Timer { token } => node.on_timer(&mut ctx, token),
                EventKind::Start => node.on_start(&mut ctx),
            }
        }
        nodes[slot] = Some(node);
    }
    lane.now = lane.now.max(until);
    lane.busy_ns += window_t0.elapsed().as_nanos() as u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct TestMsg(u64, usize);

    impl Message for TestMsg {
        fn wire_size(&self) -> usize {
            self.1
        }

        fn duplicate(&self) -> Option<Self> {
            Some(TestMsg(self.0, self.1))
        }
    }

    #[derive(Default)]
    struct Recorder {
        got: Vec<(u64, Nanos)>,
        timers: Vec<(u64, Nanos)>,
    }

    impl Node<TestMsg> for Recorder {
        fn on_msg(&mut self, ctx: &mut Ctx<'_, TestMsg>, _from: NodeId, msg: TestMsg) {
            self.got.push((msg.0, ctx.now()));
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, token: u64) {
            self.timers.push((token, ctx.now()));
        }
    }

    struct Pinger {
        peer: NodeId,
        sent: u64,
    }

    impl Node<TestMsg> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            ctx.timer(Nanos(100), 0);
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, _token: u64) {
            ctx.send(self.peer, TestMsg(self.sent, 100));
            self.sent += 1;
            if self.sent < 5 {
                ctx.timer(Nanos(100), 0);
            }
        }

        fn on_msg(&mut self, _ctx: &mut Ctx<'_, TestMsg>, _from: NodeId, _msg: TestMsg) {}
    }

    fn engine() -> Engine<TestMsg> {
        Engine::new(1)
    }

    #[test]
    fn delivers_in_time_order() {
        let mut e = engine();
        let r = e.add_node("r", Box::new(Recorder::default()));
        e.post(Nanos(300), r, TestMsg(3, 0));
        e.post(Nanos(100), r, TestMsg(1, 0));
        e.post(Nanos(200), r, TestMsg(2, 0));
        e.run_until(Nanos(1000));
        let rec = e.node::<Recorder>(r).unwrap();
        assert_eq!(
            rec.got,
            vec![(1, Nanos(100)), (2, Nanos(200)), (3, Nanos(300)),]
        );
    }

    #[test]
    fn simultaneous_events_fifo_by_insertion() {
        let mut e = engine();
        let r = e.add_node("r", Box::new(Recorder::default()));
        e.post(Nanos(100), r, TestMsg(1, 0));
        e.post(Nanos(100), r, TestMsg(2, 0));
        e.run_until(Nanos(100));
        let rec = e.node::<Recorder>(r).unwrap();
        assert_eq!(rec.got.iter().map(|g| g.0).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn run_until_stops_at_boundary() {
        let mut e = engine();
        let r = e.add_node("r", Box::new(Recorder::default()));
        e.post(Nanos(100), r, TestMsg(1, 0));
        e.post(Nanos(201), r, TestMsg(2, 0));
        e.run_until(Nanos(200));
        assert_eq!(e.now(), Nanos(200));
        assert_eq!(e.node::<Recorder>(r).unwrap().got.len(), 1);
        e.run_until(Nanos(300));
        assert_eq!(e.node::<Recorder>(r).unwrap().got.len(), 2);
    }

    #[test]
    fn link_latency_and_serialization() {
        let mut e = engine();
        let a = e.add_node(
            "a",
            Box::new(Pinger {
                peer: NodeId(1),
                sent: 0,
            }),
        );
        let r = e.add_node("r", Box::new(Recorder::default()));
        // 100 byte msg at 1 Gbps = 800 ns serialization; latency 1000 ns.
        e.connect(a, r, LinkParams::with_bandwidth(Nanos(1000), 1_000_000_000));
        e.run_until(Nanos(10_000));
        let rec = e.node::<Recorder>(r).unwrap();
        assert_eq!(rec.got.len(), 5);
        assert_eq!(rec.got[0].1, Nanos(100 + 800 + 1000));
    }

    #[test]
    fn link_fifo_queueing_backlog() {
        // Two messages sent at the same instant must serialize one after
        // the other.
        #[derive(Default)]
        struct Burst {
            peer: Option<NodeId>,
        }
        impl Node<TestMsg> for Burst {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
                ctx.timer(Nanos(0), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, _token: u64) {
                let peer = self.peer.unwrap();
                ctx.send(peer, TestMsg(1, 1000));
                ctx.send(peer, TestMsg(2, 1000));
            }
            fn on_msg(&mut self, _c: &mut Ctx<'_, TestMsg>, _f: NodeId, _m: TestMsg) {}
        }
        let mut e = engine();
        let a = e.add_node("a", Box::new(Burst { peer: None }));
        let r = e.add_node("r", Box::new(Recorder::default()));
        e.node_mut::<Burst>(a).unwrap().peer = Some(r);
        // 1000 bytes at 1 Gbps = 8000 ns each.
        e.connect(a, r, LinkParams::with_bandwidth(Nanos(0), 1_000_000_000));
        e.run_until(Nanos(100_000));
        let rec = e.node::<Recorder>(r).unwrap();
        assert_eq!(rec.got[0].1, Nanos(8_000));
        assert_eq!(rec.got[1].1, Nanos(16_000));
    }

    #[test]
    fn killed_node_receives_nothing() {
        let mut e = engine();
        let r = e.add_node("r", Box::new(Recorder::default()));
        e.post(Nanos(100), r, TestMsg(1, 0));
        e.post(Nanos(300), r, TestMsg(2, 0));
        e.run_until(Nanos(150));
        e.kill(r);
        e.run_until(Nanos(400));
        assert_eq!(e.node::<Recorder>(r).unwrap().got.len(), 1);
        // Revive: future events are delivered again.
        e.revive(r);
        e.post(Nanos(500), r, TestMsg(3, 0));
        e.run_until(Nanos(600));
        assert_eq!(e.node::<Recorder>(r).unwrap().got.len(), 2);
    }

    #[test]
    fn drop_chance_one_drops_everything() {
        let mut e = engine();
        let a = e.add_node(
            "a",
            Box::new(Pinger {
                peer: NodeId(1),
                sent: 0,
            }),
        );
        let r = e.add_node("r", Box::new(Recorder::default()));
        e.connect(a, r, LinkParams::ideal(Nanos(10)).drop_chance(1.0));
        e.run_until(Nanos(10_000));
        assert_eq!(e.node::<Recorder>(r).unwrap().got.len(), 0);
        let stats = e.link_stats(a, r).unwrap();
        assert_eq!(stats.sent, 5);
        assert_eq!(stats.dropped, 5);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut e: Engine<TestMsg> = Engine::new(seed);
            let a = e.add_node(
                "a",
                Box::new(Pinger {
                    peer: NodeId(1),
                    sent: 0,
                }),
            );
            let r = e.add_node("r", Box::new(Recorder::default()));
            e.connect(a, r, LinkParams::ideal(Nanos(17)).drop_chance(0.3));
            e.run_until(Nanos(100_000));
            (e.trace_hash(), e.dispatched())
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99).0, run(100).0);
    }

    #[test]
    fn timer_tokens_roundtrip() {
        struct T;
        impl Node<TestMsg> for T {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
                ctx.timer(Nanos(5), 42);
                ctx.timer_at(Nanos(3), 7);
            }
            fn on_msg(&mut self, _c: &mut Ctx<'_, TestMsg>, _f: NodeId, _m: TestMsg) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, token: u64) {
                if token == 42 {
                    ctx.send_in(NodeId(1), Nanos(1), TestMsg(token, 0));
                } else {
                    ctx.send_in(NodeId(1), Nanos(1), TestMsg(token, 0));
                }
            }
        }
        let mut e = engine();
        let _t = e.add_node("t", Box::new(T));
        let r = e.add_node("r", Box::new(Recorder::default()));
        e.run_until(Nanos(100));
        let rec = e.node::<Recorder>(r).unwrap();
        assert_eq!(rec.got, vec![(7, Nanos(4)), (42, Nanos(6))]);
    }

    #[test]
    fn send_link_in_applies_link_semantics() {
        struct Delayed {
            peer: NodeId,
        }
        impl Node<TestMsg> for Delayed {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
                ctx.timer(Nanos(100), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, _t: u64) {
                // 2000 ns of local processing before the NIC sends.
                ctx.send_link_in(self.peer, Nanos(2_000), TestMsg(1, 1000));
            }
            fn on_msg(&mut self, _c: &mut Ctx<'_, TestMsg>, _f: NodeId, _m: TestMsg) {}
        }
        let mut e = engine();
        let a = e.add_node("a", Box::new(Delayed { peer: NodeId(1) }));
        let r = e.add_node("r", Box::new(Recorder::default()));
        // 1000 B at 1 Gbps = 8000 ns serialization, plus 500 ns latency.
        e.connect(a, r, LinkParams::with_bandwidth(Nanos(500), 1_000_000_000));
        e.run_until(Nanos(50_000));
        let rec = e.node::<Recorder>(r).unwrap();
        assert_eq!(rec.got, vec![(1, Nanos(100 + 2_000 + 8_000 + 500))]);
    }

    #[test]
    fn send_link_in_subject_to_drops() {
        struct Delayed {
            peer: NodeId,
        }
        impl Node<TestMsg> for Delayed {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
                ctx.timer(Nanos(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, _t: u64) {
                ctx.send_link_in(self.peer, Nanos(10), TestMsg(1, 10));
            }
            fn on_msg(&mut self, _c: &mut Ctx<'_, TestMsg>, _f: NodeId, _m: TestMsg) {}
        }
        let mut e = engine();
        let a = e.add_node("a", Box::new(Delayed { peer: NodeId(1) }));
        let r = e.add_node("r", Box::new(Recorder::default()));
        e.connect(a, r, LinkParams::ideal(Nanos(10)).drop_chance(1.0));
        e.run_until(Nanos(10_000));
        assert!(e.node::<Recorder>(r).unwrap().got.is_empty());
        assert_eq!(e.link_stats(a, r).unwrap().dropped, 1);
    }

    #[test]
    fn dup_chance_one_duplicates_everything() {
        let mut e = engine();
        let a = e.add_node(
            "a",
            Box::new(Pinger {
                peer: NodeId(1),
                sent: 0,
            }),
        );
        let r = e.add_node("r", Box::new(Recorder::default()));
        e.connect(a, r, LinkParams::ideal(Nanos(10)).dup_chance(1.0));
        e.run_until(Nanos(10_000));
        let rec = e.node::<Recorder>(r).unwrap();
        assert_eq!(rec.got.len(), 10); // 5 sent, each doubled
                                       // Original first, copy immediately behind at the same instant.
        assert_eq!(rec.got[0], (0, Nanos(110)));
        assert_eq!(rec.got[1], (0, Nanos(110)));
        assert_eq!(e.link_stats(a, r).unwrap().duplicated, 5);
    }

    #[test]
    fn reorder_hold_lets_later_messages_overtake() {
        #[derive(Default)]
        struct Burst {
            peer: Option<NodeId>,
        }
        impl Node<TestMsg> for Burst {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
                ctx.timer(Nanos(0), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, _token: u64) {
                let peer = self.peer.unwrap();
                ctx.send(peer, TestMsg(1, 0));
                ctx.send(peer, TestMsg(2, 0));
            }
            fn on_msg(&mut self, _c: &mut Ctx<'_, TestMsg>, _f: NodeId, _m: TestMsg) {}
        }
        let mut e = engine();
        let a = e.add_node("a", Box::new(Burst { peer: None }));
        let r = e.add_node("r", Box::new(Recorder::default()));
        e.node_mut::<Burst>(a).unwrap().peer = Some(r);
        // Every message is "reordered", but the hold is constant, so the
        // pair keeps relative order; a probabilistic hold shuffles. Use
        // two sends where only the first draw selects (chance 1.0 both —
        // constant hold keeps order; assert the hold applied).
        e.connect(a, r, LinkParams::ideal(Nanos(10)).reorder(1.0, Nanos(500)));
        e.run_until(Nanos(10_000));
        let rec = e.node::<Recorder>(r).unwrap();
        assert_eq!(rec.got[0].1, Nanos(510));
        // Partial reordering: only message 1 held back, message 2 passes.
        let mut e = engine();
        let a = e.add_node("a", Box::new(Burst { peer: None }));
        let r = e.add_node("r", Box::new(Recorder::default()));
        e.node_mut::<Burst>(a).unwrap().peer = Some(r);
        e.connect(a, r, LinkParams::ideal(Nanos(10)));
        e.run_until(Nanos(10_000));
        let baseline: Vec<u64> = e
            .node::<Recorder>(r)
            .unwrap()
            .got
            .iter()
            .map(|g| g.0)
            .collect();
        assert_eq!(baseline, vec![1, 2]);
    }

    #[test]
    fn restart_reruns_on_start() {
        struct Beater {
            beats: u64,
        }
        impl Node<TestMsg> for Beater {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
                ctx.timer(Nanos(100), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, _t: u64) {
                self.beats += 1;
                ctx.timer(Nanos(100), 0);
            }
            fn on_msg(&mut self, _c: &mut Ctx<'_, TestMsg>, _f: NodeId, _m: TestMsg) {}
        }
        let mut e = engine();
        let b = e.add_node("b", Box::new(Beater { beats: 0 }));
        e.run_until(Nanos(1_000));
        let after_first = e.node::<Beater>(b).unwrap().beats;
        assert!(after_first >= 9);
        // Kill: the timer chain dies with the node.
        e.kill(b);
        e.run_until(Nanos(2_000));
        assert_eq!(e.node::<Beater>(b).unwrap().beats, after_first);
        // Plain revive does NOT resurrect the chain...
        e.revive(b);
        e.run_until(Nanos(3_000));
        assert_eq!(e.node::<Beater>(b).unwrap().beats, after_first);
        // ...but restart re-runs on_start, which re-arms it.
        e.kill(b);
        e.restart(b);
        e.run_until(Nanos(4_000));
        assert!(e.node::<Beater>(b).unwrap().beats > after_first);
    }

    #[test]
    fn reconfigure_link_applies() {
        let mut e = engine();
        let a = e.add_node(
            "a",
            Box::new(Pinger {
                peer: NodeId(1),
                sent: 0,
            }),
        );
        let r = e.add_node("r", Box::new(Recorder::default()));
        e.connect(a, r, LinkParams::ideal(Nanos(10)));
        e.run_until(Nanos(150)); // first send at t=100 arrives t=110
        e.reconfigure_link(a, r, LinkParams::ideal(Nanos(10)).drop_chance(1.0));
        e.run_until(Nanos(10_000));
        assert_eq!(e.node::<Recorder>(r).unwrap().got.len(), 1);
    }
}
