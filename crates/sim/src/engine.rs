//! The discrete-event simulation engine.
//!
//! The engine owns a set of [`Node`]s identified by [`NodeId`] and runs
//! them in 1..n *lanes*. A lane is one event domain — a clock, a
//! priority queue of pending events, an RNG stream, the links its
//! members send on — and a node belongs to exactly one. A fresh engine
//! has one lane owning everything; [`Engine::enable_shards`]
//! re-partitions it into several. There is one execution model for
//! every lane count ([`Engine::run_until`]): windows that end at slot
//! barriers, lanes independent inside a window, cross-lane effects
//! applied serially at the barrier. Within a lane, a node may defer a
//! continuation to the end of the current instant ([`Ctx::defer`]),
//! and the members share lane-owned state ([`Ctx::lane_state`]): the
//! PHYs of a lane pool an instant's LDPC work into shared batches, so
//! code blocks of different PHYs fill one lockstep decode.
//!
//! Nodes exchange messages of a single application-defined type `M`
//! (an enum in the higher-level crates covering Ethernet frames, radio
//! bursts, and control messages). Links model propagation latency,
//! serialization delay at a configured bandwidth, FIFO queueing, and
//! optional fault injection.
//!
//! Dispatch is deterministic: the same master seed and the same
//! sequence of API calls produce byte-identical event traces (see
//! [`Engine::trace_hash`]), whatever the number of threads. Lane
//! windows are the only parallel work: an engine of several lanes set
//! to `w` workers runs each window on `w − 1` runner threads plus the
//! calling thread, which claim chunks of lanes as they come free, and a
//! node's callback runs serially on the thread that runs its lane;
//! because lanes carry pre-split RNG streams and merge in lane order at
//! each barrier, the trace is independent of the worker count.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;

use crate::equeue::CalendarQueue;
use crate::kernels::KernelConfig;
use crate::metrics::{InstrumentSink, MetricsRegistry};
use crate::profiler::SpanProfiler;
use crate::rng::SimRng;
use crate::runner::{unit_range, LaneRunner};
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

    /// A continuation this node deferred with [`Ctx::defer`] runs: every
    /// event at the current instant has been dispatched.
    fn on_deferred(&mut self, _ctx: &mut Ctx<'_, M>, _token: u64) {}

    /// Publish everything this node measures under `scope` (its name),
    /// as absolute totals: [`Engine::publish_node_metrics`] snapshots
    /// every node through this. Nodes that measure nothing keep the
    /// default.
    fn instrument(&self, _scope: &str, _sink: &mut dyn InstrumentSink) {}
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
    /// An end-of-instant continuation ([`Ctx::defer`]). Never queued:
    /// the lane runs it from its deferral list.
    Deferred {
        token: u64,
    },
}

/// `Lane::local` sentinel: node is not a member of this lane.
const NOT_LOCAL: u32 = u32::MAX;

/// FNV-1a parameters of the dispatch-stream hash.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Queue payload: destination plus event body. The `(at, seq)` key
/// lives in the calendar queue's bucket heaps; payloads sit in its
/// arena and never move once inserted (see [`crate::equeue`]).
type Queued<M> = (NodeId, EventKind<M>);

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

/// The link model: FIFO serialization at the configured bandwidth, then
/// fault injection. All probability draws come from `rng` (the lane
/// that owns the link) and are gated on a non-zero chance so links
/// without faults consume no RNG state — this keeps pre-existing seeds
/// byte-identical and makes cross-lane sends shard-invariant (the
/// sender's lane always draws).
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

/// A cross-lane side effect staged during a window, applied serially at
/// the next slot barrier in (lane index, emission) order. Keeping
/// kills/restarts in the same FIFO stream as messages preserves a
/// node's emission order across the barrier (e.g. a deferred restart's
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

/// Engine-wide settings a callback reads through its [`Ctx`]. The
/// engine holds the one authoritative copy and hands every lane the
/// current values at the top of each `run_until`, so a setter called at
/// any point between runs is seen by the next window.
#[derive(Clone)]
struct Env {
    profiler: SpanProfiler,
    kernels: KernelConfig,
    /// Node names, indexed by `NodeId`.
    names: Arc<Vec<String>>,
}

fn alive_kind(alive: bool) -> TraceEventKind {
    if alive {
        TraceEventKind::NodeRevived
    } else {
        TraceEventKind::NodeKilled
    }
}

/// One independent event domain: its own clock, queue, RNG stream,
/// links, member nodes with their liveness, staged trace and outbox.
/// An engine is 1..n lanes; they advance in parallel between slot
/// barriers and exchange effects only through their outboxes, drained
/// serially at barriers — so the trace is byte-identical for any shard
/// or worker count.
struct Lane<M: Message> {
    now: Nanos,
    seq: u64,
    queue: CalendarQueue<Queued<M>>,
    links: LinkTable,
    /// Node id -> slot in `nodes` / `alive` (`NOT_LOCAL` for
    /// non-members). Plain index, no hashing: this is read on every
    /// dispatched event.
    local: Vec<u32>,
    /// Member nodes; a slot is `None` only while that node's own
    /// callback runs.
    nodes: Vec<Option<Box<dyn Node<M>>>>,
    /// Authoritative liveness of each member.
    alive: Vec<bool>,
    /// Fleet-wide liveness snapshot, rebuilt at barriers after a
    /// liveness transition. Cross-lane `is_alive`/send checks read this
    /// (stale by at most one slot); the destination lane's
    /// dispatch-time check stays authoritative.
    alive_view: Arc<Vec<bool>>,
    /// Set on any member liveness transition; cleared when the fleet
    /// snapshot is rebuilt. Lets quiescent barriers skip the rebuild.
    alive_dirty: bool,
    /// Draws of the link model on the links this lane owns; nothing
    /// else reads it.
    rng: SimRng,
    /// FNV hash over this lane's dispatched `(time, dst, kind)` stream.
    hash: u64,
    dispatched: u64,
    /// Wall-clock nanoseconds this lane spent executing its windows.
    /// Measurement only — never read by simulation logic, so it cannot
    /// perturb determinism. Drives the scale bench's per-shard
    /// real-time budget (a lane is sustainable when its per-slot busy
    /// time fits within the slot duration).
    busy_ns: u64,
    /// Wall-clock nanoseconds of the last window alone.
    window_ns: u64,
    /// Staged trace events, merged into the engine's buffer at barriers.
    trace: TraceBuffer,
    outbox: Vec<Outbound<M>>,
    /// End-of-instant continuations `(node, token)` in deferral order
    /// ([`Ctx::defer`]); a kill cancels its node's entries in place by
    /// setting the node to [`NodeId::EXTERNAL`].
    deferred: VecDeque<(NodeId, u64)>,
    /// Lane-owned state, one value per type ([`Ctx::lane_state`]).
    states: Vec<Box<dyn Any + Send>>,
    env: Env,
}

impl<M: Message> Lane<M> {
    fn new(rng: SimRng, env: Env, now: Nanos, seq: u64) -> Lane<M> {
        Lane {
            now,
            seq,
            queue: CalendarQueue::new(),
            links: LinkTable::default(),
            local: Vec::new(),
            nodes: Vec::new(),
            alive: Vec::new(),
            alive_view: Arc::new(Vec::new()),
            alive_dirty: false,
            rng,
            hash: FNV_OFFSET,
            dispatched: 0,
            busy_ns: 0,
            window_ns: 0,
            trace: TraceBuffer::default(),
            outbox: Vec::new(),
            deferred: VecDeque::new(),
            states: Vec::new(),
            env,
        }
    }

    /// Make `node` a member (registration, or re-partitioning).
    fn adopt(&mut self, id: NodeId, node: Box<dyn Node<M>>, alive: bool) {
        if self.local.len() <= id.0 {
            self.local.resize(id.0 + 1, NOT_LOCAL);
        }
        self.local[id.0] = self.nodes.len() as u32;
        self.nodes.push(Some(node));
        self.alive.push(alive);
    }

    fn slot_of(&self, node: NodeId) -> Option<usize> {
        match self.local.get(node.0) {
            Some(&s) if s != NOT_LOCAL => Some(s as usize),
            _ => None,
        }
    }

    fn node_alive(&self, node: NodeId) -> bool {
        match self.slot_of(node) {
            Some(slot) => self.alive[slot],
            None => self.alive_view.get(node.0).copied().unwrap_or(false),
        }
    }

    /// Set the liveness of `node`, a member in `slot`. `true` when this
    /// was a transition, which the caller then traces — repeated kills
    /// do not pollute the timeline. A kill cancels the node's pending
    /// continuations, so a node revived at the same instant gets none.
    fn flip_alive(&mut self, node: NodeId, slot: usize, alive: bool) -> bool {
        if self.alive[slot] == alive {
            return false;
        }
        self.alive[slot] = alive;
        self.alive_dirty = true;
        if !alive {
            for entry in self.deferred.iter_mut().filter(|(n, _)| *n == node) {
                entry.0 = NodeId::EXTERNAL;
            }
        }
        true
    }

    /// Kill or revive `node` on behalf of `actor`: at once for a member,
    /// at the next slot barrier for a node of another lane.
    fn set_alive(&mut self, node: NodeId, actor: NodeId, alive: bool) {
        match self.slot_of(node) {
            Some(slot) => {
                if self.flip_alive(node, slot, alive) {
                    self.trace
                        .record(self.now, actor, alive_kind(alive), node.0 as u64, 0);
                }
            }
            None => self.outbox.push(Outbound::SetAlive { node, actor, alive }),
        }
    }

    fn push(&mut self, at: Nanos, dst: NodeId, kind: EventKind<M>) {
        let _s = self.env.profiler.span("queue_push", at.0 / SLOT_NS);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at, seq, (dst, kind));
    }

    /// Queue `msg` for `dst`: on this lane's queue for a member, staged
    /// on the outbox otherwise.
    fn route(&mut self, arrive: Nanos, dst: NodeId, from: NodeId, msg: M) {
        if self.slot_of(dst).is_some() {
            self.push(arrive, dst, EventKind::Msg { from, msg });
        } else {
            self.outbox.push(Outbound::Msg {
                arrive,
                dst,
                from,
                msg,
            });
        }
    }

    /// Send along the link `from -> dst` (owned by this lane, as every
    /// link lives with its sender) with `depart_floor` as the earliest
    /// departure. The link model and RNG draw run here whether or not
    /// `dst` is a member, so the outcome does not depend on lane count.
    fn send_via_link(&mut self, from: NodeId, dst: NodeId, depart_floor: Nanos, msg: M) -> bool {
        if !self.node_alive(dst) {
            // Messages to a crashed node vanish, as frames to a dead
            // server would — but the link records the loss.
            if let Some(link) = self.links.get_mut(from, dst) {
                link.dropped += 1;
            }
            return false;
        }
        let now = depart_floor.max(self.now);
        let link = match self.links.get_mut(from, dst) {
            Some(l) => l,
            None => {
                let name = |id: NodeId| self.env.names.get(id.0).map(String::as_str);
                panic!(
                    "no link {} -> {}; use connect() or send_in()",
                    name(from).unwrap_or("ext"),
                    name(dst).unwrap_or("?"),
                )
            }
        };
        match link_transmit(link, &mut self.rng, now, msg) {
            LinkOutcome::Lost => false,
            LinkOutcome::Deliver { arrive, msg, copy } => {
                if let Some(copy) = copy {
                    // The copy lands at the same instant; FIFO seq ordering
                    // preserves the original/copy pair's relative order.
                    self.route(arrive, dst, from, copy);
                }
                self.route(arrive, dst, from, msg);
                true
            }
        }
    }

    /// Run one callback of the member in `slot`.
    fn deliver(&mut self, slot: usize, dst: NodeId, kind: EventKind<M>) {
        let mut node = self.nodes[slot].take().expect("node missing");
        let mut ctx = Ctx {
            lane: &mut *self,
            id: dst,
        };
        match kind {
            EventKind::Msg { from, msg } => node.on_msg(&mut ctx, from, msg),
            EventKind::Timer { token } => node.on_timer(&mut ctx, token),
            EventKind::Start => node.on_start(&mut ctx),
            EventKind::Deferred { token } => node.on_deferred(&mut ctx, token),
        }
        self.nodes[slot] = Some(node);
    }

    /// Mix one dispatch `(time, dst, kind)` into the stream hash.
    fn hash_dispatch(&mut self, at: Nanos, dst: NodeId, kind_tag: u64) {
        for v in [at.0, dst.0 as u64, kind_tag] {
            self.hash ^= v;
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
    }

    /// Run the first pending end-of-instant continuation, if its node
    /// is still a live member.
    fn run_deferred(&mut self) {
        let Some((node, token)) = self.deferred.pop_front() else {
            return;
        };
        if let Some(slot) = self.slot_of(node).filter(|&s| self.alive[s]) {
            self.hash_dispatch(self.now, node, 4);
            self.deliver(slot, node, EventKind::Deferred { token });
        }
    }

    /// Advance to `until`: pop and dispatch every queued event at or
    /// before it, against lane-local state only, on whichever thread
    /// claimed the lane's unit for this window. Whenever
    /// no event is left at the current instant, the first continuation
    /// deferred at it runs; the clock moves — and the window returns —
    /// only once none is left.
    fn run_window(&mut self, until: Nanos) {
        let window_t0 = std::time::Instant::now();
        let _window_span = self.env.profiler.span("lane_dispatch", until.0 / SLOT_NS);
        loop {
            if !self.deferred.is_empty() && self.queue.peek_at().is_none_or(|at| at > self.now) {
                self.run_deferred();
                continue;
            }
            let popped = {
                let _s = self.env.profiler.span("queue_pop", self.now.0 / SLOT_NS);
                self.queue.pop_le(until)
            };
            let (at, _seq, (dst, kind)) = match popped {
                Some(e) => e,
                None => break,
            };
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            let slot = match self.slot_of(dst) {
                Some(slot) if self.alive[slot] => slot,
                _ => continue,
            };
            // Mixes (time, dst, kind) for determinism checks.
            let kind_tag: u64 = match &kind {
                EventKind::Msg { .. } => 1,
                EventKind::Timer { .. } => 2,
                EventKind::Start => 3,
                EventKind::Deferred { .. } => unreachable!("continuations are never queued"),
            };
            self.hash_dispatch(at, dst, kind_tag);
            self.dispatched += 1;
            self.deliver(slot, dst, kind);
        }
        self.now = self.now.max(until);
        self.window_ns = window_t0.elapsed().as_nanos() as u64;
        self.busy_ns += self.window_ns;
    }
}

/// Handle through which a node interacts with the engine during a
/// callback: the node's id plus its lane. Effects on the node's own
/// lane are immediate; effects on another lane's nodes are staged and
/// land at the next slot barrier.
pub struct Ctx<'a, M: Message> {
    lane: &'a mut Lane<M>,
    id: NodeId,
}

impl<'a, M: Message> Ctx<'a, M> {
    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.lane.now
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
        self.lane.send_via_link(self.id, dst, self.lane.now, msg)
    }

    /// Send over the configured link to `dst`, but with the departure
    /// delayed by `delay` (local processing before the NIC): the link's
    /// bandwidth, queueing, and fault injection still apply.
    pub fn send_link_in(&mut self, dst: NodeId, delay: Nanos, msg: M) -> bool {
        self.lane
            .send_via_link(self.id, dst, self.lane.now + delay, msg)
    }

    /// Deliver a message directly after `delay`, bypassing any link
    /// (models same-host shared memory or abstract control channels).
    /// A message to a dead member of this lane vanishes here. One to
    /// another lane's node is staged whatever the fleet view says, and
    /// dropped at dispatch if its target is dead then: the view is up
    /// to a slot stale, and a restart of the target staged just before
    /// (an orchestrator's restart-then-scrub) lands ahead of it.
    pub fn send_in(&mut self, dst: NodeId, delay: Nanos, msg: M) {
        if self.lane.slot_of(dst).is_none() || self.lane.node_alive(dst) {
            self.lane.route(self.lane.now + delay, dst, self.id, msg);
        }
    }

    /// Schedule a timer for this node after `delay`.
    pub fn timer(&mut self, delay: Nanos, token: u64) {
        self.timer_at(self.lane.now + delay, token);
    }

    /// Schedule a timer for this node at the absolute time `at` (clamped
    /// to now if already past).
    pub fn timer_at(&mut self, at: Nanos, token: u64) {
        let at = at.max(self.lane.now);
        self.lane.push(at, self.id, EventKind::Timer { token });
    }

    /// Crash another node: all its queued and future events are dropped
    /// until it is revived. Models a fail-stop process crash (SIGKILL).
    /// Records a `NodeKilled` trace event. A kill of another lane's
    /// node takes effect at the next slot barrier.
    pub fn kill(&mut self, node: NodeId) {
        self.lane.set_alive(node, self.id, false);
    }

    /// Restart a killed node from inside the simulation (an
    /// orchestrator node re-launching a crashed process): revive it and
    /// re-run its `on_start` at the current time so it can re-establish
    /// its timer chains. The node keeps its in-memory state. Only call
    /// on dead nodes — on a live node `on_start` would fire again and
    /// double its timer chains. A restart of another lane's node takes
    /// effect at the next slot barrier.
    pub fn restart(&mut self, node: NodeId) {
        if self.lane.slot_of(node).is_some() {
            self.lane.set_alive(node, self.id, true);
            self.lane.push(self.lane.now, node, EventKind::Start);
        } else {
            self.lane.outbox.push(Outbound::Restart {
                node,
                actor: self.id,
            });
        }
    }

    /// Run this node's [`Node::on_deferred`] with `token` once every
    /// event at the current instant has been dispatched — including
    /// events queued at this instant after the deferral, by callbacks
    /// and by earlier continuations alike — and before the clock moves.
    /// The lane's continuations run in deferral order, one at a time,
    /// each when no event is left at the instant. A window ends an
    /// instant too: the lane runs its continuations before a window
    /// returns, so cross-lane deliveries quantized to the barrier
    /// instant arrive after them. A node killed before its continuation
    /// runs gets nothing, even if revived at the same instant.
    pub fn defer(&mut self, token: u64) {
        self.lane.deferred.push_back((self.id, token));
    }

    /// State of type `T` owned by this node's lane and shared by its
    /// members, created with `T::default()` on first use: work that the
    /// nodes of one lane pool at one instant (say, queued for a
    /// [`Ctx::defer`] continuation to run as one batch). It moves with
    /// the lane, so it is never a thread-local: from one window to the
    /// next, a lane's window may run on any thread of the engine's.
    pub fn lane_state<T: Default + Send + 'static>(&mut self) -> &mut T {
        let states = &mut self.lane.states;
        let i = match states.iter().position(|s| s.is::<T>()) {
            Some(i) => i,
            None => {
                states.push(Box::new(T::default()));
                states.len() - 1
            }
        };
        states[i].downcast_mut().expect("state of type T")
    }

    /// Liveness of `node`: exact for a node of this lane, the barrier
    /// snapshot (stale by at most one slot) for any other.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.lane.node_alive(node)
    }

    /// Record a structured trace event attributed to this node, stamped
    /// with the slot identity derived from the current time. See
    /// [`TraceEventKind`] for the per-kind payload conventions.
    pub fn trace(&mut self, kind: TraceEventKind, a: u64, b: u64) {
        self.lane.trace.record(self.lane.now, self.id, kind, a, b);
    }

    /// Record a trace event carrying an explicit slot identity (for
    /// events whose slot comes from a packet header rather than the
    /// arrival time).
    pub fn trace_at_slot(&mut self, kind: TraceEventKind, slot: SlotId, a: u64, b: u64) {
        self.lane
            .trace
            .record_at_slot(self.lane.now, self.id, slot, kind, a, b);
    }

    /// The engine's kernel backend selection (a `Copy` config). Nodes
    /// build their DSP dispatch handle from this once per callback, so
    /// every kernel in the deployment runs the same implementation
    /// family and forced-scalar runs stay trace-identical.
    pub fn kernel_config(&self) -> KernelConfig {
        self.lane.env.kernels
    }

    /// The engine's wall-clock span profiler (a cheap shared handle).
    /// Disabled by default, in which case every span call is inert —
    /// no clock reads, no allocation — so hot paths may call it
    /// unconditionally. Timing lives in a side-channel buffer, never in
    /// the deterministic trace.
    pub fn profiler(&self) -> SpanProfiler {
        self.lane.env.profiler.clone()
    }
}

/// Wall-clock totals of the lane windows an engine has run
/// ([`Engine::window_timing`]). Measurement only: nothing in the
/// simulation reads them, and they reach neither the metrics registry
/// nor the trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowTiming {
    /// Windows run: one per slot barrier crossed, plus the one that
    /// closes each `run_until`.
    pub windows: u64,
    /// Every lane's busy time, summed: what the windows take on one
    /// thread.
    pub busy_ns: u64,
    /// The busiest unit's busy time in each window, summed: what the
    /// windows take when every unit has a thread of its own.
    pub critical_ns: u64,
}

/// The deterministic discrete-event simulation engine.
pub struct Engine<M: Message> {
    /// `Option` so a window can move each lane to a runner thread.
    lanes: Vec<Option<Lane<M>>>,
    /// Node id -> owning lane.
    lane_of: Vec<u32>,
    env: Env,
    /// How many threads run a window (the caller included), clamped to
    /// the host's available parallelism.
    workers: usize,
    /// The runner threads, spawned at the first window that has more
    /// than one unit to give more than one thread.
    runner: Option<LaneRunner<Lane<M>>>,
    /// Windows run and their summed critical path.
    windows: u64,
    critical_ns: u64,
    /// The merged event trace (lanes stage into their own buffers).
    trace: TraceBuffer,
    metrics: MetricsRegistry,
    now: Nanos,
    started: bool,
    /// Next absolute slot-barrier instant (a multiple of
    /// [`crate::time::SLOT_DURATION`]).
    next_barrier: Nanos,
    /// How many units the lane set is chunked into per window
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

impl<M: Message> Engine<M> {
    /// An engine of one lane, which owns every node registered from
    /// here on, every link, and the root RNG stream.
    pub fn new(seed: u64) -> Engine<M> {
        let env = Env {
            profiler: SpanProfiler::disabled(),
            kernels: KernelConfig::detect(),
            names: Arc::new(Vec::new()),
        };
        let lane = Lane::new(SimRng::new(seed), env.clone(), Nanos::ZERO, 0);
        Engine {
            lanes: vec![Some(lane)],
            lane_of: Vec::new(),
            env,
            workers: 1,
            runner: None,
            windows: 0,
            critical_ns: 0,
            trace: TraceBuffer::default(),
            metrics: MetricsRegistry::new(),
            now: Nanos::ZERO,
            started: false,
            next_barrier: crate::time::SLOT_DURATION,
            exec_shards: 1,
            outbox_scratch: Vec::new(),
            merge_scratch: Vec::new(),
        }
    }

    /// Install the kernel backend selection nodes reach through
    /// [`Ctx::kernel_config`]. Defaults to [`KernelConfig::detect`];
    /// a deployment pins it through the builder.
    pub fn set_kernel_config(&mut self, kernels: KernelConfig) {
        self.env.kernels = kernels;
    }

    /// The engine's kernel backend selection.
    pub fn kernel_config(&self) -> KernelConfig {
        self.env.kernels
    }

    /// Install a wall-clock span profiler nodes reach through
    /// [`Ctx::profiler`]. Defaults to a disabled (inert) profiler;
    /// enabling one only adds side-channel timing — the deterministic
    /// trace, its hash, and the metrics registry are untouched unless
    /// [`SpanProfiler::publish`] is called explicitly after the run.
    pub fn set_profiler(&mut self, profiler: SpanProfiler) {
        self.env.profiler = profiler;
    }

    /// The engine's span profiler handle (clones share state).
    pub fn profiler(&self) -> SpanProfiler {
        self.env.profiler.clone()
    }

    /// Index of the dispatch lane that owns `node` (0 on a one-lane
    /// engine). Ids the engine never registered ([`NodeId::EXTERNAL`])
    /// resolve to lane 0.
    pub fn lane_index(&self, node: NodeId) -> usize {
        self.lane_of.get(node.0).copied().unwrap_or(0) as usize
    }

    fn lane_mut(&mut self, idx: usize) -> &mut Lane<M> {
        self.lanes[idx].as_mut().expect("lane in place")
    }

    /// The lane that owns `node` (and so its outgoing links).
    fn home(&self, node: NodeId) -> &Lane<M> {
        self.lanes[self.lane_index(node)]
            .as_ref()
            .expect("lane in place")
    }

    fn home_mut(&mut self, node: NodeId) -> &mut Lane<M> {
        self.lane_mut(self.lane_index(node))
    }

    /// Register a node; the returned id is stable for the engine's life.
    /// New nodes join lane 0.
    pub fn add_node(&mut self, name: &str, node: Box<dyn Node<M>>) -> NodeId {
        let id = NodeId(self.lane_of.len());
        self.lane_of.push(0);
        Arc::make_mut(&mut self.env.names).push(name.to_string());
        self.lane_mut(0).adopt(id, node, true);
        id
    }

    /// Create a unidirectional link `from -> to`.
    pub fn connect(&mut self, from: NodeId, to: NodeId, params: LinkParams) {
        assert!(
            from != NodeId::EXTERNAL,
            "links originate from registered nodes; use post() for external injection"
        );
        let name = |id: NodeId| -> &str {
            self.env
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
        self.home_mut(from).links.insert(from, to, link);
    }

    /// Create links in both directions with identical parameters.
    pub fn connect_duplex(&mut self, a: NodeId, b: NodeId, params: LinkParams) {
        self.connect(a, b, params.clone());
        self.connect(b, a, params);
    }

    fn link(&self, from: NodeId, to: NodeId) -> Option<&Link> {
        self.home(from).links.get(from, to)
    }

    /// Replace the parameters of an existing link (e.g., to degrade it
    /// mid-experiment). Panics if the link does not exist.
    pub fn reconfigure_link(&mut self, from: NodeId, to: NodeId, params: LinkParams) {
        let link = self
            .home_mut(from)
            .links
            .get_mut(from, to)
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

    /// Aggregate counters across every link in the engine — the
    /// fabric-wide byte/drop accounting the scale benches report per
    /// cell.
    pub fn total_link_stats(&self) -> LinkStats {
        let mut total = LinkStats::default();
        for lane in self.lanes.iter().flatten() {
            for (_, _, l) in lane.links.iter() {
                total.sent += l.sent;
                total.dropped += l.dropped;
                total.corrupted += l.corrupted;
                total.duplicated += l.duplicated;
                total.bytes += l.bytes;
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
        let at = at.max(self.now);
        let from = NodeId::EXTERNAL;
        self.home_mut(dst)
            .push(at, dst, EventKind::Msg { from, msg });
    }

    /// Apply a liveness change that reaches its lane from outside a
    /// window — an external call, or another lane's staged effect at a
    /// barrier — and trace the transition at `at`. The fleet-wide
    /// snapshot is rebuilt before the next window runs.
    fn set_alive(&mut self, node: NodeId, actor: NodeId, alive: bool, at: Nanos) {
        let lane = self.home_mut(node);
        let slot = lane.slot_of(node).expect("not a registered node");
        if lane.flip_alive(node, slot, alive) {
            self.trace
                .record(at, actor, alive_kind(alive), node.0 as u64, 0);
        }
    }

    /// Kill a node from outside the simulation (the experiment script's
    /// `SIGKILL`). Records a `NodeKilled` trace event attributed to
    /// [`NodeId::EXTERNAL`].
    pub fn kill(&mut self, node: NodeId) {
        self.set_alive(node, NodeId::EXTERNAL, false, self.now);
    }

    pub(crate) fn revive(&mut self, node: NodeId) {
        self.set_alive(node, NodeId::EXTERNAL, true, self.now);
    }

    /// Restart a killed node: revive it and re-run its `on_start` at the
    /// current time so it can re-establish its timer chains (timers
    /// scheduled before the kill were dropped while it was dead). The
    /// node keeps its in-memory state, modeling a process restart that
    /// reloads the same configuration. No-op scheduling-wise if the node
    /// is already alive (but `on_start` still fires, so only call this on
    /// dead nodes).
    pub fn restart(&mut self, node: NodeId) {
        self.revive(node);
        let now = self.now;
        self.home_mut(node).push(now, node, EventKind::Start);
    }

    pub fn is_alive(&self, node: NodeId) -> bool {
        self.home(node).node_alive(node)
    }

    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Number of dispatched events so far.
    pub fn dispatched(&self) -> u64 {
        self.lanes.iter().flatten().map(|l| l.dispatched).sum()
    }

    /// Per-lane dispatched-event counts, in lane order. A load-balance
    /// diagnostic: on a partitioned deployment lane 0 holds the app
    /// server and core network, lanes 1..=g the cell groups, and
    /// parallel speedup is bounded by the heaviest lane's share.
    pub fn lane_loads(&self) -> Vec<u64> {
        self.lanes.iter().flatten().map(|l| l.dispatched).collect()
    }

    /// Per-lane cumulative window execution time in wall-clock
    /// nanoseconds, in lane order. Divide by the simulated slot count
    /// for the per-lane per-slot cost: a deployment holds real time on
    /// parallel hardware exactly when every lane's per-slot cost stays
    /// under the slot duration.
    pub fn lane_busy_ns(&self) -> Vec<u64> {
        self.lanes.iter().flatten().map(|l| l.busy_ns).collect()
    }

    /// Wall-clock totals of every window run so far: the window count,
    /// the lanes' summed busy time and the summed critical path. Busy
    /// time over critical path bounds what more threads could gain.
    pub fn window_timing(&self) -> WindowTiming {
        WindowTiming {
            windows: self.windows,
            busy_ns: self.lane_busy_ns().iter().sum(),
            critical_ns: self.critical_ns,
        }
    }

    /// FNV-style hash over the dispatched event stream; equal seeds and
    /// programs produce equal hashes (the determinism regression test).
    /// It is lane 0's stream hash with every further lane's folded in,
    /// in lane order — invariant under shard and worker count.
    pub fn trace_hash(&self) -> u64 {
        let mut lanes = self.lanes.iter().flatten();
        let first = lanes.next().expect("an engine has at least one lane");
        lanes.fold(first.hash, |h, lane| {
            (h ^ lane.hash).wrapping_mul(FNV_PRIME)
        })
    }

    /// The structured event trace recorded so far (see [`crate::trace`]).
    pub fn event_trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// Mutable trace access: resize the ring, clear between phases, or
    /// record harness-level events.
    pub fn event_trace_mut(&mut self) -> &mut TraceBuffer {
        &mut self.trace
    }

    /// The engine-wide metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Copy every link's counters into the metrics registry, one scope
    /// per link (`link:<from>-><to>`), with `sent`/`dropped`/
    /// `corrupted`/`bytes` counters. Idempotent: counters are set, not
    /// accumulated, so it can be called repeatedly (e.g. once per
    /// snapshot). Scopes were interned at `connect()` time, so a
    /// snapshot neither sorts nor formats — it is a flat copy of
    /// counters.
    pub fn publish_link_metrics(&mut self) {
        // A link lives in its sender's lane; walking source ids in
        // ascending order across lanes gives `(from, to)` emission order
        // for every lane count.
        for (from, &lane_idx) in self.lane_of.iter().enumerate() {
            let lane = self.lanes[lane_idx as usize]
                .as_ref()
                .expect("lane in place");
            for (_, link) in lane.links.row(from) {
                self.metrics.set_counter(&link.scope, "sent", link.sent);
                self.metrics
                    .set_counter(&link.scope, "dropped", link.dropped);
                self.metrics
                    .set_counter(&link.scope, "corrupted", link.corrupted);
                self.metrics
                    .set_counter(&link.scope, "duplicated", link.duplicated);
                self.metrics.set_counter(&link.scope, "bytes", link.bytes);
            }
        }
    }

    /// Snapshot every node's own measurements ([`Node::instrument`])
    /// into the metrics registry, scoped by node name. Idempotent, like
    /// [`Engine::publish_link_metrics`].
    pub fn publish_node_metrics(&mut self) {
        for (id, &lane_idx) in self.lane_of.iter().enumerate() {
            let lane = self.lanes[lane_idx as usize]
                .as_ref()
                .expect("lane in place");
            let slot = lane.slot_of(NodeId(id)).expect("node lives in its lane");
            if let Some(node) = lane.nodes[slot].as_deref() {
                node.instrument(&self.env.names[id], &mut self.metrics);
            }
        }
    }

    pub fn node_name(&self, id: NodeId) -> &str {
        &self.env.names[id.0]
    }

    /// All node names, indexed by `NodeId` — the argument the trace
    /// exporters take to label threads/scopes.
    pub fn node_names(&self) -> &[String] {
        &self.env.names
    }

    /// Immutable access to a node, downcast to its concrete type.
    pub fn node<T: 'static>(&self, id: NodeId) -> Option<&T> {
        let lane = self.home(id);
        let node = lane.nodes[lane.slot_of(id)?].as_deref()?;
        (node as &dyn Any).downcast_ref::<T>()
    }

    /// Mutable access to a node, downcast to its concrete type. Intended
    /// for experiment setup and post-run inspection, not for use while
    /// the engine is dispatching.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        let lane = self.home_mut(id);
        let slot = lane.slot_of(id)?;
        let node = lane.nodes[slot].as_deref_mut()?;
        (node as &mut dyn Any).downcast_mut::<T>()
    }

    /// Partition the node space into parallel dispatch lanes (cell-group
    /// shards): the engine's one lane is re-partitioned into `n_lanes`,
    /// whose windows run on up to `workers` threads — the caller and
    /// `workers − 1` runner threads, with `workers` clamped to the
    /// host's available parallelism. `lane_of[i]` is node `i`'s lane;
    /// a partitioned deployment puts what no cell group owns (app
    /// server, core network) in lane 0. Must be called after every
    /// node is registered and before the first run.
    ///
    /// Each lane gets its own RNG stream (split off the root in lane
    /// order), the links its members send on, and the queued events
    /// addressed to them. See [`Engine::run_until`] for the barrier
    /// contract that makes the result byte-identical for every
    /// `set_exec_shards` value and every worker count.
    pub fn enable_shards(&mut self, lane_of: Vec<u32>, n_lanes: usize, workers: usize) {
        assert!(
            !self.started,
            "enable_shards must be called before the first run"
        );
        assert!(self.lanes.len() == 1, "enable_shards called twice");
        assert_eq!(
            lane_of.len(),
            self.lane_of.len(),
            "lane_of must cover every node"
        );
        assert!(n_lanes >= 1, "need at least one lane");
        assert!(
            lane_of.iter().all(|&l| (l as usize) < n_lanes),
            "lane index out of range"
        );
        self.lane_of = lane_of;
        // With one lane, a node's slot is its id.
        let mut root = self.lanes.pop().flatten().expect("lane in place");
        let mut lanes: Vec<Lane<M>> = (0..n_lanes)
            .map(|i| {
                let rng = root.rng.split(i as u64);
                Lane::new(rng, self.env.clone(), root.now, root.seq)
            })
            .collect();
        for (i, (node, alive)) in root.nodes.into_iter().zip(root.alive).enumerate() {
            let node = node.expect("node in place");
            lanes[self.lane_of[i] as usize].adopt(NodeId(i), node, alive);
        }
        // A link belongs to its sender's lane: the sender's clock and
        // RNG run the link model, so fault draws stay shard-invariant.
        for (from, to, link) in root.links.drain_all() {
            lanes[self.lane_index(from)].links.insert(from, to, link);
        }
        // Pending events go to the destination's lane, keeping their
        // original (at, seq) so relative order survives the handoff.
        for (at, seq, (dst, kind)) in root.queue.drain_sorted() {
            lanes[self.lane_index(dst)].queue.push(at, seq, (dst, kind));
        }
        self.lanes = lanes.into_iter().map(Some).collect();
        self.exec_shards = n_lanes;
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        self.workers = workers.clamp(1, cores);
    }

    /// How many units the lane set is chunked into per window (at most
    /// one per lane); a thread claims a whole unit at a time. Purely an
    /// execution knob — any value yields the same trace.
    pub fn set_exec_shards(&mut self, k: usize) {
        self.exec_shards = k.max(1);
        // Respawned at the next window with the new unit count.
        self.runner = None;
    }

    /// Run every node's `on_start` once, before the first window:
    /// serially, in node id order, each through its own lane. Outboxes
    /// drain after every callback, so a start-time effect on another
    /// lane lands before the next node starts.
    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.lane_of.len() {
            let id = NodeId(i);
            let lane_idx = self.lane_index(id);
            let lane = self.lane_mut(lane_idx);
            let slot = lane.slot_of(id).expect("node in its lane");
            lane.deliver(slot, id, EventKind::Start);
            self.drain_outbox_of(lane_idx, Nanos::ZERO);
        }
        self.refresh_alive_view();
    }

    /// Run until simulated time reaches `until`; afterwards
    /// `now() == until` whether or not any event was left to dispatch.
    ///
    /// Time advances in windows that end at slot barriers (every
    /// [`crate::time::SLOT_DURATION`]). Within a window each lane pops
    /// and dispatches its own queue in `(time, insertion)` order,
    /// independently of every other lane; effects on another lane's
    /// nodes (messages, kills, restarts) are staged on the sender's
    /// outbox. At the barrier the staged traces merge in time order
    /// (lane order breaking ties) and the outboxes drain serially in
    /// lane order, deliveries quantized up to the barrier instant. A
    /// one-lane engine stages nothing across lanes, so its barriers only
    /// merge the trace.
    pub fn run_until(&mut self, until: Nanos) {
        for lane in self.lanes.iter_mut().flatten() {
            lane.env = self.env.clone();
            lane.trace.stage_for(&self.trace);
        }
        self.refresh_alive_view();
        self.start_if_needed();
        loop {
            let barrier = self.next_barrier;
            self.advance_lanes_to(barrier.min(until));
            if barrier > until {
                // `until` falls inside a window (or on the barrier just
                // crossed, whose deliveries for that very instant this
                // window dispatched): what it staged for other lanes
                // waits for the next barrier.
                self.merge_lane_traces();
                break;
            }
            self.barrier_sync(barrier);
            // With every outbox drained nothing can happen before the
            // earliest queued event, so skip to the barrier that closes
            // its window — but not past `until`, after which the caller
            // may post earlier events.
            let earliest = self
                .lanes
                .iter_mut()
                .flatten()
                .filter_map(|l| l.queue.peek_at())
                .fold(until, Nanos::min);
            self.next_barrier =
                Nanos(earliest.0.div_ceil(SLOT_NS) * SLOT_NS).max(barrier + Nanos(SLOT_NS));
        }
        self.now = self.now.max(until);
    }

    /// Run for an additional duration of simulated time.
    pub fn run_for(&mut self, d: Nanos) {
        let until = self.now + d;
        self.run_until(until);
    }

    /// Advance every lane to `target`. The lanes are chunked into
    /// `exec_shards` units — contiguous and near-even, so chunk
    /// boundaries cannot affect the result, lane windows being fully
    /// independent — and a thread owns a unit's lanes (state and node
    /// boxes) for the whole window, so nothing synchronizes inside one.
    /// With one thread to run them, the lanes run inline in lane order.
    fn advance_lanes_to(&mut self, target: Nanos) {
        let n_lanes = self.lanes.len();
        let units = self.exec_shards.clamp(1, n_lanes);
        let threads = self.workers.min(units);
        if threads > 1 {
            self.runner
                .get_or_insert_with(|| LaneRunner::new(threads - 1, units, Lane::run_window))
                .run(&mut self.lanes, target);
        } else {
            for lane in self.lanes.iter_mut().flatten() {
                lane.run_window(target);
            }
        }
        self.windows += 1;
        self.critical_ns += (0..units)
            .map(|u| {
                let unit = &self.lanes[unit_range(n_lanes, units, u)];
                unit.iter().flatten().map(|l| l.window_ns).sum::<u64>()
            })
            .max()
            .unwrap_or(0);
    }

    /// Serial synchronization at a slot barrier: merge staged traces in
    /// lane order, drain every outbox (lane order = deterministic), and
    /// refresh the fleet-wide liveness snapshot.
    fn barrier_sync(&mut self, barrier: Nanos) {
        let _s = self.env.profiler.span("barrier_merge", barrier.0 / SLOT_NS);
        self.merge_lane_traces();
        for idx in 0..self.lanes.len() {
            self.drain_outbox_of(idx, barrier);
        }
        self.refresh_alive_view();
    }

    /// Apply one lane's staged cross-lane effects. `floor` is the
    /// barrier instant: deliveries quantize up to it, and liveness
    /// transitions are stamped with it.
    fn drain_outbox_of(&mut self, lane_idx: usize, floor: Nanos) {
        // Swap the lane's outbox with the engine-held scratch Vec so
        // the drained buffer's capacity is recycled on the next slot.
        let scratch = std::mem::take(&mut self.outbox_scratch);
        let mut ops = std::mem::replace(&mut self.lane_mut(lane_idx).outbox, scratch);
        for op in ops.drain(..) {
            match op {
                Outbound::Msg {
                    arrive,
                    dst,
                    from,
                    msg,
                } => {
                    let at = arrive.max(floor);
                    self.home_mut(dst)
                        .push(at, dst, EventKind::Msg { from, msg });
                }
                Outbound::SetAlive { node, actor, alive } => {
                    self.set_alive(node, actor, alive, floor);
                }
                Outbound::Restart { node, actor } => {
                    self.set_alive(node, actor, true, floor);
                    self.home_mut(node).push(floor, node, EventKind::Start);
                }
            }
        }
        self.outbox_scratch = ops;
    }

    /// Rebuild the fleet-wide liveness snapshot every lane reads for
    /// cross-lane queries during the next window. Skipped entirely when
    /// no lane recorded a liveness transition since the last rebuild —
    /// the common case, sparing a fleet-sized allocation per barrier.
    fn refresh_alive_view(&mut self) {
        let n = self.lane_of.len();
        let stale = self
            .lanes
            .iter()
            .flatten()
            .any(|l| l.alive_dirty || l.alive_view.len() != n);
        if !stale {
            return;
        }
        let view: Arc<Vec<bool>> = Arc::new(
            (0..n)
                .map(|i| self.home(NodeId(i)).node_alive(NodeId(i)))
                .collect(),
        );
        for lane in self.lanes.iter_mut().flatten() {
            lane.alive_view = Arc::clone(&view);
            lane.alive_dirty = false;
        }
    }

    /// Move every lane's staged trace events into the engine's buffer,
    /// time-sorted (stable, so lane order breaks ties — deterministic
    /// for every shard and worker count).
    fn merge_lane_traces(&mut self) {
        let mut staged = std::mem::take(&mut self.merge_scratch);
        for lane in self.lanes.iter_mut().flatten() {
            lane.trace.drain_events_into(&mut staged);
        }
        staged.sort_by_key(|ev| ev.at);
        for ev in staged.drain(..) {
            self.trace.append_event(ev);
        }
        self.merge_scratch = staged;
    }
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

    /// Beats every 100 ns for as long as it is alive, and notes how
    /// many times it had started when each message arrived.
    #[derive(Default)]
    struct Beater {
        starts: u64,
        beats: u64,
        got_after_starts: Vec<u64>,
    }

    impl Node<TestMsg> for Beater {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            self.starts += 1;
            ctx.timer(Nanos(100), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, _t: u64) {
            self.beats += 1;
            ctx.timer(Nanos(100), 0);
        }
        fn on_msg(&mut self, _c: &mut Ctx<'_, TestMsg>, _f: NodeId, _m: TestMsg) {
            self.got_after_starts.push(self.starts);
        }

        fn instrument(&self, scope: &str, sink: &mut dyn InstrumentSink) {
            sink.counter(scope, "beats", self.beats);
        }
    }

    /// The trace's kill / revive records: `(at, actor, kind, target)`.
    fn lifecycle(e: &Engine<TestMsg>) -> Vec<(Nanos, NodeId, TraceEventKind, NodeId)> {
        e.event_trace()
            .iter()
            .filter(|ev| {
                matches!(
                    ev.kind,
                    TraceEventKind::NodeKilled | TraceEventKind::NodeRevived
                )
            })
            .map(|ev| (ev.at, ev.node, ev.kind, NodeId(ev.a as usize)))
            .collect()
    }

    fn engine() -> Engine<TestMsg> {
        Engine::new(1)
    }

    /// The engine contract does not depend on lane or worker count:
    /// run `body` on a one-lane engine and on a two-lane one at one and
    /// at two workers, with the same assertions. `body` calls the hook
    /// it is handed once its nodes and links exist (and, where it
    /// matters, its first events are queued). At one lane that is a
    /// no-op; at two it moves everything registered so far into lane 1,
    /// beside an idle node alone in lane 0, so all the program's
    /// traffic stays lane-local.
    fn at_each_lane_count(body: impl Fn(Engine<TestMsg>, &dyn Fn(&mut Engine<TestMsg>))) {
        body(engine(), &|_| {});
        for workers in [1, 2] {
            body(engine(), &|e| {
                let mut lane_of = vec![1; e.lane_of.len()];
                e.add_node("idle", Box::new(Recorder::default()));
                lane_of.push(0);
                e.enable_shards(lane_of, 2, workers);
            });
        }
    }

    #[test]
    fn publish_node_metrics_snapshots_every_instrumented_node() {
        at_each_lane_count(|mut e, shard| {
            e.add_node("quiet", Box::new(Recorder::default()));
            e.add_node("b0", Box::new(Beater::default()));
            let b1 = e.add_node("b1", Box::new(Beater::default()));
            shard(&mut e);
            e.run_until(Nanos(450));
            e.kill(b1);
            e.run_until(Nanos(1050));
            // Totals are set, not accumulated: publishing twice is one
            // snapshot. A dead node still reports what it measured.
            e.publish_node_metrics();
            e.publish_node_metrics();
            let published: Vec<_> = e.metrics().counters().collect();
            assert_eq!(published, [("b0", "beats", 10), ("b1", "beats", 4)]);
        });
    }

    #[test]
    fn delivers_in_time_order() {
        at_each_lane_count(|mut e, shard| {
            let r = e.add_node("r", Box::new(Recorder::default()));
            e.post(Nanos(300), r, TestMsg(3, 0));
            e.post(Nanos(100), r, TestMsg(1, 0));
            // Events queued before and after re-partitioning both
            // follow the node to its lane.
            shard(&mut e);
            e.post(Nanos(200), r, TestMsg(2, 0));
            e.run_until(Nanos(1000));
            let rec = e.node::<Recorder>(r).unwrap();
            assert_eq!(
                rec.got,
                vec![(1, Nanos(100)), (2, Nanos(200)), (3, Nanos(300)),]
            );
        });
    }

    #[test]
    fn simultaneous_events_fifo_by_insertion() {
        at_each_lane_count(|mut e, shard| {
            let r = e.add_node("r", Box::new(Recorder::default()));
            e.post(Nanos(100), r, TestMsg(1, 0));
            e.post(Nanos(100), r, TestMsg(2, 0));
            shard(&mut e);
            e.run_until(Nanos(100));
            let rec = e.node::<Recorder>(r).unwrap();
            assert_eq!(rec.got.iter().map(|g| g.0).collect::<Vec<_>>(), vec![1, 2]);
        });
    }

    #[test]
    fn run_until_stops_at_boundary() {
        at_each_lane_count(|mut e, shard| {
            let r = e.add_node("r", Box::new(Recorder::default()));
            shard(&mut e);
            e.post(Nanos(100), r, TestMsg(1, 0));
            e.post(Nanos(201), r, TestMsg(2, 0));
            e.run_until(Nanos(200));
            assert_eq!(e.now(), Nanos(200));
            assert_eq!(e.node::<Recorder>(r).unwrap().got.len(), 1);
            e.run_until(Nanos(300));
            assert_eq!(e.node::<Recorder>(r).unwrap().got.len(), 2);

            // Stop inside a later window (past the first slot barrier,
            // not on one), then post for an instant before the next
            // barrier: it is delivered at that instant, not at the
            // barrier, and not before `run_until` reaches it.
            let slot = crate::time::SLOT_DURATION.0;
            let stop = Nanos(slot + slot / 3);
            e.run_until(stop);
            assert_eq!(e.now(), stop);
            let at = Nanos(slot + slot / 2);
            e.post(at, r, TestMsg(3, 0));
            e.run_until(Nanos(at.0 - 1));
            assert_eq!(e.node::<Recorder>(r).unwrap().got.len(), 2);
            e.run_until(at);
            assert_eq!(e.node::<Recorder>(r).unwrap().got[2], (3, at));

            // An empty queue still advances the clock to `until`, and an
            // event posted for that very instant is then dispatched by a
            // run to the same instant.
            let idle = Nanos(40 * slot + 7);
            e.run_until(idle);
            assert_eq!(e.now(), idle);
            e.post(Nanos(0), r, TestMsg(4, 0));
            e.run_until(idle);
            assert_eq!(e.node::<Recorder>(r).unwrap().got[3], (4, idle));
            assert_eq!(e.dispatched(), 4);
        });
    }

    #[test]
    fn link_latency_and_serialization() {
        at_each_lane_count(|mut e, shard| {
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
            shard(&mut e);
            e.run_until(Nanos(10_000));
            let rec = e.node::<Recorder>(r).unwrap();
            assert_eq!(rec.got.len(), 5);
            assert_eq!(rec.got[0].1, Nanos(100 + 800 + 1000));
            assert_eq!(e.link_stats(a, r).unwrap().sent, 5);
        });
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
        at_each_lane_count(|mut e, shard| {
            let a = e.add_node("a", Box::new(Burst { peer: None }));
            let r = e.add_node("r", Box::new(Recorder::default()));
            // 1000 bytes at 1 Gbps = 8000 ns each.
            e.connect(a, r, LinkParams::with_bandwidth(Nanos(0), 1_000_000_000));
            shard(&mut e);
            e.node_mut::<Burst>(a).unwrap().peer = Some(r);
            e.run_until(Nanos(100_000));
            let rec = e.node::<Recorder>(r).unwrap();
            assert_eq!(rec.got[0].1, Nanos(8_000));
            assert_eq!(rec.got[1].1, Nanos(16_000));
        });
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
                ctx.send_in(NodeId(1), Nanos(1), TestMsg(token, 0));
            }
        }
        at_each_lane_count(|mut e, shard| {
            let _t = e.add_node("t", Box::new(T));
            let r = e.add_node("r", Box::new(Recorder::default()));
            shard(&mut e);
            e.run_until(Nanos(100));
            let rec = e.node::<Recorder>(r).unwrap();
            assert_eq!(rec.got, vec![(7, Nanos(4)), (42, Nanos(6))]);
        });
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
        at_each_lane_count(|mut e, shard| {
            let b = e.add_node("b", Box::new(Beater::default()));
            shard(&mut e);
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
            assert_eq!(
                lifecycle(&e),
                vec![
                    (
                        Nanos(1_000),
                        NodeId::EXTERNAL,
                        TraceEventKind::NodeKilled,
                        b
                    ),
                    (
                        Nanos(2_000),
                        NodeId::EXTERNAL,
                        TraceEventKind::NodeRevived,
                        b
                    ),
                ]
            );
            // ...but restart re-runs on_start (once), which re-arms it.
            // Only transitions are traced: the second kill is not one.
            e.kill(b);
            e.kill(b);
            e.run_for(Nanos(500));
            e.restart(b);
            e.run_until(Nanos(4_000));
            let beater = e.node::<Beater>(b).unwrap();
            assert!(beater.beats > after_first);
            assert_eq!(beater.starts, 2);
            assert_eq!(
                lifecycle(&e)[2..],
                [
                    (
                        Nanos(3_000),
                        NodeId::EXTERNAL,
                        TraceEventKind::NodeKilled,
                        b
                    ),
                    (
                        Nanos(3_500),
                        NodeId::EXTERNAL,
                        TraceEventKind::NodeRevived,
                        b
                    ),
                ]
            );
        });
    }

    /// A kill or restart aimed at another lane's node is staged and
    /// lands at the next slot barrier, traced there under the actor's
    /// id; until then the target keeps running. A message sent right
    /// after the restart (an orchestrator's scrub of the PHY it
    /// relaunches) is not judged by the fleet view, which still has the
    /// target dead: it arrives once, after the second `on_start`.
    #[test]
    fn cross_lane_kill_and_restart_land_at_the_barrier() {
        struct Reaper {
            victim: NodeId,
        }
        impl Node<TestMsg> for Reaper {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
                ctx.timer(Nanos(100_000), 0);
                ctx.timer(Nanos(1_200_000), 1);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, token: u64) {
                if token == 0 {
                    ctx.kill(self.victim);
                    // The barrier snapshot has not caught up yet.
                    assert!(ctx.is_alive(self.victim));
                } else {
                    assert!(!ctx.is_alive(self.victim));
                    ctx.restart(self.victim);
                    ctx.send_in(self.victim, Nanos(1_000), TestMsg(7, 64));
                }
            }
            fn on_msg(&mut self, _c: &mut Ctx<'_, TestMsg>, _f: NodeId, _m: TestMsg) {}
        }
        let mut e = engine();
        let reaper = e.add_node("reaper", Box::new(Reaper { victim: NodeId(1) }));
        let victim = e.add_node("victim", Box::new(Beater::default()));
        e.enable_shards(vec![0, 1], 2, 2);
        e.run_until(Nanos(2_000_000));
        assert_eq!(
            lifecycle(&e),
            vec![
                (Nanos(500_000), reaper, TraceEventKind::NodeKilled, victim),
                (
                    Nanos(1_500_000),
                    reaper,
                    TraceEventKind::NodeRevived,
                    victim
                ),
            ]
        );
        // 100 ns beats: alive for [0, 500 us], then from 1.5 ms on.
        let v = e.node::<Beater>(victim).unwrap();
        assert_eq!(v.starts, 2);
        assert_eq!(v.beats, 5_000 + 5_000);
        assert_eq!(v.got_after_starts, [2]);
    }

    /// A node that dies inside a window stays alive to other lanes until
    /// the barrier: they read the fleet snapshot taken there, never a
    /// lane's state mid-window.
    #[test]
    fn other_lanes_see_a_death_at_the_next_barrier() {
        struct Suicide;
        impl Node<TestMsg> for Suicide {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
                ctx.timer(Nanos(100_000), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, _t: u64) {
                let me = ctx.id();
                ctx.kill(me);
            }
            fn on_msg(&mut self, _c: &mut Ctx<'_, TestMsg>, _f: NodeId, _m: TestMsg) {}
        }
        struct Watcher {
            victim: NodeId,
            seen: Vec<bool>,
        }
        impl Node<TestMsg> for Watcher {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
                ctx.timer(Nanos(400_000), 0);
                ctx.timer(Nanos(600_000), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, _t: u64) {
                self.seen.push(ctx.is_alive(self.victim));
            }
            fn on_msg(&mut self, _c: &mut Ctx<'_, TestMsg>, _f: NodeId, _m: TestMsg) {}
        }
        for workers in [1, 2] {
            let mut e = engine();
            e.add_node("idle", Box::new(Recorder::default()));
            let victim = e.add_node("suicide", Box::new(Suicide));
            let seen = Vec::new();
            let watcher = e.add_node("watcher", Box::new(Watcher { victim, seen }));
            e.enable_shards(vec![0, 1, 2], 3, workers);
            e.run_until(Nanos::from_millis(1));
            let seen = &e.node::<Watcher>(watcher).unwrap().seen;
            assert_eq!(*seen, [true, false], "{workers} workers");
        }
    }

    /// Lane 0 exists from `Engine::new`, before a harness sizes or
    /// filters the trace: staging has to follow the engine's buffer
    /// from the very first window (and never evict on its own).
    #[test]
    fn staging_trace_follows_the_engine_buffer_from_the_first_window() {
        struct Chatty;
        impl Node<TestMsg> for Chatty {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
                ctx.timer(Nanos(1_000), 0);
                self.on_timer(ctx, 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, _t: u64) {
                ctx.trace(TraceEventKind::KeepAliveStarted, 0, 0);
                ctx.trace(TraceEventKind::MapFlip, 0, 0);
                ctx.trace(TraceEventKind::FapiToL2, 0, 0);
            }
            fn on_msg(&mut self, _c: &mut Ctx<'_, TestMsg>, _f: NodeId, _m: TestMsg) {}
        }
        for lanes in [1, 2] {
            let mut e = engine();
            e.add_node("a", Box::new(Chatty));
            e.add_node("b", Box::new(Chatty));
            if lanes == 2 {
                e.enable_shards(vec![0, 1], 2, 1);
            }
            e.event_trace_mut()
                .set_kind_filter(&[TraceEventKind::MapFlip]);
            e.event_trace_mut().set_capacity(4);
            e.run_until(Nanos(10_000));
            let trace = e.event_trace();
            // Two nodes, each at start and in slot 0: exactly the ring.
            assert_eq!(trace.len(), 4, "{lanes} lane(s)");
            assert!(trace.iter().all(|ev| ev.kind == TraceEventKind::MapFlip));
            assert_eq!(trace.dropped_oldest(), 0, "{lanes} lane(s)");
        }
    }

    /// A shared callback log: `"<time> <node> <event>"` lines.
    type Log = Arc<std::sync::Mutex<Vec<String>>>;

    /// Logs every callback. A message records its value in the lane's
    /// `Vec<u64>` state and defers a continuation with the value as
    /// token; the value 7 also kills and restarts `peer` at once. The
    /// continuation logs the lane state, and token 1 sends `peer` a
    /// zero-delay message 9.
    struct Deferrer {
        name: &'static str,
        peer: NodeId,
        log: Log,
    }

    impl Deferrer {
        fn add(e: &mut Engine<TestMsg>, name: &'static str, peer: usize, log: &Log) -> NodeId {
            let log = Arc::clone(log);
            let peer = NodeId(peer);
            e.add_node(name, Box::new(Deferrer { name, peer, log }))
        }

        fn note(&self, ctx: &Ctx<'_, TestMsg>, what: String) {
            let line = format!("{} {} {what}", ctx.now().0, self.name);
            self.log.lock().unwrap().push(line);
        }
    }

    impl Node<TestMsg> for Deferrer {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            self.note(ctx, "start".into());
        }

        fn on_msg(&mut self, ctx: &mut Ctx<'_, TestMsg>, _from: NodeId, msg: TestMsg) {
            self.note(ctx, format!("msg{}", msg.0));
            ctx.lane_state::<Vec<u64>>().push(msg.0);
            if msg.0 == 7 {
                ctx.kill(self.peer);
                ctx.restart(self.peer);
            }
            ctx.defer(msg.0);
        }

        fn on_deferred(&mut self, ctx: &mut Ctx<'_, TestMsg>, token: u64) {
            let seen = ctx.lane_state::<Vec<u64>>().clone();
            self.note(ctx, format!("cont{token} {seen:?}"));
            if token == 1 {
                ctx.send_in(self.peer, Nanos::ZERO, TestMsg(9, 0));
            }
        }
    }

    /// The log from t > 0 (after the start-up callbacks).
    fn after_start(log: &Log) -> Vec<String> {
        let log = log.lock().unwrap();
        log.iter()
            .filter(|l| !l.starts_with("0 "))
            .cloned()
            .collect()
    }

    #[test]
    fn continuations_run_after_every_event_at_their_instant_in_deferral_order() {
        at_each_lane_count(|mut e, shard| {
            let log = Log::default();
            let a = Deferrer::add(&mut e, "a", 1, &log);
            let b = Deferrer::add(&mut e, "b", 0, &log);
            shard(&mut e);
            e.post(Nanos(100), a, TestMsg(1, 0));
            e.post(Nanos(100), b, TestMsg(2, 0));
            e.post(Nanos(100), a, TestMsg(3, 0));
            e.post(Nanos(200), b, TestMsg(4, 0));
            let dispatched = e.dispatched();
            e.run_until(Nanos(1000));
            // b's continuation waits for the zero-delay message a's
            // earlier continuation sent at the same instant; the one that
            // message deferred runs last, and 200 starts afresh.
            assert_eq!(
                after_start(&log),
                [
                    "100 a msg1",
                    "100 b msg2",
                    "100 a msg3",
                    "100 a cont1 [1, 2, 3]",
                    "100 b msg9",
                    "100 b cont2 [1, 2, 3, 9]",
                    "100 a cont3 [1, 2, 3, 9]",
                    "100 b cont9 [1, 2, 3, 9]",
                    "200 b msg4",
                    "200 b cont4 [1, 2, 3, 9, 4]",
                ]
            );
            // Continuations are hashed, not counted as queue events.
            assert_eq!(e.dispatched() - dispatched, 5);
        });
    }

    #[test]
    fn a_node_killed_before_its_continuation_gets_none() {
        at_each_lane_count(|mut e, shard| {
            let log = Log::default();
            let a = Deferrer::add(&mut e, "a", 1, &log);
            let b = Deferrer::add(&mut e, "b", 0, &log);
            shard(&mut e);
            e.post(Nanos(100), a, TestMsg(2, 0));
            e.post(Nanos(100), b, TestMsg(7, 0));
            e.run_until(Nanos(1000));
            // b kills and restarts a between a's deferral and its turn:
            // the revived a starts again but its continuation is gone.
            assert_eq!(
                after_start(&log),
                [
                    "100 a msg2",
                    "100 b msg7",
                    "100 a start",
                    "100 b cont7 [2, 7]",
                ]
            );
            assert!(e.is_alive(a));
        });
    }

    #[test]
    fn a_window_ending_at_until_runs_its_continuations_before_returning() {
        at_each_lane_count(|mut e, shard| {
            let log = Log::default();
            let a = Deferrer::add(&mut e, "a", 1, &log);
            Deferrer::add(&mut e, "b", 0, &log);
            shard(&mut e);
            e.post(Nanos(100), a, TestMsg(3, 0));
            e.run_until(Nanos(100));
            assert_eq!(e.now(), Nanos(100));
            assert_eq!(after_start(&log), ["100 a msg3", "100 a cont3 [3]"]);
        });
    }

    #[test]
    fn lane_state_is_shared_within_a_lane_and_private_to_it() {
        let log = Log::default();
        let mut e = engine();
        let a = Deferrer::add(&mut e, "a", 1, &log);
        let b = Deferrer::add(&mut e, "b", 0, &log);
        let c = Deferrer::add(&mut e, "c", 0, &log);
        e.enable_shards(vec![1, 1, 0], 2, 2);
        for (i, node) in [a, b, c].into_iter().enumerate() {
            e.post(Nanos(100), node, TestMsg(i as u64 + 2, 0));
        }
        e.run_until(Nanos(1000));
        let mut got = after_start(&log);
        got.sort();
        assert_eq!(
            got,
            [
                "100 a cont2 [2, 3]",
                "100 a msg2",
                "100 b cont3 [2, 3]",
                "100 b msg3",
                "100 c cont4 [4]",
                "100 c msg4",
            ]
        );
    }

    /// Logs `(lane, thread)` once a slot, at the same instant as every
    /// other spy, so each window runs one callback per lane.
    struct ThreadSpy {
        lane: usize,
        log: Arc<std::sync::Mutex<Vec<(usize, std::thread::ThreadId)>>>,
    }

    impl Node<TestMsg> for ThreadSpy {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            ctx.timer(Nanos(100_000), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, _t: u64) {
            let me = (self.lane, std::thread::current().id());
            self.log.lock().unwrap().push(me);
            ctx.timer(crate::time::SLOT_DURATION, 0);
        }
        fn on_msg(&mut self, _c: &mut Ctx<'_, TestMsg>, _f: NodeId, _m: TestMsg) {}
    }

    /// An engine of `lanes` lanes, one [`ThreadSpy`] each, set to
    /// `workers`.
    fn spied(lanes: usize, workers: usize) -> (Engine<TestMsg>, ThreadLog) {
        let log = ThreadLog::default();
        let mut e = engine();
        for lane in 0..lanes {
            let log = Arc::clone(&log);
            e.add_node(&format!("spy{lane}"), Box::new(ThreadSpy { lane, log }));
        }
        e.enable_shards((0..lanes as u32).collect(), lanes, workers);
        (e, log)
    }

    type ThreadLog = Arc<std::sync::Mutex<Vec<(usize, std::thread::ThreadId)>>>;

    #[test]
    fn lanes_run_on_at_most_w_threads_one_of_them_the_caller() {
        let caller = std::thread::current().id();
        for workers in [2, 4] {
            let (mut e, log) = spied(4, workers);
            e.run_until(Nanos::from_millis(50));
            let log = log.lock().unwrap();
            assert_eq!(log.len(), 4 * 100);
            let mut threads: Vec<_> = log.iter().map(|&(_, t)| t).collect();
            threads.sort_by_key(|t| format!("{t:?}"));
            threads.dedup();
            assert!(threads.len() <= workers, "{workers} workers: {threads:?}");
            assert!(threads.contains(&caller), "{workers} workers: caller idle");
        }
    }

    #[test]
    fn one_worker_runs_every_lane_inline_on_the_caller_in_lane_order() {
        let caller = std::thread::current().id();
        let (mut e, log) = spied(4, 1);
        e.run_until(Nanos::from_millis(5));
        assert!(e.runner.is_none(), "one worker spawns nothing");
        let log = log.lock().unwrap();
        let expect: Vec<_> = (0..10).flat_map(|_| (0..4).map(|l| (l, caller))).collect();
        assert_eq!(*log, expect);
    }

    #[test]
    fn a_panicking_lane_repanics_on_the_caller_with_its_payload() {
        struct Bomb;
        impl Node<TestMsg> for Bomb {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
                ctx.timer(Nanos(1_200_000), 0);
            }
            fn on_timer(&mut self, _c: &mut Ctx<'_, TestMsg>, _t: u64) {
                std::panic::panic_any(0xB0B_u64);
            }
            fn on_msg(&mut self, _c: &mut Ctx<'_, TestMsg>, _f: NodeId, _m: TestMsg) {}
        }
        for workers in [1, 2] {
            let mut e = engine();
            for _ in 0..3 {
                e.add_node("beat", Box::new(Beater::default()));
            }
            e.add_node("bomb", Box::new(Bomb));
            e.enable_shards(vec![0, 1, 2, 3], 4, workers);
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                e.run_until(Nanos::from_millis(5))
            }));
            let payload = run.expect_err("the bomb went off");
            assert_eq!(payload.downcast_ref::<u64>(), Some(&0xB0B));
            // Dropping the engine joins its runner threads.
            drop(e);
        }
    }

    #[test]
    fn dropping_engines_leaves_no_runner_thread_behind() {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        for _ in 0..20 {
            let (mut e, _log) = spied(2, 2);
            e.run_until(Nanos::from_millis(2));
            let shared = e.runner.as_ref().map(|r| r.shared_weak());
            assert_eq!(shared.is_some(), cores >= 2, "a runner iff two cores");
            drop(e);
            if let Some(shared) = shared {
                assert_eq!(
                    shared.strong_count(),
                    0,
                    "a runner thread outlived its engine"
                );
            }
        }
    }

    /// Lane 3's callbacks so far, which lane 1's wait on.
    type Gate = Arc<(std::sync::Mutex<u64>, std::sync::Condvar)>;

    /// Once a slot, at the same instant as the others, traces its lane
    /// and sends it to `sink` in lane 0. Given a gate, lane 1's waits
    /// for lane 3's callback of the same slot, so on two threads lane 1
    /// finishes every window after lane 3.
    struct Straggler {
        lane: u64,
        sink: NodeId,
        gate: Option<Gate>,
        calls: u64,
    }

    impl Node<TestMsg> for Straggler {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            ctx.timer(Nanos(100_000), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, _t: u64) {
            self.calls += 1;
            if let Some((count, cv)) = self.gate.as_deref() {
                let mut seen = count.lock().unwrap();
                if self.lane == 3 {
                    *seen += 1;
                    cv.notify_all();
                } else if self.lane == 1 {
                    let timeout = std::time::Duration::from_secs(5);
                    let calls = self.calls;
                    let waited = cv.wait_timeout_while(seen, timeout, |n| *n < calls);
                    assert!(!waited.unwrap().1.timed_out(), "lane 3 never ran");
                }
            }
            ctx.trace(TraceEventKind::MapFlip, self.lane, 0);
            ctx.send_in(self.sink, Nanos::ZERO, TestMsg(self.lane, 0));
            ctx.timer(crate::time::SLOT_DURATION, 0);
        }
        fn on_msg(&mut self, _c: &mut Ctx<'_, TestMsg>, _f: NodeId, _m: TestMsg) {}
    }

    /// Same-instant effects of different lanes land in lane order — the
    /// trace merge and the outbox drain — even when lane 1 finishes its
    /// window after lane 3.
    #[test]
    fn cross_lane_effects_land_in_lane_order_whichever_lane_finishes_first() {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        for workers in [1, 2] {
            // Inline, lane 1 runs before lane 3: a gate would never open.
            let gate = (workers.min(cores) == 2).then(Gate::default);
            let mut e = engine();
            let sink = e.add_node("sink", Box::new(Recorder::default()));
            for lane in 1..=3 {
                let gate = gate.clone();
                let node = Straggler {
                    lane,
                    sink,
                    gate,
                    calls: 0,
                };
                e.add_node("straggler", Box::new(node));
            }
            e.enable_shards(vec![0, 1, 2, 3], 4, workers);
            e.run_until(Nanos::from_millis(10));
            let lanes = [1, 2, 3].repeat(20);
            let got = &e.node::<Recorder>(sink).unwrap().got;
            let delivered: Vec<u64> = got.iter().map(|&(lane, _)| lane).collect();
            assert_eq!(delivered, lanes, "{workers} workers: outbox drain order");
            let traced: Vec<u64> = e.event_trace().iter().map(|ev| ev.a).collect();
            assert_eq!(traced, lanes, "{workers} workers: trace merge order");
        }
    }

    #[test]
    fn window_timing_sums_busy_time_and_the_busiest_unit_per_window() {
        let (mut e, _log) = spied(3, 1);
        e.set_exec_shards(2);
        e.run_until(Nanos::from_millis(5));
        let t = e.window_timing();
        // Ten slot barriers, and the window that closes `run_until`.
        assert_eq!(t.windows, 11);
        assert_eq!(t.busy_ns, e.lane_busy_ns().iter().sum::<u64>());
        assert!(t.critical_ns > 0 && t.critical_ns <= t.busy_ns, "{t:?}");
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
