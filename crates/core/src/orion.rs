//! Orion, the L2↔PHY FAPI middlebox (paper §6).
//!
//! Two roles, each a node:
//!
//! - [`OrionPhyNode`] pairs with a PHY over "shared memory" and bridges
//!   it to the datacenter network with a lean, stateless UDP transport
//!   (§6.1) — no nFAPI/SCTP state, so nothing needs migrating.
//! - [`OrionL2Node`] pairs with the L2. It forwards real FAPI requests
//!   to the primary PHY and **null** requests to the hot standby
//!   (§6.2), filters the standby's responses, duplicates initialization
//!   (§6.3), initiates migration at a TTI boundary (`migrate_on_slot`
//!   to the switch), and — per §7/Fig. 7 — keeps accepting the old
//!   primary's pipelined uplink results for pre-boundary slots.
//!
//! Both roles model the busy-polling forwarding cost of the real C++
//! implementation (per-message + per-byte, FIFO through one core), so
//! the Fig. 12 latency measurements are produced by executed code.

use std::collections::BTreeMap;
use std::collections::HashMap;

use slingshot_fapi::{self as fapi, FapiMsg};
use slingshot_netsim::{EtherType, Frame, MacAddr};
use slingshot_ran::{CtlMsg, Msg};
use slingshot_sim::time::{align_to_tdd_cycle, scalar_of};
use slingshot_sim::{Ctx, InstrumentSink, Nanos, Node, NodeId, SlotClock, SlotId, TraceEventKind};

use crate::ctl::CtlPacket;

const TIMER_SLOT: u64 = 910;

/// MAC address of an Orion process co-located with PHY `id`.
pub fn orion_phy_mac(phy_id: u8) -> MacAddr {
    MacAddr([0x02, 0x4F, 0x52, 0x00, 0x01, phy_id])
}

/// MAC address of the Orion process co-located with L2 `id`.
pub fn orion_l2_mac(l2_id: u8) -> MacAddr {
    MacAddr([0x02, 0x4F, 0x52, 0x00, 0x02, l2_id])
}

/// Busy-poll forwarding cost model (one core, FIFO).
#[derive(Debug, Clone, Copy)]
pub struct OrionCost {
    pub per_msg: Nanos,
    pub per_byte_ns: f64,
}

impl Default for OrionCost {
    fn default() -> OrionCost {
        OrionCost {
            per_msg: Nanos(800),
            per_byte_ns: 0.2,
        }
    }
}

#[derive(Debug, Default)]
struct CostState {
    busy_until: Nanos,
}

impl CostState {
    /// FIFO service: returns the completion time for a message of
    /// `bytes` arriving at `now`.
    fn service(&mut self, now: Nanos, bytes: usize, cost: &OrionCost) -> Nanos {
        let start = self.busy_until.max(now);
        let dur = cost.per_msg + Nanos((bytes as f64 * cost.per_byte_ns) as u64);
        self.busy_until = start + dur;
        self.busy_until
    }
}

/// The PHY-side Orion.
pub struct OrionPhyNode {
    pub phy_id: u8,
    mac: MacAddr,
    peer_l2_orion: MacAddr,
    /// Per-RU peer override (a PHY process can serve RUs belonging to
    /// different L2 processes — the co-located multi-RU deployment).
    peer_by_ru: HashMap<u8, MacAddr>,
    switch: Option<NodeId>,
    phy: Option<NodeId>,
    clock: SlotClock,
    cost: OrionCost,
    state: CostState,
    /// Started RUs and the latest absolute slot each has TTI requests
    /// for — the §6.1 loss guard: if a datagram is lost, Orion injects
    /// null requests so the PHY never starves. (BTreeMap: iterated in
    /// an event-emitting path, so the order must be deterministic.)
    ru_last_slot: BTreeMap<u8, (bool, u64)>,
    /// Latency histogram: (enqueue→deliver) for L2→PHY requests. A
    /// log-bucketed histogram, not a raw sampler — this path records
    /// one entry per FAPI message and would otherwise grow with the
    /// run length.
    pub fwd_latency: slingshot_sim::LogHistogram,
    pub forwarded_to_phy: u64,
    pub forwarded_to_l2: u64,
    /// Null requests synthesized to cover lost datagrams (§6.1).
    pub loss_nulls_injected: u64,
    /// Bytes received from the L2-side Orion (null-FAPI overhead
    /// accounting, §8.5).
    pub rx_bytes_from_l2: u64,
}

impl OrionPhyNode {
    pub fn new(phy_id: u8, l2_id: u8) -> OrionPhyNode {
        OrionPhyNode {
            phy_id,
            mac: orion_phy_mac(phy_id),
            peer_l2_orion: orion_l2_mac(l2_id),
            peer_by_ru: HashMap::new(),
            switch: None,
            phy: None,
            clock: SlotClock::new(Nanos::ZERO),
            cost: OrionCost::default(),
            state: CostState::default(),
            ru_last_slot: BTreeMap::new(),
            fwd_latency: slingshot_sim::LogHistogram::new(),
            forwarded_to_phy: 0,
            forwarded_to_l2: 0,
            loss_nulls_injected: 0,
            rx_bytes_from_l2: 0,
        }
    }

    pub fn wire(&mut self, switch: NodeId, phy: NodeId) {
        self.switch = Some(switch);
        self.phy = Some(phy);
    }

    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// Route a specific RU's indications to a specific L2-side Orion.
    pub fn route_ru(&mut self, ru_id: u8, l2_orion: MacAddr) {
        self.peer_by_ru.insert(ru_id, l2_orion);
    }

    fn peer_for(&self, ru_id: u8) -> MacAddr {
        self.peer_by_ru
            .get(&ru_id)
            .copied()
            .unwrap_or(self.peer_l2_orion)
    }

    /// §6.1 loss guard: cover a slot whose requests never arrived with
    /// a null UL_TTI + DL_TTI pair, handed to the PHY `delay` from now.
    fn inject_null_pair(&mut self, ctx: &mut Ctx<'_, Msg>, ru_id: u8, slot_abs: u64, delay: Nanos) {
        let slot = SlotId::from_absolute(slot_abs);
        self.loss_nulls_injected += 2;
        if let Some(phy) = self.phy {
            let ul = FapiMsg::UlTti(fapi::UlTtiRequest::null(ru_id, slot));
            ctx.send_in(phy, delay, Msg::FapiShm(ul));
            let dl = FapiMsg::DlTti(fapi::DlTtiRequest::null(ru_id, slot));
            ctx.send_in(phy, delay, Msg::FapiShm(dl));
        }
    }
}

const TIMER_PHY_SIDE_SLOT: u64 = 911;

impl Node<Msg> for OrionPhyNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.timer_at(self.clock.next_slot_start(ctx.now()), TIMER_PHY_SIDE_SLOT);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        if token != TIMER_PHY_SIDE_SLOT {
            return;
        }
        // §6.1 loss guard: the FAPI spec requires the PHY to receive
        // slot requests every slot. If a datagram was lost on the
        // datacenter network, synthesize null requests for the gap so
        // the PHY does not starve (and crash).
        let now = ctx.now();
        let abs = self.clock.absolute_slot(now);
        let expect = abs + 1; // requests normally run ≥2 slots ahead
        let mut inject = Vec::new();
        for (ru_id, (started, last)) in self.ru_last_slot.iter_mut() {
            if !*started {
                continue;
            }
            while *last < expect {
                *last += 1;
                inject.push((*ru_id, *last));
            }
        }
        for (ru_id, slot_abs) in inject {
            self.inject_null_pair(ctx, ru_id, slot_abs, Nanos(1_000));
        }
        ctx.timer_at(self.clock.slot_start(abs + 1), TIMER_PHY_SIDE_SLOT);
    }

    fn on_msg(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        match msg {
            // Network → PHY (requests from the L2-side Orion).
            Msg::Eth(frame) => {
                if frame.ethertype != EtherType::Ipv4 || frame.dst != self.mac {
                    return;
                }
                let Some(fapi_msg) = fapi::decode(&frame.payload) else {
                    return;
                };
                let now = ctx.now();
                // Track request progress per RU for the loss guard.
                match &fapi_msg {
                    FapiMsg::Config(c) => {
                        self.ru_last_slot
                            .entry(c.ru_id)
                            .or_insert((false, self.clock.absolute_slot(now)));
                    }
                    FapiMsg::Start { ru_id } => {
                        let e = self
                            .ru_last_slot
                            .entry(*ru_id)
                            .or_insert((false, self.clock.absolute_slot(now)));
                        e.0 = true;
                        e.1 = self.clock.absolute_slot(now) + 1;
                    }
                    FapiMsg::Stop { ru_id } => {
                        if let Some(e) = self.ru_last_slot.get_mut(ru_id) {
                            e.0 = false;
                        }
                    }
                    FapiMsg::UlTti(r) => {
                        let abs = self.clock.abs_of_slot(now, r.slot);
                        // §6.1: a hole in the request stream means a
                        // datagram was lost on the way — fill it with
                        // nulls immediately so the PHY never misses a
                        // slot's worth of requests.
                        let mut holes = Vec::new();
                        if let Some(e) = self.ru_last_slot.get_mut(&r.ru_id) {
                            if e.0 {
                                while e.1 + 1 < abs {
                                    e.1 += 1;
                                    holes.push(e.1);
                                }
                            }
                            e.1 = e.1.max(abs);
                        }
                        for slot_abs in holes {
                            self.inject_null_pair(ctx, r.ru_id, slot_abs, Nanos(500));
                        }
                    }
                    _ => {}
                }
                self.rx_bytes_from_l2 += frame.wire_size() as u64;
                let done = self.state.service(now, frame.payload.len(), &self.cost);
                self.fwd_latency.record((done - now).0);
                self.forwarded_to_phy += 1;
                if let Some(phy) = self.phy {
                    ctx.send_in(phy, done - now, Msg::FapiShm(fapi_msg));
                }
            }
            // PHY → network (indications toward the L2-side Orion
            // owning this RU).
            Msg::FapiShm(fapi_msg) => {
                let peer = self.peer_for(fapi_msg.ru_id());
                let payload = fapi::encode(&fapi_msg);
                let now = ctx.now();
                let done = self.state.service(now, payload.len(), &self.cost);
                let frame = Frame::new(peer, self.mac, EtherType::Ipv4, payload);
                self.forwarded_to_l2 += 1;
                if let Some(sw) = self.switch {
                    ctx.send_link_in(sw, done - now, Msg::Eth(frame));
                }
            }
            _ => {}
        }
    }

    fn instrument(&self, scope: &str, sink: &mut dyn InstrumentSink) {
        sink.counter(scope, "forwarded_to_phy", self.forwarded_to_phy);
        sink.counter(scope, "forwarded_to_l2", self.forwarded_to_l2);
        sink.counter(scope, "loss_nulls_injected", self.loss_nulls_injected);
        sink.counter(scope, "rx_bytes_from_l2", self.rx_bytes_from_l2);
        sink.histogram(scope, "fwd_latency_ns", &self.fwd_latency);
    }
}

/// Per-RU binding state at the L2-side Orion.
#[derive(Debug)]
struct RuBinding {
    primary: u8,
    secondary: Option<u8>,
    /// Slots ≥ this boundary are served by `secondary` (a migration in
    /// progress); `None` = no migration pending.
    migrate_at: Option<u64>,
    /// The in-progress migration is a failover (primary crashed), not
    /// a planned move — the old primary cannot become the new standby.
    failover: bool,
    /// Stored CONFIG.request, for initializing replacement standbys.
    config: Option<fapi::ConfigRequest>,
    started: bool,
}

/// The L2-side Orion.
pub struct OrionL2Node {
    pub l2_id: u8,
    mac: MacAddr,
    clock: SlotClock,
    switch: Option<NodeId>,
    l2: Option<NodeId>,
    switch_mac: MacAddr,
    cost: OrionCost,
    state: CostState,
    bindings: BTreeMap<u8, RuBinding>,
    /// PHY id → that server's Orion MAC (the deployment's server pool).
    phy_pool: BTreeMap<u8, MacAddr>,
    /// The shared-pool recovery orchestrator, if one is deployed: asked
    /// for a replacement standby after a failover consumes the old one.
    recovery_mac: Option<MacAddr>,
    /// RU id → (granted spare, absolute slot boundary at which it is
    /// promoted to secondary and initialized).
    pending_standby: BTreeMap<u8, (u8, u64)>,
    /// Ablation switch: duplicate the primary's *real* FAPI requests to
    /// the standby instead of null ones (the naïve hot-standby design
    /// §6.2 argues against — it doubles PHY compute).
    pub duplicate_standby: bool,
    /// Instrumentation.
    pub events: Vec<(Nanos, String)>,
    pub failovers: u64,
    pub planned_migrations: u64,
    pub dropped_standby_msgs: u64,
    pub drained_late_msgs: u64,
    pub null_fapi_sent: u64,
    /// Time the most recent failure notification arrived (paper: "we
    /// record the PHY failure time as the time when the L2-side Orion
    /// receives a notification").
    pub last_failure_notified: Option<Nanos>,
}

impl OrionL2Node {
    pub fn new(l2_id: u8, clock: SlotClock) -> OrionL2Node {
        OrionL2Node {
            l2_id,
            mac: orion_l2_mac(l2_id),
            clock,
            switch: None,
            l2: None,
            switch_mac: MacAddr::ZERO,
            cost: OrionCost::default(),
            state: CostState::default(),
            bindings: BTreeMap::new(),
            phy_pool: BTreeMap::new(),
            recovery_mac: None,
            pending_standby: BTreeMap::new(),
            duplicate_standby: false,
            events: Vec::new(),
            failovers: 0,
            planned_migrations: 0,
            dropped_standby_msgs: 0,
            drained_late_msgs: 0,
            null_fapi_sent: 0,
            last_failure_notified: None,
        }
    }

    pub fn wire(&mut self, switch: NodeId, l2: NodeId, switch_mac: MacAddr) {
        self.switch = Some(switch);
        self.l2 = Some(l2);
        self.switch_mac = switch_mac;
    }

    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// Register a PHY server in the pool (management-plane config).
    pub fn register_phy_server(&mut self, phy_id: u8) {
        self.phy_pool.insert(phy_id, orion_phy_mac(phy_id));
    }

    /// Point this Orion at a shared-pool recovery orchestrator: when a
    /// failover drains the cell's standby, a
    /// [`CtlPacket::SpareRequest`] is sent there instead of leaving the
    /// cell unpaired.
    pub fn set_recovery_orchestrator(&mut self, mac: MacAddr) {
        self.recovery_mac = Some(mac);
    }

    /// Bind an RU to its primary and (optional) secondary PHY.
    pub fn bind_ru(&mut self, ru_id: u8, primary: u8, secondary: Option<u8>) {
        self.register_phy_server(primary);
        if let Some(s) = secondary {
            self.register_phy_server(s);
        }
        self.bindings.insert(
            ru_id,
            RuBinding {
                primary,
                secondary,
                migrate_at: None,
                failover: false,
                config: None,
                started: false,
            },
        );
    }

    /// The PHY currently bound as primary for `ru_id` (chaos targeting
    /// and test assertions).
    pub fn primary_of(&self, ru_id: u8) -> Option<u8> {
        self.bindings.get(&ru_id).map(|b| b.primary)
    }

    /// The PHY currently bound as hot standby for `ru_id`, if any.
    pub fn standby_of(&self, ru_id: u8) -> Option<u8> {
        self.bindings.get(&ru_id).and_then(|b| b.secondary)
    }

    /// The PHY that owns slot `abs` for this RU.
    fn owner_of(b: &RuBinding, abs: u64) -> u8 {
        match (b.migrate_at, b.secondary) {
            (Some(boundary), Some(sec)) if abs >= boundary => sec,
            _ => b.primary,
        }
    }

    fn send_udp(&mut self, ctx: &mut Ctx<'_, Msg>, dst: MacAddr, msg: &FapiMsg) {
        let payload = fapi::encode(msg);
        let now = ctx.now();
        let done = self.state.service(now, payload.len(), &self.cost);
        let frame = Frame::new(dst, self.mac, EtherType::Ipv4, payload);
        if let Some(sw) = self.switch {
            ctx.send_link_in(sw, done - now, Msg::Eth(frame));
        }
    }

    fn orion_mac_of(&self, phy_id: u8) -> MacAddr {
        self.phy_pool
            .get(&phy_id)
            .copied()
            .unwrap_or_else(|| orion_phy_mac(phy_id))
    }

    /// Fan one per-slot request out: the real `msg` to the PHY that
    /// owns `slot`, and to the other PHY of the pair either a duplicate
    /// (the `duplicate_standby` ablation) or the request's `null` form,
    /// when it has one.
    fn fan_out(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        ru_id: u8,
        slot: SlotId,
        msg: &FapiMsg,
        null: Option<FapiMsg>,
    ) {
        let abs = self.clock.abs_of_slot(ctx.now(), slot);
        let b = self.bindings.get(&ru_id).expect("binding");
        let owner = Self::owner_of(b, abs);
        let other = if owner == b.primary {
            b.secondary
        } else {
            Some(b.primary)
        };
        self.send_udp(ctx, self.orion_mac_of(owner), msg);
        let Some(o) = other else {
            return;
        };
        if self.duplicate_standby {
            self.send_udp(ctx, self.orion_mac_of(o), msg);
        } else if let Some(null) = null {
            self.null_fapi_sent += 1;
            ctx.trace(TraceEventKind::NullFapiSent, ru_id as u64, abs);
            self.send_udp(ctx, self.orion_mac_of(o), &null);
        }
    }

    /// Handle a request from the L2 (over SHM): real to the owner, null
    /// to the other PHY.
    fn on_l2_request(&mut self, ctx: &mut Ctx<'_, Msg>, msg: FapiMsg) {
        let ru_id = msg.ru_id();
        let Some(binding) = self.bindings.get_mut(&ru_id) else {
            return;
        };
        match &msg {
            FapiMsg::Config(c) => {
                binding.config = Some(c.clone());
                let (p, s) = (binding.primary, binding.secondary);
                self.send_udp(ctx, self.orion_mac_of(p), &msg);
                if let Some(s) = s {
                    self.send_udp(ctx, self.orion_mac_of(s), &msg);
                }
            }
            FapiMsg::Start { .. } | FapiMsg::Stop { .. } => {
                binding.started = matches!(msg, FapiMsg::Start { .. });
                let (p, s) = (binding.primary, binding.secondary);
                self.send_udp(ctx, self.orion_mac_of(p), &msg);
                if let Some(s) = s {
                    self.send_udp(ctx, self.orion_mac_of(s), &msg);
                }
            }
            FapiMsg::UlTti(req) => {
                let null = FapiMsg::UlTti(fapi::UlTtiRequest::null(ru_id, req.slot));
                self.fan_out(ctx, ru_id, req.slot, &msg, Some(null));
            }
            FapiMsg::DlTti(req) => {
                let null = FapiMsg::DlTti(fapi::DlTtiRequest::null(ru_id, req.slot));
                self.fan_out(ctx, ru_id, req.slot, &msg, Some(null));
            }
            // TX_DATA has no null form: the other PHY gets it only as a
            // duplicate.
            FapiMsg::TxData(req) => self.fan_out(ctx, ru_id, req.slot, &msg, None),
            _ => {}
        }
    }

    /// Handle an indication arriving from a PHY-side Orion: forward to
    /// the L2 only from the PHY that owns the indication's slot —
    /// which, during a planned migration, keeps accepting the old
    /// primary's pipelined late results (§7, Fig. 7).
    fn on_phy_indication(&mut self, ctx: &mut Ctx<'_, Msg>, src: MacAddr, msg: FapiMsg) {
        let ru_id = msg.ru_id();
        let Some(b) = self.bindings.get(&ru_id) else {
            return;
        };
        let src_phy = self
            .phy_pool
            .iter()
            .find(|(_, m)| **m == src)
            .map(|(id, _)| *id);
        let Some(src_phy) = src_phy else {
            return;
        };
        let slot_abs = msg.slot().map(|s| self.clock.abs_of_slot(ctx.now(), s));
        let accept = match slot_abs {
            Some(abs) => {
                let owner = Self::owner_of(b, abs);
                if owner == src_phy {
                    // Late result from the old primary for a
                    // pre-boundary slot?
                    if b.migrate_at.is_some_and(|m| abs < m) && src_phy == b.primary {
                        self.drained_late_msgs += 1;
                        ctx.trace(TraceEventKind::PipelinedSlotDrained, src_phy as u64, abs);
                    }
                    true
                } else {
                    false
                }
            }
            None => src_phy == b.primary,
        };
        if accept {
            // Chaos-oracle checkpoint: exactly one PHY's uplink response
            // per slot may cross into L2, failover or not. CRC.indication
            // is the once-per-slot response the oracle keys on.
            if let (FapiMsg::CrcInd(_), Some(abs), Some(slot)) = (&msg, slot_abs, msg.slot()) {
                ctx.trace_at_slot(TraceEventKind::FapiToL2, slot, src_phy as u64, abs);
            }
            let now = ctx.now();
            let done = self.state.service(now, 64, &self.cost);
            if let Some(l2) = self.l2 {
                ctx.send_in(l2, done - now, Msg::FapiShm(msg));
            }
        } else {
            self.dropped_standby_msgs += 1;
            ctx.trace(
                TraceEventKind::DupResponseDropped,
                src_phy as u64,
                slot_abs.unwrap_or(0),
            );
        }
    }

    /// Begin migrating `ru_id`'s processing to its secondary at slot
    /// boundary `boundary_abs` (rounded up to a TDD-cycle start).
    /// Sends `migrate_on_slot` to the switch.
    fn start_migration(&mut self, ctx: &mut Ctx<'_, Msg>, ru_id: u8, boundary_abs: u64) {
        let boundary_abs = align_to_tdd_cycle(boundary_abs);
        let Some(b) = self.bindings.get_mut(&ru_id) else {
            return;
        };
        let Some(sec) = b.secondary else {
            self.events
                .push((ctx.now(), format!("ru{ru_id}: no secondary available")));
            return;
        };
        if b.migrate_at.is_some() {
            return; // one migration at a time per RU
        }
        b.migrate_at = Some(boundary_abs);
        CtlPacket::MigrateOnSlot {
            ru_id,
            dest_phy_id: sec,
            slot_scalar: scalar_of(boundary_abs),
        }
        .send(ctx, self.switch, self.switch_mac, self.mac);
        self.events.push((
            ctx.now(),
            format!("ru{ru_id}: migrate to phy{sec} at abs slot {boundary_abs}"),
        ));
    }

    /// Finalize role swap once the pipeline has drained past the
    /// boundary. After a planned migration the old primary becomes the
    /// standby; after a failover it is dead, so the cell asks the
    /// shared pool for a replacement rather than staying
    /// one-crash-from-outage.
    fn finalize_migrations(&mut self, ctx: &mut Ctx<'_, Msg>, now_abs: u64) {
        let ru_ids: Vec<u8> = self.bindings.keys().copied().collect();
        for ru_id in ru_ids {
            let Some(b) = self.bindings.get_mut(&ru_id) else {
                continue;
            };
            let Some(m) = b.migrate_at else { continue };
            if now_abs < m + 4 {
                continue;
            }
            let old_primary = b.primary;
            let sec = b.secondary.take().expect("migration had a secondary");
            b.primary = sec;
            b.migrate_at = None;
            let failed = b.failover;
            b.failover = false;
            if !failed {
                b.secondary = Some(old_primary);
            } else if let Some(rec) = self.recovery_mac {
                CtlPacket::SpareRequest {
                    ru_id,
                    failed_phy_id: old_primary,
                }
                .send(ctx, self.switch, rec, self.mac);
                ctx.trace(
                    TraceEventKind::SpareRequested,
                    ru_id as u64,
                    old_primary as u64,
                );
                self.events.push((
                    ctx.now(),
                    format!("ru{ru_id}: requesting pool spare (phy{old_primary} drained)"),
                ));
            }
            self.events.push((
                ctx.now(),
                format!("ru{ru_id}: migration finalized; primary=phy{sec}"),
            ));
        }
    }

    /// Promote pool-granted spares whose boundary has arrived: bind as
    /// the RU's new secondary and initialize it from the stored CONFIG
    /// (§6.3) — the cell is survivable again once the standby's null
    /// FAPI keepalive starts flowing.
    fn promote_granted_standbys(&mut self, ctx: &mut Ctx<'_, Msg>, now_abs: u64) {
        let ready: Vec<(u8, u8)> = self
            .pending_standby
            .iter()
            .filter(|(_, (_, boundary))| now_abs >= *boundary)
            .map(|(ru, (phy, _))| (*ru, *phy))
            .collect();
        for (ru_id, phy) in ready {
            self.pending_standby.remove(&ru_id);
            let Some(b) = self.bindings.get_mut(&ru_id) else {
                continue;
            };
            if b.secondary.is_some() {
                continue; // already re-paired by other means
            }
            b.secondary = Some(phy);
            let cfg = b.config.clone();
            let started = b.started;
            self.register_phy_server(phy);
            if let Some(cfg) = cfg {
                self.send_udp(ctx, self.orion_mac_of(phy), &FapiMsg::Config(cfg));
                if started {
                    self.send_udp(ctx, self.orion_mac_of(phy), &FapiMsg::Start { ru_id });
                }
            }
            ctx.trace(TraceEventKind::StandbyRepaired, ru_id as u64, phy as u64);
            self.events.push((
                ctx.now(),
                format!("ru{ru_id}: re-paired with pooled phy{phy}"),
            ));
        }
    }
}

impl Node<Msg> for OrionL2Node {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.timer_at(self.clock.next_slot_start(ctx.now()), TIMER_SLOT);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        if token == TIMER_SLOT {
            let abs = self.clock.absolute_slot(ctx.now());
            self.finalize_migrations(ctx, abs);
            self.promote_granted_standbys(ctx, abs);
            ctx.timer_at(self.clock.slot_start(abs + 1), TIMER_SLOT);
        }
    }

    fn on_msg(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        match msg {
            Msg::FapiShm(m) if m.is_request() => self.on_l2_request(ctx, m),
            Msg::FapiShm(_) => {}
            Msg::Eth(frame) => {
                if frame.dst != self.mac {
                    return;
                }
                match frame.ethertype {
                    EtherType::Ipv4 => {
                        if let Some(m) = fapi::decode(&frame.payload) {
                            self.on_phy_indication(ctx, frame.src, m);
                        }
                    }
                    EtherType::SlingshotCtl => {
                        match CtlPacket::from_bytes(&frame.payload) {
                            Some(CtlPacket::FailureNotify { phy_id }) => {
                                let now = ctx.now();
                                self.last_failure_notified = Some(now);
                                ctx.trace(TraceEventKind::FailureNotifyReceived, phy_id as u64, 0);
                                self.events
                                    .push((now, format!("failure notification: phy{phy_id}")));
                                // Failover every RU whose primary died: the
                                // next slot boundary is the migration point.
                                let next_abs = self.clock.absolute_slot(now) + 1;
                                let rus: Vec<u8> = self
                                    .bindings
                                    .iter()
                                    .filter(|(_, b)| b.primary == phy_id && b.migrate_at.is_none())
                                    .map(|(id, _)| *id)
                                    .collect();
                                for ru_id in rus {
                                    self.failovers += 1;
                                    if let Some(b) = self.bindings.get_mut(&ru_id) {
                                        b.failover = true;
                                    }
                                    self.start_migration(ctx, ru_id, next_abs);
                                }
                            }
                            Some(CtlPacket::SpareGrant { ru_id, phy_id }) => {
                                // The pool answered: promote at an aligned
                                // boundary a couple of slots out, same
                                // discipline as a migration.
                                let boundary =
                                    align_to_tdd_cycle(self.clock.absolute_slot(ctx.now()) + 2);
                                self.pending_standby.insert(ru_id, (phy_id, boundary));
                                self.events.push((
                                ctx.now(),
                                format!("ru{ru_id}: pool granted phy{phy_id}, standby at {boundary}"),
                            ));
                            }
                            _ => {}
                        }
                    }
                    _ => {}
                }
            }
            Msg::Ctl(CtlMsg::AttachRequest { .. })
            | Msg::Ctl(CtlMsg::AttachAccept { .. })
            | Msg::Ctl(CtlMsg::Detach { .. }) => {}
            Msg::Ctl(CtlMsg::PlannedMigration { ru_id }) => {
                // Planned migration (operator/controller initiated):
                // pick a boundary a few slots out so the command beats
                // the first affected packet to the switch.
                let boundary = self.clock.absolute_slot(ctx.now()) + 3;
                self.planned_migrations += 1;
                self.start_migration(ctx, ru_id, boundary);
            }
            _ => {}
        }
    }

    fn instrument(&self, scope: &str, sink: &mut dyn InstrumentSink) {
        sink.counter(scope, "failovers", self.failovers);
        sink.counter(scope, "planned_migrations", self.planned_migrations);
        sink.counter(scope, "dropped_standby_msgs", self.dropped_standby_msgs);
        sink.counter(scope, "drained_late_msgs", self.drained_late_msgs);
        sink.counter(scope, "null_fapi_sent", self.null_fapi_sent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macs_distinct() {
        assert_ne!(orion_phy_mac(1), orion_l2_mac(1));
        assert_ne!(orion_phy_mac(1), orion_phy_mac(2));
        assert_ne!(orion_phy_mac(1), MacAddr::for_phy(1));
    }

    #[test]
    fn cost_state_fifo_queueing() {
        let cost = OrionCost {
            per_msg: Nanos(1_000),
            per_byte_ns: 1.0,
        };
        let mut st = CostState::default();
        // First message: 1000 + 500 ns.
        assert_eq!(st.service(Nanos(0), 500, &cost), Nanos(1_500));
        // Second, arriving immediately: queues behind the first.
        assert_eq!(st.service(Nanos(0), 500, &cost), Nanos(3_000));
        // Third, arriving after the queue drained: no wait.
        assert_eq!(st.service(Nanos(10_000), 100, &cost), Nanos(11_100));
    }

    #[test]
    fn owner_flips_at_boundary() {
        let b = RuBinding {
            primary: 1,
            secondary: Some(2),
            migrate_at: Some(100),
            failover: false,
            config: None,
            started: true,
        };
        assert_eq!(OrionL2Node::owner_of(&b, 99), 1);
        assert_eq!(OrionL2Node::owner_of(&b, 100), 2);
        assert_eq!(OrionL2Node::owner_of(&b, 101), 2);
        let no_mig = RuBinding {
            migrate_at: None,
            ..b
        };
        assert_eq!(OrionL2Node::owner_of(&no_mig, 1_000_000), 1);
    }
}
