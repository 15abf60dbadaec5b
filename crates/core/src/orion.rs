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

use slingshot_fapi::{self as fapi, FapiMsg};
use slingshot_netsim::{EtherType, Frame, MacAddr};
use slingshot_ran::{CtlMsg, Msg};
use slingshot_sim::time::{align_to_tdd_cycle, scalar_of};
use slingshot_sim::{Ctx, InstrumentSink, Nanos, Node, NodeId, SlotClock, SlotId, TraceEventKind};

use crate::ctl::CtlPacket;
use crate::fh_mbox::FhMbox;
use crate::recovery::recovery_mac;

const TIMER_SLOT: u64 = 910;

/// MAC address of an Orion process co-located with PHY `id`.
pub fn orion_phy_mac(phy_id: u8) -> MacAddr {
    MacAddr([0x02, 0x4F, 0x52, 0x00, 0x01, phy_id])
}

/// The PHY id whose co-located Orion answers on `mac`: the inverse of
/// [`orion_phy_mac`], `None` for any other address.
pub fn orion_phy_id(mac: MacAddr) -> Option<u8> {
    match mac.0 {
        [0x02, 0x4F, 0x52, 0x00, 0x01, phy_id] => Some(phy_id),
        _ => None,
    }
}

/// MAC address of the Orion process co-located with L2 `id`.
pub fn orion_l2_mac(l2_id: u8) -> MacAddr {
    MacAddr([0x02, 0x4F, 0x52, 0x00, 0x02, l2_id])
}

/// Busy-poll forwarding cost per message (one core, FIFO).
pub const ORION_PER_MSG: Nanos = Nanos(800);

/// Busy-poll forwarding cost per payload byte, ns.
pub const ORION_PER_BYTE_NS: f64 = 0.2;

#[derive(Debug, Default)]
struct CostState {
    busy_until: Nanos,
}

impl CostState {
    /// FIFO service: returns the completion time for a message of
    /// `bytes` arriving at `now`.
    fn service(&mut self, now: Nanos, bytes: usize) -> Nanos {
        let start = self.busy_until.max(now);
        let dur = ORION_PER_MSG + Nanos((bytes as f64 * ORION_PER_BYTE_NS) as u64);
        self.busy_until = start + dur;
        self.busy_until
    }
}

/// The PHY-side Orion.
pub struct OrionPhyNode {
    pub phy_id: u8,
    mac: MacAddr,
    switch: Option<NodeId>,
    phy: Option<NodeId>,
    clock: SlotClock,
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
    pub fn new(phy_id: u8) -> OrionPhyNode {
        OrionPhyNode {
            phy_id,
            mac: orion_phy_mac(phy_id),
            switch: None,
            phy: None,
            clock: SlotClock::new(Nanos::ZERO),
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
                let done = self.state.service(now, frame.payload.len());
                self.fwd_latency.record((done - now).0);
                self.forwarded_to_phy += 1;
                if let Some(phy) = self.phy {
                    ctx.send_in(phy, done - now, Msg::FapiShm(fapi_msg));
                }
            }
            // PHY → network (indications toward the L2-side Orion of
            // the RU they name, whichever cell this PHY was built for).
            Msg::FapiShm(fapi_msg) => {
                let peer = orion_l2_mac(fapi_msg.ru_id());
                let payload = fapi::encode(&fapi_msg);
                let now = ctx.now();
                let done = self.state.service(now, payload.len());
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

/// The L2-side Orion's RU and the PHYs serving it.
#[derive(Debug)]
struct RuBinding {
    ru_id: u8,
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
    mac: MacAddr,
    clock: SlotClock,
    switch: Option<NodeId>,
    l2: Option<NodeId>,
    state: CostState,
    /// Set once, by [`OrionL2Node::bind_ru`].
    binding: Option<RuBinding>,
    /// A shared spare pool is deployed: its recovery orchestrator is
    /// asked for a replacement standby after a failover consumes the
    /// old one.
    spare_pool: bool,
    /// A granted spare and the absolute slot boundary at which it is
    /// promoted to secondary and initialized.
    pending_standby: Option<(u8, u64)>,
    /// The PHY the null FAPI keep-alive last went to, while one is fed:
    /// a change is traced as `KeepAliveStarted`, its end as
    /// `KeepAliveStopped`.
    keep_alive_to: Option<u8>,
    /// Ablation switch: duplicate the primary's *real* FAPI requests to
    /// the standby instead of null ones (the naïve hot-standby design
    /// §6.2 argues against — it doubles PHY compute).
    pub duplicate_standby: bool,
    /// Instrumentation.
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
            mac: orion_l2_mac(l2_id),
            clock,
            switch: None,
            l2: None,
            state: CostState::default(),
            binding: None,
            spare_pool: false,
            pending_standby: None,
            keep_alive_to: None,
            duplicate_standby: false,
            failovers: 0,
            planned_migrations: 0,
            dropped_standby_msgs: 0,
            drained_late_msgs: 0,
            null_fapi_sent: 0,
            last_failure_notified: None,
        }
    }

    pub fn wire(&mut self, switch: NodeId, l2: NodeId) {
        self.switch = Some(switch);
        self.l2 = Some(l2);
    }

    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// A shared spare pool is deployed: when a failover drains the
    /// cell's standby, a [`CtlPacket::SpareRequest`] goes to its
    /// recovery orchestrator instead of leaving the cell unpaired.
    pub fn use_spare_pool(&mut self) {
        self.spare_pool = true;
    }

    /// Bind this Orion's RU to its primary and (optional) secondary
    /// PHY.
    pub fn bind_ru(&mut self, ru_id: u8, primary: u8, secondary: Option<u8>) {
        self.binding = Some(RuBinding {
            ru_id,
            primary,
            secondary,
            migrate_at: None,
            failover: false,
            config: None,
            started: false,
        });
    }

    /// The binding, if it is `ru_id`'s.
    fn binding_of(&self, ru_id: u8) -> Option<&RuBinding> {
        self.binding.as_ref().filter(|b| b.ru_id == ru_id)
    }

    /// The PHY currently bound as primary for `ru_id` (chaos targeting
    /// and test assertions).
    pub fn primary_of(&self, ru_id: u8) -> Option<u8> {
        self.binding_of(ru_id).map(|b| b.primary)
    }

    /// The PHY currently bound as hot standby for `ru_id`, if any.
    pub fn standby_of(&self, ru_id: u8) -> Option<u8> {
        self.binding_of(ru_id).and_then(|b| b.secondary)
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
        let done = self.state.service(now, payload.len());
        let frame = Frame::new(dst, self.mac, EtherType::Ipv4, payload);
        if let Some(sw) = self.switch {
            ctx.send_link_in(sw, done - now, Msg::Eth(frame));
        }
    }

    /// Fan one per-slot request out: the real `msg` to the PHY that
    /// owns `slot`, and to the other PHY of the pair either a duplicate
    /// (the `duplicate_standby` ablation) or the request's `null` form,
    /// when it has one. The keep-alive is traced as state changes: the
    /// first null request to a PHY other than the one last fed, and the
    /// first fan-out with no other PHY while one was fed.
    fn fan_out(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        ru_id: u8,
        slot: SlotId,
        msg: &FapiMsg,
        null: Option<FapiMsg>,
    ) {
        let abs = self.clock.abs_of_slot(ctx.now(), slot);
        let b = self.binding_of(ru_id).expect("binding");
        let owner = Self::owner_of(b, abs);
        // Past a failover's boundary the other PHY is the primary whose
        // failure started the migration: nothing keeps it alive.
        let other = if owner == b.primary {
            b.secondary
        } else if b.failover {
            None
        } else {
            Some(b.primary)
        };
        self.send_udp(ctx, orion_phy_mac(owner), msg);
        let Some(o) = other else {
            if self.keep_alive_to.take().is_some() {
                ctx.trace(TraceEventKind::KeepAliveStopped, ru_id as u64, abs);
            }
            return;
        };
        if self.duplicate_standby {
            self.send_udp(ctx, orion_phy_mac(o), msg);
        } else if let Some(null) = null {
            self.null_fapi_sent += 1;
            if self.keep_alive_to.replace(o) != Some(o) {
                let b = ((o as u64) << 32) | abs;
                ctx.trace(TraceEventKind::KeepAliveStarted, ru_id as u64, b);
            }
            self.send_udp(ctx, orion_phy_mac(o), &null);
        }
    }

    /// Handle a request from the L2 (over SHM): real to the owner, null
    /// to the other PHY.
    fn on_l2_request(&mut self, ctx: &mut Ctx<'_, Msg>, msg: FapiMsg) {
        let ru_id = msg.ru_id();
        let Some(binding) = self.binding.as_mut().filter(|b| b.ru_id == ru_id) else {
            return;
        };
        match &msg {
            FapiMsg::Config(c) => {
                binding.config = Some(c.clone());
                let (p, s) = (binding.primary, binding.secondary);
                self.send_udp(ctx, orion_phy_mac(p), &msg);
                if let Some(s) = s {
                    self.send_udp(ctx, orion_phy_mac(s), &msg);
                }
            }
            FapiMsg::Start { .. } | FapiMsg::Stop { .. } => {
                binding.started = matches!(msg, FapiMsg::Start { .. });
                let (p, s) = (binding.primary, binding.secondary);
                self.send_udp(ctx, orion_phy_mac(p), &msg);
                if let Some(s) = s {
                    self.send_udp(ctx, orion_phy_mac(s), &msg);
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
        let Some(b) = self.binding.as_ref().filter(|b| b.ru_id == ru_id) else {
            return;
        };
        let Some(src_phy) = orion_phy_id(src) else {
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
            let done = self.state.service(now, 64);
            if let Some(l2) = self.l2 {
                ctx.send_in(l2, done - now, Msg::FapiShm(msg));
            }
        } else {
            self.dropped_standby_msgs += 1;
        }
    }

    /// Begin migrating `ru_id`'s processing to its secondary at slot
    /// boundary `boundary_abs` (rounded up to a TDD-cycle start).
    /// Sends `migrate_on_slot` to the switch; `false` when there is no
    /// secondary to migrate to or a migration is already under way.
    fn start_migration(&mut self, ctx: &mut Ctx<'_, Msg>, ru_id: u8, boundary_abs: u64) -> bool {
        let boundary_abs = align_to_tdd_cycle(boundary_abs);
        let Some(b) = self.binding.as_mut().filter(|b| b.ru_id == ru_id) else {
            return false;
        };
        let Some(sec) = b.secondary else {
            return false;
        };
        if b.migrate_at.is_some() {
            return false; // one migration at a time per RU
        }
        b.migrate_at = Some(boundary_abs);
        CtlPacket::MigrateOnSlot {
            ru_id,
            dest_phy_id: sec,
            slot_scalar: scalar_of(boundary_abs),
        }
        .send(ctx, self.switch, FhMbox::SWITCH_MAC, self.mac);
        true
    }

    /// Finalize role swap once the pipeline has drained past the
    /// boundary. After a planned migration the old primary becomes the
    /// standby; after a failover it is dead, so the cell asks the
    /// shared pool for a replacement rather than staying
    /// one-crash-from-outage.
    fn finalize_migration(&mut self, ctx: &mut Ctx<'_, Msg>, now_abs: u64) {
        let Some(b) = self.binding.as_mut() else {
            return;
        };
        let Some(m) = b.migrate_at else { return };
        if now_abs < m + 4 {
            return;
        }
        let old_primary = b.primary;
        b.primary = b.secondary.take().expect("migration had a secondary");
        b.migrate_at = None;
        let failed = b.failover;
        b.failover = false;
        if !failed {
            b.secondary = Some(old_primary);
        } else if self.spare_pool {
            let ru_id = b.ru_id;
            CtlPacket::SpareRequest {
                ru_id,
                failed_phy_id: old_primary,
            }
            .send(ctx, self.switch, recovery_mac(), self.mac);
            ctx.trace(
                TraceEventKind::SpareRequested,
                ru_id as u64,
                old_primary as u64,
            );
        }
    }

    /// Promote pool-granted spares whose boundary has arrived: bind as
    /// the RU's new secondary and initialize it from the stored CONFIG
    /// (§6.3) — the cell is survivable again once the standby's null
    /// FAPI keepalive starts flowing.
    fn promote_granted_standby(&mut self, ctx: &mut Ctx<'_, Msg>, now_abs: u64) {
        let Some((phy, _)) = self.pending_standby.take_if(|(_, b)| now_abs >= *b) else {
            return;
        };
        let Some(b) = self.binding.as_mut() else {
            return;
        };
        if b.secondary.is_some() {
            return; // already re-paired by other means
        }
        b.secondary = Some(phy);
        let (ru_id, cfg, started) = (b.ru_id, b.config.clone(), b.started);
        if let Some(cfg) = cfg {
            self.send_udp(ctx, orion_phy_mac(phy), &FapiMsg::Config(cfg));
            if started {
                self.send_udp(ctx, orion_phy_mac(phy), &FapiMsg::Start { ru_id });
            }
        }
        ctx.trace(TraceEventKind::StandbyRepaired, ru_id as u64, phy as u64);
    }
}

impl Node<Msg> for OrionL2Node {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.timer_at(self.clock.next_slot_start(ctx.now()), TIMER_SLOT);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        if token == TIMER_SLOT {
            let abs = self.clock.absolute_slot(ctx.now());
            self.finalize_migration(ctx, abs);
            self.promote_granted_standby(ctx, abs);
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
                                // Fail over if our RU's primary died: the
                                // next slot boundary is the migration point.
                                let next_abs = self.clock.absolute_slot(now) + 1;
                                if let Some(b) = self
                                    .binding
                                    .as_mut()
                                    .filter(|b| b.primary == phy_id && b.migrate_at.is_none())
                                {
                                    b.failover = true;
                                    let ru_id = b.ru_id;
                                    self.failovers += 1;
                                    // The failed PHY will not serve this RU
                                    // again: stop its Orion's §6.1 loss guard
                                    // from covering the RU with null requests.
                                    // A planned migration keeps the old
                                    // primary as standby, so it sends none.
                                    if self.start_migration(ctx, ru_id, next_abs) {
                                        let stop = FapiMsg::Stop { ru_id };
                                        self.send_udp(ctx, orion_phy_mac(phy_id), &stop);
                                    }
                                }
                            }
                            Some(CtlPacket::SpareGrant { ru_id, phy_id })
                                if self.binding_of(ru_id).is_some() =>
                            {
                                // The pool answered: promote at an aligned
                                // boundary a couple of slots out, same
                                // discipline as a migration.
                                let now_abs = self.clock.absolute_slot(ctx.now());
                                let boundary = align_to_tdd_cycle(now_abs + 2);
                                self.pending_standby = Some((phy_id, boundary));
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
        // `orion_phy_id` inverts `orion_phy_mac` and names no other
        // address a PHY-side Orion could be confused with.
        for id in 0..=u8::MAX {
            assert_eq!(orion_phy_id(orion_phy_mac(id)), Some(id));
            assert_eq!(orion_phy_id(orion_l2_mac(id)), None);
            assert_eq!(orion_phy_id(MacAddr::for_phy(id)), None);
        }
        for other in [
            recovery_mac(),
            crate::handover::handover_mac(),
            FhMbox::SWITCH_MAC,
        ] {
            assert_eq!(orion_phy_id(other), None);
        }
    }

    #[test]
    fn cost_state_fifo_queueing() {
        let mut st = CostState::default();
        // First message: 800 + 500 × 0.2 ns.
        assert_eq!(st.service(Nanos(0), 500), Nanos(900));
        // Second, arriving immediately: queues behind the first.
        assert_eq!(st.service(Nanos(0), 500), Nanos(1_800));
        // Third, arriving after the queue drained: no wait.
        assert_eq!(st.service(Nanos(10_000), 100), Nanos(10_820));
    }

    #[test]
    fn owner_flips_at_boundary() {
        let b = RuBinding {
            ru_id: 0,
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
