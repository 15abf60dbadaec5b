//! The shared-pool recovery orchestrator.
//!
//! The paper's resilience story ends after one failover: the cell runs
//! un-paired until an operator provisions a new standby. At production
//! scale (ROADMAP north star), N cells share M spare PHY servers and
//! must survive *sequences* of failures. This module is the control
//! loop that closes that gap:
//!
//! - Every L2-side Orion that drains its last local standby sends a
//!   [`CtlPacket::SpareRequest`] here (via the switch).
//! - The orchestrator pops a spare from its FIFO pool, commands the
//!   switch to install the spare's virtual-PHY mapping at a slot
//!   boundary ([`CtlPacket::InstallStandby`] → standby request store),
//!   and tells the cell's Orion which PHY it got
//!   ([`CtlPacket::SpareGrant`]); Orion then replays the duplicated
//!   init-FAPI (§6.3) and re-pairs the cell.
//! - Crashed ex-primaries are *scrubbed*: after a hold-off the
//!   orchestrator restarts the dead process, wipes its per-RU soft
//!   state (stateless PHY — §4.2 is what makes this safe), and returns
//!   it to the pool, so M spares absorb an unbounded failure sequence
//!   as long as crashes are spaced wider than the scrub time.
//!
//! Requests that arrive while the pool is dry queue FIFO and are served
//! as scrubs complete.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use slingshot_netsim::{EtherType, MacAddr};
use slingshot_ran::{CtlMsg, Msg};
use slingshot_sim::time::{align_to_tdd_cycle, scalar_of};
use slingshot_sim::{Ctx, InstrumentSink, Nanos, Node, NodeId, SlotClock, TraceEventKind};

use crate::ctl::CtlPacket;
use crate::fh_mbox::FhMbox;
use crate::orion::orion_l2_mac;

/// Timer-token base for per-PHY scrub timers (token = base + phy id).
const TIMER_SCRUB_BASE: u64 = 920;

/// Hold-off between a failure notification and the scrub-restart, in
/// slots: long enough for the failover to finalize and for the dead
/// primary's last pipelined results to be irrelevant.
const SCRUB_DELAY_SLOTS: u64 = 40;

/// MAC address of the recovery orchestrator process.
pub fn recovery_mac() -> MacAddr {
    MacAddr([0x02, 0x4F, 0x52, 0x00, 0x03, 0x01])
}

/// The recovery orchestrator node.
pub struct RecoveryOrchestrator {
    mac: MacAddr,
    clock: SlotClock,
    switch: Option<NodeId>,
    /// Free spares, FIFO: grants cycle through the pool instead of
    /// hammering one server.
    pool: VecDeque<u8>,
    /// Requests that arrived while the pool was dry: (ru, failed phy).
    pending: VecDeque<(u8, u8)>,
    /// PHY id → engine node, for restart-and-scrub of dead processes.
    inventory: BTreeMap<u8, NodeId>,
    /// PHYs with a scrub timer in flight.
    scrubbing: BTreeSet<u8>,
    /// Observability.
    pub grants: u64,
    pub requests_queued: u64,
    pub scrubs_completed: u64,
}

impl RecoveryOrchestrator {
    pub fn new(clock: SlotClock) -> RecoveryOrchestrator {
        RecoveryOrchestrator {
            mac: recovery_mac(),
            clock,
            switch: None,
            pool: VecDeque::new(),
            pending: VecDeque::new(),
            inventory: BTreeMap::new(),
            scrubbing: BTreeSet::new(),
            grants: 0,
            requests_queued: 0,
            scrubs_completed: 0,
        }
    }

    pub fn wire(&mut self, switch: NodeId) {
        self.switch = Some(switch);
    }

    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// Register a PHY server the orchestrator may restart and scrub
    /// (every cell PHY and every pooled spare).
    pub fn register_phy(&mut self, phy_id: u8, node: NodeId) {
        self.inventory.insert(phy_id, node);
    }

    /// Add a free spare to the pool.
    pub fn add_spare(&mut self, phy_id: u8, node: NodeId) {
        self.register_phy(phy_id, node);
        self.pool.push_back(phy_id);
    }

    /// Free spares currently in the pool (test/oracle visibility).
    pub fn pool_size(&self) -> usize {
        self.pool.len()
    }

    /// Requests waiting for a spare to free up.
    pub fn pending_requests(&self) -> usize {
        self.pending.len()
    }

    /// Grant a spare to `ru_id` if one is free, else queue the request.
    fn grant_or_queue(&mut self, ctx: &mut Ctx<'_, Msg>, ru_id: u8, failed_phy: u8) {
        let Some(phy) = self.pool.pop_front() else {
            self.pending.push_back((ru_id, failed_phy));
            self.requests_queued += 1;
            return;
        };
        let now_abs = self.clock.absolute_slot(ctx.now());
        // Data-plane half: the switch stages the install and executes it
        // at the boundary.
        CtlPacket::InstallStandby {
            ru_id,
            phy_id: phy,
            slot_scalar: scalar_of(align_to_tdd_cycle(now_abs + 2)),
        }
        .send(ctx, self.switch, FhMbox::SWITCH_MAC, self.mac);
        // Control-plane half: the cell's Orion replays init-FAPI and
        // binds the spare as its new secondary.
        CtlPacket::SpareGrant { ru_id, phy_id: phy }.send(
            ctx,
            self.switch,
            orion_l2_mac(ru_id),
            self.mac,
        );
        self.grants += 1;
        ctx.trace(
            TraceEventKind::SpareGranted,
            ru_id as u64,
            ((phy as u64) << 16) | self.pool.len() as u64,
        );
    }

    /// Schedule the scrub-and-return of a failed PHY.
    fn schedule_scrub(&mut self, ctx: &mut Ctx<'_, Msg>, phy_id: u8) {
        if !self.inventory.contains_key(&phy_id)
            || self.scrubbing.contains(&phy_id)
            || self.pool.contains(&phy_id)
        {
            return;
        }
        self.scrubbing.insert(phy_id);
        let now_abs = self.clock.absolute_slot(ctx.now());
        ctx.timer_at(
            self.clock.slot_start(now_abs + SCRUB_DELAY_SLOTS),
            TIMER_SCRUB_BASE + phy_id as u64,
        );
    }
}

impl Node<Msg> for RecoveryOrchestrator {
    fn on_start(&mut self, _ctx: &mut Ctx<'_, Msg>) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        let Some(phy) = token.checked_sub(TIMER_SCRUB_BASE) else {
            return;
        };
        let phy = phy as u8;
        if !self.scrubbing.remove(&phy) {
            return;
        }
        let Some(&node) = self.inventory.get(&phy) else {
            return;
        };
        // Restart the dead process, then scrub it. The scrub message is
        // sent at delay 0 *after* the restart's on_start, so the revived
        // node re-arms its slot-timer chain and then clears its crash
        // flags before the first tick fires — ordering the engine's
        // (time, seq) heap guarantees.
        if !ctx.is_alive(node) {
            ctx.restart(node);
        }
        ctx.send_in(node, Nanos(0), Msg::Ctl(CtlMsg::PhyScrub));
        self.pool.push_back(phy);
        self.scrubs_completed += 1;
        ctx.trace(
            TraceEventKind::SpareReturned,
            phy as u64,
            self.pool.len() as u64,
        );
        // A freed spare may unblock a queued request.
        while !self.pool.is_empty() {
            let Some((ru_id, failed)) = self.pending.pop_front() else {
                break;
            };
            self.grant_or_queue(ctx, ru_id, failed);
        }
    }

    fn on_msg(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        let Msg::Eth(frame) = msg else {
            return;
        };
        if frame.ethertype != EtherType::SlingshotCtl || frame.dst != self.mac {
            return;
        }
        match CtlPacket::from_bytes(&frame.payload) {
            Some(CtlPacket::FailureNotify { phy_id }) => {
                // The failed server will be scrubbed and recycled after
                // the hold-off.
                self.schedule_scrub(ctx, phy_id);
            }
            Some(CtlPacket::SpareRequest {
                ru_id,
                failed_phy_id,
            }) => {
                self.grant_or_queue(ctx, ru_id, failed_phy_id);
            }
            _ => {}
        }
    }

    fn instrument(&self, scope: &str, sink: &mut dyn InstrumentSink) {
        sink.counter(scope, "grants", self.grants);
        sink.counter(scope, "requests_queued", self.requests_queued);
        sink.counter(scope, "scrubs_completed", self.scrubs_completed);
        sink.gauge(scope, "pool_size", self.pool.len() as i64);
        sink.gauge(scope, "pending_requests", self.pending.len() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_fifo_accounting() {
        let mut r = RecoveryOrchestrator::new(SlotClock::new(Nanos::ZERO));
        r.add_spare(9, NodeId(1));
        r.add_spare(10, NodeId(2));
        assert_eq!(r.pool_size(), 2);
        assert_eq!(r.pool.pop_front(), Some(9), "grants are FIFO");
    }
}
