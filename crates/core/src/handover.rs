//! The network-initiated handover controller.
//!
//! Slingshot's thesis is that per-slot re-pointing belongs in the
//! switch data plane; this module extends that discipline from PHY
//! failover to UE mobility. The controller runs the control-plane
//! choreography — context transfer between source and target L2,
//! routing update at the core — and delegates the instantaneous
//! cutover to the switch's UE directory via
//! [`CtlPacket::HandoverOnSlot`], mirroring how Orion delegates PHY
//! migration to `migrate_on_slot`.
//!
//! State machine per UE (all soft state; a controller crash mid-flight
//! abandons the attempt and the UE recovers through the ordinary
//! RLF/reattach path):
//!
//! ```text
//! MeasurementReport ──▶ AwaitContext ──▶ AwaitComplete ──▶ (done)
//!      (from serving L2)   │ context transfer    │ HandoverComplete
//!                          ▼                     ▼
//!                     source flushes        RouteUpdate → core
//!                     HARQ + exports        switch directory flipped
//! ```

use std::collections::BTreeMap;

use slingshot_netsim::MacAddr;
use slingshot_ran::{CtlMsg, Msg};
use slingshot_sim::time::{align_to_tdd_cycle, scalar_of};
use slingshot_sim::{Ctx, InstrumentSink, Nanos, Node, NodeId, SlotClock};

use crate::ctl::CtlPacket;
use crate::fh_mbox::FhMbox;

/// Timer-token base for per-UE handover timeouts (token = base + rnti).
const TIMER_HO_BASE: u64 = 940;

/// Slots of preparation between arming and the cutover boundary
/// (context transfer + command delivery must fit inside).
const PREP_SLOTS: u64 = 4;

/// Abandon an attempt stuck longer than this many slots (lost context
/// transfer, dead L2, partitioned link...).
const TIMEOUT_SLOTS: u64 = 100;

/// MAC address of the handover controller process.
pub fn handover_mac() -> MacAddr {
    MacAddr([0x02, 0x4F, 0x52, 0x00, 0x04, 0x01])
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttemptState {
    /// Context requested from the source L2.
    AwaitContext,
    /// Switch armed + UE commanded; waiting for `HandoverComplete`.
    AwaitComplete,
}

#[derive(Debug, Clone, Copy)]
struct Attempt {
    source_ru: u8,
    target_ru: u8,
    state: AttemptState,
    started: Nanos,
}

/// The handover controller node.
pub struct HandoverController {
    mac: MacAddr,
    clock: SlotClock,
    switch: Option<NodeId>,
    core: Option<NodeId>,
    /// RU id → that cell's L2 node (signaling plane).
    l2_nodes: BTreeMap<u8, NodeId>,
    /// RNTI → UE node (for `HandoverCommand` delivery; stands in for
    /// the RRC message riding the source cell's downlink).
    ue_nodes: BTreeMap<u16, NodeId>,
    in_flight: BTreeMap<u16, Attempt>,
    /// Observability.
    pub started: u64,
    pub completed: u64,
    pub aborted: u64,
}

impl HandoverController {
    pub fn new(clock: SlotClock) -> HandoverController {
        HandoverController {
            mac: handover_mac(),
            clock,
            switch: None,
            core: None,
            l2_nodes: BTreeMap::new(),
            ue_nodes: BTreeMap::new(),
            in_flight: BTreeMap::new(),
            started: 0,
            completed: 0,
            aborted: 0,
        }
    }

    pub fn wire(&mut self, switch: NodeId, core: NodeId) {
        self.switch = Some(switch);
        self.core = Some(core);
    }

    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// Register the L2 fronting each cell.
    pub fn register_cell(&mut self, ru_id: u8, l2: NodeId) {
        self.l2_nodes.insert(ru_id, l2);
    }

    /// Register a UE's node for command delivery.
    pub fn register_ue(&mut self, rnti: u16, ue: NodeId) {
        self.ue_nodes.insert(rnti, ue);
    }

    /// Attempts currently in flight (test/oracle visibility).
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    fn begin(&mut self, ctx: &mut Ctx<'_, Msg>, rnti: u16, serving_ru: u8, target_ru: u8) -> bool {
        if self.in_flight.contains_key(&rnti) || serving_ru == target_ru {
            return false;
        }
        let (Some(&source_l2), Some(_)) = (
            self.l2_nodes.get(&serving_ru),
            self.l2_nodes.get(&target_ru),
        ) else {
            return false;
        };
        self.in_flight.insert(
            rnti,
            Attempt {
                source_ru: serving_ru,
                target_ru,
                state: AttemptState::AwaitContext,
                started: ctx.now(),
            },
        );
        self.started += 1;
        ctx.send_in(
            source_l2,
            Nanos::from_micros(50),
            Msg::Ctl(CtlMsg::HandoverContextRequest { rnti, target_ru }),
        );
        // +1 so the timer lands strictly after `TIMEOUT_SLOTS` worth of
        // age even when the attempt starts mid-slot (the age guard
        // below distinguishes this timer from a reused token).
        let now_abs = self.clock.absolute_slot(ctx.now());
        ctx.timer_at(
            self.clock.slot_start(now_abs + TIMEOUT_SLOTS + 1),
            TIMER_HO_BASE + rnti as u64,
        );
        true
    }
}

impl Node<Msg> for HandoverController {
    fn on_start(&mut self, _ctx: &mut Ctx<'_, Msg>) {
        // Soft state only: a restart after a crash forgets every
        // in-flight attempt (the UEs involved recover via RLF).
        self.in_flight.clear();
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        let Some(rnti) = token.checked_sub(TIMER_HO_BASE) else {
            return;
        };
        let rnti = rnti as u16;
        let Some(att) = self.in_flight.get(&rnti).copied() else {
            return;
        };
        let age = ctx.now().saturating_sub(att.started);
        if age < Nanos(TIMEOUT_SLOTS * slingshot_sim::SLOT_DURATION.0) {
            // A newer attempt reused the token; let its own timer act.
            return;
        }
        self.in_flight.remove(&rnti);
        self.aborted += 1;
    }

    fn on_msg(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        let Msg::Ctl(ctl) = msg else {
            return;
        };
        match ctl {
            CtlMsg::MeasurementReport {
                rnti,
                serving_ru,
                target_ru,
                ..
            } => {
                self.begin(ctx, rnti, serving_ru, target_ru);
            }
            CtlMsg::HandoverContextTransfer {
                rnti,
                source_ru,
                target_ru,
                snr_cdb,
                slice,
            } => {
                let Some(att) = self.in_flight.get_mut(&rnti) else {
                    return;
                };
                if att.state != AttemptState::AwaitContext
                    || att.source_ru != source_ru
                    || att.target_ru != target_ru
                {
                    return;
                }
                att.state = AttemptState::AwaitComplete;
                // Import at the target cell.
                if let Some(&target_l2) = self.l2_nodes.get(&target_ru) {
                    ctx.send_in(
                        target_l2,
                        Nanos::from_micros(50),
                        Msg::Ctl(CtlMsg::HandoverContextTransfer {
                            rnti,
                            source_ru,
                            target_ru,
                            snr_cdb,
                            slice,
                        }),
                    );
                }
                // Arm the data-plane cutover in the switch's UE
                // directory at an aligned boundary...
                let now_abs = self.clock.absolute_slot(ctx.now());
                let scalar = scalar_of(align_to_tdd_cycle(now_abs + PREP_SLOTS));
                CtlPacket::HandoverOnSlot {
                    rnti,
                    source_ru,
                    target_ru,
                    slot_scalar: scalar,
                }
                .send(ctx, self.switch, FhMbox::SWITCH_MAC, self.mac);
                // ...and command the UE to re-tune at the same slot.
                if let Some(&ue) = self.ue_nodes.get(&rnti) {
                    ctx.send_in(
                        ue,
                        Nanos::from_micros(100),
                        Msg::Ctl(CtlMsg::HandoverCommand {
                            rnti,
                            source_ru,
                            target_ru,
                            slot_scalar: scalar,
                        }),
                    );
                }
            }
            CtlMsg::HandoverComplete { rnti, target_ru } => {
                let Some(att) = self.in_flight.get(&rnti).copied() else {
                    return;
                };
                if att.target_ru != target_ru {
                    return;
                }
                self.in_flight.remove(&rnti);
                self.completed += 1;
                // Backhaul path switch.
                if let Some(core) = self.core {
                    ctx.send_in(
                        core,
                        Nanos::from_micros(50),
                        Msg::Ctl(CtlMsg::RouteUpdate { rnti, target_ru }),
                    );
                }
            }
            _ => {}
        }
    }

    fn instrument(&self, scope: &str, sink: &mut dyn InstrumentSink) {
        sink.counter(scope, "handovers_started", self.started);
        sink.counter(scope, "handovers_completed", self.completed);
        sink.counter(scope, "handovers_aborted", self.aborted);
        sink.gauge(scope, "in_flight", self.in_flight.len() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_mac_distinct_from_recovery() {
        assert_ne!(handover_mac(), crate::recovery::recovery_mac());
    }
}
