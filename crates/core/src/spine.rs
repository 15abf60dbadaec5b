//! The spine switch of a leaf/spine fronthaul fabric.
//!
//! City-scale builds shard cells into groups, each behind its own leaf
//! switch (a full [`crate::FhMbox`] middlebox). The spine stitches the
//! leaves to the shared spine-side services — recovery orchestrator,
//! pooled spare PHYs and their Orion agents — and is deliberately *not*
//! a middlebox: it keeps no PHY/RU directories and runs no failure
//! detector (those stay leaf-local, preserving the paper's in-switch
//! detection latency). It forwards by a static host table, with one
//! special case: a Slingshot control frame addressed to the well-known
//! switch MAC (e.g. the orchestrator's `InstallStandby`) has no unique
//! host destination, so the spine peeks at the control payload's RU id
//! and relays the frame to the leaf that owns that cell.

use std::collections::HashMap;

use slingshot_netsim::{EtherType, MacAddr};
use slingshot_ran::Msg;
use slingshot_sim::{Ctx, InstrumentSink, Node, NodeId, SimRng};
use slingshot_switch::PortId;

use crate::ctl::CtlPacket;
use crate::fh_mbox::FhMbox;
use crate::switch_node::ForwardingModel;

/// A MAC-table forwarder joining leaf switches to spine-side services.
pub struct SpineSwitchNode {
    /// Host MAC → egress port.
    routes: HashMap<MacAddr, PortId>,
    /// RU id → the port of the leaf owning that cell (control-frame
    /// relay table).
    ru_ports: HashMap<u8, PortId>,
    /// Port → attached engine node.
    ports: HashMap<PortId, NodeId>,
    model: ForwardingModel,
    rng: SimRng,
    pub forwarded: u64,
    pub dropped: u64,
    /// Switch-addressed control frames relayed by RU-id peek.
    pub ctl_relayed: u64,
}

impl SpineSwitchNode {
    pub fn new(model: ForwardingModel, rng: SimRng) -> SpineSwitchNode {
        SpineSwitchNode {
            routes: HashMap::new(),
            ru_ports: HashMap::new(),
            ports: HashMap::new(),
            model,
            rng,
            forwarded: 0,
            dropped: 0,
            ctl_relayed: 0,
        }
    }

    /// Route frames for `mac` out of `port`.
    pub fn install_host(&mut self, mac: MacAddr, port: PortId) {
        self.routes.insert(mac, port);
    }

    /// Relay switch-addressed control frames concerning `ru_id` out of
    /// `port` (the owning leaf's port).
    pub fn install_ru_route(&mut self, ru_id: u8, port: PortId) {
        self.ru_ports.insert(ru_id, port);
    }

    /// Attach an engine node to a spine port.
    pub fn attach(&mut self, port: PortId, node: NodeId) {
        self.ports.insert(port, node);
    }

    fn egress_for(&self, frame: &slingshot_netsim::Frame) -> Option<PortId> {
        if frame.ethertype == EtherType::SlingshotCtl && frame.dst == FhMbox::SWITCH_MAC {
            // No unique host owns the switch MAC; the control payload's
            // RU id names the cell — and hence the leaf — it concerns.
            return CtlPacket::from_bytes(&frame.payload)
                .and_then(|pkt| pkt.ru_id())
                .and_then(|ru| self.ru_ports.get(&ru).copied());
        }
        self.routes.get(&frame.dst).copied()
    }
}

impl Node<Msg> for SpineSwitchNode {
    fn on_msg(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        let Msg::Eth(frame) = msg else { return };
        let is_ctl_relay =
            frame.ethertype == EtherType::SlingshotCtl && frame.dst == FhMbox::SWITCH_MAC;
        let Some(node) = self.egress_for(&frame).and_then(|p| self.ports.get(&p)) else {
            self.dropped += 1;
            return;
        };
        let node = *node;
        let delay = self.model.delay(&mut self.rng);
        ctx.send_link_in(node, delay, Msg::Eth(frame));
        self.forwarded += 1;
        if is_ctl_relay {
            self.ctl_relayed += 1;
        }
    }

    fn instrument(&self, scope: &str, sink: &mut dyn InstrumentSink) {
        sink.counter(scope, "forwarded_frames", self.forwarded);
        sink.counter(scope, "dropped_frames", self.dropped);
        sink.counter(scope, "ctl_relayed", self.ctl_relayed);
    }
}
