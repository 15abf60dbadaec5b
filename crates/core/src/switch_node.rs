//! Engine node hosting a switch program (the fronthaul middlebox).
//!
//! Two forwarding-latency models are provided: the in-switch deployment
//! (fixed nanosecond pipeline latency — the paper's design) and a
//! DPDK-style software middlebox (microsecond-scale, jittery, an extra
//! hop) used by the §5 ablation that measures why the in-switch design
//! matters for the fronthaul latency budget.

use std::collections::HashMap;

use slingshot_netsim::Capture;
use slingshot_ran::Msg;
use slingshot_sim::{Ctx, InstrumentSink, Nanos, Node, NodeId, SimRng};
use slingshot_switch::{PortId, SwitchAction, SwitchProgram, PIPELINE_LATENCY};

use crate::fh_mbox::FhMbox;
use slingshot_switch::ControlPlaneModel;

const TIMER_PKTGEN: u64 = 900;
const TIMER_CP_REMAP: u64 = 901;

/// Per-packet forwarding-cost model.
#[derive(Debug, Clone, Copy)]
pub enum ForwardingModel {
    /// Tofino-style: fixed pipeline latency, no jitter (§5).
    InSwitch,
    /// DPDK software middlebox: base cost + exponential-ish tail. The
    /// paper measures ≈10 µs added at p99.999.
    Software { base: Nanos, tail_mean: Nanos },
}

impl ForwardingModel {
    pub fn software_default() -> ForwardingModel {
        ForwardingModel::Software {
            base: Nanos(2_000),
            tail_mean: Nanos(900),
        }
    }

    pub(crate) fn delay(&self, rng: &mut SimRng) -> Nanos {
        match self {
            ForwardingModel::InSwitch => PIPELINE_LATENCY,
            ForwardingModel::Software { base, tail_mean } => {
                let tail = rng.exponential(tail_mean.0 as f64) as u64;
                *base + Nanos(tail)
            }
        }
    }
}

/// The switch node: owns the middlebox program, maps ports to engine
/// nodes, and runs the packet generator.
pub struct SwitchNode {
    pub mbox: FhMbox,
    ports: HashMap<PortId, NodeId>,
    /// Attached node → its port: the ingress port of a received frame.
    ingress_of: HashMap<NodeId, PortId>,
    model: ForwardingModel,
    rng: SimRng,
    /// Control-plane rule-update latency model (ablation path).
    cp_model: ControlPlaneModel,
    /// Remaps waiting on the control plane, FIFO.
    cp_pending: std::collections::VecDeque<(u8, u8)>,
    /// Completion times of executed control-plane remaps.
    pub cp_remap_latencies: Vec<Nanos>,
    /// Optional frame mirror (the timestamp-and-mirror measurement
    /// technique of §8.6, as a pcap-style capture).
    pub capture: Option<Capture>,
    /// Forwarded/dropped counters.
    pub forwarded: u64,
    pub dropped: u64,
}

impl SwitchNode {
    pub fn new(mbox: FhMbox, model: ForwardingModel, mut rng: SimRng) -> SwitchNode {
        SwitchNode {
            mbox,
            ports: HashMap::new(),
            ingress_of: HashMap::new(),
            model,
            cp_model: ControlPlaneModel::new(rng.fork("control-plane")),
            cp_pending: std::collections::VecDeque::new(),
            cp_remap_latencies: Vec::new(),
            rng,
            capture: None,
            forwarded: 0,
            dropped: 0,
        }
    }

    /// Mirror every forwarded frame into a capture (ingress-timestamped
    /// at forwarding time), as the paper's §8.6 P4 program does.
    pub fn enable_capture(&mut self) -> Capture {
        let cap = Capture::new();
        self.capture = Some(cap.clone());
        cap
    }

    /// Request a remap through the switch *control plane* (milliseconds
    /// of latency, no slot alignment) — the ablation alternative to the
    /// data-plane `migrate_on_slot` mechanism. Must be invoked via
    /// [`slingshot_sim::Engine::post`]-style external scheduling; the
    /// node applies it after the modeled rule-update latency.
    pub fn request_control_plane_remap(&mut self, ru_id: u8, dest_phy: u8) {
        self.cp_pending.push_back((ru_id, dest_phy));
    }

    /// Attach an engine node to a switch port.
    pub fn attach(&mut self, port: PortId, node: NodeId) {
        self.ports.insert(port, node);
        self.ingress_of.insert(node, port);
    }

    /// The PHY currently serving `ru_id` per the data-plane RU→PHY
    /// mapping. Chaos tooling resolves symbolic targets ("the active
    /// PHY") through this at fault-apply time, so a fault scheduled
    /// after a failover lands on the post-failover owner.
    pub fn active_phy(&mut self, ru_id: u8) -> u8 {
        self.mbox.active_phy(ru_id)
    }

    /// Move trace events staged inside the switch program into the
    /// engine's event trace, preserving packet-carried slot identities.
    fn drain_mbox_trace(&mut self, ctx: &mut Ctx<'_, Msg>) {
        for ev in self.mbox.drain_trace() {
            match ev.slot {
                Some(slot) => ctx.trace_at_slot(ev.kind, slot, ev.a, ev.b),
                None => ctx.trace(ev.kind, ev.a, ev.b),
            }
        }
    }

    fn apply_actions(&mut self, ctx: &mut Ctx<'_, Msg>, actions: Vec<SwitchAction>) {
        for action in actions {
            match action {
                SwitchAction::Forward { port, frame } => {
                    if let Some(cap) = &self.capture {
                        cap.record(ctx.now(), &frame);
                    }
                    if let Some(node) = self.ports.get(&port) {
                        let node = *node;
                        let delay = self.model.delay(&mut self.rng);
                        // Pipeline (or software-forwarding) cost, then
                        // the egress link's latency/bandwidth/faults.
                        ctx.send_link_in(node, delay, Msg::Eth(frame));
                        self.forwarded += 1;
                    } else {
                        self.dropped += 1;
                    }
                }
                SwitchAction::Drop => self.dropped += 1,
            }
        }
    }
}

impl Node<Msg> for SwitchNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.timer(self.mbox.detector.tick_interval(), TIMER_PKTGEN);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        match token {
            TIMER_PKTGEN => {
                let actions = self.mbox.on_generator_tick(ctx.now());
                self.drain_mbox_trace(ctx);
                self.apply_actions(ctx, actions);
                // Drive any pending control-plane remap: draw its rule-
                // update latency once and schedule the apply.
                if let Some((ru, phy)) = self.cp_pending.pop_front() {
                    let latency = self.cp_model.update_latency();
                    self.cp_remap_latencies.push(latency);
                    ctx.timer(
                        latency,
                        TIMER_CP_REMAP + ((ru as u64) << 16) + ((phy as u64) << 32),
                    );
                }
                ctx.timer(self.mbox.detector.tick_interval(), TIMER_PKTGEN);
            }
            t if t & 0xFFFF == TIMER_CP_REMAP => {
                let ru = ((t >> 16) & 0xFF) as u8;
                let phy = ((t >> 32) & 0xFF) as u8;
                self.mbox.control_plane_remap(ru, phy);
                self.drain_mbox_trace(ctx);
            }
            _ => {}
        }
    }

    fn on_msg(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        let Msg::Eth(frame) = msg else { return };
        // Ingress port = the port the sender is attached to.
        let ingress = self.ingress_of.get(&from).copied().unwrap_or(PortId::CPU);
        let actions = self.mbox.process(ctx.now(), ingress, frame);
        self.drain_mbox_trace(ctx);
        self.apply_actions(ctx, actions);
    }

    fn instrument(&self, scope: &str, sink: &mut dyn InstrumentSink) {
        sink.counter(scope, "forwarded_frames", self.forwarded);
        sink.counter(scope, "dropped_frames", self.dropped);
        sink.counter(
            scope,
            "cp_remaps_executed",
            self.cp_remap_latencies.len() as u64,
        );
        sink.counter(scope, "migrations_executed", self.mbox.migrations_executed);
        sink.counter(scope, "dl_filtered", self.mbox.dl_filtered);
        sink.counter(scope, "failures_reported", self.mbox.failures_reported);
        sink.counter(scope, "ctl_packets", self.mbox.ctl_packets);
        sink.counter(scope, "trace_overflow", self.mbox.trace_overflow);
    }
}
