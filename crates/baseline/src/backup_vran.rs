//! The paper's §8.1 failover **baseline**: a full hot backup vRAN stack
//! (L2 + PHY) on a separate server, with fronthaul rerouted to it on
//! failure detection — but *without* Slingshot's Orion/null-FAPI hot
//! standby. The backup stack has no UE context, so the UE must detect
//! RLF and fully re-attach: the paper measures a 6.2 s outage.
//!
//! The switch-side detection and rerouting reuse the Slingshot
//! fronthaul middlebox (exactly as the paper does: "we use our
//! fronthaul middlebox to detect it and re-route the fronthaul").

use slingshot::ctl::CtlPacket;
use slingshot::fh_mbox::FhMbox;
use slingshot::switch_node::{ForwardingModel, SwitchNode};
use slingshot::DeploymentConfig;
use slingshot_netsim::{EtherType, MacAddr};
use slingshot_ran::{
    AppServerNode, CellConfig, CoreNode, CtlMsg, L2Node, Msg, PhyConfig, PhyNode, RuNode, UeConfig,
    UeNode,
};
use slingshot_sim::{Ctx, Engine, LinkParams, Nanos, Node, NodeId, SimRng, SlotClock};
use slingshot_switch::{PktGenConfig, PortId};
use slingshot_transport::UserApp;

use std::collections::HashMap;

/// MAC of the failover controller (receives switch notifications).
pub fn failover_ctl_mac() -> MacAddr {
    MacAddr([0x02, 0x46, 0x43, 0, 0, 1])
}

const PRIMARY_PHY: u8 = 1;
const BACKUP_PHY: u8 = 2;
const RU: u8 = 0;

/// Relays user-plane and signaling traffic to whichever full stack is
/// currently active, and triggers the fronthaul reroute on failure
/// notification. (Stands in for the core network re-homing the gNB
/// connection; see DESIGN.md §2.)
pub struct StackSelector {
    switch: Option<NodeId>,
    primary_l2: Option<NodeId>,
    backup_l2: Option<NodeId>,
    active_is_backup: bool,
    /// Remembered attach requesters so accepts can be routed back.
    requesters: HashMap<u16, NodeId>,
    pub failed_over_at: Option<Nanos>,
}

impl StackSelector {
    pub fn new() -> StackSelector {
        StackSelector {
            switch: None,
            primary_l2: None,
            backup_l2: None,
            active_is_backup: false,
            requesters: HashMap::new(),
            failed_over_at: None,
        }
    }

    pub fn wire(&mut self, switch: NodeId, primary_l2: NodeId, backup_l2: NodeId) {
        self.switch = Some(switch);
        self.primary_l2 = Some(primary_l2);
        self.backup_l2 = Some(backup_l2);
    }

    fn active_l2(&self) -> Option<NodeId> {
        if self.active_is_backup {
            self.backup_l2
        } else {
            self.primary_l2
        }
    }
}

impl Default for StackSelector {
    fn default() -> Self {
        StackSelector::new()
    }
}

impl Node<Msg> for StackSelector {
    fn on_msg(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::Eth(frame)
                if frame.ethertype == EtherType::SlingshotCtl
                    && frame.dst == failover_ctl_mac() =>
            {
                if let Some(CtlPacket::FailureNotify { .. }) = CtlPacket::from_bytes(&frame.payload)
                {
                    if self.failed_over_at.is_none() {
                        self.failed_over_at = Some(ctx.now());
                        self.active_is_backup = true;
                        // Reroute fronthaul to the backup stack's PHY
                        // as of the next slot.
                        CtlPacket::MigrateOnSlot {
                            ru_id: RU,
                            dest_phy_id: BACKUP_PHY,
                            slot_scalar: 0, // immediate (matches any slot)
                        }
                        .send(
                            ctx,
                            self.switch,
                            FhMbox::SWITCH_MAC,
                            failover_ctl_mac(),
                        );
                    }
                }
            }
            Msg::User(p) => {
                // Downlink heads to the active L2; uplink came *from*
                // an L2 and heads to the core — but in this topology
                // the selector only sits on the downlink path.
                if let Some(l2) = self.active_l2() {
                    ctx.send(l2, Msg::User(p));
                }
            }
            Msg::Ctl(CtlMsg::AttachRequest { rnti }) => {
                self.requesters.insert(rnti, from);
                if let Some(l2) = self.active_l2() {
                    ctx.send_in(
                        l2,
                        Nanos::from_micros(100),
                        Msg::Ctl(CtlMsg::AttachRequest { rnti }),
                    );
                }
            }
            Msg::Ctl(CtlMsg::AttachAccept { rnti }) => {
                if let Some(ue) = self.requesters.get(&rnti) {
                    let ue = *ue;
                    ctx.send_in(
                        ue,
                        Nanos::from_micros(100),
                        Msg::Ctl(CtlMsg::AttachAccept { rnti }),
                    );
                }
            }
            Msg::Ctl(c) => {
                if let Some(l2) = self.active_l2() {
                    ctx.send_in(l2, Nanos::from_micros(100), Msg::Ctl(c));
                }
            }
            _ => {}
        }
    }
}

/// The baseline deployment: two full stacks behind the switch.
pub struct BaselineDeployment {
    pub engine: Engine<Msg>,
    pub switch: NodeId,
    pub ru: NodeId,
    pub primary_phy: NodeId,
    pub primary_l2: NodeId,
    pub backup_phy: NodeId,
    pub backup_l2: NodeId,
    pub selector: NodeId,
    pub core: NodeId,
    pub server: NodeId,
    pub ues: Vec<NodeId>,
}

impl BaselineDeployment {
    pub fn build(seed: u64, cell: CellConfig, ue_cfgs: Vec<UeConfig>) -> BaselineDeployment {
        let mut engine: Engine<Msg> = Engine::new(seed);
        let clock = SlotClock::new(Nanos::ZERO);
        let mut rng = SimRng::new(seed ^ 0xBA5E);

        let server = engine.add_node("server", Box::new(AppServerNode::new()));
        let core = engine.add_node("core", Box::new(CoreNode::new()));
        let selector = engine.add_node("selector", Box::new(StackSelector::new()));

        // Primary stack: UEs pre-attached.
        let mut l2a = L2Node::new(cell.clone(), clock, RU);
        for u in &ue_cfgs {
            l2a.preattach_ue(u.rnti, u.snr.mean_db);
        }
        let primary_l2 = engine.add_node("l2-primary", Box::new(l2a));
        let primary_phy = engine.add_node(
            "phy-primary",
            Box::new(PhyNode::new(
                PhyConfig::new(PRIMARY_PHY),
                cell.clone(),
                clock,
                rng.fork("phy-a"),
            )),
        );
        // Backup stack: cold UE state.
        let backup_l2 =
            engine.add_node("l2-backup", Box::new(L2Node::new(cell.clone(), clock, RU)));
        let backup_phy = engine.add_node(
            "phy-backup",
            Box::new(PhyNode::new(
                PhyConfig::new(BACKUP_PHY),
                cell.clone(),
                clock,
                rng.fork("phy-b"),
            )),
        );

        let run = RuNode::new(RU, clock);
        let ru_mac = run.mac();
        let ru = engine.add_node("ru", Box::new(run));
        let mut ues = Vec::new();
        for u in ue_cfgs {
            let name = u.name.clone();
            ues.push(engine.add_node(
                &name,
                Box::new(UeNode::new(u, cell.clone(), clock, rng.fork(&name))),
            ));
        }

        let mut mbox = FhMbox::new(PktGenConfig::paper_default(), failover_ctl_mac());
        mbox.install_ru(RU, ru_mac, PortId(1), PRIMARY_PHY);
        mbox.install_phy(PRIMARY_PHY, MacAddr::for_phy(PRIMARY_PHY), PortId(2));
        mbox.install_phy(BACKUP_PHY, MacAddr::for_phy(BACKUP_PHY), PortId(3));
        mbox.install_host(failover_ctl_mac(), PortId(4));
        mbox.enroll_failure_detection(PRIMARY_PHY);
        let mut swn = SwitchNode::new(mbox, ForwardingModel::InSwitch, rng.fork("switch"));
        swn.attach(PortId(1), ru);
        swn.attach(PortId(2), primary_phy);
        swn.attach(PortId(3), backup_phy);
        swn.attach(PortId(4), selector);
        let switch = engine.add_node("switch", Box::new(swn));

        engine.node_mut::<AppServerNode>(server).unwrap().wire(core);
        engine
            .node_mut::<CoreNode>(core)
            .unwrap()
            .wire(selector, server);
        engine
            .node_mut::<StackSelector>(selector)
            .unwrap()
            .wire(switch, primary_l2, backup_l2);
        engine
            .node_mut::<L2Node>(primary_l2)
            .unwrap()
            .wire(primary_phy, core);
        engine
            .node_mut::<L2Node>(backup_l2)
            .unwrap()
            .wire(backup_phy, core);
        engine
            .node_mut::<PhyNode>(primary_phy)
            .unwrap()
            .wire(switch, primary_l2);
        engine
            .node_mut::<PhyNode>(backup_phy)
            .unwrap()
            .wire(switch, backup_l2);
        engine
            .node_mut::<RuNode>(ru)
            .unwrap()
            .wire(switch, ues.clone());
        for ue in &ues {
            engine.node_mut::<UeNode>(*ue).unwrap().wire(ru, selector);
        }

        // The same cabling as the Slingshot testbed it is compared with.
        let DeploymentConfig {
            fronthaul_link,
            server_link,
            backhaul_link: backhaul,
            ..
        } = DeploymentConfig::default();
        engine.connect_duplex(server, core, backhaul.clone());
        engine.connect_duplex(core, selector, LinkParams::ideal(Nanos(50_000)));
        for l2 in [primary_l2, backup_l2] {
            engine.connect_duplex(selector, l2, backhaul.clone());
        }
        for l2 in [primary_l2, backup_l2] {
            engine.connect_duplex(l2, core, backhaul.clone());
        }
        engine.connect_duplex(primary_l2, primary_phy, LinkParams::ideal(Nanos(2_000)));
        engine.connect_duplex(backup_l2, backup_phy, LinkParams::ideal(Nanos(2_000)));
        engine.connect_duplex(ru, switch, fronthaul_link);
        for node in [primary_phy, backup_phy, selector] {
            engine.connect_duplex(node, switch, server_link.clone());
        }

        BaselineDeployment {
            engine,
            switch,
            ru,
            primary_phy,
            primary_l2,
            backup_phy,
            backup_l2,
            selector,
            core,
            server,
            ues,
        }
    }

    pub fn add_flow(
        &mut self,
        ue_idx: usize,
        rnti: u16,
        ue_app: Box<dyn UserApp>,
        server_app: Box<dyn UserApp>,
    ) {
        self.engine
            .node_mut::<UeNode>(self.ues[ue_idx])
            .unwrap()
            .add_app(ue_app);
        self.engine
            .node_mut::<AppServerNode>(self.server)
            .unwrap()
            .add_app(rnti, server_app);
    }

    pub fn kill_primary_at(&mut self, at: Nanos) {
        self.engine.run_until(at);
        self.engine.kill(self.primary_phy);
        self.engine.kill(self.primary_l2);
    }
}
