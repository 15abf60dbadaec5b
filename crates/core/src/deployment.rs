//! Full Slingshot testbed builder: the paper's Figure 4(b) topology —
//! an RU and servers behind a programmable switch running the
//! fronthaul middlebox, a primary and hot-standby PHY each paired with
//! a PHY-side Orion, the L2 paired with the L2-side Orion, the core
//! network stub, the app server, and UEs. All links and latencies are
//! configurable; defaults approximate the paper's testbed (Table 1).
//!
//! Entry point: [`DeploymentBuilder`]. There is one construction,
//! parameterised by `(cells, cell_groups, spare_pool, handover,
//! crossed_standbys)`: every cell is the same RU / L2 / PHY-pair / Orion
//! unit behind its group's middlebox switch (with crossed standbys, §8's
//! co-location, a cell brings only its primary and borrows the next
//! cell's as its standby); shared spares, the recovery orchestrator and
//! the handover controller hang off the one switch of a build whose
//! cells they couple. Cells that share nothing within a slot get a
//! middlebox partition each (or one per cell group) and an engine lane
//! each. The classic testbed is the default `cells(1)`; a four-cell one
//! whose cell lanes run on four workers is:
//!
//! ```ignore
//! let mut d = DeploymentBuilder::new()
//!     .seed(7)
//!     .cells(4)
//!     .workers(4)
//!     .ues(ue_cfgs)
//!     .build();
//! ```

use std::collections::BTreeMap;

use slingshot_netsim::MacAddr;
use slingshot_ran::{
    AppServerNode, CellConfig, CoreNode, CtlMsg, L2Node, Msg, PhyConfig, PhyNode, RuNode, UeConfig,
    UeNode,
};
use slingshot_sim::{
    Engine, KernelConfig, LinkParams, Nanos, NodeId, SimRng, SlotClock, SLOT_DURATION,
};
use slingshot_switch::{PktGenConfig, PortId, PortSpace};
use slingshot_transport::UserApp;

use crate::fh_mbox::FhMbox;
use crate::handover::{handover_mac, HandoverController};
use crate::orion::{orion_l2_mac, orion_phy_mac, OrionL2Node, OrionPhyNode};
use crate::recovery::{recovery_mac, RecoveryOrchestrator};
use crate::switch_node::{ForwardingModel, SwitchNode};

/// Deployment-wide configuration.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    pub cell: CellConfig,
    pub seed: u64,
    /// Failure-detector configuration (paper: T=450 µs, n=50).
    pub detector: PktGenConfig,
    /// Fronthaul link: RU ↔ switch (paper: fiber, sub-100 µs budget).
    pub fronthaul_link: LinkParams,
    /// Server links: PHY/L2 servers ↔ switch (100 GbE).
    pub server_link: LinkParams,
    /// Backhaul: core ↔ L2 and core ↔ app server.
    pub backhaul_link: LinkParams,
    /// Middlebox forwarding model (in-switch vs software ablation).
    pub forwarding: ForwardingModel,
    /// FEC iterations for the secondary PHY (≠ primary models the
    /// Fig. 11 upgraded build).
    pub secondary_fec_iterations: Option<usize>,
    /// Number of shared spare PHY servers in the recovery pool, usable
    /// by any cell. `> 0` also deploys a [`RecoveryOrchestrator`] that
    /// re-pairs failed-over cells and scrubs/recycles dead primaries.
    pub spare_pool: usize,
    /// Deploy the [`HandoverController`] and the mobility signaling
    /// plane: the switch's UE directory is populated, every RU's radio
    /// broadcast domain covers every UE (UEs filter by serving cell),
    /// L2s forward measurement reports, and the core accepts
    /// `RouteUpdate` re-pointing. Multi-cell single-switch builds only.
    pub handover: bool,
}

impl Default for DeploymentConfig {
    fn default() -> DeploymentConfig {
        DeploymentConfig {
            cell: CellConfig::default(),
            seed: 1,
            detector: PktGenConfig::paper_default(),
            fronthaul_link: LinkParams::with_bandwidth(Nanos(20_000), 25_000_000_000),
            server_link: LinkParams::with_bandwidth(Nanos(2_000), 100_000_000_000),
            backhaul_link: LinkParams::with_bandwidth(Nanos::from_millis(4), 10_000_000_000),
            forwarding: ForwardingModel::InSwitch,
            secondary_fec_iterations: None,
            spare_pool: 0,
            handover: false,
        }
    }
}

/// One cell's node handles inside a [`Deployment`]: its RU, gNB stack
/// (L2 + L2-side Orion), primary/secondary PHY pair with their
/// PHY-side Orions, and UEs.
#[derive(Debug, Clone)]
pub struct CellDeployment {
    pub ru: NodeId,
    pub l2: NodeId,
    pub orion_l2: NodeId,
    pub primary_phy: NodeId,
    pub secondary_phy: NodeId,
    pub orion_primary: NodeId,
    pub orion_secondary: NodeId,
    pub ues: Vec<NodeId>,
    pub ru_id: u8,
    pub cell_id: u16,
    pub primary_phy_id: u8,
    pub secondary_phy_id: u8,
}

/// Node ids of a built deployment; `cells` holds every cell, in order.
pub struct Deployment {
    pub engine: Engine<Msg>,
    /// The middlebox of a one-switch build (one cell, or cells coupled
    /// within a slot), which also carries its spares, recovery
    /// orchestrator and handover controller. In a build with several
    /// middleboxes (see [`Deployment::leaves`]) it is cell 0's. A cell's
    /// own middlebox is always [`Deployment::switch_for_ru`].
    pub switch: NodeId,
    pub core: NodeId,
    pub server: NodeId,
    /// All UEs across all cells, flattened in cell order.
    pub ues: Vec<NodeId>,
    /// Per-cell node handles (index = cell/RU id).
    pub cells: Vec<CellDeployment>,
    /// Pooled shared spares: `(phy id, PhyNode, OrionPhyNode)` — empty
    /// unless the deployment was built with `spare_pool(m)`.
    pub spare_phys: Vec<(u8, NodeId, NodeId)>,
    /// The recovery orchestrator, when a spare pool is deployed.
    pub recovery: Option<NodeId>,
    /// The handover controller, when built with
    /// [`DeploymentBuilder::handover`].
    pub handover: Option<NodeId>,
    /// Every PHY id in the deployment → its engine node (chaos
    /// targeting, test assertions).
    pub phy_nodes: BTreeMap<u8, NodeId>,
    /// Every PHY id → its PHY-side Orion node.
    pub phy_orions: BTreeMap<u8, NodeId>,
    /// The middlebox switches when there is more than one, in cell
    /// order, named `leaf0..`: the partitions of a build whose cells
    /// share nothing within a slot, one per cell group with
    /// `cell_groups(g ≥ 2)` and one per cell otherwise (see
    /// [`DeploymentBuilder::cell_groups`]). A partition holds only its
    /// cells' RUs and PHY pairs, detects only those PHYs, and notifies
    /// only those cells' L2-side Orions; no frame crosses partitions.
    /// Empty when one switch serves every cell.
    pub leaves: Vec<NodeId>,
    /// Endpoint node → the switch it is cabled to (see
    /// [`Deployment::switch_for_node`]).
    attached_switch: BTreeMap<NodeId, NodeId>,
    /// Engine lane map staged by a build with more than one middlebox
    /// switch (one lane per partition, plus lane 0); the builder
    /// consumes it (after trace sizing) to install the dispatch
    /// lanes.
    lanes: Option<(Vec<u32>, usize)>,
    pub cfg: DeploymentConfig,
}

/// Fluent builder for [`Deployment`] — the one entry point for every
/// testbed shape: seed, cell count, worker count, detector tuning,
/// and trace-sink sizing.
#[derive(Debug, Clone, Default)]
pub struct DeploymentBuilder {
    cfg: DeploymentConfig,
    cells: usize,
    workers: usize,
    cell_groups: usize,
    shards: Option<usize>,
    trace_capacity: Option<usize>,
    ues: Vec<UeConfig>,
    kernels: Option<KernelConfig>,
    crossed: bool,
}

impl DeploymentBuilder {
    pub fn new() -> DeploymentBuilder {
        DeploymentBuilder {
            cfg: DeploymentConfig::default(),
            cells: 1,
            workers: 1,
            cell_groups: 1,
            shards: None,
            trace_capacity: None,
            ues: Vec::new(),
            kernels: None,
            crossed: false,
        }
    }

    /// Engine + channel seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Number of cells (RU + L2 + primary/secondary PHY pair each).
    /// Combine with [`DeploymentBuilder::spare_pool`] for an N-cell /
    /// M-spare deployment with orchestrated re-pairing.
    pub fn cells(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one cell");
        self.cells = n;
        self
    }

    /// How many threads run the engine's lanes: `w − 1` runner threads
    /// the engine spawns plus the caller of `run_until`, with
    /// `w = min(n, available parallelism)`, claiming units of lanes
    /// ([`DeploymentBuilder::shards`]) as they come free. A callback,
    /// its DSP included, runs serially on the thread that claimed its
    /// lane. `1` (the default) spawns nothing and runs every lane on
    /// the caller in lane order; the trace is byte-identical for any
    /// `n`. A build the engine runs as one lane — one cell, or cells
    /// coupled within a slot (spare pool, `handover()`, crossed
    /// standbys; see DESIGN.md §5g) — gains nothing from `n > 1`.
    pub fn workers(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one worker");
        self.workers = n;
        self
    }

    /// Pin the DSP kernel backend for every node in the deployment
    /// (`KernelConfig::forced(b)` falls back to scalar when the host
    /// cannot run `b`). The default (no call) is the best backend the
    /// CPU supports — trace-identical to scalar, since every SIMD arm
    /// is bit-exact, so the golden hashes don't depend on the host.
    pub fn kernel_config(mut self, kernels: KernelConfig) -> Self {
        self.kernels = Some(kernels);
        self
    }

    /// Radio/cell parameters shared by every cell (cell ids increment
    /// per cell from `cell.cell_id`).
    pub fn cell(mut self, cell: CellConfig) -> Self {
        self.cfg.cell = cell;
        self
    }

    /// Failure-detector tuning.
    pub fn detector(mut self, detector: PktGenConfig) -> Self {
        self.cfg.detector = detector;
        self
    }

    /// Middlebox forwarding model (in-switch vs software ablation).
    pub fn forwarding(mut self, forwarding: ForwardingModel) -> Self {
        self.cfg.forwarding = forwarding;
        self
    }

    /// Run the secondary PHY with a different FEC iteration budget
    /// (the Fig. 11 live-upgrade experiment).
    pub fn secondary_fec_iterations(mut self, iters: usize) -> Self {
        self.cfg.secondary_fec_iterations = Some(iters);
        self
    }

    /// Provision `m` *shared* spare PHY servers usable by any cell,
    /// plus a recovery orchestrator that, after a failover drains a
    /// cell's standby, grants a pooled spare, installs its virtual-PHY
    /// mapping in the switch, replays the cell's init-FAPI to it, and
    /// re-pairs the cell — and that scrubs dead ex-primaries back into
    /// the pool.
    pub fn spare_pool(mut self, m: usize) -> Self {
        self.cfg.spare_pool = m;
        self
    }

    /// Partition the cells into `g` contiguous groups, each behind its
    /// own middlebox switch `leaf{i}` (with its own failure detector)
    /// and in its own engine lane; lane 0 holds `server` and `core`,
    /// and no frame crosses switches. Lanes synchronize at slot
    /// boundaries, so `g ≥ 2` needs cells that share nothing within a
    /// slot: `build()` panics naming the coupling of a build with a
    /// spare pool, handover plane, crossed standbys or a backhaul
    /// shorter than a slot (DESIGN.md §5g).
    ///
    /// With `1` (the default), such an uncoupled build of ≥ 2 cells is
    /// partitioned one switch and lane per cell (see
    /// [`Deployment::leaves`]), and a coupled one keeps every cell and
    /// service behind one switch in one lane. Every slot-level result
    /// is that of one unpartitioned switch; only the trace's order
    /// among same-instant events of different partitions changes.
    pub fn cell_groups(mut self, g: usize) -> Self {
        assert!(g >= 1, "at least one cell group");
        self.cell_groups = g;
        self
    }

    /// How many units the sharded engine chunks its lane set into per
    /// slot window: contiguous, near-even runs of lanes, each claimed
    /// and run whole by one of the [`DeploymentBuilder::workers`]
    /// threads. Purely an *execution* knob: for any value (and any
    /// worker count) the event trace is byte-identical — only
    /// wall-clock changes. Defaults to the lane count; no effect without
    /// `cell_groups(g ≥ 2)`: the per-cell partitions of a
    /// `cell_groups(1)` build always run one unit per lane.
    pub fn shards(mut self, k: usize) -> Self {
        assert!(k >= 1, "at least one shard");
        self.shards = Some(k);
        self
    }

    /// Deploy the handover controller + mobility signaling plane.
    /// Requires `cells(n ≥ 2)`; couples the cells within a slot, so
    /// they share one switch. Structural knob: the trace of a handover
    /// build differs from the same topology without it.
    pub fn handover(mut self) -> Self {
        self.cfg.handover = true;
        self
    }

    /// Co-locate primaries and standbys (§8): cell `i` builds only its
    /// primary PHY (id `2i+1`) and takes cell `(i+1) mod n`'s primary as
    /// its hot standby, so every PHY process serves one cell and runs
    /// null FAPI for another and no server holds only a standby.
    /// Structural knob; requires `cells(n >= 2)`, with no spare pool,
    /// handover plane or upgraded secondary build, and couples the
    /// cells within a slot, so they share one switch.
    pub fn crossed_standbys(mut self) -> Self {
        self.crossed = true;
        self
    }

    /// Add one UE (its `ru_id` selects the cell).
    pub fn ue(mut self, ue: UeConfig) -> Self {
        self.ues.push(ue);
        self
    }

    /// Add several UEs.
    pub fn ues(mut self, ues: impl IntoIterator<Item = UeConfig>) -> Self {
        self.ues.extend(ues);
        self
    }

    /// Size the slot-aware event-trace sink (ring capacity in events).
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Replace the whole low-level config at once (escape hatch for
    /// presets built around [`DeploymentConfig`]).
    pub fn config(mut self, cfg: DeploymentConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// The first of this build's within-slot couplings between cells
    /// (DESIGN.md §5g), or `None` when its cells share nothing within a
    /// slot and may each take a switch partition and an engine lane.
    /// Slots are the lanes' barrier: a coupling crossing lanes would
    /// land a slot late.
    fn coupling(&self) -> Option<&'static str> {
        [
            (self.cfg.spare_pool > 0, "spare_pool(m > 0)"),
            (self.cfg.handover, "handover()"),
            (self.crossed, "crossed_standbys()"),
            (
                self.cfg.backhaul_link.latency < SLOT_DURATION,
                "a backhaul shorter than a slot",
            ),
        ]
        .into_iter()
        .find_map(|(coupled, what)| coupled.then_some(what))
    }

    /// Build and wire the deployment.
    pub fn build(self) -> Deployment {
        if self.cfg.handover {
            assert!(self.cells >= 2, "handover() requires cells(n >= 2)");
        }
        if self.crossed {
            for (conflict, with) in [
                (self.cells < 2, "cells(1)"),
                (self.cfg.spare_pool > 0, "spare_pool(m > 0)"),
                (self.cfg.handover, "handover()"),
                (
                    self.cfg.secondary_fec_iterations.is_some(),
                    "secondary_fec_iterations()",
                ),
            ] {
                assert!(!conflict, "crossed_standbys() conflicts with {with}");
            }
        }
        let coupling = self.coupling();
        if let Some(coupling) = coupling.filter(|_| self.cell_groups > 1) {
            panic!("cell_groups(g >= 2) conflicts with {coupling}: it couples cells within a slot");
        }
        let middleboxes = match coupling {
            None if self.cell_groups == 1 => self.cells,
            _ => self.cell_groups,
        };
        let mut d =
            Deployment::construct(self.cfg, self.cells, middleboxes, self.crossed, self.ues);
        if let Some(kernels) = self.kernels {
            d.engine.set_kernel_config(kernels);
        }
        if let Some(cap) = self.trace_capacity {
            d.engine.event_trace_mut().set_capacity(cap);
        }
        // Install dispatch lanes after trace sizing so per-lane staging
        // buffers are forked with the final ring capacity. Per-cell
        // partitions nobody asked for run one unit per lane.
        if let Some((lane_of, lanes)) = d.lanes.take() {
            d.engine.enable_shards(lane_of, lanes, self.workers);
            if let Some(k) = self.shards.filter(|_| self.cell_groups > 1) {
                d.engine.set_exec_shards(k);
            }
        }
        d
    }
}

/// A switch under construction. Switch nodes are added to the engine
/// last (node order is part of the trace contract), so [`attach`]
/// records each endpoint's port and cable, and the builder plays the
/// record back when it creates the switch node.
///
/// [`attach`]: SwitchPlan::attach
struct SwitchPlan {
    name: String,
    ports: PortSpace,
    /// The fronthaul middlebox program.
    mbox: FhMbox,
    /// `(port, endpoint, link)` per attached endpoint.
    cabled: Vec<(PortId, NodeId, LinkParams)>,
}

impl SwitchPlan {
    fn new(name: String, mbox: FhMbox) -> SwitchPlan {
        SwitchPlan {
            ports: PortSpace::new(&name),
            name,
            mbox,
            cabled: Vec::new(),
        }
    }

    /// Give `node`, reachable at `mac`, a port on this switch over
    /// `link`.
    fn attach(&mut self, node: NodeId, mac: MacAddr, link: &LinkParams) -> PortId {
        let port = self.ports.alloc();
        self.mbox.install_host(mac, port);
        self.cabled.push((port, node, link.clone()));
        port
    }
}

/// State threaded through the node-creation phase of
/// [`Deployment::construct`].
struct Construction {
    cfg: DeploymentConfig,
    engine: Engine<Msg>,
    clock: SlotClock,
    rng: SimRng,
    /// Middlebox switches in cell-group order.
    plans: Vec<SwitchPlan>,
    /// Every PHY id handed out so far → its engine node.
    phy_nodes: BTreeMap<u8, NodeId>,
    /// Every PHY id handed out so far → its PHY-side Orion node.
    phy_orions: BTreeMap<u8, NodeId>,
    /// Crossed standbys: cells build no secondary PHY of their own.
    crossed: bool,
}

impl Construction {
    fn add_phy(&mut self, name: &str, id: u8, cell: &CellConfig, iters: Option<usize>) -> NodeId {
        let mut pc = PhyConfig::new(id);
        pc.fec_iterations = iters.unwrap_or(cell.fec_iterations);
        let rng = self.rng.fork(&format!("phy{id}"));
        let phy = PhyNode::new(pc, cell.clone(), self.clock, rng);
        let node = self.engine.add_node(name, Box::new(phy));
        // PHY ids are `u8` on the wire; past 255 they wrap onto a live
        // PHY, and the switch would steer both by one register value.
        if let Some(owner) = self.phy_nodes.insert(id, node) {
            panic!(
                "PHY id space exhausted: {name} wraps to id {id}, already held by {}",
                self.engine.node_name(owner)
            );
        }
        node
    }

    /// Create PHY `id`'s Orion as node `name`.
    fn add_phy_orion(&mut self, name: &str, id: u8) -> NodeId {
        let orion = OrionPhyNode::new(id);
        let node = self.engine.add_node(name, Box::new(orion));
        self.phy_orions.insert(id, node);
        node
    }

    /// Create cell `i`'s nodes and attach its six switch-facing
    /// endpoints to middlebox switch `sw`. Cell `i` uses RU id `i`,
    /// cell id `base + i` and PHY ids `2i+1` / `2i+2`. A crossed cell
    /// builds no secondary PHY or its Orion (four endpoints); its
    /// secondary fields name its own primary until
    /// [`Deployment::construct`] points them at the next cell's.
    fn add_cell(&mut self, i: usize, sw: usize, ue_cfgs: &[UeConfig]) -> CellDeployment {
        let ru_id = i as u8;
        let pri_id = (2 * i + 1) as u8;
        let sec_id = (2 * i + 2) as u8;
        let mut cell = self.cfg.cell.clone();
        cell.cell_id += i as u16;

        let mut l2n = L2Node::new(cell.clone(), self.clock, ru_id);
        for u in ue_cfgs {
            l2n.preattach_ue(u.rnti, u.snr.mean_db);
        }
        let l2 = self.engine.add_node(&format!("c{i}-l2"), Box::new(l2n));
        let primary_phy = self.add_phy(&format!("c{i}-phy-primary"), pri_id, &cell, None);
        let secondary_phy = (!self.crossed).then(|| {
            let name = format!("c{i}-phy-secondary");
            self.add_phy(&name, sec_id, &cell, self.cfg.secondary_fec_iterations)
        });
        let mut add_orion = |id: u8| self.add_phy_orion(&format!("c{i}-orion-phy{id}"), id);
        let orion_primary = add_orion(pri_id);
        let orion_secondary = secondary_phy.map(|_| add_orion(sec_id));
        let orion_l2 = self.engine.add_node(
            &format!("c{i}-orion-l2"),
            Box::new(OrionL2Node::new(ru_id, self.clock)),
        );
        let run = RuNode::new(ru_id, self.clock);
        let ru_mac = run.mac();
        let ru = self.engine.add_node(&format!("c{i}-ru"), Box::new(run));
        let ues = ue_cfgs
            .iter()
            .map(|u| {
                let node = UeNode::new(u.clone(), cell.clone(), self.clock, self.rng.fork(&u.name));
                self.engine.add_node(&u.name, Box::new(node))
            })
            .collect();

        // The Orion processes share a physical server with their PHY
        // but are distinct traffic endpoints; each MAC gets its own
        // (virtual) switch port so egress resolves to the right node.
        let (fronthaul, server) = (&self.cfg.fronthaul_link, &self.cfg.server_link);
        let plan = &mut self.plans[sw];
        let ru_port = plan.attach(ru, ru_mac, fronthaul);
        let pri_port = plan.attach(primary_phy, MacAddr::for_phy(pri_id), server);
        let sec_port = secondary_phy.map(|phy| plan.attach(phy, MacAddr::for_phy(sec_id), server));
        plan.attach(orion_l2, orion_l2_mac(ru_id), server);
        plan.attach(orion_primary, orion_phy_mac(pri_id), server);
        if let Some(orion) = orion_secondary {
            plan.attach(orion, orion_phy_mac(sec_id), server);
        }
        let mbox = &mut plan.mbox;
        mbox.install_ru(ru_id, ru_mac, ru_port, pri_id);
        let secondary = sec_port.map(|port| (sec_id, port));
        for (id, port) in [(pri_id, pri_port)].into_iter().chain(secondary) {
            mbox.install_phy(id, MacAddr::for_phy(id), port);
            mbox.enroll_failure_detection(id);
        }
        if self.cfg.handover {
            for u in ue_cfgs {
                mbox.install_ue(u.rnti, ru_id);
            }
        }

        CellDeployment {
            ru,
            l2,
            orion_l2,
            primary_phy,
            secondary_phy: secondary_phy.unwrap_or(primary_phy),
            orion_primary,
            orion_secondary: orion_secondary.unwrap_or(orion_primary),
            ues,
            ru_id,
            cell_id: cell.cell_id,
            primary_phy_id: pri_id,
            secondary_phy_id: if self.crossed { pri_id } else { sec_id },
        }
    }

    /// Create a pooled spare PHY server and its Orion on the one
    /// switch. It is attached as a plain host: its virtual-PHY identity
    /// is installed by the orchestrator's InstallStandby at grant time.
    fn add_spare(&mut self, id: u8) -> (u8, NodeId, NodeId) {
        let cell = self.cfg.cell.clone();
        let phy = self.add_phy(&format!("spare-phy{id}"), id, &cell, None);
        let orion = self.add_phy_orion(&format!("spare-orion-phy{id}"), id);
        let plan = &mut self.plans[0];
        plan.attach(phy, MacAddr::for_phy(id), &self.cfg.server_link);
        plan.attach(orion, orion_phy_mac(id), &self.cfg.server_link);
        (id, phy, orion)
    }
}

impl Deployment {
    /// The one construction. `n_cells` cells are split into
    /// `middleboxes` contiguous near-even groups, each behind its own
    /// middlebox switch (failure detection stays local to it, preserving
    /// the in-switch detection latency). With one middlebox it also
    /// carries the pooled spares, the recovery orchestrator and the
    /// handover controller; with more (the builder asks for more only
    /// when the cells share nothing within a slot, see
    /// `DeploymentBuilder::coupling`) there are none, no frame crosses
    /// switches, and the engine is staged for `middleboxes + 1` lanes:
    /// lane 0 `server` and `core`, lane `1 + g` group `g` and its
    /// switch.
    ///
    /// With `crossed` (one group, no spares, no handover plane), cell
    /// `i` builds only its primary PHY and takes cell `(i+1) mod n`'s
    /// primary, and that PHY's Orion, as its standby (§8 co-location).
    ///
    /// Node-add order is a contract — `NodeId`s are in every trace
    /// record: `server`, `core`, each cell in order (`c{i}-l2`, the PHY
    /// pair, their Orions, `c{i}-orion-l2`, `c{i}-ru`, its UEs; a
    /// crossed cell has only `c{i}-phy-primary` and its Orion), spares
    /// as `[phy, orion]` pairs, `recovery`, `handover`, then `switch` —
    /// or `leaf0..`. RNG forks follow the same order.
    fn construct(
        cfg: DeploymentConfig,
        n_cells: usize,
        middleboxes: usize,
        crossed: bool,
        ue_cfgs: Vec<UeConfig>,
    ) -> Deployment {
        assert!(
            n_cells >= middleboxes,
            "need at least one cell per group ({n_cells} cells, {middleboxes} groups)"
        );
        assert!(
            ue_cfgs.iter().all(|u| (u.ru_id as usize) < n_cells),
            "every UE's ru_id must address a built cell"
        );
        if cfg.handover {
            // The switch keys its UE directory and handover store by the
            // RNTI's low byte; two UEs in one entry would share a
            // serving cell, and a handover of one would move the other.
            let mut entry_owner = BTreeMap::new();
            for u in &ue_cfgs {
                if let Some(other) = entry_owner.insert(u.rnti & 0xFF, u.rnti) {
                    panic!(
                        "UE directory entry {} taken twice: RNTI {} wraps onto RNTI {other}",
                        u.rnti & 0xFF,
                        u.rnti
                    );
                }
            }
        }
        let mut cell_ues: Vec<Vec<UeConfig>> = vec![Vec::new(); n_cells];
        for u in ue_cfgs {
            cell_ues[u.ru_id as usize].push(u);
        }
        // The first `n_cells % middleboxes` get one extra cell.
        let group_of_cell: Vec<usize> = (0..middleboxes)
            .flat_map(|g| {
                let size = n_cells / middleboxes + usize::from(g < n_cells % middleboxes);
                std::iter::repeat_n(g, size)
            })
            .collect();

        // One middlebox per group. Failure notifications fan out to its
        // own L2-side Orions and, when a spare pool is deployed, to the
        // recovery orchestrator (it schedules the dead server's
        // scrub-and-return).
        let plans: Vec<SwitchPlan> = (0..middleboxes)
            .map(|g| {
                let mut notify: Vec<MacAddr> = (0..n_cells)
                    .filter(|i| group_of_cell[*i] == g)
                    .map(|i| orion_l2_mac(i as u8))
                    .collect();
                if cfg.spare_pool > 0 {
                    notify.push(recovery_mac());
                }
                let name = if middleboxes == 1 {
                    "switch".to_string()
                } else {
                    format!("leaf{g}")
                };
                SwitchPlan::new(name, FhMbox::with_notify_targets(cfg.detector, notify))
            })
            .collect();

        let mut c = Construction {
            engine: Engine::new(cfg.seed),
            clock: SlotClock::new(Nanos::ZERO),
            rng: SimRng::new(cfg.seed ^ 0x5113_6507),
            plans,
            phy_nodes: BTreeMap::new(),
            phy_orions: BTreeMap::new(),
            crossed,
            cfg,
        };

        // --- nodes, in contract order ---
        let server = c.engine.add_node("server", Box::new(AppServerNode::new()));
        let core = c.engine.add_node("core", Box::new(CoreNode::new()));
        let mut cells: Vec<CellDeployment> = (0..n_cells)
            .map(|i| c.add_cell(i, group_of_cell[i], &cell_ues[i]))
            .collect();
        if crossed {
            let primaries: Vec<_> = cells
                .iter()
                .map(|c| (c.primary_phy, c.orion_primary, c.primary_phy_id))
                .collect();
            for (i, cell) in cells.iter_mut().enumerate() {
                (
                    cell.secondary_phy,
                    cell.orion_secondary,
                    cell.secondary_phy_id,
                ) = primaries[(i + 1) % n_cells];
            }
        }
        // Spares take the PHY ids after every cell pair.
        let spares: Vec<(u8, NodeId, NodeId)> = (0..c.cfg.spare_pool)
            .map(|j| c.add_spare((2 * n_cells + 1 + j) as u8))
            .collect();
        let recovery = (c.cfg.spare_pool > 0).then(|| {
            let node = RecoveryOrchestrator::new(c.clock);
            let node = c.engine.add_node("recovery", Box::new(node));
            c.plans[0].attach(node, recovery_mac(), &c.cfg.server_link);
            node
        });
        let handover = c.cfg.handover.then(|| {
            let node = HandoverController::new(c.clock);
            let node = c.engine.add_node("handover", Box::new(node));
            c.plans[0].attach(node, handover_mac(), &c.cfg.server_link);
            node
        });
        let Construction {
            cfg,
            mut engine,
            mut rng,
            plans,
            phy_nodes,
            phy_orions,
            ..
        } = c;
        // --- switches last, then one link per recorded attachment ---
        let mut attached_switch = BTreeMap::new();
        let switches: Vec<NodeId> = plans
            .into_iter()
            .map(|plan| {
                let rng = rng.fork(&plan.name);
                let mut sw = SwitchNode::new(plan.mbox, cfg.forwarding, rng);
                for (port, node, _) in &plan.cabled {
                    sw.attach(*port, *node);
                }
                let sw = engine.add_node(&plan.name, Box::new(sw));
                for (_, node, link) in plan.cabled {
                    engine.connect_duplex(node, sw, link);
                    attached_switch.insert(node, sw);
                }
                sw
            })
            .collect();
        let switch = switches[0];
        let switch_of = |cell: &CellDeployment| switches[group_of_cell[cell.ru_id as usize]];
        let leaves = if middleboxes > 1 {
            switches.clone()
        } else {
            Vec::new()
        };

        // --- wiring ---
        let all_ues: Vec<NodeId> = cells.iter().flat_map(|c| c.ues.iter().copied()).collect();
        engine.node_mut::<AppServerNode>(server).unwrap().wire(core);
        {
            let c = engine.node_mut::<CoreNode>(core).unwrap();
            c.wire(cells[0].l2, server);
            for (cell, ues) in cells.iter().zip(&cell_ues) {
                for u in ues {
                    c.route_ue(u.rnti, cell.l2);
                }
                if handover.is_some() {
                    c.register_l2(cell.ru_id, cell.l2);
                }
            }
        }
        for (cell, ues) in cells.iter().zip(&cell_ues) {
            let sw = switch_of(cell);
            {
                let l2 = engine.node_mut::<L2Node>(cell.l2).unwrap();
                l2.wire(cell.orion_l2, core);
                if let Some(ho) = handover {
                    l2.wire_handover(ho);
                    l2.enable_sched_trace();
                    for u in ues {
                        l2.set_ue_slice(u.rnti, u.slice);
                    }
                }
            }
            {
                let o = engine.node_mut::<OrionL2Node>(cell.orion_l2).unwrap();
                o.wire(sw, cell.l2);
                o.bind_ru(cell.ru_id, cell.primary_phy_id, Some(cell.secondary_phy_id));
                if recovery.is_some() {
                    o.use_spare_pool();
                }
            }
            // With the handover plane every RU's radio broadcast domain
            // covers every UE: after cutover a UE hears its new serving
            // cell without rewiring (it filters bursts by serving RU id).
            let radio = if handover.is_some() {
                all_ues.clone()
            } else {
                cell.ues.clone()
            };
            engine.node_mut::<RuNode>(cell.ru).unwrap().wire(sw, radio);
            for ue in &cell.ues {
                engine
                    .node_mut::<UeNode>(*ue)
                    .unwrap()
                    .wire(cell.ru, cell.l2);
            }
        }
        // A PHY and its Orion reach the network through the switch the
        // PHY is cabled to.
        for (id, &phy) in &phy_nodes {
            let (orion, sw) = (phy_orions[id], attached_switch[&phy]);
            engine.node_mut::<PhyNode>(phy).unwrap().wire(sw, orion);
            engine
                .node_mut::<OrionPhyNode>(orion)
                .unwrap()
                .wire(sw, phy);
        }
        if let Some(rec) = recovery {
            let r = engine.node_mut::<RecoveryOrchestrator>(rec).unwrap();
            r.wire(switch);
            for (&id, &phy) in &phy_nodes {
                r.register_phy(id, phy);
            }
            for (id, phy, _) in &spares {
                r.add_spare(*id, *phy);
            }
        }
        if let Some(ho) = handover {
            let h = engine.node_mut::<HandoverController>(ho).unwrap();
            h.wire(switch, core);
            for (cell, ues) in cells.iter().zip(&cell_ues) {
                h.register_cell(cell.ru_id, cell.l2);
                for (u, node) in ues.iter().zip(&cell.ues) {
                    h.register_ue(u.rnti, *node);
                }
            }
            // Each UE learns every cell's air/signaling endpoints so a
            // HandoverCommand can re-tune it to any neighbor.
            for ue in &all_ues {
                let u = engine.node_mut::<UeNode>(*ue).unwrap();
                for cell in &cells {
                    u.wire_cell(cell.ru_id, cell.ru, cell.l2);
                }
            }
        }

        // --- links that bypass the switches ---
        let shm = LinkParams::ideal(Nanos(500));
        engine.connect_duplex(server, core, cfg.backhaul_link.clone());
        for cell in &cells {
            engine.connect_duplex(core, cell.l2, cfg.backhaul_link.clone());
            engine.connect_duplex(cell.l2, cell.orion_l2, shm.clone());
            engine.connect_duplex(cell.primary_phy, cell.orion_primary, shm.clone());
            // A crossed standby is the next cell's primary, linked there.
            if !crossed {
                engine.connect_duplex(cell.secondary_phy, cell.orion_secondary, shm.clone());
            }
        }
        for (_, phy, orion) in &spares {
            engine.connect_duplex(*phy, *orion, shm.clone());
        }

        // Lane 0 holds `server` and `core`; lane `1 + g` holds
        // partition `g` and its cells. The backhaul, the only cross-lane
        // traffic, is at least a slot long, so it synchronizes at slot
        // boundaries without moving a delivery.
        let lanes = (middleboxes > 1).then(|| {
            let mut lane_of = vec![0u32; engine.node_names().len()];
            for cell in &cells {
                let lane = 1 + group_of_cell[cell.ru_id as usize] as u32;
                lane_of[switch_of(cell).0] = lane;
                let stack = [cell.l2, cell.orion_l2, cell.ru];
                let phys = [
                    cell.primary_phy,
                    cell.secondary_phy,
                    cell.orion_primary,
                    cell.orion_secondary,
                ];
                for node in stack.iter().chain(&phys).chain(&cell.ues) {
                    lane_of[node.0] = lane;
                }
            }
            (lane_of, middleboxes + 1)
        });

        Deployment {
            engine,
            switch,
            core,
            server,
            ues: all_ues,
            cells,
            spare_phys: spares,
            recovery,
            handover,
            phy_nodes,
            phy_orions,
            leaves,
            attached_switch,
            lanes,
            cfg,
        }
    }

    /// The switch whose middlebox serves `ru_id`: its partition in a
    /// build with several middleboxes, the one shared switch otherwise.
    pub fn switch_for_ru(&self, ru_id: u8) -> NodeId {
        self.cells
            .get(ru_id as usize)
            .map_or(self.switch, |cell| self.switch_for_node(cell.ru))
    }

    /// The switch an endpoint node is cabled to: its cell's partition
    /// in a build with several middleboxes, the one shared switch
    /// otherwise.
    /// Nodes with no switch port (UEs, L2s, core) resolve to
    /// [`Deployment::switch`].
    pub fn switch_for_node(&self, node: NodeId) -> NodeId {
        *self.attached_switch.get(&node).unwrap_or(&self.switch)
    }

    /// Attach an app to a UE (by index into the flattened `ues` list)
    /// and its far end at the server.
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

    /// Publish every node's own measurements and the per-link stats
    /// into the engine's metrics registry, scoped by node and link
    /// name. Idempotent — values are set, not accumulated — so it can
    /// be called at any point (or repeatedly) during a run.
    pub fn publish_metrics(&mut self) {
        self.engine.publish_link_metrics();
        self.engine.publish_node_metrics();
    }

    /// `(ru id, primary PHY id)` of every cell: the slot-0 ownership
    /// map the trace judges (`oracle::Expectations::initial_active`,
    /// `SloConfig::initial_active`) layer `MapFlip` events over.
    pub fn initial_active(&self) -> Vec<(u64, u64)> {
        self.cells
            .iter()
            .map(|c| (c.ru_id as u64, c.primary_phy_id as u64))
            .collect()
    }

    /// SIGKILL cell 0's primary PHY at `at` (the §8 failover trigger).
    pub fn kill_primary_at(&mut self, at: Nanos) {
        // Killing is immediate from the engine; to do it at a future
        // time we use a one-shot control: run to `at` first.
        self.engine.run_until(at);
        self.engine.kill(self.cells[0].primary_phy);
    }

    /// Request a planned migration of cell 0's RU to its secondary PHY.
    pub fn planned_migration_at(&mut self, at: Nanos) {
        let cell = &self.cells[0];
        let request = Msg::Ctl(CtlMsg::PlannedMigration { ru_id: cell.ru_id });
        self.engine.post(at, cell.orion_l2, request);
    }
}
