//! Chaos runner: applies [`slingshot_sim::chaos`] scenarios to a live
//! [`Deployment`].
//!
//! The scenario DSL is deployment-agnostic data (symbolic targets,
//! slot-scheduled fault kinds); this module is the part that knows the
//! Fig. 4(b) topology. Each fault expands into one or two timed
//! primitive operations (kill, stall, link degrade + restore, process
//! restart, control-plane post), and the runner drives the engine
//! `run_until` each operation's instant before applying it. Symbolic
//! targets are resolved *at apply time* — "the active PHY" after an
//! earlier failover in the same scenario is the post-failover owner,
//! read from the switch's own data-plane RU→PHY register.
//!
//! Everything is deterministic: the engine's seeded RNG covers the
//! probabilistic link faults, and the runner itself draws no
//! randomness, so a `(deployment seed, scenario)` pair always produces
//! a byte-identical event trace.

use std::collections::HashMap;

use slingshot_ran::{
    CellConfig, CtlMsg, Fidelity, MobilityConfig, Msg, PhyNode, SliceKind, UeConfig, UeNode,
};
use slingshot_sim::chaos::{oracle, FaultKind, FaultTarget, Scenario};
use slingshot_sim::time::TDD_CYCLE_SLOTS;
use slingshot_sim::{LinkParams, Nanos, NodeId, SLOT_DURATION};
use slingshot_transport::{UdpCbrSource, UdpSink};

use crate::deployment::{Deployment, DeploymentConfig, RU_ID};
use crate::orion::OrionL2Node;
use crate::switch_node::SwitchNode;

/// Simulated time of an absolute slot's start (the deployment's slot
/// clock has epoch 0).
fn slot_time(abs_slot: u64) -> Nanos {
    Nanos(abs_slot * SLOT_DURATION.0)
}

/// How a link-level fault rewrites a link's parameters for its window.
#[derive(Debug, Clone, Copy)]
enum LinkPatch {
    /// Drop everything.
    Partition,
    /// Random drop with probability `p`.
    Loss(f64),
    /// Random payload corruption with probability `p`.
    Corrupt(f64),
    /// Random duplication with probability `p`.
    Dup(f64),
    /// Random reordering: hold a packet back by the given delay with
    /// probability `p`.
    Reorder(f64, Nanos),
}

impl LinkPatch {
    fn apply(self, params: &mut LinkParams) {
        match self {
            LinkPatch::Partition => params.drop_chance = 1.0,
            LinkPatch::Loss(p) => params.drop_chance = p,
            LinkPatch::Corrupt(p) => params.corrupt_chance = p,
            LinkPatch::Dup(p) => params.dup_chance = p,
            LinkPatch::Reorder(p, hold) => {
                params.reorder_chance = p;
                params.reorder_hold = hold;
            }
        }
    }
}

/// One primitive operation at one instant. `fault` indexes the
/// originating fault in the sorted schedule so paired begin/end
/// operations (stall/unstall, degrade/restore, kill/restart) share
/// state resolved when the window opened.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// SIGKILL a PHY process (resolved from a symbolic target).
    Kill(FaultTarget),
    /// Wedge a PHY's poll loop (alive but missing every deadline).
    Stall(FaultTarget),
    /// Release a wedged PHY.
    Unstall,
    /// Save and rewrite the target's link parameters.
    Degrade(FaultTarget, LinkPatch),
    /// Restore the link parameters saved by the paired `Degrade`.
    Restore,
    /// Kill a process that will come back (Orion restart).
    KillProcess(FaultTarget),
    /// Revive the process killed by the paired `KillProcess`, re-running
    /// its startup path with retained configuration.
    RestartProcess,
    /// Post `n` planned-migration requests to the L2-side Orion, spaced
    /// 10 µs apart (1 = a planned migration, >1 = a request storm).
    PostPlanned(u32),
    /// Post `n` forced measurement reports to the handover controller,
    /// 10 µs apart, cycling over the deployment's UEs (a handover
    /// storm). Each report claims the next cell over is stronger.
    PostMeasurements(u32),
}

/// Applies one [`Scenario`] to one [`Deployment`].
pub struct ChaosRunner {
    /// `(time, fault index, op)`, sorted by time then fault index.
    ops: Vec<(Nanos, usize, Op)>,
    /// Link parameters saved by `Degrade`, keyed by fault index.
    saved_links: HashMap<usize, Vec<(NodeId, NodeId, LinkParams)>>,
    /// Node wedged by `Stall`, keyed by fault index.
    stalled: HashMap<usize, NodeId>,
    /// Node killed by `KillProcess`, keyed by fault index.
    downed: HashMap<usize, NodeId>,
    /// Human-readable record of everything actually applied (targets
    /// resolved), for failure reports.
    pub log: Vec<(Nanos, String)>,
}

impl ChaosRunner {
    /// Expand a scenario into its timed operation schedule.
    pub fn new(scenario: &Scenario) -> ChaosRunner {
        let mut ops = Vec::new();
        for (i, f) in scenario.sorted_faults().into_iter().enumerate() {
            let t0 = slot_time(f.at_slot);
            let t1 = slot_time(f.at_slot + f.kind.duration_slots());
            match f.kind {
                FaultKind::PhyCrash => ops.push((t0, i, Op::Kill(f.target))),
                FaultKind::PhyHang { .. } => {
                    ops.push((t0, i, Op::Stall(f.target)));
                    ops.push((t1, i, Op::Unstall));
                }
                FaultKind::LinkPartition { .. } => {
                    ops.push((t0, i, Op::Degrade(f.target, LinkPatch::Partition)));
                    ops.push((t1, i, Op::Restore));
                }
                FaultKind::BurstLoss { p, .. } => {
                    ops.push((t0, i, Op::Degrade(f.target, LinkPatch::Loss(p))));
                    ops.push((t1, i, Op::Restore));
                }
                FaultKind::IqCorrupt { p, .. } => {
                    ops.push((t0, i, Op::Degrade(f.target, LinkPatch::Corrupt(p))));
                    ops.push((t1, i, Op::Restore));
                }
                FaultKind::DupPackets { p, .. } => {
                    ops.push((t0, i, Op::Degrade(f.target, LinkPatch::Dup(p))));
                    ops.push((t1, i, Op::Restore));
                }
                FaultKind::ReorderPackets { p, hold, .. } => {
                    ops.push((t0, i, Op::Degrade(f.target, LinkPatch::Reorder(p, hold))));
                    ops.push((t1, i, Op::Restore));
                }
                FaultKind::OrionRestart { .. } => {
                    ops.push((t0, i, Op::KillProcess(f.target)));
                    ops.push((t1, i, Op::RestartProcess));
                }
                FaultKind::MigrationStorm { requests } => {
                    ops.push((t0, i, Op::PostPlanned(requests)));
                }
                FaultKind::PlannedMigration => ops.push((t0, i, Op::PostPlanned(1))),
                FaultKind::HandoverStorm { requests } => {
                    ops.push((t0, i, Op::PostMeasurements(requests)));
                }
            }
        }
        ops.sort_by_key(|&(t, i, _)| (t, i));
        ChaosRunner {
            ops,
            saved_links: HashMap::new(),
            stalled: HashMap::new(),
            downed: HashMap::new(),
            log: Vec::new(),
        }
    }

    /// Drive the deployment through every scheduled operation, then to
    /// `horizon_slots`.
    pub fn run(&mut self, d: &mut Deployment, horizon_slots: u64) {
        let ops = std::mem::take(&mut self.ops);
        for (t, fault, op) in ops {
            d.engine.run_until(t);
            self.apply(d, fault, op);
        }
        d.engine.run_until(slot_time(horizon_slots));
    }

    fn note(&mut self, at: Nanos, what: String) {
        self.log.push((at, what));
    }

    fn apply(&mut self, d: &mut Deployment, fault: usize, op: Op) {
        let now = d.engine.now();
        match op {
            Op::Kill(target) => {
                let node = match target {
                    FaultTarget::HandoverController => d.handover,
                    _ => resolve_phy_node(d, target),
                };
                match node {
                    Some(node) => {
                        d.engine.kill(node);
                        self.note(now, format!("kill {}", d.engine.node_name(node)));
                    }
                    None => self.note(now, format!("kill {target}: no such target, skipped")),
                }
            }
            Op::Stall(target) => match resolve_phy_node(d, target) {
                Some(node) => {
                    if let Some(phy) = d.engine.node_mut::<PhyNode>(node) {
                        phy.set_stalled(true);
                        self.stalled.insert(fault, node);
                        self.note(now, format!("stall {}", d.engine.node_name(node)));
                    }
                }
                None => self.note(now, format!("stall {target}: no such PHY, skipped")),
            },
            Op::Unstall => {
                if let Some(node) = self.stalled.remove(&fault) {
                    if let Some(phy) = d.engine.node_mut::<PhyNode>(node) {
                        phy.set_stalled(false);
                    }
                    self.note(now, format!("unstall {}", d.engine.node_name(node)));
                }
            }
            Op::Degrade(target, patch) => {
                let mut saved = Vec::new();
                for (a, b) in resolve_links(d, target) {
                    if let Some(params) = d.engine.link_params(a, b) {
                        saved.push((a, b, params.clone()));
                        let mut degraded = params;
                        patch.apply(&mut degraded);
                        d.engine.reconfigure_link(a, b, degraded);
                    }
                }
                self.note(
                    now,
                    format!(
                        "degrade {target} ({} link directions): {patch:?}",
                        saved.len()
                    ),
                );
                self.saved_links.insert(fault, saved);
            }
            Op::Restore => {
                for (a, b, params) in self.saved_links.remove(&fault).unwrap_or_default() {
                    d.engine.reconfigure_link(a, b, params);
                }
                self.note(now, "restore links".to_string());
            }
            Op::KillProcess(target) => match resolve_process_node(d, target) {
                Some(node) => {
                    d.engine.kill(node);
                    self.downed.insert(fault, node);
                    self.note(now, format!("down {}", d.engine.node_name(node)));
                }
                None => self.note(now, format!("down {target}: no such process, skipped")),
            },
            Op::RestartProcess => {
                if let Some(node) = self.downed.remove(&fault) {
                    d.engine.restart(node);
                    self.note(now, format!("restart {}", d.engine.node_name(node)));
                }
            }
            Op::PostPlanned(count) => {
                for k in 0..count {
                    d.engine.post(
                        now + Nanos(10_000 * k as u64),
                        d.orion_l2,
                        Msg::Ctl(CtlMsg::PlannedMigration { ru_id: RU_ID }),
                    );
                }
                self.note(now, format!("post {count} planned-migration request(s)"));
            }
            Op::PostMeasurements(count) => {
                let Some(ctl) = d.handover else {
                    self.note(
                        now,
                        "handover storm: no handover controller deployed, skipped".to_string(),
                    );
                    return;
                };
                // Snapshot (rnti, serving ru) per UE from the live UE
                // state, then round-robin forced reports toward each
                // UE's next neighbour cell.
                let n_cells = d.cells.len().max(1) as u8;
                let ues: Vec<(u16, u8)> = d
                    .ues
                    .iter()
                    .filter_map(|&id| {
                        d.engine
                            .node::<slingshot_ran::UeNode>(id)
                            .map(|u| (u.rnti(), u.serving_ru()))
                    })
                    .collect();
                if ues.is_empty() {
                    self.note(now, "handover storm: no UEs, skipped".to_string());
                    return;
                }
                for k in 0..count {
                    let (rnti, serving_ru) = ues[k as usize % ues.len()];
                    let target_ru = (serving_ru + 1) % n_cells;
                    d.engine.post(
                        now + Nanos(10_000 * k as u64),
                        ctl,
                        Msg::Ctl(CtlMsg::MeasurementReport {
                            rnti,
                            serving_ru,
                            target_ru,
                            serving_snr_cdb: 1_000,
                            target_snr_cdb: 1_800,
                        }),
                    );
                }
                self.note(
                    now,
                    format!("post {count} forced measurement report(s) (handover storm)"),
                );
            }
        }
    }
}

/// The engine node of the PHY currently playing the symbolic role, or
/// `None` when the role is unfilled (e.g. standby already consumed and
/// no spare configured).
fn resolve_phy_node(d: &mut Deployment, target: FaultTarget) -> Option<NodeId> {
    let phy_id = resolve_phy_id(d, target)?;
    phy_node_of(d, phy_id)
}

/// The PHY id currently playing the symbolic role, read from the live
/// control/data plane. `ActivePhy`/`StandbyPhy` are cell-0 aliases of
/// the per-cell `ActivePhyOf`/`StandbyPhyOf` targets.
pub fn resolve_phy_id(d: &mut Deployment, target: FaultTarget) -> Option<u8> {
    match target {
        // The data plane is the ground truth for who serves the RU.
        FaultTarget::ActivePhy => resolve_phy_id(d, FaultTarget::ActivePhyOf(RU_ID)),
        FaultTarget::StandbyPhy => resolve_phy_id(d, FaultTarget::StandbyPhyOf(RU_ID)),
        FaultTarget::ActivePhyOf(ru) => {
            // In a fabric build the RU's leaf middlebox owns the
            // RU→PHY register; single-switch builds resolve to the one
            // shared switch.
            let switch = d.switch_for_ru(ru);
            Some(d.engine.node_mut::<SwitchNode>(switch)?.active_phy(ru))
        }
        FaultTarget::StandbyPhyOf(ru) => {
            let orion_l2 = d.cells.get(ru as usize)?.orion_l2;
            d.engine.node::<OrionL2Node>(orion_l2)?.standby_of(ru)
        }
        _ => None,
    }
}

/// Map a PHY id (cell PHY or pooled spare) to its engine node.
pub fn phy_node_of(d: &Deployment, phy_id: u8) -> Option<NodeId> {
    d.phy_nodes.get(&phy_id).copied()
}

/// The phy-side Orion shim paired with a PHY id.
fn orion_node_of(d: &Deployment, phy_id: u8) -> Option<NodeId> {
    d.phy_orions.get(&phy_id).copied()
}

/// The directed engine links a link-level fault covers. The undirected
/// fronthaul targets act on cell 0's RU (per-cell PHY targets resolve
/// through the live mapping).
fn resolve_links(d: &mut Deployment, target: FaultTarget) -> Vec<(NodeId, NodeId)> {
    // Each endpoint's links terminate at the switch it is cabled to:
    // its leaf in a fabric build, the shared switch otherwise.
    match target {
        FaultTarget::Fronthaul => {
            let sw = d.switch_for_node(d.ru);
            vec![(d.ru, sw), (sw, d.ru)]
        }
        FaultTarget::FronthaulUplink => vec![(d.ru, d.switch_for_node(d.ru))],
        FaultTarget::FronthaulDownlink => vec![(d.switch_for_node(d.ru), d.ru)],
        FaultTarget::OrionL2 => {
            let sw = d.switch_for_node(d.orion_l2);
            vec![(d.orion_l2, sw), (sw, d.orion_l2)]
        }
        FaultTarget::HandoverController => match d.handover {
            Some(ho) => {
                let sw = d.switch_for_node(ho);
                vec![(ho, sw), (sw, ho)]
            }
            None => Vec::new(),
        },
        FaultTarget::ActivePhy
        | FaultTarget::StandbyPhy
        | FaultTarget::ActivePhyOf(_)
        | FaultTarget::StandbyPhyOf(_) => match resolve_phy_node(d, target) {
            Some(phy) => {
                let sw = d.switch_for_node(phy);
                vec![(phy, sw), (sw, phy)]
            }
            None => Vec::new(),
        },
    }
}

/// The process an [`FaultKind::OrionRestart`] bounces: the L2-side shim
/// for [`FaultTarget::OrionL2`], the paired PHY-side shim for PHY
/// targets.
fn resolve_process_node(d: &mut Deployment, target: FaultTarget) -> Option<NodeId> {
    match target {
        FaultTarget::OrionL2 => Some(d.orion_l2),
        FaultTarget::HandoverController => d.handover,
        FaultTarget::ActivePhy
        | FaultTarget::StandbyPhy
        | FaultTarget::ActivePhyOf(_)
        | FaultTarget::StandbyPhyOf(_) => {
            let phy_id = resolve_phy_id(d, target)?;
            orion_node_of(d, phy_id)
        }
        _ => None,
    }
}

/// The standard chaos testbed: the full Fig. 4(b) deployment with a
/// one-deep spare pool (so failover scenarios can re-pair, §4.4) and a
/// 4 Mbps uplink UDP flow from one UE — the same traffic shape as the
/// §8 failover experiments.
pub fn chaos_deployment(seed: u64) -> Deployment {
    let cfg = DeploymentConfig {
        cell: CellConfig {
            num_prbs: 51,
            fidelity: Fidelity::Sampled,
            ..CellConfig::default()
        },
        seed,
        spare_pool: 1,
        ..DeploymentConfig::default()
    };
    let mut d = crate::deployment::DeploymentBuilder::new()
        .config(cfg)
        .ue(UeConfig::new(100, 0, "ue100", 22.0))
        .build();
    d.add_flow(
        0,
        100,
        Box::new(UdpCbrSource::new(4_000_000, 1000, Nanos::ZERO)),
        Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
    );
    d
}

/// The multi-cell chaos testbed: four cells sharing a two-deep spare
/// pool behind the recovery orchestrator, each cell carrying the same
/// 4 Mbps uplink UDP flow as the single-cell testbed. This is the
/// deployment the sequential-crash scenarios run against: three crashes
/// in distinct cells exceed the pool, so surviving them proves the
/// scrub-and-recycle path, not just the initial provisioning.
pub fn chaos_pool_deployment(seed: u64) -> Deployment {
    let cfg = DeploymentConfig {
        cell: CellConfig {
            num_prbs: 51,
            fidelity: Fidelity::Sampled,
            ..CellConfig::default()
        },
        seed,
        ..DeploymentConfig::default()
    };
    let mut b = crate::deployment::DeploymentBuilder::new()
        .config(cfg)
        .cells(4)
        .spare_pool(2);
    for i in 0..4u8 {
        b = b.ue(UeConfig::new(100 + i as u16, i, &format!("ue{i}"), 22.0));
    }
    let mut d = b.build();
    for i in 0..4usize {
        d.add_flow(
            i,
            100 + i as u16,
            Box::new(UdpCbrSource::new(4_000_000, 1000, Nanos::ZERO)),
            Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
        );
    }
    d
}

/// The mobility/handover chaos testbed: two cells, a one-deep spare
/// pool, and the handover controller. UE 100 is a URLLC UE walking the
/// two-cell corridor (it will cross the cell edge and trigger a
/// network-initiated handover mid-run); UE 101 (eMBB) and UE 102 (mMTC)
/// are stationary anchors on each cell so the per-slice oracle sees all
/// three slice classes. Every UE carries an uplink UDP flow so scheduler
/// grants — and therefore `UeScheduled` trace events — flow end to end.
pub fn chaos_handover_deployment(seed: u64) -> Deployment {
    chaos_handover_deployment_with_workers(seed, 1)
}

/// [`chaos_handover_deployment`] with an explicit worker-pool size, for
/// the 1-vs-N byte-identical determinism battery.
pub fn chaos_handover_deployment_with_workers(seed: u64, workers: usize) -> Deployment {
    let cfg = DeploymentConfig {
        cell: CellConfig {
            num_prbs: 51,
            fidelity: Fidelity::Sampled,
            ..CellConfig::default()
        },
        seed,
        ..DeploymentConfig::default()
    };
    let mut d = crate::deployment::DeploymentBuilder::new()
        .config(cfg)
        .workers(workers)
        .cells(2)
        .spare_pool(1)
        .handover()
        .ue(UeConfig::new(100, 0, "ue-mobile", 22.0)
            .with_slice(SliceKind::Urllc)
            .with_mobility(MobilityConfig::two_cell_corridor()))
        .ue(UeConfig::new(101, 0, "ue-embb", 24.0).with_slice(SliceKind::Embb))
        .ue(UeConfig::new(102, 1, "ue-mmtc", 24.0).with_slice(SliceKind::Mmtc))
        .build();
    d.add_flow(
        0,
        100,
        Box::new(UdpCbrSource::new(1_000_000, 200, Nanos::ZERO)),
        Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
    );
    d.add_flow(
        0,
        101,
        Box::new(UdpCbrSource::new(4_000_000, 1000, Nanos::ZERO)),
        Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
    );
    d.add_flow(
        1,
        102,
        Box::new(UdpCbrSource::new(500_000, 400, Nanos::ZERO)),
        Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
    );
    d
}

/// Damage-derived expectations for a scenario on this deployment: its
/// cells are declared to the oracle (initial active-PHY map from the
/// built topology) and, with a spare pool, the pool-accounting
/// invariant is armed. On handover-enabled deployments the mobility
/// invariants are armed too: the initial serving map is read from the
/// UE nodes (call this before running the scenario), and URLLC UEs get
/// a deadline budget scaled by the scenario's tolerated damage.
pub fn expectations_for(d: &Deployment, scenario: &Scenario) -> oracle::Expectations {
    let mut exp = oracle::Expectations::for_scenario(scenario, d.cfg.spare_pool > 0);
    exp.initial_active = d.initial_active();
    if d.cfg.spare_pool > 0 {
        exp.expect_pool = Some(d.cfg.spare_pool as u64);
    }
    if d.handover.is_some() {
        let mut urllc = false;
        for cell in &d.cells {
            for &id in &cell.ues {
                if let Some(u) = d.engine.node::<UeNode>(id) {
                    exp.initial_serving
                        .push((u.rnti() as u64, u.serving_ru() as u64));
                    urllc |= u.slice() == SliceKind::Urllc;
                }
            }
        }
        exp.initial_serving.sort_unstable();
        // A clean handover pauses a UE for at most prep + cutover
        // (~10 slots); damage windows stretch that by whatever TTI
        // budget the scenario already tolerates.
        exp.max_handover_interruption_slots = 25 + exp.max_dropped_ttis * TDD_CYCLE_SLOTS;
        if urllc {
            exp.urllc_deadline_slots = Some(20 + exp.max_dropped_ttis * TDD_CYCLE_SLOTS);
        }
    }
    exp
}

/// Run a scenario against a deployment and judge the resulting trace
/// with expectations derived from the injected damage. A caller that
/// tightens the expectations runs [`ChaosRunner`] and calls
/// `oracle::check` itself.
pub fn run_scenario(d: &mut Deployment, scenario: &Scenario) -> oracle::OracleReport {
    let exp = expectations_for(d, scenario);
    ChaosRunner::new(scenario).run(d, scenario.horizon_slots);
    oracle::check(d.engine.event_trace(), &exp)
}
