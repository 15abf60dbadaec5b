//! Sharded-engine determinism battery for leaf/spine fabric builds and
//! for single-switch builds partitioned one lane per cell.
//!
//! The fabric contract: `cell_groups(g)` is a *structural* knob (it
//! changes the topology and therefore the trace), while `shards(k)` and
//! `workers(w)` are pure *execution* knobs — for a fixed topology and
//! seed, every (shards, workers) combination must produce byte-identical
//! traces and metrics. The battery pins that across seeds, and drives a
//! chaos crash whose spare grant crosses shards (leaf cell, spine-side
//! pool) to prove the recovery plane survives the lane split.

use slingshot::chaos::run_scenario;
use slingshot::{Deployment, DeploymentBuilder, DeploymentConfig};
use slingshot_ran::{AppServerNode, CellConfig, Fidelity, PhyNode, UeConfig};
use slingshot_sim::chaos::{FaultKind, FaultTarget, Scenario};
use slingshot_sim::{LinkParams, Nanos, SpanProfiler, TraceEventKind};
use slingshot_transport::{UdpCbrSource, UdpSink};

fn small_cell() -> CellConfig {
    CellConfig {
        num_prbs: 51,
        fidelity: Fidelity::Sampled,
        ..CellConfig::default()
    }
}

/// A 4-cell fabric of `groups` leaves with one uplink flow per cell.
fn build_fabric(
    seed: u64,
    groups: usize,
    shards: usize,
    workers: usize,
    spare_pool: usize,
) -> Deployment {
    let cfg = DeploymentConfig {
        cell: small_cell(),
        seed,
        spare_pool,
        ..DeploymentConfig::default()
    };
    let mut b = DeploymentBuilder::new()
        .config(cfg)
        .cells(4)
        .cell_groups(groups)
        .shards(shards)
        .workers(workers);
    for i in 0..4u8 {
        b = b.ue(UeConfig::new(100 + i as u16, i, &format!("ue{i}"), 22.0));
    }
    let mut d = b.build();
    for i in 0..4usize {
        d.add_flow(
            i,
            100 + i as u16,
            Box::new(UdpCbrSource::new(3_000_000, 900, Nanos::ZERO)),
            Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
        );
    }
    d
}

/// [`build_fabric`] run to `horizon_ms`. Returns trace bytes, trace
/// hash, and the metrics dump.
fn run_fabric(
    seed: u64,
    groups: usize,
    shards: usize,
    workers: usize,
    spare_pool: usize,
    kill_primary_of_cell: Option<usize>,
    horizon_ms: u64,
) -> (Vec<u8>, u64, String) {
    let mut d = build_fabric(seed, groups, shards, workers, spare_pool);
    if let Some(cell) = kill_primary_of_cell {
        let phy = d.cells[cell].primary_phy;
        d.engine.run_until(Nanos::from_millis(horizon_ms / 2));
        d.engine.kill(phy);
    }
    d.engine.run_until(Nanos::from_millis(horizon_ms));
    d.publish_metrics();
    let trace = d.engine.event_trace();
    (trace.to_bytes(), trace.hash(), d.engine.metrics().to_text())
}

/// Across 8 seeds: `shards=4` runs byte-identical to `shards=1`, with
/// the worker count simultaneously at 1 vs 4 — the headline acceptance
/// criterion for the sharded engine.
#[test]
fn sharded_trace_invariant_across_seeds() {
    for seed in 1..=8u64 {
        let (b1, h1, m1) = run_fabric(seed, 2, 1, 1, 0, None, 100);
        let (b4, h4, m4) = run_fabric(seed, 2, 4, 4, 0, None, 100);
        assert!(!b1.is_empty(), "trace must not be empty (seed {seed})");
        assert_eq!(h1, h4, "trace hash diverged at seed {seed}");
        assert_eq!(b1, b4, "trace bytes diverged at seed {seed}");
        assert_eq!(m1, m4, "metrics diverged at seed {seed}");
    }
}

/// Engine settings have one owner, so one installed after `build()` —
/// after the lanes exist — still reaches every lane: the profiler sees
/// the lanes' own stages, not just the barrier, and stays a pure side
/// channel.
#[test]
fn profiler_set_after_build_reaches_every_lane() {
    let mut d = build_fabric(5, 2, 2, 1, 0);
    let profiler = SpanProfiler::enabled();
    d.engine.set_profiler(profiler.clone());
    d.engine.run_until(Nanos::from_millis(5));
    let report = profiler.report().expect("profiler enabled");
    for stage in ["lane_dispatch", "queue_pop", "ul_decode", "barrier_merge"] {
        assert!(
            report
                .stages
                .iter()
                .any(|s| s.stage == stage && s.count > 0),
            "no {stage} span reached the profiler"
        );
    }
    let unprofiled = run_fabric(5, 2, 2, 1, 0, None, 5);
    assert_eq!(d.engine.event_trace().hash(), unprofiled.1);
}

/// The full execution cross: shards {1, 4} × workers {1, 4} on a
/// 4-leaf fabric (5 lanes) all collapse to one trace.
#[test]
fn shard_worker_cross_product_is_identical() {
    for seed in [3u64, 11] {
        let reference = run_fabric(seed, 4, 1, 1, 0, None, 100);
        for shards in [1usize, 4] {
            for workers in [1usize, 4] {
                let got = run_fabric(seed, 4, shards, workers, 0, None, 100);
                assert_eq!(
                    reference, got,
                    "seed {seed}: shards={shards} workers={workers} diverged"
                );
            }
        }
    }
}

/// Like [`run_fabric`], but with a hostile fronthaul: every RU↔leaf
/// link duplicates, reorders, and jitters frames (draws taken from the
/// sender's lane RNG, so they must be shard- and worker-invariant).
fn run_faulty_fabric(seed: u64, shards: usize, workers: usize) -> (Vec<u8>, u64, String) {
    let faulty_fh = LinkParams::with_bandwidth(Nanos(20_000), 25_000_000_000)
        .jitter(Nanos(5_000))
        .dup_chance(0.3)
        .reorder(0.3, Nanos(10_000));
    let cfg = DeploymentConfig {
        cell: small_cell(),
        seed,
        fronthaul_link: faulty_fh,
        ..DeploymentConfig::default()
    };
    let mut b = DeploymentBuilder::new()
        .config(cfg)
        .cells(4)
        .cell_groups(2)
        .shards(shards)
        .workers(workers);
    for i in 0..4u8 {
        b = b.ue(UeConfig::new(100 + i as u16, i, &format!("ue{i}"), 22.0));
    }
    let mut d = b.build();
    for i in 0..4usize {
        d.add_flow(
            i,
            100 + i as u16,
            Box::new(UdpCbrSource::new(3_000_000, 900, Nanos::ZERO)),
            Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
        );
    }
    d.engine.run_until(Nanos::from_millis(60));
    d.publish_metrics();
    let trace = d.engine.event_trace();
    (trace.to_bytes(), trace.hash(), d.engine.metrics().to_text())
}

/// Link-fault battery: duplicated/reordered/jittered fronthaul frames
/// across 8 seeds × shards {1, 4} × workers {1, 4} — every combination
/// must collapse to one byte-identical trace per seed. This pins the
/// calendar queue's `(at, seq)` ordering and the lane-RNG fault-draw
/// placement under the nastiest link schedule the models produce.
#[test]
fn dup_reorder_fault_battery_across_shards_and_workers() {
    for seed in 1..=8u64 {
        let reference = run_faulty_fabric(seed, 1, 1);
        assert!(
            !reference.0.is_empty(),
            "trace must not be empty (seed {seed})"
        );
        for shards in [1usize, 4] {
            for workers in [1usize, 4] {
                if (shards, workers) == (1, 1) {
                    continue;
                }
                let got = run_faulty_fabric(seed, shards, workers);
                assert_eq!(
                    reference, got,
                    "seed {seed}: shards={shards} workers={workers} diverged under link faults"
                );
            }
        }
    }
}

/// A primary crash in a leaf cell with the spare pool on the spine: the
/// SpareRequest, grant, InstallStandby, and init-FAPI replay all cross
/// the leaf↔spine boundary (and the lane barrier). The recovery loop
/// must complete — and stay byte-identical across shard counts.
#[test]
fn cross_shard_spare_grant_recovers_and_stays_deterministic() {
    let seed = 7u64;
    let (b1, _, m1) = run_fabric(seed, 2, 1, 1, 1, Some(3), 600);
    let (b4, _, m4) = run_fabric(seed, 2, 4, 4, 1, Some(3), 600);
    assert_eq!(b1, b4, "cross-shard recovery trace diverged");
    assert_eq!(m1, m4, "cross-shard recovery metrics diverged");

    // Re-run one config to inspect the trace events directly.
    let cfg = DeploymentConfig {
        cell: small_cell(),
        seed,
        spare_pool: 1,
        ..DeploymentConfig::default()
    };
    let mut b = DeploymentBuilder::new()
        .config(cfg)
        .cells(4)
        .cell_groups(2)
        .shards(4)
        .workers(1);
    for i in 0..4u8 {
        b = b.ue(UeConfig::new(100 + i as u16, i, &format!("ue{i}"), 22.0));
    }
    let mut d = b.build();
    let crashed_cell = 3usize;
    let phy = d.cells[crashed_cell].primary_phy;
    d.engine.run_until(Nanos::from_millis(300));
    d.engine.kill(phy);
    d.engine.run_until(Nanos::from_millis(600));

    let count = |kind: TraceEventKind| {
        d.engine
            .event_trace()
            .iter()
            .filter(|ev| ev.kind == kind)
            .count()
    };
    assert!(
        count(TraceEventKind::SpareRequested) >= 1,
        "no spare requested after draining the cell's standby"
    );
    assert!(
        count(TraceEventKind::SpareGranted) >= 1,
        "spine-side pool never granted a spare to the leaf cell"
    );
    assert!(
        count(TraceEventKind::StandbyRepaired) >= 1,
        "crashed cell never re-paired with the granted spare"
    );
}

/// The recovery orchestrator (spine lane) restarts a crashed leaf-cell
/// PHY and sends it the scrub in one callback. The restart is staged
/// for the barrier, so at send time the fleet view still has the PHY
/// dead: the scrub must still reach it, or the PHY rejoins the pool
/// with the RU it served, starves of FAPI requests and kills itself a
/// millisecond later (two `SlotDeadlineMiss`, then `NodeKilled`).
#[test]
fn scrub_reaches_a_phy_restarted_across_the_lane_barrier() {
    let mut traces = Vec::new();
    for workers in [1usize, 2] {
        let ues: Vec<UeConfig> = (0..2u8)
            .map(|c| UeConfig::new(100 + c as u16, c, &format!("ue{c}"), 22.0))
            .collect();
        let mut d = DeploymentBuilder::new()
            .seed(42)
            .cell(CellConfig {
                num_prbs: 24,
                ..small_cell()
            })
            .cells(2)
            .cell_groups(2)
            .workers(workers)
            .spare_pool(1)
            .ues(ues)
            .build();
        assert_eq!(d.engine.lane_loads().len(), 3, "spine lane plus two leaves");
        for c in 0..2usize {
            d.add_flow(
                c,
                100 + c as u16,
                Box::new(UdpCbrSource::new(4_000_000, 1000, Nanos::ZERO)),
                Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
            );
        }
        let scenario =
            Scenario::new("crash", 1600).fault(600, FaultTarget::ActivePhy, FaultKind::PhyCrash);
        let node = d.cells[0].primary_phy;
        let phy = d.cells[0].primary_phy_id as u64;
        run_scenario(&mut d, &scenario);
        let trace = d.engine.event_trace();
        let returned = trace
            .of_kind(TraceEventKind::SpareReturned)
            .find(|e| e.a == phy)
            .expect("the crashed primary was scrubbed back into the pool")
            .at;
        let revived = trace
            .of_kind(TraceEventKind::NodeRevived)
            .any(|e| e.a == node.0 as u64 && e.at == returned);
        assert!(
            revived,
            "{workers} workers: the restart landed with the return"
        );
        let after: Vec<_> = trace
            .iter()
            .filter(|e| e.at >= returned)
            .filter(|e| {
                e.node == node || (e.kind == TraceEventKind::NodeKilled && e.a == node.0 as u64)
            })
            .map(|e| (e.at, e.kind))
            .collect();
        assert!(
            after.is_empty(),
            "{workers} workers: the scrubbed PHY {after:?}"
        );
        traces.push(trace.to_bytes());
    }
    assert!(traces[0] == traces[1], "2 workers diverged");
}

/// What four one-UE cells delivered, whatever switches they sat behind:
/// per-UE bytes at the server, each cell's UL slots in decode order
/// (from the trace), and per-cell `(UL TBs decoded, CRC failures)`.
#[derive(Debug, PartialEq)]
struct Delivered {
    ue_bytes: Vec<u64>,
    ul_slots: Vec<Vec<u64>>,
    tbs: Vec<(u64, u64)>,
}

/// [`build_fabric`] (no spare pool) run for 400 slots: what it
/// delivered, and its trace bytes.
fn run_cells(groups: usize, workers: usize) -> (Delivered, Vec<u8>) {
    let mut d = build_fabric(11, groups, 1, workers, 0);
    d.engine.run_until(Nanos::from_millis(200));
    let server = d.engine.node::<AppServerNode>(d.server).unwrap();
    let ue_bytes = (0..4u16)
        .map(|i| {
            let sink = server.app::<UdpSink>(100 + i, 0).unwrap();
            sink.bins.bins().iter().sum()
        })
        .collect();
    let trace = d.engine.event_trace();
    assert_eq!(
        trace.len() as u64,
        trace.total_recorded(),
        "trace ring truncated"
    );
    let ul_slots = d
        .cells
        .iter()
        .map(|cell| {
            trace
                .of_kind(TraceEventKind::UlSlotProcessed)
                .filter(|e| e.node == cell.primary_phy || e.node == cell.secondary_phy)
                .map(|e| e.a)
                .collect()
        })
        .collect();
    let tbs = d
        .cells
        .iter()
        .map(|cell| {
            let phy = d.engine.node::<PhyNode>(cell.primary_phy).unwrap();
            (phy.ul_tbs_decoded, phy.ul_crc_failures)
        })
        .collect();
    let delivered = Delivered {
        ue_bytes,
        ul_slots,
        tbs,
    };
    (delivered, trace.to_bytes())
}

/// Four uncoupled cells on one switch are partitioned one lane per
/// cell; on a four-leaf fabric they get the same lanes behind leaves
/// joined by a spine. Both deliver exactly the same bytes, UL slots and
/// TB outcomes at 1 and 4 workers, and each build's trace is
/// byte-identical across its two worker counts.
#[test]
fn partitioned_switch_delivers_what_a_four_leaf_fabric_delivers() {
    let (single_1, single_trace_1) = run_cells(1, 1);
    let (single_4, single_trace_4) = run_cells(1, 4);
    let (fabric_1, fabric_trace_1) = run_cells(4, 1);
    let (fabric_4, fabric_trace_4) = run_cells(4, 4);
    assert!(single_1.ue_bytes.iter().all(|&b| b > 0), "{single_1:?}");
    // DDDSU: one UL slot in five, 80 in 400 slots.
    assert!(
        single_1.ul_slots.iter().all(|s| s.len() >= 75),
        "{single_1:?}"
    );
    assert_eq!(single_1, single_4, "partitioned switch: 1 vs 4 workers");
    assert_eq!(single_1, fabric_1, "partitioned switch vs fabric");
    assert_eq!(fabric_1, fabric_4, "fabric: 1 vs 4 workers");
    assert!(
        single_trace_1 == single_trace_4,
        "partitioned trace moved with workers"
    );
    assert!(
        fabric_trace_1 == fabric_trace_4,
        "fabric trace moved with workers"
    );
}

/// Structural sanity: a fabric build exposes its leaves and spine, maps
/// each RU to its owning leaf, and a single-switch build whose cells
/// are coupled (here by a spare pool) still maps everything to the one
/// shared switch.
#[test]
fn fabric_directories_resolve_switches() {
    let mut b = DeploymentBuilder::new()
        .seed(1)
        .cell(small_cell())
        .cells(4)
        .cell_groups(2)
        .spare_pool(1);
    for i in 0..4u8 {
        b = b.ue(UeConfig::new(100 + i as u16, i, &format!("ue{i}"), 22.0));
    }
    let d = b.build();
    assert_eq!(d.leaves.len(), 2);
    assert_eq!(d.spine, Some(d.switch));
    // Spine lane plus one lane per leaf group.
    assert_eq!(d.engine.lane_loads().len(), 3);
    // Contiguous split: cells 0-1 on leaf0, cells 2-3 on leaf1.
    assert_eq!(d.switch_for_ru(0), d.leaves[0]);
    assert_eq!(d.switch_for_ru(1), d.leaves[0]);
    assert_eq!(d.switch_for_ru(2), d.leaves[1]);
    assert_eq!(d.switch_for_ru(3), d.leaves[1]);
    for cell in &d.cells {
        let leaf = d.switch_for_ru(cell.ru_id);
        assert_eq!(d.switch_for_node(cell.ru), leaf);
        assert_eq!(d.switch_for_node(cell.primary_phy), leaf);
    }
    for (_, phy, _) in &d.spare_phys {
        assert_eq!(d.switch_for_node(*phy), d.switch);
    }

    let single = DeploymentBuilder::new()
        .seed(1)
        .cell(small_cell())
        .cells(2)
        .spare_pool(1)
        .ue(UeConfig::new(100, 0, "ue0", 22.0))
        .ue(UeConfig::new(101, 1, "ue1", 22.0))
        .build();
    assert!(single.leaves.is_empty());
    assert_eq!(single.engine.lane_loads().len(), 1);
    assert_eq!(single.switch_for_ru(1), single.switch);
    assert_eq!(single.switch_for_node(single.cells[0].ru), single.switch);
}

/// The port-collision audit at city scale: a 128-cell single-switch
/// build and a 128-cell / 8-leaf fabric build must both allocate their
/// port spaces without a collision panic. 128 cells use every `u8` PHY
/// id (1..=255 and 0), so these builds carry no spare pool.
#[test]
fn port_allocation_audit_at_128_cells() {
    let d = DeploymentBuilder::new()
        .seed(1)
        .cell(small_cell())
        .cells(128)
        .build();
    assert_eq!(d.cells.len(), 128);
    assert_eq!(d.phy_nodes.len(), 256);

    let d = DeploymentBuilder::new()
        .seed(1)
        .cell(small_cell())
        .cells(128)
        .cell_groups(8)
        .build();
    assert_eq!(d.cells.len(), 128);
    assert_eq!(d.leaves.len(), 8);
}
