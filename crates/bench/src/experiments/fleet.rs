//! Beyond one cell: the availability of a pooled fleet over a long
//! horizon (§4.4 and §6.1 through the `sim::slo` analyzer) and cells
//! partitioned into cell groups at city scale (DESIGN.md §5g). Both
//! entries hold simulated facts only; how fast the host runs them is
//! the benchmark package's to say (`full_ul`, `scale_abstract`).

use super::*;
use slingshot::ChaosRunner;
use slingshot_ran::UeConfig;
use slingshot_sim::chaos::{ChaosDistribution, FaultKind, FaultTarget, Scenario};
use slingshot_sim::slo::{self, SloConfig};
use slingshot_sim::trace::TraceEventKind;
use slingshot_sim::SimRng;

/// Slots cheap enough for a hundred thousand of them per run: the
/// failover machinery (heartbeats, detector, orchestrator) is the
/// Sampled testbed's, the DSP is bypassed.
fn fleet_cell() -> CellConfig {
    CellConfig {
        num_prbs: 51,
        ..stress_cell()
    }
}

/// `cells` cells on `builder`, a 22 dB UE with an uplink UDP flow in
/// each.
fn fleet(builder: DeploymentBuilder, cells: usize, flow: (u64, usize)) -> Deployment {
    let ues = (0..cells).map(|c| UeConfig::new(rnti(c), c as u8, &format!("ue{c}"), 22.0));
    let mut d = ues
        .fold(builder.cells(cells), DeploymentBuilder::ue)
        .build();
    for c in 0..cells {
        add_udp(&mut d, c, Dir::Ul, flow, sink_10ms());
    }
    d
}

#[rustfmt::skip]
pub(super) const AVAILABILITY: Experiment = Experiment {
    id: "availability",
    paper: "§4.4 and §6.1 over a long horizon: a shared spare pool re-pairs every crashed cell, \
            each crash costs at most 3 TTIs and is detected within 450 µs; 50 s of air time \
            under the chaos suite's triple crash and under a seeded crash process",
    body: availability,
    expect: &[
        row("nines:c4_s2", "", AtLeast(3.0)),
        row("nines:proc_c2_s1", "", AtLeast(3.0)).deviation(ONE_SPARE_COUNT),
        row("nines:proc_c4_s2", "", AtLeast(3.0)).deviation(ONE_SPARE_COUNT),
        row("mttr_ms:c4_s2", "", AtMost(5.0)),
        row("mttr_ms:proc_c2_s1", "", AtMost(5.0)),
        row("mttr_ms:proc_c4_s2", "", AtMost(5.0)),
        row("worst_missing_ttis:c4_s2", "≤ 3", AtMost(3.0)),
        row("worst_missing_ttis:proc_c2_s1", "≤ 3", AtMost(3.0)),
        row("worst_missing_ttis:proc_c4_s2", "≤ 3", AtMost(3.0)),
        row("detection_max_us:c4_s2", "≤ 450 µs", AtMost(450.0)),
        row("detection_max_us:proc_c2_s1", "≤ 450 µs", AtMost(450.0)),
        row("detection_max_us:proc_c4_s2", "≤ 450 µs", AtMost(450.0)),
        row("spares_not_returned:c4_s2", "", Equals(0.0)),
        row("spares_not_returned:proc_c2_s1", "", Equals(0.0)),
        row("spares_not_returned:proc_c4_s2", "", Equals(0.0)),
        row("truncated:c4_s2", "", Equals(0.0)),
        row("truncated:proc_c2_s1", "", Equals(0.0)),
        row("truncated:proc_c4_s2", "", Equals(0.0)),
    ],
};

const ONE_SPARE_COUNT: &str = "one spare count per cell count: at a 4 000-slot crash gap a \
    spare is scrubbed and back in the pool ~40 slots after its grant, so 1 and 2 spares give \
    the same trace; sizing the pool under correlated failures is ROADMAP item 8";

/// 50 s of air time per configuration.
const HORIZON_SLOTS: u64 = 100_000;

/// The chaos suite's `pool-3crash` fault train on a long horizon.
fn triple_crash() -> Scenario {
    Scenario::new("triple-crash", HORIZON_SLOTS)
        .fault(700, FaultTarget::ActivePhyOf(0), FaultKind::PhyCrash)
        .fault(760, FaultTarget::ActivePhyOf(1), FaultKind::PhyCrash)
        .fault(820, FaultTarget::ActivePhyOf(2), FaultKind::PhyCrash)
}

/// A renewal crash process: faults at gaps of `min_gap + U[0, min_gap)`
/// slots (the `ChaosDistribution::sample` spacing rule), each aimed at
/// a random cell's active PHY, until `cooldown_slots` before the
/// horizon. The same seed always yields the same schedule.
fn crash_process(dist: &ChaosDistribution, seed: u64, cells: usize, horizon: u64) -> Scenario {
    let mut rng = SimRng::new(seed ^ 0x00ca_5cad_e500_5107);
    let mut s = Scenario::new("crash-process", horizon);
    let mut slot = dist.first_fault_slot + rng.below(dist.min_gap_slots);
    while slot + dist.cooldown_slots < horizon {
        let victim = rng.below(cells as u64) as u8;
        s = s.fault(slot, FaultTarget::ActivePhyOf(victim), FaultKind::PhyCrash);
        slot += dist.min_gap_slots + rng.below(dist.min_gap_slots);
    }
    s
}

/// Seconds-scale gaps: a minutes-scale MTBF would make crashes
/// vanishingly rare at this horizon, and every run should go through
/// many full grant → scrub → return cycles of the pool.
fn crash_gaps() -> ChaosDistribution {
    ChaosDistribution {
        first_fault_slot: 1_000,
        min_gap_slots: 4_000,
        cooldown_slots: 1_000,
        ..ChaosDistribution::default()
    }
}

fn availability(r: &mut BenchReport) {
    let process = |cells| crash_process(&crash_gaps(), 7, cells, HORIZON_SLOTS);
    let configs = [
        ("c4_s2", 4, 2, triple_crash()),
        ("proc_c2_s1", 2, 1, process(2)),
        ("proc_c4_s2", 4, 2, process(4)),
    ];
    for (key, cells, spares, scenario) in configs {
        let pooled = builder(42, fleet_cell()).spare_pool(spares);
        let mut d = fleet(pooled, cells, (4_000_000, 1000));
        // Keep only what the SLO analyzer reads — a FapiToL2 per UL
        // slot would double the ring to about 160 000 events, ~6 MB, at
        // this horizon — and size the ring for one UlSlotProcessed per
        // delivered UL TTI plus the lifecycle events around each crash.
        let trace = d.engine.event_trace_mut();
        trace.set_kind_filter(&[
            TraceEventKind::MapFlip,
            TraceEventKind::UlSlotProcessed,
            TraceEventKind::DetectorSaturated,
            TraceEventKind::SpareRequested,
            TraceEventKind::SpareGranted,
            TraceEventKind::SpareReturned,
            TraceEventKind::StandbyRepaired,
        ]);
        let ul_ttis = HORIZON_SLOTS / TDD_CYCLE_SLOTS * cells as u64;
        trace.set_capacity((ul_ttis + 65_536) as usize);
        ChaosRunner::new(&scenario).run(&mut d, HORIZON_SLOTS);

        let config = SloConfig {
            horizon_slots: HORIZON_SLOTS,
            initial_active: d.initial_active(),
        };
        let slo = slo::analyze(d.engine.event_trace(), &config);
        let fleet = &slo.fleet;
        let outages = slo.cells.iter().flat_map(|c| &c.outages);
        let missing: Vec<(f64, f64)> = outages
            .map(|o| (o.start_slot as f64, o.missing_ttis as f64))
            .collect();
        let worst_missing = missing.iter().map(|p| p.1).fold(0.0, f64::max);
        let not_returned = fleet.spare_grants as f64 - fleet.spare_returns as f64;
        r.scalar_of("crashes", key, scenario.faults.len() as f64, 0);
        r.scalar_of("outages", key, fleet.outages as f64, 0);
        r.scalar_of("dropped_ttis", key, fleet.dropped_ttis as f64, 0);
        r.scalar_of("expected_ttis", key, fleet.expected_ttis as f64, 0);
        r.scalar_of("nines", key, fleet.nines, 2);
        r.scalar_of("worst_cell_nines", key, fleet.worst_cell_nines, 2);
        r.scalar_of("mttr_ms", key, ms(fleet.mttr.map(|t| t.0)), 2);
        r.scalar_of("ttr_max_ms", key, ms(fleet.ttr_max.map(|t| t.0)), 2);
        r.scalar_of("worst_missing_ttis", key, worst_missing, 0);
        let detection_max = us(fleet.detection_max.map(|t| t.0));
        r.scalar_of("detection_max_us", key, detection_max, 3);
        r.scalar_of("spare_grants", key, fleet.spare_grants as f64, 0);
        r.scalar_of("spares_not_returned", key, not_returned, 0);
        r.scalar_of("truncated", key, slo.truncated as u8 as f64, 0);
        r.series_dp(&format!("missing_ttis_by_outage:{key}"), missing, (0, 0));
    }
}

#[rustfmt::skip]
pub(super) const FABRIC_SCALE: Experiment = Experiment {
    id: "fabric_scale",
    paper: "DESIGN.md §5g, 16 to 128 Abstract cells in 4 or 8 cell groups for 40 ms: how \
            many units the lanes are chunked into never shows in the trace, fronthaul cost per \
            cell is flat in fleet size, and more groups shorten the busiest lane's slot",
    body: fabric_scale,
    expect: &[
        row("shard_invariant:c16_g4", "", Equals(1.0)),
        row("shard_invariant:c64_g4", "", Equals(1.0)),
        row("shard_invariant:c128_g4", "", Equals(1.0)),
        row("shard_invariant:c128_g8", "", Equals(1.0)),
        row("bytes_per_cell_c128_over_c16", "", Within(1.0, 2.0)),
        row("worst_lane_events_g8_over_g4", "", AtMost(0.6)),
    ],
};

fn fabric_scale(r: &mut BenchReport) {
    const END: Nanos = Nanos::from_millis(40);
    let slots = (END.0 / SLOT_DURATION.0) as f64;
    let (mut bytes_per_cell, mut worst_lane) = (Vec::new(), Vec::new());
    for (cells, groups) in [(16, 4), (64, 4), (128, 4), (128, 8)] {
        let run = |shards| {
            let fabric = builder(4242, fleet_cell()).cell_groups(groups);
            let mut d = fleet(fabric.shards(shards), cells, (1_000_000, 600));
            d.engine.run_until(END);
            d.engine
        };
        let serial = run(1).event_trace().to_bytes();
        let engine = run(4);
        let key = format!("c{cells}_g{groups}");
        let same = engine.event_trace().to_bytes() == serial;
        r.scalar_of("shard_invariant", &key, same as u8 as f64, 0);
        let bytes = engine.total_link_stats().bytes as f64 / cells as f64;
        // Lane 0 holds `server` and `core`, lanes 1..=groups the leaves.
        let loads = engine.lane_loads();
        let per_slot = |events: u64| events as f64 / slots;
        let worst = per_slot(loads.iter().copied().max().expect("a lane"));
        let per_cell_slot = per_slot(engine.dispatched()) / cells as f64;
        r.scalar_of("bytes_per_cell", &key, bytes, 0);
        r.scalar_of("worst_lane_events_per_slot", &key, worst, 0);
        r.scalar_of("events_per_cell_slot", &key, per_cell_slot, 1);
        let lanes = loads.iter().enumerate();
        let by_lane = lanes.map(|(lane, events)| (lane as f64, per_slot(*events)));
        r.series_dp(&format!("lane_events_per_slot:{key}"), by_lane, (0, 1));
        bytes_per_cell.push(bytes);
        worst_lane.push(worst);
    }
    let bytes_ratio = bytes_per_cell[2] / bytes_per_cell[0];
    r.scalar_dp("bytes_per_cell_c128_over_c16", bytes_ratio, 3);
    let lane_ratio = worst_lane[3] / worst_lane[2];
    r.scalar_dp("worst_lane_events_g8_over_g4", lane_ratio, 3);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_process_is_a_seeded_renewal_process_inside_its_horizon() {
        let (dist, cells, horizon) = (crash_gaps(), 4, 2_000_000);
        let schedule = crash_process(&dist, 7, cells, horizon);
        assert_eq!(schedule, crash_process(&dist, 7, cells, horizon));
        assert_ne!(schedule, crash_process(&dist, 8, cells, horizon));

        let at: Vec<u64> = schedule.faults.iter().map(|f| f.at_slot).collect();
        assert!(at.len() > 200, "a long horizon holds hundreds of crashes");
        let first = dist.first_fault_slot..dist.first_fault_slot + dist.min_gap_slots;
        assert!(first.contains(&at[0]));
        for gap in at.windows(2).map(|w| w[1] - w[0]) {
            assert!((dist.min_gap_slots..2 * dist.min_gap_slots).contains(&gap));
        }
        assert!(at[at.len() - 1] + dist.cooldown_slots < horizon);
        // ...and the process stops only when the next crash would not fit.
        assert!(at[at.len() - 1] + 2 * dist.min_gap_slots + dist.cooldown_slots >= horizon);

        for cell in 0..cells as u8 {
            let victim = FaultTarget::ActivePhyOf(cell);
            let hits = schedule.faults.iter().filter(|f| f.target == victim);
            assert!(hits.count() > 0, "cell {cell} never crashes");
        }
        let mut crashes = schedule.faults.iter();
        assert!(crashes.all(|f| f.kind == FaultKind::PhyCrash));
    }
}
