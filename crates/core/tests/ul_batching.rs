//! Shared uplink LDPC batches: the PHYs of one engine lane queue their
//! code blocks at the slot tick, the first continuation at that instant
//! decodes them all in lockstep batches, and each PHY's own
//! continuation sends its results. These tests pin the batch count of
//! a failover-shaped deployment and what a PHY upset between its tick
//! and its continuation does: it must not panic, keep HARQ state for an
//! RU it no longer serves, or let its blocks reach another PHY.

use std::collections::BTreeSet;

use slingshot::{chaos_pool_deployment, Deployment, DeploymentBuilder};
use slingshot_ran::{CellConfig, CtlMsg, Fidelity, Msg, PhyNode, UeConfig};
use slingshot_sim::{slot_kind, Ctx, Nanos, Node, NodeId, SlotKind, SLOT_DURATION};
use slingshot_transport::{UdpCbrSource, UdpSink};

/// The first slot boundary at or after `after` whose tick decodes an
/// uplink slot (the PHY runs slot `n`'s uplink at the `n + 2` tick).
fn ul_tick_at_or_after(after: Nanos) -> Nanos {
    let mut abs = after.0.div_ceil(SLOT_DURATION.0);
    while slot_kind(abs - 2) != SlotKind::Uplink {
        abs += 1;
    }
    Nanos(abs * SLOT_DURATION.0)
}

fn phy(d: &Deployment, node: NodeId) -> &PhyNode {
    d.engine.node::<PhyNode>(node).expect("a PHY")
}

/// Sum of one counter over every scope that publishes it.
fn counter_sum(d: &mut Deployment, name: &str) -> u64 {
    d.publish_metrics();
    d.engine
        .metrics()
        .counters()
        .filter(|(_, n, _)| *n == name)
        .map(|(_, _, v)| v)
        .sum()
}

/// Every PHY of a failover-shaped deployment — four Sampled cells and
/// two spares in one lane — decodes one single-block TB per uplink slot
/// at the same boundary, so the lane runs one lockstep batch per
/// uplink instant, four lanes live. (One batch per PHY, as decoding
/// before shared batches did, would be four.)
#[test]
fn failover_shaped_lane_runs_one_batch_per_uplink_instant() {
    let mut d = chaos_pool_deployment(1);
    d.engine.run_until(Nanos::from_millis(200));
    let active: Vec<NodeId> = d.cells.iter().map(|c| c.primary_phy).collect();
    let mut instants = BTreeSet::new();
    let mut tbs = 0;
    for &node in &active {
        let slots = &phy(&d, node).processed_ul_slots;
        tbs += slots.len() as u64;
        instants.extend(slots.iter().copied());
    }
    assert!(
        instants.len() > 50,
        "only {} uplink instants",
        instants.len()
    );
    assert_eq!(
        tbs,
        4 * instants.len() as u64,
        "every cell decodes every uplink slot"
    );
    assert_eq!(counter_sum(&mut d, "ul_code_blocks"), tbs);
    assert_eq!(counter_sum(&mut d, "ul_tbs_decoded"), tbs);
    assert_eq!(counter_sum(&mut d, "ldpc_batches"), instants.len() as u64);
}

/// The downlink has no shared batch: a UE decodes each TB alone, one
/// `decode_prepared` call per TB, so its batch count sits between its
/// TB count and its code-block count. Both are published beside the
/// PHY's `ul_code_blocks` / `ldpc_batches`.
#[test]
fn ue_publishes_its_downlink_ldpc_work() {
    let mut d = DeploymentBuilder::new()
        .seed(2)
        .cell(CellConfig {
            num_prbs: 24,
            fidelity: Fidelity::Full,
            ..CellConfig::default()
        })
        .ue(UeConfig::new(100, 0, "ue100", 22.0))
        .build();
    d.add_flow(
        0,
        100,
        Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
        Box::new(UdpCbrSource::new(3_000_000, 900, Nanos::ZERO)),
    );
    d.engine.run_until(Nanos::from_millis(60));
    let tbs = counter_sum(&mut d, "dl_tbs_ok") + counter_sum(&mut d, "dl_tbs_bad");
    let blocks = counter_sum(&mut d, "dl_code_blocks");
    let batches = counter_sum(&mut d, "dl_ldpc_batches");
    assert!(tbs > 20, "only {tbs} downlink TBs");
    assert!(
        tbs <= batches && batches <= blocks && blocks > tbs,
        "{tbs} TBs, {batches} batches, {blocks} code blocks"
    );
}

/// Kills its target on any message; `revive` then restarts and scrubs
/// it at once, as the recovery orchestrator does a dead ex-primary.
struct Killer {
    target: NodeId,
    revive: bool,
}

impl Node<Msg> for Killer {
    fn on_msg(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: Msg) {
        ctx.kill(self.target);
        if self.revive {
            ctx.restart(self.target);
            ctx.send_in(self.target, Nanos::ZERO, Msg::Ctl(CtlMsg::PhyScrub));
        }
    }
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Upset {
    None,
    Scrub,
    Kill,
    KillRestartScrub,
}

/// The counters of a PHY that say what it decoded and what that cost.
fn decode_counters(p: &PhyNode) -> (u64, u64, u64, u64) {
    (
        p.ul_tbs_decoded,
        p.ul_crc_failures,
        p.ul_code_blocks,
        p.busy_ns_total,
    )
}

/// Run the pool deployment to an uplink tick `t` and upset cell 0's
/// primary PHY at `t`, after its tick queued its block and before its
/// continuation: a message posted for `t` now is dispatched after the
/// tick timer (queued a slot earlier) and before the continuations.
fn upset_cell0_at_ul_tick(upset: Upset) -> (Deployment, Nanos) {
    let mut d = chaos_pool_deployment(3);
    let target = d.cells[0].primary_phy;
    let revive = upset == Upset::KillRestartScrub;
    let killer = d
        .engine
        .add_node("killer", Box::new(Killer { target, revive }));
    let t = ul_tick_at_or_after(Nanos::from_millis(60));
    d.engine.run_until(t - Nanos(1));
    let queued = phy(&d, target).processed_ul_slots.len();
    match upset {
        Upset::None => {}
        Upset::Scrub => d.engine.post(t, target, Msg::Ctl(CtlMsg::PhyScrub)),
        Upset::Kill | Upset::KillRestartScrub => {
            d.engine.post(t, killer, Msg::Ctl(CtlMsg::PhyScrub))
        }
    }
    d.engine.run_until(t);
    assert_eq!(
        phy(&d, target).processed_ul_slots.len(),
        queued + 1,
        "{upset:?}: the tick at {t:?} queued an uplink slot"
    );
    (d, t)
}

#[test]
fn phy_upset_between_tick_and_continuation_sends_nothing_and_leaks_nothing() {
    let (reference, t) = upset_cell0_at_ul_tick(Upset::None);
    let target = reference.cells[0].primary_phy;
    let others: Vec<NodeId> = reference.cells[1..].iter().map(|c| c.primary_phy).collect();
    let finished = phy(&reference, target).ul_tbs_decoded;
    for upset in [Upset::Scrub, Upset::Kill, Upset::KillRestartScrub] {
        let (mut d, _) = upset_cell0_at_ul_tick(upset);
        let p = phy(&d, target);
        assert_eq!(
            p.ul_tbs_decoded,
            finished - 1,
            "{upset:?}: the upset PHY finished its slot"
        );
        assert_eq!(p.soft_state_bytes(0), 0, "{upset:?}: HARQ state kept");
        assert_eq!(d.engine.is_alive(target), upset != Upset::Kill, "{upset:?}");
        for &node in &others {
            assert_eq!(
                decode_counters(phy(&d, node)),
                decode_counters(phy(&reference, node)),
                "{upset:?}: {} decoded differently",
                d.engine.node_name(node)
            );
        }
        // The run goes on: cell 0 fails over, nothing panics.
        d.engine.run_until(t + Nanos::from_millis(50));
    }
}

/// A PHY killed, restarted and scrubbed between its tick and its
/// continuation gets no continuation, so the one tick chain it runs
/// afterwards is the one its restart armed: it ticks like a PHY
/// scrubbed without a restart, whose continuation re-armed its chain.
#[test]
fn phy_restarted_before_its_continuation_keeps_one_tick_chain() {
    let busy_over_ten_slots = |upset| {
        let (mut d, t) = upset_cell0_at_ul_tick(upset);
        let target = d.cells[0].primary_phy;
        let from = t + Nanos(SLOT_DURATION.0 / 2);
        d.engine.run_until(from);
        let before = phy(&d, target).busy_ns_total;
        d.engine.run_until(from + Nanos(SLOT_DURATION.0 * 10));
        phy(&d, target).busy_ns_total - before
    };
    let scrubbed = busy_over_ten_slots(Upset::Scrub);
    assert!(scrubbed > 0);
    assert_eq!(busy_over_ten_slots(Upset::KillRestartScrub), scrubbed);
}
