//! The paper's evaluation as a registry: one [`Experiment`] per table
//! or figure (DESIGN.md §4 is the index), with the seeds, durations,
//! rates and UE operating points fixed in each entry. Entries emit
//! rows; `contract` renders them and the `figures` binary prints.
//!
//! What every entry shares is written once here: the one-UE figure
//! deployment, a flow in either direction, "event at t, run to T", and
//! typed look-ups of what the run left behind.

mod ablations;
mod calibration;
mod figs;
mod fleet;
mod sections;

use crate::contract::{row, Band::*, Experiment};
use crate::{figure_cell, paper_ues, stress_cell, ue, BenchReport};
use slingshot::{Deployment, DeploymentBuilder};
use slingshot_ran::{AppServerNode, CellConfig, PhyNode, UeNode};
use slingshot_sim::time::TDD_CYCLE_SLOTS;
use slingshot_sim::{Nanos, NodeId, Sampler, SLOT_DURATION};
use slingshot_transport::{TcpReceiver, TcpSender, UdpCbrSource, UdpSink, UserApp};

/// Every experiment, in the paper's order; `figures` runs them in this
/// order and `FIGURES.json` lists them in it.
pub static REGISTRY: [Experiment; 20] = [
    figs::FIG3,
    figs::FIG8,
    figs::FIG9,
    figs::FIG10,
    figs::FIG11,
    figs::FIG12,
    sections::TABLE2,
    sections::SEC5,
    sections::SEC82,
    sections::SEC85,
    sections::SEC86,
    ablations::DETECTOR,
    ablations::STANDBY,
    ablations::MIGRATION_PATH,
    ablations::STATE_TRANSFER,
    ablations::TRANSPORT,
    ablations::MASSIVE_MIMO,
    fleet::AVAILABILITY,
    fleet::FABRIC_SCALE,
    calibration::BLER_MODEL,
];

/// RNTI of the UE at index `ue_idx` (the paper's three are 100–102).
const fn rnti(ue_idx: usize) -> u16 {
    100 + ue_idx as u16
}

const MS10: Nanos = Nanos::from_millis(10);

/// The single-RU Slingshot deployment every entry starts from, before
/// its UEs and whatever else it sets on the builder.
fn builder(seed: u64, cell: CellConfig) -> DeploymentBuilder {
    DeploymentBuilder::new().seed(seed).cell(cell)
}

/// The standard figure deployment: the figure cell, one UE at 22 dB.
fn one_ue(seed: u64) -> Deployment {
    builder(seed, figure_cell())
        .ue(ue("ue", rnti(0), 22.0))
        .build()
}

#[derive(Clone, Copy)]
enum Dir {
    Ul,
    Dl,
}

/// Attach a flow for UE `ue_idx`: `tx` at the UE for uplink, at the
/// server for downlink, `rx` at the other end.
fn add_flow(
    d: &mut Deployment,
    ue_idx: usize,
    dir: Dir,
    tx: Box<dyn UserApp>,
    rx: Box<dyn UserApp>,
) {
    let (ue_app, server_app) = match dir {
        Dir::Ul => (tx, rx),
        Dir::Dl => (rx, tx),
    };
    d.add_flow(ue_idx, rnti(ue_idx), ue_app, server_app);
}

/// A constant-bit-rate UDP flow of `pkt`-byte packets into `sink`.
fn add_udp(d: &mut Deployment, ue_idx: usize, dir: Dir, (bps, pkt): (u64, usize), sink: UdpSink) {
    let source = UdpCbrSource::new(bps, pkt, Nanos::ZERO);
    add_flow(d, ue_idx, dir, Box::new(source), Box::new(sink));
}

/// A sink binning what it receives at 10 ms from t = 0.
fn sink_10ms() -> UdpSink {
    UdpSink::new(Nanos::ZERO, MS10)
}

/// UE 0's uplink UDP flow into a 10 ms-binned sink: what most entries
/// load the cell with.
fn add_ul_udp(d: &mut Deployment, bps: u64, pkt: usize) {
    add_udp(d, 0, Dir::Ul, (bps, pkt), sink_10ms());
}

#[derive(Clone, Copy)]
enum Event {
    /// SIGKILL the primary PHY.
    Kill(Nanos),
    /// Ask Orion for a planned migration to the secondary.
    Planned(Nanos),
    None,
}

/// Stage `event`, then run to `end`.
fn run(d: &mut Deployment, event: Event, end: Nanos) {
    match event {
        Event::Kill(at) => d.kill_primary_at(at),
        Event::Planned(at) => d.planned_migration_at(at),
        Event::None => {}
    }
    d.engine.run_until(end);
}

fn node<T: 'static>(d: &Deployment, id: NodeId) -> &T {
    d.engine.node::<T>(id).expect("node of the asked type")
}

fn node_mut<T: 'static>(d: &mut Deployment, id: NodeId) -> &mut T {
    d.engine.node_mut::<T>(id).expect("node of the asked type")
}

/// The first app the server holds for UE `ue_idx`.
fn server_app<T: 'static>(d: &Deployment, ue_idx: usize) -> &T {
    let server: &AppServerNode = node(d, d.server);
    server
        .app(rnti(ue_idx), 0)
        .expect("server app of the asked type")
}

/// The first app on UE `ue_idx`.
fn ue_app<T: 'static>(d: &Deployment, ue_idx: usize) -> &T {
    let ue: &UeNode = node(d, d.ues[ue_idx]);
    ue.app(0).expect("UE app of the asked type")
}

/// The receiving end of UE 0's flow, added with [`add_flow`].
fn rx_app<T: 'static>(d: &Deployment, dir: Dir) -> &T {
    match dir {
        Dir::Ul => server_app(d, 0),
        Dir::Dl => ue_app(d, 0),
    }
}

/// Radio-link failures summed over every UE.
fn rlf_total(d: &Deployment) -> f64 {
    let rlfs = d.ues.iter().map(|id| node::<UeNode>(d, *id).rlf_count);
    rlfs.sum::<u64>() as f64
}

/// Uplink TTIs neither PHY processed, between the first and last one
/// either did (one uplink slot per TDD cycle).
fn dropped_ul_ttis(d: &Deployment) -> usize {
    let mut slots: Vec<u64> = Vec::new();
    for phy in [d.primary_phy, d.secondary_phy] {
        slots.extend(&node::<PhyNode>(d, phy).processed_ul_slots);
    }
    slots.sort_unstable();
    slots.dedup();
    let span = slots.last().expect("an uplink slot") - slots[0];
    let expected = span / TDD_CYCLE_SLOTS + 1;
    expected as usize - slots.len()
}

/// `values` as (t seconds, value) points, one per `bin` from t = 0.
fn timed(values: &[f64], bin: Nanos) -> impl Iterator<Item = (f64, f64)> + '_ {
    let step = bin.as_secs();
    values
        .iter()
        .enumerate()
        .map(move |(i, v)| (i as f64 * step, *v))
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

fn lowest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::MAX, f64::min)
}

/// A `Sampler` statistic in nanoseconds, as milliseconds.
fn ms(ns: Option<u64>) -> f64 {
    ns.expect("a non-empty sampler") as f64 / 1e6
}

/// A `Sampler` statistic in nanoseconds, as microseconds.
fn us(ns: Option<u64>) -> f64 {
    ns.expect("a non-empty sampler") as f64 / 1e3
}
