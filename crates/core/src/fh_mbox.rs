//! The in-switch fronthaul middlebox (paper §5) and in-switch RAN
//! failure detector (§5.2), written as a program against the
//! `slingshot-switch` match-action/register primitives.
//!
//! Data structures, exactly as in the paper (Fig. 5):
//!
//! - **ID directory** (match-action table): RU MAC → 8-bit RU id.
//! - **PHY directory** (match-action table): PHY MAC → 8-bit PHY id.
//! - **Address directory** (match-action table): PHY id → PHY MAC.
//! - **RU→PHY mapping** (register array, data-plane writable).
//! - **Migration request store** (register array): per-RU pending
//!   `migrate_on_slot` command (slot scalar + destination PHY id).
//! - **Failure-detector counters** (register array): per-PHY counter
//!   reset by each downlink fronthaul packet, incremented by generator
//!   timer packets; saturation at `n` triggers a failure notification.
//!
//! The indirection through 8-bit ids is the paper's key trick for a
//! data-plane-updatable mapping: a full MAC→MAC hash table cannot be
//! updated at line rate, but a 256-entry register array indexed by RU
//! id can (§5.1).

use slingshot_fronthaul::{peek_headers, Direction};
use slingshot_netsim::{EtherType, Frame, MacAddr};
use slingshot_sim::time::scalar_at_or_after;
use slingshot_sim::{Nanos, SlotId, TraceEventKind};
use slingshot_switch::{
    ExactTable, PipelineManifest, PktGenConfig, PortId, RegisterArray, SwitchAction, SwitchProgram,
};

use crate::ctl::{pack_migration_entry, unpack_migration_entry, CtlPacket};

/// Marker in the failure counter meaning "failure already reported";
/// prevents repeated notifications until the PHY's packets reappear.
const COUNTER_REPORTED: u64 = 0xFF;

/// Cap on queued-but-undrained trace events. The hosting node drains
/// after every `process`/`on_generator_tick` call, so the queue only
/// grows when the middlebox is driven directly (unit tests, benches);
/// the cap keeps those callers allocation-bounded.
const PENDING_TRACE_CAP: usize = 1024;

/// A trace event staged inside the switch program. `SwitchProgram`
/// callbacks have no engine context, so events queue here and the
/// hosting [`crate::SwitchNode`] drains them into the engine trace.
#[derive(Debug, Clone, Copy)]
pub struct PendingTraceEvent {
    pub kind: TraceEventKind,
    pub a: u64,
    pub b: u64,
    /// Slot carried by the triggering packet, if any (else the drain
    /// site stamps the slot derived from the current time).
    pub slot: Option<SlotId>,
}

/// One `migrate_on_slot` request store (§5.1, Fig. 5): the control
/// plane arms index `idx` with an 8-bit value and a boundary scalar,
/// and the first fronthaul packet stamped at or past the boundary
/// fires it — once — in the data plane.
struct OnSlotStore {
    /// idx → [`pack_migration_entry`]`(value, boundary)`; 0 = nothing
    /// pending.
    entries: RegisterArray,
    /// Ascending indexes holding a valid entry — a software-side index
    /// over the register array, like `enrolled_scan`, so `fire_all`
    /// touches only armed entries.
    armed: Vec<usize>,
}

impl OnSlotStore {
    fn new(name: &str) -> OnSlotStore {
        OnSlotStore {
            entries: RegisterArray::new(name, 256, 32),
            armed: Vec::new(),
        }
    }

    fn arm(&mut self, idx: usize, value: u8, boundary: u16) {
        self.entries
            .write(idx, pack_migration_entry(value, boundary));
        if let Err(at) = self.armed.binary_search(&idx) {
            self.armed.insert(at, idx);
        }
    }

    /// The armed-but-unfired request at `idx`: `(value, boundary)`.
    fn pending(&mut self, idx: usize) -> Option<(u8, u16)> {
        unpack_migration_entry(self.entries.read(idx))
    }

    fn disarm(&mut self, idx: usize) {
        self.entries.write(idx, 0);
        if let Ok(at) = self.armed.binary_search(&idx) {
            self.armed.remove(at);
        }
    }

    /// The value armed at `idx`, if a packet stamped `scalar` is at or
    /// past its boundary; the entry is consumed.
    fn fire(&mut self, idx: usize, scalar: u16) -> Option<u8> {
        let (value, boundary) = self.pending(idx)?;
        if !scalar_at_or_after(scalar, boundary) {
            return None;
        }
        self.disarm(idx);
        Some(value)
    }

    /// [`OnSlotStore::fire`] over every armed index, ascending:
    /// `(idx, value)` of each request that fired.
    fn fire_all(&mut self, scalar: u16) -> Vec<(usize, u8)> {
        let mut fired = Vec::new();
        let mut i = 0;
        while i < self.armed.len() {
            let idx = self.armed[i];
            match self.fire(idx, scalar) {
                // Firing removed `armed[i]`; the next index slid into it.
                Some(value) => fired.push((idx, value)),
                None => i += 1,
            }
        }
        fired
    }
}

/// The middlebox program state.
pub struct FhMbox {
    /// RU MAC → RU id.
    id_directory: ExactTable,
    /// PHY MAC → PHY id.
    phy_directory: ExactTable,
    /// PHY id → PHY MAC.
    address_directory: ExactTable,
    /// Plain L2 forwarding: MAC → egress port (RUs, PHYs, servers).
    port_table: ExactTable,
    /// RU id → active PHY id.
    ru_to_phy: RegisterArray,
    /// RU id → pending migration: destination PHY id.
    migration_store: OnSlotStore,
    /// UE index (RNTI low byte) → serving RU id. The per-UE analogue
    /// of `ru_to_phy`: a register array the data plane can re-point at
    /// a slot boundary, which is what makes network-initiated handover
    /// a Slingshot-style migration rather than a control-plane RPC.
    ue_directory: RegisterArray,
    /// UE index → pending handover: target RU id.
    handover_store: OnSlotStore,
    /// UE index → full RNTI (observability sidecar for trace events;
    /// the data plane itself only needs the 8-bit index).
    ue_rnti: Vec<u16>,
    /// RU id → pending standby install (spare-pool re-pairing): the
    /// granted spare's PHY id. At the boundary the spare's virtual-PHY
    /// mapping goes live in the directories and the PHY is enrolled in
    /// failure detection — the data-plane half of promoting a pooled
    /// spare to hot standby.
    standby_store: OnSlotStore,
    /// PHY id → missed-tick counter.
    fail_counters: RegisterArray,
    /// PHY id → enrolled in failure detection (1) or not (0).
    fail_enrolled: RegisterArray,
    /// PHY id → has emitted at least one downlink packet. The detector
    /// arms only after the first heartbeat, so a PHY that is still
    /// booting is not declared dead.
    fail_seen: RegisterArray,
    /// Ascending PHY ids with `fail_enrolled == 1` — a software-side
    /// index over the register array so the 9 µs generator tick scans
    /// only enrolled PHYs instead of the whole register space. Kept in
    /// lockstep with `fail_enrolled`; scan order (ascending) matches the
    /// full-array scan it replaces, so behavior is identical.
    enrolled_scan: Vec<usize>,
    /// Failure detector config (T, n).
    pub detector: PktGenConfig,
    /// Where failure notifications are sent (every L2-side Orion).
    notify_macs: Vec<MacAddr>,
    /// Per-PHY downlink heartbeat gap statistics (simulation-side
    /// observability, mirroring the paper's timestamp-and-mirror P4
    /// measurement of §8.6): (last arrival, max gap seen).
    pub dl_gap_stats: Vec<(Nanos, Nanos)>,
    /// Counters for observability.
    pub migrations_executed: u64,
    pub standby_installs: u64,
    pub handovers_executed: u64,
    pub dl_filtered: u64,
    pub failures_reported: u64,
    pub ctl_packets: u64,
    /// Trace events staged for the hosting node to drain (see
    /// [`PendingTraceEvent`]).
    pending_trace: Vec<PendingTraceEvent>,
    /// Events discarded because `pending_trace` hit its cap (only
    /// possible when nothing drains the queue).
    pub trace_overflow: u64,
}

impl FhMbox {
    /// The well-known MAC every fronthaul middlebox answers control
    /// packets on. Shared by the partitions of a multi-switch build: a
    /// control frame addressed here is handled by the sender's own
    /// switch, which is also the switch of every cell the sender's
    /// control packets concern, since no frame crosses switches.
    pub const SWITCH_MAC: MacAddr = MacAddr([0x02, 0x53, 0x57, 0, 0, 1]);

    pub fn new(detector: PktGenConfig, notify_mac: MacAddr) -> FhMbox {
        FhMbox::with_notify_targets(detector, vec![notify_mac])
    }

    /// A middlebox notifying several L2-side Orions (multi-L2
    /// deployments: one notification packet per registered target).
    pub fn with_notify_targets(detector: PktGenConfig, notify_macs: Vec<MacAddr>) -> FhMbox {
        FhMbox {
            id_directory: ExactTable::new("id_directory", 256, 48, 8),
            phy_directory: ExactTable::new("phy_directory", 256, 48, 8),
            address_directory: ExactTable::new("address_directory", 256, 8, 48),
            port_table: ExactTable::new("port_table", 1024, 48, 16),
            ru_to_phy: RegisterArray::new("ru_to_phy", 256, 8),
            migration_store: OnSlotStore::new("migration_store"),
            standby_store: OnSlotStore::new("standby_store"),
            ue_directory: RegisterArray::new("ue_directory", 256, 8),
            handover_store: OnSlotStore::new("handover_store"),
            ue_rnti: vec![0; 256],
            enrolled_scan: Vec::new(),
            fail_counters: RegisterArray::new("fail_counters", 256, 8),
            fail_enrolled: RegisterArray::new("fail_enrolled", 256, 1),
            fail_seen: RegisterArray::new("fail_seen", 256, 1),
            detector,
            notify_macs,
            dl_gap_stats: vec![(Nanos::ZERO, Nanos::ZERO); 256],
            migrations_executed: 0,
            standby_installs: 0,
            handovers_executed: 0,
            dl_filtered: 0,
            failures_reported: 0,
            ctl_packets: 0,
            pending_trace: Vec::new(),
            trace_overflow: 0,
        }
    }

    fn stage_trace(&mut self, kind: TraceEventKind, a: u64, b: u64, slot: Option<SlotId>) {
        if self.pending_trace.len() >= PENDING_TRACE_CAP {
            self.trace_overflow += 1;
            return;
        }
        self.pending_trace
            .push(PendingTraceEvent { kind, a, b, slot });
    }

    /// Take all staged trace events (called by the hosting node after
    /// every program callback).
    pub fn drain_trace(&mut self) -> Vec<PendingTraceEvent> {
        std::mem::take(&mut self.pending_trace)
    }

    /// Control-plane installation of an RU (at deployment time).
    pub fn install_ru(&mut self, ru_id: u8, mac: MacAddr, port: PortId, initial_phy: u8) {
        self.id_directory
            .insert(mac.as_u64(), ru_id as u64)
            .unwrap();
        self.port_table.insert(mac.as_u64(), port.0 as u64).unwrap();
        self.ru_to_phy.write(ru_id as usize, initial_phy as u64);
    }

    /// Control-plane installation of a PHY server.
    pub fn install_phy(&mut self, phy_id: u8, mac: MacAddr, port: PortId) {
        self.phy_directory
            .insert(mac.as_u64(), phy_id as u64)
            .unwrap();
        self.address_directory
            .insert(phy_id as u64, mac.as_u64())
            .unwrap();
        self.port_table.insert(mac.as_u64(), port.0 as u64).unwrap();
    }

    /// Enroll a PHY in failure detection (a PHY that is expected to be
    /// emitting heartbeats — both primary and hot standby).
    pub fn enroll_failure_detection(&mut self, phy_id: u8) {
        self.fail_enrolled.write(phy_id as usize, 1);
        self.fail_counters.write(phy_id as usize, 0);
        if let Err(at) = self.enrolled_scan.binary_search(&(phy_id as usize)) {
            self.enrolled_scan.insert(at, phy_id as usize);
        }
    }

    /// PHY ids enrolled in failure detection, in the detector's
    /// (ascending) scan order.
    pub fn enrolled_phys(&self) -> &[usize] {
        &self.enrolled_scan
    }

    /// Where failure notifications go, in send order.
    pub fn notify_targets(&self) -> &[MacAddr] {
        &self.notify_macs
    }

    /// Plain (non-fronthaul) host installation: servers, Orion nodes.
    pub fn install_host(&mut self, mac: MacAddr, port: PortId) {
        self.port_table.insert(mac.as_u64(), port.0 as u64).unwrap();
    }

    /// Maximum observed inter-packet gap in a PHY's downlink stream.
    pub fn max_dl_gap(&self, phy_id: u8) -> Nanos {
        self.dl_gap_stats[phy_id as usize].1
    }

    /// Control-plane remap: write the RU→PHY mapping directly, as a
    /// table-update RPC would — *not* aligned to any slot boundary.
    /// Used by the migration-path ablation; the real Slingshot path is
    /// the data-plane migration request store.
    pub fn control_plane_remap(&mut self, ru_id: u8, phy_id: u8) {
        let old = self.ru_to_phy.read(ru_id as usize);
        self.ru_to_phy.write(ru_id as usize, phy_id as u64);
        self.migration_store.disarm(ru_id as usize);
        self.stage_trace(
            TraceEventKind::MapFlip,
            ru_id as u64,
            (old << 16) | phy_id as u64,
            None,
        );
    }

    /// The currently active PHY for an RU.
    pub fn active_phy(&mut self, ru_id: u8) -> u8 {
        self.ru_to_phy.read(ru_id as usize) as u8
    }

    /// Control-plane installation of a UE's serving-cell entry (at
    /// deployment time, or after a completed attach).
    pub fn install_ue(&mut self, rnti: u16, serving_ru: u8) {
        let idx = (rnti & 0xFF) as usize;
        self.ue_rnti[idx] = rnti;
        self.ue_directory.write(idx, serving_ru as u64);
    }

    /// The RU currently serving a UE per the switch's UE directory.
    pub fn serving_ru(&mut self, rnti: u16) -> u8 {
        self.ue_directory.read((rnti & 0xFF) as usize) as u8
    }

    /// The armed-but-unexecuted handover for a UE, if any:
    /// `(target_ru, slot_scalar)`.
    pub fn pending_handover(&mut self, rnti: u16) -> Option<(u8, u16)> {
        self.handover_store.pending((rnti & 0xFF) as usize)
    }

    fn forward_by_table(&mut self, frame: Frame) -> Vec<SwitchAction> {
        match self.port_table.lookup(frame.dst.as_u64()) {
            Some(port) => vec![SwitchAction::Forward {
                port: PortId(port as u16),
                frame,
            }],
            None => vec![SwitchAction::Drop],
        }
    }

    /// Run the three request stores against a packet of `ru_id` stamped
    /// `scalar` and execute, in the data plane, whatever it fires
    /// (§5.1): the RU's migration, then the RU's standby install, then
    /// every armed handover — handovers are keyed by UE, so any cell's
    /// packet at or past the boundary re-points them.
    fn fire_on_slot(&mut self, ru_id: u8, scalar: u16) {
        let ru = ru_id as usize;
        let slot = Some(SlotId::from_scalar(scalar));
        if let Some(dest) = self.migration_store.fire(ru, scalar) {
            let old = self.ru_to_phy.read(ru);
            self.ru_to_phy.write(ru, dest as u64);
            self.migrations_executed += 1;
            self.stage_trace(
                TraceEventKind::MapFlip,
                ru_id as u64,
                (old << 16) | dest as u64,
                slot,
            );
        }
        // The RU→PHY map is NOT touched by a standby install — the
        // spare comes up as hot standby, its downlink filtered until a
        // later migration makes it active.
        if let Some(phy) = self.standby_store.fire(ru, scalar) {
            let mac = MacAddr::for_phy(phy);
            // ExactTable::insert overwrites on duplicate keys, so
            // re-installing a scrubbed ex-primary is idempotent.
            let _ = self.phy_directory.insert(mac.as_u64(), phy as u64);
            let _ = self.address_directory.insert(phy as u64, mac.as_u64());
            self.enroll_failure_detection(phy);
            // A recycled ex-primary carries `fail_seen` from its previous
            // life; clear it so the detector re-arms only on the first
            // heartbeat of the new incarnation (no false positive while
            // the replayed init-FAPI is still in flight).
            self.fail_seen.write(phy as usize, 0);
            self.standby_installs += 1;
        }
        for (idx, target) in self.handover_store.fire_all(scalar) {
            let old = self.ue_directory.read(idx);
            self.ue_directory.write(idx, target as u64);
            self.handovers_executed += 1;
            self.stage_trace(
                TraceEventKind::HandoverFlip,
                self.ue_rnti[idx] as u64,
                (old << 16) | target as u64,
                slot,
            );
        }
    }

    /// The resource manifest of this pipeline, for the §8.6 estimate.
    pub fn manifest(rus: u32, phys: u32) -> PipelineManifest {
        PipelineManifest::default()
            .table("id_directory", rus, 48, 8)
            .table("phy_directory", phys, 48, 8)
            .table("address_directory", phys, 8, 48)
            .table("port_table", rus + phys + 8, 48, 16)
            .register("ru_to_phy", rus, 8, 1)
            .register("migration_store", rus, 32, 1)
            .register("standby_store", rus, 32, 1)
            .register("ue_directory", 256, 8, 1)
            .register("handover_store", 256, 32, 1)
            .register("fail_counters", phys, 8, 1)
            .register("fail_enrolled", phys, 1, 1)
            .register("fail_seen", phys, 1, 1)
            // Branch points: direction, ethertype, migration-match,
            // handover-match, DL-filter, counter-saturation, notify
            // path.
            .with_gateways(29)
    }
}

impl SwitchProgram for FhMbox {
    fn process(&mut self, now: Nanos, _ingress: PortId, frame: Frame) -> Vec<SwitchAction> {
        match frame.ethertype {
            EtherType::SlingshotCtl if frame.dst == FhMbox::SWITCH_MAC => {
                self.ctl_packets += 1;
                match CtlPacket::from_bytes(&frame.payload) {
                    Some(CtlPacket::MigrateOnSlot {
                        ru_id,
                        dest_phy_id,
                        slot_scalar,
                    }) => {
                        self.migration_store
                            .arm(ru_id as usize, dest_phy_id, slot_scalar);
                        self.stage_trace(
                            TraceEventKind::MigrateArmed,
                            ru_id as u64,
                            ((dest_phy_id as u64) << 16) | slot_scalar as u64,
                            Some(SlotId::from_scalar(slot_scalar)),
                        );
                    }
                    Some(CtlPacket::InstallStandby {
                        ru_id,
                        phy_id,
                        slot_scalar,
                    }) => {
                        // Stage the spare's virtual-PHY install; executed
                        // at the slot boundary by the data plane, same
                        // mechanism as migrate_on_slot.
                        self.standby_store.arm(ru_id as usize, phy_id, slot_scalar);
                    }
                    Some(CtlPacket::HandoverOnSlot {
                        rnti,
                        target_ru,
                        slot_scalar,
                        ..
                    }) => {
                        // Stage the UE-directory re-point; executed at
                        // the slot boundary by the data plane, same
                        // mechanism as migrate_on_slot.
                        let idx = (rnti & 0xFF) as usize;
                        self.ue_rnti[idx] = rnti;
                        self.handover_store.arm(idx, target_ru, slot_scalar);
                        self.stage_trace(
                            TraceEventKind::HandoverArmed,
                            rnti as u64,
                            ((target_ru as u64) << 16) | slot_scalar as u64,
                            Some(SlotId::from_scalar(slot_scalar)),
                        );
                    }
                    _ => {}
                }
                vec![SwitchAction::Drop]
            }
            EtherType::Ecpri => {
                let Some((_, hdr)) = peek_headers(&frame.payload) else {
                    return vec![SwitchAction::Drop];
                };
                let scalar = hdr.slot_scalar();
                match hdr.direction {
                    Direction::Uplink => {
                        // RU → PHY: translate the virtual PHY address.
                        let Some(ru_id) = self.id_directory.lookup(frame.src.as_u64()) else {
                            return vec![SwitchAction::Drop];
                        };
                        let ru_id = ru_id as u8;
                        self.fire_on_slot(ru_id, scalar);
                        let phy_id = self.ru_to_phy.read(ru_id as usize);
                        let Some(mac) = self.address_directory.lookup(phy_id) else {
                            return vec![SwitchAction::Drop];
                        };
                        let mut f = frame;
                        f.dst = MacAddr::from_u64(mac);
                        self.forward_by_table(f)
                    }
                    Direction::Downlink => {
                        // PHY → RU: reset the heartbeat counter, run the
                        // migration matcher, and filter inactive PHYs.
                        let Some(phy_id) = self.phy_directory.lookup(frame.src.as_u64()) else {
                            return vec![SwitchAction::Drop];
                        };
                        self.fail_counters.write(phy_id as usize, 0);
                        if self.fail_seen.read(phy_id as usize) == 0
                            && self.fail_enrolled.read(phy_id as usize) == 1
                        {
                            // First heartbeat from an enrolled PHY arms
                            // its detector.
                            self.stage_trace(
                                TraceEventKind::DetectorArmed,
                                phy_id,
                                0,
                                Some(SlotId::from_scalar(scalar)),
                            );
                        }
                        self.fail_seen.write(phy_id as usize, 1);
                        {
                            let (last, max_gap) = &mut self.dl_gap_stats[phy_id as usize];
                            if last.0 > 0 {
                                let gap = now.saturating_sub(*last);
                                if gap > *max_gap {
                                    *max_gap = gap;
                                }
                            }
                            *last = now;
                        }
                        let Some(ru_id) = self.id_directory.lookup(frame.dst.as_u64()) else {
                            return vec![SwitchAction::Drop];
                        };
                        let ru_id = ru_id as u8;
                        self.fire_on_slot(ru_id, scalar);
                        let active = self.ru_to_phy.read(ru_id as usize);
                        if active != phy_id {
                            // The hot standby's downlink never reaches
                            // the RU (§5: "blocking downlink
                            // control-plane packets from a hot-standby
                            // secondary PHY").
                            self.dl_filtered += 1;
                            return vec![SwitchAction::Drop];
                        }
                        self.forward_by_table(frame)
                    }
                }
            }
            // Everything else (Orion UDP, user plane): plain forwarding.
            _ => self.forward_by_table(frame),
        }
    }

    fn on_generator_tick(&mut self, _now: Nanos) -> Vec<SwitchAction> {
        let n = self.detector.ticks_per_period as u64;
        let mut out = Vec::new();
        for i in 0..self.enrolled_scan.len() {
            let phy = self.enrolled_scan[i];
            if self.fail_seen.read(phy) == 0 {
                continue;
            }
            let c = self.fail_counters.read(phy);
            if c == COUNTER_REPORTED {
                continue;
            }
            let c = c + 1;
            if c >= n.min(COUNTER_REPORTED - 1) {
                // Saturated: the timer packet is reformatted into a
                // failure notification (§5.2.2). The trace event carries
                // the last heartbeat's arrival time so detection latency
                // (= now − last heartbeat, §5.2) is derivable from the
                // trace alone.
                self.fail_counters.write(phy, COUNTER_REPORTED);
                self.failures_reported += 1;
                let last_heartbeat = self.dl_gap_stats[phy].0;
                self.stage_trace(
                    TraceEventKind::DetectorSaturated,
                    phy as u64,
                    last_heartbeat.0,
                    None,
                );
                let pkt = CtlPacket::FailureNotify { phy_id: phy as u8 };
                for (i, mac) in self.notify_macs.clone().into_iter().enumerate() {
                    let frame = Frame::new(
                        mac,
                        FhMbox::SWITCH_MAC,
                        EtherType::SlingshotCtl,
                        pkt.to_bytes(),
                    );
                    self.stage_trace(
                        TraceEventKind::FailureNotifySent,
                        phy as u64,
                        i as u64,
                        None,
                    );
                    out.extend(self.forward_by_table(frame));
                }
            } else {
                self.fail_counters.write(phy, c);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use slingshot_fronthaul::{fh_header, CPlaneMsg, FhMessage, UPlaneMsg};
    use slingshot_sim::SlotId;
    use slingshot_switch::estimate;

    fn mbox() -> FhMbox {
        let mut m = FhMbox::new(PktGenConfig::paper_default(), MacAddr::for_l2(0));
        m.install_ru(0, MacAddr::for_ru(0), PortId(1), 1);
        m.install_phy(1, MacAddr::for_phy(1), PortId(2));
        m.install_phy(2, MacAddr::for_phy(2), PortId(3));
        m.install_host(MacAddr::for_l2(0), PortId(4));
        m
    }

    fn ul_frame(slot: SlotId) -> Frame {
        ul_frame_from(0, slot)
    }

    fn ul_frame_from(ru: u8, slot: SlotId) -> Frame {
        let msg = FhMessage::UPlane(UPlaneMsg {
            hdr: fh_header(slingshot_fronthaul::Direction::Uplink, slot, 0, ru),
            start_prb: 0,
            prbs: vec![],
        });
        Frame::new(
            MacAddr::virtual_phy(ru),
            MacAddr::for_ru(ru),
            EtherType::Ecpri,
            msg.to_bytes(),
        )
    }

    fn dl_frame(from_phy: u8, slot: SlotId) -> Frame {
        let msg = FhMessage::CPlane(CPlaneMsg {
            hdr: fh_header(slingshot_fronthaul::Direction::Downlink, slot, 0, 0),
            sections: vec![],
        });
        Frame::new(
            MacAddr::for_ru(0),
            MacAddr::for_phy(from_phy),
            EtherType::Ecpri,
            msg.to_bytes(),
        )
    }

    fn slot(abs: u64) -> SlotId {
        SlotId::from_absolute(abs)
    }

    fn fwd_port(actions: &[SwitchAction]) -> Option<PortId> {
        actions.first().and_then(SwitchAction::forward_to)
    }

    #[test]
    fn uplink_translated_to_active_phy() {
        let mut m = mbox();
        let acts = m.process(Nanos(0), PortId(1), ul_frame(slot(10)));
        assert_eq!(fwd_port(&acts), Some(PortId(2)));
        match &acts[0] {
            SwitchAction::Forward { frame, .. } => {
                assert_eq!(frame.dst, MacAddr::for_phy(1), "virtual address rewritten");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn downlink_from_standby_is_filtered() {
        let mut m = mbox();
        let acts = m.process(Nanos(0), PortId(3), dl_frame(2, slot(10)));
        assert_eq!(acts, vec![SwitchAction::Drop]);
        assert_eq!(m.dl_filtered, 1);
        // Active PHY's downlink passes.
        let acts = m.process(Nanos(0), PortId(2), dl_frame(1, slot(10)));
        assert_eq!(fwd_port(&acts), Some(PortId(1)));
    }

    #[test]
    fn migration_executes_exactly_at_boundary() {
        let mut m = mbox();
        // Command: migrate RU 0 to PHY 2 at slot 100.
        let cmd = CtlPacket::MigrateOnSlot {
            ru_id: 0,
            dest_phy_id: 2,
            slot_scalar: 100,
        };
        m.process(
            Nanos(0),
            PortId(4),
            Frame::new(
                FhMbox::SWITCH_MAC,
                MacAddr::for_l2(0),
                EtherType::SlingshotCtl,
                cmd.to_bytes(),
            ),
        );
        // Slot 99: still the old PHY.
        let acts = m.process(Nanos(0), PortId(1), ul_frame(slot(99)));
        match &acts[0] {
            SwitchAction::Forward { frame, .. } => assert_eq!(frame.dst, MacAddr::for_phy(1)),
            _ => panic!(),
        }
        assert_eq!(m.migrations_executed, 0);
        // Slot 100: remapped in the data plane by this very packet.
        let acts = m.process(Nanos(0), PortId(1), ul_frame(slot(100)));
        match &acts[0] {
            SwitchAction::Forward { frame, .. } => assert_eq!(frame.dst, MacAddr::for_phy(2)),
            _ => panic!(),
        }
        assert_eq!(m.migrations_executed, 1);
        assert_eq!(m.active_phy(0), 2);
        // Old PHY's downlink now filtered; new PHY's passes.
        assert_eq!(
            m.process(Nanos(0), PortId(2), dl_frame(1, slot(101))),
            vec![SwitchAction::Drop]
        );
        assert!(fwd_port(&m.process(Nanos(0), PortId(3), dl_frame(2, slot(101)))).is_some());
    }

    #[test]
    fn migration_triggered_by_downlink_too() {
        let mut m = mbox();
        let cmd = CtlPacket::MigrateOnSlot {
            ru_id: 0,
            dest_phy_id: 2,
            slot_scalar: 50,
        };
        m.process(
            Nanos(0),
            PortId(4),
            Frame::new(
                FhMbox::SWITCH_MAC,
                MacAddr::ZERO,
                EtherType::SlingshotCtl,
                cmd.to_bytes(),
            ),
        );
        // A downlink packet from the *new* PHY for slot 50 executes the
        // migration even before any uplink packet arrives.
        let acts = m.process(Nanos(0), PortId(3), dl_frame(2, slot(50)));
        assert!(fwd_port(&acts).is_some());
        assert_eq!(m.active_phy(0), 2);
    }

    #[test]
    fn migration_wraps_across_frame_epoch() {
        let mut m = mbox();
        let cmd = CtlPacket::MigrateOnSlot {
            ru_id: 0,
            dest_phy_id: 2,
            slot_scalar: 2, // just after the 5120-scalar wrap
        };
        m.process(
            Nanos(0),
            PortId(4),
            Frame::new(
                FhMbox::SWITCH_MAC,
                MacAddr::ZERO,
                EtherType::SlingshotCtl,
                cmd.to_bytes(),
            ),
        );
        // Slot scalar 5118 (= before the wrap) must NOT trigger.
        let acts = m.process(Nanos(0), PortId(1), ul_frame(slot(5118)));
        match &acts[0] {
            SwitchAction::Forward { frame, .. } => assert_eq!(frame.dst, MacAddr::for_phy(1)),
            _ => panic!(),
        }
        // Scalar 3 (after wrap) triggers.
        let acts = m.process(Nanos(0), PortId(1), ul_frame(slot(5120 + 3)));
        match &acts[0] {
            SwitchAction::Forward { frame, .. } => assert_eq!(frame.dst, MacAddr::for_phy(2)),
            _ => panic!(),
        }
    }

    #[test]
    fn failure_detector_fires_after_n_ticks() {
        let mut m = mbox();
        m.enroll_failure_detection(1);
        let n = m.detector.ticks_per_period;
        // Before the first heartbeat the detector stays disarmed (a
        // booting PHY must not be declared dead).
        for _ in 0..3 * n {
            assert!(m.on_generator_tick(Nanos(0)).is_empty());
        }
        assert_eq!(m.failures_reported, 0);
        // Healthy: packets keep resetting the counter.
        for _ in 0..3 * n {
            m.process(Nanos(0), PortId(2), dl_frame(1, slot(1)));
            assert!(m.on_generator_tick(Nanos(0)).is_empty());
        }
        // PHY dies: counter saturates after n ticks.
        let mut notified = Vec::new();
        for _ in 0..n {
            notified.extend(m.on_generator_tick(Nanos(0)));
        }
        assert_eq!(m.failures_reported, 1);
        assert_eq!(notified.len(), 1);
        match &notified[0] {
            SwitchAction::Forward { frame, .. } => {
                assert_eq!(frame.dst, MacAddr::for_l2(0));
                assert_eq!(
                    CtlPacket::from_bytes(&frame.payload),
                    Some(CtlPacket::FailureNotify { phy_id: 1 })
                );
            }
            _ => panic!("expected notification"),
        }
        // No repeated notifications while still dead.
        for _ in 0..3 * n {
            assert!(m.on_generator_tick(Nanos(0)).is_empty());
        }
        // PHY comes back: counter resets, detection re-arms.
        m.process(Nanos(0), PortId(2), dl_frame(1, slot(2)));
        for _ in 0..n {
            let _ = m.on_generator_tick(Nanos(0));
        }
        assert_eq!(m.failures_reported, 2);
    }

    #[test]
    fn detector_saturates_at_exactly_n_ticks() {
        // The paper's configuration: T = 450 µs emulated by n = 50
        // ticks of 9 µs. Saturation must happen on the 50th tick after
        // the last heartbeat — not the 49th, not the 51st.
        let mut m = mbox();
        let cfg = m.detector;
        assert_eq!(cfg.ticks_per_period, 50);
        assert_eq!(
            Nanos(cfg.tick_interval().0 * cfg.ticks_per_period as u64),
            Nanos::from_micros(450)
        );
        m.enroll_failure_detection(1);
        m.process(Nanos(0), PortId(2), dl_frame(1, slot(1)));
        for tick in 1..cfg.ticks_per_period {
            assert!(
                m.on_generator_tick(Nanos(0)).is_empty(),
                "notified early at tick {tick}"
            );
        }
        assert_eq!(m.failures_reported, 0);
        let out = m.on_generator_tick(Nanos(0));
        assert_eq!(m.failures_reported, 1, "must saturate exactly at n");
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn detector_reset_race_with_inflight_packet() {
        // A heartbeat that lands one tick before saturation must fully
        // reset the counter: the next notification needs n more ticks,
        // not one.
        let mut m = mbox();
        let n = m.detector.ticks_per_period;
        m.enroll_failure_detection(1);
        m.process(Nanos(0), PortId(2), dl_frame(1, slot(1)));
        for _ in 0..n - 1 {
            assert!(m.on_generator_tick(Nanos(0)).is_empty());
        }
        // The in-flight packet arrives with the counter at n-1.
        m.process(Nanos(0), PortId(2), dl_frame(1, slot(2)));
        for _ in 0..n - 1 {
            assert!(m.on_generator_tick(Nanos(0)).is_empty());
        }
        assert_eq!(m.failures_reported, 0, "reset must win the race");
        assert!(!m.on_generator_tick(Nanos(0)).is_empty());
        assert_eq!(m.failures_reported, 1);
        // The mirror race: a packet that was in flight when the counter
        // saturated arrives *after* the notification. It clears the
        // reported marker, so a subsequent outage is detected afresh
        // after n ticks (and not a single tick).
        m.process(Nanos(0), PortId(2), dl_frame(1, slot(3)));
        for _ in 0..n - 1 {
            assert!(m.on_generator_tick(Nanos(0)).is_empty());
        }
        assert_eq!(m.failures_reported, 1);
        assert!(!m.on_generator_tick(Nanos(0)).is_empty());
        assert_eq!(m.failures_reported, 2);
    }

    #[test]
    fn standby_install_executes_at_boundary() {
        let mut m = mbox();
        // PHY 3 is a pooled spare: the switch knows its port (plain
        // host) but it has no virtual-PHY identity yet.
        m.install_host(MacAddr::for_phy(3), PortId(5));
        assert_eq!(
            m.process(Nanos(0), PortId(5), dl_frame(3, slot(10))),
            vec![SwitchAction::Drop],
            "un-installed spare's fronthaul is unknown-source dropped"
        );
        assert_eq!(m.dl_filtered, 0);
        let cmd = CtlPacket::InstallStandby {
            ru_id: 0,
            phy_id: 3,
            slot_scalar: 100,
        };
        m.process(
            Nanos(0),
            PortId(4),
            Frame::new(
                FhMbox::SWITCH_MAC,
                MacAddr::ZERO,
                EtherType::SlingshotCtl,
                cmd.to_bytes(),
            ),
        );
        // Before the boundary nothing is installed.
        m.process(Nanos(0), PortId(1), ul_frame(slot(99)));
        assert_eq!(m.standby_installs, 0);
        // An uplink packet at the boundary slot executes the install in
        // the data plane.
        m.process(Nanos(0), PortId(1), ul_frame(slot(100)));
        assert_eq!(m.standby_installs, 1);
        // The spare now has a virtual-PHY identity: its downlink is
        // recognized (and standby-filtered, since RU 0 is still active
        // on PHY 1), and the failure detector is enrolled.
        assert_eq!(
            m.process(Nanos(0), PortId(5), dl_frame(3, slot(101))),
            vec![SwitchAction::Drop]
        );
        assert_eq!(m.dl_filtered, 1, "now filtered as hot standby, not unknown");
        // Active mapping untouched — the spare is standby, not primary.
        assert_eq!(m.active_phy(0), 1);
        // Heartbeats arm its detector; silence then saturates it.
        let n = m.detector.ticks_per_period;
        for _ in 0..n {
            let _ = m.on_generator_tick(Nanos(0));
        }
        assert_eq!(m.failures_reported, 1, "enrolled spare is monitored");
    }

    #[test]
    fn handover_executes_exactly_at_boundary() {
        let mut m = mbox();
        m.install_ue(100, 0);
        assert_eq!(m.serving_ru(100), 0);
        let cmd = CtlPacket::HandoverOnSlot {
            rnti: 100,
            source_ru: 0,
            target_ru: 1,
            slot_scalar: 200,
        };
        m.process(
            Nanos(0),
            PortId(4),
            Frame::new(
                FhMbox::SWITCH_MAC,
                MacAddr::ZERO,
                EtherType::SlingshotCtl,
                cmd.to_bytes(),
            ),
        );
        assert_eq!(m.pending_handover(100), Some((1, 200)));
        // Before the boundary the directory is untouched.
        m.process(Nanos(0), PortId(1), ul_frame(slot(199)));
        assert_eq!(m.serving_ru(100), 0);
        assert_eq!(m.handovers_executed, 0);
        // The first fronthaul packet at/after the boundary executes the
        // re-point in the data plane.
        m.process(Nanos(0), PortId(1), ul_frame(slot(200)));
        assert_eq!(m.serving_ru(100), 1);
        assert_eq!(m.handovers_executed, 1);
        assert_eq!(m.pending_handover(100), None);
        // Armed + flip trace events staged with the full RNTI.
        let kinds: Vec<(TraceEventKind, u64, u64)> = m
            .drain_trace()
            .into_iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    TraceEventKind::HandoverArmed | TraceEventKind::HandoverFlip
                )
            })
            .map(|e| (e.kind, e.a, e.b))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (TraceEventKind::HandoverArmed, 100, (1 << 16) | 200),
                (TraceEventKind::HandoverFlip, 100, 1),
            ]
        );
    }

    #[test]
    fn handover_wraps_across_frame_epoch() {
        let mut m = mbox();
        m.install_ue(7, 1);
        let cmd = CtlPacket::HandoverOnSlot {
            rnti: 7,
            source_ru: 1,
            target_ru: 0,
            slot_scalar: 3,
        };
        m.process(
            Nanos(0),
            PortId(4),
            Frame::new(
                FhMbox::SWITCH_MAC,
                MacAddr::ZERO,
                EtherType::SlingshotCtl,
                cmd.to_bytes(),
            ),
        );
        // Scalar 5118 is *before* the wrapped boundary: no flip.
        m.process(Nanos(0), PortId(1), ul_frame(slot(5118)));
        assert_eq!(m.serving_ru(7), 1);
        // Scalar 4 (after the wrap) flips.
        m.process(Nanos(0), PortId(1), ul_frame(slot(5120 + 4)));
        assert_eq!(m.serving_ru(7), 0);
    }

    #[test]
    fn on_slot_requests_fire_once_at_their_boundary() {
        type Row = (&'static str, fn(u16) -> CtlPacket, fn(&FhMbox) -> u64, bool);
        let rows: [Row; 3] = [
            (
                "migrate",
                |slot_scalar| CtlPacket::MigrateOnSlot {
                    ru_id: 0,
                    dest_phy_id: 2,
                    slot_scalar,
                },
                |m| m.migrations_executed,
                true,
            ),
            (
                "standby",
                |slot_scalar| CtlPacket::InstallStandby {
                    ru_id: 0,
                    phy_id: 3,
                    slot_scalar,
                },
                |m| m.standby_installs,
                true,
            ),
            (
                "handover",
                |slot_scalar| CtlPacket::HandoverOnSlot {
                    rnti: 100,
                    source_ru: 0,
                    target_ru: 1,
                    slot_scalar,
                },
                |m| m.handovers_executed,
                false,
            ),
        ];
        for (name, cmd, fired, ru_keyed) in rows {
            let mut m = mbox();
            m.install_ru(1, MacAddr::for_ru(1), PortId(6), 1);
            m.install_ue(100, 0);
            let arm = |m: &mut FhMbox, scalar: u16| {
                let frame = Frame::new(
                    FhMbox::SWITCH_MAC,
                    MacAddr::ZERO,
                    EtherType::SlingshotCtl,
                    cmd(scalar).to_bytes(),
                );
                m.process(Nanos(0), PortId(4), frame);
            };
            // Armed during absolute slot 5118 for scalar 2, just past
            // the 5120-scalar wrap.
            m.process(Nanos(0), PortId(1), ul_frame(slot(5118)));
            arm(&mut m, 2);
            for abs in [5119, 5120, 5121] {
                m.process(Nanos(0), PortId(1), ul_frame(slot(abs)));
                m.process(Nanos(0), PortId(2), dl_frame(1, slot(abs)));
                assert_eq!(fired(&m), 0, "{name} fired early at {abs}");
            }
            // Another cell's packet at the boundary fires a UE-keyed
            // request but never an RU-keyed one.
            m.process(Nanos(0), PortId(6), ul_frame_from(1, slot(5122)));
            assert_eq!(fired(&m), u64::from(!ru_keyed), "{name} on RU 1's packet");
            m.process(Nanos(0), PortId(1), ul_frame(slot(5122)));
            assert_eq!(fired(&m), 1, "{name} at its boundary");
            // Consumed: later packets do not fire it again.
            m.process(Nanos(0), PortId(1), ul_frame(slot(5123)));
            m.process(Nanos(0), PortId(2), dl_frame(1, slot(5123)));
            assert_eq!(fired(&m), 1, "{name} fired twice");
            // A re-arm after firing works, from the downlink arm too.
            arm(&mut m, 10);
            m.process(Nanos(0), PortId(2), dl_frame(1, slot(5120 + 9)));
            assert_eq!(fired(&m), 1, "{name} re-arm fired early");
            m.process(Nanos(0), PortId(2), dl_frame(1, slot(5120 + 10)));
            assert_eq!(fired(&m), 2, "{name} re-arm");
        }
    }

    #[test]
    fn unenrolled_phy_not_monitored() {
        // PHYs 1 and 2 are installed but never enrolled: their silence
        // is not a failure.
        let mut m = mbox();
        assert!(m.enrolled_phys().is_empty());
        for _ in 0..200 {
            assert!(m.on_generator_tick(Nanos(0)).is_empty());
        }
        assert_eq!(m.failures_reported, 0);
    }

    #[test]
    fn unknown_sources_dropped() {
        let mut m = mbox();
        let mut f = ul_frame(slot(1));
        f.src = MacAddr([9; 6]);
        assert_eq!(m.process(Nanos(0), PortId(9), f), vec![SwitchAction::Drop]);
    }

    #[test]
    fn non_fronthaul_traffic_forwarded_plain() {
        let mut m = mbox();
        let f = Frame::new(
            MacAddr::for_l2(0),
            MacAddr::for_phy(1),
            EtherType::Ipv4,
            Bytes::from_static(b"orion udp"),
        );
        assert_eq!(
            fwd_port(&m.process(Nanos(0), PortId(2), f)),
            Some(PortId(4))
        );
    }

    #[test]
    fn resources_fit_at_256_rus() {
        let usage = estimate(&FhMbox::manifest(256, 256));
        assert!(usage.fits(), "{usage:?}");
        // Paper §8.6 scale: each resource in single-digit to low-teens %.
        assert!(usage.crossbar < 0.20, "crossbar={}", usage.crossbar);
        assert!(usage.alu < 0.25, "alu={}", usage.alu);
        assert!(usage.gateway < 0.25, "gateway={}", usage.gateway);
        assert!(usage.sram < 0.15, "sram={}", usage.sram);
        assert!(usage.hash_bits < 0.20, "hash={}", usage.hash_bits);
    }
}
