//! The MAC scheduler: link adaptation, HARQ process management, and
//! per-slot grant construction. Pure state machines (no engine types)
//! so they are unit-testable in isolation; the L2 node drives them.

use std::collections::BTreeMap;

use bytes::Bytes;

use slingshot_fapi::{mcs_for_snr, tbs_bytes, PdschPdu, PuschPdu, SchedPdu};

use crate::slice::{SliceKind, SliceProfile};

/// Maximum HARQ transmissions (1 original + 3 retransmissions), as in
/// the paper's description of 5G HARQ.
pub(crate) const MAX_HARQ_TX: u8 = 4;

/// Scheduling policy for splitting PRBs among UEs with traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Equal split among eligible UEs.
    RoundRobin,
    /// Weight PRBs by inverse recent throughput (proportional fair).
    ProportionalFair,
}

/// Per-UE scheduler state.
#[derive(Debug)]
pub struct UeSchedState {
    pub rnti: u16,
    /// EWMA of PHY-reported uplink SNR (dB).
    pub ul_snr_db: f64,
    /// Assumed downlink SNR (dB); updated from UE measurement reports
    /// (we reuse the uplink estimate, a common TDD reciprocity shortcut).
    pub dl_snr_db: f64,
    /// EWMA throughput for PF (bytes/slot).
    pub avg_tput: f64,
    /// Uplink HARQ transmitter; a retransmission repeats the TB size
    /// (the UE holds the bytes).
    ul_harq: HarqTx<u32>,
    /// Downlink HARQ transmitter; a retransmission repeats the payload.
    dl_harq: HarqTx<Bytes>,
    /// Whether the UE currently has uplink data (buffer status).
    pub ul_backlog_hint: bool,
}

/// One in-flight HARQ series at the transmitter. `tb` is what a
/// retransmission must repeat.
#[derive(Debug)]
struct HarqProc<T> {
    ndi: bool,
    rv_idx: u8,
    tx_count: u8,
    mcs: u8,
    tb: T,
    /// A transmission is in flight; hold retransmissions until its
    /// feedback arrives (the HARQ round-trip).
    awaiting: bool,
    /// Slots spent awaiting feedback (expiry guard: feedback can be
    /// lost outright when a PHY crashes mid-pipeline).
    age: u16,
}

/// One direction's HARQ transmitter: the in-flight processes, the NDI
/// history and the process-id cursor. Uplink and downlink are two
/// instances of this one state machine.
#[derive(Debug, Default)]
struct HarqTx<T> {
    procs: BTreeMap<u8, HarqProc<T>>,
    /// Last NDI value used per HARQ process — persists across process
    /// completion so the *toggle* (not the value) marks new data.
    last_ndi: BTreeMap<u8, bool>,
    next_id: u8,
}

/// The HARQ half of one scheduled transmission.
struct HarqGrant<T> {
    harq_id: u8,
    ndi: bool,
    rv: u8,
    mcs: u8,
    tb: T,
    is_retx: bool,
}

/// How a feedback report left its HARQ series.
enum HarqOutcome<T> {
    /// NACK with attempts left: a retransmission is now pending.
    Retx,
    Done,
    /// NACK on the last of [`MAX_HARQ_TX`] attempts.
    Abandoned(T),
}

/// Redundancy-version sequence used across HARQ retransmissions
/// (38.214's usual 0, 2, 3, 1).
pub(crate) const RV_SEQUENCE: [u8; 4] = [0, 2, 3, 1];

impl UeSchedState {
    pub fn new(rnti: u16, initial_snr_db: f64) -> UeSchedState {
        UeSchedState {
            rnti,
            ul_snr_db: initial_snr_db,
            dl_snr_db: initial_snr_db,
            avg_tput: 1.0,
            ul_harq: HarqTx::default(),
            dl_harq: HarqTx::default(),
            ul_backlog_hint: true,
        }
    }

    /// Update uplink SNR from a CRC.indication report.
    pub(crate) fn report_ul_snr(&mut self, snr_db: f64) {
        const ALPHA: f64 = 0.1;
        self.ul_snr_db += ALPHA * (snr_db - self.ul_snr_db);
        self.dl_snr_db = self.ul_snr_db;
    }

    pub(crate) fn dl_inflight(&self) -> usize {
        self.dl_harq.procs.len()
    }
}

impl<T: Clone> HarqTx<T> {
    /// The next transmission: a pending retransmission takes priority;
    /// otherwise a free process carries the `(mcs, tb)` that `new_tb`
    /// supplies. `None` when all 8 processes await outcomes or
    /// `new_tb` has nothing to send — neither consumes a process id.
    fn next_tx(&mut self, new_tb: impl FnOnce() -> Option<(u8, T)>) -> Option<HarqGrant<T>> {
        let retx = self
            .procs
            .iter_mut()
            .find(|(_, st)| st.rv_idx > 0 && !st.awaiting);
        if let Some((&harq_id, st)) = retx {
            st.tx_count += 1;
            st.awaiting = true;
            st.age = 0;
            return Some(HarqGrant {
                harq_id,
                ndi: st.ndi,
                rv: RV_SEQUENCE[st.rv_idx as usize % 4],
                mcs: st.mcs,
                tb: st.tb.clone(),
                is_retx: true,
            });
        }
        if self.procs.len() >= 8 {
            return None;
        }
        let (mcs, tb) = new_tb()?;
        let mut harq_id = self.next_id;
        while self.procs.contains_key(&harq_id) {
            harq_id = (harq_id + 1) % 16;
        }
        self.next_id = (harq_id + 1) % 16;
        let ndi = !self.last_ndi.get(&harq_id).copied().unwrap_or(true);
        self.last_ndi.insert(harq_id, ndi);
        self.procs.insert(
            harq_id,
            HarqProc {
                ndi,
                rv_idx: 0,
                tx_count: 1,
                mcs,
                tb: tb.clone(),
                awaiting: true,
                age: 0,
            },
        );
        Some(HarqGrant {
            harq_id,
            ndi,
            rv: RV_SEQUENCE[0],
            mcs,
            tb,
            is_retx: false,
        })
    }

    /// Apply ACK/NACK feedback; `None` for a process not in flight.
    fn feedback(&mut self, harq_id: u8, ok: bool) -> Option<HarqOutcome<T>> {
        let st = self.procs.get_mut(&harq_id)?;
        st.awaiting = false;
        if ok {
            self.procs.remove(&harq_id);
            return Some(HarqOutcome::Done);
        }
        if st.tx_count >= MAX_HARQ_TX {
            let st = self.procs.remove(&harq_id).expect("present");
            return Some(HarqOutcome::Abandoned(st.tb));
        }
        st.rv_idx = (st.rv_idx + 1).min(3);
        Some(HarqOutcome::Retx)
    }

    /// Age every process awaiting feedback by one slot and abandon
    /// those past `expiry_slots`; returns how many were abandoned.
    fn expire(&mut self, expiry_slots: u16) -> u64 {
        let before = self.procs.len();
        self.procs.retain(|_, st| {
            if st.awaiting {
                st.age += 1;
            }
            !st.awaiting || st.age <= expiry_slots
        });
        (before - self.procs.len()) as u64
    }
}

impl<T> HarqGrant<T> {
    fn pdu(&self, rnti: u16, start_prb: u16, num_prb: u16, tb_bytes: u32) -> SchedPdu {
        SchedPdu {
            rnti,
            harq_id: self.harq_id,
            ndi: self.ndi,
            rv: self.rv,
            mcs: self.mcs,
            start_prb,
            num_prb,
            tb_bytes,
        }
    }
}

/// Outcome of asking the scheduler for an uplink grant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UlGrant {
    pub pdu: PuschPdu,
    /// True if this is a retransmission of a previous TB.
    pub is_retx: bool,
}

/// The scheduler.
#[derive(Debug)]
pub struct Scheduler {
    pub policy: Policy,
    pub ues: BTreeMap<u16, UeSchedState>,
    /// Link-adaptation margin (dB).
    pub la_margin_db: f64,
    /// Decoder iterations assumed for MCS selection.
    pub fec_iterations: usize,
    /// Counters.
    pub ul_retx: u64,
    pub ul_new_tx: u64,
    pub dl_retx: u64,
    pub dl_new_tx: u64,
    /// HARQ series abandoned after MAX_HARQ_TX attempts.
    pub ul_harq_failures: u64,
    pub dl_harq_failures: u64,
    /// Slice membership; a UE with no entry schedules as default eMBB.
    slices: BTreeMap<u16, SliceKind>,
}

impl Scheduler {
    pub fn new(policy: Policy, la_margin_db: f64, fec_iterations: usize) -> Scheduler {
        Scheduler {
            policy,
            ues: BTreeMap::new(),
            la_margin_db,
            fec_iterations,
            ul_retx: 0,
            ul_new_tx: 0,
            dl_retx: 0,
            dl_new_tx: 0,
            ul_harq_failures: 0,
            dl_harq_failures: 0,
            slices: BTreeMap::new(),
        }
    }

    pub fn add_ue(&mut self, rnti: u16, initial_snr_db: f64) {
        self.ues
            .insert(rnti, UeSchedState::new(rnti, initial_snr_db));
    }

    /// Assign a UE to a slice; it is scheduled under the slice's
    /// [`SliceProfile::for_kind`] policy from then on.
    pub(crate) fn set_slice(&mut self, rnti: u16, kind: SliceKind) {
        self.slices.insert(rnti, kind);
    }

    /// A UE's slice, when it was assigned one.
    pub(crate) fn slice_of(&self, rnti: u16) -> Option<SliceKind> {
        self.slices.get(&rnti).copied()
    }

    /// The policy-layer weight for one UE.
    fn policy_weight(&self, rnti: u16) -> f64 {
        match self.policy {
            Policy::RoundRobin => 1.0,
            Policy::ProportionalFair => {
                let ue = &self.ues[&rnti];
                // PF metric: achievable rate / average throughput.
                let rate = 2f64.powf(ue.dl_snr_db / 10.0).min(256.0);
                (rate / ue.avg_tput.max(1.0)).max(1e-6)
            }
        }
    }

    /// Split `total_prbs` among the given UEs. Returns (rnti,
    /// start_prb, num_prb) triples. UEs are ordered by slice priority
    /// (descending, stable within a class), each UE first receives its
    /// slice's reserved floor, and the remaining PRBs are shared by
    /// policy weight × slice weight. Allocations are emitted in
    /// priority order, so URLLC occupies the lowest PRB indices. A UE
    /// with no registered slice is default eMBB (floor 0, weight 1.0),
    /// so a cell with no slices gets the plain policy-weighted split
    /// in `eligible` order.
    pub(crate) fn split_prbs(&self, eligible: &[u16], total_prbs: u16) -> Vec<(u16, u16, u16)> {
        if eligible.is_empty() || total_prbs == 0 {
            return Vec::new();
        }
        let profile =
            |rnti: u16| SliceProfile::for_kind(self.slice_of(rnti).unwrap_or(SliceKind::Embb));
        let n = eligible.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(profile(eligible[i]).priority));

        // Reserved floors, highest priority first, until PRBs run out.
        let mut share = vec![0u16; n];
        let mut left = total_prbs;
        for &i in &order {
            let r = profile(eligible[i]).min_prbs_per_ue.min(left);
            share[i] += r;
            left -= r;
        }
        // Weighted distribution of the remainder across every eligible
        // UE; the last (lowest-priority) UE absorbs rounding slack.
        let weights: Vec<f64> = eligible
            .iter()
            .map(|r| self.policy_weight(*r) * profile(*r).weight.max(1e-6))
            .collect();
        let wsum: f64 = weights.iter().sum();
        let mut given = 0u16;
        for (k, &i) in order.iter().enumerate() {
            let add = if k + 1 == n {
                left - given
            } else {
                ((left as f64 * weights[i] / wsum).floor() as u16).min(left - given)
            };
            share[i] += add;
            given += add;
        }
        let mut out = Vec::with_capacity(n);
        let mut start = 0u16;
        for &i in &order {
            if share[i] > 0 {
                out.push((eligible[i], start, share[i]));
                start += share[i];
            }
        }
        out
    }

    /// Build an uplink grant for a UE in a UL slot: retransmission of a
    /// failed HARQ process if one is pending, otherwise new data sized
    /// by link adaptation.
    pub fn ul_grant(
        &mut self,
        rnti: u16,
        start_prb: u16,
        num_prb: u16,
        data_symbols: u8,
    ) -> Option<UlGrant> {
        let (la_margin, iters) = (self.la_margin_db, self.fec_iterations);
        let ue = self.ues.get_mut(&rnti)?;
        let snr_db = ue.ul_snr_db;
        let g = ue.ul_harq.next_tx(|| {
            let mcs = mcs_for_snr(snr_db, la_margin, iters);
            Some((mcs, tbs_bytes(mcs, num_prb, data_symbols) as u32))
        })?;
        if g.is_retx {
            self.ul_retx += 1;
        } else {
            self.ul_new_tx += 1;
        }
        Some(UlGrant {
            pdu: g.pdu(rnti, start_prb, num_prb, g.tb),
            is_retx: g.is_retx,
        })
    }

    /// Handle an uplink CRC outcome. Returns `true` if the HARQ series
    /// ended (success or abandonment).
    pub fn on_ul_crc(&mut self, rnti: u16, harq_id: u8, ok: bool, snr_db: f64) -> bool {
        let Some(ue) = self.ues.get_mut(&rnti) else {
            return true;
        };
        ue.report_ul_snr(snr_db);
        match ue.ul_harq.feedback(harq_id, ok) {
            Some(HarqOutcome::Retx) => false,
            Some(HarqOutcome::Abandoned(_)) => {
                self.ul_harq_failures += 1;
                true
            }
            Some(HarqOutcome::Done) | None => true,
        }
    }

    /// Build a downlink assignment for a UE: retransmission if pending,
    /// else a new TB carrying `payload` (sized by caller to the TBS).
    pub fn dl_assign(
        &mut self,
        rnti: u16,
        start_prb: u16,
        num_prb: u16,
        data_symbols: u8,
        new_payload: impl FnOnce(usize) -> Option<Bytes>,
    ) -> Option<(PdschPdu, Bytes)> {
        let (la_margin, iters) = (self.la_margin_db, self.fec_iterations);
        let ue = self.ues.get_mut(&rnti)?;
        let snr_db = ue.dl_snr_db;
        let g = ue.dl_harq.next_tx(|| {
            let mcs = mcs_for_snr(snr_db, la_margin, iters);
            let tbs = tbs_bytes(mcs, num_prb, data_symbols);
            let payload = new_payload(tbs)?;
            debug_assert!(payload.len() <= tbs);
            Some((mcs, payload))
        })?;
        if g.is_retx {
            self.dl_retx += 1;
        } else {
            self.dl_new_tx += 1;
            // Track throughput for PF.
            ue.avg_tput = 0.95 * ue.avg_tput + 0.05 * g.tb.len() as f64;
        }
        let pdu = g.pdu(rnti, start_prb, num_prb, g.tb.len() as u32);
        Some((pdu, g.tb))
    }

    /// Handle a downlink HARQ acknowledgment. Returns the abandoned
    /// payload if the series failed (for observability).
    pub fn on_dl_ack(&mut self, rnti: u16, harq_id: u8, ack: bool) -> Option<Bytes> {
        let ue = self.ues.get_mut(&rnti)?;
        match ue.dl_harq.feedback(harq_id, ack)? {
            HarqOutcome::Abandoned(payload) => {
                self.dl_harq_failures += 1;
                Some(payload)
            }
            HarqOutcome::Retx | HarqOutcome::Done => None,
        }
    }

    /// Advance per-slot HARQ timers: a process whose feedback has been
    /// missing for `expiry_slots` is abandoned (its CRC/UCI indication
    /// died with a crashed PHY). Call once per slot.
    pub fn tick(&mut self, expiry_slots: u16) {
        for ue in self.ues.values_mut() {
            self.ul_harq_failures += ue.ul_harq.expire(expiry_slots);
            self.dl_harq_failures += ue.dl_harq.expire(expiry_slots);
        }
    }

    /// Drop every in-flight HARQ series for a UE (called on detach).
    pub(crate) fn reset_ue(&mut self, rnti: u16) {
        if let Some(ue) = self.ues.get_mut(&rnti) {
            ue.ul_harq.procs.clear();
            ue.dl_harq.procs.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> Scheduler {
        let mut s = Scheduler::new(Policy::RoundRobin, 1.0, 8);
        s.add_ue(100, 18.0);
        s.add_ue(101, 18.0);
        s
    }

    #[test]
    fn split_round_robin_covers_all_prbs() {
        let s = sched();
        let parts = s.split_prbs(&[100, 101], 273);
        assert_eq!(parts.len(), 2);
        let total: u16 = parts.iter().map(|p| p.2).sum();
        assert_eq!(total, 273);
        // Contiguous, non-overlapping.
        assert_eq!(parts[0].1, 0);
        assert_eq!(parts[1].1, parts[0].2);
    }

    #[test]
    fn split_empty_cases() {
        let s = sched();
        assert!(s.split_prbs(&[], 100).is_empty());
        assert!(s.split_prbs(&[100], 0).is_empty());
    }

    #[test]
    fn ul_grant_new_then_retx_cycle() {
        let mut s = sched();
        let g1 = s.ul_grant(100, 0, 100, 12).unwrap();
        assert!(!g1.is_retx);
        assert_eq!(g1.pdu.rv, 0);
        // CRC fails → next grant is a retransmission with rv=2.
        let done = s.on_ul_crc(100, g1.pdu.harq_id, false, 15.0);
        assert!(!done);
        let g2 = s.ul_grant(100, 0, 100, 12).unwrap();
        assert!(g2.is_retx);
        assert_eq!(g2.pdu.harq_id, g1.pdu.harq_id);
        assert_eq!(g2.pdu.ndi, g1.pdu.ndi);
        assert_eq!(g2.pdu.rv, 2);
        assert_eq!(g2.pdu.tb_bytes, g1.pdu.tb_bytes);
        // Success ends the series; next grant is fresh with toggled NDI.
        assert!(s.on_ul_crc(100, g1.pdu.harq_id, true, 15.0));
        let g3 = s.ul_grant(100, 0, 100, 12).unwrap();
        assert!(!g3.is_retx);
        assert_eq!(s.ul_retx, 1);
        assert_eq!(s.ul_new_tx, 2);
    }

    #[test]
    fn ul_harq_abandoned_after_max_tx() {
        let mut s = sched();
        let g = s.ul_grant(100, 0, 50, 12).unwrap();
        let id = g.pdu.harq_id;
        for i in 1..MAX_HARQ_TX {
            assert!(!s.on_ul_crc(100, id, false, 10.0), "attempt {i}");
            let r = s.ul_grant(100, 0, 50, 12).unwrap();
            assert!(r.is_retx);
        }
        // Fourth failure abandons.
        assert!(s.on_ul_crc(100, id, false, 10.0));
        assert_eq!(s.ul_harq_failures, 1);
        assert_eq!(s.ues[&100].ul_harq.procs.len(), 0);
    }

    #[test]
    fn rv_sequence_order() {
        let mut s = sched();
        let g = s.ul_grant(100, 0, 50, 12).unwrap();
        let id = g.pdu.harq_id;
        let mut rvs = vec![g.pdu.rv];
        for _ in 0..3 {
            s.on_ul_crc(100, id, false, 10.0);
            let r = s.ul_grant(100, 0, 50, 12).unwrap();
            rvs.push(r.pdu.rv);
        }
        assert_eq!(rvs, vec![0, 2, 3, 1]);
    }

    #[test]
    fn link_adaptation_follows_snr() {
        let mut s = sched();
        let g_good = s.ul_grant(100, 0, 100, 12).unwrap();
        s.on_ul_crc(100, g_good.pdu.harq_id, true, 30.0);
        for _ in 0..60 {
            let g = s.ul_grant(100, 0, 100, 12).unwrap();
            s.on_ul_crc(100, g.pdu.harq_id, true, 30.0);
        }
        let g_hi = s.ul_grant(100, 0, 100, 12).unwrap();
        s.on_ul_crc(100, g_hi.pdu.harq_id, true, 30.0);
        for _ in 0..60 {
            let g = s.ul_grant(100, 0, 100, 12).unwrap();
            s.on_ul_crc(100, g.pdu.harq_id, true, -2.0);
        }
        let g_lo = s.ul_grant(100, 0, 100, 12).unwrap();
        assert!(
            g_hi.pdu.mcs > g_lo.pdu.mcs,
            "hi={} lo={}",
            g_hi.pdu.mcs,
            g_lo.pdu.mcs
        );
        assert!(g_hi.pdu.tb_bytes > g_lo.pdu.tb_bytes);
    }

    #[test]
    fn dl_assign_and_ack_flow() {
        let mut s = sched();
        let (pdu, payload) = s
            .dl_assign(100, 0, 100, 12, |tbs| Some(Bytes::from(vec![7u8; tbs])))
            .unwrap();
        assert_eq!(payload.len() as u32, pdu.tb_bytes);
        // NACK → retransmission of the same payload.
        assert!(s.on_dl_ack(100, pdu.harq_id, false).is_none());
        let (pdu2, payload2) = s
            .dl_assign(100, 0, 100, 12, |_| panic!("should retransmit"))
            .unwrap();
        assert_eq!(pdu2.harq_id, pdu.harq_id);
        assert_eq!(pdu2.rv, 2);
        assert_eq!(payload2, payload);
        // ACK ends series.
        assert!(s.on_dl_ack(100, pdu.harq_id, true).is_none());
        assert_eq!(s.ues[&100].dl_inflight(), 0);
    }

    #[test]
    fn dl_abandons_after_max_tx_and_returns_payload() {
        let mut s = sched();
        let (pdu, payload) = s
            .dl_assign(100, 0, 50, 12, |tbs| Some(Bytes::from(vec![1u8; tbs])))
            .unwrap();
        for _ in 1..MAX_HARQ_TX {
            assert!(s.on_dl_ack(100, pdu.harq_id, false).is_none());
            let _ = s
                .dl_assign(100, 0, 50, 12, |_| panic!("retx expected"))
                .unwrap();
        }
        let dropped = s.on_dl_ack(100, pdu.harq_id, false);
        assert_eq!(dropped, Some(payload));
        assert_eq!(s.dl_harq_failures, 1);
    }

    #[test]
    fn pf_weights_favor_starved_ue() {
        let mut s = Scheduler::new(Policy::ProportionalFair, 1.0, 8);
        s.add_ue(1, 20.0);
        s.add_ue(2, 20.0);
        s.ues.get_mut(&1).unwrap().avg_tput = 10_000.0;
        s.ues.get_mut(&2).unwrap().avg_tput = 100.0;
        let parts = s.split_prbs(&[1, 2], 200);
        let p1 = parts.iter().find(|p| p.0 == 1).map(|p| p.2).unwrap_or(0);
        let p2 = parts.iter().find(|p| p.0 == 2).map(|p| p.2).unwrap_or(0);
        assert!(p2 > p1 * 5, "p1={p1} p2={p2}");
    }

    #[test]
    fn stale_awaiting_processes_expire() {
        let mut s = sched();
        let g = s.ul_grant(100, 0, 50, 12).unwrap();
        let _ = g;
        let (_p, _b) = s
            .dl_assign(100, 0, 50, 12, |tbs| Some(Bytes::from(vec![0u8; tbs])))
            .unwrap();
        assert_eq!(s.ues[&100].ul_harq.procs.len(), 1);
        assert_eq!(s.ues[&100].dl_inflight(), 1);
        // Feedback never arrives (PHY crashed): expire after 30 slots.
        for _ in 0..=30 {
            s.tick(30);
        }
        assert_eq!(s.ues[&100].ul_harq.procs.len(), 0);
        assert_eq!(s.ues[&100].dl_inflight(), 0);
        assert_eq!(s.ul_harq_failures, 1);
        assert_eq!(s.dl_harq_failures, 1);
        // And new grants flow again.
        assert!(s.ul_grant(100, 0, 50, 12).is_some());
    }

    #[test]
    fn tick_does_not_expire_processes_with_feedback() {
        let mut s = sched();
        let g = s.ul_grant(100, 0, 50, 12).unwrap();
        for _ in 0..10 {
            s.tick(30);
        }
        s.on_ul_crc(100, g.pdu.harq_id, false, 10.0); // NACK: retx pending
        for _ in 0..100 {
            s.tick(30); // not awaiting → no expiry
        }
        assert_eq!(s.ues[&100].ul_harq.procs.len(), 1, "retx still pending");
    }

    #[test]
    fn reset_ue_clears_harq() {
        let mut s = sched();
        let g = s.ul_grant(100, 0, 50, 12).unwrap();
        s.on_ul_crc(100, g.pdu.harq_id, false, 10.0);
        assert_eq!(s.ues[&100].ul_harq.procs.len(), 1);
        s.reset_ue(100);
        assert_eq!(s.ues[&100].ul_harq.procs.len(), 0);
    }

    #[test]
    fn unregistered_slices_keep_legacy_split_identical() {
        let plain = sched();
        let sliced = sched(); // no set_slice calls: slicing stays off
        assert_eq!(
            plain.split_prbs(&[100, 101], 273),
            sliced.split_prbs(&[100, 101], 273)
        );
    }

    #[test]
    fn sliced_split_covers_all_prbs_and_orders_by_priority() {
        let mut s = sched();
        s.add_ue(102, 18.0);
        s.set_slice(100, SliceKind::Embb);
        s.set_slice(101, SliceKind::Urllc);
        s.set_slice(102, SliceKind::Mmtc);
        let parts = s.split_prbs(&[100, 101, 102], 51);
        let total: u16 = parts.iter().map(|p| p.2).sum();
        assert_eq!(total, 51, "sliced split must still tile every PRB");
        // Contiguous and non-overlapping.
        let mut start = 0u16;
        for p in &parts {
            assert_eq!(p.1, start);
            start += p.2;
        }
        // URLLC first (lowest PRBs), then eMBB, then mMTC.
        assert_eq!(
            parts.iter().map(|p| p.0).collect::<Vec<_>>(),
            vec![101, 100, 102]
        );
    }

    #[test]
    fn urllc_floor_survives_greedy_embb() {
        let mut s = Scheduler::new(Policy::ProportionalFair, 1.0, 8);
        s.add_ue(1, 30.0); // eMBB with a huge PF weight (starved + high SNR)
        s.add_ue(2, 5.0); // URLLC at poor SNR
        s.ues.get_mut(&1).unwrap().avg_tput = 1.0;
        s.ues.get_mut(&2).unwrap().avg_tput = 50_000.0;
        s.set_slice(1, SliceKind::Embb);
        s.set_slice(2, SliceKind::Urllc);
        let parts = s.split_prbs(&[1, 2], 51);
        let urllc = parts.iter().find(|p| p.0 == 2).map(|p| p.2).unwrap_or(0);
        let floor = SliceProfile::for_kind(SliceKind::Urllc).min_prbs_per_ue;
        assert!(urllc >= floor, "urllc got {urllc}, floor {floor}");
    }

    #[test]
    fn slice_floor_clamped_by_total_prbs() {
        let mut s = sched();
        s.set_slice(100, SliceKind::Urllc);
        s.set_slice(101, SliceKind::Urllc);
        // Fewer PRBs than the combined floors: still tiles exactly.
        let parts = s.split_prbs(&[100, 101], 3);
        let total: u16 = parts.iter().map(|p| p.2).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn unknown_ue_is_safe() {
        let mut s = sched();
        assert!(s.ul_grant(999, 0, 50, 12).is_none());
        assert!(s.on_ul_crc(999, 0, false, 0.0));
        assert!(s.on_dl_ack(999, 0, true).is_none());
    }

    /// One direction of the link as the HARQ cases below drive it.
    struct Link {
        name: &'static str,
        /// Ask for UE 100's next transmission: (PDU, is_retx).
        tx: fn(&mut Scheduler) -> Option<(SchedPdu, bool)>,
        /// Report ACK/NACK for a process of UE 100.
        feedback: fn(&mut Scheduler, u8, bool),
        inflight: fn(&Scheduler) -> usize,
        failures: fn(&Scheduler) -> u64,
    }

    const LINKS: [Link; 2] = [
        Link {
            name: "uplink",
            tx: |s| s.ul_grant(100, 0, 50, 12).map(|g| (g.pdu, g.is_retx)),
            feedback: |s, id, ok| {
                s.on_ul_crc(100, id, ok, 18.0);
            },
            inflight: |s| s.ues[&100].ul_harq.procs.len(),
            failures: |s| s.ul_harq_failures,
        },
        Link {
            name: "downlink",
            tx: |s| {
                let mut fresh = false;
                let (pdu, payload) = s.dl_assign(100, 0, 50, 12, |tbs| {
                    fresh = true;
                    Some(Bytes::from(vec![3u8; tbs]))
                })?;
                assert_eq!(payload.len() as u32, pdu.tb_bytes);
                Some((pdu, !fresh))
            },
            feedback: |s, id, ok| {
                s.on_dl_ack(100, id, ok);
            },
            inflight: |s| s.ues[&100].dl_inflight(),
            failures: |s| s.dl_harq_failures,
        },
    ];

    #[test]
    fn harq_cases_hold_in_both_directions() {
        for l in &LINKS {
            let n = l.name;

            // RV order over a full series, same process, same NDI and
            // size; the last NACK abandons it.
            let mut s = sched();
            let (first, retx) = (l.tx)(&mut s).unwrap();
            assert!(!retx, "{n}");
            let mut rvs = vec![first.rv];
            for _ in 1..MAX_HARQ_TX {
                (l.feedback)(&mut s, first.harq_id, false);
                let (p, retx) = (l.tx)(&mut s).unwrap();
                assert!(retx, "{n}");
                assert_eq!(
                    (p.harq_id, p.ndi, p.tb_bytes),
                    (first.harq_id, first.ndi, first.tb_bytes),
                    "{n}"
                );
                rvs.push(p.rv);
            }
            assert_eq!(rvs, RV_SEQUENCE, "{n}");
            assert_eq!((l.failures)(&s), 0, "{n}");
            (l.feedback)(&mut s, first.harq_id, false);
            assert_eq!(((l.failures)(&s), (l.inflight)(&s)), (1, 0), "{n}");

            // A process awaiting feedback is not retransmitted: the next
            // transmission is new data on another process, and the NACKed
            // one comes back only after its feedback.
            let mut s = sched();
            let (a, _) = (l.tx)(&mut s).unwrap();
            let (b, b_retx) = (l.tx)(&mut s).unwrap();
            assert!(!b_retx && b.harq_id != a.harq_id, "{n}");
            (l.feedback)(&mut s, a.harq_id, false);
            let (a2, a2_retx) = (l.tx)(&mut s).unwrap();
            assert!(a2_retx && a2.harq_id == a.harq_id, "{n}");
            let (c, c_retx) = (l.tx)(&mut s).unwrap();
            assert!(!c_retx && c.harq_id != a.harq_id, "{n}");

            // Feedback that never comes expires the process; feedback
            // that came (a NACK: retx pending) stops the clock.
            let mut s = sched();
            let (lost, _) = (l.tx)(&mut s).unwrap();
            let (nacked, _) = (l.tx)(&mut s).unwrap();
            for _ in 0..10 {
                s.tick(30);
            }
            (l.feedback)(&mut s, nacked.harq_id, false);
            for _ in 0..100 {
                s.tick(30);
            }
            assert_eq!(((l.failures)(&s), (l.inflight)(&s)), (1, 1), "{n}");
            let (p, retx) = (l.tx)(&mut s).unwrap();
            assert!(retx && p.harq_id == nacked.harq_id, "{n}");
            assert_ne!(lost.harq_id, nacked.harq_id, "{n}");

            // Eight in flight is the cap: the ninth request is refused
            // and consumes no process id.
            let mut s = sched();
            let ids: Vec<u8> = (0..8).map(|_| (l.tx)(&mut s).unwrap().0.harq_id).collect();
            assert_eq!(ids, (0..8).collect::<Vec<u8>>(), "{n}");
            assert!((l.tx)(&mut s).is_none(), "{n}");
            assert_eq!((l.inflight)(&s), 8, "{n}");
            (l.feedback)(&mut s, 3, true);
            assert_eq!((l.tx)(&mut s).unwrap().0.harq_id, 8, "{n}");

            // NDI toggles each time a process id is reused.
            let mut s = sched();
            let mut ndi_of_0 = Vec::new();
            for _ in 0..33 {
                let (p, retx) = (l.tx)(&mut s).unwrap();
                assert!(!retx, "{n}");
                if p.harq_id == 0 {
                    ndi_of_0.push(p.ndi);
                }
                (l.feedback)(&mut s, p.harq_id, true);
            }
            assert_eq!(ndi_of_0.len(), 3, "{n}: ids cycle 0..16");
            assert!(
                ndi_of_0[0] != ndi_of_0[1] && ndi_of_0[1] != ndi_of_0[2],
                "{n}"
            );
        }
    }
}
