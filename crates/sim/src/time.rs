//! Simulated time and 5G NR slot arithmetic.
//!
//! Time is a monotonically increasing count of nanoseconds since the start
//! of the simulation. The paper's cell uses 30 kHz subcarrier spacing
//! (numerology µ=1), so a slot — synonymous with a TTI in this paper — is
//! 500 µs long, a subframe (1 ms) holds two slots, and a radio frame
//! (10 ms) holds twenty.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    pub const ZERO: Nanos = Nanos(0);

    pub const fn from_micros(us: u64) -> Nanos {
        Nanos(us * 1_000)
    }

    pub const fn from_millis(ms: u64) -> Nanos {
        Nanos(ms * 1_000_000)
    }

    pub const fn from_secs(s: u64) -> Nanos {
        Nanos(s * 1_000_000_000)
    }

    pub fn as_micros(self) -> f64 {
        self.0 as f64 / 1e3
    }

    pub fn as_millis(self) -> f64 {
        self.0 as f64 / 1e6
    }

    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction; useful for "time since" computations where
    /// clock skew of zero is the correct floor.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    pub fn min(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.min(rhs.0))
    }

    pub fn max(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.max(rhs.0))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// Slot (TTI) duration for 30 kHz subcarrier spacing: 500 µs.
pub const SLOT_DURATION: Nanos = Nanos::from_micros(500);

/// Slots per 1 ms subframe at µ=1.
pub(crate) const SLOTS_PER_SUBFRAME: u32 = 2;

/// Subframes per 10 ms radio frame.
pub(crate) const SUBFRAMES_PER_FRAME: u32 = 10;

/// Slots per radio frame at µ=1.
pub(crate) const SLOTS_PER_FRAME: u32 = SLOTS_PER_SUBFRAME * SUBFRAMES_PER_FRAME;

/// System frame numbers wrap at 1024, as in 3GPP.
pub(crate) const SFN_MODULO: u32 = 1024;

/// Slots per SFN epoch: [`SlotId`]s repeat every 1024 frames (10.24 s).
const SFN_EPOCH: u64 = SFN_MODULO as u64 * SLOTS_PER_FRAME as u64;

/// Slots per *wire* epoch. Fronthaul headers carry an 8-bit frame id,
/// so the slot scalar the switch matches `migrate_on_slot` requests
/// against (§5.1) wraps every 256 frames (2.56 s), four times per SFN
/// epoch.
pub const SCALAR_EPOCH: u64 = 256 * SLOTS_PER_FRAME as u64;

/// Signed distance from `from` to the member of `to`'s residue class
/// (mod `epoch`) nearest to it. Exactly half an epoch counts as ahead,
/// so the answer is a function of the residue alone.
fn nearest_offset(from: u64, to: u64, epoch: u64) -> i64 {
    let ahead = (to % epoch + epoch - from % epoch) % epoch;
    if ahead <= epoch / 2 {
        ahead as i64
    } else {
        ahead as i64 - epoch as i64
    }
}

/// The wire scalar of absolute slot `abs`.
pub fn scalar_of(abs: u64) -> u16 {
    (abs % SCALAR_EPOCH) as u16
}

/// Is scalar `x` at or after `boundary`? Wrapping comparison within
/// half a [`SCALAR_EPOCH`], as the 8-bit frame id implies.
pub fn scalar_at_or_after(x: u16, boundary: u16) -> bool {
    nearest_offset(boundary as u64, x as u64, SCALAR_EPOCH) >= 0
}

/// The absolute slot nearest `near_abs` whose wire scalar is `scalar`.
pub fn abs_of_scalar(near_abs: u64, scalar: u16) -> u64 {
    near_abs.saturating_add_signed(nearest_offset(near_abs, scalar as u64, SCALAR_EPOCH))
}

/// The testbed's TDD pattern (Table 1), one letter per slot: three
/// downlink slots, a special slot, an uplink slot. Its 393 µs worst
/// downlink gap is what the 450 µs detector timeout is derived from
/// (§5.2), so it is a constant, not a setting.
pub const TDD_PATTERN: &str = "DDDSU";

/// TDD cycle length in slots.
pub const TDD_CYCLE_SLOTS: u64 = TDD_PATTERN.len() as u64;

/// Round `abs` up to the start of a TDD cycle. Every on-slot boundary
/// (migration, standby install, handover) lands here so that an uplink
/// grant's DCI — carried in the Special slot preceding its uplink slot
/// — is emitted by the PHY that is active when it radiates; a boundary
/// inside the cycle would have the switch's downlink filter discard
/// the new owner's grant for the first uplink slot past it.
pub fn align_to_tdd_cycle(abs: u64) -> u64 {
    abs.div_ceil(TDD_CYCLE_SLOTS) * TDD_CYCLE_SLOTS
}

/// A fully qualified slot identity: system frame number, subframe within
/// the frame, and slot within the subframe. This triple appears verbatim
/// in O-RAN fronthaul packet headers and is what the in-switch middlebox
/// parses to align migration to TTI boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId {
    /// System frame number, 0..1024.
    pub sfn: u16,
    /// Subframe within the frame, 0..10.
    pub subframe: u8,
    /// Slot within the subframe, 0..2 at µ=1.
    pub slot: u8,
}

impl SlotId {
    pub const ZERO: SlotId = SlotId {
        sfn: 0,
        subframe: 0,
        slot: 0,
    };

    /// Slot identity for an absolute slot counter (slots since t=0).
    pub fn from_absolute(abs: u64) -> SlotId {
        let slots_per_frame = SLOTS_PER_FRAME as u64;
        let frame = abs / slots_per_frame;
        let in_frame = (abs % slots_per_frame) as u32;
        SlotId {
            sfn: (frame % SFN_MODULO as u64) as u16,
            subframe: (in_frame / SLOTS_PER_SUBFRAME) as u8,
            slot: (in_frame % SLOTS_PER_SUBFRAME) as u8,
        }
    }

    /// The absolute slot index *within the current SFN epoch* (SFN wraps
    /// at 1024 frames = 10.24 s). Comparisons across a wrap must use
    /// `SlotId::wrapping_distance`.
    pub fn epoch_index(self) -> u64 {
        self.sfn as u64 * SLOTS_PER_FRAME as u64
            + self.subframe as u64 * SLOTS_PER_SUBFRAME as u64
            + self.slot as u64
    }

    /// Number of slots from `self` to `other`, assuming `other` is not
    /// more than half an SFN epoch ahead (handles SFN wraparound).
    pub(crate) fn wrapping_distance(self, other: SlotId) -> i64 {
        nearest_offset(self.epoch_index(), other.epoch_index(), SFN_EPOCH)
    }

    /// The slot `n` slots after this one.
    pub fn advance(self, n: u64) -> SlotId {
        SlotId::from_absolute((self.epoch_index() + n) % SFN_EPOCH)
    }

    /// This slot as the fronthaul header's comparable scalar in
    /// `0..SCALAR_EPOCH` (frame id mod 256, subframe, slot).
    pub fn scalar(self) -> u16 {
        scalar_of(self.epoch_index())
    }

    /// A representative slot for a wire scalar. The scalar covers only
    /// 256 frames, so the SFN comes back modulo 256.
    pub fn from_scalar(scalar: u16) -> SlotId {
        SlotId::from_absolute(scalar as u64)
    }
}

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}", self.sfn, self.subframe, self.slot)
    }
}

/// Converts between absolute simulated time and slot identity. All nodes
/// in the testbed are PTP-synchronized (per the paper), which in the
/// simulation means they share this clock exactly.
#[derive(Debug, Clone, Copy)]
pub struct SlotClock {
    /// Simulation time at which absolute slot 0 began.
    pub origin: Nanos,
}

impl SlotClock {
    pub fn new(origin: Nanos) -> SlotClock {
        SlotClock { origin }
    }

    /// Absolute slot counter (not wrapped) containing time `t`.
    pub fn absolute_slot(&self, t: Nanos) -> u64 {
        t.saturating_sub(self.origin).0 / SLOT_DURATION.0
    }

    pub fn slot_id(&self, t: Nanos) -> SlotId {
        SlotId::from_absolute(self.absolute_slot(t))
    }

    /// Start time of the given absolute slot.
    pub fn slot_start(&self, abs: u64) -> Nanos {
        Nanos(self.origin.0 + abs * SLOT_DURATION.0)
    }

    /// Start time of the next slot boundary strictly after `t`.
    pub fn next_slot_start(&self, t: Nanos) -> Nanos {
        self.slot_start(self.absolute_slot(t) + 1)
    }

    /// The absolute slot nearest `now` that wire scalar `scalar` names.
    pub fn abs_of_scalar(&self, now: Nanos, scalar: u16) -> u64 {
        abs_of_scalar(self.absolute_slot(now), scalar)
    }

    /// The absolute slot nearest `now` that `slot` names (SFN wraps at
    /// 1024 frames).
    pub fn abs_of_slot(&self, now: Nanos, slot: SlotId) -> u64 {
        let now_abs = self.absolute_slot(now);
        now_abs.saturating_add_signed(SlotId::from_absolute(now_abs).wrapping_distance(slot))
    }
}

/// TDD slot roles for the paper's "DDDSU" pattern: three downlink slots,
/// one special (guard) slot, one uplink slot, repeating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotKind {
    Downlink,
    Special,
    Uplink,
}

/// The role of absolute slot `abs` in [`TDD_PATTERN`].
pub fn slot_kind(abs: u64) -> SlotKind {
    match TDD_PATTERN.as_bytes()[(abs % TDD_CYCLE_SLOTS) as usize] {
        b'D' => SlotKind::Downlink,
        b'S' => SlotKind::Special,
        _ => SlotKind::Uplink,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn abs_of_scalar_inverts_scalar_of_within_half_an_epoch(
            near in 0u64..1 << 32,
            d in -(SCALAR_EPOCH as i64 / 2 - 1)..SCALAR_EPOCH as i64 / 2,
        ) {
            let abs = near.saturating_add_signed(d);
            prop_assert_eq!(abs_of_scalar(near, scalar_of(abs)), abs);
            prop_assert_eq!(SlotId::from_absolute(abs).scalar(), scalar_of(abs));
            prop_assert_eq!(SlotId::from_scalar(scalar_of(abs)).scalar(), scalar_of(abs));
            prop_assert_eq!(scalar_at_or_after(scalar_of(abs), scalar_of(near)), abs >= near);
        }

        #[test]
        fn clock_abs_of_slot_inverts_from_absolute_within_half_an_sfn_epoch(
            near in 0u64..1 << 32,
            d in -(SFN_EPOCH as i64 / 2 - 1)..SFN_EPOCH as i64 / 2,
            offset_ns in 0u64..SLOT_DURATION.0,
        ) {
            let clk = SlotClock::new(Nanos::from_micros(100));
            let now = Nanos(clk.slot_start(near).0 + offset_ns);
            let abs = near.saturating_add_signed(d);
            prop_assert_eq!(clk.abs_of_slot(now, SlotId::from_absolute(abs)), abs);
            if abs.abs_diff(near) < SCALAR_EPOCH / 2 {
                prop_assert_eq!(clk.abs_of_scalar(now, scalar_of(abs)), abs);
            }
        }
    }

    #[test]
    fn exactly_half_an_epoch_counts_as_ahead() {
        // A function of the residue has to pick one side for the tie.
        let half = SCALAR_EPOCH / 2;
        assert_eq!(
            abs_of_scalar(10_000, scalar_of(10_000 + half)),
            10_000 + half
        );
        assert_eq!(
            abs_of_scalar(10_000, scalar_of(10_000 - half)),
            10_000 + half
        );
        assert!(scalar_at_or_after(2560, 0));
        assert!(scalar_at_or_after(2558, 5118));
        let a = SlotId::from_absolute(100);
        let b = SlotId::from_absolute(100 + SFN_EPOCH / 2);
        assert_eq!(a.wrapping_distance(b), (SFN_EPOCH / 2) as i64);
        assert_eq!(b.wrapping_distance(a), (SFN_EPOCH / 2) as i64);
        // Early in a run the nearest slot cannot be before slot 0.
        assert_eq!(abs_of_scalar(0, 5119), 0);
    }

    #[test]
    fn scalar_comparison_extremes() {
        // Boundary 0: everything in the first half-epoch is "after".
        assert!(scalar_at_or_after(0, 0));
        assert!(scalar_at_or_after(2559, 0));
        assert!(!scalar_at_or_after(2561, 0));
        // Boundary at epoch end.
        assert!(scalar_at_or_after(5119, 5119));
        assert!(scalar_at_or_after(0, 5119));
        assert!(scalar_at_or_after(2558, 5119));
        assert!(!scalar_at_or_after(2559, 5118));
    }

    #[test]
    fn scalar_comparison_wraps() {
        assert!(scalar_at_or_after(100, 100));
        assert!(scalar_at_or_after(101, 100));
        assert!(!scalar_at_or_after(99, 100));
        // Wrap: 5 is "after" 5118 (epoch = 5120).
        assert!(scalar_at_or_after(5, 5118));
        assert!(!scalar_at_or_after(5118, 5));
    }

    #[test]
    fn boundary_aligns_to_tdd_cycle() {
        for (abs, aligned) in [
            (0, 0),
            (1, 5),
            (4, 5),
            (5, 5),
            (7, 10),
            (10, 10),
            (2003, 2005),
        ] {
            assert_eq!(align_to_tdd_cycle(abs), aligned);
        }
        assert_eq!(TDD_CYCLE_SLOTS, 5);
    }

    #[test]
    fn aligned_boundary_opens_a_cycle() {
        // The rule `align_to_tdd_cycle` states: a boundary is the first
        // downlink slot after an uplink slot.
        for x in 1..=10 {
            let b = align_to_tdd_cycle(x);
            assert_eq!(slot_kind(b), SlotKind::Downlink, "x={x}");
            assert_eq!(slot_kind(b - 1), SlotKind::Uplink, "x={x}");
        }
    }

    #[test]
    fn nanos_conversions() {
        assert_eq!(Nanos::from_micros(500).0, 500_000);
        assert_eq!(Nanos::from_millis(3).0, 3_000_000);
        assert_eq!(Nanos::from_secs(2).0, 2_000_000_000);
        assert!((Nanos::from_millis(10).as_secs() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn nanos_display_scales() {
        assert_eq!(format!("{}", Nanos(12)), "12ns");
        assert_eq!(format!("{}", Nanos::from_micros(500)), "500.000us");
        assert_eq!(format!("{}", Nanos::from_millis(6)), "6.000ms");
        assert_eq!(format!("{}", Nanos::from_secs(1)), "1.000s");
    }

    #[test]
    fn slot_id_roundtrip() {
        for abs in [0u64, 1, 19, 20, 21, 20479, 20480, 20481, 1_000_000] {
            let id = SlotId::from_absolute(abs);
            let epoch = SFN_MODULO as u64 * SLOTS_PER_FRAME as u64;
            assert_eq!(id.epoch_index(), abs % epoch, "abs={abs}");
        }
    }

    #[test]
    fn slot_id_fields() {
        // Slot 43 = frame 2 (40 slots per 2 frames), subframe 1, slot 1.
        let id = SlotId::from_absolute(43);
        assert_eq!(id.sfn, 2);
        assert_eq!(id.subframe, 1);
        assert_eq!(id.slot, 1);
    }

    #[test]
    fn slot_wrapping_distance() {
        let epoch = SFN_MODULO as u64 * SLOTS_PER_FRAME as u64;
        let near_end = SlotId::from_absolute(epoch - 2);
        let after_wrap = SlotId::from_absolute(1);
        assert_eq!(near_end.wrapping_distance(after_wrap), 3);
        assert_eq!(after_wrap.wrapping_distance(near_end), -3);
        let a = SlotId::from_absolute(100);
        let b = SlotId::from_absolute(107);
        assert_eq!(a.wrapping_distance(b), 7);
    }

    #[test]
    fn slot_advance_wraps() {
        let epoch = SFN_MODULO as u64 * SLOTS_PER_FRAME as u64;
        let id = SlotId::from_absolute(epoch - 1);
        assert_eq!(id.advance(1), SlotId::ZERO);
        assert_eq!(id.advance(2), SlotId::from_absolute(1));
    }

    #[test]
    fn slot_clock_boundaries() {
        let clk = SlotClock::new(Nanos::ZERO);
        assert_eq!(clk.absolute_slot(Nanos(0)), 0);
        assert_eq!(clk.absolute_slot(Nanos(499_999)), 0);
        assert_eq!(clk.absolute_slot(Nanos(500_000)), 1);
        assert_eq!(clk.next_slot_start(Nanos(0)), Nanos(500_000));
        assert_eq!(clk.next_slot_start(Nanos(500_000)), Nanos(1_000_000));
    }

    #[test]
    fn slot_clock_with_origin() {
        let clk = SlotClock::new(Nanos::from_micros(100));
        assert_eq!(clk.absolute_slot(Nanos::from_micros(99)), 0);
        assert_eq!(clk.absolute_slot(Nanos::from_micros(600)), 1);
        assert_eq!(clk.slot_start(2), Nanos::from_micros(1100));
    }

    #[test]
    fn tdd_dddsu() {
        assert_eq!(TDD_PATTERN, "DDDSU");
        for (abs, kind) in [
            (0, SlotKind::Downlink),
            (2, SlotKind::Downlink),
            (3, SlotKind::Special),
            (4, SlotKind::Uplink),
            (5, SlotKind::Downlink),
            (2004, SlotKind::Uplink),
        ] {
            assert_eq!(slot_kind(abs), kind, "abs={abs}");
        }
    }
}
