//! Corridor-mobility properties at the ran layer: trajectory
//! determinism under cloning and re-construction, path-loss field
//! shape, and the A3 arm/abort/confirm protocol the UE and handover
//! controller rely on.

use slingshot_ran::mobility::{LENGTH_M, REF_DIST_M, TIME_TO_TRIGGER_SLOTS};
use slingshot_ran::{MobilityConfig, MobilityModel, SliceKind, SliceProfile, UeConfig};

const DT: f64 = 0.0005; // one 500 µs slot

#[test]
fn cloned_model_stays_bit_identical() {
    let mut a = MobilityModel::new(MobilityConfig::two_cell_corridor(), 0);
    // Diverge-then-clone: the clone must continue the original's
    // trajectory exactly, event for event.
    for _ in 0..777 {
        a.step(DT);
    }
    let mut b = a.clone();
    for slot in 0..20_000u64 {
        let ea = a.step(DT);
        let eb = b.step(DT);
        assert_eq!(ea, eb, "diverged at slot {slot}");
        assert_eq!(a.position_m().to_bits(), b.position_m().to_bits());
        if let Some(e) = ea {
            a.confirm_handover(e.target_ru);
            b.confirm_handover(e.target_ru);
        }
    }
}

#[test]
fn snr_field_is_symmetric_and_peaks_at_sites() {
    let cfg = MobilityConfig::two_cell_corridor();
    let mid = LENGTH_M / 2.0;
    // Walk the corridor; serving cell 0's SNR must fall monotonically
    // with distance from site 0 (beyond the reference distance).
    let mut prev = f64::INFINITY;
    for x in 0..=120 {
        let mut c = cfg.clone();
        c.start_m = x as f64;
        c.velocity_mps = 0.0;
        let m = MobilityModel::new(c, 0);
        let s0 = m.mean_snr_db(0);
        let s1 = m.mean_snr_db(1);
        if x as f64 >= REF_DIST_M {
            assert!(s0 <= prev + 1e-9, "snr rose at {x} m");
            prev = s0;
        }
        // Two-site symmetric layout: the fields mirror around the
        // midpoint.
        let mut cm = cfg.clone();
        cm.start_m = LENGTH_M - x as f64;
        cm.velocity_mps = 0.0;
        let mirror = MobilityModel::new(cm, 0);
        assert!(
            (s0 - mirror.mean_snr_db(1)).abs() < 1e-9,
            "field not mirror-symmetric at {x} m"
        );
        // Past the midpoint the neighbour must dominate.
        if x as f64 > mid + 1.0 {
            assert!(s1 > s0, "neighbour must win at {x} m");
        }
    }
}

/// Abort must re-arm detection: a UE whose handover attempt failed
/// reports the same crossing again a TTT later, indefinitely, while a
/// confirm ends the cycle.
#[test]
fn abort_rearms_detection_until_confirm() {
    let ttt = TIME_TO_TRIGGER_SLOTS as u64;
    let mut m = MobilityModel::new(MobilityConfig::two_cell_corridor(), 0);
    let mut crossings = Vec::new();
    for slot in 0..3_000u64 {
        if let Some(e) = m.step(DT) {
            crossings.push((slot, e));
            if crossings.len() < 4 {
                m.abort_handover();
            } else {
                m.confirm_handover(e.target_ru);
            }
        }
    }
    assert_eq!(crossings.len(), 4, "3 aborted retries + 1 confirmed");
    for w in crossings.windows(2) {
        let gap = w[1].0 - w[0].0;
        assert!(gap >= ttt, "re-report after {gap} slots < TTT {ttt}");
        assert_eq!(w[1].1.target_ru, 1, "same crossing, same target");
    }
    // After the confirm the model serves cell 1 and stays quiet (the UE
    // is deep in cell 1 coverage and still walking away from cell 0).
    assert_eq!(m.serving_ru(), 1);
}

/// A crossing event's SNR snapshot must agree with the model's own
/// field at the moment it fires (the controller trusts these numbers).
#[test]
fn crossing_event_snrs_match_field() {
    let mut m = MobilityModel::new(MobilityConfig::two_cell_corridor(), 0);
    for _ in 0..3_000u64 {
        if let Some(e) = m.step(DT) {
            assert_eq!(e.serving_snr_cdb, (m.mean_snr_db(0) * 100.0).round() as i32);
            assert_eq!(e.target_snr_cdb, (m.mean_snr_db(1) * 100.0).round() as i32);
            assert!(
                e.target_snr_cdb - e.serving_snr_cdb > 100,
                "crossing must clear the 1 dB hysteresis"
            );
            return;
        }
    }
    panic!("no crossing within 3000 slots");
}

#[test]
fn ue_config_slice_and_mobility_builders_compose() {
    let cfg = UeConfig::new(7, 0, "walker", 20.0)
        .with_slice(SliceKind::Urllc)
        .with_mobility(MobilityConfig::two_cell_corridor());
    assert_eq!(cfg.slice, SliceKind::Urllc);
    assert!(cfg.mobility.is_some());
    // URLLC defaults give the slice a deadline and elevated weight.
    let p = SliceProfile::for_kind(SliceKind::Urllc);
    assert!(p.deadline_slots.is_some());
    assert!(p.weight > SliceProfile::for_kind(SliceKind::Mmtc).weight);
}
