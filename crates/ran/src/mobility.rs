//! Deterministic UE mobility: a 1-D corridor of cell sites.
//!
//! The model is intentionally free of randomness — the UE's position is
//! a pure function of slot count, so the mobility-driven part of a run
//! is reproducible independent of the channel RNG. Randomness stays
//! where it belongs, in the per-UE
//! [`SnrProcess`](slingshot_phy_dsp::SnrProcess): mobility only moves
//! that process's *mean* through a log-distance path-loss field, and
//! raises A3-style cell-edge crossing events (neighbour better than
//! serving by a hysteresis margin, sustained for a time-to-trigger) for
//! the network-initiated handover machinery to consume.

/// Cell-site positions along the corridor, metres; index = RU id.
pub(crate) const SITES_M: [f64; 2] = [0.0, 120.0];

/// Corridor length, metres (positions live in `[0, LENGTH_M]`).
pub const LENGTH_M: f64 = 120.0;

/// SNR at the reference distance from a site, dB.
pub(crate) const SNR_AT_REF_DB: f64 = 34.0;

/// Reference distance for the path-loss model, metres.
pub const REF_DIST_M: f64 = 10.0;

/// Log-distance path-loss exponent (free space 2, urban 3–4).
pub(crate) const PATHLOSS_EXP: f64 = 3.0;

/// A3 hysteresis: a neighbour must beat the serving cell's mean SNR by
/// this margin (dB) to start the time-to-trigger window.
pub(crate) const HYSTERESIS_DB: f64 = 1.0;

/// Slots the margin must hold before a crossing event fires.
pub const TIME_TO_TRIGGER_SLOTS: u32 = 16;

/// A UE's walk along the two-site corridor the constants above
/// describe.
#[derive(Debug, Clone)]
pub struct MobilityConfig {
    /// Initial UE position, metres.
    pub start_m: f64,
    /// Speed, metres/second. The sign is the initial direction; the UE
    /// bounces elastically at the corridor ends.
    pub velocity_mps: f64,
}

impl MobilityConfig {
    /// A walk tuned so a UE starting near the midpoint crosses the cell
    /// edge within a chaos-scenario horizon (~hundreds of slots at
    /// 500 µs/slot).
    pub fn two_cell_corridor() -> MobilityConfig {
        MobilityConfig {
            start_m: 50.0,
            velocity_mps: 40.0,
        }
    }
}

/// A cell-edge crossing event: the neighbour has beaten the serving
/// cell by the hysteresis margin for the full time-to-trigger window.
/// SNRs are centi-dB fixed point so the event can ride in `Eq` control
/// messages unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossingEvent {
    pub serving_ru: u8,
    pub target_ru: u8,
    pub serving_snr_cdb: i32,
    pub target_snr_cdb: i32,
}

/// Deterministic corridor walker + A3 event generator for one UE.
#[derive(Debug, Clone)]
pub struct MobilityModel {
    cfg: MobilityConfig,
    pos_m: f64,
    /// +1.0 or -1.0; flips at corridor ends.
    dir: f64,
    serving: u8,
    /// Current better-than-serving candidate and how many consecutive
    /// slots it has held the margin.
    candidate: Option<u8>,
    ttt_count: u32,
    /// A crossing fired and is awaiting `confirm_handover`; suppresses
    /// duplicate events for the in-flight target.
    armed: bool,
}

impl MobilityModel {
    pub fn new(cfg: MobilityConfig, serving_ru: u8) -> MobilityModel {
        assert!((serving_ru as usize) < SITES_M.len());
        let pos_m = cfg.start_m.clamp(0.0, LENGTH_M);
        let dir = if cfg.velocity_mps < 0.0 { -1.0 } else { 1.0 };
        MobilityModel {
            cfg,
            pos_m,
            dir,
            serving: serving_ru,
            candidate: None,
            ttt_count: 0,
            armed: false,
        }
    }

    pub fn position_m(&self) -> f64 {
        self.pos_m
    }

    pub fn serving_ru(&self) -> u8 {
        self.serving
    }

    /// Mean SNR (dB) the UE would see from `ru` at its current
    /// position, from the log-distance path-loss model.
    pub fn mean_snr_db(&self, ru: u8) -> f64 {
        let site = SITES_M[ru as usize];
        let d = (self.pos_m - site).abs().max(REF_DIST_M);
        SNR_AT_REF_DB - 10.0 * PATHLOSS_EXP * (d / REF_DIST_M).log10()
    }

    /// Best non-serving site by mean SNR at the current position
    /// (lowest RU id wins ties, deterministically).
    fn best_neighbour(&self) -> Option<(u8, f64)> {
        let mut best: Option<(u8, f64)> = None;
        for ru in 0..SITES_M.len() as u8 {
            if ru == self.serving {
                continue;
            }
            let snr = self.mean_snr_db(ru);
            if best.map(|(_, s)| snr > s).unwrap_or(true) {
                best = Some((ru, snr));
            }
        }
        best
    }

    /// Advance one slot (`dt_s` seconds of motion) and evaluate the A3
    /// condition. Returns a crossing event exactly once per sustained
    /// crossing; the caller acknowledges it with
    /// [`MobilityModel::confirm_handover`] (or [`MobilityModel::abort_handover`]
    /// to re-arm detection, e.g. after a failed handover attempt).
    pub fn step(&mut self, dt_s: f64) -> Option<CrossingEvent> {
        let speed = self.cfg.velocity_mps.abs();
        self.pos_m += self.dir * speed * dt_s;
        if self.pos_m < 0.0 {
            self.pos_m = -self.pos_m;
            self.dir = 1.0;
        } else if self.pos_m > LENGTH_M {
            self.pos_m = 2.0 * LENGTH_M - self.pos_m;
            self.dir = -1.0;
        }
        if self.armed {
            return None;
        }
        let serving_snr = self.mean_snr_db(self.serving);
        let (target, target_snr) = self.best_neighbour()?;
        if target_snr > serving_snr + HYSTERESIS_DB {
            if self.candidate == Some(target) {
                self.ttt_count += 1;
            } else {
                self.candidate = Some(target);
                self.ttt_count = 1;
            }
            if self.ttt_count >= TIME_TO_TRIGGER_SLOTS {
                self.armed = true;
                return Some(CrossingEvent {
                    serving_ru: self.serving,
                    target_ru: target,
                    serving_snr_cdb: (serving_snr * 100.0).round() as i32,
                    target_snr_cdb: (target_snr * 100.0).round() as i32,
                });
            }
        } else {
            self.candidate = None;
            self.ttt_count = 0;
        }
        None
    }

    /// The handover completed: the target is now the serving cell and
    /// crossing detection re-arms (for the journey back).
    pub fn confirm_handover(&mut self, target_ru: u8) {
        assert!((target_ru as usize) < SITES_M.len());
        self.serving = target_ru;
        self.candidate = None;
        self.ttt_count = 0;
        self.armed = false;
    }

    /// The handover attempt was abandoned; resume crossing detection
    /// with the original serving cell.
    pub fn abort_handover(&mut self) {
        self.candidate = None;
        self.ttt_count = 0;
        self.armed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_same_config_same_trajectory() {
        let mut a = MobilityModel::new(MobilityConfig::two_cell_corridor(), 0);
        let mut b = MobilityModel::new(MobilityConfig::two_cell_corridor(), 0);
        for _ in 0..10_000 {
            let ea = a.step(0.0005);
            let eb = b.step(0.0005);
            assert_eq!(ea, eb);
            assert_eq!(a.position_m().to_bits(), b.position_m().to_bits());
        }
    }

    #[test]
    fn pathloss_monotone_in_distance() {
        let m = MobilityModel::new(MobilityConfig::two_cell_corridor(), 0);
        // Site 0 is at 0 m, UE starts at 50 m: site 0 SNR must be lower
        // than it would be at the reference distance and higher than
        // site 1's (70 m away).
        assert!(m.mean_snr_db(0) < 34.0);
        assert!(m.mean_snr_db(0) > m.mean_snr_db(1));
    }

    #[test]
    fn crossing_fires_once_past_midpoint_with_ttt() {
        let ttt = TIME_TO_TRIGGER_SLOTS;
        let mut m = MobilityModel::new(MobilityConfig::two_cell_corridor(), 0);
        let mut events = Vec::new();
        for slot in 0..4_000u64 {
            if let Some(e) = m.step(0.0005) {
                events.push((slot, e));
            }
        }
        assert_eq!(events.len(), 1, "armed model must not re-fire");
        let (slot, e) = events[0];
        assert_eq!(e.serving_ru, 0);
        assert_eq!(e.target_ru, 1);
        assert!(e.target_snr_cdb > e.serving_snr_cdb + 100);
        // Crossing the 60 m midpoint from 50 m at 40 m/s = 0.02 m/slot
        // takes 500 slots; hysteresis + TTT pushes it later.
        assert!(slot > 500 + ttt as u64 - 1, "fired at {slot}");
        assert!(slot < 1_500, "fired at {slot}");
    }

    #[test]
    fn confirm_rearms_for_the_return_trip() {
        let mut cfg = MobilityConfig::two_cell_corridor();
        cfg.velocity_mps = 400.0; // bounce fast enough to cross twice
        let mut m = MobilityModel::new(cfg, 0);
        let mut crossings = Vec::new();
        for _ in 0..10_000u64 {
            if let Some(e) = m.step(0.0005) {
                crossings.push(e);
                m.confirm_handover(e.target_ru);
            }
        }
        assert!(
            crossings.len() >= 2,
            "bouncing UE with confirms must cross repeatedly: {crossings:?}"
        );
        assert_eq!(crossings[0].target_ru, 1);
        assert_eq!(crossings[1].target_ru, 0, "return trip hands back");
    }

    #[test]
    fn bounces_stay_in_corridor() {
        let mut cfg = MobilityConfig::two_cell_corridor();
        cfg.velocity_mps = -300.0;
        cfg.start_m = 5.0;
        let mut m = MobilityModel::new(cfg, 0);
        for _ in 0..50_000 {
            m.step(0.0005);
            assert!(m.position_m() >= 0.0 && m.position_m() <= LENGTH_M);
        }
    }
}
