//! Cell and deployment configuration, matching the paper's testbed
//! (Table 1): 100 MHz carrier at 30 kHz SCS (273 PRBs), TDD "DDDSU",
//! 500 µs TTIs.

use slingshot_sim::Nanos;

/// FAPI slot advance: L2 issues requests for slot n at n − advance.
pub(crate) const FAPI_ADVANCE_SLOTS: u64 = 2;

/// The UE's radio-link-failure timeout (paper: 50 ms).
pub(crate) const RLF_TIMEOUT: Nanos = Nanos::from_millis(50);

/// Time a UE takes to reattach after RLF (paper measures 6.2 s).
pub(crate) const REATTACH_DELAY: Nanos = Nanos::from_millis(6200);

/// How faithfully the PHY runs the DSP chain. See DESIGN.md §2 — the
/// full chain for every code block is unaffordable for minute-long
/// stress runs, so two cheaper, calibrated modes exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Encode/decode every code block of every TB (small cells, tests).
    Full,
    /// Encode/decode one representative code block per TB and apply its
    /// outcome to the whole TB. All code blocks of a TB see the same
    /// channel, so per-TB error remains channel-dominated.
    Sampled,
    /// Closed-form BLER model (`phy_dsp::bler`), calibrated against the
    /// full chain. Used for 60 s stress runs (Table 2).
    Abstract,
}

/// Cell configuration shared by L2, PHY, RU, and UEs. The testbed's
/// fixed values — the TDD pattern (`slingshot_sim::TDD_PATTERN`), the
/// FAPI advance and the UE's RLF and reattach timers — are constants.
#[derive(Debug, Clone)]
pub struct CellConfig {
    pub cell_id: u16,
    /// 273 PRBs = 100 MHz at 30 kHz SCS.
    pub num_prbs: u16,
    /// OFDM data symbols per slot available to the shared channel
    /// (14 minus pilot and control overhead).
    pub data_symbols: u8,
    /// DSP fidelity mode.
    pub fidelity: Fidelity,
    /// Min-sum iteration budget of PHYs (upgradable, §8.3).
    pub fec_iterations: usize,
    /// Scheduler link-adaptation margin (dB) subtracted from reported
    /// SNR before MCS selection.
    pub la_margin_db: f64,
    /// RLC bearer mode: in-order delivery (TCP-style bearers, PDCP
    /// reordering) vs immediate delivery of complete SDUs (UDP/RTP
    /// bearers).
    pub rlc_ordered: bool,
    /// Massive-MIMO extension (paper §10): slots of per-UE channel
    /// knowledge (precoding/equalization matrices) a PHY must rebuild
    /// before reaching full gain. 0 disables the model (the paper's
    /// small-antenna configuration).
    pub mimo_reconverge_slots: u64,
    /// SNR penalty (dB) while channel knowledge is cold, decaying
    /// linearly over `mimo_reconverge_slots`.
    pub mimo_cold_penalty_db: f64,
}

impl Default for CellConfig {
    fn default() -> CellConfig {
        CellConfig {
            cell_id: 1,
            num_prbs: 273,
            data_symbols: 12,
            fidelity: Fidelity::Sampled,
            fec_iterations: 8,
            la_margin_db: 2.0,
            rlc_ordered: true,
            mimo_reconverge_slots: 0,
            mimo_cold_penalty_db: 6.0,
        }
    }
}

impl CellConfig {
    /// A scaled-down cell for unit tests: fewer PRBs keep the full DSP
    /// chain fast.
    pub fn small_test_cell() -> CellConfig {
        CellConfig {
            num_prbs: 24,
            fidelity: Fidelity::Full,
            ..CellConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phy::CRASH_AFTER_MISSING_SLOTS;
    use slingshot_sim::TDD_PATTERN;

    #[test]
    fn default_matches_paper_testbed() {
        let c = CellConfig::default();
        assert_eq!(c.num_prbs, 273);
        assert_eq!(TDD_PATTERN, "DDDSU");
        assert_eq!(RLF_TIMEOUT, Nanos::from_millis(50));
        assert_eq!(REATTACH_DELAY, Nanos::from_millis(6200));
        assert_eq!(FAPI_ADVANCE_SLOTS, 2);
        assert_eq!(CRASH_AFTER_MISSING_SLOTS, 3);
    }

    #[test]
    fn small_cell_uses_full_fidelity() {
        let c = CellConfig::small_test_cell();
        assert_eq!(c.fidelity, Fidelity::Full);
        assert!(c.num_prbs < 50);
    }
}
