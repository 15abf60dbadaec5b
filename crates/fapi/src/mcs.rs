//! MCS (modulation and coding scheme) table and transport block sizing,
//! modeled on TS 38.214 Table 5.1.3.1-2 (the 256-QAM table).
//!
//! The L2 scheduler picks an MCS per UE per slot from the PHY's
//! reported SNR; the PHY maps it to a modulation order and code rate.

use slingshot_phy_dsp::Modulation;

/// One MCS table row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McsRow {
    pub index: u8,
    pub modulation: Modulation,
    /// Target code rate × 1024.
    pub rate_x1024: u16,
}

impl McsRow {
    pub fn code_rate(&self) -> f64 {
        self.rate_x1024 as f64 / 1024.0
    }

    /// Information bits per modulated symbol.
    pub(crate) fn spectral_efficiency(&self) -> f64 {
        self.modulation.bits_per_symbol() as f64 * self.code_rate()
    }
}

/// The MCS table (a representative subset of 38.214's 256-QAM table).
pub const MCS_TABLE: [McsRow; 20] = [
    McsRow {
        index: 0,
        modulation: Modulation::Qpsk,
        rate_x1024: 120,
    },
    McsRow {
        index: 1,
        modulation: Modulation::Qpsk,
        rate_x1024: 193,
    },
    McsRow {
        index: 2,
        modulation: Modulation::Qpsk,
        rate_x1024: 308,
    },
    McsRow {
        index: 3,
        modulation: Modulation::Qpsk,
        rate_x1024: 449,
    },
    McsRow {
        index: 4,
        modulation: Modulation::Qpsk,
        rate_x1024: 602,
    },
    McsRow {
        index: 5,
        modulation: Modulation::Qam16,
        rate_x1024: 378,
    },
    McsRow {
        index: 6,
        modulation: Modulation::Qam16,
        rate_x1024: 434,
    },
    McsRow {
        index: 7,
        modulation: Modulation::Qam16,
        rate_x1024: 490,
    },
    McsRow {
        index: 8,
        modulation: Modulation::Qam16,
        rate_x1024: 553,
    },
    McsRow {
        index: 9,
        modulation: Modulation::Qam16,
        rate_x1024: 616,
    },
    McsRow {
        index: 10,
        modulation: Modulation::Qam16,
        rate_x1024: 658,
    },
    McsRow {
        index: 11,
        modulation: Modulation::Qam64,
        rate_x1024: 466,
    },
    McsRow {
        index: 12,
        modulation: Modulation::Qam64,
        rate_x1024: 517,
    },
    McsRow {
        index: 13,
        modulation: Modulation::Qam64,
        rate_x1024: 567,
    },
    McsRow {
        index: 14,
        modulation: Modulation::Qam64,
        rate_x1024: 616,
    },
    McsRow {
        index: 15,
        modulation: Modulation::Qam64,
        rate_x1024: 666,
    },
    McsRow {
        index: 16,
        modulation: Modulation::Qam64,
        rate_x1024: 719,
    },
    McsRow {
        index: 17,
        modulation: Modulation::Qam256,
        rate_x1024: 682,
    },
    McsRow {
        index: 18,
        modulation: Modulation::Qam256,
        rate_x1024: 754,
    },
    McsRow {
        index: 19,
        modulation: Modulation::Qam256,
        rate_x1024: 822,
    },
];

/// Look up an MCS row; indices past the table clamp to the top entry.
pub fn mcs(index: u8) -> McsRow {
    let i = (index as usize).min(MCS_TABLE.len() - 1);
    MCS_TABLE[i]
}

/// Highest MCS index.
pub fn max_mcs() -> u8 {
    (MCS_TABLE.len() - 1) as u8
}

/// Transport block size in *bytes* for an allocation of `num_prb` PRBs
/// with `data_symbols` data-bearing OFDM symbols. The result leaves
/// room for the 3-byte TB CRC within the coded budget.
pub fn tbs_bytes(mcs_index: u8, num_prb: u16, data_symbols: u8) -> usize {
    let row = mcs(mcs_index);
    let n_re = num_prb as usize * 12 * data_symbols as usize;
    let info_bits = (n_re as f64 * row.spectral_efficiency()) as usize;
    // Reserve the TB CRC and floor to bytes; minimum 8 bytes.
    (info_bits / 8).saturating_sub(3).max(8)
}

/// Coded-bit budget (e_bits) for the same allocation — what the rate
/// matcher fills.
pub fn e_bits(mcs_index: u8, num_prb: u16, data_symbols: u8) -> usize {
    let row = mcs(mcs_index);
    let n_re = num_prb as usize * 12 * data_symbols as usize;
    n_re * row.modulation.bits_per_symbol()
}

/// Pick the highest MCS whose decode threshold (per the BLER model at
/// the given iteration budget) is at most `snr_db` minus `margin_db`.
pub fn mcs_for_snr(snr_db: f64, margin_db: f64, fec_iterations: usize) -> u8 {
    let mut best = 0u8;
    for row in &MCS_TABLE {
        let th = slingshot_phy_dsp::bler::threshold_db(
            row.modulation.bits_per_symbol(),
            row.code_rate(),
            fec_iterations,
        );
        if th + margin_db <= snr_db {
            best = row.index;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_monotone_in_efficiency() {
        for w in MCS_TABLE.windows(2) {
            assert!(
                w[1].spectral_efficiency() > w[0].spectral_efficiency(),
                "{:?} vs {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn indices_match_positions() {
        for (i, row) in MCS_TABLE.iter().enumerate() {
            assert_eq!(row.index as usize, i);
        }
    }

    #[test]
    fn lookup_clamps() {
        assert_eq!(mcs(200), MCS_TABLE[MCS_TABLE.len() - 1]);
        assert_eq!(mcs(0), MCS_TABLE[0]);
    }

    #[test]
    fn tbs_scales_with_allocation() {
        let small = tbs_bytes(5, 10, 12);
        let big = tbs_bytes(5, 100, 12);
        assert!(
            big > 9 * small && big < 11 * small,
            "small={small} big={big}"
        );
        assert!(tbs_bytes(19, 10, 12) > tbs_bytes(0, 10, 12));
    }

    #[test]
    fn tbs_minimum() {
        assert_eq!(tbs_bytes(0, 1, 1), 8);
    }

    #[test]
    fn e_bits_matches_re_count() {
        // 10 PRB × 12 SC × 12 symbols × 2 bits (QPSK) = 2880.
        assert_eq!(e_bits(0, 10, 12), 2880);
        assert_eq!(e_bits(17, 10, 12), 11520); // 256-QAM
    }

    #[test]
    fn implied_code_rate_near_target() {
        for row in &MCS_TABLE {
            let tb = tbs_bytes(row.index, 50, 12);
            let e = e_bits(row.index, 50, 12);
            let actual = ((tb + 3) * 8) as f64 / e as f64;
            assert!(
                (actual - row.code_rate()).abs() < 0.02,
                "mcs {} actual {} target {}",
                row.index,
                actual,
                row.code_rate()
            );
        }
    }

    #[test]
    fn mcs_for_snr_monotone() {
        let mut prev = 0;
        for snr in (-5..35).step_by(2) {
            let m = mcs_for_snr(snr as f64, 1.0, 8);
            assert!(m >= prev, "snr={snr}");
            prev = m;
        }
        assert_eq!(mcs_for_snr(-20.0, 1.0, 8), 0);
        assert_eq!(mcs_for_snr(50.0, 1.0, 8), max_mcs());
    }

    #[test]
    fn more_fec_iterations_allow_higher_mcs() {
        // At some mid SNR, a better decoder supports a higher MCS —
        // Fig. 11's mechanism surfaced through the scheduler.
        let snr = 14.0;
        let low = mcs_for_snr(snr, 1.0, 2);
        let high = mcs_for_snr(snr, 1.0, 16);
        assert!(high > low, "low={low} high={high}");
    }
}
