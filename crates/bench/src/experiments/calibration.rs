//! The closed-form BLER fit (`phy_dsp::bler`) held to the full chain.
//! Every Abstract-fidelity run draws its decode outcomes from that fit
//! and every MCS choice reads its thresholds, so this entry measures
//! the real encode → AWGN → LDPC decode chain at the points the fit
//! claims to describe: the 50 %-BLER gap from Shannon over iterations
//! × modulation × code rate, the waterfall slope, the chase-combining
//! gain, and what a discarded HARQ buffer costs one transport block.

use super::*;
use slingshot_phy_dsp::bler;
use slingshot_phy_dsp::channel::AwgnChannel;
use slingshot_phy_dsp::modulation::Modulation;
use slingshot_phy_dsp::tbchain::{mother_buffer_len, TbParams};
use slingshot_phy_dsp::DspKernels;
use slingshot_sim::SimRng;

#[rustfmt::skip]
pub(super) const BLER_MODEL: Experiment = Experiment {
    id: "bler_model",
    paper: "§4's premise, that discarded PHY soft state costs no more than a routine wireless \
            impairment, rests in every Abstract run and every MCS choice on the closed-form BLER \
            fit of `phy_dsp::bler`: the full LDPC chain against the fit's 50 % point over \
            iterations × modulation × rate, its waterfall slope and its chase-combining gain \
            (the paper column names what the fit says)",
    body: bler_model,
    expect: &[
        row("gap_error_db_max:i8", "`threshold_db`", AtMost(1.25)),
        row("gap_error_db_max", "`threshold_db`", AtMost(2.0)).deviation(
            "every miss above 1.25 dB is at 4 iterations: at rate 0.8 the rate penalty, \
             saturated since rate 0.6, over-charges 64- and 256-QAM, and at rate 0.4 the fit \
             under-charges 256-QAM; re-fitting is ROADMAP item 2"),
        row("gap_error_db_mean", "`threshold_db`", AtLeast(-0.5)),
        row("gap_error_db_mean", "`threshold_db`", AtMost(0.5)),
        row("gap_db_by_bits_per_symbol:r0.5/i8", "+0.58 dB per bit", NonDecreasing),
        row("gap_db_by_inverse_iterations:qpsk/r0.5", "2.8 + 6.0 / iterations dB", NonDecreasing),
        row("slope_over_fit", "`steepness`", Within(1.0, 50.0)),
        row("chase_gain_over_fit", "`combined_snr_db`: 3.01 dB", Within(1.0, 33.0)),
        row("discard_cost_over_fit", "a fresh retransmission is a first one", Within(1.0, 33.0)),
    ],
};

const SEED: u64 = 42;

/// Where one TB crosses the air: what the chain and the fit are both
/// given.
#[derive(Clone, Copy)]
struct Link {
    modulation: Modulation,
    /// Coded bits on the air, a multiple of bits per symbol.
    e_bits: usize,
    fec_iterations: usize,
    payload_bytes: usize,
}

impl Link {
    /// Payload plus the 24-bit TB CRC: the `k` of the code rate.
    fn info_bits(&self) -> usize {
        (self.payload_bytes + 3) * 8
    }

    fn code_rate(&self) -> f64 {
        self.info_bits() as f64 / self.e_bits as f64
    }

    /// The Shannon limit (dB) at this link's spectral efficiency.
    fn shannon_db(&self) -> f64 {
        let eff = self.modulation.bits_per_symbol() as f64 * self.code_rate();
        10.0 * (2f64.powf(eff) - 1.0).log10()
    }

    /// Where the fit puts this link's 50 % point.
    fn fit_threshold_db(&self) -> f64 {
        let bps = self.modulation.bits_per_symbol();
        bler::threshold_db(bps, self.code_rate(), self.fec_iterations)
    }
}

/// How a TB is received: one transmission, or the HARQ retransmission
/// at rv 2 with and without the first one's soft bits.
#[derive(Clone, Copy)]
enum Arm {
    /// rv 0 into a fresh accumulator.
    Single,
    /// rv 0, then rv 2 combined into the same accumulator. rv 2 reads
    /// the circular buffer from its middle, so the pair also carries
    /// coded bits rv 0 alone never sent.
    Chase,
    /// rv 2 alone into a fresh accumulator: the retransmission after
    /// the first one's buffer was discarded.
    Fresh,
}

/// The full chain at a fixed seed: every trial draws fresh noise from
/// one channel.
struct Chain {
    kernels: DspKernels,
    channel: AwgnChannel,
}

impl Chain {
    fn new(seed: u64) -> Chain {
        Chain {
            kernels: DspKernels::detect(),
            channel: AwgnChannel::new(SimRng::new(seed)),
        }
    }

    /// Encode one TB, send it through AWGN at `snr_db` the way `arm`
    /// says, and report whether it decodes.
    fn decodes(&mut self, link: Link, arm: Arm, snr_db: f64) -> bool {
        let bytes = link.payload_bytes;
        let payload: Vec<u8> = (0..bytes as u32).map(|i| (i * 11) as u8).collect();
        let mut acc = vec![0.0; mother_buffer_len(bytes)];
        let rvs: &[u8] = match arm {
            Arm::Single => &[0],
            Arm::Chase => &[0, 2],
            Arm::Fresh => &[2],
        };
        let mut ok = false;
        for &rv in rvs {
            let p = TbParams {
                modulation: link.modulation,
                e_bits: link.e_bits,
                rnti: 1,
                cell_id: 1,
                rv,
                fec_iterations: link.fec_iterations,
            };
            let symbols = self.kernels.encode_tb(&payload, &p);
            let (rx, noise_var) = self.channel.apply(&symbols, snr_db);
            let out = self.kernels.decode_tb(&mut acc, &rx, noise_var, bytes, &p);
            ok = out.payload.is_some();
        }
        ok
    }

    fn bler(&mut self, link: Link, arm: Arm, snr_db: f64, trials: usize) -> f64 {
        let failed = (0..trials).filter(|_| !self.decodes(link, arm, snr_db));
        failed.count() as f64 / trials as f64
    }

    /// Whether more than half of `trials` TBs fail, sending only as
    /// many as it takes to decide that.
    fn mostly_fails(&mut self, link: Link, arm: Arm, snr_db: f64, trials: usize) -> bool {
        let (mut failed, mut decoded) = (0, 0);
        while 2 * failed <= trials && 2 * decoded < trials {
            match self.decodes(link, arm, snr_db) {
                true => decoded += 1,
                false => failed += 1,
            }
        }
        2 * failed > trials
    }

    /// The SNR (dB) where `arm` crosses 50 % BLER on `link`, searched
    /// from the Shannon limit up to 14 dB above it.
    fn fifty_percent_db(&mut self, link: Link, arm: Arm) -> f64 {
        let shannon = link.shannon_db();
        let above = |snr| self.mostly_fails(link, arm, snr, BISECTION_TRIALS);
        fifty_percent_point(shannon, shannon + 14.0, BISECTION_STEPS, above)
    }
}

/// TBs per BLER decision inside the bisection, and its steps: 14 dB
/// halved 8 times is a 0.05 dB bracket, finer than the ~0.1 dB a
/// 40-TB decision moves the 50 % point by from one seed to the next.
const BISECTION_TRIALS: usize = 40;
const BISECTION_STEPS: usize = 8;

/// TBs per point of a BLER-against-SNR curve, and of the sweep the
/// slope is fitted to.
const CURVE_TRIALS: usize = 40;
const SLOPE_TRIALS: usize = 60;

/// The SNR in `[lo, hi]` where a BLER falling in SNR crosses 50 %,
/// given whether it is `above` 50 % at an SNR: the middle of the
/// bracket left after `steps` halvings.
fn fifty_percent_point(
    mut lo: f64,
    mut hi: f64,
    steps: usize,
    mut above: impl FnMut(f64) -> bool,
) -> f64 {
    for _ in 0..steps {
        let mid = (lo + hi) / 2.0;
        if above(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo + hi) / 2.0
}

const MODULATIONS: [(Modulation, &str); 4] = [
    (Modulation::Qpsk, "qpsk"),
    (Modulation::Qam16, "qam16"),
    (Modulation::Qam64, "qam64"),
    (Modulation::Qam256, "qam256"),
];

/// One 1024-bit code block (125 bytes + CRC, the slot pipeline's block
/// size) at code rate ≈ `rate`, e rounded down to whole symbols.
fn grid_link(modulation: Modulation, rate: f64, fec_iterations: usize) -> Link {
    let mut link = Link {
        modulation,
        e_bits: 0,
        fec_iterations,
        payload_bytes: 125,
    };
    let e = (link.info_bits() as f64 / rate) as usize;
    link.e_bits = e - e % modulation.bits_per_symbol();
    link
}

/// An 80-byte TB (664-bit block) at QPSK over 1 336 coded bits: the
/// operating point of the HARQ and waterfall measurements.
fn harq_link(fec_iterations: usize) -> Link {
    Link {
        modulation: Modulation::Qpsk,
        e_bits: 1336,
        fec_iterations,
        payload_bytes: 80,
    }
}

fn bler_model(r: &mut BenchReport) {
    gap_grid(r, &mut Chain::new(SEED));
    let single = harq(r, &mut Chain::new(SEED + 1));
    waterfall(r, &mut Chain::new(SEED + 2), single);
}

/// The measured 50 % point against `threshold_db` over iterations ×
/// modulation × rate.
fn gap_grid(r: &mut BenchReport, chain: &mut Chain) {
    let (mut misses, mut by_bps, mut by_iters) = (Vec::new(), Vec::new(), Vec::new());
    for iters in [4, 8, 16] {
        let mut worst = 0f64;
        for (modulation, name) in MODULATIONS {
            let mut gaps = Vec::new();
            for rate in [0.4, 0.5, 0.6, 0.7, 0.8] {
                let link = grid_link(modulation, rate, iters);
                let measured = chain.fifty_percent_db(link, Arm::Single);
                let gap = measured - link.shannon_db();
                let miss = measured - link.fit_threshold_db();
                worst = worst.max(miss.abs());
                misses.push(miss);
                gaps.push((rate, gap));
                if rate == 0.5 && iters == 8 {
                    by_bps.push((modulation.bits_per_symbol() as f64, gap));
                }
                if rate == 0.5 && modulation == Modulation::Qpsk {
                    by_iters.push((1.0 / iters as f64, gap));
                }
            }
            r.series_dp(&format!("gap_db:i{iters}/{name}"), gaps, (1, 2));
        }
        r.scalar_of("gap_error_db_max", format!("i{iters}"), worst, 2);
    }
    let worst = misses.iter().fold(0f64, |w, m| w.max(m.abs()));
    r.scalar_dp("gap_error_db_max", worst, 2);
    r.scalar_dp("gap_error_db_mean", mean(&misses), 2);
    r.series_dp("gap_db_by_bits_per_symbol:r0.5/i8", by_bps, (0, 2));
    by_iters.reverse();
    r.series_dp("gap_db_by_inverse_iterations:qpsk/r0.5", by_iters, (4, 2));
}

/// The three arms' 50 % points on the HARQ link: chase combining
/// against the fit's 3.01 dB, and what a discarded buffer costs the
/// retransmission that follows it. Returns the single arm's.
fn harq(r: &mut BenchReport, chain: &mut Chain) -> f64 {
    let link = harq_link(8);
    let arms = [
        (Arm::Single, "single"),
        (Arm::Chase, "chase"),
        (Arm::Fresh, "fresh"),
    ];
    let mut points = Vec::new();
    for (arm, name) in arms {
        let at = chain.fifty_percent_db(link, arm);
        r.scalar_of("fifty_pct_snr_db", name, at, 2);
        let snrs = (-2..=10).map(|i| i as f64 * 0.5);
        let curve: Vec<(f64, f64)> = snrs
            .map(|s| (s, chain.bler(link, arm, s, CURVE_TRIALS)))
            .collect();
        r.series_dp(&format!("bler:{name}/qpsk/e1336/i8"), curve, (1, 3));
        points.push(at);
    }
    let (single, chase, fresh) = (points[0], points[1], points[2]);
    // The fit has no redundancy versions: a retransmission decoded
    // without the first one's soft bits is a first transmission again,
    // so it prices a discarded buffer at the combining gain.
    let fit_gain = bler::combined_snr_db(&[0.0, 0.0]);
    r.scalar_dp("fit_chase_gain_db", fit_gain, 2);
    r.scalar_dp("chase_gain_db", single - chase, 2);
    r.scalar_dp("chase_gain_over_fit", (single - chase) / fit_gain, 3);
    r.scalar_dp("discard_cost_db", fresh - chase, 2);
    r.scalar_dp("discard_cost_over_fit", (fresh - chase) / fit_gain, 3);
    single
}

/// BLER against SNR on the HARQ link at 2, 8 and 16 iterations, and
/// the 8-iteration waterfall's slope at its 50 % point `middle`
/// against the fit's.
fn waterfall(r: &mut BenchReport, chain: &mut Chain, middle: f64) {
    for iters in [2, 8, 16] {
        let link = harq_link(iters);
        let curve: Vec<(f64, f64)> = (1..=8)
            .map(f64::from)
            .map(|s| (s, chain.bler(link, Arm::Single, s, CURVE_TRIALS)))
            .collect();
        r.series_dp(&format!("bler:i{iters}/qpsk/e1336"), curve, (1, 3));
    }
    let link = harq_link(8);
    let sweep: Vec<(f64, f64)> = (-6..=6)
        .map(|i| i as f64 * 0.25)
        .map(|d| (d, chain.bler(link, Arm::Single, middle + d, SLOPE_TRIALS)))
        .collect();
    let slope = logistic_slope(&sweep, SLOPE_TRIALS);
    // The fit's own slope, read back from `bler::bler` one dB above its
    // threshold: ln((1 − p) / p) there is exactly its steepness.
    let (bps, rate) = (link.modulation.bits_per_symbol(), link.code_rate());
    let above = link.fit_threshold_db() + 1.0;
    let p = bler::bler(above, bps, rate, link.info_bits(), link.fec_iterations);
    let fit_slope = ((1.0 - p) / p).ln();
    r.scalar_dp("slope_per_db", slope, 2);
    r.scalar_dp("fit_slope_per_db", fit_slope, 2);
    r.scalar_dp("slope_over_fit", slope / fit_slope, 3);
    r.series_dp("bler_around_50pct:i8/qpsk/e1336", sweep, (2, 3));
}

/// The `a` of `BLER = 1 / (1 + e^(a·(snr − th)))` that fits `points`:
/// a least-squares line through `ln((1 − p) / p)`, each point weighted
/// by the inverse variance of that log-odds from `trials` TBs. Points
/// at 0 or 1 carry no log-odds and are left out.
fn logistic_slope(points: &[(f64, f64)], trials: usize) -> f64 {
    let inside = points.iter().filter(|(_, p)| *p > 0.0 && *p < 1.0);
    let weighted: Vec<(f64, f64, f64)> = inside
        .map(|&(x, p)| (x, ((1.0 - p) / p).ln(), trials as f64 * p * (1.0 - p)))
        .collect();
    let sum = |f: &dyn Fn(&(f64, f64, f64)) -> f64| weighted.iter().map(f).sum::<f64>();
    let w = sum(&|p| p.2);
    let (mx, my) = (sum(&|p| p.2 * p.0) / w, sum(&|p| p.2 * p.1) / w);
    let sxy = sum(&|p| p.2 * (p.0 - mx) * (p.1 - my));
    let sxx = sum(&|p| p.2 * (p.0 - mx).powi(2));
    sxy / sxx
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The search and the slope fit on a noiseless logistic BLER, no
    /// LDPC: the bisection lands within one step of the midpoint and
    /// the fit gives back the slope.
    #[test]
    fn bisection_and_slope_fit_recover_a_known_logistic() {
        let (lo, hi) = (-3.0, 11.0);
        let step = (hi - lo) / (1 << BISECTION_STEPS) as f64;
        for (midpoint, slope) in [(3.3, 2.5), (-2.9, 0.7), (10.2, 8.0), (4.0, 1.0)] {
            let logistic = |snr: f64| 1.0 / (1.0 + (slope * (snr - midpoint)).exp());
            let found = fifty_percent_point(lo, hi, BISECTION_STEPS, |s| logistic(s) > 0.5);
            assert!(
                (found - midpoint).abs() <= step,
                "midpoint {midpoint}: found {found}, step {step}"
            );
            let sweep: Vec<(f64, f64)> = (-6..=6)
                .map(|i| midpoint + i as f64 * 0.25)
                .map(|s| (s, logistic(s)))
                .collect();
            let fitted = logistic_slope(&sweep, SLOPE_TRIALS);
            assert!(
                (fitted - slope).abs() < 1e-6,
                "slope {slope}: fitted {fitted}"
            );
        }
    }
}
