//! Dev probe: 50%-BLER gap from Shannon vs (code rate, modulation, iters).
use slingshot_phy_dsp::channel::AwgnChannel;
use slingshot_phy_dsp::modulation::Modulation;
use slingshot_phy_dsp::tbchain::{mother_buffer_len, TbParams};
use slingshot_phy_dsp::DspKernels;
use slingshot_sim::SimRng;

fn bler_at(
    kernels: DspKernels,
    m: Modulation,
    e: usize,
    snr: f64,
    iters: usize,
    ch: &mut AwgnChannel,
    payload: &[u8],
) -> f64 {
    let trials = 30;
    let mut fails = 0;
    for _ in 0..trials {
        let p = TbParams {
            modulation: m,
            e_bits: e,
            rnti: 1,
            cell_id: 1,
            rv: 0,
            fec_iterations: iters,
        };
        let syms = kernels.encode_tb(payload, &p);
        let (rx, nv) = ch.apply(&syms, snr);
        let mut acc = vec![0.0; mother_buffer_len(payload.len())];
        if kernels
            .decode_tb(&mut acc, &rx, nv, payload.len(), &p)
            .payload
            .is_none()
        {
            fails += 1;
        }
    }
    fails as f64 / trials as f64
}

fn main() {
    let kernels = DspKernels::detect();
    let payload: Vec<u8> = (0..125u32).map(|i| (i * 11) as u8).collect();
    let mut ch = AwgnChannel::new(SimRng::new(42));
    for iters in [4usize, 8, 16] {
        for (m, bps) in [
            (Modulation::Qpsk, 2usize),
            (Modulation::Qam16, 4),
            (Modulation::Qam64, 6),
            (Modulation::Qam256, 8),
        ] {
            print!("iters={iters:2} {m:?}: ");
            for rate_pct in [40usize, 50, 60, 70, 80] {
                let mut e = 1024 * 100 / rate_pct;
                e -= e % bps;
                let eff = 1024.0 / (e as f64 / bps as f64);
                let shannon = 10.0 * (2f64.powf(eff) - 1.0).log10();
                // bisect the 50% point
                let (mut lo, mut hi) = (shannon, shannon + 14.0);
                for _ in 0..9 {
                    let mid = (lo + hi) / 2.0;
                    if bler_at(kernels, m, e, mid, iters, &mut ch, &payload) > 0.5 {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                print!("r{rate_pct}:gap{:+.1} ", (lo + hi) / 2.0 - shannon);
            }
            println!();
        }
    }
}
