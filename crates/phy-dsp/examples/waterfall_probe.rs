//! Dev probe: measure the full-chain waterfall to calibrate tests/model.
use slingshot_phy_dsp::channel::AwgnChannel;
use slingshot_phy_dsp::modulation::Modulation;
use slingshot_phy_dsp::tbchain::{mother_buffer_len, TbParams};
use slingshot_phy_dsp::DspKernels;
use slingshot_sim::SimRng;

fn main() {
    let kernels = DspKernels::detect();
    let payload: Vec<u8> = (0..80u32).map(|i| (i * 11) as u8).collect();
    let e_bits = 1336usize;
    let mut ch = AwgnChannel::new(SimRng::new(42));
    for iters in [2usize, 8, 16] {
        print!("iters={iters:2} ");
        for snr10 in (-40..=80).step_by(10) {
            let snr = snr10 as f64 / 10.0;
            let trials = 60;
            let mut fails = 0;
            for _ in 0..trials {
                let p = TbParams {
                    modulation: Modulation::Qpsk,
                    e_bits,
                    rnti: 1,
                    cell_id: 1,
                    rv: 0,
                    fec_iterations: iters,
                };
                let syms = kernels.encode_tb(&payload, &p);
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
            print!("{snr:+.1}:{:.2} ", fails as f64 / trials as f64);
        }
        println!();
    }
}
