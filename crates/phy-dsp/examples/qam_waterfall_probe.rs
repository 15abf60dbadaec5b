//! Dev probe: real-chain BLER vs SNR for each modulation at ~rate 2/3,
//! k=1024-bit blocks, to calibrate the BLER model's per-modulation loss.
use slingshot_phy_dsp::channel::AwgnChannel;
use slingshot_phy_dsp::modulation::Modulation;
use slingshot_phy_dsp::tbchain::{mother_buffer_len, TbParams};
use slingshot_phy_dsp::DspKernels;
use slingshot_sim::SimRng;

fn main() {
    let kernels = DspKernels::detect();
    let payload: Vec<u8> = (0..125u32).map(|i| (i * 11) as u8).collect(); // 1024 info bits
    let mut ch = AwgnChannel::new(SimRng::new(42));
    for (m, bps) in [
        (Modulation::Qpsk, 2),
        (Modulation::Qam16, 4),
        (Modulation::Qam64, 6),
        (Modulation::Qam256, 8),
    ] {
        // rate 2/3: e = 1536 bits, rounded to bps multiple
        let mut e = 1536usize;
        e -= e % bps;
        let eff = 1024.0 / (e as f64 / bps as f64);
        let shannon = 10.0 * ((2f64.powf(eff) - 1.0).log10());
        print!("{m:?} eff={eff:.2} shannon={shannon:+.1}dB | ");
        for snr_i in 0..14 {
            let snr = shannon + snr_i as f64 * 0.5 + 1.0;
            let trials = 40;
            let mut fails = 0;
            for _ in 0..trials {
                let p = TbParams {
                    modulation: m,
                    e_bits: e,
                    rnti: 1,
                    cell_id: 1,
                    rv: 0,
                    fec_iterations: 8,
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
            print!("{:+.1}:{:.2} ", snr - shannon, fails as f64 / trials as f64);
        }
        println!();
    }
}
