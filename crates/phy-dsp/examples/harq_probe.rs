//! Dev probe: HARQ combining success rates for test calibration.
use slingshot_phy_dsp::channel::AwgnChannel;
use slingshot_phy_dsp::modulation::Modulation;
use slingshot_phy_dsp::tbchain::{mother_buffer_len, TbParams};
use slingshot_phy_dsp::DspKernels;
use slingshot_sim::SimRng;

fn main() {
    let kernels = DspKernels::detect();
    let data: Vec<u8> = (0..80u32).map(|i| (i * 7) as u8).collect();
    let e = 1336usize;
    let mut ch = AwgnChannel::new(SimRng::new(9));
    for snr10 in [0i32, 10, 15, 20, 25, 30, 35] {
        let snr = snr10 as f64 / 10.0;
        let trials = 40;
        let (mut s_ok, mut c_ok, mut d_ok) = (0, 0, 0);
        for _ in 0..trials {
            let p0 = TbParams {
                modulation: Modulation::Qpsk,
                e_bits: e,
                rnti: 1,
                cell_id: 1,
                rv: 0,
                fec_iterations: 8,
            };
            let syms0 = kernels.encode_tb(&data, &p0);
            let (rx0, nv0) = ch.apply(&syms0, snr);
            let mut acc = vec![0.0; mother_buffer_len(data.len())];
            if kernels
                .decode_tb(&mut acc, &rx0, nv0, data.len(), &p0)
                .payload
                .is_some()
            {
                s_ok += 1;
            }
            let p1 = TbParams {
                rv: 2,
                ..p0.clone()
            };
            let syms1 = kernels.encode_tb(&data, &p1);
            let (rx1, nv1) = ch.apply(&syms1, snr);
            if kernels
                .decode_tb(&mut acc, &rx1, nv1, data.len(), &p1)
                .payload
                .is_some()
            {
                c_ok += 1;
            }
            // discarded buffer: decode 2nd tx alone
            let syms2 = kernels.encode_tb(&data, &p1);
            let (rx2, nv2) = ch.apply(&syms2, snr);
            let mut fresh = vec![0.0; mother_buffer_len(data.len())];
            if kernels
                .decode_tb(&mut fresh, &rx2, nv2, data.len(), &p1)
                .payload
                .is_some()
            {
                d_ok += 1;
            }
        }
        println!("snr={snr:+.1} single={s_ok}/{trials} combined={c_ok}/{trials} discarded={d_ok}/{trials}");
    }
}
