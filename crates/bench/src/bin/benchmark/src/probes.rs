//! Per-layer probes: each times one layer's public function from the
//! benchmark, on inputs shaped like the workload's (its code-block
//! size, modulation, PRB count, enrolled-PHY count, UE count, and LLRs
//! drawn at its SNR). The layer table multiplies these per-op times by
//! the counts the traced repetition produced.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use slingshot::FhMbox;
use slingshot_fapi::{mcs, mcs_for_snr, tbs_bytes, DlTtiRequest, FapiMsg, PdschPdu};
use slingshot_fronthaul::{fh_header, peek_headers, Direction, FhMessage, UPlaneMsg};
use slingshot_netsim::{EtherType, Frame, MacAddr};
use slingshot_phy_dsp::crc::attach_crc24a;
use slingshot_phy_dsp::modulation::modulate_packed_into;
use slingshot_phy_dsp::ratematch::rate_match_packed;
use slingshot_phy_dsp::scramble::{cached_sequence, scramble_packed, GoldSequence};
use slingshot_phy_dsp::tbchain::segment_sizes;
use slingshot_phy_dsp::{
    mother_buffer_len, AwgnChannel, BitBuf, Cplx, DspKernels, LdpcCode, TbParams, SC_PER_PRB,
};
use slingshot_ran::rlc::{RlcRx, RlcTx};
use slingshot_ran::{Fidelity, Policy, Scheduler};
use slingshot_sim::{CalendarQueue, Nanos, SimRng, SlotId, SLOT_DURATION};
use slingshot_switch::{PktGenConfig, PortId, SwitchProgram};

use crate::spans::Spans;
use crate::workloads::Inputs;

/// The probe inputs' shape, read off a workload's inputs.
#[derive(Debug, Clone)]
pub struct Shape {
    pub snr_db: f64,
    pub mcs: u8,
    pub num_prb: u16,
    pub data_symbols: u8,
    /// MAC transport-block size at this MCS and allocation.
    pub tb_bytes: usize,
    /// What the DSP chain actually codes per TB: the whole block at
    /// Full fidelity, one representative code block at Sampled.
    pub chain_bytes: usize,
    pub chain_e_bits: usize,
    pub fec_iterations: usize,
    pub cell_id: u16,
    pub rus: u8,
    pub phys: u8,
    pub ues_per_cell: usize,
    pub seed: u64,
}

impl Shape {
    pub fn of(inputs: &Inputs) -> Shape {
        let cell = &inputs.cfg.cell;
        let ues_per_cell = inputs.ues.len().div_ceil(inputs.cells).max(1);
        // The median UE: on full_mixed that is the 19.5 dB handset.
        let mut snrs: Vec<f64> = inputs.ues.iter().map(|u| u.snr.mean_db).collect();
        snrs.sort_by(|a, b| a.partial_cmp(b).expect("SNRs are finite"));
        let snr_db = snrs[snrs.len() / 2];
        let mcs = mcs_for_snr(snr_db, cell.la_margin_db, cell.fec_iterations);
        let num_prb = (cell.num_prbs / ues_per_cell as u16).max(1);
        let spares = inputs.cfg.spare_pool;
        let tb_bytes = tbs_bytes(mcs, num_prb, cell.data_symbols).max(8);
        let e_bits = slingshot_fapi::e_bits(mcs, num_prb, cell.data_symbols);
        let (chain_bytes, chain_e_bits) = match cell.fidelity {
            // `ran::fidelity` codes one block of at most this many bytes
            // and scales the coded-bit budget with it (the cap is private
            // there, so it is restated here).
            Fidelity::Sampled => {
                const SAMPLED_PAYLOAD_CAP: usize = 125;
                let rep = tb_bytes.min(SAMPLED_PAYLOAD_CAP);
                let bps = slingshot_fapi::mcs(mcs).modulation.bits_per_symbol();
                let e_rep = e_bits * ((rep + 3) * 8) / ((tb_bytes + 3) * 8);
                (rep, (e_rep - e_rep % bps).max(bps))
            }
            Fidelity::Full | Fidelity::Abstract => (tb_bytes, e_bits),
        };
        Shape {
            snr_db,
            mcs,
            num_prb,
            data_symbols: cell.data_symbols,
            tb_bytes,
            chain_bytes,
            chain_e_bits,
            fec_iterations: cell.fec_iterations,
            cell_id: cell.cell_id,
            rus: inputs.cells.min(120) as u8,
            phys: (2 * inputs.cells + spares).min(250) as u8,
            ues_per_cell,
            seed: inputs.cfg.seed,
        }
    }

    pub fn tb_params(&self) -> TbParams {
        TbParams {
            modulation: mcs(self.mcs).modulation,
            e_bits: self.chain_e_bits,
            rnti: 100,
            cell_id: self.cell_id,
            rv: 0,
            fec_iterations: self.fec_iterations,
        }
    }

    /// Info bits of the first code block the chain codes.
    pub fn cb_info_bits(&self) -> usize {
        segment_sizes((self.chain_bytes + 3) * 8)[0]
    }

    pub fn code_blocks_per_tb(&self) -> usize {
        segment_sizes((self.chain_bytes + 3) * 8).len()
    }
}

/// Per-op host times, one field per probe.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    pub equeue_push_ns: f64,
    pub equeue_pop_ns: f64,
    pub fh_encode_ns: f64,
    pub fh_decode_ns: f64,
    pub fh_peek_ns: f64,
    pub bfp_compress_ns_per_prb: f64,
    pub bfp_decompress_ns_per_prb: f64,
    pub fapi_encode_ns: f64,
    pub fapi_decode_ns: f64,
    pub mbox_ul_fwd_ns: f64,
    pub mbox_dl_fwd_ns: f64,
    pub mbox_dl_filter_ns: f64,
    pub mbox_tick_ns: f64,
    pub ldpc_decode_us_per_cb: f64,
    pub ldpc_iters_mean: f64,
    pub ldpc_encode_us_per_cb: f64,
    pub demap_ns_per_sym: f64,
    pub modulate_ns_per_sym: f64,
    pub scramble_ns_per_kbit: f64,
    pub crc24a_ns_per_kb: f64,
    pub ratematch_ns_per_kbit: f64,
    pub awgn_ns_per_sample: f64,
    pub encode_tb_us: f64,
    pub decode_tb_us: f64,
    pub sched_ul_grant_ns: f64,
    pub sched_dl_assign_ns: f64,
    pub rlc_build_tb_ns: f64,
    pub rlc_on_tb_ns: f64,
}

/// Mean ns per call of `op`, repeated until `budget` elapses (at least
/// three calls after one warm-up call that fills lazy tables).
fn time_ns<F: FnMut()>(budget: Duration, mut op: F) -> f64 {
    op();
    let started = Instant::now();
    let mut runs = 0u64;
    while runs < 3 || started.elapsed() < budget {
        op();
        runs += 1;
    }
    started.elapsed().as_nanos() as f64 / runs as f64
}

fn random_bytes(rng: &mut SimRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn random_bits(rng: &mut SimRng, bits: usize) -> BitBuf {
    let mut buf = BitBuf::with_capacity(bits);
    for _ in 0..bits {
        buf.push((rng.next_u64() & 1) as u8);
    }
    buf
}

/// Run every probe; `budget` is the total host time to spend.
pub fn run(shape: &Shape, budget: Duration, spans: &Spans) -> Probes {
    let _all = spans.enter("probes");
    // 28 timed loops share the budget.
    let each = budget / 28;
    let kernels = DspKernels::detect();
    let mut rng = SimRng::new(shape.seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut p = Probes::default();

    {
        let _s = spans.enter("probe.sim.equeue");
        (p.equeue_push_ns, p.equeue_pop_ns) = probe_equeue(shape, each, &mut rng);
    }
    {
        let _s = spans.enter("probe.fronthaul.messages");
        let samples: [Cplx; SC_PER_PRB] =
            std::array::from_fn(|_| Cplx::new(rng.gaussian() as f32, rng.gaussian() as f32));
        let msg = FhMessage::UPlane(UPlaneMsg {
            hdr: fh_header(Direction::Uplink, SlotId::from_absolute(1234), 3, 0),
            start_prb: 0,
            prbs: vec![kernels.bfp_compress(&samples); shape.num_prb as usize],
        });
        let bytes = msg.to_bytes();
        p.fh_encode_ns = time_ns(each, || {
            black_box(black_box(&msg).to_bytes());
        });
        p.fh_decode_ns = time_ns(each, || {
            black_box(FhMessage::from_bytes(black_box(&bytes)));
        });
        p.fh_peek_ns = time_ns(each, || {
            black_box(peek_headers(black_box(&bytes)));
        });
        drop(_s);
        let _s = spans.enter("probe.fronthaul.bfp");
        p.bfp_compress_ns_per_prb = time_ns(each, || {
            black_box(kernels.bfp_compress(black_box(&samples)));
        });
        let prb = kernels.bfp_compress(&samples);
        p.bfp_decompress_ns_per_prb = time_ns(each, || {
            black_box(kernels.bfp_decompress(black_box(&prb)));
        });
    }
    {
        let _s = spans.enter("probe.fapi.codec");
        let msg = FapiMsg::DlTti(DlTtiRequest {
            ru_id: 0,
            slot: SlotId::from_absolute(99),
            pdsch: (0..shape.ues_per_cell)
                .map(|i| PdschPdu {
                    rnti: 100 + i as u16,
                    harq_id: 1,
                    ndi: true,
                    rv: 0,
                    mcs: shape.mcs,
                    start_prb: i as u16 * shape.num_prb,
                    num_prb: shape.num_prb,
                    tb_bytes: shape.tb_bytes as u32,
                })
                .collect(),
        });
        let bytes = slingshot_fapi::encode(&msg);
        p.fapi_encode_ns = time_ns(each, || {
            black_box(slingshot_fapi::encode(black_box(&msg)));
        });
        p.fapi_decode_ns = time_ns(each, || {
            black_box(slingshot_fapi::decode(black_box(&bytes)));
        });
    }
    {
        let _s = spans.enter("probe.core.fh_mbox");
        probe_mbox(shape, each, &mut p);
    }
    {
        let _s = spans.enter("probe.phy_dsp");
        probe_dsp(shape, each, kernels, &mut rng, &mut p);
    }
    {
        let _s = spans.enter("probe.ran.sched");
        let mut sched = Scheduler::new(Policy::RoundRobin, 2.0, shape.fec_iterations);
        for i in 0..shape.ues_per_cell {
            sched.add_ue(100 + i as u16, shape.snr_db);
        }
        // A grant occupies a HARQ process until its CRC arrives, so the
        // timed unit is the grant + CRC-ack cycle the L2 runs per TB.
        p.sched_ul_grant_ns = time_ns(each, || {
            if let Some(g) = sched.ul_grant(100, 0, shape.num_prb, shape.data_symbols) {
                black_box(sched.on_ul_crc(100, g.pdu.harq_id, true, shape.snr_db));
            }
        });
        let payload = Bytes::from(vec![0u8; shape.tb_bytes]);
        p.sched_dl_assign_ns = time_ns(each, || {
            let got = sched.dl_assign(100, 0, shape.num_prb, shape.data_symbols, |_| {
                Some(payload.clone())
            });
            if let Some((pdu, _)) = got {
                black_box(sched.on_dl_ack(100, pdu.harq_id, true));
            }
        });
    }
    {
        let _s = spans.enter("probe.ran.rlc");
        let packet = Bytes::from(random_bytes(&mut rng, 1000));
        let mut tx = RlcTx::new();
        let mut tbs: Vec<Bytes> = Vec::new();
        p.rlc_build_tb_ns = time_ns(each, || {
            while tx.backlog() < 2 * shape.tb_bytes {
                tx.enqueue(packet.clone());
            }
            if let Some(tb) = tx.build_tb(shape.tb_bytes) {
                if tbs.len() < 256 {
                    tbs.push(tb);
                }
            }
        });
        let mut rx = RlcRx::unordered();
        let mut i = 0;
        p.rlc_on_tb_ns = time_ns(each, || {
            black_box(rx.on_tb(Nanos(i as u64), &tbs[i % tbs.len()]));
            i += 1;
        });
    }
    p
}

/// Steady-state queue at the engine's working-set size: every pop is
/// followed by a push one to two slots ahead, as timers and link
/// deliveries do.
fn probe_equeue(shape: &Shape, each: Duration, rng: &mut SimRng) -> (f64, f64) {
    let depth = 64 * shape.rus as usize;
    let mut q: CalendarQueue<u64> = CalendarQueue::new();
    let mut seq = 0u64;
    for _ in 0..depth {
        q.push(Nanos(rng.below(2 * SLOT_DURATION.0)), seq, seq);
        seq += 1;
    }
    let batch = depth.max(64);
    let mut popped: Vec<u64> = Vec::with_capacity(batch);
    let (mut push_ns, mut pop_ns, mut ops) = (0u128, 0u128, 0u64);
    let started = Instant::now();
    while ops == 0 || started.elapsed() < 2 * each {
        let t = Instant::now();
        for _ in 0..batch {
            let (at, _, v) = q
                .pop_le(Nanos(u64::MAX))
                .expect("queue holds `depth` events");
            popped.push(at.0 + black_box(v) % 7);
        }
        pop_ns += t.elapsed().as_nanos();
        let deltas: Vec<u64> = (0..batch)
            .map(|_| SLOT_DURATION.0 + rng.below(SLOT_DURATION.0))
            .collect();
        let t = Instant::now();
        for (at, d) in popped.drain(..).zip(deltas) {
            q.push(Nanos(at + d), seq, seq);
            seq += 1;
        }
        push_ns += t.elapsed().as_nanos();
        ops += batch as u64;
    }
    (push_ns as f64 / ops as f64, pop_ns as f64 / ops as f64)
}

/// The middlebox with this workload's RU and enrolled-PHY counts. RU
/// `r` is served by PHY `2r`; every PHY is enrolled in the detector.
fn probe_mbox(shape: &Shape, each: Duration, p: &mut Probes) {
    let build = || {
        let mut m = FhMbox::new(PktGenConfig::paper_default(), MacAddr::for_l2(0));
        for r in 0..shape.rus {
            m.install_ru(r, MacAddr::for_ru(r), PortId(r as u16), 2 * r);
        }
        for phy in 0..shape.phys {
            m.install_phy(phy, MacAddr::for_phy(phy), PortId(300 + phy as u16));
            m.enroll_failure_detection(phy);
        }
        m.install_host(MacAddr::for_l2(0), PortId(999));
        m
    };
    let kernels = DspKernels::detect();
    let samples = [Cplx::new(0.3, -0.2); SC_PER_PRB];
    let ul = Frame::new(
        MacAddr::virtual_phy(0),
        MacAddr::for_ru(0),
        EtherType::Ecpri,
        FhMessage::UPlane(UPlaneMsg {
            hdr: fh_header(Direction::Uplink, SlotId::from_absolute(1234), 3, 0),
            start_prb: 0,
            prbs: vec![kernels.bfp_compress(&samples); shape.num_prb as usize],
        })
        .to_bytes(),
    );
    let dl = |phy: u8| {
        Frame::new(
            MacAddr::for_ru(0),
            MacAddr::for_phy(phy),
            EtherType::Ecpri,
            FhMessage::CPlane(slingshot_fronthaul::CPlaneMsg {
                hdr: fh_header(Direction::Downlink, SlotId::from_absolute(1234), 0, 0),
                sections: vec![],
            })
            .to_bytes(),
        )
    };
    // As SwitchNode does, drain the staged trace after every call.
    let mut m = build();
    p.mbox_ul_fwd_ns = time_ns(each, || {
        black_box(m.process(Nanos(0), PortId(0), black_box(ul.clone())));
        black_box(m.drain_trace());
    });
    let (active, standby) = (dl(0), dl(1));
    p.mbox_dl_fwd_ns = time_ns(each, || {
        black_box(m.process(Nanos(0), PortId(300), black_box(active.clone())));
        black_box(m.drain_trace());
    });
    p.mbox_dl_filter_ns = time_ns(each, || {
        black_box(m.process(Nanos(0), PortId(301), black_box(standby.clone())));
        black_box(m.drain_trace());
    });
    // Arm every detector with one heartbeat, then tick at a fixed
    // instant: the healthy-fleet scan, which is what runs 111 times a slot.
    let mut m = build();
    for phy in 0..shape.phys {
        m.process(Nanos(0), PortId(300 + phy as u16), dl(phy));
    }
    m.drain_trace();
    p.mbox_tick_ns = time_ns(each, || {
        black_box(m.on_generator_tick(black_box(Nanos(0))));
        black_box(m.drain_trace());
    });
}

fn probe_dsp(shape: &Shape, each: Duration, kernels: DspKernels, rng: &mut SimRng, p: &mut Probes) {
    let tp = shape.tb_params();
    let bps = tp.modulation.bits_per_symbol();
    let payload = random_bytes(rng, shape.chain_bytes);
    let cbs = shape.code_blocks_per_tb() as f64;

    // TB chain, and LDPC's share of it as the chain itself reports it.
    p.encode_tb_us = time_ns(each, || {
        black_box(kernels.encode_tb(black_box(&payload), &tp));
    }) / 1e3;
    let tx = kernels.encode_tb(&payload, &tp);
    let mut channel = AwgnChannel::new(SimRng::new(shape.seed ^ 0xa17));
    let receptions: Vec<(Vec<Cplx>, f32)> = (0..4)
        .map(|_| kernels.awgn_apply(&mut channel, &tx, shape.snr_db))
        .collect();
    let acc_len = mother_buffer_len(shape.chain_bytes);
    let (mut ldpc_ns, mut iters, mut tbs, mut i) = (0u64, 0usize, 0u64, 0usize);
    p.decode_tb_us = time_ns(2 * each, || {
        let (rx, nv) = &receptions[i % receptions.len()];
        let mut acc = vec![0.0f32; acc_len];
        let out = kernels.decode_tb(&mut acc, black_box(rx), *nv, shape.chain_bytes, &tp);
        ldpc_ns += out.ldpc_ns;
        iters += out.ldpc_iterations;
        tbs += 1;
        i += 1;
        black_box(out.payload);
    }) / 1e3;
    p.ldpc_decode_us_per_cb = ldpc_ns as f64 / tbs as f64 / cbs / 1e3;
    p.ldpc_iters_mean = iters as f64 / tbs as f64 / cbs;

    let k = shape.cb_info_bits();
    let code = LdpcCode::new(k);
    let info = random_bits(rng, k);
    let mut cw = BitBuf::with_capacity(code.n());
    p.ldpc_encode_us_per_cb = time_ns(each, || {
        cw.clear();
        code.encode_packed(black_box(&info), &mut cw);
        black_box(&cw);
    }) / 1e3;

    let e_bits = tp.e_bits;
    let coded = random_bits(rng, e_bits);
    let mut syms: Vec<Cplx> = Vec::new();
    p.modulate_ns_per_sym = time_ns(each, || {
        syms.clear();
        modulate_packed_into(black_box(&coded), tp.modulation, &mut syms);
        black_box(&syms);
    }) / (e_bits / bps) as f64;
    let (rx, nv) = &receptions[0];
    let mut llrs: Vec<f32> = Vec::new();
    p.demap_ns_per_sym = time_ns(each, || {
        kernels.demodulate_llr_into(black_box(rx), tp.modulation, *nv, &mut llrs);
        black_box(&llrs);
    }) / rx.len() as f64;

    let seq = cached_sequence(GoldSequence::c_init_data(tp.rnti, tp.cell_id), e_bits);
    let mut bits = coded.clone();
    p.scramble_ns_per_kbit = time_ns(each, || {
        scramble_packed(black_box(&mut bits), &seq, 0);
    }) / (e_bits as f64 / 1e3);
    p.crc24a_ns_per_kb = time_ns(each, || {
        black_box(attach_crc24a(black_box(&payload)));
    }) / (shape.chain_bytes as f64 / 1e3);
    let mut matched = BitBuf::with_capacity(e_bits);
    p.ratematch_ns_per_kbit = time_ns(each, || {
        matched.clear();
        rate_match_packed(black_box(&cw), e_bits, 0, &mut matched);
        black_box(&matched);
    }) / (e_bits as f64 / 1e3);
    p.awgn_ns_per_sample = time_ns(each, || {
        black_box(kernels.awgn_apply(&mut channel, black_box(&tx), shape.snr_db));
    }) / tx.len() as f64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{generate, Scale, Workload};

    #[test]
    fn shape_follows_the_workload() {
        let ul = Shape::of(&generate(Workload::FullUl, 4242, Scale::Full));
        assert_eq!(
            (ul.rus, ul.phys, ul.ues_per_cell, ul.num_prb),
            (4, 8, 1, 51)
        );
        let mixed = Shape::of(&generate(Workload::FullMixed, 4242, Scale::Full));
        assert_eq!((mixed.ues_per_cell, mixed.num_prb), (3, 17));
        assert!(mixed.snr_db < ul.snr_db && mixed.mcs < ul.mcs);
        let pool = Shape::of(&generate(Workload::Failover, 4242, Scale::Full));
        assert_eq!(pool.phys, 10);
        assert!(ul.tb_bytes > mixed.tb_bytes);
        assert_eq!(
            (ul.chain_bytes, ul.code_blocks_per_tb() > 1),
            (ul.tb_bytes, true)
        );
        // Sampled fidelity codes one representative block per TB.
        assert_eq!((pool.chain_bytes, pool.code_blocks_per_tb()), (125, 1));
        assert!(
            pool.chain_e_bits < slingshot_fapi::e_bits(pool.mcs, pool.num_prb, pool.data_symbols)
        );
    }

    #[test]
    fn every_probe_reports_a_positive_time() {
        let shape = Shape::of(&generate(Workload::FullMixed, 7, Scale::Check));
        let p = run(&shape, Duration::from_millis(30), &Spans::disabled());
        for (name, v) in [
            ("push", p.equeue_push_ns),
            ("pop", p.equeue_pop_ns),
            ("fh_encode", p.fh_encode_ns),
            ("fh_decode", p.fh_decode_ns),
            ("fh_peek", p.fh_peek_ns),
            ("bfp_c", p.bfp_compress_ns_per_prb),
            ("bfp_d", p.bfp_decompress_ns_per_prb),
            ("fapi_e", p.fapi_encode_ns),
            ("fapi_d", p.fapi_decode_ns),
            ("ul_fwd", p.mbox_ul_fwd_ns),
            ("dl_fwd", p.mbox_dl_fwd_ns),
            ("dl_filter", p.mbox_dl_filter_ns),
            ("tick", p.mbox_tick_ns),
            ("ldpc_dec", p.ldpc_decode_us_per_cb),
            ("ldpc_enc", p.ldpc_encode_us_per_cb),
            ("demap", p.demap_ns_per_sym),
            ("modulate", p.modulate_ns_per_sym),
            ("scramble", p.scramble_ns_per_kbit),
            ("crc", p.crc24a_ns_per_kb),
            ("ratematch", p.ratematch_ns_per_kbit),
            ("awgn", p.awgn_ns_per_sample),
            ("encode_tb", p.encode_tb_us),
            ("decode_tb", p.decode_tb_us),
            ("ul_grant", p.sched_ul_grant_ns),
            ("dl_assign", p.sched_dl_assign_ns),
            ("build_tb", p.rlc_build_tb_ns),
            ("on_tb", p.rlc_on_tb_ns),
        ] {
            assert!(v > 0.0 && v.is_finite(), "{name} = {v}");
        }
        assert!(p.ldpc_iters_mean >= 1.0, "{}", p.ldpc_iters_mean);
    }
}
