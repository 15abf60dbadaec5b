//! DSP kernel throughput harness: per-kernel ops/sec for the hot
//! baseband primitives (CRC, scrambling, LDPC encode/decode,
//! modulate/demap), measured standalone so a kernel regression is
//! visible before it washes out in end-to-end slot throughput.
//!
//! Unlike the Criterion micro-benchmarks (`cargo bench --bench dsp`),
//! this binary is cheap enough for CI: quick mode runs in well under a
//! second and compares against conservative floors, the same contract
//! as `slots_per_sec`.
//!
//! Knobs (env):
//!   KERNEL_QUICK=1           ~10 ms per kernel instead of ~100 ms
//!   KERNEL_BACKEND=<b>       kernel backend: scalar | avx2 | detect
//!                            (default: best available)
//!   KERNEL_BASELINE=<path>   baseline file: `<key> <ops_per_sec>`
//!                            lines; fail the run if any measured
//!                            kernel drops below 80% of its floor.
//!                            A key may carry a `@<backend>` suffix;
//!                            suffixed floors only apply when that
//!                            backend is the one running and take
//!                            precedence over the bare key.
//!
//! JSON artifact: `kernel_bench.json` in `$BENCH_JSON_DIR`, scalars
//! keyed `<kernel>_ops_per_sec` plus `<kernel>_us` per-op times; the
//! `labels.backend` field records which kernel backend ran.

use std::hint::black_box;
use std::time::{Duration, Instant};

use slingshot_bench::{banner, load_floors, BenchReport};
use slingshot_phy_dsp::crc::{attach_crc24a, crc16};
use slingshot_phy_dsp::iq::SC_PER_PRB;
use slingshot_phy_dsp::modulation::modulate_packed_into;
use slingshot_phy_dsp::scramble::{cached_sequence, descramble_llrs_packed, scramble_packed};
use slingshot_phy_dsp::{BitBuf, Cplx, DspKernels, LdpcCode, LdpcScratch, Modulation};
use slingshot_sim::SimRng;

/// Time one kernel: repeat `op` until `budget` elapses (at least 3
/// runs), return (ops/sec, µs/op).
fn measure<F: FnMut()>(budget: Duration, mut op: F) -> (f64, f64) {
    // Warm up once so lazy tables (Gold cache, mod LUTs) are built.
    op();
    let started = Instant::now();
    let mut runs = 0u64;
    while runs < 3 || started.elapsed() < budget {
        op();
        runs += 1;
    }
    let secs = started.elapsed().as_secs_f64();
    (runs as f64 / secs, secs / runs as f64 * 1e6)
}

fn random_payload(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SimRng::new(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn random_bitbuf(bits: usize, seed: u64) -> BitBuf {
    let mut rng = SimRng::new(seed);
    let mut buf = BitBuf::with_capacity(bits);
    for _ in 0..bits {
        buf.push((rng.next_u64() & 1) as u8);
    }
    buf
}

fn main() {
    let quick = std::env::var("KERNEL_QUICK").is_ok_and(|v| v != "0");
    let budget = if quick {
        Duration::from_millis(10)
    } else {
        Duration::from_millis(100)
    };

    // Honors KERNEL_BACKEND; best available backend otherwise.
    let kernels = DspKernels::from_env();

    banner(
        "DSP kernel throughput: ops/sec per baseband primitive",
        "word-packed kernel engineering (DESIGN.md §5e, §5h)",
    );
    println!(
        "# {} mode, ≥{} ms per kernel, backend={}\n",
        if quick { "quick" } else { "full" },
        budget.as_millis(),
        kernels.name(),
    );

    let mut report = BenchReport::new(
        "kernel_bench",
        "DSP kernel throughput (ops per second)",
        "DESIGN.md §5e, §5h",
    );
    report.label("backend", kernels.name());
    let mut measured: Vec<(String, f64)> = Vec::new();

    println!("{:<28} {:>14} {:>12}", "kernel", "ops/sec", "µs/op");
    let mut record = |key: &str, (ops, us): (f64, f64), report: &mut BenchReport| {
        println!("{key:<28} {ops:>14.0} {us:>12.2}");
        report.scalar(&format!("{key}_ops_per_sec"), ops);
        report.scalar(&format!("{key}_us"), us);
        measured.push((key.to_string(), ops));
    };

    // CRC over an MTU-sized payload.
    let payload = random_payload(1500, 1);
    let r = measure(budget, || {
        black_box(attach_crc24a(black_box(&payload)));
    });
    record("crc24a_1500B", r, &mut report);
    let r = measure(budget, || {
        black_box(crc16(black_box(&payload)));
    });
    record("crc16_1500B", r, &mut report);

    // Word-packed (de)scrambling of an 8 kbit block.
    let seq = cached_sequence(0xC0FFEE, 8192);
    let mut bits = random_bitbuf(8192, 2);
    let r = measure(budget, || {
        scramble_packed(black_box(&mut bits), &seq, 0);
    });
    record("scramble_8k", r, &mut report);
    let mut llrs: Vec<f32> = {
        let mut rng = SimRng::new(3);
        (0..8192).map(|_| rng.gaussian() as f32).collect()
    };
    let r = measure(budget, || {
        descramble_llrs_packed(black_box(&mut llrs), &seq, 0);
    });
    record("descramble_8k", r, &mut report);

    // LDPC at the transport-block segment size.
    let code = LdpcCode::new(1024);
    let info = random_bitbuf(1024, 4);
    let mut cw = BitBuf::with_capacity(code.n());
    let r = measure(budget, || {
        cw.clear();
        code.encode_packed(black_box(&info), &mut cw);
        black_box(&cw);
    });
    record("ldpc_encode_k1024", r, &mut report);
    let channel_llrs: Vec<f32> = {
        // ~4 dB BPSK LLRs so the decoder does a realistic number of
        // min-sum iterations rather than terminating on iteration 0.
        let mut rng = SimRng::new(5);
        let sigma2 = 10f32.powf(-0.4);
        (0..code.n())
            .map(|i| {
                let x = if cw.get(i) == 0 { 1.0 } else { -1.0 };
                let y = x + sigma2.sqrt() * rng.gaussian() as f32;
                2.0 * y / sigma2
            })
            .collect()
    };
    let mut scratch = LdpcScratch::default();
    let r = measure(budget, || {
        black_box(kernels.ldpc_decode_into(&code, black_box(&channel_llrs), 8, &mut scratch));
    });
    record("ldpc_decode_k1024", r, &mut report);

    // LDPC at full transport-block scale. The posterior array here is
    // n = 3k ≈ 18k floats (~72 KB) — it spills L1, so this case is
    // sensitive to the gather locality of the row sweep in a way the
    // L1-resident k=1024 case is not. This is the regime the slot
    // pipeline actually decodes in (one ~6 kbit code block per TB).
    let code_tb = LdpcCode::new(6144);
    let info_tb = random_bitbuf(6144, 6);
    let mut cw_tb = BitBuf::with_capacity(code_tb.n());
    code_tb.encode_packed(&info_tb, &mut cw_tb);
    let tb_llrs: Vec<f32> = {
        let mut rng = SimRng::new(7);
        let sigma2 = 10f32.powf(-0.4);
        (0..code_tb.n())
            .map(|i| {
                let x = if cw_tb.get(i) == 0 { 1.0 } else { -1.0 };
                let y = x + sigma2.sqrt() * rng.gaussian() as f32;
                2.0 * y / sigma2
            })
            .collect()
    };
    let r = measure(budget, || {
        black_box(kernels.ldpc_decode_into(&code_tb, black_box(&tb_llrs), 8, &mut scratch));
    });
    record("ldpc_decode_k6144", r, &mut report);

    // Modulation round trip, 1k symbols of 64-QAM.
    let mod_bits = random_bitbuf(6144, 6);
    let mut syms: Vec<Cplx> = Vec::new();
    let r = measure(budget, || {
        syms.clear();
        modulate_packed_into(black_box(&mod_bits), Modulation::Qam64, &mut syms);
        black_box(&syms);
    });
    record("modulate_1k_qam64", r, &mut report);
    let mut demod: Vec<f32> = Vec::new();
    let r = measure(budget, || {
        kernels.demodulate_llr_into(black_box(&syms), Modulation::Qam64, 0.05, &mut demod);
        black_box(&demod);
    });
    record("demap_1k_qam64", r, &mut report);

    // BFP fronthaul compression, one PRB each way.
    let prb_samples: [Cplx; SC_PER_PRB] =
        std::array::from_fn(|i| Cplx::new((i as f32 * 0.4).cos(), (i as f32 * 0.4).sin()));
    let r = measure(budget, || {
        black_box(kernels.bfp_compress(black_box(&prb_samples)));
    });
    record("bfp_compress_prb", r, &mut report);
    let prb = kernels.bfp_compress(&prb_samples);
    let r = measure(budget, || {
        black_box(kernels.bfp_decompress(black_box(&prb)));
    });
    record("bfp_decompress_prb", r, &mut report);

    report.write();

    if let Ok(path) = std::env::var("KERNEL_BASELINE") {
        let backend = kernels.name();
        let baseline = load_floors(&path);
        let mut regressed = false;
        for (raw_key, base) in &baseline {
            // `<kernel>@<backend>` floors apply only when that backend
            // ran; a bare key is a floor for every backend unless a
            // backend-specific floor shadows it.
            let (key, floor_backend) = match raw_key.split_once('@') {
                Some((k, b)) => (k, Some(b)),
                None => (raw_key.as_str(), None),
            };
            match floor_backend {
                Some(b) if b != backend => {
                    println!("# baseline {raw_key}: backend {b} not running, skipped");
                    continue;
                }
                None if baseline
                    .iter()
                    .any(|(other, _)| *other == format!("{key}@{backend}")) =>
                {
                    println!("# baseline {raw_key}: shadowed by {key}@{backend}");
                    continue;
                }
                _ => {}
            }
            match measured.iter().find(|(k, _)| k == key) {
                Some((_, got)) if *got < 0.8 * base => {
                    eprintln!(
                        "REGRESSION: {key}@{backend} = {got:.0} ops/sec, below 80% of floor {base:.0}"
                    );
                    regressed = true;
                }
                Some((_, got)) => println!("# baseline {raw_key}: {got:.0} vs floor {base:.0} ok"),
                None => println!("# baseline {raw_key}: not measured, skipped"),
            }
        }
        if regressed {
            std::process::exit(1);
        }
    }
}
