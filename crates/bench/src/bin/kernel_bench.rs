//! DSP kernel throughput harness: per-kernel ops/sec for the hot
//! baseband primitives (CRC, scrambling, LDPC encode/decode,
//! modulate/demap), measured standalone so a kernel regression is
//! visible before it washes out in end-to-end slot throughput.
//!
//! The binary is cheap enough for CI: one mode, ~100 ms per kernel
//! (~2 s in all), every kernel held to the conservative floors of
//! `baselines/kernel_bench.baseline`, which are compiled in: a kernel
//! below 80 % of its floor fails the run, and so does a floor no
//! kernel here is named by. Per-stage rows measured *inside* a running
//! deployment (`phy_dsp.*`, `fronthaul.*`, `fapi.codec.*`,
//! `core.fh_mbox.*`) come from the benchmark package
//! (`crates/bench/src/bin/benchmark/`); this harness and
//! `engine_bench` are the two standalone micro harnesses.
//!
//! It also holds the backend contract (DESIGN.md §5h): every kernel
//! that has a SIMD arm (demap, BFP compress, BFP decompress, AWGN, the
//! LDPC batch decode) is timed as `DspKernels::scalar()` and
//! `DspKernels::detect()` in this one process, interleaved, min-of-N,
//! and the run fails when a detected non-scalar arm is not faster than
//! the scalar code it duplicates. The LDPC arm's lanes run across the
//! blocks of a batch, so its speed-up is a function of how many lanes
//! are filled: the full batch is gated, a 3-of-8 batch is reported
//! beside it so the occupancy curve stays on record, and a full
//! batch whose blocks all converge within 1-4 iterations is gated too,
//! because there the per-iteration parity check is a larger share. A
//! batch of one block (one live lane) is gated as well: every
//! non-empty batch takes the arm, and a Sampled cell decodes one code
//! block per TB. Because lanes pay, the PHYs of a lane share one batch
//! per instant: `ldpc_decode_instant4_k1024` decodes four such blocks
//! as one batch, and the run fails when that is not faster than the
//! same four as one-block batches.
//!
//! JSON artifact: `kernel_bench.json` in `$BENCH_JSON_DIR`, scalars
//! keyed `<kernel>_ops_per_sec` plus `<kernel>_us` per-op times, and
//! `<kernel>_scalar_us` / `<kernel>_speedup` for the kernels with a
//! backend arm, `<kernel>_alone_us` / `<kernel>_speedup` for the
//! shared-batch row; the `labels.backend` field records the detected
//! backend.

use std::hint::black_box;
use std::time::{Duration, Instant};

use slingshot_bench::{banner, floor_failures, BenchReport};
use slingshot_phy_dsp::crc::attach_crc24a;
use slingshot_phy_dsp::iq::{bfp_from_bytes, bfp_write_bytes, BfpPrb, SC_PER_PRB};
use slingshot_phy_dsp::ldpc::BATCH_LANES;
use slingshot_phy_dsp::modulation::modulate_packed_into;
use slingshot_phy_dsp::scramble::{cached_sequence, descramble_llrs_packed, scramble_packed};
use slingshot_phy_dsp::{
    AwgnChannel, BitBuf, Cplx, DspKernels, KernelBackend, LdpcBlockOut, LdpcCode, LdpcScratch,
    Modulation,
};
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

/// Batches per side in [`interleaved_min_us`].
const AB_ROUNDS: u32 = 8;

/// Min-of-N interleaved A/B (the DESIGN.md §5h method): alternate
/// `AB_ROUNDS` timed batches of `a` and `b` in this process and keep
/// each side's fastest batch, as µs/op. Interleaving exposes both sides
/// to the same frequency/steal drift, and the minimum is the batch the
/// shared vCPU disturbed least; cross-process runs swing ±25% here.
fn interleaved_min_us(budget: Duration, a: &mut dyn FnMut(), b: &mut dyn FnMut()) -> (f64, f64) {
    fn batch(reps: u64, op: &mut dyn FnMut()) -> Duration {
        let started = Instant::now();
        for _ in 0..reps {
            op();
        }
        started.elapsed()
    }
    // Warm both sides, then double the batch until one of `a` fills a
    // round's share of the budget.
    b();
    let mut reps = 1u64;
    while batch(reps, a) < budget / AB_ROUNDS {
        reps *= 2;
    }
    let (mut best_a, mut best_b) = (Duration::MAX, Duration::MAX);
    for _ in 0..AB_ROUNDS {
        best_a = best_a.min(batch(reps, a));
        best_b = best_b.min(batch(reps, b));
    }
    let us = |d: Duration| d.as_secs_f64() / reps as f64 * 1e6;
    (us(best_a), us(best_b))
}

/// One kernel's scalar-vs-detected timing.
struct ArmTiming {
    kernel: &'static str,
    scalar_us: f64,
    detected_us: f64,
    /// Held to "faster than scalar"; `false` rows are reported only.
    gated: bool,
}

impl ArmTiming {
    fn speedup(&self) -> f64 {
        self.scalar_us / self.detected_us
    }
}

/// Per-block time of blocks decoded as one shared lockstep batch
/// against the same blocks decoded as one-block batches, both on the
/// detected backend.
struct SharedBatchTiming {
    kernel: &'static str,
    alone_us: f64,
    shared_us: f64,
}

impl SharedBatchTiming {
    fn speedup(&self) -> f64 {
        self.alone_us / self.shared_us
    }

    /// Whether sharing a batch failed to pay: on a SIMD backend the
    /// shared batch fills lanes one-block batches leave empty, so it
    /// must be faster. The scalar backend decodes a batch block by
    /// block, so there the two sides run the same code.
    fn loses(&self, backend: KernelBackend) -> bool {
        backend != KernelBackend::Scalar && self.speedup() <= 1.0
    }
}

/// The kernels whose SIMD arm broke the backend contract: `backend` is
/// not scalar and the arm was not faster than scalar. On a host that
/// detects `Scalar` both sides ran the same code, so nothing can lose.
fn losing_arms(backend: KernelBackend, arms: &[ArmTiming]) -> Vec<&ArmTiming> {
    arms.iter()
        .filter(|a| a.gated && backend != KernelBackend::Scalar && a.speedup() <= 1.0)
        .collect()
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

/// BPSK-over-AWGN channel LLRs for codeword `cw` at `snr_db`.
fn bpsk_llrs(cw: &BitBuf, snr_db: f32, seed: u64) -> Vec<f32> {
    let mut rng = SimRng::new(seed);
    let sigma2 = 10f32.powf(-snr_db / 10.0);
    (0..cw.len())
        .map(|i| {
            let x = if cw.get(i) == 0 { 1.0 } else { -1.0 };
            let y = x + sigma2.sqrt() * rng.gaussian() as f32;
            2.0 * y / sigma2
        })
        .collect()
}

const FLOORS: &str = include_str!("../../baselines/kernel_bench.baseline");

/// What one run measured: the JSON report, ops/sec per kernel, the
/// scalar-vs-detected timing of every kernel with a backend arm, and
/// the shared-batch row's timing against one-block batches.
struct Measured {
    report: BenchReport,
    ops_per_sec: Vec<(String, f64)>,
    arms: Vec<ArmTiming>,
    shared: SharedBatchTiming,
}

/// Time every kernel for `budget` each, printing the table as it goes.
fn measure_kernels(budget: Duration) -> Measured {
    // The backend comes from the CPU; the kernels with a SIMD arm are
    // also timed on the scalar oracle below.
    let kernels = DspKernels::detect();
    let scalar = DspKernels::scalar();

    banner(
        "DSP kernel throughput: ops/sec per baseband primitive",
        "word-packed kernel engineering (DESIGN.md §5e, §5h)",
    );
    println!(
        "# ≥{} ms per kernel, backend={}\n",
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

    println!("{:<36} {:>14} {:>12}", "kernel", "ops/sec", "µs/op");
    let mut record = |key: &str, (ops, us): (f64, f64), report: &mut BenchReport| {
        println!("{key:<36} {ops:>14.0} {us:>12.2}");
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
    // ~4 dB BPSK LLRs so the decoder does a realistic number of
    // min-sum iterations rather than terminating on iteration 0.
    let channel_llrs = bpsk_llrs(&cw, 4.0, 5);
    let mut scratch = LdpcScratch::default();
    let r = measure(budget, || {
        black_box(kernels.ldpc_decode_into(&code, black_box(&channel_llrs), 8, &mut scratch));
    });
    record("ldpc_decode_k1024", r, &mut report);

    // LDPC at 6x the production block size. The slot pipeline never
    // decodes here — transport blocks are segmented into code blocks
    // of at most `MAX_CB_INFO_BITS` = 1024 info bits, the k=1024 row
    // above — but the posterior array is n = 3k ≈ 18k floats (~72 KB)
    // and spills L1, so this row is sensitive to the gather locality
    // of the row sweep in a way the L1-resident k=1024 case is not.
    let code_tb = LdpcCode::new(6144);
    let info_tb = random_bitbuf(6144, 6);
    let mut cw_tb = BitBuf::with_capacity(code_tb.n());
    code_tb.encode_packed(&info_tb, &mut cw_tb);
    let tb_llrs = bpsk_llrs(&cw_tb, 4.0, 7);
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

    // The BFP wire codec, one PRB written and parsed back: the U-plane
    // body of every fronthaul frame goes through these two.
    let prb_samples: [Cplx; SC_PER_PRB] =
        std::array::from_fn(|i| Cplx::new((i as f32 * 0.4).cos(), (i as f32 * 0.4).sin()));
    let wire_prb = scalar.bfp_compress(&prb_samples);
    let mut wire = Vec::with_capacity(BfpPrb::WIRE_BYTES);
    let r = measure(budget, || {
        wire.clear();
        bfp_write_bytes(black_box(&wire_prb), &mut wire);
        black_box(bfp_from_bytes(black_box(&wire)));
    });
    record("bfp_wire_prb", r, &mut report);

    // The kernels with a backend arm: scalar and detected timed
    // interleaved in this process; the table row is the detected arm.
    let mut arms: Vec<ArmTiming> = Vec::new();
    let mut record_arm =
        |kernel: &'static str, (scalar_us, detected_us): (f64, f64), gated: bool| {
            record(kernel, (1e6 / detected_us, detected_us), &mut report);
            arms.push(ArmTiming {
                kernel,
                scalar_us,
                detected_us,
                gated,
            });
        };

    // LDPC batch decode at the production block size, per block: eight
    // codewords at mixed SNRs, so lanes retire at different iterations
    // and the batch runs as long as its slowest block (1 dB does not
    // converge in 8 iterations). The blocks arrive in transmission
    // order, as HARQ segments do, through a shuffled interleave. The
    // 3-of-8 row is the first three blocks with five lanes empty. The
    // converging row is the same codewords at SNRs where every block
    // decodes within 1-4 iterations (1.9 per block, 4 per batch):
    // `full_ul`'s shape, where lanes pass late, so the per-iteration
    // parity check costs what it costs in a slot. The batch-of-one rows
    // are the shape a Sampled cell decodes (one code block per TB), on
    // one live lane: the mixed set's 1 dB block, which runs all eight
    // iterations, is gated; the converging set's 3 dB block, which
    // passes within a few, is reported.
    let mut shuffle = SimRng::new(60);
    let mut order: Vec<u32> = (0..code.n() as u32).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, shuffle.below(i as u64 + 1) as usize);
    }
    let batch_at = |snrs_db: [f32; BATCH_LANES]| -> Vec<Vec<f32>> {
        snrs_db
            .iter()
            .enumerate()
            .map(|(lane, &snr_db)| {
                let mut cw = BitBuf::with_capacity(code.n());
                code.encode_packed(&random_bitbuf(1024, 40 + lane as u64), &mut cw);
                let llrs = bpsk_llrs(&cw, snr_db, 50 + lane as u64);
                order.iter().map(|&v| llrs[v as usize]).collect()
            })
            .collect()
    };
    let mixed = batch_at([4.0, 6.0, 3.0, 8.0, 1.0, 5.0, 2.0, 4.0]);
    let converging = batch_at([8.0, 6.0, 5.0, 4.0, 7.0, 3.5, 6.0, 3.0]);
    let mixed_views: Vec<&[f32]> = mixed.iter().map(Vec::as_slice).collect();
    let converging_views: Vec<&[f32]> = converging.iter().map(Vec::as_slice).collect();
    let mut out_s = vec![LdpcBlockOut::default(); BATCH_LANES];
    let mut out_d = out_s.clone();
    let mut scratch_s = LdpcScratch::default();
    for (kernel, views, gated) in [
        ("ldpc_decode_batch8_k1024", &mixed_views[..], true),
        ("ldpc_decode_batch3of8_k1024", &mixed_views[..3], false),
        (
            "ldpc_decode_batch8_converging_k1024",
            &converging_views[..],
            true,
        ),
        ("ldpc_decode_batch1_k1024", &mixed_views[4..5], true),
        (
            "ldpc_decode_batch1_converging_k1024",
            &converging_views[7..],
            false,
        ),
    ] {
        let lanes = views.len();
        let (scalar_us, detected_us) = interleaved_min_us(
            budget,
            &mut || {
                scalar.ldpc_decode_batch_into(
                    &code,
                    &order,
                    black_box(views),
                    8,
                    &mut scratch_s,
                    &mut out_s[..lanes],
                );
                black_box(&out_s);
            },
            &mut || {
                kernels.ldpc_decode_batch_into(
                    &code,
                    &order,
                    black_box(views),
                    8,
                    &mut scratch,
                    &mut out_d[..lanes],
                );
                black_box(&out_d);
            },
        );
        let per_block = lanes as f64;
        record_arm(
            kernel,
            (scalar_us / per_block, detected_us / per_block),
            gated,
        );
    }

    // One uplink instant of the `failover` deployment: four cells each
    // decode one 1 024-bit block, and the lane decodes the four as one
    // shared batch (four live lanes) — against the same blocks as four
    // one-block batches, each cell's own, as decoding per TB ran them.
    // Both sides on the detected backend, per block; the four are the
    // converging set's first blocks (1-4 iterations, the regime of the
    // deployment's 22 dB uplink). Gated: on a SIMD backend the shared
    // batch must beat four one-lane batches.
    let instant = &converging_views[..4];
    let (alone_us, shared_us) = interleaved_min_us(
        budget,
        &mut || {
            for block in instant.chunks(1) {
                kernels.ldpc_decode_batch_into(
                    &code,
                    &order,
                    black_box(block),
                    8,
                    &mut scratch_s,
                    &mut out_s[..1],
                );
                black_box(&out_s);
            }
        },
        &mut || {
            kernels.ldpc_decode_batch_into(
                &code,
                &order,
                black_box(instant),
                8,
                &mut scratch,
                &mut out_d[..4],
            );
            black_box(&out_d);
        },
    );
    let shared = SharedBatchTiming {
        kernel: "ldpc_decode_instant4_k1024",
        alone_us: alone_us / 4.0,
        shared_us: shared_us / 4.0,
    };
    // AWGN over one 2 048-symbol chunk: the libm Box–Muller against the
    // certified-polynomial arm (the same noise, DESIGN.md §5h).
    let awgn_syms: Vec<Cplx> = syms.iter().cycle().take(2048).copied().collect();
    let mut channel_s = AwgnChannel::new(SimRng::new(8));
    let mut channel_d = AwgnChannel::new(SimRng::new(8));
    let r = interleaved_min_us(
        budget,
        &mut || {
            black_box(scalar.awgn_apply(&mut channel_s, black_box(&awgn_syms), 12.0));
        },
        &mut || {
            black_box(kernels.awgn_apply(&mut channel_d, black_box(&awgn_syms), 12.0));
        },
    );
    record_arm("awgn_2048", r, true);
    let (mut demod_s, mut demod_d): (Vec<f32>, Vec<f32>) = (Vec::new(), Vec::new());
    let r = interleaved_min_us(
        budget,
        &mut || {
            scalar.demodulate_llr_into(black_box(&syms), Modulation::Qam64, 0.05, &mut demod_s);
            black_box(&demod_s);
        },
        &mut || {
            kernels.demodulate_llr_into(black_box(&syms), Modulation::Qam64, 0.05, &mut demod_d);
            black_box(&demod_d);
        },
    );
    record_arm("demap_1k_qam64", r, true);

    // BFP fronthaul compression, one PRB each way.
    let r = interleaved_min_us(
        budget,
        &mut || {
            black_box(scalar.bfp_compress(black_box(&prb_samples)));
        },
        &mut || {
            black_box(kernels.bfp_compress(black_box(&prb_samples)));
        },
    );
    record_arm("bfp_compress_prb", r, true);
    let r = interleaved_min_us(
        budget,
        &mut || {
            black_box(scalar.bfp_decompress(black_box(&wire_prb)));
        },
        &mut || {
            black_box(kernels.bfp_decompress(black_box(&wire_prb)));
        },
    );
    record_arm("bfp_decompress_prb", r, true);
    record(
        shared.kernel,
        (1e6 / shared.shared_us, shared.shared_us),
        &mut report,
    );

    println!(
        "\n{:<36} {:>12} {:>12} {:>9}",
        "backend arm",
        "scalar µs",
        format!("{} µs", kernels.name()),
        "speedup"
    );
    for a in &arms {
        println!(
            "{:<36} {:>12.3} {:>12.3} {:>8.2}x{}",
            a.kernel,
            a.scalar_us,
            a.detected_us,
            a.speedup(),
            if a.gated {
                ""
            } else {
                "  (reported, not gated)"
            }
        );
        report.scalar(&format!("{}_scalar_us", a.kernel), a.scalar_us);
        report.scalar(&format!("{}_speedup", a.kernel), a.speedup());
    }

    println!(
        "{:<36} {:>12.3} {:>12.3} {:>8.2}x  (1-block batches vs one shared batch)",
        shared.kernel,
        shared.alone_us,
        shared.shared_us,
        shared.speedup()
    );
    report.scalar(&format!("{}_alone_us", shared.kernel), shared.alone_us);
    report.scalar(&format!("{}_speedup", shared.kernel), shared.speedup());

    Measured {
        report,
        ops_per_sec: measured,
        arms,
        shared,
    }
}

fn main() {
    let m = measure_kernels(Duration::from_millis(100));
    m.report.write();

    let detected = DspKernels::detect();
    let losers = losing_arms(detected.backend(), &m.arms);
    for a in &losers {
        eprintln!(
            "BACKEND CONTRACT: {} on {} is {:.2}x scalar — a SIMD arm stays only if it beats the scalar code it duplicates (DESIGN.md §5h)",
            a.kernel,
            detected.name(),
            a.speedup()
        );
    }
    let shared_loses = m.shared.loses(detected.backend());
    if shared_loses {
        eprintln!(
            "SHARED BATCH: {} on {} is {:.2}x one-block batches — one lockstep batch per instant must beat a batch per block (DESIGN.md §5h)",
            m.shared.kernel,
            detected.name(),
            m.shared.speedup()
        );
    }
    let below = floor_failures(FLOORS, &m.ops_per_sec);
    below.iter().for_each(|f| eprintln!("{f}"));
    if !losers.is_empty() || shared_loses || !below.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arm(kernel: &'static str, scalar_us: f64, detected_us: f64) -> ArmTiming {
        ArmTiming {
            kernel,
            scalar_us,
            detected_us,
            gated: true,
        }
    }

    #[test]
    fn arm_that_does_not_beat_scalar_loses() {
        let arms = [
            arm("wins", 82.4, 11.6),
            arm("slower", 100.0, 135.0),
            arm("tie", 5.0, 5.0),
        ];
        let losers: Vec<&str> = losing_arms(KernelBackend::Avx2, &arms)
            .iter()
            .map(|a| a.kernel)
            .collect();
        assert_eq!(losers, ["slower", "tie"]);
        assert!((arms[0].speedup() - 82.4 / 11.6).abs() < 1e-12);
    }

    #[test]
    fn reported_row_cannot_lose() {
        // A partly filled batch may sit below break-even: on record,
        // not a contract breach.
        let arms = [ArmTiming {
            gated: false,
            ..arm("partial_batch", 100.0, 135.0)
        }];
        assert!(losing_arms(KernelBackend::Avx2, &arms).is_empty());
    }

    /// The run's own floor check with speed taken out of it: what is
    /// left to fail is a floor no measured kernel is named by.
    #[test]
    fn every_floor_names_a_kernel_the_harness_measures() {
        let measured = measure_kernels(Duration::ZERO).ops_per_sec;
        let names = measured.into_iter().map(|(k, _)| (k, f64::INFINITY));
        let unmatched = floor_failures(FLOORS, &names.collect::<Vec<_>>());
        assert_eq!(unmatched, [] as [String; 0]);
    }

    #[test]
    fn shared_batch_loses_only_on_a_simd_backend_and_only_when_not_faster() {
        let timing = |alone_us, shared_us| SharedBatchTiming {
            kernel: "instant",
            alone_us,
            shared_us,
        };
        assert!(!timing(120.0, 55.0).loses(KernelBackend::Avx2));
        assert!(timing(50.0, 50.0).loses(KernelBackend::Avx2));
        assert!(!timing(50.0, 52.0).loses(KernelBackend::Scalar));
    }

    #[test]
    fn scalar_host_has_no_arm_to_lose() {
        // detect() == scalar: both sides ran the same code, and noise
        // around 1.0x must not fail the run.
        let arms = [arm("same_code", 10.0, 10.4)];
        assert!(losing_arms(KernelBackend::Scalar, &arms).is_empty());
    }
}
