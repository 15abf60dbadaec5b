//! The event trace as a determinism oracle: because the simulator is
//! single-threaded and fully seeded, two runs of the same scenario with
//! the same seed must produce byte-identical traces — and a different
//! seed must not.

use slingshot::DeploymentBuilder;
use slingshot_ran::{CellConfig, Fidelity, UeConfig};
use slingshot_sim::Nanos;
use slingshot_transport::{UdpCbrSource, UdpSink};

/// Run the failover scenario to completion and return the trace bytes
/// plus the trace hash. The kill lands 400 µs into a slot, after the
/// primary's second downlink frame of that slot, whose arrival time
/// depends on the seed: it is the last heartbeat, so the
/// detection (`DetectorSaturated.at` and `.b`) and the notification
/// after it move with the seed. A kill on the slot boundary would leave
/// the boundary-aligned frame as the last heartbeat, and the trace,
/// which records decisions and not frames, the same for every seed.
fn run_failover(seed: u64) -> (Vec<u8>, u64) {
    let mut d = DeploymentBuilder::new()
        .seed(seed)
        .cell(CellConfig {
            num_prbs: 51,
            fidelity: Fidelity::Sampled,
            ..CellConfig::default()
        })
        .ue(UeConfig::new(100, 0, "ue100", 22.0))
        .build();
    d.add_flow(
        0,
        100,
        Box::new(UdpCbrSource::new(4_000_000, 1000, Nanos::ZERO)),
        Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
    );
    d.kill_primary_at(Nanos::from_micros(400_400));
    d.engine.run_until(Nanos::from_millis(900));
    let trace = d.engine.event_trace();
    (trace.to_bytes(), trace.hash())
}

#[test]
fn same_seed_produces_byte_identical_traces() {
    let (bytes_a, hash_a) = run_failover(11);
    let (bytes_b, hash_b) = run_failover(11);
    assert!(!bytes_a.is_empty(), "trace must not be empty");
    assert_eq!(hash_a, hash_b, "trace hashes diverged for equal seeds");
    assert_eq!(bytes_a, bytes_b, "trace bytes diverged for equal seeds");
}

#[test]
fn different_seed_produces_different_trace() {
    let (_, hash_a) = run_failover(11);
    let (_, hash_b) = run_failover(12);
    assert_ne!(hash_a, hash_b, "different seeds must perturb the trace");
}
