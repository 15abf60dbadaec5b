#!/usr/bin/env bash
# Local CI: the checks a change must pass before it lands.
#
# Usage:
#   ./ci.sh            full gate: release build, full test suite, fmt,
#                      clippy, rustdoc (warnings are errors), a chaos
#                      smoke, the two examples that assert the failover
#                      lifecycle from the trace (trace_failover,
#                      quickstart; run in a temp dir so their output
#                      stays out of the tree), the two floored micro
#                      harnesses (kernel, engine), the paper contract
#                      (`figures --check`), and the benchmark package's
#                      --check and unit tests
#   ./ci.sh --quick    debug build + tier-1 tests + a type-check of the
#                      benchmark package + the 2-scenario handover
#                      chaos smoke (fast inner loop)
#   ./ci.sh --bench    the two floored micro harnesses (kernel, engine;
#                      their floors, crates/bench/baselines/*.baseline,
#                      are compiled in: 80% of a floor fails, and so
#                      does a floor that names nothing measured), plus
#                      the paper contract and the benchmark package's
#                      --check and unit tests
#
# The paper contract is `figures --check`: it re-runs the 20 experiments
# of the registry (~85 s; fleet availability, fabric scale and the BLER
# model's calibration against the full chain are three of them) and
# fails if a row leaves the band it claims
# or if the result differs from the committed FIGURES.json or from the
# generated tables in EXPERIMENTS.md (`figures --bless` rewrites both).
# Tier-1 runs only its three engine-free entries, as unit tests.
#   ./ci.sh --coverage line-coverage gate only (scripts/coverage.sh):
#                      enforces the per-crate floors in
#                      crates/bench/baselines/coverage.floors; skips
#                      cleanly if cargo-llvm-cov is not installed
#
# Not part of the gate, but the companion check for a refactor:
#   scripts/identity.sh <rev>
#                      builds the benchmark package at <rev> and in the
#                      working tree, runs the five workloads at two
#                      seeds and exits 1 if any simulated result
#                      (sim, claims, hashes, correct, failed) differs;
#                      a run whose results agree but whose hashes moved
#                      is named `hashes only`
#   scripts/ab.sh <rev> <workload> [pairs] [seconds] [seed]
#                      the companion for a performance claim: builds the
#                      benchmark package at <rev> and in the working
#                      tree, runs them in interleaved pairs (alternating
#                      which goes first) and prints the five end-to-end
#                      metrics per pair, medians with quartiles, the
#                      median pair ratio, pairs won and an exact sign
#                      test (`resolved` when p < 0.05)
#
# Knobs (all optional; defaults shown):
#   CHAOS_SEEDS=4      seeds for the chaos smoke (nightly workflow: 64);
#                      each seed runs 4 fixed + 4 pool + 2 handover + 1
#                      crossed + 1 fabric + 1 randomized scenario
#   CHAOS_SUITE=all    all | handover (--quick runs handover, 1 seed);
#                      chaos_soak exits 2 on any other value, as on a
#                      malformed CHAOS_SEEDS
#   BENCH_JSON_DIR=    directory for bench JSON artifacts (unset: skip)
set -euo pipefail
cd "$(dirname "$0")"

QUICK=0
COVERAGE=0
BENCH=0
for arg in "$@"; do
    case "$arg" in
    --quick) QUICK=1 ;;
    --coverage) COVERAGE=1 ;;
    --bench) BENCH=1 ;;
    *)
        echo "unknown argument: $arg" >&2
        exit 2
        ;;
    esac
done

if [[ "$COVERAGE" == 1 ]]; then
    ./scripts/coverage.sh
    exit 0
fi

if [[ "$QUICK" == 1 ]]; then
    echo "==> cargo build"
    cargo build

    echo "==> cargo test -q (tier-1)"
    cargo test -q

    # The benchmark package is outside the workspace, so neither command
    # above compiles it: a moved or renamed public item breaks it here
    # rather than only in the full gate.
    echo "==> cargo check (benchmark package, against the public API)"
    cargo check --manifest-path crates/bench/src/bin/benchmark/Cargo.toml

    echo "==> handover chaos smoke (2 scenarios, 1 seed)"
    CHAOS_SEEDS=1 CHAOS_SUITE=handover \
        cargo run -q -p slingshot-bench --bin chaos_soak

    echo "==> OK (quick)"
    exit 0
fi

run_benches() {
    echo "==> DSP kernel throughput (floors + scalar-vs-detected arm gate)"
    cargo run --release -p slingshot-bench --bin kernel_bench

    echo "==> engine hot path (event queue / dispatch floors)"
    cargo run --release -p slingshot-bench --bin engine_bench

    echo "==> paper contract (figures --check)"
    cargo run --release -p slingshot-bench --bin figures -- --check

    # The benchmark (BENCHMARK.json) is a package with its own
    # [workspace], so nothing above compiles it: build it here so an API
    # change that breaks it fails CI, and let --check confirm its
    # emitted metric names still match the manifest.
    echo "==> benchmark package builds against the public API (--check)"
    cargo run --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- --check

    # Outside the workspace means outside `cargo test` too: its unit
    # tests (manifest drift, profile drift, merge rules) run here.
    echo "==> benchmark package unit tests"
    cargo test --release -q --manifest-path crates/bench/src/bin/benchmark/Cargo.toml
}

if [[ "$BENCH" == 1 ]]; then
    echo "==> cargo build --release -p slingshot-bench"
    cargo build --release -p slingshot-bench
    run_benches
    echo "==> OK (bench)"
    exit 0
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Intra-doc links name public items; a link to a deleted or private
# item is an error here, not a silent broken link.
echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> chaos smoke (CHAOS_SEEDS=${CHAOS_SEEDS:-4})"
CHAOS_SEEDS="${CHAOS_SEEDS:-4}" cargo run --release -p slingshot-bench --bin chaos_soak

# Both examples panic if the failover lifecycle they read back from the
# trace is out of order; `cargo test` only compiles them. trace_failover
# writes its JSON into the working directory, so run from a temp dir.
echo "==> examples that assert on the trace (trace_failover, quickstart)"
root=$PWD
example_dir=$(mktemp -d)
for example in trace_failover quickstart; do
    (cd "$example_dir" &&
        cargo run -q --release --manifest-path "$root/Cargo.toml" --example "$example" >/dev/null)
done
rm -rf "$example_dir"

run_benches

echo "==> OK"
