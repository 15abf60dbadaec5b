#!/usr/bin/env bash
# Interleaved A/B of the benchmark (BENCHMARK.json) between <rev> and the
# working tree, on one workload.
#
# Usage:
#   scripts/ab.sh <rev> <workload> [pairs] [seconds] [seed]
#
# Defaults: 8 pairs, 20 s per run, seed 1. Extracts <rev> with
# `git archive` into a scratch directory and builds the benchmark package
# there and in the working tree into separate target dirs (as
# scripts/identity.sh does). Then runs the two binaries in <pairs>
# interleaved pairs, `--trace 0`, alternating which side runs first, so
# both sides see the same drift of a shared host.
#
# Prints each pair's end-to-end metrics (the `end_to_end` list of
# BENCHMARK.json; a host metric is the median of its run's
# repetitions), then per metric: the median of each side with its
# quartiles, the median of the per-pair ratios change/<rev>, how many
# pairs the change won (by the metric's `better` direction; ties count
# for neither side), and an exact two-sided sign-test p over the pairs
# that are not ties. A metric is `equal` when every pair ties,
# `resolved` when p < 0.05, else `unresolved`. A run that fails exits
# the script non-zero.
#
# Scratch space: $AB_DIR (default: a fresh mktemp -d, removed on exit).
# Pointing it at the $IDENTITY_DIR of an identity.sh run with the same
# <rev> reuses both builds.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 5 ]; then
    echo "usage: $0 <rev> <workload> [pairs] [seconds] [seed]" >&2
    exit 2
fi
rev=$1
workload=$2
pairs=${3:-8}
seconds=${4:-20}
seed=${5:-1}
if ! [[ "$pairs" =~ ^[0-9]+$ ]] || ((pairs < 2)); then
    echo "$0: pairs must be an integer >= 2 (quartiles need two runs a side)" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
manifest=crates/bench/src/bin/benchmark/Cargo.toml

if [ -n "${AB_DIR:-}" ]; then
    work=$AB_DIR
    mkdir -p "$work"
else
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
fi

commit=$(git -C "$root" rev-parse --verify "$rev^{commit}")
rm -rf "$work/base"
mkdir -p "$work/base"
git -C "$root" archive "$commit" | tar -x -C "$work/base"

build() { # <name> <source dir>
    echo "== building $1 ($2)" >&2
    (cd "$2" && CARGO_TARGET_DIR="$work/target-$1" \
        cargo build --release --quiet --manifest-path $manifest)
}
build base "$work/base"
build change "$root"

out="$work/ab-$workload-$seed"
rm -rf "$out"
run() { # <pair> <name> <source dir>
    echo "== pair $1: $2" >&2
    mkdir -p "$out/$1-$2"
    (cd "$3" && "$work/target-$2/release/benchmark" --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0 --out "$out/$1-$2" >/dev/null)
}
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        run "$i" base "$work/base"
        run "$i" change "$root"
    else
        run "$i" change "$root"
        run "$i" base "$work/base"
    fi
done

python3 - "$root/BENCHMARK.json" "$out" "$workload" "$pairs" "$rev" <<'EOF'
import json, statistics, sys
from math import comb
from pathlib import Path

spec, out, workload, pairs, rev = sys.argv[1:]
pairs = int(pairs)
metrics = [(m["name"], m["better"]) for m in json.loads(Path(spec).read_text())["end_to_end"]]


def value(run, name):
    if name in run["host"]:
        return statistics.median(run["host"][name])
    return run["sim"][name]


def load(i, side):
    return json.loads((Path(out) / f"{i}-{side}" / f"{workload}.json").read_text())


runs = [(load(i, "base"), load(i, "change")) for i in range(1, pairs + 1)]
print(f"{workload}: {rev} (base) vs working tree (change), {pairs} pairs")
print("per pair, base -> change:")
print(f"{'pair':>4}  {'first':<6}" + "".join(f"{n:>24}" for n, _ in metrics))
for i, (b, c) in enumerate(runs, 1):
    first = "base" if i % 2 else "change"
    cells = (f"{value(b, n):.5g} -> {value(c, n):.5g}" for n, _ in metrics)
    print(f"{i:>4}  {first:<6}" + "".join(f"{x:>24}" for x in cells))


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def sign_p(wins, losses):
    n, k = wins + losses, min(wins, losses)
    if n == 0:
        return 1.0
    return min(1.0, 2 * sum(comb(n, j) for j in range(k + 1)) / 2**n)


print()
print(f"{'metric':<18}{'base median [q1, q3]':>34}{'change median [q1, q3]':>34}"
      f"{'ratio':>8}{'won':>7}{'p':>9}  verdict")
for name, better in metrics:
    b = [value(r[0], name) for r in runs]
    c = [value(r[1], name) for r in runs]
    ratios = [y / x for x, y in zip(b, c) if x != 0]
    sign = 1 if better == "higher" else -1
    wins = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
    losses = sum(1 for x, y in zip(b, c) if sign * (y - x) < 0)
    p = sign_p(wins, losses)
    bq, cq = quartiles(b), quartiles(c)
    ratio = f"{statistics.median(ratios):.3f}" if ratios else "-"
    print(f"{name:<18}{f'{bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]':>34}"
          f"{f'{cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]':>34}"
          f"{ratio:>8}{f'{wins}/{pairs}':>7}{p:>9.4f}  "
          f"{'equal' if wins + losses == 0 else 'resolved' if p < 0.05 else 'unresolved'}")
EOF
