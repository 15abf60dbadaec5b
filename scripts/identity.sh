#!/usr/bin/env bash
# Behaviour-identity check for a refactor: does the working tree simulate
# exactly what <rev> simulated?
#
# Usage:
#   scripts/identity.sh <rev>
#
# Extracts <rev> into a scratch directory (`git archive`, so nothing is
# left behind in .git), builds the benchmark package (BENCHMARK.json) on
# both sides into separate target dirs, runs all five workloads at
# --seed 1 and --seed 4242 with --trace 0, and compares the blocks of
# each <workload>.json that repeat bit for bit for a seed: `sim`,
# `claims`, `hashes`, `correct`, `failed`. For every run that differs it
# prints `hashes only` when the simulated results agree and only the
# event-stream and trace hashes moved (a reordering of same-instant
# events), else the first differing key; exits 1 if any run differed,
# either way. `attempted` is left out: it counts the repetitions that
# fit in `--seconds 1` of wall time, so a faster build can fit one more
# while simulating the same.
#
# Then the paper's figures: `figures --check` in the working tree (every
# row in its band, FIGURES.json and EXPERIMENTS.md as committed), and a
# diff of FIGURES.json against <rev>'s — a message, not a failure, when
# <rev> predates the file.
#
# Scratch space: $IDENTITY_DIR (default: a fresh mktemp -d, removed on
# exit). Point it at a persistent directory to reuse the two builds.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <rev>" >&2
    exit 2
fi
rev=$1
root=$(cd "$(dirname "$0")/.." && pwd)
manifest=crates/bench/src/bin/benchmark/Cargo.toml

if [ -n "${IDENTITY_DIR:-}" ]; then
    work=$IDENTITY_DIR
    mkdir -p "$work"
else
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
fi

commit=$(git -C "$root" rev-parse --verify "$rev^{commit}")
rm -rf "$work/base"
mkdir -p "$work/base"
git -C "$root" archive "$commit" | tar -x -C "$work/base"

run_side() { # <name> <source dir>
    local name=$1 src=$2 w seed
    echo "== building $name ($src)" >&2
    (cd "$src" && CARGO_TARGET_DIR="$work/target-$name" \
        cargo build --release --quiet --manifest-path $manifest)
    for seed in 1 4242; do
        mkdir -p "$work/out-$name/$seed"
        for w in full_ul full_mixed scale_abstract failover handover; do
            echo "== $name: $w seed $seed" >&2
            (cd "$src" && "$work/target-$name/release/benchmark" --workload "$w" \
                --seed "$seed" --seconds 1 --trace 0 --out "$work/out-$name/$seed" >/dev/null)
        done
    done
}

run_side base "$work/base"
run_side change "$root"

status=0
python3 - "$work/out-base" "$work/out-change" <<'EOF' || status=1
import json, sys
from pathlib import Path

base, change = Path(sys.argv[1]), Path(sys.argv[2])
KEYS = ["sim", "claims", "hashes", "correct", "failed"]


def first_diff(a, b, path):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(a.keys() | b.keys()):
            if a.get(k) != b.get(k):
                return first_diff(a.get(k), b.get(k), f"{path}.{k}")
    return f"{path}: {a!r} != {b!r}"


bad = 0
for f in sorted(base.glob("*/*.json")):
    rel = f.relative_to(base)
    a, b = json.loads(f.read_text()), json.loads((change / rel).read_text())
    a, b = ({k: d.get(k) for k in KEYS} for d in (a, b))
    if a == b:
        print(f"identical  seed {rel.parent} {rel.stem}")
        continue
    bad += 1
    # Hashes move whenever anything simulated does: name what else moved.
    del a["hashes"], b["hashes"]
    what = "hashes only" if a == b else first_diff(a, b, "")[1:]
    print(f"DIFFERENT  seed {rel.parent} {rel.stem}: {what}")
sys.exit(1 if bad else 0)
EOF

echo "== figures --check (working tree)" >&2
(cd "$root" && cargo run --release --quiet -p slingshot-bench --bin figures -- --check >/dev/null) ||
    status=1
if git -C "$root" cat-file -e "$commit:FIGURES.json" 2>/dev/null; then
    if diff <(git -C "$root" show "$commit:FIGURES.json") "$root/FIGURES.json"; then
        echo "identical  FIGURES.json"
    else
        echo "DIFFERENT  FIGURES.json"
        status=1
    fi
else
    echo "skipped    FIGURES.json: $rev predates it"
fi
exit $status
