#!/usr/bin/env bash
# Line-coverage gate: runs the workspace test suite under cargo-llvm-cov
# and enforces the per-crate line-coverage floors checked in at
# crates/bench/baselines/coverage.floors.
#
# Gracefully skips (exit 0) when cargo-llvm-cov is not installed, so the
# local ./ci.sh --coverage hook never forces an install; the nightly
# coverage workflow installs the tool and runs this same script, so the
# floors are enforced in exactly one place.
#
# Knobs:
#   COVERAGE_FLOORS=<path>   floors file (default the checked-in one)
#   COVERAGE_OUT=<dir>       where the lcov report goes
#                            (default target/llvm-cov)
set -euo pipefail
cd "$(dirname "$0")/.."

FLOORS="${COVERAGE_FLOORS:-crates/bench/baselines/coverage.floors}"
OUT="${COVERAGE_OUT:-target/llvm-cov}"

if ! cargo llvm-cov --version >/dev/null 2>&1; then
    echo "==> coverage: cargo-llvm-cov not installed; skipping"
    echo "    (install locally with: cargo install cargo-llvm-cov)"
    exit 0
fi

mkdir -p "$OUT"
LCOV="$OUT/coverage.lcov"

echo "==> cargo llvm-cov --workspace (tests, no report yet)"
cargo llvm-cov --workspace --no-report

# Fold the fabric_scale experiment into the same profile so the
# sharded leaf/spine execution paths (lane windows, barrier sync,
# spine drain) are exercised end-to-end, not only through unit tests.
echo "==> fabric_scale under coverage (sharded fabric paths)"
cargo llvm-cov run --no-report -p slingshot-bench --bin figures -- fabric_scale

echo "==> cargo llvm-cov report (lcov -> $LCOV)"
cargo llvm-cov report --lcov --output-path "$LCOV"

# Aggregate LCOV LF/LH records per floored path prefix. LCOV is the
# stable interchange format; the summary table's column layout is not.
fail=0
while read -r prefix floor; do
    case "$prefix" in '' | '#'*) continue ;; esac
    pct="$(awk -v p="$prefix/" '
        /^SF:/ { keep = index(substr($0, 4), p) > 0 }
        /^LF:/ { if (keep) lf += substr($0, 4) }
        /^LH:/ { if (keep) lh += substr($0, 4) }
        END {
            if (lf == 0) { print "none"; exit }
            printf "%.2f", 100.0 * lh / lf
        }' "$LCOV")"
    if [[ "$pct" == none ]]; then
        echo "coverage: no lines attributed to $prefix (path prefix stale?)" >&2
        fail=1
        continue
    fi
    if awk -v a="$pct" -v b="$floor" 'BEGIN { exit !(a + 0 >= b + 0) }'; then
        echo "coverage: $prefix ${pct}% >= floor ${floor}%"
    else
        echo "coverage: $prefix ${pct}% BELOW floor ${floor}%" >&2
        fail=1
    fi
done <"$FLOORS"

if [[ "$fail" != 0 ]]; then
    echo "==> coverage: FLOOR VIOLATED (floors: $FLOORS)" >&2
    exit 1
fi
echo "==> coverage: all floors met"
