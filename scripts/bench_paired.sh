#!/usr/bin/env bash
# Paired throughput gate: perfbench at a base revision against this working
# tree, run side by side so that both builds see the same host state.
#
#   ./scripts/bench_paired.sh <BASE>      # e.g. HEAD^1, main, a commit id
#
# 1. Extracts <BASE> with `git archive` into a temp directory and builds its
#    perfbench there; builds this tree's perfbench into perfbench/target.
# 2. For every workload in BENCHMARK.json, runs PAIRS pairs of the two
#    builds at the same time, each for BENCHMARK.json's run_seconds and from
#    its own tree root; the side launched first alternates between pairs.
# 3. Fails if any run exits nonzero or does not print "correct": true on its
#    last line (naming workload, side and pair), or if on any workload the
#    median over pairs of change run_s / base run_s exceeds 1 + run_s's bound
#    in BENCHMARK.json. The other end-to-end metrics are reported, not gated:
#    their spread between two builds of one source is too wide to gate on.
#
# On 2 vCPUs a call takes about 10 minutes: two release builds, then
# 4 workloads x 5 pairs x ~23 s.
set -euo pipefail

PAIRS=5

if [ $# -ne 1 ]; then
    echo "usage: $0 <BASE>" >&2
    exit 2
fi
BASE=$1
ROOT=$(git rev-parse --show-toplevel)
cd "$ROOT"
START=$(date +%s)

# What BENCHMARK.json fixes: workloads, run length, end-to-end metrics and
# run_s's bound.
WORKLOADS=$(sed -n '/"workloads"/,/\]/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json)
METRICS=$(sed -n '/"end_to_end"/,/\]/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json)
RUN_SECONDS=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
BOUND=$(awk '/"name": *"run_s"/ { f = 1 } f && /"bound"/ { gsub(/[^0-9.]/, ""); print; exit }' BENCHMARK.json)
if [ -z "$WORKLOADS" ] || [ -z "$RUN_SECONDS" ] || [ -z "$BOUND" ]; then
    echo "bench_paired: cannot read workloads, run_seconds or run_s's bound from BENCHMARK.json" >&2
    exit 2
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
mkdir "$WORK/base" "$WORK/runs"
git archive "$BASE" | tar -x -C "$WORK/base"

# side -> tree root; each side builds into its own tree's perfbench/target.
declare -A TREE=([base]="$WORK/base" [change]="$ROOT")
for side in base change; do
    echo "bench_paired: building perfbench ($side)" >&2
    CARGO_TARGET_DIR="${TREE[$side]}/perfbench/target" cargo build --release --offline \
        --quiet --manifest-path "${TREE[$side]}/perfbench/Cargo.toml"
done

# One run: output to $WORK/runs/<workload>.<side>.<pair>, exit code to .rc.
run() {
    local out="$WORK/runs/$2.$1.$3"
    local rc=0
    (cd "${TREE[$1]}" && exec perfbench/target/release/oasis-perfbench \
        --workload "$2" --seconds "$RUN_SECONDS") >"$out" 2>"$out.err" || rc=$?
    echo "$rc" >"$out.rc"
}

# The value of metric $2 on the last line of run output $1.
metric() {
    sed -n "\$s/.*\"$2\": {\"value\": \([^,]*\),.*/\1/p" "$1"
}

# "median q1 q3" of the numbers on stdin.
quartiles() {
    sort -g | awk '{ v[NR] = $1 }
        function q(p,  h, i) { h = (NR - 1) * p + 1; i = int(h); return v[i] + (h - i) * (v[i + 1] - v[i]) }
        END { print q(0.5), q(0.25), q(0.75) }'
}

# "median [q1-q3]" of metric $3 over side $1's runs of workload $2.
summary() {
    for p in $(seq "$PAIRS"); do metric "$WORK/runs/$2.$1.$p" "$3"; done \
        | quartiles | awk '{ printf "%.4g [%.4g-%.4g]", $1, $2, $3 }'
}

FAILED=0
for w in $WORKLOADS; do
    for p in $(seq "$PAIRS"); do
        if [ $((p % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
        for side in $order; do run "$side" "$w" "$p" & done
        wait
        for side in base change; do
            out="$WORK/runs/$w.$side.$p"
            if [ "$(cat "$out.rc")" -ne 0 ] || ! tail -n 1 "$out" | grep -q '"correct": true'; then
                echo "bench_paired: FAIL $w $side pair $p (exit $(cat "$out.rc"))" >&2
                tail -n 5 "$out.err" >&2
                exit 1
            fi
        done
    done

    ratios=$(for p in $(seq "$PAIRS"); do
        echo "$(metric "$WORK/runs/$w.change.$p" run_s) $(metric "$WORK/runs/$w.base.$p" run_s)"
    done | awk '{ print $1 / $2 }')
    read -r median _ <<<"$(quartiles <<<"$ratios")"
    slower=$(awk '$1 > 1' <<<"$ratios" | wc -l)
    verdict=ok
    if awk -v m="$median" -v b="$BOUND" 'BEGIN { exit !(m > 1 + b) }'; then
        verdict="FAIL (bound $BOUND)"
        FAILED=1
    fi
    printf '%s: run_s ratio %.3f, change slower in %d of %d pairs: %s\n' \
        "$w" "$median" "$slower" "$PAIRS" "$verdict"
    for m in $METRICS; do
        printf '  %-12s base %-36s change %s\n' "$m" \
            "$(summary base "$w" "$m")" "$(summary change "$w" "$m")"
    done
done

echo "bench_paired: $BASE vs working tree, $PAIRS pairs x ${RUN_SECONDS}s per workload," \
    "$(($(date +%s) - START)) s"
if [ "$FAILED" -ne 0 ]; then
    echo "bench_paired: FAIL: run_s median ratio over 1 + $BOUND" >&2
    exit 1
fi
echo "bench_paired: PASS"
