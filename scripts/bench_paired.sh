#!/usr/bin/env bash
# Paired throughput gate: perfbench at a base revision against this working
# tree, run side by side so that both builds see the same host state.
#
#   ./scripts/bench_paired.sh <BASE>      # e.g. HEAD^1, main, a commit id
#
# 1. Builds both sides from one source directory with one target directory,
#    because cargo hashes a package's path into its symbols: one source built
#    in two directories gives two different binaries. That directory, $WORK,
#    is the fixed target/bench-paired/ in this repository, so every call
#    builds one revision into the same binary; each call wipes it first, and
#    a call refuses to start while another holds it. The call extracts
#    <BASE> with `git archive` into $WORK/src, builds perfbench and copies
#    the binary out; then rewrites $WORK/src to this tree's files (`git
#    ls-files -co --exclude-standard`), touching only files whose bytes
#    differ so that only changed crates recompile, builds again and copies
#    that binary out. Each side builds with its own tree's
#    .cargo/config.toml and no other. Each side's binary size and SHA-256
#    are printed.
# 2. For every workload in BENCHMARK.json, runs PAIRS pairs of the two
#    binaries at the same time, each for BENCHMARK.json's run_seconds and from
#    a scratch directory of its own; the side launched first alternates
#    between pairs.
# 3. Fails if any run exits nonzero or does not print "correct": true on its
#    last line (naming workload, side and pair), or if on any workload the
#    median over pairs of change run_s / base run_s exceeds 1 + run_s's bound
#    in BENCHMARK.json. The other end-to-end metrics are reported, not gated:
#    their spread between two runs is too wide to gate on.
#
# On 2 vCPUs a call takes about 10 minutes: a release build and an
# incremental one, then 4 workloads x 5 pairs x ~23 s.
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

WORK="$ROOT/target/bench-paired"
mkdir -p "$ROOT/target"
exec 9>"$ROOT/target/bench-paired.lock"
if ! flock -n 9; then
    echo "bench_paired: another call is using $WORK; not starting" >&2
    exit 2
fi
rm -rf "$WORK"
mkdir -p "$WORK/src" "$WORK/bin" "$WORK/runs" "$WORK/run-base" "$WORK/run-change"
export CARGO_TARGET_DIR="$WORK/target"

# "<side> binary: <bytes> bytes, sha256 <hash>" for side $1's binary.
identify() {
    printf '%s binary: %s bytes, sha256 %s\n' "$1" "$(wc -c <"$WORK/bin/$1")" \
        "$(sha256sum "$WORK/bin/$1" | cut -d' ' -f1)"
}

# Builds perfbench from $WORK/src and copies the binary to $WORK/bin/$1.
# Cargo reads the .cargo/config.toml of its working directory and of every
# directory above it, and $WORK lies inside this repository, so the build
# runs from / and gets the side's own config, if its tree has one, by
# name: each side builds with the settings a checkout of it reads.
build() {
    local config=()
    if [ -f "$WORK/src/.cargo/config.toml" ]; then
        config=(--config "$WORK/src/.cargo/config.toml")
    fi
    echo "bench_paired: building perfbench ($1)" >&2
    (cd / && cargo ${config[@]+"${config[@]}"} build --release --offline --quiet \
        --manifest-path "$WORK/src/perfbench/Cargo.toml")
    cp "$CARGO_TARGET_DIR/release/oasis-perfbench" "$WORK/bin/$1"
    echo "bench_paired: $(identify "$1")" >&2
}

git archive "$BASE" | tar -x -C "$WORK/src"
build base

# $WORK/src becomes this tree: stale files go, files whose bytes differ are
# copied over, and the rest keep the timestamps cargo already built against.
git ls-files -co --exclude-standard | LC_ALL=C sort >"$WORK/files"
(cd "$WORK/src" && find . -type f | sed 's|^\./||' | LC_ALL=C sort) \
    | LC_ALL=C comm -23 - "$WORK/files" | (cd "$WORK/src" && xargs -r -d '\n' rm -f --)
while IFS= read -r f; do
    [ -f "$f" ] || continue # tracked, but deleted in this tree
    if ! cmp -s "$f" "$WORK/src/$f"; then
        mkdir -p "$WORK/src/$(dirname "$f")"
        cp "$f" "$WORK/src/$f"
    fi
done <"$WORK/files"
build change

# One run: output to $WORK/runs/<workload>.<side>.<pair>, exit code to .rc.
run() {
    local out="$WORK/runs/$2.$1.$3"
    local rc=0
    (cd "$WORK/run-$1" && exec "$WORK/bin/$1" \
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
identify base
identify change
if [ "$FAILED" -ne 0 ]; then
    echo "bench_paired: FAIL: run_s median ratio over 1 + $BOUND" >&2
    exit 1
fi
echo "bench_paired: PASS"
