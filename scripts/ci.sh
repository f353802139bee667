#!/usr/bin/env bash
# The repository's full offline quality gate. Run from the workspace root:
#
#     ./scripts/ci.sh              # developer mode: missing tools skip
#     CI_STRICT=1 ./scripts/ci.sh  # CI mode: missing tools fail
#
# Everything here works without network access; there are no external
# dependencies to download. Steps mirror what reviewers run by hand:
# formatting, lints (warnings are errors), a release build, the full test
# suite (unit + property-style + integration, including the
# fault-injection campaign and the sim-guard consistency sweeps), four
# determinism audits (checkpoint replay on C2D and LeNet, a CLI checkpoint
# resumed from its file with a cmp'd digest trail, byte-identical trace
# files, and byte-identical fuzz reports at any --jobs count), a parallel
# corpus replay with skip-hardening and failure-propagation probes, and —
# in strict mode — the pinned golden-digest gate (three fixed-seed
# scenarios, one with 2 MiB pages, cmp'd against fixtures in tests/golden/,
# catching cross-version semantic drift), the figures gate (a full-size `reproduce` diffed against the
# committed results/), the graceful-degradation matrix (every core policy
# must finish a run under a fixed hardware-fault plan and report its
# recovery counters), a bounded property-fuzz smoke over the differential
# policy oracle, the crash-durability gate (SIGKILL a journaled fuzz sweep
# partway, resume it, and cmp the report against an uninterrupted run),
# the sweep server smoke (duplicate batches served from the result cache,
# two concurrent clients admitted once per digest, typed overload
# rejections under a saturated queue, and a SIGKILLed server restarted on
# the same state directory with byte-identical results), and the storage
# chaos matrix (every failpoint site x fault kind, each cell holding the
# no-panic/no-corruption/typed-recovery triad).
#
# The throughput gate is not here: the CI bench job runs perfbench for this
# tree side by side with its parent commit. By hand, against any revision:
#
#     ./scripts/bench_paired.sh HEAD^1   # ~10 min on 2 vCPUs

set -euo pipefail
cd "$(dirname "$0")/.."

STRICT="${CI_STRICT:-0}"

step() { printf '\n==> %s\n' "$*"; }

missing() {
    if [ "$STRICT" = "1" ]; then
        echo "CI_STRICT=1: $1 is required but not installed" >&2
        exit 1
    fi
    echo "$1 not installed; skipping"
}

step "cargo fmt --check"
if command -v rustfmt >/dev/null 2>&1; then
    cargo fmt --all -- --check
else
    missing rustfmt
fi

step "cargo clippy (warnings are errors)"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
else
    missing clippy
fi

step "cargo build --release"
cargo build --release --workspace

step "cargo check --examples"
cargo check -q --workspace --examples

step "cargo check perfbench (the benchmark's use of the crate APIs)"
# perfbench is its own workspace, so nothing above builds it; only the
# CI bench job would, ten minutes later.
cargo check --offline --manifest-path perfbench/Cargo.toml

step "cargo test"
cargo test -q --workspace

step "checkpoint/resume determinism (verify-replay)"
cargo run -q --release -p oasis-cli -- verify-replay --app C2D --footprint-mb 4
# LeNet's 129 epochs put the kill at epoch 64: the resumed run rebuilds
# every running digest sum from the checkpoint and must still match.
cargo run -q --release -p oasis-cli -- verify-replay --app LeNet --footprint-mb 4

step "checkpoint/resume through the CLI (checkpoint files, cmp'd trails)"
# The same audit as verify-replay, but through the release binary's own
# files: a run that checkpoints every 3 epochs, resumed from its epoch-3
# checkpoint in a new process, must write a byte-identical digest trail,
# and the same checkpoint must refuse a different trace (another
# footprint) with a nonzero exit naming it.
CKPT_DIR="$(mktemp -d)"
./target/release/oasis-sim run --app C2D --footprint-mb 4 --checkpoint-every 3 \
    --checkpoint-dir "$CKPT_DIR" --digest-out "$CKPT_DIR/straight" >/dev/null
./target/release/oasis-sim run --app C2D --footprint-mb 4 \
    --resume "$CKPT_DIR/C2D-oasis-epoch3.ckpt" --digest-out "$CKPT_DIR/resumed" >/dev/null
cmp "$CKPT_DIR/straight" "$CKPT_DIR/resumed"
if ./target/release/oasis-sim run --app C2D --footprint-mb 8 \
    --resume "$CKPT_DIR/C2D-oasis-epoch3.ckpt" >/dev/null 2>"$CKPT_DIR/refused.err"; then
    echo "checkpoint/resume: a checkpoint resumed against another trace" >&2
    exit 1
fi
grep -q 'different trace' "$CKPT_DIR/refused.err" || {
    echo "checkpoint/resume: the refusal does not name a different trace:" >&2
    cat "$CKPT_DIR/refused.err" >&2
    exit 1
}
echo "resumed trail cmp'd equal to the straight run; another footprint was refused"
rm -rf "$CKPT_DIR"

step "trace determinism (same seed, byte-identical chrome trace)"
T1="$(mktemp)" T2="$(mktemp)"
trap 'rm -f "$T1" "$T2"' EXIT
./target/release/oasis-sim run --app C2D --policy oasis --footprint-mb 4 \
    --trace-out "$T1" >/dev/null
./target/release/oasis-sim run --app C2D --policy oasis --footprint-mb 4 \
    --trace-out "$T2" >/dev/null
cmp "$T1" "$T2"
echo "traces are byte-identical ($(wc -c <"$T1") bytes)"

step "golden digest trails (pinned cross-version determinism fixtures)"
if [ "$STRICT" = "1" ]; then
    # Three fixed-seed scenarios re-run from scratch; their per-epoch state
    # digest trails (System::digest, composed from component digests) must
    # cmp byte-identical against fixtures pinned in tests/golden/. Unlike
    # the same-binary determinism audits above, this gate spans versions:
    # any semantic drift in the access pipeline — however subtle — shows
    # up here even when the run still agrees with itself. The third runs
    # with 2 MiB pages, whose shootdowns drop many lines from each L2-cache
    # set, so the order they are dropped in shows in its trail. Refreshing
    # a fixture is a deliberate, reviewed act; tests/golden_digests.rs pins
    # the first two runs' trails in the older snapshot-digest format, which
    # does not change with the digest format.
    D1="$(mktemp)" D2="$(mktemp)" D3="$(mktemp)"
    ./target/release/oasis-sim run --app C2D --policy oasis --footprint-mb 4 \
        --digest-out "$D1" >/dev/null
    cmp "$D1" tests/golden/c2d-oasis.digests
    ./target/release/oasis-sim run --app MM --policy duplication --footprint-mb 4 \
        --digest-out "$D2" >/dev/null
    cmp "$D2" tests/golden/mm-duplication.digests
    ./target/release/oasis-sim run --app C2D --policy on-touch --page-size 2m \
        --footprint-mb 4 --digest-out "$D3" >/dev/null
    cmp "$D3" tests/golden/c2d-2m-on-touch.digests
    rm -f "$D1" "$D2" "$D3"
    echo "digest trails match the pinned fixtures (C2D/oasis, MM/duplication, C2D/on-touch at 2 MiB pages)"
else
    echo "developer mode (CI_STRICT unset); skipping the golden digest gate"
fi

step "paper figures (full-size reproduce diffed against results/)"
if [ "$STRICT" = "1" ]; then
    # Every table and figure is deterministic, so a fresh full-size run
    # in a scratch directory must print results/full_run.log and write
    # exactly the committed CSVs, no more and no fewer. Regenerating
    # results/ is a deliberate, reviewed act: run `reproduce` at the
    # workspace root with its stdout in results/full_run.log.
    FIG_DIR="$(mktemp -d)"
    REPRODUCE="$PWD/target/release/reproduce"
    (cd "$FIG_DIR" && "$REPRODUCE" >stdout.txt)
    diff results/full_run.log "$FIG_DIR/stdout.txt"
    diff -r -x full_run.log results "$FIG_DIR/results"
    rm -rf "$FIG_DIR"
    echo "reproduce printed and wrote exactly what results/ holds"
else
    echo "developer mode (CI_STRICT unset); skipping the figures gate"
fi

step "graceful degradation under a fixed fault plan (all four policies)"
if [ "$STRICT" = "1" ]; then
    PLAN="seed:7,down:0-1@2,flaky:2-3@1-6:1/8,ecc:0@3x2"
    for POLICY in on-touch access-counter duplication oasis; do
        OUT="$(./target/release/oasis-sim run --app C2D --footprint-mb 4 \
            --policy "$POLICY" --fault-plan "$PLAN" --json)"
        echo "$OUT" | grep -q '"link_faults": 1' || {
            echo "degradation: $POLICY did not register the link fault" >&2
            exit 1
        }
        echo "$OUT" | grep -q '"reroutes": 0,' && {
            echo "degradation: $POLICY never took the PCIe fallback" >&2
            exit 1
        }
        echo "  $POLICY survived the degraded run (plan: $PLAN)"
    done
else
    echo "developer mode (CI_STRICT unset); skipping the degradation matrix"
fi

step "property fuzz smoke (differential policy oracle, bounded)"
if [ "$STRICT" = "1" ]; then
    # 200 random scenarios through the 8-oracle differential check, hard
    # 60s wall-clock bound, fanned out over the supervised pool. A
    # violation (or a job lost to panic/deadline) exits nonzero and
    # prints the shrunk repro seed plus the corpus file it was saved to.
    FUZZ_CORPUS="$(mktemp -d)"
    ./target/release/oasis-sim fuzz --seed 1 --cases 200 \
        --time-budget-secs 60 --corpus-dir "$FUZZ_CORPUS" --jobs "$(nproc)"
    rm -rf "$FUZZ_CORPUS"
else
    echo "developer mode (CI_STRICT unset); skipping the fuzz smoke"
fi

step "corpus replay via the supervised pool (parallel, skip-hardened)"
# Replays every committed repro through the differential oracle in
# parallel, and proves the corpus loader's skip hardening: a planted
# garbage file must produce a warning, not a failure.
CORPUS_DIR="$(mktemp -d)"
cp tests/corpus/*.json "$CORPUS_DIR/"
echo 'this is not a repro' > "$CORPUS_DIR/garbage.json"
OUT="$(./target/release/oasis-sim fuzz --replay "$CORPUS_DIR" --jobs "$(nproc)")"
echo "$OUT"
echo "$OUT" | grep -q 'warning: skipped .*garbage.json' || {
    echo "corpus replay: planted garbage file did not produce a skip warning" >&2
    exit 1
}

step "sweep determinism (same seed, byte-identical report at any --jobs)"
# The supervised pool adjudicates and reports jobs in submission order,
# so a fuzz report must be byte-identical at any worker count once the
# elapsed-time line is dropped. Mirrors the trace-determinism cmp above.
R1="$(mktemp)" R2="$(mktemp)"
./target/release/oasis-sim fuzz --seed 3 --cases 40 --jobs 1 --json \
    | grep -v '"elapsed_secs"' > "$R1"
./target/release/oasis-sim fuzz --seed 3 --cases 40 --jobs "$(nproc)" --json \
    | grep -v '"elapsed_secs"' > "$R2"
cmp "$R1" "$R2"
echo "fuzz reports are byte-identical at --jobs 1 and --jobs $(nproc)"
rm -f "$R1" "$R2"

step "crash-durable sweeps (SIGKILL mid-sweep, resume, byte-identical)"
if [ "$STRICT" = "1" ]; then
    # A journaled fuzz sweep is SIGKILLed (uncatchable — no drain, the
    # journal tail may even be torn mid-append) partway through, then
    # resumed with --resume-sweep. The resumed report must be
    # byte-identical to an uninterrupted run of the same sweep once the
    # wall-clock line is dropped; journal warnings go to stderr and so
    # never perturb the comparison.
    JNL_DIR="$(mktemp -d)"
    REF="$JNL_DIR/straight.json" RES="$JNL_DIR/resumed.json"
    ./target/release/oasis-sim fuzz --seed 11 --cases 24 --jobs 4 --json \
        --corpus-dir "$JNL_DIR" | grep -v '"elapsed_secs"' > "$REF"
    ./target/release/oasis-sim fuzz --seed 11 --cases 24 --jobs 4 --json \
        --corpus-dir "$JNL_DIR" --journal "$JNL_DIR/sweep.jnl" \
        > "$JNL_DIR/killed.json" 2>/dev/null &
    SWEEP_PID=$!
    sleep 0.7
    kill -9 "$SWEEP_PID" 2>/dev/null || true
    wait "$SWEEP_PID" 2>/dev/null || true
    [ -f "$JNL_DIR/sweep.jnl" ] || {
        echo "kill/resume: the journal file was never created" >&2
        exit 1
    }
    ./target/release/oasis-sim fuzz --seed 11 --cases 24 --jobs 4 --json \
        --corpus-dir "$JNL_DIR" --journal "$JNL_DIR/sweep.jnl" --resume-sweep \
        | grep -v '"elapsed_secs"' > "$RES"
    cmp "$REF" "$RES"
    echo "SIGKILL + --resume-sweep reproduced the straight report byte-for-byte"
    rm -rf "$JNL_DIR"
else
    echo "developer mode (CI_STRICT unset); skipping the kill/resume gate"
fi

step "sweep server smoke (cache, admission control, SIGKILL + restart)"
if [ "$STRICT" = "1" ]; then
    # The crash-durable job server, end to end against the release
    # binary: duplicate submissions are answered from the result cache
    # (byte-identical output, serve.cache_hits > 0), two concurrent
    # clients share one admission per digest, a saturated queue
    # produces typed `overloaded` rejections instead of hanging, and a
    # server SIGKILLed mid-batch resumes from its journal after a
    # restart with results byte-identical to an uninterrupted server's.
    SRV_DIR="$(mktemp -d)"
    start_server() { # args: state-dir [serve flags...]; sets SRV_PID and PORT
        local state="$1"; shift
        ./target/release/oasis-sim serve --port 0 --serve-state "$state" "$@" \
            >"$SRV_DIR/announce.txt" 2>>"$SRV_DIR/server.err" &
        SRV_PID=$!
        PORT=""
        for _ in $(seq 1 100); do
            PORT="$(sed -n 's/^serve: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
                "$SRV_DIR/announce.txt")"
            [ -n "$PORT" ] && return 0
            sleep 0.1
        done
        echo "serve smoke: server never announced its port" >&2
        exit 1
    }

    # Result cache: the same batch twice; the rerun must cmp equal and
    # come from the cache, not recompute.
    start_server "$SRV_DIR/cache-state" --jobs 2
    ./target/release/oasis-sim submit --port "$PORT" --seed 21 --cases 6 \
        >"$SRV_DIR/ref.txt"
    ./target/release/oasis-sim submit --port "$PORT" --seed 21 --cases 6 \
        --submit-stats >"$SRV_DIR/rerun.txt" 2>"$SRV_DIR/rerun.err"
    cmp "$SRV_DIR/ref.txt" "$SRV_DIR/rerun.txt"
    grep -q 'serve\.cache_hits = [1-9]' "$SRV_DIR/rerun.err" || {
        echo "serve smoke: rerun was not served from the cache" >&2
        exit 1
    }
    kill -9 "$SRV_PID" 2>/dev/null || true
    wait "$SRV_PID" 2>/dev/null || true

    # Two clients at once against a fresh server: each must print the
    # reference bytes, and each digest must be admitted exactly once across
    # the two connections (the other one coalesces or hits the cache).
    start_server "$SRV_DIR/pair-state" --jobs 2
    PAIR_PIDS=""
    for c in 1 2; do
        ./target/release/oasis-sim submit --port "$PORT" --seed 21 --cases 6 \
            --submit-stats >"$SRV_DIR/pair$c.txt" 2>"$SRV_DIR/pair$c.err" &
        PAIR_PIDS="$PAIR_PIDS $!"
    done
    for pid in $PAIR_PIDS; do
        wait "$pid"
    done
    for c in 1 2; do
        cmp "$SRV_DIR/ref.txt" "$SRV_DIR/pair$c.txt"
        grep -q '^submit: stat serve\.accepted = 6$' "$SRV_DIR/pair$c.err" || {
            echo "serve smoke: client $c saw a digest admitted twice (or not at all)" >&2
            exit 1
        }
    done
    kill -9 "$SRV_PID" 2>/dev/null || true
    wait "$SRV_PID" 2>/dev/null || true

    # Admission control: a burst against a one-slot queue must produce
    # typed `overloaded` rejections — and the client must still exit.
    start_server "$SRV_DIR/tiny-state" --jobs 1 --queue-depth 1
    if ./target/release/oasis-sim submit --port "$PORT" --seed 5 --cases 8 \
        >"$SRV_DIR/burst.txt" 2>&1; then
        echo "serve smoke: an overloaded burst should exit nonzero" >&2
        exit 1
    fi
    grep -q 'rejected: overloaded' "$SRV_DIR/burst.txt" || {
        echo "serve smoke: no typed overload rejection in the burst output" >&2
        exit 1
    }
    kill -9 "$SRV_PID" 2>/dev/null || true
    wait "$SRV_PID" 2>/dev/null || true

    # Crash durability: SIGKILL mid-batch, restart on the same state
    # directory, resubmit; the output must cmp equal to the reference
    # from the uninterrupted server above.
    start_server "$SRV_DIR/crash-state" --jobs 2
    ./target/release/oasis-sim submit --port "$PORT" --seed 21 --cases 6 \
        >/dev/null 2>&1 &
    SUBMIT_PID=$!
    sleep 0.7
    kill -9 "$SRV_PID" 2>/dev/null || true
    wait "$SRV_PID" 2>/dev/null || true
    wait "$SUBMIT_PID" 2>/dev/null || true
    [ -f "$SRV_DIR/crash-state/serve.jnl" ] || {
        echo "serve smoke: the server journal was never created" >&2
        exit 1
    }
    start_server "$SRV_DIR/crash-state" --jobs 2
    ./target/release/oasis-sim submit --port "$PORT" --seed 21 --cases 6 \
        >"$SRV_DIR/resumed.txt"
    cmp "$SRV_DIR/ref.txt" "$SRV_DIR/resumed.txt"

    # Graceful drain: SIGTERM must exit 75 (EX_TEMPFAIL, resumable).
    kill -TERM "$SRV_PID" 2>/dev/null || true
    RC=0
    wait "$SRV_PID" || RC=$?
    [ "$RC" = "75" ] || {
        echo "serve smoke: drained server exited $RC, want 75" >&2
        exit 1
    }
    echo "serve smoke passed (cache hits, two clients, typed overload, SIGKILL + restart cmp, drain rc=75)"
    rm -rf "$SRV_DIR"
else
    echo "developer mode (CI_STRICT unset); skipping the sweep server smoke"
fi

step "storage chaos (failpoint matrix: every site x fault kind)"
if [ "$STRICT" = "1" ]; then
    # The full deterministic fault-injection audit against the release
    # binary: every registered failpoint site crossed with every
    # applicable fault kind (EIO, ENOSPC, short write, fsync failure,
    # rename failure, torn append) across the checkpoint, journal,
    # corpus, and serve surfaces. Each cell must hold the invariant
    # triad — no panic, no corrupt artifact read back as valid, and
    # recovery either byte-identical or a typed error naming the site.
    ./target/release/oasis-sim chaos --jobs "$(nproc)"
else
    echo "developer mode (CI_STRICT unset); skipping the storage chaos matrix"
fi

step "supervised failures exit nonzero (inject/fuzz gate)"
# Failure paths must reach the exit code, even under --json: a direct
# replay of a malformed repro file is a hard error (only directory
# loads skip), and a missing replay path is too. Then prove a healthy
# parallel inject campaign still exits zero.
if ./target/release/oasis-sim fuzz --replay "$CORPUS_DIR/garbage.json" --json \
    >/dev/null 2>&1; then
    echo "fuzz: direct replay of a malformed repro should exit nonzero" >&2
    exit 1
fi
if ./target/release/oasis-sim fuzz --replay "$CORPUS_DIR/no-such-file.json" \
    >/dev/null 2>&1; then
    echo "fuzz: replay of a missing path should exit nonzero" >&2
    exit 1
fi
rm -rf "$CORPUS_DIR"
./target/release/oasis-sim inject --seed 42 --jobs "$(nproc)" >/dev/null
echo "failure propagation verified (bad replays nonzero, inject campaign clean)"

printf '\nCI: all gates passed.\n'
