#!/usr/bin/env bash
# Local CI gate: formatting, lints, doc links, and the full test suite.
#
#   ./scripts/ci.sh
#
# Runs the same checks a pre-merge pipeline would, in order of
# increasing cost, and stops at the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, dangling or private doc links are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --examples (migrated call sites stay compiling)"
cargo build --workspace --examples

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> pool protocol tests in release (narrower timing windows for the"
echo "    close/running handshake of rayon::run_indexed)"
cargo test --release -p rayon -q

echo "==> benchmark package: builds, unit tests, flat fan-out matches GridExecutor"
echo "    (the out-of-workspace benchmark/ package drives the public core API,"
echo "     so an API change that breaks it or moves its curves fails here)"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- verify

echo "==> benchmark digest gate: at seed 0 every workload runs one full pass and"
echo "    exits non-zero if its outputs differ from benchmark/workloads/digests.json"
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --seconds 1 > /dev/null

echo "==> histal-experiments bench --check"
echo "    (harness smoke + obs/metrics gates"
echo "     + grid-wide perf-regression guard vs BENCH_harness.json"
echo "     + adaptive-sweep gate: >=30% cell-rounds saved, winners match"
echo "     + 10k pool-scaling smoke: ANN must beat exact per combinator"
echo "     + selector-train wall-time guard vs committed selector_train rows)"
cargo run -q --release -p histal-bench --bin histal-experiments -- \
    bench --check --scale 0.02 --repeats 1

echo "==> spec-check: every checked-in specs/*.json parses and validates"
cargo run -q --release -p histal-bench --bin histal-experiments -- spec-check

echo "==> journal smoke: fig5 --journal, kill-free resume replays byte-identically"
# Run from a scratch cwd so the smoke never touches the tracked results/.
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
REPO_DIR="$(pwd)"
BIN="$(pwd)/target/release/histal-experiments"
cargo build -q --release -p histal-bench --bin histal-experiments
(
    cd "$SMOKE_DIR"
    "$BIN" fig5 --scale 0.05 --repeats 1 --journal fig5.jsonl \
        > first.out 2> /dev/null
    grep -q '"kind":"cell"' fig5.jsonl
    # Tear the journal tail (simulated crash mid-append), then resume.
    truncate -s -50 fig5.jsonl
    "$BIN" resume fig5 --scale 0.05 --repeats 1 --journal fig5.jsonl \
        > second.out 2> /dev/null
    diff first.out second.out
)

echo "==> journal smoke: table6 (journals through the command table since"
echo "    every spec-backed command takes --journal) resumes byte-identically"
(
    cd "$SMOKE_DIR"
    "$BIN" table6 --scale 0.05 --repeats 1 --journal table6.jsonl \
        > table6-first.out 2> /dev/null
    grep -q '"kind":"cell"' table6.jsonl
    truncate -s -50 table6.jsonl
    "$BIN" resume table6 --scale 0.05 --repeats 1 --journal table6.jsonl \
        > table6-second.out 2> /dev/null
    diff table6-first.out table6-second.out
)

echo "==> spec smoke: run --spec specs/fig5.json matches the fig5 golden"
(
    cd "$SMOKE_DIR"
    "$BIN" run --spec "$REPO_DIR/specs/fig5.json" --scale 0.05 --repeats 1 \
        > spec.out 2> /dev/null
    diff spec.out "$REPO_DIR/crates/bench/tests/goldens/fig5_s005_r1.stdout"
    diff results/fig5.json "$REPO_DIR/crates/bench/tests/goldens/fig5_s005_r1.json"
)

echo "==> adaptive smoke: run --spec specs/adaptive-sweep.json prunes, journals,"
echo "    and resumes byte-identically (pruning decisions included)"
(
    cd "$SMOKE_DIR"
    "$BIN" run --spec "$REPO_DIR/specs/adaptive-sweep.json" \
        --journal adaptive.jsonl > adaptive-first.out 2> adaptive-first.err
    grep -q '# adaptive: pruned' adaptive-first.err
    grep -q '"kind":"cell"' adaptive.jsonl
    # Tear the journal tail, then resume: stdout must not change.
    truncate -s -50 adaptive.jsonl
    "$BIN" resume run --spec "$REPO_DIR/specs/adaptive-sweep.json" \
        --journal adaptive.jsonl > adaptive-second.out 2> /dev/null
    diff adaptive-first.out adaptive-second.out
)

echo "==> transfer smoke: selector train -> save -> load -> apply across datasets,"
echo "    and the checked-in transfer matrix runs end-to-end"
(
    cd "$SMOKE_DIR"
    # Cross-process cross-dataset transfer: train on MR, persist the
    # HLRN1 artifact, reload it in a fresh process and deploy on SST-2.
    "$BIN" selector-train 'LAL(entropy)' mr lal-mr.hlrn --scale 0.05 \
        > /dev/null 2>&1
    test -s lal-mr.hlrn
    "$BIN" selector-apply lal-mr.hlrn sst2 --scale 0.05 \
        > apply.out 2> /dev/null
    grep -q '^ALC 0\.' apply.out
    "$BIN" run --spec "$REPO_DIR/specs/transfer-matrix.json" --scale 0.02 \
        > transfer.out 2> transfer.err
    grep -q 'Transfer ALC — LHS(entropy)' transfer.out
    grep -q 'Transfer ALC — LAL(entropy)' transfer.out
    grep -q '# selector train: ' transfer.err
    test -s results/transfer-matrix.json
)

echo "==> selector-train determinism: LHS and LAL artifacts trained at 1 and 4"
echo "    worker threads are byte-identical HLRN1 files"
(
    cd "$SMOKE_DIR"
    for token in 'LHS(entropy)' 'LAL(entropy)'; do
        "$BIN" selector-train "$token" mr st-1t.hlrn --scale 0.05 --threads 1 \
            > /dev/null 2>&1
        "$BIN" selector-train "$token" mr st-4t.hlrn --scale 0.05 --threads 4 \
            > /dev/null 2>&1
        cmp st-1t.hlrn st-4t.hlrn
    done
)

echo "==> serve smoke: histal-serve end-to-end (external + simulated oracle,"
echo "    duplicate absorption, per-tenant /metrics, clean shutdown), then a"
echo "    restart on the same state dir must list the same sessions"
cargo build -q --release -p histal-serve --bin histal-serve
SERVE_BIN="$(pwd)/target/release/histal-serve"
SERVE_ADDR="127.0.0.1:18437"
(
    cd "$SMOKE_DIR"
    "$SERVE_BIN" serve --addr "$SERVE_ADDR" --state-dir serve-state --threads 4 \
        > serve.log 2>&1 &
    SERVE_PID=$!
    for _ in $(seq 1 50); do
        if curl -fsS "http://$SERVE_ADDR/healthz" > /dev/null 2>&1; then break; fi
        sleep 0.1
    done
    "$SERVE_BIN" smoke --addr "$SERVE_ADDR"
    curl -fsS "http://$SERVE_ADDR/sessions" > sessions-before.json
    curl -fsS -X POST "http://$SERVE_ADDR/shutdown" > /dev/null
    wait "$SERVE_PID"

    # Restart on the same state dir: the finished session boots from its
    # result record, the unfinished one by replay, and both list as before.
    "$SERVE_BIN" serve --addr "$SERVE_ADDR" --state-dir serve-state --threads 4 \
        > serve-restart.log 2>&1 &
    SERVE_PID=$!
    for _ in $(seq 1 50); do
        if curl -fsS "http://$SERVE_ADDR/healthz" > /dev/null 2>&1; then break; fi
        sleep 0.1
    done
    curl -fsS "http://$SERVE_ADDR/sessions" > sessions-after.json
    curl -fsS -X POST "http://$SERVE_ADDR/shutdown" > /dev/null
    wait "$SERVE_PID"
    diff sessions-before.json sessions-after.json
)

echo "==> serve load: 1000 concurrent simulated sessions (acceptance bar)"
HISTAL_SERVE_SESSIONS=1000 cargo test -q --release -p histal-serve \
    --test serve_http concurrent_simulated_sessions_complete_with_tenant_metrics

echo "CI green."
