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

echo "==> ChaCha8 refill tests in release (the SSE2 refill against the scalar"
echo "    oracle under the optimised codegen that ships)"
cargo test --release -p rand_chacha -q

echo "==> dropout-mask kernel tests in release (the branch-free mask against the"
echo "    branchy reference, as the optimised loop the models run)"
cargo test --release -p histal-models --test kernel_props -q

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
echo "    (harness smoke + obs overhead gate"
echo "     + grid-wide perf-regression guard vs BENCH_harness.json"
echo "     + adaptive-sweep gate: >=30% cell-rounds saved, winners match"
echo "     + 10k pool-scaling smoke: ANN must beat exact per combinator"
echo "     + selector-train wall-time guard vs committed selector_train rows)"
cargo run -q --release -p histal-bench --bin histal-experiments -- \
    bench --check --scale 0.02 --repeats 1

echo "==> spec-check: every checked-in specs/*.json parses and validates"
cargo run -q --release -p histal-bench --bin histal-experiments -- spec-check

# Run the serve smoke from a scratch cwd so it never touches the tracked tree.
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT

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
