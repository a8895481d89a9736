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

echo "==> exp port exactness in release (the 4-lane exp against f64::exp, bit for"
echo "    bit, on 10.2M inputs, as the optimised kernel the CRF lattices run)"
cargo test --release -p histal-models --test exp_exact -q

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

echo "==> serve load: 1000 concurrent simulated sessions (acceptance bar)"
HISTAL_SERVE_SESSIONS=1000 cargo test -q --release -p histal-serve \
    --test serve_http concurrent_simulated_sessions_complete_with_tenant_metrics

echo "CI green."
