#!/usr/bin/env sh
# CI gate: formatting, lints on the whole workspace, then tier-1
# verification (release build + full test suite). Run from the repo root.
set -eu

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (workspace) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (workspace, warnings are errors: no dangling intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== metam-analyze: workspace invariants (determinism / passivity / panic-freedom) =="
cargo run -q -p metam-analyze -- --workspace

echo "== metam-analyze: --json smoke (obs-validator schema check) =="
cargo run -q -p metam-analyze -- --workspace --json > target/analyze-report.json
cargo test -q -p metam-analyze --test json_schema

echo "== tier-1: cargo build --release && cargo test -q =="
cargo build --release
cargo test -q

echo "== workspace tests (every crate's unit tests, incl. the tree-builder oracle) =="
cargo test -q --release --workspace

echo "== perfbench: unit tests (incl. the perf <-> BENCHMARK.json catalogue guard) =="
cargo test --release --manifest-path perfbench/Cargo.toml

echo "== perfbench: smoke run (small lakes, same code paths and output checks) =="
cargo run --release -q --manifest-path perfbench/Cargo.toml --bin perf -- --quick

echo "== ingestion bench (smoke: parallel scan + shard + .mtc cache asserts) =="
cargo run --release -q -p metam-bench --bin ingestion -- --quick --out target/bench-smoke

echo "== search bench (smoke: batched query execution determinism asserts) =="
cargo run --release -q -p metam-bench --bin search -- --quick --out target/bench-smoke

echo "== candidates bench (smoke: sketch-backed prepare parity + bounded-load asserts) =="
cargo run --release -q -p metam-bench --bin candidates -- --quick --out target/bench-smoke

echo "== trace smoke: discover --trace emits a validatable JSONL trace =="
TRACE_DIR=$(mktemp -d)
trap 'rm -rf "$TRACE_DIR"' EXIT
./target/release/metam demo "$TRACE_DIR/lake" --seed 7 >/dev/null
./target/release/metam discover "$TRACE_DIR/lake" --din din \
    --task classification:label --budget 60 --seed 7 --threads 2 \
    --trace "$TRACE_DIR/run.jsonl" >/dev/null
./target/release/metam trace-validate "$TRACE_DIR/run.jsonl"

echo "== serve smoke: daemon answers status/discover over TCP, then drains =="
SERVE_LOG="$TRACE_DIR/serve.log"
./target/release/metam serve "$TRACE_DIR/lake" --workers 2 --queue 4 \
    --stop-file "$TRACE_DIR/stop" > "$SERVE_LOG" 2>/dev/null &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^metam serve listening on //p' "$SERVE_LOG")
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "serve smoke: daemon never printed its address"; exit 1; }
./target/release/metam request "$ADDR" '{"verb":"status"}' > /dev/null
./target/release/metam request "$ADDR" \
    '{"verb":"discover","lake":"lake","din":"din","task":"classification:label","seed":7,"budget":60}' \
    > "$TRACE_DIR/serve-discover.json"
grep -q '"report":' "$TRACE_DIR/serve-discover.json"
./target/release/metam request "$ADDR" '{"verb":"shutdown"}' > /dev/null
wait "$SERVE_PID"

echo "CI OK"
