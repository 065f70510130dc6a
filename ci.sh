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

echo "== paper: --quick --seed 7 reproduces every pinned dump byte for byte =="
# fig6's y values are wall-clock seconds, so it has no pin.
PAPER_OUT=$(mktemp -d)
trap 'rm -rf "$PAPER_OUT"' EXIT
cargo run --release -q -p metam-bench --bin paper -- --quick --seed 7 \
    --out "$PAPER_OUT" > "$PAPER_OUT/paper.log" 2>&1 || {
    cat "$PAPER_OUT/paper.log"; echo "paper: run failed"; exit 1; }
for PINNED in paper_results/quick-seed7/*.json; do
    diff "$PINNED" "$PAPER_OUT/$(basename "$PINNED")" || {
        echo "paper: $PINNED differs from this run's dump"; exit 1; }
done

echo "== trace smoke: discover --trace emits a validatable JSONL trace =="
TRACE_DIR=$(mktemp -d)
trap 'rm -rf "$PAPER_OUT" "$TRACE_DIR"' EXIT
./target/release/metam demo "$TRACE_DIR/lake" --seed 7 >/dev/null
./target/release/metam discover "$TRACE_DIR/lake" --din din \
    --task classification:label --budget 60 --seed 7 --threads 2 \
    --trace "$TRACE_DIR/run.jsonl" >/dev/null
./target/release/metam trace-validate "$TRACE_DIR/run.jsonl"
# The catalog is one record per file: .metam/ holds the columnar cache and
# the sketch records, nothing else (no catalog*.tsv manifest).
META_LISTING=$(ls -A "$TRACE_DIR/lake/.metam" | tr '\n' ' ')
[ "$META_LISTING" = "cache sketches " ] || {
    echo "trace smoke: unexpected .metam/ contents: $META_LISTING"; exit 1; }

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
./target/release/metam request "$ADDR" '{"verb":"scan","lake":"lake"}' \
    > "$TRACE_DIR/serve-scan.json"
grep -q '"ok":true' "$TRACE_DIR/serve-scan.json"
# The lake is unchanged since the daemon's start-up scan, so the scan verb's
# rescan re-reads every sketch record and re-profiles nothing.
grep -q '"profile_misses":0' "$TRACE_DIR/serve-scan.json"
# Hostile lines under the 1 MiB line cap: 100,000 nested arrays (used to
# overflow the connection thread's stack and abort the daemon) and a
# 512 KiB string value (used to take quadratic time to parse). Each gets a
# typed "ok":false reply (`metam request` exits 2), and the daemon still
# answers status afterwards.
head -c 100000 /dev/zero | tr '\0' '[' > "$TRACE_DIR/nested.line"
PAD=$(head -c 524288 /dev/zero | tr '\0' 'x')
printf '{"verb":"discover","lake":"%s"}' "$PAD" > "$TRACE_DIR/long.line"
for LINE in nested long; do
    if ./target/release/metam request "$ADDR" - < "$TRACE_DIR/$LINE.line" \
        > "$TRACE_DIR/serve-$LINE.json" 2>/dev/null; then
        echo "serve smoke: the $LINE line was accepted"; exit 1
    fi
    grep -q '"ok":false' "$TRACE_DIR/serve-$LINE.json"
done
./target/release/metam request "$ADDR" '{"verb":"status"}' > /dev/null
./target/release/metam request "$ADDR" '{"verb":"shutdown"}' > /dev/null
wait "$SERVE_PID"

echo "CI OK"
