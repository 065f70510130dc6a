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
# Each query's cost splits into materializing its table and fitting the task.
for SPAN in search.materialize search.fit; do
    grep -q "\"span\":\"$SPAN\"" "$TRACE_DIR/run.jsonl" || {
        echo "trace smoke: no $SPAN span in the trace"; exit 1; }
done
# Profile evaluation maps each first hop once, and shares each later
# hop's key index across the groups; its span counts both.
for FIELD in first_hops next_indexes; do
    grep '"span":"prepare.profiles"' "$TRACE_DIR/run.jsonl" | grep -q "\"$FIELD\":" || {
        echo "trace smoke: the prepare.profiles span has no $FIELD field"; exit 1; }
done
# The join search reports what it scored beside its probes; on the seed-7
# demo lake it makes 213 probes and finds 840 candidates, exact
# enumeration invariants that no change to how it searches may move.
CANDIDATES_SPAN=$(grep '"span":"prepare.candidates"' "$TRACE_DIR/run.jsonl")
for FIELD in '"scored":' '"probes":213[,}]' '"candidates":840[,}]'; do
    echo "$CANDIDATES_SPAN" | grep -Eq "$FIELD" || {
        echo "trace smoke: the prepare.candidates span lacks $FIELD: $CANDIDATES_SPAN"; exit 1; }
done
# The catalog is one record per file: .metam/ holds the columnar cache and
# the sketch records, nothing else (no catalog*.tsv manifest).
META_LISTING=$(ls -A "$TRACE_DIR/lake/.metam" | tr '\n' ' ')
[ "$META_LISTING" = "cache sketches " ] || {
    echo "trace smoke: unexpected .metam/ contents: $META_LISTING"; exit 1; }

echo "== threads smoke: a discover reports the same at --threads 1 and 2 =="
# At --threads 2 two workers fit queries on one prepared forest plan. The
# reports must agree once the thread count, the wall-clock *_secs fields
# and the metrics block (timings) are scrubbed.
for THREADS in 1 2; do
    ./target/release/metam discover "$TRACE_DIR/lake" --din din \
        --task classification:label --budget 200 --seed 7 \
        --threads "$THREADS" --json 2>"$TRACE_DIR/threads-$THREADS.err" |
        tee "$TRACE_DIR/threads-$THREADS.raw" |
        awk '
            skip { if ($0 ~ /^  [}]/) skip = 0; next }
            /^  "metrics": / { print "  \"metrics\": 0,"; if ($0 ~ /[{]$/) skip = 1; next }
            { print }
        ' |
        sed -e 's/^  "threads": [0-9]*/  "threads": 0/' \
            -e 's/"\([a-z_]*_secs\)": [^,]*/"\1": 0/' \
        > "$TRACE_DIR/threads-$THREADS.json"
done
grep -q '"trace": \[' "$TRACE_DIR/threads-1.json" || {
    echo "threads smoke: no report"; exit 1; }
cmp "$TRACE_DIR/threads-1.json" "$TRACE_DIR/threads-2.json" || {
    echo "threads smoke: the report depends on --threads"; exit 1; }
# The report counts every table load the discover made, the search's lazy
# loads included: its lake.load.mtc_hits equals the CLI's stderr line
# "table cache: N load(s) from .mtc".
for THREADS in 1 2; do
    LOADS=$(sed -n 's/^table cache: \([0-9]*\) load(s) from .*/\1/p' \
        "$TRACE_DIR/threads-$THREADS.err")
    REPORTED=$(sed -n 's/^ *"lake\.load\.mtc_hits": \([0-9]*\).*/\1/p' \
        "$TRACE_DIR/threads-$THREADS.raw")
    [ -n "$LOADS" ] && [ "$LOADS" = "$REPORTED" ] || {
        echo "threads smoke: the report counts ${REPORTED:-no} .mtc load(s), the CLI $LOADS"
        exit 1; }
done

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
# The same discover again is answered from the snapshot's candidate memo:
# it reads no sketch record, and its report equals the first one once the
# wall-clock *_secs fields are scrubbed.
./target/release/metam request "$ADDR" \
    '{"verb":"discover","lake":"lake","din":"din","task":"classification:label","seed":7,"budget":60}' \
    > "$TRACE_DIR/serve-discover-again.json"
grep -q '"sketch_hits":0,' "$TRACE_DIR/serve-discover-again.json"
for REPLY in serve-discover serve-discover-again; do
    sed -e 's/.*"report"://' -e 's/"\([a-z_]*_secs\)":[^,}]*/"\1":0/g' \
        "$TRACE_DIR/$REPLY.json" > "$TRACE_DIR/$REPLY.report"
done
cmp "$TRACE_DIR/serve-discover.report" "$TRACE_DIR/serve-discover-again.report" || {
    echo "serve smoke: a repeated discover changed its report"; exit 1; }
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
