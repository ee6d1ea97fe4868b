#!/usr/bin/env bash
# Offline CI gate: formatting, lints, tier-1 verify, full workspace
# tests (including the golden regression set). Never touches the
# network; missing optional toolchain components are skipped with a
# notice rather than failing the run.
set -euo pipefail

cd "$(dirname "$0")/.."

step() { printf '\n==> %s\n' "$*"; }

step "rustfmt check"
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all -- --check
else
    echo "rustfmt not installed; skipping"
fi

step "clippy (workspace, -D warnings)"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets --offline -- -D warnings
    # The coherence substrate and the simulation loop must not panic on
    # lookup failures: every unwrap in spcp-mem/spcp-noc/spcp-sim/
    # spcp-system library code is a latent protocol bug.
    cargo clippy -p spcp-mem -p spcp-noc -p spcp-sim -p spcp-system --offline -- \
        -D warnings -W clippy::unwrap_used
else
    echo "clippy not installed; skipping"
fi

step "rustdoc (workspace libraries, -D warnings): no broken or private intra-doc links"
# `--lib` keeps the `spcp` binary's docs from colliding with the `spcp`
# library's output directory.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --offline

step "tier-1 verify: cargo build --release && cargo test -q"
cargo build --release --offline
cargo test -q --offline

step "full workspace build + tests (experiment registry, CLI, golden checks)"
cargo build --release --workspace --offline
cargo test -q --workspace --offline

step "benchmark build (perfbench links the public crate API)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

step "golden snapshot verify"
cargo test -q --offline --test golden_regression

step "invariant layer: workspace tests with runtime audits compiled in"
cargo test -q --offline --features invariants
# The SoA/batched-reservation lockstep harness, explicitly, with audits on.
cargo test -q --offline --features invariants --test soa_equivalence

step "lockstep smoke with optimizations on (layout bugs surface in release)"
cargo test -q --release --offline --test soa_equivalence

step "machine reuse lockstep, optimized: reused machines match fresh ones"
cargo test --release --offline --test machine_reuse

step "op source lockstep, optimized: streamed cursors match the materializing reference"
cargo test --release --offline --test op_source_equivalence

step "trace codec and race analyzer against their reference ports, optimized"
cargo test --release --offline --test trace_equivalence

step "verify crate tests, optimized (the model checker drives the runtime audits)"
cargo test --release --offline -p spcp-verify

step "streamed sweep smoke: spool to disk, golden-verify, idle resume"
SPOOL="$(mktemp -d)"
trap 'rm -rf "$SPOOL"' EXIT
cargo run --release --offline -p spcp-cli -- sweep \
    --benches fft,lu --protocols dir,sp --seeds 7 --jobs 2 \
    --out "$SPOOL/sweep" --update-golden --golden "$SPOOL/sweep.golden"
# Resuming a complete spool executes nothing and reproduces the snapshot.
cargo run --release --offline -p spcp-cli -- sweep \
    --benches fft,lu --protocols dir,sp --seeds 7 --jobs 2 \
    --out "$SPOOL/sweep" --resume --golden "$SPOOL/sweep.golden"

step "kill-resume smoke: torn shard tail, --resume refills the matrix"
cargo run --release --offline -p spcp-cli -- sweep \
    --benches fft,lu --protocols dir,sp --seeds 7 --jobs 2 \
    --out "$SPOOL/kill" --update-golden --golden "$SPOOL/kill.golden"
# Simulate a mid-write kill: cut the last shard inside its final record.
SHARD="$(ls "$SPOOL"/kill/shard-*.jsonl | tail -1)"
SIZE="$(wc -c < "$SHARD")"
truncate -s "$((SIZE - 7))" "$SHARD"
cargo run --release --offline -p spcp-cli -- sweep \
    --benches fft,lu --protocols dir,sp --seeds 7 --jobs 2 \
    --out "$SPOOL/kill" --resume --golden "$SPOOL/kill.golden"
cmp "$SPOOL/sweep.golden" "$SPOOL/kill.golden"

step "experiment registry: every report byte-identical to its fixture, optimized"
cargo test --release --offline -p spcp-bench --test experiments -- --include-ignored

step "experiment kill-resume smoke: torn fig8 shard, --resume reprints the report"
cargo run --release --offline -q -p spcp-cli -- exp fig8_miss_latency --jobs 2 \
    --out "$SPOOL/exp" > /dev/null
SHARD="$(ls "$SPOOL"/exp/fig8_miss_latency/0/shard-*.jsonl | tail -1)"
SIZE="$(wc -c < "$SHARD")"
truncate -s "$((SIZE - 7))" "$SHARD"
cargo run --release --offline -q -p spcp-cli -- exp fig8_miss_latency --jobs 2 \
    --out "$SPOOL/exp" --resume > "$SPOOL/fig8.out"
cmp "$SPOOL/fig8.out" crates/bench/tests/fixtures/fig8_miss_latency.out

step "trace pipeline smoke: record, characterize and race-check a trace file"
cargo run --release --offline -p spcp-cli -- trace --bench fft --out "$SPOOL/fft.trace"
cargo run --release --offline -p spcp-cli -- analyze --trace "$SPOOL/fft.trace"
# fft's trace has known unordered communication pairs: `check` must list
# them and exit with status 1.
CHECK_STATUS=0
cargo run --release --offline -q -p spcp-cli -- check --trace "$SPOOL/fft.trace" \
    > "$SPOOL/fft.check" 2>&1 || CHECK_STATUS=$?
if [ "$CHECK_STATUS" -ne 1 ] || ! grep -q "unordered" "$SPOOL/fft.check"; then
    cat "$SPOOL/fft.check"
    echo "check --trace: expected exit status 1 reporting unordered pairs, got $CHECK_STATUS"
    exit 1
fi
head -n 2 "$SPOOL/fft.check"

step "64-core trace smoke: record vips on the 8x8 mesh, characterize and race-check it"
cargo run --release --offline -p spcp-cli -- trace --bench vips --cores 64 \
    --out "$SPOOL/vips64.trace"
cargo run --release --offline -p spcp-cli -- analyze --trace "$SPOOL/vips64.trace" --cores 64
# vips shares without ordering on the 64-core machine (~43 K unordered
# pairs): `check` must report them and exit with status 1.
CHECK_STATUS=0
cargo run --release --offline -q -p spcp-cli -- check --trace "$SPOOL/vips64.trace" \
    --cores 64 > "$SPOOL/vips64.check" 2>&1 || CHECK_STATUS=$?
if [ "$CHECK_STATUS" -ne 1 ] || ! grep -q "unordered" "$SPOOL/vips64.check"; then
    cat "$SPOOL/vips64.check"
    echo "check --trace --cores 64: expected exit status 1 reporting unordered pairs, got $CHECK_STATUS"
    exit 1
fi
head -n 2 "$SPOOL/vips64.check"

step "model checker smoke: exhaustive 2-core x 1-line enumeration"
cargo run --release --offline -p spcp-cli -- check --model --cores 2 --lines 1

step "benchmark smoke: every perfbench workload, traced, exits 0 with correct output"
for WORKLOAD in paper16 mesh64 trace16 farm_tiny; do
    BENCH_STATUS=0
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$WORKLOAD" --seconds 1 --trace 1 \
        > "$SPOOL/bench-$WORKLOAD.out" 2> "$SPOOL/bench-$WORKLOAD.err" || BENCH_STATUS=$?
    if [ "$BENCH_STATUS" -ne 0 ] || ! tail -n 1 "$SPOOL/bench-$WORKLOAD.out" | grep -q '"correct": true'; then
        tail -n 20 "$SPOOL/bench-$WORKLOAD.err"
        echo "perfbench $WORKLOAD: expected exit status 0 and \"correct\": true, got $BENCH_STATUS"
        exit 1
    fi
    echo "perfbench $WORKLOAD: ok"
done

echo
echo "CI passed."
