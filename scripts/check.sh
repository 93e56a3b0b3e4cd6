#!/usr/bin/env bash
# Repo-wide check: build, tests, and the decode-path panic gate.
#
# The panic gate runs clippy with `unwrap_used` and `panic` promoted to
# errors on every crate that sits on the decode path (the corruption
# hardening contract: corrupt bytes must surface as typed errors, never as
# panics). It lints library targets only — test code and the writers are
# free to unwrap, and `#[allow(clippy::unwrap_used, clippy::panic)]` on an
# encode-side item is the documented escape hatch if one ever needs it.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release)"
cargo build --release --quiet

echo "== tier-1 tests"
cargo test --quiet

echo "== workspace tests (fault-injection campaigns included)"
cargo test --workspace --quiet

echo "== scan parts + scan service suites (incl. object-store e2e)"
cargo test -p btr-scan -p btr-server --quiet

echo "== one decoder per scheme (no allocate-fresh per-scheme decompress)"
if grep -rn "pub fn decompress(" crates/btrblocks/src/scheme/; then echo "per-scheme decompress wrapper is back"; exit 1; fi

echo "== decode-path panic gate"
DECODE_CRATES=(
  btrblocks
  btr-bitpacking
  btr-expr
  btr-fsst
  btr-roaring
  btr-float
  btr-lz
  btr-scan
  btr-server
  parquet-lite
  orc-lite
)
for crate in "${DECODE_CRATES[@]}"; do
  echo "   clippy -p ${crate}"
  cargo clippy -p "${crate}" --lib --quiet -- \
    -D clippy::unwrap_used \
    -D clippy::panic
done

echo "== static analysis (btr-lint --check against lint-ratchet.toml)"
cargo run --release --quiet -p btr-lint -- --check

echo "== clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "== scan-engine smoke benchmark (BENCH_scan.json)"
BENCH_ROWS="${BENCH_ROWS:-64000}" BENCH_SCAN_JSON="BENCH_scan.json" \
  cargo run --release --quiet -p btr-bench --bin scan_pipeline > /dev/null
grep -q '"cache_hit_rate"' BENCH_scan.json

echo "== query-engine smoke benchmark (BENCH_query.json)"
BENCH_ROWS="${BENCH_ROWS:-64000}" BENCH_QUERY_JSON="BENCH_query.json" \
  cargo run --release --quiet -p btr-bench --bin query_engine > /dev/null
# The expression-engine contract: at 1% selectivity, pushdown (zone pruning +
# compressed-domain leaves + late materialization) must not lose to
# decode-everything-then-filter, and unfiltered COUNT/MIN/MAX must answer
# from zone maps without decoding a single block.
grep -q '"selectivity": 0.01, .*"pushdown_ok": true' BENCH_query.json
grep -q '"aggregate": {.*"blocks_decoded": 0}' BENCH_query.json

echo "== decode-scratch smoke benchmark (BENCH_decode.json)"
BENCH_ROWS="${BENCH_ROWS:-64000}" BENCH_DECODE_JSON="BENCH_decode.json" \
  cargo run --release --quiet -p btr-bench --bin decode_scratch > /dev/null
grep -q '"warm-scratch"' BENCH_decode.json
# The warm pass must stay allocation-free (tracked by the bench binary's
# global allocator): its heap_growth_bytes field is the last run's.
grep -q '"name": "warm-scratch", "seconds": [0-9.]*, "rows_per_s": [0-9]*, "heap_growth_bytes": 0,' BENCH_decode.json
# Morsel-parallel decode must reproduce the serial relation exactly, and the
# dispenser's claim path must cost < 5% over a dispenser-free serial loop.
grep -q '"decode_matches_serial": true' BENCH_decode.json
grep -q '"dispenser_overhead_ok": true' BENCH_decode.json

echo "== encode-path smoke benchmark (BENCH_compress.json)"
BENCH_ROWS="${BENCH_ROWS:-64000}" BENCH_COMPRESS_JSON="BENCH_compress.json" \
  cargo run --release --quiet -p btr-bench --bin compression_speed > /dev/null
# The warm encode pass must stay allocation-free (tracked by the bench
# binary's global allocator), morsel-parallel compression must be
# byte-identical to serial, and the dispenser's claim path must cost < 5%
# over a dispenser-free serial loop (that gate holds on any machine,
# including single-core CI hosts).
grep -q '"name": "warm-scratch", "seconds": [0-9.]*, "mb_per_s": [0-9.]*, "heap_growth_bytes": 0,' BENCH_compress.json
grep -q '"parallel_matches_serial": true' BENCH_compress.json
grep -q '"dispenser_overhead_ok": true' BENCH_compress.json
# The 4-thread speedup gate (>= 1.5x) only means something with >= 4 cores;
# the bench records applicability so small hosts skip it with a log line
# instead of a vacuous pass being mistaken for a measurement.
if grep -q '"speedup4_applicable": true' BENCH_compress.json; then
  grep -q '"speedup4_ok": true' BENCH_compress.json
else
  echo "   (speedup4 gate skipped: fewer than 4 cores available)"
fi

echo "== chaos campaign smoke (BENCH_chaos.json)"
BENCH_CHAOS_SCHEDULES="${BENCH_CHAOS_SCHEDULES:-100}" BENCH_CHAOS_JSON="BENCH_chaos.json" \
  cargo run --release --quiet -p btr-bench --bin chaos_campaign > /dev/null
# The fault-model contract: randomized fault schedules over concurrent
# scans may fail scans, but only with typed, attributed errors — never a
# panic, never silently wrong bytes.
grep -q '"panics": 0' BENCH_chaos.json
grep -q '"divergent": 0' BENCH_chaos.json
grep -q '"unattributed": 0' BENCH_chaos.json
grep -q '"clean": true' BENCH_chaos.json

echo "== scan service smoke benchmark (BENCH_server.json)"
BENCH_ROWS="${BENCH_ROWS:-64000}" BENCH_SERVER_JSON="BENCH_server.json" \
  cargo run --release --quiet -p btr-bench --bin scan_service > /dev/null
# The sharing contract: under a convergent fault plan every concurrent scan
# must succeed, and the economics the service exists for — cross-scan decode
# dedup — must actually fire at least once.
grep -q '"dedup_positive": true' BENCH_server.json
grep -q '"unattributed": 0' BENCH_server.json
grep -q '"clean": true' BENCH_server.json

echo "== lock-order runtime checker (chaos smokes with --features lock-order)"
# The concurrency contract (DESIGN.md §15): every lock acquisition is
# checked against the declared hierarchy at runtime when the btr-sync
# `lock-order` feature is on. Re-running the chaos smokes under the checker
# proves the real interleavings — not just the lint's static view — respect
# the ranking. Gated so environments without the feature plumbing skip
# gracefully rather than fail.
if cargo build --release --quiet -p btr-bench --features lock-order 2>/dev/null; then
  cargo test --release --quiet -p btr-sync --features lock-order > /dev/null
  BENCH_CHAOS_SCHEDULES="${BENCH_CHAOS_SCHEDULES:-100}" BENCH_CHAOS_JSON="BENCH_chaos_lockorder.json" \
    cargo run --release --quiet -p btr-bench --features lock-order --bin chaos_campaign > /dev/null
  grep -q '"panics": 0' BENCH_chaos_lockorder.json
  grep -q '"clean": true' BENCH_chaos_lockorder.json
  BENCH_ROWS="${BENCH_ROWS:-64000}" BENCH_SERVER_JSON="BENCH_server_lockorder.json" \
    cargo run --release --quiet -p btr-bench --features lock-order --bin scan_service > /dev/null
  grep -q '"unattributed": 0' BENCH_server_lockorder.json
  grep -q '"clean": true' BENCH_server_lockorder.json
else
  echo "   (skipped: lock-order feature unavailable in this build)"
fi

echo "ok"
