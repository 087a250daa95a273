#!/usr/bin/env bash
# Full local gate: lint everything (warnings are errors), run the whole
# workspace test suite, then the perf-regression gate. Mirrors what CI
# should enforce.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== clippy (all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

# --no-fail-fast: a red test binary must not hide the status of the
# binaries after it.
echo "== tests (workspace) =="
cargo test --workspace -q --no-fail-fast

# Differential fuzz smoke: replay every committed regression case in
# tests/corpus/, then run 500 fresh scenarios (fixed seed set, so this
# is deterministic) round-robin across the four oracle families —
# coalesced vs raw markets, tiled vs serial DP, one-pass vs per-point
# series, sharded vs serial fault-injected ingest. Fails on any oracle
# divergence, any un-replayed corpus case, or blowing the 60s budget
# (a full run takes ~2s on a dev laptop). A divergence is auto-shrunk
# and written to target/fuzz_failures/ for committing to the corpus.
echo "== fuzz smoke (corpus replay + 500 differential scenarios, 60s budget) =="
cargo run --release -q -p transit-testkit --bin fuzz_smoke -- \
  --corpus tests/corpus --scenarios 500 --budget-secs 60 --seeds 42,1337,2011

# Bounded large-n smoke: the full generate → sharded ingest → fit →
# coalesce → bundle path at 100k raw flows must finish inside a generous
# wall-clock budget (it takes ~1s on a dev laptop; the budget only
# catches complexity regressions, not machine variance) and must keep
# its structural invariants (≥90% of raw flows measured, coalesce ratio
# ≥ half the replication factor).
echo "== large-n smoke (100k coalesced end-to-end, 120s budget) =="
cargo run --release -q -p transit-bench --bin sweep_smoke -- --smoke 100000 120

# Bounded ingest smoke: encode 100k raw flows to wire once, ingest them
# through the serial path and the parallel fast path, and require
# byte-identical collector state plus a wall-clock budget. This is the
# cheap end-to-end proof that the zero-copy/parallel ingest rewrite
# stays exact on every machine the gate runs on.
echo "== ingest smoke (serial vs parallel fast path, 60s budget) =="
cargo run --release -q -p transit-bench --bin sweep_smoke -- --ingest-smoke 100000 60

# Perf gate (schema v3): measure fresh and compare against the committed
# BENCH_sweep.json. Fails if items_per_sec_jobs1 drops >20%, the
# one-pass capture kernel loses its >=5x win, the million-flow path
# loses its structural invariants, or its ingest throughput / pooled
# curves phase regress >20% like-for-like; the parallel-speedup and
# wall-clock assertions are skipped automatically when baseline and
# measurement ran at different parallelism (a single-core baseline is
# never used as a scaling reference). v2 baselines still gate the
# sections they have. To accept an intended perf change, regenerate the
# baseline with
#   cargo run --release -p transit-bench --bin sweep_smoke -- BENCH_sweep.json
# and commit the result.
echo "== perf gate (fresh run vs committed BENCH_sweep.json) =="
cargo run --release -q -p transit-bench --bin sweep_smoke -- --gate BENCH_sweep.json

# Artifact-store smoke: run fig8 cold against a fresh --store, then warm
# with --resume. The warm run must hit the store for every stage (zero
# recomputation), emit byte-identical figure JSON, and finish >= 5x
# faster than the cold run. The cold/warm timings are recorded under the
# "store_smoke" key of BENCH_sweep.json (a surgical splice — every other
# byte of the committed baseline is preserved) and one "store-smoke"
# line is appended to the BENCH_history.jsonl ledger.
echo "== store smoke (cold vs warm --resume, 100% hits + 5x gate) =="
cargo run --release -q -p transit-bench --bin store_smoke -- \
  --dir target/store-smoke --sweep BENCH_sweep.json --history BENCH_history.jsonl

# Observability smoke: run a short sweep with the journal and the live
# /metrics endpoint enabled, scrape /healthz and /metrics mid-run
# (every body is parsed by the Prometheus validator), then check the
# written artifacts — events.jsonl must be schema-valid with balanced
# per-thread spans and trace.json must load as a well-formed Chrome
# trace. Finally the span-overhead budget (<=5%) is enforced and one
# "obs-smoke" entry is appended to the BENCH_history.jsonl ledger; the
# report render proves the ledger stays machine-readable end to end.
echo "== obs smoke (journal + /metrics + trace schemas, 5% overhead budget) =="
cargo run --release -q -p transit-bench --bin obs_smoke -- \
  --dir target/obs-smoke --history BENCH_history.jsonl

echo "== bench history report (BENCH_history.jsonl -> target/obs-smoke/REPORT.md) =="
cargo run --release -q -p transit-bench --bin obs_report -- \
  BENCH_history.jsonl --out target/obs-smoke/REPORT.md

echo "OK"
