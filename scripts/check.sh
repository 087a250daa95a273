#!/usr/bin/env bash
# Full local gate: check formatting, lint everything (warnings are
# errors), run the whole workspace test suite (and tier-1 again on one
# core), then the bounded smokes. Mirrors what CI should enforce.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every workspace member (vendored shims included) must be rustfmt-clean.
# perfbench/harness is its own package and is not formatted from here.
echo "== rustfmt (cargo fmt --all --check) =="
cargo fmt --all --check

echo "== clippy (all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

# --no-fail-fast: a red test binary must not hide the status of the
# binaries after it.
echo "== tests (workspace) =="
cargo test --workspace -q --no-fail-fast

# Tier-1 again on one core: available_parallelism follows the affinity
# mask, so every pool budget resolves to 1 and the serial paths run.
# A multi-core box then covers both ends of the thread range.
if [ "$(nproc)" -gt 1 ]; then
  echo "== tier-1 tests on one core (taskset -c 0) =="
  taskset -c 0 cargo test -q
fi

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

# The smokes below check absolute bounds that hold on any machine and
# read no baseline. Regressions against the parent commit are measured
# like for like by the repository benchmark (perfbench/, BENCHMARK.json).
#
# Bounded large-n smoke: the full generate → sharded ingest → fit →
# coalesce → bundle path at 100k raw flows must finish inside a generous
# wall-clock budget (it takes well under a second on a 2-core box; the
# budget only catches complexity regressions, not machine variance) and
# must keep its structural invariants (≥90% of raw flows measured,
# coalesce ratio ≥ half the replication factor).
echo "== large-n smoke (100k coalesced end-to-end, 120s budget) =="
cargo run --release -q -p transit-bench --bin smoke -- large-n 100000 120

# Bounded ingest smoke: encode 100k raw flows to wire once, ingest them
# through the serial path and the parallel fast path, and require
# identical collector state and stats plus a wall-clock budget. This is
# the cheap end-to-end proof that the zero-copy/parallel ingest stays
# exact on every machine the gate runs on.
echo "== ingest smoke (serial vs parallel fast path, 60s budget) =="
cargo run --release -q -p transit-bench --bin smoke -- ingest 100000 60

# Artifact-store smoke: run fig8 cold against a fresh store, then warm
# with --resume. The cold run must miss every stage, the warm run must
# hit every stage (zero recomputation), emit byte-identical figure JSON,
# and finish >= 5x faster than the cold run.
echo "== store smoke (cold vs warm --resume, 100% hits + 5x gate) =="
cargo run --release -q -p transit-bench --bin smoke -- store target/store-smoke

# Observability smoke: run fig8 with the journal and the live /metrics
# endpoint enabled, scrape /healthz and /metrics mid-run (fig8 reruns
# until at least one full scrape round overlapped a run; every body is
# parsed by the Prometheus validator), then check the written artifacts:
# events.jsonl must be schema-valid and trace.json a well-formed Chrome
# trace with balanced per-thread spans. Finally, as medians of paired
# default-size fig8 runs: span overhead (info vs quiet) <= 5%, and on
# more than one core the threads=N speedup >= 50% parallel efficiency
# over min(cores, 18 fig8 items).
echo "== obs smoke (journal + /metrics + trace schemas, 5% overhead, 50% efficiency) =="
cargo run --release -q -p transit-bench --bin smoke -- obs target/obs-smoke

echo "OK"
