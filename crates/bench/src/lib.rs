//! # transit-bench
//!
//! Criterion benchmark harness for the tiered-transit workspace. Five
//! suites (see `benches/`):
//!
//! * `figures` — one benchmark per paper table/figure, each running the
//!   same experiment pipeline the `transit-experiments` binary uses (at a
//!   reduced flow count so a full `cargo bench` stays tractable).
//! * `substrates` — microbenchmarks of the substrate crates: NetFlow v5
//!   encode/decode and collection, prefix-trie lookups, Dijkstra,
//!   haversine, GeoIP lookups, dataset generation, model fitting, bundle
//!   scoring.
//! * `ablations` — the design choices called out in DESIGN.md §6:
//!   token-bucket vs equal-count grouping, exact logit pricing vs the
//!   paper's gradient heuristic, DP ordering count, and flow-aggregation
//!   granularity.
//! * `sweep` — one stage graph at `--threads 1` vs `--threads 8`.
//! * `kernels` — the evaluation hot path in isolation: the DP table
//!   build, one-pass vs per-point capture curves, tiled DP, coalescing,
//!   and the NetFlow ingest fast path.
//!
//! The `smoke` bin holds the bounded end-to-end checks of
//! `scripts/check.sh` (large-n, ingest, store, obs). Each checks
//! absolute bounds and reads no baseline; regressions against the parent
//! commit are measured by the repository benchmark under `perfbench/`.

/// The reduced flow count shared by the figure benches.
pub const BENCH_FLOWS: usize = 80;

/// The seed shared by all benches (determinism keeps criterion's noise
/// estimates honest).
pub const BENCH_SEED: u64 = 42;
