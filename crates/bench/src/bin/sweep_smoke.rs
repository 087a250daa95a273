//! Sweep bench-smoke: a fast, scriptable perf check that writes
//! `BENCH_sweep.json` (schema v3) and doubles as the perf-regression
//! gate for `scripts/check.sh`.
//!
//! Three sections:
//!
//! * **sweep** — fig8 (3 panels × 6 strategies = 18 DP-heavy items) at
//!   `threads = 1` and `threads = N` (all cores), observability quiet,
//!   plus a `threads = 1` run with spans enabled from which the
//!   observability overhead percentage is derived (budget: ≤ 5%). The
//!   quiet and info runs are measured **interleaved** (quiet, info,
//!   quiet, info, …, best-of each) so both levels sample the same
//!   scheduler phases —
//!   the same trick the ingest gate uses; a sequential pair can report
//!   "info faster than quiet" purely because the box sped up between
//!   the two blocks. The reported overhead is clamped at 0% (negative
//!   overhead is measurement noise by definition) with the raw value
//!   kept in `obs_overhead_pct_info_vs_quiet_raw`. When only one core
//!   is available the report says so (`single_core: true` + `warning`)
//!   and the parallel speedup number is descriptive, not an assertion;
//!   on more cores the gate requires 50% parallel efficiency over
//!   `min(cores, items)`.
//! * **kernels** — `capture_curve` over `OptimalDp` at n ∈ {100, 1000}
//!   flows, B_max = 10, one-pass (`bundle_series`) vs the per-point
//!   baseline (a wrapper strategy that forwards `bundle` but keeps the
//!   default per-`b` `bundle_series` loop). The one-pass rewrite must
//!   hold a ≥ 5× win at n = 1000 — that ratio is algorithmic
//!   (≈ (B+1)/2 fewer DP cell updates), so it gates on any machine.
//! * **million_flow** — the full scaling path: replicated million-flow
//!   dataset → sharded NetFlow ingest → CED fit → ε = 0 flow coalescing
//!   → capture curves for every heuristic strategy at B_max = 10, fanned
//!   out across strategies on the [`transit_pool`] workers (the shared
//!   sort order, prefix sums, and segment-score memo are built once per
//!   market and reused read-only by every strategy). Reports per-phase
//!   timings, the coalesce ratio, and a `curves_per_strategy_sec`
//!   breakdown. Gates on the *structural* properties (coalesce ratio,
//!   measured-flow recovery), which hold on any machine, plus
//!   like-for-like wall-clock comparisons (ingest throughput and
//!   `curves_sec`) that only fire when baseline and measurement ran the
//!   same problem size at the same parallelism.
//!
//! Usage:
//!
//! ```text
//! sweep_smoke [OUT.json]          # measure and write the v3 report
//! sweep_smoke --gate BASELINE [HISTORY]
//!                                 # measure, compare against committed
//!                                 # baseline, exit non-zero on regression;
//!                                 # on success append one line to the
//!                                 # bench-history ledger (default
//!                                 # BENCH_history.jsonl)
//! sweep_smoke --smoke [N] [SECS]  # bounded large-n smoke: run only the
//!                                 # million-flow path at N raw flows
//!                                 # (default 100000) and fail if it
//!                                 # exceeds SECS (default 120) wall clock
//! sweep_smoke --ingest-smoke [N] [SECS]
//!                                 # bounded ingest smoke: encode N raw
//!                                 # flows (default 100000) to wire
//!                                 # datagrams, ingest them serially and
//!                                 # through the parallel fast path,
//!                                 # assert identical state, print both
//!                                 # throughputs, fail over SECS
//!                                 # (default 60) wall clock
//! ```
//!
//! Gate migration (v2 → v3): v2 baselines lack the `million_flow`
//! section and the gate's like-for-like speedup comparison; gating a v3
//! measurement against a v2 baseline still checks `items_per_sec_jobs1`
//! and the kernel ratios, prints a migration note for the rest, and
//! passes — regenerate the baseline with `sweep_smoke BENCH_sweep.json`
//! to pick up the new sections. The v3 gate reads the baseline's
//! `single_core` flag and only compares parallel speedups when **both**
//! runs were multi-core, so a baseline recorded on a single-core box
//! (`speedup_jobsN ≈ 1.0`) can no longer masquerade as a scaling
//! reference.

use std::time::Instant;

use transit_core::bundling::{Bundling, BundlingStrategy, OptimalDp, StrategyKind};
use transit_core::capture::capture_curve;
use transit_core::coalesce::CoalescedMarket;
use transit_core::cost::LinearCost;
use transit_core::demand::ced::CedAlpha;
use transit_core::demand::DemandFamily;
use transit_core::fitting::fit_ced;
use transit_core::market::{CedMarket, TransitMarket};
use transit_datasets::{generate_replicated, run_pipeline, Network, PipelineConfig};
use transit_experiments::markets::{fit_market, flows_for};
use transit_experiments::{runners, ExperimentConfig};

const ITEMS_PER_RUN: usize = 18; // fig8: 3 panels x 6 strategies
const REPS: usize = 3;
/// Parallel-efficiency floor of the sweep gate: `speedup_jobsN` must
/// reach this fraction of the usable parallelism `min(cores, items)`.
/// At 0.5 the floor is 1.0× on 2 cores (a 2-core box measures
/// 1.4–1.9×) and 2.0× on 4 cores, the old fixed floor.
const MIN_PARALLEL_EFFICIENCY: f64 = 0.5;
const SWEEP_N_FLOWS: usize = 160;
const KERNEL_B_MAX: usize = 10;
const MILLION_FLOW_RAW: usize = 1_000_000;
const MILLION_FLOW_DISTINCT: usize = 1_000;
const SMOKE_DEFAULT_RAW: usize = 100_000;
const SMOKE_DEFAULT_BUDGET_SECS: f64 = 120.0;
const INGEST_SMOKE_DEFAULT_RAW: usize = 100_000;
const INGEST_SMOKE_DEFAULT_BUDGET_SECS: f64 = 60.0;

fn config(threads: usize, log_level: transit_obs::Level) -> ExperimentConfig {
    ExperimentConfig {
        n_flows: SWEEP_N_FLOWS,
        threads,
        log_level,
        ..ExperimentConfig::default()
    }
}

/// Items/sec for fig8 under `cfg`, best of [`REPS`] timed runs (best-of
/// suppresses scheduler noise better than the mean on shared machines).
fn items_per_sec(cfg: &ExperimentConfig) -> f64 {
    transit_obs::set_log_level(cfg.log_level);
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        runners::run("fig8", cfg).expect("fig8 runs").expect("fig8 known");
        best = best.min(start.elapsed().as_secs_f64());
    }
    ITEMS_PER_RUN as f64 / best
}

/// Items/sec for fig8 at `threads = 1` under quiet and info levels,
/// measured **interleaved** (quiet, info, quiet, info, …) and best-of
/// [`REPS`] each, so both levels sample the same scheduler phases. A
/// sequential pair of best-of blocks can report negative overhead
/// (info "faster" than quiet) purely because the box sped up between
/// the blocks — the same noise the ingest gate's retry loop absorbs.
fn items_per_sec_quiet_info_interleaved() -> (f64, f64) {
    let quiet_cfg = config(1, transit_obs::Level::Quiet);
    let info_cfg = config(1, transit_obs::Level::Info);
    let mut best_quiet = f64::INFINITY;
    let mut best_info = f64::INFINITY;
    for _ in 0..REPS {
        for (cfg, best) in [(&quiet_cfg, &mut best_quiet), (&info_cfg, &mut best_info)] {
            transit_obs::set_log_level(cfg.log_level);
            let start = Instant::now();
            runners::run("fig8", cfg).expect("fig8 runs").expect("fig8 known");
            *best = best.min(start.elapsed().as_secs_f64());
        }
    }
    (
        ITEMS_PER_RUN as f64 / best_quiet,
        ITEMS_PER_RUN as f64 / best_info,
    )
}

/// Forwards `bundle` but keeps the default per-`b` `bundle_series` loop:
/// the pre-one-pass baseline, measured against the same inner strategy.
struct PerPointBaseline<S: BundlingStrategy>(S);

impl<S: BundlingStrategy> BundlingStrategy for PerPointBaseline<S> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn bundle(
        &self,
        market: &dyn TransitMarket,
        n_bundles: usize,
    ) -> transit_core::error::Result<Bundling> {
        self.0.bundle(market, n_bundles)
    }
    // No bundle_series override: the trait default re-derives every
    // curve point from scratch.
}

/// Best-of-[`REPS`] seconds for one full capture curve over `strategy`.
fn curve_seconds(market: &dyn TransitMarket, strategy: &dyn BundlingStrategy) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        capture_curve(market, strategy, KERNEL_B_MAX).expect("capture curve");
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

struct KernelResult {
    name: &'static str,
    n_flows: usize,
    one_pass_sec: f64,
    per_point_sec: f64,
}

impl KernelResult {
    fn speedup(&self) -> f64 {
        self.per_point_sec / self.one_pass_sec
    }

    fn to_content(&self) -> serde::Content {
        serde::Content::Map(vec![
            ("n_flows".into(), serde::Content::U64(self.n_flows as u64)),
            ("b_max".into(), serde::Content::U64(KERNEL_B_MAX as u64)),
            ("one_pass_sec".into(), serde::Content::F64(self.one_pass_sec)),
            ("per_point_sec".into(), serde::Content::F64(self.per_point_sec)),
            ("speedup_one_pass".into(), serde::Content::F64(self.speedup())),
        ])
    }
}

/// `capture_curve` over `OptimalDp`, one-pass vs per-point, at `n_flows`.
fn kernel_capture_dp(name: &'static str, n_flows: usize) -> KernelResult {
    let cfg = ExperimentConfig {
        n_flows,
        ..ExperimentConfig::default()
    };
    let cost = LinearCost::new(cfg.theta).expect("valid theta");
    let flows = flows_for(Network::EuIsp, &cfg);
    let market = fit_market(DemandFamily::Ced, &flows, &cost, &cfg).expect("market fits");
    // Warm the order/prefix-sum caches so both variants measure DP work,
    // not one-time cache builds.
    capture_curve(market.as_ref(), &OptimalDp::default(), KERNEL_B_MAX).expect("warmup");
    KernelResult {
        name,
        n_flows,
        one_pass_sec: curve_seconds(market.as_ref(), &OptimalDp::default()),
        per_point_sec: curve_seconds(market.as_ref(), &PerPointBaseline(OptimalDp::default())),
    }
}

/// One run of the full scaling path (tentpole of the million-flow PR):
/// replicated dataset → sharded ingest → fit → ε = 0 coalesce → capture
/// curves over every heuristic strategy.
struct MillionFlowResult {
    n_raw: usize,
    n_distinct: usize,
    n_measured: usize,
    n_groups: usize,
    ingest_shards: usize,
    ingest_workers: usize,
    datagrams: u64,
    records: u64,
    generate_sec: f64,
    ingest_sec: f64,
    fit_sec: f64,
    coalesce_sec: f64,
    curves_sec: f64,
    /// Pool width the curves fan-out ran at (1 = inline serial, e.g. on
    /// a single-core box or under `--threads 1`).
    curves_threads: usize,
    /// Wall-clock seconds per heuristic strategy's capture curve, in
    /// [`heuristic_kinds`] order (each measured on its own worker).
    curves_per_strategy_sec: Vec<(&'static str, f64)>,
}

impl MillionFlowResult {
    /// Raw measured flows per coalesced group.
    fn coalesce_ratio(&self) -> f64 {
        self.n_measured as f64 / self.n_groups as f64
    }

    fn total_sec(&self) -> f64 {
        self.generate_sec + self.ingest_sec + self.fit_sec + self.coalesce_sec + self.curves_sec
    }

    /// Export datagrams pushed through the measurement path per second
    /// (the ingest phase covers packets → export → collect → matrix).
    fn datagrams_per_sec(&self) -> f64 {
        self.datagrams as f64 / self.ingest_sec
    }

    /// Flow records pushed through the measurement path per second.
    fn records_per_sec(&self) -> f64 {
        self.records as f64 / self.ingest_sec
    }

    fn to_content(&self) -> serde::Content {
        serde::Content::Map(vec![
            ("n_raw_flows".into(), serde::Content::U64(self.n_raw as u64)),
            ("n_distinct".into(), serde::Content::U64(self.n_distinct as u64)),
            (
                "n_measured_flows".into(),
                serde::Content::U64(self.n_measured as u64),
            ),
            ("n_groups".into(), serde::Content::U64(self.n_groups as u64)),
            (
                "coalesce_ratio".into(),
                serde::Content::F64(self.coalesce_ratio()),
            ),
            (
                "ingest_shards".into(),
                serde::Content::U64(self.ingest_shards as u64),
            ),
            (
                "ingest_workers".into(),
                serde::Content::U64(self.ingest_workers as u64),
            ),
            ("datagrams".into(), serde::Content::U64(self.datagrams)),
            ("records".into(), serde::Content::U64(self.records)),
            (
                "ingest_datagrams_per_sec".into(),
                serde::Content::F64(self.datagrams_per_sec()),
            ),
            (
                "ingest_records_per_sec".into(),
                serde::Content::F64(self.records_per_sec()),
            ),
            ("b_max".into(), serde::Content::U64(KERNEL_B_MAX as u64)),
            ("generate_sec".into(), serde::Content::F64(self.generate_sec)),
            ("ingest_sec".into(), serde::Content::F64(self.ingest_sec)),
            ("fit_sec".into(), serde::Content::F64(self.fit_sec)),
            ("coalesce_sec".into(), serde::Content::F64(self.coalesce_sec)),
            ("curves_sec".into(), serde::Content::F64(self.curves_sec)),
            (
                "curves_threads".into(),
                serde::Content::U64(self.curves_threads as u64),
            ),
            (
                "curves_per_strategy_sec".into(),
                serde::Content::Map(
                    self.curves_per_strategy_sec
                        .iter()
                        .map(|&(name, sec)| (name.to_string(), serde::Content::F64(sec)))
                        .collect(),
                ),
            ),
            ("total_sec".into(), serde::Content::F64(self.total_sec())),
        ])
    }
}

/// Bounded ingest smoke (scripts/check.sh): encodes `n_raw` flows to
/// wire datagrams once, ingests them through the serial path and the
/// parallel fast path, asserts byte-identical collector state, and
/// reports both throughputs. Exits non-zero on divergence or if the
/// whole step blows `budget_secs`.
fn ingest_smoke(n_raw: usize, budget_secs: f64) {
    use transit_netflow::{Collector, Exporter, FlowKey, SystematicSampler};

    let start = Instant::now();
    let n_distinct = MILLION_FLOW_DISTINCT.min(n_raw.max(2));
    let replication = (n_raw / n_distinct).max(1);
    let dataset = generate_replicated(Network::EuIsp, n_distinct, replication, 42);

    // Encode once; both ingest variants read the same wire bytes.
    let mut wire = Vec::new();
    for router in 0..2u8 {
        let mut e = Exporter::new(router, SystematicSampler::new(1));
        for (flow, &(src, dst)) in dataset.flows.iter().zip(&dataset.endpoints) {
            let key = FlowKey {
                src_addr: src,
                dst_addr: dst,
                src_port: 40_000 + (flow.id.0 % 10_000) as u16,
                dst_port: 443,
                protocol: 6,
            };
            e.observe_packets(key, 3, 1_500);
        }
        for pkt in e.flush(0) {
            wire.push(pkt.encode());
        }
    }

    let t = Instant::now();
    let mut serial = Collector::with_shards_and_workers(1, 1);
    serial.ingest_batch(&wire);
    let serial_sec = t.elapsed().as_secs_f64();

    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let t = Instant::now();
    let mut parallel = Collector::with_shards_and_workers(cores.min(8), cores.min(8));
    parallel.ingest_batch(&wire);
    let parallel_sec = t.elapsed().as_secs_f64();

    assert_eq!(
        serial.measured_flows(),
        parallel.measured_flows(),
        "parallel ingest diverged from serial state"
    );
    assert_eq!(
        serial.stats(),
        parallel.stats(),
        "parallel ingest diverged from serial stats"
    );

    let (datagrams, records, _) = serial.stats();
    for (name, sec) in [("serial", serial_sec), ("parallel", parallel_sec)] {
        println!(
            "ingest-smoke: {name} ingested {datagrams} datagrams / {records} \
             records in {sec:.3}s ({:.0} records/sec)",
            records as f64 / sec
        );
    }
    let total = start.elapsed().as_secs_f64();
    if total > budget_secs {
        eprintln!(
            "ingest-smoke FAILED: {n_raw} raw flows took {total:.1}s end to \
             end, budget {budget_secs:.0}s"
        );
        std::process::exit(1);
    }
    println!(
        "ingest-smoke: OK ({n_raw} raw flows, serial and parallel state \
         identical, {total:.2}s, budget {budget_secs:.0}s)"
    );
}

/// The heuristic strategies of Fig. 8 (everything but the DP optimal).
fn heuristic_kinds() -> Vec<StrategyKind> {
    StrategyKind::ALL
        .into_iter()
        .filter(|k| *k != StrategyKind::Optimal)
        .collect()
}

/// Runs the generate → ingest → fit → coalesce → bundle path at `n_raw`
/// raw flows (replicated from [`MILLION_FLOW_DISTINCT`] distinct base
/// flows, so ε = 0 coalescing has real duplicates to merge — the input
/// shape whole-ISP traffic matrices exhibit).
fn million_flow(n_raw: usize) -> MillionFlowResult {
    let n_distinct = MILLION_FLOW_DISTINCT.min(n_raw.max(2));
    let replication = (n_raw / n_distinct).max(1);
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let ingest_shards = cores.min(8);
    let ingest_workers = cores.min(8);

    let t = Instant::now();
    let dataset = generate_replicated(Network::EuIsp, n_distinct, replication, 42);
    let generate_sec = t.elapsed().as_secs_f64();

    // Unsampled measurement: every replica carries a unique flow key, so
    // the collector recovers (nearly) all of them; only flows too small
    // to emit one packet in the window drop out.
    let t = Instant::now();
    let out = run_pipeline(
        &dataset,
        PipelineConfig {
            sampling_rate: 1,
            routers_on_path: 2,
            window_secs: 60.0,
            packet_bytes: 1_500,
            ingest_shards,
            ingest_workers,
        },
    );
    let ingest_sec = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let cost = LinearCost::new(0.2).expect("valid theta");
    let fit = fit_ced(
        &out.measured_flows,
        &cost,
        CedAlpha::new(1.1).expect("valid alpha"),
        20.0,
    )
    .expect("CED fits measured flows");
    let market = CedMarket::new(fit).expect("market builds");
    let fit_sec = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let coalesced = CoalescedMarket::new(market).expect("market coalesces");
    let coalesce_sec = t.elapsed().as_secs_f64();

    // Curves phase: one pool task per heuristic strategy, each timing
    // its own full capture curve. The first task to need the market's
    // sort order / prefix sums / segment-score memo builds it into the
    // fingerprint cache; every other strategy reuses it read-only, so
    // the fan-out parallelizes DP work, not redundant cache builds. At
    // budget 1 (single core, `--threads 1`) the pool runs the loop
    // inline on this thread — bitwise the same results, no pool
    // overhead.
    let kinds = heuristic_kinds();
    let curves_threads = transit_pool::effective_width(0).min(kinds.len()).max(1);
    let t = Instant::now();
    let curves_per_strategy_sec: Vec<(&'static str, f64)> =
        transit_pool::run_indexed(0, &kinds, |_, kind| {
            let strategy = kind.build();
            let t = Instant::now();
            capture_curve(&coalesced, strategy.as_ref(), KERNEL_B_MAX).expect("capture curve");
            (strategy.name(), t.elapsed().as_secs_f64())
        });
    let curves_sec = t.elapsed().as_secs_f64();

    MillionFlowResult {
        n_raw,
        n_distinct,
        n_measured: coalesced.n_raw_flows(),
        n_groups: coalesced.n_groups(),
        ingest_shards,
        ingest_workers,
        datagrams: out.datagrams,
        records: out.records,
        generate_sec,
        ingest_sec,
        fit_sec,
        coalesce_sec,
        curves_sec,
        curves_threads,
        curves_per_strategy_sec,
    }
}

struct Report {
    jobs_n: usize,
    single_core: bool,
    quiet1: f64,
    quiet_n: f64,
    info1: f64,
    kernels: Vec<KernelResult>,
    million_flow: MillionFlowResult,
}

impl Report {
    fn speedup_jobs_n(&self) -> f64 {
        self.quiet_n / self.quiet1
    }

    /// Raw quiet-vs-info overhead in percent; negative when the info
    /// run happened to beat the quiet one (pure measurement noise, the
    /// interleaving only shrinks it).
    fn overhead_pct_raw(&self) -> f64 {
        (self.quiet1 / self.info1 - 1.0) * 100.0
    }

    /// Reported overhead: clamped at 0% — spans cannot make the sweep
    /// *faster*, so a negative raw value carries no information beyond
    /// "below the noise floor".
    fn overhead_pct(&self) -> f64 {
        self.overhead_pct_raw().max(0.0)
    }

    /// The bench-history ledger line for this measurement.
    fn to_history_entry(&self, source: &str) -> transit_bench::history::HistoryEntry {
        let mf = &self.million_flow;
        transit_bench::history::HistoryEntry {
            recorded_unix: transit_bench::history::now_unix(),
            source: source.to_string(),
            git_rev: Some(transit_obs::git_rev()),
            jobs_n: self.jobs_n as u64,
            single_core: self.single_core,
            items_per_sec_jobs1: self.quiet1,
            items_per_sec_jobs_n: self.quiet_n,
            obs_overhead_pct: self.overhead_pct(),
            million_flow_sec: [
                ("generate", mf.generate_sec),
                ("ingest", mf.ingest_sec),
                ("fit", mf.fit_sec),
                ("coalesce", mf.coalesce_sec),
                ("curves", mf.curves_sec),
                ("total", mf.total_sec()),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
            ingest_throughput: [
                ("datagrams_per_sec", mf.datagrams_per_sec()),
                ("records_per_sec", mf.records_per_sec()),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
            store_sec: std::collections::BTreeMap::new(),
        }
    }

    fn to_json(&self) -> String {
        let warning = if self.single_core {
            serde::Content::Str(
                "only one core available: speedup_jobsN is not meaningful and \
                 the parallel-speedup gate is skipped"
                    .into(),
            )
        } else {
            serde::Content::Null
        };
        let report = serde::Content::Map(vec![
            (
                "schema".into(),
                serde::Content::Str("transit-bench/sweep-smoke/v3".into()),
            ),
            ("experiment".into(), serde::Content::Str("fig8".into())),
            ("n_flows".into(), serde::Content::U64(SWEEP_N_FLOWS as u64)),
            ("items_per_run".into(), serde::Content::U64(ITEMS_PER_RUN as u64)),
            ("reps".into(), serde::Content::U64(REPS as u64)),
            (
                "available_parallelism".into(),
                serde::Content::U64(self.jobs_n as u64),
            ),
            ("jobs_n".into(), serde::Content::U64(self.jobs_n as u64)),
            ("single_core".into(), serde::Content::Bool(self.single_core)),
            ("warning".into(), warning),
            ("items_per_sec_jobs1".into(), serde::Content::F64(self.quiet1)),
            ("items_per_sec_jobsN".into(), serde::Content::F64(self.quiet_n)),
            (
                "speedup_jobsN".into(),
                serde::Content::F64(self.speedup_jobs_n()),
            ),
            (
                "items_per_sec_jobs1_info".into(),
                serde::Content::F64(self.info1),
            ),
            (
                "obs_overhead_pct_info_vs_quiet".into(),
                serde::Content::F64(self.overhead_pct()),
            ),
            (
                "obs_overhead_pct_info_vs_quiet_raw".into(),
                serde::Content::F64(self.overhead_pct_raw()),
            ),
            (
                "kernels".into(),
                serde::Content::Map(
                    self.kernels
                        .iter()
                        .map(|k| (k.name.to_string(), k.to_content()))
                        .collect(),
                ),
            ),
            ("million_flow".into(), self.million_flow.to_content()),
        ]);
        serde_json::to_string_pretty(&report).expect("report serializes")
    }
}

fn measure() -> Report {
    let jobs_n = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    // Warmup primes the fingerprint cache and the allocator.
    runners::run("fig8", &config(1, transit_obs::Level::Quiet))
        .expect("fig8 runs")
        .expect("fig8 known");

    let quiet_n = items_per_sec(&config(jobs_n, transit_obs::Level::Quiet));
    let (quiet1, info1) = items_per_sec_quiet_info_interleaved();
    transit_obs::set_log_level(transit_obs::Level::Info);

    let kernels = vec![
        kernel_capture_dp("capture_curve_optimal_dp_n100", 100),
        kernel_capture_dp("capture_curve_optimal_dp_n1000", 1000),
    ];

    let million_flow = million_flow(MILLION_FLOW_RAW);

    Report {
        jobs_n,
        single_core: jobs_n == 1,
        quiet1,
        quiet_n,
        info1,
        kernels,
        million_flow,
    }
}

/// The `speedup_jobsN` floor on a `cores`-core machine: at most
/// `min(cores, items)` fig8 items run at once, so the floor is a fixed
/// parallel efficiency over that width.
fn speedup_floor(cores: usize) -> f64 {
    MIN_PARALLEL_EFFICIENCY * cores.min(ITEMS_PER_RUN) as f64
}

/// Compares a fresh measurement against the committed baseline report;
/// returns the list of failures (empty = gate passes).
fn gate(report: &Report, baseline_path: &str) -> Vec<String> {
    let mut failures = Vec::new();

    let baseline = std::fs::read_to_string(baseline_path)
        .ok()
        .and_then(|text| serde_json::from_str::<serde_json::Value>(&text).ok());
    let baseline_items_per_sec = baseline
        .as_ref()
        .and_then(|v| v.get("items_per_sec_jobs1").and_then(|x| x.as_f64()));
    match baseline_items_per_sec {
        Some(base) => {
            // 30% margin: the dev box's sweep throughput swings 26%
            // between scheduler phases (127–172 items/s measured across
            // quiet/loaded windows), so a 20% floor flakes on noise
            // alone. Re-measure a miss (best of up to 3) so only a
            // reproducible slowdown fails the gate.
            let floor = base * 0.7;
            let mut best = report.quiet1;
            for attempt in 2..=3 {
                if best >= floor {
                    break;
                }
                println!(
                    "gate: items_per_sec_jobs1 {best:.2} below floor {floor:.2}; \
                     re-measuring (attempt {attempt} of 3)"
                );
                best = best.max(items_per_sec(&config(1, transit_obs::Level::Quiet)));
                transit_obs::set_log_level(transit_obs::Level::Info);
            }
            if best < floor {
                failures.push(format!(
                    "items_per_sec_jobs1 regressed >30%: measured {best:.2} \
                     (best of 3), committed baseline {base:.2} (floor \
                     {floor:.2}); re-run `sweep_smoke {baseline_path}` and \
                     commit the new numbers only if the slowdown is intended"
                ));
            }
        }
        None => failures.push(format!(
            "cannot read items_per_sec_jobs1 from baseline {baseline_path}; \
             regenerate it with `sweep_smoke {baseline_path}`"
        )),
    }

    // Parallel speedup: assert only like-for-like. A single-core run has
    // speedup ≈ 1.0 *by construction*; it is neither gated against the
    // absolute floor nor usable as a baseline reference for multi-core
    // machines.
    if report.single_core {
        println!("gate: single core detected; skipping parallel-speedup assertion");
    } else {
        let floor = speedup_floor(report.jobs_n);
        if report.speedup_jobs_n() < floor {
            failures.push(format!(
                "speedup_jobsN {:.2} < {floor:.2} ({:.0}% parallel efficiency over \
                 min({} cores, {ITEMS_PER_RUN} items)): the stage graph is not scaling",
                report.speedup_jobs_n(),
                MIN_PARALLEL_EFFICIENCY * 100.0,
                report.jobs_n
            ));
        }
        let baseline_single_core = baseline
            .as_ref()
            .and_then(|v| v.get("single_core").and_then(|x| x.as_bool()));
        let baseline_speedup = baseline
            .as_ref()
            .and_then(|v| v.get("speedup_jobsN").and_then(|x| x.as_f64()));
        match (baseline_single_core, baseline_speedup) {
            (Some(false), Some(base)) => {
                let floor = base * 0.7;
                if report.speedup_jobs_n() < floor {
                    failures.push(format!(
                        "speedup_jobsN regressed >30% vs multi-core baseline: \
                         measured {:.2}, baseline {base:.2} (floor {floor:.2})",
                        report.speedup_jobs_n()
                    ));
                }
            }
            (Some(true), _) => println!(
                "gate: baseline was recorded on a single-core machine; \
                 comparing against the absolute speedup floor only"
            ),
            _ => println!(
                "gate: baseline predates the single_core field (pre-v2) or is \
                 unreadable; comparing against the absolute speedup floor only"
            ),
        }
    }

    for k in &report.kernels {
        if k.n_flows >= 1000 && k.speedup() < 5.0 {
            failures.push(format!(
                "kernel {}: one-pass speedup {:.2} < 5.0 (one_pass {:.4}s vs \
                 per_point {:.4}s) — bundle_series lost its algorithmic win",
                k.name,
                k.speedup(),
                k.one_pass_sec,
                k.per_point_sec
            ));
        }
    }

    // Million-flow path: gate the machine-independent structure. The
    // replicated dataset has ~n_distinct distinct (v, c) pairs, so ε = 0
    // coalescing must compress by (roughly) the replication factor, and
    // unsampled unique-key measurement must recover nearly every flow.
    let mf = &report.million_flow;
    if baseline
        .as_ref()
        .map(|v| v.get("million_flow").is_none())
        .unwrap_or(false)
    {
        println!(
            "gate: baseline {baseline_path} is schema v2 (no million_flow \
             section); regenerate it with `sweep_smoke {baseline_path}` to \
             gate the scaling path against committed numbers"
        );
    }
    if (mf.n_measured as f64) < 0.9 * mf.n_raw as f64 {
        failures.push(format!(
            "million_flow: only {} of {} raw flows measured (<90%): the \
             unique-endpoint replication or sharded ingest is dropping flows",
            mf.n_measured, mf.n_raw
        ));
    }
    let min_ratio = (mf.n_raw / mf.n_distinct) as f64 * 0.5;
    if mf.coalesce_ratio() < min_ratio {
        failures.push(format!(
            "million_flow: coalesce ratio {:.1} < {min_ratio:.1} ({} measured \
             flows → {} groups): ε = 0 coalescing is not merging replicas",
            mf.coalesce_ratio(),
            mf.n_measured,
            mf.n_groups
        ));
    }

    // Ingest throughput: like-for-like only. Comparable means the
    // baseline measured the same problem size on a machine with the same
    // parallelism; otherwise records/sec differences are configuration,
    // not regression.
    let base_mf = baseline.as_ref().and_then(|v| v.get("million_flow"));
    let base_records_per_sec = base_mf
        .and_then(|m| m.get("ingest_records_per_sec"))
        .and_then(|x| x.as_f64());
    let base_n_raw = base_mf
        .and_then(|m| m.get("n_raw_flows"))
        .and_then(|x| x.as_f64());
    let base_workers = base_mf
        .and_then(|m| m.get("ingest_workers"))
        .and_then(|x| x.as_f64());
    match base_records_per_sec {
        Some(base)
            if base_n_raw == Some(mf.n_raw as f64)
                && base_workers == Some(mf.ingest_workers as f64) =>
        {
            let floor = base * 0.8;
            // Absolute records/sec swings far past 20% on a noisy shared
            // box (scheduler phases last minutes), so a miss is rescued
            // two ways before it counts: re-measurement (best of up to 3
            // runs), and ingest's *share* of the million-flow total —
            // box-wide slowdowns scale every phase and cancel in the
            // share, while a genuine ingest regression raises it no
            // matter how fast the box is.
            let base_share = base_mf.and_then(|m| {
                let i = m.get("ingest_sec").and_then(|x| x.as_f64())?;
                let t = m.get("total_sec").and_then(|x| x.as_f64())?;
                if t > 0.0 {
                    Some(i / t)
                } else {
                    None
                }
            });
            let passes = |m: &MillionFlowResult| {
                m.records_per_sec() >= floor
                    || base_share
                        .map(|s| m.ingest_sec / m.total_sec().max(f64::EPSILON) <= s * 1.25)
                        .unwrap_or(false)
            };
            let mut ok = passes(mf);
            let mut best = mf.records_per_sec();
            let mut share = mf.ingest_sec / mf.total_sec().max(f64::EPSILON);
            for attempt in 2..=3 {
                if ok {
                    break;
                }
                println!(
                    "gate: ingest throughput {best:.0} records/sec below floor \
                     {floor:.0} (share {share:.2} vs baseline \
                     {base_share:?}); re-measuring (attempt {attempt} of 3)"
                );
                let retry = million_flow(mf.n_raw);
                best = best.max(retry.records_per_sec());
                share = share.min(retry.ingest_sec / retry.total_sec().max(f64::EPSILON));
                ok = passes(&retry);
            }
            if !ok {
                failures.push(format!(
                    "million_flow: ingest throughput regressed >20%: measured \
                     {best:.0} records/sec (best of 3), baseline {base:.0} \
                     (floor {floor:.0}), and ingest share of total {share:.2} \
                     exceeds baseline share {base_share:?} by >25%; re-run \
                     `sweep_smoke {baseline_path}` and commit the new numbers \
                     only if the slowdown is intended"
                ));
            }
        }
        Some(_) => println!(
            "gate: baseline million_flow size or worker count differs \
             (n_raw {base_n_raw:?} workers {base_workers:?} vs {} / {}); \
             skipping the ingest-throughput comparison",
            mf.n_raw, mf.ingest_workers
        ),
        None => println!(
            "gate: baseline {baseline_path} predates ingest throughput \
             (no million_flow.ingest_records_per_sec); regenerate it with \
             `sweep_smoke {baseline_path}` to gate ingest perf"
        ),
    }

    // Curves phase: like-for-like only, same shape as the ingest gate.
    // A single-core run executes the strategy fan-out inline
    // (curves_threads = 1), so its wall clock is never compared against
    // a multi-core baseline or vice versa — only identical problem size
    // *and* identical fan-out width gate. A >20% miss is re-measured
    // (best of up to 3 full million-flow runs) before it counts, since
    // the phase is short enough for scheduler noise to matter.
    let base_curves_sec = base_mf
        .and_then(|m| m.get("curves_sec"))
        .and_then(|x| x.as_f64());
    let base_curves_threads = base_mf
        .and_then(|m| m.get("curves_threads"))
        .and_then(|x| x.as_f64());
    match (base_curves_sec, base_curves_threads) {
        (Some(base), Some(base_threads))
            if base_n_raw == Some(mf.n_raw as f64)
                && base_threads == mf.curves_threads as f64 =>
        {
            let ceiling = base * 1.2;
            let mut best = mf.curves_sec;
            for attempt in 2..=3 {
                if best <= ceiling {
                    break;
                }
                println!(
                    "gate: curves phase {best:.3}s above ceiling {ceiling:.3}s \
                     (baseline {base:.3}s); re-measuring (attempt {attempt} of 3)"
                );
                best = best.min(million_flow(mf.n_raw).curves_sec);
            }
            if best > ceiling {
                failures.push(format!(
                    "million_flow: curves phase regressed >20%: measured \
                     {best:.3}s (best of 3), baseline {base:.3}s at the same \
                     {} curve threads (ceiling {ceiling:.3}s); re-run \
                     `sweep_smoke {baseline_path}` and commit the new numbers \
                     only if the slowdown is intended",
                    mf.curves_threads
                ));
            }
        }
        (Some(_), Some(base_threads)) if base_threads != mf.curves_threads as f64 => println!(
            "gate: baseline curves phase ran at {base_threads} threads, this \
             run at {}; mismatched parallelism (e.g. single-core baseline vs \
             multi-core run) is never compared — skipping the curves_sec gate",
            mf.curves_threads
        ),
        (Some(_), _) => println!(
            "gate: baseline million_flow size differs or predates \
             curves_threads; skipping the curves_sec comparison — regenerate \
             with `sweep_smoke {baseline_path}` to gate the curves phase"
        ),
        (None, _) => println!(
            "gate: baseline {baseline_path} predates million_flow.curves_sec; \
             regenerate it with `sweep_smoke {baseline_path}` to gate the \
             curves phase"
        ),
    }
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Bounded large-n smoke (scripts/check.sh): only the million-flow
    // path, at a reduced size, with a wall-clock budget.
    if args.first().map(String::as_str) == Some("--smoke") {
        let n_raw = args
            .get(1)
            .and_then(|v| v.parse().ok())
            .unwrap_or(SMOKE_DEFAULT_RAW);
        let budget_secs = args
            .get(2)
            .and_then(|v| v.parse().ok())
            .unwrap_or(SMOKE_DEFAULT_BUDGET_SECS);
        transit_obs::set_log_level(transit_obs::Level::Quiet);
        let mf = million_flow(n_raw);
        println!(
            "{}",
            serde_json::to_string_pretty(&mf.to_content()).expect("smoke serializes")
        );
        let mut failed = false;
        if (mf.n_measured as f64) < 0.9 * mf.n_raw as f64 {
            eprintln!(
                "smoke FAILED: only {} of {} raw flows measured (<90%)",
                mf.n_measured, mf.n_raw
            );
            failed = true;
        }
        let min_ratio = (mf.n_raw / mf.n_distinct) as f64 * 0.5;
        if mf.coalesce_ratio() < min_ratio {
            eprintln!(
                "smoke FAILED: coalesce ratio {:.1} < {min_ratio:.1}",
                mf.coalesce_ratio()
            );
            failed = true;
        }
        if mf.total_sec() > budget_secs {
            eprintln!(
                "smoke FAILED: {} raw flows took {:.1}s end to end, budget {budget_secs:.0}s",
                mf.n_raw,
                mf.total_sec()
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "smoke: OK ({} raw flows → {} groups in {:.2}s, budget {budget_secs:.0}s)",
            mf.n_raw,
            mf.n_groups,
            mf.total_sec()
        );
        return;
    }

    if args.first().map(String::as_str) == Some("--ingest-smoke") {
        let n_raw = args
            .get(1)
            .and_then(|v| v.parse().ok())
            .unwrap_or(INGEST_SMOKE_DEFAULT_RAW);
        let budget_secs = args
            .get(2)
            .and_then(|v| v.parse().ok())
            .unwrap_or(INGEST_SMOKE_DEFAULT_BUDGET_SECS);
        transit_obs::set_log_level(transit_obs::Level::Quiet);
        ingest_smoke(n_raw, budget_secs);
        return;
    }

    let report = measure();
    let json = report.to_json();

    if args.first().map(String::as_str) == Some("--gate") {
        let baseline_path = args.get(1).map_or("BENCH_sweep.json", String::as_str);
        println!("{json}");
        let failures = gate(&report, baseline_path);
        if failures.is_empty() {
            println!("gate: OK (baseline {baseline_path})");
            // Only passing runs enter the ledger: the history is the
            // perf trajectory of accepted states of the tree, not a log
            // of every attempt.
            let history_path = args
                .get(2)
                .map_or(transit_bench::history::HISTORY_FILE, String::as_str);
            let entry = report.to_history_entry("gate");
            match transit_bench::history::append(std::path::Path::new(history_path), &entry) {
                Ok(()) => println!("history: appended to {history_path}"),
                Err(e) => {
                    eprintln!("history: failed to append to {history_path}: {e}");
                    std::process::exit(1);
                }
            }
        } else {
            for f in &failures {
                eprintln!("gate FAILED: {f}");
            }
            std::process::exit(1);
        }
    } else {
        let out_path = args
            .first()
            .cloned()
            .unwrap_or_else(|| "BENCH_sweep.json".to_string());
        std::fs::write(&out_path, &json).expect("bench report writes");
        println!("{json}");
        println!("wrote {out_path}");
    }
}

#[cfg(test)]
mod tests {
    use super::speedup_floor;

    #[test]
    fn speedup_floor_is_attainable_on_two_cores_and_never_below_two_from_four() {
        assert_eq!(speedup_floor(2), 1.0);
        for cores in 4..=64 {
            assert!(speedup_floor(cores) >= 2.0, "{cores} cores");
            assert!(speedup_floor(cores) <= cores as f64);
        }
    }
}
