//! Kernel-level benchmarks of the evaluation hot path: the DP table
//! build, full capture curves (one-pass vs per-point) at n ∈ {100, 1000}
//! flows, fig8's stage graph at threads ∈ {1, N}, ε = 0 flow coalescing on a
//! replicated 100k-flow market, the tiled DP build at dp_threads
//! ∈ {1, N}, and the NetFlow ingest fast path (decode-only, fold-only,
//! and end-to-end at 100k records). These isolate *where* the time
//! goes, complementing the end-to-end figure benches.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use transit_core::bundling::{Bundling, BundlingStrategy, OptimalDp, StrategyKind};
use transit_core::capture::capture_curve;
use transit_core::coalesce::CoalescedMarket;
use transit_core::cost::LinearCost;
use transit_core::demand::ced::CedAlpha;
use transit_core::demand::DemandFamily;
use transit_core::fitting::fit_ced;
use transit_core::market::{CedMarket, TransitMarket};
use transit_datasets::{generate_replicated, Network};
use transit_experiments::markets::{fit_market, flows_for};
use transit_experiments::{runners, ExperimentConfig};

const B_MAX: usize = 10;

/// Forwards `bundle` but keeps the default per-`b` `bundle_series` loop —
/// the pre-one-pass baseline.
struct PerPointBaseline(OptimalDp);

impl BundlingStrategy for PerPointBaseline {
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
}

fn ced_market(n_flows: usize) -> Box<dyn TransitMarket> {
    let cfg = ExperimentConfig {
        n_flows,
        ..ExperimentConfig::default()
    };
    let cost = LinearCost::new(cfg.theta).expect("valid theta");
    let flows = flows_for(Network::EuIsp, &cfg);
    fit_market(DemandFamily::Ced, &flows, &cost, &cfg).expect("market fits")
}

/// The raw DP series: every `1..=B_MAX` optimal partition in one call.
fn dp_series(c: &mut Criterion) {
    let market = ced_market(400);
    let dp = OptimalDp::default();
    // Warm the order/prefix-sum caches so iterations measure DP work.
    dp.bundle_series(market.as_ref(), B_MAX).expect("warmup");
    let mut g = c.benchmark_group("dp_series_n400");
    g.sample_size(10);
    g.bench_function("bundle_series_b10", |b| {
        b.iter(|| black_box(dp.bundle_series(market.as_ref(), B_MAX).unwrap()))
    });
    g.bench_function("per_point_b10", |b| {
        b.iter(|| {
            for n_bundles in 1..=B_MAX {
                black_box(dp.bundle(market.as_ref(), n_bundles).unwrap());
            }
        })
    });
    g.finish();
}

/// Full capture curves, one-pass vs per-point, at two problem sizes.
fn capture_curves(c: &mut Criterion) {
    for n_flows in [100usize, 1000] {
        let market = ced_market(n_flows);
        capture_curve(market.as_ref(), &OptimalDp::default(), B_MAX).expect("warmup");
        let group_name = format!("capture_curve_n{n_flows}");
        let mut g = c.benchmark_group(&group_name);
        g.sample_size(10);
        g.bench_function("one_pass", |b| {
            b.iter(|| {
                black_box(capture_curve(market.as_ref(), &OptimalDp::default(), B_MAX).unwrap())
            })
        });
        g.bench_function("per_point", |b| {
            b.iter(|| {
                black_box(
                    capture_curve(
                        market.as_ref(),
                        &PerPointBaseline(OptimalDp::default()),
                        B_MAX,
                    )
                    .unwrap(),
                )
            })
        });
        g.finish();
    }
}

/// fig8's stage graph (18 capture items) at threads ∈ {1, N}.
fn sweep_threads(c: &mut Criterion) {
    let threads_n = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let config = |threads: usize| ExperimentConfig {
        n_flows: 160,
        threads,
        log_level: transit_obs::Level::Quiet,
        ..ExperimentConfig::default()
    };
    transit_obs::set_log_level(transit_obs::Level::Quiet);
    let mut g = c.benchmark_group("sweep_fig8_items18");
    g.sample_size(10);
    g.bench_function("threads1", |b| {
        b.iter(|| runners::run("fig8", &config(1)).unwrap().unwrap())
    });
    g.bench_function(&format!("threads{threads_n}"), |b| {
        b.iter(|| runners::run("fig8", &config(threads_n)).unwrap().unwrap())
    });
    transit_obs::set_log_level(transit_obs::Level::Info);
    g.finish();
}

/// ε = 0 coalescing on a replicated 100k-raw-flow CED market: the group
/// build itself (clone included — it is O(n) copies vs the O(n) hash
/// pass it accompanies), and a heuristic capture curve over the
/// coalesced view vs the raw market.
fn coalesce_kernels(c: &mut Criterion) {
    let dataset = generate_replicated(Network::EuIsp, 500, 200, 42); // 100k raw
    let cost = LinearCost::new(0.2).expect("valid theta");
    let market = CedMarket::new(
        fit_ced(
            &dataset.flows,
            &cost,
            CedAlpha::new(1.1).expect("valid alpha"),
            20.0,
        )
        .expect("fits"),
    )
    .expect("builds");
    let coalesced = CoalescedMarket::new(market.clone()).expect("coalesces");
    let heuristic = StrategyKind::ProfitWeighted.build();

    let mut g = c.benchmark_group("coalesce_100k_raw");
    g.sample_size(10);
    g.bench_function("build_groups", |b| {
        b.iter(|| black_box(CoalescedMarket::new(market.clone()).unwrap()))
    });
    g.bench_function("capture_curve_profit_weighted_coalesced", |b| {
        b.iter(|| black_box(capture_curve(&coalesced, heuristic.as_ref(), B_MAX).unwrap()))
    });
    g.bench_function("capture_curve_profit_weighted_raw", |b| {
        b.iter(|| black_box(capture_curve(&market, heuristic.as_ref(), B_MAX).unwrap()))
    });
    g.finish();
}

/// The tiled DP table build at dp_threads ∈ {1, N} on a 1000-flow
/// market (byte-identical output; this measures the wall-clock win).
fn tiled_dp(c: &mut Criterion) {
    let threads_n = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let market = ced_market(1000);
    OptimalDp::with_threads(1)
        .bundle_series(market.as_ref(), B_MAX)
        .expect("warmup");
    let mut g = c.benchmark_group("tiled_dp_n1000");
    g.sample_size(10);
    g.bench_function("dp_threads1", |b| {
        b.iter(|| {
            black_box(
                OptimalDp::with_threads(1)
                    .bundle_series(market.as_ref(), B_MAX)
                    .unwrap(),
            )
        })
    });
    g.bench_function(&format!("dp_threads{threads_n}"), |b| {
        b.iter(|| {
            black_box(
                OptimalDp::with_threads(threads_n)
                    .bundle_series(market.as_ref(), B_MAX)
                    .unwrap(),
            )
        })
    });
    g.finish();
}

/// The NetFlow ingest fast path at ~100k records, split into its
/// stages: zero-copy decode alone (parse + tuple extraction, no table),
/// fold alone (pre-extracted tuples into a flat `FlowTable`), and the
/// end-to-end `ingest_batch` at workers ∈ {1, N}.
fn ingest_kernels(c: &mut Criterion) {
    use transit_netflow::{
        flow_hash, Collector, Exporter, FlowKey, FlowTable, SystematicSampler, V5PacketView,
    };

    // ~100k records: 50k distinct flows exported by 2 routers.
    const N_FLOWS: u32 = 50_000;
    let mut wire = Vec::new();
    for router in 0..2u8 {
        let mut e = Exporter::new(router, SystematicSampler::new(1));
        for i in 0..N_FLOWS {
            let key = FlowKey {
                src_addr: std::net::Ipv4Addr::from(0x0A00_0000 | i),
                dst_addr: std::net::Ipv4Addr::from(0xC0A8_0000 | i.wrapping_mul(2654435761)),
                src_port: 1024 + (i % 40_000) as u16,
                dst_port: 443,
                protocol: 6,
            };
            e.observe_packets(key, 3, 1_500);
        }
        for pkt in e.flush(0) {
            wire.push(pkt.encode());
        }
    }
    let n_records: usize = wire
        .iter()
        .map(|d| V5PacketView::parse(d).unwrap().record_count())
        .sum();

    let group_name = format!("ingest_{n_records}_records");
    let mut g = c.benchmark_group(&group_name);
    g.sample_size(10);
    g.bench_function("decode_only", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for dgram in &wire {
                let view = V5PacketView::parse(dgram).unwrap();
                for (key, octets, packets) in view.flow_tuples() {
                    acc = acc
                        .wrapping_add(flow_hash(&key))
                        .wrapping_add(octets as u64)
                        .wrapping_add(packets as u64);
                }
            }
            black_box(acc)
        })
    });

    // Pre-extract tuples once so fold_only measures the table alone.
    let tuples: Vec<(u64, FlowKey, u8, u64, u64)> = wire
        .iter()
        .flat_map(|dgram| {
            let view = V5PacketView::parse(dgram).unwrap();
            let router = view.header().engine_id;
            view.flow_tuples()
                .map(|(key, octets, packets)| {
                    (flow_hash(&key), key, router, octets as u64, packets as u64)
                })
                .collect::<Vec<_>>()
        })
        .collect();
    g.bench_function("fold_only", |b| {
        b.iter(|| {
            let mut table = FlowTable::new();
            for &(hash, key, router, bytes, packets) in &tuples {
                table.credit(hash, key, router, bytes, packets);
            }
            black_box(table.len())
        })
    });

    let workers_n = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    for workers in if workers_n > 1 {
        vec![1, workers_n]
    } else {
        vec![1]
    } {
        g.bench_function(&format!("ingest_batch_workers{workers}"), |b| {
            b.iter(|| {
                let mut collector = Collector::with_shards_and_workers(workers.min(8), workers);
                collector.ingest_batch(&wire);
                black_box(collector.flow_count())
            })
        });
    }
    g.finish();
}

/// The work-stealing pool's own primitives: indexed map over many tiny
/// items at budget ∈ {1, N} (budget 1 is the inline serial fallback, so
/// the pair reads as dispatch overhead vs pure loop), bare fan-out
/// dispatch cost, and a nested fan-out (parallel region inside a pool
/// task, exercising the budget split).
fn pool_kernels(c: &mut Criterion) {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let items: Vec<u64> = (0..10_000).collect();
    let work = |_: usize, x: &u64| -> u64 {
        let mut acc = *x;
        for _ in 0..64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        acc
    };

    let mut g = c.benchmark_group("pool_10k_items");
    g.sample_size(10);
    g.bench_function("run_indexed_budget1", |b| {
        let _budget = transit_pool::scoped_budget(1);
        b.iter(|| black_box(transit_pool::run_indexed(0, &items, work)))
    });
    g.bench_function(&format!("run_indexed_budget{cores}"), |b| {
        let _budget = transit_pool::scoped_budget(cores);
        b.iter(|| black_box(transit_pool::run_indexed(0, &items, work)))
    });
    g.bench_function("fanout_width8_dispatch", |b| {
        let _budget = transit_pool::scoped_budget(8);
        b.iter(|| {
            let acc = std::sync::atomic::AtomicU64::new(0);
            transit_pool::fanout(8, |slot| {
                acc.fetch_add(slot as u64 + 1, std::sync::atomic::Ordering::Relaxed);
            });
            black_box(acc.into_inner())
        })
    });
    g.bench_function("nested_fanout_budget_split", |b| {
        let _budget = transit_pool::scoped_budget(cores.max(2));
        b.iter(|| {
            let outer: Vec<u64> = transit_pool::run_indexed(0, &[0u64, 1, 2, 3], |_, &seed| {
                transit_pool::run_indexed(0, &items[..1_000], work)
                    .into_iter()
                    .fold(seed, u64::wrapping_add)
            });
            black_box(outer)
        })
    });
    g.finish();
}

criterion_group!(
    kernels,
    dp_series,
    capture_curves,
    sweep_threads,
    coalesce_kernels,
    tiled_dp,
    ingest_kernels,
    pool_kernels
);
criterion_main!(kernels);
