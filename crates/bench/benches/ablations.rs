//! Ablation benches for the design choices called out in DESIGN.md §6.
//! Each group benchmarks the alternatives side by side; where the choice
//! is about *quality* rather than speed, the bench asserts the quality
//! relationship once up front and then times the mechanisms.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use transit_bench::{BENCH_FLOWS, BENCH_SEED};
use transit_core::bundling::{
    token_bucket::token_bucket_assign, Bundling, BundlingStrategy, OptimalDp, OptimalExhaustive,
    StrategyKind,
};
use transit_core::cost::LinearCost;
use transit_core::demand::ced::CedAlpha;
use transit_core::demand::logit::{self, LogitAlpha};
use transit_core::fitting::{fit_ced, fit_logit};
use transit_core::market::{CedMarket, LogitMarket, TransitMarket};
use transit_core::optimize::{gradient_ascent, GradientOptions};
use transit_core::pricing::logit as logit_pricing;
use transit_datasets::{generate, Network};

fn ced_market(n: usize) -> CedMarket {
    let flows = generate(Network::EuIsp, n, BENCH_SEED).flows;
    CedMarket::new(
        fit_ced(
            &flows,
            &LinearCost::new(0.2).unwrap(),
            CedAlpha::new(1.1).unwrap(),
            20.0,
        )
        .unwrap(),
    )
    .unwrap()
}

/// Token-bucket (paper §4.2.1) vs naive equal-count grouping on the same
/// weights: does the filling algorithm matter?
fn ablation_token_bucket(c: &mut Criterion) {
    let market = ced_market(BENCH_FLOWS);
    let weights = market.potential_profits().to_vec();

    // Equal-count alternative: sort by weight, chop into equal groups.
    let equal_count = |weights: &[f64], b: usize| -> Vec<usize> {
        let n = weights.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| weights[j].partial_cmp(&weights[i]).unwrap());
        let mut a = vec![0usize; n];
        for (rank, &flow) in order.iter().enumerate() {
            a[flow] = (rank * b / n).min(b - 1);
        }
        a
    };

    // Quality check (once): the token bucket earns at least as much
    // profit as equal-count chopping at 3 bundles on this market.
    let tb = Bundling::new(token_bucket_assign(&weights, 3).unwrap(), 3).unwrap();
    let eq = Bundling::new(equal_count(&weights, 3), 3).unwrap();
    let p_tb = market.profit(&tb).unwrap();
    let p_eq = market.profit(&eq).unwrap();
    assert!(
        p_tb >= 0.95 * p_eq,
        "token bucket regressed: {p_tb} vs {p_eq}"
    );

    let mut g = c.benchmark_group("ablation_token_bucket");
    g.bench_function("token_bucket", |b| {
        b.iter(|| black_box(token_bucket_assign(black_box(&weights), 4).unwrap()))
    });
    g.bench_function("equal_count", |b| {
        b.iter(|| black_box(equal_count(black_box(&weights), 4)))
    });
    g.finish();
}

/// Exact logit pricing (1-D fixed point) vs the paper's gradient-descent
/// heuristic: same optimum, very different cost.
fn ablation_logit_solver(c: &mut Criterion) {
    let flows = generate(Network::EuIsp, 40, BENCH_SEED).flows;
    let alpha = LogitAlpha::new(1.1).unwrap();
    let fit = fit_logit(&flows, &LinearCost::new(0.2).unwrap(), alpha, 20.0, 0.2).unwrap();
    let market = LogitMarket::new(fit).unwrap();
    let f = market.fit();

    // Bundle to 4 tiers so the gradient search is low-dimensional.
    let strategy = StrategyKind::CostWeighted.build();
    let bundling = strategy.bundle(&market, 4).unwrap();
    let members = bundling.members();
    let mut vbs = Vec::new();
    let mut cbs = Vec::new();
    for m in members.iter().filter(|m| !m.is_empty()) {
        let vs: Vec<f64> = m.iter().map(|&i| f.valuations[i]).collect();
        let cs: Vec<f64> = m.iter().map(|&i| f.costs[i]).collect();
        vbs.push(logit::bundle_valuation(&vs, alpha).unwrap());
        cbs.push(logit::bundle_cost(&vs, &cs, alpha).unwrap());
    }

    // Quality check: both land on the same profit.
    let exact = logit_pricing::optimal_prices(&vbs, &cbs, alpha).unwrap();
    let exact_profit = logit::total_profit(&vbs, &exact.prices, &cbs, alpha, f.consumers).unwrap();
    let start: Vec<f64> = cbs.iter().map(|&cb| cb + 1.0).collect();
    let grad = gradient_ascent(
        |p| logit::total_profit(&vbs, p, &cbs, alpha, f.consumers).unwrap_or(f64::NEG_INFINITY),
        &start,
        GradientOptions::default(),
    )
    .unwrap();
    assert!(
        (grad.value - exact_profit).abs() / exact_profit < 1e-3,
        "solvers disagree: {} vs {exact_profit}",
        grad.value
    );

    let mut g = c.benchmark_group("ablation_logit_solver");
    g.bench_function("exact_fixed_point", |b| {
        b.iter(|| {
            black_box(
                logit_pricing::optimal_prices(&vbs, &cbs, alpha)
                    .unwrap()
                    .markup,
            )
        })
    });
    g.sample_size(10);
    g.bench_function("gradient_heuristic", |b| {
        b.iter(|| {
            black_box(
                gradient_ascent(
                    |p| {
                        logit::total_profit(&vbs, p, &cbs, alpha, f.consumers)
                            .unwrap_or(f64::NEG_INFINITY)
                    },
                    &start,
                    GradientOptions::default(),
                )
                .unwrap()
                .value,
            )
        })
    });
    g.finish();
}

/// DP over one ordering vs four orderings vs exhaustive enumeration on a
/// small instance.
fn ablation_optimal_orderings(c: &mut Criterion) {
    let small = ced_market(12);

    // Quality check: DP matches exhaustive on the small instance.
    let dp = OptimalDp::new();
    let ex = OptimalExhaustive;
    let p_dp = small.profit(&dp.bundle(&small, 3).unwrap()).unwrap();
    let p_ex = small.profit(&ex.bundle(&small, 3).unwrap()).unwrap();
    assert!(
        (p_dp - p_ex).abs() / p_ex < 1e-9,
        "dp {p_dp} vs exhaustive {p_ex}"
    );

    let mut g = c.benchmark_group("ablation_optimal");
    g.bench_function("dp_four_orderings_n12", |b| {
        b.iter(|| black_box(dp.bundle(&small, 3).unwrap().occupied_bundles()))
    });
    g.sample_size(10);
    g.bench_function("exhaustive_n12", |b| {
        b.iter(|| black_box(ex.bundle(&small, 3).unwrap().occupied_bundles()))
    });
    let large = ced_market(400);
    g.bench_function("dp_four_orderings_n400", |b| {
        b.iter(|| black_box(dp.bundle(&large, 6).unwrap().occupied_bundles()))
    });
    g.finish();
}

/// Flow-aggregation granularity: running the analysis on the top-N flows
/// plus a tail bucket vs the full matrix.
fn ablation_aggregation(c: &mut Criterion) {
    use transit_core::capture::capture_curve;
    use transit_core::flow::TrafficFlow;

    let full_flows = generate(Network::EuIsp, 400, BENCH_SEED).flows;
    let aggregate = |flows: &[TrafficFlow], top_n: usize| -> Vec<TrafficFlow> {
        let mut sorted = flows.to_vec();
        sorted.sort_by(|a, b| b.demand_mbps.partial_cmp(&a.demand_mbps).unwrap());
        let mut out: Vec<TrafficFlow> = sorted[..top_n.min(sorted.len())].to_vec();
        let tail = &sorted[top_n.min(sorted.len())..];
        if !tail.is_empty() {
            let q: f64 = tail.iter().map(|f| f.demand_mbps).sum();
            let d = tail
                .iter()
                .map(|f| f.demand_mbps * f.distance_miles)
                .sum::<f64>()
                / q;
            out.push(TrafficFlow::new(top_n as u32, q, d));
        }
        out
    };

    let run_analysis = |flows: &[TrafficFlow]| -> f64 {
        let market = CedMarket::new(
            fit_ced(
                flows,
                &LinearCost::new(0.2).unwrap(),
                CedAlpha::new(1.1).unwrap(),
                20.0,
            )
            .unwrap(),
        )
        .unwrap();
        let strategy = StrategyKind::ProfitWeighted.build();
        *capture_curve(&market, strategy.as_ref(), 4)
            .unwrap()
            .capture
            .last()
            .unwrap()
    };

    let mut g = c.benchmark_group("ablation_aggregation");
    g.sample_size(10);
    let top50 = aggregate(&full_flows, 50);
    g.bench_function("top50_plus_tail", |b| {
        b.iter(|| black_box(run_analysis(black_box(&top50))))
    });
    g.bench_function("full_400_flows", |b| {
        b.iter(|| black_box(run_analysis(black_box(&full_flows))))
    });
    g.finish();
}

criterion_group!(
    benches,
    ablation_token_bucket,
    ablation_logit_solver,
    ablation_optimal_orderings,
    ablation_aggregation
);
criterion_main!(benches);
