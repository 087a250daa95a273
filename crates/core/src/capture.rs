//! Profit capture: the paper's headline metric (§4.2.2).
//!
//! ```text
//! capture = (π_new − π_original) / (π_max − π_original)
//! ```
//!
//! where `π_original` is profit at the current blended rate, `π_max` is
//! the profit of infinitely fine tiers (every flow priced individually),
//! and `π_new` is the profit of the evaluated bundling with
//! profit-maximizing per-bundle prices. Capture is 0 at one bundle (the
//! gamma calibration makes `P0` the optimal blended rate) and 1 when
//! tiering extracts everything that finer granularity could.

use serde::Serialize;

use crate::bundling::{Bundling, BundlingStrategy};
use crate::error::Result;
use crate::market::TransitMarket;

/// Outcome of evaluating one bundling against a market.
#[derive(Debug, Clone, Serialize)]
pub struct CaptureOutcome {
    /// Number of bundles requested.
    pub n_bundles: usize,
    /// Profit of the evaluated bundling at optimal per-bundle prices.
    pub profit: f64,
    /// Profit at the status-quo blended rate.
    pub original_profit: f64,
    /// Profit ceiling (per-flow pricing).
    pub max_profit: f64,
    /// The capture ratio (see module docs), clamped to finite values.
    pub capture: f64,
}

/// Computes profit capture for an explicit bundling.
///
/// If the market has no headroom (`π_max ≈ π_original`, e.g. all flows
/// identical), capture is defined as 1.0 — there is nothing left to
/// capture and any bundling trivially achieves it.
///
/// A market reporting *negative* headroom (`π_max < π_original`) is
/// inconsistent for the fitted families, but the metric must still not
/// sign-flip: dividing by a negative headroom would turn a
/// worse-than-original profit into a *positive* capture. Normalizing by
/// `|headroom|` keeps capture ≤ 0 exactly when the bundling does no
/// better than the status quo.
pub fn capture_for_bundling(
    market: &dyn TransitMarket,
    bundling: &Bundling,
) -> Result<CaptureOutcome> {
    let profit = market.profit(bundling)?;
    let original = market.original_profit();
    let max = market.max_profit();
    let headroom = max - original;
    let capture = if headroom.abs() < 1e-12 * max.abs().max(1.0) {
        1.0
    } else {
        (profit - original) / headroom.abs()
    };
    Ok(CaptureOutcome {
        n_bundles: bundling.n_bundles(),
        profit,
        original_profit: original,
        max_profit: max,
        capture,
    })
}

/// Runs a strategy at `n_bundles` and computes its profit capture.
pub fn capture_for_strategy(
    market: &dyn TransitMarket,
    strategy: &dyn BundlingStrategy,
    n_bundles: usize,
) -> Result<CaptureOutcome> {
    let bundling = strategy.bundle(market, n_bundles)?;
    capture_for_bundling(market, &bundling)
}

/// A capture-vs-bundle-count series for one strategy: the unit of data
/// behind every curve in Figs. 8–16.
#[derive(Debug, Clone, Serialize)]
pub struct CaptureCurve {
    /// Strategy name.
    pub strategy: String,
    /// Bundle counts evaluated (x-axis).
    pub n_bundles: Vec<usize>,
    /// Capture at each bundle count (y-axis).
    pub capture: Vec<f64>,
    /// Absolute profit at each bundle count.
    pub profit: Vec<f64>,
}

/// Interned eval counter for a strategy. The strategy vocabulary is
/// static, so each known name resolves through a per-name `OnceLock`
/// handle (one relaxed atomic per update); only names outside the
/// vocabulary fall back to the allocating registry lookup.
fn eval_counter(name: &str) -> &'static transit_obs::metrics::Counter {
    match name {
        "optimal" => transit_obs::counter!("capture.evals.optimal"),
        "optimal-exhaustive" => transit_obs::counter!("capture.evals.optimal-exhaustive"),
        "demand-weighted" => transit_obs::counter!("capture.evals.demand-weighted"),
        "cost-weighted" => transit_obs::counter!("capture.evals.cost-weighted"),
        "profit-weighted" => transit_obs::counter!("capture.evals.profit-weighted"),
        "cost-division" => transit_obs::counter!("capture.evals.cost-division"),
        "index-division" => transit_obs::counter!("capture.evals.index-division"),
        "class-aware-profit-weighted" => {
            transit_obs::counter!("capture.evals.class-aware-profit-weighted")
        }
        "natural-breaks" => transit_obs::counter!("capture.evals.natural-breaks"),
        "demand-mass-division" => transit_obs::counter!("capture.evals.demand-mass-division"),
        other => transit_obs::metrics::counter(&format!("capture.evals.{other}")),
    }
}

/// Evaluates a strategy across `1..=max_bundles`.
///
/// Runs on [`BundlingStrategy::bundle_series`], so strategies that share
/// work across bundle counts (one DP table, one sort) pay it once per
/// curve instead of once per point; the market invariants
/// (`original_profit`, `max_profit`, headroom) are likewise hoisted out
/// of the loop. Point-for-point identical to calling
/// [`capture_for_strategy`] at each bundle count.
pub fn capture_curve(
    market: &dyn TransitMarket,
    strategy: &dyn BundlingStrategy,
    max_bundles: usize,
) -> Result<CaptureCurve> {
    let _span = transit_obs::debug_span!(
        "capture_curve",
        strategy = strategy.name(),
        max = max_bundles
    );
    eval_counter(strategy.name()).add(max_bundles as u64);

    let bundlings = strategy.bundle_series(market, max_bundles)?;
    let original = market.original_profit();
    let max = market.max_profit();
    let headroom = max - original;
    let degenerate = headroom.abs() < 1e-12 * max.abs().max(1.0);

    let mut n_bundles = Vec::with_capacity(max_bundles);
    let mut capture = Vec::with_capacity(max_bundles);
    let mut profit = Vec::with_capacity(max_bundles);
    for bundling in &bundlings {
        let p = market.profit(bundling)?;
        n_bundles.push(bundling.n_bundles());
        capture.push(if degenerate {
            1.0
        } else {
            (p - original) / headroom.abs()
        });
        profit.push(p);
    }
    Ok(CaptureCurve {
        strategy: strategy.name().to_string(),
        n_bundles,
        capture,
        profit,
    })
}

/// Evaluates several strategies against one market, fanning the
/// per-strategy curves out across the shared [`transit_pool`] workers.
///
/// Results come back in `strategies` order and each curve is
/// **bitwise-identical** to a serial [`capture_curve`] call: every task
/// is pure (strategies and markets are evaluated read-only; the DP's
/// sort orders, prefix sums, and segment-score memo live behind
/// `OnceLock`s in the per-market artifact cache, so concurrent tasks
/// share one copy instead of racing to build their own), and results
/// merge by submission index. On an error the first failing strategy in
/// submission order wins, matching the serial loop. Under a thread
/// budget of 1 this *is* the serial loop — no pool, no atomics.
pub fn capture_curves(
    market: &(dyn TransitMarket + Sync),
    strategies: &[&(dyn BundlingStrategy + Sync)],
    max_bundles: usize,
) -> Result<Vec<CaptureCurve>> {
    let _span = transit_obs::debug_span!(
        "capture_curves",
        strategies = strategies.len(),
        max = max_bundles
    );
    transit_pool::run_indexed(0, strategies, |_, s| capture_curve(market, *s, max_bundles))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundling::{OptimalDp, StrategyKind, TokenBucket, WeightKind};
    use crate::cost::LinearCost;
    use crate::demand::ced::CedAlpha;
    use crate::demand::logit::LogitAlpha;
    use crate::fitting::{fit_ced, fit_logit};
    use crate::flow::TrafficFlow;
    use crate::market::{CedMarket, LogitMarket, TransitMarket};

    fn flows() -> Vec<TrafficFlow> {
        (0..30)
            .map(|i| {
                let x = (i as f64 * 131.7).sin().abs() + 0.01;
                TrafficFlow::new(i, 1.0 + 120.0 * x, 2.0 + 1400.0 * x * x)
            })
            .collect()
    }

    fn markets() -> Vec<Box<dyn TransitMarket + Sync>> {
        let cost = LinearCost::new(0.2).unwrap();
        vec![
            Box::new(
                CedMarket::new(
                    fit_ced(&flows(), &cost, CedAlpha::new(1.1).unwrap(), 20.0).unwrap(),
                )
                .unwrap(),
            ),
            Box::new(
                LogitMarket::new(
                    fit_logit(&flows(), &cost, LogitAlpha::new(1.1).unwrap(), 20.0, 0.2).unwrap(),
                )
                .unwrap(),
            ),
        ]
    }

    #[test]
    fn capture_zero_at_one_bundle() {
        for m in markets() {
            let out =
                capture_for_strategy(m.as_ref(), &TokenBucket::new(WeightKind::Demand), 1).unwrap();
            assert!(
                out.capture.abs() < 1e-6,
                "{:?}: capture at 1 bundle = {}",
                m.demand_family(),
                out.capture
            );
        }
    }

    #[test]
    fn capture_one_at_per_flow_bundling() {
        for m in markets() {
            let per_flow = Bundling::per_flow(m.n_flows()).unwrap();
            let out = capture_for_bundling(m.as_ref(), &per_flow).unwrap();
            assert!(
                (out.capture - 1.0).abs() < 1e-6,
                "{:?}: capture = {}",
                m.demand_family(),
                out.capture
            );
        }
    }

    #[test]
    fn optimal_capture_is_monotone_and_bounded() {
        for m in markets() {
            let curve = capture_curve(m.as_ref(), &OptimalDp::new(), 6).unwrap();
            for w in curve.capture.windows(2) {
                assert!(w[1] >= w[0] - 1e-9, "optimal capture decreased: {w:?}");
            }
            for &c in &curve.capture {
                assert!(
                    (-1e-9..=1.0 + 1e-9).contains(&c),
                    "capture out of range: {c}"
                );
            }
        }
    }

    #[test]
    fn optimal_dominates_heuristics_pointwise() {
        for m in markets() {
            let optimal = capture_curve(m.as_ref(), &OptimalDp::new(), 5).unwrap();
            for kind in [StrategyKind::ProfitWeighted, StrategyKind::CostDivision] {
                let curve = capture_curve(m.as_ref(), kind.build().as_ref(), 5).unwrap();
                for (o, h) in optimal.capture.iter().zip(&curve.capture) {
                    assert!(h <= &(o + 1e-9));
                }
            }
        }
    }

    #[test]
    fn headline_claim_three_to_four_bundles_capture_90_percent() {
        // The paper's core result on a heterogeneous market.
        for m in markets() {
            let curve = capture_curve(m.as_ref(), &OptimalDp::new(), 4).unwrap();
            assert!(
                curve.capture[3] >= 0.90,
                "{:?}: capture at 4 bundles = {}",
                m.demand_family(),
                curve.capture[3]
            );
        }
    }

    #[test]
    fn degenerate_market_has_capture_one() {
        // Identical flows: no headroom; capture defined as 1.
        let flows: Vec<TrafficFlow> = (0..5).map(|i| TrafficFlow::new(i, 10.0, 50.0)).collect();
        let m = CedMarket::new(
            fit_ced(
                &flows,
                &LinearCost::new(0.2).unwrap(),
                CedAlpha::new(1.5).unwrap(),
                20.0,
            )
            .unwrap(),
        )
        .unwrap();
        let out = capture_for_strategy(&m, &TokenBucket::new(WeightKind::Demand), 3).unwrap();
        assert!((out.capture - 1.0).abs() < 1e-9);
    }

    /// A market whose reported profit ceiling sits *below* the
    /// status-quo profit — impossible for the fitted families, but the
    /// capture metric must not sign-flip on it.
    struct NegativeHeadroomMarket {
        demands: Vec<f64>,
        valuations: Vec<f64>,
        costs: Vec<f64>,
        terms: crate::market::ScoreTerms,
    }

    impl NegativeHeadroomMarket {
        fn new() -> NegativeHeadroomMarket {
            let a = vec![1.0, 2.0, 3.0];
            let b = vec![0.5, 0.5, 0.5];
            NegativeHeadroomMarket {
                demands: vec![10.0, 20.0, 30.0],
                valuations: vec![5.0, 6.0, 7.0],
                costs: vec![1.0, 1.0, 1.0],
                terms: crate::market::ScoreTerms::ced(a, b, 1.5),
            }
        }
    }

    impl TransitMarket for NegativeHeadroomMarket {
        fn demand_family(&self) -> crate::demand::DemandFamily {
            crate::demand::DemandFamily::Ced
        }
        fn n_flows(&self) -> usize {
            3
        }
        fn demands(&self) -> &[f64] {
            &self.demands
        }
        fn valuations(&self) -> &[f64] {
            &self.valuations
        }
        fn costs(&self) -> &[f64] {
            &self.costs
        }
        fn blended_rate(&self) -> f64 {
            20.0
        }
        fn potential_profits(&self) -> &[f64] {
            &self.demands
        }
        fn score_terms(&self) -> &crate::market::ScoreTerms {
            &self.terms
        }
        fn bundle_prices(&self, bundling: &Bundling) -> Result<Vec<Option<f64>>> {
            Ok(vec![None; bundling.n_bundles()])
        }
        fn profit(&self, _bundling: &Bundling) -> Result<f64> {
            Ok(80.0) // worse than the status quo below
        }
        fn weighted_bundle_prices(
            &self,
            _entries: &[crate::market::WeightedEntry],
            n_bundles: usize,
        ) -> Result<Vec<Option<f64>>> {
            Ok(vec![None; n_bundles])
        }
        fn weighted_profit(
            &self,
            _entries: &[crate::market::WeightedEntry],
            _n_bundles: usize,
        ) -> Result<f64> {
            Ok(80.0)
        }
        fn original_profit(&self) -> f64 {
            100.0
        }
        fn max_profit(&self) -> f64 {
            90.0 // π_max < π_original: negative headroom
        }
    }

    #[test]
    fn negative_headroom_reports_nonpositive_capture() {
        let m = NegativeHeadroomMarket::new();
        let bundling = Bundling::per_flow(3).unwrap();
        let out = capture_for_bundling(&m, &bundling).unwrap();
        // profit (80) < original (100): capture must be ≤ 0, not the
        // sign-flipped +2.0 that dividing by the raw headroom produces.
        assert!(
            out.capture <= 0.0,
            "worse-than-original profit reported positive capture: {}",
            out.capture
        );
        assert!(
            (out.capture - (-2.0)).abs() < 1e-12,
            "capture = {}",
            out.capture
        );
    }

    #[test]
    fn parallel_curves_are_bitwise_identical_to_serial() {
        let strategies: Vec<Box<dyn crate::bundling::BundlingStrategy + Send + Sync>> =
            StrategyKind::ALL.iter().map(|k| k.build()).collect();
        let refs: Vec<&(dyn crate::bundling::BundlingStrategy + Sync)> =
            strategies.iter().map(|s| &**s as _).collect();
        for m in markets() {
            let serial: Vec<CaptureCurve> = {
                let _budget = transit_pool::scoped_budget(1);
                refs.iter()
                    .map(|s| capture_curve(m.as_ref(), *s, 5).unwrap())
                    .collect()
            };
            for budget in [1usize, 2, 8] {
                let _budget = transit_pool::scoped_budget(budget);
                let pooled = capture_curves(m.as_ref(), &refs, 5).unwrap();
                assert_eq!(pooled.len(), serial.len());
                for (p, s) in pooled.iter().zip(&serial) {
                    assert_eq!(p.strategy, s.strategy, "budget {budget}");
                    assert_eq!(p.n_bundles, s.n_bundles, "budget {budget}");
                    let pb: Vec<u64> = p.capture.iter().map(|x| x.to_bits()).collect();
                    let sb: Vec<u64> = s.capture.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(pb, sb, "budget {budget}: capture bits diverged");
                    let pp: Vec<u64> = p.profit.iter().map(|x| x.to_bits()).collect();
                    let sp: Vec<u64> = s.profit.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(pp, sp, "budget {budget}: profit bits diverged");
                }
            }
        }
    }

    #[test]
    fn curve_shape_matches_requested_range() {
        let m = &markets()[0];
        let curve = capture_curve(m.as_ref(), &OptimalDp::new(), 6).unwrap();
        assert_eq!(curve.n_bundles, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(curve.capture.len(), 6);
        assert_eq!(curve.profit.len(), 6);
    }
}
