//! ε > 0 coalescing is *boundedly* lossy, and the bound is an explicit
//! function of ε.
//!
//! `CoalescedMarket::with_epsilon` merges flows whose fitted
//! `(valuation, cost)` pairs round to the same multiple of ε, then
//! searches only group-respecting partitions. The contract (see
//! `transit_testkit::oracle::epsilon_deviation_bounds` for the
//! derivation) is the chain
//!
//! ```text
//! 0 ≤ π_raw − π_ε ≤ 2·d_exact ≤ 2·d_eps(ε)
//! ```
//!
//! where `π_raw` is the exhaustive optimum of the raw market, `π_ε` the
//! exhaustive optimum through the coalesced view, `d_exact` the realized
//! deviation budget of the grouping, and `d_eps(ε)` the a-priori budget
//! computed from ε and the raw flows alone — before knowing which flows
//! merged. Instances stay within `OptimalExhaustive` reach so the
//! reference side is the true optimum, not a heuristic.

use proptest::prelude::*;

use tiered_transit::core::bundling::{BundlingStrategy, OptimalExhaustive};
use tiered_transit::core::coalesce::CoalescedMarket;
use tiered_transit::core::cost::LinearCost;
use tiered_transit::core::demand::ced::CedAlpha;
use tiered_transit::core::fitting::fit_ced;
use tiered_transit::core::flow::TrafficFlow;
use tiered_transit::core::market::{CedMarket, TransitMarket};
use transit_testkit::epsilon_deviation_bounds;

const ALPHA: f64 = 1.2;
/// Keep raw instances exhaustively enumerable (Bell(10) ≈ 1.2e5).
const MAX_RAW_FLOWS: usize = 10;

fn ced_market(flows: &[TrafficFlow]) -> CedMarket {
    let cost = LinearCost::new(0.2).unwrap();
    CedMarket::new(fit_ced(flows, &cost, CedAlpha::new(ALPHA).unwrap(), 20.0).unwrap()).unwrap()
}

/// Replicates each base pair `replication` times with sub-ε demand
/// jitter, capped at [`MAX_RAW_FLOWS`] total flows.
fn replicated_flows(base: &[(f64, f64)], replication: usize, jitter: f64) -> Vec<TrafficFlow> {
    let mut pairs: Vec<(f64, f64)> = Vec::new();
    for &(q, d) in base {
        for k in 0..replication {
            if pairs.len() < MAX_RAW_FLOWS {
                pairs.push((q + jitter * k as f64, d));
            }
        }
    }
    pairs
        .into_iter()
        .enumerate()
        .map(|(i, (q, d))| TrafficFlow::new(i as u32, q, d))
        .collect()
}

/// Best profit over all budgets `1..=max` in one exhaustive sweep.
fn exhaustive_best_profit(market: &dyn TransitMarket, max: usize) -> f64 {
    OptimalExhaustive
        .bundle_series(market, max)
        .unwrap()
        .iter()
        .map(|b| market.profit(b).unwrap())
        .fold(f64::NEG_INFINITY, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full ε contract on random near-duplicate CED markets: profit
    /// loss against the true raw optimum is bounded by twice the realized
    /// deviation budget, which is itself bounded by the explicit function
    /// of ε.
    #[test]
    fn epsilon_profit_loss_is_bounded(
        base in prop::collection::vec((0.1f64..500.0, 0.5f64..4000.0), 2..6),
        replication in 1usize..4,
        epsilon in 1e-3f64..2.0,
        jitter_frac in 0.0f64..0.4,
    ) {
        let flows = replicated_flows(&base, replication, epsilon * jitter_frac);
        let n_raw = flows.len();
        let market = ced_market(&flows);
        let cm = CoalescedMarket::with_epsilon(market, epsilon).unwrap();
        let Some(bounds) = epsilon_deviation_bounds(&cm, ALPHA) else {
            return Ok(()); // degenerate fit (non-positive cost/valuation)
        };
        prop_assert!(bounds.d_exact >= 0.0);
        prop_assert!(bounds.d_eps >= 0.0);

        let pi_raw = exhaustive_best_profit(cm.inner(), n_raw);
        let pi_eps = exhaustive_best_profit(&cm, cm.n_groups());
        let tol = 1e-7 * (pi_raw.abs() + 1.0);

        // Group-respecting search can never beat the unrestricted optimum.
        prop_assert!(
            pi_eps <= pi_raw + tol,
            "coalesced optimum {} beats raw optimum {} (ε={}, n={})",
            pi_eps, pi_raw, epsilon, n_raw
        );
        // ...and loses at most twice the realized deviation budget.
        prop_assert!(
            pi_raw - pi_eps <= 2.0 * bounds.d_exact + tol,
            "profit loss {} exceeds 2·d_exact={} (ε={}, n={}, groups={})",
            pi_raw - pi_eps, 2.0 * bounds.d_exact, epsilon, n_raw, cm.n_groups()
        );
        // ...and the realized budget is bounded by the a-priori ε function.
        prop_assert!(
            bounds.d_exact <= bounds.d_eps + tol,
            "d_exact {} exceeds d_eps {} (ε={})",
            bounds.d_exact, bounds.d_eps, epsilon
        );
    }

    /// At ε = 0 both deviation budgets are exactly zero (only bitwise
    /// duplicates merge, so representative terms are their members'),
    /// and the coalesced optimum matches the raw optimum to tolerance.
    #[test]
    fn epsilon_zero_budget_is_zero(
        base in prop::collection::vec((0.1f64..500.0, 0.5f64..4000.0), 2..5),
        replication in 1usize..3,
    ) {
        let flows = replicated_flows(&base, replication, 0.0);
        let n_raw = flows.len();
        let cm = CoalescedMarket::new(ced_market(&flows)).unwrap();
        let bounds = epsilon_deviation_bounds(&cm, ALPHA).unwrap();
        prop_assert_eq!(bounds.d_exact, 0.0);
        prop_assert_eq!(bounds.d_eps, 0.0);

        let pi_raw = exhaustive_best_profit(cm.inner(), n_raw);
        let pi_eps = exhaustive_best_profit(&cm, cm.n_groups());
        let tol = 1e-7 * (pi_raw.abs() + 1.0);
        prop_assert!((pi_raw - pi_eps).abs() <= tol);
    }

    /// Monotonicity of the a-priori budget: a larger ε on the same flows
    /// never yields a smaller `d_eps`.
    #[test]
    fn apriori_budget_grows_with_epsilon(
        base in prop::collection::vec((0.1f64..500.0, 0.5f64..4000.0), 2..6),
        eps_small in 1e-3f64..0.5,
        scale in 1.5f64..8.0,
    ) {
        let flows = replicated_flows(&base, 1, 0.0);
        let eps_large = eps_small * scale;
        let cm_small =
            CoalescedMarket::with_epsilon(ced_market(&flows), eps_small).unwrap();
        let cm_large =
            CoalescedMarket::with_epsilon(ced_market(&flows), eps_large).unwrap();
        let small = epsilon_deviation_bounds(&cm_small, ALPHA).unwrap();
        let large = epsilon_deviation_bounds(&cm_large, ALPHA).unwrap();
        prop_assert!(large.d_eps >= small.d_eps);
    }
}
