//! Property-based tests for the evaluation cache and the pooled
//! indexed map the stage executor runs on.

use proptest::prelude::*;

use tiered_transit::core::bundling::OptimalDp;
use tiered_transit::core::cache::{artifacts_for, CacheStats};
use tiered_transit::core::capture::capture_curve;
use tiered_transit::core::cost::LinearCost;
use tiered_transit::core::demand::ced::CedAlpha;
use tiered_transit::core::demand::logit::LogitAlpha;
use tiered_transit::core::fitting::{fit_ced, fit_logit};
use tiered_transit::core::flow::TrafficFlow;
use tiered_transit::core::market::{CedMarket, LogitMarket, TransitMarket};
use tiered_transit::pool;

/// Strategy for a valid flow set (2–20 flows).
fn arb_flows() -> impl Strategy<Value = Vec<TrafficFlow>> {
    prop::collection::vec((0.1f64..500.0, 0.5f64..4000.0), 2..20).prop_map(|pairs| {
        pairs
            .into_iter()
            .enumerate()
            .map(|(i, (q, d))| TrafficFlow::new(i as u32, q, d))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The per-instance cache returns exactly what an uncached
    /// recomputation returns, for both market families.
    #[test]
    fn cached_evaluation_matches_uncached(
        flows in arb_flows(),
        alpha in 1.05f64..5.0,
        p0 in 5.0f64..40.0,
    ) {
        let cost = LinearCost::new(0.2).unwrap();

        let ced = CedMarket::new(
            fit_ced(&flows, &cost, CedAlpha::new(alpha).unwrap(), p0).unwrap(),
        ).unwrap();
        let cached = ced.score_terms();
        let fresh = ced.score_terms_uncached();
        prop_assert_eq!(&cached.a, &fresh.a);
        prop_assert_eq!(&cached.b, &fresh.b);
        prop_assert_eq!(ced.potential_profits(), &ced.potential_profits_uncached()[..]);
        // Second access: still identical (the cache is write-once).
        prop_assert_eq!(&ced.score_terms().a, &fresh.a);

        let logit = LogitMarket::new(
            fit_logit(&flows, &cost, LogitAlpha::new(alpha).unwrap(), p0, 0.2).unwrap(),
        ).unwrap();
        let cached = logit.score_terms();
        let fresh = logit.score_terms_uncached();
        prop_assert_eq!(&cached.a, &fresh.a);
        prop_assert_eq!(&cached.b, &fresh.b);
        prop_assert_eq!(logit.potential_profits(), &logit.potential_profits_uncached()[..]);
    }

    /// Fingerprint-cache accounting holds under snapshot-delta scoping:
    /// re-requesting a market's artifacts hits, and the lifetime
    /// counters never depend on what other tests ran first (the old
    /// assertion style read the raw globals, which made `cargo test -q`
    /// order-dependent).
    #[test]
    fn cache_stats_deltas_are_order_independent(
        flows in arb_flows(),
        alpha in 1.05f64..5.0,
    ) {
        let cost = LinearCost::new(0.2).unwrap();
        let ced = CedMarket::new(
            fit_ced(&flows, &cost, CedAlpha::new(alpha).unwrap(), 20.0).unwrap(),
        ).unwrap();
        let before = CacheStats::snapshot();
        let first = artifacts_for(&ced);
        let after_first = CacheStats::snapshot().delta_since(&before);
        // First sight may hit (an identical market from an earlier case)
        // or miss, but it must be counted exactly once somewhere.
        prop_assert!(after_first.hits + after_first.misses >= 1);
        let second = artifacts_for(&ced);
        prop_assert!(std::sync::Arc::ptr_eq(&first, &second));
        let after_second = CacheStats::snapshot().delta_since(&before);
        prop_assert!(
            after_second.hits > after_first.hits,
            "second lookup of the same fingerprint must hit: {:?} -> {:?}",
            after_first, after_second
        );
    }

    /// Pooled output order is invariant to the worker-thread count: any
    /// width reproduces the serial result element-for-element.
    #[test]
    fn engine_order_invariant_to_thread_count(
        items in prop::collection::vec(0u64..1_000_000, 0..60),
        jobs in 1usize..13,
    ) {
        let work = |i: usize, &x: &u64| x.wrapping_mul(2_654_435_761).wrapping_add(i as u64);
        let _budget = pool::scoped_budget(8);
        let serial = pool::run_indexed(1, &items, work);
        let pooled = pool::run_indexed(jobs, &items, work);
        prop_assert_eq!(serial, pooled);
    }

    /// OptimalDp capture is monotone non-decreasing in the bundle count:
    /// an extra tier can only help (the DP may always ignore it).
    #[test]
    fn dp_capture_monotone_in_bundles(
        flows in arb_flows(),
        alpha in 1.05f64..4.0,
    ) {
        let cost = LinearCost::new(0.2).unwrap();
        let market = CedMarket::new(
            fit_ced(&flows, &cost, CedAlpha::new(alpha).unwrap(), 20.0).unwrap(),
        ).unwrap();
        let curve = capture_curve(&market, &OptimalDp::new(), 6).unwrap();
        for w in curve.capture.windows(2) {
            prop_assert!(
                w[1] >= w[0] - 1e-9,
                "capture decreased when adding a bundle: {} -> {}", w[0], w[1]
            );
        }
    }
}
