//! `BundlingStrategy::bundle_series` must be *assignment-identical* to
//! the per-point `bundle` loop for every strategy — the one-pass kernels
//! (shared DP tables, sort orders, prefix sums) are pure optimizations,
//! not approximations. These properties pin that contract across random
//! CED and logit markets.
//!
//! The same file pins the million-flow scaling layers as exactness
//! properties: ε = 0 flow coalescing is a bitwise no-op on
//! duplicate-free markets and a bitwise profit/capture delegation on
//! replicated ones, and the tiled DP build is byte-identical for every
//! `dp_threads` value.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use tiered_transit::core::bundling::{
    BundlingStrategy, ClassAware, DemandMassDivision, NaturalBreaks, OptimalDp, OptimalExhaustive,
    StrategyKind, WeightKind,
};
use tiered_transit::core::capture::{capture_curve, capture_for_bundling};
use tiered_transit::core::coalesce::CoalescedMarket;
use tiered_transit::core::cost::LinearCost;
use tiered_transit::core::demand::ced::CedAlpha;
use tiered_transit::core::demand::logit::LogitAlpha;
use tiered_transit::core::fitting::{fit_ced, fit_logit};
use tiered_transit::core::flow::TrafficFlow;
use tiered_transit::core::market::{CedMarket, LogitMarket, TransitMarket};

/// Strategy for a valid flow set with `range` flows.
fn arb_flows(range: std::ops::Range<usize>) -> impl Strategy<Value = Vec<TrafficFlow>> {
    prop::collection::vec((0.1f64..500.0, 0.5f64..4000.0), range).prop_map(|pairs| {
        pairs
            .into_iter()
            .enumerate()
            .map(|(i, (q, d))| TrafficFlow::new(i as u32, q, d))
            .collect()
    })
}

fn ced_market(flows: &[TrafficFlow]) -> CedMarket {
    let cost = LinearCost::new(0.2).unwrap();
    CedMarket::new(fit_ced(flows, &cost, CedAlpha::new(1.2).unwrap(), 20.0).unwrap()).unwrap()
}

fn logit_market(flows: &[TrafficFlow]) -> Option<LogitMarket> {
    let cost = LinearCost::new(0.2).unwrap();
    fit_logit(flows, &cost, LogitAlpha::new(1.1).unwrap(), 20.0, 0.2)
        .ok()
        .map(|fit| LogitMarket::new(fit).unwrap())
}

/// Every strategy under test, including the non-`StrategyKind` ones.
/// `classes` are the labels for the class-aware wrapper.
fn all_strategies(classes: Vec<usize>) -> Vec<Box<dyn BundlingStrategy>> {
    let mut strategies: Vec<Box<dyn BundlingStrategy>> = StrategyKind::ALL
        .iter()
        .map(|&kind| kind.build() as Box<dyn BundlingStrategy>)
        .collect();
    strategies.push(Box::new(ClassAware::new(
        WeightKind::PotentialProfit,
        classes,
    )));
    strategies.push(Box::new(NaturalBreaks));
    strategies.push(Box::new(DemandMassDivision));
    strategies
}

/// Asserts `bundle_series(market, max)` equals `[bundle(market, b)]`
/// point for point, at the assignment level.
fn assert_series_identical(
    market: &dyn TransitMarket,
    strategy: &dyn BundlingStrategy,
    max_bundles: usize,
) -> std::result::Result<(), TestCaseError> {
    let series = strategy.bundle_series(market, max_bundles).unwrap();
    prop_assert_eq!(series.len(), max_bundles, "{}", strategy.name());
    for (idx, from_series) in series.iter().enumerate() {
        let b = idx + 1;
        let from_point = strategy.bundle(market, b).unwrap();
        prop_assert_eq!(
            from_series.assignment(),
            from_point.assignment(),
            "{} diverges at b={} of {}",
            strategy.name(),
            b,
            max_bundles
        );
        prop_assert_eq!(from_series.n_bundles(), from_point.n_bundles());
    }
    Ok(())
}

/// True when every `(demand, distance)` pair is bitwise-distinct — the
/// precondition for ε = 0 coalescing to be an exact no-op.
fn duplicate_free(flows: &[TrafficFlow]) -> bool {
    let mut seen = std::collections::HashSet::new();
    flows
        .iter()
        .all(|f| seen.insert((f.demand_mbps.to_bits(), f.distance_miles.to_bits())))
}

/// Asserts that bundling the coalesced view of a duplicate-free market
/// is indistinguishable from bundling the raw market: same assignments
/// after `expand`, bitwise-equal profits, bitwise-equal capture curves.
fn assert_coalescing_is_identity<M: TransitMarket>(
    market: M,
    strategies: &[Box<dyn BundlingStrategy>],
    max_bundles: usize,
) -> std::result::Result<(), TestCaseError> {
    let coalesced = CoalescedMarket::new(market).unwrap();
    let raw = coalesced.inner();
    prop_assert_eq!(
        coalesced.n_groups(),
        raw.n_flows(),
        "no-op must keep every flow"
    );
    for strategy in strategies {
        let group_series = strategy.bundle_series(&coalesced, max_bundles).unwrap();
        let raw_series = strategy.bundle_series(raw, max_bundles).unwrap();
        for (group_b, raw_b) in group_series.iter().zip(&raw_series) {
            let expanded = coalesced.expand(group_b).unwrap();
            prop_assert_eq!(
                expanded.assignment(),
                raw_b.assignment(),
                "{}: coalesced assignment diverges",
                strategy.name()
            );
            let p_grouped = coalesced.profit(group_b).unwrap();
            let p_raw = raw.profit(raw_b).unwrap();
            prop_assert_eq!(p_grouped.to_bits(), p_raw.to_bits(), "{}", strategy.name());
        }
        let grouped_curve = capture_curve(&coalesced, strategy.as_ref(), max_bundles).unwrap();
        let raw_curve = capture_curve(raw, strategy.as_ref(), max_bundles).unwrap();
        for (a, b) in grouped_curve.capture.iter().zip(&raw_curve.capture) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "{} capture", strategy.name());
        }
        for (a, b) in grouped_curve.profit.iter().zip(&raw_curve.profit) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "{} profit", strategy.name());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All strategies: one-pass series == per-point loop on CED markets.
    #[test]
    fn series_matches_per_point_on_ced(
        flows in arb_flows(2..20),
        max_bundles in 1usize..8,
    ) {
        let market = ced_market(&flows);
        let classes: Vec<usize> = (0..flows.len()).map(|i| i % 2).collect();
        for strategy in all_strategies(classes) {
            assert_series_identical(&market, strategy.as_ref(), max_bundles)?;
        }
    }

    /// All strategies: one-pass series == per-point loop on logit markets.
    #[test]
    fn series_matches_per_point_on_logit(
        flows in arb_flows(2..20),
        max_bundles in 1usize..8,
    ) {
        // Infeasible logit fits (markup above P0) are a legitimate
        // rejection, not a failure.
        let Some(market) = logit_market(&flows) else { return Ok(()); };
        let classes: Vec<usize> = (0..flows.len()).map(|i| i % 2).collect();
        for strategy in all_strategies(classes) {
            assert_series_identical(&market, strategy.as_ref(), max_bundles)?;
        }
    }

    /// The exhaustive search's one-sweep series matches its per-budget
    /// runs on instances small enough to enumerate.
    #[test]
    fn exhaustive_series_matches_per_point(
        flows in arb_flows(2..9),
        max_bundles in 1usize..6,
    ) {
        let market = ced_market(&flows);
        assert_series_identical(&market, &OptimalExhaustive, max_bundles)?;
    }

    /// ε = 0 coalescing on a duplicate-free CED market is an exact no-op:
    /// every strategy's assignments, profits, and capture curves are
    /// bitwise-identical through the coalesced view.
    #[test]
    fn coalescing_identity_on_duplicate_free_ced(
        flows in arb_flows(2..20),
        max_bundles in 1usize..8,
    ) {
        if !duplicate_free(&flows) {
            return Ok(()); // coalescing would legitimately merge; skip
        }
        let classes: Vec<usize> = (0..flows.len()).map(|i| i % 2).collect();
        assert_coalescing_is_identity(ced_market(&flows), &all_strategies(classes), max_bundles)?;
    }

    /// ε = 0 coalescing on a duplicate-free logit market is an exact
    /// no-op (same contract as the CED property).
    #[test]
    fn coalescing_identity_on_duplicate_free_logit(
        flows in arb_flows(2..20),
        max_bundles in 1usize..8,
    ) {
        if !duplicate_free(&flows) {
            return Ok(());
        }
        let Some(market) = logit_market(&flows) else { return Ok(()); };
        let classes: Vec<usize> = (0..flows.len()).map(|i| i % 2).collect();
        assert_coalescing_is_identity(market, &all_strategies(classes), max_bundles)?;
    }

    /// On markets with real duplicates (every flow replicated 2–4×),
    /// the coalesced view's profit, original/max profit, and capture are
    /// *bitwise* equal to evaluating the expanded bundling on the raw
    /// market — delegation makes group-level search exactness-free by
    /// construction, whatever the grouping did.
    #[test]
    fn coalesced_profit_delegates_bitwise_on_replicated_ced(
        flows in arb_flows(2..10),
        replication in 2usize..5,
        max_bundles in 1usize..6,
    ) {
        let replicated: Vec<TrafficFlow> = flows
            .iter()
            .flat_map(|f| std::iter::repeat_with(move || (f.demand_mbps, f.distance_miles)).take(replication))
            .enumerate()
            .map(|(i, (q, d))| TrafficFlow::new(i as u32, q, d))
            .collect();
        let coalesced = CoalescedMarket::new(ced_market(&replicated)).unwrap();
        prop_assert!(coalesced.n_groups() <= flows.len());
        let classes: Vec<usize> = (0..coalesced.n_groups()).map(|i| i % 2).collect();
        for strategy in all_strategies(classes) {
            for group_b in strategy.bundle_series(&coalesced, max_bundles).unwrap() {
                let expanded = coalesced.expand(&group_b).unwrap();
                let via_group = capture_for_bundling(&coalesced, &group_b).unwrap();
                let via_raw = capture_for_bundling(coalesced.inner(), &expanded).unwrap();
                prop_assert_eq!(via_group.profit.to_bits(), via_raw.profit.to_bits());
                prop_assert_eq!(
                    via_group.original_profit.to_bits(),
                    via_raw.original_profit.to_bits()
                );
                prop_assert_eq!(via_group.max_profit.to_bits(), via_raw.max_profit.to_bits());
                prop_assert_eq!(
                    via_group.capture.to_bits(),
                    via_raw.capture.to_bits(),
                    "{}",
                    strategy.name()
                );
            }
        }
    }

    /// The tiled DP build is byte-identical for every thread count —
    /// same assignments, same bitwise profits — on markets small enough
    /// that rows fall back to the serial path and large enough to tile.
    #[test]
    fn tiled_dp_identical_across_thread_counts(
        flows in arb_flows(2..40),
        max_bundles in 1usize..8,
    ) {
        let market = ced_market(&flows);
        let serial = OptimalDp::with_threads(1).bundle_series(&market, max_bundles).unwrap();
        for threads in [2usize, 8] {
            let tiled = OptimalDp::with_threads(threads)
                .bundle_series(&market, max_bundles)
                .unwrap();
            prop_assert_eq!(&serial, &tiled, "dp_threads={}", threads);
        }
        for bundling in &serial {
            let p1 = market.profit(bundling).unwrap();
            let p8 = market
                .profit(&OptimalDp::with_threads(8).bundle(&market, bundling.n_bundles()).unwrap())
                .unwrap();
            prop_assert_eq!(p1.to_bits(), p8.to_bits());
        }
    }

    /// The one-pass DP's profit at every bundle count is *bitwise* equal
    /// to the per-B DP's — shared tables must not perturb a single ULP.
    #[test]
    fn dp_series_profit_bitwise_equal(
        flows in arb_flows(2..24),
        max_bundles in 1usize..10,
    ) {
        let market = ced_market(&flows);
        let dp = OptimalDp::new();
        let series = dp.bundle_series(&market, max_bundles).unwrap();
        for (idx, from_series) in series.iter().enumerate() {
            let b = idx + 1;
            let from_point = dp.bundle(&market, b).unwrap();
            let p_series = market.profit(from_series).unwrap();
            let p_point = market.profit(&from_point).unwrap();
            prop_assert_eq!(
                p_series.to_bits(),
                p_point.to_bits(),
                "b={}: {} vs {}",
                b,
                p_series,
                p_point
            );
        }
    }
}

/// The proptest sizes above stay under the tiled DP's parallel
/// threshold; this deterministic case is large enough (n = 700 > 2 tile
/// widths) that multi-threaded rows genuinely split into tiles — and
/// must still be byte-identical to the serial build.
#[test]
fn tiled_dp_identical_on_tiling_sized_market() {
    // Cheap deterministic pseudo-random flows (no RNG dependency).
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let flows: Vec<TrafficFlow> = (0..700)
        .map(|i| TrafficFlow::new(i, 0.1 + 499.0 * next(), 0.5 + 3999.0 * next()))
        .collect();
    let market = ced_market(&flows);
    let serial = OptimalDp::with_threads(1)
        .bundle_series(&market, 6)
        .unwrap();
    for threads in [2usize, 8] {
        let tiled = OptimalDp::with_threads(threads)
            .bundle_series(&market, 6)
            .unwrap();
        assert_eq!(serial, tiled, "dp_threads={threads} diverged");
    }
    for bundling in &serial {
        let p1 = market.profit(bundling).unwrap();
        for threads in [2usize, 8] {
            let b = OptimalDp::with_threads(threads)
                .bundle(&market, bundling.n_bundles())
                .unwrap();
            assert_eq!(p1.to_bits(), market.profit(&b).unwrap().to_bits());
        }
    }
}

/// Deterministic edge cases the random generators rarely hit.
#[test]
fn series_edge_cases() {
    let flows: Vec<TrafficFlow> = (0..5)
        .map(|i| TrafficFlow::new(i, 10.0 + i as f64, 100.0 + 10.0 * i as f64))
        .collect();
    let market = ced_market(&flows);
    let classes = vec![0, 1, 0, 1, 0];
    for strategy in all_strategies(classes) {
        // max_bundles == 0 mirrors the per-point loop: an empty series.
        assert_eq!(
            strategy.bundle_series(&market, 0).unwrap().len(),
            0,
            "{}",
            strategy.name()
        );
        // More bundles than flows still matches per-point behavior.
        let series = strategy.bundle_series(&market, 9).unwrap();
        for (idx, bundling) in series.iter().enumerate() {
            let per_point = strategy.bundle(&market, idx + 1).unwrap();
            assert_eq!(
                bundling.assignment(),
                per_point.assignment(),
                "{} diverges at b={} > n",
                strategy.name(),
                idx + 1
            );
        }
    }
}
