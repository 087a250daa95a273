//! The one-pass DP capture curve builds a fraction of the DP rows the
//! per-point baseline builds. `OptimalDp::bundle_series` fills one table
//! up to B_max and reads every bundle count off it; the trait default
//! re-solves each count from scratch, building b rows per ordering for
//! count b. At B_max = 10 that is 10 rows per ordering against 55, so
//! the ratio is algorithmic and counted here instead of timed (wall-clock
//! timing of the same pair is criterion `kernels::capture_curves`).
//!
//! A serial build emits one `bundling.dp.tiles` tick per DP row. The
//! counter is process-wide, so this file holds a single test.

use tiered_transit::core::bundling::{Bundling, BundlingStrategy, OptimalDp};
use tiered_transit::core::capture::capture_curve;
use tiered_transit::core::cost::LinearCost;
use tiered_transit::core::demand::DemandFamily;
use tiered_transit::core::error::Result;
use tiered_transit::core::market::TransitMarket;
use tiered_transit::datasets::Network;
use tiered_transit::experiments::markets::{fit_market, flows_for};
use tiered_transit::experiments::ExperimentConfig;

const B_MAX: usize = 10;

/// Forwards `bundle` but keeps the trait's default per-point
/// `bundle_series` loop.
struct PerPoint(OptimalDp);

impl BundlingStrategy for PerPoint {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn bundle(&self, market: &dyn TransitMarket, n_bundles: usize) -> Result<Bundling> {
        self.0.bundle(market, n_bundles)
    }
}

/// DP rows built by one capture curve over `strategy`.
fn rows_built(market: &dyn TransitMarket, strategy: &dyn BundlingStrategy) -> u64 {
    let tiles = tiered_transit::obs::metrics::counter("bundling.dp.tiles");
    let before = tiles.get();
    capture_curve(market, strategy, B_MAX).expect("capture curve");
    tiles.get() - before
}

#[test]
fn one_pass_capture_curve_builds_a_fifth_of_the_per_point_rows() {
    let cfg = ExperimentConfig {
        n_flows: 1000,
        ..ExperimentConfig::default()
    };
    let cost = LinearCost::new(cfg.theta).expect("valid theta");
    let flows = flows_for(Network::EuIsp, &cfg);
    let market = fit_market(DemandFamily::Ced, &flows, &cost, &cfg).expect("market fits");
    // Warm the sort-order, prefix-sum and segment-memo caches.
    capture_curve(market.as_ref(), &OptimalDp::new(), B_MAX).expect("warmup");

    let one_pass = rows_built(market.as_ref(), &OptimalDp::new());
    let per_point = rows_built(market.as_ref(), &PerPoint(OptimalDp::new()));
    assert!(one_pass > 0, "the one-pass curve built no DP rows");
    assert!(
        per_point >= 5 * one_pass,
        "one-pass built {one_pass} DP rows, per-point {per_point}: \
         bundle_series lost its one-table-for-every-count win"
    );
}
