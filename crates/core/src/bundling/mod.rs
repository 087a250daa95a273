//! Bundlings and bundling strategies (paper §4.2.1).
//!
//! A [`Bundling`] partitions a flow set into pricing tiers: every flow in a
//! bundle is sold at one common price. The paper evaluates six strategies
//! for constructing bundlings:
//!
//! * **Optimal** — exhaustive search ([`optimal::OptimalExhaustive`] for
//!   small instances) or an ordering-based dynamic program
//!   ([`optimal::OptimalDp`]) that is optimal among bundlings contiguous in
//!   a sorted order — valid because both demand models admit an *additive
//!   bundle score* whose partition-sum is monotone in total profit (see
//!   [`crate::market::TransitMarket::bundle_score`]).
//! * **Demand-weighted**, **cost-weighted**, **profit-weighted** — the
//!   paper's token-bucket algorithm ([`token_bucket`]) with weights equal
//!   to flow demand, inverse flow cost, and potential profit (Eq. 12/13).
//! * **Cost division** ([`division::CostDivision`]) — equal-width ranges of
//!   the cost axis.
//! * **Index division** ([`division::IndexDivision`]) — equal-count groups
//!   of the cost-ranked flows.
//!
//! Plus the §4.3.1 refinement for two-class (on-net/off-net) traffic:
//! [`class_aware::ClassAware`], which never mixes destination classes
//! within a bundle — and two extension strategies beyond the paper in
//! [`extensions`] (demand-weighted natural breaks and equal-demand-mass
//! division).

pub mod class_aware;
pub mod division;
pub mod extensions;
pub mod optimal;
pub mod token_bucket;
pub mod weights;

pub use class_aware::ClassAware;
pub use division::{CostDivision, IndexDivision};
pub use extensions::{DemandMassDivision, NaturalBreaks};
pub use optimal::{OptimalDp, OptimalExhaustive};
pub use token_bucket::TokenBucket;
pub use weights::WeightKind;

use serde::{Deserialize, Serialize};

use crate::error::{Result, TransitError};
use crate::market::TransitMarket;

/// A partition of `n` flows into at most `n_bundles` pricing tiers.
///
/// `assignment[i]` is the bundle index of flow `i`. Bundles may be empty
/// (e.g. cost-division ranges that no flow falls into); empty bundles
/// simply sell nothing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bundling {
    assignment: Vec<usize>,
    n_bundles: usize,
}

impl Bundling {
    /// Builds a bundling from an explicit assignment, validating that every
    /// index is `< n_bundles` and `n_bundles >= 1`.
    pub fn new(assignment: Vec<usize>, n_bundles: usize) -> Result<Bundling> {
        if n_bundles == 0 {
            return Err(TransitError::ZeroBundles);
        }
        if assignment.is_empty() {
            return Err(TransitError::EmptyFlowSet);
        }
        if let Some(&bad) = assignment.iter().find(|&&b| b >= n_bundles) {
            let _ = bad;
            return Err(TransitError::InvalidBundling {
                reason: "assignment references a bundle index >= n_bundles",
            });
        }
        Ok(Bundling {
            assignment,
            n_bundles,
        })
    }

    /// The blended-rate bundling: every flow in one bundle.
    pub fn single(n_flows: usize) -> Result<Bundling> {
        Bundling::new(vec![0; n_flows], 1)
    }

    /// The infinitely-tiered bundling: every flow in its own bundle.
    pub fn per_flow(n_flows: usize) -> Result<Bundling> {
        Bundling::new((0..n_flows).collect(), n_flows.max(1))
    }

    /// Bundle index of each flow.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Number of bundles (tiers), including any empty ones.
    pub fn n_bundles(&self) -> usize {
        self.n_bundles
    }

    /// Number of flows.
    pub fn n_flows(&self) -> usize {
        self.assignment.len()
    }

    /// Flow indices grouped by bundle; empty bundles yield empty groups.
    pub fn members(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.n_bundles];
        for (flow, &bundle) in self.assignment.iter().enumerate() {
            groups[bundle].push(flow);
        }
        groups
    }

    /// Number of non-empty bundles.
    pub fn occupied_bundles(&self) -> usize {
        self.members().iter().filter(|m| !m.is_empty()).count()
    }
}

/// A strategy that groups a market's flows into `n_bundles` tiers.
pub trait BundlingStrategy {
    /// Short machine-friendly name used in experiment output.
    fn name(&self) -> &'static str;

    /// Produces a bundling with at most `n_bundles` tiers.
    fn bundle(&self, market: &dyn TransitMarket, n_bundles: usize) -> Result<Bundling>;

    /// Produces the whole series `[bundle(market, 1), …,
    /// bundle(market, max_bundles)]` in one call.
    ///
    /// Semantically this is exactly the per-point loop (which is the
    /// default implementation); strategies override it to share sort
    /// orders, prefix sums, and DP tables across the series, turning the
    /// O(B_max²·n²) capture-curve hot path into one O(B_max·n²) pass.
    /// Overrides must stay assignment-identical to the per-point path —
    /// `tests/bundle_series_props.rs` enforces this for every strategy.
    fn bundle_series(
        &self,
        market: &dyn TransitMarket,
        max_bundles: usize,
    ) -> Result<Vec<Bundling>> {
        (1..=max_bundles).map(|b| self.bundle(market, b)).collect()
    }
}

/// Identifies a strategy for the experiment harness, in the legend order of
/// Fig. 8/9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Exhaustive/DP optimal.
    Optimal,
    /// Token bucket weighted by inverse cost.
    CostWeighted,
    /// Token bucket weighted by potential profit (Eq. 12/13).
    ProfitWeighted,
    /// Token bucket weighted by demand.
    DemandWeighted,
    /// Equal-width cost ranges.
    CostDivision,
    /// Equal-count cost-rank groups.
    IndexDivision,
}

impl StrategyKind {
    /// All six strategies in Fig. 8 legend order.
    pub const ALL: [StrategyKind; 6] = [
        StrategyKind::Optimal,
        StrategyKind::CostWeighted,
        StrategyKind::ProfitWeighted,
        StrategyKind::DemandWeighted,
        StrategyKind::CostDivision,
        StrategyKind::IndexDivision,
    ];

    /// The five strategies shown for logit demand (Fig. 9 omits
    /// demand-weighted because logit potential profit is proportional to
    /// demand, Eq. 13, making the two identical).
    pub const LOGIT: [StrategyKind; 5] = [
        StrategyKind::Optimal,
        StrategyKind::CostWeighted,
        StrategyKind::ProfitWeighted,
        StrategyKind::CostDivision,
        StrategyKind::IndexDivision,
    ];

    /// Instantiates the strategy.
    pub fn build(self) -> Box<dyn BundlingStrategy + Send + Sync> {
        match self {
            StrategyKind::Optimal => Box::new(OptimalDp::default()),
            StrategyKind::CostWeighted => Box::new(TokenBucket::new(WeightKind::InverseCost)),
            StrategyKind::ProfitWeighted => Box::new(TokenBucket::new(WeightKind::PotentialProfit)),
            StrategyKind::DemandWeighted => Box::new(TokenBucket::new(WeightKind::Demand)),
            StrategyKind::CostDivision => Box::new(CostDivision),
            StrategyKind::IndexDivision => Box::new(IndexDivision),
        }
    }

    /// Display name matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::Optimal => "Optimal",
            StrategyKind::CostWeighted => "Cost-weighted",
            StrategyKind::ProfitWeighted => "Profit-weighted",
            StrategyKind::DemandWeighted => "Demand-weighted",
            StrategyKind::CostDivision => "Cost division",
            StrategyKind::IndexDivision => "Index division",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_indices() {
        assert!(Bundling::new(vec![0, 1, 2], 3).is_ok());
        assert!(Bundling::new(vec![0, 3], 3).is_err());
        assert!(Bundling::new(vec![0], 0).is_err());
        assert!(Bundling::new(vec![], 1).is_err());
    }

    #[test]
    fn single_and_per_flow() {
        let s = Bundling::single(4).unwrap();
        assert_eq!(s.n_bundles(), 1);
        assert_eq!(s.occupied_bundles(), 1);
        let p = Bundling::per_flow(4).unwrap();
        assert_eq!(p.n_bundles(), 4);
        assert_eq!(p.occupied_bundles(), 4);
    }

    #[test]
    fn members_groups_correctly() {
        let b = Bundling::new(vec![1, 0, 1, 2], 4).unwrap();
        let m = b.members();
        assert_eq!(m.len(), 4);
        assert_eq!(m[0], vec![1]);
        assert_eq!(m[1], vec![0, 2]);
        assert_eq!(m[2], vec![3]);
        assert!(m[3].is_empty());
        assert_eq!(b.occupied_bundles(), 3);
    }

    #[test]
    fn strategy_labels_match_paper_legend() {
        assert_eq!(StrategyKind::Optimal.label(), "Optimal");
        assert_eq!(StrategyKind::CostDivision.label(), "Cost division");
        let labels: std::collections::HashSet<_> =
            StrategyKind::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 6);
    }

    #[test]
    fn logit_strategy_list_omits_demand_weighted() {
        assert!(!StrategyKind::LOGIT.contains(&StrategyKind::DemandWeighted));
        assert_eq!(StrategyKind::LOGIT.len(), 5);
    }
}
