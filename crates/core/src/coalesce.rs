//! Exact flow coalescing: collapse duplicate flows into weighted groups.
//!
//! Million-flow traffic matrices contain massive duplication: many
//! customers buy the same capacity to the same destination class, so
//! their fitted `(valuation, cost)` pairs repeat exactly. Every bundling
//! strategy in this crate decides tiers from those two per-flow numbers
//! (plus demand-derived weights), which means flows with identical pairs
//! are *interchangeable*: any optimal partition can be rearranged so each
//! duplicate run stays contiguous, and the bundle-aggregation identities
//! (Eq. 10–11 — bundle score terms are member sums) collapse a run of
//! `w` identical flows into a single group with summed terms.
//!
//! [`CoalescedMarket`] performs that collapse as a preprocessing pass: it
//! groups flows whose `(v, c)` bit patterns are equal (or equal after
//! ε-quantization when `epsilon > 0`) and exposes the groups as a small
//! "market of groups" for strategies to partition. The strategy's
//! *search* runs over `g ≪ n` groups (the DP drops from `O(B·n²)` to
//! `O(B·g²)`, sorts from `O(n log n)` to `O(g log g)`).
//!
//! ## Exact grouped evaluation
//!
//! Profits and bundle prices are evaluated in O(groups), never by
//! expanding back to raw flows. Each group holds one *run* per distinct
//! bitwise `(v, c)` pair among its members — exactly one at ε = 0 — and
//! a group-level bundling becomes one weighted entry `(representative,
//! bundle, run length)` per run, evaluated by the wrapped market's
//! [`weighted_profit`](TransitMarket::weighted_profit) /
//! [`weighted_bundle_prices`](TransitMarket::weighted_bundle_prices)
//! kernels. Those kernels are the same code the raw market's `profit`
//! runs with multiplicity 1, and every sum in them is an
//! [`ExactSum`](crate::exact::ExactSum): flows of one run have
//! bitwise-equal per-flow terms, `m` such terms add exactly to `m·t`,
//! and the exact total is rounded once. Grouped evaluation therefore
//! equals raw evaluation of the [expanded](CoalescedMarket::expand)
//! bundling **bit for bit, by arithmetic, at any ε**. The status-quo
//! baseline and the per-flow ceiling are the raw market's own.
//!
//! Exactness of the *search* itself:
//!
//! * At ε = 0 on a duplicate-free market every group is a singleton, so
//!   coalescing is an exact no-op for every strategy (pinned by property
//!   tests).
//! * The additive bundle score `s(A, C) = A·g(C/A)` is 1-homogeneous and
//!   convex for both demand families, so the DP's objective as a function
//!   of where a duplicate run is split is convex — splitting a run of
//!   identical flows across two bundles is weakly dominated by moving the
//!   whole run to one side. The group-level DP therefore attains the raw
//!   DP's optimum (in real arithmetic).
//! * Rank/budget heuristics may place a tier boundary *inside* a
//!   duplicate run on the raw market; group-level search snaps that
//!   boundary to the run edge. This is the documented (and weight-aware:
//!   groups carry summed demands, potential profits, and
//!   [multiplicities](TransitMarket::flow_multiplicities)) approximation
//!   for heuristics on duplicated data — and since identical flows are
//!   interchangeable, the snapped partition is the same tier structure
//!   the paper's heuristics express.

use std::collections::HashMap;

use crate::bundling::Bundling;
use crate::demand::DemandFamily;
use crate::error::{Result, TransitError};
use crate::market::{
    check_bundling, check_entries, unit_entries, ScoreTerms, TransitMarket, WeightedEntry,
};

/// A raw market wrapped into weighted duplicate groups.
///
/// Implements [`TransitMarket`] over the *groups* (so any
/// [`BundlingStrategy`](crate::bundling::BundlingStrategy) and
/// [`capture_curve`](crate::capture::capture_curve) run unchanged).
/// Profits and prices are evaluated per run of bitwise-equal flows in
/// O(groups) and are bitwise identical with the wrapped raw market on
/// the expanded bundling (see the module docs).
#[derive(Debug, Clone)]
pub struct CoalescedMarket<M: TransitMarket> {
    inner: M,
    epsilon: f64,
    /// Raw member indices per group, each ascending; groups in
    /// first-occurrence order.
    groups: Vec<Vec<u32>>,
    /// Raw flow index → group index.
    group_of: Vec<u32>,
    /// Runs of bitwise-equal `(v, c)` as (representative raw flow, raw
    /// flows in the run), group by group: group `g` owns
    /// `runs[run_start[g]..run_start[g + 1]]`.
    runs: Vec<(u32, u64)>,
    run_start: Vec<u32>,
    /// Raw flows per group.
    multiplicities: Vec<u64>,
    valuations: Vec<f64>,
    costs: Vec<f64>,
    demands: Vec<f64>,
    potential: Vec<f64>,
    terms: ScoreTerms,
}

/// Quantization key for a `(valuation, cost)` pair: exact bit patterns at
/// ε = 0, rounded multiples of ε otherwise.
fn quantize(v: f64, c: f64, epsilon: f64) -> (u64, u64) {
    if epsilon == 0.0 {
        (v.to_bits(), c.to_bits())
    } else {
        (
            ((v / epsilon).round() as i64) as u64,
            ((c / epsilon).round() as i64) as u64,
        )
    }
}

impl<M: TransitMarket> CoalescedMarket<M> {
    /// Coalesces `inner` exactly: flows merge only when their fitted
    /// `(valuation, cost)` pairs are bit-for-bit equal (ε = 0).
    pub fn new(inner: M) -> Result<CoalescedMarket<M>> {
        CoalescedMarket::with_epsilon(inner, 0.0)
    }

    /// Coalesces `inner` with tolerance `epsilon`: flows merge when their
    /// valuations and costs round to the same multiple of `epsilon`.
    ///
    /// `epsilon = 0` is the exact mode. At ε > 0 each group is
    /// represented by its *first* member's `(v, c)` — strategy decisions
    /// become ε-approximate, but profit evaluation weighs every distinct
    /// member pair and stays bitwise equal to the raw market for whatever
    /// tiers are chosen.
    pub fn with_epsilon(inner: M, epsilon: f64) -> Result<CoalescedMarket<M>> {
        if !epsilon.is_finite() || epsilon < 0.0 {
            return Err(TransitError::InvalidParameter {
                name: "epsilon",
                value: epsilon,
                expected: "a finite value >= 0",
            });
        }
        let n = inner.n_flows();
        if n == 0 {
            return Err(TransitError::EmptyFlowSet);
        }
        let raw_v = inner.valuations();
        let raw_c = inner.costs();
        let raw_q = inner.demands();
        let raw_pi = inner.potential_profits();

        let mut index: HashMap<(u64, u64), u32> = HashMap::new();
        let mut groups: Vec<Vec<u32>> = Vec::new();
        let mut group_of: Vec<u32> = Vec::with_capacity(n);
        for i in 0..n {
            let key = quantize(raw_v[i], raw_c[i], epsilon);
            let g = *index.entry(key).or_insert_with(|| {
                groups.push(Vec::new());
                (groups.len() - 1) as u32
            });
            groups[g as usize].push(i as u32);
            group_of.push(g);
        }

        // Representatives and weighted aggregates, member-sequential so a
        // singleton group is bitwise its raw flow.
        let g = groups.len();
        let mut multiplicities = Vec::with_capacity(g);
        let mut valuations = Vec::with_capacity(g);
        let mut costs = Vec::with_capacity(g);
        let mut demands = Vec::with_capacity(g);
        let mut potential = Vec::with_capacity(g);
        for members in &groups {
            let first = members[0] as usize;
            multiplicities.push(members.len() as u64);
            valuations.push(raw_v[first]);
            costs.push(raw_c[first]);
            let mut q = 0.0;
            let mut pi = 0.0;
            for &m in members {
                q += raw_q[m as usize];
                pi += raw_pi[m as usize];
            }
            demands.push(q);
            potential.push(pi);
        }
        let terms = inner.score_terms().grouped(&groups);
        let (runs, run_start) = if epsilon == 0.0 {
            // Exact keys: each group is a single run.
            (
                groups.iter().map(|m| (m[0], m.len() as u64)).collect(),
                (0..=g as u32).collect(),
            )
        } else {
            // Equal bits quantize equally, so a pair's run never leaves
            // its group and the runs come out group by group.
            let mut run_of: HashMap<(u64, u64), usize> = HashMap::new();
            let mut runs: Vec<(u32, u64)> = Vec::new();
            let mut run_start = vec![0];
            for members in &groups {
                for &m in members {
                    let key = (raw_v[m as usize].to_bits(), raw_c[m as usize].to_bits());
                    let r = *run_of.entry(key).or_insert_with(|| {
                        runs.push((m, 0));
                        runs.len() - 1
                    });
                    runs[r].1 += 1;
                }
                run_start.push(runs.len() as u32);
            }
            (runs, run_start)
        };

        transit_obs::counter!("coalesce.markets").inc();
        transit_obs::counter!("coalesce.raw_flows").add(n as u64);
        transit_obs::counter!("coalesce.groups").add(g as u64);

        Ok(CoalescedMarket {
            inner,
            epsilon,
            groups,
            group_of,
            runs,
            run_start,
            multiplicities,
            valuations,
            costs,
            demands,
            potential,
            terms,
        })
    }

    /// The wrapped raw market.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Unwraps the raw market.
    pub fn into_inner(self) -> M {
        self.inner
    }

    /// The quantization tolerance (0 = exact).
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of raw flows behind the groups.
    pub fn n_raw_flows(&self) -> usize {
        self.group_of.len()
    }

    /// Number of groups (this market's `n_flows`).
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// Compression achieved: raw flows per group (≥ 1).
    pub fn coalesce_ratio(&self) -> f64 {
        self.n_raw_flows() as f64 / self.n_groups() as f64
    }

    /// Raw member indices of each group (ascending within a group;
    /// groups in first-occurrence order).
    pub fn groups(&self) -> &[Vec<u32>] {
        &self.groups
    }

    /// Group index of each raw flow.
    pub fn group_of(&self) -> &[u32] {
        &self.group_of
    }

    /// Expands a *group-level* bundling to the equivalent raw-flow
    /// bundling: every raw flow joins its group's bundle.
    pub fn expand(&self, bundling: &Bundling) -> Result<Bundling> {
        check_bundling(bundling, self.n_groups())?;
        let groups = bundling.assignment();
        let raw: Vec<usize> = self.group_of.iter().map(|&g| groups[g as usize]).collect();
        Bundling::new(raw, bundling.n_bundles())
    }

    /// The raw-market entries equivalent to group-level `entries`: one
    /// per run of each entry's group, weighted by the run length times
    /// the entry's multiplicity.
    fn raw_entries(
        &self,
        entries: impl Iterator<Item = WeightedEntry>,
    ) -> Result<Vec<WeightedEntry>> {
        let mut raw = Vec::with_capacity(self.runs.len());
        for e in entries {
            let (lo, hi) = (self.run_start[e.flow], self.run_start[e.flow + 1]);
            for &(flow, count) in &self.runs[lo as usize..hi as usize] {
                let multiplicity =
                    count
                        .checked_mul(e.multiplicity)
                        .ok_or(TransitError::InvalidBundling {
                            reason: "weighted entry multiplicity overflows u64",
                        })?;
                raw.push(WeightedEntry {
                    flow: flow as usize,
                    bundle: e.bundle,
                    multiplicity,
                });
            }
        }
        Ok(raw)
    }
}

impl<M: TransitMarket> TransitMarket for CoalescedMarket<M> {
    fn demand_family(&self) -> DemandFamily {
        self.inner.demand_family()
    }

    fn n_flows(&self) -> usize {
        self.groups.len()
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
        self.inner.blended_rate()
    }

    fn potential_profits(&self) -> &[f64] {
        &self.potential
    }

    fn score_terms(&self) -> &ScoreTerms {
        &self.terms
    }

    fn flow_multiplicities(&self) -> Option<&[u64]> {
        Some(&self.multiplicities)
    }

    fn bundle_prices(&self, bundling: &Bundling) -> Result<Vec<Option<f64>>> {
        check_bundling(bundling, self.n_groups())?;
        let raw = self.raw_entries(unit_entries(bundling))?;
        self.inner
            .weighted_bundle_prices(&raw, bundling.n_bundles())
    }

    fn profit(&self, bundling: &Bundling) -> Result<f64> {
        check_bundling(bundling, self.n_groups())?;
        let raw = self.raw_entries(unit_entries(bundling))?;
        self.inner.weighted_profit(&raw, bundling.n_bundles())
    }

    fn weighted_bundle_prices(
        &self,
        entries: &[WeightedEntry],
        n_bundles: usize,
    ) -> Result<Vec<Option<f64>>> {
        check_entries(entries, self.n_groups(), n_bundles)?;
        let raw = self.raw_entries(entries.iter().copied())?;
        self.inner.weighted_bundle_prices(&raw, n_bundles)
    }

    fn weighted_profit(&self, entries: &[WeightedEntry], n_bundles: usize) -> Result<f64> {
        check_entries(entries, self.n_groups(), n_bundles)?;
        let raw = self.raw_entries(entries.iter().copied())?;
        self.inner.weighted_profit(&raw, n_bundles)
    }

    fn original_profit(&self) -> f64 {
        self.inner.original_profit()
    }

    fn max_profit(&self) -> f64 {
        self.inner.max_profit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundling::StrategyKind;
    use crate::capture::capture_curve;
    use crate::cost::LinearCost;
    use crate::demand::ced::CedAlpha;
    use crate::fitting::fit_ced;
    use crate::flow::TrafficFlow;
    use crate::market::CedMarket;

    /// (demand, distance) pairs with exact duplicates.
    fn duplicated_flows() -> Vec<TrafficFlow> {
        let base = [
            (120.0, 5.0),
            (40.0, 60.0),
            (8.0, 300.0),
            (2.0, 1500.0),
            (15.0, 30.0),
        ];
        let mut flows = Vec::new();
        for rep in 0..4 {
            for (j, &(q, d)) in base.iter().enumerate() {
                flows.push(TrafficFlow::new((rep * base.len() + j) as u32, q, d));
            }
        }
        flows
    }

    fn ced(flows: &[TrafficFlow]) -> CedMarket {
        let fit = fit_ced(
            flows,
            &LinearCost::new(0.2).unwrap(),
            CedAlpha::new(1.1).unwrap(),
            20.0,
        )
        .unwrap();
        CedMarket::new(fit).unwrap()
    }

    #[test]
    fn duplicates_collapse_to_distinct_pairs() {
        let m = ced(&duplicated_flows());
        let cm = CoalescedMarket::new(m).unwrap();
        assert_eq!(cm.n_raw_flows(), 20);
        assert_eq!(cm.n_groups(), 5);
        assert_eq!(cm.coalesce_ratio(), 4.0);
        assert!(cm.flow_multiplicities().unwrap().iter().all(|&w| w == 4));
    }

    #[test]
    fn group_order_is_first_occurrence_and_members_ascend() {
        let m = ced(&duplicated_flows());
        let cm = CoalescedMarket::new(m).unwrap();
        for (g, members) in cm.groups().iter().enumerate() {
            assert_eq!(members[0] as usize % 5, g);
            assert!(members.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn aggregates_are_member_sums_and_representatives_match() {
        let m = ced(&duplicated_flows());
        let raw_terms = m.score_terms().clone();
        let cm = CoalescedMarket::new(m).unwrap();
        for (g, members) in cm.groups().iter().enumerate() {
            let first = members[0] as usize;
            assert_eq!(
                cm.valuations()[g].to_bits(),
                cm.inner().valuations()[first].to_bits()
            );
            assert_eq!(cm.costs()[g].to_bits(), cm.inner().costs()[first].to_bits());
            let sum_a: f64 = members
                .iter()
                .fold(0.0, |s, &i| s + raw_terms.a[i as usize]);
            assert_eq!(cm.score_terms().a[g].to_bits(), sum_a.to_bits());
        }
    }

    #[test]
    fn grouped_profit_is_bitwise_raw_profit() {
        let m = ced(&duplicated_flows());
        let cm = CoalescedMarket::new(m).unwrap();
        // Arbitrary group-level partition, including an empty bundle.
        let gb = Bundling::new(vec![0, 0, 2, 2, 0], 3).unwrap();
        let expanded = cm.expand(&gb).unwrap();
        assert_eq!(
            cm.profit(&gb).unwrap().to_bits(),
            cm.inner().profit(&expanded).unwrap().to_bits()
        );
        assert_eq!(
            cm.original_profit().to_bits(),
            cm.inner().original_profit().to_bits()
        );
        assert_eq!(cm.max_profit().to_bits(), cm.inner().max_profit().to_bits());
    }

    #[test]
    fn epsilon_groups_evaluate_every_distinct_pair_bitwise() {
        let mut flows = duplicated_flows();
        flows[5] = TrafficFlow::new(5, 120.0000001, 5.0);
        flows[11] = TrafficFlow::new(11, 40.0000001, 60.0);
        let cm = CoalescedMarket::with_epsilon(ced(&flows), 1.0).unwrap();
        // Groups merge the perturbed flows, but runs keep every distinct
        // pair: 5 groups, 7 runs.
        assert_eq!(cm.n_groups(), 5);
        assert_eq!(cm.runs.len(), 7);
        for gb in [
            Bundling::single(5).unwrap(),
            Bundling::new(vec![0, 1, 0, 1, 2], 4).unwrap(),
        ] {
            let expanded = cm.expand(&gb).unwrap();
            assert_eq!(
                cm.profit(&gb).unwrap().to_bits(),
                cm.inner().profit(&expanded).unwrap().to_bits()
            );
            let grouped = cm.bundle_prices(&gb).unwrap();
            let raw = cm.inner().bundle_prices(&expanded).unwrap();
            let bits =
                |p: &[Option<f64>]| p.iter().map(|x| x.map(f64::to_bits)).collect::<Vec<_>>();
            assert_eq!(bits(&grouped), bits(&raw));
        }
    }

    #[test]
    fn weighted_entries_nest_through_a_coalesced_inner_market() {
        let cm = CoalescedMarket::new(ced(&duplicated_flows())).unwrap();
        let gb = Bundling::new(vec![0, 1, 1, 0, 1], 2).unwrap();
        let nested = CoalescedMarket::new(cm.clone()).unwrap();
        assert_eq!(nested.n_groups(), 5);
        assert_eq!(
            nested.profit(&gb).unwrap().to_bits(),
            cm.profit(&gb).unwrap().to_bits()
        );
    }

    #[test]
    fn capture_curve_runs_over_groups() {
        let m = ced(&duplicated_flows());
        let cm = CoalescedMarket::new(m).unwrap();
        let strategy = StrategyKind::Optimal.build();
        let curve = capture_curve(&cm, strategy.as_ref(), 4).unwrap();
        assert_eq!(curve.capture.len(), 4);
        // One tier is the status quo; more tiers never lose capture.
        assert!(curve.capture[0].abs() < 1e-9);
        for w in curve.capture.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }

    #[test]
    fn duplicate_free_market_coalesces_to_noop() {
        let flows: Vec<TrafficFlow> = (0..8)
            .map(|i| TrafficFlow::new(i, 5.0 + i as f64, 50.0 + 25.0 * i as f64))
            .collect();
        let m = ced(&flows);
        let cm = CoalescedMarket::new(m).unwrap();
        assert_eq!(cm.n_groups(), cm.n_raw_flows());
        let dp = StrategyKind::Optimal.build();
        let on_raw = dp.bundle(cm.inner(), 3).unwrap();
        let on_groups = dp.bundle(&cm, 3).unwrap();
        assert_eq!(
            cm.expand(&on_groups).unwrap().assignment(),
            on_raw.assignment()
        );
    }

    #[test]
    fn epsilon_merges_near_equal_pairs() {
        let mut flows = duplicated_flows();
        // Perturb one duplicate slightly: distinct at eps=0, merged at a
        // coarse quantization.
        flows[5] = TrafficFlow::new(5, 120.0000001, 5.0);
        let m = ced(&flows);
        let exact = CoalescedMarket::new(ced(&flows)).unwrap();
        assert_eq!(exact.n_groups(), 6);
        let coarse = CoalescedMarket::with_epsilon(m, 1.0).unwrap();
        assert!(coarse.n_groups() < 6);
    }

    #[test]
    fn rejects_bad_epsilon_and_mismatched_bundling() {
        let m = ced(&duplicated_flows());
        assert!(CoalescedMarket::with_epsilon(ced(&duplicated_flows()), -1.0).is_err());
        assert!(CoalescedMarket::with_epsilon(ced(&duplicated_flows()), f64::NAN).is_err());
        let cm = CoalescedMarket::new(m).unwrap();
        let wrong = Bundling::new(vec![0, 1], 2).unwrap();
        assert!(cm.expand(&wrong).is_err());
        assert!(cm.profit(&wrong).is_err());
    }
}
