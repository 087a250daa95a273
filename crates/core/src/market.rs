//! The fitted transit market: one interface over both demand models.
//!
//! [`TransitMarket`] is what bundling strategies and the profit-capture
//! evaluator operate on. It exposes the fitted primitives (demands, costs,
//! valuations), computes profit under any [`Bundling`], and — crucial for
//! tractable optimal bundling — exposes an **additive bundle score**:
//!
//! * **CED**: demands are separable, so total profit is literally the sum
//!   of per-bundle profits. With `A = Σ v_i^alpha` and `C = Σ c_i
//!   v_i^alpha` over a bundle's members, the optimally-priced bundle earns
//!   `A/alpha · (alpha·C/((alpha−1)A))^(1−alpha)` — a function of the two
//!   member sums only.
//! * **Logit**: maximum total profit is a monotone increasing function of
//!   `W = Σ_bundles e^{alpha(v_b − c_b)}` (see [`crate::pricing::logit`]),
//!   and each bundle's contribution `e^{alpha(v_b − c_b)} =
//!   (Σ e^{alpha v_i}) · e^{−alpha·c_b}` is again a function of two member
//!   sums (`Σ e^{alpha v_i}` and `Σ c_i e^{alpha v_i}`).
//!
//! So for both models, maximizing the *sum of per-bundle scores* over
//! partitions maximizes profit, and a score is computable in O(1) from two
//! running sums ([`ScoreTerms`]). The paper brute-forced this search; the
//! reduction makes the dynamic-programming "Optimal" strategy exact along
//! any flow ordering and cheap. Logit scores are internally rescaled by a
//! constant factor (`e^{−max alpha·v}`‑style offset) to avoid overflow;
//! only comparisons between partition sums are meaningful.

use std::sync::OnceLock;

use crate::bundling::Bundling;
use crate::demand::ced::{self, CedAlpha};
use crate::demand::logit::{self, LogitAlpha};
use crate::demand::DemandFamily;
use crate::error::{check_positive, Result, TransitError};
use crate::exact::ExactSum;
use crate::fitting::{CedFit, LogitFit};
use crate::pricing::logit as logit_pricing;

/// Per-flow terms enabling O(1) incremental bundle scoring.
///
/// A bundle's score is [`ScoreTerms::score`] applied to the sums of `a[i]`
/// and `b[i]` over its members. Obtained from
/// [`TransitMarket::score_terms`].
#[derive(Debug, Clone)]
pub struct ScoreTerms {
    /// First per-flow term (`v^alpha` for CED, scaled `e^{alpha v}` for
    /// logit).
    pub a: Vec<f64>,
    /// Second per-flow term (`c·v^alpha` for CED, scaled `c·e^{alpha v}`
    /// for logit).
    pub b: Vec<f64>,
    kind: ScoreKind,
}

#[derive(Debug, Clone, Copy)]
enum ScoreKind {
    Ced { alpha: f64 },
    Logit { alpha: f64 },
}

impl ScoreTerms {
    /// Builds CED score terms directly (`a = v^alpha`, `b = c·v^alpha`).
    /// Primarily for tests and mock markets; fitted markets derive their
    /// terms internally.
    pub fn ced(a: Vec<f64>, b: Vec<f64>, alpha: f64) -> ScoreTerms {
        ScoreTerms {
            a,
            b,
            kind: ScoreKind::Ced { alpha },
        }
    }

    /// Builds logit score terms directly (`a = e^{alpha v}` rescaled,
    /// `b = c·a`). Primarily for tests and mock markets.
    pub fn logit(a: Vec<f64>, b: Vec<f64>, alpha: f64) -> ScoreTerms {
        ScoreTerms {
            a,
            b,
            kind: ScoreKind::Logit { alpha },
        }
    }

    /// Score of a bundle whose member sums are `sum_a` and `sum_b`.
    ///
    /// Additive across bundles; maximizing the partition total maximizes
    /// market profit. An empty bundle (zero sums) scores 0.
    pub fn score(&self, sum_a: f64, sum_b: f64) -> f64 {
        if sum_a <= 0.0 {
            return 0.0;
        }
        match self.kind {
            ScoreKind::Ced { alpha } => {
                // Optimal-priced bundle profit from (A, C).
                let p = alpha * sum_b / ((alpha - 1.0) * sum_a);
                sum_a / alpha * p.powf(1.0 - alpha)
            }
            ScoreKind::Logit { alpha } => {
                // e^{alpha(v_b - c_b)} up to the constant rescaling baked
                // into the terms: A · e^{-alpha·(B/A)}.
                sum_a * (-alpha * (sum_b / sum_a)).exp()
            }
        }
    }

    /// Collapses per-flow terms into per-group terms by summing members
    /// (the bundle-aggregation identities are member sums, so a group of
    /// flows scores exactly like the flows themselves). Members are added
    /// sequentially in the given order, so a singleton group's terms are
    /// bitwise its flow's terms. Used by
    /// [`CoalescedMarket`](crate::coalesce::CoalescedMarket).
    pub fn grouped(&self, groups: &[Vec<u32>]) -> ScoreTerms {
        let mut a = Vec::with_capacity(groups.len());
        let mut b = Vec::with_capacity(groups.len());
        for members in groups {
            let mut sa = 0.0;
            let mut sb = 0.0;
            for &i in members {
                sa += self.a[i as usize];
                sb += self.b[i as usize];
            }
            a.push(sa);
            b.push(sb);
        }
        ScoreTerms {
            a,
            b,
            kind: self.kind,
        }
    }

    /// Score of an explicit member set (O(members)).
    pub fn score_of(&self, members: &[usize]) -> f64 {
        let mut sa = 0.0;
        let mut sb = 0.0;
        for &i in members {
            sa += self.a[i];
            sb += self.b[i];
        }
        self.score(sa, sb)
    }
}

/// A fitted market: the object bundling strategies optimize against.
pub trait TransitMarket: Send + Sync {
    /// Which demand family this market uses.
    fn demand_family(&self) -> DemandFamily;

    /// Number of flows.
    fn n_flows(&self) -> usize;

    /// Observed demands `q_i` at the blended rate (Mbps).
    fn demands(&self) -> &[f64];

    /// Fitted valuations `v_i`.
    fn valuations(&self) -> &[f64];

    /// Fitted absolute unit costs `c_i`.
    fn costs(&self) -> &[f64];

    /// The blended rate `P0` the market was fitted at.
    fn blended_rate(&self) -> f64;

    /// Potential profit of each flow if priced alone (Eq. 12 for CED;
    /// proportional to demand for logit, Eq. 13). Used as profit-weighted
    /// bundling weights; only relative magnitudes matter. Computed once
    /// per market instance and cached.
    fn potential_profits(&self) -> &[f64];

    /// Per-flow terms for O(1) additive bundle scoring (see module docs).
    /// Computed once per market instance and cached.
    fn score_terms(&self) -> &ScoreTerms;

    /// Profit-maximizing price of each bundle under `bundling`; `None` for
    /// empty bundles.
    fn bundle_prices(&self, bundling: &Bundling) -> Result<Vec<Option<f64>>>;

    /// Total market profit when flows are bundled per `bundling` and each
    /// bundle is priced optimally.
    ///
    /// The fitted markets take every sum over flows (bundle aggregates,
    /// logit shares, the profit itself) with an [`ExactSum`]: the result
    /// is the correctly rounded exact sum of per-flow terms, independent
    /// of flow order. Flows with bitwise-equal `(v, c)` have bitwise-equal
    /// terms, so a [`CoalescedMarket`](crate::coalesce::CoalescedMarket)
    /// evaluates each group once, weighted by its size, and still equals
    /// this method on the expanded bundling bit for bit.
    fn profit(&self, bundling: &Bundling) -> Result<f64>;

    /// [`bundle_prices`](Self::bundle_prices) over `n_bundles` bundles of
    /// weighted entries: entry `e` places `e.multiplicity` copies of flow
    /// `e.flow` in bundle `e.bundle`. Equals `bundle_prices` on the market
    /// in which every entry's flow is repeated that many times.
    fn weighted_bundle_prices(
        &self,
        entries: &[WeightedEntry],
        n_bundles: usize,
    ) -> Result<Vec<Option<f64>>>;

    /// [`profit`](Self::profit) over weighted entries (see
    /// [`weighted_bundle_prices`](Self::weighted_bundle_prices)).
    fn weighted_profit(&self, entries: &[WeightedEntry], n_bundles: usize) -> Result<f64>;

    /// Profit at the status quo: the single blended rate `P0`.
    fn original_profit(&self) -> f64;

    /// Profit ceiling: every flow priced individually ("infinite tiers").
    fn max_profit(&self) -> f64;

    /// Additive bundle score of a member set (see module docs).
    fn bundle_score(&self, members: &[usize]) -> f64 {
        self.score_terms().score_of(members)
    }

    /// How many raw flows each entry stands for, when this market is a
    /// coalesced view ([`CoalescedMarket`](crate::coalesce::CoalescedMarket)).
    /// `None` (the default) means every flow counts once. Count-sensitive
    /// heuristics (per-flow weights, rank splits) consult this so group
    /// weights reflect group size.
    fn flow_multiplicities(&self) -> Option<&[u64]> {
        None
    }
}

pub(crate) fn check_bundling(bundling: &Bundling, n_flows: usize) -> Result<()> {
    if bundling.n_flows() != n_flows {
        return Err(TransitError::InvalidBundling {
            reason: "bundling flow count does not match market",
        });
    }
    Ok(())
}

/// One entry of a weighted evaluation: `multiplicity` copies of flow
/// `flow`, all in bundle `bundle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightedEntry {
    /// Flow index in the evaluating market.
    pub flow: usize,
    /// Bundle the copies belong to.
    pub bundle: usize,
    /// Number of copies (at least 1).
    pub multiplicity: u64,
}

/// A bundling as weighted entries: every flow once, in its assigned bundle.
pub(crate) fn unit_entries(
    bundling: &Bundling,
) -> impl Iterator<Item = WeightedEntry> + Clone + '_ {
    bundling
        .assignment()
        .iter()
        .enumerate()
        .map(|(flow, &bundle)| WeightedEntry {
            flow,
            bundle,
            multiplicity: 1,
        })
}

/// Validates weighted entries against a market of `n_flows` flows.
pub(crate) fn check_entries(
    entries: &[WeightedEntry],
    n_flows: usize,
    n_bundles: usize,
) -> Result<()> {
    if n_bundles == 0 {
        return Err(TransitError::ZeroBundles);
    }
    if entries.is_empty() {
        return Err(TransitError::EmptyFlowSet);
    }
    if entries
        .iter()
        .any(|e| e.flow >= n_flows || e.bundle >= n_bundles || e.multiplicity == 0)
    {
        return Err(TransitError::InvalidBundling {
            reason: "weighted entries need a market flow, a bundle below n_bundles, \
                     and a positive multiplicity",
        });
    }
    Ok(())
}

/// `ln Σ m·e^x` over weighted exponents, shifted by the largest one and
/// summed exactly.
fn log_sum_exp_weighted(terms: impl Iterator<Item = (f64, u64)> + Clone) -> f64 {
    let shift = terms.clone().fold(f64::NEG_INFINITY, |m, (x, _)| m.max(x));
    let mut sum = ExactSum::new();
    for (x, m) in terms {
        sum.add_scaled((x - shift).exp(), m);
    }
    shift + sum.value().ln()
}

/// Per-instance memo of derived evaluation artifacts.
///
/// `OnceLock` keeps the first computed value for the instance's
/// lifetime; clones carry any already-computed values along (the fit is
/// immutable, so they stay valid).
#[derive(Debug, Clone, Default)]
struct EvalCache {
    terms: OnceLock<ScoreTerms>,
    potential: OnceLock<Vec<f64>>,
}

/// CED market (separable demand).
#[derive(Debug, Clone)]
pub struct CedMarket {
    fit: CedFit,
    original_profit: f64,
    max_profit: f64,
    cache: EvalCache,
}

impl CedMarket {
    /// Wraps a [`CedFit`], precomputing the status-quo and ceiling profits.
    pub fn new(fit: CedFit) -> Result<CedMarket> {
        let n = fit.valuations.len();
        let p0 = vec![fit.p0; n];
        let original_profit = ced::total_profit(&fit.valuations, &p0, &fit.costs, fit.alpha)?;
        let mut max_profit = 0.0;
        for (&v, &c) in fit.valuations.iter().zip(&fit.costs) {
            max_profit += ced::potential_profit(v, c, fit.alpha)?;
        }
        Ok(CedMarket {
            fit,
            original_profit,
            max_profit,
            cache: EvalCache::default(),
        })
    }

    /// The underlying fit.
    pub fn fit(&self) -> &CedFit {
        &self.fit
    }

    /// The price-sensitivity parameter.
    pub fn alpha(&self) -> CedAlpha {
        self.fit.alpha
    }

    /// Recomputes the score terms from scratch, bypassing the cache.
    /// Exists so tests can verify the cached path against a fresh
    /// computation.
    pub fn score_terms_uncached(&self) -> ScoreTerms {
        let alpha = self.fit.alpha.get();
        let a: Vec<f64> = self.fit.valuations.iter().map(|&v| v.powf(alpha)).collect();
        let b: Vec<f64> = a
            .iter()
            .zip(&self.fit.costs)
            .map(|(&ai, &c)| ai * c)
            .collect();
        ScoreTerms {
            a,
            b,
            kind: ScoreKind::Ced { alpha },
        }
    }

    /// Recomputes potential profits from scratch, bypassing the cache.
    pub fn potential_profits_uncached(&self) -> Vec<f64> {
        self.fit
            .valuations
            .iter()
            .zip(&self.fit.costs)
            .map(|(&v, &c)| {
                ced::potential_profit(v, c, self.fit.alpha).expect("fitted values are positive")
            })
            .collect()
    }

    /// Optimal price of each bundle (Eq. 5) from exactly summed
    /// `Σ c·v^alpha` and `Σ v^alpha`; `None` for bundles without entries.
    fn prices_of(
        &self,
        entries: impl Iterator<Item = WeightedEntry>,
        n_bundles: usize,
    ) -> Result<Vec<Option<f64>>> {
        let a = self.fit.alpha.get();
        let mut sums: Vec<Option<[ExactSum; 2]>> = vec![None; n_bundles];
        for e in entries {
            let v = check_positive("valuation", self.fit.valuations[e.flow])?;
            let c = check_positive("cost", self.fit.costs[e.flow])?;
            let w = v.powf(a);
            let [num, den] = sums[e.bundle].get_or_insert_with(Default::default);
            num.add_scaled(c * w, e.multiplicity);
            den.add_scaled(w, e.multiplicity);
        }
        Ok(sums
            .iter()
            .map(|s| {
                s.as_ref()
                    .map(|[num, den]| a * num.value() / ((a - 1.0) * den.value()))
            })
            .collect())
    }

    /// Total profit (Eq. 3) at the optimal bundle prices, summed exactly.
    fn profit_of(
        &self,
        entries: impl Iterator<Item = WeightedEntry> + Clone,
        n_bundles: usize,
    ) -> Result<f64> {
        let prices = self.prices_of(entries.clone(), n_bundles)?;
        let mut total = ExactSum::new();
        for e in entries {
            let p = prices[e.bundle].expect("an entry's bundle has a price");
            let pi = ced::flow_profit(
                self.fit.valuations[e.flow],
                p,
                self.fit.costs[e.flow],
                self.fit.alpha,
            )?;
            total.add_scaled(pi, e.multiplicity);
        }
        Ok(total.value())
    }
}

impl TransitMarket for CedMarket {
    fn demand_family(&self) -> DemandFamily {
        DemandFamily::Ced
    }

    fn n_flows(&self) -> usize {
        self.fit.valuations.len()
    }

    fn demands(&self) -> &[f64] {
        &self.fit.demands
    }

    fn valuations(&self) -> &[f64] {
        &self.fit.valuations
    }

    fn costs(&self) -> &[f64] {
        &self.fit.costs
    }

    fn blended_rate(&self) -> f64 {
        self.fit.p0
    }

    fn potential_profits(&self) -> &[f64] {
        self.cache
            .potential
            .get_or_init(|| self.potential_profits_uncached())
    }

    fn score_terms(&self) -> &ScoreTerms {
        self.cache.terms.get_or_init(|| self.score_terms_uncached())
    }

    fn bundle_prices(&self, bundling: &Bundling) -> Result<Vec<Option<f64>>> {
        check_bundling(bundling, self.n_flows())?;
        self.prices_of(unit_entries(bundling), bundling.n_bundles())
    }

    fn profit(&self, bundling: &Bundling) -> Result<f64> {
        check_bundling(bundling, self.n_flows())?;
        self.profit_of(unit_entries(bundling), bundling.n_bundles())
    }

    fn weighted_bundle_prices(
        &self,
        entries: &[WeightedEntry],
        n_bundles: usize,
    ) -> Result<Vec<Option<f64>>> {
        check_entries(entries, self.n_flows(), n_bundles)?;
        self.prices_of(entries.iter().copied(), n_bundles)
    }

    fn weighted_profit(&self, entries: &[WeightedEntry], n_bundles: usize) -> Result<f64> {
        check_entries(entries, self.n_flows(), n_bundles)?;
        self.profit_of(entries.iter().copied(), n_bundles)
    }

    fn original_profit(&self) -> f64 {
        self.original_profit
    }

    fn max_profit(&self) -> f64 {
        self.max_profit
    }
}

/// Logit market (discrete choice with an outside option).
#[derive(Debug, Clone)]
pub struct LogitMarket {
    fit: LogitFit,
    original_profit: f64,
    max_profit: f64,
    cache: EvalCache,
}

impl LogitMarket {
    /// Wraps a [`LogitFit`], precomputing the status-quo and ceiling
    /// profits.
    pub fn new(fit: LogitFit) -> Result<LogitMarket> {
        let n = fit.valuations.len();
        let p0 = vec![fit.p0; n];
        let original_profit =
            logit::total_profit(&fit.valuations, &p0, &fit.costs, fit.alpha, fit.consumers)?;
        let opt = logit_pricing::optimal_prices(&fit.valuations, &fit.costs, fit.alpha)?;
        let max_profit = fit.consumers * opt.profit_per_consumer;
        Ok(LogitMarket {
            fit,
            original_profit,
            max_profit,
            cache: EvalCache::default(),
        })
    }

    /// Recomputes the score terms from scratch, bypassing the cache.
    /// Exists so tests can verify the cached path against a fresh
    /// computation.
    pub fn score_terms_uncached(&self) -> ScoreTerms {
        let alpha = self.fit.alpha.get();
        // Rescale by e^{-alpha·max v} so terms stay in (0, 1]; partition
        // sums remain comparable (common factor) and cannot overflow.
        let max_v = self
            .fit
            .valuations
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let a: Vec<f64> = self
            .fit
            .valuations
            .iter()
            .map(|&v| (alpha * (v - max_v)).exp())
            .collect();
        let b: Vec<f64> = a
            .iter()
            .zip(&self.fit.costs)
            .map(|(&ai, &c)| ai * c)
            .collect();
        ScoreTerms {
            a,
            b,
            kind: ScoreKind::Logit { alpha },
        }
    }

    /// Recomputes potential profits from scratch, bypassing the cache.
    pub fn potential_profits_uncached(&self) -> Vec<f64> {
        // Eq. 13: potential profit is proportional to observed demand, so
        // the demands themselves serve as weights.
        self.fit.demands.clone()
    }

    /// The underlying fit.
    pub fn fit(&self) -> &LogitFit {
        &self.fit
    }

    /// The price-sensitivity parameter.
    pub fn alpha(&self) -> LogitAlpha {
        self.fit.alpha
    }

    /// Consumer population `K`.
    pub fn consumers(&self) -> f64 {
        self.fit.consumers
    }

    /// Optimal bundle prices: Eq. 10–11 aggregates from exactly summed
    /// softmax weights, then the uniform optimal markup (Eq. 9) over the
    /// occupied bundles. `None` for bundles without entries.
    fn prices_of(
        &self,
        entries: impl Iterator<Item = WeightedEntry> + Clone,
        n_bundles: usize,
    ) -> Result<Vec<Option<f64>>> {
        let a = self.fit.alpha.get();
        let (vs, cs) = (&self.fit.valuations, &self.fit.costs);
        // Shift each bundle's weights by its largest member valuation.
        let mut shift: Vec<Option<f64>> = vec![None; n_bundles];
        for e in entries.clone() {
            let v = vs[e.flow];
            let m = shift[e.bundle].get_or_insert(v);
            *m = m.max(v);
        }
        // Σ w and Σ c·w with w = e^{alpha(v − shift)}.
        let mut sums = vec![[ExactSum::new(), ExactSum::new()]; n_bundles];
        for e in entries {
            let shift = shift[e.bundle].expect("an entry's bundle is occupied");
            let w = (a * (vs[e.flow] - shift)).exp();
            let [sw, scw] = &mut sums[e.bundle];
            sw.add_scaled(w, e.multiplicity);
            scw.add_scaled(cs[e.flow] * w, e.multiplicity);
        }
        let aggregates: Vec<Option<(f64, f64)>> = shift
            .iter()
            .zip(&sums)
            .map(|(shift, [sw, scw])| {
                shift.map(|m| {
                    let sw = sw.value();
                    (m + sw.ln() / a, scw.value() / sw)
                })
            })
            .collect();
        if aggregates.iter().all(Option::is_none) {
            return Err(TransitError::EmptyFlowSet);
        }
        let ln_w = log_sum_exp_weighted(
            aggregates
                .iter()
                .flatten()
                .map(|&(vb, cb)| (a * (vb - cb), 1)),
        );
        let markup = logit_pricing::optimal_markup(ln_w, self.fit.alpha)?;
        Ok(aggregates
            .iter()
            .map(|agg| agg.map(|(_, cb)| cb + markup))
            .collect())
    }

    /// Total profit (Eq. 8) at the optimal bundle prices: shares (Eq. 6)
    /// against the outside option, with the log-sum-exp and the profit
    /// summed exactly.
    fn profit_of(
        &self,
        entries: impl Iterator<Item = WeightedEntry> + Clone,
        n_bundles: usize,
    ) -> Result<f64> {
        let prices = self.prices_of(entries.clone(), n_bundles)?;
        let consumers = check_positive("consumers", self.fit.consumers)?;
        let a = self.fit.alpha.get();
        let (vs, cs) = (&self.fit.valuations, &self.fit.costs);
        let price = |e: &WeightedEntry| prices[e.bundle].expect("an entry's bundle has a price");
        let exponent = |e: &WeightedEntry| a * (vs[e.flow] - price(e));
        let lse = log_sum_exp_weighted(
            entries
                .clone()
                .map(|e| (exponent(&e), e.multiplicity))
                .chain(std::iter::once((0.0, 1))),
        );
        let mut total = ExactSum::new();
        for e in entries {
            let share = (exponent(&e) - lse).exp();
            total.add_scaled(share * (price(&e) - cs[e.flow]), e.multiplicity);
        }
        Ok(consumers * total.value())
    }
}

impl TransitMarket for LogitMarket {
    fn demand_family(&self) -> DemandFamily {
        DemandFamily::Logit
    }

    fn n_flows(&self) -> usize {
        self.fit.valuations.len()
    }

    fn demands(&self) -> &[f64] {
        &self.fit.demands
    }

    fn valuations(&self) -> &[f64] {
        &self.fit.valuations
    }

    fn costs(&self) -> &[f64] {
        &self.fit.costs
    }

    fn blended_rate(&self) -> f64 {
        self.fit.p0
    }

    fn potential_profits(&self) -> &[f64] {
        self.cache
            .potential
            .get_or_init(|| self.potential_profits_uncached())
    }

    fn score_terms(&self) -> &ScoreTerms {
        self.cache.terms.get_or_init(|| self.score_terms_uncached())
    }

    fn bundle_prices(&self, bundling: &Bundling) -> Result<Vec<Option<f64>>> {
        check_bundling(bundling, self.n_flows())?;
        self.prices_of(unit_entries(bundling), bundling.n_bundles())
    }

    fn profit(&self, bundling: &Bundling) -> Result<f64> {
        check_bundling(bundling, self.n_flows())?;
        self.profit_of(unit_entries(bundling), bundling.n_bundles())
    }

    fn weighted_bundle_prices(
        &self,
        entries: &[WeightedEntry],
        n_bundles: usize,
    ) -> Result<Vec<Option<f64>>> {
        check_entries(entries, self.n_flows(), n_bundles)?;
        self.prices_of(entries.iter().copied(), n_bundles)
    }

    fn weighted_profit(&self, entries: &[WeightedEntry], n_bundles: usize) -> Result<f64> {
        check_entries(entries, self.n_flows(), n_bundles)?;
        self.profit_of(entries.iter().copied(), n_bundles)
    }

    fn original_profit(&self) -> f64 {
        self.original_profit
    }

    fn max_profit(&self) -> f64 {
        self.max_profit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::LinearCost;
    use crate::fitting::{fit_ced, fit_logit};
    use crate::flow::TrafficFlow;

    fn flows() -> Vec<TrafficFlow> {
        vec![
            TrafficFlow::new(0, 120.0, 5.0),
            TrafficFlow::new(1, 40.0, 60.0),
            TrafficFlow::new(2, 8.0, 300.0),
            TrafficFlow::new(3, 2.0, 1500.0),
            TrafficFlow::new(4, 15.0, 30.0),
        ]
    }

    fn ced_market() -> CedMarket {
        let fit = fit_ced(
            &flows(),
            &LinearCost::new(0.2).unwrap(),
            CedAlpha::new(1.1).unwrap(),
            20.0,
        )
        .unwrap();
        CedMarket::new(fit).unwrap()
    }

    fn logit_market() -> LogitMarket {
        let fit = fit_logit(
            &flows(),
            &LinearCost::new(0.2).unwrap(),
            LogitAlpha::new(1.1).unwrap(),
            20.0,
            0.2,
        )
        .unwrap();
        LogitMarket::new(fit).unwrap()
    }

    fn markets() -> Vec<Box<dyn TransitMarket>> {
        vec![Box::new(ced_market()), Box::new(logit_market())]
    }

    #[test]
    fn single_bundle_profit_equals_original_profit() {
        // gamma calibration makes P0 the optimal single-bundle price, so
        // re-optimizing one bundle reproduces the status quo exactly.
        for m in markets() {
            let single = Bundling::single(m.n_flows()).unwrap();
            let pi = m.profit(&single).unwrap();
            assert!(
                (pi - m.original_profit()).abs() / m.original_profit() < 1e-8,
                "{:?}: {} vs {}",
                m.demand_family(),
                pi,
                m.original_profit()
            );
        }
    }

    #[test]
    fn per_flow_bundling_attains_max_profit() {
        for m in markets() {
            let per_flow = Bundling::per_flow(m.n_flows()).unwrap();
            let pi = m.profit(&per_flow).unwrap();
            assert!(
                (pi - m.max_profit()).abs() / m.max_profit() < 1e-8,
                "{:?}: {} vs {}",
                m.demand_family(),
                pi,
                m.max_profit()
            );
        }
    }

    #[test]
    fn max_profit_exceeds_original() {
        for m in markets() {
            assert!(m.max_profit() > m.original_profit());
        }
    }

    #[test]
    fn intermediate_bundling_profit_is_between() {
        for m in markets() {
            let b = Bundling::new(vec![0, 0, 1, 1, 0], 2).unwrap();
            let pi = m.profit(&b).unwrap();
            assert!(pi <= m.max_profit() + 1e-9);
            // Any optimally-priced refinement of the single bundle earns at
            // least the blended profit... not guaranteed for arbitrary
            // partitions in general, but holds here; the hard invariant is
            // the ceiling.
            assert!(pi.is_finite());
        }
    }

    #[test]
    fn score_sums_rank_partitions_like_profit() {
        // The additivity theorem: for any two partitions, the one with the
        // larger score total has the larger optimal profit.
        for m in markets() {
            let terms = m.score_terms();
            let partitions = [
                Bundling::new(vec![0, 0, 1, 1, 0], 2).unwrap(),
                Bundling::new(vec![0, 1, 0, 1, 1], 2).unwrap(),
                Bundling::new(vec![0, 1, 1, 1, 0], 2).unwrap(),
                Bundling::new(vec![0, 0, 0, 1, 1], 2).unwrap(),
                Bundling::new(vec![0, 1, 2, 2, 1], 3).unwrap(),
            ];
            let mut scored: Vec<(f64, f64)> = partitions
                .iter()
                .map(|b| {
                    let score: f64 = b.members().iter().map(|ms| terms.score_of(ms)).sum();
                    let profit = m.profit(b).unwrap();
                    (score, profit)
                })
                .collect();
            scored.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
            for w in scored.windows(2) {
                assert!(
                    w[0].1 <= w[1].1 + 1e-9,
                    "{:?}: score order violated profit order: {:?}",
                    m.demand_family(),
                    w
                );
            }
        }
    }

    #[test]
    fn ced_bundle_score_is_actual_bundle_profit() {
        let m = ced_market();
        let b = Bundling::new(vec![0, 0, 1, 1, 1], 2).unwrap();
        let total_score: f64 = b.members().iter().map(|ms| m.bundle_score(ms)).sum();
        let profit = m.profit(&b).unwrap();
        assert!((total_score - profit).abs() / profit < 1e-9);
    }

    #[test]
    fn bundle_prices_mark_empty_bundles_none() {
        for m in markets() {
            // Bundle 1 of 3 left empty.
            let b = Bundling::new(vec![0, 0, 2, 2, 2], 3).unwrap();
            let prices = m.bundle_prices(&b).unwrap();
            assert!(prices[0].is_some());
            assert!(prices[1].is_none());
            assert!(prices[2].is_some());
        }
    }

    #[test]
    fn ced_bundle_prices_exceed_weighted_cost() {
        let m = ced_market();
        let b = Bundling::new(vec![0, 0, 1, 1, 0], 2).unwrap();
        for (price, members) in m.bundle_prices(&b).unwrap().iter().zip(b.members()) {
            let p = price.unwrap();
            let min_c = members
                .iter()
                .map(|&i| m.costs()[i])
                .fold(f64::INFINITY, f64::min);
            assert!(p > min_c);
        }
    }

    #[test]
    fn logit_bundle_prices_share_uniform_markup() {
        let m = logit_market();
        let b = Bundling::new(vec![0, 1, 1, 2, 2], 3).unwrap();
        let prices = m.bundle_prices(&b).unwrap();
        // Reconstruct each bundle's cost and check price - cost is common.
        let mut markups = Vec::new();
        for (price, members) in prices.iter().zip(b.members()) {
            let p = price.unwrap();
            let vs: Vec<f64> = members.iter().map(|&i| m.valuations()[i]).collect();
            let cs: Vec<f64> = members.iter().map(|&i| m.costs()[i]).collect();
            let cb = logit::bundle_cost(&vs, &cs, m.alpha()).unwrap();
            markups.push(p - cb);
        }
        for w in markups.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-9, "markups differ: {markups:?}");
        }
    }

    #[test]
    fn profit_rejects_mismatched_bundling() {
        for m in markets() {
            let b = Bundling::new(vec![0, 1], 2).unwrap();
            assert!(m.profit(&b).is_err());
            assert!(m.bundle_prices(&b).is_err());
        }
    }

    #[test]
    fn weighted_entries_equal_repeated_flows() {
        for m in markets() {
            // Flow 0 twice and flow 3 three times, against a market that
            // holds those copies as distinct flows.
            let entries = [
                WeightedEntry {
                    flow: 0,
                    bundle: 0,
                    multiplicity: 2,
                },
                WeightedEntry {
                    flow: 3,
                    bundle: 1,
                    multiplicity: 3,
                },
                WeightedEntry {
                    flow: 1,
                    bundle: 1,
                    multiplicity: 1,
                },
            ];
            let (vs, cs, qs) = (m.valuations(), m.costs(), m.demands());
            let copies = [0, 0, 3, 3, 3, 1];
            let repeated: Box<dyn TransitMarket> = match m.demand_family() {
                DemandFamily::Ced => {
                    let fit = ced_market().fit().clone();
                    Box::new(
                        CedMarket::new(CedFit {
                            demands: copies.iter().map(|&i| qs[i]).collect(),
                            valuations: copies.iter().map(|&i| vs[i]).collect(),
                            costs: copies.iter().map(|&i| cs[i]).collect(),
                            ..fit
                        })
                        .unwrap(),
                    )
                }
                DemandFamily::Logit => {
                    let fit = logit_market().fit().clone();
                    Box::new(
                        LogitMarket::new(LogitFit {
                            demands: copies.iter().map(|&i| qs[i]).collect(),
                            valuations: copies.iter().map(|&i| vs[i]).collect(),
                            costs: copies.iter().map(|&i| cs[i]).collect(),
                            ..fit
                        })
                        .unwrap(),
                    )
                }
            };
            let b = Bundling::new(vec![0, 0, 1, 1, 1, 1], 3).unwrap();
            assert_eq!(
                m.weighted_profit(&entries, 3).unwrap().to_bits(),
                repeated.profit(&b).unwrap().to_bits()
            );
            let bits = |p: Vec<Option<f64>>| {
                p.into_iter()
                    .map(|x| x.map(f64::to_bits))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                bits(m.weighted_bundle_prices(&entries, 3).unwrap()),
                bits(repeated.bundle_prices(&b).unwrap())
            );
        }
    }

    #[test]
    fn weighted_entries_are_validated() {
        for m in markets() {
            let entry = |flow, bundle, multiplicity| WeightedEntry {
                flow,
                bundle,
                multiplicity,
            };
            assert!(m.weighted_profit(&[], 2).is_err());
            assert!(m.weighted_profit(&[entry(0, 0, 1)], 0).is_err());
            assert!(m.weighted_profit(&[entry(5, 0, 1)], 2).is_err());
            assert!(m.weighted_profit(&[entry(0, 2, 1)], 2).is_err());
            assert!(m.weighted_bundle_prices(&[entry(0, 0, 0)], 2).is_err());
            assert!(m.weighted_profit(&[entry(4, 1, 7)], 2).is_ok());
        }
    }

    #[test]
    fn more_tiers_never_hurt_under_refinement() {
        // Refining a partition (splitting one bundle) weakly increases
        // optimal profit in both models.
        for m in markets() {
            let coarse = Bundling::new(vec![0, 0, 0, 1, 1], 2).unwrap();
            let fine = Bundling::new(vec![0, 0, 2, 1, 1], 3).unwrap();
            let pi_coarse = m.profit(&coarse).unwrap();
            let pi_fine = m.profit(&fine).unwrap();
            assert!(
                pi_fine >= pi_coarse - 1e-9,
                "{:?}: refinement decreased profit",
                m.demand_family()
            );
        }
    }
}
