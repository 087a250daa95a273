//! Extension bundling strategies beyond the paper's six (§4.2.1).
//!
//! Both are cost-ordered contiguous partitioners, motivated by the
//! paper's observation that cost division wastes bundles on empty ranges
//! while index division ignores demand entirely:
//!
//! * [`NaturalBreaks`] — Fisher–Jenks-style 1-D clustering: minimize the
//!   demand-weighted within-bundle *cost variance* by dynamic
//!   programming. A cost-only criterion, but optimal among contiguous
//!   partitions for that criterion (unlike the paper's equal-width cost
//!   division).
//! * [`DemandMassDivision`] — cut the cost-sorted flow sequence at equal
//!   *demand mass* quantiles: each tier carries the same traffic volume.
//!   The demand-aware counterpart of index division.
//!
//! The `ext_strategies` experiment and the `ablation` benches compare
//! them against the paper's strategies; they typically land between
//! cost-weighted and optimal.

use super::{Bundling, BundlingStrategy};
use crate::error::{Result, TransitError};
use crate::market::TransitMarket;

/// Orders flow indices by cost ascending, ties by index.
fn cost_order(costs: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&i, &j| {
        costs[i]
            .partial_cmp(&costs[j])
            .expect("finite costs")
            .then(i.cmp(&j))
    });
    order
}

/// Fisher–Jenks natural breaks on the cost axis, demand-weighted.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaturalBreaks;

impl BundlingStrategy for NaturalBreaks {
    fn name(&self) -> &'static str {
        "natural-breaks"
    }

    fn bundle(&self, market: &dyn TransitMarket, n_bundles: usize) -> Result<Bundling> {
        if n_bundles == 0 {
            return Err(TransitError::ZeroBundles);
        }
        let (order, parent) = jenks_tables(market, n_bundles)?;
        let blocks = n_bundles.min(order.len());
        Bundling::new(jenks_reconstruct(&order, &parent, blocks), n_bundles)
    }

    fn bundle_series(
        &self,
        market: &dyn TransitMarket,
        max_bundles: usize,
    ) -> Result<Vec<Bundling>> {
        if max_bundles == 0 {
            return Ok(Vec::new());
        }
        // One table build at the largest cluster count serves every `B`:
        // DP row `b` depends only on row `b − 1`, so the parents under a
        // larger cap are bitwise identical to a per-`B` build's.
        let (order, parent) = jenks_tables(market, max_bundles)?;
        let n = order.len();
        (1..=max_bundles)
            .map(|b| Bundling::new(jenks_reconstruct(&order, &parent, b.min(n)), b))
            .collect()
    }
}

/// Builds the Fisher–Jenks DP parent table for up to `b_cap` clusters
/// along the cost order. Returns `(order, parent)` where
/// `parent[b*(n+1) + j]` is the split point of the last run covering the
/// first `j` flows in `b` runs. DP values use rolling rows (row `b` reads
/// only row `b − 1`), so memory is O(b_cap·n) for parents plus O(n).
fn jenks_tables(market: &dyn TransitMarket, b_cap: usize) -> Result<(Vec<usize>, Vec<usize>)> {
    let costs = market.costs();
    let demands = market.demands();
    let n = costs.len();
    if n == 0 {
        return Err(TransitError::EmptyFlowSet);
    }
    let order = cost_order(costs);
    let b_cap = b_cap.min(n);

    // Prefix sums of (w, w*c, w*c^2) along the cost order for O(1)
    // weighted SSE of any run.
    let mut pw = vec![0.0; n + 1];
    let mut pwc = vec![0.0; n + 1];
    let mut pwc2 = vec![0.0; n + 1];
    for (pos, &flow) in order.iter().enumerate() {
        let w = demands[flow];
        let c = costs[flow];
        pw[pos + 1] = pw[pos] + w;
        pwc[pos + 1] = pwc[pos] + w * c;
        pwc2[pos + 1] = pwc2[pos] + w * c * c;
    }
    let sse = |from: usize, to: usize| -> f64 {
        let w = pw[to] - pw[from];
        if w <= 0.0 {
            return 0.0;
        }
        let wc = pwc[to] - pwc[from];
        let wc2 = pwc2[to] - pwc2[from];
        (wc2 - wc * wc / w).max(0.0)
    };

    // dp rows roll: prev[j] is min weighted SSE for the first j flows in
    // b−1 runs while filling cur for b runs.
    let w = n + 1;
    let mut prev = vec![f64::INFINITY; w];
    let mut cur = vec![f64::INFINITY; w];
    let mut parent = vec![0usize; (b_cap + 1) * w];
    prev[0] = 0.0;
    for b in 1..=b_cap {
        cur.fill(f64::INFINITY);
        let par = &mut parent[b * w..(b + 1) * w];
        for j in b..=n {
            for (k, &prev_k) in prev.iter().enumerate().take(j).skip(b - 1) {
                if prev_k.is_infinite() {
                    continue;
                }
                let cand = prev_k + sse(k, j);
                if cand < cur[j] {
                    cur[j] = cand;
                    par[j] = k;
                }
            }
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    Ok((order, parent))
}

/// Walks the parent table back from exactly `blocks` runs (more clusters
/// never raise SSE, so the caller always uses all of them).
fn jenks_reconstruct(order: &[usize], parent: &[usize], blocks: usize) -> Vec<usize> {
    let n = order.len();
    let w = n + 1;
    let mut assignment = vec![0usize; n];
    let mut j = n;
    let mut b = blocks;
    while b > 0 {
        let k = parent[b * w + j];
        for pos in k..j {
            assignment[order[pos]] = b - 1;
        }
        j = k;
        b -= 1;
    }
    assignment
}

/// Equal demand-mass cuts along the cost-sorted flow sequence.
#[derive(Debug, Clone, Copy, Default)]
pub struct DemandMassDivision;

impl BundlingStrategy for DemandMassDivision {
    fn name(&self) -> &'static str {
        "demand-mass-division"
    }

    fn bundle(&self, market: &dyn TransitMarket, n_bundles: usize) -> Result<Bundling> {
        if n_bundles == 0 {
            return Err(TransitError::ZeroBundles);
        }
        let costs = market.costs();
        let demands = market.demands();
        let n = costs.len();
        if n == 0 {
            return Err(TransitError::EmptyFlowSet);
        }
        let (mids, total) = demand_mass_midpoints(costs, demands);
        Bundling::new(mass_assignment(&mids, total, n_bundles), n_bundles)
    }

    fn bundle_series(
        &self,
        market: &dyn TransitMarket,
        max_bundles: usize,
    ) -> Result<Vec<Bundling>> {
        if max_bundles == 0 {
            return Ok(Vec::new());
        }
        let costs = market.costs();
        let demands = market.demands();
        if costs.is_empty() {
            return Err(TransitError::EmptyFlowSet);
        }
        // The cost sort and cumulative demand masses are per-market; only
        // the quantile width changes per `B`.
        let (mids, total) = demand_mass_midpoints(costs, demands);
        (1..=max_bundles)
            .map(|b| Bundling::new(mass_assignment(&mids, total, b), b))
            .collect()
    }
}

/// Each flow's demand-mass midpoint along the cost order, plus the total
/// mass. `mids[flow]` = mass strictly before the flow + half its own.
fn demand_mass_midpoints(costs: &[f64], demands: &[f64]) -> (Vec<f64>, f64) {
    let order = cost_order(costs);
    let total: f64 = demands.iter().sum();
    let mut mids = vec![0.0; costs.len()];
    let mut cum = 0.0;
    for &flow in &order {
        mids[flow] = cum + demands[flow] / 2.0;
        cum += demands[flow];
    }
    (mids, total)
}

/// Bundle by demand-mass midpoint — every tier ends up with ~total/B of
/// traffic.
fn mass_assignment(mids: &[f64], total: f64, n_bundles: usize) -> Vec<usize> {
    mids.iter()
        .map(|&mid| (((mid / total) * n_bundles as f64) as usize).min(n_bundles - 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundling::{OptimalDp, StrategyKind};
    use crate::cost::LinearCost;
    use crate::demand::ced::CedAlpha;
    use crate::fitting::fit_ced;
    use crate::flow::TrafficFlow;
    use crate::market::CedMarket;

    fn market() -> CedMarket {
        let flows: Vec<TrafficFlow> = (0..40)
            .map(|i| {
                let x = (i as f64 * 0.73).sin().abs() + 0.02;
                TrafficFlow::new(i, 1.0 + 150.0 * x, 2.0 + 1800.0 * x * x)
            })
            .collect();
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

    #[test]
    fn natural_breaks_is_cost_monotone() {
        let m = market();
        let b = NaturalBreaks.bundle(&m, 4).unwrap();
        let costs = m.costs();
        let mut pairs: Vec<(f64, usize)> = costs
            .iter()
            .zip(b.assignment())
            .map(|(&c, &a)| (c, a))
            .collect();
        pairs.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
        for w in pairs.windows(2) {
            assert!(w[0].1 <= w[1].1, "breaks must be contiguous in cost");
        }
    }

    #[test]
    fn natural_breaks_separates_two_clear_clusters() {
        // Two tight cost clusters far apart: 2 breaks must split exactly
        // between them.
        let flows: Vec<TrafficFlow> = (0..10)
            .map(|i| {
                let d = if i < 5 {
                    10.0 + i as f64
                } else {
                    2000.0 + i as f64
                };
                TrafficFlow::new(i, 10.0, d)
            })
            .collect();
        let m = CedMarket::new(
            fit_ced(
                &flows,
                &LinearCost::new(0.0).unwrap(),
                CedAlpha::new(1.1).unwrap(),
                20.0,
            )
            .unwrap(),
        )
        .unwrap();
        let b = NaturalBreaks.bundle(&m, 2).unwrap();
        for i in 0..5 {
            assert_eq!(b.assignment()[i], 0);
            assert_eq!(b.assignment()[i + 5], 1);
        }
    }

    #[test]
    fn demand_mass_division_balances_traffic() {
        let m = market();
        let b = DemandMassDivision.bundle(&m, 4).unwrap();
        let demands = m.demands();
        let total: f64 = demands.iter().sum();
        let mut mass = vec![0.0; 4];
        for (flow, &bundle) in b.assignment().iter().enumerate() {
            mass[bundle] += demands[flow];
        }
        for &m_b in &mass {
            assert!(
                m_b > 0.10 * total && m_b < 0.45 * total,
                "tier mass {m_b} vs total {total}"
            );
        }
    }

    #[test]
    fn extensions_never_beat_optimal() {
        let m = market();
        let optimal = OptimalDp::new();
        for b in 1..=6 {
            let p_opt = m.profit(&optimal.bundle(&m, b).unwrap()).unwrap();
            for strategy in [&NaturalBreaks as &dyn BundlingStrategy, &DemandMassDivision] {
                let p = m.profit(&strategy.bundle(&m, b).unwrap()).unwrap();
                assert!(
                    p <= p_opt + 1e-9,
                    "{} beat optimal at b={b}",
                    strategy.name()
                );
            }
        }
    }

    #[test]
    fn natural_breaks_competitive_with_cost_division() {
        // Minimizing cost SSE is not exactly profit-optimal, so strict
        // dominance over equal-width ranges is not guaranteed — but the
        // breaks must never fall meaningfully behind, and must win at
        // bundle counts where equal-width ranges sit empty.
        let m = market();
        let cost_div = StrategyKind::CostDivision.build();
        for b in 3usize..=6 {
            let p_div = m.profit(&cost_div.bundle(&m, b).unwrap()).unwrap();
            let p_nb = m.profit(&NaturalBreaks.bundle(&m, b).unwrap()).unwrap();
            assert!(
                p_nb >= 0.999 * p_div,
                "natural breaks {p_nb} far below cost division {p_div} at b={b}"
            );
        }
        // At 6 bundles the breaks use every bundle while equal-width
        // ranges leave some empty on this skewed cost distribution.
        let nb6 = NaturalBreaks.bundle(&m, 6).unwrap();
        let cd6 = cost_div.bundle(&m, 6).unwrap();
        assert!(nb6.occupied_bundles() >= cd6.occupied_bundles());
    }

    #[test]
    fn reject_zero_bundles() {
        let m = market();
        assert!(NaturalBreaks.bundle(&m, 0).is_err());
        assert!(DemandMassDivision.bundle(&m, 0).is_err());
    }

    #[test]
    fn handle_more_bundles_than_flows() {
        let flows: Vec<TrafficFlow> = (0..3)
            .map(|i| TrafficFlow::new(i, 10.0, 10.0 + i as f64))
            .collect();
        let m = CedMarket::new(
            fit_ced(
                &flows,
                &LinearCost::new(0.1).unwrap(),
                CedAlpha::new(1.2).unwrap(),
                20.0,
            )
            .unwrap(),
        )
        .unwrap();
        let b = NaturalBreaks.bundle(&m, 8).unwrap();
        assert_eq!(b.n_flows(), 3);
        assert!(b.assignment().iter().all(|&x| x < 8));
        let b = DemandMassDivision.bundle(&m, 8).unwrap();
        assert!(b.assignment().iter().all(|&x| x < 8));
    }
}
