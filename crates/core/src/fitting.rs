//! Mapping observed traffic data to the demand and cost models
//! (paper §4.1).
//!
//! The key identification assumptions (§3, §4.1):
//!
//! 1. The ISP currently charges one blended rate `P0` for every flow, and
//!    the observed per-flow demands `q_i` are the demands *at that price*.
//!    This pins down the valuation coefficients:
//!    * CED: `v_i = q_i^(1/alpha) · P0` (inverting Eq. 2), so that
//!      `Q_i(P0) = q_i` exactly.
//!    * Logit: market shares are `s_i = q_i (1 − s0) / Σ_j q_j` with a
//!      chosen no-purchase share `s0`, and
//!      `v_i = (ln s_i − ln s0)/alpha + P0` (inverting Eq. 6); the consumer
//!      population is `K = Σ_j q_j / (1 − s0)` so `K·s_i = q_i`.
//! 2. The ISP is already profit-maximizing at `P0`. This pins down the
//!    cost scale `gamma` that converts relative costs `f(d_i)` into
//!    absolute unit costs `c_i = gamma·f(d_i)`:
//!    * CED: setting Eq. 5 (the optimal single-bundle price) equal to `P0`
//!      gives `gamma = P0 (alpha−1) Σ v_i^alpha / (alpha Σ f(d_i) v_i^alpha)`.
//!    * Logit: by the uniform-markup optimality condition (see
//!      [`crate::pricing::logit`]), the single-bundle price `P0` is optimal
//!      iff `c_bundle = P0 − 1/(alpha·s0)` — note that with the fitted
//!      valuations the no-purchase share at `P0` is exactly the chosen
//!      `s0`. Since `c_bundle` is the softmax-weighted mean of
//!      `gamma·f(d_i)` (Eq. 11), `gamma = (P0 − 1/(alpha·s0)) ·
//!      Σ e^{alpha v_i} / Σ f(d_i) e^{alpha v_i}`. If
//!      `P0 ≤ 1/(alpha·s0)` the configuration is infeasible (the implied
//!      optimal markup alone exceeds the blended rate) and fitting fails
//!      with [`TransitError::InfeasibleCalibration`].
//!
//! Both constructions make `profit capture at one bundle = 0` an exact
//! invariant: re-optimizing a single blended rate reproduces `P0`.

use crate::cost::CostModel;
use crate::demand::ced::CedAlpha;
use crate::demand::logit::LogitAlpha;
use crate::error::{check_positive, Result, TransitError};
use crate::flow::{validate_flows, TrafficFlow};

/// A CED market fitted to observed traffic (valuations, cost scale, and
/// absolute costs).
#[derive(Debug, Clone)]
pub struct CedFit {
    /// Price sensitivity.
    pub alpha: CedAlpha,
    /// The blended rate the data was observed under ($/Mbps/month).
    pub p0: f64,
    /// Observed demands `q_i` (Mbps).
    pub demands: Vec<f64>,
    /// Fitted valuation coefficients `v_i`.
    pub valuations: Vec<f64>,
    /// Cost scale `gamma` reconciling relative costs with prices.
    pub gamma: f64,
    /// Absolute unit costs `c_i = gamma·f(d_i)`.
    pub costs: Vec<f64>,
}

/// Fits the CED model to flows under the given cost model (§4.1.2–4.1.3).
pub fn fit_ced(
    flows: &[TrafficFlow],
    cost_model: &dyn CostModel,
    alpha: CedAlpha,
    p0: f64,
) -> Result<CedFit> {
    let _span = transit_obs::span!("fit_ced", flows = flows.len());
    transit_obs::counter!("fitting.ced.runs").inc();
    validate_flows(flows)?;
    check_positive("p0", p0)?;
    let a = alpha.get();

    let demands: Vec<f64> = flows.iter().map(|f| f.demand_mbps).collect();
    let valuations: Vec<f64> = demands.iter().map(|&q| q.powf(1.0 / a) * p0).collect();
    let rel_costs = cost_model.relative_costs(flows)?;

    // gamma from the single-bundle FOC (Eq. 5 == P0).
    let mut sum_va = 0.0;
    let mut sum_fva = 0.0;
    for (&v, &f) in valuations.iter().zip(&rel_costs) {
        let va = v.powf(a);
        sum_va += va;
        sum_fva += f * va;
    }
    let gamma = p0 * (a - 1.0) * sum_va / (a * sum_fva);
    if !(gamma.is_finite() && gamma > 0.0) {
        return Err(TransitError::InfeasibleCalibration { gamma });
    }
    let costs: Vec<f64> = rel_costs.iter().map(|&f| gamma * f).collect();

    Ok(CedFit {
        alpha,
        p0,
        demands,
        valuations,
        gamma,
        costs,
    })
}

/// A logit market fitted to observed traffic.
#[derive(Debug, Clone)]
pub struct LogitFit {
    /// Price sensitivity.
    pub alpha: LogitAlpha,
    /// The blended rate the data was observed under.
    pub p0: f64,
    /// The assumed no-purchase market share at `P0`.
    pub s0: f64,
    /// Consumer population `K = Σ q_i / (1 − s0)`.
    pub consumers: f64,
    /// Observed demands `q_i` (Mbps).
    pub demands: Vec<f64>,
    /// Fitted valuations `v_i`.
    pub valuations: Vec<f64>,
    /// Cost scale `gamma`.
    pub gamma: f64,
    /// Absolute unit costs `c_i = gamma·f(d_i)`.
    pub costs: Vec<f64>,
}

/// Fits the logit model to flows under the given cost model
/// (§4.1.2–4.1.3).
pub fn fit_logit(
    flows: &[TrafficFlow],
    cost_model: &dyn CostModel,
    alpha: LogitAlpha,
    p0: f64,
    s0: f64,
) -> Result<LogitFit> {
    let _span = transit_obs::span!("fit_logit", flows = flows.len());
    transit_obs::counter!("fitting.logit.runs").inc();
    validate_flows(flows)?;
    check_positive("p0", p0)?;
    if !(s0.is_finite() && s0 > 0.0 && s0 < 1.0) {
        return Err(TransitError::InvalidParameter {
            name: "s0",
            value: s0,
            expected: "a no-purchase share in (0, 1)",
        });
    }
    let a = alpha.get();

    let demands: Vec<f64> = flows.iter().map(|f| f.demand_mbps).collect();
    let total_q: f64 = demands.iter().sum();
    let consumers = total_q / (1.0 - s0);

    // Shares and valuations (§4.1.2).
    let valuations: Vec<f64> = demands
        .iter()
        .map(|&q| {
            let s_i = q * (1.0 - s0) / total_q;
            (s_i.ln() - s0.ln()) / a + p0
        })
        .collect();

    // gamma from the uniform-markup FOC (see module docs). Weights are the
    // softmax of alpha·v, computed stably against a common offset.
    let markup0 = 1.0 / (a * s0);
    if p0 <= markup0 {
        return Err(TransitError::InfeasibleCalibration {
            gamma: p0 - markup0,
        });
    }
    let rel_costs = cost_model.relative_costs(flows)?;
    let max_v = valuations.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum_w = 0.0;
    let mut sum_fw = 0.0;
    for (&v, &f) in valuations.iter().zip(&rel_costs) {
        let w = (a * (v - max_v)).exp();
        sum_w += w;
        sum_fw += f * w;
    }
    let gamma = (p0 - markup0) * sum_w / sum_fw;
    if !(gamma.is_finite() && gamma > 0.0) {
        return Err(TransitError::InfeasibleCalibration { gamma });
    }
    let costs: Vec<f64> = rel_costs.iter().map(|&f| gamma * f).collect();

    Ok(LogitFit {
        alpha,
        p0,
        s0,
        consumers,
        demands,
        valuations,
        gamma,
        costs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::LinearCost;
    use crate::demand::{ced, logit};
    use crate::optimize::golden_section_max;

    fn flows() -> Vec<TrafficFlow> {
        vec![
            TrafficFlow::new(0, 120.0, 5.0),
            TrafficFlow::new(1, 40.0, 60.0),
            TrafficFlow::new(2, 8.0, 300.0),
            TrafficFlow::new(3, 2.0, 1500.0),
        ]
    }

    fn cost_model() -> LinearCost {
        LinearCost::new(0.2).unwrap()
    }

    #[test]
    fn ced_fit_reproduces_observed_demand_at_p0() {
        let alpha = CedAlpha::new(1.1).unwrap();
        let fit = fit_ced(&flows(), &cost_model(), alpha, 20.0).unwrap();
        for (i, f) in flows().iter().enumerate() {
            let q = ced::quantity(fit.valuations[i], 20.0, alpha).unwrap();
            assert!(
                (q - f.demand_mbps).abs() / f.demand_mbps < 1e-10,
                "flow {i}: modeled {q} vs observed {}",
                f.demand_mbps
            );
        }
    }

    #[test]
    fn ced_fit_makes_p0_the_optimal_blended_rate() {
        let alpha = CedAlpha::new(1.1).unwrap();
        let fit = fit_ced(&flows(), &cost_model(), alpha, 20.0).unwrap();
        let p_star = ced::bundle_price(&fit.valuations, &fit.costs, alpha).unwrap();
        assert!((p_star - 20.0).abs() < 1e-9, "p_star = {p_star}");
    }

    #[test]
    fn ced_fit_p0_maximizes_blended_profit_numerically() {
        let alpha = CedAlpha::new(1.5).unwrap();
        let fit = fit_ced(&flows(), &cost_model(), alpha, 20.0).unwrap();
        let profit = |p: f64| {
            ced::total_profit(
                &fit.valuations,
                &vec![p; fit.valuations.len()],
                &fit.costs,
                alpha,
            )
            .unwrap()
        };
        let (p_best, _) = golden_section_max(profit, 1.0, 100.0, 1e-10).unwrap();
        assert!((p_best - 20.0).abs() < 1e-4, "numeric optimum {p_best}");
    }

    #[test]
    fn ced_costs_are_positive_and_ordered_by_distance() {
        let alpha = CedAlpha::new(1.1).unwrap();
        let fit = fit_ced(&flows(), &cost_model(), alpha, 20.0).unwrap();
        assert!(fit.costs.iter().all(|&c| c > 0.0));
        // Linear cost: longer flows cost more.
        assert!(fit.costs[0] < fit.costs[1]);
        assert!(fit.costs[1] < fit.costs[2]);
        assert!(fit.costs[2] < fit.costs[3]);
    }

    #[test]
    fn logit_fit_reproduces_observed_demand_at_p0() {
        let alpha = LogitAlpha::new(1.1).unwrap();
        let fit = fit_logit(&flows(), &cost_model(), alpha, 20.0, 0.2).unwrap();
        let n = fit.valuations.len();
        let qs = logit::quantities(&fit.valuations, &vec![20.0; n], alpha, fit.consumers).unwrap();
        for (i, f) in flows().iter().enumerate() {
            assert!(
                (qs[i] - f.demand_mbps).abs() / f.demand_mbps < 1e-10,
                "flow {i}: modeled {} vs observed {}",
                qs[i],
                f.demand_mbps
            );
        }
    }

    #[test]
    fn logit_fit_s0_holds_at_p0() {
        let alpha = LogitAlpha::new(1.1).unwrap();
        let fit = fit_logit(&flows(), &cost_model(), alpha, 20.0, 0.2).unwrap();
        let n = fit.valuations.len();
        let (_, s0) = logit::shares(&fit.valuations, &vec![20.0; n], alpha).unwrap();
        assert!((s0 - 0.2).abs() < 1e-10);
    }

    #[test]
    fn logit_fit_makes_p0_the_optimal_blended_rate() {
        let alpha = LogitAlpha::new(1.1).unwrap();
        let fit = fit_logit(&flows(), &cost_model(), alpha, 20.0, 0.2).unwrap();
        // Aggregate the whole market into one bundle and solve for its
        // optimal price: must equal P0.
        let vb = logit::bundle_valuation(&fit.valuations, alpha).unwrap();
        let cb = logit::bundle_cost(&fit.valuations, &fit.costs, alpha).unwrap();
        let opt = crate::pricing::logit::optimal_prices(&[vb], &[cb], alpha).unwrap();
        assert!(
            (opt.prices[0] - 20.0).abs() < 1e-8,
            "optimal blended price {} != 20",
            opt.prices[0]
        );
    }

    #[test]
    fn logit_fit_rejects_infeasible_markup() {
        // 1/(alpha*s0) = 1/(0.1*0.2) = 50 > P0 = 20: infeasible.
        let alpha = LogitAlpha::new(0.1).unwrap();
        match fit_logit(&flows(), &cost_model(), alpha, 20.0, 0.2) {
            Err(TransitError::InfeasibleCalibration { .. }) => {}
            other => panic!("expected InfeasibleCalibration, got {other:?}"),
        }
    }

    #[test]
    fn logit_fit_rejects_bad_s0() {
        let alpha = LogitAlpha::new(1.1).unwrap();
        assert!(fit_logit(&flows(), &cost_model(), alpha, 20.0, 0.0).is_err());
        assert!(fit_logit(&flows(), &cost_model(), alpha, 20.0, 1.0).is_err());
        assert!(fit_logit(&flows(), &cost_model(), alpha, 20.0, -0.5).is_err());
    }

    #[test]
    fn fits_reject_empty_flows() {
        let alpha = CedAlpha::new(1.1).unwrap();
        assert!(fit_ced(&[], &cost_model(), alpha, 20.0).is_err());
        let alpha = LogitAlpha::new(1.1).unwrap();
        assert!(fit_logit(&[], &cost_model(), alpha, 20.0, 0.2).is_err());
    }

    #[test]
    fn higher_demand_implies_higher_valuation_both_models() {
        let ced_fit = fit_ced(&flows(), &cost_model(), CedAlpha::new(1.3).unwrap(), 20.0).unwrap();
        let logit_fit = fit_logit(
            &flows(),
            &cost_model(),
            LogitAlpha::new(1.3).unwrap(),
            20.0,
            0.2,
        )
        .unwrap();
        // flows() demands are strictly decreasing, so valuations must be too.
        for w in ced_fit.valuations.windows(2) {
            assert!(w[0] > w[1]);
        }
        for w in logit_fit.valuations.windows(2) {
            assert!(w[0] > w[1]);
        }
    }
}
