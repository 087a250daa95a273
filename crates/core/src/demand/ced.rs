//! Constant-elasticity demand (CED), paper §3.2.1.
//!
//! The demand for flow `i` at unit price `p_i` is
//!
//! ```text
//! Q_i(p_i) = (v_i / p_i)^alpha                         (Eq. 2)
//! ```
//!
//! with price sensitivity `alpha ∈ (1, ∞)` and valuation `v_i > 0`. Demands
//! are separable, so per-flow and per-bundle profits add up:
//!
//! ```text
//! Π = Σ_i (v_i/p_i)^alpha (p_i − c_i)                  (Eq. 3)
//! p*_i = alpha·c_i / (alpha − 1)                       (Eq. 4)
//! P*_bundle = alpha·Σ c_i v_i^alpha / ((alpha−1)·Σ v_i^alpha)   (Eq. 5)
//! π_i = v_i^alpha/alpha · (alpha·c_i/(alpha−1))^(1−alpha)       (Eq. 12)
//! ```
//!
//! The model also admits a closed-form consumer surplus
//! `∫_p^∞ Q(t) dt = v^alpha · p^(1−alpha) / (alpha−1)`, used by
//! `transit-market` for the welfare analysis of Fig. 1.

use crate::error::{check_positive, Result, TransitError};

/// Validated CED price-sensitivity parameter (`alpha > 1`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CedAlpha(f64);

impl CedAlpha {
    /// Validates `alpha > 1` (demand must be elastic for a finite optimal
    /// price to exist: Eq. 4 diverges as `alpha → 1+`).
    pub fn new(alpha: f64) -> Result<CedAlpha> {
        if alpha.is_finite() && alpha > 1.0 {
            Ok(CedAlpha(alpha))
        } else {
            Err(TransitError::InvalidParameter {
                name: "alpha",
                value: alpha,
                expected: "alpha > 1 for constant-elasticity demand",
            })
        }
    }

    /// The raw value.
    pub fn get(self) -> f64 {
        self.0
    }
}

/// Demand `Q(p) = (v/p)^alpha` (Eq. 2).
pub fn quantity(valuation: f64, price: f64, alpha: CedAlpha) -> Result<f64> {
    check_positive("valuation", valuation)?;
    check_positive("price", price)?;
    Ok((valuation / price).powf(alpha.get()))
}

/// Per-flow profit `(v/p)^alpha (p − c)` (one term of Eq. 3). Negative when
/// priced below cost.
pub fn flow_profit(valuation: f64, price: f64, cost: f64, alpha: CedAlpha) -> Result<f64> {
    check_positive("cost", cost)?;
    Ok(quantity(valuation, price, alpha)? * (price - cost))
}

/// Total profit over flows at per-flow prices (Eq. 3).
pub fn total_profit(
    valuations: &[f64],
    prices: &[f64],
    costs: &[f64],
    alpha: CedAlpha,
) -> Result<f64> {
    if valuations.len() != prices.len() || valuations.len() != costs.len() {
        return Err(TransitError::InvalidBundling {
            reason: "valuations, prices, and costs must have equal lengths",
        });
    }
    let mut total = 0.0;
    for ((&v, &p), &c) in valuations.iter().zip(prices).zip(costs) {
        total += flow_profit(v, p, c, alpha)?;
    }
    Ok(total)
}

/// Profit-maximizing price for a single flow: `p* = alpha·c/(alpha−1)`
/// (Eq. 4).
pub fn optimal_price(cost: f64, alpha: CedAlpha) -> Result<f64> {
    check_positive("cost", cost)?;
    let a = alpha.get();
    Ok(a * cost / (a - 1.0))
}

/// Profit-maximizing common price for a bundle of flows (Eq. 5):
/// `P* = alpha·Σ c_i v_i^alpha / ((alpha−1)·Σ v_i^alpha)`.
///
/// Equivalently, Eq. 4 applied to the demand-weighted (by `v^alpha`) mean
/// cost of the bundle's members.
pub fn bundle_price(valuations: &[f64], costs: &[f64], alpha: CedAlpha) -> Result<f64> {
    if valuations.is_empty() || valuations.len() != costs.len() {
        return Err(TransitError::InvalidBundling {
            reason: "bundle price needs equal-length, non-empty valuations and costs",
        });
    }
    let a = alpha.get();
    let mut num = 0.0;
    let mut den = 0.0;
    for (&v, &c) in valuations.iter().zip(costs) {
        check_positive("valuation", v)?;
        check_positive("cost", c)?;
        let w = v.powf(a);
        num += c * w;
        den += w;
    }
    Ok(a * num / ((a - 1.0) * den))
}

/// Potential profit of a flow when optimally priced alone (Eq. 12):
/// `π = v^alpha/alpha · (alpha·c/(alpha−1))^(1−alpha)`.
///
/// Used as the weight in profit-weighted bundling.
pub fn potential_profit(valuation: f64, cost: f64, alpha: CedAlpha) -> Result<f64> {
    check_positive("valuation", valuation)?;
    check_positive("cost", cost)?;
    let a = alpha.get();
    Ok(valuation.powf(a) / a * (a * cost / (a - 1.0)).powf(1.0 - a))
}

/// Consumer surplus of one flow at price `p`:
/// `∫_p^∞ (v/t)^alpha dt = v^alpha · p^(1−alpha)/(alpha−1)`.
pub fn consumer_surplus(valuation: f64, price: f64, alpha: CedAlpha) -> Result<f64> {
    check_positive("valuation", valuation)?;
    check_positive("price", price)?;
    let a = alpha.get();
    Ok(valuation.powf(a) * price.powf(1.0 - a) / (a - 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alpha(a: f64) -> CedAlpha {
        CedAlpha::new(a).unwrap()
    }

    #[test]
    fn alpha_validation() {
        assert!(CedAlpha::new(1.0).is_err());
        assert!(CedAlpha::new(0.9).is_err());
        assert!(CedAlpha::new(f64::NAN).is_err());
        assert!(CedAlpha::new(f64::INFINITY).is_err());
        assert!(CedAlpha::new(1.1).is_ok());
    }

    #[test]
    fn quantity_at_price_equal_valuation_is_one() {
        assert!((quantity(2.0, 2.0, alpha(3.0)).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantity_decreases_in_price() {
        let a = alpha(2.0);
        let q1 = quantity(1.0, 0.5, a).unwrap();
        let q2 = quantity(1.0, 1.0, a).unwrap();
        let q3 = quantity(1.0, 2.0, a).unwrap();
        assert!(q1 > q2 && q2 > q3);
    }

    #[test]
    fn higher_alpha_is_more_elastic() {
        // At a price above valuation, a higher alpha suppresses demand more.
        let q_lo = quantity(1.0, 2.0, alpha(1.4)).unwrap();
        let q_hi = quantity(1.0, 2.0, alpha(3.3)).unwrap();
        assert!(q_hi < q_lo);
    }

    #[test]
    fn paper_fig4_example() {
        // Fig. 4: v = 1, alpha = 2, c = 1 → p* = 2 and max profit 0.25.
        let a = alpha(2.0);
        let p = optimal_price(1.0, a).unwrap();
        assert!((p - 2.0).abs() < 1e-12);
        let pi = flow_profit(1.0, p, 1.0, a).unwrap();
        assert!((pi - 0.25).abs() < 1e-12);
    }

    #[test]
    fn optimal_price_maximizes_profit() {
        let a = alpha(1.7);
        let (v, c) = (3.0, 1.3);
        let p_star = optimal_price(c, a).unwrap();
        let best = flow_profit(v, p_star, c, a).unwrap();
        for dp in [-0.5, -0.1, -0.01, 0.01, 0.1, 0.5] {
            let p = p_star + dp;
            assert!(flow_profit(v, p, c, a).unwrap() <= best + 1e-12);
        }
    }

    #[test]
    fn bundle_price_of_singleton_equals_flow_price() {
        let a = alpha(1.1);
        let p = bundle_price(&[2.0], &[0.7], a).unwrap();
        assert!((p - optimal_price(0.7, a).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn bundle_price_is_demand_weighted() {
        // A bundle dominated by a cheap, high-valuation flow prices near
        // that flow's own optimum.
        let a = alpha(2.0);
        let p = bundle_price(&[100.0, 1.0], &[0.5, 5.0], a).unwrap();
        let p_cheap = optimal_price(0.5, a).unwrap();
        assert!(
            (p - p_cheap).abs() / p_cheap < 0.01,
            "p={p}, p_cheap={p_cheap}"
        );
    }

    #[test]
    fn bundle_price_between_member_optima() {
        let a = alpha(1.5);
        let p = bundle_price(&[1.0, 1.0], &[1.0, 2.0], a).unwrap();
        let lo = optimal_price(1.0, a).unwrap();
        let hi = optimal_price(2.0, a).unwrap();
        assert!(p > lo && p < hi);
    }

    #[test]
    fn bundle_price_maximizes_bundle_profit() {
        // Numerically verify Eq. 5 against a fine price grid.
        let a = alpha(1.3);
        let vs = [1.0, 2.5, 0.8];
        let cs = [0.5, 1.5, 3.0];
        let p_star = bundle_price(&vs, &cs, a).unwrap();
        let profit_at = |p: f64| total_profit(&vs, &[p, p, p], &cs, a).unwrap();
        let best = profit_at(p_star);
        let mut p = p_star * 0.2;
        while p < p_star * 5.0 {
            assert!(profit_at(p) <= best + 1e-9, "price {p} beats Eq. 5");
            p += p_star * 0.01;
        }
    }

    #[test]
    fn potential_profit_matches_profit_at_optimal_price() {
        let a = alpha(2.2);
        let (v, c) = (1.7, 0.9);
        let via_formula = potential_profit(v, c, a).unwrap();
        let p_star = optimal_price(c, a).unwrap();
        let direct = flow_profit(v, p_star, c, a).unwrap();
        assert!((via_formula - direct).abs() < 1e-12);
    }

    #[test]
    fn cheaper_flows_have_higher_potential_profit() {
        let a = alpha(2.0);
        let lo = potential_profit(1.0, 0.5, a).unwrap();
        let hi = potential_profit(1.0, 2.0, a).unwrap();
        assert!(lo > hi);
    }

    #[test]
    fn consumer_surplus_decreases_in_price() {
        let a = alpha(2.0);
        let s1 = consumer_surplus(1.0, 1.0, a).unwrap();
        let s2 = consumer_surplus(1.0, 2.0, a).unwrap();
        assert!(s1 > s2);
    }

    #[test]
    fn consumer_surplus_matches_numeric_integral() {
        let a = alpha(2.5);
        let (v, p) = (1.3, 0.8);
        let closed = consumer_surplus(v, p, a).unwrap();
        // Trapezoidal integration of Q from p to a large cutoff.
        let mut numeric = 0.0;
        let dt = 0.0005;
        let mut t = p;
        while t < 400.0 {
            let q1 = quantity(v, t, a).unwrap();
            let q2 = quantity(v, t + dt, a).unwrap();
            numeric += 0.5 * (q1 + q2) * dt;
            t += dt;
        }
        assert!(
            (closed - numeric).abs() / closed < 1e-3,
            "closed={closed} numeric={numeric}"
        );
    }

    #[test]
    fn total_profit_rejects_length_mismatch() {
        let a = alpha(2.0);
        assert!(total_profit(&[1.0], &[1.0, 2.0], &[1.0], a).is_err());
    }
}
