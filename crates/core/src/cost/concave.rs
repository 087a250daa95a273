//! Concave-in-distance cost model (paper §3.3, "Concave function of
//! distance").
//!
//! Some ISPs price transit as a concave function of distance; the paper
//! fits `y = a·log_b(x) + c` to ITU and NTT leased-line price lists
//! (Fig. 6) and reports `a ≈ 0.5, b ≈ 6, c ≈ 1` on normalized data. The
//! cost model is then `c_i = gamma * (a·log_b(d_i) + c + beta)` with the
//! same max-relative base cost `beta = theta * max_j g(d_j)` as the linear
//! model.
//!
//! Because the log compresses distance differences, the coefficient of
//! variation of costs is lower than under the linear model at equal
//! `theta`, so profit capture decays faster in `theta` (Fig. 11).

use super::{check_costs, CostModel};
use crate::error::{check_positive, Result, TransitError};
use crate::flow::TrafficFlow;

/// Concave distance cost `g(d) = a·log_b(d) + c`, plus base cost
/// `theta * max_j g(d_j)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConcaveCost {
    a: f64,
    b: f64,
    c: f64,
    theta: f64,
}

impl ConcaveCost {
    /// Creates the model with explicit curve parameters.
    ///
    /// Requirements: `a > 0`, `b > 1` (a log base of <= 1 is degenerate),
    /// `c >= 0`, `theta >= 0`.
    pub fn new(a: f64, b: f64, c: f64, theta: f64) -> Result<ConcaveCost> {
        check_positive("a", a)?;
        if !(b.is_finite() && b > 1.0) {
            return Err(TransitError::InvalidParameter {
                name: "b",
                value: b,
                expected: "a log base > 1",
            });
        }
        if !(c.is_finite() && c >= 0.0) {
            return Err(TransitError::InvalidParameter {
                name: "c",
                value: c,
                expected: "a finite offset >= 0",
            });
        }
        if !(theta.is_finite() && theta >= 0.0) {
            return Err(TransitError::InvalidParameter {
                name: "theta",
                value: theta,
                expected: "a finite base-cost fraction >= 0",
            });
        }
        Ok(ConcaveCost { a, b, c, theta })
    }

    /// The paper's fitted parameters from Fig. 6: `a = 0.5, b = 6, c = 1`.
    pub fn paper_fit(theta: f64) -> Result<ConcaveCost> {
        ConcaveCost::new(0.5, 6.0, 1.0, theta)
    }

    /// Curve parameters `(a, b, c)`.
    pub fn curve(&self) -> (f64, f64, f64) {
        (self.a, self.b, self.c)
    }

    /// Evaluates `g(d) = a·log_b(d) + c`, clamped below at a small positive
    /// epsilon so that very short distances (`g(d) < 0` for d below the
    /// curve's root) still yield a positive relative cost.
    pub fn g(&self, distance: f64) -> f64 {
        let raw = self.a * distance.ln() / self.b.ln() + self.c;
        raw.max(1e-9)
    }
}

impl CostModel for ConcaveCost {
    fn name(&self) -> &'static str {
        "concave"
    }

    fn theta(&self) -> f64 {
        self.theta
    }

    fn relative_costs(&self, flows: &[TrafficFlow]) -> Result<Vec<f64>> {
        crate::flow::validate_flows(flows)?;
        let gs: Vec<f64> = flows.iter().map(|f| self.g(f.distance_miles)).collect();
        let max_g = gs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let beta = self.theta * max_g;
        let costs: Vec<f64> = gs.iter().map(|g| g + beta).collect();
        check_costs(flows, &costs)?;
        Ok(costs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::LinearCost;
    use crate::stats::coefficient_of_variation;

    #[test]
    fn paper_fit_parameters() {
        let m = ConcaveCost::paper_fit(0.0).unwrap();
        assert_eq!(m.curve(), (0.5, 6.0, 1.0));
    }

    #[test]
    fn g_is_concave_increasing() {
        let m = ConcaveCost::paper_fit(0.0).unwrap();
        let g1 = m.g(10.0);
        let g2 = m.g(100.0);
        let g3 = m.g(1000.0);
        assert!(g1 < g2 && g2 < g3, "increasing");
        // Concavity: equal multiplicative steps add equal increments,
        // so the *ratio* step shrinks.
        assert!((g2 - g1) - (g3 - g2) < 1e-9 && (g3 - g2) / g2 < (g2 - g1) / g1);
    }

    #[test]
    fn g_clamps_below_root() {
        // 0.5*log6(d) + 1 = 0 at d = 6^-2 = 1/36; below that raw g < 0.
        let m = ConcaveCost::paper_fit(0.0).unwrap();
        assert!(m.g(1.0 / 100.0) > 0.0);
    }

    #[test]
    fn unit_distance_costs_c() {
        let m = ConcaveCost::paper_fit(0.0).unwrap();
        assert!((m.g(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn concave_has_lower_cost_cv_than_linear() {
        // Fig. 11's explanation: the log compresses relative cost
        // differences, so cost CV is lower than the linear model's at the
        // same theta.
        let flows: Vec<TrafficFlow> = (0..50)
            .map(|i| TrafficFlow::new(i, 1.0, 1.0 + (i as f64) * 40.0))
            .collect();
        let lin = LinearCost::new(0.2)
            .unwrap()
            .relative_costs(&flows)
            .unwrap();
        let con = ConcaveCost::paper_fit(0.2)
            .unwrap()
            .relative_costs(&flows)
            .unwrap();
        let cv_lin = coefficient_of_variation(&lin).unwrap();
        let cv_con = coefficient_of_variation(&con).unwrap();
        assert!(
            cv_con < cv_lin,
            "concave CV {cv_con} should be below linear CV {cv_lin}"
        );
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(ConcaveCost::new(0.0, 6.0, 1.0, 0.1).is_err());
        assert!(ConcaveCost::new(0.5, 1.0, 1.0, 0.1).is_err());
        assert!(ConcaveCost::new(0.5, 0.5, 1.0, 0.1).is_err());
        assert!(ConcaveCost::new(0.5, 6.0, -1.0, 0.1).is_err());
        assert!(ConcaveCost::new(0.5, 6.0, 1.0, -0.1).is_err());
    }
}
