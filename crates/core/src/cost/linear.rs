//! Linear-in-distance cost model (paper §3.3, "Linear function of
//! distance").
//!
//! `c_i = gamma * (d_i + beta)` where the base cost
//! `beta = theta * max_j d_j` is a fraction `theta` of the largest distance
//! component in the flow set. Low `theta` means distance dominates total
//! cost; high `theta` means a distance-independent fixed cost dominates,
//! which compresses the relative cost differences between flows and — as
//! Fig. 10 shows — reduces the profit attainable through tiering.

use super::{check_costs, CostModel};
use crate::error::{Result, TransitError};
use crate::flow::TrafficFlow;

/// Linear distance cost: relative cost `f(d_i) = d_i + theta * max_j d_j`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearCost {
    theta: f64,
}

impl LinearCost {
    /// Creates the model. `theta` is the relative base-cost fraction and
    /// must be finite and non-negative (the paper sweeps 0.1–0.3).
    pub fn new(theta: f64) -> Result<LinearCost> {
        if theta.is_finite() && theta >= 0.0 {
            Ok(LinearCost { theta })
        } else {
            Err(TransitError::InvalidParameter {
                name: "theta",
                value: theta,
                expected: "a finite base-cost fraction >= 0",
            })
        }
    }
}

impl CostModel for LinearCost {
    fn name(&self) -> &'static str {
        "linear"
    }

    fn theta(&self) -> f64 {
        self.theta
    }

    fn relative_costs(&self, flows: &[TrafficFlow]) -> Result<Vec<f64>> {
        crate::flow::validate_flows(flows)?;
        let max_d = flows
            .iter()
            .map(|f| f.distance_miles)
            .fold(f64::NEG_INFINITY, f64::max);
        let beta = self.theta * max_d;
        let costs: Vec<f64> = flows.iter().map(|f| f.distance_miles + beta).collect();
        check_costs(flows, &costs)?;
        Ok(costs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_worked_example() {
        // §3.3: distances 1, 10, 100 miles, theta = 0.1 → base 10,
        // costs 11, 20, 110 (gamma = $1/mile applied by calibration later).
        let flows = vec![
            TrafficFlow::new(0, 1.0, 1.0),
            TrafficFlow::new(1, 1.0, 10.0),
            TrafficFlow::new(2, 1.0, 100.0),
        ];
        let costs = LinearCost::new(0.1)
            .unwrap()
            .relative_costs(&flows)
            .unwrap();
        assert_eq!(costs, vec![11.0, 20.0, 110.0]);
    }

    #[test]
    fn zero_theta_gives_pure_distance() {
        let flows = vec![
            TrafficFlow::new(0, 1.0, 7.0),
            TrafficFlow::new(1, 1.0, 70.0),
        ];
        let costs = LinearCost::new(0.0)
            .unwrap()
            .relative_costs(&flows)
            .unwrap();
        assert_eq!(costs, vec![7.0, 70.0]);
    }

    #[test]
    fn higher_theta_compresses_relative_costs() {
        let flows = vec![
            TrafficFlow::new(0, 1.0, 1.0),
            TrafficFlow::new(1, 1.0, 100.0),
        ];
        let low = LinearCost::new(0.1)
            .unwrap()
            .relative_costs(&flows)
            .unwrap();
        let high = LinearCost::new(1.0)
            .unwrap()
            .relative_costs(&flows)
            .unwrap();
        let ratio_low = low[1] / low[0];
        let ratio_high = high[1] / high[0];
        assert!(
            ratio_high < ratio_low,
            "base cost should compress cost ratios: {ratio_high} vs {ratio_low}"
        );
    }

    #[test]
    fn rejects_negative_or_nonfinite_theta() {
        assert!(LinearCost::new(-0.1).is_err());
        assert!(LinearCost::new(f64::NAN).is_err());
        assert!(LinearCost::new(f64::INFINITY).is_err());
    }

    #[test]
    fn rejects_empty_flows() {
        assert!(LinearCost::new(0.2).unwrap().relative_costs(&[]).is_err());
    }
}
