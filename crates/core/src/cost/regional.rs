//! Regional cost model (paper §3.3, "Function of destination region").
//!
//! Flows fall into three categories — metropolitan, national, international
//! — with relative costs `c_metro = gamma`, `c_nation = gamma·2^theta`,
//! `c_int = gamma·3^theta`. This is the unique reading of the paper's
//! "γ2θ / γ3θ" notation consistent with its own description of the
//! parameter: `theta = 0` means "no cost difference between regions" (all
//! ranks collapse to 1), `theta = 1` means "cost differences are linear"
//! (1 : 2 : 3), and `theta > 1` means "costs are different by magnitudes"
//! (power-law separation).

use super::{check_costs, CostModel};
use crate::error::{Result, TransitError};
use crate::flow::TrafficFlow;

/// Regional step cost: `f = k^theta`, `k ∈ {1, 2, 3}` for
/// metro/national/international.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionalCost {
    theta: f64,
}

impl RegionalCost {
    /// Creates the model; `theta` must be finite and non-negative (the
    /// paper sweeps 1.0–1.2; `theta = 0` is the degenerate equal-cost
    /// case).
    pub fn new(theta: f64) -> Result<RegionalCost> {
        if theta.is_finite() && theta >= 0.0 {
            Ok(RegionalCost { theta })
        } else {
            Err(TransitError::InvalidParameter {
                name: "theta",
                value: theta,
                expected: "a finite exponent >= 0",
            })
        }
    }
}

impl CostModel for RegionalCost {
    fn name(&self) -> &'static str {
        "regional"
    }

    fn theta(&self) -> f64 {
        self.theta
    }

    fn relative_costs(&self, flows: &[TrafficFlow]) -> Result<Vec<f64>> {
        crate::flow::validate_flows(flows)?;
        let costs: Vec<f64> = flows
            .iter()
            .map(|f| (f.region.cost_rank() as f64).powf(self.theta))
            .collect();
        check_costs(flows, &costs)?;
        Ok(costs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Region;

    fn one_per_region() -> Vec<TrafficFlow> {
        vec![
            TrafficFlow::new(0, 1.0, 5.0).with_region(Region::Metro),
            TrafficFlow::new(1, 1.0, 50.0).with_region(Region::National),
            TrafficFlow::new(2, 1.0, 5000.0).with_region(Region::International),
        ]
    }

    #[test]
    fn theta_zero_equalizes_costs() {
        let costs = RegionalCost::new(0.0)
            .unwrap()
            .relative_costs(&one_per_region())
            .unwrap();
        assert_eq!(costs, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn theta_one_gives_linear_ranks() {
        let costs = RegionalCost::new(1.0)
            .unwrap()
            .relative_costs(&one_per_region())
            .unwrap();
        assert_eq!(costs, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn theta_above_one_separates_by_magnitudes() {
        let costs = RegionalCost::new(3.0)
            .unwrap()
            .relative_costs(&one_per_region())
            .unwrap();
        assert_eq!(costs, vec![1.0, 8.0, 27.0]);
        // International/metro ratio grows superlinearly vs theta=1.
        assert!(costs[2] / costs[0] > 3.0);
    }

    #[test]
    fn uses_flow_region_not_distance() {
        // A long-distance flow explicitly tagged metro must be costed metro.
        let flows = vec![TrafficFlow::new(0, 1.0, 5000.0).with_region(Region::Metro)];
        let costs = RegionalCost::new(1.0)
            .unwrap()
            .relative_costs(&flows)
            .unwrap();
        assert_eq!(costs, vec![1.0]);
    }

    #[test]
    fn rejects_invalid_theta() {
        assert!(RegionalCost::new(-1.0).is_err());
        assert!(RegionalCost::new(f64::NAN).is_err());
    }
}
