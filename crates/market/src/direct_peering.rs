//! Direct peering economics: the Fig. 2 scenario (§2.2.2).
//!
//! A customer (e.g. a CDN with a backbone to the NYC PoP) pays a blended
//! rate `R` for all traffic, including cheap local flows to a nearby IXP.
//! It will procure a private link when the amortized cost `c_direct < R`.
//! The paper calls the bypass a *market failure* when
//! `c_direct > (M + 1)·c_ISP + A`: the customer deploys capacity at a
//! higher cost than the ISP could have charged for that traffic under
//! tiered pricing (margin `M` plus flow-accounting overhead `A`).

use serde::Serialize;

/// Inputs of the bypass decision.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct DirectPeeringScenario {
    /// Blended rate the ISP charges, $/Mbps/month.
    pub blended_rate: f64,
    /// ISP's own unit cost of carrying the local flows, $/Mbps/month.
    pub isp_cost: f64,
    /// ISP profit margin `M` (e.g. 0.3 = 30%).
    pub margin: f64,
    /// Per-unit flow-accounting overhead `A` of tiered pricing.
    pub accounting_overhead: f64,
    /// Customer's amortized cost of the direct link, $/Mbps/month.
    pub direct_cost: f64,
}

/// The customer's decision and its efficiency classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PeeringOutcome {
    /// `c_direct >= R`: cheaper to keep buying transit.
    StayWithTransit,
    /// Bypass happens and is efficient: the direct link is cheaper than
    /// anything the ISP could profitably offer
    /// (`c_direct <= (M+1)·c_ISP + A`).
    EfficientBypass,
    /// Bypass happens although the ISP could have served the traffic
    /// profitably below `c_direct` under tiered pricing — the §2.2.2
    /// market failure caused by blended-rate pricing.
    MarketFailure,
}

/// The full evaluation of one scenario.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PeeringEvaluation {
    /// The inputs.
    pub scenario: DirectPeeringScenario,
    /// The decision/classification.
    pub outcome: PeeringOutcome,
    /// The tiered price the ISP could offer for the local traffic,
    /// `(M+1)·c_ISP + A`.
    pub tiered_price: f64,
    /// Monthly revenue the ISP loses per Mbps if the customer bypasses.
    pub revenue_loss_per_mbps: f64,
}

impl DirectPeeringScenario {
    /// Evaluates the bypass decision.
    pub fn evaluate(&self) -> PeeringEvaluation {
        let tiered_price = (self.margin + 1.0) * self.isp_cost + self.accounting_overhead;
        let outcome = if self.direct_cost >= self.blended_rate {
            PeeringOutcome::StayWithTransit
        } else if self.direct_cost > tiered_price {
            PeeringOutcome::MarketFailure
        } else {
            PeeringOutcome::EfficientBypass
        };
        let revenue_loss_per_mbps = match outcome {
            PeeringOutcome::StayWithTransit => 0.0,
            _ => self.blended_rate,
        };
        PeeringEvaluation {
            scenario: *self,
            outcome,
            tiered_price,
            revenue_loss_per_mbps,
        }
    }

    /// The blended-rate threshold below which this customer stays: the
    /// bypass happens for any `R > c_direct`.
    pub fn retention_rate(&self) -> f64 {
        self.direct_cost
    }
}

/// Sweeps the direct-link cost over a range, classifying each point —
/// the data behind the Fig. 2 narrative (and the `direct_peering`
/// example).
pub fn sweep_direct_cost(base: DirectPeeringScenario, costs: &[f64]) -> Vec<PeeringEvaluation> {
    costs
        .iter()
        .map(|&c| {
            DirectPeeringScenario {
                direct_cost: c,
                ..base
            }
            .evaluate()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> DirectPeeringScenario {
        DirectPeeringScenario {
            blended_rate: 20.0,
            isp_cost: 4.0,
            margin: 0.3,
            accounting_overhead: 0.5,
            direct_cost: 10.0,
        }
    }

    #[test]
    fn expensive_direct_link_stays_with_transit() {
        let eval = DirectPeeringScenario {
            direct_cost: 25.0,
            ..base()
        }
        .evaluate();
        assert_eq!(eval.outcome, PeeringOutcome::StayWithTransit);
        assert_eq!(eval.revenue_loss_per_mbps, 0.0);
    }

    #[test]
    fn moderately_cheap_link_is_market_failure() {
        // tiered price = 1.3*4 + 0.5 = 5.7; direct at 10 < R=20 but > 5.7.
        let eval = base().evaluate();
        assert!((eval.tiered_price - 5.7).abs() < 1e-12);
        assert_eq!(eval.outcome, PeeringOutcome::MarketFailure);
        assert_eq!(eval.revenue_loss_per_mbps, 20.0);
    }

    #[test]
    fn very_cheap_link_is_efficient_bypass() {
        let eval = DirectPeeringScenario {
            direct_cost: 3.0,
            ..base()
        }
        .evaluate();
        assert_eq!(eval.outcome, PeeringOutcome::EfficientBypass);
    }

    #[test]
    fn boundary_at_blended_rate() {
        let stay = DirectPeeringScenario {
            direct_cost: 20.0,
            ..base()
        }
        .evaluate();
        assert_eq!(stay.outcome, PeeringOutcome::StayWithTransit);
        let bypass = DirectPeeringScenario {
            direct_cost: 19.999,
            ..base()
        }
        .evaluate();
        assert_ne!(bypass.outcome, PeeringOutcome::StayWithTransit);
    }

    #[test]
    fn sweep_partitions_into_three_regimes_in_order() {
        let costs: Vec<f64> = (1..=30).map(|i| i as f64).collect();
        let evals = sweep_direct_cost(base(), &costs);
        // Efficient bypass at the cheap end, failure in the middle, stay
        // at the expensive end — in that order, with all three present.
        let kinds: Vec<PeeringOutcome> = evals.iter().map(|e| e.outcome).collect();
        assert_eq!(kinds.first(), Some(&PeeringOutcome::EfficientBypass));
        assert_eq!(kinds.last(), Some(&PeeringOutcome::StayWithTransit));
        assert!(kinds.contains(&PeeringOutcome::MarketFailure));
        // Monotone regime boundaries.
        let first_failure = kinds
            .iter()
            .position(|k| *k == PeeringOutcome::MarketFailure);
        let first_stay = kinds
            .iter()
            .position(|k| *k == PeeringOutcome::StayWithTransit);
        assert!(first_failure < first_stay);
    }

    #[test]
    fn zero_overhead_zero_margin_tiered_price_is_cost() {
        let eval = DirectPeeringScenario {
            margin: 0.0,
            accounting_overhead: 0.0,
            ..base()
        }
        .evaluate();
        assert!((eval.tiered_price - 4.0).abs() < 1e-12);
    }
}
