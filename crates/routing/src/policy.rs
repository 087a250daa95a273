//! Customer-side routing policy driven by tier tags (§5.1).
//!
//! "The customer can then use the tag to make routing decisions. For
//! example, if a route is tagged as an expensive long-distance route, the
//! customer might choose to use its own backbone to get closer to [the]
//! destination instead of performing the default 'hot-potato' routing."
//!
//! [`EgressPolicy`] models that choice: for every destination the
//! customer knows (a) the upstream's tier price from the tagged route and
//! (b) the amortized unit cost of hauling the traffic over its own
//! backbone to a cheaper hand-off point (if it has one). Per destination
//! it picks the cheaper egress; [`EgressPlan`] reports the decisions and
//! the monthly savings relative to all-hot-potato.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use serde::Serialize;

use crate::accounting::TierRate;
use crate::bgp::{Rib, TierTag};

/// How a destination's traffic leaves the customer's network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum Egress {
    /// Hand off to the upstream immediately (default hot-potato) and pay
    /// the destination's tier price.
    HotPotato {
        /// The tier being paid for.
        tier: TierTag,
        /// Its price, $/Mbps/month.
        price: f64,
    },
    /// Carry the traffic on the customer's own backbone to a hand-off
    /// where a cheaper tier (or peering) applies.
    ColdPotato {
        /// Total unit cost of the backbone haul plus the remote hand-off,
        /// $/Mbps/month.
        unit_cost: f64,
    },
    /// No tagged route and no backbone option: the traffic is unroutable
    /// under this policy (falls back to any default the caller keeps).
    Unroutable,
}

/// A backbone alternative for some destinations: hauling internally
/// costs `haul_cost` per Mbps and the remote hand-off is billed at
/// `handoff_price` per Mbps.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct BackboneOption {
    /// Amortized internal transport cost, $/Mbps/month.
    pub haul_cost: f64,
    /// Price paid at the remote hand-off point, $/Mbps/month.
    pub handoff_price: f64,
}

impl BackboneOption {
    /// Total unit cost of the cold-potato path.
    pub fn unit_cost(&self) -> f64 {
        self.haul_cost + self.handoff_price
    }
}

/// The customer's per-destination egress policy.
#[derive(Debug, Default)]
pub struct EgressPolicy {
    /// Tier prices quoted by the upstream.
    rates: BTreeMap<TierTag, f64>,
    /// Backbone alternatives per destination (exact-address granularity;
    /// a production system would key by prefix).
    backbone: BTreeMap<Ipv4Addr, BackboneOption>,
}

/// One destination's routing decision.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct EgressDecision {
    /// The destination.
    pub dst: Ipv4Addr,
    /// Traffic volume used for the savings computation, Mbps.
    pub mbps: f64,
    /// The chosen egress.
    pub egress: Egress,
    /// Monthly saving vs hot-potato, $ (zero when hot-potato chosen or no
    /// alternative exists).
    pub saving: f64,
}

/// A full egress plan over a set of destinations.
#[derive(Debug, Clone, Serialize)]
pub struct EgressPlan {
    /// Per-destination decisions.
    pub decisions: Vec<EgressDecision>,
    /// Total monthly spend under the plan, $.
    pub total_cost: f64,
    /// Total monthly saving vs all-hot-potato, $.
    pub total_saving: f64,
}

impl EgressPolicy {
    /// Creates a policy from the upstream's tier price list.
    pub fn new(rates: &[TierRate]) -> EgressPolicy {
        EgressPolicy {
            rates: rates.iter().map(|r| (r.tier, r.dollars_per_mbps)).collect(),
            backbone: BTreeMap::new(),
        }
    }

    /// Registers a backbone alternative for a destination.
    pub fn add_backbone_option(&mut self, dst: Ipv4Addr, option: BackboneOption) {
        self.backbone.insert(dst, option);
    }

    /// Number of destinations with a backbone alternative.
    pub fn backbone_options(&self) -> usize {
        self.backbone.len()
    }

    /// Decides the egress for one destination given the tagged RIB.
    pub fn decide(&self, rib: &Rib, dst: Ipv4Addr) -> Egress {
        let hot = rib
            .tier_for(dst)
            .and_then(|tier| self.rates.get(&tier).map(|&price| (tier, price)));
        let cold = self.backbone.get(&dst).map(BackboneOption::unit_cost);
        match (hot, cold) {
            (Some((tier, price)), Some(cold_cost)) => {
                if cold_cost < price {
                    Egress::ColdPotato {
                        unit_cost: cold_cost,
                    }
                } else {
                    Egress::HotPotato { tier, price }
                }
            }
            (Some((tier, price)), None) => Egress::HotPotato { tier, price },
            (None, Some(cold_cost)) => Egress::ColdPotato {
                unit_cost: cold_cost,
            },
            (None, None) => Egress::Unroutable,
        }
    }

    /// Plans egress for a traffic mix of `(dst, mbps)` pairs.
    pub fn plan(&self, rib: &Rib, traffic: &[(Ipv4Addr, f64)]) -> EgressPlan {
        let mut decisions = Vec::with_capacity(traffic.len());
        let mut total_cost = 0.0;
        let mut total_saving = 0.0;
        for &(dst, mbps) in traffic {
            let egress = self.decide(rib, dst);
            let hot_price = rib.tier_for(dst).and_then(|t| self.rates.get(&t)).copied();
            let (cost, saving) = match (egress, hot_price) {
                (Egress::HotPotato { price, .. }, _) => (price * mbps, 0.0),
                (Egress::ColdPotato { unit_cost }, Some(hot)) => {
                    (unit_cost * mbps, (hot - unit_cost).max(0.0) * mbps)
                }
                (Egress::ColdPotato { unit_cost }, None) => (unit_cost * mbps, 0.0),
                (Egress::Unroutable, _) => (0.0, 0.0),
            };
            total_cost += cost;
            total_saving += saving;
            decisions.push(EgressDecision {
                dst,
                mbps,
                egress,
                saving,
            });
        }
        EgressPlan {
            decisions,
            total_cost,
            total_saving,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::RouteAnnouncement;
    use crate::prefix::Ipv4Prefix;

    fn rib() -> Rib {
        let hop = Ipv4Addr::new(10, 0, 0, 1);
        let mut rib = Rib::new();
        rib.announce(
            RouteAnnouncement::new("20.0.0.0/8".parse::<Ipv4Prefix>().unwrap(), vec![1], hop)
                .with_tier(64_500, TierTag(0)), // cheap local tier
        );
        rib.announce(
            RouteAnnouncement::new("0.0.0.0/0".parse::<Ipv4Prefix>().unwrap(), vec![1, 2], hop)
                .with_tier(64_500, TierTag(1)), // expensive long-haul tier
        );
        rib
    }

    fn rates() -> Vec<TierRate> {
        vec![
            TierRate {
                tier: TierTag(0),
                dollars_per_mbps: 6.0,
            },
            TierRate {
                tier: TierTag(1),
                dollars_per_mbps: 25.0,
            },
        ]
    }

    #[test]
    fn defaults_to_hot_potato() {
        let policy = EgressPolicy::new(&rates());
        let egress = policy.decide(&rib(), Ipv4Addr::new(20, 1, 1, 1));
        assert_eq!(
            egress,
            Egress::HotPotato {
                tier: TierTag(0),
                price: 6.0
            }
        );
    }

    #[test]
    fn expensive_tier_triggers_cold_potato() {
        let mut policy = EgressPolicy::new(&rates());
        let far = Ipv4Addr::new(200, 1, 1, 1); // tier 1 at $25
        policy.add_backbone_option(
            far,
            BackboneOption {
                haul_cost: 4.0,
                handoff_price: 7.0, // total $11 < $25
            },
        );
        match policy.decide(&rib(), far) {
            Egress::ColdPotato { unit_cost } => assert!((unit_cost - 11.0).abs() < 1e-12),
            other => panic!("expected cold potato, got {other:?}"),
        }
    }

    #[test]
    fn cheap_tier_not_worth_the_backbone() {
        let mut policy = EgressPolicy::new(&rates());
        let near = Ipv4Addr::new(20, 1, 1, 1); // tier 0 at $6
        policy.add_backbone_option(
            near,
            BackboneOption {
                haul_cost: 4.0,
                handoff_price: 7.0, // total $11 > $6
            },
        );
        assert!(matches!(
            policy.decide(&rib(), near),
            Egress::HotPotato { .. }
        ));
    }

    #[test]
    fn unroutable_without_route_or_backbone() {
        let policy = EgressPolicy::new(&rates());
        let mut empty_rib = Rib::new();
        // A route with no tier tag also yields no hot-potato price.
        empty_rib.announce(RouteAnnouncement::new(
            "0.0.0.0/0".parse::<Ipv4Prefix>().unwrap(),
            vec![1],
            Ipv4Addr::new(10, 0, 0, 1),
        ));
        assert_eq!(
            policy.decide(&empty_rib, Ipv4Addr::new(8, 8, 8, 8)),
            Egress::Unroutable
        );
    }

    #[test]
    fn plan_totals_costs_and_savings() {
        let mut policy = EgressPolicy::new(&rates());
        let far = Ipv4Addr::new(200, 1, 1, 1);
        policy.add_backbone_option(
            far,
            BackboneOption {
                haul_cost: 4.0,
                handoff_price: 7.0,
            },
        );
        let traffic = [
            (Ipv4Addr::new(20, 1, 1, 1), 100.0), // hot at $6 → $600
            (far, 50.0),                         // cold at $11 → $550, saves (25-11)*50=$700
        ];
        let plan = policy.plan(&rib(), &traffic);
        assert!((plan.total_cost - (600.0 + 550.0)).abs() < 1e-9);
        assert!((plan.total_saving - 700.0).abs() < 1e-9);
        assert_eq!(plan.decisions.len(), 2);
        assert!((plan.decisions[1].saving - 700.0).abs() < 1e-9);
    }

    #[test]
    fn plan_never_exceeds_all_hot_potato_cost() {
        // Whatever alternatives exist, the planned cost is at most the
        // all-hot-potato cost (the policy only switches when cheaper).
        let mut policy = EgressPolicy::new(&rates());
        for i in 0..20u8 {
            policy.add_backbone_option(
                Ipv4Addr::new(200, i, 0, 1),
                BackboneOption {
                    haul_cost: (i as f64) * 2.0,
                    handoff_price: 5.0,
                },
            );
        }
        let traffic: Vec<(Ipv4Addr, f64)> = (0..20u8)
            .map(|i| (Ipv4Addr::new(200, i, 0, 1), 10.0))
            .collect();
        let plan = policy.plan(&rib(), &traffic);
        let all_hot: f64 = traffic.iter().map(|&(_, mbps)| 25.0 * mbps).sum();
        assert!(plan.total_cost <= all_hot + 1e-9);
        assert!((all_hot - plan.total_cost - plan.total_saving).abs() < 1e-9);
    }
}
