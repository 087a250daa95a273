//! Customer-side routing with tier tags (paper §5.1): when the upstream
//! publishes tier-tagged routes with honest per-tier prices, a customer
//! with its own backbone re-routes expensive traffic "cold potato" and
//! saves money — while the ISP keeps the traffic it is competitive for.
//!
//! ```text
//! cargo run --example cold_potato
//! ```

use std::net::Ipv4Addr;

use tiered_transit::routing::{
    BackboneOption, Egress, EgressPolicy, Ipv4Prefix, Match, Rib, RouteAnnouncement, TaggingPolicy,
    TierRate, TierTag,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The upstream configures a route-map-style tagging policy…
    let tagging = TaggingPolicy::new(64_500)
        .rule(Match::PathLenAtMost(1), TierTag(0)) // its own customers
        .rule(
            Match::PrefixWithin("100.64.0.0/10".parse::<Ipv4Prefix>()?),
            TierTag(1),
        ) // regional routes
        .rule(Match::Any, TierTag(2)); // global transit

    // …and announces its table through it.
    let next_hop = Ipv4Addr::new(10, 0, 0, 1);
    let mut rib = Rib::new();
    let announcements = [
        ("100.64.10.0/24", vec![64_501u32]),      // customer → tier 0
        ("100.64.20.0/24", vec![64_500, 64_502]), // regional → tier 1
        ("142.250.0.0/15", vec![3_356, 15_169]),  // global → tier 2
        ("0.0.0.0/0", vec![3_356, 1_299, 2_914]), // default → tier 2
    ];
    println!("upstream announces (tagged by policy):");
    for (prefix, path) in announcements {
        let route = tagging.apply(RouteAnnouncement::new(
            prefix.parse::<Ipv4Prefix>()?,
            path,
            next_hop,
        ));
        println!(
            "  {prefix:<18} tier {}",
            route.tier().map(|t| t.0.to_string()).unwrap_or("-".into())
        );
        rib.announce(route);
    }

    // The published price list.
    let rates = [
        TierRate {
            tier: TierTag(0),
            dollars_per_mbps: 5.0,
        },
        TierRate {
            tier: TierTag(1),
            dollars_per_mbps: 11.0,
        },
        TierRate {
            tier: TierTag(2),
            dollars_per_mbps: 24.0,
        },
    ];
    println!("\nprice list: tier0 $5, tier1 $11, tier2 $24 per Mbps/month");

    // The customer has backbone presence near two remote exchanges.
    let mut policy = EgressPolicy::new(&rates);
    let google = Ipv4Addr::new(142, 250, 1, 1);
    let elsewhere = Ipv4Addr::new(203, 0, 113, 50);
    policy.add_backbone_option(
        google,
        BackboneOption {
            haul_cost: 3.0,
            handoff_price: 6.0,
        }, // $9 vs $24
    );
    policy.add_backbone_option(
        elsewhere,
        BackboneOption {
            haul_cost: 9.0,
            handoff_price: 18.0,
        }, // $27 vs $24
    );

    let traffic = [
        (Ipv4Addr::new(100, 64, 10, 7), 300.0), // tier 0
        (Ipv4Addr::new(100, 64, 20, 9), 120.0), // tier 1
        (google, 400.0),                        // tier 2, backbone option
        (elsewhere, 80.0),                      // tier 2, bad option
    ];
    let plan = policy.plan(&rib, &traffic);

    println!(
        "\n{:<18} {:>7}  {:<34} {:>10}",
        "destination", "Mbps", "egress", "saving/mo"
    );
    for d in &plan.decisions {
        let egress = match d.egress {
            Egress::HotPotato { tier, price } => {
                format!("hot potato via upstream (tier {}, ${price})", tier.0)
            }
            Egress::ColdPotato { unit_cost } => {
                format!("cold potato over own backbone (${unit_cost})")
            }
            Egress::Unroutable => "unroutable".into(),
        };
        println!(
            "{:<18} {:>7.0}  {:<34} {:>9.0}$",
            d.dst.to_string(),
            d.mbps,
            egress,
            d.saving
        );
    }
    println!(
        "\ntotal monthly transit spend ${:.0}; cold-potato saving ${:.0}",
        plan.total_cost, plan.total_saving
    );
    println!("Only the route where the customer's own haul beats the tier price");
    println!("moves off the upstream — exactly the §5.1 incentive story.");
    Ok(())
}
