//! Capacity planning for a re-pricing: tiered prices shift traffic
//! (cheap tiers grow, expensive tiers shrink), and the backbone feels it.
//! This example prices the Internet2-like network into 3 optimal tiers,
//! computes the CED demand response, and routes before/after traffic
//! over the real Abilene topology to compare link utilizations.
//!
//! ```text
//! cargo run --example capacity_planning
//! ```

use tiered_transit::core::bundling::StrategyKind;
use tiered_transit::core::cost::LinearCost;
use tiered_transit::core::demand::ced;
use tiered_transit::core::demand::ced::CedAlpha;
use tiered_transit::core::fitting::fit_ced;
use tiered_transit::core::market::CedMarket;
use tiered_transit::datasets::{generate, Network};
use tiered_transit::market::welfare::per_flow_prices;
use tiered_transit::topology::{internet2, route_demands, Demand};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = generate(Network::Internet2, 120, 5);
    let topology = internet2();

    // Fit + choose 3 optimal tiers.
    let cost_model = LinearCost::new(0.2)?;
    let alpha = CedAlpha::new(1.3)?;
    let market = CedMarket::new(fit_ced(&dataset.flows, &cost_model, alpha, 20.0)?)?;
    let strategy = StrategyKind::Optimal.build();
    let bundling = strategy.bundle(&market, 3)?;
    let prices = per_flow_prices(&market, &bundling)?;

    // Traffic before (observed) and after (CED response at tier prices),
    // attached to the topology by the dataset's endpoint cities.
    let to_demand = |mbps_of: &dyn Fn(usize) -> f64| -> Vec<Demand> {
        dataset
            .flows
            .iter()
            .enumerate()
            .filter_map(|(i, _)| {
                let (src_city, dst_city) = &dataset.cities[i];
                let src = topology.pop_by_name(src_city)?;
                let dst = topology.pop_by_name(dst_city)?;
                Some(Demand {
                    src,
                    dst,
                    mbps: mbps_of(i),
                })
            })
            .collect()
    };
    let fit = market.fit();
    let before = to_demand(&|i| fit.demands[i]);
    let after = to_demand(&|i| {
        ced::quantity(fit.valuations[i], prices[i], alpha).expect("fitted values valid")
    });

    let report_before = route_demands(&topology, &before);
    let report_after = route_demands(&topology, &after);

    println!(
        "3-tier re-pricing of the Internet2-like network ({} flows)\n",
        before.len()
    );
    println!(
        "{:<28} {:>12} {:>12} {:>8}",
        "link", "before Mbps", "after Mbps", "delta"
    );
    for (b, a) in report_before.loads.iter().zip(&report_after.loads) {
        if b.mbps < 1.0 && a.mbps < 1.0 {
            continue;
        }
        println!(
            "{:<28} {:>12.0} {:>12.0} {:>+7.1}%",
            format!("{} — {}", b.endpoints.0, b.endpoints.1),
            b.mbps,
            a.mbps,
            (a.mbps - b.mbps) / b.mbps.max(1.0) * 100.0
        );
    }
    println!(
        "\nvolume-miles: {:.2e} → {:.2e} ({:+.1}%)",
        report_before.volume_miles,
        report_after.volume_miles,
        (report_after.volume_miles - report_before.volume_miles) / report_before.volume_miles
            * 100.0
    );
    if let (Some(hb), Some(ha)) = (report_before.hotspot(), report_after.hotspot()) {
        println!(
            "hotspot: {} — {} at {:.1}% → {} — {} at {:.1}%",
            hb.endpoints.0,
            hb.endpoints.1,
            hb.utilization * 100.0,
            ha.endpoints.0,
            ha.endpoints.1,
            ha.utilization * 100.0
        );
    }
    println!("\nTiered prices steer consumption toward cheap (short) paths, so");
    println!("volume-miles per delivered Mbps falls — the efficiency gain of");
    println!("Fig. 1, seen from the capacity-planning side.");
    Ok(())
}
