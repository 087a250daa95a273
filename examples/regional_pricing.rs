//! Regional pricing: a European transit ISP structures
//! metro/national/international tiers (paper §2.1 "Regional pricing" and
//! the §3.3 regional cost model).
//!
//! ```text
//! cargo run --example regional_pricing
//! ```

use std::collections::BTreeMap;

use tiered_transit::core::bundling::StrategyKind;
use tiered_transit::core::capture::capture_for_strategy;
use tiered_transit::core::cost::RegionalCost;
use tiered_transit::core::demand::ced::CedAlpha;
use tiered_transit::core::fitting::fit_ced;
use tiered_transit::core::flow::Region;
use tiered_transit::core::market::{CedMarket, TransitMarket};
use tiered_transit::datasets::{generate, Network};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The synthetic EU transit ISP from the paper's Table 1.
    let dataset = generate(Network::EuIsp, 300, 7);
    println!(
        "EU ISP: {} flows, {:.1} Gbps aggregate",
        dataset.flows.len(),
        dataset.flows.iter().map(|f| f.demand_mbps).sum::<f64>() / 1000.0
    );

    let mut by_region: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
    for f in &dataset.flows {
        let name = match f.region {
            Region::Metro => "metro",
            Region::National => "national",
            Region::International => "international",
        };
        let e = by_region.entry(name).or_default();
        e.0 += 1;
        e.1 += f.demand_mbps;
    }
    for (region, (count, mbps)) in &by_region {
        println!("  {region:<14} {count:>4} flows  {:>8.1} Mbps", mbps);
    }
    println!();

    // Regional cost model with linear region separation (theta = 1:
    // metro : national : international costs are 1 : 2 : 3).
    let cost_model = RegionalCost::new(1.0)?;
    let fit = fit_ced(&dataset.flows, &cost_model, CedAlpha::new(1.1)?, 20.0)?;
    let market = CedMarket::new(fit)?;

    // Compare tier structures the ISP could sell.
    println!("strategy               tiers  capture  tier prices ($/Mbps/mo)");
    for kind in [
        StrategyKind::CostWeighted,
        StrategyKind::ProfitWeighted,
        StrategyKind::Optimal,
    ] {
        for tiers in [2usize, 3] {
            let strategy = kind.build();
            let outcome = capture_for_strategy(&market, strategy.as_ref(), tiers)?;
            let bundling = strategy.bundle(&market, tiers)?;
            let prices: Vec<String> = market
                .bundle_prices(&bundling)?
                .iter()
                .flatten()
                .map(|p| format!("{p:.2}"))
                .collect();
            println!(
                "{:<22} {tiers:>5}  {:>6.1}%  [{}]",
                kind.label(),
                outcome.capture * 100.0,
                prices.join(", ")
            );
        }
    }
    println!();
    println!("With few distinct cost classes, a couple of well-placed tiers");
    println!("capture all attainable profit (Optimal hits 100% at 2 tiers), while");
    println!("weight-based heuristics that mix classes inside a bundle leave money");
    println!("on the table — the paper's motivation for judicious, class-aware");
    println!("bundling on class-structured cost models (§4.3.1, Fig. 12).");
    Ok(())
}
