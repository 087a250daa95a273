//! Quickstart: fit a market to observed traffic and find out how many
//! pricing tiers you need.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use tiered_transit::core::bundling::StrategyKind;
use tiered_transit::core::capture::capture_curve;
use tiered_transit::core::cost::LinearCost;
use tiered_transit::core::demand::ced::CedAlpha;
use tiered_transit::core::fitting::fit_ced;
use tiered_transit::core::flow::TrafficFlow;
use tiered_transit::core::market::{CedMarket, TransitMarket};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Step 1: your measured traffic — per-flow demand (Mbps) at today's
    // blended rate, and the distance each flow travels (miles).
    let flows = vec![
        TrafficFlow::new(0, 400.0, 8.0),  // heavy metro flow
        TrafficFlow::new(1, 150.0, 45.0), // regional
        TrafficFlow::new(2, 90.0, 120.0), // national
        TrafficFlow::new(3, 35.0, 300.0),
        TrafficFlow::new(4, 20.0, 700.0),
        TrafficFlow::new(5, 12.0, 1200.0), // international
        TrafficFlow::new(6, 6.0, 2500.0),
        TrafficFlow::new(7, 2.0, 4800.0), // long-haul tail
    ];

    // Step 2: pick a cost model and fit the demand model. The fit assumes
    // you currently charge one blended rate ($20/Mbps/month here) and
    // that this rate is profit-maximizing — which pins down per-flow
    // valuations and the cost scale (paper §4.1).
    let cost_model = LinearCost::new(0.2)?;
    let blended_rate = 20.0;
    let fit = fit_ced(&flows, &cost_model, CedAlpha::new(1.1)?, blended_rate)?;
    let market = CedMarket::new(fit)?;

    println!(
        "Fitted market: {} flows at P0 = ${blended_rate}/Mbps/month",
        market.n_flows()
    );
    println!("  status-quo profit:  ${:.2}", market.original_profit());
    println!(
        "  profit ceiling:     ${:.2} (every flow priced individually)",
        market.max_profit()
    );
    println!();

    // Step 3: how much of that ceiling do k tiers capture?
    println!("tiers  capture  profit   tier prices ($/Mbps)");
    let strategy = StrategyKind::ProfitWeighted.build();
    let curve = capture_curve(&market, strategy.as_ref(), 5)?;
    for (i, &b) in curve.n_bundles.iter().enumerate() {
        let bundling = strategy.bundle(&market, b)?;
        let prices: Vec<String> = market
            .bundle_prices(&bundling)?
            .iter()
            .flatten()
            .map(|p| format!("{p:.2}"))
            .collect();
        println!(
            "{b:>5}  {:>6.1}%  ${:<7.2} [{}]",
            curve.capture[i] * 100.0,
            curve.profit[i],
            prices.join(", ")
        );
    }
    println!();
    println!("The paper's headline: 3-4 well-chosen tiers capture ~90% of what");
    println!("infinitely fine-grained pricing ever could (SIGCOMM 2011, §4.2.2).");
    Ok(())
}
