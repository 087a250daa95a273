//! Direct peering economics: when does a CDN bypass its transit ISP, and
//! when is that bypass a market failure? (Paper §2.2.2 and Fig. 2.)
//!
//! ```text
//! cargo run --example direct_peering
//! ```

use tiered_transit::market::direct_peering::{
    sweep_direct_cost, DirectPeeringScenario, PeeringOutcome,
};

fn main() {
    // A CDN with a backbone to the NYC PoP pays a $20/Mbps blended rate
    // for everything — including cheap NYC→Boston flows that cost the ISP
    // only $4/Mbps to carry. The CDN periodically re-evaluates whether a
    // private link to the Boston IXP would be cheaper.
    let base = DirectPeeringScenario {
        blended_rate: 20.0,
        isp_cost: 4.0,
        margin: 0.30,             // the ISP would happily take 30%
        accounting_overhead: 0.5, // tiered pricing's bookkeeping cost
        direct_cost: 0.0,
    };
    let tiered_price = (base.margin + 1.0) * base.isp_cost + base.accounting_overhead;

    println!(
        "Blended rate R = ${}/Mbps/mo; ISP cost for the local flows = ${}/Mbps/mo",
        base.blended_rate, base.isp_cost
    );
    println!("Under tiered pricing the ISP could profitably sell this traffic at ${tiered_price:.2}/Mbps/mo\n");

    println!(
        "{:>20} | {:<18} | interpretation",
        "CDN's direct cost", "decision"
    );
    println!("{:->20}-+-{:-<18}-+-{:-<40}", "", "", "");
    let costs = [2.0, 4.0, 5.7, 6.0, 10.0, 15.0, 19.0, 20.0, 25.0];
    for eval in sweep_direct_cost(base, &costs) {
        let (decision, why) = match eval.outcome {
            PeeringOutcome::StayWithTransit => {
                ("buy transit", "the ISP is the cheapest option".to_string())
            }
            PeeringOutcome::EfficientBypass => (
                "build the link",
                "cheaper than any price the ISP could offer".to_string(),
            ),
            PeeringOutcome::MarketFailure => (
                "build the link",
                format!(
                    "MARKET FAILURE: ISP could have charged ${:.2}",
                    eval.tiered_price
                ),
            ),
        };
        println!(
            "{:>17.2} $ | {:<18} | {}",
            eval.scenario.direct_cost, decision, why
        );
    }

    println!();
    println!("Every row marked MARKET FAILURE is blended pricing's fault: the CDN");
    println!("burns more money on its own fiber than the ISP's actual cost plus a");
    println!("healthy margin — revenue the ISP loses and capacity the economy");
    println!("duplicates. Tiered pricing for the local flows retains that traffic.");
}
