//! Consumer surplus and social welfare accounting (§2.2.1).
//!
//! The paper defines an ISP's profit as revenue minus cost and customer
//! surplus as utility minus payment, and argues (Fig. 1) that tiered
//! pricing raises *both* — a market-efficiency gain, not a transfer. This
//! module computes those quantities for fitted markets under any bundling.

use serde::Serialize;
use transit_core::bundling::Bundling;
use transit_core::demand::{ced, logit};
use transit_core::error::Result;
use transit_core::market::{CedMarket, LogitMarket, TransitMarket};

/// Profit, surplus, and welfare of one pricing configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WelfareReport {
    /// ISP profit (revenue − cost).
    pub profit: f64,
    /// Consumer surplus (utility − payment).
    pub consumer_surplus: f64,
    /// Social welfare (profit + surplus).
    pub welfare: f64,
}

/// Welfare of a CED market at explicit per-flow prices.
pub fn ced_welfare_at_prices(market: &CedMarket, prices: &[f64]) -> Result<WelfareReport> {
    let fit = market.fit();
    let profit = ced::total_profit(&fit.valuations, prices, &fit.costs, fit.alpha)?;
    let mut surplus = 0.0;
    for (&v, &p) in fit.valuations.iter().zip(prices) {
        surplus += ced::consumer_surplus(v, p, fit.alpha)?;
    }
    Ok(WelfareReport {
        profit,
        consumer_surplus: surplus,
        welfare: profit + surplus,
    })
}

/// Welfare of a logit market at explicit per-flow prices.
pub fn logit_welfare_at_prices(market: &LogitMarket, prices: &[f64]) -> Result<WelfareReport> {
    let fit = market.fit();
    let profit = logit::total_profit(
        &fit.valuations,
        prices,
        &fit.costs,
        fit.alpha,
        fit.consumers,
    )?;
    let consumer_surplus =
        logit::consumer_surplus(&fit.valuations, prices, fit.alpha, fit.consumers)?;
    Ok(WelfareReport {
        profit,
        consumer_surplus,
        welfare: profit + consumer_surplus,
    })
}

/// Expands a bundling's optimal per-bundle prices to per-flow prices.
pub fn per_flow_prices(market: &dyn TransitMarket, bundling: &Bundling) -> Result<Vec<f64>> {
    let bundle_prices = market.bundle_prices(bundling)?;
    Ok(bundling
        .assignment()
        .iter()
        .map(|&b| bundle_prices[b].expect("own bundle is non-empty"))
        .collect())
}

/// Welfare of a CED market under a bundling with optimal tier prices.
pub fn ced_welfare(market: &CedMarket, bundling: &Bundling) -> Result<WelfareReport> {
    let prices = per_flow_prices(market, bundling)?;
    ced_welfare_at_prices(market, &prices)
}

/// Welfare of a logit market under a bundling with optimal tier prices.
pub fn logit_welfare(market: &LogitMarket, bundling: &Bundling) -> Result<WelfareReport> {
    let prices = per_flow_prices(market, bundling)?;
    logit_welfare_at_prices(market, &prices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use transit_core::cost::LinearCost;
    use transit_core::demand::ced::CedAlpha;
    use transit_core::demand::logit::LogitAlpha;
    use transit_core::fitting::{fit_ced, fit_logit};
    use transit_core::flow::TrafficFlow;

    fn flows() -> Vec<TrafficFlow> {
        (0..12)
            .map(|i| {
                let x = (i as f64 * 0.83).sin().abs() + 0.05;
                TrafficFlow::new(i, 5.0 + 200.0 * x, 3.0 + 900.0 * x * x)
            })
            .collect()
    }

    fn ced_market() -> CedMarket {
        CedMarket::new(
            fit_ced(
                &flows(),
                &LinearCost::new(0.2).unwrap(),
                CedAlpha::new(1.4).unwrap(),
                20.0,
            )
            .unwrap(),
        )
        .unwrap()
    }

    fn logit_market() -> LogitMarket {
        LogitMarket::new(
            fit_logit(
                &flows(),
                &LinearCost::new(0.2).unwrap(),
                LogitAlpha::new(1.1).unwrap(),
                20.0,
                0.2,
            )
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn welfare_is_profit_plus_surplus() {
        let m = ced_market();
        let single = Bundling::single(m.n_flows()).unwrap();
        let w = ced_welfare(&m, &single).unwrap();
        assert!((w.welfare - (w.profit + w.consumer_surplus)).abs() < 1e-9);
        assert!(w.profit > 0.0 && w.consumer_surplus > 0.0);
    }

    #[test]
    fn tiering_raises_both_profit_and_surplus_ced() {
        // Fig. 1's claim on a fitted market: moving from the blended rate
        // to optimal per-flow tiers raises profit AND consumer surplus.
        let m = ced_market();
        let blended = ced_welfare(&m, &Bundling::single(m.n_flows()).unwrap()).unwrap();
        let tiered = ced_welfare(&m, &Bundling::per_flow(m.n_flows()).unwrap()).unwrap();
        assert!(tiered.profit > blended.profit, "profit up");
        assert!(
            tiered.consumer_surplus > blended.consumer_surplus,
            "surplus up: {} vs {}",
            tiered.consumer_surplus,
            blended.consumer_surplus
        );
        assert!(tiered.welfare > blended.welfare, "welfare up");
    }

    #[test]
    fn logit_welfare_consistent_with_market_profit() {
        let m = logit_market();
        let b = Bundling::single(m.n_flows()).unwrap();
        let w = logit_welfare(&m, &b).unwrap();
        let profit = m.profit(&b).unwrap();
        assert!((w.profit - profit).abs() / profit < 1e-9);
        assert!(w.consumer_surplus > 0.0);
    }

    #[test]
    fn raising_all_prices_lowers_surplus() {
        let m = ced_market();
        let n = m.n_flows();
        let lo = ced_welfare_at_prices(&m, &vec![15.0; n]).unwrap();
        let hi = ced_welfare_at_prices(&m, &vec![25.0; n]).unwrap();
        assert!(hi.consumer_surplus < lo.consumer_surplus);
    }

    #[test]
    fn per_flow_prices_expand_correctly() {
        let m = ced_market();
        let b = Bundling::new(vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1], 2).unwrap();
        let prices = per_flow_prices(&m, &b).unwrap();
        assert_eq!(prices.len(), 12);
        // All flows in the same bundle share a price.
        assert!((prices[0] - prices[2]).abs() < 1e-12);
        assert!((prices[1] - prices[3]).abs() < 1e-12);
        assert!((prices[0] - prices[1]).abs() > 1e-9, "bundles differ");
    }
}
