//! The blended-vs-tiered worked example of Fig. 1.
//!
//! Two destinations with CED demand, costs `c1 = $1.0` and `c2 = $0.5`.
//! With `alpha = 2` and valuations `v = (1, 2)` every number printed in
//! the figure falls out of the closed forms:
//!
//! * optimal blended rate `P0 = $1.2/Mbps` (Eq. 5),
//! * blended profit `$2.08` and consumer surplus `$4.17`,
//! * optimal tier prices `P1 = $2.0`, `P2 = $1.0` (Eq. 4),
//! * tiered profit `$2.25` and consumer surplus `$4.50`.
//!
//! (The Fig. 1(b) axis places `P1` between 1.5 and 2.5 — i.e. at $2.0,
//! matching Eq. 4; the body text's "$2.7" does not satisfy the paper's
//! own first-order condition for any parameters that reproduce the other
//! four dollar figures, so we take the closed-form value.)

use serde::Serialize;
use transit_core::demand::ced::{self, CedAlpha};
use transit_core::error::Result;
use transit_core::optimize::golden_section_max;

/// Parameters of the two-destination example.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ExampleParams {
    /// Price sensitivity (shared).
    pub alpha: f64,
    /// Valuations of the two destinations.
    pub valuations: [f64; 2],
    /// Unit costs of the two destinations.
    pub costs: [f64; 2],
}

impl ExampleParams {
    /// The Fig. 1 parameterization.
    pub fn fig1() -> ExampleParams {
        ExampleParams {
            alpha: 2.0,
            valuations: [1.0, 2.0],
            costs: [1.0, 0.5],
        }
    }
}

/// One pricing regime's outcome.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RegimeOutcome {
    /// Prices charged for the two destinations (equal under blended).
    pub prices: [f64; 2],
    /// Quantities consumed at those prices.
    pub quantities: [f64; 2],
    /// ISP profit.
    pub profit: f64,
    /// Consumer surplus.
    pub surplus: f64,
}

/// The full blended-vs-tiered comparison.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct WorkedExample {
    /// Input parameters.
    pub params: ExampleParams,
    /// Single blended rate (Fig. 1a).
    pub blended: RegimeOutcome,
    /// Two tiers (Fig. 1b).
    pub tiered: RegimeOutcome,
}

fn regime(params: &ExampleParams, prices: [f64; 2]) -> Result<RegimeOutcome> {
    let alpha = CedAlpha::new(params.alpha)?;
    let mut profit = 0.0;
    let mut surplus = 0.0;
    let mut quantities = [0.0; 2];
    for i in 0..2 {
        quantities[i] = ced::quantity(params.valuations[i], prices[i], alpha)?;
        profit += ced::flow_profit(params.valuations[i], prices[i], params.costs[i], alpha)?;
        surplus += ced::consumer_surplus(params.valuations[i], prices[i], alpha)?;
    }
    Ok(RegimeOutcome {
        prices,
        quantities,
        profit,
        surplus,
    })
}

/// Evaluates the example: blended rate via Eq. 5, tier prices via Eq. 4.
pub fn evaluate(params: ExampleParams) -> Result<WorkedExample> {
    let alpha = CedAlpha::new(params.alpha)?;
    let p0 = ced::bundle_price(&params.valuations, &params.costs, alpha)?;
    let blended = regime(&params, [p0, p0])?;
    let p1 = ced::optimal_price(params.costs[0], alpha)?;
    let p2 = ced::optimal_price(params.costs[1], alpha)?;
    let tiered = regime(&params, [p1, p2])?;
    Ok(WorkedExample {
        params,
        blended,
        tiered,
    })
}

/// Cross-check: maximizes blended profit numerically instead of via
/// Eq. 5. Returns the maximizing price.
pub fn blended_optimum_numeric(params: ExampleParams) -> Result<f64> {
    let (p, _) = golden_section_max(
        |p| {
            regime(&params, [p, p])
                .map(|r| r.profit)
                .unwrap_or(f64::NEG_INFINITY)
        },
        0.51,
        10.0,
        1e-10,
    )?;
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_fig1_blended_numbers() {
        let ex = evaluate(ExampleParams::fig1()).unwrap();
        assert!((ex.blended.prices[0] - 1.2).abs() < 1e-12, "P0 = $1.2");
        assert!(
            (ex.blended.profit - 25.0 / 12.0).abs() < 1e-12,
            "blended profit $2.08 (= 25/12), got {}",
            ex.blended.profit
        );
        assert!(
            (ex.blended.surplus - 25.0 / 6.0).abs() < 1e-12,
            "blended surplus $4.17 (= 25/6), got {}",
            ex.blended.surplus
        );
    }

    #[test]
    fn reproduces_fig1_tiered_numbers() {
        let ex = evaluate(ExampleParams::fig1()).unwrap();
        assert!((ex.tiered.prices[0] - 2.0).abs() < 1e-12, "P1 = $2.0");
        assert!((ex.tiered.prices[1] - 1.0).abs() < 1e-12, "P2 = $1.0");
        assert!(
            (ex.tiered.profit - 2.25).abs() < 1e-12,
            "tiered profit $2.25"
        );
        assert!(
            (ex.tiered.surplus - 4.5).abs() < 1e-12,
            "tiered surplus $4.50"
        );
    }

    #[test]
    fn tiering_is_a_pareto_improvement() {
        let ex = evaluate(ExampleParams::fig1()).unwrap();
        assert!(ex.tiered.profit > ex.blended.profit);
        assert!(ex.tiered.surplus > ex.blended.surplus);
    }

    #[test]
    fn numeric_blended_optimum_confirms_eq5() {
        let p = blended_optimum_numeric(ExampleParams::fig1()).unwrap();
        assert!((p - 1.2).abs() < 1e-5, "numeric optimum {p}");
    }

    #[test]
    fn quantities_fall_for_expensive_destination_under_tiering() {
        // The efficiency story: tiered prices steer consumption from the
        // costly destination (price rises 1.2 → 2.0) toward the cheap one
        // (price falls 1.2 → 1.0).
        let ex = evaluate(ExampleParams::fig1()).unwrap();
        assert!(ex.tiered.quantities[0] < ex.blended.quantities[0]);
        assert!(ex.tiered.quantities[1] > ex.blended.quantities[1]);
    }

    #[test]
    fn works_for_other_parameterizations() {
        let params = ExampleParams {
            alpha: 1.5,
            valuations: [3.0, 1.0],
            costs: [2.0, 0.2],
        };
        let ex = evaluate(params).unwrap();
        assert!(ex.tiered.profit >= ex.blended.profit - 1e-12);
    }
}
