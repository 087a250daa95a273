//! Model-illustration experiments: Figs. 1–6.

use transit_core::demand::ced::{self, CedAlpha};
use transit_core::demand::logit::{self, LogitAlpha};
use transit_core::error::Result;
use transit_core::optimize::fit_log_curve;
use transit_datasets::pricelists;
use transit_market::direct_peering::{sweep_direct_cost, DirectPeeringScenario, PeeringOutcome};
use transit_market::worked_example::{self, ExampleParams};

use crate::output::{trim_num, ExperimentResult, Figure, Series, TableOut};

/// Fig. 1: blended vs tiered pricing on the two-destination worked
/// example; reproduces the paper's dollar figures.
pub fn fig1() -> Result<ExperimentResult> {
    let ex = worked_example::evaluate(ExampleParams::fig1())?;
    let mut r = ExperimentResult::new("fig1", "Market efficiency loss due to coarse bundling");
    r.notes.push(
        "alpha=2, v=(1,2), c=(1.0,0.5) reproduce the paper's printed profit/surplus \
         exactly; the closed-form tier price P1 is $2.0 (the figure's axis position), \
         not the body text's $2.7, which satisfies no CED first-order condition \
         consistent with the other four dollar figures."
            .into(),
    );
    r.tables.push(TableOut {
        id: "fig1".into(),
        title: "Blended vs tiered (paper: P0=$1.2, profit $2.08→$2.25, surplus $4.17→$4.50)".into(),
        headers: vec![
            "regime".into(),
            "price(dst1)".into(),
            "price(dst2)".into(),
            "profit".into(),
            "surplus".into(),
            "welfare".into(),
        ],
        rows: vec![
            vec![
                "blended".into(),
                trim_num(ex.blended.prices[0]),
                trim_num(ex.blended.prices[1]),
                format!("{:.4}", ex.blended.profit),
                format!("{:.4}", ex.blended.surplus),
                format!("{:.4}", ex.blended.profit + ex.blended.surplus),
            ],
            vec![
                "tiered".into(),
                trim_num(ex.tiered.prices[0]),
                trim_num(ex.tiered.prices[1]),
                format!("{:.4}", ex.tiered.profit),
                format!("{:.4}", ex.tiered.surplus),
                format!("{:.4}", ex.tiered.profit + ex.tiered.surplus),
            ],
        ],
    });
    Ok(r)
}

/// Fig. 2: the direct-peering bypass decision across direct-link costs.
pub fn fig2() -> Result<ExperimentResult> {
    let base = DirectPeeringScenario {
        blended_rate: 20.0,
        isp_cost: 4.0,
        margin: 0.3,
        accounting_overhead: 0.5,
        direct_cost: 0.0,
    };
    let costs: Vec<f64> = (1..=30).map(|i| i as f64).collect();
    let evals = sweep_direct_cost(base, &costs);

    let mut r = ExperimentResult::new(
        "fig2",
        "Direct peering bypass: customer builds a link when c_direct < R",
    );
    r.notes.push(format!(
        "tiered price the ISP could offer: (M+1)*c_ISP + A = {}",
        trim_num(evals[0].tiered_price)
    ));
    r.tables.push(TableOut {
        id: "fig2".into(),
        title: "Bypass classification vs direct-link cost (R=$20, c_ISP=$4, M=0.3, A=$0.5)".into(),
        headers: vec![
            "c_direct".into(),
            "outcome".into(),
            "ISP revenue loss ($/Mbps/mo)".into(),
        ],
        rows: evals
            .iter()
            .map(|e| {
                vec![
                    trim_num(e.scenario.direct_cost),
                    match e.outcome {
                        PeeringOutcome::StayWithTransit => "stay-with-transit".into(),
                        PeeringOutcome::EfficientBypass => "efficient-bypass".into(),
                        PeeringOutcome::MarketFailure => "MARKET FAILURE".into(),
                    },
                    trim_num(e.revenue_loss_per_mbps),
                ]
            })
            .collect(),
    });
    Ok(r)
}

/// Fig. 3: feasible CED demand curves (alpha = 3.3 and 1.4, v = 1).
pub fn fig3() -> Result<ExperimentResult> {
    let prices: Vec<f64> = (1..=80).map(|i| i as f64 * 0.05).collect();
    let mut figure = Figure {
        id: "fig3".into(),
        title: "Feasible CED demand functions".into(),
        x_label: "price ($)".into(),
        y_label: "quantity (Mbps)".into(),
        x: prices.clone(),
        series: Vec::new(),
    };
    for alpha_v in [3.3, 1.4] {
        let alpha = CedAlpha::new(alpha_v)?;
        let y: Vec<f64> = prices
            .iter()
            .map(|&p| ced::quantity(1.0, p, alpha))
            .collect::<Result<_>>()?;
        figure.series.push(Series {
            label: format!("alpha={alpha_v}"),
            y,
        });
    }
    let mut r = ExperimentResult::new("fig3", "Feasible CED demand functions");
    r.figures.push(figure);
    Ok(r)
}

/// Fig. 4: profit vs price for two flows with identical demand
/// (v = 1, alpha = 2) but costs $1 and $2.
pub fn fig4() -> Result<ExperimentResult> {
    let alpha = CedAlpha::new(2.0)?;
    let prices: Vec<f64> = (4..=70).map(|i| i as f64 * 0.1).collect();
    let mut figure = Figure {
        id: "fig4".into(),
        title: "Profit for two flows with identical demand but different cost".into(),
        x_label: "price ($)".into(),
        y_label: "profit ($)".into(),
        x: prices.clone(),
        series: Vec::new(),
    };
    for cost in [1.0, 2.0] {
        let y: Vec<f64> = prices
            .iter()
            .map(|&p| ced::flow_profit(1.0, p, cost, alpha))
            .collect::<Result<_>>()?;
        figure.series.push(Series {
            label: format!("c=${cost}"),
            y,
        });
    }
    let mut r = ExperimentResult::new("fig4", "CED profit maximization (v=1, alpha=2)");
    r.notes.push(format!(
        "closed-form optima: c=$1 → p*=$2 (profit $0.25); c=$2 → p*=$4 (profit ${})",
        trim_num(ced::potential_profit(1.0, 2.0, alpha)?)
    ));
    r.figures.push(figure);
    Ok(r)
}

/// Fig. 5: logit demand for the second of two flows (v = {1.6, 1.0},
/// p1 = 1) as its price sweeps 0–4, for alpha = 1 and 2.
pub fn fig5() -> Result<ExperimentResult> {
    let p2s: Vec<f64> = (0..=80).map(|i| 0.05 + i as f64 * 0.05).collect();
    let mut figure = Figure {
        id: "fig5".into(),
        title: "Logit demand function".into(),
        x_label: "quantity (share of flow 2)".into(),
        y_label: "price of flow 2 ($)".into(),
        // The paper plots price on y vs quantity on x; we emit the sweep
        // as x = p2 and per-alpha share series, and note the transpose.
        x: p2s.clone(),
        series: Vec::new(),
    };
    for alpha_v in [1.0, 2.0] {
        let alpha = LogitAlpha::new(alpha_v)?;
        let y: Vec<f64> = p2s
            .iter()
            .map(|&p2| {
                let (s, _) = logit::shares(&[1.6, 1.0], &[1.0, p2], alpha)?;
                Ok(s[1])
            })
            .collect::<Result<_>>()?;
        figure.series.push(Series {
            label: format!("alpha={alpha_v}"),
            y,
        });
    }
    let mut r = ExperimentResult::new("fig5", "Logit demand function (two flows, outside option)");
    r.notes
        .push("x column is the price of flow 2; series give its market share".into());
    r.figures.push(figure);
    Ok(r)
}

/// Fig. 6: refit the concave price/distance curve to the ITU and NTT
/// price lists and to their union (paper: a≈0.5, b≈6, c≈1 combined).
pub fn fig6() -> Result<ExperimentResult> {
    let mut r = ExperimentResult::new("fig6", "Concave distance-to-cost fit (ITU/NTT)");
    let mut table = TableOut {
        id: "fig6".into(),
        title: "Least-squares fits of y = a*log_b(x) + c".into(),
        headers: vec![
            "data set".into(),
            "a".into(),
            "b".into(),
            "c".into(),
            "a/ln(b) (effective slope)".into(),
            "rmse".into(),
        ],
        rows: Vec::new(),
    };
    for list in [
        pricelists::itu_pricelist(),
        pricelists::ntt_pricelist(),
        pricelists::combined_pricelist(),
    ] {
        let fit = fit_log_curve(&list.distances, &list.prices)?;
        table.rows.push(vec![
            list.name.into(),
            format!("{:.3}", fit.a),
            format!("{:.3}", fit.b),
            format!("{:.3}", fit.c),
            format!("{:.4}", fit.a / fit.b.ln()),
            format!("{:.5}", fit.rmse(list.distances.len())),
        ]);
    }
    r.notes.push(
        "the (a, b) pair is ridge-identified; the effective slope a/ln(b) is the \
         invariant quantity. Paper reports ITU a=0.43,b=9.43 (slope 0.192) and NTT \
         a=0.03,b=1.12 (slope 0.265); combined a≈0.5,b≈6,c≈1 (slope 0.279)."
            .into(),
    );
    r.tables.push(table);
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_reproduces_paper_numbers() {
        let r = fig1().unwrap();
        let rows = &r.tables[0].rows;
        assert_eq!(rows[0][1], "1.2"); // P0
        assert_eq!(rows[0][3], "2.0833"); // blended profit
        assert_eq!(rows[1][3], "2.2500"); // tiered profit
        assert_eq!(rows[1][4], "4.5000"); // tiered surplus
    }

    #[test]
    fn fig2_contains_all_three_outcomes() {
        let r = fig2().unwrap();
        let outcomes: Vec<&String> = r.tables[0].rows.iter().map(|row| &row[1]).collect();
        assert!(outcomes.iter().any(|o| o.contains("efficient")));
        assert!(outcomes.iter().any(|o| o.contains("FAILURE")));
        assert!(outcomes.iter().any(|o| o.contains("stay")));
    }

    #[test]
    fn fig3_high_alpha_curve_is_below_at_high_prices() {
        let r = fig3().unwrap();
        let f = &r.figures[0];
        let hi = f.series_named("alpha=3.3").unwrap();
        let lo = f.series_named("alpha=1.4").unwrap();
        // At the last (highest) price > 1, elastic demand is lower.
        assert!(hi.y.last().unwrap() < lo.y.last().unwrap());
    }

    #[test]
    fn fig4_peaks_at_closed_form_prices() {
        let r = fig4().unwrap();
        let f = &r.figures[0];
        let argmax = |s: &Series| {
            let (i, _) =
                s.y.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap();
            f.x[i]
        };
        let c1 = f.series_named("c=$1").unwrap();
        let c2 = f.series_named("c=$2").unwrap();
        assert!((argmax(c1) - 2.0).abs() < 0.1501);
        assert!((argmax(c2) - 4.0).abs() < 0.1501);
    }

    #[test]
    fn fig5_share_decreases_in_own_price() {
        let r = fig5().unwrap();
        let f = &r.figures[0];
        for s in &f.series {
            for w in s.y.windows(2) {
                assert!(w[1] <= w[0] + 1e-12);
            }
        }
    }

    #[test]
    fn fig6_combined_fit_matches_paper_band() {
        let r = fig6().unwrap();
        let combined = r.tables[0]
            .rows
            .iter()
            .find(|row| row[0] == "ITU+NTT")
            .unwrap();
        let slope: f64 = combined[4].parse().unwrap();
        // Paper's combined slope 0.5/ln 6 ≈ 0.279; ours must land between
        // the two constituent slopes and near that value.
        assert!(
            slope > 0.15 && slope < 0.35,
            "combined effective slope {slope}"
        );
    }
}
