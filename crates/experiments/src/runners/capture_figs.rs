//! Figs. 8 and 9: profit capture per bundling strategy, per network,
//! for CED and logit demand.

use transit_core::bundling::StrategyKind;
use transit_core::demand::DemandFamily;
use transit_datasets::Network;

use crate::config::ExperimentConfig;
use crate::output::{ExperimentResult, Figure, Series};
use crate::stages::{decode_curve, stage_error, Assembler, CaptureStage, Requests, StrategySpec};

/// Compiles one capture figure: one dataset node per panel feeding one
/// `exp.capture` node per (panel, strategy), with the curves merged back
/// in panel-major, strategy-minor paper order.
fn capture_result(
    req: &mut Requests<'_>,
    result_id: &'static str,
    title: &'static str,
    panels: [(&'static str, Network); 3],
    family: DemandFamily,
    strategies: &'static [StrategyKind],
    config: &ExperimentConfig,
) -> Assembler {
    let datasets: Vec<_> = panels
        .iter()
        .map(|&(_, network)| req.dataset(network, config.n_flows, config.seed))
        .collect();
    let mut curve_nodes = Vec::with_capacity(panels.len() * strategies.len());
    for (pi, &(panel, _)) in panels.iter().enumerate() {
        for &kind in strategies {
            curve_nodes.push(req.add(
                format!("{panel}/{}", kind.label()),
                CaptureStage::from_config(family, StrategySpec::Kind(kind), config),
                &[datasets[pi]],
            ));
        }
    }

    let max_bundles = config.max_bundles;
    Box::new(move |outcome| {
        let mut r = ExperimentResult::new(result_id, title);
        let mut curves = curve_nodes
            .iter()
            .map(|&node| decode_curve(outcome.artifact(node).bytes()).map_err(stage_error));
        for (panel, network) in panels {
            let mut figure = Figure {
                id: panel.into(),
                title: format!(
                    "Profit capture, {} demand — {}",
                    family.label(),
                    network.label()
                ),
                x_label: "# of bundles".into(),
                y_label: "profit capture".into(),
                x: (1..=max_bundles).map(|b| b as f64).collect(),
                series: Vec::new(),
            };
            for &kind in strategies {
                figure.series.push(Series {
                    label: kind.label().into(),
                    y: curves.next().expect("one curve per (panel, strategy)")?,
                });
            }
            r.figures.push(figure);
        }
        Ok(r)
    })
}

/// Fig. 8 (a–c): six strategies under constant-elasticity demand, one
/// panel per network.
pub fn fig8(req: &mut Requests<'_>, config: &ExperimentConfig) -> Assembler {
    capture_result(
        req,
        "fig8",
        "Profit capture for different bundling strategies, constant elasticity demand",
        [
            ("fig8a", Network::EuIsp),
            ("fig8b", Network::Internet2),
            ("fig8c", Network::Cdn),
        ],
        DemandFamily::Ced,
        &StrategyKind::ALL,
        config,
    )
}

/// Fig. 9 (a–c): five strategies under logit demand (demand-weighted ≡
/// profit-weighted there, Eq. 13).
pub fn fig9(req: &mut Requests<'_>, config: &ExperimentConfig) -> Assembler {
    capture_result(
        req,
        "fig9",
        "Profit capture for different bundling strategies, logit demand",
        [
            ("fig9a", Network::EuIsp),
            ("fig9b", Network::Internet2),
            ("fig9c", Network::Cdn),
        ],
        DemandFamily::Logit,
        &StrategyKind::LOGIT,
        config,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runners::run;

    fn config() -> ExperimentConfig {
        ExperimentConfig::quick()
    }

    fn fig8(config: &ExperimentConfig) -> ExperimentResult {
        run("fig8", config).unwrap().unwrap()
    }

    fn fig9(config: &ExperimentConfig) -> ExperimentResult {
        run("fig9", config).unwrap().unwrap()
    }

    #[test]
    fn fig8_shapes_match_paper() {
        let r = fig8(&config());
        assert_eq!(r.figures.len(), 3);
        for f in &r.figures {
            assert_eq!(f.series.len(), 6);
            let optimal = f.series_named("Optimal").unwrap();
            // Capture 0 at one bundle, ~0.9 by four bundles and beyond it
            // at six (the headline result), monotone for the optimal
            // strategy.
            assert!(optimal.y[0].abs() < 1e-6, "{}", f.id);
            assert!(optimal.y[3] >= 0.85, "{}: {}", f.id, optimal.y[3]);
            assert!(optimal.y[5] >= 0.90, "{}: {}", f.id, optimal.y[5]);
            for w in optimal.y.windows(2) {
                assert!(w[1] >= w[0] - 1e-9);
            }
            // Optimal dominates every heuristic pointwise.
            for s in &f.series {
                for (o, h) in optimal.y.iter().zip(&s.y) {
                    assert!(h <= &(o + 1e-9), "{}: {} beats optimal", f.id, s.label);
                }
            }
            // Profit-weighted captures most of the attainable profit by 4
            // bundles (§4.2.2; our synthetic correlation is noisier than
            // the real traces, so the bar is 0.6 rather than the paper's
            // ~0.9 — see EXPERIMENTS.md).
            let pw = f.series_named("Profit-weighted").unwrap();
            assert!(pw.y[3] >= 0.6, "{}: profit-weighted {}", f.id, pw.y[3]);
        }
    }

    #[test]
    fn fig8_stage_reports_keep_item_labels() {
        let r = fig8(&config());
        // Three dataset nodes, then one capture node per (panel,
        // strategy) under its sweep-item label.
        assert_eq!(r.stage_reports.len(), 21);
        assert_eq!(r.stage_reports[0].kind, "dataset.generate");
        assert_eq!(r.stage_reports[3].label, "fig8a/Optimal");
        assert_eq!(r.stage_reports[20].label, "fig8c/Index division");
    }

    #[test]
    fn fig9_logit_captures_faster_than_ced() {
        let c = config();
        let r8 = fig8(&c);
        let r9 = fig9(&c);
        // §4.2.2: "maximum profit capture occurs more quickly in the
        // logit model" — compare the optimal curves at 2 bundles on the
        // EU ISP panel.
        let ced = r8.figures[0].series_named("Optimal").unwrap().y[1];
        let logit = r9.figures[0].series_named("Optimal").unwrap().y[1];
        assert!(
            logit >= ced - 0.05,
            "logit 2-bundle capture {logit} vs CED {ced}"
        );
    }

    #[test]
    fn fig9_has_five_series() {
        let r = fig9(&config());
        for f in &r.figures {
            assert_eq!(f.series.len(), 5);
            assert!(f.series_named("Demand-weighted").is_none());
        }
    }
}
