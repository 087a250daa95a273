//! Integration tests pinning the paper's headline claims, end to end
//! across crates.

use tiered_transit::core::bundling::{Bundling, StrategyKind};
use tiered_transit::core::capture::{capture_curve, capture_for_bundling};
use tiered_transit::core::cost::{ConcaveCost, CostModel, LinearCost};
use tiered_transit::core::demand::ced::CedAlpha;
use tiered_transit::core::demand::logit::LogitAlpha;
use tiered_transit::core::demand::DemandFamily;
use tiered_transit::core::fitting::{fit_ced, fit_logit};
use tiered_transit::core::market::{CedMarket, LogitMarket, TransitMarket};
use tiered_transit::datasets::{generate, DatasetStats, Network};
use tiered_transit::market::worked_example::{evaluate, ExampleParams};

const N_FLOWS: usize = 250;
const SEED: u64 = 42;

fn market(network: Network, family: DemandFamily) -> Box<dyn TransitMarket> {
    let flows = generate(network, N_FLOWS, SEED).flows;
    let cost = LinearCost::new(0.2).unwrap();
    match family {
        DemandFamily::Ced => Box::new(
            CedMarket::new(fit_ced(&flows, &cost, CedAlpha::new(1.1).unwrap(), 20.0).unwrap())
                .unwrap(),
        ),
        DemandFamily::Logit => Box::new(
            LogitMarket::new(
                fit_logit(&flows, &cost, LogitAlpha::new(1.1).unwrap(), 20.0, 0.2).unwrap(),
            )
            .unwrap(),
        ),
    }
}

/// Abstract claim (§1, §4.2.2): "an ISP reaps most of the profit possible
/// with infinitesimally fine-grained tiers using only two or three tiers,
/// assuming that those two or three tiers are structured properly" — and
/// 3–4 bundles capture 90–95%.
#[test]
fn three_to_four_optimal_tiers_capture_ninety_percent() {
    for network in Network::ALL {
        for family in DemandFamily::ALL {
            let m = market(network, family);
            let optimal = StrategyKind::Optimal.build();
            let curve = capture_curve(m.as_ref(), optimal.as_ref(), 4).unwrap();
            assert!(
                curve.capture[2] >= 0.80,
                "{} {}: 3 tiers {}",
                network.label(),
                family.label(),
                curve.capture[2]
            );
            assert!(
                curve.capture[3] >= 0.85,
                "{} {}: 4 tiers {}",
                network.label(),
                family.label(),
                curve.capture[3]
            );
        }
    }
}

/// §4.2.2: "the optimal flow bundling strategy captures the most profit
/// for a given number of bundles."
#[test]
fn optimal_dominates_all_heuristics_everywhere() {
    for network in Network::ALL {
        for family in DemandFamily::ALL {
            let m = market(network, family);
            let optimal = StrategyKind::Optimal.build();
            let kinds: &[StrategyKind] = match family {
                DemandFamily::Ced => &StrategyKind::ALL,
                DemandFamily::Logit => &StrategyKind::LOGIT,
            };
            for b in 1..=6 {
                let p_opt = m.profit(&optimal.bundle(m.as_ref(), b).unwrap()).unwrap();
                for &kind in kinds {
                    let strategy = kind.build();
                    let p = m.profit(&strategy.bundle(m.as_ref(), b).unwrap()).unwrap();
                    assert!(
                        p <= p_opt + 1e-9 * p_opt.abs(),
                        "{} {} b={b}: {} beat optimal ({p} > {p_opt})",
                        network.label(),
                        family.label(),
                        kind.label()
                    );
                }
            }
        }
    }
}

/// §4.2.2: "Maximum profit capture occurs more quickly in the logit
/// model."
#[test]
fn logit_captures_faster_than_ced_at_two_bundles() {
    for network in Network::ALL {
        let ced = market(network, DemandFamily::Ced);
        let logit = market(network, DemandFamily::Logit);
        let optimal = StrategyKind::Optimal.build();
        let ced_c = capture_curve(ced.as_ref(), optimal.as_ref(), 2)
            .unwrap()
            .capture[1];
        let logit_c = capture_curve(logit.as_ref(), optimal.as_ref(), 2)
            .unwrap()
            .capture[1];
        assert!(
            logit_c > ced_c,
            "{}: logit {logit_c} vs ced {ced_c}",
            network.label()
        );
    }
}

/// §4.2.2: "given fixed demand, a high CV of distance (cost) leads to
/// higher absolute profits" — more cost dispersion, more headroom.
#[test]
fn higher_cost_cv_means_more_profit_headroom() {
    let flows = generate(Network::EuIsp, N_FLOWS, SEED).flows;
    let alpha = CedAlpha::new(1.1).unwrap();
    // Base cost compresses cost CV; compare theta = 0.05 vs theta = 1.0.
    let spread =
        CedMarket::new(fit_ced(&flows, &LinearCost::new(0.05).unwrap(), alpha, 20.0).unwrap())
            .unwrap();
    let flat =
        CedMarket::new(fit_ced(&flows, &LinearCost::new(1.0).unwrap(), alpha, 20.0).unwrap())
            .unwrap();
    let headroom = |m: &CedMarket| m.max_profit() - m.original_profit();
    assert!(
        headroom(&spread) > headroom(&flat),
        "spread {} vs flat {}",
        headroom(&spread),
        headroom(&flat)
    );
}

/// §4.3.1: the concave cost family has lower cost CV than the linear one
/// at the same theta, hence less attainable profit.
#[test]
fn concave_costs_compress_headroom() {
    let flows = generate(Network::EuIsp, N_FLOWS, SEED).flows;
    let alpha = CedAlpha::new(1.1).unwrap();
    let lin = CedMarket::new(fit_ced(&flows, &LinearCost::new(0.2).unwrap(), alpha, 20.0).unwrap())
        .unwrap();
    let con = CedMarket::new(
        fit_ced(&flows, &ConcaveCost::paper_fit(0.2).unwrap(), alpha, 20.0).unwrap(),
    )
    .unwrap();
    assert!(con.max_profit() - con.original_profit() < lin.max_profit() - lin.original_profit());
}

/// Fig. 1's exact dollar figures from the closed forms.
#[test]
fn worked_example_matches_paper_dollars() {
    let ex = evaluate(ExampleParams::fig1()).unwrap();
    assert!((ex.blended.prices[0] - 1.2).abs() < 1e-12);
    assert!((ex.blended.profit - 2.0833333333333335).abs() < 1e-12);
    assert!((ex.blended.surplus - 4.166666666666667).abs() < 1e-12);
    assert!((ex.tiered.profit - 2.25).abs() < 1e-12);
    assert!((ex.tiered.surplus - 4.5).abs() < 1e-12);
}

/// Table 1 calibration: aggregate and demand CV exact, distance moments
/// close.
#[test]
fn table1_calibration_holds() {
    for network in Network::ALL {
        let stats = DatasetStats::of(&generate(network, 500, SEED).flows);
        let t = network.table1_targets();
        assert!((stats.aggregate_gbps - t.aggregate_gbps).abs() / t.aggregate_gbps < 1e-9);
        assert!((stats.cv_demand - t.cv_demand).abs() < 1e-6);
        assert!(
            (stats.wavg_distance_miles - t.wavg_distance_miles).abs() / t.wavg_distance_miles
                < 0.15
        );
        assert!((stats.cv_distance - t.cv_distance).abs() / t.cv_distance < 0.25);
    }
}

/// The capture metric's boundary identities, which depend on the γ
/// calibration across the whole stack.
#[test]
fn capture_boundaries_are_exact() {
    for network in Network::ALL {
        for family in DemandFamily::ALL {
            let m = market(network, family);
            let single =
                capture_for_bundling(m.as_ref(), &Bundling::single(m.n_flows()).unwrap()).unwrap();
            assert!(single.capture.abs() < 1e-6, "single-bundle capture 0");
            let per_flow =
                capture_for_bundling(m.as_ref(), &Bundling::per_flow(m.n_flows()).unwrap())
                    .unwrap();
            assert!((per_flow.capture - 1.0).abs() < 1e-6, "per-flow capture 1");
        }
    }
}

/// Determinism: same seed, same everything, across the whole pipeline.
#[test]
fn full_pipeline_is_deterministic() {
    let run = || {
        let m = market(Network::Cdn, DemandFamily::Ced);
        let strategy = StrategyKind::ProfitWeighted.build();
        capture_curve(m.as_ref(), strategy.as_ref(), 6)
            .unwrap()
            .capture
    };
    assert_eq!(run(), run());
}

/// Cost model abstraction: every family yields a usable fitted market on
/// real dataset flows.
#[test]
fn all_cost_families_fit_all_networks() {
    use tiered_transit::core::cost::CostFamily;
    for network in Network::ALL {
        let flows = generate(network, 120, SEED).flows;
        for fam in CostFamily::ALL {
            let theta = if fam == CostFamily::Regional {
                1.0
            } else {
                0.2
            };
            let cost = fam.build(theta).unwrap();
            let m = CedMarket::new(
                fit_ced(&flows, cost.as_ref(), CedAlpha::new(1.1).unwrap(), 20.0).unwrap(),
            )
            .unwrap();
            assert!(m.max_profit() >= m.original_profit() - 1e-9);
        }
    }
}

/// A fitted market must reproduce its own observed demands at P0 — the
/// core identification assumption, verified through the public API.
#[test]
fn fits_reproduce_observed_demand() {
    use tiered_transit::core::demand::{ced as ced_m, logit as logit_m};
    let flows = generate(Network::Internet2, 100, SEED).flows;
    let cost: &dyn CostModel = &LinearCost::new(0.2).unwrap();

    let fit = fit_ced(&flows, cost, CedAlpha::new(1.3).unwrap(), 20.0).unwrap();
    for (i, f) in flows.iter().enumerate() {
        let q = ced_m::quantity(fit.valuations[i], 20.0, fit.alpha).unwrap();
        assert!((q - f.demand_mbps).abs() / f.demand_mbps < 1e-9);
    }

    let fit = fit_logit(&flows, cost, LogitAlpha::new(1.3).unwrap(), 20.0, 0.2).unwrap();
    let qs = logit_m::quantities(
        &fit.valuations,
        &vec![20.0; flows.len()],
        fit.alpha,
        fit.consumers,
    )
    .unwrap();
    for (i, f) in flows.iter().enumerate() {
        assert!((qs[i] - f.demand_mbps).abs() / f.demand_mbps < 1e-9);
    }
}
