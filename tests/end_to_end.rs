//! End-to-end integration: measurement pipeline → fitted market → tier
//! structure → deployed accounting, across every crate in the workspace.

use std::net::Ipv4Addr;

use tiered_transit::core::bundling::StrategyKind;
use tiered_transit::core::capture::capture_curve;
use tiered_transit::core::cost::LinearCost;
use tiered_transit::core::demand::ced::CedAlpha;
use tiered_transit::core::fitting::fit_ced;
use tiered_transit::core::market::{CedMarket, TransitMarket};
use tiered_transit::datasets::{generate, run_pipeline, Network, PipelineConfig};
use tiered_transit::netflow::{Collector, Exporter, FlowKey, SystematicSampler};
use tiered_transit::routing::{
    FlowAccounting, Ipv4Prefix, Rib, RouteAnnouncement, TierRate, TierTag,
};

/// The full §4.1.1 loop: synthetic ground truth, measured through sampled
/// NetFlow with router duplication, must yield the same tiering
/// conclusions as the ground truth.
#[test]
fn measured_market_reaches_same_conclusions_as_truth() {
    let dataset = generate(Network::Internet2, 60, 3);
    let out = run_pipeline(
        &dataset,
        PipelineConfig {
            sampling_rate: 10,
            routers_on_path: 3,
            window_secs: 60.0,
            packet_bytes: 1500,
            ingest_shards: 1,
            ingest_workers: 1,
        },
    );
    assert!(out.measured_flows.len() >= 55, "few flows lost to sampling");

    let cost = LinearCost::new(0.2).unwrap();
    let alpha = CedAlpha::new(1.1).unwrap();
    let truth = CedMarket::new(fit_ced(&dataset.flows, &cost, alpha, 20.0).unwrap()).unwrap();
    let measured =
        CedMarket::new(fit_ced(&out.measured_flows, &cost, alpha, 20.0).unwrap()).unwrap();

    let strategy = StrategyKind::Optimal.build();
    let truth_curve = capture_curve(&truth, strategy.as_ref(), 5).unwrap();
    let measured_curve = capture_curve(&measured, strategy.as_ref(), 5).unwrap();
    for (t, m) in truth_curve.capture.iter().zip(&measured_curve.capture) {
        assert!(
            (t - m).abs() < 0.1,
            "capture profiles diverged: truth {t} vs measured {m}"
        );
    }
}

/// Tiers chosen by the model deploy as route tags and bill consistently:
/// the revenue computed by the market model at the fitted demands matches
/// the flow-accounting bill at those tier prices.
#[test]
fn model_revenue_matches_deployed_billing() {
    let dataset = generate(Network::Internet2, 50, 9);
    let cost = LinearCost::new(0.2).unwrap();
    let market =
        CedMarket::new(fit_ced(&dataset.flows, &cost, CedAlpha::new(1.1).unwrap(), 20.0).unwrap())
            .unwrap();
    let strategy = StrategyKind::Optimal.build();
    let bundling = strategy.bundle(&market, 3).unwrap();
    let tier_prices = market.bundle_prices(&bundling).unwrap();

    // Deploy: tag each destination with its tier; bill observed traffic.
    // At the *blended* demands (what's observed today), model revenue is
    // sum(q_i * p_tier(i)); the billing pipeline must reproduce it.
    let mut rib = Rib::new();
    for (idx, &(_, dst)) in dataset.endpoints.iter().enumerate() {
        rib.announce(
            RouteAnnouncement::new(
                Ipv4Prefix::new(dst, 32).unwrap(),
                vec![64_500],
                Ipv4Addr::new(10, 0, 0, 1),
            )
            .with_tier(64_500, TierTag(bundling.assignment()[idx] as u8)),
        );
    }

    let window = 60.0;
    let mut exporter = Exporter::new(0, SystematicSampler::new(1));
    let mut model_revenue = 0.0;
    for (idx, (flow, &(src, dst))) in dataset.flows.iter().zip(&dataset.endpoints).enumerate() {
        let packets = (flow.demand_mbps * 1e6 / 8.0 * window / 1500.0).round() as u64;
        exporter.observe_packets(
            FlowKey {
                src_addr: src,
                dst_addr: dst,
                src_port: 4000,
                dst_port: 443,
                protocol: 6,
            },
            packets,
            1500,
        );
        let billed_mbps = packets as f64 * 1500.0 * 8.0 / window / 1e6;
        let price = tier_prices[bundling.assignment()[idx]].unwrap();
        model_revenue += billed_mbps * price;
    }
    let mut collector = Collector::new();
    for pkt in exporter.flush(0) {
        collector.ingest(&pkt.encode()).unwrap();
    }
    let mut acct = FlowAccounting::new();
    let matched = acct.assign(&collector.measured_flows(), &rib);
    assert_eq!(matched, dataset.flows.len(), "every flow classified");

    let rates: Vec<TierRate> = (0..3)
        .map(|t| TierRate {
            tier: TierTag(t as u8),
            dollars_per_mbps: tier_prices[t].unwrap(),
        })
        .collect();
    let bill = acct.bill_volume(window, &rates);
    assert!(
        (bill.total - model_revenue).abs() / model_revenue < 1e-9,
        "bill {} vs model revenue {model_revenue}",
        bill.total
    );
}

/// Geo/GeoIP/topology agreement: dataset endpoints geolocate to the
/// cities the generator says they belong to, and EU ISP flows' distances
/// are consistent with geography.
#[test]
fn endpoints_and_geography_are_consistent() {
    use tiered_transit::geo::GeoIpDb;
    let db = GeoIpDb::world();
    let ds = generate(Network::EuIsp, 150, 5);
    for (i, &(src, dst)) in ds.endpoints.iter().enumerate() {
        let (src_city, dst_city) = &ds.cities[i];
        assert_eq!(&db.lookup(src).unwrap().city, src_city);
        assert_eq!(&db.lookup(dst).unwrap().city, dst_city);
        // Different cities ⇒ the flow distance matches the city-pair
        // great-circle distance (same city ⇒ synthetic metro distance).
        if src_city != dst_city {
            let a = tiered_transit::geo::by_name(src_city).unwrap();
            let b = tiered_transit::geo::by_name(dst_city).unwrap();
            let crow = a.coord.distance_miles(&b.coord);
            assert!(
                (crow - ds.flows[i].distance_miles).abs() < 1.0,
                "flow {i}: {crow} vs {}",
                ds.flows[i].distance_miles
            );
        }
    }
}

/// Every experiment in the registry runs to completion on a small config
/// and produces non-empty output.
#[test]
fn all_experiments_run() {
    use tiered_transit::experiments::{
        run, ExperimentConfig, ALL_IDS, EXTENSION_IDS, SENSITIVITY_IDS,
    };
    let config = ExperimentConfig {
        n_flows: 60,
        ..ExperimentConfig::quick()
    };
    for id in ALL_IDS
        .iter()
        .chain(SENSITIVITY_IDS.iter())
        .chain(EXTENSION_IDS.iter())
    {
        let result = run(id, &config)
            .unwrap_or_else(|e| panic!("{id} failed: {e}"))
            .unwrap_or_else(|| panic!("{id} unknown"));
        assert!(
            !result.tables.is_empty() || !result.figures.is_empty(),
            "{id} produced nothing"
        );
        let text = result.render_text();
        assert!(text.len() > 100, "{id} rendered too little");
        let json = result.to_json();
        assert!(serde_json::from_str::<serde_json::Value>(&json).is_ok());
    }
}

/// One invocation compiles every experiment into one stage graph. Its
/// figures are byte-identical to running each experiment alone, and a
/// stage several experiments share computes once: of the 28 dataset
/// requests across the `full --quick` ids, exactly the 3 distinct
/// datasets compute, and every later request reads as a hit.
#[test]
fn run_all_matches_each_experiment_alone() {
    use tiered_transit::experiments::{run, run_all, ExperimentConfig};
    use tiered_transit::experiments::{ALL_IDS, EXTENSION_IDS, SENSITIVITY_IDS};
    let config = ExperimentConfig::quick();
    let ids: Vec<&str> = ALL_IDS
        .iter()
        .chain(&SENSITIVITY_IDS)
        .chain(&EXTENSION_IDS)
        .copied()
        .collect();
    let together: Vec<_> = run_all(&ids, &config)
        .expect("invocation runs")
        .collect::<Result<_, _>>()
        .expect("every experiment assembles");
    assert_eq!(together.len(), ids.len());
    for (id, result) in ids.iter().zip(&together) {
        let alone = run(id, &config).unwrap().unwrap();
        assert_eq!(result.to_json(), alone.to_json(), "{id}: JSON differs");
        assert_eq!(
            result.stage_reports.len(),
            alone.stage_reports.len(),
            "{id}: one report per requested node"
        );
        for (a, b) in result.stage_reports.iter().zip(&alone.stage_reports) {
            assert_eq!((&a.label, a.fingerprint), (&b.label, b.fingerprint), "{id}");
        }
    }

    let generate: Vec<_> = together
        .iter()
        .flat_map(|r| &r.stage_reports)
        .filter(|r| r.kind == "dataset.generate")
        .collect();
    assert_eq!(generate.len(), 28, "dataset requests across the invocation");
    let computed: Vec<_> = generate.iter().filter(|r| !r.hit).collect();
    assert_eq!(computed.len(), 3, "one computed dataset per network");
    let distinct: std::collections::HashSet<_> = computed.iter().map(|r| r.fingerprint).collect();
    assert_eq!(distinct.len(), 3);
    assert!(
        generate.iter().filter(|r| r.hit).all(|r| r.seconds == 0.0),
        "a repeated request is served without computing"
    );
}

/// Cross-demand-model sanity at fixed inputs: both families agree on the
/// *direction* of every headline effect even though their magnitudes
/// differ.
#[test]
fn demand_models_agree_on_directions() {
    use tiered_transit::core::demand::logit::LogitAlpha;
    use tiered_transit::core::fitting::fit_logit;
    use tiered_transit::core::market::LogitMarket;

    let flows = generate(Network::EuIsp, 150, 11).flows;
    let cost = LinearCost::new(0.2).unwrap();
    let ced =
        CedMarket::new(fit_ced(&flows, &cost, CedAlpha::new(1.1).unwrap(), 20.0).unwrap()).unwrap();
    let logit = LogitMarket::new(
        fit_logit(&flows, &cost, LogitAlpha::new(1.1).unwrap(), 20.0, 0.2).unwrap(),
    )
    .unwrap();

    let strategy = StrategyKind::Optimal.build();
    for market in [&ced as &dyn TransitMarket, &logit] {
        let curve = capture_curve(market, strategy.as_ref(), 6).unwrap();
        // Monotone increasing capture, 0 → ~1.
        assert!(curve.capture[0].abs() < 1e-6);
        for w in curve.capture.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
        assert!(*curve.capture.last().unwrap() > 0.9);
    }
}
