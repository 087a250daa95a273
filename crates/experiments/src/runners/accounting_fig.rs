//! Fig. 17: the two tiered-pricing accounting implementations, run as an
//! executable experiment.
//!
//! The paper's Fig. 17 is an architecture diagram; we reproduce it as
//! behavior. A bundling from the profit-weighted strategy defines the
//! tiers; the upstream tags each destination prefix with its tier in a
//! BGP extended community (§5.1); identical traffic is then billed two
//! ways (§5.2): per-tier links polled by SNMP at the 95th percentile, and
//! single-link NetFlow records joined against the RIB. The experiment
//! reports per-tier volumes and bills from both methods and their
//! agreement, plus the session overhead each needs.

use std::net::Ipv4Addr;

use transit_core::bundling::StrategyKind;
use transit_core::cost::LinearCost;
use transit_core::demand::DemandFamily;
use transit_core::error::Result;
use transit_datasets::{generate, Network};
use transit_netflow::{Collector, Exporter, FlowKey, SystematicSampler};
use transit_routing::{
    FlowAccounting, Ipv4Prefix, LinkAccounting, Rib, RouteAnnouncement, TierRate, TierTag,
};

use crate::config::ExperimentConfig;
use crate::markets::fit_market;
use crate::output::{trim_num, ExperimentResult, TableOut};
use crate::stages::{result_stage, Assembler, Requests};

/// Number of tiers the experiment provisions.
const TIERS: usize = 3;

/// Compiles the accounting-equivalence experiment as a whole-result
/// stage, fingerprinted by the output-affecting knobs only.
pub fn fig17(req: &mut Requests<'_>, config: &ExperimentConfig) -> Assembler {
    let params = transit_stage::canon::map(vec![
        // The runner caps the instance at 60 flows; fingerprint the
        // effective value so configs above the cap share one artifact.
        (
            "n_flows",
            serde::Content::U64(config.n_flows.min(60) as u64),
        ),
        ("seed", serde::Content::U64(config.seed)),
        ("alpha", serde::Content::F64(config.alpha)),
        ("p0", serde::Content::F64(config.p0)),
        ("theta", serde::Content::F64(config.theta)),
    ]);
    let c = config.clone();
    result_stage(req, "fig17", params, move || compute_fig17(&c))
}

fn compute_fig17(config: &ExperimentConfig) -> Result<ExperimentResult> {
    // Small, CPU-cheap instance: the point is mechanism, not scale.
    let n_flows = config.n_flows.min(60);
    let market_span = transit_obs::span!("fig17.fit_and_bundle");
    let ds = generate(Network::Internet2, n_flows, config.seed);
    let cost = LinearCost::new(config.theta)?;
    let market = fit_market(DemandFamily::Ced, &ds.flows, &cost, config)?;
    let strategy = StrategyKind::ProfitWeighted.build();
    let bundling = strategy.bundle(market.as_ref(), TIERS)?;
    let tier_prices = market.bundle_prices(&bundling)?;
    drop(market_span);

    // §5.1: tag each destination /16 with its tier via extended
    // communities and install into the customer-facing RIB.
    let rib_span = transit_obs::span!("fig17.tag_rib");
    let mut rib = Rib::new();
    for (flow_idx, &(_, dst)) in ds.endpoints.iter().enumerate() {
        let tier = TierTag(bundling.assignment()[flow_idx] as u8);
        let prefix = Ipv4Prefix::new(dst, 32).expect("valid /32");
        rib.announce(
            RouteAnnouncement::new(prefix, vec![64_500], Ipv4Addr::new(10, 0, 0, 1))
                .with_tier(64_500, tier),
        );
    }
    drop(rib_span);

    // Drive identical constant-rate traffic through both accountings.
    let _acct_span = transit_obs::span!("fig17.accounting");
    let window_secs = 300.0 * 4.0; // four 5-minute SNMP polls
    let polls = 4;
    let mut link_acct = LinkAccounting::new(TIERS, window_secs / polls as f64);
    let mut exporter = Exporter::new(0, SystematicSampler::new(1));
    // Poll-major loop: each SNMP interval carries its own quarter of the
    // traffic, then gets polled — constant rate per interval.
    for _ in 0..polls {
        for (flow_idx, flow) in ds.flows.iter().enumerate() {
            let bytes_total = (flow.demand_mbps * 1e6 / 8.0 * window_secs) as u64;
            let tier = TierTag(bundling.assignment()[flow_idx] as u8);
            link_acct.transmit(tier, bytes_total / polls as u64);
        }
        link_acct.poll();
    }
    // Flow accounting: one link, NetFlow records over the whole window.
    for (flow, &(src, dst)) in ds.flows.iter().zip(&ds.endpoints) {
        let bytes_total = (flow.demand_mbps * 1e6 / 8.0 * window_secs) as u64;
        let key = FlowKey {
            src_addr: src,
            dst_addr: dst,
            src_port: 40_000,
            dst_port: 443,
            protocol: 6,
        };
        let packets = bytes_total / 1_500;
        exporter.observe_packets(key, packets, 1_500);
    }
    // Batch ingest on one worker: a few datagrams do not pay for a
    // fan-out (collector state is identical for any worker count).
    let wire: Vec<_> = exporter.flush(0).iter().map(|pkt| pkt.encode()).collect();
    let mut collector = Collector::with_shards_and_workers(1, 1);
    collector.ingest_batch(&wire);
    let (_, _, decode_errors) = collector.stats();
    assert_eq!(decode_errors, 0, "own datagrams decode");
    let mut flow_acct = FlowAccounting::new();
    let matched = flow_acct.assign(&collector.measured_flows(), &rib);

    // Bill both at the tier prices the market chose.
    let rates: Vec<TierRate> = (0..TIERS)
        .map(|t| TierRate {
            tier: TierTag(t as u8),
            dollars_per_mbps: tier_prices[t].unwrap_or(0.0),
        })
        .collect();
    let bill_link = link_acct.bill_95th(&rates);
    let bill_flow = flow_acct.bill_volume(window_secs, &rates);

    let mut r = ExperimentResult::new(
        "fig17",
        "Link-based (SNMP, 95th pct) vs flow-based (NetFlow + RIB) accounting",
    );
    let mut t = TableOut {
        id: "fig17".into(),
        title: "Per-tier billing comparison".into(),
        headers: vec![
            "tier".into(),
            "price $/Mbps".into(),
            "link-acct Mbps".into(),
            "flow-acct Mbps".into(),
            "link bill $".into(),
            "flow bill $".into(),
        ],
        rows: Vec::new(),
    };
    #[allow(clippy::needless_range_loop)] // tier doubles as the label
    for tier in 0..TIERS {
        let tag = TierTag(tier as u8);
        let lc = bill_link.charge_for(tag).expect("tier billed");
        let fc = bill_flow.charge_for(tag).expect("tier billed");
        t.rows.push(vec![
            format!("{tier}"),
            trim_num(rates[tier].dollars_per_mbps),
            format!("{:.2}", lc.billable_mbps),
            format!("{:.2}", fc.billable_mbps),
            format!("{:.2}", lc.amount),
            format!("{:.2}", fc.amount),
        ]);
    }
    t.rows.push(vec![
        "total".into(),
        String::new(),
        String::new(),
        String::new(),
        format!("{:.2}", bill_link.total),
        format!("{:.2}", bill_flow.total),
    ]);
    r.tables.push(t);
    r.notes.push(format!(
        "{matched}/{} flows matched a tagged route; link accounting needs {TIERS} BGP \
         sessions/links, flow accounting needs 1 (bundling applied post facto, §5.2); \
         bills agree to {:.3}% on constant-rate traffic",
        ds.flows.len(),
        (bill_link.total - bill_flow.total).abs() / bill_flow.total * 100.0
    ));
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig17() -> ExperimentResult {
        crate::runners::run("fig17", &ExperimentConfig::quick())
            .unwrap()
            .unwrap()
    }

    #[test]
    fn bills_agree_between_methods() {
        let r = fig17();
        let totals = r.tables[0].rows.last().unwrap();
        let link: f64 = totals[4].parse().unwrap();
        let flow: f64 = totals[5].parse().unwrap();
        assert!(link > 0.0);
        // Packet-size rounding makes tiny differences; methods agree to
        // well under 1%.
        assert!(
            (link - flow).abs() / flow < 0.01,
            "link {link} vs flow {flow}"
        );
    }

    #[test]
    fn all_flows_match_tagged_routes() {
        let r = fig17();
        let note = &r.notes[0];
        // "N/N flows matched" — both sides equal.
        let frac = note.split(" flows").next().unwrap();
        let (a, b) = frac.split_once('/').unwrap();
        assert_eq!(a, b, "note: {note}");
    }
}
