//! Deploying tiered pricing with today's protocols (paper §5): tag routes
//! with BGP extended communities, then bill the same traffic two ways —
//! per-tier links polled via SNMP at the 95th percentile, and single-link
//! NetFlow joined against the RIB.
//!
//! ```text
//! cargo run --example tier_tagging
//! ```

use std::net::Ipv4Addr;

use tiered_transit::netflow::{Collector, Exporter, FlowKey, SystematicSampler};
use tiered_transit::routing::{
    FlowAccounting, Ipv4Prefix, LinkAccounting, Rib, RouteAnnouncement, TierRate, TierTag,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- §5.1: the upstream tags routes by tier -------------------------
    // Tier 0: on-net/local routes at a discount; tier 1: everything else.
    let next_hop = Ipv4Addr::new(10, 0, 0, 1);
    let mut rib = Rib::new();
    for (prefix, tier, what) in [
        ("10.20.0.0/16", 0u8, "on-net customer"),
        ("10.30.0.0/16", 0, "backplane peer at the IXP"),
        ("0.0.0.0/0", 1, "global transit"),
    ] {
        let route = RouteAnnouncement::new(prefix.parse::<Ipv4Prefix>()?, vec![64_500], next_hop)
            .with_tier(64_500, TierTag(tier));
        rib.announce(route);
        println!("announced {prefix:<15} tier {tier} ({what})");
    }
    println!();

    // ---- traffic: the customer sends a constant mix ---------------------
    let window_secs = 1200.0; // four 5-minute SNMP polls
    let polls = 4u32;
    let mix: [(Ipv4Addr, f64); 3] = [
        (Ipv4Addr::new(10, 20, 1, 1), 400.0), // Mbps to the on-net customer
        (Ipv4Addr::new(10, 30, 2, 2), 100.0), // Mbps to the IXP peer
        (Ipv4Addr::new(93, 184, 216, 34), 250.0), // Mbps off-net
    ];

    // Link-based accounting: one virtual link per tier, SNMP-polled.
    let mut link = LinkAccounting::new(2, window_secs / polls as f64);
    for _ in 0..polls {
        for &(dst, mbps) in &mix {
            let tier = rib.tier_for(dst).expect("all routes tagged");
            let bytes = (mbps * 1e6 / 8.0 * window_secs / polls as f64) as u64;
            link.transmit(tier, bytes);
        }
        link.poll();
    }

    // Flow-based accounting: single link, NetFlow, tiers joined post hoc.
    let mut exporter = Exporter::new(7, SystematicSampler::new(10));
    for &(dst, mbps) in &mix {
        let key = FlowKey {
            src_addr: Ipv4Addr::new(172, 16, 0, 9),
            dst_addr: dst,
            src_port: 52_000,
            dst_port: 443,
            protocol: 6,
        };
        let packets = (mbps * 1e6 / 8.0 * window_secs / 1500.0) as u64;
        exporter.observe_packets(key, packets, 1500);
    }
    let mut collector = Collector::new();
    for pkt in exporter.flush(0) {
        collector.ingest(&pkt.encode())?;
    }
    let mut flow_acct = FlowAccounting::new();
    flow_acct.assign(&collector.measured_flows(), &rib);

    // ---- §5.2: bill both ways -------------------------------------------
    let rates = [
        TierRate {
            tier: TierTag(0),
            dollars_per_mbps: 8.0,
        },
        TierRate {
            tier: TierTag(1),
            dollars_per_mbps: 22.0,
        },
    ];
    let bill_link = link.bill_95th(&rates);
    let bill_flow = flow_acct.bill_volume(window_secs, &rates);

    println!("tier  rate $/Mbps  link-acct (95th pct)     flow-acct (volume)");
    for tier in [TierTag(0), TierTag(1)] {
        let l = bill_link.charge_for(tier).unwrap();
        let f = bill_flow.charge_for(tier).unwrap();
        println!(
            "{:>4}  {:>11.2}  {:>8.1} Mbps ${:>8.2}  {:>8.1} Mbps ${:>8.2}",
            tier.0,
            rates[tier.0 as usize].dollars_per_mbps,
            l.billable_mbps,
            l.amount,
            f.billable_mbps,
            f.amount
        );
    }
    println!(
        "{:>24} ${:>8.2} {:>21} ${:>8.2}",
        "total", bill_link.total, "", bill_flow.total
    );
    println!();
    println!("Both methods bill the same constant-rate traffic nearly identically");
    println!("(the small gap is 1-in-10 sampling noise); link accounting needed a");
    println!("session per tier, flow accounting bundled flows after the fact (§5.2).");
    Ok(())
}
