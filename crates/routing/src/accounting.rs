//! Tiered-pricing accounting: the two implementations of §5.2 / Fig. 17.
//!
//! * [`LinkAccounting`] (Fig. 17a) — one physical/virtual link per tier,
//!   each with an SNMP-style octet counter polled periodically; links are
//!   billed at the industry-standard 95th percentile of the per-interval
//!   rates.
//! * [`FlowAccounting`] (Fig. 17b) — a single link; the accounting system
//!   joins collected NetFlow records against the RIB's tier tags
//!   (longest-prefix match on the destination) and bills each tier's
//!   volume. "Bundling effectively occurs after the fact."
//!
//! Both produce a [`Bill`]; the Fig. 17 experiment drives identical
//! traffic through both and shows they agree for constant-rate traffic
//! (95th percentile ≈ mean) while link accounting needs a session per
//! tier.

use serde::Serialize;
use transit_netflow::MeasuredFlow;

use crate::bgp::{Rib, TierTag};

/// Price per tier, $/Mbps/month.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TierRate {
    /// The tier this rate applies to.
    pub tier: TierTag,
    /// Price in $/Mbps/month.
    pub dollars_per_mbps: f64,
}

/// One tier's line item on a bill.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TierCharge {
    /// The tier.
    pub tier: TierTag,
    /// Billable rate in Mbps (95th percentile or average, per method).
    pub billable_mbps: f64,
    /// Dollars charged.
    pub amount: f64,
}

/// A complete bill.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Bill {
    /// Per-tier line items, sorted by tier.
    pub charges: Vec<TierCharge>,
    /// Total dollars.
    pub total: f64,
}

impl Bill {
    fn from_charges(mut charges: Vec<TierCharge>) -> Bill {
        charges.sort_by_key(|c| c.tier);
        let total = charges.iter().map(|c| c.amount).sum();
        Bill { charges, total }
    }

    /// The charge for one tier, if present.
    pub fn charge_for(&self, tier: TierTag) -> Option<&TierCharge> {
        self.charges.iter().find(|c| c.tier == tier)
    }
}

/// SNMP-style link accounting: per-tier octet counters and periodic polls
/// (Fig. 17a).
#[derive(Debug, Clone)]
pub struct LinkAccounting {
    poll_interval_secs: f64,
    /// Monotone octet counter per tier link (what SNMP ifHCOutOctets is).
    counters: Vec<u64>,
    /// Counter value at the previous poll.
    last_polled: Vec<u64>,
    /// Per-poll throughput samples in Mbps, per tier.
    samples: Vec<Vec<f64>>,
}

impl LinkAccounting {
    /// Creates accounting for `n_tiers` virtual links polled every
    /// `poll_interval_secs` (operators typically use 300 s).
    pub fn new(n_tiers: usize, poll_interval_secs: f64) -> LinkAccounting {
        assert!(n_tiers > 0, "need at least one tier link");
        assert!(
            poll_interval_secs.is_finite() && poll_interval_secs > 0.0,
            "poll interval must be positive"
        );
        LinkAccounting {
            poll_interval_secs,
            counters: vec![0; n_tiers],
            last_polled: vec![0; n_tiers],
            samples: vec![Vec::new(); n_tiers],
        }
    }

    /// Number of tier links.
    pub fn n_tiers(&self) -> usize {
        self.counters.len()
    }

    /// Counts `bytes` sent on tier `tier`'s link (traffic splitting across
    /// per-tier BGP sessions happens upstream of this counter).
    pub fn transmit(&mut self, tier: TierTag, bytes: u64) {
        let idx = tier.0 as usize;
        assert!(idx < self.counters.len(), "unknown tier link");
        self.counters[idx] += bytes;
    }

    /// Performs one SNMP poll: snapshots every counter and records the
    /// interval's throughput sample.
    pub fn poll(&mut self) {
        for i in 0..self.counters.len() {
            let delta = self.counters[i] - self.last_polled[i];
            self.last_polled[i] = self.counters[i];
            let mbps = delta as f64 * 8.0 / self.poll_interval_secs / 1e6;
            self.samples[i].push(mbps);
        }
    }

    /// Number of polls taken so far.
    pub fn polls(&self) -> usize {
        self.samples.first().map_or(0, Vec::len)
    }

    /// Bills each tier at the 95th percentile of its per-poll rates —
    /// the standard transit billing method ("burstable billing").
    pub fn bill_95th(&self, rates: &[TierRate]) -> Bill {
        let charges = rates
            .iter()
            .map(|r| {
                let idx = r.tier.0 as usize;
                let billable = self
                    .samples
                    .get(idx)
                    .and_then(|s| percentile_95(s))
                    .unwrap_or(0.0);
                TierCharge {
                    tier: r.tier,
                    billable_mbps: billable,
                    amount: billable * r.dollars_per_mbps,
                }
            })
            .collect();
        Bill::from_charges(charges)
    }
}

fn percentile_95(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = 0.95 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Flow-based accounting (Fig. 17b): NetFlow + RIB tier tags, billed on
/// average volume.
#[derive(Debug, Default)]
pub struct FlowAccounting {
    /// bytes per tier.
    volumes: std::collections::BTreeMap<TierTag, u64>,
    /// bytes whose destination matched no tagged route.
    unclassified_bytes: u64,
}

impl FlowAccounting {
    /// Creates empty accounting.
    pub fn new() -> FlowAccounting {
        FlowAccounting::default()
    }

    /// Assigns collected flows to tiers via the RIB ("flows can be mapped
    /// to tiers using the routing table information ... post facto").
    /// Returns the number of flows that matched a tagged route.
    pub fn assign(&mut self, flows: &[MeasuredFlow], rib: &Rib) -> usize {
        let mut matched = 0;
        for f in flows {
            match rib.tier_for(f.key.dst_addr) {
                Some(tier) => {
                    *self.volumes.entry(tier).or_default() += f.bytes;
                    matched += 1;
                }
                None => self.unclassified_bytes += f.bytes,
            }
        }
        matched
    }

    /// Total bytes per tier.
    pub fn volumes(&self) -> &std::collections::BTreeMap<TierTag, u64> {
        &self.volumes
    }

    /// Bytes that matched no tagged route (billable at a default rate, or
    /// a sign of missing tags).
    pub fn unclassified_bytes(&self) -> u64 {
        self.unclassified_bytes
    }

    /// Bills each tier's *average* rate over the accounting window.
    pub fn bill_volume(&self, window_secs: f64, rates: &[TierRate]) -> Bill {
        assert!(
            window_secs.is_finite() && window_secs > 0.0,
            "window must be positive"
        );
        let charges = rates
            .iter()
            .map(|r| {
                let bytes = self.volumes.get(&r.tier).copied().unwrap_or(0);
                let mbps = bytes as f64 * 8.0 / window_secs / 1e6;
                TierCharge {
                    tier: r.tier,
                    billable_mbps: mbps,
                    amount: mbps * r.dollars_per_mbps,
                }
            })
            .collect();
        Bill::from_charges(charges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::RouteAnnouncement;
    use crate::prefix::Ipv4Prefix;
    use std::net::Ipv4Addr;
    use transit_netflow::FlowKey;

    fn rates() -> Vec<TierRate> {
        vec![
            TierRate {
                tier: TierTag(0),
                dollars_per_mbps: 5.0,
            },
            TierRate {
                tier: TierTag(1),
                dollars_per_mbps: 20.0,
            },
        ]
    }

    #[test]
    fn link_accounting_bills_95th_percentile() {
        let mut acc = LinkAccounting::new(1, 300.0);
        // 19 polls at 100 Mbps, 1 poll at 1000 Mbps: 95th pct is between.
        for i in 0..20 {
            let mbps = if i == 19 { 1000.0 } else { 100.0 };
            let bytes = (mbps * 1e6 / 8.0 * 300.0) as u64;
            acc.transmit(TierTag(0), bytes);
            acc.poll();
        }
        let bill = acc.bill_95th(&[TierRate {
            tier: TierTag(0),
            dollars_per_mbps: 1.0,
        }]);
        let billable = bill.charges[0].billable_mbps;
        assert!(
            billable > 100.0 && billable < 1000.0,
            "95th pct {billable} should discount the single burst"
        );
    }

    #[test]
    fn constant_rate_bills_exactly() {
        let mut acc = LinkAccounting::new(2, 300.0);
        for _ in 0..10 {
            // Tier 0 at 8 Mbps, tier 1 at 80 Mbps, constant.
            acc.transmit(TierTag(0), 300_000_000);
            acc.transmit(TierTag(1), 3_000_000_000);
            acc.poll();
        }
        let bill = acc.bill_95th(&rates());
        assert!((bill.charge_for(TierTag(0)).unwrap().billable_mbps - 8.0).abs() < 1e-9);
        assert!((bill.charge_for(TierTag(1)).unwrap().billable_mbps - 80.0).abs() < 1e-9);
        assert!((bill.total - (8.0 * 5.0 + 80.0 * 20.0)).abs() < 1e-6);
    }

    #[test]
    fn unpolled_accounting_bills_zero() {
        let mut acc = LinkAccounting::new(1, 300.0);
        acc.transmit(TierTag(0), 1_000_000);
        // No poll yet: nothing billable.
        let bill = acc.bill_95th(&[TierRate {
            tier: TierTag(0),
            dollars_per_mbps: 1.0,
        }]);
        assert_eq!(bill.total, 0.0);
    }

    fn flow(dst: Ipv4Addr, bytes: u64) -> MeasuredFlow {
        MeasuredFlow {
            key: FlowKey {
                src_addr: Ipv4Addr::new(100, 0, 0, 1),
                dst_addr: dst,
                src_port: 1,
                dst_port: 80,
                protocol: 6,
            },
            bytes,
            packets: 1,
        }
    }

    fn tagged_rib() -> Rib {
        let mut rib = Rib::new();
        rib.announce(
            RouteAnnouncement::new(
                "10.0.0.0/8".parse::<Ipv4Prefix>().unwrap(),
                vec![1],
                Ipv4Addr::new(1, 1, 1, 1),
            )
            .with_tier(64_500, TierTag(0)),
        );
        rib.announce(
            RouteAnnouncement::new(
                "0.0.0.0/0".parse::<Ipv4Prefix>().unwrap(),
                vec![1, 2],
                Ipv4Addr::new(1, 1, 1, 1),
            )
            .with_tier(64_500, TierTag(1)),
        );
        rib
    }

    #[test]
    fn flow_accounting_maps_by_lpm() {
        let rib = tagged_rib();
        let mut acc = FlowAccounting::new();
        let flows = [
            flow(Ipv4Addr::new(10, 1, 1, 1), 1000), // tier 0 (on-net)
            flow(Ipv4Addr::new(8, 8, 8, 8), 500),   // tier 1 (default)
            flow(Ipv4Addr::new(10, 2, 2, 2), 200),  // tier 0
        ];
        let matched = acc.assign(&flows, &rib);
        assert_eq!(matched, 3);
        assert_eq!(acc.volumes()[&TierTag(0)], 1200);
        assert_eq!(acc.volumes()[&TierTag(1)], 500);
        assert_eq!(acc.unclassified_bytes(), 0);
    }

    #[test]
    fn untagged_routes_leave_flows_unclassified() {
        let mut rib = Rib::new();
        rib.announce(RouteAnnouncement::new(
            "0.0.0.0/0".parse::<Ipv4Prefix>().unwrap(),
            vec![1],
            Ipv4Addr::new(1, 1, 1, 1),
        ));
        let mut acc = FlowAccounting::new();
        let matched = acc.assign(&[flow(Ipv4Addr::new(8, 8, 8, 8), 777)], &rib);
        assert_eq!(matched, 0);
        assert_eq!(acc.unclassified_bytes(), 777);
    }

    #[test]
    fn volume_bill_uses_average_rate() {
        let rib = tagged_rib();
        let mut acc = FlowAccounting::new();
        // 1.25 MB to tier 0 over 10 s = 1 Mbps.
        acc.assign(&[flow(Ipv4Addr::new(10, 0, 0, 1), 1_250_000)], &rib);
        let bill = acc.bill_volume(10.0, &rates());
        let c0 = bill.charge_for(TierTag(0)).unwrap();
        assert!((c0.billable_mbps - 1.0).abs() < 1e-12);
        assert!((c0.amount - 5.0).abs() < 1e-9);
        assert_eq!(bill.charge_for(TierTag(1)).unwrap().amount, 0.0);
    }

    #[test]
    fn link_and_flow_accounting_agree_on_constant_traffic() {
        // The Fig. 17 equivalence: drive identical constant-rate traffic
        // through both methods; bills match (95th pct == mean for
        // constant rates).
        let rib = tagged_rib();
        let window = 3000.0;
        let polls = 10;

        let mut link = LinkAccounting::new(2, window / polls as f64);
        let mut flows_acc = FlowAccounting::new();
        let onnet_bytes_per_poll = 30_000_000u64;
        let offnet_bytes_per_poll = 90_000_000u64;

        for _ in 0..polls {
            link.transmit(TierTag(0), onnet_bytes_per_poll);
            link.transmit(TierTag(1), offnet_bytes_per_poll);
            link.poll();
        }
        flows_acc.assign(
            &[
                flow(
                    Ipv4Addr::new(10, 0, 0, 1),
                    onnet_bytes_per_poll * polls as u64,
                ),
                flow(
                    Ipv4Addr::new(8, 8, 8, 8),
                    offnet_bytes_per_poll * polls as u64,
                ),
            ],
            &rib,
        );

        let bill_link = link.bill_95th(&rates());
        let bill_flow = flows_acc.bill_volume(window, &rates());
        assert!(
            (bill_link.total - bill_flow.total).abs() / bill_flow.total < 1e-9,
            "link {} vs flow {}",
            bill_link.total,
            bill_flow.total
        );
    }

    #[test]
    #[should_panic(expected = "unknown tier link")]
    fn transmit_on_unknown_tier_panics() {
        let mut acc = LinkAccounting::new(1, 300.0);
        acc.transmit(TierTag(5), 1);
    }
}
