//! Traffic-matrix aggregation: measured flows → per-pair demands.
//!
//! The final step of the paper's data pipeline (§4.1.1): 5-tuple flows are
//! aggregated to host pairs (destination-based pricing does not care about
//! ports) and converted from byte counts over the capture window into
//! demand rates in Mbps — the `q_i` the demand models consume.

use std::net::Ipv4Addr;

use serde::Serialize;

use crate::key::MeasuredFlow;

/// A (source, destination) traffic matrix in bytes.
///
/// Stored as a vec sorted by packed `(src, dst)` key with one entry per
/// pair — the matrix is an aggregate-and-read-out structure with no
/// point-lookup API, and its main producer
/// ([`TrafficMatrix::from_flows`]) receives key-sorted collector
/// read-outs, so sorted-vec aggregation is a single linear pass where a
/// hash map would pay a hashed insert per flow.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TrafficMatrix {
    entries: Vec<((Ipv4Addr, Ipv4Addr), u64)>,
}

/// Packed host-pair key whose numeric order equals `(src, dst)` order.
fn pack(pair: (Ipv4Addr, Ipv4Addr)) -> u64 {
    (u64::from(u32::from(pair.0)) << 32) | u64::from(u32::from(pair.1))
}

/// One aggregated demand entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DemandEntry {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Total bytes over the capture window.
    pub bytes: u64,
    /// Demand rate in Mbps.
    pub mbps: f64,
}

impl TrafficMatrix {
    /// Builds the matrix from deduplicated measured flows, aggregating
    /// over ports and protocol.
    pub fn from_flows(flows: &[MeasuredFlow]) -> TrafficMatrix {
        // Key-sorted input (the collector read-out) makes flows sharing a
        // host pair adjacent, so aggregation is one run-merging pass.
        // Unsorted input produces out-of-order runs that normalize()
        // sorts and merges afterwards — same totals either way, since
        // byte sums are commutative.
        let mut entries: Vec<((Ipv4Addr, Ipv4Addr), u64)> = Vec::new();
        for f in flows {
            let pair = f.key.host_pair();
            match entries.last_mut() {
                Some((p, bytes)) if *p == pair => *bytes += f.bytes,
                _ => entries.push((pair, f.bytes)),
            }
        }
        let mut matrix = TrafficMatrix { entries };
        matrix.normalize();
        matrix
    }

    /// Restores the sorted-unique invariant; a no-op linear scan when the
    /// entries are already in order.
    fn normalize(&mut self) {
        if self.entries.windows(2).all(|w| pack(w[0].0) < pack(w[1].0)) {
            return;
        }
        self.entries.sort_unstable_by_key(|&(pair, _)| pack(pair));
        self.entries.dedup_by(|later, earlier| {
            if earlier.0 == later.0 {
                earlier.1 += later.1;
                true
            } else {
                false
            }
        });
    }

    /// Adds raw bytes to a pair (for synthetic construction).
    pub fn add(&mut self, src: Ipv4Addr, dst: Ipv4Addr, bytes: u64) {
        let key = pack((src, dst));
        match self
            .entries
            .binary_search_by_key(&key, |&(pair, _)| pack(pair))
        {
            Ok(i) => self.entries[i].1 += bytes,
            Err(i) => self.entries.insert(i, ((src, dst), bytes)),
        }
    }

    /// Number of (src, dst) pairs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no pairs are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total bytes across all pairs.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|&(_, bytes)| bytes).sum()
    }

    /// Demand entries over a capture window of `duration_secs`, sorted by
    /// (src, dst) for determinism. `duration_secs` must be positive.
    pub fn demands(&self, duration_secs: f64) -> Vec<DemandEntry> {
        self.iter_demands(duration_secs).collect()
    }

    /// Streaming form of [`TrafficMatrix::demands`]: the same entries in
    /// the same (src, dst) order without materializing a vec — for
    /// million-pair consumers that fold the demands immediately.
    pub fn iter_demands(&self, duration_secs: f64) -> impl Iterator<Item = DemandEntry> + '_ {
        assert!(
            duration_secs.is_finite() && duration_secs > 0.0,
            "duration must be positive"
        );
        // Entries are maintained sorted by (src, dst); emit in place.
        self.entries
            .iter()
            .map(move |&((src, dst), bytes)| DemandEntry {
                src,
                dst,
                bytes,
                mbps: bytes as f64 * 8.0 / duration_secs / 1e6,
            })
    }

    /// Aggregate demand in Gbps over a window of `duration_secs`
    /// (Table 1's "Aggregate traffic" column).
    pub fn aggregate_gbps(&self, duration_secs: f64) -> f64 {
        self.total_bytes() as f64 * 8.0 / duration_secs / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::FlowKey;

    fn flow(src: [u8; 4], dst: [u8; 4], port: u16, bytes: u64) -> MeasuredFlow {
        MeasuredFlow {
            key: FlowKey {
                src_addr: src.into(),
                dst_addr: dst.into(),
                src_port: port,
                dst_port: 443,
                protocol: 6,
            },
            bytes,
            packets: bytes / 1000,
        }
    }

    #[test]
    fn aggregates_over_ports() {
        let flows = [
            flow([1, 1, 1, 1], [2, 2, 2, 2], 1000, 500),
            flow([1, 1, 1, 1], [2, 2, 2, 2], 2000, 300),
            flow([1, 1, 1, 1], [3, 3, 3, 3], 1000, 100),
        ];
        let m = TrafficMatrix::from_flows(&flows);
        assert_eq!(m.len(), 2);
        assert_eq!(m.total_bytes(), 900);
        let demands = m.demands(1.0);
        assert_eq!(demands[0].bytes, 800, "two ports merged");
    }

    #[test]
    fn direction_matters() {
        let flows = [
            flow([1, 1, 1, 1], [2, 2, 2, 2], 1000, 500),
            flow([2, 2, 2, 2], [1, 1, 1, 1], 1000, 300),
        ];
        let m = TrafficMatrix::from_flows(&flows);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn mbps_conversion() {
        // 1,250,000 bytes over 10 s = 1 Mbps.
        let flows = [flow([1, 1, 1, 1], [2, 2, 2, 2], 1, 1_250_000)];
        let m = TrafficMatrix::from_flows(&flows);
        let d = m.demands(10.0);
        assert!((d[0].mbps - 1.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_gbps_over_24h() {
        // Table 1 style: bytes over 24 h → Gbps.
        let mut m = TrafficMatrix::default();
        // 37 Gbps for 86,400 s = 37e9/8 * 86400 bytes.
        let bytes = (37.0e9 / 8.0 * 86_400.0) as u64;
        m.add([1, 0, 0, 1].into(), [2, 0, 0, 2].into(), bytes);
        assert!((m.aggregate_gbps(86_400.0) - 37.0).abs() < 1e-6);
    }

    #[test]
    fn demands_sorted_deterministically() {
        let flows = [
            flow([9, 0, 0, 1], [1, 0, 0, 1], 1, 10),
            flow([1, 0, 0, 1], [9, 0, 0, 1], 1, 20),
            flow([5, 0, 0, 1], [5, 0, 0, 2], 1, 30),
        ];
        let m = TrafficMatrix::from_flows(&flows);
        let d = m.demands(1.0);
        for w in d.windows(2) {
            assert!((w[0].src, w[0].dst) < (w[1].src, w[1].dst));
        }
    }

    #[test]
    fn unsorted_input_aggregates_like_sorted() {
        // Same flows in shuffled order: totals, len, and demand order
        // must not change.
        let mut flows = vec![
            flow([9, 0, 0, 1], [1, 0, 0, 1], 1, 10),
            flow([1, 0, 0, 1], [9, 0, 0, 1], 1, 20),
            flow([9, 0, 0, 1], [1, 0, 0, 1], 2, 40),
            flow([5, 0, 0, 1], [5, 0, 0, 2], 1, 30),
            flow([1, 0, 0, 1], [9, 0, 0, 1], 3, 5),
        ];
        let shuffled = TrafficMatrix::from_flows(&flows);
        flows.sort_by_key(|f| f.key);
        let sorted = TrafficMatrix::from_flows(&flows);
        assert_eq!(shuffled.len(), sorted.len());
        assert_eq!(shuffled.total_bytes(), sorted.total_bytes());
        assert_eq!(shuffled.demands(1.0), sorted.demands(1.0));
    }

    #[test]
    fn add_matches_from_flows() {
        let flows = [
            flow([2, 0, 0, 1], [1, 0, 0, 1], 1, 7),
            flow([1, 0, 0, 1], [2, 0, 0, 1], 1, 3),
            flow([2, 0, 0, 1], [1, 0, 0, 1], 9, 5),
        ];
        let built = TrafficMatrix::from_flows(&flows);
        let mut added = TrafficMatrix::default();
        for f in &flows {
            let (src, dst) = f.key.host_pair();
            added.add(src, dst, f.bytes);
        }
        assert_eq!(built.demands(1.0), added.demands(1.0));
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn rejects_zero_duration() {
        TrafficMatrix::default().demands(0.0);
    }
}
