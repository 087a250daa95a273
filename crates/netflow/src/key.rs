//! Flow keys and measured flows: the collector's unit of aggregation.

use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

use crate::record::V5Record;

/// The classic 5-tuple flow key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src_addr: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_addr: Ipv4Addr,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// IP protocol number.
    pub protocol: u8,
}

/// Two word-sized writes instead of five per-field writes: flow keys
/// are hashed on every exporter-cache credit, so this is hot. Equal keys
/// feed identical words, so the `Eq`/`Hash` contract holds for any
/// hasher.
impl std::hash::Hash for FlowKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(
            (u64::from(u32::from(self.src_addr)) << 32) | u64::from(u32::from(self.dst_addr)),
        );
        state.write_u64(
            (u64::from(self.src_port) << 24)
                | (u64::from(self.dst_port) << 8)
                | u64::from(self.protocol),
        );
    }
}

impl FlowKey {
    /// Extracts the key from a v5 record.
    pub fn from_record(r: &V5Record) -> FlowKey {
        FlowKey {
            src_addr: r.src_addr,
            dst_addr: r.dst_addr,
            src_port: r.src_port,
            dst_port: r.dst_port,
            protocol: r.protocol,
        }
    }

    /// The host-pair key (ignores ports/protocol): the granularity at
    /// which the paper aggregates traffic into destination-based flows.
    pub fn host_pair(&self) -> (Ipv4Addr, Ipv4Addr) {
        (self.src_addr, self.dst_addr)
    }

    /// All five fields packed into one integer whose numeric order equals
    /// the derived [`Ord`]: a single u128 comparison per sort step instead
    /// of five field comparisons. Used by the hot sorted read-outs.
    pub(crate) fn sort_key(&self) -> u128 {
        (u128::from(u32::from(self.src_addr)) << 72)
            | (u128::from(u32::from(self.dst_addr)) << 40)
            | (u128::from(self.src_port) << 24)
            | (u128::from(self.dst_port) << 8)
            | u128::from(self.protocol)
    }
}

/// A measured flow after collection: key plus de-sampled volume.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasuredFlow {
    /// Flow key.
    pub key: FlowKey,
    /// Estimated total bytes (sampled octets × sampling rate).
    pub bytes: u64,
    /// Estimated total packets.
    pub packets: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_key_order_equals_derived_ord() {
        // Adjacent-field boundary cases: a higher earlier field must beat
        // any later-field difference, matching the derived Ord.
        let base = FlowKey {
            src_addr: Ipv4Addr::new(1, 2, 3, 4),
            dst_addr: Ipv4Addr::new(5, 6, 7, 8),
            src_port: 100,
            dst_port: 200,
            protocol: 6,
        };
        let mut variants = vec![base];
        for (src, dst, sp, dp, proto) in [
            (
                Ipv4Addr::new(1, 2, 3, 5),
                Ipv4Addr::new(0, 0, 0, 0),
                0,
                0,
                0,
            ),
            (
                Ipv4Addr::new(1, 2, 3, 3),
                Ipv4Addr::new(255, 255, 255, 255),
                65535,
                65535,
                255,
            ),
            (base.src_addr, Ipv4Addr::new(5, 6, 7, 9), 0, 0, 0),
            (base.src_addr, base.dst_addr, 101, 0, 0),
            (base.src_addr, base.dst_addr, 100, 201, 0),
            (base.src_addr, base.dst_addr, 100, 200, 17),
        ] {
            variants.push(FlowKey {
                src_addr: src,
                dst_addr: dst,
                src_port: sp,
                dst_port: dp,
                protocol: proto,
            });
        }
        for a in &variants {
            for b in &variants {
                assert_eq!(a.cmp(b), a.sort_key().cmp(&b.sort_key()), "{a:?} vs {b:?}");
            }
        }
    }

    fn record() -> V5Record {
        V5Record {
            src_addr: Ipv4Addr::new(1, 2, 3, 4),
            dst_addr: Ipv4Addr::new(5, 6, 7, 8),
            next_hop: Ipv4Addr::UNSPECIFIED,
            input_if: 0,
            output_if: 0,
            packets: 10,
            octets: 1500,
            first_ms: 0,
            last_ms: 10,
            src_port: 1234,
            dst_port: 443,
            tcp_flags: 0,
            protocol: 6,
            tos: 0,
            src_as: 0,
            dst_as: 0,
            src_mask: 0,
            dst_mask: 0,
        }
    }

    #[test]
    fn key_from_record_takes_five_tuple() {
        let k = FlowKey::from_record(&record());
        assert_eq!(k.src_addr, Ipv4Addr::new(1, 2, 3, 4));
        assert_eq!(k.dst_addr, Ipv4Addr::new(5, 6, 7, 8));
        assert_eq!(k.src_port, 1234);
        assert_eq!(k.dst_port, 443);
        assert_eq!(k.protocol, 6);
    }

    #[test]
    fn host_pair_ignores_ports() {
        let mut r2 = record();
        r2.src_port = 9999;
        let k1 = FlowKey::from_record(&record());
        let k2 = FlowKey::from_record(&r2);
        assert_ne!(k1, k2);
        assert_eq!(k1.host_pair(), k2.host_pair());
    }

    #[test]
    fn keys_hash_and_order() {
        use std::collections::{BTreeSet, HashSet};
        let k1 = FlowKey::from_record(&record());
        let mut r2 = record();
        r2.dst_port = 80;
        let k2 = FlowKey::from_record(&r2);
        let hs: HashSet<_> = [k1, k2, k1].into_iter().collect();
        assert_eq!(hs.len(), 2);
        let bs: BTreeSet<_> = [k2, k1].into_iter().collect();
        assert_eq!(bs.len(), 2);
    }
}
