//! Flat flow table: the collector's open-addressed per-shard store.
//!
//! The previous nested `HashMap<FlowKey, HashMap<u8, Observation>>` paid
//! one SipHash plus one inner-map allocation per new (flow, router)
//! pair. This table stores each flow once in an insertion-ordered entry
//! vec, probes a power-of-two slot array by linear scan, and keeps the
//! per-router tallies inline (engine ids are `u8`; almost every flow is
//! seen by a handful of routers, so [`INLINE_ROUTERS`] slots live in the
//! entry and only pathological fan-out spills to a heap vec).
//!
//! ## Invariants
//!
//! - `slots` has power-of-two length; a slot is either [`EMPTY`] or an
//!   index into `entries`. Every entry is referenced by exactly one slot
//!   (found by probing from `entry.hash`), so lookups and growth never
//!   scan `entries`.
//! - Load is kept below 7/8; growth rebuilds `slots` only — entries
//!   never move, so entry indices (and insertion order) are stable.
//! - The externally visible aggregates are order-independent: credits
//!   are commutative `u64 +=`, the measured "best router" estimate is
//!   the lexicographic `(bytes, packets)` maximum (ties cannot change
//!   the output), and [`Collector`](crate::Collector) sorts flows by
//!   key. Any interleaving of the same multiset of credits yields an
//!   identical table as far as any caller can observe.

use crate::key::{FlowKey, MeasuredFlow};

/// Slot sentinel: no entry.
const EMPTY: u32 = u32::MAX;

/// Per-router observations held inline before spilling to the heap.
pub const INLINE_ROUTERS: usize = 4;

/// Initial slot-array size on first insert (power of two).
const FIRST_CAPACITY: usize = 64;

/// The five key fields packed into two words and pushed through a
/// splitmix64-style finalizer: full avalanche at a handful of
/// multiplies, instead of 13 byte-at-a-time FNV rounds.
///
/// This is the collector's *only* flow hash: the same value selects the
/// shard (`hash % n_shards`) and probes the shard's table, so the hash
/// is computed once per record. Depends only on the key, so re-sharding
/// a stream re-partitions but never splits a flow.
pub fn flow_hash(key: &FlowKey) -> u64 {
    let hi = (u64::from(u32::from(key.src_addr)) << 32) | u64::from(u32::from(key.dst_addr));
    let lo =
        (u64::from(key.src_port) << 24) | (u64::from(key.dst_port) << 8) | u64::from(key.protocol);
    let mut z = hi.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ lo;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One router's accumulated volume for a flow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Observation {
    bytes: u64,
    packets: u64,
}

/// Per-flow router tallies: a small inline array with heap spill.
#[derive(Debug, Default)]
struct RouterSet {
    len: u8,
    ids: [u8; INLINE_ROUTERS],
    obs: [Observation; INLINE_ROUTERS],
    spill: Vec<(u8, Observation)>,
}

impl RouterSet {
    fn first(router: u8, bytes: u64, packets: u64) -> RouterSet {
        let mut set = RouterSet {
            len: 1,
            ..RouterSet::default()
        };
        set.ids[0] = router;
        set.obs[0] = Observation { bytes, packets };
        set
    }

    fn credit(&mut self, router: u8, bytes: u64, packets: u64) {
        for i in 0..self.len as usize {
            if self.ids[i] == router {
                self.obs[i].bytes += bytes;
                self.obs[i].packets += packets;
                return;
            }
        }
        for (id, o) in &mut self.spill {
            if *id == router {
                o.bytes += bytes;
                o.packets += packets;
                return;
            }
        }
        if (self.len as usize) < INLINE_ROUTERS {
            let i = self.len as usize;
            self.ids[i] = router;
            self.obs[i] = Observation { bytes, packets };
            self.len += 1;
        } else {
            self.spill.push((router, Observation { bytes, packets }));
        }
    }

    fn observations(&self) -> impl Iterator<Item = Observation> + '_ {
        self.obs[..self.len as usize]
            .iter()
            .copied()
            .chain(self.spill.iter().map(|&(_, o)| o))
    }

    /// The deduplicated estimate: lexicographic `(bytes, packets)` max,
    /// so the result never depends on credit order even when two routers
    /// report identical byte counts.
    fn best(&self) -> Observation {
        let mut best = Observation::default();
        for o in self.observations() {
            if (o.bytes, o.packets) > (best.bytes, best.packets) {
                best = o;
            }
        }
        best
    }

    fn total(&self) -> Observation {
        let mut total = Observation::default();
        for o in self.observations() {
            total.bytes += o.bytes;
            total.packets += o.packets;
        }
        total
    }

    fn router_count(&self) -> usize {
        self.len as usize + self.spill.len()
    }
}

#[derive(Debug)]
struct Entry {
    hash: u64,
    key: FlowKey,
    routers: RouterSet,
}

/// The open-addressed flow table (see module docs).
#[derive(Debug, Default)]
pub struct FlowTable {
    /// Power-of-two probe array of entry indices ([`EMPTY`] = vacant).
    slots: Vec<u32>,
    /// Flows in insertion order; never reordered.
    entries: Vec<Entry>,
}

impl FlowTable {
    /// Creates an empty table (first insert allocates).
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    /// Distinct flows stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no flows are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Credits `(bytes, packets)` to `(key, router)`. `hash` must be
    /// [`flow_hash`]`(&key)` — passed in so the caller can reuse the
    /// value it already computed for shard selection.
    pub fn credit(&mut self, hash: u64, key: FlowKey, router: u8, bytes: u64, packets: u64) {
        debug_assert_eq!(hash, flow_hash(&key));
        if self.entries.len() + 1 > self.slots.len() / 8 * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == EMPTY {
                self.slots[i] = self.entries.len() as u32;
                self.entries.push(Entry {
                    hash,
                    key,
                    routers: RouterSet::first(router, bytes, packets),
                });
                return;
            }
            let entry = &mut self.entries[slot as usize];
            if entry.hash == hash && entry.key == key {
                entry.routers.credit(router, bytes, packets);
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles (or first-allocates) the slot array and re-probes every
    /// entry. Entries themselves never move.
    fn grow(&mut self) {
        let new_cap = if self.slots.is_empty() {
            FIRST_CAPACITY
        } else {
            self.slots.len() * 2
        };
        let mask = new_cap - 1;
        let mut slots = vec![EMPTY; new_cap];
        for (idx, entry) in self.entries.iter().enumerate() {
            let mut i = entry.hash as usize & mask;
            while slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            slots[i] = idx as u32;
        }
        self.slots = slots;
    }

    /// Appends each flow's deduplicated (best-single-router) estimate,
    /// in insertion order. The caller sorts.
    pub fn measured_into(&self, out: &mut Vec<MeasuredFlow>) {
        out.reserve(self.entries.len());
        for e in &self.entries {
            let best = e.routers.best();
            out.push(MeasuredFlow {
                key: e.key,
                bytes: best.bytes,
                packets: best.packets,
            });
        }
    }

    /// Appends each flow's summed (double-counting) totals, in insertion
    /// order. The caller sorts.
    pub fn summed_into(&self, out: &mut Vec<MeasuredFlow>) {
        out.reserve(self.entries.len());
        for e in &self.entries {
            let total = e.routers.total();
            out.push(MeasuredFlow {
                key: e.key,
                bytes: total.bytes,
                packets: total.packets,
            });
        }
    }

    /// Routers that reported flow `key` (diagnostics/tests).
    pub fn router_count(&self, key: &FlowKey) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let hash = flow_hash(key);
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == EMPTY {
                return None;
            }
            let entry = &self.entries[slot as usize];
            if entry.hash == hash && entry.key == *key {
                return Some(entry.routers.router_count());
            }
            i = (i + 1) & mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::net::Ipv4Addr;

    fn key(i: u32) -> FlowKey {
        FlowKey {
            src_addr: Ipv4Addr::from(0x0a00_0000 | i),
            dst_addr: Ipv4Addr::new(1, 2, 3, 4),
            src_port: (i % 50_000) as u16,
            dst_port: 80,
            protocol: 6,
        }
    }

    fn credit(t: &mut FlowTable, k: FlowKey, router: u8, bytes: u64, packets: u64) {
        t.credit(flow_hash(&k), k, router, bytes, packets);
    }

    /// Model: nested BTreeMaps, the semantics the table must preserve.
    #[derive(Default)]
    struct Model(BTreeMap<FlowKey, BTreeMap<u8, (u64, u64)>>);

    impl Model {
        fn credit(&mut self, k: FlowKey, router: u8, bytes: u64, packets: u64) {
            let o = self.0.entry(k).or_default().entry(router).or_default();
            o.0 += bytes;
            o.1 += packets;
        }

        fn measured(&self) -> Vec<MeasuredFlow> {
            self.0
                .iter()
                .map(|(k, routers)| {
                    let best = routers.values().copied().max().unwrap_or_default();
                    MeasuredFlow {
                        key: *k,
                        bytes: best.0,
                        packets: best.1,
                    }
                })
                .collect()
        }

        fn summed(&self) -> Vec<MeasuredFlow> {
            self.0
                .iter()
                .map(|(k, routers)| {
                    let (b, p) = routers
                        .values()
                        .fold((0, 0), |(b, p), &(ob, op)| (b + ob, p + op));
                    MeasuredFlow {
                        key: *k,
                        bytes: b,
                        packets: p,
                    }
                })
                .collect()
        }
    }

    fn sorted(mut flows: Vec<MeasuredFlow>) -> Vec<MeasuredFlow> {
        flows.sort_unstable_by_key(|f| f.key);
        flows
    }

    #[test]
    fn matches_nested_map_model_through_growth() {
        // Enough keys to force several slot-array doublings, with
        // repeated credits and multiple routers per flow.
        let mut table = FlowTable::new();
        let mut model = Model::default();
        let mut state = 0x1234_5678_9abc_def0u64;
        for step in 0..20_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = key((state >> 33) as u32 % 3_000);
            let router = (step % 7) as u8;
            let bytes = (state >> 7) % 10_000;
            let packets = bytes / 100 + 1;
            table.credit(flow_hash(&k), k, router, bytes, packets);
            model.credit(k, router, bytes, packets);
        }
        assert_eq!(table.len(), model.0.len());
        let mut measured = Vec::new();
        table.measured_into(&mut measured);
        assert_eq!(sorted(measured), model.measured());
        let mut summed = Vec::new();
        table.summed_into(&mut summed);
        assert_eq!(sorted(summed), model.summed());
    }

    #[test]
    fn spills_past_inline_router_capacity() {
        let mut table = FlowTable::new();
        let k = key(1);
        for router in 0..10u8 {
            credit(&mut table, k, router, 100 * (router as u64 + 1), 1);
        }
        // Second pass accumulates into both inline and spilled slots.
        for router in 0..10u8 {
            credit(&mut table, k, router, 1, 1);
        }
        assert_eq!(table.len(), 1);
        assert_eq!(table.router_count(&k), Some(10));
        let mut measured = Vec::new();
        table.measured_into(&mut measured);
        assert_eq!(measured[0].bytes, 1001, "max router is the 10th");
        assert_eq!(measured[0].packets, 2);
        let mut summed = Vec::new();
        table.summed_into(&mut summed);
        assert_eq!(summed[0].bytes, (100 + 1000) * 10 / 2 + 10);
        assert_eq!(summed[0].packets, 20);
    }

    #[test]
    fn best_is_order_independent_on_byte_ties() {
        // Same bytes from two routers, different packets: whichever
        // credit order, the (bytes, packets)-lexicographic max wins.
        let orders: [&[(u8, u64)]; 2] = [&[(0, 7), (1, 9)], &[(1, 9), (0, 7)]];
        let mut results = Vec::new();
        for order in orders {
            let mut table = FlowTable::new();
            for &(router, packets) in order {
                credit(&mut table, key(1), router, 500, packets);
            }
            let mut measured = Vec::new();
            table.measured_into(&mut measured);
            results.push(measured[0]);
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0].packets, 9);
    }

    #[test]
    fn empty_table_reports_nothing() {
        let table = FlowTable::new();
        assert!(table.is_empty());
        assert_eq!(table.len(), 0);
        assert_eq!(table.router_count(&key(1)), None);
        let mut out = Vec::new();
        table.measured_into(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn insertion_order_is_stable_across_growth() {
        let mut table = FlowTable::new();
        for i in 0..1000u32 {
            credit(&mut table, key(i), 0, i as u64 + 1, 1);
        }
        let mut measured = Vec::new();
        table.measured_into(&mut measured);
        // Entries come back in insertion order before the caller sorts.
        for (i, f) in measured.iter().enumerate() {
            assert_eq!(f.key, key(i as u32));
            assert_eq!(f.bytes, i as u64 + 1);
        }
    }
}
