//! Router-side flow exporter: flow cache plus v5 datagram emission.
//!
//! An [`Exporter`] models one core router's NetFlow pipeline: packets are
//! run through a [`Sampler`], sampled packets accumulate in a flow cache
//! keyed by 5-tuple, and [`Exporter::flush`] drains the cache into v5
//! export datagrams of at most 30 records each, stamping the router's
//! `engine_id` and sampling rate into every header so the collector can
//! attribute and de-sample them.

use crate::fasthash::FastHashMap;
use crate::key::FlowKey;
use crate::record::{V5Header, V5Packet, V5Record, MAX_RECORDS_PER_PACKET};
use crate::sampler::Sampler;

#[derive(Debug, Clone, Copy, Default)]
struct CacheEntry {
    packets: u64,
    octets: u64,
    first_ms: u32,
    last_ms: u32,
}

/// One router's NetFlow exporter.
#[derive(Debug)]
pub struct Exporter<S: Sampler> {
    engine_id: u8,
    sampler: S,
    cache: FastHashMap<FlowKey, CacheEntry>,
    flow_sequence: u32,
    clock_ms: u32,
}

impl<S: Sampler> Exporter<S> {
    /// Creates an exporter for router `engine_id` with the given sampler.
    pub fn new(engine_id: u8, sampler: S) -> Exporter<S> {
        Exporter {
            engine_id,
            sampler,
            cache: FastHashMap::default(),
            flow_sequence: 0,
            clock_ms: 0,
        }
    }

    /// The router id stamped into export headers.
    pub fn engine_id(&self) -> u8 {
        self.engine_id
    }

    /// Number of distinct flows currently cached.
    pub fn cached_flows(&self) -> usize {
        self.cache.len()
    }

    /// Pre-sizes the flow cache for `n` distinct flows, avoiding rehash
    /// cascades when the caller knows the flow population up front (the
    /// bulk measurement pipeline does).
    pub fn reserve_flows(&mut self, n: usize) {
        self.cache.reserve(n);
    }

    /// Advances the router's uptime clock (affects flow first/last
    /// timestamps).
    pub fn tick_ms(&mut self, ms: u32) {
        self.clock_ms = self.clock_ms.saturating_add(ms);
    }

    /// Clones this exporter's full state (cache, sampler, sequence,
    /// clock) under a different router id.
    ///
    /// Sampling is a deterministic function of the sampler's starting
    /// state and the observation sequence, so when several routers on a
    /// path see the same packet stream (as the measurement pipeline
    /// simulates), each one's exporter state is identical except for the
    /// `engine_id` stamped into headers. Replicating after simulating one
    /// router is byte-for-byte equivalent to re-simulating per router and
    /// skips rebuilding a flow cache per replica.
    pub fn replicate_as(&self, engine_id: u8) -> Exporter<S>
    where
        S: Clone,
    {
        Exporter {
            engine_id,
            sampler: self.sampler.clone(),
            cache: self.cache.clone(),
            flow_sequence: self.flow_sequence,
            clock_ms: self.clock_ms,
        }
    }

    /// Offers one packet of `bytes` bytes belonging to `key`; it enters
    /// the cache only if the sampler selects it. Returns whether it was
    /// sampled.
    pub fn observe_packet(&mut self, key: FlowKey, bytes: u32) -> bool {
        if !self.sampler.sample(&key) {
            return false;
        }
        self.credit(key, 1, bytes);
        true
    }

    /// Offers `count` back-to-back packets of `bytes` bytes each, sampling
    /// them in O(1) via [`Sampler::sample_many`]. Returns how many were
    /// sampled. Semantically equivalent to `count` calls of
    /// [`Exporter::observe_packet`]; use this to simulate Gbps-scale flows.
    pub fn observe_packets(&mut self, key: FlowKey, count: u64, bytes: u32) -> u64 {
        let sampled = self.sampler.sample_many(&key, count);
        if sampled > 0 {
            self.credit(key, sampled, bytes);
        }
        sampled
    }

    fn credit(&mut self, key: FlowKey, packets: u64, bytes_per_packet: u32) {
        let now = self.clock_ms;
        let entry = self.cache.entry(key).or_insert(CacheEntry {
            packets: 0,
            octets: 0,
            first_ms: now,
            last_ms: now,
        });
        entry.packets += packets;
        entry.octets += packets * bytes_per_packet as u64;
        entry.last_ms = now;
    }

    /// Re-enters already-sampled tallies into the cache (used by the
    /// timed exporter to return unexpired flows after a selective drain).
    pub(crate) fn recredit(&mut self, key: FlowKey, packets: u64, octets: u64) {
        let now = self.clock_ms;
        let entry = self.cache.entry(key).or_insert(CacheEntry {
            packets: 0,
            octets: 0,
            first_ms: now,
            last_ms: now,
        });
        entry.packets += packets;
        entry.octets += octets;
    }

    /// Drains the cache into export datagrams stamped with `unix_secs`.
    ///
    /// Flows are emitted in deterministic (sorted-key) order; each
    /// datagram carries at most [`MAX_RECORDS_PER_PACKET`] records and the
    /// running `flow_sequence`. Flows whose tallies exceed the v5 record's
    /// 32-bit counters are split across several records, as a real router
    /// does when a long-lived flow hits its active timeout repeatedly.
    pub fn flush(&mut self, unix_secs: u32) -> Vec<V5Packet> {
        let entries = self.drain_sorted();

        // Expand each cache entry into one or more u32-sized records.
        let mut flat: Vec<V5Record> = Vec::with_capacity(entries.len());
        for (key, e) in entries {
            expand_entry(key, e, |r| flat.push(r));
        }

        self.frame_records(flat, unix_secs)
    }

    /// Drains the cache into deterministic (sorted-key) order.
    fn drain_sorted(&mut self) -> Vec<(FlowKey, CacheEntry)> {
        let mut entries: Vec<(FlowKey, CacheEntry)> = self.cache.drain().collect();
        entries.sort_unstable_by_key(|(k, _)| k.sort_key());
        entries
    }

    /// Drains the cache straight to encoded wire datagrams — byte-for-byte
    /// what `flush(unix_secs)` followed by [`V5Packet::encode`] on each
    /// packet produces, without materializing any intermediate
    /// [`V5Packet`]s or record vectors. This is the fast path the bulk
    /// measurement pipeline feeds to [`Collector::ingest_batch`]
    /// (`crate::collector::Collector::ingest_batch`); the differential
    /// test below pins the byte identity.
    pub fn flush_wire(&mut self, unix_secs: u32) -> Vec<bytes::Bytes> {
        use crate::record::{HEADER_LEN, RECORD_LEN};

        let entries = self.drain_sorted();
        // Total records, counting oversized flows' extra chunks, so every
        // header's count is known before its records stream in.
        let mut remaining: u64 = entries.iter().map(|(_, e)| chunks_for(e)).sum();

        let mut out: Vec<bytes::Bytes> =
            Vec::with_capacity(remaining.div_ceil(MAX_RECORDS_PER_PACKET as u64) as usize);
        let mut buf: Vec<u8> = Vec::new();
        let mut left_in_packet: u16 = 0;
        for (key, e) in entries {
            expand_entry(key, e, |r| {
                if left_in_packet == 0 {
                    let count = remaining.min(MAX_RECORDS_PER_PACKET as u64) as u16;
                    let header = V5Header {
                        count,
                        sys_uptime_ms: self.clock_ms,
                        unix_secs,
                        unix_nsecs: 0,
                        flow_sequence: self.flow_sequence,
                        engine_type: 0,
                        engine_id: self.engine_id,
                        // Mode 01 (packet interval sampling) + rate.
                        sampling_interval: 0x4000 | (self.sampler.rate() as u16 & 0x3FFF),
                    };
                    self.flow_sequence = self.flow_sequence.wrapping_add(count as u32);
                    buf = Vec::with_capacity(HEADER_LEN + count as usize * RECORD_LEN);
                    header.encode(&mut buf);
                    left_in_packet = count;
                }
                r.encode(&mut buf);
                left_in_packet -= 1;
                remaining -= 1;
                if left_in_packet == 0 {
                    out.push(bytes::Bytes::from(std::mem::take(&mut buf)));
                }
            });
        }
        debug_assert_eq!(remaining, 0);
        out
    }

    /// Frames loose records into export datagrams of at most
    /// [`MAX_RECORDS_PER_PACKET`], advancing the flow sequence.
    pub(crate) fn frame_records(
        &mut self,
        records: Vec<V5Record>,
        unix_secs: u32,
    ) -> Vec<V5Packet> {
        let mut packets = Vec::new();
        for chunk in records.chunks(MAX_RECORDS_PER_PACKET) {
            let records: Vec<V5Record> = chunk.to_vec();
            let header = V5Header {
                count: records.len() as u16,
                sys_uptime_ms: self.clock_ms,
                unix_secs,
                unix_nsecs: 0,
                flow_sequence: self.flow_sequence,
                engine_type: 0,
                engine_id: self.engine_id,
                // Mode 01 (packet interval sampling) + rate.
                sampling_interval: 0x4000 | (self.sampler.rate() as u16 & 0x3FFF),
            };
            self.flow_sequence = self.flow_sequence.wrapping_add(records.len() as u32);
            packets.push(V5Packet { header, records });
        }
        packets
    }
}

/// Number of u32-sized records a cache entry expands to (oversized flows
/// split, as a real router does when a long-lived flow hits its active
/// timeout repeatedly).
fn chunks_for(e: &CacheEntry) -> u64 {
    (e.octets.div_ceil(u32::MAX as u64))
        .max(e.packets.div_ceil(u32::MAX as u64))
        .max(1)
}

/// Expands one cache entry into its export records, in order. Both flush
/// paths funnel through here so their record streams cannot diverge.
fn expand_entry(key: FlowKey, e: CacheEntry, mut emit: impl FnMut(V5Record)) {
    let chunks = chunks_for(&e);
    let mut octets_left = e.octets;
    let mut packets_left = e.packets;
    for i in 0..chunks {
        let remaining = chunks - i;
        let octets = octets_left / remaining;
        let pkts = packets_left / remaining;
        octets_left -= octets;
        packets_left -= pkts;
        emit(V5Record {
            src_addr: key.src_addr,
            dst_addr: key.dst_addr,
            next_hop: std::net::Ipv4Addr::UNSPECIFIED,
            input_if: 1,
            output_if: 2,
            packets: pkts as u32,
            octets: octets as u32,
            first_ms: e.first_ms,
            last_ms: e.last_ms,
            src_port: key.src_port,
            dst_port: key.dst_port,
            tcp_flags: 0,
            protocol: key.protocol,
            tos: 0,
            src_as: 0,
            dst_as: 0,
            src_mask: 0,
            dst_mask: 0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::SystematicSampler;
    use std::net::Ipv4Addr;

    fn key(i: u32) -> FlowKey {
        FlowKey {
            src_addr: Ipv4Addr::from(0x0b00_0000 | i),
            dst_addr: Ipv4Addr::new(8, 8, 8, 8),
            src_port: 40_000,
            dst_port: 443,
            protocol: 6,
        }
    }

    #[test]
    fn unsampled_exporter_records_every_packet() {
        let mut e = Exporter::new(1, SystematicSampler::new(1));
        for _ in 0..10 {
            assert!(e.observe_packet(key(1), 1500));
        }
        let pkts = e.flush(1_700_000_000);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].records.len(), 1);
        assert_eq!(pkts[0].records[0].packets, 10);
        assert_eq!(pkts[0].records[0].octets, 15_000);
    }

    #[test]
    fn sampling_reduces_recorded_volume() {
        let mut e = Exporter::new(1, SystematicSampler::new(10));
        for _ in 0..100 {
            e.observe_packet(key(1), 1000);
        }
        let pkts = e.flush(0);
        assert_eq!(pkts[0].records[0].packets, 10);
        assert_eq!(pkts[0].records[0].octets, 10_000);
    }

    #[test]
    fn flush_chunks_at_thirty_records() {
        let mut e = Exporter::new(1, SystematicSampler::new(1));
        for i in 0..65 {
            e.observe_packet(key(i), 100);
        }
        let pkts = e.flush(0);
        assert_eq!(pkts.len(), 3);
        assert_eq!(pkts[0].records.len(), 30);
        assert_eq!(pkts[1].records.len(), 30);
        assert_eq!(pkts[2].records.len(), 5);
        // Headers agree with payload and carry the engine id.
        for p in &pkts {
            assert_eq!(p.header.count as usize, p.records.len());
            assert_eq!(p.header.engine_id, 1);
        }
    }

    #[test]
    fn flow_sequence_advances_across_flushes() {
        let mut e = Exporter::new(9, SystematicSampler::new(1));
        e.observe_packet(key(1), 100);
        let first = e.flush(0);
        assert_eq!(first[0].header.flow_sequence, 0);
        e.observe_packet(key(2), 100);
        let second = e.flush(0);
        assert_eq!(second[0].header.flow_sequence, 1);
    }

    #[test]
    fn flush_clears_cache() {
        let mut e = Exporter::new(1, SystematicSampler::new(1));
        e.observe_packet(key(1), 100);
        assert_eq!(e.cached_flows(), 1);
        e.flush(0);
        assert_eq!(e.cached_flows(), 0);
        assert!(e.flush(0).is_empty());
    }

    #[test]
    fn header_carries_sampling_rate() {
        let mut e = Exporter::new(1, SystematicSampler::new(128));
        for _ in 0..256 {
            e.observe_packet(key(1), 100);
        }
        let pkts = e.flush(0);
        assert_eq!(pkts[0].header.sampling_rate(), 128);
    }

    #[test]
    fn timestamps_track_clock() {
        let mut e = Exporter::new(1, SystematicSampler::new(1));
        e.observe_packet(key(1), 100);
        e.tick_ms(5_000);
        e.observe_packet(key(1), 100);
        let pkts = e.flush(0);
        let r = pkts[0].records[0];
        assert_eq!(r.first_ms, 0);
        assert_eq!(r.last_ms, 5_000);
    }

    #[test]
    fn wire_roundtrip_through_encode_decode() {
        let mut e = Exporter::new(4, SystematicSampler::new(1));
        for i in 0..3 {
            e.observe_packet(key(i), 999);
        }
        let pkts = e.flush(123);
        let wire = pkts[0].encode();
        let decoded = V5Packet::decode(&wire).unwrap();
        assert_eq!(decoded, pkts[0]);
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use crate::collector::Collector;
    use crate::sampler::SystematicSampler;
    use std::net::Ipv4Addr;

    fn key() -> FlowKey {
        FlowKey {
            src_addr: Ipv4Addr::new(3, 3, 3, 3),
            dst_addr: Ipv4Addr::new(4, 4, 4, 4),
            src_port: 5,
            dst_port: 6,
            protocol: 17,
        }
    }

    #[test]
    fn observe_packets_matches_per_packet_loop() {
        let mut batch = Exporter::new(1, SystematicSampler::new(7));
        let mut loop_ = Exporter::new(1, SystematicSampler::new(7));
        batch.observe_packets(key(), 1234, 900);
        for _ in 0..1234 {
            loop_.observe_packet(key(), 900);
        }
        let a = batch.flush(0);
        let b = loop_.flush(0);
        assert_eq!(a[0].records, b[0].records);
    }

    #[test]
    fn oversized_flow_splits_into_multiple_records() {
        // 6 GiB sampled volume cannot fit one u32 octet counter.
        let mut e = Exporter::new(1, SystematicSampler::new(1));
        let count = 6 * 1024 * 1024; // packets
        let bytes = 1024u32; // 6 GiB total
        e.observe_packets(key(), count, bytes);
        // Bypass: total = 6 GiB > u32::MAX (~4.29e9), needs 2 records.
        let pkts = e.flush(0);
        let records: Vec<&V5Record> = pkts.iter().flat_map(|p| &p.records).collect();
        assert!(records.len() >= 2, "flow must split");
        let total: u64 = records.iter().map(|r| r.octets as u64).sum();
        assert_eq!(total, count * bytes as u64);

        // And the collector reassembles the full volume.
        let mut c = Collector::new();
        let mut e2 = Exporter::new(1, SystematicSampler::new(1));
        e2.observe_packets(key(), count, bytes);
        for p in e2.flush(0) {
            c.ingest(&p.encode()).unwrap();
        }
        assert_eq!(c.measured_flows()[0].bytes, count * bytes as u64);
    }

    /// Two identically-fed exporters: `flush_wire` must emit exactly the
    /// bytes of `flush` + per-packet `encode`, across multiple datagrams,
    /// oversized multi-record flows, and repeated flushes (sequence
    /// continuity).
    #[test]
    fn flush_wire_is_byte_identical_to_flush_plus_encode() {
        let mut a = Exporter::new(7, SystematicSampler::new(3));
        let mut b = Exporter::new(7, SystematicSampler::new(3));
        for round in 0..3u32 {
            for i in 0..100 {
                let k = FlowKey {
                    src_addr: Ipv4Addr::from(0x0a00_0000 | (i * 37 % 64)),
                    dst_addr: Ipv4Addr::new(8, 8, 8, 8),
                    src_port: 40_000 + (i % 16) as u16,
                    dst_port: 443,
                    protocol: 6,
                };
                a.observe_packets(k, 50 + i as u64, 1200);
                b.observe_packets(k, 50 + i as u64, 1200);
            }
            // One oversized flow that must split into several records.
            a.observe_packets(key(), 6 * 1024 * 1024, 1024);
            b.observe_packets(key(), 6 * 1024 * 1024, 1024);
            a.tick_ms(1000);
            b.tick_ms(1000);

            let reference: Vec<bytes::Bytes> =
                a.flush(123 + round).iter().map(V5Packet::encode).collect();
            let wire = b.flush_wire(123 + round);
            assert_eq!(reference, wire, "round {round}");
            assert!(!wire.is_empty());
        }
        // Both exporters end at the same sequence number.
        a.observe_packets(key(), 3, 100);
        b.observe_packets(key(), 3, 100);
        assert_eq!(
            a.flush(9)[0].header.flow_sequence,
            V5Packet::decode(&b.flush_wire(9)[0])
                .unwrap()
                .header
                .flow_sequence
        );
    }

    /// `replicate_as` must be byte-for-byte equivalent to independently
    /// re-simulating the same packet stream through a fresh exporter with
    /// the replica's router id — including sampler phase (rate 3), clock
    /// ticks, and sequence state across repeated flushes.
    #[test]
    fn replicate_as_matches_independent_resimulation() {
        let mut simulated = Exporter::new(0, SystematicSampler::new(3));
        let mut resim = Exporter::new(9, SystematicSampler::new(3));
        let feed = |e: &mut Exporter<SystematicSampler>| {
            for i in 0..200u32 {
                let k = FlowKey {
                    src_addr: Ipv4Addr::from(0x0a00_0000 | (i * 13 % 96)),
                    dst_addr: Ipv4Addr::new(8, 8, 4, 4),
                    src_port: (i % 11) as u16,
                    dst_port: 443,
                    protocol: 6,
                };
                e.observe_packets(k, 1 + (i as u64 % 7), 900);
                if i % 50 == 0 {
                    e.tick_ms(250);
                }
            }
        };
        feed(&mut simulated);
        feed(&mut resim);
        let mut replica = simulated.replicate_as(9);
        assert_eq!(replica.engine_id(), 9);
        assert_eq!(replica.cached_flows(), resim.cached_flows());
        assert_eq!(replica.flush_wire(77), resim.flush_wire(77));

        // Post-replication observations stay in lockstep too (sampler
        // phase was cloned mid-stream).
        replica.observe_packets(key(), 10, 500);
        resim.observe_packets(key(), 10, 500);
        assert_eq!(replica.flush_wire(78), resim.flush_wire(78));
    }

    #[test]
    fn batch_is_fast_path_for_large_flows() {
        // Smoke: a 10M-packet flow takes O(1) work.
        let mut e = Exporter::new(1, SystematicSampler::new(100));
        let sampled = e.observe_packets(key(), 10_000_000, 1500);
        assert_eq!(sampled, 100_000);
    }
}
