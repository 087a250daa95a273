//! Collector: datagram ingestion, de-sampling, and cross-router
//! deduplication.
//!
//! The paper aggregates "all records of the flow, while ensuring that we
//! do not double-count records that are duplicated on different routers"
//! (§4.1.1) — a flow crossing three core routers is exported three times.
//! The [`Collector`] keeps per-(router, flow) tallies and, at read time,
//! credits each flow the **maximum** volume any single router reported:
//! every on-path router observes the complete flow (modulo sampling
//! noise), so the max is an unbiased single-observation estimate while a
//! sum would multiply true volume by the hop count.
//!
//! ## Ingest fast path
//!
//! At million-flow scale ingest dominates the measurement pipeline, so
//! the hot path is built from four layers (see DESIGN.md "Ingest fast
//! path" for the full argument):
//!
//! 1. **Zero-copy decode** — datagrams are parsed through
//!    [`V5PacketView`], which borrows the wire bytes and reads only the
//!    fields the collector uses; no per-packet `Vec` is allocated.
//! 2. **Flat flow tables** — each shard is an open-addressed
//!    [`FlowTable`] keyed by [`flow_hash`] (FNV-1a + splitmix64,
//!    computed once per record and reused for shard selection and table
//!    probing), with per-router tallies inline in the entry.
//! 3. **Parallel decode, serial accounting** — with
//!    [`Collector::with_shards_and_workers`], [`Collector::ingest_batch`]
//!    splits the datagram slice into contiguous chunks decoded by scoped
//!    worker threads. Workers only extract record tuples and per-datagram
//!    header summaries; the sequence-gap loss accounting (which is
//!    order-sensitive) then replays the summaries **serially in arrival
//!    order**, so counters and journal samples are identical to serial
//!    ingestion.
//! 4. **Pipelined fold** — decode workers stream tuple batches through
//!    bounded channels to fold workers that each own a disjoint subset
//!    of shards, so folding overlaps decoding instead of barriering on
//!    a fully materialized bucket list. One worker (the default) falls
//!    back to the serial loop.
//!
//! State is identical for every (shards, workers) combination: a flow's
//! records always land in the one shard its key hashes to, per-shard
//! credit order only permutes commutative `u64 +=` updates, the
//! measured estimate breaks byte ties by packet count (order-free), and
//! read-out sorts by key. The testkit ingest oracle pins this against
//! the serial reference under fault injection.

use crate::fasthash::FastHashMap;
use crate::key::{FlowKey, MeasuredFlow};
use crate::record::{DecodeError, V5Packet, V5PacketView};
use crate::table::{flow_hash, FlowTable};

/// Registry counter: export datagrams ingested.
pub const DATAGRAMS_COUNTER: &str = "netflow.collector.datagrams";
/// Registry counter: flow records ingested.
pub const RECORDS_COUNTER: &str = "netflow.collector.records";
/// Registry counter: malformed datagrams dropped.
pub const DECODE_ERRORS_COUNTER: &str = "netflow.collector.decode_errors";
/// Registry counter: records known lost to export-datagram drops
/// (per-router sequence gaps).
pub const LOST_RECORDS_COUNTER: &str = "netflow.collector.lost_records";
/// Registry counter: records routed through the sharded batch path.
pub const SHARDED_RECORDS_COUNTER: &str = "netflow.collector.sharded_records";

/// Registers `# HELP` text for the collector counters (once per
/// process; first writer wins).
fn describe_collector_metrics() {
    static ONCE: std::sync::OnceLock<()> = std::sync::OnceLock::new();
    ONCE.get_or_init(|| {
        transit_obs::metrics::describe(DATAGRAMS_COUNTER, "Export datagrams ingested");
        transit_obs::metrics::describe(RECORDS_COUNTER, "Flow records ingested");
        transit_obs::metrics::describe(DECODE_ERRORS_COUNTER, "Malformed datagrams dropped");
        transit_obs::metrics::describe(
            LOST_RECORDS_COUNTER,
            "Records known lost to export-datagram drops (per-router sequence gaps)",
        );
        transit_obs::metrics::describe(
            SHARDED_RECORDS_COUNTER,
            "Records routed through the sharded batch path",
        );
    });
}

/// One decoded record, hash-partitioned and de-sampled, on its way to a
/// fold worker: `(flow hash, key, router, bytes, packets)`.
type RecordTuple = (u64, FlowKey, u8, u64, u64);

/// Sender half of one fold worker's bounded tuple channel.
type FoldSender = std::sync::mpsc::SyncSender<Vec<RecordTuple>>;

/// Tuples per channel message from a decode worker to a fold worker.
/// Bounds per-message memory and amortizes channel synchronization.
const FOLD_BATCH_TUPLES: usize = 1024;

/// Per-datagram header summary a decode worker leaves behind for the
/// serial accounting pass.
#[derive(Debug, Clone, Copy)]
enum DatagramSummary {
    /// Datagram failed to decode (counted, journaled, skipped).
    DecodeError,
    /// Decoded fine; everything sequence accounting needs.
    Ok {
        router: u8,
        sequence: u32,
        n_records: u32,
    },
}

/// A NetFlow collector with cross-router deduplication.
#[derive(Debug)]
pub struct Collector {
    /// Hash-partitioned flat flow tables (always at least one shard).
    shards: Vec<FlowTable>,
    /// Worker threads for [`Collector::ingest_batch`] (1 = serial).
    workers: usize,
    /// router → next expected flow_sequence (export loss detection:
    /// v5 headers carry a running record count, so a gap means a dropped
    /// export datagram between this one and the previous).
    next_sequence: FastHashMap<u8, u32>,
    /// router → records known lost from sequence gaps.
    lost: FastHashMap<u8, u64>,
    datagrams: u64,
    records: u64,
    decode_errors: u64,
}

impl Default for Collector {
    fn default() -> Collector {
        Collector::with_shards(1)
    }
}

/// Resolves a worker-count knob: 0 means "all cores".
fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        workers
    }
}

impl Collector {
    /// Creates an empty single-shard, serial-ingest collector.
    pub fn new() -> Collector {
        Collector::default()
    }

    /// Creates an empty collector with `n_shards` hash-partitioned flow
    /// tables (clamped to at least 1) and serial batch ingest. Measured
    /// output is independent of the shard count; shards only bound the
    /// parallelism of [`Collector::ingest_batch`].
    pub fn with_shards(n_shards: usize) -> Collector {
        Collector::with_shards_and_workers(n_shards, 1)
    }

    /// Creates an empty collector with `n_shards` flow tables and
    /// `workers` batch-ingest threads (0 = all cores). State is
    /// identical for every (shards, workers) combination; the knobs
    /// only trade memory and threads for throughput.
    pub fn with_shards_and_workers(n_shards: usize, workers: usize) -> Collector {
        describe_collector_metrics();
        Collector {
            shards: (0..n_shards.max(1)).map(|_| FlowTable::new()).collect(),
            workers: resolve_workers(workers).max(1),
            next_sequence: FastHashMap::default(),
            lost: FastHashMap::default(),
            datagrams: 0,
            records: 0,
            decode_errors: 0,
        }
    }

    /// Number of hash shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Batch-ingest worker threads (1 = serial).
    pub fn ingest_workers(&self) -> usize {
        self.workers
    }

    /// Reconfigures the batch-ingest worker count (0 = all cores).
    /// Safe at any time: parallelism never changes collected state.
    pub fn set_ingest_workers(&mut self, workers: usize) {
        self.workers = resolve_workers(workers).max(1);
    }

    /// Distinct flows currently held by each shard, in shard order —
    /// the occupancy balance of the hash partition.
    pub fn shard_occupancy(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.len()).collect()
    }

    /// Counts and journals one malformed datagram.
    fn note_decode_error(&mut self) {
        self.decode_errors += 1;
        let counter = transit_obs::counter!(DECODE_ERRORS_COUNTER);
        counter.inc();
        // Drops are rare and diagnostic: worth a journal sample each so
        // the timeline shows exactly when ingest went bad — on the
        // single-datagram and batch paths alike.
        transit_obs::journal::counter_sample(DECODE_ERRORS_COUNTER, counter.get());
    }

    /// Header bookkeeping for one datagram: loss detection from the
    /// running flow sequence plus datagram/record tallies (local and
    /// registry). Must run in arrival order — sequence gaps are
    /// order-sensitive.
    fn account_datagram(&mut self, router: u8, sequence: u32, n_records: usize) {
        if let Some(&expected) = self.next_sequence.get(&router) {
            let gap = sequence.wrapping_sub(expected);
            // Treat huge "gaps" as reordering/restart rather than loss
            // (a restarted exporter resets its sequence).
            if gap > 0 && gap < u32::MAX / 2 {
                *self.lost.entry(router).or_default() += gap as u64;
                let counter = transit_obs::counter!(LOST_RECORDS_COUNTER);
                counter.add(gap as u64);
                transit_obs::journal::counter_sample(LOST_RECORDS_COUNTER, counter.get());
            }
        }
        self.next_sequence
            .insert(router, sequence.wrapping_add(n_records as u32));
        self.datagrams += 1;
        self.records += n_records as u64;
        // Registry mirrors of the per-collector tallies: process-wide
        // ingest volume for the run manifest.
        transit_obs::counter!(DATAGRAMS_COUNTER).inc();
        transit_obs::counter!(RECORDS_COUNTER).add(n_records as u64);
    }

    /// Ingests one raw export datagram. Malformed datagrams are counted
    /// and reported but do not poison previously collected state.
    pub fn ingest(&mut self, datagram: &[u8]) -> Result<usize, DecodeError> {
        match V5PacketView::parse(datagram) {
            Ok(view) => Ok(self.ingest_view(&view)),
            Err(e) => {
                self.note_decode_error();
                Err(e)
            }
        }
    }

    /// Accounts and credits one parsed datagram view.
    fn ingest_view(&mut self, view: &V5PacketView<'_>) -> usize {
        let header = view.header();
        let rate = header.sampling_rate() as u64;
        let router = header.engine_id;
        self.account_datagram(router, header.flow_sequence, view.record_count());
        let n_shards = self.shards.len() as u64;
        for (key, octets, packets) in view.flow_tuples() {
            let hash = flow_hash(&key);
            self.shards[(hash % n_shards) as usize].credit(
                hash,
                key,
                router,
                octets as u64 * rate,
                packets as u64 * rate,
            );
        }
        view.record_count()
    }

    /// Ingests an already-decoded packet; returns the record count.
    pub fn ingest_packet(&mut self, packet: &V5Packet) -> usize {
        let rate = packet.header.sampling_rate() as u64;
        let router = packet.header.engine_id;
        self.account_datagram(router, packet.header.flow_sequence, packet.records.len());
        let n_shards = self.shards.len() as u64;
        for r in &packet.records {
            let key = FlowKey::from_record(r);
            let hash = flow_hash(&key);
            self.shards[(hash % n_shards) as usize].credit(
                hash,
                key,
                router,
                r.octets as u64 * rate,
                r.packets as u64 * rate,
            );
        }
        packet.records.len()
    }

    /// Ingests a batch of raw datagrams through the fast path; returns
    /// the record count.
    ///
    /// With one worker (the default) this is the serial zero-copy loop —
    /// identical to calling [`Collector::ingest`] per datagram, except
    /// that malformed datagrams are counted in
    /// [`CollectorStats`]/[`Collector::stats`] rather than returned.
    /// With more workers, decoding runs in parallel and folding is
    /// pipelined behind it (see the module docs); the resulting state,
    /// stats, and journal samples are identical to the serial loop.
    pub fn ingest_batch<D: AsRef<[u8]> + Sync>(&mut self, datagrams: &[D]) -> usize {
        // `self.workers` is a cap within the process-wide pool budget
        // (`--threads`); a budget of 1 takes the serial path outright.
        let workers = self
            .workers
            .min(transit_pool::thread_budget())
            .min(datagrams.len())
            .max(1);
        let ingested = if workers <= 1 {
            self.ingest_batch_serial(datagrams)
        } else {
            self.ingest_batch_parallel(datagrams, workers)
        };
        transit_obs::counter!(SHARDED_RECORDS_COUNTER).add(ingested as u64);
        ingested
    }

    fn ingest_batch_serial<D: AsRef<[u8]>>(&mut self, datagrams: &[D]) -> usize {
        let mut ingested = 0usize;
        for datagram in datagrams {
            match V5PacketView::parse(datagram.as_ref()) {
                Ok(view) => ingested += self.ingest_view(&view),
                Err(_) => self.note_decode_error(),
            }
        }
        ingested
    }

    /// The parallel pipeline: decode chunks fan out across the shared
    /// [`transit_pool`] workers and stream record tuples through
    /// bounded channels to `min(workers, shards)` fold threads, each
    /// owning the shards congruent to its index. Decode tasks write
    /// per-datagram summaries into disjoint slices; the serial pass
    /// afterwards replays them in arrival order so the order-sensitive
    /// accounting (and its journal samples) is exactly the serial
    /// path's.
    ///
    /// The fold threads stay **dedicated scoped threads**, not pool
    /// tasks: they block on `recv` until every decode sender hangs up,
    /// and a pool whose workers can block on each other's unscheduled
    /// tasks could deadlock. Decode tasks may briefly block on a full
    /// channel (stalling one pool worker), but the dedicated folds
    /// always drain, so the fan-out always completes.
    fn ingest_batch_parallel<D: AsRef<[u8]> + Sync>(
        &mut self,
        datagrams: &[D],
        workers: usize,
    ) -> usize {
        let n_shards = self.shards.len();
        let n_fold = n_shards.min(workers);
        let mut summaries = vec![DatagramSummary::DecodeError; datagrams.len()];

        let mut txs = Vec::with_capacity(n_fold);
        let mut rxs = Vec::with_capacity(n_fold);
        for _ in 0..n_fold {
            // Capacity bounds in-flight memory per fold worker to
            // 2·workers messages of ≤ FOLD_BATCH_TUPLES tuples while
            // letting every decode worker keep one batch queued.
            let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<RecordTuple>>(2 * workers);
            txs.push(tx);
            rxs.push(rx);
        }

        // Fold worker w owns shards {s | s % n_fold == w}, in order, so
        // shard s lives at its local index s / n_fold.
        let mut fold_tables: Vec<Vec<&mut FlowTable>> = (0..n_fold).map(|_| Vec::new()).collect();
        for (idx, table) in self.shards.iter_mut().enumerate() {
            fold_tables[idx % n_fold].push(table);
        }

        // One decode work item per chunk: (datagrams, summary slots,
        // own sender set). Each item is claimed by exactly one pool
        // slot, mirroring the per-thread chunking the dedicated decode
        // threads used to get — same chunk boundaries, same disjoint
        // summary slices, for any pool budget.
        let chunk = datagrams.len().div_ceil(workers);
        let mut work: Vec<(&[D], &mut [DatagramSummary], Vec<FoldSender>)> = Vec::new();
        {
            let mut rest: &mut [DatagramSummary] = &mut summaries;
            for w in 0..workers {
                let lo = w * chunk;
                if lo >= datagrams.len() {
                    break;
                }
                let hi = (lo + chunk).min(datagrams.len());
                let (head, tail) = rest.split_at_mut(hi - lo);
                rest = tail;
                work.push((&datagrams[lo..hi], head, txs.clone()));
            }
        }

        std::thread::scope(|scope| {
            for (rx, mut tables) in rxs.into_iter().zip(fold_tables) {
                scope.spawn(move || {
                    while let Ok(batch) = rx.recv() {
                        for (hash, key, router, bytes, packets) in batch {
                            let shard = (hash % n_shards as u64) as usize;
                            tables[shard / n_fold].credit(hash, key, router, bytes, packets);
                        }
                    }
                });
            }
            transit_pool::for_each_mut(workers, &mut work, |_, (dgrams, head, txs)| {
                decode_chunk(dgrams, head, txs, n_shards, n_fold);
                // Hang up this item's senders as soon as its chunk is
                // done; folds exit once every item's (and the
                // original) set is gone.
                txs.clear();
            });
            drop(work);
            drop(txs);
        });

        let mut ingested = 0usize;
        for summary in &summaries {
            match *summary {
                DatagramSummary::DecodeError => self.note_decode_error(),
                DatagramSummary::Ok {
                    router,
                    sequence,
                    n_records,
                } => {
                    self.account_datagram(router, sequence, n_records as usize);
                    ingested += n_records as usize;
                }
            }
        }
        ingested
    }

    /// Number of distinct flows observed.
    pub fn flow_count(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// (datagrams, records, decode errors) ingested so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.datagrams, self.records, self.decode_errors)
    }

    /// Total records known lost to dropped export datagrams (from
    /// per-router sequence gaps). Export is UDP in the field; a non-zero
    /// value warns that measured volumes undercount.
    pub fn lost_records(&self) -> u64 {
        self.lost.values().sum()
    }

    /// Records lost from one router's exports.
    pub fn lost_records_from(&self, engine_id: u8) -> u64 {
        self.lost.get(&engine_id).copied().unwrap_or(0)
    }

    /// Deduplicated measured flows: per flow, the maximum single-router
    /// estimate (see module docs; byte ties break by packet count, so
    /// the result is independent of ingest order). Sorted by key for
    /// determinism.
    pub fn measured_flows(&self) -> Vec<MeasuredFlow> {
        let mut out = Vec::new();
        for shard in &self.shards {
            shard.measured_into(&mut out);
        }
        // Keys are distinct across shards, so unstable sort is total.
        out.sort_unstable_by_key(|f| f.key.sort_key());
        out
    }

    /// Naive (double-counting) totals — what you would get *without* the
    /// dedup step; kept for the Fig. 17 accounting-equivalence experiment
    /// and tests.
    pub fn summed_flows(&self) -> Vec<MeasuredFlow> {
        let mut out = Vec::new();
        for shard in &self.shards {
            shard.summed_into(&mut out);
        }
        out.sort_unstable_by_key(|f| f.key.sort_key());
        out
    }
}

/// Decode-worker body: parse each datagram zero-copy, record its header
/// summary, and stream de-sampled record tuples to the fold worker that
/// owns the target shard. Never touches collector state or global
/// counters — those belong to the serial accounting pass.
fn decode_chunk<D: AsRef<[u8]>>(
    datagrams: &[D],
    summaries: &mut [DatagramSummary],
    txs: &[std::sync::mpsc::SyncSender<Vec<RecordTuple>>],
    n_shards: usize,
    n_fold: usize,
) {
    let mut buffers: Vec<Vec<RecordTuple>> = (0..n_fold)
        .map(|_| Vec::with_capacity(FOLD_BATCH_TUPLES))
        .collect();
    for (datagram, slot) in datagrams.iter().zip(summaries.iter_mut()) {
        let view = match V5PacketView::parse(datagram.as_ref()) {
            Ok(view) => view,
            Err(_) => {
                *slot = DatagramSummary::DecodeError;
                continue;
            }
        };
        let header = view.header();
        *slot = DatagramSummary::Ok {
            router: header.engine_id,
            sequence: header.flow_sequence,
            n_records: view.record_count() as u32,
        };
        let rate = header.sampling_rate() as u64;
        let router = header.engine_id;
        for (key, octets, packets) in view.flow_tuples() {
            let hash = flow_hash(&key);
            let fold = ((hash % n_shards as u64) as usize) % n_fold;
            let buffer = &mut buffers[fold];
            buffer.push((
                hash,
                key,
                router,
                octets as u64 * rate,
                packets as u64 * rate,
            ));
            if buffer.len() >= FOLD_BATCH_TUPLES {
                let full = std::mem::replace(buffer, Vec::with_capacity(FOLD_BATCH_TUPLES));
                // A send only fails if the fold worker died, which a
                // scoped-thread panic will surface anyway.
                let _ = txs[fold].send(full);
            }
        }
    }
    for (fold, buffer) in buffers.into_iter().enumerate() {
        if !buffer.is_empty() {
            let _ = txs[fold].send(buffer);
        }
    }
}

/// Point-in-time ingest totals read from the `transit-obs` metrics
/// registry, mirroring `transit-core`'s `CacheStats` semantics: the
/// raw values are process-lifetime sums across *every* collector, so
/// assertions and reports should scope with a baseline —
/// [`CollectorStats::snapshot`] before the work, then
/// [`CollectorStats::delta_since`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CollectorStats {
    /// Export datagrams ingested.
    pub datagrams: u64,
    /// Flow records ingested.
    pub records: u64,
    /// Malformed datagrams dropped.
    pub decode_errors: u64,
    /// Records known lost to dropped export datagrams (sequence gaps).
    pub lost_records: u64,
    /// Records routed through the sharded batch path.
    pub sharded_records: u64,
}

impl CollectorStats {
    /// Reads the current process-lifetime totals.
    pub fn snapshot() -> CollectorStats {
        CollectorStats {
            datagrams: transit_obs::metrics::counter(DATAGRAMS_COUNTER).get(),
            records: transit_obs::metrics::counter(RECORDS_COUNTER).get(),
            decode_errors: transit_obs::metrics::counter(DECODE_ERRORS_COUNTER).get(),
            lost_records: transit_obs::metrics::counter(LOST_RECORDS_COUNTER).get(),
            sharded_records: transit_obs::metrics::counter(SHARDED_RECORDS_COUNTER).get(),
        }
    }

    /// Activity between `baseline` and this snapshot (saturating, so a
    /// registry reset between the two reads as zero rather than
    /// wrapping).
    pub fn delta_since(&self, baseline: &CollectorStats) -> CollectorStats {
        CollectorStats {
            datagrams: self.datagrams.saturating_sub(baseline.datagrams),
            records: self.records.saturating_sub(baseline.records),
            decode_errors: self.decode_errors.saturating_sub(baseline.decode_errors),
            lost_records: self.lost_records.saturating_sub(baseline.lost_records),
            sharded_records: self
                .sharded_records
                .saturating_sub(baseline.sharded_records),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exporter::Exporter;
    use crate::sampler::SystematicSampler;
    use std::net::Ipv4Addr;

    fn key(i: u32) -> FlowKey {
        FlowKey {
            src_addr: Ipv4Addr::from(0x0c00_0000 | i),
            dst_addr: Ipv4Addr::new(9, 9, 9, 9),
            src_port: 1000,
            dst_port: 80,
            protocol: 6,
        }
    }

    /// Sends the same traffic through `n_routers` exporters and collects
    /// everything.
    fn multi_router_collect(n_routers: u8, packets_per_flow: u32) -> Collector {
        let mut collector = Collector::new();
        for router in 0..n_routers {
            let mut e = Exporter::new(router, SystematicSampler::new(1));
            for flow in 0..4u32 {
                for _ in 0..packets_per_flow {
                    e.observe_packet(key(flow), 1000);
                }
            }
            for p in e.flush(0) {
                collector.ingest(&p.encode()).unwrap();
            }
        }
        collector
    }

    #[test]
    fn dedup_credits_single_router_volume() {
        let c = multi_router_collect(3, 50);
        let flows = c.measured_flows();
        assert_eq!(flows.len(), 4);
        for f in &flows {
            assert_eq!(f.bytes, 50_000, "deduped volume");
            assert_eq!(f.packets, 50);
        }
    }

    #[test]
    fn summed_flows_double_count_by_hop_count() {
        let c = multi_router_collect(3, 50);
        for f in c.summed_flows() {
            assert_eq!(f.bytes, 150_000, "3 routers x 50KB");
        }
    }

    #[test]
    fn de_sampling_rescales_volume() {
        let mut collector = Collector::new();
        let mut e = Exporter::new(0, SystematicSampler::new(10));
        for _ in 0..1000 {
            e.observe_packet(key(1), 1500);
        }
        for p in e.flush(0) {
            collector.ingest(&p.encode()).unwrap();
        }
        let flows = collector.measured_flows();
        assert_eq!(flows.len(), 1);
        // 100 sampled packets × 1500 B × rate 10 = 1.5 MB (the true total).
        assert_eq!(flows[0].bytes, 1_500_000);
        assert_eq!(flows[0].packets, 1000);
    }

    #[test]
    fn malformed_datagrams_are_counted_not_fatal() {
        let mut c = multi_router_collect(1, 10);
        let before = c.flow_count();
        assert!(c.ingest(&[0u8; 7]).is_err());
        assert!(c.ingest(b"garbage data here").is_err());
        assert_eq!(c.flow_count(), before);
        let (_, _, errors) = c.stats();
        assert_eq!(errors, 2);
    }

    #[test]
    fn repeated_exports_from_same_router_accumulate() {
        // Same router exporting twice (two measurement intervals): volumes
        // add up — only *cross-router* duplication is collapsed.
        let mut collector = Collector::new();
        let mut e = Exporter::new(0, SystematicSampler::new(1));
        for _ in 0..10 {
            e.observe_packet(key(1), 100);
        }
        for p in e.flush(0) {
            collector.ingest(&p.encode()).unwrap();
        }
        for _ in 0..10 {
            e.observe_packet(key(1), 100);
        }
        for p in e.flush(60) {
            collector.ingest(&p.encode()).unwrap();
        }
        let flows = collector.measured_flows();
        assert_eq!(flows[0].bytes, 2_000);
    }

    #[test]
    fn measured_flows_sorted_and_stable() {
        let c = multi_router_collect(2, 5);
        let a = c.measured_flows();
        let b = c.measured_flows();
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert!(w[0].key < w[1].key);
        }
    }

    #[test]
    fn sequence_gap_reports_lost_records() {
        // Export 90 flows in 3 datagrams; drop the middle one.
        let mut e = Exporter::new(5, SystematicSampler::new(1));
        for i in 0..90u32 {
            e.observe_packet(key(i), 100);
        }
        let pkts = e.flush(0);
        assert_eq!(pkts.len(), 3);
        let mut c = Collector::new();
        c.ingest_packet(&pkts[0]);
        // pkts[1] (30 records) lost in the network.
        c.ingest_packet(&pkts[2]);
        assert_eq!(c.lost_records(), 30);
        assert_eq!(c.lost_records_from(5), 30);
        assert_eq!(c.lost_records_from(9), 0);
        // Flows from the surviving datagrams are intact.
        assert_eq!(c.flow_count(), 60);
    }

    #[test]
    fn no_loss_means_zero_lost_records() {
        let c = multi_router_collect(3, 50);
        assert_eq!(c.lost_records(), 0);
    }

    #[test]
    fn exporter_restart_is_not_counted_as_loss() {
        let mut c = Collector::new();
        let mut e = Exporter::new(1, SystematicSampler::new(1));
        for i in 0..40u32 {
            e.observe_packet(key(i), 100);
        }
        for p in e.flush(0) {
            c.ingest_packet(&p);
        }
        // Restarted exporter: sequence resets to 0 (a huge backwards
        // "gap" that must not be treated as loss).
        let mut e2 = Exporter::new(1, SystematicSampler::new(1));
        e2.observe_packet(key(100), 100);
        for p in e2.flush(0) {
            c.ingest_packet(&p);
        }
        assert_eq!(c.lost_records(), 0);
    }

    #[test]
    fn stats_track_ingestion() {
        let c = multi_router_collect(2, 5);
        let (datagrams, records, errors) = c.stats();
        assert_eq!(datagrams, 2);
        assert_eq!(records, 8);
        assert_eq!(errors, 0);
    }

    /// Encoded datagrams carrying `n_flows` distinct flows from 2 routers.
    fn wire_batch(n_flows: u32) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for router in 0..2u8 {
            let mut e = Exporter::new(router, SystematicSampler::new(1));
            for i in 0..n_flows {
                e.observe_packets(key(i), 3, 500);
            }
            for p in e.flush(0) {
                out.push(p.encode().to_vec());
            }
        }
        out
    }

    #[test]
    fn sharded_batch_matches_serial_ingest_for_any_shard_count() {
        let batch = wire_batch(200);
        let mut serial = Collector::new();
        for d in &batch {
            serial.ingest(d).unwrap();
        }
        for shards in [1usize, 2, 3, 8] {
            let mut sharded = Collector::with_shards(shards);
            let n = sharded.ingest_batch(&batch);
            assert_eq!(n, 400, "records with {shards} shards");
            assert_eq!(sharded.measured_flows(), serial.measured_flows());
            assert_eq!(sharded.summed_flows(), serial.summed_flows());
            assert_eq!(sharded.flow_count(), serial.flow_count());
            assert_eq!(sharded.stats(), serial.stats());
            assert_eq!(sharded.lost_records(), serial.lost_records());
        }
    }

    #[test]
    fn parallel_batch_matches_serial_for_any_worker_count() {
        // Keep the fan-out real on small machines: worker counts are
        // caps within the pool budget.
        let _budget = transit_pool::scoped_budget(8);
        let batch = wire_batch(300);
        let mut serial = Collector::new();
        for d in &batch {
            serial.ingest(d).unwrap();
        }
        for shards in [1usize, 3, 8] {
            for workers in [2usize, 3, 8] {
                let mut parallel = Collector::with_shards_and_workers(shards, workers);
                assert_eq!(parallel.ingest_workers(), workers);
                let n = parallel.ingest_batch(&batch);
                assert_eq!(n, 600, "records with {shards} shards, {workers} workers");
                assert_eq!(parallel.measured_flows(), serial.measured_flows());
                assert_eq!(parallel.summed_flows(), serial.summed_flows());
                assert_eq!(parallel.stats(), serial.stats());
                assert_eq!(parallel.lost_records(), serial.lost_records());
                assert_eq!(
                    parallel.shard_occupancy().iter().sum::<usize>(),
                    serial.flow_count()
                );
            }
        }
    }

    #[test]
    fn parallel_batch_counts_decode_errors_and_gaps() {
        // Corrupt datagrams and a sequence gap inside a parallel batch:
        // the summary pass must count both exactly like serial ingest.
        let mut e = Exporter::new(5, SystematicSampler::new(1));
        for i in 0..90u32 {
            e.observe_packet(key(i), 100);
        }
        let pkts = e.flush(0);
        let mut batch = vec![pkts[0].encode().to_vec(), pkts[2].encode().to_vec()];
        batch.insert(1, vec![0u8; 7]);
        batch.push(b"garbage".to_vec());

        let mut serial = Collector::new();
        for d in &batch {
            let _ = serial.ingest(d);
        }
        let _budget = transit_pool::scoped_budget(8);
        let mut parallel = Collector::with_shards_and_workers(4, 4);
        parallel.ingest_batch(&batch);
        assert_eq!(parallel.stats(), serial.stats());
        assert_eq!(parallel.stats().2, 2, "two malformed datagrams");
        assert_eq!(parallel.lost_records(), 30, "dropped middle datagram");
        assert_eq!(parallel.measured_flows(), serial.measured_flows());
    }

    #[test]
    fn empty_and_tiny_batches_are_safe_with_workers() {
        let _budget = transit_pool::scoped_budget(8);
        let mut c = Collector::with_shards_and_workers(4, 8);
        let empty: Vec<Vec<u8>> = Vec::new();
        assert_eq!(c.ingest_batch(&empty), 0);
        let one = wire_batch(1);
        assert_eq!(c.ingest_batch(&one[..1]), 1);
        assert_eq!(c.flow_count(), 1);
    }

    #[test]
    fn worker_knob_is_reconfigurable_and_auto_resolves() {
        let mut c = Collector::with_shards_and_workers(2, 0);
        assert!(c.ingest_workers() >= 1, "0 resolves to all cores");
        c.set_ingest_workers(3);
        assert_eq!(c.ingest_workers(), 3);
        c.set_ingest_workers(0);
        assert!(c.ingest_workers() >= 1);
    }

    #[test]
    fn shard_occupancy_covers_all_flows() {
        let mut c = Collector::with_shards(4);
        c.ingest_batch(&wire_batch(100));
        let occ = c.shard_occupancy();
        assert_eq!(occ.len(), 4);
        assert_eq!(occ.iter().sum::<usize>(), c.flow_count());
        // FNV spreads 100 keys over 4 shards: no shard may hold everything.
        assert!(occ.iter().all(|&o| o < 100));
    }

    #[test]
    fn batch_ingest_counts_decode_errors_and_keeps_going() {
        let mut batch = wire_batch(10);
        batch.insert(1, vec![0u8; 7]);
        let mut c = Collector::with_shards(2);
        let n = c.ingest_batch(&batch);
        assert_eq!(n, 20);
        let (_, _, errors) = c.stats();
        assert_eq!(errors, 1);
        assert_eq!(c.flow_count(), 10);
    }

    #[test]
    fn batch_ingest_detects_sequence_gaps() {
        let mut e = Exporter::new(5, SystematicSampler::new(1));
        for i in 0..90u32 {
            e.observe_packet(key(i), 100);
        }
        let pkts = e.flush(0);
        assert_eq!(pkts.len(), 3);
        // Drop the middle datagram from the batch.
        let batch = vec![pkts[0].encode(), pkts[2].encode()];
        let mut c = Collector::with_shards(4);
        c.ingest_batch(&batch);
        assert_eq!(c.lost_records(), 30);
    }

    #[test]
    fn collector_stats_snapshot_delta_tracks_batch() {
        let batch = wire_batch(25);
        let before = CollectorStats::snapshot();
        let mut c = Collector::with_shards(2);
        c.ingest_batch(&batch);
        let delta = CollectorStats::snapshot().delta_since(&before);
        assert!(delta.datagrams >= batch.len() as u64);
        assert!(delta.records >= 50);
        assert!(delta.sharded_records >= 50);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let c = Collector::with_shards(0);
        assert_eq!(c.n_shards(), 1);
    }
}
