//! End-to-end measurement pipeline: dataset → packets → sampled NetFlow →
//! collector → traffic matrix → model flows.
//!
//! This closes the loop the paper describes in §4.1.1: rather than feeding
//! the generator's ground-truth demands straight into the models, traffic
//! is materialized as packets, pushed through per-router sampled-NetFlow
//! exporters, collected with cross-router deduplication, and re-aggregated
//! — so the model inputs inherit realistic measurement error. Tests and
//! the `netflow_pipeline` example verify the reconstruction converges to
//! the ground truth.

use transit_core::flow::TrafficFlow;
use transit_netflow::{
    Collector, Exporter, FlowKey, MeasuredFlow, SystematicSampler, TrafficMatrix,
};

use crate::generator::Dataset;

/// Configuration for the measurement simulation.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// 1-in-N packet sampling at each router.
    pub sampling_rate: u32,
    /// Number of core routers every flow is observed at (duplication
    /// factor the collector must undo).
    pub routers_on_path: u8,
    /// Capture window the demands are averaged over, seconds.
    pub window_secs: f64,
    /// Simulated packet size, bytes.
    pub packet_bytes: u32,
    /// Collector flow-map shards for parallel ingest (1 = serial). The
    /// collector state is identical for any shard count; see
    /// [`transit_netflow::Collector::ingest_batch`].
    pub ingest_shards: usize,
    /// Collector batch-ingest worker threads (1 = serial, 0 = all
    /// cores). Like shards, workers never change collected state.
    pub ingest_workers: usize,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            sampling_rate: 10,
            routers_on_path: 3,
            window_secs: 60.0,
            packet_bytes: 1_500,
            ingest_shards: 1,
            ingest_workers: 1,
        }
    }
}

/// Result of running a dataset through the measurement pipeline.
#[derive(Debug)]
pub struct PipelineOutput {
    /// Flows reconstructed from collected NetFlow, model-ready (demand in
    /// Mbps over the window, distances/regions copied from ground truth by
    /// endpoint match).
    pub measured_flows: Vec<TrafficFlow>,
    /// The reconstructed traffic matrix.
    pub matrix: TrafficMatrix,
    /// Export datagrams processed.
    pub datagrams: u64,
    /// Flow records processed.
    pub records: u64,
    /// Ground-truth total bytes offered to the routers.
    pub offered_bytes: u64,
}

/// Phase 1 — **export**: offers each flow's packets to per-router
/// sampled-NetFlow exporters and flushes every router's cache to wire
/// datagrams. Returns `(wire, offered_bytes)`.
///
/// Per-flow packet counts are rounded from the flow's demand over the
/// window; flows too small to emit one packet in the window are dropped
/// (as real sampled NetFlow would likely miss them) — with default
/// settings that requires < 0.2 kbps.
pub fn export_wire(dataset: &Dataset, config: PipelineConfig) -> (Vec<bytes::Bytes>, u64) {
    assert!(config.routers_on_path >= 1, "need at least one router");
    transit_obs::counter!("datasets.pipeline.flows_offered").add(dataset.flows.len() as u64);
    // Offer packets: every router on the path sees every packet. Each
    // router's sampler starts in the same state and sampling is a
    // deterministic function of the observation sequence, so simulating
    // one router and replicating its exporter state per router id is
    // byte-identical to re-simulating the stream per router (the
    // exporter's `replicate_as` test pins this).
    let mut first = Exporter::new(0, SystematicSampler::new(config.sampling_rate));
    first.reserve_flows(dataset.flows.len());
    let mut offered_bytes = 0u64;
    for (flow, &(src, dst)) in dataset.flows.iter().zip(&dataset.endpoints) {
        let bytes_total = flow.demand_mbps * 1e6 / 8.0 * config.window_secs;
        let packets = (bytes_total / config.packet_bytes as f64).round() as u64;
        let key = FlowKey {
            src_addr: src,
            dst_addr: dst,
            src_port: 40_000 + (flow.id.0 % 10_000) as u16,
            dst_port: 443,
            protocol: 6,
        };
        offered_bytes += packets * config.packet_bytes as u64;
        first.observe_packets(key, packets, config.packet_bytes);
    }
    let mut exporters: Vec<Exporter<SystematicSampler>> = (1..config.routers_on_path)
        .map(|r| first.replicate_as(r))
        .collect();
    exporters.insert(0, first);

    // Direct-to-wire flush: byte-identical to per-packet encode (the
    // exporter's differential test pins it), without materializing owned
    // packets for millions of records.
    let wire: Vec<_> = exporters.iter_mut().flat_map(|e| e.flush_wire(0)).collect();
    (wire, offered_bytes)
}

/// Phase 2 — **collect**: ingests wire datagrams through the
/// (optionally sharded) collector, undoing cross-router duplication.
/// Returns `(measured, datagrams, records)`.
///
/// Shard/worker counts never change collected state (the collector's
/// own differential tests pin this), so they are free knobs for the
/// stage layer — output depends only on the wire bytes.
pub fn collect_wire<D: AsRef<[u8]> + Sync>(
    wire: &[D],
    ingest_shards: usize,
    ingest_workers: usize,
) -> (Vec<MeasuredFlow>, u64, u64) {
    let mut collector = Collector::with_shards_and_workers(ingest_shards, ingest_workers);
    collector.ingest_batch(wire);
    let (datagrams, records, decode_errors) = collector.stats();
    assert_eq!(decode_errors, 0, "self-generated datagrams decode");
    transit_obs::counter!("datasets.pipeline.measured_datagrams").add(datagrams);
    (collector.measured_flows(), datagrams, records)
}

/// Phase 3 — **join**: re-attaches ground-truth distances/regions to
/// the reconstructed traffic matrix by endpoint pair (the pipeline
/// measures demand; distance comes from topology/GeoIP exactly as in
/// §4.1.1). Returns model-ready flows.
pub fn join_measured(
    dataset: &Dataset,
    matrix: &TrafficMatrix,
    window_secs: f64,
) -> Vec<TrafficFlow> {
    // Sorted merge-join: demands come out ordered by (src, dst), so one
    // sort of the ground-truth endpoints replaces a per-entry hash join.
    // A duplicated endpoint pair resolves to its *last* dataset
    // occurrence (the merge takes the tail of each equal-key run),
    // exactly like repeated hash-map inserts did.
    let pack = |src: std::net::Ipv4Addr, dst: std::net::Ipv4Addr| {
        (u64::from(u32::from(src)) << 32) | u64::from(u32::from(dst))
    };
    let mut by_pair: Vec<(u64, u32)> = dataset
        .endpoints
        .iter()
        .enumerate()
        .map(|(i, &(src, dst))| (pack(src, dst), i as u32))
        .collect();
    // The index tie-breaker makes every element distinct, so an unstable
    // sort is deterministic and preserves dataset order within a pair run.
    by_pair.sort_unstable();

    let mut measured_flows = Vec::new();
    let mut j = 0;
    for (i, entry) in matrix.iter_demands(window_secs).enumerate() {
        let key = pack(entry.src, entry.dst);
        while j < by_pair.len() && by_pair[j].0 < key {
            j += 1;
        }
        let mut flow_idx = None;
        while j < by_pair.len() && by_pair[j].0 == key {
            flow_idx = Some(by_pair[j].1);
            j += 1;
        }
        if let Some(idx) = flow_idx {
            if entry.mbps > 0.0 {
                let original: &TrafficFlow = &dataset.flows[idx as usize];
                measured_flows.push(
                    TrafficFlow::new(i as u32, entry.mbps, original.distance_miles)
                        .with_region(original.region),
                );
            }
        }
    }
    transit_obs::counter!("datasets.pipeline.measured_flows").add(measured_flows.len() as u64);
    measured_flows
}

/// Runs `dataset` through exporters/collector and reconstructs model
/// flows — the composition of [`export_wire`], [`collect_wire`], and
/// [`join_measured`] (which the stage layer runs as separate cacheable
/// stages; this inline path is byte-identical by construction and
/// pinned by the staged-equals-inline test).
pub fn run_pipeline(dataset: &Dataset, config: PipelineConfig) -> PipelineOutput {
    let _span = transit_obs::span!("datasets.pipeline.run", flows = dataset.flows.len());
    transit_obs::counter!("datasets.pipeline.runs").inc();
    let (wire, offered_bytes) = export_wire(dataset, config);
    let (measured, datagrams, records) =
        collect_wire(&wire, config.ingest_shards, config.ingest_workers);
    let matrix = TrafficMatrix::from_flows(&measured);
    let measured_flows = join_measured(dataset, &matrix, config.window_secs);
    PipelineOutput {
        measured_flows,
        matrix,
        datagrams,
        records,
        offered_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;
    use crate::spec::Network;

    fn small_dataset() -> Dataset {
        // Small flow count keeps packet simulation cheap.
        generate(Network::Internet2, 40, 11)
    }

    #[test]
    fn unsampled_pipeline_reconstructs_demands_closely() {
        let ds = small_dataset();
        let out = run_pipeline(
            &ds,
            PipelineConfig {
                sampling_rate: 1,
                routers_on_path: 2,
                window_secs: 1.0,
                packet_bytes: 1_500,
                ingest_shards: 1,
                ingest_workers: 1,
            },
        );
        // Every flow big enough to emit at least one packet in the window
        // is recovered; with CV 4.53 demands a few tail flows round to
        // zero packets and are legitimately invisible to NetFlow.
        let emitting = ds
            .flows
            .iter()
            .filter(|f| (f.demand_mbps * 1e6 / 8.0 / 1500.0).round() >= 1.0)
            .count();
        assert_eq!(out.measured_flows.len(), emitting);
        // Measured volume equals offered volume exactly (unsampled, and
        // the collector undoes router duplication).
        let measured_bytes: f64 = out
            .measured_flows
            .iter()
            .map(|f| f.demand_mbps * 1e6 / 8.0)
            .sum();
        assert!(
            (measured_bytes - out.offered_bytes as f64).abs() / (out.offered_bytes as f64) < 1e-9,
            "measured {measured_bytes} vs offered {}",
            out.offered_bytes
        );
    }

    #[test]
    fn dedup_prevents_multi_router_double_count() {
        let ds = small_dataset();
        let one = run_pipeline(
            &ds,
            PipelineConfig {
                sampling_rate: 1,
                routers_on_path: 1,
                window_secs: 1.0,
                packet_bytes: 1_500,
                ingest_shards: 1,
                ingest_workers: 1,
            },
        );
        let three = run_pipeline(
            &ds,
            PipelineConfig {
                sampling_rate: 1,
                routers_on_path: 3,
                window_secs: 1.0,
                packet_bytes: 1_500,
                ingest_shards: 1,
                ingest_workers: 1,
            },
        );
        let total =
            |o: &PipelineOutput| -> f64 { o.measured_flows.iter().map(|f| f.demand_mbps).sum() };
        assert!(
            (total(&one) - total(&three)).abs() / total(&one) < 1e-9,
            "router count must not change measured volume"
        );
    }

    #[test]
    fn sampling_error_shrinks_with_rate() {
        let ds = small_dataset();
        let truth: f64 = ds.flows.iter().map(|f| f.demand_mbps).sum();
        let err_at = |rate: u32| {
            let out = run_pipeline(
                &ds,
                PipelineConfig {
                    sampling_rate: rate,
                    routers_on_path: 1,
                    window_secs: 1.0,
                    packet_bytes: 1_500,
                    ingest_shards: 1,
                    ingest_workers: 1,
                },
            );
            let measured: f64 = out.measured_flows.iter().map(|f| f.demand_mbps).sum();
            (measured - truth).abs() / truth
        };
        // Aggregate volume: systematic sampling keeps totals within a few
        // percent even at high rates (large flows dominate).
        assert!(err_at(100) < 0.10, "1-in-100 error {}", err_at(100));
        assert!(err_at(10) <= err_at(100) + 0.02);
    }

    #[test]
    fn sharded_ingest_matches_serial_pipeline() {
        let ds = small_dataset();
        let serial = run_pipeline(&ds, PipelineConfig::default());
        for shards in [2, 4, 8] {
            let sharded = run_pipeline(
                &ds,
                PipelineConfig {
                    ingest_shards: shards,
                    ..PipelineConfig::default()
                },
            );
            assert_eq!(
                serial.measured_flows, sharded.measured_flows,
                "{shards} shards"
            );
            assert_eq!(serial.datagrams, sharded.datagrams);
            assert_eq!(serial.offered_bytes, sharded.offered_bytes);
        }
    }

    #[test]
    fn parallel_ingest_matches_serial_pipeline() {
        let ds = small_dataset();
        let serial = run_pipeline(&ds, PipelineConfig::default());
        for (shards, workers) in [(1, 2), (4, 2), (8, 8), (4, 0)] {
            let parallel = run_pipeline(
                &ds,
                PipelineConfig {
                    ingest_shards: shards,
                    ingest_workers: workers,
                    ..PipelineConfig::default()
                },
            );
            assert_eq!(
                serial.measured_flows, parallel.measured_flows,
                "{shards} shards, {workers} workers"
            );
            assert_eq!(serial.datagrams, parallel.datagrams);
            assert_eq!(serial.records, parallel.records);
        }
    }

    #[test]
    fn distances_survive_the_pipeline() {
        let ds = small_dataset();
        let out = run_pipeline(&ds, PipelineConfig::default());
        // Every measured flow's distance is one of the ground-truth
        // distances.
        for mf in &out.measured_flows {
            assert!(ds
                .flows
                .iter()
                .any(|f| (f.distance_miles - mf.distance_miles).abs() < 1e-9));
        }
    }

    #[test]
    fn measured_flows_are_model_ready() {
        let ds = small_dataset();
        let out = run_pipeline(&ds, PipelineConfig::default());
        transit_core::flow::validate_flows(&out.measured_flows).unwrap();
        assert!(out.datagrams > 0);
        assert!(out.offered_bytes > 0);
    }
}
