//! Stage implementations for the measurement pipeline, plus the binary
//! artifact codecs they share.
//!
//! The inline [`crate::pipeline::run_pipeline`] decomposes into four
//! cacheable stages:
//!
//! | kind               | params                                   | deps               | artifact        |
//! |--------------------|------------------------------------------|--------------------|-----------------|
//! | `dataset.generate` | network, n_flows, seed                   | —                  | dataset         |
//! | `dataset.export`   | sampling_rate, routers, window, pkt size | dataset            | wire datagrams  |
//! | `dataset.collect`  | —                                        | wire               | measured flows  |
//! | `dataset.join`     | window_secs                              | dataset, measured  | model flows     |
//!
//! Collector shard/worker counts are carried on [`CollectStage`] but
//! deliberately **absent from its params**: they cannot change collected
//! state (pinned by the collector's differential tests), so they must
//! not change the fingerprint either.
//!
//! Artifacts are little-endian binary with `f64::to_bits` for floats —
//! trivially byte-exact across encode/decode, unlike any decimal
//! rendering. Each codec leads with its own magic so a mismatched
//! artifact fails loudly instead of decoding as garbage.

use std::net::Ipv4Addr;

use serde::Content;
use transit_core::flow::{DestClass, FlowId, Region, TrafficFlow};
use transit_netflow::{FlowKey, MeasuredFlow, TrafficMatrix};
use transit_stage::codec::{push_string, Cursor};
use transit_stage::{canon, Artifact, Stage};

use crate::generator::{generate, Dataset};
use crate::pipeline::{collect_wire, export_wire, join_measured, PipelineConfig};
use crate::spec::Network;

// ---------------------------------------------------------------------------
// Binary codecs
// ---------------------------------------------------------------------------

fn network_code(network: Network) -> u8 {
    match network {
        Network::EuIsp => 0,
        Network::Cdn => 1,
        Network::Internet2 => 2,
    }
}

fn network_from_code(code: u8) -> Result<Network, String> {
    match code {
        0 => Ok(Network::EuIsp),
        1 => Ok(Network::Cdn),
        2 => Ok(Network::Internet2),
        other => Err(format!("unknown network code {other}")),
    }
}

fn region_code(region: Region) -> u8 {
    match region {
        Region::Metro => 0,
        Region::National => 1,
        Region::International => 2,
    }
}

fn region_from_code(code: u8) -> Result<Region, String> {
    match code {
        0 => Ok(Region::Metro),
        1 => Ok(Region::National),
        2 => Ok(Region::International),
        other => Err(format!("unknown region code {other}")),
    }
}

fn dest_code(dest: DestClass) -> u8 {
    match dest {
        DestClass::OnNet => 0,
        DestClass::OffNet => 1,
    }
}

fn dest_from_code(code: u8) -> Result<DestClass, String> {
    match code {
        0 => Ok(DestClass::OnNet),
        1 => Ok(DestClass::OffNet),
        other => Err(format!("unknown dest-class code {other}")),
    }
}

fn push_flow(out: &mut Vec<u8>, flow: &TrafficFlow) {
    out.extend_from_slice(&flow.id.0.to_le_bytes());
    out.extend_from_slice(&flow.demand_mbps.to_bits().to_le_bytes());
    out.extend_from_slice(&flow.distance_miles.to_bits().to_le_bytes());
    out.push(region_code(flow.region));
    out.push(dest_code(flow.dest_class));
}

fn read_flow(c: &mut Cursor<'_>) -> Result<TrafficFlow, String> {
    Ok(TrafficFlow {
        id: FlowId(c.u32()?),
        demand_mbps: c.f64()?,
        distance_miles: c.f64()?,
        region: region_from_code(c.u8()?)?,
        dest_class: dest_from_code(c.u8()?)?,
    })
}

/// Encodes a full [`Dataset`] (flows, endpoints, cities) byte-exactly.
pub fn encode_dataset(dataset: &Dataset) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + dataset.flows.len() * 48);
    out.extend_from_slice(b"TTDSET1\n");
    out.push(network_code(dataset.network));
    out.extend_from_slice(&(dataset.flows.len() as u32).to_le_bytes());
    for flow in &dataset.flows {
        push_flow(&mut out, flow);
    }
    assert_eq!(dataset.endpoints.len(), dataset.flows.len());
    for &(src, dst) in &dataset.endpoints {
        out.extend_from_slice(&u32::from(src).to_le_bytes());
        out.extend_from_slice(&u32::from(dst).to_le_bytes());
    }
    assert_eq!(dataset.cities.len(), dataset.flows.len());
    for (src, dst) in &dataset.cities {
        push_string(&mut out, src);
        push_string(&mut out, dst);
    }
    out
}

/// Decodes [`encode_dataset`] output.
pub fn decode_dataset(bytes: &[u8]) -> Result<Dataset, String> {
    let mut c = Cursor::new(bytes);
    c.magic(b"TTDSET1\n")?;
    let network = network_from_code(c.u8()?)?;
    let n = c.u32()? as usize;
    let mut flows = Vec::with_capacity(n);
    for _ in 0..n {
        flows.push(read_flow(&mut c)?);
    }
    let mut endpoints = Vec::with_capacity(n);
    for _ in 0..n {
        let src = Ipv4Addr::from(c.u32()?);
        let dst = Ipv4Addr::from(c.u32()?);
        endpoints.push((src, dst));
    }
    let mut cities = Vec::with_capacity(n);
    for _ in 0..n {
        let src = c.string()?;
        let dst = c.string()?;
        cities.push((src, dst));
    }
    c.finish()?;
    Ok(Dataset {
        network,
        flows,
        cities,
        endpoints,
    })
}

/// Encodes a model-ready flow list (the join stage's artifact).
pub fn encode_flows(flows: &[TrafficFlow]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + flows.len() * 22);
    out.extend_from_slice(b"TTFLOW1\n");
    out.extend_from_slice(&(flows.len() as u32).to_le_bytes());
    for flow in flows {
        push_flow(&mut out, flow);
    }
    out
}

/// Decodes [`encode_flows`] output.
pub fn decode_flows(bytes: &[u8]) -> Result<Vec<TrafficFlow>, String> {
    let mut c = Cursor::new(bytes);
    c.magic(b"TTFLOW1\n")?;
    let n = c.u32()? as usize;
    let mut flows = Vec::with_capacity(n);
    for _ in 0..n {
        flows.push(read_flow(&mut c)?);
    }
    c.finish()?;
    Ok(flows)
}

/// Encodes the export stage's artifact: wire datagrams plus the
/// ground-truth offered byte count.
pub fn encode_wire(wire: &[bytes::Bytes], offered_bytes: u64) -> Vec<u8> {
    let total: usize = wire.iter().map(|d| d.len() + 4).sum();
    let mut out = Vec::with_capacity(24 + total);
    out.extend_from_slice(b"TTWIRE1\n");
    out.extend_from_slice(&offered_bytes.to_le_bytes());
    out.extend_from_slice(&(wire.len() as u32).to_le_bytes());
    for datagram in wire {
        out.extend_from_slice(&(datagram.len() as u32).to_le_bytes());
        out.extend_from_slice(datagram);
    }
    out
}

/// Decodes [`encode_wire`] output into `(datagrams, offered_bytes)`.
pub fn decode_wire(bytes: &[u8]) -> Result<(Vec<Vec<u8>>, u64), String> {
    let mut c = Cursor::new(bytes);
    c.magic(b"TTWIRE1\n")?;
    let offered = c.u64()?;
    let n = c.u32()? as usize;
    let mut wire = Vec::with_capacity(n);
    for _ in 0..n {
        let len = c.u32()? as usize;
        wire.push(c.take(len)?.to_vec());
    }
    c.finish()?;
    Ok((wire, offered))
}

/// Encodes the collect stage's artifact: deduplicated measured flows
/// plus ingest statistics.
pub fn encode_measured(measured: &[MeasuredFlow], datagrams: u64, records: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + measured.len() * 29);
    out.extend_from_slice(b"TTMEAS1\n");
    out.extend_from_slice(&datagrams.to_le_bytes());
    out.extend_from_slice(&records.to_le_bytes());
    out.extend_from_slice(&(measured.len() as u32).to_le_bytes());
    for m in measured {
        out.extend_from_slice(&u32::from(m.key.src_addr).to_le_bytes());
        out.extend_from_slice(&u32::from(m.key.dst_addr).to_le_bytes());
        out.extend_from_slice(&m.key.src_port.to_le_bytes());
        out.extend_from_slice(&m.key.dst_port.to_le_bytes());
        out.push(m.key.protocol);
        out.extend_from_slice(&m.bytes.to_le_bytes());
        out.extend_from_slice(&m.packets.to_le_bytes());
    }
    out
}

/// Decodes [`encode_measured`] output into
/// `(measured, datagrams, records)`.
pub fn decode_measured(bytes: &[u8]) -> Result<(Vec<MeasuredFlow>, u64, u64), String> {
    let mut c = Cursor::new(bytes);
    c.magic(b"TTMEAS1\n")?;
    let datagrams = c.u64()?;
    let records = c.u64()?;
    let n = c.u32()? as usize;
    let mut measured = Vec::with_capacity(n);
    for _ in 0..n {
        let key = FlowKey {
            src_addr: Ipv4Addr::from(c.u32()?),
            dst_addr: Ipv4Addr::from(c.u32()?),
            src_port: c.u16()?,
            dst_port: c.u16()?,
            protocol: c.u8()?,
        };
        let bytes_total = c.u64()?;
        let packets = c.u64()?;
        measured.push(MeasuredFlow {
            key,
            bytes: bytes_total,
            packets,
        });
    }
    c.finish()?;
    Ok((measured, datagrams, records))
}

// ---------------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------------

/// `dataset.generate`: the seeded Table-1-calibrated generator.
#[derive(Debug, Clone, Copy)]
pub struct GenerateStage {
    /// Which network to model.
    pub network: Network,
    /// Flow count.
    pub n_flows: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Stage for GenerateStage {
    fn kind(&self) -> &'static str {
        "dataset.generate"
    }

    fn params(&self) -> Content {
        canon::map(vec![
            ("network", Content::Str(self.network.label().to_string())),
            ("n_flows", Content::U64(self.n_flows as u64)),
            ("seed", Content::U64(self.seed)),
        ])
    }

    fn run(&self, _inputs: &[Artifact]) -> Result<Artifact, String> {
        let dataset = generate(self.network, self.n_flows, self.seed);
        Ok(Artifact::new(encode_dataset(&dataset)))
    }
}

/// `dataset.export`: packets → per-router sampled NetFlow → wire.
#[derive(Debug, Clone, Copy)]
pub struct ExportStage {
    /// 1-in-N packet sampling at each router.
    pub sampling_rate: u32,
    /// Routers observing each flow.
    pub routers_on_path: u8,
    /// Capture window, seconds.
    pub window_secs: f64,
    /// Simulated packet size, bytes.
    pub packet_bytes: u32,
}

impl Stage for ExportStage {
    fn kind(&self) -> &'static str {
        "dataset.export"
    }

    fn params(&self) -> Content {
        canon::map(vec![
            ("sampling_rate", Content::U64(u64::from(self.sampling_rate))),
            (
                "routers_on_path",
                Content::U64(u64::from(self.routers_on_path)),
            ),
            ("window_secs", Content::F64(self.window_secs)),
            ("packet_bytes", Content::U64(u64::from(self.packet_bytes))),
        ])
    }

    fn run(&self, inputs: &[Artifact]) -> Result<Artifact, String> {
        let dataset = decode_dataset(inputs[0].bytes())?;
        let config = PipelineConfig {
            sampling_rate: self.sampling_rate,
            routers_on_path: self.routers_on_path,
            window_secs: self.window_secs,
            packet_bytes: self.packet_bytes,
            ingest_shards: 1,
            ingest_workers: 1,
        };
        let (wire, offered_bytes) = export_wire(&dataset, config);
        Ok(Artifact::new(encode_wire(&wire, offered_bytes)))
    }
}

/// `dataset.collect`: wire datagrams → deduplicated measured flows.
///
/// Shards/workers are execution knobs only — they are not part of
/// `params()` because they cannot affect the collected state.
#[derive(Debug, Clone, Copy)]
pub struct CollectStage {
    /// Collector flow-map shards (1 = serial).
    pub ingest_shards: usize,
    /// Batch-ingest worker threads (0 = all cores).
    pub ingest_workers: usize,
}

impl Stage for CollectStage {
    fn kind(&self) -> &'static str {
        "dataset.collect"
    }

    fn params(&self) -> Content {
        Content::Map(Vec::new())
    }

    fn run(&self, inputs: &[Artifact]) -> Result<Artifact, String> {
        let (wire, _offered) = decode_wire(inputs[0].bytes())?;
        let (measured, datagrams, records) =
            collect_wire(&wire, self.ingest_shards, self.ingest_workers);
        Ok(Artifact::new(encode_measured(
            &measured, datagrams, records,
        )))
    }
}

/// `dataset.join`: measured matrix + ground truth → model-ready flows.
#[derive(Debug, Clone, Copy)]
pub struct JoinStage {
    /// Capture window the demands are averaged over, seconds.
    pub window_secs: f64,
}

impl Stage for JoinStage {
    fn kind(&self) -> &'static str {
        "dataset.join"
    }

    fn params(&self) -> Content {
        canon::map(vec![("window_secs", Content::F64(self.window_secs))])
    }

    fn run(&self, inputs: &[Artifact]) -> Result<Artifact, String> {
        let dataset = decode_dataset(inputs[0].bytes())?;
        let (measured, _datagrams, _records) = decode_measured(inputs[1].bytes())?;
        let matrix = TrafficMatrix::from_flows(&measured);
        let flows = join_measured(&dataset, &matrix, self.window_secs);
        Ok(Artifact::new(encode_flows(&flows)))
    }
}

/// Compiles the full measurement pipeline into a four-stage graph,
/// returning the node whose artifact is the model-ready flow list
/// (decode with [`decode_flows`]).
pub fn pipeline_graph(
    graph: &mut transit_stage::Graph,
    network: Network,
    n_flows: usize,
    seed: u64,
    config: PipelineConfig,
) -> transit_stage::NodeId {
    let tag = format!("{}/n{}/s{}", network.label(), n_flows, seed);
    let dataset = graph.add_labeled(
        format!("generate {tag}"),
        GenerateStage {
            network,
            n_flows,
            seed,
        },
        &[],
    );
    let wire = graph.add_labeled(
        format!("export {tag}"),
        ExportStage {
            sampling_rate: config.sampling_rate,
            routers_on_path: config.routers_on_path,
            window_secs: config.window_secs,
            packet_bytes: config.packet_bytes,
        },
        &[dataset],
    );
    let measured = graph.add_labeled(
        format!("collect {tag}"),
        CollectStage {
            ingest_shards: config.ingest_shards,
            ingest_workers: config.ingest_workers,
        },
        &[wire],
    );
    graph.add_labeled(
        format!("join {tag}"),
        JoinStage {
            window_secs: config.window_secs,
        },
        &[dataset, measured],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_pipeline;
    use transit_stage::{Executor, Graph, Store};

    fn dataset() -> Dataset {
        generate(Network::Internet2, 40, 11)
    }

    #[test]
    fn dataset_codec_roundtrips_exactly() {
        for network in Network::ALL {
            let ds = generate(network, 30, 7);
            let back = decode_dataset(&encode_dataset(&ds)).unwrap();
            assert_eq!(back.network, ds.network);
            assert_eq!(back.flows, ds.flows);
            assert_eq!(back.endpoints, ds.endpoints);
            assert_eq!(back.cities, ds.cities);
        }
    }

    #[test]
    fn flow_and_measured_codecs_roundtrip() {
        let ds = dataset();
        let back = decode_flows(&encode_flows(&ds.flows)).unwrap();
        assert_eq!(back, ds.flows);

        let (wire, offered) = export_wire(&ds, PipelineConfig::default());
        let (wire_back, offered_back) = decode_wire(&encode_wire(&wire, offered)).unwrap();
        assert_eq!(offered_back, offered);
        assert_eq!(wire_back.len(), wire.len());
        for (a, b) in wire.iter().zip(&wire_back) {
            assert_eq!(a.as_ref(), b.as_slice());
        }

        let (measured, datagrams, records) = collect_wire(&wire, 1, 1);
        let (m_back, d_back, r_back) =
            decode_measured(&encode_measured(&measured, datagrams, records)).unwrap();
        assert_eq!(m_back, measured);
        assert_eq!((d_back, r_back), (datagrams, records));
    }

    #[test]
    fn corrupt_artifacts_fail_loudly() {
        assert!(decode_dataset(b"TTFLOW1\n").is_err(), "magic mismatch");
        assert!(decode_flows(&[]).is_err(), "truncated");
        let mut bytes = encode_flows(&dataset().flows);
        bytes.push(0);
        assert!(decode_flows(&bytes).is_err(), "trailing bytes");
    }

    #[test]
    fn staged_pipeline_is_byte_identical_to_inline() {
        let ds = dataset();
        let config = PipelineConfig::default();
        let inline = run_pipeline(&ds, config);

        let mut graph = Graph::new();
        let join = pipeline_graph(&mut graph, Network::Internet2, 40, 11, config);
        let outcome = Executor::new().run(&graph).unwrap();
        let staged = decode_flows(outcome.artifact(join).bytes()).unwrap();
        assert_eq!(staged, inline.measured_flows);
    }

    #[test]
    fn staged_pipeline_resumes_warm_from_a_store() {
        let dir =
            std::env::temp_dir().join(format!("transit-datasets-stages-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let config = PipelineConfig::default();

        let build = || {
            let mut graph = Graph::new();
            let join = pipeline_graph(&mut graph, Network::Internet2, 40, 11, config);
            (graph, join)
        };
        let (graph, join) = build();
        let cold = Executor::new()
            .with_store(store.clone())
            .run(&graph)
            .unwrap();
        let (graph2, join2) = build();
        let warm = Executor::new().with_store(store).run(&graph2).unwrap();
        assert!(
            warm.reports.iter().all(|r| r.hit),
            "warm run hits all stages"
        );
        assert_eq!(
            cold.artifact(join).bytes(),
            warm.artifact(join2).bytes(),
            "warm artifact byte-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
