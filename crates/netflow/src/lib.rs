//! # transit-netflow
//!
//! NetFlow v5 substrate reproducing the paper's data pipeline (§4.1.1):
//! "sampled NetFlow records from core routers ... for 24 hours", with
//! demand obtained "by aggregating all records of the flow, while ensuring
//! that we do not double-count records that are duplicated on different
//! routers".
//!
//! Pipeline: packets → [`sampler`] (1-in-N) → per-router [`exporter`]
//! (flow cache → v5 datagrams, wire format in [`record`]) → [`collector`]
//! (decode, de-sample, cross-router dedup) → [`matrix`] (host-pair
//! demands in Mbps, the model inputs). [`timed`] adds realistic
//! active/inactive flow expiry on the exporter side.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collector;
pub mod exporter;
pub mod fasthash;
pub mod key;
pub mod matrix;
pub mod record;
pub mod sampler;
pub mod table;
pub mod timed;

pub use collector::{Collector, CollectorStats};
pub use exporter::Exporter;
pub use fasthash::{FastHashMap, FastHasher};
pub use key::{FlowKey, MeasuredFlow};
pub use matrix::{DemandEntry, TrafficMatrix};
pub use record::{DecodeError, V5Header, V5Packet, V5PacketView, V5Record};
pub use sampler::{HashSampler, Sampler, SystematicSampler};
pub use table::{flow_hash, FlowTable};
pub use timed::{TimedExporter, TimeoutConfig};
