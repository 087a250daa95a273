//! NetFlow v5 wire format: header and flow records.
//!
//! The paper's inputs are "sampled NetFlow records from core routers in
//! each network for 24 hours" (§4.1.1). This module implements the actual
//! Cisco NetFlow v5 export format — 24-byte header followed by up to 30
//! 48-byte records per datagram — with strict bounds-checked decoding via
//! [`bytes::Buf`]/[`bytes::BufMut`]. All integers are big-endian per the
//! wire format.

use std::net::Ipv4Addr;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::key::FlowKey;

/// NetFlow version this module speaks.
pub const NETFLOW_V5: u16 = 5;
/// Size of the v5 packet header in bytes.
pub const HEADER_LEN: usize = 24;
/// Size of one v5 flow record in bytes.
pub const RECORD_LEN: usize = 48;
/// Maximum records per v5 export datagram (Cisco limit).
pub const MAX_RECORDS_PER_PACKET: usize = 30;

/// Decode failures. Decoding never panics on malformed input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer shorter than the structure being decoded.
    Truncated {
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        available: usize,
    },
    /// Header carried a version other than 5.
    BadVersion(u16),
    /// Header's record count exceeds the v5 per-packet maximum or the
    /// datagram's actual payload.
    BadCount(u16),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed, available } => {
                write!(f, "truncated packet: need {needed} bytes, have {available}")
            }
            DecodeError::BadVersion(v) => write!(f, "unsupported NetFlow version {v}"),
            DecodeError::BadCount(c) => write!(f, "invalid record count {c}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// NetFlow v5 packet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct V5Header {
    /// Number of flow records in this packet (1–30).
    pub count: u16,
    /// Milliseconds since the exporting device booted.
    pub sys_uptime_ms: u32,
    /// Export timestamp, seconds since the Unix epoch.
    pub unix_secs: u32,
    /// Residual nanoseconds of the export timestamp.
    pub unix_nsecs: u32,
    /// Total flows seen by the exporter (sequence number).
    pub flow_sequence: u32,
    /// Switching-engine type.
    pub engine_type: u8,
    /// Slot number of the flow-switching engine; we use it as the router
    /// id so the collector can attribute and deduplicate records.
    pub engine_id: u8,
    /// Two mode bits plus a 14-bit packet sampling interval
    /// (1-in-N; 0 means unsampled).
    pub sampling_interval: u16,
}

impl V5Header {
    /// Serializes into `buf` (exactly [`HEADER_LEN`] bytes).
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u16(NETFLOW_V5);
        buf.put_u16(self.count);
        buf.put_u32(self.sys_uptime_ms);
        buf.put_u32(self.unix_secs);
        buf.put_u32(self.unix_nsecs);
        buf.put_u32(self.flow_sequence);
        buf.put_u8(self.engine_type);
        buf.put_u8(self.engine_id);
        buf.put_u16(self.sampling_interval);
    }

    /// Decodes from `buf`, validating version and count.
    pub fn decode<B: Buf>(buf: &mut B) -> Result<V5Header, DecodeError> {
        if buf.remaining() < HEADER_LEN {
            return Err(DecodeError::Truncated {
                needed: HEADER_LEN,
                available: buf.remaining(),
            });
        }
        let version = buf.get_u16();
        if version != NETFLOW_V5 {
            return Err(DecodeError::BadVersion(version));
        }
        let count = buf.get_u16();
        if count == 0 || count as usize > MAX_RECORDS_PER_PACKET {
            return Err(DecodeError::BadCount(count));
        }
        Ok(V5Header {
            count,
            sys_uptime_ms: buf.get_u32(),
            unix_secs: buf.get_u32(),
            unix_nsecs: buf.get_u32(),
            flow_sequence: buf.get_u32(),
            engine_type: buf.get_u8(),
            engine_id: buf.get_u8(),
            sampling_interval: buf.get_u16(),
        })
    }

    /// The 1-in-N packet sampling rate encoded in the header (lower 14
    /// bits); `1` when unsampled.
    pub fn sampling_rate(&self) -> u32 {
        let n = (self.sampling_interval & 0x3FFF) as u32;
        n.max(1)
    }
}

/// One NetFlow v5 flow record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct V5Record {
    /// Source IPv4 address.
    pub src_addr: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_addr: Ipv4Addr,
    /// IPv4 next hop.
    pub next_hop: Ipv4Addr,
    /// SNMP ifIndex of the input interface.
    pub input_if: u16,
    /// SNMP ifIndex of the output interface.
    pub output_if: u16,
    /// Packets in the flow.
    pub packets: u32,
    /// Total layer-3 bytes in the flow.
    pub octets: u32,
    /// SysUptime at the first packet of the flow (ms).
    pub first_ms: u32,
    /// SysUptime at the last packet of the flow (ms).
    pub last_ms: u32,
    /// Source TCP/UDP port.
    pub src_port: u16,
    /// Destination TCP/UDP port.
    pub dst_port: u16,
    /// Cumulative TCP flags.
    pub tcp_flags: u8,
    /// IP protocol (6 = TCP, 17 = UDP, ...).
    pub protocol: u8,
    /// IP type of service.
    pub tos: u8,
    /// Source BGP autonomous system number.
    pub src_as: u16,
    /// Destination BGP autonomous system number.
    pub dst_as: u16,
    /// Source address prefix mask bits.
    pub src_mask: u8,
    /// Destination address prefix mask bits.
    pub dst_mask: u8,
}

impl V5Record {
    /// Serializes into `buf` (exactly [`RECORD_LEN`] bytes).
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u32(self.src_addr.into());
        buf.put_u32(self.dst_addr.into());
        buf.put_u32(self.next_hop.into());
        buf.put_u16(self.input_if);
        buf.put_u16(self.output_if);
        buf.put_u32(self.packets);
        buf.put_u32(self.octets);
        buf.put_u32(self.first_ms);
        buf.put_u32(self.last_ms);
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u8(0); // pad1
        buf.put_u8(self.tcp_flags);
        buf.put_u8(self.protocol);
        buf.put_u8(self.tos);
        buf.put_u16(self.src_as);
        buf.put_u16(self.dst_as);
        buf.put_u8(self.src_mask);
        buf.put_u8(self.dst_mask);
        buf.put_u16(0); // pad2
    }

    /// Decodes from `buf`.
    pub fn decode<B: Buf>(buf: &mut B) -> Result<V5Record, DecodeError> {
        if buf.remaining() < RECORD_LEN {
            return Err(DecodeError::Truncated {
                needed: RECORD_LEN,
                available: buf.remaining(),
            });
        }
        let src_addr = Ipv4Addr::from(buf.get_u32());
        let dst_addr = Ipv4Addr::from(buf.get_u32());
        let next_hop = Ipv4Addr::from(buf.get_u32());
        let input_if = buf.get_u16();
        let output_if = buf.get_u16();
        let packets = buf.get_u32();
        let octets = buf.get_u32();
        let first_ms = buf.get_u32();
        let last_ms = buf.get_u32();
        let src_port = buf.get_u16();
        let dst_port = buf.get_u16();
        let _pad1 = buf.get_u8();
        let tcp_flags = buf.get_u8();
        let protocol = buf.get_u8();
        let tos = buf.get_u8();
        let src_as = buf.get_u16();
        let dst_as = buf.get_u16();
        let src_mask = buf.get_u8();
        let dst_mask = buf.get_u8();
        let _pad2 = buf.get_u16();
        Ok(V5Record {
            src_addr,
            dst_addr,
            next_hop,
            input_if,
            output_if,
            packets,
            octets,
            first_ms,
            last_ms,
            src_port,
            dst_port,
            tcp_flags,
            protocol,
            tos,
            src_as,
            dst_as,
            src_mask,
            dst_mask,
        })
    }
}

/// A full export datagram: header plus records.
#[derive(Debug, Clone, PartialEq)]
pub struct V5Packet {
    /// Packet header; `header.count` always equals `records.len()`.
    pub header: V5Header,
    /// The flow records.
    pub records: Vec<V5Record>,
}

impl V5Packet {
    /// Serializes the whole datagram.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(HEADER_LEN + self.records.len() * RECORD_LEN);
        self.header.encode(&mut buf);
        for r in &self.records {
            r.encode(&mut buf);
        }
        buf.freeze()
    }

    /// Decodes a datagram, validating that the payload actually carries
    /// `header.count` records.
    pub fn decode(mut data: &[u8]) -> Result<V5Packet, DecodeError> {
        let header = V5Header::decode(&mut data)?;
        let needed = header.count as usize * RECORD_LEN;
        if data.remaining() < needed {
            return Err(DecodeError::BadCount(header.count));
        }
        let mut records = Vec::with_capacity(header.count as usize);
        for _ in 0..header.count {
            records.push(V5Record::decode(&mut data)?);
        }
        Ok(V5Packet { header, records })
    }
}

#[inline]
fn be16(data: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([data[at], data[at + 1]])
}

#[inline]
fn be32(data: &[u8], at: usize) -> u32 {
    u32::from_be_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]])
}

/// A zero-copy view of one export datagram: the collector's hot path.
///
/// [`V5PacketView::parse`] validates exactly what [`V5Packet::decode`]
/// validates — same [`DecodeError`] for the same input, byte for byte —
/// but borrows the datagram instead of materializing a `Vec<V5Record>`.
/// Records are read lazily, straight from the wire bytes, via
/// [`V5PacketView::record`] / [`V5PacketView::records`], and the
/// collector's aggregation loop uses [`V5PacketView::flow_tuples`] to
/// pull only the five key fields plus the two counters it needs.
/// `V5Packet` remains the owned type, with an intentionally independent
/// decode implementation the differential tests compare against.
#[derive(Debug, Clone, Copy)]
pub struct V5PacketView<'a> {
    header: V5Header,
    /// Exactly `header.count * RECORD_LEN` bytes of record payload.
    payload: &'a [u8],
}

impl<'a> V5PacketView<'a> {
    /// Parses the header and bounds-checks the payload without copying.
    pub fn parse(data: &'a [u8]) -> Result<V5PacketView<'a>, DecodeError> {
        if data.len() < HEADER_LEN {
            return Err(DecodeError::Truncated {
                needed: HEADER_LEN,
                available: data.len(),
            });
        }
        let version = be16(data, 0);
        if version != NETFLOW_V5 {
            return Err(DecodeError::BadVersion(version));
        }
        let count = be16(data, 2);
        if count == 0 || count as usize > MAX_RECORDS_PER_PACKET {
            return Err(DecodeError::BadCount(count));
        }
        let needed = count as usize * RECORD_LEN;
        let payload = &data[HEADER_LEN..];
        if payload.len() < needed {
            return Err(DecodeError::BadCount(count));
        }
        Ok(V5PacketView {
            header: V5Header {
                count,
                sys_uptime_ms: be32(data, 4),
                unix_secs: be32(data, 8),
                unix_nsecs: be32(data, 12),
                flow_sequence: be32(data, 16),
                engine_type: data[20],
                engine_id: data[21],
                sampling_interval: be16(data, 22),
            },
            payload: &payload[..needed],
        })
    }

    /// The parsed header.
    pub fn header(&self) -> &V5Header {
        &self.header
    }

    /// Number of records in the datagram (1–30, already validated).
    pub fn record_count(&self) -> usize {
        self.header.count as usize
    }

    /// Reads record `i` from the wire bytes. Panics if `i` is out of
    /// range (`i < record_count` is the caller's contract).
    pub fn record(&self, i: usize) -> V5Record {
        let r = &self.payload[i * RECORD_LEN..(i + 1) * RECORD_LEN];
        V5Record {
            src_addr: Ipv4Addr::from(be32(r, 0)),
            dst_addr: Ipv4Addr::from(be32(r, 4)),
            next_hop: Ipv4Addr::from(be32(r, 8)),
            input_if: be16(r, 12),
            output_if: be16(r, 14),
            packets: be32(r, 16),
            octets: be32(r, 20),
            first_ms: be32(r, 24),
            last_ms: be32(r, 28),
            src_port: be16(r, 32),
            dst_port: be16(r, 34),
            tcp_flags: r[37],
            protocol: r[38],
            tos: r[39],
            src_as: be16(r, 40),
            dst_as: be16(r, 42),
            src_mask: r[44],
            dst_mask: r[45],
        }
    }

    /// Lazy record iterator (no per-packet allocation).
    pub fn records(&self) -> impl Iterator<Item = V5Record> + '_ {
        (0..self.record_count()).map(|i| self.record(i))
    }

    /// The aggregation-loop accessor: record `i`'s 5-tuple key plus its
    /// raw `(octets, packets)` counters, skipping the eleven fields the
    /// collector never looks at.
    pub fn flow_tuple(&self, i: usize) -> (FlowKey, u32, u32) {
        let r = &self.payload[i * RECORD_LEN..(i + 1) * RECORD_LEN];
        let key = FlowKey {
            src_addr: Ipv4Addr::from(be32(r, 0)),
            dst_addr: Ipv4Addr::from(be32(r, 4)),
            src_port: be16(r, 32),
            dst_port: be16(r, 34),
            protocol: r[38],
        };
        (key, be32(r, 20), be32(r, 16))
    }

    /// Iterator over [`V5PacketView::flow_tuple`] for every record.
    pub fn flow_tuples(&self) -> impl Iterator<Item = (FlowKey, u32, u32)> + '_ {
        (0..self.record_count()).map(|i| self.flow_tuple(i))
    }

    /// Materializes the owned compat type (tests and slow paths).
    pub fn to_packet(&self) -> V5Packet {
        V5Packet {
            header: self.header,
            records: self.records().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> V5Header {
        V5Header {
            count: 2,
            sys_uptime_ms: 123_456,
            unix_secs: 1_700_000_000,
            unix_nsecs: 42,
            flow_sequence: 99,
            engine_type: 0,
            engine_id: 7,
            sampling_interval: 0x4000 | 100, // mode bits + 1-in-100
        }
    }

    fn sample_record(i: u8) -> V5Record {
        V5Record {
            src_addr: Ipv4Addr::new(93, 184, i, 1),
            dst_addr: Ipv4Addr::new(8, 8, 8, i),
            next_hop: Ipv4Addr::new(10, 0, 0, 1),
            input_if: 1,
            output_if: 2,
            packets: 1000 + i as u32,
            octets: 1_500_000 + i as u32,
            first_ms: 1000,
            last_ms: 2000,
            src_port: 443,
            dst_port: 50_000 + i as u16,
            tcp_flags: 0x18,
            protocol: 6,
            tos: 0,
            src_as: 64_500,
            dst_as: 15_169,
            src_mask: 24,
            dst_mask: 16,
        }
    }

    #[test]
    fn header_roundtrip() {
        let h = sample_header();
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), HEADER_LEN);
        let decoded = V5Header::decode(&mut buf.freeze()).unwrap();
        assert_eq!(decoded, h);
    }

    #[test]
    fn record_roundtrip() {
        let r = sample_record(5);
        let mut buf = BytesMut::new();
        r.encode(&mut buf);
        assert_eq!(buf.len(), RECORD_LEN);
        let decoded = V5Record::decode(&mut buf.freeze()).unwrap();
        assert_eq!(decoded, r);
    }

    #[test]
    fn packet_roundtrip() {
        let pkt = V5Packet {
            header: sample_header(),
            records: vec![sample_record(1), sample_record(2)],
        };
        let wire = pkt.encode();
        assert_eq!(wire.len(), HEADER_LEN + 2 * RECORD_LEN);
        let decoded = V5Packet::decode(&wire).unwrap();
        assert_eq!(decoded, pkt);
    }

    #[test]
    fn decode_rejects_truncated_header() {
        let err = V5Header::decode(&mut &[0u8; 10][..]).unwrap_err();
        assert!(matches!(err, DecodeError::Truncated { .. }));
    }

    #[test]
    fn decode_rejects_wrong_version() {
        let mut buf = BytesMut::new();
        sample_header().encode(&mut buf);
        buf[0] = 0;
        buf[1] = 9; // version 9
        let err = V5Header::decode(&mut buf.freeze()).unwrap_err();
        assert_eq!(err, DecodeError::BadVersion(9));
    }

    #[test]
    fn decode_rejects_zero_and_oversized_count() {
        for count in [0u16, 31, 1000] {
            let mut h = sample_header();
            h.count = count;
            let mut buf = BytesMut::new();
            h.encode(&mut buf);
            let err = V5Header::decode(&mut buf.freeze()).unwrap_err();
            assert_eq!(err, DecodeError::BadCount(count));
        }
    }

    #[test]
    fn packet_decode_rejects_count_payload_mismatch() {
        // Header claims 2 records but only one follows.
        let mut h = sample_header();
        h.count = 2;
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        sample_record(1).encode(&mut buf);
        let err = V5Packet::decode(&buf.freeze()).unwrap_err();
        assert_eq!(err, DecodeError::BadCount(2));
    }

    #[test]
    fn truncated_record_is_detected() {
        let mut buf = BytesMut::new();
        sample_record(1).encode(&mut buf);
        let short = &buf[..RECORD_LEN - 1];
        let err = V5Record::decode(&mut &short[..]).unwrap_err();
        assert!(matches!(err, DecodeError::Truncated { .. }));
    }

    #[test]
    fn sampling_rate_masks_mode_bits() {
        let mut h = sample_header();
        h.sampling_interval = 0x4000 | 512;
        assert_eq!(h.sampling_rate(), 512);
        h.sampling_interval = 0;
        assert_eq!(h.sampling_rate(), 1, "unsampled means rate 1");
    }

    #[test]
    fn garbage_bytes_never_panic() {
        // Fuzz-ish: decode every prefix of a pseudo-random buffer.
        let data: Vec<u8> = (0..512u32)
            .map(|i| (i.wrapping_mul(197) >> 3) as u8)
            .collect();
        for len in 0..data.len() {
            let _ = V5Packet::decode(&data[..len]);
        }
    }

    #[test]
    fn view_agrees_with_owned_decode() {
        let pkt = V5Packet {
            header: sample_header(),
            records: vec![sample_record(1), sample_record(2)],
        };
        let wire = pkt.encode();
        let view = V5PacketView::parse(&wire).unwrap();
        assert_eq!(*view.header(), pkt.header);
        assert_eq!(view.record_count(), 2);
        assert_eq!(view.record(0), pkt.records[0]);
        assert_eq!(view.record(1), pkt.records[1]);
        assert_eq!(view.records().collect::<Vec<_>>(), pkt.records);
        assert_eq!(view.to_packet(), pkt);
    }

    #[test]
    fn view_flow_tuple_matches_record_fields() {
        let pkt = V5Packet {
            header: sample_header(),
            records: vec![sample_record(3), sample_record(4)],
        };
        let wire = pkt.encode();
        let view = V5PacketView::parse(&wire).unwrap();
        for (i, r) in pkt.records.iter().enumerate() {
            let (key, octets, packets) = view.flow_tuple(i);
            assert_eq!(key, FlowKey::from_record(r));
            assert_eq!(octets, r.octets);
            assert_eq!(packets, r.packets);
        }
        let tuples: Vec<_> = view.flow_tuples().collect();
        assert_eq!(tuples.len(), 2);
        assert_eq!(tuples[0], view.flow_tuple(0));
    }

    #[test]
    fn view_errors_match_owned_decode_errors() {
        // Ignoring trailing bytes, truncation, bad version, bad count:
        // the view must return the exact error the owned decoder does.
        let pkt = V5Packet {
            header: sample_header(),
            records: vec![sample_record(1), sample_record(2)],
        };
        let wire = pkt.encode().to_vec();
        let mut with_trailer = wire.clone();
        with_trailer.extend_from_slice(&[0xAA; 13]);
        assert_eq!(
            V5PacketView::parse(&with_trailer).unwrap().to_packet(),
            V5Packet::decode(&with_trailer).unwrap()
        );
        for len in 0..wire.len() {
            let truncated = &wire[..len];
            assert_eq!(
                V5PacketView::parse(truncated).map(|v| v.to_packet()),
                V5Packet::decode(truncated),
                "prefix of {len} bytes"
            );
        }
        let mut bad_version = wire.clone();
        bad_version[1] = 9;
        assert_eq!(
            V5PacketView::parse(&bad_version).unwrap_err(),
            V5Packet::decode(&bad_version).unwrap_err()
        );
        for count in [0u16, 31, 0xFFFF] {
            let mut bad_count = wire.clone();
            bad_count[2..4].copy_from_slice(&count.to_be_bytes());
            assert_eq!(
                V5PacketView::parse(&bad_count).unwrap_err(),
                V5Packet::decode(&bad_count).unwrap_err(),
                "count {count}"
            );
        }
    }
}
