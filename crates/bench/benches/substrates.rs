//! Microbenchmarks of the substrate crates.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::net::Ipv4Addr;
use transit_bench::{BENCH_FLOWS, BENCH_SEED};

fn netflow_codec(c: &mut Criterion) {
    use transit_netflow::{V5Header, V5Packet, V5Record};
    let packet = V5Packet {
        header: V5Header {
            count: 30,
            sys_uptime_ms: 1,
            unix_secs: 2,
            unix_nsecs: 3,
            flow_sequence: 4,
            engine_type: 0,
            engine_id: 1,
            sampling_interval: 0x4000 | 100,
        },
        records: (0..30u32)
            .map(|i| V5Record {
                src_addr: Ipv4Addr::from(0x0a00_0000 | i),
                dst_addr: Ipv4Addr::from(0x5050_0000 | i),
                next_hop: Ipv4Addr::UNSPECIFIED,
                input_if: 1,
                output_if: 2,
                packets: 100 + i,
                octets: 150_000 + i,
                first_ms: 0,
                last_ms: 1000,
                src_port: 40_000,
                dst_port: 443,
                tcp_flags: 0x18,
                protocol: 6,
                tos: 0,
                src_as: 64_500,
                dst_as: 15_169,
                src_mask: 24,
                dst_mask: 16,
            })
            .collect(),
    };
    let wire = packet.encode();

    let mut g = c.benchmark_group("netflow_codec");
    g.throughput(Throughput::Bytes(wire.len() as u64));
    g.bench_function("encode_30_records", |b| {
        b.iter(|| black_box(packet.encode()))
    });
    g.bench_function("decode_30_records", |b| {
        b.iter(|| black_box(V5Packet::decode(black_box(&wire)).unwrap()))
    });
    g.finish();
}

fn netflow_collection(c: &mut Criterion) {
    use transit_netflow::{Collector, Exporter, FlowKey, SystematicSampler};
    // Pre-build a batch of datagrams from 3 routers x 900 flows.
    let mut datagrams = Vec::new();
    for router in 0..3u8 {
        let mut e = Exporter::new(router, SystematicSampler::new(10));
        for i in 0..900u32 {
            let key = FlowKey {
                src_addr: Ipv4Addr::from(0x0b00_0000 | i),
                dst_addr: Ipv4Addr::from(0x0c00_0000 | (i * 7)),
                src_port: (i % 40_000) as u16,
                dst_port: 443,
                protocol: 6,
            };
            e.observe_packets(key, 1_000, 1500);
        }
        for pkt in e.flush(0) {
            datagrams.push(pkt.encode());
        }
    }
    let total_bytes: usize = datagrams.iter().map(|d| d.len()).sum();

    let mut g = c.benchmark_group("netflow_collection");
    g.throughput(Throughput::Bytes(total_bytes as u64));
    g.bench_function("ingest_and_dedup_2700_records", |b| {
        b.iter(|| {
            let mut collector = Collector::new();
            for d in &datagrams {
                collector.ingest(black_box(d)).unwrap();
            }
            black_box(collector.measured_flows().len())
        })
    });
    g.finish();
}

fn prefix_trie(c: &mut Criterion) {
    use transit_routing::{Ipv4Prefix, PrefixTrie};
    let trie: PrefixTrie<u32> = (0u32..10_000)
        .map(|i| {
            let addr = Ipv4Addr::from(i.wrapping_mul(0x9E37_79B9));
            (Ipv4Prefix::new(addr, 8 + (i % 17) as u8).unwrap(), i)
        })
        .collect();
    let queries: Vec<Ipv4Addr> = (0u32..1024)
        .map(|i| Ipv4Addr::from(i.wrapping_mul(0x6C62_272E)))
        .collect();

    let mut g = c.benchmark_group("prefix_trie");
    g.throughput(Throughput::Elements(queries.len() as u64));
    g.bench_function("lpm_lookup_10k_routes", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &q in &queries {
                if trie.lookup(black_box(q)).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.finish();
}

fn topology_and_geo(c: &mut Criterion) {
    use transit_geo::{all_cities, Coord, GeoIpDb};
    use transit_topology::{internet2, PopId};

    let mut g = c.benchmark_group("topology_geo");
    let topo = internet2();
    g.bench_function("dijkstra_internet2_all_pairs", |b| {
        b.iter(|| {
            let n = topo.pops().len();
            let mut total = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    total += topo
                        .shortest_path(PopId(i), PopId(j))
                        .unwrap()
                        .distance_miles;
                }
            }
            black_box(total)
        })
    });

    let a = Coord::new(40.7128, -74.0060).unwrap();
    let b_ = Coord::new(51.5074, -0.1278).unwrap();
    g.bench_function("haversine", |b| {
        b.iter(|| black_box(black_box(a).distance_miles(black_box(&b_))))
    });

    let db = GeoIpDb::world();
    g.bench_function("geoip_lookup", |b| {
        b.iter(|| black_box(db.lookup(black_box(Ipv4Addr::new(93, 184, 216, 34)))))
    });
    let names: Vec<&str> = all_cities().iter().map(|c| c.name).collect();
    g.bench_function("geoip_representative_addr", |b| {
        b.iter(|| {
            for &name in &names {
                black_box(db.representative_addr(black_box(name)));
            }
        })
    });
    g.bench_function("geoip_build_world", |b| {
        b.iter(|| black_box(GeoIpDb::world().len()))
    });
    g.finish();
}

fn dataset_and_fitting(c: &mut Criterion) {
    use transit_core::cost::LinearCost;
    use transit_core::demand::ced::CedAlpha;
    use transit_core::fitting::fit_ced;
    use transit_core::market::{CedMarket, TransitMarket};
    use transit_datasets::{generate, Network};

    let mut g = c.benchmark_group("dataset_fitting");
    g.sample_size(20);
    g.bench_function("generate_eu_isp", |b| {
        b.iter(|| {
            black_box(
                generate(Network::EuIsp, BENCH_FLOWS, BENCH_SEED)
                    .flows
                    .len(),
            )
        })
    });

    let flows = generate(Network::EuIsp, BENCH_FLOWS, BENCH_SEED).flows;
    let cost = LinearCost::new(0.2).unwrap();
    g.bench_function("fit_ced", |b| {
        b.iter(|| {
            black_box(
                fit_ced(black_box(&flows), &cost, CedAlpha::new(1.1).unwrap(), 20.0)
                    .unwrap()
                    .gamma,
            )
        })
    });

    let market =
        CedMarket::new(fit_ced(&flows, &cost, CedAlpha::new(1.1).unwrap(), 20.0).unwrap()).unwrap();
    let members: Vec<usize> = (0..BENCH_FLOWS / 2).collect();
    g.bench_function("bundle_score", |b| {
        b.iter(|| black_box(market.bundle_score(black_box(&members))))
    });
    g.finish();
}

fn routing_policy_and_te(c: &mut Criterion) {
    use transit_routing::{
        BackboneOption, EgressPolicy, Ipv4Prefix, Match, Rib, RouteAnnouncement, TaggingPolicy,
        TierRate, TierTag,
    };
    use transit_topology::{internet2, route_demands, Demand, PopId};

    // Tagging policy over a synthetic table.
    let policy = TaggingPolicy::new(64_500)
        .rule(Match::PathLenAtMost(1), TierTag(0))
        .rule(
            Match::PrefixWithin("10.0.0.0/8".parse::<Ipv4Prefix>().unwrap()),
            TierTag(1),
        )
        .rule(Match::Any, TierTag(2));
    let routes: Vec<RouteAnnouncement> = (0u32..2_000)
        .map(|i| {
            RouteAnnouncement::new(
                Ipv4Prefix::new(Ipv4Addr::from(i.wrapping_mul(0x9E37_79B9)), 16).unwrap(),
                vec![1; (i % 4 + 1) as usize],
                Ipv4Addr::new(10, 0, 0, 1),
            )
        })
        .collect();

    let mut g = c.benchmark_group("routing_policy_te");
    g.throughput(Throughput::Elements(routes.len() as u64));
    g.bench_function("tag_2000_routes", |b| {
        b.iter(|| {
            let mut rib = Rib::new();
            for r in &routes {
                rib.announce(policy.apply(r.clone()));
            }
            black_box(rib.len())
        })
    });

    // Egress planning over a tagged RIB.
    let mut rib = Rib::new();
    for r in &routes {
        rib.announce(policy.apply(r.clone()));
    }
    let rates = [
        TierRate {
            tier: TierTag(0),
            dollars_per_mbps: 5.0,
        },
        TierRate {
            tier: TierTag(1),
            dollars_per_mbps: 11.0,
        },
        TierRate {
            tier: TierTag(2),
            dollars_per_mbps: 24.0,
        },
    ];
    let mut egress = EgressPolicy::new(&rates);
    let traffic: Vec<(Ipv4Addr, f64)> = (0u32..500)
        .map(|i| {
            let dst = Ipv4Addr::from(i.wrapping_mul(0x6C62_272E));
            if i % 3 == 0 {
                egress.add_backbone_option(
                    dst,
                    BackboneOption {
                        haul_cost: 4.0,
                        handoff_price: 6.0,
                    },
                );
            }
            (dst, 10.0)
        })
        .collect();
    g.bench_function("plan_500_destinations", |b| {
        b.iter(|| black_box(egress.plan(&rib, &traffic).total_cost))
    });

    // Traffic engineering: route 500 demands over Internet2.
    let topo = internet2();
    let n = topo.pops().len();
    let demands: Vec<Demand> = (0..500)
        .map(|i| Demand {
            src: PopId(i % n),
            dst: PopId((i * 7 + 3) % n),
            mbps: 10.0,
        })
        .collect();
    g.bench_function("route_500_demands_internet2", |b| {
        b.iter(|| black_box(route_demands(&topo, &demands).volume_miles))
    });
    g.finish();
}

fn timed_exporter(c: &mut Criterion) {
    use transit_netflow::{FlowKey, SystematicSampler, TimedExporter, TimeoutConfig};
    let mut g = c.benchmark_group("timed_exporter");
    g.bench_function("expire_1000_flows", |b| {
        b.iter(|| {
            let mut e =
                TimedExporter::new(1, SystematicSampler::new(10), TimeoutConfig::default(), 0);
            let mut out = 0usize;
            for round in 0..10u32 {
                for i in 0..100u32 {
                    let key = FlowKey {
                        src_addr: Ipv4Addr::from(0x0a00_0000 | (round * 100 + i)),
                        dst_addr: Ipv4Addr::new(9, 9, 9, 9),
                        src_port: 1,
                        dst_port: 2,
                        protocol: 6,
                    };
                    e.observe_packets(key, 50, 1500);
                }
                out += e.advance(20_000).len();
            }
            out += e.finish().len();
            black_box(out)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    netflow_codec,
    netflow_collection,
    prefix_trie,
    topology_and_geo,
    dataset_and_fitting,
    routing_policy_and_te,
    timed_exporter
);
criterion_main!(benches);
