//! Synthetic flow-set generators calibrated to Table 1.
//!
//! Each generator builds a pool of *geographically real* candidate
//! endpoints (city pairs with haversine or path distances), then assigns
//! flows so that the **demand-weighted distance distribution matches a
//! lognormal with Table 1's mean and CV** and the demand vector matches
//! Table 1's aggregate and CV exactly:
//!
//! 1. Demands come from [`calibrated_demands`] (exact aggregate and CV).
//! 2. Flows are ordered randomly; walking their cumulative demand mass,
//!    flow `i` receives the target-distribution quantile at its mass
//!    midpoint — so the demand-weighted empirical distance CDF equals the
//!    target CDF by construction, independent of how skewed demand is.
//! 3. Each target distance is snapped to the nearest candidate endpoint
//!    pair, which keeps flows attached to real geography (and real IPs via
//!    the synthetic GeoIP database) at the cost of a small quantization
//!    error, reported in EXPERIMENTS.md.
//!
//! Distance semantics per network follow §4.1.1: EU ISP entry/exit
//! great-circle distance, CDN origin→GeoIP(destination) distance,
//! Internet2 summed link lengths along the shortest path.

use std::net::Ipv4Addr;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use transit_core::flow::{Region, TrafficFlow};
use transit_geo::{GeoIpDb, GeoRelation};
use transit_topology::{cdn_origins, eu_isp, internet2};

use crate::demand_gen::{calibrated_demands, inverse_normal_cdf};
use crate::spec::Network;

/// One candidate endpoint pair in a generator's pool.
#[derive(Debug, Clone)]
struct Candidate {
    distance_miles: f64,
    src_city: &'static str,
    dst_city: &'static str,
    region: Region,
}

/// A generated dataset: model-ready flows plus the endpoint metadata
/// needed to drive the NetFlow/routing pipeline.
#[derive(Debug, Clone, Serialize)]
pub struct Dataset {
    /// Which network this models.
    pub network: Network,
    /// Model-ready flows (demand, distance, region).
    pub flows: Vec<TrafficFlow>,
    /// Source/destination city names per flow.
    pub cities: Vec<(String, String)>,
    /// Synthetic endpoint addresses per flow (GeoIP-consistent).
    pub endpoints: Vec<(Ipv4Addr, Ipv4Addr)>,
}

impl Dataset {
    /// Convenience accessor for the flow slice.
    pub fn flows(&self) -> &[TrafficFlow] {
        &self.flows
    }
}

/// Generates the dataset for `network` with `n_flows` flows, seeded and
/// fully deterministic. `n_flows` must be at least 2.
pub fn generate(network: Network, n_flows: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7A5E_D517_0000 ^ network as u64);
    let targets = network.table1_targets();

    // Candidate endpoint pool.
    let mut pool = match network {
        Network::EuIsp => eu_isp_pool(),
        Network::Cdn => cdn_pool(),
        Network::Internet2 => internet2_pool(),
    };
    pool.sort_by(|a, b| {
        a.distance_miles
            .partial_cmp(&b.distance_miles)
            .expect("finite distances")
    });

    // Demands: exact aggregate (Mbps) and CV.
    let demands = calibrated_demands(
        n_flows,
        targets.cv_demand,
        targets.aggregate_gbps * 1000.0,
        &mut rng,
    );

    // Demand-mass-stratified distance targets (see module docs): lognormal
    // quantile at each flow's cumulative-mass midpoint. The walk order
    // sets the demand–distance dependence; we walk in *noisy descending
    // demand* order so high-volume flows receive the short-distance
    // quantiles — the structure of real transit traffic (heavy flows are
    // local) that makes Table 1's demand-weighted distances so short and
    // that §4.2.2's profit-weighted bundling exploits. The weighted
    // distance CDF matches the target regardless of this order.
    let total: f64 = demands.iter().sum();
    let sigma = (1.0 + targets.cv_distance * targets.cv_distance)
        .ln()
        .sqrt();
    let mu = targets.wavg_distance_miles.ln() - sigma * sigma / 2.0;
    let mut order: Vec<usize> = (0..n_flows).collect();
    order.sort_by(|&i, &j| {
        demands[j]
            .partial_cmp(&demands[i])
            .expect("finite demands")
            .then(i.cmp(&j))
    });
    // Rank noise: real data is strongly but not perfectly correlated.
    // Perturb each rank once by up to ±5% of n and re-sort.
    let span = n_flows as f64 * 0.05;
    let noisy_rank: Vec<f64> = (0..n_flows)
        .map(|rank| rank as f64 + rng.random_range(-span..=span))
        .collect();
    let mut positions: Vec<usize> = (0..n_flows).collect();
    positions.sort_by(|&a, &b| {
        noisy_rank[a]
            .partial_cmp(&noisy_rank[b])
            .expect("finite ranks")
    });
    let order: Vec<usize> = positions.into_iter().map(|p| order[p]).collect();

    let mut cum = 0.0;
    let mut flows: Vec<Option<TrafficFlow>> = vec![None; n_flows];
    let mut cities: Vec<(String, String)> = vec![(String::new(), String::new()); n_flows];
    let mut endpoints: Vec<(Ipv4Addr, Ipv4Addr)> =
        vec![(Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED); n_flows];
    let geoip = GeoIpDb::world();

    for &i in &order {
        let q = demands[i];
        let mass_mid = (cum + q / 2.0) / total;
        cum += q;
        // Clamp away from 0/1 for the quantile function.
        let p = mass_mid.clamp(1e-9, 1.0 - 1e-9);
        let target_d = (mu + sigma * inverse_normal_cdf(p)).exp();
        let cand = nearest_candidate(&pool, target_d, &mut rng);

        flows[i] =
            Some(TrafficFlow::new(i as u32, q, cand.distance_miles).with_region(cand.region));
        cities[i] = (cand.src_city.to_string(), cand.dst_city.to_string());
        endpoints[i] = endpoint_addrs(&geoip, cand.src_city, cand.dst_city, i);
    }

    Dataset {
        network,
        flows: flows
            .into_iter()
            .map(|f| f.expect("all flows assigned"))
            .collect(),
        cities,
        endpoints,
    }
}

/// Generates a replicated large-scale dataset: `n_distinct` base flows
/// (drawn exactly as [`generate`] would) cloned `replication` times each,
/// with demand split evenly across replicas so the aggregate still
/// matches Table 1 and every replica of a base flow carries
/// bitwise-identical `(demand, distance)` — the intended input shape for
/// ε = 0 flow coalescing, which compresses the
/// `n_distinct × replication` flows back to ~`n_distinct` groups.
///
/// Endpoint addresses stay GeoIP-consistent (same /16 as the base flow's
/// cities) but are unique per replica: the global flow index is split
/// across the src/dst host bits, giving ~2³² collision-free pairs per
/// city pair, so the NetFlow pipeline measures every replica as its own
/// flow instead of merging them at the traffic-matrix stage.
pub fn generate_replicated(
    network: Network,
    n_distinct: usize,
    replication: usize,
    seed: u64,
) -> Dataset {
    assert!(replication >= 1, "replication factor must be >= 1");
    let base = generate(network, n_distinct, seed);
    if replication == 1 {
        return base;
    }
    let n_total = n_distinct
        .checked_mul(replication)
        .expect("total flow count fits usize");
    assert!(n_total <= u32::MAX as usize, "flow ids are u32");
    let geoip = GeoIpDb::world();
    let mut flows = Vec::with_capacity(n_total);
    let mut cities = Vec::with_capacity(n_total);
    let mut endpoints = Vec::with_capacity(n_total);
    for (i, flow) in base.flows.iter().enumerate() {
        let q = flow.demand_mbps / replication as f64;
        let src_base = city_base(&geoip, &base.cities[i].0);
        let dst_base = city_base(&geoip, &base.cities[i].1);
        for r in 0..replication {
            let idx = (i * replication + r) as u32;
            flows.push(TrafficFlow::new(idx, q, flow.distance_miles).with_region(flow.region));
            cities.push(base.cities[i].clone());
            endpoints.push(replica_endpoint_addrs(src_base, dst_base, idx));
        }
    }
    Dataset {
        network,
        flows,
        cities,
        endpoints,
    }
}

/// Endpoint addresses for a replica: the city /16 bases with the global
/// flow index split across the src/dst host bits (base-0xFFFE digits),
/// unique for any index below 0xFFFE² ≈ 4.3 × 10⁹ — unlike
/// [`endpoint_addrs`], whose single-host scheme wraps at 65 534 flows
/// per city pair.
fn replica_endpoint_addrs(src_base: u32, dst_base: u32, flow_idx: u32) -> (Ipv4Addr, Ipv4Addr) {
    let lo = (flow_idx % 0xFFFE) + 1;
    let hi = ((flow_idx / 0xFFFE) % 0xFFFE) + 1;
    (
        Ipv4Addr::from(src_base | (lo & 0xFFFF)),
        Ipv4Addr::from(dst_base | (hi & 0xFFFF)),
    )
}

/// Snaps a target distance to one of the 3 nearest candidates (random
/// among them so repeated targets spread over geography).
fn nearest_candidate<'a, R: Rng>(pool: &'a [Candidate], target: f64, rng: &mut R) -> &'a Candidate {
    let idx = pool
        .binary_search_by(|c| {
            c.distance_miles
                .partial_cmp(&target)
                .expect("finite distances")
        })
        .unwrap_or_else(|i| i);
    // Collect up to 3 nearest by scanning both directions.
    let lo = idx.saturating_sub(2);
    let hi = (idx + 2).min(pool.len() - 1);
    let mut window: Vec<&Candidate> = pool[lo..=hi].iter().collect();
    window.sort_by(|a, b| {
        (a.distance_miles - target)
            .abs()
            .partial_cmp(&(b.distance_miles - target).abs())
            .expect("finite")
    });
    let k = window.len().min(3);
    window[rng.random_range(0..k)]
}

/// Synthesizes GeoIP-consistent endpoint addresses: the city's
/// representative /16 with per-flow host bits.
fn endpoint_addrs(
    geoip: &GeoIpDb,
    src_city: &str,
    dst_city: &str,
    flow_idx: usize,
) -> (Ipv4Addr, Ipv4Addr) {
    let host = (flow_idx as u32 % 0xFFFE) + 1;
    let make =
        |city, offset: u32| Ipv4Addr::from(city_base(geoip, city) | ((host + offset) & 0xFFFF));
    (make(src_city, 0), make(dst_city, 7))
}

/// The city's representative /16 with the host bits cleared.
fn city_base(geoip: &GeoIpDb, city: &str) -> u32 {
    let addr = geoip
        .representative_addr(city)
        .expect("pool cities exist in the GeoIP database");
    u32::from(addr) & 0xFFFF_0000
}

/// EU ISP pool: inter-PoP entry/exit pairs of the European mesh plus
/// intra-metro candidates (log-spaced 1–80 miles around each PoP), with
/// regions from the paper's EU distance-threshold rule.
fn eu_isp_pool() -> Vec<Candidate> {
    let topo = eu_isp();
    let mut pool = Vec::new();
    let pops = topo.pops();
    for (i, a) in pops.iter().enumerate() {
        for b in pops.iter().skip(i + 1) {
            let d = a.coord.distance_miles(&b.coord);
            pool.push(Candidate {
                distance_miles: d,
                src_city: leak_name(&a.name),
                dst_city: leak_name(&b.name),
                region: Region::from_distance_miles(d),
            });
        }
        // Intra-metro and suburban candidates: traffic entering and
        // leaving the ISP near the same PoP.
        for step in 0..20 {
            let d = 1.0 * (80.0f64 / 1.0).powf(step as f64 / 19.0);
            pool.push(Candidate {
                distance_miles: d,
                src_city: leak_name(&a.name),
                dst_city: leak_name(&a.name),
                region: Region::from_distance_miles(d),
            });
        }
    }
    pool
}

/// CDN pool: every origin PoP to every world city (GeoIP distance), plus
/// local serving (origin to its own metro).
fn cdn_pool() -> Vec<Candidate> {
    let origins = cdn_origins();
    let cities = transit_geo::all_cities();
    let mut pool = Vec::new();
    for o in &origins {
        for c in &cities {
            if o.name == c.name {
                // Local serving: cache to same-metro eyeballs.
                for d in [3.0, 8.0, 15.0] {
                    pool.push(Candidate {
                        distance_miles: d,
                        src_city: o.name,
                        dst_city: c.name,
                        region: Region::Metro,
                    });
                }
                continue;
            }
            let d = o.coord.distance_miles(&c.coord);
            let region = match relation(o.country, c.country) {
                GeoRelation::SameCity => Region::Metro,
                GeoRelation::SameCountry => Region::National,
                GeoRelation::International => Region::International,
            };
            pool.push(Candidate {
                distance_miles: d,
                src_city: o.name,
                dst_city: c.name,
                region,
            });
        }
    }
    pool
}

fn relation(a: &str, b: &str) -> GeoRelation {
    if a == b {
        GeoRelation::SameCountry
    } else {
        GeoRelation::International
    }
}

/// Internet2 pool: every PoP pair with its shortest-path distance through
/// the Abilene backbone (§4.1.1: "the distance each flow traverses is the
/// sum of the links in the path").
fn internet2_pool() -> Vec<Candidate> {
    let topo = internet2();
    let n = topo.pops().len();
    let mut pool = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let a = transit_topology::PopId(i);
            let b = transit_topology::PopId(j);
            let path = topo
                .shortest_path(a, b)
                .expect("Internet2 backbone is connected");
            pool.push(Candidate {
                distance_miles: path.distance_miles,
                src_city: leak_name(&topo.pop(a).name),
                dst_city: leak_name(&topo.pop(b).name),
                region: Region::from_distance_miles(path.distance_miles),
            });
        }
    }
    pool
}

/// Interns a PoP name as `&'static str`. PoP names come from the static
/// city table, so the set is tiny and bounded; leaking avoids threading
/// lifetimes through the candidate pool.
fn leak_name(name: &str) -> &'static str {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};
    static INTERNED: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let set = INTERNED.get_or_init(|| Mutex::new(HashSet::new()));
    let mut guard = set.lock().expect("intern lock");
    if let Some(&s) = guard.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    guard.insert(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DatasetStats;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(Network::EuIsp, 200, 7);
        let b = generate(Network::EuIsp, 200, 7);
        assert_eq!(a.flows, b.flows);
        assert_eq!(a.endpoints, b.endpoints);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(Network::EuIsp, 200, 1);
        let b = generate(Network::EuIsp, 200, 2);
        assert_ne!(a.flows, b.flows);
    }

    #[test]
    fn aggregate_demand_is_exact() {
        for network in Network::ALL {
            let ds = generate(network, 300, 42);
            let stats = DatasetStats::of(&ds.flows);
            let target = network.table1_targets().aggregate_gbps;
            assert!(
                (stats.aggregate_gbps - target).abs() / target < 1e-9,
                "{}: {} vs {}",
                network.label(),
                stats.aggregate_gbps,
                target
            );
        }
    }

    #[test]
    fn demand_cv_is_exact() {
        for network in Network::ALL {
            let ds = generate(network, 300, 42);
            let stats = DatasetStats::of(&ds.flows);
            let target = network.table1_targets().cv_demand;
            assert!(
                (stats.cv_demand - target).abs() < 1e-6,
                "{}: {} vs {}",
                network.label(),
                stats.cv_demand,
                target
            );
        }
    }

    #[test]
    fn distance_moments_near_table1() {
        for network in Network::ALL {
            let ds = generate(network, 500, 42);
            let stats = DatasetStats::of(&ds.flows);
            let t = network.table1_targets();
            let mean_err =
                (stats.wavg_distance_miles - t.wavg_distance_miles).abs() / t.wavg_distance_miles;
            let cv_err = (stats.cv_distance - t.cv_distance).abs() / t.cv_distance;
            assert!(
                mean_err < 0.15,
                "{}: w-avg {} vs {} ({}%)",
                network.label(),
                stats.wavg_distance_miles,
                t.wavg_distance_miles,
                mean_err * 100.0
            );
            assert!(
                cv_err < 0.25,
                "{}: CV {} vs {} ({}%)",
                network.label(),
                stats.cv_distance,
                t.cv_distance,
                cv_err * 100.0
            );
        }
    }

    #[test]
    fn all_flows_valid_for_models() {
        for network in Network::ALL {
            let ds = generate(network, 250, 9);
            transit_core::flow::validate_flows(&ds.flows).unwrap();
            assert_eq!(ds.flows.len(), 250);
            assert_eq!(ds.cities.len(), 250);
            assert_eq!(ds.endpoints.len(), 250);
        }
    }

    #[test]
    fn endpoints_geolocate_to_their_cities() {
        let ds = generate(Network::Cdn, 100, 3);
        let geoip = GeoIpDb::world();
        for (i, (src, dst)) in ds.endpoints.iter().enumerate() {
            let (src_city, dst_city) = &ds.cities[i];
            assert_eq!(&geoip.lookup(*src).unwrap().city, src_city, "flow {i} src");
            assert_eq!(&geoip.lookup(*dst).unwrap().city, dst_city, "flow {i} dst");
        }
    }

    #[test]
    fn eu_isp_spans_multiple_regions() {
        // Under the fitted lognormal distance target (w-avg 54 mi, CV
        // 0.70) less than 1% of demand mass lies below the 10-mile metro
        // threshold, so metro flows may legitimately be absent; national
        // and international traffic must both be present.
        let ds = generate(Network::EuIsp, 500, 42);
        let count = |r: Region| ds.flows.iter().filter(|f| f.region == r).count();
        assert!(count(Region::National) > 0);
        assert!(count(Region::International) > 0);
    }

    #[test]
    fn demand_and_distance_are_negatively_correlated() {
        // The generator's correlation structure (heavy flows are local):
        // Spearman rank correlation strongly negative.
        let ds = generate(Network::EuIsp, 300, 42);
        let n = ds.flows.len();
        let rank = |key: fn(&TrafficFlow) -> f64| -> Vec<usize> {
            let mut idx: Vec<usize> = (0..n).collect();
            idx.sort_by(|&a, &b| key(&ds.flows[a]).partial_cmp(&key(&ds.flows[b])).unwrap());
            let mut r = vec![0usize; n];
            for (pos, &i) in idx.iter().enumerate() {
                r[i] = pos;
            }
            r
        };
        let rd = rank(|f| f.demand_mbps);
        let rx = rank(|f| f.distance_miles);
        let mean = (n - 1) as f64 / 2.0;
        let mut num = 0.0;
        let mut d1 = 0.0;
        let mut d2 = 0.0;
        for i in 0..n {
            let a = rd[i] as f64 - mean;
            let b = rx[i] as f64 - mean;
            num += a * b;
            d1 += a * a;
            d2 += b * b;
        }
        let spearman = num / (d1.sqrt() * d2.sqrt());
        assert!(
            spearman < -0.7,
            "expected strong negative correlation, got {spearman}"
        );
    }

    #[test]
    fn cdn_flows_are_mostly_long_haul() {
        let ds = generate(Network::Cdn, 500, 42);
        let long = ds.flows.iter().filter(|f| f.distance_miles > 500.0).count();
        assert!(long as f64 / 500.0 > 0.6, "CDN is long-haul dominated");
    }

    #[test]
    fn replicated_dataset_duplicates_exactly() {
        let ds = generate_replicated(Network::EuIsp, 50, 8, 42);
        assert_eq!(ds.flows.len(), 400);
        let base = generate(Network::EuIsp, 50, 42);
        for (i, f) in base.flows.iter().enumerate() {
            let q = f.demand_mbps / 8.0;
            for r in 0..8 {
                let rep = &ds.flows[i * 8 + r];
                assert_eq!(rep.demand_mbps.to_bits(), q.to_bits(), "flow {i} rep {r}");
                assert_eq!(rep.distance_miles.to_bits(), f.distance_miles.to_bits());
                assert_eq!(rep.region, f.region);
            }
        }
        transit_core::flow::validate_flows(&ds.flows).unwrap();
    }

    #[test]
    fn replication_of_one_is_the_base_dataset() {
        let a = generate(Network::Internet2, 80, 9);
        let b = generate_replicated(Network::Internet2, 80, 1, 9);
        assert_eq!(a.flows, b.flows);
        assert_eq!(a.endpoints, b.endpoints);
    }

    #[test]
    fn replicated_endpoints_are_unique_past_the_host_wrap() {
        // 40 × 2000 = 80k flows exceeds the 65 534-host space of a single
        // /16 pair; the two-digit host scheme must stay collision-free.
        let ds = generate_replicated(Network::EuIsp, 40, 2000, 7);
        let unique: std::collections::HashSet<_> = ds.endpoints.iter().collect();
        assert_eq!(unique.len(), ds.endpoints.len());
        let geoip = GeoIpDb::world();
        for i in [0usize, 1, 65_533, 65_534, 65_535, 79_999] {
            let (src, dst) = ds.endpoints[i];
            let (sc, dc) = &ds.cities[i];
            assert_eq!(&geoip.lookup(src).unwrap().city, sc, "flow {i} src");
            assert_eq!(&geoip.lookup(dst).unwrap().city, dc, "flow {i} dst");
        }
    }

    #[test]
    fn replication_preserves_aggregate_demand() {
        let base = generate(Network::Cdn, 60, 5);
        let rep = generate_replicated(Network::Cdn, 60, 16, 5);
        let a: f64 = base.flows.iter().map(|f| f.demand_mbps).sum();
        let b: f64 = rep.flows.iter().map(|f| f.demand_mbps).sum();
        assert!((a - b).abs() / a < 1e-12, "{a} vs {b}");
    }

    #[test]
    fn internet2_distances_are_backbone_paths() {
        let ds = generate(Network::Internet2, 300, 42);
        // Every distance must be one of the 55 pairwise path distances.
        let pool = internet2_pool();
        for f in &ds.flows {
            assert!(
                pool.iter()
                    .any(|c| (c.distance_miles - f.distance_miles).abs() < 1e-9),
                "distance {} not a backbone path",
                f.distance_miles
            );
        }
    }
}
