//! Traffic engineering: routing a demand set over the topology and
//! measuring link loads.
//!
//! Tiered pricing changes traffic (cheap tiers grow, expensive tiers
//! shrink — see `transit-market`'s demand response), and an operator
//! needs to know what that does to link utilization before deploying.
//! [`route_demands`] places each (src, dst, Mbps) demand on its shortest
//! path and accumulates per-link loads; [`LinkLoadReport`] surfaces
//! utilization and hotspots.

use serde::Serialize;

use crate::graph::{PopId, Topology};

/// One routed demand.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Demand {
    /// Ingress PoP.
    pub src: PopId,
    /// Egress PoP.
    pub dst: PopId,
    /// Offered load, Mbps.
    pub mbps: f64,
}

/// Load on one link after routing.
#[derive(Debug, Clone, Serialize)]
pub struct LinkLoad {
    /// Index into [`Topology::links`].
    pub link: usize,
    /// Endpoint names, for reporting.
    pub endpoints: (String, String),
    /// Carried load, Mbps.
    pub mbps: f64,
    /// Load over capacity (capacity is Gbps in the topology; utilization
    /// of 1.0 means full).
    pub utilization: f64,
}

/// The result of routing a demand set.
#[derive(Debug, Clone, Serialize)]
pub struct LinkLoadReport {
    /// Per-link loads, ordered by link index.
    pub loads: Vec<LinkLoad>,
    /// Demands whose endpoints were disconnected (index into the input).
    pub unrouted: Vec<usize>,
    /// Total carried volume-miles (Mbps × miles), a cost proxy.
    pub volume_miles: f64,
}

impl LinkLoadReport {
    /// The most loaded link by utilization, if any traffic was routed.
    pub fn hotspot(&self) -> Option<&LinkLoad> {
        self.loads
            .iter()
            .max_by(|a, b| {
                a.utilization
                    .partial_cmp(&b.utilization)
                    .expect("finite utilization")
            })
            .filter(|l| l.mbps > 0.0)
    }

    /// Links at or above the given utilization.
    pub fn congested(&self, threshold: f64) -> Vec<&LinkLoad> {
        self.loads
            .iter()
            .filter(|l| l.utilization >= threshold)
            .collect()
    }
}

/// Routes every demand over its shortest path (by distance) and
/// accumulates link loads.
pub fn route_demands(topology: &Topology, demands: &[Demand]) -> LinkLoadReport {
    let mut mbps = vec![0.0f64; topology.links().len()];
    let mut unrouted = Vec::new();
    let mut volume_miles = 0.0;

    for (idx, d) in demands.iter().enumerate() {
        let Some(path) = topology.shortest_path(d.src, d.dst) else {
            unrouted.push(idx);
            continue;
        };
        volume_miles += d.mbps * path.distance_miles;
        for hop in path.pops.windows(2) {
            // Find the link joining the consecutive PoPs. Linear scan is
            // fine at topology scale; a production TE would index.
            let link_idx = topology
                .links()
                .iter()
                .position(|l| (l.a == hop[0] && l.b == hop[1]) || (l.a == hop[1] && l.b == hop[0]))
                .expect("path hops are links");
            mbps[link_idx] += d.mbps;
        }
    }

    let loads = mbps
        .iter()
        .enumerate()
        .map(|(link, &load)| {
            let l = &topology.links()[link];
            LinkLoad {
                link,
                endpoints: (
                    topology.pop(l.a).name.clone(),
                    topology.pop(l.b).name.clone(),
                ),
                mbps: load,
                utilization: load / (l.capacity_gbps * 1000.0),
            }
        })
        .collect();

    LinkLoadReport {
        loads,
        unrouted,
        volume_miles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::internet2;

    fn by_name(t: &Topology, name: &str) -> PopId {
        t.pop_by_name(name).unwrap()
    }

    #[test]
    fn single_demand_loads_every_path_link_once() {
        let t = internet2();
        let sea = by_name(&t, "Seattle");
        let ny = by_name(&t, "New York");
        let report = route_demands(
            &t,
            &[Demand {
                src: sea,
                dst: ny,
                mbps: 500.0,
            }],
        );
        let path = t.shortest_path(sea, ny).unwrap();
        let loaded: usize = report.loads.iter().filter(|l| l.mbps > 0.0).count();
        assert_eq!(loaded, path.pops.len() - 1);
        for l in report.loads.iter().filter(|l| l.mbps > 0.0) {
            assert!((l.mbps - 500.0).abs() < 1e-9);
        }
        assert!(
            (report.volume_miles - 500.0 * path.distance_miles).abs() < 1e-6,
            "volume-miles"
        );
    }

    #[test]
    fn opposite_demands_share_links() {
        let t = internet2();
        let a = by_name(&t, "Chicago");
        let b = by_name(&t, "New York");
        let report = route_demands(
            &t,
            &[
                Demand {
                    src: a,
                    dst: b,
                    mbps: 100.0,
                },
                Demand {
                    src: b,
                    dst: a,
                    mbps: 50.0,
                },
            ],
        );
        let chi_ny = report
            .loads
            .iter()
            .find(|l| l.mbps > 0.0)
            .expect("direct link loaded");
        assert!(
            (chi_ny.mbps - 150.0).abs() < 1e-9,
            "undirected accumulation"
        );
    }

    #[test]
    fn utilization_uses_capacity() {
        let t = internet2();
        let a = by_name(&t, "Chicago");
        let b = by_name(&t, "New York");
        // 5 Gbps on a 10 Gbps OC-192 → 0.5 utilization.
        let report = route_demands(
            &t,
            &[Demand {
                src: a,
                dst: b,
                mbps: 5_000.0,
            }],
        );
        let hotspot = report.hotspot().unwrap();
        assert!((hotspot.utilization - 0.5).abs() < 1e-9);
        assert_eq!(report.congested(0.4).len(), 1);
        assert!(report.congested(0.6).is_empty());
    }

    #[test]
    fn zero_hop_demand_routes_nowhere() {
        let t = internet2();
        let a = by_name(&t, "Denver");
        let report = route_demands(
            &t,
            &[Demand {
                src: a,
                dst: a,
                mbps: 42.0,
            }],
        );
        assert!(report.loads.iter().all(|l| l.mbps == 0.0));
        assert!(report.unrouted.is_empty());
        assert_eq!(report.volume_miles, 0.0);
    }

    #[test]
    fn disconnected_demand_is_reported() {
        use transit_geo::Coord;
        let mut t = Topology::new();
        let a = t.add_pop("A", "US", Coord::new(0.0, 0.0).unwrap());
        let b = t.add_pop("B", "US", Coord::new(1.0, 1.0).unwrap());
        let report = route_demands(
            &t,
            &[Demand {
                src: a,
                dst: b,
                mbps: 1.0,
            }],
        );
        assert_eq!(report.unrouted, vec![0]);
    }

    #[test]
    fn hotspot_is_none_on_idle_network() {
        let t = internet2();
        let report = route_demands(&t, &[]);
        assert!(report.hotspot().is_none());
    }
}
