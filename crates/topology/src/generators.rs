//! Topology generators for the paper's three networks (§4.1.1, Table 1).
//!
//! * [`internet2`] — the real Internet2/Abilene 11-PoP backbone with its
//!   published link map and real city coordinates (public information).
//! * [`eu_isp`] — an EU-ISP-like network: PoPs in European metros with a
//!   mesh biased toward short links, yielding the short flow distances of
//!   Table 1's EU ISP row (w-avg 54 miles).
//! * [`cdn_origins`] — the CDN scenario does not route inside one network
//!   (the paper geolocates destinations with GeoIP), so its "topology" is
//!   the set of origin PoPs the CDN serves from.

use transit_geo::cities::{by_name, City, EUROPE};

use crate::graph::{PopId, Topology};

fn add_city(t: &mut Topology, c: &City) -> PopId {
    t.add_pop(c.name, c.country, c.coord)
}

/// The Internet2/Abilene backbone: 11 PoPs, 14 OC-192 links.
///
/// Node and link map per the published Abilene topology; coordinates come
/// from the world-city table (Sunnyvale is represented by San Jose, its
/// metro neighbor).
pub fn internet2() -> Topology {
    let mut t = Topology::new();
    let names = [
        "Seattle",
        "San Jose", // Sunnyvale PoP
        "Los Angeles",
        "Denver",
        "Kansas City",
        "Houston",
        "Chicago",
        "Indianapolis",
        "Atlanta",
        "Washington",
        "New York",
    ];
    let ids: Vec<PopId> = names
        .iter()
        .map(|n| add_city(&mut t, by_name(n).expect("city in database")))
        .collect();
    let by = |name: &str| ids[names.iter().position(|n| *n == name).unwrap()];

    // The 14 Abilene backbone links (OC-192 = ~10 Gbps).
    let links = [
        ("Seattle", "San Jose"),
        ("Seattle", "Denver"),
        ("San Jose", "Los Angeles"),
        ("San Jose", "Denver"),
        ("Los Angeles", "Houston"),
        ("Denver", "Kansas City"),
        ("Kansas City", "Houston"),
        ("Kansas City", "Indianapolis"),
        ("Houston", "Atlanta"),
        ("Atlanta", "Indianapolis"),
        ("Atlanta", "Washington"),
        ("Indianapolis", "Chicago"),
        ("Chicago", "New York"),
        ("Washington", "New York"),
    ];
    for (a, b) in links {
        t.add_link(by(a), by(b), 10.0);
    }
    t
}

/// An EU-ISP-like topology over the European city table: a geographic
/// nearest-neighbor mesh (each PoP links to its `k` nearest peers), which
/// produces the dense, short-link structure of a regional transit
/// provider.
pub fn eu_isp() -> Topology {
    let mut t = Topology::new();
    let ids: Vec<PopId> = EUROPE.iter().map(|c| add_city(&mut t, c)).collect();

    // k-nearest-neighbor links (k = 3), deduplicated.
    let k = 3;
    let mut added = std::collections::HashSet::new();
    for (i, &a) in ids.iter().enumerate() {
        let mut neighbors: Vec<(f64, usize)> = ids
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(j, &b)| (t.crow_distance_miles(a, b), j))
            .collect();
        neighbors.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("finite distances"));
        for &(_, j) in neighbors.iter().take(k) {
            let key = (i.min(j), i.max(j));
            if added.insert(key) {
                t.add_link(ids[i.min(j)], ids[i.max(j)], 100.0);
            }
        }
    }
    t
}

/// The CDN's origin PoPs: major serving locations on three continents.
/// No internal links — CDN flow distance is origin→GeoIP(destination),
/// per §4.1.1.
pub fn cdn_origins() -> Vec<&'static City> {
    [
        "Frankfurt",
        "Amsterdam",
        "London",
        "Paris",
        "New York",
        "Washington",
        "Chicago",
        "Dallas",
        "Los Angeles",
        "San Jose",
        "Seattle",
        "Miami",
        "Tokyo",
        "Singapore",
        "Hong Kong",
        "Sydney",
        "Sao Paulo",
    ]
    .iter()
    .map(|n| by_name(n).expect("city in database"))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn internet2_matches_published_shape() {
        let t = internet2();
        assert_eq!(t.pops().len(), 11);
        assert_eq!(t.links().len(), 14);
        assert!(t.is_connected());
    }

    #[test]
    fn internet2_link_lengths_are_sane() {
        let t = internet2();
        for l in t.links() {
            assert!(
                l.length_miles > 100.0 && l.length_miles < 2500.0,
                "{} - {}: {} miles",
                t.pop(l.a).name,
                t.pop(l.b).name,
                l.length_miles
            );
        }
    }

    #[test]
    fn internet2_seattle_to_atlanta_is_multi_hop() {
        let t = internet2();
        let sea = t.pop_by_name("Seattle").unwrap();
        let atl = t.pop_by_name("Atlanta").unwrap();
        let p = t.shortest_path(sea, atl).unwrap();
        assert!(p.pops.len() >= 3, "no direct Seattle–Atlanta link");
        // Path distance must beat the crow distance but not absurdly so.
        let crow = t.crow_distance_miles(sea, atl);
        assert!(p.distance_miles >= crow);
        assert!(p.distance_miles < 2.0 * crow);
    }

    #[test]
    fn internet2_coast_to_coast_distance() {
        let t = internet2();
        let sea = t.pop_by_name("Seattle").unwrap();
        let ny = t.pop_by_name("New York").unwrap();
        let p = t.shortest_path(sea, ny).unwrap();
        // Seattle–NY crow ≈ 2,400 miles; backbone path somewhat longer.
        assert!(p.distance_miles > 2300.0 && p.distance_miles < 3800.0);
    }

    #[test]
    fn eu_isp_is_connected_mesh() {
        let t = eu_isp();
        assert_eq!(t.pops().len(), EUROPE.len());
        assert!(t.is_connected());
        // kNN with k=3 gives between n and 3n/... at least n-1 links for
        // connectivity, at most 3n.
        assert!(t.links().len() >= t.pops().len() - 1);
        assert!(t.links().len() <= 3 * t.pops().len());
    }

    #[test]
    fn eu_isp_links_are_short() {
        // The EU ISP's regional character: median link well under 500 mi.
        let t = eu_isp();
        let mut lengths: Vec<f64> = t.links().iter().map(|l| l.length_miles).collect();
        lengths.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = lengths[lengths.len() / 2];
        assert!(median < 400.0, "median EU link {median} miles");
    }

    #[test]
    fn cdn_origins_span_continents() {
        let origins = cdn_origins();
        assert!(origins.len() >= 15);
        let countries: std::collections::HashSet<_> = origins.iter().map(|c| c.country).collect();
        assert!(countries.len() >= 8, "origins in many countries");
    }

    #[test]
    fn generators_are_deterministic() {
        let a = internet2();
        let b = internet2();
        assert_eq!(a.pops().len(), b.pops().len());
        for (la, lb) in a.links().iter().zip(b.links()) {
            assert_eq!(la.a, lb.a);
            assert_eq!(la.b, lb.b);
        }
        let e1 = eu_isp();
        let e2 = eu_isp();
        assert_eq!(e1.links().len(), e2.links().len());
    }
}
