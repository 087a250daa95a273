//! Synthetic GeoIP database: IPv4 prefix → location lookup.
//!
//! The paper geolocates CDN flow destinations with MaxMind's GeoIP
//! database (reference \[17\]) to estimate flow distances and classify flows into
//! metro/national/international tiers. That database is proprietary; this
//! module provides a deterministic synthetic equivalent with the same
//! query semantics: each `/16` block is assigned to a city from the world
//! database, with block counts proportional to city population (bigger
//! metros own more address space, mirroring real allocation skew).
//!
//! Lookups are exact-match on the /16 (the allocation unit), so the
//! structure is a flat table rather than a longest-prefix trie — the
//! routing crate owns the real LPM trie.

use std::net::Ipv4Addr;

use crate::cities::{all_cities, City};
use crate::coord::Coord;

/// Result of a GeoIP lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct Location {
    /// City name.
    pub city: &'static str,
    /// ISO country code.
    pub country: &'static str,
    /// City-level coordinates.
    pub coord: Coord,
}

/// Pairwise geographic relationship, mirroring the paper's regional
/// classification (§3.3): same city → metro, same country → national,
/// otherwise international.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeoRelation {
    /// Same metropolitan area.
    SameCity,
    /// Same country, different metro.
    SameCountry,
    /// Different countries.
    International,
}

/// A deterministic synthetic GeoIP database.
///
/// ```
/// use transit_geo::GeoIpDb;
///
/// let db = GeoIpDb::world();
/// let addr = db.representative_addr("Tokyo").unwrap();
/// assert_eq!(db.lookup(addr).unwrap().city, "Tokyo");
/// assert_eq!(db.lookup(addr).unwrap().country, "JP");
/// ```
#[derive(Debug, Clone)]
pub struct GeoIpDb {
    /// City index owning each /16 block (indexed by the upper 16 bits of
    /// the IPv4 address), or [`UNASSIGNED`], which is never a city index.
    owner: Vec<u16>,
    /// Lowest /16 block owned by each city.
    first_block: Vec<Option<u16>>,
    cities: Vec<&'static City>,
}

/// Owner-table entry of a /16 block no city owns.
const UNASSIGNED: u16 = u16::MAX;

impl GeoIpDb {
    /// Builds the database over the full world-city table.
    ///
    /// Blocks `1.0/16` through roughly `223.255/16` (public unicast space,
    /// skipping 0/8, 10/8, 127/8, and everything at/above 224/8) are dealt
    /// to cities round-robin over a population-proportional schedule, so
    /// the mapping is reproducible across runs and platforms.
    pub fn world() -> GeoIpDb {
        GeoIpDb::with_cities(all_cities())
    }

    /// Builds a database restricted to the given cities (e.g. only
    /// European metros for an EU-ISP scenario).
    pub fn with_cities(cities: Vec<&'static City>) -> GeoIpDb {
        assert!(!cities.is_empty(), "GeoIpDb needs at least one city");
        assert!(cities.len() < UNASSIGNED as usize, "city index fits u16");
        // Population-proportional quota per city, at least 1 block.
        let total_pop: f64 = cities.iter().map(|c| c.population_m).sum();
        let usable_blocks: Vec<u16> = (0u16..=u16::MAX)
            .filter(|&b| {
                let hi = (b >> 8) as u8;
                (1..224).contains(&hi) && hi != 10 && hi != 127 && hi != 0
            })
            .collect();
        let mut quotas: Vec<usize> = cities
            .iter()
            .map(|c| ((c.population_m / total_pop) * usable_blocks.len() as f64).floor() as usize)
            .map(|q| q.max(1))
            .collect();
        // Trim any overshoot from the largest quota.
        let mut total: usize = quotas.iter().sum();
        while total > usable_blocks.len() {
            let (imax, _) = quotas
                .iter()
                .enumerate()
                .max_by_key(|(_, &q)| q)
                .expect("non-empty");
            quotas[imax] -= 1;
            total -= 1;
        }

        // Deal blocks city-by-city in deterministic order, then scatter
        // the assignment with a fixed multiplicative permutation so
        // adjacent prefixes do not all map to one metro.
        let mut sequence: Vec<usize> = Vec::with_capacity(total);
        for (city_idx, &q) in quotas.iter().enumerate() {
            sequence.extend(std::iter::repeat_n(city_idx, q));
        }
        let n = usable_blocks.len();
        let mut owner = vec![UNASSIGNED; 1 << 16];
        for (i, &city_idx) in sequence.iter().enumerate() {
            // 40503 is odd and coprime with any power of two; combined
            // with mod n it spreads the schedule pseudo-uniformly.
            let slot = (i.wrapping_mul(40503)) % n;
            // Linear-probe to the next unassigned block.
            let mut s = slot;
            while owner[usable_blocks[s] as usize] != UNASSIGNED {
                s = (s + 1) % n;
            }
            owner[usable_blocks[s] as usize] = city_idx as u16;
        }
        // Ascending pass: the first block seen for a city is its lowest.
        let mut first_block = vec![None; cities.len()];
        for (block, &city_idx) in owner.iter().enumerate() {
            if city_idx != UNASSIGNED {
                first_block[city_idx as usize].get_or_insert(block as u16);
            }
        }
        GeoIpDb {
            owner,
            first_block,
            cities,
        }
    }

    /// Number of assigned /16 blocks.
    pub fn len(&self) -> usize {
        self.owner.iter().filter(|&&ci| ci != UNASSIGNED).count()
    }

    /// True if the database is empty (never the case for constructors).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up an address; `None` for unassigned space (private ranges,
    /// multicast, etc.).
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<Location> {
        let city = self
            .cities
            .get(self.owner[(u32::from(addr) >> 16) as usize] as usize)?;
        Some(Location {
            city: city.name,
            country: city.country,
            coord: city.coord,
        })
    }

    /// Great-circle distance in miles between two addresses' cities;
    /// `None` if either is unassigned.
    pub fn distance_miles(&self, a: Ipv4Addr, b: Ipv4Addr) -> Option<f64> {
        let la = self.lookup(a)?;
        let lb = self.lookup(b)?;
        Some(la.coord.distance_miles(&lb.coord))
    }

    /// Classifies the relationship between two addresses (paper §3.3's
    /// GeoIP-based metro/national/international rule); `None` if either is
    /// unassigned.
    pub fn relation(&self, a: Ipv4Addr, b: Ipv4Addr) -> Option<GeoRelation> {
        let la = self.lookup(a)?;
        let lb = self.lookup(b)?;
        Some(if la.city == lb.city {
            GeoRelation::SameCity
        } else if la.country == lb.country {
            GeoRelation::SameCountry
        } else {
            GeoRelation::International
        })
    }

    /// An address guaranteed to geolocate to the given city (host `.0.1`
    /// of its lowest /16 block); useful for constructing test traffic.
    pub fn representative_addr(&self, city_name: &str) -> Option<Ipv4Addr> {
        let city_idx = self.cities.iter().position(|c| c.name == city_name)?;
        let b = self.first_block[city_idx]?;
        Some(Ipv4Addr::from((b as u32) << 16 | 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_db_is_deterministic() {
        let a = GeoIpDb::world();
        let b = GeoIpDb::world();
        let addr = Ipv4Addr::new(8, 8, 8, 8);
        assert_eq!(a.lookup(addr), b.lookup(addr));
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn private_and_multicast_space_unassigned() {
        let db = GeoIpDb::world();
        assert!(db.lookup(Ipv4Addr::new(10, 1, 2, 3)).is_none());
        assert!(db.lookup(Ipv4Addr::new(127, 0, 0, 1)).is_none());
        assert!(db.lookup(Ipv4Addr::new(224, 0, 0, 1)).is_none());
        assert!(db.lookup(Ipv4Addr::new(0, 1, 2, 3)).is_none());
        assert!(db.lookup(Ipv4Addr::new(255, 255, 255, 255)).is_none());
    }

    #[test]
    fn public_space_is_fully_assigned() {
        let db = GeoIpDb::world();
        for addr in [
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(8, 8, 8, 8),
            Ipv4Addr::new(93, 184, 216, 34),
            Ipv4Addr::new(203, 0, 113, 7),
        ] {
            assert!(db.lookup(addr).is_some(), "{addr} unassigned");
        }
    }

    #[test]
    fn same_slash16_maps_to_same_city() {
        let db = GeoIpDb::world();
        let a = db.lookup(Ipv4Addr::new(93, 184, 1, 1)).unwrap();
        let b = db.lookup(Ipv4Addr::new(93, 184, 250, 9)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn population_weights_block_counts() {
        let db = GeoIpDb::world();
        let count_for = |name: &str| {
            let idx = db.cities.iter().position(|c| c.name == name).unwrap();
            db.owner.iter().filter(|&&ci| ci as usize == idx).count()
        };
        // Tokyo (37M) must own far more space than Zurich (1.4M).
        assert!(count_for("Tokyo") > 10 * count_for("Zurich"));
    }

    #[test]
    fn representative_addr_geolocates_correctly() {
        let db = GeoIpDb::world();
        for name in ["Tokyo", "London", "New York", "Zurich"] {
            let addr = db.representative_addr(name).unwrap();
            assert_eq!(db.lookup(addr).unwrap().city, name);
        }
        assert!(db.representative_addr("Atlantis").is_none());
    }

    #[test]
    fn representative_addr_is_the_lowest_block_of_its_city() {
        let europe: Vec<&'static City> = crate::cities::EUROPE.iter().collect();
        for (db, cities, outsider) in [
            (GeoIpDb::world(), all_cities(), "Atlantis"),
            (GeoIpDb::with_cities(europe.clone()), europe, "Tokyo"),
        ] {
            // Brute force over all 65 536 /16 blocks, ascending.
            let mut lowest = std::collections::HashMap::new();
            for block in 0..=u16::MAX as u32 {
                if let Some(loc) = db.lookup(Ipv4Addr::from(block << 16)) {
                    lowest.entry(loc.city).or_insert(block);
                }
            }
            assert_eq!(lowest.len(), cities.len(), "every city owns a block");
            for city in &cities {
                let expected = Ipv4Addr::from(lowest[city.name] << 16 | 1);
                let got = db.representative_addr(city.name);
                assert_eq!(got, Some(expected), "{}", city.name);
            }
            assert!(db.representative_addr(outsider).is_none());
        }
    }

    #[test]
    fn relation_classification() {
        let db = GeoIpDb::world();
        let tokyo = db.representative_addr("Tokyo").unwrap();
        let osaka = db.representative_addr("Osaka").unwrap();
        let london = db.representative_addr("London").unwrap();
        assert_eq!(db.relation(tokyo, tokyo), Some(GeoRelation::SameCity));
        assert_eq!(db.relation(tokyo, osaka), Some(GeoRelation::SameCountry));
        assert_eq!(db.relation(tokyo, london), Some(GeoRelation::International));
    }

    #[test]
    fn distance_consistent_with_city_table() {
        let db = GeoIpDb::world();
        let fra = db.representative_addr("Frankfurt").unwrap();
        let tyo = db.representative_addr("Tokyo").unwrap();
        let d = db.distance_miles(fra, tyo).unwrap();
        assert!((d - 5800.0).abs() < 120.0);
    }

    #[test]
    fn restricted_db_only_maps_to_its_cities() {
        let db = GeoIpDb::with_cities(crate::cities::EUROPE.iter().collect());
        for b in [1u8, 50, 100, 200] {
            if let Some(loc) = db.lookup(Ipv4Addr::new(b, 10, 0, 1)) {
                assert!(
                    crate::cities::EUROPE.iter().any(|c| c.name == loc.city),
                    "{} not European",
                    loc.city
                );
            }
        }
    }
}
