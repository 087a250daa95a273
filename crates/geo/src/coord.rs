//! Geographic coordinates and great-circle distance.
//!
//! Every distance in the workspace (flow distances, link lengths) comes
//! from the haversine great-circle formula over WGS-84-ish spherical
//! coordinates, matching the paper's use of "geographical distance between
//! the flow's entry and exit points" (§4.1.1).

use serde::{Deserialize, Serialize};

/// Mean Earth radius in miles (spherical approximation).
pub const EARTH_RADIUS_MILES: f64 = 3958.7613;

/// A latitude/longitude pair in degrees.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Coord {
    /// Latitude in degrees, in `[-90, 90]`.
    pub lat: f64,
    /// Longitude in degrees, in `[-180, 180]`.
    pub lon: f64,
}

impl Coord {
    /// Builds a coordinate; returns `None` if out of range or non-finite.
    pub fn new(lat: f64, lon: f64) -> Option<Coord> {
        if lat.is_finite()
            && lon.is_finite()
            && (-90.0..=90.0).contains(&lat)
            && (-180.0..=180.0).contains(&lon)
        {
            Some(Coord { lat, lon })
        } else {
            None
        }
    }

    /// Great-circle distance to `other` in miles (haversine formula).
    pub fn distance_miles(&self, other: &Coord) -> f64 {
        let lat1 = self.lat.to_radians();
        let lat2 = other.lat.to_radians();
        let dlat = (other.lat - self.lat).to_radians();
        let dlon = (other.lon - self.lon).to_radians();
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        // Clamp guards the asin domain against rounding at antipodes.
        let c = 2.0 * a.sqrt().min(1.0).asin();
        EARTH_RADIUS_MILES * c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nyc() -> Coord {
        Coord::new(40.7128, -74.0060).unwrap()
    }

    fn london() -> Coord {
        Coord::new(51.5074, -0.1278).unwrap()
    }

    #[test]
    fn validation_rejects_out_of_range() {
        assert!(Coord::new(91.0, 0.0).is_none());
        assert!(Coord::new(-91.0, 0.0).is_none());
        assert!(Coord::new(0.0, 181.0).is_none());
        assert!(Coord::new(0.0, -181.0).is_none());
        assert!(Coord::new(f64::NAN, 0.0).is_none());
        assert!(Coord::new(45.0, 90.0).is_some());
    }

    #[test]
    fn distance_to_self_is_zero() {
        assert!(nyc().distance_miles(&nyc()).abs() < 1e-9);
    }

    #[test]
    fn distance_is_symmetric() {
        let d1 = nyc().distance_miles(&london());
        let d2 = london().distance_miles(&nyc());
        assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn nyc_london_matches_known_distance() {
        // Great-circle NYC–London ≈ 3,461 miles.
        let d = nyc().distance_miles(&london());
        assert!((d - 3461.0).abs() < 25.0, "d = {d}");
    }

    #[test]
    fn equator_degree_is_about_69_miles() {
        let a = Coord::new(0.0, 0.0).unwrap();
        let b = Coord::new(0.0, 1.0).unwrap();
        let d = a.distance_miles(&b);
        assert!((d - 69.1).abs() < 0.5, "d = {d}");
    }

    #[test]
    fn antipodes_are_half_circumference() {
        let a = Coord::new(0.0, 0.0).unwrap();
        let b = Coord::new(0.0, 180.0).unwrap();
        let d = a.distance_miles(&b);
        let half = std::f64::consts::PI * EARTH_RADIUS_MILES;
        assert!((d - half).abs() < 1.0);
    }

    #[test]
    fn triangle_inequality_holds() {
        let a = nyc();
        let b = london();
        let c = Coord::new(35.6762, 139.6503).unwrap(); // Tokyo
        let ab = a.distance_miles(&b);
        let bc = b.distance_miles(&c);
        let ac = a.distance_miles(&c);
        assert!(ac <= ab + bc + 1e-6);
    }
}
