//! Traffic flows: the observable unit of demand in the transit market.
//!
//! A [`TrafficFlow`] is what the paper extracts from 24 hours of sampled
//! NetFlow data (§4.1.1): an aggregate source/destination demand together
//! with the distance the traffic travels inside (or beyond) the ISP's
//! network. The demand/cost models in this crate consume nothing else —
//! which is precisely what makes the paper's methodology reproducible from
//! synthetic data calibrated to the published marginals (Table 1).

use serde::{Deserialize, Serialize};

use crate::error::{Result, TransitError};

/// Opaque identifier for a flow within one dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowId(pub u32);

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flow#{}", self.0)
    }
}

/// Geographic scope of a flow, used by the regional cost model (§3.3).
///
/// The paper classifies flows via GeoIP (same city → metro, same country →
/// national, otherwise international); for the EU ISP, which only exposes
/// entry/exit distances, it falls back to distance thresholds (<10 mi metro,
/// <100 mi national). [`Region::from_distance_miles`] implements that
/// fallback rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Region {
    /// Traffic that originates and terminates in the same metropolitan area.
    Metro,
    /// Traffic that stays within one country.
    National,
    /// Traffic that crosses national boundaries.
    International,
}

impl Region {
    /// The paper's distance-threshold fallback used for the EU ISP dataset
    /// (§3.3): `< 10` miles → metro, `< 100` miles → national, otherwise
    /// international.
    pub fn from_distance_miles(distance: f64) -> Region {
        if distance < 10.0 {
            Region::Metro
        } else if distance < 100.0 {
            Region::National
        } else {
            Region::International
        }
    }

    /// Relative cost rank used by the regional cost model: metro=1,
    /// national=2, international=3 (the `k` in `c = gamma * k^theta`).
    pub fn cost_rank(self) -> u8 {
        match self {
            Region::Metro => 1,
            Region::National => 2,
            Region::International => 3,
        }
    }
}

/// Whether traffic terminates at one of the ISP's own customers ("on net")
/// or must be handed to a peer/provider ("off net"); §2.1 and the
/// destination-type cost model of §3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DestClass {
    /// Destination is a customer of the ISP; the ISP is paid on both ends,
    /// so the modeled unit cost is halved relative to off-net traffic.
    OnNet,
    /// Destination is reached via a peer or upstream; modeled as twice the
    /// unit cost of on-net traffic.
    OffNet,
}

impl DestClass {
    /// Cost multiplier relative to on-net traffic (§3.3: off-net is "twice
    /// as costly").
    pub fn cost_multiplier(self) -> f64 {
        match self {
            DestClass::OnNet => 1.0,
            DestClass::OffNet => 2.0,
        }
    }
}

/// One aggregated traffic flow: the model's atomic unit of demand.
///
/// `demand_mbps` is the observed consumption `q_i` at the ISP's current
/// blended rate `P0`; `distance_miles` is the distance proxy `d_i` the cost
/// models map to a relative delivery cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficFlow {
    /// Identifier, unique within a dataset.
    pub id: FlowId,
    /// Observed demand at the current blended rate, in Mbps.
    pub demand_mbps: f64,
    /// Distance the flow travels, in miles (entry→exit geographic distance
    /// for a transit ISP, GeoIP distance for a CDN, or summed link lengths
    /// for a multi-hop research network — §4.1.1).
    pub distance_miles: f64,
    /// Geographic scope for the regional cost model.
    pub region: Region,
    /// On-net/off-net class for the destination-type cost model.
    pub dest_class: DestClass,
}

impl TrafficFlow {
    /// Builds a flow, deriving [`Region`] from the distance-threshold rule
    /// and defaulting to [`DestClass::OffNet`] (transit traffic).
    pub fn new(id: u32, demand_mbps: f64, distance_miles: f64) -> TrafficFlow {
        TrafficFlow {
            id: FlowId(id),
            demand_mbps,
            distance_miles,
            region: Region::from_distance_miles(distance_miles),
            dest_class: DestClass::OffNet,
        }
    }

    /// Sets an explicit region (e.g. from a GeoIP lookup) instead of the
    /// distance-threshold fallback.
    pub fn with_region(mut self, region: Region) -> TrafficFlow {
        self.region = region;
        self
    }

    /// Sets the destination class.
    pub fn with_dest_class(mut self, class: DestClass) -> TrafficFlow {
        self.dest_class = class;
        self
    }

    /// Checks the flow is usable by the models: demand and distance must be
    /// finite and strictly positive (zero-demand flows carry no information
    /// and break the CED valuation fit, which takes `q^(1/alpha)`).
    pub fn validate(&self, index: usize) -> Result<()> {
        if !(self.demand_mbps.is_finite() && self.demand_mbps > 0.0) {
            return Err(TransitError::InvalidFlow {
                index,
                reason: "demand must be finite and > 0 Mbps",
            });
        }
        if !(self.distance_miles.is_finite() && self.distance_miles > 0.0) {
            return Err(TransitError::InvalidFlow {
                index,
                reason: "distance must be finite and > 0 miles",
            });
        }
        Ok(())
    }
}

/// Validates a whole flow set: non-empty and every flow individually valid.
pub fn validate_flows(flows: &[TrafficFlow]) -> Result<()> {
    if flows.is_empty() {
        return Err(TransitError::EmptyFlowSet);
    }
    for (i, f) in flows.iter().enumerate() {
        f.validate(i)?;
    }
    Ok(())
}

/// Splits every flow into an on-net part carrying `theta` of its demand and
/// an off-net part carrying the rest, as required by the destination-type
/// cost model (§3.3: "theta indicates a fraction of traffic at each distance
/// that is destined to clients").
///
/// Flow ids are preserved on the on-net half; off-net halves get ids offset
/// by the original flow count so the mapping back is trivial. Parts with
/// zero demand (theta of 0 or 1) are dropped.
pub fn split_by_dest_class(flows: &[TrafficFlow], theta: f64) -> Result<Vec<TrafficFlow>> {
    if !(0.0..=1.0).contains(&theta) {
        return Err(TransitError::InvalidParameter {
            name: "theta",
            value: theta,
            expected: "a fraction in [0, 1]",
        });
    }
    let n = flows.len() as u32;
    let mut out = Vec::with_capacity(flows.len() * 2);
    for f in flows {
        let on = f.demand_mbps * theta;
        let off = f.demand_mbps * (1.0 - theta);
        if on > 0.0 {
            out.push(TrafficFlow {
                demand_mbps: on,
                dest_class: DestClass::OnNet,
                ..f.clone()
            });
        }
        if off > 0.0 {
            out.push(TrafficFlow {
                id: FlowId(f.id.0 + n),
                demand_mbps: off,
                dest_class: DestClass::OffNet,
                ..f.clone()
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_thresholds_match_paper() {
        assert_eq!(Region::from_distance_miles(5.0), Region::Metro);
        assert_eq!(Region::from_distance_miles(9.99), Region::Metro);
        assert_eq!(Region::from_distance_miles(10.0), Region::National);
        assert_eq!(Region::from_distance_miles(99.9), Region::National);
        assert_eq!(Region::from_distance_miles(100.0), Region::International);
        assert_eq!(Region::from_distance_miles(5000.0), Region::International);
    }

    #[test]
    fn region_cost_ranks() {
        assert_eq!(Region::Metro.cost_rank(), 1);
        assert_eq!(Region::National.cost_rank(), 2);
        assert_eq!(Region::International.cost_rank(), 3);
    }

    #[test]
    fn dest_class_multiplier_doubles_off_net() {
        assert_eq!(DestClass::OnNet.cost_multiplier(), 1.0);
        assert_eq!(DestClass::OffNet.cost_multiplier(), 2.0);
    }

    #[test]
    fn new_flow_derives_region() {
        let f = TrafficFlow::new(0, 10.0, 50.0);
        assert_eq!(f.region, Region::National);
        assert_eq!(f.dest_class, DestClass::OffNet);
    }

    #[test]
    fn validate_rejects_bad_demand_and_distance() {
        assert!(TrafficFlow::new(0, 0.0, 10.0).validate(0).is_err());
        assert!(TrafficFlow::new(0, -3.0, 10.0).validate(0).is_err());
        assert!(TrafficFlow::new(0, f64::NAN, 10.0).validate(0).is_err());
        assert!(TrafficFlow::new(0, 1.0, 0.0).validate(0).is_err());
        assert!(TrafficFlow::new(0, 1.0, f64::INFINITY).validate(0).is_err());
        assert!(TrafficFlow::new(0, 1.0, 10.0).validate(0).is_ok());
    }

    #[test]
    fn validate_flows_rejects_empty() {
        assert_eq!(validate_flows(&[]), Err(TransitError::EmptyFlowSet));
    }

    #[test]
    fn validate_flows_reports_index() {
        let flows = vec![
            TrafficFlow::new(0, 1.0, 10.0),
            TrafficFlow::new(1, -1.0, 10.0),
        ];
        match validate_flows(&flows) {
            Err(TransitError::InvalidFlow { index, .. }) => assert_eq!(index, 1),
            other => panic!("expected InvalidFlow, got {other:?}"),
        }
    }

    #[test]
    fn split_by_dest_class_preserves_total_demand() {
        let flows = vec![
            TrafficFlow::new(0, 10.0, 5.0),
            TrafficFlow::new(1, 4.0, 500.0),
        ];
        let split = split_by_dest_class(&flows, 0.3).unwrap();
        assert_eq!(split.len(), 4);
        let total: f64 = split.iter().map(|f| f.demand_mbps).sum();
        assert!((total - 14.0).abs() < 1e-12);
        // On-net halves keep ids, off-net halves offset by n=2.
        assert_eq!(split[0].id, FlowId(0));
        assert_eq!(split[0].dest_class, DestClass::OnNet);
        assert_eq!(split[1].id, FlowId(2));
        assert_eq!(split[1].dest_class, DestClass::OffNet);
    }

    #[test]
    fn split_by_dest_class_drops_empty_parts() {
        let flows = vec![TrafficFlow::new(0, 10.0, 5.0)];
        let all_off = split_by_dest_class(&flows, 0.0).unwrap();
        assert_eq!(all_off.len(), 1);
        assert_eq!(all_off[0].dest_class, DestClass::OffNet);
        let all_on = split_by_dest_class(&flows, 1.0).unwrap();
        assert_eq!(all_on.len(), 1);
        assert_eq!(all_on[0].dest_class, DestClass::OnNet);
    }

    #[test]
    fn split_by_dest_class_rejects_bad_theta() {
        let flows = vec![TrafficFlow::new(0, 10.0, 5.0)];
        assert!(split_by_dest_class(&flows, -0.1).is_err());
        assert!(split_by_dest_class(&flows, 1.1).is_err());
    }
}
