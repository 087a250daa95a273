//! Dataset specifications and Table 1 statistics.
//!
//! Table 1 of the paper:
//!
//! | Data set   | Date     | w-avg dist (mi) | CV dist | Aggregate (Gbps) | CV demand |
//! |------------|----------|-----------------|---------|------------------|-----------|
//! | EU ISP     | 11/12/09 | 54              | 0.70    | 37               | 1.71      |
//! | CDN        | 12/02/09 | 1988            | 0.59    | 96               | 2.28      |
//! | Internet 2 | 12/02/09 | 660             | 0.54    | 4                | 4.53      |
//!
//! The synthetic generators target these moments; [`DatasetStats`]
//! recomputes them from generated flows exactly as the paper defines them
//! (demand-weighted average and CV of distances, aggregate demand, CV of
//! per-flow demands).

use serde::Serialize;
use transit_core::flow::TrafficFlow;
use transit_core::stats;

/// Which of the paper's three networks a dataset models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Network {
    /// The European transit ISP.
    EuIsp,
    /// The international CDN.
    Cdn,
    /// The Internet2 research network.
    Internet2,
}

impl Network {
    /// All three, in Table 1 order.
    pub const ALL: [Network; 3] = [Network::EuIsp, Network::Cdn, Network::Internet2];

    /// Display name as in Table 1.
    pub fn label(self) -> &'static str {
        match self {
            Network::EuIsp => "EU ISP",
            Network::Cdn => "CDN",
            Network::Internet2 => "Internet 2",
        }
    }

    /// The Table 1 target row for this network.
    pub fn table1_targets(self) -> Table1Row {
        match self {
            Network::EuIsp => Table1Row {
                network: self,
                date: "11/12/09",
                wavg_distance_miles: 54.0,
                cv_distance: 0.70,
                aggregate_gbps: 37.0,
                cv_demand: 1.71,
            },
            Network::Cdn => Table1Row {
                network: self,
                date: "12/02/09",
                wavg_distance_miles: 1988.0,
                cv_distance: 0.59,
                aggregate_gbps: 96.0,
                cv_demand: 2.28,
            },
            Network::Internet2 => Table1Row {
                network: self,
                date: "12/02/09",
                wavg_distance_miles: 660.0,
                cv_distance: 0.54,
                aggregate_gbps: 4.0,
                cv_demand: 4.53,
            },
        }
    }
}

/// One row of Table 1 (targets or measurements).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Table1Row {
    /// The network.
    pub network: Network,
    /// Capture date as printed in the paper.
    pub date: &'static str,
    /// Demand-weighted average flow distance, miles.
    pub wavg_distance_miles: f64,
    /// Demand-weighted coefficient of variation of flow distances.
    pub cv_distance: f64,
    /// Aggregate traffic, Gbps.
    pub aggregate_gbps: f64,
    /// Coefficient of variation of per-flow demands.
    pub cv_demand: f64,
}

/// Statistics of a generated flow set, computed per Table 1's definitions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DatasetStats {
    /// Number of flows.
    pub n_flows: usize,
    /// Demand-weighted average distance (miles).
    pub wavg_distance_miles: f64,
    /// Demand-weighted CV of distances.
    pub cv_distance: f64,
    /// Aggregate demand (Gbps).
    pub aggregate_gbps: f64,
    /// CV of demands.
    pub cv_demand: f64,
}

impl DatasetStats {
    /// Computes the stats of a flow set. Panics on an empty set.
    pub fn of(flows: &[TrafficFlow]) -> DatasetStats {
        assert!(!flows.is_empty(), "empty flow set");
        let demands: Vec<f64> = flows.iter().map(|f| f.demand_mbps).collect();
        let distances: Vec<f64> = flows.iter().map(|f| f.distance_miles).collect();
        DatasetStats {
            n_flows: flows.len(),
            wavg_distance_miles: stats::weighted_mean(&distances, &demands)
                .expect("non-empty, positive demands"),
            cv_distance: stats::weighted_cv(&distances, &demands).expect("non-degenerate"),
            aggregate_gbps: demands.iter().sum::<f64>() / 1000.0,
            cv_demand: stats::coefficient_of_variation(&demands).expect("non-degenerate"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_targets_match_paper() {
        let eu = Network::EuIsp.table1_targets();
        assert_eq!(eu.wavg_distance_miles, 54.0);
        assert_eq!(eu.cv_distance, 0.70);
        assert_eq!(eu.aggregate_gbps, 37.0);
        assert_eq!(eu.cv_demand, 1.71);

        let cdn = Network::Cdn.table1_targets();
        assert_eq!(cdn.wavg_distance_miles, 1988.0);
        assert_eq!(cdn.aggregate_gbps, 96.0);

        let i2 = Network::Internet2.table1_targets();
        assert_eq!(i2.cv_demand, 4.53);
        assert_eq!(i2.aggregate_gbps, 4.0);
    }

    #[test]
    fn stats_of_uniform_flows() {
        let flows: Vec<TrafficFlow> = (0..10).map(|i| TrafficFlow::new(i, 100.0, 50.0)).collect();
        let s = DatasetStats::of(&flows);
        assert_eq!(s.n_flows, 10);
        assert!((s.wavg_distance_miles - 50.0).abs() < 1e-12);
        assert!(s.cv_distance.abs() < 1e-12);
        assert!((s.aggregate_gbps - 1.0).abs() < 1e-12);
        assert!(s.cv_demand.abs() < 1e-12);
    }

    #[test]
    fn weighted_average_respects_demand() {
        // Heavy short flow dominates the weighted distance.
        let flows = vec![
            TrafficFlow::new(0, 900.0, 10.0),
            TrafficFlow::new(1, 100.0, 1000.0),
        ];
        let s = DatasetStats::of(&flows);
        assert!((s.wavg_distance_miles - (0.9 * 10.0 + 0.1 * 1000.0)).abs() < 1e-9);
    }

    #[test]
    fn labels_match_table1() {
        assert_eq!(Network::EuIsp.label(), "EU ISP");
        assert_eq!(Network::Cdn.label(), "CDN");
        assert_eq!(Network::Internet2.label(), "Internet 2");
    }
}
