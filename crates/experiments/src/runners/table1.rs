//! Table 1: dataset characteristics, paper targets vs our synthetic
//! measurements.

use transit_datasets::Network;

use crate::config::ExperimentConfig;
use crate::output::{ExperimentResult, TableOut};
use crate::stages::{decode_row, stage_error, Assembler, Requests, Table1RowStage};

/// Regenerates Table 1 from the synthetic datasets and prints target vs
/// measured for every column.
pub fn table1(req: &mut Requests<'_>, config: &ExperimentConfig) -> Assembler {
    // One `exp.table1row` stage per network over its dataset node. Rows
    // merge back in `Network::ALL` order regardless of `--threads`.
    let nodes: Vec<_> = Network::ALL
        .into_iter()
        .map(|network| {
            let dataset = req.dataset(network, config.n_flows, config.seed);
            req.add(
                format!("table1/{}", network.label()),
                Table1RowStage { network },
                &[dataset],
            )
        })
        .collect();
    let (n_flows, seed) = (config.n_flows, config.seed);
    Box::new(move |outcome| {
        let mut r = ExperimentResult::new("table1", "Data sets used in the evaluation");
        let mut t = TableOut {
            id: "table1".into(),
            title: "Paper targets vs synthetic measurements".into(),
            headers: vec![
                "Data set".into(),
                "Date".into(),
                "w-avg dist (paper)".into(),
                "w-avg dist (ours)".into(),
                "CV dist (paper)".into(),
                "CV dist (ours)".into(),
                "Aggregate Gbps (paper)".into(),
                "Aggregate Gbps (ours)".into(),
                "CV demand (paper)".into(),
                "CV demand (ours)".into(),
            ],
            rows: Vec::new(),
        };
        for &node in &nodes {
            t.rows
                .push(decode_row(outcome.artifact(node).bytes()).map_err(stage_error)?);
        }
        r.notes.push(format!(
            "synthetic datasets with n={n_flows} flows, seed {seed}; aggregate and demand CV are \
             calibrated exactly, distance moments are geography-quantized (see DESIGN.md)"
        ));
        r.tables.push(t);
        Ok(r)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_three_networks_and_matching_calibration() {
        let r = crate::runners::run("table1", &ExperimentConfig::quick())
            .unwrap()
            .unwrap();
        let rows = &r.tables[0].rows;
        assert_eq!(rows.len(), 3);
        for row in rows {
            // Aggregate (paper) vs (ours) agree to the printed precision.
            let paper: f64 = row[6].parse().unwrap();
            let ours: f64 = row[7].parse().unwrap();
            assert!((paper - ours).abs() < 0.11, "{}: {paper} vs {ours}", row[0]);
            // Demand CV matches to two decimals.
            assert_eq!(row[8], row[9], "{} demand CV", row[0]);
        }
    }
}
