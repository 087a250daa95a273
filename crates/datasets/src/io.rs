//! Flow-set serialization: CSV import/export.
//!
//! Lets operators run the analysis on their own traffic: export a
//! synthetic dataset to eyeball it, or load a measured `(demand_mbps,
//! distance_miles[, region])` table produced by any flow pipeline. The
//! format is a plain header + rows CSV (no quoting needed — all fields
//! are numeric or bare keywords), written/read with std only.

use std::io::{BufRead, BufWriter, Write};

use transit_core::flow::{Region, TrafficFlow};

/// CSV parse/serialize failures.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line (1-indexed, counting the header as line 1).
    BadLine {
        /// The offending line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "I/O error: {e}"),
            CsvError::BadLine { line, reason } => write!(f, "line {line}: {reason}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> CsvError {
        CsvError::Io(e)
    }
}

/// The header written and expected.
pub const CSV_HEADER: &str = "flow_id,demand_mbps,distance_miles,region";

fn region_label(region: Region) -> &'static str {
    match region {
        Region::Metro => "metro",
        Region::National => "national",
        Region::International => "international",
    }
}

fn parse_region(s: &str) -> Option<Region> {
    match s {
        "metro" => Some(Region::Metro),
        "national" => Some(Region::National),
        "international" => Some(Region::International),
        _ => None,
    }
}

/// Writes flows as CSV.
pub fn write_flows_csv<W: Write>(flows: &[TrafficFlow], writer: W) -> Result<(), CsvError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "{CSV_HEADER}")?;
    for f in flows {
        writeln!(
            w,
            "{},{},{},{}",
            f.id.0,
            f.demand_mbps,
            f.distance_miles,
            region_label(f.region)
        )?;
    }
    w.flush()?;
    Ok(())
}

/// Reads flows from CSV. The `region` column is optional; when absent,
/// regions derive from the paper's distance-threshold rule.
pub fn read_flows_csv<R: BufRead>(reader: R) -> Result<Vec<TrafficFlow>, CsvError> {
    let mut flows = Vec::new();
    let mut lines = reader.lines().enumerate();

    // Header.
    let Some((_, header)) = lines.next() else {
        return Err(CsvError::BadLine {
            line: 1,
            reason: "empty input (missing header)".into(),
        });
    };
    let header = header?;
    let has_region = match header.trim() {
        h if h == CSV_HEADER => true,
        "flow_id,demand_mbps,distance_miles" => false,
        other => {
            return Err(CsvError::BadLine {
                line: 1,
                reason: format!("unexpected header {other:?}"),
            })
        }
    };

    for (i, line) in lines {
        let line = line?;
        let line_no = i + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let fields: Vec<&str> = trimmed.split(',').collect();
        let expected = if has_region { 4 } else { 3 };
        if fields.len() != expected {
            return Err(CsvError::BadLine {
                line: line_no,
                reason: format!("expected {expected} fields, got {}", fields.len()),
            });
        }
        let id: u32 = fields[0].parse().map_err(|_| CsvError::BadLine {
            line: line_no,
            reason: format!("bad flow_id {:?}", fields[0]),
        })?;
        let demand: f64 = fields[1].parse().map_err(|_| CsvError::BadLine {
            line: line_no,
            reason: format!("bad demand_mbps {:?}", fields[1]),
        })?;
        let distance: f64 = fields[2].parse().map_err(|_| CsvError::BadLine {
            line: line_no,
            reason: format!("bad distance_miles {:?}", fields[2]),
        })?;
        let mut flow = TrafficFlow::new(id, demand, distance);
        if has_region {
            let region = parse_region(fields[3]).ok_or_else(|| CsvError::BadLine {
                line: line_no,
                reason: format!("bad region {:?}", fields[3]),
            })?;
            flow = flow.with_region(region);
        }
        flows.push(flow);
    }
    Ok(flows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;
    use crate::spec::Network;

    #[test]
    fn roundtrip_preserves_flows() {
        let flows = generate(Network::EuIsp, 50, 3).flows;
        let mut buf = Vec::new();
        write_flows_csv(&flows, &mut buf).unwrap();
        let parsed = read_flows_csv(&buf[..]).unwrap();
        assert_eq!(parsed.len(), flows.len());
        for (a, b) in flows.iter().zip(&parsed) {
            assert_eq!(a.id, b.id);
            assert!((a.demand_mbps - b.demand_mbps).abs() < 1e-9 * a.demand_mbps.abs());
            assert!((a.distance_miles - b.distance_miles).abs() < 1e-9 * a.distance_miles);
            assert_eq!(a.region, b.region);
        }
    }

    #[test]
    fn reads_region_free_csv_with_derived_regions() {
        let csv = "flow_id,demand_mbps,distance_miles\n0,10.5,5\n1,2,500\n";
        let flows = read_flows_csv(csv.as_bytes()).unwrap();
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[0].region, Region::Metro);
        assert_eq!(flows[1].region, Region::International);
    }

    #[test]
    fn skips_blank_lines() {
        let csv = "flow_id,demand_mbps,distance_miles\n\n0,1,1\n\n";
        assert_eq!(read_flows_csv(csv.as_bytes()).unwrap().len(), 1);
    }

    #[test]
    fn rejects_malformed_input_with_line_numbers() {
        let cases = [
            ("", "missing header"),
            ("bogus,header\n", "unexpected header"),
            (
                "flow_id,demand_mbps,distance_miles\n0,1\n",
                "expected 3 fields",
            ),
            ("flow_id,demand_mbps,distance_miles\nx,1,1\n", "bad flow_id"),
            (
                "flow_id,demand_mbps,distance_miles\n0,zzz,1\n",
                "bad demand",
            ),
            (
                "flow_id,demand_mbps,distance_miles,region\n0,1,1,mars\n",
                "bad region",
            ),
        ];
        for (input, needle) in cases {
            let err = read_flows_csv(input.as_bytes()).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{input:?}: {err} missing {needle:?}"
            );
        }
    }

    #[test]
    fn error_reports_correct_line() {
        let csv = "flow_id,demand_mbps,distance_miles\n0,1,1\n1,bad,1\n";
        match read_flows_csv(csv.as_bytes()).unwrap_err() {
            CsvError::BadLine { line, .. } => assert_eq!(line, 3),
            other => panic!("expected BadLine, got {other:?}"),
        }
    }
}
