//! Corpus serialization: scenarios as committed JSON regression cases.
//!
//! A corpus file is one scenario plus provenance (the divergence it once
//! produced, the seed that found it). Encoding goes through the
//! [`serde::Content`] data model and is rendered by the shared
//! canonical-JSON emitter ([`transit_stage::canon`]) — the same exact
//! f64-roundtrip form the artifact store fingerprints with, so there is
//! exactly one canonical byte encoding in the workspace. Decoding walks
//! [`serde_json::Value`] by hand because the vendored serde has no
//! typed deserialization. `f64` values round-trip exactly through the
//! JSON layer, so a replayed scenario is bit-for-bit the one that was
//! committed.

use serde::Content;
use serde_json::Value;
use transit_stage::canon::{map, to_canonical_pretty};

use crate::faults::Fault;
use crate::scenario::{DemandSpec, Family, IngestScenario, MarketSpec, Scenario};

/// A committed regression case: a scenario and why it exists.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusCase {
    /// Short kebab-case identifier (also the file stem).
    pub name: String,
    /// What this case regression-tests.
    pub note: String,
    /// The scenario to replay.
    pub scenario: Scenario,
}

/// Errors reading a corpus file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorpusError {
    /// The file is not valid JSON.
    Json(String),
    /// The JSON does not describe a scenario (missing/ill-typed field).
    Schema(&'static str),
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusError::Json(e) => write!(f, "invalid JSON: {e}"),
            CorpusError::Schema(what) => write!(f, "invalid corpus schema: {what}"),
        }
    }
}

impl std::error::Error for CorpusError {}

fn pairs_content(pairs: &[(f64, f64)]) -> Content {
    Content::Seq(
        pairs
            .iter()
            .map(|&(q, d)| Content::Seq(vec![Content::F64(q), Content::F64(d)]))
            .collect(),
    )
}

fn market_content(m: &MarketSpec) -> Content {
    map(vec![
        ("demand", Content::Str(m.demand.name().to_string())),
        ("alpha", Content::F64(m.alpha)),
        ("max_bundles", Content::U64(m.max_bundles as u64)),
        ("flows", pairs_content(&m.flows)),
    ])
}

fn fault_content(fault: &Fault) -> Content {
    let mut fields = vec![("kind", Content::Str(fault.name().to_string()))];
    match *fault {
        Fault::Drop { index } | Fault::Duplicate { index } => {
            fields.push(("index", Content::U64(index as u64)));
        }
        Fault::Swap { a, b } => {
            fields.push(("a", Content::U64(a as u64)));
            fields.push(("b", Content::U64(b as u64)));
        }
        Fault::Truncate { index, keep } => {
            fields.push(("index", Content::U64(index as u64)));
            fields.push(("keep", Content::U64(keep as u64)));
        }
        Fault::Corrupt { index, offset, xor } => {
            fields.push(("index", Content::U64(index as u64)));
            fields.push(("offset", Content::U64(offset as u64)));
            fields.push(("xor", Content::U64(xor as u64)));
        }
    }
    map(fields)
}

fn scenario_content(s: &Scenario) -> Content {
    let body = match s {
        Scenario::Coalesce {
            market,
            epsilon,
            replication,
            jitter,
        } => map(vec![
            ("market", market_content(market)),
            ("epsilon", Content::F64(*epsilon)),
            ("replication", Content::U64(*replication as u64)),
            ("jitter", Content::F64(*jitter)),
        ]),
        Scenario::TiledDp { flows, max_bundles } => map(vec![
            ("flows", pairs_content(flows)),
            ("max_bundles", Content::U64(*max_bundles as u64)),
        ]),
        Scenario::Series { market } => map(vec![("market", market_content(market))]),
        Scenario::Ingest(i) => map(vec![
            ("n_flows", Content::U64(i.n_flows as u64)),
            ("n_routers", Content::U64(i.n_routers as u64)),
            ("sampling_rate", Content::U64(i.sampling_rate as u64)),
            ("packets_per_flow", Content::U64(i.packets_per_flow)),
            ("packet_bytes", Content::U64(i.packet_bytes as u64)),
            ("seq_base", Content::U64(i.seq_base as u64)),
            (
                "faults",
                Content::Seq(i.faults.iter().map(fault_content).collect()),
            ),
        ]),
    };
    map(vec![
        ("family", Content::Str(s.family().name().to_string())),
        ("scenario", body),
    ])
}

/// Renders a corpus case as canonical pretty JSON (the committed file
/// format): map keys sorted, floats exact-roundtrip.
pub fn to_json(case: &CorpusCase) -> String {
    let content = map(vec![
        ("name", Content::Str(case.name.clone())),
        ("note", Content::Str(case.note.clone())),
        (
            "family",
            Content::Str(case.scenario.family().name().to_string()),
        ),
        ("scenario", scenario_content(&case.scenario)),
    ]);
    to_canonical_pretty(&content)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn get_f64(v: &Value, key: &str, what: &'static str) -> Result<f64, CorpusError> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or(CorpusError::Schema(what))
}

fn get_usize(v: &Value, key: &str, what: &'static str) -> Result<usize, CorpusError> {
    let f = get_f64(v, key, what)?;
    if f < 0.0 || f.fract() != 0.0 {
        return Err(CorpusError::Schema(what));
    }
    Ok(f as usize)
}

fn get_str<'a>(v: &'a Value, key: &str, what: &'static str) -> Result<&'a str, CorpusError> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or(CorpusError::Schema(what))
}

fn parse_pairs(v: &Value, key: &str, what: &'static str) -> Result<Vec<(f64, f64)>, CorpusError> {
    let arr = v
        .get(key)
        .and_then(Value::as_array)
        .ok_or(CorpusError::Schema(what))?;
    let mut pairs = Vec::with_capacity(arr.len());
    for entry in arr {
        let pair = entry.as_array().ok_or(CorpusError::Schema(what))?;
        if pair.len() != 2 {
            return Err(CorpusError::Schema(what));
        }
        let q = pair[0].as_f64().ok_or(CorpusError::Schema(what))?;
        let d = pair[1].as_f64().ok_or(CorpusError::Schema(what))?;
        pairs.push((q, d));
    }
    Ok(pairs)
}

fn parse_market(v: &Value) -> Result<MarketSpec, CorpusError> {
    let demand = DemandSpec::parse(get_str(v, "demand", "market.demand")?)
        .ok_or(CorpusError::Schema("market.demand"))?;
    Ok(MarketSpec {
        demand,
        alpha: get_f64(v, "alpha", "market.alpha")?,
        max_bundles: get_usize(v, "max_bundles", "market.max_bundles")?,
        flows: parse_pairs(v, "flows", "market.flows")?,
    })
}

fn parse_fault(v: &Value) -> Result<Fault, CorpusError> {
    match get_str(v, "kind", "fault.kind")? {
        "drop" => Ok(Fault::Drop {
            index: get_usize(v, "index", "fault.index")?,
        }),
        "duplicate" => Ok(Fault::Duplicate {
            index: get_usize(v, "index", "fault.index")?,
        }),
        "swap" => Ok(Fault::Swap {
            a: get_usize(v, "a", "fault.a")?,
            b: get_usize(v, "b", "fault.b")?,
        }),
        "truncate" => Ok(Fault::Truncate {
            index: get_usize(v, "index", "fault.index")?,
            keep: get_usize(v, "keep", "fault.keep")?,
        }),
        "corrupt" => Ok(Fault::Corrupt {
            index: get_usize(v, "index", "fault.index")?,
            offset: get_usize(v, "offset", "fault.offset")?,
            xor: get_usize(v, "xor", "fault.xor")? as u8,
        }),
        _ => Err(CorpusError::Schema("fault.kind")),
    }
}

fn parse_scenario(family: Family, v: &Value) -> Result<Scenario, CorpusError> {
    match family {
        Family::Coalesce => Ok(Scenario::Coalesce {
            market: parse_market(v.get("market").ok_or(CorpusError::Schema("market"))?)?,
            epsilon: get_f64(v, "epsilon", "epsilon")?,
            replication: get_usize(v, "replication", "replication")?,
            jitter: get_f64(v, "jitter", "jitter")?,
        }),
        Family::TiledDp => Ok(Scenario::TiledDp {
            flows: parse_pairs(v, "flows", "flows")?,
            max_bundles: get_usize(v, "max_bundles", "max_bundles")?,
        }),
        Family::Series => Ok(Scenario::Series {
            market: parse_market(v.get("market").ok_or(CorpusError::Schema("market"))?)?,
        }),
        Family::Ingest => {
            let fault_values = v
                .get("faults")
                .and_then(Value::as_array)
                .ok_or(CorpusError::Schema("faults"))?;
            let mut faults = Vec::with_capacity(fault_values.len());
            for fv in fault_values {
                faults.push(parse_fault(fv)?);
            }
            Ok(Scenario::Ingest(IngestScenario {
                n_flows: get_usize(v, "n_flows", "n_flows")?,
                n_routers: get_usize(v, "n_routers", "n_routers")?,
                sampling_rate: get_usize(v, "sampling_rate", "sampling_rate")? as u32,
                packets_per_flow: get_usize(v, "packets_per_flow", "packets_per_flow")? as u64,
                packet_bytes: get_usize(v, "packet_bytes", "packet_bytes")? as u32,
                seq_base: get_usize(v, "seq_base", "seq_base")? as u32,
                faults,
            }))
        }
    }
}

/// Parses a corpus JSON document back into a [`CorpusCase`].
pub fn from_json(text: &str) -> Result<CorpusCase, CorpusError> {
    let value: Value =
        serde_json::from_str(text).map_err(|e| CorpusError::Json(format!("{e:?}")))?;
    let family =
        Family::parse(get_str(&value, "family", "family")?).ok_or(CorpusError::Schema("family"))?;
    let scenario_value = value
        .get("scenario")
        .ok_or(CorpusError::Schema("scenario"))?;
    let inner_family = Family::parse(get_str(scenario_value, "family", "scenario.family")?)
        .ok_or(CorpusError::Schema("scenario.family"))?;
    if inner_family != family {
        return Err(CorpusError::Schema("family mismatch"));
    }
    let body = scenario_value
        .get("scenario")
        .ok_or(CorpusError::Schema("scenario body"))?;
    Ok(CorpusCase {
        name: get_str(&value, "name", "name")?.to_string(),
        note: get_str(&value, "note", "note")?.to_string(),
        scenario: parse_scenario(family, body)?,
    })
}

/// Loads every `*.json` case in `dir`, sorted by file name. Each entry
/// carries its own parse result so a replay harness can report *which*
/// committed case rotted instead of aborting on the first.
pub fn load_dir(
    dir: &std::path::Path,
) -> std::io::Result<Vec<(std::path::PathBuf, Result<CorpusCase, CorpusError>)>> {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    let mut cases = Vec::with_capacity(paths.len());
    for path in paths {
        let parsed = match std::fs::read_to_string(&path) {
            Ok(text) => from_json(&text),
            Err(e) => Err(CorpusError::Json(format!("unreadable: {e}"))),
        };
        cases.push((path, parsed));
    }
    Ok(cases)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_roundtrips_exactly() {
        for family in Family::ALL {
            for seed in 0..25u64 {
                let case = CorpusCase {
                    name: format!("{}-{seed}", family.name()),
                    note: "roundtrip".to_string(),
                    scenario: Scenario::generate(family, seed),
                };
                let json = to_json(&case);
                let back = from_json(&json)
                    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}\n{json}", family.name()));
                assert_eq!(back, case, "{} seed {seed}", family.name());
            }
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(matches!(from_json("not json"), Err(CorpusError::Json(_))));
        assert!(matches!(
            from_json("{\"name\": \"x\"}"),
            Err(CorpusError::Schema(_))
        ));
        let mismatched = "{\"name\":\"x\",\"note\":\"y\",\"family\":\"series\",\
            \"scenario\":{\"family\":\"ingest\",\"scenario\":{}}}";
        assert_eq!(
            from_json(mismatched),
            Err(CorpusError::Schema("family mismatch"))
        );
    }
}
