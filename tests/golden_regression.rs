//! Golden regression tests for the experiment harness.
//!
//! Serializes `ExperimentResult` for fig8, fig10 and table1 at a fixed
//! seed and asserts:
//!
//! 1. `--threads 1` and `--threads 8` produce **byte-identical** JSON
//!    (the pooled stage executor's determinism contract, end to end);
//! 2. a re-run within the process reproduces the same bytes (no hidden
//!    global state leaks into results);
//! 3. output matches the checked-in golden file `tests/golden/<id>.json`
//!    to 1e-9 on every number and exactly on every string/shape.
//!
//! Regenerate goldens after an intentional output change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_regression
//! ```

use std::path::PathBuf;

use serde_json::Value;
use tiered_transit::experiments::{runners, ExperimentConfig};

const GOLDEN_IDS: [&str; 3] = ["fig8", "fig10", "table1"];

/// The fixed configuration the goldens are recorded at (quick flow count
/// keeps the test fast; seed pinned independently of default drift).
fn golden_config(threads: usize) -> ExperimentConfig {
    ExperimentConfig {
        seed: 42,
        n_flows: 120,
        threads,
        ..ExperimentConfig::default()
    }
}

fn run_json(id: &str, threads: usize) -> String {
    runners::run(id, &golden_config(threads))
        .expect("experiment runs")
        .expect("experiment id known")
        .to_json()
}

fn golden_path(id: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{id}.json"))
}

/// Recursive comparison: numbers to 1e-9 (absolute or relative),
/// everything else exact.
fn assert_json_close(a: &Value, b: &Value, path: &str) {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => {
            let scale = x.abs().max(y.abs()).max(1.0);
            assert!((x - y).abs() <= 1e-9 * scale, "{path}: {x} vs {y}");
        }
        (Value::Array(xs), Value::Array(ys)) => {
            assert_eq!(xs.len(), ys.len(), "{path}: array length");
            for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
                assert_json_close(x, y, &format!("{path}[{i}]"));
            }
        }
        (Value::Object(xs), Value::Object(ys)) => {
            assert_eq!(xs.len(), ys.len(), "{path}: object size");
            for ((kx, x), (ky, y)) in xs.iter().zip(ys) {
                assert_eq!(kx, ky, "{path}: key order");
                assert_json_close(x, y, &format!("{path}.{kx}"));
            }
        }
        _ => assert_eq!(a, b, "{path}"),
    }
}

/// Sweep fan-out draws on the `--threads` budget (there is no separate
/// `--jobs` width), so a fully serial run and an oversubscribed one (8,
/// real cross-thread scheduling even on a small box) give byte-identical
/// figure JSON.
#[test]
fn jobs_1_and_jobs_8_are_byte_identical() {
    for id in GOLDEN_IDS {
        let serial = run_json(id, 1);
        let parallel = run_json(id, 8);
        assert_eq!(
            serial, parallel,
            "{id}: --threads 1 vs --threads 8 JSON differs"
        );
    }
}

#[test]
fn reruns_are_byte_identical() {
    for id in GOLDEN_IDS {
        assert_eq!(run_json(id, 2), run_json(id, 2), "{id}: rerun differs");
    }
}

#[test]
fn output_matches_golden_files() {
    for id in GOLDEN_IDS {
        let json = run_json(id, 1);
        let path = golden_path(id);
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &json).unwrap();
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        let got: Value = serde_json::from_str(&json).unwrap();
        let want: Value = serde_json::from_str(&golden).unwrap();
        assert_json_close(&got, &want, id);
    }
}

#[test]
fn json_excludes_timings() {
    // Stage timings vary run to run; the serializer must drop the stage
    // reports or the byte-identity guarantees above are meaningless.
    let result = runners::run("table1", &golden_config(2)).unwrap().unwrap();
    assert!(
        result.stage_reports.iter().any(|r| r.seconds > 0.0),
        "table1 should record per-stage timings"
    );
    let parsed: Value = serde_json::from_str(&result.to_json()).unwrap();
    assert!(parsed.get("timings").is_none());
    assert!(parsed.get("stage_reports").is_none());
}
