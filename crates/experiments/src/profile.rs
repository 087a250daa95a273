//! Observability sidecar emission (`--profile <dir>`).
//!
//! When profiling is enabled the harness writes, *next to* — never into —
//! the figure outputs:
//!
//! * `run_manifest.json` — the [`transit_obs::RunManifest`]: config, seed,
//!   thread budget, git revision, span tree, metric snapshots, and
//!   per-stage execution records (fingerprint, cache hit, seconds).
//! * `metrics.prom` — the same metric snapshot in Prometheus text format.
//! * `<id>.stages.json` — per-experiment stage reports, one entry per
//!   stage node the experiment requested, in request order.
//! * `events.jsonl` + `trace.json` — when the event journal is enabled
//!   (the CLI enables it for `--profile` runs), the streamed timeline
//!   and its Chrome/Perfetto `trace_event` export.
//!
//! Everything here reads state the run already produced; nothing feeds
//! back into figure JSON, so profiled and unprofiled runs emit
//! byte-identical figures (asserted by `tests/obs_regression.rs`).

use std::path::{Path, PathBuf};

use transit_obs::fsutil::atomic_write;
use transit_stage::StageReport;

use crate::config::ExperimentConfig;

/// Everything one experiment contributes to the profile sidecars.
pub struct RunRecord {
    /// Experiment id (`"fig8"`, ...).
    pub id: String,
    /// Stage reports (includes dataset nodes).
    pub stages: Vec<StageReport>,
}

/// One stage report as JSON content.
fn stage_content(report: &StageReport) -> serde::Content {
    serde::Content::Map(vec![
        ("label".into(), serde::Content::Str(report.label.clone())),
        ("kind".into(), serde::Content::Str(report.kind.clone())),
        (
            "fingerprint".into(),
            serde::Content::Str(report.fingerprint.hex()),
        ),
        ("hit".into(), serde::Content::Bool(report.hit)),
        ("seconds".into(), serde::Content::F64(report.seconds)),
    ])
}

/// Writes all observability sidecars for one harness invocation into
/// `dir`: the run manifest, Prometheus metrics, and per-experiment
/// `<id>.stages.json` files. Returns the manifest path. All writes are
/// atomic (`*.tmp` + rename).
pub fn write_profile(
    dir: &Path,
    config: &ExperimentConfig,
    runs: &[RunRecord],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let mut manifest_stages: Vec<(String, serde::Content)> = Vec::new();
    for run in runs {
        if !run.stages.is_empty() {
            let stages = serde::Content::Seq(run.stages.iter().map(stage_content).collect());
            let json =
                serde_json::to_string_pretty(&stages).expect("stage content is serializable");
            atomic_write(
                &dir.join(format!("{}.stages.json", run.id)),
                json.as_bytes(),
            )?;
            manifest_stages.push((run.id.clone(), stages));
        }
    }
    // The effective pool budget: `--threads`, or the budget in force.
    let threads = match config.threads {
        0 => transit_pool::thread_budget(),
        n => n,
    };
    let manifest = transit_obs::RunManifest::capture(
        serde::Serialize::to_content(config),
        config.seed,
        threads,
        runs.iter().map(|run| run.id.clone()).collect(),
    )
    .with_stages(serde::Content::Map(manifest_stages));
    let manifest_path = manifest.write_to(dir)?;
    // Journal finalization rides along with manifest emission: flush any
    // buffered events and convert the journal to trace.json. A no-op
    // (Ok(None)) when the journal was never enabled.
    transit_obs::trace::finalize_journal()?;
    Ok(manifest_path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use transit_stage::Fingerprint;

    #[test]
    fn write_profile_emits_manifest_and_stage_sidecars() {
        let dir = std::env::temp_dir().join(format!("transit_profile_{}", std::process::id()));
        let config = ExperimentConfig::quick();
        let runs = vec![
            RunRecord {
                id: "figX".to_string(),
                stages: vec![StageReport {
                    label: "dataset EU ISP/n120/s42".into(),
                    kind: "dataset.generate".into(),
                    fingerprint: Fingerprint([7u8; 32]),
                    hit: true,
                    seconds: 0.001,
                }],
            },
            RunRecord {
                id: "figY".to_string(),
                stages: Vec::new(),
            },
        ];
        let manifest_path = write_profile(&dir, &config, &runs).unwrap();
        assert!(manifest_path.exists());
        assert!(dir.join("metrics.prom").exists());
        assert!(dir.join("figX.stages.json").exists());
        assert!(
            !dir.join("figY.stages.json").exists(),
            "experiments without stages get no sidecar"
        );
        let manifest: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&manifest_path).unwrap()).unwrap();
        assert_eq!(manifest["schema"], "transit-obs/v1");
        assert_eq!(manifest["experiments"][0], "figX");
        assert!(manifest.get("timings").is_none(), "no timings map");
        assert!(manifest["threads"].as_f64().unwrap() >= 1.0);
        assert_eq!(manifest["stages"]["figX"][0]["kind"], "dataset.generate");
        assert_eq!(
            manifest["stages"]["figX"][0]["hit"],
            serde_json::Value::Bool(true)
        );
        assert_eq!(
            manifest["stages"]["figX"][0]["fingerprint"],
            "07".repeat(32).as_str()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
