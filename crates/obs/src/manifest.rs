//! Run manifests: one machine-readable JSON document describing a run —
//! what was configured, what executed, where the time went, and what the
//! metrics registry saw.
//!
//! ## Schema (`transit-obs/v1`)
//!
//! ```json
//! {
//!   "schema": "transit-obs/v1",
//!   "created_unix_secs": 1754000000,
//!   "git_rev": "56c0615…",
//!   "threads": 8,
//!   "seed": 42,
//!   "config": { … the caller's config, verbatim … },
//!   "experiments": ["fig8"],
//!   "spans": { "experiment(id=fig8)": {"count":1,"seconds":…,"children":{…}} },
//!   "metrics": { "counters": {…}, "histograms": {…} },
//!   "stages": { "fig8": [ {"label":"fig8a/Optimal","kind":"exp.capture",…}, … ] }
//! }
//! ```
//!
//! The manifest is a *sidecar*: nothing in it feeds back into figure
//! output, so emitting one cannot perturb golden comparisons.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::metrics::MetricsSnapshot;
use crate::span::{tree_to_content, SpanNode};

/// A complete description of one harness run.
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// Schema identifier (`"transit-obs/v1"`).
    pub schema: String,
    /// Wall-clock creation time, seconds since the Unix epoch.
    pub created_unix_secs: u64,
    /// Git revision the binary ran from (`"unknown"` outside a repo).
    pub git_rev: String,
    /// Thread-pool budget the run used.
    pub threads: usize,
    /// RNG seed the run used.
    pub seed: u64,
    /// The caller's configuration, pre-rendered to the serde data model.
    pub config: serde::Content,
    /// Experiment ids executed, in run order.
    pub experiments: Vec<String>,
    /// Snapshot of the global span tree.
    pub spans: BTreeMap<String, SpanNode>,
    /// Snapshot of the metrics registry.
    pub metrics: MetricsSnapshot,
    /// Per-experiment stage-graph execution reports (fingerprints,
    /// cache hits, timings), pre-rendered to the serde data model by
    /// the caller. `Null` when the run recorded no stage data.
    pub stages: serde::Content,
}

impl RunManifest {
    /// Captures a manifest from the current process state: span tree and
    /// metrics snapshots plus the caller-supplied identity fields.
    pub fn capture(
        config: serde::Content,
        seed: u64,
        threads: usize,
        experiments: Vec<String>,
    ) -> RunManifest {
        RunManifest {
            schema: "transit-obs/v1".to_string(),
            created_unix_secs: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            git_rev: git_rev(),
            threads,
            seed,
            config,
            experiments,
            spans: crate::span::snapshot_spans(),
            metrics: crate::metrics::snapshot(),
            stages: serde::Content::Null,
        }
    }

    /// Attaches stage-graph execution reports (shown under a `stages`
    /// key in the JSON document).
    pub fn with_stages(mut self, stages: serde::Content) -> RunManifest {
        self.stages = stages;
        self
    }

    /// Pretty JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest content is serializable")
    }

    /// Writes `run_manifest.json` and `metrics.prom` into `dir`
    /// (creating it), returning the manifest path.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let manifest_path = dir.join("run_manifest.json");
        crate::fsutil::atomic_write(&manifest_path, self.to_json().as_bytes())?;
        crate::fsutil::atomic_write(
            &dir.join("metrics.prom"),
            self.metrics.to_prometheus().as_bytes(),
        )?;
        Ok(manifest_path)
    }
}

impl serde::Serialize for RunManifest {
    fn to_content(&self) -> serde::Content {
        serde::Content::Map(vec![
            ("schema".into(), serde::Content::Str(self.schema.clone())),
            (
                "created_unix_secs".into(),
                serde::Content::U64(self.created_unix_secs),
            ),
            ("git_rev".into(), serde::Content::Str(self.git_rev.clone())),
            ("threads".into(), serde::Content::U64(self.threads as u64)),
            ("seed".into(), serde::Content::U64(self.seed)),
            ("config".into(), self.config.clone()),
            (
                "experiments".into(),
                serde::Content::Seq(
                    self.experiments
                        .iter()
                        .map(|id| serde::Content::Str(id.clone()))
                        .collect(),
                ),
            ),
            ("spans".into(), tree_to_content(&self.spans)),
            (
                "metrics".into(),
                serde::Serialize::to_content(&self.metrics),
            ),
            ("stages".into(), self.stages.clone()),
        ])
    }
}

/// The current git revision, resolved with `std` only: walk up from the
/// working directory to a `.git`, follow `HEAD` (and `packed-refs` for
/// packed branches). Returns `"unknown"` when anything is missing —
/// manifests must never fail a run.
pub fn git_rev() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let git = d.join(".git");
        if git.exists() {
            return rev_from_git(&git).unwrap_or_else(|| "unknown".to_string());
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    "unknown".to_string()
}

fn rev_from_git(git: &Path) -> Option<String> {
    // A worktree's `.git` is a file pointing at the real git dir.
    let git_dir = if git.is_file() {
        let pointer = fs::read_to_string(git).ok()?;
        PathBuf::from(pointer.trim().strip_prefix("gitdir: ")?)
    } else {
        git.to_path_buf()
    };
    let head = fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return Some(head.to_string()); // detached HEAD: the hash itself
    };
    if let Ok(rev) = fs::read_to_string(git_dir.join(refname)) {
        return Some(rev.trim().to_string());
    }
    // Packed ref: lines of "<hash> <refname>".
    let packed = fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter(|line| !line.starts_with('#') && !line.starts_with('^'))
        .find_map(|line| {
            let (hash, name) = line.split_once(' ')?;
            (name == refname).then(|| hash.to_string())
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        RunManifest::capture(
            serde::Content::Map(vec![("n_flows".into(), serde::Content::U64(120))]),
            42,
            8,
            vec!["fig8".to_string()],
        )
        .with_stages(serde::Content::Map(vec![(
            "fig8".into(),
            serde::Content::Seq(vec![serde::Content::Map(vec![(
                "label".into(),
                serde::Content::Str("fig8a/Optimal".into()),
            )])]),
        )]))
    }

    #[test]
    fn manifest_json_has_schema_and_sections() {
        let json = sample().to_json();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["schema"], "transit-obs/v1");
        assert_eq!(v["seed"], 42i64);
        assert_eq!(v["config"]["n_flows"], 120i64);
        assert_eq!(v["experiments"][0], "fig8");
        assert_eq!(v["threads"], 8i64);
        assert_eq!(v["stages"]["fig8"][0]["label"], "fig8a/Optimal");
        assert!(!v["git_rev"].as_str().unwrap().is_empty());
    }

    #[test]
    fn write_to_emits_manifest_and_prometheus() {
        let dir = std::env::temp_dir().join(format!("transit_obs_manifest_{}", std::process::id()));
        let path = sample().write_to(&dir).unwrap();
        assert!(path.ends_with("run_manifest.json"));
        assert!(dir.join("metrics.prom").exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn git_rev_resolves_in_this_repo() {
        // The workspace is a git repo; outside one this would be
        // "unknown", which is also acceptable behavior.
        let rev = git_rev();
        assert!(!rev.is_empty());
    }
}
