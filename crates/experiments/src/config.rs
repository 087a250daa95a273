//! Shared experiment configuration (the paper's §4.2.2 defaults).

use serde::Serialize;

/// Global knobs shared by the experiment runners.
///
/// Not `Copy`: the observability fields (`profile`) own heap data.
/// Clone explicitly where a spread needs an owned base.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentConfig {
    /// RNG seed for dataset generation.
    pub seed: u64,
    /// Flows per synthetic dataset.
    pub n_flows: usize,
    /// CED/logit price sensitivity (paper default 1.1).
    pub alpha: f64,
    /// Blended rate the markets are fitted at (paper default $20).
    pub p0: f64,
    /// Cost-model tuning parameter (paper default 0.2 for linear cost).
    pub theta: f64,
    /// Logit no-purchase share (paper default 0.2).
    pub s0: f64,
    /// Largest bundle count evaluated (paper plots 1–6).
    pub max_bundles: usize,
    /// Thread-pool budget for the invocation (`--threads`, `0` = the
    /// budget already in force, all cores by default). The only thread
    /// knob: the stage graph fans out on the shared `transit_pool`
    /// within this budget, and nested layers split it rather than
    /// multiply threads. Results are identical for every value.
    pub threads: usize,
    /// Observability collection level (`--log-level`). Figure output is
    /// identical at every level; this only gates span collection.
    pub log_level: transit_obs::Level,
    /// Directory for observability sidecars (`--profile`): the run
    /// manifest, Prometheus metrics, per-experiment stage reports, and —
    /// with observability v2 — the streaming `events.jsonl` journal and
    /// its `trace.json` Chrome-trace export. `None` disables sidecar
    /// emission.
    pub profile: Option<String>,
    /// Address for the live metrics endpoint (`--serve-metrics`, e.g.
    /// `127.0.0.1:9464`; port 0 for OS-assigned). Serves Prometheus text
    /// at `/metrics`, span-tree JSON at `/spans`, and `/healthz` for the
    /// lifetime of the run. `None` (the default) binds nothing.
    pub serve_metrics: Option<String>,
    /// Artifact-store directory (`--store DIR`): the invocation's stage
    /// graph reads and writes the content-addressed cache there.
    /// `None` (the default) runs storeless. Never fingerprinted —
    /// caching cannot change output.
    pub store: Option<String>,
    /// Resume mode (`--resume`): require `store` to already exist and
    /// reuse its artifacts; stages whose fingerprints are present are
    /// skipped, the rest compute. Output is byte-identical either way.
    pub resume: bool,
    /// Print the invocation's stage plan (hit/miss per node) to stderr
    /// before executing (`--explain`).
    pub explain: bool,
    /// Evict least-recently-used store entries down to this byte budget
    /// after the run (`--store-gc BYTES`). `None` never evicts.
    pub store_gc: Option<u64>,
}

impl Default for ExperimentConfig {
    fn default() -> ExperimentConfig {
        ExperimentConfig {
            seed: 42,
            n_flows: 400,
            alpha: 1.1,
            p0: 20.0,
            theta: 0.2,
            s0: 0.2,
            max_bundles: 6,
            threads: 0,
            log_level: transit_obs::Level::Info,
            profile: None,
            serve_metrics: None,
            store: None,
            resume: false,
            explain: false,
            store_gc: None,
        }
    }
}

impl ExperimentConfig {
    /// A reduced configuration for fast CI runs and benches.
    pub fn quick() -> ExperimentConfig {
        ExperimentConfig {
            n_flows: 120,
            ..ExperimentConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ExperimentConfig::default();
        assert_eq!(c.alpha, 1.1);
        assert_eq!(c.p0, 20.0);
        assert_eq!(c.theta, 0.2);
        assert_eq!(c.s0, 0.2);
        assert_eq!(c.max_bundles, 6);
    }

    #[test]
    fn quick_is_smaller() {
        assert!(ExperimentConfig::quick().n_flows < ExperimentConfig::default().n_flows);
    }
}
