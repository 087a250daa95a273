//! Observability is a *sidecar*: enabling it must not change figure
//! output by a single byte, and a profiled run must actually produce a
//! usable manifest.
//!
//! The tests here mutate the process-wide log level, so they serialize
//! on one mutex instead of relying on test threading. The lock is
//! poison-tolerant: one failing test must not fail the next one too.

use std::sync::{Mutex, MutexGuard, PoisonError};

use serde_json::Value;
use tiered_transit::experiments::{profile, runners, ExperimentConfig};
use tiered_transit::{obs, pool};

static LEVEL_LOCK: Mutex<()> = Mutex::new(());

fn level_lock() -> MutexGuard<'static, ()> {
    LEVEL_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn fig8_config(log_level: obs::Level) -> ExperimentConfig {
    ExperimentConfig {
        seed: 42,
        n_flows: 120,
        threads: 2,
        log_level,
        ..ExperimentConfig::default()
    }
}

fn run_fig8(level: obs::Level) -> (String, tiered_transit::experiments::ExperimentResult) {
    obs::set_log_level(level);
    let result = runners::run("fig8", &fig8_config(level))
        .expect("fig8 runs")
        .expect("fig8 known");
    (result.to_json(), result)
}

/// The acceptance gate: fig8 JSON with spans collected (the profiled
/// path) is byte-identical to fig8 JSON with observability quiet.
#[test]
fn profiled_and_quiet_runs_emit_identical_figure_json() {
    let _guard = level_lock();
    let (with_spans, _) = run_fig8(obs::Level::Info);
    let (quiet, _) = run_fig8(obs::Level::Quiet);
    obs::set_log_level(obs::Level::Info);
    assert_eq!(
        with_spans, quiet,
        "observability must never leak into figure output"
    );
}

/// A profiled fig8 run produces a manifest with a non-empty span tree,
/// live cache counters, and per-stage reports with their timings.
#[test]
fn profiled_fig8_manifest_has_spans_counters_and_timings() {
    let _guard = level_lock();
    // Pin the pool budget so the stage-graph width is deterministic on
    // any box size.
    let _budget = pool::scoped_budget(2);
    let (_, result) = run_fig8(obs::Level::Info);
    obs::set_log_level(obs::Level::Info);

    let dir = std::env::temp_dir().join(format!("transit_obs_reg_{}", std::process::id()));
    let config = fig8_config(obs::Level::Info);
    let runs = vec![profile::RunRecord {
        id: "fig8".to_string(),
        stages: result.stage_reports,
    }];
    let manifest_path = profile::write_profile(&dir, &config, &runs).unwrap();

    let manifest: Value =
        serde_json::from_str(&std::fs::read_to_string(&manifest_path).unwrap()).unwrap();
    assert_eq!(manifest["schema"], "transit-obs/v1");

    // Span tree: the experiment root exists and contains the stage
    // graph (3 dataset nodes + 18 capture nodes) with per-stage
    // children for every computed node.
    let spans = manifest["spans"].as_object().expect("spans object");
    assert!(!spans.is_empty(), "span tree must be non-empty");
    let experiment = &manifest["spans"]["experiment(id=fig8)"];
    assert!(
        experiment.get("count").is_some(),
        "experiment(id=fig8) span missing: {:?}",
        spans.iter().map(|(k, _)| k).collect::<Vec<_>>()
    );
    let graph_run = &experiment["children"]["stage.graph.run(stages=21)"];
    assert!(
        graph_run.get("count").is_some(),
        "stage.graph.run span missing under experiment: {:?}",
        experiment["children"]
            .as_object()
            .map(|c| c.iter().map(|(k, _)| k).collect::<Vec<_>>())
    );
    let stage_spans = graph_run["children"]
        .as_object()
        .expect("stage children")
        .iter()
        .filter(|(k, _)| k.starts_with("stage.run("))
        .count();
    assert!(stage_spans >= 21, "per-stage spans missing: {stage_spans}");

    // Cache hit/miss counters were exercised by the DP sweeps, and the
    // storeless stage run recorded 21 store misses.
    let counters = &manifest["metrics"]["counters"];
    let hits = counters["cache.fingerprint.hits"].as_f64().unwrap_or(-1.0);
    let misses = counters["cache.fingerprint.misses"]
        .as_f64()
        .unwrap_or(-1.0);
    assert!(hits > 0.0, "cache hits counter: {hits}");
    assert!(misses > 0.0, "cache misses counter: {misses}");
    let stage_misses = counters["stage.store.misses"].as_f64().unwrap_or(-1.0);
    assert!(stage_misses >= 21.0, "stage.store.misses: {stage_misses}");

    // Stage reports: one entry per graph node, fingerprints rendered as
    // 64-char hex, dataset nodes first.
    assert!(dir.join("fig8.stages.json").exists());
    let stages: Value =
        serde_json::from_str(&std::fs::read_to_string(dir.join("fig8.stages.json")).unwrap())
            .unwrap();
    let stages = stages.as_array().unwrap();
    assert_eq!(stages.len(), 21);
    assert_eq!(stages[0]["kind"], "dataset.generate");
    assert_eq!(stages[3]["kind"], "exp.capture");
    assert_eq!(stages[3]["label"], "fig8a/Optimal");
    assert_eq!(stages[0]["fingerprint"].as_str().unwrap().len(), 64);
    assert_eq!(manifest["stages"]["fig8"].as_array().unwrap().len(), 21);

    std::fs::remove_dir_all(&dir).ok();
}

/// The quiet level really does suppress span collection (the overhead
/// budget depends on it), while counters stay live for `cache_stats()`.
#[test]
fn quiet_level_suppresses_spans_but_not_counters() {
    let _guard = level_lock();
    obs::set_log_level(obs::Level::Quiet);
    let spans_before = obs::snapshot_spans()
        .get("experiment(id=fig8)")
        .map(|n| n.count)
        .unwrap_or(0);
    let cache_before = tiered_transit::core::cache::CacheStats::snapshot();
    let result = runners::run("fig8", &fig8_config(obs::Level::Quiet))
        .expect("fig8 runs")
        .expect("fig8 known");
    obs::set_log_level(obs::Level::Info);
    assert!(!result.figures.is_empty());
    let spans_after = obs::snapshot_spans()
        .get("experiment(id=fig8)")
        .map(|n| n.count)
        .unwrap_or(0);
    assert_eq!(spans_after, spans_before, "quiet run must not record spans");
    let cache_delta =
        tiered_transit::core::cache::CacheStats::snapshot().delta_since(&cache_before);
    assert!(
        cache_delta.hits + cache_delta.misses > 0,
        "counters must stay live at quiet level"
    );
}

/// Manifest capture needs no run state beyond the caller's identity
/// fields, and touches no figure output paths.
#[test]
fn manifest_capture_is_self_contained() {
    let manifest = obs::RunManifest::capture(
        serde::Serialize::to_content(&fig8_config(obs::Level::Info)),
        42,
        2,
        vec!["fig8".to_string()],
    );
    let parsed: Value = serde_json::from_str(&manifest.to_json()).unwrap();
    assert_eq!(parsed["seed"], 42i64);
    assert_eq!(parsed["threads"], 2i64);
    assert_eq!(parsed["config"]["n_flows"], 120i64);
    assert_eq!(parsed["experiments"][0], "fig8");
}

/// Pooled stages nest under the code that submitted them: a profiled
/// multi-experiment invocation leaves no `stage.run(…)` span at the root
/// of the tree, whatever the pool budget — including budgets above the
/// core count, where most stages run on pool workers.
#[test]
fn pooled_stage_spans_never_surface_as_roots() {
    let _guard = level_lock();
    obs::set_log_level(obs::Level::Info);
    let ids = ["fig8", "table1", "fig10"];
    for threads in [1, 2, 8] {
        let config = ExperimentConfig {
            threads,
            ..fig8_config(obs::Level::Info)
        };
        for result in runners::run_all(&ids, &config).expect("invocation runs") {
            result.expect("experiment assembles");
        }
        let spans = obs::snapshot_spans();
        let orphans: Vec<&String> = spans
            .keys()
            .filter(|k| k.starts_with("stage.run("))
            .collect();
        assert!(
            orphans.is_empty(),
            "threads={threads}: orphan roots {orphans:?}"
        );
        let invocation = &spans["experiment(id=fig8,table1,fig10)"];
        let graph_run = invocation
            .children
            .iter()
            .find(|(k, _)| k.starts_with("stage.graph.run("))
            .map(|(_, node)| node)
            .expect("the graph run nests under the invocation span");
        assert!(
            graph_run
                .children
                .keys()
                .any(|k| k.starts_with("stage.run(")),
            "threads={threads}: stage spans nest under the graph run"
        );
    }
}

/// Every `stage.run(…)` span key in the subtree of `node`.
fn stage_run_keys<'a>(node: &'a obs::SpanNode, keys: &mut Vec<&'a str>) {
    for (key, child) in &node.children {
        if key.starts_with("stage.run(") {
            keys.push(key);
        }
        stage_run_keys(child, keys);
    }
}

/// Stage spans are keyed by stage kind and label, never by node index:
/// in a profiled `full --quick` invocation every `stage.run(…)` key maps
/// to exactly one stage kind, so aggregation never merges unrelated
/// stages under one key.
#[test]
fn stage_spans_are_keyed_by_kind_and_label() {
    use std::collections::{HashMap, HashSet};
    use tiered_transit::experiments::{ALL_IDS, EXTENSION_IDS, SENSITIVITY_IDS};

    let _guard = level_lock();
    obs::set_log_level(obs::Level::Info);
    let ids: Vec<&str> = ALL_IDS
        .iter()
        .chain(&SENSITIVITY_IDS)
        .chain(&EXTENSION_IDS)
        .copied()
        .collect();
    let config = ExperimentConfig {
        log_level: obs::Level::Info,
        ..ExperimentConfig::quick()
    };
    let results: Vec<_> = runners::run_all(&ids, &config)
        .expect("invocation runs")
        .collect::<Result<_, _>>()
        .expect("every experiment assembles");
    let mut kinds_by_label: HashMap<&str, HashSet<&str>> = HashMap::new();
    for report in results.iter().flat_map(|r| &r.stage_reports) {
        kinds_by_label
            .entry(&report.label)
            .or_default()
            .insert(&report.kind);
    }

    let spans = obs::snapshot_spans();
    let invocation = &spans[&format!("experiment(id={})", ids.join(","))];
    let mut keys = Vec::new();
    stage_run_keys(invocation, &mut keys);
    assert!(!keys.is_empty(), "the invocation records stage spans");
    for key in keys {
        let (kind, label) = key
            .strip_prefix("stage.run(kind=")
            .and_then(|k| k.strip_suffix(')'))
            .and_then(|k| k.split_once(", label="))
            .unwrap_or_else(|| panic!("{key}: not keyed by kind and label"));
        assert_eq!(
            kinds_by_label.get(label),
            Some(&HashSet::from([kind])),
            "{key}: its label belongs to other stage kinds too"
        );
    }
}
