//! Crash-resume and fingerprint-stability regressions for the stage
//! graph pipeline (`--store` / `--resume`).
//!
//! Three contracts are pinned here:
//!
//! 1. **Kill anywhere, resume byte-identical**: interrupting a run at
//!    any stage boundary and resuming against the same store yields
//!    exactly the bytes of an uninterrupted run (the testkit oracle
//!    checks every boundary exhaustively).
//! 2. **Warm runs recompute nothing**: a second run against a populated
//!    store reports a hit for every stage and emits figure JSON
//!    byte-identical to a storeless run.
//! 3. **Fingerprints are a function of output-affecting params only**:
//!    stable across rebuilds and execution-knob changes (threads, store
//!    paths), distinct under any output-affecting perturbation,
//!    and pinned to a golden constant so hash-scheme drift is loud.

use tiered_transit::core::bundling::StrategyKind;
use tiered_transit::core::demand::DemandFamily;
use tiered_transit::datasets::Network;
use tiered_transit::experiments::stages::{
    dataset_node, CaptureStage, StrategySpec, Table1RowStage, ThetaCostKind, ThetaProfitStage,
};
use tiered_transit::experiments::{runners, ExperimentConfig};
use tiered_transit::stage::Graph;
use transit_testkit::check_kill_resume;

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("transit_stage_resume_{tag}_{}", std::process::id()))
}

/// A small but representative experiments graph: one dataset feeding
/// every stage kind the runners emit (capture, θ-profit, Table 1 row).
fn mixed_graph(n_flows: usize, seed: u64, alpha: f64, theta: f64) -> Graph {
    let mut g = Graph::new();
    let data = dataset_node(&mut g, Network::EuIsp, n_flows, seed);
    let capture = |strategy| CaptureStage {
        family: DemandFamily::Ced,
        strategy,
        max_bundles: 4,
        alpha,
        p0: 20.0,
        theta,
        s0: 0.2,
    };
    g.add(capture(StrategySpec::Kind(StrategyKind::Optimal)), &[data]);
    g.add(
        capture(StrategySpec::Kind(StrategyKind::ProfitWeighted)),
        &[data],
    );
    g.add(
        ThetaProfitStage {
            family: DemandFamily::Logit,
            cost: ThetaCostKind::Concave,
            theta,
            max_bundles: 4,
            alpha,
            p0: 20.0,
            s0: 0.2,
        },
        &[data],
    );
    g.add(
        Table1RowStage {
            network: Network::EuIsp,
        },
        &[data],
    );
    g
}

fn hex_fingerprints(g: &Graph) -> Vec<String> {
    g.fingerprints().iter().map(|f| f.hex()).collect()
}

/// Contract 1: the exhaustive boundary oracle over a graph mixing all
/// the runner stage kinds.
#[test]
fn kill_and_resume_at_every_boundary_is_byte_identical() {
    let dir = scratch("boundaries");
    let report = check_kill_resume(
        &dir,
        || mixed_graph(40, 42, 1.1, 0.2),
        |out| {
            let mut bytes = Vec::new();
            for artifact in &out.artifacts {
                bytes.extend_from_slice(artifact.bytes());
            }
            bytes
        },
    )
    .expect("every boundary must resume byte-identically");
    assert_eq!(report.stages, 5);
    assert_eq!(report.boundaries.len(), 6);
    // The final boundary is a pure warm run: zero recomputation.
    assert_eq!(report.boundaries[5].resume_misses, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Contract 2: warm `--resume` over a real runner (fig8) hits every
/// stage and reproduces the storeless figure JSON byte for byte.
#[test]
fn warm_fig8_resume_recomputes_nothing_and_matches_storeless_json() {
    let dir = scratch("warm_fig8");
    let _ = std::fs::remove_dir_all(&dir);
    let storeless = ExperimentConfig {
        n_flows: 60,
        ..ExperimentConfig::quick()
    };
    let reference = runners::run("fig8", &storeless).unwrap().unwrap().to_json();

    let cold_config = ExperimentConfig {
        store: Some(dir.to_string_lossy().into_owned()),
        ..storeless.clone()
    };
    let cold = runners::run("fig8", &cold_config).unwrap().unwrap();
    assert!(
        cold.stage_reports.iter().all(|r| !r.hit),
        "cold run must compute every stage"
    );
    assert_eq!(cold.to_json(), reference);

    let warm_config = ExperimentConfig {
        resume: true,
        ..cold_config
    };
    let warm = runners::run("fig8", &warm_config).unwrap().unwrap();
    assert_eq!(warm.stage_reports.len(), 21);
    assert!(
        warm.stage_reports.iter().all(|r| r.hit),
        "warm --resume must recompute zero stages: {:?}",
        warm.stage_reports
            .iter()
            .filter(|r| !r.hit)
            .map(|r| r.label.clone())
            .collect::<Vec<_>>()
    );
    assert_eq!(
        warm.to_json(),
        reference,
        "warm output must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--resume` against a store directory that was never created is a
/// loud error, not a silent cold run.
#[test]
fn resume_against_missing_store_fails() {
    let config = ExperimentConfig {
        store: Some(
            scratch("never_created")
                .join("missing")
                .to_string_lossy()
                .into_owned(),
        ),
        resume: true,
        ..ExperimentConfig::quick()
    };
    let err = runners::run("fig8", &config).unwrap_err();
    assert!(err.to_string().contains("store"), "{err}");
}

/// Satellite: after GC evicts entries, the next run transparently
/// recomputes them and output stays byte-identical.
#[test]
fn gc_evicted_stages_transparently_recompute() {
    let dir = scratch("gc");
    let _ = std::fs::remove_dir_all(&dir);
    let config = ExperimentConfig {
        n_flows: 60,
        store: Some(dir.to_string_lossy().into_owned()),
        ..ExperimentConfig::quick()
    };
    let cold = runners::run("fig8", &config).unwrap().unwrap();

    // Evict everything: budget 0 keeps nothing.
    let store = tiered_transit::stage::Store::open_existing(&dir).unwrap();
    let stats = store.gc(0).unwrap();
    assert_eq!(stats.kept_files, 0);
    assert!(stats.evicted_files >= 21, "{stats:?}");

    // The store directory still exists, so even --resume succeeds — it
    // just recomputes the evicted stages.
    let resumed_config = ExperimentConfig {
        resume: true,
        ..config
    };
    let resumed = runners::run("fig8", &resumed_config).unwrap().unwrap();
    assert!(
        resumed.stage_reports.iter().all(|r| !r.hit),
        "evicted stages must recompute"
    );
    assert_eq!(resumed.to_json(), cold.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Contract 3a: fingerprints are deterministic across graph rebuilds
/// and insensitive to every execution knob.
#[test]
fn fingerprints_are_stable_across_rebuilds() {
    let a = hex_fingerprints(&mixed_graph(40, 42, 1.1, 0.2));
    let b = hex_fingerprints(&mixed_graph(40, 42, 1.1, 0.2));
    assert_eq!(a, b);
    assert_eq!(a.len(), 5);
    for f in &a {
        assert_eq!(f.len(), 64);
        assert!(f.chars().all(|c| c.is_ascii_hexdigit()));
    }
}

/// Contract 3b: each output-affecting knob perturbs at least the stages
/// it feeds; dataset perturbations cascade to every downstream stage.
#[test]
fn output_affecting_params_perturb_fingerprints() {
    let base = hex_fingerprints(&mixed_graph(40, 42, 1.1, 0.2));
    // Dataset knobs: every stage depends on the dataset, so all five
    // fingerprints must change.
    for perturbed in [
        hex_fingerprints(&mixed_graph(41, 42, 1.1, 0.2)),
        hex_fingerprints(&mixed_graph(40, 43, 1.1, 0.2)),
    ] {
        for (b, p) in base.iter().zip(&perturbed) {
            assert_ne!(b, p, "dataset perturbation must cascade");
        }
    }
    // Market knobs: the dataset node is untouched, the compute stages
    // that consume alpha/theta change.
    let alpha = hex_fingerprints(&mixed_graph(40, 42, 1.2, 0.2));
    assert_eq!(base[0], alpha[0], "dataset ignores alpha");
    for i in 1..4 {
        assert_ne!(base[i], alpha[i], "stage {i} must fingerprint alpha");
    }
    assert_eq!(base[4], alpha[4], "table row ignores alpha");
}

/// Contract 3c: pinned golden fingerprint. If the hashing scheme, the
/// canonical-JSON encoding, or a stage's code epoch changes, this test
/// fails and the change must be deliberate (old store entries become
/// unreachable, which is the intended invalidation behavior).
#[test]
fn dataset_fingerprint_matches_golden_constant() {
    let mut g = Graph::new();
    dataset_node(&mut g, Network::EuIsp, 120, 42);
    let hex = hex_fingerprints(&g).remove(0);
    assert_eq!(
        hex, "89a11e12c47a57167b42570e024db520fd56576e3f3e0cfbd33fd7fb13c5db92",
        "dataset.generate fingerprint drifted — bump deliberately"
    );
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Same params always hash the same; the hash never depends on
        /// process state, iteration order, or prior graphs.
        #[test]
        fn fingerprints_are_pure_functions_of_params(
            n_flows in 1usize..500,
            seed in 0u64..1000,
            alpha in 1.05f64..2.0,
            theta in 0.05f64..0.9,
        ) {
            let a = hex_fingerprints(&mixed_graph(n_flows, seed, alpha, theta));
            let b = hex_fingerprints(&mixed_graph(n_flows, seed, alpha, theta));
            prop_assert_eq!(a, b);
        }

        /// Distinct seeds never collide (a collision would silently
        /// serve one dataset's artifacts to another's graph).
        #[test]
        fn distinct_seeds_never_collide(
            seed_a in 0u64..10_000,
            seed_b in 0u64..10_000,
        ) {
            // The vendored proptest has no prop_assume; shift equal
            // draws apart instead of discarding the case.
            let seed_b = if seed_a == seed_b { seed_b + 1 } else { seed_b };
            let a = hex_fingerprints(&mixed_graph(40, seed_a, 1.1, 0.2));
            let b = hex_fingerprints(&mixed_graph(40, seed_b, 1.1, 0.2));
            for (fa, fb) in a.iter().zip(&b) {
                prop_assert!(fa != fb, "collision: {fa}");
            }
        }
    }
}
