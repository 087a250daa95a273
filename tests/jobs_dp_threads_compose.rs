//! Sweep-level fan-out and the tiled DP table build both draw on the one
//! `--threads` pool budget, and a stage shared by several experiments in
//! one invocation runs once on that budget. All of it is a pure
//! optimization: figure JSON must be *byte-identical* from a fully
//! serial budget (1) through a small one (2), an oversubscribed one (8)
//! and the all-cores default (0), whether fig8 runs alone or beside
//! fig9 in one stage graph.

use tiered_transit::experiments::{runners, ExperimentConfig};

fn config(threads: usize) -> ExperimentConfig {
    ExperimentConfig {
        seed: 42,
        n_flows: 120,
        threads,
        ..ExperimentConfig::default()
    }
}

fn fig8_alone(threads: usize) -> String {
    runners::run("fig8", &config(threads))
        .expect("fig8 runs")
        .expect("fig8 known")
        .to_json()
}

fn fig8_beside_fig9(threads: usize) -> String {
    runners::run_all(&["fig8", "fig9"], &config(threads))
        .expect("invocation compiles and runs")
        .next()
        .expect("fig8 result")
        .expect("fig8 assembles")
        .to_json()
}

#[test]
fn figure_json_is_byte_identical_across_thread_budgets() {
    let reference = fig8_alone(1);
    assert!(!reference.is_empty());
    for threads in [1usize, 2, 8, 0] {
        assert_eq!(
            fig8_alone(threads),
            reference,
            "fig8 JSON diverges at threads={threads}"
        );
        assert_eq!(
            fig8_beside_fig9(threads),
            reference,
            "fig8 JSON beside fig9 diverges at threads={threads}"
        );
    }
}
