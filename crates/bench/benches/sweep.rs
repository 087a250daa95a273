//! Stage-graph scaling: the same experiment at `--threads 1` vs
//! `--threads 8`. On a machine with ≥8 cores the parallel variants
//! should run several times faster; on small machines the pair still
//! documents the (absence of) overhead of the pooled executor.

use criterion::{criterion_group, criterion_main, Criterion};
use transit_experiments::{runners, ExperimentConfig};

const BENCH_SEED: u64 = 42;

fn config(threads: usize, n_flows: usize) -> ExperimentConfig {
    ExperimentConfig {
        seed: BENCH_SEED,
        n_flows,
        threads,
        ..ExperimentConfig::default()
    }
}

fn run(id: &str, cfg: &ExperimentConfig) {
    runners::run(id, cfg).expect("runs").expect("known id");
}

/// table1 decomposes into one item per network (3 items): the
/// smallest real sweep, dominated by dataset generation.
fn sweep_table1(c: &mut Criterion) {
    let mut g = c.benchmark_group("sweep_table1");
    g.sample_size(10);
    g.bench_function("threads1", |b| b.iter(|| run("table1", &config(1, 400))));
    g.bench_function("threads8", |b| b.iter(|| run("table1", &config(8, 400))));
    g.finish();
}

/// fig8 decomposes into 3 panels × 6 strategies = 18 DP-heavy items:
/// the representative capture sweep.
fn sweep_fig8(c: &mut Criterion) {
    let mut g = c.benchmark_group("sweep_fig8");
    g.sample_size(10);
    g.bench_function("threads1", |b| b.iter(|| run("fig8", &config(1, 80))));
    g.bench_function("threads8", |b| b.iter(|| run("fig8", &config(8, 80))));
    g.finish();
}

/// fig14 fans out 2 families × 3 networks × 7 α-values = 42 items.
fn sweep_fig14(c: &mut Criterion) {
    let mut g = c.benchmark_group("sweep_fig14");
    g.sample_size(10);
    g.bench_function("threads1", |b| b.iter(|| run("fig14", &config(1, 40))));
    g.bench_function("threads8", |b| b.iter(|| run("fig14", &config(8, 40))));
    g.finish();
}

criterion_group!(sweep, sweep_table1, sweep_fig8, sweep_fig14);
criterion_main!(sweep);
