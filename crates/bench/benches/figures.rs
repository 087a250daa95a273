//! One benchmark per paper table/figure: each runs the same experiment
//! runner the CLI uses, at the reduced `BENCH_FLOWS` scale.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use transit_bench::{BENCH_FLOWS, BENCH_SEED};
use transit_experiments::{run, ExperimentConfig};

fn bench_config() -> ExperimentConfig {
    ExperimentConfig {
        n_flows: BENCH_FLOWS,
        seed: BENCH_SEED,
        ..ExperimentConfig::default()
    }
}

fn bench_experiment(c: &mut Criterion, group: &str, id: &'static str) {
    let config = bench_config();
    let mut g = c.benchmark_group(group);
    g.sample_size(10);
    g.bench_function(id, |b| {
        b.iter(|| {
            let result = run(black_box(id), &config)
                .expect("experiment runs")
                .expect("experiment exists");
            black_box(result.figures.len() + result.tables.len())
        })
    });
    g.finish();
}

fn illustrations(c: &mut Criterion) {
    bench_experiment(c, "fig01_worked_example", "fig1");
    bench_experiment(c, "fig02_direct_peering", "fig2");
    bench_experiment(c, "fig03_ced_demand", "fig3");
    bench_experiment(c, "fig04_ced_profit", "fig4");
    bench_experiment(c, "fig05_logit_demand", "fig5");
    bench_experiment(c, "fig06_concave_fit", "fig6");
}

fn datasets_table(c: &mut Criterion) {
    bench_experiment(c, "table1_datasets", "table1");
}

fn capture_figures(c: &mut Criterion) {
    bench_experiment(c, "fig08_ced_strategies", "fig8");
    bench_experiment(c, "fig09_logit_strategies", "fig9");
}

fn cost_model_figures(c: &mut Criterion) {
    bench_experiment(c, "fig10_linear_theta", "fig10");
    bench_experiment(c, "fig11_concave_theta", "fig11");
    bench_experiment(c, "fig12_regional_theta", "fig12");
    bench_experiment(c, "fig13_dest_type_theta", "fig13");
}

fn sensitivity_figures(c: &mut Criterion) {
    // The sweeps fan out across pool workers; keep samples minimal.
    let config = ExperimentConfig {
        n_flows: 40,
        seed: BENCH_SEED,
        ..ExperimentConfig::default()
    };
    let mut g = c.benchmark_group("sensitivity");
    g.sample_size(10);
    for id in ["fig14", "fig15", "fig16"] {
        let name = match id {
            "fig14" => "fig14_alpha_sweep",
            "fig15" => "fig15_p0_sweep",
            _ => "fig16_s0_sweep",
        };
        g.bench_function(name, |b| {
            b.iter(|| {
                let result = run(black_box(id), &config).unwrap().unwrap();
                black_box(result.figures.len())
            })
        });
    }
    g.finish();
}

fn accounting_figure(c: &mut Criterion) {
    bench_experiment(c, "fig17_accounting", "fig17");
}

fn extension_experiments(c: &mut Criterion) {
    bench_experiment(c, "ext1_strategies", "ext1");
    bench_experiment(c, "ext2_competition", "ext2");
    bench_experiment(c, "ext3_demand_response", "ext3");
}

criterion_group!(
    benches,
    illustrations,
    datasets_table,
    capture_figures,
    cost_model_figures,
    sensitivity_figures,
    accounting_figure,
    extension_experiments
);
criterion_main!(benches);
