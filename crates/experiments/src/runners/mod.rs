//! One runner per paper table/figure, plus the registry that maps
//! experiment ids to runners and runs an invocation.
//!
//! A runner adds its stages to the invocation's graph and returns an
//! [`Assembler`]. [`run_all`] compiles every requested experiment into
//! one graph, runs it once, and assembles the results in id order.

pub mod accounting_fig;
pub mod capture_figs;
pub mod cost_figs;
pub mod extensions;
pub mod illustrations;
pub mod sensitivity;
pub mod table1;

use transit_core::error::Result;
use transit_stage::{Graph, NodeId, RunOutcome};

use crate::config::ExperimentConfig;
use crate::output::ExperimentResult;
use crate::stages::{execute, result_stage, stage_error, stage_reports, Assembler, Requests};

/// Every experiment id, in paper order.
pub const ALL_IDS: [&str; 14] = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "table1", "fig8", "fig9", "fig10", "fig11",
    "fig12", "fig13", "fig17",
];

/// Sensitivity experiments (slower; separated so `all` can run them
/// last and `quick` configurations matter most).
pub const SENSITIVITY_IDS: [&str; 3] = ["fig14", "fig15", "fig16"];

/// Extension experiments beyond the paper (see `runners::extensions`).
pub const EXTENSION_IDS: [&str; 5] = ["ext1", "ext2", "ext3", "ext4", "summary"];

/// Whether `id` names a registered experiment.
pub fn is_known(id: &str) -> bool {
    ALL_IDS
        .iter()
        .chain(&SENSITIVITY_IDS)
        .chain(&EXTENSION_IDS)
        .any(|&known| known == id)
}

/// Registers `# HELP` text for the metrics the runners drive (first
/// writer wins).
fn describe_metrics() {
    static ONCE: std::sync::OnceLock<()> = std::sync::OnceLock::new();
    ONCE.get_or_init(|| {
        transit_obs::metrics::describe(
            transit_core::cache::HITS_COUNTER,
            "Fingerprint-cache lookups that reused a cached artifact",
        );
        transit_obs::metrics::describe(
            transit_core::cache::MISSES_COUNTER,
            "Fingerprint-cache lookups that had to compute the artifact",
        );
        transit_pool::describe_metrics();
    });
}

/// Adds one experiment's stages to the invocation's graph.
fn compile(id: &str, req: &mut Requests<'_>, config: &ExperimentConfig) -> Option<Assembler> {
    // Figs. 1–6 are closed-form worked examples with no config knobs:
    // they compile to single whole-result stages with constant
    // fingerprints, so a warm `--store` replays them without computing.
    let mut illustration = |fig_id: &'static str, f: fn() -> Result<ExperimentResult>| {
        result_stage(req, fig_id, transit_stage::canon::map(vec![]), f)
    };
    Some(match id {
        "fig1" => illustration("fig1", illustrations::fig1),
        "fig2" => illustration("fig2", illustrations::fig2),
        "fig3" => illustration("fig3", illustrations::fig3),
        "fig4" => illustration("fig4", illustrations::fig4),
        "fig5" => illustration("fig5", illustrations::fig5),
        "fig6" => illustration("fig6", illustrations::fig6),
        "table1" => table1::table1(req, config),
        "fig8" => capture_figs::fig8(req, config),
        "fig9" => capture_figs::fig9(req, config),
        "fig10" => cost_figs::fig10(req, config),
        "fig11" => cost_figs::fig11(req, config),
        "fig12" => cost_figs::fig12(req, config),
        "fig13" => cost_figs::fig13(req, config),
        "fig14" => sensitivity::fig14(req, config),
        "fig15" => sensitivity::fig15(req, config),
        "fig16" => sensitivity::fig16(req, config),
        "fig17" => accounting_fig::fig17(req, config),
        "ext1" => extensions::ext_strategies(req, config),
        "ext2" => extensions::ext_competition(req),
        "ext3" => extensions::ext_response(req, config),
        "ext4" => extensions::ext_welfare(req, config),
        "summary" => extensions::summary(req, config),
        _ => return None,
    })
}

/// Runs experiments as one invocation: compiles every id into a single
/// stage graph and executes it once, so a stage several experiments
/// share runs once. The returned [`Invocation`] then assembles the
/// results in id order. Each result's `stage_reports` lists the nodes
/// that experiment requested; a node an earlier experiment already
/// requested reads `hit: true`.
///
/// A nonzero `config.threads` bounds the pool while the graph runs.
/// Unknown ids are an error.
pub fn run_all(ids: &[&str], config: &ExperimentConfig) -> Result<Invocation> {
    let _budget = (config.threads != 0).then(|| transit_pool::scoped_budget(config.threads));
    let name = ids.join(",");
    let _span = transit_obs::span!("experiment", id = name);
    describe_metrics();

    let mut graph = Graph::new();
    let mut pending = Vec::with_capacity(ids.len());
    for &id in ids {
        // One journal phase marker per experiment (it also forces an
        // eager drain of the event buffers).
        transit_obs::journal::phase(id);
        transit_obs::counter!("experiments.runs").inc();
        let mut req = Requests::new(&mut graph);
        let assemble = compile(id, &mut req, config)
            .ok_or_else(|| stage_error(format!("unknown experiment {id:?}")))?;
        pending.push((assemble, req.into_requested()));
    }
    let outcome = execute(&name, config, &graph)?;
    Ok(Invocation {
        served: vec![false; graph.len()],
        outcome,
        pending: pending.into_iter(),
    })
}

/// An executed invocation, yielding each experiment's result in id
/// order. It decodes one result at a time, so memory never holds more
/// than one decoded result beside the graph's artifacts.
pub struct Invocation {
    outcome: RunOutcome,
    pending: std::vec::IntoIter<(Assembler, Vec<(NodeId, String)>)>,
    served: Vec<bool>,
}

impl Iterator for Invocation {
    type Item = Result<ExperimentResult>;

    fn next(&mut self) -> Option<Self::Item> {
        let (assemble, requested) = self.pending.next()?;
        Some(assemble(&self.outcome).map(|mut r| {
            r.stage_reports = stage_reports(requested, &self.outcome, &mut self.served);
            r
        }))
    }
}

/// Runs one experiment by id (`run_all(&[id])`); `Ok(None)` for an
/// unknown id.
pub fn run(id: &str, config: &ExperimentConfig) -> Result<Option<ExperimentResult>> {
    if !is_known(id) {
        return Ok(None);
    }
    run_all(&[id], config)?.next().transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_knows_every_listed_id() {
        let config = ExperimentConfig {
            n_flows: 40,
            ..ExperimentConfig::quick()
        };
        // Every listed id compiles to at least one stage; only the
        // cheap experiments run here, heavy ones have their own module
        // tests.
        let mut graph = Graph::new();
        for id in ALL_IDS.iter().chain(&SENSITIVITY_IDS).chain(&EXTENSION_IDS) {
            assert!(is_known(id));
            let mut req = Requests::new(&mut graph);
            assert!(compile(id, &mut req, &config).is_some(), "{id} missing");
            assert!(!req.into_requested().is_empty(), "{id} requested no stage");
        }
        for id in ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6"] {
            let out = run(id, &config).unwrap();
            assert!(out.is_some(), "{id} missing");
        }
        assert!(!is_known("fig99"));
        assert!(run("fig99", &config).unwrap().is_none());
    }

    #[test]
    fn run_all_rejects_unknown_ids() {
        let err = run_all(&["fig1", "fig99"], &ExperimentConfig::quick())
            .err()
            .expect("unknown id rejected");
        assert!(err.to_string().contains("fig99"), "{err}");
    }

    #[test]
    fn id_lists_are_disjoint() {
        for id in SENSITIVITY_IDS {
            assert!(!ALL_IDS.contains(&id));
        }
        for id in EXTENSION_IDS {
            assert!(!ALL_IDS.contains(&id));
            assert!(!SENSITIVITY_IDS.contains(&id));
        }
    }
}
