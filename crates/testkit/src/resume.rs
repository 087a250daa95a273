//! Kill-and-resume oracle for stage graphs.
//!
//! The stage executor's crash-resume contract: interrupting a run at
//! *any* stage boundary and resuming against the same store must
//! produce output byte-identical to an uninterrupted cold run. This
//! module checks that contract exhaustively — one interrupted run per
//! possible boundary — using the executor's `abort_after` fault
//! injection (a deterministic stand-in for `kill -9` between stages;
//! the store's atomic entry writes cover kills *inside* a stage).
//!
//! Callers supply two closures: `build` compiles a fresh graph (the
//! oracle re-builds per attempt, as separate processes would), and
//! `render` assembles the run's final bytes (figure JSON) from the
//! outcome. Runs are serial (a pool budget of 1) so boundary `k` always
//! falls after the same `k` stages.

use std::path::Path;

use transit_stage::{Executor, Graph, RunOutcome, StageError, Store};

/// How one boundary behaved; collected into [`ResumeReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundaryCheck {
    /// Stages completed before the injected kill.
    pub killed_after: usize,
    /// Store hits the resumed run observed (must equal `killed_after`).
    pub resume_hits: usize,
    /// Stages the resumed run recomputed.
    pub resume_misses: usize,
}

/// The oracle's verdict over every boundary of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeReport {
    /// Total stages in the graph.
    pub stages: usize,
    /// One entry per interrupted-at-boundary attempt.
    pub boundaries: Vec<BoundaryCheck>,
}

/// Interrupts a run at every stage boundary, resumes it, and asserts
/// the rendered output is byte-identical to an uninterrupted cold run.
///
/// `scratch` is a directory the oracle may create per-boundary stores
/// under (wiped before and after each boundary). Returns a report on
/// success; an `Err` names the first boundary that broke the contract.
pub fn check_kill_resume<B, R>(scratch: &Path, build: B, render: R) -> Result<ResumeReport, String>
where
    B: Fn() -> Graph,
    R: Fn(&RunOutcome) -> Vec<u8>,
{
    let _serial = transit_pool::scoped_budget(1);
    // Reference: one uninterrupted run with no store at all.
    let reference_graph = build();
    let stages = reference_graph.len();
    let reference = Executor::new()
        .run(&reference_graph)
        .map_err(|e| format!("reference run failed: {e}"))?;
    let reference_bytes = render(&reference);

    let mut boundaries = Vec::with_capacity(stages + 1);
    // Boundary k = killed after exactly k completed stages. k == stages
    // degenerates to "killed after finishing" — resume is a pure warm
    // run, which doubles as the zero-recompute check.
    for k in 0..=stages {
        let dir = scratch.join(format!("boundary-{k}"));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).map_err(|e| format!("boundary {k}: open store: {e}"))?;

        let interrupted = Executor::new()
            .with_store(store.clone())
            .abort_after(k)
            .run(&build());
        match interrupted {
            Err(StageError::Aborted { completed }) if completed == k => {}
            Err(StageError::Aborted { completed }) => {
                return Err(format!(
                    "boundary {k}: aborted after {completed} stages instead"
                ))
            }
            Err(e) => return Err(format!("boundary {k}: interrupted run failed: {e}")),
            Ok(_) if k >= stages => {} // nothing left to interrupt
            Ok(_) => return Err(format!("boundary {k}: abort did not fire")),
        }

        let resumed = Executor::new()
            .with_store(store)
            .run(&build())
            .map_err(|e| format!("boundary {k}: resumed run failed: {e}"))?;
        let hits = resumed.reports.iter().filter(|r| r.hit).count();
        if hits != k.min(stages) {
            return Err(format!(
                "boundary {k}: resume saw {hits} store hits, expected {}",
                k.min(stages)
            ));
        }
        if render(&resumed) != reference_bytes {
            return Err(format!(
                "boundary {k}: resumed output differs from the cold run"
            ));
        }
        boundaries.push(BoundaryCheck {
            killed_after: k,
            resume_hits: hits,
            resume_misses: stages - hits,
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(ResumeReport { stages, boundaries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Content;
    use transit_stage::{canon, Artifact, Stage};

    struct Chain(u64);
    impl Stage for Chain {
        fn kind(&self) -> &'static str {
            "testkit.chain"
        }
        fn params(&self) -> Content {
            canon::map(vec![("x", Content::U64(self.0))])
        }
        fn run(&self, inputs: &[Artifact]) -> Result<Artifact, String> {
            let mut out = self.0.to_le_bytes().to_vec();
            for i in inputs {
                out.extend_from_slice(i.bytes());
            }
            Ok(Artifact::new(out))
        }
    }

    fn chain_graph() -> Graph {
        let mut g = Graph::new();
        let a = g.add(Chain(1), &[]);
        let b = g.add(Chain(2), &[a]);
        let c = g.add(Chain(3), &[a]);
        g.add(Chain(4), &[b, c]);
        g
    }

    #[test]
    fn oracle_passes_on_a_deterministic_graph() {
        let scratch =
            std::env::temp_dir().join(format!("transit-testkit-resume-{}", std::process::id()));
        let report = check_kill_resume(&scratch, chain_graph, |out| {
            out.artifacts.last().unwrap().bytes().to_vec()
        })
        .unwrap();
        assert_eq!(report.stages, 4);
        assert_eq!(report.boundaries.len(), 5);
        assert_eq!(report.boundaries[2].resume_hits, 2);
        assert_eq!(
            report.boundaries[4].resume_misses, 0,
            "warm run recomputes nothing"
        );
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
