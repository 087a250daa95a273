//! Stage-graph execution core.
//!
//! The experiment pipeline — dataset generation, NetFlow ingest, demand
//! fitting, bundling sweeps, figure assembly — is a DAG of deterministic
//! phases. This crate makes that DAG explicit:
//!
//! - [`Stage`] — a typed, deterministic unit of work: parameters plus
//!   input artifacts in, one output [`Artifact`] out.
//! - [`Graph`] — an append-only DAG builder (acyclic by construction)
//!   that fingerprints each node as it is added and keeps one node per
//!   fingerprint, so duplicate requests share one stage.
//! - [`Store`] — a content-addressed on-disk artifact cache keyed by
//!   [`Fingerprint`] = sha256(kind ∥ code-epoch ∥ canonical-JSON params
//!   ∥ input fingerprints), with atomic footer-validated entries and
//!   mtime-LRU garbage collection.
//! - [`Executor`] — wave-scheduled execution on the shared
//!   [`transit_pool`], skipping any stage whose artifact the store
//!   already holds; crash-resumable because every computed artifact
//!   persists before the run moves past it.
//!
//! Determinism is the load-bearing contract: a stage must be a pure
//! function of its params and inputs, so that fingerprint equality
//! implies byte-identical output. The repo's golden regressions pin
//! this end-to-end — cold, warm, and killed-then-resumed runs emit
//! byte-identical figure JSON.
//!
//! The [`canon`] module is the single canonical-JSON encoder shared by
//! store fingerprinting and testkit corpus serialization.

#![forbid(unsafe_code)]

pub mod canon;
pub mod codec;
pub mod graph;
pub mod hash;
pub mod store;

pub use graph::{
    Executor, Graph, NodeId, Plan, PlanEntry, RunOutcome, Stage, StageError, StageReport,
};
pub use hash::{sha256, Fingerprint, Sha256};
pub use store::{Artifact, GcStats, Store};

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Content;

    /// Doubles every byte of its single input, or seeds from params.
    struct TestStage {
        kind: &'static str,
        epoch: u32,
        seed: u64,
        /// Increments on every compute, to observe cache hits.
        runs: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl TestStage {
        fn new(
            kind: &'static str,
            seed: u64,
        ) -> (TestStage, std::sync::Arc<std::sync::atomic::AtomicUsize>) {
            let runs = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
            (
                TestStage {
                    kind,
                    epoch: 1,
                    seed,
                    runs: runs.clone(),
                },
                runs,
            )
        }
    }

    impl Stage for TestStage {
        fn kind(&self) -> &'static str {
            self.kind
        }
        fn code_epoch(&self) -> u32 {
            self.epoch
        }
        fn params(&self) -> Content {
            canon::map(vec![("seed", Content::U64(self.seed))])
        }
        fn run(&self, inputs: &[Artifact]) -> Result<Artifact, String> {
            self.runs.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let mut out = self.seed.to_le_bytes().to_vec();
            for input in inputs {
                out.extend(input.bytes().iter().map(|b| b.wrapping_mul(2)));
            }
            Ok(Artifact::new(out))
        }
    }

    fn diamond(seed: u64) -> (Graph, [NodeId; 4]) {
        let mut g = Graph::new();
        let a = g.add(TestStage::new("test.a", seed).0, &[]);
        let b = g.add(TestStage::new("test.b", seed + 1).0, &[a]);
        let c = g.add(TestStage::new("test.c", seed + 2).0, &[a]);
        let d = g.add_labeled("join", TestStage::new("test.d", seed + 3).0, &[b, c]);
        (g, [a, b, c, d])
    }

    fn tmp_store(tag: &str) -> (std::path::PathBuf, Store) {
        let dir =
            std::env::temp_dir().join(format!("transit-stage-exec-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        (dir, store)
    }

    #[test]
    fn fingerprints_change_with_any_input_and_only_then() {
        let (g1, _) = diamond(10);
        let (g2, _) = diamond(10);
        assert_eq!(g1.fingerprints(), g2.fingerprints(), "same graph, same fps");

        // Changing a root param ripples to every dependent.
        let (g3, _) = diamond(11);
        let f1 = g1.fingerprints();
        let f3 = g3.fingerprints();
        for i in 0..4 {
            assert_ne!(f1[i], f3[i], "node {i} must see the param change");
        }

        // Changing only the sink's param leaves upstream fps intact.
        let mut g4 = Graph::new();
        let a = g4.add(TestStage::new("test.a", 10).0, &[]);
        let b = g4.add(TestStage::new("test.b", 11).0, &[a]);
        let c = g4.add(TestStage::new("test.c", 12).0, &[a]);
        g4.add_labeled("join", TestStage::new("test.d", 99).0, &[b, c]);
        let f4 = g4.fingerprints();
        assert_eq!(&f1[..3], &f4[..3]);
        assert_ne!(f1[3], f4[3]);
    }

    #[test]
    fn code_epoch_bump_invalidates() {
        let mk = |epoch| {
            let mut g = Graph::new();
            let (mut s, _) = TestStage::new("test.epoch", 5);
            s.epoch = epoch;
            g.add(s, &[]);
            g.fingerprints()[0]
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn executor_resolves_deps_in_any_width() {
        let expected = {
            let _serial = transit_pool::scoped_budget(1);
            Executor::new().run(&diamond(42).0).unwrap().artifacts
        };
        for budget in [2, 8] {
            let _budget = transit_pool::scoped_budget(budget);
            let got = Executor::new().run(&diamond(42).0).unwrap();
            for (a, b) in expected.iter().zip(&got.artifacts) {
                assert_eq!(a, b, "budget {budget}");
            }
        }
    }

    #[test]
    fn equal_fingerprints_share_one_node() {
        let mut g = Graph::new();
        let (first, first_runs) = TestStage::new("test.a", 5);
        let (again, again_runs) = TestStage::new("test.a", 5);
        let a = g.add_labeled("first", first, &[]);
        let a2 = g.add_labeled("again", again, &[]);
        assert_eq!(a, a2, "same fingerprint, same node");
        assert_eq!(g.len(), 1);
        assert_eq!(g.label(a), "first", "the first label is kept");

        // A dependent requested twice over the shared node also dedups,
        // while a different param adds a node.
        let b = g.add(TestStage::new("test.b", 6).0, &[a]);
        assert_eq!(g.add(TestStage::new("test.b", 6).0, &[a2]), b);
        let c = g.add(TestStage::new("test.b", 7).0, &[a]);
        assert_ne!(b, c);
        assert_eq!(g.len(), 3);
        assert_eq!(g.fingerprints().len(), 3);

        let out = Executor::new().run(&g).unwrap();
        assert_eq!(out.reports.len(), 3);
        let runs = |r: &std::sync::Arc<std::sync::atomic::AtomicUsize>| {
            r.load(std::sync::atomic::Ordering::SeqCst)
        };
        assert_eq!(runs(&first_runs), 1);
        assert_eq!(runs(&again_runs), 0, "the duplicate never runs");
    }

    #[test]
    fn warm_run_hits_every_stage_and_computes_nothing() {
        let (dir, store) = tmp_store("warm");

        let (g, _) = diamond(7);
        let cold = Executor::new().with_store(store.clone()).run(&g).unwrap();
        assert!(cold.reports.iter().all(|r| !r.hit), "cold run misses all");

        let mut g2 = Graph::new();
        let runs: Vec<_> = {
            let (sa, ra) = TestStage::new("test.a", 7);
            let (sb, rb) = TestStage::new("test.b", 8);
            let (sc, rc) = TestStage::new("test.c", 9);
            let (sd, rd) = TestStage::new("test.d", 10);
            let a = g2.add(sa, &[]);
            let b = g2.add(sb, &[a]);
            let c = g2.add(sc, &[a]);
            g2.add_labeled("join", sd, &[b, c]);
            vec![ra, rb, rc, rd]
        };
        let warm = Executor::new().with_store(store).run(&g2).unwrap();
        assert!(warm.reports.iter().all(|r| r.hit), "warm run hits all");
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(
                r.load(std::sync::atomic::Ordering::SeqCst),
                0,
                "stage {i} recomputed"
            );
        }
        for (a, b) in cold.artifacts.iter().zip(&warm.artifacts) {
            assert_eq!(a, b, "warm artifacts byte-identical");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn abort_at_every_boundary_then_resume_is_identical() {
        let (g_ref, _) = diamond(3);
        let reference = Executor::new().run(&g_ref).unwrap();

        for k in 0..4 {
            let (dir, store) = tmp_store(&format!("abort{k}"));
            let (g, _) = diamond(3);
            let _serial = transit_pool::scoped_budget(1);
            let err = Executor::new()
                .with_store(store.clone())
                .abort_after(k)
                .run(&g)
                .unwrap_err();
            assert_eq!(err, StageError::Aborted { completed: k });

            // Resume: exactly k hits, the rest computed, output identical.
            let (g2, _) = diamond(3);
            let resumed = Executor::new().with_store(store).run(&g2).unwrap();
            assert_eq!(resumed.reports.iter().filter(|r| r.hit).count(), k);
            for (a, b) in reference.artifacts.iter().zip(&resumed.artifacts) {
                assert_eq!(a, b, "abort at {k}: resume must be byte-identical");
            }
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn plan_reports_hits_and_misses() {
        let (dir, store) = tmp_store("plan");
        let (g, _) = diamond(12);
        let _serial = transit_pool::scoped_budget(1);
        let exec = Executor::new().with_store(store.clone());
        let cold_plan = exec.plan(&g);
        assert_eq!((cold_plan.hits(), cold_plan.misses()), (0, 4));

        // Populate only the first two stages via an aborted run.
        let _ = Executor::new()
            .with_store(store)
            .abort_after(2)
            .run(&diamond(12).0);
        let partial_plan = exec.plan(&g);
        assert_eq!((partial_plan.hits(), partial_plan.misses()), (2, 2));
        let rendered = partial_plan.render();
        assert!(rendered.contains("hit ") && rendered.contains("miss"));
        assert!(rendered.contains("join"), "labels appear in the plan");
        assert!(rendered.contains("plan: 4 stage(s), 2 hit, 2 miss"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn evicted_stage_transparently_recomputes() {
        let (dir, store) = tmp_store("evict");
        let (g, _) = diamond(21);
        let cold = Executor::new().with_store(store.clone()).run(&g).unwrap();
        store.gc(0).unwrap(); // evict everything
        let (g2, _) = diamond(21);
        let again = Executor::new().with_store(store).run(&g2).unwrap();
        assert!(again.reports.iter().all(|r| !r.hit), "all recomputed");
        for (a, b) in cold.artifacts.iter().zip(&again.artifacts) {
            assert_eq!(a, b);
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn failing_stage_surfaces_its_label() {
        struct Boom;
        impl Stage for Boom {
            fn kind(&self) -> &'static str {
                "test.boom"
            }
            fn params(&self) -> Content {
                Content::Null
            }
            fn run(&self, _: &[Artifact]) -> Result<Artifact, String> {
                Err("kaboom".into())
            }
        }
        let mut g = Graph::new();
        g.add_labeled("the-bomb", Boom, &[]);
        let err = Executor::new().run(&g).unwrap_err();
        assert_eq!(
            err,
            StageError::Failed {
                label: "the-bomb".into(),
                message: "kaboom".into()
            }
        );
    }

    #[test]
    #[should_panic(expected = "not a node of this graph")]
    fn foreign_dep_ids_are_rejected() {
        let mut g1 = Graph::new();
        let a = g1.add(TestStage::new("test.a", 1).0, &[]);
        let b = g1.add(TestStage::new("test.b", 2).0, &[a]);
        let mut g2 = Graph::new();
        g2.add(TestStage::new("test.c", 3).0, &[b]);
    }
}
