//! The stage graph: typed stages, a DAG builder, fingerprints, and the
//! crash-resumable executor.
//!
//! A [`Stage`] is a deterministic function from input artifacts (the
//! outputs of its dependency stages) plus parameters to one output
//! artifact. A [`Graph`] is an append-only DAG of stages — acyclic by
//! construction because a node may only depend on already-added nodes.
//! The [`Executor`] runs ready stages in waves on the shared
//! [`transit_pool`], consulting an optional [`Store`]: a stage whose
//! fingerprint already has a valid artifact is loaded instead of run.
//!
//! ## Fingerprints
//!
//! ```text
//! fp(stage) = sha256( "transit-stage/v1"
//!                   ∥ len(kind) ∥ kind
//!                   ∥ code_epoch:u32-le
//!                   ∥ len(canon) ∥ canon          # canonical-JSON params
//!                   ∥ n_deps:u64-le ∥ fp(dep_0) ∥ … )
//! ```
//!
//! Every component is length-prefixed (u64-le) so no two distinct
//! (kind, epoch, params, deps) tuples can serialize to the same byte
//! stream. The fingerprint therefore changes when any parameter, any
//! transitive input, or the stage's declared `code_epoch` changes — and
//! only then. Knobs that cannot affect output (thread counts, log
//! level, the store path itself) must never appear in `params`.
//!
//! The graph computes each fingerprint when the node is added and keys
//! its nodes by it: adding a stage whose fingerprint is already present
//! returns the existing node. A whole invocation can therefore compile
//! every experiment into one graph, and a stage that several
//! experiments request (the same dataset, the same capture curve) runs
//! once.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use serde::Content;

use crate::canon::to_canonical_json;
use crate::hash::{Fingerprint, Sha256};
use crate::store::{Artifact, Store};

/// A deterministic unit of pipeline work.
///
/// Implementations must be pure: `run`'s output may depend only on
/// `inputs` and the values reflected in `params()`. The executor treats
/// equal fingerprints as proof of equal output — a stage that reads
/// ambient state (time, RNG, thread count) breaks the cache contract.
pub trait Stage: Send + Sync {
    /// Stable stage-type name, e.g. `"dataset.generate"`. Part of the
    /// fingerprint; renaming invalidates all cached artifacts of this
    /// kind.
    fn kind(&self) -> &'static str;

    /// Bump when the stage's *implementation* changes output for the
    /// same params/inputs. Part of the fingerprint.
    fn code_epoch(&self) -> u32 {
        1
    }

    /// The output-affecting parameters, as a [`Content`] tree
    /// (canonicalized before hashing, so field order is free).
    fn params(&self) -> Content;

    /// Computes the output artifact from dependency artifacts, in the
    /// order the node's deps were declared.
    fn run(&self, inputs: &[Artifact]) -> Result<Artifact, String>;
}

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// Position of this node in the graph's insertion order.
    pub fn index(&self) -> usize {
        self.0
    }
}

struct Node {
    stage: Box<dyn Stage>,
    deps: Vec<NodeId>,
    label: String,
}

/// An append-only DAG of stages, one node per distinct fingerprint.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    fingerprints: Vec<Fingerprint>,
    by_fingerprint: HashMap<Fingerprint, NodeId>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// Adds a stage depending on `deps`, labeled by its kind.
    ///
    /// # Panics
    /// If any dep is not an id returned by this graph — which also
    /// rules out cycles, since deps always precede their dependents.
    pub fn add<S: Stage + 'static>(&mut self, stage: S, deps: &[NodeId]) -> NodeId {
        let label = stage.kind().to_string();
        self.add_labeled(label, stage, deps)
    }

    /// Adds a stage with an explicit human-facing label (plan lines,
    /// stage reports), e.g. `"fig8/ced/EU ISP"`.
    ///
    /// The node's fingerprint is computed here. If the graph already
    /// holds a node with that fingerprint, its id is returned and the
    /// new stage is dropped: the first label is kept.
    pub fn add_labeled<S: Stage + 'static>(
        &mut self,
        label: impl Into<String>,
        stage: S,
        deps: &[NodeId],
    ) -> NodeId {
        let next = self.nodes.len();
        for dep in deps {
            assert!(
                dep.0 < next,
                "dep {} is not a node of this graph (next id {next})",
                dep.0,
            );
        }
        let fp = self.fingerprint_of(&stage, deps);
        if let Some(&id) = self.by_fingerprint.get(&fp) {
            return id;
        }
        let id = NodeId(next);
        self.nodes.push(Node {
            stage: Box::new(stage),
            deps: deps.to_vec(),
            label: label.into(),
        });
        self.fingerprints.push(fp);
        self.by_fingerprint.insert(fp, id);
        id
    }

    fn fingerprint_of(&self, stage: &dyn Stage, deps: &[NodeId]) -> Fingerprint {
        let mut h = Sha256::new();
        h.update(b"transit-stage/v1");
        let kind = stage.kind().as_bytes();
        h.update(&(kind.len() as u64).to_le_bytes());
        h.update(kind);
        h.update(&stage.code_epoch().to_le_bytes());
        let canon = to_canonical_json(&stage.params());
        h.update(&(canon.len() as u64).to_le_bytes());
        h.update(canon.as_bytes());
        h.update(&(deps.len() as u64).to_le_bytes());
        for dep in deps {
            h.update(&self.fingerprints[dep.0].0);
        }
        Fingerprint(h.finalize())
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no stages.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The label of a node (the label it was first added under).
    pub fn label(&self, id: NodeId) -> &str {
        &self.nodes[id.0].label
    }

    /// Every node's fingerprint, in insertion order (which is
    /// topological by construction).
    pub fn fingerprints(&self) -> &[Fingerprint] {
        &self.fingerprints
    }
}

/// One line of an execution plan: what would run, and whether the
/// store already has it.
#[derive(Debug, Clone)]
pub struct PlanEntry {
    /// Human-facing node label.
    pub label: String,
    /// Stage kind.
    pub kind: String,
    /// The node's content address.
    pub fingerprint: Fingerprint,
    /// Whether a valid store artifact already exists.
    pub hit: bool,
}

/// The `--explain` view of a graph against a store.
#[derive(Debug, Clone)]
pub struct Plan {
    /// One entry per stage, in topological (insertion) order.
    pub entries: Vec<PlanEntry>,
}

impl Plan {
    /// Stages the store already holds.
    pub fn hits(&self) -> usize {
        self.entries.iter().filter(|e| e.hit).count()
    }

    /// Stages that would be computed.
    pub fn misses(&self) -> usize {
        self.entries.len() - self.hits()
    }

    /// Renders the plan as aligned text lines (one per stage).
    pub fn render(&self) -> String {
        let width = self
            .entries
            .iter()
            .map(|e| e.label.len())
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for e in &self.entries {
            use std::fmt::Write as _;
            let status = if e.hit { "hit " } else { "miss" };
            let _ = writeln!(
                out,
                "  {status}  {label:<width$}  {kind}  {fp}",
                label = e.label,
                kind = e.kind,
                fp = e.fingerprint.short(),
            );
        }
        let _ = {
            use std::fmt::Write as _;
            writeln!(
                out,
                "  plan: {} stage(s), {} hit, {} miss",
                self.entries.len(),
                self.hits(),
                self.misses()
            )
        };
        out
    }
}

/// What one stage did during a run.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Human-facing node label.
    pub label: String,
    /// Stage kind.
    pub kind: String,
    /// The node's content address.
    pub fingerprint: Fingerprint,
    /// `true` if the stage was served without computing: loaded from
    /// the store, or already produced for an earlier request in the
    /// same graph.
    pub hit: bool,
    /// Wall-clock seconds for this stage (load or compute).
    pub seconds: f64,
}

/// A completed run: every node's artifact plus per-stage reports.
#[derive(Debug)]
pub struct RunOutcome {
    /// Artifact per node, indexed by [`NodeId::index`].
    pub artifacts: Vec<Artifact>,
    /// Per-stage execution reports, in topological order.
    pub reports: Vec<StageReport>,
}

impl RunOutcome {
    /// The artifact a node produced.
    pub fn artifact(&self, id: NodeId) -> &Artifact {
        &self.artifacts[id.index()]
    }
}

/// Errors surfaced by [`Executor::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageError {
    /// A stage's `run` failed.
    Failed {
        /// The failing node's label.
        label: String,
        /// The stage's error message.
        message: String,
    },
    /// The run hit the injected [`Executor::abort_after`] boundary.
    Aborted {
        /// Stages that completed (and, with a store, persisted) before
        /// the abort fired.
        completed: usize,
    },
}

impl std::fmt::Display for StageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageError::Failed { label, message } => write!(f, "stage '{label}' failed: {message}"),
            StageError::Aborted { completed } => {
                write!(f, "run aborted after {completed} completed stage(s)")
            }
        }
    }
}

impl std::error::Error for StageError {}

/// Registers `# HELP` text for the stage metrics (first writer wins).
fn describe_metrics() {
    static ONCE: std::sync::OnceLock<()> = std::sync::OnceLock::new();
    ONCE.get_or_init(|| {
        transit_obs::metrics::describe(
            "stage.store.hits",
            "Stages whose artifact was loaded from the store instead of computed",
        );
        transit_obs::metrics::describe(
            "stage.store.misses",
            "Stages computed because the store had no valid artifact",
        );
        transit_obs::metrics::describe(
            "stage.store.corrupt",
            "Store entries that failed footer validation and were recomputed",
        );
        transit_obs::metrics::describe(
            "stage.store.evicted",
            "Store entries removed by mtime-LRU garbage collection",
        );
        transit_obs::metrics::describe(
            "stage.store.save_errors",
            "Artifact store writes that failed (run continued uncached)",
        );
    });
}

/// Runs a [`Graph`], optionally against a [`Store`].
///
/// Scheduling is wave-based: all nodes whose deps are done form a wave
/// and run concurrently on the shared pool (as wide as the thread
/// budget allows); artifacts land in deterministic node order
/// regardless of which worker finished first. Stage `run`
/// implementations are themselves free to use nested pool parallelism
/// — the pool's budget sharing handles oversubscription.
pub struct Executor {
    store: Option<Store>,
    abort_after: Option<usize>,
}

impl Default for Executor {
    fn default() -> Executor {
        Executor::new()
    }
}

impl Executor {
    /// An executor with no store (everything computes).
    pub fn new() -> Executor {
        Executor {
            store: None,
            abort_after: None,
        }
    }

    /// Attaches an artifact store: hits skip computation, misses are
    /// saved after computing.
    pub fn with_store(mut self, store: Store) -> Executor {
        self.store = Some(store);
        self
    }

    /// Fault injection for kill-and-resume tests: the run returns
    /// [`StageError::Aborted`] once `n` stages have completed, exactly
    /// at a stage boundary. Run under `transit_pool::scoped_budget(1)`
    /// for a deterministic boundary position.
    pub fn abort_after(mut self, n: usize) -> Executor {
        self.abort_after = Some(n);
        self
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// Computes the `--explain` plan: per-stage fingerprints and
    /// whether the store already holds each artifact. Read-only (does
    /// not touch mtimes).
    pub fn plan(&self, graph: &Graph) -> Plan {
        let entries = graph
            .nodes
            .iter()
            .zip(graph.fingerprints())
            .map(|(node, &fp)| PlanEntry {
                label: node.label.clone(),
                kind: node.stage.kind().to_string(),
                fingerprint: fp,
                hit: self.store.as_ref().is_some_and(|s| s.contains(fp)),
            })
            .collect();
        Plan { entries }
    }

    /// Executes the graph. Every node's artifact is returned; with a
    /// store attached, cached stages load instead of computing and
    /// computed stages persist before the run moves on (so a kill at
    /// any boundary loses at most in-flight stages).
    pub fn run(&self, graph: &Graph) -> Result<RunOutcome, StageError> {
        describe_metrics();
        let n = graph.len();
        let fps = graph.fingerprints();
        let mut artifacts: Vec<Option<Artifact>> = (0..n).map(|_| None).collect();
        let mut reports: Vec<Option<StageReport>> = (0..n).map(|_| None).collect();
        let completed = AtomicUsize::new(0);
        let _run_span = transit_obs::span!("stage.graph.run", stages = n);

        let mut n_done = 0;
        while n_done < n {
            // A wave: every not-yet-done node whose deps all resolved.
            let ready: Vec<(usize, Vec<Artifact>)> = (0..n)
                .filter(|&i| {
                    artifacts[i].is_none()
                        && graph.nodes[i].deps.iter().all(|d| artifacts[d.0].is_some())
                })
                .map(|i| {
                    let deps = graph.nodes[i]
                        .deps
                        .iter()
                        .map(|d| artifacts[d.0].clone().expect("dep resolved"))
                        .collect();
                    (i, deps)
                })
                .collect();
            assert!(!ready.is_empty(), "graph is acyclic by construction");

            let results = transit_pool::run_indexed(0, &ready, |_, (i, deps)| {
                self.exec_node(graph, *i, fps[*i], deps, &completed)
            });

            for ((i, _), result) in ready.iter().zip(results) {
                match result {
                    Ok(Some((artifact, report))) => {
                        artifacts[*i] = Some(artifact);
                        reports[*i] = Some(report);
                        n_done += 1;
                    }
                    Ok(None) => {
                        // Abort boundary reached; anything computed in
                        // this wave is already persisted.
                        return Err(StageError::Aborted {
                            completed: completed.load(Ordering::SeqCst),
                        });
                    }
                    Err(e) => return Err(e),
                }
            }
        }

        Ok(RunOutcome {
            artifacts: artifacts
                .into_iter()
                .map(|a| a.expect("all done"))
                .collect(),
            reports: reports.into_iter().map(|r| r.expect("all done")).collect(),
        })
    }

    /// Runs or loads one node. `Ok(None)` signals the abort boundary.
    #[allow(clippy::type_complexity)]
    fn exec_node(
        &self,
        graph: &Graph,
        i: usize,
        fp: Fingerprint,
        deps: &[Artifact],
        completed: &AtomicUsize,
    ) -> Result<Option<(Artifact, StageReport)>, StageError> {
        if let Some(limit) = self.abort_after {
            if completed.load(Ordering::SeqCst) >= limit {
                return Ok(None);
            }
        }
        let node = &graph.nodes[i];
        let start = Instant::now();
        let (artifact, hit) = match self.store.as_ref().and_then(|s| s.load(fp)) {
            Some(artifact) => {
                transit_obs::counter!("stage.store.hits").inc();
                (artifact, true)
            }
            None => {
                // Keyed by kind and label, not node index, so the span
                // tree never merges unrelated stages across graphs.
                let _span =
                    transit_obs::span!("stage.run", kind = node.stage.kind(), label = node.label);
                let artifact = node.stage.run(deps).map_err(|message| StageError::Failed {
                    label: node.label.clone(),
                    message,
                })?;
                if let Some(store) = &self.store {
                    // A failed cache write (disk full, permissions) is
                    // not fatal — the run still has the artifact.
                    if store.save(fp, &artifact).is_err() {
                        transit_obs::counter!("stage.store.save_errors").inc();
                    }
                }
                transit_obs::counter!("stage.store.misses").inc();
                (artifact, false)
            }
        };
        if transit_obs::journal::is_enabled() {
            transit_obs::journal::counter_sample(
                "stage.store.hits",
                transit_obs::counter!("stage.store.hits").get(),
            );
            transit_obs::journal::counter_sample(
                "stage.store.misses",
                transit_obs::counter!("stage.store.misses").get(),
            );
        }
        completed.fetch_add(1, Ordering::SeqCst);
        let report = StageReport {
            label: node.label.clone(),
            kind: node.stage.kind().to_string(),
            fingerprint: fp,
            hit,
            seconds: start.elapsed().as_secs_f64(),
        };
        Ok(Some((artifact, report)))
    }
}
