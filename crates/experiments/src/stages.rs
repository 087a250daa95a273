//! Stage implementations for the experiment runners, plus the shared
//! graph executor behind `--store`/`--resume`/`--explain`.
//!
//! One invocation compiles every requested experiment into a single
//! [`transit_stage::Graph`]: dataset nodes (the `dataset.generate` stage
//! from `transit-datasets`) feed numeric work stages, and each runner
//! returns an [`Assembler`] that builds its figures and tables from the
//! decoded artifacts once the graph has run. Because the graph keeps one
//! node per fingerprint, a stage that several experiments request (the
//! three datasets, shared capture curves) runs once per invocation, with
//! or without a store; figure JSON is the same either way (pinned by the
//! golden regressions).
//!
//! | kind            | params                                        | deps    | artifact           |
//! |-----------------|-----------------------------------------------|---------|--------------------|
//! | `exp.capture`   | family, strategy, bundles, alpha, p0, theta   | dataset | capture curve      |
//! | `exp.theta`     | family, cost, theta, bundles, alpha, p0       | dataset | profits + orig/max |
//! | `exp.table1row` | network                                       | dataset | table row cells    |
//! | `exp.result`    | id + the runner's output-affecting knobs      | —       | whole result       |
//!
//! Execution knobs (`--threads`, the store path itself) never appear in
//! params: they cannot change output, so they must not change
//! fingerprints.

use std::path::Path;

use serde::Content;
use transit_core::bundling::{
    BundlingStrategy, ClassAware, DemandMassDivision, NaturalBreaks, StrategyKind, WeightKind,
};
use transit_core::capture::capture_curve;
use transit_core::cost::{ConcaveCost, CostModel, DestTypeCost, LinearCost, RegionalCost};
use transit_core::demand::DemandFamily;
use transit_core::error::{Result, TransitError};
use transit_core::flow::split_by_dest_class;
use transit_datasets::stages::{decode_dataset, GenerateStage};
use transit_datasets::{DatasetStats, Network};
use transit_stage::codec::{push_string, Cursor};
use transit_stage::{
    canon, Artifact, Executor, Graph, NodeId, RunOutcome, Stage, StageReport, Store,
};

use crate::config::ExperimentConfig;
use crate::markets::fit_market_at;
use crate::output::{ExperimentResult, Figure, Series, TableOut};

/// Wraps a stage-layer failure message as a [`TransitError`].
pub fn stage_error(message: impl Into<String>) -> TransitError {
    TransitError::Stage {
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// Artifact codecs
// ---------------------------------------------------------------------------

/// Encodes a numeric curve (capture values, profit series) exactly.
pub fn encode_curve(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + values.len() * 8);
    out.extend_from_slice(b"TTCURV1\n");
    out.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for &v in values {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out
}

/// Decodes [`encode_curve`] output.
pub fn decode_curve(bytes: &[u8]) -> std::result::Result<Vec<f64>, String> {
    let mut c = Cursor::new(bytes);
    c.magic(b"TTCURV1\n")?;
    let n = c.u32()? as usize;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(c.f64()?);
    }
    c.finish()?;
    Ok(values)
}

/// Encodes one table row (string cells).
pub fn encode_row(cells: &[String]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(b"TTROWS1\n");
    out.extend_from_slice(&(cells.len() as u32).to_le_bytes());
    for cell in cells {
        push_string(&mut out, cell);
    }
    out
}

/// Decodes [`encode_row`] output.
pub fn decode_row(bytes: &[u8]) -> std::result::Result<Vec<String>, String> {
    let mut c = Cursor::new(bytes);
    c.magic(b"TTROWS1\n")?;
    let n = c.u32()? as usize;
    let mut cells = Vec::with_capacity(n);
    for _ in 0..n {
        cells.push(c.string()?);
    }
    c.finish()?;
    Ok(cells)
}

fn push_strings(out: &mut Vec<u8>, items: &[String]) {
    out.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for s in items {
        push_string(out, s);
    }
}

fn read_strings(c: &mut Cursor<'_>) -> std::result::Result<Vec<String>, String> {
    let n = c.u32()? as usize;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(c.string()?);
    }
    Ok(items)
}

fn push_f64s(out: &mut Vec<u8>, values: &[f64]) {
    out.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for &v in values {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

fn read_f64s(c: &mut Cursor<'_>) -> std::result::Result<Vec<f64>, String> {
    let n = c.u32()? as usize;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(c.f64()?);
    }
    Ok(values)
}

/// Encodes a whole [`ExperimentResult`] (id, title, notes, tables,
/// figures) byte-exactly; stage reports are execution metadata, not
/// results, and are deliberately excluded.
pub fn encode_result(r: &ExperimentResult) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(b"TTRESU1\n");
    push_string(&mut out, &r.id);
    push_string(&mut out, &r.title);
    push_strings(&mut out, &r.notes);
    out.extend_from_slice(&(r.tables.len() as u32).to_le_bytes());
    for t in &r.tables {
        push_string(&mut out, &t.id);
        push_string(&mut out, &t.title);
        push_strings(&mut out, &t.headers);
        out.extend_from_slice(&(t.rows.len() as u32).to_le_bytes());
        for row in &t.rows {
            push_strings(&mut out, row);
        }
    }
    out.extend_from_slice(&(r.figures.len() as u32).to_le_bytes());
    for f in &r.figures {
        push_string(&mut out, &f.id);
        push_string(&mut out, &f.title);
        push_string(&mut out, &f.x_label);
        push_string(&mut out, &f.y_label);
        push_f64s(&mut out, &f.x);
        out.extend_from_slice(&(f.series.len() as u32).to_le_bytes());
        for s in &f.series {
            push_string(&mut out, &s.label);
            push_f64s(&mut out, &s.y);
        }
    }
    out
}

/// Decodes [`encode_result`] output.
pub fn decode_result(bytes: &[u8]) -> std::result::Result<ExperimentResult, String> {
    let mut c = Cursor::new(bytes);
    c.magic(b"TTRESU1\n")?;
    let mut r = ExperimentResult::new(c.string()?, c.string()?);
    r.notes = read_strings(&mut c)?;
    let n_tables = c.u32()? as usize;
    for _ in 0..n_tables {
        let id = c.string()?;
        let title = c.string()?;
        let headers = read_strings(&mut c)?;
        let n_rows = c.u32()? as usize;
        let mut rows = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            rows.push(read_strings(&mut c)?);
        }
        r.tables.push(TableOut {
            id,
            title,
            headers,
            rows,
        });
    }
    let n_figures = c.u32()? as usize;
    for _ in 0..n_figures {
        let id = c.string()?;
        let title = c.string()?;
        let x_label = c.string()?;
        let y_label = c.string()?;
        let x = read_f64s(&mut c)?;
        let n_series = c.u32()? as usize;
        let mut series = Vec::with_capacity(n_series);
        for _ in 0..n_series {
            let label = c.string()?;
            let y = read_f64s(&mut c)?;
            series.push(Series { label, y });
        }
        r.figures.push(Figure {
            id,
            title,
            x_label,
            y_label,
            x,
            series,
        });
    }
    c.finish()?;
    Ok(r)
}

// ---------------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------------

/// Which bundling strategy a capture stage evaluates — the paper's six
/// plus the two extension strategies.
#[derive(Debug, Clone, Copy)]
pub enum StrategySpec {
    /// One of the paper's [`StrategyKind`]s.
    Kind(StrategyKind),
    /// Extension: demand-weighted Fisher–Jenks on the cost axis.
    NaturalBreaks,
    /// Extension: equal-traffic cuts of the cost-sorted flows.
    DemandMassDivision,
}

impl StrategySpec {
    /// Stable identifier used in stage params (part of the fingerprint).
    pub fn tag(&self) -> String {
        match self {
            StrategySpec::Kind(kind) => kind.label().to_string(),
            StrategySpec::NaturalBreaks => "natural-breaks".to_string(),
            StrategySpec::DemandMassDivision => "demand-mass-division".to_string(),
        }
    }

    /// Builds the strategy.
    pub fn build(&self) -> Box<dyn BundlingStrategy + Send + Sync> {
        match self {
            StrategySpec::Kind(kind) => kind.build(),
            StrategySpec::NaturalBreaks => Box::new(NaturalBreaks),
            StrategySpec::DemandMassDivision => Box::new(DemandMassDivision),
        }
    }
}

/// Shared param entries for market-fitting stages: the demand family
/// and its calibration knobs, with `s0` included only where it can
/// affect output (logit demand).
fn market_params(
    family: DemandFamily,
    alpha: f64,
    p0: f64,
    s0: f64,
) -> Vec<(&'static str, Content)> {
    let mut params = vec![
        ("family", Content::Str(family.label().to_string())),
        ("alpha", Content::F64(alpha)),
        ("p0", Content::F64(p0)),
    ];
    if matches!(family, DemandFamily::Logit) {
        params.push(("s0", Content::F64(s0)));
    }
    params
}

/// `exp.capture`: fit a market over the input dataset's flows under the
/// paper's linear cost model, then evaluate one strategy's profit
/// capture at 1..=max_bundles.
#[derive(Debug, Clone, Copy)]
pub struct CaptureStage {
    /// Demand family to fit.
    pub family: DemandFamily,
    /// The strategy evaluated.
    pub strategy: StrategySpec,
    /// Largest bundle count.
    pub max_bundles: usize,
    /// Price sensitivity.
    pub alpha: f64,
    /// Blended rate.
    pub p0: f64,
    /// Linear cost parameter.
    pub theta: f64,
    /// Logit no-purchase share (ignored under CED, and excluded from
    /// params there).
    pub s0: f64,
}

impl CaptureStage {
    /// The stage a config asks for, evaluating `strategy` for `family`.
    pub fn from_config(
        family: DemandFamily,
        strategy: StrategySpec,
        config: &ExperimentConfig,
    ) -> CaptureStage {
        CaptureStage {
            family,
            strategy,
            max_bundles: config.max_bundles,
            alpha: config.alpha,
            p0: config.p0,
            theta: config.theta,
            s0: config.s0,
        }
    }
}

impl Stage for CaptureStage {
    fn kind(&self) -> &'static str {
        "exp.capture"
    }

    /// 2: market profits and prices became correctly rounded exact sums,
    /// which moved the last digits of the output.
    fn code_epoch(&self) -> u32 {
        2
    }

    fn params(&self) -> Content {
        let mut params = market_params(self.family, self.alpha, self.p0, self.s0);
        params.push(("strategy", Content::Str(self.strategy.tag())));
        params.push(("max_bundles", Content::U64(self.max_bundles as u64)));
        params.push(("theta", Content::F64(self.theta)));
        canon::map(params)
    }

    fn run(&self, inputs: &[Artifact]) -> std::result::Result<Artifact, String> {
        let dataset = decode_dataset(inputs[0].bytes())?;
        let cost = LinearCost::new(self.theta).map_err(|e| e.to_string())?;
        let market = fit_market_at(
            self.family,
            &dataset.flows,
            &cost,
            self.alpha,
            self.p0,
            self.s0,
        )
        .map_err(|e| e.to_string())?;
        let strategy = self.strategy.build();
        let curve = capture_curve(market.as_ref(), strategy.as_ref(), self.max_bundles)
            .map_err(|e| e.to_string())?;
        Ok(Artifact::new(encode_curve(&curve.capture)))
    }
}

/// Which cost model a θ-profit stage builds (Figs. 10–13).
#[derive(Debug, Clone, Copy)]
pub enum ThetaCostKind {
    /// Linear in distance, slope θ.
    Linear,
    /// Concave (log) fit, scale θ.
    Concave,
    /// Regional step costs, spread θ.
    Regional,
    /// Destination-type (on-net share θ) with the §4.3.1 class-aware
    /// profit-weighted strategy.
    DestType,
}

impl ThetaCostKind {
    /// Stable identifier used in stage params.
    pub fn tag(&self) -> &'static str {
        match self {
            ThetaCostKind::Linear => "linear",
            ThetaCostKind::Concave => "concave",
            ThetaCostKind::Regional => "regional",
            ThetaCostKind::DestType => "dest-type",
        }
    }
}

/// `exp.theta`: fit a market under one (cost model, θ) and evaluate the
/// profit-weighted bundle series. Artifact layout:
/// `[profit(1), …, profit(max_bundles), original_profit, max_profit]`.
#[derive(Debug, Clone, Copy)]
pub struct ThetaProfitStage {
    /// Demand family to fit.
    pub family: DemandFamily,
    /// Cost model the panel varies.
    pub cost: ThetaCostKind,
    /// The cost model's tuning parameter.
    pub theta: f64,
    /// Largest bundle count.
    pub max_bundles: usize,
    /// Price sensitivity.
    pub alpha: f64,
    /// Blended rate.
    pub p0: f64,
    /// Logit no-purchase share.
    pub s0: f64,
}

impl Stage for ThetaProfitStage {
    fn kind(&self) -> &'static str {
        "exp.theta"
    }

    /// 2: market profits and prices became correctly rounded exact sums,
    /// which moved the last digits of the output.
    fn code_epoch(&self) -> u32 {
        2
    }

    fn params(&self) -> Content {
        let mut params = market_params(self.family, self.alpha, self.p0, self.s0);
        params.push(("cost", Content::Str(self.cost.tag().to_string())));
        params.push(("theta", Content::F64(self.theta)));
        params.push(("max_bundles", Content::U64(self.max_bundles as u64)));
        canon::map(params)
    }

    fn run(&self, inputs: &[Artifact]) -> std::result::Result<Artifact, String> {
        let dataset = decode_dataset(inputs[0].bytes())?;
        let err = |e: TransitError| e.to_string();
        let (flows, cost): (_, Box<dyn CostModel>) = match self.cost {
            ThetaCostKind::Linear => (
                dataset.flows,
                Box::new(LinearCost::new(self.theta).map_err(err)?),
            ),
            ThetaCostKind::Concave => (
                dataset.flows,
                Box::new(ConcaveCost::paper_fit(self.theta).map_err(err)?),
            ),
            ThetaCostKind::Regional => (
                dataset.flows,
                Box::new(RegionalCost::new(self.theta).map_err(err)?),
            ),
            ThetaCostKind::DestType => (
                split_by_dest_class(&dataset.flows, self.theta).map_err(err)?,
                Box::new(DestTypeCost::new()),
            ),
        };
        let strategy: Box<dyn BundlingStrategy + Send + Sync> = match self.cost {
            ThetaCostKind::DestType => Box::new(ClassAware::from_dest_classes(
                WeightKind::PotentialProfit,
                &flows,
            )),
            _ => StrategyKind::ProfitWeighted.build(),
        };
        let market = fit_market_at(
            self.family,
            &flows,
            cost.as_ref(),
            self.alpha,
            self.p0,
            self.s0,
        )
        .map_err(err)?;
        let mut values = strategy
            .bundle_series(market.as_ref(), self.max_bundles)
            .map_err(err)?
            .iter()
            .map(|bundling| market.profit(bundling))
            .collect::<Result<Vec<f64>>>()
            .map_err(err)?;
        values.push(market.original_profit());
        values.push(market.max_profit());
        Ok(Artifact::new(encode_curve(&values)))
    }
}

/// `exp.table1row`: one Table 1 row — paper targets vs measurements of
/// the input dataset.
#[derive(Debug, Clone, Copy)]
pub struct Table1RowStage {
    /// The row's network (targets are per-network constants).
    pub network: Network,
}

impl Stage for Table1RowStage {
    fn kind(&self) -> &'static str {
        "exp.table1row"
    }

    fn params(&self) -> Content {
        canon::map(vec![(
            "network",
            Content::Str(self.network.label().to_string()),
        )])
    }

    fn run(&self, inputs: &[Artifact]) -> std::result::Result<Artifact, String> {
        let dataset = decode_dataset(inputs[0].bytes())?;
        let targets = self.network.table1_targets();
        let stats = DatasetStats::of(&dataset.flows);
        Ok(Artifact::new(encode_row(&[
            self.network.label().into(),
            targets.date.into(),
            format!("{:.0}", targets.wavg_distance_miles),
            format!("{:.0}", stats.wavg_distance_miles),
            format!("{:.2}", targets.cv_distance),
            format!("{:.2}", stats.cv_distance),
            format!("{:.0}", targets.aggregate_gbps),
            format!("{:.1}", stats.aggregate_gbps),
            format!("{:.2}", targets.cv_demand),
            format!("{:.2}", stats.cv_demand),
        ])))
    }
}

/// `exp.result`: a whole-result stage for runners whose compute is one
/// indivisible unit (the worked examples, closed-form economics, and
/// the accounting experiment). The artifact is the full encoded
/// [`ExperimentResult`]; params carry the experiment id plus exactly
/// the config knobs the computation reads.
pub struct ResultStage {
    id: &'static str,
    params: Content,
    compute: Box<dyn Fn() -> Result<ExperimentResult> + Send + Sync>,
}

impl ResultStage {
    /// A whole-result stage computing `compute()` under fingerprint
    /// `(id, params)`.
    pub fn new(
        id: &'static str,
        params: Content,
        compute: impl Fn() -> Result<ExperimentResult> + Send + Sync + 'static,
    ) -> ResultStage {
        ResultStage {
            id,
            params,
            compute: Box::new(compute),
        }
    }
}

impl Stage for ResultStage {
    fn kind(&self) -> &'static str {
        "exp.result"
    }

    /// 2: market profits and prices became correctly rounded exact sums,
    /// which moved the last digits of the output.
    fn code_epoch(&self) -> u32 {
        2
    }

    fn params(&self) -> Content {
        Content::Map(vec![
            ("id".into(), Content::Str(self.id.to_string())),
            ("params".into(), self.params.clone()),
        ])
    }

    fn run(&self, _inputs: &[Artifact]) -> std::result::Result<Artifact, String> {
        let result = (self.compute)().map_err(|e| e.to_string())?;
        Ok(Artifact::new(encode_result(&result)))
    }
}

// ---------------------------------------------------------------------------
// Graph construction and execution helpers
// ---------------------------------------------------------------------------

/// Builds an experiment's result from the artifacts of the invocation's
/// graph run. Runners return one after adding their nodes.
pub type Assembler = Box<dyn FnOnce(&RunOutcome) -> Result<ExperimentResult>>;

/// The labeled `dataset.generate` stage for `(network, n_flows, seed)`.
fn dataset_stage(network: Network, n_flows: usize, seed: u64) -> (String, GenerateStage) {
    (
        format!("dataset {}/n{n_flows}/s{seed}", network.label()),
        GenerateStage {
            network,
            n_flows,
            seed,
        },
    )
}

/// Adds a `dataset.generate` node for `(network, n_flows, seed)`. The
/// same triple produces the same fingerprint in every runner, so one
/// graph (or a shared store) serves one dataset artifact to all of them.
pub fn dataset_node(graph: &mut Graph, network: Network, n_flows: usize, seed: u64) -> NodeId {
    let (label, stage) = dataset_stage(network, n_flows, seed);
    graph.add_labeled(label, stage, &[])
}

/// One experiment's view of the invocation's graph: every node it adds
/// is recorded, in request order and under the label it asked for, so
/// its stage reports list exactly the nodes it used — including nodes
/// that an earlier experiment already added.
pub struct Requests<'g> {
    graph: &'g mut Graph,
    requested: Vec<(NodeId, String)>,
}

impl<'g> Requests<'g> {
    /// Starts recording one experiment's requests against `graph`.
    pub fn new(graph: &'g mut Graph) -> Requests<'g> {
        Requests {
            graph,
            requested: Vec::new(),
        }
    }

    /// Adds (or finds) a stage node and records the request.
    pub fn add<S: Stage + 'static>(
        &mut self,
        label: impl Into<String>,
        stage: S,
        deps: &[NodeId],
    ) -> NodeId {
        let label = label.into();
        let node = self.graph.add_labeled(label.clone(), stage, deps);
        self.requested.push((node, label));
        node
    }

    /// Adds (or finds) the `dataset.generate` node for `(network,
    /// n_flows, seed)`; see [`dataset_node`].
    pub fn dataset(&mut self, network: Network, n_flows: usize, seed: u64) -> NodeId {
        let (label, stage) = dataset_stage(network, n_flows, seed);
        self.add(label, stage, &[])
    }

    /// The recorded `(node, label)` requests, in request order.
    pub fn into_requested(self) -> Vec<(NodeId, String)> {
        self.requested
    }
}

/// Per-request stage reports for one experiment. `served[i]` marks
/// nodes whose report an earlier request already carried: those read
/// `hit: true` with zero seconds, because this request was served
/// without computing.
pub fn stage_reports(
    requested: Vec<(NodeId, String)>,
    outcome: &RunOutcome,
    served: &mut [bool],
) -> Vec<StageReport> {
    requested
        .into_iter()
        .map(|(node, label)| {
            let report = &outcome.reports[node.index()];
            let first = !std::mem::replace(&mut served[node.index()], true);
            StageReport {
                label,
                kind: report.kind.clone(),
                fingerprint: report.fingerprint,
                hit: report.hit || !first,
                seconds: if first { report.seconds } else { 0.0 },
            }
        })
        .collect()
}

/// Executes an invocation's graph under the config's store settings:
/// `--store` attaches the artifact cache (`--resume` requires the store
/// directory to already exist) and `--explain` prints the hit/miss plan
/// to stderr, headed by `name`.
pub fn execute(name: &str, config: &ExperimentConfig, graph: &Graph) -> Result<RunOutcome> {
    let mut exec = Executor::new();
    match (&config.store, config.resume) {
        (Some(dir), resume) => {
            let store = if resume {
                Store::open_existing(Path::new(dir))
            } else {
                Store::open(Path::new(dir))
            }
            .map_err(|e| stage_error(format!("store {dir}: {e}")))?;
            exec = exec.with_store(store);
        }
        (None, true) => {
            return Err(stage_error("--resume requires --store DIR"));
        }
        (None, false) => {}
    }
    if config.explain {
        eprintln!("{name}: stage plan");
        eprint!("{}", exec.plan(graph).render());
    }
    exec.run(graph).map_err(|e| stage_error(e.to_string()))
}

/// Adds a single [`ResultStage`] node and returns the assembler that
/// decodes its artifact back into the runner's [`ExperimentResult`].
pub fn result_stage(
    requests: &mut Requests<'_>,
    id: &'static str,
    params: Content,
    compute: impl Fn() -> Result<ExperimentResult> + Send + Sync + 'static,
) -> Assembler {
    let node = requests.add(id, ResultStage::new(id, params, compute), &[]);
    Box::new(move |outcome| decode_result(outcome.artifact(node).bytes()).map_err(stage_error))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_codec_roundtrips_exactly() {
        let values = [0.0, -0.0, 0.1, f64::MAX, f64::MIN_POSITIVE, -2.5];
        let back = decode_curve(&encode_curve(&values)).unwrap();
        assert_eq!(back.len(), values.len());
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(decode_curve(b"TTROWS1\n").is_err(), "magic mismatch");
    }

    #[test]
    fn row_codec_roundtrips() {
        let cells = vec!["EU ISP".to_string(), "1.23".to_string(), String::new()];
        assert_eq!(decode_row(&encode_row(&cells)).unwrap(), cells);
    }

    #[test]
    fn result_codec_roundtrips_everything() {
        let mut r = ExperimentResult::new("figX", "A title");
        r.notes.push("a note".into());
        r.tables.push(TableOut {
            id: "t".into(),
            title: "T".into(),
            headers: vec!["a".into(), "b".into()],
            rows: vec![vec!["1".into(), "2".into()]],
        });
        r.figures.push(Figure {
            id: "f".into(),
            title: "F".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            x: vec![1.0, 2.0],
            series: vec![Series {
                label: "s".into(),
                y: vec![0.25, std::f64::consts::FRAC_1_SQRT_2],
            }],
        });
        // Stage reports are execution metadata and must not survive
        // encoding.
        r.stage_reports.push(StageReport {
            label: "x".into(),
            kind: "exp.result".into(),
            fingerprint: transit_stage::Fingerprint([1; 32]),
            hit: false,
            seconds: 1.0,
        });
        let back = decode_result(&encode_result(&r)).unwrap();
        assert_eq!(back.to_json(), r.to_json(), "JSON byte-identical");
        assert!(back.stage_reports.is_empty());
    }

    #[test]
    fn capture_stage_params_exclude_s0_for_ced() {
        let mk = |family| CaptureStage {
            family,
            strategy: StrategySpec::Kind(StrategyKind::ProfitWeighted),
            max_bundles: 6,
            alpha: 1.1,
            p0: 20.0,
            theta: 0.2,
            s0: 0.2,
        };
        let ced = transit_stage::canon::to_canonical_json(&mk(DemandFamily::Ced).params());
        let logit = transit_stage::canon::to_canonical_json(&mk(DemandFamily::Logit).params());
        assert!(!ced.contains("s0"), "{ced}");
        assert!(logit.contains("s0"), "{logit}");
    }

    #[test]
    fn resume_without_store_is_an_error() {
        let config = ExperimentConfig {
            resume: true,
            ..ExperimentConfig::quick()
        };
        let graph = Graph::new();
        let err = execute("figX", &config, &graph).unwrap_err();
        assert!(err.to_string().contains("--resume requires --store"));
    }
}
