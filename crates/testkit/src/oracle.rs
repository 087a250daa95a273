//! Differential oracles: re-run every fast path against its slow
//! reference and assert equivalence at the agreed precision.
//!
//! | fast path | reference | contract |
//! |---|---|---|
//! | `CoalescedMarket` (ε = 0, duplicate-free) | raw market | bitwise |
//! | `CoalescedMarket` exact grouped evaluation (any ε) | raw market on the `expand`ed bundling | bitwise |
//! | `CoalescedMarket` (ε > 0, CED) | `OptimalExhaustive` on raw | `π_raw − π_ε ≤ 2·D_exact ≤ 2·D(ε)` |
//! | `OptimalDp` tiled (`dp_threads ∈ {2, 8}` × pool budgets `{1, 2, 8}`) | `dp_threads = 1` | bitwise |
//! | `bundle_series` (every strategy) | per-point `bundle` loop | bitwise |
//! | pooled `capture_curves` (budgets `{1, 2, 8}`) | per-strategy `capture_curve` loop | bitwise |
//! | sharded + parallel `ingest_batch` (shards `{1, 4, 16}` × workers `{1, 2, 8}` × pool budgets `{1, 2, 8}`) | serial `ingest` | exact state, counter, and registry-delta equality |
//!
//! Parallel fast paths run on the process-wide [`transit_pool`]; the
//! oracles pin each one under explicit pool budgets (`scoped_budget`) so
//! budget 1 exercises the inline serial fallback and budget 8 exercises
//! real cross-thread scheduling even on small CI machines.
//!
//! Every oracle is *total*: malformed scenarios (the shrinker produces
//! plenty) come back as [`Verdict::Skip`], never a panic, so a shrink
//! candidate only survives when it still exhibits a genuine divergence.

use std::net::Ipv4Addr;

use transit_core::bundling::{
    BundlingStrategy, ClassAware, DemandMassDivision, NaturalBreaks, OptimalDp, OptimalExhaustive,
    StrategyKind, WeightKind,
};
use transit_core::capture::{capture_curve, capture_curves};
use transit_core::coalesce::CoalescedMarket;
use transit_core::cost::LinearCost;
use transit_core::demand::ced::CedAlpha;
use transit_core::demand::logit::LogitAlpha;
use transit_core::fitting::{fit_ced, fit_logit};
use transit_core::flow::TrafficFlow;
use transit_core::market::{CedMarket, LogitMarket, TransitMarket};
use transit_netflow::{Collector, CollectorStats, Exporter, FlowKey, SystematicSampler};

use crate::faults::apply_faults;
use crate::scenario::{DemandSpec, IngestScenario, MarketSpec, Scenario};

/// Paper-default blended rate used by every fitted market.
pub const P0: f64 = 20.0;
/// Paper-default linear cost slope.
pub const COST_THETA: f64 = 0.2;
/// Paper-default logit outside-option share.
pub const LOGIT_S0: f64 = 0.2;

/// A non-failing oracle outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// All differential assertions held.
    Pass,
    /// The scenario is legitimately out of scope (infeasible fit,
    /// degenerate data); nothing was asserted.
    Skip(&'static str),
}

/// A differential failure: a fast path disagreed with its reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Oracle family name (matches [`crate::scenario::Family::name`]).
    pub family: &'static str,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.family, self.detail)
    }
}

impl std::error::Error for Divergence {}

fn div(family: &'static str, detail: String) -> Divergence {
    Divergence { family, detail }
}

/// Runs the oracle for `scenario`'s family.
pub fn check(scenario: &Scenario) -> Result<Verdict, Divergence> {
    match scenario {
        Scenario::Coalesce {
            market,
            epsilon,
            replication,
            jitter,
        } => check_coalesce(market, *epsilon, *replication, *jitter),
        Scenario::TiledDp { flows, max_bundles } => check_tiled_dp(flows, *max_bundles),
        Scenario::Series { market } => check_series(market),
        Scenario::Ingest(ingest) => check_ingest(ingest),
    }
}

// ---------------------------------------------------------------------------
// Market construction
// ---------------------------------------------------------------------------

fn valid_pairs(pairs: &[(f64, f64)]) -> bool {
    !pairs.is_empty()
        && pairs
            .iter()
            .all(|&(q, d)| q.is_finite() && d.is_finite() && q > 0.0 && d > 0.0)
}

fn traffic_flows(pairs: &[(f64, f64)]) -> Vec<TrafficFlow> {
    pairs
        .iter()
        .enumerate()
        .map(|(i, &(q, d))| TrafficFlow::new(i as u32, q, d))
        .collect()
}

enum Built {
    Ced(CedMarket),
    Logit(LogitMarket),
    /// Legitimately unbuildable (bad alpha, infeasible logit calibration).
    Skip(&'static str),
}

fn build_market(demand: DemandSpec, alpha: f64, flows: &[TrafficFlow]) -> Built {
    let Ok(cost) = LinearCost::new(COST_THETA) else {
        return Built::Skip("cost model rejected");
    };
    match demand {
        DemandSpec::Ced => {
            let Ok(a) = CedAlpha::new(alpha) else {
                return Built::Skip("invalid CED alpha");
            };
            match fit_ced(flows, &cost, a, P0) {
                Ok(fit) => match CedMarket::new(fit) {
                    Ok(m) => Built::Ced(m),
                    Err(_) => Built::Skip("CED market rejected fit"),
                },
                Err(_) => Built::Skip("CED fit failed"),
            }
        }
        DemandSpec::Logit => {
            let Ok(a) = LogitAlpha::new(alpha) else {
                return Built::Skip("invalid logit alpha");
            };
            match fit_logit(flows, &cost, a, P0, LOGIT_S0) {
                Ok(fit) => match LogitMarket::new(fit) {
                    Ok(m) => Built::Logit(m),
                    Err(_) => Built::Skip("logit market rejected fit"),
                },
                Err(_) => Built::Skip("infeasible logit calibration"),
            }
        }
    }
}

/// Every strategy under differential test, sized for a market with
/// `n_flows` flows (the class-aware wrapper needs per-flow labels).
fn strategy_suite(n_flows: usize) -> Vec<Box<dyn BundlingStrategy + Sync>> {
    let mut strategies: Vec<Box<dyn BundlingStrategy + Sync>> = StrategyKind::ALL
        .iter()
        .map(|&kind| kind.build() as Box<dyn BundlingStrategy + Sync>)
        .collect();
    strategies.push(Box::new(ClassAware::new(
        WeightKind::PotentialProfit,
        (0..n_flows).map(|i| i % 2).collect(),
    )));
    strategies.push(Box::new(NaturalBreaks));
    strategies.push(Box::new(DemandMassDivision));
    strategies
}

// ---------------------------------------------------------------------------
// Coalesce oracle
// ---------------------------------------------------------------------------

/// Largest raw-market size the ε-bound oracle enumerates exhaustively
/// (Bell(10) ≈ 1.2e5 partitions per sweep — cheap; well under
/// [`OptimalExhaustive::MAX_FLOWS`]).
pub const MAX_EXHAUSTIVE_RAW_FLOWS: usize = 10;

/// The two deviation budgets of the ε > 0 coalescing contract.
///
/// `d_exact` is the realized deviation bound: for the *actual* grouping,
/// the total score of any partition computed from quantized
/// (representative) terms differs from its true raw score by at most
/// `d_exact`. `d_eps` is the a-priori bound: the same quantity bounded
/// only by ε and the raw flows, before knowing which flows merged. The
/// contract chain is
///
/// ```text
/// 0 ≤ π_raw − π_ε ≤ 2·d_exact ≤ 2·d_eps(ε)
/// ```
///
/// where `π_raw` is the exhaustive optimum of the raw market and `π_ε`
/// the exhaustive optimum over group-respecting partitions (what
/// bundling the coalesced market searches).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpsilonBounds {
    /// Deviation budget of the realized grouping.
    pub d_exact: f64,
    /// A-priori deviation budget as an explicit function of ε.
    pub d_eps: f64,
}

/// Computes the ε-coalescing deviation budgets for a CED market.
///
/// CED score terms are `a_i = v_i^α`, `b_i = c_i·a_i`, and a bundle with
/// sums `(A, C)` scores `s = A/α · p^{1−α}` at `p = α·C/((α−1)·A)`. The
/// partial derivatives are `∂s/∂A = p^{1−α}` and `∂s/∂C = −p^{−α}`;
/// along any segment between a bundle's raw and quantized sums, `C/A`
/// stays a weighted mean of member costs (representatives are real
/// flows), so `p ≥ p_lb = α/(α−1)·min_i c_i` and the gradient is bounded
/// by `G_A = p_lb^{1−α}`, `G_C = p_lb^{−α}`. Summing per-flow term
/// deviations gives `d_exact`; substituting the quantization guarantees
/// `|v_i − v_rep| < ε`, `|c_i − c_rep| < ε` gives the explicit function
/// of ε:
///
/// ```text
/// d_eps = Σ_i  G_A·αε(v_i+ε)^{α−1}
///            + G_C·(c_i·αε(v_i+ε)^{α−1} + ε·(v_i+ε)^α)
/// ```
///
/// Returns `None` when the bound does not apply (non-CED terms are not
/// additive profits; non-positive costs/valuations break `p_lb`).
pub fn epsilon_deviation_bounds<M: TransitMarket>(
    cm: &CoalescedMarket<M>,
    alpha: f64,
) -> Option<EpsilonBounds> {
    if alpha.is_nan() || alpha <= 1.0 {
        return None;
    }
    let inner = cm.inner();
    let terms = inner.score_terms();
    let costs = inner.costs();
    let vals = inner.valuations();
    let eps = cm.epsilon();
    let c_min = costs.iter().copied().fold(f64::INFINITY, f64::min);
    if !c_min.is_finite() || c_min <= 0.0 || vals.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return None;
    }
    let p_lb = alpha / (alpha - 1.0) * c_min;
    let g_a = p_lb.powf(1.0 - alpha);
    let g_c = p_lb.powf(-alpha);

    let mut d_exact = 0.0;
    for members in cm.groups() {
        let rep = members[0] as usize;
        for &m in members {
            let i = m as usize;
            d_exact +=
                g_a * (terms.a[i] - terms.a[rep]).abs() + g_c * (terms.b[i] - terms.b[rep]).abs();
        }
    }

    let mut d_eps = 0.0;
    for i in 0..inner.n_flows() {
        let (v, c) = (vals[i], costs[i]);
        let da = alpha * eps * (v + eps).powf(alpha - 1.0);
        let db = c * da + eps * (v + eps).powf(alpha);
        d_eps += g_a * da + g_c * db;
    }

    Some(EpsilonBounds { d_exact, d_eps })
}

/// Best profit over all budgets `1..=max` via one exhaustive sweep.
fn exhaustive_best_profit(
    market: &dyn TransitMarket,
    max: usize,
    family: &'static str,
) -> Result<f64, Divergence> {
    let series = OptimalExhaustive
        .bundle_series(market, max)
        .map_err(|e| div(family, format!("exhaustive sweep failed: {e:?}")))?;
    let mut best = f64::NEG_INFINITY;
    for b in &series {
        let p = market
            .profit(b)
            .map_err(|e| div(family, format!("profit eval failed: {e:?}")))?;
        best = best.max(p);
    }
    Ok(best)
}

fn check_coalesce(
    spec: &MarketSpec,
    epsilon: f64,
    replication: usize,
    jitter: f64,
) -> Result<Verdict, Divergence> {
    if replication == 0 || !epsilon.is_finite() || epsilon < 0.0 || !jitter.is_finite() {
        return Ok(Verdict::Skip("degenerate coalesce parameters"));
    }
    let mut pairs = Vec::with_capacity(spec.flows.len() * replication);
    for &(q, d) in &spec.flows {
        for k in 0..replication {
            pairs.push((q + jitter * k as f64, d));
        }
    }
    if !valid_pairs(&pairs) {
        return Ok(Verdict::Skip("invalid flow pairs"));
    }
    let max_bundles = spec.max_bundles.clamp(1, pairs.len());
    let flows = traffic_flows(&pairs);
    match build_market(spec.demand, spec.alpha, &flows) {
        Built::Skip(why) => Ok(Verdict::Skip(why)),
        Built::Ced(m) => coalesce_checks(m, Some(spec.alpha), epsilon, max_bundles),
        Built::Logit(m) => coalesce_checks(m, None, epsilon, max_bundles),
    }
}

/// True when every fitted `(valuation, cost)` pair is bitwise-distinct.
fn duplicate_free(market: &dyn TransitMarket) -> bool {
    let mut seen = std::collections::HashSet::new();
    market
        .valuations()
        .iter()
        .zip(market.costs())
        .all(|(v, c)| seen.insert((v.to_bits(), c.to_bits())))
}

fn coalesce_checks<M: TransitMarket>(
    market: M,
    ced_alpha: Option<f64>,
    epsilon: f64,
    max_bundles: usize,
) -> Result<Verdict, Divergence> {
    const F: &str = "coalesce";
    let dup_free = duplicate_free(&market);
    let n_raw = market.n_flows();
    let cm = CoalescedMarket::with_epsilon(market, epsilon)
        .map_err(|e| div(F, format!("with_epsilon rejected a valid market: {e:?}")))?;

    // (a) Exact grouped evaluation is bitwise at ANY ε: evaluating a
    // group-level bundling through the coalesced view (one weighted entry
    // per run of bitwise-equal flows, summed exactly) must equal
    // expanding it and evaluating on the raw market.
    if cm.original_profit().to_bits() != cm.inner().original_profit().to_bits() {
        return Err(div(F, "original_profit differs from the raw market".into()));
    }
    if cm.max_profit().to_bits() != cm.inner().max_profit().to_bits() {
        return Err(div(F, "max_profit differs from the raw market".into()));
    }
    for strategy in strategy_suite(cm.n_groups()) {
        let series = strategy
            .bundle_series(&cm, max_bundles)
            .map_err(|e| div(F, format!("{}: series failed: {e:?}", strategy.name())))?;
        for (idx, group_b) in series.iter().enumerate() {
            let expanded = cm
                .expand(group_b)
                .map_err(|e| div(F, format!("{}: expand failed: {e:?}", strategy.name())))?;
            let via_cm = cm
                .profit(group_b)
                .map_err(|e| div(F, format!("{}: profit failed: {e:?}", strategy.name())))?;
            let via_raw = cm
                .inner()
                .profit(&expanded)
                .map_err(|e| div(F, format!("{}: raw profit failed: {e:?}", strategy.name())))?;
            if via_cm.to_bits() != via_raw.to_bits() {
                return Err(div(
                    F,
                    format!(
                        "{} b={}: grouped profit diverged from raw ({via_cm} vs {via_raw})",
                        strategy.name(),
                        idx + 1
                    ),
                ));
            }
            let prices_cm = cm
                .bundle_prices(group_b)
                .map_err(|e| div(F, format!("{}: prices failed: {e:?}", strategy.name())))?;
            let prices_raw = cm
                .inner()
                .bundle_prices(&expanded)
                .map_err(|e| div(F, format!("{}: raw prices failed: {e:?}", strategy.name())))?;
            let same = prices_cm.len() == prices_raw.len()
                && prices_cm
                    .iter()
                    .zip(&prices_raw)
                    .all(|(a, b)| match (a, b) {
                        (Some(x), Some(y)) => x.to_bits() == y.to_bits(),
                        (None, None) => true,
                        _ => false,
                    });
            if !same {
                return Err(div(
                    F,
                    format!(
                        "{} b={}: grouped bundle prices diverged from raw",
                        strategy.name(),
                        idx + 1
                    ),
                ));
            }
        }
    }

    // (b) ε = 0 on a duplicate-free market is a pure no-op: same group
    // count and identical assignments for every strategy.
    if epsilon == 0.0 && dup_free {
        if cm.n_groups() != n_raw {
            return Err(div(
                F,
                format!(
                    "ε=0 merged duplicate-free flows: {} groups from {} flows",
                    cm.n_groups(),
                    n_raw
                ),
            ));
        }
        for strategy in strategy_suite(n_raw) {
            let via_cm = strategy
                .bundle_series(&cm, max_bundles)
                .map_err(|e| div(F, format!("{}: series failed: {e:?}", strategy.name())))?;
            let via_raw = strategy
                .bundle_series(cm.inner(), max_bundles)
                .map_err(|e| div(F, format!("{}: raw series failed: {e:?}", strategy.name())))?;
            for (g, r) in via_cm.iter().zip(&via_raw) {
                let expanded = cm
                    .expand(g)
                    .map_err(|e| div(F, format!("{}: expand failed: {e:?}", strategy.name())))?;
                if expanded.assignment() != r.assignment() {
                    return Err(div(
                        F,
                        format!("{}: ε=0 no-op changed an assignment", strategy.name()),
                    ));
                }
            }
        }
    }

    // (c) ε ≥ 0 CED bound: the group-respecting optimum loses at most
    // 2·d_exact ≤ 2·d_eps(ε) against the unrestricted optimum.
    if let Some(alpha) = ced_alpha {
        if n_raw <= MAX_EXHAUSTIVE_RAW_FLOWS {
            if let Some(bounds) = epsilon_deviation_bounds(&cm, alpha) {
                let pi_raw = exhaustive_best_profit(cm.inner(), n_raw, F)?;
                let pi_eps = exhaustive_best_profit(&cm, cm.n_groups(), F)?;
                let tol = 1e-7 * (pi_raw.abs() + 1.0);
                if pi_eps > pi_raw + tol {
                    return Err(div(
                        F,
                        format!(
                            "coalesced optimum exceeds raw optimum: {pi_eps} > {pi_raw} (ε={epsilon})"
                        ),
                    ));
                }
                if pi_raw - pi_eps > 2.0 * bounds.d_exact + tol {
                    return Err(div(
                        F,
                        format!(
                            "profit loss {} exceeds 2·d_exact = {} (ε={epsilon})",
                            pi_raw - pi_eps,
                            2.0 * bounds.d_exact
                        ),
                    ));
                }
                if bounds.d_exact > bounds.d_eps + tol {
                    return Err(div(
                        F,
                        format!(
                            "realized deviation budget {} exceeds a-priori ε bound {} (ε={epsilon})",
                            bounds.d_exact, bounds.d_eps
                        ),
                    ));
                }
            }
        }
    }

    Ok(Verdict::Pass)
}

// ---------------------------------------------------------------------------
// Tiled DP oracle
// ---------------------------------------------------------------------------

fn check_tiled_dp(pairs: &[(f64, f64)], max_bundles: usize) -> Result<Verdict, Divergence> {
    const F: &str = "tiled_dp";
    if !valid_pairs(pairs) || pairs.len() < 2 {
        return Ok(Verdict::Skip("invalid flow pairs"));
    }
    let max_bundles = max_bundles.clamp(1, 16);
    let flows = traffic_flows(pairs);
    let Built::Ced(market) = build_market(DemandSpec::Ced, 1.2, &flows) else {
        return Ok(Verdict::Skip("CED fit failed"));
    };
    let serial = OptimalDp::with_threads(1)
        .bundle_series(&market, max_bundles)
        .map_err(|e| div(F, format!("serial DP failed: {e:?}")))?;
    // Pool budgets {1, 2, 8}: `dp_threads` is a cap within the budget,
    // so budget 1 forces the inline fallback (a tiled request still
    // answers serially) and budget 8 schedules real tile tasks even on
    // a small machine.
    for budget in [1usize, 2, 8] {
        let _budget = transit_pool::scoped_budget(budget);
        for threads in [2usize, 8] {
            let tiled = OptimalDp::with_threads(threads)
                .bundle_series(&market, max_bundles)
                .map_err(|e| {
                    div(
                        F,
                        format!("dp_threads={threads} budget={budget} failed: {e:?}"),
                    )
                })?;
            if tiled.len() != serial.len() {
                return Err(div(
                    F,
                    format!(
                        "dp_threads={threads} budget={budget}: series length {} vs serial {}",
                        tiled.len(),
                        serial.len()
                    ),
                ));
            }
            for (idx, (t, s)) in tiled.iter().zip(&serial).enumerate() {
                if t.assignment() != s.assignment() || t.n_bundles() != s.n_bundles() {
                    return Err(div(
                        F,
                        format!(
                            "dp_threads={threads} budget={budget} diverges from serial at b={} (n={})",
                            idx + 1,
                            pairs.len()
                        ),
                    ));
                }
            }
        }
    }
    Ok(Verdict::Pass)
}

// ---------------------------------------------------------------------------
// Series oracle
// ---------------------------------------------------------------------------

fn check_series(spec: &MarketSpec) -> Result<Verdict, Divergence> {
    const F: &str = "series";
    if !valid_pairs(&spec.flows) || spec.flows.len() < 2 {
        return Ok(Verdict::Skip("invalid flow pairs"));
    }
    let max_bundles = spec.max_bundles.clamp(1, 12);
    let flows = traffic_flows(&spec.flows);
    let market: Box<dyn TransitMarket + Sync> = match build_market(spec.demand, spec.alpha, &flows)
    {
        Built::Skip(why) => return Ok(Verdict::Skip(why)),
        Built::Ced(m) => Box::new(m),
        Built::Logit(m) => Box::new(m),
    };
    let mut strategies = strategy_suite(flows.len());
    if flows.len() <= 9 {
        strategies.push(Box::new(OptimalExhaustive));
    }
    for strategy in strategies {
        let series = strategy
            .bundle_series(market.as_ref(), max_bundles)
            .map_err(|e| div(F, format!("{}: series failed: {e:?}", strategy.name())))?;
        if series.len() != max_bundles {
            return Err(div(
                F,
                format!(
                    "{}: series length {} != max_bundles {}",
                    strategy.name(),
                    series.len(),
                    max_bundles
                ),
            ));
        }
        for (idx, from_series) in series.iter().enumerate() {
            let b = idx + 1;
            let from_point = strategy
                .bundle(market.as_ref(), b)
                .map_err(|e| div(F, format!("{}: bundle({b}) failed: {e:?}", strategy.name())))?;
            if from_series.assignment() != from_point.assignment()
                || from_series.n_bundles() != from_point.n_bundles()
            {
                return Err(div(
                    F,
                    format!(
                        "{}: one-pass series diverges from per-point at b={b} ({} {} flows)",
                        strategy.name(),
                        spec.demand.name(),
                        flows.len()
                    ),
                ));
            }
        }
    }

    // Pooled curves phase: `capture_curves` fans the per-strategy loop
    // out on the pool; at every budget it must be bitwise equal to the
    // serial loop (tasks are pure; results merge by submission index,
    // so worker scheduling cannot reorder or perturb them).
    let curve_suite = strategy_suite(flows.len());
    let refs: Vec<&(dyn BundlingStrategy + Sync)> = curve_suite.iter().map(AsRef::as_ref).collect();
    let serial: Vec<_> = match refs
        .iter()
        .map(|s| capture_curve(market.as_ref(), *s, max_bundles))
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(v) => v,
        // A curve can be legitimately infeasible (degenerate headroom);
        // the series assertions above already held, so the scenario
        // still passes — there is just no curve pair to compare.
        Err(_) => return Ok(Verdict::Pass),
    };
    for budget in [1usize, 2, 8] {
        let _budget = transit_pool::scoped_budget(budget);
        let pooled = capture_curves(market.as_ref(), &refs, max_bundles)
            .map_err(|e| div(F, format!("pooled curves failed at budget {budget}: {e:?}")))?;
        if pooled.len() != serial.len() {
            return Err(div(
                F,
                format!(
                    "budget {budget}: pooled curve count {} vs serial {}",
                    pooled.len(),
                    serial.len()
                ),
            ));
        }
        for (p, s) in pooled.iter().zip(&serial) {
            let same = p.strategy == s.strategy
                && p.n_bundles == s.n_bundles
                && p.capture.len() == s.capture.len()
                && p.profit.len() == s.profit.len()
                && p.capture
                    .iter()
                    .zip(&s.capture)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
                && p.profit
                    .iter()
                    .zip(&s.profit)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                return Err(div(
                    F,
                    format!(
                        "budget {budget}: pooled capture_curves diverges from the \
                         serial loop for {} ({} {} flows)",
                        p.strategy,
                        spec.demand.name(),
                        flows.len()
                    ),
                ));
            }
        }
    }
    Ok(Verdict::Pass)
}

// ---------------------------------------------------------------------------
// Ingest oracle
// ---------------------------------------------------------------------------

/// Deterministic flow key for flow index `f` (pure function: the same
/// scenario always yields the same export stream).
fn flow_key(f: usize) -> FlowKey {
    let f = f as u32;
    FlowKey {
        src_addr: Ipv4Addr::from(0x0A00_0000u32 | (f & 0xFFFF)),
        dst_addr: Ipv4Addr::from(0xC0A8_0000u32 | ((f.wrapping_mul(2654435761)) & 0xFFFF)),
        src_port: 1024 + (f % 40000) as u16,
        dst_port: if f.is_multiple_of(3) { 443 } else { 80 },
        protocol: if f.is_multiple_of(4) { 17 } else { 6 },
    }
}

/// Encodes the scenario's export stream: every router exports every
/// flow through a real `Exporter`, headers get the scenario's sequence
/// offset (exercising mid-stream `u32` wraparound), router streams are
/// interleaved round-robin, and the fault list is applied on top.
pub fn materialize_stream(s: &IngestScenario) -> Vec<Vec<u8>> {
    let rate = s.sampling_rate.max(1);
    let mut per_router: Vec<Vec<Vec<u8>>> = Vec::with_capacity(s.n_routers);
    for r in 0..s.n_routers {
        let mut exporter = Exporter::new(r as u8, SystematicSampler::new(rate));
        for f in 0..s.n_flows {
            let count = s.packets_per_flow + (f % 5) as u64;
            exporter.observe_packets(flow_key(f), count, s.packet_bytes);
        }
        let mut encoded = Vec::new();
        for mut packet in exporter.flush(1_300_000_000 + r as u32) {
            packet.header.flow_sequence = packet.header.flow_sequence.wrapping_add(s.seq_base);
            encoded.push(packet.encode().to_vec());
        }
        per_router.push(encoded);
    }
    // Round-robin interleave keeps each router's sequence order while
    // mixing engine ids in arrival order.
    let mut stream = Vec::new();
    let mut cursor = 0;
    loop {
        let mut any = false;
        for router in &per_router {
            if let Some(dgram) = router.get(cursor) {
                stream.push(dgram.clone());
                any = true;
            }
        }
        if !any {
            break;
        }
        cursor += 1;
    }
    apply_faults(&s.faults, &mut stream);
    stream
}

/// Everything the ingest oracle compares between collectors.
#[derive(Debug, PartialEq)]
struct IngestObservation {
    stats: (u64, u64, u64),
    lost_total: u64,
    lost_per_engine: Vec<u64>,
    flow_count: usize,
    measured: Vec<transit_netflow::MeasuredFlow>,
    summed: Vec<transit_netflow::MeasuredFlow>,
}

fn observe(collector: &Collector, n_routers: usize) -> IngestObservation {
    IngestObservation {
        stats: collector.stats(),
        lost_total: collector.lost_records(),
        lost_per_engine: (0..n_routers.max(1))
            .map(|r| collector.lost_records_from(r as u8))
            .collect(),
        flow_count: collector.flow_count(),
        measured: collector.measured_flows(),
        summed: collector.summed_flows(),
    }
}

/// Serializes ingest-oracle runs within this process: the oracle
/// asserts on deltas of the process-global metrics registry, which a
/// concurrently running oracle (e.g. two `#[test]`s in one binary)
/// would interleave. Poisoning is ignored — a panicked holder cannot
/// corrupt the registry, only its own assertion.
static INGEST_ORACLE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn check_ingest(s: &IngestScenario) -> Result<Verdict, Divergence> {
    const F: &str = "ingest";
    if s.n_flows == 0 || s.n_routers == 0 {
        return Ok(Verdict::Skip("empty ingest scenario"));
    }
    let stream = materialize_stream(s);
    if stream.is_empty() {
        return Ok(Verdict::Skip("sampling produced no datagrams"));
    }
    let _guard = INGEST_ORACLE_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());

    // Reference: one serial collector, one datagram at a time; decode
    // failures are expected under fault injection.
    let before = CollectorStats::snapshot();
    let mut reference = Collector::new();
    for dgram in &stream {
        let _ = reference.ingest(dgram);
    }
    let expected = observe(&reference, s.n_routers);
    let expected_delta = CollectorStats::snapshot().delta_since(&before);

    // Pool budgets {1, 2, 8}: the decode fan-out clamps its workers at
    // the budget, so budget 1 pins the serial fallback even when 8
    // workers are requested, and budget 8 schedules real decode tasks
    // on any machine. The full shard × worker grid runs at budget 8
    // (the historical coverage, now with guaranteed parallelism); the
    // lower budgets re-run the widest request per shard count.
    for budget in [1usize, 2, 8] {
        let _budget = transit_pool::scoped_budget(budget);
        let worker_grid: &[usize] = if budget == 8 { &[1, 2, 8] } else { &[8] };
        for shards in [1usize, 4, 16] {
            for &workers in worker_grid {
                let before = CollectorStats::snapshot();
                let mut collector = Collector::with_shards_and_workers(shards, workers);
                collector.ingest_batch(&stream);
                let got = observe(&collector, s.n_routers);
                let delta = CollectorStats::snapshot().delta_since(&before);
                let combo = format!("shards={shards} workers={workers} budget={budget}");
                if got != expected {
                    return Err(div(
                        F,
                        format!(
                            "{combo}: batch ingest diverges from serial reference \
                         (stats {:?} vs {:?}, lost {} vs {}, flows {} vs {})",
                            got.stats,
                            expected.stats,
                            got.lost_total,
                            expected.lost_total,
                            got.flow_count,
                            expected.flow_count
                        ),
                    ));
                }
                // Registry deltas: the batch path must move the process-wide
                // counters exactly as serial ingest did, and route every
                // record through the sharded counter.
                if (
                    delta.datagrams,
                    delta.records,
                    delta.decode_errors,
                    delta.lost_records,
                ) != (
                    expected_delta.datagrams,
                    expected_delta.records,
                    expected_delta.decode_errors,
                    expected_delta.lost_records,
                ) {
                    return Err(div(
                        F,
                        format!(
                            "{combo}: registry delta {delta:?} diverges from serial \
                         reference delta {expected_delta:?}"
                        ),
                    ));
                }
                if delta.sharded_records != delta.records {
                    return Err(div(
                        F,
                        format!(
                            "{combo}: sharded_records delta {} != records delta {}",
                            delta.sharded_records, delta.records
                        ),
                    ));
                }
                // Accounting consistency: every datagram is either counted or
                // a decode error, and every stored flow lives in exactly one
                // shard.
                let (datagrams, _records, decode_errors) = got.stats;
                if datagrams + decode_errors != stream.len() as u64 {
                    return Err(div(
                        F,
                        format!(
                            "{combo}: datagrams {datagrams} + decode_errors {decode_errors} \
                         != stream length {}",
                            stream.len()
                        ),
                    ));
                }
                let occupancy: usize = collector.shard_occupancy().iter().sum();
                if occupancy != got.flow_count {
                    return Err(div(
                        F,
                        format!(
                            "{combo}: shard occupancy {occupancy} != flow count {}",
                            got.flow_count
                        ),
                    ));
                }
            }
        }
    }
    Ok(Verdict::Pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Family;

    #[test]
    fn generated_scenarios_pass_all_families() {
        for family in Family::ALL {
            for seed in 0..6u64 {
                let scenario = Scenario::generate(family, seed);
                let verdict = check(&scenario)
                    .unwrap_or_else(|d| panic!("{} seed {seed}: {d}", family.name()));
                let _ = verdict;
            }
        }
    }

    #[test]
    fn ingest_stream_is_deterministic() {
        let Scenario::Ingest(s) = Scenario::generate(Family::Ingest, 3) else {
            panic!("wrong family");
        };
        assert_eq!(materialize_stream(&s), materialize_stream(&s));
    }

    #[test]
    fn epsilon_bounds_are_zero_at_epsilon_zero() {
        let flows = traffic_flows(&[(10.0, 100.0), (20.0, 200.0), (30.0, 300.0)]);
        let Built::Ced(market) = build_market(DemandSpec::Ced, 1.2, &flows) else {
            panic!("fit failed");
        };
        let cm = CoalescedMarket::new(market).unwrap();
        let bounds = epsilon_deviation_bounds(&cm, 1.2).unwrap();
        assert_eq!(bounds.d_exact, 0.0);
        assert_eq!(bounds.d_eps, 0.0);
    }
}
