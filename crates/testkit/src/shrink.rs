//! Greedy scenario shrinker.
//!
//! The vendored proptest shim has no shrinking, so the harness carries
//! its own: given a scenario whose oracle reports a [`Divergence`], try
//! one-step reductions (fewer flows, fewer faults, smaller knobs) and
//! greedily adopt the first reduction that still fails. Aggressive
//! reductions (halving, clearing whole fault lists) come first so large
//! scenarios collapse in few oracle runs; fine-grained single-element
//! removals polish the result.

use crate::oracle::{check, Divergence};
use crate::scenario::{DemandSpec, IngestScenario, MarketSpec, Scenario};

/// Upper bound on adopted shrink steps (each step runs the oracle over
/// every candidate until one fails, so this also bounds total work).
pub const MAX_SHRINK_STEPS: usize = 200;

/// Cap on per-element removal candidates for very large flow lists.
const MAX_ELEMENT_CANDIDATES: usize = 32;

/// Result of minimizing a failing scenario.
#[derive(Debug, Clone)]
pub struct ShrinkReport {
    /// The smallest scenario found that still diverges.
    pub scenario: Scenario,
    /// The divergence the minimized scenario produces.
    pub divergence: Divergence,
    /// Reductions adopted.
    pub steps: usize,
    /// Total oracle evaluations spent shrinking.
    pub evaluations: usize,
}

/// Greedily minimizes `scenario`, which must currently fail with
/// `divergence`. Every adopted candidate is re-checked, so the returned
/// scenario is guaranteed to still diverge.
pub fn shrink(scenario: Scenario, divergence: Divergence) -> ShrinkReport {
    let mut current = scenario;
    let mut current_div = divergence;
    let mut steps = 0;
    let mut evaluations = 0;
    'outer: while steps < MAX_SHRINK_STEPS {
        for candidate in candidates(&current) {
            evaluations += 1;
            if let Err(d) = check(&candidate) {
                current = candidate;
                current_div = d;
                steps += 1;
                continue 'outer;
            }
        }
        break; // no candidate still fails: local minimum
    }
    ShrinkReport {
        scenario: current,
        divergence: current_div,
        steps,
        evaluations,
    }
}

/// One-step reductions of `scenario`, most aggressive first.
pub fn candidates(scenario: &Scenario) -> Vec<Scenario> {
    match scenario {
        Scenario::Coalesce {
            market,
            epsilon,
            replication,
            jitter,
        } => {
            let mut out = Vec::new();
            for m in market_candidates(market) {
                out.push(Scenario::Coalesce {
                    market: m,
                    epsilon: *epsilon,
                    replication: *replication,
                    jitter: *jitter,
                });
            }
            if *replication > 1 {
                for r in [1, replication - 1] {
                    out.push(Scenario::Coalesce {
                        market: market.clone(),
                        epsilon: *epsilon,
                        replication: r,
                        jitter: *jitter,
                    });
                }
            }
            if *jitter != 0.0 {
                out.push(Scenario::Coalesce {
                    market: market.clone(),
                    epsilon: *epsilon,
                    replication: *replication,
                    jitter: 0.0,
                });
            }
            if *epsilon != 0.0 {
                out.push(Scenario::Coalesce {
                    market: market.clone(),
                    epsilon: 0.0,
                    replication: *replication,
                    jitter: *jitter,
                });
            }
            out
        }
        Scenario::TiledDp { flows, max_bundles } => {
            let mut out = Vec::new();
            for f in flow_candidates(flows) {
                out.push(Scenario::TiledDp {
                    flows: f,
                    max_bundles: *max_bundles,
                });
            }
            if *max_bundles > 1 {
                out.push(Scenario::TiledDp {
                    flows: flows.clone(),
                    max_bundles: max_bundles - 1,
                });
            }
            out
        }
        Scenario::Series { market } => market_candidates(market)
            .into_iter()
            .map(|m| Scenario::Series { market: m })
            .collect(),
        Scenario::Ingest(s) => ingest_candidates(s)
            .into_iter()
            .map(Scenario::Ingest)
            .collect(),
    }
}

fn flow_candidates(flows: &[(f64, f64)]) -> Vec<Vec<(f64, f64)>> {
    let mut out = Vec::new();
    if flows.len() > 2 {
        out.push(flows[..flows.len() / 2].to_vec());
        out.push(flows[flows.len() / 2..].to_vec());
    }
    if flows.len() > 1 {
        for i in 0..flows.len().min(MAX_ELEMENT_CANDIDATES) {
            let mut f = flows.to_vec();
            f.remove(i);
            out.push(f);
        }
    }
    out
}

fn market_candidates(market: &MarketSpec) -> Vec<MarketSpec> {
    let mut out = Vec::new();
    for flows in flow_candidates(&market.flows) {
        out.push(MarketSpec {
            flows,
            ..market.clone()
        });
    }
    if market.max_bundles > 1 {
        out.push(MarketSpec {
            max_bundles: market.max_bundles - 1,
            ..market.clone()
        });
    }
    if market.demand == DemandSpec::Logit {
        out.push(MarketSpec {
            demand: DemandSpec::Ced,
            ..market.clone()
        });
    }
    out
}

fn ingest_candidates(s: &IngestScenario) -> Vec<IngestScenario> {
    let mut out = Vec::new();
    if !s.faults.is_empty() {
        out.push(IngestScenario {
            faults: Vec::new(),
            ..s.clone()
        });
        for i in 0..s.faults.len() {
            let mut faults = s.faults.clone();
            faults.remove(i);
            out.push(IngestScenario {
                faults,
                ..s.clone()
            });
        }
    }
    if s.n_flows > 1 {
        out.push(IngestScenario {
            n_flows: s.n_flows / 2,
            ..s.clone()
        });
        out.push(IngestScenario {
            n_flows: s.n_flows - 1,
            ..s.clone()
        });
    }
    if s.n_routers > 1 {
        out.push(IngestScenario {
            n_routers: s.n_routers - 1,
            ..s.clone()
        });
    }
    if s.sampling_rate > 1 {
        out.push(IngestScenario {
            sampling_rate: 1,
            ..s.clone()
        });
    }
    if s.packets_per_flow > 1 {
        out.push(IngestScenario {
            packets_per_flow: s.packets_per_flow / 2,
            ..s.clone()
        });
    }
    if s.seq_base != 0 {
        out.push(IngestScenario {
            seq_base: 0,
            ..s.clone()
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Family;

    #[test]
    fn candidates_are_strictly_simpler() {
        for family in Family::ALL {
            for seed in 0..10u64 {
                let scenario = Scenario::generate(family, seed);
                for candidate in candidates(&scenario) {
                    assert_ne!(candidate, scenario, "{} seed {seed}", family.name());
                    assert_eq!(candidate.family(), family);
                }
            }
        }
    }

    #[test]
    fn shrink_terminates_on_passing_candidates() {
        // A failing scenario whose reductions all pass shrinks to itself.
        let scenario = Scenario::generate(Family::Ingest, 1);
        let report = shrink(
            scenario.clone(),
            Divergence {
                family: "ingest",
                detail: "synthetic".into(),
            },
        );
        // Generated scenarios pass the oracle, so no candidate is adopted.
        assert_eq!(report.steps, 0);
        assert_eq!(report.scenario, scenario);
        assert_eq!(report.divergence.detail, "synthetic");
    }
}
