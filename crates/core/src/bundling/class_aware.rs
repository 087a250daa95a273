//! Class-aware profit-weighted bundling (§4.3.1, destination-type cost
//! model).
//!
//! With two sharply distinct cost classes ("on-net" vs "off-net"), plain
//! profit weighting can place flows from both classes in one bundle, which
//! produces the profit *dips* the paper observes when the bundle count
//! passes the class count. The paper's fix: "update the profit-weighting
//! heuristic to never group traffic from two different classes into the
//! same bundle". [`ClassAware`] implements that as a wrapper: bundles are
//! apportioned to classes (proportionally to class weight, at least one
//! each when possible), and the token-bucket algorithm runs *within* each
//! class.

use super::token_bucket::{token_bucket_assign_ordered, weight_order};
use super::weights::WeightKind;
use super::{Bundling, BundlingStrategy};
use crate::error::{Result, TransitError};
use crate::market::TransitMarket;

/// Token-bucket bundling that never mixes flow classes within a bundle.
#[derive(Debug, Clone)]
pub struct ClassAware {
    kind: WeightKind,
    classes: Vec<usize>,
}

impl ClassAware {
    /// Creates the strategy. `classes[i]` is the class label of flow `i`
    /// (e.g. 0 = on-net, 1 = off-net); labels may be any small integers.
    pub fn new(kind: WeightKind, classes: Vec<usize>) -> ClassAware {
        ClassAware { kind, classes }
    }

    /// Convenience: derive class labels from flows' destination classes.
    pub fn from_dest_classes(kind: WeightKind, flows: &[crate::flow::TrafficFlow]) -> ClassAware {
        let classes = flows
            .iter()
            .map(|f| match f.dest_class {
                crate::flow::DestClass::OnNet => 0,
                crate::flow::DestClass::OffNet => 1,
            })
            .collect();
        ClassAware::new(kind, classes)
    }
}

/// Everything about a (market, class labels) pair that does not depend on
/// the bundle count: weights, traversal orders, and the per-class member
/// partition. Computed once per series.
struct Prepared {
    n: usize,
    weights: Vec<f64>,
    /// Decreasing-weight order over all flows (the fallback path).
    global_order: Vec<usize>,
    /// Distinct classes in first-appearance order.
    class_ids: Vec<usize>,
    /// Total weight per class, aligned with `class_ids`.
    class_weight: Vec<f64>,
    total_weight: f64,
    /// Class indices by decreasing class weight (ties by index).
    heaviest_first: Vec<usize>,
    /// Per class: member flow indices and their weights and traversal order.
    members: Vec<ClassMembers>,
}

struct ClassMembers {
    idx: Vec<usize>,
    w: Vec<f64>,
    order: Vec<usize>,
}

impl ClassAware {
    fn prepare(&self, market: &dyn TransitMarket) -> Result<Prepared> {
        let n = market.n_flows();
        if n == 0 {
            return Err(TransitError::EmptyFlowSet);
        }
        if self.classes.len() != n {
            return Err(TransitError::InvalidBundling {
                reason: "class labels length does not match market flow count",
            });
        }
        let weights = self.kind.weights(market)?;
        let global_order = weight_order(&weights);

        // Distinct classes in first-appearance order.
        let mut class_ids: Vec<usize> = Vec::new();
        for &c in &self.classes {
            if !class_ids.contains(&c) {
                class_ids.push(c);
            }
        }

        let members: Vec<ClassMembers> = class_ids
            .iter()
            .map(|&cid| {
                let idx: Vec<usize> = (0..n).filter(|&i| self.classes[i] == cid).collect();
                let w: Vec<f64> = idx.iter().map(|&i| weights[i]).collect();
                let order = weight_order(&w);
                ClassMembers { idx, w, order }
            })
            .collect();
        let class_weight: Vec<f64> = members.iter().map(|m| m.w.iter().sum()).collect();
        let total_weight: f64 = class_weight.iter().sum();
        let mut heaviest_first: Vec<usize> = (0..class_ids.len()).collect();
        heaviest_first.sort_by(|&i, &j| {
            class_weight[j]
                .partial_cmp(&class_weight[i])
                .expect("finite weights")
                .then(i.cmp(&j))
        });

        Ok(Prepared {
            n,
            weights,
            global_order,
            class_ids,
            class_weight,
            total_weight,
            heaviest_first,
            members,
        })
    }

    /// The bundle-count-dependent part: apportion bundles to classes and
    /// token-bucket within each class.
    fn assign(p: &Prepared, n_bundles: usize) -> Result<Vec<usize>> {
        // With fewer bundles than classes we cannot keep classes separate;
        // fall back to plain (class-oblivious) token bucketing, as a
        // one-bundle ISP necessarily blends everything.
        if n_bundles < p.class_ids.len() {
            return token_bucket_assign_ordered(&p.weights, &p.global_order, n_bundles);
        }

        // Apportion bundles to classes: one each, remainder by class
        // weight (largest-remainder style, deterministic).
        let spare = n_bundles - p.class_ids.len();
        let mut alloc: Vec<usize> = p
            .class_weight
            .iter()
            .map(|&w| 1 + (w / p.total_weight * spare as f64).floor() as usize)
            .collect();
        let mut assigned: usize = alloc.iter().sum();
        // Distribute any remainder to the heaviest classes.
        let mut k = 0;
        while assigned < n_bundles {
            alloc[p.heaviest_first[k % p.heaviest_first.len()]] += 1;
            assigned += 1;
            k += 1;
        }

        // Token-bucket within each class, offsetting bundle indices.
        let mut assignment = vec![0usize; p.n];
        let mut offset = 0;
        for (ci, m) in p.members.iter().enumerate() {
            let local = token_bucket_assign_ordered(&m.w, &m.order, alloc[ci])?;
            for (pos, &flow) in m.idx.iter().enumerate() {
                assignment[flow] = offset + local[pos];
            }
            offset += alloc[ci];
        }
        Ok(assignment)
    }
}

impl BundlingStrategy for ClassAware {
    fn name(&self) -> &'static str {
        "class-aware-profit-weighted"
    }

    fn bundle(&self, market: &dyn TransitMarket, n_bundles: usize) -> Result<Bundling> {
        if n_bundles == 0 {
            return Err(TransitError::ZeroBundles);
        }
        let prepared = self.prepare(market)?;
        Bundling::new(Self::assign(&prepared, n_bundles)?, n_bundles)
    }

    fn bundle_series(
        &self,
        market: &dyn TransitMarket,
        max_bundles: usize,
    ) -> Result<Vec<Bundling>> {
        if max_bundles == 0 {
            return Ok(Vec::new());
        }
        // Weights, orders, and the class partition are shared across the
        // series; only the apportionment and bucket fill run per `B`.
        let prepared = self.prepare(market)?;
        (1..=max_bundles)
            .map(|b| Bundling::new(Self::assign(&prepared, b)?, b))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::DestTypeCost;
    use crate::demand::ced::CedAlpha;
    use crate::fitting::fit_ced;
    use crate::flow::{split_by_dest_class, DestClass, TrafficFlow};
    use crate::market::CedMarket;

    fn split_market(theta: f64) -> (CedMarket, Vec<TrafficFlow>) {
        let base: Vec<TrafficFlow> = (0..6)
            .map(|i| TrafficFlow::new(i, 10.0 + i as f64 * 7.0, 10.0 + i as f64 * 40.0))
            .collect();
        let split = split_by_dest_class(&base, theta).unwrap();
        let fit = fit_ced(
            &split,
            &DestTypeCost::new(),
            CedAlpha::new(1.1).unwrap(),
            20.0,
        )
        .unwrap();
        (CedMarket::new(fit).unwrap(), split)
    }

    #[test]
    fn never_mixes_classes() {
        let (market, split) = split_market(0.3);
        let strategy = ClassAware::from_dest_classes(WeightKind::PotentialProfit, &split);
        for b in 2..=6 {
            let bundling = strategy.bundle(&market, b).unwrap();
            for members in bundling.members() {
                let classes: std::collections::HashSet<_> =
                    members.iter().map(|&i| split[i].dest_class).collect();
                assert!(classes.len() <= 1, "bundle mixes classes at b={b}");
            }
        }
    }

    #[test]
    fn two_bundles_split_exactly_on_class() {
        let (market, split) = split_market(0.5);
        let strategy = ClassAware::from_dest_classes(WeightKind::PotentialProfit, &split);
        let bundling = strategy.bundle(&market, 2).unwrap();
        for (i, f) in split.iter().enumerate() {
            let expect = match f.dest_class {
                DestClass::OnNet => 0,
                DestClass::OffNet => 1,
            };
            assert_eq!(bundling.assignment()[i], expect);
        }
    }

    #[test]
    fn single_bundle_falls_back_to_blended() {
        let (market, split) = split_market(0.3);
        let strategy = ClassAware::from_dest_classes(WeightKind::PotentialProfit, &split);
        let bundling = strategy.bundle(&market, 1).unwrap();
        assert_eq!(bundling.occupied_bundles(), 1);
    }

    #[test]
    fn all_bundle_indices_valid_and_all_flows_assigned() {
        let (market, split) = split_market(0.1);
        let strategy = ClassAware::from_dest_classes(WeightKind::PotentialProfit, &split);
        for b in 1..=8 {
            let bundling = strategy.bundle(&market, b).unwrap();
            assert_eq!(bundling.n_flows(), split.len());
            assert!(bundling.assignment().iter().all(|&x| x < b));
        }
    }

    #[test]
    fn rejects_mismatched_class_labels() {
        let (market, _) = split_market(0.3);
        let strategy = ClassAware::new(WeightKind::Demand, vec![0, 1]);
        assert!(strategy.bundle(&market, 2).is_err());
    }

    #[test]
    fn stays_competitive_with_plain_weighting() {
        // §4.3.1 claims the class-aware heuristic "works reasonably well"
        // on two-class markets, not that it dominates pointwise; require
        // it never to fall more than a few percent behind plain profit
        // weighting at any bundle count.
        let (market, split) = split_market(0.15);
        let plain = super::super::TokenBucket::new(WeightKind::PotentialProfit);
        let aware = ClassAware::from_dest_classes(WeightKind::PotentialProfit, &split);
        for b in 2..=5 {
            let p_plain = market.profit(&plain.bundle(&market, b).unwrap()).unwrap();
            let p_aware = market.profit(&aware.bundle(&market, b).unwrap()).unwrap();
            assert!(
                p_aware >= 0.95 * p_plain,
                "b={b}: aware {p_aware} far below plain {p_plain}"
            );
        }
    }

    #[test]
    fn profit_monotone_in_bundles_on_two_class_market() {
        // The dip §4.3.1 describes comes from mixing classes; keeping
        // classes separate, adding bundles never hurts here.
        let (market, split) = split_market(0.15);
        let aware = ClassAware::from_dest_classes(WeightKind::PotentialProfit, &split);
        let mut last = f64::NEG_INFINITY;
        for b in 2..=6 {
            let p = market.profit(&aware.bundle(&market, b).unwrap()).unwrap();
            assert!(p >= last - 1e-9, "b={b}: profit dipped {p} < {last}");
            last = p;
        }
    }
}
