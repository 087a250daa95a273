//! Duopoly competition — an extension beyond the paper.
//!
//! The paper folds competitors into *residual* demand ("our model does
//! not capture full dynamic interaction between competing ISPs", §3.2.1).
//! This module makes the competitive interaction explicit for the
//! smallest interesting case: two ISPs selling substitutable transit for
//! two traffic segments (e.g. local and long-haul), each consumer running
//! a logit choice between ISP A, ISP B, and not buying.
//!
//! Each ISP posts either one blended rate across both segments or one
//! price per segment ("tiered"). A **Nash equilibrium in prices** is
//! computed by best-response iteration: given the rival's prices, an
//! ISP's best response maximizes its own profit, a well-behaved 1-D
//! problem per posted price (golden-section). Standard logit-pricing
//! results make this converge quickly.
//!
//! The headline experiment (`ext_competition`): the paper's single-ISP
//! result — tiering raises profit — survives competition, and the *first*
//! mover gains most: when A tiers while B stays blended, A's equilibrium
//! profit rises and B's falls; when both tier, both beat the
//! blended-blended equilibrium.

use serde::Serialize;
use transit_core::error::{Result, TransitError};
use transit_core::optimize::golden_section_max;

/// Number of traffic segments in this model.
pub const SEGMENTS: usize = 2;

/// A two-ISP, two-segment transit market.
///
/// ```
/// use transit_market::competition::{symmetric_transit_duopoly, Regime};
///
/// let market = symmetric_transit_duopoly();
/// let blended = market.equilibrium(Regime::Blended, Regime::Blended)?;
/// let tiered = market.equilibrium(Regime::Tiered, Regime::Blended)?;
/// // Tiering first beats staying blended.
/// assert!(tiered.profit_a > blended.profit_a);
/// # Ok::<(), transit_core::error::TransitError>(())
/// ```
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Duopoly {
    /// Logit price sensitivity (> 0).
    pub alpha: f64,
    /// Consumer mass per segment.
    pub consumers: [f64; SEGMENTS],
    /// Willingness-to-pay per segment (shared by both ISPs' offers).
    pub valuations: [f64; SEGMENTS],
    /// ISP A's unit cost per segment.
    pub costs_a: [f64; SEGMENTS],
    /// ISP B's unit cost per segment.
    pub costs_b: [f64; SEGMENTS],
}

/// Pricing regime of one ISP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Regime {
    /// One price across both segments.
    Blended,
    /// One price per segment.
    Tiered,
}

/// A computed price equilibrium.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Equilibrium {
    /// ISP A's per-segment prices (equal under blended).
    pub prices_a: [f64; SEGMENTS],
    /// ISP B's per-segment prices.
    pub prices_b: [f64; SEGMENTS],
    /// ISP A's equilibrium profit.
    pub profit_a: f64,
    /// ISP B's equilibrium profit.
    pub profit_b: f64,
    /// Best-response iterations until convergence.
    pub iterations: usize,
}

impl Duopoly {
    fn validate(&self) -> Result<()> {
        for (name, value) in [
            ("alpha", self.alpha),
            ("consumers[0]", self.consumers[0]),
            ("consumers[1]", self.consumers[1]),
            ("valuations[0]", self.valuations[0]),
            ("valuations[1]", self.valuations[1]),
            ("costs_a[0]", self.costs_a[0]),
            ("costs_a[1]", self.costs_a[1]),
            ("costs_b[0]", self.costs_b[0]),
            ("costs_b[1]", self.costs_b[1]),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return Err(TransitError::InvalidParameter {
                    name: "duopoly",
                    value,
                    expected: "all duopoly parameters finite and > 0",
                });
            }
            let _ = name;
        }
        Ok(())
    }

    /// Segment-`i` logit shares of (A, B) at the given prices.
    fn shares(&self, i: usize, pa: f64, pb: f64) -> (f64, f64) {
        let ua = self.alpha * (self.valuations[i] - pa);
        let ub = self.alpha * (self.valuations[i] - pb);
        let m = ua.max(ub).max(0.0);
        let ea = (ua - m).exp();
        let eb = (ub - m).exp();
        let e0 = (-m).exp();
        let denom = ea + eb + e0;
        (ea / denom, eb / denom)
    }

    /// ISP A's profit at the given price vectors.
    pub fn profit_a(&self, prices_a: [f64; SEGMENTS], prices_b: [f64; SEGMENTS]) -> f64 {
        (0..SEGMENTS)
            .map(|i| {
                let (sa, _) = self.shares(i, prices_a[i], prices_b[i]);
                self.consumers[i] * sa * (prices_a[i] - self.costs_a[i])
            })
            .sum()
    }

    /// ISP B's profit at the given price vectors.
    pub fn profit_b(&self, prices_a: [f64; SEGMENTS], prices_b: [f64; SEGMENTS]) -> f64 {
        (0..SEGMENTS)
            .map(|i| {
                let (_, sb) = self.shares(i, prices_a[i], prices_b[i]);
                self.consumers[i] * sb * (prices_b[i] - self.costs_b[i])
            })
            .sum()
    }

    /// Best response of one ISP (identified by `is_a`) to the rival's
    /// prices, under the given regime.
    fn best_response(
        &self,
        is_a: bool,
        regime: Regime,
        rival: [f64; SEGMENTS],
    ) -> Result<[f64; SEGMENTS]> {
        let costs = if is_a { self.costs_a } else { self.costs_b };
        let own_profit = |own: [f64; SEGMENTS]| {
            if is_a {
                self.profit_a(own, rival)
            } else {
                self.profit_b(rival, own)
            }
        };
        let hi = 4.0 * self.valuations[0].max(self.valuations[1]) + costs[0].max(costs[1]);
        // Blended profit over two segments can be *bimodal* (serve both
        // vs price the cheap segment out and milk the expensive one), so
        // a plain golden section may hop between local maxima across
        // iterations and induce artificial limit cycles. Globalize with a
        // coarse grid scan, then refine around the best cell.
        let global_max = |f: &dyn Fn(f64) -> f64, lo: f64, hi: f64| -> Result<f64> {
            const GRID: usize = 256;
            let mut best_i = 0;
            let mut best_v = f64::NEG_INFINITY;
            for i in 0..=GRID {
                let p = lo + (hi - lo) * i as f64 / GRID as f64;
                let v = f(p);
                if v > best_v {
                    best_v = v;
                    best_i = i;
                }
            }
            let cell = (hi - lo) / GRID as f64;
            let a = (lo + cell * best_i.saturating_sub(1) as f64).max(lo);
            let b = (lo + cell * (best_i + 1) as f64).min(hi);
            let (p, _) = golden_section_max(f, a, b, 1e-11)?;
            Ok(p)
        };
        Ok(match regime {
            Regime::Blended => {
                let lo = costs[0].min(costs[1]) * 1e-3;
                let p = global_max(&|p| own_profit([p, p]), lo, hi)?;
                [p, p]
            }
            Regime::Tiered => {
                // Segments are independent logits, so per-segment prices
                // separate (and each segment's profit is unimodal, but the
                // globalized search is cheap insurance).
                let mut out = [0.0; SEGMENTS];
                for i in 0..SEGMENTS {
                    let f = |p: f64| {
                        // Only segment i's term varies, so optimizing it
                        // alone optimizes the total.
                        if is_a {
                            let (sa, _) = self.shares(i, p, rival[i]);
                            self.consumers[i] * sa * (p - self.costs_a[i])
                        } else {
                            let (_, sb) = self.shares(i, rival[i], p);
                            self.consumers[i] * sb * (p - self.costs_b[i])
                        }
                    };
                    out[i] = global_max(&f, costs[i] * 1e-3, hi)?;
                }
                out
            }
        })
    }

    /// Computes the price equilibrium under the given regimes by
    /// synchronous best-response iteration.
    pub fn equilibrium(&self, regime_a: Regime, regime_b: Regime) -> Result<Equilibrium> {
        self.validate()?;
        let mut pa = [self.costs_a[0] * 2.0, self.costs_a[1] * 2.0];
        let mut pb = [self.costs_b[0] * 2.0, self.costs_b[1] * 2.0];
        let mut iterations = 0;
        // Gauss–Seidel (B responds to A's *new* prices) with damping —
        // synchronous undamped best response can limit-cycle in price
        // games.
        const DAMP: f64 = 0.3;
        for iter in 0..500 {
            iterations = iter + 1;
            let na = self.best_response(true, regime_a, pb)?;
            let pa_new = [
                pa[0] + DAMP * (na[0] - pa[0]),
                pa[1] + DAMP * (na[1] - pa[1]),
            ];
            let nb = self.best_response(false, regime_b, pa_new)?;
            let pb_new = [
                pb[0] + DAMP * (nb[0] - pb[0]),
                pb[1] + DAMP * (nb[1] - pb[1]),
            ];
            let delta = pa_new
                .iter()
                .zip(&pa)
                .chain(pb_new.iter().zip(&pb))
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f64, f64::max);
            pa = pa_new;
            pb = pb_new;
            if delta < 1e-8 {
                return Ok(Equilibrium {
                    prices_a: pa,
                    prices_b: pb,
                    profit_a: self.profit_a(pa, pb),
                    profit_b: self.profit_b(pa, pb),
                    iterations,
                });
            }
        }
        Err(TransitError::NoConvergence {
            solver: "duopoly best-response iteration",
            iterations,
        })
    }

    /// Monopoly benchmark: ISP A alone (B priced out at +infinity is not
    /// representable; instead B's valuation channel is removed by setting
    /// its prices prohibitively high).
    pub fn monopoly_a(&self, regime: Regime) -> Result<Equilibrium> {
        self.validate()?;
        let pb = [1e9, 1e9];
        let pa = self.best_response(true, regime, pb)?;
        Ok(Equilibrium {
            prices_a: pa,
            prices_b: pb,
            profit_a: self.profit_a(pa, pb),
            profit_b: 0.0,
            iterations: 1,
        })
    }
}

/// A ready-made scenario: a transit duopoly with cheap local and
/// expensive long-haul traffic, symmetric ISPs.
pub fn symmetric_transit_duopoly() -> Duopoly {
    // Parameters chosen so each ISP's blended profit stays unimodal
    // (moderate cost spread): with extreme spreads the blended best
    // response becomes discontinuous (price the cheap segment out vs
    // serve both) and the mixed-regime game may lack a pure-price
    // equilibrium; see `equilibrium`'s docs.
    Duopoly {
        alpha: 0.5,
        consumers: [1_000.0, 1_000.0],
        valuations: [20.0, 26.0],
        costs_a: [4.0, 10.0],
        costs_b: [4.0, 10.0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equilibrium_converges_and_prices_exceed_costs() {
        let d = symmetric_transit_duopoly();
        let eq = d.equilibrium(Regime::Blended, Regime::Blended).unwrap();
        assert!(eq.iterations < 200);
        for i in 0..SEGMENTS {
            assert!(eq.prices_a[i] > d.costs_a[i].min(d.costs_a[1 - i]));
            assert!(eq.prices_b[i] > 0.0);
        }
        assert!(eq.profit_a > 0.0 && eq.profit_b > 0.0);
    }

    #[test]
    fn symmetric_duopoly_is_symmetric() {
        let d = symmetric_transit_duopoly();
        let eq = d.equilibrium(Regime::Tiered, Regime::Tiered).unwrap();
        for i in 0..SEGMENTS {
            assert!(
                (eq.prices_a[i] - eq.prices_b[i]).abs() < 1e-6,
                "segment {i}: {} vs {}",
                eq.prices_a[i],
                eq.prices_b[i]
            );
        }
        assert!((eq.profit_a - eq.profit_b).abs() / eq.profit_a < 1e-6);
    }

    #[test]
    fn tiering_first_raises_own_profit_and_lowers_rivals() {
        let d = symmetric_transit_duopoly();
        let base = d.equilibrium(Regime::Blended, Regime::Blended).unwrap();
        let a_tiers = d.equilibrium(Regime::Tiered, Regime::Blended).unwrap();
        assert!(
            a_tiers.profit_a > base.profit_a,
            "tiering helps the mover: {} vs {}",
            a_tiers.profit_a,
            base.profit_a
        );
        assert!(
            a_tiers.profit_b < base.profit_b,
            "the blended rival loses: {} vs {}",
            a_tiers.profit_b,
            base.profit_b
        );
    }

    #[test]
    fn both_tiering_beats_both_blended() {
        let d = symmetric_transit_duopoly();
        let blended = d.equilibrium(Regime::Blended, Regime::Blended).unwrap();
        let tiered = d.equilibrium(Regime::Tiered, Regime::Tiered).unwrap();
        assert!(tiered.profit_a > blended.profit_a);
        assert!(tiered.profit_b > blended.profit_b);
    }

    #[test]
    fn tiered_prices_separate_segments_by_cost() {
        let d = symmetric_transit_duopoly();
        let eq = d.equilibrium(Regime::Tiered, Regime::Tiered).unwrap();
        // Local (cheap) tier priced below long-haul (costly) tier.
        assert!(eq.prices_a[0] < eq.prices_a[1]);
    }

    #[test]
    fn competition_lowers_prices_vs_monopoly() {
        let d = symmetric_transit_duopoly();
        let duo = d.equilibrium(Regime::Tiered, Regime::Tiered).unwrap();
        let mono = d.monopoly_a(Regime::Tiered).unwrap();
        for i in 0..SEGMENTS {
            assert!(
                duo.prices_a[i] < mono.prices_a[i],
                "segment {i}: duopoly {} vs monopoly {}",
                duo.prices_a[i],
                mono.prices_a[i]
            );
        }
        assert!(duo.profit_a < mono.profit_a);
    }

    #[test]
    fn asymmetric_costs_shift_shares() {
        // A cheaper on the long-haul segment wins share there.
        let mut d = symmetric_transit_duopoly();
        d.costs_a[1] = 6.0; // B stays at 12
        let eq = d.equilibrium(Regime::Tiered, Regime::Tiered).unwrap();
        let (sa, sb) = d.shares(1, eq.prices_a[1], eq.prices_b[1]);
        assert!(sa > sb, "cheap ISP wins the segment: {sa} vs {sb}");
        assert!(eq.profit_a > eq.profit_b);
    }

    #[test]
    fn rejects_invalid_parameters() {
        let mut d = symmetric_transit_duopoly();
        d.alpha = -1.0;
        assert!(d.equilibrium(Regime::Blended, Regime::Blended).is_err());
    }
}
