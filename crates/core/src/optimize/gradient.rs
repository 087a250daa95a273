//! Projected gradient ascent with numerical gradients.
//!
//! This is the paper's §3.2.2 solver: "a heuristic based on gradient
//! descent that starts from a fixed set of prices and greedily updates them
//! towards the optimum." We use central-difference gradients, backtracking
//! line search, and a lower-bound projection (prices must stay positive).
//! The exact logit price solver in [`crate::pricing::logit`] supersedes it
//! for production use; this implementation remains as the faithful paper
//! heuristic and as a cross-check in tests and ablation benches.

use crate::error::{Result, TransitError};

/// Tuning knobs for [`gradient_ascent`].
#[derive(Debug, Clone, Copy)]
pub struct GradientOptions {
    /// Initial step size for the line search.
    pub initial_step: f64,
    /// Maximum outer iterations.
    pub max_iters: usize,
    /// Stop when the objective improves by less than this.
    pub tol: f64,
    /// Central-difference step for the numerical gradient.
    pub fd_step: f64,
    /// Component-wise lower bound projected onto after each step.
    pub lower_bound: f64,
}

impl Default for GradientOptions {
    fn default() -> GradientOptions {
        GradientOptions {
            initial_step: 1.0,
            max_iters: 5_000,
            tol: 1e-12,
            fd_step: 1e-6,
            lower_bound: 1e-9,
        }
    }
}

/// Result of a gradient ascent run.
#[derive(Debug, Clone)]
pub struct GradientOutcome {
    /// The maximizing point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Outer iterations used.
    pub iterations: usize,
    /// Whether the improvement tolerance was met (as opposed to running out
    /// of iterations).
    pub converged: bool,
}

/// Maximizes `f` from `x0` by projected gradient ascent.
///
/// `f` must be finite at `x0` and on the feasible set `x >= lower_bound`.
pub fn gradient_ascent<F>(mut f: F, x0: &[f64], opts: GradientOptions) -> Result<GradientOutcome>
where
    F: FnMut(&[f64]) -> f64,
{
    if x0.is_empty() {
        return Err(TransitError::EmptyFlowSet);
    }
    let mut x: Vec<f64> = x0.iter().map(|&v| v.max(opts.lower_bound)).collect();
    let mut fx = f(&x);
    if !fx.is_finite() {
        return Err(TransitError::InvalidParameter {
            name: "f(x0)",
            value: fx,
            expected: "a finite objective at the starting point",
        });
    }

    let mut grad = vec![0.0; x.len()];
    let mut candidate = x.clone();
    let mut converged = false;
    let mut iterations = 0;
    // Step-size memory: each line search starts at twice the step that
    // last succeeded, so progress does not collapse on ill-conditioned
    // surfaces (e.g. near-degenerate logit shares).
    let mut step_memory = opts.initial_step;
    // Declare convergence only after several consecutive negligible gains;
    // a single tiny gain may just be a backtracked step.
    let mut small_gains = 0usize;

    for iter in 0..opts.max_iters {
        iterations = iter + 1;
        // Central-difference gradient.
        for i in 0..x.len() {
            let h = opts.fd_step * x[i].abs().max(1.0);
            let orig = x[i];
            x[i] = orig + h;
            let fp = f(&x);
            x[i] = (orig - h).max(opts.lower_bound);
            let actual_h_down = orig - x[i];
            let fm = f(&x);
            x[i] = orig;
            grad[i] = (fp - fm) / (h + actual_h_down);
        }
        let gnorm: f64 = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
        if gnorm < 1e-14 {
            converged = true;
            break;
        }

        // Backtracking line search along the gradient, normalized so the
        // step parameter has consistent meaning across iterations.
        let mut step = step_memory * 2.0;
        let mut improved = false;
        for _ in 0..60 {
            for i in 0..x.len() {
                candidate[i] = (x[i] + step * grad[i] / gnorm).max(opts.lower_bound);
            }
            let fc = f(&candidate);
            if fc.is_finite() && fc > fx {
                let gain = fc - fx;
                x.copy_from_slice(&candidate);
                fx = fc;
                improved = true;
                step_memory = step;
                if gain < opts.tol * fx.abs().max(1.0) {
                    small_gains += 1;
                    if small_gains >= 3 {
                        converged = true;
                    }
                } else {
                    small_gains = 0;
                }
                break;
            }
            step *= 0.5;
        }
        if !improved {
            // No ascent direction at line-search resolution: stationary.
            converged = true;
            break;
        }
        if converged {
            break;
        }
    }

    Ok(GradientOutcome {
        x,
        value: fx,
        iterations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maximizes_concave_quadratic() {
        let f = |x: &[f64]| -(x[0] - 2.0).powi(2) - (x[1] - 3.0).powi(2);
        let out = gradient_ascent(f, &[0.5, 0.5], GradientOptions::default()).unwrap();
        assert!(out.converged);
        assert!((out.x[0] - 2.0).abs() < 1e-4, "x0 = {}", out.x[0]);
        assert!((out.x[1] - 3.0).abs() < 1e-4, "x1 = {}", out.x[1]);
    }

    #[test]
    fn respects_lower_bound() {
        // Unconstrained max at x = -5; projection must pin to the bound.
        let f = |x: &[f64]| -(x[0] + 5.0).powi(2);
        let opts = GradientOptions {
            lower_bound: 0.1,
            ..GradientOptions::default()
        };
        let out = gradient_ascent(f, &[1.0], opts).unwrap();
        assert!((out.x[0] - 0.1).abs() < 1e-9);
    }

    #[test]
    fn maximizes_ced_profit_in_price() {
        // (v/p)^a (p - c): optimum at p = ac/(a-1) = 3 for a=1.5, c=1.
        let f = |x: &[f64]| (1.0 / x[0]).powf(1.5) * (x[0] - 1.0);
        let out = gradient_ascent(f, &[1.5], GradientOptions::default()).unwrap();
        assert!((out.x[0] - 3.0).abs() < 1e-3, "p = {}", out.x[0]);
    }

    #[test]
    fn rejects_empty_start() {
        assert!(gradient_ascent(|_| 0.0, &[], GradientOptions::default()).is_err());
    }

    #[test]
    fn rejects_nonfinite_start_value() {
        assert!(gradient_ascent(|_| f64::NAN, &[1.0], GradientOptions::default()).is_err());
    }
}
