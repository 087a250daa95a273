//! Nonlinear least squares for the paper's concave price/distance curve
//! (Fig. 6): fit `y = a·log_b(x) + c` to (distance, price) points.
//!
//! The fit has a useful structure: for a *fixed* log base `b`, the model is
//! linear in `(a, c)` with regressor `t = ln(x)/ln(b)`, so the inner
//! problem is ordinary least squares with a closed form. We therefore only
//! search over `b` (1-D, via Nelder–Mead), solving `(a, c)` exactly at each
//! candidate — faster and far better conditioned than a joint 3-parameter
//! search, since `a` and `b` trade off along a ridge (`a·log_b(x) =
//! (a/log_b'(b))·log_b'(x)`).

use super::nelder_mead::{nelder_mead_min, NelderMeadOptions};
use crate::error::{Result, TransitError};

/// A fitted `y = a·log_b(x) + c` curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogCurveFit {
    /// Slope coefficient `a`.
    pub a: f64,
    /// Log base `b`.
    pub b: f64,
    /// Offset `c`.
    pub c: f64,
    /// Sum of squared residuals at the fit.
    pub ssr: f64,
}

impl LogCurveFit {
    /// Evaluates the fitted curve at `x`.
    pub fn eval(&self, x: f64) -> f64 {
        self.a * x.ln() / self.b.ln() + self.c
    }

    /// Root-mean-square error over `n` points.
    pub fn rmse(&self, n: usize) -> f64 {
        (self.ssr / n as f64).sqrt()
    }
}

/// Ordinary least squares of `y = a·t + c` for fixed regressors `t`.
/// Returns `(a, c, ssr)`.
fn ols(ts: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    let n = ts.len() as f64;
    let mean_t = ts.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var = 0.0;
    for (&t, &y) in ts.iter().zip(ys) {
        cov += (t - mean_t) * (y - mean_y);
        var += (t - mean_t) * (t - mean_t);
    }
    let a = if var > 0.0 { cov / var } else { 0.0 };
    let c = mean_y - a * mean_t;
    let ssr = ts
        .iter()
        .zip(ys)
        .map(|(&t, &y)| {
            let r = y - (a * t + c);
            r * r
        })
        .sum();
    (a, c, ssr)
}

/// Fits `y = a·log_b(x) + c` to the points `(xs, ys)` by profiled least
/// squares (1-D search over `b`, closed-form `(a, c)`).
///
/// All `xs` must be positive; at least three points are required (three
/// parameters). `b` is constrained to `(1, ∞)` through a softplus-style
/// reparameterization `b = 1 + e^u`.
pub fn fit_log_curve(xs: &[f64], ys: &[f64]) -> Result<LogCurveFit> {
    if xs.len() != ys.len() || xs.len() < 3 {
        return Err(TransitError::InvalidBundling {
            reason: "log-curve fit needs >= 3 equal-length points",
        });
    }
    for (i, &x) in xs.iter().enumerate() {
        if !(x.is_finite() && x > 0.0) {
            return Err(TransitError::InvalidFlow {
                index: i,
                reason: "log-curve fit requires positive finite x values",
            });
        }
    }

    let ln_xs: Vec<f64> = xs.iter().map(|&x| x.ln()).collect();
    let objective = |u: &[f64]| {
        let b = 1.0 + u[0].exp();
        let ln_b = b.ln();
        let ts: Vec<f64> = ln_xs.iter().map(|&lx| lx / ln_b).collect();
        let (_, _, ssr) = ols(&ts, ys);
        ssr
    };

    // Multi-start over log-base magnitudes: the profiled SSR in b is flat
    // for large b (the a/b ridge), so several starts keep the simplex from
    // stalling on a plateau.
    let mut best: Option<(f64, f64)> = None; // (u, ssr)
    for start in [-2.0, 0.0, 1.0, 2.0, 4.0] {
        let (u, ssr) = nelder_mead_min(objective, &[start], NelderMeadOptions::default())?;
        if best.is_none_or(|(_, s)| ssr < s) {
            best = Some((u[0], ssr));
        }
    }
    let (u, ssr) = best.expect("at least one start ran");
    let b = 1.0 + u.exp();
    let ln_b = b.ln();
    let ts: Vec<f64> = ln_xs.iter().map(|&lx| lx / ln_b).collect();
    let (a, c, _) = ols(&ts, ys);
    Ok(LogCurveFit { a, b, c, ssr })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_curve() {
        // y = 0.5·log_6(x) + 1 sampled without noise.
        let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 0.05).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| 0.5 * x.ln() / 6.0f64.ln() + 1.0)
            .collect();
        let fit = fit_log_curve(&xs, &ys).unwrap();
        assert!(fit.ssr < 1e-12, "ssr = {}", fit.ssr);
        // The (a, b) pair is ridge-identified only jointly; check the
        // predicted curve rather than raw parameters.
        for &x in &xs {
            let want = 0.5 * x.ln() / 6.0f64.ln() + 1.0;
            assert!((fit.eval(x) - want).abs() < 1e-6);
        }
    }

    #[test]
    fn normalized_slope_matches_paper_scale() {
        // With x normalized to (0, 1], the fitted effective slope
        // a/ln(b) should equal the generating 0.5/ln(6).
        let xs: Vec<f64> = (1..=50).map(|i| i as f64 / 50.0).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| 0.5 * x.ln() / 6.0f64.ln() + 1.0)
            .collect();
        let fit = fit_log_curve(&xs, &ys).unwrap();
        let eff = fit.a / fit.b.ln();
        let want = 0.5 / 6.0f64.ln();
        assert!((eff - want).abs() < 1e-6, "eff = {eff}, want = {want}");
    }

    #[test]
    fn tolerates_noise() {
        // Deterministic pseudo-noise (no RNG needed).
        let xs: Vec<f64> = (1..=40).map(|i| i as f64 * 0.025).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let noise = ((i as f64 * 12.9898).sin() * 43758.547).fract() * 0.02 - 0.01;
                0.43 * x.ln() / 9.43f64.ln() + 0.99 + noise
            })
            .collect();
        let fit = fit_log_curve(&xs, &ys).unwrap();
        assert!(fit.rmse(xs.len()) < 0.02);
        // Effective slope close to the ITU curve's 0.43/ln(9.43).
        let eff = fit.a / fit.b.ln();
        let want = 0.43 / 9.43f64.ln();
        assert!((eff - want).abs() < 0.02, "eff = {eff}, want = {want}");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(fit_log_curve(&[1.0, 2.0], &[1.0, 2.0]).is_err());
        assert!(fit_log_curve(&[1.0, 2.0, -3.0], &[1.0, 2.0, 3.0]).is_err());
        assert!(fit_log_curve(&[1.0, 2.0, 3.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn ols_exact_line() {
        let ts = [1.0, 2.0, 3.0];
        let ys = [3.0, 5.0, 7.0];
        let (a, c, ssr) = ols(&ts, &ys);
        assert!((a - 2.0).abs() < 1e-12);
        assert!((c - 1.0).abs() < 1e-12);
        assert!(ssr < 1e-20);
    }
}
