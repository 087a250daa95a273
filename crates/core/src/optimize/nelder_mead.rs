//! Nelder–Mead simplex minimization (derivative-free).
//!
//! Used by the Fig. 6 curve fit, where the objective (squared residuals of
//! `a·log_b(x) + c`) is smooth but has an awkward parameterization in the
//! log base `b`. Standard reflection/expansion/contraction/shrink scheme
//! with the conventional coefficients (1, 2, 0.5, 0.5).

use crate::error::{Result, TransitError};

/// Tuning knobs for [`nelder_mead_min`].
#[derive(Debug, Clone, Copy)]
pub struct NelderMeadOptions {
    /// Maximum objective evaluations.
    pub max_evals: usize,
    /// Stop when the simplex's objective spread falls below this.
    pub tol: f64,
    /// Relative size of the initial simplex around the start point.
    pub initial_scale: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> NelderMeadOptions {
        NelderMeadOptions {
            max_evals: 20_000,
            tol: 1e-12,
            initial_scale: 0.1,
        }
    }
}

/// Minimizes `f` from `x0` with the Nelder–Mead simplex. Returns
/// `(x*, f(x*))`.
pub fn nelder_mead_min<F>(mut f: F, x0: &[f64], opts: NelderMeadOptions) -> Result<(Vec<f64>, f64)>
where
    F: FnMut(&[f64]) -> f64,
{
    let n = x0.len();
    if n == 0 {
        return Err(TransitError::EmptyFlowSet);
    }

    // Initial simplex: x0 plus n vertices perturbed one coordinate each.
    let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    simplex.push(x0.to_vec());
    for i in 0..n {
        let mut v = x0.to_vec();
        let step = if v[i] != 0.0 {
            v[i].abs() * opts.initial_scale
        } else {
            opts.initial_scale
        };
        v[i] += step;
        simplex.push(v);
    }
    let mut values: Vec<f64> = simplex.iter().map(|v| f(v)).collect();
    let mut evals = values.len();

    while evals < opts.max_evals {
        // Order vertices by objective.
        let mut order: Vec<usize> = (0..=n).collect();
        order.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("finite objective"));
        let best = order[0];
        let worst = order[n];
        let second_worst = order[n - 1];

        // Converge on BOTH objective spread and simplex diameter: two
        // vertices symmetric about the optimum have equal values while x
        // is still far off, so a value-only test returns early.
        let diameter = simplex
            .iter()
            .map(|v| {
                v.iter()
                    .zip(&simplex[best])
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max)
            })
            .fold(0.0, f64::max);
        let x_scale = simplex[best].iter().fold(1.0f64, |m, &x| m.max(x.abs()));
        if (values[worst] - values[best]).abs() <= opts.tol && diameter <= 1e-9 * x_scale {
            return Ok((simplex[best].clone(), values[best]));
        }

        // Centroid of all but the worst vertex.
        let mut centroid = vec![0.0; n];
        for (idx, v) in simplex.iter().enumerate() {
            if idx != worst {
                for (c, x) in centroid.iter_mut().zip(v) {
                    *c += x / n as f64;
                }
            }
        }

        let lerp = |from: &[f64], toward: &[f64], t: f64| -> Vec<f64> {
            from.iter()
                .zip(toward)
                .map(|(&a, &b)| a + t * (b - a))
                .collect()
        };

        // Reflection.
        let reflected = lerp(&centroid, &simplex[worst], -1.0);
        let f_reflected = f(&reflected);
        evals += 1;

        if f_reflected < values[best] {
            // Expansion.
            let expanded = lerp(&centroid, &simplex[worst], -2.0);
            let f_expanded = f(&expanded);
            evals += 1;
            if f_expanded < f_reflected {
                simplex[worst] = expanded;
                values[worst] = f_expanded;
            } else {
                simplex[worst] = reflected;
                values[worst] = f_reflected;
            }
        } else if f_reflected < values[second_worst] {
            simplex[worst] = reflected;
            values[worst] = f_reflected;
        } else {
            // Contraction (outside if the reflection helped at all, inside
            // otherwise).
            let contracted = if f_reflected < values[worst] {
                lerp(&centroid, &reflected, 0.5)
            } else {
                lerp(&centroid, &simplex[worst], 0.5)
            };
            let f_contracted = f(&contracted);
            evals += 1;
            if f_contracted < values[worst].min(f_reflected) {
                simplex[worst] = contracted;
                values[worst] = f_contracted;
            } else {
                // Shrink toward the best vertex.
                let best_vertex = simplex[best].clone();
                for (idx, v) in simplex.iter_mut().enumerate() {
                    if idx != best {
                        *v = lerp(&best_vertex, v, 0.5);
                        values[idx] = f(v);
                        evals += 1;
                    }
                }
            }
        }
    }

    // Out of budget: return the best vertex anyway.
    let (best_idx, _) = values
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite objective"))
        .expect("non-empty simplex");
    Ok((simplex[best_idx].clone(), values[best_idx]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic_bowl() {
        let f = |x: &[f64]| (x[0] - 1.0).powi(2) + (x[1] + 2.0).powi(2) + 5.0;
        let (x, fx) = nelder_mead_min(f, &[10.0, 10.0], NelderMeadOptions::default()).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-4);
        assert!((x[1] + 2.0).abs() < 1e-4);
        assert!((fx - 5.0).abs() < 1e-7);
    }

    #[test]
    fn minimizes_rosenbrock() {
        let f = |x: &[f64]| {
            let a = 1.0 - x[0];
            let b = x[1] - x[0] * x[0];
            a * a + 100.0 * b * b
        };
        let (x, fx) = nelder_mead_min(f, &[-1.2, 1.0], NelderMeadOptions::default()).unwrap();
        assert!(fx < 1e-6, "fx = {fx}");
        assert!((x[0] - 1.0).abs() < 1e-2);
    }

    #[test]
    fn one_dimensional_works() {
        let f = |x: &[f64]| (x[0] - 4.0).powi(2);
        let (x, _) = nelder_mead_min(f, &[0.0], NelderMeadOptions::default()).unwrap();
        assert!((x[0] - 4.0).abs() < 1e-5);
    }

    #[test]
    fn rejects_empty_start() {
        assert!(nelder_mead_min(|_| 0.0, &[], NelderMeadOptions::default()).is_err());
    }
}
