//! Golden-section search for 1-D maximization on a bracket.

use crate::error::{Result, TransitError};

/// Maximizes a unimodal `f` on `[lo, hi]` by golden-section search.
///
/// Returns `(x*, f(x*))`. The bracket shrinks by the golden ratio each
/// iteration, so `tol` precision costs `O(log((hi-lo)/tol))` evaluations.
/// For non-unimodal `f` the result is a local maximum within the bracket.
pub fn golden_section_max<F>(mut f: F, lo: f64, hi: f64, tol: f64) -> Result<(f64, f64)>
where
    F: FnMut(f64) -> f64,
{
    if !(lo.is_finite() && hi.is_finite() && lo < hi) {
        return Err(TransitError::InvalidParameter {
            name: "bracket",
            value: hi - lo,
            expected: "a finite bracket with lo < hi",
        });
    }
    if !(tol.is_finite() && tol > 0.0) {
        return Err(TransitError::InvalidParameter {
            name: "tol",
            value: tol,
            expected: "a finite tolerance > 0",
        });
    }
    const INV_PHI: f64 = 0.618_033_988_749_894_9; // (sqrt(5) - 1) / 2

    let (mut a, mut b) = (lo, hi);
    let mut c = b - INV_PHI * (b - a);
    let mut d = a + INV_PHI * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);

    // 400 iterations shrink the bracket by phi^400 — far beyond f64
    // precision — so this bound is a safety net, not a practical limit.
    for _ in 0..400 {
        if (b - a).abs() <= tol {
            break;
        }
        if fc > fd {
            b = d;
            d = c;
            fd = fc;
            c = b - INV_PHI * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + INV_PHI * (b - a);
            fd = f(d);
        }
    }
    let x = 0.5 * (a + b);
    Ok((x, f(x)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_parabola_peak() {
        let (x, fx) =
            golden_section_max(|x| -(x - 3.0) * (x - 3.0) + 7.0, 0.0, 10.0, 1e-9).unwrap();
        assert!((x - 3.0).abs() < 1e-6);
        assert!((fx - 7.0).abs() < 1e-9);
    }

    #[test]
    fn finds_peak_at_boundary() {
        let (x, _) = golden_section_max(|x| x, 0.0, 5.0, 1e-9).unwrap();
        assert!((x - 5.0).abs() < 1e-6);
    }

    #[test]
    fn handles_ced_profit_shape() {
        // Profit (v/p)^a (p - c) with v=1, a=2, c=1 peaks at p=2.
        let (x, fx) =
            golden_section_max(|p| (1.0 / p).powi(2) * (p - 1.0), 1.0, 10.0, 1e-10).unwrap();
        assert!((x - 2.0).abs() < 1e-5);
        assert!((fx - 0.25).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_bracket() {
        assert!(golden_section_max(|x| x, 1.0, 1.0, 1e-6).is_err());
        assert!(golden_section_max(|x| x, 2.0, 1.0, 1e-6).is_err());
        assert!(golden_section_max(|x| x, f64::NAN, 1.0, 1e-6).is_err());
        assert!(golden_section_max(|x| x, 0.0, 1.0, 0.0).is_err());
    }
}
