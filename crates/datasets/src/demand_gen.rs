//! Demand-vector generation with exact moment calibration.
//!
//! Table 1 characterizes each network's demand distribution by its
//! coefficient of variation (1.71 / 2.28 / 4.53) and aggregate rate
//! (37 / 96 / 4 Gbps). We generate demands in three steps:
//!
//! 1. **Stratified lognormal sampling** — demands are lognormal quantiles
//!    at `(i + 0.5)/n` (shuffled), giving a deterministic, low-variance
//!    realization of the heavy-tailed flow-size distributions seen in
//!    traffic data.
//! 2. **Power calibration** — the sample CV of a finite stratified draw
//!    undershoots the asymptotic CV (the tail beyond the last quantile is
//!    truncated), so we apply `d_i ↦ d_i^t` and solve for the exponent `t`
//!    that makes the *sample* CV hit the target exactly (CV of a positive
//!    vector is continuous and increasing in `t`).
//! 3. **Scaling** — multiply to match the aggregate exactly (CV is scale
//!    invariant).

use rand::seq::SliceRandom;
use rand::Rng;

/// Inverse standard-normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15e-9 over (0, 1)).
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "p must be in (0, 1)");
    // Coefficients for the central and tail regions.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -inverse_normal_cdf(1.0 - p)
    }
}

fn sample_cv(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    var.sqrt() / mean
}

/// Generates `n` positive demands with sample CV equal to `target_cv`
/// (to 1e-9) and sum equal to `total` (exactly), shuffled by `rng`.
///
/// ```
/// use rand::SeedableRng;
/// use transit_datasets::demand_gen::calibrated_demands;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let demands = calibrated_demands(100, 1.71, 37_000.0, &mut rng);
/// assert!((demands.iter().sum::<f64>() - 37_000.0).abs() < 1e-6);
/// ```
///
/// Panics if `n < 2`, `target_cv <= 0`, or `total <= 0`.
pub fn calibrated_demands<R: Rng>(n: usize, target_cv: f64, total: f64, rng: &mut R) -> Vec<f64> {
    assert!(n >= 2, "need at least two flows");
    assert!(
        target_cv > 0.0 && target_cv.is_finite(),
        "CV must be positive"
    );
    assert!(total > 0.0 && total.is_finite(), "total must be positive");

    // Step 1: stratified lognormal quantiles with the asymptotic sigma.
    let sigma = (1.0 + target_cv * target_cv).ln().sqrt();
    let base: Vec<f64> = (0..n)
        .map(|i| {
            let p = (i as f64 + 0.5) / n as f64;
            (sigma * inverse_normal_cdf(p)).exp()
        })
        .collect();

    // Step 2: solve d^t for the exponent hitting the sample CV. The CV of
    // base^t increases continuously from 0 (t→0) without bound, so
    // bisection on a bracket always succeeds.
    let cv_at = |t: f64| {
        let powered: Vec<f64> = base.iter().map(|d| d.powf(t)).collect();
        sample_cv(&powered)
    };
    let mut lo = 1e-6;
    let mut hi = 1.0;
    while cv_at(hi) < target_cv {
        hi *= 2.0;
        assert!(hi < 1e6, "CV calibration failed to bracket");
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if cv_at(mid) < target_cv {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-14 {
            break;
        }
    }
    let t = 0.5 * (lo + hi);
    let mut demands: Vec<f64> = base.iter().map(|d| d.powf(t)).collect();

    // Step 3: scale to the aggregate and shuffle.
    let sum: f64 = demands.iter().sum();
    for d in &mut demands {
        *d *= total / sum;
    }
    demands.shuffle(rng);
    demands
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn inverse_normal_cdf_known_values() {
        assert!(inverse_normal_cdf(0.5).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959_964).abs() < 1e-5);
        assert!((inverse_normal_cdf(0.025) + 1.959_964).abs() < 1e-5);
        assert!((inverse_normal_cdf(0.8413447) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn inverse_normal_cdf_is_monotone_and_symmetric() {
        let mut last = f64::NEG_INFINITY;
        for i in 1..100 {
            let p = i as f64 / 100.0;
            let z = inverse_normal_cdf(p);
            assert!(z > last);
            last = z;
            assert!((z + inverse_normal_cdf(1.0 - p)).abs() < 1e-9);
        }
    }

    #[test]
    fn calibrated_demands_hit_targets_exactly() {
        let mut rng = StdRng::seed_from_u64(42);
        for &(cv, total) in &[(1.71, 37_000.0), (2.28, 96_000.0), (4.53, 4_000.0)] {
            let d = calibrated_demands(500, cv, total, &mut rng);
            assert_eq!(d.len(), 500);
            let sum: f64 = d.iter().sum();
            assert!((sum - total).abs() / total < 1e-12, "aggregate");
            assert!((sample_cv(&d) - cv).abs() < 1e-6, "CV: {}", sample_cv(&d));
            assert!(d.iter().all(|&x| x > 0.0), "positivity");
        }
    }

    #[test]
    fn demands_are_heavy_tailed() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut d = calibrated_demands(1000, 4.53, 4_000.0, &mut rng);
        d.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let top10: f64 = d[..10].iter().sum();
        let total: f64 = d.iter().sum();
        // CV 4.53 implies extreme concentration: the top 1% of flows
        // carries a large share of all traffic.
        assert!(top10 / total > 0.25, "top-10 share {}", top10 / total);
    }

    #[test]
    fn shuffle_depends_on_seed_but_multiset_does_not() {
        let d1 = calibrated_demands(100, 2.0, 1000.0, &mut StdRng::seed_from_u64(1));
        let d2 = calibrated_demands(100, 2.0, 1000.0, &mut StdRng::seed_from_u64(2));
        assert_ne!(d1, d2, "order differs");
        let mut s1 = d1.clone();
        let mut s2 = d2.clone();
        s1.sort_by(|a, b| a.partial_cmp(b).unwrap());
        s2.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(s1, s2, "same sorted values");
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_flow() {
        calibrated_demands(1, 1.0, 10.0, &mut StdRng::seed_from_u64(0));
    }
}
