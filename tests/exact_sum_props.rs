//! `ExactSum` is the one accumulator behind every profit and price sum of
//! the fitted markets, and the reason grouped evaluation equals raw
//! evaluation bit for bit. These properties pin its contract: the value
//! is the correctly rounded exact sum (checked against an independent
//! `i128` fixed-point reference), it does not depend on the order of the
//! adds, and `add_scaled(t, m)` is `m` single adds.

use proptest::prelude::*;
use proptest::prop::sample::Index;

use tiered_transit::core::exact::ExactSum;

fn exact_sum(xs: &[f64]) -> f64 {
    let mut sum = ExactSum::new();
    for &x in xs {
        sum.add(x);
    }
    sum.value()
}

/// A finite double from arbitrary bits (non-finite patterns fold to a
/// finite neighbour), so terms span the whole exponent range.
fn finite_from_bits(bits: u64) -> f64 {
    let x = f64::from_bits(bits);
    if x.is_finite() {
        x
    } else {
        f64::from_bits(bits & !(1 << 62))
    }
}

/// Mixed magnitudes: wide-range terms plus exact negations of some of
/// them, so cancellation leaves small residues for rounding to act on.
fn arb_terms() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((any::<u64>(), 0u8..4), 1..48).prop_map(|raw| {
        let mut xs: Vec<f64> = raw.iter().map(|&(b, _)| finite_from_bits(b)).collect();
        for (i, &(_, kind)) in raw.iter().enumerate() {
            if kind == 0 && i > 0 {
                xs[i] = -xs[i - 1];
            }
        }
        xs
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any permutation of the terms (random shuffle, reversal, sorted by
    /// magnitude) sums to the same bits.
    #[test]
    fn exact_sum_is_permutation_invariant(
        xs in arb_terms(),
        swaps in prop::collection::vec(any::<Index>(), 48),
    ) {
        let reference = exact_sum(&xs);
        let mut shuffled = xs.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, swaps[i].index(i + 1));
        }
        let mut reversed = xs.clone();
        reversed.reverse();
        let mut by_magnitude = xs.clone();
        by_magnitude.sort_by(|a, b| a.abs().total_cmp(&b.abs()));
        for order in [&shuffled, &reversed, &by_magnitude] {
            let got = exact_sum(order);
            prop_assert!(
                got.to_bits() == reference.to_bits() || (got.is_nan() && reference.is_nan()),
                "{got:e} vs {reference:e} for {xs:?}"
            );
        }
    }

    /// Terms `k·2^e` with bounded `k` and `e` are integers in units of
    /// `2^-40`, so their exact sum is an `i128`; `i128 as f64` rounds it
    /// to nearest-even, and the power-of-two rescale is exact.
    #[test]
    fn exact_sum_matches_i128_fixed_point_reference(
        terms in prop::collection::vec((-(1i64 << 40)..(1i64 << 40), -40i32..40), 1..64),
    ) {
        let xs: Vec<f64> = terms.iter().map(|&(k, e)| k as f64 * 2f64.powi(e)).collect();
        let fixed: i128 = terms.iter().map(|&(k, e)| i128::from(k) << (e + 40)).sum();
        let reference = fixed as f64 * 2f64.powi(-40);
        let got = exact_sum(&xs);
        prop_assert_eq!(got.to_bits(), reference.to_bits(), "{} vs {} for {:?}", got, reference, terms);
    }

    /// `add_scaled(t, m)` leaves the accumulator exactly as `m` adds of
    /// `t` would, whatever was added before and after.
    #[test]
    fn add_scaled_equals_repeated_adds(
        before in arb_terms(),
        t_bits in any::<u64>(),
        m in 0u64..3000,
        after in arb_terms(),
    ) {
        let t = finite_from_bits(t_bits);
        let mut scaled = ExactSum::new();
        let mut repeated = ExactSum::new();
        for &x in &before {
            scaled.add(x);
            repeated.add(x);
        }
        scaled.add_scaled(t, m);
        for _ in 0..m {
            repeated.add(t);
        }
        for &x in &after {
            scaled.add(x);
            repeated.add(x);
        }
        let (a, b) = (scaled.value(), repeated.value());
        prop_assert!(
            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
            "t={t:e} m={m}: {a:e} vs {b:e}"
        );
    }
}
