//! Correctly rounded, order-independent summation of `f64` terms.
//!
//! Every finite `f64` is an integer multiple of `2^-1074`, and every
//! finite sum of them fits in a fixed-width integer of a few thousand
//! bits. [`ExactSum`] keeps that integer in a small superaccumulator
//! (Neal, "Fast exact summation using small and large superaccumulators",
//! arXiv:1505.05571): an inline array of signed 64-bit chunks, each
//! nominally holding 32 bits, so an add is three integer additions with
//! no carry and no heap use. Carries are propagated every few thousand
//! adds and once more when the value is read, which then rounds the exact
//! total to nearest, ties to even.
//!
//! Two consequences the market evaluators rely on:
//!
//! * the result is the correctly rounded exact sum, so it does not depend
//!   on the order of the adds;
//! * [`ExactSum::add_scaled`]`(t, m)` adds the exact product `m·t` (an FMA
//!   two-product), so it equals `m` single adds of `t` bit for bit. A
//!   group of `m` flows with bitwise-equal terms therefore sums exactly
//!   like the flows themselves.

/// Bits of the total each chunk nominally holds.
const CHUNK_BITS: u32 = 32;
const CHUNK_MASK: i64 = (1 << CHUNK_BITS) - 1;
/// Chunks: bit positions 0..2112 cover every finite double (the lowest
/// subnormal bit is position 0, the top bit of `f64::MAX` position
/// 2097), the rest absorbs `add_scaled` products and carries. The last
/// chunk only ever receives carries.
const N_CHUNKS: usize = 72;
/// Adds between carry propagations. Each add moves a chunk by less than
/// `2^32`, and a propagated chunk lies in `[0, 2^32)`, so chunks stay far
/// inside `i64` for any value below `2^30`.
const CARRY_EVERY: u32 = 1 << 12;
/// Bit position of the top bit of the largest finite double, plus one:
/// a total at or above `2^(TOP_POSITION − 1074)` overflows.
const TOP_POSITION: u32 = 2098;
const FRACTION_BITS: u32 = 52;
const FRACTION_MASK: u64 = (1 << FRACTION_BITS) - 1;

/// An exact accumulator for `f64` sums, rounded once when read.
///
/// ```
/// use transit_core::exact::ExactSum;
///
/// let mut sum = ExactSum::new();
/// for x in [1.0, 1e100, 1.0, -1e100] {
///     sum.add(x);
/// }
/// assert_eq!(sum.value(), 2.0); // the naive left-to-right sum is 0.0
/// ```
///
/// Non-finite terms propagate as in a naive sum: any NaN, or both
/// infinities, give NaN; otherwise an infinity wins. The sum is `-0.0`
/// only when every term was `-0.0`; an empty sum is `+0.0`.
#[derive(Debug, Clone)]
pub struct ExactSum {
    chunks: [i64; N_CHUNKS],
    /// Adds since the last carry propagation.
    pending: u32,
    nan: bool,
    pos_inf: bool,
    neg_inf: bool,
    neg_zero: bool,
    /// Some term other than `-0.0` was added.
    other: bool,
}

impl Default for ExactSum {
    fn default() -> ExactSum {
        ExactSum::new()
    }
}

impl ExactSum {
    /// An empty sum (value `+0.0`).
    pub const fn new() -> ExactSum {
        ExactSum {
            chunks: [0; N_CHUNKS],
            pending: 0,
            nan: false,
            pos_inf: false,
            neg_inf: false,
            neg_zero: false,
            other: false,
        }
    }

    /// Adds one term exactly.
    pub fn add(&mut self, x: f64) {
        if x.is_finite() {
            self.add_at(x, 0);
            return;
        }
        self.other = true;
        if x.is_nan() {
            self.nan = true;
        } else if x > 0.0 {
            self.pos_inf = true;
        } else {
            self.neg_inf = true;
        }
    }

    /// Adds `m` copies of `t` exactly: the same state, bit for bit, as
    /// `m` calls of [`add`](Self::add)`(t)`.
    ///
    /// The product is split into `hi + lo` by an FMA two-product, which is
    /// exact here because the multiplier is an integer below `2^32`
    /// (`m` is split into two 32-bit halves) and `|t|` is pre-scaled so
    /// that `hi` cannot overflow.
    pub fn add_scaled(&mut self, t: f64, m: u64) {
        if m == 0 {
            return;
        }
        // Zeros and non-finite terms have no magnitude to scale: one add
        // records their sign or kind exactly as `m` adds would.
        if m == 1 || t == 0.0 || !t.is_finite() {
            self.add(t);
            return;
        }
        // 2^-64 is exact on |t| >= 2^960, and the scaled product stays
        // below 2^(1024 - 64 + 32), far from overflow.
        let (t, shift) = if t.abs() >= f64::from_bits(0x7BF0_0000_0000_0000) {
            (t * f64::from_bits(0x3BF0_0000_0000_0000), 64)
        } else {
            (t, 0)
        };
        for (half, offset) in [(m & 0xFFFF_FFFF, 0), (m >> 32, 32)] {
            if half != 0 {
                let k = half as f64;
                let hi = t * k;
                let lo = t.mul_add(k, -hi);
                self.add_at(hi, shift + offset);
                self.add_at(lo, shift + offset);
            }
        }
    }

    /// Adds finite `x·2^shift`.
    fn add_at(&mut self, x: f64, shift: u32) {
        let bits = x.to_bits();
        let negative = bits >> 63 == 1;
        let exponent = ((bits >> FRACTION_BITS) & 0x7FF) as u32;
        let fraction = bits & FRACTION_MASK;
        if exponent == 0 && fraction == 0 {
            if negative {
                self.neg_zero = true;
            } else {
                self.other = true;
            }
            return;
        }
        self.other = true;
        // x = mantissa · 2^(position − 1074).
        let (mantissa, position) = if exponent == 0 {
            (fraction, 0)
        } else {
            (fraction | 1 << FRACTION_BITS, exponent - 1)
        };
        let position = position + shift;
        let k = (position / CHUNK_BITS) as usize;
        let spread = u128::from(mantissa) << (position % CHUNK_BITS);
        let pieces = [
            spread as i64 & CHUNK_MASK,
            (spread >> CHUNK_BITS) as i64 & CHUNK_MASK,
            (spread >> (2 * CHUNK_BITS)) as i64,
        ];
        for (chunk, piece) in self.chunks[k..k + 3].iter_mut().zip(pieces) {
            if negative {
                *chunk -= piece;
            } else {
                *chunk += piece;
            }
        }
        self.pending += 1;
        if self.pending >= CARRY_EVERY {
            carry(&mut self.chunks);
            self.pending = 0;
        }
    }

    /// The exact sum, rounded to nearest (ties to even).
    pub fn value(&self) -> f64 {
        if self.nan || (self.pos_inf && self.neg_inf) {
            return f64::NAN;
        }
        if self.pos_inf {
            return f64::INFINITY;
        }
        if self.neg_inf {
            return f64::NEG_INFINITY;
        }
        let mut chunks = self.chunks;
        carry(&mut chunks);
        // After a carry every chunk but the last is in [0, 2^32), so the
        // last one carries the sign.
        let negative = chunks[N_CHUNKS - 1] < 0;
        if negative {
            for chunk in &mut chunks {
                *chunk = -*chunk;
            }
            carry(&mut chunks);
        }
        let sign = if negative { -1.0 } else { 1.0 };
        let Some(top) = chunks.iter().rposition(|&c| c != 0) else {
            return if self.neg_zero && !self.other {
                -0.0
            } else {
                0.0
            };
        };
        // Highest set bit of the magnitude.
        let high = top as u32 * CHUNK_BITS + 63 - (chunks[top] as u64).leading_zeros();
        if high >= TOP_POSITION {
            return sign * f64::INFINITY;
        }
        if high <= FRACTION_BITS {
            // Below 2^53 · 2^-1074 the magnitude is its own bit pattern
            // (subnormal, or the lowest normal binade).
            return sign * f64::from_bits(bits_at(&chunks, 0, FRACTION_BITS + 1));
        }
        let mut shift = high - FRACTION_BITS;
        let mut mantissa = bits_at(&chunks, shift, FRACTION_BITS + 1);
        let round = bits_at(&chunks, shift - 1, 1) == 1;
        let sticky = any_below(&chunks, shift - 1);
        if round && (sticky || mantissa & 1 == 1) {
            mantissa += 1;
            if mantissa == 1 << (FRACTION_BITS + 1) {
                mantissa >>= 1;
                shift += 1;
            }
        }
        // Biased exponent is shift + 1; 2047 is the infinity encoding.
        if shift + 1 >= 0x7FF {
            return sign * f64::INFINITY;
        }
        // (shift + 1) << 52 | (mantissa − 2^52), folded into one add.
        sign * f64::from_bits((u64::from(shift) << FRACTION_BITS) + mantissa)
    }
}

/// Propagates carries upward so every chunk but the last lies in
/// `[0, 2^32)`; the value is unchanged.
fn carry(chunks: &mut [i64; N_CHUNKS]) {
    let mut carry = 0;
    for chunk in &mut chunks[..N_CHUNKS - 1] {
        let v = *chunk + carry;
        carry = v >> CHUNK_BITS;
        *chunk = v & CHUNK_MASK;
    }
    chunks[N_CHUNKS - 1] += carry;
}

/// `len < 64` bits of a carried, non-negative magnitude, from bit `lo`.
fn bits_at(chunks: &[i64; N_CHUNKS], lo: u32, len: u32) -> u64 {
    let k = (lo / CHUNK_BITS) as usize;
    let chunk = |i: usize| chunks.get(i).map_or(0, |&c| c as u64 as u128);
    let window = chunk(k) | chunk(k + 1) << CHUNK_BITS | chunk(k + 2) << (2 * CHUNK_BITS);
    (window >> (lo % CHUNK_BITS)) as u64 & ((1 << len) - 1)
}

/// Whether any bit below position `lo` is set.
fn any_below(chunks: &[i64; N_CHUNKS], lo: u32) -> bool {
    let k = (lo / CHUNK_BITS) as usize;
    chunks[..k].iter().any(|&c| c != 0) || chunks[k] & ((1 << (lo % CHUNK_BITS)) - 1) != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(xs: &[f64]) -> f64 {
        let mut s = ExactSum::new();
        for &x in xs {
            s.add(x);
        }
        s.value()
    }

    #[test]
    fn small_integers_sum_exactly() {
        assert_eq!(exact(&[]).to_bits(), 0.0f64.to_bits());
        assert_eq!(exact(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(exact(&[1.0, -3.0]), -2.0);
        assert_eq!(exact(&[0.5, 0.25, -0.75]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn cancellation_keeps_small_terms() {
        assert_eq!(exact(&[1e100, 1.0, -1e100]), 1.0);
        assert_eq!(exact(&[f64::MAX, f64::MAX, -f64::MAX]), f64::MAX);
        assert_eq!(exact(&[0.1, 0.2, -0.3]), 2.0f64.powi(-55));
    }

    #[test]
    fn half_way_cases_round_correctly() {
        let eps = 2.0f64.powi(-53);
        // A tie rounds to even...
        assert_eq!(exact(&[1.0, eps]), 1.0);
        assert_eq!(exact(&[1.0 + 2.0 * eps, eps]), 1.0 + 4.0 * eps);
        // ...unless a lower term breaks it.
        assert_eq!(exact(&[1.0, eps, 2.0f64.powi(-106)]), 1.0 + 2.0 * eps);
        assert_eq!(exact(&[1.0, eps, -(2.0f64.powi(-106))]), 1.0);
        assert_eq!(exact(&[-1.0, -eps, -(2.0f64.powi(-106))]), -1.0 - 2.0 * eps);
        // Rounding up across a binade.
        assert_eq!(exact(&[2.0 - 2.0 * eps, eps, 2.0f64.powi(-200)]), 2.0);
    }

    #[test]
    fn subnormals_and_overflow() {
        let tiny = f64::from_bits(1);
        assert_eq!(exact(&[tiny, tiny, tiny]).to_bits(), 3);
        assert_eq!(
            exact(&[f64::MIN_POSITIVE, -tiny]).to_bits(),
            f64::MIN_POSITIVE.to_bits() - 1
        );
        assert_eq!(exact(&[f64::MAX, f64::MAX]), f64::INFINITY);
        assert_eq!(exact(&[-f64::MAX, -f64::MAX]), f64::NEG_INFINITY);
        // Half an ulp above MAX rounds to infinity; just below stays MAX.
        let half_ulp = 2.0f64.powi(970);
        assert_eq!(exact(&[f64::MAX, half_ulp]), f64::INFINITY);
        assert_eq!(exact(&[f64::MAX, half_ulp, -tiny]), f64::MAX);
    }

    #[test]
    fn special_values_propagate_like_the_naive_sum() {
        let naive = |xs: &[f64]| xs.iter().copied().reduce(|a, b| a + b).unwrap_or(0.0);
        let cases: [&[f64]; 9] = [
            &[-0.0],
            &[-0.0, -0.0],
            &[-0.0, 0.0],
            &[0.0, -0.0],
            &[1.0, -1.0],
            &[f64::INFINITY, 1.0],
            &[f64::NEG_INFINITY, -f64::MAX, -f64::MAX],
            &[f64::INFINITY, f64::NEG_INFINITY],
            &[1.0, f64::NAN],
        ];
        for xs in cases {
            let (e, n) = (exact(xs), naive(xs));
            assert!(
                e.to_bits() == n.to_bits() || (e.is_nan() && n.is_nan()),
                "{xs:?}: exact {e} vs naive {n}"
            );
        }
    }

    #[test]
    fn add_scaled_equals_repeated_adds() {
        let terms = [
            0.1,
            -3.7e-300,
            f64::from_bits(7),
            1.0 + 2.0f64.powi(-52),
            -9.9e307,
            f64::MAX,
            -0.0,
            f64::NAN,
        ];
        for &t in &terms {
            for m in [0u64, 1, 2, 3, 7, 4096, 5000] {
                let mut scaled = ExactSum::new();
                scaled.add(0.3);
                scaled.add_scaled(t, m);
                let mut repeated = ExactSum::new();
                repeated.add(0.3);
                for _ in 0..m {
                    repeated.add(t);
                }
                let (a, b) = (scaled.value(), repeated.value());
                assert!(
                    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                    "t={t:e} m={m}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn add_scaled_handles_multipliers_beyond_32_bits() {
        let m = (1u64 << 40) + 12345;
        let mut s = ExactSum::new();
        s.add_scaled(0.1, m);
        s.add_scaled(-0.1, m - 1);
        assert_eq!(s.value(), 0.1);
        // Products far beyond f64::MAX stay exact and cancel.
        let mut s = ExactSum::new();
        s.add_scaled(f64::MAX, 1 << 40);
        s.add_scaled(-f64::MAX, (1 << 40) - 1);
        assert_eq!(s.value(), f64::MAX);
    }

    #[test]
    fn many_adds_cross_carry_propagation() {
        let mut s = ExactSum::new();
        for _ in 0..3 * CARRY_EVERY + 17 {
            s.add(f64::MAX);
            s.add(-f64::MAX);
            s.add(0.1);
        }
        let n = f64::from(3 * CARRY_EVERY + 17);
        let mut reference = ExactSum::new();
        reference.add_scaled(0.1, n as u64);
        assert_eq!(s.value().to_bits(), reference.value().to_bits());
        assert!((s.value() - 0.1 * n).abs() < 1e-9);
    }
}
