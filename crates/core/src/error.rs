//! Error types for the `transit-core` crate.
//!
//! Library code never panics on user input: every fallible public operation
//! returns [`Result<T, TransitError>`](TransitError). The enum is
//! `#[non_exhaustive]` so new failure modes can be added without breaking
//! downstream matches.

use std::fmt;

/// Errors produced by model fitting, bundling, and price optimization.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TransitError {
    /// The input flow set was empty where at least one flow is required.
    EmptyFlowSet,
    /// A model parameter was outside its valid domain
    /// (e.g. CED price sensitivity `alpha <= 1`, or a negative blended rate).
    InvalidParameter {
        /// Name of the offending parameter (e.g. `"alpha"`).
        name: &'static str,
        /// The rejected value.
        value: f64,
        /// Human-readable description of the valid domain.
        expected: &'static str,
    },
    /// A flow carried a non-finite or non-positive demand or distance.
    InvalidFlow {
        /// Index of the offending flow in the input slice.
        index: usize,
        /// Description of what was wrong.
        reason: &'static str,
    },
    /// A [`Bundling`](crate::bundling::Bundling) referenced a bundle index
    /// `>= n_bundles`, or its assignment length did not match the flow count.
    InvalidBundling {
        /// Description of the inconsistency.
        reason: &'static str,
    },
    /// The requested number of bundles was zero.
    ZeroBundles,
    /// An iterative solver failed to converge within its iteration budget.
    NoConvergence {
        /// Which solver failed (e.g. `"logit fixed point"`).
        solver: &'static str,
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// Exhaustive search was requested on an instance too large to enumerate.
    InstanceTooLarge {
        /// Number of flows in the instance.
        n_flows: usize,
        /// Maximum supported by the exhaustive search.
        max_flows: usize,
    },
    /// Calibration produced a non-positive cost scale, meaning the supplied
    /// `(alpha, s0, p0)` combination implies the blended rate does not cover
    /// marginal cost (logit markup `1/(alpha*s0)` exceeds `p0`).
    InfeasibleCalibration {
        /// The computed (rejected) cost scale gamma.
        gamma: f64,
    },
    /// A pipeline stage, artifact codec, or artifact-store operation
    /// failed (see `transit-stage`).
    Stage {
        /// Human-readable failure description.
        message: String,
    },
}

impl fmt::Display for TransitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransitError::EmptyFlowSet => write!(f, "flow set is empty"),
            TransitError::InvalidParameter {
                name,
                value,
                expected,
            } => write!(f, "invalid parameter {name}={value}: expected {expected}"),
            TransitError::InvalidFlow { index, reason } => {
                write!(f, "invalid flow at index {index}: {reason}")
            }
            TransitError::InvalidBundling { reason } => {
                write!(f, "invalid bundling: {reason}")
            }
            TransitError::ZeroBundles => write!(f, "number of bundles must be at least 1"),
            TransitError::NoConvergence { solver, iterations } => {
                write!(
                    f,
                    "{solver} failed to converge after {iterations} iterations"
                )
            }
            TransitError::InstanceTooLarge { n_flows, max_flows } => write!(
                f,
                "exhaustive search limited to {max_flows} flows, got {n_flows}"
            ),
            TransitError::InfeasibleCalibration { gamma } => write!(
                f,
                "calibration produced non-positive cost scale gamma={gamma}; \
                 the blended rate does not cover the implied optimal markup"
            ),
            TransitError::Stage { message } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for TransitError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TransitError>;

/// Validates that `value` is finite and strictly positive, returning an
/// [`TransitError::InvalidParameter`] otherwise.
pub(crate) fn check_positive(name: &'static str, value: f64) -> Result<f64> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(TransitError::InvalidParameter {
            name,
            value,
            expected: "a finite value > 0",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = TransitError::InvalidParameter {
            name: "alpha",
            value: 0.5,
            expected: "alpha > 1 for constant-elasticity demand",
        };
        let msg = e.to_string();
        assert!(msg.contains("alpha"));
        assert!(msg.contains("0.5"));

        let e = TransitError::NoConvergence {
            solver: "logit fixed point",
            iterations: 1000,
        };
        assert!(e.to_string().contains("1000"));
    }

    #[test]
    fn check_positive_accepts_positive() {
        assert_eq!(check_positive("x", 2.0), Ok(2.0));
    }

    #[test]
    fn check_positive_rejects_zero_negative_nan() {
        assert!(check_positive("x", 0.0).is_err());
        assert!(check_positive("x", -1.0).is_err());
        assert!(check_positive("x", f64::NAN).is_err());
        assert!(check_positive("x", f64::INFINITY).is_err());
    }

    #[test]
    fn errors_implement_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&TransitError::EmptyFlowSet);
    }
}
