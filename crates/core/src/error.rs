//! Error types for unfolding-based synthesis.

use std::error::Error;
use std::fmt;

use si_unfolding::UnfoldError;

/// Errors raised by the unfolding-based synthesis flow.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SynthesisError {
    /// Segment construction failed (inconsistency, unsafeness, budget).
    Unfold(UnfoldError),
    /// The STG is not semi-modular: an excited non-input signal can be
    /// disabled, so no hazard-free implementation exists.
    NotPersistent {
        /// The signal that can be disabled.
        signal: String,
    },
    /// Complete State Coding is violated: even the exact on- and off-set
    /// covers of this signal intersect, so the specification must be
    /// changed (e.g. by inserting internal signals).
    CscViolation {
        /// The signal whose covers intersect.
        signal: String,
        /// A witness cube of the intersection.
        witness: String,
    },
    /// An implementable signal never changes; it needs no gate and the
    /// specification is suspicious.
    ConstantSignal {
        /// The signal's name.
        signal: String,
    },
    /// Exact cut enumeration reached more distinct markings than its
    /// budget allows: exact mode's one walk over the whole segment, or one
    /// slice traversal of approximate mode's exact fallbacks.
    SliceBudgetExceeded {
        /// The configured budget.
        budget: usize,
    },
    /// Approximate mode only: the derived on- and off-set covers handed to
    /// the minimiser overlap even though refinement reported them disjoint
    /// — an internal consistency failure. Unlike
    /// [`SynthesisError::CscViolation`] (a property of the specification),
    /// this indicates a bug in cover derivation, and it is checked in
    /// release builds too: minimising an inconsistent partition would
    /// silently return garbage gates. Exact mode's point sets go through
    /// the CSC check alone, which already proves them disjoint.
    InconsistentCovers {
        /// The affected signal.
        signal: String,
        /// A witness cube of the overlap.
        witness: String,
    },
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::Unfold(e) => write!(f, "unfolding failed: {e}"),
            SynthesisError::NotPersistent { signal } => {
                write!(
                    f,
                    "STG is not semi-modular: signal `{signal}` can be disabled"
                )
            }
            SynthesisError::CscViolation { signal, witness } => write!(
                f,
                "CSC violation on `{signal}`: on- and off-set covers share {witness}"
            ),
            SynthesisError::ConstantSignal { signal } => {
                write!(f, "signal `{signal}` never changes; no gate is needed")
            }
            SynthesisError::SliceBudgetExceeded { budget } => {
                write!(f, "exact cut enumeration exceeded {budget} markings")
            }
            SynthesisError::InconsistentCovers { signal, witness } => write!(
                f,
                "internal error: derived covers for `{signal}` overlap at {witness} \
                 despite passing the disjointness check"
            ),
        }
    }
}

impl Error for SynthesisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SynthesisError::Unfold(e) => Some(e),
            _ => None,
        }
    }
}

impl From<UnfoldError> for SynthesisError {
    fn from(e: UnfoldError) -> Self {
        SynthesisError::Unfold(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = SynthesisError::CscViolation {
            signal: "lds".into(),
            witness: "10100".into(),
        };
        assert!(e.to_string().contains("lds"));
        assert!(e.to_string().contains("10100"));
        assert!(SynthesisError::SliceBudgetExceeded { budget: 9 }
            .to_string()
            .contains('9'));
        let e = SynthesisError::InconsistentCovers {
            signal: "d".into(),
            witness: "1-0".into(),
        };
        assert!(e.to_string().contains("`d`"));
        assert!(e.to_string().contains("1-0"));
        let e = SynthesisError::from(UnfoldError::DummyTransitions);
        assert!(e.source().is_some());
    }
}
