//! Independent verification of a synthesised implementation against the
//! explicit state graph: the gate function of every signal must equal the
//! signal's implied (next-state) value in every reachable state.
//!
//! This is the oracle the integration tests and the benchmark harness use
//! to confirm that the unfolding-based flow produces the same Boolean
//! behaviour as SG-based synthesis without ever building the SG itself.

use std::error::Error;
use std::fmt;

use si_stategraph::{SgEngine, SgError, StateGraph};
use si_stg::Stg;

use crate::synth::UnfoldingSynthesis;

/// A verification failure: a reachable state where a gate's output differs
/// from the specified implied value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The state graph could not be built (unsafe, inconsistent, budget).
    StateGraph(SgError),
    /// A gate disagrees with the specification.
    Mismatch {
        /// The signal whose gate misbehaves.
        signal: String,
        /// The binary code of the offending state.
        code: String,
        /// The specified implied value.
        expected: bool,
        /// The gate's output.
        got: bool,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::StateGraph(e) => write!(f, "verification oracle failed: {e}"),
            VerifyError::Mismatch {
                signal,
                code,
                expected,
                got,
            } => write!(
                f,
                "gate for `{signal}` outputs {} at reachable code {code}, specification \
                 implies {}",
                u8::from(*got),
                u8::from(*expected)
            ),
        }
    }
}

impl Error for VerifyError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VerifyError::StateGraph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SgError> for VerifyError {
    fn from(e: SgError) -> Self {
        VerifyError::StateGraph(e)
    }
}

/// Verifies `synthesis` against the explicit state graph of `stg` (built
/// with at most `state_budget` states).
///
/// # Errors
///
/// Returns the first [`VerifyError::Mismatch`] found, or
/// [`VerifyError::StateGraph`] if the oracle cannot be built.
///
/// # Examples
///
/// ```
/// use si_stg::suite::paper_fig1;
/// use si_synthesis::{synthesize_from_unfolding, verify_against_sg, SynthesisOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let stg = paper_fig1();
/// let result = synthesize_from_unfolding(&stg, &SynthesisOptions::default())?;
/// verify_against_sg(&stg, &result, 10_000)?;
/// # Ok(())
/// # }
/// ```
pub fn verify_against_sg(
    stg: &Stg,
    synthesis: &UnfoldingSynthesis,
    state_budget: usize,
) -> Result<(), VerifyError> {
    verify_against_sg_with(stg, synthesis, state_budget, SgEngine::Explicit)
}

/// Like [`verify_against_sg`], but with an explicit choice of
/// state-traversal engine for the oracle. `budget` is the engine's own
/// budget: a maximum state count for [`SgEngine::Explicit`], a maximum BDD
/// node count for [`SgEngine::Symbolic`] — the symbolic oracle verifies
/// specifications whose state count is far beyond anything enumerable.
///
/// # Errors
///
/// Returns the first [`VerifyError::Mismatch`] found, or
/// [`VerifyError::StateGraph`] if the oracle cannot be built.
///
/// # Examples
///
/// ```
/// use si_stategraph::SgEngine;
/// use si_stg::generators::muller_pipeline;
/// use si_synthesis::{synthesize_from_unfolding, verify_against_sg_with, SynthesisOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let stg = muller_pipeline(4);
/// let result = synthesize_from_unfolding(&stg, &SynthesisOptions::default())?;
/// verify_against_sg_with(&stg, &result, 1_000_000, SgEngine::Symbolic)?;
/// # Ok(())
/// # }
/// ```
pub fn verify_against_sg_with(
    stg: &Stg,
    synthesis: &UnfoldingSynthesis,
    budget: usize,
    engine: SgEngine,
) -> Result<(), VerifyError> {
    let gates: Vec<GateFunction<'_>> = synthesis
        .gates
        .iter()
        .map(|g| GateFunction {
            signal: g.signal,
            cover: &g.gate,
            inverted: false,
        })
        .collect();
    verify_gate_functions(stg, &gates, budget, engine)
}

/// One gate function to check against the oracle: the implemented signal,
/// its SOP cover, and whether the cover implements the *complemented*
/// function (the SG flow's `--invert` gates).
pub(crate) struct GateFunction<'a> {
    pub signal: si_stg::SignalId,
    pub cover: &'a si_cubes::Cover,
    pub inverted: bool,
}

/// The shared oracle behind [`verify_against_sg_with`] and the unified
/// flow surface: every gate function must equal its signal's implied
/// (next-state) value in every reachable state.
///
/// The oracle compares point sets, not states: the gate cover must contain
/// the signal's implicit on-set and miss its implicit off-set (roles
/// swapped for inverted gates). Checking through the implicit
/// representation makes the oracle's cost track the diagram size instead
/// of states × gates × cubes; a reported mismatch is the canonically
/// smallest offending code (the explicit sweep reported the first in BFS
/// order instead). Both engines produce the same implicit point sets, so
/// the verdict — and the witness — is engine-independent.
pub(crate) fn verify_gate_functions(
    stg: &Stg,
    gates: &[GateFunction<'_>],
    budget: usize,
    engine: SgEngine,
) -> Result<(), VerifyError> {
    match engine {
        SgEngine::Explicit => {
            let sg = StateGraph::build(stg, budget)?;
            let class = sg.classification();
            for gate in gates {
                check_gate(stg, gate, class.on_off_sets(gate.signal))?;
            }
        }
        SgEngine::Symbolic => {
            // The oracle reorders automatically: sifting never changes the
            // verdict (the point sets are order-independent), and a
            // specification that only fits the budget under a good dynamic
            // order must still be verifiable under the same budget.
            let tuning = si_stategraph::SymbolicTuning {
                reorder: si_stategraph::ReorderPolicy::Auto,
                ..si_stategraph::SymbolicTuning::with_budget(budget)
            };
            let sym = si_stategraph::SymbolicSg::build(stg, &tuning)?;
            for gate in gates {
                check_gate(stg, gate, sym.on_off_sets(gate.signal))?;
            }
        }
    }
    Ok(())
}

/// Checks one gate function against its signal's implicit on/off sets. An
/// inverted gate's cover implements the complement, so it must cover the
/// off-set and miss the on-set; the reported expected/got values are the
/// gate *outputs*, inversion included.
fn check_gate(
    stg: &Stg,
    gate: &GateFunction<'_>,
    mut sets: si_stategraph::ImplicitOnOffSets,
) -> Result<(), VerifyError> {
    let (on, off) = (sets.on(), sets.off());
    let pool = sets.pool_mut();
    let gate_set = pool.cover_set(gate.cover);
    let (must_cover, must_miss) = if gate.inverted { (off, on) } else { (on, off) };
    let missed = pool.diff(must_cover, gate_set);
    if let Some(bits) = pool.first_minterm(missed) {
        return Err(VerifyError::Mismatch {
            signal: stg.signal_name(gate.signal).to_owned(),
            code: bits_to_code_string(&bits),
            expected: !gate.inverted,
            got: gate.inverted,
        });
    }
    let wrong = pool.intersect(gate_set, must_miss);
    if let Some(bits) = pool.first_minterm(wrong) {
        return Err(VerifyError::Mismatch {
            signal: stg.signal_name(gate.signal).to_owned(),
            code: bits_to_code_string(&bits),
            expected: gate.inverted,
            got: !gate.inverted,
        });
    }
    Ok(())
}

/// Renders a code the way [`si_stg::BinaryCode`] does (`101…`).
fn bits_to_code_string(bits: &[bool]) -> String {
    bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synthesize_from_unfolding, CoverMode, SynthesisOptions};
    use si_stg::generators::{counterflow_pipeline, muller_pipeline, sequencer};
    use si_stg::suite::synthesisable;

    #[test]
    fn whole_suite_verifies_in_approximate_mode() {
        for stg in synthesisable() {
            let result = synthesize_from_unfolding(&stg, &SynthesisOptions::default())
                .unwrap_or_else(|e| panic!("{} failed to synthesise: {e}", stg.name()));
            verify_against_sg(&stg, &result, 5_000_000)
                .unwrap_or_else(|e| panic!("{} failed verification: {e}", stg.name()));
        }
    }

    #[test]
    fn whole_suite_verifies_in_exact_mode() {
        let options = SynthesisOptions {
            mode: CoverMode::Exact,
            ..SynthesisOptions::default()
        };
        for stg in synthesisable() {
            let result = synthesize_from_unfolding(&stg, &options)
                .unwrap_or_else(|e| panic!("{} failed to synthesise: {e}", stg.name()));
            verify_against_sg(&stg, &result, 5_000_000)
                .unwrap_or_else(|e| panic!("{} failed verification: {e}", stg.name()));
        }
    }

    #[test]
    fn pipelines_verify() {
        for stg in [muller_pipeline(4), counterflow_pipeline(3), sequencer(8)] {
            let result = synthesize_from_unfolding(&stg, &SynthesisOptions::default())
                .unwrap_or_else(|e| panic!("{} failed: {e}", stg.name()));
            verify_against_sg(&stg, &result, 5_000_000)
                .unwrap_or_else(|e| panic!("{} failed verification: {e}", stg.name()));
        }
    }

    #[test]
    fn tampered_gate_is_caught() {
        use si_cubes::{Cover, Cube};
        let stg = si_stg::suite::paper_fig1();
        let mut result = synthesize_from_unfolding(&stg, &SynthesisOptions::default()).expect("ok");
        // Replace the gate for b with constant 1.
        result.gates[0].gate = [Cube::full(3)].into_iter().collect::<Cover>();
        let err = verify_against_sg(&stg, &result, 10_000).unwrap_err();
        assert!(matches!(err, VerifyError::Mismatch { .. }));
    }

    #[test]
    fn symbolic_oracle_agrees_with_explicit() {
        for stg in synthesisable() {
            let result = synthesize_from_unfolding(&stg, &SynthesisOptions::default())
                .unwrap_or_else(|e| panic!("{} failed to synthesise: {e}", stg.name()));
            verify_against_sg_with(&stg, &result, 8_000_000, SgEngine::Symbolic)
                .unwrap_or_else(|e| panic!("{} failed symbolic verification: {e}", stg.name()));
        }
    }

    #[test]
    fn symbolic_oracle_catches_tampering_with_the_same_witness() {
        use si_cubes::{Cover, Cube};
        let stg = si_stg::suite::paper_fig1();
        let mut result = synthesize_from_unfolding(&stg, &SynthesisOptions::default()).expect("ok");
        result.gates[0].gate = [Cube::full(3)].into_iter().collect::<Cover>();
        let explicit = verify_against_sg(&stg, &result, 10_000).unwrap_err();
        let symbolic =
            verify_against_sg_with(&stg, &result, 1_000_000, SgEngine::Symbolic).unwrap_err();
        assert_eq!(symbolic, explicit, "witness differs between oracles");
    }
}
