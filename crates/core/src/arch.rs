//! The memory-element architectures the paper mentions as straightforward
//! adaptations (§2.1, §6): *standard C-element* and *RS-latch*
//! implementations, where the complex gate computes Set/Reset excitation
//! functions instead of the full next-state function.
//!
//! They run on exact mode's one walk over the segment
//! ([`classify_reachable`]), which records every state's code and excited
//! changes: each signal's on- and off-sets and its excitation regions are
//! point sets of that one classification, minimised implicitly.

use si_cubes::implicit::ImplicitPool;
use si_cubes::{minimize_implicit, Cover};
use si_stg::{SignalId, Stg};
use si_unfolding::{StgUnfolding, UnfoldingOptions};

use crate::error::SynthesisError;
use crate::exact::classify_reachable;
use crate::synth::{implementable_signals, require_csc, require_persistency};

/// The memory element guarding an excitation-function implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryElement {
    /// Muller C-element: output rises when Set=1, falls when Reset=1, holds
    /// otherwise; Set and Reset may both be 0 (hold) but never both 1.
    MullerC,
    /// RS latch: same protocol with a set/reset dominant latch; Set and
    /// Reset must be mutually exclusive on all reachable states.
    RsLatch,
}

/// A Set/Reset implementation of one signal.
#[derive(Debug, Clone)]
pub struct ExcitationImplementation {
    /// The implemented signal.
    pub signal: SignalId,
    /// The memory element type.
    pub element: MemoryElement,
    /// The Set excitation function: covers `ER(+a)`, disjoint from the
    /// off-set.
    pub set: Cover,
    /// The Reset excitation function: covers `ER(-a)`, disjoint from the
    /// on-set and from `set`.
    pub reset: Cover,
}

impl ExcitationImplementation {
    /// Combined literal count of both excitation functions.
    pub fn literal_count(&self) -> usize {
        self.set.literal_count() + self.reset.literal_count()
    }

    /// Renders both equations, e.g. `set(b) = …` / `reset(b) = …`.
    pub fn equations(&self, stg: &Stg) -> (String, String) {
        let names: Vec<&str> = stg.signals().map(|s| stg.signal_name(s)).collect();
        (
            format!(
                "set({}) = {}",
                stg.signal_name(self.signal),
                self.set.to_expression_string(&names)
            ),
            format!(
                "reset({}) = {}",
                stg.signal_name(self.signal),
                self.reset.to_expression_string(&names)
            ),
        )
    }
}

/// Synthesises Set/Reset excitation functions for every implementable
/// signal. The on- and off-sets and the excitation regions `ER(+a)` and
/// `ER(-a)` all come from exact mode's one walk over the segment
/// ([`classify_reachable`]).
///
/// # Errors
///
/// In the order of [`crate::synthesize_from_unfolding`]: propagates
/// unfolding errors, reports [`SynthesisError::NotPersistent`] if
/// semi-modularity fails on the segment and
/// [`SynthesisError::ConstantSignal`] for an implementable signal without
/// transitions, both before walking. `slice_budget` bounds the walk
/// ([`SynthesisError::SliceBudgetExceeded`]). Reports
/// [`SynthesisError::CscViolation`] when a signal's on- and off-sets share
/// a code.
pub fn synthesize_excitation_functions(
    stg: &Stg,
    element: MemoryElement,
    unfolding: &UnfoldingOptions,
    slice_budget: usize,
) -> Result<Vec<ExcitationImplementation>, SynthesisError> {
    let unf = StgUnfolding::build(stg, unfolding)?;
    require_persistency(stg, &unf)?;
    let signals = implementable_signals(stg)?;
    let states = classify_reachable(stg, &unf, slice_budget)?;
    let mut out = Vec::with_capacity(signals.len());
    for signal in signals {
        let mut pool = ImplicitPool::new(stg.signal_count());
        let (on, off) = states.sets_into(&mut pool, signal);
        require_csc(stg, &mut pool, signal, on, off)?;
        let (er_on, er_off) = states.excitation_sets_into(&mut pool, signal);
        // Set must hit every ER(+a) state and no off-set state; it may
        // stretch over the rest of the on-set (where the latch holds 1
        // anyway) and unreachable codes.
        let set = minimize_implicit(&mut pool, er_on, off);
        // Reset symmetric; for an RS latch additionally keep Reset clear of
        // the (possibly expanded) Set function so both are never 1.
        let reset_off = match element {
            MemoryElement::MullerC => on,
            MemoryElement::RsLatch => {
                let set_points = pool.cover_set(&set);
                pool.union(on, set_points)
            }
        };
        let reset = minimize_implicit(&mut pool, er_off, reset_off);
        out.push(ExcitationImplementation {
            signal,
            element,
            set,
            reset,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_stategraph::StateGraph;
    use si_stg::generators::muller_pipeline;
    use si_stg::suite::{paper_fig1, vme_read_csc, vme_read_no_csc};
    use si_stg::Polarity;

    use crate::synth::tests::output_choice;

    fn check_excitation_contract(stg: &Stg, impls: &[ExcitationImplementation]) {
        // Oracle: on every reachable state, Set=1 iff the gate must drive
        // the output up … at least on ER states; Set=0 on all off states.
        let sg = StateGraph::build(stg, 1_000_000).expect("oracle builds");
        for imp in impls {
            for s in 0..sg.len() {
                let code = sg.code(s);
                let bits: Vec<bool> = code.iter().map(|(_, v)| v).collect();
                let excited = sg.excited(stg, s);
                let rising = excited
                    .iter()
                    .any(|e| e.signal == imp.signal && e.polarity == Polarity::Rise);
                let falling = excited
                    .iter()
                    .any(|e| e.signal == imp.signal && e.polarity == Polarity::Fall);
                let implied = if rising {
                    true
                } else if falling {
                    false
                } else {
                    code.get(imp.signal)
                };
                if rising {
                    assert!(imp.set.covers_bits(&bits), "set misses an ER(+) state");
                }
                if falling {
                    assert!(imp.reset.covers_bits(&bits), "reset misses an ER(-) state");
                }
                if !implied {
                    assert!(!imp.set.covers_bits(&bits), "set fires in the off-set");
                }
                if implied {
                    assert!(!imp.reset.covers_bits(&bits), "reset fires in the on-set");
                }
                if imp.element == MemoryElement::RsLatch {
                    assert!(
                        !(imp.set.covers_bits(&bits) && imp.reset.covers_bits(&bits)),
                        "set and reset both active"
                    );
                }
            }
        }
    }

    #[test]
    fn fig1_c_element_implementation() {
        let stg = paper_fig1();
        let impls = synthesize_excitation_functions(
            &stg,
            MemoryElement::MullerC,
            &UnfoldingOptions::default(),
            100_000,
        )
        .expect("ok");
        assert_eq!(impls.len(), 1);
        check_excitation_contract(&stg, &impls);
    }

    #[test]
    fn fig1_rs_latch_implementation() {
        let stg = paper_fig1();
        let impls = synthesize_excitation_functions(
            &stg,
            MemoryElement::RsLatch,
            &UnfoldingOptions::default(),
            100_000,
        )
        .expect("ok");
        check_excitation_contract(&stg, &impls);
    }

    #[test]
    fn vme_and_pipeline_excitation_functions() {
        for stg in [vme_read_csc(), muller_pipeline(3)] {
            for element in [MemoryElement::MullerC, MemoryElement::RsLatch] {
                let impls = synthesize_excitation_functions(
                    &stg,
                    element,
                    &UnfoldingOptions::default(),
                    1_000_000,
                )
                .unwrap_or_else(|e| panic!("{} failed: {e}", stg.name()));
                check_excitation_contract(&stg, &impls);
            }
        }
    }

    #[test]
    fn set_reset_usually_cheaper_than_complex_gate() {
        // The point of the architecture: per-function gates are smaller.
        let stg = muller_pipeline(3);
        let impls = synthesize_excitation_functions(
            &stg,
            MemoryElement::MullerC,
            &UnfoldingOptions::default(),
            1_000_000,
        )
        .expect("ok");
        for imp in &impls {
            assert!(imp.set.literal_count() <= 4, "set too big");
            assert!(imp.reset.literal_count() <= 4, "reset too big");
        }
    }

    #[test]
    fn csc_conflict_reported_with_the_complex_gate_witness() {
        let stg = vme_read_no_csc();
        for element in [MemoryElement::MullerC, MemoryElement::RsLatch] {
            let err = synthesize_excitation_functions(
                &stg,
                element,
                &UnfoldingOptions::default(),
                1_000_000,
            )
            .unwrap_err();
            assert!(
                matches!(&err, SynthesisError::CscViolation { signal, witness }
                    if signal == "lds" && witness == "11100"),
                "{element:?}: got {err:?}"
            );
        }
    }

    #[test]
    fn persistency_violation_reported() {
        let stg = output_choice();
        for element in [MemoryElement::MullerC, MemoryElement::RsLatch] {
            let err = synthesize_excitation_functions(
                &stg,
                element,
                &UnfoldingOptions::default(),
                1_000_000,
            )
            .unwrap_err();
            assert!(
                matches!(&err, SynthesisError::NotPersistent { signal } if signal == "x"),
                "{element:?}: got {err:?}"
            );
        }
    }
}
