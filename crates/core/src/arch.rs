//! The memory-element architectures the paper mentions as straightforward
//! adaptations (§2.1, §6): *standard C-element* and *RS-latch*
//! implementations, where the complex gate computes Set/Reset excitation
//! functions instead of the full next-state function.

use std::collections::HashSet;

use si_cubes::implicit::ImplicitPool;
use si_cubes::{minimize, Cover};
use si_stg::{BinaryCode, SignalId, Stg};
use si_unfolding::{StgUnfolding, UnfoldingOptions};

use crate::covers::code_to_cube;
use crate::error::SynthesisError;
use crate::exact::{classify_reachable, excitation_codes};
use crate::slice::{side_slices, Slice};

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
/// signal. The on- and off-sets come from exact mode's one walk over the
/// segment ([`classify_reachable`]); the excitation regions from exact
/// enumeration of each slice's excited part (ERs are small even when
/// quiescent regions explode).
///
/// # Errors
///
/// Propagates unfolding and enumeration errors: `slice_budget` bounds the
/// walk and each excitation-region traversal. Reports
/// [`SynthesisError::ConstantSignal`] for an implementable signal without
/// transitions before walking, and [`SynthesisError::CscViolation`] when a
/// signal's on- and off-sets overlap in code space.
pub fn synthesize_excitation_functions(
    stg: &Stg,
    element: MemoryElement,
    unfolding: &UnfoldingOptions,
    slice_budget: usize,
) -> Result<Vec<ExcitationImplementation>, SynthesisError> {
    let unf = StgUnfolding::build(stg, unfolding)?;
    let signals = stg.implementable_signals();
    for &signal in &signals {
        if stg.transitions_of(signal).is_empty() {
            return Err(SynthesisError::ConstantSignal {
                signal: stg.signal_name(signal).to_owned(),
            });
        }
    }
    let states = classify_reachable(stg, &unf, slice_budget)?;
    let mut out = Vec::new();
    for signal in signals {
        let on_slices = side_slices(&unf, signal, true);
        let off_slices = side_slices(&unf, signal, false);

        // ER(+a) = excitation parts of the on-slices (where +a is pending);
        // ER(-a) symmetric.
        let er_on = excitation_cover(&unf, &on_slices, slice_budget)?;
        let er_off = excitation_cover(&unf, &off_slices, slice_budget)?;
        let mut pool = ImplicitPool::new(unf.signal_count());
        let (on, off) = states.sets_into(&mut pool, signal);
        let (on, off) = (pool.minterms_cover(on), pool.minterms_cover(off));
        if on.intersects(&off) {
            let witness = on
                .intersect(&off)
                .cubes()
                .first()
                .map(ToString::to_string)
                .unwrap_or_default();
            return Err(SynthesisError::CscViolation {
                signal: stg.signal_name(signal).to_owned(),
                witness,
            });
        }

        // Set must hit every ER(+a) state and no off-set state; it may
        // stretch over the rest of the on-set (where the latch holds 1
        // anyway) and unreachable codes.
        let set = minimize(&er_on, &off);
        // Reset symmetric; for an RS latch additionally keep Reset clear of
        // the (possibly expanded) Set function so both are never 1.
        let reset = match element {
            MemoryElement::MullerC => minimize(&er_off, &on),
            MemoryElement::RsLatch => minimize(&er_off, &on.union(&set)),
        };
        out.push(ExcitationImplementation {
            signal,
            element,
            set,
            reset,
        });
    }
    Ok(out)
}

/// The minterm cover of the excitation codes of `slices`: one cube per
/// distinct code, in first-occurrence order.
fn excitation_cover(
    unf: &StgUnfolding,
    slices: &[Slice],
    slice_budget: usize,
) -> Result<Cover, SynthesisError> {
    let mut cover = Cover::empty(unf.signal_count());
    let mut seen: HashSet<BinaryCode> = HashSet::new();
    for s in slices {
        for code in excitation_codes(unf, s, slice_budget)? {
            if !seen.contains(&code) {
                cover.push(code_to_cube(&code));
                seen.insert(code);
            }
        }
    }
    Ok(cover)
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_stategraph::StateGraph;
    use si_stg::generators::muller_pipeline;
    use si_stg::suite::{paper_fig1, vme_read_csc};
    use si_stg::Polarity;

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
    fn excitation_cover_equals_repeated_union() {
        for stg in [paper_fig1(), vme_read_csc(), muller_pipeline(3)] {
            let unf = StgUnfolding::build(&stg, &UnfoldingOptions::default()).expect("builds");
            for signal in stg.implementable_signals() {
                for value in [true, false] {
                    let slices = side_slices(&unf, signal, value);
                    // The reference: one single-cube union per code.
                    let mut expected = Cover::empty(unf.signal_count());
                    for s in &slices {
                        for code in excitation_codes(&unf, s, 1_000_000).expect("small") {
                            expected = expected.union(&[code_to_cube(&code)].into_iter().collect());
                        }
                    }
                    let got = excitation_cover(&unf, &slices, 1_000_000).expect("small");
                    assert_eq!(got, expected, "{} signal {signal}", stg.name());
                    assert_eq!(got.width(), expected.width());
                }
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
}
