//! Behavioural correctness properties checked on the state graph:
//! semi-modularity (output persistency) and Complete State Coding (CSC).
//!
//! The checks read the packed codes and excited-change masks the graph
//! records as it is built ([`StateGraph::classification`]).

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use si_stg::{Polarity, SignalId, SignalTransition, Stg};

use crate::graph::StateGraph;
use crate::synth::SgClassification;

/// A semi-modularity (output persistency) violation: an excited non-input
/// signal change was disabled by another transition firing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistencyViolation {
    /// The state at which the output change was excited.
    pub state: usize,
    /// The output change that was disabled.
    pub disabled: SignalTransition,
    /// The change whose firing disabled it.
    pub by: SignalTransition,
}

/// Checks semi-modularity: for every state `s` and excited non-input change
/// `±a`, firing any *other* change must leave `±a` excited. Violations mean
/// the circuit could produce a hazard, so such STGs are rejected for
/// synthesis.
///
/// Violations come in state order, then in the order of the firing edge,
/// then of the disabled change's edge (both in transition-id order); a
/// change excited by two edges of one state is reported once per edge.
///
/// # Examples
///
/// ```
/// use si_stg::suite::paper_fig1;
/// use si_stategraph::{check_persistency, StateGraph};
///
/// # fn main() -> Result<(), si_stategraph::SgError> {
/// let stg = paper_fig1();
/// let sg = StateGraph::build(&stg, 10_000)?;
/// assert!(check_persistency(&stg, &sg).is_empty());
/// # Ok(())
/// # }
/// ```
pub fn check_persistency(stg: &Stg, sg: &StateGraph) -> Vec<PersistencyViolation> {
    let class = sg.classification();
    let mut violations = Vec::new();
    for s in 0..sg.len() {
        let edges = sg.successors(s);
        for &(t, s2) in edges {
            let Some(fired) = stg.label(t) else { continue };
            for &(u, _) in edges {
                let Some(e) = stg.label(u) else { continue };
                if e == fired || !stg.signal_kind(e.signal).is_implementable() {
                    continue;
                }
                if !is_excited(class, s2, e) {
                    violations.push(PersistencyViolation {
                        state: s,
                        disabled: e,
                        by: fired,
                    });
                }
            }
        }
    }
    violations
}

/// Whether `change` is excited at state `s`.
fn is_excited(class: &SgClassification, s: usize, change: SignalTransition) -> bool {
    let (rise, fall) = class.excited_words(s);
    let words = match change.polarity {
        Polarity::Rise => rise,
        Polarity::Fall => fall,
    };
    has_bit(words, change.signal.index())
}

fn has_bit(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1 << (i % 64)) != 0
}

/// A Complete State Coding conflict: two states share a binary code but
/// disagree on which non-input signal changes are excited.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CscConflict {
    /// First state of the conflicting pair.
    pub state_a: usize,
    /// Second state of the conflicting pair.
    pub state_b: usize,
    /// The shared binary code (formatted).
    pub code: String,
    /// A non-input signal excited in exactly one of the two states.
    pub signal: String,
}

/// Checks the Complete State Coding condition: any two states with equal
/// binary codes must have the same set of excited non-input signals
/// (Chu 1987). STGs violating CSC are not implementable as speed-independent
/// circuits without specification changes.
///
/// Each state is compared with the first state of its code; conflicts come
/// sorted by that pair, and each names the lowest signal excited in the
/// first state only, or else the lowest excited in the second only.
pub fn check_csc(stg: &Stg, sg: &StateGraph) -> Vec<CscConflict> {
    let class = sg.classification();
    let implementable = signal_mask(class, stg.implementable_signals());
    // Per state: the non-input signals with an excited change.
    let excited_outputs = |s: usize| -> Vec<u64> {
        let (rise, fall) = class.excited_words(s);
        rise.iter()
            .zip(fall)
            .zip(&implementable)
            .map(|((&r, &f), &m)| (r | f) & m)
            .collect()
    };
    let mut conflicts = Vec::new();
    for (a, b) in pairs_with_first_of_code(class) {
        let (reference, here) = (excited_outputs(a), excited_outputs(b));
        let only = |x: &[u64], y: &[u64]| lowest_bit(x.iter().zip(y).map(|(&x, &y)| x & !y));
        if let Some(diff) = only(&reference, &here).or_else(|| only(&here, &reference)) {
            conflicts.push(CscConflict {
                state_a: a,
                state_b: b,
                code: sg.code(a).to_string(),
                signal: stg.signal_name(SignalId(diff as u32)).to_owned(),
            });
        }
    }
    conflicts.sort_by_key(|c| (c.state_a, c.state_b));
    conflicts
}

/// Checks Unique State Coding: two distinct markings sharing a binary code.
/// USC is stronger than CSC; its violations are diagnostics, not
/// implementability failures. Each clash pairs a state with the first state
/// of its code, in the order of the second.
pub fn check_usc(sg: &StateGraph) -> Vec<(usize, usize)> {
    pairs_with_first_of_code(sg.classification()).collect()
}

/// Every state `s` whose code an earlier state has, paired after the first
/// state with that code, in the order of `s`.
fn pairs_with_first_of_code(class: &SgClassification) -> impl Iterator<Item = (usize, usize)> + '_ {
    let mut first: HashMap<&[u64], usize> = HashMap::new();
    (0..class.len()).filter_map(move |s| match first.entry(class.code_words(s)) {
        Entry::Occupied(e) => Some((*e.get(), s)),
        Entry::Vacant(e) => {
            e.insert(s);
            None
        }
    })
}

/// `signals` as a mask in the classification's row layout.
fn signal_mask(class: &SgClassification, signals: impl IntoIterator<Item = SignalId>) -> Vec<u64> {
    let mut mask = vec![0u64; class.width().div_ceil(64).max(1)];
    for signal in signals {
        mask[signal.index() / 64] |= 1 << (signal.index() % 64);
    }
    mask
}

/// The index of the lowest set bit across `words`, if any.
fn lowest_bit(words: impl Iterator<Item = u64>) -> Option<usize> {
    words
        .enumerate()
        .find(|&(_, w)| w != 0)
        .map(|(i, w)| 64 * i + w.trailing_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_stg::generators::{dining_philosophers, muller_pipeline, token_ring, wide_arbiter};
    use si_stg::suite::{paper_fig1, vme_read_csc, vme_read_no_csc};
    use si_stg::{SignalKind, StgBuilder};

    #[test]
    fn fig1_is_persistent_and_csc_clean() {
        let stg = paper_fig1();
        let sg = StateGraph::build(&stg, 1000).expect("builds");
        assert!(check_persistency(&stg, &sg).is_empty());
        assert!(check_csc(&stg, &sg).is_empty());
    }

    #[test]
    fn muller_pipeline_is_persistent_and_csc_clean() {
        let stg = muller_pipeline(3);
        let sg = StateGraph::build(&stg, 100_000).expect("builds");
        assert!(check_persistency(&stg, &sg).is_empty());
        assert!(check_csc(&stg, &sg).is_empty());
    }

    #[test]
    fn vme_without_csc_signal_has_conflicts() {
        let stg = vme_read_no_csc();
        let sg = StateGraph::build(&stg, 10_000).expect("builds");
        let conflicts = check_csc(&stg, &sg);
        assert!(
            !conflicts.is_empty(),
            "expected the classic VME CSC conflict"
        );
    }

    #[test]
    fn vme_with_csc_signal_is_clean() {
        let stg = vme_read_csc();
        let sg = StateGraph::build(&stg, 10_000).expect("builds");
        let conflicts = check_csc(&stg, &sg);
        assert!(conflicts.is_empty(), "conflicts: {conflicts:?}");
        assert!(check_persistency(&stg, &sg).is_empty());
    }

    /// Two `kind` signals whose rising changes compete for one token:
    /// firing one disables the other.
    fn choice(kind: SignalKind) -> Stg {
        let mut b = StgBuilder::new();
        let x = b.signal("x", kind);
        let y = b.signal("y", kind);
        let px = b.place("choice");
        let x_p = b.rise(x);
        let y_p = b.rise(y);
        let x_m = b.fall(x);
        let y_m = b.fall(y);
        b.arc_pt(px, x_p);
        b.arc_pt(px, y_p);
        b.arc_tt(x_p, x_m);
        b.arc_tt(y_p, y_m);
        b.arc_tp(x_m, px);
        b.arc_tp(y_m, px);
        b.mark(px);
        b.initial_all_zero();
        b.build().expect("builds")
    }

    #[test]
    fn output_choice_is_non_persistent() {
        let stg = choice(SignalKind::Output);
        let sg = StateGraph::build(&stg, 100).expect("builds");
        let v = check_persistency(&stg, &sg);
        assert!(!v.is_empty());
        assert_eq!(v[0].state, 0);
    }

    #[test]
    fn input_choice_is_allowed() {
        // The same structure with *input* signals is a legal environment
        // choice.
        let stg = choice(SignalKind::Input);
        let sg = StateGraph::build(&stg, 100).expect("builds");
        assert!(check_persistency(&stg, &sg).is_empty());
    }

    /// An output `x` that toggles once per two pulses of the input `a`:
    /// `a+ x+ a- a+ x- a-`. Codes 10 and 11 each occur twice, once with
    /// `x` excited and once without, so CSC fails twice.
    fn pulse_toggle() -> Stg {
        let mut b = StgBuilder::new();
        let a = b.input("a");
        let x = b.output("x");
        let cycle = [
            b.rise(a),
            b.rise(x),
            b.fall(a),
            b.rise(a),
            b.fall(x),
            b.fall(a),
        ];
        for pair in cycle.windows(2) {
            b.arc_tt(pair[0], pair[1]);
        }
        let back = b.arc_tt(cycle[5], cycle[0]);
        b.mark(back);
        b.build().expect("builds")
    }

    /// The checks as they were before they read the packed classification:
    /// an `excited` list per state, and codes keyed by their text.
    mod listed {
        use super::*;

        pub fn persistency(stg: &Stg, sg: &StateGraph) -> Vec<PersistencyViolation> {
            let mut violations = Vec::new();
            for s in 0..sg.len() {
                let excited_here = sg.excited(stg, s);
                for &(t, s2) in sg.successors(s) {
                    let Some(fired) = stg.label(t) else { continue };
                    let excited_after = sg.excited(stg, s2);
                    for &e in &excited_here {
                        if e != fired
                            && stg.signal_kind(e.signal).is_implementable()
                            && !excited_after.contains(&e)
                        {
                            violations.push(PersistencyViolation {
                                state: s,
                                disabled: e,
                                by: fired,
                            });
                        }
                    }
                }
            }
            violations
        }

        pub fn csc(stg: &Stg, sg: &StateGraph) -> Vec<CscConflict> {
            let mut by_code: HashMap<String, Vec<usize>> = HashMap::new();
            for s in 0..sg.len() {
                by_code.entry(sg.code(s).to_string()).or_default().push(s);
            }
            let excited_outputs = |s: usize| -> Vec<SignalId> {
                let mut v: Vec<_> = sg
                    .excited(stg, s)
                    .into_iter()
                    .filter(|e| stg.signal_kind(e.signal).is_implementable())
                    .map(|e| e.signal)
                    .collect();
                v.sort();
                v.dedup();
                v
            };
            let mut conflicts = Vec::new();
            for (code, states) in by_code {
                let reference = excited_outputs(states[0]);
                for &s in &states[1..] {
                    let here = excited_outputs(s);
                    let diff = reference
                        .iter()
                        .chain(&here)
                        .find(|&&sig| reference.contains(&sig) != here.contains(&sig));
                    if let Some(&diff) = diff {
                        conflicts.push(CscConflict {
                            state_a: states[0],
                            state_b: s,
                            code: code.clone(),
                            signal: stg.signal_name(diff).to_owned(),
                        });
                    }
                }
            }
            conflicts.sort_by_key(|c| (c.state_a, c.state_b));
            conflicts
        }

        pub fn usc(sg: &StateGraph) -> Vec<(usize, usize)> {
            let mut by_code: HashMap<String, usize> = HashMap::new();
            let mut clashes = Vec::new();
            for s in 0..sg.len() {
                match by_code.entry(sg.code(s).to_string()) {
                    Entry::Occupied(e) => clashes.push((*e.get(), s)),
                    Entry::Vacant(e) => {
                        e.insert(s);
                    }
                }
            }
            clashes
        }
    }

    #[test]
    fn checks_match_the_list_based_reference() {
        let (mut violations, mut conflicts, mut clashes) = (0, 0, 0);
        for stg in [
            choice(SignalKind::Output),
            choice(SignalKind::Input),
            vme_read_no_csc(),
            pulse_toggle(),
            vme_read_csc(),
            paper_fig1(),
            wide_arbiter(3),
            dining_philosophers(3),
            token_ring(4),
        ] {
            let sg = StateGraph::build(&stg, 100_000).expect("builds");
            let v = check_persistency(&stg, &sg);
            assert_eq!(v, listed::persistency(&stg, &sg), "{}", stg.name());
            let c = check_csc(&stg, &sg);
            assert_eq!(c, listed::csc(&stg, &sg), "{}", stg.name());
            let u = check_usc(&sg);
            assert_eq!(u, listed::usc(&sg), "{}", stg.name());
            (violations, conflicts, clashes) =
                (violations + v.len(), conflicts + c.len(), clashes + u.len());
        }
        // The comparison means something only where the lists are long.
        assert!(violations > 10, "{violations} persistency violations");
        assert!(conflicts > 2, "{conflicts} CSC conflicts");
        assert!(clashes > 1, "{clashes} USC clashes");
    }

    #[test]
    fn usc_flags_shared_codes() {
        let stg = vme_read_no_csc();
        let sg = StateGraph::build(&stg, 10_000).expect("builds");
        assert!(!check_usc(&sg).is_empty());
    }
}
