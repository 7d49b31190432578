//! The packed slice-traversal kernels must be pure speed-ups: on every
//! slice of both sides of every implementable signal they emit exactly the
//! codes, in exactly the order, of the straightforward traversals they
//! replaced, and they fail the budget at exactly the same point.
//!
//! The references below are those traversals, kept verbatim except that
//! they also report how many distinct markings they reached — the count the
//! budget bounds.

use std::collections::HashSet;
use std::ops::ControlFlow;

use si_synth::petri::{BitSet, Marking};
use si_synth::stg::generators::{counterflow_pipeline, muller_pipeline, parallelizer, token_ring};
use si_synth::stg::suite::synthesisable;
use si_synth::stg::{BinaryCode, Stg, StgBuilder};
use si_synth::synthesis::exact::{excitation_codes, for_each_slice_code, slice_codes};
use si_synth::synthesis::slice::{side_slices, Slice};
use si_synth::synthesis::SynthesisError;
use si_synth::unfolding::{ConditionId, EventId, StgUnfolding, UnfoldingOptions};

/// The reference slice traversal; `Ok` carries the number of distinct
/// markings reached.
fn reference_slice_codes(
    stg: &Stg,
    unf: &StgUnfolding,
    slice: &Slice,
    budget: usize,
    mut sink: impl FnMut(&BinaryCode) -> ControlFlow<()>,
) -> Result<usize, SynthesisError> {
    // STG transitions whose firing would leave the slice's stable value:
    // the opposite changes of the slice signal.
    let opposite: Vec<si_synth::petri::TransitionId> = stg
        .transitions_of(slice.signal)
        .into_iter()
        .filter(|&t| {
            stg.label(t)
                .map(|l| l.polarity.target_value() != slice.value)
                .unwrap_or(false)
        })
        .collect();
    // Starting state: min-cut with the slice signal still at its pre-entry
    // value (for a real entry) or the initial code (for ⊥).
    let start_cut: BitSet = slice.min_cut(unf).iter().map(|b| b.index()).collect();
    let start_code = if slice.entry.is_root() {
        unf.initial_code().clone()
    } else {
        let mut code = unf.code(slice.entry).clone();
        code.set(slice.signal, !slice.value);
        code
    };

    let entry_preset: Vec<ConditionId> = if slice.entry.is_root() {
        Vec::new()
    } else {
        unf.preset(slice.entry).to_vec()
    };

    let start_marking: Marking = start_cut
        .iter()
        .map(|b| unf.place(ConditionId(b as u32)))
        .collect();
    let mut seen: HashSet<Marking> = HashSet::new();
    seen.insert(start_marking.clone());
    let mut queue: Vec<(BitSet, BinaryCode, Marking)> =
        vec![(start_cut, start_code, start_marking)];
    let mut deferred: Vec<(BitSet, BinaryCode, Marking)> = Vec::new();
    let mut code_set: HashSet<String> = HashSet::new();

    while let Some((cut, code, marking)) = queue.pop().or_else(|| deferred.pop()) {
        if seen.len() > budget {
            return Err(SynthesisError::SliceBudgetExceeded { budget });
        }
        // Events enabled at this cut: consumers of cut conditions whose full
        // preset is inside the cut.
        let mut enabled: Vec<EventId> = Vec::new();
        for b in cut.iter() {
            for &e in unf.consumers(ConditionId(b as u32)) {
                if !enabled.contains(&e) && unf.preset(e).iter().all(|c| cut.contains(c.index())) {
                    enabled.push(e);
                }
            }
        }
        // A state belongs to the slice's set only if no opposite change of
        // the signal is enabled in the original STG at this marking.
        let opposite_enabled = opposite.iter().any(|&t| stg.net().is_enabled(t, &marking));
        if !opposite_enabled && code_set.insert(code.to_string()) {
            if let ControlFlow::Break(()) = sink(&code) {
                return Ok(seen.len());
            }
        }
        // Whether the entry is still pending (its preset intact).
        let entry_pending =
            !slice.entry.is_root() && entry_preset.iter().all(|b| cut.contains(b.index()));
        for &f in &enabled {
            if slice.is_exit(f) {
                continue;
            }
            // While the entry is pending, refuse events that would disable
            // it (steal a preset condition) — those states leave the slice.
            if entry_pending && f != slice.entry {
                let conflicts = unf.preset(f).iter().any(|b| entry_preset.contains(b));
                if conflicts {
                    continue;
                }
            }
            // Only the entry itself or slice members advance the slice.
            if f != slice.entry && !slice.is_member(f) {
                continue;
            }
            let mut next_cut = cut.clone();
            for &b in unf.preset(f) {
                next_cut.remove(b.index());
            }
            for &b in unf.postset(f) {
                next_cut.insert(b.index());
            }
            let next_marking: Marking = next_cut
                .iter()
                .map(|b| unf.place(ConditionId(b as u32)))
                .collect();
            if seen.insert(next_marking.clone()) {
                let mut next_code = code.clone();
                if let Some(label) = unf.label(f) {
                    next_code.toggle(label.signal);
                }
                if unf.is_cutoff(f) {
                    deferred.push((next_cut, next_code, next_marking));
                } else {
                    queue.push((next_cut, next_code, next_marking));
                }
            }
        }
    }
    Ok(seen.len())
}

/// The reference excitation-region traversal; `Ok` also carries the number
/// of distinct markings reached (0 for a `⊥` entry, which has no region).
fn reference_excitation_codes(
    unf: &StgUnfolding,
    slice: &Slice,
    budget: usize,
) -> Result<(Vec<BinaryCode>, usize), SynthesisError> {
    if slice.entry.is_root() {
        return Ok((Vec::new(), 0));
    }
    let start_cut: BitSet = slice.min_cut(unf).iter().map(|b| b.index()).collect();
    let mut start_code = unf.code(slice.entry).clone();
    start_code.set(slice.signal, !slice.value);
    let entry_preset: Vec<ConditionId> = unf.preset(slice.entry).to_vec();

    let start_marking: Marking = start_cut
        .iter()
        .map(|b| unf.place(ConditionId(b as u32)))
        .collect();
    let mut seen: HashSet<Marking> = HashSet::new();
    seen.insert(start_marking);
    let mut queue: Vec<(BitSet, BinaryCode)> = vec![(start_cut, start_code)];
    let mut codes = Vec::new();
    let mut code_set: HashSet<String> = HashSet::new();

    while let Some((cut, code)) = queue.pop() {
        if seen.len() > budget {
            return Err(SynthesisError::SliceBudgetExceeded { budget });
        }
        if code_set.insert(code.to_string()) {
            codes.push(code.clone());
        }
        // Fire only members concurrent to the entry (keeping it excited).
        for b in cut.iter() {
            for &f in unf.consumers(ConditionId(b as u32)) {
                if f == slice.entry || !slice.is_member(f) {
                    continue;
                }
                if !unf.events_co(slice.entry, f) {
                    continue;
                }
                if !unf.preset(f).iter().all(|c| cut.contains(c.index())) {
                    continue;
                }
                if unf.preset(f).iter().any(|c| entry_preset.contains(c)) {
                    continue;
                }
                let mut next_cut = cut.clone();
                for &c in unf.preset(f) {
                    next_cut.remove(c.index());
                }
                for &c in unf.postset(f) {
                    next_cut.insert(c.index());
                }
                let next_marking: Marking = next_cut
                    .iter()
                    .map(|b| unf.place(ConditionId(b as u32)))
                    .collect();
                if seen.insert(next_marking) {
                    let mut next_code = code.clone();
                    if let Some(label) = unf.label(f) {
                        next_code.toggle(label.signal);
                    }
                    queue.push((next_cut, next_code));
                }
            }
        }
    }
    Ok((codes, seen.len()))
}

fn over_budget<T>(result: Result<T, SynthesisError>, budget: usize) -> bool {
    matches!(result, Err(SynthesisError::SliceBudgetExceeded { budget: b }) if b == budget)
}

/// Checks both kernels against the references on every slice of `stg`;
/// returns the number of slices checked.
fn check_against_reference(stg: &Stg) -> usize {
    let unf = StgUnfolding::build(stg, &UnfoldingOptions::default()).expect("segment builds");
    let mut checked = 0;
    for signal in stg.implementable_signals() {
        for value in [true, false] {
            for slice in side_slices(&unf, signal, value) {
                let what = format!("{} in {}", slice.describe(stg, &unf), stg.name());

                let mut expected = Vec::new();
                let n = reference_slice_codes(stg, &unf, &slice, usize::MAX, |code| {
                    expected.push(code.clone());
                    ControlFlow::Continue(())
                })
                .expect("unbounded reference completes");
                let got = slice_codes(stg, &unf, &slice, n)
                    .unwrap_or_else(|e| panic!("{what}: fails at budget {n}: {e}"));
                assert_eq!(got, expected, "{what}: code sequence differs");
                assert!(
                    over_budget(slice_codes(stg, &unf, &slice, n - 1), n - 1),
                    "{what}: budget {} does not fail",
                    n - 1
                );
                // A sink that stops early sees a prefix of the sequence.
                let mut prefix = Vec::new();
                for_each_slice_code(stg, &unf, &slice, n, |code| {
                    prefix.push(code.clone());
                    if prefix.len() == 2 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                })
                .unwrap_or_else(|e| panic!("{what}: early stop fails: {e}"));
                assert_eq!(prefix, expected[..expected.len().min(2)], "{what}: prefix");

                let (expected, m) = reference_excitation_codes(&unf, &slice, usize::MAX)
                    .expect("unbounded reference completes");
                let got = excitation_codes(&unf, &slice, m)
                    .unwrap_or_else(|e| panic!("{what}: excitation fails at budget {m}: {e}"));
                assert_eq!(got, expected, "{what}: excitation code sequence differs");
                if m > 0 {
                    assert!(
                        over_budget(excitation_codes(&unf, &slice, m - 1), m - 1),
                        "{what}: excitation budget {} does not fail",
                        m - 1
                    );
                }
                checked += 1;
            }
        }
    }
    checked
}

#[test]
fn suite_matches_reference_traversal() {
    for stg in synthesisable() {
        assert!(
            check_against_reference(&stg) > 0,
            "{} has no slices",
            stg.name()
        );
    }
}

#[test]
fn muller_pipelines_match_reference_traversal() {
    for n in [2, 8, 11] {
        check_against_reference(&muller_pipeline(n));
    }
}

#[test]
fn token_rings_match_reference_traversal() {
    for n in [3, 8, 13] {
        check_against_reference(&token_ring(n));
    }
}

#[test]
fn counterflow_pipelines_match_reference_traversal() {
    for k in [1, 3, 8] {
        check_against_reference(&counterflow_pipeline(k));
    }
}

#[test]
fn parallelizers_match_reference_traversal() {
    for n in [1, 4, 6] {
        check_against_reference(&parallelizer(n));
    }
}

#[test]
fn never_marked_place_beyond_the_instantiated_ones() {
    // A handshake whose `b-` also waits on a place that is never marked and
    // numbered past every place the segment instantiates, so it lies
    // outside the kernel's packed markings.
    let mut builder = StgBuilder::new();
    builder.set_name("dead-place");
    let a = builder.input("a");
    let b = builder.output("b");
    let (a_rise, b_rise) = (builder.rise(a), builder.rise(b));
    let (a_fall, b_fall) = (builder.fall(a), builder.fall(b));
    builder.arc_tt(a_rise, b_rise);
    builder.arc_tt(b_rise, a_fall);
    builder.arc_tt(a_fall, b_fall);
    let start = builder.arc_tt(b_fall, a_rise);
    builder.mark(start);
    for i in 0..64 {
        builder.place(format!("pad{i}"));
    }
    let dead = builder.place("dead");
    builder.arc_pt(dead, b_fall);
    builder.initial_all_zero();
    let stg = builder.build_unvalidated().expect("structurally fine");
    assert!(stg.net().place_count() > 64);
    assert!(check_against_reference(&stg) > 0);
}
