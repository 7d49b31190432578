//! Exact cover derivation (the paper, §4.1): enumerate the cuts of the
//! segment and recover their binary codes.
//!
//! This is the mode that "benefits from the unfolding methodology which
//! restricts the set of states needed to examine for each signal" but "may
//! suffer from exponential explosion of states" — which is why the
//! approximate mode (module [`crate::approx`]) exists.
//!
//! A signal's on- and off-slices together cover every reachable state, so
//! exact mode classifies all states in one walk over the segment
//! ([`classify_reachable`]) instead of enumerating each slice; the Set/Reset
//! architectures ([`crate::arch`]) read their excitation regions from the
//! same walk. The per-slice traversals serve only approximate mode: the
//! refinement loop's exact fallback and the §6 membership probes.

use std::collections::HashSet;
use std::ops::ControlFlow;

use si_cubes::{Cover, Cube};
use si_petri::RowIndex;
use si_stategraph::SgClassification;
use si_stg::{BinaryCode, Polarity, SignalId, Stg};
use si_unfolding::{ConditionId, EventId, StgUnfolding};

use crate::covers::code_to_cube;
use crate::error::SynthesisError;
use crate::slice::Slice;

/// Classifies every reachable state of `stg` in one walk over its segment
/// `unf`: each distinct marking is recorded once, with its binary code and
/// the signals whose rising or falling change the STG enables there. Each
/// signal's exact on- and off-sets then follow from
/// [`SgClassification::sets_into`], the SG baseline's implied-value rule,
/// so they are the point sets the state graph yields.
///
/// The walk starts at the initial cut with the initial code and fires only
/// non-cutoff events, so every state it holds is the final state of a
/// cutoff-free configuration. It expands level by level in configuration
/// size — every row of size `k` is popped before any row of size `k + 1` —
/// and deduplicates by marking when a row is pushed, so each marking is
/// first reached at the smallest size any configuration reaching it has.
///
/// Why this reaches every reachable marking, under McMillan's order (the
/// default; the argument is the completeness of his prefix, CAV 1992,
/// specialised to this walk): the unfolder declares `e` a cutoff only when
/// a configuration `⌈e'⌉` with `|⌈e'⌉| < |⌈e⌉|` reaches `Mark(⌈e⌉)`. Let
/// `M` be reachable and `d(M)` the smallest size of a configuration
/// reaching it. If `d(M) = k + 1`, remove a maximal event `e` (of
/// transition `t`) from such a configuration; the rest reaches some `M'`
/// with `d(M') = k`, since a smaller configuration reaching `M'` would
/// extend by `t` to a smaller one reaching `M`. By induction the walk holds a cutoff-free representative
/// `R` of size `k` for `M'`. Its cut contains no condition produced by a
/// cutoff, so the event `f` extending `R` by `t` is in the segment. Were
/// `f` a cutoff, `R ∪ {f}` would be `⌈f⌉` followed by some extension `E`,
/// and `⌈f'⌉` followed by a copy of `E` would reach `M` with fewer than
/// `k + 1` events, contradicting `d(M) = k + 1`. So the walk fires `f` at
/// level `k` and reaches `M` at level `k + 1`.
///
/// A depth-first order would keep the first representative it finds, which
/// need not be of minimal size, so the induction would not carry once
/// cutoffs are skipped: the levels are essential. Under
/// [`si_unfolding::AdequateOrder::ErvLex`] a cutoff can tie its
/// representative's size, so the argument does not cover that order.
///
/// `budget` bounds the number of distinct markings the walk reaches,
/// checked as each row is popped, so a walk that reaches `n` markings
/// succeeds exactly when `budget >= n` — the rule of [`slice_codes`].
///
/// # Errors
///
/// Returns [`SynthesisError::SliceBudgetExceeded`] when the walk reaches
/// more than `budget` distinct markings.
pub fn classify_reachable(
    stg: &Stg,
    unf: &StgUnfolding,
    budget: usize,
) -> Result<SgClassification, SynthesisError> {
    let rows = RowLayout::new(unf);
    // Every labelled STG transition, with its preset as place indices.
    let changes: Vec<(Vec<usize>, SignalId, Polarity)> = stg
        .net()
        .transitions()
        .filter_map(|t| {
            let label = stg.label(t)?;
            let preset = stg.net().preset(t).iter().map(|p| p.index()).collect();
            Some((preset, label.signal, label.polarity))
        })
        .collect();
    let words = unf.signal_count().div_ceil(64);
    let (mut rise, mut fall) = (vec![0u64; words], vec![0u64; words]);
    let mut class = SgClassification::with_width(unf.signal_count());

    let mut row = rows.start(unf.min_stable_cut(EventId::ROOT), unf.initial_code());
    let mut next = row.clone();
    let mut seen = RowIndex::new(rows.marking_words);
    seen.insert(rows.marking(&row));
    let mut level: Vec<u64> = row.clone();
    let mut next_level: Vec<u64> = Vec::new();
    // `stamp[e] == generation` marks `e` as already examined at this cut.
    let mut stamp: Vec<u64> = vec![0; unf.event_count()];
    let mut generation = 0u64;

    loop {
        if !pop_row(&mut level, &mut row) {
            if next_level.is_empty() {
                return Ok(class);
            }
            std::mem::swap(&mut level, &mut next_level);
            continue;
        }
        if seen.len() > budget {
            return Err(SynthesisError::SliceBudgetExceeded { budget });
        }
        rise.fill(0);
        fall.fill(0);
        for (preset, signal, polarity) in &changes {
            if preset.iter().all(|&p| rows.marked(&row, p)) {
                let excited = match polarity {
                    Polarity::Rise => &mut rise,
                    Polarity::Fall => &mut fall,
                };
                set_bit(excited, signal.index());
            }
        }
        class.push(rows.code(&row), &rise, &fall);

        generation += 1;
        for b in rows.cut(&row) {
            for &e in unf.consumers(b) {
                if unf.is_cutoff(e) || stamp[e.index()] == generation {
                    continue;
                }
                stamp[e.index()] = generation;
                if !unf.preset(e).iter().all(|&c| rows.in_cut(&row, c)) {
                    continue;
                }
                rows.fire(unf, &row, e, &mut next);
                if seen.insert(rows.marking(&next)) {
                    next_level.extend_from_slice(&next);
                }
            }
        }
    }
}

/// Enumerates the binary codes of every state represented by the slice —
/// the cuts reachable from the min-cut without firing an exit, excluding
/// cuts at which an opposite change of the slice signal is enabled (those
/// belong to the opposite set: the excited change flips the implied value).
///
/// The opposite-change check is done against the *original STG* rather than
/// the segment's exit events: a slice truncated at a cutoff reaches a
/// marking whose successor instances are not represented in the segment,
/// yet the opposite change may well be enabled there (e.g. the final cut of
/// a cutoff that closes the cycle re-enables the signal's first change).
///
/// `budget` bounds the number of distinct markings the traversal reaches
/// (marking-equal cuts count once). The bound is checked each time a state
/// is taken off the stack, so a traversal that reaches `n` markings
/// succeeds exactly when `budget >= n`.
///
/// # Errors
///
/// Returns [`SynthesisError::SliceBudgetExceeded`] when the slice reaches
/// more than `budget` distinct markings.
pub fn slice_codes(
    stg: &Stg,
    unf: &StgUnfolding,
    slice: &Slice,
    budget: usize,
) -> Result<Vec<BinaryCode>, SynthesisError> {
    let mut codes = Vec::new();
    for_each_slice_code(stg, unf, slice, budget, |code| {
        codes.push(code.clone());
        ControlFlow::Continue(())
    })?;
    Ok(codes)
}

/// Streaming form of [`slice_codes`]: invokes `sink` once per deduplicated
/// in-slice code, without materialising the code list. The sink can stop
/// the traversal early by returning [`ControlFlow::Break`] — the implicit
/// accumulation and the §6 membership probes are built on this, so the
/// explicit `Vec<BinaryCode>` intermediate only exists where a caller
/// genuinely needs the list.
///
/// Codes arrive in a fixed order: a depth-first walk over cuts that takes
/// the most recently reached state first and postpones states reached
/// through a cutoff until no other state is pending. Callers rely on that
/// order (the refinement loop turns codes into atoms as they arrive).
///
/// # Errors
///
/// Returns [`SynthesisError::SliceBudgetExceeded`] when the slice reaches
/// more than `budget` distinct markings (see [`slice_codes`]).
pub fn for_each_slice_code(
    stg: &Stg,
    unf: &StgUnfolding,
    slice: &Slice,
    budget: usize,
    mut sink: impl FnMut(&BinaryCode) -> ControlFlow<()>,
) -> Result<(), SynthesisError> {
    let rows = RowLayout::new(unf);
    // Presets of the STG transitions whose firing would leave the slice's
    // stable value: the opposite changes of the slice signal.
    let opposite: Vec<Vec<usize>> = stg
        .transitions_of(slice.signal)
        .into_iter()
        .filter(|&t| {
            stg.label(t)
                .map(|l| l.polarity.target_value() != slice.value)
                .unwrap_or(false)
        })
        .map(|t| stg.net().preset(t).iter().map(|p| p.index()).collect())
        .collect();
    // Starting state: min-cut with the slice signal still at its pre-entry
    // value (for a real entry) or the initial code (for ⊥).
    let start_code = if slice.entry.is_root() {
        unf.initial_code().clone()
    } else {
        let mut code = unf.code(slice.entry).clone();
        code.set(slice.signal, !slice.value);
        code
    };
    let entry_preset: &[ConditionId] = if slice.entry.is_root() {
        &[]
    } else {
        unf.preset(slice.entry)
    };

    // Only the entry itself or slice members advance the slice, never an
    // exit; while the entry is pending (its preset intact), events that
    // would disable it (steal a preset condition) leave the slice too.
    let mut fire = vec![Fire::Never; unf.event_count()];
    let advancing = slice
        .members
        .iter()
        .map(|f| EventId(f as u32))
        .chain((!slice.entry.is_root()).then_some(slice.entry));
    for f in advancing {
        if slice.is_exit(f) {
            continue;
        }
        let steals = f != slice.entry && unf.preset(f).iter().any(|b| entry_preset.contains(b));
        fire[f.index()] = if steals {
            Fire::UnlessEntryPending
        } else {
            Fire::Always
        };
    }

    // States are deduplicated by *marking*, not by condition set: a cut
    // containing frozen (post-cutoff) condition instances represents the
    // same STG state as the marking-equal cut built from the original
    // instances, and distinguishing them multiplies the search space.
    // Cut exploration defers cutoff firings until all cutoff-free cuts are
    // processed, so the richer (extendable) representative of each marking
    // is explored first.
    let mut row = rows.start(&slice.min_cut(unf), &start_code);
    let mut next = row.clone();
    let mut seen = RowIndex::new(rows.marking_words);
    seen.insert(rows.marking(&row));
    let mut queue: Vec<u64> = row.clone();
    let mut deferred: Vec<u64> = Vec::new();
    let mut code_set = RowIndex::new(start_code.words().len());
    let mut code = start_code;
    // `stamp[e] == generation` marks `e` as already examined at this cut.
    let mut stamp: Vec<u64> = vec![0; unf.event_count()];
    let mut generation = 0u64;
    let mut enabled: Vec<EventId> = Vec::new();

    while pop_row(&mut queue, &mut row) || pop_row(&mut deferred, &mut row) {
        if seen.len() > budget {
            return Err(SynthesisError::SliceBudgetExceeded { budget });
        }
        // Advancing events enabled at this cut, in the order their first
        // preset condition appears in it.
        generation += 1;
        enabled.clear();
        for b in rows.cut(&row) {
            for &e in unf.consumers(b) {
                if fire[e.index()] == Fire::Never || stamp[e.index()] == generation {
                    continue;
                }
                stamp[e.index()] = generation;
                if unf.preset(e).iter().all(|&c| rows.in_cut(&row, c)) {
                    enabled.push(e);
                }
            }
        }
        // A state belongs to the slice's set only if no opposite change of
        // the signal is enabled in the original STG at this marking.
        let opposite_enabled = opposite
            .iter()
            .any(|preset| preset.iter().all(|&p| rows.marked(&row, p)));
        if !opposite_enabled && code_set.insert(rows.code(&row)) {
            rows.load_code(&row, &mut code);
            if sink(&code).is_break() {
                return Ok(());
            }
        }
        let entry_pending =
            !slice.entry.is_root() && entry_preset.iter().all(|&b| rows.in_cut(&row, b));
        for &f in &enabled {
            if entry_pending && fire[f.index()] == Fire::UnlessEntryPending {
                continue;
            }
            rows.fire(unf, &row, f, &mut next);
            if seen.insert(rows.marking(&next)) {
                let stack = if unf.is_cutoff(f) {
                    &mut deferred
                } else {
                    &mut queue
                };
                stack.extend_from_slice(&next);
            }
        }
    }
    Ok(())
}

/// Whether an event may advance a slice traversal.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fire {
    Never,
    Always,
    /// Only once the entry has fired: the event consumes a condition of the
    /// entry's preset.
    UnlessEntryPending,
}

/// The packed form of a traversal state: one fixed-stride row of words
/// holding the cut (a bit per condition), the marking it represents (a bit
/// per place) and its binary code (in [`BinaryCode::words`] layout).
///
/// Firing an event clears its preset's places and sets its postset's
/// instead of re-collecting the marking from the whole cut. The two agree
/// because [`StgUnfolding::build`] rejects unsafe nets, so no two
/// conditions of a cut instantiate the same place.
struct RowLayout {
    /// The place each condition instantiates, by condition index.
    place: Vec<usize>,
    cut_words: usize,
    marking_words: usize,
}

impl RowLayout {
    fn new(unf: &StgUnfolding) -> Self {
        let place: Vec<usize> = unf.conditions().map(|b| unf.place(b).index()).collect();
        let places = place.iter().max().map_or(0, |&p| p + 1);
        RowLayout {
            cut_words: place.len().div_ceil(64),
            marking_words: places.div_ceil(64),
            place,
        }
    }

    /// The row of the state at `cut` with binary code `code`.
    fn start(&self, cut: &[ConditionId], code: &BinaryCode) -> Vec<u64> {
        let mut row = vec![0; self.cut_words + self.marking_words];
        for &b in cut {
            set_bit(&mut row, b.index());
            set_bit(&mut row[self.cut_words..], self.place[b.index()]);
        }
        row.extend_from_slice(code.words());
        row
    }

    fn marking<'r>(&self, row: &'r [u64]) -> &'r [u64] {
        &row[self.cut_words..self.cut_words + self.marking_words]
    }

    fn code<'r>(&self, row: &'r [u64]) -> &'r [u64] {
        &row[self.cut_words + self.marking_words..]
    }

    /// The cut's conditions in index order.
    fn cut<'r>(&self, row: &'r [u64]) -> impl Iterator<Item = ConditionId> + 'r {
        row[..self.cut_words]
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| {
                let mut rest = word;
                std::iter::from_fn(move || {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest.wrapping_sub(1);
                    (bit < 64).then(|| ConditionId((w * 64 + bit) as u32))
                })
            })
    }

    fn in_cut(&self, row: &[u64], b: ConditionId) -> bool {
        has_bit(row, b.index())
    }

    /// Whether `place` is marked; a place no condition instantiates (so
    /// possibly beyond the row's marking words) never is.
    fn marked(&self, row: &[u64], place: usize) -> bool {
        self.marking(row)
            .get(place / 64)
            .is_some_and(|word| word & (1 << (place % 64)) != 0)
    }

    /// Overwrites `code` (of the unfolding's signal count) with the row's.
    fn load_code(&self, row: &[u64], code: &mut BinaryCode) {
        let words = self.code(row);
        for i in 0..code.len() {
            code.set(SignalId(i as u32), has_bit(words, i));
        }
    }

    /// Writes into `next` the state reached from `row` by firing `f`.
    fn fire(&self, unf: &StgUnfolding, row: &[u64], f: EventId, next: &mut [u64]) {
        next.copy_from_slice(row);
        let (cut, rest) = next.split_at_mut(self.cut_words);
        let (marking, code) = rest.split_at_mut(self.marking_words);
        for &b in unf.preset(f) {
            clear_bit(cut, b.index());
            clear_bit(marking, self.place[b.index()]);
        }
        for &b in unf.postset(f) {
            set_bit(cut, b.index());
            set_bit(marking, self.place[b.index()]);
        }
        if let Some(label) = unf.label(f) {
            code[label.signal.index() / 64] ^= 1 << (label.signal.index() % 64);
        }
    }
}

fn has_bit(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1 << (i % 64)) != 0
}

fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

fn clear_bit(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1 << (i % 64));
}

/// Moves the top row of a flat LIFO stack of rows into `row`; `false` when
/// the stack is empty.
fn pop_row(stack: &mut Vec<u64>, row: &mut [u64]) -> bool {
    let Some(top) = stack.len().checked_sub(row.len()) else {
        return false;
    };
    row.copy_from_slice(&stack[top..]);
    stack.truncate(top);
    true
}

/// Checks whether `cover` becomes TRUE anywhere inside the given slices —
/// the paper's §6 "weaker correctness condition": if an approximated on-set
/// cover never becomes TRUE within the slices of the off-set cover (and
/// vice versa), the covers' intersection lies in the DC-set and no further
/// refinement is needed.
///
/// Enumerates slice states (bounded by `budget` per slice) and stops at the
/// first covered state.
///
/// # Errors
///
/// Propagates [`SynthesisError::SliceBudgetExceeded`] — the caller should
/// treat that as "unknown" and fall back to the strong condition.
pub fn cover_true_within_slices(
    stg: &Stg,
    unf: &StgUnfolding,
    slices: &[Slice],
    cover: &Cover,
    budget: usize,
) -> Result<bool, SynthesisError> {
    let mut hit = false;
    let mut bits: Vec<bool> = Vec::new();
    for slice in slices {
        for_each_slice_code(stg, unf, slice, budget, |code| {
            bits.clear();
            bits.extend(code.iter().map(|(_, v)| v));
            if cover.covers_bits(&bits) {
                hit = true;
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        })?;
        if hit {
            return Ok(true);
        }
    }
    Ok(false)
}

/// The exact cover of one side (on- or off-set) of a signal: the union of
/// the minterms of every slice's codes, in canonical cube order (so the
/// minimiser's input — and therefore its output — does not depend on slice
/// traversal order). The per-slice oracle for [`classify_reachable`]: the
/// point sets agree with the walk's on every side.
///
/// # Errors
///
/// Propagates [`SynthesisError::SliceBudgetExceeded`].
pub fn exact_side_cover(
    stg: &Stg,
    unf: &StgUnfolding,
    slices: &[Slice],
    budget: usize,
) -> Result<Cover, SynthesisError> {
    let mut cubes: Vec<Cube> = Vec::new();
    let mut seen: HashSet<BinaryCode> = HashSet::new();
    for slice in slices {
        for_each_slice_code(stg, unf, slice, budget, |code| {
            if !seen.contains(code) {
                seen.insert(code.clone());
                cubes.push(code_to_cube(code));
            }
            ControlFlow::Continue(())
        })?;
    }
    cubes.sort_by(Cube::cmp_canonical);
    Ok(cubes.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice::side_slices;
    use si_cubes::implicit::ImplicitPool;
    use si_stg::suite::paper_fig1;
    use si_stg::Stg;
    use si_unfolding::UnfoldingOptions;

    fn build(stg: &Stg) -> StgUnfolding {
        StgUnfolding::build(stg, &UnfoldingOptions::default()).expect("builds")
    }

    #[test]
    fn fig1_on_codes_match_paper() {
        // The paper: On₁(b) = {100,101,110,111}, On₂(b) = {001,011}.
        let stg = paper_fig1();
        let unf = build(&stg);
        let sb = stg.signal_by_name("b").expect("b");
        let slices = side_slices(&unf, sb, true);
        let mut all: Vec<String> = Vec::new();
        for s in &slices {
            all.extend(
                slice_codes(&stg, &unf, s, 10_000)
                    .expect("small slice")
                    .iter()
                    .map(ToString::to_string),
            );
        }
        all.sort();
        all.dedup();
        assert_eq!(all, vec!["001", "011", "100", "101", "110", "111"]);
    }

    #[test]
    fn fig1_off_codes_match_paper() {
        // The paper: C_Off = {010, 000}.
        let stg = paper_fig1();
        let unf = build(&stg);
        let sb = stg.signal_by_name("b").expect("b");
        let slices = side_slices(&unf, sb, false);
        let cover = exact_side_cover(&stg, &unf, &slices, 10_000).expect("small");
        let mut codes: Vec<String> = cover.cubes().iter().map(ToString::to_string).collect();
        codes.sort();
        assert_eq!(codes, vec!["000", "010"]);
    }

    #[test]
    fn fig1_on_off_disjoint() {
        let stg = paper_fig1();
        let unf = build(&stg);
        let sb = stg.signal_by_name("b").expect("b");
        let on = exact_side_cover(&stg, &unf, &side_slices(&unf, sb, true), 10_000).expect("on");
        let off = exact_side_cover(&stg, &unf, &side_slices(&unf, sb, false), 10_000).expect("off");
        assert!(!on.intersects(&off));
    }

    #[test]
    fn fig1_excitation_regions_of_b() {
        let stg = paper_fig1();
        let unf = build(&stg);
        let sb = stg.signal_by_name("b").expect("b");
        let states = classify_reachable(&stg, &unf, 1000).expect("small");
        let mut pool = ImplicitPool::new(stg.signal_count());
        let (er_rise, er_fall) = states.excitation_sets_into(&mut pool, sb);
        let codes = |set| -> Vec<String> {
            let cover = pool.minterms_cover(set);
            cover.cubes().iter().map(ToString::to_string).collect()
        };
        // +b is excited at 001 (p4), and at 100/101 (p2 marked, +c''
        // optionally fired); -b only at 010, the off-set code with b = 1.
        assert_eq!(codes(er_rise), vec!["001", "100", "101"]);
        assert_eq!(codes(er_fall), vec!["010"]);
    }

    #[test]
    fn budget_enforced() {
        let stg = si_stg::generators::independent_cycles(14);
        let unf = build(&stg);
        let s0 = stg.signal_by_name("a0").expect("a0");
        let slices = side_slices(&unf, s0, false);
        // The ⊥ slice spans all 2^13 combinations of the other cycles.
        let err = exact_side_cover(&stg, &unf, &slices, 10).unwrap_err();
        assert!(matches!(err, SynthesisError::SliceBudgetExceeded { .. }));
    }
}
