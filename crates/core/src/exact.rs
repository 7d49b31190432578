//! Exact cover derivation (the paper, §4.1): enumerate the cuts
//! encapsulated in a slice and recover their binary codes.
//!
//! This is the mode that "benefits from the unfolding methodology which
//! restricts the set of states needed to examine for each signal" but "may
//! suffer from exponential explosion of states" — which is why the
//! approximate mode (module [`crate::approx`]) exists. It is also the sound
//! fallback the refinement loop escalates to.

use std::collections::hash_map::RandomState;
use std::collections::HashSet;
use std::hash::BuildHasher;
use std::ops::ControlFlow;

use si_cubes::implicit::{ImplicitCover, ImplicitPool, MintermList};
use si_cubes::{Cover, Cube};
use si_stg::{BinaryCode, SignalId, Stg};
use si_unfolding::{ConditionId, EventId, StgUnfolding};

use crate::covers::code_to_cube;
use crate::error::SynthesisError;
use crate::slice::Slice;

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
    let mut seen = SeenWords::default();
    seen.insert(rows.marking(&row));
    let mut queue: Vec<u64> = row.clone();
    let mut deferred: Vec<u64> = Vec::new();
    let mut code_set = SeenWords::default();
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

/// Enumerates only the excitation-region codes of a slice: the cuts at
/// which the entry is enabled but has not fired. Used by the memory-element
/// architectures (set/reset excitation functions).
///
/// Returns an empty list for a `⊥` entry (no excitation — the signal is
/// stable from the start).
///
/// # Errors
///
/// Returns [`SynthesisError::SliceBudgetExceeded`] when the region reaches
/// more than `budget` distinct markings (the bound of [`slice_codes`]).
pub fn excitation_codes(
    unf: &StgUnfolding,
    slice: &Slice,
    budget: usize,
) -> Result<Vec<BinaryCode>, SynthesisError> {
    if slice.entry.is_root() {
        return Ok(Vec::new());
    }
    let rows = RowLayout::new(unf);
    let mut code = unf.code(slice.entry).clone();
    code.set(slice.signal, !slice.value);
    let entry_preset = unf.preset(slice.entry);
    // Fire only members concurrent to the entry that leave its preset
    // intact (keeping it excited).
    let mut fires = vec![false; unf.event_count()];
    for f in slice.members.iter().map(|f| EventId(f as u32)) {
        fires[f.index()] = f != slice.entry
            && unf.events_co(slice.entry, f)
            && !unf.preset(f).iter().any(|c| entry_preset.contains(c));
    }

    let mut row = rows.start(&slice.min_cut(unf), &code);
    let mut next = row.clone();
    let mut seen = SeenWords::default();
    seen.insert(rows.marking(&row));
    let mut queue: Vec<u64> = row.clone();
    let mut codes = Vec::new();
    let mut code_set = SeenWords::default();

    while pop_row(&mut queue, &mut row) {
        if seen.len() > budget {
            return Err(SynthesisError::SliceBudgetExceeded { budget });
        }
        if code_set.insert(rows.code(&row)) {
            rows.load_code(&row, &mut code);
            codes.push(code.clone());
        }
        for b in rows.cut(&row) {
            for &f in unf.consumers(b) {
                if !fires[f.index()] || !unf.preset(f).iter().all(|&c| rows.in_cut(&row, c)) {
                    continue;
                }
                rows.fire(unf, &row, f, &mut next);
                if seen.insert(rows.marking(&next)) {
                    queue.extend_from_slice(&next);
                }
            }
        }
    }
    Ok(codes)
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

/// The packed markings or codes met so far, stored back to back in one
/// arena and indexed by an open-addressing table, so recording a new row
/// allocates nothing beyond amortised growth. Keys derive from the input
/// specification, so rows are hashed with std's default (collision-
/// resistant) hasher.
#[derive(Default)]
struct SeenWords {
    hasher: RandomState,
    /// The recorded rows, each `words.len() / len` words wide.
    words: Vec<u64>,
    len: usize,
    /// Row index + 1 per slot, 0 for an empty slot; a power of two in size.
    slots: Vec<usize>,
    /// The hash of each recorded row, for rebuilding `slots` on growth.
    hashes: Vec<u64>,
}

impl SeenWords {
    /// Records `row`; `true` if it was not seen before. Every row recorded
    /// in one set must have the same width.
    fn insert(&mut self, row: &[u64]) -> bool {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let hash = self.hasher.hash_one(row);
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                0 => break,
                k if self.words[(k - 1) * row.len()..k * row.len()] == *row => return false,
                _ => slot = (slot + 1) & mask,
            }
        }
        self.words.extend_from_slice(row);
        self.hashes.push(hash);
        self.len += 1;
        self.slots[slot] = self.len;
        true
    }

    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(16);
        self.slots = vec![0; size];
        for (i, &hash) in self.hashes.iter().enumerate() {
            let mut slot = hash as usize & (size - 1);
            while self.slots[slot] != 0 {
                slot = (slot + 1) & (size - 1);
            }
            self.slots[slot] = i + 1;
        }
    }

    fn len(&self) -> usize {
        self.len
    }
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
/// traversal order, and matches what materialising [`exact_side_set`]
/// yields).
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

/// The exact side cover as an *implicit* set in `pool`: every slice code is
/// accumulated into the canonical disjoint-cube diagram instead of one
/// materialised minterm per state, so downstream intersection checks and
/// minimisation track the implicit size rather than the state count.
///
/// The point set equals [`exact_side_cover`]'s (duplicates collapse in the
/// diagram).
///
/// # Errors
///
/// Propagates [`SynthesisError::SliceBudgetExceeded`].
pub fn exact_side_set(
    stg: &Stg,
    unf: &StgUnfolding,
    slices: &[Slice],
    budget: usize,
    pool: &mut ImplicitPool,
) -> Result<ImplicitCover, SynthesisError> {
    let mut list = MintermList::new(pool.width());
    for slice in slices {
        for_each_slice_code(stg, unf, slice, budget, |code| {
            list.push_blocks(code.words());
            ControlFlow::Continue(())
        })?;
    }
    Ok(pool.from_minterms(&mut list))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice::side_slices;
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
    fn fig1_excitation_codes_of_b() {
        let stg = paper_fig1();
        let unf = build(&stg);
        let sb = stg.signal_by_name("b").expect("b");
        let slices = side_slices(&unf, sb, true);
        let mut er: Vec<String> = Vec::new();
        for s in &slices {
            er.extend(
                excitation_codes(&unf, s, 1000)
                    .expect("small")
                    .iter()
                    .map(ToString::to_string),
            );
        }
        er.sort();
        // +b is excited at 001 (p4), and at 100/101 (p2 marked, +c''
        // optionally fired).
        assert_eq!(er, vec!["001", "100", "101"]);
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
