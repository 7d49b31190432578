//! Cover refinement (the paper, §4.3 and Figure 5, bottom half): while the
//! on- and off-set cover approximations intersect, restore marking
//! information by intersecting offending atoms with restricted MR covers of
//! a refining set, escalating to exact per-slice enumeration when the
//! cube-level refinement stops making progress.

use si_cubes::implicit::{ImplicitCover, ImplicitPool};
use si_cubes::Cover;
use si_stg::Stg;
use si_unfolding::{ConditionId, StgUnfolding};

use crate::approx::{AtomKind, CoverAtom};
use crate::covers::{code_to_cube, joint_cube};
use crate::error::SynthesisError;
use crate::exact::slice_codes;
use crate::slice::Slice;

/// Outcome of the refinement loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefinementReport {
    /// Number of cube-level refinement steps applied.
    pub steps: usize,
    /// Number of slices that had to be re-enumerated exactly.
    pub exact_fallbacks: usize,
    /// `true` if the final covers are disjoint (otherwise the STG has a CSC
    /// conflict).
    pub disjoint: bool,
}

/// Runs the refinement loop over the two sides until their covers are
/// disjoint, refinement stalls into exact fallback, or `max_steps` is
/// reached. Atom covers are modified in place.
///
/// The offending-pair sweep runs against implicit atom sets cached in
/// `pool` (one pooled diagram per atom version, intersection emptiness in
/// O(shared structure)) rather than a quadratic sweep over the cube lists.
/// Intersection *emptiness* is a property of the point sets, not of the
/// cube lists, so the refinement trajectory is the one the explicit sweep
/// would take (pinned by this module's tests).
///
/// # Errors
///
/// Propagates [`SynthesisError::SliceBudgetExceeded`] from exact fallbacks.
#[allow(clippy::too_many_arguments)]
pub fn refine_until_disjoint(
    stg: &Stg,
    unf: &StgUnfolding,
    on_slices: &[Slice],
    off_slices: &[Slice],
    on_atoms: &mut Vec<CoverAtom>,
    off_atoms: &mut Vec<CoverAtom>,
    max_steps: usize,
    slice_budget: usize,
    pool: &mut ImplicitPool,
) -> Result<RefinementReport, SynthesisError> {
    refine_with_sweep(
        stg,
        unf,
        on_slices,
        off_slices,
        on_atoms,
        off_atoms,
        max_steps,
        slice_budget,
        |on, off, on_sets, off_sets| offending_pair(pool, on, off, on_sets, off_sets),
    )
}

/// Per-atom cache of pooled point sets, `None` until first needed.
type SetCache = [Option<ImplicitCover>];

/// The refinement loop behind [`refine_until_disjoint`], generic over the
/// offending-pair sweep so the tests can replay it with an explicit
/// reference sweep. The loop owns the per-atom set caches and clears an
/// entry whenever its atom's cover changes (refinement) or the atom list is
/// rebuilt (escalation).
#[allow(clippy::too_many_arguments)]
fn refine_with_sweep(
    stg: &Stg,
    unf: &StgUnfolding,
    on_slices: &[Slice],
    off_slices: &[Slice],
    on_atoms: &mut Vec<CoverAtom>,
    off_atoms: &mut Vec<CoverAtom>,
    max_steps: usize,
    slice_budget: usize,
    mut sweep: impl FnMut(
        &[CoverAtom],
        &[CoverAtom],
        &mut SetCache,
        &mut SetCache,
    ) -> Option<(usize, usize)>,
) -> Result<RefinementReport, SynthesisError> {
    let mut report = RefinementReport {
        steps: 0,
        exact_fallbacks: 0,
        disjoint: false,
    };
    let mut on_sets: Vec<Option<ImplicitCover>> = vec![None; on_atoms.len()];
    let mut off_sets: Vec<Option<ImplicitCover>> = vec![None; off_atoms.len()];
    loop {
        let pair = sweep(on_atoms, off_atoms, &mut on_sets, &mut off_sets);
        let Some((on_idx, off_idx)) = pair else {
            report.disjoint = true;
            return Ok(report);
        };
        if report.steps >= max_steps {
            // Escalate everything that still conflicts.
            let progressed = escalate(
                stg,
                unf,
                on_slices,
                on_atoms,
                on_idx,
                slice_budget,
                &mut report,
            )? | escalate(
                stg,
                unf,
                off_slices,
                off_atoms,
                off_idx,
                slice_budget,
                &mut report,
            )?;
            if !progressed {
                return Ok(report);
            }
            reset_caches(&mut on_sets, on_atoms.len());
            reset_caches(&mut off_sets, off_atoms.len());
            continue;
        }
        report.steps += 1;
        let mut progressed = false;
        if refine_atom(unf, on_slices, &mut on_atoms[on_idx]) {
            progressed = true;
            on_sets[on_idx] = None;
        }
        if refine_atom(unf, off_slices, &mut off_atoms[off_idx]) {
            progressed = true;
            off_sets[off_idx] = None;
        }
        if !progressed {
            let escalated = escalate(
                stg,
                unf,
                on_slices,
                on_atoms,
                on_idx,
                slice_budget,
                &mut report,
            )? | escalate(
                stg,
                unf,
                off_slices,
                off_atoms,
                off_idx,
                slice_budget,
                &mut report,
            )?;
            if !escalated {
                // Both offending atoms are already exact: genuine CSC
                // conflict.
                return Ok(report);
            }
            reset_caches(&mut on_sets, on_atoms.len());
            reset_caches(&mut off_sets, off_atoms.len());
        }
    }
}

fn reset_caches(sets: &mut Vec<Option<ImplicitCover>>, len: usize) {
    sets.clear();
    sets.resize(len, None);
}

/// Finds the first pair of atoms (on-side major, off-side minor) whose
/// covers intersect, with each atom's point set pooled once per version and
/// pairwise emptiness answered from the diagram's operation cache.
fn offending_pair(
    pool: &mut ImplicitPool,
    on: &[CoverAtom],
    off: &[CoverAtom],
    on_sets: &mut SetCache,
    off_sets: &mut SetCache,
) -> Option<(usize, usize)> {
    for (i, a) in on.iter().enumerate() {
        let sa = *on_sets[i].get_or_insert_with(|| pool.cover_set(&a.cover));
        if sa.is_empty() {
            continue;
        }
        for (j, b) in off.iter().enumerate() {
            let sb = *off_sets[j].get_or_insert_with(|| pool.cover_set(&b.cover));
            if sb.is_empty() {
                continue;
            }
            if pool.intersects(sa, sb) {
                return Some((i, j));
            }
        }
    }
    None
}

/// Checks whether every reachable cut has the same size (the net is
/// token-preserving): if so, returns that size. Cube-level refinement is
/// only sound when the refining set is guaranteed to intersect every cut
/// marking the anchors — which holds when cuts always carry more tokens
/// than the anchor set.
fn cut_size_invariant(unf: &StgUnfolding) -> Option<usize> {
    let tokens = unf.postset(si_unfolding::EventId::ROOT).len();
    for e in unf.events().skip(1) {
        if unf.preset(e).len() != unf.postset(e).len() {
            return None;
        }
    }
    Some(tokens)
}

/// One cube-level refinement step on `atom`: intersect its cover with the
/// union of joint cubes over the refining set (all slice conditions
/// concurrent with the atom's anchor). Returns `true` if the cover shrank.
fn refine_atom(unf: &StgUnfolding, slices: &[Slice], atom: &mut CoverAtom) -> bool {
    if atom.exhausted {
        return false;
    }
    let slice = &slices[atom.slice];
    let anchors: Vec<ConditionId> = match atom.kind {
        AtomKind::MarkedRegion(p) => vec![p],
        // The ER anchor is the entry's preset: states in the ER mark all of
        // it, so refine with conditions concurrent to every preset member.
        AtomKind::ExcitationRegion => {
            if slice.entry.is_root() {
                atom.exhausted = true;
                return false;
            }
            unf.preset(slice.entry).to_vec()
        }
    };
    // Soundness guard: the refining set must be guaranteed to intersect
    // every cut marking the anchors. In a token-preserving net with more
    // tokens than anchors such a cut holds another condition, concurrent
    // with every anchor; otherwise nothing guarantees it, so skip straight
    // to the exact fallback.
    match cut_size_invariant(unf) {
        Some(tokens) if tokens > anchors.len() => {}
        _ => {
            atom.exhausted = true;
            return false;
        }
    }
    // Refining set: slice conditions concurrent with every anchor.
    let refining: Vec<ConditionId> = slice
        .conditions
        .iter()
        .map(|i| ConditionId(i as u32))
        .filter(|&p_k| {
            !anchors.contains(&p_k) && anchors.iter().all(|&a| unf.conditions_co(a, p_k))
        })
        .collect();
    if refining.is_empty() {
        atom.exhausted = true;
        return false;
    }
    let mut restriction = Cover::empty(unf.signal_count());
    for &p_k in &refining {
        let cube = joint_cube(unf, anchors[0], p_k);
        restriction = restriction.union(&[cube].into_iter().collect());
    }
    let refined = atom.cover.intersect(&restriction);
    if refined == atom.cover {
        atom.exhausted = true;
        false
    } else {
        atom.cover = refined;
        true
    }
}

/// Exact fallback: replace every atom of the offending atom's slice with the
/// slice's exact code enumeration. Returns `true` if anything changed.
#[allow(clippy::too_many_arguments)]
fn escalate(
    stg: &Stg,
    unf: &StgUnfolding,
    slices: &[Slice],
    atoms: &mut Vec<CoverAtom>,
    offending: usize,
    slice_budget: usize,
    report: &mut RefinementReport,
) -> Result<bool, SynthesisError> {
    let slice_idx = atoms[offending].slice;
    if atoms.iter().any(|a| a.slice == slice_idx && a.exact) {
        return Ok(false);
    }
    let codes = slice_codes(stg, unf, &slices[slice_idx], slice_budget)?;
    let exact: Cover = codes.iter().map(code_to_cube).collect();
    atoms.retain(|a| a.slice != slice_idx);
    atoms.push(CoverAtom {
        slice: slice_idx,
        kind: AtomKind::ExcitationRegion,
        cover: exact,
        exhausted: true,
        exact: true,
    });
    report.exact_fallbacks += 1;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::{approximate_side, side_cover};
    use crate::slice::side_slices;
    use si_stg::suite::{paper_fig1, paper_fig4ab, vme_read_no_csc};
    use si_stg::Stg;
    use si_unfolding::{StgUnfolding, UnfoldingOptions};

    fn build(stg: &Stg) -> StgUnfolding {
        StgUnfolding::build(stg, &UnfoldingOptions::default()).expect("builds")
    }

    fn refined_sides(stg: &Stg, name: &str) -> (StgUnfolding, Cover, Cover, RefinementReport) {
        let unf = build(stg);
        let sig = stg.signal_by_name(name).expect("signal");
        let on_slices = side_slices(&unf, sig, true);
        let off_slices = side_slices(&unf, sig, false);
        let mut on = approximate_side(stg, &unf, &on_slices);
        let mut off = approximate_side(stg, &unf, &off_slices);
        let report = refine_until_disjoint(
            stg,
            &unf,
            &on_slices,
            &off_slices,
            &mut on,
            &mut off,
            100,
            100_000,
            &mut ImplicitPool::new(unf.signal_count()),
        )
        .expect("no budget issue");
        let w = unf.signal_count();
        let on_cover = side_cover(&on, w);
        let off_cover = side_cover(&off, w);
        (unf, on_cover, off_cover, report)
    }

    #[test]
    fn fig1_b_refines_to_disjoint_covers() {
        let stg = paper_fig1();
        let (_, on, off, report) = refined_sides(&stg, "b");
        assert!(report.disjoint, "report: {report:?}");
        assert!(!on.intersects(&off));
        // The exact sets stay covered.
        for s in ["100", "101", "110", "111", "001", "011"] {
            let bits: Vec<bool> = s.chars().map(|c| c == '1').collect();
            assert!(on.covers_bits(&bits), "on-set lost {s}");
        }
        for s in ["000", "010"] {
            let bits: Vec<bool> = s.chars().map(|c| c == '1').collect();
            assert!(off.covers_bits(&bits), "off-set lost {s}");
        }
    }

    #[test]
    fn fig4_a_covers_disjoint() {
        let stg = paper_fig4ab();
        let (_, on, off, report) = refined_sides(&stg, "a");
        assert!(report.disjoint);
        assert!(!on.intersects(&off));
    }

    #[test]
    fn vme_csc_conflict_survives_refinement() {
        // The classic VME controller has a genuine CSC conflict: refinement
        // must terminate with intersecting covers, not loop forever.
        let stg = vme_read_no_csc();
        let unf = build(&stg);
        let lds = stg.signal_by_name("lds").expect("lds");
        let on_slices = side_slices(&unf, lds, true);
        let off_slices = side_slices(&unf, lds, false);
        let mut on = approximate_side(&stg, &unf, &on_slices);
        let mut off = approximate_side(&stg, &unf, &off_slices);
        let report = refine_until_disjoint(
            &stg,
            &unf,
            &on_slices,
            &off_slices,
            &mut on,
            &mut off,
            100,
            100_000,
            &mut ImplicitPool::new(unf.signal_count()),
        )
        .expect("no budget issue");
        assert!(!report.disjoint);
    }

    /// The reference sweep: the first intersecting pair found by a plain
    /// quadratic walk over the explicit cube lists, ignoring the caches.
    fn explicit_pair(
        on: &[CoverAtom],
        off: &[CoverAtom],
        _: &mut SetCache,
        _: &mut SetCache,
    ) -> Option<(usize, usize)> {
        for (i, a) in on.iter().enumerate() {
            for (j, b) in off.iter().enumerate() {
                if a.cover.intersects(&b.cover) {
                    return Some((i, j));
                }
            }
        }
        None
    }

    #[test]
    fn pooled_sweep_reproduces_explicit_trajectory() {
        // The pooled offending-pair sweep must leave the atoms (and the
        // report) exactly where the explicit sweep leaves them, on every
        // suite entry that exercises refinement.
        use si_stg::generators::muller_pipeline;
        for stg in [paper_fig1(), paper_fig4ab(), muller_pipeline(3)] {
            let unf = build(&stg);
            for sig in stg.implementable_signals() {
                let on_slices = side_slices(&unf, sig, true);
                let off_slices = side_slices(&unf, sig, false);
                let mut on_a = approximate_side(&stg, &unf, &on_slices);
                let mut off_a = approximate_side(&stg, &unf, &off_slices);
                let mut on_b = on_a.clone();
                let mut off_b = off_a.clone();
                let explicit = refine_with_sweep(
                    &stg,
                    &unf,
                    &on_slices,
                    &off_slices,
                    &mut on_a,
                    &mut off_a,
                    100,
                    100_000,
                    explicit_pair,
                )
                .expect("explicit ok");
                let mut pool = ImplicitPool::new(unf.signal_count());
                let pooled = refine_until_disjoint(
                    &stg,
                    &unf,
                    &on_slices,
                    &off_slices,
                    &mut on_b,
                    &mut off_b,
                    100,
                    100_000,
                    &mut pool,
                )
                .expect("pooled ok");
                assert_eq!(explicit, pooled, "{} report diverged", stg.name());
                let w = unf.signal_count();
                assert_eq!(
                    side_cover(&on_a, w).cubes(),
                    side_cover(&on_b, w).cubes(),
                    "{} on-covers diverged",
                    stg.name()
                );
                assert_eq!(
                    side_cover(&off_a, w).cubes(),
                    side_cover(&off_b, w).cubes(),
                    "{} off-covers diverged",
                    stg.name()
                );
            }
        }
    }
}
