//! Initial cover approximation (the paper, §4.2 and Figure 5, top half):
//! one ER cube per slice entry plus MR covers over the approximation set,
//! kept as individually refinable *atoms*.

use si_cubes::Cover;
use si_petri::Marking;
use si_stg::Stg;
use si_unfolding::{ConditionId, StgUnfolding};

use crate::covers::{er_cube, mr_cube, opposite_enabled_under_cubes, restricted_exit_cubes};
use crate::slice::Slice;

/// What a cover atom approximates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomKind {
    /// The excitation region of the slice's entry.
    ExcitationRegion,
    /// The marked region of one approximation-set condition.
    MarkedRegion(ConditionId),
}

/// One refinable piece of a side cover: the ER approximation of a slice
/// entry or the MR approximation of one condition.
#[derive(Debug, Clone)]
pub struct CoverAtom {
    /// Index of the owning slice within the side's slice list.
    pub slice: usize,
    /// What the atom approximates.
    pub kind: AtomKind,
    /// The current (possibly refined) cover.
    pub cover: Cover,
    /// Set when refinement has already been applied without progress — the
    /// escalation signal for the exact fallback.
    pub exhausted: bool,
    /// Set when the atom holds an exact slice enumeration (nothing left to
    /// refine).
    pub exact: bool,
}

/// Builds the initial cover approximation of one side. Under CSC the union
/// of its atoms covers the side's states (§4.2): a slice state where the
/// entry has not fired lies in the entry's excitation region, which the ER
/// atom covers, and one where it has marks a condition of the approximation
/// set, whose MR atom covers it. The MR atoms leave out only states where
/// an opposite change of the signal is enabled, which belong to the other
/// side.
pub fn approximate_side(stg: &Stg, unf: &StgUnfolding, slices: &[Slice]) -> Vec<CoverAtom> {
    let width = unf.signal_count();
    let mut atoms = Vec::new();
    for (idx, slice) in slices.iter().enumerate() {
        if let Some(cube) = er_cube(unf, slice) {
            atoms.push(CoverAtom {
                slice: idx,
                kind: AtomKind::ExcitationRegion,
                cover: [cube].into_iter().collect(),
                exhausted: false,
                exact: false,
            });
        }
        for p in slice.approximation_set(unf) {
            // If an opposite change of the slice signal is enabled in every
            // state where `p` is marked (it is enabled at the producer's cut
            // and no member can steal its preset), the marked region holds
            // no states of this side at all — common for conditions behind
            // a cutoff that re-enables the signal's first change.
            if opposite_always_enabled(stg, unf, slice, p) {
                atoms.push(CoverAtom {
                    slice: idx,
                    kind: AtomKind::MarkedRegion(p),
                    cover: Cover::empty(width),
                    exhausted: true,
                    exact: false,
                });
                continue;
            }
            let exits_with_p: Vec<_> = slice
                .exits
                .iter()
                .copied()
                .filter(|&x| unf.preset(x).contains(&p))
                .collect();
            let mut cover: Cover = if exits_with_p.is_empty() {
                [mr_cube(unf, slice, p)].into_iter().collect()
            } else {
                // Intersect the restricted covers over every exit `p` feeds;
                // any invalid restriction falls back to the full MR cube
                // (over-covering, caught by the intersection check).
                let mut acc: Option<Cover> = None;
                let mut fallback = false;
                for &x in &exits_with_p {
                    match restricted_exit_cubes(unf, slice, p, x) {
                        Some(cubes) => {
                            let c: Cover = cubes.into_iter().collect();
                            acc = Some(match acc {
                                None => c,
                                Some(prev) => prev.intersect(&c),
                            });
                        }
                        None => {
                            fallback = true;
                            break;
                        }
                    }
                }
                if fallback {
                    [mr_cube(unf, slice, p)].into_iter().collect()
                } else {
                    acc.unwrap_or_else(|| Cover::empty(width))
                }
            };
            // Sharp-subtract the certainly-opposite-enabled state cubes:
            // those states belong to the opposite side by definition (the
            // excited opposite change flips the implied value), so removing
            // them is sound whenever CSC holds — exactly the assumption
            // under which the paper's restricted covers are precise (§4.2).
            // The STG-level formulation also covers slices truncated at
            // cutoffs, whose bounding instances are not in the segment.
            for under in opposite_enabled_under_cubes(stg, unf, slice, p) {
                cover = cover.subtract_cube(&under);
            }
            atoms.push(CoverAtom {
                slice: idx,
                kind: AtomKind::MarkedRegion(p),
                cover,
                exhausted: false,
                exact: false,
            });
        }
    }
    atoms
}

/// Returns `true` when some opposite-polarity change of the slice signal is
/// provably enabled in *every* slice state where `p` is marked: it is
/// enabled at `Cut(⌈prod(p)⌉)` through conditions no slice member can
/// consume, so no later in-slice firing can disable it.
fn opposite_always_enabled(stg: &Stg, unf: &StgUnfolding, slice: &Slice, p: ConditionId) -> bool {
    let producer = unf.producer(p);
    let base_cut = unf.min_stable_cut(producer);
    let marking: Marking = base_cut.iter().map(|&b| unf.place(b)).collect();
    'transitions: for t in stg.transitions_of(slice.signal) {
        let Some(label) = stg.label(t) else { continue };
        if label.polarity.target_value() == slice.value {
            continue;
        }
        if !stg.net().is_enabled(t, &marking) {
            continue;
        }
        // Every preset condition of `t` in the base cut must be immune to
        // member consumption (its consumers are no slice members).
        for &place in stg.net().preset(t) {
            let Some(&cond) = base_cut.iter().find(|&&b| unf.place(b) == place) else {
                continue 'transitions;
            };
            let stealable = unf
                .consumers(cond)
                .iter()
                .any(|&c| slice.is_member(c) || c == slice.entry);
            if stealable {
                continue 'transitions;
            }
        }
        return true;
    }
    false
}

/// Collapses a side's atoms into a single cover.
pub fn side_cover(atoms: &[CoverAtom], width: usize) -> Cover {
    let mut cover = Cover::empty(width);
    for atom in atoms {
        cover = cover.union(&atom.cover);
    }
    cover
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice::side_slices;
    use si_stg::suite::{paper_fig1, paper_fig4ab};
    use si_stg::Stg;
    use si_unfolding::{StgUnfolding, UnfoldingOptions};

    fn build(stg: &Stg) -> StgUnfolding {
        StgUnfolding::build(stg, &UnfoldingOptions::default()).expect("builds")
    }

    #[test]
    fn fig4_on_approximation_of_a_covers_paper_cubes() {
        let stg = paper_fig4ab();
        let unf = build(&stg);
        let sa = stg.signal_by_name("a").expect("a");
        let slices = side_slices(&unf, sa, true);
        let atoms = approximate_side(&stg, &unf, &slices);
        let cover = side_cover(&atoms, unf.signal_count());
        // The paper's approximation (§4.2): a̅b̅c̅d̅e̅f̅g̅ + a d̅ g̅ + a d g̅ +
        // a d f̅ g + a d ē g. Our cover must cover all of those states.
        for s in [
            "0000000", // initial: +a excited
            "1000000", // after +a
            "1101000", // b, c up
            "1001001", // d, g up
            "1111110", // everything but g
        ] {
            let bits: Vec<bool> = s.chars().map(|c| c == '1').collect();
            assert!(cover.covers_bits(&bits), "missing {s}");
        }
        // And must not cover states where -a is already enabled with all
        // predecessors fired (e and f and g up ⇒ p8,p9,p10 marked).
        let bits: Vec<bool> = "1111111".chars().map(|c| c == '1').collect();
        assert!(!cover.covers_bits(&bits), "covers an off state");
    }

    #[test]
    fn fig1_approximation_intersects_and_needs_refinement() {
        // The off-⊥-slice MR cube of p3 is {100}, which is an on-state, so
        // the raw approximations of `b` intersect — exactly the situation
        // the refinement loop exists for.
        let stg = paper_fig1();
        let unf = build(&stg);
        let sb = stg.signal_by_name("b").expect("b");
        let on = side_cover(
            &approximate_side(&stg, &unf, &side_slices(&unf, sb, true)),
            unf.signal_count(),
        );
        let off = side_cover(
            &approximate_side(&stg, &unf, &side_slices(&unf, sb, false)),
            unf.signal_count(),
        );
        // Both sides must cover their exact sets.
        for s in ["100", "101", "110", "111", "001", "011"] {
            let bits: Vec<bool> = s.chars().map(|c| c == '1').collect();
            assert!(on.covers_bits(&bits), "on-set missing {s}");
        }
        for s in ["000", "010"] {
            let bits: Vec<bool> = s.chars().map(|c| c == '1').collect();
            assert!(off.covers_bits(&bits), "off-set missing {s}");
        }
    }

    #[test]
    fn atoms_track_their_slices() {
        let stg = paper_fig4ab();
        let unf = build(&stg);
        let sa = stg.signal_by_name("a").expect("a");
        let slices = side_slices(&unf, sa, true);
        let atoms = approximate_side(&stg, &unf, &slices);
        assert!(atoms.iter().any(|a| a.kind == AtomKind::ExcitationRegion));
        assert!(atoms.iter().all(|a| a.slice < slices.len()));
        assert!(atoms.iter().all(|a| !a.exhausted));
    }
}
