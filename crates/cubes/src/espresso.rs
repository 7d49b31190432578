//! A self-contained Espresso-style two-level minimiser.
//!
//! The paper runs Espresso over the covers derived from the unfolding
//! segment, using the DC-set for optimisation. This module implements the
//! classic EXPAND → IRREDUNDANT → REDUCE iteration driven by an explicit
//! on-set cover and an explicit off-set cover; everything not covered by
//! either is don't-care and may be absorbed freely.
//!
//! Exact minimality is not claimed (neither does Espresso claim it); the
//! result is a *prime and irredundant* cover whose cost (cube count, then
//! literal count) does not exceed the input's.

use crate::cover::{cofactor_covers, cofactor_rows1, cofactor_rows_by_var, tautology1, Cover};
use crate::cube::{Cube, Literal};

/// Minimises `on` against `off`: returns a cover that covers every point of
/// `on`, covers no point of `off`, and is locally minimal under the
/// expand/irredundant/reduce moves.
///
/// Points covered by neither input are treated as don't-cares.
///
/// # Panics
///
/// Panics (in debug builds) if `on` and `off` intersect — the caller must
/// provide a consistent partition, which is exactly the paper's cover
/// correctness condition.
///
/// # Examples
///
/// ```
/// use si_cubes::{minimize, Cover, Cube};
///
/// // on = {11-, 10-} (= a), off = {0--}
/// let on: Cover = [Cube::from_str_cube("11-"), Cube::from_str_cube("10-")]
///     .into_iter()
///     .collect();
/// let off: Cover = [Cube::from_str_cube("0--")].into_iter().collect();
/// let min = minimize(&on, &off);
/// assert_eq!(min.len(), 1);
/// assert_eq!(min.cubes()[0].to_string(), "1--");
/// ```
pub fn minimize(on: &Cover, off: &Cover) -> Cover {
    debug_assert!(
        !on.intersects(off),
        "on-set and off-set covers must be disjoint"
    );
    if on.is_empty() {
        return on.clone();
    }
    let mut f = on.clone();
    f.remove_contained();

    let mut best = f.clone();
    let mut best_cost = cost(&best);
    for _ in 0..8 {
        expand(&mut f, off);
        irredundant(&mut f, on);
        let c = cost(&f);
        if c < best_cost {
            best = f.clone();
            best_cost = c;
        } else {
            break;
        }
        reduce(&mut f, on);
    }
    canonical_order(&mut best);
    best
}

/// Sorts cubes so that terms constraining earlier variables come first —
/// `a + c` rather than `c + a` — making reports deterministic. Compares the
/// packed block words directly ([`Cube::cmp_canonical`]), so determinism
/// costs O(n log n) comparisons rather than O(n log n) string allocations.
pub fn canonical_order(f: &mut Cover) {
    let mut cubes: Vec<Cube> = f.cubes().to_vec();
    cubes.sort_by(Cube::cmp_canonical);
    *f = cubes.into_iter().collect();
}

/// Cover cost: cube count first, then literal count (the paper reports
/// literal counts; fewer cubes almost always means fewer literals too).
fn cost(f: &Cover) -> (usize, usize) {
    (f.len(), f.literal_count())
}

/// EXPAND: raise literals of every cube as long as the cube stays disjoint
/// from the off-set, then drop cubes contained in the expanded one.
///
/// Instead of re-testing the whole off-set per raised literal (allocating an
/// intersection per probe), this precomputes a *blocking structure*: for
/// every off-cube, the bitset of variables on which it conflicts with the
/// cube, plus the conflict count. A literal not involved in any conflict is
/// raised immediately (the raise-all phase); each remaining literal can be
/// raised exactly when no off-cube relies on it as its *only* conflict, and
/// raising it just clears one bit per blocked off-cube (the retract phase).
/// The raise decisions are identical to the probe-per-(cube, variable,
/// off-cube) formulation.
///
/// A cube already inside an expanded prime is skipped before paying the
/// off-set scan (the classic Espresso move): on minterm-level covers — the
/// SG baseline's input — the first few primes absorb almost everything, so
/// this turns the quadratic cover × off-set sweep into one sweep per
/// *surviving* cube.
pub fn expand(f: &mut Cover, off: &Cover) {
    let width = f.width();
    let mut cubes: Vec<Cube> = f.cubes().to_vec();
    // Expand big cubes first so they absorb the small ones.
    cubes.sort_by_key(|c| c.literal_count());
    let blocks = cubes.first().map(Cube::block_count).unwrap_or(0);
    // Scratch reused across cubes: `conflicts` holds `off.len()` rows of
    // `blocks` words each; `counts[o]` is the popcount of row `o`.
    let mut conflicts: Vec<u64> = Vec::new();
    let mut counts: Vec<u32> = Vec::new();
    let mut union: Vec<u64> = Vec::new();
    let mut result: Vec<Cube> = Vec::with_capacity(cubes.len());
    for mut cube in cubes {
        if result.iter().any(|r| r.contains(&cube)) {
            continue; // already covered: expanding it cannot help
        }
        conflicts.clear();
        conflicts.resize(off.len() * blocks, 0);
        counts.clear();
        counts.resize(off.len(), 0);
        union.clear();
        union.resize(blocks, 0);
        let mut blocked = false; // some off-cube already intersects `cube`
        for (oi, o) in off.cubes().iter().enumerate() {
            let mut count = 0u32;
            for b in 0..blocks {
                let c = cube.mask_block(b) & o.mask_block(b) & (cube.val_block(b) ^ o.val_block(b));
                conflicts[oi * blocks + b] = c;
                union[b] |= c;
                count += c.count_ones();
            }
            counts[oi] = count;
            blocked |= count == 0;
        }
        if !blocked {
            // Raise-all phase: a literal no off-cube conflicts on can never
            // separate the cube from the off-set — free them all at once.
            for (b, u) in union.iter().enumerate() {
                let raise = cube.mask_block(b) & !u;
                cube.raise_block(b, raise);
            }
            // Retract phase: try the conflicting literals in variable order.
            for v in 0..width {
                let (b, m) = (v / 64, 1u64 << (v % 64));
                if cube.mask_block(b) & m == 0 || union[b] & m == 0 {
                    continue;
                }
                let legal =
                    (0..off.len()).all(|oi| conflicts[oi * blocks + b] & m == 0 || counts[oi] > 1);
                if legal {
                    cube.raise_block(b, m);
                    for oi in 0..off.len() {
                        if conflicts[oi * blocks + b] & m != 0 {
                            conflicts[oi * blocks + b] &= !m;
                            counts[oi] -= 1;
                        }
                    }
                }
            }
        }
        if !result.iter().any(|r| r.contains(&cube)) {
            result.retain(|r| !cube.contains(r));
            result.push(cube);
        }
    }
    *f = result.into_iter().collect();
}

/// IRREDUNDANT: greedily remove cubes whose points are already covered by
/// the rest of the cover (validated against the original on-set).
///
/// The containment question "do the remaining cubes still cover `o`?" goes
/// straight through the unate-recursive cofactor/tautology machinery
/// (`cofactor_covers`) on a filtered view of the cover — no candidate
/// cover is materialised per removal attempt.
pub fn irredundant(f: &mut Cover, on: &Cover) {
    // Try to remove large-literal cubes first (they are the most specific).
    let mut order: Vec<usize> = (0..f.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(f.cubes()[i].literal_count()));
    let mut removed = vec![false; f.len()];
    for &i in &order {
        removed[i] = true;
        let target = &f.cubes()[i];
        let still_covered = on.cubes().iter().filter(|o| o.intersects(target)).all(|o| {
            cofactor_covers(
                f.cubes()
                    .iter()
                    .zip(&removed)
                    .filter(|(_, r)| !**r)
                    .map(|(c, _)| c),
                o,
                f.width(),
            )
        });
        if !still_covered {
            removed[i] = false;
        }
    }
    *f = f
        .cubes()
        .iter()
        .enumerate()
        .filter(|(j, _)| !removed[*j])
        .map(|(_, c)| c.clone())
        .collect();
}

/// REDUCE: shrink each cube as far as the on-set coverage allows, so the
/// next EXPAND can move it in a better direction.
///
/// The historical formulation probed every (variable, polarity) pair with a
/// full cover-containment check. This one computes, once per cube, the
/// *residue* `U` — the points of the obligated on-cubes (those intersecting
/// the cube at entry) left uncovered by the rest of the cover — and uses the
/// identity that the greedy var-by-var shrink lands exactly on
/// `entry ∩ supercube(U)`:
///
/// * constraining `v` to a literal is valid iff `U` lies entirely on that
///   side, i.e. iff `supercube(U)` constrains `v` to the same literal;
/// * if `supercube(U)` pokes outside the cube, no constraint is ever valid
///   and the cube stays put;
/// * if `U` is empty, every probe succeeds and the greedy (which tries `1`
///   before `0`) pins every free variable to `1`.
///
/// The decisions — and therefore the result — are identical, but the cover
/// subtraction is paid once per cube instead of a tautology per probe.
pub fn reduce(f: &mut Cover, on: &Cover) {
    let width = f.width();
    let mut cubes: Vec<Cube> = f.cubes().to_vec();
    for i in 0..cubes.len() {
        // The cube as it stood when this iteration started: the on-cubes it
        // intersects are the ones whose coverage the shrink must preserve.
        let entry = cubes[i].clone();
        let mut residue: Option<Cube> = None;
        for o in on.cubes().iter().filter(|o| o.intersects(&entry)) {
            if let Some(s) = residue_supercube(o, &cubes, i, width) {
                let r = match residue {
                    None => s,
                    Some(r) => r.supercube(&s),
                };
                // Once the residue pokes outside the cube no shrink can be
                // valid, so the remaining obligations don't matter.
                let sticks_out = !entry.contains(&r);
                residue = Some(r);
                if sticks_out {
                    break;
                }
            }
        }
        cubes[i] = match residue {
            // No residue: the rest already covers every obligation, and the
            // greedy pins each free variable to 1.
            None => {
                let mut c = entry;
                for v in 0..width {
                    if c.get(v) == Literal::DontCare {
                        c.set(v, Literal::One);
                    }
                }
                c
            }
            // The residue fits inside the cube: shrink down onto it.
            Some(s) if entry.contains(&s) => s,
            // The residue sticks out: no shrink is valid.
            Some(_) => entry,
        };
    }
    *f = cubes.into_iter().collect();
}

/// Piece cap for the sharp-based residue computation; past this the
/// per-variable probe fallback (bounded, but slower) takes over.
const RESIDUE_PIECE_CAP: usize = 2_048;

/// The supercube of `o # (cubes \ {skip})` — the smallest cube containing
/// the points of `o` not covered by the other cubes — or `None` when that
/// difference is empty.
fn residue_supercube(o: &Cube, cubes: &[Cube], skip: usize, width: usize) -> Option<Cube> {
    if width <= 64 {
        return residue_supercube1(o, cubes, skip, width);
    }
    // Wide-cube generic path: incremental sharp with heap cubes.
    let mut pieces: Vec<Cube> = vec![o.clone()];
    let mut scratch: Vec<Cube> = Vec::new();
    for (j, g) in cubes.iter().enumerate() {
        if j == skip || g.disjoint(o) {
            continue;
        }
        scratch.clear();
        for p in &pieces {
            scratch.extend(p.sharp(g));
        }
        std::mem::swap(&mut pieces, &mut scratch);
        if pieces.is_empty() {
            return None;
        }
        if pieces.len() > RESIDUE_PIECE_CAP {
            return residue_supercube_by_probe(o, cubes, skip, width);
        }
    }
    let mut sup: Option<Cube> = None;
    for p in &pieces {
        sup = Some(match sup {
            None => p.clone(),
            Some(s) => s.supercube(p),
        });
    }
    sup
}

/// Single-block residue supercube: incremental sharp over packed
/// `(mask, val)` rows. The pieces start as `{o}` and stay pairwise disjoint
/// throughout (the sharp of disjoint cubes is disjoint), so no containment
/// pruning is needed — each subtraction step is a flat map over 16-byte
/// rows, and cubes disjoint from `o` are skipped outright. If the piece
/// count blows past [`RESIDUE_PIECE_CAP`], the bounded per-variable probe
/// fallback takes over.
fn residue_supercube1(o: &Cube, cubes: &[Cube], skip: usize, width: usize) -> Option<Cube> {
    let (om, ov) = (o.mask_block(0), o.val_block(0));
    let mut pieces: Vec<(u64, u64)> = vec![(om, ov)];
    let mut scratch: Vec<(u64, u64)> = Vec::new();
    for (j, g) in cubes.iter().enumerate() {
        if j == skip {
            continue;
        }
        let (gm, gv) = (g.mask_block(0), g.val_block(0));
        if (ov ^ gv) & om & gm != 0 {
            continue; // g disjoint from o: no piece can touch it
        }
        scratch.clear();
        for &(pm, pv) in &pieces {
            if (pv ^ gv) & pm & gm != 0 {
                scratch.push((pm, pv)); // disjoint piece survives whole
                continue;
            }
            // Sharp: for each variable g constrains and the piece leaves
            // free, emit the piece with that literal flipped, fixing the
            // previous ones to g's values so the pieces stay disjoint.
            let mut prefix_m = pm;
            let mut prefix_v = pv;
            let mut free = gm & !pm;
            while free != 0 {
                let m = free & free.wrapping_neg();
                free &= free - 1;
                scratch.push((prefix_m | m, prefix_v | (!gv & m)));
                prefix_m |= m;
                prefix_v |= gv & m;
            }
            // gm ⊆ pm: the piece lies inside g and vanishes.
        }
        std::mem::swap(&mut pieces, &mut scratch);
        if pieces.is_empty() {
            return None;
        }
        if pieces.len() > RESIDUE_PIECE_CAP {
            return residue_supercube_by_probe(o, cubes, skip, width);
        }
    }
    let (mut sm, mut sv) = pieces[0];
    for &(pm, pv) in &pieces[1..] {
        let agree = sm & pm & !(sv ^ pv);
        sm = agree;
        sv &= agree;
    }
    Some(Cube::from_block1(width, sm, sv))
}

/// Fallback residue supercube: decides each variable's literal from whether
/// `o`'s two half-spaces on that variable are fully covered by the rest.
fn residue_supercube_by_probe(o: &Cube, cubes: &[Cube], skip: usize, width: usize) -> Option<Cube> {
    let rest = || {
        cubes
            .iter()
            .enumerate()
            .filter(move |(j, _)| *j != skip)
            .map(|(_, c)| c)
    };
    if width <= 64 {
        // Cofactor the rest of the cover by `o` once; every half-space
        // question below is then a flat filter plus tautology over rows.
        let Some(rows) = cofactor_rows1(rest(), o) else {
            return None; // some cube swallows o whole
        };
        if !rows.is_empty() && tautology1(&rows) {
            return None; // residue empty
        }
        let (om, ov) = (o.mask_block(0), o.val_block(0));
        let mut sup = Cube::full(width);
        for v in 0..width {
            let m = 1u64 << v;
            if om & m != 0 {
                // o constrains v: the whole residue lies on o's side.
                sup.set(
                    v,
                    if ov & m != 0 {
                        Literal::One
                    } else {
                        Literal::Zero
                    },
                );
                continue;
            }
            let side_uncovered = |value: u64| match cofactor_rows_by_var(&rows, m, value) {
                None => false, // a full cube covers this side
                Some(cof) => cof.is_empty() || !tautology1(&cof),
            };
            let zero = side_uncovered(0);
            let one = side_uncovered(m);
            match (zero, one) {
                (true, true) => {}
                (true, false) => sup.set(v, Literal::Zero),
                (false, true) => sup.set(v, Literal::One),
                // Unreachable: the residue is nonempty, so some side has
                // points.
                (false, false) => {}
            }
        }
        return Some(sup);
    }
    let covered = |target: &Cube| cofactor_covers(rest(), target, width);
    if covered(o) {
        return None; // residue empty
    }
    let mut sup = Cube::full(width);
    for v in 0..width {
        // Does the residue have points with v = 0 / v = 1?
        let side_uncovered = |lit: Literal| {
            if o.get(v) != Literal::DontCare {
                return o.get(v) == lit; // the residue is nonempty, on o's side
            }
            let mut half = o.clone();
            half.set(v, lit);
            !covered(&half)
        };
        let zero = side_uncovered(Literal::Zero);
        let one = side_uncovered(Literal::One);
        match (zero, one) {
            (true, true) => {}
            (true, false) => sup.set(v, Literal::Zero),
            (false, true) => sup.set(v, Literal::One),
            // Unreachable: the residue is nonempty, so some side has points.
            (false, false) => {}
        }
    }
    Some(sup)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cover(cubes: &[&str]) -> Cover {
        cubes.iter().map(|s| Cube::from_str_cube(s)).collect()
    }

    /// Checks the minimisation contract: covers all of `on`, none of `off`.
    fn check_contract(on: &Cover, off: &Cover) -> Cover {
        let min = minimize(on, off);
        assert!(min.covers_cover(on), "on-set lost: {min} vs {on}");
        assert!(!min.intersects(off), "off-set hit: {min} vs {off}");
        assert!(cost(&min) <= cost(on), "cost increased");
        min
    }

    #[test]
    fn merges_adjacent_minterms() {
        let on = cover(&["110", "100"]);
        let off = cover(&["0--", "1-1"]);
        let min = check_contract(&on, &off);
        assert_eq!(min.len(), 1);
        assert_eq!(min.cubes()[0].to_string(), "1-0");
    }

    #[test]
    fn exploits_dont_cares() {
        // on = {11}, off = {00}; 01 and 10 are DC → single-literal answer.
        let on = cover(&["11"]);
        let off = cover(&["00"]);
        let min = check_contract(&on, &off);
        assert_eq!(min.len(), 1);
        assert_eq!(min.literal_count(), 1);
    }

    #[test]
    fn paper_fig1_on_set_minimises_to_a_plus_c() {
        // On(b) = {100,101,110,111,001,011}, Off(b) = {010,000}; the paper's
        // result is a + c.
        let on = cover(&["100", "101", "110", "111", "001", "011"]);
        let off = cover(&["010", "000"]);
        let min = check_contract(&on, &off);
        assert_eq!(min.len(), 2);
        assert_eq!(min.literal_count(), 2);
        let names = ["a", "b", "c"];
        let expr = min.to_expression_string(&names);
        assert!(expr == "a + c" || expr == "c + a", "got {expr}");
    }

    #[test]
    fn already_minimal_is_stable() {
        let on = cover(&["1--"]);
        let off = cover(&["0--"]);
        let min = check_contract(&on, &off);
        assert_eq!(min.len(), 1);
        assert_eq!(min.cubes()[0].to_string(), "1--");
    }

    #[test]
    fn empty_on_set() {
        let on = Cover::empty(3);
        let off = cover(&["---"]);
        assert!(minimize(&on, &off).is_empty());
    }

    #[test]
    fn redundant_cube_removed() {
        // Third cube is inside the union of the first two.
        let on = cover(&["1-", "-1", "11"]);
        let off = cover(&["00"]);
        let min = check_contract(&on, &off);
        assert_eq!(min.len(), 2);
    }

    #[test]
    fn xor_cannot_be_reduced_below_two_cubes() {
        let on = cover(&["10", "01"]);
        let off = cover(&["11", "00"]);
        let min = check_contract(&on, &off);
        assert_eq!(min.len(), 2);
        assert_eq!(min.literal_count(), 4);
    }

    #[test]
    fn five_variable_random_shape() {
        // A structured function: majority-ish over 5 vars with DC holes.
        let on = cover(&["11---", "1-1--", "-11--"]);
        let off = cover(&["00-0-", "0-00-"]);
        check_contract(&on, &off);
    }

    #[test]
    fn exhaustive_semantics_after_minimise() {
        // Brute-force check on 4 variables: minimised cover equals the
        // original on every completely specified point that is not DC.
        let on = cover(&["1100", "1101", "111-", "0011"]);
        let off = cover(&["0000", "01--", "1000", "1001"]);
        let min = minimize(&on, &off);
        for x in 0..16u8 {
            let bits = [(x & 8) != 0, (x & 4) != 0, (x & 2) != 0, (x & 1) != 0];
            if on.covers_bits(&bits) {
                assert!(min.covers_bits(&bits), "lost on-point {bits:?}");
            }
            if off.covers_bits(&bits) {
                assert!(!min.covers_bits(&bits), "gained off-point {bits:?}");
            }
        }
    }
}
