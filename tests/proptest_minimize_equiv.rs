//! Equivalence suite for the rewritten minimiser hot paths.
//!
//! The EXPAND / IRREDUNDANT / REDUCE / canonical-order phases were
//! reimplemented against a blocking structure, the unate-recursive
//! containment machinery, and packed block-word comparisons. This suite
//! pins each phase against the seed's reference implementation (kept here,
//! written against the public cube/cover API) on random on/off cover
//! pairs:
//!
//! * IRREDUNDANT, REDUCE and canonical order must be **byte-identical** to
//!   the reference — they are behaviour-preserving rewrites;
//! * EXPAND intentionally deviates (it skips cubes already covered by an
//!   expanded prime), so it is pinned on the phase contract instead: the
//!   result covers the input, avoids the off-set, and every cube is prime
//!   (no literal can be raised without hitting the off-set);
//! * the containment predicate (`contains_cube`) and the boolean
//!   intersection must agree with brute-force evaluation on both the
//!   single-block fast path and the multi-block generic path.

use proptest::prelude::*;
use si_synth::cubes::implicit::ImplicitPool;
use si_synth::cubes::internals::{canonical_order, expand, irredundant, reduce};
use si_synth::cubes::{
    minimize, minimize_exact, minimize_exact_implicit, minimize_implicit, Cover, Cube, Literal,
    QmBudget,
};
use si_synth::stategraph::{on_off_sets, StateGraph};
use si_synth::stg::generators::{counterflow_pipeline, parallelizer, token_ring};

/// Strategy: a random cube over `width` variables as a `{0,1,-}` string.
fn cube_strategy(width: usize) -> impl Strategy<Value = Cube> {
    proptest::collection::vec(prop_oneof![Just('0'), Just('1'), Just('-')], width)
        .prop_map(|chars| Cube::from_str_cube(&chars.into_iter().collect::<String>()))
}

/// Strategy: a random cover of up to `max_cubes` cubes.
fn cover_strategy(width: usize, max_cubes: usize) -> impl Strategy<Value = Cover> {
    proptest::collection::vec(cube_strategy(width), 0..=max_cubes)
        .prop_map(|cubes| cubes.into_iter().collect())
}

/// Deterministically splits the `width`-variable space into an on/off
/// minterm partition from a seed (the remaining minterms are don't-care).
fn partition_from_seed(seed: u64, width: usize) -> (Cover, Cover) {
    let mut on = Cover::empty(width);
    let mut off = Cover::empty(width);
    for x in 0..(1u32 << width) {
        let bits: Vec<bool> = (0..width).map(|i| (x >> i) & 1 == 1).collect();
        match (seed >> (x as usize % 60)) & 0b11 {
            0 => on.push(Cube::minterm(bits)),
            1 => off.push(Cube::minterm(bits)),
            _ => {}
        }
    }
    (on, off)
}

/// All assignments over `width` variables.
fn assignments(width: usize) -> impl Iterator<Item = Vec<bool>> {
    (0..(1u32 << width)).map(move |x| (0..width).map(|i| (x >> i) & 1 == 1).collect())
}

fn covers_equal(a: &Cover, b: &Cover) -> bool {
    a.cubes() == b.cubes()
}

// ---------------------------------------------------------------------------
// Reference implementations: the seed's minimiser phases, verbatim in
// behaviour, written against the public API.
// ---------------------------------------------------------------------------

/// Reference EXPAND: probe every (cube, variable) raise against every
/// off-cube via allocating intersection.
fn expand_ref(f: &mut Cover, off: &Cover) {
    let width = f.width();
    let mut cubes: Vec<Cube> = f.cubes().to_vec();
    cubes.sort_by_key(|c| c.literal_count());
    let mut result: Vec<Cube> = Vec::with_capacity(cubes.len());
    for mut cube in cubes {
        for v in 0..width {
            if cube.get(v) == Literal::DontCare {
                continue;
            }
            let saved = cube.get(v);
            cube.set(v, Literal::DontCare);
            if off.cubes().iter().any(|o| o.intersect(&cube).is_some()) {
                cube.set(v, saved);
            }
        }
        if !result.iter().any(|r| r.contains(&cube)) {
            result.retain(|r| !cube.contains(r));
            result.push(cube);
        }
    }
    *f = result.into_iter().collect();
}

/// Reference IRREDUNDANT: rebuilds a candidate cover per removal attempt.
fn irredundant_ref(f: &mut Cover, on: &Cover) {
    let mut order: Vec<usize> = (0..f.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(f.cubes()[i].literal_count()));
    let mut removed = vec![false; f.len()];
    for &i in &order {
        removed[i] = true;
        let candidate: Cover = f
            .cubes()
            .iter()
            .enumerate()
            .filter(|(j, _)| !removed[*j])
            .map(|(_, c)| c.clone())
            .collect();
        let still_covered = on
            .cubes()
            .iter()
            .filter(|o| o.intersect(&f.cubes()[i]).is_some())
            .all(|o| !candidate.is_empty() && candidate.covers_cube(o));
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

/// Reference REDUCE: greedy var-by-var shrink with a candidate cover per
/// probe.
fn reduce_ref(f: &mut Cover, on: &Cover) {
    let width = f.width();
    for i in 0..f.len() {
        let mut cube = f.cubes()[i].clone();
        for v in 0..width {
            if cube.get(v) != Literal::DontCare {
                continue;
            }
            for lit in [Literal::One, Literal::Zero] {
                let mut candidate_cube = cube.clone();
                candidate_cube.set(v, lit);
                let candidate: Cover = f
                    .cubes()
                    .iter()
                    .enumerate()
                    .map(|(j, c)| {
                        if j == i {
                            candidate_cube.clone()
                        } else {
                            c.clone()
                        }
                    })
                    .collect();
                let ok = on
                    .cubes()
                    .iter()
                    .filter(|o| o.intersect(&f.cubes()[i]).is_some())
                    .all(|o| candidate.covers_cube(o));
                if ok {
                    cube = candidate_cube;
                    break;
                }
            }
        }
        let cubes: Vec<Cube> = f
            .cubes()
            .iter()
            .enumerate()
            .map(|(j, c)| if j == i { cube.clone() } else { c.clone() })
            .collect();
        *f = cubes.into_iter().collect();
    }
}

/// Reference canonical order: sort by the remapped `{0,1,~}` string key.
fn canonical_order_ref(f: &mut Cover) {
    let mut cubes: Vec<Cube> = f.cubes().to_vec();
    cubes.sort_by_key(|c| {
        c.to_string()
            .chars()
            .map(|ch| if ch == '-' { '~' } else { ch })
            .collect::<String>()
    });
    *f = cubes.into_iter().collect();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn irredundant_matches_reference(seed in any::<u64>(), extra in cover_strategy(6, 4)) {
        // Start from an expanded cover plus some redundant random cubes so
        // the removal loop has real work to do.
        let (on, off) = partition_from_seed(seed, 6);
        if on.is_empty() {
            return Ok(());
        }
        let mut f = on.clone();
        expand(&mut f, &off);
        for c in extra.cubes() {
            if off.cubes().iter().all(|o| o.intersect(c).is_none()) {
                f.push(c.clone());
            }
        }
        let mut reference = f.clone();
        irredundant(&mut f, &on);
        irredundant_ref(&mut reference, &on);
        prop_assert!(covers_equal(&f, &reference), "{f} vs {reference}");
    }

    #[test]
    fn reduce_matches_reference(seed in any::<u64>()) {
        let (on, off) = partition_from_seed(seed, 6);
        if on.is_empty() {
            return Ok(());
        }
        let mut f = on.clone();
        expand(&mut f, &off);
        irredundant(&mut f, &on);
        let mut reference = f.clone();
        reduce(&mut f, &on);
        reduce_ref(&mut reference, &on);
        prop_assert!(covers_equal(&f, &reference), "{f} vs {reference}");
    }

    #[test]
    fn canonical_order_matches_reference(f in cover_strategy(7, 10)) {
        let mut a = f.clone();
        let mut b = f.clone();
        canonical_order(&mut a);
        canonical_order_ref(&mut b);
        prop_assert!(covers_equal(&a, &b), "{a} vs {b}");
    }

    #[test]
    fn expand_contract_and_primality(seed in any::<u64>()) {
        let (on, off) = partition_from_seed(seed, 6);
        if on.is_empty() {
            return Ok(());
        }
        let mut f = on.clone();
        expand(&mut f, &off);
        let mut reference = on.clone();
        expand_ref(&mut reference, &off);
        // Contract: still covers the input, still avoids the off-set —
        // exactly like the reference.
        prop_assert!(f.covers_cover(&on), "expand lost on-points: {f} vs {on}");
        prop_assert!(!f.intersects(&off), "expand hit the off-set: {f} vs {off}");
        prop_assert!(reference.covers_cover(&on));
        prop_assert!(!reference.intersects(&off));
        // Primality: no literal of any result cube can be raised further.
        for c in f.cubes() {
            for v in 0..6 {
                if c.get(v) == Literal::DontCare {
                    continue;
                }
                let mut raised = c.clone();
                raised.set(v, Literal::DontCare);
                prop_assert!(
                    off.cubes().iter().any(|o| o.intersect(&raised).is_some()),
                    "cube {c} of {f} is not prime at variable {v}"
                );
            }
        }
    }

    #[test]
    fn minimize_implicit_matches_explicit_on_partitions(seed in any::<u64>()) {
        // The implicit-cover minimiser must be byte-identical to the
        // explicit minimiser on the canonically ordered minterm covers of
        // the same point sets — the contract the implicit SG baseline
        // rests on.
        let width = 6;
        let (mut on, mut off) = partition_from_seed(seed, width);
        canonical_order(&mut on);
        canonical_order(&mut off);
        let mut pool = ImplicitPool::new(width);
        let on_set = pool.cover_set(&on);
        let off_set = pool.cover_set(&off);
        let implicit = minimize_implicit(&mut pool, on_set, off_set);
        let explicit = if on.is_empty() { on.clone() } else { minimize(&on, &off) };
        prop_assert!(
            covers_equal(&implicit, &explicit),
            "{implicit} vs {explicit}"
        );
    }

    #[test]
    fn minimize_exact_implicit_matches_explicit(seed in any::<u64>()) {
        let width = 5;
        let (mut on, mut off) = partition_from_seed(seed, width);
        canonical_order(&mut on);
        canonical_order(&mut off);
        let mut pool = ImplicitPool::new(width);
        let on_set = pool.cover_set(&on);
        let off_set = pool.cover_set(&off);
        let budget = QmBudget::default();
        let implicit = minimize_exact_implicit(&mut pool, on_set, off_set, &budget);
        let explicit = if on.is_empty() {
            Some(Cover::empty(width))
        } else {
            minimize_exact(&on, &off, &budget)
        };
        match (implicit, explicit) {
            (Some(a), Some(b)) => prop_assert!(covers_equal(&a, &b), "{a} vs {b}"),
            (None, None) => {}
            (a, b) => prop_assert!(false, "give-up verdicts differ: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn implicit_set_roundtrips_through_minterms(f in cover_strategy(6, 6)) {
        // cover → implicit set → materialised minterms must preserve the
        // point set exactly, and the minterm cover must come back sorted.
        let mut pool = ImplicitPool::new(6);
        let set = pool.cover_set(&f);
        let minterms = pool.minterms_cover(set);
        for bits in assignments(6) {
            prop_assert_eq!(minterms.covers_bits(&bits), f.covers_bits(&bits));
        }
        let mut sorted = minterms.clone();
        canonical_order(&mut sorted);
        prop_assert!(covers_equal(&minterms, &sorted));
        prop_assert_eq!(pool.count(set), minterms.len() as u128);
    }

    #[test]
    fn contains_cube_agrees_with_exhaustive(f in cover_strategy(5, 5), c in cube_strategy(5)) {
        let contains = f.contains_cube(&c);
        let exhaustive = assignments(5).all(|bits| !c.covers_bits(&bits) || f.covers_bits(&bits));
        prop_assert_eq!(contains, exhaustive);
        prop_assert_eq!(f.covers_cube(&c), contains);
    }

    #[test]
    fn cube_intersects_agrees_with_intersect(a in cube_strategy(6), b in cube_strategy(6)) {
        prop_assert_eq!(a.intersects(&b), a.intersect(&b).is_some());
        prop_assert_eq!(a.disjoint(&b), a.intersect(&b).is_none());
    }
}

/// The multi-block (> 64 variable) containment path must agree with the
/// single-block fast path: embed a 6-variable problem in a 70-variable
/// space (the high variables stay free, so the function only depends on the
/// low ones).
#[test]
fn wide_contains_cube_agrees_with_narrow() {
    let widen = |s: &str| -> Cube {
        let mut wide = String::from(s);
        wide.push_str(&"-".repeat(64));
        Cube::from_str_cube(&wide)
    };
    let narrow = ["1---0-", "-01---", "--11--", "0----1", "------"];
    let targets = ["10--0-", "-011--", "111111", "0-----", "------"];
    for k in 1..=narrow.len() {
        let f_narrow: Cover = narrow[..k].iter().map(|s| Cube::from_str_cube(s)).collect();
        let f_wide: Cover = narrow[..k].iter().map(|s| widen(s)).collect();
        for t in targets {
            assert_eq!(
                f_wide.contains_cube(&widen(t)),
                f_narrow.contains_cube(&Cube::from_str_cube(t)),
                "cover {f_narrow} target {t}"
            );
        }
    }
}

/// The random partitions above stop at six variables. IRREDUNDANT and
/// REDUCE build each cube's "rest of the cover" from running unions, and
/// only covers of many cubes can tell those apart from rebuilding the rest
/// per cube. So pin the implicit minimiser against the explicit one on the
/// state-graph on/off sets of real specifications, every implementable
/// signal, up to `token_ring(12)`'s gates of 44 cubes.
#[test]
fn minimize_implicit_matches_explicit_at_sg_size() {
    for stg in [
        token_ring(10),
        token_ring(12),
        parallelizer(5),
        counterflow_pipeline(4),
    ] {
        let sg = StateGraph::build(&stg, 100_000).expect("state graph builds");
        for signal in stg.implementable_signals() {
            let sets = on_off_sets(&stg, &sg, signal);
            let mut pool = ImplicitPool::new(stg.signal_count());
            let on = pool.cover_set(&sets.on);
            let off = pool.cover_set(&sets.off);
            let implicit = minimize_implicit(&mut pool, on, off);
            let explicit = minimize(&sets.on, &sets.off);
            assert!(
                covers_equal(&implicit, &explicit),
                "{} {}: {implicit} vs {explicit}",
                stg.name(),
                stg.signal_name(signal)
            );
        }
    }
}
