//! Property-based pinning of the `si-bdd` reordering and collection
//! machinery: random BDDs are built from random cube/op sequences, then hit
//! with arbitrary level-swap / sift / gc sequences. After every mutation
//! each tracked function must be *identical* — same `sat_count`, same value
//! on random assignments, same canonical `ImplicitCover` — and the unique
//! table must satisfy its structural invariants (no duplicate
//! `(level, lo, hi)` triples, `lo != hi`, live strictly-deeper children),
//! checked by `BddManager::assert_invariants`. On the mutated manager, one
//! batch translation of the whole stack must equal one translation per
//! function.

use proptest::collection::vec;
use proptest::prelude::*;
use si_synth::bdd::{Bdd, BddManager};
use si_synth::cubes::implicit::{ImplicitCover, ImplicitPool};

/// One step of a random function-building program. Operand indices address
/// the result stack modulo its length.
#[derive(Debug, Clone)]
enum Op {
    Var(u8),
    NVar(u8),
    Cube(Vec<(u8, bool)>),
    And(u8, u8),
    Or(u8, u8),
    Xor(u8, u8),
    Diff(u8, u8),
    Not(u8),
    Ite(u8, u8, u8),
    Exists(u8, u8),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(Op::Var),
        any::<u8>().prop_map(Op::NVar),
        vec((any::<u8>(), any::<bool>()), 1..5).prop_map(Op::Cube),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::And(a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Or(a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Xor(a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Diff(a, b)),
        any::<u8>().prop_map(Op::Not),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(a, b, c)| Op::Ite(a, b, c)),
        (any::<u8>(), any::<u8>()).prop_map(|(f, mask)| Op::Exists(f, mask)),
    ]
}

/// One pool mutation: an adjacent level swap, a full sift, or a collection.
#[derive(Debug, Clone)]
enum Mutation {
    Swap(u8),
    Sift,
    Gc,
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        any::<u8>().prop_map(Mutation::Swap),
        Just(Mutation::Sift),
        Just(Mutation::Gc),
    ]
}

/// Runs the program over a fresh manager, returning the result stack.
fn run_program(mgr: &mut BddManager, ops: &[Op]) -> Vec<Bdd> {
    let w = mgr.num_vars();
    let mut stack = vec![mgr.zero(), mgr.one()];
    let pick = |stack: &[Bdd], i: u8| stack[i as usize % stack.len()];
    for op in ops {
        let r = match op {
            Op::Var(v) => mgr.var(*v as usize % w),
            Op::NVar(v) => mgr.nvar(*v as usize % w),
            Op::Cube(lits) => {
                // First occurrence of each variable wins; later conflicting
                // literals are dropped (`cube` rejects conflicts).
                let mut chosen: Vec<(usize, bool)> = Vec::new();
                for &(v, b) in lits {
                    let v = v as usize % w;
                    if !chosen.iter().any(|&(u, _)| u == v) {
                        chosen.push((v, b));
                    }
                }
                mgr.cube(&chosen)
            }
            Op::And(a, b) => {
                let (x, y) = (pick(&stack, *a), pick(&stack, *b));
                mgr.and(x, y)
            }
            Op::Or(a, b) => {
                let (x, y) = (pick(&stack, *a), pick(&stack, *b));
                mgr.or(x, y)
            }
            Op::Xor(a, b) => {
                let (x, y) = (pick(&stack, *a), pick(&stack, *b));
                mgr.xor(x, y)
            }
            Op::Diff(a, b) => {
                let (x, y) = (pick(&stack, *a), pick(&stack, *b));
                mgr.diff(x, y)
            }
            Op::Not(a) => {
                let x = pick(&stack, *a);
                mgr.not(x)
            }
            Op::Ite(a, b, c) => {
                let (x, y, z) = (pick(&stack, *a), pick(&stack, *b), pick(&stack, *c));
                mgr.ite(x, y, z)
            }
            Op::Exists(f, mask) => {
                let x = pick(&stack, *f);
                let vars: Vec<usize> = (0..w).filter(|&v| (mask >> (v % 8)) & 1 == 1).collect();
                let q = mgr.cube_vars(&vars);
                mgr.exists(x, q)
            }
        };
        stack.push(r);
    }
    stack
}

/// Deterministic pseudo-random assignment `j` over `w` variables.
fn assignment(seed: u64, j: u64, w: usize) -> Vec<bool> {
    let x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(j.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    (0..w).map(|i| (x >> (i as u64 % 64)) & 1 == 1).collect()
}

/// The canonical implicit point sets of `fs`, in `pool` (identity map),
/// translated in one batch.
fn implicit_of(mgr: &BddManager, fs: &[Bdd], pool: &mut ImplicitPool) -> Vec<ImplicitCover> {
    let map: Vec<Option<usize>> = (0..mgr.num_vars()).map(Some).collect();
    mgr.to_implicit(fs, pool, &map)
        .expect("identity map covers the support")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reordering_and_gc_preserve_every_function(
        w in 3usize..8,
        ops in vec(op(), 1..24),
        mutations in vec(mutation(), 1..10),
        seed in any::<u64>(),
    ) {
        let mut mgr = BddManager::new(w);
        let stack = run_program(&mut mgr, &ops);
        // Everything on the stack must survive the mutations below.
        for &f in &stack {
            mgr.protect(f);
        }
        mgr.assert_invariants();

        // Baselines: model count, point evaluations, canonical point set.
        let mut pool = ImplicitPool::new(w);
        let counts: Vec<u128> = stack.iter().map(|&f| mgr.sat_count(f)).collect();
        let evals: Vec<Vec<bool>> = stack
            .iter()
            .map(|&f| (0..16).map(|j| mgr.eval(f, &assignment(seed, j, w))).collect())
            .collect();
        let sets: Vec<ImplicitCover> = stack
            .iter()
            .flat_map(|&f| implicit_of(&mgr, &[f], &mut pool))
            .collect();

        for m in &mutations {
            match m {
                Mutation::Swap(l) => mgr.swap_levels(*l as usize % (w - 1)),
                Mutation::Sift => {
                    mgr.reorder_sift(BddManager::DEFAULT_MAX_GROWTH);
                }
                Mutation::Gc => {
                    mgr.gc();
                }
            }
            mgr.assert_invariants();
            for (i, &f) in stack.iter().enumerate() {
                prop_assert!(mgr.is_live(f), "{m:?} collected a protected handle");
                prop_assert_eq!(mgr.sat_count(f), counts[i], "sat_count drifted after {:?}", m);
                for j in 0..16u64 {
                    prop_assert_eq!(
                        mgr.eval(f, &assignment(seed, j, w)),
                        evals[i][j as usize],
                        "eval drifted after {:?}", m
                    );
                }
            }
        }

        // The canonical point sets — and hence the implicit round-trip —
        // are untouched by any mutation sequence, and the batch call's
        // shared memo lands on the same sets as one call per function.
        let batch = implicit_of(&mgr, &stack, &mut pool);
        prop_assert_eq!(&batch, &sets, "batch translation drifted");
        for (i, &f) in stack.iter().enumerate() {
            let single = implicit_of(&mgr, &[f], &mut pool);
            prop_assert_eq!(&single, &[sets[i]], "implicit cover drifted");
            let map: Vec<usize> = (0..w).collect();
            let back = mgr.from_implicit(&pool, sets[i], &map);
            prop_assert_eq!(back, f, "round-trip landed on a different function");
        }
        for &f in &stack {
            mgr.unprotect(f);
        }
    }

    #[test]
    fn rebuilding_after_mutations_is_canonical(
        w in 3usize..8,
        ops in vec(op(), 1..16),
        mutations in vec(mutation(), 1..6),
    ) {
        // Hash-consing must stay canonical after swaps/sifts/collections:
        // replaying the same program in the mutated manager lands on the
        // exact same handles.
        let mut mgr = BddManager::new(w);
        let stack = run_program(&mut mgr, &ops);
        for &f in &stack {
            mgr.protect(f);
        }
        for m in &mutations {
            match m {
                Mutation::Swap(l) => mgr.swap_levels(*l as usize % (w - 1)),
                Mutation::Sift => {
                    mgr.reorder_sift(BddManager::DEFAULT_MAX_GROWTH);
                }
                Mutation::Gc => {
                    mgr.gc();
                }
            }
        }
        let replayed = run_program(&mut mgr, &ops);
        prop_assert_eq!(&stack, &replayed, "replay diverged from the original handles");
        mgr.assert_invariants();
        for &f in &stack {
            mgr.unprotect(f);
        }
    }
}
