//! Ablation D: the two-level minimiser behind `EspTim` — the Espresso-style
//! heuristic on explicit minterm covers, the same heuristic driven by the
//! *implicit* cover representation (the SG baseline's only path;
//! byte-identical covers, so only the time column moves), and exact Quine–McCluskey minimisation (the component the paper
//! holds responsible for the second exponent of SG-based tools). Reports
//! literal counts and time for all three on every suite benchmark's exact
//! on/off-sets.
//!
//! The cover-extraction front end (BDD-native ISOP vs disjoint-cube
//! translation, `--extract` on `synth`) is out of scope here and changes
//! nothing below: both front ends collapse to the same canonical point
//! sets before any minimiser runs, so the literal columns — and in
//! particular the `>budget` verdicts in the QM column, which are charged
//! against those point sets — are identical under either.
//!
//! Run with: `cargo run -p si-bench --release --bin ablation_minimizers`

use std::time::Instant;

use si_bench::secs;
use si_cubes::{minimize, minimize_exact, minimize_implicit, QmBudget};
use si_stategraph::{on_off_sets, on_off_sets_implicit, StateGraph};
use si_stg::suite::synthesisable;

fn main() {
    println!(
        "{:<24} {:>5} | {:>9} {:>7} | {:>9} {:>7} | {:>9} {:>7}",
        "Benchmark", "Sigs", "EsprTim", "EsprLit", "ImplTim", "ImplLit", "QmTim", "QmLit"
    );
    println!("{}", "-".repeat(96));
    for stg in synthesisable() {
        let sg = match StateGraph::build(&stg, 500_000) {
            Ok(sg) => sg,
            Err(_) => continue,
        };
        let mut espresso_lits = 0usize;
        let mut implicit_lits = 0usize;
        let mut qm_lits = 0usize;
        let mut espresso_time = 0.0f64;
        let mut implicit_time = 0.0f64;
        let mut qm_time = 0.0f64;
        let mut qm_gave_up = false;
        for signal in stg.implementable_signals() {
            let sets = on_off_sets(&stg, &sg, signal);
            let start = Instant::now();
            let h = minimize(&sets.on, &sets.off);
            espresso_time += start.elapsed().as_secs_f64();
            espresso_lits += h.literal_count();

            // The implicit path re-derives the sets too: its win is never
            // materialising one cube per state in the first place.
            let start = Instant::now();
            let mut implicit = on_off_sets_implicit(&stg, &sg, signal);
            let (on, off) = (implicit.on(), implicit.off());
            let i = minimize_implicit(implicit.pool_mut(), on, off);
            implicit_time += start.elapsed().as_secs_f64();
            implicit_lits += i.literal_count();
            assert_eq!(
                h.cubes(),
                i.cubes(),
                "implicit and explicit minimisation diverged on {}",
                stg.name()
            );

            let start = Instant::now();
            match minimize_exact(&sets.on, &sets.off, &QmBudget::default()) {
                Some(e) => qm_lits += e.literal_count(),
                None => qm_gave_up = true,
            }
            qm_time += start.elapsed().as_secs_f64();
        }
        println!(
            "{:<24} {:>5} | {:>9} {:>7} | {:>9} {:>7} | {:>9} {:>7}",
            stg.name(),
            stg.signal_count(),
            secs(std::time::Duration::from_secs_f64(espresso_time)),
            espresso_lits,
            secs(std::time::Duration::from_secs_f64(implicit_time)),
            implicit_lits,
            secs(std::time::Duration::from_secs_f64(qm_time)),
            if qm_gave_up {
                ">budget".to_owned()
            } else {
                qm_lits.to_string()
            },
        );
    }
    println!("\n(Espresso-style and implicit-cover results are byte-identical covers — the");
    println!(" implicit column includes re-deriving the sets and shows what the SG baseline");
    println!(" actually pays now; QM is exact, and its time ratio shows why SG tools that");
    println!(" insist on exact minimisation pay the paper's second exponent.)");
}
