//! Workloads and their seeded job lists.
//!
//! A job is one `.g` specification text; the program under test only ever
//! sees that text. Sizes are drawn from the seed by stratified sampling:
//! each family's size range is split into as many equal strata as the
//! family has jobs, and one size is drawn inside each stratum. The size mix
//! therefore covers the whole range on every seed, while the individual
//! sizes change with it.

use si_stg::generators::{
    counterflow_pipeline, dining_philosophers, muller_pipeline, parallelizer, token_ring,
    wide_arbiter,
};
use si_stg::{write_g, Stg};

/// One benchmark workload: a `synth` invocation applied to a family mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `synth --flow auto` on choice-free specs (routes to unfolding, approx).
    UnfoldMarked,
    /// `synth --flow sg --engine symbolic` with the CLI defaults.
    SymbolicSg,
    /// `synth --flow sg`: explicit engine, implicit covers.
    ExplicitSg,
    /// `synth --flow unfolding --cover exact`.
    UnfoldExact,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 4] = [
        Workload::UnfoldMarked,
        Workload::SymbolicSg,
        Workload::ExplicitSg,
        Workload::UnfoldExact,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::UnfoldMarked => "unfold_marked",
            Workload::SymbolicSg => "symbolic_sg",
            Workload::ExplicitSg => "explicit_sg",
            Workload::UnfoldExact => "unfold_exact",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Untraced rounds every run completes. A job's reported time is its
    /// best over exactly these rounds, so a slower build does not get fewer
    /// samples to take the best of. On the 2-vCPU host the notes describe,
    /// they fill about three quarters of a 25 s run in its slow phases.
    pub fn best_of(self) -> usize {
        match self {
            Workload::UnfoldMarked => 12,
            Workload::SymbolicSg => 4,
            Workload::ExplicitSg => 10,
            Workload::UnfoldExact => 5,
        }
    }

    /// The batch mix: `(family, smallest size, largest size, jobs)` entries;
    /// a family may appear in several entries.
    ///
    /// Every batch holds at least 40 jobs, so the p75 tail has ten jobs
    /// beyond it. Entries whose job count is a multiple of their
    /// size range cover every size equally, so the batch cost does not
    /// swing with the seed; only cheap entries, whose sizes all sit below
    /// the batch median, draw their sizes inside wider strata. Which job
    /// is the median, and which the p75, is then the same on every seed.
    ///
    /// The ranges stay clear of two known hazards: wide arbiters under
    /// unfolding (the concurrency matrix aborts on allocation) and exact
    /// unfolding of long pipelines (runs for minutes, then fails its cut
    /// budget). They also keep each spec's verification within a second or
    /// so.
    pub fn mix(self) -> &'static [(Family, usize, usize, usize)] {
        match self {
            Workload::UnfoldMarked => &[
                (Family::Muller, 10, 16, 14),
                (Family::TokenRing, 8, 14, 14),
                (Family::Counterflow, 3, 8, 6),
                (Family::Parallelizer, 6, 7, 5),
                (Family::TokenRing, 8, 9, 3),
                (Family::Counterflow, 3, 5, 2),
            ],
            Workload::SymbolicSg => &[
                (Family::Muller, 8, 14, 14),
                (Family::Muller, 6, 9, 17),
                (Family::WideArbiter, 8, 11, 8),
                (Family::WideArbiter, 12, 13, 2),
            ],
            Workload::ExplicitSg => &[
                (Family::WideArbiter, 10, 12, 9),
                (Family::TokenRing, 10, 14, 5),
                (Family::Parallelizer, 5, 6, 4),
                (Family::Muller, 10, 13, 8),
                (Family::DiningPhilosophers, 7, 8, 2),
                (Family::DiningPhilosophers, 4, 6, 13),
            ],
            Workload::UnfoldExact => &[
                (Family::Muller, 8, 12, 10),
                (Family::Parallelizer, 4, 6, 3),
                (Family::TokenRing, 8, 13, 6),
                (Family::TokenRing, 8, 12, 10),
                (Family::Counterflow, 7, 8, 2),
                (Family::Counterflow, 3, 6, 9),
            ],
        }
    }
}

/// A specification generator from `si_stg::generators`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    /// `muller_pipeline(n)`.
    Muller,
    /// `token_ring(n)`.
    TokenRing,
    /// `counterflow_pipeline(k)`.
    Counterflow,
    /// `parallelizer(n)`.
    Parallelizer,
    /// `wide_arbiter(n)`.
    WideArbiter,
    /// `dining_philosophers(n)`.
    DiningPhilosophers,
}

impl Family {
    /// Short name used in job names.
    pub fn name(self) -> &'static str {
        match self {
            Family::Muller => "muller_pipeline",
            Family::TokenRing => "token_ring",
            Family::Counterflow => "counterflow_pipeline",
            Family::Parallelizer => "parallelizer",
            Family::WideArbiter => "wide_arbiter",
            Family::DiningPhilosophers => "dining_philosophers",
        }
    }

    /// Builds the specification of this family at `size`.
    pub fn generate(self, size: usize) -> Stg {
        match self {
            Family::Muller => muller_pipeline(size),
            Family::TokenRing => token_ring(size),
            Family::Counterflow => counterflow_pipeline(size),
            Family::Parallelizer => parallelizer(size),
            Family::WideArbiter => wide_arbiter(size),
            Family::DiningPhilosophers => dining_philosophers(size),
        }
    }
}

/// One job of a batch: a family at a size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobSpec {
    /// The generator.
    pub family: Family,
    /// The generator's size argument.
    pub size: usize,
}

impl JobSpec {
    /// `family_size`, e.g. `muller_pipeline_14`.
    pub fn name(&self) -> String {
        format!("{}_{}", self.family.name(), self.size)
    }
}

/// SplitMix64: a small, fixed, dependency-free generator, so a seed means
/// the same job list on every platform and toolchain.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        // The modulo bias is below 2^-50 for the small `n` used here.
        (self.next_u64() % n as u64) as usize
    }
}

/// Draws one entry's sizes: its range split into `count` equal strata, one
/// size drawn inside each.
fn draw(
    rng: &mut SplitMix64,
    (family, lo, hi, count): (Family, usize, usize, usize),
) -> Vec<JobSpec> {
    let span = hi - lo + 1;
    (0..count)
        .map(|k| {
            // Stratum k is [k, k+1) in units of span/count sizes above
            // `lo`; draw one point inside it on a 1/count grid.
            let point = k * span + rng.below(span);
            JobSpec {
                family,
                size: lo + point / count,
            }
        })
        .collect()
}

/// The seeded job list of `workload`: stratified sizes per mix entry, the
/// entries interleaved so consecutive jobs come from different families,
/// and the cycle started at a seeded offset.
pub fn plan(workload: Workload, seed: u64) -> Vec<JobSpec> {
    let mut rng = SplitMix64::new(seed ^ 0x5349_2D53_594E_5448);
    let entries: Vec<Vec<JobSpec>> = workload
        .mix()
        .iter()
        .map(|&entry| draw(&mut rng, entry))
        .collect();
    let longest = entries.iter().map(Vec::len).max().unwrap_or(0);
    let mut jobs: Vec<JobSpec> = (0..longest)
        .flat_map(|k| entries.iter().filter_map(move |e| e.get(k).copied()))
        .collect();
    let start = rng.below(jobs.len().max(1));
    jobs.rotate_left(start);
    jobs
}

/// Renders every job to `.g` text, the only form the program sees.
pub fn render(jobs: &[JobSpec]) -> Vec<String> {
    jobs.iter()
        .map(|j| write_g(&j.family.generate(j.size)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_stategraph::SgSynthesisOptions;
    use si_synthesis::{choose_flow, FlowChoice};

    #[test]
    fn same_seed_gives_the_same_job_list() {
        for w in Workload::ALL {
            assert_eq!(plan(w, 7), plan(w, 7), "{}", w.name());
            assert_eq!(render(&plan(w, 7)), render(&plan(w, 7)), "{}", w.name());
        }
    }

    #[test]
    fn every_batch_keeps_ten_jobs_beyond_the_p75_tail() {
        for w in Workload::ALL {
            let n = plan(w, 1).len();
            assert!(n - (n * 3).div_ceil(4) >= 10, "{}: {n} jobs", w.name());
        }
    }

    #[test]
    fn different_seeds_give_different_job_lists() {
        for w in Workload::ALL {
            let lists: Vec<_> = (0..8).map(|s| plan(w, s)).collect();
            for a in 0..lists.len() {
                for b in a + 1..lists.len() {
                    assert_ne!(lists[a], lists[b], "{}: seeds {a} and {b}", w.name());
                }
            }
        }
    }

    #[test]
    fn sizes_are_stratified_over_each_entry_range() {
        for w in Workload::ALL {
            let total: usize = w.mix().iter().map(|m| m.3).sum();
            assert_eq!(plan(w, 3).len(), total);
            for seed in 0..16 {
                let mut rng = SplitMix64::new(seed);
                for &(family, lo, hi, count) in w.mix() {
                    let jobs = draw(&mut rng, (family, lo, hi, count));
                    assert!(jobs.iter().all(|j| j.family == family));
                    let mut sizes: Vec<usize> = jobs.iter().map(|j| j.size).collect();
                    sizes.sort_unstable();
                    assert_eq!(sizes.len(), count);
                    assert!(sizes.iter().all(|&s| (lo..=hi).contains(&s)));
                    if count % (hi - lo + 1) == 0 {
                        // Exact coverage: every size equally often.
                        let each = count / (hi - lo + 1);
                        for s in lo..=hi {
                            assert_eq!(sizes.iter().filter(|&&x| x == s).count(), each);
                        }
                    }
                    // Stratification: the smallest draw sits in the lowest
                    // stratum and the largest in the highest.
                    let width = (hi - lo + 1).div_ceil(count);
                    assert!(sizes[0] < lo + width, "{}: {sizes:?}", w.name());
                    assert!(sizes[count - 1] + width > hi, "{}: {sizes:?}", w.name());
                }
            }
        }
    }

    #[test]
    fn auto_routes_every_unfold_marked_size_to_unfolding() {
        let budget = SgSynthesisOptions::default().state_budget;
        for &(family, lo, hi, _) in Workload::UnfoldMarked.mix() {
            for size in lo..=hi {
                let decision = choose_flow(&family.generate(size), budget).expect("no refusal");
                assert_eq!(
                    decision.choice,
                    FlowChoice::Unfolding,
                    "{}_{size}: {}",
                    family.name(),
                    decision.reason
                );
            }
        }
    }
}
