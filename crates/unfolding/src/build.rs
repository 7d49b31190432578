//! Construction of the finite STG-unfolding segment.
//!
//! The segment is a prefix of the (possibly infinite) occurrence-net
//! unfolding of the STG's underlying net, truncated at *cutoff* events —
//! events whose firing reaches a marking already represented by a smaller
//! configuration (McMillan 1993, refined by Esparza/Römer/Vogler). The
//! STG-specific part (the paper, §3.1) assigns to every event the binary
//! code of its local configuration and verifies consistency and safeness on
//! the fly.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};

use si_cubes::par::par_map;
use si_petri::{BitSet, Marking, PlaceId, TransitionId};
use si_stg::{BinaryCode, SignalTransition, Stg};

use crate::comat::CoMatrix;
use crate::error::UnfoldError;
use crate::ids::{ConditionId, EventId};

/// Estimated number of co-membership probes below which extension search
/// runs inline: segment construction is dominated by tiny searches (a few
/// partner conditions per place), and spawning scoped workers for those
/// costs more than the search itself.
const PAR_EXTENSION_THRESHOLD: u64 = 4096;

/// The adequate order used to declare cutoffs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdequateOrder {
    /// McMillan's original order: `⌈e'⌉ ≺ ⌈e⌉` iff `|⌈e'⌉| < |⌈e⌉|`.
    #[default]
    McMillan,
    /// Size first, then lexicographic comparison of the sorted transition
    /// multiset (Parikh vector) — a finer order that declares more cutoffs
    /// and produces smaller segments (Esparza/Römer/Vogler style).
    ErvLex,
}

/// Options controlling segment construction.
#[derive(Debug, Clone)]
pub struct UnfoldingOptions {
    /// Cutoff order.
    pub order: AdequateOrder,
    /// Maximum number of events the segment may store, `⊥` included — the
    /// same "max stored" semantics as explicit reachability's state budget.
    pub event_budget: usize,
    /// Worker threads for possible-extension enumeration (`None` = one per
    /// available CPU). Output is byte-identical at any worker count; small
    /// searches run inline regardless.
    pub workers: Option<usize>,
}

impl Default for UnfoldingOptions {
    fn default() -> Self {
        UnfoldingOptions {
            order: AdequateOrder::McMillan,
            event_budget: 200_000,
            workers: None,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct EventData {
    /// Originating STG transition; `None` only for `⊥`.
    pub transition: Option<TransitionId>,
    pub label: Option<SignalTransition>,
    pub preset: Vec<ConditionId>,
    pub postset: Vec<ConditionId>,
    /// `⌈e⌉` as a bit set of event ids (includes `e` itself, excludes `⊥`).
    pub causes: BitSet,
    /// `|⌈e⌉|`.
    pub size: usize,
    /// Per-signal toggle parity of `⌈e⌉`.
    pub parity: BinaryCode,
    /// `Cut(⌈e⌉)`: the conditions marked after firing `⌈e⌉` (sorted).
    pub cut: Vec<ConditionId>,
    /// `Mark(⌈e⌉)`: the final state of the local configuration.
    pub marking: Marking,
    pub cutoff: bool,
    /// Sorted transition multiset of `⌈e⌉`, for the ErvLex order.
    pub parikh: Vec<u32>,
}

#[derive(Debug, Clone)]
pub(crate) struct ConditionData {
    pub place: PlaceId,
    pub producer: EventId,
    pub consumers: Vec<EventId>,
    /// Produced by a cutoff event: excluded from extension search.
    pub frozen: bool,
}

/// A finite STG-unfolding segment `G' = ⟨T', P', F', L'⟩`.
///
/// # Examples
///
/// ```
/// use si_stg::suite::paper_fig1;
/// use si_unfolding::{StgUnfolding, UnfoldingOptions};
///
/// # fn main() -> Result<(), si_unfolding::UnfoldError> {
/// let stg = paper_fig1();
/// let unf = StgUnfolding::build(&stg, &UnfoldingOptions::default())?;
/// // One instance of each of the 8 STG transitions, plus ⊥.
/// assert_eq!(unf.event_count(), 9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StgUnfolding {
    pub(crate) events: Vec<EventData>,
    pub(crate) conditions: Vec<ConditionData>,
    /// Packed symmetric concurrency relation over condition indices.
    pub(crate) co: CoMatrix,
    pub(crate) initial_code: BinaryCode,
    pub(crate) codes: Vec<BinaryCode>,
    pub(crate) signal_count: usize,
}

/// A candidate event (possible extension) waiting in the priority queue.
struct Candidate {
    transition: TransitionId,
    preset: Vec<ConditionId>,
    causes: BitSet,
    size: usize,
    parikh: Vec<u32>,
}

impl Candidate {
    fn key(&self) -> (usize, &[u32], &[ConditionId]) {
        (self.size, &self.parikh, &self.preset)
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key() && self.transition == other.transition
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want smallest key first.
        other
            .key()
            .cmp(&self.key())
            .then_with(|| other.transition.cmp(&self.transition))
    }
}

impl StgUnfolding {
    /// Builds the STG-unfolding segment of `stg`.
    ///
    /// If the STG declares an initial code it is used (and checked);
    /// otherwise the initial values are inferred from the first change of
    /// each signal, exactly as the `first(a)` rule in the paper prescribes.
    ///
    /// # Errors
    ///
    /// * [`UnfoldError::DummyTransitions`] for unlabelled transitions;
    /// * [`UnfoldError::Inconsistent`] when no consistent state assignment
    ///   exists (wrong polarity alternation, concurrent instances of one
    ///   signal, or code mismatch between equal markings);
    /// * [`UnfoldError::Unsafe`] when two instances of a place can coexist;
    /// * [`UnfoldError::BudgetExceeded`] when storing one more event would
    ///   exceed `options.event_budget` (`⊥` counts, exactly like the
    ///   max-states-stored bound of explicit reachability).
    pub fn build(stg: &Stg, options: &UnfoldingOptions) -> Result<Self, UnfoldError> {
        if !stg.is_fully_labelled() {
            return Err(UnfoldError::DummyTransitions);
        }
        if options.event_budget == 0 {
            // Even ⊥ does not fit; mirror `explore()`'s budget-0 behaviour
            // instead of returning a partial segment.
            return Err(UnfoldError::BudgetExceeded {
                budget: 0,
                events: 0,
                next_transition: "⊥".to_owned(),
            });
        }
        let net = stg.net();
        for t in net.transitions() {
            let mut places: Vec<PlaceId> = net.preset(t).to_vec();
            places.sort();
            if places.windows(2).any(|w| w[0] == w[1]) {
                return Err(UnfoldError::DuplicatePresetPlace {
                    transition: stg.transition_label_string(t),
                });
            }
        }
        let n = stg.signal_count();
        let mut v0: Vec<Option<bool>> = match stg.initial_code() {
            Some(code) => code.iter().map(|(_, v)| Some(v)).collect(),
            None => vec![None; n],
        };

        let mut builder = Builder {
            stg,
            events: Vec::new(),
            conditions: Vec::new(),
            co: CoMatrix::new(),
            by_place: vec![Vec::new(); net.place_count()],
            queue: BinaryHeap::new(),
            seen: HashSet::new(),
            reps: HashMap::new(),
            order: options.order,
            budget: options.event_budget,
            workers: options.workers,
            v0: &mut v0,
        };
        builder.add_root()?;
        builder.run()?;

        let Builder {
            events,
            conditions,
            co,
            ..
        } = builder;

        let mut initial_code = BinaryCode::zeros(n);
        for (i, bit) in v0.iter().enumerate() {
            if bit.unwrap_or(false) {
                initial_code.set(si_stg::SignalId(i as u32), true);
            }
        }
        let codes = events
            .iter()
            .map(|e| {
                let mut c = initial_code.clone();
                for (sig, bit) in e.parity.iter() {
                    if bit {
                        c.toggle(sig);
                    }
                }
                c
            })
            .collect();

        Ok(StgUnfolding {
            events,
            conditions,
            co,
            initial_code,
            codes,
            signal_count: n,
        })
    }
}

struct Builder<'a> {
    stg: &'a Stg,
    events: Vec<EventData>,
    conditions: Vec<ConditionData>,
    /// Packed symmetric concurrency relation, one row per condition, kept
    /// in lockstep with `conditions`.
    co: CoMatrix,
    /// Non-frozen conditions per original place, for extension search.
    by_place: Vec<Vec<ConditionId>>,
    queue: BinaryHeap<Candidate>,
    /// Dedupe set of (transition, sorted preset).
    seen: HashSet<(TransitionId, Vec<ConditionId>)>,
    /// Best (minimal-order) representative per final marking.
    reps: HashMap<Marking, EventId>,
    order: AdequateOrder,
    budget: usize,
    workers: Option<usize>,
    v0: &'a mut Vec<Option<bool>>,
}

impl Builder<'_> {
    fn add_root(&mut self) -> Result<(), UnfoldError> {
        let n = self.stg.signal_count();
        let root = EventData {
            transition: None,
            label: None,
            preset: Vec::new(),
            postset: Vec::new(),
            causes: BitSet::new(),
            size: 0,
            parity: BinaryCode::zeros(n),
            cut: Vec::new(),
            marking: self.stg.net().initial_marking().clone(),
            cutoff: false,
            parikh: Vec::new(),
        };
        self.events.push(root);
        let initial_places: Vec<PlaceId> = self.stg.net().initial_marking().iter().collect();
        let mut post = Vec::new();
        for &p in &initial_places {
            post.push(self.new_condition(p, EventId::ROOT, false)?);
        }
        // Initial conditions are pairwise concurrent.
        for i in 0..post.len() {
            for j in i + 1..post.len() {
                self.link_co(post[i], post[j]);
            }
        }
        self.events[0].postset = post.clone();
        self.events[0].cut = post.clone();
        self.reps
            .insert(self.stg.net().initial_marking().clone(), EventId::ROOT);
        for (idx, &b) in post.iter().enumerate() {
            self.find_extensions(b, &post[..idx]);
        }
        Ok(())
    }

    fn run(&mut self) -> Result<(), UnfoldError> {
        while let Some(cand) = self.queue.pop() {
            // Exact "max events stored" semantics: fail before storing the
            // event that would push the count past the budget, so a
            // successful build always satisfies `event_count() <= budget`.
            if self.events.len() >= self.budget {
                return Err(UnfoldError::BudgetExceeded {
                    budget: self.budget,
                    events: self.events.len(),
                    next_transition: self.stg.transition_label_string(cand.transition),
                });
            }
            self.add_event(cand)?;
        }
        Ok(())
    }

    fn new_condition(
        &mut self,
        place: PlaceId,
        producer: EventId,
        frozen: bool,
    ) -> Result<ConditionId, UnfoldError> {
        let id = ConditionId(self.conditions.len() as u32);
        self.conditions.push(ConditionData {
            place,
            producer,
            consumers: Vec::new(),
            frozen,
        });
        self.co.push_row();
        if !frozen {
            self.by_place[place.index()].push(id);
        }
        Ok(id)
    }

    fn link_co(&mut self, a: ConditionId, b: ConditionId) {
        self.co.set_pair(a.index(), b.index());
    }

    /// Creates the event for a popped candidate, decides cutoff status, adds
    /// its postset and queues new extensions.
    fn add_event(&mut self, cand: Candidate) -> Result<(), UnfoldError> {
        let stg = self.stg;
        let net = stg.net();
        let label = match stg.label(cand.transition) {
            Some(label) => label,
            // Dummy transitions were rejected in `unfold` before any
            // candidate was queued.
            None => unreachable!("unlabelled transition queued as a candidate"),
        };
        let id = EventId(self.events.len() as u32);

        // Parity of ⌈e⌉ \ {e}: toggle per event in causes.
        let mut parity = BinaryCode::zeros(self.v0.len());
        for eidx in cand.causes.iter() {
            if let Some(l) = self.events[eidx].label {
                parity.toggle(l.signal);
            }
        }
        // Consistency: the signal's value before e must match the polarity.
        let pre_parity = parity.get(label.signal);
        let required_v0 = pre_parity ^ label.polarity.source_value();
        match self.v0[label.signal.index()] {
            None => self.v0[label.signal.index()] = Some(required_v0),
            Some(v) if v != required_v0 => {
                return Err(UnfoldError::Inconsistent {
                    signal: stg.signal_name(label.signal).to_owned(),
                    transition: stg.transition_label_string(cand.transition),
                    detail: format!(
                        "the instance fires with the signal already at {}",
                        u8::from(label.polarity.target_value()),
                    ),
                });
            }
            Some(_) => {}
        }
        parity.toggle(label.signal);

        let mut causes = cand.causes.clone();
        causes.insert(id.index());
        let size = cand.size;

        // Cut(⌈e⌉): postsets of {⊥} ∪ ⌈e⌉ minus presets of ⌈e⌉.
        let mut in_cut: BitSet = BitSet::new();
        for &b in &self.events[0].postset {
            in_cut.insert(b.index());
        }
        for eidx in causes.iter() {
            if eidx == id.index() {
                continue;
            }
            for &b in &self.events[eidx].postset {
                in_cut.insert(b.index());
            }
        }
        for eidx in causes.iter() {
            if eidx == id.index() {
                continue;
            }
            for &b in &self.events[eidx].preset {
                in_cut.remove(b.index());
            }
        }
        for &b in &cand.preset {
            in_cut.remove(b.index());
        }
        // Postset conditions are appended below once created.

        let mut marking = Marking::new();
        for bidx in in_cut.iter() {
            let p = self.conditions[bidx].place;
            if !marking.insert(p) {
                return Err(UnfoldError::Unsafe {
                    place: net.place_name(p).to_owned(),
                });
            }
        }
        for &p in net.postset(cand.transition) {
            if !marking.insert(p) {
                return Err(UnfoldError::Unsafe {
                    place: net.place_name(p).to_owned(),
                });
            }
        }

        // Cutoff decision plus the marking/code agreement check.
        let cutoff = match self.reps.get(&marking) {
            Some(&rep) => {
                let rep_ev = &self.events[rep.index()];
                let mut rep_code_matches = true;
                for (sig, bit) in rep_ev.parity.iter() {
                    if parity.get(sig) != bit {
                        rep_code_matches = false;
                        break;
                    }
                }
                if !rep_code_matches {
                    return Err(UnfoldError::Inconsistent {
                        signal: stg.signal_name(label.signal).to_owned(),
                        transition: stg.transition_label_string(cand.transition),
                        detail: "two configurations reach the same marking with \
                                 different binary codes"
                            .to_owned(),
                    });
                }
                match self.order {
                    AdequateOrder::McMillan => rep_ev.size < size,
                    AdequateOrder::ErvLex => (rep_ev.size, &rep_ev.parikh) < (size, &cand.parikh),
                }
            }
            None => false,
        };

        // Register the event.
        for &b in &cand.preset {
            self.conditions[b.index()].consumers.push(id);
        }
        let mut cut: Vec<ConditionId> = in_cut.iter().map(|i| ConditionId(i as u32)).collect();
        self.events.push(EventData {
            transition: Some(cand.transition),
            label: Some(label),
            preset: cand.preset.clone(),
            postset: Vec::new(),
            causes,
            size,
            parity,
            cut: Vec::new(),
            marking: marking.clone(),
            cutoff,
            parikh: cand.parikh,
        });
        if !cutoff {
            self.reps.entry(marking).or_insert(id);
        }

        // Create the postset conditions and their concurrency rows:
        // co(e) = ⋂_{b ∈ •e} co(b); co(b_new) = co(e) ∪ siblings. The
        // intersection is a word-wise AND over packed matrix rows; preset
        // members drop out on their own (no row contains its own index).
        let preset_rows: Vec<usize> = cand.preset.iter().map(|b| b.index()).collect();
        let co_event: Vec<usize> = self.co.intersect_rows(&preset_rows);
        let mut post = Vec::new();
        for &p in net.postset(cand.transition) {
            let b = self.new_condition(p, id, cutoff)?;
            for &other in &co_event {
                if self.conditions[other].place == p {
                    return Err(UnfoldError::Unsafe {
                        place: net.place_name(p).to_owned(),
                    });
                }
                self.link_co(b, ConditionId(other as u32));
            }
            for &sib in &post {
                self.link_co(b, sib);
            }
            post.push(b);
        }
        cut.extend(&post);
        cut.sort();
        {
            let ev = &mut self.events[id.index()];
            ev.postset = post.clone();
            ev.cut = cut;
        }

        // Auto-concurrency would mean two unordered, conflict-free instances
        // of one signal — an inconsistency the parity check cannot see.
        for other in 0..id.index() {
            let oe = &self.events[other];
            let Some(ol) = oe.label else { continue };
            if ol.signal != label.signal {
                continue;
            }
            if self.events[id.index()].causes.contains(other) {
                continue; // ordered
            }
            let concurrent = self.events[id.index()].postset.iter().any(|&b| {
                oe.postset
                    .iter()
                    .any(|&b2| self.co.get(b.index(), b2.index()))
            });
            if concurrent {
                return Err(UnfoldError::Inconsistent {
                    signal: stg.signal_name(label.signal).to_owned(),
                    transition: stg.transition_label_string(cand.transition),
                    detail: "two concurrent instances of the same signal".to_owned(),
                });
            }
        }

        if !cutoff {
            let post = self.events[id.index()].postset.clone();
            for (idx, &b) in post.iter().enumerate() {
                self.find_extensions(b, &post[..idx]);
            }
        }
        Ok(())
    }

    /// Queues every possible extension whose preset contains `b_new` and
    /// otherwise only conditions with smaller ids (so each co-set is
    /// generated exactly once) — `earlier_siblings` are same-postset
    /// conditions created before `b_new` that are allowed as partners.
    ///
    /// Enumeration over the consuming transitions is a pure read of the
    /// segment, so when the estimated search is large enough it fans out on
    /// the shared scoped worker pool; results are merged back in transition
    /// order, making the queued candidate set — and therefore the whole
    /// segment — byte-identical at any worker count.
    fn find_extensions(&mut self, b_new: ConditionId, earlier_siblings: &[ConditionId]) {
        let place = self.conditions[b_new.index()].place;
        let net = self.stg.net();
        let transitions: Vec<TransitionId> = net.place_postset(place).to_vec();
        if transitions.is_empty() {
            return;
        }
        // Upper-bound the probe count: the product of partner-pool sizes
        // per preset place, summed over transitions.
        let estimate: u64 = transitions
            .iter()
            .map(|&t| {
                net.preset(t)
                    .iter()
                    .map(|&p| {
                        if p == place {
                            1
                        } else {
                            self.by_place[p.index()].len().max(1) as u64
                        }
                    })
                    .fold(1u64, u64::saturating_mul)
            })
            .fold(0u64, u64::saturating_add);
        let presets: Vec<Vec<Vec<ConditionId>>> =
            if transitions.len() > 1 && estimate >= PAR_EXTENSION_THRESHOLD {
                let this: &Self = self;
                par_map(&transitions, self.workers, |_, &t| {
                    this.extension_presets(t, b_new, earlier_siblings)
                })
            } else {
                transitions
                    .iter()
                    .map(|&t| self.extension_presets(t, b_new, earlier_siblings))
                    .collect()
            };
        for (&t, found) in transitions.iter().zip(&presets) {
            for preset in found {
                self.push_candidate(t, preset.clone());
            }
        }
    }

    /// Collects every co-set of `t`'s preset places that contains `b_new`.
    /// Pure (no mutation), so it can run on a worker thread.
    fn extension_presets(
        &self,
        t: TransitionId,
        b_new: ConditionId,
        earlier_siblings: &[ConditionId],
    ) -> Vec<Vec<ConditionId>> {
        let preset_places: Vec<PlaceId> = self.stg.net().preset(t).to_vec();
        let mut chosen: Vec<ConditionId> = Vec::with_capacity(preset_places.len());
        let mut out = Vec::new();
        self.assemble(
            &preset_places,
            0,
            b_new,
            earlier_siblings,
            &mut chosen,
            &mut out,
        );
        out
    }

    fn assemble(
        &self,
        places: &[PlaceId],
        idx: usize,
        b_new: ConditionId,
        earlier_siblings: &[ConditionId],
        chosen: &mut Vec<ConditionId>,
        out: &mut Vec<Vec<ConditionId>>,
    ) {
        if idx == places.len() {
            if chosen.contains(&b_new) {
                out.push(chosen.clone());
            }
            return;
        }
        let p = places[idx];
        let candidates: Vec<ConditionId> = if p == self.conditions[b_new.index()].place {
            vec![b_new]
        } else {
            self.by_place[p.index()]
                .iter()
                .copied()
                .filter(|&b| {
                    (b < b_new || earlier_siblings.contains(&b))
                        && self.co.get(b_new.index(), b.index())
                })
                .collect()
        };
        for b in candidates {
            if chosen
                .iter()
                .all(|&c| c == b || self.co.get(c.index(), b.index()))
            {
                chosen.push(b);
                self.assemble(places, idx + 1, b_new, earlier_siblings, chosen, out);
                chosen.pop();
            }
        }
    }

    fn push_candidate(&mut self, t: TransitionId, mut preset: Vec<ConditionId>) {
        preset.sort();
        preset.dedup();
        if !self.seen.insert((t, preset.clone())) {
            return;
        }
        let mut causes = BitSet::new();
        for &b in &preset {
            let prod = self.conditions[b.index()].producer;
            if !prod.is_root() {
                causes.union_with(&self.events[prod.index()].causes);
            }
        }
        let size = causes.len() + 1;
        let parikh = if self.order == AdequateOrder::ErvLex {
            let mut v: Vec<u32> = causes
                .iter()
                .filter_map(|e| self.events[e].transition.map(|t| t.0))
                .collect();
            v.push(t.0);
            v.sort_unstable();
            v
        } else {
            Vec::new()
        };
        self.queue.push(Candidate {
            transition: t,
            preset,
            causes,
            size,
            parikh,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_stg::generators::{independent_cycles, muller_pipeline, sequencer};
    use si_stg::suite::paper_fig1;
    use si_stg::{Polarity, StgBuilder};

    #[test]
    fn fig1_segment_has_one_instance_per_transition() {
        let stg = paper_fig1();
        let unf = StgUnfolding::build(&stg, &UnfoldingOptions::default()).expect("builds");
        assert_eq!(unf.event_count(), 9); // ⊥ + 8 transitions

        // Two cutoffs: -a re-reaches {p7,p8} (first produced by the smaller
        // +b' configuration) and -b returns to the initial marking.
        let mut cutoff_labels: Vec<String> = unf
            .events()
            .filter(|&e| unf.is_cutoff(e))
            .map(|e| {
                let l = unf.label(e).expect("labelled");
                format!("{}{}", stg.signal_name(l.signal), l.polarity)
            })
            .collect();
        cutoff_labels.sort();
        assert_eq!(cutoff_labels, vec!["a-", "b-"]);
        let _ = Polarity::Fall;
    }

    #[test]
    fn sequencer_unfolds_linearly() {
        for n in [2, 5, 9] {
            let stg = sequencer(n);
            let unf = StgUnfolding::build(&stg, &UnfoldingOptions::default()).expect("builds");
            // One instance per transition + ⊥ + the cutoff that closes the
            // cycle is one of them.
            assert_eq!(unf.event_count(), 2 * n + 1);
        }
    }

    #[test]
    fn independent_cycles_unfold_linearly_while_sg_explodes() {
        let stg = independent_cycles(12); // SG would have 4096 states
        let unf = StgUnfolding::build(&stg, &UnfoldingOptions::default()).expect("builds");
        assert!(unf.event_count() <= 1 + 2 * 12);
    }

    #[test]
    fn muller_pipeline_unfolds_polynomially() {
        let small = StgUnfolding::build(&muller_pipeline(3), &UnfoldingOptions::default())
            .expect("builds")
            .event_count();
        let big = StgUnfolding::build(&muller_pipeline(6), &UnfoldingOptions::default())
            .expect("builds")
            .event_count();
        // Far from the exponential SG growth: doubling stages should grow
        // the segment by a small polynomial factor.
        assert!(big < small * 8, "small={small} big={big}");
    }

    #[test]
    fn initial_code_inferred_from_first_changes() {
        // b starts at 1 (first change is b-), a at 0.
        let mut b = StgBuilder::new();
        let sa = b.input("a");
        let sb = b.output("b");
        let a_p = b.rise(sa);
        let b_m = b.fall(sb);
        let a_m = b.fall(sa);
        let b_p = b.rise(sb);
        b.arc_tt(a_p, b_m);
        b.arc_tt(b_m, a_m);
        b.arc_tt(a_m, b_p);
        let back = b.arc_tt(b_p, a_p);
        b.mark(back);
        let stg = b.build().expect("valid");
        assert!(stg.initial_code().is_none());
        let unf = StgUnfolding::build(&stg, &UnfoldingOptions::default()).expect("builds");
        assert_eq!(unf.initial_code().to_string(), "01");
    }

    #[test]
    fn inconsistent_double_rise_detected() {
        let mut b = StgBuilder::new();
        let a = b.input("a");
        let t1 = b.transition(a, Polarity::Rise);
        let t2 = b.transition(a, Polarity::Rise);
        b.arc_tt(t1, t2);
        let back = b.arc_tt(t2, t1);
        b.mark(back);
        let stg = b.build().expect("structurally fine");
        assert!(matches!(
            StgUnfolding::build(&stg, &UnfoldingOptions::default()),
            Err(UnfoldError::Inconsistent { .. })
        ));
    }

    #[test]
    fn concurrent_same_signal_instances_detected() {
        // Two concurrent branches both fire a+.
        let mut b = StgBuilder::new();
        let x = b.input("x");
        let a = b.input("a");
        let x_p = b.rise(x);
        let a1 = b.transition(a, Polarity::Rise);
        let a2 = b.transition(a, Polarity::Rise);
        let x_m = b.fall(x);
        b.arc_tt(x_p, a1);
        b.arc_tt(x_p, a2);
        b.arc_tt(a1, x_m);
        b.arc_tt(a2, x_m);
        // close the loop loosely (consistency of x alone)
        let am1 = b.fall(a);
        let am2 = b.fall(a);
        b.arc_tt(x_m, am1);
        b.arc_tt(am1, am2);
        let back = b.arc_tt(am2, x_p);
        b.mark(back);
        let stg = b.build().expect("structurally fine");
        assert!(matches!(
            StgUnfolding::build(&stg, &UnfoldingOptions::default()),
            Err(UnfoldError::Inconsistent { .. })
        ));
    }

    #[test]
    fn unsafe_net_detected() {
        // Producing into a place that is still marked.
        let mut b = StgBuilder::new();
        let x = b.input("x");
        let y = b.input("y");
        let x_p = b.rise(x);
        let y_p = b.rise(y);
        let shared = b.place("shared");
        b.arc_tp(x_p, shared);
        b.arc_tp(y_p, shared);
        let start1 = b.place("s1");
        let start2 = b.place("s2");
        b.arc_pt(start1, x_p);
        b.arc_pt(start2, y_p);
        // consume shared eventually
        let x_m = b.fall(x);
        b.arc_pt(shared, x_m);
        b.mark(start1);
        b.mark(start2);
        let stg = b.build().expect("structurally fine");
        assert!(matches!(
            StgUnfolding::build(&stg, &UnfoldingOptions::default()),
            Err(UnfoldError::Unsafe { .. })
        ));
    }

    #[test]
    fn budget_is_enforced() {
        let stg = muller_pipeline(6);
        assert!(matches!(
            StgUnfolding::build(
                &stg,
                &UnfoldingOptions {
                    event_budget: 3,
                    ..Default::default()
                }
            ),
            Err(UnfoldError::BudgetExceeded {
                budget: 3,
                events: 3,
                ..
            })
        ));
    }

    #[test]
    fn budget_boundary_is_exact() {
        // "Max events stored" semantics, mirroring `explore()`: a budget of
        // exactly the final event count succeeds, one less fails, zero never
        // returns a partial segment.
        let stg = paper_fig1();
        let full = StgUnfolding::build(&stg, &UnfoldingOptions::default())
            .expect("builds")
            .event_count();
        let exactly = StgUnfolding::build(
            &stg,
            &UnfoldingOptions {
                event_budget: full,
                ..Default::default()
            },
        )
        .expect("exact budget fits");
        assert_eq!(exactly.event_count(), full);
        assert!(matches!(
            StgUnfolding::build(
                &stg,
                &UnfoldingOptions {
                    event_budget: full - 1,
                    ..Default::default()
                }
            ),
            Err(UnfoldError::BudgetExceeded { events, .. }) if events == full - 1
        ));
        assert!(matches!(
            StgUnfolding::build(
                &stg,
                &UnfoldingOptions {
                    event_budget: 0,
                    ..Default::default()
                }
            ),
            Err(UnfoldError::BudgetExceeded {
                budget: 0,
                events: 0,
                ..
            })
        ));
    }

    #[test]
    fn worker_count_does_not_change_the_segment() {
        for stg in [paper_fig1(), muller_pipeline(6)] {
            let base = StgUnfolding::build(
                &stg,
                &UnfoldingOptions {
                    workers: Some(1),
                    ..Default::default()
                },
            )
            .expect("builds");
            for workers in [None, Some(2), Some(4)] {
                let other = StgUnfolding::build(
                    &stg,
                    &UnfoldingOptions {
                        workers,
                        ..Default::default()
                    },
                )
                .expect("builds");
                assert_eq!(other.event_count(), base.event_count());
                for (a, b) in base.events().zip(other.events()) {
                    assert_eq!(base.transition(a), other.transition(b));
                    assert_eq!(base.preset(a), other.preset(b));
                    assert_eq!(base.is_cutoff(a), other.is_cutoff(b));
                    assert_eq!(base.code(a), other.code(b));
                }
            }
        }
    }

    #[test]
    fn dummies_rejected() {
        let mut b = StgBuilder::new();
        let a = b.input("a");
        let t1 = b.rise(a);
        let d = b.dummy("eps");
        let t2 = b.fall(a);
        b.arc_tt(t1, d);
        b.arc_tt(d, t2);
        let back = b.arc_tt(t2, t1);
        b.mark(back);
        let stg = b.build().expect("builds");
        assert!(matches!(
            StgUnfolding::build(&stg, &UnfoldingOptions::default()),
            Err(UnfoldError::DummyTransitions)
        ));
    }

    #[test]
    fn erv_order_never_bigger_than_mcmillan() {
        for n in [2, 4] {
            let stg = muller_pipeline(n);
            let mc = StgUnfolding::build(&stg, &UnfoldingOptions::default())
                .expect("builds")
                .event_count();
            let erv = StgUnfolding::build(
                &stg,
                &UnfoldingOptions {
                    order: AdequateOrder::ErvLex,
                    ..Default::default()
                },
            )
            .expect("builds")
            .event_count();
            assert!(erv <= mc, "erv={erv} mc={mc}");
        }
    }
}
