//! Slices of the STG-unfolding segment (the paper, §3.3): connected sets of
//! cuts between a min-cut and a set of max-cuts, used to represent the
//! on-set and off-set of a signal without enumerating the state graph.

use si_petri::BitSet;
use si_stg::{Polarity, SignalId, Stg};
use si_unfolding::{ConditionId, EventId, StgUnfolding};

/// A slice representing part of the on-set (or off-set) of one signal.
///
/// The slice is identified by its *entry* (an instance of `+a` for on-set
/// slices, `-a` for off-set slices, or the initial transition `⊥` when the
/// initial value already puts the signal in the set) and bounded by its
/// *exits* — the `next` instances of the opposite change. The member events
/// and conditions are everything that can fire / be marked strictly inside
/// those bounds.
#[derive(Debug, Clone)]
pub struct Slice {
    /// The signal whose on/off-set this slice belongs to.
    pub signal: SignalId,
    /// The stable value of the signal inside the slice (`true` for on-set
    /// slices).
    pub value: bool,
    /// The entry event: an instance of the signal, or `⊥`.
    pub entry: EventId,
    /// The bounding instances of the opposite change (`next(entry)`, or
    /// `first(signal)` for a `⊥` entry).
    pub exits: Vec<EventId>,
    /// Events that can fire inside the slice (excluding entry and exits).
    pub members: BitSet,
    /// Conditions that can be marked inside the slice.
    pub conditions: BitSet,
}

impl Slice {
    /// Builds the slice entered at `entry` for `signal`.
    ///
    /// `value` is the signal's stable value inside the slice; for a real
    /// entry it is the target value of the entry's polarity, for `⊥` it is
    /// the initial value.
    pub fn build(unf: &StgUnfolding, signal: SignalId, value: bool, entry: EventId) -> Slice {
        let exits = if entry.is_root() {
            unf.first_instances(signal)
        } else {
            unf.next_instances(entry)
        };
        let exit_set: BitSet = exits.iter().map(|e| e.index()).collect();

        // Members: events that are not exits, have no exit in their local
        // configuration, and are either concurrent with or causally after
        // the entry (every event qualifies on both counts for ⊥).
        let mut members = BitSet::new();
        for f in unf.events() {
            if f.is_root() || f == entry || exit_set.contains(f.index()) {
                continue;
            }
            if unf.causes(f).iter().any(|c| exit_set.contains(c)) {
                continue;
            }
            let related = if entry.is_root() {
                true
            } else {
                unf.precedes_or_equal(entry, f) || unf.events_co(entry, f)
            };
            if related {
                members.insert(f.index());
            }
        }

        // Conditions: the min-cut plus the postsets of entry and members.
        let mut conditions = BitSet::new();
        let min_cut: Vec<ConditionId> = if entry.is_root() {
            unf.min_stable_cut(EventId::ROOT).to_vec()
        } else {
            unf.min_excitation_cut(entry)
        };
        for b in min_cut {
            conditions.insert(b.index());
        }
        if !entry.is_root() {
            for &b in unf.postset(entry) {
                conditions.insert(b.index());
            }
        }
        for f in members.iter() {
            for &b in unf.postset(EventId(f as u32)) {
                conditions.insert(b.index());
            }
        }

        Slice {
            signal,
            value,
            entry,
            exits,
            members,
            conditions,
        }
    }

    /// The min-cut of the slice: `c_min_e(entry)` for a real entry, the
    /// initial cut for `⊥`.
    pub fn min_cut(&self, unf: &StgUnfolding) -> Vec<ConditionId> {
        if self.entry.is_root() {
            unf.min_stable_cut(EventId::ROOT).to_vec()
        } else {
            unf.min_excitation_cut(self.entry)
        }
    }

    /// Returns `true` if `e` is an exit of this slice.
    pub fn is_exit(&self, e: EventId) -> bool {
        self.exits.contains(&e)
    }

    /// Returns `true` if `e` is a member event of this slice.
    pub fn is_member(&self, e: EventId) -> bool {
        self.members.contains(e.index())
    }

    /// The approximation set `P'_a`: conditions used to approximate the
    /// quiescent part of the slice. Tries the paper's compact choice first —
    /// a mutually non-concurrent "spine" — and falls back to *all*
    /// conditions sequential to the entry, which is always a sound
    /// (over-approximating) choice.
    pub fn approximation_set(&self, unf: &StgUnfolding) -> Vec<ConditionId> {
        let all = self.sequential_conditions(unf);
        if let Some(spine) = self.spine(unf, &all) {
            return spine;
        }
        all
    }

    /// All slice conditions causally at-or-after the entry. For a `⊥` entry
    /// every slice condition qualifies.
    pub fn sequential_conditions(&self, unf: &StgUnfolding) -> Vec<ConditionId> {
        self.conditions
            .iter()
            .map(|i| ConditionId(i as u32))
            .filter(|&b| {
                if self.entry.is_root() {
                    return true;
                }
                unf.event_precedes_condition(self.entry, b)
            })
            .collect()
    }

    /// Attempts to find the paper's mutually non-concurrent approximation
    /// set: a union of causal chains from the entry to each exit such that
    /// every chain condition is consumed (inside the slice) only by the next
    /// chain event — then every in-slice cut after the entry marks exactly
    /// one chain condition, so the chain's MR covers are a complete
    /// approximation. Returns `None` when the structure does not admit one.
    fn spine(&self, unf: &StgUnfolding, candidates: &[ConditionId]) -> Option<Vec<ConditionId>> {
        if self.exits.is_empty() {
            return None;
        }
        let mut spine: Vec<ConditionId> = Vec::new();
        for &exit in &self.exits {
            // Walk backwards from the exit towards the entry; at each step
            // `consumer` is the chain event that consumes the condition we
            // are about to select.
            let mut consumer = exit;
            loop {
                let current = *unf
                    .preset(consumer)
                    .iter()
                    .find(|&&b| candidates.contains(&b))?;
                // Inside the slice the condition may be consumed only by the
                // chain (side consumers would let a cut skip the chain).
                let stealable = unf
                    .consumers(current)
                    .iter()
                    .any(|&c| c != consumer && (self.is_member(c) || self.is_exit(c)));
                if stealable {
                    return None;
                }
                if !spine.contains(&current) {
                    spine.push(current);
                }
                let producer = unf.producer(current);
                if producer == self.entry || producer.is_root() {
                    break;
                }
                if !self.is_member(producer) {
                    return None;
                }
                consumer = producer;
            }
        }
        // Mutual non-concurrency: the paper's requirement on `P'_a`.
        for (i, &a) in spine.iter().enumerate() {
            for &b in &spine[i + 1..] {
                if unf.conditions_co(a, b) {
                    return None;
                }
            }
        }
        spine.sort();
        Some(spine)
    }

    /// A short description for diagnostics, e.g. `slice(+b@e3)`.
    pub fn describe(&self, stg: &Stg, unf: &StgUnfolding) -> String {
        let polarity = if self.value { "+" } else { "-" };
        format!(
            "slice({}{}@{})",
            polarity,
            stg.signal_name(self.signal),
            unf.event_name(stg, self.entry)
        )
    }
}

/// Builds all slices of the given side (`value = true` → on-set) for
/// `signal`: one per instance of the entering polarity, plus the `⊥` slice
/// when the initial value already equals `value`.
pub fn side_slices(unf: &StgUnfolding, signal: SignalId, value: bool) -> Vec<Slice> {
    let entering = if value {
        Polarity::Rise
    } else {
        Polarity::Fall
    };
    let mut slices = Vec::new();
    if unf.initial_code().get(signal) == value {
        slices.push(Slice::build(unf, signal, value, EventId::ROOT));
    }
    for e in unf.instances_of(signal) {
        if unf.label(e).map(|l| l.polarity) == Some(entering) {
            slices.push(Slice::build(unf, signal, value, e));
        }
    }
    slices
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_stg::suite::{paper_fig1, paper_fig4ab};
    use si_unfolding::UnfoldingOptions;

    fn build(stg: &Stg) -> StgUnfolding {
        StgUnfolding::build(stg, &UnfoldingOptions::default()).expect("builds")
    }

    fn event_by_name(stg: &Stg, unf: &StgUnfolding, name: &str) -> EventId {
        unf.events()
            .find(|&e| {
                unf.transition(e)
                    .map(|t| stg.transition_label_string(t) == name)
                    .unwrap_or(false)
            })
            .unwrap_or_else(|| panic!("no event labelled {name}"))
    }

    #[test]
    fn fig1_on_slices_of_b_match_paper() {
        let stg = paper_fig1();
        let unf = build(&stg);
        let sb = stg.signal_by_name("b").expect("b");
        let slices = side_slices(&unf, sb, true);
        // Two +b instances, no ⊥ slice (b starts at 0).
        assert_eq!(slices.len(), 2);
        for s in &slices {
            assert!(!s.entry.is_root());
        }
        // The +b' slice is bounded by its next -b; the +b'' slice is
        // truncated by the -a cutoff (the paper: "the cut reached by such a
        // configuration bounds the slice").
        let mut exit_counts: Vec<usize> = slices.iter().map(|s| s.exits.len()).collect();
        exit_counts.sort();
        assert_eq!(exit_counts, vec![0, 1]);
    }

    #[test]
    fn fig1_off_slices_of_b() {
        let stg = paper_fig1();
        let unf = build(&stg);
        let sb = stg.signal_by_name("b").expect("b");
        let slices = side_slices(&unf, sb, false);
        // ⊥ slice (b starts at 0) plus the -b instance.
        assert_eq!(slices.len(), 2);
        assert!(slices.iter().any(|s| s.entry.is_root()));
    }

    #[test]
    fn fig4_on_slice_of_a_members() {
        let stg = paper_fig4ab();
        let unf = build(&stg);
        let sa = stg.signal_by_name("a").expect("a");
        let slices = side_slices(&unf, sa, true);
        assert_eq!(slices.len(), 1);
        let s = &slices[0];
        // Members: +b, +c, +d, +e, +f, +g (everything between +a and -a).
        assert_eq!(s.members.len(), 6);
        // -a is the single exit.
        assert_eq!(s.exits.len(), 1);
        let exit_label = unf.label(s.exits[0]).expect("labelled");
        assert_eq!(stg.signal_name(exit_label.signal), "a");
    }

    #[test]
    fn fig4_approximation_set_is_the_paper_spine_or_fallback() {
        let stg = paper_fig4ab();
        let unf = build(&stg);
        let sa = stg.signal_by_name("a").expect("a");
        let slices = side_slices(&unf, sa, true);
        let pa = slices[0].approximation_set(&unf);
        // Either the paper's compact chain {p4,p7,p10} (or another branch's
        // equivalent chain — the structure is symmetric) or the sound
        // fallback of all sequential conditions. In both cases every exit
        // preset must be represented.
        assert!(!pa.is_empty());
        let exit = slices[0].exits[0];
        let preset: Vec<ConditionId> = unf.preset(exit).to_vec();
        assert!(
            preset.iter().any(|b| pa.contains(b)),
            "P'_a must touch the exit preset"
        );
    }

    #[test]
    fn slice_min_cut_of_entry() {
        let stg = paper_fig1();
        let unf = build(&stg);
        let sb = stg.signal_by_name("b").expect("b");
        let slices = side_slices(&unf, sb, true);
        // One of the slices is entered at the +b instance consuming p4; its
        // min-cut is {p4}.
        let small = slices
            .iter()
            .find(|s| s.min_cut(&unf).len() == 1)
            .expect("the p4 slice");
        let b = small.min_cut(&unf)[0];
        assert_eq!(stg.net().place_name(unf.place(b)), "p4");
        let _ = event_by_name(&stg, &unf, "b+");
    }

    #[test]
    fn members_exclude_exit_successors() {
        let stg = paper_fig1();
        let unf = build(&stg);
        let sb = stg.signal_by_name("b").expect("b");
        for s in side_slices(&unf, sb, true) {
            for f in s.members.iter() {
                let f = EventId(f as u32);
                // No member may causally follow an exit.
                for &x in &s.exits {
                    assert!(!unf.precedes_or_equal(x, f));
                }
            }
        }
    }
}
