//! Explicit reachability exploration with a state budget.
//!
//! This is the "build the full reachability graph" primitive that SG-based
//! synthesis tools rely on, and whose state explosion the paper's
//! unfolding-based method avoids. It is kept in the kernel crate because both
//! the state-graph substrate and several checks reuse it.

use crate::error::NetError;
use crate::marking::Marking;
use crate::net::{PetriNet, PlaceId, TransitionId};
use crate::rows::RowIndex;

/// The reachability graph of a 1-safe net: all reachable markings plus the
/// labelled successor relation.
///
/// States are numbered in breadth-first discovery order from the initial
/// marking (state 0), and each state's edges are listed in transition-id
/// order. Markings are stored packed, a bit per place, as the rows of one
/// [`RowIndex`]; the edges are stored in compressed sparse row form. A
/// state costs `8 · ⌈|P| / 64⌉` bytes of marking, 8 bytes of hash, 16 to
/// 32 bytes of index table and an 8-byte edge offset; an edge costs 16
/// bytes.
#[derive(Debug, Clone)]
pub struct ReachabilityGraph {
    /// Every reachable marking, numbered by state id.
    markings: RowIndex,
    /// State `s`'s edges are `edges[offsets[s]..offsets[s + 1]]`.
    offsets: Vec<usize>,
    /// `(t, s')` with `s --t--> s'`, grouped by source state `s`.
    edges: Vec<(TransitionId, usize)>,
}

impl ReachabilityGraph {
    /// Explores all markings reachable from `net`'s initial marking.
    ///
    /// `budget` is the maximum number of states **stored**: exploration
    /// succeeds iff the net has at most `budget` reachable markings
    /// (the initial marking counts as the first stored state, so a net with
    /// exactly `budget` reachable markings still explores). This protects
    /// the caller from state explosion; the symbolic engine
    /// ([`crate::SymbolicReach`]) goes where this budget cannot.
    ///
    /// The walk is breadth-first. At each state it tries the transitions in
    /// id order against word masks of their presets, and fires an enabled
    /// one by clearing its preset's bits and setting its postset's.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Unsafe`] if a firing violates 1-safeness (with
    /// the place and transition [`PetriNet::fire`] reports) and
    /// [`NetError::StateBudgetExceeded`] if storing one more state would
    /// exceed `budget` — including `budget == 0`, where even the initial
    /// marking does not fit. Whichever the walk meets first is returned.
    ///
    /// # Examples
    ///
    /// ```
    /// use si_petri::{PetriNet, ReachabilityGraph};
    ///
    /// # fn main() -> Result<(), si_petri::NetError> {
    /// let mut net = PetriNet::new();
    /// let p0 = net.add_place("p0");
    /// let p1 = net.add_place("p1");
    /// let t = net.add_transition("t");
    /// net.add_arc_pt(p0, t);
    /// net.add_arc_tp(t, p1);
    /// net.mark_initially(p0);
    /// let rg = ReachabilityGraph::explore(&net, 100)?;
    /// assert_eq!(rg.len(), 2);
    /// # Ok(())
    /// # }
    /// ```
    pub fn explore(net: &PetriNet, budget: usize) -> Result<Self, NetError> {
        if budget == 0 {
            // Even the initial marking would exceed a zero budget; erroring
            // here keeps the invariant that a returned graph is never a
            // truncated state space.
            return Err(NetError::StateBudgetExceeded { budget });
        }
        let width = net.place_count().div_ceil(64);
        let masks = FiringMasks::new(net, width);
        let mut markings = RowIndex::new(width);
        let mut row = vec![0u64; width];
        for p in net.initial_marking().iter() {
            set_bit(&mut row, p.index());
        }
        markings.insert(&row);
        let mut next = vec![0u64; width];
        let mut offsets = vec![0];
        let mut edges = Vec::new();
        let mut state = 0;
        while state < markings.len() {
            row.copy_from_slice(markings.row(state));
            for t in 0..masks.transitions {
                let (pre, post) = masks.of(t);
                if row.iter().zip(pre).any(|(&m, &p)| m & p != p) {
                    continue;
                }
                let mut clash = masks.repeated_output[t];
                for (((n, &m), &p), &q) in next.iter_mut().zip(&row).zip(pre).zip(post) {
                    let kept = m & !p;
                    clash |= kept & q != 0;
                    *n = kept | q;
                }
                let t = TransitionId(t as u32);
                if clash {
                    // The masks only detect the second token; `fire` names
                    // its place, replaying the postset in arc order.
                    net.fire(t, &to_marking(&row))?;
                }
                let (id, new) = markings.insert_full(&next);
                if new && id >= budget {
                    return Err(NetError::StateBudgetExceeded { budget });
                }
                edges.push((t, id));
            }
            offsets.push(edges.len());
            state += 1;
        }
        Ok(ReachabilityGraph {
            markings,
            offsets,
            edges,
        })
    }

    /// Number of reachable markings.
    pub fn len(&self) -> usize {
        self.markings.len()
    }

    /// Returns `true` if the graph has no states (never after
    /// [`explore`](Self::explore), whose graph holds at least the initial
    /// marking).
    pub fn is_empty(&self) -> bool {
        self.markings.is_empty()
    }

    /// The marking of state `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn marking(&self, id: usize) -> Marking {
        to_marking(self.markings.row(id))
    }

    /// Outgoing `(transition, successor)` edges of state `id`, in
    /// transition-id order.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn successors(&self, id: usize) -> &[(TransitionId, usize)] {
        &self.edges[self.offsets[id]..self.offsets[id + 1]]
    }

    /// Looks up the state id of `marking`, if reachable.
    pub fn state_of(&self, marking: &Marking) -> Option<usize> {
        let mut row = vec![0u64; self.markings.width()];
        for p in marking.iter() {
            // A place beyond the net's is never marked in a reachable state.
            let word = row.get_mut(p.index() / 64)?;
            *word |= 1 << (p.index() % 64);
        }
        self.markings.get(&row)
    }

    /// Iterates over `(state id, marking)` pairs in discovery (BFS) order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Marking)> + '_ {
        (0..self.len()).map(|id| (id, self.marking(id)))
    }

    /// States with no outgoing edges (deadlocks).
    pub fn deadlocks(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&id| self.offsets[id] == self.offsets[id + 1])
            .collect()
    }
}

/// Each transition's preset and postset as word masks over the places, in
/// the layout of the graph's marking rows.
struct FiringMasks {
    transitions: usize,
    width: usize,
    /// Per transition: its preset's mask, then its postset's.
    words: Vec<u64>,
    /// Per transition: whether some place has two arcs from it, so that
    /// firing it always puts a second token there.
    repeated_output: Vec<bool>,
}

impl FiringMasks {
    fn new(net: &PetriNet, width: usize) -> Self {
        let transitions = net.transition_count();
        let mut words = vec![0u64; 2 * width * transitions];
        let mut repeated_output = vec![false; transitions];
        for t in net.transitions() {
            let masks = &mut words[2 * width * t.index()..2 * width * (t.index() + 1)];
            let (pre, post) = masks.split_at_mut(width);
            for p in net.preset(t) {
                set_bit(pre, p.index());
            }
            for p in net.postset(t) {
                repeated_output[t.index()] |= has_bit(post, p.index());
                set_bit(post, p.index());
            }
        }
        FiringMasks {
            transitions,
            width,
            words,
            repeated_output,
        }
    }

    /// Transition `t`'s preset and postset masks.
    #[inline]
    fn of(&self, t: usize) -> (&[u64], &[u64]) {
        self.words[2 * self.width * t..2 * self.width * (t + 1)].split_at(self.width)
    }
}

fn to_marking(row: &[u64]) -> Marking {
    (0..row.len() * 64)
        .filter(|&p| has_bit(row, p))
        .map(|p| PlaceId(p as u32))
        .collect()
}

fn has_bit(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1 << (i % 64)) != 0
}

fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two independent 2-cycles: 4 reachable markings.
    fn two_cycles() -> PetriNet {
        let mut net = PetriNet::new();
        let a0 = net.add_place("a0");
        let a1 = net.add_place("a1");
        let b0 = net.add_place("b0");
        let b1 = net.add_place("b1");
        for (x0, x1, n) in [(a0, a1, "a"), (b0, b1, "b")] {
            let fwd = net.add_transition(format!("{n}+"));
            let bwd = net.add_transition(format!("{n}-"));
            net.add_arc_pt(x0, fwd);
            net.add_arc_tp(fwd, x1);
            net.add_arc_pt(x1, bwd);
            net.add_arc_tp(bwd, x0);
        }
        net.mark_initially(a0);
        net.mark_initially(b0);
        net
    }

    #[test]
    fn explores_product_space() {
        let net = two_cycles();
        let rg = ReachabilityGraph::explore(&net, 100).expect("explores");
        assert_eq!(rg.len(), 4);
        // Initial state has two enabled transitions.
        assert_eq!(rg.successors(0).len(), 2);
        assert!(rg.deadlocks().is_empty());
    }

    #[test]
    fn budget_enforced() {
        let net = two_cycles();
        assert!(matches!(
            ReachabilityGraph::explore(&net, 2),
            Err(NetError::StateBudgetExceeded { budget: 2 })
        ));
    }

    #[test]
    fn budget_is_max_states_stored_boundary() {
        // two_cycles has exactly 4 reachable markings: a budget of exactly 4
        // (max states stored) must succeed, one less must fail.
        let net = two_cycles();
        let rg = ReachabilityGraph::explore(&net, 4).expect("exactly-budget explores");
        assert_eq!(rg.len(), 4);
        assert!(matches!(
            ReachabilityGraph::explore(&net, 3),
            Err(NetError::StateBudgetExceeded { budget: 3 })
        ));
    }

    #[test]
    fn zero_budget_is_an_error_not_a_partial_graph() {
        let net = two_cycles();
        assert!(matches!(
            ReachabilityGraph::explore(&net, 0),
            Err(NetError::StateBudgetExceeded { budget: 0 })
        ));
    }

    #[test]
    fn state_lookup_roundtrip() {
        let net = two_cycles();
        let rg = ReachabilityGraph::explore(&net, 100).expect("explores");
        for (id, m) in rg.iter() {
            assert_eq!(rg.state_of(&m), Some(id));
        }
    }

    #[test]
    fn deadlock_detected() {
        let mut net = PetriNet::new();
        let p0 = net.add_place("p0");
        let p1 = net.add_place("p1");
        let t = net.add_transition("t");
        net.add_arc_pt(p0, t);
        net.add_arc_tp(t, p1);
        net.mark_initially(p0);
        let rg = ReachabilityGraph::explore(&net, 10).expect("explores");
        assert_eq!(rg.deadlocks(), vec![1]);
    }

    #[test]
    fn unsafe_net_reported() {
        let mut net = PetriNet::new();
        let p0 = net.add_place("p0");
        let p1 = net.add_place("p1");
        let p2 = net.add_place("p2");
        // Two transitions both feeding p2 from independent sources, one of
        // which also re-enables itself: p2 can receive two tokens.
        let t0 = net.add_transition("t0");
        let t1 = net.add_transition("t1");
        net.add_arc_pt(p0, t0);
        net.add_arc_tp(t0, p2);
        net.add_arc_pt(p1, t1);
        net.add_arc_tp(t1, p2);
        net.mark_initially(p0);
        net.mark_initially(p1);
        // t0 fires first from the initial marking; t1 then overfills p2.
        let m1 = net.fire(t0, net.initial_marking()).expect("safe step");
        let expected = net.fire(t1, &m1).unwrap_err();
        assert!(
            matches!(expected, NetError::Unsafe { place, transition, .. }
            if place == p2 && transition == t1)
        );
        assert_eq!(ReachabilityGraph::explore(&net, 100).unwrap_err(), expected);
    }

    #[test]
    fn duplicate_output_arc_is_unsafe_as_fire_reports_it() {
        let mut net = PetriNet::new();
        let p0 = net.add_place("p0");
        let p1 = net.add_place("p1");
        let t = net.add_transition("t");
        net.add_arc_pt(p0, t);
        net.add_arc_tp(t, p1);
        net.add_arc_tp(t, p1);
        net.mark_initially(p0);
        let expected = net.fire(t, net.initial_marking()).unwrap_err();
        assert!(matches!(expected, NetError::Unsafe { place, .. } if place == p1));
        assert_eq!(ReachabilityGraph::explore(&net, 100).unwrap_err(), expected);
    }

    #[test]
    fn unreachable_or_foreign_markings_have_no_state() {
        let net = two_cycles();
        let rg = ReachabilityGraph::explore(&net, 100).expect("explores");
        let both_marked: Marking = [PlaceId(0), PlaceId(1)].into_iter().collect();
        assert_eq!(rg.state_of(&both_marked), None);
        let foreign: Marking = [PlaceId(0), PlaceId(2), PlaceId(700)].into_iter().collect();
        assert_eq!(rg.state_of(&foreign), None);
        assert_eq!(rg.state_of(net.initial_marking()), Some(0));
    }
}
