//! Explicit reachability exploration with a state budget.
//!
//! This is the "build the full reachability graph" primitive that SG-based
//! synthesis tools rely on, and whose state explosion the paper's
//! unfolding-based method avoids. It is kept in the kernel crate because both
//! the state-graph substrate and several checks reuse it.

use std::collections::HashMap;

use crate::error::NetError;
use crate::marking::Marking;
use crate::net::{PetriNet, TransitionId};

/// The reachability graph of a 1-safe net: all reachable markings plus the
/// labelled successor relation.
#[derive(Debug, Clone)]
pub struct ReachabilityGraph {
    markings: Vec<Marking>,
    /// `edges[s]` lists `(t, s')` with `markings[s] --t--> markings[s']`.
    edges: Vec<Vec<(TransitionId, usize)>>,
    index: HashMap<Marking, usize>,
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
    /// # Errors
    ///
    /// Returns [`NetError::Unsafe`] if a firing violates 1-safeness and
    /// [`NetError::StateBudgetExceeded`] if storing one more state would
    /// exceed `budget` — including `budget == 0`, where even the initial
    /// marking does not fit.
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
        let mut graph = ReachabilityGraph {
            markings: Vec::new(),
            edges: Vec::new(),
            index: HashMap::new(),
        };
        // Pre-size the marking's bitset for the full place range so every
        // clone made by `fire` carries full-width blocks from the start.
        let mut initial = Marking::with_capacity(net.place_count());
        for p in net.initial_marking().iter() {
            initial.insert(p);
        }
        graph.intern(initial);
        let mut frontier = 0usize;
        while frontier < graph.markings.len() {
            let marking = graph.markings[frontier].clone();
            for t in net.enabled_transitions(&marking) {
                let next = net.fire(t, &marking)?;
                let next_id = match graph.index.get(&next) {
                    Some(&id) => id,
                    None => {
                        if graph.markings.len() >= budget {
                            return Err(NetError::StateBudgetExceeded { budget });
                        }
                        graph.intern(next)
                    }
                };
                graph.edges[frontier].push((t, next_id));
            }
            frontier += 1;
        }
        Ok(graph)
    }

    fn intern(&mut self, marking: Marking) -> usize {
        let id = self.markings.len();
        self.index.insert(marking.clone(), id);
        self.markings.push(marking);
        self.edges.push(Vec::new());
        id
    }

    /// Number of reachable markings.
    pub fn len(&self) -> usize {
        self.markings.len()
    }

    /// Returns `true` if the graph has no states (only possible for an
    /// unexplored graph; exploration always yields at least the initial
    /// marking).
    pub fn is_empty(&self) -> bool {
        self.markings.is_empty()
    }

    /// The marking of state `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn marking(&self, id: usize) -> &Marking {
        &self.markings[id]
    }

    /// Outgoing `(transition, successor)` edges of state `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn successors(&self, id: usize) -> &[(TransitionId, usize)] {
        &self.edges[id]
    }

    /// Looks up the state id of `marking`, if reachable.
    pub fn state_of(&self, marking: &Marking) -> Option<usize> {
        self.index.get(marking).copied()
    }

    /// Iterates over `(state id, marking)` pairs in discovery (BFS) order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Marking)> + '_ {
        self.markings.iter().enumerate()
    }

    /// States with no outgoing edges (deadlocks).
    pub fn deadlocks(&self) -> Vec<usize> {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_empty())
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::PetriNet;

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
            assert_eq!(rg.state_of(m), Some(id));
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
        assert!(matches!(
            ReachabilityGraph::explore(&net, 100),
            Err(NetError::Unsafe { .. })
        ));
    }
}
