//! Static topology of the inter-character gadget.
//!
//! The query graph (Section 3.3.3, Eq. 14) is built by tiling one copy of
//! the three-layer gadget of Eq. 13 per input position and connecting
//! adjacent copies with the SNFA's character transitions.  Everything about
//! the gadget itself — which layer-1 (close), layer-2 (open) and layer-3
//! edges exist, and a topological order for evaluating each layer — is
//! independent of the input string, so it is computed once per
//! (SemRE, oracle) pair and reused for every line.  [`GadgetTopology`] holds
//! that precomputation.

use semre_automata::{Csr, EpsClosure, Label, Snfa, StateId};
use semre_syntax::QueryName;

/// Sentinel in [`GadgetTopology::open_index`]'s table: not an open state.
const NOT_OPEN: u32 = u32::MAX;

/// Precomputed, input-independent structure of the inter-character gadget.
#[derive(Clone, Debug)]
pub struct GadgetTopology {
    /// `close_in.row(t)` = states `s` with a layer-1 edge `(s,1) → (t,1)`
    /// (non-empty only when `λ(t)` is a close label).
    close_in: Csr<StateId>,
    /// `open_in.row(t)` = states `s` with a layer-2 edge `(s,2) → (t,2)`
    /// (non-empty only when `λ(t)` is an open label).
    open_in: Csr<StateId>,
    /// `bal_in.row(t)` = states `s` with a layer-2 → layer-3 edge
    /// `(s,2) → (t,3)`; always contains `t` itself.
    bal_in: Csr<StateId>,
    /// `bal_out.row(s)` = targets of the layer-2 → layer-3 edges of `s`
    /// (the closure's balanced-reach sets); always contains `s` itself.
    bal_out: Csr<StateId>,
    /// `close_out.row(s)` = close states reachable from `s` by a layer-1
    /// edge.
    close_out: Csr<StateId>,
    /// `open_out.row(s)` = open states reachable from `s` by a layer-2
    /// edge.
    open_out: Csr<StateId>,
    /// Close-labelled states in an order compatible with the layer-1 edges
    /// (sources before targets).
    close_order: Vec<StateId>,
    /// Open-labelled states in an order compatible with the layer-2 edges.
    open_order: Vec<StateId>,
    /// The query opened / closed by each state, if any.
    query: Vec<Option<QueryName>>,
    /// Dense index of open-labelled states (`NOT_OPEN` elsewhere): the
    /// evaluator keys its LOQ arena by `(open index, position)` arithmetic
    /// instead of hashing.
    open_index: Vec<u32>,
    /// Whether no open or close state reaches an open state: see
    /// [`answer_free_opens`](Self::answer_free_opens).
    answer_free_opens: bool,
}

impl GadgetTopology {
    /// Computes the gadget topology of `snfa` from its ε-feasibility
    /// closure.
    ///
    /// # Panics
    ///
    /// Panics if the layer-1 or layer-2 edges contain a cycle.  This cannot
    /// happen for automata produced by [`semre_automata::compile`] on
    /// ⊥-free SemREs, because every layer-1 edge strictly shrinks the query
    /// context and every layer-2 edge strictly grows it.
    pub fn new(snfa: &Snfa, closure: &EpsClosure) -> Self {
        let n = snfa.num_states();
        let mut close_in = vec![Vec::new(); n];
        let mut open_in = vec![Vec::new(); n];
        let mut bal_in = vec![Vec::new(); n];
        let mut bal_out = vec![Vec::new(); n];
        let mut close_out = vec![Vec::new(); n];
        let mut open_out = vec![Vec::new(); n];
        for s in snfa.states() {
            for &t in closure.close_targets(s) {
                close_in[t].push(s);
            }
            for &t in closure.open_targets(s) {
                open_in[t].push(s);
            }
            for &t in closure.balanced_reach(s) {
                bal_in[t].push(s);
            }
            bal_out[s] = closure.balanced_reach(s).to_vec();
            close_out[s] = closure.close_targets(s).to_vec();
            open_out[s] = closure.open_targets(s).to_vec();
        }

        let close_states: Vec<StateId> = snfa
            .states()
            .filter(|&s| matches!(snfa.label(s), Label::Close(_)))
            .collect();
        let open_states: Vec<StateId> = snfa
            .states()
            .filter(|&s| matches!(snfa.label(s), Label::Open(_)))
            .collect();
        let close_order = topological_order(&close_states, |t| {
            close_in[t]
                .iter()
                .copied()
                .filter(|s| matches!(snfa.label(*s), Label::Close(_)))
        })
        .expect("layer-1 gadget edges must be acyclic");
        let open_order = topological_order(&open_states, |t| {
            open_in[t]
                .iter()
                .copied()
                .filter(|s| matches!(snfa.label(*s), Label::Open(_)))
        })
        .expect("layer-2 gadget edges must be acyclic");

        let query = snfa
            .states()
            .map(|s| snfa.label(s).query().cloned())
            .collect();
        let mut open_index = vec![NOT_OPEN; n];
        for (i, &s) in open_states.iter().enumerate() {
            open_index[s] = i as u32;
        }
        let answer_free_opens = !reaches_an_open(snfa);
        GadgetTopology {
            close_in: Csr::from_lists(close_in),
            open_in: Csr::from_lists(open_in),
            bal_in: Csr::from_lists(bal_in),
            bal_out: Csr::from_lists(bal_out),
            close_out: Csr::from_lists(close_out),
            open_out: Csr::from_lists(open_out),
            close_order,
            open_order,
            query,
            open_index,
            answer_free_opens,
        }
    }

    /// Layer-1 predecessors of the close state `t` (the states from which
    /// the innermost open query can be closed at `t` between two input
    /// characters).
    pub fn close_in(&self, t: StateId) -> &[StateId] {
        self.close_in.row(t)
    }

    /// Layer-2 predecessors of the open state `t`.
    pub fn open_in(&self, t: StateId) -> &[StateId] {
        self.open_in.row(t)
    }

    /// Layer-2 states with an edge into the layer-3 vertex of `t`.
    pub fn bal_in(&self, t: StateId) -> &[StateId] {
        self.bal_in.row(t)
    }

    /// Layer-3 targets of the layer-2 vertex of `s` (the balanced-reach set
    /// of `s`, including `s` itself).
    pub fn balanced_targets(&self, s: StateId) -> &[StateId] {
        self.bal_out.row(s)
    }

    /// Close states reachable from `s` by a layer-1 edge (forward direction
    /// of [`close_in`](Self::close_in)).
    pub fn close_targets(&self, s: StateId) -> &[StateId] {
        self.close_out.row(s)
    }

    /// Open states reachable from `s` by a layer-2 edge (forward direction
    /// of [`open_in`](Self::open_in)).
    pub fn open_targets(&self, s: StateId) -> &[StateId] {
        self.open_out.row(s)
    }

    /// Dense index of the open state `s` among all open-labelled states
    /// (`None` when `λ(s)` is not an open label).
    pub fn open_index(&self, s: StateId) -> Option<u32> {
        let i = self.open_index[s];
        (i != NOT_OPEN).then_some(i)
    }

    /// Number of open-labelled states (the width of the dense open index).
    pub fn num_open_states(&self) -> usize {
        self.open_order.len()
    }

    /// Close-labelled states, ordered so that every layer-1 edge goes from
    /// an earlier to a later element.
    pub fn close_order(&self) -> &[StateId] {
        &self.close_order
    }

    /// Open-labelled states, ordered so that every layer-2 edge goes from an
    /// earlier to a later element.
    pub fn open_order(&self) -> &[StateId] {
        &self.open_order
    }

    /// The query associated with state `s`, if `λ(s)` is an open or close
    /// label.
    pub fn query(&self, s: StateId) -> Option<&QueryName> {
        self.query[s].as_ref()
    }

    /// Whether the open vertices of the query graph, and the
    /// backreference sets they seed, are the same whatever the oracle
    /// answers: no SNFA path leads from an open or a close state to an
    /// open state.  Then no query nests inside another (the LOQ sets stay
    /// empty), and an oracle-decided close vertex can never make an open
    /// vertex alive, so every close vertex's candidate opens are known
    /// before any question is answered.
    pub fn answer_free_opens(&self) -> bool {
        self.answer_free_opens
    }
}

/// Whether some SNFA path of one or more steps (ε or character) leads from
/// an open or a close state to an open state.
fn reaches_an_open(snfa: &Snfa) -> bool {
    let mut seen = vec![false; snfa.num_states()];
    let mut stack: Vec<StateId> = snfa
        .states()
        .filter(|&s| !snfa.label(s).is_blank())
        .collect();
    let successors = |s: StateId| {
        snfa.eps_out(s)
            .iter()
            .copied()
            .chain(snfa.char_out(s).iter().map(|&(_, t)| t))
    };
    while let Some(s) = stack.pop() {
        for t in successors(s) {
            if matches!(snfa.label(t), Label::Open(_)) {
                return true;
            }
            if !seen[t] {
                seen[t] = true;
                stack.push(t);
            }
        }
    }
    false
}

/// Kahn's algorithm restricted to the given nodes, with predecessors
/// supplied by `preds`.  Returns `None` if a cycle is detected.
fn topological_order<I>(nodes: &[StateId], preds: impl Fn(StateId) -> I) -> Option<Vec<StateId>>
where
    I: Iterator<Item = StateId>,
{
    use std::collections::HashMap;
    let node_set: std::collections::HashSet<StateId> = nodes.iter().copied().collect();
    let mut indegree: HashMap<StateId, usize> = nodes.iter().map(|&s| (s, 0)).collect();
    let mut successors: HashMap<StateId, Vec<StateId>> =
        nodes.iter().map(|&s| (s, Vec::new())).collect();
    for &t in nodes {
        for s in preds(t) {
            if node_set.contains(&s) && s != t {
                *indegree.get_mut(&t).expect("t is a node") += 1;
                successors.get_mut(&s).expect("s is a node").push(t);
            } else if s == t {
                // A self-loop is a cycle.
                return None;
            }
        }
    }
    let mut ready: Vec<StateId> = nodes.iter().copied().filter(|s| indegree[s] == 0).collect();
    let mut order = Vec::with_capacity(nodes.len());
    while let Some(s) = ready.pop() {
        order.push(s);
        for &t in &successors[&s] {
            let d = indegree.get_mut(&t).expect("t is a node");
            *d -= 1;
            if *d == 0 {
                ready.push(t);
            }
        }
    }
    if order.len() == nodes.len() {
        Some(order)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semre_automata::compile;
    use semre_oracle::ConstOracle;
    use semre_syntax::{examples, parse};

    fn topology(pattern: &str) -> (Snfa, GadgetTopology) {
        let snfa = compile(&parse(pattern).unwrap());
        let closure = EpsClosure::compute(&snfa, &ConstOracle::always_false());
        let topo = GadgetTopology::new(&snfa, &closure);
        (snfa, topo)
    }

    #[test]
    fn classical_patterns_have_no_query_edges() {
        let (snfa, topo) = topology("(ab|c)*d");
        for s in snfa.states() {
            assert!(topo.close_in(s).is_empty());
            assert!(topo.open_in(s).is_empty());
            assert!(topo.bal_in(s).contains(&s));
            assert!(topo.query(s).is_none());
        }
        assert!(topo.close_order().is_empty());
        assert!(topo.open_order().is_empty());
    }

    #[test]
    fn single_refinement_topology() {
        let (snfa, topo) = topology("x(?<Q>: a+)y");
        let closes: Vec<StateId> = snfa
            .states()
            .filter(|&s| matches!(snfa.label(s), Label::Close(_)))
            .collect();
        let opens: Vec<StateId> = snfa
            .states()
            .filter(|&s| matches!(snfa.label(s), Label::Open(_)))
            .collect();
        assert_eq!(closes.len(), 1);
        assert_eq!(opens.len(), 1);
        assert_eq!(topo.close_order(), &closes[..]);
        assert_eq!(topo.open_order(), &opens[..]);
        assert!(!topo.close_in(closes[0]).is_empty());
        assert!(!topo.open_in(opens[0]).is_empty());
        assert_eq!(topo.query(opens[0]).unwrap().as_str(), "Q");
        assert_eq!(topo.query(closes[0]).unwrap().as_str(), "Q");
    }

    #[test]
    fn nested_queries_are_ordered_inner_before_outer_on_close() {
        // Closing must pop the inner query before the outer one, so the
        // inner close precedes the outer close in the layer-1 order.
        let snfa = compile(&examples::r_paris_hilton());
        let closure = EpsClosure::compute(&snfa, &ConstOracle::always_false());
        let topo = GadgetTopology::new(&snfa, &closure);
        let order = topo.close_order();
        assert_eq!(order.len(), 2);
        let idx_of = |name: &str| {
            order
                .iter()
                .position(|&s| topo.query(s).map(QueryName::as_str) == Some(name))
                .unwrap_or_else(|| panic!("{name} not in close order"))
        };
        assert!(idx_of("City") < idx_of("Celebrity"));
        // Opening goes the other way round: outer before inner.
        let open_order = topo.open_order();
        let open_idx = |name: &str| {
            open_order
                .iter()
                .position(|&s| topo.query(s).map(QueryName::as_str) == Some(name))
                .unwrap_or_else(|| panic!("{name} not in open order"))
        };
        assert!(open_idx("Celebrity") < open_idx("City"));
    }

    #[test]
    fn benchmark_semres_have_acyclic_gadgets() {
        for (name, r) in examples::table1_semres() {
            let snfa = compile(&r);
            let closure = EpsClosure::compute(&snfa, &ConstOracle::always_false());
            let topo = GadgetTopology::new(&snfa, &closure);
            assert_eq!(
                topo.close_order().len(),
                snfa.states()
                    .filter(|&s| matches!(snfa.label(s), Label::Close(_)))
                    .count(),
                "{name}: close order misses states"
            );
        }
    }

    #[test]
    fn answer_free_opens_excludes_nested_and_sequenced_queries() {
        for (pattern, free) in [
            ("(ab|c)*d", true),
            ("x(?<Q>: a+)y", true),
            ("Subject: .*(?<Medicine name>: [a-z]+).*", true),
            ("<q>a|<q>b", true),
            ("(?<A>: [a-z]+) (?<B>: [a-z]+)", false),
            ("(<q>)*", false),
            ("(?<Celebrity>: (?<City>: [a-z]+) [a-z]+)", false),
        ] {
            assert_eq!(topology(pattern).1.answer_free_opens(), free, "{pattern}");
        }
    }

    #[test]
    fn topological_order_detects_cycles() {
        // 1 → 2 → 1 is a cycle.
        let nodes = vec![1, 2];
        let preds = |t: StateId| -> std::vec::IntoIter<StateId> {
            match t {
                1 => vec![2].into_iter(),
                2 => vec![1].into_iter(),
                _ => vec![].into_iter(),
            }
        };
        assert!(topological_order(&nodes, preds).is_none());
        // A diamond is fine: 1 → {2,3} → 4.
        let nodes = vec![4, 3, 2, 1];
        let preds = |t: StateId| -> std::vec::IntoIter<StateId> {
            match t {
                2 | 3 => vec![1].into_iter(),
                4 => vec![2, 3].into_iter(),
                _ => vec![].into_iter(),
            }
        };
        let order = topological_order(&nodes, preds).unwrap();
        let pos = |x: StateId| order.iter().position(|&s| s == x).unwrap();
        assert!(pos(1) < pos(2) && pos(1) < pos(3) && pos(2) < pos(4) && pos(3) < pos(4));
    }
}
