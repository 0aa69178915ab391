//! The canonical LR(0) collection: states and the GOTO graph.

use crate::item::{Item, ItemSet};
use wg_grammar::fx::FxHashMap;
use wg_grammar::{Grammar, ProdId, Symbol};

/// Identifier of an LR automaton state (also the parse state stored in dag
/// nodes by the incremental parser).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub u32);

impl StateId {
    /// The start state.
    pub const START: StateId = StateId(0);

    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Reusable scratch that groups a closure's advanced items by the symbol
/// after the dot: the kernels of all of a state's GOTO successors, in
/// ascending symbol order, from one pass over the closure. Both the
/// canonical build and the incremental replay derive successors through
/// it, so the two visit symbols — and so number states — identically.
#[derive(Debug, Default)]
pub(crate) struct SuccessorKernels {
    moves: Vec<(Symbol, Item)>,
    items: Vec<Item>,
    /// `(symbol, end)`: the kernel on `symbol` is `items[prev end..end]`.
    groups: Vec<(Symbol, usize)>,
}

impl SuccessorKernels {
    /// Groups the advanced items of `closure` by transition symbol.
    pub(crate) fn compute(&mut self, g: &Grammar, closure: &ItemSet) {
        self.moves.clear();
        self.items.clear();
        self.groups.clear();
        self.moves.extend(
            closure
                .items()
                .iter()
                .filter_map(|it| it.next_symbol(g).map(|sym| (sym, it.advanced()))),
        );
        // Items are unique, so the order is total; within one symbol it is
        // the canonical item order (advancing the dot preserves it).
        self.moves.sort_unstable();
        for &(sym, item) in &self.moves {
            if self.groups.last().is_none_or(|&(s, _)| s != sym) {
                self.groups.push((sym, 0));
            }
            self.items.push(item);
            self.groups.last_mut().expect("group pushed above").1 = self.items.len();
        }
    }

    /// Number of successor symbols.
    pub(crate) fn len(&self) -> usize {
        self.groups.len()
    }

    /// The `i`-th successor symbol and its kernel, in canonical order.
    pub(crate) fn get(&self, i: usize) -> (Symbol, &[Item]) {
        let start = if i == 0 { 0 } else { self.groups[i - 1].1 };
        let (sym, end) = self.groups[i];
        (sym, &self.items[start..end])
    }
}

/// Transitions recorded state by state in worklist order, flattened into
/// per-state (compressed adjacency) order when the traversal ends. Each
/// state's transitions are recorded contiguously, once.
#[derive(Debug, Default)]
pub(crate) struct EdgeLog {
    edges: Vec<(Symbol, StateId)>,
    /// Per state: its `(start, end)` range in `edges`.
    ranges: Vec<(u32, u32)>,
}

impl EdgeLog {
    /// Records `state`'s transitions, in ascending symbol order.
    pub(crate) fn record(&mut self, state: StateId, out: impl Iterator<Item = (Symbol, StateId)>) {
        let start = self.edges.len() as u32;
        self.edges.extend(out);
        if self.ranges.len() <= state.index() {
            self.ranges.resize(state.index() + 1, (0, 0));
        }
        self.ranges[state.index()] = (start, self.edges.len() as u32);
    }

    /// Flattens into `(succ_start, succ)` for `num_states` states.
    fn finish(self, num_states: usize) -> (Vec<u32>, Vec<(Symbol, StateId)>) {
        let mut start = Vec::with_capacity(num_states + 1);
        let mut succ = Vec::with_capacity(self.edges.len());
        for s in 0..num_states {
            start.push(succ.len() as u32);
            if let Some(&(a, b)) = self.ranges.get(s) {
                succ.extend_from_slice(&self.edges[a as usize..b as usize]);
            }
        }
        start.push(succ.len() as u32);
        (start, succ)
    }
}

/// The canonical collection of LR(0) item sets plus its transition graph.
#[derive(Debug, Clone)]
pub struct Lr0Automaton {
    /// Kernel item sets, indexed by state.
    kernels: Vec<ItemSet>,
    /// Closures of the kernels (memoized; used by table construction).
    closures: Vec<ItemSet>,
    /// State `s`'s transitions, in ascending symbol order, are
    /// `succ[succ_start[s]..succ_start[s + 1]]`.
    succ_start: Vec<u32>,
    succ: Vec<(Symbol, StateId)>,
    /// Kernel → state, retained so an incremental update can recognize
    /// old states by kernel without re-indexing the whole automaton.
    index: FxHashMap<ItemSet, StateId>,
}

impl Lr0Automaton {
    /// Builds the canonical collection for `g` starting from
    /// `S' -> · S eof`.
    pub fn build(g: &Grammar) -> Lr0Automaton {
        let start_kernel = ItemSet::new(vec![Item::start(ProdId::AUGMENTED)]);
        let mut closures = vec![start_kernel.closure(g)];
        let mut kernels = vec![start_kernel.clone()];
        let mut index = FxHashMap::default();
        index.insert(start_kernel, StateId::START);
        let mut edges = EdgeLog::default();
        let mut work = vec![StateId::START];
        let mut next = SuccessorKernels::default();

        while let Some(state) = work.pop() {
            next.compute(g, &closures[state.index()]);
            let out = (0..next.len()).map(|i| {
                let (sym, items) = next.get(i);
                let target = match index.get(items) {
                    Some(&t) => t,
                    None => {
                        let id = StateId(kernels.len() as u32);
                        let kernel = ItemSet::from_sorted(items.to_vec());
                        closures.push(kernel.closure(g));
                        kernels.push(kernel.clone());
                        index.insert(kernel, id);
                        work.push(id);
                        id
                    }
                };
                (sym, target)
            });
            edges.record(state, out);
        }

        Lr0Automaton::from_parts(kernels, closures, edges, index)
    }

    /// Reassembles an automaton from parts produced by the incremental
    /// replay in [`crate::incr`]. The caller guarantees canonical
    /// construction order (identical to [`Lr0Automaton::build`] on the
    /// same grammar).
    pub(crate) fn from_parts(
        kernels: Vec<ItemSet>,
        closures: Vec<ItemSet>,
        edges: EdgeLog,
        index: FxHashMap<ItemSet, StateId>,
    ) -> Lr0Automaton {
        let (succ_start, succ) = edges.finish(kernels.len());
        Lr0Automaton {
            kernels,
            closures,
            succ_start,
            succ,
            index,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.kernels.len()
    }

    /// Kernel items of a state.
    pub fn kernel(&self, s: StateId) -> &ItemSet {
        &self.kernels[s.index()]
    }

    /// Full closure of a state.
    pub fn closure(&self, s: StateId) -> &ItemSet {
        &self.closures[s.index()]
    }

    /// The state whose kernel is exactly `items` (canonical order), if any.
    pub(crate) fn state_of_kernel(&self, items: &[Item]) -> Option<StateId> {
        self.index.get(items).copied()
    }

    /// The GOTO/shift target on `sym` from `s`, if defined.
    #[inline]
    pub fn goto(&self, s: StateId, sym: Symbol) -> Option<StateId> {
        let out = self.successors(s);
        out.binary_search_by_key(&sym, |&(x, _)| x)
            .ok()
            .map(|i| out[i].1)
    }

    /// The transitions out of `s`, in ascending symbol order.
    #[inline]
    pub(crate) fn successors(&self, s: StateId) -> &[(Symbol, StateId)] {
        &self.succ[self.succ_start[s.index()] as usize..self.succ_start[s.index() + 1] as usize]
    }

    /// All transitions, by source state and then symbol.
    pub fn transitions(&self) -> impl Iterator<Item = (StateId, Symbol, StateId)> + '_ {
        (0..self.num_states()).flat_map(move |s| {
            let sid = StateId(s as u32);
            self.successors(sid)
                .iter()
                .map(move |&(sym, t)| (sid, sym, t))
        })
    }

    /// Walks the GOTO path from `from` spelling `syms`; `None` if undefined.
    pub fn walk(&self, from: StateId, syms: &[Symbol]) -> Option<StateId> {
        syms.iter().try_fold(from, |s, sym| self.goto(s, *sym))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_grammar::{GrammarBuilder, Symbol};

    /// Grammar 4.1 from the dragon book:
    /// E -> E + T | T ; T -> T * F | F ; F -> ( E ) | id
    /// Its canonical LR(0) collection has 12 states.
    fn dragon() -> Grammar {
        let mut b = GrammarBuilder::new("dragon");
        let plus = b.terminal("+");
        let star = b.terminal("*");
        let lp = b.terminal("(");
        let rp = b.terminal(")");
        let id = b.terminal("id");
        let e = b.nonterminal("E");
        let t = b.nonterminal("T");
        let f = b.nonterminal("F");
        b.prod(e, vec![Symbol::N(e), Symbol::T(plus), Symbol::N(t)]);
        b.prod(e, vec![Symbol::N(t)]);
        b.prod(t, vec![Symbol::N(t), Symbol::T(star), Symbol::N(f)]);
        b.prod(t, vec![Symbol::N(f)]);
        b.prod(f, vec![Symbol::T(lp), Symbol::N(e), Symbol::T(rp)]);
        b.prod(f, vec![Symbol::T(id)]);
        b.start(e);
        b.build().unwrap()
    }

    #[test]
    fn dragon_has_twelve_lr0_states_plus_accept() {
        let g = dragon();
        let a = Lr0Automaton::build(&g);
        // The textbook count (12) excludes the post-EOF accept state our
        // augmented `S' -> S eof` adds, so we see 13.
        assert_eq!(a.num_states(), 13);
    }

    #[test]
    fn goto_paths_are_consistent() {
        let g = dragon();
        let a = Lr0Automaton::build(&g);
        let e = g.nonterminal_by_name("E").unwrap();
        let id = g.terminal_by_name("id").unwrap();
        let s_e = a.goto(StateId::START, Symbol::N(e)).expect("goto on E");
        let s_id = a.goto(StateId::START, Symbol::T(id)).expect("shift id");
        assert_ne!(s_e, s_id);
        assert_eq!(
            a.walk(StateId::START, &[Symbol::N(e)]),
            Some(s_e),
            "walk matches single goto"
        );
        assert_eq!(a.walk(StateId::START, &[Symbol::N(e), Symbol::N(e)]), None);
    }

    #[test]
    fn determinism_of_construction() {
        let g = dragon();
        let a1 = Lr0Automaton::build(&g);
        let a2 = Lr0Automaton::build(&g);
        assert_eq!(a1.num_states(), a2.num_states());
        for s in 0..a1.num_states() {
            assert_eq!(
                a1.kernel(StateId(s as u32)),
                a2.kernel(StateId(s as u32)),
                "state numbering must be deterministic"
            );
        }
    }

    #[test]
    fn successors_are_sorted_and_match_goto() {
        let g = dragon();
        let a = Lr0Automaton::build(&g);
        let mut edges = 0;
        for s in 0..a.num_states() {
            let sid = StateId(s as u32);
            let out = a.successors(sid);
            assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "state {s}");
            for &(sym, t) in out {
                assert_eq!(a.goto(sid, sym), Some(t));
                assert_eq!(a.state_of_kernel(a.kernel(t).items()), Some(t));
            }
            edges += out.len();
        }
        assert_eq!(a.transitions().count(), edges);
    }

    #[test]
    fn closures_are_supersets_of_kernels() {
        let g = dragon();
        let a = Lr0Automaton::build(&g);
        for s in 0..a.num_states() {
            let sid = StateId(s as u32);
            for item in a.kernel(sid).items() {
                assert!(a.closure(sid).items().contains(item));
            }
        }
    }
}
