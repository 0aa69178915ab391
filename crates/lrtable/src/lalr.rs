//! LALR(1) lookahead computation via the DeRemer–Pennello relational method.
//!
//! Computes, for every (state, final item) pair, the exact LALR(1) lookahead
//! set, using the classic `reads` / `includes` / `lookback` relations and the
//! digraph (SCC-collapsing) fixed-point algorithm.
//!
//! Everything is indexed densely: nonterminal transitions are numbered in
//! (state, symbol) order straight off the automaton's sorted successor
//! lists, relations are compressed adjacency arrays, and every set —
//! DR, Read, Follow, and the resulting lookaheads — is a row of one flat
//! `u64` bit matrix that the digraph pass unions in place.

use crate::automaton::{Lr0Automaton, StateId};
use wg_grammar::{Grammar, GrammarAnalysis, NonTerminal, ProdId, Symbol, Terminal};

/// LALR lookahead sets: for each state, the productions it reduces by (in
/// ascending order) and, per reduction, the bitset of terminals on which
/// to reduce.
#[derive(Debug, Clone)]
pub(crate) struct Lookaheads {
    /// `u64` words per set.
    words: usize,
    /// State `s`'s reductions are `prods[start[s]..start[s + 1]]`.
    start: Vec<u32>,
    prods: Vec<ProdId>,
    /// Reduction `r`'s set is `bits[r * words..(r + 1) * words]`.
    bits: Vec<u64>,
}

impl Lookaheads {
    fn range(&self, s: StateId) -> std::ops::Range<usize> {
        self.start[s.index()] as usize..self.start[s.index() + 1] as usize
    }

    fn set(&self, r: usize) -> &[u64] {
        &self.bits[r * self.words..(r + 1) * self.words]
    }

    /// The reductions of state `s` with their lookahead bitsets, in
    /// ascending production order.
    pub(crate) fn reductions(&self, s: StateId) -> impl Iterator<Item = (ProdId, &[u64])> + '_ {
        self.range(s).map(move |r| (self.prods[r], self.set(r)))
    }

    /// The lookahead bitset of reducing `prod` in state `s`, if `s` has
    /// that final item.
    #[cfg(test)]
    pub(crate) fn get(&self, s: StateId, prod: ProdId) -> Option<&[u64]> {
        let range = self.range(s);
        let base = range.start;
        self.prods[range]
            .binary_search(&prod)
            .ok()
            .map(|i| self.set(base + i))
    }
}

/// Whether terminal `t` is in the bitset.
#[inline]
pub(crate) fn has_bit(words: &[u64], t: Terminal) -> bool {
    let ix = t.index();
    words
        .get(ix / 64)
        .is_some_and(|w| w & (1 << (ix % 64)) != 0)
}

/// The members of a bitset, ascending.
pub(crate) fn iter_bits(words: &[u64]) -> impl Iterator<Item = Terminal> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                Terminal::from_index(wi * 64 + b)
            })
        })
    })
}

/// Set equality of two bitsets whose universes may differ in size (terminal
/// ids are stable across grammar deltas, so missing words read as empty).
pub(crate) fn same_bits(a: &[u64], b: &[u64]) -> bool {
    let n = a.len().max(b.len());
    (0..n).all(|i| a.get(i).copied().unwrap_or(0) == b.get(i).copied().unwrap_or(0))
}

/// A relation over transition indices in compressed adjacency form.
struct Relation {
    start: Vec<u32>,
    to: Vec<u32>,
}

impl Relation {
    /// Groups `(from, to)` pairs by source (a counting sort).
    fn from_pairs(n: usize, pairs: &[(u32, u32)]) -> Relation {
        let mut start = vec![0u32; n + 1];
        for &(from, _) in pairs {
            start[from as usize + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut to = vec![0u32; pairs.len()];
        for &(from, t) in pairs {
            to[fill[from as usize] as usize] = t;
            fill[from as usize] += 1;
        }
        Relation { start, to }
    }

    fn edges(&self, x: usize) -> &[u32] {
        &self.to[self.start[x] as usize..self.start[x + 1] as usize]
    }
}

/// Computes LALR(1) lookaheads for every reduction of `g`.
pub(crate) fn lalr_lookaheads(
    g: &Grammar,
    an: &GrammarAnalysis,
    auto: &Lr0Automaton,
) -> Lookaheads {
    let num_terminals = g.num_terminals();
    let words = num_terminals.div_ceil(64);
    let num_states = auto.num_states();
    let num_symbols = num_terminals + g.num_nonterminals();
    let col = |sym: Symbol| match sym {
        Symbol::T(t) => t.index(),
        Symbol::N(n) => num_terminals + n.index(),
    };

    // 1. The dense GOTO matrix the rhs walks below read, the terminals
    //    shiftable out of each state, and the nonterminal transitions
    //    (p, A) numbered in (state, symbol) order: state p's are
    //    `trans[nt_start[p]..nt_start[p + 1]]`. A terminal column holds
    //    the target state + 1, a nonterminal column the transition's
    //    number + 1 (its target is in `trans`), 0 means none.
    let mut goto = vec![0u32; num_states * num_symbols];
    let mut shiftable = vec![0u64; num_states * words];
    let mut nt_start: Vec<u32> = Vec::with_capacity(num_states + 1);
    let mut trans: Vec<(NonTerminal, StateId)> = Vec::new();
    for p in 0..num_states {
        nt_start.push(trans.len() as u32);
        for &(sym, r) in auto.successors(StateId(p as u32)) {
            goto[p * num_symbols + col(sym)] = match sym {
                Symbol::T(t) => {
                    shiftable[p * words + t.index() / 64] |= 1 << (t.index() % 64);
                    r.0 + 1
                }
                Symbol::N(a) => {
                    trans.push((a, r));
                    trans.len() as u32
                }
            };
        }
    }
    nt_start.push(trans.len() as u32);

    // 2. DR(p, A): terminals shiftable directly out of goto(p, A). This
    //    matrix becomes Read, then Follow, in place.
    let mut sets = vec![0u64; trans.len() * words];
    for (i, &(_, r)) in trans.iter().enumerate() {
        sets[i * words..(i + 1) * words]
            .copy_from_slice(&shiftable[r.index() * words..(r.index() + 1) * words]);
    }

    // 3. `reads`: (p, A) reads (r, C) iff goto(p, A) = r and C is a nullable
    //    nonterminal transition out of r.
    let mut reads: Vec<(u32, u32)> = Vec::new();
    for (i, &(_, r)) in trans.iter().enumerate() {
        let (lo, hi) = (nt_start[r.index()], nt_start[r.index() + 1]);
        for j in lo..hi {
            if an.nullable(trans[j as usize].0) {
                reads.push((i as u32, j));
            }
        }
    }

    // 4. Read = digraph(reads, DR).
    digraph(&Relation::from_pairs(trans.len(), &reads), &mut sets, words);

    // 5. Reductions: each state's final items (its closure is sorted, so
    //    the productions come out ascending). Right-hand sides as GOTO
    //    columns for the walks, each with the position from which every
    //    symbol is a nonterminal followed only by nullable ones (the
    //    positions that generate `includes`).
    let mut rhs_start: Vec<u32> = Vec::with_capacity(g.num_productions() + 1);
    let mut rhs_col: Vec<u32> = Vec::new();
    let mut incl_from: Vec<u32> = Vec::with_capacity(g.num_productions());
    for (_, prod) in g.productions() {
        rhs_start.push(rhs_col.len() as u32);
        rhs_col.extend(prod.rhs().iter().map(|&sym| col(sym) as u32));
        let rhs = prod.rhs();
        let mut k = rhs.len();
        while k > 0 {
            let Symbol::N(a) = rhs[k - 1] else { break };
            k -= 1;
            if !an.nullable(a) {
                break;
            }
        }
        incl_from.push(k as u32);
    }
    rhs_start.push(rhs_col.len() as u32);
    let arity = |p: ProdId| rhs_start[p.index() + 1] - rhs_start[p.index()];
    let mut start: Vec<u32> = Vec::with_capacity(num_states + 1);
    let mut prods: Vec<ProdId> = Vec::new();
    for s in 0..num_states {
        start.push(prods.len() as u32);
        for item in auto.closure(StateId(s as u32)).items() {
            if item.dot == arity(item.prod) && item.prod != ProdId::AUGMENTED {
                prods.push(item.prod);
            }
        }
    }
    start.push(prods.len() as u32);

    // 6. `includes` and `lookback` in one sweep over (transition,
    //    production-of-its-nonterminal): walk the rhs from the transition's
    //    source, noting the GOTO word read at each position.
    let mut includes: Vec<(u32, u32)> = Vec::new();
    let mut lookback: Vec<(u32, u32)> = Vec::new(); // (reduction, transition)
    let mut path: Vec<u32> = Vec::new();
    for p0 in 0..num_states {
        let (lo, hi) = (nt_start[p0] as usize, nt_start[p0 + 1] as usize);
        for (start_ix, &(lhs, _)) in trans.iter().enumerate().take(hi).skip(lo) {
            'prods: for prod_id in g.productions_for(lhs) {
                let p = prod_id.index();
                let cols = &rhs_col[rhs_start[p] as usize..rhs_start[p + 1] as usize];
                path.clear();
                let mut q = p0;
                for &c in cols {
                    let w = goto[q * num_symbols + c as usize];
                    q = match w {
                        0 => continue 'prods,
                        _ if c as usize >= num_terminals => trans[w as usize - 1].1.index(),
                        _ => w as usize - 1,
                    };
                    path.push(w);
                }
                // includes: (p_i, A) for the tail positions, whose GOTO
                // words are those transitions' numbers + 1.
                for &w in &path[incl_from[p] as usize..] {
                    includes.push((w - 1, start_ix as u32));
                }
                // lookback: the reduction of `prod` in the final state
                // traces back to the transition (p0, lhs).
                let (lo, hi) = (start[q] as usize, start[q + 1] as usize);
                if let Ok(r) = prods[lo..hi].binary_search(&prod_id) {
                    lookback.push(((lo + r) as u32, start_ix as u32));
                }
            }
        }
    }

    // 7. Follow = digraph(includes, Read).
    digraph(
        &Relation::from_pairs(trans.len(), &includes),
        &mut sets,
        words,
    );

    // 8. LA(q, prod) = union of Follow over lookback.
    let mut bits = vec![0u64; prods.len() * words];
    for &(r, t) in &lookback {
        let (r, t) = (r as usize * words, t as usize * words);
        for k in 0..words {
            bits[r + k] |= sets[t + k];
        }
    }
    Lookaheads {
        words,
        start,
        prods,
        bits,
    }
}

/// The DeRemer–Pennello digraph algorithm: rewrites each row `x` of `f`
/// (initially `F0(x)`) to `F(x) = F0(x) ∪ ⋃ { F(y) | x R y }`, collapsing
/// strongly connected components, with every union taken in place.
fn digraph(rel: &Relation, f: &mut [u64], words: usize) {
    let n = rel.start.len() - 1;
    let mut mark = vec![0usize; n]; // 0 unvisited, usize::MAX done, else depth
    let mut stack = Vec::new();
    for x in 0..n {
        if mark[x] == 0 {
            traverse(x, rel, f, words, &mut mark, &mut stack);
        }
    }
}

/// `f[dst] |= f[src]` on rows of `words` words.
#[inline]
fn union_row(f: &mut [u64], words: usize, dst: usize, src: usize) {
    if dst != src {
        for k in 0..words {
            let v = f[src * words + k];
            f[dst * words + k] |= v;
        }
    }
}

fn traverse(
    x: usize,
    rel: &Relation,
    f: &mut [u64],
    words: usize,
    mark: &mut [usize],
    stack: &mut Vec<usize>,
) {
    stack.push(x);
    let depth = stack.len();
    mark[x] = depth;
    for &y in rel.edges(x) {
        let y = y as usize;
        if mark[y] == 0 {
            traverse(y, rel, f, words, mark, stack);
        }
        mark[x] = mark[x].min(mark[y]);
        union_row(f, words, x, y);
    }
    if mark[x] == depth {
        loop {
            let z = stack.pop().expect("stack nonempty inside SCC pop");
            mark[z] = usize::MAX;
            if z == x {
                break;
            }
            f.copy_within(x * words..(x + 1) * words, z * words);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_grammar::GrammarBuilder;

    /// The canonical "LALR but not SLR" grammar (dragon book 4.5x):
    /// S -> L = R | R ; L -> * R | id ; R -> L
    /// SLR has a shift/reduce conflict on `=`; LALR does not.
    fn lalr_not_slr() -> (Grammar, GrammarAnalysis, Lr0Automaton) {
        let mut b = GrammarBuilder::new("g");
        let eq = b.terminal("=");
        let star = b.terminal("*");
        let id = b.terminal("id");
        let s = b.nonterminal("S");
        let l = b.nonterminal("L");
        let r = b.nonterminal("R");
        b.prod(s, vec![Symbol::N(l), Symbol::T(eq), Symbol::N(r)]);
        b.prod(s, vec![Symbol::N(r)]);
        b.prod(l, vec![Symbol::T(star), Symbol::N(r)]);
        b.prod(l, vec![Symbol::T(id)]);
        b.prod(r, vec![Symbol::N(l)]);
        b.start(s);
        let g = b.build().unwrap();
        let an = GrammarAnalysis::new(&g);
        let auto = Lr0Automaton::build(&g);
        (g, an, auto)
    }

    #[test]
    fn lalr_lookahead_excludes_eq_for_r_to_l() {
        let (g, an, auto) = lalr_not_slr();
        let la = lalr_lookaheads(&g, &an, &auto);
        let eq = g.terminal_by_name("=").unwrap();
        let l = g.nonterminal_by_name("L").unwrap();
        let r = g.nonterminal_by_name("R").unwrap();
        // Find the production R -> L.
        let r_to_l = g
            .productions()
            .find(|(_, p)| p.lhs() == r && p.rhs() == [Symbol::N(l)])
            .unwrap()
            .0;
        // Find the state whose kernel contains both L -> id · like items —
        // i.e. the state reached by shifting `id` from the start state.
        let id_t = g.terminal_by_name("id").unwrap();
        let q = auto.goto(StateId::START, Symbol::T(id_t)).unwrap();
        // In the state reached on L from start, R -> L· must NOT have `=` in
        // its LALR lookahead (SLR would put it there via FOLLOW(R)).
        let l_state = auto.goto(StateId::START, Symbol::N(l)).unwrap();
        let set = la.get(l_state, r_to_l).expect("reduction exists");
        assert!(
            !has_bit(set, eq),
            "LALR must exclude '=' from LA(R -> L) in the conflict state; got {set:?}"
        );
        // FOLLOW(R) *does* contain '=' — confirming SLR would conflict here.
        assert!(an.follow_sets(&g)[r.index()].contains(eq));
        // Sanity: reducing L -> id is possible in state q.
        let l_to_id = g
            .productions()
            .find(|(_, p)| p.lhs() == l && p.rhs() == [Symbol::T(id_t)])
            .unwrap()
            .0;
        assert!(la.get(q, l_to_id).is_some());
    }

    #[test]
    fn la_is_subset_of_follow() {
        let (g, an, auto) = lalr_not_slr();
        let la = lalr_lookaheads(&g, &an, &auto);
        let follow = an.follow_sets(&g);
        for s in 0..auto.num_states() {
            for (prod, set) in la.reductions(StateId(s as u32)) {
                let lhs = g.production(prod).lhs();
                for t in iter_bits(set) {
                    assert!(
                        follow[lhs.index()].contains(t),
                        "LALR lookahead must be a subset of FOLLOW"
                    );
                }
            }
        }
    }

    #[test]
    fn every_final_item_has_lookaheads() {
        let (g, _an, auto) = lalr_not_slr();
        let an = GrammarAnalysis::new(&g);
        let la = lalr_lookaheads(&g, &an, &auto);
        for s in 0..auto.num_states() {
            let sid = StateId(s as u32);
            for item in auto.closure(sid).items() {
                if item.is_final(&g) && item.prod != ProdId::AUGMENTED {
                    assert!(
                        la.get(sid, item.prod)
                            .is_some_and(|set| !set.iter().all(|&w| w == 0)),
                        "state {s} final item missing lookahead set"
                    );
                }
            }
        }
    }
}
