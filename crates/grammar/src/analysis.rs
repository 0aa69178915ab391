//! Classical grammar analyses: nullability, FIRST, and FOLLOW sets.
//!
//! These feed SLR/LALR table construction in `wg-lrtable`, the Earley
//! baseline, and the nonterminal-reduction precomputation of Section 3.2
//! (reducing with a nonterminal lookahead `N` is valid when all reduction
//! actions agree for every terminal in `FIRST(N)` and `N` is not nullable).

use crate::grammar::Grammar;
use crate::symbol::{NonTerminal, Symbol, Terminal};
use crate::termset::TermSet;

/// Precomputed nullable/FIRST information for one grammar; FOLLOW sets,
/// which only SLR construction reads, on request
/// ([`GrammarAnalysis::follow_sets`]).
#[derive(Debug, Clone)]
pub struct GrammarAnalysis {
    nullable: Vec<bool>,
    first: Vec<TermSet>,
}

/// `m[dst] |= m[src]` on rows of `words` words; returns whether `dst` grew.
fn union_row(m: &mut [u64], words: usize, dst: usize, src: usize) -> bool {
    let mut changed = false;
    if dst != src {
        for k in 0..words {
            let v = m[dst * words + k] | m[src * words + k];
            changed |= v != m[dst * words + k];
            m[dst * words + k] = v;
        }
    }
    changed
}

/// Sets terminal `t` in row `row`; returns whether it was new.
fn insert(m: &mut [u64], words: usize, row: usize, t: Terminal) -> bool {
    let (w, bit) = (row * words + t.index() / 64, 1u64 << (t.index() % 64));
    let fresh = m[w] & bit == 0;
    m[w] |= bit;
    fresh
}

impl GrammarAnalysis {
    /// Runs the fixed-point analyses for `g`.
    pub fn new(g: &Grammar) -> GrammarAnalysis {
        let nt_count = g.num_nonterminals();
        let t_count = g.num_terminals();

        // Nullability.
        let mut nullable = vec![false; nt_count];
        let mut changed = true;
        while changed {
            changed = false;
            for (_, p) in g.productions() {
                if nullable[p.lhs().index()] {
                    continue;
                }
                let all_nullable = p.rhs().iter().all(|s| match s {
                    Symbol::T(_) => false,
                    Symbol::N(n) => nullable[n.index()],
                });
                if all_nullable {
                    nullable[p.lhs().index()] = true;
                    changed = true;
                }
            }
        }

        // FIRST, as rows of a flat bit matrix with every union taken in
        // place (the fixed point does not depend on update order).
        let words = t_count.div_ceil(64);
        let mut first = vec![0u64; nt_count * words];
        changed = true;
        while changed {
            changed = false;
            for (_, p) in g.productions() {
                let lhs = p.lhs().index();
                for s in p.rhs() {
                    match s {
                        Symbol::T(t) => {
                            changed |= insert(&mut first, words, lhs, *t);
                            break;
                        }
                        Symbol::N(n) => {
                            changed |= union_row(&mut first, words, lhs, n.index());
                            if !nullable[n.index()] {
                                break;
                            }
                        }
                    }
                }
            }
        }

        let first = (0..nt_count)
            .map(|n| TermSet::from_words(first[n * words..(n + 1) * words].to_vec(), t_count))
            .collect();
        GrammarAnalysis { nullable, first }
    }

    /// The FOLLOW set of every nonterminal, indexed by nonterminal. EOF is
    /// in FOLLOW(start) via the augmented production.
    pub fn follow_sets(&self, g: &Grammar) -> Vec<TermSet> {
        let nt_count = g.num_nonterminals();
        let t_count = g.num_terminals();
        let words = t_count.div_ceil(64);
        let mut follow = vec![0u64; nt_count * words];
        let mut changed = true;
        while changed {
            changed = false;
            for (_, p) in g.productions() {
                let rhs = p.rhs();
                for (i, s) in rhs.iter().enumerate() {
                    let Symbol::N(n) = s else { continue };
                    // Terminals derivable right after position i.
                    let mut tail_nullable = true;
                    for t in &rhs[i + 1..] {
                        match t {
                            Symbol::T(term) => {
                                changed |= insert(&mut follow, words, n.index(), *term);
                                tail_nullable = false;
                                break;
                            }
                            Symbol::N(m) => {
                                let first = self.first[m.index()].words();
                                for (k, &f) in first.iter().enumerate() {
                                    let w = &mut follow[n.index() * words + k];
                                    changed |= f & !*w != 0;
                                    *w |= f;
                                }
                                if !self.nullable[m.index()] {
                                    tail_nullable = false;
                                    break;
                                }
                            }
                        }
                    }
                    if tail_nullable {
                        changed |= union_row(&mut follow, words, n.index(), p.lhs().index());
                    }
                }
            }
        }
        (0..nt_count)
            .map(|n| TermSet::from_words(follow[n * words..(n + 1) * words].to_vec(), t_count))
            .collect()
    }

    /// Whether `n` derives the empty string.
    #[inline]
    pub fn nullable(&self, n: NonTerminal) -> bool {
        self.nullable[n.index()]
    }

    /// FIRST set of a nonterminal.
    #[inline]
    pub fn first(&self, n: NonTerminal) -> &TermSet {
        &self.first[n.index()]
    }

    /// FIRST set of a symbol string (e.g. the tail of an item); `nullable_out`
    /// reports whether the whole string can derive ε.
    pub fn first_of_string(&self, g: &Grammar, syms: &[Symbol]) -> (TermSet, bool) {
        let mut out = TermSet::empty(g.num_terminals());
        for s in syms {
            match s {
                Symbol::T(t) => {
                    out.insert(*t);
                    return (out, false);
                }
                Symbol::N(n) => {
                    out.union_with(&self.first[n.index()]);
                    if !self.nullable[n.index()] {
                        return (out, false);
                    }
                }
            }
        }
        (out, true)
    }

    /// FIRST of a single symbol as a fresh set.
    pub fn first_of_symbol(&self, g: &Grammar, s: Symbol) -> TermSet {
        match s {
            Symbol::T(t) => {
                let mut set = TermSet::empty(g.num_terminals());
                set.insert(t);
                set
            }
            Symbol::N(n) => self.first[n.index()].clone(),
        }
    }

    /// Convenience: is terminal `t` in FIRST(`n`)?
    pub fn first_contains(&self, n: NonTerminal, t: Terminal) -> bool {
        self.first[n.index()].contains(t)
    }

    /// Nonterminals `A` reachable from the start symbol with `A =>+ A` — a
    /// *cycle* in the grammar. A cyclic nonterminal derives itself through
    /// unit steps `A -> α B β` where `α` and `β` are nullable, which makes
    /// every sentence it covers infinitely ambiguous: a GLR parse forest
    /// cannot represent the unbounded derivation family, and the reduction
    /// worklist re-derives `A` forever. Table construction refuses such
    /// grammars (`wg-lrtable`'s `TableBuildError::CyclicGrammar`); Earley
    /// recognition still handles them.
    pub fn cyclic_nonterminals(&self, g: &Grammar) -> Vec<NonTerminal> {
        let n = g.num_nonterminals();
        // Reachability from the (augmented) start symbol.
        let mut reachable = vec![false; n];
        reachable[NonTerminal::AUGMENTED_START.index()] = true;
        reachable[g.start().index()] = true;
        let mut changed = true;
        while changed {
            changed = false;
            for (_, p) in g.productions() {
                if !reachable[p.lhs().index()] {
                    continue;
                }
                for s in p.rhs() {
                    if let Symbol::N(m) = s {
                        if !reachable[m.index()] {
                            reachable[m.index()] = true;
                            changed = true;
                        }
                    }
                }
            }
        }
        // Unit-derivation edges A -> B (everything around B nullable).
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (_, p) in g.productions() {
            let rhs = p.rhs();
            for (i, s) in rhs.iter().enumerate() {
                let Symbol::N(b) = s else { continue };
                let rest_nullable = rhs.iter().enumerate().all(|(j, t)| {
                    j == i
                        || match t {
                            Symbol::T(_) => false,
                            Symbol::N(m) => self.nullable[m.index()],
                        }
                });
                if rest_nullable {
                    edges[p.lhs().index()].push(b.index());
                }
            }
        }
        // A is cyclic iff A is reachable from itself through >= 1 edge.
        // `seen[v] == a + 1` marks v as visited in A's search.
        let mut out = Vec::new();
        let mut seen = vec![0usize; n];
        let mut stack: Vec<usize> = Vec::new();
        for a in 0..n {
            if !reachable[a] {
                continue;
            }
            stack.clear();
            stack.extend_from_slice(&edges[a]);
            let mut cyclic = false;
            while let Some(v) = stack.pop() {
                if v == a {
                    cyclic = true;
                    break;
                }
                if seen[v] != a + 1 {
                    seen[v] = a + 1;
                    stack.extend_from_slice(&edges[v]);
                }
            }
            if cyclic {
                out.push(NonTerminal::from_index(a));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GrammarBuilder, Symbol};

    /// The dragon-book 4.x grammar:
    /// E -> T E' ; E' -> + T E' | ε ; T -> F T' ; T' -> * F T' | ε ; F -> ( E ) | id
    fn dragon() -> (Grammar, GrammarAnalysis) {
        let mut b = GrammarBuilder::new("dragon");
        let plus = b.terminal("+");
        let star = b.terminal("*");
        let lp = b.terminal("(");
        let rp = b.terminal(")");
        let id = b.terminal("id");
        let e = b.nonterminal("E");
        let ep = b.nonterminal("E'");
        let t = b.nonterminal("T");
        let tp = b.nonterminal("T'");
        let f = b.nonterminal("F");
        b.prod(e, vec![Symbol::N(t), Symbol::N(ep)]);
        b.prod(ep, vec![Symbol::T(plus), Symbol::N(t), Symbol::N(ep)]);
        b.prod(ep, vec![]);
        b.prod(t, vec![Symbol::N(f), Symbol::N(tp)]);
        b.prod(tp, vec![Symbol::T(star), Symbol::N(f), Symbol::N(tp)]);
        b.prod(tp, vec![]);
        b.prod(f, vec![Symbol::T(lp), Symbol::N(e), Symbol::T(rp)]);
        b.prod(f, vec![Symbol::T(id)]);
        b.start(e);
        let g = b.build().unwrap();
        let a = GrammarAnalysis::new(&g);
        (g, a)
    }

    fn names(g: &Grammar, s: &TermSet) -> Vec<String> {
        s.iter().map(|t| g.terminal_name(t).to_string()).collect()
    }

    #[test]
    fn nullability_matches_dragon_book() {
        let (g, a) = dragon();
        let nt = |n: &str| g.nonterminal_by_name(n).unwrap();
        assert!(!a.nullable(nt("E")));
        assert!(a.nullable(nt("E'")));
        assert!(!a.nullable(nt("T")));
        assert!(a.nullable(nt("T'")));
        assert!(!a.nullable(nt("F")));
    }

    #[test]
    fn first_matches_dragon_book() {
        let (g, a) = dragon();
        let nt = |n: &str| g.nonterminal_by_name(n).unwrap();
        assert_eq!(names(&g, a.first(nt("E"))), vec!["(", "id"]);
        assert_eq!(names(&g, a.first(nt("E'"))), vec!["+"]);
        assert_eq!(names(&g, a.first(nt("T'"))), vec!["*"]);
        assert_eq!(names(&g, a.first(nt("F"))), vec!["(", "id"]);
    }

    #[test]
    fn follow_matches_dragon_book() {
        let (g, a) = dragon();
        let follow = a.follow_sets(&g);
        let nt = |n: &str| &follow[g.nonterminal_by_name(n).unwrap().index()];
        assert_eq!(names(&g, nt("E")), vec!["$eof", ")"]);
        assert_eq!(names(&g, nt("E'")), vec!["$eof", ")"]);
        assert_eq!(names(&g, nt("T")), vec!["$eof", "+", ")"]);
        assert_eq!(names(&g, nt("F")), vec!["$eof", "+", "*", ")"]);
    }

    #[test]
    fn first_of_string_handles_nullable_prefix() {
        let (g, a) = dragon();
        let nt = |n: &str| g.nonterminal_by_name(n).unwrap();
        let t = |n: &str| g.terminal_by_name(n).unwrap();
        let (set, nullable) = a.first_of_string(&g, &[Symbol::N(nt("E'")), Symbol::T(t(")"))]);
        assert!(!nullable);
        assert_eq!(names(&g, &set), vec!["+", ")"]);
        let (set, nullable) = a.first_of_string(&g, &[Symbol::N(nt("E'"))]);
        assert!(nullable);
        assert_eq!(names(&g, &set), vec!["+"]);
        let (set, nullable) = a.first_of_string(&g, &[]);
        assert!(nullable);
        assert!(set.is_empty());
    }

    #[test]
    fn unit_cycle_is_detected() {
        // A -> A | x : the direct self-derivation.
        let mut b = GrammarBuilder::new("cyc");
        let x = b.terminal("x");
        let a = b.nonterminal("A");
        b.prod(a, vec![Symbol::N(a)]);
        b.prod(a, vec![Symbol::T(x)]);
        b.start(a);
        let g = b.build().unwrap();
        let an = GrammarAnalysis::new(&g);
        let cyc = an.cyclic_nonterminals(&g);
        assert_eq!(cyc.len(), 1);
        assert_eq!(g.nonterminal_name(cyc[0]), "A");
    }

    #[test]
    fn nullable_mediated_cycle_is_detected() {
        // S -> A S B | x ; A -> ε ; B -> ε : S =>+ S through nullable ends.
        let mut b = GrammarBuilder::new("cyc2");
        let x = b.terminal("x");
        let s = b.nonterminal("S");
        let a = b.nonterminal("A");
        let bb = b.nonterminal("B");
        b.prod(s, vec![Symbol::N(a), Symbol::N(s), Symbol::N(bb)]);
        b.prod(s, vec![Symbol::T(x)]);
        b.prod(a, vec![]);
        b.prod(bb, vec![]);
        b.start(s);
        let g = b.build().unwrap();
        let an = GrammarAnalysis::new(&g);
        let cyc = an.cyclic_nonterminals(&g);
        assert_eq!(cyc.len(), 1);
        assert_eq!(g.nonterminal_name(cyc[0]), "S");
    }

    #[test]
    fn mutual_unit_cycle_is_detected() {
        // A -> B ; B -> A | x.
        let mut b = GrammarBuilder::new("cyc3");
        let x = b.terminal("x");
        let a = b.nonterminal("A");
        let bn = b.nonterminal("B");
        b.prod(a, vec![Symbol::N(bn)]);
        b.prod(bn, vec![Symbol::N(a)]);
        b.prod(bn, vec![Symbol::T(x)]);
        b.start(a);
        let g = b.build().unwrap();
        let an = GrammarAnalysis::new(&g);
        let names: Vec<&str> = an
            .cyclic_nonterminals(&g)
            .iter()
            .map(|&n| g.nonterminal_name(n))
            .collect();
        assert_eq!(names, ["A", "B"]);
    }

    #[test]
    fn recursion_through_terminals_is_not_a_cycle() {
        // Ordinary left/right recursion is not a cycle: the recursive step
        // consumes input. The dragon grammar is recursion-heavy but acyclic.
        let (g, a) = dragon();
        assert!(a.cyclic_nonterminals(&g).is_empty());
        // E -> ( E ) | x likewise.
        let mut b = GrammarBuilder::new("paren");
        let lp = b.terminal("(");
        let rp = b.terminal(")");
        let x = b.terminal("x");
        let e = b.nonterminal("E");
        b.prod(e, vec![Symbol::T(lp), Symbol::N(e), Symbol::T(rp)]);
        b.prod(e, vec![Symbol::T(x)]);
        b.start(e);
        let g = b.build().unwrap();
        let an = GrammarAnalysis::new(&g);
        assert!(an.cyclic_nonterminals(&g).is_empty());
    }

    #[test]
    fn unreachable_cycles_are_ignored() {
        // Dead -> Dead is a cycle, but no input can ever reach it.
        let mut b = GrammarBuilder::new("dead");
        let x = b.terminal("x");
        let s = b.nonterminal("S");
        let dead = b.nonterminal("Dead");
        b.prod(s, vec![Symbol::T(x)]);
        b.prod(dead, vec![Symbol::N(dead)]);
        b.start(s);
        let g = b.build().unwrap();
        let an = GrammarAnalysis::new(&g);
        assert!(an.cyclic_nonterminals(&g).is_empty());
    }

    #[test]
    fn first_of_symbol() {
        let (g, a) = dragon();
        let t = |n: &str| g.terminal_by_name(n).unwrap();
        let set = a.first_of_symbol(&g, Symbol::T(t("+")));
        assert_eq!(names(&g, &set), vec!["+"]);
        let nt = g.nonterminal_by_name("F").unwrap();
        assert!(a.first_contains(nt, t("id")));
        assert!(!a.first_contains(nt, t("+")));
    }
}
