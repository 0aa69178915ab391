//! Canonical LR(1) construction — implemented only to *measure* the paper's
//! Section 3.3 size argument: LALR(1) tables are significantly smaller than
//! canonical LR(1) tables (and the paper additionally credits LALR's merged
//! cores with faster non-deterministic parsing and better incremental
//! reuse). The parsers in this workspace always run on SLR/LALR tables;
//! this module feeds the `tables` benchmark.

use wg_grammar::fx::{FxHashMap, FxHashSet};
use wg_grammar::{Grammar, GrammarAnalysis, ProdId, Symbol, Terminal};

/// An LR(1) item: `A -> α · β, t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Lr1Item {
    prod: ProdId,
    dot: u32,
    lookahead: Terminal,
}

/// Size metrics of the canonical LR(1) collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lr1Metrics {
    /// Number of canonical LR(1) states.
    pub states: usize,
    /// Total items across all state closures (a proxy for table memory).
    pub items: usize,
}

/// Builds the canonical LR(1) collection for `g` and reports its size.
///
/// Exponential in the worst case; intended for the small-to-medium grammars
/// of this workspace.
pub fn lr1_metrics(g: &Grammar) -> Lr1Metrics {
    let an = GrammarAnalysis::new(g);
    let start = {
        let mut set = vec![Lr1Item {
            prod: ProdId::AUGMENTED,
            dot: 0,
            lookahead: Terminal::EOF,
        }];
        closure(g, &an, &mut set);
        set
    };

    let mut index: FxHashMap<Vec<Lr1Item>, usize> = FxHashMap::default();
    index.insert(start.clone(), 0);
    let mut states = vec![start];
    let mut work = vec![0usize];
    let mut items_total = 0usize;

    while let Some(s) = work.pop() {
        let state = states[s].clone();
        items_total += state.len();
        // Distinct next symbols.
        let mut syms: Vec<Symbol> = state
            .iter()
            .filter_map(|it| g.production(it.prod).rhs().get(it.dot as usize).copied())
            .collect();
        syms.sort_unstable();
        syms.dedup();
        for sym in syms {
            if matches!(sym, Symbol::T(t) if t.is_eof()) {
                continue; // accept transition; no new state needed
            }
            let mut kernel: Vec<Lr1Item> = state
                .iter()
                .filter(|it| g.production(it.prod).rhs().get(it.dot as usize) == Some(&sym))
                .map(|it| Lr1Item {
                    dot: it.dot + 1,
                    ..*it
                })
                .collect();
            closure(g, &an, &mut kernel);
            if !index.contains_key(&kernel) {
                let id = states.len();
                index.insert(kernel.clone(), id);
                states.push(kernel);
                work.push(id);
            }
        }
    }

    Lr1Metrics {
        states: states.len(),
        items: items_total,
    }
}

/// Closes an LR(1) item set in place and canonicalizes it.
fn closure(g: &Grammar, an: &GrammarAnalysis, set: &mut Vec<Lr1Item>) {
    let mut seen: FxHashSet<Lr1Item> = set.iter().copied().collect();
    let mut i = 0;
    while i < set.len() {
        let item = set[i];
        i += 1;
        let rhs = g.production(item.prod).rhs();
        let Some(Symbol::N(b)) = rhs.get(item.dot as usize) else {
            continue;
        };
        // FIRST(β t) for the tail after B.
        let (mut first, nullable) = an.first_of_string(g, &rhs[item.dot as usize + 1..]);
        if nullable {
            first.insert(item.lookahead);
        }
        for p in g.productions_for(*b) {
            for t in first.iter() {
                let new = Lr1Item {
                    prod: p,
                    dot: 0,
                    lookahead: t,
                };
                if seen.insert(new) {
                    set.push(new);
                }
            }
        }
    }
    set.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lr0Automaton, LrTable, TableKind};
    use wg_grammar::{GrammarBuilder, Symbol};

    /// S -> L = R | R ; L -> * R | id ; R -> L — the classic grammar where
    /// canonical LR(1) has more states than LALR(1).
    fn lalr_grammar() -> Grammar {
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
        b.build().unwrap()
    }

    #[test]
    fn lr1_has_more_states_than_lalr() {
        let g = lalr_grammar();
        let lr0 = Lr0Automaton::build(&g);
        let m = lr1_metrics(&g);
        assert!(
            m.states > lr0.num_states(),
            "canonical LR(1) {} must exceed LALR's {} states",
            m.states,
            lr0.num_states()
        );
        assert!(m.items > 0);
        // LALR stays conflict-free, so the state growth buys nothing here.
        assert!(LrTable::build(&g, TableKind::Lalr).is_deterministic());
    }

    #[test]
    fn lr1_equals_lr0_when_no_splitting_needed() {
        // A grammar with disjoint contexts: S -> a | b.
        let mut b = GrammarBuilder::new("g");
        let a = b.terminal("a");
        let bb = b.terminal("b");
        let s = b.nonterminal("S");
        b.prod(s, vec![Symbol::T(a)]);
        b.prod(s, vec![Symbol::T(bb)]);
        b.start(s);
        let g = b.build().unwrap();
        let lr0 = Lr0Automaton::build(&g);
        let m = lr1_metrics(&g);
        // (Modulo the accept state we elide on the EOF transition.)
        assert!(m.states <= lr0.num_states());
    }

    #[test]
    fn metrics_grow_on_real_grammar_shapes() {
        let mut b = GrammarBuilder::new("expr");
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
        let g = b.build().unwrap();
        let lr0 = Lr0Automaton::build(&g);
        let m = lr1_metrics(&g);
        assert!(m.states >= lr0.num_states() - 1);
        assert!(m.states <= 40, "dragon expr grammar is small: {}", m.states);
    }
}
