//! An Earley parser — the classical general-CFG baseline.
//!
//! Footnote 4 of the paper recalls that Tomita and Rekers both benchmarked
//! batch GLR parsing against Earley's algorithm and found GLR markedly
//! faster on (near-LR) programming-language grammars, which is what licenses
//! GLR as the substrate for incremental analysis. This crate reproduces that
//! comparison point: a textbook Earley recognizer (with the worklist
//! treatment that keeps nullable completions correct) plus chart statistics,
//! driven against the same grammars as `wg-glr` in the `glr_vs_earley`
//! benchmark.
//!
//! # Example
//!
//! ```
//! use wg_grammar::{GrammarBuilder, Symbol};
//! use wg_earley::EarleyParser;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = GrammarBuilder::new("expr");
//! let plus = b.terminal("+");
//! let num = b.terminal("num");
//! let e = b.nonterminal("E");
//! b.prod(e, vec![Symbol::N(e), Symbol::T(plus), Symbol::N(e)]);
//! b.prod(e, vec![Symbol::T(num)]);
//! b.start(e);
//! let g = b.build()?;
//! let parser = EarleyParser::new(&g);
//! assert!(parser.recognize(&[num, plus, num]));
//! assert!(!parser.recognize(&[plus, num]));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashSet;
use wg_grammar::{Grammar, GrammarAnalysis, NonTerminal, ProdId, Symbol, Terminal};

/// One Earley item: `lhs -> α · β` started at input position `origin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct EItem {
    prod: ProdId,
    dot: u32,
    origin: u32,
}

/// Chart statistics from one recognition run (work metric for benchmarks).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EarleyStats {
    /// Total items across all chart sets.
    pub items: usize,
    /// Largest single chart set.
    pub max_set: usize,
    /// Whether the input was accepted.
    pub accepted: bool,
}

/// An Earley parser for one grammar.
#[derive(Debug, Clone, Copy)]
pub struct EarleyParser<'a> {
    g: &'a Grammar,
}

impl<'a> EarleyParser<'a> {
    /// Creates a parser for `g`.
    pub fn new(g: &'a Grammar) -> EarleyParser<'a> {
        EarleyParser { g }
    }

    /// Whether `input` is a sentence of the grammar.
    pub fn recognize(&self, input: &[Terminal]) -> bool {
        self.run(input).accepted
    }

    /// Runs the recognizer, returning chart statistics.
    pub fn run(&self, input: &[Terminal]) -> EarleyStats {
        let g = self.g;
        let an = GrammarAnalysis::new(g);
        let n = input.len();
        let mut chart: Vec<Vec<EItem>> = vec![Vec::new(); n + 1];
        let mut in_chart: Vec<HashSet<EItem>> = vec![HashSet::new(); n + 1];

        let start_item = EItem {
            prod: ProdId::AUGMENTED,
            dot: 0,
            origin: 0,
        };
        chart[0].push(start_item);
        in_chart[0].insert(start_item);

        let mut stats = EarleyStats::default();
        for i in 0..=n {
            // Worklist over the growing set i (handles ε-completions).
            let mut w = 0;
            while w < chart[i].len() {
                let item = chart[i][w];
                w += 1;
                let prod = g.production(item.prod);
                match prod.rhs().get(item.dot as usize) {
                    Some(Symbol::T(t)) => {
                        // Scanner. The EOF terminal of the augmented
                        // production is matched virtually at the end.
                        if i < n && input[i] == *t {
                            push(
                                &mut chart,
                                &mut in_chart,
                                i + 1,
                                EItem {
                                    dot: item.dot + 1,
                                    ..item
                                },
                            );
                        } else if i == n && t.is_eof() {
                            push(
                                &mut chart,
                                &mut in_chart,
                                i,
                                EItem {
                                    dot: item.dot + 1,
                                    ..item
                                },
                            );
                        }
                    }
                    Some(Symbol::N(nt)) => {
                        // Predictor.
                        for p in g.productions_for(*nt) {
                            push(
                                &mut chart,
                                &mut in_chart,
                                i,
                                EItem {
                                    prod: p,
                                    dot: 0,
                                    origin: i as u32,
                                },
                            );
                        }
                        // Aycock–Horspool nullable shortcut: if `nt` can
                        // derive ε, advance past it directly. The worklist
                        // alone misses this when the parent enters set i
                        // *after* nt's ε-completion already ran there — the
                        // predicted items dedupe, never re-process, and the
                        // parent stalls (found by differential fuzzing:
                        // `N0 -> N1 N2 b; N1 -> N2; N2 -> ε` rejected `b`).
                        if an.nullable(*nt) {
                            push(
                                &mut chart,
                                &mut in_chart,
                                i,
                                EItem {
                                    dot: item.dot + 1,
                                    ..item
                                },
                            );
                        }
                    }
                    None => {
                        // Completer.
                        let lhs = prod.lhs();
                        let origin = item.origin as usize;
                        // Iterate by index: completion may extend set i
                        // itself when origin == i (ε-completion), and the
                        // worklist picks the new items up.
                        let mut k = 0;
                        while k < chart[origin].len() {
                            let parent = chart[origin][k];
                            k += 1;
                            let p_prod = g.production(parent.prod);
                            if p_prod.rhs().get(parent.dot as usize) == Some(&Symbol::N(lhs)) {
                                push(
                                    &mut chart,
                                    &mut in_chart,
                                    i,
                                    EItem {
                                        dot: parent.dot + 1,
                                        ..parent
                                    },
                                );
                            }
                        }
                    }
                }
            }
            stats.max_set = stats.max_set.max(chart[i].len());
        }
        stats.items = chart.iter().map(|s| s.len()).sum();
        // Accept: S' -> S eof · at position n with origin 0.
        stats.accepted = chart[n].iter().any(|it| {
            it.prod == ProdId::AUGMENTED
                && it.origin == 0
                && it.dot as usize == self.g.production(ProdId::AUGMENTED).arity()
        });
        stats
    }

    /// Counts complete derivations of `nt` spanning the whole input — a
    /// cross-check for the dag's ambiguity packing on *small* inputs
    /// (exponential in the worst case; test use only). The count saturates
    /// at `u128::MAX`, so it is exact below 2^128.
    pub fn count_parses(&self, input: &[Terminal], nt: NonTerminal) -> u128 {
        count(
            self.g,
            input,
            nt,
            0,
            input.len(),
            &mut std::collections::HashMap::new(),
            &mut std::collections::HashMap::new(),
        )
        .0
    }
}

/// Depth below which nothing on the visiting stack was touched: the
/// value is self-contained and safe to memoize.
const CLEAN: usize = usize::MAX;

/// Memoized count of derivations of `nt` over `input[i..j)`.
///
/// The second component is the shallowest visiting-stack depth the value
/// depends on (`CLEAN` when it was computed without hitting the
/// re-entrancy cut-off below). A count truncated by the cut is correct
/// along the current recursion path but depends on which keys happened
/// to be on the stack — memoizing it unconditionally poisoned later
/// queries made in acyclic contexts (found by differential fuzzing:
/// `N0 -> N1 | ε; N1 -> a N2 a | N0 b; N2 -> N1` undercounted `a b b a`
/// to zero), while never memoizing any truncated value made the search
/// exponential on ε-heavy grammars whose *search* graph is cyclic even
/// though no completed derivation is (also found by fuzzing, as a hang).
/// The Tarjan-lowlink-style middle ground: a value is memoized once it
/// depends on no stack frame *shallower than its own* — at that point
/// every cut it absorbed was a search cycle back to this very key, and
/// for non-cyclic grammars (the only ones whose tables build; `A =>+ A`
/// is refused upstream) such a cycle can complete no derivation, so the
/// truncation dropped only zero-count paths and the value is
/// context-independent.
fn count(
    g: &Grammar,
    input: &[Terminal],
    nt: NonTerminal,
    i: usize,
    j: usize,
    memo: &mut std::collections::HashMap<(u32, usize, usize), u128>,
    visiting: &mut std::collections::HashMap<(u32, usize, usize), usize>,
) -> (u128, usize) {
    let key = (nt.index() as u32, i, j);
    if let Some(&c) = memo.get(&key) {
        return (c, CLEAN);
    }
    if let Some(&depth) = visiting.get(&key) {
        return (0, depth); // re-entered an in-flight key: cut the search
    }
    let my_depth = visiting.len();
    visiting.insert(key, my_depth);
    let mut total = 0;
    let mut dep = CLEAN;
    for p in g.productions_for(nt) {
        let (c, d) = count_rhs(g, input, g.production(p).rhs(), i, j, memo, visiting);
        total = c.saturating_add(total);
        dep = dep.min(d);
    }
    visiting.remove(&key);
    if dep >= my_depth {
        memo.insert(key, total);
        dep = CLEAN; // self-cycles resolved; nothing below my frame touched
    }
    (total, dep)
}

fn count_rhs(
    g: &Grammar,
    input: &[Terminal],
    rhs: &[Symbol],
    i: usize,
    j: usize,
    memo: &mut std::collections::HashMap<(u32, usize, usize), u128>,
    visiting: &mut std::collections::HashMap<(u32, usize, usize), usize>,
) -> (u128, usize) {
    match rhs.first() {
        None => (u128::from(i == j), CLEAN),
        Some(Symbol::T(t)) => {
            if i < j && input[i] == *t {
                count_rhs(g, input, &rhs[1..], i + 1, j, memo, visiting)
            } else {
                (0, CLEAN)
            }
        }
        Some(Symbol::N(n)) => {
            let mut total = 0;
            let mut dep = CLEAN;
            for k in i..=j {
                let (left, ld) = count(g, input, *n, i, k, memo, visiting);
                dep = dep.min(ld);
                if left > 0 {
                    let (right, rd) = count_rhs(g, input, &rhs[1..], k, j, memo, visiting);
                    total = left.saturating_mul(right).saturating_add(total);
                    dep = dep.min(rd);
                }
            }
            (total, dep)
        }
    }
}

fn push(chart: &mut [Vec<EItem>], in_chart: &mut [HashSet<EItem>], i: usize, item: EItem) {
    if in_chart[i].insert(item) {
        chart[i].push(item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_grammar::GrammarBuilder;

    fn amb_expr() -> Grammar {
        let mut b = GrammarBuilder::new("amb");
        let plus = b.terminal("+");
        let num = b.terminal("num");
        let e = b.nonterminal("E");
        b.prod(e, vec![Symbol::N(e), Symbol::T(plus), Symbol::N(e)]);
        b.prod(e, vec![Symbol::T(num)]);
        b.start(e);
        b.build().unwrap()
    }

    #[test]
    fn recognizes_and_rejects() {
        let g = amb_expr();
        let p = EarleyParser::new(&g);
        let num = g.terminal_by_name("num").unwrap();
        let plus = g.terminal_by_name("+").unwrap();
        assert!(p.recognize(&[num]));
        assert!(p.recognize(&[num, plus, num, plus, num]));
        assert!(!p.recognize(&[num, plus]));
        assert!(!p.recognize(&[plus]));
        assert!(!p.recognize(&[]));
    }

    #[test]
    fn epsilon_grammars_work() {
        // S -> A x A ; A -> ε | a
        let mut b = GrammarBuilder::new("eps");
        let x = b.terminal("x");
        let a_t = b.terminal("a");
        let s = b.nonterminal("S");
        let a_n = b.nonterminal("A");
        b.prod(s, vec![Symbol::N(a_n), Symbol::T(x), Symbol::N(a_n)]);
        b.prod(a_n, vec![]);
        b.prod(a_n, vec![Symbol::T(a_t)]);
        b.start(s);
        let g = b.build().unwrap();
        let p = EarleyParser::new(&g);
        assert!(p.recognize(&[x]));
        assert!(p.recognize(&[a_t, x]));
        assert!(p.recognize(&[a_t, x, a_t]));
        assert!(!p.recognize(&[a_t]));
    }

    #[test]
    fn nullable_cascade() {
        // The Aycock–Horspool stress case: S -> A A A ; A -> ε | a.
        let mut b = GrammarBuilder::new("nul");
        let a_t = b.terminal("a");
        let s = b.nonterminal("S");
        let a_n = b.nonterminal("A");
        b.prod(s, vec![Symbol::N(a_n), Symbol::N(a_n), Symbol::N(a_n)]);
        b.prod(a_n, vec![]);
        b.prod(a_n, vec![Symbol::T(a_t)]);
        b.start(s);
        let g = b.build().unwrap();
        let p = EarleyParser::new(&g);
        assert!(p.recognize(&[]));
        assert!(p.recognize(&[a_t]));
        assert!(p.recognize(&[a_t, a_t, a_t]));
        assert!(!p.recognize(&[a_t, a_t, a_t, a_t]));
    }

    #[test]
    fn parse_counts_are_catalan() {
        let g = amb_expr();
        let p = EarleyParser::new(&g);
        let num = g.terminal_by_name("num").unwrap();
        let plus = g.terminal_by_name("+").unwrap();
        let e = g.nonterminal_by_name("E").unwrap();
        let input = |k: usize| {
            let mut v = vec![num];
            for _ in 0..k {
                v.push(plus);
                v.push(num);
            }
            v
        };
        assert_eq!(p.count_parses(&input(0), e), 1);
        assert_eq!(p.count_parses(&input(1), e), 1);
        assert_eq!(p.count_parses(&input(2), e), 2);
        assert_eq!(p.count_parses(&input(3), e), 5);
        assert_eq!(p.count_parses(&input(4), e), 14);
    }

    #[test]
    fn agrees_with_glr_on_lr2_grammar() {
        let mut b = GrammarBuilder::new("lr2");
        let x = b.terminal("x");
        let z = b.terminal("z");
        let c = b.terminal("c");
        let e_t = b.terminal("e");
        let a_nt = b.nonterminal("A");
        let b_nt = b.nonterminal("B");
        let d_nt = b.nonterminal("D");
        let u_nt = b.nonterminal("U");
        let v_nt = b.nonterminal("V");
        b.prod(a_nt, vec![Symbol::N(b_nt), Symbol::T(c)]);
        b.prod(a_nt, vec![Symbol::N(d_nt), Symbol::T(e_t)]);
        b.prod(b_nt, vec![Symbol::N(u_nt), Symbol::T(z)]);
        b.prod(d_nt, vec![Symbol::N(v_nt), Symbol::T(z)]);
        b.prod(u_nt, vec![Symbol::T(x)]);
        b.prod(v_nt, vec![Symbol::T(x)]);
        b.start(a_nt);
        let g = b.build().unwrap();
        let p = EarleyParser::new(&g);
        assert!(p.recognize(&[x, z, c]));
        assert!(p.recognize(&[x, z, e_t]));
        assert!(!p.recognize(&[x, z]));
        assert!(!p.recognize(&[x, z, c, c]));
    }

    #[test]
    fn stats_populate() {
        let g = amb_expr();
        let p = EarleyParser::new(&g);
        let num = g.terminal_by_name("num").unwrap();
        let plus = g.terminal_by_name("+").unwrap();
        let mut input = vec![num];
        for _ in 0..10 {
            input.push(plus);
            input.push(num);
        }
        let stats = p.run(&input);
        assert!(stats.accepted);
        assert!(stats.items > input.len());
        assert!(stats.max_set > 2);
    }
}

/// A derivation tree extracted by [`EarleyParser::first_parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Derivation {
    /// A consumed terminal.
    Leaf(Terminal),
    /// A production instance over its children.
    Node {
        /// The production applied.
        prod: ProdId,
        /// Children in yield order.
        children: Vec<Derivation>,
    },
}

impl Derivation {
    /// The terminals of this derivation, in order.
    pub fn fringe(&self) -> Vec<Terminal> {
        let mut out = Vec::new();
        self.collect_fringe(&mut out);
        out
    }

    fn collect_fringe(&self, out: &mut Vec<Terminal>) {
        match self {
            Derivation::Leaf(t) => out.push(*t),
            Derivation::Node { children, .. } => {
                for c in children {
                    c.collect_fringe(out);
                }
            }
        }
    }

    /// Preorder sequence of productions (a canonical shape fingerprint).
    pub fn production_preorder(&self) -> Vec<ProdId> {
        let mut out = Vec::new();
        self.collect_preorder(&mut out);
        out
    }

    fn collect_preorder(&self, out: &mut Vec<ProdId>) {
        if let Derivation::Node { prod, children } = self {
            out.push(*prod);
            for c in children {
                c.collect_preorder(out);
            }
        }
    }
}

impl<'a> EarleyParser<'a> {
    /// Extracts *one* derivation of the whole input from the start symbol
    /// (`None` if the input is not a sentence). On ambiguous inputs an
    /// arbitrary derivation is returned; use [`EarleyParser::count_parses`]
    /// to detect ambiguity. Exponential in pathological cases — intended
    /// for cross-checking on test-sized inputs.
    pub fn first_parse(&self, input: &[Terminal]) -> Option<Derivation> {
        let mut visiting = HashSet::new();
        self.derive_nt(self.g.start(), input, 0, input.len(), &mut visiting)
    }

    fn derive_nt(
        &self,
        nt: NonTerminal,
        input: &[Terminal],
        i: usize,
        j: usize,
        visiting: &mut HashSet<(u32, usize, usize)>,
    ) -> Option<Derivation> {
        let key = (nt.index() as u32, i, j);
        if !visiting.insert(key) {
            return None; // cyclic derivation guard
        }
        let result = self.g.productions_for(nt).find_map(|p| {
            self.derive_rhs(self.g.production(p).rhs(), input, i, j, visiting)
                .map(|children| Derivation::Node { prod: p, children })
        });
        visiting.remove(&key);
        result
    }

    fn derive_rhs(
        &self,
        rhs: &[Symbol],
        input: &[Terminal],
        i: usize,
        j: usize,
        visiting: &mut HashSet<(u32, usize, usize)>,
    ) -> Option<Vec<Derivation>> {
        match rhs.first() {
            None => (i == j).then(Vec::new),
            Some(Symbol::T(t)) => {
                if i < j && input[i] == *t {
                    let mut rest = self.derive_rhs(&rhs[1..], input, i + 1, j, visiting)?;
                    rest.insert(0, Derivation::Leaf(*t));
                    Some(rest)
                } else {
                    None
                }
            }
            Some(Symbol::N(n)) => (i..=j).find_map(|k| {
                let left = self.derive_nt(*n, input, i, k, visiting)?;
                let mut rest = self.derive_rhs(&rhs[1..], input, k, j, visiting)?;
                rest.insert(0, left);
                Some(rest)
            }),
        }
    }
}

#[cfg(test)]
mod derivation_tests {
    use super::*;
    use wg_grammar::GrammarBuilder;

    fn paren() -> Grammar {
        let mut b = GrammarBuilder::new("p");
        let lp = b.terminal("(");
        let rp = b.terminal(")");
        let x = b.terminal("x");
        let s = b.nonterminal("S");
        b.prod(s, vec![Symbol::T(lp), Symbol::N(s), Symbol::T(rp)]);
        b.prod(s, vec![Symbol::T(x)]);
        b.start(s);
        b.build().unwrap()
    }

    #[test]
    fn first_parse_roundtrips_the_input() {
        let g = paren();
        let p = EarleyParser::new(&g);
        let lp = g.terminal_by_name("(").unwrap();
        let rp = g.terminal_by_name(")").unwrap();
        let x = g.terminal_by_name("x").unwrap();
        let input = vec![lp, lp, x, rp, rp];
        let d = p.first_parse(&input).expect("parses");
        assert_eq!(d.fringe(), input);
        assert_eq!(
            d.production_preorder().len(),
            3,
            "S twice nested + leaf rule"
        );
    }

    #[test]
    fn first_parse_rejects_non_sentences() {
        let g = paren();
        let p = EarleyParser::new(&g);
        let lp = g.terminal_by_name("(").unwrap();
        let x = g.terminal_by_name("x").unwrap();
        assert!(p.first_parse(&[lp, x]).is_none());
        assert!(p.first_parse(&[]).is_none());
    }

    #[test]
    fn epsilon_derivations_extract() {
        // S -> A x ; A -> ε | a
        let mut b = GrammarBuilder::new("eps");
        let x = b.terminal("x");
        let a_t = b.terminal("a");
        let s = b.nonterminal("S");
        let a_n = b.nonterminal("A");
        b.prod(s, vec![Symbol::N(a_n), Symbol::T(x)]);
        b.prod(a_n, vec![]);
        b.prod(a_n, vec![Symbol::T(a_t)]);
        b.start(s);
        let g = b.build().unwrap();
        let p = EarleyParser::new(&g);
        let d = p.first_parse(&[x]).expect("ε branch");
        assert_eq!(d.fringe(), vec![x]);
        let d2 = p.first_parse(&[a_t, x]).expect("a branch");
        assert_eq!(d2.fringe(), vec![a_t, x]);
        assert_ne!(d.production_preorder(), d2.production_preorder());
    }
}
