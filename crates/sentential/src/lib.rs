//! Deterministic incremental LR parsing — the paper's baseline.
//!
//! Section 5 of the paper compares the IGLR parser against Ensemble's
//! existing *deterministic* incremental parser. This crate provides that
//! baseline: a single-stack, state-matching incremental LR parser in the
//! Jalili–Gallier tradition, sharing the dag representation and input-stream
//! machinery with the IGLR parser so the two are directly comparable.
//!
//! (Ensemble's production baseline used sentential-form parsing, which needs
//! no per-node parse states; we reproduce its *space* advantage analytically
//! via [`wg_dag::DagStats`]'s `bytes_without_states`, and its *time*
//! behaviour with this state-matching implementation — the paper itself
//! notes the two deterministic techniques differ mainly in space, and that
//! state-matching is the one that generalizes to IGLR.)
//!
//! The parser requires a conflict-free table: any grammar non-determinism is
//! a hard error here (that is the point of the baseline — what IGLR buys you
//! is precisely the removal of this restriction).
//!
//! # Example
//!
//! ```
//! use wg_grammar::{GrammarBuilder, Symbol};
//! use wg_lrtable::{LrTable, TableKind};
//! use wg_sentential::IncLrParser;
//! use wg_dag::DagArena;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = GrammarBuilder::new("list");
//! let x = b.terminal("x");
//! let s = b.nonterminal("S");
//! b.prod(s, vec![Symbol::N(s), Symbol::T(x)]);
//! b.prod(s, vec![Symbol::T(x)]);
//! b.start(s);
//! let g = b.build()?;
//! let table = LrTable::build(&g, TableKind::Lalr);
//! let parser = IncLrParser::new(&g, &table)?;
//!
//! let mut arena = DagArena::new();
//! let root = parser.parse_tokens(&mut arena, vec![(x, "x"), (x, "x")])?;
//! assert_eq!(wg_dag::yield_string(&arena, root), "x x");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use wg_dag::{
    rebalance_sequences, unshare_epsilon, DagArena, FxHashMap, InputStream, NodeId, NodeKind,
    ParseState,
};
use wg_glr::TablePolicy;
use wg_grammar::{Grammar, ProdId, Terminal};
use wg_lrtable::{Action, LrTable, StateId};

/// Errors from the deterministic incremental parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IncParseError {
    /// The table has conflicts; use the IGLR parser instead.
    NotDeterministic {
        /// How many conflicted cells the table holds.
        conflicts: usize,
    },
    /// No action is defined for the current state and lookahead.
    SyntaxError {
        /// Number of terminals successfully consumed before the error.
        consumed: usize,
        /// The offending terminal.
        terminal: Terminal,
    },
}

impl fmt::Display for IncParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IncParseError::NotDeterministic { conflicts } => {
                write!(f, "grammar is not deterministic ({conflicts} conflicts)")
            }
            IncParseError::SyntaxError { consumed, .. } => {
                write!(f, "syntax error after {consumed} tokens")
            }
        }
    }
}

impl std::error::Error for IncParseError {}

/// Counters for one (re)parse, used by the Section 5 benchmarks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IncRunStats {
    /// Terminal symbols shifted individually.
    pub terminal_shifts: usize,
    /// Non-trivial subtrees reused whole via state matching.
    pub subtree_shifts: usize,
    /// Sequence runs spliced without state change.
    pub run_shifts: usize,
    /// Reductions performed.
    pub reductions: usize,
    /// Subtrees decomposed because reuse failed.
    pub breakdowns: usize,
}

/// A deterministic, state-matching incremental LR parser.
#[derive(Debug, Clone, Copy)]
pub struct IncLrParser<'a> {
    g: &'a Grammar,
    table: &'a LrTable,
}

impl<'a> IncLrParser<'a> {
    /// Creates the parser.
    ///
    /// # Errors
    ///
    /// Returns [`IncParseError::NotDeterministic`] if the table retains any
    /// conflict.
    pub fn new(g: &'a Grammar, table: &'a LrTable) -> Result<IncLrParser<'a>, IncParseError> {
        if !table.is_deterministic() {
            return Err(IncParseError::NotDeterministic {
                conflicts: table.conflicts().remaining.len(),
            });
        }
        Ok(IncLrParser { g, table })
    }

    /// Batch-parses a fresh token sequence, returning the new super-root.
    ///
    /// # Errors
    ///
    /// Returns [`IncParseError::SyntaxError`] on invalid input.
    pub fn parse_tokens<'t>(
        &self,
        arena: &mut DagArena,
        tokens: impl IntoIterator<Item = (Terminal, &'t str)>,
    ) -> Result<NodeId, IncParseError> {
        arena.begin_epoch();
        let nodes: Vec<NodeId> = tokens
            .into_iter()
            .map(|(t, s)| arena.terminal(t, s))
            .collect();
        // Borrow an EOS from a placeholder root, reused as the real root.
        let placeholder = arena.production(ProdId::AUGMENTED, ParseState::NONE, &[]);
        let root = arena.root(placeholder);
        let eos = arena.kids(root)[2];
        let stream = InputStream::over_terminals(arena, &nodes, eos);
        let (body, _stats) = self.drive(arena, stream)?;
        arena.set_root_body(root, body);
        self.finish(arena, root);
        Ok(root)
    }

    /// Incrementally reparses the previous tree after damage marking, with
    /// `replacements` mapping modified terminals to their relexed
    /// successors and `appended` holding terminals inserted at the very end.
    /// On success the root is reused (its body is swapped).
    ///
    /// # Errors
    ///
    /// Returns [`IncParseError::SyntaxError`] if the modified input no
    /// longer parses; the previous tree is left intact.
    pub fn reparse(
        &self,
        arena: &mut DagArena,
        root: NodeId,
        replacements: FxHashMap<NodeId, Vec<NodeId>>,
        appended: &[NodeId],
    ) -> Result<IncRunStats, IncParseError> {
        arena.begin_epoch();
        let mut stream = InputStream::over_tree(arena, root, replacements);
        stream.append_before_eos(arena, appended);
        let (body, stats) = match self.drive(arena, stream) {
            Ok(ok) => ok,
            Err(e) => {
                // The previous tree stays authoritative: restore the parent
                // chains and recorded states this attempt overwrote while
                // retaining reused nodes.
                arena.rollback_epoch();
                return Err(e);
            }
        };
        arena.set_root_body(root, body);
        self.finish(arena, root);
        Ok(stats)
    }

    fn finish(&self, arena: &mut DagArena, root: NodeId) {
        arena.refresh_parents(root);
        unshare_epsilon(arena, root);
        rebalance_sequences(
            arena,
            root,
            &TablePolicy {
                g: self.g,
                table: self.table,
            },
        );
    }

    /// The main loop: state-matching shifts, table-driven reductions.
    fn drive(
        &self,
        arena: &mut DagArena,
        mut stream: InputStream,
    ) -> Result<(NodeId, IncRunStats), IncParseError> {
        let mut stats = IncRunStats::default();
        // Parse stack: (state entered after pushing, node).
        let mut stack: Vec<(StateId, NodeId)> = Vec::new();
        let start = self.table.start_state();

        loop {
            let state = stack.last().map_or(start, |e| e.0);
            // Default-reduce fast path: a uniform-reduce state performs its
            // one possible move without examining the lookahead at all — no
            // cell fetch, and no breakdown of a subtree lookahead to find
            // its leading terminal. (Such a state has no shifts and no
            // gotos, so no shift/splice opportunity is ever skipped.)
            if let Some(rule) = self.table.default_reduction(state) {
                self.reduce(arena, &mut stack, rule, &mut stats)?;
                continue;
            }
            let Some(la) = stream.la() else {
                return Err(IncParseError::SyntaxError {
                    consumed: stats.terminal_shifts,
                    terminal: Terminal::EOF,
                });
            };

            match arena.kind(la) {
                NodeKind::Terminal { .. } | NodeKind::Eos => {
                    let term = match arena.kind(la) {
                        NodeKind::Terminal { term, .. } => *term,
                        _ => Terminal::EOF,
                    };
                    let actions = self.table.actions(state, term);
                    match actions.first() {
                        Some(Action::Shift(s)) => {
                            stack.push((s, la));
                            stream.pop(arena);
                            stats.terminal_shifts += 1;
                        }
                        Some(Action::Reduce(r)) => {
                            self.reduce(arena, &mut stack, r, &mut stats)?;
                        }
                        Some(Action::Accept) => {
                            let (_, body) = stack.pop().expect("accept with body on stack");
                            return Ok((body, stats));
                        }
                        None => {
                            return Err(IncParseError::SyntaxError {
                                consumed: stats.terminal_shifts,
                                terminal: term,
                            });
                        }
                    }
                }
                NodeKind::SeqRun { .. } => {
                    if arena.state(la) == ParseState(state.0) {
                        // A run leaves the parse state unchanged: splice it
                        // into the open sequence on top of the stack.
                        let (top_state, top_node) =
                            *stack.last().expect("run state implies L on stack");
                        debug_assert_eq!(top_state, state);
                        let merged = self.merge_run(arena, top_node, la);
                        stack.last_mut().expect("nonempty").1 = merged;
                        stream.pop(arena);
                        stats.run_shifts += 1;
                    } else if let Some(r) = self.pending_reduction(arena, &stream, state) {
                        self.reduce(arena, &mut stack, r, &mut stats)?;
                    } else {
                        stream.left_breakdown(arena);
                        stats.breakdowns += 1;
                    }
                }
                NodeKind::Production { .. } | NodeKind::Sequence { .. } => {
                    let sym = arena
                        .kind(la)
                        .nonterminal_of(|p| self.g.production(p).lhs())
                        .expect("productions and sequences have a symbol");
                    // Left-context check (state match) + shiftability.
                    if arena.state(la) == ParseState(state.0) {
                        if let Some(target) = self.table.goto(state, sym) {
                            stack.push((target, la));
                            stream.pop(arena);
                            stats.subtree_shifts += 1;
                            continue;
                        }
                    }
                    // Precomputed nonterminal reductions (Section 3.2)...
                    if let Some(reds) = self.table.nt_reductions(state, sym) {
                        if let Some(&r) = reds.first() {
                            self.reduce(arena, &mut stack, r, &mut stats)?;
                            continue;
                        }
                    }
                    // ...falling back to the leading terminal (`redLa`).
                    if let Some(r) = self.pending_reduction(arena, &stream, state) {
                        self.reduce(arena, &mut stack, r, &mut stats)?;
                        continue;
                    }
                    stream.left_breakdown(arena);
                    stats.breakdowns += 1;
                }
                NodeKind::Symbol { .. } => {
                    // Choice nodes never occur in deterministic parses of
                    // our own output, but an ambiguous region inherited from
                    // a GLR parse simply decomposes.
                    stream.left_breakdown(arena);
                    stats.breakdowns += 1;
                }
                NodeKind::Root | NodeKind::Bos => unreachable!("stream never yields sentinels"),
            }
        }
    }

    /// The reduction commanded by the leading terminal of the upcoming
    /// input (the paper's `redLa`), if any.
    fn pending_reduction(
        &self,
        arena: &DagArena,
        stream: &InputStream,
        state: StateId,
    ) -> Option<ProdId> {
        let redla = stream.reduction_terminal(arena);
        match self.table.actions(state, redla).first() {
            Some(Action::Reduce(r)) => Some(r),
            _ => None,
        }
    }

    fn reduce(
        &self,
        arena: &mut DagArena,
        stack: &mut Vec<(StateId, NodeId)>,
        rule: ProdId,
        stats: &mut IncRunStats,
    ) -> Result<(), IncParseError> {
        stats.reductions += 1;
        let arity = self.g.production(rule).arity();
        debug_assert!(stack.len() >= arity, "stack underflow in reduction");
        let kids: Vec<NodeId> = stack.drain(stack.len() - arity..).map(|(_, n)| n).collect();
        let preceding = stack.last().map_or(self.table.start_state(), |e| e.0);
        let lhs = self.g.production(rule).lhs();
        let node = wg_glr::build_reduction_node(
            arena,
            self.g,
            rule,
            &kids,
            ParseState(preceding.0),
            false,
        );
        let Some(target) = self.table.goto(preceding, lhs) else {
            return Err(IncParseError::SyntaxError {
                consumed: stats.terminal_shifts,
                terminal: Terminal::EOF,
            });
        };
        stack.push((target, node));
        Ok(())
    }

    /// Splices a sequence run into the open sequence `top`, reusing the
    /// container in place when it belongs to the current epoch.
    fn merge_run(&self, arena: &mut DagArena, top: NodeId, run: NodeId) -> NodeId {
        let current =
            arena.is_current_epoch(top) && matches!(arena.kind(top), NodeKind::Sequence { .. });
        if current {
            arena.seq_append(top, &[run]);
            top
        } else {
            let sym = match arena.kind(run) {
                NodeKind::SeqRun { symbol } => *symbol,
                _ => unreachable!("merge_run called on a run"),
            };
            arena.sequence(sym, arena.state(top), &[top, run])
        }
    }
}

#[cfg(test)]
mod nonassoc_tests {
    use super::*;
    use wg_dag::DagArena;
    use wg_grammar::{Grammar, GrammarBuilder, Symbol};
    use wg_lrtable::{LrTable, TableKind};

    fn nonassoc_cmp() -> Grammar {
        // E -> E < E | num with %nonassoc < : `a < b < c` is a syntax
        // error by declaration.
        let mut b = GrammarBuilder::new("na");
        let lt = b.terminal("<");
        let num = b.terminal("num");
        b.nonassoc(&[lt]);
        let e = b.nonterminal("E");
        b.prod(e, vec![Symbol::N(e), Symbol::T(lt), Symbol::N(e)]);
        b.prod(e, vec![Symbol::T(num)]);
        b.start(e);
        b.build().unwrap()
    }

    #[test]
    fn nonassoc_chain_is_rejected_not_defaulted_through() {
        // Regression (fuzz corpus `nonassoc-default-reduce`): the `E < E ·`
        // state used to carry a default reduction, so the deterministic
        // incremental parser reduced straight past the %nonassoc error
        // cell and *accepted* `num < num < num` while GLR rejected it.
        let g = nonassoc_cmp();
        let table = LrTable::build(&g, TableKind::Lalr);
        let p = IncLrParser::new(&g, &table).expect("nonassoc grammar is deterministic");
        let lt = g.terminal_by_name("<").unwrap();
        let num = g.terminal_by_name("num").unwrap();

        let mut arena = DagArena::new();
        let ok = p.parse_tokens(&mut arena, vec![(num, "1"), (lt, "<"), (num, "2")]);
        assert!(ok.is_ok(), "a single comparison parses");

        let mut arena = DagArena::new();
        let chain = vec![(num, "1"), (lt, "<"), (num, "2"), (lt, "<"), (num, "3")];
        assert!(
            p.parse_tokens(&mut arena, chain).is_err(),
            "chained nonassoc comparison must be a syntax error"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_dag::{structurally_equal, yield_string, DagStats};
    use wg_grammar::{GrammarBuilder, SeqKind, Symbol};
    use wg_lrtable::TableKind;

    struct Lang {
        g: Grammar,
        table: LrTable,
    }

    fn seq_lang() -> Lang {
        // prog = stmt+ ; stmt = id = num ;
        let mut b = GrammarBuilder::new("seqlang");
        let id = b.terminal("id");
        let eq = b.terminal("=");
        let num = b.terminal("num");
        let semi = b.terminal(";");
        let stmt = b.nonterminal("stmt");
        let prog = b.nonterminal("prog");
        b.prod(
            stmt,
            vec![
                Symbol::T(id),
                Symbol::T(eq),
                Symbol::T(num),
                Symbol::T(semi),
            ],
        );
        b.sequence(prog, Symbol::N(stmt), SeqKind::Plus, None);
        b.start(prog);
        let g = b.build().unwrap();
        let table = LrTable::build(&g, TableKind::Lalr);
        Lang { g, table }
    }

    fn toks(lang: &Lang, words: &[&str]) -> Vec<(Terminal, String)> {
        words
            .iter()
            .map(|w| {
                let name = if w.chars().all(|c| c.is_ascii_digit()) {
                    "num"
                } else if *w == "=" || *w == ";" {
                    w
                } else {
                    "id"
                };
                (lang.g.terminal_by_name(name).unwrap(), w.to_string())
            })
            .collect()
    }

    fn stmt_words(n: usize) -> Vec<String> {
        (0..n)
            .flat_map(|i| vec![format!("v{i}"), "=".into(), format!("{i}"), ";".into()])
            .collect()
    }

    fn collect_terminals(arena: &DagArena, root: NodeId) -> Vec<NodeId> {
        fn rec(a: &DagArena, n: NodeId, out: &mut Vec<NodeId>) {
            match a.kind(n) {
                NodeKind::Terminal { .. } => out.push(n),
                NodeKind::Bos | NodeKind::Eos => {}
                _ => {
                    for &k in a.kids(n) {
                        rec(a, k, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        rec(arena, root, &mut out);
        out
    }

    #[test]
    fn rejects_nondeterministic_tables() {
        let mut b = GrammarBuilder::new("amb");
        let plus = b.terminal("+");
        let num = b.terminal("num");
        let e = b.nonterminal("E");
        b.prod(e, vec![Symbol::N(e), Symbol::T(plus), Symbol::N(e)]);
        b.prod(e, vec![Symbol::T(num)]);
        b.start(e);
        let g = b.build().unwrap();
        let t = LrTable::build(&g, TableKind::Lalr);
        assert!(matches!(
            IncLrParser::new(&g, &t),
            Err(IncParseError::NotDeterministic { .. })
        ));
    }

    #[test]
    fn batch_parse_builds_balanced_sequences() {
        let lang = seq_lang();
        let parser = IncLrParser::new(&lang.g, &lang.table).unwrap();
        let mut arena = DagArena::new();
        let words = stmt_words(50);
        let tokens = toks(&lang, &words.iter().map(|s| s.as_str()).collect::<Vec<_>>());
        let root = parser
            .parse_tokens(&mut arena, tokens.iter().map(|(t, s)| (*t, s.as_str())))
            .unwrap();
        assert_eq!(arena.width(root), 200);
        let body = arena.kids(root)[1];
        assert!(wg_dag::sequence_depth(&arena, body) <= 14);
        assert_eq!(DagStats::compute(&arena, root).choice_points, 0);
    }

    #[test]
    fn syntax_errors_are_reported() {
        let lang = seq_lang();
        let parser = IncLrParser::new(&lang.g, &lang.table).unwrap();
        let mut arena = DagArena::new();
        let tokens = toks(&lang, &["x", "=", "=", ";"]);
        let err = parser
            .parse_tokens(&mut arena, tokens.iter().map(|(t, s)| (*t, s.as_str())))
            .unwrap_err();
        assert!(matches!(
            err,
            IncParseError::SyntaxError { consumed: 2, .. }
        ));
    }

    /// Full pipeline for reparse tests: parse, replace one token's node,
    /// reparse, compare against from-scratch.
    fn edit_roundtrip(n_stmts: usize, edit_stmt: usize) -> (IncRunStats, bool) {
        let lang = seq_lang();
        let parser = IncLrParser::new(&lang.g, &lang.table).unwrap();
        let mut arena = DagArena::new();
        let words = stmt_words(n_stmts);
        let tokens = toks(&lang, &words.iter().map(|s| s.as_str()).collect::<Vec<_>>());
        let root = parser
            .parse_tokens(&mut arena, tokens.iter().map(|(t, s)| (*t, s.as_str())))
            .unwrap();

        // Edit: rename the identifier of statement `edit_stmt`.
        let term_index = edit_stmt * 4;
        let old_terms = collect_terminals(&arena, root);
        let victim = old_terms[term_index];
        let id_t = lang.g.terminal_by_name("id").unwrap();
        let fresh = arena.terminal(id_t, "renamed");
        arena.mark_changed(victim);
        if term_index > 0 {
            arena.mark_following(old_terms[term_index - 1]);
        }
        let mut reps = FxHashMap::default();
        reps.insert(victim, vec![fresh]);
        let stats = parser.reparse(&mut arena, root, reps, &[]).unwrap();
        arena.clear_changes();

        // Reference: from-scratch parse of the edited token sequence.
        let mut ref_arena = DagArena::new();
        let mut new_tokens = tokens.clone();
        new_tokens[term_index].1 = "renamed".to_string();
        let ref_root = parser
            .parse_tokens(
                &mut ref_arena,
                new_tokens.iter().map(|(t, s)| (*t, s.as_str())),
            )
            .unwrap();
        let equal = structurally_equal(&arena, root, &ref_arena, ref_root);
        (stats, equal)
    }

    #[test]
    fn incremental_equals_from_scratch() {
        for edit_at in [0, 10, 25, 49] {
            let (_stats, equal) = edit_roundtrip(50, edit_at);
            assert!(equal, "reparse diverged for edit at stmt {edit_at}");
        }
    }

    #[test]
    fn incremental_reuses_most_structure() {
        let (stats, _) = edit_roundtrip(200, 100);
        assert!(
            stats.terminal_shifts <= 12,
            "expected few terminal shifts, got {stats:?}"
        );
        assert!(
            stats.run_shifts + stats.subtree_shifts >= 2,
            "expected reuse, got {stats:?}"
        );
        assert!(
            stats.reductions <= 40,
            "reductions should be local, got {stats:?}"
        );
    }

    #[test]
    fn middle_edit_cost_is_logarithmic_not_linear() {
        let (small, _) = edit_roundtrip(64, 32);
        let (large, _) = edit_roundtrip(1024, 512);
        let cost = |s: &IncRunStats| {
            s.terminal_shifts + s.subtree_shifts + s.run_shifts + s.reductions + s.breakdowns
        };
        let ratio = cost(&large) as f64 / cost(&small) as f64;
        assert!(
            ratio < 4.0,
            "16x bigger file must not cost 16x more; ratio {ratio} ({small:?} vs {large:?})"
        );
    }

    #[test]
    fn deep_nesting_roundtrip() {
        // S -> ( S ) | x : nested reuse without sequences.
        let mut b = GrammarBuilder::new("paren");
        let lp = b.terminal("(");
        let rp = b.terminal(")");
        let x = b.terminal("x");
        let s = b.nonterminal("S");
        b.prod(s, vec![Symbol::T(lp), Symbol::N(s), Symbol::T(rp)]);
        b.prod(s, vec![Symbol::T(x)]);
        b.start(s);
        let g = b.build().unwrap();
        let table = LrTable::build(&g, TableKind::Lalr);
        let parser = IncLrParser::new(&g, &table).unwrap();
        let mut arena = DagArena::new();
        let mut tokens: Vec<(Terminal, &str)> = Vec::new();
        for _ in 0..20 {
            tokens.push((lp, "("));
        }
        tokens.push((x, "x"));
        for _ in 0..20 {
            tokens.push((rp, ")"));
        }
        let root = parser.parse_tokens(&mut arena, tokens.clone()).unwrap();
        // Replace the inner x and reparse.
        let terms = collect_terminals(&arena, root);
        let victim = terms[20];
        let fresh = arena.terminal(x, "x");
        arena.mark_changed(victim);
        arena.mark_following(terms[19]);
        let mut reps = FxHashMap::default();
        reps.insert(victim, vec![fresh]);
        parser.reparse(&mut arena, root, reps, &[]).unwrap();
        arena.clear_changes();
        assert_eq!(arena.width(root), 41);
        assert_eq!(
            yield_string(&arena, root),
            tokens.iter().map(|(_, s)| *s).collect::<Vec<_>>().join(" ")
        );
    }

    #[test]
    fn failed_reparse_leaves_old_tree_usable() {
        let lang = seq_lang();
        let parser = IncLrParser::new(&lang.g, &lang.table).unwrap();
        let mut arena = DagArena::new();
        let words = stmt_words(5);
        let tokens = toks(&lang, &words.iter().map(|s| s.as_str()).collect::<Vec<_>>());
        let root = parser
            .parse_tokens(&mut arena, tokens.iter().map(|(t, s)| (*t, s.as_str())))
            .unwrap();
        let before = yield_string(&arena, root);
        // Replace an id with a stray '=' — cannot parse.
        let terms = collect_terminals(&arena, root);
        let victim = terms[0];
        let eq = lang.g.terminal_by_name("=").unwrap();
        let fresh = arena.terminal(eq, "=");
        arena.mark_changed(victim);
        let mut reps = FxHashMap::default();
        reps.insert(victim, vec![fresh]);
        let err = parser.reparse(&mut arena, root, reps, &[]).unwrap_err();
        assert!(matches!(err, IncParseError::SyntaxError { .. }));
        arena.clear_changes();
        assert_eq!(
            yield_string(&arena, root),
            before,
            "old tree untouched after refusal (Section 4.3 recovery)"
        );
    }

    #[test]
    fn append_at_end_of_document() {
        let lang = seq_lang();
        let parser = IncLrParser::new(&lang.g, &lang.table).unwrap();
        let mut arena = DagArena::new();
        let words = stmt_words(3);
        let tokens = toks(&lang, &words.iter().map(|s| s.as_str()).collect::<Vec<_>>());
        let root = parser
            .parse_tokens(&mut arena, tokens.iter().map(|(t, s)| (*t, s.as_str())))
            .unwrap();
        // Append one more statement; mark the last terminal's ancestors.
        let terms = collect_terminals(&arena, root);
        arena.mark_following(*terms.last().unwrap());
        let extra = toks(&lang, &["zz", "=", "9", ";"]);
        let extra_nodes: Vec<NodeId> = extra.iter().map(|(t, s)| arena.terminal(*t, s)).collect();
        parser
            .reparse(&mut arena, root, FxHashMap::default(), &extra_nodes)
            .unwrap();
        arena.clear_changes();
        assert_eq!(arena.width(root), 16);
        assert!(yield_string(&arena, root).ends_with("zz = 9 ;"));
    }
}
