//! Differential fuzzing of the whole parsing stack.
//!
//! The paper's claim is behavioural: incremental GLR analysis is
//! *indistinguishable* from parsing the document from scratch, for any real
//! grammar and any edit sequence (Sections 3–5). This crate checks that
//! claim — and the equivalences it rests on — mechanically, over random
//! inputs:
//!
//! * **Random grammars**, stratified by class ([`GrammarClass`]): near-LR(1),
//!   LR(2)-style (Figure 7's bounded-lookahead shape), genuinely ambiguous,
//!   and ε-heavy (including cyclic grammars, which the table builder must
//!   *refuse*, not loop on).
//! * **Random documents** derived from each grammar, and **random edit
//!   scripts** over those documents.
//! * **Differential oracles** ([`check_case`]): batch GLR ≡ Earley
//!   (acceptance and parse count), batch GLR ≡ the deterministic incremental
//!   parser on conflict-free tables, a fresh parse ≡ a reparse of its own
//!   tree (the one GLR engine's fresh and reuse paths), incremental reparse
//!   ≡ from-scratch parse after every edit, a grammar swap's adopted tree ≡
//!   a fresh parse under the mutated grammar, and the packed
//!   [`wg_lrtable::LrTable`] ≡ the naive [`wg_lrtable::RefTable`] on every
//!   cell.
//!
//! Failures are shrunk by a greedy delta-debugging pass ([`minimize`]) —
//! the offline `proptest` shim has no shrinking, so the harness carries its
//! own — and persisted as plain-text [`Case`]s in `crates/fuzz/corpus/`,
//! which the test suite replays on every CI run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::fmt;
use wg_core::{IglrParser, LanguageRegistry, Session, SessionConfig, UpdateError};
use wg_dag::{structurally_equal, yield_terminals, DagArena, FxHashMap, NodeId, NodeKind};
use wg_earley::EarleyParser;
use wg_grammar::{Grammar, GrammarBuilder, GrammarDelta, NonTerminal, Symbol, Terminal};
use wg_lexer::LexerDef;
use wg_lrtable::{LrTable, RefTable, StateId, TableBuildError, TableKind};
use wg_sentential::IncLrParser;

/// Stratification classes for random grammar generation.
///
/// The class biases *construction*; it is not a post-hoc guarantee (a
/// grammar built from deterministic templates can still hold an LALR
/// conflict). The harness treats whatever comes out uniformly — the class
/// only ensures the sweep keeps visiting all the interesting regions of
/// grammar space instead of clustering in one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrammarClass {
    /// Deterministic templates: lists, delimited forms, distinct leading
    /// terminals. Mostly conflict-free tables.
    Lr1,
    /// Injects Figure 7's bounded-lookahead shape (`X -> a Y c | a Z d`,
    /// `Y -> b`, `Z -> b`): LALR(1) conflicts that GLR resolves with a
    /// transient fork.
    Lr2,
    /// Injects genuine ambiguity (`N -> N N`, duplicate productions):
    /// persistent forks, exponential parse counts.
    Ambiguous,
    /// ε-productions and unit chains, sometimes cyclic — exercising
    /// nullable reductions and the table builder's refusal path.
    EpsilonHeavy,
    /// Grammar *mutation*: an Lr1-shaped base plus a random chain of
    /// [`wg_grammar::GrammarDelta`] steps. After every step the
    /// incrementally updated [`LrTable`] is compared cell-for-cell
    /// against a from-scratch [`RefTable`] of the mutated grammar — the
    /// differential oracle of the incremental table generator.
    Mutation,
}

impl GrammarClass {
    /// All classes, in sweep order.
    pub fn all() -> [GrammarClass; 5] {
        [
            GrammarClass::Lr1,
            GrammarClass::Lr2,
            GrammarClass::Ambiguous,
            GrammarClass::EpsilonHeavy,
            GrammarClass::Mutation,
        ]
    }

    /// The class's corpus-file tag.
    pub fn tag(self) -> &'static str {
        match self {
            GrammarClass::Lr1 => "lr1",
            GrammarClass::Lr2 => "lr2",
            GrammarClass::Ambiguous => "ambiguous",
            GrammarClass::EpsilonHeavy => "epsilon",
            GrammarClass::Mutation => "mutation",
        }
    }
}

impl fmt::Display for GrammarClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// One step of a grammar-mutation chain (the `delta` corpus lines).
///
/// Symbols are named; unknown rhs names in an `add`/`mod` step are
/// declared as *new terminals* in that step's delta, so a mutation can
/// grow the alphabet. Steps whose names no longer resolve against the
/// evolving grammar (a production already removed by an earlier step, an
/// lhs that never existed) are skipped — that keeps every delta line
/// independently droppable under the minimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaStep {
    /// `add` (new production), `rm` (remove the production matching
    /// lhs/rhs), or `mod` (replace that production's rhs with `to`).
    pub kind: String,
    /// Production lhs name (must be an existing nonterminal).
    pub lhs: String,
    /// Production rhs names: the new rhs for `add`, the identifying rhs
    /// for `rm` and `mod`.
    pub rhs: Vec<String>,
    /// Replacement rhs (`mod` only).
    pub to: Vec<String>,
}

/// One self-contained fuzz case: a grammar, a document, an edit script,
/// and (for the mutation class) a grammar-delta chain, all in the
/// plain-text corpus format.
///
/// ```text
/// # comment
/// class lr1
/// terminals a b c
/// nonassoc b            (optional; also `left` / `right`)
/// start N0
/// prod N0 -> a N1 b
/// prod N1 ->            (empty RHS = ε)
/// doc a a b
/// edit 2 1 c            (byte offset, removed bytes, inserted text)
/// delta add N0 -> a g   (g is auto-declared as a new terminal)
/// delta rm N1 ->
/// delta mod N0 -> a N1 b => a b
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// Class tag (informational).
    pub class: String,
    /// Terminal names, in declaration order.
    pub terminals: Vec<String>,
    /// Precedence declarations: (`left`|`right`|`nonassoc`, terminals).
    pub assoc: Vec<(String, Vec<String>)>,
    /// Start nonterminal name.
    pub start: String,
    /// Productions as (lhs, rhs symbol names).
    pub prods: Vec<(String, Vec<String>)>,
    /// The document text (terminal names joined by single spaces).
    pub doc: String,
    /// Edit script: (byte offset, removed bytes, inserted text), each step
    /// valid against the document after all earlier steps.
    pub edits: Vec<(usize, usize, String)>,
    /// Grammar-mutation chain, applied in order to the evolving grammar.
    pub deltas: Vec<DeltaStep>,
}

impl Case {
    /// Parses the corpus text format.
    pub fn parse(src: &str) -> Result<Case, String> {
        let mut case = Case {
            class: String::new(),
            terminals: Vec::new(),
            assoc: Vec::new(),
            start: String::new(),
            prods: Vec::new(),
            doc: String::new(),
            edits: Vec::new(),
            deltas: Vec::new(),
        };
        for (ln, line) in src.lines().enumerate() {
            // Trim only line endings: an `edit` insert may carry significant
            // leading/trailing spaces.
            let line = line.trim_end_matches('\r');
            if line.trim().is_empty() || line.trim_start().starts_with('#') {
                continue;
            }
            let (kw, rest) = line.split_once(' ').unwrap_or((line, ""));
            match kw {
                "class" => case.class = rest.trim().to_string(),
                "terminals" => case.terminals = rest.split_whitespace().map(String::from).collect(),
                "left" | "right" | "nonassoc" => case.assoc.push((
                    kw.to_string(),
                    rest.split_whitespace().map(String::from).collect(),
                )),
                "start" => case.start = rest.trim().to_string(),
                "prod" => {
                    let (lhs, rhs) = rest
                        .split_once("->")
                        .ok_or_else(|| format!("line {}: prod without ->", ln + 1))?;
                    case.prods.push((
                        lhs.trim().to_string(),
                        rhs.split_whitespace().map(String::from).collect(),
                    ));
                }
                "doc" => case.doc = rest.split_whitespace().collect::<Vec<_>>().join(" "),
                "edit" => {
                    let mut it = rest.splitn(3, ' ');
                    let at = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| format!("line {}: bad edit offset", ln + 1))?;
                    let remove = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| format!("line {}: bad edit length", ln + 1))?;
                    let insert = it.next().unwrap_or("").to_string();
                    case.edits.push((at, remove, insert));
                }
                "delta" => {
                    let (kind, spec) = rest
                        .trim_start()
                        .split_once(' ')
                        .ok_or_else(|| format!("line {}: delta needs a kind", ln + 1))?;
                    if !matches!(kind, "add" | "rm" | "mod") {
                        return Err(format!("line {}: unknown delta kind {kind:?}", ln + 1));
                    }
                    let (lhs, rhs) = spec
                        .split_once("->")
                        .ok_or_else(|| format!("line {}: delta without ->", ln + 1))?;
                    let (rhs, to) = if kind == "mod" {
                        let (old, new) = rhs
                            .split_once("=>")
                            .ok_or_else(|| format!("line {}: delta mod without =>", ln + 1))?;
                        (old, new)
                    } else {
                        (rhs, "")
                    };
                    case.deltas.push(DeltaStep {
                        kind: kind.to_string(),
                        lhs: lhs.trim().to_string(),
                        rhs: rhs.split_whitespace().map(String::from).collect(),
                        to: to.split_whitespace().map(String::from).collect(),
                    });
                }
                other => return Err(format!("line {}: unknown keyword {other:?}", ln + 1)),
            }
        }
        if case.terminals.is_empty() || case.start.is_empty() || case.prods.is_empty() {
            return Err("case needs terminals, start, and at least one prod".to_string());
        }
        Ok(case)
    }

    /// Renders the case back into the corpus text format (round-trips
    /// through [`Case::parse`]).
    pub fn to_source(&self) -> String {
        let mut out = String::new();
        if !self.class.is_empty() {
            out.push_str(&format!("class {}\n", self.class));
        }
        out.push_str(&format!("terminals {}\n", self.terminals.join(" ")));
        for (kind, terms) in &self.assoc {
            out.push_str(&format!("{kind} {}\n", terms.join(" ")));
        }
        out.push_str(&format!("start {}\n", self.start));
        for (lhs, rhs) in &self.prods {
            out.push_str(&format!("prod {lhs} -> {}\n", rhs.join(" ")));
        }
        if !self.doc.is_empty() {
            out.push_str(&format!("doc {}\n", self.doc));
        }
        for (at, remove, insert) in &self.edits {
            out.push_str(&format!("edit {at} {remove} {insert}\n"));
        }
        for d in &self.deltas {
            if d.kind == "mod" {
                out.push_str(&format!(
                    "delta mod {} -> {} => {}\n",
                    d.lhs,
                    d.rhs.join(" "),
                    d.to.join(" ")
                ));
            } else {
                out.push_str(&format!(
                    "delta {} {} -> {}\n",
                    d.kind,
                    d.lhs,
                    d.rhs.join(" ")
                ));
            }
        }
        out
    }

    /// Builds the grammar the case describes.
    pub fn build_grammar(&self) -> Result<Grammar, String> {
        let mut b = GrammarBuilder::new("fuzz");
        let mut terms: HashMap<&str, Terminal> = HashMap::new();
        for t in &self.terminals {
            terms.insert(t.as_str(), b.terminal(t));
        }
        for (kind, names) in &self.assoc {
            let ts: Vec<Terminal> = names
                .iter()
                .map(|n| {
                    terms
                        .get(n.as_str())
                        .copied()
                        .ok_or_else(|| format!("assoc names unknown terminal {n:?}"))
                })
                .collect::<Result<_, _>>()?;
            match kind.as_str() {
                "left" => {
                    b.left(&ts);
                }
                "right" => {
                    b.right(&ts);
                }
                _ => {
                    b.nonassoc(&ts);
                }
            }
        }
        let mut nts: HashMap<&str, NonTerminal> = HashMap::new();
        for (lhs, rhs) in &self.prods {
            for name in std::iter::once(lhs).chain(rhs.iter()) {
                if !terms.contains_key(name.as_str()) && !nts.contains_key(name.as_str()) {
                    nts.insert(name, b.nonterminal(name));
                }
            }
        }
        for (lhs, rhs) in &self.prods {
            let lhs = *nts
                .get(lhs.as_str())
                .ok_or_else(|| format!("{lhs:?} used as both terminal and lhs"))?;
            let rhs = rhs
                .iter()
                .map(|s| {
                    terms
                        .get(s.as_str())
                        .map(|&t| Symbol::T(t))
                        .or_else(|| nts.get(s.as_str()).map(|&n| Symbol::N(n)))
                        .ok_or_else(|| format!("unknown symbol {s:?}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            b.prod(lhs, rhs);
        }
        let start = *nts
            .get(self.start.as_str())
            .ok_or_else(|| format!("start {:?} has no productions", self.start))?;
        b.start(start);
        b.build().map_err(|e| e.to_string())
    }

    /// Builds the grammar plus a trivial literal lexer (one literal per
    /// terminal, whitespace skipped) for session-based replay.
    pub fn build_defs(&self) -> Result<(Grammar, LexerDef), String> {
        let g = self.build_grammar()?;
        let mut lx = LexerDef::new();
        for t in &self.terminals {
            lx.literal(t, t);
        }
        lx.skip("ws", "[ \\t\\r\\n]+").map_err(|e| e.to_string())?;
        Ok((g, lx))
    }

    /// The document as a terminal sequence.
    pub fn tokens(&self, g: &Grammar) -> Result<Vec<Terminal>, String> {
        self.doc
            .split_whitespace()
            .map(|w| {
                g.terminal_by_name(w)
                    .ok_or_else(|| format!("doc token {w:?} is not a terminal"))
            })
            .collect()
    }
}

/// A detected disagreement between two components that must agree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Which differential stage tripped (stable across minimization).
    pub stage: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.stage, self.detail)
    }
}

fn diverge(stage: &'static str, detail: impl Into<String>) -> Divergence {
    Divergence {
        stage,
        detail: detail.into(),
    }
}

/// Summary of one clean differential run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CaseOutcome {
    /// The table builder refused the grammar (cyclic): nothing downstream
    /// to compare, but Earley was still exercised.
    pub table_refused: bool,
    /// Whether the (pre-edit) document was accepted.
    pub accepted: bool,
    /// Number of parses of the document, when cheap enough to count.
    pub parse_count: Option<u64>,
    /// Edit steps replayed against the batch oracle.
    pub edits_replayed: usize,
    /// Delta steps applied through the incremental table updater (skipped
    /// or refused steps excluded).
    pub deltas_applied: usize,
}

/// Number of distinct trees embedded in the parse dag under `root`:
/// product over production/sequence kids, sum over choice-point
/// alternatives, memoized on shared nodes, saturating.
/// Structural forest equality that respects sharing: memoized over node
/// *pairs*, so it is polynomial in the arena sizes where
/// [`wg_dag::structurally_equal`]'s tree linearization is exponential on
/// heavily ambiguous dags (a fuzz case with 2.7e7 embedded trees spent
/// minutes there). Sequence nodes — which random grammars never produce —
/// fall back to the flattening comparison so physical chunking stays
/// ignored.
pub fn forests_equal(a: &DagArena, ra: NodeId, b: &DagArena, rb: NodeId) -> bool {
    fn go(
        a: &DagArena,
        x: NodeId,
        b: &DagArena,
        y: NodeId,
        memo: &mut HashMap<(NodeId, NodeId), bool>,
    ) -> bool {
        if let Some(&r) = memo.get(&(x, y)) {
            return r;
        }
        let kids_eq = |memo: &mut HashMap<(NodeId, NodeId), bool>| {
            let (ka, kb) = (a.kids(x), b.kids(y));
            ka.len() == kb.len() && ka.iter().zip(kb).all(|(&p, &q)| go(a, p, b, q, memo))
        };
        let r = match (a.kind(x), b.kind(y)) {
            (
                NodeKind::Terminal {
                    term: ta,
                    lexeme: la,
                },
                NodeKind::Terminal {
                    term: tb,
                    lexeme: lb,
                },
            ) => ta == tb && la == lb,
            (NodeKind::Bos, NodeKind::Bos) | (NodeKind::Eos, NodeKind::Eos) => true,
            (NodeKind::Production { prod: pa }, NodeKind::Production { prod: pb }) => {
                pa == pb && kids_eq(memo)
            }
            (NodeKind::Symbol { symbol: sa }, NodeKind::Symbol { symbol: sb }) => {
                sa == sb && kids_eq(memo)
            }
            (NodeKind::Root, NodeKind::Root) => kids_eq(memo),
            (NodeKind::Sequence { .. } | NodeKind::SeqRun { .. }, _)
            | (_, NodeKind::Sequence { .. } | NodeKind::SeqRun { .. }) => {
                structurally_equal(a, x, b, y)
            }
            _ => false,
        };
        memo.insert((x, y), r);
        r
    }
    go(a, ra, b, rb, &mut HashMap::new())
}

/// Saturating count of the parse trees a packed forest embeds: symbol
/// (choice) nodes sum over their alternatives, every other interior node
/// multiplies over its kids. Memoized over [`NodeId`], so sharing is
/// respected. Compared against Earley's derivation count on small inputs.
pub fn dag_parse_count(arena: &DagArena, root: NodeId) -> u64 {
    fn go(a: &DagArena, n: NodeId, memo: &mut HashMap<NodeId, u64>) -> u64 {
        if let Some(&c) = memo.get(&n) {
            return c;
        }
        let kids = a.kids(n);
        let c = match a.kind(n) {
            NodeKind::Symbol { .. } => kids
                .iter()
                .fold(0u64, |acc, &k| acc.saturating_add(go(a, k, memo))),
            NodeKind::Terminal { .. } | NodeKind::Bos | NodeKind::Eos => 1,
            _ => kids
                .iter()
                .fold(1u64, |acc, &k| acc.saturating_mul(go(a, k, memo))),
        };
        memo.insert(n, c);
        c
    }
    go(arena, root, &mut HashMap::new())
}

/// Cell-for-cell comparison of the packed table against the naive
/// reference build: every ACTION cell (through the full [`wg_lrtable::Cell`]
/// accessor surface), every GOTO, every nonterminal-reduction list, and the
/// default-reduction invariants.
pub fn diff_tables(g: &Grammar, packed: &LrTable) -> Result<(), Divergence> {
    let naive = RefTable::build(g, packed.kind());
    if packed.num_states() != naive.num_states() {
        return Err(diverge(
            "packed-vs-ref",
            format!(
                "state counts differ: packed {} vs ref {}",
                packed.num_states(),
                naive.num_states()
            ),
        ));
    }
    if packed.num_action_entries() != naive.num_action_entries() {
        return Err(diverge("packed-vs-ref", "action entry totals differ"));
    }
    for s in 0..packed.num_states() {
        let sid = StateId(s as u32);
        for t in g.terminals() {
            let p = packed.actions(sid, t);
            let n = naive.actions(sid, t);
            if p.to_vec() != n
                || p.len() != n.len()
                || p.is_empty() != n.is_empty()
                || p.first() != n.first().copied()
                || n.iter().enumerate().any(|(i, &a)| p.get(i) != a)
            {
                return Err(diverge(
                    "packed-vs-ref",
                    format!(
                        "ACTION mismatch at state {s}, terminal {:?}",
                        g.terminal_name(t)
                    ),
                ));
            }
        }
        for nt in g.nonterminals() {
            if packed.goto(sid, nt) != naive.goto(sid, nt) {
                return Err(diverge(
                    "packed-vs-ref",
                    format!("GOTO mismatch at state {s}, {:?}", g.nonterminal_name(nt)),
                ));
            }
            if packed.nt_reductions(sid, nt) != naive.nt_reductions(sid, nt) {
                return Err(diverge(
                    "packed-vs-ref",
                    format!(
                        "nt_reductions mismatch at state {s}, {:?}",
                        g.nonterminal_name(nt)
                    ),
                ));
            }
        }
        if let Some(p) = packed.default_reduction(sid) {
            if g.production(p).arity() == 0 {
                return Err(diverge(
                    "packed-vs-ref",
                    format!("state {s}: ε default reduction"),
                ));
            }
            for t in g.terminals() {
                let cell = naive.actions(sid, t);
                if !cell.is_empty() && cell != [wg_lrtable::Action::Reduce(p)] {
                    return Err(diverge(
                        "packed-vs-ref",
                        format!(
                            "state {s}: default reduction disagrees with cell at {:?}",
                            g.terminal_name(t)
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Resolves one [`DeltaStep`] against the current grammar into a
/// [`GrammarDelta`], or `None` when its names no longer resolve (the step
/// is then skipped — see [`DeltaStep`]).
fn build_delta(g: &Grammar, step: &DeltaStep) -> Option<GrammarDelta> {
    let lhs = g.nonterminal_by_name(&step.lhs)?;
    let mut d = GrammarDelta::new(g);
    // Resolve a name list to symbols, auto-declaring unknown names as new
    // terminals (deduplicated within the step).
    let resolve = |d: &mut GrammarDelta, names: &[String]| -> Vec<Symbol> {
        let mut fresh: HashMap<&str, Terminal> = HashMap::new();
        names
            .iter()
            .map(|s| {
                if let Some(t) = g.terminal_by_name(s) {
                    Symbol::T(t)
                } else if let Some(n) = g.nonterminal_by_name(s) {
                    Symbol::N(n)
                } else {
                    Symbol::T(*fresh.entry(s).or_insert_with(|| d.add_terminal(s)))
                }
            })
            .collect()
    };
    // `rm`/`mod` identify the target production by name: lhs plus the
    // exact rhs name sequence.
    let find_prod = || {
        (0..g.num_productions())
            .map(wg_grammar::ProdId::from_index)
            .find(|&p| {
                let pr = g.production(p);
                pr.lhs() == lhs
                    && pr.rhs().len() == step.rhs.len()
                    && pr.rhs().iter().zip(&step.rhs).all(|(s, want)| {
                        let name = match s {
                            Symbol::T(t) => g.terminal_name(*t),
                            Symbol::N(n) => g.nonterminal_name(*n),
                        };
                        name == want
                    })
            })
    };
    match step.kind.as_str() {
        "add" => {
            let rhs = resolve(&mut d, &step.rhs);
            d.add_production(lhs, rhs);
        }
        "rm" => d.remove_production(find_prod()?),
        "mod" => {
            let id = find_prod()?;
            let to = resolve(&mut d, &step.to);
            d.modify_production(id, to);
        }
        _ => return None,
    }
    Some(d)
}

/// The mutation-class oracle: replays the case's delta chain through
/// [`LrTable::update`], comparing the incrementally derived table against
/// a from-scratch [`RefTable`] of the mutated grammar **after every
/// step** (via [`diff_tables`], i.e. every ACTION cell, every GOTO, every
/// nt-reduction list, the default-reduction invariants). Steps the delta
/// validator rejects (e.g. a removal that leaves the start symbol
/// unproductive) are skipped; a cyclicity refusal by the updater must
/// agree with the from-scratch builder refusing too.
fn check_delta_chain(case: &Case, base_g: &Grammar, base_t: &LrTable) -> Result<usize, Divergence> {
    let mut owned: Option<(Grammar, LrTable)> = None;
    let mut applied = 0usize;
    for (i, step) in case.deltas.iter().enumerate() {
        let (g, t) = match &owned {
            Some((g, t)) => (g, t),
            None => (base_g, base_t),
        };
        let Some(d) = build_delta(g, step) else {
            continue;
        };
        let (ng, map) = match g.apply_delta(&d) {
            Ok(x) => x,
            // Rejected by the delta validator — a legal answer, tested in
            // wg-grammar's own suite; the chain continues unchanged.
            Err(_) => continue,
        };
        match t.update(g, &ng, &map) {
            Ok((nt, _stats)) => {
                if let Err(e) = diff_tables(&ng, &nt) {
                    return Err(diverge(
                        "incr-table",
                        format!("delta step {i} ({} {}): {}", step.kind, step.lhs, e.detail),
                    ));
                }
                owned = Some((ng, nt));
                applied += 1;
            }
            Err(TableBuildError::CyclicGrammar { .. }) => {
                if LrTable::try_build(&ng, t.kind()).is_ok() {
                    return Err(diverge(
                        "incr-table",
                        format!(
                            "delta step {i}: updater refused a grammar the from-scratch \
                             builder accepts"
                        ),
                    ));
                }
                break; // refusal agreed; nothing to chain onto
            }
            Err(e) => {
                return Err(diverge(
                    "incr-table",
                    format!("delta step {i}: update failed: {e}"),
                ))
            }
        }
    }
    Ok(applied)
}

/// The mutation class's adoption oracle: a registry-backed [`Session`] on
/// the case's document adopts every applied delta step at its next
/// reparse. Whenever the mutated grammar accepts the text, the adopted
/// tree must dump exactly as a fresh session under a table built from
/// scratch, recorded parse states included: retention rewrites the states
/// of the old nodes it keeps. Whenever the grammar rejects the text, the
/// session must refuse the swap and keep its tree byte for byte.
fn adopt_vs_fresh(case: &Case) -> Result<(), Divergence> {
    let (mut g, lx) = case
        .build_defs()
        .map_err(|e| diverge("adopt-vs-fresh", e))?;
    let reg = LanguageRegistry::new();
    let cfg = reg
        .get_or_compile(g.clone(), lx.clone())
        .map_err(|e| diverge("adopt-vs-fresh", e.to_string()))?;
    let Ok(mut session) = Session::new(&cfg, &case.doc) else {
        return Ok(()); // no tree to adopt
    };
    for (i, step) in case.deltas.iter().enumerate() {
        let Some(d) = build_delta(&g, step) else {
            continue;
        };
        let Ok((ng, _)) = g.apply_delta(&d) else {
            continue;
        };
        match reg.update_grammar(&d) {
            Ok(_) => g = ng,
            // Refused as `check_delta_chain` saw: nothing to chain onto.
            Err(UpdateError::Table(_)) => break,
            Err(e) => {
                return Err(diverge(
                    "adopt-vs-fresh",
                    format!("delta step {i}: registry refused the update: {e}"),
                ))
            }
        }
        let before = session.dump();
        let out = session
            .reparse()
            .map_err(|e| diverge("adopt-vs-fresh", format!("reparse error: {e}")))?;
        let fresh = SessionConfig::new(g.clone(), lx.clone())
            .ok()
            .and_then(|c| Session::new(&c, &case.doc).ok());
        let wrong = match (out.report.grammar_swapped, fresh) {
            (true, Some(f)) if session.dump() != f.dump() => {
                "adopted tree differs from a fresh parse"
            }
            (false, None) if session.dump() != before => "refused adoption changed the tree",
            (true, None) => "adopted a text the new grammar rejects",
            (false, Some(_)) => "refused a text the new grammar accepts",
            _ => continue,
        };
        return Err(diverge(
            "adopt-vs-fresh",
            format!("delta step {i}: {wrong}"),
        ));
    }
    Ok(())
}

/// Runs the full differential check over one case.
///
/// Stages (each a potential [`Divergence::stage`]):
/// `grammar-build`, `table-build`, `packed-vs-ref`, `incr-table`,
/// `adopt-vs-fresh`, `doc-tokens`, `glr-vs-earley-acceptance`,
/// `fresh-vs-reuse`, `glr-vs-earley-count`, `sentential`, `session`,
/// `incremental-vs-batch`. The batch GLR forest the `glr-*` and
/// `sentential` stages read is the [`IglrParser`]'s batch parse.
///
/// Grammars with precedence declarations skip the Earley comparisons:
/// precedence changes the *language* of the table-driven parsers (that is
/// its purpose), while Earley answers for the bare CFG.
pub fn check_case(case: &Case) -> Result<CaseOutcome, Divergence> {
    let g = case
        .build_grammar()
        .map_err(|e| diverge("grammar-build", e))?;
    let mut outcome = CaseOutcome::default();

    let table = match LrTable::try_build(&g, TableKind::Lalr) {
        Ok(t) => t,
        Err(TableBuildError::CyclicGrammar { .. }) => {
            // Refusal is the specified behaviour. Earley needs no table and
            // must still terminate on the same grammar and document.
            let toks = case.tokens(&g).map_err(|e| diverge("doc-tokens", e))?;
            outcome.table_refused = true;
            outcome.accepted = EarleyParser::new(&g).recognize(&toks);
            return Ok(outcome);
        }
        Err(e) => return Err(diverge("table-build", e.to_string())),
    };

    diff_tables(&g, &table)?;

    if !case.deltas.is_empty() {
        outcome.deltas_applied = check_delta_chain(case, &g, &table)?;
        adopt_vs_fresh(case)?;
    }

    let toks = case.tokens(&g).map_err(|e| diverge("doc-tokens", e))?;
    let pairs: Vec<(Terminal, &str)> = toks.iter().map(|&t| (t, g.terminal_name(t))).collect();
    let has_prec = !case.assoc.is_empty();

    let iglr = IglrParser::new(&g, &table);
    let mut batch_arena = DagArena::new();
    let batch_root = iglr
        .parse_tokens(&mut batch_arena, pairs.iter().copied())
        .ok();
    outcome.accepted = batch_root.is_some();

    let earley = EarleyParser::new(&g);
    if !has_prec && earley.recognize(&toks) != outcome.accepted {
        return Err(diverge(
            "glr-vs-earley-acceptance",
            format!("GLR accepted={} but Earley disagrees", outcome.accepted),
        ));
    }

    if let Some(root) = batch_root {
        fresh_vs_reuse(&iglr, &pairs, &batch_arena, root)?;
        if !has_prec && toks.len() <= 24 {
            let dag_n = dag_parse_count(&batch_arena, root);
            let earley_n = earley.count_parses(&toks, g.start()) as u64;
            if dag_n != earley_n {
                return Err(diverge(
                    "glr-vs-earley-count",
                    format!("dag embeds {dag_n} trees, Earley counts {earley_n}"),
                ));
            }
            outcome.parse_count = Some(dag_n);
        }
    }

    if table.is_deterministic() {
        let det = IncLrParser::new(&g, &table)
            .map_err(|e| diverge("sentential", format!("rejects conflict-free table: {e}")))?;
        let mut det_arena = DagArena::new();
        let det_root = det.parse_tokens(&mut det_arena, pairs.iter().copied()).ok();
        if det_root.is_some() != outcome.accepted {
            return Err(diverge("sentential", "acceptance differs from GLR"));
        }
        if let (Some(r1), Some(r2)) = (batch_root, det_root) {
            if !forests_equal(&batch_arena, r1, &det_arena, r2) {
                return Err(diverge("sentential", "tree differs from GLR"));
            }
        }
    }

    if !case.doc.is_empty() {
        outcome.edits_replayed = replay_incremental(case, outcome.accepted)?;
    }
    Ok(outcome)
}

/// Parses the document fresh, replaces its middle terminal with an equal
/// fresh terminal, and reparses over that tree: the reuse path of the GLR
/// engine must rebuild exactly the forest of the fresh parse `reference`.
fn fresh_vs_reuse(
    iglr: &IglrParser<'_>,
    pairs: &[(Terminal, &str)],
    reference: &DagArena,
    ref_root: NodeId,
) -> Result<(), Divergence> {
    let mut arena = DagArena::new();
    let root = iglr
        .parse_tokens(&mut arena, pairs.iter().copied())
        .map_err(|e| diverge("fresh-vs-reuse", format!("second fresh parse fails: {e}")))?;
    let terms = yield_terminals(&arena, root);
    if terms.is_empty() {
        return Ok(());
    }
    let mid = terms.len() / 2;
    let victim = terms[mid];
    let (term, lexeme) = pairs[mid];
    let fresh = arena.terminal(term, lexeme);
    arena.mark_changed(victim);
    if mid > 0 {
        arena.mark_following(terms[mid - 1]);
    }
    let mut reps = FxHashMap::default();
    reps.insert(victim, vec![fresh]);
    iglr.reparse(&mut arena, root, reps, &[]).map_err(|e| {
        diverge(
            "fresh-vs-reuse",
            format!("reparse rejects its own tree: {e}"),
        )
    })?;
    arena.clear_changes();
    if !forests_equal(&arena, root, reference, ref_root) {
        return Err(diverge(
            "fresh-vs-reuse",
            "reparse forest differs from the fresh parse",
        ));
    }
    Ok(())
}

/// Replays the case's edit script through a live [`Session`], comparing
/// against a from-scratch parse of the post-edit text at every step.
fn replay_incremental(case: &Case, glr_accepted: bool) -> Result<usize, Divergence> {
    let (g, lx) = case.build_defs().map_err(|e| diverge("session", e))?;
    let cfg = SessionConfig::new(g, lx).map_err(|e| diverge("session", e.to_string()))?;
    let mut session = match Session::new(&cfg, &case.doc) {
        Ok(s) => {
            if !glr_accepted {
                return Err(diverge(
                    "session",
                    "session accepts a document batch GLR rejects",
                ));
            }
            s
        }
        Err(_) if !glr_accepted => return Ok(0),
        Err(e) => {
            return Err(diverge(
                "session",
                format!("session rejects a document batch GLR accepts: {e}"),
            ))
        }
    };

    let mut oracle = case.doc.clone();
    let mut replayed = 0;
    for (at, remove, insert) in &case.edits {
        if at + remove > oracle.len() {
            break; // minimization can strand edits past a shrunken doc
        }
        session.edit(*at, *remove, insert);
        let out = session
            .reparse()
            .map_err(|e| diverge("session", format!("reparse error: {e}")))?;
        oracle.replace_range(*at..at + remove, insert);
        replayed += 1;

        match (out.incorporated, Session::new(&cfg, &oracle)) {
            (true, Ok(batch)) => {
                if !forests_equal(session.arena(), session.root(), batch.arena(), batch.root()) {
                    return Err(diverge(
                        "incremental-vs-batch",
                        format!("forests differ after edit {replayed}"),
                    ));
                }
            }
            (false, Err(_)) => {} // both reject the accumulated text
            (true, Err(e)) => {
                return Err(diverge(
                    "incremental-vs-batch",
                    format!(
                        "incremental incorporated what batch rejects ({e}) after edit {replayed}"
                    ),
                ))
            }
            (false, Ok(_)) => {
                return Err(diverge(
                    "incremental-vs-batch",
                    format!("batch accepts what incremental refused after edit {replayed}"),
                ))
            }
        }
    }
    Ok(replayed)
}

// --- random generation ------------------------------------------------------

const LETTERS: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

/// Generates one random case of the given class (deterministic per seed):
/// grammar, derived document, and a token-level edit script.
pub fn random_case(class: GrammarClass, seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_c0de);
    let n_terms = match class {
        GrammarClass::Lr2 => 4 + rng.random_range(0..2usize), // needs a b c d
        _ => 2 + rng.random_range(0..4usize),
    };
    let terminals: Vec<String> = LETTERS[..n_terms].iter().map(|s| s.to_string()).collect();
    let n_nts = 2 + rng.random_range(0..4usize);
    let nt = |i: usize| format!("N{i}");

    let mut prods: Vec<(String, Vec<String>)> = Vec::new();
    // Layered base productions: Ni references only Nj with j > i, so every
    // nonterminal is productive by reverse induction (random extras below
    // can then recurse freely without breaking that).
    for i in 0..n_nts {
        let len = 1 + rng.random_range(0..3);
        let rhs: Vec<String> = (0..len)
            .map(|_| {
                if i + 1 < n_nts && rng.random_bool(0.4) {
                    nt(i + 1 + rng.random_range(0..(n_nts - i - 1)))
                } else {
                    terminals[rng.random_range(0..n_terms)].clone()
                }
            })
            .collect();
        prods.push((nt(i), rhs));
    }

    match class {
        GrammarClass::Lr1 | GrammarClass::Mutation => {
            // Left-recursive lists with a distinct trailing terminal, the
            // bread-and-butter deterministic shape. The mutation class
            // starts from the same base — its interest is the delta chain
            // appended below, not the base table.
            for i in 0..n_nts {
                if rng.random_bool(0.5) {
                    let t = terminals[rng.random_range(0..n_terms)].clone();
                    prods.push((nt(i), vec![nt(i), t]));
                }
            }
        }
        GrammarClass::Lr2 => {
            // Figure 7: one token of context too little for LALR(1).
            let x = nt(rng.random_range(0..n_nts));
            prods.push((x.clone(), vec!["a".into(), "Y2".into(), "c".into()]));
            prods.push((x, vec!["a".into(), "Z2".into(), "d".into()]));
            prods.push(("Y2".into(), vec!["b".into()]));
            prods.push(("Z2".into(), vec!["b".into()]));
        }
        GrammarClass::Ambiguous => {
            let i = rng.random_range(0..n_nts);
            if rng.random_bool(0.6) {
                prods.push((nt(i), vec![nt(i), nt(i)]));
                prods.push((nt(i), vec![terminals[rng.random_range(0..n_terms)].clone()]));
            } else {
                // Duplicate an existing production: exactly-two-way forks.
                let dup = prods[rng.random_range(0..prods.len())].clone();
                prods.push(dup);
            }
        }
        GrammarClass::EpsilonHeavy => {
            for i in 0..n_nts {
                if rng.random_bool(0.5) {
                    prods.push((nt(i), Vec::new()));
                }
                if rng.random_bool(0.4) {
                    // Unit chains in any direction: sometimes cyclic, which
                    // must surface as a table-build refusal, not a hang.
                    prods.push((nt(i), vec![nt(rng.random_range(0..n_nts))]));
                }
            }
        }
    }
    // A couple of fully random productions keep the sweep from being
    // template-bound.
    for _ in 0..rng.random_range(0..3) {
        let i = rng.random_range(0..n_nts);
        let len = rng.random_range(0..3);
        let rhs: Vec<String> = (0..len)
            .map(|_| {
                if rng.random_bool(0.35) {
                    nt(rng.random_range(0..n_nts))
                } else {
                    terminals[rng.random_range(0..n_terms)].clone()
                }
            })
            .collect();
        prods.push((nt(i), rhs));
    }

    let mut case = Case {
        class: class.tag().to_string(),
        terminals,
        assoc: Vec::new(),
        start: nt(0),
        prods,
        doc: String::new(),
        edits: Vec::new(),
        deltas: Vec::new(),
    };

    // Derive a document; retry a few seeds if the derivation degenerates.
    let cap = match class {
        GrammarClass::Ambiguous => 12,
        _ => 30,
    };
    if let Ok(g) = case.build_grammar() {
        for attempt in 0..8 {
            let mut drng = StdRng::seed_from_u64(seed.wrapping_add(attempt * 7919));
            if let Some(toks) = derive_sentence(&g, &mut drng, cap) {
                if !toks.is_empty() {
                    case.doc = toks
                        .iter()
                        .map(|&t| g.terminal_name(t))
                        .collect::<Vec<_>>()
                        .join(" ");
                    break;
                }
            }
        }
    }

    // Token-level edit script (single-char terminals: token i starts at
    // byte 2*i). Edits may well make the document unparseable — rejection
    // agreement is part of what the differential checks.
    if !case.doc.is_empty() {
        let mut tokens: Vec<String> = case.doc.split(' ').map(String::from).collect();
        for _ in 0..rng.random_range(0..5) {
            let pick = case.terminals[rng.random_range(0..case.terminals.len())].clone();
            let roll: f64 = rng.random();
            if roll < 0.5 {
                let i = rng.random_range(0..tokens.len());
                case.edits.push((2 * i, 1, pick.clone()));
                tokens[i] = pick;
            } else if roll < 0.8 {
                let i = rng.random_range(0..tokens.len() + 1);
                if i == tokens.len() {
                    case.edits.push((2 * i - 1, 0, format!(" {pick}")));
                } else {
                    case.edits.push((2 * i, 0, format!("{pick} ")));
                }
                tokens.insert(i, pick);
            } else if tokens.len() > 1 {
                let i = rng.random_range(0..tokens.len());
                if i + 1 == tokens.len() {
                    case.edits.push((2 * i - 1, 2, String::new()));
                } else {
                    case.edits.push((2 * i, 2, String::new()));
                }
                tokens.remove(i);
            }
        }
    }

    // Mutation chain: 1–4 delta steps over the evolving grammar. `rm` and
    // `mod` target *base* productions by name — steps that stop resolving
    // (the target already removed) are skipped by the checker, which is
    // itself part of the surface under test.
    if class == GrammarClass::Mutation {
        // Names outside LETTERS: auto-declared as fresh terminals.
        const FRESH: [&str; 3] = ["g", "h", "i"];
        let mut fresh_next = 0usize;
        for _ in 0..(1 + rng.random_range(0..4usize)) {
            let roll: f64 = rng.random();
            if roll < 0.5 || case.prods.is_empty() {
                let lhs = nt(rng.random_range(0..n_nts));
                let len = 1 + rng.random_range(0..3usize);
                let rhs: Vec<String> = (0..len)
                    .map(|_| {
                        let r: f64 = rng.random();
                        if r < 0.15 && fresh_next < FRESH.len() {
                            let name = FRESH[fresh_next].to_string();
                            if rng.random_bool(0.5) {
                                fresh_next += 1; // sometimes reuse the name
                            }
                            name
                        } else if r < 0.5 {
                            nt(rng.random_range(0..n_nts))
                        } else {
                            case.terminals[rng.random_range(0..case.terminals.len())].clone()
                        }
                    })
                    .collect();
                case.deltas.push(DeltaStep {
                    kind: "add".into(),
                    lhs,
                    rhs,
                    to: Vec::new(),
                });
            } else {
                let (lhs, rhs) = case.prods[rng.random_range(0..case.prods.len())].clone();
                if roll < 0.8 {
                    case.deltas.push(DeltaStep {
                        kind: "rm".into(),
                        lhs,
                        rhs,
                        to: Vec::new(),
                    });
                } else {
                    let len = 1 + rng.random_range(0..2usize);
                    let to: Vec<String> = (0..len)
                        .map(|_| case.terminals[rng.random_range(0..case.terminals.len())].clone())
                        .collect();
                    case.deltas.push(DeltaStep {
                        kind: "mod".into(),
                        lhs,
                        rhs,
                        to,
                    });
                }
            }
        }
    }
    case
}

/// Minimal terminal yield of each nonterminal (a large sentinel for
/// unproductive ones), by fixpoint.
fn min_yields(g: &Grammar) -> Vec<usize> {
    const BIG: usize = usize::MAX / 8;
    let mut my = vec![BIG; g.num_nonterminals()];
    loop {
        let mut changed = false;
        for (_, p) in g.productions() {
            let cost = p.rhs().iter().fold(0usize, |acc, s| {
                acc.saturating_add(match s {
                    Symbol::T(_) => 1,
                    Symbol::N(n) => my[n.index()],
                })
            });
            if cost < my[p.lhs().index()] {
                my[p.lhs().index()] = cost;
                changed = true;
            }
        }
        if !changed {
            return my;
        }
    }
}

/// Random leftmost derivation from the start symbol, steered toward
/// minimal-yield productions once `cap` tokens are in sight.
fn derive_sentence(g: &Grammar, rng: &mut StdRng, cap: usize) -> Option<Vec<Terminal>> {
    let my = min_yields(g);
    let prod_cost = |p: wg_grammar::ProdId| {
        g.production(p).rhs().iter().fold(0usize, |acc, s| {
            acc.saturating_add(match s {
                Symbol::T(_) => 1,
                Symbol::N(n) => my[n.index()],
            })
        })
    };
    let mut out = Vec::new();
    let mut stack = vec![Symbol::N(g.start())];
    let mut steps = 0usize;
    while let Some(sym) = stack.pop() {
        steps += 1;
        if steps > 10_000 {
            return None; // unproductive corner (possible via random extras)
        }
        match sym {
            Symbol::T(t) => out.push(t),
            Symbol::N(n) => {
                let prods: Vec<_> = g.productions_for(n).collect();
                if prods.is_empty() {
                    return None;
                }
                let pending: usize = stack
                    .iter()
                    .map(|s| match s {
                        Symbol::T(_) => 1,
                        Symbol::N(m) => my[m.index()],
                    })
                    .sum();
                let pick = if out.len() + pending >= cap {
                    *prods.iter().min_by_key(|&&p| prod_cost(p))?
                } else {
                    prods[rng.random_range(0..prods.len())]
                };
                for s in g.production(pick).rhs().iter().rev() {
                    stack.push(*s);
                }
            }
        }
        if out.len() > cap * 4 {
            return None;
        }
    }
    Some(out)
}

// --- minimization -----------------------------------------------------------

/// Greedy delta debugging over the corpus text: repeatedly drop production
/// lines, RHS symbols, edit steps, and document tokens, keeping every
/// mutation under which `fails` still returns true. The offline proptest
/// shim cannot shrink, so the harness carries its own minimizer; failures
/// reach the corpus (and CI logs) already small.
pub fn minimize_with(source: &str, fails: &dyn Fn(&str) -> bool) -> String {
    let mut cur = source.to_string();
    loop {
        let mut progressed = false;

        // Drop whole prod/edit/delta lines.
        'lines: loop {
            let lines: Vec<&str> = cur.lines().collect();
            for i in 0..lines.len() {
                if lines[i].starts_with("prod ")
                    || lines[i].starts_with("edit ")
                    || lines[i].starts_with("delta ")
                {
                    let cand = lines
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != i)
                        .map(|(_, l)| *l)
                        .collect::<Vec<_>>()
                        .join("\n");
                    if fails(&cand) {
                        cur = cand;
                        progressed = true;
                        continue 'lines;
                    }
                }
            }
            break;
        }

        // Drop single RHS symbols from productions.
        'syms: loop {
            let lines: Vec<String> = cur.lines().map(String::from).collect();
            for (i, line) in lines.iter().enumerate() {
                let Some(rest) = line.strip_prefix("prod ") else {
                    continue;
                };
                let Some((lhs, rhs)) = rest.split_once("->") else {
                    continue;
                };
                let syms: Vec<&str> = rhs.split_whitespace().collect();
                for k in 0..syms.len() {
                    let mut kept: Vec<&str> = syms.clone();
                    kept.remove(k);
                    let mut cand_lines = lines.clone();
                    cand_lines[i] = format!("prod {} -> {}", lhs.trim(), kept.join(" "));
                    let cand = cand_lines.join("\n");
                    if fails(&cand) {
                        cur = cand;
                        progressed = true;
                        continue 'syms;
                    }
                }
            }
            break;
        }

        // Shrink the document, ddmin-style: halves first, then tokens.
        'doc: loop {
            let lines: Vec<String> = cur.lines().map(String::from).collect();
            let Some(i) = lines.iter().position(|l| l.starts_with("doc ")) else {
                break;
            };
            let toks: Vec<&str> = lines[i][4..].split_whitespace().collect();
            let mut chunk = (toks.len() / 2).max(1);
            while chunk >= 1 {
                let mut at = 0;
                while at < toks.len() {
                    let kept: Vec<&str> = toks
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j < at || j >= at + chunk)
                        .map(|(_, t)| *t)
                        .collect();
                    let mut cand_lines = lines.clone();
                    if kept.is_empty() {
                        cand_lines.remove(i);
                    } else {
                        cand_lines[i] = format!("doc {}", kept.join(" "));
                    }
                    let cand = cand_lines.join("\n");
                    if fails(&cand) {
                        cur = cand;
                        progressed = true;
                        continue 'doc;
                    }
                    at += chunk;
                }
                if chunk == 1 {
                    break;
                }
                chunk /= 2;
            }
            break;
        }

        if !progressed {
            return cur;
        }
    }
}

/// The divergence stage `source` currently fails with, if any.
pub fn failure_stage(source: &str) -> Option<&'static str> {
    let case = Case::parse(source).ok()?;
    check_case(&case).err().map(|d| d.stage)
}

/// Minimizes a failing case, holding the divergence *stage* fixed so the
/// shrink cannot wander to an unrelated failure (or to garbage that merely
/// fails to build).
pub fn minimize(source: &str) -> String {
    match failure_stage(source) {
        Some(stage) => minimize_with(source, &|s| failure_stage(s) == Some(stage)),
        None => source.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_format_round_trips() {
        let case = random_case(GrammarClass::Ambiguous, 3);
        let reparsed = Case::parse(&case.to_source()).unwrap();
        assert_eq!(case, reparsed);
    }

    #[test]
    fn mutation_corpus_format_round_trips() {
        for seed in 0..20 {
            let case = random_case(GrammarClass::Mutation, seed);
            assert!(!case.deltas.is_empty(), "seed {seed} generated no deltas");
            let reparsed = Case::parse(&case.to_source()).unwrap();
            assert_eq!(case, reparsed, "seed {seed}");
        }
    }

    #[test]
    fn delta_chain_applies_and_agrees_with_reference() {
        // Hand-written chain over a list grammar: grow the alphabet, add
        // an alternative, modify in place, then remove — each step checked
        // cell-for-cell against a from-scratch RefTable by check_case.
        let src = "class mutation\n\
                   terminals a b\n\
                   start N0\n\
                   prod N0 -> N1\n\
                   prod N0 -> N0 N1\n\
                   prod N1 -> a\n\
                   doc a a\n\
                   delta add N1 -> b g\n\
                   delta mod N1 -> a => g a\n\
                   delta rm N1 -> b g\n";
        let case = Case::parse(src).unwrap();
        let outcome = check_case(&case).unwrap();
        assert_eq!(outcome.deltas_applied, 3, "all three steps must apply");
    }

    #[test]
    fn delta_chain_skips_unresolvable_steps() {
        let src = "class mutation\nterminals a\nstart N0\nprod N0 -> a\n\
                   delta rm N9 -> a\ndelta rm N0 -> a a a\ndelta add N0 -> a a\n";
        let case = Case::parse(src).unwrap();
        let outcome = check_case(&case).unwrap();
        assert_eq!(outcome.deltas_applied, 1, "only the add resolves");
    }

    #[test]
    fn generated_documents_derive_from_their_grammar() {
        for class in GrammarClass::all() {
            for seed in 0..10 {
                let case = random_case(class, seed);
                if case.doc.is_empty() {
                    continue;
                }
                let g = case.build_grammar().unwrap();
                let toks = case.tokens(&g).unwrap();
                assert!(
                    EarleyParser::new(&g).recognize(&toks),
                    "{class} seed {seed}: derived doc must be in the language\n{}",
                    case.to_source()
                );
            }
        }
    }

    #[test]
    fn dag_count_matches_earley_on_catalan_ambiguity() {
        // E -> E + E | num over n operators has Catalan(n) parses.
        let src = "terminals + n\nstart E\nprod E -> E + E\nprod E -> n\ndoc n + n + n + n";
        let case = Case::parse(src).unwrap();
        let outcome = check_case(&case).unwrap();
        assert_eq!(outcome.parse_count, Some(5), "Catalan(3) = 5");
    }

    #[test]
    fn cyclic_grammar_is_refused_not_hung() {
        let src = "terminals a\nstart A\nprod A -> B\nprod B -> A\nprod B -> a\ndoc a";
        let outcome = check_case(&Case::parse(src).unwrap()).unwrap();
        assert!(outcome.table_refused);
        assert!(outcome.accepted, "Earley still recognizes the document");
    }

    #[test]
    fn minimizer_shrinks_under_a_synthetic_predicate() {
        let case = random_case(GrammarClass::Lr1, 9);
        let src = case.to_source();
        // Predicate: "still parses as a case and still has >= 1 prod with
        // terminal 'a' somewhere" — minimal form is tiny.
        let fails = |s: &str| {
            Case::parse(s)
                .is_ok_and(|c| c.prods.iter().any(|(_, rhs)| rhs.iter().any(|x| x == "a")))
        };
        if !fails(&src) {
            return; // this seed has no 'a' production; nothing to test
        }
        let small = minimize_with(&src, &fails);
        assert!(fails(&small));
        assert!(small.len() <= src.len());
    }

    #[test]
    fn quick_sweep_is_clean() {
        // The smoke tier: a handful of seeds per class through the full
        // differential; CI's fuzz job runs the large sweep.
        for class in GrammarClass::all() {
            for seed in 0..12 {
                let case = random_case(class, seed);
                if let Err(d) = check_case(&case) {
                    panic!("{class} seed {seed}: {d}\n{}", case.to_source());
                }
            }
        }
    }
}
