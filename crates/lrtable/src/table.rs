//! The conflict-preserving LR parse table driving all four parsers in the
//! workspace (deterministic batch, incremental deterministic, batch GLR,
//! incremental GLR).
//!
//! Construction happens in two stages: the classic cell-of-Vecs *raw*
//! build (shifts/gotos from the automaton, SLR/LALR reductions, static
//! precedence filters, Section 3.2 nonterminal-reduction precomputation),
//! followed by [`crate::packed`]'s dense packing pass. The public
//! [`LrTable`] keeps only the packed arrays; [`RefTable`] exposes the raw
//! form for differential tests and size comparisons.

use crate::automaton::{Lr0Automaton, StateId};
use crate::lalr::{iter_bits, lalr_lookaheads, Lookaheads};
use crate::packed::{Cell, PackError, PackedTables, TableStats, NT_LEN_MASK, NT_NONE};
use std::fmt;
use wg_grammar::{Assoc, Grammar, GrammarAnalysis, NonTerminal, ProdId, Symbol, Terminal};

/// A structured table-construction failure.
///
/// Construction is total for ordinary grammars; it refuses exactly two
/// things: *cyclic* grammars (whose infinitely ambiguous sentences no
/// finite parse forest — and no terminating GLR reduction worklist — can
/// represent) and tables whose indices overflow the packed encoding's
/// fixed bit-widths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableBuildError {
    /// The grammar derives some nonterminal from itself (`A =>+ A`).
    CyclicGrammar {
        /// Name of (one of) the cyclic nonterminals.
        nonterminal: String,
    },
    /// A packed-encoding field overflowed.
    Pack(PackError),
}

impl fmt::Display for TableBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableBuildError::CyclicGrammar { nonterminal } => write!(
                f,
                "grammar is cyclic: `{nonterminal}` derives itself, making \
                 its sentences infinitely ambiguous"
            ),
            TableBuildError::Pack(e) => write!(f, "packed encoding overflow: {e}"),
        }
    }
}

impl std::error::Error for TableBuildError {}

impl From<PackError> for TableBuildError {
    fn from(e: PackError) -> TableBuildError {
        TableBuildError::Pack(e)
    }
}

/// A parse action in one ACTION-table cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Action {
    /// Shift the lookahead and enter the given state.
    Shift(StateId),
    /// Reduce by the given production.
    Reduce(ProdId),
    /// Accept the input (only ever on EOF).
    Accept,
}

/// Which lookahead computation to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableKind {
    /// SLR(1): reduce on FOLLOW(lhs). Simple but over-approximates.
    Slr,
    /// LALR(1) via DeRemer–Pennello — the paper's choice (Section 3.3).
    Lalr,
}

/// The kind of a table conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictKind {
    /// Shift/reduce.
    ShiftReduce,
    /// Reduce/reduce.
    ReduceReduce,
}

/// Summary of conflicts found (and statically resolved) during construction.
///
/// Remaining conflicts are *not* errors: the GLR machinery forks on them.
/// Statically resolved conflicts are the paper's static syntactic filters.
#[derive(Debug, Clone, Default)]
pub struct ConflictReport {
    /// Cells still holding >1 action after static filtering: (state,
    /// terminal, kind).
    pub remaining: Vec<(StateId, Terminal, ConflictKind)>,
    /// Number of shift/reduce conflicts removed by precedence declarations.
    pub resolved_by_precedence: usize,
    /// Number of actions deleted by `%nonassoc` (turned into errors).
    pub nonassoc_errors: usize,
}

impl ConflictReport {
    /// Whether any conflicts survive (the grammar needs GLR).
    pub fn has_conflicts(&self) -> bool {
        !self.remaining.is_empty()
    }
}

/// Per-state construction byproducts retained for incremental update: how
/// much static filtering happened in the row, and which conflicts remain
/// in it. A structurally reused row contributes these to the updated
/// table's [`ConflictReport`] without being recomputed.
#[derive(Debug, Clone, Default)]
pub(crate) struct RowMeta {
    /// Shift/reduce conflicts precedence removed from this row.
    pub(crate) resolved_by_precedence: u32,
    /// Actions `%nonassoc` deleted from this row.
    pub(crate) nonassoc_errors: u32,
    /// Conflicts remaining in this row, in ascending terminal order.
    pub(crate) conflicts: Vec<(Terminal, ConflictKind)>,
}

/// The raw cell-of-Vecs tables produced by construction, before packing.
struct RawTables {
    num_states: usize,
    num_terminals: usize,
    /// `actions[s * num_terminals + t]`, each cell sorted and deduplicated.
    actions: Vec<Vec<Action>>,
    /// `gotos[s * num_nonterminals + n]`.
    gotos: Vec<Option<StateId>>,
    /// Per state, the union of its reductions' lookahead sets as
    /// `num_terminals.div_ceil(64)` bit words: a superset of the terminals
    /// it reduces on (precedence may have dropped some), which lets the
    /// Section 3.2 precomputation skip rows that cannot reduce on FIRST(N).
    reduce_la: Vec<u64>,
    /// States holding at least one cell emptied by `%nonassoc` — a
    /// deliberate error entry. Such states must never default-reduce:
    /// dispatch has to consult the cell and *see* the error.
    no_default: Vec<bool>,
    conflicts: ConflictReport,
    /// Per-state conflict/filter byproducts (for incremental reassembly).
    row_meta: Vec<RowMeta>,
    /// The LALR lookahead sets (`None` for SLR builds), retained so an
    /// incremental update can detect rows whose reductions changed.
    lookaheads: Option<Lookaheads>,
    automaton: Lr0Automaton,
}

fn build_raw(g: &Grammar, an: &GrammarAnalysis, kind: TableKind) -> RawTables {
    let auto = Lr0Automaton::build(g);
    let num_states = auto.num_states();
    let num_terminals = g.num_terminals();
    let num_nonterminals = g.num_nonterminals();

    let mut actions: Vec<Vec<Action>> = vec![Vec::new(); num_states * num_terminals];
    let mut gotos: Vec<Option<StateId>> = vec![None; num_states * num_nonterminals];

    // Shifts and gotos straight from the automaton. A shift on EOF only
    // arises from `S' -> S · eof`; it becomes Accept, stored at EOF's own
    // column (not a hardcoded column 0 — terminal numbering must not be
    // able to silently corrupt the accept cell).
    for (s, sym, t) in auto.transitions() {
        match sym {
            Symbol::T(term) if term.is_eof() => {
                debug_assert_eq!(term, Terminal::EOF);
                actions[s.index() * num_terminals + term.index()].push(Action::Accept);
            }
            Symbol::T(term) => {
                actions[s.index() * num_terminals + term.index()].push(Action::Shift(t));
            }
            Symbol::N(n) => {
                gotos[s.index() * num_nonterminals + n.index()] = Some(t);
            }
        }
    }

    // Reductions.
    let (lalr, follow) = match kind {
        TableKind::Lalr => (Some(lalr_lookaheads(g, an, &auto)), None),
        TableKind::Slr => (None, Some(an.follow_sets(g))),
    };
    let words = num_terminals.div_ceil(64);
    let mut reduce_la = vec![0u64; num_states * words];
    for s in 0..num_states {
        let sid = StateId(s as u32);
        let row = &mut actions[s * num_terminals..(s + 1) * num_terminals];
        let row_la = &mut reduce_la[s * words..(s + 1) * words];
        let mut add = |prod: ProdId, la: &[u64]| {
            for t in iter_bits(la) {
                row[t.index()].push(Action::Reduce(prod));
            }
            for (acc, w) in row_la.iter_mut().zip(la) {
                *acc |= w;
            }
        };
        match &lalr {
            Some(la) => la.reductions(sid).for_each(|(prod, set)| add(prod, set)),
            None => {
                let follow = follow.as_ref().expect("SLR builds compute FOLLOW");
                for item in auto.closure(sid).items() {
                    if item.is_final(g) && item.prod != ProdId::AUGMENTED {
                        add(
                            item.prod,
                            follow[g.production(item.prod).lhs().index()].words(),
                        );
                    }
                }
            }
        }
    }

    // Canonicalize cells and apply static filters, recording each row's
    // contribution to the global report so incremental update can
    // reassemble it from reused rows.
    let mut conflicts = ConflictReport::default();
    let mut no_default = vec![false; num_states];
    let mut row_meta = Vec::with_capacity(num_states);
    for s in 0..num_states {
        let (rp0, na0) = (conflicts.resolved_by_precedence, conflicts.nonassoc_errors);
        let remaining0 = conflicts.remaining.len();
        for t in 0..num_terminals {
            let cell = &mut actions[s * num_terminals + t];
            cell.sort_unstable();
            cell.dedup();
            if cell.len() > 1 && resolve_cell(g, Terminal::from_index(t), cell, &mut conflicts) {
                no_default[s] = true;
            }
            if cell.len() > 1 {
                let kind = if cell.iter().any(|a| matches!(a, Action::Shift(_))) {
                    ConflictKind::ShiftReduce
                } else {
                    ConflictKind::ReduceReduce
                };
                conflicts
                    .remaining
                    .push((StateId(s as u32), Terminal::from_index(t), kind));
            }
        }
        row_meta.push(RowMeta {
            resolved_by_precedence: (conflicts.resolved_by_precedence - rp0) as u32,
            nonassoc_errors: (conflicts.nonassoc_errors - na0) as u32,
            conflicts: conflicts.remaining[remaining0..]
                .iter()
                .map(|&(_, t, k)| (t, k))
                .collect(),
        });
    }

    RawTables {
        num_states,
        num_terminals,
        actions,
        gotos,
        reduce_la,
        no_default,
        conflicts,
        row_meta,
        lookaheads: lalr,
        automaton: auto,
    }
}

/// Packs raw tables, computing the Section 3.2 nonterminal reductions on
/// the packed cells.
fn pack_raw(g: &Grammar, an: &GrammarAnalysis, raw: &RawTables) -> Result<PackedTables, PackError> {
    PackedTables::pack(
        g,
        an,
        raw.num_states,
        &raw.actions,
        &raw.gotos,
        &raw.reduce_la,
        &raw.no_default,
    )
}

/// A conflict-preserving SLR(1)/LALR(1) parse table in the packed,
/// cache-dense representation: tagged-u32 cells read through [`Cell`],
/// a shared conflict arena, terminal equivalence classes, and per-state
/// default reductions.
#[derive(Debug, Clone)]
pub struct LrTable {
    pub(crate) kind: TableKind,
    pub(crate) num_states: usize,
    pub(crate) num_terminals: usize,
    pub(crate) packed: PackedTables,
    pub(crate) conflicts: ConflictReport,
    pub(crate) automaton: Lr0Automaton,
    /// Retained intermediates for incremental update (`crate::incr`): the
    /// LALR lookahead sets (`None` for SLR), per-row conflict byproducts,
    /// and the no-default-reduce flags.
    pub(crate) lookaheads: Option<Lookaheads>,
    pub(crate) row_meta: Vec<RowMeta>,
    pub(crate) no_default: Vec<bool>,
    /// The grammar analysis the table was built from, retained so an
    /// update need not recompute the old grammar's FIRST sets.
    pub(crate) analysis: GrammarAnalysis,
}

impl LrTable {
    /// Builds the table for `g`, retaining conflicts and applying static
    /// precedence filters.
    ///
    /// # Panics
    ///
    /// Panics on a [`TableBuildError`] (cyclic grammar or packed-encoding
    /// overflow); use [`LrTable::try_build`] to handle those structurally.
    pub fn build(g: &Grammar, kind: TableKind) -> LrTable {
        Self::try_build(g, kind).unwrap_or_else(|e| panic!("table construction failed: {e}"))
    }

    /// As [`LrTable::build`], reusing a precomputed [`GrammarAnalysis`].
    ///
    /// # Panics
    ///
    /// Panics on a [`TableBuildError`].
    pub fn build_with_analysis(g: &Grammar, an: &GrammarAnalysis, kind: TableKind) -> LrTable {
        Self::try_build_with_analysis(g, an, kind)
            .unwrap_or_else(|e| panic!("table construction failed: {e}"))
    }

    /// Fallible table construction: refuses cyclic grammars and reports
    /// packed-encoding overflows as structured errors.
    ///
    /// # Errors
    ///
    /// Returns a [`TableBuildError`] for cyclic grammars or field overflow.
    pub fn try_build(g: &Grammar, kind: TableKind) -> Result<LrTable, TableBuildError> {
        Self::build_owned(g, GrammarAnalysis::new(g), kind)
    }

    /// As [`LrTable::try_build`], reusing a precomputed [`GrammarAnalysis`].
    ///
    /// # Errors
    ///
    /// Returns a [`TableBuildError`] for cyclic grammars or field overflow.
    pub fn try_build_with_analysis(
        g: &Grammar,
        an: &GrammarAnalysis,
        kind: TableKind,
    ) -> Result<LrTable, TableBuildError> {
        Self::build_owned(g, an.clone(), kind)
    }

    /// As [`LrTable::try_build_with_analysis`], keeping `an` in the table.
    pub(crate) fn build_owned(
        g: &Grammar,
        an: GrammarAnalysis,
        kind: TableKind,
    ) -> Result<LrTable, TableBuildError> {
        if let Some(&n) = an.cyclic_nonterminals(g).first() {
            return Err(TableBuildError::CyclicGrammar {
                nonterminal: g.nonterminal_name(n).to_string(),
            });
        }
        let raw = build_raw(g, &an, kind);
        let packed = pack_raw(g, &an, &raw)?;
        Ok(LrTable {
            kind,
            num_states: raw.num_states,
            num_terminals: raw.num_terminals,
            packed,
            conflicts: raw.conflicts,
            automaton: raw.automaton,
            lookaheads: raw.lookaheads,
            row_meta: raw.row_meta,
            no_default: raw.no_default,
            analysis: an,
        })
    }

    /// Which lookahead computation built this table.
    pub fn kind(&self) -> TableKind {
        self.kind
    }

    /// Number of automaton states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// The start state.
    pub fn start_state(&self) -> StateId {
        StateId::START
    }

    /// The actions for `(state, terminal)`; an empty cell means syntax
    /// error. The returned [`Cell`] is `Copy` — fetch once, iterate freely.
    #[inline]
    pub fn actions(&self, s: StateId, t: Terminal) -> Cell<'_> {
        self.packed.cell(s, t)
    }

    /// The state's *default reduction*, if it has one: the single non-ε
    /// production the state reduces by on **every** valid lookahead.
    /// Dispatch may perform it without consulting the lookahead at all;
    /// errors are still caught before any invalid terminal is shifted.
    #[inline]
    pub fn default_reduction(&self, s: StateId) -> Option<ProdId> {
        self.packed.default_reduction(s)
    }

    /// The GOTO target for `(state, nonterminal)`, if defined.
    #[inline]
    pub fn goto(&self, s: StateId, n: NonTerminal) -> Option<StateId> {
        self.packed.goto(s, n)
    }

    /// Precomputed reductions valid with nonterminal lookahead `n` in state
    /// `s` (Section 3.2). `None` means the lookahead subtree must be broken
    /// down to its leading terminal.
    #[inline]
    pub fn nt_reductions(&self, s: StateId, n: NonTerminal) -> Option<&[ProdId]> {
        self.packed.nt_reductions(s, n)
    }

    /// Whether no cell holds more than one action.
    pub fn is_deterministic(&self) -> bool {
        !self.conflicts.has_conflicts()
    }

    /// The conflict report (remaining + statically resolved).
    pub fn conflicts(&self) -> &ConflictReport {
        &self.conflicts
    }

    /// The underlying LR(0) automaton (for diagnostics and tests).
    pub fn automaton(&self) -> &Lr0Automaton {
        &self.automaton
    }

    /// Total number of nonempty ACTION entries (a size metric for
    /// Section 5-style reporting).
    pub fn num_action_entries(&self) -> usize {
        self.packed.action_entries()
    }

    /// Size and shape metrics of the packed representation.
    pub fn stats(&self) -> TableStats {
        self.packed.stats(self.num_states, self.num_terminals)
    }

    /// Renders one state's kernel items (diagnostics).
    pub fn display_state(&self, g: &Grammar, s: StateId) -> String {
        let mut out = format!("state {}:\n", s.index());
        for item in self.automaton.kernel(s).items() {
            out.push_str("  ");
            out.push_str(&item.display(g));
            out.push('\n');
        }
        out
    }
}

/// The raw (naive, cell-of-Vecs) table, exposed for differential testing
/// and size comparison against the packed [`LrTable`]. Built by the same
/// construction pass, skipping only the packing of ACTION and GOTO; its
/// nonterminal-reduction lists come from the one Section 3.2 routine,
/// which reads packed cells.
pub struct RefTable {
    raw: RawTables,
    num_nonterminals: usize,
    packed: PackedTables,
}

impl RefTable {
    /// Builds the reference table for `g`.
    ///
    /// # Panics
    ///
    /// Panics on a packed-encoding overflow of the nonterminal-reduction
    /// lists.
    pub fn build(g: &Grammar, kind: TableKind) -> RefTable {
        let an = GrammarAnalysis::new(g);
        let raw = build_raw(g, &an, kind);
        let packed =
            pack_raw(g, &an, &raw).unwrap_or_else(|e| panic!("table construction failed: {e}"));
        RefTable {
            raw,
            num_nonterminals: g.num_nonterminals(),
            packed,
        }
    }

    /// Number of automaton states.
    pub fn num_states(&self) -> usize {
        self.raw.num_states
    }

    /// The actions for `(state, terminal)` as a plain slice.
    pub fn actions(&self, s: StateId, t: Terminal) -> &[Action] {
        &self.raw.actions[s.index() * self.raw.num_terminals + t.index()]
    }

    /// The GOTO target for `(state, nonterminal)`, if defined.
    pub fn goto(&self, s: StateId, n: NonTerminal) -> Option<StateId> {
        self.raw.gotos[s.index() * self.num_nonterminals + n.index()]
    }

    /// Precomputed reductions for nonterminal lookahead (Section 3.2).
    pub fn nt_reductions(&self, s: StateId, n: NonTerminal) -> Option<&[ProdId]> {
        self.packed.nt_reductions(s, n)
    }

    /// Total number of nonempty ACTION entries.
    pub fn num_action_entries(&self) -> usize {
        self.raw.actions.iter().map(|c| c.len()).sum()
    }

    /// Heap + inline bytes of the naive representation (what [`LrTable`]
    /// stored before packing): per-cell `Vec` headers plus their elements.
    pub fn naive_bytes(&self) -> usize {
        let vec_hdr = std::mem::size_of::<Vec<Action>>();
        let action_cells = self.raw.actions.len() * vec_hdr
            + self.num_action_entries() * std::mem::size_of::<Action>();
        let goto_cells = self.raw.gotos.len() * std::mem::size_of::<Option<StateId>>();
        let nt_entries: usize = self
            .packed
            .nt_cells
            .iter()
            .filter(|&&w| w != NT_NONE)
            .map(|&w| (w & NT_LEN_MASK) as usize)
            .sum();
        let nt_cells = self.packed.nt_cells.len() * std::mem::size_of::<Option<Vec<ProdId>>>()
            + nt_entries * std::mem::size_of::<ProdId>();
        action_cells + goto_cells + nt_cells
    }
}

impl fmt::Display for TableKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableKind::Slr => write!(f, "SLR(1)"),
            TableKind::Lalr => write!(f, "LALR(1)"),
        }
    }
}

/// Applies yacc-style precedence to a conflicted cell (the paper's *static
/// syntactic filters*, Section 4.1). Returns `true` when `%nonassoc`
/// emptied the cell — a deliberate error entry the containing state must
/// surface (so it can never carry a default reduction).
pub(crate) fn resolve_cell(
    g: &Grammar,
    term: Terminal,
    cell: &mut Vec<Action>,
    report: &mut ConflictReport,
) -> bool {
    let term_prec = g.terminal_precedence(term);
    let Some(tp) = term_prec else { return false };
    let shifts: Vec<Action> = cell
        .iter()
        .copied()
        .filter(|a| matches!(a, Action::Shift(_)))
        .collect();
    if shifts.is_empty() {
        return false; // reduce/reduce: never resolved by precedence (as in yacc)
    }
    let mut drop_shift = false;
    let mut nonassoc_fired = false;
    let mut dropped: Vec<Action> = Vec::new();
    for a in cell.iter() {
        let Action::Reduce(p) = a else { continue };
        let Some(pp) = g.production(*p).precedence() else {
            continue;
        };
        if pp.level > tp.level {
            drop_shift = true;
            report.resolved_by_precedence += 1;
        } else if pp.level < tp.level {
            dropped.push(*a);
            report.resolved_by_precedence += 1;
        } else {
            match tp.assoc {
                Assoc::Left => {
                    drop_shift = true;
                    report.resolved_by_precedence += 1;
                }
                Assoc::Right => {
                    dropped.push(*a);
                    report.resolved_by_precedence += 1;
                }
                Assoc::NonAssoc => {
                    drop_shift = true;
                    dropped.push(*a);
                    nonassoc_fired = true;
                    report.nonassoc_errors += 1;
                }
            }
        }
    }
    cell.retain(|a| {
        if drop_shift && matches!(a, Action::Shift(_)) {
            return false;
        }
        !dropped.contains(a)
    });
    nonassoc_fired && cell.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_grammar::GrammarBuilder;

    fn expr_ambiguous(with_prec: bool) -> Grammar {
        // E -> E + E | E * E | num — genuinely ambiguous.
        let mut b = GrammarBuilder::new("expr");
        let plus = b.terminal("+");
        let star = b.terminal("*");
        let num = b.terminal("num");
        if with_prec {
            b.left(&[plus]);
            b.left(&[star]);
        }
        let e = b.nonterminal("E");
        b.prod(e, vec![Symbol::N(e), Symbol::T(plus), Symbol::N(e)]);
        b.prod(e, vec![Symbol::N(e), Symbol::T(star), Symbol::N(e)]);
        b.prod(e, vec![Symbol::T(num)]);
        b.start(e);
        b.build().unwrap()
    }

    #[test]
    fn ambiguous_grammar_keeps_conflicts() {
        let g = expr_ambiguous(false);
        let t = LrTable::build(&g, TableKind::Lalr);
        assert!(!t.is_deterministic());
        assert!(t
            .conflicts()
            .remaining
            .iter()
            .all(|(_, _, k)| *k == ConflictKind::ShiftReduce));
        // Some cell actually carries two actions for GLR to fork on.
        let plus = g.terminal_by_name("+").unwrap();
        let any_multi = (0..t.num_states()).any(|s| t.actions(StateId(s as u32), plus).len() > 1);
        assert!(any_multi);
    }

    #[test]
    fn precedence_statically_filters_all_conflicts() {
        let g = expr_ambiguous(true);
        let t = LrTable::build(&g, TableKind::Lalr);
        assert!(
            t.is_deterministic(),
            "precedence must remove every conflict: {:?}",
            t.conflicts().remaining
        );
        assert!(t.conflicts().resolved_by_precedence > 0);
    }

    #[test]
    fn nonassoc_removes_both_actions() {
        // E -> E < E | num with %nonassoc <  makes `a < b < c` an error.
        let mut b = GrammarBuilder::new("cmp");
        let lt = b.terminal("<");
        let num = b.terminal("num");
        b.nonassoc(&[lt]);
        let e = b.nonterminal("E");
        b.prod(e, vec![Symbol::N(e), Symbol::T(lt), Symbol::N(e)]);
        b.prod(e, vec![Symbol::T(num)]);
        b.start(e);
        let g = b.build().unwrap();
        let t = LrTable::build(&g, TableKind::Lalr);
        assert!(t.is_deterministic());
        assert!(t.conflicts().nonassoc_errors > 0);
        // After E < E reduces... find the state where E < E· with lookahead <:
        // the cell must be empty (error), not shift or reduce.
        let found_empty = (0..t.num_states()).any(|s| {
            let sid = StateId(s as u32);
            t.automaton()
                .kernel(sid)
                .items()
                .iter()
                .any(|it| it.dot == 3 && it.is_final(&g))
                && t.actions(sid, lt).is_empty()
        });
        assert!(found_empty, "nonassoc must leave an error cell");
    }

    #[test]
    fn deterministic_grammar_accepts_via_eof_cell() {
        let mut b = GrammarBuilder::new("g");
        let x = b.terminal("x");
        let s = b.nonterminal("S");
        b.prod(s, vec![Symbol::T(x)]);
        b.start(s);
        let g = b.build().unwrap();
        let t = LrTable::build(&g, TableKind::Lalr);
        // Drive manually: start --x--> q1, reduce S->x, goto, accept on EOF.
        let acts = t.actions(StateId::START, x);
        let Action::Shift(q1) = acts.get(0) else {
            panic!("expected shift")
        };
        let acts = t.actions(q1, Terminal::EOF);
        assert!(matches!(acts.get(0), Action::Reduce(_)));
        let s_state = t.goto(StateId::START, s).unwrap();
        assert_eq!(t.actions(s_state, Terminal::EOF).to_vec(), [Action::Accept]);
    }

    #[test]
    fn slr_conflicts_where_lalr_does_not() {
        // S -> L = R | R ; L -> * R | id ; R -> L
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
        let slr = LrTable::build(&g, TableKind::Slr);
        let lalr = LrTable::build(&g, TableKind::Lalr);
        assert!(!slr.is_deterministic(), "SLR must conflict on this grammar");
        assert!(lalr.is_deterministic(), "LALR must not");
    }

    #[test]
    fn nt_reduce_precomputation() {
        // S -> A b ; A -> a  — in the state after shifting `a`, the reduce
        // A -> a happens on FIRST of anything following; with nonterminal
        // lookahead B where FIRST(B)={b}, reduction must be precomputable.
        let mut b = GrammarBuilder::new("g");
        let a_t = b.terminal("a");
        let b_t = b.terminal("b");
        let s = b.nonterminal("S");
        let a_n = b.nonterminal("A");
        let b_n = b.nonterminal("B");
        b.prod(s, vec![Symbol::N(a_n), Symbol::N(b_n)]);
        b.prod(a_n, vec![Symbol::T(a_t)]);
        b.prod(b_n, vec![Symbol::T(b_t)]);
        b.start(s);
        let g = b.build().unwrap();
        let t = LrTable::build(&g, TableKind::Lalr);
        let q = match t.actions(StateId::START, a_t).get(0) {
            Action::Shift(q) => q,
            other => panic!("expected shift, got {other:?}"),
        };
        let reds = t
            .nt_reductions(q, b_n)
            .expect("FIRST(B) = {b} must agree trivially");
        assert_eq!(reds.len(), 1);
        assert_eq!(g.production(reds[0]).lhs(), a_n);
    }

    #[test]
    fn table_metrics_nonzero() {
        let g = expr_ambiguous(true);
        let t = LrTable::build(&g, TableKind::Lalr);
        assert!(t.num_states() > 3);
        assert!(t.num_action_entries() > 0);
        assert!(t.display_state(&g, StateId::START).contains("state 0"));
        assert_eq!(format!("{}", t.kind()), "LALR(1)");
    }

    #[test]
    fn packed_stats_are_consistent() {
        let g = expr_ambiguous(false);
        let t = LrTable::build(&g, TableKind::Lalr);
        let r = RefTable::build(&g, TableKind::Lalr);
        let stats = t.stats();
        assert_eq!(stats.states, t.num_states());
        assert_eq!(stats.action_entries, r.num_action_entries());
        assert_eq!(t.num_action_entries(), r.num_action_entries());
        assert!(stats.term_classes <= stats.terminals);
        assert!(stats.term_classes >= 1);
        // The ambiguous grammar has conflict cells, which must spill.
        assert!(stats.spilled_cells > 0);
        assert!(stats.packed_bytes > 0);
        assert!(
            stats.packed_bytes < r.naive_bytes(),
            "packing must shrink the table: packed={} naive={}",
            stats.packed_bytes,
            r.naive_bytes()
        );
    }

    #[test]
    fn default_reduce_only_on_uniform_reduce_states() {
        // S -> x — the state after shifting `x` reduces S->x on its single
        // valid lookahead (EOF) and nothing else: a default-reduce state.
        let mut b = GrammarBuilder::new("g");
        let x = b.terminal("x");
        let s = b.nonterminal("S");
        b.prod(s, vec![Symbol::T(x)]);
        b.start(s);
        let g = b.build().unwrap();
        let t = LrTable::build(&g, TableKind::Lalr);
        let Action::Shift(q1) = t.actions(StateId::START, x).get(0) else {
            panic!("expected shift")
        };
        let p = t.default_reduction(q1).expect("uniform reduce state");
        assert_eq!(t.actions(q1, Terminal::EOF).to_vec(), [Action::Reduce(p)]);
        // The start state shifts, so it can never default-reduce.
        assert_eq!(t.default_reduction(StateId::START), None);
        // Default reductions never name ε-productions and always agree with
        // every nonempty cell in their row.
        for st in 0..t.num_states() {
            let sid = StateId(st as u32);
            if let Some(p) = t.default_reduction(sid) {
                assert!(g.production(p).arity() > 0, "ε default-reduce forbidden");
                for term in 0..g.num_terminals() {
                    let cell = t.actions(sid, Terminal::from_index(term));
                    if !cell.is_empty() {
                        assert_eq!(cell.to_vec(), [Action::Reduce(p)]);
                    }
                }
            }
        }
    }
}

impl LrTable {
    /// Renders the LR(0) automaton as Graphviz dot (states labelled with
    /// kernel items; conflicted states double-circled).
    pub fn to_dot(&self, g: &Grammar) -> String {
        use std::fmt::Write;
        let conflicted: wg_grammar::fx::FxHashSet<usize> = self
            .conflicts
            .remaining
            .iter()
            .map(|(s, _, _)| s.index())
            .collect();
        let mut out = String::from(
            "digraph lr {\n  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n",
        );
        for s in 0..self.num_states {
            let sid = StateId(s as u32);
            let mut label = format!("state {s}\\n");
            for item in self.automaton.kernel(sid).items() {
                label.push_str(&item.display(g).replace('"', "'"));
                label.push_str("\\n");
            }
            let extra = if conflicted.contains(&s) {
                ", peripheries=2, color=red"
            } else {
                ""
            };
            let _ = writeln!(out, "  s{s} [label=\"{label}\"{extra}];");
        }
        for (from, sym, to) in self.automaton.transitions() {
            let _ = writeln!(
                out,
                "  s{} -> s{} [label=\"{}\"];",
                from.index(),
                to.index(),
                g.symbol_name(sym).replace('"', "'")
            );
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;
    use wg_grammar::{GrammarBuilder, Symbol};

    #[test]
    fn dot_export_contains_states_and_conflict_marks() {
        let mut b = GrammarBuilder::new("amb");
        let plus = b.terminal("+");
        let num = b.terminal("num");
        let e = b.nonterminal("E");
        b.prod(e, vec![Symbol::N(e), Symbol::T(plus), Symbol::N(e)]);
        b.prod(e, vec![Symbol::T(num)]);
        b.start(e);
        let g = b.build().unwrap();
        let t = LrTable::build(&g, TableKind::Lalr);
        let dot = t.to_dot(&g);
        assert!(dot.starts_with("digraph lr {"));
        assert!(dot.contains("state 0"));
        assert!(dot.contains("peripheries=2"), "conflicted state marked");
        assert!(dot.contains("label=\"num\""));
        assert!(dot.trim_end().ends_with('}'));
        // Every state appears.
        for s in 0..t.num_states() {
            assert!(dot.contains(&format!("s{s} [label=")));
        }
    }
}
