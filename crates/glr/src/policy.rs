//! LR-state annotations on dag nodes and the table-derived sequence
//! policy, shared by every parser that builds abstract parse dags.

use wg_dag::{ParseState, SequencePolicy};
use wg_grammar::{Grammar, NonTerminal, ProdKind};
use wg_lrtable::{LrTable, StateId};

/// Converts an LR state to a dag parse-state annotation.
#[inline]
pub fn ps(s: StateId) -> ParseState {
    ParseState(s.0)
}

/// Converts a dag parse-state annotation back to an LR state, if it is
/// deterministic.
#[inline]
pub fn sid(p: ParseState) -> Option<StateId> {
    p.is_deterministic().then_some(StateId(p.0))
}

/// Sequence policy derived from the grammar and parse table: a run of
/// sequence steps is consumed in `GOTO(seq_state, L)`.
pub struct TablePolicy<'a> {
    /// The grammar (for sequence-production shapes).
    pub g: &'a Grammar,
    /// The parse table (for run states).
    pub table: &'a LrTable,
}

impl SequencePolicy for TablePolicy<'_> {
    fn is_separated(&self, sym: NonTerminal) -> bool {
        self.g.productions_for(sym).any(|p| {
            self.g.production(p).kind() == ProdKind::SeqCons && self.g.production(p).arity() == 3
        })
    }

    fn run_state(&self, seq_state: ParseState, sym: NonTerminal) -> Option<ParseState> {
        let s = sid(seq_state)?;
        self.table.goto(s, sym).map(ps)
    }

    fn seq_prod_symbol(&self, prod: wg_grammar::ProdId) -> Option<NonTerminal> {
        let p = self.g.production(prod);
        p.kind().is_sequence().then(|| p.lhs())
    }
}
