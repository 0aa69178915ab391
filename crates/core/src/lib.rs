//! **Incremental GLR parsing and the analysis session** — the paper's
//! primary contribution.
//!
//! The IGLR parser (Section 3.3, Appendix A) combines:
//!
//! * *generalized LR parsing* over conflict-preserving LALR(1) tables — any
//!   context-free grammar is accepted, forking parsers on conflicts with a
//!   graph-structured stack and packing local ambiguity into the abstract
//!   parse dag's symbol nodes; with
//! * *state-matching subtree reuse* — unmodified subtrees of the previous
//!   tree version are shifted whole (O(1)) when the recorded parse state
//!   matches the current one, and decomposed lazily otherwise; with
//! * *dynamic lookahead tracking* — nodes built while several parsers were
//!   active carry the multistate sentinel, one equivalence class for all
//!   non-deterministic states, so later reparses decompose exactly the
//!   regions whose recognition used extended lookahead. This removes any
//!   need to persist the GSS between parses (unlike Ferro & Dion).
//!
//! [`IglrParser`] is the algorithm; [`Session`] is the user-facing pipeline
//! that owns the text buffer, the incremental lexer, and the dag, and turns
//! `edit → reparse` into the few-microsecond operation the paper measures.
//!
//! # Example
//!
//! ```
//! use wg_core::{Session, SessionConfig};
//! use wg_grammar::{GrammarBuilder, SeqKind, Symbol};
//! use wg_lexer::LexerDef;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A tiny statement language: prog = (id ;)+
//! let mut b = GrammarBuilder::new("tiny");
//! let id = b.terminal("id");
//! let semi = b.terminal(";");
//! let stmt = b.nonterminal("stmt");
//! let prog = b.nonterminal("prog");
//! b.prod(stmt, vec![Symbol::T(id), Symbol::T(semi)]);
//! b.sequence(prog, Symbol::N(stmt), SeqKind::Plus, None);
//! b.start(prog);
//! let g = b.build()?;
//!
//! let mut lx = LexerDef::new();
//! lx.rule("id", "[a-z]+")?;
//! lx.literal(";", ";");
//! lx.skip("ws", "[ \\n\\t]+")?;
//!
//! let config = SessionConfig::new(g, lx)?;
//! let mut session = Session::new(&config, "alpha; beta;")?;
//! assert_eq!(session.token_count(), 4);
//!
//! // Edit and incrementally reparse.
//! session.edit(0, 5, "gamma");
//! let outcome = session.reparse()?;
//! assert!(outcome.incorporated);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod parser;
mod registry;
mod semantics;
mod session;
mod snapshot;
mod tape;

pub use metrics::{ReparseReport, SessionMetrics};
pub use parser::{IglrError, IglrParser, IglrRunStats};
pub use registry::{GrammarUpdate, LangSlot, LanguageRegistry, UpdateError};
pub use semantics::{SemInfo, SemNameKind, SemReadView, SemUpdate, SemanticPass};
pub use session::{ReparseOutcome, Session, SessionConfig, SessionError};
pub use snapshot::Snapshot;
pub use tape::TokenTape;
// Re-exported so registry-facing callers (the workspace service) can name
// the incremental-update statistics without a wg-lrtable dependency.
pub use wg_lrtable::IncrStats;
