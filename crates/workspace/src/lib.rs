//! **`wg-workspace`** — the concurrent multi-document service layer over
//! the Wagner–Graham incremental analysis pipeline.
//!
//! Three previous iterations made a *single* session fast (shared
//! artifacts, rope text, allocation-free IGLR); this crate scales the
//! system *out*: N independent [`wg_core::Session`]s scheduled as
//! stealable documents over a hand-rolled `std::thread` pool, one
//! thread-safe [`wg_core::LanguageRegistry`] sharing every immutable
//! artifact (grammar, LALR table, compiled lexer) across shards, and a
//! batch edit API with per-document ordering (structural: each document
//! owns a FIFO mailbox that migrates with it), cross-document
//! parallelism, document-granularity work stealing, edit coalescing
//! (consecutive pending edits share one covering reparse cycle), bounded
//! mailboxes for backpressure, graceful drain-on-shutdown, and
//! per-document panic isolation that survives migration. Semantic
//! queries never enter a mailbox: they read the document's published
//! snapshot on the caller's thread. No dependencies beyond `std` and the
//! repo's own crates; no `unsafe`.
//!
//! # Example
//!
//! ```
//! use wg_grammar::{GrammarBuilder, SeqKind, Symbol};
//! use wg_lexer::LexerDef;
//! use wg_workspace::{EditReq, Workspace};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = GrammarBuilder::new("tiny");
//! let id = b.terminal("id");
//! let semi = b.terminal(";");
//! let stmt = b.nonterminal("stmt");
//! let prog = b.nonterminal("prog");
//! b.prod(stmt, vec![Symbol::T(id), Symbol::T(semi)]);
//! b.sequence(prog, Symbol::N(stmt), SeqKind::Plus, None);
//! b.start(prog);
//! let grammar = b.build()?;
//! let mut lx = LexerDef::new();
//! lx.rule("id", "[a-z]+")?;
//! lx.literal(";", ";");
//! lx.skip("ws", "[ \\n\\t]+")?;
//!
//! let ws = Workspace::new(4, 64);
//! let doc = ws.open(grammar, lx, "alpha; beta;")?;
//! let reports = ws.apply(vec![(doc, vec![EditReq::replace(0, 5, "gamma")])]);
//! assert!(reports[0].result.as_ref().unwrap().incorporated);
//! assert_eq!(ws.text(doc).unwrap(), "gamma; beta;");
//! let metrics = ws.shutdown();
//! assert_eq!(metrics.edits_applied, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod pool;
mod sync;
mod workspace;

pub use metrics::{LatencyHistogram, WorkspaceMetrics};
pub use pool::{Requeue, ShardPool};
pub use sync::{oneshot, OneShotReceiver, OneShotSender};
pub use workspace::{
    ApplyOutcome, DocId, DocReport, DocResult, EditReq, GrammarSwapReport, PendingApply, SemAnswer,
    SemQuery, Workspace, WorkspaceError,
};
