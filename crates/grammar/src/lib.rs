//! Context-free grammar representation for the Wagner–Graham reproduction.
//!
//! This crate supplies the grammar model shared by every analysis in the
//! workspace: the LALR table generator (`wg-lrtable`), the batch GLR and
//! Earley parsers, and the incremental GLR parser in `wg-core`.
//!
//! The model follows the paper's requirements:
//!
//! * **Arbitrary CFGs.** Nothing restricts grammars to LALR(1); conflicts are
//!   data, not errors (Section 3.1 of the paper).
//! * **Regular right parts.** Associative sequences can be declared with
//!   [`GrammarBuilder::sequence`]; they lower to marked left-recursive
//!   productions that the parse-dag layer rebalances into balanced binary
//!   trees (Section 3.4).
//! * **Static disambiguation.** Terminal precedence and associativity
//!   declarations ([`GrammarBuilder::left`] and friends) are carried on
//!   productions so table construction can resolve conflicts statically
//!   (Section 4.1).
//!
//! # Example
//!
//! ```
//! use wg_grammar::{GrammarBuilder, Symbol};
//!
//! # fn main() -> Result<(), wg_grammar::GrammarError> {
//! let mut b = GrammarBuilder::new("expr");
//! let plus = b.terminal("+");
//! let num = b.terminal("num");
//! let e = b.nonterminal("E");
//! b.prod(e, vec![Symbol::N(e), Symbol::T(plus), Symbol::N(e)]);
//! b.prod(e, vec![Symbol::T(num)]);
//! b.start(e);
//! let g = b.build()?;
//! assert_eq!(g.productions_for(e).count(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod builder;
mod delta;
pub mod fx;
mod grammar;
mod production;
mod symbol;
mod termset;

pub use analysis::GrammarAnalysis;
pub use builder::{GrammarBuilder, SeqKind};
pub use delta::{DeltaMap, GrammarDelta};
pub use grammar::{Grammar, GrammarError, ValidationReport};
pub use production::{Assoc, Precedence, ProdId, ProdKind, Production};
pub use symbol::{NonTerminal, Symbol, Terminal};
pub use termset::TermSet;
