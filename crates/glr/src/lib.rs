//! The generalized-LR machinery (Section 3.1) behind the IGLR parser.
//!
//! A GLR parser drives conflict-preserving LR tables breadth-first: where a
//! table cell holds several actions the parser forks, and the combined
//! stacks are represented compactly by a **graph-structured stack** (GSS).
//! Unsuccessful forks die on syntax errors; true ambiguity survives as
//! *local ambiguity packing*: interpretations with the same yield merge
//! under a symbol (choice) node in the resulting abstract parse dag.
//!
//! This crate holds the parts of that machinery that are not the driver:
//! the GSS, the per-round merge tables that give the dag its optimal
//! sharing (Section 3.5) and pack local ambiguity, the reduction-node
//! builder that represents declared sequences as balanced containers, the
//! pooled per-run [`ParseScratch`], and the state annotations and [`TablePolicy`] shared with the deterministic
//! parser. There is one GLR driver, `wg_core::IglrParser`: a batch parse
//! is an incremental parse whose input stream holds terminals only
//! (Appendix A's `parse_next_symbol` over a token stream).
//!
//! Unlike Ferro & Dion's incremental PDA simulator, the GSS here is a
//! transient structure of the parser — the persistent program representation
//! is the abstract parse dag alone, which is why unsuccessful forks cost no
//! space after parsing (Section 3.5, Figure 2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gss;
mod merge;
mod policy;
mod scratch;

pub use gss::{Gss, GssIdx, Link, RoundSet};
pub use merge::{build_reduction_node, MergeTables};
pub use policy::{ps, sid, TablePolicy};
pub use scratch::ParseScratch;
