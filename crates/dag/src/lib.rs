//! The **abstract parse dag** — the paper's intermediate representation
//! (Section 2).
//!
//! An abstract parse dag is a parse tree extended with *symbol (choice)
//! nodes*: where the syntax is ambiguous, a symbol node represents the
//! phylum (left-hand side) alone and its children are the alternative
//! interpretations of their common yield. Deterministic regions remain
//! ordinary trees, so the representation costs almost nothing on real
//! programs (Table 1 of the paper: ≤0.5% extra space on SPEC95 C code).
//!
//! Nodes live in a [`DagArena`] and are addressed by [`NodeId`]. Each node
//! records the parse state in which it was built ([`ParseState`]) — the
//! state-matching information that drives incremental reuse — with the
//! distinguished [`ParseState::MULTI`] marking nodes built while several
//! parsers were active (the paper's encoding of dynamic lookahead,
//! Section 3.3).
//!
//! Associative sequences declared in the grammar are represented as
//! **balanced binary trees** ([`NodeKind::Sequence`] / [`NodeKind::SeqRun`])
//! so incremental updates touch O(lg N) structure (Section 3.4); see
//! [`rebalance_sequences`].
//!
//! The crate also provides the damage-marking pass the incremental parser
//! runs before reparsing (`process_modifications_to_parse_dag` in the
//! paper's Appendix A: a node is *changed* when its yield or the terminal
//! following its yield was edited), the ε-subtree unsharing post-pass of
//! Section 3.5, and the space statistics used by the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod input;
mod node;
mod sequence;
mod share;
mod snapshot;
mod stats;
mod traverse;

pub use arena::DagArena;
pub use input::InputStream;
pub use node::{Node, NodeId, NodeKind, ParseState};
pub use sequence::{rebalance_sequences, rebalance_sequences_full, sequence_depth, SequencePolicy};
pub use share::unshare_epsilon;
pub use snapshot::{DagRead, DagSnapshot};
pub use stats::DagStats;
pub use traverse::{
    descendants, dump, structurally_equal, yield_string, yield_terminals, Descendants,
};
pub use wg_grammar::fx::{fx_hash, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
