//! Published document snapshots: one writer, unbounded readers.
//!
//! A [`Snapshot`] freezes everything a query needs — the parse dag, the
//! token tape, and the semantic fact view — into one immutable,
//! version-stamped object behind an `Arc`. The owning [`crate::Session`]
//! publishes after each successful reparse cycle; reader threads then
//! answer position → name queries entirely from the snapshot, never
//! touching (or waiting on) the writer. Publishing is copy-on-write at
//! every layer (dag chunks, tape chunks, the semantic view): the dag
//! re-images only the slots mutated since the last publish, and the tape
//! is shared whole — a snapshot holds a clone of the session's
//! [`TokenTape`] and reads through the same code as the writer.

use crate::semantics::{SemInfo, SemReadView};
use crate::tape::TokenTape;
use std::sync::Arc;
use wg_dag::{DagRead, DagSnapshot, NodeId};
use wg_lexer::TokenSource;

/// An immutable, version-stamped view of one document: dag + token tape +
/// semantic facts, safe to query from any number of threads while the
/// session keeps editing and reparsing.
///
/// While the snapshot is alive it pins its dag version: the writer's
/// collector defers slot recycling for every node this version saw (see
/// [`wg_dag::DagArena::collect_garbage`]).
#[derive(Debug)]
pub struct Snapshot {
    dag: DagSnapshot,
    root: NodeId,
    tape: TokenTape,
    sem: Option<Arc<dyn SemReadView>>,
}

impl Snapshot {
    pub(crate) fn new(
        dag: DagSnapshot,
        root: NodeId,
        tape: TokenTape,
        sem: Option<Arc<dyn SemReadView>>,
    ) -> Snapshot {
        Snapshot {
            dag,
            root,
            tape,
            sem,
        }
    }

    /// The dag version stamp this snapshot pins (monotonically increasing
    /// per publish).
    pub fn version(&self) -> u64 {
        self.dag.version()
    }

    /// The frozen dag.
    pub fn dag(&self) -> &DagSnapshot {
        &self.dag
    }

    /// The super-root of the frozen tree.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of (non-skip) tokens in the frozen tape.
    pub fn token_count(&self) -> usize {
        self.tape.len()
    }

    /// Whether the snapshot carries a semantic view (i.e. the session had
    /// a semantic pass attached).
    pub fn has_semantics(&self) -> bool {
        self.sem.is_some()
    }

    /// Index of the token covering byte `offset` of the text this version
    /// reflects, if any.
    pub fn token_index_at(&self, offset: usize) -> Option<usize> {
        self.tape.token_index_at(offset)
    }

    /// The dag path from the super-root down to the terminal covering byte
    /// `offset`: `[root, ..., terminal]`; empty when no token covers the
    /// offset. The frozen analogue of [`crate::Session::node_path_at`].
    pub fn node_path_at(&self, offset: usize) -> Vec<NodeId> {
        self.token_index_at(offset).map_or_else(Vec::new, |ix| {
            root_path(&self.dag, self.root, self.tape.node(ix))
        })
    }

    /// Resolves the name at byte `offset` against this version's facts.
    /// `None` without a semantic view, outside any token, or when the
    /// token is not an analyzed identifier.
    pub fn info_at(&self, offset: usize) -> Option<SemInfo> {
        let sem = self.sem.as_deref()?;
        let path = self.node_path_at(offset);
        sem.info_at(&self.dag, &path)
    }

    /// Dag nodes referencing `name` in this version. Empty without a
    /// semantic view.
    pub fn uses_of(&self, name: &str) -> Vec<NodeId> {
        self.sem
            .as_deref()
            .map_or_else(Vec::new, |s| s.uses_of(&self.dag, name))
    }
}

/// The dag path from the super-root down to `leaf`: `[root, ..., leaf]`,
/// following parent pointers. Shared by [`crate::Session::node_path_at`]
/// (live arena) and [`Snapshot::node_path_at`] (frozen dag). A shared
/// terminal's parent pointer names one of the alternatives containing it,
/// and the chain still ends at the root because the parser refreshes
/// parent pointers after every reparse.
pub(crate) fn root_path(dag: &dyn DagRead, root: NodeId, leaf: NodeId) -> Vec<NodeId> {
    let mut path = Vec::new();
    let mut cur = leaf;
    while !cur.is_none() {
        path.push(cur);
        cur = dag.parent(cur);
    }
    path.reverse();
    debug_assert_eq!(path.first().copied(), Some(root));
    path
}
