//! The session-resident semantic pass (Section 4 staged disambiguation).
//!
//! [`crate::Session`] owns the parse pipeline but must not depend on any
//! particular analysis, so the incremental semantic layer plugs in through
//! the [`SemanticPass`] trait: after each successful reparse the session
//! hands the pass the arena, the root, and the damage snapshot captured
//! from the old tree's change flags, and the pass updates whatever
//! persistent state it keeps (scope contours, selections, reference
//! indexes). Name queries never touch the pass itself: they read its
//! [`SemReadView`], whether the session answers them over its live arena
//! or a reader thread answers them over a published snapshot. `wg-sem`
//! provides the concrete implementation; the session only sees this
//! object-safe surface.

use std::fmt;
use std::sync::Arc;
use wg_dag::{DagArena, DagRead, NodeId};

/// What one incremental semantic update did (folded into
/// [`crate::ReparseReport`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SemUpdate {
    /// Dag nodes (re)analyzed this cycle.
    pub reanalyzed: u64,
    /// Scope contours left untouched by the update (their facts were
    /// reused wholesale — the incrementality win).
    pub contours_reused: u64,
    /// Choice points whose retained selection flipped in place.
    pub flips: u64,
    /// Whether the pass abandoned incrementality and rebuilt from scratch
    /// (a correctness escape hatch; should be rare).
    pub full_rebuild: bool,
}

/// The namespace a name resolves into (mirrors `wg_sem`'s `NameKind`
/// without the dependency).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemNameKind {
    /// A `typedef` name.
    Type,
    /// A function definition.
    Function,
    /// A variable declaration.
    Variable,
}

/// The answer to a name query at a document position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemInfo {
    /// The identifier at the queried position.
    pub name: String,
    /// Its resolved namespace, if the nearest visible binding exists.
    pub kind: Option<SemNameKind>,
    /// Whether the position sits inside an ambiguous (choice-point) region.
    pub ambiguous: bool,
    /// Whether the enclosing choice point (if any) has a selected reading.
    pub resolved: bool,
    /// How many places in the document reference this name.
    pub uses: usize,
}

/// A semantic analysis that lives inside the session and is updated from
/// reparse damage rather than recomputed from scratch.
pub trait SemanticPass: Send + fmt::Debug {
    /// Brings the analysis up to date with the current tree. `damage` holds
    /// the old-tree nodes the reparse flagged as changed (empty on the
    /// initial call); `gc_ran` tells the pass to prune facts about
    /// collected nodes before their slots are recycled.
    fn update(
        &mut self,
        arena: &DagArena,
        root: NodeId,
        damage: &[NodeId],
        gc_ran: bool,
    ) -> SemUpdate;

    /// Discards every retained fact and re-analyzes the tree from scratch.
    ///
    /// The session calls this after a grammar hot-swap replaced the tree
    /// wholesale: there is no old-tree damage to diff against, and facts
    /// keyed on the previous grammar's reading must not survive. The
    /// default delegates to a damage-free [`SemanticPass::update`] with
    /// `gc_ran` set (pruning dead-node facts); passes with persistent
    /// incremental state should override this to reset it outright.
    fn rebuild(&mut self, arena: &DagArena, root: NodeId) -> SemUpdate {
        self.update(arena, root, &[], true)
    }

    /// An immutable, thread-safe view of the pass's current fact tables:
    /// the one implementation of the name queries. The session answers
    /// its own queries through it over the live arena, and publishes it
    /// beside each dag snapshot so reader threads answer without the
    /// session lock. Passes may cache the view between updates.
    fn read_view(&self) -> Arc<dyn SemReadView>;

    /// Escape hatch for tests and tools that know the concrete pass type.
    fn as_any(&self) -> &dyn std::any::Any;
}

/// The read-only query surface of a semantic view: name resolution over a
/// [`DagRead`] (the live arena *or* a [`wg_dag::DagSnapshot`]), callable
/// from any thread — the view is immutable and `Sync`.
pub trait SemReadView: Send + Sync + fmt::Debug {
    /// Resolves the name at the end of a root→terminal `path` (as produced
    /// by [`crate::Session::node_path_at`]) against the facts frozen into
    /// this view. `None` when the path holds no analyzed identifier.
    fn info_at(&self, dag: &dyn DagRead, path: &[NodeId]) -> Option<SemInfo>;

    /// Dag nodes referencing `name` (uses, not binding sites), filtered to
    /// sites attached to the given dag version, in node-index order.
    fn uses_of(&self, dag: &dyn DagRead, name: &str) -> Vec<NodeId>;
}
