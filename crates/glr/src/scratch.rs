//! Pooled per-run parser state.
//!
//! The GLR driver needs the same transient machinery for every (re)parse:
//! a GSS, the round-scoped merge tables, the active-parser and worklist
//! vectors, the worklist's membership stamps, and the proxy-upgrade
//! forwarding map. Creating these afresh per parse makes every edit pay
//! allocation costs proportional to past parses; a [`ParseScratch`] owned by
//! a long-lived session is instead *cleared* between runs, so the hot
//! reparse path reaches a steady state with no allocation at all.

use crate::gss::{Gss, GssIdx, RoundSet};
use crate::merge::MergeTables;
use wg_dag::{FxHashMap, NodeId};
use wg_lrtable::StateId;

/// Reusable scratch state for one GLR (re)parse.
///
/// All fields are public so the driver in `wg-core` can split-borrow them; external callers should treat the contents as opaque
/// and only construct, [`ParseScratch::begin_run`], and inspect
/// [`ParseScratch::fresh_allocs`].
#[derive(Debug, Default)]
pub struct ParseScratch {
    /// The graph-structured stack.
    pub gss: Gss,
    /// Round-scoped sharing tables.
    pub merge: MergeTables,
    /// Parsers live in the current round.
    pub active: Vec<GssIdx>,
    /// Worklist of parsers still to act this round.
    pub for_actor: Vec<GssIdx>,
    /// Members of `for_actor` (for idempotent re-activation), as per-node
    /// round stamps: the driver empties the set once per round in O(1).
    pub queued: RoundSet,
    /// (parser, shift target) pairs for the end-of-round shift.
    pub for_shifter: Vec<(GssIdx, StateId)>,
    /// Proxy upgrades of the current round.
    pub forward: FxHashMap<NodeId, NodeId>,
    /// Pooled backing store for reduction-path kid lists: one flat buffer
    /// per action instead of one `Vec` per enumerated path.
    pub path_slab: Vec<NodeId>,
    /// Reduction worklist: `(tail, off, len)` windows into `path_slab`.
    pub work: Vec<(GssIdx, u32, u32)>,
}

impl ParseScratch {
    /// Empty scratch state.
    pub fn new() -> ParseScratch {
        ParseScratch::default()
    }

    /// Prepares the scratch for a fresh run: everything is logically
    /// emptied, every allocation is retained.
    pub fn begin_run(&mut self) {
        self.gss.reset();
        self.merge.clear();
        self.active.clear();
        self.for_actor.clear();
        self.queued.clear();
        self.for_shifter.clear();
        self.forward.clear();
        self.path_slab.clear();
        self.work.clear();
    }

    /// Total GSS node-slot allocations over this scratch's lifetime. Stops
    /// growing once the pool is warm; regression tests assert exactly that.
    pub fn fresh_allocs(&self) -> u64 {
        self.gss.fresh_allocs()
    }

    /// Probe steps taken by the merge tables over their lifetime.
    pub fn merge_probes(&self) -> u64 {
        self.merge.probes()
    }

    /// Heap allocations taken by the merge tables' key storage over their
    /// lifetime. Stops growing once warm.
    pub fn merge_key_allocs(&self) -> u64 {
        self.merge.key_allocs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_run_clears_everything() {
        let mut s = ParseScratch::new();
        let b = s.gss.bottom(StateId(3));
        s.active.push(b);
        s.for_actor.push(b);
        s.queued.insert(b);
        s.for_shifter.push((b, StateId(4)));
        s.path_slab.push(NodeId::NONE);
        s.work.push((b, 0, 1));
        s.begin_run();
        assert!(s.gss.is_empty());
        assert!(s.active.is_empty());
        assert!(s.for_actor.is_empty());
        assert!(!s.queued.contains(b));
        assert!(s.for_shifter.is_empty());
        assert!(s.forward.is_empty());
        assert!(s.path_slab.is_empty());
        assert!(s.work.is_empty());
        let allocs = s.fresh_allocs();
        s.begin_run();
        s.gss.bottom(StateId(0));
        assert_eq!(s.fresh_allocs(), allocs, "slot reused after reset");
    }
}
