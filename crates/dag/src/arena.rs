//! The node arena: construction, adoption, damage marking, and reclamation.
//!
//! # Memory discipline
//!
//! The arena is built for a **zero-allocation steady state**: a warm
//! interactive session performs reparse after reparse without ever asking
//! the system allocator for node storage.
//!
//! * **Kid slab.** Nodes do not own a `Vec<NodeId>`; small kid lists (≤ 3)
//!   live inline in the node and wider ones occupy `(offset, len, cap)`
//!   regions of one shared `Vec<NodeId>` slab. Regions come in power-of-two
//!   capacity classes and dead regions are recycled through per-class free
//!   lists, so node construction touches the allocator only while the slab's
//!   high-water mark is still growing.
//! * **Node free list.** Dead node slots (found by [`DagArena::collect_garbage`])
//!   are recycled before the `nodes` vector grows —
//!   the same `fresh_allocs` discipline the GSS pools use. The
//!   [`DagArena::fresh_node_slots`] / [`DagArena::recycled_node_slots`]
//!   counters make the claim assertable.
//! * **Incremental GC, stable ids.** [`DagArena::collect_garbage`] marks the
//!   live tree (pooled mark-bitmap and stack) and sweeps dead slots onto the
//!   free lists. `NodeId`s never move: callers holding ids into live
//!   structure (the token tape, semantic annotations) are unaffected, and no
//!   remap table exists. Cost is O(live) per collection, and collections are
//!   triggered every Θ(live) allocations (see [`DagArena::should_collect`]),
//!   so reclamation is amortized O(1) per node built.

use crate::node::{Kids, Node, NodeId, NodeKind, ParseState, INLINE_KIDS};
use crate::snapshot::{DagRead, DagSnapshot, DirtyBits, PinGuard, PinRegistry, Spine, SNAP_CHUNK};
use std::cmp::Ordering;
use std::sync::Arc;
use wg_grammar::{NonTerminal, ProdId, Terminal};

/// Smallest slab region capacity (power of two).
const MIN_REGION: u32 = 4;

/// One overwrite of a prior-epoch node made this epoch, as its old value.
#[derive(Debug, Clone, Copy)]
enum Undo {
    /// The parent pointer before the node was adopted by a new parent.
    Parent(NodeId),
    /// The recorded parse state before retention rewrote it.
    State(ParseState),
}

/// Owning store for all nodes of (successive versions of) one parse dag.
///
/// Reparsing builds new nodes into the same arena while the previous
/// version's structure stays intact — exactly the property the incremental
/// parser needs to traverse the prior version while constructing the new one
/// (the paper's self-versioning document substrate). Call
/// [`DagArena::collect_garbage`] between analyses to recycle unreachable
/// versions; node ids stay stable across collections.
#[derive(Debug, Clone, Default)]
pub struct DagArena {
    nodes: Vec<Node>,
    /// Shared storage for kid lists wider than the inline capacity.
    slab: Vec<NodeId>,
    /// Free slab regions, bucketed by power-of-two capacity class
    /// (`free_regions[c]` holds offsets of free regions of capacity
    /// `MIN_REGION << c`).
    free_regions: Vec<Vec<u32>>,
    /// Dead node slots available for reuse.
    free_nodes: Vec<NodeId>,
    epoch: u32,
    /// Nodes flagged by the current damage-marking pass (for cheap clearing).
    dirty_log: Vec<NodeId>,
    /// Old nodes retained by bottom-up reuse this epoch (diagnostics).
    retained: usize,
    /// Parent pointers and parse states of prior-epoch nodes overwritten
    /// this epoch, so a *failed* parse attempt can be rolled back: the old
    /// tree's damage marking depends on its parent chains, and its reuse
    /// on its recorded states, staying intact.
    undo_log: Vec<(NodeId, Undo)>,
    /// Pooled mark state for [`DagArena::collect_garbage`]: a slot is marked
    /// when its entry equals the current `gc_gen`, so clearing between
    /// collections is free.
    mark_gen: Vec<u32>,
    gc_gen: u32,
    /// The mark generation under which this epoch's retained nodes are
    /// claimed (see [`DagArena::try_reuse_production`]), taken at
    /// [`DagArena::begin_epoch`].
    claim_gen: u32,
    /// Pooled traversal stack for the mark phase.
    gc_stack: Vec<NodeId>,
    /// Node slots taken by growing `nodes` (never recycled storage).
    fresh_slots: u64,
    /// Node slots served from the free list.
    recycled_slots: u64,
    /// Slab words taken by growing the slab (never a recycled region).
    fresh_slab_words: u64,
    /// Nodes built since the last collection (drives the GC trigger).
    allocs_since_gc: usize,
    /// The published chunk spine: chunk `c` images node slots
    /// `[c * SNAP_CHUNK, (c + 1) * SNAP_CHUNK)`. [`DagArena::publish`]
    /// patches only the slots flagged in `snap_dirty`; every other chunk
    /// is shared with earlier snapshots untouched.
    pub(crate) snap_spine: Spine,
    /// Per-chunk bitmaps of slots mutated since the last publish.
    pub(crate) snap_dirty: Vec<DirtyBits>,
    /// Chunks with a non-empty bitmap, each listed once.
    pub(crate) snap_dirty_chunks: Vec<u32>,
    /// Slot images written by publishes.
    publish_patched: u64,
    /// Chunks publishes had to copy because a snapshot still shared them.
    publish_copied: u64,
    /// Version stamp of the most recent publish.
    snap_version: u64,
    /// Versions pinned by live snapshots (shared with their [`PinGuard`]s;
    /// a cloned arena shares the registry, which is conservative: clones
    /// respect each other's pins).
    pins: PinRegistry,
    /// Dead slots whose recycling is deferred while snapshots pin versions
    /// that saw them alive: `(version stamp at death, slot)`, stamped in
    /// monotonically non-decreasing order.
    deferred_frees: Vec<(u64, NodeId)>,
}

impl DagArena {
    /// An empty arena at epoch 0.
    pub fn new() -> DagArena {
        DagArena::default()
    }

    /// Number of node slots, live or free (the storage high-water mark).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Number of slots actually holding nodes (len minus the free list).
    pub fn in_use(&self) -> usize {
        self.nodes.len() - self.free_nodes.len()
    }

    /// Whether the arena holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node slots created by growing the arena (not recycled). Constant in
    /// a warm session — the dag-side analogue of the GSS `fresh_allocs`
    /// discipline.
    pub fn fresh_node_slots(&self) -> u64 {
        self.fresh_slots
    }

    /// Node slots served from the free list.
    pub fn recycled_node_slots(&self) -> u64 {
        self.recycled_slots
    }

    /// Bytes of kid-slab storage ever claimed from the allocator (the slab's
    /// high-water mark; recycled regions do not count).
    pub fn kid_slab_bytes(&self) -> u64 {
        self.fresh_slab_words * std::mem::size_of::<NodeId>() as u64
    }

    /// Nodes built since the last garbage collection.
    pub fn allocs_since_gc(&self) -> usize {
        self.allocs_since_gc
    }

    /// Whether enough garbage has plausibly accumulated to make a collection
    /// worthwhile: Θ(live) allocations since the last one. Collecting on
    /// this cadence keeps the free lists fed (so a warm session recycles
    /// instead of growing) while amortizing the O(live) mark phase down to
    /// O(1) per node built.
    pub fn should_collect(&self) -> bool {
        self.allocs_since_gc >= 64.max(self.in_use() / 4)
    }

    /// The current parse generation.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Flags slot `id` as mutated since the last publish. Called by every
    /// mutation that changes snapshot-visible node state (kind, parent,
    /// kids, width, liveness) — `changed`-flag and mark traffic is exempt,
    /// as snapshots do not capture it.
    #[inline]
    fn touch(&mut self, id: NodeId) {
        let (c, bit) = (id.index() / SNAP_CHUNK, id.index() % SNAP_CHUNK);
        if c >= self.snap_dirty.len() {
            self.snap_dirty.resize(c + 1, DirtyBits::default());
        }
        let bits = &mut self.snap_dirty[c];
        // Only a zero word can mean a clean chunk; most touches land in a
        // word that is already dirty and skip the whole-bitmap test.
        if bits[bit / 64] == 0 && *bits == DirtyBits::default() {
            self.snap_dirty_chunks.push(c as u32);
        }
        bits[bit / 64] |= 1 << (bit % 64);
    }

    /// Starts a new parse generation (nodes created from here on can be
    /// mutated in place by sequence accumulation; older nodes cannot).
    pub fn begin_epoch(&mut self) -> u32 {
        self.epoch += 1;
        self.retained = 0;
        self.undo_log.clear();
        self.claim_gen = self.begin_marks();
        self.epoch
    }

    /// Undoes every overwrite of a prior-epoch node made this epoch: the
    /// parent pointers adoption changed and the parse states retention
    /// rewrote. Call when a parse attempt fails and the previous tree stays
    /// authoritative; the fresh nodes it built become garbage, but the old
    /// tree's parent chains (and thus future damage marking) and recorded
    /// states are restored, and the attempt's retentions no longer count.
    pub fn rollback_epoch(&mut self) {
        self.retained = 0;
        while let Some((node, undo)) = self.undo_log.pop() {
            let n = &mut self.nodes[node.index()];
            match undo {
                Undo::Parent(p) => n.parent = p,
                Undo::State(s) => n.state = s,
            }
            self.touch(node);
        }
    }

    fn set_parent(&mut self, kid: NodeId, parent: NodeId) {
        if self.nodes[kid.index()].epoch != self.epoch && self.nodes[kid.index()].parent != parent {
            let old = self.nodes[kid.index()].parent;
            self.undo_log.push((kid, Undo::Parent(old)));
        }
        self.nodes[kid.index()].parent = parent;
        self.touch(kid);
    }

    /// How many previous-version nodes bottom-up reuse retained this epoch
    /// (the paper's explicit node retention, its ref. 25).
    pub fn retained_this_epoch(&self) -> usize {
        self.retained
    }

    /// Read access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is [`NodeId::NONE`] or out of range.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Shorthand for `node(id).kind()`.
    #[inline]
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.nodes[id.index()].kind
    }

    /// The node's children, in yield order (for symbol nodes: the
    /// alternatives). Resolves inline storage or the shared kid slab.
    #[inline]
    pub fn kids(&self, id: NodeId) -> &[NodeId] {
        self.nodes[id.index()].kids.resolve(&self.slab)
    }

    /// Number of children without materializing the slice.
    #[inline]
    pub fn kid_count(&self, id: NodeId) -> usize {
        self.nodes[id.index()].kids.len()
    }

    #[inline]
    pub(crate) fn kid_at(&self, id: NodeId, i: usize) -> NodeId {
        self.kids(id)[i]
    }

    /// Shorthand for `node(id).state()`.
    #[inline]
    pub fn state(&self, id: NodeId) -> ParseState {
        self.nodes[id.index()].state
    }

    /// Shorthand for `node(id).width()`.
    #[inline]
    pub fn width(&self, id: NodeId) -> u32 {
        self.nodes[id.index()].width
    }

    /// Whether the node was created in the current epoch.
    #[inline]
    pub fn is_current_epoch(&self, id: NodeId) -> bool {
        self.nodes[id.index()].epoch == self.epoch
    }

    /// Whether `id` names a live node slot (neither on the free list nor
    /// retired onto the deferred free list awaiting snapshot pins).
    /// Analyses holding `NodeId`-keyed side tables use this after a
    /// collection to drop facts about reclaimed nodes before their slots
    /// are recycled.
    #[inline]
    pub fn is_live(&self, id: NodeId) -> bool {
        id.index() < self.nodes.len()
            && !self.nodes[id.index()].free
            && !self.nodes[id.index()].deferred
    }

    // ----- slab regions -----

    #[inline]
    fn class_of(cap: u32) -> usize {
        debug_assert!(cap.is_power_of_two() && cap >= MIN_REGION);
        (cap.trailing_zeros() - MIN_REGION.trailing_zeros()) as usize
    }

    fn alloc_region(&mut self, cap: u32) -> u32 {
        let class = Self::class_of(cap);
        if let Some(free) = self.free_regions.get_mut(class) {
            if let Some(off) = free.pop() {
                return off;
            }
        }
        let off = self.slab.len() as u32;
        self.slab
            .resize(self.slab.len() + cap as usize, NodeId::NONE);
        self.fresh_slab_words += u64::from(cap);
        off
    }

    fn free_region(&mut self, off: u32, cap: u32) {
        let class = Self::class_of(cap);
        if self.free_regions.len() <= class {
            self.free_regions.resize_with(class + 1, Vec::new);
        }
        self.free_regions[class].push(off);
    }

    /// Stores a kid list inline or in a slab region.
    fn intern_kids(&mut self, kids: &[NodeId]) -> Kids {
        if kids.len() <= INLINE_KIDS {
            let mut buf = [NodeId::NONE; INLINE_KIDS];
            buf[..kids.len()].copy_from_slice(kids);
            Kids::Inline {
                buf,
                len: kids.len() as u8,
            }
        } else {
            let cap = (kids.len() as u32).next_power_of_two().max(MIN_REGION);
            let off = self.alloc_region(cap);
            self.slab[off as usize..off as usize + kids.len()].copy_from_slice(kids);
            Kids::Slab {
                off,
                len: kids.len() as u32,
                cap,
            }
        }
    }

    /// Appends one kid id, spilling inline storage to the slab or relocating
    /// a full region to the next capacity class as needed.
    fn kids_push(&mut self, id: NodeId, kid: NodeId) {
        self.touch(id);
        match self.nodes[id.index()].kids {
            Kids::Inline { mut buf, len } if (len as usize) < INLINE_KIDS => {
                buf[len as usize] = kid;
                self.nodes[id.index()].kids = Kids::Inline { buf, len: len + 1 };
            }
            Kids::Inline { buf, len } => {
                debug_assert_eq!(len as usize, INLINE_KIDS);
                let cap = (INLINE_KIDS as u32 + 1).next_power_of_two().max(MIN_REGION);
                let off = self.alloc_region(cap);
                self.slab[off as usize..off as usize + INLINE_KIDS].copy_from_slice(&buf);
                self.slab[off as usize + INLINE_KIDS] = kid;
                self.nodes[id.index()].kids = Kids::Slab {
                    off,
                    len: len as u32 + 1,
                    cap,
                };
            }
            Kids::Slab { off, len, cap } if len < cap => {
                self.slab[(off + len) as usize] = kid;
                self.nodes[id.index()].kids = Kids::Slab {
                    off,
                    len: len + 1,
                    cap,
                };
            }
            Kids::Slab { off, len, cap } => {
                let new_cap = cap * 2;
                let new_off = self.alloc_region(new_cap);
                self.slab
                    .copy_within(off as usize..(off + len) as usize, new_off as usize);
                self.slab[(new_off + len) as usize] = kid;
                self.free_region(off, cap);
                self.nodes[id.index()].kids = Kids::Slab {
                    off: new_off,
                    len: len + 1,
                    cap: new_cap,
                };
            }
        }
    }

    /// Replaces a node's kid storage, reusing its slab region when the new
    /// list still fits.
    fn store_kids(&mut self, id: NodeId, kids: &[NodeId]) {
        self.touch(id);
        match self.nodes[id.index()].kids {
            Kids::Slab { off, cap, .. }
                if kids.len() > INLINE_KIDS && kids.len() <= cap as usize =>
            {
                self.slab[off as usize..off as usize + kids.len()].copy_from_slice(kids);
                self.nodes[id.index()].kids = Kids::Slab {
                    off,
                    len: kids.len() as u32,
                    cap,
                };
            }
            Kids::Slab { off, cap, .. } => {
                self.free_region(off, cap);
                self.nodes[id.index()].kids = self.intern_kids(kids);
            }
            Kids::Inline { .. } => {
                self.nodes[id.index()].kids = self.intern_kids(kids);
            }
        }
    }

    // ----- node slots -----

    fn push(&mut self, node: Node) -> NodeId {
        self.allocs_since_gc += 1;
        let id = if let Some(id) = self.free_nodes.pop() {
            debug_assert!(self.nodes[id.index()].free, "free list holds live node");
            self.recycled_slots += 1;
            self.nodes[id.index()] = node;
            id
        } else {
            self.fresh_slots += 1;
            self.nodes.push(node);
            NodeId(self.nodes.len() as u32 - 1)
        };
        self.touch(id);
        id
    }

    /// Leading terminal over a kid list (EOF placeholder when null-yield).
    fn leftmost_of(&self, kids: &[NodeId]) -> Terminal {
        kids.iter()
            .find(|&&k| self.width(k) > 0)
            .map(|&k| self.nodes[k.index()].leftmost)
            .unwrap_or(Terminal::EOF)
    }

    fn width_of(&self, kids: &[NodeId]) -> u32 {
        kids.iter().map(|k| self.width(*k)).sum()
    }

    /// Creates a token node.
    pub fn terminal(&mut self, term: Terminal, lexeme: &str) -> NodeId {
        self.push(Node {
            kind: NodeKind::Terminal {
                term,
                lexeme: lexeme.to_string(),
            },
            state: ParseState::NONE,
            parent: NodeId::NONE,
            kids: Kids::EMPTY,
            width: 1,
            leftmost: term,
            epoch: self.epoch,
            changed: false,
            free: false,
            deferred: false,
        })
    }

    /// Creates a production node over `kids` (adopting them), recording the
    /// parse state preceding the nonterminal (Appendix A's `get_node`).
    pub fn production(&mut self, prod: ProdId, state: ParseState, kids: &[NodeId]) -> NodeId {
        let width = self.width_of(kids);
        let leftmost = self.leftmost_of(kids);
        let stored = self.intern_kids(kids);
        let id = self.push(Node {
            kind: NodeKind::Production { prod },
            state,
            parent: NodeId::NONE,
            kids: stored,
            width,
            leftmost,
            epoch: self.epoch,
            changed: false,
            free: false,
            deferred: false,
        });
        self.adopt(id);
        id
    }

    /// Creates a symbol (choice) node with one initial interpretation.
    /// Symbol nodes have no deterministic state by definition (Appendix A).
    pub fn symbol(&mut self, symbol: NonTerminal, first: NodeId) -> NodeId {
        let width = self.width(first);
        let leftmost = self.nodes[first.index()].leftmost;
        let stored = self.intern_kids(&[first]);
        let id = self.push(Node {
            kind: NodeKind::Symbol { symbol },
            state: ParseState::MULTI,
            parent: NodeId::NONE,
            kids: stored,
            width,
            leftmost,
            epoch: self.epoch,
            changed: false,
            free: false,
            deferred: false,
        });
        self.set_parent(first, id);
        id
    }

    /// Adds an alternative interpretation to a symbol node at its sorted
    /// place, so the order of alternatives does not depend on which parser
    /// reached the merge first. The key is the alternative's own kind
    /// (its production id), then its kid count, then its kid widths; equal
    /// keys keep their arrival order.
    ///
    /// The key reads nothing a later proxy upgrade can change: an upgrade
    /// swaps a kid for a symbol node of the same width, and an alternative
    /// is never itself a proxy of another symbol, so a list sorted once
    /// stays sorted. The kids' own structure is not read: alternatives of
    /// one production with equal kid widths derive each kid over the same
    /// (symbol, cover), for which one round's merge tables hold one node,
    /// so they are one alternative.
    ///
    /// # Panics
    ///
    /// Panics if `sym` is not a symbol node or the widths disagree
    /// (alternatives must share their yield).
    pub fn add_choice(&mut self, sym: NodeId, alt: NodeId) {
        assert!(
            matches!(self.kind(sym), NodeKind::Symbol { .. }),
            "add_choice target must be a symbol node"
        );
        assert_eq!(
            self.width(sym),
            self.width(alt),
            "alternatives must cover the same yield"
        );
        let alts = self.kids(sym);
        if alts.contains(&alt) {
            return;
        }
        let at = alts
            .iter()
            .position(|&k| self.alt_order(alt, k).is_lt())
            .unwrap_or(alts.len());
        self.kids_push(sym, alt);
        let DagArena { nodes, slab, .. } = self;
        nodes[sym.index()].kids.resolve_mut(slab)[at..].rotate_right(1);
        self.set_parent(alt, sym);
    }

    /// The alternative order of [`DagArena::add_choice`].
    fn alt_order(&self, a: NodeId, b: NodeId) -> Ordering {
        let (ka, kb) = (self.kids(a), self.kids(b));
        let width = |&k: &NodeId| self.width(k);
        self.kind(a)
            .cmp(self.kind(b))
            .then(ka.len().cmp(&kb.len()))
            .then_with(|| ka.iter().map(width).cmp(kb.iter().map(width)))
    }

    /// Creates a sequence node (complete or prefix instance of a declared
    /// associative sequence).
    pub fn sequence(&mut self, symbol: NonTerminal, state: ParseState, kids: &[NodeId]) -> NodeId {
        let width = self.width_of(kids);
        let leftmost = self.leftmost_of(kids);
        let stored = self.intern_kids(kids);
        let id = self.push(Node {
            kind: NodeKind::Sequence { symbol },
            state,
            parent: NodeId::NONE,
            kids: stored,
            width,
            leftmost,
            epoch: self.epoch,
            changed: false,
            free: false,
            deferred: false,
        });
        self.adopt(id);
        id
    }

    /// Creates an internal sequence run.
    pub fn seq_run(&mut self, symbol: NonTerminal, state: ParseState, kids: &[NodeId]) -> NodeId {
        let width = self.width_of(kids);
        let leftmost = self.leftmost_of(kids);
        let stored = self.intern_kids(kids);
        let id = self.push(Node {
            kind: NodeKind::SeqRun { symbol },
            state,
            parent: NodeId::NONE,
            kids: stored,
            width,
            leftmost,
            epoch: self.epoch,
            changed: false,
            free: false,
            deferred: false,
        });
        self.adopt(id);
        id
    }

    /// Appends steps to a sequence node created in the *current* epoch
    /// (in-place accumulation during parsing).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not a sequence node or was created in an earlier
    /// epoch (older nodes may be shared with the previous version and must
    /// not be mutated).
    pub fn seq_append(&mut self, seq: NodeId, steps: &[NodeId]) {
        assert!(
            matches!(self.kind(seq), NodeKind::Sequence { .. }),
            "seq_append target must be a sequence node"
        );
        assert!(
            self.is_current_epoch(seq),
            "only nodes of the current epoch may be mutated"
        );
        let extra: u32 = steps.iter().map(|k| self.width(*k)).sum();
        self.touch(seq);
        for &s in steps {
            self.set_parent(s, seq);
            self.kids_push(seq, s);
        }
        if self.nodes[seq.index()].width == 0 && extra > 0 {
            self.nodes[seq.index()].leftmost = self.leftmost_of(steps);
        }
        self.nodes[seq.index()].width += extra;
    }

    /// Converts a `Production` fallback node (built over a lowered sequence
    /// production while the parse was non-deterministic) into a proper
    /// [`NodeKind::Sequence`] with the given preceding state. Used by the
    /// rebalancing post-pass when it canonicalizes fallback chains.
    ///
    /// # Panics
    ///
    /// Panics if the node is not a production node.
    pub fn convert_to_sequence(&mut self, id: NodeId, symbol: NonTerminal, state: ParseState) {
        assert!(
            matches!(self.kind(id), NodeKind::Production { .. }),
            "convert_to_sequence expects a production fallback"
        );
        self.nodes[id.index()].kind = NodeKind::Sequence { symbol };
        self.nodes[id.index()].state = state;
        self.touch(id);
    }

    /// Replaces the children of a node (used by the rebalancing and
    /// unsharing post-passes). Widths are recomputed; kids are adopted.
    pub fn set_kids(&mut self, id: NodeId, kids: &[NodeId]) {
        let width = self.width_of(kids);
        let leftmost = self.leftmost_of(kids);
        self.store_kids(id, kids);
        self.nodes[id.index()].width = width;
        self.nodes[id.index()].leftmost = leftmost;
        self.adopt(id);
    }

    /// Replaces every occurrence of `old` among `id`'s children with `new`,
    /// adopting `new`. Width and leading terminal are unchanged by
    /// construction — the caller guarantees `old` and `new` cover the same
    /// yield (proxy upgrades, choice collapses). Returns how many slots were
    /// patched.
    pub fn replace_kid(&mut self, id: NodeId, old: NodeId, new: NodeId) -> usize {
        debug_assert_eq!(self.width(old), self.width(new));
        self.touch(id);
        let mut patched = 0;
        match self.nodes[id.index()].kids {
            Kids::Inline { mut buf, len } => {
                for slot in buf.iter_mut().take(len as usize) {
                    if *slot == old {
                        *slot = new;
                        patched += 1;
                    }
                }
                if patched > 0 {
                    self.nodes[id.index()].kids = Kids::Inline { buf, len };
                }
            }
            Kids::Slab { off, len, .. } => {
                for slot in &mut self.slab[off as usize..(off + len) as usize] {
                    if *slot == old {
                        *slot = new;
                        patched += 1;
                    }
                }
            }
        }
        if patched > 0 {
            self.set_parent(new, id);
        }
        patched
    }

    fn adopt(&mut self, parent: NodeId) {
        for i in 0..self.kid_count(parent) {
            let k = self.kid_at(parent, i);
            self.set_parent(k, parent);
        }
    }

    /// Creates the super-root with BOS/EOS sentinels around `body`.
    pub fn root(&mut self, body: NodeId) -> NodeId {
        let bos = self.push(Node {
            kind: NodeKind::Bos,
            state: ParseState::NONE,
            parent: NodeId::NONE,
            kids: Kids::EMPTY,
            width: 0,
            leftmost: Terminal::EOF,
            epoch: self.epoch,
            changed: false,
            free: false,
            deferred: false,
        });
        let eos = self.push(Node {
            kind: NodeKind::Eos,
            state: ParseState::NONE,
            parent: NodeId::NONE,
            kids: Kids::EMPTY,
            width: 0,
            leftmost: Terminal::EOF,
            epoch: self.epoch,
            changed: false,
            free: false,
            deferred: false,
        });
        let stored = self.intern_kids(&[bos, body, eos]);
        let id = self.push(Node {
            kind: NodeKind::Root,
            state: ParseState::NONE,
            parent: NodeId::NONE,
            kids: stored,
            width: self.width(body),
            leftmost: self.nodes[body.index()].leftmost,
            epoch: self.epoch,
            changed: false,
            free: false,
            deferred: false,
        });
        self.adopt(id);
        id
    }

    /// Replaces the body of a root node (after a reparse).
    pub fn set_root_body(&mut self, root: NodeId, body: NodeId) {
        assert!(matches!(self.kind(root), NodeKind::Root));
        let bos = self.kid_at(root, 0);
        let eos = self.kid_at(root, 2);
        self.set_kids(root, &[bos, body, eos]);
    }

    /// Bottom-up node reuse (the paper's *explicit node retention*, its ref. 25):
    /// if the previous version already contains a production node with
    /// exactly this shape — same production, same children, built in an
    /// earlier epoch — it is returned instead of allocating a new node,
    /// preserving any annotations tools attached to it. The natural
    /// candidate is the previous parent of the leftmost child.
    ///
    /// The recorded state does not have to match: a grammar delta
    /// renumbers states without changing the parse. A candidate recorded
    /// under another deterministic state is given `state`, so it becomes
    /// exactly the node a fresh parse builds; the old state is logged for
    /// [`DagArena::rollback_epoch`]. The multistate sentinel is matched
    /// exactly, never rewritten to or from: a change between it and a
    /// deterministic state means a conflict appeared or went away there,
    /// so the parse itself changed, not just the numbering. Every
    /// retained node is claimed for the epoch in the pooled mark array, and
    /// a claimed node is never rewritten again: another parser still holds
    /// it under its first state.
    pub fn try_reuse_production(
        &mut self,
        prod: ProdId,
        kids: &[NodeId],
        state: ParseState,
    ) -> Option<NodeId> {
        let first = *kids.first()?;
        let candidate = self.nodes[first.index()].parent;
        if candidate.is_none() {
            return None;
        }
        let c = &self.nodes[candidate.index()];
        // Only prior-version nodes are candidates. A `changed` mark does
        // not disqualify: a changed *yield* makes the kid lists differ
        // anyway, and a changed *lookahead* was just revalidated by the
        // reduction that is asking.
        if c.epoch == self.epoch {
            return None;
        }
        match &c.kind {
            NodeKind::Production { prod: p } if *p == prod => {}
            _ => return None,
        }
        let old_state = c.state;
        if self.kids(candidate) != kids {
            return None;
        }
        // Claims live in the mark array; no traversal may reuse it between
        // `begin_epoch` and the end of the parse.
        debug_assert_eq!(self.gc_gen, self.claim_gen, "a traversal ran mid-parse");
        if old_state != state {
            let determinism_differs = old_state == ParseState::MULTI || state == ParseState::MULTI;
            if determinism_differs || self.is_marked(candidate, self.claim_gen) {
                return None;
            }
            self.undo_log.push((candidate, Undo::State(old_state)));
            self.nodes[candidate.index()].state = state;
            self.touch(candidate);
        }
        self.mark(candidate, self.claim_gen);
        self.retained += 1;
        Some(candidate)
    }

    /// Collapses a choice point to one alternative, discarding the others
    /// (dynamic *syntactic* filtering, Section 4.1 — unlike semantic
    /// filters, eliminated interpretations are not retained). The symbol
    /// node is replaced by the chosen child in its parent; returns the
    /// chosen child.
    ///
    /// # Panics
    ///
    /// Panics if `sym` is not a symbol node, has no parent, or `index` is
    /// out of range.
    pub fn collapse_choice(&mut self, sym: NodeId, index: usize) -> NodeId {
        assert!(
            matches!(self.kind(sym), NodeKind::Symbol { .. }),
            "collapse_choice target must be a symbol node"
        );
        let chosen = self.kid_at(sym, index);
        let parent = self.nodes[sym.index()].parent;
        assert!(!parent.is_none(), "cannot collapse a detached choice point");
        self.replace_kid(parent, sym, chosen);
        chosen
    }

    /// Starts a traversal that dedupes through the pooled mark array (the
    /// one behind [`DagArena::refresh_parents`] and garbage collection):
    /// returns the pass's generation, under which no node is marked yet.
    pub(crate) fn begin_marks(&mut self) -> u32 {
        self.gc_gen += 1;
        self.gc_gen
    }

    /// Whether `id` is marked in pass `gen`.
    #[inline]
    pub(crate) fn is_marked(&self, id: NodeId, gen: u32) -> bool {
        self.mark_gen.get(id.index()) == Some(&gen)
    }

    /// Marks `id` in pass `gen`; returns whether it was unmarked. Nodes
    /// built during the pass are covered: the array grows on demand.
    #[inline]
    pub(crate) fn mark(&mut self, id: NodeId, gen: u32) -> bool {
        if id.index() >= self.mark_gen.len() {
            self.mark_gen
                .resize(self.nodes.len().max(id.index() + 1), 0);
        }
        let slot = &mut self.mark_gen[id.index()];
        let fresh = *slot != gen;
        *slot = gen;
        fresh
    }

    /// Lends out the pooled traversal stack (cleared); hand it back with
    /// [`DagArena::return_stack`].
    pub(crate) fn take_stack(&mut self) -> Vec<NodeId> {
        let mut stack = std::mem::take(&mut self.gc_stack);
        stack.clear();
        stack
    }

    /// Returns the pooled traversal stack.
    pub(crate) fn return_stack(&mut self, stack: Vec<NodeId>) {
        self.gc_stack = stack;
    }

    /// Re-establishes parent pointers along the surviving tree after a
    /// (re)parse: forks that died during GLR parsing may have been the last
    /// to adopt a shared terminal, leaving its parent pointing into dead
    /// structure and breaking future damage marking. Only freshly built
    /// nodes, the nodes retained this epoch (a node the parse built and
    /// dropped may have adopted one of their kids) and the reused
    /// super-root are visited, so the cost is proportional to the new
    /// structure.
    ///
    /// The walk dedupes via the pooled mark array: a node shared by many
    /// parents (ambiguity packing) is expanded once, not once per path —
    /// the path count of a packed forest is exponential. Its parent pointer
    /// ends up as whichever parent visited it last; any parent chain works
    /// for damage marking because every visited parent is itself reachable
    /// from `root`. The walk runs left to right, so a token shared by a
    /// choice's alternatives keeps its parent in the last one, which is the
    /// one explicit retention can then find: over the full C script in
    /// `node_retention.rs`, 197 retained nodes against 172 for the first.
    pub fn refresh_parents(&mut self, root: NodeId) {
        let claim_gen = self.claim_gen;
        self.gc_gen += 1;
        let gen = self.gc_gen;
        if self.mark_gen.len() < self.nodes.len() {
            self.mark_gen.resize(self.nodes.len(), 0);
        }
        let mut stack = std::mem::take(&mut self.gc_stack);
        stack.clear();
        stack.push(root);
        self.mark_gen[root.index()] = gen;
        while let Some(id) = stack.pop() {
            for i in (0..self.kid_count(id)).rev() {
                let k = self.kid_at(id, i);
                self.nodes[k.index()].parent = id;
                self.touch(k);
                let m = self.mark_gen[k.index()];
                if (self.nodes[k.index()].epoch == self.epoch || m == claim_gen) && m != gen {
                    self.mark_gen[k.index()] = gen;
                    stack.push(k);
                }
            }
        }
        self.gc_stack = stack;
    }

    // ----- damage marking (Appendix A: process_modifications) -----

    /// Marks a terminal as textually modified and propagates the change flag
    /// to every ancestor (so breakdown during reparse reaches the site).
    pub fn mark_changed(&mut self, id: NodeId) {
        let mut cur = id;
        while !cur.is_none() && !self.nodes[cur.index()].changed {
            self.nodes[cur.index()].changed = true;
            self.dirty_log.push(cur);
            cur = self.nodes[cur.index()].parent;
        }
    }

    /// Marks the nodes whose *following terminal* was modified: walking up
    /// from `prev_terminal` (the last unchanged terminal before the edit),
    /// every ancestor whose yield ends at that terminal — i.e. while the
    /// node remains the last child of its parent — is flagged, because its
    /// reduction consumed the now-changed lookahead. This implements the
    /// rule "mark any N for which yield(N) ∪ the terminal following
    /// yield(N) contains a modified terminal". The terminal itself is left
    /// unmarked: its text did not change and it remains shiftable.
    pub fn mark_following(&mut self, prev_terminal: NodeId) {
        let mut cur = prev_terminal;
        loop {
            let parent = self.nodes[cur.index()].parent;
            if parent.is_none() {
                break;
            }
            // Continue only while `cur` closes its parent's yield.
            if self.kids(parent).last() != Some(&cur) {
                // `parent` contains the following terminal inside its own
                // yield, so the mark_changed walk from the changed terminal
                // covers it; ensure the path to the root is marked so
                // breakdown can reach this region at all.
                self.mark_changed(parent);
                break;
            }
            if !self.nodes[parent.index()].changed {
                self.nodes[parent.index()].changed = true;
                self.dirty_log.push(parent);
            }
            cur = parent;
        }
    }

    /// Whether the node is flagged as changed.
    #[inline]
    pub fn has_changes(&self, id: NodeId) -> bool {
        self.nodes[id.index()].changed
    }

    /// Clears every change flag set since the last call (after a successful
    /// reparse incorporated them).
    pub fn clear_changes(&mut self) {
        for id in std::mem::take(&mut self.dirty_log) {
            self.nodes[id.index()].changed = false;
        }
    }

    /// Nodes currently flagged as changed.
    pub fn dirty(&self) -> &[NodeId] {
        &self.dirty_log
    }

    // ----- incremental reclamation -----

    /// Reclaims every node unreachable from `root`, putting dead slots and
    /// their slab regions on the free lists. Returns the number of nodes
    /// reclaimed.
    ///
    /// **Ids are stable**: live nodes keep their `NodeId`s, so the token
    /// tape, semantic annotations, and any other side table survive
    /// collections untouched — there is no remap step (and no remap table
    /// to allocate). Dead nodes that were parents of live nodes are
    /// disconnected (the live node's parent becomes [`NodeId::NONE`]) so
    /// stale parent chains cannot confuse later damage marking.
    pub fn collect_garbage(&mut self, root: NodeId) -> usize {
        // Retired slots whose pinning snapshots have since been dropped
        // can be recycled now.
        self.drain_deferred();
        // Mark. The generation counter makes the pooled mark array
        // clear-free: a slot is marked iff its entry equals this pass's
        // generation.
        self.gc_gen += 1;
        let gen = self.gc_gen;
        if self.mark_gen.len() < self.nodes.len() {
            self.mark_gen.resize(self.nodes.len(), 0);
        }
        let mut stack = std::mem::take(&mut self.gc_stack);
        stack.clear();
        stack.push(root);
        self.mark_gen[root.index()] = gen;
        while let Some(id) = stack.pop() {
            for i in 0..self.kid_count(id) {
                let k = self.kid_at(id, i);
                if self.mark_gen[k.index()] != gen {
                    self.mark_gen[k.index()] = gen;
                    stack.push(k);
                }
            }
        }
        self.gc_stack = stack;

        // Sweep: recycle dead slots, disconnect live nodes from dead
        // parents. While any snapshot pins a published version, dead slots
        // are *deferred* instead of recycled — their bits stay intact for
        // the pinned versions that saw them alive — and drain once the
        // oldest pin advances past their death stamp.
        let pinned = !self.pins.lock().expect("pin registry poisoned").is_empty();
        let mut reclaimed = 0;
        for i in 0..self.nodes.len() {
            if self.mark_gen[i] == gen {
                let p = self.nodes[i].parent;
                if !p.is_none() && self.mark_gen[p.index()] != gen {
                    self.nodes[i].parent = NodeId::NONE;
                    self.touch(NodeId(i as u32));
                }
            } else if !self.nodes[i].free && !self.nodes[i].deferred {
                let id = NodeId(i as u32);
                if pinned {
                    self.defer_slot(id);
                } else {
                    self.release_slot(id);
                }
                reclaimed += 1;
            }
        }
        let DagArena {
            dirty_log,
            mark_gen,
            ..
        } = self;
        dirty_log.retain(|d| mark_gen[d.index()] == gen);
        self.undo_log.clear();
        self.allocs_since_gc = 0;
        reclaimed
    }

    /// Puts a dead slot on the free list, releasing its slab region and its
    /// lexeme storage.
    fn release_slot(&mut self, id: NodeId) {
        if let Kids::Slab { off, cap, .. } = self.nodes[id.index()].kids {
            self.free_region(off, cap);
        }
        let n = &mut self.nodes[id.index()];
        n.kind = NodeKind::Bos; // drops a terminal's lexeme
        n.kids = Kids::EMPTY;
        n.parent = NodeId::NONE;
        n.state = ParseState::NONE;
        n.width = 0;
        n.changed = false;
        n.free = true;
        n.deferred = false;
        self.free_nodes.push(id);
        self.touch(id);
    }

    /// Retires a dead slot without recycling it: some live snapshot still
    /// pins a version that saw the node alive, so its storage (kind, kids,
    /// lexeme) must survive until the oldest pin advances past the current
    /// version stamp.
    fn defer_slot(&mut self, id: NodeId) {
        self.nodes[id.index()].deferred = true;
        self.deferred_frees.push((self.snap_version, id));
        self.touch(id);
    }

    /// Releases every deferred slot whose death stamp the oldest live pin
    /// has advanced past (all of them when no snapshot is live). This is
    /// the generation-stamp check of the reclamation protocol: a slot that
    /// died at stamp `v` was still visible to every snapshot published at
    /// or before `v`, so it recycles only once the oldest pinned version
    /// exceeds `v`.
    pub(crate) fn drain_deferred(&mut self) {
        let oldest = self
            .pins
            .lock()
            .expect("pin registry poisoned")
            .keys()
            .next()
            .copied();
        let upto = match oldest {
            None => self.deferred_frees.len(),
            Some(o) => self.deferred_frees.partition_point(|&(v, _)| v < o),
        };
        if upto == 0 {
            return;
        }
        let drained: Vec<_> = self.deferred_frees.drain(..upto).collect();
        for (_, id) in drained {
            debug_assert!(self.nodes[id.index()].deferred, "double release");
            self.release_slot(id);
        }
    }

    /// Dead slots currently awaiting reclamation (non-zero only while
    /// snapshots pin old versions).
    pub fn deferred_free_backlog(&self) -> usize {
        self.deferred_frees.len()
    }

    /// Number of live snapshot pins across all published versions.
    pub fn live_pins(&self) -> usize {
        self.pins
            .lock()
            .expect("pin registry poisoned")
            .values()
            .sum()
    }

    /// The version stamp of the most recent publish (0 before the first).
    pub fn published_version(&self) -> u64 {
        self.snap_version
    }

    /// Slot images written by [`DagArena::publish`] so far — one per slot
    /// mutated between publishes, however many times it was mutated.
    pub fn publish_patched_slots(&self) -> u64 {
        self.publish_patched
    }

    /// Chunks [`DagArena::publish`] had to copy because a live snapshot
    /// still shared them. Zero in a session whose readers drop each
    /// snapshot before the next publish.
    pub fn publish_copied_chunks(&self) -> u64 {
        self.publish_copied
    }

    /// Publishes an immutable snapshot of the current dag.
    ///
    /// Walks only the chunks holding slots mutated since the previous
    /// publish. A chunk no snapshot shares is patched in place, re-imaging
    /// just its flagged slots — O(touched slots); a chunk a live snapshot
    /// still shares is cloned first and the clone patched, so that reader
    /// keeps the old one. The snapshot itself shares the chunk spine (one
    /// reference-count bump). It pins the new version stamp, holding off slot recycling (see
    /// [`DagArena::collect_garbage`]) until it is dropped.
    pub fn publish(&mut self) -> DagSnapshot {
        self.drain_deferred();
        let DagArena {
            nodes,
            slab,
            snap_spine,
            snap_dirty,
            snap_dirty_chunks,
            publish_patched,
            publish_copied,
            ..
        } = self;
        if !snap_dirty_chunks.is_empty() {
            let spine = Arc::make_mut(snap_spine);
            for c in snap_dirty_chunks.drain(..) {
                let c = c as usize;
                let start = c * SNAP_CHUNK;
                let live = &nodes[start..nodes.len().min(start + SNAP_CHUNK)];
                let dirty = std::mem::take(&mut snap_dirty[c]);
                *publish_patched += dirty.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
                if spine.len() <= c {
                    spine.resize_with(c + 1, Default::default);
                }
                if Arc::get_mut(&mut spine[c]).is_none() {
                    *publish_copied += 1;
                }
                Arc::make_mut(&mut spine[c]).patch(&dirty, live, slab);
            }
        }
        self.snap_version += 1;
        let pin = PinGuard::new(Arc::clone(&self.pins), self.snap_version);
        DagSnapshot::new(
            Arc::clone(&self.snap_spine),
            self.nodes.len(),
            self.snap_version,
            pin,
        )
    }
}

impl DagRead for DagArena {
    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn kind(&self, id: NodeId) -> &NodeKind {
        DagArena::kind(self, id)
    }

    fn parent(&self, id: NodeId) -> NodeId {
        self.nodes[id.index()].parent
    }

    fn kids(&self, id: NodeId) -> &[NodeId] {
        DagArena::kids(self, id)
    }

    fn width(&self, id: NodeId) -> u32 {
        DagArena::width(self, id)
    }

    fn is_live(&self, id: NodeId) -> bool {
        DagArena::is_live(self, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(a: &mut DagArena, s: &str) -> NodeId {
        a.terminal(Terminal::from_index(1), s)
    }

    #[test]
    fn construction_and_widths() {
        let mut a = DagArena::new();
        let x = t(&mut a, "x");
        let y = t(&mut a, "y");
        let p = a.production(ProdId::from_index(1), ParseState(3), &[x, y]);
        assert_eq!(a.width(p), 2);
        assert_eq!(a.node(x).parent(), p);
        assert_eq!(a.kids(p), &[x, y]);
        assert_eq!(a.state(p), ParseState(3));
        let root = a.root(p);
        assert_eq!(a.width(root), 2);
        assert_eq!(a.kids(root).len(), 3);
        assert!(matches!(a.kind(a.kids(root)[0]), NodeKind::Bos));
    }

    #[test]
    fn wide_kid_lists_spill_to_the_slab() {
        let mut a = DagArena::new();
        let kids: Vec<NodeId> = (0..9).map(|i| t(&mut a, &format!("k{i}"))).collect();
        assert_eq!(a.kid_slab_bytes(), 0, "inline-only so far");
        let p = a.production(ProdId::from_index(1), ParseState(0), &kids);
        assert_eq!(a.kids(p), kids.as_slice());
        assert_eq!(a.kid_count(p), 9);
        assert!(a.kid_slab_bytes() >= 9 * 4, "wide list lives in the slab");
        for &k in &kids {
            assert_eq!(a.node(k).parent(), p);
        }
    }

    #[test]
    fn incremental_growth_spills_and_relocates() {
        let mut a = DagArena::new();
        let e0 = t(&mut a, "e0");
        let seq = a.sequence(NonTerminal::from_index(1), ParseState(0), &[e0]);
        let mut expect = vec![e0];
        // Push through the inline→slab spill (at 4) and one region
        // relocation (4→8), checking contents each step.
        for i in 1..7 {
            let e = t(&mut a, &format!("e{i}"));
            a.seq_append(seq, &[e]);
            expect.push(e);
            assert_eq!(a.kids(seq), expect.as_slice(), "after push {i}");
        }
        assert_eq!(a.width(seq), 7);
    }

    #[test]
    fn symbol_nodes_hold_alternatives() {
        let mut a = DagArena::new();
        let x = t(&mut a, "x");
        let p1 = a.production(ProdId::from_index(1), ParseState::MULTI, &[x]);
        let p2 = a.production(ProdId::from_index(2), ParseState::MULTI, &[x]);
        let sym = a.symbol(NonTerminal::from_index(1), p1);
        a.add_choice(sym, p2);
        a.add_choice(sym, p2); // idempotent
        assert_eq!(a.kids(sym).len(), 2);
        assert_eq!(a.width(sym), 1);
        assert_eq!(a.state(sym), ParseState::MULTI);
    }

    #[test]
    fn alternatives_take_a_canonical_order_whatever_their_arrival() {
        let mut a = DagArena::new();
        let (x, y, z) = (t(&mut a, "x"), t(&mut a, "y"), t(&mut a, "z"));
        let prod = |a: &mut DagArena, p: usize, kids: &[NodeId]| {
            a.production(ProdId::from_index(p), ParseState::MULTI, kids)
        };
        let xy = prod(&mut a, 4, &[x, y]);
        let yz = prod(&mut a, 4, &[y, z]);
        let alts = [
            prod(&mut a, 2, &[xy, z]),
            prod(&mut a, 1, &[x, y, z]),
            prod(&mut a, 2, &[x, yz]),
            prod(&mut a, 3, &[x, yz]),
        ];
        let packed = |a: &mut DagArena, order: &[usize]| {
            let sym = a.symbol(NonTerminal::from_index(1), alts[order[0]]);
            for &i in &order[1..] {
                a.add_choice(sym, alts[i]);
            }
            a.kids(sym).to_vec()
        };
        let want = packed(&mut a, &[0, 1, 2, 3]);
        assert_eq!(
            want,
            [alts[1], alts[2], alts[0], alts[3]],
            "production, kid count, then kid widths"
        );
        assert_eq!(packed(&mut a, &[3, 1, 0, 2]), want);
        assert_eq!(packed(&mut a, &[1, 0, 2, 3]), want);
    }

    #[test]
    fn upgrading_a_kid_to_a_symbol_leaves_the_alternative_order_alone() {
        let mut a = DagArena::new();
        let (x, y, z) = (t(&mut a, "x"), t(&mut a, "y"), t(&mut a, "z"));
        let prod = |a: &mut DagArena, p: usize, kids: &[NodeId]| {
            a.production(ProdId::from_index(p), ParseState::MULTI, kids)
        };
        // Three alternatives of one production over equal kid widths,
        // whose first kids differ only in kind.
        let (k7, k8, k9) = (
            prod(&mut a, 7, &[x, y]),
            prod(&mut a, 8, &[x, y]),
            prod(&mut a, 9, &[x, y]),
        );
        let (p7, p8, p9) = (
            prod(&mut a, 2, &[k7, z]),
            prod(&mut a, 2, &[k8, z]),
            prod(&mut a, 2, &[k9, z]),
        );
        let sym = a.symbol(NonTerminal::from_index(1), p7);
        a.add_choice(sym, p8);
        // `k7` was a proxy: a second reading of its cover upgrades it to a
        // symbol node, patched into `p7` after `p7` was packed.
        let k10 = prod(&mut a, 10, &[x, y]);
        let upgraded = a.symbol(NonTerminal::from_index(2), k7);
        a.add_choice(upgraded, k10);
        assert_eq!(a.replace_kid(p7, k7, upgraded), 1);
        a.add_choice(sym, p9);
        // A symbol packed from the upgraded nodes in the same arrival
        // order holds them in the same order.
        let fresh = a.symbol(NonTerminal::from_index(1), p7);
        a.add_choice(fresh, p8);
        a.add_choice(fresh, p9);
        assert_eq!(a.kids(sym), a.kids(fresh));
        assert_eq!(a.kids(sym), [p7, p8, p9], "equal keys keep arrival order");
    }

    #[test]
    #[should_panic(expected = "same yield")]
    fn add_choice_rejects_width_mismatch() {
        let mut a = DagArena::new();
        let x = t(&mut a, "x");
        let y = t(&mut a, "y");
        let p1 = a.production(ProdId::from_index(1), ParseState::MULTI, &[x]);
        let z = t(&mut a, "z");
        let p2 = a.production(ProdId::from_index(2), ParseState::MULTI, &[y, z]);
        let sym = a.symbol(NonTerminal::from_index(1), p1);
        a.add_choice(sym, p2);
    }

    #[test]
    fn epoch_gates_sequence_mutation() {
        let mut a = DagArena::new();
        let e1 = t(&mut a, "a");
        let seq = a.sequence(NonTerminal::from_index(1), ParseState(0), &[e1]);
        let e2 = t(&mut a, "b");
        a.seq_append(seq, &[e2]);
        assert_eq!(a.width(seq), 2);
        a.begin_epoch();
        assert!(!a.is_current_epoch(seq));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut a2 = a.clone();
            let e3 = a2.terminal(Terminal::from_index(1), "c");
            a2.seq_append(seq, &[e3]);
        }));
        assert!(result.is_err(), "appending across epochs must panic");
    }

    #[test]
    fn mark_changed_walks_to_root() {
        let mut a = DagArena::new();
        let x = t(&mut a, "x");
        let y = t(&mut a, "y");
        let p = a.production(ProdId::from_index(1), ParseState(0), &[x, y]);
        let root = a.root(p);
        a.mark_changed(x);
        assert!(a.has_changes(x));
        assert!(a.has_changes(p));
        assert!(a.has_changes(root));
        assert!(!a.has_changes(y));
        a.clear_changes();
        assert!(!a.has_changes(x) && !a.has_changes(p) && !a.has_changes(root));
        assert!(a.dirty().is_empty());
    }

    #[test]
    fn mark_following_marks_right_spine() {
        // p = (q = (x y) z); editing after y's subtree: nodes whose yield
        // ends at y are q's... no: y ends q's yield. Ancestors of y that end
        // at y: just q's child y and q itself ends with y? q's kids [x, y] so
        // y is last child: chain = y, q. Then z follows.
        let mut a = DagArena::new();
        let x = t(&mut a, "x");
        let y = t(&mut a, "y");
        let q = a.production(ProdId::from_index(1), ParseState(0), &[x, y]);
        let z = t(&mut a, "z");
        let p = a.production(ProdId::from_index(2), ParseState(0), &[q, z]);
        let _root = a.root(p);
        a.mark_following(y);
        assert!(!a.has_changes(y), "the terminal itself is still shiftable");
        assert!(a.has_changes(q), "q's reduction consumed the old lookahead");
        assert!(
            a.has_changes(p),
            "ancestor containing the boundary is marked"
        );
        assert!(!a.has_changes(x));
        assert!(!a.has_changes(z));
    }

    #[test]
    fn garbage_collection_recycles_without_moving_ids() {
        let mut a = DagArena::new();
        let dead = t(&mut a, "dead");
        let x = t(&mut a, "x");
        let p = a.production(ProdId::from_index(1), ParseState(0), &[x]);
        let root = a.root(p);
        let before = a.len();
        let reclaimed = a.collect_garbage(root);
        assert_eq!(reclaimed, 1, "only the detached terminal dies");
        assert_eq!(a.len(), before, "slots are recycled, not compacted");
        assert_eq!(a.in_use(), before - 1);
        // Ids are stable: the same handles still resolve.
        assert!(matches!(a.kind(root), NodeKind::Root));
        assert_eq!(a.kids(root)[1], p);
        assert_eq!(a.kids(p), &[x]);
        assert_eq!(a.node(x).parent(), p);
        // The next allocation recycles the dead slot instead of growing.
        let fresh_before = a.fresh_node_slots();
        let t2 = t(&mut a, "recycled");
        assert_eq!(t2, dead, "free-listed slot is reused");
        assert_eq!(a.fresh_node_slots(), fresh_before);
        assert_eq!(a.recycled_node_slots(), 1);
        assert_eq!(a.len(), before);
    }

    #[test]
    fn gc_disconnects_live_nodes_from_dead_parents() {
        let mut a = DagArena::new();
        let x = t(&mut a, "x");
        // An old parent that will die, still claiming x.
        let stale = a.production(ProdId::from_index(7), ParseState(0), &[x]);
        // The surviving tree adopts x afterwards... but then parent(x) is the
        // live p. Make the *stale* node the last adopter instead.
        let p = a.production(ProdId::from_index(1), ParseState(0), &[x]);
        let root = a.root(p);
        a.nodes[x.index()].parent = stale; // simulate a dead fork's adoption
        a.collect_garbage(root);
        assert!(
            a.node(x).parent().is_none(),
            "dead parent pointer must be cleared, not left dangling"
        );
        let _ = p;
    }

    #[test]
    fn gc_recycles_slab_regions() {
        let mut a = DagArena::new();
        let kids: Vec<NodeId> = (0..8).map(|i| t(&mut a, &format!("k{i}"))).collect();
        let wide = a.production(ProdId::from_index(1), ParseState(0), &kids);
        let keep = t(&mut a, "keep");
        let p = a.production(ProdId::from_index(2), ParseState(0), &[keep]);
        let root = a.root(p);
        let slab_high = a.kid_slab_bytes();
        a.collect_garbage(root); // `wide` and its kids die
        let _ = wide;
        // A new wide node reuses the freed region: the slab does not grow.
        let kids2: Vec<NodeId> = (0..8).map(|i| t(&mut a, &format!("n{i}"))).collect();
        let wide2 = a.production(ProdId::from_index(3), ParseState(0), &kids2);
        assert_eq!(a.kids(wide2), kids2.as_slice());
        assert_eq!(a.kid_slab_bytes(), slab_high, "region recycled");
    }

    #[test]
    fn retention_rewrites_the_state_once_per_epoch_and_rolls_back() {
        let mut a = DagArena::new();
        a.begin_epoch();
        let x = t(&mut a, "x");
        let y = t(&mut a, "y");
        let prod = ProdId::from_index(1);
        let p = a.production(prod, ParseState(3), &[x, y]);
        let body = a.production(ProdId::from_index(2), ParseState(0), &[p]);
        a.root(body);
        let reuse = |a: &mut DagArena, s| a.try_reuse_production(prod, &[x, y], ParseState(s));

        // A delta renumbered the state: the node is retained under the new
        // one, and is then claimed for the epoch.
        a.begin_epoch();
        assert_eq!(reuse(&mut a, 7), Some(p));
        assert_eq!(a.state(p), ParseState(7));
        assert_eq!(reuse(&mut a, 9), None);
        assert_eq!(a.state(p), ParseState(7), "a claimed node keeps its state");
        assert_eq!(reuse(&mut a, 7), Some(p));
        assert_eq!(a.try_reuse_production(prod, &[y, x], ParseState(7)), None);
        assert_eq!(a.retained_this_epoch(), 2);
        // A refused attempt restores the recorded state with the parents.
        let fresh = a.production(ProdId::from_index(2), ParseState(0), &[p]);
        assert_eq!(a.node(p).parent(), fresh);
        a.rollback_epoch();
        assert_eq!(a.state(p), ParseState(3));
        assert_eq!(a.node(p).parent(), body);
        assert_eq!(
            a.retained_this_epoch(),
            0,
            "the refused attempt's retentions"
        );

        // A retention under the recorded state claims the node too.
        a.begin_epoch();
        assert_eq!(reuse(&mut a, 3), Some(p));
        assert_eq!(reuse(&mut a, 5), None);
        assert_eq!(a.state(p), ParseState(3));

        // The multistate sentinel is never rewritten to or from.
        a.begin_epoch();
        let multi = ParseState::MULTI;
        assert_eq!(a.try_reuse_production(prod, &[x, y], multi), None);
        assert_eq!(a.state(p), ParseState(3));
        let q = a.production(prod, multi, &[y, x]);
        a.begin_epoch();
        assert_eq!(a.try_reuse_production(prod, &[y, x], ParseState(3)), None);
        assert_eq!(a.try_reuse_production(prod, &[y, x], multi), Some(q));
    }

    #[test]
    fn should_collect_tracks_allocation_budget() {
        let mut a = DagArena::new();
        assert!(!a.should_collect());
        let mut last = NodeId::NONE;
        for i in 0..64 {
            last = t(&mut a, &format!("t{i}"));
        }
        assert!(a.should_collect(), "64 allocs on a small arena trigger");
        let root = a.root(last);
        a.collect_garbage(root);
        assert!(!a.should_collect(), "counter resets after a collection");
    }

    #[test]
    fn replace_kid_patches_in_place() {
        let mut a = DagArena::new();
        let x = t(&mut a, "x");
        let y = t(&mut a, "y");
        let p = a.production(ProdId::from_index(1), ParseState(0), &[x, y]);
        let x2 = t(&mut a, "x");
        assert_eq!(a.replace_kid(p, x, x2), 1);
        assert_eq!(a.kids(p), &[x2, y]);
        assert_eq!(a.node(x2).parent(), p);
        assert_eq!(a.replace_kid(p, x, x2), 0, "old id no longer present");
    }

    #[test]
    fn set_root_body_swaps_body_keeps_sentinels() {
        let mut a = DagArena::new();
        let x = t(&mut a, "x");
        let p1 = a.production(ProdId::from_index(1), ParseState(0), &[x]);
        let root = a.root(p1);
        let y = t(&mut a, "y");
        let p2 = a.production(ProdId::from_index(2), ParseState(0), &[y]);
        let bos = a.kids(root)[0];
        a.set_root_body(root, p2);
        assert_eq!(a.kids(root)[0], bos);
        assert_eq!(a.kids(root)[1], p2);
        assert_eq!(a.width(root), 1);
    }
}
