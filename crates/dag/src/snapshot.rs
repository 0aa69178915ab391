//! Immutable, version-stamped snapshots of the dag for concurrent readers.
//!
//! # One writer, unbounded readers
//!
//! The arena is a single-writer structure: reparsing mutates nodes in
//! place. Reader threads therefore never touch the arena itself — instead
//! the writer *publishes* a [`DagSnapshot`]: an immutable view assembled
//! from fixed-size chunks of 256 (`SNAP_CHUNK`) node images, reached through
//! one shared spine (`Arc<Vec<Arc<SnapChunk>>>`), so handing a snapshot out
//! costs one reference-count bump however large the document is.
//!
//! # Publish protocol
//!
//! Every arena mutation that changes snapshot-visible state sets the
//! slot's bit in its chunk's 256-bit dirty bitmap and, on a chunk's first
//! dirty bit, records the chunk in a dirty-chunk list. Publishing walks
//! only that list, and treats each dirty chunk by who else holds it:
//!
//! * **No reader holds the previous version** (the chunk is referenced by
//!   the writer's spine alone): only the flagged slots are re-imaged, in
//!   place. Publish cost is O(touched slots), independent of document size.
//! * **A reader still holds it**: the writer clones the chunk and patches
//!   the clone; the reader keeps the old chunk. Cost is O(dirty chunks ×
//!   chunk size), plus one spine copy, since the reader shares the spine
//!   too.
//!
//! In place, a re-imaged slot's kid list overwrites its region of the
//! chunk's kid pool when it fits and is appended otherwise; once the
//! abandoned regions outweigh the live ones the pool is repacked, so a
//! chunk's pool stays within twice its live kid lists.
//!
//! Because `NodeId`s are stable (the arena recycles slots, never moves
//! them), a snapshot indexes its chunks by the very same ids the writer
//! uses: structural sharing needs no translation table.
//!
//! # Epoch-based reclamation
//!
//! Every snapshot pins the version stamp it was published at in a shared
//! registry. While any pin is live, the collector does not recycle dead
//! node slots: they go onto a *deferred free list* stamped with the version
//! at which they died. The list drains — oldest first, checked against the
//! oldest live pin — when the oldest pinned version advances past a slot's
//! death stamp (or when no pins remain). This keeps every slot's bits
//! intact for as long as some published version could still name it, and
//! bounds the backlog by the lifetime of the slowest reader.

use crate::node::{Node, NodeId, NodeKind};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Nodes per snapshot chunk, the unit of copy-on-write sharing between
/// published versions.
pub(crate) const SNAP_CHUNK: usize = 256;

/// A chunk's dirty bitmap: bit `i % SNAP_CHUNK` flags slot `i` as mutated
/// since the last publish.
pub(crate) type DirtyBits = [u64; SNAP_CHUNK / 64];

/// The published chunk spine, shared by the writer and every snapshot of
/// the same version.
pub(crate) type Spine = Arc<Vec<Arc<SnapChunk>>>;

/// Read-only access to a parse dag, implemented by both the live
/// [`crate::DagArena`] (the writer's view) and the immutable
/// [`DagSnapshot`] (a reader's view). Analyses written against this trait
/// run unchanged on either side of the publish boundary.
pub trait DagRead {
    /// Number of node slots, live or free.
    fn node_count(&self) -> usize;
    /// The node's kind.
    fn kind(&self, id: NodeId) -> &NodeKind;
    /// Parent in the tree of this version ([`NodeId::NONE`] if detached).
    fn parent(&self, id: NodeId) -> NodeId;
    /// The node's children in yield order (alternatives for symbol nodes).
    fn kids(&self, id: NodeId) -> &[NodeId];
    /// Number of terminals in the node's yield.
    fn width(&self, id: NodeId) -> u32;
    /// Whether `id` names a node that is live in this version (neither
    /// free-listed nor awaiting deferred reclamation).
    fn is_live(&self, id: NodeId) -> bool;
}

/// One chunk of a published snapshot: a slice of node images plus a
/// chunk-local pool holding their kid lists. Immutable once shared with a
/// snapshot; the writer patches it in place only while it holds the sole
/// reference.
#[derive(Debug, Default, Clone)]
pub(crate) struct SnapChunk {
    pub(crate) nodes: Vec<SnapNode>,
    pub(crate) kid_pool: Vec<NodeId>,
    /// Pool words no slot's region covers any more (left behind by kid
    /// lists that outgrew their region).
    pub(crate) pool_garbage: u32,
}

/// The published image of one node slot.
#[derive(Debug, Clone)]
pub(crate) struct SnapNode {
    pub(crate) kind: NodeKind,
    pub(crate) parent: NodeId,
    pub(crate) width: u32,
    /// Live at publish time (not free, not deferred).
    pub(crate) live: bool,
    pub(crate) kids_off: u32,
    pub(crate) kids_len: u32,
    /// Size of the slot's region in the kid pool (≥ `kids_len`).
    pub(crate) kids_cap: u32,
}

impl SnapNode {
    /// Placeholder for a slot not yet imaged (a chunk's tail as it grows).
    const VACANT: SnapNode = SnapNode {
        kind: NodeKind::Bos,
        parent: NodeId::NONE,
        width: 0,
        live: false,
        kids_off: 0,
        kids_len: 0,
        kids_cap: 0,
    };

    /// A fresh image of `n` whose kid list sits at `kids_off` in the pool.
    fn of(n: &Node, kids_off: u32, kids_len: u32) -> SnapNode {
        SnapNode {
            kind: n.kind.clone(),
            parent: n.parent,
            width: n.width,
            live: !n.free && !n.deferred,
            kids_off,
            kids_len,
            kids_cap: kids_len,
        }
    }

    /// Copies `n`'s visible state into this image, keeping the kid
    /// window. A terminal's lexeme reuses the image's string buffer.
    fn set_from(&mut self, n: &Node) {
        match (&mut self.kind, &n.kind) {
            (NodeKind::Terminal { term, lexeme }, NodeKind::Terminal { term: t, lexeme: l }) => {
                *term = *t;
                lexeme.clone_from(l);
            }
            (dst, src) => *dst = src.clone(),
        }
        self.parent = n.parent;
        self.width = n.width;
        self.live = !n.free && !n.deferred;
    }
}

impl SnapChunk {
    /// Re-images, in place, the slots of `live` (the chunk's slice of the
    /// arena) flagged in `dirty`, growing the chunk to `live.len()` slots.
    /// A kid list overwrites the slot's pool region when it fits and is
    /// appended otherwise; the pool is repacked once abandoned regions
    /// outweigh live ones.
    pub(crate) fn patch(&mut self, dirty: &DirtyBits, live: &[Node], slab: &[NodeId]) {
        if self.nodes.is_empty() {
            // A new chunk: every slot is flagged.
            *self = SnapChunk::build(live, slab);
            return;
        }
        if self.nodes.len() < live.len() {
            self.nodes.resize(live.len(), SnapNode::VACANT);
        }
        for (w, mut word) in dirty.iter().copied().enumerate() {
            while word != 0 {
                let j = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let n = &live[j];
                let kids = n.kids.resolve(slab);
                let s = &mut self.nodes[j];
                s.set_from(n);
                if kids.len() as u32 <= s.kids_cap {
                    let off = s.kids_off as usize;
                    self.kid_pool[off..off + kids.len()].copy_from_slice(kids);
                } else {
                    self.pool_garbage += s.kids_cap;
                    s.kids_cap = kids.len() as u32;
                    s.kids_off = self.kid_pool.len() as u32;
                    self.kid_pool.extend_from_slice(kids);
                }
                s.kids_len = kids.len() as u32;
            }
        }
        if self.pool_garbage > self.kid_pool.len() as u32 - self.pool_garbage {
            self.compact();
        }
    }

    /// Repacks the kid pool tightly, dropping abandoned regions and slack.
    fn compact(&mut self) {
        let old = std::mem::take(&mut self.kid_pool);
        let used = self.nodes.iter().map(|s| s.kids_len as usize).sum();
        self.kid_pool = Vec::with_capacity(used);
        for s in &mut self.nodes {
            let from = s.kids_off as usize;
            s.kids_off = self.kid_pool.len() as u32;
            s.kids_cap = s.kids_len;
            self.kid_pool
                .extend_from_slice(&old[from..from + s.kids_len as usize]);
        }
        self.pool_garbage = 0;
    }

    /// A fresh, tightly packed image of `live`, a new chunk's slice of the
    /// arena.
    fn build(live: &[Node], slab: &[NodeId]) -> SnapChunk {
        let mut out = SnapChunk {
            nodes: Vec::with_capacity(live.len()),
            kid_pool: Vec::with_capacity(live.len()),
            pool_garbage: 0,
        };
        for n in live {
            let kids = n.kids.resolve(slab);
            let image = SnapNode::of(n, out.kid_pool.len() as u32, kids.len() as u32);
            out.kid_pool.extend_from_slice(kids);
            out.nodes.push(image);
        }
        out
    }
}

/// Shared pin registry: version stamp → number of live snapshots pinned at
/// that stamp. The writer consults the *oldest* key when draining its
/// deferred free list.
pub(crate) type PinRegistry = Arc<Mutex<BTreeMap<u64, usize>>>;

/// RAII pin on one published version. Dropping the guard (i.e. dropping
/// the snapshot) unpins; when a version's count reaches zero its entry is
/// removed, letting the writer's oldest-pin watermark advance.
#[derive(Debug)]
pub(crate) struct PinGuard {
    registry: PinRegistry,
    version: u64,
}

impl PinGuard {
    pub(crate) fn new(registry: PinRegistry, version: u64) -> PinGuard {
        *registry
            .lock()
            .expect("pin registry poisoned")
            .entry(version)
            .or_insert(0) += 1;
        PinGuard { registry, version }
    }
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        let mut pins = match self.registry.lock() {
            Ok(p) => p,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(count) = pins.get_mut(&self.version) {
            *count -= 1;
            if *count == 0 {
                pins.remove(&self.version);
            }
        }
    }
}

/// An immutable, version-stamped view of one parse dag, cheap to publish
/// (copy-on-write at chunk granularity, see the module docs) and safe to
/// query from any number of threads while the writer keeps reparsing.
///
/// The snapshot holds a pin guard: while it (or any clone of its
/// `Arc`-shared chunks) is alive, the writing arena will not recycle node
/// slots that were live at this version.
#[derive(Debug)]
pub struct DagSnapshot {
    chunks: Spine,
    len: usize,
    version: u64,
    _pin: PinGuard,
}

impl DagSnapshot {
    pub(crate) fn new(chunks: Spine, len: usize, version: u64, pin: PinGuard) -> DagSnapshot {
        DagSnapshot {
            chunks,
            len,
            version,
            _pin: pin,
        }
    }

    /// The version stamp this snapshot pins.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of node slots captured.
    pub fn node_count(&self) -> usize {
        self.len
    }

    #[inline]
    fn snap(&self, id: NodeId) -> &SnapNode {
        let i = id.index();
        assert!(i < self.len, "node id out of snapshot range");
        &self.chunks[i / SNAP_CHUNK].nodes[i % SNAP_CHUNK]
    }
}

impl DagRead for DagSnapshot {
    fn node_count(&self) -> usize {
        self.len
    }

    fn kind(&self, id: NodeId) -> &NodeKind {
        &self.snap(id).kind
    }

    fn parent(&self, id: NodeId) -> NodeId {
        self.snap(id).parent
    }

    fn kids(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        assert!(i < self.len, "node id out of snapshot range");
        let chunk = &self.chunks[i / SNAP_CHUNK];
        let n = &chunk.nodes[i % SNAP_CHUNK];
        &chunk.kid_pool[n.kids_off as usize..(n.kids_off + n.kids_len) as usize]
    }

    fn width(&self, id: NodeId) -> u32 {
        self.snap(id).width
    }

    fn is_live(&self, id: NodeId) -> bool {
        id.index() < self.len && self.snap(id).live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::DagArena;
    use crate::node::ParseState;
    use wg_grammar::{NonTerminal, ProdId, Terminal};

    fn t(a: &mut DagArena, s: &str) -> NodeId {
        a.terminal(Terminal::from_index(1), s)
    }

    #[test]
    fn snapshot_mirrors_arena() {
        let mut a = DagArena::new();
        let x = t(&mut a, "x");
        let y = t(&mut a, "y");
        let p = a.production(ProdId::from_index(1), ParseState(3), &[x, y]);
        let root = a.root(p);
        let snap = a.publish();
        assert_eq!(snap.version(), 1);
        assert_eq!(snap.node_count(), a.node_count());
        for i in 0..a.node_count() {
            let id = NodeId(i as u32);
            assert_eq!(snap.kind(id), DagArena::kind(&a, id), "kind of {id:?}");
            assert_eq!(snap.kids(id), DagArena::kids(&a, id), "kids of {id:?}");
            assert_eq!(snap.width(id), DagArena::width(&a, id));
            assert_eq!(snap.parent(id), a.node(id).parent());
            assert_eq!(snap.is_live(id), DagArena::is_live(&a, id));
        }
        assert_eq!(snap.parent(x), p);
        assert_eq!(snap.kids(root).len(), 3);
    }

    #[test]
    fn snapshot_is_isolated_from_later_mutation() {
        let mut a = DagArena::new();
        let x = t(&mut a, "x");
        let p = a.production(ProdId::from_index(1), ParseState(0), &[x]);
        let root = a.root(p);
        let snap = a.publish();
        // Mutate: replace the body, collect the old one.
        a.begin_epoch();
        let y = t(&mut a, "y");
        let p2 = a.production(ProdId::from_index(2), ParseState(0), &[y]);
        a.set_root_body(root, p2);
        a.collect_garbage(root);
        // The pinned snapshot still reads the old structure.
        assert!(snap.is_live(x));
        assert!(matches!(
            snap.kind(x),
            NodeKind::Terminal { lexeme, .. } if lexeme == "x"
        ));
        assert_eq!(snap.kids(root)[1], p);
        // The live arena has moved on.
        assert_eq!(DagArena::kids(&a, root)[1], p2);
    }

    #[test]
    fn pinned_snapshot_defers_slot_recycling() {
        let mut a = DagArena::new();
        let dead = t(&mut a, "doomed");
        let x = t(&mut a, "x");
        let p = a.production(ProdId::from_index(1), ParseState(0), &[x]);
        let root = a.root(p);
        let snap = a.publish();
        assert_eq!(a.live_pins(), 1);
        a.collect_garbage(root);
        assert_eq!(
            a.deferred_free_backlog(),
            1,
            "dead slot deferred, not freed"
        );
        assert!(!DagArena::is_live(&a, dead), "deferred slots read as dead");
        assert!(snap.is_live(dead), "the pinned version saw it alive");
        assert!(matches!(
            snap.kind(dead),
            NodeKind::Terminal { lexeme, .. } if lexeme == "doomed"
        ));
        // While pinned, the slot's storage survives in the writer too.
        assert!(matches!(
            DagArena::kind(&a, dead),
            NodeKind::Terminal { lexeme, .. } if lexeme == "doomed"
        ));
        drop(snap);
        assert_eq!(a.live_pins(), 0);
        a.collect_garbage(root);
        assert_eq!(a.deferred_free_backlog(), 0, "backlog drains once unpinned");
        // The slot is recyclable again.
        let recycled = t(&mut a, "fresh");
        assert_eq!(recycled, dead);
    }

    #[test]
    fn publish_shares_untouched_chunks() {
        let mut a = DagArena::new();
        // Two chunks' worth of nodes.
        let kids: Vec<NodeId> = (0..(SNAP_CHUNK + 8))
            .map(|i| t(&mut a, &format!("k{i}")))
            .collect();
        let p = a.production(ProdId::from_index(1), ParseState(0), &kids);
        let root = a.root(p);
        let s1 = a.publish();
        // Touch only the tail: chunk 0 must be shared, the tail chunk not.
        a.begin_epoch();
        let extra = t(&mut a, "extra");
        a.set_root_body(root, extra);
        let s2 = a.publish();
        assert_eq!(s2.version(), 2);
        assert!(
            Arc::ptr_eq(&s1.chunks[0], &s2.chunks[0]),
            "untouched chunk is shared across publishes"
        );
        assert!(
            !Arc::ptr_eq(s1.chunks.last().unwrap(), &s2.chunks[s1.chunks.len() - 1]),
            "mutated chunk is re-materialized"
        );
    }

    /// Every slot's snapshot-visible state, read through [`DagRead`].
    type Image = Vec<(NodeKind, NodeId, Vec<NodeId>, u32, bool)>;

    fn image(d: &dyn DagRead) -> Image {
        (0..d.node_count())
            .map(|i| {
                let id = NodeId(i as u32);
                (
                    d.kind(id).clone(),
                    d.parent(id),
                    d.kids(id).to_vec(),
                    d.width(id),
                    d.is_live(id),
                )
            })
            .collect()
    }

    fn dirty_slots(a: &DagArena) -> u64 {
        a.snap_dirty_chunks
            .iter()
            .flat_map(|&c| a.snap_dirty[c as usize])
            .map(|w| u64::from(w.count_ones()))
            .sum()
    }

    #[test]
    fn one_token_publish_patches_only_touched_slots() {
        let mut a = DagArena::new();
        let kids: Vec<NodeId> = (0..4 * SNAP_CHUNK)
            .map(|i| t(&mut a, &format!("k{i}")))
            .collect();
        let p = a.production(ProdId::from_index(1), ParseState(0), &kids);
        let root = a.root(p);
        drop(a.publish());
        let chunks = a.snap_spine.len();

        // No reader: swap one token. The slots touched are the new
        // terminal, its parent and the collected old terminal.
        a.begin_epoch();
        let fresh = t(&mut a, "edited");
        a.replace_kid(p, kids[300], fresh);
        a.collect_garbage(root);
        assert_eq!(dirty_slots(&a), 3);
        let (patched, copied) = (a.publish_patched_slots(), a.publish_copied_chunks());
        let s1 = a.publish();
        assert_eq!(a.publish_patched_slots() - patched, 3, "only touched slots");
        assert_eq!(a.publish_copied_chunks(), copied, "no reader, no copy");
        assert_eq!(image(&s1), image(&a));

        // A reader holds `s1`: publish copies exactly the dirty chunks and
        // shares the rest with it.
        a.begin_epoch();
        let again = t(&mut a, "again");
        a.replace_kid(p, kids[900], again);
        a.collect_garbage(root);
        let dirty: Vec<usize> = a.snap_dirty_chunks.iter().map(|&c| c as usize).collect();
        let s2 = a.publish();
        assert_eq!(a.publish_copied_chunks() - copied, dirty.len() as u64);
        for c in 0..chunks {
            assert_eq!(
                Arc::ptr_eq(&s1.chunks[c], &s2.chunks[c]),
                !dirty.contains(&c),
                "chunk {c}"
            );
        }
        assert_eq!(image(&s2), image(&a));
        assert!(
            matches!(s1.kind(kids[900]), NodeKind::Terminal { lexeme, .. } if lexeme == "k900")
        );
    }

    #[test]
    fn whole_tree_rebuild_under_a_reader() {
        let mut a = DagArena::new();
        let old: Vec<NodeId> = (0..2 * SNAP_CHUNK)
            .map(|i| t(&mut a, &format!("o{i}")))
            .collect();
        let p = a.production(ProdId::from_index(1), ParseState(0), &old);
        let root = a.root(p);
        let s1 = a.publish();
        let before = image(&s1);
        // Replace every node while `s1` pins them: each old slot is
        // deferred, so its chunk is dirty in every slot.
        a.begin_epoch();
        let new: Vec<NodeId> = (0..2 * SNAP_CHUNK)
            .map(|i| t(&mut a, &format!("n{i}")))
            .collect();
        let p2 = a.production(ProdId::from_index(2), ParseState(0), &new);
        a.set_root_body(root, p2);
        a.collect_garbage(root);
        assert!(a.snap_dirty[0].iter().all(|&w| w == !0));
        let s2 = a.publish();
        assert!(image(&s2) == image(&a));
        assert!(image(&s1) == before, "the reader's version is untouched");
    }

    /// xorshift64*: a dependency-free generator for the differential test.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n.max(1)
        }
    }

    /// Random mutate/publish sequences against the arena, holding a random
    /// subset of snapshots across later publishes: every held snapshot
    /// must keep the image captured at its own publish, and every new one
    /// must equal the live arena.
    #[test]
    fn differential_publish_against_captured_images() {
        for seed in 1..=4u64 {
            differential_run(seed);
        }
    }

    /// Up to `n` random nodes from `order[..upto]`, skipping wide ones:
    /// shared subtrees would otherwise make widths grow exponentially.
    fn pick(a: &DagArena, rng: &mut Rng, order: &[NodeId], upto: usize, n: usize) -> Vec<NodeId> {
        (0..n)
            .map(|_| order[rng.below(upto)])
            .filter(|&id| a.width(id) < 1 << 10)
            .collect()
    }

    fn differential_run(seed: u64) {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let mut a = DagArena::new();
        // Nodes in creation order: a node's kids always precede it, so
        // random rewiring never builds a cycle.
        let mut order: Vec<NodeId> = (0..300).map(|i| t(&mut a, &format!("t{i}"))).collect();
        let mut body = a.production(ProdId::from_index(1), ParseState(0), &order[..8]);
        order.push(body);
        let root = a.root(body);
        let mut growing = None;
        let mut held: Vec<(DagSnapshot, Image)> = Vec::new();
        let (mut in_place, mut copy_path, mut grew_partial) = (0, 0, 0);
        for step in 0..4000 {
            let len = order.len();
            match rng.below(20) {
                0..=3 => {
                    let lexeme = "x".repeat(1 + rng.below(12));
                    order.push(t(&mut a, &lexeme));
                }
                4..=6 => {
                    let n = rng.below(10);
                    let kids = pick(&a, &mut rng, &order, len, n);
                    let state = ParseState(rng.below(5) as u32);
                    order.push(a.production(ProdId::from_index(2), state, &kids));
                }
                7 => {
                    // Rewire a node with a kid list of a different size.
                    let at = rng.below(len);
                    let n = rng.below(14);
                    let kids = pick(&a, &mut rng, &order, at.max(1), n);
                    if at > 0 && matches!(a.kind(order[at]), NodeKind::Production { .. }) {
                        a.set_kids(order[at], &kids);
                    }
                }
                8..=10 => {
                    // Grow the live tree: a new body over the old one.
                    let n = rng.below(6);
                    let mut kids = vec![body];
                    kids.extend(pick(&a, &mut rng, &order, len, n));
                    body = a.production(ProdId::from_index(3), ParseState(2), &kids);
                    order.push(body);
                    a.set_root_body(root, body);
                }
                11 => {
                    // Swap one token for another (equal widths).
                    let at = rng.below(len);
                    let id = order[at];
                    let old = a.kids(id).iter().copied().find(|&k| a.width(k) == 1);
                    let new = pick(&a, &mut rng, &order, at.max(1), 1);
                    if let (Some(old), Some(&new)) = (old, new.first()) {
                        if at > 0 && a.width(new) == 1 {
                            a.replace_kid(id, old, new);
                        }
                    }
                }
                12 => {
                    let alts = pick(&a, &mut rng, &order, len, 2);
                    if let Some(&first) = alts.first() {
                        let sym = a.symbol(NonTerminal::from_index(1), first);
                        if let Some(&alt) = alts.get(1) {
                            if alt != first && a.width(alt) == a.width(first) {
                                a.add_choice(sym, alt);
                            }
                        }
                        order.push(sym);
                    }
                }
                13 => {
                    let (n, m) = (rng.below(6), rng.below(8));
                    let kids = pick(&a, &mut rng, &order, len, n);
                    let seq = a.sequence(NonTerminal::from_index(2), ParseState(1), &kids);
                    let steps = pick(&a, &mut rng, &order, len, m);
                    a.seq_append(seq, &steps);
                    order.push(seq);
                }
                14 => {
                    a.begin_epoch();
                    a.collect_garbage(root);
                    order.retain(|&id| DagArena::is_live(&a, id));
                    growing = None;
                }
                15 | 16 => {
                    // Lengthen one sequence publish after publish, so its
                    // kid list keeps outgrowing its pool region.
                    let n = 1 + rng.below(3);
                    let steps = pick(&a, &mut rng, &order, len, n);
                    match growing {
                        Some(seq) => a.seq_append(seq, &steps),
                        None => {
                            let seq = a.sequence(NonTerminal::from_index(3), ParseState(1), &steps);
                            growing = Some(seq);
                            order.push(seq);
                        }
                    }
                }
                _ => {
                    // Publish first recycles the deferred slots no pin
                    // protects any more; do it here so the counts below
                    // see every slot the publish will patch.
                    a.drain_deferred();
                    let readers = a.live_pins();
                    let dirty = a.snap_dirty_chunks.len() as u64;
                    let touched = dirty_slots(&a);
                    let last_chunk = a.snap_spine.len();
                    let tail = |a: &DagArena| a.snap_spine.last().map_or(0, |c| c.nodes.len());
                    let prev_tail = tail(&a);
                    let (patched, copied) = (a.publish_patched_slots(), a.publish_copied_chunks());
                    let snap = a.publish();
                    let copies = a.publish_copied_chunks() - copied;
                    assert_eq!(a.publish_patched_slots() - patched, touched, "step {step}");
                    assert!(
                        copies <= dirty,
                        "step {step}: copies beyond the dirty chunks"
                    );
                    if readers == 0 {
                        assert_eq!(copies, 0, "step {step}: copied with no reader");
                        in_place += u32::from(touched > 0);
                    }
                    copy_path += u32::from(copies > 0);
                    if a.snap_spine.len() == last_chunk && tail(&a) > prev_tail {
                        grew_partial += 1;
                    }
                    let now = image(&a);
                    assert!(
                        image(&snap) == now,
                        "step {step}: snapshot differs from arena"
                    );
                    for (i, (old, img)) in held.iter().enumerate() {
                        assert!(image(old) == *img, "step {step}: held snapshot {i} changed");
                    }
                    if rng.below(3) == 0 && held.len() < 6 {
                        held.push((snap, now));
                    }
                    if !held.is_empty() && rng.below(4) == 0 {
                        held.swap_remove(rng.below(held.len()));
                    }
                }
            }
        }
        assert!(in_place > 0, "seed {seed}: no in-place publish");
        assert!(copy_path > 0, "seed {seed}: no copy-path publish");
        assert!(grew_partial > 0, "seed {seed}: the last chunk never grew");
    }

    /// A kid list that outgrows its pool region publish after publish
    /// leaves garbage behind; the chunk's pool is rebuilt before garbage
    /// outweighs the live regions, with or without a reader holding the
    /// previous version.
    #[test]
    fn kid_pool_compaction_bounds_chunk_memory() {
        let mut a = DagArena::new();
        let leaves: Vec<NodeId> = (0..64).map(|i| t(&mut a, &format!("l{i}"))).collect();
        let seq = a.sequence(NonTerminal::from_index(1), ParseState(0), &leaves[..1]);
        // A second list that shrinks and regrows in place, so compaction
        // has slack to squeeze out of its region.
        let p = a.production(ProdId::from_index(1), ParseState(0), &leaves[..8]);
        let root = a.root(seq);
        drop(a.publish());
        let mut held: Option<(DagSnapshot, Image)> = None;
        for round in 1..64 {
            a.seq_append(seq, &leaves[round..round + 1]);
            a.set_kids(p, &leaves[..if round % 3 == 0 { 8 } else { 2 }]);
            let snap = a.publish();
            assert!(image(&snap) == image(&a), "round {round}");
            let chunk = &a.snap_spine[0];
            let live = chunk.kid_pool.len() as u32 - chunk.pool_garbage;
            assert!(
                chunk.pool_garbage <= live,
                "round {round}: garbage outweighs live kids"
            );
            if let Some((old, img)) = &held {
                assert!(image(old) == *img, "round {round}: held snapshot changed");
            }
            held = (round % 5 == 0).then(|| {
                let img = image(&snap);
                (snap, img)
            });
        }
        // Without compaction the abandoned regions alone would hold
        // 1 + 2 + … + 62 words by now.
        assert_eq!(DagArena::kids(&a, seq).len(), 64);
        assert!(a.publish_copied_chunks() > 0, "the copy path never ran");
        a.collect_garbage(root);
    }

    #[test]
    fn drain_respects_oldest_pin_stamp() {
        let mut a = DagArena::new();
        let d1 = t(&mut a, "d1");
        let x = t(&mut a, "x");
        let p = a.production(ProdId::from_index(1), ParseState(0), &[x]);
        let root = a.root(p);
        let old = a.publish(); // version 1 saw d1 alive
        a.collect_garbage(root); // d1 deferred at stamp 1
        assert_eq!(a.deferred_free_backlog(), 1);
        let newer = a.publish(); // version 2: d1 already dead
        a.collect_garbage(root);
        assert_eq!(
            a.deferred_free_backlog(),
            1,
            "oldest pin (v1) still blocks the stamp-1 slot"
        );
        drop(old);
        a.collect_garbage(root);
        assert_eq!(
            a.deferred_free_backlog(),
            0,
            "v2 pin does not block a slot that died at stamp 1"
        );
        assert!(
            !newer.is_live(d1),
            "the newer snapshot published it as dead"
        );
        drop(newer);
    }
}
