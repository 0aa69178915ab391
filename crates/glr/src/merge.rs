//! Per-round merge tables (Appendix A's `nodes` and `symbolnodes`) and the
//! reduction-node builder of the GLR parser.
//!
//! The merge tables implement the dag's *optimal sharing* (Section 3.5):
//!
//! * `get_node` — one dag node per (production, kids) instance, correcting
//!   the **under-sharing** of plain Tomita parsing (isomorphic subtrees
//!   created by different parsers due to context differences).
//! * `get_symbol_node` — one choice point per (phylum, yield), with lazy
//!   instantiation: a lone interpretation is its own proxy and a real
//!   symbol node appears only when a second interpretation shows up.
//!   [`MergeTables::pack`] does the packing, here and for a reduction
//!   that re-derives an existing GSS link.
//!
//! Both tables are scoped to a single shift round, because reductions in one
//! round all produce subtrees with a common right edge.
//!
//! The production table is a hand-rolled open-addressed map: keys are
//! `(production, kids)` where the kid list lives in a pooled slab, so
//! neither lookups nor inserts allocate a `Vec` key once the table is warm.
//! [`MergeTables::clear`] retains every allocation for the next round and
//! skips a table nobody touched.

use wg_dag::{fx_hash, DagArena, FxHashMap, NodeId, NodeKind, ParseState};
use wg_grammar::{Grammar, NonTerminal, ProdId, ProdKind};

/// One slot of the open-addressed production table. The key's kid list is
/// `key_slab[off..off + len]`; an empty slot has `node == NodeId::NONE`.
#[derive(Debug, Clone, Copy)]
struct Entry {
    hash: u64,
    prod: ProdId,
    off: u32,
    len: u32,
    node: NodeId,
}

const EMPTY: Entry = Entry {
    hash: 0,
    prod: ProdId::AUGMENTED,
    off: 0,
    len: 0,
    node: NodeId::NONE,
};

fn key_hash(prod: ProdId, kids: &[NodeId]) -> u64 {
    fx_hash((prod, kids))
}

/// The round-scoped sharing tables.
#[derive(Debug, Default)]
pub struct MergeTables {
    /// Open-addressed (production, kids) -> production node table. Capacity
    /// is a power of two; linear probing.
    entries: Vec<Entry>,
    /// Occupied slots in `entries`.
    len: usize,
    /// Backing store for entry keys; truncated (capacity retained) per round.
    key_slab: Vec<NodeId>,
    /// Pooled scratch for proxy upgrades.
    upgrade_buf: Vec<Entry>,
    /// Lifetime probe-step count (perf counter; never reset).
    probes: u64,
    /// Lifetime heap growths of the table or its key slab (never reset; a
    /// warm table stops incrementing this — regression tests assert so).
    key_allocs: u64,
    /// (symbol, yield-width) -> proxy or symbol node. All subtrees built in
    /// one round share their right edge, so width identifies the cover.
    symbols: FxHashMap<(NonTerminal, u32), NodeId>,
}

impl MergeTables {
    /// Fresh tables for a new shift round.
    pub fn new() -> MergeTables {
        MergeTables::default()
    }

    /// Clears both tables (start of each round), retaining allocations. A
    /// round that never touched the tables (every reduction took the
    /// deterministic fast path) costs O(1) here, not a walk of the whole
    /// entry array.
    pub fn clear(&mut self) {
        if self.len != 0 {
            for e in &mut self.entries {
                e.node = NodeId::NONE;
            }
            self.len = 0;
            self.key_slab.clear();
        }
        if !self.symbols.is_empty() {
            self.symbols.clear();
        }
    }

    /// Probe steps taken over this table's lifetime (a Section 5-style cost
    /// counter for the sharing machinery).
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Heap allocations taken by the table or its key slab over its
    /// lifetime. Stops growing once the pool is warm.
    pub fn key_allocs(&self) -> u64 {
        self.key_allocs
    }

    fn lookup(&mut self, hash: u64, prod: ProdId, kids: &[NodeId]) -> Option<NodeId> {
        if self.entries.is_empty() {
            return None;
        }
        let mask = self.entries.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let e = self.entries[i];
            self.probes += 1;
            if e.node == NodeId::NONE {
                return None;
            }
            let (off, len) = (e.off as usize, e.len as usize);
            if e.hash == hash
                && e.prod == prod
                && len == kids.len()
                && self.key_slab[off..off + len] == *kids
            {
                return Some(e.node);
            }
            i = (i + 1) & mask;
        }
    }

    /// Ensures a free slot exists below the 7/8 load ceiling.
    fn reserve_one(&mut self) {
        if self.entries.is_empty() || (self.len + 1) * 8 > self.entries.len() * 7 {
            let new_cap = (self.entries.len() * 2).max(16);
            self.key_allocs += 1;
            let old = std::mem::replace(&mut self.entries, vec![EMPTY; new_cap]);
            self.len = 0;
            for e in old {
                if e.node != NodeId::NONE {
                    self.insert_raw(e);
                }
            }
        }
    }

    fn insert_raw(&mut self, e: Entry) {
        let mask = self.entries.len() - 1;
        let mut i = (e.hash as usize) & mask;
        while self.entries[i].node != NodeId::NONE {
            self.probes += 1;
            i = (i + 1) & mask;
        }
        self.entries[i] = e;
        self.len += 1;
    }

    fn insert(&mut self, hash: u64, prod: ProdId, kids: &[NodeId], node: NodeId) {
        self.reserve_one();
        if self.key_slab.len() + kids.len() > self.key_slab.capacity() {
            self.key_allocs += 1;
        }
        let off = self.key_slab.len() as u32;
        self.key_slab.extend_from_slice(kids);
        self.insert_raw(Entry {
            hash,
            prod,
            off,
            len: kids.len() as u32,
            node,
        });
    }

    /// Appendix A's `get_node`: returns the existing node for this exact
    /// (production, kids) instance or creates one, recording the preceding
    /// state (or the multistate sentinel while several parsers run).
    pub fn get_node(
        &mut self,
        arena: &mut DagArena,
        g: &Grammar,
        prod: ProdId,
        kids: &[NodeId],
        preceding: ParseState,
        multi: bool,
    ) -> NodeId {
        let hash = key_hash(prod, kids);
        if let Some(n) = self.lookup(hash, prod, kids) {
            return n;
        }
        let n = build_reduction_node(arena, g, prod, kids, preceding, multi);
        self.insert(hash, prod, kids, n);
        n
    }

    /// Rewrites every intra-round reference to an upgraded proxy: dag nodes
    /// built this round that hold `old` as a kid now hold `sym`, and the
    /// node table is rekeyed accordingly. (GSS links are the caller's job.)
    /// Without this, a reduction performed *before* the second
    /// interpretation arrived would keep pointing at the lone proxy and a
    /// derivation would silently be lost.
    ///
    /// Only entries whose key actually contains `old` are touched: their key
    /// slices are patched in the slab and re-inserted under the new hash.
    /// The stale slot keeps its old hash so other probe chains stay intact;
    /// it can no longer match (its stored hash belongs to a key that no
    /// longer exists) and dies at the next round's [`MergeTables::clear`].
    fn upgrade_proxy(&mut self, arena: &mut DagArena, old: NodeId, sym: NodeId) {
        if self.entries.is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut self.upgrade_buf);
        pending.clear();
        for i in 0..self.entries.len() {
            let e = self.entries[i];
            if e.node == NodeId::NONE {
                continue;
            }
            let range = e.off as usize..(e.off + e.len) as usize;
            if !self.key_slab[range.clone()].contains(&old) {
                continue;
            }
            for slot in &mut self.key_slab[range.clone()] {
                if *slot == old {
                    *slot = sym;
                }
            }
            if e.node != old {
                // Keep the symbol node out of its own alternative list.
                arena.replace_kid(e.node, old, sym);
            }
            pending.push(Entry {
                hash: key_hash(e.prod, &self.key_slab[range]),
                ..e
            });
        }
        for e in pending.drain(..) {
            self.reserve_one();
            self.insert_raw(e);
        }
        self.upgrade_buf = pending;
    }

    /// Appendix A's `get_symbolnode` with lazy instantiation: returns the
    /// node to label a GSS link with. The first interpretation of a
    /// (symbol, cover) is its own proxy; a later one is packed with it by
    /// [`MergeTables::pack`].
    pub fn get_symbol_node(
        &mut self,
        arena: &mut DagArena,
        symbol: NonTerminal,
        node: NodeId,
    ) -> (NodeId, Option<NodeId>) {
        let key = (symbol, arena.width(node));
        match self.symbols.get(&key).copied() {
            None => {
                self.symbols.insert(key, node);
                (node, None)
            }
            Some(existing) => self.pack(arena, symbol, existing, node),
        }
    }

    /// Local ambiguity packing: adds `node` as an interpretation beside
    /// `existing` (a proxy or a symbol node of the same symbol and cover)
    /// and returns the node that now stands for both. A proxy is upgraded
    /// to a real symbol node, recorded for the round and patched into every
    /// node this round built over it; `replaced` reports the proxy so the
    /// caller can relabel GSS links pointing at it. A structurally
    /// identical re-derivation (a previous round's node, fresh ε instances
    /// from a different round) is not packed as spurious ambiguity.
    pub fn pack(
        &mut self,
        arena: &mut DagArena,
        symbol: NonTerminal,
        existing: NodeId,
        node: NodeId,
    ) -> (NodeId, Option<NodeId>) {
        if same_structure(arena, existing, node) {
            return (existing, None);
        }
        if matches!(arena.kind(existing), NodeKind::Symbol { .. }) {
            if !arena
                .kids(existing)
                .iter()
                .any(|&alt| same_structure(arena, alt, node))
            {
                arena.add_choice(existing, node);
            }
            return (existing, None);
        }
        let sym = arena.symbol(symbol, existing);
        arena.add_choice(sym, node);
        self.symbols.insert((symbol, arena.width(sym)), sym);
        self.upgrade_proxy(arena, existing, sym);
        (sym, Some(existing))
    }
}

/// Structural node equality: identical ids, or production nodes of the
/// same rule with structurally equal kids. Distinct symbol/terminal nodes
/// never compare equal (conservative — may miss a dedup, never invents
/// one).
fn same_structure(arena: &DagArena, a: NodeId, b: NodeId) -> bool {
    let mut memo = FxHashMap::default();
    same_structure_memo(arena, a, b, &mut memo)
}

/// [`same_structure`] with pairwise memoization. Production spines share
/// subtrees heavily, so the naive recursion revisits the same
/// distinct-but-equal pair exponentially often on ambiguous forests; the
/// memo makes one comparison linear in the number of reachable node
/// pairs. The memo is per top-level call because proxy upgrades mutate
/// nodes in place between reductions.
fn same_structure_memo(
    arena: &DagArena,
    a: NodeId,
    b: NodeId,
    memo: &mut FxHashMap<(NodeId, NodeId), bool>,
) -> bool {
    if a == b {
        return true;
    }
    if let Some(&hit) = memo.get(&(a, b)) {
        return hit;
    }
    let eq = match (arena.kind(a), arena.kind(b)) {
        (NodeKind::Production { prod: pa }, NodeKind::Production { prod: pb }) if pa == pb => {
            let (ka, kb) = (arena.kids(a), arena.kids(b));
            ka.len() == kb.len()
                && ka
                    .iter()
                    .zip(kb)
                    .all(|(&x, &y)| same_structure_memo(arena, x, y, memo))
        }
        _ => false,
    };
    memo.insert((a, b), eq);
    eq
}

/// Builds the dag node for a reduction, choosing the physical
/// representation:
///
/// * ordinary productions (and anything built non-deterministically) become
///   [`NodeKind::Production`] nodes;
/// * declared sequence productions build or extend
///   [`NodeKind::Sequence`] containers, accumulating in place when the open
///   sequence was created in the current epoch (so batch parsing is linear)
///   and wrapping reused prefixes otherwise (so incremental parsing can
///   splice in O(1)).
pub fn build_reduction_node(
    arena: &mut DagArena,
    g: &Grammar,
    prod: ProdId,
    kids: &[NodeId],
    preceding: ParseState,
    multi: bool,
) -> NodeId {
    let state = if multi { ParseState::MULTI } else { preceding };
    let p = g.production(prod);
    if multi || p.kind() == ProdKind::Normal {
        // Explicit node retention (paper ref. 25): re-deriving an identical instance
        // hands back the previous version's node.
        if let Some(old) = arena.try_reuse_production(prod, kids, state) {
            return old;
        }
        return arena.production(prod, state, kids);
    }
    let lhs = p.lhs();
    match p.kind() {
        ProdKind::SeqEmpty => arena.sequence(lhs, state, kids),
        ProdKind::SeqBase => arena.sequence(lhs, state, kids),
        ProdKind::SeqCons => {
            let left = kids[0];
            let is_open_sequence = matches!(arena.kind(left), NodeKind::Sequence { symbol } if *symbol == lhs)
                && arena.is_current_epoch(left);
            if is_open_sequence {
                arena.seq_append(left, &kids[1..]);
                left
            } else {
                // Reused prefix (or non-sequence fallback structure): nest it.
                arena.sequence(lhs, arena.state(left), kids)
            }
        }
        ProdKind::Normal => unreachable!("handled above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_grammar::{GrammarBuilder, SeqKind, Symbol, Terminal};

    fn seq_grammar() -> Grammar {
        let mut b = GrammarBuilder::new("g");
        let item = b.terminal("item");
        let l = b.nonterminal("L");
        b.sequence(l, Symbol::T(item), SeqKind::Plus, None);
        b.start(l);
        b.build().unwrap()
    }

    fn normal_grammar() -> Grammar {
        let mut b = GrammarBuilder::new("g");
        let x = b.terminal("x");
        let s = b.nonterminal("S");
        b.prod(s, vec![Symbol::T(x)]);
        b.prod(s, vec![Symbol::T(x), Symbol::T(x)]);
        b.start(s);
        b.build().unwrap()
    }

    #[test]
    fn get_node_shares_identical_instances() {
        let g = normal_grammar();
        let mut arena = DagArena::new();
        let mut mt = MergeTables::new();
        let x = arena.terminal(Terminal::from_index(1), "x");
        let p = ProdId::from_index(1);
        let n1 = mt.get_node(&mut arena, &g, p, &[x], ParseState(1), true);
        let n2 = mt.get_node(&mut arena, &g, p, &[x], ParseState(2), true);
        assert_eq!(n1, n2, "same production over same kids is one node");
        let other = ProdId::from_index(2);
        let y = arena.terminal(Terminal::from_index(1), "x");
        let n3 = mt.get_node(&mut arena, &g, other, &[x, y], ParseState(1), true);
        assert_ne!(n1, n3);
        mt.clear();
        let n4 = mt.get_node(&mut arena, &g, p, &[x], ParseState(1), true);
        assert_ne!(n1, n4, "tables are round-scoped");
    }

    #[test]
    fn warm_tables_stop_allocating() {
        let g = normal_grammar();
        let mut arena = DagArena::new();
        let mut mt = MergeTables::new();
        // Warm up: a few rounds of inserts, then clear.
        for _ in 0..3 {
            for i in 0u32..12 {
                let x = arena.terminal(Terminal::from_index(1), "x");
                let y = arena.terminal(Terminal::from_index(1), "x");
                let _ = mt.get_node(
                    &mut arena,
                    &g,
                    ProdId::from_index(1 + i as usize % 2),
                    &[x, y],
                    ParseState(i),
                    true,
                );
            }
            mt.clear();
        }
        let allocs = mt.key_allocs();
        for round in 0u32..5 {
            for i in 0usize..12 {
                let x = arena.terminal(Terminal::from_index(1), "x");
                let y = arena.terminal(Terminal::from_index(1), "x");
                let _ = mt.get_node(
                    &mut arena,
                    &g,
                    ProdId::from_index(1 + i % 2),
                    &[x, y],
                    ParseState(round),
                    true,
                );
            }
            mt.clear();
        }
        assert_eq!(mt.key_allocs(), allocs, "warm rounds must not allocate");
        assert!(mt.probes() > 0, "probe counter advances");
    }

    #[test]
    fn multi_records_multistate() {
        let g = normal_grammar();
        let mut arena = DagArena::new();
        let mut mt = MergeTables::new();
        let x = arena.terminal(Terminal::from_index(1), "x");
        let n = mt.get_node(
            &mut arena,
            &g,
            ProdId::from_index(1),
            &[x],
            ParseState(5),
            true,
        );
        assert_eq!(arena.state(n), ParseState::MULTI);
        mt.clear();
        let y = arena.terminal(Terminal::from_index(1), "x");
        let n2 = mt.get_node(
            &mut arena,
            &g,
            ProdId::from_index(1),
            &[y],
            ParseState(5),
            false,
        );
        assert_eq!(arena.state(n2), ParseState(5));
    }

    #[test]
    fn symbol_node_lazy_instantiation() {
        let g = normal_grammar();
        let s = g.nonterminal_by_name("S").unwrap();
        let mut arena = DagArena::new();
        let mut mt = MergeTables::new();
        let x = arena.terminal(Terminal::from_index(1), "x");
        let p1 = arena.production(ProdId::from_index(1), ParseState::MULTI, &[x]);
        // First interpretation: proxy, no symbol node created.
        let (r1, replaced) = mt.get_symbol_node(&mut arena, s, p1);
        assert_eq!(r1, p1);
        assert!(replaced.is_none());
        // Second interpretation with the same cover: packed.
        let p2 = arena.production(ProdId::from_index(2), ParseState::MULTI, &[x]);
        // Give p2 the same width by construction (both cover one token).
        let (r2, replaced) = mt.get_symbol_node(&mut arena, s, p2);
        assert_ne!(r2, p2);
        assert!(matches!(arena.kind(r2), NodeKind::Symbol { .. }));
        assert_eq!(replaced, Some(p1), "proxy upgraded");
        assert_eq!(arena.kids(r2), &[p1, p2]);
        // Third interpretation joins the existing symbol node.
        let y = arena.terminal(Terminal::from_index(1), "x");
        let p3 = arena.production(ProdId::from_index(1), ParseState::MULTI, &[y]);
        let (r3, replaced) = mt.get_symbol_node(&mut arena, s, p3);
        assert_eq!(r3, r2);
        assert!(replaced.is_none());
        assert_eq!(arena.kids(r2).len(), 3);
    }

    #[test]
    fn upgrade_proxy_rekeys_only_affected_entries() {
        let g = normal_grammar();
        let s = g.nonterminal_by_name("S").unwrap();
        let mut arena = DagArena::new();
        let mut mt = MergeTables::new();
        let x = arena.terminal(Terminal::from_index(1), "x");
        // A proxy interpretation, and a parent reduction built over it.
        let proxy = arena.production(ProdId::from_index(1), ParseState::MULTI, &[x]);
        let parent = mt.get_node(
            &mut arena,
            &g,
            ProdId::from_index(2),
            &[proxy, x],
            ParseState(3),
            true,
        );
        // An unrelated entry that must survive untouched.
        let z = arena.terminal(Terminal::from_index(1), "x");
        let other = mt.get_node(
            &mut arena,
            &g,
            ProdId::from_index(2),
            &[z, z],
            ParseState(3),
            true,
        );
        mt.get_symbol_node(&mut arena, s, proxy);
        // A second interpretation arrives: the proxy upgrades.
        let p2 = arena.production(ProdId::from_index(1), ParseState::MULTI, &[z]);
        let (sym, replaced) = mt.get_symbol_node(&mut arena, s, p2);
        assert_eq!(replaced, Some(proxy));
        // The parent's kids were patched in the dag...
        assert_eq!(arena.kids(parent), &[sym, x]);
        // ...and the table finds the parent under its upgraded key while the
        // unrelated entry still resolves.
        let again = mt.get_node(
            &mut arena,
            &g,
            ProdId::from_index(2),
            &[sym, x],
            ParseState(3),
            true,
        );
        assert_eq!(again, parent, "rekeyed entry is shared, not rebuilt");
        let other2 = mt.get_node(
            &mut arena,
            &g,
            ProdId::from_index(2),
            &[z, z],
            ParseState(3),
            true,
        );
        assert_eq!(other2, other);
    }

    #[test]
    fn sequence_reductions_accumulate_in_place() {
        let g = seq_grammar();
        let l = g.nonterminal_by_name("L").unwrap();
        let prods: Vec<ProdId> = g.productions_for(l).collect();
        let (base, cons) = (prods[0], prods[1]);
        let mut arena = DagArena::new();
        let item = |a: &mut DagArena| a.terminal(Terminal::from_index(1), "item");
        let e1 = item(&mut arena);
        let seq = build_reduction_node(&mut arena, &g, base, &[e1], ParseState(0), false);
        assert!(matches!(arena.kind(seq), NodeKind::Sequence { .. }));
        let e2 = item(&mut arena);
        let seq2 = build_reduction_node(&mut arena, &g, cons, &[seq, e2], ParseState(0), false);
        assert_eq!(seq, seq2, "in-place accumulation");
        assert_eq!(arena.kids(seq).len(), 2);
        assert_eq!(arena.width(seq), 2);
    }

    #[test]
    fn sequence_reuses_prior_epoch_prefix_by_nesting() {
        let g = seq_grammar();
        let l = g.nonterminal_by_name("L").unwrap();
        let prods: Vec<ProdId> = g.productions_for(l).collect();
        let cons = prods[1];
        let mut arena = DagArena::new();
        let e1 = arena.terminal(Terminal::from_index(1), "item");
        let old_seq = arena.sequence(l, ParseState(0), &[e1]);
        arena.begin_epoch();
        let e2 = arena.terminal(Terminal::from_index(1), "item");
        let seq2 = build_reduction_node(&mut arena, &g, cons, &[old_seq, e2], ParseState(0), false);
        assert_ne!(seq2, old_seq, "old prefix must not be mutated");
        assert_eq!(arena.kids(seq2), &[old_seq, e2]);
        assert_eq!(arena.width(seq2), 2);
    }

    #[test]
    fn multistate_sequences_fall_back_to_productions() {
        let g = seq_grammar();
        let l = g.nonterminal_by_name("L").unwrap();
        let base = g.productions_for(l).next().unwrap();
        let mut arena = DagArena::new();
        let e1 = arena.terminal(Terminal::from_index(1), "item");
        let n = build_reduction_node(&mut arena, &g, base, &[e1], ParseState(0), true);
        assert!(matches!(arena.kind(n), NodeKind::Production { .. }));
        assert_eq!(arena.state(n), ParseState::MULTI);
    }
}
