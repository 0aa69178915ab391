//! The graph-structured parse stack (GSS).
//!
//! The GSS compactly represents the stacks of every live parser: each node
//! carries an LR state; each link points at an earlier node and is labelled
//! with the dag node that was shifted over it. The GSS is *transient* — it
//! lives for one (re)parse and the abstract parse dag is the only persistent
//! output (in contrast to Ferro & Dion, who persist the GSS itself).

use wg_dag::NodeId;
use wg_lrtable::StateId;

/// Index of a GSS node within one parse's [`Gss`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GssIdx(pub u32);

impl GssIdx {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An edge of the GSS: `head` is the node below on the stack, `node` the dag
/// subtree shifted over this edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// The preceding GSS node.
    pub head: GssIdx,
    /// The dag node labelling this edge.
    pub node: NodeId,
}

#[derive(Debug, Clone)]
struct GssNode {
    state: StateId,
    links: Vec<Link>,
}

/// A growable graph-structured stack.
///
/// The stack is transient but its *allocations* need not be: [`Gss::reset`]
/// logically empties the stack while retaining every node slot and its link
/// vector, so a pooled GSS reaches a steady state where repeated reparses
/// allocate nothing ([`Gss::fresh_allocs`] counts slot allocations for
/// regression tests).
#[derive(Debug, Clone, Default)]
pub struct Gss {
    nodes: Vec<GssNode>,
    /// Number of live nodes; slots `live..nodes.len()` are retained spares.
    live: usize,
    fresh: u64,
    /// Pooled scratch for path enumeration: retained across calls so the
    /// reduction hot path never allocates a per-call kid buffer.
    path_buf: Vec<NodeId>,
}

impl Gss {
    /// An empty GSS.
    pub fn new() -> Gss {
        Gss::default()
    }

    /// Logically empties the stack, retaining node slots and link vectors
    /// for reuse by the next run.
    pub fn reset(&mut self) {
        self.live = 0;
    }

    /// Total node-slot allocations performed over the GSS's lifetime
    /// (not reset by [`Gss::reset`]; a pooled GSS stops incrementing this
    /// once warm).
    pub fn fresh_allocs(&self) -> u64 {
        self.fresh
    }

    fn alloc(&mut self, state: StateId, link: Option<Link>) -> GssIdx {
        if self.live < self.nodes.len() {
            let n = &mut self.nodes[self.live];
            n.state = state;
            n.links.clear();
            n.links.extend(link);
        } else {
            self.fresh += 1;
            self.nodes.push(GssNode {
                state,
                links: link.into_iter().collect(),
            });
        }
        self.live += 1;
        GssIdx(self.live as u32 - 1)
    }

    /// Creates a node with `state` and no links (the bottom of a stack).
    pub fn bottom(&mut self, state: StateId) -> GssIdx {
        self.alloc(state, None)
    }

    /// Creates a node with one initial link.
    pub fn push(&mut self, state: StateId, link: Link) -> GssIdx {
        self.alloc(state, Some(link))
    }

    /// The LR state of a node.
    #[inline]
    pub fn state(&self, n: GssIdx) -> StateId {
        self.nodes[n.index()].state
    }

    /// The links of a node.
    #[inline]
    pub fn links(&self, n: GssIdx) -> &[Link] {
        &self.nodes[n.index()].links
    }

    /// Adds a link to an existing node; returns its index within the node.
    pub fn add_link(&mut self, n: GssIdx, link: Link) -> usize {
        self.nodes[n.index()].links.push(link);
        self.nodes[n.index()].links.len() - 1
    }

    /// Whether a direct link `from -> to` exists; returns its position.
    pub fn find_link(&self, from: GssIdx, to: GssIdx) -> Option<usize> {
        self.nodes[from.index()]
            .links
            .iter()
            .position(|l| l.head == to)
    }

    /// Replaces the dag node labelling a link (local-ambiguity packing
    /// upgrades a production-node proxy to a symbol node).
    pub fn relabel_link(&mut self, n: GssIdx, link_pos: usize, node: NodeId) {
        self.nodes[n.index()].links[link_pos].node = node;
    }

    /// Replaces every occurrence of dag node `old` on any link with `new`
    /// (used when a proxy is upgraded after links to it already exist).
    pub fn relabel_all(&mut self, old: NodeId, new: NodeId) {
        for n in &mut self.nodes[..self.live] {
            for l in &mut n.links {
                if l.node == old {
                    l.node = new;
                }
            }
        }
    }

    /// Enumerates all paths of exactly `len` links starting at `from`,
    /// invoking `f(tail, kids)` with the reached node and the dag nodes
    /// along the path in left-to-right (yield) order.
    pub fn for_each_path(
        &mut self,
        from: GssIdx,
        len: usize,
        mut f: impl FnMut(GssIdx, &[NodeId]),
    ) {
        let mut kids = std::mem::take(&mut self.path_buf);
        kids.clear();
        kids.resize(len, NodeId::NONE);
        self.paths_rec(from, len, &mut kids, &mut f);
        self.path_buf = kids;
    }

    fn paths_rec(
        &self,
        at: GssIdx,
        remaining: usize,
        kids: &mut Vec<NodeId>,
        f: &mut impl FnMut(GssIdx, &[NodeId]),
    ) {
        if remaining == 0 {
            f(at, kids);
            return;
        }
        for li in 0..self.nodes[at.index()].links.len() {
            let l = self.nodes[at.index()].links[li];
            kids[remaining - 1] = l.node;
            self.paths_rec(l.head, remaining - 1, kids, f);
        }
    }

    /// Enumerates paths of length `len` from `from` that pass through the
    /// specific `link` as their **first** edge (the appendix's
    /// `do_limited_reductions`, which re-examines only reductions enabled by
    /// a freshly added link).
    pub fn for_each_path_through(
        &mut self,
        _from: GssIdx,
        len: usize,
        link: Link,
        mut f: impl FnMut(GssIdx, &[NodeId]),
    ) {
        if len == 0 {
            return;
        }
        let mut kids = std::mem::take(&mut self.path_buf);
        kids.clear();
        kids.resize(len, NodeId::NONE);
        kids[len - 1] = link.node;
        self.paths_rec(link.head, len - 1, &mut kids, &mut f);
        self.path_buf = kids;
    }

    /// Number of live GSS nodes (a Section 5-style size metric).
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the GSS is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

/// A set of GSS nodes that empties itself when a new round starts: one
/// round stamp per node instead of a hash set, so membership tests,
/// inserts, removals and the per-round clear are each O(1) and hash
/// nothing. The stamp vector grows to the largest GSS seen and is never
/// shrunk, so a pooled set stops allocating once warm.
#[derive(Debug, Clone)]
pub struct RoundSet {
    /// Per-node stamp; a node is a member iff its stamp equals `round`.
    stamps: Vec<u32>,
    /// The current round, never 0 (0 marks a removed or never-seen node).
    round: u32,
}

impl Default for RoundSet {
    fn default() -> RoundSet {
        RoundSet {
            stamps: Vec::new(),
            round: 1,
        }
    }
}

impl RoundSet {
    /// An empty set.
    pub fn new() -> RoundSet {
        RoundSet::default()
    }

    /// Empties the set by starting a new round.
    pub fn clear(&mut self) {
        self.round = self.round.wrapping_add(1);
        if self.round == 0 {
            // Wrapped: stamps from 2^32 rounds ago would read as members.
            self.stamps.fill(0);
            self.round = 1;
        }
    }

    /// Whether `n` is in the set.
    #[inline]
    pub fn contains(&self, n: GssIdx) -> bool {
        self.stamps.get(n.index()) == Some(&self.round)
    }

    /// Adds `n`; returns whether it was absent.
    #[inline]
    pub fn insert(&mut self, n: GssIdx) -> bool {
        let i = n.index();
        if i >= self.stamps.len() {
            self.stamps.resize(i + 1, 0);
        }
        let fresh = self.stamps[i] != self.round;
        self.stamps[i] = self.round;
        fresh
    }

    /// Removes `n` if present.
    #[inline]
    pub fn remove(&mut self, n: GssIdx) {
        if let Some(s) = self.stamps.get_mut(n.index()) {
            *s = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(i: u32) -> NodeId {
        // Test-only: fabricate ids without an arena.
        let mut arena = wg_dag::DagArena::new();
        let mut last = None;
        for k in 0..=i {
            last = Some(arena.terminal(wg_grammar::Terminal::from_index(0), &format!("t{k}")));
        }
        last.unwrap()
    }

    #[test]
    fn push_link_and_query() {
        let mut g = Gss::new();
        let bottom = g.bottom(StateId(0));
        let n1 = g.push(
            StateId(1),
            Link {
                head: bottom,
                node: nid(0),
            },
        );
        assert_eq!(g.state(bottom), StateId(0));
        assert_eq!(g.state(n1), StateId(1));
        assert_eq!(g.links(n1).len(), 1);
        assert_eq!(g.find_link(n1, bottom), Some(0));
        assert_eq!(g.find_link(bottom, n1), None);
        assert_eq!(g.len(), 2);
        assert!(!g.is_empty());
    }

    #[test]
    fn path_enumeration_orders_kids_left_to_right() {
        // bottom <-a- n1 <-b- n2 : path of length 2 from n2 yields [a, b].
        let mut g = Gss::new();
        let bottom = g.bottom(StateId(0));
        let a = nid(0);
        let b = nid(1);
        let n1 = g.push(
            StateId(1),
            Link {
                head: bottom,
                node: a,
            },
        );
        let n2 = g.push(StateId(2), Link { head: n1, node: b });
        let mut seen = Vec::new();
        g.for_each_path(n2, 2, |tail, kids| {
            seen.push((tail, kids.to_vec()));
        });
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].0, bottom);
        assert_eq!(seen[0].1, vec![a, b]);
    }

    #[test]
    fn multiple_paths_are_all_found() {
        // Diamond: n2 has two links to different predecessors.
        let mut g = Gss::new();
        let b1 = g.bottom(StateId(0));
        let b2 = g.bottom(StateId(9));
        let x = nid(0);
        let y = nid(1);
        let n2 = g.push(StateId(2), Link { head: b1, node: x });
        g.add_link(n2, Link { head: b2, node: y });
        let mut tails = Vec::new();
        g.for_each_path(n2, 1, |tail, _| tails.push(tail));
        assert_eq!(tails.len(), 2);
        assert!(tails.contains(&b1) && tails.contains(&b2));
    }

    #[test]
    fn limited_paths_only_use_given_link() {
        let mut g = Gss::new();
        let b1 = g.bottom(StateId(0));
        let b2 = g.bottom(StateId(9));
        let x = nid(0);
        let y = nid(1);
        let n2 = g.push(StateId(2), Link { head: b1, node: x });
        let link2 = Link { head: b2, node: y };
        g.add_link(n2, link2);
        let mut tails = Vec::new();
        g.for_each_path_through(n2, 1, link2, |tail, kids| {
            tails.push((tail, kids[0]));
        });
        assert_eq!(tails, vec![(b2, y)]);
        // Zero-length limited paths do not exist.
        let mut called = false;
        g.for_each_path_through(n2, 0, link2, |_, _| called = true);
        assert!(!called);
    }

    #[test]
    fn relabel_operations() {
        let mut g = Gss::new();
        let bottom = g.bottom(StateId(0));
        let old = nid(0);
        let new = nid(1);
        let n1 = g.push(
            StateId(1),
            Link {
                head: bottom,
                node: old,
            },
        );
        g.relabel_link(n1, 0, new);
        assert_eq!(g.links(n1)[0].node, new);
        let n2 = g.push(
            StateId(2),
            Link {
                head: bottom,
                node: old,
            },
        );
        g.relabel_all(old, new);
        assert_eq!(g.links(n2)[0].node, new);
    }

    #[test]
    fn reset_retains_slots() {
        let mut g = Gss::new();
        let x = nid(0);
        for round in 0..5 {
            g.reset();
            assert!(g.is_empty());
            let bottom = g.bottom(StateId(0));
            let n1 = g.push(
                StateId(1),
                Link {
                    head: bottom,
                    node: x,
                },
            );
            assert_eq!(g.len(), 2);
            assert_eq!(g.links(n1).len(), 1);
            assert_eq!(g.state(bottom), StateId(0));
            if round > 0 {
                assert_eq!(g.fresh_allocs(), 2, "warm rounds allocate no slots");
            }
        }
    }

    #[test]
    fn epsilon_path_is_the_node_itself() {
        let mut g = Gss::new();
        let bottom = g.bottom(StateId(0));
        let mut seen = Vec::new();
        g.for_each_path(bottom, 0, |tail, kids| {
            seen.push((tail, kids.len()));
        });
        assert_eq!(seen, vec![(bottom, 0)]);
    }
    #[test]
    fn round_set_empties_per_round() {
        let mut q = RoundSet::new();
        let (a, b) = (GssIdx(0), GssIdx(7));
        assert!(!q.contains(b), "unseen nodes are not members");
        assert!(q.insert(a));
        assert!(!q.insert(a), "second insert is a no-op");
        assert!(q.insert(b));
        q.remove(a);
        assert!(!q.contains(a) && q.contains(b));
        q.clear();
        assert!(!q.contains(a) && !q.contains(b), "a new round starts empty");
        assert!(q.insert(a));
    }

    #[test]
    fn round_set_survives_stamp_wraparound() {
        let mut q = RoundSet::new();
        let a = GssIdx(3);
        q.round = u32::MAX;
        q.insert(a);
        q.clear();
        assert_eq!(q.round, 1, "round 0 is reserved");
        assert!(!q.contains(a));
        q.insert(a);
        q.clear();
        assert!(!q.contains(a));
    }
}
