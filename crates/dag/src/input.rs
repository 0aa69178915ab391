//! The incremental parser's input stream: a lazy, destructuring traversal of
//! the previous version of the parse dag (Appendix A's `pop_lookahead` /
//! `left_breakdown`).
//!
//! The stream's items are whole subtrees of the prior tree, interleaved with
//! fresh terminal nodes spliced in by the incremental lexer. Subtrees whose
//! yield (or trailing lookahead) was modified are decomposed on the way in;
//! the parsers decompose further when state-matching fails or the parse
//! turns non-deterministic.

use crate::arena::DagArena;
use crate::node::{NodeId, NodeKind};
use wg_grammar::fx::FxHashMap;

/// A lazy input stream over the previous tree version.
#[derive(Debug, Clone)]
pub struct InputStream {
    /// Pending subtrees; the top of the stack is the current lookahead.
    stack: Vec<NodeId>,
    /// Relex results: modified terminal → replacement terminals (possibly
    /// empty for deletions). Fresh insertions ride on the neighbouring
    /// modified terminal.
    replacements: FxHashMap<NodeId, Vec<NodeId>>,
}

impl InputStream {
    /// A stream over the previous tree's body and EOS sentinel. `root` must
    /// be a [`NodeKind::Root`].
    pub fn over_tree(
        arena: &DagArena,
        root: NodeId,
        replacements: FxHashMap<NodeId, Vec<NodeId>>,
    ) -> InputStream {
        assert!(matches!(arena.kind(root), NodeKind::Root));
        let kids = arena.kids(root);
        let mut stream = InputStream {
            // Reverse order: eos deepest, body on top (bos is skipped).
            stack: vec![kids[2], kids[1]],
            replacements,
        };
        stream.normalize(arena);
        stream
    }

    /// A stream over fresh terminals only (initial parse): the terminals
    /// followed by `eos`.
    pub fn over_terminals(arena: &DagArena, terminals: &[NodeId], eos: NodeId) -> InputStream {
        debug_assert!(matches!(arena.kind(eos), NodeKind::Eos));
        let mut stack = vec![eos];
        stack.extend(terminals.iter().rev());
        InputStream {
            stack,
            replacements: FxHashMap::default(),
        }
    }

    /// The current lookahead subtree, or `None` when exhausted.
    #[inline]
    pub fn la(&self) -> Option<NodeId> {
        self.stack.last().copied()
    }

    /// Consumes the current lookahead (it was shifted whole).
    pub fn pop(&mut self, arena: &DagArena) {
        self.stack.pop();
        self.normalize(arena);
    }

    /// Decomposes the current lookahead one level: replaces it by its
    /// children (Appendix A's `left_breakdown`). Terminals are atomic: a
    /// terminal lookahead is left in place. Returns the new lookahead.
    pub fn left_breakdown(&mut self, arena: &DagArena) -> Option<NodeId> {
        if let Some(&top) = self.stack.last() {
            if !arena.kind(top).is_terminal() {
                self.stack.pop();
                self.push_children(arena, top);
                self.normalize(arena);
            }
        }
        self.la()
    }

    /// Pushes a node's children in reverse. Choice nodes contribute only
    /// their first interpretation: the alternatives cover the same yield,
    /// and the re-parse of a decomposed ambiguous region rediscovers every
    /// interpretation from the terminals.
    fn push_children(&mut self, arena: &DagArena, node: NodeId) {
        if matches!(arena.kind(node), NodeKind::Symbol { .. }) {
            if let Some(&first) = arena.kids(node).first() {
                self.stack.push(first);
            }
        } else {
            let kids = arena.kids(node);
            self.stack.extend(kids.iter().rev());
        }
    }

    /// Establishes the stream invariant: the lookahead is never a modified
    /// terminal (replacements are spliced in), never a subtree with changes
    /// in its yield (decomposed to expose the edit site), and never a BOS
    /// sentinel.
    fn normalize(&mut self, arena: &DagArena) {
        while let Some(&top) = self.stack.last() {
            match arena.kind(top) {
                NodeKind::Bos => {
                    self.stack.pop();
                }
                NodeKind::Terminal { .. } if self.replacements.contains_key(&top) => {
                    self.stack.pop();
                    let reps = &self.replacements[&top];
                    self.stack.extend(reps.iter().rev());
                }
                NodeKind::Terminal { .. } | NodeKind::Eos => break,
                _ if arena.has_changes(top) => {
                    self.stack.pop();
                    self.push_children(arena, top);
                }
                _ => break,
            }
        }
    }

    /// Number of pending items (diagnostics).
    pub fn pending(&self) -> usize {
        self.stack.len()
    }

    /// Debug view of the pending stack, top first (diagnostics).
    pub fn debug_stack(&self, arena: &DagArena) -> String {
        self.stack
            .iter()
            .rev()
            .map(|&n| format!("{:?}#{:?}w{}", arena.kind(n), n, arena.width(n)))
            .collect::<Vec<_>>()
            .join(" | ")
    }

    /// The terminal the next shift will ultimately consume — the paper's
    /// `redLa` when a non-trivial subtree is the lookahead: reductions index
    /// the parse table with the leading terminal of the upcoming input,
    /// computed on the effective (post-replacement) stream. Null-yield
    /// items are skipped; end of stream maps to EOF.
    pub fn reduction_terminal(&self, arena: &DagArena) -> wg_grammar::Terminal {
        for &item in self.stack.iter().rev() {
            // Unchanged subtrees with deterministic states have a valid
            // cached leading terminal: their parent chains are unique, so a
            // replaced leading token always marks them changed. Inside
            // non-deterministic regions terminals are shared between
            // alternatives and only one parent chain gets marked, so those
            // (small) regions take the exact recursive scan below.
            if !arena.has_changes(item) {
                match arena.kind(item) {
                    NodeKind::Eos => return wg_grammar::Terminal::EOF,
                    NodeKind::Bos => continue,
                    NodeKind::Terminal { term, .. }
                        if self.replacements.is_empty()
                            || !self.replacements.contains_key(&item) =>
                    {
                        return *term;
                    }
                    _ if arena.width(item) > 0
                        && !arena.kind(item).is_terminal()
                        && (arena.state(item).is_deterministic()
                            || self.replacements.is_empty()) =>
                    {
                        return arena.node(item).leftmost();
                    }
                    _ => {}
                }
            }
            if let Some(t) = self.leftmost_effective(arena, item) {
                return t;
            }
        }
        wg_grammar::Terminal::EOF
    }

    /// Leftmost terminal of the *effective* content of `node`: replaced
    /// terminals contribute their replacements (a deleted token contributes
    /// nothing), so reductions never consult stale text.
    fn leftmost_effective(&self, arena: &DagArena, node: NodeId) -> Option<wg_grammar::Terminal> {
        match arena.kind(node) {
            NodeKind::Terminal { term, .. } => match self.replacements.get(&node) {
                None => Some(*term),
                Some(reps) => reps.iter().find_map(|&r| self.leftmost_effective(arena, r)),
            },
            NodeKind::Eos => Some(wg_grammar::Terminal::EOF),
            NodeKind::Bos => None,
            NodeKind::Symbol { .. } => arena
                .kids(node)
                .first()
                .and_then(|&k| self.leftmost_effective(arena, k)),
            _ => arena
                .kids(node)
                .iter()
                .find_map(|&k| self.leftmost_effective(arena, k)),
        }
    }

    /// Splices extra terminals immediately before the EOS sentinel (used
    /// when text is appended at the very end of the document).
    pub fn append_before_eos(&mut self, arena: &DagArena, nodes: &[NodeId]) {
        // The EOS is the deepest stack entry.
        if !nodes.is_empty() {
            debug_assert!(self
                .stack
                .first()
                .is_some_and(|&b| matches!(arena.kind(b), NodeKind::Eos)));
            let mut new_stack = Vec::with_capacity(self.stack.len() + nodes.len());
            new_stack.push(self.stack[0]);
            new_stack.extend(nodes.iter().rev());
            new_stack.extend_from_slice(&self.stack[1..]);
            self.stack = new_stack;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::ParseState;
    use wg_grammar::{ProdId, Terminal};

    /// root(P(a, Q(b, c), d)) — a small tree to stream over.
    fn sample() -> (DagArena, NodeId, Vec<NodeId>) {
        let mut a = DagArena::new();
        let ta = a.terminal(Terminal::from_index(1), "a");
        let tb = a.terminal(Terminal::from_index(1), "b");
        let tc = a.terminal(Terminal::from_index(1), "c");
        let q = a.production(ProdId::from_index(2), ParseState(1), &[tb, tc]);
        let td = a.terminal(Terminal::from_index(1), "d");
        let p = a.production(ProdId::from_index(1), ParseState(0), &[ta, q, td]);
        let root = a.root(p);
        (a, root, vec![ta, tb, tc, td, q, p])
    }

    #[test]
    fn unchanged_tree_streams_body_then_eos() {
        let (a, root, ids) = sample();
        let p = ids[5];
        let mut s = InputStream::over_tree(&a, root, FxHashMap::default());
        assert_eq!(s.la(), Some(p), "whole body offered as one subtree");
        s.pop(&a);
        assert!(matches!(a.kind(s.la().unwrap()), NodeKind::Eos));
        s.pop(&a);
        assert_eq!(s.la(), None);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn breakdown_exposes_children_left_to_right() {
        let (a, root, ids) = sample();
        let (ta, q, td) = (ids[0], ids[4], ids[5 - 2]);
        let _ = td;
        let mut s = InputStream::over_tree(&a, root, FxHashMap::default());
        let la = s.left_breakdown(&a);
        assert_eq!(la, Some(ta));
        s.pop(&a);
        assert_eq!(s.la(), Some(q), "middle subtree stays whole");
        // Terminals are atomic under breakdown.
        s.pop(&a);
        let td = s.la().unwrap();
        assert_eq!(s.left_breakdown(&a), Some(td));
    }

    #[test]
    fn changed_subtrees_are_decomposed_on_entry() {
        let (mut a, root, ids) = sample();
        let (ta, tb, tc, q) = (ids[0], ids[1], ids[2], ids[4]);
        // Modify b: the path root->P->Q->b is marked; entry normalization
        // must break P and Q down but splice b's replacement.
        let nb = a.terminal(Terminal::from_index(1), "B");
        a.mark_changed(tb);
        let mut reps = FxHashMap::default();
        reps.insert(tb, vec![nb]);
        let mut s = InputStream::over_tree(&a, root, reps);
        assert_eq!(s.la(), Some(ta), "unchanged leading terminal");
        s.pop(&a);
        assert_eq!(s.la(), Some(nb), "replacement spliced in place of b");
        assert_ne!(s.la(), Some(q), "changed Q must not be offered whole");
        s.pop(&a);
        assert_eq!(s.la(), Some(tc), "unchanged sibling survives");
    }

    #[test]
    fn deletion_splices_empty_replacement() {
        let (mut a, root, ids) = sample();
        let (ta, tb, tc) = (ids[0], ids[1], ids[2]);
        a.mark_changed(tb);
        let mut reps = FxHashMap::default();
        reps.insert(tb, vec![]);
        let mut s = InputStream::over_tree(&a, root, reps);
        assert_eq!(s.la(), Some(ta));
        s.pop(&a);
        assert_eq!(s.la(), Some(tc), "deleted terminal vanished from stream");
    }

    #[test]
    fn insertion_rides_on_neighbouring_terminal() {
        let (mut a, root, ids) = sample();
        let tb = ids[1];
        let n1 = a.terminal(Terminal::from_index(1), "x");
        let n2 = a.terminal(Terminal::from_index(1), "y");
        a.mark_changed(tb);
        let mut reps = FxHashMap::default();
        reps.insert(tb, vec![n1, n2]);
        let mut s = InputStream::over_tree(&a, root, reps);
        s.pop(&a); // a
        assert_eq!(s.la(), Some(n1));
        s.pop(&a);
        assert_eq!(s.la(), Some(n2));
    }

    #[test]
    fn over_terminals_streams_in_order() {
        let mut a = DagArena::new();
        let t1 = a.terminal(Terminal::from_index(1), "1");
        let t2 = a.terminal(Terminal::from_index(1), "2");
        // Borrow an EOS by building a root over a dummy.
        let root = a.root(t1);
        let eos = a.kids(root)[2];
        let mut s = InputStream::over_terminals(&a, &[t1, t2], eos);
        assert_eq!(s.la(), Some(t1));
        s.pop(&a);
        assert_eq!(s.la(), Some(t2));
        s.pop(&a);
        assert_eq!(s.la(), Some(eos));
    }

    #[test]
    fn reduction_terminal_peeks_leading_token() {
        let (a, root, ids) = sample();
        let mut s = InputStream::over_tree(&a, root, FxHashMap::default());
        // Whole body: leading terminal is 'a' (index 1 terminal).
        assert_eq!(s.reduction_terminal(&a), Terminal::from_index(1));
        s.pop(&a); // consume body; Eos remains
        assert_eq!(s.reduction_terminal(&a), Terminal::EOF);
        let _ = ids;
    }

    #[test]
    fn reduction_terminal_skips_null_yield_items() {
        let mut a = DagArena::new();
        let eps = a.production(ProdId::from_index(9), ParseState(1), &[]);
        let tx = a.terminal(Terminal::from_index(3), "x");
        let p = a.production(ProdId::from_index(1), ParseState(0), &[eps, tx]);
        let root = a.root(p);
        let mut s = InputStream::over_tree(&a, root, FxHashMap::default());
        s.left_breakdown(&a); // [eps, x, eos]
        assert_eq!(s.reduction_terminal(&a), Terminal::from_index(3));
    }

    #[test]
    fn append_before_eos_splices_at_end() {
        let (mut a, root, _ids) = sample();
        let extra = a.terminal(Terminal::from_index(2), "zz");
        let mut s = InputStream::over_tree(&a, root, FxHashMap::default());
        s.append_before_eos(&a, &[extra]);
        s.pop(&a); // body
        assert_eq!(s.la(), Some(extra));
        s.pop(&a);
        assert!(matches!(a.kind(s.la().unwrap()), NodeKind::Eos));
    }

    #[test]
    fn epsilon_subtree_dropped_when_changed() {
        let mut a = DagArena::new();
        let eps = a.production(ProdId::from_index(9), ParseState(1), &[]);
        let tx = a.terminal(Terminal::from_index(1), "x");
        let p = a.production(ProdId::from_index(1), ParseState(0), &[eps, tx]);
        let root = a.root(p);
        a.mark_changed(eps);
        let s = InputStream::over_tree(&a, root, FxHashMap::default());
        assert_eq!(s.la(), Some(tx), "changed ε subtree evaporates");
    }
}
