//! Sharing hygiene: the ε-subtree unsharing post-pass (Section 3.5).
//!
//! GLR parsing of grammars with ε-productions can *over-share*: one
//! null-yield subtree instance ends up referenced from several places in an
//! otherwise unambiguous tree, which the paper considers a flaw — semantic
//! attributes could no longer be assigned uniquely to each instance. The fix
//! is a post-pass that duplicates any null-yield subtree reached more than
//! once.

use crate::arena::DagArena;
use crate::node::{NodeId, NodeKind};

/// Duplicates every null-yield subtree referenced more than once in the
/// tree under `root` (choice-node alternatives are each visited). Returns
/// the number of subtrees duplicated.
///
/// The walk is epoch-aware: subtrees headed by nodes from earlier epochs
/// were left duplicate-free by the parse that built them and are reused
/// whole, so only freshly built structure is visited — the pass costs
/// O(changed), not O(tree). It dedupes through the arena's pooled marks
/// and copies a kid list only when one of its kids is replaced, so a pass
/// that duplicates nothing allocates nothing.
pub fn unshare_epsilon(arena: &mut DagArena, root: NodeId) -> usize {
    let gen = arena.begin_marks();
    let mut duplicated = 0;
    unshare_rec(arena, root, gen, &mut duplicated);
    duplicated
}

fn unshare_rec(arena: &mut DagArena, node: NodeId, gen: u32, duplicated: &mut usize) {
    // Each node is processed once; without this, the walk would traverse
    // every *path* of the dag, which is exponential under ambiguity
    // packing. (Legitimately shared width>0 subtrees are left shared.) A
    // null-yield kid found already marked is therefore a second (or
    // later) reference to it.
    if !arena.mark(node, gen) {
        return;
    }
    // Nodes reused from earlier epochs head unchanged, already-unshared
    // subtrees; each is delivered at most once by the input stream, so no
    // new sharing can involve their interiors.
    if !arena.is_current_epoch(node) && !matches!(arena.kind(node), NodeKind::Root) {
        return;
    }
    let mut replaced: Option<Vec<NodeId>> = None;
    for i in 0..arena.kid_count(node) {
        let k = arena.kid_at(node, i);
        let is_null_subtree = arena.width(k) == 0
            && !arena.kind(k).is_terminal()
            && !matches!(arena.kind(k), NodeKind::Root);
        if is_null_subtree && arena.is_marked(k, gen) {
            // Second (or later) reference: deep-copy the subtree. The
            // fresh copy's interior is all new nodes; no need to recurse.
            let copy = deep_clone(arena, k);
            replaced.get_or_insert_with(|| arena.kids(node).to_vec())[i] = copy;
            *duplicated += 1;
            continue;
        }
        unshare_rec(arena, k, gen, duplicated);
    }
    if let Some(kids) = replaced {
        arena.set_kids(node, &kids);
    }
}

/// Deep-copies a (null-yield) subtree.
fn deep_clone(arena: &mut DagArena, node: NodeId) -> NodeId {
    let kids: Vec<NodeId> = arena.kids(node).to_vec();
    let new_kids: Vec<NodeId> = kids.iter().map(|&k| deep_clone(arena, k)).collect();
    let state = arena.state(node);
    match arena.kind(node).clone() {
        NodeKind::Production { prod } => arena.production(prod, state, &new_kids),
        NodeKind::Sequence { symbol } => arena.sequence(symbol, state, &new_kids),
        NodeKind::SeqRun { symbol } => arena.seq_run(symbol, state, &new_kids),
        NodeKind::Symbol { symbol } => {
            let mut it = new_kids.into_iter();
            let first = it.next().expect("symbol node has at least one alternative");
            let sym = arena.symbol(symbol, first);
            for alt in it {
                arena.add_choice(sym, alt);
            }
            sym
        }
        NodeKind::Terminal { term, lexeme } => arena.terminal(term, &lexeme),
        NodeKind::Root | NodeKind::Bos | NodeKind::Eos => {
            unreachable!("sentinels are never null-yield subtrees")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::ParseState;
    use wg_grammar::{ProdId, Terminal};

    #[test]
    fn shared_epsilon_subtree_is_duplicated() {
        let mut a = DagArena::new();
        // eps = P2() with no kids (null yield), shared by two parents.
        let eps = a.production(ProdId::from_index(2), ParseState(1), &[]);
        let x = a.terminal(Terminal::from_index(1), "x");
        let y = a.terminal(Terminal::from_index(1), "y");
        let p1 = a.production(ProdId::from_index(1), ParseState(0), &[eps, x]);
        let p2 = a.production(ProdId::from_index(1), ParseState(0), &[eps, y]);
        let top = a.production(ProdId::from_index(3), ParseState(0), &[p1, p2]);
        let root = a.root(top);
        assert_eq!(a.kids(p1)[0], a.kids(p2)[0], "initially shared");
        let n = unshare_epsilon(&mut a, root);
        assert_eq!(n, 1);
        assert_ne!(a.kids(p1)[0], a.kids(p2)[0], "distinct after unsharing");
        // Both instances are structurally the same ε production.
        for p in [p1, p2] {
            let e = a.kids(p)[0];
            assert!(matches!(a.kind(e), NodeKind::Production { prod } if prod.index() == 2));
            assert_eq!(a.width(e), 0);
        }
    }

    #[test]
    fn consecutive_passes_use_fresh_marks() {
        let mut a = DagArena::new();
        let eps = a.production(ProdId::from_index(2), ParseState(1), &[]);
        let x = a.terminal(Terminal::from_index(1), "x");
        let y = a.terminal(Terminal::from_index(1), "y");
        let p1 = a.production(ProdId::from_index(1), ParseState(0), &[eps, x]);
        let p2 = a.production(ProdId::from_index(1), ParseState(0), &[eps, y]);
        let top = a.production(ProdId::from_index(3), ParseState(0), &[p1, p2]);
        let root = a.root(top);
        assert_eq!(unshare_epsilon(&mut a, root), 1);
        // Marks left by the first pass must not read as references in the
        // second: the tree is duplicate-free now, so nothing is copied.
        let len = a.len();
        assert_eq!(unshare_epsilon(&mut a, root), 0);
        assert_eq!(a.len(), len, "no node built by a pass with nothing to do");
        // New sharing introduced after the first pass is still found.
        let eps2 = a.kids(p1)[0];
        let z = a.terminal(Terminal::from_index(1), "z");
        let p3 = a.production(ProdId::from_index(1), ParseState(0), &[eps2, z]);
        let top2 = a.production(ProdId::from_index(4), ParseState(0), &[p1, p2, p3]);
        a.set_root_body(root, top2);
        assert_eq!(unshare_epsilon(&mut a, root), 1);
        assert_ne!(a.kids(p1)[0], a.kids(p3)[0]);
    }

    #[test]
    fn triple_reference_is_copied_exactly_twice() {
        let mut a = DagArena::new();
        let inner = a.production(ProdId::from_index(5), ParseState(1), &[]);
        let eps = a.production(ProdId::from_index(2), ParseState(1), &[inner]);
        let parents: Vec<NodeId> = (0..3)
            .map(|i| {
                let t = a.terminal(Terminal::from_index(1), &format!("t{i}"));
                a.production(ProdId::from_index(1), ParseState(0), &[eps, t])
            })
            .collect();
        let top = a.production(ProdId::from_index(3), ParseState(0), &parents);
        let root = a.root(top);
        let before = a.len();
        assert_eq!(unshare_epsilon(&mut a, root), 2);
        // Two deep copies of a two-node subtree.
        assert_eq!(a.len(), before + 4);
        let heads: Vec<NodeId> = parents.iter().map(|&p| a.kids(p)[0]).collect();
        assert_eq!(heads[0], eps, "the first reference keeps the original");
        assert!(heads[1] != heads[0] && heads[2] != heads[0] && heads[1] != heads[2]);
        for h in heads {
            assert!(matches!(a.kind(h), NodeKind::Production { prod } if prod.index() == 2));
            assert_eq!(a.kids(h).len(), 1);
        }

        // Three references in one kid list: both later ones are replaced.
        let mut b = DagArena::new();
        let eps = b.production(ProdId::from_index(2), ParseState(1), &[]);
        let t = b.terminal(Terminal::from_index(1), "t");
        let p = b.production(ProdId::from_index(1), ParseState(0), &[eps, t, eps, eps]);
        let root = b.root(p);
        assert_eq!(unshare_epsilon(&mut b, root), 2);
        let kids = b.kids(p).to_vec();
        assert_eq!(kids[0], eps);
        assert_eq!(kids[1], t);
        assert!(kids[2] != eps && kids[3] != eps && kids[2] != kids[3]);
    }

    #[test]
    fn non_null_sharing_is_preserved() {
        // Symbol-node alternatives legitimately share non-null subtrees.
        let mut a = DagArena::new();
        let x = a.terminal(Terminal::from_index(1), "x");
        let p1 = a.production(ProdId::from_index(1), ParseState::MULTI, &[x]);
        let p2 = a.production(ProdId::from_index(2), ParseState::MULTI, &[x]);
        let sym = a.symbol(wg_grammar::NonTerminal::from_index(1), p1);
        a.add_choice(sym, p2);
        let root = a.root(sym);
        assert_eq!(unshare_epsilon(&mut a, root), 0);
        assert_eq!(
            a.kids(p1)[0],
            a.kids(p2)[0],
            "shared terminal remains shared"
        );
    }

    #[test]
    fn nested_epsilon_structures_clone_deeply() {
        let mut a = DagArena::new();
        let inner = a.production(ProdId::from_index(5), ParseState(1), &[]);
        let outer = a.production(ProdId::from_index(4), ParseState(1), &[inner]);
        let u = a.terminal(Terminal::from_index(1), "u");
        let v = a.terminal(Terminal::from_index(1), "v");
        let p1 = a.production(ProdId::from_index(1), ParseState(0), &[outer, u]);
        let p2 = a.production(ProdId::from_index(1), ParseState(0), &[outer, v]);
        let top = a.production(ProdId::from_index(3), ParseState(0), &[p1, p2]);
        let root = a.root(top);
        assert_eq!(unshare_epsilon(&mut a, root), 1);
        let o1 = a.kids(p1)[0];
        let o2 = a.kids(p2)[0];
        assert_ne!(o1, o2);
        assert_ne!(a.kids(o1)[0], a.kids(o2)[0], "inner ε cloned too");
    }

    #[test]
    fn unshared_tree_is_untouched() {
        let mut a = DagArena::new();
        let e1 = a.production(ProdId::from_index(2), ParseState(1), &[]);
        let x = a.terminal(Terminal::from_index(1), "x");
        let p = a.production(ProdId::from_index(1), ParseState(0), &[e1, x]);
        let root = a.root(p);
        let len_before = a.len();
        assert_eq!(unshare_epsilon(&mut a, root), 0);
        assert_eq!(a.len(), len_before);
    }
}
