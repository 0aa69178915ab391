//! Balanced representation of associative sequences (Section 3.4).
//!
//! Grammars express repetition left-recursively, which would make parse
//! trees behave like linked lists and degrade every incremental algorithm to
//! linear time. The paper's remedy: sequences *declared associative* in the
//! grammar (regular right parts) are physically represented as balanced
//! binary trees, while the grammar still defines the logical structure.
//!
//! The parsers accumulate flat [`crate::NodeKind::Sequence`] containers while
//! reducing; after each parse [`rebalance_sequences`] restores the balanced
//! shape:
//!
//! ```text
//! Sequence[ first-element, SeqRun( balanced binary tree of steps ) ]
//! ```
//!
//! A *step* is `[element]` (unseparated) or `[separator, element]`. A run of
//! steps is shiftable by the incremental parser without changing parse
//! state — consuming one step from the post-prefix state `q` returns to `q`
//! — so `SeqRun` chunks state-match like any other subtree and an edit in
//! the middle of an N-element sequence decomposes only O(lg N) structure.
//!
//! The pass is **epoch-aware** so its cost is proportional to the freshly
//! built structure, not the whole tree:
//!
//! * sequences whose containers were all built this parse (the batch case)
//!   are fully rebuilt into the canonical balanced shape;
//! * sequences that merely gained a few pieces this parse (the incremental
//!   case) get their top layer *compacted* — the new pieces and the reused
//!   runs are regrouped into a binary tree without flattening the reused
//!   interiors — an O(fanout) operation. Repeated edits can therefore let
//!   the depth creep by O(lg fanout) per edit; this bounded-creep
//!   amortization is recorded in DESIGN.md.

use crate::arena::DagArena;
use crate::node::{NodeId, NodeKind, ParseState};
use wg_grammar::NonTerminal;

/// Containers wider than this get their top layer compacted.
const MAX_FANOUT: usize = 8;

/// What the rebalancer must know about each declared sequence; implemented
/// by the parser layer over its parse table.
pub trait SequencePolicy {
    /// Whether the sequence uses a separator between elements.
    fn is_separated(&self, sym: NonTerminal) -> bool;
    /// The state a run of `sym` steps is consumed in: `GOTO(seq_state, sym)`.
    /// `None` disables rebalancing for this instance.
    fn run_state(&self, seq_state: ParseState, sym: NonTerminal) -> Option<ParseState>;
    /// If `prod` is a lowered sequence production, its sequence nonterminal.
    /// Lets the rebalancer canonicalize the `Production` fallback chains the
    /// parsers build while the `multipleStates` flag is raised (sequences
    /// whose *elements* are ambiguous — allowed by Section 3.4).
    fn seq_prod_symbol(&self, _prod: wg_grammar::ProdId) -> Option<NonTerminal> {
        None
    }
}

impl<F1, F2> SequencePolicy for (F1, F2)
where
    F1: Fn(NonTerminal) -> bool,
    F2: Fn(ParseState, NonTerminal) -> Option<ParseState>,
{
    fn is_separated(&self, sym: NonTerminal) -> bool {
        (self.0)(sym)
    }
    fn run_state(&self, seq_state: ParseState, sym: NonTerminal) -> Option<ParseState> {
        (self.1)(seq_state, sym)
    }
}

/// Depth of the sequence-container structure under `node` (1 for a flat
/// sequence). Elements are opaque.
pub fn sequence_depth(arena: &DagArena, node: NodeId) -> usize {
    let sym = match arena.kind(node) {
        NodeKind::Sequence { symbol } | NodeKind::SeqRun { symbol } => *symbol,
        _ => return 0,
    };
    1 + arena
        .kids(node)
        .iter()
        .map(|&k| match arena.kind(k) {
            NodeKind::Sequence { symbol } | NodeKind::SeqRun { symbol } if *symbol == sym => {
                sequence_depth(arena, k)
            }
            _ => 0,
        })
        .max()
        .unwrap_or(0)
}

/// Fully re-canonicalizes every sequence under `root`, regardless of epoch
/// (the periodic backstop for the bounded depth creep of incremental
/// compaction — O(tree), so callers amortize it over many reparses).
pub fn rebalance_sequences_full<P: SequencePolicy>(
    arena: &mut DagArena,
    root: NodeId,
    policy: &P,
) -> usize {
    let gen = arena.begin_marks();
    let mut rebuilt = 0;
    let mut stack = arena.take_stack();
    stack.push(root);
    while let Some(id) = stack.pop() {
        if !arena.mark(id, gen) {
            continue;
        }
        if let Some(symbol) = sequence_head(arena, policy, id) {
            if canonical_rebuild(arena, id, symbol, policy) {
                rebuilt += 1;
            }
        }
        stack.extend_from_slice(arena.kids(id));
    }
    arena.return_stack(stack);
    rebuilt
}

/// Canonically rebuilds one sequence from the element level if its shape is
/// off (deep or wide). Returns whether it changed.
fn canonical_rebuild<P: SequencePolicy>(
    arena: &mut DagArena,
    seq: NodeId,
    sym: NonTerminal,
    policy: &P,
) -> bool {
    let Some((state, run_state)) = sequence_states(arena, policy, seq, sym) else {
        return false;
    };
    let is_fallback = matches!(arena.kind(seq), NodeKind::Production { .. });
    let width = arena.width(seq).max(1) as usize;
    let bound = 2 * (usize::BITS - width.leading_zeros()) as usize + 4;
    if !is_fallback && arena.kids(seq).len() <= MAX_FANOUT && sequence_depth(arena, seq) <= bound {
        return false;
    }
    rebuild_elements(arena, policy, seq, sym, state, run_state)
}

/// The state a sequence is recognized in and the state its runs are
/// consumed in, or `None` when the sequence must be left alone. A fallback
/// chain head carries the multistate sentinel; the sequence's true
/// preceding state lives on its leftmost deterministic container.
fn sequence_states<P: SequencePolicy>(
    arena: &DagArena,
    policy: &P,
    seq: NodeId,
    sym: NonTerminal,
) -> Option<(ParseState, ParseState)> {
    let state = if arena.state(seq).is_deterministic() {
        arena.state(seq)
    } else {
        flatten(arena, policy, seq, sym).1?
    };
    Some((state, policy.run_state(state, sym)?))
}

/// Rebuilds a sequence from the element level: its first element, then one
/// balanced run over the remaining steps. A fallback chain becomes a
/// Sequence node. Returns whether it changed (a malformed mix of elements
/// and separators is left as is).
fn rebuild_elements<P: SequencePolicy>(
    arena: &mut DagArena,
    policy: &P,
    seq: NodeId,
    sym: NonTerminal,
    state: ParseState,
    run_state: ParseState,
) -> bool {
    let (pieces, _) = flatten(arena, policy, seq, sym);
    let Some((&first, rest)) = pieces.split_first() else {
        return false;
    };
    let step_len = if policy.is_separated(sym) { 2 } else { 1 };
    if rest.len() % step_len != 0 {
        return false;
    }
    let steps: Vec<&[NodeId]> = rest.chunks(step_len).collect();
    let mut kids = vec![first];
    if !steps.is_empty() {
        kids.push(build_balanced(arena, sym, run_state, &steps));
    }
    if matches!(arena.kind(seq), NodeKind::Production { .. }) {
        arena.convert_to_sequence(seq, sym, state);
    }
    arena.set_kids(seq, &kids);
    true
}

/// Restores balanced sequence shape for everything built in the current
/// epoch under `root`. Returns the number of sequences restructured.
pub fn rebalance_sequences<P: SequencePolicy>(
    arena: &mut DagArena,
    root: NodeId,
    policy: &P,
) -> usize {
    let gen = arena.begin_marks();
    let mut rebuilt = 0;
    let mut stack = arena.take_stack();
    stack.push(root);
    while let Some(id) = stack.pop() {
        if !arena.mark(id, gen) {
            continue;
        }
        // Nodes from earlier epochs head unchanged subtrees: they were left
        // canonical by the parse that built them, and old nodes never point
        // at new ones — except the super-root, which is reused across
        // reparses and has its body swapped in place.
        if !arena.is_current_epoch(id) && !matches!(arena.kind(id), NodeKind::Root) {
            continue;
        }
        if let Some(symbol) = sequence_head(arena, policy, id) {
            if rebalance_one(arena, id, symbol, policy) {
                rebuilt += 1;
            }
        }
        stack.extend_from_slice(arena.kids(id));
    }
    arena.return_stack(stack);
    rebuilt
}

/// The sequence nonterminal a node heads, if it is sequence structure: a
/// Sequence node, or a fallback Production over a lowered sequence
/// production.
fn sequence_head<P: SequencePolicy>(
    arena: &DagArena,
    policy: &P,
    id: NodeId,
) -> Option<NonTerminal> {
    match arena.kind(id) {
        NodeKind::Sequence { symbol } => Some(*symbol),
        NodeKind::Production { prod } => policy.seq_prod_symbol(*prod),
        _ => None,
    }
}

/// Whether `k` is container structure of the sequence `sym`: a same-symbol
/// Sequence/SeqRun, or a `Production` fallback over a lowered sequence
/// production (built while the parse was non-deterministic).
fn is_container<P: SequencePolicy>(
    arena: &DagArena,
    policy: &P,
    k: NodeId,
    sym: NonTerminal,
) -> bool {
    match arena.kind(k) {
        NodeKind::Sequence { symbol } | NodeKind::SeqRun { symbol } => *symbol == sym,
        NodeKind::Production { prod } => policy.seq_prod_symbol(*prod) == Some(sym),
        _ => false,
    }
}

/// Collects the leaf pieces (elements and separators, in yield order) of a
/// sequence, looking through containers, and reports the state of the
/// first deterministic container encountered (the sequence's true
/// preceding state, needed when the top of a fallback chain is multistate).
fn flatten<P: SequencePolicy>(
    arena: &DagArena,
    policy: &P,
    node: NodeId,
    sym: NonTerminal,
) -> (Vec<NodeId>, Option<ParseState>) {
    let mut out = Vec::new();
    let mut first_state = None;
    flatten_rec(arena, policy, node, sym, &mut out, &mut first_state);
    (out, first_state)
}

fn flatten_rec<P: SequencePolicy>(
    arena: &DagArena,
    policy: &P,
    node: NodeId,
    sym: NonTerminal,
    out: &mut Vec<NodeId>,
    first_state: &mut Option<ParseState>,
) {
    if first_state.is_none() && arena.state(node).is_deterministic() {
        *first_state = Some(arena.state(node));
    }
    for &k in arena.kids(node) {
        if is_container(arena, policy, k, sym) {
            flatten_rec(arena, policy, k, sym, out, first_state);
        } else {
            out.push(k);
        }
    }
}

/// Whether every container under `seq` was built this epoch (early-exits on
/// the first reused container).
fn containers_all_current<P: SequencePolicy>(
    arena: &DagArena,
    policy: &P,
    seq: NodeId,
    sym: NonTerminal,
) -> bool {
    for &k in arena.kids(seq) {
        if is_container(arena, policy, k, sym)
            && (!arena.is_current_epoch(k) || !containers_all_current(arena, policy, k, sym))
        {
            return false;
        }
    }
    true
}

/// Rebalances one freshly built sequence node. Returns whether it changed.
fn rebalance_one<P: SequencePolicy>(
    arena: &mut DagArena,
    seq: NodeId,
    sym: NonTerminal,
    policy: &P,
) -> bool {
    let Some((state, run_state)) = sequence_states(arena, policy, seq, sym) else {
        return false;
    };
    let is_fallback = matches!(arena.kind(seq), NodeKind::Production { .. });
    if !is_fallback && arena.kids(seq).len() <= MAX_FANOUT {
        return false;
    }
    if is_fallback || containers_all_current(arena, policy, seq, sym) {
        // Whole sequence freshly built (batch case), or a fallback chain
        // (which must be canonicalized so edits near one ambiguous element
        // do not decompose the statement list around it): rebuild from the
        // element level.
        return rebuild_elements(arena, policy, seq, sym, state, run_state);
    }
    // Incremental case: group the top-layer pieces without flattening
    // reused runs. Cost is O(fanout).
    let kids: Vec<NodeId> = arena.kids(seq).to_vec();
    let units = group_units(arena, policy, &kids[1..], sym, policy.is_separated(sym));
    let tree = build_balanced(arena, sym, run_state, &units);
    arena.set_kids(seq, &[kids[0], tree]);
    true
}

/// Groups top-layer kids into shiftable units: a same-symbol container is a
/// unit by itself; otherwise one step's pieces form a unit.
fn group_units<P: SequencePolicy>(
    arena: &DagArena,
    policy: &P,
    kids: &[NodeId],
    sym: NonTerminal,
    separated: bool,
) -> Vec<Vec<NodeId>> {
    let mut units = Vec::new();
    let mut i = 0;
    while i < kids.len() {
        let k = kids[i];
        let is_container = is_container(arena, policy, k, sym);
        if is_container || !separated {
            units.push(vec![k]);
            i += 1;
        } else {
            // (separator, element) pair.
            let end = (i + 2).min(kids.len());
            units.push(kids[i..end].to_vec());
            i = end;
        }
    }
    units
}

/// Builds a balanced binary run tree over shiftable units (element-level
/// steps, or the top-layer units of [`group_units`]). A one-piece unit is
/// its own shiftable unit and needs no wrapper, which keeps the space
/// overhead near zero.
fn build_balanced<U: AsRef<[NodeId]>>(
    arena: &mut DagArena,
    sym: NonTerminal,
    run_state: ParseState,
    units: &[U],
) -> NodeId {
    if let [unit] = units {
        return match unit.as_ref() {
            [piece] => *piece,
            pieces => arena.seq_run(sym, run_state, pieces),
        };
    }
    let mid = units.len() / 2;
    let left = build_balanced(arena, sym, run_state, &units[..mid]);
    let right = build_balanced(arena, sym, run_state, &units[mid..]);
    arena.seq_run(sym, run_state, &[left, right])
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_grammar::Terminal;

    struct TestPolicy {
        separated: bool,
    }

    impl SequencePolicy for TestPolicy {
        fn is_separated(&self, _s: NonTerminal) -> bool {
            self.separated
        }
        fn run_state(&self, _st: ParseState, _s: NonTerminal) -> Option<ParseState> {
            Some(ParseState(99))
        }
    }

    /// Builds a flat sequence (what batch parsing's in-place accumulation
    /// produces): Seq[e0 e1 ... e_{n-1}].
    fn flat_seq(arena: &mut DagArena, sym: NonTerminal, n: usize) -> NodeId {
        let kids: Vec<NodeId> = (0..n)
            .map(|i| arena.terminal(Terminal::from_index(1), &format!("e{i}")))
            .collect();
        arena.sequence(sym, ParseState(0), &kids)
    }

    #[test]
    fn depth_of_flat_and_nested() {
        let sym = NonTerminal::from_index(1);
        let mut a = DagArena::new();
        let flat = flat_seq(&mut a, sym, 4);
        assert_eq!(sequence_depth(&a, flat), 1);
        let outer = a.sequence(sym, ParseState(0), &[flat]);
        assert_eq!(sequence_depth(&a, outer), 2);
        let term = a.terminal(Terminal::from_index(1), "t");
        assert_eq!(sequence_depth(&a, term), 0);
    }

    #[test]
    fn flat_batch_sequence_becomes_logarithmic() {
        let sym = NonTerminal::from_index(1);
        let mut a = DagArena::new();
        let seq = flat_seq(&mut a, sym, 128);
        let root = a.root(seq);
        let before = crate::traverse::yield_string(&a, root);
        let n = rebalance_sequences(&mut a, root, &TestPolicy { separated: false });
        assert_eq!(n, 1);
        assert_eq!(crate::traverse::yield_string(&a, root), before);
        let d = sequence_depth(&a, seq);
        assert!((2..=10).contains(&d), "depth {d} not logarithmic");
        assert!(a.kids(seq).len() <= 2, "canonical top shape");
    }

    /// The node structure under `n`: kinds, states and kid order.
    fn shape(a: &DagArena, n: NodeId) -> String {
        let kids: Vec<String> = a.kids(n).iter().map(|&k| shape(a, k)).collect();
        format!("{:?}@{}[{}]", a.kind(n), a.state(n).0, kids.join(" "))
    }

    #[test]
    fn rebalance_is_stable_across_consecutive_passes_and_reparses() {
        let sym = NonTerminal::from_index(1);
        let policy = TestPolicy { separated: false };
        let mut a = DagArena::new();
        let seq_a = flat_seq(&mut a, sym, 128);
        let top = a.production(wg_grammar::ProdId::from_index(2), ParseState(0), &[seq_a]);
        let root = a.root(top);
        assert_eq!(rebalance_sequences(&mut a, root, &policy), 1);
        let balanced = shape(&a, root);
        // A second pass over the same tree finds nothing to do ...
        assert_eq!(rebalance_sequences(&mut a, root, &policy), 0);
        assert_eq!(shape(&a, root), balanced);
        // ... and so does the next reparse that reuses it all.
        a.begin_epoch();
        assert_eq!(rebalance_sequences(&mut a, root, &policy), 0);
        assert_eq!(shape(&a, root), balanced);
        // A reparse that adds a flat sequence beside the reused one
        // rebalances exactly the new one: the super-root, marked by every
        // earlier pass, must still be walked.
        a.begin_epoch();
        let seq_b = flat_seq(&mut a, sym, 128);
        let top2 = a.production(
            wg_grammar::ProdId::from_index(3),
            ParseState(0),
            &[seq_a, seq_b],
        );
        let seq_a_shape = shape(&a, seq_a);
        a.set_root_body(root, top2);
        assert_eq!(rebalance_sequences(&mut a, root, &policy), 1);
        assert_eq!(shape(&a, seq_a), seq_a_shape, "reused sequence untouched");
        assert!(sequence_depth(&a, seq_b) <= 10, "new sequence balanced");
        let twice = shape(&a, root);
        assert_eq!(rebalance_sequences(&mut a, root, &policy), 0);
        assert_eq!(shape(&a, root), twice);
    }

    #[test]
    fn small_sequences_left_alone() {
        let sym = NonTerminal::from_index(1);
        let mut a = DagArena::new();
        let seq = flat_seq(&mut a, sym, MAX_FANOUT);
        let root = a.root(seq);
        assert_eq!(
            rebalance_sequences(&mut a, root, &TestPolicy { separated: false }),
            0
        );
    }

    #[test]
    fn reused_runs_are_not_flattened() {
        let sym = NonTerminal::from_index(1);
        let mut a = DagArena::new();
        // Simulate a reused balanced run from a previous epoch.
        let old_elems: Vec<NodeId> = (0..64)
            .map(|i| a.terminal(Terminal::from_index(1), &format!("o{i}")))
            .collect();
        let old_run = a.seq_run(sym, ParseState(99), &old_elems);
        a.begin_epoch();
        // This epoch: a fresh sequence that reuses the run plus new items.
        let e0 = a.terminal(Terminal::from_index(1), "n0");
        let mut kids = vec![e0, old_run];
        for i in 0..12 {
            kids.push(a.terminal(Terminal::from_index(1), &format!("n{i}")));
        }
        let seq = a.sequence(sym, ParseState(0), &kids);
        let root = a.root(seq);
        let before = crate::traverse::yield_string(&a, root);
        assert_eq!(
            rebalance_sequences(&mut a, root, &TestPolicy { separated: false }),
            1
        );
        assert_eq!(crate::traverse::yield_string(&a, root), before);
        assert_eq!(a.kids(seq).len(), 2, "top compacted");
        // The reused run must survive intact somewhere under the new top.
        fn contains(a: &DagArena, n: NodeId, target: NodeId) -> bool {
            n == target || a.kids(n).iter().any(|&k| contains(a, k, target))
        }
        assert!(contains(&a, seq, old_run));
        assert_eq!(a.kids(old_run).len(), 64, "interior untouched");
    }

    #[test]
    fn separated_compaction_pairs_steps() {
        let sym = NonTerminal::from_index(1);
        let mut a = DagArena::new();
        // Flat separated sequence e0 (, e)*15 : kids = e0, (",", e)*15.
        let mut kids = vec![a.terminal(Terminal::from_index(1), "e0")];
        for i in 1..16 {
            kids.push(a.terminal(Terminal::from_index(2), ","));
            kids.push(a.terminal(Terminal::from_index(1), &format!("e{i}")));
        }
        let seq = a.sequence(sym, ParseState(0), &kids);
        let root = a.root(seq);
        let before = crate::traverse::yield_string(&a, root);
        rebalance_sequences(&mut a, root, &TestPolicy { separated: true });
        assert_eq!(crate::traverse::yield_string(&a, root), before);
        // Every leaf run pairs separator with element.
        fn check_runs(a: &DagArena, n: NodeId) {
            if let NodeKind::SeqRun { .. } = a.kind(n) {
                let kids = a.kids(n);
                let leaf = kids
                    .iter()
                    .all(|&k| !matches!(a.kind(k), NodeKind::SeqRun { .. }));
                if leaf {
                    assert_eq!(kids.len(), 2, "leaf run must be (sep, elem)");
                }
            }
            for &k in a.kids(n) {
                check_runs(a, k);
            }
        }
        check_runs(&a, seq);
        assert!(sequence_depth(&a, seq) <= 7);
    }

    #[test]
    fn old_epoch_sequences_are_skipped() {
        let sym = NonTerminal::from_index(1);
        let mut a = DagArena::new();
        let seq = flat_seq(&mut a, sym, 100);
        let root = a.root(seq);
        a.begin_epoch();
        // Nothing from the current epoch: the walk skips the whole tree.
        assert_eq!(
            rebalance_sequences(&mut a, root, &TestPolicy { separated: false }),
            0
        );
        assert_eq!(a.kids(seq).len(), 100, "untouched");
    }

    #[test]
    fn policy_can_disable_rebalancing() {
        struct Never;
        impl SequencePolicy for Never {
            fn is_separated(&self, _s: NonTerminal) -> bool {
                false
            }
            fn run_state(&self, _st: ParseState, _s: NonTerminal) -> Option<ParseState> {
                None
            }
        }
        let sym = NonTerminal::from_index(1);
        let mut a = DagArena::new();
        let seq = flat_seq(&mut a, sym, 64);
        let root = a.root(seq);
        assert_eq!(rebalance_sequences(&mut a, root, &Never), 0);
        assert_eq!(a.kids(seq).len(), 64);
    }

    #[test]
    fn empty_and_singleton_sequences_ok() {
        let sym = NonTerminal::from_index(1);
        let mut a = DagArena::new();
        let empty = a.sequence(sym, ParseState(0), &[]);
        let single = flat_seq(&mut a, sym, 1);
        let p = a.production(
            wg_grammar::ProdId::from_index(1),
            ParseState(0),
            &[empty, single],
        );
        let root = a.root(p);
        assert_eq!(
            rebalance_sequences(&mut a, root, &TestPolicy { separated: false }),
            0
        );
    }
}
