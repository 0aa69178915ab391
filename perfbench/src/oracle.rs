//! Output oracles that do not trust the code under test.
//!
//! The parse-tree oracle compares an incrementally maintained dag with a
//! fresh parse of the same text. A byte compare of `Session::dump()` is the
//! wrong check: the physical shape of a balanced sequence depends on the
//! edit history, so two correct trees can dump differently. The comparison
//! here ignores that shape — it flattens every sequence into its elements
//! — and compares everything else exactly (terminals with their lexemes,
//! productions, choice points with their alternatives in order). It is
//! memoized over node *pairs*, so shared subtrees under choice points are
//! compared once.

use std::collections::HashMap;
use wg_dag::{DagRead, NodeId, NodeKind};

/// Whether the forests under `ra` (in `a`) and `rb` (in `b`) are equal up to
/// sequence chunking.
pub fn forests_equal(a: &dyn DagRead, ra: NodeId, b: &dyn DagRead, rb: NodeId) -> bool {
    Cmp {
        a,
        b,
        memo: HashMap::new(),
    }
    .eq(ra, rb)
}

struct Cmp<'a> {
    a: &'a dyn DagRead,
    b: &'a dyn DagRead,
    memo: HashMap<(NodeId, NodeId), bool>,
}

impl Cmp<'_> {
    fn eq(&mut self, x: NodeId, y: NodeId) -> bool {
        if let Some(&r) = self.memo.get(&(x, y)) {
            return r;
        }
        let r = match (self.a.kind(x), self.b.kind(y)) {
            (
                NodeKind::Terminal {
                    term: ta,
                    lexeme: la,
                },
                NodeKind::Terminal {
                    term: tb,
                    lexeme: lb,
                },
            ) => ta == tb && la == lb,
            (NodeKind::Bos, NodeKind::Bos) | (NodeKind::Eos, NodeKind::Eos) => true,
            (NodeKind::Production { prod: pa }, NodeKind::Production { prod: pb }) => {
                pa == pb && self.kids_eq(self.a.kids(x), self.b.kids(y))
            }
            (NodeKind::Symbol { symbol: sa }, NodeKind::Symbol { symbol: sb }) => {
                sa == sb && self.kids_eq(self.a.kids(x), self.b.kids(y))
            }
            (NodeKind::Root, NodeKind::Root) => self.kids_eq(self.a.kids(x), self.b.kids(y)),
            (NodeKind::Sequence { symbol: sa }, NodeKind::Sequence { symbol: sb }) => {
                sa == sb && {
                    let (ia, ib) = (seq_items(self.a, x), seq_items(self.b, y));
                    self.kids_eq(&ia, &ib)
                }
            }
            _ => false,
        };
        self.memo.insert((x, y), r);
        r
    }

    fn kids_eq(&mut self, ka: &[NodeId], kb: &[NodeId]) -> bool {
        ka.len() == kb.len() && ka.iter().zip(kb).all(|(&p, &q)| self.eq(p, q))
    }
}

/// The elements and separators of a sequence in yield order, looking
/// through its prefix sequences and runs (explicit stack: a long prefix
/// chain must not exhaust the call stack).
fn seq_items(d: &dyn DagRead, seq: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut stack: Vec<NodeId> = d.kids(seq).iter().rev().copied().collect();
    while let Some(n) = stack.pop() {
        match d.kind(n) {
            NodeKind::Sequence { .. } | NodeKind::SeqRun { .. } => {
                stack.extend(d.kids(n).iter().rev().copied());
            }
            _ => out.push(n),
        }
    }
    out
}

/// Replays `(start, removed, insert)` edits on a plain string: the text
/// oracle, independent of the rope.
pub fn replay<'a>(base: &str, edits: impl IntoIterator<Item = (usize, usize, &'a str)>) -> String {
    let mut s = base.to_string();
    for (start, removed, insert) in edits {
        s.replace_range(start..start + removed, insert);
    }
    s
}

/// Flips one byte of an expected text (a deliberately corrupted
/// expectation for the self-check).
pub fn corrupt(text: &mut String) {
    let mid = text.len() / 2;
    let i = (mid..text.len())
        .find(|&i| text.as_bytes()[i].is_ascii_alphabetic())
        .expect("text has a letter");
    let flipped = if text.as_bytes()[i] == b'z' { "y" } else { "z" };
    text.replace_range(i..i + 1, flipped);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_core::Session;

    #[test]
    fn incremental_tree_equals_fresh_parse() {
        let config = wg_langs::full_c();
        let spec = wg_langs::generate::GenSpec::sized(300, 0.02, 3);
        let text = wg_langs::generate::full_c_program(&spec).text;
        let script = wg_langs::generate::edit_script(&text, 60, 3);
        let mut s = Session::new(&config, &text).unwrap();
        for e in &script {
            s.edit(e.at, e.remove, &e.insert);
            assert_eq!(s.reparse().unwrap().remaining_edits, 0);
        }
        let expected = replay(
            &text,
            script.iter().map(|e| (e.at, e.remove, e.insert.as_str())),
        );
        assert_eq!(s.text(), expected);
        let fresh = Session::new(&config, &expected).unwrap();
        assert!(forests_equal(
            s.arena(),
            s.root(),
            fresh.arena(),
            fresh.root()
        ));

        let base = Session::new(&config, &text).unwrap();
        assert!(!forests_equal(
            s.arena(),
            s.root(),
            base.arena(),
            base.root()
        ));

        let mut wrong = expected.clone();
        corrupt(&mut wrong);
        assert_eq!(wrong.len(), expected.len());
        assert_ne!(wrong, expected);
    }
}
