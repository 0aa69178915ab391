//! Property test: the rope-backed [`TextBuffer`] behaves exactly like a
//! plain-`String` reference model under arbitrary `replace`/`undo`/
//! `commit_prefix` scripts, including multibyte input.
//!
//! The model is the pre-rope implementation shape: one contiguous `String`
//! plus pending/history logs, with the text after a pending prefix derived
//! by undoing the pending suffix via `replace_range`. Every step asserts
//! identical `text()`, the text that `rewind_to_prefix(k)` checks out for
//! every prefix `k` (restored afterwards), and the covering damage
//! `pending_damage_prefix(pending_len())`.

use proptest::prelude::*;
use wg_document::{Edit, TextBuffer};

/// The contiguous-`String` reference model.
struct ModelBuf {
    text: String,
    /// (edit, removed_text) since the last commit.
    pending: Vec<(Edit, String)>,
    /// (edit, removed_text, inserted_text) undo log.
    history: Vec<(Edit, String, String)>,
}

impl ModelBuf {
    fn new(text: &str) -> ModelBuf {
        ModelBuf {
            text: text.to_string(),
            pending: Vec::new(),
            history: Vec::new(),
        }
    }

    fn replace(&mut self, start: usize, removed: usize, insert: &str) {
        let removed_text = self.text[start..start + removed].to_string();
        self.text.replace_range(start..start + removed, insert);
        let edit = Edit {
            start,
            removed,
            inserted: insert.len(),
        };
        self.history
            .push((edit, removed_text.clone(), insert.to_string()));
        self.pending.push((edit, removed_text));
    }

    fn undo(&mut self) -> bool {
        let Some((edit, removed_text, inserted_text)) = self.history.pop() else {
            return false;
        };
        self.text
            .replace_range(edit.start..edit.start + inserted_text.len(), &removed_text);
        let rev = Edit {
            start: edit.start,
            removed: inserted_text.len(),
            inserted: removed_text.len(),
        };
        self.pending.push((rev, inserted_text));
        true
    }

    fn commit_prefix(&mut self, k: usize) {
        self.pending.drain(..k);
    }

    fn prefix_text(&self, k: usize) -> String {
        let mut out = self.text.clone();
        for (edit, removed_text) in self.pending[k..].iter().rev() {
            out.replace_range(edit.start..edit.new_end(), removed_text);
        }
        out
    }

    fn pending_damage(&self) -> Option<Edit> {
        let mut it = self.pending.iter().map(|(e, _)| *e);
        let first = it.next()?;
        Some(it.fold(first, Edit::merge))
    }
}

/// Largest char-boundary offset ≤ `pos`.
fn snap(s: &str, pos: usize) -> usize {
    let mut p = pos.min(s.len());
    while !s.is_char_boundary(p) {
        p -= 1;
    }
    p
}

/// One operation seed: (kind, position seed, length seed, insert text).
type OpSeed = (usize, usize, usize, String);

fn ops_strategy() -> impl Strategy<Value = Vec<OpSeed>> {
    proptest::collection::vec(
        (
            0..4usize,
            0..100_000usize,
            0..24usize,
            // Multibyte-heavy inserts: λ (2 bytes), 語 (3 bytes), é (2).
            "[aλ語é0-9;\n ]{0,8}",
        ),
        1..24,
    )
}

fn initial_strategy() -> impl Strategy<Value = String> {
    "[a-zλ語 ;\n]{0,64}"
}

fn check_equal(buf: &mut TextBuffer, model: &ModelBuf) {
    assert_eq!(buf.text(), model.text, "live text");
    assert_eq!(buf.pending_len(), model.pending.len());
    for k in 0..=model.pending.len() {
        buf.rewind_to_prefix(k);
        assert_eq!(buf.text(), model.prefix_text(k), "prefix {k}");
        buf.restore_pending();
    }
    assert_eq!(buf.text(), model.text, "restored text");
    assert_eq!(
        buf.pending_damage_prefix(buf.pending_len()),
        model.pending_damage(),
        "damage"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn rope_buffer_matches_string_model(
        initial in initial_strategy(),
        ops in ops_strategy(),
    ) {
        let mut buf = TextBuffer::new(&initial);
        let mut model = ModelBuf::new(&initial);
        for (kind, pos_seed, len_seed, insert) in ops {
            match kind {
                // Replace (also covers pure inserts/deletes when the seeds
                // degenerate).
                0 | 1 => {
                    let cur = model.text.clone();
                    let start = snap(&cur, pos_seed % (cur.len() + 1));
                    let end = snap(&cur, (start + len_seed).min(cur.len()));
                    let removed = end - start;
                    let e = buf.replace(start, removed, &insert);
                    model.replace(start, removed, &insert);
                    prop_assert_eq!(e.inserted, insert.len());
                }
                2 => {
                    let did = model.undo();
                    prop_assert_eq!(buf.undo().is_some(), did);
                }
                _ => {
                    let k = len_seed % (model.pending.len() + 1);
                    buf.commit_prefix(k);
                    model.commit_prefix(k);
                }
            }
            check_equal(&mut buf, &model);
        }
        // Rewinding to every prefix and back never corrupts the text.
        let n = buf.pending_len();
        for k in (0..=n).rev() {
            buf.rewind_to_prefix(k);
            assert_eq!(buf.text(), model.prefix_text(k), "rewound to {k}");
        }
        buf.restore_pending();
        assert_eq!(buf.text(), model.text);
    }
}
