//! A minimal self-versioning document substrate.
//!
//! The paper builds on Ensemble's *self-versioning document* model
//! (Wagner & Graham, CompCon '97): the analyses consume a document that
//! remembers which parts changed since the last analysis and can replay the
//! structure of the previous version during reparsing. This crate implements
//! the subset that incremental lexing and IGLR parsing require:
//!
//! * an edit-logged text buffer ([`TextBuffer`]) with version stamps, backed
//!   by a chunked [`Rope`] so every modification costs O(log N + edit size)
//!   rather than O(document),
//! * [`Edit`] values describing textual modifications, with coalescing,
//! * undo support (used by the paper's *self-cancelling modification*
//!   experiments in Section 5), including in-place rewind/replay of pending
//!   edit prefixes for the parser's history-based retry loop, and
//! * bookkeeping for *unincorporated* edits — modifications the parser
//!   refused because no valid parse included them (the history-based,
//!   non-correcting error recovery of Section 4.3) — stamped with the
//!   version at which each refused edit was actually made.
//!
//! # Example
//!
//! ```
//! use wg_document::TextBuffer;
//!
//! let mut buf = TextBuffer::new("int x;");
//! let v0 = buf.version();
//! buf.replace(4, 1, "y");
//! assert_eq!(buf.text(), "int y;");
//! assert!(buf.version() > v0);
//! buf.undo();
//! assert_eq!(buf.text(), "int x;");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;

mod rope;

pub use rope::{Rope, CHUNK_TARGET};

/// A textual modification: `removed` bytes at `start` replaced by
/// `inserted` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edit {
    /// Byte offset (in the pre-edit text) where the edit begins.
    pub start: usize,
    /// Number of bytes removed.
    pub removed: usize,
    /// Number of bytes inserted.
    pub inserted: usize,
}

impl Edit {
    /// A pure insertion of `len` bytes at `start`.
    pub fn insertion(start: usize, len: usize) -> Edit {
        Edit {
            start,
            removed: 0,
            inserted: len,
        }
    }

    /// A pure deletion of `len` bytes at `start`.
    pub fn deletion(start: usize, len: usize) -> Edit {
        Edit {
            start,
            removed: len,
            inserted: 0,
        }
    }

    /// Net change in text length.
    pub fn delta(&self) -> isize {
        self.inserted as isize - self.removed as isize
    }

    /// End of the removed range in pre-edit coordinates.
    pub fn old_end(&self) -> usize {
        self.start + self.removed
    }

    /// End of the inserted range in post-edit coordinates.
    pub fn new_end(&self) -> usize {
        self.start + self.inserted
    }

    /// The removed range in pre-edit coordinates.
    pub fn old_range(&self) -> Range<usize> {
        self.start..self.old_end()
    }

    /// Byte distance between this edit's post-application footprint
    /// (`start..new_end`) and an incoming edit `next` about to be applied
    /// on top of it (`next.start..next.old_end()`), both expressed in the
    /// current text's coordinates. Zero when the ranges overlap or touch.
    ///
    /// This is the service layer's coalescing proximity gate: pending
    /// edits within a small gap share one covering damage region (one
    /// relex + one reparse), while a distant edit is better flushed first
    /// — merging it would drag the untouched interior of the covering
    /// span into the damage region and defeat damage-proportional cost.
    pub fn gap_to(&self, next: &Edit) -> usize {
        if next.start > self.new_end() {
            next.start - self.new_end()
        } else {
            self.start.saturating_sub(next.start + next.removed)
        }
    }

    /// Conservatively merges two edits applied in sequence (`self` first,
    /// then `other`, whose offsets are post-`self`) into one edit in
    /// pre-`self` coordinates covering both. Used to present the incremental
    /// lexer with a single damage region per analysis cycle.
    pub fn merge(self, other: Edit) -> Edit {
        // Map `other`'s start back to pre-self coordinates.
        let delta = self.delta();
        let other_old_start = if other.start >= self.new_end() {
            (other.start as isize - delta) as usize
        } else {
            other.start.min(self.start)
        };
        let other_old_end = if other.start + other.removed >= self.new_end() {
            (other.old_end() as isize - delta).max(self.old_end() as isize) as usize
        } else {
            self.old_end()
        };
        let start = self.start.min(other_old_start);
        let old_end = self.old_end().max(other_old_end);
        let removed = old_end - start;
        // New length covered by the merged region.
        let total_delta = delta + other.delta();
        let inserted = (removed as isize + total_delta).max(0) as usize;
        Edit {
            start,
            removed,
            inserted,
        }
    }
}

impl fmt::Display for Edit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "@{}: -{} +{} bytes",
            self.start, self.removed, self.inserted
        )
    }
}

/// How many modifications [`TextBuffer::undo`] can reach back. Older
/// history is dropped, so a long session's buffer stays bounded (~40 KB
/// per document for keystroke-sized edits, which matters with many
/// documents open); the analyses themselves undo at most one step, after
/// a refused edit.
const UNDO_DEPTH: usize = 256;

/// One entry in the undo history.
#[derive(Debug, Clone)]
struct HistoryEntry {
    edit: Edit,
    removed_text: String,
    inserted_text: String,
}

/// One uncommitted modification: the edit, the text it removed and inserted
/// (so any prefix of the pending sequence can be checked out by *undoing*
/// the complementary suffix in place and replaying it afterwards — both
/// O(edit), never O(document)), and the buffer version at which the edit
/// was made (so refused edits are flagged with their own version, not
/// whatever the buffer reads when the refusal happens).
#[derive(Debug, Clone)]
struct PendingEdit {
    edit: Edit,
    removed_text: String,
    inserted_text: String,
    version: u64,
}

/// An edit-logged text buffer with version stamps and undo, stored as a
/// chunked [`Rope`].
///
/// Text mutation (`replace`, `undo`) costs O(log N + edit size): the rope
/// seeks its chunk cursor to the edit, splits at most one chunk, and never
/// shifts the document suffix. The committed text (what the analyses'
/// current tree corresponds to) is not materialized: it is the current text
/// with all pending edits undone. An incremental analysis that needs to
/// *read* a pending prefix checks it out in place with
/// [`TextBuffer::rewind_to_prefix`] / [`TextBuffer::restore_pending`]
/// (O(suffix edits)) instead of copying the document.
#[derive(Debug, Clone)]
pub struct TextBuffer {
    rope: Rope,
    version: u64,
    /// Edits applied since the last [`TextBuffer::commit_prefix`]; what the next
    /// incremental analysis must incorporate. Each edit's offsets are in
    /// the coordinates produced by its predecessors.
    pending: Vec<PendingEdit>,
    /// How many pending edits are currently applied to `rope`. Equal to
    /// `pending.len()` except between `rewind_to_prefix` and
    /// `restore_pending`.
    applied: usize,
    /// The most recent `UNDO_DEPTH` modifications, oldest first.
    history: VecDeque<HistoryEntry>,
}

impl TextBuffer {
    /// Creates a buffer holding `text` at version 0 with no pending edits.
    pub fn new(text: impl AsRef<str>) -> TextBuffer {
        TextBuffer {
            rope: Rope::from_str(text.as_ref()),
            version: 0,
            pending: Vec::new(),
            applied: 0,
            history: VecDeque::new(),
        }
    }

    /// Current contents, materialized. O(N) — tests and tooling only; the
    /// incremental paths read through [`TextBuffer::chunk_from`] /
    /// [`TextBuffer::read_range`] without materializing the document.
    pub fn text(&self) -> String {
        self.rope.to_string_full()
    }

    /// The underlying chunked rope (read access for analyses that stream
    /// the text instead of materializing it).
    pub fn rope(&self) -> &Rope {
        &self.rope
    }

    /// The maximal contiguous text slice starting at byte `pos` (empty iff
    /// `pos ≥ len`). O(log chunks).
    pub fn chunk_from(&self, pos: usize) -> &str {
        self.rope.chunk_from(pos)
    }

    /// A contiguous `&str` covering `range` if a single chunk holds it.
    pub fn slice(&self, range: Range<usize>) -> Option<&str> {
        self.rope.slice(range)
    }

    /// Appends the bytes of `range` to `out`.
    pub fn read_range(&self, range: Range<usize>, out: &mut String) {
        self.rope.read_range(range, out)
    }

    /// The bytes of `range` as an owned string.
    fn slice_to_string(&self, range: Range<usize>) -> String {
        let mut out = String::with_capacity(range.end.saturating_sub(range.start));
        self.rope.read_range(range, &mut out);
        out
    }

    /// Cumulative bytes the rope has physically copied for mutations —
    /// O(chunk + edit) per modification, regression-tested to stay
    /// independent of document size (no contiguous-suffix memmove).
    pub fn moved_bytes(&self) -> u64 {
        self.rope.moved_bytes()
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.rope.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.rope.is_empty()
    }

    /// Monotonic version stamp; bumped by every modification.
    pub fn version(&self) -> u64 {
        self.version
    }

    fn assert_restored(&self, op: &str) {
        assert!(
            self.applied == self.pending.len(),
            "TextBuffer::{op}: buffer is rewound to pending prefix {} of {}; \
             call restore_pending first",
            self.applied,
            self.pending.len()
        );
    }

    /// Validates an edit range up front so a bad caller gets the offset and
    /// document context, not a panic deep inside slicing.
    fn check_edit_range(&self, start: usize, removed: usize) {
        let len = self.rope.len();
        let end = start.checked_add(removed).unwrap_or_else(|| {
            panic!("TextBuffer::replace: range {start} + {removed} overflows usize")
        });
        assert!(
            end <= len,
            "TextBuffer::replace: range {start}..{end} out of bounds (document is {len} bytes)"
        );
        for (pos, what) in [(start, "start"), (end, "end")] {
            if pos < len {
                let b = self.rope.byte(pos);
                assert!(
                    b & 0xC0 != 0x80,
                    "TextBuffer::replace: {what} offset {pos} splits a UTF-8 character \
                     (byte 0x{b:02x} is a continuation byte)"
                );
            }
        }
    }

    /// Replaces `removed` bytes at `start` with `insert`. O(log N + edit
    /// size): only the chunks at the edit point are touched.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or splits a UTF-8 character;
    /// the message names the offending offset and the document length.
    pub fn replace(&mut self, start: usize, removed: usize, insert: &str) -> Edit {
        self.assert_restored("replace");
        self.check_edit_range(start, removed);
        let removed_text = self.slice_to_string(start..start + removed);
        self.rope.replace(start, removed, insert);
        let edit = Edit {
            start,
            removed,
            inserted: insert.len(),
        };
        self.version += 1;
        if self.history.len() == UNDO_DEPTH {
            self.history.pop_front();
        }
        self.history.push_back(HistoryEntry {
            edit,
            removed_text: removed_text.clone(),
            inserted_text: insert.to_string(),
        });
        self.pending.push(PendingEdit {
            edit,
            removed_text,
            inserted_text: insert.to_string(),
            version: self.version,
        });
        self.applied += 1;
        edit
    }

    /// Inserts `text` at `offset`.
    pub fn insert(&mut self, offset: usize, text: &str) -> Edit {
        self.replace(offset, 0, text)
    }

    /// Deletes `len` bytes at `offset`.
    pub fn delete(&mut self, offset: usize, len: usize) -> Edit {
        self.replace(offset, len, "")
    }

    /// Undoes the most recent modification, returning the reverse edit.
    /// Returns `None` if there is nothing to undo; history reaches back
    /// 256 modifications (`UNDO_DEPTH`). O(log N + edit size).
    pub fn undo(&mut self) -> Option<Edit> {
        self.assert_restored("undo");
        let entry = self.history.pop_back()?;
        let start = entry.edit.start;
        self.rope
            .replace(start, entry.inserted_text.len(), &entry.removed_text);
        let rev = Edit {
            start,
            removed: entry.inserted_text.len(),
            inserted: entry.removed_text.len(),
        };
        self.version += 1;
        // The reverse edit removed what the original inserted.
        self.pending.push(PendingEdit {
            edit: rev,
            removed_text: entry.inserted_text,
            inserted_text: entry.removed_text,
            version: self.version,
        });
        self.applied += 1;
        rev.into()
    }

    /// The pending edits together with the buffer version at which each was
    /// made, oldest first.
    pub fn pending_with_versions(&self) -> impl Iterator<Item = (u64, Edit)> + '_ {
        self.pending.iter().map(|p| (p.version, p.edit))
    }

    /// Number of pending edits.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Coalesces the first `k` pending edits into one covering [`Edit`] in
    /// committed-text coordinates (`None` if `k == 0`).
    pub fn pending_damage_prefix(&self, k: usize) -> Option<Edit> {
        let mut it = self.pending.iter().take(k).map(|p| p.edit);
        let first = it.next()?;
        Some(it.fold(first, Edit::merge))
    }

    /// Rewinds the live text *in place* so it reflects only the first `k`
    /// pending edits, by undoing the pending suffix newest-first against
    /// the rope. Costs O(suffix edit sizes + log N), independent of the
    /// document length — this is how the incremental analysis reads a
    /// candidate prefix without copying the document. Pair with
    /// [`TextBuffer::restore_pending`]; while rewound, the buffer rejects
    /// new modifications and commits.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the currently applied prefix (rewinding only
    /// moves backwards; restore first).
    pub fn rewind_to_prefix(&mut self, k: usize) {
        assert!(
            k <= self.applied,
            "rewind_to_prefix({k}) cannot move forward from prefix {}; call restore_pending",
            self.applied
        );
        while self.applied > k {
            self.applied -= 1;
            let p = &self.pending[self.applied];
            self.rope
                .replace(p.edit.start, p.edit.inserted, &p.removed_text);
        }
    }

    /// Replays any rewound pending edits so the live text again reflects
    /// the whole pending sequence. O(replayed edit sizes + log N).
    pub fn restore_pending(&mut self) {
        while self.applied < self.pending.len() {
            let p = &self.pending[self.applied];
            self.rope
                .replace(p.edit.start, p.edit.removed, &p.inserted_text);
            self.applied += 1;
        }
    }

    /// Marks the first `k` pending edits as incorporated: the committed
    /// text advances to the text [`TextBuffer::rewind_to_prefix`]`(k)`
    /// checks out, and the remaining edits stay pending. Costs O(`k`), independent of the
    /// document length.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the number of pending edits.
    pub fn commit_prefix(&mut self, k: usize) {
        self.assert_restored("commit_prefix");
        self.pending.drain(..k);
        self.applied = self.pending.len();
    }

    /// Converts a byte offset (clamped to the document) to a 1-based
    /// `(line, column)` pair. The column counts **chars**, not bytes, so
    /// multibyte text before the offset does not inflate it. Line lookup
    /// rides the rope's per-chunk newline index: O(log N + line length),
    /// never O(offset).
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        self.rope.line_col(offset)
    }
}

impl Default for TextBuffer {
    fn default() -> TextBuffer {
        TextBuffer::new("")
    }
}

/// Bookkeeping for edits refused by the parser (Section 4.3: history-based,
/// non-correcting error recovery integrates only modifications that yield at
/// least one valid parse; the rest are flagged as unincorporated material).
#[derive(Debug, Clone, Default)]
pub struct UnincorporatedEdits {
    edits: Vec<(u64, Edit)>,
}

impl UnincorporatedEdits {
    /// Creates empty bookkeeping.
    pub fn new() -> UnincorporatedEdits {
        UnincorporatedEdits::default()
    }

    /// Records that `edit` (made at buffer version `version`) could not be
    /// incorporated.
    pub fn flag(&mut self, version: u64, edit: Edit) {
        self.edits.push((version, edit));
    }

    /// The flagged edits, oldest first.
    pub fn flagged(&self) -> &[(u64, Edit)] {
        &self.edits
    }

    /// Whether anything is flagged.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// Clears the flags (e.g. after a later analysis incorporated them).
    pub fn clear(&mut self) {
        self.edits.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_accessors() {
        let e = Edit {
            start: 4,
            removed: 2,
            inserted: 5,
        };
        assert_eq!(e.delta(), 3);
        assert_eq!(e.old_end(), 6);
        assert_eq!(e.new_end(), 9);
        assert_eq!(e.old_range(), 4..6);
        assert_eq!(format!("{e}"), "@4: -2 +5 bytes");
        assert_eq!(Edit::insertion(1, 3).removed, 0);
        assert_eq!(Edit::deletion(1, 3).inserted, 0);
    }

    #[test]
    fn replace_insert_delete_roundtrip() {
        let mut b = TextBuffer::new("hello world");
        b.replace(0, 5, "goodbye");
        assert_eq!(b.text(), "goodbye world");
        b.insert(7, ",");
        assert_eq!(b.text(), "goodbye, world");
        b.delete(7, 1);
        assert_eq!(b.text(), "goodbye world");
        assert_eq!(b.pending_len(), 3);
        assert_eq!(b.version(), 3);
    }

    #[test]
    fn undo_restores_text_and_logs_reverse_edit() {
        let mut b = TextBuffer::new("abc");
        b.replace(1, 1, "XY");
        assert_eq!(b.text(), "aXYc");
        let rev = b.undo().unwrap();
        assert_eq!(b.text(), "abc");
        assert_eq!(
            rev,
            Edit {
                start: 1,
                removed: 2,
                inserted: 1
            }
        );
        assert!(b.undo().is_none());
    }

    #[test]
    fn undo_history_is_capped() {
        let mut b = TextBuffer::new("");
        for _ in 0..UNDO_DEPTH + 10 {
            b.insert(b.len(), "x");
        }
        assert_eq!(b.history.len(), UNDO_DEPTH, "oldest entries dropped");
        for _ in 0..UNDO_DEPTH {
            assert!(b.undo().is_some());
        }
        assert!(b.undo().is_none(), "history beyond the cap is gone");
        assert_eq!(b.text(), "x".repeat(10), "the dropped edits stay applied");
    }

    #[test]
    fn self_cancelling_edit_protocol() {
        // The Section 5 experiment shape: modify a token, reparse, undo.
        let mut b = TextBuffer::new("int foo;");
        b.replace(4, 3, "bar");
        assert_eq!(b.text(), "int bar;");
        b.undo();
        assert_eq!(b.text(), "int foo;");
        // Both the edit and its reversal are pending damage for the parser.
        assert_eq!(b.pending_len(), 2);
        let damage = b.pending_damage_prefix(b.pending_len()).unwrap();
        assert_eq!(damage.start, 4);
        assert_eq!(damage.removed, 3);
        assert_eq!(damage.inserted, 3);
    }

    #[test]
    fn gap_to_measures_distance_between_footprints() {
        // Applied edit occupies 10..13 in the current text.
        let cover = Edit {
            start: 10,
            removed: 5,
            inserted: 3,
        };
        // Incoming edit well past the footprint: gap = 20 - 13.
        let far = Edit {
            start: 20,
            removed: 2,
            inserted: 2,
        };
        assert_eq!(cover.gap_to(&far), 7);
        // Incoming edit entirely before: gap = 10 - 8.
        let before = Edit {
            start: 4,
            removed: 4,
            inserted: 1,
        };
        assert_eq!(cover.gap_to(&before), 2);
        // Touching and overlapping ranges gate at zero.
        let touching = Edit {
            start: 13,
            removed: 1,
            inserted: 1,
        };
        assert_eq!(cover.gap_to(&touching), 0);
        let inside = Edit {
            start: 11,
            removed: 0,
            inserted: 4,
        };
        assert_eq!(cover.gap_to(&inside), 0);
    }

    #[test]
    fn merge_disjoint_edits_covers_both() {
        // "aaaa bbbb": replace 0..2 then (post-edit) replace 6..8.
        let e1 = Edit {
            start: 0,
            removed: 2,
            inserted: 3,
        };
        let e2 = Edit {
            start: 6,
            removed: 2,
            inserted: 2,
        };
        let m = e1.merge(e2);
        // In old coordinates e2 covers 5..7, so the merge spans 0..7.
        assert_eq!(m.start, 0);
        assert_eq!(m.removed, 7);
        assert_eq!(m.inserted, 8);
    }

    #[test]
    fn merge_overlapping_edits() {
        let e1 = Edit {
            start: 2,
            removed: 4,
            inserted: 1,
        }; // "..XXXX.." -> "..Y.."
        let e2 = Edit {
            start: 2,
            removed: 1,
            inserted: 0,
        }; // delete the Y
        let m = e1.merge(e2);
        assert_eq!(m.start, 2);
        assert_eq!(m.removed, 4);
        assert_eq!(m.inserted, 0);
    }

    /// The text after the first `k` pending edits, checked out the way
    /// the incremental analysis reads it: rewind, read, restore.
    fn prefix_text(b: &mut TextBuffer, k: usize) -> String {
        b.rewind_to_prefix(k);
        let text = b.text();
        b.restore_pending();
        text
    }

    #[test]
    fn pending_damage_and_commit() {
        let mut b = TextBuffer::new("0123456789");
        assert!(b.pending_damage_prefix(b.pending_len()).is_none());
        b.replace(1, 1, "X");
        b.replace(5, 2, "");
        let d = b.pending_damage_prefix(b.pending_len()).unwrap();
        assert_eq!(d.start, 1);
        assert!(d.old_end() >= 7);
        b.commit_prefix(b.pending_len());
        assert!(b.pending_damage_prefix(b.pending_len()).is_none());
        assert_eq!(b.version(), 2, "commit does not bump the version");
    }

    #[test]
    fn prefix_checkout_and_commit_prefix() {
        let mut b = TextBuffer::new("0123456789");
        b.replace(2, 3, "ab"); // "01ab56789"
        b.replace(0, 1, ""); // "1ab56789"
        b.insert(8, "Z"); // "1ab56789Z"
        assert_eq!(prefix_text(&mut b, 0), "0123456789");
        assert_eq!(prefix_text(&mut b, 1), "01ab56789");
        assert_eq!(prefix_text(&mut b, 2), "1ab56789");
        assert_eq!(prefix_text(&mut b, 3), b.text());
        assert_eq!(b.text(), "1ab56789Z", "every checkout is restored");
        b.commit_prefix(2);
        assert_eq!(b.pending_len(), 1);
        assert_eq!(prefix_text(&mut b, 0), "1ab56789");
        assert_eq!(prefix_text(&mut b, 1), b.text());
        b.commit_prefix(1);
        assert_eq!(prefix_text(&mut b, 0), b.text());
    }

    #[test]
    fn undo_participates_in_prefix_reconstruction() {
        let mut b = TextBuffer::new("int foo;");
        b.replace(4, 3, "barbar");
        b.undo();
        assert_eq!(b.text(), "int foo;");
        assert_eq!(b.pending_len(), 2);
        assert_eq!(prefix_text(&mut b, 0), "int foo;");
        assert_eq!(prefix_text(&mut b, 1), "int barbar;");
        assert_eq!(prefix_text(&mut b, 2), "int foo;");
    }

    #[test]
    fn rewind_and_restore_check_out_prefixes_in_place() {
        let mut b = TextBuffer::new("0123456789");
        b.replace(2, 3, "ab"); // "01ab56789"
        b.replace(0, 1, ""); // "1ab56789"
        b.insert(8, "Z"); // "1ab56789Z"
        b.rewind_to_prefix(2);
        assert_eq!(b.text(), "1ab56789");
        b.rewind_to_prefix(0);
        assert_eq!(b.text(), "0123456789");
        b.restore_pending();
        assert_eq!(b.text(), "1ab56789Z");
        // Rewind reflects in streaming reads too, not just text().
        b.rewind_to_prefix(1);
        let mut out = String::new();
        b.read_range(0..b.len(), &mut out);
        assert_eq!(out, "01ab56789");
        b.restore_pending();
    }

    #[test]
    #[should_panic(expected = "buffer is rewound")]
    fn rewound_buffer_rejects_mutation() {
        let mut b = TextBuffer::new("abcdef");
        b.replace(0, 1, "X");
        b.rewind_to_prefix(0);
        b.replace(0, 0, "boom");
    }

    #[test]
    fn pending_versions_are_per_edit() {
        let mut b = TextBuffer::new("abc");
        b.replace(0, 1, "x"); // version 1
        b.insert(3, "y"); // version 2
        b.undo(); // version 3
        let vs: Vec<u64> = b.pending_with_versions().map(|(v, _)| v).collect();
        assert_eq!(vs, vec![1, 2, 3]);
        b.commit_prefix(1);
        let vs: Vec<u64> = b.pending_with_versions().map(|(v, _)| v).collect();
        assert_eq!(vs, vec![2, 3], "commit keeps the suffix's own versions");
    }

    #[test]
    fn line_col() {
        let b = TextBuffer::new("ab\ncde\nf");
        assert_eq!(b.line_col(0), (1, 1));
        assert_eq!(b.line_col(3), (2, 1));
        assert_eq!(b.line_col(6), (2, 4));
        assert_eq!(b.line_col(7), (3, 1));
        assert_eq!(b.line_col(999), (3, 2), "clamped to end");
    }

    #[test]
    fn line_col_counts_chars_not_bytes() {
        // "λx. x\nλy. y": the λ is two bytes but one column.
        let b = TextBuffer::new("λx. x\nλy. y");
        assert_eq!(b.line_col(0), (1, 1));
        assert_eq!(b.line_col(2), (1, 2), "after the two-byte λ");
        assert_eq!(b.line_col(6), (1, 6));
        assert_eq!(b.line_col(7), (2, 1));
        assert_eq!(b.line_col(9), (2, 2), "second line, after its λ");
        let end = b.len();
        assert_eq!(b.line_col(end), (2, 6));
    }

    #[test]
    #[should_panic(expected = "range 4..9 out of bounds (document is 6 bytes)")]
    fn replace_out_of_bounds_names_the_range() {
        let mut b = TextBuffer::new("abcdef");
        b.replace(4, 5, "x");
    }

    #[test]
    #[should_panic(expected = "start offset 1 splits a UTF-8 character")]
    fn replace_inside_char_names_the_offset() {
        let mut b = TextBuffer::new("λx");
        b.replace(1, 1, "y");
    }

    #[test]
    #[should_panic(expected = "end offset 3 splits a UTF-8 character")]
    fn replace_end_inside_char_names_the_offset() {
        let mut b = TextBuffer::new("aaλx");
        b.replace(2, 1, "y");
    }

    #[test]
    fn single_keystroke_on_large_doc_moves_o_chunk_bytes() {
        // The bounded-incrementality regression: a contiguous String would
        // memmove the ~128 KiB suffix; the rope touches O(chunk).
        let text: String = (0..20_000).map(|i| format!("v{i} = {i};\n")).collect();
        let mut b = TextBuffer::new(&text);
        let mid = text.len() / 2;
        b.replace(mid, 1, "x"); // warm the cursor
        let warm = b.moved_bytes();
        b.replace(mid + 3, 1, "y");
        let delta = b.moved_bytes() - warm;
        assert!(
            delta <= 4 * CHUNK_TARGET as u64,
            "single keystroke moved {delta} bytes on a {} byte document",
            text.len()
        );
        // Undo is equally local.
        let warm = b.moved_bytes();
        b.undo();
        let delta = b.moved_bytes() - warm;
        assert!(delta <= 4 * CHUNK_TARGET as u64, "undo moved {delta} bytes");
    }

    #[test]
    fn unincorporated_edits_bookkeeping() {
        let mut u = UnincorporatedEdits::new();
        assert!(u.is_empty());
        u.flag(3, Edit::insertion(0, 1));
        assert_eq!(u.flagged().len(), 1);
        assert_eq!(u.flagged()[0].0, 3);
        u.clear();
        assert!(u.is_empty());
    }

    #[test]
    fn default_buffer_is_empty() {
        let b = TextBuffer::default();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
    }
}
