//! A chunked token tape: the session's positional store of (token,
//! terminal-node) pairs, and the tape half of every published snapshot.
//!
//! A flat `Vec<TokenAt>` makes every edit O(document): reusing the suffix
//! after a relex means rewriting the offset of every trailing token. The
//! tape instead keeps the stream in chunks of at most 2×[`TAPE_CHUNK`]
//! entries behind an `Arc`-shared *spine*. Each spine entry records its
//! chunk's first token index and a start *bias*; a chunk stores its starts
//! relative to that bias, so shifting everything after an edit is one
//! index and one bias update per later chunk and no entry moves. A splice
//! rewrites only the chunks covering the replaced tokens, through
//! `Arc::make_mut`: in place when no snapshot holds the chunk, after one
//! copy when a snapshot does. Publishing is therefore a clone of the spine
//! `Arc`, and a snapshot reads through the same code as the writer.
//!
//! An edit costs O(log N + [`TAPE_CHUNK`] + N / [`TAPE_CHUNK`]) whatever
//! the position of the previous edit.

use std::sync::Arc;
use wg_dag::NodeId;
use wg_lexer::{TokenAt, TokenSource};

/// Target entries per chunk: a chunk holds at most twice as many and,
/// unless it is the tape's only chunk, at least half as many.
const TAPE_CHUNK: usize = 256;

/// One spine entry: a shared chunk of the tape and where it sits.
#[derive(Debug, Clone, Default)]
struct Chunk {
    /// Tape index of the chunk's first entry.
    first: usize,
    /// Start of the chunk's first token. Entries store their starts
    /// relative to it (real start = stored start + bias), so the first
    /// stored start is 0 and the spine is searchable by byte offset
    /// without reading any chunk.
    bias: usize,
    /// Largest stored [`TokenAt::scan_end`] of the chunk: the furthest byte
    /// its tokens examined is `bias.saturating_add(reach)`.
    reach: usize,
    entries: Arc<Vec<(TokenAt, NodeId)>>,
}

impl Chunk {
    /// The entries of a chunk being rewritten, which the writer alone holds.
    fn owned(&mut self) -> &mut Vec<(TokenAt, NodeId)> {
        Arc::get_mut(&mut self.entries).expect("a rewritten chunk is unshared")
    }

    /// Restores the chunk's invariants after its entries were rewritten
    /// with starts relative to the current bias (wrapping allowed): the
    /// first stored start becomes 0 and `reach` is recomputed.
    fn seal(&mut self) {
        let v = Arc::get_mut(&mut self.entries).expect("a rewritten chunk is unshared");
        if let Some(&(t0, _)) = v.first() {
            for (t, _) in v.iter_mut() {
                t.start = t.start.wrapping_sub(t0.start);
            }
            self.bias = self.bias.wrapping_add(t0.start);
        }
        self.reach = v.iter().map(|(t, _)| t.scan_end()).max().unwrap_or(0);
    }
}

/// Chunked store of the session's token stream and the terminal dag node
/// carrying each token. Cloning is O(1) and yields an immutable view for
/// readers: a clone is what a [`crate::Snapshot`] holds.
#[derive(Debug, Clone, Default)]
pub struct TokenTape {
    spine: Arc<Vec<Chunk>>,
    len: usize,
    /// Chunks and spines copied because a clone still shared them.
    copied: u64,
}

/// `entry` with its stored start moved by `by` (wrapping: a chunk being
/// rewritten may hold starts below its bias until it is sealed).
fn shifted(&(t, n): &(TokenAt, NodeId), by: usize) -> (TokenAt, NodeId) {
    let start = t.start.wrapping_add(by);
    (TokenAt { start, ..t }, n)
}

/// `Arc::make_mut`, counting the copy it makes when `arc` is shared.
fn unshare<'a, T: Clone>(arc: &'a mut Arc<T>, copied: &mut u64) -> &'a mut T {
    if Arc::get_mut(arc).is_none() {
        *copied += 1;
    }
    Arc::make_mut(arc)
}

impl TokenTape {
    /// An empty tape.
    pub fn new() -> TokenTape {
        TokenTape::default()
    }

    /// Replaces the contents with `pairs` (absolute coordinates).
    pub fn rebuild(&mut self, pairs: impl IntoIterator<Item = (TokenAt, NodeId)>) {
        let pairs: Vec<_> = pairs.into_iter().collect();
        self.spine = Arc::default();
        self.len = 0;
        self.splice(0, &pairs, 0, 0);
    }

    /// Chunks and spines a mutation had to copy because a clone of the
    /// tape (a published snapshot) still shared them. Constant in a
    /// session whose readers drop each snapshot before the next edit.
    pub fn copied_chunks(&self) -> u64 {
        self.copied
    }

    /// Spine position of the chunk holding tape index `ix` (the last chunk
    /// when `ix` is past the end).
    fn chunk_ix(&self, ix: usize) -> usize {
        self.spine
            .partition_point(|c| c.first <= ix)
            .saturating_sub(1)
    }

    /// The dag node of the `ix`-th token.
    pub fn node(&self, ix: usize) -> NodeId {
        let c = &self.spine[self.chunk_ix(ix)];
        c.entries[ix - c.first].1
    }

    /// Every token's dag node, in tape order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.spine
            .iter()
            .flat_map(|c| c.entries.iter().map(|&(_, n)| n))
    }

    /// Replaces the dag node of the `ix`-th token.
    pub fn set_node(&mut self, ix: usize, node: NodeId) {
        let k = self.chunk_ix(ix);
        let c = &mut unshare(&mut self.spine, &mut self.copied)[k];
        unshare(&mut c.entries, &mut self.copied)[ix - c.first].1 = node;
    }

    /// The last token starting at or before byte `offset`: its index, its
    /// stored token and `offset`, both relative to its chunk's bias.
    fn last_starting_by(&self, offset: usize) -> Option<(usize, TokenAt, usize)> {
        let k = self.spine.partition_point(|c| c.bias <= offset);
        let c = &self.spine[k.checked_sub(1)?];
        let rel = offset - c.bias;
        let j = c.entries.partition_point(|(t, _)| t.start <= rel) - 1;
        Some((c.first + j, c.entries[j].0, rel))
    }

    /// Index of the token covering byte `offset`, if any.
    pub fn token_index_at(&self, offset: usize) -> Option<usize> {
        let (ix, t, rel) = self.last_starting_by(offset)?;
        (rel < t.end()).then_some(ix)
    }

    /// Applies a relex outcome: tokens `[kept_prefix, len - kept_suffix)`
    /// are replaced by `new` (absolute coordinates in the *new* text), and
    /// the reused suffix shifts by `delta`.
    ///
    /// Rewrites the chunk holding the first replaced token and absorbs into
    /// it what survives of the chunk holding the last one; chunks fully
    /// inside the replaced range are dropped, and every later spine entry
    /// gets the token-count and byte deltas.
    pub fn splice(
        &mut self,
        kept_prefix: usize,
        new: &[(TokenAt, NodeId)],
        kept_suffix: usize,
        delta: isize,
    ) {
        let lo = kept_prefix;
        let hi = self
            .len
            .checked_sub(kept_suffix)
            .expect("suffix beyond tape");
        assert!(lo <= hi, "splice prefix and suffix overlap");
        let k = self.chunk_ix(lo);
        let last = if hi > lo { self.chunk_ix(hi - 1) } else { k };
        let spine = unshare(&mut self.spine, &mut self.copied);
        if spine.is_empty() {
            spine.push(Chunk::default());
        }
        // The surviving tail comes from the last covered chunk: shift it
        // from that chunk's bias to the new text, relative to chunk `k`.
        let tail = (last > k).then(|| spine.drain(k + 1..=last).next_back().expect("nonempty"));
        let c = &mut spine[k];
        let (p, base) = (lo - c.first, c.bias);
        let src = tail.as_ref().unwrap_or(&*c);
        let (q, shift) = (
            hi - src.first,
            src.bias.wrapping_add_signed(delta).wrapping_sub(base),
        );
        let v = unshare(&mut c.entries, &mut self.copied);
        let rel = new.iter().map(|e| shifted(e, base.wrapping_neg()));
        match &tail {
            None => {
                v.splice(p..q, rel);
            }
            Some(t) => {
                v.truncate(p);
                v.extend(rel);
                v.extend_from_slice(&t.entries[q..]);
            }
        }
        for (t, _) in &mut v[p + new.len()..] {
            t.start = t.start.wrapping_add(shift);
        }
        c.seal();
        let grown = new.len().wrapping_sub(hi - lo);
        for c in &mut spine[k + 1..] {
            c.first = c.first.wrapping_add(grown);
            c.bias = c.bias.wrapping_add_signed(delta);
        }
        self.len = self.len.wrapping_add(grown);
        Self::fit(spine, k);
    }

    /// Brings the rewritten chunk at spine position `k` back within bounds:
    /// drops it when empty, merges it into a neighbour when it holds fewer
    /// than `TAPE_CHUNK / 2` entries, and splits it into pieces of
    /// `TAPE_CHUNK..2 * TAPE_CHUNK` entries when it holds more than
    /// `2 * TAPE_CHUNK`. Only chunk `k` is written; the neighbour's entries
    /// are read into it.
    fn fit(spine: &mut Vec<Chunk>, mut k: usize) {
        if spine[k].entries.is_empty() {
            spine.remove(k);
            return;
        }
        if spine[k].entries.len() < TAPE_CHUNK / 2 && spine.len() > 1 {
            let right = k + 1 < spine.len();
            let other = spine.remove(if right { k + 1 } else { k - 1 });
            k -= usize::from(!right);
            let c = &mut spine[k];
            let shift = other.bias.wrapping_sub(c.bias);
            let at = if right { c.entries.len() } else { 0 };
            let moved = other.entries.iter().map(|e| shifted(e, shift));
            c.owned().splice(at..at, moved);
            c.first = c.first.min(other.first);
            c.seal();
        }
        let n = spine[k].entries.len();
        if n > 2 * TAPE_CHUNK {
            let pieces = n / TAPE_CHUNK;
            for i in (1..pieces).rev() {
                let c = &mut spine[k];
                let at = n * i / pieces;
                let entries = c.owned().split_off(at);
                let mut piece = Chunk {
                    first: c.first + at,
                    bias: c.bias,
                    reach: 0,
                    entries: Arc::new(entries),
                };
                piece.seal();
                spine.insert(k + 1, piece);
            }
            let c = &mut spine[k];
            c.owned().shrink_to(2 * TAPE_CHUNK);
            c.seal();
        }
    }
}

impl TokenSource for TokenTape {
    fn len(&self) -> usize {
        self.len
    }

    /// The `ix`-th token, in absolute coordinates.
    fn token(&self, ix: usize) -> TokenAt {
        let c = &self.spine[self.chunk_ix(ix)];
        let t = c.entries[ix - c.first].0;
        TokenAt {
            start: t.start + c.bias,
            ..t
        }
    }

    /// The take-while of the slice implementation: the first chunk whose
    /// furthest examined byte passes `edit_start` holds the first token
    /// that does.
    fn kept_prefix(&self, edit_start: usize) -> usize {
        self.spine
            .iter()
            .find(|c| c.bias.saturating_add(c.reach) > edit_start)
            .map_or(self.len, |c| {
                c.first
                    + c.entries
                        .iter()
                        .take_while(|(t, _)| t.scan_end().saturating_add(c.bias) <= edit_start)
                        .count()
            })
    }

    fn find_start(&self, start: usize) -> Option<usize> {
        let (ix, t, rel) = self.last_starting_by(start)?;
        (t.start == rel).then_some(ix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wg_lexer::RuleId;

    fn tok(start: usize, len: usize, la: usize) -> TokenAt {
        TokenAt {
            rule: RuleId(0),
            start,
            len,
            lookahead: la,
        }
    }

    /// `n` distinct terminal nodes.
    fn nids(n: usize) -> Vec<NodeId> {
        let mut arena = wg_dag::DagArena::new();
        (0..n)
            .map(|k| arena.terminal(wg_grammar::Terminal::from_index(0), &format!("t{k}")))
            .collect()
    }

    fn nid(i: u32) -> NodeId {
        nids(i as usize + 1)[i as usize]
    }

    /// Tokens `i*4 .. i*4+3` with 1 byte of lookahead each.
    fn sample(n: usize) -> TokenTape {
        let mut tape = TokenTape::new();
        tape.rebuild((0..n).map(|i| (tok(i * 4, 3, 1), nid(i as u32))));
        tape
    }

    #[test]
    fn rebuild_and_query() {
        let tape = sample(5);
        assert_eq!(tape.len(), 5);
        assert!(!tape.is_empty());
        assert_eq!(tape.token(2).start, 8);
        assert_eq!(tape.node(2), nid(2));
        assert_eq!(tape.token_index_at(9), Some(2));
        assert_eq!(tape.token_index_at(11), None, "gap between tokens");
        assert_eq!(tape.token_index_at(999), None);
    }

    #[test]
    fn identity_splices_preserve_contents() {
        let mut tape = sample(6);
        for &pos in &[3, 0, 6, 2, 5, 1] {
            // Replace the token at `pos` (or nothing, at the end) by itself.
            let n = usize::from(pos < 6);
            let same: Vec<_> = (pos..pos + n)
                .map(|i| (tape.token(i), tape.node(i)))
                .collect();
            tape.splice(pos, &same, 6 - pos - n, 0);
            for i in 0..6 {
                assert_eq!(tape.token(i).start, i * 4, "splice at {pos}");
                assert_eq!(tape.node(i), nid(i as u32));
            }
        }
    }

    #[test]
    fn splice_shifts_suffix_by_delta() {
        let mut tape = sample(5);
        // Replace token 2 (start 8) by two tokens, net +4 bytes.
        let new = vec![(tok(8, 3, 1), nid(7)), (tok(12, 3, 1), nid(8))];
        tape.splice(2, &new, 2, 4);
        assert_eq!(tape.len(), 6);
        let starts: Vec<usize> = (0..6).map(|i| tape.token(i).start).collect();
        assert_eq!(starts, vec![0, 4, 8, 12, 16, 20]);
        assert_eq!(tape.node(3), nid(8));
        assert_eq!(tape.node(4), nid(3), "suffix nodes survive");
        // A second splice compounds the shift.
        let new = vec![(tok(0, 2, 1), nid(9))];
        tape.splice(0, &new, 5, -1);
        let starts: Vec<usize> = (0..6).map(|i| tape.token(i).start).collect();
        assert_eq!(starts, vec![0, 3, 7, 11, 15, 19]);
    }

    #[test]
    fn token_source_prefix_and_sync() {
        let tape = sample(5);
        // Edit inside token 2's yield (offset 9).
        // Tokens 0 and 1 have scan_end 4 and 8 <= 9; token 2 scans to 12.
        assert_eq!(tape.kept_prefix(9), 2);
        assert_eq!(tape.find_start(16), Some(4));
        assert_eq!(tape.find_start(17), None);
        assert_eq!(tape.find_start(4), Some(1));
        assert_eq!(tape.token(4).start, 16);
    }

    #[test]
    fn lookahead_chain_shrinks_kept_prefix() {
        let mut tape = TokenTape::new();
        // Token 1 has lookahead reaching into token 2's successor region.
        tape.rebuild(vec![
            (tok(0, 3, 1), nid(0)),
            (tok(4, 3, 6), nid(1)), // scan_end 13
            (tok(8, 3, 1), nid(2)),
        ]);
        assert_eq!(
            tape.kept_prefix(12),
            1,
            "token 1's lookahead reaches the edit, so only token 0 is safe"
        );
    }

    #[test]
    fn set_node_on_both_sides_of_a_splice() {
        let mut tape = sample(4);
        tape.splice(2, &[], 2, 0);
        tape.set_node(3, nid(9));
        assert_eq!(tape.node(3), nid(9));
        tape.set_node(1, nid(8));
        assert_eq!(tape.node(1), nid(8));
    }

    fn assert_same_reads(tape: &TokenTape, live: &TokenTape) {
        assert_eq!(tape.len(), live.len());
        for i in 0..tape.len() {
            assert_eq!(tape.token(i), live.token(i), "token {i}");
            assert_eq!(tape.node(i), live.node(i), "node {i}");
        }
        let max = live.token(tape.len().saturating_sub(1)).end() + 4;
        for off in 0..max {
            assert_eq!(
                tape.token_index_at(off),
                live.token_index_at(off),
                "offset {off}"
            );
        }
    }

    #[test]
    fn snapshot_mirrors_tape_and_survives_mutation() {
        let mut tape = sample(6);
        tape.splice(3, &[], 3, 0);
        let snap = tape.clone();
        assert_same_reads(&snap, &tape);
        // Mutate the live tape: the snapshot must keep the old view.
        let new = vec![(tok(8, 5, 1), nid(7))];
        tape.splice(2, &new, 3, 2);
        assert_eq!(snap.len(), 6);
        assert_eq!(snap.token(2).start, 8);
        assert_eq!(snap.token(2).len, 3, "old token, not the spliced one");
        assert_eq!(snap.token(5).start, 20, "unshifted suffix");
        // A fresh publish sees the new state.
        let snap2 = tape.clone();
        assert_same_reads(&snap2, &tape);
        assert_eq!(snap2.token(2).len, 5);
        assert_eq!(snap2.token(5).start, 22);
    }

    #[test]
    fn publish_shares_untouched_chunks() {
        // Two chunks; the edit lands in the second.
        let n = 2 * TAPE_CHUNK + 50;
        let mut tape = TokenTape::new();
        tape.rebuild((0..n).map(|i| (tok(i * 4, 3, 1), NodeId::NONE)));
        let s1 = tape.clone();
        // Edit near the end: only the tail chunk should churn.
        let edit_at = (n - 3) * 4;
        let new = vec![(tok(edit_at, 3, 1), NodeId::NONE)];
        let copied = tape.copied_chunks();
        tape.splice(n - 3, &new, 2, 0);
        assert_eq!(tape.copied_chunks() - copied, 2, "the spine and one chunk");
        let s2 = tape.clone();
        assert!(
            Arc::ptr_eq(&s1.spine[0].entries, &s2.spine[0].entries),
            "untouched chunk shared"
        );
        assert!(
            !Arc::ptr_eq(&s1.spine[1].entries, &s2.spine[1].entries),
            "edited chunk copied"
        );
        assert_same_reads(&s2, &tape);
        // Without a reader the next splice copies nothing.
        drop((s1, s2));
        let copied = tape.copied_chunks();
        tape.splice(n - 3, &new, 2, 0);
        assert_eq!(tape.copied_chunks(), copied);
    }

    #[test]
    fn snapshot_of_empty_tape() {
        let tape = TokenTape::new();
        let snap = tape.clone();
        assert!(snap.is_empty());
        assert_eq!(snap.token_index_at(0), None);
        assert_eq!(snap.kept_prefix(0), 0);
        assert_eq!(snap.find_start(0), None);
    }

    #[test]
    fn eof_clamped_scan_blocks_prefix_reuse() {
        let mut tape = TokenTape::new();
        tape.rebuild(vec![
            (tok(0, 3, 1), nid(0)),
            (tok(4, 3, usize::MAX), nid(1)),
            (tok(8, 3, 1), nid(2)),
        ]);
        assert_eq!(
            tape.kept_prefix(100),
            1,
            "an EOF-clamped token can never be reused past its start"
        );
    }

    /// Random tokens laid out from byte `from`: gaps of 0–2 bytes, lengths
    /// 1–4, lookahead mostly 0–2 and sometimes long or EOF-clamped.
    fn random_tokens(rng: &mut TestRng, n: usize, from: usize) -> Vec<TokenAt> {
        let mut at = from;
        (0..n)
            .map(|_| {
                let start = at + rng.below(3);
                let len = 1 + rng.below(4);
                at = start + len;
                let la = match rng.below(40) {
                    0 => usize::MAX,
                    1 => 30 + rng.below(3000),
                    _ => rng.below(3),
                };
                tok(start, len, la)
            })
            .collect()
    }

    /// Checks every token and node of `tape` against the model and the
    /// chunk bounds; with `probe`, also the position queries against the
    /// slice implementation at sampled offsets.
    fn check(
        tape: &TokenTape,
        model: &[(TokenAt, NodeId)],
        probe: bool,
    ) -> Result<(), TestCaseError> {
        let toks: Vec<TokenAt> = model.iter().map(|&(t, _)| t).collect();
        prop_assert_eq!(tape.len(), model.len());
        prop_assert_eq!(tape.nodes().collect::<Vec<_>>().len(), model.len());
        for (i, (&(t, n), m)) in model.iter().zip(tape.nodes()).enumerate() {
            prop_assert_eq!(tape.token(i), t, "token {}", i);
            prop_assert_eq!(tape.node(i), n, "node {}", i);
            prop_assert_eq!(m, n, "nodes() at {}", i);
        }
        let mut first = 0;
        for c in tape.spine.iter() {
            prop_assert!(!c.entries.is_empty(), "empty chunk");
            prop_assert!(c.entries.len() <= 2 * TAPE_CHUNK, "oversized chunk");
            prop_assert!(
                tape.spine.len() == 1 || c.entries.len() >= TAPE_CHUNK / 2,
                "undersized chunk"
            );
            prop_assert_eq!(c.first, first);
            first += c.entries.len();
        }
        if !probe {
            return Ok(());
        }
        let end = toks.last().map_or(0, |t| t.end());
        let step = 1 + toks.len() / 32;
        let probes = (0..end + 3)
            .step_by(1 + end / 32)
            .chain(toks.iter().step_by(step).map(|t| t.start));
        for off in probes {
            prop_assert_eq!(
                tape.kept_prefix(off),
                toks.kept_prefix(off),
                "kept_prefix({})",
                off
            );
            prop_assert_eq!(
                tape.find_start(off),
                toks.find_start(off),
                "find_start({})",
                off
            );
            let covering = toks.iter().position(|t| t.start <= off && off < t.end());
            prop_assert_eq!(
                tape.token_index_at(off),
                covering,
                "token_index_at({})",
                off
            );
        }
        prop_assert_eq!(tape.kept_prefix(usize::MAX), toks.kept_prefix(usize::MAX));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn tape_matches_vec_model(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let ids = nids(64);
            let pairs = |rng: &mut TestRng, toks: Vec<TokenAt>| -> Vec<(TokenAt, NodeId)> {
                toks.into_iter().map(|t| (t, ids[rng.below(ids.len())])).collect()
            };
            let mut tape = TokenTape::new();
            let mut model: Vec<(TokenAt, NodeId)> = Vec::new();
            let mut held: Vec<(TokenTape, Vec<(TokenAt, NodeId)>)> = Vec::new();
            for _ in 0..30 {
                let before = tape.clone();
                let len = model.len();
                // The tape range this step rewrote, if any.
                let mut touched = None;
                match rng.below(10) {
                    0 => {
                        let n = [0, 1, TAPE_CHUNK, 3 * TAPE_CHUNK + 7][rng.below(4)];
                        let toks = random_tokens(&mut rng, n, 0);
                        model = pairs(&mut rng, toks);
                        tape.rebuild(model.clone());
                    }
                    1 if len > 0 => {
                        let ix = rng.below(len);
                        let n = ids[rng.below(ids.len())];
                        model[ix].1 = n;
                        tape.set_node(ix, n);
                        touched = Some((ix, ix + 1));
                    }
                    2 => {
                        held.push((tape.clone(), model.clone()));
                        if held.len() > 4 {
                            held.remove(rng.below(held.len()));
                        }
                    }
                    _ => {
                        // Ends, chunk boundaries, or anywhere; removing
                        // nothing, a few tokens, or whole chunks.
                        let lo = match rng.below(4) {
                            0 => 0,
                            1 => len,
                            2 => (rng.below(len / TAPE_CHUNK + 1) * TAPE_CHUNK).min(len),
                            _ => rng.below(len + 1),
                        };
                        let del = [0, 1, 1 + rng.below(4), rng.below(3 * TAPE_CHUNK)];
                        let hi = (lo + del[rng.below(4)]).min(len);
                        let count = [0, 1, 2, rng.below(40), rng.below(3 * TAPE_CHUNK)];
                        let left = if lo > 0 { model[lo - 1].0.end() } else { 0 };
                        let count = count[rng.below(5)];
                        let toks = random_tokens(&mut rng, count, left);
                        let new = pairs(&mut rng, toks);
                        let new_end = new.last().map_or(left, |(t, _)| t.end()) + rng.below(3);
                        let delta = match model.get(hi) {
                            Some((t, _)) => new_end as isize - t.start as isize,
                            None => rng.below(7) as isize - 3,
                        };
                        let suffix: Vec<_> = model[hi..]
                            .iter()
                            .map(|e| shifted(e, delta as usize))
                            .collect();
                        model.truncate(lo);
                        model.extend_from_slice(&new);
                        model.extend(suffix);
                        tape.splice(lo, &new, len - hi, delta);
                        touched = Some((lo, hi));
                    }
                }
                check(&tape, &model, true)?;
                for (snap, image) in &held {
                    check(snap, image, false)?;
                }
                // Chunks the step did not reach stay shared with the
                // previous publish: all but the ones holding the replaced
                // range and their two neighbours.
                if let Some((lo, hi)) = touched {
                    let a = before.chunk_ix(lo);
                    let b = before.chunk_ix(hi.saturating_sub(1).max(lo));
                    for (k, c) in before.spine.iter().enumerate() {
                        if k + 1 < a || k > b + 1 {
                            prop_assert!(
                                tape.spine.iter().any(|d| Arc::ptr_eq(&c.entries, &d.entries)),
                                "chunk {} copied by a step at {}..{}", k, lo, hi
                            );
                        }
                    }
                }
            }
        }
    }
}
