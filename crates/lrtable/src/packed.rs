//! Cache-dense packed encoding of the ACTION/GOTO tables.
//!
//! The naive table representation — one heap-allocated `Vec<Action>` per
//! `(state, terminal)` cell — costs a pointer chase per dispatch and
//! scatters the hot cells across the heap. This module packs the whole
//! table into a handful of flat `u32` arrays:
//!
//! * **Packed actions.** Every action is one `u32` with a 2-bit tag
//!   (shift / reduce / accept) and a 30-bit payload (state or production
//!   index). See [`PackedAction`].
//! * **CSR cells with inline singletons.** The cell array holds one word
//!   per `(state, terminal-class)` pair. `0` means *error*; a tagged word
//!   **is** the cell's single action (the common deterministic case: one
//!   load, zero indirections); an untagged nonzero word is an offset into
//!   a shared length-prefixed arena holding the conflicted cell's actions.
//! * **Terminal equivalence classes.** Terminals whose ACTION columns are
//!   identical across every state share one column, shrinking row width
//!   (and improving locality) without changing any lookup result.
//! * **Per-state default reductions.** When a state's only actions are
//!   the same non-ε reduction on every valid lookahead, the reduction is
//!   encoded once per state and dispatch may skip the lookahead-indexed
//!   fetch entirely (yacc's classic default-reduce rule: errors are still
//!   detected before any invalid terminal is shifted, merely after some
//!   extra reductions).
//! * **Packed GOTO and nonterminal reductions.** GOTO cells are bare
//!   `u32`s (`0` = error, else `state + 1`); the Section 3.2 nonterminal
//!   reduction lists live in one shared [`ProdId`] arena, each distinct
//!   list once, addressed by `(offset, length)` words instead of
//!   `Option<Vec<ProdId>>` boxes.
//!
//! The packed form is verified action-for-action identical to the naive
//! build by the differential tests in `tests/packed_diff.rs` and in
//! `wg-langs` (every in-repo grammar, plus random grammars).

use crate::automaton::StateId;
use crate::table::Action;
use std::fmt;
use wg_grammar::fx::FxHashMap;
use wg_grammar::{Grammar, GrammarAnalysis, NonTerminal, ProdId, Terminal};

/// A packed-encoding field overflow: the table is too large for the
/// fixed bit-widths of the packed representation. Construction reports
/// these as structured errors instead of truncating or panicking —
/// real-scale grammars must fail loudly, not corrupt cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackError {
    /// A shift target exceeds the 30-bit action payload.
    StatePayload {
        /// The offending state index.
        state: usize,
    },
    /// A production index exceeds the 30-bit action payload.
    ProductionPayload {
        /// The offending production index.
        production: usize,
    },
    /// More terminal equivalence classes than a `u16` can index.
    TermClasses {
        /// The class count that no longer fits.
        classes: usize,
    },
    /// The conflict arena grew past 30-bit offsets.
    ArenaOffset {
        /// The arena length in words at overflow.
        words: usize,
    },
    /// A nonterminal-reduction list exceeds the 5-bit length field.
    NtListLen {
        /// The offending list length.
        len: usize,
    },
    /// The nonterminal-reduction arena grew past 27-bit offsets.
    NtArenaOffset {
        /// The arena length in entries at overflow.
        words: usize,
    },
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::StatePayload { state } => {
                write!(f, "state index {state} exceeds the 30-bit action payload")
            }
            PackError::ProductionPayload { production } => write!(
                f,
                "production index {production} exceeds the 30-bit action payload"
            ),
            PackError::TermClasses { classes } => {
                write!(f, "{classes} terminal classes exceed the u16 class index")
            }
            PackError::ArenaOffset { words } => {
                write!(f, "conflict arena of {words} words exceeds 30-bit offsets")
            }
            PackError::NtListLen { len } => {
                write!(f, "nt-reduction list of {len} entries exceeds 5-bit length")
            }
            PackError::NtArenaOffset { words } => {
                write!(f, "nt arena of {words} entries exceeds 27-bit offsets")
            }
        }
    }
}

impl std::error::Error for PackError {}

/// Tag of a packed shift action (payload = target state index).
pub(crate) const TAG_SHIFT: u32 = 1;
/// Tag of a packed reduce action (payload = production index).
pub(crate) const TAG_REDUCE: u32 = 2;
/// Tag of a packed accept action (payload unused).
pub(crate) const TAG_ACCEPT: u32 = 3;
/// Bit position of the 2-bit tag.
pub(crate) const TAG_BITS: u32 = 30;
/// Mask of the 30-bit payload.
pub(crate) const PAYLOAD_MASK: u32 = (1 << TAG_BITS) - 1;

/// One parse action packed into a tagged `u32`.
///
/// Tag `0` never encodes an action: in the cell array it marks an empty
/// cell (payload `0`) or an arena offset (payload `> 0`), so a tagged
/// word can double as a one-action cell *in place*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedAction(pub u32);

impl PackedAction {
    /// Packs an action. Panics if an index exceeds 30 bits; fallible
    /// construction goes through [`PackedAction::try_encode`].
    #[inline]
    pub fn encode(a: Action) -> PackedAction {
        Self::try_encode(a).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Packs an action, reporting a [`PackError`] when the payload does
    /// not fit its 30 bits.
    #[inline]
    pub fn try_encode(a: Action) -> Result<PackedAction, PackError> {
        let (tag, payload) = match a {
            Action::Shift(s) => {
                if s.0 > PAYLOAD_MASK {
                    return Err(PackError::StatePayload {
                        state: s.0 as usize,
                    });
                }
                (TAG_SHIFT, s.0)
            }
            Action::Reduce(p) => {
                if p.index() as u64 > PAYLOAD_MASK as u64 {
                    return Err(PackError::ProductionPayload {
                        production: p.index(),
                    });
                }
                (TAG_REDUCE, p.index() as u32)
            }
            Action::Accept => (TAG_ACCEPT, 0),
        };
        Ok(PackedAction((tag << TAG_BITS) | payload))
    }

    /// Unpacks the action. Must only be called on tagged words.
    #[inline]
    pub fn decode(self) -> Action {
        let payload = self.0 & PAYLOAD_MASK;
        match self.0 >> TAG_BITS {
            TAG_SHIFT => Action::Shift(StateId(payload)),
            TAG_REDUCE => Action::Reduce(ProdId::from_index(payload as usize)),
            TAG_ACCEPT => Action::Accept,
            _ => unreachable!("untagged word decoded as action"),
        }
    }
}

/// A borrowed view of one ACTION cell: a slice of packed action words.
///
/// `Copy`, so the hot loops fetch a cell **once** and iterate it across
/// arbitrary `&mut self` calls — no per-action re-lookup of
/// `(state, terminal)`.
#[derive(Debug, Clone, Copy)]
pub struct Cell<'a> {
    words: &'a [u32],
}

impl<'a> Cell<'a> {
    /// The empty (error) cell.
    #[inline]
    pub const fn empty() -> Cell<'a> {
        Cell { words: &[] }
    }

    #[inline]
    pub(crate) fn from_words(words: &'a [u32]) -> Cell<'a> {
        Cell { words }
    }

    /// Number of actions in the cell.
    #[inline]
    pub fn len(self) -> usize {
        self.words.len()
    }

    /// Whether the cell is empty (a syntax error).
    #[inline]
    pub fn is_empty(self) -> bool {
        self.words.is_empty()
    }

    /// The `i`-th action.
    #[inline]
    pub fn get(self, i: usize) -> Action {
        PackedAction(self.words[i]).decode()
    }

    /// The first action, if any.
    #[inline]
    pub fn first(self) -> Option<Action> {
        self.words.first().map(|&w| PackedAction(w).decode())
    }

    /// Iterates the actions.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = Action> + 'a {
        self.words.iter().map(|&w| PackedAction(w).decode())
    }

    /// The actions, decoded into a fresh vector (diagnostics and tests).
    pub fn to_vec(self) -> Vec<Action> {
        self.iter().collect()
    }
}

impl<'a> IntoIterator for Cell<'a> {
    type Item = Action;
    type IntoIter = std::iter::Map<std::slice::Iter<'a, u32>, fn(&u32) -> Action>;

    fn into_iter(self) -> Self::IntoIter {
        self.words.iter().map(|&w| PackedAction(w).decode())
    }
}

/// Sentinel in the packed nonterminal-reduction index: no precomputed
/// reduction list (the incremental parser must break the subtree down).
pub(crate) const NT_NONE: u32 = u32::MAX;
/// Bits of an nt-index word reserved for the list length.
pub(crate) const NT_LEN_BITS: u32 = 5;
pub(crate) const NT_LEN_MASK: u32 = (1 << NT_LEN_BITS) - 1;
/// The index word of an empty nonterminal-reduction list.
pub(crate) const NT_EMPTY: u32 = 0;

/// Size and shape metrics of a packed table (Section 5-style reporting
/// and the `tables` bench's `BENCH_tables.json` artifact).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableStats {
    /// Automaton states.
    pub states: usize,
    /// Grammar terminals (columns before class merging).
    pub terminals: usize,
    /// Terminal equivalence classes (columns after merging).
    pub term_classes: usize,
    /// Nonempty ACTION entries over all `(state, terminal)` pairs.
    pub action_entries: usize,
    /// States carrying a default reduction.
    pub default_reduce_states: usize,
    /// Conflicted (multi-action) cells spilled to the shared arena.
    pub spilled_cells: usize,
    /// Total bytes of the packed arrays.
    pub packed_bytes: usize,
}

/// The packed ACTION/GOTO representation behind [`crate::LrTable`].
#[derive(Debug, Clone)]
pub(crate) struct PackedTables {
    pub(crate) num_classes: usize,
    pub(crate) num_nonterminals: usize,
    /// Terminal index → equivalence class.
    pub(crate) term_class: Vec<u16>,
    /// `cells[s * num_classes + class]`: `0` = error, tagged = inline
    /// single action, untagged nonzero = offset into `arena`.
    pub(crate) cells: Vec<u32>,
    /// Length-prefixed action lists for conflicted cells. Index 0 holds a
    /// pad word so offset 0 never addresses a real cell.
    pub(crate) arena: Vec<u32>,
    /// Per-state default reduction (packed `Reduce`, or `0` for none).
    pub(crate) default_reduce: Vec<u32>,
    /// `gotos[s * num_nonterminals + n]`: `0` = error, else `state + 1`.
    pub(crate) gotos: Vec<u32>,
    /// `(offset << 5 | len)` into `nt_pool`'s arena, [`NT_EMPTY`], or
    /// [`NT_NONE`].
    pub(crate) nt_cells: Vec<u32>,
    /// Shared storage for the precomputed nonterminal-reduction lists.
    pub(crate) nt_pool: NtPool,
    /// Nonempty ACTION entries before packing (per terminal, not class).
    pub(crate) action_entries: usize,
}

/// The Section 3.2 nonterminal-reduction lists of a table, each distinct
/// list stored once: a state's lists mostly repeat the same one or two
/// reductions, and `(state, nonterminal)` cells address them by word.
#[derive(Debug, Clone, Default)]
pub(crate) struct NtPool {
    pub(crate) arena: Vec<ProdId>,
    /// The index word of every list in `arena`.
    pub(crate) lists: Vec<u32>,
}

impl NtPool {
    /// The list an index word addresses (`NT_EMPTY` → empty).
    #[inline]
    pub(crate) fn list(&self, word: u32) -> &[ProdId] {
        let off = (word >> NT_LEN_BITS) as usize;
        let len = (word & NT_LEN_MASK) as usize;
        &self.arena[off..off + len]
    }
}

/// Builds an [`NtPool`], interning each list on first sight.
#[derive(Debug, Default)]
pub(crate) struct NtInterner {
    pool: NtPool,
    index: FxHashMap<Box<[ProdId]>, u32>,
}

impl NtInterner {
    /// Continues an old table's pool under a production map, keeping its
    /// offsets: every old index word whose list survives stays valid.
    /// Lists that lose a production are retired from the index; their
    /// arena words stay behind, unreferenced.
    pub(crate) fn remapped(old: &NtPool, prod_map: &[Option<ProdId>]) -> NtInterner {
        let arena: Vec<ProdId> = old
            .arena
            .iter()
            .map(|p| prod_map[p.index()].unwrap_or(ProdId::AUGMENTED))
            .collect();
        let mut index = FxHashMap::default();
        let mut lists = Vec::with_capacity(old.lists.len());
        for &word in &old.lists {
            let off = (word >> NT_LEN_BITS) as usize;
            let list = &arena[off..off + (word & NT_LEN_MASK) as usize];
            // The augmented production is never reduced, so it marks a
            // retired production.
            if !list.contains(&ProdId::AUGMENTED) {
                index.insert(list.into(), word);
                lists.push(word);
            }
        }
        NtInterner {
            pool: NtPool { arena, lists },
            index,
        }
    }

    /// The index word of `list`, storing the list if it is new.
    pub(crate) fn intern(&mut self, list: impl Iterator<Item = ProdId>) -> Result<u32, PackError> {
        let arena = &mut self.pool.arena;
        let off = arena.len();
        arena.extend(list);
        if arena.len() == off {
            return Ok(NT_EMPTY);
        }
        if let Some(&word) = self.index.get(&arena[off..]) {
            arena.truncate(off);
            return Ok(word);
        }
        let word = nt_cell_word(off, arena.len() - off)?;
        self.index.insert(arena[off..].into(), word);
        self.pool.lists.push(word);
        Ok(word)
    }

    /// The list an index word addresses.
    pub(crate) fn list(&self, word: u32) -> &[ProdId] {
        self.pool.list(word)
    }

    pub(crate) fn finish(self) -> NtPool {
        self.pool
    }
}

/// Checked `u16` terminal-class index.
pub(crate) fn class_id(n: usize) -> Result<u16, PackError> {
    u16::try_from(n).map_err(|_| PackError::TermClasses { classes: n + 1 })
}

/// Checked 30-bit conflict-arena offset.
pub(crate) fn arena_offset(words: usize) -> Result<u32, PackError> {
    if words as u64 > PAYLOAD_MASK as u64 {
        Err(PackError::ArenaOffset { words })
    } else {
        Ok(words as u32)
    }
}

/// Checked `(offset << 5 | len)` nonterminal-reduction index word. Every
/// empty list is the word [`NT_EMPTY`], whatever the arena length.
pub(crate) fn nt_cell_word(off: usize, len: usize) -> Result<u32, PackError> {
    if len == 0 {
        return Ok(NT_EMPTY);
    }
    if len > NT_LEN_MASK as usize {
        return Err(PackError::NtListLen { len });
    }
    if off as u64 >= (u32::MAX >> NT_LEN_BITS) as u64 {
        return Err(PackError::NtArenaOffset { words: off });
    }
    Ok(((off as u32) << NT_LEN_BITS) | len as u32)
}

/// The actions of class column `c` of a packed row: empty, the inline
/// word itself, or the conflict cell's arena slice.
#[inline]
fn cell_words<'a>(row: &'a [u32], c: usize, arena: &'a [u32]) -> &'a [u32] {
    let word = row[c];
    if word == 0 {
        &[]
    } else if word >> TAG_BITS != 0 {
        std::slice::from_ref(&row[c])
    } else {
        let off = word as usize;
        &arena[off + 1..off + 1 + arena[off] as usize]
    }
}

/// The reductions among a cell's packed action words, in cell order.
#[inline]
fn reduces(words: &[u32]) -> impl Iterator<Item = ProdId> + '_ {
    words
        .iter()
        .filter(|&&w| w >> TAG_BITS == TAG_REDUCE)
        .map(|&w| ProdId::from_index((w & PAYLOAD_MASK) as usize))
}

/// The reductions a packed row commands on terminal `t`, in cell order.
#[inline]
pub(crate) fn reduces_on<'a>(
    row: &'a [u32],
    term_class: &[u16],
    arena: &'a [u32],
    t: Terminal,
) -> impl Iterator<Item = ProdId> + 'a {
    reduces(cell_words(row, term_class[t.index()] as usize, arena))
}

/// The Section 3.2 nonterminal reductions of one packed row for lookahead
/// `n`: the reductions valid in that state with `n` as lookahead exist
/// when `n` is not nullable and every terminal of FIRST(n) commands the
/// same reductions. On agreement the list is interned and its index word
/// returned; otherwise [`NT_NONE`].
///
/// The one routine behind both the canonical build and the incremental
/// update, and allocation-free: `reduce_la` (a superset of the terminals
/// the row reduces on) settles rows that cannot reduce on FIRST(n) with
/// one word-wise test, and cells holding the same packed word agree
/// without being decoded.
pub(crate) fn nt_reduction_word(
    an: &GrammarAnalysis,
    n: NonTerminal,
    row: &[u32],
    term_class: &[u16],
    arena: &[u32],
    reduce_la: &[u64],
    lists: &mut NtInterner,
) -> Result<u32, PackError> {
    if an.nullable(n) {
        return Ok(NT_NONE); // `provided that N does not generate ε`
    }
    let first = an.first(n);
    let mut terms = first.iter();
    let Some(t0) = terms.next() else {
        return Ok(NT_NONE);
    };
    if first.words().iter().zip(reduce_la).all(|(f, r)| f & r == 0) {
        return Ok(NT_EMPTY);
    }
    let c0 = term_class[t0.index()] as usize;
    let cell0 = cell_words(row, c0, arena);
    for t in terms {
        let c = term_class[t.index()] as usize;
        if row[c] != row[c0] && !reduces(cell_words(row, c, arena)).eq(reduces(cell0)) {
            return Ok(NT_NONE);
        }
    }
    lists.intern(reduces(cell0))
}

impl PackedTables {
    /// Packs the raw per-cell representation produced by table
    /// construction. `actions` is indexed `s * num_terminals + t` with
    /// canonical (sorted, deduplicated, statically filtered) cells.
    /// `reduce_la` holds, per state, `num_terminals.div_ceil(64)` words
    /// covering every terminal the state reduces on (see
    /// [`nt_reduction_word`]).
    /// `no_default[s]` bars state `s` from carrying a default reduction
    /// (states holding `%nonassoc`-induced error cells: defaulting would
    /// reduce straight through the deliberate error entry).
    pub(crate) fn pack(
        g: &Grammar,
        an: &GrammarAnalysis,
        num_states: usize,
        actions: &[Vec<Action>],
        gotos: &[Option<StateId>],
        reduce_la: &[u64],
        no_default: &[bool],
    ) -> Result<PackedTables, PackError> {
        let num_terminals = g.num_terminals();
        let num_nonterminals = g.num_nonterminals();

        // Terminal equivalence classes: group identical ACTION columns.
        let mut term_class = vec![0u16; num_terminals];
        let mut class_rep: Vec<usize> = Vec::new();
        {
            let mut seen: FxHashMap<Vec<&[Action]>, u16> = FxHashMap::default();
            for t in 0..num_terminals {
                let column: Vec<&[Action]> = (0..num_states)
                    .map(|s| actions[s * num_terminals + t].as_slice())
                    .collect();
                let next = class_id(class_rep.len())?;
                let class = *seen.entry(column).or_insert(next);
                if class == next {
                    class_rep.push(t);
                }
                term_class[t] = class;
            }
        }
        let num_classes = class_rep.len();

        // Pack the cells: one word per (state, class), conflicted cells
        // spilled into the shared arena.
        let mut cells = vec![0u32; num_states * num_classes];
        let mut arena = vec![0u32]; // pad: offset 0 is never a real cell
        for s in 0..num_states {
            for (c, &rep) in class_rep.iter().enumerate() {
                let cell = &actions[s * num_terminals + rep];
                cells[s * num_classes + c] = match cell.len() {
                    0 => 0,
                    1 => PackedAction::try_encode(cell[0])?.0,
                    n => {
                        let off = arena_offset(arena.len())?;
                        arena.push(n as u32);
                        for &a in cell {
                            arena.push(PackedAction::try_encode(a)?.0);
                        }
                        off
                    }
                };
            }
        }

        // Default reductions: a state qualifies when every nonempty cell
        // holds exactly the same single non-ε reduction. (ε-reductions are
        // excluded so a defaulted reduce always pops at least one stack
        // entry — the naive table's termination argument carries over
        // unchanged even on error lookaheads.) States in `no_default` are
        // skipped outright: their empty cells are deliberate `%nonassoc`
        // errors, not don't-cares, and must be consulted.
        let mut default_reduce = vec![0u32; num_states];
        for s in 0..num_states {
            if no_default.get(s).copied().unwrap_or(false) {
                continue;
            }
            let mut agreed: Option<ProdId> = None;
            let mut ok = true;
            for &rep in class_rep.iter().take(num_classes) {
                let cell = &actions[s * num_terminals + rep];
                match cell.as_slice() {
                    [] => {}
                    [Action::Reduce(p)] if g.production(*p).arity() > 0 => match agreed {
                        None => agreed = Some(*p),
                        Some(prev) if prev == *p => {}
                        Some(_) => {
                            ok = false;
                            break;
                        }
                    },
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                if let Some(p) = agreed {
                    default_reduce[s] = PackedAction::try_encode(Action::Reduce(p))?.0;
                }
            }
        }

        // GOTO: 0 = error, else state + 1 (StateId 0 is the start state,
        // which is never a goto *target* in an LR(0) automaton — but +1
        // keeps the encoding honest regardless).
        let packed_gotos: Vec<u32> = gotos.iter().map(|g| g.map_or(0, |s| s.0 + 1)).collect();

        // Nonterminal reductions, read off the packed rows: interned
        // lists, (offset, len) words.
        let words = num_terminals.div_ceil(64);
        let mut nt_cells = vec![NT_NONE; num_states * num_nonterminals];
        let mut lists = NtInterner::default();
        for s in 0..num_states {
            let row = &cells[s * num_classes..(s + 1) * num_classes];
            let row_la = &reduce_la[s * words..(s + 1) * words];
            for n in 0..num_nonterminals {
                nt_cells[s * num_nonterminals + n] = nt_reduction_word(
                    an,
                    NonTerminal::from_index(n),
                    row,
                    &term_class,
                    &arena,
                    row_la,
                    &mut lists,
                )?;
            }
        }

        let action_entries = actions.iter().map(|c| c.len()).sum();
        Ok(PackedTables {
            num_classes,
            num_nonterminals,
            term_class,
            cells,
            arena,
            default_reduce,
            gotos: packed_gotos,
            nt_cells,
            nt_pool: lists.finish(),
            action_entries,
        })
    }

    /// The ACTION cell for `(state, terminal)`.
    #[inline]
    pub(crate) fn cell(&self, s: StateId, t: Terminal) -> Cell<'_> {
        let idx = s.index() * self.num_classes + self.term_class[t.index()] as usize;
        let word = self.cells[idx];
        if word == 0 {
            Cell::empty()
        } else if word >> TAG_BITS != 0 {
            Cell::from_words(std::slice::from_ref(&self.cells[idx]))
        } else {
            let off = word as usize;
            let n = self.arena[off] as usize;
            Cell::from_words(&self.arena[off + 1..off + 1 + n])
        }
    }

    /// The state's default reduction, if it has one.
    #[inline]
    pub(crate) fn default_reduction(&self, s: StateId) -> Option<ProdId> {
        let word = self.default_reduce[s.index()];
        if word == 0 {
            None
        } else {
            Some(ProdId::from_index((word & PAYLOAD_MASK) as usize))
        }
    }

    /// The GOTO target for `(state, nonterminal)`.
    #[inline]
    pub(crate) fn goto(&self, s: StateId, n: NonTerminal) -> Option<StateId> {
        let word = self.gotos[s.index() * self.num_nonterminals + n.index()];
        if word == 0 {
            None
        } else {
            Some(StateId(word - 1))
        }
    }

    /// The precomputed nonterminal reductions for `(state, nonterminal)`.
    #[inline]
    pub(crate) fn nt_reductions(&self, s: StateId, n: NonTerminal) -> Option<&[ProdId]> {
        let word = self.nt_cells[s.index() * self.num_nonterminals + n.index()];
        (word != NT_NONE).then(|| self.nt_pool.list(word))
    }

    /// Nonempty ACTION entries over all `(state, terminal)` pairs.
    pub(crate) fn action_entries(&self) -> usize {
        self.action_entries
    }

    /// Size and shape metrics.
    pub(crate) fn stats(&self, num_states: usize, num_terminals: usize) -> TableStats {
        let packed_bytes = self.cells.len() * 4
            + self.arena.len() * 4
            + self.term_class.len() * 2
            + self.default_reduce.len() * 4
            + self.gotos.len() * 4
            + self.nt_cells.len() * 4
            + self.nt_pool.arena.len() * std::mem::size_of::<ProdId>()
            + self.nt_pool.lists.len() * 4;
        TableStats {
            states: num_states,
            terminals: num_terminals,
            term_classes: self.num_classes,
            action_entries: self.action_entries,
            default_reduce_states: self.default_reduce.iter().filter(|&&w| w != 0).count(),
            spilled_cells: self
                .cells
                .iter()
                .filter(|&&w| w != 0 && w >> TAG_BITS == 0)
                .count(),
            packed_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_action_roundtrip() {
        for a in [
            Action::Shift(StateId(0)),
            Action::Shift(StateId(12345)),
            Action::Reduce(ProdId::from_index(0)),
            Action::Reduce(ProdId::from_index(7)),
            Action::Accept,
        ] {
            assert_eq!(PackedAction::encode(a).decode(), a);
        }
    }

    #[test]
    fn tagged_words_are_nonzero() {
        // The cell array relies on every packed action being distinguishable
        // from the empty-cell word 0 and from untagged arena offsets.
        for a in [
            Action::Shift(StateId(0)),
            Action::Reduce(ProdId::from_index(0)),
            Action::Accept,
        ] {
            let w = PackedAction::encode(a).0;
            assert_ne!(w, 0);
            assert_ne!(w >> TAG_BITS, 0);
        }
    }

    #[test]
    fn state_payload_limit_is_a_structured_error() {
        // 2^30 - 1 fits; 2^30 does not.
        let max = (1u32 << 30) - 1;
        assert!(PackedAction::try_encode(Action::Shift(StateId(max))).is_ok());
        assert_eq!(
            PackedAction::try_encode(Action::Shift(StateId(max + 1))),
            Err(PackError::StatePayload {
                state: (max + 1) as usize
            })
        );
    }

    #[test]
    fn production_payload_limit_is_a_structured_error() {
        let max = ((1u32 << 30) - 1) as usize;
        assert!(PackedAction::try_encode(Action::Reduce(ProdId::from_index(max))).is_ok());
        assert_eq!(
            PackedAction::try_encode(Action::Reduce(ProdId::from_index(max + 1))),
            Err(PackError::ProductionPayload {
                production: max + 1
            })
        );
    }

    #[test]
    fn term_class_limit_is_a_structured_error() {
        assert_eq!(class_id(u16::MAX as usize), Ok(u16::MAX));
        assert_eq!(
            class_id(u16::MAX as usize + 1),
            Err(PackError::TermClasses {
                classes: u16::MAX as usize + 2
            })
        );
    }

    #[test]
    fn arena_offset_limit_is_a_structured_error() {
        let max = ((1u32 << 30) - 1) as usize;
        assert_eq!(arena_offset(max), Ok(max as u32));
        assert_eq!(
            arena_offset(max + 1),
            Err(PackError::ArenaOffset { words: max + 1 })
        );
    }

    #[test]
    fn nt_list_len_limit_is_a_structured_error() {
        assert!(nt_cell_word(0, 31).is_ok());
        assert_eq!(nt_cell_word(0, 32), Err(PackError::NtListLen { len: 32 }));
    }

    #[test]
    fn nt_arena_offset_limit_is_a_structured_error() {
        let max = (u32::MAX >> NT_LEN_BITS) as usize - 1;
        assert_eq!(nt_cell_word(max, 1), Ok(((max as u32) << NT_LEN_BITS) | 1));
        assert_eq!(
            nt_cell_word(max + 1, 1),
            Err(PackError::NtArenaOffset { words: max + 1 })
        );
    }

    #[test]
    fn pack_errors_render() {
        for e in [
            PackError::StatePayload { state: 1 << 30 },
            PackError::ProductionPayload {
                production: 1 << 30,
            },
            PackError::TermClasses { classes: 70_000 },
            PackError::ArenaOffset { words: 1 << 30 },
            PackError::NtListLen { len: 32 },
            PackError::NtArenaOffset { words: 1 << 27 },
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }

    #[test]
    fn cell_view_accessors() {
        let words = [
            PackedAction::encode(Action::Shift(StateId(3))).0,
            PackedAction::encode(Action::Reduce(ProdId::from_index(1))).0,
        ];
        let cell = Cell::from_words(&words);
        assert_eq!(cell.len(), 2);
        assert!(!cell.is_empty());
        assert_eq!(cell.get(0), Action::Shift(StateId(3)));
        assert_eq!(cell.first(), Some(Action::Shift(StateId(3))));
        assert_eq!(
            cell.to_vec(),
            vec![
                Action::Shift(StateId(3)),
                Action::Reduce(ProdId::from_index(1))
            ]
        );
        let copied = cell; // Copy: both views stay usable
        assert_eq!(copied.len(), cell.len());
        assert!(Cell::empty().is_empty());
        assert_eq!(Cell::empty().first(), None);
    }
}
