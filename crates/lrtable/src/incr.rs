//! Incremental LALR table generation.
//!
//! Given a built [`LrTable`] (which retains its LR(0) automaton with its
//! kernel index, LALR lookahead sets, grammar analysis and per-row
//! construction byproducts) plus the [`DeltaMap`] produced by
//! [`Grammar::apply_delta`], [`LrTable::update`] computes the table of the
//! edited grammar while structurally reusing everything the delta cannot
//! have touched:
//!
//! 1. **Clean states.** An old state is *clean* when every item of its
//!    closure survives the delta and no item's dot sits before a changed
//!    nonterminal — decidable from its transitions and kernel alone. A
//!    clean state's closure under the new grammar is exactly the
//!    production-remapped old closure, shared outright when the delta
//!    leaves its production ids in place, and its outgoing transition
//!    *symbols* are unchanged.
//! 2. **Canonical replay.** The new automaton is grown by replaying the
//!    exact worklist traversal of [`Lr0Automaton::build`] (same LIFO
//!    order, same sorted-symbol order, same kernel interning), except
//!    that clean states skip closure and successor-kernel computation:
//!    their successors' kernels are read off the old transition graph,
//!    and freshly derived kernels are matched to clean old states through
//!    the old automaton's kernel index. Because the traversal order is
//!    identical, the updated automaton gets the **same state numbering**
//!    a from-scratch build would produce — making "action-for-action
//!    equivalent" checkable cell by cell with no state-isomorphism
//!    mapping.
//! 3. **Row reuse.** A clean state's ACTION row is reused (its packed
//!    words translated — shift targets and production ids remapped, no
//!    re-resolution) when every reduction's new LALR lookahead set equals
//!    its old one. Lookaheads are recomputed for the whole automaton by
//!    the dense DeRemer–Pennello pass and compared per row against the
//!    retained old sets.
//! 4. **Split-only terminal classes.** New equivalence classes refine the
//!    old ones: terminals sharing an old class stay together unless a
//!    *dirty* row distinguishes them. Reused rows are then transformable
//!    class-by-class from the old packed words; classes may end up finer
//!    than a from-scratch pack, which changes table size but never any
//!    `(state, terminal)` lookup result.
//!
//! Conflict reports, `%nonassoc` no-default flags and default reductions
//! are likewise reassembled from per-row retained byproducts where the row
//! is reused, and recomputed only for dirty rows. The Section 3.2
//! nonterminal-reduction lists of a clean state's row carry over wherever
//! neither the row's changed lookahead terminals nor the change to FIRST
//! can alter them (see `NtDelta`); the rest go through the build's routine.

use crate::automaton::{EdgeLog, Lr0Automaton, StateId, SuccessorKernels};
use crate::item::{Item, ItemSet};
use crate::lalr::{has_bit, iter_bits, lalr_lookaheads, same_bits};
use crate::packed::{
    arena_offset, class_id, nt_reduction_word, reduces_on, NtInterner, PackedAction, PackedTables,
    NT_NONE, PAYLOAD_MASK, TAG_ACCEPT, TAG_BITS, TAG_REDUCE, TAG_SHIFT,
};
use crate::table::{
    resolve_cell, Action, ConflictKind, ConflictReport, LrTable, RowMeta, TableBuildError,
    TableKind,
};
use wg_grammar::fx::{fx_hash, FxHashMap};
use wg_grammar::{DeltaMap, Grammar, GrammarAnalysis, NonTerminal, ProdId, Symbol, Terminal};

/// Reuse metrics of one incremental table update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrStats {
    /// States in the updated automaton.
    pub states: usize,
    /// States whose closure was reused (remapped, not recomputed).
    pub states_reused: usize,
    /// States whose packed ACTION row was transformed from the old table
    /// instead of being rebuilt and re-resolved.
    pub rows_reused: usize,
    /// Whether the update fell back to a from-scratch build (SLR tables,
    /// or deltas that touch the augmented start production).
    pub full_rebuild: bool,
}

/// Maps items through a production map into `out`; `false` (with `out`
/// unspecified) when some item's production has no image. Production maps
/// preserve the relative order of surviving productions, so a canonical
/// input stays canonical.
fn map_items(items: &[Item], prod_map: &[Option<ProdId>], out: &mut Vec<Item>) -> bool {
    out.clear();
    for it in items {
        let Some(prod) = prod_map[it.prod.index()] else {
            return false;
        };
        out.push(Item { prod, dot: it.dot });
    }
    true
}

/// How a nonterminal's Section 3.2 inputs — nullability and FIRST — moved
/// between the grammars, deciding what a reused row (whose cells are its
/// old cells, remapped) can keep of its old nonterminal-reduction result.
enum NtDelta {
    /// Unchanged: the old result stands.
    Same,
    /// Non-nullable, and a non-empty FIRST only gained these terminals:
    /// an old disagreement stands, and an old list stands iff every added
    /// terminal commands exactly its reductions.
    Grown(Vec<Terminal>),
    /// Non-nullable, and FIRST only lost terminals (and is not empty):
    /// an old list stands; an old disagreement must be re-checked.
    Shrunk,
    /// Anything else (or a new nonterminal): recompute.
    Changed,
}

impl NtDelta {
    fn of(old: &GrammarAnalysis, new: &GrammarAnalysis, n: NonTerminal, nn_old: usize) -> NtDelta {
        if n.index() >= nn_old || old.nullable(n) != new.nullable(n) {
            return NtDelta::Changed;
        }
        let (o, w) = (old.first(n).words(), new.first(n).words());
        let at = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
        let len = o.len().max(w.len());
        let grew = (0..len).any(|i| at(w, i) & !at(o, i) != 0);
        let shrank = (0..len).any(|i| at(o, i) & !at(w, i) != 0);
        match (grew, shrank) {
            (false, false) => NtDelta::Same,
            _ if new.nullable(n) => NtDelta::Changed,
            // An old FIRST that was empty gave no result to keep.
            (true, false) if !old.first(n).is_empty() => {
                NtDelta::Grown(new.first(n).iter().filter(|t| !has_bit(o, *t)).collect())
            }
            (false, true) if !new.first(n).is_empty() => NtDelta::Shrunk,
            _ => NtDelta::Changed,
        }
    }
}

/// A dirty row's canonical cells, flat: terminal `t`'s actions are
/// `acts[start[t]..start[t + 1]]`.
struct RawRow {
    start: Vec<u32>,
    acts: Vec<Action>,
}

impl RawRow {
    fn cell(&self, t: usize) -> &[Action] {
        &self.acts[self.start[t] as usize..self.start[t + 1] as usize]
    }
}

/// Where the replay found a kernel.
#[derive(Clone, Copy)]
enum Origin {
    /// The remapped kernel of this old state (successor of a clean state).
    Old(StateId),
    /// Derived afresh from a dirty state's closure.
    Fresh,
}

/// Replay state for the canonical-traversal reconstruction.
struct ReplayCtx<'a> {
    new_g: &'a Grammar,
    old_auto: &'a Lr0Automaton,
    prod_map: &'a [Option<ProdId>],
    /// New → old production map (the inverse of `prod_map`).
    inv_prod: &'a [Option<ProdId>],
    /// The first old production whose id the delta changes (removed,
    /// modified or shifted); every production below it maps to itself.
    first_moved: usize,
    clean: &'a [bool],
    kernels: Vec<ItemSet>,
    closures: Vec<ItemSet>,
    index: FxHashMap<ItemSet, StateId>,
    /// Per new state: the clean old state it reuses, if any.
    old_of: Vec<Option<StateId>>,
    /// Per old state: the new state it became, if instantiated.
    old_to_new: Vec<Option<StateId>>,
    work: Vec<StateId>,
    scratch: Vec<Item>,
}

impl ReplayCtx<'_> {
    /// Interns a canonical `kernel`, creating (and scheduling) the state
    /// on first sight. A kernel that is the remapped kernel of a clean old
    /// state adopts that state's remapped closure; anything else pays the
    /// ordinary closure computation.
    fn intern(&mut self, kernel: &[Item], origin: Origin) -> StateId {
        // A clean old state's remapped kernel, reached before its state
        // was instantiated, cannot be interned yet: every path that
        // interns it records the state in `old_to_new`, which the caller
        // consulted first.
        let unseen = matches!(origin, Origin::Old(o) if self.clean[o.index()]);
        if !unseen {
            if let Some(&id) = self.index.get(kernel) {
                return id;
            }
        }
        // Old kernels are unique and the production map is injective, so
        // only one old state can match: the known origin, or — for a
        // freshly derived kernel — whichever old state has its preimage.
        let old = match origin {
            Origin::Old(o) => Some(o),
            Origin::Fresh => {
                let mut pre = std::mem::take(&mut self.scratch);
                let found = map_items(kernel, self.inv_prod, &mut pre)
                    .then(|| self.old_auto.state_of_kernel(&pre))
                    .flatten();
                self.scratch = pre;
                found
            }
        }
        .filter(|o| self.clean[o.index()]);
        let id = StateId(self.kernels.len() as u32);
        let (kernel, closure) = match old {
            // Productions below `first_moved` keep their ids: a set over
            // them is shared with the old automaton, not copied.
            Some(o)
                if self
                    .old_auto
                    .closure(o)
                    .items()
                    .last()
                    .is_some_and(|it| it.prod.index() < self.first_moved) =>
            {
                (
                    self.old_auto.kernel(o).clone(),
                    self.old_auto.closure(o).clone(),
                )
            }
            Some(o) => {
                let mut closure = Vec::with_capacity(self.old_auto.closure(o).len());
                let all = map_items(
                    self.old_auto.closure(o).items(),
                    self.prod_map,
                    &mut closure,
                );
                debug_assert!(all, "every item of a clean state survives");
                (
                    ItemSet::from_sorted(kernel.to_vec()),
                    ItemSet::from_sorted(closure),
                )
            }
            None => {
                let kernel = ItemSet::from_sorted(kernel.to_vec());
                let closure = kernel.closure(self.new_g);
                (kernel, closure)
            }
        };
        if let Some(o) = old {
            self.old_to_new[o.index()] = Some(id);
        }
        self.closures.push(closure);
        self.old_of.push(old);
        self.kernels.push(kernel.clone());
        self.index.insert(kernel, id);
        self.work.push(id);
        id
    }
}

impl LrTable {
    /// Incrementally updates this table to the grammar produced by
    /// [`Grammar::apply_delta`]: `old_g` is the grammar this table was
    /// built from, `new_g` and `map` are what `apply_delta` returned.
    ///
    /// The result is action-for-action equivalent to
    /// `LrTable::try_build(new_g, kind)` — same state numbering, same
    /// actions for every `(state, terminal)`, same GOTOs, default and
    /// nonterminal reductions, and the same conflict report — while
    /// reusing the closures and packed rows of every state the delta
    /// cannot reach. SLR tables (which retain no lookahead sets) and
    /// deltas removing the augmented start production fall back to a full
    /// rebuild, reported via [`IncrStats::full_rebuild`].
    ///
    /// # Errors
    ///
    /// Returns a [`TableBuildError`] when the new grammar is cyclic or a
    /// packed-encoding field overflows.
    pub fn update(
        &self,
        old_g: &Grammar,
        new_g: &Grammar,
        map: &DeltaMap,
    ) -> Result<(LrTable, IncrStats), TableBuildError> {
        debug_assert_eq!(map.prod_map.len(), old_g.num_productions());
        debug_assert_eq!(old_g.num_terminals(), self.num_terminals);

        let an = GrammarAnalysis::new(new_g);
        if let Some(&n) = an.cyclic_nonterminals(new_g).first() {
            return Err(TableBuildError::CyclicGrammar {
                nonterminal: new_g.nonterminal_name(n).to_string(),
            });
        }

        let augmented_survives = map.prod_map.first().copied().flatten() == Some(ProdId::AUGMENTED);
        let (Some(old_la), TableKind::Lalr, true) =
            (self.lookaheads.as_ref(), self.kind, augmented_survives)
        else {
            let table = LrTable::build_owned(new_g, an, self.kind)?;
            let stats = IncrStats {
                states: table.num_states(),
                states_reused: 0,
                rows_reused: 0,
                full_rebuild: true,
            };
            return Ok((table, stats));
        };

        // ---- 1. Classify old states: clean iff the delta cannot affect
        // the state's closure or its outgoing transition symbols, i.e.
        // every closure item survives and none has its dot before a
        // changed nonterminal. Both reduce to the transitions and the
        // kernel: a closure item's next symbol is a transition symbol, and
        // a non-kernel item is `B -> · γ` for a transition symbol `B` —
        // whose removed or modified productions mark `B` changed.
        let old_auto = &self.automaton;
        let old_n = old_auto.num_states();
        let mut clean = vec![false; old_n];
        for (s, slot) in clean.iter_mut().enumerate() {
            let sid = StateId(s as u32);
            *slot = old_auto
                .successors(sid)
                .iter()
                .all(|&(sym, _)| !matches!(sym, Symbol::N(n) if map.is_changed(n)))
                && old_auto
                    .kernel(sid)
                    .items()
                    .iter()
                    .all(|it| map.prod_map[it.prod.index()].is_some());
        }
        let mut inv_prod: Vec<Option<ProdId>> = vec![None; new_g.num_productions()];
        for (old_ix, m) in map.prod_map.iter().enumerate() {
            if let Some(p) = m {
                inv_prod[p.index()] = Some(ProdId::from_index(old_ix));
            }
        }

        // ---- 2. Canonical replay: identical traversal (and therefore
        // identical state numbering) to `Lr0Automaton::build(new_g)`,
        // with closure and successor-kernel computation skipped wherever a
        // clean old state already knows the answer.
        let mut ctx = ReplayCtx {
            new_g,
            old_auto,
            prod_map: &map.prod_map,
            inv_prod: &inv_prod,
            first_moved: map
                .prod_map
                .iter()
                .enumerate()
                .position(|(i, m)| *m != Some(ProdId::from_index(i)))
                .unwrap_or(map.prod_map.len()),
            clean: &clean,
            kernels: Vec::with_capacity(old_n),
            closures: Vec::with_capacity(old_n),
            index: FxHashMap::with_capacity_and_hasher(old_n, Default::default()),
            old_of: Vec::with_capacity(old_n),
            old_to_new: vec![None; old_n],
            work: Vec::new(),
            scratch: Vec::new(),
        };
        let start = ctx.intern(&[Item::start(ProdId::AUGMENTED)], Origin::Fresh);
        debug_assert_eq!(start, StateId::START);

        let mut next = SuccessorKernels::default();
        let mut kernel: Vec<Item> = Vec::new();
        let mut edges = EdgeLog::default();
        while let Some(state) = ctx.work.pop() {
            if let Some(s_old) = ctx.old_of[state.index()] {
                // Clean: the old state's transition symbols, in the same
                // ascending order, and each successor's kernel is the
                // remapped old kernel.
                let out = old_auto.successors(s_old).iter().map(|&(sym, t_old)| {
                    let target = match ctx.old_to_new[t_old.index()] {
                        Some(t) => t,
                        None => {
                            let all = map_items(
                                old_auto.kernel(t_old).items(),
                                &map.prod_map,
                                &mut kernel,
                            );
                            debug_assert!(all, "kernel items advance clean closure items");
                            let t = ctx.intern(&kernel, Origin::Old(t_old));
                            ctx.old_to_new[t_old.index()] = Some(t);
                            t
                        }
                    };
                    (sym, target)
                });
                edges.record(state, out);
            } else {
                // Dirty: successor kernels from the (fresh) closure, by the
                // same grouping `build` uses.
                next.compute(new_g, &ctx.closures[state.index()]);
                let out = (0..next.len()).map(|i| {
                    let (sym, items) = next.get(i);
                    (sym, ctx.intern(items, Origin::Fresh))
                });
                edges.record(state, out);
            }
        }

        let ReplayCtx {
            kernels,
            closures,
            index,
            old_of,
            old_to_new,
            ..
        } = ctx;
        let n_new = kernels.len();
        let states_reused = old_of.iter().filter(|o| o.is_some()).count();
        let auto_new = Lr0Automaton::from_parts(kernels, closures, edges, index);

        // ---- 3. Fresh lookaheads, then per-row comparison against the
        // retained old sets decides which clean rows are reusable
        // verbatim. A clean state's reductions are its old ones remapped,
        // in the same ascending order, so the two lists zip.
        let la_new = lalr_lookaheads(new_g, &an, &auto_new);
        let mut row_reused = vec![false; n_new];
        for (s, slot) in row_reused.iter_mut().enumerate() {
            let Some(s_old) = old_of[s] else { continue };
            let mut new_reds = la_new.reductions(StateId(s as u32));
            let mut old_reds = old_la.reductions(s_old);
            *slot = loop {
                match (new_reds.next(), old_reds.next()) {
                    (None, None) => break true,
                    (Some((pn, la_n)), Some((po, la_o))) => {
                        if inv_prod[pn.index()] != Some(po) || !same_bits(la_o, la_n) {
                            break false;
                        }
                    }
                    _ => break false,
                }
            };
        }

        // ---- 4. Raw rows for dirty states only, replicating the
        // canonical build's cells: shifts/accept from the transition
        // graph, reductions from the fresh lookaheads, in canonical cell
        // order, then the static precedence filters, tracking per-row
        // byproducts.
        let t_new = new_g.num_terminals();
        let t_old_count = old_g.num_terminals();
        let mut raw_rows: Vec<Option<RawRow>> = (0..n_new).map(|_| None).collect();
        let mut new_meta: Vec<RowMeta> = vec![RowMeta::default(); n_new];
        let mut new_no_default = vec![false; n_new];
        let mut bounds: Vec<u32> = Vec::new();
        let mut pos: Vec<u32> = Vec::new();
        let mut unresolved: Vec<Action> = Vec::new();
        let mut cell: Vec<Action> = Vec::new();
        for s in 0..n_new {
            if row_reused[s] {
                let s_old = old_of[s].expect("reused rows map to clean old states");
                new_meta[s] = self.row_meta[s_old.index()].clone();
                new_no_default[s] = self.no_default[s_old.index()];
                continue;
            }
            let sid = StateId(s as u32);
            // Bucket the row's actions by terminal (a counting sort): the
            // canonical cell order is the shift, the reductions by
            // ascending production — the order `reductions` yields — and
            // accept.
            let shifts = || {
                auto_new
                    .successors(sid)
                    .iter()
                    .filter_map(|&(sym, t)| match sym {
                        Symbol::T(term) => Some((term, t)),
                        Symbol::N(_) => None,
                    })
            };
            bounds.clear();
            bounds.resize(t_new + 1, 0);
            for (term, _) in shifts() {
                bounds[term.index() + 1] += 1;
            }
            for (_, la) in la_new.reductions(sid) {
                for t in iter_bits(la) {
                    bounds[t.index() + 1] += 1;
                }
            }
            for t in 0..t_new {
                bounds[t + 1] += bounds[t];
            }
            pos.clear();
            pos.extend_from_slice(&bounds[..t_new]);
            unresolved.clear();
            unresolved.resize(bounds[t_new] as usize, Action::Accept);
            let mut put = |t: Terminal, a: Action| {
                unresolved[pos[t.index()] as usize] = a;
                pos[t.index()] += 1;
            };
            for (term, t) in shifts().filter(|(term, _)| !term.is_eof()) {
                put(term, Action::Shift(t));
            }
            for (prod, la) in la_new.reductions(sid) {
                for t in iter_bits(la) {
                    put(t, Action::Reduce(prod));
                }
            }
            // The EOF shift's slot, last in its cell, already holds Accept.

            let mut row = RawRow {
                start: Vec::with_capacity(t_new + 1),
                acts: Vec::with_capacity(unresolved.len()),
            };
            let mut scratch = ConflictReport::default();
            let mut meta = RowMeta::default();
            for t in 0..t_new {
                row.start.push(row.acts.len() as u32);
                let actions = &unresolved[bounds[t] as usize..bounds[t + 1] as usize];
                if actions.len() < 2 {
                    row.acts.extend_from_slice(actions);
                    continue;
                }
                cell.clear();
                cell.extend_from_slice(actions);
                let term = Terminal::from_index(t);
                if resolve_cell(new_g, term, &mut cell, &mut scratch) {
                    new_no_default[s] = true;
                }
                if cell.len() > 1 {
                    let kind = if cell.iter().any(|a| matches!(a, Action::Shift(_))) {
                        ConflictKind::ShiftReduce
                    } else {
                        ConflictKind::ReduceReduce
                    };
                    meta.conflicts.push((term, kind));
                }
                row.acts.extend_from_slice(&cell);
            }
            row.start.push(row.acts.len() as u32);
            meta.resolved_by_precedence = scratch.resolved_by_precedence as u32;
            meta.nonassoc_errors = scratch.nonassoc_errors as u32;
            new_meta[s] = meta;
            raw_rows[s] = Some(row);
        }

        // Global report: concatenate per-row byproducts in (state,
        // terminal) order — the order the canonical build emits.
        let mut conflicts = ConflictReport::default();
        for (s, meta) in new_meta.iter().enumerate() {
            conflicts.resolved_by_precedence += meta.resolved_by_precedence as usize;
            conflicts.nonassoc_errors += meta.nonassoc_errors as usize;
            for &(t, k) in &meta.conflicts {
                conflicts.remaining.push((StateId(s as u32), t, k));
            }
        }

        // ---- 5. Terminal classes: refine the old classes by the dirty
        // rows' column signatures. Same old class + identical cells in
        // every dirty row ⇒ identical cells in every row, so members can
        // keep sharing a column. New terminals (no old class) only group
        // among themselves; their cells in reused rows are always empty —
        // a clean state's items never mention a new symbol, and a
        // reduction on a new terminal would have changed the row's
        // lookaheads, dirtying it.
        let old_pk = &self.packed;
        let dirty: Vec<usize> = (0..n_new).filter(|&s| !row_reused[s]).collect();
        // Each terminal's column over the dirty rows, digested row by row;
        // equal digests are confirmed cell by cell.
        let dirty_rows: Vec<&RawRow> = dirty
            .iter()
            .map(|&s| raw_rows[s].as_ref().expect("dirty row present"))
            .collect();
        let mut digest = vec![0u64; t_new];
        for row in &dirty_rows {
            for (t, d) in digest.iter_mut().enumerate() {
                *d = fx_hash((*d, row.cell(t)));
            }
        }
        let same_column = |a: usize, b: usize| dirty_rows.iter().all(|r| r.cell(a) == r.cell(b));
        let mut term_class = vec![0u16; t_new];
        let mut class_rep: Vec<usize> = Vec::new();
        let mut seen: FxHashMap<(Option<u16>, u64), Vec<u16>> = FxHashMap::default();
        for (t, tc) in term_class.iter_mut().enumerate() {
            let old_c = (t < t_old_count).then(|| old_pk.term_class[t]);
            let candidates = seen.entry((old_c, digest[t])).or_default();
            *tc = match candidates
                .iter()
                .find(|&&c| same_column(class_rep[c as usize], t))
            {
                Some(&c) => c,
                None => {
                    let c = class_id(class_rep.len())?;
                    class_rep.push(t);
                    candidates.push(c);
                    c
                }
            };
        }
        let num_classes = class_rep.len();
        let mut class_size = vec![0usize; num_classes];
        for &c in &term_class {
            class_size[c as usize] += 1;
        }

        // ---- 6. Cells, arena, default reductions. Dirty rows pack from
        // their raw cells exactly as `PackedTables::pack` would; reused
        // rows translate the old packed words in place — a shift's target
        // through `old_to_new`, a reduction's production through the
        // delta map — without decoding. Equal precedence inputs make
        // re-resolution unnecessary. The largest new ids are checked
        // against the payload width once, so translation cannot overflow.
        if n_new > 0 {
            PackedAction::try_encode(Action::Shift(StateId(n_new as u32 - 1)))?;
        }
        PackedAction::try_encode(Action::Reduce(ProdId::from_index(
            new_g.num_productions().saturating_sub(1),
        )))?;
        // `translated[tag * span + payload]` is the new word for an old
        // tagged word (a table lookup, no branch on the tag): shifts map
        // through `old_to_new`, reductions through the delta map, accept
        // and the empty word to themselves. Untagged nonzero words are
        // arena offsets, handled apart.
        let span = old_n.max(map.prod_map.len()).max(1);
        let mut translated = vec![0u32; 4 * span];
        for (o, t) in old_to_new.iter().enumerate() {
            if let Some(t) = t {
                translated[TAG_SHIFT as usize * span + o] = TAG_SHIFT << TAG_BITS | t.0;
            }
        }
        for (o, p) in map.prod_map.iter().enumerate() {
            if let Some(p) = p {
                translated[TAG_REDUCE as usize * span + o] =
                    TAG_REDUCE << TAG_BITS | p.index() as u32;
            }
        }
        translated[TAG_ACCEPT as usize * span] = TAG_ACCEPT << TAG_BITS;
        let remap_word = |w: u32| -> u32 {
            let new = translated[(w >> TAG_BITS) as usize * span + (w & PAYLOAD_MASK) as usize];
            debug_assert!(
                new != 0 || w == 0,
                "reused rows shift to instantiated states by surviving productions"
            );
            new
        };
        // The old column each new class reads in reused rows (`NO_COL`
        // for new-terminal classes, which are empty there).
        const NO_COL: u32 = u32::MAX;
        let old_col: Vec<u32> = class_rep
            .iter()
            .map(|&rep| {
                if rep < t_old_count {
                    u32::from(old_pk.term_class[rep])
                } else {
                    NO_COL
                }
            })
            .collect();

        let mut cells = vec![0u32; n_new * num_classes];
        let mut arena = vec![0u32]; // pad: offset 0 is never a real cell
        let mut default_reduce = vec![0u32; n_new];
        let mut action_entries = 0usize;
        for s in 0..n_new {
            if let Some(row) = &raw_rows[s] {
                for (c, &rep) in class_rep.iter().enumerate() {
                    let cell = row.cell(rep);
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
                action_entries += row.acts.len();
                if !new_no_default[s] {
                    let mut agreed: Option<ProdId> = None;
                    let mut ok = true;
                    for &rep in &class_rep {
                        match row.cell(rep) {
                            [] => {}
                            [Action::Reduce(p)] if new_g.production(*p).arity() > 0 => match agreed
                            {
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
            } else {
                let s_old = old_of[s]
                    .expect("reused rows map to clean old states")
                    .index();
                let old_row = &old_pk.cells[s_old * old_pk.num_classes..][..old_pk.num_classes];
                let new_row = &mut cells[s * num_classes..][..num_classes];
                for ((slot, &oc), &size) in new_row.iter_mut().zip(&old_col).zip(&class_size) {
                    let w = if oc == NO_COL {
                        0
                    } else {
                        old_row[oc as usize]
                    };
                    if w >> TAG_BITS != 0 {
                        *slot = remap_word(w);
                        action_entries += size;
                    } else if w != 0 {
                        let off = w as usize;
                        let n = old_pk.arena[off] as usize;
                        *slot = arena_offset(arena.len())?;
                        arena.push(n as u32);
                        arena.extend(
                            old_pk.arena[off + 1..off + 1 + n]
                                .iter()
                                .map(|&a| remap_word(a)),
                        );
                        action_entries += n * size;
                    }
                }
                default_reduce[s] = remap_word(old_pk.default_reduce[s_old]);
            }
        }

        // ---- 7. GOTO: reused rows remap the old packed words (new
        // nonterminal columns stay empty — clean states never transition
        // on new symbols); dirty rows read the fresh transition graph.
        let nn_new = new_g.num_nonterminals();
        let nn_old = old_g.num_nonterminals();
        let mut gotos = vec![0u32; n_new * nn_new];
        // Old GOTO word (state + 1, or 0) → new one.
        let goto_word: Vec<u32> = std::iter::once(0)
            .chain(old_to_new.iter().map(|t| t.map_or(0, |t| t.0 + 1)))
            .collect();
        for s in 0..n_new {
            if raw_rows[s].is_none() {
                let s_old = old_of[s]
                    .expect("reused rows map to clean old states")
                    .index();
                let old_row = &old_pk.gotos[s_old * nn_old..][..nn_old];
                for (slot, &w) in gotos[s * nn_new..][..nn_old].iter_mut().zip(old_row) {
                    *slot = goto_word[w as usize];
                }
            } else {
                for &(sym, t) in auto_new.successors(StateId(s as u32)) {
                    if let Symbol::N(n) = sym {
                        gotos[s * nn_new + n.index()] = t.0 + 1;
                    }
                }
            }
        }

        // ---- 8. Nonterminal reductions (Section 3.2). A reused row
        // copies (remaps) its old list for every nonterminal whose
        // nullability and FIRST set are unchanged; everything else goes
        // through the build's routine over the freshly assembled packed
        // cells — the same inputs the canonical build reads.
        let old_an = &self.analysis;
        let nt_delta: Vec<NtDelta> = (0..nn_new)
            .map(|n| NtDelta::of(old_an, &an, NonTerminal::from_index(n), nn_old))
            .collect();
        // A row of a clean state differs from its old row only where a
        // reduction's lookahead set changed (its shifts are unchanged), so
        // for every nonterminal whose old FIRST set misses those
        // terminals the old result carries over under the rules of
        // `NtDelta`; the rest go through the build's routine. Old index
        // words stay valid: the remapped pool keeps lists in place.
        let all_nts: Vec<usize> = (0..nn_new).collect();
        let touched: Vec<usize> = (0..nn_new)
            .filter(|&n| !matches!(nt_delta[n], NtDelta::Same))
            .collect();
        let words = t_new.div_ceil(64);
        let mut row_la = vec![0u64; words];
        let mut moved = vec![0u64; words];
        let mut nt_cells: Vec<u32> = Vec::with_capacity(n_new * nn_new);
        let mut lists = NtInterner::remapped(&old_pk.nt_pool, &map.prod_map);
        for s in 0..n_new {
            let sid = StateId(s as u32);
            row_la.fill(0);
            for (_, la) in la_new.reductions(sid) {
                for (acc, w) in row_la.iter_mut().zip(la) {
                    *acc |= w;
                }
            }
            moved.fill(0);
            let comparable = old_of[s].filter(|&s_old| {
                if raw_rows[s].is_none() {
                    return true; // reused verbatim: nothing moved
                }
                let mut old_reds = old_la.reductions(s_old);
                let same_reductions = la_new.reductions(sid).all(|(pn, la_n)| {
                    old_reds.next().is_some_and(|(po, la_o)| {
                        for (k, m) in moved.iter_mut().enumerate() {
                            *m |= la_n[k] ^ la_o.get(k).copied().unwrap_or(0);
                        }
                        inv_prod[pn.index()] == Some(po)
                    })
                });
                same_reductions && old_reds.next().is_none()
            });
            let row = &cells[s * num_classes..(s + 1) * num_classes];
            let compute = |n: usize, lists: &mut NtInterner| {
                let n = NonTerminal::from_index(n);
                nt_reduction_word(&an, n, row, &term_class, &arena, &row_la, lists)
            };
            let Some(s_old) = comparable else {
                for n in 0..nn_new {
                    nt_cells.push(compute(n, &mut lists)?);
                }
                continue;
            };
            let base = nt_cells.len();
            nt_cells.extend_from_slice(&old_pk.nt_cells[s_old.index() * nn_old..][..nn_old]);
            nt_cells.resize(base + nn_new, NT_NONE);
            let out = &mut nt_cells[base..];
            let any_moved = moved.iter().any(|&m| m != 0);
            let candidates = if any_moved { &all_nts } else { &touched };
            for &n in candidates {
                let stale = any_moved
                    && n < nn_old
                    && old_an
                        .first(NonTerminal::from_index(n))
                        .words()
                        .iter()
                        .zip(&moved)
                        .any(|(f, m)| f & m != 0);
                let old = out[n];
                out[n] = match &nt_delta[n] {
                    _ if stale => compute(n, &mut lists)?,
                    NtDelta::Same => continue,
                    NtDelta::Shrunk if old != NT_NONE => old,
                    NtDelta::Grown(_) if old == NT_NONE => NT_NONE,
                    NtDelta::Grown(added) => {
                        let list = lists.list(old);
                        let agree = added.iter().all(|&t| {
                            reduces_on(row, &term_class, &arena, t).eq(list.iter().copied())
                        });
                        if agree {
                            old
                        } else {
                            NT_NONE
                        }
                    }
                    _ => compute(n, &mut lists)?,
                };
            }
        }

        let rows_reused = row_reused.iter().filter(|&&r| r).count();
        let packed = PackedTables {
            num_classes,
            num_nonterminals: nn_new,
            term_class,
            cells,
            arena,
            default_reduce,
            gotos,
            nt_cells,
            nt_pool: lists.finish(),
            action_entries,
        };
        let table = LrTable {
            kind: TableKind::Lalr,
            num_states: n_new,
            num_terminals: t_new,
            packed,
            conflicts,
            automaton: auto_new,
            lookaheads: Some(la_new),
            row_meta: new_meta,
            no_default: new_no_default,
            analysis: an,
        };
        Ok((
            table,
            IncrStats {
                states: n_new,
                states_reused,
                rows_reused,
                full_rebuild: false,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::RefTable;
    use wg_grammar::{GrammarBuilder, GrammarDelta};

    /// Full-surface equivalence of an incrementally updated table against
    /// a from-scratch build of the same grammar: states, every ACTION
    /// cell, GOTOs, default reductions, nt-reductions, conflict report
    /// and entry counts.
    pub(crate) fn assert_matches_scratch(g: &Grammar, incr: &LrTable) {
        let scratch = LrTable::build(g, TableKind::Lalr);
        let reference = RefTable::build(g, TableKind::Lalr);
        assert_eq!(incr.num_states(), scratch.num_states(), "state count");
        for s in 0..scratch.num_states() {
            let sid = StateId(s as u32);
            assert_eq!(
                incr.automaton().kernel(sid),
                scratch.automaton().kernel(sid),
                "state {s} kernel (numbering must replay identically)"
            );
            for t in 0..g.num_terminals() {
                let term = Terminal::from_index(t);
                assert_eq!(
                    incr.actions(sid, term).to_vec(),
                    reference.actions(sid, term),
                    "actions at state {s}, terminal {t}"
                );
            }
            assert_eq!(
                incr.default_reduction(sid),
                scratch.default_reduction(sid),
                "default reduction at state {s}"
            );
            for n in g.nonterminals() {
                assert_eq!(incr.goto(sid, n), reference.goto(sid, n), "goto at {s}");
                assert_eq!(
                    incr.nt_reductions(sid, n),
                    reference.nt_reductions(sid, n),
                    "nt-reductions at state {s}"
                );
            }
        }
        assert_eq!(
            incr.conflicts().remaining,
            scratch.conflicts().remaining,
            "remaining conflicts"
        );
        assert_eq!(
            incr.conflicts().resolved_by_precedence,
            scratch.conflicts().resolved_by_precedence
        );
        assert_eq!(
            incr.conflicts().nonassoc_errors,
            scratch.conflicts().nonassoc_errors
        );
        assert_eq!(incr.num_action_entries(), reference.num_action_entries());
        // The retained intermediates must also match, so a chain of
        // updates stays usable as the base of the next update.
        assert_eq!(incr.no_default, scratch.no_default);
        for s in 0..scratch.num_states() {
            assert_eq!(
                incr.row_meta[s].conflicts, scratch.row_meta[s].conflicts,
                "row meta at state {s}"
            );
        }
    }

    fn dragon() -> Grammar {
        let mut b = GrammarBuilder::new("dragon");
        let plus = b.terminal("+");
        let star = b.terminal("*");
        let lp = b.terminal("(");
        let rp = b.terminal(")");
        let id = b.terminal("id");
        let e = b.nonterminal("E");
        let t = b.nonterminal("T");
        let f = b.nonterminal("F");
        b.prod(e, vec![Symbol::N(e), Symbol::T(plus), Symbol::N(t)]);
        b.prod(e, vec![Symbol::N(t)]);
        b.prod(t, vec![Symbol::N(t), Symbol::T(star), Symbol::N(f)]);
        b.prod(t, vec![Symbol::N(f)]);
        b.prod(f, vec![Symbol::T(lp), Symbol::N(e), Symbol::T(rp)]);
        b.prod(f, vec![Symbol::T(id)]);
        b.start(e);
        b.build().unwrap()
    }

    #[test]
    fn add_production_to_leaf_nonterminal() {
        let g = dragon();
        let table = LrTable::build(&g, TableKind::Lalr);
        let mut d = GrammarDelta::new(&g);
        let num = d.add_terminal("num");
        let f = g.nonterminal_by_name("F").unwrap();
        d.add_production(f, vec![Symbol::T(num)]);
        let (new_g, map) = g.apply_delta(&d).unwrap();
        let (updated, stats) = table.update(&g, &new_g, &map).unwrap();
        assert!(!stats.full_rebuild);
        assert!(stats.states_reused > 0, "leaf edit must reuse states");
        assert_matches_scratch(&new_g, &updated);
    }

    #[test]
    fn remove_production() {
        let g = dragon();
        let table = LrTable::build(&g, TableKind::Lalr);
        let mut d = GrammarDelta::new(&g);
        // Remove E -> E + T; the grammar stays productive via E -> T.
        let e = g.nonterminal_by_name("E").unwrap();
        let (pid, _) = g
            .productions()
            .find(|(_, p)| p.lhs() == e && p.rhs().len() == 3 && p.rhs()[0] == Symbol::N(e))
            .unwrap();
        d.remove_production(pid);
        let (new_g, map) = g.apply_delta(&d).unwrap();
        let (updated, stats) = table.update(&g, &new_g, &map).unwrap();
        assert!(!stats.full_rebuild);
        assert_matches_scratch(&new_g, &updated);
    }

    #[test]
    fn chained_updates_stay_equivalent() {
        let g0 = dragon();
        let t0 = LrTable::build(&g0, TableKind::Lalr);
        let mut d1 = GrammarDelta::new(&g0);
        let num = d1.add_terminal("num");
        let f = g0.nonterminal_by_name("F").unwrap();
        d1.add_production(f, vec![Symbol::T(num)]);
        let (g1, m1) = g0.apply_delta(&d1).unwrap();
        let (t1, _) = t0.update(&g0, &g1, &m1).unwrap();
        assert_matches_scratch(&g1, &t1);

        // Second delta applied on top of the *updated* table.
        let mut d2 = GrammarDelta::new(&g1);
        let lb = d2.add_terminal("[");
        let rb = d2.add_terminal("]");
        let e = g1.nonterminal_by_name("E").unwrap();
        d2.add_production(f, vec![Symbol::T(lb), Symbol::N(e), Symbol::T(rb)]);
        let (g2, m2) = g1.apply_delta(&d2).unwrap();
        let (t2, stats) = t1.update(&g1, &g2, &m2).unwrap();
        assert!(!stats.full_rebuild);
        assert_matches_scratch(&g2, &t2);
    }

    #[test]
    fn slr_tables_fall_back_to_full_rebuild() {
        let g = dragon();
        let table = LrTable::build(&g, TableKind::Slr);
        let mut d = GrammarDelta::new(&g);
        let f = g.nonterminal_by_name("F").unwrap();
        let id = g.terminal_by_name("id").unwrap();
        d.add_production(f, vec![Symbol::T(id), Symbol::T(id)]);
        let (new_g, map) = g.apply_delta(&d).unwrap();
        let (updated, stats) = table.update(&g, &new_g, &map).unwrap();
        assert!(stats.full_rebuild);
        assert_eq!(updated.kind(), TableKind::Slr);
    }

    #[test]
    fn cyclic_delta_is_rejected() {
        let g = dragon();
        let table = LrTable::build(&g, TableKind::Lalr);
        let mut d = GrammarDelta::new(&g);
        let e = g.nonterminal_by_name("E").unwrap();
        d.add_production(e, vec![Symbol::N(e)]);
        let (new_g, map) = g.apply_delta(&d).unwrap();
        assert!(matches!(
            table.update(&g, &new_g, &map),
            Err(TableBuildError::CyclicGrammar { .. })
        ));
    }
}
