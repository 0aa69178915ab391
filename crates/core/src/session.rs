//! The analysis session: text buffer + incremental lexer + IGLR parser +
//! abstract parse dag, glued into the edit/reparse cycle of an interactive
//! environment (the paper's Ensemble setting).

use crate::metrics::{ReparseReport, SessionMetrics};
use crate::parser::{IglrError, IglrParser, IglrRunStats};
use crate::registry::LangSlot;
use crate::semantics::{SemInfo, SemanticPass};
use crate::snapshot::{root_path, Snapshot};
use crate::tape::TokenTape;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wg_dag::{DagArena, DagStats, FxHashMap, NodeId, NodeKind};
use wg_document::{Edit, TextBuffer, UnincorporatedEdits};
use wg_glr::ParseScratch;
use wg_grammar::{Grammar, Terminal};
use wg_lexer::{Lexer, LexerDef, RegexError, RelexResult, TokenAt, TokenSource};
use wg_lrtable::{LrTable, TableKind};

/// Errors configuring or running a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// A non-skip lexer rule names a token the grammar does not declare.
    UnknownToken(String),
    /// A lexer pattern failed to compile.
    Regex(RegexError),
    /// The initial text does not lex.
    LexError {
        /// Byte offsets of unmatched input.
        positions: Vec<usize>,
    },
    /// The initial text does not parse.
    ParseError(IglrError),
    /// The grammar's parse table cannot be constructed (cyclic grammar or
    /// packed-encoding overflow).
    Table(wg_lrtable::TableBuildError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::UnknownToken(n) => {
                write!(f, "lexer rule `{n}` has no matching grammar terminal")
            }
            SessionError::Regex(e) => write!(f, "{e}"),
            SessionError::LexError { positions } => {
                write!(f, "unlexable input at byte(s) {positions:?}")
            }
            SessionError::ParseError(e) => write!(f, "{e}"),
            SessionError::Table(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<RegexError> for SessionError {
    fn from(e: RegexError) -> SessionError {
        SessionError::Regex(e)
    }
}

/// Immutable per-language artifacts shared by any number of sessions: the
/// grammar, its conflict-preserving LALR(1) table, and the compiled lexer.
///
/// Every artifact lives behind an [`Arc`], so cloning a configuration —
/// which every [`Session`] does — is a few reference-count bumps, never a
/// rebuild. [`crate::LanguageRegistry`] hands out configurations whose
/// artifacts are shared across all sessions of one language.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    grammar: Arc<Grammar>,
    table: Arc<LrTable>,
    lexer: Arc<Lexer>,
    /// Lexer rule index → grammar terminal (None for skip rules).
    term_map: Arc<[Option<Terminal>]>,
    /// The registry's versioned language slot, when the configuration came
    /// from a [`crate::LanguageRegistry`]. Sessions probe it each reparse
    /// to notice grammar hot-swaps; `None` for standalone configurations,
    /// which are never updated.
    slot: Option<Arc<LangSlot>>,
    /// The slot epoch `table` was taken at (0 for standalone configs).
    epoch: u64,
}

impl SessionConfig {
    /// Compiles the language definition. Each non-skip lexer rule must name
    /// a grammar terminal.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::UnknownToken`] for unmapped rules.
    pub fn new(grammar: Grammar, lexdef: LexerDef) -> Result<SessionConfig, SessionError> {
        let lexer = Arc::new(lexdef.compile());
        let table =
            Arc::new(LrTable::try_build(&grammar, TableKind::Lalr).map_err(SessionError::Table)?);
        Ok(SessionConfig::from_parts(Arc::new(grammar), table, lexer))
    }

    /// Assembles a configuration from already shared artifacts (the
    /// registry's cache-hit path).
    pub(crate) fn from_parts(
        grammar: Arc<Grammar>,
        table: Arc<LrTable>,
        lexer: Arc<Lexer>,
    ) -> SessionConfig {
        let mut term_map = Vec::with_capacity(lexer.num_rules());
        for i in 0..lexer.num_rules() {
            let name = lexer.rule_name(wg_lexer::RuleId(i as u32));
            term_map.push(grammar.terminal_by_name(name));
        }
        SessionConfig {
            grammar,
            table,
            lexer,
            term_map: term_map.into(),
            slot: None,
            epoch: 0,
        }
    }

    /// Binds the configuration to its registry slot at `epoch` (the
    /// registry's hand-out path; standalone configurations have no slot).
    pub(crate) fn with_slot(mut self, slot: Arc<LangSlot>, epoch: u64) -> SessionConfig {
        self.slot = Some(slot);
        self.epoch = epoch;
        self
    }

    /// The table epoch this configuration's artifacts were taken at: 0 for
    /// a freshly compiled language (or a standalone configuration), +1 per
    /// grammar update adopted. A live [`Session`]'s epoch advances when it
    /// picks up a registry hot-swap at reparse time.
    pub fn table_epoch(&self) -> u64 {
        self.epoch
    }

    /// The registry slot this configuration is bound to, if any. Slot
    /// identity (`Arc::ptr_eq`) is how callers tell which *language* a
    /// session belongs to when epochs from different slots would be
    /// incomparable.
    pub fn lang_slot(&self) -> Option<&Arc<LangSlot>> {
        self.slot.as_ref()
    }

    /// The grammar.
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// The conflict-preserving LALR(1) table.
    pub fn table(&self) -> &LrTable {
        &self.table
    }

    /// The compiled lexer.
    pub fn lexer(&self) -> &Lexer {
        &self.lexer
    }

    /// The shared grammar handle (pointer-identical across sessions of one
    /// registry entry).
    pub fn shared_grammar(&self) -> &Arc<Grammar> {
        &self.grammar
    }

    /// The shared table handle.
    pub fn shared_table(&self) -> &Arc<LrTable> {
        &self.table
    }

    /// The shared lexer handle.
    pub fn shared_lexer(&self) -> &Arc<Lexer> {
        &self.lexer
    }

    fn terminal_for(&self, tok: &TokenAt) -> Option<Terminal> {
        if tok.rule.index() < self.term_map.len() {
            self.term_map[tok.rule.index()]
        } else {
            None
        }
    }
}

/// How many prefix lengths [`Session::reparse`] tries before giving up.
const MAX_PREFIX_ATTEMPTS: usize = 8;

/// The result of one [`Session::reparse`] cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReparseOutcome {
    /// Whether **all** pending edits were incorporated into the tree.
    /// `false` means some modification yields no valid parse (or no valid
    /// lexing); the tree then reflects the longest incorporable *prefix* of
    /// the pending modifications and the rest are flagged (the paper's
    /// history-based non-correcting recovery, Section 4.3: only
    /// modifications that result in at least one valid parse tree are
    /// integrated).
    pub incorporated: bool,
    /// How many of the pending edits made it into the tree this cycle.
    pub incorporated_edits: usize,
    /// How many edits remain pending (flagged as unincorporated).
    pub remaining_edits: usize,
    /// Parser effort counters of the successful parse (zeroed when nothing
    /// was incorporated).
    pub stats: IglrRunStats,
    /// The error that stopped fuller incorporation, if any.
    pub error: Option<IglrError>,
    /// Per-stage timings and counters of this cycle.
    pub report: ReparseReport,
}

/// One document under incremental analysis.
///
/// The session owns shared (Arc'd) language artifacts plus all the mutable
/// per-document state: the rope-backed text buffer, the dag arena, the
/// chunked [`TokenTape`], and the pooled scratch structures (GSS +
/// worklists, relex buffers, the seam-lexeme buffer) that make the
/// steady-state reparse path allocation-free. The document is never
/// materialized during a reparse: relexing reads the rope through the
/// lexer's chunk cursor, and the prefix-retry loop *rewinds* the rope via
/// the pending edits' undo records instead of reconstructing prefix text.
#[derive(Debug)]
pub struct Session {
    config: SessionConfig,
    buffer: TextBuffer,
    arena: DagArena,
    root: NodeId,
    tape: TokenTape,
    unincorporated: UnincorporatedEdits,
    reparses: usize,
    scratch: ParseScratch,
    relex: RelexResult,
    /// Pooled assembly buffer for lexemes straddling a rope chunk seam.
    lexeme_buf: String,
    /// (token, terminal node) pairs of the current attempt.
    new_pairs: Vec<(TokenAt, NodeId)>,
    /// Buffer-mutation time of edits applied since the last reparse; folded
    /// into the next cycle's [`ReparseReport::buffer`].
    edit_time: Duration,
    metrics: SessionMetrics,
    /// The attached incremental semantic pass, if any (Section 4 staged
    /// disambiguation living in the session).
    sem: Option<Box<dyn SemanticPass>>,
    /// Pooled snapshot of the old tree's change-flagged nodes, captured
    /// inside the successful incorporation attempt before the parser clears
    /// its dirty log — the damage seed for the semantic update.
    sem_damage: Vec<NodeId>,
    /// The most recently published snapshot, reused while the committed
    /// tree is unchanged (invalidated by any reparse cycle that had work).
    last_snapshot: Option<Arc<Snapshot>>,
}

impl Session {
    /// Lexes and batch-parses `text`, establishing the initial tree. The
    /// configuration is cheaply cloned (shared artifacts), so the session
    /// has no borrowed lifetime.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError`] when the initial text does not lex or parse.
    pub fn new(config: &SessionConfig, text: &str) -> Result<Session, SessionError> {
        let out = config.lexer.lex(text);
        if !out.errors.is_empty() {
            return Err(SessionError::LexError {
                positions: out.errors,
            });
        }
        let mut arena = DagArena::new();
        arena.begin_epoch();
        let mut token_nodes = Vec::with_capacity(out.tokens.len());
        for tok in &out.tokens {
            let term = config.terminal_for(tok).ok_or_else(|| {
                SessionError::UnknownToken(config.lexer.rule_name(tok.rule).to_string())
            })?;
            token_nodes.push(arena.terminal(term, tok.lexeme(text)));
        }
        let mut scratch = ParseScratch::new();
        let parser = IglrParser::new(config.grammar(), config.table());
        let (root, _stats) = parser
            .parse_terminal_nodes_in(&mut scratch, &mut arena, &token_nodes)
            .map_err(SessionError::ParseError)?;
        let mut tape = TokenTape::new();
        tape.rebuild(out.tokens.into_iter().zip(token_nodes));
        Ok(Session {
            config: config.clone(),
            buffer: TextBuffer::new(text),
            arena,
            root,
            tape,
            unincorporated: UnincorporatedEdits::new(),
            reparses: 0,
            scratch,
            relex: RelexResult::default(),
            lexeme_buf: String::new(),
            new_pairs: Vec::new(),
            edit_time: Duration::ZERO,
            metrics: SessionMetrics::default(),
            sem: None,
            sem_damage: Vec::new(),
            last_snapshot: None,
        })
    }

    /// When the registry has installed a newer table epoch for this
    /// session's language, re-derives the tree under the new table and
    /// adopts it. This is the epoch change's *full-damage* reparse: the
    /// rope, the token tape, and every terminal dag node survive untouched
    /// (terminal ids are stable — deltas only extend the terminal set), so
    /// all relex work is salvaged and only the batch parse over the
    /// existing terminal nodes is repaid. That parse retains every old
    /// nonterminal node it re-derives with the same production and kids
    /// (see [`DagArena::try_reuse_production`]), so a delta that changes no
    /// parse rebuilds only sequence spines and ambiguous regions. On parse
    /// failure (the committed text is invalid under the new grammar) the old
    /// tree and table stay authoritative and adoption is retried on the next
    /// reparse.
    ///
    /// Returns whether a swap was adopted this call.
    fn adopt_current_table(&mut self) -> bool {
        let Some(slot) = self.config.slot.as_ref() else {
            return false;
        };
        if slot.epoch() == self.config.epoch {
            return false;
        }
        let slot = Arc::clone(slot);
        let (grammar, table, epoch) = slot.current();
        let candidate = SessionConfig::from_parts(grammar, table, Arc::clone(&self.config.lexer))
            .with_slot(slot, epoch);
        let token_nodes: Vec<NodeId> = self.tape.nodes().collect();
        // Mirror the failed-incorporation discipline of `reparse_in`: a new
        // epoch so overwrites of prior-epoch nodes (parents, and the states
        // retention rewrites to the new table's numbering) are logged and
        // undone if the new grammar rejects the text.
        self.arena.begin_epoch();
        let parser = IglrParser::new(candidate.grammar(), candidate.table());
        match parser.parse_terminal_nodes_in(&mut self.scratch, &mut self.arena, &token_nodes) {
            Ok((root, _stats)) => {
                self.root = root;
                self.config = candidate;
                self.last_snapshot = None;
                // Every old nonterminal node the parse did not retain died
                // with the swap. Collect now: an idle document may see no
                // edit (and so no reparse-time collection) before the next
                // swap.
                Self::maybe_gc(&mut self.arena, self.root);
                if let Some(sem) = self.sem.as_mut() {
                    sem.rebuild(&self.arena, self.root);
                }
                true
            }
            Err(_) => {
                self.arena.rollback_epoch();
                self.arena.clear_changes();
                false
            }
        }
    }

    /// Grammar hot-swaps this session has adopted (the
    /// [`SessionMetrics::grammar_swaps`] count).
    pub fn grammar_swaps(&self) -> usize {
        self.metrics.grammar_swaps as usize
    }

    /// The table epoch the session is currently parsing with.
    pub fn table_epoch(&self) -> u64 {
        self.config.epoch
    }

    /// Attaches an incremental semantic pass. The pass is brought up to
    /// date with the current tree immediately (a full analysis) and is then
    /// updated from reparse damage at the end of every successful reparse,
    /// its cost reported in [`ReparseReport::sem`].
    pub fn attach_semantics(&mut self, mut pass: Box<dyn SemanticPass>) {
        pass.update(&self.arena, self.root, &[], false);
        self.sem = Some(pass);
        self.last_snapshot = None;
    }

    /// Publishes an immutable, version-stamped [`Snapshot`] of the
    /// committed document state (dag + token tape + semantic facts) for
    /// concurrent readers. Free when nothing changed since the last
    /// publish (the cached snapshot is reused). Otherwise the dag part
    /// re-images only the node slots mutated since the last publish, in
    /// place when no reader still holds the previous snapshot and by
    /// copying the affected chunks when one does (see
    /// [`DagArena::publish`]); the token tape part is a clone of the tape,
    /// one reference-count bump on its spine (the tape copies a chunk at
    /// the next edit instead, and only while a snapshot still holds it).
    ///
    /// The snapshot reflects the *committed* tree: text from edits not yet
    /// incorporated by [`Session::reparse`] is invisible to it.
    pub fn publish(&mut self) -> Arc<Snapshot> {
        if let Some(s) = &self.last_snapshot {
            return Arc::clone(s);
        }
        let dag = self.arena.publish();
        let tape = self.tape.clone();
        let sem = self.sem.as_deref().map(|p| p.read_view());
        let snap = Arc::new(Snapshot::new(dag, self.root, tape, sem));
        self.last_snapshot = Some(Arc::clone(&snap));
        snap
    }

    /// The attached semantic pass, if any.
    pub fn semantics(&self) -> Option<&dyn SemanticPass> {
        self.sem.as_deref()
    }

    /// Resolves the name at byte `offset` of the committed text through the
    /// attached pass's read view over the live arena — the same evaluator
    /// a published [`Snapshot::info_at`] runs. `None` without a pass,
    /// outside any token, or when the token is not an analyzed identifier.
    /// The first query after a semantic update freezes the view (a copy of
    /// the fact tables, reused by every later query and publish until the
    /// next update); each query then walks one root→terminal path.
    pub fn semantic_info_at(&self, offset: usize) -> Option<SemInfo> {
        let view = self.sem.as_deref()?.read_view();
        view.info_at(&self.arena, &self.node_path_at(offset))
    }

    /// Dag nodes referencing `name`, from the read view's reference index
    /// (see [`Session::semantic_info_at`]). Empty without a pass.
    pub fn semantic_uses_of(&self, name: &str) -> Vec<NodeId> {
        self.sem
            .as_deref()
            .map_or_else(Vec::new, |s| s.read_view().uses_of(&self.arena, name))
    }

    /// Applies a textual edit (does not reparse). O(log N + edit size).
    pub fn edit(&mut self, start: usize, removed: usize, insert: &str) -> Edit {
        let t = Instant::now();
        let e = self.buffer.replace(start, removed, insert);
        self.edit_time += t.elapsed();
        e
    }

    /// Inserts text (does not reparse).
    pub fn insert(&mut self, offset: usize, text: &str) -> Edit {
        self.edit(offset, 0, text)
    }

    /// Deletes text (does not reparse).
    pub fn delete(&mut self, offset: usize, len: usize) -> Edit {
        self.edit(offset, len, "")
    }

    /// Undoes the most recent edit (does not reparse).
    pub fn undo(&mut self) -> Option<Edit> {
        let t = Instant::now();
        let e = self.buffer.undo();
        self.edit_time += t.elapsed();
        e
    }

    /// Incrementally relexes and reparses all pending edits.
    ///
    /// Edits whose result does not lex or parse are *not* incorporated: the
    /// previous tree survives, the edits are flagged, and a later reparse
    /// (after further edits) retries the whole accumulated damage.
    ///
    /// # Errors
    ///
    /// This method itself does not fail; refusals are reported through
    /// [`ReparseOutcome::incorporated`]. The `Result` covers internal
    /// invariant violations surfaced as [`SessionError`] (none currently).
    pub fn reparse(&mut self) -> Result<ReparseOutcome, SessionError> {
        let t_total = Instant::now();
        let mut report = ReparseReport {
            buffer: std::mem::take(&mut self.edit_time),
            ..ReparseReport::default()
        };
        // Allocation-counter snapshots: the report carries per-cycle deltas
        // so a warm session's cycles visibly report zero fresh slots. They
        // are taken before adoption, whose rebuild belongs to this cycle.
        let fresh0 = self.arena.fresh_node_slots();
        let recycled0 = self.arena.recycled_node_slots();
        let probes0 = self.scratch.merge_probes();
        let key_allocs0 = self.scratch.merge_key_allocs();
        // A registry hot-swap is adopted before pending edits are touched,
        // so the incorporation attempts below already run on the new table.
        let t_swap = Instant::now();
        report.grammar_swapped = self.adopt_current_table();
        if report.grammar_swapped {
            report.maintenance += t_swap.elapsed();
            report.nodes_retained += self.arena.retained_this_epoch();
        }
        let pending = self.buffer.pending_len();
        let (k, stats, error) = if pending > 0 {
            self.incorporate_pending(pending, &mut report)
        } else {
            (0, IglrRunStats::default(), None)
        };
        report.incorporated_edits = k;
        report.parser = stats.clone();
        report.arena_nodes = self.arena.len();
        report.fresh_node_slots = self.arena.fresh_node_slots() - fresh0;
        report.recycled_node_slots = self.arena.recycled_node_slots() - recycled0;
        report.kid_slab_bytes = self.arena.kid_slab_bytes();
        report.merge_probes = self.scratch.merge_probes() - probes0;
        report.merge_key_allocs = self.scratch.merge_key_allocs() - key_allocs0;
        // A cycle with nothing to do stays a no-op: untimed and uncounted.
        if pending > 0 || report.grammar_swapped {
            report.total = t_total.elapsed();
            self.metrics.absorb(&report);
        }
        Ok(ReparseOutcome {
            incorporated: k == pending,
            incorporated_edits: k,
            remaining_edits: pending - k,
            stats,
            error,
            report,
        })
    }

    /// The prefix-retry loop of [`Session::reparse`] over `pending >= 1`
    /// edits: tries the full pending set first, then ever-shorter prefixes
    /// (the paper's recovery integrates only the modifications that yield
    /// a valid parse). On success it runs tree maintenance and the
    /// semantic update. Returns how many edits were incorporated (0 when
    /// every attempt was refused), the successful parse's stats, and the
    /// error that stopped fuller incorporation.
    fn incorporate_pending(
        &mut self,
        pending: usize,
        report: &mut ReparseReport,
    ) -> (usize, IglrRunStats, Option<IglrError>) {
        // Any cycle with pending work may mutate the arena (even a refused
        // attempt allocates terminals), so the cached snapshot is stale.
        self.last_snapshot = None;
        // Attempts are capped so a long broken session does not retry
        // quadratically.
        let min_k = pending.saturating_sub(MAX_PREFIX_ATTEMPTS);
        let mut last_error = None;
        let parser = IglrParser::new(self.config.grammar(), self.config.table());
        for k in (min_k + 1..=pending).rev() {
            report.attempts += 1;
            // Check the candidate prefix out *in place*: each failed
            // attempt undoes exactly one more pending edit against the
            // rope (O(edit), not O(document) — no text reconstruction).
            let t_buf = Instant::now();
            self.buffer.rewind_to_prefix(k);
            report.buffer += t_buf.elapsed();
            let damage = self.buffer.pending_damage_prefix(k).expect("k >= 1");
            let attempt = Self::try_incorporate(
                &self.config,
                &parser,
                &mut self.arena,
                &mut self.tape,
                &mut self.scratch,
                &mut self.relex,
                &mut self.new_pairs,
                self.root,
                &self.buffer,
                &mut self.lexeme_buf,
                damage,
                report,
                &mut self.sem_damage,
            );
            let stats = match attempt {
                Ok(stats) => stats,
                Err(e) => {
                    last_error = e;
                    continue;
                }
            };
            report.nodes_retained += self.arena.retained_this_epoch();
            let t_buf = Instant::now();
            self.buffer.restore_pending();
            self.buffer.commit_prefix(k);
            report.buffer += t_buf.elapsed();
            self.reparses += 1;
            Self::flag_pending(&mut self.unincorporated, &self.buffer);
            let t_maint = Instant::now();
            // Incremental compaction lets sequence depth creep slowly; a
            // periodic canonical rebuild amortizes it away. The cadence
            // scales with document size so the O(N) rebuild stays
            // amortized O(1) per edit.
            let interval = 64.max(self.tape.len() / 16);
            if self.reparses.is_multiple_of(interval) {
                parser.rebalance_full(&mut self.arena, self.root);
                report.rebalanced = true;
            }
            report.gc_ran = Self::maybe_gc(&mut self.arena, self.root);
            report.maintenance += t_maint.elapsed();
            if let Some(sem) = self.sem.as_mut() {
                let t_sem = Instant::now();
                let up = sem.update(&self.arena, self.root, &self.sem_damage, report.gc_ran);
                report.sem = t_sem.elapsed();
                report.sem_reanalyzed = up.reanalyzed;
                report.sem_contours_reused = up.contours_reused;
                report.sem_flips = up.flips;
                report.sem_full_rebuild = up.full_rebuild;
            }
            return (k, stats, last_error);
        }
        let t_buf = Instant::now();
        self.buffer.restore_pending();
        report.buffer += t_buf.elapsed();
        Self::flag_pending(&mut self.unincorporated, &self.buffer);
        (0, IglrRunStats::default(), last_error)
    }

    /// Re-flags the edits still pending, each with the version at which it
    /// was actually made, not whatever the buffer reads now.
    fn flag_pending(unincorporated: &mut UnincorporatedEdits, buffer: &TextBuffer) {
        unincorporated.clear();
        for (v, e) in buffer.pending_with_versions() {
            unincorporated.flag(v, e);
        }
    }

    /// One incorporation attempt against the buffer's live text (rewound by
    /// the caller to the candidate prefix) whose difference from the
    /// committed text is `damage`. On success the tree and token tape
    /// reflect that text; on failure everything is unwound.
    ///
    /// The document is *read through the rope's chunk cursor* — relexing
    /// pulls chunks around the damage region and lexemes borrow straight
    /// from chunks (seam-straddlers assemble into the pooled `lexeme_buf`),
    /// so no attempt ever materializes the text.
    ///
    /// An associated function over split field borrows: `buffer` borrows
    /// the session's buffer while the arena, tape, and scratch pools are
    /// mutated.
    #[allow(clippy::too_many_arguments)]
    fn try_incorporate(
        config: &SessionConfig,
        parser: &IglrParser<'_>,
        arena: &mut DagArena,
        tape: &mut TokenTape,
        scratch: &mut ParseScratch,
        relex: &mut RelexResult,
        new_pairs: &mut Vec<(TokenAt, NodeId)>,
        root: NodeId,
        buffer: &TextBuffer,
        lexeme_buf: &mut String,
        damage: Edit,
        report: &mut ReparseReport,
        sem_damage: &mut Vec<NodeId>,
    ) -> Result<IglrRunStats, Option<IglrError>> {
        let t_relex = Instant::now();
        config.lexer.relex_into(buffer, tape, damage, relex);
        report.relex += t_relex.elapsed();
        if !relex.errors.is_empty() {
            return Err(None);
        }
        new_pairs.clear();
        for tok in &relex.new_tokens {
            let Some(term) = config.terminal_for(tok) else {
                return Err(None);
            };
            let node = arena.terminal(term, tok.lexeme_from(buffer, lexeme_buf));
            new_pairs.push((*tok, node));
        }
        let n_new = new_pairs.len();
        // The node list is built once and *moved* into whichever role it
        // plays (replacement, boundary insertion, or append).
        let mut new_nodes = Some(new_pairs.iter().map(|&(_, n)| n).collect::<Vec<_>>());

        // Wire replacements and damage marks into the old tree.
        let first_changed = relex.kept_prefix;
        let changed_end = tape.len() - relex.kept_suffix;
        let mut replacements: FxHashMap<NodeId, Vec<NodeId>> = FxHashMap::default();
        let mut appended: Vec<NodeId> = Vec::new();
        let mut suffix_clone: Option<NodeId> = None;

        if first_changed < changed_end {
            for i in first_changed..changed_end {
                let node = tape.node(i);
                arena.mark_changed(node);
                let reps = if i == first_changed {
                    new_nodes.take().expect("moved once")
                } else {
                    Vec::new()
                };
                replacements.insert(node, reps);
            }
        } else if n_new > 0 {
            // Pure insertion at a token boundary.
            if relex.kept_suffix > 0 {
                let anchor = tape.node(tape.len() - relex.kept_suffix);
                let clone = clone_terminal(arena, anchor);
                arena.mark_changed(anchor);
                let mut reps = new_nodes.take().expect("moved once");
                reps.push(clone);
                replacements.insert(anchor, reps);
                suffix_clone = Some(clone);
            } else {
                appended = new_nodes.take().expect("moved once");
            }
        }
        if first_changed > 0 {
            arena.mark_following(tape.node(first_changed - 1));
        }
        if appended.is_empty() && replacements.is_empty() && n_new == 0 {
            // Deletion of trailing whitespace etc.: nothing structural, but
            // trailing-lookahead reductions may still be stale.
            if !tape.is_empty() {
                arena.mark_following(tape.node(tape.len() - 1));
            }
        }
        if relex.kept_suffix == 0 && !appended.is_empty() && !tape.is_empty() {
            arena.mark_following(tape.node(tape.len() - 1));
        }

        let t_parse = Instant::now();
        let parsed = parser.reparse_in(scratch, arena, root, replacements, &appended);
        report.parse += t_parse.elapsed();
        match parsed {
            Ok(stats) => {
                // Snapshot the old tree's dirty set before the parser clears
                // it: the semantic update is seeded from exactly this damage.
                sem_damage.clear();
                sem_damage.extend_from_slice(arena.dirty());
                arena.clear_changes();
                tape.splice(
                    relex.kept_prefix,
                    new_pairs,
                    relex.kept_suffix,
                    damage.delta(),
                );
                if let Some(clone) = suffix_clone {
                    tape.set_node(relex.kept_prefix + n_new, clone);
                }
                Ok(stats)
            }
            Err(e) => {
                arena.clear_changes();
                Err(Some(e))
            }
        }
    }

    /// Reclaims dead arena slots when garbage from prior versions has piled
    /// up. Collection is *incremental*: unreachable slots go onto the free
    /// list in O(dead) time, every live `NodeId` — the root, the token
    /// tape's terminals, any analysis annotations — stays valid, and no
    /// remap of downstream tables is ever needed. Returns whether a
    /// collection ran.
    fn maybe_gc(arena: &mut DagArena, root: NodeId) -> bool {
        if arena.should_collect() {
            arena.collect_garbage(root);
            true
        } else {
            false
        }
    }

    /// Current text, materialized from the rope. O(N) — tests and tooling;
    /// analyses read through [`Session::buffer`]'s chunk cursor instead.
    pub fn text(&self) -> String {
        self.buffer.text()
    }

    /// The rope-backed text buffer (chunked read access, version stamps,
    /// [`TextBuffer::moved_bytes`] accounting).
    pub fn buffer(&self) -> &TextBuffer {
        &self.buffer
    }

    /// Number of (non-skip) tokens.
    pub fn token_count(&self) -> usize {
        self.tape.len()
    }

    /// The token tape of the committed text (see
    /// [`TokenTape::copied_chunks`] for its copy-on-write accounting).
    pub fn tape(&self) -> &TokenTape {
        &self.tape
    }

    /// The dag arena (for analyses over the tree).
    pub fn arena(&self) -> &DagArena {
        &self.arena
    }

    /// Mutable access to the arena (semantic passes attach attributes and
    /// may restructure their own side tables; the tree itself should be
    /// treated as read-only between reparses).
    pub fn arena_mut(&mut self) -> &mut DagArena {
        &mut self.arena
    }

    /// The super-root of the current tree.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The language configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Space statistics of the current dag.
    pub fn stats(&self) -> DagStats {
        DagStats::compute(&self.arena, self.root)
    }

    /// Cumulative per-stage pipeline metrics of this session.
    pub fn metrics(&self) -> &SessionMetrics {
        &self.metrics
    }

    /// Total GSS slot allocations across the session's lifetime; stops
    /// growing once the pooled scratch is warm (regression-tested).
    pub fn gss_fresh_allocs(&self) -> u64 {
        self.scratch.fresh_allocs()
    }

    /// Pretty-printed tree (testing/debugging).
    pub fn dump(&self) -> String {
        wg_dag::dump(&self.arena, self.root, &self.config.grammar)
    }

    /// Edits the parser refused to incorporate (Section 4.3).
    pub fn unincorporated(&self) -> &UnincorporatedEdits {
        &self.unincorporated
    }

    /// Number of successful incremental reparses so far.
    pub fn reparse_count(&self) -> usize {
        self.reparses
    }

    /// Index of the token covering byte `offset` of the *committed* text
    /// (the text the current tree reflects), if any — offsets inside
    /// skipped whitespace/comments have no token.
    pub fn token_index_at(&self, offset: usize) -> Option<usize> {
        self.tape.token_index_at(offset)
    }

    /// The dag path from the super-root down to the terminal covering byte
    /// `offset`: `[root, ..., terminal]`. Empty when no token covers the
    /// offset. The path runs through any choice points containing the
    /// token, so editor tooling can see local ambiguity directly.
    pub fn node_path_at(&self, offset: usize) -> Vec<NodeId> {
        self.token_index_at(offset).map_or_else(Vec::new, |ix| {
            root_path(&self.arena, self.root, self.tape.node(ix))
        })
    }

    /// The terminal dag node covering byte `offset`, with its token.
    pub fn terminal_at(&self, offset: usize) -> Option<(NodeId, TokenAt)> {
        let ix = self.token_index_at(offset)?;
        Some((self.tape.node(ix), self.tape.token(ix)))
    }

    /// The choice points of the current dag, in preorder — the ambiguous
    /// regions a disambiguation pass (or an editor's diagnostics pane)
    /// should look at.
    pub fn ambiguities(&self) -> Vec<NodeId> {
        wg_dag::descendants(&self.arena, self.root)
            .filter(|&n| matches!(self.arena.kind(n), NodeKind::Symbol { .. }))
            .collect()
    }
}

fn clone_terminal(arena: &mut DagArena, node: NodeId) -> NodeId {
    match arena.kind(node).clone() {
        NodeKind::Terminal { term, lexeme } => arena.terminal(term, &lexeme),
        _ => unreachable!("token nodes are terminals"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_dag::yield_string;
    use wg_grammar::{GrammarBuilder, SeqKind, Symbol};

    fn stmt_config() -> SessionConfig {
        // prog = (id = num ;)+
        let mut b = GrammarBuilder::new("stmts");
        let id = b.terminal("id");
        let eq = b.terminal("=");
        let num = b.terminal("num");
        let semi = b.terminal(";");
        let stmt = b.nonterminal("stmt");
        let prog = b.nonterminal("prog");
        b.prod(
            stmt,
            vec![
                Symbol::T(id),
                Symbol::T(eq),
                Symbol::T(num),
                Symbol::T(semi),
            ],
        );
        b.sequence(prog, Symbol::N(stmt), SeqKind::Plus, None);
        b.start(prog);
        let g = b.build().unwrap();
        let mut lx = LexerDef::new();
        lx.rule("id", "[a-zA-Z_][a-zA-Z0-9_]*").unwrap();
        lx.rule("num", "[0-9]+").unwrap();
        lx.literal("=", "=");
        lx.literal(";", ";");
        lx.skip("ws", "[ \\t\\n]+").unwrap();
        SessionConfig::new(g, lx).unwrap()
    }

    fn program(n: usize) -> String {
        (0..n)
            .map(|i| format!("v{i} = {i};"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn initial_parse_and_accessors() {
        let cfg = stmt_config();
        let s = Session::new(&cfg, "a = 1; b = 2;").unwrap();
        assert_eq!(s.token_count(), 8);
        assert_eq!(s.text(), "a = 1; b = 2;");
        assert_eq!(yield_string(s.arena(), s.root()), "a = 1 ; b = 2 ;");
        assert!(s.unincorporated().is_empty());
        assert_eq!(s.reparse_count(), 0);
        assert!(s.dump().contains("prog"));
        assert_eq!(s.stats().choice_points, 0);
    }

    #[test]
    fn bad_initial_text_errors() {
        let cfg = stmt_config();
        assert!(matches!(
            Session::new(&cfg, "a = # 1;"),
            Err(SessionError::LexError { .. })
        ));
        assert!(matches!(
            Session::new(&cfg, "a = 1"),
            Err(SessionError::ParseError(_))
        ));
    }

    #[test]
    fn edit_and_reparse_token_replacement() {
        let cfg = stmt_config();
        let mut s = Session::new(&cfg, &program(20)).unwrap();
        // Rename v10 -> victory.
        let pos = s.text().find("v10").unwrap();
        s.edit(pos, 3, "victory");
        let out = s.reparse().unwrap();
        assert!(out.incorporated);
        assert!(yield_string(s.arena(), s.root()).contains("victory = 10 ;"));
        assert_eq!(s.token_count(), 80);
        assert!(
            out.stats.terminal_shifts <= 8,
            "local edit must not rescan the file: {:?}",
            out.stats
        );
    }

    #[test]
    fn insertion_of_new_statement() {
        let cfg = stmt_config();
        let mut s = Session::new(&cfg, "a = 1; b = 2;").unwrap();
        s.insert(7, "zz = 9; ");
        let out = s.reparse().unwrap();
        assert!(out.incorporated);
        assert_eq!(
            yield_string(s.arena(), s.root()),
            "a = 1 ; zz = 9 ; b = 2 ;"
        );
        assert_eq!(s.token_count(), 12);
    }

    #[test]
    fn append_at_document_end() {
        let cfg = stmt_config();
        let mut s = Session::new(&cfg, "a = 1;").unwrap();
        let end = s.text().len();
        s.insert(end, " b = 2;");
        let out = s.reparse().unwrap();
        assert!(out.incorporated, "{:?}", out.error);
        assert_eq!(yield_string(s.arena(), s.root()), "a = 1 ; b = 2 ;");
    }

    #[test]
    fn deletion_of_statement() {
        let cfg = stmt_config();
        let mut s = Session::new(&cfg, "a = 1; b = 2; c = 3;").unwrap();
        let start = s.text().find("b = 2; ").unwrap();
        s.delete(start, 7);
        let out = s.reparse().unwrap();
        assert!(out.incorporated);
        assert_eq!(yield_string(s.arena(), s.root()), "a = 1 ; c = 3 ;");
    }

    #[test]
    fn refused_edit_keeps_tree_and_flags() {
        let cfg = stmt_config();
        let mut s = Session::new(&cfg, "a = 1; b = 2;").unwrap();
        let before = yield_string(s.arena(), s.root());
        s.edit(0, 1, ";");
        let out = s.reparse().unwrap();
        assert!(!out.incorporated);
        assert!(out.error.is_some());
        assert_eq!(yield_string(s.arena(), s.root()), before);
        assert_eq!(s.unincorporated().flagged().len(), 1);
        // A correcting edit later incorporates everything at once.
        s.edit(0, 1, "fixed");
        let out = s.reparse().unwrap();
        assert!(out.incorporated, "{:?}", out.error);
        assert!(yield_string(s.arena(), s.root()).starts_with("fixed = 1 ;"));
        assert!(s.unincorporated().is_empty());
    }

    #[test]
    fn unlexable_edit_is_refused() {
        let cfg = stmt_config();
        let mut s = Session::new(&cfg, "a = 1;").unwrap();
        s.edit(0, 0, "#");
        let out = s.reparse().unwrap();
        assert!(!out.incorporated);
        assert_eq!(s.unincorporated().flagged().len(), 1);
        assert_eq!(yield_string(s.arena(), s.root()), "a = 1 ;");
    }

    #[test]
    fn self_cancelling_session_edits() {
        let cfg = stmt_config();
        let mut s = Session::new(&cfg, &program(50)).unwrap();
        let reference = yield_string(s.arena(), s.root());
        for _ in 0..5 {
            let pos = s.text().find("v25").unwrap();
            s.edit(pos, 3, "tmp");
            assert!(s.reparse().unwrap().incorporated);
            s.undo();
            assert!(s.reparse().unwrap().incorporated);
            assert_eq!(yield_string(s.arena(), s.root()), reference);
        }
        assert_eq!(s.reparse_count(), 10);
    }

    #[test]
    fn many_edits_with_gc_stay_bounded() {
        let cfg = stmt_config();
        let mut s = Session::new(&cfg, &program(30)).unwrap();
        for i in 0..60 {
            let pos = s.text().find("v15").unwrap();
            s.edit(pos + 1, 2, &format!("{}", 15 + (i % 3)));
            assert!(s.reparse().unwrap().incorporated);
            let pos = s.text().find(&format!("v{}", 15 + (i % 3))).unwrap();
            s.edit(pos + 1, 2, "15");
            assert!(s.reparse().unwrap().incorporated);
        }
        assert!(
            s.arena().len() < 3000,
            "arena must stay bounded under gc: {}",
            s.arena().len()
        );
        assert_eq!(s.token_count(), 120);
    }

    #[test]
    fn pooled_scratch_stops_allocating_once_warm() {
        let cfg = stmt_config();
        let mut s = Session::new(&cfg, &program(40)).unwrap();
        // Warm-up: a few edits let every pool reach steady-state capacity.
        for _ in 0..5 {
            let pos = s.text().find("v20").unwrap();
            s.edit(pos + 1, 2, "99");
            assert!(s.reparse().unwrap().incorporated);
            let pos = s.text().find("v99").unwrap();
            s.edit(pos + 1, 2, "20");
            assert!(s.reparse().unwrap().incorporated);
        }
        let warm = s.gss_fresh_allocs();
        for i in 0..50 {
            let pos = s.text().find("v20").unwrap();
            s.edit(pos + 1, 2, "99");
            assert!(s.reparse().unwrap().incorporated);
            let pos = s.text().find("v99").unwrap();
            s.edit(pos + 1, 2, "20");
            assert!(s.reparse().unwrap().incorporated);
            assert_eq!(
                s.gss_fresh_allocs(),
                warm,
                "round {i} allocated GSS slots after warm-up"
            );
        }
    }

    #[test]
    fn warm_session_reparses_without_node_or_key_allocations() {
        let cfg = stmt_config();
        let mut s = Session::new(&cfg, &program(40)).unwrap();
        // Warm-up: long enough to cross the periodic full rebalance (every
        // 64 reparses) and several GC cycles, so the free list holds the
        // steady-state working set and every pool is at capacity.
        for _ in 0..40 {
            let pos = s.text().find("v20").unwrap();
            s.edit(pos + 1, 2, "99");
            assert!(s.reparse().unwrap().incorporated);
            let pos = s.text().find("v99").unwrap();
            s.edit(pos + 1, 2, "20");
            assert!(s.reparse().unwrap().incorporated);
        }
        assert!(s.metrics().gcs > 0, "warm-up must span a collection");
        drop(s.publish());
        let tape_copied = s.tape().copied_chunks();
        let dag_copied = s.arena().publish_copied_chunks();
        for i in 0..20 {
            let pos = s.text().find("v20").unwrap();
            s.edit(pos + 1, 2, "99");
            let out = s.reparse().unwrap();
            assert!(out.incorporated);
            assert_eq!(
                out.report.fresh_node_slots, 0,
                "round {i} took fresh node slots after warm-up"
            );
            assert_eq!(
                out.report.merge_key_allocs, 0,
                "round {i} allocated merge-table keys after warm-up"
            );
            assert!(
                out.report.recycled_node_slots > 0,
                "round {i} built its nodes from recycled slots"
            );
            drop(s.publish());
            let pos = s.text().find("v99").unwrap();
            s.edit(pos + 1, 2, "20");
            let out = s.reparse().unwrap();
            assert!(out.incorporated);
            assert_eq!(out.report.fresh_node_slots, 0, "round {i} (undo half)");
            assert_eq!(out.report.merge_key_allocs, 0, "round {i} (undo half)");
            drop(s.publish());
        }
        assert_eq!(
            s.tape().copied_chunks(),
            tape_copied,
            "a warm splice with no reader copied a tape chunk or spine"
        );
        assert_eq!(
            s.arena().publish_copied_chunks(),
            dag_copied,
            "a warm publish with no reader copied a dag chunk"
        );
        // A held snapshot makes the next splice copy: the counter is live.
        let held = s.publish();
        let pos = s.text().find("v20").unwrap();
        s.edit(pos + 1, 2, "99");
        assert!(s.reparse().unwrap().incorporated);
        assert!(s.tape().copied_chunks() > tape_copied);
        drop(held);
    }

    #[test]
    fn metrics_accumulate_per_stage() {
        let cfg = stmt_config();
        let mut s = Session::new(&cfg, &program(10)).unwrap();
        assert_eq!(s.metrics().reparses, 0);
        let pos = s.text().find("v5").unwrap();
        s.edit(pos, 2, "renamed");
        let out = s.reparse().unwrap();
        assert!(out.incorporated);
        assert_eq!(out.report.attempts, 1);
        assert_eq!(out.report.incorporated_edits, 1);
        assert_eq!(out.report.parser, out.stats);
        assert!(out.report.arena_nodes > 0);
        assert!(out.report.total >= out.report.relex + out.report.parse);
        assert_eq!(s.metrics().reparses, 1);
        assert_eq!(s.metrics().attempts, 1);
        // A refused edit still counts its attempts.
        s.edit(0, 1, ";");
        let out = s.reparse().unwrap();
        assert!(!out.incorporated);
        assert_eq!(out.report.attempts, 1);
        assert_eq!(s.metrics().reparses, 2);
    }

    #[test]
    fn keystroke_on_large_doc_touches_o_chunk_bytes() {
        // End-to-end bounded incrementality: with a contiguous String the
        // buffer alone would memmove the ~whole document per keystroke.
        let cfg = stmt_config();
        let text = program(6000); // ~80 KiB
        let mut s = Session::new(&cfg, &text).unwrap();
        let pos = s.text().find("v3000").unwrap();
        s.edit(pos + 1, 0, "9"); // warm the rope cursor
        assert!(s.reparse().unwrap().incorporated);
        let warm = s.buffer().moved_bytes();
        s.edit(pos + 2, 0, "9");
        assert!(s.reparse().unwrap().incorporated);
        let delta = s.buffer().moved_bytes() - warm;
        let chunk = wg_document::CHUNK_TARGET as u64;
        assert!(
            delta <= 4 * chunk,
            "keystroke + reparse moved {delta} bytes on a {} byte doc",
            s.buffer().len()
        );
    }

    #[test]
    fn reparse_without_edits_is_a_noop() {
        let cfg = stmt_config();
        let mut s = Session::new(&cfg, "a = 1;").unwrap();
        let out = s.reparse().unwrap();
        assert!(out.incorporated);
        assert_eq!(out.stats, IglrRunStats::default());
        assert_eq!(s.reparse_count(), 0);
    }

    #[test]
    fn whitespace_only_edit() {
        let cfg = stmt_config();
        let mut s = Session::new(&cfg, "a = 1; b = 2;").unwrap();
        s.insert(6, "   ");
        let out = s.reparse().unwrap();
        assert!(out.incorporated, "{:?}", out.error);
        assert_eq!(yield_string(s.arena(), s.root()), "a = 1 ; b = 2 ;");
        assert_eq!(s.token_count(), 8);
    }
}

#[cfg(test)]
mod prefix_tests {
    use super::*;
    use wg_dag::yield_string;
    use wg_grammar::{GrammarBuilder, SeqKind, Symbol};

    fn cfg() -> SessionConfig {
        let mut b = GrammarBuilder::new("stmts");
        let id = b.terminal("id");
        let semi = b.terminal(";");
        let stmt = b.nonterminal("stmt");
        let prog = b.nonterminal("prog");
        b.prod(stmt, vec![Symbol::T(id), Symbol::T(semi)]);
        b.sequence(prog, Symbol::N(stmt), SeqKind::Plus, None);
        b.start(prog);
        let g = b.build().unwrap();
        let mut lx = LexerDef::new();
        lx.rule("id", "[a-zA-Z_][a-zA-Z0-9_]*").unwrap();
        lx.literal(";", ";");
        lx.skip("ws", "[ \\t\\n]+").unwrap();
        SessionConfig::new(g, lx).unwrap()
    }

    #[test]
    fn good_prefix_incorporates_before_broken_suffix() {
        let c = cfg();
        let mut s = Session::new(&c, "alpha; beta;").unwrap();
        // Edit 1 (valid): rename alpha. Edit 2 (broken): stray semicolons.
        s.edit(0, 5, "gamma");
        s.insert(0, ";;;");
        let out = s.reparse().unwrap();
        assert!(!out.incorporated);
        assert_eq!(out.incorporated_edits, 1, "the rename made it in");
        assert_eq!(out.remaining_edits, 1);
        assert!(out.error.is_some());
        // The tree reflects the prefix text, not the broken buffer text.
        assert_eq!(yield_string(s.arena(), s.root()), "gamma ; beta ;");
        assert_eq!(s.text(), ";;;gamma; beta;", "buffer keeps all typing");
        assert_eq!(s.unincorporated().flagged().len(), 1);

        // Fixing the breakage folds the rest in.
        s.delete(0, 3);
        let out = s.reparse().unwrap();
        assert!(out.incorporated);
        assert_eq!(out.remaining_edits, 0);
        assert!(s.unincorporated().is_empty());
        assert_eq!(yield_string(s.arena(), s.root()), "gamma ; beta ;");
    }

    #[test]
    fn broken_prefix_blocks_everything_behind_it() {
        let c = cfg();
        let mut s = Session::new(&c, "alpha;").unwrap();
        s.insert(0, ";;;");
        s.edit(3, 5, "delta"); // valid rename, but behind the breakage
        let out = s.reparse().unwrap();
        assert!(!out.incorporated);
        assert_eq!(out.incorporated_edits, 0);
        assert_eq!(out.remaining_edits, 2);
        assert_eq!(yield_string(s.arena(), s.root()), "alpha ;");
    }

    #[test]
    fn refused_edits_flag_their_own_versions() {
        let c = cfg();
        let mut s = Session::new(&c, "alpha;").unwrap();
        s.insert(0, "("); // buffer version 1
        s.insert(1, "("); // buffer version 2
        s.reparse().unwrap();
        let flagged = s.unincorporated().flagged();
        assert_eq!(flagged.len(), 2);
        // Each refused edit carries the version at which it was made, not
        // the version the buffer happened to read at refusal time.
        assert_eq!(flagged[0].0, 1);
        assert_eq!(flagged[1].0, 2);
    }

    #[test]
    fn partial_incorporation_flags_suffix_with_its_versions() {
        let c = cfg();
        let mut s = Session::new(&c, "alpha; beta;").unwrap();
        s.edit(0, 5, "gamma"); // version 1, valid
        s.insert(0, ";;;"); // version 2, breaks the parse
        let out = s.reparse().unwrap();
        assert_eq!(out.incorporated_edits, 1);
        let flagged = s.unincorporated().flagged();
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].0, 2, "the refused insert was made at v2");
    }

    #[test]
    fn flag_count_tracks_current_backlog() {
        let c = cfg();
        let mut s = Session::new(&c, "alpha;").unwrap();
        s.insert(0, "(");
        s.reparse().unwrap();
        assert_eq!(s.unincorporated().flagged().len(), 1);
        s.insert(0, "(");
        s.reparse().unwrap();
        assert_eq!(
            s.unincorporated().flagged().len(),
            2,
            "flags reflect the live backlog, not a running total"
        );
    }
}

#[cfg(test)]
mod query_tests {
    use super::*;
    use wg_grammar::{GrammarBuilder, SeqKind, Symbol};

    fn cfg() -> SessionConfig {
        let mut b = GrammarBuilder::new("stmts");
        let id = b.terminal("id");
        let semi = b.terminal(";");
        let stmt = b.nonterminal("stmt");
        let prog = b.nonterminal("prog");
        b.prod(stmt, vec![Symbol::T(id), Symbol::T(semi)]);
        b.sequence(prog, Symbol::N(stmt), SeqKind::Plus, None);
        b.start(prog);
        let g = b.build().unwrap();
        let mut lx = LexerDef::new();
        lx.rule("id", "[a-zA-Z_][a-zA-Z0-9_]*").unwrap();
        lx.literal(";", ";");
        lx.skip("ws", "[ \\t\\n]+").unwrap();
        SessionConfig::new(g, lx).unwrap()
    }

    #[test]
    fn token_lookup_by_offset() {
        let c = cfg();
        let s = Session::new(&c, "alpha; beta;").unwrap();
        assert_eq!(s.token_index_at(0), Some(0), "inside `alpha`");
        assert_eq!(s.token_index_at(4), Some(0));
        assert_eq!(s.token_index_at(5), Some(1), "the semicolon");
        assert_eq!(s.token_index_at(6), None, "whitespace gap");
        assert_eq!(s.token_index_at(7), Some(2), "inside `beta`");
        assert_eq!(s.token_index_at(999), None);
        let (node, tok) = s.terminal_at(8).unwrap();
        assert_eq!(tok.lexeme(&s.text()), "beta");
        assert!(matches!(s.arena().kind(node), NodeKind::Terminal { .. }));
    }

    #[test]
    fn node_path_runs_root_to_terminal() {
        let c = cfg();
        let s = Session::new(&c, "alpha; beta; gamma;").unwrap();
        let path = s.node_path_at(8);
        assert!(path.len() >= 3);
        assert_eq!(path[0], s.root());
        let last = *path.last().unwrap();
        assert!(matches!(s.arena().kind(last), NodeKind::Terminal { .. }));
        // Each step is a parent-child edge.
        for w in path.windows(2) {
            assert!(s.arena().kids(w[0]).contains(&w[1]));
        }
        assert!(s.node_path_at(6).is_empty(), "whitespace has no path");
    }

    #[test]
    fn paths_stay_valid_across_reparses() {
        let c = cfg();
        let mut s = Session::new(&c, "alpha; beta;").unwrap();
        s.edit(0, 5, "delta");
        assert!(s.reparse().unwrap().incorporated);
        let path = s.node_path_at(1);
        assert_eq!(path[0], s.root());
        let (_, tok) = s.terminal_at(1).unwrap();
        assert_eq!(tok.lexeme(&s.text()), "delta");
    }
}

#[cfg(test)]
mod retention_tests {
    use super::*;
    use wg_grammar::{GrammarBuilder, Symbol};

    fn cfg() -> SessionConfig {
        // S = A t ';' : editing `t` invalidates A's reduction (its lookahead
        // changed) but A re-derives identically from unchanged terminals.
        let mut b = GrammarBuilder::new("ret");
        let x = b.terminal("x");
        let y = b.terminal("y");
        let t = b.terminal("t");
        let semi = b.terminal(";");
        let s_nt = b.nonterminal("S");
        let a_nt = b.nonterminal("A");
        b.prod(s_nt, vec![Symbol::N(a_nt), Symbol::T(t), Symbol::T(semi)]);
        b.prod(a_nt, vec![Symbol::T(x), Symbol::T(y)]);
        b.start(s_nt);
        let g = b.build().unwrap();
        let mut lx = LexerDef::new();
        lx.literal("x", "x");
        lx.literal("y", "y");
        lx.literal("t", "t");
        lx.literal(";", ";");
        lx.skip("ws", " +").unwrap();
        SessionConfig::new(g, lx).unwrap()
    }

    #[test]
    fn lookahead_invalidated_node_is_retained_on_rederivation() {
        let c = cfg();
        let mut s = Session::new(&c, "x y t ;").unwrap();
        let a_before = s.node_path_at(0)[2];
        // Self-cancelling edit to the token following A's yield.
        s.edit(4, 1, "t");
        let out = s.reparse().unwrap();
        assert!(out.incorporated);
        assert!(
            s.arena().retained_this_epoch() >= 1,
            "A -> x y re-derived identically and must be retained: {:?}",
            out.stats
        );
        // The very same node object survives — annotations on it would too.
        let a_after = s.node_path_at(0)[2];
        assert_eq!(a_before, a_after, "identity preserved across reparse");
        // The cycle's report and the session totals carry the count.
        assert_eq!(out.report.nodes_retained, s.arena().retained_this_epoch());
        assert_eq!(s.metrics().nodes_retained, out.report.nodes_retained as u64);
    }

    #[test]
    fn changed_yield_is_never_wrongly_retained() {
        let c = cfg();
        let mut s = Session::new(&c, "x y t ;").unwrap();
        let a_before = s.node_path_at(0)[2];
        // Edit *inside* A's yield: kid lists differ, so no retention of A.
        s.edit(2, 1, "y");
        assert!(s.reparse().unwrap().incorporated);
        let a_after = s.node_path_at(0)[2];
        // (The terminal `y` was replaced, so A holds a different kid.)
        assert_ne!(a_before, a_after);
        assert_eq!(
            wg_dag::yield_string(s.arena(), s.root()),
            "x y t ;",
            "text unchanged semantically"
        );
    }
}

#[cfg(test)]
mod ambiguity_query_tests {
    use super::*;
    use wg_grammar::{GrammarBuilder, Symbol};

    #[test]
    fn ambiguities_lists_choice_points_in_preorder() {
        // S = item ';' item ';' with item ambiguous over `x`.
        let mut b = GrammarBuilder::new("amb");
        let x = b.terminal("x");
        let semi = b.terminal(";");
        let s_nt = b.nonterminal("S");
        let item = b.nonterminal("item");
        let a_read = b.nonterminal("a_read");
        let b_read = b.nonterminal("b_read");
        b.prod(
            s_nt,
            vec![
                Symbol::N(item),
                Symbol::T(semi),
                Symbol::N(item),
                Symbol::T(semi),
            ],
        );
        b.prod(item, vec![Symbol::N(a_read)]);
        b.prod(item, vec![Symbol::N(b_read)]);
        b.prod(a_read, vec![Symbol::T(x)]);
        b.prod(b_read, vec![Symbol::T(x)]);
        b.start(s_nt);
        let g = b.build().unwrap();
        let mut lx = LexerDef::new();
        lx.literal("x", "x");
        lx.literal(";", ";");
        lx.skip("ws", " +").unwrap();
        let cfg = SessionConfig::new(g, lx).unwrap();
        let s = Session::new(&cfg, "x ; x ;").unwrap();
        let choices = s.ambiguities();
        assert_eq!(choices.len(), 2);
        // Preorder: first region before second.
        let w0 = s.arena().node(choices[0]);
        let w1 = s.arena().node(choices[1]);
        assert_eq!(w0.width(), 1);
        assert_eq!(w1.width(), 1);
        assert!(s.stats().choice_points == 2);
    }
}
