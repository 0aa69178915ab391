//! Caching registry of compiled language artifacts — shared *across
//! threads* — with **versioned grammar hot-swap**.
//!
//! Building a conflict-preserving LALR(1) table is by far the most
//! expensive step of opening a document, and an environment like the
//! paper's Ensemble opens many documents of the same few languages. The
//! registry caches the immutable artifacts — grammar, table, compiled
//! lexer — behind [`std::sync::Arc`], keyed by the stable fingerprints of
//! the grammar and lexer definitions, so N sessions of one language pay
//! for exactly one table construction and share every artifact.
//!
//! Each cached language lives in a [`LangSlot`]: the currently installed
//! `(grammar, table)` pair under a monotonically increasing **table
//! epoch**. [`LanguageRegistry::update_grammar`] applies a recorded
//! [`GrammarDelta`] to the slot's grammar, derives the new table
//! *incrementally* from the old one (`wg_lrtable::incr` — reusing every
//! LR state the delta cannot reach), and installs the result under a
//! bumped epoch. Live [`crate::Session`]s notice the epoch change on
//! their next reparse (one atomic load) and adopt the new table then;
//! nothing blocks. The updated grammar's fingerprint is pre-seeded to
//! alias the same slot, so a *first open* of the post-delta definition
//! never rebuilds what the update already produced — one table
//! construction (or incremental derivation) per epoch, process-wide.
//!
//! Superseded tables are parked and swept on every update: once no live
//! session references a replaced table (its [`Arc`] strong count falls to
//! the registry's own), it is dropped, so a long-running workspace does
//! not accumulate one dead table per grammar edit.
//!
//! The registry is `Send + Sync` and designed for a concurrent workspace
//! front end (`wg-workspace`): the hit path takes a short *read* lock on
//! the key map, and a miss resolves through a per-key [`OnceLock`] cell,
//! so concurrent first-opens of the same language block on **one** build
//! (never compiling the table twice) while first-opens of *different*
//! languages compile in parallel — no build ever runs under the map lock.

use crate::session::{SessionConfig, SessionError};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use wg_grammar::{Grammar, GrammarDelta, GrammarError};
use wg_lexer::{Lexer, LexerDef};
use wg_lrtable::{IncrStats, LrTable, TableBuildError, TableKind};

/// One installed version of a language's parse artifacts.
#[derive(Debug)]
struct TableVersion {
    epoch: u64,
    grammar: Arc<Grammar>,
    table: Arc<LrTable>,
}

/// The versioned home of one cached language: the currently installed
/// `(grammar, table)` pair plus the table epoch sessions check against.
///
/// Sessions hold an `Arc<LangSlot>` inside their configuration; probing
/// for staleness is a single atomic load of [`LangSlot::epoch`], and only
/// a disagreeing session takes the read lock to fetch the new version.
#[derive(Debug)]
pub struct LangSlot {
    /// Monotonic table epoch, bumped by every installed grammar update.
    epoch: AtomicU64,
    current: RwLock<TableVersion>,
}

impl LangSlot {
    fn initial(grammar: Arc<Grammar>, table: Arc<LrTable>) -> LangSlot {
        LangSlot {
            epoch: AtomicU64::new(0),
            current: RwLock::new(TableVersion {
                epoch: 0,
                grammar,
                table,
            }),
        }
    }

    /// The currently installed table epoch (0 at first build).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The currently installed `(grammar, table, epoch)` triple.
    pub fn current(&self) -> (Arc<Grammar>, Arc<LrTable>, u64) {
        let v = self.current.read().expect("slot lock");
        (Arc::clone(&v.grammar), Arc::clone(&v.table), v.epoch)
    }
}

/// Once-initialized versioned slot for one grammar fingerprint. Updated
/// fingerprints alias the slot of the grammar they were derived from.
type TableCell = Arc<OnceLock<Arc<LangSlot>>>;
/// Once-initialized compiled lexer + language slot for one
/// (grammar, lexer) fingerprint pair. The assembled [`SessionConfig`] is
/// *not* cached here: it is composed from the slot's current version on
/// every hit, so cache entries never pin superseded tables.
type ConfigCell = Arc<OnceLock<(Arc<Lexer>, Arc<LangSlot>)>>;

/// Why [`LanguageRegistry::update_grammar`] rejected a delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// No cached language's *current* grammar matches the delta's base
    /// fingerprint (never compiled, or already updated past it).
    UnknownBase(u64),
    /// The delta does not apply to the base grammar.
    Grammar(GrammarError),
    /// The updated grammar admits no parse table.
    Table(TableBuildError),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::UnknownBase(fp) => {
                write!(
                    f,
                    "no cached language has current grammar fingerprint {fp:#x}"
                )
            }
            UpdateError::Grammar(e) => write!(f, "delta rejected: {e}"),
            UpdateError::Table(e) => write!(f, "updated table failed: {e}"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// What one [`LanguageRegistry::update_grammar`] call installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrammarUpdate {
    /// The table epoch now current in the language's slot.
    pub epoch: u64,
    /// Incremental table-update statistics (state/row reuse; the
    /// `full_rebuild` flag records the from-scratch fallback).
    pub stats: IncrStats,
    /// Superseded tables still parked because a live session references
    /// them (after this update's sweep).
    pub retained_tables: usize,
}

/// A process-wide, thread-safe cache of per-language [`SessionConfig`]s
/// with epoch-versioned grammar hot-swap (see the module docs).
///
/// Cloning the returned configuration is a handful of reference-count
/// bumps; identical definitions yield pointer-identical artifacts, from
/// any thread.
#[derive(Debug, Default)]
pub struct LanguageRegistry {
    /// Grammar fingerprint → versioned language slot.
    tables: RwLock<HashMap<u64, TableCell>>,
    /// (grammar fp, lexer fp) → compiled lexer + slot.
    configs: RwLock<HashMap<(u64, u64), ConfigCell>>,
    /// Tables replaced by an update, parked until no session holds them.
    superseded: Mutex<Vec<Arc<LrTable>>>,
    table_builds: AtomicU64,
    lexer_builds: AtomicU64,
    grammar_updates: AtomicU64,
}

impl LanguageRegistry {
    /// An empty registry.
    pub fn new() -> LanguageRegistry {
        LanguageRegistry::default()
    }

    /// Returns the configuration for `grammar` + `lexdef`, compiling the
    /// table and lexer only if no equal definition was seen before. The
    /// configuration reflects the language's *current* epoch: if the
    /// grammar was hot-swapped since first compiled, the updated grammar
    /// and table are handed out (the cache key names the language, and
    /// the language has evolved).
    ///
    /// Safe to call from any number of threads: a cache hit is a read
    /// lock + clone; concurrent misses on the same key are deduplicated
    /// (one caller builds, the rest block on its cell), and misses on
    /// different keys build concurrently.
    ///
    /// # Errors
    ///
    /// Propagates [`SessionError`] from configuration assembly.
    pub fn get_or_compile(
        &self,
        grammar: Grammar,
        lexdef: LexerDef,
    ) -> Result<SessionConfig, SessionError> {
        let key = (grammar.fingerprint(), lexdef.fingerprint());
        let cell = Self::cell(&self.configs, key);
        let (lexer, slot) = cell.get_or_init(|| {
            let slot = self.slot_for(key.0, grammar);
            self.lexer_builds.fetch_add(1, Ordering::Relaxed);
            (Arc::new(lexdef.compile()), slot)
        });
        let (g, table, epoch) = slot.current();
        Ok(SessionConfig::from_parts(g, table, Arc::clone(lexer))
            .with_slot(Arc::clone(slot), epoch))
    }

    /// Applies `delta` to the cached language whose **current** grammar is
    /// the delta's base, derives the new table incrementally from the old
    /// one, and installs both under a bumped table epoch. Live sessions
    /// adopt the new table lazily at their next reparse; the updated
    /// grammar's fingerprint is pre-seeded to alias the same slot so
    /// future first-opens reuse this construction. Finally the replaced
    /// table is parked and the park list swept, dropping every superseded
    /// table no live session references any more.
    ///
    /// Concurrent updates against the *same* base race benignly: the
    /// loser's delta no longer matches the slot's current grammar and
    /// reports [`UpdateError::UnknownBase`]. Serialize per language for
    /// deterministic epochs.
    ///
    /// # Errors
    ///
    /// [`UpdateError`] when the base is unknown, the delta is invalid, or
    /// the updated grammar admits no table.
    pub fn update_grammar(&self, delta: &GrammarDelta) -> Result<GrammarUpdate, UpdateError> {
        let base_fp = delta.base_fingerprint();
        let slot = self
            .find_slot(base_fp)
            .ok_or(UpdateError::UnknownBase(base_fp))?;
        let (old_g, old_table, _) = slot.current();
        if old_g.fingerprint() != base_fp {
            // The slot moved past the delta's base between lookup and read.
            return Err(UpdateError::UnknownBase(base_fp));
        }
        let (new_g, map) = old_g.apply_delta(delta).map_err(UpdateError::Grammar)?;
        let (new_table, stats) = old_table
            .update(&old_g, &new_g, &map)
            .map_err(UpdateError::Table)?;
        self.grammar_updates.fetch_add(1, Ordering::Relaxed);
        let new_fp = new_g.fingerprint();
        let (new_g, new_table) = (Arc::new(new_g), Arc::new(new_table));
        // Alias the updated fingerprint to this slot *before* publishing
        // the version, so a first open of the post-delta definition finds
        // the slot rather than racing a from-scratch build of its own.
        {
            let mut w = self.tables.write().expect("registry lock");
            let cell = w.entry(new_fp).or_default();
            let _ = cell.set(Arc::clone(&slot));
        }
        let (epoch, replaced) = {
            let mut cur = slot.current.write().expect("slot lock");
            let next = TableVersion {
                epoch: cur.epoch + 1,
                grammar: new_g,
                table: new_table,
            };
            let epoch = next.epoch;
            slot.epoch.store(epoch, Ordering::Release);
            (epoch, std::mem::replace(&mut *cur, next))
        };
        let retained_tables = {
            let mut parked = self.superseded.lock().expect("registry lock");
            parked.push(replaced.table);
            parked.retain(|t| Arc::strong_count(t) > 1);
            parked.len()
        };
        Ok(GrammarUpdate {
            epoch,
            stats,
            retained_tables,
        })
    }

    /// The versioned slot whose grammar (current or superseded-base) has
    /// fingerprint `fp`. Lets callers that just installed an update
    /// recover the slot's identity for epoch comparisons.
    pub fn slot_by_fingerprint(&self, fp: u64) -> Option<Arc<LangSlot>> {
        self.find_slot(fp)
    }

    /// The slot whose *current* grammar has fingerprint `fp` — either the
    /// slot keyed directly on `fp` or one it was aliased onto by updates.
    fn find_slot(&self, fp: u64) -> Option<Arc<LangSlot>> {
        let r = self.tables.read().expect("registry lock");
        if let Some(slot) = r.get(&fp).and_then(|c| c.get()) {
            return Some(Arc::clone(slot));
        }
        r.values()
            .filter_map(|c| c.get())
            .find(|s| s.current.read().expect("slot lock").grammar.fingerprint() == fp)
            .map(Arc::clone)
    }

    /// The versioned slot for a grammar fingerprint, building the table
    /// exactly once per fingerprint process-wide.
    fn slot_for(&self, fp: u64, grammar: Grammar) -> Arc<LangSlot> {
        let cell = Self::cell(&self.tables, fp);
        Arc::clone(cell.get_or_init(|| {
            self.table_builds.fetch_add(1, Ordering::Relaxed);
            let table = Arc::new(LrTable::build(&grammar, TableKind::Lalr));
            Arc::new(LangSlot::initial(Arc::new(grammar), table))
        }))
    }

    /// The once-cell for `key`, created under a write lock on a miss; the
    /// common path is a read lock + clone. The cell is returned with the
    /// map lock *released*, so initialization never blocks other keys.
    fn cell<K: std::hash::Hash + Eq + Copy, V>(
        map: &RwLock<HashMap<K, Arc<OnceLock<V>>>>,
        key: K,
    ) -> Arc<OnceLock<V>> {
        if let Some(cell) = map.read().expect("registry lock").get(&key) {
            return Arc::clone(cell);
        }
        let mut w = map.write().expect("registry lock");
        Arc::clone(w.entry(key).or_default())
    }

    /// LALR tables actually constructed from scratch (cache misses on the
    /// grammar key; incremental updates are counted separately).
    pub fn table_builds(&self) -> u64 {
        self.table_builds.load(Ordering::Relaxed)
    }

    /// Lexers actually compiled (cache misses on the full key).
    pub fn lexer_builds(&self) -> u64 {
        self.lexer_builds.load(Ordering::Relaxed)
    }

    /// Grammar updates installed by [`LanguageRegistry::update_grammar`].
    pub fn grammar_updates(&self) -> u64 {
        self.grammar_updates.load(Ordering::Relaxed)
    }

    /// Superseded tables still parked because a live session references
    /// them. Sweeps before counting, so dropping the last session of an
    /// old epoch is observable here without waiting for the next update.
    pub fn superseded_tables(&self) -> usize {
        let mut parked = self.superseded.lock().expect("registry lock");
        parked.retain(|t| Arc::strong_count(t) > 1);
        parked.len()
    }

    /// Distinct configurations cached (counting fully built ones only).
    pub fn len(&self) -> usize {
        self.configs
            .read()
            .expect("registry lock")
            .values()
            .filter(|c| c.get().is_some())
            .count()
    }

    /// Whether the registry has no cached configurations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use std::sync::{Arc, Barrier};
    use wg_dag::DagStats;
    use wg_grammar::{GrammarBuilder, SeqKind, Symbol, Terminal};

    fn stmt_grammar() -> Grammar {
        let mut b = GrammarBuilder::new("stmts");
        let id = b.terminal("id");
        let semi = b.terminal(";");
        let stmt = b.nonterminal("stmt");
        let prog = b.nonterminal("prog");
        b.prod(stmt, vec![Symbol::T(id), Symbol::T(semi)]);
        b.sequence(prog, Symbol::N(stmt), SeqKind::Plus, None);
        b.start(prog);
        b.build().unwrap()
    }

    fn stmt_lexdef() -> LexerDef {
        let mut lx = LexerDef::new();
        lx.rule("id", "[a-zA-Z_][a-zA-Z0-9_]*").unwrap();
        lx.literal(";", ";");
        lx.skip("ws", "[ \\t\\n]+").unwrap();
        lx
    }

    /// A delta making empty statements legal: stmt -> ;
    fn semi_only_delta(g: &Grammar) -> GrammarDelta {
        let semi = g.terminal_by_name(";").unwrap();
        let stmt = g.nonterminal_by_name("stmt").unwrap();
        let mut d = GrammarDelta::new(g);
        d.add_production(stmt, vec![Symbol::T(semi)]);
        d
    }

    #[test]
    fn hundred_sessions_build_one_table() {
        let reg = LanguageRegistry::new();
        let mut sessions = Vec::new();
        for i in 0..100 {
            let cfg = reg.get_or_compile(stmt_grammar(), stmt_lexdef()).unwrap();
            sessions.push(Session::new(&cfg, &format!("doc{i};")).unwrap());
        }
        assert_eq!(
            reg.table_builds(),
            1,
            "one LALR construction for 100 sessions"
        );
        assert_eq!(reg.lexer_builds(), 1);
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
        assert_eq!(sessions.len(), 100);
        assert!(sessions.iter().all(|s| s.token_count() == 2));
    }

    #[test]
    fn identical_definitions_share_artifacts_pointerwise() {
        let reg = LanguageRegistry::new();
        // Property: over many independently built (but equal) definitions,
        // every returned artifact is pointer-identical to the first.
        let first = reg.get_or_compile(stmt_grammar(), stmt_lexdef()).unwrap();
        for _ in 0..16 {
            let cfg = reg.get_or_compile(stmt_grammar(), stmt_lexdef()).unwrap();
            assert!(Arc::ptr_eq(first.shared_grammar(), cfg.shared_grammar()));
            assert!(Arc::ptr_eq(first.shared_table(), cfg.shared_table()));
            assert!(Arc::ptr_eq(first.shared_lexer(), cfg.shared_lexer()));
        }
    }

    #[test]
    fn same_grammar_different_lexer_shares_the_table() {
        let reg = LanguageRegistry::new();
        let a = reg.get_or_compile(stmt_grammar(), stmt_lexdef()).unwrap();
        let mut lx = stmt_lexdef();
        lx.skip("comment", "#[^\\n]*").unwrap();
        let b = reg.get_or_compile(stmt_grammar(), lx).unwrap();
        assert_eq!(reg.table_builds(), 1, "the grammar key deduplicates tables");
        assert_eq!(reg.lexer_builds(), 2);
        assert_eq!(reg.len(), 2);
        assert!(Arc::ptr_eq(a.shared_table(), b.shared_table()));
        assert!(!Arc::ptr_eq(a.shared_lexer(), b.shared_lexer()));
    }

    #[test]
    fn concurrent_first_open_builds_exactly_one_table() {
        // Eight threads race the very first open of one language through a
        // barrier. The per-key once-cell must serialize them onto a single
        // table construction, and every thread must come back with
        // pointer-identical artifacts.
        let reg = Arc::new(LanguageRegistry::new());
        let barrier = Arc::new(Barrier::new(8));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let reg = Arc::clone(&reg);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let grammar = stmt_grammar();
                let lexdef = stmt_lexdef();
                barrier.wait();
                reg.get_or_compile(grammar, lexdef).unwrap()
            }));
        }
        let configs: Vec<SessionConfig> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(
            reg.table_builds(),
            1,
            "8 racing first-opens must share one LALR construction"
        );
        assert_eq!(reg.lexer_builds(), 1);
        let first = &configs[0];
        for cfg in &configs[1..] {
            assert!(Arc::ptr_eq(first.shared_grammar(), cfg.shared_grammar()));
            assert!(Arc::ptr_eq(first.shared_table(), cfg.shared_table()));
            assert!(Arc::ptr_eq(first.shared_lexer(), cfg.shared_lexer()));
        }
    }

    #[test]
    fn concurrent_distinct_languages_build_concurrently_and_once() {
        // Different grammars race: each key still builds once, and the
        // registry ends up with one entry per language.
        let reg = Arc::new(LanguageRegistry::new());
        let barrier = Arc::new(Barrier::new(6));
        let mut handles = Vec::new();
        for i in 0..6u32 {
            let reg = Arc::clone(&reg);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                // Two distinct languages, three threads each.
                let lang = i % 2;
                let mut b = GrammarBuilder::new(if lang == 0 { "a" } else { "b" });
                let id = b.terminal("id");
                let semi = b.terminal(";");
                let stmt = b.nonterminal("stmt");
                let prog = b.nonterminal("prog");
                if lang == 0 {
                    b.prod(stmt, vec![Symbol::T(id), Symbol::T(semi)]);
                } else {
                    b.prod(stmt, vec![Symbol::T(id), Symbol::T(id), Symbol::T(semi)]);
                }
                b.sequence(prog, Symbol::N(stmt), SeqKind::Plus, None);
                b.start(prog);
                let grammar = b.build().unwrap();
                let lexdef = stmt_lexdef();
                barrier.wait();
                reg.get_or_compile(grammar, lexdef).unwrap()
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.table_builds(), 2, "one build per distinct grammar");
        assert_eq!(reg.lexer_builds(), 2);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn update_bumps_epoch_and_preseeds_new_fingerprint() {
        let reg = LanguageRegistry::new();
        let cfg0 = reg.get_or_compile(stmt_grammar(), stmt_lexdef()).unwrap();
        assert_eq!(cfg0.table_epoch(), 0);
        let up = reg
            .update_grammar(&semi_only_delta(cfg0.grammar()))
            .unwrap();
        assert_eq!(up.epoch, 1);
        assert!(
            !up.stats.full_rebuild,
            "a leaf production add updates incrementally"
        );
        assert!(up.stats.states_reused > 0);
        assert_eq!(reg.grammar_updates(), 1);
        assert_eq!(
            reg.table_builds(),
            1,
            "no from-scratch build for the update"
        );

        // Re-opening under the *old* definition resolves to the current
        // (updated) language version.
        let cfg1 = reg.get_or_compile(stmt_grammar(), stmt_lexdef()).unwrap();
        assert_eq!(cfg1.table_epoch(), 1);
        assert!(!Arc::ptr_eq(cfg0.shared_table(), cfg1.shared_table()));

        // Opening with the post-delta grammar built from scratch hits the
        // pre-seeded fingerprint alias: still exactly one table build.
        let (g2, _) = cfg0
            .grammar()
            .apply_delta(&semi_only_delta(cfg0.grammar()))
            .unwrap();
        let cfg2 = reg.get_or_compile(g2, stmt_lexdef()).unwrap();
        assert_eq!(reg.table_builds(), 1, "pre-seeded alias spares the rebuild");
        assert!(Arc::ptr_eq(cfg1.shared_table(), cfg2.shared_table()));
        assert!(Arc::ptr_eq(cfg1.shared_grammar(), cfg2.shared_grammar()));

        // A stale delta against the superseded base is rejected.
        let stale = semi_only_delta(cfg0.grammar());
        assert!(matches!(
            reg.update_grammar(&stale),
            Err(UpdateError::UnknownBase(_))
        ));
    }

    #[test]
    fn superseded_tables_freed_once_no_session_references_them() {
        let reg = LanguageRegistry::new();
        let cfg0 = reg.get_or_compile(stmt_grammar(), stmt_lexdef()).unwrap();
        // Two sessions pin the epoch-0 table.
        let s1 = Session::new(&cfg0, "a;").unwrap();
        let s2 = Session::new(&cfg0, "b;").unwrap();
        drop(cfg0);
        let up = reg
            .update_grammar(&semi_only_delta(&stmt_grammar()))
            .unwrap();
        assert_eq!(
            up.retained_tables, 1,
            "live sessions keep the replaced table parked"
        );
        assert_eq!(reg.superseded_tables(), 1);
        drop(s1);
        assert_eq!(reg.superseded_tables(), 1, "one session still holds it");
        drop(s2);
        assert_eq!(
            reg.superseded_tables(),
            0,
            "last reference gone: the old table is freed"
        );
    }

    #[test]
    fn concurrent_first_open_after_update_builds_once_per_epoch() {
        // An update installs epoch 1; eight threads then race the first
        // open of the *post-delta* definition. All must resolve through
        // the pre-seeded fingerprint alias: one from-scratch build ever
        // (epoch 0) and one incremental update (epoch 1).
        let reg = Arc::new(LanguageRegistry::new());
        let cfg0 = reg.get_or_compile(stmt_grammar(), stmt_lexdef()).unwrap();
        reg.update_grammar(&semi_only_delta(cfg0.grammar()))
            .unwrap();
        let (g2, _) = cfg0
            .grammar()
            .apply_delta(&semi_only_delta(cfg0.grammar()))
            .unwrap();
        let barrier = Arc::new(Barrier::new(8));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let reg = Arc::clone(&reg);
            let barrier = Arc::clone(&barrier);
            let g2 = g2.clone();
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                reg.get_or_compile(g2, stmt_lexdef()).unwrap()
            }));
        }
        let configs: Vec<SessionConfig> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(reg.table_builds(), 1, "epoch 0 built once");
        assert_eq!(reg.grammar_updates(), 1, "epoch 1 derived once");
        for cfg in &configs {
            assert_eq!(cfg.table_epoch(), 1);
            assert!(Arc::ptr_eq(configs[0].shared_table(), cfg.shared_table()));
        }
    }

    #[test]
    fn live_session_adopts_the_new_table_at_next_reparse() {
        let reg = LanguageRegistry::new();
        let cfg = reg.get_or_compile(stmt_grammar(), stmt_lexdef()).unwrap();
        let mut s = Session::new(&cfg, "a; b;").unwrap();
        assert_eq!(s.table_epoch(), 0);
        // ";" alone is not a statement yet.
        s.insert(5, ";");
        let out = s.reparse().unwrap();
        assert!(
            !out.incorporated,
            "bare `;` is refused under the base grammar"
        );
        // Hot-swap: empty statements become legal.
        reg.update_grammar(&semi_only_delta(cfg.grammar())).unwrap();
        let out = s.reparse().unwrap();
        assert!(
            out.report.grammar_swapped,
            "epoch change adopted this cycle"
        );
        assert!(
            out.incorporated,
            "the flagged edit parses under the new table"
        );
        assert_eq!(s.table_epoch(), 1);
        assert_eq!(s.grammar_swaps(), 1);
        assert_eq!(s.text(), "a; b;;");
        // The adopted tree is byte- and structure-identical to a fresh
        // session opened on the updated language.
        let cfg1 = reg.get_or_compile(stmt_grammar(), stmt_lexdef()).unwrap();
        let fresh = Session::new(&cfg1, &s.text()).unwrap();
        assert_eq!(s.dump(), fresh.dump());
        // No further swap on later cycles.
        let out = s.reparse().unwrap();
        assert!(!out.report.grammar_swapped);
        assert_eq!(s.grammar_swaps(), 1);
    }

    #[test]
    fn swap_only_cycle_reports_and_counts_itself() {
        // A reparse with no pending edits that only adopts a new table is
        // a real cycle: its report carries the whole cycle's time and the
        // adoption rebuild's node allocations, and the session metrics
        // count it. A cycle with nothing to do stays a no-op.
        let reg = LanguageRegistry::new();
        let cfg = reg.get_or_compile(stmt_grammar(), stmt_lexdef()).unwrap();
        let text: String = (0..50).map(|i| format!("v{i}; ")).collect();
        let mut s = Session::new(&cfg, &text).unwrap();
        let noop = s.reparse().unwrap();
        assert!(!noop.report.grammar_swapped);
        assert_eq!(noop.report.total, std::time::Duration::ZERO);
        assert_eq!(s.metrics().reparses, 0, "a no-op cycle is not counted");

        reg.update_grammar(&semi_only_delta(cfg.grammar())).unwrap();
        let out = s.reparse().unwrap();
        assert!(out.incorporated);
        assert_eq!((out.incorporated_edits, out.remaining_edits), (0, 0));
        let r = &out.report;
        assert!(r.grammar_swapped);
        assert!(r.maintenance > std::time::Duration::ZERO, "{r:?}");
        assert!(r.total >= r.maintenance, "total covers the swap: {r:?}");
        assert!(
            r.fresh_node_slots + r.recycled_node_slots > 0,
            "the adoption rebuild's nodes belong to this cycle: {r:?}"
        );
        assert_eq!(r.arena_nodes, s.arena().len());
        let m = s.metrics();
        assert_eq!(m.reparses, 1);
        assert_eq!(m.grammar_swaps, 1);
        assert_eq!(m.total, r.total);
        assert_eq!(m.maintenance, r.maintenance);
        assert_eq!(s.grammar_swaps(), 1);

        let again = s.reparse().unwrap();
        assert!(!again.report.grammar_swapped);
        assert_eq!(s.metrics().reparses, 1, "back to a no-op");
        assert_eq!(s.grammar_swaps(), 1);
    }

    #[test]
    fn idle_session_reclaims_each_swapped_out_tree() {
        // Adoption rebuilds every nonterminal node; a document that sees
        // no edits between swaps must still not keep the dead trees.
        let reg = LanguageRegistry::new();
        let cfg = reg.get_or_compile(stmt_grammar(), stmt_lexdef()).unwrap();
        let text: String = (0..300).map(|i| format!("v{i}; ")).collect();
        let mut s = Session::new(&cfg, &text).unwrap();
        let one_tree = s.arena().in_use();
        for swap in 0..12 {
            let current = reg.get_or_compile(stmt_grammar(), stmt_lexdef()).unwrap();
            let g = current.grammar();
            let delta = if swap % 2 == 0 {
                semi_only_delta(g)
            } else {
                // Take `stmt -> ;` out again: the last production.
                let mut d = GrammarDelta::new(g);
                d.remove_production(wg_grammar::ProdId::from_index(g.num_productions() - 1));
                d
            };
            reg.update_grammar(&delta).unwrap();
            let out = s.reparse().unwrap();
            assert!(out.report.grammar_swapped, "swap {swap} adopted");
            assert!(
                s.arena().in_use() <= 2 * one_tree,
                "swap {swap}: {} slots in use, one tree takes {one_tree}",
                s.arena().in_use()
            );
        }
        assert_eq!(s.grammar_swaps(), 12);
        assert_eq!(s.text(), text);
    }

    #[test]
    fn failed_adoption_keeps_the_old_tree_and_retries() {
        // A delta that removes the only reading of the committed text's
        // last statement: the session must refuse the swap (non-correcting
        // recovery), keep serving the old epoch, and stay fully usable.
        let reg = LanguageRegistry::new();
        let cfg = reg.get_or_compile(stmt_grammar(), stmt_lexdef()).unwrap();
        reg.update_grammar(&semi_only_delta(cfg.grammar())).unwrap();
        let cfg = reg.get_or_compile(stmt_grammar(), stmt_lexdef()).unwrap();
        let mut s = Session::new(&cfg, "a; b; ;").unwrap();
        let before = s.dump();
        let g = cfg.grammar();
        let id = g.terminal_by_name("id").unwrap();
        let semi = g.terminal_by_name(";").unwrap();
        let stmt = g.nonterminal_by_name("stmt").unwrap();
        // Take `stmt -> ;` (the last production) out again, and add
        // `stmt -> id id ;`, which renumbers the state `b;` is reduced in.
        let mut d = GrammarDelta::new(g);
        d.remove_production(wg_grammar::ProdId::from_index(g.num_productions() - 1));
        d.add_production(stmt, vec![Symbol::T(id), Symbol::T(id), Symbol::T(semi)]);
        let (g2, _) = g.apply_delta(&d).unwrap();
        let renumbered = Session::new(&SessionConfig::new(g2, stmt_lexdef()).unwrap(), "a; b;")
            .unwrap()
            .dump();
        assert_ne!(renumbered, Session::new(&cfg, "a; b;").unwrap().dump());
        // Over `a; b;` alone the delta is adopted, retaining both
        // statements under the new table's states. The refused parse below
        // runs through that same prefix before the bare `;` stops it.
        let mut prefix = Session::new(&cfg, "a; b;").unwrap();
        reg.update_grammar(&d).unwrap();
        let adopted = prefix.reparse().unwrap();
        assert!(adopted.report.grammar_swapped);
        assert!(adopted.report.nodes_retained >= 2);
        assert_eq!(prefix.dump(), renumbered);
        let out = s.reparse().unwrap();
        assert!(
            !out.report.grammar_swapped,
            "a bare `;` has no parse under the new grammar"
        );
        assert_eq!(s.table_epoch(), 1);
        assert_eq!(s.grammar_swaps(), 0);
        // The refusal restores every state the refused parse rewrote, and
        // its retentions no longer count.
        assert_eq!(s.arena().retained_this_epoch(), 0);
        assert_eq!(s.dump(), before);
        // The session still serves edits under the old table.
        s.insert(7, " c;");
        let out = s.reparse().unwrap();
        assert!(out.incorporated);
        assert!(
            !out.report.grammar_swapped,
            "committed text is still old-only"
        );
        assert_eq!(s.text(), "a; b; ; c;");
        assert_eq!(s.token_count(), 7);
    }

    #[test]
    fn adoption_of_a_forking_parse_equals_a_fresh_session() {
        // `e -> e + e | id` forks at every `+`. Deltas adding and removing
        // `e -> $eof` change the table but not the parse: each adopted
        // forest, choice points and multistate marks included, must dump
        // exactly as a fresh session's under a from-scratch table.
        let mut b = GrammarBuilder::new("sum");
        let id = b.terminal("id");
        let plus = b.terminal("+");
        let e = b.nonterminal("e");
        b.prod(e, vec![Symbol::N(e), Symbol::T(plus), Symbol::N(e)]);
        b.prod(e, vec![Symbol::T(id)]);
        b.start(e);
        let g0 = b.build().unwrap();
        let mut lx = LexerDef::new();
        lx.rule("id", "[a-z]+").unwrap();
        lx.literal("+", "+");
        lx.skip("ws", " +").unwrap();
        let reg = LanguageRegistry::new();
        let cfg = reg.get_or_compile(g0.clone(), lx.clone()).unwrap();
        let text = "a + b + c + d";
        let mut s = Session::new(&cfg, text).unwrap();
        assert!(DagStats::compute(s.arena(), s.root()).choice_points > 0);
        for _ in 0..2 {
            let mut add = GrammarDelta::new(&g0);
            add.add_production(e, vec![Symbol::T(Terminal::EOF)]);
            let (g1, _) = g0.apply_delta(&add).unwrap();
            let added = wg_grammar::ProdId::from_index(g1.num_productions() - 1);
            let mut remove = GrammarDelta::new(&g1);
            remove.remove_production(added);
            let added_cfg = SessionConfig::new(g1, lx.clone()).unwrap();
            for (delta, fresh_cfg) in [(add, &added_cfg), (remove, &cfg)] {
                reg.update_grammar(&delta).unwrap();
                let out = s.reparse().unwrap();
                assert!(out.report.grammar_swapped);
                assert_eq!(s.dump(), Session::new(fresh_cfg, text).unwrap().dump());
            }
        }
        assert_eq!(s.grammar_swaps(), 4);
    }

    #[test]
    fn registry_and_session_are_thread_mobile() {
        // Compile-time property: the registry is shareable across threads
        // and sessions can migrate to (and live on) pool shards.
        fn assert_send<T: Send>() {}
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LanguageRegistry>();
        assert_send_sync::<SessionConfig>();
        assert_send::<Session>();
    }
}
