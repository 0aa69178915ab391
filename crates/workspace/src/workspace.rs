//! The concurrent multi-document service: N [`Session`]s scheduled as
//! stealable documents over a [`ShardPool`].
//!
//! ## Scheduling model
//!
//! Every open document owns a bounded FIFO **mailbox** of commands plus a
//! current **owner shard** (initially `doc_id % threads`). Submitting a
//! command pushes it into the mailbox; if the document is not already
//! scheduled, its slot is placed on the owner's run-queue. Workers drain
//! their own run-queue front-first and, when idle, **steal whole
//! documents** from the back of other shards' queues: ownership migrates
//! to the thief under a per-document migration epoch — `shard_of(doc)`
//! rebinds so in-flight submits land on the new owner — and because the
//! document's entire mailbox travels with it, *per-document* FIFO order
//! is structural no matter how often the document migrates. A `scheduled`
//! flag guarantees a document is processed by at most one worker at a
//! time, so a session is still touched by exactly one thread at any
//! moment even though that thread is no longer fixed.
//!
//! ## Edit coalescing
//!
//! On dequeue a worker drains the *entire* mailbox and walks it in order.
//! Consecutive `apply` commands form one service run: their edits are fed
//! into the session's pending-edit buffer and folded into a single
//! covering damage region ([`wg_document::Edit::merge`]), with one
//! reparse per *proximity group* — a new cycle is flushed only when the
//! next edit lands farther than a small gap from the covering span
//! ([`wg_document::Edit::gap_to`]), because merging distant edits would
//! drag the untouched interior into the damage region. A burst of
//! self-cancelling edits therefore collapses to one near-no-op reparse,
//! while every reply slot still receives its own [`ApplyOutcome`]
//! carrying the shared cycle's report.
//!
//! The immutable language artifacts (grammar, LALR table, compiled lexer)
//! are shared across all shards via the thread-safe [`LanguageRegistry`];
//! everything mutable — the rope, the dag arena, the token tape, the
//! pooled parser scratch — lives inside the document's [`Session`].
//!
//! ## Snapshot-isolated reads
//!
//! Each document additionally publishes an immutable
//! [`Snapshot`](wg_core::Snapshot) — dag chunks, token tape, semantic fact
//! view — after the open and after every apply run (while the session is
//! still checked out, *before* the apply replies are sent, so a caller
//! that waited for its apply always sees its own writes). Semantic
//! queries are answered **on the caller's thread** from that snapshot:
//! they never enter the mailbox, never wait behind edits, and any number
//! of them run concurrently against one version while the owner shard
//! keeps reparsing the next. The slot that holds the snapshot also holds
//! the reason when there is none, so a query answers from the slot alone:
//! [`WorkspaceError::UnknownDoc`] before the open has returned and after
//! a close, [`WorkspaceError::Poisoned`] after a panic, and
//! [`WorkspaceError::NoSemantics`] when the document was opened without a
//! semantic pass.
//!
//! ## Failure isolation
//!
//! A panicking operation (a bounds-violating edit, a parser invariant
//! failure) is caught on the worker and poisons *only its own document*:
//! the session is dropped and the poisoned mark replaces the published
//! snapshot in the document slot, so it follows the document across
//! migrations — later commands and queries answer
//! [`WorkspaceError::Poisoned`] no matter which shard or thread serves
//! them.
//! Shutdown refuses new commands, drains every scheduled document, joins
//! the workers, then sweeps mailboxes so any caller that raced the close
//! observes [`WorkspaceError::ShuttingDown`] instead of hanging.

use crate::metrics::{LatencyHistogram, WorkspaceMetrics};
use crate::pool::{Requeue, ShardPool};
use crate::sync::{oneshot, OneShotReceiver, OneShotSender};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use wg_core::{
    IncrStats, LangSlot, LanguageRegistry, ReparseReport, SemInfo, Session, SessionConfig,
    SessionError, Snapshot, UpdateError,
};
use wg_dag::NodeId;
use wg_document::Edit;
use wg_grammar::{Grammar, GrammarDelta};
use wg_lexer::LexerDef;
use wg_sem::{SemState, Strictness};

/// Maximum byte distance between a pending covering damage region and the
/// next edit for the two to share one reparse cycle. Edits within the gap
/// coalesce (one relex over a slightly wider span beats a whole extra
/// cycle); edits beyond it flush the current group first, keeping damage
/// proportional to what actually changed.
const COALESCE_GAP: usize = 64;

/// Identifies one document within a [`Workspace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u64);

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "doc#{}", self.0)
    }
}

/// One textual edit addressed to a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditReq {
    /// Byte offset of the replaced range.
    pub start: usize,
    /// Bytes removed.
    pub removed: usize,
    /// Replacement text.
    pub insert: String,
}

impl EditReq {
    /// Replaces `removed` bytes at `start` with `insert`.
    pub fn replace(start: usize, removed: usize, insert: &str) -> EditReq {
        EditReq {
            start,
            removed,
            insert: insert.to_string(),
        }
    }

    /// Inserts `insert` at `start`.
    pub fn insert(start: usize, insert: &str) -> EditReq {
        EditReq::replace(start, 0, insert)
    }

    /// Deletes `removed` bytes at `start`.
    pub fn delete(start: usize, removed: usize) -> EditReq {
        EditReq::replace(start, removed, "")
    }
}

/// Why a workspace command failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkspaceError {
    /// No open document has this id (never opened, or closed).
    UnknownDoc(DocId),
    /// A previous operation on this document panicked; its session was
    /// dropped and the id is permanently dead.
    Poisoned(DocId),
    /// The workspace is shutting down and refused the command.
    ShuttingDown,
    /// Opening the document failed (bad language definition or text).
    Open(SessionError),
    /// A semantic query was addressed to a document opened without a
    /// semantic pass (see [`Workspace::open_with_semantics`]).
    NoSemantics(DocId),
    /// The registry rejected a grammar update (unknown base, invalid
    /// delta, or untabulatable result).
    GrammarUpdate(UpdateError),
}

impl fmt::Display for WorkspaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkspaceError::UnknownDoc(d) => write!(f, "{d} is not open"),
            WorkspaceError::Poisoned(d) => write!(f, "{d} was poisoned by a panicked operation"),
            WorkspaceError::ShuttingDown => write!(f, "workspace is shutting down"),
            WorkspaceError::Open(e) => write!(f, "open failed: {e}"),
            WorkspaceError::NoSemantics(d) => {
                write!(f, "{d} was opened without semantic analysis")
            }
            WorkspaceError::GrammarUpdate(e) => write!(f, "grammar update failed: {e}"),
        }
    }
}

impl std::error::Error for WorkspaceError {}

/// A semantic question addressed to one document (answered on the calling
/// thread from the document's published snapshot, whose semantic view is
/// frozen from the session-resident [`SemState`] — no dag re-walk).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SemQuery {
    /// Resolve the identifier at a byte offset.
    ResolveAt(usize),
    /// All use sites of a name (the def-use index).
    UsesOf(String),
    /// Whether the construct at a byte offset is ambiguous, and if so
    /// whether disambiguation picked a reading.
    AmbiguityAt(usize),
}

/// The answer to a [`SemQuery`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SemAnswer {
    /// Resolution of the identifier at the offset (`None` when the offset
    /// holds no analyzed identifier).
    Resolution(Option<SemInfo>),
    /// Use sites, in document order.
    Uses(Vec<NodeId>),
    /// `(inside an ambiguous region, selection exists)`.
    Ambiguity(bool, bool),
}

/// The successful result of one applied edit batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// Per-document command sequence number (1 for the first batch after
    /// open, strictly increasing — the ordering witness).
    pub seq: u64,
    /// Edits fed into the session's pending buffer by this command.
    pub edits_applied: usize,
    /// Edits still refused by the tree when this command's service run
    /// finished (the text holds them; the tree kept the previous version
    /// and the edits stay flagged in the session for the next retry).
    pub edits_refused: usize,
    /// Whether every edit of this command was incorporated by the end of
    /// its service run.
    pub incorporated: bool,
    /// The final reparse cycle report of the service run this command was
    /// coalesced into — shared by every command in the run.
    pub last_report: ReparseReport,
    /// Shard service time of the whole run (queue wait excluded).
    pub latency: Duration,
}

/// Per-document command result.
pub type DocResult = Result<ApplyOutcome, WorkspaceError>;

/// The outcome of one [`Workspace::update_grammar`] broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrammarSwapReport {
    /// The table epoch the registry installed.
    pub epoch: u64,
    /// Incremental table-derivation statistics (state/row reuse and the
    /// from-scratch fallback flag).
    pub stats: IncrStats,
    /// Documents on the new table epoch when their nudge completed —
    /// whether the nudge's reparse adopted it or an interleaved apply run
    /// beat the nudge to the swap.
    pub sessions_swapped: usize,
    /// Documents not on the new epoch after their nudge: other languages
    /// (their slot epoch is unchanged), sessions whose committed text the
    /// new grammar rejects (they retry at every later reparse), or
    /// documents that were poisoned/closed mid-broadcast.
    pub sessions_pending: usize,
}

/// One document's report within a batch [`Workspace::apply`].
#[derive(Debug, Clone, PartialEq)]
pub struct DocReport {
    /// The addressed document.
    pub doc: DocId,
    /// What happened on its shard.
    pub result: DocResult,
}

/// An in-flight asynchronous apply (see [`Workspace::apply_async`]).
#[must_use = "wait() retrieves the report; dropping loses it"]
pub struct PendingApply {
    doc: DocId,
    rx: OneShotReceiver<DocResult>,
}

impl PendingApply {
    /// Blocks until the shard finishes this command.
    pub fn wait(self) -> DocReport {
        let result = self.rx.recv().unwrap_or(Err(WorkspaceError::ShuttingDown));
        DocReport {
            doc: self.doc,
            result,
        }
    }
}

/// Commands queued in a document's mailbox.
enum Cmd {
    Open {
        config: SessionConfig,
        text: String,
        semantics: bool,
        reply: OneShotSender<Result<(), WorkspaceError>>,
    },
    Apply {
        edits: Vec<EditReq>,
        reply: OneShotSender<DocResult>,
    },
    Close {
        reply: OneShotSender<bool>,
    },
    /// Grammar hot-swap nudge, broadcast by [`Workspace::update_grammar`]
    /// after the registry installed a new table epoch: run one reparse so
    /// the session adopts the new table now rather than at its next edit.
    /// Replies whether this document is on `epoch` of the updated `lang`
    /// slot afterwards — true also when an interleaved apply run adopted
    /// it organically just before the nudge landed; documents of other
    /// languages, or whose text the new grammar rejects, reply `false`.
    UpdateGrammar {
        lang: Arc<LangSlot>,
        epoch: u64,
        reply: OneShotSender<Result<bool, WorkspaceError>>,
    },
    Text {
        reply: OneShotSender<Option<String>>,
    },
    Dump {
        reply: OneShotSender<Option<String>>,
    },
}

/// Mailbox bookkeeping, all under one lock: the command FIFO, the
/// scheduling handshake, and the ownership binding.
struct MailState {
    queue: VecDeque<Cmd>,
    /// True while the document sits on a run-queue or is being processed.
    /// Set by the submitter that enqueues the slot, cleared by the worker
    /// only after re-checking the queue is empty — so a document is
    /// processed by at most one worker, and no push is ever stranded.
    scheduled: bool,
    /// Current owner shard; rebound by the worker that steals the slot.
    owner: usize,
    /// Bumped on every ownership rebind (monotone migration witness).
    epoch: u64,
    closed: bool,
}

/// The bounded per-document command mailbox.
struct Mailbox {
    state: Mutex<MailState>,
    not_full: Condvar,
    cap: usize,
}

impl Mailbox {
    fn new(cap: usize, owner: usize) -> Mailbox {
        Mailbox {
            state: Mutex::new(MailState {
                queue: VecDeque::new(),
                scheduled: false,
                owner,
                epoch: 0,
                closed: false,
            }),
            not_full: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Enqueues `cmd`, blocking while the mailbox is full (backpressure).
    /// Returns the owner shard to schedule the document on when this push
    /// transitioned it to scheduled, `None` when it was already scheduled.
    ///
    /// # Errors
    ///
    /// Returns the command back when the mailbox is closed (shutdown).
    fn push(&self, cmd: Cmd, depth: &[AtomicU64]) -> Result<Option<usize>, Cmd> {
        let mut st = self.state.lock().expect("mailbox lock");
        loop {
            if st.closed {
                return Err(cmd);
            }
            if st.queue.len() < self.cap {
                break;
            }
            st = self.not_full.wait(st).expect("mailbox lock");
        }
        st.queue.push_back(cmd);
        depth[st.owner].fetch_add(1, Ordering::Relaxed);
        if st.scheduled {
            Ok(None)
        } else {
            st.scheduled = true;
            Ok(Some(st.owner))
        }
    }

    /// Worker entry: rebinds ownership to `me` if the slot was stolen
    /// (moving the queued-depth charge between shard gauges and bumping
    /// the migration epoch) and drains every queued command. Returns the
    /// batch and whether a migration happened.
    fn begin(&self, me: usize, depth: &[AtomicU64]) -> (Vec<Cmd>, bool) {
        let mut st = self.state.lock().expect("mailbox lock");
        let queued = st.queue.len() as u64;
        depth[st.owner].fetch_sub(queued, Ordering::Relaxed);
        let migrated = st.owner != me;
        if migrated {
            st.owner = me;
            st.epoch += 1;
        }
        let batch: Vec<Cmd> = st.queue.drain(..).collect();
        drop(st);
        self.not_full.notify_all();
        (batch, migrated)
    }

    /// Worker exit: commands that arrived during processing keep the slot
    /// scheduled — the worker must push it back on the returned shard's
    /// run-queue. An empty mailbox clears the flag so the next push
    /// re-schedules.
    fn finish(&self) -> Option<usize> {
        let mut st = self.state.lock().expect("mailbox lock");
        if st.queue.is_empty() {
            st.scheduled = false;
            None
        } else {
            Some(st.owner)
        }
    }

    /// Closes the mailbox (pushes fail, blocked pushers wake) and removes
    /// any stranded commands; dropping them drops their reply senders, so
    /// waiting callers observe `ShuttingDown` instead of hanging.
    fn close(&self, depth: &[AtomicU64]) -> Vec<Cmd> {
        let mut st = self.state.lock().expect("mailbox lock");
        st.closed = true;
        let queued = st.queue.len() as u64;
        depth[st.owner].fetch_sub(queued, Ordering::Relaxed);
        let stranded: Vec<Cmd> = st.queue.drain(..).collect();
        drop(st);
        self.not_full.notify_all();
        stranded
    }

    fn owner(&self) -> usize {
        self.state.lock().expect("mailbox lock").owner
    }

    fn epoch(&self) -> u64 {
        self.state.lock().expect("mailbox lock").epoch
    }
}

/// Session-side state of one document, touched only by the worker that
/// currently has the slot checked out.
struct DocState {
    session: Option<Session>,
    seq: u64,
}

/// What a reader finds in a document slot: the published snapshot, or why
/// there is none. One value behind one lock, so a reader never sees a
/// retracted snapshot without its reason.
#[derive(Clone)]
enum ReadSlot {
    /// Nothing published: the open has not returned, or the document was
    /// closed.
    Unpublished,
    /// The latest published version.
    Published(Arc<Snapshot>),
    /// A panicked operation dropped the session; the id stays dead until
    /// it is closed.
    Poisoned,
}

/// One document: its mailbox (scheduling + FIFO) and its session state.
/// The whole slot migrates between shards; nothing about a document is
/// pinned to the thread that opened it.
struct DocSlot {
    doc: DocId,
    mailbox: Mailbox,
    state: Mutex<DocState>,
    /// The read slot — the latest published snapshot or the poisoned
    /// mark (a `Mutex` held only for the clone/swap, never across a
    /// query).
    read: Mutex<ReadSlot>,
    /// Command seq the published snapshot reflects (the writer's publish
    /// watermark).
    snap_seq: AtomicU64,
    /// Highest apply command seq handed to this document so far; the
    /// distance to `snap_seq` at read time is the snapshot lag gauge.
    latest_seq: AtomicU64,
    /// Dag versions currently pinned by live snapshots of this document
    /// (sampled from the arena's pin registry at each publish).
    pinned: AtomicU64,
}

impl DocSlot {
    /// The read slot's current value (an `Arc` clone at most; the lock is
    /// not held while the caller queries).
    fn read(&self) -> ReadSlot {
        self.read.lock().expect("read slot lock").clone()
    }

    /// Swaps the read slot's value.
    fn set_read(&self, value: ReadSlot) {
        *self.read.lock().expect("read slot lock") = value;
    }

    /// Publishes `session`'s current version and samples its pin gauge.
    /// The gauge is read after the swap, so the outgoing snapshot's pin
    /// (released by the swap unless a reader still holds a clone) is not
    /// counted.
    fn publish(&self, session: &mut Session) {
        self.set_read(ReadSlot::Published(session.publish()));
        self.pinned
            .store(session.arena().live_pins() as u64, Ordering::Relaxed);
    }

    /// Checks the session out of the slot, or names why there is none.
    fn check_out(&self) -> Result<(Session, u64), WorkspaceError> {
        let mut st = self.state.lock().expect("doc state lock");
        match st.session.take() {
            Some(session) => Ok((session, st.seq)),
            None if matches!(self.read(), ReadSlot::Poisoned) => {
                Err(WorkspaceError::Poisoned(self.doc))
            }
            None => Err(WorkspaceError::UnknownDoc(self.doc)),
        }
    }
}

/// Counters shared by all shards and the front end.
struct Shared {
    docs: Mutex<HashMap<DocId, Arc<DocSlot>>>,
    /// Mailbox commands charged to each document's current owner shard —
    /// the live per-shard queue-depth gauge.
    depth: Vec<AtomicU64>,
    closing: AtomicBool,
    docs_open: AtomicU64,
    edits_applied: AtomicU64,
    reparses: AtomicU64,
    edits_refused: AtomicU64,
    coalesced_edits: AtomicU64,
    migrations: AtomicU64,
    docs_poisoned: AtomicU64,
    queries: AtomicU64,
    /// Session-level table adoptions observed by grammar-update nudges and
    /// organic reparses.
    grammar_swaps: AtomicU64,
    /// Highest table epoch installed via [`Workspace::update_grammar`].
    table_epoch: AtomicU64,
    /// Queries answered on the caller's thread from a published snapshot.
    snapshot_reads: AtomicU64,
    /// Maximum apply-seq staleness ever observed at a snapshot read.
    snapshot_lag: AtomicU64,
    latency: LatencyHistogram,
    query_latency: LatencyHistogram,
    started: Instant,
}

/// A concurrent multi-document analysis service.
///
/// See the [crate docs](crate) for the scheduling and isolation model.
pub struct Workspace {
    pool: ShardPool<Arc<DocSlot>>,
    shared: Arc<Shared>,
    registry: Arc<LanguageRegistry>,
    next_doc: AtomicU64,
    mailbox_cap: usize,
}

impl Workspace {
    /// A workspace with `threads` shard workers, each document with
    /// `queue_cap` commands of mailbox backpressure, and a fresh language
    /// registry.
    pub fn new(threads: usize, queue_cap: usize) -> Workspace {
        Workspace::with_registry(threads, queue_cap, Arc::new(LanguageRegistry::new()))
    }

    /// A workspace sharing an existing registry (several workspaces — or a
    /// workspace plus direct sessions — can reuse one set of compiled
    /// language artifacts).
    pub fn with_registry(
        threads: usize,
        queue_cap: usize,
        registry: Arc<LanguageRegistry>,
    ) -> Workspace {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            docs: Mutex::new(HashMap::new()),
            depth: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            closing: AtomicBool::new(false),
            docs_open: AtomicU64::new(0),
            edits_applied: AtomicU64::new(0),
            reparses: AtomicU64::new(0),
            edits_refused: AtomicU64::new(0),
            coalesced_edits: AtomicU64::new(0),
            migrations: AtomicU64::new(0),
            docs_poisoned: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            grammar_swaps: AtomicU64::new(0),
            table_epoch: AtomicU64::new(0),
            snapshot_reads: AtomicU64::new(0),
            snapshot_lag: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            query_latency: LatencyHistogram::new(),
            started: Instant::now(),
        });
        let pool = {
            let shared = Arc::clone(&shared);
            ShardPool::new(threads, move |shard, requeue| {
                let shared = Arc::clone(&shared);
                move |slot: Arc<DocSlot>, stolen| {
                    process_slot(&shared, &requeue, shard, &slot, stolen)
                }
            })
        };
        Workspace {
            pool,
            shared,
            registry,
            next_doc: AtomicU64::new(0),
            mailbox_cap: queue_cap.max(1),
        }
    }

    /// Number of shard worker threads.
    pub fn threads(&self) -> usize {
        self.pool.shards()
    }

    /// The shared language registry.
    pub fn registry(&self) -> &Arc<LanguageRegistry> {
        &self.registry
    }

    /// The shard currently owning a document. Initially `doc_id %
    /// threads`; rebound every time an idle shard steals the document, so
    /// this is a racy gauge, not a stable address — submits consult the
    /// binding under the mailbox lock. Unknown documents report their
    /// would-be home shard.
    pub fn shard_of(&self, doc: DocId) -> usize {
        match self.slot_of(doc) {
            Some(slot) => slot.mailbox.owner(),
            None => (doc.0 % self.pool.shards() as u64) as usize,
        }
    }

    /// The document's migration epoch: 0 at open, +1 per ownership
    /// rebind. `None` for unknown documents.
    pub fn epoch_of(&self, doc: DocId) -> Option<u64> {
        self.slot_of(doc).map(|s| s.mailbox.epoch())
    }

    fn slot_of(&self, doc: DocId) -> Option<Arc<DocSlot>> {
        self.shared
            .docs
            .lock()
            .expect("docs lock")
            .get(&doc)
            .cloned()
    }

    /// Pushes `cmd` into the document's mailbox and schedules the slot on
    /// its owner shard when needed.
    fn submit(&self, slot: &Arc<DocSlot>, cmd: Cmd) -> Result<(), WorkspaceError> {
        if self.shared.closing.load(Ordering::Acquire) {
            return Err(WorkspaceError::ShuttingDown);
        }
        match slot.mailbox.push(cmd, &self.shared.depth) {
            Err(_) => Err(WorkspaceError::ShuttingDown),
            Ok(Some(shard)) => {
                if self.pool.submit(shard, Arc::clone(slot)).is_err() {
                    // Raced the close: the command sits in the mailbox and
                    // the shutdown sweep will drop it (reply: ShuttingDown).
                    return Err(WorkspaceError::ShuttingDown);
                }
                Ok(())
            }
            Ok(None) => Ok(()),
        }
    }

    /// Opens a document, compiling (or reusing) the language through the
    /// shared registry; the initial lex + batch parse runs on a shard.
    ///
    /// # Errors
    ///
    /// [`WorkspaceError::Open`] when the definition or text is invalid,
    /// [`WorkspaceError::ShuttingDown`] when the pool is closing.
    pub fn open(
        &self,
        grammar: Grammar,
        lexdef: LexerDef,
        text: &str,
    ) -> Result<DocId, WorkspaceError> {
        let config = self
            .registry
            .get_or_compile(grammar, lexdef)
            .map_err(WorkspaceError::Open)?;
        self.open_with(&config, text)
    }

    /// Opens a document from an already compiled configuration.
    ///
    /// # Errors
    ///
    /// Same contract as [`Workspace::open`].
    pub fn open_with(&self, config: &SessionConfig, text: &str) -> Result<DocId, WorkspaceError> {
        self.open_inner(config, text, false)
    }

    /// Opens a document with an incremental semantic pass attached: the
    /// owning shard builds a [`SemState`] over the fresh tree and keeps it
    /// current across every reparse, so [`Workspace::query`] answers from
    /// retained facts instead of re-walking the dag.
    ///
    /// # Errors
    ///
    /// Same contract as [`Workspace::open`].
    pub fn open_with_semantics(
        &self,
        config: &SessionConfig,
        text: &str,
    ) -> Result<DocId, WorkspaceError> {
        self.open_inner(config, text, true)
    }

    fn open_inner(
        &self,
        config: &SessionConfig,
        text: &str,
        semantics: bool,
    ) -> Result<DocId, WorkspaceError> {
        let doc = DocId(self.next_doc.fetch_add(1, Ordering::Relaxed));
        let home = (doc.0 % self.pool.shards() as u64) as usize;
        let slot = Arc::new(DocSlot {
            doc,
            mailbox: Mailbox::new(self.mailbox_cap, home),
            state: Mutex::new(DocState {
                session: None,
                seq: 0,
            }),
            read: Mutex::new(ReadSlot::Unpublished),
            snap_seq: AtomicU64::new(0),
            latest_seq: AtomicU64::new(0),
            pinned: AtomicU64::new(0),
        });
        self.shared
            .docs
            .lock()
            .expect("docs lock")
            .insert(doc, Arc::clone(&slot));
        let (reply, rx) = oneshot();
        let cmd = Cmd::Open {
            config: config.clone(),
            text: text.to_string(),
            semantics,
            reply,
        };
        if let Err(e) = self.submit(&slot, cmd) {
            self.shared.docs.lock().expect("docs lock").remove(&doc);
            return Err(e);
        }
        match rx.recv() {
            Some(Ok(())) => Ok(doc),
            Some(Err(e)) => Err(e),
            None => Err(WorkspaceError::ShuttingDown),
        }
    }

    /// Answers a semantic question from the document's latest published
    /// snapshot, **on the calling thread** — no mailbox, no shard, no
    /// waiting behind edits; any number of callers query concurrently
    /// while the owner shard keeps editing. The answer reflects every
    /// apply whose report was already delivered (publish happens before
    /// apply replies), but not edits still in flight — snapshot isolation,
    /// not FIFO ordering. Service time lands in the workspace's query
    /// latency histogram.
    ///
    /// # Errors
    ///
    /// [`WorkspaceError::UnknownDoc`] for an id that was never opened,
    /// that was closed, or whose open has not returned yet (the open
    /// publishes the first version just before it replies);
    /// [`WorkspaceError::Poisoned`] for a poisoned document; and
    /// [`WorkspaceError::NoSemantics`] when the document was opened
    /// without [`Workspace::open_with_semantics`].
    pub fn query(&self, doc: DocId, query: SemQuery) -> Result<SemAnswer, WorkspaceError> {
        let slot = self.slot_of(doc).ok_or(WorkspaceError::UnknownDoc(doc))?;
        let snap = match slot.read() {
            ReadSlot::Published(snap) => snap,
            ReadSlot::Unpublished => return Err(WorkspaceError::UnknownDoc(doc)),
            ReadSlot::Poisoned => return Err(WorkspaceError::Poisoned(doc)),
        };
        if !snap.has_semantics() {
            return Err(WorkspaceError::NoSemantics(doc));
        }
        let t0 = Instant::now();
        let answer = answer_from_snapshot(&snap, &query);
        self.shared.query_latency.record(t0.elapsed());
        self.shared.queries.fetch_add(1, Ordering::Relaxed);
        self.shared.snapshot_reads.fetch_add(1, Ordering::Relaxed);
        let lag = slot
            .latest_seq
            .load(Ordering::Relaxed)
            .saturating_sub(slot.snap_seq.load(Ordering::Relaxed));
        self.shared.snapshot_lag.fetch_max(lag, Ordering::Relaxed);
        Ok(answer)
    }

    /// Applies a batch of edits addressed to documents: each document's
    /// edit list is queued in mailbox order (cross-document parallelism
    /// for free, per-document order preserved) and the call blocks until
    /// every report is in. Reports come back in batch order; a document
    /// listed twice gets two reports, processed in order.
    pub fn apply(&self, batch: Vec<(DocId, Vec<EditReq>)>) -> Vec<DocReport> {
        let mut pending: Vec<Result<PendingApply, DocReport>> = Vec::with_capacity(batch.len());
        for (doc, edits) in batch {
            pending.push(self.apply_async(doc, edits).map_err(|e| DocReport {
                doc,
                result: Err(e),
            }));
        }
        pending
            .into_iter()
            .map(|p| match p {
                Ok(pending) => pending.wait(),
                Err(report) => report,
            })
            .collect()
    }

    /// Schedules one document's edit batch without waiting. Blocks only on
    /// mailbox backpressure.
    ///
    /// # Errors
    ///
    /// [`WorkspaceError::ShuttingDown`] when the workspace refused the
    /// command. Unknown documents are reported through the returned
    /// [`PendingApply`], matching the synchronous [`Workspace::apply`].
    pub fn apply_async(
        &self,
        doc: DocId,
        edits: Vec<EditReq>,
    ) -> Result<PendingApply, WorkspaceError> {
        let (reply, rx) = oneshot();
        match self.slot_of(doc) {
            Some(slot) => {
                self.submit(&slot, Cmd::Apply { edits, reply })?;
                // Accepted: advance the write watermark the snapshot-lag
                // gauge measures against.
                slot.latest_seq.fetch_add(1, Ordering::Relaxed);
            }
            None => reply.send(Err(WorkspaceError::UnknownDoc(doc))),
        }
        Ok(PendingApply { doc, rx })
    }

    /// Installs a grammar delta through the shared registry and nudges
    /// every open document with one reparse cycle, so sessions of the
    /// updated language adopt the new table *now* instead of at their
    /// next edit. The registry work happens once on the calling thread
    /// (incremental table derivation from the retained automaton); the
    /// per-document nudges run on the owner shards in mailbox FIFO order,
    /// behind any edits already queued — a live edit stream is never
    /// interrupted mid-cycle.
    ///
    /// Documents of other languages no-op (their slot's epoch is
    /// unchanged). A session whose committed text the new grammar rejects
    /// keeps its old table and retries adoption at every subsequent
    /// reparse; it counts into `sessions_pending`.
    ///
    /// # Errors
    ///
    /// [`WorkspaceError::GrammarUpdate`] when the registry rejects the
    /// delta (unknown base fingerprint, invalid delta, untabulatable
    /// result) and [`WorkspaceError::ShuttingDown`] when the workspace
    /// refused the broadcast.
    pub fn update_grammar(
        &self,
        delta: &GrammarDelta,
    ) -> Result<GrammarSwapReport, WorkspaceError> {
        if self.shared.closing.load(Ordering::Acquire) {
            return Err(WorkspaceError::ShuttingDown);
        }
        let update = self
            .registry
            .update_grammar(delta)
            .map_err(WorkspaceError::GrammarUpdate)?;
        self.shared
            .table_epoch
            .fetch_max(update.epoch, Ordering::Relaxed);
        // Recover the updated slot's identity: the nudge replies compare
        // against it so documents of *other* languages (whose own epochs
        // are incomparable numbers) can never be miscounted as swapped.
        let lang = self
            .registry
            .slot_by_fingerprint(delta.base_fingerprint())
            .expect("slot exists: update_grammar just succeeded on it");
        let slots: Vec<Arc<DocSlot>> = self
            .shared
            .docs
            .lock()
            .expect("docs lock")
            .values()
            .cloned()
            .collect();
        let mut waits = Vec::with_capacity(slots.len());
        for slot in &slots {
            let (reply, rx) = oneshot();
            let cmd = Cmd::UpdateGrammar {
                lang: Arc::clone(&lang),
                epoch: update.epoch,
                reply,
            };
            match self.submit(slot, cmd) {
                Ok(()) => waits.push(rx),
                // Raced the close: the table is installed (future sessions
                // use it); report the un-nudged documents as pending.
                Err(_) => drop(rx),
            }
        }
        let pending_unreached = slots.len() - waits.len();
        let mut swapped = 0usize;
        let mut pending = pending_unreached;
        for rx in waits {
            match rx.recv() {
                Some(Ok(true)) => swapped += 1,
                _ => pending += 1,
            }
        }
        Ok(GrammarSwapReport {
            epoch: update.epoch,
            stats: update.stats,
            sessions_swapped: swapped,
            sessions_pending: pending,
        })
    }

    /// Closes a document, dropping its session. Returns whether it was
    /// open (false for unknown, already closed, or poisoned ids — closing
    /// a poisoned id clears its tombstone).
    pub fn close(&self, doc: DocId) -> bool {
        let Some(slot) = self.slot_of(doc) else {
            return false;
        };
        let (reply, rx) = oneshot();
        if self.submit(&slot, Cmd::Close { reply }).is_err() {
            return false;
        }
        rx.recv().unwrap_or(false)
    }

    /// The document's current text (None for unknown/poisoned ids). O(N);
    /// a testing and tooling convenience, not a hot path.
    pub fn text(&self, doc: DocId) -> Option<String> {
        let slot = self.slot_of(doc)?;
        let (reply, rx) = oneshot();
        if self.submit(&slot, Cmd::Text { reply }).is_err() {
            return None;
        }
        rx.recv().flatten()
    }

    /// A structural dump of the document's current parse dag (None for
    /// unknown/poisoned ids). O(tree); a testing witness that the
    /// incrementally maintained tree matches a from-scratch parse, not a
    /// hot path.
    pub fn dump(&self, doc: DocId) -> Option<String> {
        let slot = self.slot_of(doc)?;
        let (reply, rx) = oneshot();
        if self.submit(&slot, Cmd::Dump { reply }).is_err() {
            return None;
        }
        rx.recv().flatten()
    }

    /// `true` when every shard is idle: no command queued anywhere and no
    /// handler mid-run. Once observed, the busy-time gauges in
    /// [`Self::metrics`] are fully up to date, which is what windowed
    /// measurements (difference two `shard_busy` snapshots) need — a
    /// snapshot taken while a worker is between "reply sent" and "time
    /// charged" would undercount. Callers that just issued synchronous
    /// commands reach idleness within microseconds; spin with
    /// `std::thread::yield_now()`.
    pub fn idle(&self) -> bool {
        self.pool.idle()
    }

    /// A point-in-time metrics snapshot.
    pub fn metrics(&self) -> WorkspaceMetrics {
        let edits = self.shared.edits_applied.load(Ordering::Relaxed);
        let elapsed = self.shared.started.elapsed();
        let shard_busy = self.pool.busy_time();
        let busiest = shard_busy.iter().copied().max().unwrap_or(Duration::ZERO);
        let queue_depth_per_shard: Vec<usize> = self
            .shared
            .depth
            .iter()
            .map(|d| d.load(Ordering::Relaxed) as usize)
            .collect();
        let pinned_versions: usize = self
            .shared
            .docs
            .lock()
            .expect("docs lock")
            .values()
            .map(|s| s.pinned.load(Ordering::Relaxed) as usize)
            .sum();
        WorkspaceMetrics {
            docs_open: self.shared.docs_open.load(Ordering::Relaxed) as usize,
            edits_applied: edits,
            reparses: self.shared.reparses.load(Ordering::Relaxed),
            edits_refused: self.shared.edits_refused.load(Ordering::Relaxed),
            coalesced_edits: self.shared.coalesced_edits.load(Ordering::Relaxed),
            steals: self.pool.steals(),
            migrations: self.shared.migrations.load(Ordering::Relaxed),
            docs_poisoned: self.shared.docs_poisoned.load(Ordering::Relaxed),
            elapsed,
            edits_per_sec: edits as f64 / elapsed.as_secs_f64().max(1e-9),
            queue_depth: queue_depth_per_shard.iter().sum(),
            queue_depth_per_shard,
            imbalance: busiest.as_secs_f64() / elapsed.as_secs_f64().max(1e-9),
            shard_busy,
            p50: self.shared.latency.percentile(0.50),
            p95: self.shared.latency.percentile(0.95),
            p99: self.shared.latency.percentile(0.99),
            queries: self.shared.queries.load(Ordering::Relaxed),
            query_p50: self.shared.query_latency.percentile(0.50),
            query_p95: self.shared.query_latency.percentile(0.95),
            query_p99: self.shared.query_latency.percentile(0.99),
            snapshot_reads: self.shared.snapshot_reads.load(Ordering::Relaxed),
            snapshot_lag: self.shared.snapshot_lag.load(Ordering::Relaxed),
            pinned_versions,
            grammar_updates: self.registry.grammar_updates(),
            grammar_swaps: self.shared.grammar_swaps.load(Ordering::Relaxed),
            table_epoch: self.shared.table_epoch.load(Ordering::Relaxed),
        }
    }

    /// Shuts down: refuses new commands, drains every accepted command,
    /// joins the workers, sweeps mailboxes so racing callers wake with
    /// [`WorkspaceError::ShuttingDown`], and returns the final metrics.
    pub fn shutdown(mut self) -> WorkspaceMetrics {
        self.shared.closing.store(true, Ordering::Release);
        self.pool.shutdown();
        let slots: Vec<Arc<DocSlot>> = self
            .shared
            .docs
            .lock()
            .expect("docs lock")
            .values()
            .cloned()
            .collect();
        for slot in slots {
            drop(slot.mailbox.close(&self.shared.depth));
        }
        self.metrics()
    }
}

/// Worker entry point: a document slot was popped from a run-queue.
/// Rebinds ownership on steal, drains the mailbox, walks it in FIFO order
/// coalescing consecutive applies, and reschedules the slot if commands
/// arrived while it was being processed.
fn process_slot(
    shared: &Shared,
    requeue: &Requeue<Arc<DocSlot>>,
    me: usize,
    slot: &Arc<DocSlot>,
    stolen: bool,
) {
    let (batch, migrated) = slot.mailbox.begin(me, &shared.depth);
    // A slot pops from a foreign deque exactly when its binding is stale.
    debug_assert_eq!(migrated, stolen);
    if migrated {
        shared.migrations.fetch_add(1, Ordering::Relaxed);
    }
    let mut run: Vec<(Vec<EditReq>, OneShotSender<DocResult>)> = Vec::new();
    for cmd in batch {
        match cmd {
            Cmd::Apply { edits, reply } => run.push((edits, reply)),
            other => {
                exec_apply_run(shared, slot, std::mem::take(&mut run));
                exec_single(shared, slot, other);
            }
        }
    }
    exec_apply_run(shared, slot, run);
    if let Some(shard) = slot.mailbox.finish() {
        requeue.push(shard, Arc::clone(slot));
    }
}

/// Marks the document dead: the session is dropped and the mark lives in
/// the slot, so the poison follows the document across migrations.
fn poison(shared: &Shared, slot: &DocSlot) {
    // One swap retracts the published snapshot and records why, so a
    // concurrent reader sees either the old version or Poisoned (readers
    // already holding the Arc keep their immutable version — that is
    // snapshot isolation, not a leak).
    slot.set_read(ReadSlot::Poisoned);
    slot.pinned.store(0, Ordering::Relaxed);
    let session = slot.state.lock().expect("doc state lock").session.take();
    if session.is_some() {
        shared.docs_open.fetch_sub(1, Ordering::Relaxed);
    }
    shared.docs_poisoned.fetch_add(1, Ordering::Relaxed);
}

/// Executes one run of consecutive apply commands as shared reparse
/// cycles: all edits are fed into the session's pending buffer in FIFO
/// order; a reparse is flushed whenever the next edit falls outside the
/// current covering damage region's neighborhood, and once at the end.
fn exec_apply_run(
    shared: &Shared,
    slot: &DocSlot,
    applies: Vec<(Vec<EditReq>, OneShotSender<DocResult>)>,
) {
    if applies.is_empty() {
        return;
    }
    // Check the session out of the slot: on a panic it is simply dropped,
    // so no half-mutated tree is ever visible again.
    let (mut session, base_seq) = match slot.check_out() {
        Ok(checked_out) => checked_out,
        Err(e) => {
            for (_, reply) in applies {
                reply.send(Err(e.clone()));
            }
            return;
        }
    };
    let t0 = Instant::now();
    // Cumulative fed-edit count at the end of each command, the final
    // remaining (refused) pending count, and the last cycle's report.
    let mut boundaries: Vec<usize> = Vec::with_capacity(applies.len());
    let mut fed = 0usize;
    let mut remaining = 0usize;
    let mut last_report = ReparseReport::default();
    let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut group = 0usize; // edits fed since the last flush
        let mut cover: Option<Edit> = None; // covering damage, live coords
        let mut flush = |session: &mut Session, group: &mut usize| {
            let t_cycle = Instant::now();
            let out = session.reparse().expect("reparse is infallible");
            shared.latency.record(t_cycle.elapsed());
            shared.reparses.fetch_add(1, Ordering::Relaxed);
            shared
                .edits_applied
                .fetch_add(*group as u64, Ordering::Relaxed);
            if *group > 1 {
                shared
                    .coalesced_edits
                    .fetch_add((*group - 1) as u64, Ordering::Relaxed);
            }
            *group = 0;
            if out.report.grammar_swapped {
                // Organic adoption: the registry moved on while this
                // document kept editing, and this cycle picked it up.
                shared.grammar_swaps.fetch_add(1, Ordering::Relaxed);
            }
            remaining = out.remaining_edits;
            last_report = out.report;
        };
        for (edits, _) in &applies {
            for e in edits {
                let incoming = Edit {
                    start: e.start,
                    removed: e.removed,
                    inserted: e.insert.len(),
                };
                if let Some(cov) = cover {
                    if cov.gap_to(&incoming) > COALESCE_GAP {
                        flush(&mut session, &mut group);
                        cover = None;
                    }
                }
                session.edit(e.start, e.removed, &e.insert);
                fed += 1;
                group += 1;
                cover = Some(match cover {
                    None => incoming,
                    Some(cov) => cov.merge(incoming),
                });
            }
            boundaries.push(fed);
        }
        if group > 0 {
            flush(&mut session, &mut group);
        }
    }));
    match run {
        Ok(()) => {
            // Refused pending edits are always a *suffix* of the session's
            // pending list (carried-over refusals first, then this run's
            // feed), so the last `min(remaining, fed)` fed edits are the
            // refused ones; attribute them to commands by boundary.
            let fed_refused = remaining.min(fed);
            let cutoff = fed - fed_refused;
            if fed_refused > 0 {
                shared
                    .edits_refused
                    .fetch_add(fed_refused as u64, Ordering::Relaxed);
            }
            let latency = t0.elapsed();
            // Publish the new version for snapshot readers *before* any
            // apply reply goes out: a caller that waited for its apply
            // always reads its own writes from the snapshot path.
            slot.snap_seq
                .store(base_seq + applies.len() as u64, Ordering::Relaxed);
            slot.publish(&mut session);
            {
                let mut st = slot.state.lock().expect("doc state lock");
                st.seq = base_seq + applies.len() as u64;
                st.session = Some(session);
            }
            let mut prev = 0usize;
            for (k, (edits, reply)) in applies.into_iter().enumerate() {
                let end = boundaries[k];
                let refused = end.saturating_sub(prev.max(cutoff));
                prev = end;
                reply.send(Ok(ApplyOutcome {
                    seq: base_seq + k as u64 + 1,
                    edits_applied: edits.len(),
                    edits_refused: refused,
                    incorporated: refused == 0,
                    last_report: last_report.clone(),
                    latency,
                }));
            }
        }
        Err(_) => {
            // The document dies; the worker (and every other document)
            // keeps serving. Every command coalesced into this run shared
            // the panicking cycle, so all of them answer Poisoned. The
            // session was checked out above, so drop it here and account
            // for it — `poison` only handles a slot-resident session.
            drop(session);
            shared.docs_open.fetch_sub(1, Ordering::Relaxed);
            poison(shared, slot);
            for (_, reply) in applies {
                reply.send(Err(WorkspaceError::Poisoned(slot.doc)));
            }
        }
    }
}

/// Evaluates one [`SemQuery`] against a published snapshot — the only
/// query evaluator of the workspace.
fn answer_from_snapshot(snap: &Snapshot, query: &SemQuery) -> SemAnswer {
    match query {
        SemQuery::ResolveAt(offset) => SemAnswer::Resolution(snap.info_at(*offset)),
        SemQuery::UsesOf(name) => SemAnswer::Uses(snap.uses_of(name)),
        SemQuery::AmbiguityAt(offset) => match snap.info_at(*offset) {
            Some(info) => SemAnswer::Ambiguity(info.ambiguous, info.resolved),
            None => SemAnswer::Ambiguity(false, false),
        },
    }
}

/// Executes one non-apply command against the document slot.
fn exec_single(shared: &Shared, slot: &DocSlot, cmd: Cmd) {
    match cmd {
        Cmd::Open {
            config,
            text,
            semantics,
            reply,
        } => {
            let opened = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let mut session = Session::new(&config, &text)?;
                if semantics {
                    let sem = SemState::new(config.grammar(), Strictness::RequireBinding);
                    session.attach_semantics(Box::new(sem));
                }
                Ok(session)
            }));
            match opened {
                Ok(Ok(mut session)) => {
                    slot.publish(&mut session);
                    slot.state.lock().expect("doc state lock").session = Some(session);
                    shared.docs_open.fetch_add(1, Ordering::Relaxed);
                    reply.send(Ok(()));
                }
                Ok(Err(e)) => {
                    shared.docs.lock().expect("docs lock").remove(&slot.doc);
                    reply.send(Err(WorkspaceError::Open(e)));
                }
                Err(_) => {
                    poison(shared, slot);
                    reply.send(Err(WorkspaceError::Poisoned(slot.doc)));
                }
            }
        }
        Cmd::Apply { .. } => unreachable!("apply commands are grouped into runs"),
        Cmd::Close { reply } => {
            // Closing also clears a poisoned tombstone.
            slot.set_read(ReadSlot::Unpublished);
            slot.pinned.store(0, Ordering::Relaxed);
            let existed = slot
                .state
                .lock()
                .expect("doc state lock")
                .session
                .take()
                .is_some();
            if existed {
                shared.docs_open.fetch_sub(1, Ordering::Relaxed);
            }
            shared.docs.lock().expect("docs lock").remove(&slot.doc);
            reply.send(existed);
        }
        Cmd::UpdateGrammar { lang, epoch, reply } => {
            // Check the session out exactly like an apply run: the nudge
            // reparse mutates the tree (full-damage rebuild over the
            // retained token tape when it swaps), so a panic poisons only
            // this document.
            let mut session = match slot.check_out() {
                Ok((session, _)) => session,
                Err(e) => {
                    reply.send(Err(e));
                    return;
                }
            };
            let before = session.grammar_swaps();
            let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let t_cycle = Instant::now();
                session.reparse().expect("reparse is infallible");
                shared.latency.record(t_cycle.elapsed());
            }));
            match run {
                Ok(()) => {
                    shared.reparses.fetch_add(1, Ordering::Relaxed);
                    let swapped = session.grammar_swaps() > before;
                    if swapped {
                        shared.grammar_swaps.fetch_add(1, Ordering::Relaxed);
                        // Republish so snapshot readers see the new
                        // grammar's tree and semantic view.
                        slot.publish(&mut session);
                    }
                    // "Adopted" is judged against the broadcast's slot and
                    // epoch, not against whether *this* reparse swapped: an
                    // interleaved apply run may have adopted the new table
                    // organically a moment earlier, and that document is
                    // just as current.
                    let cfg = session.config();
                    let adopted = cfg.lang_slot().is_some_and(|s| Arc::ptr_eq(s, &lang))
                        && cfg.table_epoch() >= epoch;
                    slot.state.lock().expect("doc state lock").session = Some(session);
                    reply.send(Ok(adopted));
                }
                Err(_) => {
                    drop(session);
                    shared.docs_open.fetch_sub(1, Ordering::Relaxed);
                    poison(shared, slot);
                    reply.send(Err(WorkspaceError::Poisoned(slot.doc)));
                }
            }
        }
        Cmd::Text { reply } => {
            let st = slot.state.lock().expect("doc state lock");
            let text = st.session.as_ref().map(|s| s.text());
            drop(st);
            reply.send(text);
        }
        Cmd::Dump { reply } => {
            let st = slot.state.lock().expect("doc state lock");
            let dump = st.session.as_ref().map(|s| s.dump());
            drop(st);
            reply.send(dump);
        }
    }
}
