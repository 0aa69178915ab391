//! `ide_mix`: a `Workspace` with two workers over 32 `simp_c_det`
//! documents of ~400 lines, opened with semantic analysis. Two closed-loop
//! clients each own half the documents and visit them in turn. Nine in ten
//! operations resolve the identifier at an offset (`Workspace::query` with
//! `ResolveAt`); the rest are self-cancelling identifier edits
//! (`wg_bench::read_mostly_ops_every` with period 10), applied as two
//! keystrokes of one `Workspace::apply` each. An apply replies after the
//! new version is published, so its latency is keystroke → readable.
//!
//! The window is split into segments, each on a freshly set-up workspace.
//! Every edit pair restores its document, so every query reads the
//! generated text and its answer must equal `Session::semantic_info_at`
//! on a fresh session of that text with semantics attached — computed
//! before set-up from an independently compiled configuration.

use crate::common::*;
use crate::oracle::{corrupt, replay};
use crate::stats::{Rates, Samples};
use crate::trace::{merge, Ledger, Tracer};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wg_bench::{doc_workloads, read_mostly_ops_every, ReadOp};
use wg_core::{LanguageRegistry, SemInfo, Session, SessionConfig};
use wg_sem::{SemState, Strictness};
use wg_workspace::{DocId, EditReq, SemAnswer, SemQuery, Workspace};

const DOCS: usize = 32;
const LINES: usize = 400;
/// Operations generated per document; the stream repeats.
const OPS_PER_DOC: usize = 1_000;
const EDIT_PERIOD: usize = 10;
const MAILBOX: usize = 64;
/// The window is run in this many equal segments, each on a workspace of
/// its own (set up `SETUP_REPS / SEGMENTS` times; the last one is kept).
/// Apply latency moves by up to ~15% from one freshly set-up workspace to
/// the next, even within one process, so pooling the groups of three
/// workspaces steadies the figures.
const SEGMENTS: usize = 3;
const _: () = assert!(SETUP_REPS.is_multiple_of(SEGMENTS));
/// The gated keystroke tail. Beyond p90 the apply latency follows the
/// host rather than the program: p99 (also printed) sits near 1.5 ms while
/// the host leaves both CPUs to the four busy threads, and near 8 ms when
/// it takes a CPU away every few hundred applies; p99.9 moves between 3 and
/// 15 ms from run to run. p90, as the median over 31 consecutive groups of
/// applies, holds still in both.
const TAIL: f64 = 0.90;

struct Doc {
    text: String,
    ops: Vec<ReadOp>,
    /// Expected answer per query op (`None` entries for edit pairs).
    expected: Vec<Option<SemInfo>>,
}

fn inputs(seed: u64) -> Vec<Doc> {
    let oracle_config = wg_langs::simp_c_det();
    doc_workloads(DOCS, LINES, 0, seed)
        .into_iter()
        .enumerate()
        .map(|(i, w)| {
            let ops = read_mostly_ops_every(&w.text, OPS_PER_DOC, seed ^ (i as u64), EDIT_PERIOD);
            let expected = expected_answers(&oracle_config, &w.text, &ops);
            Doc {
                text: w.text,
                ops,
                expected,
            }
        })
        .collect()
}

fn expected_answers(config: &SessionConfig, text: &str, ops: &[ReadOp]) -> Vec<Option<SemInfo>> {
    let mut s = Session::new(config, text).expect("generated document parses");
    s.attach_semantics(Box::new(SemState::new(
        config.grammar(),
        Strictness::RequireBinding,
    )));
    ops.iter()
        .map(|op| match op {
            ReadOp::Query(at) => s.semantic_info_at(*at),
            ReadOp::Pair(..) => None,
        })
        .collect()
}

/// What one client thread measured.
#[derive(Default)]
struct Client {
    applies: Samples,
    queries: Samples,
    rates: Rates,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    counters: Counters,
    buffer_ns: Samples,
    spans: Vec<crate::trace::Span>,
    /// Operations completed per owned document (index into `docs`).
    done: Vec<(usize, usize)>,
    t_traced: Duration,
    t_untraced: Duration,
    n_traced: u64,
    n_untraced: u64,
}

fn apply_one(
    ws: &Workspace,
    id: DocId,
    e: &wg_bench::EditOp,
    tr: &mut Tracer,
    c: &mut Client,
) -> bool {
    let t0 = Instant::now();
    let op = tr.begin("keystroke");
    let s = tr.begin("workspace.apply");
    let mut reports = ws.apply(vec![(
        id,
        vec![EditReq::replace(e.start, e.removed, &e.insert)],
    )]);
    tr.end(s);
    let lat = since(t0);
    let ok = match reports.pop().map(|r| r.result) {
        Some(Ok(o)) => {
            let svc = tr.attach(s, "workspace.service", o.latency);
            attach_report(tr, svc, &o.last_report, o.last_report.buffer, true);
            c.counters.absorb(&o.last_report, o.edits_refused > 0);
            if tr.enabled() {
                c.buffer_ns.push(ns(o.last_report.buffer));
            }
            o.edits_refused == 0
        }
        _ => false,
    };
    tr.end(op);
    c.applies.push(lat);
    c.attempted += 1;
    c.failed += u64::from(!ok);
    ok
}

/// A client's measured stretch: it runs from `start` for `length`; its
/// spans are timed from the run's `epoch`.
#[derive(Clone, Copy)]
struct Window {
    epoch: Instant,
    start: Instant,
    length: Duration,
}

fn client(
    ws: &Workspace,
    ids: &[DocId],
    docs: &[Doc],
    mine: Vec<usize>,
    thread: u64,
    w: Window,
    o: &Opts,
) -> Client {
    let mut c = Client {
        done: mine.iter().map(|&d| (d, 0)).collect(),
        ..Client::default()
    };
    let mut tr = Tracer::new(w.epoch, thread);
    let mut turn = 0usize;
    let mut t_op = Instant::now();
    loop {
        let elapsed = t_op.duration_since(w.start);
        if elapsed >= w.length {
            break;
        }
        let traced = traced_slice(o.trace, elapsed);
        tr.set_enabled(traced);
        let slot = turn % c.done.len();
        turn += 1;
        let (d, k) = c.done[slot];
        let doc = &docs[d];
        let ops = match &doc.ops[k % doc.ops.len()] {
            ReadOp::Query(at) => {
                let t0 = Instant::now();
                let op = tr.begin("query");
                let s = tr.begin("workspace.query");
                let answer = ws.query(ids[d], SemQuery::ResolveAt(*at));
                tr.end(s);
                tr.end(op);
                c.queries.push(since(t0));
                c.attempted += 1;
                match answer {
                    Ok(SemAnswer::Resolution(info)) => {
                        c.mismatches += u64::from(info != doc.expected[k % doc.ops.len()]);
                    }
                    Ok(_) => c.mismatches += 1,
                    Err(_) => c.failed += 1,
                }
                1
            }
            ReadOp::Pair(mutate, restore) => {
                apply_one(ws, ids[d], mutate, &mut tr, &mut c);
                apply_one(ws, ids[d], restore, &mut tr, &mut c);
                2
            }
        };
        c.done[slot].1 += 1;
        let now = Instant::now();
        c.rates.add(ops, now - t_op);
        if traced {
            c.t_traced += now - t_op;
            c.n_traced += ops;
        } else {
            c.t_untraced += now - t_op;
            c.n_untraced += ops;
        }
        t_op = now;
    }
    tr.set_enabled(false);
    c.spans = tr.into_spans();
    c
}

pub fn run(o: &Opts) -> Outcome {
    let workers = nproc().min(2);
    let clients = nproc().min(2);
    let mut out = Outcome {
        workers,
        clients,
        ..Outcome::default()
    };
    let mut docs = inputs(o.seed);
    if o.corrupt == Some(Corrupt::SemInfo) {
        let slot = docs[0]
            .ops
            .iter()
            .position(|op| matches!(op, ReadOp::Query(_)))
            .expect("a query op");
        let e = &mut docs[0].expected[slot];
        *e = match e.take() {
            Some(mut info) => {
                info.uses += 1;
                Some(info)
            }
            None => Some(SemInfo {
                name: "corrupted".to_string(),
                kind: None,
                ambiguous: false,
                resolved: false,
                uses: 0,
            }),
        };
    }
    let (g, lx) = wg_langs::simp_c_det_defs();
    let mut layers = LayerData::default();
    let mut setup = Samples::default();
    let mut opens = Samples::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut texts_ok = true;
    let mut results: Vec<Client> = Vec::new();
    let mut counters = Counters::default();
    let epoch = Instant::now();
    let window = o.window() / SEGMENTS as u32;
    for seg in 0..SEGMENTS {
        let mut kept: Option<(Workspace, Vec<DocId>)> = None;
        for _ in 0..SETUP_REPS / SEGMENTS {
            let (g, lx) = (g.clone(), lx.clone());
            if let Some((ws, _)) = kept.take() {
                ws.shutdown();
            }
            let t = Instant::now();
            let registry = Arc::new(LanguageRegistry::new());
            let config = registry.get_or_compile(g, lx).expect("simp_c_det compiles");
            layers.build_ns.push(since(t));
            let ws = Workspace::with_registry(workers, MAILBOX, registry);
            let mut ids = Vec::with_capacity(docs.len());
            for d in &docs {
                let t_open = Instant::now();
                let id = ws
                    .open_with_semantics(&config, &d.text)
                    .expect("generated document opens");
                let open_ns = since(t_open);
                opens.push(open_ns);
                ids.push(id);
                if o.trace {
                    let t_lex = Instant::now();
                    let lexed = config.lexer().lex(&d.text);
                    let lex_ns = since(t_lex);
                    assert!(lexed.errors.is_empty());
                    layers.lex_ns.push(lex_ns);
                    layers
                        .open_minus_lex_ns
                        .push(open_ns.saturating_sub(lex_ns));
                }
            }
            setup.push(since(t));
            kept = Some((ws, ids));
        }
        let (ws, ids) = kept.expect("set-up ran");

        if seg == 0 && o.inject_error {
            // A query to a document that was never opened must fail.
            attempted += 1;
            failed += u64::from(ws.query(DocId(u64::MAX), SemQuery::ResolveAt(0)).is_err());
        }

        let before = ws.metrics();
        let start = Instant::now();
        let seg_results: Vec<Client> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let mine: Vec<usize> = (0..docs.len()).filter(|d| d % clients == c).collect();
                    let (ws, ids, docs) = (&ws, &ids, &docs);
                    let thread = (seg * clients + c) as u64;
                    let span = Window {
                        epoch,
                        start,
                        length: window,
                    };
                    scope.spawn(move || client(ws, ids, docs, mine, thread, span, o))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let after = ws.metrics();
        counters.steals += after.steals - before.steals;
        counters.migrations += after.migrations - before.migrations;
        counters.coalesced += after.coalesced_edits - before.coalesced_edits;
        counters.queries += after.queries - before.queries;
        counters.snapshot_reads += after.snapshot_reads - before.snapshot_reads;

        // The text oracle, outside every timer: each document equals its
        // text with this segment's completed edits replayed.
        let mut done = vec![0usize; docs.len()];
        for c in &seg_results {
            for &(d, k) in &c.done {
                done[d] = k;
            }
        }
        for (d, doc) in docs.iter().enumerate() {
            let mut edits = Vec::new();
            for j in 0..done[d] {
                if let ReadOp::Pair(m, r) = &doc.ops[j % doc.ops.len()] {
                    edits.push((m.start, m.removed, m.insert.as_str()));
                    edits.push((r.start, r.removed, r.insert.as_str()));
                }
            }
            let mut expected = replay(&doc.text, edits);
            if seg == 0 && d == 0 && o.corrupt == Some(Corrupt::Text) {
                corrupt(&mut expected);
            }
            texts_ok &= ws.text(ids[d]).as_deref() == Some(expected.as_str());
        }
        ws.shutdown();
        results.extend(seg_results);
    }

    let mut applies = Samples::default();
    let mut queries = Samples::default();
    // One rate per client, its groups pooled over the segments.
    let mut rates = vec![Rates::default(); clients];
    let mut mismatches = 0u64;
    let mut per_thread = Vec::new();
    let (mut t_traced, mut t_untraced, mut n_traced, mut n_untraced) =
        (Duration::ZERO, Duration::ZERO, 0u64, 0u64);
    for (i, c) in results.into_iter().enumerate() {
        applies.extend(c.applies);
        queries.extend(c.queries);
        rates[i % clients].merge(&c.rates);
        attempted += c.attempted;
        failed += c.failed;
        mismatches += c.mismatches;
        counters.merge(&c.counters);
        layers.buffer_ns.extend(c.buffer_ns);
        per_thread.push(c.spans);
        t_traced += c.t_traced;
        t_untraced += c.t_untraced;
        n_traced += c.n_traced;
        n_untraced += c.n_untraced;
    }
    out.check("answers_equal_fresh_sessions", mismatches == 0);
    out.check("texts_equal_replay", texts_ok);

    out.attempted = attempted;
    out.failed = failed;
    out.e2e = end_to_end(&setup, &rates, &applies, TAIL);
    out.named = timing("keystroke", &applies, &[0.5, TAIL, 0.99, 0.999], "us");
    out.named
        .extend(timing("query", &queries, &[0.5, 0.99, 0.999], "us"));
    out.named.push(open_metric(&opens));
    if o.trace {
        let spans = merge(per_thread);
        crate::write_trace(o, "ide_mix", &spans);
        layers.ledger = Ledger::build(&spans);
        layers.c = counters;
        // Each client's time is summed, so a per-client rate times the
        // client count is the workspace's rate.
        let k = clients as f64;
        layers.rate_traced = k * n_traced as f64 / t_traced.as_secs_f64().max(1e-9);
        layers.rate_untraced = k * n_untraced as f64 / t_untraced.as_secs_f64().max(1e-9);
        layer_metrics(&layers, &mut out);
    }
    out
}
