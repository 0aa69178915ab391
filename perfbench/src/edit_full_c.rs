//! `edit_full_c`: one `Session` on the full-scale C grammar over a
//! ~3,000-line document, driven by one closed-loop client on the calling
//! thread. Each keystroke is `Session::edit` → `reparse` → `publish`, timed
//! from the edit being issued until the snapshot holding it is published.
//!
//! Operations come from `wg_langs::generate::edit_script` (identifier
//! churn, comment toggle, typedef toggle, block move) at scattered sites.
//! A fifth of the churn operations are typed as bursts of single-byte
//! keystrokes — backspace the old name, type the new one — so some
//! intermediate texts do not parse and take the refusal/prefix-retry path.
//! The script is followed by its exact inverse, which returns the document
//! to its generated text, so the cycle repeats for as long as the window
//! lasts without generating input inside it.

use crate::common::*;
use crate::oracle::{corrupt, forests_equal, replay};
use crate::stats::{Rates, Samples};
use crate::trace::{Ledger, Tracer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use wg_core::{LanguageRegistry, Session};
use wg_langs::generate::{edit_script, full_c_program, EditKind, GenSpec};

const LINES: usize = 3_000;
/// Script operations per half cycle.
const SCRIPT_OPS: usize = 3_000;
const BURST_RATE: f64 = 0.2;
/// Keystrokes run before the window opens (allocator and free lists warm).
const WARMUP: usize = 300;
/// The gated tail. Over ~50,000 keystrokes per run, p99 falls among the
/// block-move steps, whose cost depends on which functions the seed's
/// script moves; p99.9 (≥50 samples beyond it) falls among the garbage
/// collection and rebalance pauses that users feel as hiccups.
const TAIL: f64 = 0.999;

/// One keystroke: `Session::edit` arguments, and whether it ends its
/// operation (the point where nothing may stay pending).
#[derive(Debug, Clone)]
pub struct Key {
    at: usize,
    remove: usize,
    insert: String,
    last: bool,
}

/// Generates the document and one full keystroke cycle from `seed`.
pub fn inputs(seed: u64, lines: usize, ops: usize) -> (String, Vec<Key>) {
    let mut spec = GenSpec::sized(lines, 0.02, seed);
    spec.lit_call_rate = 0.15;
    let text = full_c_program(&spec).text;
    let script = edit_script(&text, ops, seed);
    // Forward steps, then the inverse of each in reverse order.
    let mut doc = text.clone();
    let mut steps = Vec::with_capacity(script.len() * 2);
    let mut inverses = Vec::with_capacity(script.len());
    for e in &script {
        let removed = doc[e.at..e.at + e.remove].to_string();
        doc.replace_range(e.at..e.at + e.remove, &e.insert);
        steps.push((e.at, removed.clone(), e.insert.clone(), e.kind));
        inverses.push((e.at, e.insert.clone(), removed, e.kind));
    }
    steps.extend(inverses.into_iter().rev());
    let mut rng = Rng::new(seed);
    let mut keys = Vec::new();
    for (at, removed, insert, kind) in steps {
        let burst = kind == EditKind::IdentifierChurn && rng.chance(BURST_RATE);
        if burst && removed.is_ascii() && insert.is_ascii() {
            for i in (0..removed.len()).rev() {
                keys.push(Key {
                    at: at + i,
                    remove: 1,
                    insert: String::new(),
                    last: false,
                });
            }
            for (j, ch) in insert.char_indices() {
                keys.push(Key {
                    at: at + j,
                    remove: 0,
                    insert: ch.to_string(),
                    last: false,
                });
            }
            keys.last_mut()
                .expect("a burst types at least one byte")
                .last = true;
        } else {
            keys.push(Key {
                at,
                remove: removed.len(),
                insert,
                last: true,
            });
        }
    }
    (text, keys)
}

pub fn run(o: &Opts) -> Outcome {
    let mut out = Outcome {
        workers: 0,
        clients: 1,
        ..Outcome::default()
    };
    let (text, keys) = inputs(o.seed, LINES, SCRIPT_OPS);
    let (g, lx) = wg_langs::full_c_defs();
    let mut layers = LayerData::default();

    // Set-up: compile the language into a fresh registry and open the
    // document, several times; the last session is kept.
    let mut setup = Samples::default();
    let mut opens = Samples::default();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let (g, lx) = (g.clone(), lx.clone());
        drop(kept.take());
        let t = Instant::now();
        let registry = LanguageRegistry::new();
        let config = registry.get_or_compile(g, lx).expect("full_c compiles");
        layers.build_ns.push(since(t));
        let t_open = Instant::now();
        let session = Session::new(&config, &text).expect("generated document parses");
        let open_ns = since(t_open);
        setup.push(since(t));
        opens.push(open_ns);
        if o.trace {
            let t_lex = Instant::now();
            let lexed = config.lexer().lex(&text);
            let lex_ns = since(t_lex);
            assert!(lexed.errors.is_empty());
            layers.lex_ns.push(lex_ns);
            layers
                .open_minus_lex_ns
                .push(open_ns.saturating_sub(lex_ns));
        }
        kept = Some((config, session));
    }
    let (config, mut session) = kept.expect("set-up ran");

    let mut attempted = 0u64;
    let mut failed = 0u64;
    if o.inject_error {
        // An edit past the end of the text: the session must refuse it
        // and the run must count it as a failed operation.
        attempted += 1;
        let len = session.buffer().len();
        let r = catch_unwind(AssertUnwindSafe(|| session.edit(len + 10, 1, "x")));
        failed += u64::from(r.is_err());
    }

    let mut tr = Tracer::new(Instant::now(), 0);
    let mut write = Samples::with_capacity(64 * 1024);
    let mut rates = Rates::default();
    let mut panicked = false;
    let mut counters = Counters::default();
    let (mut t_traced, mut t_untraced) = (Duration::ZERO, Duration::ZERO);
    let (mut n_traced, mut n_untraced) = (0u64, 0u64);

    let keystroke = |session: &mut Session, k: &Key, tr: &mut Tracer, c: &mut Counters| {
        let t0 = Instant::now();
        let op = tr.begin("keystroke");
        let s = tr.begin("document.edit");
        session.edit(k.at, k.remove, &k.insert);
        tr.end(s);
        let edit_d = t0.elapsed();
        let s = tr.begin("core.reparse");
        let r = session.reparse().expect("reparse is infallible");
        tr.end(s);
        let rewind = r.report.buffer.saturating_sub(edit_d);
        attach_report(tr, s, &r.report, rewind, false);
        let s = tr.begin("snapshot.publish");
        let snap = session.publish();
        tr.end(s);
        let lat = since(t0);
        tr.end(op);
        drop(snap);
        c.absorb(&r.report, r.remaining_edits > 0);
        (lat, r.remaining_edits, r.report.buffer)
    };

    // The first WARMUP keystrokes (to an operation boundary) run before the
    // window opens: checked like the rest, but untimed.
    let window = o.window();
    let mut i = 0usize; // keystrokes applied, for the text oracle
    let mut t_start: Option<Instant> = None;
    let mut t_op = Instant::now();
    loop {
        let k = &keys[i % keys.len()];
        let boundary = keys[(i + keys.len() - 1) % keys.len()].last;
        if t_start.is_none() && i >= WARMUP && boundary {
            t_op = Instant::now();
            t_start = Some(t_op);
        }
        let elapsed = t_start.map(|t| t_op.duration_since(t));
        if elapsed.is_some_and(|e| e >= window) && boundary {
            break;
        }
        let traced = elapsed.is_some_and(|e| traced_slice(o.trace, e));
        tr.set_enabled(traced);
        attempted += 1;
        let mut warmup_counters = Counters::default();
        let c = if elapsed.is_some() {
            &mut counters
        } else {
            &mut warmup_counters
        };
        let r = catch_unwind(AssertUnwindSafe(|| keystroke(&mut session, k, &mut tr, c)));
        i += 1;
        let Ok((lat, pending, buffer)) = r else {
            failed += 1;
            panicked = true;
            break;
        };
        if k.last && pending > 0 {
            failed += 1;
        }
        if elapsed.is_none() {
            continue;
        }
        write.push(lat);
        if traced {
            layers.buffer_ns.push(ns(buffer));
        }
        let now = Instant::now();
        rates.add(1, now - t_op);
        if traced {
            t_traced += now - t_op;
            n_traced += 1;
        } else {
            t_untraced += now - t_op;
            n_untraced += 1;
        }
        t_op = now;
    }
    tr.set_enabled(false);

    // Oracles, outside every timer.
    if panicked {
        out.check("no_panic", false);
    } else {
        let mut expected = replay(
            &text,
            (0..i).map(|j| {
                let k = &keys[j % keys.len()];
                (k.at, k.remove, k.insert.as_str())
            }),
        );
        if o.corrupt == Some(Corrupt::Text) {
            corrupt(&mut expected);
        }
        let actual = session.text();
        out.check("text_equals_replay", actual == expected);
        match Session::new(&config, &actual) {
            Ok(fresh) => {
                out.check(
                    "tree_equals_fresh_parse",
                    forests_equal(session.arena(), session.root(), fresh.arena(), fresh.root()),
                );
                let snap = session.publish();
                out.check(
                    "snapshot_equals_fresh_parse",
                    forests_equal(snap.dag(), snap.root(), fresh.arena(), fresh.root()),
                );
            }
            Err(_) => out.check("final_text_parses", false),
        }
    }

    out.attempted = attempted;
    out.failed = failed;
    out.e2e = end_to_end(&setup, &[rates], &write, TAIL);
    out.named = timing("keystroke", &write, &[0.5, 0.99, TAIL], "us");
    out.named.push(open_metric(&opens));
    if o.trace {
        let spans = tr.into_spans();
        crate::write_trace(o, "edit_full_c", &spans);
        layers.ledger = Ledger::build(&spans);
        layers.c = counters;
        layers.rate_traced = n_traced as f64 / t_traced.as_secs_f64().max(1e-9);
        layers.rate_untraced = n_untraced as f64 / t_untraced.as_secs_f64().max(1e-9);
        layer_metrics(&layers, &mut out);
    }
    out
}
