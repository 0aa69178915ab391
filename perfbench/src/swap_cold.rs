//! `swap_cold`: the whole-document paths. A `Workspace` with two workers
//! runs rounds; each round opens two fresh full-scale C documents of
//! ~1,500 lines (cold lex and batch parse), runs a fixed cycle of
//! single-production grammar deltas through `Workspace::update_grammar`
//! — add `X → t`, then remove it again, for each of a few nonterminals `X`
//! — and closes the documents. A swap returns once every open document is
//! on the new table epoch (incremental `LrTable::update`, the epoch
//! broadcast and a full-damage adoption reparse per document). The grammar
//! is back at its base every second swap, so every round sees the same
//! deltas; the seed chooses the documents.
//!
//! After each swap every document's tree must equal a fresh session of
//! its text under a table built from scratch for the post-delta grammar.
//! The documents have no edit history — each tree is one batch parse —
//! so the dump, including its recorded parse states, must match byte for
//! byte; it is compared by hash.

use crate::common::*;
use crate::oracle::corrupt;
use crate::stats::{Rates, Samples};
use crate::trace::{Ledger, Tracer};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wg_core::{LanguageRegistry, Session, SessionConfig};
use wg_grammar::{Grammar, GrammarDelta, ProdId, Symbol};
use wg_langs::generate::{full_c_program, GenSpec};
use wg_workspace::{DocId, Workspace};

const LINES: usize = 1_500;
const DOCS_PER_ROUND: usize = 2;
/// Distinct documents generated; rounds cycle through them. Adoption cost
/// follows document size, so averaging over more documents keeps one
/// seed's draw from moving the result.
const POOL: usize = 8;
/// Add/remove delta pairs per round.
const DELTA_PAIRS: usize = 3;
const MAILBOX: usize = 64;
const TAIL: f64 = 0.90;

/// One swap of the cycle: the delta, and the grammar version it installs
/// (0 = base, i = base plus the i-th added production).
struct Swap {
    delta: GrammarDelta,
    version: usize,
}

struct Inputs {
    texts: Vec<String>,
    swaps: Vec<Swap>,
    /// Independently built configurations, one per grammar version.
    fresh: Vec<SessionConfig>,
}

fn hash(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// The delta cycle: for `DELTA_PAIRS` nonterminals `X` spread over the
/// grammar, add `X → t`, then remove that production. `t` is the first
/// terminal, end of input, which never occurs inside a document: each delta
/// changes the table but no document's parse, so every swap asks the same
/// adoption work of the documents. Fixed for every seed.
fn delta_cycle(g0: &Grammar) -> Vec<(GrammarDelta, Grammar, GrammarDelta)> {
    let t0 = g0.terminals().next().expect("grammar has terminals");
    let nts: Vec<_> = g0.nonterminals().filter(|&n| n != g0.start()).collect();
    let step = (nts.len() / (DELTA_PAIRS + 1)).max(1);
    let mut out = Vec::new();
    for &x in nts.iter().skip(step / 2).step_by(step) {
        if out.len() == DELTA_PAIRS {
            break;
        }
        let mut add = GrammarDelta::new(g0);
        add.add_production(x, vec![Symbol::T(t0)]);
        let Ok((g1, _)) = g0.apply_delta(&add) else {
            continue;
        };
        let added: ProdId = g1
            .productions()
            .map(|(id, _)| id)
            .last()
            .expect("g1 has productions");
        let p = g1.production(added);
        assert!(p.lhs() == x && p.rhs() == [Symbol::T(t0)]);
        let mut remove = GrammarDelta::new(&g1);
        remove.remove_production(added);
        let (g2, _) = g1.apply_delta(&remove).expect("removal applies");
        assert_eq!(
            g2.fingerprint(),
            g0.fingerprint(),
            "removing the added production restores the base grammar"
        );
        out.push((add, g1, remove));
    }
    assert_eq!(out.len(), DELTA_PAIRS, "not enough delta candidates");
    out
}

fn inputs(seed: u64) -> Inputs {
    let texts = (0..POOL)
        .map(|j| {
            let mut spec =
                GenSpec::sized(LINES, 0.02, seed.wrapping_mul(1_000).wrapping_add(j as u64));
            spec.lit_call_rate = 0.15;
            full_c_program(&spec).text
        })
        .collect();
    let (g0, lx) = wg_langs::full_c_defs();
    let mut swaps = Vec::new();
    let mut fresh = vec![SessionConfig::new(g0.clone(), lx.clone()).expect("full_c compiles")];
    for (i, (add, g1, remove)) in delta_cycle(&g0).into_iter().enumerate() {
        fresh.push(SessionConfig::new(g1, lx.clone()).expect("post-delta grammar compiles"));
        swaps.push(Swap {
            delta: add,
            version: i + 1,
        });
        swaps.push(Swap {
            delta: remove,
            version: 0,
        });
    }
    Inputs {
        texts,
        swaps,
        fresh,
    }
}

pub fn run(o: &Opts) -> Outcome {
    let workers = nproc().min(2);
    let mut out = Outcome {
        workers,
        clients: 1,
        ..Outcome::default()
    };
    let inp = inputs(o.seed);
    let (g, lx) = wg_langs::full_c_defs();
    let mut layers = LayerData::default();

    // Set-up: compile the language into a fresh registry and start the
    // workspace; documents are opened by the rounds themselves.
    let mut setup = Samples::default();
    let mut kept: Option<(Workspace, SessionConfig)> = None;
    for _ in 0..SETUP_REPS {
        let (g, lx) = (g.clone(), lx.clone());
        if let Some((ws, _)) = kept.take() {
            ws.shutdown();
        }
        let t = Instant::now();
        let registry = Arc::new(LanguageRegistry::new());
        let config = registry.get_or_compile(g, lx).expect("full_c compiles");
        layers.build_ns.push(since(t));
        let ws = Workspace::with_registry(workers, MAILBOX, registry);
        setup.push(since(t));
        kept = Some((ws, config));
    }
    let (ws, config) = kept.expect("set-up ran");
    let registry = Arc::clone(ws.registry());

    let mut attempted = 0u64;
    let mut failed = 0u64;
    if o.inject_error {
        // A delta recorded against a grammar the registry never compiled.
        attempted += 1;
        let other = wg_langs::simp_c_det_defs().0;
        failed += u64::from(ws.update_grammar(&GrammarDelta::new(&other)).is_err());
    }

    let mut tr = Tracer::new(Instant::now(), 0);
    let mut swaps = Samples::default();
    let mut rates = Rates::default();
    let mut opens = Samples::default();
    let mut counters = Counters::default();
    let mut expected_dumps: HashMap<(usize, usize), u64> = HashMap::new();
    let (mut trees_ok, mut texts_ok, mut swapped_ok) = (true, true, true);
    let mut excluded = Duration::ZERO; // oracle and standalone-layer time
    let (mut t_traced, mut t_untraced) = (Duration::ZERO, Duration::ZERO);
    let (mut n_traced, mut n_untraced) = (0u64, 0u64);
    let window = o.window();
    let start = Instant::now();
    let mut round = 0usize;
    while start.elapsed().saturating_sub(excluded) < window {
        let t_round = Instant::now();
        let excluded_before = excluded;
        let traced = traced_slice(o.trace, start.elapsed().saturating_sub(excluded));
        tr.set_enabled(traced);
        let picks: Vec<usize> = (0..DOCS_PER_ROUND)
            .map(|j| (round * DOCS_PER_ROUND + j) % POOL)
            .collect();
        // Open documents with the pool index of their text.
        let mut docs: Vec<(DocId, usize)> = Vec::new();
        for &p in &picks {
            let text = &inp.texts[p];
            let t0 = Instant::now();
            let op = tr.begin("open");
            let s = tr.begin("core.open");
            let id = ws.open_with(&config, text);
            tr.end(s);
            let open_ns = since(t0);
            tr.end(op);
            opens.push(open_ns);
            attempted += 1;
            match id {
                Ok(id) => docs.push((id, p)),
                Err(_) => failed += 1,
            }
            if traced {
                let t_lex = Instant::now();
                let lexed = config.lexer().lex(text);
                let lex_ns = since(t_lex);
                assert!(lexed.errors.is_empty());
                layers.lex_ns.push(lex_ns);
                layers
                    .open_minus_lex_ns
                    .push(open_ns.saturating_sub(lex_ns));
                tr.attach(s, "lexer.lex", Duration::from_nanos(lex_ns.min(open_ns)));
                excluded += t_lex.elapsed();
            }
        }
        for sw in &inp.swaps {
            // The standalone table update needs the tables as they are
            // before the swap.
            let before = traced.then(|| {
                registry
                    .slot_by_fingerprint(sw.delta.base_fingerprint())
                    .expect("slot of the current grammar")
                    .current()
            });
            let t0 = Instant::now();
            let op = tr.begin("swap");
            let s = tr.begin("workspace.update_grammar");
            let report = ws.update_grammar(&sw.delta);
            tr.end(s);
            let lat = since(t0);
            tr.end(op);
            swaps.push(lat);
            attempted += 1;
            let t_ex = Instant::now();
            match report {
                Ok(r) if r.sessions_pending == 0 && r.sessions_swapped == docs.len() => {
                    counters.swaps += 1;
                    counters.states_reused += r.stats.states_reused as u64;
                    counters.rows_reused += r.stats.rows_reused as u64;
                    counters.full_rebuilds += u64::from(r.stats.full_rebuild);
                }
                Ok(_) => {
                    failed += 1;
                    swapped_ok = false;
                }
                Err(_) => failed += 1,
            }
            if let Some((old_g, old_table, _)) = before {
                let (new_g, map) = old_g.apply_delta(&sw.delta).expect("delta applies");
                let t_up = Instant::now();
                let updated = old_table.update(&old_g, &new_g, &map);
                let up_ns = since(t_up);
                assert!(updated.is_ok());
                layers.update_ns.push(up_ns);
                let up = up_ns.min(lat);
                tr.attach(s, "lrtable.update", Duration::from_nanos(up));
                tr.attach(s, "registry.adopt", Duration::from_nanos(lat - up));
            }
            // Every open tree against a fresh parse under the new grammar.
            // The documents dump on their own shards, so ask in parallel.
            let got: Vec<Option<u64>> = std::thread::scope(|sc| {
                let ws = &ws;
                let dumps: Vec<_> = docs
                    .iter()
                    .map(|&(id, _)| sc.spawn(move || ws.dump(id).map(|d| hash(&d))))
                    .collect();
                dumps
                    .into_iter()
                    .map(|h| h.join().expect("dump thread panicked"))
                    .collect()
            });
            for (&(_, p), got) in docs.iter().zip(got) {
                let want = *expected_dumps.entry((sw.version, p)).or_insert_with(|| {
                    let fresh = Session::new(&inp.fresh[sw.version], &inp.texts[p])
                        .expect("document parses under the post-delta grammar");
                    hash(&fresh.dump())
                });
                trees_ok &= got == Some(want);
            }
            excluded += t_ex.elapsed();
        }
        let t_ex = Instant::now();
        for (k, &(id, p)) in docs.iter().enumerate() {
            let mut expected = inp.texts[p].clone();
            if round == 0 && k == 0 && o.corrupt == Some(Corrupt::Text) {
                corrupt(&mut expected);
            }
            texts_ok &= ws.text(id).as_deref() == Some(expected.as_str());
        }
        excluded += t_ex.elapsed();
        for (id, _) in docs {
            let op = tr.begin("close");
            let s = tr.begin("workspace.close");
            let closed = ws.close(id);
            tr.end(s);
            tr.end(op);
            attempted += 1;
            failed += u64::from(!closed);
        }
        let spent = t_round.elapsed() - (excluded - excluded_before);
        let n = inp.swaps.len() as u64;
        rates.add(n, spent);
        if traced {
            t_traced += spent;
            n_traced += n;
        } else {
            t_untraced += spent;
            n_untraced += n;
        }
        round += 1;
    }
    tr.set_enabled(false);
    ws.shutdown();

    out.check("trees_equal_fresh_parse", trees_ok);
    out.check("every_document_swapped", swapped_ok);
    out.check("texts_equal_generated", texts_ok);
    out.attempted = attempted;
    out.failed = failed;
    out.e2e = end_to_end(&setup, &[rates], &swaps, TAIL);
    out.named = timing("swap", &swaps, &[0.5, TAIL], "ms");
    out.named.push(open_metric(&opens));
    if o.trace {
        let spans = tr.into_spans();
        crate::write_trace(o, "swap_cold", &spans);
        layers.ledger = Ledger::build(&spans);
        layers.c = counters;
        layers.rate_traced = n_traced as f64 / t_traced.as_secs_f64().max(1e-9);
        layers.rate_untraced = n_untraced as f64 / t_untraced.as_secs_f64().max(1e-9);
        layer_metrics(&layers, &mut out);
    }
    out
}
