//! **Section 3.3 ablation** — why the paper drives IGLR with LALR(1)
//! tables: they are far smaller than canonical LR(1), parse faster in
//! non-deterministic regions, and merge states with like cores, improving
//! incremental reuse. We compare SLR(1) and LALR(1) construction on the
//! workspace grammars: table size, conflicts (spurious SLR conflicts cause
//! extra parser forking), and batch IGLR parse effort driven by each.
//!
//! Also reports the **packed table representation**: for every workspace
//! grammar, the packed (tagged-u32 cells + shared conflict arena +
//! equivalence-classed columns + default reductions) size against the
//! naive cell-of-Vecs build, written to `target/bench/BENCH_tables.json`
//! for CI to archive.
//!
//! And the **incremental table update**: for `simp_c` and the full-scale
//! C grammar, the median cost of deriving the new LALR automaton from a
//! single-production [`wg_grammar::GrammarDelta`] via [`LrTable::update`]
//! (reachability-seeded replay + structural state/row reuse) against a
//! from-scratch rebuild, plus the fraction of states reused. The
//! full-scale row carries hard floors: ≥ 80% of states reused and ≥ 5×
//! faster than the rebuild.
//!
//! Run: `cargo run --release -p wg-bench --bin tables`
//!
//! `--check-against <baseline.json>` turns the run into a regression
//! gate: the fresh incremental-update medians are compared against the
//! committed `BENCH_tables.json` and the process exits nonzero when one
//! slowed by more than `--tolerance <fraction>` (default 0.25).

use std::time::Instant;
use wg_bench::gate::{Baseline, GateArgs};
use wg_bench::json::Json;
use wg_bench::{fmt_dur, print_table, time_once, tokenize};
use wg_core::IglrParser;
use wg_dag::DagArena;
use wg_grammar::{Grammar, GrammarDelta, Symbol};
use wg_langs::generate::{c_program, GenSpec};
use wg_langs::{simp_c, simp_c_det, simp_cpp, simp_modula};
use wg_lrtable::{lr1_metrics, LrTable, RefTable, TableKind};

/// One grammar's packed-vs-naive measurement for `BENCH_tables.json`.
struct PackedRow {
    name: String,
    states: usize,
    terminals: usize,
    term_classes: usize,
    action_entries: usize,
    default_reduce_states: usize,
    spilled_cells: usize,
    packed_bytes: usize,
    naive_bytes: usize,
}

fn packed_report(grammars: &[(&str, wg_grammar::Grammar)]) -> Vec<PackedRow> {
    grammars
        .iter()
        .map(|(name, g)| {
            let table = LrTable::build(g, TableKind::Lalr);
            let naive = RefTable::build(g, TableKind::Lalr);
            let s = table.stats();
            PackedRow {
                name: name.to_string(),
                states: s.states,
                terminals: s.terminals,
                term_classes: s.term_classes,
                action_entries: s.action_entries,
                default_reduce_states: s.default_reduce_states,
                spilled_cells: s.spilled_cells,
                packed_bytes: s.packed_bytes,
                naive_bytes: naive.naive_bytes(),
            }
        })
        .collect()
}

/// One grammar's incremental-update measurement for `BENCH_tables.json`.
struct IncrRow {
    name: String,
    /// States in the post-delta automaton (median candidate).
    states: usize,
    /// States reused from the retained automaton (median candidate).
    states_reused: usize,
    /// Packed ACTION rows transformed instead of rebuilt.
    rows_reused: usize,
    /// Median ns of one [`LrTable::update`] over the candidate deltas,
    /// re-timed on the median candidate.
    update_ns: u64,
    /// Median ns of a from-scratch LALR build of the same post-delta
    /// grammar.
    rebuild_ns: u64,
    /// Single-production candidate deltas measured.
    candidates: usize,
}

fn median_ns(mut v: Vec<u64>) -> u64 {
    v.sort_unstable();
    v[v.len() / 2]
}

/// Measures incremental table update for one grammar: a sweep of
/// single-production deltas (`X -> t` for a spread of non-start
/// nonterminals `X`), the median candidate re-timed against a
/// from-scratch rebuild of the same post-delta grammar.
fn incr_update_report(name: &str, g: &Grammar) -> IncrRow {
    let table = LrTable::build(g, TableKind::Lalr);
    let t0 = g.terminals().next().expect("grammar has terminals");
    let start = g.start();
    let nts: Vec<_> = g.nonterminals().filter(|&n| n != start).collect();
    let step = (nts.len() / 32).max(1);

    // One timed update per candidate; the median is robust against the
    // occasional scheduler hiccup even from single runs.
    let mut runs: Vec<(u64, Grammar, wg_grammar::DeltaMap)> = Vec::new();
    for &x in nts.iter().step_by(step).take(32) {
        let mut d = GrammarDelta::new(g);
        d.add_production(x, vec![Symbol::T(t0)]);
        let Ok((ng, map)) = g.apply_delta(&d) else {
            continue;
        };
        let t = Instant::now();
        let Ok((_, stats)) = table.update(g, &ng, &map) else {
            continue;
        };
        let ns = t.elapsed().as_nanos() as u64;
        if stats.full_rebuild {
            continue; // touches the start production; not the shape measured
        }
        runs.push((ns, ng, map));
    }
    assert!(
        !runs.is_empty(),
        "{name}: no single-production delta applied"
    );
    runs.sort_by_key(|r| r.0);
    let candidates = runs.len();
    let (_, ng, map) = &runs[candidates / 2];

    // Re-time the median candidate for the recorded (and gated) numbers.
    // Update and rebuild samples alternate, so a drift in host speed
    // during the measurement moves both medians alike and their ratio
    // (the speedup floor) reads through it. Each timed sample follows an
    // untimed run of the same operation: right after a rebuild an update
    // runs on caches the rebuild evicted, which would charge the update
    // for its neighbour.
    let update = || {
        let t = Instant::now();
        let (_, stats) = table.update(g, ng, map).expect("update succeeds");
        (t.elapsed().as_nanos() as u64, stats)
    };
    let rebuild = || {
        let t = Instant::now();
        let rebuilt = LrTable::build(ng, TableKind::Lalr);
        let ns = t.elapsed().as_nanos() as u64;
        assert!(rebuilt.num_states() > 0);
        ns
    };
    let mut update_samples = Vec::new();
    let mut rebuild_samples = Vec::new();
    let mut stats = None;
    for _ in 0..9 {
        update();
        let (ns, s) = update();
        update_samples.push(ns);
        stats = Some(s);
        rebuild();
        rebuild_samples.push(rebuild());
    }
    let stats = stats.expect("timed at least one update");
    let update_ns = median_ns(update_samples);
    let rebuild_ns = median_ns(rebuild_samples);
    IncrRow {
        name: name.to_string(),
        states: stats.states,
        states_reused: stats.states_reused,
        rows_reused: stats.rows_reused,
        update_ns,
        rebuild_ns,
        candidates,
    }
}

/// Hand-rolled JSON (the container has no serde): the core count the
/// timings were taken on, one row per grammar, plus the incremental-update
/// medians.
fn write_tables_json(file: &str, rows: &[PackedRow], incr: &[IncrRow]) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut j = String::new();
    j.push_str(&format!(
        "{{\n  \"bench\": \"tables\",\n  \"cores\": {cores},\n  \"grammars\": [\n"
    ));
    for (i, r) in rows.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"name\": \"{}\", \"states\": {}, \"terminals\": {}, \"term_classes\": {}, \"action_entries\": {}, \"default_reduce_states\": {}, \"spilled_cells\": {}, \"packed_bytes\": {}, \"naive_bytes\": {}}}{}\n",
            r.name,
            r.states,
            r.terminals,
            r.term_classes,
            r.action_entries,
            r.default_reduce_states,
            r.spilled_cells,
            r.packed_bytes,
            r.naive_bytes,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    j.push_str("  ],\n  \"incremental\": [\n");
    for (i, r) in incr.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"name\": \"{}\", \"states\": {}, \"states_reused\": {}, \"rows_reused\": {}, \"update_ns\": {}, \"rebuild_ns\": {}, \"candidates\": {}}}{}\n",
            r.name,
            r.states,
            r.states_reused,
            r.rows_reused,
            r.update_ns,
            r.rebuild_ns,
            r.candidates,
            if i + 1 < incr.len() { "," } else { "" }
        ));
    }
    j.push_str("  ]\n}\n");
    wg_bench::write_result(file, &j);
}

/// Gates the fresh incremental-update medians against the committed
/// `BENCH_tables.json`.
fn regression_gate(baseline: &Baseline, fresh: &[IncrRow]) -> bool {
    baseline.check(|doc, gate| {
        let Some(rows) = gate.rows(doc, "incremental") else {
            return;
        };
        for r in fresh {
            let Some(base) = rows
                .iter()
                .find(|b| b.get("name").and_then(Json::as_str) == Some(&r.name))
            else {
                gate.skip(&r.name, "no baseline row");
                continue;
            };
            match base.get("update_ns").and_then(Json::as_u64) {
                Some(base_ns) => gate.latency(&format!("{} update", r.name), base_ns, r.update_ns),
                None => gate.skip(&r.name, "baseline has no update_ns"),
            }
        }
    })
}

fn main() {
    let mut gate_args = GateArgs::default();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if !gate_args.parse_flag(&a, &mut it) {
            panic!("unknown flag {a}");
        }
    }
    let baseline = gate_args.load();

    let grammars: Vec<(&str, wg_grammar::Grammar)> = vec![
        ("simp_c", simp_c().grammar().clone()),
        ("simp_cpp", simp_cpp().grammar().clone()),
        ("simp_c_det", simp_c_det().grammar().clone()),
        ("simp_modula", simp_modula().grammar().clone()),
        ("fig7 (LR2)", wg_langs::toys::fig7_lr2()),
        ("stmt_list", wg_langs::toys::stmt_list(true)),
        ("amb_expr", wg_langs::toys::ambiguous_expr(false)),
        ("parens", wg_langs::toys::nested_parens()),
        ("full_c", wg_langs::full_c().grammar().clone()),
    ];

    let mut rows = Vec::new();
    for (name, g) in &grammars {
        let slr = LrTable::build(g, TableKind::Slr);
        let lalr = LrTable::build(g, TableKind::Lalr);
        let lr1 = lr1_metrics(g);
        rows.push(vec![
            name.to_string(),
            format!("{}", lalr.num_states()),
            format!("{}", lr1.states),
            format!("{:.1}x", lr1.states as f64 / lalr.num_states() as f64),
            format!("{}", slr.conflicts().remaining.len()),
            format!("{}", lalr.conflicts().remaining.len()),
        ]);
    }
    print_table(
        "Section 3.3 — LALR(1) vs canonical LR(1) size, and conflicts",
        &[
            "grammar",
            "LALR states",
            "LR(1) states",
            "LR(1)/LALR",
            "SLR conflicts",
            "LALR conflicts",
        ],
        &rows,
    );

    // Drive the IGLR parser with each table kind over the same program.
    let cfg = simp_c();
    let program = c_program(&GenSpec::sized(2_000, 0.01, 3));
    let tokens = tokenize(&cfg, &program.text);
    let pairs: Vec<(wg_grammar::Terminal, &str)> =
        tokens.iter().map(|(t, s)| (*t, s.as_str())).collect();

    let mut rows = Vec::new();
    for kind in [TableKind::Slr, TableKind::Lalr] {
        let table = LrTable::build(cfg.grammar(), kind);
        let parser = IglrParser::new(cfg.grammar(), &table);
        let mut arena = DagArena::new();
        let mut nondet = 0;
        let (_root, t) = time_once(|| {
            // parse_tokens hides stats; reparse path not needed here — use
            // a throwaway parse and read effort via a second stats run.
            parser
                .parse_tokens(&mut arena, pairs.iter().copied())
                .expect("parses")
        });
        // Re-run once more for the effort counters.
        let mut arena2 = DagArena::new();
        let root2 = parser
            .parse_tokens(&mut arena2, pairs.iter().copied())
            .expect("parses");
        let stats = wg_dag::DagStats::compute(&arena2, root2);
        nondet += stats.choice_points;
        rows.push(vec![
            format!("{kind}"),
            format!("{}", table.conflicts().remaining.len()),
            fmt_dur(t),
            format!("{}", nondet),
        ]);
    }
    print_table(
        "IGLR batch parse of a 2000-line C program, by table kind",
        &["table", "conflicts", "parse time", "choice points"],
        &rows,
    );
    println!(
        "\n(the resulting dags are identical — spurious SLR conflicts cost\n forking work, not extra ambiguity; LALR keeps non-determinism to the\n genuinely ambiguous cells, which is the paper's Section 3.3 argument)"
    );

    // Packed vs naive representation, per grammar.
    let packed = packed_report(&grammars);
    let rows: Vec<Vec<String>> = packed
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{}", r.states),
                format!("{}/{}", r.term_classes, r.terminals),
                format!("{}", r.action_entries),
                format!("{}", r.default_reduce_states),
                format!("{}", r.spilled_cells),
                format!("{}", r.packed_bytes),
                format!("{}", r.naive_bytes),
                format!("{:.2}x", r.naive_bytes as f64 / r.packed_bytes as f64),
            ]
        })
        .collect();
    print_table(
        "Packed table representation vs naive cell-of-Vecs (LALR)",
        &[
            "grammar",
            "states",
            "classes/terms",
            "entries",
            "def-reduce",
            "spilled",
            "packed B",
            "naive B",
            "shrink",
        ],
        &rows,
    );
    // Incremental table update vs from-scratch rebuild.
    let incr: Vec<IncrRow> = [
        ("simp_c", simp_c().grammar().clone()),
        ("full_c", wg_langs::full_c().grammar().clone()),
    ]
    .iter()
    .map(|(name, g)| incr_update_report(name, g))
    .collect();
    let rows: Vec<Vec<String>> = incr
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{}", r.candidates),
                fmt_dur(std::time::Duration::from_nanos(r.update_ns)),
                fmt_dur(std::time::Duration::from_nanos(r.rebuild_ns)),
                format!("{:.1}x", r.rebuild_ns as f64 / r.update_ns.max(1) as f64),
                format!(
                    "{}/{} ({:.0}%)",
                    r.states_reused,
                    r.states,
                    100.0 * r.states_reused as f64 / r.states.max(1) as f64
                ),
                format!("{}", r.rows_reused),
            ]
        })
        .collect();
    print_table(
        "Incremental LALR update (median single-production delta) vs rebuild",
        &[
            "grammar",
            "deltas",
            "update",
            "rebuild",
            "speedup",
            "states reused",
            "rows reused",
        ],
        &rows,
    );

    // Hard floors for the full-scale grammar: the incremental updater must
    // actually be incremental where it matters.
    let mut floors_ok = true;
    if let Some(r) = incr.iter().find(|r| r.name == "full_c") {
        let reuse = r.states_reused as f64 / r.states.max(1) as f64;
        let speedup = r.rebuild_ns as f64 / r.update_ns.max(1) as f64;
        if reuse < 0.80 {
            eprintln!(
                "FAIL: full_c single-production delta reused {:.0}% of states (floor 80%)",
                reuse * 100.0
            );
            floors_ok = false;
        }
        if speedup < 5.0 {
            eprintln!(
                "FAIL: full_c incremental update only {speedup:.1}x faster than rebuild (floor 5x)"
            );
            floors_ok = false;
        }
    }

    let gate_ok = baseline.as_ref().is_none_or(|b| regression_gate(b, &incr));

    write_tables_json("BENCH_tables.json", &packed, &incr);
    if !floors_ok || !gate_ok {
        std::process::exit(1);
    }
}
