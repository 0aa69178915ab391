//! Pins the batch forest of every shipped grammar to a digest.
//!
//! A batch parse is an IGLR run over a terminal-only input stream. Its
//! deterministic stretches take a fast path that skips the round-scoped
//! merge tables (the same rule every IGLR run uses), and its post-passes
//! (parent refresh, ε unsharing) are skipped when the run shared nothing.
//! Neither may change the forest: this test hashes [`wg_dag::dump`] of a
//! generated program for every shipped grammar and compares it, and the
//! run's effort counters, with constants captured from a known-good build.
//! A choice node's alternatives are in their canonical order
//! (`DagArena::add_choice`), so the dump of a grammar with choice nodes
//! does not depend on which parser reached a merge first.
//!
//! If a grammar or a generator is changed on purpose, re-capture its
//! constants by running this test and copying the `got` values from the
//! failure.

use wg_core::{IglrParser, IglrRunStats, SessionConfig};
use wg_dag::{DagArena, NodeId};
use wg_glr::ParseScratch;
use wg_grammar::{Grammar, Terminal};
use wg_langs::generate::{c_program, full_c_program, GenSpec};
use wg_langs::{full_c, modula_program, simp_c, simp_c_det, simp_cpp, simp_modula, toys};
use wg_lrtable::{LrTable, TableKind};

/// 64-bit FNV-1a.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// What one batch parse is pinned by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    dump: u64,
    /// `[terminal_shifts, subtree_shifts, run_shifts, reductions,
    /// breakdowns, nondeterministic_rounds]`.
    stats: [usize; 6],
}

/// A batch run's pin plus the merge-table probe steps it took.
struct Run {
    pin: Pin,
    probes: u64,
}

fn stats_words(s: &IglrRunStats) -> [usize; 6] {
    [
        s.terminal_shifts,
        s.subtree_shifts,
        s.run_shifts,
        s.reductions,
        s.breakdowns,
        s.nondeterministic_rounds,
    ]
}

fn batch(g: &Grammar, table: &LrTable, tokens: &[(Terminal, String)]) -> Run {
    let mut arena = DagArena::new();
    arena.begin_epoch();
    let nodes: Vec<NodeId> = tokens.iter().map(|(t, s)| arena.terminal(*t, s)).collect();
    let mut scratch = ParseScratch::new();
    let probes0 = scratch.merge_probes();
    let (root, stats) = IglrParser::new(g, table)
        .parse_terminal_nodes_in(&mut scratch, &mut arena, &nodes)
        .expect("generated program parses");
    Run {
        pin: Pin {
            dump: fnv(wg_dag::dump(&arena, root, g).as_bytes()),
            stats: stats_words(&stats),
        },
        probes: scratch.merge_probes() - probes0,
    }
}

fn lex(cfg: &SessionConfig, text: &str) -> Vec<(Terminal, String)> {
    let out = cfg.lexer().lex(text);
    assert!(out.errors.is_empty(), "generated program lexes");
    out.tokens
        .iter()
        .map(|t| {
            let name = cfg.lexer().rule_name(t.rule);
            let term = cfg.grammar().terminal_by_name(name).expect("known token");
            (term, t.lexeme(text).to_string())
        })
        .collect()
}

fn batch_config(cfg: &SessionConfig, text: &str) -> Run {
    batch(cfg.grammar(), cfg.table(), &lex(cfg, text))
}

/// Tokens named by their own terminal (`words` are terminal names).
fn batch_toy(g: &Grammar, words: &[&str]) -> Run {
    let tokens: Vec<(Terminal, String)> = words
        .iter()
        .map(|w| {
            (
                g.terminal_by_name(w).expect("known terminal"),
                w.to_string(),
            )
        })
        .collect();
    batch(g, &LrTable::build(g, TableKind::Lalr), &tokens)
}

fn c_text(lines: usize, ambiguity: f64, seed: u64) -> String {
    c_program(&GenSpec::sized(lines, ambiguity, seed)).text
}

fn cpp_text() -> String {
    let mut spec = GenSpec::sized(1_500, 0.02, 21);
    spec.lit_call_rate = 0.05;
    c_program(&spec).text
}

fn repeat(unit: &[&'static str], n: usize) -> Vec<&'static str> {
    unit.iter().copied().cycle().take(unit.len() * n).collect()
}

fn sum_terms(n: usize) -> Vec<&'static str> {
    let mut w = vec!["num"];
    for _ in 1..n {
        w.extend(["+", "num"]);
    }
    w
}

fn nested(depth: usize) -> Vec<&'static str> {
    let mut w = vec!["("; depth];
    w.push("x");
    w.extend(std::iter::repeat_n(")", depth));
    w
}

/// Every shipped grammar: its batch run and the pinned values.
fn runs() -> Vec<(&'static str, Run, Pin)> {
    let pin = |dump: u64, stats: [usize; 6]| Pin { dump, stats };
    vec![
        (
            "simp_c",
            batch_config(&simp_c(), &c_text(1_500, 0.05, 11)),
            pin(0xda47_2d06_74e4_212d, [7122, 0, 0, 10004, 0, 1012]),
        ),
        (
            "simp_c_det",
            batch_config(&simp_c_det(), &c_text(1_500, 0.0, 12)),
            pin(0xf561_7eeb_1986_422f, [6936, 0, 0, 8899, 0, 0]),
        ),
        (
            "simp_cpp",
            batch_config(&simp_cpp(), &cpp_text()),
            pin(0xba3f_2ffd_bc07_c3f6, [6898, 0, 0, 8958, 0, 405]),
        ),
        (
            "simp_modula",
            batch_config(&simp_modula(), &modula_program(40, 600)),
            pin(0x7926_5dec_3473_685f, [3806, 0, 0, 3122, 0, 0]),
        ),
        (
            "full_c",
            batch_config(
                &full_c(),
                &full_c_program(&GenSpec::sized(1_500, 0.02, 13)).text,
            ),
            pin(0x38fd_1b8c_40c5_1162, [9162, 0, 0, 55475, 0, 1038]),
        ),
        (
            "fig7_lr2 (c)",
            batch_toy(&toys::fig7_lr2(), &["x", "z", "c"]),
            pin(0xb2df_8f81_1200_d191, [3, 0, 0, 4, 0, 2]),
        ),
        (
            "fig7_lr2 (e)",
            batch_toy(&toys::fig7_lr2(), &["x", "z", "e"]),
            pin(0xa782_9242_b596_e1b1, [3, 0, 0, 4, 0, 2]),
        ),
        (
            "ambiguous_expr",
            batch_toy(&toys::ambiguous_expr(false), &sum_terms(6)),
            pin(0x572f_dcf6_a8d6_e633, [11, 0, 0, 59, 0, 9]),
        ),
        (
            "ambiguous_expr_prec",
            batch_toy(&toys::ambiguous_expr(true), &sum_terms(60)),
            pin(0x8aed_6691_c1c0_c339, [119, 0, 0, 119, 0, 0]),
        ),
        (
            "stmt_list",
            batch_toy(
                &toys::stmt_list(false),
                &repeat(&["id", "=", "num", ";"], 200),
            ),
            pin(0x4fe4_eff0_0a07_a9b9, [800, 0, 0, 400, 0, 0]),
        ),
        (
            "stmt_list_balanced",
            batch_toy(
                &toys::stmt_list(true),
                &repeat(&["id", "=", "num", ";"], 200),
            ),
            pin(0xa5d2_ddfe_30cb_6709, [800, 0, 0, 400, 0, 0]),
        ),
        (
            "nested_parens",
            batch_toy(&toys::nested_parens(), &nested(60)),
            pin(0xc657_c33b_9289_a707, [121, 0, 0, 61, 0, 0]),
        ),
    ]
}

#[test]
fn batch_forests_match_pinned_digests() {
    let mut mismatches = Vec::new();
    for (name, run, want) in runs() {
        if run.pin != want {
            mismatches.push(format!(
                "{name}: want {:#018x} {:?}, got {:#018x} {:?}",
                want.dump, want.stats, run.pin.dump, run.pin.stats
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "batch forests changed:\n  {}",
        mismatches.join("\n  ")
    );
}

#[test]
fn deterministic_batch_parse_skips_the_merge_tables() {
    // On a conflict-free table a batch run has one parser throughout, so
    // no reduction can share a node with another: the sharing tables are
    // never consulted.
    let run = batch_config(&simp_c_det(), &c_text(300, 0.0, 12));
    assert_eq!(run.pin.stats[5], 0, "no non-deterministic round");
    assert_eq!(run.probes, 0, "merge-table probes on a deterministic run");
}
