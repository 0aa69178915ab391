//! Pins the LALR table of every shipped grammar to a digest.
//!
//! [`wg_lrtable::RefTable`] is produced by the same construction pass as
//! [`LrTable`] (automaton, lookaheads, nonterminal reductions), so the
//! packed-vs-reference tests cannot notice a change to that pass. This
//! test can: it hashes everything a parser reads from the table — the
//! state numbering (kernel items), every ACTION cell, GOTO, default
//! reduction and nonterminal-reduction list — plus the conflict report,
//! and compares the result with constants captured from a known-good
//! build. A construction change that alters any of them fails here.
//!
//! If a grammar itself is changed on purpose, re-capture its constant by
//! running this test and copying the `got` value from the failure.

use wg_grammar::{Grammar, NonTerminal, Terminal};
use wg_langs::{full_c, simp_c, simp_c_det, simp_cpp, simp_modula, toys};
use wg_lrtable::{Action, ConflictKind, LrTable, StateId, TableKind};

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn action_word(a: Action) -> u64 {
    match a {
        Action::Shift(s) => 1 << 32 | u64::from(s.0),
        Action::Reduce(p) => 2 << 32 | p.index() as u64,
        Action::Accept => 3 << 32,
    }
}

/// Digest of everything the parsers and the conflict report expose.
fn table_digest(g: &Grammar, t: &LrTable) -> u64 {
    let mut h = Fnv::new();
    h.word(t.num_states() as u64);
    for s in 0..t.num_states() {
        let sid = StateId(s as u32);
        let kernel = t.automaton().kernel(sid);
        h.word(kernel.len() as u64);
        for it in kernel.items() {
            h.word((it.prod.index() as u64) << 32 | u64::from(it.dot));
        }
        for term in 0..g.num_terminals() {
            let cell = t.actions(sid, Terminal::from_index(term));
            h.word(cell.len() as u64);
            for a in cell {
                h.word(action_word(a));
            }
        }
        h.word(
            t.default_reduction(sid)
                .map_or(u64::MAX, |p| p.index() as u64),
        );
        for n in 0..g.num_nonterminals() {
            let n = NonTerminal::from_index(n);
            h.word(t.goto(sid, n).map_or(u64::MAX, |q| u64::from(q.0)));
            match t.nt_reductions(sid, n) {
                None => h.word(u64::MAX),
                Some(list) => {
                    h.word(list.len() as u64);
                    for p in list {
                        h.word(p.index() as u64);
                    }
                }
            }
        }
    }
    let report = t.conflicts();
    h.word(report.remaining.len() as u64);
    for &(s, term, kind) in &report.remaining {
        let k = match kind {
            ConflictKind::ShiftReduce => 1,
            ConflictKind::ReduceReduce => 2,
        };
        h.word(u64::from(s.0) << 32 | (term.index() as u64) << 2 | k);
    }
    h.word(report.resolved_by_precedence as u64);
    h.word(report.nonassoc_errors as u64);
    h.0
}

/// Every shipped grammar with the digest of its LALR table.
fn pinned() -> Vec<(&'static str, Grammar, u64)> {
    vec![
        ("simp_c", simp_c().grammar().clone(), 0xcfbd_b099_5f9c_b732),
        (
            "simp_cpp",
            simp_cpp().grammar().clone(),
            0x6321_75dc_313b_2b31,
        ),
        (
            "simp_c_det",
            simp_c_det().grammar().clone(),
            0x5517_4e2c_c533_32ec,
        ),
        (
            "simp_modula",
            simp_modula().grammar().clone(),
            0x0c54_8415_9e07_8210,
        ),
        ("full_c", full_c().grammar().clone(), 0x6575_a7a4_8035_0e0e),
        ("fig7_lr2", toys::fig7_lr2(), 0x92fe_4559_7c52_37f0),
        (
            "ambiguous_expr",
            toys::ambiguous_expr(false),
            0xb351_f8df_2737_526e,
        ),
        (
            "ambiguous_expr_prec",
            toys::ambiguous_expr(true),
            0x0af8_b873_a148_b051,
        ),
        ("stmt_list", toys::stmt_list(false), 0xe490_bb4e_04e7_00e7),
        (
            "stmt_list_balanced",
            toys::stmt_list(true),
            0xe490_bb4e_04e7_00e7,
        ),
        (
            "nested_parens",
            toys::nested_parens(),
            0x1b60_aa35_dc75_4d6b,
        ),
    ]
}

#[test]
fn shipped_tables_match_pinned_digests() {
    let mut mismatches = Vec::new();
    for (name, g, want) in pinned() {
        let got = table_digest(&g, &LrTable::build(&g, TableKind::Lalr));
        if got != want {
            mismatches.push(format!("{name}: want {want:#018x}, got {got:#018x}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "table digests changed:\n  {}",
        mismatches.join("\n  ")
    );
}

#[test]
fn digest_sees_a_single_cell() {
    // The digest must tell apart tables that differ in one cell: the
    // ambiguous expression grammar with and without precedence differ
    // only in the conflicted cells precedence resolves.
    let plain = toys::ambiguous_expr(false);
    let prec = toys::ambiguous_expr(true);
    assert_ne!(
        table_digest(&plain, &LrTable::build(&plain, TableKind::Lalr)),
        table_digest(&prec, &LrTable::build(&prec, TableKind::Lalr))
    );
}
