//! Explicit node retention across reparses.
//!
//! Grammar hot-swaps over a full-scale C document: each delta changes the
//! table, renumbering parse states, but no parse of the document. Every
//! adoption must leave exactly the tree a fresh session builds under a
//! table constructed from scratch, recorded states included, and must keep
//! giving back the old tree's nodes from one swap to the next.
//!
//! Edit reparses must retain at least as many old nodes as they did when
//! retention required the recorded state to match, and on a deterministic
//! grammar must not touch the merge tables.

use wg_core::{LanguageRegistry, Session, SessionConfig};
use wg_dag::DagStats;
use wg_grammar::{GrammarDelta, Symbol};
use wg_langs::generate::{c_program, edit_script, full_c_program, GenSpec};

/// Sums `nodes_retained` over the reparses after each edit, every one of
/// which must be incorporated, checking the session's running total
/// against it.
fn retained_over_edits(s: &mut Session, edits: &[(usize, usize, &str)]) -> usize {
    let before = s.metrics().nodes_retained;
    let mut total = 0;
    for &(at, remove, insert) in edits {
        s.edit(at, remove, insert);
        let out = s.reparse().unwrap();
        assert!(out.incorporated, "edit at {at} refused");
        total += out.report.nodes_retained;
    }
    assert_eq!(s.metrics().nodes_retained - before, total as u64);
    total
}

/// Every fifth statement line of `text` deleted and put back, as
/// `(at, remove, insert)` edits.
fn statement_line_edits(text: &str) -> Vec<(usize, usize, &str)> {
    let starts: Vec<usize> = text.match_indices('\n').map(|(i, _)| i + 1).collect();
    starts
        .windows(2)
        .map(|w| (w[0], &text[w[0]..w[1]]))
        .filter(|(_, line)| line.trim_end().ends_with(';'))
        .step_by(5)
        .flat_map(|(at, line)| [(at, line.len(), ""), (at, 0, line)])
        .collect()
}

#[test]
fn edit_reparses_retain_no_fewer_nodes() {
    // Statement lines of a deterministic C document deleted and put back;
    // requiring equal recorded states retained 76 nodes here.
    let text = c_program(&GenSpec::sized(200, 0.0, 12)).text;
    let mut s = Session::new(&wg_langs::simp_c_det(), &text).unwrap();
    let edits = statement_line_edits(&text);
    let retained = retained_over_edits(&mut s, &edits);
    assert!(retained >= 76, "simp_c_det line edits retained {retained}");

    // A scripted editing session on full C, whose typedef ambiguity forks
    // the parser: 181 nodes when states had to match.
    let text = full_c_program(&GenSpec::sized(120, 0.02, 3)).text;
    let mut s = Session::new(&wg_langs::full_c(), &text).unwrap();
    let script = edit_script(&text, 40, 3);
    let edits: Vec<_> = script
        .iter()
        .map(|e| (e.at, e.remove, e.insert.as_str()))
        .collect();
    let retained = retained_over_edits(&mut s, &edits);
    assert!(retained >= 181, "full_c scripted edits retained {retained}");
}

#[test]
fn deterministic_edit_reparses_skip_the_merge_tables() {
    // A reparse over a previous tree takes the deterministic fast path by
    // the batch parse's rule: on a conflict-free table no reduction goes
    // through the sharing tables, however the edit shapes the frontier.
    let text = c_program(&GenSpec::sized(200, 0.0, 12)).text;
    let mut s = Session::new(&wg_langs::simp_c_det(), &text).unwrap();
    for (at, remove, insert) in statement_line_edits(&text) {
        s.edit(at, remove, insert);
        let out = s.reparse().unwrap();
        assert!(out.incorporated, "edit at {at} refused");
        assert!(out.report.parser.reductions > 0);
        assert_eq!(out.report.merge_probes, 0, "merge-table probes at {at}");
    }
}

#[test]
fn adoption_retains_the_old_tree_through_a_swap_cycle() {
    let (g0, lx) = wg_langs::full_c_defs();
    let reg = LanguageRegistry::new();
    let cfg = reg.get_or_compile(g0.clone(), lx.clone()).unwrap();
    let text = full_c_program(&GenSpec::sized(120, 0.02, 11)).text;
    let mut s = Session::new(&cfg, &text).unwrap();

    // `X -> $eof` for three nonterminals spread over the grammar, each
    // added and then removed again: end of input never occurs inside a
    // document.
    let eof = g0.terminals().next().unwrap();
    let nts: Vec<_> = g0.nonterminals().filter(|&n| n != g0.start()).collect();
    let mut retained = Vec::new();
    let step = nts.len() / 4;
    let cycle: Vec<_> = nts
        .iter()
        .skip(step / 2)
        .step_by(step)
        .filter_map(|&x| {
            let mut add = GrammarDelta::new(&g0);
            add.add_production(x, vec![Symbol::T(eof)]);
            let (g1, _) = g0.apply_delta(&add).ok()?;
            Some((add, g1))
        })
        .take(3)
        .collect();
    assert_eq!(cycle.len(), 3);
    for (add, g1) in cycle {
        let added = g1.productions().map(|(id, _)| id).last().unwrap();
        let mut remove = GrammarDelta::new(&g1);
        remove.remove_production(added);
        // The base version's from-scratch table is the one `cfg` holds.
        let added_cfg = SessionConfig::new(g1, lx.clone()).unwrap();
        for (delta, fresh_cfg) in [(add, &added_cfg), (remove, &cfg)] {
            reg.update_grammar(&delta).unwrap();
            let out = s.reparse().unwrap();
            assert!(out.report.grammar_swapped);
            let fresh = Session::new(fresh_cfg, &text).unwrap();
            assert!(
                s.dump() == fresh.dump(),
                "swap {}: the adopted tree differs from a fresh parse",
                retained.len()
            );
            retained.push(out.report.nodes_retained);
        }
    }
    assert_eq!(
        s.metrics().nodes_retained,
        retained.iter().sum::<usize>() as u64
    );
    let productions = DagStats::compute(s.arena(), s.root()).productions;
    assert!(
        retained[0] * 2 >= productions,
        "the first adoption retains {} of {productions} production nodes",
        retained[0]
    );
    for (i, &r) in retained.iter().enumerate() {
        assert!(
            r * 10 >= retained[0] * 7,
            "swap {i} retains {r} nodes against {} on the first: {retained:?}",
            retained[0]
        );
    }
}
