//! Cross-parser equivalence: the three analyses (batch GLR — the IGLR
//! parser over a fresh token stream —, deterministic incremental, Earley)
//! must agree with each other on every input, and incremental reparsing
//! must be indistinguishable from parsing from scratch. Exercised over
//! generated programs and randomized edits.

use wg_bench::tokenize;
use wg_core::{IglrParser, Session};
use wg_dag::{structurally_equal, yield_terminals, DagArena, FxHashMap};
use wg_earley::EarleyParser;
use wg_langs::generate::{c_program, edit_sites, GenSpec};
use wg_langs::{simp_c, simp_c_det};
use wg_sentential::IncLrParser;

/// The batch GLR forest (a fresh parse) equals the forest the reuse path
/// rebuilds when the middle token of the same program is replaced by an
/// equal fresh token and the parser reparses over its own tree.
#[test]
fn batch_glr_equals_iglr_on_ambiguous_programs() {
    let cfg = simp_c();
    let iglr = IglrParser::new(cfg.grammar(), cfg.table());
    for seed in 0..4 {
        let p = c_program(&GenSpec::sized(150, 0.06, seed));
        let tokens = tokenize(&cfg, &p.text);
        let pairs: Vec<_> = tokens.iter().map(|(t, s)| (*t, s.as_str())).collect();
        let mut fresh = DagArena::new();
        let r1 = iglr
            .parse_tokens(&mut fresh, pairs.iter().copied())
            .unwrap();

        let mut reused = DagArena::new();
        let r2 = iglr
            .parse_tokens(&mut reused, pairs.iter().copied())
            .unwrap();
        let terms = yield_terminals(&reused, r2);
        let mid = terms.len() / 2;
        let (term, lexeme) = pairs[mid];
        let same = reused.terminal(term, lexeme);
        reused.mark_changed(terms[mid]);
        reused.mark_following(terms[mid - 1]);
        let mut reps = FxHashMap::default();
        reps.insert(terms[mid], vec![same]);
        iglr.reparse(&mut reused, r2, reps, &[]).unwrap();
        reused.clear_changes();
        assert!(
            structurally_equal(&fresh, r1, &reused, r2),
            "seed {seed}: fresh parse and reparse of its own tree diverge"
        );
    }
}

#[test]
fn deterministic_parser_equals_iglr_on_deterministic_grammar() {
    let cfg = simp_c_det();
    let p = c_program(&GenSpec::sized(200, 0.0, 11));
    let tokens = tokenize(&cfg, &p.text);
    let pairs: Vec<_> = tokens.iter().map(|(t, s)| (*t, s.as_str())).collect();
    let det = IncLrParser::new(cfg.grammar(), cfg.table()).unwrap();
    let iglr = IglrParser::new(cfg.grammar(), cfg.table());
    let mut a1 = DagArena::new();
    let r1 = det.parse_tokens(&mut a1, pairs.iter().copied()).unwrap();
    let mut a2 = DagArena::new();
    let r2 = iglr.parse_tokens(&mut a2, pairs.iter().copied()).unwrap();
    assert!(structurally_equal(&a1, r1, &a2, r2));
}

#[test]
fn earley_agrees_on_acceptance() {
    let cfg = simp_c();
    let earley = EarleyParser::new(cfg.grammar());
    for seed in 0..3 {
        let p = c_program(&GenSpec::sized(60, 0.05, seed));
        let terms: Vec<_> = tokenize(&cfg, &p.text).iter().map(|(t, _)| *t).collect();
        assert!(earley.recognize(&terms), "seed {seed}");
        // Truncated input must be rejected by both.
        if terms.len() > 3 {
            let truncated = &terms[..terms.len() - 1];
            let accepted_by_earley = earley.recognize(truncated);
            let mut arena = DagArena::new();
            let iglr = IglrParser::new(cfg.grammar(), cfg.table());
            let pairs: Vec<_> = truncated.iter().map(|t| (*t, "tok")).collect();
            let accepted_by_iglr = iglr.parse_tokens(&mut arena, pairs).is_ok();
            assert_eq!(accepted_by_earley, accepted_by_iglr);
        }
    }
}

#[test]
fn incremental_session_tracks_from_scratch_over_random_edits() {
    let cfg = simp_c();
    let p = c_program(&GenSpec::sized(120, 0.05, 21));
    let mut session = Session::new(&cfg, &p.text).unwrap();
    for i in 0..12u64 {
        // Pick a site in the *current* text (edits change offsets).
        let (start, len) = edit_sites(&session.text(), 1, 5 + i)[0];
        // Apply a rename (structure-preserving) or a literal swap.
        let replacement = if i % 3 == 0 { "zz9" } else { "qlong_name" };
        session.edit(start, len, replacement);
        let out = session.reparse().unwrap();
        assert!(out.incorporated, "edit {i} refused: {:?}", out.error);

        // Reference parse of the same text from scratch.
        let reference = Session::new(&cfg, &session.text()).unwrap();
        assert!(
            structurally_equal(
                session.arena(),
                session.root(),
                reference.arena(),
                reference.root()
            ),
            "divergence after edit {i}"
        );
    }
}

#[test]
fn batch_and_incremental_sequence_shapes_reusable() {
    // After any reparse, a following edit must still find balanced
    // structure: op counts stay far below file size.
    let cfg = simp_c();
    let p = c_program(&GenSpec::sized(800, 0.02, 33));
    let mut session = Session::new(&cfg, &p.text).unwrap();
    let sites = edit_sites(&p.text, 20, 77);
    for &(start, len) in &sites {
        session.edit(start, len, "xx");
        let out = session.reparse().unwrap();
        assert!(out.incorporated);
        let ops = out.stats.terminal_shifts
            + out.stats.subtree_shifts
            + out.stats.run_shifts
            + out.stats.breakdowns;
        assert!(
            ops < 250,
            "edit cost {ops} suggests sequence degradation: {:?}",
            out.stats
        );
        // Undo to keep later sites valid.
        session.edit(start, 2, &p.text[start..start + len]);
        assert!(session.reparse().unwrap().incorporated);
    }
}

#[test]
fn refused_attempt_does_not_corrupt_later_marking() {
    // Regression: a refused parse attempt adopts reused nodes into its
    // (dead) structures; without parent rollback, the next edit's damage
    // marking walks into dead nodes and stale subtrees get reused.
    let cfg = simp_c();
    let p = c_program(&GenSpec::sized(60, 0.08, 234));
    let mut session = Session::new(&cfg, &p.text).unwrap();

    // Break the parse far from the later edit site, then undo.
    let sites = edit_sites(&session.text(), 1, 5);
    let (start, len) = sites[0];
    session.edit(start, len, "42"); // LHS identifier -> number: invalid
    let out = session.reparse().unwrap();
    if out.incorporated {
        // The random site happened to accept a number; not the scenario.
        return;
    }
    session.undo();
    assert!(session.reparse().unwrap().incorporated);

    // Now edit somewhere else entirely and compare against from-scratch.
    let sites = edit_sites(&session.text(), 1, 6);
    let (start, len) = sites[0];
    session.edit(start, len, "qq");
    let out = session.reparse().unwrap();
    assert!(out.incorporated);
    let reference = Session::new(&cfg, &session.text()).unwrap();
    assert!(structurally_equal(
        session.arena(),
        session.root(),
        reference.arena(),
        reference.root()
    ));
}

#[test]
fn earley_derivation_matches_glr_tree_shape() {
    // On a deterministic grammar both analyses must produce the same
    // derivation, production for production.
    let g = wg_langs::toys::nested_parens();
    let table = wg_lrtable::LrTable::build(&g, wg_lrtable::TableKind::Lalr);
    let lp = g.terminal_by_name("(").unwrap();
    let rp = g.terminal_by_name(")").unwrap();
    let x = g.terminal_by_name("x").unwrap();
    let terms = vec![lp, lp, lp, x, rp, rp, rp];
    let pairs: Vec<_> = terms
        .iter()
        .map(|t| (*t, if *t == x { "x" } else { "p" }))
        .collect();

    let earley = EarleyParser::new(&g);
    let derivation = earley.first_parse(&terms).expect("parses");

    let glr = IglrParser::new(&g, &table);
    let mut arena = DagArena::new();
    let root = glr.parse_tokens(&mut arena, pairs).unwrap();

    // Preorder production fingerprint of the dag's (deterministic) tree.
    fn preorder(a: &DagArena, n: wg_dag::NodeId, out: &mut Vec<usize>) {
        if let wg_dag::NodeKind::Production { prod } = a.kind(n) {
            out.push(prod.index());
        }
        for &k in a.kids(n) {
            preorder(a, k, out);
        }
    }
    let mut glr_shape = Vec::new();
    preorder(&arena, root, &mut glr_shape);
    let earley_shape: Vec<usize> = derivation
        .production_preorder()
        .iter()
        .map(|p| p.index())
        .collect();
    assert_eq!(glr_shape, earley_shape);
    assert_eq!(derivation.fringe(), terms);
}

/// Section 5's "identical operation counts": on a conflict-free grammar the
/// IGLR parser shifts, reuses and reduces exactly as the deterministic
/// incremental parser does, for a token change and for its undo. Each
/// reduction is counted once, where it is performed.
#[test]
fn iglr_and_deterministic_operation_counts_are_identical() {
    let cfg = simp_c_det();
    let p = c_program(&GenSpec::sized(200, 0.0, 11));
    let tokens = tokenize(&cfg, &p.text);
    let pairs: Vec<_> = tokens.iter().map(|(t, s)| (*t, s.as_str())).collect();
    let det = IncLrParser::new(cfg.grammar(), cfg.table()).unwrap();
    let iglr = IglrParser::new(cfg.grammar(), cfg.table());
    let mut det_arena = DagArena::new();
    let det_root = det
        .parse_tokens(&mut det_arena, pairs.iter().copied())
        .unwrap();
    let mut iglr_arena = DagArena::new();
    let iglr_root = iglr
        .parse_tokens(&mut iglr_arena, pairs.iter().copied())
        .unwrap();

    let site = (pairs.len() / 2..pairs.len())
        .find(|&i| pairs[i].1.starts_with("var"))
        .expect("an identifier past the midpoint");
    let ident = pairs[site].0;
    // Replaces the token at `site` by `lexeme` in one arena, marking damage
    // as a session would.
    let edit = |arena: &mut DagArena, root, lexeme: &str| {
        let terms = yield_terminals(arena, root);
        let fresh = arena.terminal(ident, lexeme);
        arena.mark_changed(terms[site]);
        arena.mark_following(terms[site - 1]);
        let mut reps = FxHashMap::default();
        reps.insert(terms[site], vec![fresh]);
        reps
    };
    for lexeme in ["qqq", pairs[site].1] {
        let reps = edit(&mut det_arena, det_root, lexeme);
        let d = det.reparse(&mut det_arena, det_root, reps, &[]).unwrap();
        det_arena.clear_changes();
        let reps = edit(&mut iglr_arena, iglr_root, lexeme);
        let i = iglr.reparse(&mut iglr_arena, iglr_root, reps, &[]).unwrap();
        iglr_arena.clear_changes();
        assert_eq!(
            (
                i.terminal_shifts,
                i.subtree_shifts,
                i.run_shifts,
                i.reductions
            ),
            (
                d.terminal_shifts,
                d.subtree_shifts,
                d.run_shifts,
                d.reductions
            ),
            "edit to {lexeme:?}: IGLR {i:?} vs deterministic {d:?}"
        );
        assert!(structurally_equal(
            &det_arena,
            det_root,
            &iglr_arena,
            iglr_root
        ));
    }
}
