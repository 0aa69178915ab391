//! Figure 7 integration: the LR(2) grammar parsed with LALR(1) tables,
//! dynamic-lookahead marking, and incremental behaviour around the
//! extended-lookahead region.

use wg_core::IglrParser;
use wg_dag::{
    structurally_equal, yield_terminals, DagArena, DagStats, FxHashMap, NodeId, NodeKind,
    ParseState,
};
use wg_earley::EarleyParser;
use wg_grammar::Grammar;
use wg_langs::toys::fig7_lr2;
use wg_lrtable::{LrTable, TableKind};

fn setup() -> (Grammar, LrTable) {
    let g = fig7_lr2();
    let t = LrTable::build(&g, TableKind::Lalr);
    (g, t)
}

fn production_states(arena: &DagArena, root: NodeId, g: &Grammar) -> Vec<(String, bool)> {
    let mut out = Vec::new();
    let mut stack = vec![root];
    while let Some(n) = stack.pop() {
        if let NodeKind::Production { prod } = arena.kind(n) {
            out.push((
                g.nonterminal_name(g.production(*prod).lhs()).to_string(),
                arena.state(n) == ParseState::MULTI,
            ));
        }
        stack.extend_from_slice(arena.kids(n));
    }
    out.sort();
    out
}

#[test]
fn lookahead_use_is_recorded_in_nodes() {
    let (g, table) = setup();
    let parser = IglrParser::new(&g, &table);
    let term = |n: &str| g.terminal_by_name(n).unwrap();
    let mut arena = DagArena::new();
    let root = parser
        .parse_tokens(
            &mut arena,
            vec![(term("x"), "x"), (term("z"), "z"), (term("c"), "c")],
        )
        .unwrap();
    let states = production_states(&arena, root, &g);
    // Figure 7's black ellipses: U -> x and B -> U z were reduced while two
    // parsers were active; A -> B c after the collapse.
    assert!(states.contains(&("U".into(), true)), "{states:?}");
    assert!(states.contains(&("B".into(), true)), "{states:?}");
    assert!(states.contains(&("A".into(), false)), "{states:?}");
    // The losing fork (V, D) left no trace.
    assert!(!states.iter().any(|(n, _)| n == "V" || n == "D"));
    assert_eq!(DagStats::compute(&arena, root).choice_points, 0);
}

/// The three analyses — a batch parse, an incremental reparse that flips
/// the final token of the other sentence, and Earley's derivation — build
/// the same tree.
#[test]
fn all_three_parsers_agree_on_fig7() {
    let (g, table) = setup();
    let term = |n: &str| g.terminal_by_name(n).unwrap();
    let iglr = IglrParser::new(&g, &table);
    let earley = EarleyParser::new(&g);
    for (words, other) in [(["x", "z", "c"], "e"), (["x", "z", "e"], "c")] {
        let pairs: Vec<_> = words.iter().map(|w| (term(w), *w)).collect();
        let terms: Vec<_> = words.iter().map(|w| term(w)).collect();
        let mut a1 = DagArena::new();
        let r1 = iglr.parse_tokens(&mut a1, pairs.clone()).unwrap();

        let mut a2 = DagArena::new();
        let other_pairs = vec![pairs[0], pairs[1], (term(other), other)];
        let r2 = iglr.parse_tokens(&mut a2, other_pairs).unwrap();
        let prev = yield_terminals(&a2, r2);
        let last = a2.terminal(pairs[2].0, pairs[2].1);
        a2.mark_changed(prev[2]);
        a2.mark_following(prev[1]);
        let mut reps = FxHashMap::default();
        reps.insert(prev[2], vec![last]);
        iglr.reparse(&mut a2, r2, reps, &[]).unwrap();
        a2.clear_changes();
        assert!(structurally_equal(&a1, r1, &a2, r2), "{words:?}");

        let derivation = earley.first_parse(&terms).expect("Earley parses");
        let mut shape = Vec::new();
        let mut stack = vec![r1];
        while let Some(n) = stack.pop() {
            if let NodeKind::Production { prod } = a1.kind(n) {
                shape.push(*prod);
            }
            stack.extend(a1.kids(n).iter().rev());
        }
        assert_eq!(shape, derivation.production_preorder(), "{words:?}");
    }
    // And they agree on rejection.
    let bad = [term("x"), term("z")];
    assert!(!earley.recognize(&bad));
    let mut a = DagArena::new();
    assert!(iglr
        .parse_tokens(&mut a, vec![(term("x"), "x"), (term("z"), "z")])
        .is_err());
}

#[test]
fn edit_to_final_token_flips_interpretation_incrementally() {
    let (g, table) = setup();
    let term = |n: &str| g.terminal_by_name(n).unwrap();
    let parser = IglrParser::new(&g, &table);
    let mut arena = DagArena::new();
    let root = parser
        .parse_tokens(
            &mut arena,
            vec![(term("x"), "x"), (term("z"), "z"), (term("c"), "c")],
        )
        .unwrap();

    // Replace c with e: the whole region re-derives as D e.
    let terms = yield_terminals(&arena, root);
    let fresh = arena.terminal(term("e"), "e");
    arena.mark_changed(terms[2]);
    arena.mark_following(terms[1]);
    let mut reps = FxHashMap::default();
    reps.insert(terms[2], vec![fresh]);
    parser.reparse(&mut arena, root, reps, &[]).unwrap();
    arena.clear_changes();

    let states = production_states(&arena, root, &g);
    assert!(states.contains(&("V".into(), true)), "{states:?}");
    assert!(states.contains(&("D".into(), true)), "{states:?}");
    assert!(!states.iter().any(|(n, _)| n == "U" || n == "B"));
}

#[test]
fn edit_inside_lookahead_region_forces_atomic_reconstruction() {
    // Editing `x` (whose recognition used two tokens of lookahead) must
    // rebuild the whole region — the multistate marking guarantees it.
    let (g, table) = setup();
    let term = |n: &str| g.terminal_by_name(n).unwrap();
    let parser = IglrParser::new(&g, &table);
    let mut arena = DagArena::new();
    let root = parser
        .parse_tokens(
            &mut arena,
            vec![(term("x"), "x"), (term("z"), "z"), (term("c"), "c")],
        )
        .unwrap();
    let terms = yield_terminals(&arena, root);
    let fresh = arena.terminal(term("x"), "x");
    arena.mark_changed(terms[0]);
    let mut reps = FxHashMap::default();
    reps.insert(terms[0], vec![fresh]);
    let stats = parser.reparse(&mut arena, root, reps, &[]).unwrap();
    arena.clear_changes();
    // All three terminals re-shifted: nothing in the region was reusable.
    assert_eq!(stats.terminal_shifts, 3, "{stats:?}");
    assert!(stats.nondeterministic_rounds >= 1);

    let mut ref_arena = DagArena::new();
    let ref_root = parser
        .parse_tokens(
            &mut ref_arena,
            vec![(term("x"), "x"), (term("z"), "z"), (term("c"), "c")],
        )
        .unwrap();
    assert!(structurally_equal(&arena, root, &ref_arena, ref_root));
}
