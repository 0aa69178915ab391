//! Differential test of the incremental table update at full scale: a
//! chain of grammar deltas against the full-scale C grammar (1,025 LALR
//! states), each applied to the previous step's *updated* table, with the
//! result compared cell for cell against a from-scratch build after every
//! step. The small fixtures in `incr_delta.rs` pin individual structural
//! cases; this chain exercises the updater where reuse is heavy and state
//! numbering shifts.

use wg_grammar::{Grammar, GrammarDelta, NonTerminal, ProdId, Symbol, Terminal};
use wg_lrtable::{LrTable, StateId, TableKind};

/// Every lookup a parser makes, plus the conflict report, must agree.
fn assert_matches_scratch(step: &str, g: &Grammar, upd: &LrTable) {
    let scratch = LrTable::build(g, TableKind::Lalr);
    assert_eq!(
        upd.num_states(),
        scratch.num_states(),
        "{step}: state count"
    );
    for s in 0..scratch.num_states() {
        let sid = StateId(s as u32);
        assert_eq!(
            upd.automaton().kernel(sid),
            scratch.automaton().kernel(sid),
            "{step}: kernel of state {s}"
        );
        for t in 0..g.num_terminals() {
            let term = Terminal::from_index(t);
            assert!(
                upd.actions(sid, term)
                    .iter()
                    .eq(scratch.actions(sid, term).iter()),
                "{step}: ACTION at state {s}, terminal {t}"
            );
        }
        assert_eq!(
            upd.default_reduction(sid),
            scratch.default_reduction(sid),
            "{step}: default reduction at state {s}"
        );
        for n in 0..g.num_nonterminals() {
            let n = NonTerminal::from_index(n);
            assert_eq!(
                upd.goto(sid, n),
                scratch.goto(sid, n),
                "{step}: GOTO at {s}"
            );
            assert_eq!(
                upd.nt_reductions(sid, n),
                scratch.nt_reductions(sid, n),
                "{step}: nt-reductions at state {s}"
            );
        }
    }
    let (u, r) = (upd.conflicts(), scratch.conflicts());
    assert_eq!(u.remaining, r.remaining, "{step}: remaining conflicts");
    assert_eq!(u.resolved_by_precedence, r.resolved_by_precedence, "{step}");
    assert_eq!(u.nonassoc_errors, r.nonassoc_errors, "{step}");
    assert_eq!(
        upd.num_action_entries(),
        scratch.num_action_entries(),
        "{step}"
    );
}

/// Applies `delta` to the current grammar and table, checks the update,
/// and advances both.
fn step(name: &str, g: &mut Grammar, table: &mut LrTable, delta: &GrammarDelta) {
    let (next_g, map) = g.apply_delta(delta).expect("delta applies");
    let (next_t, stats) = table.update(g, &next_g, &map).expect("update succeeds");
    assert!(!stats.full_rebuild, "{name}: unexpected full rebuild");
    assert!(stats.states_reused > 0, "{name}: nothing reused");
    assert_matches_scratch(name, &next_g, &next_t);
    *g = next_g;
    *table = next_t;
}

#[test]
fn full_c_delta_chain_matches_scratch_builds() {
    let (mut g, _) = wg_langs::full_c_defs();
    let mut table = LrTable::build(&g, TableKind::Lalr);
    let eof = Terminal::EOF;
    // A spread of nonterminals across the grammar, from declarations to
    // expressions (index 0 is the augmented start).
    let count = g.num_nonterminals();
    let picks: Vec<NonTerminal> = [count / 7, count / 3, count / 2, 2 * count / 3, count - 2]
        .into_iter()
        .map(NonTerminal::from_index)
        .collect();
    for x in picks {
        let label = g.nonterminal_name(x).to_string();
        // Add `X -> $eof` ...
        let mut add = GrammarDelta::new(&g);
        add.add_production(x, vec![Symbol::T(eof)]);
        step(&format!("add {label} -> $eof"), &mut g, &mut table, &add);
        // ... and take it out again (it is the last production).
        let mut remove = GrammarDelta::new(&g);
        remove.remove_production(ProdId::from_index(g.num_productions() - 1));
        step(
            &format!("remove {label} -> $eof"),
            &mut g,
            &mut table,
            &remove,
        );
    }
    // A delta that declares a terminal and uses it.
    let x = NonTerminal::from_index(count / 4);
    let mut fresh = GrammarDelta::new(&g);
    let t = fresh.add_terminal("__fresh_token");
    fresh.add_production(x, vec![Symbol::T(t), Symbol::N(x)]);
    step("add a fresh terminal", &mut g, &mut table, &fresh);
}
