//! **Footnote 4 / Section 3.1** — programming-language grammars are close
//! to LR(1) in practice, so GLR parsing is effectively linear and much
//! faster than Earley's algorithm (Tomita's and Rekers' measurements, which
//! the paper relies on to justify GLR as the substrate).
//!
//! We time a batch GLR parse (the IGLR parser over a fresh token stream)
//! against the Earley recognizer on the same token streams of the simplified-C grammar (near-LR: only the typedef conflict)
//! at growing sizes.
//!
//! Run: `cargo run --release -p wg-bench --bin glr_vs_earley`

use wg_bench::{fmt_dur, print_table, time_once, tokenize};
use wg_core::IglrParser;
use wg_dag::DagArena;
use wg_earley::EarleyParser;
use wg_langs::generate::{c_program, GenSpec};
use wg_langs::simp_c;

fn main() {
    let cfg = simp_c();
    let glr = IglrParser::new(cfg.grammar(), cfg.table());
    let earley = EarleyParser::new(cfg.grammar());

    let mut rows = Vec::new();
    for lines in [100usize, 200, 400, 800, 1600] {
        let program = c_program(&GenSpec::sized(lines, 0.01, 5));
        let tokens = tokenize(&cfg, &program.text);
        let pairs: Vec<(wg_grammar::Terminal, &str)> =
            tokens.iter().map(|(t, s)| (*t, s.as_str())).collect();
        let terms: Vec<wg_grammar::Terminal> = tokens.iter().map(|(t, _)| *t).collect();

        let (_d, t_glr) = time_once(|| {
            let mut arena = DagArena::new();
            glr.parse_tokens(&mut arena, pairs.iter().copied())
                .expect("parses")
        });
        let (stats, t_earley) = time_once(|| earley.run(&terms));
        assert!(stats.accepted, "Earley agrees the input parses");

        rows.push(vec![
            format!("{}", terms.len()),
            fmt_dur(t_glr),
            fmt_dur(t_earley),
            format!("{:.1}x", t_earley.as_secs_f64() / t_glr.as_secs_f64()),
            format!("{}", stats.items),
        ]);
    }
    print_table(
        "Footnote 4 — batch GLR vs Earley on the near-LR C grammar",
        &["tokens", "GLR", "Earley", "Earley/GLR", "Earley items"],
        &rows,
    );
    println!(
        "\n(both are linear here — the grammar is near-LR — and note the GLR\n column additionally *builds the full parse dag* while Earley only\n recognizes; the decisive case is ambiguity, below)"
    );

    // On a genuinely ambiguous grammar Earley's item sets grow with input
    // position while GLR's local packing keeps the work bounded.
    let amb = wg_langs::toys::ambiguous_expr(false);
    let amb_table = wg_lrtable::LrTable::build(&amb, wg_lrtable::TableKind::Lalr);
    let amb_glr = IglrParser::new(&amb, &amb_table);
    let amb_earley = EarleyParser::new(&amb);
    let num = amb.terminal_by_name("num").expect("num");
    let plus = amb.terminal_by_name("+").expect("+");
    let mut rows = Vec::new();
    for n in [8usize, 16, 32, 64] {
        let mut terms = vec![num];
        let mut pairs = vec![(num, "1")];
        for _ in 0..n {
            terms.push(plus);
            terms.push(num);
            pairs.push((plus, "+"));
            pairs.push((num, "1"));
        }
        let mut dag_nodes = 0;
        let (_d, t_glr) = time_once(|| {
            let mut arena = DagArena::new();
            let r = amb_glr
                .parse_tokens(&mut arena, pairs.iter().copied())
                .expect("parses");
            dag_nodes = arena.len();
            r
        });
        let (stats, t_earley) = time_once(|| amb_earley.run(&terms));
        assert!(stats.accepted);
        rows.push(vec![
            format!("{}", terms.len()),
            fmt_dur(t_glr),
            format!("{dag_nodes}"),
            fmt_dur(t_earley),
            format!("{}", stats.items),
        ]);
    }
    print_table(
        "Footnote 4 — GLR vs Earley on the ambiguous grammar E -> E + E | num",
        &[
            "tokens",
            "GLR (full dag)",
            "dag nodes",
            "Earley (recognize)",
            "Earley items",
        ],
        &rows,
    );
    println!(
        "
(the packed forest for this worst-case grammar is Θ(n³), so GLR's\n cost here is the *output's* size; the Earley column recognizes only)"
    );
}
