//! Criterion benchmarks wrapping the kernels of every timing experiment in
//! the paper (the table binaries in `src/bin/` print the paper-shaped rows;
//! these give statistically solid per-kernel numbers).
//!
//! Groups:
//! * `batch_parse`   — S5a: deterministic vs IGLR vs Earley on one token
//!   stream.
//! * `incremental`   — S5b: one self-cancelling token edit, deterministic vs
//!   IGLR sessions.
//! * `ambig_region`  — S5d: an edit inside vs outside an ambiguous region.
//! * `scaling`       — Section 3.4: mid-file edit at growing sizes, balanced
//!   sequences vs left recursion.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wg_bench::{tokenize, DetSession};
use wg_core::{IglrParser, Session, SessionConfig};
use wg_dag::DagArena;
use wg_earley::EarleyParser;
use wg_langs::generate::{c_program, GenSpec};
use wg_langs::toys::stmt_list;
use wg_langs::{simp_c, simp_c_det};
use wg_lexer::LexerDef;
use wg_sentential::IncLrParser;

fn batch_parse(c: &mut Criterion) {
    let cfg = simp_c_det();
    let program = c_program(&GenSpec::sized(1_000, 0.0, 9));
    let tokens = tokenize(&cfg, &program.text);
    let pairs: Vec<(wg_grammar::Terminal, &str)> =
        tokens.iter().map(|(t, s)| (*t, s.as_str())).collect();
    let terms: Vec<wg_grammar::Terminal> = tokens.iter().map(|(t, _)| *t).collect();

    let mut g = c.benchmark_group("batch_parse");
    g.sample_size(20);
    g.bench_function("deterministic", |b| {
        let p = IncLrParser::new(cfg.grammar(), cfg.table()).unwrap();
        b.iter(|| {
            let mut arena = DagArena::new();
            black_box(p.parse_tokens(&mut arena, pairs.iter().copied()).unwrap())
        })
    });
    g.bench_function("iglr", |b| {
        let p = IglrParser::new(cfg.grammar(), cfg.table());
        b.iter(|| {
            let mut arena = DagArena::new();
            black_box(p.parse_tokens(&mut arena, pairs.iter().copied()).unwrap())
        })
    });
    g.bench_function("earley_recognize", |b| {
        let p = EarleyParser::new(cfg.grammar());
        b.iter(|| black_box(p.run(&terms)))
    });
    g.finish();
}

fn incremental(c: &mut Criterion) {
    let cfg = simp_c_det();
    let program = c_program(&GenSpec::sized(2_000, 0.0, 10));
    let site = program.text.find("var").expect("an identifier exists");

    let mut g = c.benchmark_group("incremental_edit");
    g.sample_size(30);
    g.bench_function("iglr_session", |b| {
        let mut s = Session::new(&cfg, &program.text).unwrap();
        b.iter(|| {
            s.edit(site, 3, "qqq");
            assert!(s.reparse().unwrap().incorporated);
            s.edit(site, 3, "var");
            assert!(s.reparse().unwrap().incorporated);
        })
    });
    g.bench_function("deterministic_session", |b| {
        let mut s = DetSession::new(&cfg, &program.text);
        b.iter(|| {
            s.edit_and_reparse(site, 3, "qqq").unwrap();
            s.edit_and_reparse(site, 3, "var").unwrap();
        })
    });
    g.finish();
}

fn ambig_region(c: &mut Criterion) {
    let cfg = simp_c();
    let program = c_program(&GenSpec::sized(1_500, 0.01, 21));
    let amb_site = program.text.find(" (obj").map(|p| p + 5).expect("site");
    let plain_site = program.text.find("var").expect("site");

    let mut g = c.benchmark_group("ambig_region_edit");
    g.sample_size(30);
    let mut s = Session::new(&cfg, &program.text).unwrap();
    g.bench_function("plain_statement", |b| {
        b.iter(|| {
            s.edit(plain_site, 2, "qq");
            assert!(s.reparse().unwrap().incorporated);
            s.edit(plain_site, 2, "va");
            assert!(s.reparse().unwrap().incorporated);
        })
    });
    g.bench_function("inside_ambiguous_region", |b| {
        b.iter(|| {
            s.edit(amb_site, 2, "qq");
            assert!(s.reparse().unwrap().incorporated);
            let restore = &program.text[amb_site..amb_site + 2];
            s.edit(amb_site, 2, restore);
            assert!(s.reparse().unwrap().incorporated);
        })
    });
    g.finish();
}

fn stmt_config(balanced: bool) -> SessionConfig {
    let g = stmt_list(balanced);
    let mut lx = LexerDef::new();
    lx.rule("id", "[a-zA-Z_][a-zA-Z0-9_]*").unwrap();
    lx.rule("num", "[0-9]+").unwrap();
    lx.literal("=", "=");
    lx.literal(";", ";");
    lx.skip("ws", "[ \\n\\t]+").unwrap();
    SessionConfig::new(g, lx).unwrap()
}

fn scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("scaling_mid_edit");
    g.sample_size(20);
    for n in [1024usize, 4096, 16384] {
        let text: String = (0..n).map(|i| format!("v{i} = {};\n", i % 89)).collect();
        for balanced in [true, false] {
            let cfg = stmt_config(balanced);
            let label = if balanced { "balanced" } else { "list" };
            g.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                let mut s = Session::new(&cfg, &text).unwrap();
                let mid = format!("v{}", n / 2);
                let pos = s.text().find(&format!("{mid} ")).unwrap();
                let len = mid.len();
                b.iter(|| {
                    s.edit(pos, len, "qqqqq");
                    assert!(s.reparse().unwrap().incorporated);
                    s.edit(pos, 5, &mid);
                    assert!(s.reparse().unwrap().incorporated);
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, batch_parse, incremental, ambig_region, scaling);
criterion_main!(benches);
