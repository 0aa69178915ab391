//! **Section 5, incremental comparison** — the paper's protocol: apply
//! self-cancelling modifications to individual tokens, reparsing after each
//! change; the running-time difference between the deterministic parser and
//! the IGLR parser was "undetectable".
//!
//! We run identical edit scripts through both parsers (same lexer, same
//! damage computation) and report mean reparse latency, then sweep document
//! sizes to show per-edit cost — *including buffer mutation*, now that the
//! text lives in a chunked rope — stays flat. Every sweep size edits the
//! same statement shape at the same relative document position
//! ([`comparable_site`]), so the per-size numbers form a scaling curve
//! rather than comparing unrelated syntactic contexts. The scaling table is
//! also written to `target/bench/BENCH_incremental.json` so CI can archive
//! the trajectory; copying it over the committed file rebaselines.
//!
//! Run: `cargo run --release -p wg-bench --bin sec5_incremental \
//!       [lines] [edits] [--quick] [--enforce-zero-alloc]`
//!
//! `--quick` shrinks the comparison document and the sweep's measurement
//! rounds for CI; the three sweep sizes are kept so the flatness claim is
//! still exercised. `--enforce-zero-alloc` additionally runs a warm
//! steady-state session and **fails the process** if any post-warm-up
//! reparse takes a fresh node slot or grows the merge tables' key storage,
//! or if any warm publish (made with no reader holding a snapshot) copies a
//! dag chunk instead of patching it in place, or if any warm edit copies a
//! token-tape chunk or spine — the allocation-free hot path as a CI
//! threshold.
//!
//! `--check-against <baseline.json>` turns the run into a **regression
//! gate**: the fresh per-stage scaling medians are compared against the
//! committed baseline (`BENCH_incremental.json` from a previous full run),
//! and the process fails if any gated stage slowed down by more than
//! `--tolerance <fraction>` (default 0.25). Stages whose baseline median
//! is under a small noise floor are reported but not gated — sub-µs
//! medians regress by 25% from scheduler jitter alone. A failing gate
//! re-measures once and compares the element-wise best medians, so a
//! transient load spike passes on retry while a real regression fails
//! both runs.

use std::time::Duration;
use wg_bench::gate::{Baseline, GateArgs};
use wg_bench::json::Json;
use wg_bench::{fmt_dur, print_table, DetSession};
use wg_core::Session;
use wg_langs::generate::{c_program, comparable_site, edit_sites, full_c_program, GenSpec};
use wg_langs::{full_c, simp_c_det};

struct ScalingRow {
    tokens: usize,
    buffer: Duration,
    relex: Duration,
    parse: Duration,
    maintenance: Duration,
    sem: Duration,
    total: Duration,
    /// Fresh node slots over the measured rounds (0 once pools are warm).
    fresh_slots: u64,
    /// Node slots served from the free list over the measured rounds.
    recycled_slots: u64,
    /// Merge-table key-storage allocations over the measured rounds.
    key_allocs: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut enforce = false;
    let mut gate_args = GateArgs::default();
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--enforce-zero-alloc" => enforce = true,
            flag if gate_args.parse_flag(flag, &mut it) => {}
            other if !other.starts_with("--") => positional.push(a),
            other => panic!("unknown flag {other}"),
        }
    }
    let lines: usize = positional
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if quick { 800 } else { 4_000 });
    let edits: usize = positional
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(if quick { 40 } else { 200 });
    let baseline = gate_args.load();
    let cfg = simp_c_det();
    let program = c_program(&GenSpec::sized(lines, 0.0, 7));
    let sites = edit_sites(&program.text, edits, 11);

    // IGLR session.
    let mut iglr = Session::new(&cfg, &program.text).expect("parses");
    let mut t_iglr = Duration::ZERO;
    let mut iglr_ops = 0usize;
    for &(start, len) in &sites {
        let original = iglr.text()[start..start + len].to_string();
        let t0 = std::time::Instant::now();
        iglr.edit(start, len, "qqq");
        assert!(iglr.reparse().expect("no session error").incorporated);
        iglr.edit(start, 3, &original);
        let out = iglr.reparse().expect("no session error");
        assert!(out.incorporated);
        t_iglr += t0.elapsed();
        iglr_ops += out.stats.terminal_shifts
            + out.stats.subtree_shifts
            + out.stats.run_shifts
            + out.stats.reductions;
    }

    // Deterministic session, same script.
    let mut det = DetSession::new(&cfg, &program.text);
    let mut t_det = Duration::ZERO;
    let mut det_ops = 0usize;
    for &(start, len) in &sites {
        let original = det.text()[start..start + len].to_string();
        let t0 = std::time::Instant::now();
        det.edit_and_reparse(start, len, "qqq").expect("parses");
        det.edit_and_reparse(start, 3, &original).expect("parses");
        t_det += t0.elapsed();
        det_ops += det.last_stats.terminal_shifts
            + det.last_stats.subtree_shifts
            + det.last_stats.run_shifts
            + det.last_stats.reductions;
    }

    let per = |t: Duration| t / (2 * sites.len().max(1)) as u32;
    let rows = vec![
        vec![
            "deterministic".into(),
            fmt_dur(per(t_det)),
            format!("{}", det_ops / (2 * sites.len())),
        ],
        vec![
            "IGLR".into(),
            fmt_dur(per(t_iglr)),
            format!("{}", iglr_ops / (2 * sites.len())),
        ],
    ];
    print_table(
        "Section 5 — self-cancelling token edits (mean per reparse)",
        &["parser", "reparse latency", "parser ops (last edit)"],
        &rows,
    );
    let ratio = per(t_iglr).as_secs_f64() / per(t_det).as_secs_f64().max(1e-12);
    println!(
        "\n{} lines, {} edit pairs; IGLR/deterministic latency ratio {ratio:.2}x",
        lines,
        sites.len()
    );
    println!("(paper: \"the difference in running times ... was undetectable\")");

    let scaling = scaling_sweep(&cfg, quick);
    let scaling_full_c = scaling_sweep_full_c(quick);
    let zero_alloc_ok = if enforce {
        steady_state_zero_alloc_check(&cfg, quick)
    } else {
        true
    };
    let mut gate_ok = true;
    if let Some(baseline) = baseline {
        gate_ok = regression_gate(&baseline, &scaling);
        if !gate_ok {
            // Anti-flake: a load spike on shared CI hardware inflates every
            // median at once. Re-measure once and gate on the element-wise
            // best of the two runs — a real regression fails both.
            println!("\nregression gate failed — re-measuring once to rule out transient load");
            let retry = scaling_sweep(&cfg, quick);
            let merged: Vec<ScalingRow> = scaling
                .iter()
                .zip(&retry)
                .map(|(a, b)| ScalingRow {
                    tokens: a.tokens,
                    buffer: a.buffer.min(b.buffer),
                    relex: a.relex.min(b.relex),
                    parse: a.parse.min(b.parse),
                    maintenance: a.maintenance.min(b.maintenance),
                    sem: a.sem.min(b.sem),
                    total: a.total.min(b.total),
                    fresh_slots: a.fresh_slots.min(b.fresh_slots),
                    recycled_slots: a.recycled_slots,
                    key_allocs: a.key_allocs.min(b.key_allocs),
                })
                .collect();
            gate_ok = regression_gate(&baseline, &merged);
        }
    }
    write_json(
        "BENCH_incremental.json",
        quick,
        lines,
        sites.len(),
        per(t_det),
        per(t_iglr),
        ratio,
        &scaling,
        &scaling_full_c,
    );
    if !zero_alloc_ok {
        eprintln!("FAIL: steady-state reparses or publishes still allocate (see above)");
    }
    if !gate_ok {
        eprintln!("FAIL: per-stage medians regressed past tolerance (see above)");
    }
    if !zero_alloc_ok || !gate_ok {
        std::process::exit(1);
    }
}

/// Gates the fresh per-stage scaling medians against the committed
/// `BENCH_incremental.json`.
fn regression_gate(baseline: &Baseline, fresh: &[ScalingRow]) -> bool {
    baseline.check(|doc, gate| {
        let Some(rows) = gate.rows(doc, "scaling") else {
            return;
        };
        for row in fresh {
            let Some(base) = rows
                .iter()
                .find(|r| r.get("tokens").and_then(Json::as_u64) == Some(row.tokens as u64))
            else {
                gate.skip(&format!("{} tokens", row.tokens), "no baseline row");
                continue;
            };
            let stages: [(&str, &str, Duration); 6] = [
                ("buffer", "buffer_ns", row.buffer),
                ("relex", "relex_ns", row.relex),
                ("parse", "parse_ns", row.parse),
                ("maintenance", "maintenance_ns", row.maintenance),
                ("sem", "sem_ns", row.sem),
                ("total", "total_ns", row.total),
            ];
            for (name, key, now) in stages {
                let label = format!("{} tokens {name}", row.tokens);
                match base.get(key).and_then(Json::as_u64) {
                    Some(base_ns) => gate.latency(&label, base_ns, now.as_nanos() as u64),
                    None => gate.skip(&label, "missing in baseline"),
                }
            }
        }
    })
}

/// Per-edit reparse cost across document sizes: a single-token
/// self-cancelling edit in 1k/10k/100k-token documents. With shared
/// language artifacts, pooled parser scratch, the chunked token tape,
/// damage-bounded relexing, and the rope-backed text buffer, every per-stage
/// timing from [`wg_core::ReparseReport`] — including `buffer`, the text
/// mutation itself — should stay flat as the document grows. Each size
/// edits the `var…` filler statement nearest the document midpoint, so the
/// measured context is the same shape at every size.
fn scaling_sweep(cfg: &wg_core::SessionConfig, quick: bool) -> Vec<ScalingRow> {
    scaling_sweep_with(
        cfg,
        quick,
        "Per-stage reparse cost vs document size (1-token edit)",
        &|lines| c_program(&GenSpec::sized(lines, 0.0, 7)).text,
        true,
    )
}

/// The same sweep over the full-scale C grammar (~440 productions, 1025
/// LALR states): documents from [`full_c_program`], no semantic pass (the
/// binding analysis is wired to the simplified grammar's shapes). The
/// interesting claim is identical — per-edit cost flat in document size —
/// now with a realistic table and a fork-bearing grammar.
fn scaling_sweep_full_c(quick: bool) -> Vec<ScalingRow> {
    let cfg = full_c();
    scaling_sweep_with(
        &cfg,
        quick,
        "Full-scale C — per-stage reparse cost vs document size (1-token edit)",
        &|lines| {
            let mut spec = GenSpec::sized(lines, 0.02, 7);
            spec.lit_call_rate = 0.15;
            full_c_program(&spec).text
        },
        false,
    )
}

fn scaling_sweep_with(
    cfg: &wg_core::SessionConfig,
    quick: bool,
    title: &str,
    gen_text: &dyn Fn(usize) -> String,
    with_sem: bool,
) -> Vec<ScalingRow> {
    use wg_core::ReparseReport;

    // Quick mode keeps the full warm-up and half the measurement rounds:
    // the sweep's cost is dominated by the three initial parses, and a
    // short-warmed median reads 15–25% high on the large document — enough
    // to trip the regression gate on its own.
    let (warmup, rounds) = if quick { (4, 16u32) } else { (4, 32u32) };
    let mut out = Vec::new();
    for &lines in &[150usize, 1_500, 15_000] {
        let text = gen_text(lines);
        let site = comparable_site(&text, 0.5).expect("generator emits var fillers");
        let mut s = Session::new(cfg, &text).expect("parses");
        // The semantic pass rides along so `sem` measures the damage-driven
        // incremental re-analysis (contour reuse + ripple cut-off), which
        // must stay as flat in document size as the parse itself.
        if with_sem {
            s.attach_semantics(Box::new(wg_sem::SemState::new(
                cfg.grammar(),
                wg_sem::Strictness::RequireBinding,
            )));
        }
        let tokens = s.token_count();
        let (start, len) = site;
        let original = s.text()[start..start + len].to_string();

        let run_pair = |s: &mut Session| -> (ReparseReport, ReparseReport) {
            s.edit(start, len, "qqq");
            let a = s.reparse().expect("no session error");
            assert!(a.incorporated);
            s.edit(start, 3, &original);
            let b = s.reparse().expect("no session error");
            assert!(b.incorporated);
            (a.report, b.report)
        };

        // Warm the pools, then measure. Per-stage statistics are *medians*
        // over the measured reparses: a single scheduler stall or GC cycle
        // inside the window shifts a mean arbitrarily, while the median
        // reads through it — the per-size numbers stay a scaling curve.
        for _ in 0..warmup {
            run_pair(&mut s);
        }
        let mut reports = Vec::with_capacity(2 * rounds as usize);
        let mut row = ScalingRow {
            tokens,
            buffer: Duration::ZERO,
            relex: Duration::ZERO,
            parse: Duration::ZERO,
            maintenance: Duration::ZERO,
            sem: Duration::ZERO,
            total: Duration::ZERO,
            fresh_slots: 0,
            recycled_slots: 0,
            key_allocs: 0,
        };
        for _ in 0..rounds {
            let (a, b) = run_pair(&mut s);
            for r in [a, b] {
                row.fresh_slots += r.fresh_node_slots;
                row.recycled_slots += r.recycled_node_slots;
                row.key_allocs += r.merge_key_allocs;
                reports.push(r);
            }
        }
        let median = |f: &dyn Fn(&ReparseReport) -> Duration| -> Duration {
            let mut v: Vec<Duration> = reports.iter().map(f).collect();
            v.sort_unstable();
            v[v.len() / 2]
        };
        row.buffer = median(&|r| r.buffer);
        row.relex = median(&|r| r.relex);
        row.parse = median(&|r| r.parse);
        row.maintenance = median(&|r| r.maintenance);
        row.sem = median(&|r| r.sem);
        row.total = median(&|r| r.total);
        out.push(row);
    }
    let rows: Vec<Vec<String>> = out
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.tokens),
                fmt_dur(r.buffer),
                fmt_dur(r.relex),
                fmt_dur(r.parse),
                fmt_dur(r.maintenance),
                fmt_dur(r.sem),
                fmt_dur(r.total),
                format!("{}", r.fresh_slots),
                format!("{}", r.key_allocs),
            ]
        })
        .collect();
    println!();
    print_table(
        title,
        &[
            "tokens",
            "buffer",
            "relex",
            "parse",
            "maintenance",
            "sem",
            "total",
            "fresh slots",
            "key allocs",
        ],
        &rows,
    );
    println!("\n(per-edit cost should be flat in document size; stage timings");
    println!(" come from ReparseReport, the pipeline's built-in metrics —");
    println!(" `buffer` is the rope mutation itself, O(log N + edit))");
    out
}

/// The zero-allocation threshold check behind `--enforce-zero-alloc`.
///
/// Runs self-cancelling edits on a small document long enough to cross the
/// periodic full rebalance and several GC cycles (so the node free list and
/// every pool reach steady state), then demands that each further reparse
/// reports **zero** fresh node slots and **zero** merge-key allocations.
/// Small documents have the *tightest* GC cadence (the collection trigger
/// is Θ(live) allocations), so this is the strictest setting in which the
/// free list must become self-sustaining.
///
/// Every reparse is followed by a publish whose snapshot is dropped at
/// once, so no reader holds a version across the next publish: each warm
/// publish must patch its chunks in place and copy **zero** of them, and
/// each warm splice of the token tape must copy no chunk and no spine.
fn steady_state_zero_alloc_check(cfg: &wg_core::SessionConfig, quick: bool) -> bool {
    let program = c_program(&GenSpec::sized(150, 0.0, 7));
    let (start, len) = comparable_site(&program.text, 0.5).expect("generator emits var fillers");
    let mut s = Session::new(cfg, &program.text).expect("parses");
    let original = s.text()[start..start + len].to_string();
    let warm_pairs = 70usize;
    let check_pairs = if quick { 10usize } else { 20 };
    for _ in 0..warm_pairs {
        s.edit(start, len, "qqq");
        assert!(s.reparse().expect("no session error").incorporated);
        drop(s.publish());
        s.edit(start, 3, &original);
        assert!(s.reparse().expect("no session error").incorporated);
        drop(s.publish());
    }
    let gcs_warm = s.metrics().gcs;
    let mut fresh = 0u64;
    let mut keys = 0u64;
    let mut recycled = 0u64;
    let copied0 = s.arena().publish_copied_chunks();
    let tape_copied0 = s.tape().copied_chunks();
    let patched0 = s.arena().publish_patched_slots();
    for _ in 0..check_pairs {
        s.edit(start, len, "qqq");
        let a = s.reparse().expect("no session error");
        assert!(a.incorporated);
        drop(s.publish());
        s.edit(start, 3, &original);
        let b = s.reparse().expect("no session error");
        assert!(b.incorporated);
        drop(s.publish());
        for r in [&a.report, &b.report] {
            fresh += r.fresh_node_slots;
            keys += r.merge_key_allocs;
            recycled += r.recycled_node_slots;
        }
    }
    let copied = s.arena().publish_copied_chunks() - copied0;
    let tape_copied = s.tape().copied_chunks() - tape_copied0;
    let patched = s.arena().publish_patched_slots() - patched0;
    println!(
        "\nzero-alloc check: {warm_pairs} warm-up pairs ({gcs_warm} collections), \
         {check_pairs} measured pairs: {fresh} fresh node slots, \
         {keys} merge-key allocs, {recycled} recycled slots, \
         {patched} slots patched and {copied} chunks copied by publish, \
         {tape_copied} token-tape chunks or spines copied"
    );
    if gcs_warm == 0 {
        eprintln!("zero-alloc check: warm-up never collected — cadence bug");
        return false;
    }
    if copied > 0 {
        eprintln!("zero-alloc check: a publish with no reader copied {copied} chunks");
    }
    if tape_copied > 0 {
        eprintln!(
            "zero-alloc check: edits with no reader copied {tape_copied} tape chunks or spines"
        );
    }
    fresh == 0 && keys == 0 && copied == 0 && tape_copied == 0
}

/// Hand-rolled JSON (the container has no serde): the scaling table plus the
/// deterministic/IGLR comparison, in nanoseconds.
#[allow(clippy::too_many_arguments)]
fn write_json(
    file: &str,
    quick: bool,
    lines: usize,
    edit_pairs: usize,
    det_per_reparse: Duration,
    iglr_per_reparse: Duration,
    ratio: f64,
    scaling: &[ScalingRow],
    scaling_full_c: &[ScalingRow],
) {
    fn scaling_rows(j: &mut String, rows: &[ScalingRow]) {
        for (i, r) in rows.iter().enumerate() {
            j.push_str(&format!(
                "    {{\"tokens\": {}, \"buffer_ns\": {}, \"relex_ns\": {}, \"parse_ns\": {}, \"maintenance_ns\": {}, \"sem_ns\": {}, \"total_ns\": {}, \"fresh_node_slots\": {}, \"recycled_node_slots\": {}, \"merge_key_allocs\": {}}}{}\n",
                r.tokens,
                r.buffer.as_nanos(),
                r.relex.as_nanos(),
                r.parse.as_nanos(),
                r.maintenance.as_nanos(),
                r.sem.as_nanos(),
                r.total.as_nanos(),
                r.fresh_slots,
                r.recycled_slots,
                r.key_allocs,
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
    }
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"bench\": \"sec5_incremental\",\n");
    j.push_str(&format!("  \"quick\": {quick},\n"));
    j.push_str(&format!("  \"lines\": {lines},\n"));
    j.push_str(&format!("  \"edit_pairs\": {edit_pairs},\n"));
    j.push_str("  \"comparison\": {\n");
    j.push_str(&format!(
        "    \"det_ns_per_reparse\": {},\n",
        det_per_reparse.as_nanos()
    ));
    j.push_str(&format!(
        "    \"iglr_ns_per_reparse\": {},\n",
        iglr_per_reparse.as_nanos()
    ));
    j.push_str(&format!("    \"iglr_over_det_ratio\": {ratio:.4}\n"));
    j.push_str("  },\n");
    j.push_str("  \"scaling\": [\n");
    scaling_rows(&mut j, scaling);
    j.push_str("  ],\n");
    j.push_str("  \"scaling_full_c\": [\n");
    scaling_rows(&mut j, scaling_full_c);
    j.push_str("  ]\n}\n");
    wg_bench::write_result(file, &j);
}
