//! **Section 5, service throughput** — the workload the single-session
//! benches cannot express: an editor service holding many open documents,
//! each under a sustained self-cancelling edit stream (the Section 5
//! protocol), served by the work-stealing `wg-workspace` pool.
//!
//! The grid sweeps document count × shard threads and reports aggregate
//! edits/sec plus per-cycle service-latency percentiles, the two axes the
//! empirical parser-comparison literature evaluates (sustained throughput,
//! bounded per-edit latency). A direct single-`Session` run of the same
//! script gives the no-pool baseline, so the table directly shows (a) the
//! scale-out factor across threads and (b) the latency tax of the queue +
//! shard indirection on a single document. A second sweep drives the
//! read-mostly editor profile (95% semantic queries, 5% edit pairs) that
//! the stealing scheduler must keep responsive; its `snapshot` column
//! reports the share of queries served from published document snapshots
//! on the caller's thread (never entering a mailbox).
//!
//! Scale-aware gates: the measured-window imbalance
//! (`busiest shard busy / wall`) at 64 docs × 4 threads must stay under
//! 1.15 on any machine — stealing exists to flatten it; the ≥1.5× speedup
//! assertion only applies when the machine actually has ≥4 cores. The
//! snapshot-isolation gate re-runs the contended read-mostly cell with the
//! edit rate doubled (10% edit pairs) and requires query p99 to stay
//! within 1.25× of the 5% figure — readers answer from immutable
//! snapshots, so writer pressure must not queue behind them. With
//! `--check-against BENCH_throughput.json` the fresh numbers also gate
//! against the committed baseline (per-cell p50 and edits/sec within
//! `--tolerance`), retrying once on failure to absorb CI load spikes.
//!
//! Run: `cargo run --release -p wg-bench --bin sec5_throughput -- [--quick]`
//!
//! Writes `target/bench/BENCH_throughput.json` for CI archival.

use std::time::{Duration, Instant};
use wg_bench::gate::{Baseline, GateArgs, NOISE_FLOOR_NS};
use wg_bench::json::Json;
use wg_bench::{
    doc_workloads, fmt_dur, print_table, read_mostly_ops, read_mostly_ops_every, DocWorkload,
    ReadOp,
};
use wg_core::{LanguageRegistry, Session};
use wg_langs::simp_c_det_defs;
use wg_workspace::{DocId, EditReq, SemQuery, Workspace};

const DOC_COUNTS: [usize; 3] = [1, 8, 64];
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Documents in the read-mostly sweep (the contended grid corner).
const READ_DOCS: usize = 64;
/// Ops issued per document per round in the read-mostly sweep.
const OPS_PER_ROUND: usize = 8;

/// Edit pairs carried per command. Editors batch bursts the same way; the
/// coalescer inside the shard then folds same-site mutate/restore runs
/// into shared reparse cycles, so `reparses < edits` by design here.
const PAIRS_PER_CMD: usize = 4;

/// Gates (see module docs): measured-window imbalance at 64 docs × 4
/// threads, and the parallel speedup only claimed on real multi-core.
const GATE_IMBALANCE_MAX: f64 = 1.15;
const GATE_SPEEDUP_MIN: f64 = 1.5;
/// Doubling the edit rate may grow read-mostly query p99 at most this
/// much — snapshot reads never queue behind the writer.
const GATE_SNAPSHOT_P99_FACTOR: f64 = 1.25;
/// Thread count of the read-mostly cell the snapshot gate re-runs.
const SNAPSHOT_GATE_THREADS: usize = 4;

struct Cell {
    docs: usize,
    threads: usize,
    edits: u64,
    wall: Duration,
    edits_per_sec: f64,
    p50: Duration,
    p95: Duration,
    p99: Duration,
    busy_max: Duration,
    /// Busiest shard's busy time over the measured window divided by the
    /// measured wall — the live load-balance figure stealing flattens.
    imbalance: f64,
    steals: u64,
    migrations: u64,
    coalesced: u64,
    reparses: u64,
}

struct ReadCell {
    threads: usize,
    ops: u64,
    wall: Duration,
    ops_per_sec: f64,
    query_p50: Duration,
    query_p95: Duration,
    query_p99: Duration,
    edit_p50: Duration,
    imbalance: f64,
    /// Semantic queries issued (the denominator of the snapshot share).
    queries: u64,
    /// Queries answered on the caller's thread from a published snapshot.
    snapshot_reads: u64,
}

impl ReadCell {
    /// Share of queries served from snapshots, e.g. `"100%"`.
    fn snapshot_share(&self) -> String {
        format!(
            "{:.0}%",
            100.0 * self.snapshot_reads as f64 / self.queries.max(1) as f64
        )
    }
}

fn percentile(sorted_ns: &[u64], p: f64) -> Duration {
    if sorted_ns.is_empty() {
        return Duration::ZERO;
    }
    let ix = ((p * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len()) - 1;
    Duration::from_nanos(sorted_ns[ix])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut gate_args = GateArgs::default();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            flag if gate_args.parse_flag(flag, &mut it) => {}
            other => panic!("unknown flag {other}"),
        }
    }
    let (lines, pairs, warmup_pairs) = if quick { (150, 30, 4) } else { (400, 80, 8) };
    let (read_ops, read_warmup) = if quick { (112, 16) } else { (352, 32) };
    let baseline = gate_args.load();

    let registry = std::sync::Arc::new(LanguageRegistry::new());
    let (grammar, lexdef) = simp_c_det_defs();
    let config = registry
        .get_or_compile(grammar, lexdef)
        .expect("language compiles");

    // Per-document workloads are generated once per document count and
    // replayed identically at every thread count.
    let workloads: Vec<(usize, Vec<DocWorkload>)> = DOC_COUNTS
        .iter()
        .map(|&d| (d, doc_workloads(d, lines, pairs + warmup_pairs, 7)))
        .collect();
    let read_loads: Vec<(String, Vec<ReadOp>)> = doc_workloads(READ_DOCS, lines, 1, 7)
        .into_iter()
        .enumerate()
        .map(|(i, w)| {
            let ops = read_mostly_ops(&w.text, read_ops, 11 + i as u64);
            (w.text, ops)
        })
        .collect();
    // The same documents and sites at twice the edit rate (10% pairs) —
    // the writer-pressure run the snapshot gate compares against.
    let double_loads: Vec<(String, Vec<ReadOp>)> = read_loads
        .iter()
        .enumerate()
        .map(|(i, (text, _))| {
            let ops = read_mostly_ops_every(text, read_ops, 11 + i as u64, 10);
            (text.clone(), ops)
        })
        .collect();

    // Direct baseline: the same single-document script on a bare Session,
    // no pool, no queues — the sec5_incremental-style figure.
    let direct_p50 = {
        let w = &workloads[0].1[0];
        let mut s = Session::new(&config, &w.text).expect("parses");
        let mut lat = Vec::new();
        for (i, (a, b)) in w.pairs.iter().enumerate() {
            for op in [a, b] {
                let t0 = Instant::now();
                s.edit(op.start, op.removed, &op.insert);
                assert!(s.reparse().expect("no session error").incorporated);
                if i >= warmup_pairs {
                    lat.push(t0.elapsed().as_nanos() as u64);
                }
            }
        }
        lat.sort_unstable();
        percentile(&lat, 0.50)
    };

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sweep = |tag: &str| -> (Vec<Cell>, Vec<ReadCell>, ReadCell) {
        let mut cells = Vec::new();
        for (docs, loads) in &workloads {
            for &threads in &THREAD_COUNTS {
                cells.push(run_cell(
                    &registry,
                    &config,
                    *docs,
                    threads,
                    loads,
                    warmup_pairs,
                ));
            }
        }
        let read_cells: Vec<ReadCell> = THREAD_COUNTS
            .iter()
            .map(|&t| run_read_cell(&registry, &config, t, &read_loads, read_warmup))
            .collect();
        let double_cell = run_read_cell(
            &registry,
            &config,
            SNAPSHOT_GATE_THREADS,
            &double_loads,
            read_warmup,
        );
        if !tag.is_empty() {
            println!("({tag} sweep complete)");
        }
        (cells, read_cells, double_cell)
    };
    let (mut cells, mut read_cells, mut double_cell) = sweep("");
    assert_eq!(
        registry.table_builds(),
        1,
        "every cell must reuse the one compiled language"
    );

    let mut scale_ok = scale_gates(&cells, cores, true);
    let mut snap_ok = snapshot_gate(&read_cells, &double_cell, true);
    let mut gate_ok = baseline
        .as_ref()
        .is_none_or(|b| regression_gate(b, &cells, &read_cells));
    if !scale_ok || !snap_ok || !gate_ok {
        // Anti-flake: a load spike on shared CI hardware inflates every
        // latency at once. Re-measure once and gate on the element-wise
        // best of the two runs — a real regression fails both.
        println!("\ngate failed — re-measuring once to rule out transient load");
        let (retry, read_retry, double_retry) = sweep("retry");
        cells = merge_best(cells, retry);
        read_cells = merge_best_read(read_cells, read_retry);
        double_cell = merge_best_read(vec![double_cell], vec![double_retry])
            .pop()
            .unwrap();
        scale_ok = scale_gates(&cells, cores, true);
        snap_ok = snapshot_gate(&read_cells, &double_cell, true);
        gate_ok = baseline
            .as_ref()
            .is_none_or(|b| regression_gate(b, &cells, &read_cells));
    }

    // Report.
    for &docs in &DOC_COUNTS {
        let rows: Vec<Vec<String>> = cells
            .iter()
            .filter(|c| c.docs == docs)
            .map(|c| {
                let base = cells
                    .iter()
                    .find(|b| b.docs == docs && b.threads == 1)
                    .unwrap();
                vec![
                    format!("{}", c.threads),
                    format!("{:.0}", c.edits_per_sec),
                    format!("{:.2}x", c.edits_per_sec / base.edits_per_sec),
                    fmt_dur(c.p50),
                    fmt_dur(c.p99),
                    format!("{:.2}", c.imbalance),
                    format!("{}", c.steals),
                    format!("{}", c.coalesced),
                ]
            })
            .collect();
        print_table(
            &format!("Sustained edit stream, {docs} document(s)"),
            &[
                "threads",
                "edits/s",
                "speedup",
                "p50",
                "p99",
                "imbal",
                "steals",
                "coalesced",
            ],
            &rows,
        );
    }
    let read_rows: Vec<Vec<String>> = read_cells
        .iter()
        .map(|c| {
            vec![
                format!("{}", c.threads),
                format!("{:.0}", c.ops_per_sec),
                fmt_dur(c.query_p50),
                fmt_dur(c.query_p95),
                fmt_dur(c.query_p99),
                fmt_dur(c.edit_p50),
                format!("{:.2}", c.imbalance),
                c.snapshot_share(),
            ]
        })
        .collect();
    print_table(
        &format!("Read-mostly (95% query / 5% edit), {READ_DOCS} documents"),
        &[
            "threads",
            "ops/s",
            "query p50",
            "query p95",
            "query p99",
            "edit p50",
            "imbal",
            "snapshot",
        ],
        &read_rows,
    );
    println!(
        "doubled edit rate (10% pairs, {SNAPSHOT_GATE_THREADS} threads): query p99 {} \
         vs {} at 5% — snapshot reads stay on the caller's thread ({} from snapshots)",
        fmt_dur(double_cell.query_p99),
        fmt_dur(
            read_cells
                .iter()
                .find(|c| c.threads == SNAPSHOT_GATE_THREADS)
                .map(|c| c.query_p99)
                .unwrap_or_default()
        ),
        double_cell.snapshot_share(),
    );

    let single = cells
        .iter()
        .find(|c| c.docs == 1 && c.threads == 1)
        .unwrap();
    let tax = single.p50.as_nanos() as f64 / direct_p50.as_nanos().max(1) as f64 - 1.0;
    println!(
        "\nsingle-document p50: direct session {} vs 1-thread workspace {} ({:+.1}% service overhead)",
        fmt_dur(direct_p50),
        fmt_dur(single.p50),
        tax * 100.0
    );
    let wide = cells
        .iter()
        .find(|c| c.docs == 64 && c.threads == 4)
        .unwrap();
    let wide_base = cells
        .iter()
        .find(|c| c.docs == 64 && c.threads == 1)
        .unwrap();
    println!(
        "64-document aggregate: {:.0} edits/s at 4 threads vs {:.0} at 1 thread ({:.2}x on {} core(s); window imbalance {:.2})",
        wide.edits_per_sec,
        wide_base.edits_per_sec,
        wide.edits_per_sec / wide_base.edits_per_sec,
        cores,
        wide.imbalance
    );
    if cores < 4 {
        println!(
            "note: fewer than 4 cores — speedups reflect pipelining overlap, not parallel reparse"
        );
        println!(
            "SKIPPED: multi-core rebaseline — this run has {cores} core(s) (< 4), so the \
             result in target/bench is still a low-core capture"
        );
    } else {
        println!(
            "multi-core rebaseline: {cores} cores — target/bench/BENCH_throughput.json is a \
             multi-core capture; copy it over BENCH_throughput.json to retire any low-core baseline"
        );
    }

    write_json(
        "BENCH_throughput.json",
        quick,
        lines,
        pairs,
        cores,
        direct_p50,
        &cells,
        &read_cells,
        &double_cell,
    );
    if !scale_ok {
        eprintln!("FAIL: scale gate (imbalance/speedup) failed twice (see above)");
    }
    if !snap_ok {
        eprintln!("FAIL: snapshot gate (doubled-edit-rate query p99) failed twice (see above)");
    }
    if !gate_ok {
        eprintln!("FAIL: regression vs committed baseline persisted across a retry (see above)");
    }
    if !scale_ok || !snap_ok || !gate_ok {
        std::process::exit(1);
    }
}

/// The snapshot-isolation gate: doubling the edit rate in the contended
/// read-mostly cell may grow query p99 by at most
/// [`GATE_SNAPSHOT_P99_FACTOR`]. Reads are answered from published
/// snapshots on the caller's thread, so writer pressure affects snapshot
/// *freshness*, never reader latency; a failure here means queries started
/// queueing behind reparse cycles again.
fn snapshot_gate(read_cells: &[ReadCell], double: &ReadCell, verbose: bool) -> bool {
    let base = read_cells
        .iter()
        .find(|c| c.threads == SNAPSHOT_GATE_THREADS)
        .expect("gate thread count is part of the sweep");
    // Clamp the baseline up to the noise floor: sub-microsecond p99s are
    // scheduler jitter and a ratio of jitter gates nothing real.
    let base_ns = (base.query_p99.as_nanos() as u64).max(NOISE_FLOOR_NS);
    let now_ns = double.query_p99.as_nanos() as u64;
    let ratio = now_ns as f64 / base_ns as f64;
    if ratio > GATE_SNAPSHOT_P99_FACTOR {
        eprintln!(
            "snapshot gate: doubled edit rate query p99 {now_ns}ns vs {base_ns}ns \
             ({ratio:.2}x > {GATE_SNAPSHOT_P99_FACTOR}x)"
        );
        false
    } else {
        if verbose {
            println!(
                "snapshot gate: doubled edit rate query p99 {now_ns}ns vs {base_ns}ns \
                 ({ratio:.2}x <= {GATE_SNAPSHOT_P99_FACTOR}x) ok"
            );
        }
        true
    }
}

/// The machine-appropriate subset of the scale assertions: the window
/// imbalance gate is always on (on one core the busiest shard cannot
/// exceed the wall, so it is structurally satisfiable everywhere); the
/// parallel-speedup gate only claims real parallelism on ≥4 cores.
fn scale_gates(cells: &[Cell], cores: usize, verbose: bool) -> bool {
    let wide = cells
        .iter()
        .find(|c| c.docs == 64 && c.threads == 4)
        .expect("64x4 cell");
    let mut ok = true;
    if wide.imbalance >= GATE_IMBALANCE_MAX {
        eprintln!(
            "scale gate: 64 docs x 4 threads window imbalance {:.3} >= {GATE_IMBALANCE_MAX}",
            wide.imbalance
        );
        ok = false;
    } else if verbose {
        println!(
            "scale gate: 64 docs x 4 threads window imbalance {:.3} < {GATE_IMBALANCE_MAX} ok",
            wide.imbalance
        );
    }
    if cores >= 4 {
        let base = cells
            .iter()
            .find(|c| c.docs == 64 && c.threads == 1)
            .expect("64x1 cell");
        let speedup = wide.edits_per_sec / base.edits_per_sec;
        if speedup < GATE_SPEEDUP_MIN {
            eprintln!("scale gate: 64 docs 4-thread speedup {speedup:.2}x < {GATE_SPEEDUP_MIN}x");
            ok = false;
        } else if verbose {
            println!(
                "scale gate: 64 docs 4-thread speedup {speedup:.2}x >= {GATE_SPEEDUP_MIN}x ok"
            );
        }
    } else if verbose {
        println!("scale gate: {cores} core(s) < 4 — speedup assertion skipped, imbalance gated");
    }
    ok
}

/// Element-wise best of two grid sweeps: the larger throughput, the
/// smaller latencies and imbalance. Scheduler counters come from the
/// higher-throughput run so each row stays internally consistent.
fn merge_best(a: Vec<Cell>, b: Vec<Cell>) -> Vec<Cell> {
    a.into_iter()
        .zip(b)
        .map(|(x, y)| {
            let (fast, slow) = if x.edits_per_sec >= y.edits_per_sec {
                (x, y)
            } else {
                (y, x)
            };
            Cell {
                p50: fast.p50.min(slow.p50),
                p95: fast.p95.min(slow.p95),
                p99: fast.p99.min(slow.p99),
                imbalance: fast.imbalance.min(slow.imbalance),
                ..fast
            }
        })
        .collect()
}

fn merge_best_read(a: Vec<ReadCell>, b: Vec<ReadCell>) -> Vec<ReadCell> {
    a.into_iter()
        .zip(b)
        .map(|(x, y)| {
            let (fast, slow) = if x.ops_per_sec >= y.ops_per_sec {
                (x, y)
            } else {
                (y, x)
            };
            ReadCell {
                query_p50: fast.query_p50.min(slow.query_p50),
                query_p95: fast.query_p95.min(slow.query_p95),
                query_p99: fast.query_p99.min(slow.query_p99),
                edit_p50: fast.edit_p50.min(slow.edit_p50),
                imbalance: fast.imbalance.min(slow.imbalance),
                ..fast
            }
        })
        .collect()
}

/// Gates fresh cells against a committed `BENCH_throughput.json`:
/// per-(docs, threads) cell, p50 latency and edits/sec; the read-mostly
/// rows gate query p50 and ops/sec the same way. Missing baseline rows or
/// fields are skipped (new grid corners are allowed).
fn regression_gate(baseline: &Baseline, cells: &[Cell], read_cells: &[ReadCell]) -> bool {
    baseline.check(|doc, gate| {
        let grid = doc.get("grid").and_then(Json::as_arr);
        for c in cells {
            let Some(base) = grid.and_then(|rows| {
                rows.iter().find(|r| {
                    r.get("docs").and_then(Json::as_u64) == Some(c.docs as u64)
                        && r.get("threads").and_then(Json::as_u64) == Some(c.threads as u64)
                })
            }) else {
                gate.skip(&format!("grid {}x{}", c.docs, c.threads), "no baseline row");
                continue;
            };
            if let Some(ns) = base.get("p50_ns").and_then(Json::as_u64) {
                let label = format!("grid {}x{} p50", c.docs, c.threads);
                gate.latency(&label, ns, c.p50.as_nanos() as u64);
            }
            if let Some(rate) = base.get("edits_per_sec").and_then(Json::as_f64) {
                let label = format!("grid {}x{} edits/s", c.docs, c.threads);
                gate.rate(&label, rate, c.edits_per_sec);
            }
        }
        let read = doc.get("read_mostly").and_then(Json::as_arr);
        for c in read_cells {
            let Some(base) = read.and_then(|rows| {
                rows.iter()
                    .find(|r| r.get("threads").and_then(Json::as_u64) == Some(c.threads as u64))
            }) else {
                gate.skip(&format!("read-mostly x{}", c.threads), "no baseline row");
                continue;
            };
            if let Some(ns) = base.get("query_p50_ns").and_then(Json::as_u64) {
                let label = format!("read-mostly x{} query p50", c.threads);
                gate.latency(&label, ns, c.query_p50.as_nanos() as u64);
            }
            if let Some(rate) = base.get("ops_per_sec").and_then(Json::as_f64) {
                let label = format!("read-mostly x{} ops/s", c.threads);
                gate.rate(&label, rate, c.ops_per_sec);
            }
        }
    })
}

/// One grid cell: a fresh workspace, the documents opened, the scripts
/// replayed (warm-up pairs unmeasured), per-cycle latencies collected from
/// the shard service histogram. Shard busy times are snapshotted at the
/// warm-up boundary so the imbalance figure covers exactly the measured
/// window — `WorkspaceMetrics::imbalance` spans the whole lifetime and
/// would dilute it with open/warm-up time.
fn run_cell(
    registry: &std::sync::Arc<LanguageRegistry>,
    config: &wg_core::SessionConfig,
    docs: usize,
    threads: usize,
    loads: &[DocWorkload],
    warmup_pairs: usize,
) -> Cell {
    let ws = Workspace::with_registry(threads, 64, std::sync::Arc::clone(registry));
    let ids: Vec<DocId> = loads
        .iter()
        .map(|w| ws.open_with(config, &w.text).expect("opens"))
        .collect();

    let total_pairs = loads[0].pairs.len();
    let mut measured_edits = 0u64;
    let mut wall = Duration::ZERO;
    let mut busy_at_warmup: Option<Vec<Duration>> = None;
    // One round per PAIRS_PER_CMD pairs: every document gets one command
    // carrying that chunk's mutate/restore edits, so the per-command
    // handoff cost is amortized and the drain-and-coalesce path sees
    // realistic multi-edit batches. Per-cycle latency percentiles come
    // from the workspace's own service-time histogram.
    let mut pair_ix = 0;
    while pair_ix < total_pairs {
        let chunk = (pair_ix..total_pairs.min(pair_ix + PAIRS_PER_CMD)).collect::<Vec<_>>();
        let measured = pair_ix >= warmup_pairs;
        if measured && busy_at_warmup.is_none() {
            // apply() is synchronous, so the shards quiesce here; wait for
            // the pool to report idle so every warm-up nanosecond is
            // already charged before the window baseline is taken.
            while !ws.idle() {
                std::thread::yield_now();
            }
            busy_at_warmup = Some(ws.metrics().shard_busy);
        }
        let t0 = Instant::now();
        let batch: Vec<(DocId, Vec<EditReq>)> = ids
            .iter()
            .zip(loads)
            .map(|(id, w)| {
                let edits: Vec<EditReq> = chunk
                    .iter()
                    .flat_map(|&p| {
                        let (a, b) = &w.pairs[p];
                        [
                            EditReq::replace(a.start, a.removed, &a.insert),
                            EditReq::replace(b.start, b.removed, &b.insert),
                        ]
                    })
                    .collect();
                (*id, edits)
            })
            .collect();
        for report in ws.apply(batch) {
            let outcome = report.result.expect("scripted edits apply");
            assert!(outcome.incorporated);
            if measured {
                measured_edits += outcome.edits_applied as u64;
            }
        }
        if measured {
            wall += t0.elapsed();
        }
        pair_ix += chunk.len();
    }
    let metrics = ws.shutdown();
    let warm = busy_at_warmup.unwrap_or_default();
    let busy_win = metrics
        .shard_busy
        .iter()
        .enumerate()
        .map(|(i, b)| b.saturating_sub(warm.get(i).copied().unwrap_or(Duration::ZERO)))
        .max()
        .unwrap_or(Duration::ZERO);
    Cell {
        docs,
        threads,
        edits: measured_edits,
        wall,
        edits_per_sec: measured_edits as f64 / wall.as_secs_f64().max(1e-9),
        p50: metrics.p50,
        p95: metrics.p95,
        p99: metrics.p99,
        busy_max: metrics
            .shard_busy
            .iter()
            .max()
            .copied()
            .unwrap_or(Duration::ZERO),
        imbalance: busy_win.as_secs_f64() / wall.as_secs_f64().max(1e-9),
        steals: metrics.steals,
        migrations: metrics.migrations,
        coalesced: metrics.coalesced_edits,
        reparses: metrics.reparses,
    }
}

/// One read-mostly cell: 64 semantic documents, each replaying its 95%
/// query / 5% edit-pair script in rounds of [`OPS_PER_ROUND`] async
/// submissions (FIFO per document survives any migration, so queries see
/// exactly the text state the script implies).
fn run_read_cell(
    registry: &std::sync::Arc<LanguageRegistry>,
    config: &wg_core::SessionConfig,
    threads: usize,
    loads: &[(String, Vec<ReadOp>)],
    warmup_ops: usize,
) -> ReadCell {
    let ws = Workspace::with_registry(threads, 64, std::sync::Arc::clone(registry));
    let ids: Vec<DocId> = loads
        .iter()
        .map(|(text, _)| ws.open_with_semantics(config, text).expect("opens"))
        .collect();

    let total_ops = loads[0].1.len();
    let mut measured_ops = 0u64;
    let mut wall = Duration::ZERO;
    let mut busy_at_warmup: Option<Vec<Duration>> = None;
    let mut op_ix = 0;
    while op_ix < total_ops {
        let end = total_ops.min(op_ix + OPS_PER_ROUND);
        let measured = op_ix >= warmup_ops;
        if measured && busy_at_warmup.is_none() {
            while !ws.idle() {
                std::thread::yield_now();
            }
            busy_at_warmup = Some(ws.metrics().shard_busy);
        }
        let t0 = Instant::now();
        let mut applies = Vec::new();
        for (id, (_, ops)) in ids.iter().zip(loads) {
            for op in &ops[op_ix..end] {
                match op {
                    ReadOp::Query(at) => {
                        ws.query(*id, SemQuery::ResolveAt(*at))
                            .expect("query answered");
                    }
                    ReadOp::Pair(a, b) => {
                        let edits = vec![
                            EditReq::replace(a.start, a.removed, &a.insert),
                            EditReq::replace(b.start, b.removed, &b.insert),
                        ];
                        applies.push(ws.apply_async(*id, edits).expect("doc"));
                    }
                }
            }
        }
        for p in applies {
            assert!(p.wait().result.expect("edits apply").incorporated);
        }
        if measured {
            wall += t0.elapsed();
            measured_ops += ((end - op_ix) * ids.len()) as u64;
        }
        op_ix = end;
    }
    let metrics = ws.shutdown();
    let warm = busy_at_warmup.unwrap_or_default();
    let busy_win = metrics
        .shard_busy
        .iter()
        .enumerate()
        .map(|(i, b)| b.saturating_sub(warm.get(i).copied().unwrap_or(Duration::ZERO)))
        .max()
        .unwrap_or(Duration::ZERO);
    ReadCell {
        threads,
        ops: measured_ops,
        wall,
        ops_per_sec: measured_ops as f64 / wall.as_secs_f64().max(1e-9),
        query_p50: metrics.query_p50,
        query_p95: metrics.query_p95,
        query_p99: metrics.query_p99,
        edit_p50: metrics.p50,
        imbalance: busy_win.as_secs_f64() / wall.as_secs_f64().max(1e-9),
        queries: metrics.queries,
        snapshot_reads: metrics.snapshot_reads,
    }
}

/// Hand-rolled JSON (no serde in the container), matching the
/// `BENCH_incremental.json` conventions: everything in nanoseconds.
/// `cores` leads the header — every figure below it is meaningless
/// without knowing how much hardware parallelism was available.
#[allow(clippy::too_many_arguments)]
fn write_json(
    file: &str,
    quick: bool,
    lines: usize,
    pairs: usize,
    cores: usize,
    direct_p50: Duration,
    cells: &[Cell],
    read_cells: &[ReadCell],
    double_cell: &ReadCell,
) {
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"bench\": \"sec5_throughput\",\n");
    j.push_str(&format!("  \"cores\": {cores},\n"));
    j.push_str(&format!("  \"quick\": {quick},\n"));
    j.push_str(&format!("  \"lines_per_doc\": {lines},\n"));
    j.push_str(&format!("  \"measured_pairs_per_doc\": {pairs},\n"));
    j.push_str(&format!(
        "  \"direct_single_session_p50_ns\": {},\n",
        direct_p50.as_nanos()
    ));
    j.push_str("  \"grid\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let base = cells
            .iter()
            .find(|b| b.docs == c.docs && b.threads == 1)
            .unwrap();
        j.push_str(&format!(
            "    {{\"docs\": {}, \"threads\": {}, \"edits\": {}, \"wall_ns\": {}, \"edits_per_sec\": {:.1}, \"speedup_vs_1_thread\": {:.4}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"busiest_shard_ns\": {}, \"imbalance\": {:.4}, \"steals\": {}, \"migrations\": {}, \"coalesced_edits\": {}, \"reparses\": {}}}{}\n",
            c.docs,
            c.threads,
            c.edits,
            c.wall.as_nanos(),
            c.edits_per_sec,
            c.edits_per_sec / base.edits_per_sec,
            c.p50.as_nanos(),
            c.p95.as_nanos(),
            c.p99.as_nanos(),
            c.busy_max.as_nanos(),
            c.imbalance,
            c.steals,
            c.migrations,
            c.coalesced,
            c.reparses,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    j.push_str("  ],\n");
    j.push_str("  \"read_mostly\": [\n");
    for (i, c) in read_cells.iter().enumerate() {
        j.push_str(&read_cell_json(c));
        j.push_str(if i + 1 < read_cells.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    j.push_str("  ],\n");
    // The snapshot gate's writer-pressure run: same sites, 10% edit pairs.
    j.push_str("  \"read_double_rate\": [\n");
    j.push_str(&read_cell_json(double_cell));
    j.push_str("\n  ]\n}\n");
    wg_bench::write_result(file, &j);
}

/// One read-mostly JSON row (shared by the 5% sweep and the gate's 10%
/// run), no trailing comma or newline.
fn read_cell_json(c: &ReadCell) -> String {
    format!(
        "    {{\"docs\": {READ_DOCS}, \"threads\": {}, \"ops\": {}, \"wall_ns\": {}, \"ops_per_sec\": {:.1}, \"query_p50_ns\": {}, \"query_p95_ns\": {}, \"query_p99_ns\": {}, \"edit_cycle_p50_ns\": {}, \"imbalance\": {:.4}, \"queries\": {}, \"snapshot_reads\": {}}}",
        c.threads,
        c.ops,
        c.wall.as_nanos(),
        c.ops_per_sec,
        c.query_p50.as_nanos(),
        c.query_p95.as_nanos(),
        c.query_p99.as_nanos(),
        c.edit_p50.as_nanos(),
        c.imbalance,
        c.queries,
        c.snapshot_reads,
    )
}
