//! Pieces every workload shares: options, the result record, the per-op
//! counters read from the program's own reports, and the per-layer
//! metrics computed from them and from the trace.

use crate::stats::{pct_label, Rates, Samples};
use crate::trace::{Ledger, NameStats};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use wg_core::ReparseReport;

/// Set-up runs this many times; `setup_s` is the median, so one slow
/// repetition does not move it.
pub const SETUP_REPS: usize = 9;

/// Tracing alternates on and off in slices of this length during a traced
/// run, so traced and untraced throughput are measured side by side.
pub const TRACE_SLICE: Duration = Duration::from_millis(250);

/// A deliberately wrong expectation, for the self-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corrupt {
    Text,
    SemInfo,
}

#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
    pub inject_error: bool,
    pub corrupt: Option<Corrupt>,
}

impl Opts {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, for timings.
    pub n: Option<usize>,
    /// Consecutive groups whose median the value is, for grouped tails.
    pub groups: Option<usize>,
}

pub fn metric(name: &str, value: f64, unit: &'static str, n: Option<usize>) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        n,
        groups: None,
    }
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub workers: usize,
    pub clients: usize,
    /// End-to-end metrics under their `BENCHMARK.json` names.
    pub e2e: Vec<Metric>,
    /// The same measurements under the names of the operation they time
    /// (`keystroke_p50_us`, `query_p99_us`, `swap_p90_ms`, ...).
    pub named: Vec<Metric>,
    /// Per-layer metrics under their `BENCHMARK.json` names (traced run).
    pub layers: Vec<Metric>,
    /// Human-readable ledger lines (traced run).
    pub ledger: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Oracle verdicts, by check name.
    pub oracles: Vec<(String, bool)>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, ok: bool) {
        self.oracles.push((name.to_string(), ok));
    }

    pub fn correct(&self) -> bool {
        !self.oracles.is_empty() && self.oracles.iter().all(|(_, ok)| *ok)
    }
}

/// Percentiles of `s` named after `base` (e.g. `keystroke` and 0.99 →
/// `keystroke_p99_us`).
pub fn timing(base: &str, s: &Samples, pcts: &[f64], unit: &'static str) -> Vec<Metric> {
    let scale = match unit {
        "us" => 1e3,
        "ms" => 1e6,
        _ => 1.0,
    };
    pcts.iter()
        .map(|&p| {
            metric(
                &format!("{base}_{}_{unit}", pct_label(p)),
                s.percentile(p) as f64 / scale,
                unit,
                Some(s.len()),
            )
        })
        .collect()
}

/// The end-to-end metrics every workload reports. `rates` holds each
/// closed-loop client's operation rate, and `ops_per_s` is the sum of their
/// median group rates. `write` holds the latency of the workload's change
/// operation (keystroke or swap); `tail` is the fixed percentile reported
/// for it. Both latencies are medians over consecutive groups of samples
/// (`Samples::grouped_percentile`).
pub fn end_to_end(setup: &Samples, rates: &[Rates], write: &Samples, tail: f64) -> Vec<Metric> {
    let medians: Vec<(f64, usize)> = rates.iter().map(Rates::median).collect();
    let grouped = |name: &str, p: f64| {
        let (ns, groups) = write.grouped_percentile(p);
        Metric {
            groups: Some(groups),
            ..metric(name, ns as f64 / 1e3, "us", Some(write.len()))
        }
    };
    vec![
        metric(
            "setup_s",
            setup.median() as f64 / 1e9,
            "s",
            Some(setup.len()),
        ),
        Metric {
            groups: Some(medians.iter().map(|m| m.1).sum()),
            ..metric("ops_per_s", medians.iter().map(|m| m.0).sum(), "1/s", None)
        },
        grouped("write_p50_us", 0.5),
        grouped("write_tail_us", tail),
        metric("peak_rss_mb", peak_rss_mb(), "MB", None),
    ]
}

/// Median per-document cold open. Printed by name on every workload but
/// kept out of the gated metrics: on edit_full_c and ide_mix it is a few
/// set-up samples whose level moves with the process's first-touch memory
/// cost (cold opens are gated through `setup_s` there, and through
/// `ops_per_s` on swap_cold).
pub fn open_metric(opens: &Samples) -> Metric {
    metric(
        "open_p50_ms",
        opens.median() as f64 / 1e6,
        "ms",
        Some(opens.len()),
    )
}

/// `VmHWM` of this process, in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Whether the op starting `elapsed` into a traced run is traced: tracing
/// is on in even slices.
pub fn traced_slice(trace: bool, elapsed: Duration) -> bool {
    trace && (elapsed.as_nanos() / TRACE_SLICE.as_nanos()).is_multiple_of(2)
}

/// SplitMix64: the benchmark's own seeded generator for choices the
/// program's generators do not make.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

pub fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

pub fn since(t: Instant) -> u64 {
    ns(t.elapsed())
}

/// Work counters read from the program's reports, summed over the
/// measured window.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    /// Reparse cycles observed (keystrokes or applies).
    pub cycles: u64,
    pub terminal_shifts: u64,
    pub subtree_shifts: u64,
    pub run_shifts: u64,
    pub reductions: u64,
    pub attempts: u64,
    /// Cycles that left edits unincorporated (refusal path).
    pub refused: u64,
    pub gc_runs: u64,
    pub rebalances: u64,
    pub fresh_slots: u64,
    pub recycled_slots: u64,
    pub merge_probes: u64,
    pub arena_nodes_max: u64,
    pub sem_reanalyzed: u64,
    pub sem_contours_reused: u64,
    pub sem_flips: u64,
    pub sem_full_rebuilds: u64,
    pub swaps: u64,
    pub states_reused: u64,
    pub rows_reused: u64,
    pub full_rebuilds: u64,
    pub steals: u64,
    pub migrations: u64,
    pub coalesced: u64,
    pub queries: u64,
    pub snapshot_reads: u64,
}

impl Counters {
    pub fn absorb(&mut self, r: &ReparseReport, refused: bool) {
        self.cycles += 1;
        self.terminal_shifts += r.parser.terminal_shifts as u64;
        self.subtree_shifts += r.parser.subtree_shifts as u64;
        self.run_shifts += r.parser.run_shifts as u64;
        self.reductions += r.parser.reductions as u64;
        self.attempts += r.attempts as u64;
        self.refused += u64::from(refused);
        self.gc_runs += u64::from(r.gc_ran);
        self.rebalances += u64::from(r.rebalanced);
        self.fresh_slots += r.fresh_node_slots;
        self.recycled_slots += r.recycled_node_slots;
        self.merge_probes += r.merge_probes;
        self.arena_nodes_max = self.arena_nodes_max.max(r.arena_nodes as u64);
        self.sem_reanalyzed += r.sem_reanalyzed;
        self.sem_contours_reused += r.sem_contours_reused;
        self.sem_flips += r.sem_flips;
        self.sem_full_rebuilds += u64::from(r.sem_full_rebuild);
    }

    pub fn merge(&mut self, o: &Counters) {
        self.cycles += o.cycles;
        self.terminal_shifts += o.terminal_shifts;
        self.subtree_shifts += o.subtree_shifts;
        self.run_shifts += o.run_shifts;
        self.reductions += o.reductions;
        self.attempts += o.attempts;
        self.refused += o.refused;
        self.gc_runs += o.gc_runs;
        self.rebalances += o.rebalances;
        self.fresh_slots += o.fresh_slots;
        self.recycled_slots += o.recycled_slots;
        self.merge_probes += o.merge_probes;
        self.arena_nodes_max = self.arena_nodes_max.max(o.arena_nodes_max);
        self.sem_reanalyzed += o.sem_reanalyzed;
        self.sem_contours_reused += o.sem_contours_reused;
        self.sem_flips += o.sem_flips;
        self.sem_full_rebuilds += o.sem_full_rebuilds;
    }
}

/// Attaches a reparse report's stage times under the span of the call that
/// produced it. `buffer` is the part of `report.buffer` spent inside that
/// call: all of it, or only the prefix rewinds when the caller timed the
/// edits themselves.
pub fn attach_report(
    tr: &mut crate::trace::Tracer,
    parent: crate::trace::SpanId,
    r: &ReparseReport,
    buffer: Duration,
    sem: bool,
) {
    tr.attach(parent, "document.buffer", buffer);
    tr.attach(parent, "lexer.relex", r.relex);
    tr.attach(parent, "core.parse", r.parse);
    tr.attach(parent, "dag.maintenance", r.maintenance);
    if sem {
        tr.attach(parent, "sem.update", r.sem);
    }
}

/// Inputs to the per-layer metrics of one traced run.
#[derive(Debug, Default)]
pub struct LayerData {
    pub ledger: Ledger,
    pub c: Counters,
    /// Raw `ReparseReport::buffer` per cycle (edits plus rewinds).
    pub buffer_ns: Samples,
    /// Timed `LanguageRegistry::get_or_compile` calls.
    pub build_ns: Samples,
    /// Standalone `Lexer::lex` of each opened text.
    pub lex_ns: Samples,
    /// Each open minus the standalone lex of its text.
    pub open_minus_lex_ns: Samples,
    /// Standalone `LrTable::update` on each swap's delta.
    pub update_ns: Samples,
    /// Operations per second in traced and in untraced slices.
    pub rate_traced: f64,
    pub rate_untraced: f64,
}

/// The layers of the pipeline, by span-name prefix.
pub const LAYERS: [&str; 9] = [
    "document",
    "lexer",
    "core",
    "dag",
    "snapshot",
    "sem",
    "workspace",
    "lrtable",
    "registry",
];

fn per(n: u64, d: u64) -> f64 {
    n as f64 / d.max(1) as f64
}

/// Builds the per-layer JSON metrics and the ledger text of a traced run.
pub fn layer_metrics(d: &LayerData, out: &mut Outcome) {
    let l = &d.ledger;
    let c = &d.c;
    let mut m: Vec<Metric> = [
        ("lrtable.build_ns", &d.build_ns),
        ("lexer.lex_ns", &d.lex_ns),
        ("core.open_ns", &d.open_minus_lex_ns),
        ("trace.residual_ns", &l.residual),
    ]
    .into_iter()
    .map(|(name, s)| metric(name, s.median() as f64, "ns", Some(s.len())))
    .collect();
    let overhead = 100.0 * (d.rate_untraced / d.rate_traced.max(1e-9) - 1.0);
    m.push(metric(
        "trace.residual_share",
        l.residual_share(),
        "%",
        None,
    ));
    m.push(metric("trace.overhead_pct", overhead, "%", None));
    for layer in LAYERS {
        let share = l.layer_share(layer);
        m.push(metric(&format!("{layer}.share"), share, "%", None));
    }
    // Work per reparse cycle (keystroke or apply), or per swap.
    let (cyc, sw) = (c.cycles, c.swaps);
    let shifts = c.terminal_shifts + c.subtree_shifts + c.run_shifts;
    let op = "count/op";
    let rows = [
        ("core.terminal_shifts", per(c.terminal_shifts, cyc), op),
        ("core.subtree_shifts", per(c.subtree_shifts, cyc), op),
        ("core.run_shifts", per(c.run_shifts, cyc), op),
        ("core.reductions", per(c.reductions, cyc), op),
        ("core.attempts", per(c.attempts, cyc), op),
        ("core.refused_reparses", per(c.refused, cyc), op),
        (
            "core.reuse_ratio",
            per(c.subtree_shifts + c.run_shifts, shifts),
            "ratio",
        ),
        ("dag.gc_runs", per(c.gc_runs, cyc), op),
        ("dag.rebalances", per(c.rebalances, cyc), op),
        ("dag.fresh_node_slots", per(c.fresh_slots, cyc), op),
        ("dag.recycled_node_slots", per(c.recycled_slots, cyc), op),
        ("dag.arena_nodes", c.arena_nodes_max as f64, "count"),
        ("dag.merge_probes", per(c.merge_probes, cyc), op),
        ("sem.reanalyzed", per(c.sem_reanalyzed, cyc), op),
        ("sem.contours_reused", per(c.sem_contours_reused, cyc), op),
        ("sem.flips", per(c.sem_flips, cyc), op),
        ("sem.full_rebuilds", per(c.sem_full_rebuilds, cyc), op),
        ("workspace.steals", c.steals as f64, "count"),
        ("workspace.migrations", c.migrations as f64, "count"),
        ("workspace.coalesced_edits", c.coalesced as f64, "count"),
        (
            "workspace.snapshot_read_share",
            100.0 * per(c.snapshot_reads, c.queries),
            "%",
        ),
        ("lrtable.states_reused", per(c.states_reused, sw), op),
        ("lrtable.rows_reused", per(c.rows_reused, sw), op),
        ("lrtable.full_rebuilds", per(c.full_rebuilds, sw), op),
    ];
    m.extend(rows.map(|(name, v, unit)| metric(name, v, unit, None)));
    out.layers = m;
    ledger_text(d, out);
}

/// The per-layer timings under their layer-call names, with the layer
/// self-time split and the per-op residual.
fn ledger_text(d: &LayerData, out: &mut Outcome) {
    let l = &d.ledger;
    // A statistic of the spans named `name`, with their count.
    let spans = |name: &str, stat: fn(&NameStats) -> u64| {
        l.names
            .get(name)
            .filter(|s| !s.dur.is_empty())
            .map(|s| (stat(s) as f64, s.dur.len()))
    };
    let samples = |s: &Samples| (!s.is_empty()).then(|| (s.median() as f64, s.len()));
    let p50: fn(&NameStats) -> u64 = |s| s.dur.median();
    let rows = [
        ("document.edit_ns", spans("document.edit", p50)),
        ("document.buffer_ns", samples(&d.buffer_ns)),
        ("lexer.relex_ns", spans("lexer.relex", p50)),
        ("lexer.relex_ns_sum", spans("lexer.relex", |s| s.dur.sum())),
        ("lexer.lex_ns", samples(&d.lex_ns)),
        ("core.parse_ns", spans("core.parse", p50)),
        ("core.open_ns", samples(&d.open_minus_lex_ns)),
        ("dag.maintenance_ns", spans("dag.maintenance", p50)),
        (
            "dag.maintenance_ns_max",
            spans("dag.maintenance", |s| s.dur.percentile(1.0)),
        ),
        ("snapshot.publish_ns", spans("snapshot.publish", p50)),
        (
            "snapshot.publish_ns_p99",
            spans("snapshot.publish", |s| s.dur.percentile(0.99)),
        ),
        ("sem.update_ns", spans("sem.update", p50)),
        ("workspace.service_ns", spans("workspace.service", p50)),
        // Client latency minus shard service: queue wait, publish, reply.
        (
            "workspace.wait_ns",
            spans("workspace.apply", |s| s.self_ns.median()),
        ),
        ("lrtable.build_ns", samples(&d.build_ns)),
        ("lrtable.update_ns", samples(&d.update_ns)),
        ("registry.adopt_ns", spans("registry.adopt", p50)),
    ];
    for (name, v) in rows {
        out.ledger.push(match v {
            Some((v, n)) => format!("layer {name} {v} ns n={n}"),
            None => format!("layer {name} n/a (layer not on this workload's path)"),
        });
    }
    for layer in LAYERS {
        let self_ns = l.layer_self_ns(layer);
        out.ledger.push(format!(
            "self {layer} {self_ns} ns share={:.2}%",
            l.layer_share(layer)
        ));
    }
    out.ledger.push(format!(
        "residual per_op_p50={} ns per_op_p99={} ns share={:.2}% ops={} (operation time outside every layer call)",
        l.residual.median(),
        l.residual.percentile(0.99),
        l.residual_share(),
        l.residual.len()
    ));
    out.ledger.push(format!(
        "overhead traced_ops_per_s={} untraced_ops_per_s={}",
        d.rate_traced, d.rate_untraced
    ));
}
