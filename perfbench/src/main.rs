//! The repository benchmark: three seeded workloads against the public API
//! of `wg-core`, `wg-workspace` and `wg-lrtable`, every output checked
//! against an independent oracle.
//!
//! ```text
//! perfbench --workload <edit_full_c|ide_mix|swap_cold> --seed <n> \
//!           --seconds <s> --trace <0|1> [--trace-out <file>]
//! perfbench --self-check
//! ```
//!
//! Run from the repository root (`cargo run --release --manifest-path
//! perfbench/Cargo.toml -- ...`). A run prints a header (core count, thread
//! counts, the sample count behind every percentile), each metric by name
//! with its unit, the oracle verdicts, and as its last line one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics of `BENCHMARK.json` with `--trace 0`, its per-layer metrics with
//! `--trace 1`. A traced run also prints the per-layer ledger and writes
//! its spans to `perfbench/out/` (or `--trace-out`).
//!
//! `--self-check` runs a short mode of every workload and checks the
//! benchmark itself: every metric of `BENCHMARK.json` prints with its unit,
//! a corrupted expectation fails its oracle, and an injected error is
//! counted as a failed operation.

mod common;
mod edit_full_c;
mod ide_mix;
mod oracle;
mod selfcheck;
mod stats;
mod swap_cold;
mod trace;

use common::{nproc, Corrupt, Opts, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["edit_full_c", "ide_mix", "swap_cold"];

const USAGE: &str = "usage: perfbench --workload <edit_full_c|ide_mix|swap_cold> --seed <n> \
--seconds <s> --trace <0|1> [--trace-out <file>] [--inject-error] [--corrupt <text|seminfo>]
       perfbench --self-check";

enum Command {
    Run(String, Opts),
    SelfCheck,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    if args == ["--self-check"] {
        return Ok(Command::SelfCheck);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut o = Opts {
        seed: 0,
        seconds: 0.0,
        trace: false,
        trace_out: None,
        inject_error: false,
        corrupt: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--trace-out" => o.trace_out = Some(PathBuf::from(value()?)),
            "--inject-error" => o.inject_error = true,
            "--corrupt" => {
                o.corrupt = Some(match value()?.as_str() {
                    "text" => Corrupt::Text,
                    "seminfo" => Corrupt::SemInfo,
                    v => return Err(format!("--corrupt takes text or seminfo, not {v}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    o.seed = seed.ok_or("--seed is required")?;
    o.seconds = seconds.ok_or("--seconds is required")?;
    if !(o.seconds > 0.0 && o.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    o.trace = trace.ok_or("--trace is required")?;
    Ok(Command::Run(workload, o))
}

/// Writes a traced run's spans; a failed write is reported, not fatal.
pub fn write_trace(o: &Opts, workload: &str, spans: &[trace::Span]) {
    let path = o.trace_out.clone().unwrap_or_else(|| {
        PathBuf::from(format!("perfbench/out/trace-{workload}-seed{}.tsv", o.seed))
    });
    if let Err(e) = trace::write_tsv(&path, spans) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

fn print_outcome(workload: &str, o: &Opts, out: &Outcome) {
    println!(
        "# perfbench workload={workload} seed={} seconds={} trace={}",
        o.seed,
        o.seconds,
        u8::from(o.trace)
    );
    println!(
        "# nproc={} workers={} clients={}",
        nproc(),
        out.workers,
        out.clients
    );
    let counts: Vec<String> = out
        .named
        .iter()
        .chain(&out.e2e)
        .filter_map(|m| m.n.map(|n| format!("{}={n}", m.name)))
        .collect();
    println!("# samples {}", counts.join(" "));
    for m in out.named.iter().chain(&out.e2e) {
        let n = m.n.map_or(String::new(), |n| format!(" n={n}"));
        let groups = m.groups.map_or(String::new(), |k| format!(" groups={k}"));
        println!("metric {} {} {}{n}{groups}", m.name, m.value, m.unit);
    }
    let frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "metric failed_frac {frac} ratio failed={} attempted={}",
        out.failed, out.attempted
    );
    for line in &out.ledger {
        println!("{line}");
    }
    for m in &out.layers {
        println!("per_layer {} {} {}", m.name, m.value, m.unit);
    }
    for (name, ok) in &out.oracles {
        println!("oracle {name} {}", if *ok { "ok" } else { "FAIL" });
    }
    let metrics = if o.trace { &out.layers } else { &out.e2e };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not a number", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        body.join(", ")
    );
}

fn run(workload: &str, o: &Opts) -> Outcome {
    match workload {
        "edit_full_c" => edit_full_c::run(o),
        "ide_mix" => ide_mix::run(o),
        "swap_cold" => swap_cold::run(o),
        _ => unreachable!("workload validated by parse_args"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Command::Run(workload, o)) => {
            let out = run(&workload, &o);
            print_outcome(&workload, &o, &out);
            ExitCode::SUCCESS
        }
        Ok(Command::SelfCheck) => selfcheck::run(),
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
