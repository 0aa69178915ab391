//! `--self-check`: the benchmark checking itself. It runs this executable
//! on a short window of every workload, traced and untraced, and on
//! deliberately faulty runs, and verifies that
//!
//! * every metric `BENCHMARK.json` names is printed with its unit, in the
//!   final JSON line and as a text line, and every run passes its oracles
//!   with no failed operation;
//! * one flipped byte of an expected text fails the text oracle, and one
//!   wrong expected `SemInfo` fails the answer oracle;
//! * an injected error is counted as a failed operation.
//!
//! Run it from the repository root, where `BENCHMARK.json` lives.

use crate::WORKLOADS;
use std::process::{Command, ExitCode};
use wg_bench::json::Json;

const SEED: &str = "7";
const SECONDS: &str = "1";

/// The per-operation names each workload prints besides the JSON metrics.
fn named(workload: &str) -> &'static [&'static str] {
    match workload {
        "edit_full_c" => &[
            "keystroke_p50_us",
            "keystroke_p99_us",
            "keystroke_p999_us",
            "open_p50_ms",
        ],
        "ide_mix" => &[
            "keystroke_p50_us",
            "keystroke_p90_us",
            "keystroke_p99_us",
            "keystroke_p999_us",
            "query_p50_us",
            "query_p99_us",
            "query_p999_us",
            "open_p50_ms",
        ],
        _ => &["swap_p50_ms", "swap_p90_ms", "open_p50_ms"],
    }
}

/// The text oracle each workload reports.
fn text_oracle(workload: &str) -> &'static str {
    match workload {
        "edit_full_c" => "text_equals_replay",
        "ide_mix" => "texts_equal_replay",
        _ => "texts_equal_generated",
    }
}

/// `(name, unit)` of each metric in one section of `BENCHMARK.json`.
fn section(bench: &Json, key: &str) -> Result<Vec<(String, String)>, String> {
    bench
        .get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json has no {key} array"))?
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("{key} entry without {f}"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

struct Run {
    stdout: String,
    result: Json,
}

impl Run {
    fn bool(&self, key: &str) -> Option<bool> {
        self.result.get(key).and_then(Json::as_bool)
    }

    fn count(&self, key: &str) -> u64 {
        self.result.get(key).and_then(Json::as_u64).unwrap_or(0)
    }

    fn oracle(&self, name: &str) -> Option<bool> {
        self.stdout.lines().find_map(|l| {
            let rest = l.strip_prefix("oracle ")?.strip_prefix(name)?;
            Some(rest.trim() == "ok")
        })
    }

    /// Whether a text line `<prefix> <name> <value> <unit>` is present.
    fn has_line(&self, prefix: &str, name: &str, unit: &str) -> bool {
        self.stdout.lines().any(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            f.len() >= 4 && f[0] == prefix && f[1] == name && f[3] == unit
        })
    }
}

fn invoke(workload: &str, extra: &[&str]) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let trace_out = std::path::Path::new("perfbench/out").join(format!("selfcheck-{workload}.tsv"));
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", SEED, "--seconds", SECONDS])
        .args(extra)
        .arg("--trace-out")
        .arg(&trace_out)
        .output()
        .map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&trace_out);
    if !out.status.success() {
        return Err(format!(
            "{workload} {extra:?} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or_default();
    let result =
        Json::parse(last).map_err(|e| format!("{workload}: last line is not JSON: {e}"))?;
    Ok(Run { stdout, result })
}

pub fn run() -> ExitCode {
    let mut checks = 0usize;
    let mut failures: Vec<String> = Vec::new();
    let mut check = |ok: bool, what: String| {
        checks += 1;
        if !ok {
            eprintln!("self-check FAIL: {what}");
            failures.push(what);
        }
    };
    let bench = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|s| Json::parse(&s).map_err(|e| e.to_string()))
        .and_then(|b| Ok((section(&b, "end_to_end")?, section(&b, "per_layer")?)));
    let (e2e, layers) = match bench {
        Ok(v) => v,
        Err(e) => {
            eprintln!("self-check: {e} (run from the repository root)");
            return ExitCode::FAILURE;
        }
    };

    for w in WORKLOADS {
        for (trace, expected, prefix) in [("0", &e2e, "metric"), ("1", &layers, "per_layer")] {
            let r = match invoke(w, &["--trace", trace]) {
                Ok(r) => r,
                Err(e) => {
                    check(false, e);
                    continue;
                }
            };
            let tag = format!("{w} --trace {trace}");
            check(r.bool("correct") == Some(true), format!("{tag}: correct"));
            check(r.count("attempted") >= 1, format!("{tag}: attempted >= 1"));
            check(r.count("failed") == 0, format!("{tag}: failed == 0"));
            check(
                r.stdout.starts_with("# perfbench") && r.stdout.contains("\n# nproc="),
                format!("{tag}: header with nproc and thread counts"),
            );
            let metrics = match r.result.get("metrics") {
                Some(Json::Obj(m)) => m.clone(),
                _ => Vec::new(),
            };
            check(
                metrics.len() == expected.len(),
                format!(
                    "{tag}: {} metrics, BENCHMARK.json names {}",
                    metrics.len(),
                    expected.len()
                ),
            );
            for (name, unit) in expected.iter() {
                let m = metrics.iter().find(|(k, _)| k == name).map(|(_, v)| v);
                let value = m.and_then(|m| m.get("value")).and_then(Json::as_f64);
                let got_unit = m.and_then(|m| m.get("unit")).and_then(Json::as_str);
                check(
                    value.is_some_and(f64::is_finite) && got_unit == Some(unit.as_str()),
                    format!("{tag}: JSON metric {name} with unit {unit}"),
                );
                check(
                    r.has_line(prefix, name, unit),
                    format!("{tag}: text line for {name} with unit {unit}"),
                );
                if trace == "0" {
                    check(
                        value.is_some_and(|v| v > 0.0),
                        format!("{tag}: {name} is nonzero"),
                    );
                }
            }
            if trace == "0" {
                for name in named(w) {
                    let unit = name.rsplit('_').next().unwrap_or_default();
                    check(
                        r.has_line("metric", name, unit),
                        format!("{tag}: text line for {name}"),
                    );
                }
                check(
                    r.has_line("metric", "failed_frac", "ratio"),
                    format!("{tag}: failed_frac line"),
                );
            } else {
                check(
                    r.stdout
                        .lines()
                        .any(|l| l.starts_with("residual per_op_p50=")),
                    format!("{tag}: per-op residual line"),
                );
            }
        }

        // A flipped byte of expected text plus an injected failing
        // operation: the text oracle alone fails, the failure is counted.
        match invoke(w, &["--trace", "0", "--corrupt", "text", "--inject-error"]) {
            Ok(r) => {
                let tag = format!("{w} corrupted text + injected error");
                check(
                    r.bool("correct") == Some(false),
                    format!("{tag}: correct is false"),
                );
                check(
                    r.oracle(text_oracle(w)) == Some(false),
                    format!("{tag}: {} fails", text_oracle(w)),
                );
                check(r.count("failed") >= 1, format!("{tag}: failed >= 1"));
                check(
                    r.stdout.lines().any(|l| {
                        l.starts_with("metric failed_frac ")
                            && !l.starts_with("metric failed_frac 0 ")
                    }),
                    format!("{tag}: failed_frac above 0"),
                );
            }
            Err(e) => check(false, e),
        }
    }

    match invoke("ide_mix", &["--trace", "0", "--corrupt", "seminfo"]) {
        Ok(r) => {
            let tag = "ide_mix corrupted SemInfo";
            check(
                r.bool("correct") == Some(false),
                format!("{tag}: correct is false"),
            );
            check(
                r.oracle("answers_equal_fresh_sessions") == Some(false),
                format!("{tag}: answers_equal_fresh_sessions fails"),
            );
            check(
                r.oracle("texts_equal_replay") == Some(true),
                format!("{tag}: texts still pass"),
            );
        }
        Err(e) => check(false, e),
    }

    if failures.is_empty() {
        println!("self-check: all {checks} checks passed");
        ExitCode::SUCCESS
    } else {
        println!("self-check: {} of {checks} checks failed", failures.len());
        ExitCode::FAILURE
    }
}
