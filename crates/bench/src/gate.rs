//! The bench regression gate: `--check-against <baseline.json>` compares a
//! run's fresh numbers against a committed `BENCH_*.json`, and the process
//! fails if a gated latency grew, or a gated rate fell, by more than
//! `--tolerance <fraction>` (default 0.25). Baselines under a small noise
//! floor are reported but never gated, and a gate that compared nothing
//! fails (the baseline is stale).
//!
//! Each binary keeps only the mapping from its rows to (label, baseline
//! value, fresh value); the flags, the floor, the messages and the verdict
//! live here.

use crate::json::Json;

/// Baseline latencies below this are jitter, not signal: a 25% band around
/// a few hundred nanoseconds is narrower than scheduler noise on shared CI
/// hardware, so such comparisons are reported but never fail the gate.
pub const NOISE_FLOOR_NS: u64 = 2_000;

/// The gate's command-line flags, `--check-against` and `--tolerance`.
#[derive(Debug, Clone)]
pub struct GateArgs {
    check_against: Option<String>,
    tolerance: f64,
}

impl Default for GateArgs {
    fn default() -> GateArgs {
        GateArgs {
            check_against: None,
            tolerance: 0.25,
        }
    }
}

impl GateArgs {
    /// Consumes `flag` (and its value, from `rest`) if it is one of the
    /// gate's flags; returns whether it was.
    pub fn parse_flag(&mut self, flag: &str, rest: &mut impl Iterator<Item = String>) -> bool {
        match flag {
            "--check-against" => {
                self.check_against = Some(rest.next().expect("--check-against needs a path"));
            }
            "--tolerance" => {
                self.tolerance = rest
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--tolerance needs a fraction, e.g. 0.25");
            }
            _ => return false,
        }
        true
    }

    /// Reads the baseline, if one was asked for. Call this before the run:
    /// the gate may point at the very file the run overwrites at the end.
    pub fn load(self) -> Option<Baseline> {
        let path = self.check_against?;
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        Some(Baseline {
            path,
            text,
            tolerance: self.tolerance,
        })
    }
}

/// A committed baseline and the tolerance to gate against it.
#[derive(Debug, Clone)]
pub struct Baseline {
    path: String,
    text: String,
    tolerance: f64,
}

impl Baseline {
    /// Runs one gate pass. `compare` looks up the baseline rows in the
    /// parsed document and feeds each comparison to the [`Gate`]. Returns
    /// `true` when every gated comparison held and at least one was gated.
    pub fn check(&self, compare: impl FnOnce(&Json, &mut Gate)) -> bool {
        let doc = match Json::parse(&self.text) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("regression gate: {} is not valid JSON: {e}", self.path);
                return false;
            }
        };
        println!(
            "\nregression gate vs {} (tolerance +{:.0}%):",
            self.path,
            self.tolerance * 100.0
        );
        let mut gate = Gate {
            path: &self.path,
            tolerance: self.tolerance,
            ok: true,
            gated: 0,
        };
        compare(&doc, &mut gate);
        if gate.ok && gate.gated == 0 {
            eprintln!("regression gate: nothing cleared the noise floor — stale baseline?");
            return false;
        }
        gate.ok
    }
}

/// One gate pass in progress (see [`Baseline::check`]).
#[derive(Debug)]
pub struct Gate<'a> {
    path: &'a str,
    tolerance: f64,
    ok: bool,
    gated: usize,
}

impl Gate<'_> {
    /// The baseline's array under `key`; a missing array fails the gate.
    pub fn rows<'j>(&mut self, doc: &'j Json, key: &str) -> Option<&'j [Json]> {
        let rows = doc.get(key).and_then(Json::as_arr);
        if rows.is_none() {
            eprintln!(
                "regression gate: {} has no \"{key}\" array — stale baseline",
                self.path
            );
            self.ok = false;
        }
        rows
    }

    /// Gates a latency: fails when `now_ns` exceeds `base_ns` by more than
    /// the tolerance. Baselines under [`NOISE_FLOOR_NS`] are only reported.
    pub fn latency(&mut self, label: &str, base_ns: u64, now_ns: u64) {
        let delta = (now_ns as f64 / (base_ns as f64).max(1.0) - 1.0) * 100.0;
        if base_ns < NOISE_FLOOR_NS {
            println!(
                "  {label}: {base_ns}ns -> {now_ns}ns ({delta:+.0}%) [sub-{}µs baseline, not gated]",
                NOISE_FLOOR_NS / 1_000
            );
            return;
        }
        self.gated += 1;
        if delta > self.tolerance * 100.0 {
            eprintln!("  {label}: {base_ns}ns -> {now_ns}ns ({delta:+.0}%) REGRESSION");
            self.ok = false;
        } else {
            println!("  {label}: {base_ns}ns -> {now_ns}ns ({delta:+.0}%) ok");
        }
    }

    /// Gates a rate: fails when `now` falls below `base` by more than the
    /// tolerance.
    pub fn rate(&mut self, label: &str, base: f64, now: f64) {
        let delta = (now / base.max(1e-9) - 1.0) * 100.0;
        self.gated += 1;
        if now < base * (1.0 - self.tolerance) {
            eprintln!("  {label}: {base:.0}/s -> {now:.0}/s ({delta:+.0}%) REGRESSION");
            self.ok = false;
        } else {
            println!("  {label}: {base:.0}/s -> {now:.0}/s ({delta:+.0}%) ok");
        }
    }

    /// Reports a fresh value that has nothing to be compared against.
    pub fn skip(&self, label: &str, why: &str) {
        println!("  {label}: {why} — skipped");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline(text: &str) -> Baseline {
        Baseline {
            path: "base.json".into(),
            text: text.into(),
            tolerance: 0.25,
        }
    }

    #[test]
    fn flags_parse_and_default() {
        let mut args = GateArgs::default();
        let mut rest = ["b.json".to_string(), "0.5".to_string()].into_iter();
        assert!(args.parse_flag("--check-against", &mut rest));
        assert!(args.parse_flag("--tolerance", &mut rest));
        assert!(!args.parse_flag("--quick", &mut rest));
        assert_eq!(args.check_against.as_deref(), Some("b.json"));
        assert_eq!(args.tolerance, 0.5);
        assert!(GateArgs::default().load().is_none());
    }

    #[test]
    fn latency_and_rate_verdicts() {
        let b = baseline(r#"{"rows": []}"#);
        assert!(b.check(|_, g| g.latency("x", 10_000, 12_400)));
        assert!(!b.check(|_, g| g.latency("x", 10_000, 12_600)));
        assert!(b.check(|_, g| g.rate("r", 100.0, 76.0)));
        assert!(!b.check(|_, g| g.rate("r", 100.0, 74.0)));
    }

    #[test]
    fn sub_floor_baselines_are_not_gated_and_an_empty_gate_fails() {
        let b = baseline(r#"{"rows": []}"#);
        // Only a sub-floor comparison: nothing was gated.
        assert!(!b.check(|_, g| g.latency("x", 500, 5_000)));
        assert!(b.check(|_, g| {
            g.latency("x", 500, 5_000);
            g.latency("y", 10_000, 10_000);
        }));
    }

    #[test]
    fn bad_json_and_missing_arrays_fail() {
        assert!(!baseline("{").check(|_, g| g.latency("x", 10_000, 10_000)));
        assert!(!baseline("{}").check(|doc, g| {
            assert!(g.rows(doc, "scaling").is_none());
            g.latency("x", 10_000, 10_000);
        }));
    }
}
