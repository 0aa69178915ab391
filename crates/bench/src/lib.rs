//! Shared harness for the benchmark binaries that regenerate every table
//! and figure of the paper (see DESIGN.md §3 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured results).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod json;

use std::path::Path;
use std::time::{Duration, Instant};
use wg_core::SessionConfig;
use wg_dag::{DagArena, FxHashMap, NodeId, NodeKind};
use wg_document::Edit;
use wg_lexer::TokenAt;
use wg_sentential::{IncLrParser, IncParseError, IncRunStats};

/// Writes one bench's fresh JSON result to `target/bench/<file>`, relative
/// to the directory the bench runs from (the repository root), reporting
/// the path written or the error. A committed `BENCH_*.json` baseline
/// changes only when someone copies a result from there over it, so
/// checking a baseline never rewrites it.
pub fn write_result(file: &str, json: &str) {
    let dir = Path::new("target/bench");
    let path = dir.join(file);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write {}: {e}", path.display()),
    }
}

/// Times one closure invocation.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Times `iters` invocations, returning the mean duration.
pub fn time_mean(iters: usize, mut f: impl FnMut()) -> Duration {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed() / iters.max(1) as u32
}

/// Formats a duration in adaptive units.
pub fn fmt_dur(d: Duration) -> String {
    let n = d.as_nanos();
    if n < 10_000 {
        format!("{n} ns")
    } else if n < 10_000_000 {
        format!("{:.1} µs", n as f64 / 1_000.0)
    } else if n < 10_000_000_000 {
        format!("{:.1} ms", n as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", n as f64 / 1_000_000_000.0)
    }
}

/// Prints a header + aligned rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// An analysis session for the **deterministic** incremental parser — the
/// same text/lexer/damage glue as `wg_core::Session`, driving
/// [`IncLrParser`] instead of IGLR, so the two parsers can be compared on
/// identical edit streams (the paper's Section 5 protocol).
pub struct DetSession<'a> {
    config: &'a SessionConfig,
    text: String,
    arena: DagArena,
    root: NodeId,
    tokens: Vec<TokenAt>,
    token_nodes: Vec<NodeId>,
    /// Parser effort of the last reparse.
    pub last_stats: IncRunStats,
}

impl<'a> DetSession<'a> {
    /// Lexes and batch-parses `text` with the deterministic parser.
    ///
    /// # Panics
    ///
    /// Panics if the text does not lex/parse or the table has conflicts
    /// (bench-internal setup errors).
    pub fn new(config: &'a SessionConfig, text: &str) -> DetSession<'a> {
        let out = config.lexer().lex(text);
        assert!(out.errors.is_empty(), "bench input must lex");
        let term_of = |tok: &TokenAt| {
            config
                .grammar()
                .terminal_by_name(config.lexer().rule_name(tok.rule))
                .expect("token maps to terminal")
        };
        let parser =
            IncLrParser::new(config.grammar(), config.table()).expect("deterministic table");
        let mut arena = DagArena::new();
        let pairs: Vec<(wg_grammar::Terminal, String)> = out
            .tokens
            .iter()
            .map(|t| (term_of(t), t.lexeme(text).to_string()))
            .collect();
        let root = parser
            .parse_tokens(&mut arena, pairs.iter().map(|(t, s)| (*t, s.as_str())))
            .expect("bench input must parse");
        // The tree's terminals, in yield order, are exactly the tokens.
        let token_nodes = collect_terminals(&arena, root);
        debug_assert_eq!(token_nodes.len(), out.tokens.len());
        DetSession {
            config,
            text: text.to_string(),
            arena,
            root,
            tokens: out.tokens,
            token_nodes,
            last_stats: IncRunStats::default(),
        }
    }

    /// Applies one edit and immediately reparses incrementally.
    ///
    /// # Errors
    ///
    /// Returns the parser error if the edited text no longer parses.
    pub fn edit_and_reparse(
        &mut self,
        start: usize,
        removed: usize,
        insert: &str,
    ) -> Result<(), IncParseError> {
        let edit = Edit {
            start,
            removed,
            inserted: insert.len(),
        };
        let mut new_text = self.text.clone();
        new_text.replace_range(start..start + removed, insert);
        let relex = self.config.lexer().relex(&new_text, &self.tokens, edit);
        assert!(relex.errors.is_empty(), "bench edits must lex");

        let mut new_nodes = Vec::with_capacity(relex.new_tokens.len());
        for tok in &relex.new_tokens {
            let term = self
                .config
                .grammar()
                .terminal_by_name(self.config.lexer().rule_name(tok.rule))
                .expect("token maps to terminal");
            new_nodes.push(self.arena.terminal(term, tok.lexeme(&new_text)));
        }
        let first_changed = relex.kept_prefix;
        let changed_end = self.tokens.len() - relex.kept_suffix;
        let mut replacements: FxHashMap<NodeId, Vec<NodeId>> = FxHashMap::default();
        let mut appended: Vec<NodeId> = Vec::new();
        let mut suffix_clone = None;
        if first_changed < changed_end {
            for (i, &node) in self.token_nodes[first_changed..changed_end]
                .iter()
                .enumerate()
            {
                self.arena.mark_changed(node);
                replacements.insert(
                    node,
                    if i == 0 {
                        new_nodes.clone()
                    } else {
                        Vec::new()
                    },
                );
            }
        } else if !new_nodes.is_empty() {
            if relex.kept_suffix > 0 {
                let anchor = self.token_nodes[self.tokens.len() - relex.kept_suffix];
                let clone = match self.arena.kind(anchor).clone() {
                    NodeKind::Terminal { term, lexeme } => self.arena.terminal(term, &lexeme),
                    _ => unreachable!(),
                };
                self.arena.mark_changed(anchor);
                let mut reps = new_nodes.clone();
                reps.push(clone);
                replacements.insert(anchor, reps);
                suffix_clone = Some(clone);
            } else {
                appended = new_nodes.clone();
            }
        }
        if first_changed > 0 {
            self.arena
                .mark_following(self.token_nodes[first_changed - 1]);
        }

        let parser = IncLrParser::new(self.config.grammar(), self.config.table())
            .expect("deterministic table");
        let result = parser.reparse(&mut self.arena, self.root, replacements, &appended);
        self.arena.clear_changes();
        let stats = result?;
        self.last_stats = stats;

        self.text = new_text;
        self.tokens = self
            .config
            .lexer()
            .apply_relex(&self.tokens, &relex, edit.delta());
        let mut nodes = Vec::with_capacity(relex.kept_prefix + new_nodes.len() + relex.kept_suffix);
        nodes.extend_from_slice(&self.token_nodes[..relex.kept_prefix]);
        nodes.extend_from_slice(&new_nodes);
        nodes.extend_from_slice(&self.token_nodes[self.token_nodes.len() - relex.kept_suffix..]);
        if let Some(clone) = suffix_clone {
            nodes[relex.kept_prefix + new_nodes.len()] = clone;
        }
        self.token_nodes = nodes;
        // Incremental reclamation: dead slots go onto the free list, every
        // live NodeId (root, token nodes) stays valid — no remap.
        if self.arena.should_collect() {
            self.arena.collect_garbage(self.root);
        }
        Ok(())
    }

    /// Current text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The dag arena.
    pub fn arena(&self) -> &DagArena {
        &self.arena
    }

    /// The super-root.
    pub fn root(&self) -> NodeId {
        self.root
    }
}

/// Terminal nodes of the current tree, in yield order.
pub fn collect_terminals(arena: &DagArena, root: NodeId) -> Vec<NodeId> {
    fn rec(a: &DagArena, n: NodeId, out: &mut Vec<NodeId>) {
        match a.kind(n) {
            NodeKind::Terminal { .. } => out.push(n),
            NodeKind::Bos | NodeKind::Eos => {}
            NodeKind::Symbol { .. } => rec(a, a.kids(n)[0], out),
            _ => {
                for &k in a.kids(n) {
                    rec(a, k, out);
                }
            }
        }
    }
    let mut out = Vec::new();
    rec(arena, root, &mut out);
    out
}

/// One scripted textual edit of a workload stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditOp {
    /// Byte offset of the replaced range.
    pub start: usize,
    /// Bytes removed.
    pub removed: usize,
    /// Replacement text.
    pub insert: String,
}

/// A deterministic self-cancelling edit script over `text`: `count`
/// (mutate, restore) pairs at identifier sites chosen by `seed` — the
/// paper's Section 5 protocol, reusable across any number of documents.
///
/// Each pair restores the document byte-for-byte before the next pair
/// runs, so the precomputed offsets stay valid for the whole script and
/// identical scripts can be replayed against different parser stacks (or
/// different shards) for comparison.
pub fn self_cancelling_pairs(text: &str, count: usize, seed: u64) -> Vec<(EditOp, EditOp)> {
    wg_langs::generate::edit_sites(text, count, seed)
        .into_iter()
        .map(|(start, len)| {
            (
                EditOp {
                    start,
                    removed: len,
                    insert: "qqq".to_string(),
                },
                EditOp {
                    start,
                    removed: 3,
                    insert: text[start..start + len].to_string(),
                },
            )
        })
        .collect()
}

/// One document of a multi-document throughput workload.
#[derive(Debug, Clone)]
pub struct DocWorkload {
    /// Initial source text (parses with `simp_c_det`).
    pub text: String,
    /// The document's self-cancelling edit script.
    pub pairs: Vec<(EditOp, EditOp)>,
}

/// Generates `docs` independent documents of ~`lines` lines each with
/// `pairs` self-cancelling edit pairs per document. Every document gets a
/// distinct generator seed, so contents (and edit sites) differ while the
/// statistical shape matches — the sustained-editing workload of an
/// editor service with many open buffers.
pub fn doc_workloads(docs: usize, lines: usize, pairs: usize, seed: u64) -> Vec<DocWorkload> {
    use wg_langs::generate::{c_program, GenSpec};
    (0..docs)
        .map(|i| {
            let text = c_program(&GenSpec::sized(
                lines,
                0.0,
                seed ^ (i as u64).wrapping_mul(0x9E37_79B9),
            ))
            .text;
            let pairs = self_cancelling_pairs(&text, pairs, seed.wrapping_add(i as u64));
            DocWorkload { text, pairs }
        })
        .collect()
}

/// One operation of a read-mostly interactive stream (see
/// [`read_mostly_ops`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOp {
    /// Resolve the identifier at this byte offset (a `SemQuery::ResolveAt`).
    Query(usize),
    /// One self-cancelling (mutate, restore) edit pair.
    Pair(EditOp, EditOp),
}

/// A deterministic read-mostly operation stream over `text`: `ops`
/// operations of which every 20th is a self-cancelling edit pair and the
/// rest are identifier-site queries — the 95%-query / 5%-edit mix of an
/// IDE whose user is *reading* (hover, go-to-definition) far more than
/// typing. Pairs restore the text byte-for-byte, so all precomputed
/// offsets stay valid for the whole stream.
pub fn read_mostly_ops(text: &str, ops: usize, seed: u64) -> Vec<ReadOp> {
    read_mostly_ops_every(text, ops, seed, 20)
}

/// [`read_mostly_ops`] with an explicit edit period: every `period`-th
/// operation is a self-cancelling edit pair (period 20 = 5% edits,
/// period 10 = 10% edits). Same seed and same `ops` produce the same
/// sites, so halving the period doubles the edit rate while keeping the
/// query sites comparable — the knob the snapshot-isolation gate turns.
pub fn read_mostly_ops_every(text: &str, ops: usize, seed: u64, period: usize) -> Vec<ReadOp> {
    assert!(period >= 2, "a pure-edit stream is not read-mostly");
    let sites = wg_langs::generate::edit_sites(text, ops.max(1), seed);
    sites
        .iter()
        .enumerate()
        .map(|(i, &(start, len))| {
            if i % period == period / 2 - 1 {
                ReadOp::Pair(
                    EditOp {
                        start,
                        removed: len,
                        insert: "qqq".to_string(),
                    },
                    EditOp {
                        start,
                        removed: 3,
                        insert: text[start..start + len].to_string(),
                    },
                )
            } else {
                ReadOp::Query(start)
            }
        })
        .collect()
}

/// Tokenizes text against a session config (terminal, lexeme) — the input
/// shape the batch parsers take.
pub fn tokenize(config: &SessionConfig, text: &str) -> Vec<(wg_grammar::Terminal, String)> {
    let out = config.lexer().lex(text);
    assert!(out.errors.is_empty(), "bench input must lex");
    out.tokens
        .iter()
        .map(|t| {
            (
                config
                    .grammar()
                    .terminal_by_name(config.lexer().rule_name(t.rule))
                    .expect("token maps to terminal"),
                t.lexeme(text).to_string(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_langs::simp_c_det;

    #[test]
    fn det_session_roundtrip() {
        let cfg = simp_c_det();
        let mut s = DetSession::new(&cfg, "int alpha; alpha = 1; int beta;");
        let pos = s.text().find("alpha;").unwrap();
        s.edit_and_reparse(pos, 5, "gamma").unwrap();
        assert!(s.text().contains("gamma"));
        assert!(s.last_stats.terminal_shifts > 0);
        // Self-cancelling round.
        let pos = s.text().find("gamma").unwrap();
        s.edit_and_reparse(pos, 5, "alpha").unwrap();
        assert_eq!(s.text(), "int alpha; alpha = 1; int beta;");
    }

    #[test]
    fn det_session_many_edits_bounded() {
        let cfg = simp_c_det();
        let src: String = (0..50).map(|i| format!("int v{i} = {i};")).collect();
        let mut s = DetSession::new(&cfg, &src);
        for _ in 0..40 {
            let pos = s.text().find("v25").unwrap();
            s.edit_and_reparse(pos, 3, "vxx").unwrap();
            let pos = s.text().find("vxx").unwrap();
            s.edit_and_reparse(pos, 3, "v25").unwrap();
        }
        assert!(s.arena().len() < 10_000);
    }

    #[test]
    fn workloads_are_deterministic_and_self_cancelling() {
        let loads = doc_workloads(3, 40, 5, 7);
        assert_eq!(loads.len(), 3);
        assert_ne!(loads[0].text, loads[1].text, "distinct seeds per document");
        let again = doc_workloads(3, 40, 5, 7);
        assert_eq!(loads[1].text, again[1].text);
        assert_eq!(loads[1].pairs, again[1].pairs);
        for w in &loads {
            assert_eq!(w.pairs.len(), 5);
            // Applying each (mutate, restore) pair leaves the text intact,
            // so every pair's precomputed offsets stay valid.
            let mut text = w.text.clone();
            for (a, b) in &w.pairs {
                for op in [a, b] {
                    text.replace_range(op.start..op.start + op.removed, &op.insert);
                }
                assert_eq!(text, w.text);
            }
            // And the documents parse with the deterministic C config.
            wg_core::Session::new(&simp_c_det(), &w.text).expect("workload parses");
        }
    }

    #[test]
    fn read_mostly_ops_are_deterministic_and_mostly_queries() {
        let text = wg_langs::generate::c_program(&wg_langs::generate::GenSpec::sized(40, 0.0, 7))
            .text
            .clone();
        let ops = read_mostly_ops(&text, 100, 11);
        assert_eq!(
            ops,
            read_mostly_ops(&text, 100, 11),
            "same seed, same script"
        );
        let pairs: Vec<_> = ops
            .iter()
            .filter_map(|op| match op {
                ReadOp::Pair(a, b) => Some((a, b)),
                ReadOp::Query(_) => None,
            })
            .collect();
        assert_eq!(pairs.len(), 5, "1 edit pair per 20 ops (95% reads)");
        // Each pair is self-cancelling: mutate then restore leaves the text
        // byte-identical, so precomputed offsets stay valid under replay.
        for (a, b) in pairs {
            let mut t = text.clone();
            t.replace_range(a.start..a.start + a.removed, &a.insert);
            t.replace_range(b.start..b.start + b.removed, &b.insert);
            assert_eq!(t, text);
        }
        for op in &ops {
            if let ReadOp::Query(at) = op {
                assert!(*at < text.len(), "query offsets stay in bounds");
            }
        }
        // Halving the period doubles the edit rate over the same sites.
        let doubled = read_mostly_ops_every(&text, 100, 11, 10);
        let doubled_pairs = doubled
            .iter()
            .filter(|op| matches!(op, ReadOp::Pair(..)))
            .count();
        assert_eq!(doubled_pairs, 10, "1 edit pair per 10 ops (90% reads)");
    }

    #[test]
    fn helpers() {
        assert!(fmt_dur(Duration::from_nanos(50)).contains("ns"));
        assert!(fmt_dur(Duration::from_micros(50)).contains("µs"));
        assert!(fmt_dur(Duration::from_millis(50)).contains("ms"));
        assert!(fmt_dur(Duration::from_secs(50)).contains("s"));
        let (v, d) = time_once(|| 42);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
        let m = time_mean(3, || {});
        assert!(m.as_nanos() < 1_000_000);
    }
}
