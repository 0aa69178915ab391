//! Differential oracle for the incremental semantic pass.
//!
//! Random edit scripts — identifier renames, typedef insertion, removal,
//! and renames, and new ambiguous statements — run against a live
//! [`SemState`] attached to a session. After every incorporated reparse
//! the incremental state must equal what batch [`analyze`] computes from
//! scratch on the same tree. A long self-cancelling soak additionally
//! checks that contour slots do not leak: the count stays bounded by the
//! number of live blocks. The name queries (`info_at`, `uses_of`) of the
//! live session and of a published snapshot are held to the same batch
//! oracle at every identifier.

use proptest::prelude::*;
use wg_core::Session;
use wg_dag::NodeId;
use wg_langs::generate::{c_program, edit_sites, identifier_sites, GenSpec};
use wg_langs::simp_c;
use wg_sem::{analyze, SemSnapshot, SemState, Strictness};

fn attach(s: &mut Session) {
    let pass = SemState::new(s.config().grammar(), Strictness::RequireBinding);
    s.attach_semantics(Box::new(pass));
}

fn state(s: &Session) -> &SemState {
    s.semantics()
        .expect("semantics attached")
        .as_any()
        .downcast_ref::<SemState>()
        .expect("concrete pass is SemState")
}

fn assert_matches_batch(s: &Session, context: &str) {
    let batch = analyze(
        s.arena(),
        s.root(),
        s.config().grammar(),
        Strictness::RequireBinding,
    );
    assert_eq!(
        state(s).snapshot(s.arena()),
        SemSnapshot::of_batch(&batch),
        "incremental state diverged from the batch oracle after {context}\ntext:\n{}",
        s.text()
    );
}

/// One step of an edit script, interpreted against the current text.
#[derive(Debug, Clone)]
enum Op {
    /// Replace the `n`-th identifier occurrence with a fresh name.
    Rename(usize),
    /// Replace the `n`-th identifier occurrence with a typedef'd name (if
    /// one exists), turning a plain use into a type-name use.
    RenameToType(usize),
    /// Insert a `typedef int …;` declaration at the `n`-th line boundary.
    AddTypedef(usize),
    /// Delete the `n`-th `typedef … ;` declaration outright.
    RemoveTypedef(usize),
    /// Rename the name *introduced by* the `n`-th typedef declaration,
    /// stranding its old uses and capturing any uses of the new name.
    RenameTypedef(usize),
    /// Insert an ambiguous `head (obj);` statement whose head is the
    /// `n`-th typedef'd name (declaration reading) or a fresh one (call).
    AddAmbiguous(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..256).prop_map(Op::Rename),
        (0usize..256).prop_map(Op::RenameToType),
        (0usize..256).prop_map(Op::AddTypedef),
        (0usize..256).prop_map(Op::RemoveTypedef),
        (0usize..256).prop_map(Op::RenameTypedef),
        (0usize..256).prop_map(Op::AddAmbiguous),
    ]
}

/// Byte ranges of whole `typedef … ;` declarations in `text`.
fn typedef_decls(text: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(i) = text[from..].find("typedef") {
        let start = from + i;
        let Some(j) = text[start..].find(';') else {
            break;
        };
        out.push((start, j + 1));
        from = start + j + 1;
    }
    out
}

/// The name bound by the typedef declaration at `text[start..start+len]`.
fn typedef_name(text: &str, start: usize, len: usize) -> (usize, usize) {
    let decl = &text[start..start + len];
    let inner = decl["typedef".len()..].trim_start();
    let off = decl.len() - inner.len();
    let inner = inner["int".len()..].trim_start();
    let off = off + (decl.len() - off - inner.len()) - "typedef".len();
    let name_len = inner
        .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .unwrap_or(inner.len());
    (start + "typedef".len() + off, name_len)
}

/// Applies `op` to the session's current text; returns a description of
/// what happened, or `None` if the op had no target (skipped).
fn apply_op(s: &mut Session, op: &Op, serial: usize) -> Option<String> {
    let text = s.text().to_string();
    let (start, len, repl) = match op {
        Op::Rename(n) => {
            let sites = identifier_sites(&text);
            let (start, len) = *sites.get(n % sites.len().max(1))?;
            (start, len, format!("q{serial}"))
        }
        Op::RenameToType(n) => {
            let decls = typedef_decls(&text);
            let (ds, dl) = *decls.get(n % decls.len().max(1))?;
            let (ns, nl) = typedef_name(&text, ds, dl);
            let tname = text[ns..ns + nl].to_string();
            let sites = identifier_sites(&text);
            let (start, len) = *sites.get(n % sites.len().max(1))?;
            (start, len, tname)
        }
        Op::AddTypedef(n) => {
            let bounds: Vec<usize> = text
                .char_indices()
                .filter(|&(_, c)| c == '\n')
                .map(|(i, _)| i + 1)
                .collect();
            let at = *bounds.get(n % bounds.len().max(1))?;
            (at, 0, format!("typedef int td{serial};\n"))
        }
        Op::RemoveTypedef(n) => {
            let decls = typedef_decls(&text);
            let (start, len) = *decls.get(n % decls.len().max(1))?;
            (start, len, String::new())
        }
        Op::RenameTypedef(n) => {
            let decls = typedef_decls(&text);
            let (ds, dl) = *decls.get(n % decls.len().max(1))?;
            let (start, len) = typedef_name(&text, ds, dl);
            (start, len, format!("td{serial}"))
        }
        Op::AddAmbiguous(n) => {
            let decls = typedef_decls(&text);
            let head = decls
                .get(n % decls.len().max(1))
                .map(|&(ds, dl)| {
                    let (ns, nl) = typedef_name(&text, ds, dl);
                    text[ns..ns + nl].to_string()
                })
                .unwrap_or_else(|| format!("fr{serial}"));
            let bounds: Vec<usize> = text
                .char_indices()
                .filter(|&(_, c)| c == '\n')
                .map(|(i, _)| i + 1)
                .collect();
            let at = *bounds.get(n % bounds.len().max(1))?;
            (at, 0, format!("{head} (obj{serial});\n"))
        }
    };
    s.edit(start, len, &repl);
    Some(format!("{op:?} at {start}..{} -> {repl:?}", start + len))
}

/// Checks the name queries of the live session and of a freshly published
/// snapshot against batch [`analyze`] of the same tree: `uses_of` for
/// every identifier in the text (and one absent name), and at every
/// identifier offset the fields batch analysis can answer — the reference
/// count of the reported name, whether the path crosses a choice point,
/// and whether the innermost one has a selection.
fn assert_queries_match_batch(s: &mut Session, context: &str) {
    let batch = analyze(
        s.arena(),
        s.root(),
        s.config().grammar(),
        Strictness::RequireBinding,
    );
    let snap = s.publish();
    let text = s.text();
    let sites = identifier_sites(&text);
    let mut names: Vec<&str> = sites.iter().map(|&(a, l)| &text[a..a + l]).collect();
    names.sort_unstable();
    names.dedup();
    names.push("no_such_name");
    for name in names {
        let mut want: Vec<NodeId> = batch.uses_of(name).to_vec();
        want.sort_by_key(|n| n.index());
        assert_eq!(
            s.semantic_uses_of(name),
            want,
            "live uses_of({name}) after {context}"
        );
        assert_eq!(
            snap.uses_of(name),
            want,
            "snapshot uses_of({name}) after {context}"
        );
    }
    let choice_point = |n: &NodeId| batch.selection(*n).is_some() || batch.persistent.contains(n);
    for &(at, len) in &sites {
        let path = s.node_path_at(at);
        if path.is_empty() {
            continue; // not a token of this grammar (e.g. a preprocessor line)
        }
        let word = &text[at..at + len];
        let info = s
            .semantic_info_at(at)
            .unwrap_or_else(|| panic!("no answer for `{word}` at {at} after {context}"));
        assert_eq!(
            snap.info_at(at).as_ref(),
            Some(&info),
            "snapshot info_at({at}) after {context}"
        );
        assert_eq!(
            info.uses,
            batch.uses_of(&info.name).len(),
            "reference count of `{}` at {at} (`{word}`) after {context}",
            info.name
        );
        let choice = path.iter().rev().find(|n| choice_point(n));
        assert_eq!(
            info.ambiguous,
            choice.is_some(),
            "ambiguity at {at} (`{word}`) after {context}"
        );
        if let Some(c) = choice {
            assert_eq!(
                info.resolved,
                batch.selection(*c).is_some(),
                "resolution at {at} (`{word}`) after {context}"
            );
            if batch.persistent.contains(c) {
                assert!(!info.resolved, "persistent choice reported resolved");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After every step of a random edit script the incremental state
    /// equals a from-scratch batch analysis of the same tree.
    #[test]
    fn edit_scripts_match_batch_oracle(
        seed in 0u64..512,
        lines in 12usize..48,
        ops in proptest::collection::vec(op_strategy(), 1..10),
    ) {
        let cfg = simp_c();
        let program = c_program(&GenSpec {
            typedef_rate: 0.1,
            ..GenSpec::sized(lines, 0.25, seed)
        });
        let mut s = Session::new(&cfg, &program.text).unwrap();
        attach(&mut s);
        assert_matches_batch(&s, "the initial build");
        for (i, op) in ops.iter().enumerate() {
            let Some(desc) = apply_op(&mut s, op, i) else {
                continue;
            };
            let out = s.reparse().unwrap();
            prop_assert!(out.incorporated, "edit not incorporated: {desc}");
            assert_matches_batch(&s, &desc);
        }
    }

    /// After every step of a random edit script the name queries answer
    /// what batch analysis of the same tree answers.
    #[test]
    fn edit_scripts_answer_queries_like_batch_oracle(
        seed in 0u64..512,
        lines in 8usize..32,
        ops in proptest::collection::vec(op_strategy(), 1..8),
    ) {
        let cfg = simp_c();
        let program = c_program(&GenSpec {
            typedef_rate: 0.1,
            ..GenSpec::sized(lines, 0.25, seed)
        });
        let mut s = Session::new(&cfg, &program.text).unwrap();
        attach(&mut s);
        assert_queries_match_batch(&mut s, "the initial build");
        for (i, op) in ops.iter().enumerate() {
            let Some(desc) = apply_op(&mut s, op, i) else {
                continue;
            };
            let out = s.reparse().unwrap();
            prop_assert!(out.incorporated, "edit not incorporated: {desc}");
            assert_queries_match_batch(&mut s, &desc);
        }
    }
}

/// 10k-edit soak: self-cancelling rename pairs with periodic typedef
/// add/remove churn. The incremental state must stay equal to the batch
/// oracle and the contour table must not leak slots — its size stays
/// bounded by the number of live blocks (plus slack for slots that are
/// kept until the next garbage collection lets them be pruned).
#[test]
fn soak_contours_bounded_by_live_blocks() {
    let cfg = simp_c();
    let program = c_program(&GenSpec {
        typedef_rate: 0.05,
        funcdef_rate: 0.1,
        ..GenSpec::sized(150, 0.2, 11)
    });
    let mut s = Session::new(&cfg, &program.text).unwrap();
    attach(&mut s);
    let sites = edit_sites(&program.text, 64, 23);
    let typedef_at = program.text.find('\n').unwrap() + 1;

    let mut edits = 0usize;
    let mut pair = 0usize;
    while edits < 10_000 {
        if pair % 16 == 15 {
            // Typedef churn: add one after the include line, then remove it.
            let decl = format!("typedef int soak{pair};\n");
            s.edit(typedef_at, 0, &decl);
            assert!(s.reparse().unwrap().incorporated);
            s.edit(typedef_at, decl.len(), "");
            assert!(s.reparse().unwrap().incorporated);
        } else {
            // Self-cancelling rename: the text returns to the original
            // after each pair, so the precomputed sites stay valid.
            let (start, len) = sites[pair % sites.len()];
            let original = s.text()[start..start + len].to_string();
            s.edit(start, len, "qq");
            assert!(s.reparse().unwrap().incorporated);
            s.edit(start, 2, &original);
            assert!(s.reparse().unwrap().incorporated);
        }
        edits += 2;
        pair += 1;
        if edits.is_multiple_of(2_000) {
            assert_matches_batch(&s, &format!("{edits} soak edits"));
        }
    }
    assert_matches_batch(&s, "the full soak");

    let live_blocks = s.text().matches('{').count();
    let contours = state(&s).contour_count();
    assert!(
        contours <= live_blocks + 64,
        "contour table leaked: {contours} contours for {live_blocks} live blocks"
    );
}
