//! Semantic query integration tests: `Workspace::query` answers on the
//! caller's thread from the document's published snapshot (dag, token
//! tape and frozen semantic view), stays consistent across edits, records
//! its service time in the workspace metrics, and names the document's
//! state when it cannot answer.

use wg_core::SemNameKind;
use wg_langs::simp_c;
use wg_workspace::{DocId, EditReq, SemAnswer, SemQuery, Workspace, WorkspaceError};

#[test]
fn resolve_uses_and_ambiguity_queries_answer_from_the_snapshot() {
    let cfg = simp_c();
    let ws = Workspace::new(2, 16);
    let text = "typedef int t; t (x); int v; v = v + 1;";
    let doc = ws.open_with_semantics(&cfg, text).unwrap();

    // Resolve the last use of `v`.
    let off = text.rfind('v').unwrap();
    match ws.query(doc, SemQuery::ResolveAt(off)).unwrap() {
        SemAnswer::Resolution(Some(info)) => {
            assert_eq!(info.name, "v");
            assert_eq!(info.kind, Some(SemNameKind::Variable));
            assert!(info.resolved);
        }
        other => panic!("expected a resolution, got {other:?}"),
    }

    // Def-use index.
    match ws.query(doc, SemQuery::UsesOf("v".to_string())).unwrap() {
        SemAnswer::Uses(sites) => assert_eq!(sites.len(), 2),
        other => panic!("expected use sites, got {other:?}"),
    }

    // The `t (x)` construct is ambiguous and (with `t` bound) resolved.
    let toff = text.find("t (x)").unwrap();
    match ws.query(doc, SemQuery::AmbiguityAt(toff)).unwrap() {
        SemAnswer::Ambiguity(ambiguous, resolved) => {
            assert!(ambiguous);
            assert!(resolved);
        }
        other => panic!("expected ambiguity status, got {other:?}"),
    }

    let m = ws.shutdown();
    assert_eq!(m.queries, 3);
}

#[test]
fn queries_track_edits_through_the_incremental_pass() {
    let cfg = simp_c();
    let ws = Workspace::new(1, 16);
    let text = "typedef int t; int t2; t (x);";
    let doc = ws.open_with_semantics(&cfg, text).unwrap();

    let toff = text.find("t (x)").unwrap();
    match ws.query(doc, SemQuery::AmbiguityAt(toff)).unwrap() {
        SemAnswer::Ambiguity(true, resolved) => assert!(resolved),
        other => panic!("expected resolved ambiguity, got {other:?}"),
    }

    // Removing the typedef upstream flips the retained alternative; the
    // query must observe the post-edit facts without any re-walk.
    let reports = ws.apply(vec![(
        doc,
        vec![EditReq::replace(0, "typedef int t;".len(), "int t;")],
    )]);
    let outcome = reports[0].result.as_ref().unwrap();
    assert!(outcome.incorporated);
    assert!(
        outcome.last_report.sem_flips >= 1,
        "typedef removal must flip in place: {:?}",
        outcome.last_report
    );

    let new_text = ws.text(doc).unwrap();
    let toff = new_text.find("t (x)").unwrap();
    match ws.query(doc, SemQuery::ResolveAt(toff)).unwrap() {
        SemAnswer::Resolution(Some(info)) => {
            assert_eq!(info.name, "t");
            assert_eq!(info.kind, Some(SemNameKind::Variable));
            assert!(info.ambiguous);
        }
        other => panic!("expected the flipped head, got {other:?}"),
    }
    ws.shutdown();
}

#[test]
fn query_without_semantics_is_refused() {
    let cfg = simp_c();
    let ws = Workspace::new(1, 16);
    let doc = ws.open_with(&cfg, "int a;").unwrap();
    match ws.query(doc, SemQuery::ResolveAt(4)) {
        Err(WorkspaceError::NoSemantics(d)) => assert_eq!(d, doc),
        other => panic!("expected NoSemantics, got {other:?}"),
    }
    ws.shutdown();
}

#[test]
fn query_latency_lands_in_workspace_metrics() {
    let cfg = simp_c();
    let ws = Workspace::new(1, 16);
    let doc = ws.open_with_semantics(&cfg, "int a; a = a;").unwrap();
    for _ in 0..8 {
        ws.query(doc, SemQuery::UsesOf("a".to_string())).unwrap();
    }
    let m = ws.metrics();
    assert_eq!(m.queries, 8);
    assert!(
        m.query_p50 > std::time::Duration::ZERO,
        "query service time must be recorded"
    );
    assert!(m.query_p99 >= m.query_p50);
    ws.shutdown();
}

/// Every query kind, for the error-state checks.
fn all_queries() -> [SemQuery; 3] {
    [
        SemQuery::ResolveAt(4),
        SemQuery::UsesOf("a".to_string()),
        SemQuery::AmbiguityAt(4),
    ]
}

#[test]
fn queries_answer_errors_for_unknown_closed_poisoned_and_plain_documents() {
    let cfg = simp_c();
    let ws = Workspace::new(2, 16);

    // Never opened.
    let ghost = DocId(1 << 40);
    for q in all_queries() {
        assert_eq!(ws.query(ghost, q), Err(WorkspaceError::UnknownDoc(ghost)));
    }

    // Opened with semantics, then closed.
    let closed = ws.open_with_semantics(&cfg, "int a; a = a;").unwrap();
    assert!(ws.close(closed));
    for q in all_queries() {
        assert_eq!(ws.query(closed, q), Err(WorkspaceError::UnknownDoc(closed)));
    }

    // Poisoned by an out-of-range edit: the panic kills the session, the
    // tombstone keeps answering.
    let victim = ws.open_with_semantics(&cfg, "int a; a = a;").unwrap();
    let r = ws.apply(vec![(victim, vec![EditReq::replace(1 << 30, 1, "x")])]);
    assert_eq!(r[0].result, Err(WorkspaceError::Poisoned(victim)));
    for q in all_queries() {
        assert_eq!(ws.query(victim, q), Err(WorkspaceError::Poisoned(victim)));
    }

    // Opened without a semantic pass.
    let plain = ws.open_with(&cfg, "int a; a = a;").unwrap();
    for q in all_queries() {
        assert_eq!(ws.query(plain, q), Err(WorkspaceError::NoSemantics(plain)));
    }

    // A healthy document beside them still answers.
    let live = ws.open_with_semantics(&cfg, "int a; a = a;").unwrap();
    match ws.query(live, SemQuery::UsesOf("a".to_string())).unwrap() {
        SemAnswer::Uses(sites) => assert_eq!(sites.len(), 2),
        other => panic!("expected use sites, got {other:?}"),
    }

    let m = ws.shutdown();
    assert_eq!(m.queries, 1, "refused queries are not counted as answered");
    assert_eq!(m.snapshot_reads, m.queries);
    assert_eq!(m.docs_poisoned, 1);
}
