//! Publish differential over `full_c` edit scripts: a session edits,
//! reparses and publishes after every step while a random subset of its
//! snapshots is held across later publishes. Every held snapshot must keep
//! the dag image captured at its own publish, every new snapshot must equal
//! the live arena, and publish work must stay proportional to the edit.

use std::collections::HashSet;
use std::sync::Arc;
use wg_core::{Session, Snapshot};
use wg_dag::{DagRead, NodeId, NodeKind};
use wg_langs::full_c;
use wg_langs::generate::{edit_script, full_c_program, identifier_sites, GenSpec};

/// The snapshot-visible state of every node reachable from `root`, in
/// depth-first order (slot ids are opaque outside wg-dag, so the walk
/// covers what a reader can reach).
type Image = Vec<(NodeId, NodeKind, NodeId, Vec<NodeId>, u32, bool)>;

fn image(d: &dyn DagRead, root: NodeId) -> Image {
    let mut seen = HashSet::new();
    let mut stack = vec![root];
    let mut out = Vec::new();
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        let kids = d.kids(id).to_vec();
        stack.extend(kids.iter().rev());
        out.push((
            id,
            d.kind(id).clone(),
            d.parent(id),
            kids,
            d.width(id),
            d.is_live(id),
        ));
    }
    out
}

#[test]
fn held_snapshots_keep_their_images_across_full_c_edits() {
    let cfg = full_c();
    let text = full_c_program(&GenSpec::sized(150, 0.02, 5)).text;
    let mut s = Session::new(&cfg, &text).expect("generated program parses");
    let mut held: Vec<(Arc<Snapshot>, Image)> = Vec::new();
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    let mut roll = |n: u64| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng % n
    };
    let (mut in_place, mut copy_path) = (0, 0);
    for (step, e) in edit_script(&text, 40, 5).iter().enumerate() {
        s.edit(e.at, e.remove, &e.insert);
        s.reparse().expect("reparse is infallible");
        let readers = s.arena().live_pins();
        let copied = s.arena().publish_copied_chunks();
        let snap = s.publish();
        let copies = s.arena().publish_copied_chunks() - copied;
        if readers == 0 {
            assert_eq!(copies, 0, "step {step}: copied a chunk with no reader");
            in_place += 1;
        } else {
            copy_path += u32::from(copies > 0);
        }
        let now = image(s.arena(), s.root());
        assert!(
            image(snap.dag(), snap.root()) == now,
            "step {step}: snapshot differs from arena"
        );
        for (i, (old, img)) in held.iter().enumerate() {
            assert!(
                image(old.dag(), old.root()) == *img,
                "step {step}: held snapshot {i} changed"
            );
        }
        if roll(3) == 0 && held.len() < 4 {
            held.push((snap, now));
        }
        if !held.is_empty() && roll(3) == 0 {
            held.swap_remove(roll(held.len() as u64) as usize);
        }
    }
    assert!(in_place > 0, "no publish ran the in-place path");
    assert!(copy_path > 0, "no publish ran the copy path");
}

#[test]
fn one_token_publish_work_is_bounded() {
    let cfg = full_c();
    let text = full_c_program(&GenSpec::sized(300, 0.0, 9)).text;
    let mut s = Session::new(&cfg, &text).expect("generated program parses");
    let (at, len) = identifier_sites(&text)[40];
    let original = text[at..at + len].to_string();
    // Warm up so the free list feeds every rename, then measure one.
    for _ in 0..4 {
        for (remove, name) in [(len, "renamed_y"), (9, original.as_str())] {
            s.edit(at, remove, name);
            assert!(s.reparse().expect("reparse is infallible").incorporated);
            drop(s.publish());
        }
    }
    let nodes = s.arena().len() as u64;
    let chunks = nodes.div_ceil(256);
    let (patched, copied) = (
        s.arena().publish_patched_slots(),
        s.arena().publish_copied_chunks(),
    );
    s.edit(at, len, "renamed_y");
    assert!(s.reparse().expect("reparse is infallible").incorporated);
    let reader = s.publish();
    let patched = s.arena().publish_patched_slots() - patched;
    assert_eq!(
        s.arena().publish_copied_chunks(),
        copied,
        "no reader, no copy"
    );
    assert!(
        patched > 0 && patched * 50 < nodes,
        "patched {patched} of {nodes} slots"
    );

    // With `reader` held, the next publish copies only chunks it dirtied.
    let copied = s.arena().publish_copied_chunks();
    let patched = s.arena().publish_patched_slots();
    s.edit(at, 9, &original);
    assert!(s.reparse().expect("reparse is infallible").incorporated);
    drop(s.publish());
    let copies = s.arena().publish_copied_chunks() - copied;
    let patched = s.arena().publish_patched_slots() - patched;
    assert!(
        copies > 0 && copies <= patched,
        "copied {copies} chunks for {patched} slots"
    );
    assert!(copies * 4 < chunks, "copied {copies} of {chunks} chunks");
    drop(reader);
}
