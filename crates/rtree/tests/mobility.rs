//! Mobility-path tests for the packed tree: `update_entry` absorbs
//! moves as delta patches — in place while the new rectangle stays in
//! the slot's leaf subtree, tombstone + re-stage when it escapes, a
//! staged rewrite for delta-tier entries — and `validate()` catches a
//! stale curve key left behind by a corrupted in-place move.

use drtree_rtree::{DeltaRemoval, EntryUpdate, PackedRTree, PackedValidationError};
use drtree_spatial::reference::Reference;
use drtree_spatial::{Point, Rect};
use proptest::prelude::*;
use proptest::strategy::Just;

/// A 16×16 grid of 5×5 rectangles — big enough for a multi-level
/// packed tree, regular enough to reason about containment.
fn grid_entries() -> Vec<(usize, Rect<2>)> {
    let mut entries = Vec::new();
    for i in 0..16 {
        for j in 0..16 {
            let (x, y) = (i as f64 * 10.0, j as f64 * 10.0);
            entries.push((i * 16 + j, Rect::new([x, y], [x + 5.0, y + 5.0])));
        }
    }
    entries
}

fn center(rect: &Rect<2>) -> Point<2> {
    Point::new(*rect.center().coords())
}

#[test]
fn small_delta_moves_in_place() {
    let mut tree = PackedRTree::bulk_load(grid_entries());
    let (&key, &old) = tree.entry(10);
    // A shrink is contained in the old rectangle, hence in every
    // ancestor MBR — always eligible for the in-place path.
    let new = Rect::new(
        [old.lo(0) + 0.5, old.lo(1) + 0.5],
        [old.hi(0) - 0.5, old.hi(1) - 0.5],
    );
    assert_eq!(
        tree.update_entry(&key, &old, new),
        Some(EntryUpdate::InPlace { slot: 10 })
    );
    assert_eq!(tree.delta_len(), 0, "an in-place move adds no delta");
    assert_eq!(tree.len(), 256);
    assert!(tree.search_point(&center(&new)).contains(&&key));
    tree.validate().expect("in-place move keeps the tree valid");
}

#[test]
fn escaping_move_falls_back_to_tombstone_and_restage() {
    let mut tree = PackedRTree::bulk_load(grid_entries());
    let (&key, &old) = tree.entry(0);
    let new = Rect::new([1000.0, 1000.0], [1001.0, 1001.0]);
    assert_eq!(
        tree.update_entry(&key, &old, new),
        Some(EntryUpdate::Restaged {
            removal: DeltaRemoval::Tombstoned { slot: 0 },
            index: 0,
        })
    );
    assert_eq!(tree.tombstone_count(), 1);
    assert_eq!(tree.staged_len(), 1);
    assert_eq!(tree.len(), 256, "a move never changes the live count");
    assert!(!tree.search_point(&center(&old)).contains(&&key));
    assert!(tree.search_point(&center(&new)).contains(&&key));
    tree.validate().expect("fallback move keeps the tree valid");
}

#[test]
fn staged_entry_moves_by_rewrite() {
    let mut tree: PackedRTree<usize, 2> = PackedRTree::bulk_load(grid_entries());
    let old = Rect::new([300.0, 300.0], [301.0, 301.0]);
    let new = Rect::new([400.0, 400.0], [402.0, 402.0]);
    tree.stage_insert(999, old);
    assert_eq!(
        tree.update_entry(&999, &old, new),
        Some(EntryUpdate::Staged { index: 0 })
    );
    assert_eq!(tree.staged_len(), 1, "a staged move rewrites, not appends");
    assert!(tree.search_point(&center(&new)).contains(&&999));
    assert!(!tree.search_point(&center(&old)).contains(&&999));
    tree.validate()
        .expect("staged rewrite keeps the tree valid");
}

#[test]
fn moving_a_missing_entry_is_none_and_harmless() {
    let mut tree = PackedRTree::bulk_load(grid_entries());
    let phantom = Rect::new([1.0, 1.0], [2.0, 2.0]);
    let new = Rect::new([3.0, 3.0], [4.0, 4.0]);
    assert_eq!(tree.update_entry(&777, &phantom, new), None);
    assert_eq!(tree.delta_len(), 0);
    assert_eq!(tree.len(), 256);
    tree.validate().expect("a failed move changes nothing");
}

#[test]
fn mid_freeze_moves_never_mutate_the_frozen_core_in_place() {
    let mut tree = PackedRTree::bulk_load(grid_entries());
    let staged_old = Rect::new([500.0, 500.0], [501.0, 501.0]);
    tree.stage_insert(500, staged_old);
    let frozen = tree.freeze();

    // A packed-slot move mid-freeze must not go in place (the merge
    // already snapshotted the core), even though the new rectangle
    // stays inside its leaf subtree.
    let (&key, &old) = tree.entry(20);
    let shrunk = Rect::new(
        [old.lo(0) + 1.0, old.lo(1) + 1.0],
        [old.hi(0) - 1.0, old.hi(1) - 1.0],
    );
    assert_eq!(
        tree.update_entry(&key, &old, shrunk),
        Some(EntryUpdate::Restaged {
            removal: DeltaRemoval::Tombstoned { slot: 20 },
            index: 1,
        })
    );

    // A frozen staged entry is retired in place and re-staged past the
    // frozen prefix — its index is owed to the install fixups.
    let staged_new = Rect::new([600.0, 600.0], [601.0, 601.0]);
    assert_eq!(
        tree.update_entry(&500, &staged_old, staged_new),
        Some(EntryUpdate::Restaged {
            removal: DeltaRemoval::Retired { index: 0 },
            index: 2,
        })
    );
    tree.validate()
        .expect("mid-freeze moves keep the tree valid");

    tree.install(frozen.merge());
    tree.validate()
        .expect("install reconciles mid-freeze moves");
    assert_eq!(tree.len(), 257);
    assert!(tree.search_point(&center(&shrunk)).contains(&&key));
    // A corner inside the old rectangle but outside the shrunk one.
    let old_corner = Point::new([old.lo(0) + 0.25, old.lo(1) + 0.25]);
    assert!(!tree.search_point(&old_corner).contains(&&key));
    assert!(tree.search_point(&center(&staged_new)).contains(&&500));
    assert!(!tree.search_point(&center(&staged_old)).contains(&&500));
}

#[test]
fn validate_flags_a_stale_curve_key_after_a_corrupted_move() {
    // The regression the detector exists for: an in-place move that
    // rewrote the rectangle but skipped the curve-key re-derivation
    // would leave the entry mis-sorted for the next sorted-splice
    // merge. Simulate exactly that corruption and demand `validate`
    // names the slot.
    let mut tree = PackedRTree::bulk_load(grid_entries());
    tree.validate().expect("fresh bulk load is valid");
    tree.debug_corrupt_curve_key(3);
    assert_eq!(
        tree.validate(),
        Err(PackedValidationError::StaleCurveKey { slot: 3 })
    );
}

#[derive(Debug, Clone)]
enum MobOp {
    Insert(Rect<2>),
    MoveNth(usize, Rect<2>),
    RemoveNth(usize),
    Compact,
    Probe(Point<2>),
}

fn arb_rect() -> impl Strategy<Value = Rect<2>> {
    (0.0f64..150.0, 0.0f64..150.0, 0.1f64..20.0, 0.1f64..20.0)
        .prop_map(|(x, y, w, h)| Rect::new([x, y], [x + w, y + h]))
}

fn arb_mob_op() -> impl Strategy<Value = MobOp> {
    prop_oneof![
        2 => arb_rect().prop_map(MobOp::Insert),
        4 => ((0usize..128), arb_rect()).prop_map(|(n, r)| MobOp::MoveNth(n, r)),
        1 => (0usize..128).prop_map(MobOp::RemoveNth),
        1 => Just(MobOp::Compact),
        3 => (0.0f64..180.0, 0.0f64..180.0)
            .prop_map(|(x, y)| MobOp::Probe(Point::new([x, y]))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random interleavings of moves, inserts, removes and
    /// compactions: after every operation the tree validates (delta
    /// invariants *and* curve-key freshness), and every probe's hit set
    /// equals the reference's.
    #[test]
    fn random_move_sequences_stay_exact_and_valid(
        seed_entries in prop::collection::vec(arb_rect(), 8..64),
        ops in prop::collection::vec(arb_mob_op(), 1..80),
    ) {
        let mut next_key = seed_entries.len();
        let mut model: Reference<usize, 2> = seed_entries.into_iter().enumerate().collect();
        let mut tree = PackedRTree::bulk_load(model.entries().to_vec());

        for op in ops {
            match op {
                MobOp::Insert(r) => {
                    tree.stage_insert(next_key, r);
                    model.insert(next_key, r);
                    next_key += 1;
                }
                MobOp::MoveNth(n, new) => {
                    if let Some((k, old)) = model.move_nth(n, new) {
                        prop_assert!(
                            tree.update_entry(&k, &old, new).is_some(),
                            "model entry {k} must be movable"
                        );
                    }
                }
                MobOp::RemoveNth(n) => {
                    if let Some((k, r)) = model.remove_nth(n) {
                        prop_assert!(tree.remove_entry(&k, &r).is_some());
                    }
                }
                MobOp::Compact => {
                    tree.compact();
                }
                MobOp::Probe(p) => {
                    let mut got: Vec<usize> =
                        tree.search_point(&p).into_iter().copied().collect();
                    got.sort_unstable();
                    prop_assert_eq!(got, model.matching(&p));
                }
            }
            prop_assert_eq!(tree.len(), model.len());
            prop_assert!(tree.validate().is_ok(), "invalid after {:?}", tree.validate());
        }
    }
}
