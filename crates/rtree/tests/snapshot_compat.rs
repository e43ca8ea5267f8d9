//! The snapshot format is a contract with buffers already at rest:
//! every byte the default layout ever wrote must load and re-save
//! unchanged, and the two retired layout experiments (f32-quantized
//! interior MBRs, cache-line-padded fanout) must be refused with a
//! typed error — never served, never a panic. Compaction is pinned the
//! same way: whatever merge algorithm runs, the compacted tree saves
//! to the bytes a full rebuild of its live entries wrote.

use std::sync::Arc;

use drtree_rtree::bytes::checksum;
use drtree_rtree::{AlignedBytes, PackedRTree, SnapshotError};
use drtree_spatial::{Point, Rect};

/// A deterministic mid-churn tree: 1,000 jittered boxes packed, 37
/// staged, every seventh packed entry tombstoned — all three snapshot
/// sections (core, staged delta, tombstone bitmap) non-empty.
fn mid_churn_tree() -> PackedRTree<usize, 2> {
    let entries: Vec<(usize, Rect<2>)> = (0..1_000usize)
        .map(|i| {
            let x = (i % 32) as f64 * 3.0;
            let y = (i / 32) as f64 * 3.0;
            let jitter = ((i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407)
                >> 33) as f64
                / (1u64 << 31) as f64;
            (i, Rect::new([x, y], [x + 1.0 + jitter, y + 2.0 - jitter]))
        })
        .collect();
    let mut tree = PackedRTree::bulk_load(entries.clone());
    for i in 0..37usize {
        let x = 200.0 + i as f64;
        tree.stage_insert(10_000 + i, Rect::new([x, x], [x + 1.5, x + 1.5]));
    }
    for (key, rect) in entries.iter().step_by(7) {
        tree.remove_entry(key, rect).expect("packed entry exists");
    }
    tree
}

/// Length and [`checksum`] of `mid_churn_tree().save()`, captured at
/// the commit before the layout flags were retired.
const PINNED_LEN: usize = 48_192;
const PINNED_DIGEST: u64 = 13_402_976_257_264_479_049;

#[test]
fn default_layout_bytes_match_the_pinned_digest_and_resave_identically() {
    let bytes = mid_churn_tree().save();
    assert_eq!(
        (bytes.len(), checksum(&bytes)),
        (PINNED_LEN, PINNED_DIGEST),
        "save() no longer writes the bytes it always wrote"
    );
    let loaded = PackedRTree::<usize, 2>::load_verified(bytes.clone()).expect("loads");
    let resaved = loaded.save();
    assert_eq!(resaved, bytes, "load → save must be the identity on bytes");
    let again = PackedRTree::<usize, 2>::load(resaved)
        .expect("loads")
        .save();
    assert_eq!(again, bytes, "load(save(load(b))) == b");
}

/// A delta that stays inside the packed world: 64 × 64 unit boxes
/// packed, 200 boxes staged strictly inside, every fifth interior
/// packed entry tombstoned. The live entries span exactly the packed
/// world, so compaction merges by sorted splice instead of re-sorting.
fn in_world_tree() -> PackedRTree<usize, 2> {
    let entries: Vec<(usize, Rect<2>)> = (0..4_096usize)
        .map(|i| {
            let x = (i % 64) as f64 * 2.0;
            let y = (i / 64) as f64 * 2.0;
            (i, Rect::new([x, y], [x + 1.0, y + 1.0]))
        })
        .collect();
    let mut tree = PackedRTree::bulk_load(entries.clone());
    for i in 0..200usize {
        let x = 10.0 + (i % 20) as f64 * 5.3;
        let y = 10.0 + (i / 20) as f64 * 9.1;
        tree.stage_insert(10_000 + i, Rect::new([x, y], [x + 0.5, y + 0.5]));
    }
    for (key, rect) in entries.iter().step_by(5) {
        let interior = (0..2).all(|d| rect.lo(d) > 0.0 && rect.hi(d) < 127.0);
        if interior {
            tree.remove_entry(key, rect).expect("packed entry exists");
        }
    }
    tree
}

/// Length and [`checksum`] of `save()` after `compact()` on each
/// fixture, captured when compaction still re-bulk-loaded every live
/// entry: the merge that replaced it must write the same bytes, on the
/// re-sort path (`mid_churn_tree`, whose world shrinks and grows) and
/// on the splice path (`in_world_tree`).
const COMPACTED_MID_CHURN: (usize, u64) = (41_600, 16_789_237_551_319_808_589);
const COMPACTED_IN_WORLD: (usize, u64) = (163_072, 3_395_689_282_256_015_545);

#[test]
fn compaction_writes_the_bytes_a_full_rebuild_wrote() {
    for (mut tree, pinned, what) in [
        (mid_churn_tree(), COMPACTED_MID_CHURN, "mid-churn"),
        (in_world_tree(), COMPACTED_IN_WORLD, "in-world"),
    ] {
        let live = tree.len();
        let stats = tree.compact();
        assert!(!stats.is_noop(), "{what}: the fixture carries a delta");
        assert_eq!((tree.len(), tree.delta_len()), (live, 0), "{what}");
        let bytes = tree.save();
        assert_eq!((bytes.len(), checksum(&bytes)), pinned, "{what}");
    }
}

/// Offset of the core header's layout-flags word inside a tree buffer:
/// one 64-byte `DRTT` header, then the `DRTC` header with the flags at
/// byte 6.
const CORE_FLAGS_AT: usize = 64 + 6;

#[test]
fn retired_layout_flags_are_refused_with_a_typed_error() {
    let tree = mid_churn_tree();
    let good = tree.save();
    assert_eq!(good[CORE_FLAGS_AT], 0, "the one layout writes flags = 0");
    let refused = |result: Result<PackedRTree<usize, 2>, SnapshotError>, what: &str| match result {
        Err(SnapshotError::Corrupt("unknown layout flags")) => {}
        Err(other) => panic!("{what}: wrong error {other:?}"),
        Ok(_) => panic!("{what}: a retired layout was served"),
    };
    // Bit 0 was `quantize_interior`, bit 1 `aligned_fanout`.
    for bits in [1u8, 2, 3] {
        let mut stamped = good.clone();
        stamped[CORE_FLAGS_AT] = bits;
        refused(PackedRTree::load(stamped.clone()), "load");
        refused(PackedRTree::load_verified(stamped.clone()), "load_verified");
        let len = stamped.len();
        let buf = AlignedBytes::adopt(stamped);
        refused(
            PackedRTree::load_shared(&buf, 0, len, Arc::new(|raw| raw as usize)),
            "load_shared",
        );
    }
    // The untouched buffer still loads and answers.
    let loaded = PackedRTree::<usize, 2>::load(good).expect("loads");
    let probe = Point::new([200.5, 200.5]);
    assert_eq!(loaded.search_point(&probe), tree.search_point(&probe));
}
