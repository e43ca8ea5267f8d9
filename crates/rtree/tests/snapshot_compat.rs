//! The snapshot format is a contract with buffers already at rest:
//! every byte the default layout ever wrote must load and re-save
//! unchanged, and the two retired layout experiments (f32-quantized
//! interior MBRs, cache-line-padded fanout) must be refused with a
//! typed error — never served, never a panic.

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
