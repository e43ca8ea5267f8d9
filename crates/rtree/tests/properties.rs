//! Property-based tests pinning the packed tree to the linear-scan
//! [`Reference`]: on random rectangles and on the generated subscription
//! workloads of `drtree-workloads`; with a populated delta layer
//! (staged inserts + tombstones) before and after compaction; through
//! in-place updates; throughout a two-phase freeze/merge/install cycle
//! with mutations landing mid-compaction; and across snapshot
//! round-trips taken anywhere in a churn sequence.

use drtree_rtree::PackedRTree;
use drtree_spatial::reference::Reference;
use drtree_spatial::{Point, Rect};
use drtree_workloads::SubscriptionWorkload;
use proptest::prelude::*;
use proptest::strategy::Just;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_rect() -> impl Strategy<Value = Rect<2>> {
    (0.0f64..100.0, 0.0f64..100.0, 0.1f64..30.0, 0.1f64..30.0)
        .prop_map(|(x, y, w, h)| Rect::new([x, y], [x + w, y + h]))
}

/// Sorted keys of a point query, duplicates kept: a key reported twice
/// fails against the reference's deduplicated set.
fn point_keys(tree: &PackedRTree<usize, 2>, p: &Point<2>) -> Vec<usize> {
    let mut keys: Vec<usize> = tree.search_point(p).into_iter().copied().collect();
    keys.sort_unstable();
    keys
}

/// Sorted keys of a window query, duplicates kept.
fn window_keys(tree: &PackedRTree<usize, 2>, w: &Rect<2>) -> Vec<usize> {
    let mut keys: Vec<usize> = tree.search_intersecting(w).into_iter().copied().collect();
    keys.sort_unstable();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_matches_reference_on_random_rects(
        rects in prop::collection::vec(arb_rect(), 0..150),
        probes in prop::collection::vec(
            (0.0f64..140.0, 0.0f64..140.0), 1..20),
        windows in prop::collection::vec(arb_rect(), 0..6),
        node_size in 2usize..33,
    ) {
        let model: Reference<usize, 2> = rects.iter().copied().enumerate().collect();
        let packed = PackedRTree::bulk_load_with_node_size(node_size, model.entries().to_vec());
        packed.validate().map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(packed.len(), model.len());

        for (x, y) in probes {
            let p = Point::new([x, y]);
            prop_assert_eq!(point_keys(&packed, &p), model.matching(&p), "point query at {:?}", p);
        }
        for w in windows {
            prop_assert_eq!(window_keys(&packed, &w), model.intersecting(&w), "window query at {}", w);
        }
    }

    #[test]
    fn packed_matches_reference_on_generated_workloads(
        seed in any::<u64>(),
        n in 1usize..400,
        workload_idx in 0usize..3,
    ) {
        let (_, workload) = SubscriptionWorkload::standard()[workload_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let rects: Vec<Rect<2>> = workload.generate(n, &mut rng);
        let model: Reference<usize, 2> = rects.iter().copied().enumerate().collect();
        let packed = PackedRTree::bulk_load(model.entries().to_vec());
        packed.validate().map_err(|e| TestCaseError::fail(e.to_string()))?;

        // Probe at every entry's center: the exact matching sets the
        // broker oracle computes.
        for r in rects.iter().take(64) {
            let p = r.center();
            prop_assert_eq!(point_keys(&packed, &p), model.matching(&p), "center probe at {:?}", p);
        }
    }

    /// Every visitor answers like the reference with a populated delta
    /// layer — staged inserts and tombstones — before *and* after
    /// compaction.
    #[test]
    fn delta_layer_is_invisible_to_every_visitor(
        base in prop::collection::vec(arb_rect(), 0..100),
        staged in prop::collection::vec(arb_rect(), 0..40),
        removals in prop::collection::vec(0usize..140, 0..60),
        probes in prop::collection::vec(
            (0.0f64..140.0, 0.0f64..140.0).prop_map(|(x, y)| Point::<2>::new([x, y])),
            1..16),
        windows in prop::collection::vec(arb_rect(), 0..4),
        node_size in 2usize..33,
    ) {
        let mut model: Reference<usize, 2> = base.iter().copied().enumerate().collect();
        let mut tree = PackedRTree::bulk_load_with_node_size(node_size, model.entries().to_vec());
        for (i, r) in staged.iter().enumerate() {
            tree.stage_insert(base.len() + i, *r);
            model.insert(base.len() + i, *r);
        }
        for n in removals {
            let Some((k, r)) = model.remove_nth(n) else {
                break;
            };
            prop_assert!(
                tree.remove_entry(&k, &r).is_some(),
                "live entry ({k}, {r}) not found for removal"
            );
        }
        tree.validate().map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(tree.len(), model.len());

        for pass in ["delta", "compacted"] {
            if pass == "compacted" {
                tree.compact();
                prop_assert_eq!(tree.delta_len(), 0);
                tree.validate().map_err(|e| TestCaseError::fail(e.to_string()))?;
            }
            for p in &probes {
                prop_assert_eq!(point_keys(&tree, p), model.matching(p), "{} point query at {:?}", pass, p);
            }
            for w in &windows {
                let want = model.intersecting(w);
                prop_assert_eq!(&window_keys(&tree, w), &want, "{} window query at {}", pass, w);
                // The abortable walk sees the same full set when never
                // aborted.
                let mut walked = Vec::new();
                tree.for_each_intersecting_while(w, |&k, _| {
                    walked.push(k);
                    true
                });
                walked.sort_unstable();
                prop_assert_eq!(walked, want, "{} abortable walk at {}", pass, w);
            }
            let mut batched: Vec<Vec<usize>> = vec![Vec::new(); probes.len()];
            tree.for_each_containing_batch(&probes, |pi, &k, _| batched[pi as usize].push(k));
            for (i, p) in probes.iter().enumerate() {
                batched[i].sort_unstable();
                prop_assert_eq!(&batched[i], &model.matching(p), "{} batch probe {:?}", pass, p);
            }
        }
    }

    #[test]
    fn packed_update_stays_exact(
        rects in prop::collection::vec(arb_rect(), 1..120),
        moves in prop::collection::vec((0usize..120, arb_rect()), 1..20),
    ) {
        // Keys are positions, so the reference's n-th entry is key n.
        let mut model: Reference<usize, 2> = rects.iter().copied().enumerate().collect();
        let mut packed = PackedRTree::bulk_load_with_node_size(4, model.entries().to_vec());
        for (slot, rect) in moves {
            let slot = slot % packed.len();
            let (&key, _) = packed.entry(slot);
            packed.update(slot, rect);
            model.move_nth(key, rect);
            packed.validate().map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
        // After arbitrary moves the tree still answers exactly.
        for (i, (_, r)) in model.entries().iter().enumerate().take(40) {
            let p = r.center();
            prop_assert_eq!(point_keys(&packed, &p), model.matching(&p), "after moving entry {}", i);
        }
    }

    /// The two-phase freeze/merge/install cycle is invisible to every
    /// visitor: with arbitrary staging, removals *between* freeze and
    /// install (hitting packed slots, the frozen staged prefix, and
    /// the second-generation delta alike), and fresh inserts overlaid
    /// on the frozen core, the tree answers exactly like the reference
    /// at every point of the cycle.
    #[test]
    fn frozen_epoch_is_invisible_to_every_visitor(
        base in prop::collection::vec(arb_rect(), 0..80),
        staged in prop::collection::vec(arb_rect(), 0..24),
        mid_inserts in prop::collection::vec(arb_rect(), 0..24),
        pre_removals in prop::collection::vec(0usize..104, 0..20),
        mid_removals in prop::collection::vec(0usize..128, 0..40),
        probes in prop::collection::vec(
            (0.0f64..140.0, 0.0f64..140.0).prop_map(|(x, y)| Point::<2>::new([x, y])),
            1..12),
        node_size in 2usize..33,
    ) {
        let mut model: Reference<usize, 2> = base.iter().copied().enumerate().collect();
        let mut tree = PackedRTree::bulk_load_with_node_size(node_size, model.entries().to_vec());
        let mut next_key = base.len();
        for r in &staged {
            tree.stage_insert(next_key, *r);
            model.insert(next_key, *r);
            next_key += 1;
        }
        for n in &pre_removals {
            let Some((k, r)) = model.remove_nth(*n) else {
                break;
            };
            prop_assert!(tree.remove_entry(&k, &r).is_some());
        }

        let frozen = tree.freeze();
        // Mid-compaction churn: inserts and removals interleaved.
        let mut pending_inserts = mid_inserts.iter();
        for (i, n) in mid_removals.iter().enumerate() {
            if i % 2 == 0 {
                if let Some(r) = pending_inserts.next() {
                    tree.stage_insert(next_key, *r);
                    model.insert(next_key, *r);
                    next_key += 1;
                }
            }
            if let Some((k, r)) = model.remove_nth(*n) {
                prop_assert!(
                    tree.remove_entry(&k, &r).is_some(),
                    "mid-compaction removal of ({k}, {r}) not found"
                );
            }
        }
        for r in pending_inserts {
            tree.stage_insert(next_key, *r);
            model.insert(next_key, *r);
            next_key += 1;
        }
        tree.validate().map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(tree.len(), model.len());

        let check = |tree: &PackedRTree<usize, 2>, phase: &str| -> Result<(), TestCaseError> {
            for p in &probes {
                let want = model.matching(p);
                prop_assert_eq!(&point_keys(tree, p), &want, "{} point query at {:?}", phase, p);
                // Batched form agrees.
                let mut batched = Vec::new();
                tree.for_each_containing_batch(std::slice::from_ref(p), |_, &k, _| batched.push(k));
                batched.sort_unstable();
                prop_assert_eq!(batched, want, "{} batch probe {:?}", phase, p);
            }
            Ok(())
        };
        check(&tree, "mid-compaction")?;

        let merged = frozen.merge();
        merged.validate().map_err(|e| TestCaseError::fail(e.to_string()))?;
        tree.install(merged);
        tree.validate().map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(tree.len(), model.len());
        check(&tree, "installed")?;

        // A trailing synchronous compact still agrees.
        tree.compact();
        tree.validate().map_err(|e| TestCaseError::fail(e.to_string()))?;
        check(&tree, "recompacted")?;
    }
}

// ---------------------------------------------------------------------------
// Snapshot round-trips: save -> load must be invisible to every query,
// no matter where in a churn sequence the snapshot is taken.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum ChurnOp {
    /// Stage a fresh entry into the delta layer.
    Stage(Rect<2>),
    /// Remove the n-th live entry (mod the live count).
    RemoveNth(usize),
    /// Merge the delta layer into a rebuilt core.
    Compact,
    /// Snapshot mid-sequence and compare against the live tree.
    Checkpoint,
}

fn arb_churn_op() -> impl Strategy<Value = ChurnOp> {
    prop_oneof![
        5 => arb_rect().prop_map(ChurnOp::Stage),
        2 => (0usize..1_000_000).prop_map(ChurnOp::RemoveNth),
        1 => Just(ChurnOp::Compact),
        1 => Just(ChurnOp::Checkpoint),
    ]
}

/// Serialize `tree`, reload it on both the deferred-checksum and the
/// eager-checksum paths, and require the reference's answer to every
/// probe from all three.
fn round_trip_matches(
    tree: &PackedRTree<usize, 2>,
    model: &Reference<usize, 2>,
    probes: &[Point<2>],
    windows: &[Rect<2>],
) -> Result<(), TestCaseError> {
    let bytes = tree.save();
    let restored = PackedRTree::<usize, 2>::load(bytes.clone())
        .map_err(|e| TestCaseError::fail(format!("load: {e}")))?;
    restored
        .verify_snapshot()
        .map_err(|e| TestCaseError::fail(format!("verify_snapshot: {e}")))?;
    restored
        .validate()
        .map_err(|e| TestCaseError::fail(format!("restored validate: {e}")))?;
    let verified = PackedRTree::<usize, 2>::load_verified(bytes)
        .map_err(|e| TestCaseError::fail(format!("load_verified: {e}")))?;
    prop_assert_eq!(restored.len(), tree.len());
    prop_assert_eq!(verified.len(), tree.len());

    for point in probes {
        let want = model.matching(point);
        prop_assert_eq!(
            &point_keys(tree, point),
            &want,
            "live point query at {:?}",
            point
        );
        prop_assert_eq!(
            &point_keys(&restored, point),
            &want,
            "restored point query at {:?}",
            point
        );
        prop_assert_eq!(
            &point_keys(&verified, point),
            &want,
            "verified point query at {:?}",
            point
        );
    }
    for window in windows {
        let want = model.intersecting(window);
        prop_assert_eq!(
            &window_keys(tree, window),
            &want,
            "live window query at {}",
            window
        );
        prop_assert_eq!(
            &window_keys(&restored, window),
            &want,
            "restored window query at {}",
            window
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn snapshot_round_trips_exactly_under_interleaved_churn(
        base in prop::collection::vec(arb_rect(), 0..100),
        ops in prop::collection::vec(arb_churn_op(), 0..50),
        probes in prop::collection::vec(
            (0.0f64..130.0, 0.0f64..130.0).prop_map(|(x, y)| Point::<2>::new([x, y])),
            1..10),
        windows in prop::collection::vec(arb_rect(), 1..4),
    ) {
        let mut model: Reference<usize, 2> = base.iter().copied().enumerate().collect();
        let mut tree = PackedRTree::bulk_load(model.entries().to_vec());
        let mut next_key = model.len();
        let mut checkpoints = 0usize;

        for op in &ops {
            match op {
                ChurnOp::Stage(rect) => {
                    tree.stage_insert(next_key, *rect);
                    model.insert(next_key, *rect);
                    next_key += 1;
                }
                ChurnOp::RemoveNth(n) => {
                    if let Some((key, rect)) = model.remove_nth(*n) {
                        prop_assert!(tree.remove_entry(&key, &rect).is_some());
                    }
                }
                ChurnOp::Compact => {
                    tree.compact();
                    // Empty-delta fast path: a post-compaction snapshot
                    // shares the core and heap-allocates nothing.
                    prop_assert_eq!(tree.snapshot().delta_heap_bytes(), 0);
                }
                // Cap mid-sequence round-trips: each one serializes the
                // whole tree, and three interior placements (early,
                // mid-delta, post-compaction) cover the delta states.
                ChurnOp::Checkpoint if checkpoints < 3 => {
                    checkpoints += 1;
                    round_trip_matches(&tree, &model, &probes, &windows)?;
                }
                ChurnOp::Checkpoint => {}
            }
        }

        prop_assert_eq!(tree.len(), model.len());
        round_trip_matches(&tree, &model, &probes, &windows)?;
    }

    #[test]
    fn corrupted_snapshots_error_and_never_panic(
        base in prop::collection::vec(arb_rect(), 0..80),
        staged in prop::collection::vec(arb_rect(), 0..20),
        cut_at in 0usize..1_000_000,
        flips in prop::collection::vec((0usize..1_000_000, 1u8..255), 1..6),
        probe in (0.0f64..130.0, 0.0f64..130.0).prop_map(|(x, y)| Point::<2>::new([x, y])),
    ) {
        let entries: Vec<(usize, Rect<2>)> = base.iter().copied().enumerate().collect();
        let mut tree = PackedRTree::bulk_load(entries);
        for (i, rect) in staged.iter().enumerate() {
            tree.stage_insert(base.len() + i, *rect);
        }
        if !base.is_empty() {
            tree.remove_entry(&0, &base[0]);
        }
        let bytes = tree.save();

        // Every strict prefix must be rejected: the header carries the
        // total payload length, so truncation is always detectable.
        let cut = cut_at % bytes.len();
        prop_assert!(PackedRTree::<usize, 2>::load(bytes[..cut].to_vec()).is_err());

        // Arbitrary bit flips: the deferred-checksum path may accept a
        // flip in bulk data (by design — load defers the bulk sum), but
        // must never panic, and an accepted tree must answer queries.
        // The eager path additionally re-sums the bulk sections.
        let mut fuzzed = bytes.clone();
        for &(at, mask) in &flips {
            let at = at % fuzzed.len();
            fuzzed[at] ^= mask;
        }
        if let Ok(loaded) = PackedRTree::<usize, 2>::load(fuzzed.clone()) {
            let _ = loaded.search_point(&probe);
            let _ = loaded.verify_snapshot();
        }
        if let Ok(loaded) = PackedRTree::<usize, 2>::load_verified(fuzzed) {
            let _ = loaded.search_point(&probe);
        }
    }
}
