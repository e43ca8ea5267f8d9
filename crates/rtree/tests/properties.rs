//! Property-based tests: the R-tree stays valid and complete under random
//! operation sequences, for every split method; the packed backend
//! returns *identical* result sets to the pointer tree (it is a drop-in
//! oracle, not an approximation), including on the generated
//! subscription workloads of `drtree-workloads`; and the packed
//! backend's delta layer (staged inserts + tombstones) is invisible to
//! every visitor — before and after compaction, and throughout a
//! two-phase freeze/merge/install cycle with mutations landing
//! mid-compaction.

use drtree_rtree::{PackedRTree, RTree, RTreeConfig, SplitMethod};
use drtree_spatial::{Point, Rect};
use drtree_workloads::SubscriptionWorkload;
use proptest::prelude::*;
use proptest::strategy::Just;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Debug, Clone)]
enum Op {
    Insert(Rect<2>),
    RemoveNth(usize),
    QueryPoint(Point<2>),
}

fn arb_rect() -> impl Strategy<Value = Rect<2>> {
    (0.0f64..100.0, 0.0f64..100.0, 0.1f64..30.0, 0.1f64..30.0)
        .prop_map(|(x, y, w, h)| Rect::new([x, y], [x + w, y + h]))
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => arb_rect().prop_map(Op::Insert),
        1 => (0usize..64).prop_map(Op::RemoveNth),
        2 => (0.0f64..130.0, 0.0f64..130.0).prop_map(|(x, y)| Op::QueryPoint(Point::new([x, y]))),
    ]
}

fn arb_config() -> impl Strategy<Value = RTreeConfig> {
    (1usize..5, prop::sample::select(SplitMethod::ALL.to_vec()))
        .prop_map(|(m, s)| RTreeConfig::new(m, 2 * m + m / 2 + 1, s).expect("valid bounds"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_ops_preserve_invariants(
        config in arb_config(),
        reinsert in any::<bool>(),
        ops in prop::collection::vec(arb_op(), 1..150),
    ) {
        let mut tree: RTree<usize, 2> = RTree::new(config);
        tree.set_reinsertion(reinsert);
        // shadow model: flat list of live entries
        let mut model: Vec<(usize, Rect<2>)> = Vec::new();
        let mut next_key = 0usize;

        for op in ops {
            match op {
                Op::Insert(r) => {
                    tree.insert(next_key, r);
                    model.push((next_key, r));
                    next_key += 1;
                }
                Op::RemoveNth(n) => {
                    if !model.is_empty() {
                        let (k, r) = model.remove(n % model.len());
                        prop_assert!(tree.remove(&k, &r));
                    }
                }
                Op::QueryPoint(p) => {
                    let mut got: Vec<usize> =
                        tree.search_point(&p).into_iter().copied().collect();
                    got.sort_unstable();
                    let mut want: Vec<usize> = model
                        .iter()
                        .filter(|(_, r)| r.contains_point(&p))
                        .map(|(k, _)| *k)
                        .collect();
                    want.sort_unstable();
                    prop_assert_eq!(got, want, "query mismatch");
                }
            }
            prop_assert_eq!(tree.len(), model.len());
            if let Err(e) = tree.validate() {
                prop_assert!(false, "invariants broken: {}", e);
            }
        }
    }

    #[test]
    fn window_query_matches_linear_scan(
        rects in prop::collection::vec(arb_rect(), 1..120),
        window in arb_rect(),
    ) {
        let mut tree: RTree<usize, 2> = RTree::new(RTreeConfig::default());
        for (i, r) in rects.iter().enumerate() {
            tree.insert(i, *r);
        }
        let mut got: Vec<usize> = tree.search_intersecting(&window).into_iter().copied().collect();
        got.sort_unstable();
        let mut want: Vec<usize> = rects
            .iter()
            .enumerate()
            .filter(|(_, r)| r.intersects(&window))
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn height_is_logarithmic(
        n in 10usize..400,
        method in prop::sample::select(SplitMethod::ALL.to_vec()),
    ) {
        let m = 2usize;
        let max = 6usize;
        let mut tree: RTree<usize, 2> = RTree::new(RTreeConfig::new(m, max, method).unwrap());
        for i in 0..n {
            let x = (i % 20) as f64 * 5.0;
            let y = (i / 20) as f64 * 5.0;
            tree.insert(i, Rect::new([x, y], [x + 3.0, y + 3.0]));
        }
        // Lemma 3.1 shape: height bounded by log_m(N) plus a small constant.
        let bound = (n as f64).log(m as f64).ceil() as usize + 2;
        prop_assert!(tree.height() <= bound,
            "height {} exceeds bound {} at n={}", tree.height(), bound, n);
    }
}

/// Sorted key multiset of a point query against both backends.
fn point_results(
    pointer: &RTree<usize, 2>,
    packed: &PackedRTree<usize, 2>,
    p: &Point<2>,
) -> (Vec<usize>, Vec<usize>) {
    let mut a: Vec<usize> = pointer.search_point(p).into_iter().copied().collect();
    let mut b: Vec<usize> = packed.search_point(p).into_iter().copied().collect();
    a.sort_unstable();
    b.sort_unstable();
    (a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_matches_pointer_on_random_rects(
        rects in prop::collection::vec(arb_rect(), 0..150),
        probes in prop::collection::vec(
            (0.0f64..140.0, 0.0f64..140.0), 1..20),
        windows in prop::collection::vec(arb_rect(), 0..6),
        node_size in 2usize..33,
    ) {
        let entries: Vec<(usize, Rect<2>)> = rects.iter().copied().enumerate().collect();
        let mut pointer: RTree<usize, 2> = RTree::new(RTreeConfig::default());
        for (k, r) in &entries {
            pointer.insert(*k, *r);
        }
        let packed = PackedRTree::bulk_load_with_node_size(node_size, entries);
        packed.validate().map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(packed.len(), pointer.len());

        for (x, y) in probes {
            let p = Point::new([x, y]);
            let (a, b) = point_results(&pointer, &packed, &p);
            prop_assert_eq!(a, b, "point query at {:?}", p);
        }
        for w in windows {
            let mut a: Vec<usize> =
                pointer.search_intersecting(&w).into_iter().copied().collect();
            let mut b: Vec<usize> =
                packed.search_intersecting(&w).into_iter().copied().collect();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b, "window query at {}", w);
        }
    }

    #[test]
    fn packed_matches_pointer_on_generated_workloads(
        seed in any::<u64>(),
        n in 1usize..400,
        workload_idx in 0usize..3,
    ) {
        let (_, workload) = SubscriptionWorkload::standard()[workload_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let rects: Vec<Rect<2>> = workload.generate(n, &mut rng);
        let entries: Vec<(usize, Rect<2>)> = rects.iter().copied().enumerate().collect();

        let mut pointer: RTree<usize, 2> =
            RTree::new(RTreeConfig::new(4, 16, SplitMethod::RStar).unwrap());
        for (k, r) in &entries {
            pointer.insert(*k, *r);
        }
        let packed = PackedRTree::bulk_load(entries);
        packed.validate().map_err(|e| TestCaseError::fail(e.to_string()))?;

        // Probe at every entry's center: the exact matching sets the
        // broker oracle computes must agree between backends.
        for r in rects.iter().take(64) {
            let p = r.center();
            let (a, b) = point_results(&pointer, &packed, &p);
            prop_assert_eq!(a, b, "center probe at {:?}", p);
        }
    }

    /// Every [`drtree_rtree::SpatialIndex`] visitor returns identical
    /// result sets with and without a populated delta layer: a tree
    /// carrying staged inserts and tombstones must answer exactly like
    /// a fresh bulk-load of its live entry set — before *and* after
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
        let mut model: Vec<(usize, Rect<2>)> =
            base.iter().copied().enumerate().collect();
        let mut tree =
            PackedRTree::bulk_load_with_node_size(node_size, model.clone());
        for (i, r) in staged.iter().enumerate() {
            tree.stage_insert(base.len() + i, *r);
            model.push((base.len() + i, *r));
        }
        for n in removals {
            if model.is_empty() {
                break;
            }
            let (k, r) = model.remove(n % model.len());
            prop_assert!(
                tree.remove_entry(&k, &r).is_some(),
                "live entry ({k}, {r}) not found for removal"
            );
        }
        tree.validate().map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(tree.len(), model.len());

        let reference = PackedRTree::bulk_load(model.clone());
        let mut delta_tree = tree;
        for pass in ["delta", "compacted"] {
            if pass == "compacted" {
                delta_tree.compact();
                prop_assert_eq!(delta_tree.delta_len(), 0);
                delta_tree
                    .validate()
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
            }
            for p in &probes {
                let mut a: Vec<usize> =
                    reference.search_point(p).into_iter().copied().collect();
                let mut b: Vec<usize> =
                    delta_tree.search_point(p).into_iter().copied().collect();
                a.sort_unstable();
                b.sort_unstable();
                prop_assert_eq!(a, b, "{} point query at {:?}", pass, p);
            }
            for w in &windows {
                let mut a: Vec<usize> =
                    reference.search_intersecting(w).into_iter().copied().collect();
                let mut b: Vec<usize> =
                    delta_tree.search_intersecting(w).into_iter().copied().collect();
                a.sort_unstable();
                b.sort_unstable();
                prop_assert_eq!(a, b, "{} window query at {}", pass, w);
                // The abortable walk sees the same full set when never
                // aborted.
                let mut c = Vec::new();
                delta_tree.for_each_intersecting_while(w, |&k, _| {
                    c.push(k);
                    true
                });
                c.sort_unstable();
                let mut d: Vec<usize> =
                    delta_tree.search_intersecting(w).into_iter().copied().collect();
                d.sort_unstable();
                prop_assert_eq!(c, d, "{} abortable walk at {}", pass, w);
            }
            // Batched visits equal per-probe visits.
            let mut batched: Vec<Vec<usize>> = vec![Vec::new(); probes.len()];
            delta_tree
                .for_each_containing_batch(&probes, |pi, &k, _| batched[pi as usize].push(k));
            for (i, p) in probes.iter().enumerate() {
                batched[i].sort_unstable();
                let mut want: Vec<usize> =
                    delta_tree.search_point(p).into_iter().copied().collect();
                want.sort_unstable();
                prop_assert_eq!(&batched[i], &want, "{} batch probe {:?}", pass, p);
            }
        }
    }

    #[test]
    fn packed_update_stays_exact(
        rects in prop::collection::vec(arb_rect(), 1..120),
        moves in prop::collection::vec((0usize..120, arb_rect()), 1..20),
    ) {
        let entries: Vec<(usize, Rect<2>)> = rects.iter().copied().enumerate().collect();
        let mut packed = PackedRTree::bulk_load_with_node_size(4, entries);
        let mut model = rects.clone();
        for (slot, rect) in moves {
            let slot = slot % packed.len();
            let (&key, _) = packed.entry(slot);
            packed.update(slot, rect);
            model[key] = rect;
            packed.validate().map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
        // After arbitrary moves the tree still answers exactly.
        for (i, r) in model.iter().enumerate().take(40) {
            let p = r.center();
            let mut got: Vec<usize> =
                packed.search_point(&p).into_iter().copied().collect();
            got.sort_unstable();
            let mut want: Vec<usize> = model
                .iter()
                .enumerate()
                .filter(|(_, m)| m.contains_point(&p))
                .map(|(k, _)| k)
                .collect();
            want.sort_unstable();
            prop_assert_eq!(got, want, "after moving entry {}", i);
        }
    }

    /// The two-phase freeze/merge/install cycle is invisible to every
    /// visitor: with arbitrary staging, removals *between* freeze and
    /// install (hitting packed slots, the frozen staged prefix, and
    /// the second-generation delta alike), and fresh inserts overlaid
    /// on the frozen core, the tree answers exactly like a fresh
    /// bulk-load of the live set at every point of the cycle.
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
        let mut model: Vec<(usize, Rect<2>)> =
            base.iter().copied().enumerate().collect();
        let mut tree = PackedRTree::bulk_load_with_node_size(node_size, model.clone());
        let mut next_key = base.len();
        for r in &staged {
            tree.stage_insert(next_key, *r);
            model.push((next_key, *r));
            next_key += 1;
        }
        for n in &pre_removals {
            if model.is_empty() { break; }
            let (k, r) = model.remove(n % model.len());
            prop_assert!(tree.remove_entry(&k, &r).is_some());
        }

        let frozen = tree.freeze();
        // Mid-compaction churn: inserts and removals interleaved.
        let mut pending_inserts = mid_inserts.iter();
        for (i, n) in mid_removals.iter().enumerate() {
            if i % 2 == 0 {
                if let Some(r) = pending_inserts.next() {
                    tree.stage_insert(next_key, *r);
                    model.push((next_key, *r));
                    next_key += 1;
                }
            }
            if !model.is_empty() {
                let (k, r) = model.remove(n % model.len());
                prop_assert!(
                    tree.remove_entry(&k, &r).is_some(),
                    "mid-compaction removal of ({k}, {r}) not found"
                );
            }
        }
        for r in pending_inserts {
            tree.stage_insert(next_key, *r);
            model.push((next_key, *r));
            next_key += 1;
        }
        tree.validate().map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(tree.len(), model.len());

        let check = |tree: &PackedRTree<usize, 2>, model: &[(usize, Rect<2>)], phase: &str|
            -> Result<(), TestCaseError> {
            for p in &probes {
                let mut got: Vec<usize> =
                    tree.search_point(p).into_iter().copied().collect();
                got.sort_unstable();
                let mut want: Vec<usize> = model
                    .iter()
                    .filter(|(_, r)| r.contains_point(p))
                    .map(|(k, _)| *k)
                    .collect();
                want.sort_unstable();
                prop_assert_eq!(got, want, "{} point query at {:?}", phase, p);
                // Batched form agrees.
                let mut batched = Vec::new();
                tree.for_each_containing_batch(
                    std::slice::from_ref(p),
                    |_, &k, _| batched.push(k),
                );
                batched.sort_unstable();
                let mut single: Vec<usize> =
                    tree.search_point(p).into_iter().copied().collect();
                single.sort_unstable();
                prop_assert_eq!(batched, single, "{} batch probe {:?}", phase, p);
            }
            Ok(())
        };
        check(&tree, &model, "mid-compaction")?;

        let merged = frozen.merge();
        merged.validate().map_err(|e| TestCaseError::fail(e.to_string()))?;
        tree.install(merged);
        tree.validate().map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(tree.len(), model.len());
        check(&tree, &model, "installed")?;

        // A trailing synchronous compact still agrees.
        tree.compact();
        tree.validate().map_err(|e| TestCaseError::fail(e.to_string()))?;
        check(&tree, &model, "recompacted")?;
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
/// eager-checksum paths, and require identical answers to every probe.
fn round_trip_matches(
    tree: &PackedRTree<usize, 2>,
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
        let mut want: Vec<usize> = tree.search_point(point).into_iter().copied().collect();
        want.sort_unstable();
        let mut lazy: Vec<usize> = restored.search_point(point).into_iter().copied().collect();
        lazy.sort_unstable();
        prop_assert_eq!(&lazy, &want, "restored point query diverged at {:?}", point);
        let mut eager: Vec<usize> = verified.search_point(point).into_iter().copied().collect();
        eager.sort_unstable();
        prop_assert_eq!(
            &eager,
            &want,
            "verified point query diverged at {:?}",
            point
        );
    }
    for window in windows {
        let mut want: Vec<usize> = tree
            .search_intersecting(window)
            .into_iter()
            .copied()
            .collect();
        want.sort_unstable();
        let mut got: Vec<usize> = restored
            .search_intersecting(window)
            .into_iter()
            .copied()
            .collect();
        got.sort_unstable();
        prop_assert_eq!(got, want, "restored window query diverged at {}", window);
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
        let mut model: Vec<(usize, Rect<2>)> = base.iter().copied().enumerate().collect();
        let mut tree = PackedRTree::bulk_load(model.clone());
        let mut next_key = model.len();
        let mut checkpoints = 0usize;

        for op in &ops {
            match op {
                ChurnOp::Stage(rect) => {
                    tree.stage_insert(next_key, *rect);
                    model.push((next_key, *rect));
                    next_key += 1;
                }
                ChurnOp::RemoveNth(n) => {
                    if !model.is_empty() {
                        let (key, rect) = model.remove(n % model.len());
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
                    round_trip_matches(&tree, &probes, &windows)?;
                }
                ChurnOp::Checkpoint => {}
            }
        }

        prop_assert_eq!(tree.len(), model.len());
        round_trip_matches(&tree, &probes, &windows)?;
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
