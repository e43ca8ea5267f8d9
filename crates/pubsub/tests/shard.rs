//! Property tests pinning the sharded oracle to the linear-scan
//! [`Reference`]: for every shard count and every delta-layer compaction
//! threshold (always-compact through never-compact), under random
//! *interleaved* subscribe/unsubscribe/publish/flush sequences (the
//! regime the paper's dissemination layer lives in — membership
//! mutates while events flow), `ShardedOracle` must return the
//! reference's hit-set over the same live entries, on both the
//! single-probe and the batched path.

use drtree_core::ProcessId;
use drtree_pubsub::{BatchMatches, CompactionMode, ShardedOracle};
use drtree_spatial::reference::Reference;
use drtree_spatial::{Point, Rect};
use proptest::prelude::*;
use proptest::strategy::Just;

#[derive(Debug, Clone)]
enum Op {
    Subscribe(Rect<2>),
    /// Remove the n-th (mod live) entry.
    UnsubscribeNth(usize),
    Publish(Point<2>),
    /// Force a maintenance pass mid-sequence (compaction at the
    /// configured threshold, rebalance if due).
    Flush,
}

fn arb_rect() -> impl Strategy<Value = Rect<2>> {
    // Mixed scales and occasional far-flung rectangles, so world
    // growth and rebalancing trigger mid-sequence.
    (0.0f64..400.0, 0.0f64..400.0, 0.1f64..60.0, 0.1f64..60.0)
        .prop_map(|(x, y, w, h)| Rect::new([x, y], [x + w, y + h]))
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => arb_rect().prop_map(Op::Subscribe),
        2 => (0usize..256).prop_map(Op::UnsubscribeNth),
        3 => (0.0f64..460.0, 0.0f64..460.0)
            .prop_map(|(x, y)| Op::Publish(Point::new([x, y]))),
        1 => Just(Op::Flush),
    ]
}

/// Compaction thresholds exercised per case: `0.0` compacts on every
/// flush (the rebuild-on-flush baseline), `0.05` compacts aggressively
/// mid-sequence, the default rarely at these sizes, `1e9` never — so
/// the delta layer is pinned at every depth from empty to
/// all-of-the-data.
fn arb_delta_fraction() -> impl Strategy<Value = f64> {
    prop::sample::select(vec![0.0, 0.05, drtree_rtree::DEFAULT_DELTA_FRACTION, 1e9])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single-probe equivalence for K = 1, 2, 4, 7 under interleaved
    /// mutation, publishing, and flushing, at the sampled compaction
    /// threshold — pinning the delta-layer oracle to the reference
    /// whatever the delta's depth.
    #[test]
    fn sharded_hit_sets_match_packed_reference(
        ops in prop::collection::vec(arb_op(), 1..120),
        fraction in arb_delta_fraction(),
    ) {
        for shards in [1usize, 2, 4, 7] {
            let mut oracle: ShardedOracle<2> = ShardedOracle::new(shards);
            oracle.set_delta_fraction(fraction);
            let mut model = Reference::new();
            let mut next_id = 0u64;
            let mut hits = Vec::new();

            for op in &ops {
                match op {
                    Op::Subscribe(rect) => {
                        let id = ProcessId::from_raw(next_id);
                        next_id += 1;
                        oracle.insert(id, *rect);
                        model.insert(id, *rect);
                    }
                    Op::UnsubscribeNth(n) => {
                        if let Some((id, rect)) = model.remove_nth(*n) {
                            prop_assert!(
                                oracle.remove(id, &rect),
                                "K={shards}: live entry not found for removal"
                            );
                        }
                    }
                    Op::Publish(point) => {
                        oracle.match_point_into(point, &mut hits);
                        let want = model.matching(point);
                        prop_assert_eq!(
                            &hits, &want,
                            "K={} fraction={} at {:?}", shards, fraction, point
                        );
                    }
                    Op::Flush => {
                        oracle.flush();
                    }
                }
                prop_assert_eq!(oracle.len(), model.len());
            }
        }
    }

    /// The batched path answers exactly like the single-probe path and
    /// the reference for every shard count, probe by probe — with the
    /// delta layer at every sampled depth (`fraction` controls how much
    /// of the data is still staged when the probes run).
    #[test]
    fn batched_matches_equal_single_probes(
        rects in prop::collection::vec(arb_rect(), 0..150),
        probes in prop::collection::vec(
            (0.0f64..460.0, 0.0f64..460.0).prop_map(|(x, y)| Point::<2>::new([x, y])),
            1..80,
        ),
        removals in prop::collection::vec(0usize..150, 0..30),
        fraction in arb_delta_fraction(),
    ) {
        for shards in [1usize, 2, 4, 7] {
            // threads = 1 exercises the fused merge-free pass,
            // threads = 3 the scoped-worker fan + stream merge.
            for threads in [1usize, 3] {
                let mut oracle: ShardedOracle<2> = ShardedOracle::new(shards);
                oracle.set_threads(threads);
                oracle.set_delta_fraction(fraction);
                let mut live = Reference::new();
                for (i, rect) in rects.iter().enumerate() {
                    // Every third entry duplicates the previous id,
                    // modelling subscription sets (dedup must hold).
                    let id = ProcessId::from_raw((i - usize::from(i % 3 == 2)) as u64);
                    oracle.insert(id, *rect);
                    live.insert(id, *rect);
                    // Flush mid-load a few times so part of the data is
                    // packed and part staged when the probes run.
                    if i % 50 == 49 {
                        oracle.flush();
                    }
                }
                for n in &removals {
                    let Some((id, rect)) = live.remove_nth(*n) else {
                        break;
                    };
                    prop_assert!(oracle.remove(id, &rect));
                }
                let mut batch = BatchMatches::new();
                oracle.match_batch_into(&probes, &mut batch);
                prop_assert_eq!(batch.probes(), probes.len());
                let mut single = Vec::new();
                for (i, probe) in probes.iter().enumerate() {
                    oracle.match_point_into(probe, &mut single);
                    prop_assert_eq!(
                        batch.matches(i), single.as_slice(),
                        "K={} threads={} fraction={} probe {}", shards, threads, fraction, i
                    );
                    prop_assert_eq!(
                        &single, &live.matching(probe),
                        "K={} threads={} fraction={} probe {} vs reference",
                        shards, threads, fraction, i
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The concurrent-compaction oracle pinned, op for op, to the
    /// synchronous-compaction oracle and the reference, under
    /// interleaved subscribe/unsubscribe/publish with flushes landing
    /// mid-compaction (an aggressive 2% fraction keeps
    /// background merges almost always in flight, and every flush both
    /// installs finished merges and freezes fresh ones). K = 1, 2, 4, 7.
    #[test]
    fn concurrent_compaction_matches_synchronous_and_rebuild_references(
        ops in prop::collection::vec(arb_op(), 1..120),
    ) {
        for shards in [1usize, 2, 4, 7] {
            let mut concurrent: ShardedOracle<2> = ShardedOracle::new(shards);
            concurrent.set_compaction_mode(CompactionMode::Concurrent);
            concurrent.set_delta_fraction(0.02);
            let mut synchronous: ShardedOracle<2> = ShardedOracle::new(shards);
            synchronous.set_delta_fraction(0.02);
            let mut model = Reference::new();
            let mut next_id = 0u64;
            let mut conc_hits = Vec::new();
            let mut sync_hits = Vec::new();
            let mut batch = BatchMatches::new();

            for (step, op) in ops.iter().enumerate() {
                match op {
                    Op::Subscribe(rect) => {
                        let id = ProcessId::from_raw(next_id);
                        next_id += 1;
                        concurrent.insert(id, *rect);
                        synchronous.insert(id, *rect);
                        model.insert(id, *rect);
                    }
                    Op::UnsubscribeNth(n) => {
                        if let Some((id, rect)) = model.remove_nth(*n) {
                            prop_assert!(concurrent.remove(id, &rect), "concurrent K={shards}");
                            prop_assert!(synchronous.remove(id, &rect), "synchronous K={shards}");
                        }
                    }
                    Op::Publish(point) => {
                        concurrent.match_point_into(point, &mut conc_hits);
                        synchronous.match_point_into(point, &mut sync_hits);
                        let want = model.matching(point);
                        prop_assert_eq!(
                            &conc_hits, &want,
                            "concurrent vs reference, K={} step {}", shards, step
                        );
                        prop_assert_eq!(
                            &conc_hits, &sync_hits,
                            "concurrent vs synchronous, K={} step {}", shards, step
                        );
                        // The batched path agrees mid-compaction too.
                        concurrent.match_batch_into(std::slice::from_ref(point), &mut batch);
                        prop_assert_eq!(
                            batch.matches(0), want.as_slice(),
                            "concurrent batched, K={} step {}", shards, step
                        );
                    }
                    Op::Flush => {
                        concurrent.flush();
                        synchronous.flush();
                    }
                }
                prop_assert_eq!(concurrent.len(), model.len());
                prop_assert_eq!(synchronous.len(), model.len());
            }
            // Draining every in-flight merge must change no answer.
            concurrent.finish_compactions();
            for (_, rect) in model.entries().iter().take(8) {
                let p = rect.center();
                concurrent.match_point_into(&p, &mut conc_hits);
                prop_assert_eq!(&conc_hits, &model.matching(&p));
            }
        }
    }
}

/// Unbounded and world-spanning filters ride the stab grid's overflow
/// list; probes far outside the mapped world clamp to rim cells. Both
/// paths must agree with plain geometry.
#[test]
fn unbounded_filters_and_outlier_probes_match_exactly() {
    for threads in [1usize, 3] {
        let mut oracle: ShardedOracle<2> = ShardedOracle::new(4);
        oracle.set_threads(threads);
        let everything = Rect::everything();
        let half_open = Rect::new([50.0, 0.0], [f64::INFINITY, 40.0]);
        let boxed = Rect::new([0.0, 0.0], [10.0, 10.0]);
        oracle.insert(ProcessId::from_raw(0), everything);
        oracle.insert(ProcessId::from_raw(1), half_open);
        oracle.insert(ProcessId::from_raw(2), boxed);
        for i in 0..64u64 {
            let x = (i % 8) as f64 * 12.0;
            let y = (i / 8) as f64 * 12.0;
            oracle.insert(
                ProcessId::from_raw(10 + i),
                Rect::new([x, y], [x + 6.0, y + 6.0]),
            );
        }
        let model: Reference<ProcessId, 2> = [(0, everything), (1, half_open), (2, boxed)]
            .into_iter()
            .chain((0..64u64).map(|i| {
                let x = (i % 8) as f64 * 12.0;
                let y = (i / 8) as f64 * 12.0;
                (10 + i, Rect::new([x, y], [x + 6.0, y + 6.0]))
            }))
            .map(|(id, rect)| (ProcessId::from_raw(id), rect))
            .collect();

        let probes = vec![
            Point::new([5.0, 5.0]),
            Point::new([1e9, 20.0]), // far outside the world, half-open match
            Point::new([-1e9, -1e9]), // far outside, only `everything`
            Point::new([60.0, 30.0]),
        ];
        let mut batch = BatchMatches::new();
        oracle.match_batch_into(&probes, &mut batch);
        let mut single = Vec::new();
        for (i, p) in probes.iter().enumerate() {
            let want = model.matching(p);
            oracle.match_point_into(p, &mut single);
            assert_eq!(single, want, "single, threads={threads}, probe {i}");
            assert_eq!(
                batch.matches(i),
                want.as_slice(),
                "batch, threads={threads}, probe {i}"
            );
        }
    }
}

/// `restore_bytes_checked` — the federated warm-restart gate. A
/// snapshot restored under the very shard assignment it was cut with
/// round-trips; the same bytes presented against a map whose
/// boundaries have since moved (or with a different shard count) are
/// rejected with [`SnapshotError::StaleBoundaries`] instead of
/// silently filing entries into the wrong shards.
#[test]
fn checked_restore_accepts_matching_map_and_rejects_moved_boundaries() {
    use drtree_rtree::SnapshotError;
    use drtree_spatial::hilbert::ShardMap;

    let mut oracle: ShardedOracle<2> = ShardedOracle::new(4);
    // Spread entries so every shard is populated and the first
    // boundary sits well above the key floor (shiftable downward).
    for i in 0..300u64 {
        oracle.insert(ProcessId::from_raw(i), lattice_rect(i));
    }
    oracle.flush();
    let expected: ShardMap<2> = oracle
        .shard_map()
        .expect("flushed oracle has a map")
        .clone();
    let bytes = oracle.snapshot_bytes();

    // Accept: same assignment, full state back.
    let mut restored = ShardedOracle::restore_bytes_checked(bytes.clone(), &expected)
        .expect("matching boundaries must restore");
    assert_eq!(restored.entries().len(), 300);
    assert_eq!(
        restored.shard_map().expect("restored map").boundaries(),
        expected.boundaries()
    );

    // Reject: one boundary moved since the checkpoint was cut.
    let b = expected.boundaries();
    assert!(b[0] > 0, "first boundary must be shiftable");
    let mut shifted = b.to_vec();
    shifted[0] -= 1;
    let moved = ShardMap::from_boundaries(expected.world(), shifted);
    assert_ne!(moved.boundaries(), expected.boundaries());
    match ShardedOracle::restore_bytes_checked(bytes.clone(), &moved) {
        Err(SnapshotError::StaleBoundaries {
            found,
            expected: want,
        }) => {
            assert_eq!(found, 4);
            assert_eq!(want, 4);
        }
        other => panic!("moved boundary must be rejected, got {other:?}"),
    }

    // Reject: the owner now prescribes a different shard count.
    let rewidened = ShardMap::new(8, expected.world());
    match ShardedOracle::restore_bytes_checked(bytes, &rewidened) {
        Err(SnapshotError::StaleBoundaries {
            found,
            expected: want,
        }) => {
            assert_eq!(found, 4);
            assert_eq!(want, 8);
        }
        other => panic!("different shard count must be rejected, got {other:?}"),
    }
}

/// A snapshot cut before any flush carries no shard map and therefore
/// cannot prove its assignment — the checked restore rejects it even
/// though the unchecked one accepts it.
#[test]
fn checked_restore_rejects_maplessness() {
    use drtree_rtree::SnapshotError;
    use drtree_spatial::hilbert::ShardMap;

    let mut oracle: ShardedOracle<2> = ShardedOracle::new(2);
    oracle.insert(ProcessId::from_raw(1), Rect::new([0.0, 0.0], [1.0, 1.0]));
    let bytes = oracle.snapshot_bytes();
    assert!(oracle.shard_map().is_none(), "no flush yet, no map");
    assert!(ShardedOracle::<2>::restore_bytes(bytes.clone()).is_ok());

    let expected: ShardMap<2> = ShardMap::new(2, &Rect::new([0.0, 0.0], [10.0, 10.0]));
    match ShardedOracle::restore_bytes_checked(bytes, &expected) {
        Err(SnapshotError::StaleBoundaries {
            found,
            expected: want,
        }) => {
            assert_eq!(found, 0);
            assert_eq!(want, 2);
        }
        other => panic!("mapless snapshot must be rejected, got {other:?}"),
    }
}

/// Disjoint 5×5 boxes on a 20-wide lattice: a probe at a box's center
/// hits that box only, so answers attribute to exactly one shard.
fn lattice_rect(i: u64) -> Rect<2> {
    let x = (i % 20) as f64 * 19.0;
    let y = (i / 20) as f64 * 24.0;
    Rect::new([x, y], [x + 5.0, y + 5.0])
}

/// `lattice_rect(i)` widened by 1.5 on every side — overlaps the box it
/// grew from, reaches no other box's center.
fn grown_rect(i: u64) -> Rect<2> {
    let r = lattice_rect(i);
    Rect::new(
        [r.lo(0) - 1.5, r.lo(1) - 1.5],
        [r.hi(0) + 1.5, r.hi(1) + 1.5],
    )
}

/// A deterministic mid-churn 4-shard oracle: 400 lattice boxes packed
/// across the shards, then a live delta of staged inserts (one under a
/// duplicate id), a staged removal and a band of tombstones.
fn mid_churn_oracle() -> ShardedOracle<2> {
    let mut oracle: ShardedOracle<2> = ShardedOracle::new(4);
    for i in 0..400 {
        oracle.insert(ProcessId::from_raw(i), lattice_rect(i));
    }
    oracle.flush();
    for i in 0..24 {
        oracle.insert(ProcessId::from_raw(1_000 + i), grown_rect(i * 13 % 400));
    }
    oracle.insert(ProcessId::from_raw(40), lattice_rect(7));
    assert!(oracle.remove(ProcessId::from_raw(1_005), &grown_rect(65)));
    for i in (0..400).step_by(11) {
        assert!(oracle.remove(ProcessId::from_raw(i), &lattice_rect(i)));
    }
    oracle
}

fn batch_answers(oracle: &mut ShardedOracle<2>, probes: &[Point<2>]) -> Vec<Vec<ProcessId>> {
    let mut batch = BatchMatches::new();
    oracle.match_batch_into(probes, &mut batch);
    (0..probes.len())
        .map(|i| batch.matches(i).to_vec())
        .collect()
}

/// Both compaction modes run one merge routine on the same frozen
/// input, so when no mutation lands mid-merge they must leave
/// byte-identical shards. A seeded insert/remove/move script drives a
/// synchronous and a concurrent oracle in lockstep (the concurrent one
/// drained after every flush); after every round their snapshots and
/// batched answers agree, and compactions really ran.
#[test]
fn synchronous_and_concurrent_compaction_write_the_same_bytes() {
    let mut sync: ShardedOracle<2> = ShardedOracle::new(4);
    let mut conc: ShardedOracle<2> = ShardedOracle::new(4);
    conc.set_compaction_mode(CompactionMode::Concurrent);
    for oracle in [&mut sync, &mut conc] {
        // Enough workers that concurrent merges are never staggered
        // to a later flush than their synchronous twins.
        oracle.set_threads(4);
        oracle.set_delta_fraction(0.05);
        for i in 0..400 {
            oracle.insert(ProcessId::from_raw(i), lattice_rect(i));
        }
    }
    let mut live: Vec<(ProcessId, Rect<2>)> = (0..400)
        .map(|i| (ProcessId::from_raw(i), lattice_rect(i)))
        .collect();
    let probes: Vec<Point<2>> = (0..400).map(|i| grown_rect(i).center()).collect();
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = |bound: usize| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize % bound
    };
    let mut next_id = 1_000u64;
    let mut compactions = 0;
    for round in 0..12 {
        for _ in 0..40 {
            match next(3) {
                0 => {
                    let rect = grown_rect(next(400) as u64);
                    let id = ProcessId::from_raw(next_id);
                    next_id += 1;
                    sync.insert(id, rect);
                    conc.insert(id, rect);
                    live.push((id, rect));
                }
                1 => {
                    let (id, rect) = live.swap_remove(next(live.len()));
                    assert!(sync.remove(id, &rect) && conc.remove(id, &rect));
                }
                _ => {
                    let at = next(live.len());
                    let (id, old) = live[at];
                    let shift = next(5) as f64 * 0.5;
                    let new = Rect::new(
                        [old.lo(0) + shift, old.lo(1)],
                        [old.hi(0) + shift, old.hi(1)],
                    );
                    assert!(sync.move_entry(id, &old, new) && conc.move_entry(id, &old, new));
                    live[at].1 = new;
                }
            }
        }
        let flush = sync.flush();
        conc.flush();
        conc.finish_compactions();
        compactions += flush.compacted_shards;
        assert_eq!(
            sync.snapshot_bytes(),
            conc.snapshot_bytes(),
            "round {round}"
        );
        assert_eq!(
            batch_answers(&mut sync, &probes),
            batch_answers(&mut conc, &probes),
            "round {round}"
        );
    }
    assert!(compactions >= 4, "the script compacted {compactions} times");
    assert_eq!(sync.compaction_count(), conc.compaction_count());
}

/// Length and `drtree_rtree::bytes::checksum` of
/// `mid_churn_oracle().snapshot_bytes()`, captured at the commit before
/// the snapshot layout flags were retired: the one layout left must
/// keep writing exactly these bytes.
const PINNED_ORACLE_LEN: usize = 21_888;
const PINNED_ORACLE_DIGEST: u64 = 5_284_150_828_768_739_670;

#[test]
fn oracle_snapshot_bytes_match_the_pinned_digest_and_resave_identically() {
    use drtree_rtree::bytes::checksum;

    let bytes = mid_churn_oracle().snapshot_bytes();
    assert_eq!(
        (bytes.len(), checksum(&bytes)),
        (PINNED_ORACLE_LEN, PINNED_ORACLE_DIGEST),
        "snapshot_bytes() no longer writes the bytes it always wrote"
    );
    let restored = ShardedOracle::<2>::restore_bytes(bytes.clone()).expect("restores");
    restored.verify_snapshot().expect("bulk checksums hold");
    let resaved = restored.snapshot_bytes();
    assert_eq!(resaved, bytes, "restore → snapshot must be the identity");
    let again = ShardedOracle::<2>::restore_bytes(resaved)
        .expect("restores")
        .snapshot_bytes();
    assert_eq!(again, bytes);
}

/// A `DRTC` core header whose flags word carries one of the retired
/// layout bits (`quantize_interior` = 1, `aligned_fanout` = 2) is what
/// a checkpoint cut by an older build with those options looks like;
/// `restore_bytes` must refuse it with a typed error, in whichever
/// shard it sits.
#[test]
fn oracle_restore_refuses_retired_layout_flags() {
    use drtree_rtree::SnapshotError;

    let good = mid_churn_oracle().snapshot_bytes();
    // Every section starts on a 64-byte line; the shard cores are the
    // lines that open with the core magic.
    let cores: Vec<usize> = (0..good.len())
        .step_by(64)
        .filter(|&at| &good[at..at + 4] == b"DRTC")
        .collect();
    assert_eq!(cores.len(), 4, "one core per shard");
    for &core in &cores {
        for bits in [1u8, 2, 3] {
            let mut stamped = good.clone();
            stamped[core + 6] = bits;
            match ShardedOracle::<2>::restore_bytes(stamped) {
                Err(SnapshotError::Corrupt("unknown layout flags")) => {}
                Err(other) => panic!("core at {core}, flags {bits}: wrong error {other:?}"),
                Ok(_) => panic!("core at {core}, flags {bits}: a retired layout was served"),
            }
        }
    }
    assert!(ShardedOracle::<2>::restore_bytes(good).is_ok());
}

/// Four restored shards serve off one shared buffer; writing inside
/// one of them (an in-place move, a compaction) must copy that shard's
/// columns out and leave everything else — the other shards' answers,
/// the buffer's stored checksums, a reader snapshot taken earlier —
/// exactly as it was.
#[test]
fn restored_shards_copy_on_write_in_isolation() {
    let mut source = mid_churn_oracle();
    let mut restored =
        ShardedOracle::<2>::restore_bytes(source.snapshot_bytes()).expect("restores");
    let first = restored.flush(); // rebuilds the derived structures only
    assert_eq!(
        first.compacted_shards, 0,
        "the restored delta is under budget"
    );

    // Every live entry with the shard it restored into.
    let live: Vec<(ProcessId, Rect<2>, usize)> = source
        .entries()
        .into_iter()
        .map(|(id, rect)| {
            let shard = restored.shard_of(&rect).expect("restored with its map");
            (id, rect, shard)
        })
        .collect();
    let mover = *live
        .iter()
        .find(|&&(id, _, shard)| id.raw() < 400 && shard == 0)
        .expect("shard 0 is populated");
    let shard_one: Vec<Rect<2>> = live
        .iter()
        .filter(|&&(id, _, shard)| id.raw() < 400 && shard == 1)
        .map(|&(_, rect, _)| rect)
        .collect();
    assert!(shard_one.len() > 50, "shard 1 is populated");
    let untouched: Vec<Point<2>> = live
        .iter()
        .filter(|&&(_, _, shard)| shard >= 2)
        .map(|(_, rect, _)| rect.center())
        .collect();
    assert!(untouched.len() > 50, "shards 2 and 3 are populated");
    let all_probes: Vec<Point<2>> = live.iter().map(|(_, rect, _)| rect.center()).collect();

    let want_untouched = batch_answers(&mut restored, &untouched);
    let reader = restored.snapshot();
    let want_reader: Vec<Vec<ProcessId>> =
        all_probes.iter().map(|p| reader.match_point(p)).collect();

    // Write inside shard 0: a nudge that stays in the entry's leaf
    // region, so the packed slot is rewritten in place.
    let (lo, hi) = (
        [mover.1.lo(0), mover.1.lo(1)],
        [mover.1.hi(0), mover.1.hi(1)],
    );
    let nudged = Rect::new([lo[0] + 0.25, lo[1] + 0.25], [hi[0] - 0.25, hi[1] - 0.25]);
    let in_place_before = restored.moved_in_place_total();
    assert!(restored.move_entry(mover.0, &mover.1, nudged));
    // Compact shard 1 alone: newcomers over rectangles it already
    // holds push its delta, and nobody else's, past the budget.
    for (i, rect) in shard_one.iter().take(40).enumerate() {
        restored.insert(ProcessId::from_raw(5_000 + i as u64), *rect);
    }
    let flush = restored.flush();
    assert!(!flush.rebalanced, "the writes stayed inside the world");
    assert_eq!(flush.compacted_shards, 1);
    assert_eq!(restored.moved_in_place_total(), in_place_before + 1);

    assert_eq!(batch_answers(&mut restored, &untouched), want_untouched);
    restored
        .verify_snapshot()
        .expect("the shared buffer still matches its stored checksums");
    let got_reader: Vec<Vec<ProcessId>> =
        all_probes.iter().map(|p| reader.match_point(p)).collect();
    assert_eq!(
        got_reader, want_reader,
        "the reader answers as of its snapshot"
    );
    let mut hits = Vec::new();
    restored.match_point_into(&shard_one[0].center(), &mut hits);
    assert!(hits.contains(&ProcessId::from_raw(5_000)));
}
