//! Mobility property suite: the sharded oracle under interleaved
//! move/subscribe/unsubscribe/publish sequences — every shard count,
//! fused and fanned, compaction straddling the move stream — is pinned
//! op-for-op to the linear-scan [`Reference`] (zero false negatives),
//! TTL leases armed, re-armed, moved and expired along the way; lease
//! expiry stays exact mid-sequence, on delta-staged entries, on a
//! snapshot-restored oracle before its first flush, and never outlives
//! the entry it was armed on; seeded motion models drive whole
//! trajectories through the move path with per-tick delivery sets
//! pinned; and the broker layers serialize `move_subscription` with
//! publishes.

use std::collections::BTreeMap;

use drtree_core::{DrTreeConfig, ProcessId};
use drtree_pubsub::{
    AuditRecord, Broker, BrokerError, CompactionMode, IngressConfig, MultiBroker, ShardedOracle,
};
use drtree_spatial::reference::Reference;
use drtree_spatial::{Point, Rect, Schema};
use drtree_workloads::{MotionField, MotionModel};
use proptest::prelude::*;
use proptest::strategy::Just;

fn schema() -> Schema {
    Schema::new(["x", "y"])
}

#[derive(Debug, Clone)]
enum Op {
    Subscribe(Rect<2>),
    UnsubscribeNth(usize),
    /// Move the n-th (mod live) entry to a fresh rectangle.
    MoveNth(usize, Rect<2>),
    Publish(Point<2>),
    /// Force a maintenance pass mid-sequence, so moves straddle
    /// compactions and (in concurrent mode) background merges.
    Flush,
    /// Arm (or re-arm) a lease with this deadline on the n-th (mod
    /// live) entry.
    Lease(usize, u64),
    /// Expire every lease whose deadline is `<=` this clock.
    Expire(u64),
}

fn arb_rect() -> impl Strategy<Value = Rect<2>> {
    (0.0f64..400.0, 0.0f64..400.0, 0.1f64..60.0, 0.1f64..60.0)
        .prop_map(|(x, y, w, h)| Rect::new([x, y], [x + w, y + h]))
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => arb_rect().prop_map(Op::Subscribe),
        1 => (0usize..256).prop_map(Op::UnsubscribeNth),
        4 => ((0usize..256), arb_rect()).prop_map(|(n, r)| Op::MoveNth(n, r)),
        3 => (0.0f64..460.0, 0.0f64..460.0)
            .prop_map(|(x, y)| Op::Publish(Point::new([x, y]))),
        1 => Just(Op::Flush),
        1 => ((0usize..256), (0u64..40)).prop_map(|(n, d)| Op::Lease(n, d)),
        1 => (0u64..40).prop_map(Op::Expire),
    ]
}

/// `0.05` compacts aggressively (moves straddle compactions), the
/// default rarely, `1e9` never (the whole sequence lives in the delta
/// layer).
fn arb_delta_fraction() -> impl Strategy<Value = f64> {
    prop::sample::select(vec![0.05, drtree_rtree::DEFAULT_DELTA_FRACTION, 1e9])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline exactness pin: interleaved moves, membership
    /// churn, lease arming and expiry, publishes, and flushes for
    /// K = 1, 2, 4, 7 shards — both the fused single-thread fan and the
    /// parallel one, synchronous and background compaction — always
    /// match the reference, with zero false negatives. The reference's
    /// lease map follows moves and drops with removals; expiry must
    /// evict exactly the entries it holds as due.
    #[test]
    fn moving_hit_sets_match_rebuild_reference(
        ops in prop::collection::vec(arb_op(), 1..100),
        fraction in arb_delta_fraction(),
    ) {
        for shards in [1usize, 2, 4, 7] {
            for (threads, mode) in [
                (1usize, CompactionMode::Synchronous),
                (4usize, CompactionMode::Concurrent),
            ] {
                let mut oracle: ShardedOracle<2> = ShardedOracle::new(shards);
                oracle.set_delta_fraction(fraction);
                oracle.set_threads(threads);
                oracle.set_compaction_mode(mode);
                let mut model = Reference::new();
                let mut leases: BTreeMap<ProcessId, (Rect<2>, u64)> = BTreeMap::new();
                let mut next_id = 0u64;
                let mut moves = 0u64;
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
                                prop_assert!(oracle.remove(id, &rect));
                                leases.remove(&id);
                            }
                        }
                        Op::MoveNth(n, new) => {
                            if let Some((id, old)) = model.move_nth(*n, *new) {
                                prop_assert!(
                                    oracle.move_entry(id, &old, *new),
                                    "K={shards}: live entry {id} must be movable"
                                );
                                if let Some((rect, _)) = leases.get_mut(&id) {
                                    *rect = *new;
                                }
                                moves += 1;
                            }
                        }
                        Op::Publish(point) => {
                            oracle.match_point_into(point, &mut hits);
                            let want = model.matching(point);
                            prop_assert_eq!(
                                &hits, &want,
                                "K={} threads={} fraction={} at {:?}",
                                shards, threads, fraction, point
                            );
                        }
                        Op::Flush => {
                            oracle.flush();
                        }
                        Op::Lease(n, deadline) => {
                            if !model.is_empty() {
                                let (id, rect) = model.entries()[n % model.len()];
                                prop_assert!(oracle.set_lease(id, &rect, *deadline));
                                leases.insert(id, (rect, *deadline));
                            }
                        }
                        Op::Expire(now) => {
                            let due: Vec<(ProcessId, Rect<2>)> = leases
                                .iter()
                                .filter(|&(_, &(_, deadline))| deadline <= *now)
                                .map(|(&id, &(rect, _))| (id, rect))
                                .collect();
                            for (id, rect) in &due {
                                prop_assert!(model.remove(*id, rect));
                                leases.remove(id);
                            }
                            prop_assert_eq!(oracle.expire_leases(*now), due.len());
                        }
                    }
                    prop_assert_eq!(oracle.len(), model.len());
                    prop_assert_eq!(oracle.lease_count(), leases.len());
                }
                // Every move is accounted exactly once, as either a
                // same-shard delta patch or a boundary re-key.
                oracle.finish_compactions();
                prop_assert_eq!(
                    oracle.moved_in_place_total() + oracle.rekeyed_total(),
                    moves
                );
            }
        }
    }

    /// Full seeded trajectories through the move path: every tick of
    /// every motion model translates the whole population via
    /// `move_entry`, and each tick's delivery set is pinned to the
    /// reference — with compaction both never and always straddling the
    /// tick stream.
    #[test]
    fn motion_model_ticks_stay_exact(
        seed in any::<u64>(),
        model_pick in 0usize..3,
        fraction in prop::sample::select(vec![0.05, 1e9]),
    ) {
        let world = Rect::new([0.0, 0.0], [100.0, 100.0]);
        let motion = match model_pick {
            0 => MotionModel::RandomWaypoint { min_speed: 0.5, max_speed: 6.0 },
            1 => MotionModel::HotspotDrift {
                hotspots: 3,
                pull: 0.3,
                jitter: 1.0,
                drift: 2.0,
            },
            _ => MotionModel::FlashCrowd { pull: 0.4, jitter: 0.5, relocate_every: 4 },
        };
        let initial: Vec<Rect<2>> = (0..60)
            .map(|i| {
                let x = (i % 10) as f64 * 9.0;
                let y = (i / 10) as f64 * 14.0;
                Rect::new([x, y], [x + 4.0, y + 4.0])
            })
            .collect();
        let mut field = MotionField::new(motion, world, initial, seed);

        let mut oracle: ShardedOracle<2> = ShardedOracle::new(4);
        oracle.set_delta_fraction(fraction);
        let mut model: Reference<ProcessId, 2> = field
            .rects()
            .iter()
            .enumerate()
            .map(|(i, r)| (ProcessId::from_raw(i as u64), *r))
            .collect();
        for &(id, rect) in model.entries() {
            oracle.insert(id, rect);
        }
        oracle.flush();

        let mut deltas = Vec::new();
        let mut hits = Vec::new();
        for tick in 0..8u64 {
            field.step_into(&mut deltas);
            for &(mover, new) in &deltas {
                let (id, old) = model.move_nth(mover as usize, new).expect("populated");
                prop_assert!(oracle.move_entry(id, &old, new));
            }
            // Probe a small grid over the world each tick; the oracle
            // must agree with the reference everywhere (zero false
            // negatives, zero false positives).
            for gx in 0..4 {
                for gy in 0..4 {
                    let p = Point::new([gx as f64 * 30.0 + 2.0, gy as f64 * 30.0 + 2.0]);
                    oracle.match_point_into(&p, &mut hits);
                    prop_assert_eq!(
                        &hits, &model.matching(&p),
                        "tick {} probe ({},{}) diverged", tick, gx, gy
                    );
                }
            }
        }
    }
}

#[test]
fn lease_expiry_mid_sequence_stays_exact() {
    let mut oracle: ShardedOracle<2> = ShardedOracle::new(2);
    let mut model: Reference<ProcessId, 2> = (0..30)
        .map(|i| {
            let x = (i % 6) as f64 * 15.0;
            let y = (i / 6) as f64 * 18.0;
            (
                ProcessId::from_raw(i as u64),
                Rect::new([x, y], [x + 10.0, y + 10.0]),
            )
        })
        .collect();
    for &(id, rect) in model.entries() {
        oracle.insert(id, rect);
    }
    oracle.flush();

    // Arm staggered leases on the first six entries, then interleave
    // moves with clock advances — expiry in the middle of a "tick" of
    // motion must evict exactly the overdue entries and nothing else.
    for (i, &(id, rect)) in model.entries().iter().take(6).enumerate() {
        assert!(oracle.set_lease(id, &rect, (i as u64 + 1) * 10));
    }
    let mut hits = Vec::new();
    for step in 0..6u64 {
        // Move one un-leased entry mid-tick.
        let i = 10 + step as usize;
        let (_, old) = model.entries()[i];
        let new = Rect::new(
            [old.lo(0) + 1.0, old.lo(1) + 1.0],
            [old.hi(0) + 1.0, old.hi(1) + 1.0],
        );
        let (id, _) = model.move_nth(i, new).expect("populated");
        assert!(oracle.move_entry(id, &old, new));

        let now = (step + 1) * 10;
        let expired = oracle.expire_leases(now);
        assert_eq!(expired, 1, "exactly one lease crosses each deadline");
        model.remove_nth(0);

        for probe in 0..8 {
            let p = Point::new([probe as f64 * 12.0 + 1.0, probe as f64 * 11.0 + 1.0]);
            oracle.match_point_into(&p, &mut hits);
            assert_eq!(hits, model.matching(&p), "step {step}");
        }
        assert_eq!(oracle.len(), model.len());
    }
    assert_eq!(oracle.leases_expired_total(), 6);
    assert_eq!(oracle.lease_count(), 0);
}

#[test]
fn lease_expiry_evicts_entries_still_staged_in_the_delta_layer() {
    // No flush ever runs: every entry lives in shard 0's staged tier
    // when its lease fires.
    let mut oracle: ShardedOracle<2> = ShardedOracle::new(3);
    let rect = Rect::new([5.0, 5.0], [10.0, 10.0]);
    let keeper = Rect::new([20.0, 20.0], [30.0, 30.0]);
    oracle.insert(ProcessId::from_raw(1), rect);
    oracle.insert(ProcessId::from_raw(2), keeper);
    assert!(oracle.set_lease(ProcessId::from_raw(1), &rect, 7));
    assert_eq!(oracle.expire_leases(6), 0);
    assert_eq!(oracle.expire_leases(7), 1);
    assert_eq!(oracle.len(), 1);

    let mut hits = Vec::new();
    oracle.match_point_into(&Point::new([6.0, 6.0]), &mut hits);
    assert!(hits.is_empty(), "the staged entry is gone");
    oracle.match_point_into(&Point::new([25.0, 25.0]), &mut hits);
    assert_eq!(hits, vec![ProcessId::from_raw(2)]);
    assert_eq!(oracle.leases_expired_total(), 1);
}

#[test]
fn lease_expiry_works_on_a_restored_oracle_before_its_first_flush() {
    // Build an oracle with both packed and staged tiers populated,
    // snapshot it, restore — and drive expiry while the restored
    // oracle's derived structures (stab grids, id counts) are still
    // stale. Leases are deliberately not serialized, so they are
    // re-armed on the restored instance.
    let mut oracle: ShardedOracle<2> = ShardedOracle::new(2);
    let packed_rect = Rect::new([0.0, 0.0], [10.0, 10.0]);
    let staged_rect = Rect::new([50.0, 50.0], [60.0, 60.0]);
    let keeper = Rect::new([80.0, 80.0], [90.0, 90.0]);
    oracle.insert(ProcessId::from_raw(1), packed_rect);
    oracle.insert(ProcessId::from_raw(3), keeper);
    oracle.flush();
    oracle.insert(ProcessId::from_raw(2), staged_rect);

    let bytes = oracle.snapshot_bytes();
    let mut restored: ShardedOracle<2> = ShardedOracle::restore_bytes(bytes).expect("round-trip");
    assert_eq!(
        restored.lease_count(),
        0,
        "leases never travel in snapshots"
    );

    // Arm and expire on both tiers before anything flushes.
    assert!(restored.set_lease(ProcessId::from_raw(1), &packed_rect, 5));
    assert!(restored.set_lease(ProcessId::from_raw(2), &staged_rect, 5));
    assert_eq!(restored.expire_leases(5), 2);
    assert_eq!(restored.len(), 1);

    let mut hits = Vec::new();
    restored.match_point_into(&Point::new([5.0, 5.0]), &mut hits);
    assert!(hits.is_empty());
    restored.match_point_into(&Point::new([55.0, 55.0]), &mut hits);
    assert!(hits.is_empty());
    restored.match_point_into(&Point::new([85.0, 85.0]), &mut hits);
    assert_eq!(hits, vec![ProcessId::from_raw(3)]);
    assert_eq!(restored.leases_expired_total(), 2);
}

#[test]
fn a_removed_entrys_lease_does_not_evict_its_reinsertion() {
    let mut oracle: ShardedOracle<2> = ShardedOracle::new(2);
    let id = ProcessId::from_raw(1);
    let rect = Rect::new([0.0, 0.0], [10.0, 10.0]);
    oracle.insert(id, rect);
    assert!(oracle.set_lease(id, &rect, 5));
    assert!(oracle.remove(id, &rect));
    oracle.insert(id, rect);
    assert_eq!(
        oracle.expire_leases(5),
        0,
        "the reinserted entry holds no lease"
    );
    assert_eq!(oracle.len(), 1);
    assert_eq!(oracle.lease_count(), 0);
    let mut hits = Vec::new();
    oracle.match_point_into(&Point::new([5.0, 5.0]), &mut hits);
    assert_eq!(hits, vec![id]);
}

#[test]
fn counters_distinguish_in_place_moves_from_rekeys() {
    let mut oracle: ShardedOracle<2> = ShardedOracle::new(4);
    let mut model: Reference<ProcessId, 2> = (0..64)
        .map(|i| {
            let x = (i % 8) as f64 * 12.0;
            let y = (i / 8) as f64 * 12.0;
            (
                ProcessId::from_raw(i as u64),
                Rect::new([x, y], [x + 5.0, y + 5.0]),
            )
        })
        .collect();
    for &(id, rect) in model.entries() {
        oracle.insert(id, rect);
    }
    oracle.flush();

    // Find one move that stays on its shard and one that crosses a
    // boundary, using the oracle's own assignment function.
    let candidates: Vec<Rect<2>> = (0..64)
        .map(|i| {
            let x = (i % 8) as f64 * 12.0 + 2.0;
            let y = (i / 8) as f64 * 12.0 + 2.0;
            Rect::new([x, y], [x + 5.0, y + 5.0])
        })
        .collect();
    let (id, old) = model.entries()[0];
    let home = oracle.shard_of(&old).expect("flushed oracle has a map");
    let same = *candidates
        .iter()
        .find(|c| oracle.shard_of(c) == Some(home) && **c != old)
        .expect("some candidate shares the shard");
    assert!(oracle.move_entry(id, &old, same));
    model.move_nth(0, same);
    assert_eq!(oracle.moved_in_place_total(), 1);
    assert_eq!(oracle.rekeyed_total(), 0);

    let away = *candidates
        .iter()
        .find(|c| oracle.shard_of(c).is_some_and(|s| s != home))
        .expect("some candidate crosses the boundary");
    assert!(oracle.move_entry(id, &same, away));
    model.move_nth(0, away);
    assert_eq!(oracle.moved_in_place_total(), 1);
    assert_eq!(oracle.rekeyed_total(), 1);

    // Both kinds of move stay exact.
    let mut hits = Vec::new();
    for (_, rect) in model.entries() {
        let p = Point::new([rect.lo(0) + 1.0, rect.lo(1) + 1.0]);
        oracle.match_point_into(&p, &mut hits);
        assert_eq!(hits, model.matching(&p));
    }

    // A flush drains the pending counters into its report and the
    // lifetime totals keep the same answer.
    oracle.flush();
    assert_eq!(oracle.moved_in_place_total(), 1);
    assert_eq!(oracle.rekeyed_total(), 1);
}

#[test]
fn broker_move_subscription_keeps_identity_and_delivery_exact() {
    let mut broker: Broker<2> = Broker::new(schema(), DrTreeConfig::default(), 7).unwrap();
    let here = Rect::new([0.0, 0.0], [10.0, 10.0]);
    let there = Rect::new([50.0, 50.0], [60.0, 60.0]);
    let mover = broker.subscribe_rect(here);
    let publisher = broker.subscribe_rect(Rect::new([0.0, 0.0], [100.0, 100.0]));
    let witness = broker.subscribe_rect(Rect::new([4.0, 4.0], [6.0, 6.0]));

    let p_here = Point::new([5.0, 5.0]);
    let report = broker.publish_point(publisher, p_here).unwrap();
    assert!(report.receivers.contains(&mover));
    assert!(report.false_negatives.is_empty());

    // Move away: same id, no rejoin, deliveries follow immediately.
    broker.move_subscription_rect(mover, there).unwrap();
    assert_eq!(broker.subscriptions().get(&mover), Some(&there));
    let report = broker.publish_point(publisher, p_here).unwrap();
    assert!(!report.receivers.contains(&mover));
    assert!(report.receivers.contains(&witness));
    assert!(report.false_negatives.is_empty());

    let report = broker
        .publish_point(publisher, Point::new([55.0, 55.0]))
        .unwrap();
    assert!(report.receivers.contains(&mover));
    assert!(report.false_negatives.is_empty());

    // The move is counted once, on the broker's oracle.
    broker.flush_oracle();
    let oracle = broker.oracle();
    assert_eq!(oracle.moved_in_place_total() + oracle.rekeyed_total(), 1);
}

#[test]
fn broker_rejects_immobile_targets() {
    use drtree_spatial::filter::Op;
    use drtree_spatial::FilterExpr;
    let mut broker: Broker<2> = Broker::new(schema(), DrTreeConfig::default(), 11).unwrap();
    let rect = Rect::new([0.0, 0.0], [5.0, 5.0]);
    assert_eq!(
        broker.move_subscription_rect(ProcessId::from_raw(424_242), rect),
        Err(BrokerError::UnknownSubscriber(ProcessId::from_raw(424_242)))
    );
    let band = |lo: f64, hi: f64| {
        FilterExpr::new()
            .and("x", Op::Ge, lo)
            .and("x", Op::Le, hi)
            .and("y", Op::Ge, lo)
            .and("y", Op::Le, hi)
    };
    let set = broker
        .subscribe_set(&[band(0.0, 5.0), band(20.0, 25.0)])
        .unwrap();
    assert_eq!(
        broker.move_subscription_rect(set, rect),
        Err(BrokerError::SetSubscriberImmobile(set))
    );
}

#[test]
fn multibroker_moves_serialize_with_commits_and_replay_exactly() {
    let broker: Broker<2> = Broker::new(schema(), DrTreeConfig::default(), 21).unwrap();
    let multi = MultiBroker::new(
        broker,
        IngressConfig {
            audit_log: true,
            ..IngressConfig::default()
        },
    );
    let here = Rect::new([0.0, 0.0], [10.0, 10.0]);
    let there = Rect::new([70.0, 70.0], [80.0, 80.0]);
    let mover = multi.subscribe_rect(here);
    let handle = multi.add_publisher(Rect::new([0.0, 0.0], [100.0, 100.0]));

    let p = Point::new([5.0, 5.0]);
    handle.publish(p).unwrap();
    multi.drain();
    multi.move_subscription(mover, there).unwrap();
    handle.publish(p).unwrap();
    handle.publish(Point::new([75.0, 75.0])).unwrap();
    multi.drain();

    let audit = multi.take_audit();
    multi.finish();

    // The audit interleaves the move between the commits, and a fresh
    // sequential broker replaying it reproduces every delivery set.
    assert!(audit
        .iter()
        .any(|r| matches!(r, AuditRecord::Move { id, rect } if *id == mover && *rect == there)));
    let mut reference: Broker<2> = Broker::new(schema(), DrTreeConfig::default(), 21).unwrap();
    let mut seen_mover_at = Vec::new();
    for record in &audit {
        match record {
            AuditRecord::Subscribe { id, rect } => {
                assert_eq!(reference.subscribe_rect(*rect), *id);
            }
            AuditRecord::Unsubscribe { id } => {
                reference.unsubscribe(*id).unwrap();
            }
            AuditRecord::Move { id, rect } => {
                reference.move_subscription_rect(*id, *rect).unwrap();
            }
            AuditRecord::Stabilize { max_rounds } => {
                reference.stabilize(*max_rounds);
            }
            AuditRecord::Commit {
                publisher,
                point,
                receivers,
                ..
            } => {
                let report = reference.publish_point(*publisher, *point).unwrap();
                let mut got = report.receivers.clone();
                got.sort_unstable();
                assert_eq!(&got, receivers, "replay diverged");
                assert!(report.false_negatives.is_empty());
                seen_mover_at.push(receivers.contains(&mover));
            }
        }
    }
    // Delivery flips exactly with the move: at p before the move, not
    // at p after, back in range at the new home.
    assert_eq!(seen_mover_at, vec![true, false, true]);
}
