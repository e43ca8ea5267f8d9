//! Broker-level integration tests: the attribute-space API end to end,
//! with matching sets written out by hand or checked through each
//! report's false-negative audit against the broker's own oracle.

use drtree_core::DrTreeConfig;
use drtree_pubsub::{Broker, BrokerError};
use drtree_spatial::{Event, FilterExpr, Op, Rect, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn schema() -> Schema {
    Schema::new(["x", "y"])
}

fn box_filter(x: f64, y: f64, w: f64, h: f64) -> FilterExpr {
    FilterExpr::new()
        .and("x", Op::Ge, x)
        .and("x", Op::Le, x + w)
        .and("y", Op::Ge, y)
        .and("y", Op::Le, y + h)
}

#[test]
fn schema_mismatch_rejected() {
    let result: Result<Broker<3>, _> = Broker::new(schema(), DrTreeConfig::default(), 1);
    assert!(matches!(
        result,
        Err(BrokerError::SchemaDimensionMismatch {
            expected: 3,
            schema: 2
        })
    ));
}

#[test]
fn subscribe_publish_unsubscribe_lifecycle() {
    let mut broker: Broker<2> = Broker::new(schema(), DrTreeConfig::default(), 2).unwrap();
    let a = broker.subscribe(&box_filter(0.0, 0.0, 10.0, 10.0)).unwrap();
    let b = broker.subscribe(&box_filter(5.0, 5.0, 10.0, 10.0)).unwrap();
    let c = broker.subscribe(&box_filter(50.0, 50.0, 5.0, 5.0)).unwrap();
    assert_eq!(broker.len(), 3);

    // Event in the overlap of a and b, published by c.
    let report = broker
        .publish(c, &Event::new().with("x", 7.0).with("y", 7.0))
        .unwrap();
    let mut matching = report.matching.clone();
    matching.sort_unstable();
    assert_eq!(matching, vec![a, b]);
    assert!(report.false_negatives.is_empty());

    broker.unsubscribe(b).unwrap();
    broker.stabilize(2_000).expect("stabilizes after leave");
    let report = broker
        .publish(c, &Event::new().with("x", 7.0).with("y", 7.0))
        .unwrap();
    assert_eq!(report.matching, vec![a]);
    assert!(report.false_negatives.is_empty());

    assert!(matches!(
        broker.unsubscribe(b),
        Err(BrokerError::UnknownSubscriber(_))
    ));
}

#[test]
fn invalid_filters_and_events_are_rejected() {
    let mut broker: Broker<2> = Broker::new(schema(), DrTreeConfig::default(), 3).unwrap();
    assert!(matches!(
        broker.subscribe(&FilterExpr::new().and("z", Op::Eq, 1.0)),
        Err(BrokerError::Filter(_))
    ));
    let a = broker.subscribe(&box_filter(0.0, 0.0, 1.0, 1.0)).unwrap();
    assert!(matches!(
        broker.publish(a, &Event::new().with("x", 1.0)), // y missing
        Err(BrokerError::Filter(_))
    ));
}

#[test]
fn randomized_workload_has_zero_false_negatives_and_low_fp() {
    let mut broker: Broker<2> = Broker::new(schema(), DrTreeConfig::default(), 5).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let mut ids = Vec::new();
    for _ in 0..50 {
        let x = rng.gen_range(0.0..90.0);
        let y = rng.gen_range(0.0..90.0);
        let w = rng.gen_range(2.0..20.0);
        let h = rng.gen_range(2.0..20.0);
        ids.push(broker.subscribe(&box_filter(x, y, w, h)).unwrap());
    }
    for i in 0..40 {
        let publisher = ids[i % ids.len()];
        let ev = Event::new()
            .with("x", rng.gen_range(0.0..100.0))
            .with("y", rng.gen_range(0.0..100.0));
        broker.publish(publisher, &ev).unwrap();
    }
    let stats = *broker.stats();
    assert_eq!(stats.false_negatives(), 0, "{stats}");
    assert_eq!(stats.unconverged(), 0, "a join's repair ran out of budget");
    assert_eq!(stats.events(), 40);
    // Uniform low-selectivity workloads are the adversarial case for
    // per-delivery FP (most deliveries are the up-path); the population-
    // relative disturbance must still be small, and the message cost
    // logarithmic. The paper's 2–3% claim is reproduced with the
    // containment/clustered workloads in the experiment harness.
    let population_fp =
        stats.false_positives() as f64 / (stats.events() as f64 * (ids.len() as f64 - 1.0));
    assert!(
        population_fp < 0.15,
        "population FP rate too high: {population_fp} ({stats})"
    );
    assert!(
        stats.messages_per_event() < 20.0,
        "message cost not logarithmic: {stats}"
    );
}

#[test]
fn subscribe_rect_matches_subscribe_expr() {
    let mut broker: Broker<2> = Broker::new(schema(), DrTreeConfig::default(), 6).unwrap();
    let via_expr = broker.subscribe(&box_filter(0.0, 0.0, 4.0, 4.0)).unwrap();
    let via_rect = broker.subscribe_rect(Rect::new([0.0, 0.0], [4.0, 4.0]));
    let subs = broker.subscriptions();
    assert_eq!(subs[&via_expr], subs[&via_rect]);
}

#[test]
fn resubscribe_updates_the_filter() {
    let mut broker: Broker<2> = Broker::new(schema(), DrTreeConfig::default(), 8).unwrap();
    let publisher = broker.subscribe(&box_filter(90.0, 90.0, 5.0, 5.0)).unwrap();
    let old = broker.subscribe(&box_filter(0.0, 0.0, 10.0, 10.0)).unwrap();
    broker.stabilize(2_000).unwrap();

    // The old filter matches (5, 5); update it away and verify.
    let event = Event::new().with("x", 5.0).with("y", 5.0);
    let report = broker.publish(publisher, &event).unwrap();
    assert_eq!(report.matching, vec![old]);

    let new = broker
        .resubscribe(old, &box_filter(50.0, 50.0, 10.0, 10.0))
        .unwrap();
    assert_ne!(new, old);
    broker.stabilize(2_000).unwrap();

    let report = broker.publish(publisher, &event).unwrap();
    assert!(report.matching.is_empty(), "old filter still matching");
    let moved = Event::new().with("x", 55.0).with("y", 55.0);
    let report = broker.publish(publisher, &moved).unwrap();
    assert_eq!(report.matching, vec![new]);
    assert!(matches!(
        broker.resubscribe(old, &box_filter(0.0, 0.0, 1.0, 1.0)),
        Err(BrokerError::UnknownSubscriber(_))
    ));
}

#[test]
fn subscription_sets_match_any_member() {
    let mut broker: Broker<2> = Broker::new(schema(), DrTreeConfig::default(), 9).unwrap();
    let publisher = broker.subscribe(&box_filter(90.0, 90.0, 5.0, 5.0)).unwrap();
    // One subscriber interested in two disjoint regions (§2.1's set).
    let multi = broker
        .subscribe_set(&[
            box_filter(0.0, 0.0, 10.0, 10.0),
            box_filter(50.0, 50.0, 10.0, 10.0),
        ])
        .unwrap();
    let single = broker.subscribe(&box_filter(20.0, 20.0, 5.0, 5.0)).unwrap();
    broker.stabilize(2_000).unwrap();

    // Inside the first member.
    let r = broker
        .publish(publisher, &Event::new().with("x", 5.0).with("y", 5.0))
        .unwrap();
    assert_eq!(r.matching, vec![multi]);
    assert!(r.false_negatives.is_empty());

    // Inside the second member.
    let r = broker
        .publish(publisher, &Event::new().with("x", 55.0).with("y", 55.0))
        .unwrap();
    assert_eq!(r.matching, vec![multi]);
    assert!(r.false_negatives.is_empty());

    // Between the members (inside the MBR but outside both): the
    // subscriber may *receive* it (MBR routing) but must be classified
    // as a false positive, not a match.
    let r = broker
        .publish(publisher, &Event::new().with("x", 30.0).with("y", 30.0))
        .unwrap();
    assert!(!r.matching.contains(&multi));
    if r.receivers.contains(&multi) {
        assert!(r.false_positives.contains(&multi));
    }

    // Unsubscribing a set cleans up every oracle entry.
    broker.unsubscribe(multi).unwrap();
    broker.stabilize(2_000).unwrap();
    let r = broker
        .publish(publisher, &Event::new().with("x", 5.0).with("y", 5.0))
        .unwrap();
    assert!(r.matching.is_empty());
    let _ = single;
}

#[test]
fn empty_subscription_set_rejected() {
    let mut broker: Broker<2> = Broker::new(schema(), DrTreeConfig::default(), 10).unwrap();
    assert!(matches!(
        broker.subscribe_set(&[]),
        Err(BrokerError::Filter(_))
    ));
}

#[test]
fn publish_batch_equals_sequential_publishes() {
    // Two brokers built identically; one publishes a batch, the other
    // publishes the same points one at a time. Reports and aggregate
    // stats must agree field by field.
    let build = || {
        let mut broker: Broker<2> =
            Broker::with_shards(schema(), DrTreeConfig::default(), 21, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..40 {
            let x = rng.gen_range(0.0..90.0);
            let y = rng.gen_range(0.0..90.0);
            broker.subscribe_rect(Rect::new([x, y], [x + 10.0, y + 10.0]));
        }
        // A subscription set, so batched reclassification is exercised.
        broker
            .subscribe_set(&[
                box_filter(0.0, 0.0, 8.0, 8.0),
                box_filter(70.0, 70.0, 9.0, 9.0),
            ])
            .unwrap();
        broker
    };
    let mut batched = build();
    let mut sequential = build();
    let publisher = *batched.subscriptions().keys().next().unwrap();

    let mut rng = StdRng::seed_from_u64(78);
    let points: Vec<drtree_spatial::Point<2>> = (0..25)
        .map(|_| drtree_spatial::Point::new([rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)]))
        .collect();

    let batch_reports = batched
        .publish_batch(publisher, points.clone().as_slice())
        .unwrap();
    let seq_reports: Vec<_> = points
        .iter()
        .map(|p| sequential.publish_point(publisher, *p).unwrap())
        .collect();

    assert_eq!(batch_reports.len(), seq_reports.len());
    for (b, s) in batch_reports.iter().zip(&seq_reports) {
        let sort = |v: &[drtree_core::ProcessId]| {
            let mut v = v.to_vec();
            v.sort_unstable();
            v
        };
        assert_eq!(sort(&b.matching), sort(&s.matching));
        assert_eq!(sort(&b.receivers), sort(&s.receivers));
        assert_eq!(sort(&b.false_positives), sort(&s.false_positives));
        assert_eq!(sort(&b.false_negatives), sort(&s.false_negatives));
    }
    assert_eq!(batched.stats().events(), sequential.stats().events());
    assert_eq!(
        batched.stats().deliveries(),
        sequential.stats().deliveries()
    );
    assert_eq!(
        batched.stats().false_positives(),
        sequential.stats().false_positives()
    );
    assert_eq!(
        batched.stats().false_negatives(),
        sequential.stats().false_negatives()
    );
}

#[test]
fn publish_batch_rejects_dead_publishers() {
    let mut broker: Broker<2> = Broker::new(schema(), DrTreeConfig::default(), 22).unwrap();
    let a = broker.subscribe(&box_filter(0.0, 0.0, 10.0, 10.0)).unwrap();
    broker.unsubscribe(a).unwrap();
    assert!(matches!(
        broker.publish_batch(a, &[drtree_spatial::Point::new([1.0, 1.0])]),
        Err(BrokerError::UnknownSubscriber(_))
    ));
}

#[test]
fn flush_oracle_moves_rebuild_cost_off_the_publish_path() {
    let mut broker: Broker<2> =
        Broker::with_shards(schema(), DrTreeConfig::default(), 23, 4).unwrap();
    for i in 0..32 {
        let o = f64::from(i);
        broker.subscribe_rect(Rect::new([o, o], [o + 5.0, o + 5.0]));
    }
    assert_eq!(broker.oracle().rebuild_count(), 0, "rebuilds are lazy");
    broker.flush_oracle();
    let after_flush = broker.oracle().rebuild_count();
    assert!(after_flush > 0, "eager flush rebuilds dirty shards");

    // A publish right after an eager flush pays no further rebuilds.
    let publisher = *broker.subscriptions().keys().next().unwrap();
    broker
        .publish(publisher, &Event::new().with("x", 3.0).with("y", 3.0))
        .unwrap();
    assert_eq!(broker.oracle().rebuild_count(), after_flush);

    // A second flush with nothing dirty is free.
    assert_eq!(broker.flush_oracle(), std::time::Duration::ZERO);
}

/// The root cause of the multi-publisher exactness flake, without a
/// thread in sight: a join returns once the joiner is *attached*, the
/// splits its arrival set off may still be running, and a batch
/// committed into them misses matching subscribers. Every seed below
/// yields a false negative within its first two joins when
/// `subscribe_rect` returns straight after the attach.
#[test]
fn batch_committed_right_after_a_join_misses_nobody() {
    for seed in [30u64, 116, 137, 145] {
        let mut broker: Broker<2> = Broker::new(schema(), DrTreeConfig::default(), seed).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let rect = |rng: &mut StdRng| {
            let (x, y) = (rng.gen_range(0.0..90.0), rng.gen_range(0.0..90.0));
            let (w, h) = (rng.gen_range(2.0..10.0), rng.gen_range(2.0..10.0));
            Rect::new([x, y], [x + w, y + h])
        };
        let mut ids: Vec<_> = (0..16)
            .map(|_| broker.subscribe_rect(rect(&mut rng)))
            .collect();
        for join in 0..12 {
            ids.push(broker.subscribe_rect(rect(&mut rng)));
            assert!(
                broker.cluster().check_legal().is_ok(),
                "seed {seed}: join {join} returned from an illegitimate configuration"
            );
            let events: Vec<_> = (0..16)
                .map(|i| {
                    let point = [rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)];
                    (ids[i % 4], drtree_spatial::Point::new(point))
                })
                .collect();
            for report in broker.publish_batch_multi(&events).unwrap() {
                assert!(
                    report.false_negatives.is_empty(),
                    "seed {seed}: the batch after join {join} missed {:?}",
                    report.false_negatives
                );
            }
        }
        assert_eq!(
            broker.stats().unconverged(),
            0,
            "seed {seed}: a join's repair ran out of budget"
        );
    }
}

#[test]
fn oracle_bytes_round_trip_serves_exact_matching() {
    // The durable oracle snapshot: a broker exports its subscription
    // oracle as one flat buffer; a serving replica restores it
    // zero-copy and answers the same matching sets, with no broker
    // overlay state at all.
    let mut broker: Broker<2> = Broker::new(schema(), DrTreeConfig::default(), 4).unwrap();
    let mut ids = Vec::new();
    for i in 0..64 {
        let x = (i % 8) as f64 * 10.0;
        let y = (i / 8) as f64 * 10.0;
        ids.push(broker.subscribe(&box_filter(x, y, 9.0, 9.0)).unwrap());
    }
    broker.flush_oracle();
    // Leave a live delta so the snapshot is mid-churn.
    broker.unsubscribe(ids[3]).unwrap();
    let late = broker.subscribe(&box_filter(0.0, 0.0, 25.0, 25.0)).unwrap();

    let bytes = broker.oracle().snapshot_bytes();
    let mut replica =
        drtree_pubsub::ShardedOracle::<2>::restore_bytes(bytes).expect("replica restores");
    assert_eq!(replica.len(), broker.len());

    let mut hits = Vec::new();
    replica.match_point_into(&drtree_spatial::Point::new([5.0, 5.0]), &mut hits);
    assert!(hits.contains(&ids[0]));
    assert!(hits.contains(&late), "staged subscription travelled");
    assert!(!hits.contains(&ids[3]), "tombstone travelled");
}
