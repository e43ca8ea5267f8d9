//! Cross-crate integration: workloads → overlay → broker → baselines,
//! checked against the linear-scan reference model.

use drtree::{
    baselines::{Baseline, ContainmentTreeOverlay, FloodingOverlay, PerDimensionOverlay},
    spatial::reference::Reference,
    Broker, DrTreeCluster, DrTreeConfig, EventWorkload, Point, Schema, SubscriptionWorkload,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn workload_to_broker_pipeline_has_exact_matching() {
    let mut rng = StdRng::seed_from_u64(2112);
    let filters = SubscriptionWorkload::Clustered {
        clusters: 5,
        skew: 1.0,
        spread: 4.0,
        min_extent: 3.0,
        max_extent: 15.0,
    }
    .generate::<2>(40, &mut rng);

    let schema = Schema::new(["a", "b"]);
    let mut broker: Broker<2> = Broker::new(schema, DrTreeConfig::default(), 3).unwrap();
    let ids: Vec<_> = filters.iter().map(|f| broker.subscribe_rect(*f)).collect();
    broker.stabilize(3_000).expect("stabilizes");

    // Mirror into the reference model and replay events through both.
    let oracle: Reference<_, 2> = ids.iter().copied().zip(filters.iter().copied()).collect();
    let events: Vec<Point<2>> = EventWorkload::Following.generate_with(25, &filters, &mut rng);
    for (k, e) in events.iter().enumerate() {
        let publisher = ids[k % ids.len()];
        let report = broker.publish_point(publisher, *e).unwrap();
        let mut expected = oracle.matching(e);
        expected.retain(|&id| id != publisher);
        let mut got = report.matching.clone();
        got.sort_unstable();
        assert_eq!(got, expected, "event {k} matching set");
        assert!(report.false_negatives.is_empty());
    }
    assert_eq!(broker.stats().false_negatives(), 0);
}

#[test]
fn baselines_and_drtree_agree_on_matching_sets() {
    let mut rng = StdRng::seed_from_u64(31);
    let filters = SubscriptionWorkload::Containment {
        chains: 5,
        shrink: 0.7,
    }
    .generate::<2>(30, &mut rng);
    let events: Vec<Point<2>> = EventWorkload::Following.generate_with(20, &filters, &mut rng);

    let containment = ContainmentTreeOverlay::build(&filters);
    let per_dim = PerDimensionOverlay::build(&filters);
    let flooding = FloodingOverlay::build(&filters, 4);

    let mut cluster = DrTreeCluster::build(DrTreeConfig::default(), 13, &filters);
    let ids = cluster.ids();

    for (k, e) in events.iter().enumerate() {
        let exact = filters.iter().filter(|f| f.contains_point(e)).count();
        for outcome in [containment.route(e), per_dim.route(e), flooding.route(e)] {
            assert_eq!(outcome.matching, exact, "event {k}");
            assert_eq!(outcome.false_negatives, 0, "event {k}");
        }
        let publisher = ids[k % ids.len()];
        let report = cluster.publish_from(publisher, *e);
        let publisher_matches = cluster
            .node(publisher)
            .is_some_and(|n| n.filter().contains_point(e));
        let expected = exact - usize::from(publisher_matches);
        assert_eq!(report.matching.len(), expected, "event {k} (drtree)");
        assert!(report.false_negatives.is_empty());
    }
}

#[test]
fn drtree_stays_balanced_where_containment_tree_degenerates() {
    // 24 nested filters: one chain. The containment tree's depth is 24;
    // the DR-tree remains logarithmic (Lemma 3.1) thanks to height
    // balancing, at the cost of occasionally breaking strong containment
    // awareness (Property 3.2's caveat).
    let mut filters = Vec::new();
    for i in 0..24 {
        let pad = f64::from(i) * 2.0;
        filters.push(drtree::Rect::new([pad, pad], [100.0 - pad, 100.0 - pad]));
    }
    let containment = ContainmentTreeOverlay::build(&filters);
    assert_eq!(containment.depth(), 24);

    let cluster = DrTreeCluster::build(DrTreeConfig::default(), 17, &filters);
    assert!(cluster.height() <= 6, "height {}", cluster.height());
    cluster.check_legal().expect("legal");
}

#[test]
fn churn_schedule_drives_overlay_and_it_recovers() {
    let mut rng = StdRng::seed_from_u64(41);
    let filters = SubscriptionWorkload::Uniform {
        min_extent: 3.0,
        max_extent: 18.0,
    }
    .generate::<2>(30, &mut rng);
    let mut cluster = DrTreeCluster::build(DrTreeConfig::default(), 19, &filters);

    let schedule = drtree::PoissonChurn {
        lambda_join: 0.4,
        lambda_leave: 0.4,
    }
    .schedule(25.0, &mut rng);

    let mut spare = SubscriptionWorkload::Uniform {
        min_extent: 3.0,
        max_extent: 18.0,
    }
    .generate::<2>(schedule.len(), &mut rng)
    .into_iter();

    for ev in &schedule {
        match ev.op {
            drtree::workloads::ChurnOp::Join => {
                if let Some(f) = spare.next() {
                    cluster.add_subscriber(f);
                }
            }
            drtree::workloads::ChurnOp::Leave => {
                let ids = cluster.ids();
                if ids.len() > 3 {
                    let victim = ids[(ev.at * 997.0) as usize % ids.len()];
                    cluster.crash(victim);
                }
            }
        }
        cluster.run_rounds(2); // churn faster than full stabilization
    }
    let rounds = cluster.stabilize(8_000);
    assert!(rounds.is_some(), "did not recover after churn burst");
}
