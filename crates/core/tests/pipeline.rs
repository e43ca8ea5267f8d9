//! Property tests pinning the pipelined publish path
//! ([`Overlay::publish_pipeline_from`], on both engines) to the
//! sequential [`Overlay::publish_from`] reference: identical overlays
//! replaying an identical event stream
//! must produce identical per-event deliveries, matches, and message
//! bills at every window size — overlap may only change *when* events
//! disseminate, never *what* they deliver or charge.

use drtree_core::{
    run_convergence, AsyncDrTreeCluster, ConvergenceConfig, DrTreeCluster, DrTreeConfig, DrtNode,
    FaultSchedule, Overlay, ProcessId, PublishReport,
};
use drtree_sim::{LatencyModel, NetConfig, Schedule};
use drtree_spatial::{Point, Rect};
use drtree_workloads::EventWorkload;
use proptest::prelude::*;
use proptest::strategy::Just;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The deepest window the overlay accounts exactly.
const CAP: usize = DrTreeCluster::<2>::MAX_PUBLISH_WINDOW;

const WINDOWS: [usize; 4] = [1, 7, 32, CAP];

fn arb_filter() -> impl Strategy<Value = Rect<2>> {
    (0.0f64..90.0, 0.0f64..90.0, 2.0f64..25.0, 2.0f64..25.0)
        .prop_map(|(x, y, w, h)| Rect::new([x, y], [x + w, y + h]))
}

/// Uniform and hotspot event streams (the hotspot concentrates events
/// so interior nodes carry overlapping traffic of most in-flight
/// events — the hard case for per-tag accounting).
fn arb_stream() -> impl Strategy<Value = EventWorkload> {
    prop_oneof![
        Just(EventWorkload::Uniform),
        (10.0f64..80.0, 5.0f64..20.0).prop_map(|(center, radius)| EventWorkload::Hotspot {
            center,
            radius,
            bias: 0.8,
        }),
    ]
}

/// The per-event figures that must not depend on the window size.
fn fingerprint(r: &PublishReport) -> (Vec<ProcessId>, Vec<ProcessId>, u64) {
    (r.receivers.clone(), r.matching.clone(), r.messages)
}

fn events_for<const D: usize>(
    workload: EventWorkload,
    n: usize,
    ids: &[ProcessId],
    seed: u64,
) -> Vec<(ProcessId, Point<D>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    workload
        .generate(n, &mut rng)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (ids[(i * 7 + 3) % ids.len()], p))
        .collect()
}

/// The property, stated once for both engines: identically built
/// overlays agree, event by event, between the sequential loop and the
/// pipeline at every one of `windows` — same receivers, same matches,
/// same message bill, nobody missed. Returns, per window, the clock
/// span of the whole pipelined call and of its first event.
fn pipeline_equals_sequential<Q: Schedule<DrtNode<2>>>(
    build: impl Fn() -> Overlay<2, Q>,
    stream: EventWorkload,
    n_events: usize,
    event_seed: u64,
    windows: &[usize],
) -> Vec<(u64, u64)> {
    let mut sequential = build();
    let events = events_for(stream, n_events, &sequential.ids(), event_seed);
    let reference: Vec<_> = events
        .iter()
        .map(|&(publisher, point)| fingerprint(&sequential.publish_from(publisher, point)))
        .collect();
    windows
        .iter()
        .map(|&window| {
            let mut pipelined = build();
            let before = pipelined.now();
            let reports = pipelined.publish_pipeline_from(&events, window);
            assert_eq!(reports.len(), events.len());
            for (i, report) in reports.iter().enumerate() {
                assert!(
                    report.false_negatives.is_empty(),
                    "window {window} event {i} missed {:?}",
                    report.false_negatives
                );
                assert_eq!(
                    fingerprint(report),
                    reference[i],
                    "window {window} event {i} diverged"
                );
            }
            (pipelined.now() - before, reports[0].rounds)
        })
        .collect()
}

/// The event engine the pipeline tests run on: fixed latency, no loss,
/// so two overlays built alike are alike.
fn quiet_event_engine() -> (DrTreeConfig, NetConfig) {
    let net = NetConfig {
        latency: LatencyModel::Fixed(1),
        ..NetConfig::default()
    };
    let config = DrTreeConfig {
        tick_interval: 4,
        failure_timeout: 8,
        ..DrTreeConfig::default()
    };
    (config, net)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Round engine: every window size reproduces the sequential
    /// per-event deliveries, matches, and message bills.
    #[test]
    fn pipeline_matches_sequential_on_round_engine(
        filters in prop::collection::vec(arb_filter(), 8..28),
        stream in arb_stream(),
        n_events in 4usize..40,
        seed in 0u64..1_000,
    ) {
        let base = DrTreeCluster::build_bulk(DrTreeConfig::default(), seed, &filters);
        pipeline_equals_sequential(|| base.clone(), stream, n_events, seed ^ 0x9e37, &WINDOWS);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Event engine: identically built asynchronous overlays (same
    /// seed, fixed latency, no loss) agree between the sequential loop
    /// and every pipeline window.
    #[test]
    fn pipeline_matches_sequential_on_event_engine(
        filters in prop::collection::vec(arb_filter(), 6..16),
        stream in arb_stream(),
        n_events in 3usize..12,
        seed in 0u64..500,
    ) {
        let (config, net) = quiet_event_engine();
        let build = || {
            let mut cluster: AsyncDrTreeCluster<2> =
                AsyncDrTreeCluster::new(config, net, seed);
            for &f in &filters {
                cluster.add_subscriber(f);
                cluster.run_for(8 * config.tick_interval);
            }
            cluster.stabilize(400_000).expect("legal under asynchrony");
            cluster
        };
        pipeline_equals_sequential(build, stream, n_events, seed ^ 0x51ed, &WINDOWS);
    }
}

/// The satellite fix pinned directly: with several events in flight,
/// per-event message bills must not cross-charge — each pipelined
/// event is billed exactly its sequential message count, and the bills
/// sum to the network's total publication traffic.
#[test]
fn overlapping_events_do_not_cross_charge_messages() {
    let filters: Vec<Rect<2>> = (0..24)
        .map(|i| {
            let x = f64::from(i % 6) * 12.0;
            let y = f64::from(i / 6) * 12.0;
            Rect::new([x, y], [x + 15.0, y + 15.0])
        })
        .collect();
    let base = DrTreeCluster::build_bulk(DrTreeConfig::default(), 11, &filters);
    let ids = base.ids();
    let events: Vec<(ProcessId, Point<2>)> = (0..12)
        .map(|i| {
            (
                ids[(5 * i + 1) % ids.len()],
                Point::new([6.0 * i as f64 + 2.0, 40.0]),
            )
        })
        .collect();

    let mut sequential = base.clone();
    let expected: Vec<u64> = events
        .iter()
        .map(|&(publisher, point)| sequential.publish_from(publisher, point).messages)
        .collect();
    assert!(expected.iter().any(|&m| m > 0), "schedule produces traffic");

    let mut pipelined = base.clone();
    let down0 = pipelined.metrics().label_count("pub-down");
    let up0 = pipelined.metrics().label_count("pub-up");
    let reports = pipelined.publish_pipeline_from(&events, 7);
    let billed: Vec<u64> = reports.iter().map(|r| r.messages).collect();
    assert_eq!(billed, expected, "per-event bills must match sequential");
    let total = pipelined.metrics().label_count("pub-down") - down0
        + pipelined.metrics().label_count("pub-up")
        - up0;
    assert_eq!(
        billed.iter().sum::<u64>(),
        total,
        "bills must partition the network's publication traffic"
    );
}

/// A window of 1 is exactly the sequential semantics with per-tag
/// quiescence instead of a fixed drain budget; reports must still be
/// in input order with monotone event ids.
#[test]
fn window_one_preserves_order_and_ids() {
    let filters: Vec<Rect<2>> = (0..10)
        .map(|i| {
            let x = f64::from(i) * 9.0;
            Rect::new([x, 0.0], [x + 11.0, 30.0])
        })
        .collect();
    let mut cluster = DrTreeCluster::build_bulk(DrTreeConfig::default(), 3, &filters);
    let ids = cluster.ids();
    let points: Vec<Point<2>> = (0..5)
        .map(|i| Point::new([9.0 * i as f64 + 1.0, 4.0]))
        .collect();
    let reports = cluster.publish_pipeline(ids[0], &points, 1);
    assert_eq!(reports.len(), points.len());
    for pair in reports.windows(2) {
        assert!(pair[0].event_id < pair[1].event_id);
    }
    for r in &reports {
        assert!(r.false_negatives.is_empty());
        assert!(r.rounds >= 1, "quiescence takes at least one round");
    }
}

fn grid_filters(n: u32) -> Vec<Rect<2>> {
    (0..n)
        .map(|i| {
            let x = f64::from(i % 6) * 14.0;
            let y = f64::from(i / 6) * 14.0;
            Rect::new([x, y], [x + 19.0, y + 19.0])
        })
        .collect()
}

/// Two fills and one event more than the cap, at the cap and beyond it
/// (clamped): the pipeline slides a full-depth window over a batch it
/// cannot swallow whole, on both engines, and every report still equals
/// the sequential one.
#[test]
fn batches_beyond_the_cap_match_sequential_on_both_engines() {
    let n_events = 2 * CAP + 1;
    let filters = grid_filters(30);
    let stream = EventWorkload::Uniform;

    let base = DrTreeCluster::build_bulk(DrTreeConfig::default(), 5, &filters);
    let spans =
        pipeline_equals_sequential(|| base.clone(), stream, n_events, 0xca9, &[CAP, usize::MAX]);
    for (batch, first_event) in spans {
        assert!(
            batch < 4 * first_event,
            "a batch of two fills and a bit rides a few disseminations' rounds, not one per event"
        );
    }

    let (config, net) = quiet_event_engine();
    let build = || AsyncDrTreeCluster::<2>::build_bulk(config, net, 5, &filters[..12]);
    pipeline_equals_sequential(build, stream, n_events, 0xca9, &[CAP]);
}

/// Accounting no longer reads the nodes' recently-seen rings: the root
/// receives every event of a call longer than its ring, forgets the
/// first ones before the call ends, and every report is exact all the
/// same — receivers, matching set (against a scan of the filters) and
/// the two differences.
#[test]
fn reports_stay_exact_when_a_node_outlives_its_seen_ring() {
    let filters = grid_filters(30);
    let mut cluster = DrTreeCluster::build_bulk(DrTreeConfig::default(), 9, &filters);
    let ids = cluster.ids();
    let root = cluster.root().expect("a built overlay has a root");
    let publishers: Vec<ProcessId> = ids.iter().copied().filter(|&id| id != root).collect();
    let events = events_for(EventWorkload::Uniform, 3 * CAP, &publishers, 0x51);

    let seen_before = cluster.node(root).unwrap().pubsub().received_total;
    let reports = cluster.publish_pipeline_from(&events, CAP);
    let seen = cluster.node(root).unwrap().pubsub().received_total - seen_before;
    assert_eq!(seen, events.len() as u64, "the root receives every event");
    assert!(
        !cluster
            .node(root)
            .unwrap()
            .pubsub()
            .has_seen(reports[0].event_id),
        "the call outran the root's ring: a scan of the rings would miss this receipt"
    );

    for (report, &(publisher, point)) in reports.iter().zip(&events) {
        assert!(report.receivers.contains(&root));
        assert!(report.receivers.windows(2).all(|w| w[0] < w[1]));
        let matching: Vec<ProcessId> = ids
            .iter()
            .zip(&filters)
            .filter(|&(&id, f)| id != publisher && f.contains_point(&point))
            .map(|(&id, _)| id)
            .collect();
        assert_eq!(report.matching, matching);
        assert!(report.false_negatives.is_empty());
        let false_positives: Vec<ProcessId> = report
            .receivers
            .iter()
            .copied()
            .filter(|id| !matching.contains(id))
            .collect();
        assert_eq!(report.false_positives, false_positives);
        assert_eq!(
            report.receivers.len(),
            matching.len() + false_positives.len()
        );
    }
}

/// Receipts of events nobody will account — the background traffic
/// `run_convergence` injects and follows by tag only — are dropped
/// round by round: the mark log is empty afterwards, and between publish
/// calls.
#[test]
fn unaccounted_events_leave_no_receipts_behind() {
    let world = Rect::new([0.0, 0.0], [100.0, 100.0]);
    let mut cluster = DrTreeCluster::build_bulk(DrTreeConfig::default(), 13, &grid_filters(36));
    for schedule in FaultSchedule::canonical(&world, 36) {
        let report = run_convergence(&mut cluster, &schedule, &ConvergenceConfig::default());
        assert!(report.fault_latency.samples > 0, "background events ran");
        assert!(cluster.metrics().marks().is_empty(), "{}", schedule.name);
    }
    cluster.stabilize(10_000).expect("restabilizes");
    let ids = cluster.ids();
    let events = events_for(EventWorkload::Uniform, 40, &ids, 0x77);
    let reports = cluster.publish_pipeline_from(&events, 8);
    assert!(reports.iter().any(|r| !r.receivers.is_empty()));
    assert!(cluster.metrics().marks().is_empty());
}
