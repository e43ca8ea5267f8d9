//! Federation integration tests: federated delivery pinned to the
//! linear-scan reference under interleaved churn with broker
//! crashes and rejoins mid-stream (both engines, 2/4/8 brokers),
//! summary-MBR takeover exactness while a broker is down, and the
//! warm-restore delta catch-up path.

use drtree_pubsub::{FedConfig, FedEngine, FederatedFabric, RejoinOutcome};
use drtree_spatial::reference::Reference;
use drtree_spatial::{Point, Rect};
use proptest::prelude::*;
use proptest::strategy::Just;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn world() -> Rect<2> {
    Rect::new([0.0, 0.0], [100.0, 100.0])
}

fn rects(n: usize, seed: u64) -> Vec<Rect<2>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x = rng.gen_range(0.0..90.0);
            let y = rng.gen_range(0.0..90.0);
            let w = rng.gen_range(1.0..9.0);
            let h = rng.gen_range(1.0..9.0);
            Rect::new([x, y], [x + w, y + h])
        })
        .collect()
}

/// Publishes `point` and steps the fabric (no other traffic) until the
/// event resolves, returning its delivery set.
fn resolve(fabric: &mut FederatedFabric<2>, point: Point<2>) -> Vec<u64> {
    let event = fabric.publish(point);
    for _ in 0..600 {
        fabric.step();
        if let Some(ev) = fabric.completed().iter().rev().find(|e| e.event == event) {
            return ev.subs.clone();
        }
    }
    panic!("publication {event} never resolved");
}

#[derive(Debug, Clone)]
enum Op {
    Subscribe(Rect<2>),
    RelocateNth(usize, Rect<2>),
    UnsubscribeNth(usize),
    Probe(f64, f64),
}

fn arb_rect() -> impl Strategy<Value = Rect<2>> {
    (0.0f64..90.0, 0.0f64..90.0, 1.0f64..9.0, 1.0f64..9.0)
        .prop_map(|(x, y, w, h)| Rect::new([x, y], [x + w, y + h]))
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => arb_rect().prop_map(Op::Subscribe),
        2 => (0usize..256, arb_rect()).prop_map(|(n, r)| Op::RelocateNth(n, r)),
        1 => (0usize..256).prop_map(Op::UnsubscribeNth),
        2 => (0.0f64..100.0, 0.0f64..100.0).prop_map(|(x, y)| Op::Probe(x, y)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole exactness pin: across 2/4/8 brokers and both
    /// engines, under interleaved subscribe/relocate/unsubscribe churn
    /// with a broker crash and rejoin injected mid-stream, every
    /// probe's federated delivery set equals what a single broker
    /// owes it — the [`Reference`] maintained with the very same
    /// operations — op for op, no false negatives ever.
    #[test]
    fn federated_delivery_equals_single_broker_oracle(
        k in prop_oneof![Just(2usize), Just(4), Just(8)],
        rounds_engine in any::<bool>(),
        seed in 0u64..1_000,
        ops in prop::collection::vec(arb_op(), 30..70),
    ) {
        let engine = if rounds_engine { FedEngine::Rounds } else { FedEngine::Event };
        let mut fabric = FederatedFabric::new(k, &world(), seed, engine, FedConfig::default());
        let mut reference = Reference::new();

        let crash_at = ops.len() / 3;
        let rejoin_at = 2 * ops.len() / 3;
        let victim = (seed as usize) % k;
        let warm = seed % 2 == 0;
        let mut crashed = false;

        for (i, op) in ops.iter().enumerate() {
            if i == crash_at {
                fabric.checkpoint_all();
                crashed = fabric.crash_broker(victim);
            }
            if i == rejoin_at && crashed {
                let outcome = fabric.rejoin_broker(victim, warm);
                prop_assert_ne!(outcome, RejoinOutcome::NotDown);
                crashed = false;
            }
            match op {
                Op::Subscribe(rect) => {
                    let sub = fabric.subscribe(*rect);
                    reference.insert(sub, *rect);
                }
                Op::RelocateNth(n, rect) => {
                    if let Some((sub, _)) = reference.move_nth(*n, *rect) {
                        prop_assert!(fabric.relocate(sub, *rect));
                    }
                }
                Op::UnsubscribeNth(n) => {
                    if let Some((sub, _)) = reference.remove_nth(*n) {
                        prop_assert!(fabric.unsubscribe(sub));
                    }
                }
                Op::Probe(x, y) => {
                    // Quiesce the op stream at the probe (the exactness
                    // contract's comparison points), then compare the
                    // delivery set to the reference.
                    let point = Point::new([*x, *y]);
                    let want = reference.matching(&point);
                    let got = resolve(&mut fabric, point);
                    prop_assert_eq!(
                        &got, &want,
                        "probe {} diverged from the reference (k={}, {:?})",
                        i, k, engine
                    );
                }
            }
            fabric.step();
        }
        if crashed {
            fabric.rejoin_broker(victim, warm);
        }
        prop_assert!(
            fabric.settle(1_500),
            "fabric never re-reached legal: {:?}",
            fabric.check_legal()
        );
        // Post-quiescence sweep: a grid of probes, all exact.
        for gx in 0..5 {
            for gy in 0..5 {
                let point = Point::new([10.0 + 20.0 * gx as f64, 10.0 + 20.0 * gy as f64]);
                let got = resolve(&mut fabric, point);
                prop_assert_eq!(&got, &reference.matching(&point), "post-quiescence probe diverged");
            }
        }
    }
}

/// Summary-MBR takeover: while a broker is down, its range is answered
/// by the surviving curve-neighbor holder — every probe stays exact
/// (zero false negatives), and forwards actually flowed.
#[test]
fn takeover_keeps_delivery_exact_while_broker_down() {
    let mut fabric = FederatedFabric::new(4, &world(), 21, FedEngine::Rounds, FedConfig::default());
    fabric.bulk_populate(&rects(160, 21));
    assert!(fabric.settle(400), "populate: {:?}", fabric.check_legal());

    assert!(fabric.crash_broker(2));
    let before_forwards = fabric.metrics().label_count("fed-forward");
    for (i, point) in (0..12)
        .map(|i| Point::new([8.0 * i as f64 + 4.0, 90.0 - 7.0 * i as f64]))
        .enumerate()
    {
        let want = fabric.expected_matches(&point);
        let got = resolve(&mut fabric, point);
        assert_eq!(got, want, "probe {i} inexact while broker 2 down");
        let missing = want.iter().filter(|s| !got.contains(s)).count();
        assert_eq!(missing, 0, "probe {i} has false negatives");
    }
    assert!(
        fabric.metrics().label_count("fed-forward") > before_forwards,
        "origin answered everything locally — takeover never exercised"
    );
    assert_eq!(fabric.rejoin_broker(2, false), RejoinOutcome::Cold);
    assert!(fabric.settle(600), "rejoin: {:?}", fabric.check_legal());
}

/// Warm restore + delta catch-up: a broker checkpointed, then left
/// behind by further ops, crashes and warm-rejoins. The restore is
/// accepted ([`RejoinOutcome::Warm`]), the rejoiner resumes *below*
/// the issued version, and anti-entropy pulls exactly the missing
/// suffix until every held range reaches it.
#[test]
fn warm_restore_catches_up_the_post_checkpoint_delta() {
    let mut fabric = FederatedFabric::new(4, &world(), 5, FedEngine::Rounds, FedConfig::default());
    fabric.bulk_populate(&rects(120, 5));
    assert!(fabric.settle(400));
    fabric.checkpoint_all();

    // Ops past the checkpoint, spread across all ranges.
    for rect in rects(60, 6) {
        fabric.subscribe(rect);
    }
    for _ in 0..30 {
        fabric.step();
    }
    assert!(fabric.settle(400));

    // Versions node 1 holds with the post-checkpoint delta applied.
    let node = fabric.node(1).expect("live");
    let fresh: Vec<(usize, u64)> = node
        .held_ranges()
        .iter()
        .map(|&r| (r, node.range_view(r).expect("held").version))
        .collect();

    assert!(fabric.crash_broker(1));
    assert_eq!(fabric.rejoin_broker(1, true), RejoinOutcome::Warm);
    // Straight after the restore the rejoiner sits at the checkpoint:
    // non-empty (warm restore took) but behind where the range got to —
    // the delta it must now pull back via anti-entropy.
    let node = fabric.node(1).expect("revived");
    let behind = fresh.iter().any(|&(r, fresh_v)| {
        let view = node.range_view(r).expect("held");
        view.version > 0 && view.version < fresh_v
    });
    assert!(
        behind,
        "warm restore was not stale — delta path unexercised"
    );
    assert!(fabric.settle(600), "catch-up: {:?}", fabric.check_legal());
    // check_legal already pins every live holder (the rejoiner
    // included) to the issued version with the expected fingerprint.
}
