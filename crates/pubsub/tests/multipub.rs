//! Multi-publisher exactness stress suite.
//!
//! The concurrent ingress claims it changes *when* publications
//! commit, never *what* they deliver. These tests pin that claim
//! op-for-op: every run records its audit log (the total commit
//! order), replays it on a plain sequential [`Broker`] built from the
//! same seed, and asserts per-event delivery-set equality plus zero
//! false negatives — under 1, 4, and 16 publishers, with interleaved
//! subscribe/unsubscribe churn and mid-stream publisher join/leave.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

use drtree_core::{DrTreeConfig, ProcessId};
use drtree_pubsub::{AuditRecord, Broker, IngressConfig, MultiBroker};
use drtree_spatial::{Point, Rect, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn schema() -> Schema {
    Schema::new(["x", "y"])
}

fn seeded_rect(rng: &mut StdRng) -> Rect<2> {
    let x = rng.gen_range(0.0..90.0);
    let y = rng.gen_range(0.0..90.0);
    let w = rng.gen_range(2.0..10.0);
    let h = rng.gen_range(2.0..10.0);
    Rect::new([x, y], [x + w, y + h])
}

fn seeded_point(rng: &mut StdRng) -> Point<2> {
    Point::new([rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)])
}

/// Replays `audit` on two fresh brokers with the same seed and asserts
/// op-for-op equality on both: same assigned ids, same per-event
/// delivery sets, zero false negatives. `sequential` publishes every
/// commit on its own (`publish_point`, each event drained before the
/// next); `batched` re-commits each recorded batch whole
/// (`publish_batch_multi`), which is what the commit loop executed, so
/// there the dissemination rounds must agree as well. Returns the
/// commit count.
fn replay_and_check(audit: &[AuditRecord<2>], seed: u64) -> u64 {
    let fresh = || Broker::<2>::new(schema(), DrTreeConfig::default(), seed).unwrap();
    let (mut sequential, mut batched) = (fresh(), fresh());
    let mut commits = 0u64;
    let mut records = audit.iter().peekable();
    while let Some(record) = records.next() {
        match record {
            AuditRecord::Subscribe { id, rect } => {
                for reference in [&mut sequential, &mut batched] {
                    assert_eq!(
                        reference.subscribe_rect(*rect),
                        *id,
                        "replay assigns the same subscriber id"
                    );
                }
            }
            AuditRecord::Unsubscribe { id } => {
                for reference in [&mut sequential, &mut batched] {
                    reference
                        .unsubscribe(*id)
                        .expect("replayed unsubscribe targets a live id");
                }
            }
            AuditRecord::Stabilize { max_rounds } => {
                for reference in [&mut sequential, &mut batched] {
                    reference
                        .stabilize(*max_rounds)
                        .expect("reference overlay stabilizes within the audited budget");
                }
            }
            AuditRecord::Move { id, rect } => {
                for reference in [&mut sequential, &mut batched] {
                    reference
                        .move_subscription_rect(*id, *rect)
                        .expect("replayed move targets a live singleton subscriber");
                }
            }
            AuditRecord::Commit { batch, .. } => {
                // The whole recorded batch: this commit and every
                // following one carrying the same batch number.
                let mut recorded = vec![commit_of(record).expect("a commit")];
                while let Some(next) =
                    records.next_if(|r| commit_of(r).is_some_and(|c| c.0 == *batch))
                {
                    recorded.push(commit_of(next).expect("a commit"));
                }
                let events: Vec<(ProcessId, Point<2>)> =
                    recorded.iter().map(|c| (c.1, c.2)).collect();
                let whole = batched
                    .publish_batch_multi(&events)
                    .expect("replayed publishers are live");
                for (&(_, publisher, point, receivers, rounds), whole) in
                    recorded.iter().zip(&whole)
                {
                    let single = sequential
                        .publish_point(publisher, point)
                        .expect("replayed publisher is live");
                    for (replay, report) in [("sequential", &single), ("batched", whole)] {
                        let mut got = report.receivers.clone();
                        got.sort_unstable();
                        assert_eq!(
                            got, receivers,
                            "concurrent and {replay} delivery sets diverge at commit {commits}"
                        );
                        assert!(
                            report.false_negatives.is_empty(),
                            "{replay} false negatives at commit {commits}: {:?}",
                            report.false_negatives
                        );
                    }
                    assert_eq!(
                        whole.rounds, rounds,
                        "batched replay rode different rounds at commit {commits}"
                    );
                    commits += 1;
                }
            }
        }
    }
    commits
}

/// `(batch, publisher, point, receivers, rounds)` of a commit record.
fn commit_of(record: &AuditRecord<2>) -> Option<(u64, ProcessId, Point<2>, &[ProcessId], u64)> {
    match record {
        AuditRecord::Commit {
            batch,
            publisher,
            point,
            receivers,
            rounds,
            ..
        } => Some((*batch, *publisher, *point, receivers, *rounds)),
        _ => None,
    }
}

/// Asserts the audit log preserves every publisher's queue order: the
/// committed `seq` values per publisher are 0, 1, 2, … in commit
/// order (no loss, no duplication, no reordering).
fn check_per_publisher_fifo(audit: &[AuditRecord<2>]) {
    let mut next: BTreeMap<ProcessId, u64> = BTreeMap::new();
    for record in audit {
        if let AuditRecord::Commit { publisher, seq, .. } = record {
            let expected = next.entry(*publisher).or_insert(0);
            assert_eq!(
                *seq, *expected,
                "publisher {publisher:?} committed out of queue order"
            );
            *expected += 1;
        }
    }
}

/// The full concurrent scenario at a given publisher count: phased
/// publishing with racing mid-phase subscriber joins, a mid-stream
/// publisher join + leave, and subscriber churn at phase boundaries.
fn run_concurrent_scenario(publishers: usize, seed: u64, auto_drain: bool) {
    const PHASES: usize = 3;
    const PER_PHASE: usize = 10;

    let broker: Broker<2> = Broker::new(schema(), DrTreeConfig::default(), seed).unwrap();
    let multi = MultiBroker::new(
        broker,
        IngressConfig {
            // Without auto-drain nothing commits until the explicit
            // phase drain, so the queues must hold a whole phase or
            // blocking publishers would wait on a drain that never
            // comes.
            queue_capacity: if auto_drain { 8 } else { PER_PHASE },
            fair_budget: 4,
            max_batch: 64,
            audit_log: true,
            refresh_snapshots: false,
            auto_drain,
        },
    );

    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut pool: Vec<ProcessId> = (0..12)
        .map(|_| multi.subscribe_rect(seeded_rect(&mut rng)))
        .collect();
    let handles: Vec<_> = (0..publishers)
        .map(|_| multi.add_publisher(seeded_rect(&mut rng)))
        .collect();

    // Scripts are pre-generated so worker threads share no RNG.
    let scripts: Vec<Vec<Vec<Point<2>>>> = (0..publishers)
        .map(|_| {
            (0..PHASES)
                .map(|_| (0..PER_PHASE).map(|_| seeded_point(&mut rng)).collect())
                .collect()
        })
        .collect();
    let guest_points: Vec<Point<2>> = (0..PER_PHASE).map(|_| seeded_point(&mut rng)).collect();
    let guest_rect = seeded_rect(&mut rng);
    let racing_join_rects: Vec<Rect<2>> = (0..PHASES).map(|_| seeded_rect(&mut rng)).collect();

    let published = AtomicU64::new(0);
    for phase in 0..PHASES {
        thread::scope(|s| {
            for (p, handle) in handles.iter().enumerate() {
                let points = &scripts[p][phase];
                let published = &published;
                s.spawn(move || {
                    for point in points {
                        handle.publish(*point).expect("ingress open");
                        published.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            // A subscriber join racing the publish stream: the
            // serialized join command returns only from a legitimate
            // configuration, so the batch committed right after it
            // disseminates through a settled overlay.
            let rect = racing_join_rects[phase];
            let multi_ref = &multi;
            s.spawn(move || {
                multi_ref.subscribe_rect(rect);
            });
            // Mid-stream publisher join + leave, racing everyone.
            if phase == 1 {
                let points = &guest_points;
                let published = &published;
                s.spawn(move || {
                    let guest = multi_ref.add_publisher(guest_rect);
                    for point in points {
                        guest.publish(*point).expect("guest ingress open");
                        published.fetch_add(1, Ordering::Relaxed);
                    }
                    guest.leave();
                });
            }
        });
        multi.drain();
        // Subscriber churn at the (quiesced) phase boundary.
        let dead = pool.swap_remove(phase % pool.len());
        multi.unsubscribe(dead).expect("pool id is live");
    }

    // Accounting: everything accepted was committed, nothing rejected.
    let rate = multi.rate();
    assert_eq!(rate.submitted, published.load(Ordering::Relaxed));
    assert_eq!(
        rate.committed, rate.submitted,
        "accepted publications must all commit"
    );
    assert_eq!(rate.rejected, 0, "blocking publishes are never rejected");

    let latency = multi.latency();
    assert_eq!(latency.count, rate.committed, "every commit is billed");
    assert!(latency.p50_ns <= latency.p99_ns && latency.p99_ns <= latency.p999_ns);

    let audit = multi.take_audit();
    check_per_publisher_fifo(&audit);
    let commits = replay_and_check(&audit, seed);
    assert_eq!(commits, rate.committed, "audit records every commit");

    // The handed-back broker is intact and agrees on the totals.
    let broker = multi.finish();
    assert_eq!(broker.stats().events(), commits);
    assert_eq!(
        broker.stats().unconverged(),
        0,
        "a join or departure repair ran out of budget"
    );
}

#[test]
fn single_publisher_matches_sequential_reference() {
    run_concurrent_scenario(1, 11, true);
}

#[test]
fn four_publishers_match_sequential_reference() {
    run_concurrent_scenario(4, 22, true);
}

#[test]
fn sixteen_publishers_match_sequential_reference() {
    run_concurrent_scenario(16, 33, true);
}

#[test]
fn sixteen_publishers_match_in_explicit_drain_mode() {
    // auto_drain off: publications only commit at the explicit phase
    // drains, making the commit order itself deterministic.
    run_concurrent_scenario(16, 44, false);
}

#[test]
fn explicit_drain_mode_commit_order_is_reproducible() {
    // Same seed, two runs, auto_drain off, single-threaded enqueue:
    // byte-identical audit logs — the deterministic debugging mode.
    let run = |seed: u64| -> Vec<AuditRecord<2>> {
        let broker: Broker<2> = Broker::new(schema(), DrTreeConfig::default(), seed).unwrap();
        let multi = MultiBroker::new(
            broker,
            IngressConfig {
                audit_log: true,
                refresh_snapshots: false,
                auto_drain: false,
                ..IngressConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            multi.subscribe_rect(seeded_rect(&mut rng));
        }
        let a = multi.add_publisher(seeded_rect(&mut rng));
        let b = multi.add_publisher(seeded_rect(&mut rng));
        for _ in 0..6 {
            a.publish(seeded_point(&mut rng)).unwrap();
            b.publish(seeded_point(&mut rng)).unwrap();
        }
        multi.drain();
        let audit = multi.take_audit();
        multi.finish();
        audit
    };
    assert_eq!(run(77), run(77));
}
