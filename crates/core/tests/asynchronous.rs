//! The protocol under true asynchrony: latency jitter, message loss,
//! self-paced ticks (the paper's §2.1 system model). Same protocol
//! code as the round-based tests — only the engine changes.

use drtree_core::{corruption::CorruptionKind, AsyncDrTreeCluster, DrTreeConfig};
use drtree_sim::{LatencyModel, NetConfig};
use drtree_spatial::{Point, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn async_config() -> DrTreeConfig {
    DrTreeConfig {
        tick_interval: 8,
        // Timeouts are counted in time units here; with jittered
        // latencies up to 4 and ticks every 8, a parent answer takes up
        // to ~2 ticks.
        failure_timeout: 40,
        join_retry: 32,
        ..DrTreeConfig::default()
    }
}

fn jittery(drop: f64) -> NetConfig {
    NetConfig::lossy(LatencyModel::Uniform { min: 1, max: 4 }, drop)
}

fn filters(n: usize, seed: u64) -> Vec<Rect<2>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x: f64 = rng.gen_range(0.0..80.0);
            let y: f64 = rng.gen_range(0.0..80.0);
            let w: f64 = rng.gen_range(2.0..20.0);
            let h: f64 = rng.gen_range(2.0..20.0);
            Rect::new([x, y], [x + w, y + h])
        })
        .collect()
}

#[test]
fn builds_legal_overlay_under_latency_jitter() {
    let mut cluster: AsyncDrTreeCluster<2> =
        AsyncDrTreeCluster::new(async_config(), jittery(0.0), 101);
    for f in filters(24, 102) {
        cluster.add_subscriber(f);
        cluster.run_for(40);
    }
    let time = cluster.stabilize(400_000);
    assert!(time.is_some(), "no legal configuration under jitter");
    assert_eq!(cluster.len(), 24);
    let n = 24f64;
    assert!(
        f64::from(cluster.height()) <= n.log2().ceil() + 2.0,
        "height {} not logarithmic",
        cluster.height()
    );
}

#[test]
fn publishes_have_no_false_negatives_async() {
    let mut cluster: AsyncDrTreeCluster<2> =
        AsyncDrTreeCluster::new(async_config(), jittery(0.0), 103);
    let fs = filters(20, 104);
    for f in &fs {
        cluster.add_subscriber(*f);
        cluster.run_for(40);
    }
    cluster.stabilize(400_000).expect("stabilizes");
    let ids = cluster.ids();
    for i in 0..10 {
        let publisher = ids[(i * 3) % ids.len()];
        let point = {
            let rng = cluster.rng();
            Point::new([rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)])
        };
        let report = cluster.publish_from(publisher, point);
        assert!(
            report.false_negatives.is_empty(),
            "event {i}: missed {:?}",
            report.false_negatives
        );
    }
}

#[test]
fn recovers_from_crashes_with_message_loss() {
    // 2% of all messages are silently dropped — heartbeats, acks, even
    // repair traffic. The protocol must still converge (retries +
    // periodic checks).
    let mut cluster: AsyncDrTreeCluster<2> =
        AsyncDrTreeCluster::new(async_config(), jittery(0.02), 105);
    for f in filters(20, 106) {
        cluster.add_subscriber(f);
        cluster.run_for(40);
    }
    cluster.stabilize(600_000).expect("initial convergence");

    let root = cluster.root().unwrap();
    let victims: Vec<_> = cluster
        .ids()
        .into_iter()
        .filter(|&id| id != root)
        .step_by(4)
        .take(4)
        .collect();
    for v in victims {
        cluster.crash(v);
    }
    let time = cluster.stabilize(600_000);
    assert!(time.is_some(), "no recovery under message loss");
    assert_eq!(cluster.len(), 16);
}

#[test]
fn recovers_from_corruption_async() {
    let mut cluster: AsyncDrTreeCluster<2> =
        AsyncDrTreeCluster::new(async_config(), jittery(0.0), 107);
    for f in filters(16, 108) {
        cluster.add_subscriber(f);
        cluster.run_for(40);
    }
    cluster.stabilize(400_000).expect("initial convergence");
    let ids = cluster.ids();
    for (i, &id) in ids.iter().enumerate().step_by(3) {
        cluster.corrupt(id, CorruptionKind::ALL[i % CorruptionKind::ALL.len()]);
    }
    let time = cluster.stabilize(600_000);
    assert!(time.is_some(), "no recovery from corruption (async)");
}

#[test]
fn controlled_leave_async() {
    let mut cluster: AsyncDrTreeCluster<2> =
        AsyncDrTreeCluster::new(async_config(), jittery(0.0), 109);
    for f in filters(14, 110) {
        cluster.add_subscriber(f);
        cluster.run_for(40);
    }
    cluster.stabilize(400_000).expect("initial convergence");
    let root = cluster.root().unwrap();
    let victim = cluster
        .ids()
        .into_iter()
        .find(|&id| id != root)
        .expect("non-root exists");
    cluster.controlled_leave(victim);
    assert!(cluster.stabilize(400_000).is_some());
    assert_eq!(cluster.len(), 13);
}

/// What the asynchronous name inherits from the one driver: a moved
/// subscription repairs through ordinary stabilization under jitter,
/// and nobody interested in the new place is missed.
#[test]
fn moved_subscriber_is_found_at_its_new_filter_async() {
    let mut cluster: AsyncDrTreeCluster<2> =
        AsyncDrTreeCluster::build_bulk(async_config(), jittery(0.0), 111, &filters(24, 112));
    let ids = cluster.ids();
    let root = cluster.root().unwrap();
    let movers: Vec<_> = ids
        .iter()
        .copied()
        .filter(|&id| id != root)
        .take(3)
        .collect();
    let mut targets = Vec::new();
    for (i, &id) in movers.iter().enumerate() {
        let x = 120.0 + 30.0 * i as f64;
        let filter = Rect::new([x, 120.0], [x + 10.0, 130.0]);
        assert!(cluster.move_subscriber(id, filter));
        targets.push((id, filter.center()));
    }
    cluster.stabilize(400_000).expect("the move repairs");
    for &(id, point) in &targets {
        let publisher = ids.iter().copied().find(|&p| p != id).unwrap();
        let report = cluster.publish_from(publisher, point);
        assert!(report.receivers.contains(&id), "{id} moved out of reach");
        assert!(
            report.false_negatives.is_empty(),
            "missed {:?}",
            report.false_negatives
        );
    }
}

/// A child cut off from its parent in both directions is given up on
/// and rejoins elsewhere or waits; once every block is lifted the
/// overlay is legal again and delivers exactly.
#[test]
fn blocked_pair_recovers_after_unblock_all_async() {
    let mut cluster: AsyncDrTreeCluster<2> =
        AsyncDrTreeCluster::build_bulk(async_config(), jittery(0.0), 113, &filters(20, 114));
    let root = cluster.root().unwrap();
    let child = cluster
        .ids()
        .into_iter()
        .find(|&id| id != root)
        .expect("non-root exists");
    let parent = {
        let node = cluster.node(child).unwrap();
        node.state().level(node.top()).unwrap().parent
    };
    assert_ne!(parent, child);
    cluster.block_link(child, parent);
    cluster.block_link(parent, child);
    cluster.run_for(30 * async_config().tick_interval);
    assert!(cluster.metrics().dropped() > 0, "the block cut traffic");

    cluster.unblock_all();
    cluster.stabilize(600_000).expect("recovers once unblocked");
    assert_eq!(cluster.len(), 20);
    let point = cluster.node(child).unwrap().filter().center();
    let report = cluster.publish_from(root, point);
    assert!(report.false_negatives.is_empty());
}
