//! Determinism pin for the overlay on the event engine — the
//! asynchronous twin of `determinism_pin.rs`.
//!
//! The fingerprint was captured at the commit *before*
//! `AsyncDrTreeCluster` and `DrTreeCluster` became one driver over one
//! fault plane. A 64-subscriber bulk-built overlay under jittered
//! latency lives through a window of loss, duplication and reordering,
//! takes four memory corruptions and stabilizes; nothing here passes
//! through a publish drain budget, so the pin holds the engine's draw
//! order, the driver's step loop and the contact oracle's answers, not a
//! budget formula. Structure, clock and every message counter must
//! reproduce exactly.

use drtree_core::corruption::CorruptionKind;
use drtree_core::{AsyncDrTreeCluster, DrTreeConfig, FaultProfile};
use drtree_sim::{LatencyModel, NetConfig};
use drtree_spatial::Rect;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LABELS: [&str; 19] = [
    "join",
    "join-too-tall",
    "add-child",
    "adopted",
    "assume-role",
    "reparent",
    "replace-child",
    "heartbeat",
    "hb-ack",
    "leave",
    "check-structure",
    "merge-into",
    "adopt-children",
    "inc",
    "rejoin-subtree",
    "depart-request",
    "pub-request",
    "pub-down",
    "pub-up",
];

fn filters(n: usize, seed: u64) -> Vec<Rect<2>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x = rng.gen_range(0.0..85.0);
            let y = rng.gen_range(0.0..85.0);
            let w = rng.gen_range(2.0..15.0);
            let h = rng.gen_range(2.0..15.0);
            Rect::new([x, y], [x + w, y + h])
        })
        .collect()
}

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The timestamp-free projection `determinism_pin.rs` uses: parent
/// pointers, instance MBRs and cached children, no clocks.
fn structure_digest(cluster: &AsyncDrTreeCluster<2>) -> u64 {
    let mut out = Vec::new();
    for (id, st) in cluster.snapshot() {
        out.push(id.raw());
        for (l, inst) in &st.levels {
            out.push(u64::from(*l));
            out.push(inst.parent.raw());
            out.extend((0..2).flat_map(|d| [inst.mbr.lo(d).to_bits(), inst.mbr.hi(d).to_bits()]));
            for (c, info) in &inst.children {
                out.push(c.raw());
                out.extend(
                    (0..2).flat_map(|d| [info.mbr.lo(d).to_bits(), info.mbr.hi(d).to_bits()]),
                );
                out.push(info.count as u64);
            }
        }
    }
    fnv(out)
}

/// `[structure, now, stabilization time, sent, delivered, dropped,
/// to_dead, duplicated, reordered, per-label digest]`.
fn fingerprint() -> [u64; 10] {
    let config = DrTreeConfig {
        tick_interval: 8,
        failure_timeout: 40,
        join_retry: 32,
        ..DrTreeConfig::default()
    };
    let net = NetConfig {
        latency: LatencyModel::Uniform { min: 1, max: 4 },
        ..NetConfig::default()
    };
    let mut cluster: AsyncDrTreeCluster<2> =
        AsyncDrTreeCluster::build_bulk(config, net, 42, &filters(64, 42));
    cluster.set_faults(FaultProfile {
        drop_probability: 0.05,
        duplicate_probability: 0.05,
        reorder_probability: 0.1,
        reorder_extra: 6,
    });
    cluster.run_for(30 * config.tick_interval);
    cluster.set_faults(FaultProfile::default());
    let ids = cluster.ids();
    for i in 0..4 {
        let victim = ids[(i * 13 + 5) % ids.len()];
        assert!(cluster.corrupt(
            victim,
            CorruptionKind::ALL[(i * 3) % CorruptionKind::ALL.len()]
        ));
    }
    let took = cluster.stabilize(2_000_000).expect("recovers");
    let m = cluster.metrics();
    [
        structure_digest(&cluster),
        cluster.now(),
        took,
        m.sent(),
        m.delivered(),
        m.dropped(),
        m.to_dead(),
        m.duplicated(),
        m.reordered(),
        fnv(LABELS.iter().map(|l| m.label_count(l))),
    ]
}

#[test]
fn async_overlay_fingerprint_is_pinned() {
    assert_eq!(fingerprint(), PINNED);
}

const PINNED: [u64; 10] = [
    10100882464211331331,
    280,
    24,
    4349,
    4317,
    173,
    0,
    203,
    359,
    3666167176730063638,
];
