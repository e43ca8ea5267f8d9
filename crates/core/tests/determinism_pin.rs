//! Determinism pin: the simulated behaviour of a seeded faulty run is a
//! constant of the repository, not of the engine's implementation.
//!
//! The fingerprints below were captured at the commit *before* the
//! round engine began lending its effect buffers to callbacks and the
//! contact oracle became a linear pass. A 256-subscriber bulk-built
//! overlay runs the `lossy-burst` and the `dup-reorder` schedule (loss,
//! duplication and reordering all draw from the network RNG, so any
//! change in draw order, per-inbox message order or oracle answer moves
//! them), then publishes four probes. Structure, round count, every
//! message counter, the per-label counts and the probes' per-tag bills
//! must reproduce exactly.

use drtree_core::{run_convergence, ConvergenceConfig, DrTreeCluster, DrTreeConfig, FaultSchedule};
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

/// The timestamp-free projection `adversary::structure_digest` uses:
/// parent pointers, instance MBRs and cached children, no clocks.
fn structure_digest(cluster: &DrTreeCluster<2>) -> u64 {
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

/// `[structure, rounds, recovery rounds, sent, delivered, dropped,
/// duplicated, reordered, per-label digest, probe bills digest]`.
fn fingerprint(schedule: &FaultSchedule<2>) -> [u64; 10] {
    let mut cluster = DrTreeCluster::build_bulk(DrTreeConfig::default(), 42, &filters(256, 42));
    let report = run_convergence(&mut cluster, schedule, &ConvergenceConfig::default());
    assert!(report.passed(), "{schedule} must recover: {report:?}");
    let ids = cluster.ids();
    let probes: Vec<u64> = (0..4)
        .flat_map(|i| {
            let target = cluster.node(ids[(i * 61 + 7) % ids.len()]).unwrap();
            let point = target.filter().center();
            let r = cluster.publish_from(ids[(i * 17) % ids.len()], point);
            assert!(r.false_negatives.is_empty());
            [r.messages, r.receivers.len() as u64, r.rounds]
        })
        .collect();
    let m = cluster.metrics();
    [
        structure_digest(&cluster),
        cluster.round(),
        report.recovery_rounds.unwrap_or(u64::MAX),
        m.sent(),
        m.delivered(),
        m.dropped(),
        m.duplicated(),
        m.reordered(),
        fnv(LABELS.iter().map(|l| m.label_count(l))),
        fnv(probes),
    ]
}

#[test]
fn lossy_burst_fingerprint_is_pinned() {
    assert_eq!(fingerprint(&FaultSchedule::lossy_burst()), LOSSY_BURST);
}

#[test]
fn dup_reorder_fingerprint_is_pinned() {
    assert_eq!(fingerprint(&FaultSchedule::dup_reorder()), DUP_REORDER);
}

const LOSSY_BURST: [u64; 10] = [
    10548480730240508561,
    146,
    44,
    72344,
    69341,
    2493,
    0,
    0,
    11604636000907443685,
    5142287471864183557,
];

const DUP_REORDER: [u64; 10] = [
    1058328123437039449,
    99,
    0,
    51800,
    54089,
    0,
    2799,
    3544,
    13879172558660137199,
    16195293593226237285,
];
