//! Release-only scale test: a 500k-entry snapshot must restore far
//! faster than the bulk build it replaces, round-trip byte-exactly and
//! serve queries immediately after `load`. CI runs this via
//! `cargo test --release -p drtree-rtree`; under a debug build the bulk
//! load alone would dominate the suite, so it is ignored there.

use std::time::Instant;

use drtree_rtree::PackedRTree;
use drtree_spatial::{Point, Rect};

const N: usize = 500_000;

/// Deterministic workload: a jittered grid of small boxes.
fn entries() -> Vec<(usize, Rect<2>)> {
    let side = (N as f64).sqrt().ceil() as usize;
    (0..N)
        .map(|i| {
            let x = (i % side) as f64;
            let y = (i / side) as f64;
            // Cheap LCG jitter keeps rectangles off the exact lattice.
            let j = ((i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407)
                >> 33) as f64
                / (1u64 << 31) as f64;
            let w = 0.3 + 0.4 * j;
            (i, Rect::new([x, y], [x + w, y + w]))
        })
        .collect()
}

fn probe_points() -> Vec<Point<2>> {
    let side = (N as f64).sqrt().ceil();
    (0..64)
        .map(|i| {
            let t = i as f64 / 64.0;
            Point::new([t * side, (1.0 - t) * side])
        })
        .collect()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "500k bulk load is release-only; run with `cargo test --release`"
)]
fn five_hundred_k_snapshot_round_trips() {
    // Zero-copy restore must stay in a different complexity class than
    // the bulk build it replaces: `load` validates the header and sets
    // up column views, so only losing zero-copy restore can bring it
    // within 50x of the Hilbert bulk load (steady state is several
    // hundred x). Best of 3 builds and 5 loads, input copies untimed.
    const RESTORE_GATE: f64 = 50.0;
    let all = entries();
    let mut build_ns = u128::MAX;
    let mut built = None;
    for _ in 0..3 {
        let input = all.clone();
        let t0 = Instant::now();
        let tree = PackedRTree::bulk_load(input);
        build_ns = build_ns.min(t0.elapsed().as_nanos());
        built = Some(tree);
    }
    let mut tree = built.expect("three builds ran");
    let clean = tree.save();
    let mut load_ns = u128::MAX;
    for _ in 0..5 {
        let input = clean.clone();
        let t0 = Instant::now();
        let restored = PackedRTree::<usize, 2>::load(input).expect("snapshot loads");
        load_ns = load_ns.min(t0.elapsed().as_nanos());
        assert_eq!(restored.len(), N, "restore is lossless");
    }
    let ratio = build_ns as f64 / load_ns.max(1) as f64;
    assert!(
        ratio >= RESTORE_GATE,
        "restore of {N} entries is only {ratio:.1}x faster than bulk build \
         ({load_ns} ns vs {build_ns} ns; gate {RESTORE_GATE}x)"
    );

    // Leave the delta layer non-empty: stage a band of fresh entries
    // and tombstone a band of packed ones, so the snapshot carries all
    // three sections (core, staged, tombstones).
    for (i, (_, rect)) in all.iter().take(1_000).enumerate() {
        tree.stage_insert(N + i, *rect);
    }
    for (key, rect) in all.iter().skip(1_000).take(1_000) {
        assert!(tree.remove_entry(key, rect).is_some(), "tombstone {key}");
    }
    let live = tree.len();

    let bytes = tree.save();
    let restored = PackedRTree::<usize, 2>::load(bytes.clone()).expect("snapshot loads");
    assert_eq!(restored.len(), live);
    restored.verify_snapshot().expect("bulk checksum verifies");
    restored.validate().expect("restored tree validates");

    // The eager path must agree with the deferred path.
    let eager = PackedRTree::<usize, 2>::load_verified(bytes).expect("eager load verifies");
    assert_eq!(eager.len(), live);

    let mut hits = 0usize;
    for point in probe_points() {
        let mut want: Vec<usize> = tree.search_point(&point).into_iter().copied().collect();
        want.sort_unstable();
        let mut got: Vec<usize> = restored.search_point(&point).into_iter().copied().collect();
        got.sort_unstable();
        assert_eq!(got, want, "restored diverged at {point:?}");
        hits += want.len();
    }
    assert!(hits > 0, "probe set never hit an entry");
}
