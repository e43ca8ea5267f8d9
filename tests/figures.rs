//! Reproduction of the paper's structural figures (1–6) as assertions.

use drtree::spatial::sample;
use drtree::{ContainmentGraph, DrTreeCluster, DrTreeConfig, Rect, SplitMethod};

const S1: usize = 0;
const S2: usize = 1;
const S3: usize = 2;
const S4: usize = 3;
const S5: usize = 4;
const S6: usize = 5;
const S7: usize = 6;
const S8: usize = 7;

/// Figure 1 (right): the containment graph of the sample subscriptions.
#[test]
fn fig1_containment_graph() {
    let g: ContainmentGraph = sample::containment_graph();
    // The diamond called out in §3.1: S4 under both S2 and S3.
    assert_eq!(g.hasse_parents(S4), vec![S2, S3]);
    // Chains: S2 ⊐ S1 ⊐ S7 and S3 ⊐ S5 ⊐ S6.
    assert!(g.contains(S2, S1) && g.contains(S1, S7));
    assert!(g.contains(S3, S5) && g.contains(S5, S6));
    assert!(g.contains(S3, S8));
    assert_eq!(g.roots(), &[S2, S3]);
}

/// Figures 2–3: the R-tree the DR-tree distributes, over the sample
/// subscriptions at the paper's (m, M) = (1, 3) with quadratic split —
/// every subscriber a leaf, interior instances carrying only MBRs, the
/// tree legal and height balanced, and every event delivered to exactly
/// its Figure-1 subscription set from every publisher.
#[test]
fn fig2_rtree_over_sample() {
    let config = DrTreeConfig::with_degree(1, 3, SplitMethod::Quadratic).unwrap();
    let mut cluster = DrTreeCluster::build(config, 2007, sample::subscriptions().as_ref());
    cluster.check_legal().expect("legal configuration");
    let ids = cluster.ids();
    assert_eq!(ids.len(), 8);
    // 8 subscribers with M = 3 ⇒ at least 3 leaf groups ⇒ height ≥ 2.
    assert!(cluster.height() >= 2, "height {}", cluster.height());
    assert!(cluster.max_degree_observed() <= 3);
    for (label, event) in sample::events() {
        for &publisher in &ids {
            let report = cluster.publish_from(publisher, event);
            let mut want: Vec<_> = sample::matching(&event)
                .into_iter()
                .map(|i| ids[i])
                .filter(|&id| id != publisher)
                .collect();
            want.sort_unstable();
            let mut got = report.matching.clone();
            got.sort_unstable();
            assert_eq!(got, want, "event {label} from {publisher}");
            assert!(want.iter().all(|id| report.receivers.contains(id)));
            assert!(report.false_negatives.is_empty(), "event {label}");
        }
    }
}

/// Figures 4–5: the DR-tree organization of the sample — S3 (largest
/// MBR) is elected root, every subscriber appears as a leaf, and the
/// containment-awareness property 3.1 holds.
#[test]
fn fig4_drtree_over_sample() {
    let subs = sample::subscriptions();
    let cluster = DrTreeCluster::build(DrTreeConfig::default(), 2007, subs.as_ref());
    cluster.check_legal().expect("legal configuration");
    let ids = cluster.ids();
    // Fig. 4: the logical tree has a single virtual root — S3.
    assert_eq!(cluster.root(), Some(ids[S3]), "S3 has the largest area");

    // Property 3.1 (weak containment awareness): a containee is never an
    // ancestor of its container. Check every containment pair.
    let g = sample::containment_graph();
    let snapshot = cluster.snapshot();
    let is_ancestor = |a: drtree::ProcessId, b: drtree::ProcessId| -> bool {
        // does a appear strictly above b's topmost instance?
        let mut cur = b;
        let mut hops = 0;
        loop {
            let st = &snapshot[&cur];
            let parent = st.level(st.top()).map(|l| l.parent).unwrap_or(cur);
            if parent == cur || hops > snapshot.len() {
                return false;
            }
            if parent == a {
                return true;
            }
            cur = parent;
            hops += 1;
        }
    };
    for container in 0..subs.len() {
        for &containee in g.descendants(container) {
            assert!(
                !is_ancestor(ids[containee], ids[container]),
                "containee S{} is an ancestor of its container S{}",
                containee + 1,
                container + 1
            );
        }
    }
}

/// Figure 6: the root-election principle on its three cases —
/// containment, intersecting MBRs, disjoint MBRs. "In all cases, S1 is
/// the best candidate to be elected as root."
#[test]
fn fig6_root_election_cases() {
    // In each case the filters are chosen so s1 has the largest MBR.
    let cases: [(&str, [Rect<2>; 3]); 3] = [
        (
            "containment",
            [
                Rect::new([0.0, 0.0], [30.0, 30.0]), // s1 contains both
                Rect::new([2.0, 2.0], [12.0, 12.0]),
                Rect::new([15.0, 15.0], [28.0, 28.0]),
            ],
        ),
        (
            "intersecting",
            [
                Rect::new([0.0, 0.0], [30.0, 20.0]),  // s1: area 600
                Rect::new([20.0, 5.0], [40.0, 18.0]), // overlaps s1
                Rect::new([25.0, 10.0], [42.0, 22.0]),
            ],
        ),
        (
            "disjoint",
            [
                Rect::new([0.0, 0.0], [25.0, 25.0]), // s1: area 625
                Rect::new([40.0, 0.0], [55.0, 15.0]),
                Rect::new([70.0, 40.0], [85.0, 58.0]),
            ],
        ),
    ];
    for (name, filters) in cases {
        let cluster = DrTreeCluster::build(DrTreeConfig::default(), 6, filters.as_ref());
        let ids = cluster.ids();
        assert_eq!(
            cluster.root(),
            Some(ids[0]),
            "case {name}: S1 must be elected root"
        );
    }
}
