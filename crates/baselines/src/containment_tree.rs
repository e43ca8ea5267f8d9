//! The containment-graph tree overlay (reference \[11\] of the paper:
//! Chand & Felber, "Semantic peer-to-peer overlays for
//! publish/subscribe networks").
//!
//! Subscriptions are organized directly along the containment partial
//! order: each subscription attaches below one of its direct containers
//! (first Hasse parent), and all uncontained subscriptions attach below
//! a *virtual root*. Parents cache their children's filters, so an
//! event only flows into children whose filter matches: routing is
//! exact (no false positives or negatives) *below* the virtual root —
//! the price is the virtual root's fan-out (one probe per uncontained
//! subscription for every event) and a depth as deep as the containment
//! chains (no height balancing).

use drtree_rtree::PackedRTree;
use drtree_spatial::{ContainmentGraph, Point, Rect};

use crate::{Baseline, RoutingOutcome};

/// The containment-graph tree of \[11\].
#[derive(Debug, Clone)]
pub struct ContainmentTreeOverlay<const D: usize> {
    filters: Vec<Rect<D>>,
    /// Packed index over `filters`, for the exact-matching count every
    /// routed event needs.
    matcher: PackedRTree<usize, D>,
    /// children[i] = subscriptions attached below filter i.
    children: Vec<Vec<usize>>,
    /// Subscriptions attached below the virtual root.
    roots: Vec<usize>,
    depth: usize,
}

impl<const D: usize> ContainmentTreeOverlay<D> {
    /// Builds the overlay for `filters`.
    pub fn build(filters: &[Rect<D>]) -> Self {
        let graph = ContainmentGraph::build(filters);
        let mut children = vec![Vec::new(); filters.len()];
        let mut attached = vec![false; filters.len()];
        // Attach every filter below its first direct container.
        for (i, slot) in attached.iter_mut().enumerate() {
            if let Some(&parent) = graph.hasse_parents(i).first() {
                children[parent].push(i);
                *slot = true;
            }
        }
        let roots: Vec<usize> = (0..filters.len()).filter(|&i| !attached[i]).collect();
        let mut overlay = Self {
            filters: filters.to_vec(),
            matcher: PackedRTree::bulk_load(filters.iter().copied().enumerate().collect()),
            children,
            roots,
            depth: 0,
        };
        overlay.depth = overlay.compute_depth();
        overlay
    }

    fn compute_depth(&self) -> usize {
        fn depth_of<const D: usize>(o: &ContainmentTreeOverlay<D>, i: usize) -> usize {
            1 + o.children[i]
                .iter()
                .map(|&c| depth_of(o, c))
                .max()
                .unwrap_or(0)
        }
        self.roots
            .iter()
            .map(|&r| depth_of(self, r))
            .max()
            .unwrap_or(0)
    }

    /// Number of subscriptions.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// `true` when no subscription is registered.
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }
}

impl<const D: usize> Baseline<D> for ContainmentTreeOverlay<D> {
    fn name(&self) -> &'static str {
        "containment-tree"
    }

    fn route(&self, event: &Point<D>) -> RoutingOutcome {
        let matching = self.matcher.count_containing(event);
        // The virtual root must consult every top-level subscription's
        // filter: with cached filters this costs one *message* only for
        // matching ones, but the root maintains (and keeps fresh) state
        // linear in `roots` — the paper's first inadequacy. Messages
        // below the root go only to matching children (filters cached
        // at the parent), which containment makes exact.
        let mut messages = 0usize;
        let mut receivers = 0usize;
        let mut max_hops = 0usize;
        let mut stack: Vec<(usize, usize)> = self
            .roots
            .iter()
            .filter(|&&r| self.filters[r].contains_point(event))
            .map(|&r| (r, 1))
            .collect();
        while let Some((node, hops)) = stack.pop() {
            messages += 1;
            receivers += 1;
            max_hops = max_hops.max(hops);
            for &c in &self.children[node] {
                if self.filters[c].contains_point(event) {
                    stack.push((c, hops + 1));
                }
            }
        }
        RoutingOutcome {
            receivers,
            matching,
            false_positives: 0, // exact by containment + cached filters
            false_negatives: matching - receivers,
            messages,
            max_hops,
        }
    }

    fn depth(&self) -> usize {
        self.depth
    }

    fn max_fanout(&self) -> usize {
        // The virtual root's children set is the dominating fan-out.
        self.roots
            .len()
            .max(self.children.iter().map(Vec::len).max().unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested() -> Vec<Rect<2>> {
        vec![
            Rect::new([0.0, 0.0], [50.0, 50.0]),
            Rect::new([5.0, 5.0], [40.0, 40.0]),
            Rect::new([10.0, 10.0], [30.0, 30.0]),
            Rect::new([60.0, 60.0], [90.0, 90.0]),
        ]
    }

    #[test]
    fn structure_follows_containment() {
        let o = ContainmentTreeOverlay::build(&nested());
        assert_eq!(o.depth(), 3);
        assert_eq!(o.max_fanout(), 2); // two uncontained roots
    }

    #[test]
    fn routing_is_exact() {
        let o = ContainmentTreeOverlay::build(&nested());
        let inside_chain = Point::new([20.0, 20.0]);
        let out = o.route(&inside_chain);
        assert_eq!(out.matching, 3);
        assert_eq!(out.receivers, 3);
        assert_eq!(out.false_positives, 0);
        assert_eq!(out.false_negatives, 0);
        assert_eq!(out.max_hops, 3);

        let nowhere = Point::new([55.0, 55.0]);
        let out = o.route(&nowhere);
        assert_eq!(out.receivers, 0);
        assert_eq!(out.messages, 0);
    }

    #[test]
    fn chains_make_it_deep() {
        // 20 nested rectangles: depth 20 — the imbalance the paper
        // criticizes (a DR-tree would be ~log-deep).
        let mut filters = Vec::new();
        for i in 0..20 {
            let pad = i as f64;
            filters.push(Rect::new([pad, pad], [100.0 - pad, 100.0 - pad]));
        }
        let o = ContainmentTreeOverlay::build(&filters);
        assert_eq!(o.depth(), 20);
    }

    #[test]
    fn empty_overlay() {
        let o = ContainmentTreeOverlay::<2>::build(&[]);
        assert!(o.is_empty());
        assert_eq!(o.depth(), 0);
        let out = o.route(&Point::new([0.0, 0.0]));
        assert_eq!(out.receivers, 0);
    }
}
