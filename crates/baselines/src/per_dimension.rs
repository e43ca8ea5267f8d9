//! The per-dimension containment forest (reference \[3\] of the paper:
//! Anceaume, Datta, Gradinariu, Simon, Virgillito — "A semantic overlay
//! for self-* peer-to-peer publish subscribe").
//!
//! "Another approach consists in building one containment tree per
//! dimension and add a subscription to each tree for which it specifies
//! an attribute filter. This solution tends to produce flat trees with
//! high fan-out and may generate a significant number of false
//! positives." (§3.1)
//!
//! Each dimension `d` orders the subscriptions' `d`-intervals by
//! containment; an event's coordinate `x_d` is routed down every
//! dimension tree to the subscriptions whose interval contains it. A
//! subscription receives the event as soon as *one* of its dimension
//! trees delivers it — matching in one dimension says nothing about the
//! others, hence the false positives. Matching subscribers match every
//! dimension and are reached in all their trees, so there are no false
//! negatives.

use drtree_rtree::PackedRTree;
use drtree_spatial::{Point, Rect};

use crate::{Baseline, RoutingOutcome};

/// One node's interval in one dimension tree.
#[derive(Debug, Clone, Copy)]
struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    fn contains_value(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    fn contains_interval(&self, other: &Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    fn strictly_contains(&self, other: &Interval) -> bool {
        self.contains_interval(other) && (self.lo != other.lo || self.hi != other.hi)
    }
}

/// One dimension's containment tree (forest).
#[derive(Debug, Clone)]
struct DimTree {
    intervals: Vec<Interval>,
    children: Vec<Vec<usize>>,
    roots: Vec<usize>,
}

impl DimTree {
    fn build(intervals: Vec<Interval>) -> Self {
        let n = intervals.len();
        let mut children = vec![Vec::new(); n];
        let mut attached = vec![false; n];
        for i in 0..n {
            // first *minimal* strict container = Hasse parent
            let mut parent: Option<usize> = None;
            for j in 0..n {
                if i != j && intervals[j].strictly_contains(&intervals[i]) {
                    parent = match parent {
                        None => Some(j),
                        Some(p) if intervals[p].strictly_contains(&intervals[j]) => Some(j),
                        keep => keep,
                    };
                }
            }
            if let Some(p) = parent {
                children[p].push(i);
                attached[i] = true;
            }
        }
        let roots = (0..n).filter(|&i| !attached[i]).collect();
        Self {
            intervals,
            children,
            roots,
        }
    }

    /// Members whose interval contains `x`, with messages and hop depth
    /// spent reaching them.
    fn deliver(&self, x: f64) -> (Vec<usize>, usize, usize) {
        let mut delivered = Vec::new();
        let mut messages = 0usize;
        let mut max_hops = 0usize;
        let mut stack: Vec<(usize, usize)> = self
            .roots
            .iter()
            .filter(|&&r| self.intervals[r].contains_value(x))
            .map(|&r| (r, 1))
            .collect();
        while let Some((node, hops)) = stack.pop() {
            messages += 1;
            max_hops = max_hops.max(hops);
            delivered.push(node);
            for &c in &self.children[node] {
                if self.intervals[c].contains_value(x) {
                    stack.push((c, hops + 1));
                }
            }
        }
        (delivered, messages, max_hops)
    }

    fn depth(&self) -> usize {
        fn depth_of(t: &DimTree, i: usize) -> usize {
            1 + t.children[i]
                .iter()
                .map(|&c| depth_of(t, c))
                .max()
                .unwrap_or(0)
        }
        self.roots
            .iter()
            .map(|&r| depth_of(self, r))
            .max()
            .unwrap_or(0)
    }

    fn max_fanout(&self) -> usize {
        self.roots
            .len()
            .max(self.children.iter().map(Vec::len).max().unwrap_or(0))
    }
}

/// The per-dimension forest of \[3\].
#[derive(Debug, Clone)]
pub struct PerDimensionOverlay<const D: usize> {
    filters: Vec<Rect<D>>,
    /// Packed index over `filters` for the exact-matching count.
    matcher: PackedRTree<usize, D>,
    trees: Vec<DimTree>,
}

impl<const D: usize> PerDimensionOverlay<D> {
    /// Builds one containment tree per dimension.
    pub fn build(filters: &[Rect<D>]) -> Self {
        let trees = (0..D)
            .map(|d| {
                DimTree::build(
                    filters
                        .iter()
                        .map(|f| Interval {
                            lo: f.lo(d),
                            hi: f.hi(d),
                        })
                        .collect(),
                )
            })
            .collect();
        Self {
            filters: filters.to_vec(),
            matcher: PackedRTree::bulk_load(filters.iter().copied().enumerate().collect()),
            trees,
        }
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

impl<const D: usize> Baseline<D> for PerDimensionOverlay<D> {
    fn name(&self) -> &'static str {
        "per-dimension"
    }

    fn route(&self, event: &Point<D>) -> RoutingOutcome {
        let matching = self.matcher.count_containing(event);
        let mut received = vec![false; self.filters.len()];
        let mut messages = 0usize;
        let mut max_hops = 0usize;
        for (d, tree) in self.trees.iter().enumerate() {
            let (delivered, msgs, hops) = tree.deliver(event.coord(d));
            messages += msgs;
            max_hops = max_hops.max(hops);
            for i in delivered {
                received[i] = true;
            }
        }
        let receivers = received.iter().filter(|r| **r).count();
        let false_positives = received
            .iter()
            .enumerate()
            .filter(|(i, r)| **r && !self.filters[*i].contains_point(event))
            .count();
        let false_negatives = received
            .iter()
            .enumerate()
            .filter(|(i, r)| !**r && self.filters[*i].contains_point(event))
            .count();
        RoutingOutcome {
            receivers,
            matching,
            false_positives,
            false_negatives,
            messages,
            max_hops,
        }
    }

    fn depth(&self) -> usize {
        self.trees.iter().map(DimTree::depth).max().unwrap_or(0)
    }

    fn max_fanout(&self) -> usize {
        self.trees
            .iter()
            .map(DimTree::max_fanout)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filters() -> Vec<Rect<2>> {
        vec![
            Rect::new([0.0, 0.0], [10.0, 10.0]), // 0
            Rect::new([2.0, 50.0], [8.0, 60.0]), // 1: x inside 0's x-range, y far away
            Rect::new([50.0, 2.0], [60.0, 8.0]), // 2: y inside 0's y-range, x far away
        ]
    }

    #[test]
    fn false_positives_from_single_dimension_match() {
        let o = PerDimensionOverlay::build(&filters());
        // Event inside filter 0 only; its x matches filter 1's x-interval
        // and its y matches filter 2's y-interval.
        let out = o.route(&Point::new([5.0, 5.0]));
        assert_eq!(out.matching, 1);
        assert_eq!(out.receivers, 3, "dimension trees over-deliver");
        assert_eq!(out.false_positives, 2);
        assert_eq!(out.false_negatives, 0);
    }

    #[test]
    fn no_false_negatives() {
        let o = PerDimensionOverlay::build(&filters());
        for p in [
            Point::new([5.0, 5.0]),
            Point::new([5.0, 55.0]),
            Point::new([55.0, 5.0]),
            Point::new([99.0, 99.0]),
        ] {
            let out = o.route(&p);
            assert_eq!(out.false_negatives, 0, "at {p}");
        }
    }

    #[test]
    fn flat_trees_have_high_fanout() {
        // Many disjoint intervals ⇒ every subscription is a root in both
        // dimension trees ⇒ fan-out ≈ N (the paper's critique).
        let filters: Vec<Rect<2>> = (0..30)
            .map(|i| {
                let o = i as f64 * 3.0;
                Rect::new([o, o], [o + 2.0, o + 2.0])
            })
            .collect();
        let o = PerDimensionOverlay::build(&filters);
        assert_eq!(o.max_fanout(), 30);
        assert_eq!(o.depth(), 1);
    }
}
