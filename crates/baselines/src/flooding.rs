//! The flooding baseline: an unstructured overlay broadcasting every
//! event to everybody.
//!
//! Its guarantees bound the design space from the bottom: no false
//! negatives by construction, but every non-interested subscriber is a
//! false positive and the message cost is linear in the population for
//! *every* event — the behavior the paper's §3.1 warns the DR-tree
//! degenerates to if containment is ignored ("the propagation of an
//! event may degenerate into a broadcast").

use drtree_rtree::PackedRTree;
use drtree_spatial::{Point, Rect};

use crate::{Baseline, RoutingOutcome};

/// A `k`-regular random overlay flooding every event.
#[derive(Debug, Clone)]
pub struct FloodingOverlay<const D: usize> {
    filters: Vec<Rect<D>>,
    /// Packed index over `filters` for the exact-matching count.
    matcher: PackedRTree<usize, D>,
    degree: usize,
}

impl<const D: usize> FloodingOverlay<D> {
    /// Builds the overlay; `degree` is each node's neighbor count.
    ///
    /// # Panics
    ///
    /// Panics if `degree == 0`.
    pub fn build(filters: &[Rect<D>], degree: usize) -> Self {
        assert!(degree > 0, "flooding needs at least one neighbor");
        Self {
            filters: filters.to_vec(),
            matcher: PackedRTree::bulk_load(filters.iter().copied().enumerate().collect()),
            degree,
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

impl<const D: usize> Baseline<D> for FloodingOverlay<D> {
    fn name(&self) -> &'static str {
        "flooding"
    }

    fn route(&self, event: &Point<D>) -> RoutingOutcome {
        let n = self.filters.len();
        if n == 0 {
            return RoutingOutcome::default();
        }
        let matching = self.matcher.count_containing(event);
        // Classic flood: every node forwards once to each neighbor.
        let messages = n * self.degree;
        let receivers = n.saturating_sub(1); // everybody but the publisher
        RoutingOutcome {
            receivers,
            matching,
            false_positives: receivers.saturating_sub(matching),
            false_negatives: 0,
            messages,
            max_hops: diameter_estimate(n, self.degree),
        }
    }

    fn depth(&self) -> usize {
        diameter_estimate(self.filters.len(), self.degree)
    }

    fn max_fanout(&self) -> usize {
        self.degree
    }
}

/// Diameter of a random k-regular graph ≈ log_k(n).
fn diameter_estimate(n: usize, k: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    let k = k.max(2) as f64;
    (n as f64).log(k).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floods_everyone() {
        let filters: Vec<Rect<2>> = (0..10)
            .map(|i| {
                let o = i as f64 * 10.0;
                Rect::new([o, 0.0], [o + 5.0, 5.0])
            })
            .collect();
        let o = FloodingOverlay::build(&filters, 4);
        let out = o.route(&Point::new([2.0, 2.0]));
        assert_eq!(out.receivers, 9);
        assert_eq!(out.matching, 1);
        assert_eq!(out.false_positives, 8);
        assert_eq!(out.false_negatives, 0);
        assert_eq!(out.messages, 40);
    }

    #[test]
    #[should_panic(expected = "neighbor")]
    fn zero_degree_rejected() {
        let _ = FloodingOverlay::<2>::build(&[], 0);
    }

    #[test]
    fn diameter_is_logarithmic() {
        assert_eq!(diameter_estimate(1, 4), 0);
        assert!(diameter_estimate(1000, 4) <= 5);
    }
}
