//! The subscription-containment partial order and its graph (§2.1, Fig. 1).
//!
//! "Subscription `S1` contains another subscription `S2` (written
//! `S1 ⊒ S2`) iff any message `m` that matches `S2` also matches `S1`.
//! … The containment relationship is transitive and defines a partial
//! order." Geometrically, containment is rectangle enclosure.
//!
//! [`ContainmentGraph`] computes, for a set of filters, both the full
//! relation and its transitive reduction (the Hasse diagram drawn on the
//! right of the paper's Figure 1), which the containment-tree baseline
//! (\[11\] in the paper) maps directly onto an overlay.

use std::fmt;

use crate::Rect;

/// The containment relation over a fixed set of filters.
///
/// Indices refer to the order of the filter slice passed to
/// [`ContainmentGraph::build`].
///
/// # Example
///
/// ```
/// use drtree_spatial::{Rect, ContainmentGraph};
/// let filters: Vec<Rect<2>> = vec![
///     Rect::new([0.0, 0.0], [10.0, 10.0]), // 0: outermost
///     Rect::new([1.0, 1.0], [5.0, 5.0]),   // 1: inside 0
///     Rect::new([2.0, 2.0], [3.0, 3.0]),   // 2: inside 1 (and 0)
/// ];
/// let g = ContainmentGraph::build(&filters);
/// assert!(g.contains(0, 2));
/// // The Hasse diagram keeps only the direct edge 0→1 and 1→2:
/// assert_eq!(g.hasse_children(0), &[1]);
/// assert_eq!(g.hasse_children(1), &[2]);
/// assert_eq!(g.roots(), &[0]);
/// ```
#[derive(Debug, Clone)]
pub struct ContainmentGraph {
    n: usize,
    /// `relation[i]` = sorted indices j with filter_i ⊐ filter_j (strict).
    relation: Vec<Vec<usize>>,
    /// Transitive reduction of `relation`.
    hasse: Vec<Vec<usize>>,
    /// Indices not strictly contained in any other filter.
    roots: Vec<usize>,
}

impl ContainmentGraph {
    /// Builds the containment graph of `filters`.
    ///
    /// Equal rectangles do not contain each other *strictly*; they end up
    /// as siblings (both roots, or both children of the same containers).
    /// Runs in `O(n²·D + n³)` for the transitive reduction — fine for the
    /// subscription-set sizes the overlay manages per neighborhood.
    pub fn build<const D: usize>(filters: &[Rect<D>]) -> Self {
        let n = filters.len();
        let mut relation = vec![Vec::new(); n];
        for i in 0..n {
            for j in 0..n {
                if i != j && filters[i].contains_rect_strict(&filters[j]) {
                    relation[i].push(j);
                }
            }
        }
        // Transitive reduction: drop i→j if some k with i→k and k→j exists.
        let mut hasse = vec![Vec::new(); n];
        for i in 0..n {
            'next: for &j in &relation[i] {
                for &k in &relation[i] {
                    if k != j && relation[k].binary_search(&j).is_ok() {
                        continue 'next;
                    }
                }
                hasse[i].push(j);
            }
        }
        let mut contained = vec![false; n];
        for children in &relation {
            for &j in children {
                contained[j] = true;
            }
        }
        let roots = (0..n).filter(|&i| !contained[i]).collect();
        Self {
            n,
            relation,
            hasse,
            roots,
        }
    }

    /// Number of filters in the graph.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the graph was built over an empty filter set.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `true` iff filter `i` strictly contains filter `j`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        assert!(i < self.n && j < self.n, "index out of range");
        self.relation[i].binary_search(&j).is_ok()
    }

    /// All filters strictly contained in `i` (transitively).
    pub fn descendants(&self, i: usize) -> &[usize] {
        &self.relation[i]
    }

    /// Direct containees of `i` in the Hasse diagram.
    pub fn hasse_children(&self, i: usize) -> &[usize] {
        &self.hasse[i]
    }

    /// Direct containers of `i` in the Hasse diagram.
    pub fn hasse_parents(&self, i: usize) -> Vec<usize> {
        (0..self.n)
            .filter(|&p| self.hasse[p].contains(&i))
            .collect()
    }

    /// Filters not strictly contained in any other filter.
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// Longest chain length from `i` downward (a single filter has
    /// depth 1).
    pub fn depth_below(&self, i: usize) -> usize {
        1 + self.hasse[i]
            .iter()
            .map(|&c| self.depth_below(c))
            .max()
            .unwrap_or(0)
    }

    /// Longest containment chain in the whole graph.
    pub fn max_depth(&self) -> usize {
        self.roots
            .iter()
            .map(|&r| self.depth_below(r))
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for ContainmentGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "containment graph ({} filters)", self.n)?;
        for i in 0..self.n {
            if !self.hasse[i].is_empty() {
                writeln!(f, "  {} ⊐ {:?}", i, self.hasse[i])?;
            }
        }
        write!(f, "  roots: {:?}", self.roots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rects() -> Vec<Rect<2>> {
        vec![
            Rect::new([0.0, 0.0], [10.0, 10.0]),  // 0 big
            Rect::new([1.0, 1.0], [5.0, 5.0]),    // 1 ⊂ 0
            Rect::new([2.0, 2.0], [3.0, 3.0]),    // 2 ⊂ 1 ⊂ 0
            Rect::new([6.0, 6.0], [9.0, 9.0]),    // 3 ⊂ 0, sibling of 1
            Rect::new([20.0, 0.0], [30.0, 10.0]), // 4 disjoint root
        ]
    }

    #[test]
    fn full_relation_is_transitive() {
        let g = ContainmentGraph::build(&rects());
        assert!(g.contains(0, 1));
        assert!(g.contains(1, 2));
        assert!(g.contains(0, 2)); // transitivity is materialized
        assert!(!g.contains(1, 3));
        assert!(!g.contains(4, 0));
    }

    #[test]
    fn hasse_reduction_drops_transitive_edges() {
        let g = ContainmentGraph::build(&rects());
        assert_eq!(g.hasse_children(0), &[1, 3]);
        assert_eq!(g.hasse_children(1), &[2]);
        assert!(g.hasse_children(2).is_empty());
        assert_eq!(g.hasse_parents(2), vec![1]);
    }

    #[test]
    fn roots_and_depth() {
        let g = ContainmentGraph::build(&rects());
        assert_eq!(g.roots(), &[0, 4]);
        assert_eq!(g.max_depth(), 3); // 0 → 1 → 2
        assert_eq!(g.depth_below(4), 1);
    }

    #[test]
    fn diamond_containment() {
        // d is inside both a and b, which are incomparable: a diamond
        // (the S4 ⊂ S2, S4 ⊂ S3 case the paper points out).
        let filters = vec![
            Rect::new([0.0, 0.0], [6.0, 4.0]),  // a
            Rect::new([2.0, 0.0], [10.0, 4.0]), // b
            Rect::new([3.0, 1.0], [5.0, 2.0]),  // d ⊂ a, d ⊂ b
        ];
        let g = ContainmentGraph::build(&filters);
        assert_eq!(g.hasse_parents(2), vec![0, 1]);
        assert_eq!(g.roots(), &[0, 1]);
    }

    #[test]
    fn equal_rects_are_incomparable() {
        let r = Rect::new([0.0, 0.0], [1.0, 1.0]);
        let g = ContainmentGraph::build(&[r, r]);
        assert!(!g.contains(0, 1));
        assert!(!g.contains(1, 0));
        assert_eq!(g.roots(), &[0, 1]);
    }

    #[test]
    fn empty_graph() {
        let g = ContainmentGraph::build::<2>(&[]);
        assert!(g.is_empty());
        assert_eq!(g.max_depth(), 0);
        assert_eq!(g.roots(), &[] as &[usize]);
    }

    #[test]
    fn display_mentions_roots() {
        let g = ContainmentGraph::build(&rects());
        let s = g.to_string();
        assert!(s.contains("roots"));
    }
}
