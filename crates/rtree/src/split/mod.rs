//! Children-set split methods (paper §3.2).
//!
//! When a node overflows (more than `M` children after an insertion), its
//! children set is divided "in two groups, each having at least m
//! elements". The paper supports three classical methods, all implemented
//! here over plain rectangle slices; the distributed DR-tree
//! (`drtree-core`) calls them on the MBRs of an overflowing children set:
//!
//! * [`SplitMethod::Linear`] — Guttman's linear-time method: seeds with
//!   the greatest normalized separation, remaining entries assigned in
//!   order to the group "whose MBR is increased the least".
//! * [`SplitMethod::Quadratic`] — Guttman's quadratic-time method: the
//!   seed pair "would waste the most area if they were in the same node";
//!   each next entry maximizes the difference in enlargement.
//! * [`SplitMethod::RStar`] — the R\*-tree split of Beckmann et al.:
//!   choose the split axis by minimum margin sum, then the distribution
//!   with minimum overlap (ties: minimum total area).
//!
//! All methods guarantee both groups hold at least `m` entries whenever
//! the input holds at least `2m`.

mod linear;
mod quadratic;
mod rstar;

use drtree_spatial::Rect;

pub use linear::split_linear;
pub use quadratic::split_quadratic;
pub use rstar::split_rstar;

/// Selects one of the three split algorithms of §3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SplitMethod {
    /// Guttman's linear method (fastest, coarsest grouping).
    Linear,
    /// Guttman's quadratic method (the paper's default illustration).
    #[default]
    Quadratic,
    /// The R\*-tree topological split (minimizes margin, then overlap).
    RStar,
}

impl SplitMethod {
    /// Partitions `rects` into two index groups, each of size ≥ `m`.
    ///
    /// Returns `(left, right)` where `left` contains the index of the
    /// first seed (for the Guttman methods) or the lower distribution
    /// (R\*). Every input index appears in exactly one group.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `rects.len() < 2m` — the caller (the
    /// DR-tree split module) only splits overflowing sets, which always
    /// satisfy this.
    pub fn split<const D: usize>(&self, rects: &[Rect<D>], m: usize) -> (Vec<usize>, Vec<usize>) {
        assert!(m >= 1, "split requires m >= 1");
        assert!(
            rects.len() >= 2 * m,
            "split requires at least 2m entries (got {} with m = {m})",
            rects.len()
        );
        let (a, b) = match self {
            SplitMethod::Linear => split_linear(rects, m),
            SplitMethod::Quadratic => split_quadratic(rects, m),
            SplitMethod::RStar => split_rstar(rects, m),
        };
        debug_assert!(a.len() >= m && b.len() >= m);
        debug_assert_eq!(a.len() + b.len(), rects.len());
        (a, b)
    }

    /// All split methods, for parameter sweeps in benches and tests.
    pub const ALL: [SplitMethod; 3] = [
        SplitMethod::Linear,
        SplitMethod::Quadratic,
        SplitMethod::RStar,
    ];
}

impl std::fmt::Display for SplitMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SplitMethod::Linear => "linear",
            SplitMethod::Quadratic => "quadratic",
            SplitMethod::RStar => "r-star",
        };
        f.write_str(s)
    }
}

/// Assigns the remaining (non-seed) entries for the Guttman methods.
///
/// `pick_next` selects which pending entry to place next; entries then go
/// to the group needing the least enlargement (ties: smaller area, then
/// fewer entries, as in Guttman's paper). When a group must absorb all
/// remaining entries to reach `m`, they are force-assigned.
fn distribute<const D: usize>(
    rects: &[Rect<D>],
    m: usize,
    mut group_a: Vec<usize>,
    mut group_b: Vec<usize>,
    mut pending: Vec<usize>,
    mut pick_next: impl FnMut(&[usize], &Rect<D>, &Rect<D>, &[Rect<D>]) -> usize,
) -> (Vec<usize>, Vec<usize>) {
    let mut mbr_a = Rect::union_all(group_a.iter().map(|&i| &rects[i])).expect("seed a");
    let mut mbr_b = Rect::union_all(group_b.iter().map(|&i| &rects[i])).expect("seed b");
    while !pending.is_empty() {
        // Force-assignment: one group must take everything left to reach m.
        if group_a.len() + pending.len() == m {
            group_a.append(&mut pending);
            break;
        }
        if group_b.len() + pending.len() == m {
            group_b.append(&mut pending);
            break;
        }
        let pos = pick_next(&pending, &mbr_a, &mbr_b, rects);
        let idx = pending.swap_remove(pos);
        let r = &rects[idx];
        let grow_a = mbr_a.enlargement(r);
        let grow_b = mbr_b.enlargement(r);
        let to_a = match grow_a.partial_cmp(&grow_b).expect("finite enlargement") {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => match mbr_a.area().partial_cmp(&mbr_b.area()) {
                Some(std::cmp::Ordering::Less) => true,
                Some(std::cmp::Ordering::Greater) => false,
                _ => group_a.len() <= group_b.len(),
            },
        };
        if to_a {
            group_a.push(idx);
            mbr_a.enlarge_to_cover(r);
        } else {
            group_b.push(idx);
            mbr_b.enlarge_to_cover(r);
        }
    }
    (group_a, group_b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtree_spatial::Rect;
    use proptest::prelude::*;

    fn arb_rect() -> impl Strategy<Value = Rect<2>> {
        (0.0f64..100.0, 0.0f64..100.0, 0.1f64..30.0, 0.1f64..30.0)
            .prop_map(|(x, y, w, h)| Rect::new([x, y], [x + w, y + h]))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every method partitions `0..n` into two groups of at least
        /// `m`, for `m` ∈ 1..5 and `n` from `2m` up to the overflow size
        /// `M + 1` at `M = 2m + m/2 + 1`. The rectangles cycle through
        /// the first `distinct` of a random pool: a pool of one repeats
        /// a single rectangle, a pool of `n` or more repeats none.
        #[test]
        fn all_methods_respect_bounds(
            m in 1usize..5,
            slack in 0usize..5,
            pool in prop::collection::vec(arb_rect(), 12),
            distinct in 1usize..=12,
        ) {
            let n = (2 * m + slack).min(2 * m + m / 2 + 2);
            let rects: Vec<Rect<2>> = (0..n).map(|i| pool[i % distinct]).collect();
            for method in SplitMethod::ALL {
                let (a, b) = method.split(&rects, m);
                prop_assert!(a.len() >= m && b.len() >= m, "{} n={} m={}", method, n, m);
                let mut all: Vec<usize> = a.iter().chain(&b).copied().collect();
                all.sort_unstable();
                prop_assert_eq!(all, (0..n).collect::<Vec<_>>(), "{} partition", method);
            }
        }
    }

    #[test]
    fn identical_rects_split_evenly_enough() {
        let rects = vec![Rect::new([0.0, 0.0], [1.0, 1.0]); 5];
        for method in SplitMethod::ALL {
            let (a, b) = method.split(&rects, 2);
            assert!(a.len() >= 2 && b.len() >= 2);
        }
    }

    #[test]
    fn two_clusters_are_separated() {
        // Two far-apart clusters: every method should separate them.
        let mut rects = Vec::new();
        for i in 0..3 {
            let o = i as f64;
            rects.push(Rect::new([o, 0.0], [o + 0.5, 0.5]));
        }
        for i in 0..3 {
            let o = 100.0 + i as f64;
            rects.push(Rect::new([o, 0.0], [o + 0.5, 0.5]));
        }
        for method in SplitMethod::ALL {
            let (a, b) = method.split(&rects, 2);
            let in_left = |i: &usize| *i < 3;
            let a_left = a.iter().filter(|i| in_left(i)).count();
            let b_left = b.iter().filter(|i| in_left(i)).count();
            // one group holds (almost) all of one cluster
            assert!(
                a_left == 0 || b_left == 0 || a_left == a.len() || b_left == b.len(),
                "{method}: clusters mixed: {a:?} / {b:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least 2m")]
    fn too_few_entries_panics() {
        let rects = vec![Rect::new([0.0, 0.0], [1.0, 1.0]); 3];
        let _ = SplitMethod::Quadratic.split(&rects, 2);
    }

    #[test]
    fn display_names() {
        assert_eq!(SplitMethod::Linear.to_string(), "linear");
        assert_eq!(SplitMethod::Quadratic.to_string(), "quadratic");
        assert_eq!(SplitMethod::RStar.to_string(), "r-star");
    }
}
