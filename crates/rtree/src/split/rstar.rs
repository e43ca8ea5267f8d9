//! The R\*-tree split of Beckmann, Kriegel, Schneider and Seeger (SIGMOD
//! 1990 — reference [5] of the paper): "attempts to reduce not only the
//! coverage, but also the overlap."
//!
//! Axis choice (`ChooseSplitAxis`): for every dimension, sort the entries
//! by lower and by upper bound and enumerate all legal distributions
//! (first `m−1+k` entries vs. the rest); the axis with the minimum sum of
//! group margins wins. Distribution choice (`ChooseSplitIndex`): along
//! the chosen axis, minimize the overlap between the two group MBRs,
//! breaking ties by minimum total area.
//!
//! The R\*-tree's *forced reinsertion* is a feature of tree insertion,
//! not of the split itself; the distributed DR-tree realizes the same
//! idea through its rejoin machinery (`INITIATE_NEW_CONNECTION`).

use drtree_spatial::Rect;

/// Splits `rects` into two groups of at least `m` indices each using the
/// R\*-tree topological split.
pub fn split_rstar<const D: usize>(rects: &[Rect<D>], m: usize) -> (Vec<usize>, Vec<usize>) {
    let n = rects.len();
    debug_assert!(n >= 2 * m);

    let mut best_axis = 0usize;
    let mut best_axis_margin = f64::INFINITY;
    for dim in 0..D {
        let mut margin_sum = 0.0;
        for order in [sorted_by_lo(rects, dim), sorted_by_hi(rects, dim)] {
            for split_at in splits(n, m) {
                let (la, lb) = group_mbrs(rects, &order, split_at);
                margin_sum += la.margin() + lb.margin();
            }
        }
        if margin_sum < best_axis_margin {
            best_axis_margin = margin_sum;
            best_axis = dim;
        }
    }

    let mut best: Option<(f64, f64, Vec<usize>, usize)> = None;
    for order in [
        sorted_by_lo(rects, best_axis),
        sorted_by_hi(rects, best_axis),
    ] {
        for split_at in splits(n, m) {
            let (la, lb) = group_mbrs(rects, &order, split_at);
            let overlap = la.overlap_area(&lb);
            let total_area = la.area() + lb.area();
            let better = match &best {
                None => true,
                Some((bo, ba, _, _)) => overlap < *bo || (overlap == *bo && total_area < *ba),
            };
            if better {
                best = Some((overlap, total_area, order.clone(), split_at));
            }
        }
    }
    let (_, _, order, split_at) = best.expect("at least one distribution exists");
    (order[..split_at].to_vec(), order[split_at..].to_vec())
}

/// Legal first-group sizes: `m − 1 + k` for `k = 1 ..= n − 2m + 1`.
fn splits(n: usize, m: usize) -> impl Iterator<Item = usize> {
    m..=(n - m)
}

fn sorted_by_lo<const D: usize>(rects: &[Rect<D>], dim: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..rects.len()).collect();
    idx.sort_by(|&a, &b| {
        rects[a]
            .lo(dim)
            .partial_cmp(&rects[b].lo(dim))
            .expect("non-NaN bounds")
            .then(
                rects[a]
                    .hi(dim)
                    .partial_cmp(&rects[b].hi(dim))
                    .expect("non-NaN bounds"),
            )
    });
    idx
}

fn sorted_by_hi<const D: usize>(rects: &[Rect<D>], dim: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..rects.len()).collect();
    idx.sort_by(|&a, &b| {
        rects[a]
            .hi(dim)
            .partial_cmp(&rects[b].hi(dim))
            .expect("non-NaN bounds")
            .then(
                rects[a]
                    .lo(dim)
                    .partial_cmp(&rects[b].lo(dim))
                    .expect("non-NaN bounds"),
            )
    });
    idx
}

fn group_mbrs<const D: usize>(
    rects: &[Rect<D>],
    order: &[usize],
    split_at: usize,
) -> (Rect<D>, Rect<D>) {
    let a = Rect::union_all(order[..split_at].iter().map(|&i| &rects[i]))
        .expect("left group non-empty");
    let b = Rect::union_all(order[split_at..].iter().map(|&i| &rects[i]))
        .expect("right group non-empty");
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_iterator_covers_legal_range() {
        // n = 5, m = 2 → first group sizes 2 and 3
        assert_eq!(splits(5, 2).collect::<Vec<_>>(), vec![2, 3]);
        // n = 4, m = 2 → only the even split
        assert_eq!(splits(4, 2).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn separates_overlap_free_when_possible() {
        // Two columns of rects: a vertical split has zero overlap.
        let mut rects = Vec::new();
        for i in 0..3 {
            let y = i as f64 * 2.0;
            rects.push(Rect::new([0.0, y], [1.0, y + 1.0])); // left column
            rects.push(Rect::new([10.0, y], [11.0, y + 1.0])); // right column
        }
        let (a, b) = split_rstar(&rects, 2);
        let (la, lb) = (
            Rect::union_all(a.iter().map(|&i| &rects[i])).unwrap(),
            Rect::union_all(b.iter().map(|&i| &rects[i])).unwrap(),
        );
        assert_eq!(la.overlap_area(&lb), 0.0);
    }

    #[test]
    fn picks_axis_with_better_structure() {
        // Entries form two groups separated along y; x extents are wild.
        let rects = vec![
            Rect::new([0.0, 0.0], [9.0, 1.0]),
            Rect::new([1.0, 0.2], [10.0, 1.2]),
            Rect::new([0.5, 100.0], [9.5, 101.0]),
            Rect::new([1.5, 100.2], [10.5, 101.2]),
        ];
        let (a, b) = split_rstar(&rects, 2);
        let mut a_sorted = a.clone();
        a_sorted.sort_unstable();
        let mut b_sorted = b.clone();
        b_sorted.sort_unstable();
        assert!(
            (a_sorted == vec![0, 1] && b_sorted == vec![2, 3])
                || (a_sorted == vec![2, 3] && b_sorted == vec![0, 1]),
            "expected y-axis separation, got {a:?}/{b:?}"
        );
    }

    #[test]
    fn group_sizes_respect_m() {
        let rects: Vec<Rect<2>> = (0..9)
            .map(|i| {
                let x = i as f64;
                Rect::new([x, 0.0], [x + 2.0, 1.0])
            })
            .collect();
        for m in 1..=4 {
            let (a, b) = split_rstar(&rects, m);
            assert!(a.len() >= m && b.len() >= m);
            assert_eq!(a.len() + b.len(), 9);
        }
    }
}
