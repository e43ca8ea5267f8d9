//! The common interface of the crate's two spatial-index backends.

use drtree_spatial::{Point, Rect};

/// A key type storable in a flat-buffer index snapshot
/// ([`crate::PackedRTree::save`] / [`crate::PackedRTree::load`]): the
/// key round-trips losslessly through a `u64` word. Keys are the one
/// column of a loaded tree that is not served in place — the buffer
/// holds the `u64` words, and the typed keys are decoded from them on
/// the first query.
///
/// Implemented for the unsigned/signed machine integers. Foreign key
/// types (newtypes the orphan rule keeps out of this impl list) use
/// the closure-taking [`crate::PackedRTree::save_with`] /
/// [`crate::PackedRTree::load_with`] escape hatch instead.
pub trait SnapshotKey: Copy {
    /// The key's 64-bit wire form.
    fn to_raw(self) -> u64;
    /// Rebuilds a key from its wire form. `raw` always came from
    /// [`SnapshotKey::to_raw`] on a checksummed buffer, so the impl
    /// may assume round-trip inputs.
    fn from_raw(raw: u64) -> Self;
}

macro_rules! snapshot_key_ints {
    ($($t:ty),*) => {$(
        impl SnapshotKey for $t {
            #[inline]
            fn to_raw(self) -> u64 {
                self as u64
            }
            #[inline]
            fn from_raw(raw: u64) -> Self {
                raw as $t
            }
        }
    )*};
}

snapshot_key_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Read-side interface shared by the pointer-based [`crate::RTree`] and
/// the flat [`crate::PackedRTree`].
///
/// The primitive operations are *visitors*: hits are delivered through
/// a callback, so counting or testing matches allocates nothing. The
/// `Vec`-returning searches are derived conveniences for cold paths.
/// Consumers that only read (oracles, matching sets, audit passes)
/// should accept `impl SpatialIndex<K, D>` and let the caller pick the
/// backend.
pub trait SpatialIndex<K, const D: usize> {
    /// Number of stored entries.
    fn len(&self) -> usize;

    /// `true` if no entry is stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every entry whose rectangle contains `point` — the exact
    /// matching set of an event.
    fn for_each_containing<'a, F>(&'a self, point: &Point<D>, visit: F)
    where
        F: FnMut(&'a K, &'a Rect<D>),
        K: 'a;

    /// Visits every entry whose rectangle intersects `window`.
    fn for_each_intersecting<'a, F>(&'a self, window: &Rect<D>, visit: F)
    where
        F: FnMut(&'a K, &'a Rect<D>),
        K: 'a;

    /// Visits, for each probe `points[i]`, every entry whose rectangle
    /// contains it, tagging hits with the probe index `i` — the
    /// batched form of [`SpatialIndex::for_each_containing`].
    ///
    /// The default implementation performs one independent visit per
    /// probe; backends may override it with a joint batch traversal
    /// (the packed backend descends the tree once per batch, see
    /// [`crate::PackedRTree::for_each_containing_batch`]). No emission
    /// order is guaranteed across probes.
    fn for_each_containing_batch<'a, F>(&'a self, points: &[Point<D>], mut visit: F)
    where
        F: FnMut(u32, &'a K, &'a Rect<D>),
        K: 'a,
    {
        for (i, point) in points.iter().enumerate() {
            self.for_each_containing(point, |k, r| visit(i as u32, k, r));
        }
    }

    /// Number of entries whose rectangle contains `point`, without
    /// materializing them.
    fn count_containing(&self, point: &Point<D>) -> usize {
        let mut count = 0;
        self.for_each_containing(point, |_, _| count += 1);
        count
    }
}
