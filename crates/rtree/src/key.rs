//! The key type of a flat-buffer index snapshot.

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
