//! R-tree substrate for the DR-tree reproduction.
//!
//! The DR-tree of the paper distributes the classical R-tree index
//! structure (Guttman, SIGMOD 1984 — reference \[18\] of the paper).
//! This crate holds the centralized pieces around it:
//!
//! * [`PackedRTree`] — a flat, cache-friendly tree: all node MBRs in
//!   contiguous per-level arrays, built bottom-up from a Hilbert-curve
//!   sort of entry centers, with iterative visitor searches (hot paths
//!   allocate nothing per result), a batched probe path that descends
//!   once per batch ([`PackedRTree::for_each_containing_batch`]) and
//!   `O(log N)` in-place entry updates. Inserts and removals land in a
//!   delta layer ([`PackedRTree::stage_insert`],
//!   [`PackedRTree::remove_entry`]) that [`PackedRTree::compact`] folds
//!   in. [`PackedRTree::save`] writes the arrays as they sit in memory —
//!   one layout, format version 1 — and [`PackedRTree::load`] serves
//!   queries straight off the loaded buffer: a built tree and a restored
//!   one are the same structure, whose columns are vectors in one case
//!   and zero-copy views in the other (copied out on first write);
//! * [`parallel`] — scoped-thread fan-out over independent shards,
//!   the worker pool behind the sharded publish oracle
//!   (`drtree-pubsub`);
//! * [`split`] — the three children-set split methods the paper supports
//!   (§3.2): Guttman's **linear** and **quadratic** methods and the
//!   **R\*-tree** split of Beckmann et al. (reference \[5\]), called by
//!   the distributed DR-tree protocol (`drtree-core`) when a children
//!   set overflows.
//!
//! # Example
//!
//! ```
//! use drtree_rtree::PackedRTree;
//! use drtree_spatial::{Point, Rect};
//!
//! let mut tree = PackedRTree::bulk_load(vec![
//!     ("sub-1", Rect::new([0.0, 0.0], [10.0, 10.0])),
//!     ("sub-2", Rect::new([5.0, 5.0], [6.0, 6.0])),
//! ]);
//! assert_eq!(tree.count_containing(&Point::new([5.5, 5.5])), 2);
//!
//! // Mutations are staged, visible at once, and folded in on compact.
//! tree.stage_insert("sub-3", Rect::new([5.0, 0.0], [7.0, 7.0]));
//! assert_eq!(tree.count_containing(&Point::new([5.5, 5.5])), 3);
//! tree.compact();
//! tree.validate()?;
//! # Ok::<(), drtree_rtree::PackedValidationError>(())
//! ```

// `deny`, not `forbid`: the [`bytes`] module carries the crate's one
// `allow(unsafe_code)` — align-checked POD slice casts behind a safe
// API (the zero-copy snapshot substrate). Everything else stays
// unsafe-free, and a stray `unsafe` outside that module still fails
// the build.
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[allow(unsafe_code)]
pub mod bytes;
mod config;
mod error;
mod key;
mod packed;
pub mod parallel;
pub mod split;

pub use bytes::{AlignedBytes, CastError};
pub use config::{ConfigError, RTreeConfig};
pub use error::SnapshotError;
pub use key::SnapshotKey;
pub use packed::{
    DeltaCompaction, DeltaRemoval, EntryUpdate, FrozenShard, PackedRTree, PackedValidationError,
    DEFAULT_DELTA_FRACTION, DEFAULT_NODE_SIZE,
};
pub use split::SplitMethod;
