//! Centralized R-tree substrate for the DR-tree reproduction.
//!
//! The DR-tree of the paper distributes the classical R-tree index
//! structure (Guttman, SIGMOD 1984 — reference \[18\] of the paper). This
//! crate provides two backends behind one read interface, plus the split
//! methods shared with the distributed protocol:
//!
//! * [`RTree`] — the classical pointer-based R-tree (insert, delete,
//!   point and window queries);
//! * [`PackedRTree`] — a flat, cache-friendly tree: all node MBRs in
//!   contiguous per-level arrays, built bottom-up from a Hilbert-curve
//!   sort of entry centers, with iterative searches and `O(log N)`
//!   in-place entry updates. [`PackedRTree::save`] writes those arrays
//!   as they sit in memory — one layout, format version 1 — and
//!   [`PackedRTree::load`] serves queries straight off the loaded
//!   buffer: a built tree and a restored one are the same structure,
//!   whose columns are vectors in one case and zero-copy views in the
//!   other (copied out on first write);
//! * [`SpatialIndex`] — the common read interface (visitor-based, so
//!   hot paths allocate nothing per result), including a batched probe
//!   visitor that the packed backend answers with one joint descent
//!   per batch ([`PackedRTree::for_each_containing_batch`]);
//! * [`parallel`] — scoped-thread fan-out over independent shards,
//!   the worker pool behind the sharded publish oracle
//!   (`drtree-pubsub`);
//! * [`split`] — the three children-set split methods the paper supports
//!   (§3.2): Guttman's **linear** and **quadratic** methods and the
//!   **R\*-tree** split of Beckmann et al. (reference \[5\]). The split
//!   functions are shared verbatim with the distributed DR-tree protocol
//!   (`drtree-core`), so both trees split children sets identically.
//!
//! # Choosing a backend
//!
//! | | [`RTree`] | [`PackedRTree`] |
//! |---|---|---|
//! | layout | one heap `Box` per node | one flat array per level (a `Vec`, or a view of a loaded snapshot) |
//! | persistence | none | [`PackedRTree::save`] / zero-copy [`PackedRTree::load`] |
//! | build | incremental inserts | Hilbert [`PackedRTree::bulk_load`] only |
//! | insert/remove | yes, self-balancing | delta layer: [`PackedRTree::stage_insert`] / [`PackedRTree::remove_entry`] (tombstones), folded in by [`PackedRTree::compact`] |
//! | move an entry | remove + insert | [`PackedRTree::update`] refit, `O(log N)`, allocation-free |
//! | query cost | pointer chasing per node | contiguous scans, ~order-of-magnitude faster at scale |
//! | split methods | linear / quadratic / R\* (paper §3.2) | n/a (packing, not splitting) |
//!
//! Use the pointer tree when the entry set churns one-by-one and the
//! paper's split semantics matter (it is the *protocol model*); use the
//! packed tree for read-heavy serving paths: matching oracles, audit
//! passes, baseline routing, benchmark probes.
//!
//! # Example
//!
//! ```
//! use drtree_rtree::{PackedRTree, RTree, RTreeConfig, SpatialIndex, SplitMethod};
//! use drtree_spatial::{Rect, Point};
//!
//! let config = RTreeConfig::new(2, 4, SplitMethod::Quadratic)?;
//! let mut tree: RTree<&str, 2> = RTree::new(config);
//! tree.insert("sub-1", Rect::new([0.0, 0.0], [10.0, 10.0]));
//! tree.insert("sub-2", Rect::new([5.0, 5.0], [6.0, 6.0]));
//!
//! let hits = tree.search_point(&drtree_spatial::Point::new([5.5, 5.5]));
//! assert_eq!(hits.len(), 2);
//! tree.validate()?;
//!
//! // Same result set from the packed backend, via the shared trait.
//! let packed = PackedRTree::bulk_load(tree.iter().map(|(k, r)| (*k, *r)).collect());
//! assert_eq!(packed.count_containing(&Point::new([5.5, 5.5])), 2);
//! packed.validate()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
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
mod index;
mod packed;
pub mod parallel;
pub mod split;
mod tree;
mod validate;

pub use bytes::{AlignedBytes, CastError};
pub use config::{ConfigError, RTreeConfig};
pub use index::{SnapshotKey, SpatialIndex};
pub use packed::{
    DeltaCompaction, DeltaRemoval, EntryUpdate, FrozenShard, PackedRTree, PackedValidationError,
    DEFAULT_DELTA_FRACTION, DEFAULT_NODE_SIZE,
};
pub use split::SplitMethod;
pub use tree::RTree;
pub use validate::SnapshotError;
pub use validate::{InvariantViolation, ValidationError};
