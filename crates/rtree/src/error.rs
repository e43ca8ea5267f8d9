//! Why a snapshot buffer was rejected.

use std::fmt;

/// Why a snapshot buffer was rejected by [`crate::PackedRTree::load`]
/// (or the sharded oracle's `restore_bytes`). Every rejection is a
/// clean error — a corrupt or truncated buffer never panics and never
/// produces an out-of-bounds view, because all section offsets are
/// re-derived from the validated header and checked against the actual
/// buffer length before any typed slice is formed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer is shorter than its header (or a declared section)
    /// requires.
    Truncated {
        /// Bytes the header/layout requires.
        needed: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The leading magic number is not the expected format tag.
    BadMagic {
        /// The four bytes found (little-endian `u32`).
        found: u32,
    },
    /// The format version is newer (or older) than this build reads.
    WrongVersion {
        /// Version found in the header.
        found: u16,
        /// Version this build supports.
        supported: u16,
    },
    /// The buffer stores a different dimensionality than the target
    /// type's `D`.
    WrongDims {
        /// Dimensions declared by the header.
        found: u32,
        /// Dimensions the caller's type expects.
        expected: u32,
    },
    /// A stored checksum does not match the recomputed one — the
    /// payload was corrupted in flight or at rest.
    ChecksumMismatch,
    /// The snapshot's Hilbert shard assignment (world rectangle or
    /// range boundaries) disagrees with the assignment the restoring
    /// owner currently prescribes. Restoring it anyway would silently
    /// route entries to the wrong shards — or, one level up, to the
    /// wrong federated broker — so a warm restart from this buffer
    /// must fall back to a cold rebuild instead.
    StaleBoundaries {
        /// Shards the snapshot's embedded map partitions the curve
        /// into (0 when the snapshot carries no map at all).
        found: u32,
        /// Shards the expected assignment prescribes.
        expected: u32,
    },
    /// A header field is structurally impossible (node size out of
    /// range, level table disagreeing with the entry count, an invalid
    /// world rectangle, a count overflowing the format's limits, …).
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { needed, have } => {
                write!(f, "snapshot truncated: need {needed} bytes, have {have}")
            }
            SnapshotError::BadMagic { found } => {
                write!(f, "snapshot magic {found:#010x} is not a known format tag")
            }
            SnapshotError::WrongVersion { found, supported } => {
                write!(
                    f,
                    "snapshot version {found} unsupported (this build reads {supported})"
                )
            }
            SnapshotError::WrongDims { found, expected } => {
                write!(
                    f,
                    "snapshot stores {found}-dimensional rectangles, expected {expected}"
                )
            }
            SnapshotError::ChecksumMismatch => f.write_str("snapshot checksum mismatch"),
            SnapshotError::StaleBoundaries { found, expected } => write!(
                f,
                "snapshot shard boundaries are stale ({found} shards vs {expected} expected, \
                 or diverged keys/world): restoring would mis-route entries"
            ),
            SnapshotError::Corrupt(what) => write!(f, "snapshot header corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}
