//! The packed, cache-friendly R-tree.
//!
//! [`PackedRTree`] stores the whole index in contiguous level arrays
//! — vectors when built, views of the snapshot buffer when loaded, one
//! structure either way — no per-node boxes, no pointer chasing. It
//! is built bottom-up in one pass: entries are sorted by the Hilbert
//! index of their center ([`drtree_spatial::hilbert`]), tiled into
//! nodes of `node_size` consecutive entries, and parent levels pack
//! the level below the same way until a single root remains (the
//! flatbush / geo-index construction).
//!
//! Topology is implicit: node `j` of level `l` always covers children
//! `j·B .. min((j+1)·B, len(l−1))` of the level below, so the only
//! stored data are the node MBRs themselves. Searches are iterative
//! (explicit stack, no recursion), and the visitor API delivers hits
//! through a callback so the hot path allocates nothing per result.
//!
//! The tree is static in *shape* but serves live workloads through
//! [`PackedRTree::update`], which rewrites one entry's rectangle and
//! incrementally refits the `O(log N)` ancestor MBRs above it.
//!
//! # The two-tier search: packed levels + delta layer
//!
//! Growing or shrinking the entry set does **not** require an
//! immediate rebuild. The tree carries a bounded *delta layer*:
//!
//! * **staging buffer** — [`PackedRTree::stage_insert`] appends new
//!   entries to a small unsorted side array. Every visitor
//!   ([`PackedRTree::for_each_containing`], the batched descent, the
//!   abortable window walk) searches the packed levels *and* then
//!   scans the staging buffer with the same branchless ≤32-wide
//!   bitmask chunks the leaf level uses, so staged entries are visible
//!   immediately and the scan stays cheap while the buffer is small.
//! * **tombstones** — [`PackedRTree::tombstone`] marks a packed slot
//!   dead in a bitmap ([`PackedRTree::is_live`]); traversals skip dead
//!   slots at emission time. Node MBRs are left untouched (they only
//!   over-approximate, which costs pruning quality, never
//!   correctness).
//!
//! [`PackedRTree::compact`] folds both back into fresh packed levels
//! (the same freeze → merge → install routine as below, run inline);
//! [`PackedRTree::needs_compaction`] says when the delta
//! has outgrown the configured fraction of the packed slots
//! ([`PackedRTree::set_delta_fraction`]), so a churning consumer (the
//! pub/sub broker's subscription oracle) pays one `O(N log N)` merge
//! per *delta-fraction* worth of mutations instead of one full rebuild
//! per mutation batch.
//!
//! # Concurrent compaction: frozen snapshots
//!
//! The merge itself need not stall the serving path either. The packed
//! tier lives behind an [`Arc`]-shared immutable core, so
//! [`PackedRTree::freeze`] can hand a worker a [`FrozenShard`] — the
//! shared core plus a copy of the delta — in `O(delta)` time, while
//! the live tree keeps answering exact queries and absorbing new
//! mutations into a *second-generation* delta overlaid on the frozen
//! state. [`FrozenShard::merge`] performs the merge off-path
//! (e.g. on a [`crate::parallel::Job`]), and
//! [`PackedRTree::install`] swaps the merged core in, re-applies the
//! removals that landed mid-compaction, and carries the
//! second-generation delta forward — the only on-path work is that
//! `O(mutations-during-merge)` fix-up.

use std::sync::{Arc, OnceLock};

use drtree_spatial::hilbert::GridMapper;
use drtree_spatial::{Point, Rect};

use crate::bytes::{self, AlignedBytes, Col};
use crate::error::SnapshotError;
use crate::key::SnapshotKey;

/// Default node capacity; 16 balances depth against per-node scan cost
/// (the flatbush default).
pub const DEFAULT_NODE_SIZE: usize = 16;

/// Hard cap on node capacity: per-node hit bitmasks live in one `u32`
/// word, and the fixed traversal stack ([`STACK_CAPACITY`]) must cover
/// `(node_size − 1) · (height − 1) + 1` frames for any 2^32-entry tree.
const MAX_NODE_SIZE: usize = 32;

/// Worst-case traversal stack depth: `node_size = 32` gives height ≤ 7
/// at 2^32 entries, so `31 · 6 + 1 = 187` frames bound every legal
/// tree; 256 leaves margin.
const STACK_CAPACITY: usize = 256;

/// Default delta-layer budget: compact when staged entries plus
/// tombstones exceed this fraction of the packed slots. A quarter
/// keeps the staging scan a small constant of the packed search while
/// amortizing one `O(N log N)` merge over `N/4` mutations.
pub const DEFAULT_DELTA_FRACTION: f64 = 0.25;

/// The Hilbert-sorted permutation of `entries` (indexes into it),
/// plus — for `D ≤ 2`, where a curve key fits 32 bits — the keys in
/// slot order (empty otherwise), which the core retains to serve
/// sorted-splice merges.
///
/// The key/index pair is packed into one scalar wherever it fits —
/// `u64` for `D ≤ 2`, `u128` for `D ≤ 6` — so the dominant sort moves
/// machine words instead of tuples; wider dimensions fall back to
/// tuple sorting. All variants order by (curve key, insertion index),
/// and the caller applies the permutation once so every per-entry
/// array lives in slot order.
fn curve_order<K, const D: usize>(
    mapper: &GridMapper<D>,
    entries: &[(K, Rect<D>)],
) -> (Vec<u32>, Vec<u32>) {
    if D <= 2 {
        let mut tagged: Vec<u64> = entries
            .iter()
            .enumerate()
            .map(|(i, (_, r))| ((mapper.key(r) as u64) << 32) | i as u64)
            .collect();
        tagged.sort_unstable();
        let keys = tagged.iter().map(|&t| (t >> 32) as u32).collect();
        (tagged.into_iter().map(|t| t as u32).collect(), keys)
    } else if D <= 6 {
        let mut tagged: Vec<u128> = entries
            .iter()
            .enumerate()
            .map(|(i, (_, r))| (mapper.key(r) << 32) | i as u128)
            .collect();
        tagged.sort_unstable();
        (tagged.into_iter().map(|t| t as u32).collect(), Vec::new())
    } else {
        let mut tagged: Vec<(u128, u32)> = entries
            .iter()
            .enumerate()
            .map(|(i, (_, r))| (mapper.key(r), i as u32))
            .collect();
        tagged.sort_unstable();
        (tagged.into_iter().map(|(_, i)| i).collect(), Vec::new())
    }
}

/// `true` when bit `i` is set in the bitmap `words`. Out-of-range bits
/// read as unset — the delta-layer bitmaps (tombstones, staged-dead)
/// are lazily allocated and start empty, so "no word" means "no bit".
#[inline]
fn bit_set(words: &[u64], i: usize) -> bool {
    words
        .get(i >> 6)
        .is_some_and(|word| word & (1u64 << (i & 63)) != 0)
}

/// Bitmask of rectangles in `rects` (≤ 32 of them) containing `point`.
///
/// Branchless on purpose: every test runs to completion with bitwise
/// `&`, so the loop vectorizes over the contiguous MBR array and pays
/// no branch mispredictions — the payoff of the flat layout.
#[inline]
fn mask_containing<const D: usize>(rects: &[Rect<D>], point: &Point<D>) -> u32 {
    debug_assert!(rects.len() <= MAX_NODE_SIZE);
    let mut mask = 0u32;
    for (i, r) in rects.iter().enumerate() {
        let mut hit = true;
        for d in 0..D {
            let c = point.coord(d);
            hit &= (r.lo(d) <= c) & (c <= r.hi(d));
        }
        mask |= u32::from(hit) << i;
    }
    mask
}

/// Bitmask of rectangles in `rects` (≤ 32 of them) intersecting
/// `window`; branchless like [`mask_containing`].
#[inline]
fn mask_intersecting<const D: usize>(rects: &[Rect<D>], window: &Rect<D>) -> u32 {
    debug_assert!(rects.len() <= MAX_NODE_SIZE);
    let mut mask = 0u32;
    for (i, r) in rects.iter().enumerate() {
        let mut hit = true;
        for d in 0..D {
            hit &= (r.lo(d) <= window.hi(d)) & (window.lo(d) <= r.hi(d));
        }
        mask |= u32::from(hit) << i;
    }
    mask
}

/// A node-mask predicate: maps a block of ≤ 32 rectangles — stored
/// node MBRs or entries — to a hit bitmask. A static trait rather than
/// a closure, so the single traversal kernel serves point and window
/// queries with no dynamic dispatch and no duplicated walkers.
trait MaskOf<const D: usize> {
    fn mask(&self, rects: &[Rect<D>]) -> u32;
}

/// The point-containment predicate of [`PackedRTree::for_each_containing`].
struct ContainsPoint<'a, const D: usize>(&'a Point<D>);

impl<const D: usize> MaskOf<D> for ContainsPoint<'_, D> {
    #[inline]
    fn mask(&self, rects: &[Rect<D>]) -> u32 {
        mask_containing(rects, self.0)
    }
}

/// The window predicate of [`PackedRTree::for_each_intersecting`].
struct IntersectsRect<'a, const D: usize>(&'a Rect<D>);

impl<const D: usize> MaskOf<D> for IntersectsRect<'_, D> {
    #[inline]
    fn mask(&self, rects: &[Rect<D>]) -> u32 {
        mask_intersecting(rects, self.0)
    }
}

/// Iterative pruned descent over a packed core, emitting live slot
/// indexes — the traversal kernel shared by the owning
/// [`PackedRTree`] and read-only [`FrozenShard`] snapshots (which hold
/// the same `Arc`-shared core plus their own tombstone copy). The
/// explicit stack is a fixed array ([`STACK_CAPACITY`] frames bounds
/// every legal tree), so a query performs no heap allocation at all.
/// Returns `false` when the visitor aborted.
fn traverse_core_while<K, const D: usize>(
    core: &PackedCore<K, D>,
    tombstones: &[u64],
    mask_of: &impl MaskOf<D>,
    emit: &mut impl FnMut(usize) -> bool,
) -> bool {
    let num_levels = core.levels.len();
    if core
        .levels
        .last()
        .is_none_or(|root| mask_of.mask(root) == 0)
    {
        return true;
    }
    let node_size = core.node_size;
    let entry_rects: &[Rect<D>] = &core.rects;
    let mut stack = [(0u32, 0u32); STACK_CAPACITY];
    let mut top = 1usize;
    stack[0] = (num_levels as u32 - 1, 0);
    while top > 0 {
        top -= 1;
        let (level, node) = stack[top];
        let lo = node as usize * node_size;
        if level == 0 {
            let hi = (lo + node_size).min(entry_rects.len());
            let mut mask = mask_of.mask(&entry_rects[lo..hi]);
            while mask != 0 {
                let slot = lo + mask.trailing_zeros() as usize;
                if !bit_set(tombstones, slot) && !emit(slot) {
                    return false;
                }
                mask &= mask - 1;
            }
        } else {
            let mut mask = mask_of.mask(core.children(level as usize - 1, node as usize));
            while mask != 0 {
                let child = lo as u32 + mask.trailing_zeros();
                debug_assert!(top < STACK_CAPACITY);
                stack[top] = (level - 1, child);
                top += 1;
                mask &= mask - 1;
            }
        }
    }
    true
}

/// A packed R-tree: all MBRs in flat per-level arrays, Hilbert
/// bulk-loaded, with iterative allocation-free searches.
///
/// `K` is the caller's key type; duplicates are permitted. Entry order
/// after construction follows the Hilbert curve, and every entry is
/// addressed by its *slot* (index in that order) for `O(log N)`
/// in-place updates.
///
/// # Example
///
/// ```
/// use drtree_rtree::PackedRTree;
/// use drtree_spatial::{Point, Rect};
///
/// let entries: Vec<(u32, Rect<2>)> = (0..100)
///     .map(|i| {
///         let x = f64::from(i % 10) * 10.0;
///         let y = f64::from(i / 10) * 10.0;
///         (i, Rect::new([x, y], [x + 5.0, y + 5.0]))
///     })
///     .collect();
/// let tree = PackedRTree::bulk_load(entries);
/// assert_eq!(tree.len(), 100);
/// let hits = tree.search_point(&Point::new([2.0, 2.0]));
/// assert_eq!(hits, vec![&0]);
/// tree.validate()?;
/// # Ok::<(), drtree_rtree::PackedValidationError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PackedRTree<K, const D: usize> {
    /// The immutable packed tier, shared by `Arc` with any outstanding
    /// [`FrozenShard`] compaction snapshot. Cloning the tree (or
    /// freezing it) is `O(1)` on this tier; the rare mutating paths
    /// ([`PackedRTree::update`], [`PackedRTree::drain_live`]) go
    /// through [`Arc::make_mut`] and stay in-place whenever no
    /// snapshot is outstanding.
    core: Arc<PackedCore<K, D>>,
    /// Delta-layer staging buffer: keys of entries inserted since the
    /// last bulk load / compaction, parallel to `staged_rects`.
    staged_keys: Vec<K>,
    /// Staged rectangles — the contiguous array the staging-scan
    /// bitmask chunks run over.
    staged_rects: Vec<Rect<D>>,
    /// Tombstone bitmap over packed slots (one bit per slot, empty
    /// until the first tombstone); set bits are dead entries skipped at
    /// emission time.
    tombstones: Vec<u64>,
    /// Number of set bits in `tombstones`.
    tombstone_count: usize,
    /// Union of every rectangle ever staged since the last compaction
    /// (an over-approximation after staged removals); folded into
    /// [`PackedRTree::mbr`] so delta entries are never pruned away.
    staged_mbr: Option<Rect<D>>,
    /// Compaction trigger: see [`PackedRTree::needs_compaction`].
    delta_fraction: f64,
    /// `Some` while a [`PackedRTree::freeze`] snapshot is outstanding:
    /// the bookkeeping [`PackedRTree::install`] needs to reconcile the
    /// merged core with mutations that landed mid-compaction.
    epoch: Option<CompactionEpoch>,
}

/// The immutable packed tier: slot-ordered entry columns plus the
/// implicit-topology level MBRs. Shared by [`Arc`] between a live
/// [`PackedRTree`] and its frozen compaction snapshots, so freezing is
/// a reference-count bump, not a copy.
///
/// One shape whatever its origin: a bulk load or merge fills the
/// columns with vectors it built, a snapshot load points them into the
/// loaded buffer ([`Col`] hides which), and every reader — traversal,
/// merge, validation, save — sees plain slices.
#[derive(Debug, Clone)]
struct PackedCore<K, const D: usize> {
    node_size: usize,
    /// The world rectangle the build's [`GridMapper`] quantized
    /// against — what [`FrozenShard::merge`] compares to decide
    /// whether the sorted-splice fast path applies.
    world: Option<Rect<D>>,
    /// Entry keys in slot (Hilbert) order, parallel to `rects`: a hit
    /// at `slot` reads `keys[slot]` directly, and because search
    /// results come out as runs of nearby slots, those reads stay on
    /// the same cache lines instead of bouncing through a permutation
    /// array.
    keys: KeyCol<K>,
    /// Entry rectangles in slot (Hilbert) order — the contiguous array
    /// the leaf-level mask scans run over.
    rects: Col<Rect<D>>,
    /// Per-slot Hilbert curve keys, parallel to `rects`, kept for
    /// `D ≤ 2` (where a key fits 32 bits; empty otherwise). They make
    /// a compaction merge an `O(N + S log S)` sorted splice instead of
    /// an `O(N log N)` re-sort. Key *quality* (not correctness —
    /// searches never depend on entry order) degrades with
    /// [`PackedRTree::update`] drift, exactly like the node MBRs do.
    curve_keys: Col<u32>,
    /// `levels[0]` holds the leaf-node MBRs, each covering `node_size`
    /// consecutive entries; each further level packs the one below;
    /// the last level is the root (length 1). Empty iff the packed
    /// tier is empty.
    levels: Vec<Col<Rect<D>>>,
    /// The checksum a loaded buffer's header stored over its bulk
    /// sections (entry rects, raw keys, curve keys), verified on
    /// demand by [`PackedRTree::verify_snapshot`] — loading verifies
    /// the header and the small structural sections eagerly and defers
    /// this multi-megabyte scan, which is what makes restore a
    /// memory-bandwidth-free constant instead of a full-buffer pass.
    /// `None` for built cores, and once a write has copied a bulk
    /// column out of the buffer ([`PackedCore::bulk_mut`]).
    bulk_checksum: Option<u64>,
}

/// The wire-to-key converter a buffer was loaded with.
type KeyDecoder<K> = Arc<dyn Fn(u64) -> K + Send + Sync>;

/// The key column. `K` is arbitrary, so unlike the POD columns it can
/// never be a byte view: a loaded core keeps the buffer's raw `u64`
/// column with its decoder and materializes the typed keys on first
/// read, so the cost lands on the first query after a restore, not on
/// the restore itself.
#[derive(Clone)]
struct KeyCol<K> {
    typed: OnceLock<Vec<K>>,
    /// The raw column `typed` decodes from; `None` for built cores,
    /// which are born with their typed keys.
    wire: Option<(Col<u64>, KeyDecoder<K>)>,
}

impl<K> std::fmt::Debug for KeyCol<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyCol")
            .field("materialized", &self.typed.get().is_some())
            .field("wire", &self.wire.as_ref().map(|(raw, _)| raw))
            .finish()
    }
}

impl<K> KeyCol<K> {
    fn get(&self) -> &[K] {
        self.typed.get_or_init(|| {
            let (raw, decode) = self.wire.as_ref().expect("built cores hold typed keys");
            raw.iter().map(|&word| decode(word)).collect()
        })
    }

    fn into_vec(mut self) -> Vec<K> {
        self.get();
        self.typed.take().expect("materialized above")
    }

    /// Appends the column's `u64` wire form to `out`. A loaded column
    /// ships its raw words verbatim — no key materialization on a
    /// load→save round trip; a built one encodes through `to_raw`.
    fn write_wire(&self, out: &mut Vec<u8>, to_raw: &dyn Fn(&K) -> u64) {
        match &self.wire {
            Some((raw, _)) => out.extend_from_slice(bytes::as_bytes(raw)),
            None => {
                for key in self.get() {
                    out.extend_from_slice(&to_raw(key).to_le_bytes());
                }
            }
        }
    }

    /// The raw column as loaded — empty for built cores.
    fn wire_bytes(&self) -> &[u8] {
        self.wire
            .as_ref()
            .map_or(&[], |(raw, _)| bytes::as_bytes(raw))
    }
}

/// Packs `rects` bottom-up into implicit-topology level MBR arrays
/// until a single root remains.
fn pack_levels<const D: usize>(rects: &[Rect<D>], node_size: usize) -> Vec<Col<Rect<D>>> {
    let mut levels: Vec<Col<Rect<D>>> = Vec::new();
    if rects.is_empty() {
        return levels;
    }
    let mut below: &[Rect<D>] = rects;
    loop {
        let level: Vec<Rect<D>> = below
            .chunks(node_size)
            .map(|chunk| Rect::union_all(chunk.iter()).expect("chunks are non-empty"))
            .collect();
        let done = level.len() == 1;
        levels.push(level.into());
        if done {
            return levels;
        }
        below = levels.last().expect("just pushed");
    }
}

impl<K, const D: usize> PackedCore<K, D> {
    /// A core over slot-ordered columns, level MBRs packed here — the
    /// construction tail shared by the full Hilbert bulk-load and the
    /// sorted-splice merge.
    fn pack(
        node_size: usize,
        world: Option<Rect<D>>,
        keys: Vec<K>,
        rects: Vec<Rect<D>>,
        curve_keys: Vec<u32>,
    ) -> Self {
        Self {
            node_size,
            world,
            keys: KeyCol {
                typed: OnceLock::from(keys),
                wire: None,
            },
            levels: pack_levels(&rects, node_size),
            rects: rects.into(),
            curve_keys: curve_keys.into(),
            bulk_checksum: None,
        }
    }

    fn empty(node_size: usize) -> Self {
        Self::pack(node_size, None, Vec::new(), Vec::new(), Vec::new())
    }

    /// Number of packed entries (tombstoned or not).
    fn len(&self) -> usize {
        self.rects.len()
    }

    /// Entry keys in slot order (materialized on first call after a
    /// load, see [`KeyCol`]).
    fn keys(&self) -> &[K] {
        self.keys.get()
    }

    /// The stored MBRs of `parent`'s children at `level`: nodes
    /// `parent·B .. min((parent+1)·B, len(level))`.
    #[inline]
    fn children(&self, level: usize, parent: usize) -> &[Rect<D>] {
        let nodes = &self.levels[level];
        let lo = parent * self.node_size;
        &nodes[lo..(lo + self.node_size).min(nodes.len())]
    }

    /// The root MBR, if the packed tier is non-empty.
    fn root_mbr(&self) -> Option<Rect<D>> {
        self.levels.last().map(|root| root[0])
    }

    /// The exact union of everything node `(level, node)` covers.
    fn covered_union(&self, level: usize, node: usize) -> Option<Rect<D>> {
        let lo = node * self.node_size;
        let below: &[Rect<D>] = if level == 0 {
            &self.rects
        } else {
            &self.levels[level - 1]
        };
        let hi = (lo + self.node_size).min(below.len());
        Rect::union_all(below[lo..hi].iter())
    }

    /// The entry rectangles and curve keys, writable — copied out of a
    /// loaded buffer on first use. The deferred checksum vouched for
    /// the bytes as loaded, so it retires with the first write.
    fn bulk_mut(&mut self) -> (&mut Vec<Rect<D>>, &mut Vec<u32>) {
        self.bulk_checksum = None;
        (self.rects.to_mut(), self.curve_keys.to_mut())
    }

    /// Recomputes the bulk-section checksum of a loaded core and
    /// compares it to the stored one — the deferred half of load-time
    /// verification. `Ok` when there is nothing left to vouch for.
    fn verify_bulk(&self) -> Result<(), SnapshotError> {
        let Some(stored) = self.bulk_checksum else {
            return Ok(());
        };
        let found = combine_checksums(
            [
                bytes::as_bytes(&self.rects),
                self.keys.wire_bytes(),
                bytes::as_bytes(&self.curve_keys),
            ]
            .map(bytes::checksum),
        );
        if found == stored {
            Ok(())
        } else {
            Err(SnapshotError::ChecksumMismatch)
        }
    }
}

// ---- flat snapshot format -----------------------------------------

/// Magic tag of a serialized [`PackedCore`] ("DRTC").
const CORE_MAGIC: u32 = u32::from_le_bytes(*b"DRTC");

/// Magic tag of a serialized [`PackedRTree`] ("DRTT"): a tree header
/// wrapping a core buffer plus the staged delta and tombstone bitmap.
const TREE_MAGIC: u32 = u32::from_le_bytes(*b"DRTT");

/// The one format version this build writes and reads.
const SNAPSHOT_VERSION: u16 = 1;

/// Fixed header size of both the core and the tree format, one cache
/// line each.
const HEADER_LEN: usize = 64;

/// Byte layout of one serialized core: section spans `(offset, byte
/// length)` relative to the buffer start, derived from the counts in
/// the header — the single source of truth shared by the writer and
/// the parser, so they cannot drift apart.
struct CoreLayout {
    level_table: (usize, usize),
    world: (usize, usize),
    rects: (usize, usize),
    keys: (usize, usize),
    curve_keys: (usize, usize),
    levels: Vec<(usize, usize)>,
    /// Total buffer length (64-byte multiple, so tree/oracle wrappers
    /// can embed cores back-to-back at aligned offsets).
    total: usize,
}

/// The node count of every level over `n` entries, bottom-up — fully
/// determined by `(n, node_size)`.
fn level_node_counts(n: usize, node_size: usize) -> Vec<usize> {
    let mut counts = Vec::new();
    let mut below = n;
    while below > 0 {
        let nodes = below.div_ceil(node_size);
        counts.push(nodes);
        if nodes == 1 {
            break;
        }
        below = nodes;
    }
    counts
}

/// Computes every section span of a core with the given shape.
/// `level_nodes` is the node count per level, bottom-up.
fn core_layout<const D: usize>(
    n: usize,
    level_nodes: &[usize],
    has_world: bool,
    has_curve: bool,
) -> CoreLayout {
    let rect_bytes = std::mem::size_of::<Rect<D>>();
    let mut off = HEADER_LEN;
    let mut section = |len: usize| {
        let start = off;
        off = bytes::align_up(start + len);
        (start, len)
    };
    CoreLayout {
        level_table: section(level_nodes.len() * 8),
        world: section(if has_world { rect_bytes } else { 0 }),
        rects: section(n * rect_bytes),
        keys: section(n * 8),
        curve_keys: section(if has_curve { n * 4 } else { 0 }),
        levels: level_nodes
            .iter()
            .map(|&nodes| section(nodes * rect_bytes))
            .collect(),
        total: off,
    }
}

impl CoreLayout {
    /// The checksum over the small structural sections (level table,
    /// world, level MBR arrays) of a core laid out in `data` — what a
    /// load verifies eagerly.
    fn meta_checksum(&self, data: &[u8]) -> u64 {
        combine_checksums(
            [self.level_table, self.world]
                .iter()
                .chain(&self.levels)
                .map(|&(off, len)| bytes::checksum(&data[off..off + len])),
        )
    }
}

/// Folds per-section checksums (in section order) into one header
/// word, order-sensitively.
fn combine_checksums(parts: impl IntoIterator<Item = u64>) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        acc = (acc ^ part).wrapping_mul(0x0000_0100_0000_01b3);
    }
    acc
}

fn write_u16(out: &mut [u8], off: usize, v: u16) {
    out[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

fn write_u32(out: &mut [u8], off: usize, v: u32) {
    out[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

fn write_u64(out: &mut [u8], off: usize, v: u64) {
    out[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

impl<K, const D: usize> PackedCore<K, D> {
    /// Serializes the core into one flat, versioned, little-endian,
    /// 64-byte-aligned buffer: every column is written as it sits in
    /// memory, so a loaded buffer serves queries in place.
    ///
    /// Header (one cache line):
    ///
    /// | off | field | | off | field |
    /// |----:|-------|-|----:|-------|
    /// | 0 | magic `"DRTC"` (u32) | | 24 | num_levels (u32) |
    /// | 4 | version (u16) | | 28 | has_world (u16) |
    /// | 6 | layout flags (u16), always 0 | | 30 | has_curve_keys (u16) |
    /// | 8 | dims (u32) | | 32 | payload_len (u64) |
    /// | 12 | node_size (u32) | | 40 | meta checksum (u64) |
    /// | 16 | num_entries (u64) | | 48 | bulk checksum (u64) |
    /// | | | | 56 | reserved (u64) |
    ///
    /// followed by the sections of [`core_layout`], each at a 64-byte
    /// boundary: level table, world, entry rects, raw keys, curve
    /// keys, then the level MBR arrays bottom-up.
    fn to_bytes(&self, to_raw: &dyn Fn(&K) -> u64) -> Vec<u8> {
        let n = self.len();
        let level_nodes: Vec<usize> = self.levels.iter().map(|level| level.len()).collect();
        let has_world = self.world.is_some();
        let has_curve = !self.curve_keys.is_empty();
        let layout = core_layout::<D>(n, &level_nodes, has_world, has_curve);
        let mut out = Vec::with_capacity(layout.total);
        out.resize(HEADER_LEN, 0);
        for &nodes in &level_nodes {
            out.extend_from_slice(&(nodes as u64).to_le_bytes());
        }
        bytes::pad_to_section(&mut out);
        if let Some(world) = &self.world {
            debug_assert_eq!(out.len(), layout.world.0);
            out.extend_from_slice(bytes::as_bytes(std::slice::from_ref(world)));
            bytes::pad_to_section(&mut out);
        }
        debug_assert_eq!(out.len(), layout.rects.0);
        out.extend_from_slice(bytes::as_bytes(&self.rects));
        bytes::pad_to_section(&mut out);
        self.keys.write_wire(&mut out, to_raw);
        bytes::pad_to_section(&mut out);
        if has_curve {
            out.extend_from_slice(bytes::as_bytes(&self.curve_keys));
            bytes::pad_to_section(&mut out);
        }
        for (level, &(off, _)) in self.levels.iter().zip(&layout.levels) {
            debug_assert_eq!(out.len(), off);
            out.extend_from_slice(bytes::as_bytes(level));
            bytes::pad_to_section(&mut out);
        }
        debug_assert_eq!(out.len(), layout.total);
        let meta = layout.meta_checksum(&out);
        let bulk = combine_checksums(
            [layout.rects, layout.keys, layout.curve_keys]
                .map(|(off, len)| bytes::checksum(&out[off..off + len])),
        );
        let header = &mut out[..HEADER_LEN];
        write_u32(header, 0, CORE_MAGIC);
        write_u16(header, 4, SNAPSHOT_VERSION);
        write_u16(header, 6, 0);
        write_u32(header, 8, D as u32);
        write_u32(header, 12, self.node_size as u32);
        write_u64(header, 16, n as u64);
        write_u32(header, 24, level_nodes.len() as u32);
        write_u16(header, 28, u16::from(has_world));
        write_u16(header, 30, u16::from(has_curve));
        write_u64(header, 32, (layout.total - HEADER_LEN) as u64);
        write_u64(header, 40, meta);
        write_u64(header, 48, bulk);
        write_u64(header, 56, 0);
        out
    }

    /// Parses `length` bytes at `start` of `buf` into a core whose
    /// every column is a view into `buf` — zero-copy.
    ///
    /// Validation is structural and eager for everything cheap —
    /// magic, version, layout flags, dims, node size, entry/level
    /// counts, every section bound, the meta checksum over the small
    /// sections (level table, world, level MBR arrays) — and deferred
    /// for the bulk checksum over the multi-megabyte entry sections
    /// ([`PackedCore::verify_bulk`]). A corrupt or truncated buffer is
    /// always a clean [`SnapshotError`], never a panic or an
    /// out-of-bounds view: offsets are re-derived from validated
    /// counts via [`core_layout`] and checked against the real length
    /// before any cast.
    fn from_flat(
        buf: &Arc<AlignedBytes>,
        start: usize,
        length: usize,
        from_raw: &KeyDecoder<K>,
    ) -> Result<Self, SnapshotError> {
        let whole = buf.as_slice();
        let end = start
            .checked_add(length)
            .ok_or(SnapshotError::Corrupt("core range overflows"))?;
        if end > whole.len() {
            return Err(SnapshotError::Truncated {
                needed: end,
                have: whole.len(),
            });
        }
        if !start.is_multiple_of(bytes::SECTION_ALIGN) {
            return Err(SnapshotError::Corrupt("core offset not 64-byte aligned"));
        }
        let data = &whole[start..end];
        if data.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated {
                needed: HEADER_LEN,
                have: data.len(),
            });
        }
        let magic = bytes::read_u32(data, 0).expect("header bounds checked");
        if magic != CORE_MAGIC {
            return Err(SnapshotError::BadMagic { found: magic });
        }
        let version = bytes::read_u16(data, 4).expect("header bounds checked");
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::WrongVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        // Version 1 once defined two layout experiments here (bit 0:
        // f32-quantized interior MBRs, bit 1: cache-line-padded
        // fanout). Neither paid for itself and both are retired; a
        // buffer written with one is refused, not misread.
        if bytes::read_u16(data, 6).expect("header bounds checked") != 0 {
            return Err(SnapshotError::Corrupt("unknown layout flags"));
        }
        let dims = bytes::read_u32(data, 8).expect("header bounds checked");
        if dims as usize != D {
            return Err(SnapshotError::WrongDims {
                found: dims,
                expected: D as u32,
            });
        }
        let node_size = bytes::read_u32(data, 12).expect("header bounds checked") as usize;
        if !(2..=MAX_NODE_SIZE).contains(&node_size) {
            return Err(SnapshotError::Corrupt("node size out of range"));
        }
        let n = usize::try_from(bytes::read_u64(data, 16).expect("header bounds checked"))
            .map_err(|_| SnapshotError::Corrupt("entry count overflows"))?;
        if n > u32::MAX as usize {
            return Err(SnapshotError::Corrupt("entry count exceeds 2^32"));
        }
        let num_levels = bytes::read_u32(data, 24).expect("header bounds checked") as usize;
        let has_world = match bytes::read_u16(data, 28).expect("header bounds checked") {
            0 => false,
            1 => true,
            _ => return Err(SnapshotError::Corrupt("has_world is not a boolean")),
        };
        let has_curve = match bytes::read_u16(data, 30).expect("header bounds checked") {
            0 => false,
            1 => true,
            _ => return Err(SnapshotError::Corrupt("has_curve_keys is not a boolean")),
        };
        let payload_len = bytes::read_u64(data, 32).expect("header bounds checked");
        let meta_checksum = bytes::read_u64(data, 40).expect("header bounds checked");
        let bulk_checksum = bytes::read_u64(data, 48).expect("header bounds checked");
        // The level structure is fully determined by (n, node_size);
        // the stored table must agree.
        let expect = level_node_counts(n, node_size);
        if expect.len() != num_levels {
            return Err(SnapshotError::Corrupt(
                "level count disagrees with entry count",
            ));
        }
        let layout = core_layout::<D>(n, &expect, has_world, has_curve);
        if layout.total != data.len() {
            return Err(SnapshotError::Truncated {
                needed: layout.total,
                have: data.len(),
            });
        }
        if payload_len != (layout.total - HEADER_LEN) as u64 {
            return Err(SnapshotError::Corrupt(
                "payload length disagrees with layout",
            ));
        }
        if layout.meta_checksum(data) != meta_checksum {
            return Err(SnapshotError::ChecksumMismatch);
        }
        for (level, &nodes) in expect.iter().enumerate() {
            let stored = bytes::read_u64(data, layout.level_table.0 + level * 8)
                .expect("level table inside verified layout");
            if stored != nodes as u64 {
                return Err(SnapshotError::Corrupt("level table mismatch"));
            }
        }
        let world = if has_world {
            let mut lo = [0.0f64; D];
            let mut hi = [0.0f64; D];
            for d in 0..D {
                lo[d] = bytes::read_f64(data, layout.world.0 + 8 * d)
                    .expect("world inside verified layout");
                hi[d] = bytes::read_f64(data, layout.world.0 + 8 * (D + d))
                    .expect("world inside verified layout");
            }
            Some(
                Rect::try_new(lo, hi)
                    .map_err(|_| SnapshotError::Corrupt("invalid world rectangle"))?,
            )
        } else {
            None
        };
        // One checked cast per section, here, so no read ever
        // re-checks (construction makes misalignment impossible; this
        // is the load-time proof of that).
        let misaligned = |_| SnapshotError::Corrupt("misaligned section");
        let levels = layout
            .levels
            .iter()
            .zip(&expect)
            .map(|(&(off, _), &nodes)| Col::view(buf, start + off, nodes))
            .collect::<Result<Vec<_>, _>>()
            .map_err(misaligned)?;
        Ok(PackedCore {
            node_size,
            world,
            keys: KeyCol {
                typed: OnceLock::new(),
                wire: Some((
                    Col::view(buf, start + layout.keys.0, n).map_err(misaligned)?,
                    Arc::clone(from_raw),
                )),
            },
            rects: Col::view(buf, start + layout.rects.0, n).map_err(misaligned)?,
            curve_keys: Col::view(
                buf,
                start + layout.curve_keys.0,
                if has_curve { n } else { 0 },
            )
            .map_err(misaligned)?,
            levels,
            bulk_checksum: Some(bulk_checksum),
        })
    }
}

/// Mid-compaction bookkeeping: what changed since the freeze, so
/// [`PackedRTree::install`] can reconcile the worker's merged core
/// with the live tree.
#[derive(Debug, Clone)]
struct CompactionEpoch {
    /// Staged entries `[0..frozen_staged_len)` were shipped to the
    /// worker; later stagings are the second-generation delta that
    /// survives the install.
    frozen_staged_len: usize,
    /// Tombstone bitmap as of the freeze — bits set *since* are
    /// removals the merged core never saw, re-applied on install.
    frozen_tombstones: Vec<u64>,
    /// Set bits in `frozen_tombstones` (what the merge reclaims).
    frozen_tombstone_count: usize,
    /// Dead bits over the frozen staged prefix: frozen staged entries
    /// removed mid-compaction. They stay in the buffer (the prefix is
    /// index-stable while frozen) but no visitor emits them, and the
    /// install re-removes them from the merged core.
    staged_dead: Vec<u64>,
    /// Set bits in `staged_dead`.
    staged_dead_count: usize,
}

impl CompactionEpoch {
    fn is_staged_dead(&self, index: usize) -> bool {
        bit_set(&self.staged_dead, index)
    }
}

/// An immutable compaction snapshot of one [`PackedRTree`], produced
/// by [`PackedRTree::freeze`]: the `Arc`-shared packed core plus a
/// copy of the delta layer as of the freeze.
///
/// The snapshot owns everything it needs, so it can be moved to a
/// worker thread (e.g. via [`crate::parallel::Job`]) and merged there
/// with [`FrozenShard::merge`] while the originating tree keeps
/// serving reads and absorbing new mutations. Hand the merged tree
/// back to [`PackedRTree::install`] to complete the compaction.
#[derive(Debug, Clone)]
pub struct FrozenShard<K, const D: usize> {
    core: Arc<PackedCore<K, D>>,
    staged_keys: Vec<K>,
    staged_rects: Vec<Rect<D>>,
    tombstones: Vec<u64>,
    tombstone_count: usize,
    delta_fraction: f64,
}

impl<K, const D: usize> FrozenShard<K, D> {
    /// Live entries in the snapshot (packed slots minus tombstones
    /// plus frozen staged entries) — the size of the merge's input.
    pub fn len(&self) -> usize {
        self.core.len() - self.tombstone_count + self.staged_keys.len()
    }

    /// `true` when the snapshot holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes held by the snapshot's delta copies (staged entries
    /// and the tombstone bitmap). Zero when the snapshot was taken
    /// with an empty delta — [`PackedRTree::snapshot`] then shares the
    /// core and allocates nothing.
    pub fn delta_heap_bytes(&self) -> usize {
        self.staged_keys.capacity() * std::mem::size_of::<K>()
            + self.staged_rects.capacity() * std::mem::size_of::<Rect<D>>()
            + self.tombstones.capacity() * std::mem::size_of::<u64>()
    }

    /// Visits every entry whose rectangle contains `point`, exactly as
    /// the source tree would have at snapshot time — the read path that
    /// makes a [`FrozenShard`] a *query* snapshot, not just merge
    /// input. Same allocation-free pruned descent as
    /// [`PackedRTree::for_each_containing`] (the kernel is shared), and
    /// `&self` only: an `Arc<FrozenShard>` can serve concurrent readers
    /// while the live tree keeps mutating.
    ///
    /// Tombstones frozen with the snapshot are skipped; every staged
    /// entry in the snapshot is live by construction
    /// ([`PackedRTree::snapshot`] filters retired ones out).
    pub fn for_each_containing<'a, F>(&'a self, point: &Point<D>, mut visit: F)
    where
        F: FnMut(&'a K, &'a Rect<D>),
    {
        let mask_of = ContainsPoint(point);
        let keys = self.core.keys();
        let rects = &*self.core.rects;
        let aborted = !traverse_core_while(&self.core, &self.tombstones, &mask_of, &mut |slot| {
            visit(&keys[slot], &rects[slot]);
            true
        });
        if aborted {
            return;
        }
        for (chunk_idx, chunk) in self.staged_rects.chunks(MAX_NODE_SIZE).enumerate() {
            let mut mask = mask_of.mask(chunk);
            while mask != 0 {
                let i = chunk_idx * MAX_NODE_SIZE + mask.trailing_zeros() as usize;
                visit(&self.staged_keys[i], &self.staged_rects[i]);
                mask &= mask - 1;
            }
        }
    }

    /// Folds the snapshot's staging buffer and tombstones into a fresh
    /// packed tree of its live entries — the merge work, run wherever
    /// the caller likes (typically a background
    /// [`crate::parallel::Job`]). The returned tree has an empty delta
    /// layer and inherits the frozen tree's node size and delta
    /// fraction.
    ///
    /// The snapshot's structure makes the common case cheap: the
    /// packed tier is already in Hilbert order, so when the merged
    /// entry set's world is unchanged (and the core retains its curve
    /// keys — `D ≤ 2`), the merge sorts only the staged delta and
    /// **splices** the two sorted streams in `O(N + S log S)` — no
    /// per-entry key derivation, no `O(N log N)` re-sort of the base.
    /// A grown world (or missing keys) falls back to the full Hilbert
    /// bulk-load.
    pub fn merge(&self) -> PackedRTree<K, D>
    where
        K: Clone,
    {
        let core = &*self.core;
        let core_keys = core.keys();
        let core_rects = &*core.rects;
        let core_curve = &*core.curve_keys;
        let is_live = |slot: usize| !bit_set(&self.tombstones, slot);
        let total = self.len();
        let live_rects = core_rects
            .iter()
            .enumerate()
            .filter(|&(slot, _)| is_live(slot))
            .map(|(_, r)| r);
        let world = GridMapper::world_of(live_rects.chain(self.staged_rects.iter()))
            .unwrap_or_else(|| Rect::new([0.0; D], [1.0; D]));

        if total > 0 && core_curve.len() == core.len() && core.world == Some(world) {
            // Sorted splice. Stage tags pack (key, index) into one u64
            // exactly like the bulk-load sort; ties land *after* the
            // equal-keyed base slots, matching the bulk-load's
            // insertion-order tiebreak (base entries precede staged).
            let mapper = GridMapper::new(&world);
            let mut staged: Vec<u64> = self
                .staged_rects
                .iter()
                .enumerate()
                .map(|(i, r)| ((mapper.key(r) as u64) << 32) | i as u64)
                .collect();
            staged.sort_unstable();
            let mut keys: Vec<K> = Vec::with_capacity(total);
            let mut rects: Vec<Rect<D>> = Vec::with_capacity(total);
            let mut curve_keys: Vec<u32> = Vec::with_capacity(total);
            let push_staged = |tag: u64,
                               keys: &mut Vec<K>,
                               rects: &mut Vec<Rect<D>>,
                               curve_keys: &mut Vec<u32>| {
                let i = tag as u32 as usize;
                keys.push(self.staged_keys[i].clone());
                rects.push(self.staged_rects[i]);
                curve_keys.push((tag >> 32) as u32);
            };
            let mut si = 0usize;
            for slot in 0..core.len() {
                if !is_live(slot) {
                    continue;
                }
                let base_key = core_curve[slot];
                while si < staged.len() && ((staged[si] >> 32) as u32) < base_key {
                    push_staged(staged[si], &mut keys, &mut rects, &mut curve_keys);
                    si += 1;
                }
                keys.push(core_keys[slot].clone());
                rects.push(core_rects[slot]);
                curve_keys.push(base_key);
            }
            while si < staged.len() {
                push_staged(staged[si], &mut keys, &mut rects, &mut curve_keys);
                si += 1;
            }
            debug_assert_eq!(keys.len(), total);
            let merged = PackedCore::pack(core.node_size, Some(world), keys, rects, curve_keys);
            return PackedRTree::from_core(merged, self.delta_fraction);
        }

        let mut entries: Vec<(K, Rect<D>)> = Vec::with_capacity(total);
        for (slot, (k, r)) in core_keys.iter().zip(core_rects).enumerate() {
            if is_live(slot) {
                entries.push((k.clone(), *r));
            }
        }
        entries.extend(
            self.staged_keys
                .iter()
                .cloned()
                .zip(self.staged_rects.iter().copied()),
        );
        let mut merged = PackedRTree::bulk_load_with_node_size(core.node_size, entries);
        merged.delta_fraction = self.delta_fraction;
        merged
    }
}

/// How [`PackedRTree::remove_entry`] realized a removal — callers
/// maintaining external slot- or stage-indexed structures (e.g. the
/// pub/sub stab grid) patch themselves from this.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeltaRemoval<const D: usize> {
    /// A staged entry was removed by swap-remove: `index` is the
    /// vacated staging index, and `moved` is the rectangle of the
    /// former last staged entry now living at `index` (`None` when the
    /// removed entry *was* the last).
    Unstaged {
        /// The staging index that was vacated.
        index: usize,
        /// Rectangle of the entry swapped into `index`, if any.
        moved: Option<Rect<D>>,
    },
    /// A packed entry was tombstoned in place.
    Tombstoned {
        /// The now-dead packed slot.
        slot: usize,
    },
    /// A *frozen* staged entry was retired in place mid-compaction:
    /// the staging buffer keeps its slot (the frozen prefix is
    /// index-stable while a snapshot is outstanding) but the entry is
    /// dead to every visitor, and [`PackedRTree::install`] will
    /// re-remove it from the merged core.
    Retired {
        /// The now-dead staging index.
        index: usize,
    },
}

/// How [`PackedRTree::update_entry`] realized a move — callers
/// maintaining slot- or stage-indexed side structures (e.g. the
/// pub/sub stab grid) patch themselves from this, mirroring
/// [`DeltaRemoval`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EntryUpdate<const D: usize> {
    /// The packed entry moved in place: the slot kept its identity and
    /// the `O(log N)` ancestor MBRs above it were refitted exactly.
    InPlace {
        /// The packed slot now holding the new rectangle.
        slot: usize,
    },
    /// A staged entry's rectangle was rewritten in place.
    Staged {
        /// The staging index that was rewritten.
        index: usize,
    },
    /// The move fell back to remove+reinsert through the delta layer —
    /// the new rectangle escaped its leaf subtree, or a compaction
    /// snapshot froze the entry's tier.
    Restaged {
        /// How the old entry went away.
        removal: DeltaRemoval<D>,
        /// Staging index where the new rectangle was inserted.
        index: usize,
    },
}

/// What one [`PackedRTree::compact`] call absorbed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaCompaction {
    /// Staged entries merged into the packed levels.
    pub staged_absorbed: usize,
    /// Tombstoned slots reclaimed.
    pub tombstones_reclaimed: usize,
}

impl DeltaCompaction {
    /// `true` when the compaction had nothing to do.
    pub fn is_noop(&self) -> bool {
        self.staged_absorbed == 0 && self.tombstones_reclaimed == 0
    }
}

/// A violated packed-level invariant, reported by
/// [`PackedRTree::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum PackedValidationError {
    /// A level's length is not `ceil(len(below) / node_size)`.
    WrongLevelLength {
        /// Level index (0 = leaf nodes).
        level: usize,
        /// Nodes found at the level.
        found: usize,
        /// Nodes the implicit topology requires.
        expected: usize,
    },
    /// A node MBR is not the exact union of what it covers.
    WrongMbr {
        /// Level index (0 = leaf nodes).
        level: usize,
        /// Node index within the level.
        node: usize,
    },
    /// The key and rectangle arrays disagree in length, or a non-empty
    /// tree has no levels.
    Inconsistent,
    /// The delta layer violates an invariant: staged arrays of unequal
    /// length, a tombstone count disagreeing with the bitmap, a bitmap
    /// of the wrong width, or a staged rectangle outside the tracked
    /// staged MBR.
    DeltaInconsistent,
    /// A flat-buffer core failed its deferred payload checksum — the
    /// snapshot bytes were corrupted after load.
    CorruptBuffer,
    /// A retained curve key disagrees with the key its slot's current
    /// rectangle maps to — an in-place move skipped its re-key, so a
    /// sorted-splice merge would order the entry by where it *was*.
    StaleCurveKey {
        /// The packed slot holding the stale key.
        slot: usize,
    },
}

impl std::fmt::Display for PackedValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackedValidationError::WrongLevelLength {
                level,
                found,
                expected,
            } => write!(
                f,
                "packed level {level} has {found} nodes, topology requires {expected}"
            ),
            PackedValidationError::WrongMbr { level, node } => {
                write!(f, "node {node} of level {level} has a non-exact MBR")
            }
            PackedValidationError::Inconsistent => {
                f.write_str("entry arrays inconsistent with level arrays")
            }
            PackedValidationError::DeltaInconsistent => {
                f.write_str("delta layer inconsistent with its bookkeeping")
            }
            PackedValidationError::CorruptBuffer => {
                f.write_str("flat-buffer core failed its payload checksum")
            }
            PackedValidationError::StaleCurveKey { slot } => {
                write!(f, "slot {slot} holds a curve key stale for its rectangle")
            }
        }
    }
}

impl std::error::Error for PackedValidationError {}

impl<K, const D: usize> PackedRTree<K, D> {
    /// Hilbert bulk-load with the default node size.
    pub fn bulk_load(entries: Vec<(K, Rect<D>)>) -> Self {
        Self::bulk_load_with_node_size(DEFAULT_NODE_SIZE, entries)
    }

    /// Hilbert bulk-load with node capacity `node_size` (clamped to
    /// `[2, 32]`; the cap keeps node bitmasks in one machine word and
    /// bounds the traversal stack).
    pub fn bulk_load_with_node_size(node_size: usize, entries: Vec<(K, Rect<D>)>) -> Self {
        let node_size = node_size.clamp(2, MAX_NODE_SIZE);
        let n = entries.len();
        assert!(
            n <= u32::MAX as usize,
            "packed tree is limited to 2^32 entries"
        );
        if n == 0 {
            return Self::from_core(PackedCore::empty(node_size), DEFAULT_DELTA_FRACTION);
        }

        // Order entries along the Hilbert curve of their centers. The
        // sort permutes small scalar (key, index) packs, not the
        // entries themselves; ties keep insertion order via the index,
        // so construction is deterministic even on degenerate worlds.
        let world = GridMapper::world_of(entries.iter().map(|(_, r)| r))
            .unwrap_or_else(|| Rect::new([0.0; D], [1.0; D]));
        let mapper = GridMapper::new(&world);
        let (order, curve_keys) = curve_order(&mapper, &entries);
        let rects: Vec<Rect<D>> = order.iter().map(|&i| entries[i as usize].1).collect();
        // Apply the permutation to the keys as well (one O(N) move
        // pass, no `Clone` required), so hits read `keys[slot]` with
        // no indirection.
        let mut taken: Vec<Option<K>> = entries.into_iter().map(|(k, _)| Some(k)).collect();
        let keys: Vec<K> = order
            .iter()
            .map(|&i| taken[i as usize].take().expect("order is a permutation"))
            .collect();

        let core = PackedCore::pack(node_size, Some(world), keys, rects, curve_keys);
        Self::from_core(core, DEFAULT_DELTA_FRACTION)
    }

    /// A tree over `core` with an empty delta layer.
    fn from_core(core: PackedCore<K, D>, delta_fraction: f64) -> Self {
        Self {
            core: Arc::new(core),
            staged_keys: Vec::new(),
            staged_rects: Vec::new(),
            tombstones: Vec::new(),
            tombstone_count: 0,
            staged_mbr: None,
            delta_fraction,
            epoch: None,
        }
    }

    /// Number of *live* entries: packed slots minus tombstones plus
    /// live staged entries.
    pub fn len(&self) -> usize {
        let staged_dead = self.epoch.as_ref().map_or(0, |e| e.staged_dead_count);
        self.core.len() - self.tombstone_count + self.staged_keys.len() - staged_dead
    }

    /// `true` if the tree stores no live entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of packed slots, tombstoned ones included — the range
    /// valid for [`PackedRTree::entry`], [`PackedRTree::update`], and
    /// [`PackedRTree::tombstone`].
    pub fn packed_len(&self) -> usize {
        self.core.len()
    }

    /// Node capacity the tree was packed with.
    pub fn node_size(&self) -> usize {
        self.core.node_size
    }

    /// Number of node levels, counting the leaf-node level as 1. An
    /// empty tree has height 1.
    pub fn height(&self) -> usize {
        self.core.levels.len().max(1)
    }

    /// The MBR of the whole tree — packed root unioned with the staged
    /// layer's MBR (`None` when no entry was ever stored since the last
    /// compaction). Tombstones never shrink it, so it may
    /// over-approximate; pruning against it stays conservative.
    pub fn mbr(&self) -> Option<Rect<D>> {
        let root = self.core.root_mbr();
        match (root, self.staged_mbr) {
            (Some(a), Some(b)) => Some(a.union(&b)),
            (a, b) => a.or(b),
        }
    }

    /// The entry stored in packed `slot` (Hilbert order), tombstoned or
    /// not — check [`PackedRTree::is_live`] when it matters.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.packed_len()`.
    pub fn entry(&self, slot: usize) -> (&K, &Rect<D>) {
        (&self.core.keys()[slot], &self.core.rects[slot])
    }

    /// All packed entry keys in slot order — the raw column behind
    /// [`PackedRTree::entry`], for consumers that index by slot in
    /// bulk (e.g. external acceleration structures keyed by slot).
    /// Includes tombstoned slots; excludes the staging buffer
    /// ([`PackedRTree::staged_keys`]). On a tree restored from a flat
    /// snapshot, the first call materializes (and caches) the typed
    /// key column from the buffer's raw `u64`s.
    pub fn keys(&self) -> &[K] {
        self.core.keys()
    }

    /// All packed entry rectangles in slot order (parallel to
    /// [`PackedRTree::keys`]).
    pub fn rects(&self) -> &[Rect<D>] {
        &self.core.rects
    }

    /// All staged entry keys (delta layer, arbitrary order), parallel
    /// to [`PackedRTree::staged_rects`]. Mid-compaction the buffer may
    /// contain retired (dead) frozen entries — check
    /// [`PackedRTree::is_staged_live`] when it matters.
    pub fn staged_keys(&self) -> &[K] {
        &self.staged_keys
    }

    /// All staged entry rectangles (parallel to
    /// [`PackedRTree::staged_keys`]).
    pub fn staged_rects(&self) -> &[Rect<D>] {
        &self.staged_rects
    }

    /// Iterates over the *live* packed entries as `(slot, key, rect)`
    /// in Hilbert order, skipping tombstoned slots. Staged entries are
    /// not included ([`PackedRTree::staged_keys`] exposes them).
    pub fn entries(&self) -> impl Iterator<Item = (usize, &K, &Rect<D>)> {
        self.core
            .keys()
            .iter()
            .zip(self.core.rects.iter())
            .enumerate()
            .filter(|&(slot, _)| self.is_live(slot))
            .map(|(slot, (k, r))| (slot, k, r))
    }

    /// The lowest live packed slot holding an entry with key `key`, if
    /// any.
    pub fn slot_of(&self, key: &K) -> Option<usize>
    where
        K: PartialEq,
    {
        self.core
            .keys()
            .iter()
            .enumerate()
            .find(|&(slot, k)| k == key && self.is_live(slot))
            .map(|(slot, _)| slot)
    }

    /// Replaces the rectangle in `slot` and incrementally refits the
    /// `O(log N)` ancestor MBRs above it — the live-update path: no
    /// rebuild, no allocation.
    ///
    /// The entry keeps its slot, so a drifting subscription stays
    /// addressable; packing quality degrades only as far as the moved
    /// rectangle inflates its ancestors (refits are exact, shrinking
    /// included). Rebuild via [`PackedRTree::bulk_load`] when drift
    /// accumulates.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.packed_len()`, or while a
    /// [`PackedRTree::freeze`] snapshot is outstanding (the merged
    /// core could not see the moved rectangle; finish or abort the
    /// compaction first).
    pub fn update(&mut self, slot: usize, rect: Rect<D>)
    where
        K: Clone,
    {
        assert!(
            self.epoch.is_none(),
            "update during an outstanding compaction snapshot"
        );
        let core = Arc::make_mut(&mut self.core);
        assert!(slot < core.len(), "slot {slot} out of bounds");
        debug_assert!(
            !bit_set(&self.tombstones, slot),
            "updating a tombstoned slot"
        );
        let world = core.world;
        let node_size = core.node_size;
        // If the outgoing rect defines no bound of its leaf MBR
        // (strictly interior on every axis, so every leaf bound is
        // achieved by some *other* covered rect) and the incoming rect
        // stays inside that MBR, the leaf union — and therefore every
        // ancestor union — is provably unchanged: skip the refit walk.
        let skip_refit = {
            let mbr = core.levels[0][slot / node_size];
            let old = &core.rects[slot];
            (0..D).all(|d| {
                old.lo(d) > mbr.lo(d)
                    && old.hi(d) < mbr.hi(d)
                    && rect.lo(d) >= mbr.lo(d)
                    && rect.hi(d) <= mbr.hi(d)
            })
        };
        let (rects, curve_keys) = core.bulk_mut();
        rects[slot] = rect;
        // Keep the stored curve key in step so a later sorted-splice
        // merge orders the moved entry by where it *is*, not where it
        // was packed (quality only — order never affects correctness).
        if !curve_keys.is_empty() {
            if let Some(world) = &world {
                curve_keys[slot] = GridMapper::new(world).key(&rect) as u32;
            }
        }
        if skip_refit {
            return;
        }
        let mut node = slot / node_size;
        for level in 0..core.levels.len() {
            let exact = core
                .covered_union(level, node)
                .expect("covered range is non-empty");
            if core.levels[level][node] == exact {
                break; // ancestors above are unions of unchanged MBRs
            }
            core.levels[level].to_mut()[node] = exact;
            node /= node_size;
        }
    }

    // ---- delta layer -------------------------------------------------

    /// Appends `(key, rect)` to the staging buffer. The entry is
    /// visible to every visitor immediately; it joins the packed levels
    /// at the next [`PackedRTree::compact`].
    pub fn stage_insert(&mut self, key: K, rect: Rect<D>) {
        self.staged_mbr = Some(match self.staged_mbr {
            Some(m) => m.union(&rect),
            None => rect,
        });
        self.staged_keys.push(key);
        self.staged_rects.push(rect);
    }

    /// Number of entries in the staging buffer.
    pub fn staged_len(&self) -> usize {
        self.staged_keys.len()
    }

    /// Number of tombstoned packed slots.
    pub fn tombstone_count(&self) -> usize {
        self.tombstone_count
    }

    /// Size of the delta layer: staged entries plus tombstones — the
    /// quantity [`PackedRTree::needs_compaction`] compares against the
    /// packed slot count.
    pub fn delta_len(&self) -> usize {
        self.staged_keys.len() + self.tombstone_count
    }

    /// `true` when packed slot `slot` has **not** been tombstoned.
    /// (Out-of-range slots read as live; the bitmap is only allocated
    /// once a tombstone exists.)
    #[inline]
    pub fn is_live(&self, slot: usize) -> bool {
        !bit_set(&self.tombstones, slot)
    }

    /// Tombstones packed slot `slot`: the entry stays in the arrays but
    /// no visitor will emit it again. Returns `false` when the slot was
    /// already dead. Node MBRs are *not* refitted (they only
    /// over-approximate); [`PackedRTree::compact`] reclaims the slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.packed_len()`.
    pub fn tombstone(&mut self, slot: usize) -> bool {
        assert!(slot < self.core.len(), "slot {slot} out of bounds");
        if self.tombstones.is_empty() {
            self.tombstones = vec![0u64; self.core.len().div_ceil(64)];
        }
        let (word, bit) = (slot >> 6, 1u64 << (slot & 63));
        if self.tombstones[word] & bit != 0 {
            return false;
        }
        self.tombstones[word] |= bit;
        self.tombstone_count += 1;
        true
    }

    /// `true` when staging index `index` has **not** been retired by a
    /// mid-compaction removal. Without an outstanding snapshot every
    /// staged entry is live.
    #[inline]
    pub fn is_staged_live(&self, index: usize) -> bool {
        match &self.epoch {
            None => true,
            Some(epoch) => !epoch.is_staged_dead(index),
        }
    }

    /// Removes one live `(key, rect)` entry through the delta layer:
    /// staged entries are swap-removed (or, for the index-stable
    /// frozen prefix of an outstanding compaction snapshot, retired in
    /// place), packed entries are tombstoned in place (located by a
    /// pruned traversal on the exact rectangle, not a linear scan).
    /// Returns what happened so callers maintaining stage- or
    /// slot-indexed side structures can patch themselves, or `None`
    /// when no live entry matches.
    pub fn remove_entry(&mut self, key: &K, rect: &Rect<D>) -> Option<DeltaRemoval<D>>
    where
        K: PartialEq,
    {
        // Packed tier first: the pruned traversal is `O(log N)`
        // whatever the delta's depth, while the staging scan is linear
        // in it — and under steady churn most removals target
        // long-lived (packed) entries, so paying the full staged scan
        // before even looking at the packed tier dominated removal
        // cost exactly when the delta was deep (mid-compaction).
        if let Some(slot) = self.find_packed_slot(key, rect) {
            self.tombstone(slot);
            return Some(DeltaRemoval::Tombstoned { slot });
        }
        if let Some(index) = self
            .staged_keys
            .iter()
            .zip(&self.staged_rects)
            .enumerate()
            .position(|(i, (k, r))| k == key && r == rect && self.is_staged_live(i))
        {
            if let Some(epoch) = &mut self.epoch {
                if index < epoch.frozen_staged_len {
                    // The frozen prefix is index-stable while the
                    // snapshot is outstanding: retire in place and let
                    // the install re-remove it from the merged core.
                    epoch.staged_dead[index >> 6] |= 1u64 << (index & 63);
                    epoch.staged_dead_count += 1;
                    return Some(DeltaRemoval::Retired { index });
                }
            }
            self.staged_keys.swap_remove(index);
            self.staged_rects.swap_remove(index);
            let moved = (index < self.staged_rects.len()).then(|| self.staged_rects[index]);
            if self.staged_keys.is_empty() {
                self.staged_mbr = None;
            }
            return Some(DeltaRemoval::Unstaged { index, moved });
        }
        None
    }

    /// The first live packed slot holding exactly `(key, rect)`, found
    /// by descending only nodes whose MBR intersects `rect`.
    fn find_packed_slot(&self, key: &K, rect: &Rect<D>) -> Option<usize>
    where
        K: PartialEq,
    {
        let mut found = None;
        let keys = self.core.keys();
        let rects = &*self.core.rects;
        self.traverse_packed_while(&IntersectsRect(rect), &mut |slot| {
            if rects[slot] == *rect && keys[slot] == *key {
                found = Some(slot);
                false
            } else {
                true
            }
        });
        found
    }

    /// Moves one live `(key, old)` entry to rectangle `new` — the
    /// mobility fast path. Packed entries whose new rectangle stays
    /// inside their leaf subtree's region move **in place** via
    /// [`PackedRTree::update`] (`O(log N)`, no allocation, slot
    /// identity kept); everything else falls back to remove+reinsert
    /// through the delta layer (tombstone or retire the old entry,
    /// stage the new rectangle). Returns what happened so callers
    /// maintaining slot- or stage-indexed side structures can patch
    /// themselves, or `None` when no live entry matches.
    pub fn update_entry(&mut self, key: &K, old: &Rect<D>, new: Rect<D>) -> Option<EntryUpdate<D>>
    where
        K: Clone + PartialEq,
    {
        if let Some(slot) = self.find_packed_slot(key, old) {
            return Some(self.update_packed(slot, key, new));
        }
        let index = self
            .staged_keys
            .iter()
            .zip(&self.staged_rects)
            .enumerate()
            .position(|(i, (k, r))| k == key && r == old && self.is_staged_live(i))?;
        Some(self.update_staged_at(index, key, new))
    }

    /// [`PackedRTree::update_entry`] with the staged-tier linear scan
    /// skipped: the delta-layer counterpart of
    /// [`PackedRTree::update_slot`], for callers that cached `index`
    /// from an earlier [`EntryUpdate::Staged`] / restage. The index is
    /// re-verified against live `(key, old)` before acting, so a stale
    /// cache (the buffer swap-removed or merged since) is a miss,
    /// never a wrong move.
    pub fn update_staged(
        &mut self,
        index: usize,
        key: &K,
        old: &Rect<D>,
        new: Rect<D>,
    ) -> Option<EntryUpdate<D>>
    where
        K: Clone + PartialEq,
    {
        if index >= self.staged_keys.len()
            || !self.is_staged_live(index)
            || self.staged_rects[index] != *old
            || self.staged_keys[index] != *key
        {
            return None;
        }
        Some(self.update_staged_at(index, key, new))
    }

    /// The staged-tier move itself, after `index` is known to hold
    /// live `(key, old)`.
    fn update_staged_at(&mut self, index: usize, key: &K, new: Rect<D>) -> EntryUpdate<D>
    where
        K: Clone + PartialEq,
    {
        let frozen = matches!(&self.epoch, Some(e) if index < e.frozen_staged_len);
        if frozen {
            // The frozen prefix is index-stable mid-compaction: retire
            // the old rectangle in place (install re-removes it from
            // the merged core) and stage the new one past the prefix.
            let epoch = self.epoch.as_mut().expect("frozen implies epoch");
            epoch.staged_dead[index >> 6] |= 1u64 << (index & 63);
            epoch.staged_dead_count += 1;
            let new_index = self.staged_keys.len();
            self.stage_insert(key.clone(), new);
            EntryUpdate::Restaged {
                removal: DeltaRemoval::Retired { index },
                index: new_index,
            }
        } else {
            self.staged_rects[index] = new;
            self.staged_mbr = Some(match self.staged_mbr {
                Some(m) => m.union(&new),
                None => new,
            });
            EntryUpdate::Staged { index }
        }
    }

    /// [`PackedRTree::update_entry`] with the packed-tier search
    /// skipped: callers that cached `slot` from an earlier
    /// [`EntryUpdate::InPlace`] verify it still holds live `(key, old)`
    /// and move without any traversal — the hot path of a mover that
    /// relocates every tick. Returns `None` (and touches nothing) when
    /// the slot no longer matches, so a stale cache is a cache miss,
    /// never a wrong move.
    pub fn update_slot(
        &mut self,
        slot: usize,
        key: &K,
        old: &Rect<D>,
        new: Rect<D>,
    ) -> Option<EntryUpdate<D>>
    where
        K: Clone + PartialEq,
    {
        if slot >= self.core.len()
            || bit_set(&self.tombstones, slot)
            || self.core.rects[slot] != *old
            || self.core.keys()[slot] != *key
        {
            return None;
        }
        Some(self.update_packed(slot, key, new))
    }

    /// The packed-tier move itself, after `slot` is known to hold live
    /// `(key, old)`: in place when eligible, tombstone + restage
    /// otherwise.
    fn update_packed(&mut self, slot: usize, key: &K, new: Rect<D>) -> EntryUpdate<D>
    where
        K: Clone + PartialEq,
    {
        // In-place needs an idle compaction (the merged core could
        // not see the move) and a new rectangle that keeps packing
        // degradation local to the slot's leaf subtree.
        if self.epoch.is_none() && self.stays_in_subtree(slot, &new) {
            self.update(slot, new);
            EntryUpdate::InPlace { slot }
        } else {
            self.tombstone(slot);
            let index = self.staged_keys.len();
            self.stage_insert(key.clone(), new);
            EntryUpdate::Restaged {
                removal: DeltaRemoval::Tombstoned { slot },
                index,
            }
        }
    }

    /// `true` when `rect` fits inside the region of `slot`'s leaf
    /// subtree — the eligibility test for an in-place move. The tested
    /// region is the slot's level-1 ancestor MBR (the root for one- or
    /// zero-level trees), so an in-place move inflates at most the
    /// leaf node under an unchanged subtree bound.
    fn stays_in_subtree(&self, slot: usize, rect: &Rect<D>) -> bool {
        let core = &*self.core;
        let num_levels = core.levels.len();
        if num_levels == 0 {
            return false;
        }
        let level = 1.min(num_levels - 1);
        let node = slot / core.node_size.pow(level as u32 + 1);
        core.levels[level][node].contains_rect(rect)
    }

    /// `true` when a live entry `(key, rect)` exists in either tier.
    pub fn contains_entry(&self, key: &K, rect: &Rect<D>) -> bool
    where
        K: PartialEq,
    {
        if self.find_packed_slot(key, rect).is_some() {
            return true;
        }
        self.staged_keys
            .iter()
            .zip(&self.staged_rects)
            .enumerate()
            .any(|(i, (k, r))| k == key && r == rect && self.is_staged_live(i))
    }

    /// Deliberately flips a bit of packed `slot`'s stored curve key —
    /// a test-only hook for exercising the
    /// [`PackedValidationError::StaleCurveKey`] detector.
    #[doc(hidden)]
    pub fn debug_corrupt_curve_key(&mut self, slot: usize)
    where
        K: Clone,
    {
        let (_, curve_keys) = Arc::make_mut(&mut self.core).bulk_mut();
        if slot < curve_keys.len() {
            curve_keys[slot] ^= 1;
        }
    }

    /// Sets the compaction trigger: the delta layer is considered
    /// oversized once it exceeds `fraction × packed_len()` entries.
    /// `0.0` compacts on any delta (rebuild-per-flush, the pre-delta
    /// behavior); large values defer compaction indefinitely. Defaults
    /// to [`DEFAULT_DELTA_FRACTION`].
    pub fn set_delta_fraction(&mut self, fraction: f64) {
        self.delta_fraction = fraction.max(0.0);
    }

    /// The configured compaction trigger fraction.
    pub fn delta_fraction(&self) -> f64 {
        self.delta_fraction
    }

    /// `true` once the delta layer exceeds the configured fraction of
    /// the packed slots — the cue to [`PackedRTree::compact`].
    pub fn needs_compaction(&self) -> bool {
        let delta = self.delta_len();
        delta > 0 && delta as f64 > self.delta_fraction * self.core.len() as f64
    }

    /// Merges the staging buffer and reclaims tombstoned slots
    /// **inline**: [`PackedRTree::freeze`], [`FrozenShard::merge`] and
    /// [`PackedRTree::install`] back to back, so the synchronous and
    /// the pause-free path share one merge algorithm and write the same
    /// bytes. A no-op (reported as such) when the delta layer is empty.
    ///
    /// # Panics
    ///
    /// Panics while a freeze snapshot is outstanding.
    pub fn compact(&mut self) -> DeltaCompaction
    where
        K: Clone + PartialEq,
    {
        assert!(
            self.epoch.is_none(),
            "synchronous compact during an outstanding compaction snapshot"
        );
        let stats = DeltaCompaction {
            staged_absorbed: self.staged_keys.len(),
            tombstones_reclaimed: self.tombstone_count,
        };
        if stats.is_noop() {
            return stats;
        }
        let merged = self.freeze().merge();
        self.install(merged)
    }

    /// [`PackedRTree::compact`] gated by
    /// [`PackedRTree::needs_compaction`]; returns `None` when the
    /// delta was within budget — or when a freeze snapshot is
    /// outstanding (the compaction is already underway; installing it
    /// is the snapshot holder's job).
    pub fn maybe_compact(&mut self) -> Option<DeltaCompaction>
    where
        K: Clone + PartialEq,
    {
        (!self.is_compacting() && self.needs_compaction()).then(|| self.compact())
    }

    // ---- concurrent compaction: freeze / install ---------------------

    /// `true` while a [`PackedRTree::freeze`] snapshot is outstanding.
    pub fn is_compacting(&self) -> bool {
        self.epoch.is_some()
    }

    /// Freezes the current state into a [`FrozenShard`] compaction
    /// snapshot: the `Arc`-shared packed core (a reference-count bump)
    /// plus a copy of the delta layer (bounded by the compaction
    /// fraction), in `O(delta)` time — the pause-free begin of a
    /// two-phase compaction.
    ///
    /// Until [`PackedRTree::install`] (or
    /// [`PackedRTree::abort_compaction`]), the tree keeps serving
    /// exact reads and absorbing mutations: new entries stage past the
    /// frozen prefix, packed removals tombstone as usual, and removals
    /// of frozen staged entries retire them in place
    /// ([`DeltaRemoval::Retired`]) — every post-freeze removal is
    /// re-applied to the merged core at install.
    ///
    /// # Panics
    ///
    /// Panics if a snapshot is already outstanding.
    pub fn freeze(&mut self) -> FrozenShard<K, D>
    where
        K: Clone,
    {
        assert!(
            self.epoch.is_none(),
            "freeze while a compaction snapshot is already outstanding"
        );
        self.epoch = Some(CompactionEpoch {
            frozen_staged_len: self.staged_keys.len(),
            frozen_tombstones: self.tombstones.clone(),
            frozen_tombstone_count: self.tombstone_count,
            staged_dead: vec![0u64; self.staged_keys.len().div_ceil(64)],
            staged_dead_count: 0,
        });
        FrozenShard {
            core: Arc::clone(&self.core),
            staged_keys: self.staged_keys.clone(),
            staged_rects: self.staged_rects.clone(),
            tombstones: self.tombstones.clone(),
            tombstone_count: self.tombstone_count,
            delta_fraction: self.delta_fraction,
        }
    }

    /// A point-in-time read snapshot as a [`FrozenShard`], **without**
    /// starting a compaction epoch: `&self`, no outstanding-freeze
    /// assertion, composable with an in-flight [`PackedRTree::freeze`]
    /// (retired staged entries are filtered out so the snapshot holds
    /// exactly the live entry set). Cost is an `Arc` bump on the packed
    /// core plus a copy of the delta layer — `O(delta)`, like `freeze`.
    ///
    /// This is the publication primitive for lock-free readers: an
    /// owner produces a snapshot after each batch of mutations, shares
    /// it behind an `Arc`, and readers query it with
    /// [`FrozenShard::for_each_containing`] while the owner keeps
    /// writing. The snapshot is also valid [`FrozenShard::merge`]
    /// input, but unlike `freeze` it leaves no epoch behind, so it must
    /// not be fed to [`PackedRTree::install`].
    pub fn snapshot(&self) -> FrozenShard<K, D>
    where
        K: Clone,
    {
        // Empty delta — the steady state between churn bursts — is an
        // `Arc` bump and nothing else: no Vec clones, no allocation.
        if self.staged_keys.is_empty() && self.tombstone_count == 0 {
            return FrozenShard {
                core: Arc::clone(&self.core),
                staged_keys: Vec::new(),
                staged_rects: Vec::new(),
                tombstones: Vec::new(),
                tombstone_count: 0,
                delta_fraction: self.delta_fraction,
            };
        }
        let (staged_keys, staged_rects) = match &self.epoch {
            Some(epoch) if epoch.staged_dead_count > 0 => {
                let mut keys = Vec::with_capacity(self.staged_keys.len());
                let mut rects = Vec::with_capacity(self.staged_rects.len());
                for (i, (k, r)) in self.staged_keys.iter().zip(&self.staged_rects).enumerate() {
                    if !epoch.is_staged_dead(i) {
                        keys.push(k.clone());
                        rects.push(*r);
                    }
                }
                (keys, rects)
            }
            _ => (self.staged_keys.clone(), self.staged_rects.clone()),
        };
        FrozenShard {
            core: Arc::clone(&self.core),
            staged_keys,
            staged_rects,
            tombstones: self.tombstones.clone(),
            tombstone_count: self.tombstone_count,
            delta_fraction: self.delta_fraction,
        }
    }

    /// Completes a two-phase compaction: swaps in `merged` (the
    /// [`FrozenShard::merge`] result of this tree's own freeze),
    /// re-applies every removal that landed mid-compaction to the
    /// merged core, and carries the second-generation staged entries
    /// forward as the new delta layer. The on-path cost is
    /// `O(mutations since the freeze)`, not `O(N)`.
    ///
    /// Reports what the *merge* absorbed (the frozen delta), mirroring
    /// [`PackedRTree::compact`].
    ///
    /// # Panics
    ///
    /// Panics if no freeze snapshot is outstanding. Installing a tree
    /// that is not the merge of this tree's own latest freeze loses
    /// entries silently — don't.
    pub fn install(&mut self, merged: PackedRTree<K, D>) -> DeltaCompaction
    where
        K: Clone + PartialEq,
    {
        let epoch = self
            .epoch
            .take()
            .expect("install without an outstanding freeze");
        let stats = DeltaCompaction {
            staged_absorbed: epoch.frozen_staged_len,
            tombstones_reclaimed: epoch.frozen_tombstone_count,
        };
        // Collect the removals the merge never saw, from the old tiers
        // *before* swapping them out: packed slots tombstoned since
        // the freeze, and frozen staged entries retired since.
        let mut fixups: Vec<(K, Rect<D>)> = Vec::with_capacity(
            self.tombstone_count - epoch.frozen_tombstone_count + epoch.staged_dead_count,
        );
        let core_keys = self.core.keys();
        let core_rects = &*self.core.rects;
        for (w, &word) in self.tombstones.iter().enumerate() {
            let frozen = epoch.frozen_tombstones.get(w).copied().unwrap_or(0);
            let mut fresh = word & !frozen;
            while fresh != 0 {
                let slot = w * 64 + fresh.trailing_zeros() as usize;
                fixups.push((core_keys[slot].clone(), core_rects[slot]));
                fresh &= fresh - 1;
            }
        }
        for (w, &word) in epoch.staged_dead.iter().enumerate() {
            let mut dead = word;
            while dead != 0 {
                let i = w * 64 + dead.trailing_zeros() as usize;
                fixups.push((self.staged_keys[i].clone(), self.staged_rects[i]));
                dead &= dead - 1;
            }
        }
        // The second-generation delta survives the swap (re-indexed
        // from zero; stage-index-tracking callers re-stage from here).
        let gen2_keys = self.staged_keys.split_off(epoch.frozen_staged_len);
        let gen2_rects = self.staged_rects.split_off(epoch.frozen_staged_len);
        let fraction = self.delta_fraction;
        *self = merged;
        self.delta_fraction = fraction;
        self.staged_mbr = Rect::union_all(gen2_rects.iter());
        self.staged_keys = gen2_keys;
        self.staged_rects = gen2_rects;
        for (key, rect) in &fixups {
            // Straight to the packed tier: every fix-up is a
            // frozen-region entry, and the merge folded each of those
            // into the new core exactly once.
            match self.find_packed_slot(key, rect) {
                Some(slot) => {
                    self.tombstone(slot);
                }
                None => debug_assert!(false, "mid-compaction removal lost by the merge"),
            }
        }
        stats
    }

    /// Abandons an outstanding freeze: the merge result (if any) is
    /// simply never installed, and the live tree — which remained
    /// complete throughout — drops the epoch bookkeeping. Frozen
    /// staged entries retired mid-compaction are physically removed
    /// here, which **renumbers staging indexes**; callers tracking
    /// them must rebuild their side structures (the sharded oracle
    /// only aborts right before a full redistribute).
    pub fn abort_compaction(&mut self) {
        let Some(epoch) = self.epoch.take() else {
            return;
        };
        if epoch.staged_dead_count == 0 {
            return;
        }
        let mut write = 0usize;
        for read in 0..self.staged_keys.len() {
            if !epoch.is_staged_dead(read) {
                self.staged_keys.swap(read, write);
                self.staged_rects.swap(read, write);
                write += 1;
            }
        }
        self.staged_keys.truncate(write);
        self.staged_rects.truncate(write);
        self.staged_mbr = Rect::union_all(self.staged_rects.iter());
    }

    /// Moves every live entry (packed minus tombstones, plus live
    /// staged) out of the tree, leaving it empty. An outstanding
    /// freeze snapshot is aborted first (the snapshot itself, owning
    /// the shared core, stays readable by its holder). This is the
    /// redistribution primitive of sharded consumers (rebalance =
    /// drain every shard, re-split, bulk-load). `Clone` is only
    /// exercised when a snapshot still shares the core; the common
    /// unique-`Arc` case moves keys.
    pub fn drain_live(&mut self) -> Vec<(K, Rect<D>)>
    where
        K: Clone,
    {
        self.abort_compaction();
        let core = Arc::make_mut(&mut self.core);
        let mut drained = std::mem::replace(core, PackedCore::empty(core.node_size));
        let rects = std::mem::take(drained.rects.to_mut());
        let keys = drained.keys.into_vec();
        let staged_keys = std::mem::take(&mut self.staged_keys);
        let staged_rects = std::mem::take(&mut self.staged_rects);
        let tombstones = std::mem::take(&mut self.tombstones);
        self.tombstone_count = 0;
        self.staged_mbr = None;
        let mut out: Vec<(K, Rect<D>)> = Vec::with_capacity(keys.len() + staged_keys.len());
        for (slot, (k, r)) in keys.into_iter().zip(rects).enumerate() {
            if !bit_set(&tombstones, slot) {
                out.push((k, r));
            }
        }
        out.extend(staged_keys.into_iter().zip(staged_rects));
        out
    }

    /// Visits every entry whose rectangle contains `point` — the hot
    /// path of every matching oracle. Iterative (explicit fixed-size
    /// stack, zero heap allocation) with branchless bitmask scans over
    /// the contiguous MBR arrays.
    pub fn for_each_containing<'a, F>(&'a self, point: &Point<D>, visit: F)
    where
        F: FnMut(&'a K, &'a Rect<D>),
    {
        self.traverse(&ContainsPoint(point), visit);
    }

    /// Visits every entry whose rectangle intersects `window`; same
    /// allocation-free traversal as
    /// [`PackedRTree::for_each_containing`].
    pub fn for_each_intersecting<'a, F>(&'a self, window: &Rect<D>, visit: F)
    where
        F: FnMut(&'a K, &'a Rect<D>),
    {
        self.traverse(&IntersectsRect(window), visit);
    }

    /// Like [`PackedRTree::for_each_intersecting`], but the visitor
    /// returns `false` to abort the traversal early. This is the
    /// primitive for budgeted collection — "gather up to `N` entries
    /// in this window, stop if there are more" — where the plain
    /// visitor would pay for the full result set just to discard it.
    pub fn for_each_intersecting_while<'a, F>(&'a self, window: &Rect<D>, visit: F)
    where
        F: FnMut(&'a K, &'a Rect<D>) -> bool,
    {
        self.traverse_while(&IntersectsRect(window), visit);
    }

    /// Iterative pruned traversal over **both tiers**. `mask_of` maps a
    /// slice of ≤ 32 rectangles to a hit bitmask; nodes with set bits
    /// are descended, live entries with set bits are emitted, and the
    /// staging buffer is then scanned with the same bitmask chunks.
    fn traverse<'a>(&'a self, mask_of: &impl MaskOf<D>, mut emit: impl FnMut(&'a K, &'a Rect<D>)) {
        self.traverse_while(mask_of, |k, r| {
            emit(k, r);
            true
        });
    }

    /// [`PackedRTree::traverse`] with an abortable visitor: emitting
    /// `false` unwinds the whole traversal immediately (the staging
    /// scan included).
    fn traverse_while<'a>(
        &'a self,
        mask_of: &impl MaskOf<D>,
        mut emit: impl FnMut(&'a K, &'a Rect<D>) -> bool,
    ) {
        let keys = self.core.keys();
        let rects = &*self.core.rects;
        if self.traverse_packed_while(mask_of, &mut |slot| emit(&keys[slot], &rects[slot])) {
            self.scan_staged_while(mask_of, &mut emit);
        }
    }

    /// The packed tier of [`PackedRTree::traverse_while`], emitting
    /// live slot indexes. Shared with the frozen-snapshot read path via
    /// [`traverse_core_while`]. Returns `false` when the visitor
    /// aborted.
    fn traverse_packed_while(
        &self,
        mask_of: &impl MaskOf<D>,
        emit: &mut impl FnMut(usize) -> bool,
    ) -> bool {
        traverse_core_while(&self.core, &self.tombstones, mask_of, emit)
    }

    /// The delta tier of [`PackedRTree::traverse_while`]: the staging
    /// buffer scanned in ≤ 32-wide chunks with the same branchless
    /// bitmask the leaf level uses (retired frozen entries filtered at
    /// emission, like tombstones on the packed tier). Returns `false`
    /// when the visitor aborted.
    fn scan_staged_while<'a>(
        &'a self,
        mask_of: &impl MaskOf<D>,
        emit: &mut impl FnMut(&'a K, &'a Rect<D>) -> bool,
    ) -> bool {
        for (chunk_idx, chunk) in self.staged_rects.chunks(MAX_NODE_SIZE).enumerate() {
            let mut mask = mask_of.mask(chunk);
            while mask != 0 {
                let i = chunk_idx * MAX_NODE_SIZE + mask.trailing_zeros() as usize;
                if self.is_staged_live(i) && !emit(&self.staged_keys[i], &self.staged_rects[i]) {
                    return false;
                }
                mask &= mask - 1;
            }
        }
        true
    }

    /// Visits, for every probe in `points`, each entry whose rectangle
    /// contains it — in **one joint descent** of the tree instead of
    /// `points.len()` independent root-to-leaf walks.
    ///
    /// The traversal is node-major: each node MBR is loaded once and
    /// streamed against the batch's surviving probe subset (branchless
    /// filtering into reused index buffers), instead of every probe
    /// re-reading the level arrays on its own. The comparison count is
    /// identical to per-probe descents; the win is pure memory
    /// behavior, and it grows with batch size and probe locality
    /// (sorting probes along a space-filling curve first makes the
    /// surviving subsets coherent).
    ///
    /// Hits are delivered as `(probe_index, key, rect)`; probe order
    /// within a node follows the batch, but no global emission order is
    /// guaranteed. Probes are independent — duplicates are fine.
    ///
    /// # Panics
    ///
    /// Panics if `points.len() > u32::MAX` (probe indexes are `u32`,
    /// matching the tree's own 2^32-entry limit).
    pub fn for_each_containing_batch<'a, F>(&'a self, points: &[Point<D>], mut emit: F)
    where
        F: FnMut(u32, &'a K, &'a Rect<D>),
    {
        assert!(
            points.len() <= u32::MAX as usize,
            "batch is limited to 2^32 probes"
        );
        if let Some(root) = self.core.root_mbr() {
            let active: Vec<u32> = (0..points.len() as u32)
                .filter(|&pi| root.contains_point_branchless(&points[pi as usize]))
                .collect();
            if !active.is_empty() {
                let keys = self.core.keys();
                let rects = &*self.core.rects;
                let mut pool: Vec<Vec<u32>> = Vec::new();
                self.walk_batch(
                    self.core.levels.len() - 1,
                    0,
                    &active,
                    points,
                    keys,
                    rects,
                    &mut pool,
                    &mut emit,
                );
            }
        }
        // Delta tier: every probe against the staging buffer (the root
        // MBR filter above does not apply — staged entries may lie
        // outside it).
        if self.staged_rects.is_empty() {
            return;
        }
        for (pi, point) in points.iter().enumerate() {
            for (chunk_idx, chunk) in self.staged_rects.chunks(MAX_NODE_SIZE).enumerate() {
                let mut mask = mask_containing(chunk, point);
                while mask != 0 {
                    let i = chunk_idx * MAX_NODE_SIZE + mask.trailing_zeros() as usize;
                    if self.is_staged_live(i) {
                        emit(pi as u32, &self.staged_keys[i], &self.staged_rects[i]);
                    }
                    mask &= mask - 1;
                }
            }
        }
    }

    /// One frame of the joint batch descent: `active` holds the probe
    /// indexes already known to lie inside node `(level, node)`'s MBR.
    /// `keys`/`rects` are the hoisted entry columns (one accessor
    /// resolution per batch, not per frame).
    #[allow(clippy::too_many_arguments)]
    fn walk_batch<'a, F>(
        &'a self,
        level: usize,
        node: usize,
        active: &[u32],
        points: &[Point<D>],
        keys: &'a [K],
        rects: &'a [Rect<D>],
        pool: &mut Vec<Vec<u32>>,
        emit: &mut F,
    ) where
        F: FnMut(u32, &'a K, &'a Rect<D>),
    {
        let node_size = self.core.node_size;
        let lo = node * node_size;
        if level == 0 {
            let hi = (lo + node_size).min(rects.len());
            let node_rects = &rects[lo..hi];
            for &pi in active {
                let mut mask = mask_containing(node_rects, &points[pi as usize]);
                while mask != 0 {
                    let slot = lo + mask.trailing_zeros() as usize;
                    if self.is_live(slot) {
                        emit(pi, &keys[slot], &rects[slot]);
                    }
                    mask &= mask - 1;
                }
            }
        } else {
            let children = self.core.children(level - 1, node);
            let mut subset = pool.pop().unwrap_or_default();
            for (ci, child) in children.iter().enumerate() {
                subset.clear();
                for &pi in active {
                    if child.contains_point_branchless(&points[pi as usize]) {
                        subset.push(pi);
                    }
                }
                if !subset.is_empty() {
                    self.walk_batch(level - 1, lo + ci, &subset, points, keys, rects, pool, emit);
                }
            }
            subset.clear();
            pool.push(subset);
        }
    }

    /// Keys whose rectangle contains `point`. Prefer
    /// [`PackedRTree::for_each_containing`] on hot paths; this
    /// convenience form allocates the result vector.
    pub fn search_point(&self, point: &Point<D>) -> Vec<&K> {
        let mut out = Vec::new();
        self.for_each_containing(point, |k, _| out.push(k));
        out
    }

    /// Number of entries whose rectangle contains `point`, without
    /// materializing them.
    pub fn count_containing(&self, point: &Point<D>) -> usize {
        let mut count = 0;
        self.for_each_containing(point, |_, _| count += 1);
        count
    }

    /// Keys whose rectangle intersects `window`.
    pub fn search_intersecting(&self, window: &Rect<D>) -> Vec<&K> {
        let mut out = Vec::new();
        self.for_each_intersecting(window, |k, _| out.push(k));
        out
    }

    /// Checks the packed-level invariants — implicit-topology level
    /// lengths, exact node MBRs at every level, array consistency,
    /// curve keys fresh for their slot's current rectangle — plus the
    /// delta layer's: staged arrays in step, tombstone count matching
    /// the bitmap, staged MBR covering every staged entry.
    ///
    /// # Errors
    ///
    /// Returns the first [`PackedValidationError`] found.
    pub fn validate(&self) -> Result<(), PackedValidationError> {
        let core = &*self.core;
        if core.keys().len() != core.len() {
            return Err(PackedValidationError::Inconsistent);
        }
        if !core.curve_keys.is_empty() && core.curve_keys.len() != core.len() {
            return Err(PackedValidationError::Inconsistent);
        }
        if core.verify_bulk().is_err() {
            return Err(PackedValidationError::CorruptBuffer);
        }
        if self.staged_keys.len() != self.staged_rects.len() {
            return Err(PackedValidationError::DeltaInconsistent);
        }
        let popcount: usize = self
            .tombstones
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        if popcount != self.tombstone_count {
            return Err(PackedValidationError::DeltaInconsistent);
        }
        if !self.tombstones.is_empty() && self.tombstones.len() != core.len().div_ceil(64) {
            return Err(PackedValidationError::DeltaInconsistent);
        }
        match &self.staged_mbr {
            None if !self.staged_rects.is_empty() => {
                return Err(PackedValidationError::DeltaInconsistent);
            }
            Some(mbr) if !self.staged_rects.iter().all(|r| mbr.contains_rect(r)) => {
                return Err(PackedValidationError::DeltaInconsistent);
            }
            _ => {}
        }
        if let Some(epoch) = &self.epoch {
            // Mid-compaction bookkeeping: the frozen prefix exists, the
            // dead bitmap covers exactly it, its count matches, and
            // every tombstone frozen at the freeze is still set (bits
            // are never cleared mid-epoch).
            let dead_pop: usize = epoch
                .staged_dead
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum();
            if epoch.frozen_staged_len > self.staged_keys.len()
                || epoch.staged_dead.len() != epoch.frozen_staged_len.div_ceil(64)
                || dead_pop != epoch.staged_dead_count
                || epoch.staged_dead_count > epoch.frozen_staged_len
            {
                return Err(PackedValidationError::DeltaInconsistent);
            }
            if (0..self.staged_keys.len())
                .any(|i| i >= epoch.frozen_staged_len && epoch.is_staged_dead(i))
            {
                return Err(PackedValidationError::DeltaInconsistent);
            }
            let frozen_ok = epoch
                .frozen_tombstones
                .iter()
                .enumerate()
                .all(|(w, &bits)| bits & !self.tombstones.get(w).copied().unwrap_or(0) == 0);
            if !frozen_ok || epoch.frozen_tombstone_count > self.tombstone_count {
                return Err(PackedValidationError::DeltaInconsistent);
            }
        }
        // Exactly one root over a non-empty tier, no level over an
        // empty one.
        let root_nodes = core.levels.last().map_or(0, |root| root.len());
        if root_nodes != usize::from(core.len() > 0) {
            return Err(PackedValidationError::Inconsistent);
        }
        // Every node must equal the exact union of what it covers.
        let node_size = core.node_size;
        let mut below_len = core.len();
        for (level, nodes) in core.levels.iter().enumerate() {
            let expected_nodes = below_len.div_ceil(node_size);
            if nodes.len() != expected_nodes {
                return Err(PackedValidationError::WrongLevelLength {
                    level,
                    found: nodes.len(),
                    expected: expected_nodes,
                });
            }
            for (node, mbr) in nodes.iter().enumerate() {
                if Some(*mbr) != core.covered_union(level, node) {
                    return Err(PackedValidationError::WrongMbr { level, node });
                }
            }
            below_len = nodes.len();
        }
        // Retained curve keys must stay fresh for their slot's current
        // rectangle: bulk loads derive them at pack time and
        // [`PackedRTree::update`] re-derives on every in-place move,
        // so a mismatch means a move skipped its re-key and a later
        // sorted-splice merge would order the entry by a stale
        // position.
        if !core.curve_keys.is_empty() {
            if let Some(world) = &core.world {
                let mapper = GridMapper::new(world);
                for (slot, rect) in core.rects.iter().enumerate() {
                    if core.curve_keys[slot] != mapper.key(rect) as u32 {
                        return Err(PackedValidationError::StaleCurveKey { slot });
                    }
                }
            }
        }
        Ok(())
    }
}

impl<K: SnapshotKey, const D: usize> PackedRTree<K, D> {
    /// Serializes the whole tree — packed core, live staged delta, and
    /// tombstone bitmap — into one flat, versioned, checksummed
    /// buffer. A mid-churn tree restores exactly: [`PackedRTree::load`]
    /// reproduces the live entry set, staged tier included.
    pub fn save(&self) -> Vec<u8> {
        self.save_with(|k| (*k).to_raw())
    }

    /// Restores a tree from [`PackedRTree::save`] bytes, zero-copy:
    /// the packed columns stay in the (adopted) buffer and queries run
    /// directly off it; only the staged delta and tombstones are
    /// copied out. Cheap structural validation plus a checksum over
    /// the small metadata sections runs eagerly; the bulk payload
    /// checksum is deferred to [`PackedRTree::verify_snapshot`] (or
    /// [`PackedRTree::load_verified`]) so the restore itself stays in
    /// the millisecond range at hundreds of thousands of entries.
    ///
    /// # Errors
    ///
    /// Any malformed input — wrong magic, unsupported version or
    /// layout flags, mismatched dimensionality, truncation anywhere,
    /// a failed checksum, or structurally impossible counts — returns
    /// a [`SnapshotError`]; no input panics.
    pub fn load(bytes: Vec<u8>) -> Result<Self, SnapshotError>
    where
        K: Send + Sync + 'static,
    {
        Self::load_with(bytes, K::from_raw)
    }

    /// [`PackedRTree::load`] plus the deferred bulk-payload checksum —
    /// full integrity at load time, for untrusted or long-at-rest
    /// buffers.
    pub fn load_verified(bytes: Vec<u8>) -> Result<Self, SnapshotError>
    where
        K: Send + Sync + 'static,
    {
        let tree = Self::load(bytes)?;
        tree.verify_snapshot()?;
        Ok(tree)
    }
}

impl<K, const D: usize> PackedRTree<K, D> {
    /// [`PackedRTree::save`] for key types outside the
    /// [`SnapshotKey`] impl list: `to_raw` maps each key to its 64-bit
    /// wire form.
    ///
    /// Tree buffer layout (all little-endian, sections at 64-byte
    /// boundaries): a `"DRTT"` header — magic u32, version u16, flags
    /// u16, dims u32, reserved u32, core length u64, staged count u64,
    /// tombstone words u64, tombstone count u64, delta checksum u64,
    /// delta fraction f64-bits — then the serialized core
    /// (`PackedCore::to_bytes`), the live staged rectangles,
    /// the staged raw keys, and the tombstone bitmap.
    pub fn save_with(&self, to_raw: impl Fn(&K) -> u64) -> Vec<u8> {
        let core_bytes = self.core.to_bytes(&to_raw);
        debug_assert_eq!(core_bytes.len() % bytes::SECTION_ALIGN, 0);
        // Serialize the *live* logical view: retired frozen staged
        // entries are dropped, so the restored tree equals the live
        // entry set with no epoch to carry.
        let live: Vec<usize> = (0..self.staged_keys.len())
            .filter(|&i| self.is_staged_live(i))
            .collect();
        let mut out = Vec::with_capacity(
            HEADER_LEN
                + core_bytes.len()
                + live.len() * (std::mem::size_of::<Rect<D>>() + 8)
                + self.tombstones.len() * 8
                + 3 * bytes::SECTION_ALIGN,
        );
        out.resize(HEADER_LEN, 0);
        out.extend_from_slice(&core_bytes);
        let delta_start = out.len();
        for &i in &live {
            out.extend_from_slice(bytes::as_bytes(std::slice::from_ref(&self.staged_rects[i])));
        }
        bytes::pad_to_section(&mut out);
        for &i in &live {
            out.extend_from_slice(&to_raw(&self.staged_keys[i]).to_le_bytes());
        }
        bytes::pad_to_section(&mut out);
        out.extend_from_slice(bytes::as_bytes(&self.tombstones));
        bytes::pad_to_section(&mut out);
        let delta_checksum = bytes::checksum(&out[delta_start..]);
        let header = &mut out[..HEADER_LEN];
        write_u32(header, 0, TREE_MAGIC);
        write_u16(header, 4, SNAPSHOT_VERSION);
        write_u16(header, 6, 0);
        write_u32(header, 8, D as u32);
        write_u32(header, 12, 0);
        write_u64(header, 16, core_bytes.len() as u64);
        write_u64(header, 24, live.len() as u64);
        write_u64(header, 32, self.tombstones.len() as u64);
        write_u64(header, 40, self.tombstone_count as u64);
        write_u64(header, 48, delta_checksum);
        write_u64(header, 56, self.delta_fraction.to_bits());
        out
    }

    /// [`PackedRTree::load`] for key types outside the
    /// [`SnapshotKey`] impl list: `from_raw` rebuilds a key from its
    /// 64-bit wire form.
    pub fn load_with<F>(bytes: Vec<u8>, from_raw: F) -> Result<Self, SnapshotError>
    where
        F: Fn(u64) -> K + Send + Sync + 'static,
    {
        let buf = AlignedBytes::adopt(bytes);
        let length = buf.len();
        Self::load_shared(&buf, 0, length, Arc::new(from_raw))
    }

    /// Restores a tree from `length` bytes at `offset` of a shared
    /// buffer — the multi-tree form behind the sharded oracle's
    /// restore, where one `Arc<AlignedBytes>` backs every shard's core
    /// with no per-shard copy. `offset` must be 64-byte aligned.
    pub fn load_shared(
        buf: &Arc<AlignedBytes>,
        offset: usize,
        length: usize,
        from_raw: Arc<dyn Fn(u64) -> K + Send + Sync>,
    ) -> Result<Self, SnapshotError> {
        let whole = buf.as_slice();
        let end = offset
            .checked_add(length)
            .ok_or(SnapshotError::Corrupt("tree range overflows"))?;
        if end > whole.len() {
            return Err(SnapshotError::Truncated {
                needed: end,
                have: whole.len(),
            });
        }
        if !offset.is_multiple_of(bytes::SECTION_ALIGN) {
            return Err(SnapshotError::Corrupt("tree offset not 64-byte aligned"));
        }
        let data = &whole[offset..end];
        if data.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated {
                needed: HEADER_LEN,
                have: data.len(),
            });
        }
        let magic = bytes::read_u32(data, 0).expect("header bounds checked");
        if magic != TREE_MAGIC {
            return Err(SnapshotError::BadMagic { found: magic });
        }
        let version = bytes::read_u16(data, 4).expect("header bounds checked");
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::WrongVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        if bytes::read_u16(data, 6).expect("header bounds checked") != 0 {
            return Err(SnapshotError::Corrupt("unknown tree flags"));
        }
        let dims = bytes::read_u32(data, 8).expect("header bounds checked");
        if dims as usize != D {
            return Err(SnapshotError::WrongDims {
                found: dims,
                expected: D as u32,
            });
        }
        let overflow = |_| SnapshotError::Corrupt("header count overflows");
        let core_len = usize::try_from(bytes::read_u64(data, 16).expect("header bounds checked"))
            .map_err(overflow)?;
        if !core_len.is_multiple_of(bytes::SECTION_ALIGN) {
            return Err(SnapshotError::Corrupt("core length not 64-byte aligned"));
        }
        let staged_len = usize::try_from(bytes::read_u64(data, 24).expect("header bounds checked"))
            .map_err(overflow)?;
        let tombstone_words =
            usize::try_from(bytes::read_u64(data, 32).expect("header bounds checked"))
                .map_err(overflow)?;
        let tombstone_count =
            usize::try_from(bytes::read_u64(data, 40).expect("header bounds checked"))
                .map_err(overflow)?;
        // Bound the counts by what the buffer could physically hold
        // *before* any multiplication, so attacker-controlled headers
        // cannot overflow the offset arithmetic.
        if staged_len > length / 16 {
            return Err(SnapshotError::Corrupt("staged count exceeds buffer"));
        }
        if tombstone_words > length / 8 {
            return Err(SnapshotError::Corrupt("tombstone bitmap exceeds buffer"));
        }
        let delta_checksum = bytes::read_u64(data, 48).expect("header bounds checked");
        let delta_fraction =
            f64::from_bits(bytes::read_u64(data, 56).expect("header bounds checked"));
        if delta_fraction.is_nan() || delta_fraction < 0.0 {
            return Err(SnapshotError::Corrupt("invalid delta fraction"));
        }
        let rects_off = HEADER_LEN
            .checked_add(core_len)
            .ok_or(SnapshotError::Corrupt("core length overflows"))?;
        let rects_len = staged_len * std::mem::size_of::<Rect<D>>();
        let keys_off = bytes::align_up(
            rects_off
                .checked_add(rects_len)
                .ok_or(SnapshotError::Corrupt("staged bytes overflow"))?,
        );
        let keys_len = staged_len * 8;
        let tomb_off = bytes::align_up(keys_off + keys_len);
        let tomb_len = tombstone_words * 8;
        let total = bytes::align_up(tomb_off + tomb_len);
        if total != length {
            return Err(SnapshotError::Truncated {
                needed: total,
                have: length,
            });
        }
        if bytes::checksum(&data[rects_off..]) != delta_checksum {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let core = PackedCore::from_flat(buf, offset + HEADER_LEN, core_len, &from_raw)?;
        let misaligned = |_| SnapshotError::Corrupt("misaligned section");
        let staged_rects: Vec<Rect<D>> = bytes::cast_slice::<Rect<D>>(
            &whole[offset + rects_off..offset + rects_off + rects_len],
        )
        .map_err(misaligned)?
        .to_vec();
        let staged_keys: Vec<K> =
            bytes::cast_slice::<u64>(&whole[offset + keys_off..offset + keys_off + keys_len])
                .map_err(misaligned)?
                .iter()
                .map(|&raw| (from_raw)(raw))
                .collect();
        let tombstones: Vec<u64> =
            bytes::cast_slice::<u64>(&whole[offset + tomb_off..offset + tomb_off + tomb_len])
                .map_err(misaligned)?
                .to_vec();
        let popcount: usize = tombstones.iter().map(|w| w.count_ones() as usize).sum();
        if popcount != tombstone_count {
            return Err(SnapshotError::Corrupt(
                "tombstone count disagrees with bitmap",
            ));
        }
        if !tombstones.is_empty() {
            if tombstones.len() != core.len().div_ceil(64) {
                return Err(SnapshotError::Corrupt("tombstone bitmap width mismatch"));
            }
            let used = core.len() - (tombstones.len() - 1) * 64;
            if used < 64 && (*tombstones.last().expect("non-empty") >> used) != 0 {
                return Err(SnapshotError::Corrupt(
                    "tombstone bit past the packed range",
                ));
            }
        }
        let staged_mbr = Rect::union_all(staged_rects.iter());
        Ok(Self {
            core: Arc::new(core),
            staged_keys,
            staged_rects,
            tombstones,
            tombstone_count,
            staged_mbr,
            delta_fraction,
            epoch: None,
        })
    }

    /// Runs the deferred bulk-payload checksum of a loaded core — the
    /// integrity check [`PackedRTree::load`] postpones to keep
    /// cold-start in budget. A no-op `Ok` on built trees, and once a
    /// write has copied the checksummed columns out of the buffer.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::ChecksumMismatch`] when the entry columns were
    /// corrupted after the save.
    pub fn verify_snapshot(&self) -> Result<(), SnapshotError> {
        self.core.verify_bulk()
    }

    /// Overwrites one stored node MBR, bypassing every invariant —
    /// lets tests prove `validate` catches stale MBRs.
    #[cfg(test)]
    fn corrupt_level_mbr(&mut self, level: usize, node: usize, rect: Rect<D>)
    where
        K: Clone,
    {
        Arc::make_mut(&mut self.core).levels[level].to_mut()[node] = rect;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> Vec<(usize, Rect<2>)> {
        (0..n)
            .map(|i| {
                let x = (i % 32) as f64 * 3.0;
                let y = (i / 32) as f64 * 3.0;
                (i, Rect::new([x, y], [x + 2.0, y + 2.0]))
            })
            .collect()
    }

    #[test]
    fn empty_tree() {
        let tree: PackedRTree<u32, 2> = PackedRTree::bulk_load(Vec::new());
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.mbr(), None);
        assert!(tree.search_point(&Point::new([0.0, 0.0])).is_empty());
        tree.validate().unwrap();
    }

    #[test]
    fn build_sizes_and_completeness() {
        for n in [1usize, 2, 15, 16, 17, 256, 257, 1000] {
            let tree = PackedRTree::bulk_load(grid(n));
            assert_eq!(tree.len(), n);
            tree.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
            for (k, r) in grid(n) {
                let hits = tree.search_point(&r.center());
                assert!(hits.contains(&&k), "n={n}: entry {k} lost");
            }
        }
    }

    #[test]
    fn matches_linear_scan_on_windows() {
        let entries = grid(500);
        let tree = PackedRTree::bulk_load_with_node_size(8, entries.clone());
        for window in [
            Rect::new([0.0, 0.0], [10.0, 10.0]),
            Rect::new([40.0, 10.0], [70.0, 30.0]),
            Rect::new([500.0, 500.0], [600.0, 600.0]),
        ] {
            let mut got: Vec<usize> = tree
                .search_intersecting(&window)
                .into_iter()
                .copied()
                .collect();
            got.sort_unstable();
            let mut want: Vec<usize> = entries
                .iter()
                .filter(|(_, r)| r.intersects(&window))
                .map(|(k, _)| *k)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn update_refits_ancestors() {
        let mut tree = PackedRTree::bulk_load_with_node_size(4, grid(200));
        let slot = tree.slot_of(&77).expect("entry 77 exists");
        let moved = Rect::new([900.0, 900.0], [901.0, 901.0]);
        tree.update(slot, moved);
        tree.validate().unwrap();
        let hits = tree.search_point(&Point::new([900.5, 900.5]));
        assert_eq!(hits, vec![&77]);
        // The old location no longer reports the moved entry.
        let (_, old) = grid(200)[77];
        assert!(!tree.search_point(&old.center()).contains(&&77));
        // Shrinking also refits exactly.
        tree.update(slot, Rect::new([900.2, 900.2], [900.4, 900.4]));
        tree.validate().unwrap();
    }

    #[test]
    fn unbounded_entries_are_searchable() {
        let mut entries = grid(50);
        entries.push((999, Rect::everything()));
        entries.push((998, Rect::new([0.0, 10.0], [f64::INFINITY, 12.0])));
        let tree = PackedRTree::bulk_load(entries);
        tree.validate().unwrap();
        let hits = tree.search_point(&Point::new([1_000_000.0, 11.0]));
        let mut keys: Vec<usize> = hits.into_iter().copied().collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![998, 999]);
    }

    #[test]
    fn high_dimensional_trees_work() {
        // 9 × HILBERT_ORDER exceeds 128 bits; the curve coarsens
        // instead of panicking, and searches stay exact.
        let entries: Vec<(usize, Rect<9>)> = (0..100)
            .map(|i| {
                let o = i as f64;
                (i, Rect::new([o; 9], [o + 0.5; 9]))
            })
            .collect();
        let tree = PackedRTree::bulk_load(entries);
        tree.validate().unwrap();
        let hits = tree.search_point(&Point::new([42.25; 9]));
        assert_eq!(hits, vec![&42]);
    }

    #[test]
    fn duplicate_rects_supported() {
        let r = Rect::new([0.0, 0.0], [1.0, 1.0]);
        let tree = PackedRTree::bulk_load((0..40usize).map(|i| (i, r)).collect());
        assert_eq!(tree.search_point(&Point::new([0.5, 0.5])).len(), 40);
        tree.validate().unwrap();
    }

    #[test]
    fn validate_catches_stale_mbr() {
        let mut tree = PackedRTree::bulk_load_with_node_size(4, grid(100));
        // Corrupt a leaf-node MBR behind validate's back.
        tree.corrupt_level_mbr(0, 0, Rect::new([0.0, 0.0], [0.1, 0.1]));
        assert!(matches!(
            tree.validate(),
            Err(PackedValidationError::WrongMbr { level: 0, node: 0 })
        ));
    }

    #[test]
    fn batch_visit_equals_per_point_visits() {
        let tree = PackedRTree::bulk_load_with_node_size(8, grid(400));
        let probes: Vec<Point<2>> = (0..250)
            .map(|i| Point::new([(i % 40) as f64 * 2.3, (i / 40) as f64 * 5.1]))
            .collect();
        let mut batched: Vec<Vec<usize>> = vec![Vec::new(); probes.len()];
        tree.for_each_containing_batch(&probes, |pi, &k, _| batched[pi as usize].push(k));
        for (p, got) in probes.iter().zip(batched.iter_mut()) {
            got.sort_unstable();
            let mut want: Vec<usize> = tree.search_point(p).into_iter().copied().collect();
            want.sort_unstable();
            assert_eq!(got, &want, "probe {p:?}");
        }
        // Empty batch and empty tree are both no-ops.
        tree.for_each_containing_batch(&[], |_, _, _| unreachable!());
        let empty: PackedRTree<usize, 2> = PackedRTree::bulk_load(Vec::new());
        empty.for_each_containing_batch(&probes, |_, _, _| unreachable!());
    }

    #[test]
    fn intersecting_while_aborts_early() {
        let tree = PackedRTree::bulk_load_with_node_size(4, grid(300));
        let window = Rect::new([0.0, 0.0], [100.0, 100.0]);
        let full = tree.search_intersecting(&window).len();
        assert!(full > 10);
        let mut seen = 0usize;
        tree.for_each_intersecting_while(&window, |_, _| {
            seen += 1;
            seen < 10
        });
        assert_eq!(seen, 10, "visitor stops the traversal at the 10th hit");
        // A never-aborting while-visitor sees everything.
        let mut all = 0usize;
        tree.for_each_intersecting_while(&window, |_, _| {
            all += 1;
            true
        });
        assert_eq!(all, full);
    }

    /// Live entries of a delta-bearing tree, straight from the model's
    /// definition.
    fn live_model(tree: &PackedRTree<usize, 2>) -> Vec<(usize, Rect<2>)> {
        let mut out: Vec<(usize, Rect<2>)> = tree.entries().map(|(_, &k, &r)| (k, r)).collect();
        out.extend(
            tree.staged_keys()
                .iter()
                .zip(tree.staged_rects())
                .map(|(&k, &r)| (k, r)),
        );
        out
    }

    #[test]
    fn staged_inserts_are_searchable_before_compaction() {
        let mut tree = PackedRTree::bulk_load_with_node_size(4, grid(100));
        // Stage entries both inside and far outside the packed world.
        tree.stage_insert(500, Rect::new([10.0, 10.0], [11.0, 11.0]));
        tree.stage_insert(501, Rect::new([5000.0, 5000.0], [5001.0, 5001.0]));
        tree.validate().unwrap();
        assert_eq!(tree.len(), 102);
        assert_eq!(tree.staged_len(), 2);
        assert!(tree.search_point(&Point::new([10.5, 10.5])).contains(&&500));
        // The out-of-world staged entry is visible to every visitor.
        assert_eq!(tree.search_point(&Point::new([5000.5, 5000.5])), vec![&501]);
        assert_eq!(
            tree.search_intersecting(&Rect::new([4999.0, 4999.0], [5002.0, 5002.0])),
            vec![&501]
        );
        let probes = [Point::new([5000.5, 5000.5])];
        let mut hits = Vec::new();
        tree.for_each_containing_batch(&probes, |pi, &k, _| hits.push((pi, k)));
        assert_eq!(hits, vec![(0, 501)]);
        assert!(tree.mbr().expect("non-empty").contains_point(&probes[0]));
    }

    #[test]
    fn tombstones_hide_entries_from_every_visitor() {
        let mut tree = PackedRTree::bulk_load_with_node_size(4, grid(100));
        let slot = tree.slot_of(&42).expect("entry exists");
        let center = grid(100)[42].1.center();
        assert!(tree.tombstone(slot));
        assert!(!tree.tombstone(slot), "double tombstone reports false");
        assert!(!tree.is_live(slot));
        tree.validate().unwrap();
        assert_eq!(tree.len(), 99);
        assert!(!tree.search_point(&center).contains(&&42));
        let mut batch_hits = Vec::new();
        tree.for_each_containing_batch(&[center], |_, &k, _| batch_hits.push(k));
        assert!(!batch_hits.contains(&42));
        let window = grid(100)[42].1;
        assert!(!tree.search_intersecting(&window).contains(&&42));
        assert_eq!(tree.slot_of(&42), None, "tombstoned entries are not found");
    }

    #[test]
    fn remove_entry_unstages_and_tombstones() {
        let mut tree = PackedRTree::bulk_load_with_node_size(4, grid(50));
        let extra = Rect::new([200.0, 200.0], [201.0, 201.0]);
        tree.stage_insert(900, extra);
        tree.stage_insert(901, Rect::new([210.0, 210.0], [211.0, 211.0]));
        // Unstage: the first staged entry goes, the second moves into
        // its index.
        match tree.remove_entry(&900, &extra) {
            Some(DeltaRemoval::Unstaged { index: 0, moved }) => {
                assert_eq!(moved, Some(Rect::new([210.0, 210.0], [211.0, 211.0])));
            }
            other => panic!("unexpected removal outcome {other:?}"),
        }
        // Tombstone: a packed entry.
        let (key, rect) = grid(50)[7];
        match tree.remove_entry(&key, &rect) {
            Some(DeltaRemoval::Tombstoned { slot }) => assert!(!tree.is_live(slot)),
            other => panic!("unexpected removal outcome {other:?}"),
        }
        // Gone entries are not found again.
        assert_eq!(tree.remove_entry(&900, &extra), None);
        assert_eq!(tree.remove_entry(&key, &rect), None);
        tree.validate().unwrap();
        assert_eq!(tree.len(), 50);
    }

    #[test]
    fn compact_folds_the_delta_layer_in() {
        let mut tree = PackedRTree::bulk_load_with_node_size(4, grid(60));
        for i in 0..10usize {
            let o = 300.0 + i as f64 * 5.0;
            tree.stage_insert(700 + i, Rect::new([o, o], [o + 2.0, o + 2.0]));
        }
        for (key, rect) in grid(60).iter().take(5) {
            assert!(tree.remove_entry(key, rect).is_some());
        }
        let before = live_model(&tree);
        let stats = tree.compact();
        assert_eq!(stats.staged_absorbed, 10);
        assert_eq!(stats.tombstones_reclaimed, 5);
        assert_eq!(tree.delta_len(), 0);
        assert_eq!(tree.len(), 65);
        tree.validate().unwrap();
        // Identical result sets after the merge.
        let mut after = live_model(&tree);
        let mut want = before;
        after.sort_unstable_by_key(|&(k, _)| k);
        want.sort_unstable_by_key(|&(k, _)| k);
        assert_eq!(after, want);
        // Compacting a clean tree is a no-op.
        assert!(tree.compact().is_noop());
    }

    #[test]
    fn compaction_threshold_follows_the_fraction() {
        let mut tree = PackedRTree::bulk_load(grid(100));
        tree.set_delta_fraction(0.1);
        // 10 staged over 100 packed is exactly the fraction — not yet
        // over it.
        for i in 0..10usize {
            tree.stage_insert(800 + i, Rect::new([0.0, 0.0], [1.0, 1.0]));
        }
        assert!(!tree.needs_compaction());
        tree.stage_insert(899, Rect::new([0.0, 0.0], [1.0, 1.0]));
        assert!(tree.needs_compaction());
        assert!(tree.maybe_compact().is_some());
        assert!(tree.maybe_compact().is_none());
        // Fraction 0: any delta triggers (the rebuild-per-flush mode).
        tree.set_delta_fraction(0.0);
        assert!(tree.tombstone(0));
        assert!(tree.needs_compaction());
    }

    #[test]
    fn empty_packed_tier_with_staged_entries_works() {
        let mut tree: PackedRTree<usize, 2> = PackedRTree::bulk_load(Vec::new());
        tree.stage_insert(1, Rect::new([0.0, 0.0], [10.0, 10.0]));
        tree.validate().unwrap();
        assert_eq!(tree.len(), 1);
        assert!(!tree.is_empty());
        assert_eq!(tree.search_point(&Point::new([5.0, 5.0])), vec![&1]);
        let mut batch_hits = Vec::new();
        tree.for_each_containing_batch(&[Point::new([5.0, 5.0])], |pi, &k, _| {
            batch_hits.push((pi, k));
        });
        assert_eq!(batch_hits, vec![(0, 1)]);
        assert_eq!(tree.mbr(), Some(Rect::new([0.0, 0.0], [10.0, 10.0])));
        tree.compact();
        assert_eq!(tree.packed_len(), 1);
        tree.validate().unwrap();
    }

    #[test]
    fn drain_live_moves_everything_out() {
        let mut tree = PackedRTree::bulk_load(grid(30));
        tree.stage_insert(500, Rect::new([1.0, 1.0], [2.0, 2.0]));
        let (key, rect) = grid(30)[3];
        assert!(tree.remove_entry(&key, &rect).is_some());
        let drained = tree.drain_live();
        assert_eq!(drained.len(), 30);
        assert!(drained.iter().any(|&(k, _)| k == 500));
        assert!(!drained.iter().any(|&(k, _)| k == 3));
        assert!(tree.is_empty());
        assert_eq!(tree.delta_len(), 0);
        tree.validate().unwrap();
    }

    #[test]
    fn abortable_walk_covers_the_staged_tier() {
        let mut tree = PackedRTree::bulk_load_with_node_size(4, grid(40));
        tree.stage_insert(600, Rect::new([0.0, 0.0], [1.0, 1.0]));
        let window = Rect::new([0.0, 0.0], [200.0, 200.0]);
        let mut seen_staged = false;
        let mut count = 0usize;
        tree.for_each_intersecting_while(&window, |&k, _| {
            seen_staged |= k == 600;
            count += 1;
            true
        });
        assert!(seen_staged, "staged entry visited by the abortable walk");
        assert_eq!(count, 41);
        // Aborting inside the staged scan stops immediately.
        let mut after_staged = 0usize;
        tree.for_each_intersecting_while(&window, |&k, _| {
            if k == 600 {
                return false;
            }
            after_staged += 1;
            true
        });
        assert!(after_staged <= 40);
    }

    /// The model answer for a point probe over `(key, rect)` pairs.
    fn model_hits(model: &[(usize, Rect<2>)], p: &Point<2>) -> Vec<usize> {
        let mut hits: Vec<usize> = model
            .iter()
            .filter(|(_, r)| r.contains_point(p))
            .map(|(k, _)| *k)
            .collect();
        hits.sort_unstable();
        hits
    }

    fn sorted_hits(tree: &PackedRTree<usize, 2>, p: &Point<2>) -> Vec<usize> {
        let mut hits: Vec<usize> = tree.search_point(p).into_iter().copied().collect();
        hits.sort_unstable();
        hits
    }

    #[test]
    fn freeze_serves_exact_reads_while_merging() {
        let mut tree = PackedRTree::bulk_load_with_node_size(4, grid(80));
        let mut model = grid(80);
        // Pre-freeze delta: two staged entries, one tombstone.
        tree.stage_insert(500, Rect::new([7.0, 7.0], [8.0, 8.0]));
        tree.stage_insert(501, Rect::new([400.0, 400.0], [401.0, 401.0]));
        model.push((500, Rect::new([7.0, 7.0], [8.0, 8.0])));
        model.push((501, Rect::new([400.0, 400.0], [401.0, 401.0])));
        let (k, r) = grid(80)[11];
        assert!(tree.remove_entry(&k, &r).is_some());
        model.retain(|&(key, _)| key != 11);

        let frozen = tree.freeze();
        assert!(tree.is_compacting());
        assert_eq!(frozen.len(), model.len());

        // Mid-compaction mutations of every flavor.
        tree.stage_insert(600, Rect::new([1.0, 1.0], [2.0, 2.0])); // gen-2 insert
        model.push((600, Rect::new([1.0, 1.0], [2.0, 2.0])));
        let (k2, r2) = grid(80)[33]; // packed removal -> tombstone
        assert!(matches!(
            tree.remove_entry(&k2, &r2),
            Some(DeltaRemoval::Tombstoned { .. })
        ));
        model.retain(|&(key, _)| key != 33);
        // Frozen staged removal -> retired in place.
        assert!(matches!(
            tree.remove_entry(&500, &Rect::new([7.0, 7.0], [8.0, 8.0])),
            Some(DeltaRemoval::Retired { .. })
        ));
        model.retain(|&(key, _)| key != 500);
        // Gen-2 removal -> plain swap-remove.
        assert!(matches!(
            tree.remove_entry(&600, &Rect::new([1.0, 1.0], [2.0, 2.0])),
            Some(DeltaRemoval::Unstaged { .. })
        ));
        model.retain(|&(key, _)| key != 600);
        tree.stage_insert(601, Rect::new([2.5, 2.5], [3.5, 3.5]));
        model.push((601, Rect::new([2.5, 2.5], [3.5, 3.5])));

        tree.validate().unwrap();
        assert_eq!(tree.len(), model.len());
        // Exact reads mid-compaction, everywhere it matters.
        for p in [
            Point::new([7.5, 7.5]),
            Point::new([400.5, 400.5]),
            Point::new([1.5, 1.5]),
            Point::new([3.0, 3.0]),
            grid(80)[33].1.center(),
            grid(80)[12].1.center(),
        ] {
            assert_eq!(sorted_hits(&tree, &p), model_hits(&model, &p), "at {p:?}");
        }

        // The merge sees exactly the frozen state.
        let merged = frozen.merge();
        merged.validate().unwrap();
        assert_eq!(merged.len(), 81, "80 - 1 tombstone + 2 staged");
        assert_eq!(merged.delta_len(), 0);

        // Install: fix-ups re-apply the mid-compaction removals, the
        // gen-2 delta survives.
        let stats = tree.install(merged);
        assert!(!tree.is_compacting());
        assert_eq!(stats.staged_absorbed, 2);
        assert_eq!(stats.tombstones_reclaimed, 1);
        tree.validate().unwrap();
        assert_eq!(tree.len(), model.len());
        assert_eq!(tree.staged_len(), 1, "gen-2 entry 601 carried forward");
        assert_eq!(tree.tombstone_count(), 2, "fix-ups: keys 33 and 500");
        for p in [
            Point::new([7.5, 7.5]),
            Point::new([400.5, 400.5]),
            Point::new([3.0, 3.0]),
            grid(80)[33].1.center(),
            grid(80)[12].1.center(),
        ] {
            assert_eq!(sorted_hits(&tree, &p), model_hits(&model, &p), "at {p:?}");
        }
        // A follow-up synchronous compact folds the fix-ups away.
        tree.compact();
        tree.validate().unwrap();
        assert_eq!(tree.len(), model.len());
    }

    #[test]
    fn install_handles_duplicates_across_generations() {
        let r = Rect::new([5.0, 5.0], [6.0, 6.0]);
        let mut tree = PackedRTree::bulk_load_with_node_size(4, grid(40));
        tree.stage_insert(900, r); // frozen copy
        let _frozen = tree.freeze();
        tree.stage_insert(900, r); // gen-2 duplicate (same key and rect)
                                   // Remove one copy mid-compaction: the frozen one is found
                                   // first and retired.
        assert!(matches!(
            tree.remove_entry(&900, &r),
            Some(DeltaRemoval::Retired { .. })
        ));
        assert_eq!(tree.len(), 41);
        let merged = _frozen.merge();
        tree.install(merged);
        tree.validate().unwrap();
        // Exactly one copy of 900 must survive, whichever tier it
        // lives in (duplicates are indistinguishable).
        assert_eq!(tree.len(), 41);
        let hits: Vec<usize> = tree
            .search_point(&Point::new([5.5, 5.5]))
            .into_iter()
            .copied()
            .filter(|&k| k == 900)
            .collect();
        assert_eq!(hits, vec![900]);
    }

    #[test]
    fn freeze_snapshot_is_isolated_from_live_mutations() {
        let mut tree = PackedRTree::bulk_load_with_node_size(4, grid(50));
        let frozen = tree.freeze();
        // Heavy live mutation after the freeze.
        for (k, r) in grid(50).iter().take(20) {
            assert!(tree.remove_entry(k, r).is_some());
        }
        for i in 0..10usize {
            tree.stage_insert(700 + i, Rect::new([0.0, 0.0], [1.0, 1.0]));
        }
        // The snapshot still merges to exactly the frozen state.
        let merged = frozen.merge();
        assert_eq!(merged.len(), 50);
        merged.validate().unwrap();
        tree.install(merged);
        tree.validate().unwrap();
        assert_eq!(tree.len(), 40);
    }

    fn snapshot_hits(snap: &FrozenShard<usize, 2>, p: &Point<2>) -> Vec<usize> {
        let mut hits = Vec::new();
        snap.for_each_containing(p, |&k, _| hits.push(k));
        hits.sort_unstable();
        hits
    }

    #[test]
    fn snapshot_reads_match_the_tree_at_snapshot_time() {
        let mut tree = PackedRTree::bulk_load_with_node_size(4, grid(60));
        let mut model = grid(60);
        // Mixed delta state before the snapshot: stagings + removals.
        for i in 0..8usize {
            let r = Rect::new([1.0 + i as f64, 1.0], [1.5 + i as f64, 1.5]);
            tree.stage_insert(900 + i, r);
            model.push((900 + i, r));
        }
        for (k, r) in grid(60).iter().take(10) {
            assert!(tree.remove_entry(k, r).is_some());
        }
        model.retain(|&(k, _)| k >= 10);
        let snap = tree.snapshot();
        assert!(!tree.is_compacting(), "snapshot must not open an epoch");
        assert_eq!(snap.len(), model.len());

        // Mutate the live tree heavily; the snapshot must not move.
        for (k, r) in grid(60).iter().skip(10).take(20) {
            assert!(tree.remove_entry(k, r).is_some());
        }
        tree.stage_insert(999, Rect::new([0.0, 0.0], [100.0, 100.0]));
        for p in [
            Point::new([1.2, 1.2]),
            Point::new([5.0, 5.0]),
            Point::new([31.0, 4.0]),
            grid(60)[3].1.center(),
            grid(60)[45].1.center(),
            Point::new([-5.0, -5.0]),
        ] {
            assert_eq!(snapshot_hits(&snap, &p), model_hits(&model, &p), "at {p:?}");
        }
    }

    #[test]
    fn snapshot_composes_with_an_outstanding_freeze() {
        let mut tree = PackedRTree::bulk_load_with_node_size(4, grid(40));
        let r = Rect::new([5.0, 5.0], [6.0, 6.0]);
        tree.stage_insert(700, r);
        let frozen = tree.freeze();
        // Retire the frozen staged entry mid-compaction, tombstone a
        // packed one, stage a gen-2 entry.
        assert!(matches!(
            tree.remove_entry(&700, &r),
            Some(DeltaRemoval::Retired { .. })
        ));
        let (k1, r1) = grid(40)[7];
        assert!(tree.remove_entry(&k1, &r1).is_some());
        let r2 = Rect::new([50.0, 50.0], [51.0, 51.0]);
        tree.stage_insert(701, r2);

        // The read snapshot sees the *current* live set: no 700 (it
        // was retired, and must be filtered out, not emitted), no k1,
        // but 701.
        let snap = tree.snapshot();
        assert_eq!(snap.len(), tree.len());
        assert_eq!(snapshot_hits(&snap, &Point::new([5.5, 5.5])), vec![]);
        assert_eq!(snapshot_hits(&snap, &r1.center()), vec![]);
        assert_eq!(snapshot_hits(&snap, &Point::new([50.5, 50.5])), vec![701]);

        // And the compaction completes undisturbed.
        let merged = frozen.merge();
        tree.install(merged);
        tree.validate().unwrap();
    }

    #[test]
    fn snapshot_serves_concurrent_readers_while_owner_mutates() {
        let mut tree = PackedRTree::bulk_load_with_node_size(4, grid(80));
        let snap = std::sync::Arc::new(tree.snapshot());
        let expected: Vec<Vec<usize>> = (0..80)
            .map(|i| model_hits(&grid(80), &grid(80)[i].1.center()))
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let snap = std::sync::Arc::clone(&snap);
                let expected = &expected;
                scope.spawn(move || {
                    for (i, want) in expected.iter().enumerate() {
                        let got = snapshot_hits(&snap, &grid(80)[i].1.center());
                        assert_eq!(&got, want);
                    }
                });
            }
            // The owner mutates concurrently — readers never block on
            // it and never see the mutations.
            for (k, r) in grid(80).iter().take(40) {
                assert!(tree.remove_entry(k, r).is_some());
            }
            tree.compact();
        });
        assert_eq!(snap.len(), 80);
    }

    #[test]
    fn abort_compaction_restores_a_plain_delta_tree() {
        let mut tree = PackedRTree::bulk_load_with_node_size(4, grid(30));
        tree.stage_insert(800, Rect::new([3.0, 3.0], [4.0, 4.0]));
        tree.stage_insert(801, Rect::new([90.0, 3.0], [91.0, 4.0]));
        let _frozen = tree.freeze();
        assert!(matches!(
            tree.remove_entry(&800, &Rect::new([3.0, 3.0], [4.0, 4.0])),
            Some(DeltaRemoval::Retired { .. })
        ));
        tree.stage_insert(802, Rect::new([50.0, 50.0], [51.0, 51.0]));
        tree.abort_compaction();
        assert!(!tree.is_compacting());
        tree.validate().unwrap();
        assert_eq!(tree.len(), 32, "30 packed + live staged 801, 802");
        assert_eq!(tree.staged_len(), 2, "retired entry physically dropped");
        assert!(tree
            .search_point(&Point::new([3.5, 3.5]))
            .iter()
            .all(|&&k| k != 800));
        // Aborting again (or with no epoch) is a no-op.
        tree.abort_compaction();
        // Drain after an abort sees only live entries.
        let drained = tree.drain_live();
        assert_eq!(drained.len(), 32);
    }

    #[test]
    #[should_panic(expected = "update during an outstanding compaction snapshot")]
    fn update_mid_compaction_panics() {
        let mut tree = PackedRTree::bulk_load_with_node_size(4, grid(20));
        let _frozen = tree.freeze();
        tree.update(0, Rect::new([0.0, 0.0], [1.0, 1.0]));
    }

    #[test]
    fn maybe_compact_defers_while_a_snapshot_is_outstanding() {
        let mut tree = PackedRTree::bulk_load_with_node_size(4, grid(20));
        tree.set_delta_fraction(0.05);
        for i in 0..10usize {
            tree.stage_insert(100 + i, Rect::new([0.0, 0.0], [1.0, 1.0]));
        }
        assert!(tree.needs_compaction());
        let frozen = tree.freeze();
        // The compaction is already underway: no panic, no merge.
        assert_eq!(tree.maybe_compact(), None);
        tree.install(frozen.merge());
        assert_eq!(tree.delta_len(), 0);
        tree.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "freeze while a compaction snapshot is already outstanding")]
    fn double_freeze_panics() {
        let mut tree = PackedRTree::bulk_load_with_node_size(4, grid(20));
        let _a = tree.freeze();
        let _b = tree.freeze();
    }

    #[test]
    fn clone_shares_the_core_copy_on_write() {
        let mut tree = PackedRTree::bulk_load_with_node_size(4, grid(60));
        let copy = tree.clone();
        assert!(Arc::ptr_eq(&tree.core, &copy.core), "clone is O(delta)");
        let slot = tree.slot_of(&7).unwrap();
        tree.update(slot, Rect::new([500.0, 500.0], [501.0, 501.0]));
        // The clone still sees the original rectangle.
        let (_, old) = grid(60)[7];
        assert!(copy.search_point(&old.center()).contains(&&7));
        assert!(!tree.search_point(&old.center()).contains(&&7));
        copy.validate().unwrap();
        tree.validate().unwrap();
    }

    #[test]
    fn freeze_with_empty_packed_tier_works() {
        let mut tree: PackedRTree<usize, 2> = PackedRTree::bulk_load(Vec::new());
        tree.stage_insert(1, Rect::new([0.0, 0.0], [1.0, 1.0]));
        let frozen = tree.freeze();
        tree.stage_insert(2, Rect::new([2.0, 2.0], [3.0, 3.0]));
        let merged = frozen.merge();
        assert_eq!(merged.packed_len(), 1);
        tree.install(merged);
        tree.validate().unwrap();
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.search_point(&Point::new([2.5, 2.5])), vec![&2]);
        assert_eq!(tree.search_point(&Point::new([0.5, 0.5])), vec![&1]);
    }

    #[test]
    fn visitor_counts_without_allocating_results() {
        let tree = PackedRTree::bulk_load(grid(300));
        let mut count = 0usize;
        tree.for_each_containing(&Point::new([1.0, 1.0]), |_, _| count += 1);
        assert_eq!(count, tree.search_point(&Point::new([1.0, 1.0])).len());
    }

    // ---- flat snapshots ------------------------------------------------

    /// Asserts `restored` answers every probe and window of the `grid`
    /// world identically to `tree`, across all three read paths.
    fn assert_reads_equal(tree: &PackedRTree<usize, 2>, restored: &PackedRTree<usize, 2>) {
        assert_eq!(tree.len(), restored.len());
        let probes: Vec<Point<2>> = (0..40)
            .map(|i| Point::new([(i % 20) as f64 * 5.3, (i / 4) as f64 * 3.7]))
            .collect();
        for p in &probes {
            assert_eq!(
                sorted_hits(tree, p),
                sorted_hits(restored, p),
                "probe {p:?}"
            );
        }
        for i in 0..10 {
            let lo = [i as f64 * 7.0, i as f64 * 3.0];
            let window = Rect::new(lo, [lo[0] + 11.0, lo[1] + 9.0]);
            let mut a: Vec<usize> = tree
                .search_intersecting(&window)
                .into_iter()
                .copied()
                .collect();
            let mut b: Vec<usize> = restored
                .search_intersecting(&window)
                .into_iter()
                .copied()
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "window {window:?}");
        }
        let mut a: Vec<(u32, usize)> = Vec::new();
        let mut b: Vec<(u32, usize)> = Vec::new();
        tree.for_each_containing_batch(&probes, |pi, k, _| a.push((pi, *k)));
        restored.for_each_containing_batch(&probes, |pi, k, _| b.push((pi, *k)));
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn save_load_round_trips_exactly() {
        let tree = PackedRTree::bulk_load(grid(500));
        let bytes = tree.save();
        let restored = PackedRTree::<usize, 2>::load(bytes).unwrap();
        restored.validate().unwrap();
        restored.verify_snapshot().unwrap();
        assert_reads_equal(&tree, &restored);
    }

    #[test]
    fn empty_tree_round_trips() {
        let tree: PackedRTree<usize, 2> = PackedRTree::bulk_load(Vec::new());
        let restored = PackedRTree::<usize, 2>::load_verified(tree.save()).unwrap();
        assert_eq!(restored.len(), 0);
        restored.validate().unwrap();
        assert!(restored.search_point(&Point::new([0.0, 0.0])).is_empty());
    }

    #[test]
    fn mid_churn_snapshot_restores_delta_and_tombstones() {
        let mut tree = PackedRTree::bulk_load_with_node_size(4, grid(200));
        for i in 0..37 {
            let x = 200.0 + i as f64;
            tree.stage_insert(10_000 + i, Rect::new([x, x], [x + 1.5, x + 1.5]));
        }
        for i in (0..200).step_by(7) {
            let (k, r) = grid(200)[i];
            tree.remove_entry(&k, &r).unwrap();
        }
        let restored = PackedRTree::<usize, 2>::load_verified(tree.save()).unwrap();
        restored.validate().unwrap();
        assert_eq!(restored.staged_len(), tree.staged_len());
        assert_eq!(restored.tombstone_count(), tree.tombstone_count());
        assert_eq!(live_model(&tree), live_model(&restored));
        assert_reads_equal(&tree, &restored);
        let p = Point::new([200.5, 200.5]);
        assert_eq!(sorted_hits(&tree, &p), sorted_hits(&restored, &p));
    }

    #[test]
    fn mid_freeze_snapshot_serializes_the_live_view() {
        let mut tree = PackedRTree::bulk_load_with_node_size(4, grid(100));
        tree.stage_insert(900, Rect::new([400.0, 400.0], [401.0, 401.0]));
        let _frozen = tree.freeze();
        // Retire a frozen staged entry and tombstone a packed slot
        // mid-compaction; the snapshot must carry neither as live.
        tree.remove_entry(&900, &Rect::new([400.0, 400.0], [401.0, 401.0]))
            .unwrap();
        let (k, r) = grid(100)[3];
        tree.remove_entry(&k, &r).unwrap();
        let restored = PackedRTree::<usize, 2>::load_verified(tree.save()).unwrap();
        restored.validate().unwrap();
        assert!(!restored.is_compacting());
        // Retired frozen entries are dead in the live view; live_model
        // doesn't know about epochs, so filter them out here.
        let mut expect: Vec<(usize, Rect<2>)> = tree.entries().map(|(_, &k, &r)| (k, r)).collect();
        expect.extend(
            tree.staged_keys()
                .iter()
                .zip(tree.staged_rects())
                .enumerate()
                .filter(|&(i, _)| tree.is_staged_live(i))
                .map(|(_, (&k, &r))| (k, r)),
        );
        assert_eq!(expect, live_model(&restored));
        assert_reads_equal(&tree, &restored);
    }

    #[test]
    fn restored_tree_mutates_like_a_built_one() {
        let tree = PackedRTree::bulk_load(grid(120));
        let mut restored = PackedRTree::<usize, 2>::load(tree.save()).unwrap();
        let slot = restored.slot_of(&11).unwrap();
        restored.update(slot, Rect::new([777.0, 777.0], [778.0, 778.0]));
        restored.stage_insert(5000, Rect::new([900.0, 900.0], [901.0, 901.0]));
        restored.compact();
        restored.validate().unwrap();
        assert_eq!(restored.len(), 121);
        assert_eq!(
            restored.search_point(&Point::new([777.5, 777.5])),
            vec![&11]
        );
        assert_eq!(
            restored.search_point(&Point::new([900.5, 900.5])),
            vec![&5000]
        );
    }

    #[test]
    fn corrupt_headers_are_rejected_not_panics() {
        let tree = PackedRTree::bulk_load(grid(150));
        let good = tree.save();

        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            PackedRTree::<usize, 2>::load(bad),
            Err(SnapshotError::BadMagic { .. })
        ));

        let mut bad = good.clone();
        bad[4] = 99;
        assert!(matches!(
            PackedRTree::<usize, 2>::load(bad),
            Err(SnapshotError::WrongVersion { found: 99, .. })
        ));

        assert!(matches!(
            PackedRTree::<usize, 3>::load(good.clone()),
            Err(SnapshotError::WrongDims {
                found: 2,
                expected: 3
            })
        ));

        for cut in [0, 5, 63, 64, 200, good.len() - 1] {
            assert!(
                PackedRTree::<usize, 2>::load(good[..cut].to_vec()).is_err(),
                "truncation at {cut} must be rejected"
            );
        }

        // Flip one metadata byte (level table region) — eager checksum.
        let mut bad = good.clone();
        bad[HEADER_LEN + HEADER_LEN + 3] ^= 0x40;
        assert!(PackedRTree::<usize, 2>::load(bad).is_err());

        // Flip one byte deep in the bulk payload: the plain load
        // defers that checksum, load_verified catches it.
        let mut bad = good.clone();
        let mid = HEADER_LEN + good.len() / 2;
        bad[mid] ^= 0x01;
        assert!(matches!(
            PackedRTree::<usize, 2>::load_verified(bad),
            Err(SnapshotError::ChecksumMismatch)
        ));
    }

    #[test]
    fn fuzzed_header_bytes_never_panic() {
        let tree = PackedRTree::bulk_load(grid(80));
        let good = tree.save();
        // Deterministic single-byte corruptions across both headers
        // and section edges: every one must be Err or a valid tree.
        for pos in 0..good.len().min(256) {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut bad = good.clone();
                bad[pos] ^= flip;
                if let Ok(t) = PackedRTree::<usize, 2>::load(bad) {
                    // A surviving load may only differ in deferred-
                    // checksummed payload; probing and both
                    // verifiers must return, not panic.
                    let _ = t.search_point(&Point::new([1.0, 1.0]));
                    let _ = t.validate();
                    let _ = t.verify_snapshot();
                }
            }
        }
    }

    #[test]
    fn snapshot_with_empty_delta_allocates_nothing() {
        let mut tree = PackedRTree::bulk_load(grid(100));
        let snap = tree.snapshot();
        assert_eq!(
            snap.delta_heap_bytes(),
            0,
            "empty-delta snapshot must not copy"
        );
        assert!(Arc::ptr_eq(&snap.core, &tree.core));
        // With a delta the snapshot pays O(delta) — and only that.
        tree.stage_insert(999, Rect::new([5.0, 5.0], [6.0, 6.0]));
        assert!(tree.snapshot().delta_heap_bytes() > 0);
    }

    #[test]
    fn save_with_custom_key_codec_round_trips() {
        // A foreign newtype outside the SnapshotKey impl list.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        struct Id(u32);
        let entries: Vec<(Id, Rect<2>)> = grid(90)
            .into_iter()
            .map(|(k, r)| (Id(k as u32), r))
            .collect();
        let tree = PackedRTree::bulk_load(entries);
        let bytes = tree.save_with(|id| u64::from(id.0));
        let restored = PackedRTree::<Id, 2>::load_with(bytes, |raw| Id(raw as u32)).unwrap();
        assert_eq!(restored.len(), 90);
        let p = Point::new([3.5, 3.5]);
        let mut a: Vec<Id> = tree.search_point(&p).into_iter().copied().collect();
        let mut b: Vec<Id> = restored.search_point(&p).into_iter().copied().collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
