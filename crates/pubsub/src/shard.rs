//! The sharded, parallel-publish subscription oracle.
//!
//! [`ShardedOracle`] partitions the live subscription set across `K`
//! independent [`PackedRTree`] shards, assigned by the Hilbert key of
//! each filter rectangle's center ([`drtree_spatial::hilbert::ShardMap`],
//! contiguous curve ranges split at count quantiles). Mutations route
//! into the owning shard's **delta layer** — staged inserts and
//! tombstones absorbed in place, with the shard's stab grid patched
//! cell-by-cell so batched probes stay exact between compactions —
//! and [`ShardedOracle::flush`] compacts only the shards whose delta
//! has outgrown the configured fraction
//! ([`ShardedOracle::set_delta_fraction`]). Publishes fan the probe
//! across shards — through the scoped-thread pool of
//! [`drtree_rtree::parallel`] for batches — and merge visitor hits
//! into reused buffers, so the steady-state matching path performs no
//! allocation.
//!
//! Every compaction is one routine: freeze the shard's `Arc`-shared
//! packed core ([`drtree_rtree::FrozenShard`]), merge it, and build
//! the stab grid over the result. [`CompactionMode`] only decides
//! where that routine runs and when its result is installed: inline,
//! in the same flush (**synchronous**), or on a background
//! [`drtree_rtree::parallel::Job`] whose result a later flush swaps in
//! (**concurrent**) — meanwhile the shard keeps serving exact reads
//! from the frozen state overlaid with a second-generation delta, and
//! the install costs an `O(mutations-during-merge)` fix-up instead of
//! an `O(shard)` pause. Every change of shard assignment is likewise
//! one routine: a full redistribute at the count quantiles of the
//! live curve keys.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

use drtree_core::ProcessId;
use drtree_rtree::bytes::{self, AlignedBytes};
use drtree_rtree::{parallel, DeltaRemoval, EntryUpdate, FrozenShard, PackedRTree, SnapshotError};
use drtree_spatial::hilbert::{GridMapper, ShardMap};
use drtree_spatial::{Point, Rect};

/// Magic number of a serialized [`ShardedOracle`] (`"DRTO"`, little
/// endian), leading the 64-byte oracle header.
const ORACLE_MAGIC: u32 = u32::from_le_bytes(*b"DRTO");

/// Version of the oracle snapshot wire format. Readers reject any
/// other value outright — the format is versioned, not negotiated.
const ORACLE_VERSION: u16 = 1;

/// Header flag: the snapshot carries a [`ShardMap`] (world rectangle
/// plus `K − 1` boundary keys). Absent only when the oracle was
/// snapshotted before its first flush established a map.
const ORACLE_FLAG_HAS_MAP: u16 = 1;

/// Byte length of the oracle snapshot header.
const ORACLE_HEADER_LEN: usize = 64;

/// Rebalance when one shard holds more than
/// `IMBALANCE_FACTOR × ideal + IMBALANCE_SLACK` entries. The slack
/// keeps small oracles (where ±a few entries swamp any ratio) from
/// rebalancing on noise.
const IMBALANCE_FACTOR: usize = 4;
const IMBALANCE_SLACK: usize = 64;

/// An entry is listed in at most this many stab-grid cells; wider
/// rectangles (unbounded filters, world-spanning subscriptions) go to
/// the grid's overflow list, which every probe scans linearly.
const MAX_CELL_SPAN: usize = 256;

/// Tag bit of a per-shard mobility hint: set when the memoized
/// position is a staged-buffer index rather than a packed slot. Slots
/// and staged indexes both stay far below 2^31 (the tree itself caps
/// at 2^32 entries and shards split well before that), so the top bit
/// is free to carry the tier.
const STAGED_HINT: u32 = 1 << 31;

/// Fibonacci-multiply hasher for the oracle's hot interior maps (grid
/// patch lists keyed by cell index, per-shard slot hints keyed by
/// [`ProcessId`]). These maps sit on the per-move mobility path where
/// SipHash was a measurable share of the cost, hold no
/// attacker-controlled keys, and never outlive their shard — the
/// classic case for a trivially mixed hash.
#[derive(Debug, Default, Clone, Copy)]
struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 ^= self.0 >> 29;
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// The [`std::hash::BuildHasher`] plugging [`FastHasher`] into
/// `HashMap`.
type FastState = BuildHasherDefault<FastHasher>;

/// Per-shard scratch of one batched matching pass: the hit stream in
/// sorted-probe order and the per-sorted-probe hit counts that
/// delimit it.
#[derive(Debug, Default, Clone)]
struct ShardBatchBuf {
    hits: Vec<ProcessId>,
    counts: Vec<u32>,
}

/// A uniform stab grid over one shard's entries — the oracle's one
/// point-matching kernel, for single and batched probes alike.
///
/// Cells partition the shard's finite world, ~1 live entry per cell;
/// each cell lists (CSR layout) the *slots* of the packed tree whose
/// rectangle overlaps it. A point stab is then one cell lookup plus a
/// handful of exact rectangle tests — an order of magnitude fewer
/// comparisons than a root-to-leaf tree descent. The grid is
/// rebuilt with its shard on flush (same laziness, cost accounted to
/// the same rebuild columns) and answers *exactly* like the tree:
/// candidate cells over-approximate (clamping is conservative), the
/// per-candidate containment test is exact.
///
/// Probes outside the world clamp to rim cells, which is still exact:
/// an entry reaching beyond the world rim is clamped into those same
/// rim cells (or the overflow list), so no candidate is missed and
/// false candidates fail the exact test.
///
/// Between compactions the grid stays exact through **incremental cell
/// patching**: entries staged into the shard's delta layer are listed
/// in a sparse per-cell patch map (`staged_cells`, keyed by the same
/// row-major cell index the CSR arrays use) consulted by every stab
/// alongside the CSR lists, and tombstoned slots are filtered at
/// emission time. The patch map is bounded by the delta layer itself
/// (the compaction fraction), so the CSR arrays are only ever rebuilt
/// wholesale, together with their shard's packed levels.
#[derive(Debug, Clone)]
struct StabGrid<const D: usize> {
    lo: [f64; D],
    /// Cells per unit length per dimension (0.0 collapses the axis to
    /// a single cell).
    inv_cell: [f64; D],
    /// Cells per dimension (row-major flattening).
    dims: [u32; D],
    /// CSR: `refs[offsets[c]..offsets[c+1]]` are the slots overlapping
    /// cell `c`.
    offsets: Vec<u32>,
    refs: Vec<u32>,
    /// Slots spanning more than [`MAX_CELL_SPAN`] cells.
    overflow: Vec<u32>,
    /// Patch layer: staging-buffer indexes per cell, for entries staged
    /// since the CSR arrays were built. Sparse — the delta layer is
    /// bounded by the compaction fraction.
    staged_cells: HashMap<usize, Vec<u32>, FastState>,
    /// Staged indexes spanning more than [`MAX_CELL_SPAN`] cells, or
    /// staged before any grid geometry existed.
    staged_overflow: Vec<u32>,
    /// Moved-slot patch layer: a bitmap over packed slots whose
    /// rectangle moved in place since the CSR arrays were built
    /// (lazily allocated at the first move). A flagged slot is skipped
    /// by the CSR and overflow scans — its stale cell refs stay in
    /// place but never emit — and is found through `moved_cells` /
    /// `moved_overflow` instead. Each flagged slot lives in exactly
    /// one tier, so no probe can emit it twice (the batched merge
    /// skips deduplication whenever no id holds two entries, so
    /// double emission would be an exactness bug, not a slowdown).
    moved: Vec<u64>,
    /// Number of flagged slots — the fast "clean grid" test.
    moved_count: usize,
    /// Current cell lists of the flagged slots (same routing rule as
    /// `staged_cells`).
    moved_cells: HashMap<usize, Vec<u32>, FastState>,
    /// Flagged slots whose current rectangle spans too many cells, or
    /// that moved before any grid geometry existed.
    moved_overflow: Vec<u32>,
}

impl<const D: usize> Default for StabGrid<D> {
    fn default() -> Self {
        Self {
            lo: [0.0; D],
            inv_cell: [0.0; D],
            dims: [1; D],
            offsets: Vec::new(),
            refs: Vec::new(),
            overflow: Vec::new(),
            staged_cells: HashMap::default(),
            staged_overflow: Vec::new(),
            moved: Vec::new(),
            moved_count: 0,
            moved_cells: HashMap::default(),
            moved_overflow: Vec::new(),
        }
    }
}

impl<const D: usize> StabGrid<D> {
    /// Builds the grid for `packed`'s live entries. Tombstoned slots
    /// are left out of the CSR lists; entries staged *after* the build
    /// enter through [`StabGrid::stage`], so callers building over a
    /// tree that already carries staged entries must patch them in
    /// themselves (the oracle always compacts first).
    fn build(packed: &PackedRTree<ProcessId, D>) -> Self {
        debug_assert_eq!(
            packed.staged_len(),
            0,
            "grid build does not index pre-existing staged entries"
        );
        Self::build_csr(packed)
    }

    /// [`StabGrid::build`] over a tree that already carries a delta
    /// layer: the CSR arrays cover the packed slots, then every live
    /// staged entry is patched into the cell lists — the restore
    /// path's builder, where a mid-churn snapshot legitimately wakes
    /// up with staged entries.
    fn build_with_staged(packed: &PackedRTree<ProcessId, D>) -> Self {
        let mut grid = Self::build_csr(packed);
        for (i, rect) in packed.staged_rects().iter().enumerate() {
            if packed.is_staged_live(i) {
                grid.stage(i as u32, rect);
            }
        }
        grid
    }

    /// The CSR build itself, covering packed slots only.
    fn build_csr(packed: &PackedRTree<ProcessId, D>) -> Self {
        let n = packed.len();
        if n == 0 {
            return Self::default();
        }
        let Some(world) = GridMapper::world_of(packed.entries().map(|(_, _, r)| r)) else {
            // No finite coordinate anywhere: every entry is a
            // world-spanning filter; scan them all per probe.
            return Self {
                overflow: packed.entries().map(|(slot, _, _)| slot as u32).collect(),
                ..Self::default()
            };
        };
        // ~1 entry per cell: n^(1/D) cells per axis, so total cells
        // track n for any dimensionality.
        let per_dim = ((n as f64).powf(1.0 / D as f64).ceil() as u32).clamp(1, 4096);
        let mut lo = [0.0; D];
        let mut inv_cell = [0.0; D];
        let mut dims = [1u32; D];
        for d in 0..D {
            lo[d] = world.lo(d);
            let extent = world.hi(d) - world.lo(d);
            if extent > 0.0 {
                dims[d] = per_dim;
                inv_cell[d] = f64::from(per_dim) / extent;
            }
        }
        let cells: usize = dims.iter().map(|&c| c as usize).product();
        let mut grid = Self {
            lo,
            inv_cell,
            dims,
            offsets: vec![0u32; cells + 1],
            ..Self::default()
        };
        let dims = grid.dims;
        // Two CSR passes: count cell populations, then fill. Spans
        // carry their true slot index — `packed.entries()` skips
        // tombstoned slots, so live slots are not necessarily dense.
        let mut spans: Vec<(u32, [u32; D], [u32; D])> = Vec::with_capacity(n);
        for (slot, _, rect) in packed.entries() {
            let (cell_lo, cell_hi) = grid.cell_range(rect);
            let span: usize = (0..D)
                .map(|d| (cell_hi[d] - cell_lo[d] + 1) as usize)
                .product();
            if span > MAX_CELL_SPAN {
                grid.overflow.push(slot as u32);
                continue;
            }
            spans.push((slot as u32, cell_lo, cell_hi));
            for_each_cell(dims, cell_lo, cell_hi, |c| grid.offsets[c + 1] += 1);
        }
        for i in 1..grid.offsets.len() {
            grid.offsets[i] += grid.offsets[i - 1];
        }
        let total = *grid.offsets.last().expect("offsets non-empty") as usize;
        assert!(total <= u32::MAX as usize, "stab grid ref count overflow");
        grid.refs.resize(total, 0);
        // Fill pass: `offsets[c]` serves as the running write cursor
        // for cell `c`; after the pass it has advanced to exactly the
        // next cell's start, so shifting by one slot restores start
        // offsets (standard CSR trick).
        for &(slot, cell_lo, cell_hi) in &spans {
            let (offsets, refs) = (&mut grid.offsets, &mut grid.refs);
            for_each_cell(dims, cell_lo, cell_hi, |c| {
                refs[offsets[c] as usize] = slot;
                offsets[c] += 1;
            });
        }
        for c in (1..grid.offsets.len()).rev() {
            grid.offsets[c] = grid.offsets[c - 1];
        }
        grid.offsets[0] = 0;
        grid
    }

    /// The clamped cell coordinate of `x` along dimension `d`;
    /// non-finite coordinates land on the rim (`-inf → 0`,
    /// `+inf/NaN → last`), matching probe-side clamping.
    fn cell_coord(&self, d: usize, x: f64) -> u32 {
        let last = self.dims[d] - 1;
        if x == f64::NEG_INFINITY {
            return 0;
        }
        if !x.is_finite() {
            return last;
        }
        let c = (x - self.lo[d]) * self.inv_cell[d];
        (c.clamp(0.0, f64::from(last))) as u32
    }

    /// The inclusive cell range covered by `rect` (clamped).
    fn cell_range(&self, rect: &Rect<D>) -> ([u32; D], [u32; D]) {
        let mut cell_lo = [0u32; D];
        let mut cell_hi = [0u32; D];
        for d in 0..D {
            cell_lo[d] = self.cell_coord(d, rect.lo(d));
            cell_hi[d] = self.cell_coord(d, rect.hi(d)).max(cell_lo[d]);
        }
        (cell_lo, cell_hi)
    }

    /// Applies `visit` to every patch list `rect` belongs to: the
    /// staged-overflow list when the grid has no geometry (never built)
    /// or the rectangle spans too many cells, the per-cell lists of its
    /// clamped cell range otherwise — the routing rule shared by
    /// [`StabGrid::stage`], [`StabGrid::unstage`], and
    /// [`StabGrid::restage_moved`], mirroring the CSR build's own.
    fn with_patch_lists(&mut self, rect: &Rect<D>, mut visit: impl FnMut(&mut Vec<u32>)) {
        if self.offsets.is_empty() {
            visit(&mut self.staged_overflow);
            return;
        }
        let (cell_lo, cell_hi) = self.cell_range(rect);
        let span: usize = (0..D)
            .map(|d| (cell_hi[d] - cell_lo[d] + 1) as usize)
            .product();
        if span > MAX_CELL_SPAN {
            visit(&mut self.staged_overflow);
            return;
        }
        let dims = self.dims;
        let cells = &mut self.staged_cells;
        for_each_cell(dims, cell_lo, cell_hi, |c| {
            visit(cells.entry(c).or_default())
        });
    }

    /// Patches staging-buffer index `idx` (rectangle `rect`) into the
    /// grid so stabs see it immediately — the incremental-maintenance
    /// counterpart of a CSR rebuild.
    fn stage(&mut self, idx: u32, rect: &Rect<D>) {
        self.with_patch_lists(rect, |list| list.push(idx));
    }

    /// Removes staging index `idx` (rectangle `rect`) from the patch
    /// layer — the inverse of [`StabGrid::stage`].
    fn unstage(&mut self, idx: u32, rect: &Rect<D>) {
        self.with_patch_lists(rect, |list| {
            if let Some(pos) = list.iter().position(|&x| x == idx) {
                list.swap_remove(pos);
            }
        });
    }

    /// Re-points patch references from staging index `from` to `to`
    /// after the staging buffer swap-removed `to` (moving the entry
    /// with rectangle `rect` down from `from`).
    fn restage_moved(&mut self, from: u32, to: u32, rect: &Rect<D>) {
        self.with_patch_lists(rect, |list| {
            for x in list.iter_mut() {
                if *x == from {
                    *x = to;
                }
            }
        });
    }

    /// `true` when packed slot `slot` carries the moved flag — its
    /// rectangle is indexed by the moved-slot lists, not the CSR
    /// arrays.
    #[inline]
    fn is_moved(&self, slot: usize) -> bool {
        !self.moved.is_empty() && self.moved[slot >> 6] & (1u64 << (slot & 63)) != 0
    }

    /// [`StabGrid::with_patch_lists`] over the moved-slot lists.
    fn with_moved_lists(&mut self, rect: &Rect<D>, mut visit: impl FnMut(&mut Vec<u32>)) {
        if self.offsets.is_empty() {
            visit(&mut self.moved_overflow);
            return;
        }
        let (cell_lo, cell_hi) = self.cell_range(rect);
        let span: usize = (0..D)
            .map(|d| (cell_hi[d] - cell_lo[d] + 1) as usize)
            .product();
        if span > MAX_CELL_SPAN {
            visit(&mut self.moved_overflow);
            return;
        }
        let dims = self.dims;
        let cells = &mut self.moved_cells;
        for_each_cell(dims, cell_lo, cell_hi, |c| {
            visit(cells.entry(c).or_default())
        });
    }

    /// Re-points packed slot `slot` from rectangle `old` to `new`
    /// after an in-place move. The first move flags the slot — its
    /// stale CSR refs stay physically in place but the flag suppresses
    /// them — and lists it under its new rectangle; repeat moves
    /// rewrite the moved lists only. `packed_len` sizes the lazy
    /// bitmap (stable between rebuilds: compaction rebuilds the grid
    /// wholesale, clearing all moved state).
    fn move_slot(&mut self, slot: u32, old: &Rect<D>, new: &Rect<D>, packed_len: usize) {
        if self.offsets.is_empty() {
            // No grid geometry: the slot sits in a linearly scanned
            // tier either way (CSR overflow unflagged, moved overflow
            // flagged) and both apply the exact rectangle test against
            // the packed tree's current rect — nothing to patch.
            return;
        }
        // Small moves usually keep the rectangle inside the exact same
        // cell range, in which case the slot's existing refs — CSR refs
        // for a never-moved slot (whose `old` *is* its build-time
        // rectangle), moved lists otherwise — already route every probe
        // correctly and the exact test reads the updated rect. Skipping
        // the rewrite makes the steady jitter of a mobile subscription
        // nearly free.
        let (old_lo, old_hi) = self.cell_range(old);
        let (new_lo, new_hi) = self.cell_range(new);
        let old_span: usize = (0..D)
            .map(|d| (old_hi[d] - old_lo[d] + 1) as usize)
            .product();
        let new_span: usize = (0..D)
            .map(|d| (new_hi[d] - new_lo[d] + 1) as usize)
            .product();
        let old_over = old_span > MAX_CELL_SPAN;
        let new_over = new_span > MAX_CELL_SPAN;
        if old_over == new_over && (old_over || (old_lo == new_lo && old_hi == new_hi)) {
            return;
        }
        if self.is_moved(slot as usize) {
            if !old_over && !new_over {
                // Repeat move staying on the cell grid: the moved
                // lists hold the slot exactly over its old range, so
                // only the symmetric difference needs touching — a
                // thin strip when the shift is a fraction of a cell.
                let dims = self.dims;
                let cells = &mut self.moved_cells;
                for_each_cell_excluding(dims, old_lo, old_hi, new_lo, new_hi, |c| {
                    if let Some(list) = cells.get_mut(&c) {
                        if let Some(pos) = list.iter().position(|&x| x == slot) {
                            list.swap_remove(pos);
                        }
                    }
                });
                for_each_cell_excluding(dims, new_lo, new_hi, old_lo, old_hi, |c| {
                    cells.entry(c).or_default().push(slot)
                });
                return;
            }
            // Overflow transition: wholesale re-listing across tiers.
            self.with_moved_lists(old, |list| {
                if let Some(pos) = list.iter().position(|&x| x == slot) {
                    list.swap_remove(pos);
                }
            });
        } else {
            if self.moved.is_empty() {
                self.moved = vec![0u64; packed_len.div_ceil(64)];
            }
            self.moved[slot as usize >> 6] |= 1u64 << (slot as usize & 63);
            self.moved_count += 1;
        }
        self.with_moved_lists(new, |list| list.push(slot));
    }

    /// Emits the id of every live entry containing `point`: overflow
    /// scan, one exact-tested cell list, the delta tier (staged
    /// overflow plus the probe cell's patch list), and the moved-slot
    /// tier (slots updated in place since the CSR build); tombstoned
    /// slots are filtered at emission time.
    #[inline]
    fn stab(
        &self,
        packed: &PackedRTree<ProcessId, D>,
        point: &Point<D>,
        mut emit: impl FnMut(ProcessId),
    ) {
        let keys = packed.keys();
        let rects = packed.rects();
        let check_live = packed.tombstone_count() > 0;
        let check_moved = self.moved_count > 0;
        for &slot in &self.overflow {
            if (check_moved && self.is_moved(slot as usize))
                || (check_live && !packed.is_live(slot as usize))
            {
                continue;
            }
            if rects[slot as usize].contains_point_branchless(point) {
                emit(keys[slot as usize]);
            }
        }
        if check_moved {
            // Moved-slot overflow tier: flagged slots whose current
            // rectangle spans too many cells (or moved before the grid
            // had geometry). Exact test plus liveness, like overflow.
            for &slot in &self.moved_overflow {
                if rects[slot as usize].contains_point_branchless(point)
                    && (!check_live || packed.is_live(slot as usize))
                {
                    emit(keys[slot as usize]);
                }
            }
        }
        let staged_keys = packed.staged_keys();
        let staged_rects = packed.staged_rects();
        for &i in &self.staged_overflow {
            if staged_rects[i as usize].contains_point_branchless(point) {
                emit(staged_keys[i as usize]);
            }
        }
        if self.offsets.is_empty() {
            return;
        }
        let mut idx = 0usize;
        for d in 0..D {
            idx = idx * self.dims[d] as usize + self.cell_coord(d, point.coord(d)) as usize;
        }
        if !self.staged_cells.is_empty() {
            if let Some(list) = self.staged_cells.get(&idx) {
                for &i in list {
                    if staged_rects[i as usize].contains_point_branchless(point) {
                        emit(staged_keys[i as usize]);
                    }
                }
            }
        }
        if !self.moved_cells.is_empty() {
            if let Some(list) = self.moved_cells.get(&idx) {
                for &slot in list {
                    if rects[slot as usize].contains_point_branchless(point)
                        && (!check_live || packed.is_live(slot as usize))
                    {
                        emit(keys[slot as usize]);
                    }
                }
            }
        }
        let lo = self.offsets[idx] as usize;
        let hi = self.offsets[idx + 1] as usize;
        // Chunked bitmask scan (the packed tree's trick): with cell
        // hit rates around 50%, a per-candidate `if` is a mispredict
        // machine — building the mask branchlessly and popping set
        // bits keeps the pipeline full. The tombstone and moved-slot
        // filters join the mask only when tombstones / moves exist at
        // all, so the common clean path pays nothing for them.
        for chunk in self.refs[lo..hi].chunks(32) {
            let mut mask = 0u32;
            if check_moved {
                for (i, &slot) in chunk.iter().enumerate() {
                    let hit = rects[slot as usize].contains_point_branchless(point)
                        & !self.is_moved(slot as usize)
                        & (!check_live || packed.is_live(slot as usize));
                    mask |= u32::from(hit) << i;
                }
            } else if check_live {
                for (i, &slot) in chunk.iter().enumerate() {
                    let hit = rects[slot as usize].contains_point_branchless(point)
                        & packed.is_live(slot as usize);
                    mask |= u32::from(hit) << i;
                }
            } else {
                for (i, &slot) in chunk.iter().enumerate() {
                    mask |= u32::from(rects[slot as usize].contains_point_branchless(point)) << i;
                }
            }
            while mask != 0 {
                emit(keys[chunk[mask.trailing_zeros() as usize] as usize]);
                mask &= mask - 1;
            }
        }
    }
}

/// Visits every row-major cell index in the inclusive `D`-dimensional
/// range (odometer over the minor-most dimension last), for the CSR
/// build passes of [`StabGrid`].
/// [`for_each_cell`] restricted to cells of `[cell_lo, cell_hi]` that
/// fall *outside* `[skip_lo, skip_hi]` — the two one-sided halves of a
/// symmetric-difference traversal for incremental moved-slot rewrites.
fn for_each_cell_excluding<const D: usize>(
    dims: [u32; D],
    cell_lo: [u32; D],
    cell_hi: [u32; D],
    skip_lo: [u32; D],
    skip_hi: [u32; D],
    mut visit: impl FnMut(usize),
) {
    let mut cur = cell_lo;
    loop {
        if (0..D).any(|d| cur[d] < skip_lo[d] || cur[d] > skip_hi[d]) {
            let mut idx = 0usize;
            for d in 0..D {
                idx = idx * dims[d] as usize + cur[d] as usize;
            }
            visit(idx);
        }
        let mut d = D;
        let mut done = true;
        while d > 0 {
            d -= 1;
            if cur[d] < cell_hi[d] {
                cur[d] += 1;
                done = false;
                break;
            }
            cur[d] = cell_lo[d];
        }
        if done {
            break;
        }
    }
}

fn for_each_cell<const D: usize>(
    dims: [u32; D],
    cell_lo: [u32; D],
    cell_hi: [u32; D],
    mut visit: impl FnMut(usize),
) {
    let mut cur = cell_lo;
    loop {
        let mut idx = 0usize;
        for d in 0..D {
            idx = idx * dims[d] as usize + cur[d] as usize;
        }
        visit(idx);
        let mut d = D;
        let mut done = true;
        while d > 0 {
            d -= 1;
            if cur[d] < cell_hi[d] {
                cur[d] += 1;
                done = false;
                break;
            }
            cur[d] = cell_lo[d];
        }
        if done {
            break;
        }
    }
}

/// What one compaction hands back: the merged packed tree, the stab
/// grid rebuilt over it, and how long the merge took (reported for
/// the pause accounting).
#[derive(Debug)]
struct MergedShard<const D: usize> {
    tree: PackedRTree<ProcessId, D>,
    grid: StabGrid<D>,
    merge_ns: u64,
}

impl<const D: usize> MergedShard<D> {
    /// The oracle's one compaction routine: folds a frozen shard's
    /// delta into fresh packed levels and builds the stab grid over
    /// them. Touches nothing but its input, so it runs on a worker
    /// ([`CompactionMode::Concurrent`]) or inline
    /// ([`CompactionMode::Synchronous`]) alike.
    fn merge(frozen: FrozenShard<ProcessId, D>) -> Self {
        let t0 = Instant::now();
        let tree = frozen.merge();
        let grid = StabGrid::build(&tree);
        Self {
            tree,
            grid,
            merge_ns: t0.elapsed().as_nanos() as u64,
        }
    }
}

/// One shard: the delta-bearing packed tree holding its slice of the
/// subscription set (live entries = packed slots − tombstones +
/// staged), the incrementally patched stab grid answering every
/// probe, and — while a concurrent compaction is in flight — the
/// background job merging the shard's frozen snapshot. The packed
/// tree *is* the entry store — there is no separate entry list to
/// clone on rebuild.
#[derive(Debug)]
struct Shard<const D: usize> {
    packed: PackedRTree<ProcessId, D>,
    grid: StabGrid<D>,
    job: Option<parallel::Job<MergedShard<D>>>,
    /// Last known position per mover id — the mobility fast path's
    /// memo: a packed slot, or a staged-buffer index tagged with
    /// [`STAGED_HINT`]. A hint is only ever *suggested*:
    /// [`PackedRTree::update_slot`] / [`PackedRTree::update_staged`]
    /// re-verify `(id, rect)` at the position before acting, so a
    /// stale hint (slots reshuffled by a compaction or redistribute,
    /// staged buffer swap-removed) degrades to a regular lookup, never
    /// a wrong move. Cleared whenever the shard is rebuilt wholesale,
    /// purely to skip doomed probes.
    hints: HashMap<ProcessId, u32, FastState>,
}

impl<const D: usize> Shard<D> {
    fn new(delta_fraction: f64) -> Self {
        let mut packed = PackedRTree::bulk_load(Vec::new());
        packed.set_delta_fraction(delta_fraction);
        Self {
            packed,
            grid: StabGrid::default(),
            job: None,
            hints: HashMap::default(),
        }
    }

    /// Completes this shard's compaction: swaps the merged tree and its
    /// grid in, re-stages the surviving second-generation delta entries
    /// (re-indexed from zero by the install) into the fresh grid's
    /// patch layer, and reports the work into `flush`. Everything here
    /// is `O(mutations since the freeze)` — the publish-path cost of a
    /// compaction beyond the merge itself.
    fn install(&mut self, merged: MergedShard<D>, flush: &mut OracleFlush) {
        let stats = self.packed.install(merged.tree);
        self.grid = merged.grid;
        self.hints.clear();
        for (i, rect) in self.packed.staged_rects().iter().enumerate() {
            self.grid.stage(i as u32, rect);
        }
        flush.compact_ns += merged.merge_ns;
        flush.rebuilt_shards += 1;
        flush.compacted_shards += 1;
        flush.staged_absorbed += stats.staged_absorbed;
        flush.tombstones_reclaimed += stats.tombstones_reclaimed;
    }
}

/// When [`ShardedOracle::flush`] installs the compactions it starts.
/// Both modes run the same routine, so from the same frozen input they
/// merge the same tree; they differ in where the merge runs and in
/// what the flush that starts it pays.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CompactionMode {
    /// Merge inline and install in the same `flush` — deterministic
    /// and thread-free. Every over-threshold shard stalls the flush for
    /// its whole merge.
    #[default]
    Synchronous,
    /// Two-phase: `flush` freezes over-threshold shards and hands the
    /// merges to background [`drtree_rtree::parallel::Job`]s, then
    /// swaps finished trees in on a later flush (or
    /// [`ShardedOracle::finish_compactions`]). The publish path pays
    /// only the freeze and the `O(mutations-during-merge)` install
    /// fix-up — never the merge itself.
    Concurrent,
}

/// What one [`ShardedOracle::flush`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleFlush {
    /// Shards whose packed tree was replaced (installed compactions
    /// and redistributed shards).
    pub rebuilt_shards: usize,
    /// Shards whose delta layer was folded into the packed levels
    /// (installed compactions, and redistributed shards that carried a
    /// delta).
    pub compacted_shards: usize,
    /// Concurrent compactions kicked off by this flush (frozen
    /// snapshots handed to background workers).
    pub begun_compactions: usize,
    /// Staged entries absorbed into packed levels across all shards.
    pub staged_absorbed: usize,
    /// Tombstoned slots reclaimed across all shards.
    pub tombstones_reclaimed: usize,
    /// Whether entries were redistributed across all shards (first
    /// map, world growth, or imbalance).
    pub rebalanced: bool,
    /// Moves absorbed by their owning shard as delta patches since the
    /// previous flush — in-place packed-slot updates and staged
    /// rewrites, no shard crossing ([`ShardedOracle::move_entry`]).
    pub moved_in_place: usize,
    /// Moves whose new rectangle crossed a Hilbert shard boundary
    /// since the previous flush: the entry was removed from its old
    /// shard and re-staged (re-keyed) into the gainer's delta layer.
    pub rekeyed: usize,
    /// Leased entries evicted by [`ShardedOracle::expire_leases`]
    /// since the previous flush.
    pub leases_expired: usize,
    /// Publish-path stall: nanoseconds this flush spent freezing,
    /// swapping and fixing up — everything *except* inline merge work.
    pub swap_ns: u64,
    /// Nanoseconds spent merging delta layers into fresh packed
    /// levels, summed over the merges this flush installed, wherever
    /// they ran (inline in [`CompactionMode::Synchronous`]; on
    /// background workers in [`CompactionMode::Concurrent`]).
    pub compact_ns: u64,
    /// Wall-clock time of the flush call itself — the whole
    /// publish-path pause, inline merges included.
    pub elapsed: Duration,
}

/// Per-probe match sets of one batched publish, in one flat arena.
///
/// `matches(i)` is the sorted, deduplicated set of subscribers whose
/// filter contains probe `i`. The arena is reused across calls to
/// [`ShardedOracle::match_batch_into`]; holding one per pipeline stage
/// keeps batched matching allocation-free after warm-up.
#[derive(Debug, Clone, Default)]
pub struct BatchMatches {
    /// Probe `i`'s matches live at
    /// `hits[spans[i].0..spans[i].0 + spans[i].1]`. (The arena is laid
    /// out in curve order, not probe order, so slices are addressed
    /// explicitly rather than by prefix offsets; one tuple per probe
    /// keeps the scattered merge write to a single location.)
    spans: Vec<(u32, u32)>,
    hits: Vec<ProcessId>,
}

impl BatchMatches {
    /// An empty arena (zero probes).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of probes answered by the last fill.
    pub fn probes(&self) -> usize {
        self.spans.len()
    }

    /// The sorted, deduplicated match set of probe `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.probes()`.
    pub fn matches(&self, i: usize) -> &[ProcessId] {
        let (start, len) = self.spans[i];
        &self.hits[start as usize..(start + len) as usize]
    }

    /// Total hits across all probes (sum of span lengths — the arena
    /// itself may hold dead gaps and staging copies).
    pub fn total_hits(&self) -> usize {
        self.spans.iter().map(|&(_, len)| len as usize).sum()
    }
}

/// A subscription oracle sharded across `K` packed R-trees for
/// parallel and batched publishes.
///
/// # Sharding regime
///
/// * **Assignment** — a subscription lives in the shard owning the
///   Hilbert key of its rectangle's center. Assignment is a pure
///   function of the rectangle and the current [`ShardMap`], so
///   removal needs no id→shard bookkeeping.
/// * **Incremental maintenance** — `insert` stages the entry into the
///   owning shard's delta layer (and patches the shard's stab grid
///   cell-by-cell); `remove` unstages or tombstones in place. No shard
///   is marked dirty by small deltas: the next
///   [`flush`](ShardedOracle::flush) (or query, which flushes
///   implicitly) compacts *only* shards whose delta exceeds the
///   configured fraction
///   ([`set_delta_fraction`](ShardedOracle::set_delta_fraction)).
/// * **Rebalancing** — when an entry lands outside the mapped world,
///   or one shard holds more than `4× ideal + 64` entries, the next
///   flush recomputes the world, re-splits the key population at its
///   count quantiles, and redistributes (rebuilding every shard once,
///   abandoning in-flight merges). Entries sharing one curve key stay
///   in one shard under any split, so an imbalance the redistribute
///   could not repair is retried only once the heaviest shard has
///   doubled.
/// * **Correctness under interleaving** — any assignment whatsoever
///   yields exact matching (every shard is probed), so the shard map
///   only affects performance; property tests pin the hit-sets to the
///   linear-scan `Reference` model under random interleaved
///   subscribe/unsubscribe/move/publish sequences.
///
/// # Single vs batched probes
///
/// Both paths answer a probe with the same kernel: each shard whose
/// MBR contains the point stabs its stab grid (`StabGrid` in the
/// source) — one cell lookup and a few exact rectangle tests instead
/// of a root-to-leaf descent — kept exact between compactions by its
/// patch tiers. [`match_point_into`](ShardedOracle::match_point_into)
/// runs it inline for one probe.
/// [`match_batch_into`](ShardedOracle::match_batch_into) adds what
/// only a batch can amortize: a space-filling-curve sort that keeps
/// every structure cache-resident across adjacent probes, a fan across
/// shards ([`drtree_rtree::parallel::fan`]) when threads are
/// available, and result assembly in one reused arena.
///
/// # Example
///
/// ```
/// use drtree_core::ProcessId;
/// use drtree_pubsub::ShardedOracle;
/// use drtree_spatial::{Point, Rect};
///
/// let mut oracle: ShardedOracle<2> = ShardedOracle::new(4);
/// for i in 0..100u64 {
///     let x = (i % 10) as f64 * 10.0;
///     let y = (i / 10) as f64 * 10.0;
///     oracle.insert(ProcessId::from_raw(i), Rect::new([x, y], [x + 9.0, y + 9.0]));
/// }
/// let flush = oracle.flush();
/// assert!(flush.rebuilt_shards > 0);
///
/// let mut hits = Vec::new();
/// oracle.match_point_into(&Point::new([5.0, 5.0]), &mut hits);
/// assert_eq!(hits, vec![ProcessId::from_raw(0)]);
///
/// let mut batch = drtree_pubsub::BatchMatches::new();
/// oracle.match_batch_into(&[Point::new([5.0, 5.0]), Point::new([95.0, 95.0])], &mut batch);
/// assert_eq!(batch.matches(0), &[ProcessId::from_raw(0)]);
/// assert_eq!(batch.matches(1), &[ProcessId::from_raw(99)]);
/// ```
#[derive(Debug)]
pub struct ShardedOracle<const D: usize> {
    shards: Vec<Shard<D>>,
    map: Option<ShardMap<D>>,
    len: usize,
    threads: usize,
    /// An insert landed outside the mapped world; rebalance next flush.
    stale_world: bool,
    /// The derived read-side structures (per-shard stab grids, the
    /// id-count dedup table) have not been built yet — the state a
    /// freshly restored oracle wakes up in. The first flush (every
    /// query flushes) rebuilds them, so restore itself stays
    /// `O(header)` per shard.
    derived_stale: bool,
    /// Compaction trigger forwarded to every shard's packed tree.
    delta_fraction: f64,
    /// Whether over-threshold compactions run inline or on workers.
    mode: CompactionMode,
    /// The heaviest shard's length right after the last redistribute:
    /// an imbalance is retried only past twice this (`needs_rebalance`
    /// says why).
    heaviest_at_rebalance: usize,
    rebuilds: u64,
    rebalances: u64,
    compactions: u64,
    staged_absorbed: u64,
    moves_in_place: u64,
    rekeys: u64,
    leases_expired: u64,
    /// Move / lease work since the last flush, drained into the next
    /// [`OracleFlush`] (early-return path included) so every flush
    /// reports the motion it absorbed.
    pending_moved_in_place: usize,
    pending_rekeyed: usize,
    pending_leases_expired: usize,
    /// TTL leases by id: `(rect, deadline)` per leased entry (an id
    /// almost always holds one). [`ShardedOracle::remove`] drops an
    /// entry's record and [`ShardedOracle::move_entry`] re-keys it, so
    /// every record covers a live entry; redistribution and compaction
    /// never touch the table. In memory only: snapshots carry no
    /// leases.
    leases: HashMap<ProcessId, Vec<(Rect<D>, u64)>, FastState>,
    // Reused scratch of the batched path: per-shard hit streams, the
    // curve-sorted probe permutation, and the per-shard merge cursors.
    batch_bufs: Vec<ShardBatchBuf>,
    /// Live entry count per id, and how many ids have more than one
    /// entry (subscription sets). While zero, per-probe deduplication
    /// is provably a no-op and the batched merge skips it.
    id_counts: HashMap<u64, u32>,
    duplicate_ids: usize,
    sorted_idx: Vec<u32>,
    key_scratch: Vec<u64>,
    sorted_points: Vec<Point<D>>,
    cursors: Vec<u32>,
    /// Arena offset of each shard's bulk-copied hit stream.
    stream_bases: Vec<u32>,
}

impl<const D: usize> ShardedOracle<D> {
    /// An empty oracle with `shards` shards (clamped to ≥ 1) and a
    /// worker budget of [`parallel::available_threads`].
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        let delta_fraction = drtree_rtree::DEFAULT_DELTA_FRACTION;
        Self {
            shards: (0..shards).map(|_| Shard::new(delta_fraction)).collect(),
            map: None,
            len: 0,
            threads: parallel::available_threads(),
            stale_world: false,
            derived_stale: false,
            delta_fraction,
            mode: CompactionMode::default(),
            heaviest_at_rebalance: 0,
            rebuilds: 0,
            rebalances: 0,
            compactions: 0,
            staged_absorbed: 0,
            moves_in_place: 0,
            rekeys: 0,
            leases_expired: 0,
            pending_moved_in_place: 0,
            pending_rekeyed: 0,
            pending_leases_expired: 0,
            leases: HashMap::default(),
            batch_bufs: vec![ShardBatchBuf::default(); shards],
            id_counts: HashMap::new(),
            duplicate_ids: 0,
            sorted_idx: Vec::new(),
            key_scratch: Vec::new(),
            sorted_points: Vec::new(),
            cursors: Vec::new(),
            stream_bases: Vec::new(),
        }
    }

    /// Caps the worker budget (clamped to ≥ 1): how many scoped
    /// threads a batched fan may use, and how many background merges
    /// [`CompactionMode::Concurrent`] keeps in flight at once.
    /// Defaults to the hardware parallelism.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Sets the compaction trigger of every shard: a shard's delta
    /// layer is folded back into its packed levels by the next flush
    /// once it exceeds `fraction ×` the shard's packed slot count.
    /// `0.0` compacts any delta on every flush; large values defer
    /// compaction indefinitely. Defaults to
    /// [`drtree_rtree::DEFAULT_DELTA_FRACTION`].
    pub fn set_delta_fraction(&mut self, fraction: f64) {
        self.delta_fraction = fraction.max(0.0);
        for shard in &mut self.shards {
            shard.packed.set_delta_fraction(self.delta_fraction);
        }
    }

    /// The configured compaction trigger fraction.
    pub fn delta_fraction(&self) -> f64 {
        self.delta_fraction
    }

    /// Chooses whether over-threshold compactions run inline inside
    /// [`ShardedOracle::flush`] ([`CompactionMode::Synchronous`], the
    /// default — deterministic) or on background workers with a
    /// pause-free two-phase swap ([`CompactionMode::Concurrent`]).
    /// Switching modes mid-run is safe: the next synchronous flush
    /// first installs whatever the workers finished.
    pub fn set_compaction_mode(&mut self, mode: CompactionMode) {
        self.mode = mode;
    }

    /// Shards with a background merge currently in flight.
    pub fn compacting_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.job.is_some()).count()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of live `(id, rect)` entries across all shards.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Live entries currently held by shard `s` (staged ones included,
    /// tombstoned ones not).
    ///
    /// # Panics
    ///
    /// Panics if `s >= self.shard_count()`.
    pub fn shard_len(&self, s: usize) -> usize {
        self.shards[s].packed.len()
    }

    /// Un-compacted delta entries (staged + tombstones) across all
    /// shards — what the next over-threshold flush would absorb.
    pub fn delta_len(&self) -> usize {
        self.shards.iter().map(|s| s.packed.delta_len()).sum()
    }

    /// A point-in-time [`OracleSnapshot`] of the live subscription
    /// set, built from every shard's epoch-free
    /// [`PackedRTree::snapshot`] — `Arc`-shared packed cores plus
    /// copied delta layers, `O(total delta)`, no flush, no pause.
    ///
    /// The snapshot is `Send + Sync` and immutable: hand it to reader
    /// threads behind an `Arc` and they answer exact containment
    /// queries (as of snapshot time) while this oracle keeps absorbing
    /// mutations — the lock-free read side of the concurrent ingress
    /// path.
    pub fn snapshot(&self) -> OracleSnapshot<D> {
        OracleSnapshot {
            shards: self.shards.iter().map(|s| s.packed.snapshot()).collect(),
            len: self.len,
        }
    }

    /// Serializes the whole oracle — every shard's packed core, delta
    /// layer and tombstones, plus the [`ShardMap`] boundaries — into
    /// one flat, versioned, checksummed buffer. See
    /// [`ShardedOracle::restore_bytes`] for the wire format and the
    /// restore path.
    ///
    /// Safe at any point in the mutation stream: mid-churn deltas and
    /// tombstones serialize with their shards, and mid-compaction
    /// shards serialize their *live logical view* (the frozen core
    /// plus surviving staged entries).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let k = self.shards.len();
        let shard_bufs: Vec<Vec<u8>> = self
            .shards
            .iter()
            .map(|s| s.packed.save_with(|id| id.raw()))
            .collect();
        let mut out = vec![0u8; ORACLE_HEADER_LEN];
        // Meta section: world + boundaries (when a map exists), then
        // the per-shard buffer lengths.
        if let Some(map) = &self.map {
            let world = map.world();
            for d in 0..D {
                out.extend_from_slice(&world.lo(d).to_bits().to_le_bytes());
            }
            for d in 0..D {
                out.extend_from_slice(&world.hi(d).to_bits().to_le_bytes());
            }
            for &b in map.boundaries() {
                out.extend_from_slice(&(b as u64).to_le_bytes());
                out.extend_from_slice(&((b >> 64) as u64).to_le_bytes());
            }
        }
        for buf in &shard_bufs {
            out.extend_from_slice(&(buf.len() as u64).to_le_bytes());
        }
        let meta_checksum = bytes::checksum(&out[ORACLE_HEADER_LEN..]);
        bytes::pad_to_section(&mut out);
        // Shard buffers back to back; each is already a 64-byte
        // multiple, so every one starts section-aligned — the
        // precondition of the zero-copy shared-buffer load.
        for buf in &shard_bufs {
            out.extend_from_slice(buf);
            bytes::pad_to_section(&mut out);
        }
        let flags = if self.map.is_some() {
            ORACLE_FLAG_HAS_MAP
        } else {
            0
        };
        out[0..4].copy_from_slice(&ORACLE_MAGIC.to_le_bytes());
        out[4..6].copy_from_slice(&ORACLE_VERSION.to_le_bytes());
        out[6..8].copy_from_slice(&flags.to_le_bytes());
        out[8..12].copy_from_slice(&(D as u32).to_le_bytes());
        out[12..16].copy_from_slice(&(k as u32).to_le_bytes());
        out[16..24].copy_from_slice(&(self.len as u64).to_le_bytes());
        out[24..32].copy_from_slice(&self.delta_fraction.to_bits().to_le_bytes());
        out[32..40].copy_from_slice(&meta_checksum.to_le_bytes());
        let total = out.len() as u64;
        out[40..48].copy_from_slice(&total.to_le_bytes());
        out
    }

    /// Restores an oracle from a [`ShardedOracle::snapshot_bytes`]
    /// buffer — the cold-start path.
    ///
    /// The buffer is adopted zero-copy (one allocation check, no
    /// memcpy) and every shard's packed core serves queries directly
    /// off the shared buffer; per-shard work is header validation plus
    /// an `O(meta)` checksum, so a multi-hundred-thousand-entry oracle
    /// restores in ~a millisecond. Wire format, all little-endian:
    ///
    /// * 64-byte header: magic `"DRTO"`, version, flags, dims, shard
    ///   count `K`, live length, delta fraction, meta checksum, total
    ///   length;
    /// * meta section: world rectangle (`2·D` f64) and `K − 1`
    ///   boundary keys (two `u64` words each) when a map exists, then
    ///   `K` per-shard buffer lengths (`u64`);
    /// * `K` [`drtree_rtree::PackedRTree::save_with`] tree buffers at
    ///   consecutive 64-byte-aligned offsets, all backed by the one
    ///   adopted allocation.
    ///
    /// The stab grids and the id-count dedup table are *not*
    /// serialized: the first [`ShardedOracle::flush`] (explicit, or
    /// implicit in the first query) rebuilds both from the restored
    /// shards, keeping restore itself off the `O(entries)` path.
    ///
    /// # Errors
    ///
    /// Corrupted, truncated, wrong-version, wrong-dimension or
    /// checksum-failing buffers are rejected with the matching
    /// [`SnapshotError`]; no input panics.
    pub fn restore_bytes(raw: Vec<u8>) -> Result<Self, SnapshotError> {
        let buf = AlignedBytes::adopt(raw);
        let data = buf.as_slice();
        if data.len() < ORACLE_HEADER_LEN {
            return Err(SnapshotError::Truncated {
                needed: ORACLE_HEADER_LEN,
                have: data.len(),
            });
        }
        let magic = bytes::read_u32(data, 0).expect("header bounds checked");
        if magic != ORACLE_MAGIC {
            return Err(SnapshotError::BadMagic { found: magic });
        }
        let version = bytes::read_u16(data, 4).expect("header bounds checked");
        if version != ORACLE_VERSION {
            return Err(SnapshotError::WrongVersion {
                found: version,
                supported: ORACLE_VERSION,
            });
        }
        let flags = bytes::read_u16(data, 6).expect("header bounds checked");
        if flags & !ORACLE_FLAG_HAS_MAP != 0 {
            return Err(SnapshotError::Corrupt("unknown oracle flags"));
        }
        let has_map = flags & ORACLE_FLAG_HAS_MAP != 0;
        let dims = bytes::read_u32(data, 8).expect("header bounds checked");
        if dims as usize != D {
            return Err(SnapshotError::WrongDims {
                found: dims,
                expected: D as u32,
            });
        }
        let k = bytes::read_u32(data, 12).expect("header bounds checked") as usize;
        if k == 0 {
            return Err(SnapshotError::Corrupt("oracle has zero shards"));
        }
        // The meta section alone needs 8 bytes per shard, so this
        // bound rejects absurd counts before any multiplication or
        // allocation scales with them.
        if k > data.len() / 8 {
            return Err(SnapshotError::Corrupt("shard count exceeds buffer"));
        }
        let len = usize::try_from(bytes::read_u64(data, 16).expect("header bounds checked"))
            .map_err(|_| SnapshotError::Corrupt("oracle length exceeds address space"))?;
        let delta_fraction =
            f64::from_bits(bytes::read_u64(data, 24).expect("header bounds checked"));
        if delta_fraction.is_nan() || delta_fraction < 0.0 {
            return Err(SnapshotError::Corrupt("invalid delta fraction"));
        }
        let meta_checksum = bytes::read_u64(data, 32).expect("header bounds checked");
        let payload_len =
            usize::try_from(bytes::read_u64(data, 40).expect("header bounds checked"))
                .map_err(|_| SnapshotError::Corrupt("payload length exceeds address space"))?;
        if payload_len > data.len() {
            return Err(SnapshotError::Truncated {
                needed: payload_len,
                have: data.len(),
            });
        }
        if payload_len != data.len() {
            return Err(SnapshotError::Corrupt("trailing bytes after the snapshot"));
        }
        let map_meta = if has_map { 16 * D + (k - 1) * 16 } else { 0 };
        let meta_end = ORACLE_HEADER_LEN + map_meta + k * 8;
        if meta_end > data.len() {
            return Err(SnapshotError::Truncated {
                needed: meta_end,
                have: data.len(),
            });
        }
        if bytes::checksum(&data[ORACLE_HEADER_LEN..meta_end]) != meta_checksum {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let map = if has_map {
            let mut lo = [0.0; D];
            let mut hi = [0.0; D];
            for d in 0..D {
                lo[d] =
                    bytes::read_f64(data, ORACLE_HEADER_LEN + 8 * d).expect("meta bounds checked");
                hi[d] = bytes::read_f64(data, ORACLE_HEADER_LEN + 8 * (D + d))
                    .expect("meta bounds checked");
            }
            let world = Rect::try_new(lo, hi)
                .map_err(|_| SnapshotError::Corrupt("invalid world rectangle"))?;
            let mut boundaries = Vec::with_capacity(k - 1);
            for i in 0..k - 1 {
                let at = ORACLE_HEADER_LEN + 16 * D + 16 * i;
                let lo_word = bytes::read_u64(data, at).expect("meta bounds checked");
                let hi_word = bytes::read_u64(data, at + 8).expect("meta bounds checked");
                boundaries.push((u128::from(hi_word) << 64) | u128::from(lo_word));
            }
            if !boundaries.windows(2).all(|w| w[0] <= w[1]) {
                return Err(SnapshotError::Corrupt("shard boundaries not ascending"));
            }
            Some(ShardMap::from_boundaries(&world, boundaries))
        } else {
            None
        };
        let lens_at = ORACLE_HEADER_LEN + map_meta;
        let from_raw: Arc<dyn Fn(u64) -> ProcessId + Send + Sync> = Arc::new(ProcessId::from_raw);
        let mut shards = Vec::with_capacity(k);
        let mut off = bytes::align_up(meta_end);
        for i in 0..k {
            let shard_len =
                usize::try_from(bytes::read_u64(data, lens_at + 8 * i).expect("meta bounds"))
                    .map_err(|_| SnapshotError::Corrupt("shard length exceeds address space"))?;
            let mut packed = PackedRTree::load_shared(&buf, off, shard_len, Arc::clone(&from_raw))?;
            packed.set_delta_fraction(delta_fraction);
            shards.push(Shard {
                packed,
                grid: StabGrid::default(),
                job: None,
                hints: HashMap::default(),
            });
            off = bytes::align_up(
                off.checked_add(shard_len)
                    .ok_or(SnapshotError::Corrupt("shard range overflows"))?,
            );
        }
        if off != data.len() {
            return Err(SnapshotError::Corrupt(
                "trailing bytes after the last shard",
            ));
        }
        let computed: usize = shards.iter().map(|s| s.packed.len()).sum();
        if computed != len {
            return Err(SnapshotError::Corrupt(
                "oracle length disagrees with shards",
            ));
        }
        Ok(Self {
            shards,
            map,
            len,
            derived_stale: true,
            delta_fraction,
            ..Self::new(k)
        })
    }

    /// [`ShardedOracle::restore_bytes`] with a staleness gate for the
    /// federated warm-restart path: the snapshot's embedded
    /// [`ShardMap`] (world rectangle and Hilbert range boundaries)
    /// must agree *exactly* with `expected` — the assignment the
    /// restoring owner currently prescribes (for a federated broker:
    /// the oracle map its fabric recorded when the checkpoint was cut,
    /// which the fabric re-derives whenever its own broker boundaries
    /// move). A snapshot cut under a different assignment would
    /// silently file entries into the wrong shards — or, one level up,
    /// claim curve ranges that now belong to another broker — so it is
    /// rejected with [`SnapshotError::StaleBoundaries`] and the caller
    /// must fall back to a cold rebuild from its peers.
    ///
    /// A snapshot carrying no map at all (never flushed before the
    /// checkpoint) cannot prove its assignment and is likewise
    /// rejected.
    ///
    /// # Errors
    ///
    /// Everything [`ShardedOracle::restore_bytes`] rejects, plus
    /// [`SnapshotError::StaleBoundaries`] when the embedded map
    /// diverges from `expected` in world bits, shard count, or any
    /// boundary key.
    pub fn restore_bytes_checked(
        raw: Vec<u8>,
        expected: &ShardMap<D>,
    ) -> Result<Self, SnapshotError> {
        let oracle = Self::restore_bytes(raw)?;
        let stale = |found: u32| SnapshotError::StaleBoundaries {
            found,
            expected: expected.shards() as u32,
        };
        let Some(map) = &oracle.map else {
            return Err(stale(0));
        };
        let same_world = (0..D).all(|d| {
            map.world().lo(d).to_bits() == expected.world().lo(d).to_bits()
                && map.world().hi(d).to_bits() == expected.world().hi(d).to_bits()
        });
        if !same_world || map.boundaries() != expected.boundaries() {
            return Err(stale(map.shards() as u32));
        }
        Ok(oracle)
    }

    /// The live Hilbert shard assignment, if one has been established
    /// (the first flush builds it; a restored oracle carries the
    /// snapshot's). The federation layer records this when cutting a
    /// warm-restart checkpoint, so
    /// [`ShardedOracle::restore_bytes_checked`] can later prove the
    /// buffer is not stale.
    pub fn shard_map(&self) -> Option<&ShardMap<D>> {
        self.map.as_ref()
    }

    /// Drains every pending mutation (one [`ShardedOracle::flush`])
    /// and returns all live `(id, rect)` entries, staged ones
    /// included, in unspecified order. This is the peer-re-replication
    /// source of the federation layer: a broker cold-rebuilding a
    /// crashed neighbor's range receives exactly this enumeration.
    /// `O(len)`; allocates the returned vector only.
    pub fn entries(&mut self) -> Vec<(ProcessId, Rect<D>)> {
        self.flush();
        let mut out = Vec::with_capacity(self.len);
        for shard in &self.shards {
            let packed = &shard.packed;
            out.extend(packed.entries().map(|(_, id, rect)| (*id, *rect)));
            out.extend(
                packed
                    .staged_keys()
                    .iter()
                    .zip(packed.staged_rects())
                    .enumerate()
                    .filter(|&(i, _)| packed.is_staged_live(i))
                    .map(|(_, (id, rect))| (*id, *rect)),
            );
        }
        out
    }

    /// Verifies the deferred bulk checksum of every restored shard —
    /// the full-integrity pass [`ShardedOracle::restore_bytes`] skips
    /// to keep cold-start in the millisecond range. `Ok(())` for
    /// shards that were never restored from a buffer.
    pub fn verify_snapshot(&self) -> Result<(), SnapshotError> {
        for shard in &self.shards {
            shard.packed.verify_snapshot()?;
        }
        Ok(())
    }

    /// Packed-tree rebuilds performed over the oracle's lifetime.
    pub fn rebuild_count(&self) -> u64 {
        self.rebuilds
    }

    /// Full redistributions performed over the oracle's lifetime.
    pub fn rebalance_count(&self) -> u64 {
        self.rebalances
    }

    /// Always 0: imbalance used to be repaired by shifting one Hilbert
    /// boundary, a path no workload ever took; every rebalance is now a
    /// full redistribute, counted by
    /// [`ShardedOracle::rebalance_count`]. Kept so existing callers
    /// that sum both counters still compile.
    pub fn split_rebalance_count(&self) -> u64 {
        0
    }

    /// Delta-layer merges performed over the oracle's lifetime.
    pub fn compaction_count(&self) -> u64 {
        self.compactions
    }

    /// Staged entries absorbed into packed levels over the oracle's
    /// lifetime.
    pub fn staged_absorbed_total(&self) -> u64 {
        self.staged_absorbed
    }

    /// Moves absorbed as same-shard delta patches over the oracle's
    /// lifetime ([`ShardedOracle::move_entry`], flushed or not).
    pub fn moved_in_place_total(&self) -> u64 {
        self.moves_in_place + self.pending_moved_in_place as u64
    }

    /// Moves re-keyed across a Hilbert shard boundary over the
    /// oracle's lifetime (flushed or not).
    pub fn rekeyed_total(&self) -> u64 {
        self.rekeys + self.pending_rekeyed as u64
    }

    /// Leased entries evicted over the oracle's lifetime (flushed or
    /// not).
    pub fn leases_expired_total(&self) -> u64 {
        self.leases_expired + self.pending_leases_expired as u64
    }

    /// Entries holding an armed lease.
    pub fn lease_count(&self) -> usize {
        self.leases.values().map(Vec::len).sum()
    }

    /// The shard `rect` is currently assigned to (`None` before the
    /// first flush establishes a shard map).
    pub fn shard_of(&self, rect: &Rect<D>) -> Option<usize> {
        self.map.as_ref().map(|m| m.shard_of(rect))
    }

    /// Registers `(id, rect)`. Duplicate ids are allowed (subscription
    /// *sets* register one entry per member filter). The entry is
    /// staged into the owning shard's delta layer and patched into its
    /// stab grid — no shard goes dirty, and the entry is matchable
    /// immediately.
    pub fn insert(&mut self, id: ProcessId, rect: Rect<D>) {
        let s = match &self.map {
            Some(map) => {
                if !map.covers(&rect) {
                    self.stale_world = true;
                }
                map.shard_of(&rect)
            }
            // No map yet: park in shard 0; the first flush
            // redistributes.
            None => 0,
        };
        let shard = &mut self.shards[s];
        let idx = shard.packed.staged_len() as u32;
        shard.packed.stage_insert(id, rect);
        shard.grid.stage(idx, &rect);
        self.len += 1;
        let count = self.id_counts.entry(id.raw()).or_insert(0);
        *count += 1;
        if *count == 2 {
            self.duplicate_ids += 1;
        }
    }

    /// Removes one `(id, rect)` entry; `true` if found. Looks in the
    /// assigned shard first (assignment is stable, so that lookup
    /// virtually always succeeds) with a full scan as a safety net.
    /// Staged entries are unstaged outright; packed entries are
    /// tombstoned in place. Either way the stab grid is patched to
    /// match and no rebuild is scheduled.
    pub fn remove(&mut self, id: ProcessId, rect: &Rect<D>) -> bool {
        let guess = self.map.as_ref().map_or(0, |m| m.shard_of(rect));
        let found = self.remove_from(guess, id, rect)
            || (0..self.shards.len()).any(|s| s != guess && self.remove_from(s, id, rect));
        if found {
            if let Some(count) = self.id_counts.get_mut(&id.raw()) {
                if *count == 2 {
                    self.duplicate_ids -= 1;
                }
                *count -= 1;
                if *count == 0 {
                    self.id_counts.remove(&id.raw());
                }
            }
            self.drop_lease(id, rect);
        }
        found
    }

    /// Forgets the lease on `(id, rect)`, if one is armed.
    fn drop_lease(&mut self, id: ProcessId, rect: &Rect<D>) {
        if self.leases.is_empty() {
            return;
        }
        if let Some(held) = self.leases.get_mut(&id) {
            held.retain(|(r, _)| r != rect);
            if held.is_empty() {
                self.leases.remove(&id);
            }
        }
    }

    fn remove_from(&mut self, s: usize, id: ProcessId, rect: &Rect<D>) -> bool {
        let shard = &mut self.shards[s];
        match shard.packed.remove_entry(&id, rect) {
            Some(DeltaRemoval::Unstaged { index, moved }) => {
                shard.grid.unstage(index as u32, rect);
                if let Some(moved_rect) = moved {
                    // The former last staged entry now lives at
                    // `index`; its old index equals the post-removal
                    // staging length.
                    let from = shard.packed.staged_len() as u32;
                    shard.grid.restage_moved(from, index as u32, &moved_rect);
                }
                self.len -= 1;
                true
            }
            Some(DeltaRemoval::Tombstoned { .. }) => {
                // Stabs filter dead slots at emission time; nothing to
                // patch.
                self.len -= 1;
                true
            }
            Some(DeltaRemoval::Retired { index }) => {
                // A frozen staged entry died mid-compaction: the
                // buffer keeps its (index-stable) slot, so only the
                // grid's patch lists need to forget it — the install
                // will re-remove it from the merged core.
                shard.grid.unstage(index as u32, rect);
                self.len -= 1;
                true
            }
            None => false,
        }
    }

    /// Moves one live `(id, old)` entry to rectangle `new` — the
    /// mobility command. While the new rectangle's curve key stays on
    /// the old shard, the move is absorbed **as a delta patch**: an
    /// in-place packed-slot update (with the stab grid re-pointed
    /// through its moved-slot patch layer) or a staged rewrite, no
    /// remove/reinsert, no flush, no compaction pressure beyond what
    /// the fallback tombstone+stage path adds. Only when the key
    /// actually crosses a shard boundary is the entry re-keyed —
    /// removed from its old shard and staged into the gainer's delta
    /// layer. An armed lease follows the entry either way. Returns
    /// `false` when no live entry matches.
    pub fn move_entry(&mut self, id: ProcessId, old: &Rect<D>, new: Rect<D>) -> bool {
        if !self.relocate(id, old, new) {
            return false;
        }
        if !self.leases.is_empty() {
            let lease = self
                .leases
                .get_mut(&id)
                .and_then(|held| held.iter_mut().find(|(r, _)| r == old));
            if let Some((rect, _)) = lease {
                *rect = new;
            }
        }
        true
    }

    /// [`ShardedOracle::move_entry`] minus the lease: moves the entry
    /// and counts the move.
    fn relocate(&mut self, id: ProcessId, old: &Rect<D>, new: Rect<D>) -> bool {
        if let Some(map) = &self.map {
            if !map.covers(&new) {
                self.stale_world = true;
            }
        }
        let target = self.map.as_ref().map_or(0, |m| m.shard_of(&new));
        // Hinted fast path: a steady mover's entry lives in the shard
        // its rect routes to, so try the verified memo there before
        // paying for the old rect's routing key. A hit proves the
        // entry already sits in the target shard — no boundary was
        // crossed; a miss falls through to the full two-key route.
        if self.move_hinted(target, id, old, new) {
            self.pending_moved_in_place += 1;
            return true;
        }
        let guess = self.map.as_ref().map_or(0, |m| m.shard_of(old));
        if guess == target {
            // Same-shard move. The assigned shard virtually always
            // holds the entry; scan the rest as the safety net
            // `remove` uses (entries park in shard 0 pre-map, or sit
            // misassigned after world growth).
            if self.move_in_shard(guess, id, old, new)
                || (0..self.shards.len()).any(|s| s != guess && self.move_in_shard(s, id, old, new))
            {
                self.pending_moved_in_place += 1;
                return true;
            }
            return false;
        }
        // Boundary handoff: remove through the delta layer, re-stage
        // into the target.
        let removed = self.remove_from(guess, id, old)
            || (0..self.shards.len()).any(|s| s != guess && self.remove_from(s, id, old));
        if !removed {
            return false;
        }
        let gainer = &mut self.shards[target];
        let idx = gainer.packed.staged_len() as u32;
        gainer.packed.stage_insert(id, new);
        gainer.grid.stage(idx, &new);
        gainer.hints.insert(id, idx | STAGED_HINT);
        // `remove_from` decremented for the departure; the arrival
        // restores it. Identity is preserved, so the id-count dedup
        // table is untouched.
        self.len += 1;
        self.pending_rekeyed += 1;
        true
    }

    /// One shard's slice of [`ShardedOracle::move_entry`]: runs the
    /// packed tree's update and patches the stab grid to match.
    /// `false` when the shard holds no live `(id, old)` entry.
    fn move_in_shard(&mut self, s: usize, id: ProcessId, old: &Rect<D>, new: Rect<D>) -> bool {
        let shard = &mut self.shards[s];
        // Hinted fast path first: a mover that relocates every tick
        // keeps hitting its own packed slot (or staged index — the
        // tag bit), turning the per-move tree traversal or staged
        // linear scan into one verified array read. Both verify
        // `(id, old)` at the memoized position, so a stale hint is
        // just a miss that falls through to the full lookup.
        let prior = shard.hints.get(&id).copied();
        let hinted = prior.and_then(|h| {
            if h & STAGED_HINT != 0 {
                shard
                    .packed
                    .update_staged((h & !STAGED_HINT) as usize, &id, old, new)
            } else {
                shard.packed.update_slot(h as usize, &id, old, new)
            }
        });
        let update = match hinted.or_else(|| shard.packed.update_entry(&id, old, new)) {
            Some(update) => update,
            None => {
                if prior.is_some() {
                    shard.hints.remove(&id);
                }
                return false;
            }
        };
        Self::apply_update(shard, id, prior, update, old, &new);
        true
    }

    /// Hint-only slice of [`ShardedOracle::move_in_shard`]: succeeds
    /// only when shard `s` holds a hint for `id` that verifies against
    /// `(id, old)`. Never falls back to a tree lookup — a stale hint is
    /// left for the full path to repair.
    fn move_hinted(&mut self, s: usize, id: ProcessId, old: &Rect<D>, new: Rect<D>) -> bool {
        let shard = &mut self.shards[s];
        let Some(h) = shard.hints.get(&id).copied() else {
            return false;
        };
        let hinted = if h & STAGED_HINT != 0 {
            shard
                .packed
                .update_staged((h & !STAGED_HINT) as usize, &id, old, new)
        } else {
            shard.packed.update_slot(h as usize, &id, old, new)
        };
        let Some(update) = hinted else {
            return false;
        };
        Self::apply_update(shard, id, Some(h), update, old, &new);
        true
    }

    /// Applies a completed packed-tree move to one shard's stab grid
    /// and hint memo.
    fn apply_update(
        shard: &mut Shard<D>,
        id: ProcessId,
        prior: Option<u32>,
        update: EntryUpdate<D>,
        old: &Rect<D>,
        new: &Rect<D>,
    ) {
        match update {
            EntryUpdate::InPlace { slot } => {
                if prior != Some(slot as u32) {
                    shard.hints.insert(id, slot as u32);
                }
                shard
                    .grid
                    .move_slot(slot as u32, old, new, shard.packed.packed_len());
            }
            EntryUpdate::Staged { index } => {
                if prior != Some(index as u32 | STAGED_HINT) {
                    shard.hints.insert(id, index as u32 | STAGED_HINT);
                }
                shard.grid.unstage(index as u32, old);
                shard.grid.stage(index as u32, new);
            }
            EntryUpdate::Restaged { removal, index } => {
                // The entry left its old position for a fresh staged
                // index; re-point the memo there.
                shard.hints.insert(id, index as u32 | STAGED_HINT);
                match removal {
                    // Tombstoned slots are filtered at emission time.
                    DeltaRemoval::Tombstoned { .. } => {}
                    DeltaRemoval::Retired { index: retired } => {
                        shard.grid.unstage(retired as u32, old);
                    }
                    DeltaRemoval::Unstaged { .. } => {
                        unreachable!("update_entry rewrites staged entries in place")
                    }
                }
                shard.grid.stage(index as u32, new);
            }
        }
    }

    /// Arms a TTL lease on the live entry `(id, rect)`:
    /// [`ShardedOracle::expire_leases`] evicts the entry once the
    /// caller's logical clock reaches `deadline`. Re-arming replaces
    /// the deadline; the lease follows the entry through
    /// [`ShardedOracle::move_entry`] moves and shard migrations.
    /// Returns `false` when no live entry matches.
    pub fn set_lease(&mut self, id: ProcessId, rect: &Rect<D>, deadline: u64) -> bool {
        let guess = self.map.as_ref().map_or(0, |m| m.shard_of(rect));
        let live = self.shards[guess].packed.contains_entry(&id, rect)
            || (0..self.shards.len())
                .any(|s| s != guess && self.shards[s].packed.contains_entry(&id, rect));
        if !live {
            return false;
        }
        let held = self.leases.entry(id).or_default();
        match held.iter_mut().find(|(r, _)| r == rect) {
            Some(lease) => lease.1 = deadline,
            None => held.push((*rect, deadline)),
        }
        true
    }

    /// Evicts every leased entry whose deadline is `<= now`, through
    /// the regular removal path (stab grids patched, id counts
    /// maintained), returning how many entries went away. Safe on a
    /// freshly restored oracle before its first flush: removal on a
    /// derived-stale shard patches an empty grid harmlessly, and the
    /// deferred rebuild sees the entry already gone. Entries go in id
    /// order.
    pub fn expire_leases(&mut self, now: u64) -> usize {
        let mut due: Vec<(ProcessId, Rect<D>)> = Vec::new();
        for (&id, held) in &self.leases {
            due.extend(
                held.iter()
                    .filter(|&&(_, deadline)| deadline <= now)
                    .map(|&(rect, _)| (id, rect)),
            );
        }
        due.sort_unstable_by_key(|&(id, _)| id);
        let mut expired = 0usize;
        for (id, rect) in due {
            let removed = self.remove(id, &rect);
            debug_assert!(removed, "a lease outlived its entry");
            expired += usize::from(removed);
        }
        self.pending_leases_expired += expired;
        expired
    }

    /// Brings maintenance up to date **now**, so subsequent publishes
    /// pay matching cost only: installs any finished background
    /// merges, redistributes when the shard map is missing, stale or
    /// imbalanced, and realizes over-threshold compactions — inline in
    /// [`CompactionMode::Synchronous`], or on a worker in
    /// [`CompactionMode::Concurrent`] (a later flush swaps the result
    /// in). Queries call this
    /// implicitly; benches and brokers call it eagerly so their
    /// publish timings never include a merge. Under-threshold deltas
    /// are left in place — that is the point of incremental
    /// maintenance.
    pub fn flush(&mut self) -> OracleFlush {
        if self.derived_stale {
            self.rebuild_derived();
        }
        let any_jobs = self.shards.iter().any(|s| s.job.is_some());
        let needs_work = any_jobs
            || self.needs_rebalance()
            || self
                .shards
                .iter()
                .any(|s| !s.packed.is_compacting() && s.packed.needs_compaction());
        if !needs_work {
            // Even a no-op flush reports (and banks) the mobility
            // work absorbed since the last one.
            let flush = self.drain_pending_moves();
            self.absorb_flush_counters(&flush);
            return flush;
        }
        let t0 = Instant::now();
        let mut flush = self.drain_pending_moves();
        let mut inline_merge_ns = 0u64;

        // Phase 1 — finish: swap in whatever the workers completed.
        // (In synchronous mode jobs only exist after a mode switch;
        // block so the switch leaves no merge behind.)
        self.install_finished(self.mode == CompactionMode::Synchronous, &mut flush);

        // Phase 2 — redistribute, if due. It rebuilds every shard, so
        // in-flight merges are worthless: dropping a job detaches its
        // worker, and aborting the epoch eagerly keeps the accounting
        // exact.
        if self.needs_rebalance() {
            for shard in &mut self.shards {
                drop(shard.job.take());
                shard.packed.abort_compaction();
                if shard.packed.delta_len() > 0 {
                    flush.compacted_shards += 1;
                }
                flush.staged_absorbed += shard.packed.staged_len();
                flush.tombstones_reclaimed += shard.packed.tombstone_count();
            }
            self.rebalance();
            flush.rebalanced = true;
            flush.rebuilt_shards += self.shards.len();
        }

        // Phase 3 — begin: realize over-threshold compactions. The
        // mode only picks inline or worker. Concurrent merges are
        // staggered to at most `threads` in flight, so a burst of
        // over-threshold shards (uniform churn pushes every shard past
        // the fraction in the same window) spreads across flushes
        // instead of spawning one worker per shard to fight over the
        // same cores; shards left over wait one flush. Synchronous
        // merges finish before the next one starts and never reach
        // the cap.
        if !flush.rebalanced {
            let mut in_flight = self.shards.iter().filter(|s| s.job.is_some()).count();
            for shard in &mut self.shards {
                if in_flight >= self.threads {
                    break;
                }
                if shard.job.is_some()
                    || shard.packed.is_compacting()
                    || !shard.packed.needs_compaction()
                {
                    continue;
                }
                let frozen = shard.packed.freeze();
                match self.mode {
                    CompactionMode::Synchronous => {
                        let merged = MergedShard::merge(frozen);
                        inline_merge_ns += merged.merge_ns;
                        shard.install(merged, &mut flush);
                    }
                    CompactionMode::Concurrent => {
                        shard.job = Some(parallel::Job::spawn(move || MergedShard::merge(frozen)));
                        flush.begun_compactions += 1;
                        in_flight += 1;
                    }
                }
            }
        }

        self.absorb_flush_counters(&flush);
        flush.elapsed = t0.elapsed();
        flush.swap_ns = (flush.elapsed.as_nanos() as u64).saturating_sub(inline_merge_ns);
        flush
    }

    /// Blocks until every in-flight background merge is installed —
    /// the drain counterpart of the two-phase flush, for shutdown,
    /// mode switches, and benches that must not leave work dangling
    /// outside the timed window. A no-op without in-flight merges.
    pub fn finish_compactions(&mut self) -> OracleFlush {
        if self.shards.iter().all(|s| s.job.is_none()) {
            return OracleFlush::default();
        }
        let t0 = Instant::now();
        let mut flush = OracleFlush::default();
        self.install_finished(true, &mut flush);
        self.absorb_flush_counters(&flush);
        flush.elapsed = t0.elapsed();
        flush.swap_ns = flush.elapsed.as_nanos() as u64;
        flush
    }

    /// Installs every background merge that is finished (or all of
    /// them, blocking, with `block`), folding the results into
    /// `flush`.
    fn install_finished(&mut self, block: bool, flush: &mut OracleFlush) {
        for shard in &mut self.shards {
            let ready = shard
                .job
                .as_ref()
                .is_some_and(|job| block || job.is_finished());
            if !ready {
                continue;
            }
            let merged = shard.job.take().expect("job presence checked").join();
            shard.install(merged, flush);
        }
    }

    /// Builds the read-side structures a restore deliberately defers:
    /// every shard's stab grid (CSR over its packed slots plus patch
    /// lists for whatever delta the snapshot carried) and the id-count
    /// table that lets the batched merge skip deduplication while no
    /// id holds more than one entry. `O(total entries)` — the cost the
    /// zero-copy restore moved off the cold-start path and onto the
    /// first flush.
    fn rebuild_derived(&mut self) {
        self.derived_stale = false;
        self.id_counts.clear();
        self.duplicate_ids = 0;
        let (shards, id_counts) = (&mut self.shards, &mut self.id_counts);
        let mut duplicate_ids = 0usize;
        for shard in shards.iter_mut() {
            shard.grid = StabGrid::build_with_staged(&shard.packed);
            shard.hints.clear();
            let packed = &shard.packed;
            let staged = packed
                .staged_keys()
                .iter()
                .enumerate()
                .filter(|&(i, _)| packed.is_staged_live(i))
                .map(|(_, id)| id);
            for id in packed.entries().map(|(_, id, _)| id).chain(staged) {
                let count = id_counts.entry(id.raw()).or_insert(0);
                *count += 1;
                if *count == 2 {
                    duplicate_ids += 1;
                }
            }
        }
        self.duplicate_ids = duplicate_ids;
    }

    /// Seeds a fresh [`OracleFlush`] with the mobility counters
    /// accumulated since the previous flush, zeroing the pending
    /// buckets. Every flush path (including the no-work early return)
    /// goes through here so move/lease activity is reported exactly
    /// once.
    fn drain_pending_moves(&mut self) -> OracleFlush {
        OracleFlush {
            moved_in_place: std::mem::take(&mut self.pending_moved_in_place),
            rekeyed: std::mem::take(&mut self.pending_rekeyed),
            leases_expired: std::mem::take(&mut self.pending_leases_expired),
            ..OracleFlush::default()
        }
    }

    /// Folds one flush's work into the lifetime counters.
    fn absorb_flush_counters(&mut self, flush: &OracleFlush) {
        self.rebuilds += flush.rebuilt_shards as u64;
        self.compactions += flush.compacted_shards as u64;
        self.staged_absorbed += flush.staged_absorbed as u64;
        self.moves_in_place += flush.moved_in_place as u64;
        self.rekeys += flush.rekeyed as u64;
        self.leases_expired += flush.leases_expired as u64;
    }

    fn needs_rebalance(&self) -> bool {
        if self.len == 0 {
            return false;
        }
        if self.map.is_none() || self.stale_world {
            return true;
        }
        if self.shards.len() == 1 {
            return false;
        }
        let ideal = self.len / self.shards.len();
        let cap = IMBALANCE_FACTOR * ideal + IMBALANCE_SLACK;
        let heaviest = self.shards.iter().map(|s| s.packed.len()).max();
        // Entries sharing one curve key (copies of one rectangle, a
        // spatially clustered crowd) land in one shard under any
        // quantile split, so a redistribute cannot always repair an
        // imbalance, and repeating it would rebuild every shard on
        // every flush for the same outcome (queries flush implicitly).
        // Retry only once the heaviest shard has doubled since the last
        // redistribute: at most one O(N log N) pass per doubling.
        heaviest.is_some_and(|h| h > cap && h > 2 * self.heaviest_at_rebalance)
    }

    /// Recomputes the world from the live entries, re-splits the key
    /// population at its count quantiles, and redistributes every
    /// entry, bulk-loading every shard fresh (deltas are absorbed in
    /// the same pass) — the oracle's one redistribute.
    fn rebalance(&mut self) {
        let mut all: Vec<(ProcessId, Rect<D>)> = Vec::with_capacity(self.len);
        for shard in &mut self.shards {
            all.append(&mut shard.packed.drain_live());
        }
        let world = GridMapper::world_of(all.iter().map(|(_, r)| r))
            .unwrap_or_else(|| Rect::new([0.0; D], [1.0; D]));
        let mapper = GridMapper::new(&world);
        let mut keys: Vec<u128> = all.iter().map(|(_, r)| mapper.key(r)).collect();
        keys.sort_unstable();
        let map = ShardMap::from_sorted_keys(self.shards.len(), &world, &keys);
        let mut parts: Vec<Vec<(ProcessId, Rect<D>)>> = vec![Vec::new(); self.shards.len()];
        for (id, rect) in all {
            parts[map.shard_of(&rect)].push((id, rect));
        }
        self.heaviest_at_rebalance = parts.iter().map(Vec::len).max().unwrap_or(0);
        for (shard, part) in self.shards.iter_mut().zip(parts) {
            shard.packed = PackedRTree::bulk_load(part);
            shard.packed.set_delta_fraction(self.delta_fraction);
            shard.grid = StabGrid::build(&shard.packed);
            shard.hints.clear();
        }
        self.map = Some(map);
        self.stale_world = false;
        self.rebalances += 1;
    }

    /// Fills `out` with the sorted, deduplicated set of subscribers
    /// whose filter contains `point` — the exact matching set of one
    /// published event. Flushes implicitly; allocation-free once `out`
    /// is warm.
    pub fn match_point_into(&mut self, point: &Point<D>, out: &mut Vec<ProcessId>) {
        self.flush();
        self.stab_point_into(point, out);
    }

    /// [`ShardedOracle::match_point_into`] minus the flush: stabs the
    /// grid of every shard whose MBR contains `point` — the kernel of
    /// [`ShardedOracle::match_batch_into`]'s one-worker pass — then
    /// sorts and deduplicates. Exact in any state the grids are
    /// patched to, flushed or not.
    fn stab_point_into(&self, point: &Point<D>, out: &mut Vec<ProcessId>) {
        out.clear();
        for shard in &self.shards {
            if shard
                .packed
                .mbr()
                .is_some_and(|mbr| mbr.contains_point_branchless(point))
            {
                shard.grid.stab(&shard.packed, point, |id| out.push(id));
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Answers a whole batch of probes in one shard pass — the
    /// matching engine of the batched publish pipeline.
    ///
    /// The pass amortizes everything a per-event probe pays over the
    /// whole batch:
    ///
    /// 1. **Sort** — probes are ordered along the Hilbert curve of the
    ///    mapped world, so consecutive probes are spatial neighbors
    ///    and every structure touched below stays cache-resident
    ///    between probes.
    /// 2. **Fan** — scoped workers ([`parallel::fan`]) take shards;
    ///    each worker answers the whole sorted batch against its
    ///    shard, skipping probes outside the shard's MBR (shards are
    ///    contiguous curve ranges, so most probes are owned by one
    ///    shard).
    /// 3. **Stab** — per probe, the shard's flush-built stab grid
    ///    turns matching into one cell lookup plus a few exact
    ///    rectangle tests, instead of a root-to-leaf descent of the
    ///    packed tree.
    /// 4. **Merge** — one sequential pass gathers each probe's hits
    ///    from the per-shard streams into `out`'s reused arena,
    ///    sorted and deduplicated.
    ///
    /// Step 3 is [`ShardedOracle::match_point_into`]'s whole kernel;
    /// the sort, the fan and the arena merge are what batching adds.
    ///
    /// # Panics
    ///
    /// Panics if `points.len() > u32::MAX`.
    pub fn match_batch_into(&mut self, points: &[Point<D>], out: &mut BatchMatches) {
        self.flush();
        out.spans.clear();
        out.hits.clear();
        if points.is_empty() {
            return;
        }
        assert!(
            points.len() <= u32::MAX as usize,
            "batch is limited to 2^32 probes"
        );

        // Curve-sort the probes (key, original index), then gather the
        // points into sorted order so the refinement loops stream
        // memory forward.
        let mapper = self
            .map
            .as_ref()
            .map(|m| m.mapper().clone())
            .unwrap_or_else(|| GridMapper::new(&Rect::new([0.0; D], [1.0; D])));
        self.sorted_idx.clear();
        if D <= 2 {
            // Keys fit 32 bits: pack (key, index) into one machine
            // word so the dominant sort moves u64s, mirroring the
            // packed tree's own bulk-load sort.
            self.key_scratch.clear();
            self.key_scratch.extend(
                points
                    .iter()
                    .enumerate()
                    .map(|(i, p)| ((mapper.morton_key_of_point(p) as u64) << 32) | i as u64),
            );
            self.key_scratch.sort_unstable();
            self.sorted_idx
                .extend(self.key_scratch.iter().map(|&t| t as u32));
        } else {
            let mut tagged: Vec<(u128, u32)> = points
                .iter()
                .enumerate()
                .map(|(i, p)| (mapper.morton_key_of_point(p), i as u32))
                .collect();
            tagged.sort_unstable();
            self.sorted_idx.extend(tagged.iter().map(|&(_, i)| i));
        }
        self.sorted_points.clear();
        self.sorted_points
            .extend(self.sorted_idx.iter().map(|&i| points[i as usize]));

        let n = points.len();
        out.spans.resize(n, (0, 0));
        let dedup_needed = self.duplicate_ids > 0;

        // One worker (or one shard) cannot win anything from the
        // fan-and-merge plumbing: stab every shard per probe and
        // write each span straight into the arena instead — no
        // per-shard streams, no cursors, no merge pass at all.
        if self.threads <= 1 || self.shards.len() == 1 {
            let mbrs: Vec<Option<Rect<D>>> = self.shards.iter().map(|s| s.packed.mbr()).collect();
            for (&orig, p) in self.sorted_idx.iter().zip(&self.sorted_points) {
                let start = out.hits.len();
                let mut prev = ProcessId::from_raw(0);
                let mut sorted = true;
                for (shard, mbr) in self.shards.iter().zip(&mbrs) {
                    match mbr {
                        Some(mbr) if mbr.contains_point_branchless(p) => {
                            shard.grid.stab(&shard.packed, p, |id| {
                                sorted &= prev <= id;
                                prev = id;
                                out.hits.push(id);
                            });
                        }
                        _ => {}
                    }
                }
                if !sorted {
                    out.hits[start..].sort_unstable();
                }
                if dedup_needed {
                    let mut w = start;
                    for r in start..out.hits.len() {
                        if w == start || out.hits[r] != out.hits[w - 1] {
                            out.hits[w] = out.hits[r];
                            w += 1;
                        }
                    }
                    out.hits.truncate(w);
                }
                out.spans[orig as usize] = (start as u32, (out.hits.len() - start) as u32);
            }
            return;
        }

        let threads = self.threads;
        let sorted_points = &self.sorted_points;
        parallel::fan(
            &self.shards,
            &mut self.batch_bufs,
            threads,
            |_, shard, buf| {
                buf.hits.clear();
                buf.counts.clear();
                buf.counts.resize(sorted_points.len(), 0);
                if shard.packed.is_empty() {
                    return;
                }
                let mbr = shard.packed.mbr().expect("non-empty shard has an MBR");
                for (s, p) in sorted_points.iter().enumerate() {
                    if !mbr.contains_point_branchless(p) {
                        continue; // counts[s] stays 0
                    }
                    let before = buf.hits.len();
                    shard.grid.stab(&shard.packed, p, |id| buf.hits.push(id));
                    buf.counts[s] = (buf.hits.len() - before) as u32;
                }
            },
        );

        // Merge: bulk-copy every shard's hit stream into the arena
        // once, then walk the probes in curve order with one cursor
        // per shard. A probe whose hits all come from one shard — the
        // overwhelmingly common case, since shards tile the curve —
        // gets a span pointing straight into that shard's copied
        // stream (no per-probe copy at all); only probes straddling
        // shards gather at the arena tail. Every span is then sorted
        // (and deduplicated when subscription sets exist) in place:
        // spans are disjoint, so in-place mutation is safe, and a
        // dedup just shortens the span, leaving a dead gap in the
        // arena.
        let total: usize = self.batch_bufs.iter().map(|b| b.hits.len()).sum();
        out.hits.reserve(2 * total);
        self.stream_bases.clear();
        for buf in &self.batch_bufs {
            self.stream_bases.push(out.hits.len() as u32);
            out.hits.extend_from_slice(&buf.hits);
        }
        self.cursors.clear();
        self.cursors.resize(self.batch_bufs.len(), 0);
        for (s, &orig) in self.sorted_idx.iter().enumerate() {
            let mut owners = 0usize;
            let mut owner = 0usize;
            let mut owner_take = 0usize;
            for (k, buf) in self.batch_bufs.iter().enumerate() {
                if buf.counts.is_empty() {
                    continue; // empty shard produced no stream
                }
                let take = buf.counts[s] as usize;
                if take > 0 {
                    owners += 1;
                    owner = k;
                    owner_take = take;
                }
            }
            let (start, mut len) = if owners <= 1 {
                let start = (self.stream_bases[owner] + self.cursors[owner]) as usize;
                self.cursors[owner] += owner_take as u32;
                (start, owner_take)
            } else {
                // Straddling probe: gather its slices at the tail.
                let start = out.hits.len();
                let mut gathered = 0usize;
                for (k, buf) in self.batch_bufs.iter().enumerate() {
                    if buf.counts.is_empty() {
                        continue;
                    }
                    let take = buf.counts[s] as usize;
                    let cursor = self.cursors[k] as usize;
                    out.hits.extend_from_slice(&buf.hits[cursor..cursor + take]);
                    self.cursors[k] = (cursor + take) as u32;
                    gathered += take;
                }
                (start, gathered)
            };
            let span = &mut out.hits[start..start + len];
            if span.windows(2).any(|w| w[0] > w[1]) {
                span.sort_unstable();
            }
            if dedup_needed {
                let mut w = 1usize.min(len);
                for r in 1..len {
                    if out.hits[start + r] != out.hits[start + w - 1] {
                        out.hits[start + w] = out.hits[start + r];
                        w += 1;
                    }
                }
                len = w;
            }
            out.spans[orig as usize] = (start as u32, len as u32);
        }
    }
}

/// An immutable point-in-time view of a [`ShardedOracle`]'s live
/// subscription set, produced by [`ShardedOracle::snapshot`].
///
/// Internally one epoch-free [`FrozenShard`] per oracle shard: the
/// packed tiers are `Arc`-shared with the live oracle (snapshotting is
/// a reference-count bump plus a delta-layer copy), and queries run a
/// pruned packed descent (a snapshot carries no stab grid). Because the
/// view is `&self`-only and owns everything it needs, an
/// `Arc<OracleSnapshot>` serves any number of concurrent readers
/// without ever blocking — or being blocked by — the writer that keeps
/// mutating the source oracle.
#[derive(Debug, Clone)]
pub struct OracleSnapshot<const D: usize> {
    shards: Vec<FrozenShard<ProcessId, D>>,
    len: usize,
}

impl<const D: usize> OracleSnapshot<D> {
    /// Live `(id, rect)` entries captured by the snapshot.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Fills `out` with the sorted, deduplicated set of subscribers
    /// whose filter contained `point` at snapshot time — the immutable
    /// counterpart of [`ShardedOracle::match_point_into`].
    pub fn match_point_into(&self, point: &Point<D>, out: &mut Vec<ProcessId>) {
        out.clear();
        for shard in &self.shards {
            shard.for_each_containing(point, |&id, _| out.push(id));
        }
        out.sort_unstable();
        out.dedup();
    }

    /// [`OracleSnapshot::match_point_into`] into a fresh vector.
    pub fn match_point(&self, point: &Point<D>) -> Vec<ProcessId> {
        let mut out = Vec::new();
        self.match_point_into(point, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtree_spatial::reference::Reference;

    fn pid(i: u64) -> ProcessId {
        ProcessId::from_raw(i)
    }

    fn grid_rect(i: u64) -> Rect<2> {
        let x = (i % 16) as f64 * 10.0;
        let y = (i / 16) as f64 * 10.0;
        Rect::new([x, y], [x + 8.0, y + 8.0])
    }

    #[test]
    fn small_deltas_stay_incremental() {
        let mut oracle: ShardedOracle<2> = ShardedOracle::new(4);
        for i in 0..256 {
            oracle.insert(pid(i), grid_rect(i));
        }
        let first = oracle.flush();
        assert!(first.rebalanced, "first flush establishes the map");
        assert_eq!(first.rebuilt_shards, 4);
        assert_eq!(first.staged_absorbed, 256, "initial load was all staged");
        let baseline = oracle.rebuild_count();

        // A clean oracle flushes as a no-op.
        assert_eq!(oracle.flush(), OracleFlush::default());
        assert_eq!(oracle.rebuild_count(), baseline);

        // A few in-world mutations stay in the delta layer: no shard
        // rebuilds, matching is exact anyway.
        let rect = grid_rect(37);
        assert!(oracle.remove(pid(37), &rect));
        oracle.insert(pid(999), grid_rect(40));
        assert_eq!(oracle.delta_len(), 2, "one tombstone + one staged");
        assert_eq!(
            oracle.flush(),
            OracleFlush::default(),
            "delta within budget"
        );
        assert_eq!(oracle.rebuild_count(), baseline);
        let mut hits = Vec::new();
        oracle.match_point_into(&rect.center(), &mut hits);
        assert!(!hits.contains(&pid(37)), "tombstoned entry not matched");
        oracle.match_point_into(&grid_rect(40).center(), &mut hits);
        assert!(hits.contains(&pid(999)), "staged entry matched");
        assert!(hits.contains(&pid(40)));
    }

    #[test]
    fn snapshot_answers_exactly_and_ignores_later_mutations() {
        let mut oracle: ShardedOracle<2> = ShardedOracle::new(4);
        for i in 0..256 {
            oracle.insert(pid(i), grid_rect(i));
        }
        oracle.flush();
        // Leave some un-flushed delta so the snapshot covers both
        // tiers: a staged insert and a tombstoned removal.
        assert!(oracle.remove(pid(7), &grid_rect(7)));
        oracle.insert(pid(500), grid_rect(7));
        let snap = oracle.snapshot();
        assert_eq!(snap.len(), oracle.len());

        // Reference answers before mutating further.
        let mut want = Vec::new();
        let probes: Vec<Point<2>> = (0..256)
            .step_by(17)
            .map(|i| grid_rect(i).center())
            .collect();
        let expected: Vec<Vec<ProcessId>> = probes
            .iter()
            .map(|p| {
                oracle.match_point_into(p, &mut want);
                want.clone()
            })
            .collect();

        // Mutate the live oracle heavily; the snapshot must not move.
        for i in 0..128 {
            oracle.remove(pid(i), &grid_rect(i));
        }
        oracle.flush();
        for (p, want) in probes.iter().zip(&expected) {
            assert_eq!(&snap.match_point(p), want, "at {p:?}");
        }
        // And it really reflects the pre-snapshot delta.
        let seven = grid_rect(7).center();
        let at_seven = snap.match_point(&seven);
        assert!(!at_seven.contains(&pid(7)), "tombstone visible");
        assert!(at_seven.contains(&pid(500)), "staged insert visible");
    }

    #[test]
    fn snapshot_serves_concurrent_readers_lock_free() {
        let mut oracle: ShardedOracle<2> = ShardedOracle::new(4);
        for i in 0..128 {
            oracle.insert(pid(i), grid_rect(i));
        }
        oracle.flush();
        let probes: Vec<Point<2>> = (0..128).map(|i| grid_rect(i).center()).collect();
        let mut buf = Vec::new();
        let expected: Vec<Vec<ProcessId>> = probes
            .iter()
            .map(|p| {
                oracle.match_point_into(p, &mut buf);
                buf.clone()
            })
            .collect();
        let snap = std::sync::Arc::new(oracle.snapshot());
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let snap = std::sync::Arc::clone(&snap);
                let probes = &probes;
                let expected = &expected;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for (p, want) in probes.iter().zip(expected) {
                        snap.match_point_into(p, &mut out);
                        assert_eq!(&out, want);
                    }
                });
            }
            // Writer keeps churning while readers run.
            for i in 0..64 {
                oracle.remove(pid(i), &grid_rect(i));
                oracle.insert(pid(1000 + i), grid_rect(i));
            }
            oracle.flush();
        });
    }

    #[test]
    fn zero_fraction_compacts_only_the_owning_shard() {
        let mut oracle: ShardedOracle<2> = ShardedOracle::new(4);
        oracle.set_delta_fraction(0.0);
        for i in 0..256 {
            oracle.insert(pid(i), grid_rect(i));
        }
        oracle.flush();
        let baseline = oracle.rebuild_count();

        // Rebuild-per-flush mode: one mutation compacts exactly the
        // owning shard (the pre-delta dirty-shard behavior).
        let rect = grid_rect(37);
        let owner = oracle.shard_of(&rect).expect("map exists");
        assert!(oracle.remove(pid(37), &rect));
        let flush = oracle.flush();
        assert!(!flush.rebalanced);
        assert_eq!(flush.rebuilt_shards, 1, "only the owning shard rebuilds");
        assert_eq!(flush.compacted_shards, 1);
        assert_eq!(flush.tombstones_reclaimed, 1);
        assert_eq!(flush.staged_absorbed, 0);
        assert_eq!(oracle.rebuild_count(), baseline + 1);
        assert_eq!(oracle.shard_of(&rect), Some(owner), "assignment is stable");
    }

    #[test]
    fn compaction_triggers_once_the_delta_outgrows_the_fraction() {
        let mut oracle: ShardedOracle<2> = ShardedOracle::new(1);
        oracle.set_delta_fraction(0.1);
        for i in 0..200 {
            oracle.insert(pid(i), grid_rect(i % 256));
        }
        oracle.flush();
        let compactions = oracle.compaction_count();
        // Stay under 10%: no compaction.
        for i in 0..20 {
            oracle.insert(pid(1000 + i), grid_rect(i));
        }
        assert_eq!(oracle.flush(), OracleFlush::default());
        assert_eq!(oracle.compaction_count(), compactions);
        // Push past the fraction: the shard compacts and the
        // accounting reports what was absorbed.
        oracle.insert(pid(2000), grid_rect(3));
        let flush = oracle.flush();
        assert_eq!(flush.compacted_shards, 1);
        assert_eq!(flush.staged_absorbed, 21);
        assert_eq!(oracle.compaction_count(), compactions + 1);
        assert!(oracle.staged_absorbed_total() >= 21);
        assert_eq!(oracle.delta_len(), 0);
    }

    #[test]
    fn staged_and_tombstoned_entries_answer_batches_exactly() {
        // Mutations between flushes must be visible to the batched
        // (stab-grid) path through the patch layer, including staged
        // removals that swap-remove into vacated indexes.
        for threads in [1usize, 3] {
            let mut oracle: ShardedOracle<2> = ShardedOracle::new(4);
            let mut model = Reference::new();
            oracle.set_threads(threads);
            for i in 0..128 {
                oracle.insert(pid(i), grid_rect(i));
                model.insert(pid(i), grid_rect(i));
            }
            oracle.flush();
            // Stage three entries at the same spot, remove the first
            // (forcing a swap-remove), tombstone a packed one.
            for i in 500..503 {
                oracle.insert(pid(i), grid_rect(10));
                model.insert(pid(i), grid_rect(10));
            }
            for i in [500, 10] {
                assert!(oracle.remove(pid(i), &grid_rect(10)));
                assert!(model.remove(pid(i), &grid_rect(10)));
            }
            let probe = grid_rect(10).center();
            let mut batch = BatchMatches::new();
            oracle.match_batch_into(&[probe], &mut batch);
            assert_eq!(batch.matches(0), &[pid(501), pid(502)], "threads={threads}");
            let mut single = Vec::new();
            oracle.match_point_into(&probe, &mut single);
            assert_eq!(single, model.matching(&probe), "threads={threads}");
            assert_eq!(batch.matches(0), single.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn concurrent_flush_is_two_phase_and_stays_exact() {
        let mut oracle: ShardedOracle<2> = ShardedOracle::new(4);
        let mut model = Reference::new();
        oracle.set_compaction_mode(CompactionMode::Concurrent);
        oracle.set_delta_fraction(0.05);
        for i in 0..512 {
            oracle.insert(pid(i), grid_rect(i % 256));
            model.insert(pid(i), grid_rect(i % 256));
        }
        oracle.flush();
        assert_eq!(oracle.compacting_shards(), 0);

        // Push one shard's delta over the fraction: the flush *begins*
        // a background merge instead of stalling on it.
        for i in 0..64 {
            oracle.insert(pid(5000 + i), grid_rect(7));
            model.insert(pid(5000 + i), grid_rect(7));
        }
        let begin = oracle.flush();
        assert!(begin.begun_compactions >= 1, "{begin:?}");
        assert_eq!(begin.compact_ns, 0, "no inline merge on the begin phase");
        assert!(oracle.compacting_shards() >= 1, "merge in flight");
        let compactions_before = oracle.compaction_count();

        // Mid-compaction the oracle keeps answering exactly, absorbing
        // further mutations into the second-generation delta.
        oracle.insert(pid(9000), grid_rect(7));
        model.insert(pid(9000), grid_rect(7));
        assert!(oracle.remove(pid(5000), &grid_rect(7)));
        assert!(model.remove(pid(5000), &grid_rect(7)));
        let probe = grid_rect(7).center();
        let mut batch = BatchMatches::new();
        oracle.match_batch_into(&[probe], &mut batch);
        let mut single = Vec::new();
        oracle.match_point_into(&probe, &mut single);
        assert_eq!(single, model.matching(&probe));
        assert_eq!(batch.matches(0), single.as_slice());
        assert!(single.contains(&pid(9000)), "gen-2 insert visible");
        assert!(
            !single.contains(&pid(5000)),
            "mid-compaction removal visible"
        );
        assert!(single.contains(&pid(5042)), "frozen staged entry visible");

        // Finish: the merged tree swaps in (here, or already on one of
        // the implicit query flushes above) and the delta folds away.
        oracle.finish_compactions();
        assert_eq!(oracle.compacting_shards(), 0);
        oracle.match_point_into(&probe, &mut single);
        assert_eq!(
            single,
            model.matching(&probe),
            "answers unchanged by install"
        );
        // The lifetime counters saw the concurrent merge.
        assert!(oracle.compaction_count() > compactions_before);
        assert!(oracle.staged_absorbed_total() >= 64);
    }

    #[test]
    fn imbalance_is_repaired_by_one_redistribute() {
        for mode in [CompactionMode::Synchronous, CompactionMode::Concurrent] {
            let mut oracle: ShardedOracle<2> = ShardedOracle::new(8);
            oracle.set_compaction_mode(mode);
            // A huge fraction so compaction never kicks in and the
            // rebalance path is isolated.
            oracle.set_delta_fraction(1e9);
            for i in 0..2048 {
                oracle.insert(pid(i), grid_rect(i % 256));
            }
            oracle.flush();
            assert_eq!(oracle.rebalance_count(), 1, "initial full rebalance");

            // Pile 2000 in-world entries onto one spot: the owning
            // shard blows past 4x ideal + 64.
            let hot = grid_rect(3);
            let hot_shard = oracle.shard_of(&hot).expect("map exists");
            for i in 0..2000 {
                oracle.insert(pid(10_000 + i), hot);
            }
            let before = oracle.shard_len(hot_shard);
            let flush = oracle.flush();
            assert!(flush.rebalanced, "mode {mode:?}: {flush:?}");
            assert_eq!(flush.rebuilt_shards, 8, "mode {mode:?}: {flush:?}");
            assert_eq!(oracle.rebalance_count(), 2, "mode {mode:?}");
            assert_eq!(oracle.split_rebalance_count(), 0);
            let after = oracle.shard_len(hot_shard);
            assert!(
                after < before,
                "mode {mode:?}: hot shard {before} -> {after}"
            );
            // Matching stays exact across the new boundaries: 2000
            // piled plus the 2048/256 = 8 original copies of slot 3.
            let mut hits = Vec::new();
            oracle.match_point_into(&hot.center(), &mut hits);
            assert_eq!(hits.len(), 2008, "mode {mode:?}");
        }
    }

    #[test]
    fn an_imbalance_a_redistribute_cannot_repair_is_not_retried_every_flush() {
        // 4,000 copies of one rectangle share one curve key, so they
        // stay in one shard under any quantile split: the first
        // redistribute leaves that shard past 4x ideal + 64.
        for mode in [CompactionMode::Synchronous, CompactionMode::Concurrent] {
            let mut oracle: ShardedOracle<2> = ShardedOracle::new(8);
            oracle.set_compaction_mode(mode);
            oracle.set_delta_fraction(1e9);
            let mut model: Vec<(ProcessId, Rect<2>)> = Vec::new();
            for i in 0..2048 {
                oracle.insert(pid(i), grid_rect(i % 256));
                model.push((pid(i), grid_rect(i % 256)));
            }
            oracle.flush();
            let hot = grid_rect(3);
            for i in 0..4000 {
                oracle.insert(pid(10_000 + i), hot);
                model.push((pid(10_000 + i), hot));
            }
            oracle.flush();
            let rebalances = oracle.rebalance_count();
            let heaviest = (0..8).map(|s| oracle.shard_len(s)).max().unwrap_or(0);
            assert!(heaviest > 4 * (6048 / 8) + 64, "still imbalanced");

            for _ in 0..5 {
                let flush = oracle.flush();
                assert_eq!(flush.rebuilt_shards, 0, "mode {mode:?}: {flush:?}");
            }
            let mut hits = Vec::new();
            for i in [3u64, 0, 77, 200, 255] {
                let p = grid_rect(i).center();
                oracle.match_point_into(&p, &mut hits);
                let mut want: Vec<ProcessId> = model
                    .iter()
                    .filter(|(_, r)| r.contains_point(&p))
                    .map(|&(id, _)| id)
                    .collect();
                want.sort_unstable();
                assert_eq!(hits, want, "mode {mode:?} at {p:?}");
            }
            assert_eq!(oracle.rebalance_count(), rebalances, "mode {mode:?}");
        }
    }

    #[test]
    fn out_of_world_insert_forces_rebalance() {
        let mut oracle: ShardedOracle<2> = ShardedOracle::new(2);
        for i in 0..64 {
            oracle.insert(pid(i), grid_rect(i));
        }
        oracle.flush();
        let before = oracle.rebalance_count();
        oracle.insert(pid(999), Rect::new([5000.0, 5000.0], [5001.0, 5001.0]));
        let flush = oracle.flush();
        assert!(flush.rebalanced);
        assert_eq!(oracle.rebalance_count(), before + 1);
        // The outlier is findable afterwards.
        let mut hits = Vec::new();
        oracle.match_point_into(&Point::new([5000.5, 5000.5]), &mut hits);
        assert_eq!(hits, vec![pid(999)]);
    }

    #[test]
    fn empty_oracle_answers_empty() {
        let mut oracle: ShardedOracle<2> = ShardedOracle::new(3);
        let mut hits = vec![pid(7)];
        oracle.match_point_into(&Point::new([1.0, 1.0]), &mut hits);
        assert!(hits.is_empty());
        let mut batch = BatchMatches::new();
        oracle.match_batch_into(&[Point::new([1.0, 1.0])], &mut batch);
        assert_eq!(batch.probes(), 1);
        assert!(batch.matches(0).is_empty());
        oracle.match_batch_into(&[], &mut batch);
        assert_eq!(batch.probes(), 0);
    }

    #[test]
    fn many_shards_and_fan_path_stay_correct() {
        // Shard counts past any internal buffer width, on both the
        // fused and the fan batch path (regression: a fixed 64-wide
        // stream-base array once made > 64 shards panic).
        for threads in [1usize, 3] {
            let mut oracle: ShardedOracle<2> = ShardedOracle::new(70);
            oracle.set_threads(threads);
            let model: Reference<ProcessId, 2> =
                (0..512).map(|i| (pid(i), grid_rect(i % 256))).collect();
            for &(id, rect) in model.entries() {
                oracle.insert(id, rect);
            }
            let probe = grid_rect(37).center();
            let mut batch = BatchMatches::new();
            oracle.match_batch_into(&[probe], &mut batch);
            let mut single = Vec::new();
            oracle.match_point_into(&probe, &mut single);
            assert!(!single.is_empty());
            assert_eq!(single, model.matching(&probe), "threads={threads}");
            assert_eq!(batch.matches(0), single.as_slice(), "threads={threads}");
        }
    }

    /// Single-point and batched answers over a probe sweep, each
    /// pinned to `model`, for comparing a restored oracle against its
    /// source.
    fn answers(
        oracle: &mut ShardedOracle<2>,
        model: &Reference<ProcessId, 2>,
        probes: &[Point<2>],
    ) -> Vec<Vec<ProcessId>> {
        let mut buf = Vec::new();
        let mut batch = BatchMatches::new();
        oracle.match_batch_into(probes, &mut batch);
        probes
            .iter()
            .enumerate()
            .map(|(i, p)| {
                oracle.match_point_into(p, &mut buf);
                assert_eq!(buf, model.matching(p), "single probe at {p:?}");
                assert_eq!(batch.matches(i), buf.as_slice(), "paths agree at {p:?}");
                buf.clone()
            })
            .collect()
    }

    #[test]
    fn oracle_snapshot_bytes_round_trips_mid_churn() {
        let mut oracle: ShardedOracle<2> = ShardedOracle::new(4);
        let mut model = Reference::new();
        for i in 0..256 {
            oracle.insert(pid(i), grid_rect(i));
            model.insert(pid(i), grid_rect(i));
        }
        oracle.flush();
        // Leave a live delta: staged inserts (one a duplicate id, so
        // the restored id-count rebuild is exercised), a staged
        // removal, and a tombstone.
        for (i, cell) in [(500, 7), (40, 7), (501, 9)] {
            oracle.insert(pid(i), grid_rect(cell));
            model.insert(pid(i), grid_rect(cell));
        }
        for (i, cell) in [(501, 9), (3, 3)] {
            assert!(oracle.remove(pid(i), &grid_rect(cell)));
            assert!(model.remove(pid(i), &grid_rect(cell)));
        }

        let probes: Vec<Point<2>> = (0..256).map(|i| grid_rect(i).center()).collect();
        let want = answers(&mut oracle, &model, &probes);
        let bytes = oracle.snapshot_bytes();
        let mut restored = ShardedOracle::restore_bytes(bytes).expect("restores");
        assert_eq!(restored.len(), oracle.len());
        assert_eq!(restored.shard_count(), oracle.shard_count());
        restored.verify_snapshot().expect("bulk checksums hold");
        assert_eq!(answers(&mut restored, &model, &probes), want);
        // The restored oracle keeps mutating like the original.
        restored.insert(pid(900), grid_rect(11));
        assert!(restored.remove(pid(40), &grid_rect(40)));
        let mut hits = Vec::new();
        restored.match_point_into(&grid_rect(11).center(), &mut hits);
        assert!(hits.contains(&pid(900)));
    }

    #[test]
    fn oracle_snapshot_before_first_flush_round_trips() {
        // No map yet: everything parked in shard 0, HAS_MAP clear.
        let mut oracle: ShardedOracle<2> = ShardedOracle::new(3);
        for i in 0..32 {
            oracle.insert(pid(i), grid_rect(i));
        }
        let bytes = oracle.snapshot_bytes();
        let mut restored = ShardedOracle::restore_bytes(bytes).expect("restores");
        assert_eq!(restored.len(), 32);
        assert!(restored.shard_of(&grid_rect(5)).is_none(), "no map yet");
        let flush = restored.flush();
        assert!(flush.rebalanced, "first flush establishes the map");
        let mut hits = Vec::new();
        restored.match_point_into(&grid_rect(5).center(), &mut hits);
        assert_eq!(hits, vec![pid(5)]);
    }

    #[test]
    fn oracle_restore_rejects_corruption_without_panicking() {
        let mut oracle: ShardedOracle<2> = ShardedOracle::new(4);
        for i in 0..256 {
            oracle.insert(pid(i), grid_rect(i));
        }
        oracle.flush();
        oracle.insert(pid(500), grid_rect(7));
        let good = oracle.snapshot_bytes();

        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            ShardedOracle::<2>::restore_bytes(bad),
            Err(SnapshotError::BadMagic { .. })
        ));

        let mut bad = good.clone();
        bad[4] = 99;
        assert!(matches!(
            ShardedOracle::<2>::restore_bytes(bad),
            Err(SnapshotError::WrongVersion { found: 99, .. })
        ));

        assert!(matches!(
            ShardedOracle::<3>::restore_bytes(good.clone()),
            Err(SnapshotError::WrongDims {
                found: 2,
                expected: 3
            })
        ));

        // A flipped meta byte (first boundary word) fails the eager
        // meta checksum.
        let mut bad = good.clone();
        bad[ORACLE_HEADER_LEN + 1] ^= 0x01;
        assert!(matches!(
            ShardedOracle::<2>::restore_bytes(bad),
            Err(SnapshotError::ChecksumMismatch)
        ));

        // Truncations at every structural boundary return errors.
        for cut in [0, 5, 63, 64, 200, good.len() / 2, good.len() - 1] {
            let err = ShardedOracle::<2>::restore_bytes(good[..cut].to_vec())
                .err()
                .unwrap_or_else(|| panic!("truncation to {cut} accepted"));
            let _ = err.to_string();
        }

        // Deterministic fuzz over the header and meta region: no flip
        // may panic, and any accepted buffer must answer queries.
        for pos in 0..good.len().min(320) {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut fuzzed = good.clone();
                fuzzed[pos] ^= flip;
                if let Ok(mut restored) = ShardedOracle::<2>::restore_bytes(fuzzed) {
                    let mut hits = Vec::new();
                    restored.match_point_into(&grid_rect(7).center(), &mut hits);
                }
            }
        }
    }

    #[test]
    fn duplicate_ids_dedup_in_both_paths() {
        // A subscription set: one id, three member rects in different
        // places, two containing the probe.
        let mut oracle: ShardedOracle<2> = ShardedOracle::new(4);
        oracle.insert(pid(1), Rect::new([0.0, 0.0], [10.0, 10.0]));
        oracle.insert(pid(1), Rect::new([5.0, 5.0], [20.0, 20.0]));
        oracle.insert(pid(1), Rect::new([100.0, 100.0], [110.0, 110.0]));
        oracle.insert(pid(2), Rect::new([0.0, 0.0], [50.0, 50.0]));
        let probe = Point::new([7.0, 7.0]);
        let mut hits = Vec::new();
        oracle.match_point_into(&probe, &mut hits);
        assert_eq!(hits, vec![pid(1), pid(2)]);
        let mut batch = BatchMatches::new();
        oracle.match_batch_into(&[probe], &mut batch);
        assert_eq!(batch.matches(0), &[pid(1), pid(2)]);
        assert_eq!(batch.total_hits(), 2);
    }

    /// Pins every lattice answer of `oracle` to `model`: single probes
    /// through [`ShardedOracle::match_point_into`], or — with
    /// `flush == false` — through the flush-free kernel, so the probed
    /// state is exactly the one the caller built; flushed checks add
    /// one batch over the same lattice.
    fn assert_lattice(
        oracle: &mut ShardedOracle<2>,
        model: &Reference<ProcessId, 2>,
        probes: &[Point<2>],
        flush: bool,
        stage: &str,
    ) {
        let want: Vec<Vec<ProcessId>> = probes.iter().map(|p| model.matching(p)).collect();
        let mut hits = Vec::new();
        for (p, want) in probes.iter().zip(&want) {
            if flush {
                oracle.match_point_into(p, &mut hits);
            } else {
                oracle.stab_point_into(p, &mut hits);
            }
            assert_eq!(&hits, want, "{stage}: single probe at {p:?}");
        }
        if flush {
            let mut batch = BatchMatches::new();
            oracle.match_batch_into(probes, &mut batch);
            for (i, p) in probes.iter().enumerate() {
                assert_eq!(batch.matches(i), want[i], "{stage}: batch at {p:?}");
            }
        }
    }

    /// Removes `(id, rect)` from both the oracle and the model.
    fn remove_both(
        oracle: &mut ShardedOracle<2>,
        model: &mut Reference<ProcessId, 2>,
        id: ProcessId,
        rect: &Rect<2>,
    ) {
        assert!(oracle.remove(id, rect), "{id:?} {rect:?}");
        assert!(model.remove(id, rect));
    }

    /// Moves `(id, old)` to `new` in both the oracle and the model.
    fn move_both(
        oracle: &mut ShardedOracle<2>,
        model: &mut Reference<ProcessId, 2>,
        id: ProcessId,
        old: Rect<2>,
        new: Rect<2>,
    ) {
        assert!(oracle.move_entry(id, &old, new), "{id:?} {old:?}");
        assert!(model.remove(id, &old));
        model.insert(id, new);
    }

    #[test]
    fn single_probes_stay_exact_at_fabric_depth() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(46);
        let mut oracle: ShardedOracle<2> = ShardedOracle::new(4);
        oracle.set_delta_fraction(1e9);
        let mut model = Reference::new();
        let square = |c: [f64; 2], r: f64| Rect::new([c[0] - r, c[1] - r], [c[0] + r, c[1] + r]);
        // Integer coordinates, so lattice probes land on filter edges.
        let random_rect = |rng: &mut StdRng| {
            let x = f64::from(rng.gen_range(0..1000u32));
            let y = f64::from(rng.gen_range(0..1000u32));
            let side = match rng.gen_range(0..100u32) {
                0..=89 => rng.gen_range(1..20u32),
                90..=98 => rng.gen_range(20..80u32),
                _ => rng.gen_range(100..300u32),
            };
            let w = f64::from(side);
            let h = f64::from(rng.gen_range(1..=side));
            Rect::new([x, y], [x + w, y + h])
        };

        // ≈ 20k entries: two frame corners widen the mapped world past
        // the data, so entries staged into the margin fall outside
        // their shard's grid world while staying inside the map's;
        // eight clusters of one 400-wide anchor and twelve movers
        // sharing its center (one curve key, so one leaf subtree whose
        // region the anchor spans).
        let centers: Vec<[f64; 2]> = (0..8)
            .map(|k| [f64::from(250 + 70 * k), f64::from(250 + (k * 190) % 500)])
            .collect();
        let mut next = 0u64;
        let mut add = |oracle: &mut ShardedOracle<2>, model: &mut Reference<_, 2>, rect| {
            oracle.insert(pid(next), rect);
            model.insert(pid(next), rect);
            next += 1;
            (pid(next - 1), rect)
        };
        add(&mut oracle, &mut model, square([-200.0, -200.0], 1.0));
        add(&mut oracle, &mut model, square([1200.0, 1200.0], 1.0));
        let mut movers = Vec::new();
        for &c in &centers {
            add(&mut oracle, &mut model, square(c, 200.0));
            for _ in 0..12 {
                movers.push(add(&mut oracle, &mut model, square(c, 2.0)));
            }
        }
        let mut base = Vec::new();
        while model.len() < 20_000 {
            base.push(add(&mut oracle, &mut model, random_rect(&mut rng)));
        }

        let mut probes = Vec::new();
        for i in 0..16 {
            for j in 0..16 {
                let (x, y) = (f64::from(i * 100 - 240), f64::from(j * 100 - 240));
                probes.push(Point::new([x, y]));
                probes.push(Point::new([x + 13.5, y + 27.25]));
            }
        }
        for &c in &centers {
            // Every resting place of the movers below, plus anchor
            // interior and rim.
            for (dx, dy) in [
                (0.0, 0.0),
                (2.0, 2.0),
                (30.0, 1.0),
                (10.0, -10.0),
                (-40.0, 40.0),
                (-45.0, 45.0),
                (-25.0, 45.0),
                (15.0, -5.0),
                (-150.0, 120.0),
                (199.0, -199.0),
            ] {
                probes.push(Point::new([c[0] + dx, c[1] + dy]));
            }
        }

        // (a) Before the first flush: no map and no grid geometry, so
        // every entry sits in shard 0's staged-overflow tier; staged
        // removals swap-remove and staged moves rewrite in place.
        for _ in 0..200 {
            let (id, rect) = base.swap_remove(rng.gen_range(0..base.len()));
            remove_both(&mut oracle, &mut model, id, &rect);
        }
        for _ in 0..200 {
            let i = rng.gen_range(0..base.len());
            let (id, old) = base[i];
            let new = random_rect(&mut rng);
            move_both(&mut oracle, &mut model, id, old, new);
            base[i].1 = new;
        }
        assert!(oracle.shards.iter().all(|s| s.grid.offsets.is_empty()));
        assert_lattice(
            &mut oracle,
            &model,
            &probes,
            false,
            "before the first flush",
        );

        assert!(oracle.flush().rebalanced, "the first flush maps the world");
        let rebalances = oracle.rebalance_count();

        // The delta layer at fabric depth: staged inserts past a
        // quarter of the data, some into the frame margin, one
        // half-open filter, one duplicate id; tombstones and staged
        // swap-removals.
        let mut staged = Vec::new();
        for i in 0..7_000 {
            let mut rect = random_rect(&mut rng);
            if i % 50 == 0 {
                let shift = [-190.0, 1010.0][i / 50 % 2];
                rect = Rect::new([shift, rect.lo(1)], [shift + 60.0, rect.hi(1)]);
            }
            staged.push(add(&mut oracle, &mut model, rect));
        }
        add(
            &mut oracle,
            &mut model,
            Rect::new([300.0, 200.0], [f64::INFINITY, 260.0]),
        );
        let (dup_id, dup_rect) = base.swap_remove(7);
        let dup = square(*dup_rect.center().coords(), 40.0);
        oracle.insert(dup_id, dup);
        model.insert(dup_id, dup);
        for _ in 0..1_500 {
            let (id, rect) = base.swap_remove(rng.gen_range(0..base.len()));
            remove_both(&mut oracle, &mut model, id, &rect);
        }
        for _ in 0..500 {
            let (id, rect) = staged.swap_remove(rng.gen_range(0..staged.len()));
            remove_both(&mut oracle, &mut model, id, &rect);
        }
        let margin = staged
            .iter()
            .filter(|(_, r)| r.lo(0) < 0.0 || r.hi(0) > 1000.0)
            .filter(|(_, r)| {
                let s = &oracle.shards[oracle.shard_of(r).expect("mapped")];
                GridMapper::world_of(s.packed.entries().map(|(_, _, r)| r))
                    .is_some_and(|world| !world.contains_rect(r))
            })
            .count();
        assert!(
            margin > 0,
            "some staged entries lie outside their grid world"
        );

        // In-place moves of every kind, inside the anchors' subtree
        // regions: a jitter within the cell range, a shift out of it,
        // a growth past `MAX_CELL_SPAN` cells and back, a growth that
        // stays in the overflow tier.
        for (n, (id, rect)) in movers.iter_mut().enumerate() {
            let c = *rect.center().coords();
            let mut hops = vec![
                square([c[0] + 0.25, c[1]], 2.0),
                square([c[0] + 30.0, c[1]], 2.0),
            ];
            match n % 3 {
                0 => hops.push(square(c, 190.0)),
                1 => hops.extend([square(c, 190.0), square([c[0] + 10.0, c[1] - 10.0], 2.0)]),
                _ => hops.push(square([c[0] - 40.0, c[1] + 40.0], 3.0)),
            }
            for new in hops {
                move_both(&mut oracle, &mut model, *id, *rect, new);
                *rect = new;
            }
        }
        let grids = || oracle.shards.iter().map(|s| &s.grid);
        assert!(
            grids().any(|g| !g.moved_overflow.is_empty()),
            "overflow moves"
        );
        assert!(grids().any(|g| !g.moved_cells.is_empty()), "cell moves");
        assert!(
            grids().any(|g| !g.staged_overflow.is_empty()),
            "wide staged entries"
        );
        let staged_len: usize = oracle.shards.iter().map(|s| s.packed.staged_len()).sum();
        assert!(
            4 * staged_len >= oracle.len(),
            "{staged_len} of {}",
            oracle.len()
        );
        assert!(oracle.shards.iter().all(|s| s.packed.tombstone_count() > 0));
        assert_lattice(&mut oracle, &model, &probes, false, "delta at depth");
        assert_lattice(
            &mut oracle,
            &model,
            &probes,
            true,
            "delta at depth, flushed",
        );
        assert_eq!(oracle.rebalance_count(), rebalances, "the delta survived");

        // (b) During a concurrent compaction of every shard, with
        // second-generation churn: frozen staged entries retire,
        // packed moves restage, new entries stage past the frozen
        // prefix.
        oracle.set_compaction_mode(CompactionMode::Concurrent);
        oracle.set_threads(4);
        oracle.set_delta_fraction(0.0);
        assert_eq!(oracle.flush().begun_compactions, 4);
        oracle.set_delta_fraction(1e9);
        for _ in 0..300 {
            let (id, rect) = staged.swap_remove(rng.gen_range(0..staged.len()));
            remove_both(&mut oracle, &mut model, id, &rect);
        }
        for _ in 0..300 {
            let (id, rect) = base.swap_remove(rng.gen_range(0..base.len()));
            remove_both(&mut oracle, &mut model, id, &rect);
        }
        for (id, rect) in movers.iter_mut().chain(staged.iter_mut().take(200)) {
            let c = rect.center();
            let new = square([c.coord(0) - 5.0, c.coord(1) + 5.0], 2.0);
            move_both(&mut oracle, &mut model, *id, *rect, new);
            *rect = new;
        }
        for _ in 0..500 {
            staged.push(add(&mut oracle, &mut model, random_rect(&mut rng)));
        }
        assert_eq!(oracle.compacting_shards(), 4);
        assert_lattice(&mut oracle, &model, &probes, false, "mid-compaction");
        assert_lattice(
            &mut oracle,
            &model,
            &probes,
            true,
            "mid-compaction, flushed",
        );
        oracle.finish_compactions();
        assert_lattice(&mut oracle, &model, &probes, true, "after install");

        // (c) After a restore: a mid-churn snapshot (staged entries,
        // tombstones, slots moved in place) wakes up with no grid.
        for (id, rect) in movers.iter_mut() {
            let c = rect.center();
            let new = square([c.coord(0) + 20.0, c.coord(1)], 2.0);
            move_both(&mut oracle, &mut model, *id, *rect, new);
            *rect = new;
        }
        for _ in 0..300 {
            let (id, rect) = base.swap_remove(rng.gen_range(0..base.len()));
            remove_both(&mut oracle, &mut model, id, &rect);
            staged.push(add(&mut oracle, &mut model, random_rect(&mut rng)));
        }
        let mut restored = ShardedOracle::restore_bytes(oracle.snapshot_bytes()).expect("restores");
        assert_lattice(&mut restored, &model, &probes, true, "restored");
        for (id, rect) in movers.iter_mut() {
            let new = square(*rect.center().coords(), 190.0);
            move_both(&mut restored, &mut model, *id, *rect, new);
            *rect = new;
        }
        assert_lattice(&mut restored, &model, &probes, true, "restored, churned");

        // An entry past the mapped world: exact while staged, then
        // absorbed by the redistribute its flush triggers.
        add(&mut restored, &mut model, square([1300.0, 1300.0], 5.0));
        let outside = [Point::new([1300.0, 1300.0]), Point::new([1296.0, 1304.5])];
        assert_lattice(&mut restored, &model, &outside, false, "past the world");
        assert_lattice(
            &mut restored,
            &model,
            &outside,
            true,
            "past the world, flushed",
        );
        assert!(restored.rebalance_count() > 0);
    }
}
