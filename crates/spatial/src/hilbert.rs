//! D-dimensional Hilbert curve indexing.
//!
//! The packed R-tree backend (`drtree-rtree`) orders entries along a
//! Hilbert space-filling curve before tiling them into nodes: entries
//! adjacent on the curve are adjacent in space, so bottom-up packing
//! yields nodes with small, well-separated MBRs — the same construction
//! flat spatial indexes like flatbush/geo-index use.
//!
//! The transformation from axis coordinates to a Hilbert index is John
//! Skilling's transpose algorithm ("Programming the Hilbert curve",
//! AIP 2004), which works in any dimension: coordinates are converted
//! in place to the *transpose* of the index (one bit-plane per
//! dimension), then the planes are interleaved into a single integer.
//!
//! # Example
//!
//! ```
//! use drtree_spatial::hilbert::{hilbert_index, GridMapper, HILBERT_ORDER};
//! use drtree_spatial::Rect;
//!
//! // Raw curve: nearby cells get nearby indexes.
//! let a = hilbert_index([1u32, 2]);
//! let b = hilbert_index([1u32, 3]);
//! assert!(a.abs_diff(b) < hilbert_index([40_000u32, 60_000]).abs_diff(a));
//!
//! // Mapping rectangle centers onto the curve's grid.
//! let world: Rect<2> = Rect::new([0.0, 0.0], [100.0, 100.0]);
//! let mapper = GridMapper::new(&world);
//! let key = mapper.key(&Rect::new([10.0, 10.0], [12.0, 12.0]));
//! assert!(key < 1u128 << (2 * HILBERT_ORDER));
//! ```

use crate::{Point, Rect};

/// Bits of Hilbert resolution per dimension.
///
/// This is the order used up to 8 dimensions (`8 × 16 = 128` bits, the
/// `u128` limit); wider spaces automatically coarsen — see
/// [`order_for`]. 16 bits per axis is a 65536-cell grid, far finer
/// than node-size-16 tiling can distinguish.
pub const HILBERT_ORDER: u32 = 16;

/// Bits of resolution per dimension actually used for `D` dimensions:
/// [`HILBERT_ORDER`] capped so `D · order ≤ 128` always holds.
///
/// Past 128 dimensions the order reaches 0 and every key collapses to
/// 0 — curve quality is a *packing heuristic* only, so consumers stay
/// correct (searches never depend on key quality), they just lose
/// locality-aware packing.
pub const fn order_for(dims: usize) -> u32 {
    match 128usize.checked_div(dims) {
        None => HILBERT_ORDER, // zero-dimensional: order is moot
        Some(fit) if (fit as u32) < HILBERT_ORDER => fit as u32,
        Some(_) => HILBERT_ORDER,
    }
}

/// The Hilbert index of a grid cell, for coordinates already quantized
/// to [`order_for`]`(D)` bits per dimension.
///
/// Coordinates wider than `order_for(D)` bits are masked down (so the
/// curve never overflows `u128`, whatever `D` is). For `D = 0` — or a
/// `D` so large the per-dimension order reaches 0 — the index is 0.
pub fn hilbert_index<const D: usize>(coords: [u32; D]) -> u128 {
    let order = order_for(D);
    if D == 0 || order == 0 {
        return 0;
    }
    let mut x = coords.map(|c| c & ((1u32 << order) - 1));
    axes_to_transpose(&mut x, order);
    interleave(&x, order)
}

/// Skilling's `AxestoTranspose`: converts axis coordinates, in place,
/// into the transposed Hilbert index (bit-plane form).
///
/// The textbook formulation branches on a data-dependent bit twice per
/// `(bit-plane, dimension)` pair — ~30 unpredictable branches per key
/// in 2-D, which made key derivation dominate bulk loading. Both
/// conditionals are expressed here as mask arithmetic instead; the body
/// is straight-line code the compiler can pipeline.
fn axes_to_transpose<const D: usize>(x: &mut [u32; D], order: u32) {
    let high = 1u32 << (order - 1);

    // Inverse undo. Per element: invert the low bits of x[0] when the
    // current bit of x[i] is set, otherwise swap the differing low bits
    // of x[0] and x[i]. `mask` selects between the two outcomes.
    let mut q = high;
    while q > 1 {
        let p = q - 1;
        for i in 0..D {
            let mask = u32::from(x[i] & q != 0).wrapping_neg();
            let swap = (x[0] ^ x[i]) & p & !mask;
            x[0] ^= (p & mask) | swap;
            x[i] ^= swap;
        }
        q >>= 1;
    }

    // Gray encode.
    for i in 1..D {
        x[i] ^= x[i - 1];
    }
    let mut t = 0;
    let mut q = high;
    while q > 1 {
        t ^= (q - 1) & u32::from(x[D - 1] & q != 0).wrapping_neg();
        q >>= 1;
    }
    for v in x.iter_mut() {
        *v ^= t;
    }
}

/// Interleaves the transposed bit-planes into a single index:
/// the index's most significant bit is the top bit of `x[0]`, then the
/// top bit of `x[1]`, …, down through the bit-planes.
fn interleave<const D: usize>(x: &[u32; D], order: u32) -> u128 {
    if D == 2 {
        // Bulk-load hot path (2-D always runs at full order):
        // bit-spread instead of the 32-step loop.
        return u128::from(spread16(x[0]) << 1 | spread16(x[1]));
    }
    let mut out = 0u128;
    for bit in (0..order).rev() {
        for v in x {
            out = (out << 1) | u128::from((v >> bit) & 1);
        }
    }
    out
}

/// The Morton (Z-order) index of a grid cell: plain bit interleaving,
/// no Hilbert transpose.
///
/// Morton ordering has slightly coarser locality than Hilbert (the
/// "Z" jumps at quadrant seams) but costs a fraction of the
/// derivation work, which makes it the right curve when keys are
/// computed *per query* rather than per build — e.g. ordering a batch
/// of publish probes so consecutive probes stay cache-local. Index
/// packing (bulk loads, shard assignment) keeps the Hilbert curve.
pub fn morton_index<const D: usize>(coords: [u32; D]) -> u128 {
    let order = order_for(D);
    if D == 0 || order == 0 {
        return 0;
    }
    let x = coords.map(|c| c & ((1u32 << order) - 1));
    interleave(&x, order)
}

/// Largest grid coordinate for `D` dimensions (0 when the order
/// collapses to 0 past 128 dimensions).
const fn max_cell_for<const D: usize>() -> u32 {
    let order = order_for(D);
    if order == 0 {
        0
    } else {
        (1u32 << order) - 1
    }
}

/// Spreads the low 16 bits of `v` into the even bit positions of a
/// `u32` (classic Morton-style bit spreading).
fn spread16(v: u32) -> u64 {
    let mut v = u64::from(v & 0xffff);
    v = (v | (v << 8)) & 0x00ff_00ff;
    v = (v | (v << 4)) & 0x0f0f_0f0f;
    v = (v | (v << 2)) & 0x3333_3333;
    v = (v | (v << 1)) & 0x5555_5555;
    v
}

/// Maps rectangle centers into the Hilbert grid of a bounded world.
///
/// Subscription rectangles may be unbounded (`±∞` bounds compile from
/// half-open filters, and `Rect::everything()` has a NaN center), so
/// the mapper clamps every center coordinate into the world's extent
/// before quantizing; non-finite centers land on the world's midpoint
/// or edges. The curve order only affects packing quality — queries
/// remain exact regardless of where an entry lands on the curve.
#[derive(Debug, Clone)]
pub struct GridMapper<const D: usize> {
    lo: [f64; D],
    scale: [f64; D],
}

impl<const D: usize> GridMapper<D> {
    /// A mapper for centers inside `world` (commonly the MBR of the
    /// finite entries being indexed).
    pub fn new(world: &Rect<D>) -> Self {
        let mut lo = [0.0; D];
        let mut scale = [0.0; D];
        let cells = f64::from(max_cell_for::<D>());
        for d in 0..D {
            let l = if world.lo(d).is_finite() {
                world.lo(d)
            } else {
                0.0
            };
            let h = if world.hi(d).is_finite() {
                world.hi(d)
            } else {
                l + 1.0
            };
            lo[d] = l;
            let extent = h - l;
            scale[d] = if extent > 0.0 { cells / extent } else { 0.0 };
        }
        Self { lo, scale }
    }

    /// The world MBR of an entry set, ignoring non-finite bounds.
    /// `None` when no finite coordinate exists in some dimension.
    pub fn world_of<'a, I>(rects: I) -> Option<Rect<D>>
    where
        I: IntoIterator<Item = &'a Rect<D>>,
    {
        let mut lo = [f64::INFINITY; D];
        let mut hi = [f64::NEG_INFINITY; D];
        for r in rects {
            for d in 0..D {
                if r.lo(d).is_finite() {
                    lo[d] = lo[d].min(r.lo(d));
                }
                if r.hi(d).is_finite() {
                    hi[d] = hi[d].max(r.hi(d));
                }
            }
        }
        if (0..D).all(|d| lo[d] <= hi[d]) {
            Some(Rect::new(lo, hi))
        } else {
            None
        }
    }

    /// The Hilbert key of a point (a zero-extent rectangle's center).
    pub fn key_of_point(&self, point: &Point<D>) -> u128 {
        self.key(&Rect::from_point(point))
    }

    /// The Morton key of a point — the cheap sibling of
    /// [`GridMapper::key_of_point`] for per-query batch ordering (see
    /// [`morton_index`]).
    pub fn morton_key_of_point(&self, point: &Point<D>) -> u128 {
        let mut coords = [0u32; D];
        let max_cell = max_cell_for::<D>();
        for (d, coord) in coords.iter_mut().enumerate() {
            let c = point.coord(d);
            let cell = if c.is_nan() {
                f64::from(max_cell) / 2.0
            } else {
                (c - self.lo[d]) * self.scale[d]
            };
            *coord = (cell.clamp(0.0, f64::from(max_cell))) as u32;
        }
        morton_index(coords)
    }

    /// The Hilbert key of `rect`'s (clamped) center.
    pub fn key(&self, rect: &Rect<D>) -> u128 {
        let mut coords = [0u32; D];
        let max_cell = max_cell_for::<D>();
        for (d, coord) in coords.iter_mut().enumerate() {
            // Computed from the raw bounds: an unbounded dimension has a
            // non-finite (possibly NaN) midpoint, which `Rect::center`
            // would reject.
            let c = rect.lo(d) / 2.0 + rect.hi(d) / 2.0;
            let cell = if c.is_nan() {
                f64::from(max_cell) / 2.0
            } else {
                (c - self.lo[d]) * self.scale[d]
            };
            *coord = (cell.clamp(0.0, f64::from(max_cell))) as u32;
        }
        hilbert_index(coords)
    }
}

/// Partitions rectangles into `K` shards by the Hilbert key of their
/// center — the shard-assignment rule of the sharded publish oracle
/// (`drtree-pubsub`).
///
/// The key space is split into `K` **contiguous curve ranges**, so each
/// shard receives a spatially local slice of the world (the curve is
/// measure-preserving: uniform centers give uniform keys, hence
/// balanced shards). Locality matters twice over: a shard's own packed
/// tree gets well-separated nodes, and a point query can prune whole
/// shards by their root MBR because shards tile the space instead of
/// interleaving it.
///
/// Range ends live in explicit `boundaries`, so the split need not be
/// even in key space: [`ShardMap::new`] splits the key space evenly
/// (right for uniform worlds), while [`ShardMap::from_sorted_keys`]
/// splits at the *count quantiles* of an observed key population —
/// the form a rebalancing owner uses so clustered workloads still get
/// even shard loads.
///
/// Assignment is a pure function of the rectangle and the (fixed)
/// world, so an entry can always be *found again* for removal without
/// any id→shard bookkeeping. Rebalancing (changing the world, the
/// boundaries, or `K`) is the owner's job; the map itself never
/// mutates.
///
/// # Example
///
/// ```
/// use drtree_spatial::hilbert::ShardMap;
/// use drtree_spatial::Rect;
///
/// let world: Rect<2> = Rect::new([0.0, 0.0], [100.0, 100.0]);
/// let map = ShardMap::new(4, &world);
/// let near_origin = map.shard_of(&Rect::new([1.0, 1.0], [2.0, 2.0]));
/// let far_corner = map.shard_of(&Rect::new([97.0, 97.0], [99.0, 99.0]));
/// assert!(near_origin < 4 && far_corner < 4);
/// // Opposite ends of the curve land in different shards.
/// assert_ne!(near_origin, far_corner);
/// ```
#[derive(Debug, Clone)]
pub struct ShardMap<const D: usize> {
    mapper: GridMapper<D>,
    world: Rect<D>,
    /// Ascending range ends: shard `i` owns keys `k` with
    /// `boundaries[i-1] <= k < boundaries[i]` (open-ended at the rim).
    boundaries: Vec<u128>,
}

impl<const D: usize> ShardMap<D> {
    /// A map over `world` with `shards` shards (clamped to ≥ 1),
    /// splitting the key space into even ranges.
    pub fn new(shards: usize, world: &Rect<D>) -> Self {
        let shards = shards.max(1);
        let bits = D as u32 * order_for(D);
        let max_key = if bits >= 128 {
            u128::MAX
        } else {
            (1u128 << bits) - 1
        };
        let step = max_key / shards as u128 + 1;
        Self {
            mapper: GridMapper::new(world),
            world: *world,
            boundaries: (1..shards as u128).map(|i| step * i).collect(),
        }
    }

    /// A map over `world` whose ranges split `sorted_keys` (the key
    /// population to balance, ascending) at its count quantiles: every
    /// shard owns ~`len / shards` of the observed keys, whatever their
    /// distribution. Keys must come from a [`GridMapper`] over the
    /// same `world`. With an empty population this falls back to the
    /// even split of [`ShardMap::new`].
    pub fn from_sorted_keys(shards: usize, world: &Rect<D>, sorted_keys: &[u128]) -> Self {
        let shards = shards.max(1);
        if sorted_keys.is_empty() {
            return Self::new(shards, world);
        }
        debug_assert!(sorted_keys.windows(2).all(|w| w[0] <= w[1]));
        let n = sorted_keys.len();
        Self {
            mapper: GridMapper::new(world),
            world: *world,
            boundaries: (1..shards).map(|i| sorted_keys[i * n / shards]).collect(),
        }
    }

    /// A map over `world` with exactly the given ascending range ends
    /// — the restore path of serialized sharded indexes, rebuilding
    /// the assignment that produced a snapshot. `boundaries.len() + 1`
    /// shards result.
    ///
    /// # Panics
    ///
    /// Panics if `boundaries` is not ascending.
    pub fn from_boundaries(world: &Rect<D>, boundaries: Vec<u128>) -> Self {
        assert!(
            boundaries.windows(2).all(|w| w[0] <= w[1]),
            "shard boundaries must ascend"
        );
        Self {
            mapper: GridMapper::new(world),
            world: *world,
            boundaries,
        }
    }

    /// Number of shards keys are partitioned into.
    pub fn shards(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// The world the underlying grid quantizes against.
    pub fn world(&self) -> &Rect<D> {
        &self.world
    }

    /// The grid mapper behind the assignment (for callers that also
    /// need raw curve keys, e.g. to order probe points).
    pub fn mapper(&self) -> &GridMapper<D> {
        &self.mapper
    }

    /// `true` when every *finite* bound of `rect` lies inside the
    /// world. Non-finite bounds clamp identically under any world, so
    /// they never force a rebalance.
    pub fn covers(&self, rect: &Rect<D>) -> bool {
        (0..D).all(|d| {
            (!rect.lo(d).is_finite() || rect.lo(d) >= self.world.lo(d))
                && (!rect.hi(d).is_finite() || rect.hi(d) <= self.world.hi(d))
        })
    }

    /// The shard owning `rect`: its center's Hilbert key, mapped
    /// proportionally onto `0..shards` (contiguous curve ranges).
    pub fn shard_of(&self, rect: &Rect<D>) -> usize {
        self.shard_of_key(self.mapper.key(rect))
    }

    /// The shard owning a raw curve key (see [`ShardMap::shard_of`]):
    /// the index of the first boundary above it.
    pub fn shard_of_key(&self, key: u128) -> usize {
        self.boundaries.partition_point(|&b| b <= key)
    }

    /// The ascending range ends: shard `i` owns keys in
    /// `boundaries[i-1]..boundaries[i]` (open-ended at the rim).
    pub fn boundaries(&self) -> &[u128] {
        &self.boundaries
    }

    /// The contiguous curve-key range shard `shard` owns, as a
    /// half-open `(lo, hi)` pair: keys `k` with `lo <= k < hi` belong
    /// to the shard. The rim shard's range is open-ended and reported
    /// as `hi == u128::MAX` (consistent with [`ShardMap::shard_of_key`],
    /// which assigns every key at or above the last boundary to the
    /// rim). Used by the broker federation layer, where each broker
    /// owns one such range of the whole subscription space.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shards()`.
    pub fn range_of(&self, shard: usize) -> (u128, u128) {
        assert!(shard < self.shards(), "shard {shard} out of range");
        let lo = if shard == 0 {
            0
        } else {
            self.boundaries[shard - 1]
        };
        let hi = self.boundaries.get(shard).copied().unwrap_or(u128::MAX);
        (lo, hi)
    }

    /// The curve neighbors of `shard` on the shard ring, as
    /// `(predecessor, successor)`. Contiguous curve ranges make curve
    /// neighbors spatial neighbors too (the Hilbert locality the whole
    /// sharding scheme rests on), so they are the natural holders of a
    /// shard's replicas: when the owner of a range crashes, its ring
    /// neighbors cover it. With two shards both neighbors coincide;
    /// with one shard the shard is its own neighbor.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shards()`.
    pub fn neighbors(&self, shard: usize) -> (usize, usize) {
        let k = self.shards();
        assert!(shard < k, "shard {shard} out of range");
        ((shard + k - 1) % k, (shard + 1) % k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Injectivity on a 64×64 sub-grid at the origin: every cell gets
    /// a distinct index. (Full 2^16-resolution coverage can't be
    /// brute-forced; continuity is checked separately below on the
    /// curve's prefix.)
    #[test]
    fn two_dimensional_curve_is_a_bijection_on_subgrids() {
        use std::collections::BTreeSet;
        let n = 64u32;
        let mut seen = BTreeSet::new();
        for x in 0..n {
            for y in 0..n {
                assert!(seen.insert(hilbert_index([x, y])), "collision at ({x},{y})");
            }
        }
        assert_eq!(seen.len(), (n * n) as usize);
    }

    /// The full-resolution 2-D curve is continuous: cells with
    /// consecutive indexes are orthogonal neighbors. Verified on a
    /// contiguous index window by inverting via exhaustive search over
    /// a bounded neighborhood (the curve stays local).
    #[test]
    fn consecutive_indexes_are_neighbors_locally() {
        // Walk a small square and record index -> cell.
        let n = 32u32;
        let mut cells = std::collections::BTreeMap::new();
        for x in 0..n {
            for y in 0..n {
                cells.insert(hilbert_index([x, y]), (x, y));
            }
        }
        // The lowest n*n indexes form the curve's prefix (the curve
        // fills sub-squares before leaving them), so consecutive
        // indexes in that prefix must be grid neighbors.
        let prefix: Vec<_> = cells.iter().take((n * n) as usize).collect();
        assert_eq!(*prefix[0].0, 0, "curve starts at index 0");
        for w in prefix.windows(2) {
            let (&ia, &(xa, ya)) = w[0];
            let (&ib, &(xb, yb)) = w[1];
            if ib == ia + 1 {
                let dist = xa.abs_diff(xb) + ya.abs_diff(yb);
                assert_eq!(dist, 1, "indexes {ia},{ib} at ({xa},{ya})->({xb},{yb})");
            }
        }
    }

    #[test]
    fn high_dimensional_spaces_coarsen_instead_of_panicking() {
        // 9 × 16 = 144 > 128: the order drops to 14 bits per axis.
        assert_eq!(order_for(9), 14);
        assert_eq!(order_for(64), 2);
        assert_eq!(order_for(200), 0);
        let a = hilbert_index([1u32; 9]);
        let b = hilbert_index([2u32; 9]);
        assert_ne!(a, b);
        // Collapsed order: all keys are 0, harmlessly.
        assert_eq!(hilbert_index([5u32; 130]), 0);

        // A 9-D mapper still produces usable keys end to end.
        let world: Rect<9> = Rect::new([0.0; 9], [100.0; 9]);
        let mapper = GridMapper::new(&world);
        let lo = mapper.key(&Rect::new([1.0; 9], [2.0; 9]));
        let hi = mapper.key(&Rect::new([90.0; 9], [95.0; 9]));
        assert_ne!(lo, hi);
    }

    #[test]
    fn morton_is_injective_and_local() {
        use std::collections::BTreeSet;
        let n = 32u32;
        let mut seen = BTreeSet::new();
        for x in 0..n {
            for y in 0..n {
                assert!(seen.insert(morton_index([x, y])), "collision at ({x},{y})");
            }
        }
        // Quadrant prefix property: the lowest 16 indexes tile the 4x4
        // origin block.
        let lowest: Vec<u128> = seen.iter().copied().take(16).collect();
        for x in 0..4u32 {
            for y in 0..4 {
                assert!(lowest.contains(&morton_index([x, y])));
            }
        }
        // Degenerate dimensionalities behave like the Hilbert path.
        assert_eq!(morton_index([5u32; 130]), 0);

        // Mapper form agrees with quantize-then-interleave.
        let world: Rect<2> = Rect::new([0.0, 0.0], [100.0, 100.0]);
        let mapper = GridMapper::new(&world);
        let a = mapper.morton_key_of_point(&Point::new([10.0, 10.0]));
        let b = mapper.morton_key_of_point(&Point::new([10.1, 10.1]));
        let c = mapper.morton_key_of_point(&Point::new([90.0, 90.0]));
        assert!(a.abs_diff(b) < a.abs_diff(c));
    }

    #[test]
    fn three_dimensional_indexes_are_distinct() {
        use std::collections::BTreeSet;
        let n = 16u32;
        let mut seen = BTreeSet::new();
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    assert!(seen.insert(hilbert_index([x, y, z])));
                }
            }
        }
        assert_eq!(seen.len(), (n * n * n) as usize);
    }

    #[test]
    fn grid_mapper_handles_unbounded_rects() {
        let world: Rect<2> = Rect::new([0.0, 0.0], [100.0, 100.0]);
        let mapper = GridMapper::new(&world);
        // Fully unbounded: NaN center lands mid-grid without panicking.
        let everything = Rect::<2>::everything();
        let _ = mapper.key(&everything);
        // Half-bounded: clamps to the world edge.
        let half = Rect::new([50.0, 50.0], [f64::INFINITY, 60.0]);
        let _ = mapper.key(&half);
        // Orders by locality: close rects get closer keys than far ones.
        let a = mapper.key(&Rect::new([1.0, 1.0], [2.0, 2.0]));
        let b = mapper.key(&Rect::new([1.0, 2.0], [2.0, 3.0]));
        let c = mapper.key(&Rect::new([90.0, 95.0], [99.0, 99.0]));
        assert!(a.abs_diff(b) < a.abs_diff(c));
    }

    #[test]
    fn world_of_ignores_infinite_bounds() {
        let rects = [
            Rect::new([0.0, 0.0], [10.0, 10.0]),
            Rect::new([5.0, 5.0], [f64::INFINITY, 20.0]),
        ];
        let world = GridMapper::world_of(rects.iter()).unwrap();
        assert_eq!(world, Rect::new([0.0, 0.0], [10.0, 20.0]));
        assert_eq!(GridMapper::<2>::world_of([].iter()), None);
    }

    #[test]
    fn shard_map_assignment_is_total_and_balanced() {
        let world: Rect<2> = Rect::new([0.0, 0.0], [1000.0, 1000.0]);
        for shards in [1usize, 2, 4, 7, 8] {
            let map = ShardMap::new(shards, &world);
            let mut counts = vec![0usize; shards];
            for i in 0..4096 {
                // Low-discrepancy-ish scatter across the world.
                let x = (i % 64) as f64 * 15.0 + 1.0;
                let y = (i / 64) as f64 * 15.0 + 1.0;
                let s = map.shard_of(&Rect::new([x, y], [x + 5.0, y + 5.0]));
                assert!(s < shards);
                counts[s] += 1;
            }
            // Contiguous-range split of a space-filling curve over a
            // uniform grid: no shard may be empty or hold a majority
            // (for K > 1).
            if shards > 1 {
                for (s, &c) in counts.iter().enumerate() {
                    assert!(c > 0, "shard {s}/{shards} empty");
                    assert!(c < 4096 * 3 / 4, "shard {s}/{shards} holds {c}/4096");
                }
            }
        }
    }

    #[test]
    fn quantile_split_balances_clustered_keys() {
        // All mass in one corner: an even key-space split would dump
        // every entry into one shard; quantile boundaries spread them.
        let world: Rect<2> = Rect::new([0.0, 0.0], [1000.0, 1000.0]);
        let mapper = GridMapper::new(&world);
        let rects: Vec<Rect<2>> = (0..512)
            .map(|i| {
                let x = (i % 32) as f64 * 0.3;
                let y = (i / 32) as f64 * 0.3;
                Rect::new([x, y], [x + 0.1, y + 0.1])
            })
            .collect();
        let mut keys: Vec<u128> = rects.iter().map(|r| mapper.key(r)).collect();
        keys.sort_unstable();
        let map = ShardMap::from_sorted_keys(4, &world, &keys);
        let mut counts = [0usize; 4];
        for r in &rects {
            counts[map.shard_of(r)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (64..=256).contains(&c),
                "quantile shard {s} holds {c}/512 — not balanced"
            );
        }
        // Degenerate population: falls back to the even split.
        let empty = ShardMap::from_sorted_keys(4, &world, &[]);
        assert_eq!(empty.shards(), 4);
    }

    #[test]
    fn shard_map_is_stable_and_covers() {
        let world: Rect<2> = Rect::new([0.0, 0.0], [100.0, 100.0]);
        let map = ShardMap::new(4, &world);
        let r = Rect::new([10.0, 20.0], [15.0, 25.0]);
        assert_eq!(map.shard_of(&r), map.shard_of(&r));
        assert!(map.covers(&r));
        assert!(!map.covers(&Rect::new([-5.0, 0.0], [1.0, 1.0])));
        // Unbounded dimensions clamp stably: they never force growth.
        assert!(map.covers(&Rect::new([10.0, 10.0], [f64::INFINITY, 20.0])));
        // High-dimensional keys (bits > 64) still partition totally.
        let world9: Rect<9> = Rect::new([0.0; 9], [10.0; 9]);
        let map9 = ShardMap::new(5, &world9);
        for i in 0..10 {
            let o = f64::from(i);
            assert!(map9.shard_of(&Rect::new([o; 9], [o + 0.4; 9])) < 5);
        }
    }

    #[test]
    fn range_of_partitions_the_key_space_and_agrees_with_shard_of_key() {
        let world: Rect<2> = Rect::new([0.0, 0.0], [1000.0, 1000.0]);
        for shards in [1usize, 2, 4, 7] {
            let map = ShardMap::new(shards, &world);
            // Ranges tile the key space: consecutive, ascending, with
            // the rim open-ended.
            let mut expect_lo = 0u128;
            for s in 0..shards {
                let (lo, hi) = map.range_of(s);
                assert_eq!(lo, expect_lo, "shard {s}/{shards} range gap");
                assert!(lo < hi, "shard {s}/{shards} range empty");
                expect_lo = hi;
            }
            assert_eq!(map.range_of(shards - 1).1, u128::MAX);
            // Boundary keys and interior keys land where range_of says.
            for s in 0..shards {
                let (lo, hi) = map.range_of(s);
                assert_eq!(map.shard_of_key(lo), s);
                let mid = lo + (hi - lo) / 2;
                assert_eq!(map.shard_of_key(mid), s);
            }
        }
    }

    #[test]
    fn ring_neighbors_wrap_and_degenerate_sanely() {
        let world: Rect<2> = Rect::new([0.0, 0.0], [100.0, 100.0]);
        let map = ShardMap::new(4, &world);
        assert_eq!(map.neighbors(0), (3, 1));
        assert_eq!(map.neighbors(1), (0, 2));
        assert_eq!(map.neighbors(3), (2, 0));
        // Two shards: both neighbors are the single other shard.
        let two = ShardMap::new(2, &world);
        assert_eq!(two.neighbors(0), (1, 1));
        assert_eq!(two.neighbors(1), (0, 0));
        // One shard: self-neighboring, not a panic.
        let one = ShardMap::new(1, &world);
        assert_eq!(one.neighbors(0), (0, 0));
    }

    #[test]
    fn point_keys_match_zero_extent_rects() {
        let world: Rect<2> = Rect::new([0.0, 0.0], [100.0, 100.0]);
        let mapper = GridMapper::new(&world);
        let p = Point::new([33.0, 66.0]);
        assert_eq!(
            mapper.key_of_point(&p),
            mapper.key(&Rect::new([33.0, 66.0], [33.0, 66.0]))
        );
    }

    #[test]
    fn degenerate_world() {
        // Zero-extent world: everything maps to one cell, harmlessly.
        let world: Rect<2> = Rect::new([5.0, 5.0], [5.0, 5.0]);
        let mapper = GridMapper::new(&world);
        assert_eq!(
            mapper.key(&Rect::new([5.0, 5.0], [5.0, 5.0])),
            mapper.key(&Rect::new([4.0, 4.0], [6.0, 6.0]))
        );
    }
}
