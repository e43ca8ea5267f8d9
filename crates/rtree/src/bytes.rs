//! Vendor-free POD casting and the flat-buffer toolkit behind the
//! packed tree's zero-copy snapshots.
//!
//! The snapshot format ([`crate::PackedRTree::save`]) stores every
//! large array — entry rectangles, per-level node MBRs, curve keys —
//! as little-endian machine words at 64-byte-aligned offsets, so a
//! loaded buffer can serve queries *in place*: no per-node
//! deserialization, just reinterpreting byte ranges as typed slices.
//! This module is the only place that reinterpretation happens, and
//! `Col` — the column type the packed core is made of — is the only
//! place that knows whether a column is such a view or a vector.
//!
//! # Safety boundary
//!
//! The crate is `#![deny(unsafe_code)]`; this module carries the one
//! `allow` and keeps every `unsafe` block behind a safe, align- and
//! size-checked API:
//!
//! * casts go through the sealed `Pod` marker trait, implemented
//!   only for types whose every bit pattern is a valid value and whose
//!   layout is fixed (`#[repr(C)]` / primitives);
//! * `cast_slice` rejects misaligned or odd-length input with a
//!   [`CastError`] instead of ever constructing an invalid reference;
//! * [`AlignedBytes`] guarantees its storage satisfies
//!   [`BUFFER_ALIGN`], re-allocating on adoption only when the
//!   provided `Vec<u8>` is insufficiently aligned (allocators
//!   virtually always hand back 16-byte-aligned blocks, so the copy
//!   is the rare path).
//!
//! The unit tests below exercise every cast path (including the
//! misalignment rejections) with Miri-compatible patterns: no
//! pointer-integer round trips beyond alignment checks, no
//! out-of-bounds offsets, provenance preserved through
//! `align_offset`/`split_at` only.

use std::sync::Arc;

/// Alignment every typed section of a snapshot buffer needs at
/// minimum: the widest scalar stored is an `f64`/`u64` (8 bytes).
/// Section *offsets* are multiples of [`SECTION_ALIGN`] regardless, so
/// a 64-byte-aligned allocation gives every section cache-line
/// alignment for free.
pub const BUFFER_ALIGN: usize = 8;

/// Offset granularity of snapshot sections (one x86 cache line). Kept
/// independent of [`BUFFER_ALIGN`]: offsets are always 64-byte
/// multiples *relative to the buffer start*, so sections never straddle
/// a line boundary they wouldn't also straddle at offset zero.
pub const SECTION_ALIGN: usize = 64;

/// Why a byte range could not be viewed as a typed slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CastError {
    /// The range's start address is not a multiple of the target
    /// type's alignment.
    Misaligned,
    /// The range's length is not a multiple of the target type's size.
    OddLength,
}

impl std::fmt::Display for CastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CastError::Misaligned => f.write_str("byte range is misaligned for the target type"),
            CastError::OddLength => {
                f.write_str("byte range length is not a multiple of the target size")
            }
        }
    }
}

impl std::error::Error for CastError {}

mod sealed {
    /// Sealed marker: every bit pattern is a valid value, the layout
    /// is fixed (primitive or `#[repr(C)]` without padding), and the
    /// type is `Copy`.
    ///
    /// # Safety
    ///
    /// Implementors must have no padding bytes, no niches, and no
    /// interior mutability; `size_of::<T>()` must be a multiple of
    /// `align_of::<T>()` (true for any Rust type).
    pub unsafe trait Pod: Copy + 'static {}

    // SAFETY: primitive integers and floats accept every bit pattern
    // and have no padding.
    unsafe impl Pod for u8 {}
    unsafe impl Pod for u32 {}
    unsafe impl Pod for u64 {}
    unsafe impl Pod for f32 {}
    unsafe impl Pod for f64 {}

    // SAFETY: `Rect<D>` is `#[repr(C)] { lo: [f64; D], hi: [f64; D] }`
    // — 2·D consecutive f64s, alignment 8, no padding — and every bit
    // pattern is a valid f64. A corrupted buffer can produce values
    // violating the *logical* rect invariant (NaN, lo > hi); that is
    // memory-safe (NaN comparisons conservatively test false in the
    // branchless masks) and the snapshot checksum rejects such buffers
    // before they are served.
    unsafe impl<const D: usize> Pod for drtree_spatial::Rect<D> {}
}

pub(crate) use sealed::Pod;

/// Views `bytes` as a slice of `T`, checking alignment and length.
/// Zero-copy: the returned slice borrows `bytes`.
///
/// # Errors
///
/// [`CastError::Misaligned`] when the start address is not aligned for
/// `T`; [`CastError::OddLength`] when the byte length is not a
/// multiple of `size_of::<T>()`.
pub(crate) fn cast_slice<T: Pod>(bytes: &[u8]) -> Result<&[T], CastError> {
    let size = std::mem::size_of::<T>();
    if size == 0 {
        return Ok(&[]);
    }
    if bytes.as_ptr().align_offset(std::mem::align_of::<T>()) != 0 {
        return Err(CastError::Misaligned);
    }
    if !bytes.len().is_multiple_of(size) {
        return Err(CastError::OddLength);
    }
    // SAFETY: the pointer is non-null and aligned for `T` (checked
    // above), the length covers exactly `len / size` values of `T`,
    // every bit pattern is a valid `T` (the sealed `Pod` contract),
    // and the borrow of `bytes` keeps the memory live and immutable
    // for the returned lifetime.
    #[allow(unsafe_code)]
    Ok(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<T>(), bytes.len() / size) })
}

/// Views a slice of `T` as its raw bytes — the safe direction, used by
/// the snapshot writer to emit whole arrays with one `memcpy` instead
/// of per-element encoding. Only meaningful for little-endian storage
/// on little-endian hosts; [`crate::PackedRTree::save`] documents the
/// format as little-endian.
pub(crate) fn as_bytes<T: Pod>(values: &[T]) -> &[u8] {
    // SAFETY: `Pod` guarantees no padding bytes, so every byte of the
    // slice is initialized; alignment of `u8` is 1; the length is the
    // exact byte size of the slice.
    #[allow(unsafe_code)]
    unsafe {
        std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), std::mem::size_of_val(values))
    }
}

/// A byte buffer whose storage is guaranteed [`BUFFER_ALIGN`]-aligned,
/// shared read-only behind an [`Arc`] so one loaded snapshot can back
/// several cores (the sharded oracle restores all `K` shards from a
/// single allocation).
#[derive(Debug)]
pub struct AlignedBytes {
    storage: Storage,
}

/// A `Vec<u8>` only formally guarantees alignment 1, but in practice
/// allocators hand back ≥ 16-byte-aligned blocks for any non-trivial
/// size — so adoption keeps the vector as-is when its pointer checks
/// out (the whole point of zero-copy restore: no multi-megabyte
/// memcpy on the cold-start path) and copies into `u64` words (always
/// 8-aligned) only on the rare under-aligned allocation.
#[derive(Debug)]
enum Storage {
    /// The adopted vector, verified [`BUFFER_ALIGN`]-aligned. The
    /// buffer is immutable from here on, so the pointer (and its
    /// alignment) never changes.
    Raw(Vec<u8>),
    /// Fallback copy in `u64` words; `len` is the byte length.
    Words { words: Vec<u64>, len: usize },
}

impl AlignedBytes {
    /// Adopts `bytes`, zero-copy when the allocation happens to be
    /// [`BUFFER_ALIGN`]-aligned — which it essentially always is; the
    /// fallback copies into aligned storage.
    pub fn adopt(bytes: Vec<u8>) -> Arc<Self> {
        if bytes.as_ptr().align_offset(BUFFER_ALIGN) == 0 {
            return Arc::new(Self {
                storage: Storage::Raw(bytes),
            });
        }
        let len = bytes.len();
        let mut words = vec![0u64; len.div_ceil(8)];
        for (word, chunk) in words.iter_mut().zip(bytes.chunks(8)) {
            let mut raw = [0u8; 8];
            raw[..chunk.len()].copy_from_slice(chunk);
            *word = u64::from_le_bytes(raw);
        }
        Arc::new(Self {
            storage: Storage::Words { words, len },
        })
    }

    /// The buffer contents.
    pub fn as_slice(&self) -> &[u8] {
        match &self.storage {
            Storage::Raw(bytes) => bytes,
            Storage::Words { words, len } => &as_bytes(words)[..*len],
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        match &self.storage {
            Storage::Raw(bytes) => bytes.len(),
            Storage::Words { len, .. } => *len,
        }
    }

    /// `true` when the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One POD column of the packed tier: a `[T]` that lives either in a
/// `Vec<T>` of its own (what bulk loads and merges build) or in a
/// checked range of a shared snapshot buffer (what a load produces —
/// zero-copy, many columns and many cores over one allocation).
/// Readers [`Deref`](std::ops::Deref) to the slice and never learn
/// which; the few writers call [`Col::to_mut`], which first copies a
/// viewed column out of the buffer — copy-on-write, so the buffer and
/// everything else viewing it stay as loaded.
#[derive(Debug, Clone)]
pub(crate) struct Col<T: Pod>(Repr<T>);

#[derive(Debug, Clone)]
enum Repr<T> {
    Owned(Vec<T>),
    /// Bytes `off .. off + len` of `buf`, proven castable to `[T]` by
    /// [`Col::view`].
    View {
        buf: Arc<AlignedBytes>,
        off: usize,
        len: usize,
    },
}

impl<T: Pod> Col<T> {
    /// Views `count` values of `T` at byte `off` of `buf`, zero-copy.
    /// The cast is checked here, once; reads afterwards cannot fail.
    ///
    /// # Errors
    ///
    /// [`CastError`] when the range is misaligned for `T`.
    ///
    /// # Panics
    ///
    /// Panics if the range does not lie inside `buf` — callers derive
    /// it from a layout already checked against the buffer's length.
    pub(crate) fn view(
        buf: &Arc<AlignedBytes>,
        off: usize,
        count: usize,
    ) -> Result<Self, CastError> {
        let len = count * std::mem::size_of::<T>();
        cast_slice::<T>(&buf.as_slice()[off..off + len])?;
        Ok(Self(Repr::View {
            buf: Arc::clone(buf),
            off,
            len,
        }))
    }

    /// The column as a growable vector, copied out of the shared
    /// buffer first if that is where it still lives.
    pub(crate) fn to_mut(&mut self) -> &mut Vec<T> {
        if let Repr::View { .. } = self.0 {
            self.0 = Repr::Owned(self.to_vec());
        }
        match &mut self.0 {
            Repr::Owned(values) => values,
            Repr::View { .. } => unreachable!("copied out above"),
        }
    }
}

impl<T: Pod> std::ops::Deref for Col<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Owned(values) => values,
            Repr::View { buf, off, len } => {
                cast_slice(&buf.as_slice()[*off..*off + *len]).expect("checked by Col::view")
            }
        }
    }
}

impl<T: Pod> From<Vec<T>> for Col<T> {
    fn from(values: Vec<T>) -> Self {
        Self(Repr::Owned(values))
    }
}

/// Rounds `offset` up to the next multiple of [`SECTION_ALIGN`].
pub fn align_up(offset: usize) -> usize {
    offset.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

/// Pads `out` with zero bytes to the next [`SECTION_ALIGN`] boundary.
pub fn pad_to_section(out: &mut Vec<u8>) {
    out.resize(align_up(out.len()), 0);
}

/// The snapshot checksum: an 8-lane xor-rotate hash over 64-byte
/// blocks with an FNV-style finisher. Chosen for throughput — the
/// whole loop vectorizes to plain shifts/xors over contiguous words,
/// so verifying a multi-megabyte snapshot costs a fraction of the
/// bulk build it replaces — while still detecting any single bit
/// flip, truncation (the length participates), and section
/// transpositions across lane phases.
pub fn checksum(bytes: &[u8]) -> u64 {
    const SEEDS: [u64; 8] = [
        0x9e37_79b9_7f4a_7c15,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
        0x2545_f491_4f6c_dd1d,
        0xff51_afd7_ed55_8ccd,
        0xc4ce_b9fe_1a85_ec53,
        0x8764_0000_0000_0001,
        0xd6e8_feb8_6659_fd93,
    ];
    let mut lanes = SEEDS;
    let mut chunks = bytes.chunks_exact(64);
    for block in &mut chunks {
        for (lane, raw) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(raw.try_into().expect("8-byte chunk"));
            *lane = (*lane ^ word).rotate_left(23);
        }
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut block = [0u8; 64];
        block[..tail.len()].copy_from_slice(tail);
        for (lane, raw) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(raw.try_into().expect("8-byte chunk"));
            *lane = (*lane ^ word).rotate_left(23);
        }
    }
    let mut acc = 0xcbf2_9ce4_8422_2325u64 ^ bytes.len() as u64;
    for lane in lanes {
        acc = (acc ^ lane).wrapping_mul(0x0000_0100_0000_01b3);
    }
    acc
}

/// Little-endian field reader over a byte slice, used by the snapshot
/// header parsers. All accessors return `None` past the end instead of
/// panicking — truncated buffers must surface as errors.
pub fn read_u16(bytes: &[u8], offset: usize) -> Option<u16> {
    bytes
        .get(offset..offset + 2)
        .map(|raw| u16::from_le_bytes(raw.try_into().expect("2-byte range")))
}

/// Little-endian `u32` at `offset`, or `None` past the end.
pub fn read_u32(bytes: &[u8], offset: usize) -> Option<u32> {
    bytes
        .get(offset..offset + 4)
        .map(|raw| u32::from_le_bytes(raw.try_into().expect("4-byte range")))
}

/// Little-endian `u64` at `offset`, or `None` past the end.
pub fn read_u64(bytes: &[u8], offset: usize) -> Option<u64> {
    bytes
        .get(offset..offset + 8)
        .map(|raw| u64::from_le_bytes(raw.try_into().expect("8-byte range")))
}

/// Little-endian `f64` at `offset`, or `None` past the end.
pub fn read_f64(bytes: &[u8], offset: usize) -> Option<f64> {
    read_u64(bytes, offset).map(f64::from_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtree_spatial::Rect;

    #[test]
    fn cast_roundtrips_f64() {
        let values: Vec<f64> = (0..17).map(|i| i as f64 * 0.5).collect();
        let bytes = as_bytes(&values);
        let back: &[f64] = cast_slice(bytes).unwrap();
        assert_eq!(back, values.as_slice());
    }

    #[test]
    fn cast_roundtrips_u32() {
        let values: Vec<u32> = (0..33).map(|i| i * 0x0101_0101).collect();
        let back: &[u32] = cast_slice(as_bytes(&values)).unwrap();
        assert_eq!(back, values.as_slice());
    }

    #[test]
    fn misaligned_input_is_rejected_not_ub() {
        let store: Vec<u64> = vec![0; 4];
        let bytes = &as_bytes(&store)[1..25]; // deliberately offset by 1
        assert_eq!(cast_slice::<u64>(bytes), Err(CastError::Misaligned));
        let odd = &as_bytes(&store)[0..12]; // aligned but not a multiple of 8
        assert_eq!(cast_slice::<u64>(odd), Err(CastError::OddLength));
    }

    #[test]
    fn adopt_guarantees_alignment_and_contents() {
        for len in [0usize, 1, 7, 8, 63, 64, 65, 1000] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let aligned = AlignedBytes::adopt(bytes.clone());
            assert_eq!(aligned.as_slice(), bytes.as_slice());
            assert_eq!(
                aligned.as_slice().as_ptr().align_offset(BUFFER_ALIGN),
                0,
                "len {len}: storage must be {BUFFER_ALIGN}-byte aligned"
            );
        }
    }

    #[test]
    fn checksum_detects_flips_and_truncation() {
        let mut bytes: Vec<u8> = (0..997).map(|i| (i % 256) as u8).collect();
        let base = checksum(&bytes);
        assert_eq!(base, checksum(&bytes), "deterministic");
        for &at in &[0usize, 63, 64, 500, 996] {
            bytes[at] ^= 0x10;
            assert_ne!(base, checksum(&bytes), "flip at {at} undetected");
            bytes[at] ^= 0x10;
        }
        assert_ne!(base, checksum(&bytes[..996]), "truncation undetected");
        assert_ne!(checksum(&[]), checksum(&[0u8]), "length participates");
    }

    #[test]
    fn section_alignment_helpers() {
        assert_eq!(align_up(0), 0);
        assert_eq!(align_up(1), 64);
        assert_eq!(align_up(64), 64);
        assert_eq!(align_up(65), 128);
        let mut v = vec![1u8; 10];
        pad_to_section(&mut v);
        assert_eq!(v.len(), 64);
        assert!(v[10..].iter().all(|&b| b == 0));
    }

    #[test]
    fn rect_casts_view_in_place() {
        let rects: Vec<Rect<2>> = (0..9)
            .map(|i| {
                let o = f64::from(i) * 2.0;
                Rect::new([o, o + 0.5], [o + 1.0, o + 1.5])
            })
            .collect();
        let back: &[Rect<2>] = cast_slice(as_bytes(&rects)).unwrap();
        assert_eq!(back, rects.as_slice());
    }

    #[test]
    fn col_views_in_place_and_copies_on_write() {
        let values: Vec<u64> = (0..24).collect();
        let buf = AlignedBytes::adopt(as_bytes(&values).to_vec());
        let mut a: Col<u32> = Col::view(&buf, 64, 8).unwrap();
        let b = a.clone();
        assert_eq!(&*a, cast_slice::<u32>(&buf.as_slice()[64..96]).unwrap());
        assert_eq!(a.as_ptr().cast::<u8>(), buf.as_slice()[64..].as_ptr());
        assert_eq!(
            Col::<u64>::view(&buf, 4, 2).err(),
            Some(CastError::Misaligned)
        );
        // The first write copies the column out; the buffer and the
        // other view of it keep the loaded values.
        a.to_mut()[0] = 99;
        a.to_mut().push(7);
        assert_eq!((a[0], a.len()), (99, 9));
        assert_eq!((b[0], b.len()), (8, 8));
        assert_eq!(buf.as_slice(), as_bytes(&values));
        assert_eq!(&*Col::from(vec![1u32, 2]), &[1, 2]);
    }

    #[test]
    fn readers_reject_truncation() {
        let bytes = [1u8, 2, 3, 4, 5, 6, 7, 8];
        assert_eq!(read_u16(&bytes, 0), Some(u16::from_le_bytes([1, 2])));
        assert_eq!(read_u32(&bytes, 0), Some(u32::from_le_bytes([1, 2, 3, 4])));
        assert_eq!(read_u64(&bytes, 0), Some(u64::from_le_bytes(bytes)));
        assert_eq!(read_u16(&bytes, 7), None);
        assert_eq!(read_u32(&bytes, 5), None);
        assert_eq!(read_u64(&bytes, 1), None);
        assert_eq!(read_f64(&bytes, 8), None);
    }
}
