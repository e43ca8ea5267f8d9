//! An idle round allocates nothing.
//!
//! A legal overlay at rest spends a round on two messages and one tick
//! per node; the engine lends its buffers to every callback, the
//! cluster keeps the contact oracle's scratch, and a tick on a legal
//! state walks its levels in place. This binary counts heap allocations
//! with its own `#[global_allocator]` (the library crates forbid
//! `unsafe`), so it holds this one test: nothing else may allocate while
//! the count is read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use drtree_core::{DrTreeCluster, DrTreeConfig};
use drtree_spatial::Rect;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations of one idle round on a bulk-built legal overlay of
/// `n` subscribers, after 8 warm-up rounds (buffers reach capacity).
fn idle_round_allocations(n: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64(n as u64);
    let filters: Vec<Rect<2>> = (0..n)
        .map(|_| {
            let x = rng.gen_range(0.0..95.0);
            let y = rng.gen_range(0.0..95.0);
            Rect::new(
                [x, y],
                [x + rng.gen_range(0.5..5.0), y + rng.gen_range(0.5..5.0)],
            )
        })
        .collect();
    let mut cluster = DrTreeCluster::build_bulk(DrTreeConfig::default(), 9, &filters);
    cluster.run_rounds(8);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    cluster.run_round();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(cluster.check_legal().is_ok(), "the overlay stayed at rest");
    after - before
}

#[test]
fn an_idle_round_allocates_nothing_at_any_size() {
    let small = idle_round_allocations(256);
    let large = idle_round_allocations(1024);
    assert_eq!(
        small, large,
        "allocations per idle round must not grow with the overlay"
    );
    assert_eq!(large, 0, "an idle round on a legal overlay allocates");
}
