//! Input generation shared by the workloads.
//!
//! Every input comes from `drtree-workloads` generators seeded from the
//! run's `--seed`; the system under test receives only the generated
//! rectangles, points and schedules. Generation time is measured and
//! reported (`workloads.gen_s`) and never falls inside a timed region;
//! an FNV-1a digest of everything generated (`workloads.input_digest`)
//! proves two commits were measured on identical inputs.

use std::time::Instant;

use drtree_spatial::{Point, Rect};
use drtree_workloads::subscriptions::SPACE;
use drtree_workloads::SubscriptionWorkload;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An independent generator stream of the run seed: SplitMix64 of
/// `(seed, stream)`, so streams of one seed do not overlap and nearby
/// seeds do not correlate.
pub fn stream(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, stream))
}

/// The seed behind [`stream`] — for APIs that take a `u64` seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `scale.rs` constant-selectivity recipe on the generators' fixed
/// `[0, 100]²` universe: uniform rectangles with side lengths `u..10u`,
/// `u` chosen so a point matches `≈ 10` of `n` subscriptions at every
/// `n` (mean area `30.25·u²`, so `n · 30.25·u² / 100² = 10`).
pub fn constant_selectivity(n: usize) -> SubscriptionWorkload {
    let u = (10.0 * SPACE * SPACE / (n.max(1) as f64 * 30.25)).sqrt();
    SubscriptionWorkload::Uniform {
        min_extent: u,
        max_extent: 10.0 * u,
    }
}

/// The generators' universe as a rectangle.
pub fn universe() -> Rect<2> {
    Rect::new([0.0, 0.0], [SPACE, SPACE])
}

/// Accumulates generation wall time and the input digest.
#[derive(Debug)]
pub struct InputLog {
    gen_ns: u64,
    fnv: u64,
}

impl Default for InputLog {
    fn default() -> Self {
        Self {
            gen_ns: 0,
            fnv: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl InputLog {
    /// Runs a generator, charging its wall time to `workloads.gen_s`.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.gen_ns += t0.elapsed().as_nanos() as u64;
        out
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.fnv = (self.fnv ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn digest_u64s(&mut self, words: &[u64]) {
        for &w in words {
            self.word(w);
        }
    }

    pub fn digest_rects(&mut self, rects: &[Rect<2>]) {
        for r in rects {
            for d in 0..2 {
                self.word(r.lo(d).to_bits());
                self.word(r.hi(d).to_bits());
            }
        }
    }

    pub fn digest_points(&mut self, points: &[Point<2>]) {
        for p in points {
            self.word(p.coord(0).to_bits());
            self.word(p.coord(1).to_bits());
        }
    }

    pub fn gen_s(&self) -> f64 {
        self.gen_ns as f64 / 1e9
    }

    /// The digest folded to 52 bits, so it survives a trip through a
    /// JSON number exactly.
    pub fn digest(&self) -> u64 {
        (self.fnv ^ (self.fnv >> 52)) & ((1 << 52) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtree_workloads::EventWorkload;

    fn digest_for(seed: u64) -> u64 {
        let mut log = InputLog::default();
        let rects = constant_selectivity(500).generate::<2>(500, &mut stream(seed, 1));
        let points = EventWorkload::Following.generate_with(200, &rects, &mut stream(seed, 2));
        log.digest_rects(&rects);
        log.digest_points(&points);
        log.digest()
    }

    #[test]
    fn same_seed_same_digest_different_seed_different_digest() {
        assert_eq!(digest_for(7), digest_for(7));
        assert_ne!(digest_for(7), digest_for(8));
        assert!(digest_for(7) < 1 << 52);
    }

    #[test]
    fn streams_of_one_seed_differ() {
        assert_ne!(mix(7, 1), mix(7, 2));
        assert_ne!(mix(7, 1), mix(8, 1));
    }

    #[test]
    fn constant_selectivity_matches_about_ten() {
        for n in [1_000usize, 20_000] {
            let rects = constant_selectivity(n).generate::<2>(n, &mut stream(3, 1));
            let points = EventWorkload::Uniform.generate::<2>(400, &mut stream(3, 2));
            let hits: usize = points
                .iter()
                .map(|p| rects.iter().filter(|r| r.contains_point(p)).count())
                .sum();
            let mean = hits as f64 / points.len() as f64;
            assert!((7.0..13.0).contains(&mean), "n={n}: {mean} matches/point");
        }
    }
}
