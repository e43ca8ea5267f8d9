//! `oracle-match`: read-only matching against a large sharded oracle.
//!
//! `pubsub.shard` + `rtree` + `spatial` do all the work and the overlay
//! none. The working set exceeds cache, and the three probe segments
//! differ in how much work probes share: hotspot probes land in the
//! same cells and cache lines, uniform probes do not, subscription-
//! following probes sit between. A batching or sorting gain and a
//! layout or SIMD gain therefore move different segments.

use std::hint::black_box;
use std::time::Instant;

use drtree_core::ProcessId;
use drtree_pubsub::{BatchMatches, ShardedOracle};
use drtree_rtree::PackedRTree;
use drtree_spatial::hilbert::{GridMapper, ShardMap};
use drtree_spatial::{Point, Rect};
use drtree_workloads::EventWorkload;

use super::{len_skew, median_rate, ns_per_item, overhead_share, repeat_setup, Ctx};
use crate::inputs::{constant_selectivity, stream, universe};
use crate::model::ScanModel;
use crate::stats;
use crate::trace::Layer;

const SHARDS: usize = 4;
/// Commit-loop scale: what one `MultiBroker` commit hands the oracle.
const BATCH: usize = 512;
/// Batches per block; one cycle is one block of each segment.
const BLOCK_BATCHES: usize = 64;
/// Single probes per point-phase block.
const POINT_BLOCK: usize = 24_576;
/// Single probes per span (a span per 1.5 µs probe would measure the
/// tracer).
const POINT_SPAN: usize = 1_024;
const SEGMENTS: [&str; 3] = ["following", "uniform", "hotspot"];
const BATCH_SPANS: [&str; 3] = [
    "shard.match_batch_into.following",
    "shard.match_batch_into.uniform",
    "shard.match_batch_into.hotspot",
];
const BATCH_METRICS: [&str; 3] = [
    "shard.match_batch_ns.following",
    "shard.match_batch_ns.uniform",
    "shard.match_batch_ns.hotspot",
];

struct Inputs {
    rects: Vec<Rect<2>>,
    /// One probe pool per segment, cycled.
    pools: [Vec<Point<2>>; 3],
}

fn generate(ctx: &mut Ctx) -> Inputs {
    let n = ctx.size(1_000_000, 10_000);
    let pool = ctx.size(1 << 18, 1 << 13);
    let seed = ctx.seed;
    let inputs = ctx.inputs.time(|| {
        let rects = constant_selectivity(n).generate::<2>(n, &mut stream(seed, 1));
        let following = EventWorkload::Following.generate_with(pool, &rects, &mut stream(seed, 2));
        let uniform = EventWorkload::Uniform.generate::<2>(pool, &mut stream(seed, 3));
        let hotspot = EventWorkload::Hotspot {
            center: 50.0,
            radius: 1.0,
            bias: 0.8,
        }
        .generate::<2>(pool, &mut stream(seed, 4));
        Inputs {
            rects,
            pools: [following, uniform, hotspot],
        }
    });
    ctx.inputs.digest_rects(&inputs.rects);
    for pool in &inputs.pools {
        ctx.inputs.digest_points(pool);
    }
    inputs
}

struct Built {
    oracle: ShardedOracle<2>,
    insert_ns: u64,
    flush_ns: u64,
}

fn setup(rects: &[Rect<2>]) -> Built {
    let mut oracle: ShardedOracle<2> = ShardedOracle::new(SHARDS);
    let t0 = Instant::now();
    for (i, r) in rects.iter().enumerate() {
        oracle.insert(ProcessId::from_raw(i as u64), *r);
    }
    let insert_ns = t0.elapsed().as_nanos() as u64;
    let t1 = Instant::now();
    oracle.flush();
    Built {
        oracle,
        insert_ns,
        flush_ns: t1.elapsed().as_nanos() as u64,
    }
}

#[derive(Default)]
struct Timed {
    /// `(probes, ns)` per cycle of the batched phase.
    cycles: Vec<(u64, u64)>,
    /// Whether each cycle's round recorded spans.
    recorded: Vec<bool>,
    /// `(probes, ns)` per block of the single-probe phase.
    point_blocks: Vec<(u64, u64)>,
    probes: u64,
    hits: u64,
}

impl Timed {
    /// The batched cycles of the rounds that did (or did not) record.
    fn cycles_where(&self, recorded: bool) -> Vec<(u64, u64)> {
        self.cycles
            .iter()
            .zip(&self.recorded)
            .filter(|(_, r)| **r == recorded)
            .map(|(c, _)| *c)
            .collect()
    }
}

/// The timed region: rounds of one batched cycle (a block of each
/// segment through `match_batch_into`) and one block of single probes
/// through `match_point_into`, about 70 % and 30 % of the time. The two
/// paths alternate instead of running one after the other so that both
/// metrics sample the whole window: the host's slow noise then reaches
/// them alike. At least two rounds always run.
fn timed(ctx: &mut Ctx, oracle: &mut ShardedOracle<2>, inputs: &Inputs, seconds: f64) -> Timed {
    let mut out = Timed::default();
    let mut matches = BatchMatches::new();
    let mut hits = Vec::new();
    let mut sink = 0usize;
    // (Smoke pools are smaller than a full block.)
    let pool_len = inputs.pools[0].len();
    let block = (BLOCK_BATCHES * BATCH).min(pool_len / 2);
    let point_block = POINT_BLOCK.min(pool_len / 2);
    let t_start = Instant::now();
    let mut round = 0usize;
    loop {
        let (recording, root) = ctx.begin_block(round);
        let tracer = &mut ctx.tracer;
        let t0 = Instant::now();
        for (segment, pool) in inputs.pools.iter().enumerate() {
            let at = (round * block) % (pool.len() - block + 1);
            for chunk in pool[at..at + block].chunks(BATCH) {
                let span = tracer.begin(Layer::Shard, BATCH_SPANS[segment]);
                oracle.match_batch_into(chunk, &mut matches);
                tracer.end(span, chunk.len() as u64);
                out.hits += matches.total_hits() as u64;
            }
        }
        out.cycles
            .push((3 * block as u64, t0.elapsed().as_nanos() as u64));
        out.recorded.push(recording);

        let t0 = Instant::now();
        for k in 0..point_block / POINT_SPAN {
            let pool = &inputs.pools[k % 3];
            let at = ((round * point_block / 3) + k * POINT_SPAN) % (pool.len() - POINT_SPAN + 1);
            let span = tracer.begin(Layer::Shard, "shard.match_point_into");
            for p in &pool[at..at + POINT_SPAN] {
                oracle.match_point_into(p, &mut hits);
                sink += hits.len();
            }
            tracer.end(span, POINT_SPAN as u64);
        }
        out.point_blocks
            .push((point_block as u64, t0.elapsed().as_nanos() as u64));
        out.probes += (3 * block + point_block) as u64;
        ctx.end_block(root, (3 * block + point_block) as u64);
        round += 1;
        // (At least two rounds, so a traced run has a traced one.)
        if t_start.elapsed().as_secs_f64() >= seconds && round >= 2 {
            break;
        }
    }
    black_box(sink);
    out
}

/// Median single-probe latency in milliseconds over the point blocks.
fn point_latency_ms(blocks: &[(u64, u64)]) -> f64 {
    let mut per_probe: Vec<f64> = blocks
        .iter()
        .map(|&(n, ns)| ns as f64 / n as f64 / 1e6)
        .collect();
    stats::median(&mut per_probe)
}

/// Checks sampled probes of every segment, through both the batched
/// and the single-probe path, against the scan model.
fn verify(ctx: &mut Ctx, oracle: &mut ShardedOracle<2>, inputs: &Inputs) {
    let samples = ctx.size(128, 32);
    let model = ScanModel::from_rects(&inputs.rects);
    let mut matches = BatchMatches::new();
    let mut single = Vec::new();
    for (segment, pool) in inputs.pools.iter().enumerate() {
        let stride = pool.len() / samples;
        let probes: Vec<Point<2>> = (0..samples).map(|i| pool[i * stride]).collect();
        oracle.match_batch_into(&probes, &mut matches);
        for (i, p) in probes.iter().enumerate() {
            let want = model.matches(p);
            let batched: Vec<u64> = matches.matches(i).iter().map(|id| id.raw()).collect();
            oracle.match_point_into(p, &mut single);
            let single: Vec<u64> = single.iter().map(|id| id.raw()).collect();
            ctx.out.checks.check(batched == want && single == want, || {
                format!(
                    "{} probe {i}: scan {} ids, batched {}, single {}",
                    SEGMENTS[segment],
                    want.len(),
                    batched.len(),
                    single.len()
                )
            });
        }
    }
}

/// Layer probes of the traced run: `rtree` and `spatial` calls on one
/// shard's worth of the same rectangles, and the oracle's snapshot,
/// wide-batch and serialization paths.
fn layer_probes(ctx: &mut Ctx, oracle: &mut ShardedOracle<2>, inputs: &Inputs) {
    let probes = ctx.size(16_384, 2_048);
    let following = &inputs.pools[0];
    let t = &mut ctx.tracer;
    t.set_enabled(true);
    let root = t.begin(Layer::Bench, "bench.layer_probes");

    // pubsub.shard: one joint pass over a 16k batch, the lock-free
    // snapshot reader, and the flat-buffer round trip.
    let mut matches = BatchMatches::new();
    t.span(Layer::Shard, "shard.match_batch_into.16k", || {
        oracle.match_batch_into(&following[..probes], &mut matches);
        (black_box(matches.total_hits()), probes as u64)
    });
    let snapshot = oracle.snapshot();
    let mut hits = Vec::new();
    t.span(Layer::Shard, "shard.snapshot_match_point", || {
        let mut sink = 0usize;
        for p in &following[..probes] {
            snapshot.match_point_into(p, &mut hits);
            sink += hits.len();
        }
        (black_box(sink), probes as u64)
    });
    drop(snapshot);
    let bytes = t.span(Layer::Shard, "shard.snapshot_bytes", || {
        (oracle.snapshot_bytes(), 1)
    });
    let restored = t.span(Layer::Shard, "shard.restore_bytes", || {
        (ShardedOracle::<2>::restore_bytes(bytes), 1)
    });
    ctx.out.checks.check(
        restored.as_ref().is_ok_and(|r| r.len() == oracle.len()),
        || "restore_bytes lost entries".into(),
    );
    drop(restored);

    // rtree: one shard's worth of the same rectangles.
    let share = inputs.rects.len() / SHARDS;
    let entries: Vec<(usize, Rect<2>)> =
        inputs.rects[..share].iter().copied().enumerate().collect();
    let mut tree = t.span(Layer::Rtree, "rtree.bulk_load", || {
        (PackedRTree::bulk_load(entries), share as u64)
    });
    let in_tree: Vec<Point<2>> = inputs.rects[..share]
        .iter()
        .cycle()
        .take(probes)
        .map(Rect::center)
        .collect();
    t.span(Layer::Rtree, "rtree.for_each_containing", || {
        let mut sink = 0usize;
        for p in &in_tree {
            tree.for_each_containing(p, |_, _| sink += 1);
        }
        (black_box(sink), probes as u64)
    });
    t.span(Layer::Rtree, "rtree.for_each_containing_batch", || {
        let mut sink = 0usize;
        for chunk in in_tree.chunks(BATCH) {
            tree.for_each_containing_batch(chunk, |_, _, _| sink += 1);
        }
        (black_box(sink), probes as u64)
    });
    let bytes = t.span(Layer::Rtree, "rtree.save", || (tree.save(), 1));
    let loaded = t.span(Layer::Rtree, "rtree.load", || {
        (PackedRTree::<usize, 2>::load(bytes), 1)
    });
    ctx.out
        .checks
        .check(loaded.is_ok_and(|l| l.len() == tree.len()), || {
            "PackedRTree::load lost entries".into()
        });
    // Mutations last: small drifts (the mobility fast path), fresh
    // staged entries, then the merge that absorbs them.
    let moves = probes.min(share);
    t.span(Layer::Rtree, "rtree.update_entry", || {
        let mut moved = 0u64;
        for (k, old) in inputs.rects[..moves].iter().enumerate() {
            let shift = 0.01 * old.extent(0);
            let new = Rect::new(
                [old.lo(0) + shift, old.lo(1)],
                [old.hi(0) + shift, old.hi(1)],
            );
            moved += u64::from(tree.update_entry(&k, old, new).is_some());
        }
        (black_box(moved), moves as u64)
    });
    t.span(Layer::Rtree, "rtree.stage_insert", || {
        for (k, r) in inputs.rects[share..share + moves].iter().enumerate() {
            tree.stage_insert(share + k, *r);
        }
        ((), moves as u64)
    });
    t.span(Layer::Rtree, "rtree.compact", || (tree.compact(), 1));

    // spatial: the key every insert computes and the range lookup
    // every routed operation performs.
    let mapper = GridMapper::new(&universe());
    t.span(Layer::Spatial, "spatial.hilbert_key", || {
        let mut sink = 0u128;
        for r in &inputs.rects[..share] {
            sink ^= mapper.key(r);
        }
        (black_box(sink), share as u64)
    });
    let map = ShardMap::new(SHARDS, &universe());
    t.span(Layer::Spatial, "spatial.shard_of", || {
        let mut sink = 0usize;
        for r in &inputs.rects[..share] {
            sink += map.shard_of(r);
        }
        (black_box(sink), share as u64)
    });
    t.end(root, 0);

    let t = &ctx.tracer;
    let ms = |name| ns_per_item(t, name) / 1e6;
    let us = |name| ns_per_item(t, name) / 1e3;
    let per_layer = [
        (
            "shard.match_batch16k_ns",
            ns_per_item(t, "shard.match_batch_into.16k"),
        ),
        (
            "shard.snapshot_match_ns",
            ns_per_item(t, "shard.snapshot_match_point"),
        ),
        ("shard.snapshot_ms", ms("shard.snapshot_bytes")),
        ("shard.restore_us", us("shard.restore_bytes")),
        ("rtree.bulk_load_ms", ms("rtree.bulk_load") * share as f64),
        (
            "rtree.query_ns",
            ns_per_item(t, "rtree.for_each_containing"),
        ),
        (
            "rtree.batch_query_ns",
            ns_per_item(t, "rtree.for_each_containing_batch"),
        ),
        (
            "rtree.update_entry_ns",
            ns_per_item(t, "rtree.update_entry"),
        ),
        (
            "rtree.stage_insert_ns",
            ns_per_item(t, "rtree.stage_insert"),
        ),
        ("rtree.compact_ms", ms("rtree.compact")),
        ("rtree.save_ms", ms("rtree.save")),
        ("rtree.load_us", us("rtree.load")),
        (
            "spatial.hilbert_key_ns",
            ns_per_item(t, "spatial.hilbert_key"),
        ),
        ("spatial.shard_of_ns", ns_per_item(t, "spatial.shard_of")),
    ];
    for (name, value) in per_layer {
        ctx.out.set(name, value);
    }
}

pub fn run(ctx: &mut Ctx) {
    let inputs = generate(ctx);
    ctx.out.config("subscriptions", inputs.rects.len());
    ctx.out.config("shards", SHARDS);
    ctx.out.config("batch", BATCH);
    ctx.out
        .config("probe_pool_per_segment", inputs.pools[0].len());

    let reps = if ctx.traced { 1 } else { 3 };
    let (mut built, setup_s) = repeat_setup(reps, || setup(&inputs.rects));
    ctx.out.set("setup_s", setup_s);
    ctx.out.config("setup_repetitions", reps);

    let seconds = ctx.seconds;
    let all = timed(ctx, &mut built.oracle, &inputs, seconds);
    ctx.out.checks.passed(all.probes);
    ctx.out.set("ops_per_s", median_rate(&all.cycles));
    ctx.out
        .set("latency_ms", point_latency_ms(&all.point_blocks));
    ctx.out.note(format!(
        "ops_per_s: median of {} cycles of {} batched probes; latency_ms: median of {} blocks of {} single probes",
        all.cycles.len(),
        all.cycles[0].0,
        all.point_blocks.len(),
        all.point_blocks[0].0
    ));
    if ctx.traced {
        super::report_layers(ctx);
        ctx.out.set(
            "trace_overhead_share",
            overhead_share(
                median_rate(&all.cycles_where(false)),
                median_rate(&all.cycles_where(true)),
            ),
        );
        let traced_probes: u64 = all.cycles_where(true).iter().map(|c| c.0).sum();
        ctx.out.set("bench.traced_ops", traced_probes as f64);
        for (metric, span) in BATCH_METRICS.into_iter().zip(BATCH_SPANS) {
            ctx.out.set(metric, ns_per_item(&ctx.tracer, span));
        }
        ctx.out.set(
            "shard.match_point_ns",
            ns_per_item(&ctx.tracer, "shard.match_point_into"),
        );
        let batched: u64 = all.cycles.iter().map(|c| c.0).sum();
        ctx.out
            .set("shard.hits_per_event", all.hits as f64 / batched as f64);
        ctx.out.set(
            "shard.insert_ns",
            built.insert_ns as f64 / inputs.rects.len() as f64,
        );
        ctx.out
            .set("shard.flush_total_ms", built.flush_ns as f64 / 1e6);
        ctx.out.set("shard.len_skew", len_skew(&built.oracle));
        layer_probes(ctx, &mut built.oracle, &inputs);
    }

    verify(ctx, &mut built.oracle, &inputs);
    super::report_inputs(ctx);
}
