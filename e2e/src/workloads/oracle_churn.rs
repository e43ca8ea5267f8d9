//! `oracle-churn`: the oracle's write path beside its read path.
//!
//! The same layers as `oracle-match` (`pubsub.shard`, `rtree`,
//! `spatial`), used for writes beside reads: every tick applies a
//! Poisson batch of subscribes and unsubscribes, moves a fixed
//! population of random-waypoint movers, expires leases, flushes, and
//! then matches a batch of publications. A matching gain paid for by
//! slower insert, move or compaction — or the reverse — shows here.
//! Subscriptions are Zipf-popular communities, so shard loads drift and
//! the boundary-shift rebalancing that uniform data never triggers is
//! exercised. The first half of the run compacts synchronously (the
//! default), the second half concurrently.

use std::collections::VecDeque;
use std::time::Instant;

use drtree_core::ProcessId;
use drtree_pubsub::{BatchMatches, CompactionMode, OracleFlush, ShardedOracle};
use drtree_spatial::{Point, Rect};
use drtree_workloads::subscriptions::SPACE;
use drtree_workloads::{
    ChurnOp, EventWorkload, MotionField, MotionModel, PoissonChurn, SubscriptionWorkload,
};
use rand::rngs::StdRng;
use rand::Rng;

use super::{four_slices, len_skew, ns_per_item, overhead_share, repeat_setup, Ctx};
use crate::inputs::{mix, stream, universe};
use crate::model::ScanModel;
use crate::stats;
use crate::trace::{Layer, Tracer};

const SHARDS: usize = 4;
/// Ticks generated, then timed, as one unit.
const BLOCK_TICKS: usize = 16;
/// Every `LEASE_EVERY`-th join carries a lease of `LEASE_TICKS` ticks.
const LEASE_EVERY: u64 = 8;
const LEASE_TICKS: u64 = 16;
/// Ticks of the synchronous phase after which the exact-repeat counters
/// are read: a fixed amount of work, whatever the host's speed.
const COUNTER_TICKS: u64 = 256;

struct Sizes {
    subscriptions: usize,
    join_pool: usize,
    movers: usize,
    /// λ of joins and of leaves, per tick.
    churn_rate: f64,
    publishes: usize,
    probe_pool: usize,
    check_probes: usize,
}

fn sizes(ctx: &Ctx) -> Sizes {
    Sizes {
        subscriptions: ctx.size(250_000, 4_000),
        join_pool: ctx.size(1 << 20, 1 << 14),
        movers: ctx.size(512, 32),
        churn_rate: ctx.size(256, 16) as f64,
        publishes: ctx.size(1_024, 64),
        probe_pool: ctx.size(1 << 18, 1 << 12),
        check_probes: ctx.size(256, 32),
    }
}

struct Inputs {
    /// Initial subscriptions followed by the join pool, one generator
    /// call so joins come from the same communities.
    rects: Vec<Rect<2>>,
    initial: usize,
    probes: Vec<Point<2>>,
}

fn generate(ctx: &mut Ctx, z: &Sizes) -> Inputs {
    let seed = ctx.seed;
    let n = z.subscriptions;
    // Extents a quarter of the constant-selectivity recipe's: the
    // communities are an order of magnitude denser than a uniform
    // spread. A following probe then matches about four subscriptions;
    // with larger extents the cost of a tick is set by how much the two
    // most popular communities happen to overlap, which differs from
    // seed to seed by tens of percent.
    let u = 0.25 * (10.0 * SPACE * SPACE / (n as f64 * 30.25)).sqrt();
    let workload = SubscriptionWorkload::Clustered {
        clusters: 256,
        skew: 1.0,
        spread: 3.0,
        min_extent: u,
        max_extent: 10.0 * u,
    };
    let (rects, probes) = ctx.inputs.time(|| {
        let mut rects = workload.generate::<2>(n + z.join_pool, &mut stream(seed, 1));
        // Two corner subscriptions pin the oracle's world to the whole
        // attribute domain. The oracle maps the tight MBR of its live
        // entries; without the pins, every join or move that reaches
        // past that MBR voids the shard map and the next flush
        // redistributes all shards (README.md, findings).
        let eps = 1e-3;
        rects[n - 2] = Rect::new([0.0, 0.0], [eps, eps]);
        rects[n - 1] = Rect::new([SPACE - eps, SPACE - eps], [SPACE, SPACE]);
        let probes =
            EventWorkload::Following.generate_with(z.probe_pool, &rects[..n], &mut stream(seed, 2));
        (rects, probes)
    });
    ctx.inputs.digest_rects(&rects);
    ctx.inputs.digest_points(&probes);
    Inputs {
        rects,
        initial: n,
        probes,
    }
}

fn setup(inputs: &Inputs) -> ShardedOracle<2> {
    let mut oracle: ShardedOracle<2> = ShardedOracle::new(SHARDS);
    for (i, r) in inputs.rects[..inputs.initial].iter().enumerate() {
        oracle.insert(ProcessId::from_raw(i as u64), *r);
    }
    oracle.flush();
    oracle
}

/// One tick's pre-generated script.
#[derive(Default)]
struct Tick {
    /// `(id, rect, lease deadline)`.
    joins: Vec<(u64, Rect<2>, Option<u64>)>,
    leaves: Vec<(u64, Rect<2>)>,
    /// `(id, old, new)`.
    moves: Vec<(u64, Rect<2>, Rect<2>)>,
    /// Leased entries the tick's `expire_leases` must evict.
    expiring: usize,
    probes_at: usize,
}

#[derive(Default)]
struct Slice {
    /// `(ops, ns, recorded spans)` per block.
    blocks: Vec<(u64, u64, bool)>,
    tick_ms: Vec<f64>,
    flush_max_ns: u64,
    ops: u64,
    ns: u64,
}

impl Slice {
    fn merge(mut self, other: Slice) -> Slice {
        self.blocks.extend(other.blocks);
        self.tick_ms.extend(other.tick_ms);
        self.flush_max_ns = self.flush_max_ns.max(other.flush_max_ns);
        self.ops += other.ops;
        self.ns += other.ns;
        self
    }

    fn ops_per_s(&self) -> f64 {
        self.ops as f64 * 1e9 / self.ns.max(1) as f64
    }

    /// Operations per second over the blocks that did (or did not)
    /// record spans.
    fn block_rate(&self, recorded: bool) -> f64 {
        let (ops, ns) = self
            .blocks
            .iter()
            .filter(|b| b.2 == recorded)
            .fold((0u64, 0u64), |(o, n), b| (o + b.0, n + b.1));
        ops as f64 * 1e9 / ns.max(1) as f64
    }
}

/// The evolving system plus the generator state that scripts it.
struct Churn<'a> {
    z: Sizes,
    inputs: &'a Inputs,
    oracle: ShardedOracle<2>,
    /// Mirror of every mutation; also the id → rect registry the
    /// generator draws leave victims' rectangles from.
    model: ScanModel,
    /// Ids a scripted leave may pick (no movers, no world pins, no
    /// leased entries).
    leavable: Vec<u64>,
    /// `(deadline, id)` in deadline order.
    leased: VecDeque<(u64, u64)>,
    field: MotionField<2>,
    mover_rects: Vec<Rect<2>>,
    moved: Vec<(u32, Rect<2>)>,
    rng: StdRng,
    next_id: u64,
    joined: u64,
    tick: u64,
    matches: BatchMatches,
    hits: u64,
    published: u64,
    /// Exact-repeat counters, read once `COUNTER_TICKS` ticks ran.
    counters: Option<[u64; 4]>,
    checks_done: usize,
}

impl<'a> Churn<'a> {
    fn new(ctx: &Ctx, z: Sizes, inputs: &'a Inputs, oracle: ShardedOracle<2>) -> Self {
        let n = inputs.initial;
        let movers = inputs.rects[..z.movers].to_vec();
        let u = movers[0].extent(0).max(1e-3);
        let field = MotionField::new(
            // Drifts well under a subscription's own extent per tick:
            // the regime `move_entry`'s in-place path is built for.
            MotionModel::RandomWaypoint {
                min_speed: 0.02 * u,
                max_speed: 0.2 * u,
            },
            universe(),
            movers,
            mix(ctx.seed, 3),
        );
        Self {
            model: ScanModel::from_rects(&inputs.rects[..n]),
            leavable: (z.movers as u64..n as u64 - 2).collect(),
            leased: VecDeque::new(),
            // As inserted, not as the field clamped them: the first move
            // must name the rectangle the oracle holds.
            mover_rects: inputs.rects[..z.movers].to_vec(),
            field,
            moved: Vec::new(),
            rng: stream(ctx.seed, 4),
            next_id: n as u64,
            joined: 0,
            tick: 0,
            matches: BatchMatches::new(),
            hits: 0,
            published: 0,
            counters: None,
            checks_done: 0,
            z,
            inputs,
            oracle,
        }
    }

    /// Scripts the next block of ticks against the generator's view of
    /// the live set, mirroring every mutation into the model.
    fn script_block(&mut self) -> Vec<Tick> {
        let mut ticks: Vec<Tick> = (0..BLOCK_TICKS).map(|_| Tick::default()).collect();
        let schedule = PoissonChurn {
            lambda_join: self.z.churn_rate,
            lambda_leave: self.z.churn_rate,
        }
        .schedule(BLOCK_TICKS as f64, &mut self.rng);
        let mut events = schedule.iter().peekable();
        for (k, tick) in ticks.iter_mut().enumerate() {
            let now = self.tick + k as u64;
            while let Some(e) = events.next_if(|e| (e.at as usize) <= k) {
                match e.op {
                    ChurnOp::Join => {
                        let pool = &self.inputs.rects[self.inputs.initial..];
                        let rect = pool[self.joined as usize % pool.len()];
                        let id = self.next_id;
                        self.next_id += 1;
                        self.joined += 1;
                        let lease = self
                            .joined
                            .is_multiple_of(LEASE_EVERY)
                            .then_some(now + LEASE_TICKS);
                        match lease {
                            Some(deadline) => self.leased.push_back((deadline, id)),
                            None => self.leavable.push(id),
                        }
                        self.model.insert(id, rect);
                        tick.joins.push((id, rect, lease));
                    }
                    ChurnOp::Leave => {
                        if self.leavable.is_empty() {
                            continue;
                        }
                        let at = self.rng.gen_range(0..self.leavable.len());
                        let id = self.leavable.swap_remove(at);
                        let rect = self.model.remove(id).expect("leavable ids are live");
                        tick.leaves.push((id, rect));
                    }
                }
            }
            self.field.step_into(&mut self.moved);
            for &(mover, new) in &self.moved {
                let old = std::mem::replace(&mut self.mover_rects[mover as usize], new);
                self.model.relocate(u64::from(mover), new);
                tick.moves.push((u64::from(mover), old, new));
            }
            self.moved.clear();
            while self
                .leased
                .front()
                .is_some_and(|&(deadline, _)| deadline <= now)
            {
                let (_, id) = self.leased.pop_front().expect("front checked");
                self.model.remove(id);
                tick.expiring += 1;
            }
            let span = self.inputs.probes.len() - self.z.publishes + 1;
            tick.probes_at = (now as usize * self.z.publishes) % span;
        }
        ticks
    }

    /// Applies one scripted tick to the oracle — the timed unit.
    fn apply(
        &mut self,
        tick: &Tick,
        now: u64,
        tracer: &mut Tracer,
        checks: &mut crate::model::Checks,
    ) -> OracleFlush {
        let oracle = &mut self.oracle;
        let span = tracer.begin(Layer::Shard, "shard.insert");
        for &(id, rect, lease) in &tick.joins {
            let id = ProcessId::from_raw(id);
            oracle.insert(id, rect);
            if let Some(deadline) = lease {
                oracle.set_lease(id, &rect, deadline);
            }
        }
        tracer.end(span, tick.joins.len() as u64);

        let span = tracer.begin(Layer::Shard, "shard.remove");
        let mut missing = 0u64;
        for (id, rect) in &tick.leaves {
            missing += u64::from(!oracle.remove(ProcessId::from_raw(*id), rect));
        }
        tracer.end(span, tick.leaves.len() as u64);

        let span = tracer.begin(Layer::Shard, "shard.move_entry");
        for (id, old, new) in &tick.moves {
            missing += u64::from(!oracle.move_entry(ProcessId::from_raw(*id), old, *new));
        }
        tracer.end(span, tick.moves.len() as u64);

        let expired = tracer.span(Layer::Shard, "shard.expire_leases", || {
            let n = oracle.expire_leases(now);
            (n, n as u64)
        });
        let flush = tracer.span(Layer::Shard, "shard.flush", || (oracle.flush(), 1));

        let probes = &self.inputs.probes[tick.probes_at..tick.probes_at + self.z.publishes];
        let span = tracer.begin(Layer::Shard, "shard.match_batch_into");
        oracle.match_batch_into(probes, &mut self.matches);
        tracer.end(span, probes.len() as u64);
        self.hits += self.matches.total_hits() as u64;
        self.published += probes.len() as u64;

        checks.fail(missing, || {
            format!("tick {now}: {missing} scripted removes or moves found no entry")
        });
        checks.fail(u64::from(expired != tick.expiring), || {
            format!(
                "tick {now}: {expired} leases expired, script expected {}",
                tick.expiring
            )
        });
        flush
    }

    /// Runs whole blocks until `seconds` of timed time are used and at
    /// least `min_ticks` ticks ran. Generation and checkpoints sit
    /// between blocks, outside the timed time.
    fn run_slice(&mut self, ctx: &mut Ctx, seconds: f64, min_ticks: u64) -> Slice {
        let mut out = Slice::default();
        let limit_ns = (seconds * 1e9) as u64;
        let start_tick = self.tick;
        while out.ns < limit_ns || self.tick - start_tick < min_ticks {
            let ticks = ctx.inputs.time(|| self.script_block());
            let (recording, root) = ctx.begin_block(self.tick as usize / BLOCK_TICKS);
            let block_start = Instant::now();
            let mut ops = 0u64;
            for tick in &ticks {
                let t0 = Instant::now();
                let flush = self.apply(tick, self.tick, &mut ctx.tracer, &mut ctx.out.checks);
                out.tick_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                out.flush_max_ns = out.flush_max_ns.max(flush.elapsed.as_nanos() as u64);
                ops += (tick.joins.len() + tick.leaves.len() + tick.moves.len() + self.z.publishes)
                    as u64;
                self.tick += 1;
                if self.tick == COUNTER_TICKS {
                    self.counters = Some(self.read_counters());
                }
            }
            let ns = block_start.elapsed().as_nanos() as u64;
            ctx.end_block(root, ops);
            out.blocks.push((ops, ns, recording));
            out.ops += ops;
            out.ns += ns;
            ctx.out.checks.passed(ops);
        }
        out
    }

    fn read_counters(&self) -> [u64; 4] {
        [
            self.oracle.compaction_count(),
            self.oracle.rebalance_count() + self.oracle.split_rebalance_count(),
            self.oracle.moved_in_place_total(),
            self.oracle.rekeyed_total(),
        ]
    }

    /// One quarter of the run: `seconds` of ticks in the given mode,
    /// the final drain if this is the last quarter, then a checkpoint.
    fn quarter(&mut self, ctx: &mut Ctx, seconds: f64, index: usize) -> Slice {
        if index == 2 {
            self.oracle.set_compaction_mode(CompactionMode::Concurrent);
        }
        let min_ticks = if index == 0 { COUNTER_TICKS } else { 1 };
        let mut out = self.run_slice(ctx, seconds, min_ticks);
        if index == 3 {
            // Every merge the run started is paid for inside it.
            let t0 = Instant::now();
            loop {
                let flush = self.oracle.flush();
                self.oracle.finish_compactions();
                if self.oracle.compacting_shards() == 0 && flush == OracleFlush::default() {
                    break;
                }
            }
            out.ns += t0.elapsed().as_nanos() as u64;
        }
        self.checkpoint(ctx);
        out
    }

    /// Checks sampled probes and the live count against the model.
    fn checkpoint(&mut self, ctx: &mut Ctx) {
        let mut hits = Vec::new();
        let stride = self.inputs.probes.len() / self.z.check_probes;
        let offset = self.checks_done % stride.max(1);
        self.checks_done += 1;
        ctx.out
            .checks
            .check(self.oracle.len() == self.model.len(), || {
                format!(
                    "tick {}: oracle holds {} entries, model {}",
                    self.tick,
                    self.oracle.len(),
                    self.model.len()
                )
            });
        for i in 0..self.z.check_probes {
            let p = &self.inputs.probes[i * stride + offset];
            self.oracle.match_point_into(p, &mut hits);
            let got: Vec<u64> = hits.iter().map(|id| id.raw()).collect();
            let want = self.model.matches(p);
            ctx.out.checks.check(got == want, || {
                format!(
                    "tick {} probe {i}: oracle {} ids, scan {}",
                    self.tick,
                    got.len(),
                    want.len()
                )
            });
        }
    }
}

fn tick_p99_ms(ticks: &[f64]) -> Option<f64> {
    let mut sorted = ticks.to_vec();
    stats::sort(&mut sorted);
    stats::supported_percentile(&sorted, 0.99)
}

pub fn run(ctx: &mut Ctx) {
    let z = sizes(ctx);
    let inputs = generate(ctx, &z);
    ctx.out.config("subscriptions", z.subscriptions);
    ctx.out.config("shards", SHARDS);
    ctx.out.config("movers", z.movers);
    ctx.out.config("churn_ops_per_tick", 2.0 * z.churn_rate);
    ctx.out.config("publishes_per_tick", z.publishes);
    ctx.out.config("lease_every", LEASE_EVERY);
    ctx.out.config("lease_ticks", LEASE_TICKS);

    let reps = if ctx.traced { 1 } else { 5 };
    let (oracle, setup_s) = repeat_setup(reps, || setup(&inputs));
    ctx.out.set("setup_s", setup_s);
    ctx.out.config("setup_repetitions", reps);
    let mut churn = Churn::new(ctx, z, &inputs, oracle);

    // Quarters 0 and 1 compact synchronously, 2 and 3 concurrently.
    let seconds = ctx.seconds;
    let quarters = four_slices(ctx, seconds, |ctx, seconds, index| {
        churn.quarter(ctx, seconds, index)
    });
    ctx.out.config("ticks", churn.tick);
    ctx.out.config("live_at_end", churn.model.len());

    let mut it = quarters.into_iter();
    let [s0, s1, c0, c1] = std::array::from_fn(|_| it.next().expect("four quarters"));
    let sync = s0.merge(s1);
    let conc = c0.merge(c1);
    let ops = sync.ops + conc.ops;
    let ns = sync.ns + conc.ns;
    let mut tick_ms = [sync.tick_ms.as_slice(), conc.tick_ms.as_slice()].concat();
    ctx.out
        .set("ops_per_s", ops as f64 * 1e9 / ns.max(1) as f64);
    ctx.out.set("latency_ms", stats::median(&mut tick_ms));
    ctx.out.note(format!(
        "ops_per_s: {ops} ops over {:.3} s of ticks, final drain included; latency_ms: median of {} ticks",
        ns as f64 / 1e9,
        tick_ms.len()
    ));
    if ctx.traced {
        super::report_layers(ctx);
        // Per mode, then averaged: the two modes run at different rates.
        ctx.out.set(
            "trace_overhead_share",
            (overhead_share(sync.block_rate(false), sync.block_rate(true))
                + overhead_share(conc.block_rate(false), conc.block_rate(true)))
                / 2.0,
        );
        let traced_ops: u64 = sync
            .blocks
            .iter()
            .chain(&conc.blocks)
            .filter(|b| b.2)
            .map(|b| b.0)
            .sum();
        ctx.out.set("bench.traced_ops", traced_ops as f64);
        ctx.out.set("shard.ops_per_s.sync", sync.ops_per_s());
        ctx.out.set("shard.ops_per_s.concurrent", conc.ops_per_s());
        ctx.out
            .set("shard.flush_max_ms.sync", sync.flush_max_ns as f64 / 1e6);
        ctx.out.set(
            "shard.flush_max_ms.concurrent",
            conc.flush_max_ns as f64 / 1e6,
        );
        ctx.out.set_percentile(
            "shard.tick_p99_ms.sync",
            tick_p99_ms(&sync.tick_ms),
            sync.tick_ms.len(),
        );
        ctx.out.set_percentile(
            "shard.tick_p99_ms.concurrent",
            tick_p99_ms(&conc.tick_ms),
            conc.tick_ms.len(),
        );
        let t = &ctx.tracer;
        let per_layer = [
            ("shard.insert_ns", ns_per_item(t, "shard.insert")),
            ("shard.remove_ns", ns_per_item(t, "shard.remove")),
            ("shard.move_ns", ns_per_item(t, "shard.move_entry")),
            (
                "shard.match_batch_ns.following",
                ns_per_item(t, "shard.match_batch_into"),
            ),
            (
                "shard.flush_total_ms",
                t.spans()
                    .iter()
                    .filter(|s| s.name == "shard.flush")
                    .map(|s| s.end_ns - s.start_ns)
                    .sum::<u64>() as f64
                    / 1e6,
            ),
        ];
        for (name, value) in per_layer {
            ctx.out.set(name, value);
        }
        let [compactions, rebalances, in_place, rekeyed] = churn
            .counters
            .expect("the first quarter runs COUNTER_TICKS ticks");
        ctx.out.set("shard.compactions", compactions as f64);
        ctx.out.set("shard.rebalances", rebalances as f64);
        ctx.out.set("shard.moved_in_place", in_place as f64);
        ctx.out.set("shard.rekeyed", rekeyed as f64);
        ctx.out.note(format!(
            "shard.compactions/rebalances/moved_in_place/rekeyed: read after exactly {COUNTER_TICKS} ticks, so they repeat for a seed"
        ));
        ctx.out.set("shard.len_skew", len_skew(&churn.oracle));
        ctx.out.set(
            "shard.hits_per_event",
            churn.hits as f64 / churn.published.max(1) as f64,
        );
    }
    super::report_inputs(ctx);
}
