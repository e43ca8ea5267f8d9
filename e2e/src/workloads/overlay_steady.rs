//! `overlay-steady`: the composed publish path the paper describes.
//!
//! Ingress queues → commit loop → `Broker::publish_batch_multi` →
//! pipelined overlay dissemination, over a bulk-built overlay with the
//! library defaults (`IngressConfig::default()`, the default publish
//! window). One generator thread owns eight `PublisherHandle`s. Closed
//! phases (blocking `publish`, then `drain`) give the throughput; open
//! phases (Poisson arrivals at a fixed rate through `publish_at`,
//! sleep-paced) give the latency, billed from each event's scheduled
//! time. `core` and `sim` do nearly all the work; the oracle is touched
//! once per commit. An oracle or tree optimisation must show no change
//! here.

use std::time::{Duration, Instant};

use drtree_core::{DrTreeCluster, DrTreeConfig, ProcessId, PublishReport};
use drtree_pubsub::{
    BatchMatches, Broker, IngressConfig, MultiBroker, PublisherHandle, ShardedOracle,
};
use drtree_spatial::{Point, Rect, Schema};
use drtree_workloads::{ArrivalSchedule, EventWorkload};

use super::{four_slices, ns_per_item, overhead_share, repeat_setup, Ctx};
use crate::inputs::{constant_selectivity, mix, stream};
use crate::model::ScanModel;
use crate::stats;
use crate::trace::Layer;

const PUBLISHERS: usize = 8;
/// Offered rate of the open phases, events per second: about half of
/// what the closed phases sustain on the reference host. Fixed, so the
/// latency of two commits is compared at the same load.
const OPEN_RATE: f64 = 375.0;
/// How often the waiting generator looks at the commit counter; bounds
/// the error of each observed commit time.
const POLL: Duration = Duration::from_micros(500);

struct Inputs {
    rects: Vec<Rect<2>>,
    points: Vec<Point<2>>,
}

fn generate(ctx: &mut Ctx) -> Inputs {
    let n = ctx.size(4_096, 192);
    let pool = ctx.size(1 << 15, 1 << 11);
    let seed = ctx.seed;
    let inputs = ctx.inputs.time(|| {
        let rects = constant_selectivity(n).generate::<2>(n, &mut stream(seed, 1));
        let points = EventWorkload::Following.generate_with(pool, &rects, &mut stream(seed, 2));
        Inputs { rects, points }
    });
    ctx.inputs.digest_rects(&inputs.rects);
    ctx.inputs.digest_points(&inputs.points);
    inputs
}

fn build(inputs: &Inputs, seed: u64) -> (Broker<2>, Vec<ProcessId>) {
    Broker::build_bulk(
        Schema::new(["x", "y"]),
        DrTreeConfig::default(),
        mix(seed, 3),
        &inputs.rects,
    )
    .expect("a two-attribute schema for two-dimensional filters")
}

/// A `MultiBroker` incarnation with its eight handles, spread over the
/// subscriber population.
fn ingress(broker: Broker<2>, ids: &[ProcessId]) -> (MultiBroker<2>, Vec<PublisherHandle<2>>) {
    let multi = MultiBroker::with_defaults(broker);
    let handles = (0..PUBLISHERS)
        .map(|i| {
            multi
                .publisher(ids[i * ids.len() / PUBLISHERS])
                .expect("bulk-built subscribers are live")
        })
        .collect();
    (multi, handles)
}

#[derive(Default)]
struct Closed {
    events: u64,
    wall_ns: u64,
    /// Generator time inside blocking `publish` calls.
    blocked_ns: u64,
    batches: u64,
}

#[derive(Default)]
struct Open {
    /// Scheduled-arrival → observed-commit, milliseconds.
    latency_ms: Vec<f64>,
    /// `publish_at` call durations, nanoseconds.
    enqueue_ns: Vec<f64>,
    /// How late the generator issued each event, milliseconds.
    late_ms: Vec<f64>,
    /// The ingress histogram's own view (bucketed, ≤ 6 % high).
    hist: Option<drtree_pubsub::LatencySummary>,
    rejected: u64,
    batches: u64,
}

struct Steady<'a> {
    inputs: &'a Inputs,
    ids: Vec<ProcessId>,
    /// The broker between incarnations of the ingress.
    broker: Option<Broker<2>>,
    cursor: usize,
    seed: u64,
    closed: Closed,
    open: Open,
}

impl Steady<'_> {
    fn next_point(&mut self) -> Point<2> {
        let p = self.inputs.points[self.cursor % self.inputs.points.len()];
        self.cursor += 1;
        p
    }

    /// Audits one finished incarnation and takes the broker back.
    fn retire(&mut self, ctx: &mut Ctx, multi: MultiBroker<2>, submitted: u64) {
        let rate = multi.rate();
        let stats = multi.stats();
        ctx.out.checks.passed(submitted);
        ctx.out.checks.fail(
            (submitted - rate.committed.min(submitted)) + rate.rejected,
            || {
                format!(
                    "ingress: submitted {submitted}, committed {}, rejected {}",
                    rate.committed, rate.rejected
                )
            },
        );
        ctx.out.checks.fail(stats.false_negatives(), || {
            format!("{} false-negative deliveries", stats.false_negatives())
        });
        self.open.rejected += rate.rejected;
        self.broker = Some(multi.finish());
    }

    /// Closed loop: blocking publishes round-robin over the handles for
    /// `seconds`, then `drain`. Backpressure is the pacing.
    fn closed_phase(&mut self, ctx: &mut Ctx, seconds: f64) {
        let (multi, handles) = ingress(self.broker.take().expect("broker at rest"), &self.ids);
        let limit = Duration::from_secs_f64(seconds);
        let mut blocked_ns = 0u64;
        let mut events = 0u64;
        let t0 = Instant::now();
        while t0.elapsed() < limit {
            let point = self.next_point();
            let call = Instant::now();
            let sent = handles[events as usize % PUBLISHERS].publish(point);
            blocked_ns += call.elapsed().as_nanos() as u64;
            ctx.out.checks.fail(u64::from(sent.is_err()), || {
                format!("publish refused: {sent:?}")
            });
            events += 1;
        }
        multi.drain();
        self.closed.wall_ns += t0.elapsed().as_nanos() as u64;
        self.closed.blocked_ns += blocked_ns;
        self.closed.events += events;
        self.closed.batches += multi.batches();
        drop(handles);
        self.retire(ctx, multi, events);
    }

    /// Open loop: Poisson arrivals at [`OPEN_RATE`] for `seconds`. The
    /// generator sleeps towards each scheduled time in [`POLL`] slices
    /// and, each time it wakes, reads the commit counter: events commit
    /// in submission order (one generator, every sweep takes all that is
    /// queued), so the first wake-up at which the counter passes event
    /// `k` is `k`'s commit time to within one slice.
    fn open_phase(&mut self, ctx: &mut Ctx, seconds: f64, slice: usize) {
        let count = ((OPEN_RATE * seconds).ceil() as usize).max(32);
        let arrivals = ctx.inputs.time(|| {
            ArrivalSchedule::Poisson {
                mean_gap_ns: (1e9 / OPEN_RATE) as u64,
            }
            .generate(count, mix(self.seed, 10 + slice as u64))
        });
        ctx.inputs.digest_u64s(&arrivals);
        let (multi, handles) = ingress(self.broker.take().expect("broker at rest"), &self.ids);
        let base = multi.now_ns() + 1_000_000;
        let mut seen = 0usize;
        let mut observe = |now: u64, open: &mut Open| {
            let committed = multi.rate().committed as usize;
            for &at in &arrivals[seen..committed.min(count)] {
                open.latency_ms.push(billed_ms(now, base + at));
            }
            seen = seen.max(committed.min(count));
            seen
        };
        for (i, &at) in arrivals.iter().enumerate() {
            let due = base + at;
            loop {
                let now = multi.now_ns();
                observe(now, &mut self.open);
                if now >= due {
                    break;
                }
                std::thread::sleep(Duration::from_nanos(due - now).min(POLL));
            }
            let point = self.next_point();
            let call = multi.now_ns();
            let sent = handles[i % PUBLISHERS].publish_at(point, due);
            let done = multi.now_ns();
            ctx.out.checks.fail(u64::from(sent.is_err()), || {
                format!("publish_at refused: {sent:?}")
            });
            self.open.late_ms.push(billed_ms(call, due));
            self.open.enqueue_ns.push((done - call) as f64);
        }
        // The tail: wait (bounded) for the last commits.
        let give_up = Instant::now() + Duration::from_secs(60);
        while observe(multi.now_ns(), &mut self.open) < count && Instant::now() < give_up {
            std::thread::sleep(POLL);
        }
        multi.drain();
        self.open.batches += multi.batches();
        // Slices never share a histogram (it has no reset); the last
        // open slice's is the one reported.
        self.open.hist = Some(multi.latency());
        drop(handles);
        self.retire(ctx, multi, count as u64);
    }
}

/// Latency billed from the scheduled time, in milliseconds: an event
/// observed (or issued) before its schedule bills zero, never negative.
fn billed_ms(now_ns: u64, scheduled_ns: u64) -> f64 {
    now_ns.saturating_sub(scheduled_ns) as f64 / 1e6
}

/// Publishes sampled events on the broker at rest and requires every
/// delivery set to contain the scan model's matching set.
fn verify(ctx: &mut Ctx, steady: &mut Steady) {
    let samples = ctx.size(256, 48);
    let model = {
        let mut m = ScanModel::default();
        for (id, r) in steady.ids.iter().zip(&steady.inputs.rects) {
            m.insert(id.raw(), *r);
        }
        m
    };
    let events: Vec<(ProcessId, Point<2>)> = (0..samples)
        .map(|i| (steady.ids[(i * 37) % steady.ids.len()], steady.next_point()))
        .collect();
    let broker = steady.broker.as_mut().expect("broker at rest");
    let reports = broker
        .publish_batch_multi(&events)
        .expect("sampled publishers are live");
    for ((publisher, point), report) in events.iter().zip(&reports) {
        let got: std::collections::BTreeSet<u64> =
            report.receivers.iter().map(|id| id.raw()).collect();
        let missing = model
            .matches(point)
            .into_iter()
            .filter(|&id| id != publisher.raw() && !got.contains(&id))
            .count();
        ctx.out
            .checks
            .check(missing == 0 && report.false_negatives.is_empty(), || {
                format!(
                    "event {}: {missing} matching subscribers not among {} receivers",
                    report.event_id,
                    got.len()
                )
            });
    }
}

pub fn run(ctx: &mut Ctx) {
    let inputs = generate(ctx);
    let seed = ctx.seed;
    let config = IngressConfig::default();
    ctx.out.config("subscribers", inputs.rects.len());
    ctx.out.config("publisher_handles", PUBLISHERS);
    ctx.out.config("open_rate_eps", OPEN_RATE);
    ctx.out
        .config("publish_window", Broker::<2>::DEFAULT_PUBLISH_WINDOW);
    ctx.out.config("ingress_config", format!("{config:?}"));

    let reps = if ctx.traced { 1 } else { 9 };
    let ((broker, ids), setup_s) = repeat_setup(reps, || build(&inputs, seed));
    ctx.out.set("setup_s", setup_s);
    ctx.out.config("setup_repetitions", reps);

    let mut steady = Steady {
        inputs: &inputs,
        ids,
        broker: Some(broker),
        cursor: 0,
        seed,
        closed: Closed::default(),
        open: Open::default(),
    };
    // Closed, open, closed, open: both metrics sample the whole window.
    // A traced run spends half its time here (the ingress can only be
    // measured live) and the other half in the decomposed replay.
    let live_seconds = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    four_slices(ctx, live_seconds, |ctx, seconds, slice| {
        if slice % 2 == 0 {
            steady.closed_phase(ctx, seconds);
        } else {
            steady.open_phase(ctx, seconds, slice);
        }
    });

    let closed = &steady.closed;
    let eps = closed.events as f64 * 1e9 / closed.wall_ns.max(1) as f64;
    let p50 = stats::median(&mut steady.open.latency_ms.clone());
    ctx.out.set("ops_per_s", eps);
    ctx.out.set("latency_ms", p50);
    ctx.out.note(format!(
        "ops_per_s: {} events over {:.3} s of closed loop, drains included; latency_ms: median of {} open-loop events at {OPEN_RATE} events/s, commit times observed every {} us",
        closed.events,
        closed.wall_ns as f64 / 1e9,
        steady.open.latency_ms.len(),
        POLL.as_micros()
    ));

    if ctx.traced {
        ingress_metrics(ctx, &steady);
        let closed_batch = (steady.closed.events / steady.closed.batches.max(1)).max(1) as usize;
        let open_batch =
            (steady.open.latency_ms.len() as u64 / steady.open.batches.max(1)).max(1) as usize;
        replay(ctx, &mut steady, [closed_batch, open_batch], eps, p50);
    }
    verify(ctx, &mut steady);
    super::report_inputs(ctx);
}

/// The `pubsub.ingress` metrics: what only the live ingress can show.
fn ingress_metrics(ctx: &mut Ctx, steady: &Steady) {
    let closed = &steady.closed;
    let open = &steady.open;
    ctx.out.set(
        "ingress.blocked_share",
        closed.blocked_ns as f64 / closed.wall_ns.max(1) as f64,
    );
    ctx.out.set("ingress.batches", closed.batches as f64);
    ctx.out.set(
        "ingress.mean_batch",
        closed.events as f64 / closed.batches.max(1) as f64,
    );
    ctx.out.set(
        "ingress.enqueue_ns",
        stats::median(&mut open.enqueue_ns.clone()),
    );
    ctx.out.set("ingress.rejected", open.rejected as f64);
    let mut late = open.late_ms.clone();
    stats::sort(&mut late);
    ctx.out.set_percentile(
        "ingress.generator_late_p99_ms",
        stats::supported_percentile(&late, 0.99),
        late.len(),
    );
    if let Some(hist) = open.hist {
        let ms = |ns: u64| ns as f64 / 1e6;
        let supported = |q: f64, ns: u64| stats::histogram_supports(hist.count, q).then(|| ms(ns));
        ctx.out.set_percentile(
            "ingress.commit_p50_ms",
            supported(0.5, hist.p50_ns),
            hist.count as usize,
        );
        ctx.out.set_percentile(
            "ingress.commit_p99_ms",
            supported(0.99, hist.p99_ns),
            hist.count as usize,
        );
        ctx.out.set_percentile(
            "ingress.commit_p999_ms",
            supported(0.999, hist.p999_ns),
            hist.count as usize,
        );
        ctx.out.set("ingress.commit_max_ms", ms(hist.max_ns));
        ctx.out.note(
            "ingress.commit_*: the ingress histogram of the last open slice (bucket upper bounds, up to 6 % high)".into(),
        );
    }
}

/// Sums the fields of the reports the decomposition needs.
#[derive(Default, PartialEq, Eq, Debug, Clone, Copy)]
struct Tally {
    events: u64,
    rounds_in_flight: u64,
    messages: u64,
    receivers: u64,
    matching: u64,
}

impl Tally {
    fn add(&mut self, reports: &[PublishReport]) {
        for r in reports {
            self.events += 1;
            self.rounds_in_flight += r.rounds;
            self.messages += r.messages;
            self.receivers += r.receivers.len() as u64;
            self.matching += r.matching.len() as u64;
        }
    }
}

/// The traced run's decomposed replay, on the benchmark thread: the
/// event sequence of the live phases, cut into batches of the live
/// run's mean batch, goes through `Broker::publish_batch_multi` and, on
/// an identically seeded twin, straight through
/// `cluster_mut().publish_pipeline_from`; beside them, idle rounds of
/// the same overlay and the oracle's work per commit. The commit loop
/// owns the broker while the ingress is live, so this is as close as an
/// outside observer gets to nesting the layers. Batches alternate
/// between the closed phases' mean size (`batches[0]`, what the
/// throughput decomposes over) and the open phases' (`batches[1]`, what
/// the latency prediction needs).
fn replay(
    ctx: &mut Ctx,
    steady: &mut Steady,
    batches: [usize; 2],
    live_eps: f64,
    live_p50_ms: f64,
) {
    const SPANS: [[&str; 2]; 2] = [
        ["broker.publish_batch_multi", "core.publish_pipeline_from"],
        [
            "broker.publish_batch_multi.open",
            "core.publish_pipeline_from.open",
        ],
    ];
    let batch = batches[0];
    let inputs = steady.inputs;
    let seed = steady.seed;
    let (mut broker, ids) = build(inputs, seed);
    let (mut twin, _) = build(inputs, seed);
    let window = broker.publish_window();
    let (mut via_broker, mut via_core) = (Tally::default(), Tally::default());
    let mut batch_rounds: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut cursor = 0usize;
    let mut mismatched = 0u64;
    // One block is a closed-size batch and an open-size batch, each
    // through the broker and through the twin; `(events, ns, recorded)`
    // of the broker's calls per block.
    let mut blocks: Vec<(u64, u64, bool)> = Vec::new();
    let t_start = Instant::now();
    // (At least two blocks, so that one of them is traced.)
    while t_start.elapsed().as_secs_f64() < ctx.seconds / 2.0 || blocks.len() < 2 {
        let (recording, root) = ctx.begin_block(blocks.len());
        let (mut events_done, mut ns) = (0u64, 0u64);
        for (kind, &batch) in batches.iter().enumerate() {
            let events: Vec<(ProcessId, Point<2>)> = (0..batch)
                .map(|k| {
                    let i = cursor + k;
                    (
                        ids[(i % PUBLISHERS) * ids.len() / PUBLISHERS],
                        inputs.points[i % inputs.points.len()],
                    )
                })
                .collect();
            cursor += batch;
            let t0 = Instant::now();
            let reports = ctx.tracer.span(Layer::Broker, SPANS[kind][0], || {
                let r = broker
                    .publish_batch_multi(&events)
                    .expect("publishers are live");
                (r, batch as u64)
            });
            ns += t0.elapsed().as_nanos() as u64;
            events_done += batch as u64;
            let round0 = twin.cluster().round();
            let twin_reports = ctx.tracer.span(Layer::Core, SPANS[kind][1], || {
                (
                    twin.cluster_mut().publish_pipeline_from(&events, window),
                    batch as u64,
                )
            });
            batch_rounds[kind].push((twin.cluster().round() - round0) as f64);
            // The simulation is deterministic: the twin, fed the same
            // batches from the same state, must do the same work.
            mismatched += reports
                .iter()
                .zip(&twin_reports)
                .filter(|(a, b)| {
                    a.rounds != b.rounds || a.messages != b.messages || a.receivers != b.receivers
                })
                .count() as u64;
            via_broker.add(&reports);
            via_core.add(&twin_reports);
        }
        ctx.end_block(root, events_done);
        blocks.push((events_done, ns, recording));
    }
    ctx.out.checks.passed(via_broker.events);
    ctx.out.checks.fail(mismatched + u64::from(via_broker != via_core), || {
        format!("replay: {mismatched} events differ between the broker and its twin ({via_broker:?} vs {via_core:?})")
    });
    super::report_layers(ctx);
    let rate = |recorded: bool| {
        let (e, ns) = blocks
            .iter()
            .filter(|b| b.2 == recorded)
            .fold((0u64, 0u64), |(e, ns), b| (e + b.0, ns + b.1));
        e as f64 * 1e9 / ns.max(1) as f64
    };
    ctx.out.set(
        "trace_overhead_share",
        overhead_share(rate(false), rate(true)),
    );
    ctx.out.set(
        "bench.traced_ops",
        blocks.iter().filter(|b| b.2).map(|b| b.0).sum::<u64>() as f64,
    );

    // Probes on the same overlay, quiescent: the round engine alone,
    // the protocol's maintenance calls, the oracle's work per commit.
    let t = &mut ctx.tracer;
    t.set_enabled(true);
    let root = t.begin(Layer::Bench, "bench.layer_probes");
    let idle_rounds = 200u64;
    let sent0 = twin.cluster().metrics().sent();
    t.span(Layer::Sim, "sim.run_round", || {
        for _ in 0..idle_rounds {
            twin.cluster_mut().run_round();
        }
        ((), idle_rounds)
    });
    let sent = twin.cluster().metrics().sent() - sent0;
    t.span(Layer::Core, "core.check_legal", || {
        let ok = (0..10)
            .filter(|_| twin.cluster().check_legal().is_ok())
            .count();
        (ok, 10)
    });
    t.span(Layer::Core, "core.build_bulk", || {
        let c = DrTreeCluster::build_bulk(DrTreeConfig::default(), mix(seed, 3), &inputs.rects);
        (c.len(), 1)
    });
    let mut scratch = twin.cluster().clone();
    let joins = 4usize;
    let round0 = scratch.round();
    let joined: Vec<ProcessId> = t.span(Layer::Core, "core.add_subscriber_stable", || {
        let ids = (0..joins)
            .map(|k| scratch.add_subscriber_stable(inputs.rects[k * 31 % inputs.rects.len()]))
            .collect();
        (ids, joins as u64)
    });
    let join_rounds = scratch.round() - round0;
    let stabilized = t.span(Layer::Core, "core.controlled_leave", || {
        let mut ok = true;
        for id in &joined {
            scratch.controlled_leave(*id);
            ok &= scratch.stabilize(10_000).is_some();
        }
        (ok, joins as u64)
    });
    let (mut fresh, _) = build(inputs, seed);
    t.span(Layer::Broker, "broker.flush_oracle", || {
        (fresh.flush_oracle(), 1)
    });
    t.span(Layer::Shard, "shard.oracle_snapshot", || {
        for _ in 0..20 {
            std::hint::black_box(fresh.oracle_snapshot());
        }
        ((), 20)
    });
    let mut oracle: ShardedOracle<2> = ShardedOracle::new(fresh.shard_count());
    for (id, r) in ids.iter().zip(&inputs.rects) {
        oracle.insert(*id, *r);
    }
    oracle.flush();
    let mut matches = BatchMatches::new();
    let probes = &inputs.points[..inputs.points.len().min(64 * batch)];
    t.span(Layer::Shard, "shard.match_batch_into", || {
        let mut hits = 0usize;
        for chunk in probes.chunks(batch) {
            oracle.match_batch_into(chunk, &mut matches);
            hits += matches.total_hits();
        }
        (std::hint::black_box(hits), probes.len() as u64)
    });
    t.end(root, 0);
    ctx.out.checks.check(stabilized, || {
        "overlay did not re-stabilize after controlled leaves".into()
    });

    let t = &ctx.tracer;
    let events = via_core.events.max(1) as f64;
    let broker_us = ns_per_item(t, "broker.publish_batch_multi") / 1e3;
    let core_us = ns_per_item(t, "core.publish_pipeline_from") / 1e3;
    let idle_us = ns_per_item(t, "sim.run_round") / 1e3;
    let rounds_per_batch = stats::median(&mut batch_rounds[0].clone());
    let open_rounds_per_batch = stats::median(&mut batch_rounds[1].clone());
    let snapshot_us = ns_per_item(t, "shard.oracle_snapshot") / 1e3;
    let match_ns = ns_per_item(t, "shard.match_batch_into");
    ctx.out.set("sim.idle_round_us", idle_us);
    ctx.out
        .set("sim.messages_per_round", sent as f64 / idle_rounds as f64);
    ctx.out.set("core.pipeline_us_per_event", core_us);
    ctx.out.set(
        "core.rounds_per_event",
        via_core.rounds_in_flight as f64 / events,
    );
    ctx.out.set("core.rounds_per_batch", open_rounds_per_batch);
    ctx.out
        .set("core.messages_per_event", via_core.messages as f64 / events);
    ctx.out.set(
        "core.delivery_precision",
        via_core.matching as f64 / via_core.receivers.max(1) as f64,
    );
    ctx.out.set(
        "core.check_legal_ms",
        ns_per_item(t, "core.check_legal") / 1e6,
    );
    ctx.out.set(
        "core.build_bulk_ms",
        ns_per_item(t, "core.build_bulk") / 1e6,
    );
    ctx.out.set(
        "core.join_ms",
        ns_per_item(t, "core.add_subscriber_stable") / 1e6,
    );
    ctx.out
        .set("core.join_rounds", join_rounds as f64 / joins as f64);
    ctx.out.set(
        "core.leave_ms",
        ns_per_item(t, "core.controlled_leave") / 1e6,
    );
    ctx.out.set("broker.publish_batch_us_per_event", broker_us);
    ctx.out.set(
        "broker.self_share",
        (broker_us - core_us) / broker_us.max(1e-9),
    );
    ctx.out.set(
        "broker.flush_oracle_ms",
        ns_per_item(t, "broker.flush_oracle") / 1e6,
    );
    ctx.out.set("shard.match_batch_ns.following", match_ns);
    ctx.out.set("shard.snapshot_ms", snapshot_us / 1e3);
    let predicted_ms = open_rounds_per_batch * idle_us / 1e3;
    ctx.out.set("ingress.predicted_p50_ms", predicted_ms);

    // One committed event, decomposed. The live closed loop gives the
    // whole (1 / ops_per_s); the replay gives the broker's and the
    // overlay's part of it; idle rounds give the round engine's part of
    // the overlay's; the snapshot refresh is the oracle work the commit
    // loop does per batch. Each layer's self time is its own time minus
    // the next layer's.
    // (If the replay ran slower than the live loop, the ingress's own
    // share is below what this can resolve; the broker's time is then
    // the whole.)
    let whole_us = (1e6 / live_eps.max(1e-9)).max(broker_us);
    let sim_us = (rounds_per_batch * idle_us / batch as f64).min(core_us);
    let shard_us = (snapshot_us / batch as f64).min((whole_us - broker_us).max(0.0));
    let rows = [
        (
            "pubsub.ingress",
            "ingress.wall_share",
            (whole_us - broker_us - shard_us).max(0.0),
        ),
        ("pubsub.shard+rtree", "shard.wall_share", shard_us),
        (
            "pubsub.broker",
            "broker.wall_share",
            (broker_us - core_us).max(0.0),
        ),
        ("core", "core.wall_share", core_us - sim_us),
        ("sim", "sim.wall_share", sim_us),
    ];
    println!("# decomposition of one committed event ({whole_us:.1} us at {live_eps:.0} events/s, batches of {batch})");
    for (layer, metric, us) in rows {
        println!(
            "# {layer:<20} self {us:>9.2} us  {:>5.1}%",
            100.0 * us / whole_us
        );
        ctx.out.set(metric, us / whole_us);
    }
    ctx.out.set("bench.wall_share", 0.0);
    ctx.out.note(format!(
        "prediction pubsub.shard + rtree < 1 % of wall: measured {:.2} % (snapshot refresh per commit; a batched match of the same points would add {:.2} %)",
        100.0 * shard_us / whole_us,
        100.0 * (match_ns / 1e3) / whole_us
    ));
    ctx.out.note(format!(
        "prediction latency_ms ~ core.rounds_per_batch x sim.idle_round_us: {open_rounds_per_batch:.1} rounds (batches of {}, the open phases' mean) x {idle_us:.0} us = {predicted_ms:.1} ms beside a measured open-loop median of {live_p50_ms:.1} ms; closed-phase batches of {batch} take {rounds_per_batch:.1} rounds",
        batches[1]
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_is_billed_from_the_scheduled_time() {
        // Scheduled at 10 ms, committed at 25 ms: 15 ms, however late
        // the generator issued the event in between.
        assert_eq!(billed_ms(25_000_000, 10_000_000), 15.0);
        // A generator running 4 ms late is 4 ms late …
        assert_eq!(billed_ms(14_000_000, 10_000_000), 4.0);
        // … and one waking before the schedule bills nothing, never a
        // negative latency.
        assert_eq!(billed_ms(9_000_000, 10_000_000), 0.0);
    }

    #[test]
    fn poisson_arrivals_hold_the_offered_rate() {
        let n = 4_000;
        let arrivals = ArrivalSchedule::Poisson {
            mean_gap_ns: (1e9 / OPEN_RATE) as u64,
        }
        .generate(n, 1);
        let rate = (n - 1) as f64 * 1e9 / *arrivals.last().unwrap() as f64;
        assert!((rate / OPEN_RATE - 1.0).abs() < 0.1, "{rate} events/s");
    }
}
