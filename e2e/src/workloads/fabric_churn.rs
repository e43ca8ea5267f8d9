//! `fabric-churn`: the federated fabric under client churn and broker
//! faults.
//!
//! The only workload in which `pubsub.federation` and fabric-level
//! routing do the work: eight brokers own contiguous Hilbert ranges of a
//! large subscription set, and every step publishes, subscribes,
//! unsubscribes and relocates before advancing the fabric one round. A
//! fixed plan of steps crashes one broker and rejoins it warm from a
//! checkpoint, then crashes another and rejoins it cold, over and over,
//! so about half the steps run with a broker down. Each range is a
//! `ShardedOracle`, so oracle changes reach this workload through set-up
//! and matching, but the per-step protocol cost is the fabric's own.

use std::time::Instant;

use drtree_pubsub::{FedConfig, FedEngine, FederatedFabric, RejoinOutcome};
use drtree_spatial::{Point, Rect};
use drtree_workloads::subscriptions::SPACE;
use drtree_workloads::EventWorkload;
use rand::rngs::StdRng;
use rand::Rng;

use super::{ns_per_item, overhead_share, repeat_setup, Ctx};
use crate::inputs::{constant_selectivity, mix, stream, universe};
use crate::model::ScanModel;
use crate::stats;
use crate::trace::Layer;

const BROKERS: usize = 8;
const PUBLISHES: usize = 64;
const SUBSCRIBES: usize = 4;
const UNSUBSCRIBES: usize = 2;
const RELOCATES: usize = 2;
/// Steps scripted, then timed, as one unit.
const BLOCK: u64 = 250;
/// Period of the fault plan and the steps within it at which the faults
/// fire. The checkpoint sits just before the first crash so the warm
/// rejoin catches up by delta (fewer ops per range than the brokers'
/// op-log cap); every rejoin has a thousand rounds to re-reach a legal
/// fabric before the next crash (it takes a handful).
const PERIOD: u64 = 4_000;
const CHECKPOINT_AT: u64 = 490;
const CRASH_WARM_AT: u64 = 500;
const REJOIN_WARM_AT: u64 = 1_500;
const CRASH_COLD_AT: u64 = 2_500;
const REJOIN_COLD_AT: u64 = 3_500;
/// The plan's three phases — all brokers up, the warm broker down, the
/// cold broker down — and the steps of a period spent in each. Blocks
/// never straddle a phase (every boundary is a multiple of [`BLOCK`]).
const PHASE_STEPS: [u64; 3] = [2_000, 1_000, 1_000];

fn phase(step_in_period: u64) -> usize {
    match step_in_period {
        CRASH_WARM_AT..REJOIN_WARM_AT => 1,
        CRASH_COLD_AT..REJOIN_COLD_AT => 2,
        _ => 0,
    }
}

/// One value for a whole period from samples sorted by phase: each
/// phase's median, weighted by the steps the plan spends in it. A run
/// stops wherever its time runs out, so the share of samples from each
/// phase differs from run to run; the weights do not. A phase the run
/// never reached borrows the median of all samples.
fn over_a_period(by_phase: &[Vec<f64>; 3]) -> f64 {
    let mut all: Vec<f64> = by_phase.iter().flatten().copied().collect();
    if all.is_empty() {
        return 0.0;
    }
    let fallback = stats::median(&mut all);
    let weighted: f64 = by_phase
        .iter()
        .zip(PHASE_STEPS)
        .map(|(samples, steps)| {
            let median = if samples.is_empty() {
                fallback
            } else {
                stats::median(&mut samples.clone())
            };
            median * steps as f64
        })
        .sum();
    weighted / PERIOD as f64
}
const WARM_BROKER: usize = 1;
const COLD_BROKER: usize = 3;

struct Inputs {
    rects: Vec<Rect<2>>,
    joins: Vec<Rect<2>>,
    points: Vec<Point<2>>,
}

fn generate(ctx: &mut Ctx) -> Inputs {
    let n = ctx.size(1_000_000, 8_000);
    let pool = ctx.size(1 << 18, 1 << 12);
    let seed = ctx.seed;
    let inputs = ctx.inputs.time(|| {
        let rects = constant_selectivity(n).generate::<2>(n, &mut stream(seed, 1));
        let joins = constant_selectivity(n).generate::<2>(pool / 2, &mut stream(seed, 2));
        let points = EventWorkload::Following.generate_with(pool, &rects, &mut stream(seed, 3));
        Inputs {
            rects,
            joins,
            points,
        }
    });
    ctx.inputs.digest_rects(&inputs.rects);
    ctx.inputs.digest_rects(&inputs.joins);
    ctx.inputs.digest_points(&inputs.points);
    inputs
}

struct Built {
    fabric: FederatedFabric<2>,
    populate_s: f64,
    settle_rounds: u64,
    settled: bool,
}

fn setup(inputs: &Inputs, seed: u64) -> Built {
    let t0 = Instant::now();
    let mut fabric = FederatedFabric::new(
        BROKERS,
        &universe(),
        mix(seed, 4),
        FedEngine::Rounds,
        FedConfig::default(),
    );
    fabric.bulk_populate(&inputs.rects);
    let populate_s = t0.elapsed().as_secs_f64();
    let clock0 = fabric.clock();
    let settled = fabric.settle(2_000);
    Built {
        settle_rounds: fabric.clock() - clock0,
        fabric,
        populate_s,
        settled,
    }
}

/// One step's client operations, scripted ahead of the timed region.
struct Step {
    subscribes: [Rect<2>; SUBSCRIBES],
    unsubscribes: [u64; UNSUBSCRIBES],
    relocates: [(u64, Rect<2>); RELOCATES],
    points_at: usize,
}

/// What the timed region measured.
#[derive(Default)]
struct Timed {
    /// `(plan phase, recorded spans, nanoseconds per step)` per block.
    blocks: Vec<(usize, bool, f64)>,
    published: u64,
}

impl Timed {
    /// Publications per second over one period of the plan, from the
    /// blocks `keep` admits.
    fn ops_per_s(&self, keep: impl Fn(bool) -> bool) -> f64 {
        let mut by_phase: [Vec<f64>; 3] = Default::default();
        for &(phase, recorded, step_ns) in &self.blocks {
            if keep(recorded) {
                by_phase[phase].push(step_ns);
            }
        }
        PUBLISHES as f64 * 1e9 / over_a_period(&by_phase).max(1e-9)
    }
}

struct Churn<'a> {
    inputs: &'a Inputs,
    fabric: FederatedFabric<2>,
    model: ScanModel,
    live: Vec<u64>,
    rng: StdRng,
    next_sub: u64,
    joined: usize,
    steps: u64,
    /// Wall clock at the end of every fabric round, indexed by
    /// `clock − clock0`, for publish→resolve latencies.
    stamps: Vec<u64>,
    clock0: u64,
    epoch: Instant,
    rejoin_ms: [Vec<f64>; 2],
    checkpoint_ms: Vec<f64>,
}

impl<'a> Churn<'a> {
    fn script_block(&mut self) -> Vec<Step> {
        (0..BLOCK)
            .map(|k| {
                let subscribes = std::array::from_fn(|_| {
                    let rect = self.inputs.joins[self.joined % self.inputs.joins.len()];
                    self.joined += 1;
                    self.model.insert(self.next_sub, rect);
                    self.live.push(self.next_sub);
                    self.next_sub += 1;
                    rect
                });
                let unsubscribes = std::array::from_fn(|_| {
                    let at = self.rng.gen_range(0..self.live.len());
                    let id = self.live.swap_remove(at);
                    self.model.remove(id);
                    id
                });
                let relocates = std::array::from_fn(|_| {
                    let id = self.live[self.rng.gen_range(0..self.live.len())];
                    let old = self.model.get(id).expect("live ids are in the model");
                    // A drift of up to one extent, kept inside the universe.
                    let mut lo = [0.0; 2];
                    let mut hi = [0.0; 2];
                    for d in 0..2 {
                        let ext = old.extent(d);
                        let shift = self.rng.gen_range(-ext..=ext);
                        lo[d] = (old.lo(d) + shift).clamp(0.0, SPACE - ext);
                        hi[d] = lo[d] + ext;
                    }
                    let new = Rect::new(lo, hi);
                    self.model.relocate(id, new);
                    (id, new)
                });
                let span = self.inputs.points.len() - PUBLISHES + 1;
                Step {
                    subscribes,
                    unsubscribes,
                    relocates,
                    points_at: ((self.steps + k) as usize * PUBLISHES) % span,
                }
            })
            .collect()
    }

    fn fault(&mut self, ctx: &mut Ctx, at: u64) {
        let t = &mut ctx.tracer;
        let fabric = &mut self.fabric;
        match at {
            CHECKPOINT_AT => {
                let t0 = Instant::now();
                t.span(Layer::Federation, "fabric.checkpoint_all", || {
                    (fabric.checkpoint_all(), 1)
                });
                self.checkpoint_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            CRASH_WARM_AT | CRASH_COLD_AT => {
                let broker = if at == CRASH_WARM_AT {
                    WARM_BROKER
                } else {
                    COLD_BROKER
                };
                let crashed = t.span(Layer::Federation, "fabric.crash_broker", || {
                    (fabric.crash_broker(broker), 1)
                });
                ctx.out.checks.check(crashed, || {
                    format!("step {}: broker {broker} refused to crash", self.steps)
                });
            }
            REJOIN_WARM_AT | REJOIN_COLD_AT => {
                let warm = at == REJOIN_WARM_AT;
                let (broker, name, want) = if warm {
                    (
                        WARM_BROKER,
                        "fabric.rejoin_broker.warm",
                        RejoinOutcome::Warm,
                    )
                } else {
                    (
                        COLD_BROKER,
                        "fabric.rejoin_broker.cold",
                        RejoinOutcome::Cold,
                    )
                };
                let t0 = Instant::now();
                let outcome = t.span(Layer::Federation, name, || {
                    (fabric.rejoin_broker(broker, warm), 1)
                });
                self.rejoin_ms[usize::from(!warm)].push(t0.elapsed().as_secs_f64() * 1e3);
                ctx.out.checks.check(outcome == want, || {
                    format!(
                        "step {}: rejoin of broker {broker} was {outcome:?}, not {want:?}",
                        self.steps
                    )
                });
            }
            _ => {}
        }
    }

    /// Runs whole blocks until `seconds` are used.
    fn timed(&mut self, ctx: &mut Ctx, seconds: f64) -> Timed {
        let mut out = Timed::default();
        let t_start = Instant::now();
        loop {
            let script = ctx.inputs.time(|| self.script_block());
            let block_phase = phase(self.steps % PERIOD);
            let (recording, root) = ctx.begin_block((self.steps / BLOCK) as usize);
            let t0 = Instant::now();
            for step in &script {
                self.fault(ctx, self.steps % PERIOD);
                let t = &mut ctx.tracer;
                let fabric = &mut self.fabric;
                let points = &self.inputs.points[step.points_at..step.points_at + PUBLISHES];
                t.span(Layer::Federation, "fabric.publish", || {
                    for p in points {
                        fabric.publish(*p);
                    }
                    ((), PUBLISHES as u64)
                });
                let missed = t.span(Layer::Federation, "fabric.client_ops", || {
                    let mut missed = 0u64;
                    for rect in step.subscribes {
                        fabric.subscribe(rect);
                    }
                    for id in step.unsubscribes {
                        missed += u64::from(!fabric.unsubscribe(id));
                    }
                    for (id, new) in step.relocates {
                        missed += u64::from(!fabric.relocate(id, new));
                    }
                    (missed, (SUBSCRIBES + UNSUBSCRIBES + RELOCATES) as u64)
                });
                ctx.out.checks.fail(missed, || {
                    format!(
                        "step {}: {missed} client ops named unknown subscriptions",
                        self.steps
                    )
                });
                t.span(Layer::Federation, "fabric.step", || (fabric.step(), 1));
                self.stamps.push(self.epoch.elapsed().as_nanos() as u64);
                self.steps += 1;
            }
            let step_ns = t0.elapsed().as_nanos() as f64 / BLOCK as f64;
            ctx.end_block(root, BLOCK * PUBLISHES as u64);
            out.blocks.push((block_phase, recording, step_ns));
            out.published += BLOCK * PUBLISHES as u64;
            // (At least two blocks, so a traced run has a traced one.)
            if t_start.elapsed().as_secs_f64() >= seconds && out.blocks.len() >= 2 {
                break;
            }
        }
        out
    }

    /// Publish→resolve latencies in milliseconds (by the plan phase the
    /// event was published in) and in rounds, from the fabric's
    /// completion log and the per-round wall stamps.
    fn latencies(&self) -> ([Vec<f64>; 3], Vec<f64>) {
        let at = |clock: u64| {
            // Stamp `i` is the end of round `clock0 + i + 1`.
            let i = (clock - self.clock0) as usize;
            if i == 0 {
                self.stamps[0]
            } else {
                self.stamps[(i - 1).min(self.stamps.len() - 1)]
            }
        };
        let mut ms: [Vec<f64>; 3] = Default::default();
        let mut rounds = Vec::new();
        for e in self.fabric.completed() {
            if e.injected_at < self.clock0 {
                continue;
            }
            let published_in = phase((e.injected_at - self.clock0) % PERIOD);
            ms[published_in].push((at(e.completed_at) - at(e.injected_at)) as f64 / 1e6);
            rounds.push((e.completed_at - e.injected_at) as f64);
        }
        (ms, rounds)
    }
}

pub fn run(ctx: &mut Ctx) {
    let inputs = generate(ctx);
    let n = inputs.rects.len();
    ctx.out.config("subscriptions", n);
    ctx.out.config("brokers", BROKERS);
    ctx.out.config("per_step", format!("{PUBLISHES} publish, {SUBSCRIBES} subscribe, {UNSUBSCRIBES} unsubscribe, {RELOCATES} relocate"));
    ctx.out.config("fault_plan", format!("period {PERIOD} steps: checkpoint_all @{CHECKPOINT_AT}, crash broker {WARM_BROKER} @{CRASH_WARM_AT}, warm rejoin @{REJOIN_WARM_AT}, crash broker {COLD_BROKER} @{CRASH_COLD_AT}, cold rejoin @{REJOIN_COLD_AT}"));

    let reps = if ctx.traced { 1 } else { 3 };
    let seed = ctx.seed;
    let (built, setup_s) = repeat_setup(reps, || setup(&inputs, seed));
    ctx.out.set("setup_s", setup_s);
    ctx.out.config("setup_repetitions", reps);
    ctx.out
        .checks
        .check(built.settled, || "populated fabric never settled".into());

    let mut churn = Churn {
        inputs: &inputs,
        clock0: built.fabric.clock(),
        fabric: built.fabric,
        model: ScanModel::from_rects(&inputs.rects),
        live: (0..n as u64).collect(),
        rng: stream(seed, 5),
        next_sub: n as u64,
        joined: 0,
        steps: 0,
        stamps: Vec::new(),
        epoch: Instant::now(),
        rejoin_ms: [Vec::new(), Vec::new()],
        checkpoint_ms: Vec::new(),
    };
    let completed0 = churn.fabric.completed().len();
    let forwards0 = churn.fabric.metrics().label_count("fed-forward");
    let seconds = ctx.seconds;
    let timed = churn.timed(ctx, seconds);
    ctx.out.config("steps", churn.steps);

    // Everything published must resolve, and the fabric must be legal
    // once every broker is back.
    for broker in [WARM_BROKER, COLD_BROKER] {
        if churn.fabric.is_down(broker) {
            churn.fabric.rejoin_broker(broker, false);
        }
    }
    let settled = churn.fabric.settle(4_000);
    let published = timed.published;
    let resolved = (churn.fabric.completed().len() - completed0) as u64;
    ctx.out.checks.passed(published);
    ctx.out
        .checks
        .fail(published - resolved.min(published), || {
            format!(
                "{} of {published} publications never resolved",
                published - resolved
            )
        });
    ctx.out.checks.check(
        settled && churn.fabric.outstanding_events() == 0 && churn.fabric.check_legal().is_ok(),
        || format!("fabric did not settle: {:?}", churn.fabric.check_legal()),
    );

    let (latency_ms, mut rounds) = churn.latencies();
    ctx.out.set("ops_per_s", timed.ops_per_s(|_| true));
    ctx.out.set("latency_ms", over_a_period(&latency_ms));
    ctx.out.note(format!(
        "ops_per_s and latency_ms: per-phase medians (all up / warm broker down / cold broker down: {:?} blocks of {BLOCK} steps, {:?} publications) weighted by the plan's {PHASE_STEPS:?} steps per period",
        [0, 1, 2].map(|p| timed.blocks.iter().filter(|b| b.0 == p).count()),
        latency_ms.each_ref().map(Vec::len),
    ));
    if ctx.traced {
        super::report_layers(ctx);
        ctx.out.set(
            "trace_overhead_share",
            overhead_share(timed.ops_per_s(|r| !r), timed.ops_per_s(|r| r)),
        );
        ctx.out.set(
            "bench.traced_ops",
            (timed.blocks.iter().filter(|b| b.1).count() as u64 * BLOCK * PUBLISHES as u64) as f64,
        );
        ctx.out.set("fabric.populate_s", built.populate_s);
        ctx.out
            .set("fabric.settle_rounds", built.settle_rounds as f64);
        ctx.out.set(
            "fabric.step_us",
            ns_per_item(&ctx.tracer, "fabric.step") / 1e3,
        );
        let forwards = churn.fabric.metrics().label_count("fed-forward") - forwards0;
        ctx.out.set(
            "fabric.forwards_per_event",
            forwards as f64 / resolved.max(1) as f64,
        );
        stats::sort(&mut rounds);
        ctx.out.set(
            "fabric.resolve_rounds_p50",
            stats::nearest_rank(&rounds, 0.5),
        );
        ctx.out.set_percentile(
            "fabric.resolve_rounds_p99",
            stats::supported_percentile(&rounds, 0.99),
            rounds.len(),
        );
        let median_of = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                stats::median(&mut v.to_vec())
            }
        };
        ctx.out
            .set("fabric.checkpoint_ms", median_of(&churn.checkpoint_ms));
        ctx.out
            .set("fabric.warm_rejoin_ms", median_of(&churn.rejoin_ms[0]));
        ctx.out
            .set("fabric.cold_rejoin_ms", median_of(&churn.rejoin_ms[1]));
        recovery_probe(ctx, &mut churn);
    }

    verify(ctx, &mut churn);
    super::report_inputs(ctx);
}

/// Crashes and cold-rejoins one broker on the settled fabric, checking
/// legality after every round: the fabric's recovery time in rounds,
/// unquantized. Outside the timed region — `check_legal` folds every
/// expected entry's fingerprint, far more than a round costs.
fn recovery_probe(ctx: &mut Ctx, churn: &mut Churn) {
    let fabric = &mut churn.fabric;
    ctx.tracer.set_enabled(true);
    let root = ctx.tracer.begin(Layer::Bench, "bench.layer_probes");
    let crashed = fabric.crash_broker(COLD_BROKER);
    for _ in 0..64 {
        fabric.step();
    }
    let outcome = fabric.rejoin_broker(COLD_BROKER, false);
    let mut rounds = 0u64;
    while fabric.check_legal().is_err() && rounds < 4_000 {
        ctx.tracer
            .span(Layer::Federation, "fabric.step.recovering", || {
                (fabric.step(), 1)
            });
        rounds += 1;
    }
    ctx.tracer.end(root, rounds);
    ctx.out.checks.check(
        crashed && outcome == RejoinOutcome::Cold && fabric.check_legal().is_ok(),
        || format!("recovery probe: crashed {crashed}, rejoin {outcome:?}, legal after {rounds} rounds: {:?}", fabric.check_legal()),
    );
    ctx.out.set("fabric.recovery_rounds", rounds as f64);
}

/// Publishes sampled probes on the quiesced fabric and requires every
/// delivery set to equal the scan model's.
fn verify(ctx: &mut Ctx, churn: &mut Churn) {
    let samples = ctx.size(256, 48);
    let stride = churn.inputs.points.len() / samples;
    let first = churn.fabric.completed().len();
    let probes: Vec<(u64, Point<2>)> = (0..samples)
        .map(|i| {
            let p = churn.inputs.points[i * stride];
            (churn.fabric.publish(p), p)
        })
        .collect();
    let settled = churn.fabric.settle(2_000);
    ctx.out
        .checks
        .check(settled, || "verification probes never resolved".into());
    let completed = &churn.fabric.completed()[first..];
    for (event, point) in probes {
        let want = churn.model.matches(&point);
        let got = completed.iter().find(|c| c.event == event).map(|c| &c.subs);
        ctx.out.checks.check(got == Some(&want), || {
            format!(
                "probe event {event}: fabric delivered {:?} ids, scan {}",
                got.map(Vec::len),
                want.len()
            )
        });
    }
}
