//! `overlay-recover`: the paper's headline claim, timed.
//!
//! `core` + `sim` used differently from steady dissemination: canonical
//! fault schedules run against freshly bulk-built overlays through
//! `run_convergence` with a legality check after every round
//! (`check_stride: 1`, so recovery rounds are real, not quantized to a
//! stride), publications flowing throughout. CHECK_* repair,
//! join/leave and `check_legal` do the work. A dissemination fast path
//! that slows repair shows here and nowhere else.
//!
//! Only three of the six canonical schedules are timed. The other three
//! (`regional-crash`, `lossy-burst`, `broker-churn`: the ones that crash
//! processes or lose messages) do not recover, or recover to an overlay
//! that misses deliveries, on a share of seeds — see README.md,
//! findings — and a benchmark workload must be one on which no
//! operation fails. A traced run still probes them once each and
//! reports what happened without gating on it. Even a timed schedule
//! once in a few hundred calls exhausts its round budget without
//! re-reaching a legal state: such a call is a time-out of the system
//! under test, counted (`core.unrecovered_calls`) and left out of the
//! timing, and fails the run only when more than one call in ten ends
//! that way. A call that *does* recover must leave a legal overlay that
//! misses no delivery (the paper's exactness, §2.3). The harness's
//! stricter claim, that pipelined and sequential publishing then reach
//! the very same receivers, does not hold on every seed either; it is
//! counted (`core.pipeline_mismatch_calls`), not gated.

use std::time::Instant;

use drtree_core::{run_convergence, ConvergenceConfig, DrTreeCluster, DrTreeConfig, FaultSchedule};
use drtree_spatial::Rect;

use super::{ns_per_item, overhead_share, Ctx};
use crate::inputs::{constant_selectivity, mix, stream};
use crate::report::SCHEDULES;
use crate::stats;
use crate::trace::Layer;

const RUN_SPANS: [&str; 6] = [
    "core.run_convergence.partition-heal",
    "core.run_convergence.regional-crash",
    "core.run_convergence.lossy-burst",
    "core.run_convergence.dup-reorder",
    "core.run_convergence.corruption-volley",
    "core.run_convergence.broker-churn",
];
const RECOVER_S: [&str; 6] = [
    "core.recover_s.partition-heal",
    "core.recover_s.regional-crash",
    "core.recover_s.lossy-burst",
    "core.recover_s.dup-reorder",
    "core.recover_s.corruption-volley",
    "core.recover_s.broker-churn",
];
const RECOVERY_ROUNDS: [&str; 6] = [
    "core.recovery_rounds.partition-heal",
    "core.recovery_rounds.regional-crash",
    "core.recovery_rounds.lossy-burst",
    "core.recovery_rounds.dup-reorder",
    "core.recovery_rounds.corruption-volley",
    "core.recovery_rounds.broker-churn",
];
/// Canonical-order indices of the schedules inside the timed region …
const TIMED: [usize; 3] = [0, 3, 4];
/// … and of those a traced run only probes.
const FRAGILE: [usize; 3] = [1, 2, 5];

/// How one `run_convergence` call ended.
#[derive(Debug, Clone, PartialEq)]
enum Ending {
    /// Recovered within budget to a legal overlay that misses no
    /// delivery; `pipeline_matches` is whether pipelined and sequential
    /// probes also reached identical receiver sets.
    Passed { pipeline_matches: bool },
    /// Budget exhausted (or the protocol asserted) before a legal state.
    Unrecovered(String),
    /// Declared recovered, but illegal or missing deliveries.
    Inexact(String),
}

/// One `run_convergence` call.
#[derive(Debug, Clone, Copy)]
struct Run {
    schedule: usize,
    traced: bool,
    ns: u64,
    /// Protocol rounds the overlay executed during the call.
    rounds: u64,
    recovery_rounds: Option<u64>,
}

struct Recover {
    rects: Vec<Rect<2>>,
    schedules: Vec<FaultSchedule<2>>,
    cfg: ConvergenceConfig,
    seed: u64,
    /// Timed calls made so far: call `k` runs schedule `TIMED[k % 3]` on
    /// the overlay built from overlay seed `k / 3`.
    calls: usize,
    unrecovered: u64,
    pipeline_mismatches: u64,
    runs: Vec<Run>,
    build_s: Vec<f64>,
}

impl Recover {
    fn build(&mut self, ctx: &mut Ctx, overlay: usize) -> DrTreeCluster<2> {
        let seed = mix(self.seed, 100 + overlay as u64);
        let t0 = Instant::now();
        let cluster = ctx.tracer.span(Layer::Core, "core.build_bulk", || {
            (
                DrTreeCluster::build_bulk(DrTreeConfig::default(), seed, &self.rects),
                self.rects.len() as u64,
            )
        });
        self.build_s.push(t0.elapsed().as_secs_f64());
        cluster
    }

    /// One `run_convergence` call on a fresh overlay.
    fn call(&mut self, ctx: &mut Ctx, schedule: usize, overlay: usize) -> Ending {
        let mut cluster = self.build(ctx, overlay);
        let round0 = cluster.round();
        let t0 = Instant::now();
        let span = ctx.tracer.begin(Layer::Core, RUN_SPANS[schedule]);
        // A fragile schedule can drive the protocol into a state it
        // asserts against; that is a finding to report, not a reason to
        // lose the run.
        let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_convergence(&mut cluster, &self.schedules[schedule], &self.cfg)
        }));
        let rounds = cluster.round() - round0;
        ctx.tracer.end(span, rounds);
        self.runs.push(Run {
            schedule,
            traced: ctx.tracer.enabled(),
            ns: t0.elapsed().as_nanos() as u64,
            rounds,
            recovery_rounds: report.as_ref().ok().and_then(|r| r.recovery_rounds),
        });
        let name = SCHEDULES[schedule];
        match report {
            Err(_) => Ending::Unrecovered(format!(
                "{name} on overlay {overlay}: the protocol panicked after {rounds} rounds"
            )),
            Ok(r) if r.recovery_rounds.is_none() => Ending::Unrecovered(format!(
                "{name} on overlay {overlay}: no legal state within the budget of {} rounds",
                r.budget
            )),
            Ok(r) if r.post_false_negatives == 0 && cluster.check_legal().is_ok() => {
                Ending::Passed {
                    pipeline_matches: r.post_pipeline_matches_sequential,
                }
            }
            Ok(r) => Ending::Inexact(format!(
                "{name} on overlay {overlay}: recovered after {:?} rounds but legal is {}, false negatives {}",
                r.recovery_rounds,
                cluster.check_legal().is_ok(),
                r.post_false_negatives
            )),
        }
    }

    /// Runs timed schedule calls until `seconds` are used, and in any
    /// case one pass over the timed schedules.
    fn timed(&mut self, ctx: &mut Ctx, seconds: f64) {
        let t_start = Instant::now();
        loop {
            let schedule = TIMED[self.calls % TIMED.len()];
            let (_, root) = ctx.begin_block(self.calls);
            let ending = self.call(ctx, schedule, self.calls / TIMED.len());
            ctx.end_block(root, 1);
            self.calls += 1;
            match ending {
                Ending::Passed { pipeline_matches } => {
                    ctx.out.checks.passed(1);
                    self.pipeline_mismatches += u64::from(!pipeline_matches);
                }
                Ending::Unrecovered(what) => {
                    self.unrecovered += 1;
                    ctx.out
                        .note(format!("timed out, left out of the timing: {what}"));
                }
                Ending::Inexact(what) => ctx.out.checks.check(false, || what),
            }
            if t_start.elapsed().as_secs_f64() >= seconds && self.calls >= TIMED.len() {
                break;
            }
        }
    }

    /// Mean wall seconds and mean rounds of one schedule's recovered
    /// calls (all calls, for a schedule that never recovered).
    fn means(&self, schedule: usize, keep: impl Fn(&Run) -> bool) -> Option<(f64, f64)> {
        let of = |recovered_only: bool| -> Vec<&Run> {
            self.runs
                .iter()
                .filter(|r| r.schedule == schedule && keep(r))
                .filter(|r| !recovered_only || r.recovery_rounds.is_some())
                .collect()
        };
        let runs = Some(of(true))
            .filter(|r| !r.is_empty())
            .unwrap_or_else(|| of(false));
        if runs.is_empty() {
            return None;
        }
        let n = runs.len() as f64;
        Some((
            runs.iter().map(|r| r.ns as f64 / 1e9).sum::<f64>() / n,
            runs.iter().map(|r| r.rounds as f64).sum::<f64>() / n,
        ))
    }

    /// `(seconds, rounds)` of one pass over the timed schedules, every
    /// schedule's mean weighted equally however many calls each got.
    fn pass(&self) -> (f64, f64) {
        TIMED
            .iter()
            .filter_map(|&s| self.means(s, |_| true))
            .fold((0.0, 0.0), |(s, r), (ms, mr)| (s + ms, r + mr))
    }
}

pub fn run(ctx: &mut Ctx) {
    let n = ctx.size(1_024, 64);
    let seed = ctx.seed;
    let rects = ctx
        .inputs
        .time(|| constant_selectivity(n).generate::<2>(n, &mut stream(seed, 1)));
    ctx.inputs.digest_rects(&rects);
    let world = Rect::union_all(rects.iter()).expect("subscriptions are non-empty");
    let budget = 1_500 + 6 * n as u64;
    let schedules: Vec<FaultSchedule<2>> = FaultSchedule::canonical(&world, n)
        .into_iter()
        .enumerate()
        .map(|(i, mut s)| {
            // A probe that never recovers runs its whole budget; the
            // fragile schedules keep the library's default one.
            if TIMED.contains(&i) {
                s.budget = budget;
            }
            s
        })
        .collect();
    ctx.out.config("subscribers", n);
    ctx.out.config("recovery_budget_rounds", budget);
    ctx.out.config("check_stride", 1u64);
    ctx.out
        .config("timed_schedules", TIMED.map(|s| SCHEDULES[s]).join(", "));

    let mut recover = Recover {
        rects,
        schedules,
        cfg: ConvergenceConfig {
            check_stride: 1,
            ..ConvergenceConfig::default()
        },
        seed,
        calls: 0,
        unrecovered: 0,
        pipeline_mismatches: 0,
        runs: Vec::new(),
        build_s: Vec::new(),
    };
    let seconds = ctx.seconds;
    recover.timed(ctx, seconds);
    ctx.out.config("run_convergence_calls", recover.calls);
    ctx.out.config("unrecovered_calls", recover.unrecovered);
    ctx.out
        .config("pipeline_mismatch_calls", recover.pipeline_mismatches);
    ctx.out
        .checks
        .check(recover.unrecovered * 10 <= recover.calls as u64, || {
            format!(
                "{} of {} timed calls never recovered",
                recover.unrecovered, recover.calls
            )
        });

    // Every call builds its overlay, so set-up is already repeated.
    ctx.out
        .set("setup_s", stats::median(&mut recover.build_s.clone()));
    let (pass_s, pass_rounds) = recover.pass();
    ctx.out.set("ops_per_s", pass_rounds / pass_s);
    ctx.out.set("latency_ms", 1e3 * pass_s / TIMED.len() as f64);
    ctx.out.note(format!(
        "ops_per_s: protocol rounds per second inside run_convergence; latency_ms: wall time per schedule; both from per-schedule means over {} calls, the three timed schedules weighted equally",
        recover.calls
    ));

    if ctx.traced {
        super::report_layers(ctx);
        // Schedule by schedule, then averaged: odd calls record spans,
        // and with three schedules every schedule gets both kinds.
        let overheads: Vec<f64> = TIMED
            .iter()
            .filter_map(|&s| {
                let (plain_s, plain_rounds) = recover.means(s, |r| !r.traced)?;
                let (traced_s, traced_rounds) = recover.means(s, |r| r.traced)?;
                Some(overhead_share(
                    plain_rounds / plain_s,
                    traced_rounds / traced_s,
                ))
            })
            .collect();
        ctx.out.set(
            "trace_overhead_share",
            overheads.iter().sum::<f64>() / overheads.len().max(1) as f64,
        );
        ctx.out.set(
            "bench.traced_ops",
            recover
                .runs
                .iter()
                .filter(|r| r.traced)
                .map(|r| r.rounds)
                .sum::<u64>() as f64,
        );
        ctx.out.set(
            "core.build_bulk_ms",
            ns_per_item(&ctx.tracer, "core.build_bulk") * n as f64 / 1e6,
        );
        ctx.out
            .set("core.unrecovered_calls", recover.unrecovered as f64);
        ctx.out.set(
            "core.pipeline_mismatch_calls",
            recover.pipeline_mismatches as f64,
        );

        // The fragile schedules, once each on overlay 0, under their own
        // root span and outside the pass/fail tally.
        ctx.tracer.set_enabled(true);
        let root = ctx.tracer.begin(Layer::Bench, "bench.fragile_probes");
        let mut fragile_failed = 0u64;
        for schedule in FRAGILE {
            match recover.call(ctx, schedule, 0) {
                Ending::Passed { .. } => {}
                Ending::Unrecovered(what) | Ending::Inexact(what) => {
                    fragile_failed += 1;
                    ctx.out.note(format!(
                        "not gated, defect of the system under test: {what}"
                    ));
                }
            }
        }
        ctx.tracer.end(root, fragile_failed);
        ctx.out
            .set("core.fragile_unrecovered", fragile_failed as f64);

        let mut total = 0u64;
        for s in 0..SCHEDULES.len() {
            let (mean_s, _) = recover.means(s, |_| true).expect("every schedule ran");
            ctx.out.set(RECOVER_S[s], mean_s);
            // Overlay 0's call: it always runs and is the same for a
            // seed on any host, so its round count repeats exactly.
            let first = recover
                .runs
                .iter()
                .find(|r| r.schedule == s)
                .and_then(|r| r.recovery_rounds)
                .unwrap_or(recover.schedules[s].budget);
            ctx.out.set(RECOVERY_ROUNDS[s], first as f64);
            total += first;
        }
        ctx.out.set("core.recovery_rounds_total", total as f64);
        ctx.out.note(
            "core.recovery_rounds.*: overlay 0 only, so they repeat for a seed; a schedule that never recovered counts its whole budget"
                .into(),
        );
        layer_probes(ctx, &mut recover);
    }
    super::report_inputs(ctx);
}

/// `sim` and `core` calls on a quiescent overlay of the same size.
fn layer_probes(ctx: &mut Ctx, recover: &mut Recover) {
    let rounds = 200u64;
    let mut cluster = recover.build(ctx, usize::MAX / 8);
    let t = &mut ctx.tracer;
    let root = t.begin(Layer::Bench, "bench.layer_probes");
    let sent0 = cluster.metrics().sent();
    t.span(Layer::Sim, "sim.run_round", || {
        for _ in 0..rounds {
            cluster.run_round();
        }
        ((), rounds)
    });
    let sent = cluster.metrics().sent() - sent0;
    t.span(Layer::Core, "core.check_legal", || {
        let mut ok = 0u64;
        for _ in 0..20 {
            ok += u64::from(cluster.check_legal().is_ok());
        }
        (ok, 20)
    });
    t.end(root, 0);
    ctx.out.set(
        "sim.idle_round_us",
        ns_per_item(&ctx.tracer, "sim.run_round") / 1e3,
    );
    ctx.out
        .set("sim.messages_per_round", sent as f64 / rounds as f64);
    ctx.out.set(
        "core.check_legal_ms",
        ns_per_item(&ctx.tracer, "core.check_legal") / 1e6,
    );
}
