//! The five workloads and what they share: the run context, the
//! time-boxed measuring loop, and set-up repetition.

pub mod fabric_churn;
pub mod oracle_churn;
pub mod oracle_match;
pub mod overlay_recover;
pub mod overlay_steady;

use std::time::Instant;

use crate::cli::RunArgs;
use crate::inputs::InputLog;
use crate::report::Outcome;
use crate::stats;
use crate::trace::{layer_times, Layer, Open, Tracer};

/// Everything a workload run reads and fills in.
pub struct Ctx {
    pub seed: u64,
    /// Length of the timed region, seconds.
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub tracer: Tracer,
    pub inputs: InputLog,
    pub out: Outcome,
}

impl Ctx {
    pub fn new(args: &RunArgs) -> Self {
        Self {
            seed: args.seed,
            seconds: args.seconds,
            traced: args.trace,
            smoke: args.smoke,
            tracer: Tracer::new(false),
            inputs: InputLog::default(),
            out: Outcome::default(),
        }
    }

    /// `full`, or `smoke` under `--smoke`.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

pub fn run(workload: usize, ctx: &mut Ctx) {
    match workload {
        0 => overlay_steady::run(ctx),
        1 => oracle_match::run(ctx),
        2 => oracle_churn::run(ctx),
        3 => overlay_recover::run(ctx),
        4 => fabric_churn::run(ctx),
        _ => unreachable!("cli checked the workload index"),
    }
}

/// Runs `setup` `reps` times and returns the last system built with the
/// median set-up time in seconds. Repeating keeps one slow allocation
/// or page-fault storm from becoming the reported set-up time.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let system = setup();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(system);
    }
    (
        last.expect("at least one repetition"),
        stats::median(&mut times),
    )
}

/// Median of per-block rates: `ops / seconds` for each `(ops, ns)`.
pub fn median_rate(blocks: &[(u64, u64)]) -> f64 {
    let mut rates: Vec<f64> = blocks
        .iter()
        .filter(|&&(_, ns)| ns > 0)
        .map(|&(ops, ns)| ops as f64 * 1e9 / ns as f64)
        .collect();
    if rates.is_empty() {
        0.0
    } else {
        stats::median(&mut rates)
    }
}

/// Nanoseconds per item of the spans called `name`.
pub fn ns_per_item(tracer: &Tracer, name: &str) -> f64 {
    let (ns, count) = tracer
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(ns, c), s| {
            (ns + (s.end_ns - s.start_ns), c + s.count)
        });
    if count == 0 {
        0.0
    } else {
        ns as f64 / count as f64
    }
}

/// Name of the top-level spans that cover the traced timed region.
pub const TIMED_REGION: &str = "bench.timed_region";

/// Runs `slice(ctx, seconds / 4, index)` for `index` 0 to 3. Workloads
/// with two phases (closed and open loop, synchronous and concurrent
/// compaction) alternate them between slices, so that every metric
/// samples the whole window and the host's slow drift reaches both
/// phases alike.
pub fn four_slices<T>(
    ctx: &mut Ctx,
    seconds: f64,
    mut slice: impl FnMut(&mut Ctx, f64, usize) -> T,
) -> Vec<T> {
    (0..4)
        .map(|index| slice(ctx, seconds / 4.0, index))
        .collect()
}

impl Ctx {
    /// Opens timed block `index`. A traced run records spans in every
    /// other block, each under its own [`TIMED_REGION`] root, and none in
    /// between: neighbouring blocks see the same host and the same state
    /// of the system, so their rates differ by the tracer alone. Returns
    /// whether this block records, and the root to close with
    /// [`Ctx::end_block`].
    pub fn begin_block(&mut self, index: usize) -> (bool, Open) {
        let record = self.traced && index % 2 == 1;
        self.tracer.set_enabled(record);
        (record, self.tracer.begin(Layer::Bench, TIMED_REGION))
    }

    pub fn end_block(&mut self, root: Open, items: u64) {
        self.tracer.end(root, items);
        self.tracer.set_enabled(false);
    }
}

/// Folds the traced region's spans into the `<layer>.wall_share`
/// metrics and prints the per-layer table.
pub fn report_layers(ctx: &mut Ctx) {
    let (wall_ns, rows) = layer_times(ctx.tracer.spans(), TIMED_REGION);
    let wall = wall_ns.max(1) as f64;
    println!(
        "# per-layer time of the traced region ({:.3} s wall)",
        wall / 1e9
    );
    println!(
        "# {:<18} {:>8} {:>12} {:>10} {:>10} {:>7}",
        "layer", "spans", "items", "total_ms", "self_ms", "share"
    );
    let mut sum_self = 0u64;
    for (layer, t) in rows.iter().filter(|(_, t)| t.spans > 0) {
        sum_self += t.self_ns;
        println!(
            "# {:<18} {:>8} {:>12} {:>10.2} {:>10.2} {:>6.1}%",
            layer.name(),
            t.spans,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            100.0 * t.self_ns as f64 / wall
        );
    }
    println!(
        "# self times sum to {:.1}% of the traced wall",
        100.0 * sum_self as f64 / wall
    );
    for (layer, t) in &rows {
        let name = match layer {
            Layer::Bench => "bench.wall_share",
            Layer::Sim => "sim.wall_share",
            Layer::Core => "core.wall_share",
            Layer::Shard => "shard.wall_share",
            Layer::Broker => "broker.wall_share",
            Layer::Ingress => "ingress.wall_share",
            Layer::Federation => "fabric.wall_share",
            // Reached only through the layers above: the program
            // carries no spans of its own yet.
            Layer::Spatial | Layer::Rtree => continue,
        };
        ctx.out.set(name, t.self_ns as f64 / wall);
    }
    ctx.out.set("bench.traced_wall_s", wall / 1e9);
    ctx.out.set("bench.spans", ctx.tracer.spans().len() as f64);
}

/// Largest shard over mean shard, by live entries.
pub fn len_skew(oracle: &drtree_pubsub::ShardedOracle<2>) -> f64 {
    let lens: Vec<usize> = (0..oracle.shard_count())
        .map(|s| oracle.shard_len(s))
        .collect();
    let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
    lens.into_iter().max().unwrap_or(0) as f64 / mean.max(1.0)
}

/// Records the generator metrics every workload shares.
pub fn report_inputs(ctx: &mut Ctx) {
    ctx.out.set("workloads.gen_s", ctx.inputs.gen_s());
    ctx.out
        .set("workloads.input_digest", ctx.inputs.digest() as f64);
    ctx.out
        .config("input_digest", format!("{:013x}", ctx.inputs.digest()));
}

/// `1 − traced ÷ untraced` for a higher-is-better rate measured by the
/// same code with the tracer off and on.
pub fn overhead_share(untraced_rate: f64, traced_rate: f64) -> f64 {
    if untraced_rate > 0.0 {
        1.0 - traced_rate / untraced_rate
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::END_TO_END;

    /// Runs one workload at `--smoke` size with every check on.
    fn smoke(workload: usize, traced: bool) -> Ctx {
        let args = RunArgs {
            workload,
            seed: 7,
            seconds: 0.2,
            trace: traced,
            trace_out: None,
            smoke: true,
        };
        let mut ctx = Ctx::new(&args);
        run(workload, &mut ctx);
        ctx
    }

    /// A per-layer metric each workload's probes must have measured.
    const PROBED: [&str; 5] = [
        "sim.idle_round_us",
        "rtree.query_ns",
        "shard.move_ns",
        "core.check_legal_ms",
        "fabric.step_us",
    ];

    fn check_workload(workload: usize) {
        let ctx = smoke(workload, false);
        assert_eq!(ctx.out.checks.failed, 0, "{:?}", ctx.out.checks.messages);
        assert!(ctx.out.checks.attempted > 0);
        for def in &END_TO_END {
            let value = ctx.out.metrics.get(def.name).copied().unwrap_or(0.0);
            assert!(value > 0.0 && value.is_finite(), "{} = {value}", def.name);
        }
        assert!(
            ctx.tracer.spans().is_empty(),
            "untraced runs record no spans"
        );

        let ctx = smoke(workload, true);
        assert_eq!(ctx.out.checks.failed, 0, "{:?}", ctx.out.checks.messages);
        let (wall_ns, rows) = layer_times(ctx.tracer.spans(), TIMED_REGION);
        let self_ns: u64 = rows.iter().map(|(_, t)| t.self_ns).sum();
        assert!(wall_ns > 0, "the traced region is covered by spans");
        assert_eq!(self_ns, wall_ns, "self times partition the traced wall");
        assert!(rows.iter().filter(|(_, t)| t.spans > 0).count() >= 2);
        assert!(ctx.out.metrics["workloads.input_digest"] > 0.0);
        assert!(ctx.out.metrics[PROBED[workload]] > 0.0, "layer probes ran");
    }

    #[test]
    fn overlay_steady_smoke() {
        check_workload(0);
    }

    #[test]
    fn oracle_match_smoke() {
        check_workload(1);
    }

    #[test]
    fn oracle_churn_smoke() {
        check_workload(2);
    }

    #[test]
    fn overlay_recover_smoke() {
        check_workload(3);
    }

    #[test]
    fn fabric_churn_smoke() {
        check_workload(4);
    }

    #[test]
    fn same_seed_same_inputs_across_runs() {
        let a = smoke(1, false).out.metrics["workloads.input_digest"];
        let b = smoke(1, false).out.metrics["workloads.input_digest"];
        assert_eq!(a, b);
    }

    #[test]
    fn median_rate_ignores_one_slow_block() {
        let blocks = [
            (100, 1_000_000_000),
            (100, 1_000_000_000),
            (100, 9_000_000_000),
        ];
        assert_eq!(median_rate(&blocks), 100.0);
        assert_eq!(median_rate(&[]), 0.0);
        assert_eq!(overhead_share(100.0, 90.0), 1.0 - 0.9);
    }
}
