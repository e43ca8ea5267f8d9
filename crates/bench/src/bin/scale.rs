//! Scale probes: the tracked performance numbers of this repo.
//!
//! # Modes
//!
//! * **Overlay** (default): builds large overlays and prints the
//!   Lemma-3.1 numbers plus wall-clock build time, complementing the
//!   `experiments` binary with sizes beyond the default sweep. Prints
//!   a Markdown table only; emits no JSON.
//!
//!   ```text
//!   cargo run -p drtree-bench --release --bin scale -- [max_n]
//!   ```
//!
//! * **R-tree backends** (`rtree`): measures bulk build and point-query
//!   cost of the pointer [`RTree`] (incremental and STR bulk load) vs
//!   the packed [`PackedRTree`] at 1k/10k/100k entries, and writes the
//!   numbers to `BENCH_rtree.json` (or the given path).
//!
//!   ```text
//!   cargo run -p drtree-bench --release --bin scale -- rtree [out.json] [--check <t>]
//!   ```
//!
//! * **Sharded oracle** (`shard`): measures the publish-matching side
//!   of [`drtree_pubsub::ShardedOracle`] at 10k/100k/250k/500k
//!   subscriptions across 1/2/4/8 shards — eager flush cost
//!   (`flush_ns`), single-probe matching (`single_ns` per event), and
//!   batched matching (`batch_ns` per event, batches of 16384 through
//!   one joint shard pass) — and writes `BENCH_shard.json` (or the
//!   given path). Flushes happen *before* timing, so the matching
//!   columns never include a rebuild (`Broker::flush_oracle`
//!   semantics).
//!
//!   ```text
//!   cargo run -p drtree-bench --release --bin scale -- shard [out.json] [--check <t>]
//!   ```
//!
//! * **Fault schedules** (`faults`): the robustness mode. Drives the
//!   six canonical adversarial [`FaultSchedule`]s (partition-then-
//!   heal, correlated regional crash, lossy burst, duplication +
//!   reordering window, corruption volleys, broker churn) against bulk-built
//!   overlays at 64/256/1024 subscribers with pipelined background
//!   publishes flowing *during* the faults, then measures
//!   rounds-to-legal recovery against a per-scale budget, exact
//!   post-recovery delivery (pipelined vs sequential, zero false
//!   negatives), and the in-fault injection-to-quiescence latency
//!   tail (p50/p99/p999). One additional probe runs the asynchronous
//!   engine under a duplication + reordering window. Writes
//!   `BENCH_faults.json` (or the given path).
//!
//!   ```text
//!   cargo run -p drtree-bench --release --bin scale -- faults [out.json] [--check <t>]
//!   ```
//!
//! * **Multi-publisher ingress** (`multipub`): the concurrent
//!   front-end mode. Drives [`drtree_pubsub::MultiBroker`] over a
//!   bulk-built 2048-subscriber broker with 1/4/16 publisher threads,
//!   each feeding a bounded ingress queue drained round-robin by the
//!   batching commit loop. Two phases per publisher count: a
//!   **closed-loop** saturation run (publishers block on
//!   backpressure; throughput = committed events / wall clock, with
//!   latency still billed from the moment each publish was issued)
//!   and an **open-loop** run at a fixed offered rate
//!   ([`drtree_workloads::ArrivalSchedule`]; latency billed from each
//!   event's *scheduled* arrival, so queue wait is measured instead
//!   of coordinated away). More publishers mean deeper committed
//!   batches — that pipeline-depth amortization, not thread
//!   parallelism, is the scaling mechanism (single-core friendly).
//!   Writes `BENCH_multipub.json` (or the given path).
//!
//!   ```text
//!   cargo run -p drtree-bench --release --bin scale -- multipub [out.json] [--check <t>]
//!   ```
//!
//! * **Moving subscriptions** (`mobility`): the continuous-query
//!   mobility mode. Drives a seeded random-waypoint
//!   [`drtree_workloads::MotionField`] over 100k/500k movers and
//!   applies every per-tick delta to a 4-shard
//!   [`drtree_pubsub::ShardedOracle`] two ways on identical
//!   trajectories: through the [`ShardedOracle::move_entry`] fast path
//!   (in-place `PackedRTree::update_entry` when the new rect stays in
//!   its leaf subtree, tombstone + restage otherwise, Hilbert re-key
//!   only on shard-boundary crossings) and through the naive
//!   remove + reinsert baseline. Both pay their flushes — and any
//!   compactions those trigger — inside the timed window. An untimed
//!   prelude pins two full ticks per size against a fresh-built
//!   reference oracle, and the move-path counters must account for
//!   every delta (`moved_in_place + rekeyed == moves`). Writes
//!   `BENCH_mobility.json` (or the given path).
//!
//!   ```text
//!   cargo run -p drtree-bench --release --bin scale -- mobility [out.json] [--check <t>]
//!   ```
//!
//! * **Federated fabric** (`federate`): the federation robustness
//!   mode. Splits one million subscriptions across a
//!   [`drtree_pubsub::FederatedFabric`] of 4/8/16 broker instances
//!   (each owning a contiguous Hilbert range, replicated to its curve
//!   neighbors) and drives the canonical broker-churn
//!   [`FaultSchedule`] through
//!   [`drtree_pubsub::run_federated_convergence`]: a broker crashes
//!   and warm-rejoins from a checkpoint, another crashes and rejoins
//!   cold, with client churn and publications flowing throughout.
//!   Reports rounds-to-legal reconvergence against the schedule
//!   budget, the in-fault and post-recovery publication latency
//!   tails, forward amplification, and exactness: every post-recovery
//!   probe's delivery set must equal the single-broker reference with
//!   zero false negatives. Writes `BENCH_federate.json` (or the given
//!   path).
//!
//!   ```text
//!   cargo run -p drtree-bench --release --bin scale -- federate [out.json] [--check <t>]
//!   ```
//!
//! # Emitted JSON
//!
//! The JSON files are committed at the repo root and refreshed
//! whenever the respective subsystem changes, so the perf trajectory
//! is reviewable across PRs (all emitted through
//! [`drtree_bench::json`]):
//!
//! * `BENCH_rtree.json` — per-backend `{size, build_ns, query_ns}`
//!   samples plus packed-vs-pointer speedups at the largest size.
//! * `BENCH_shard.json` — per-size, per-shard-count
//!   `{shards, flush_ns, single_ns, batch_ns}` samples plus the
//!   headline `batch4_vs_single1_at_100k` ratio: batched throughput on
//!   4 shards over single-probe throughput on 1 shard at 100k
//!   subscriptions.
//! * `BENCH_faults.json` — per-size, per-schedule `{recovery_rounds,
//!   budget, survivors, post_exact, fault/post p50/p99/p999, fault
//!   counter deltas}` samples, the asynchronous-engine probe, and the
//!   headlines `min_budget_headroom` (budget ÷ recovery rounds, worst
//!   schedule) and `all_exact`.
//! * `BENCH_multipub.json` — per-publisher-count closed-loop
//!   `{throughput_eps, mean_batch, p50/p99/p999/max ns}` and
//!   open-loop `{offered_eps, p50/p99/p999/max ns}` samples, and the
//!   headline `throughput_16pub_vs_1pub`.
//! * `BENCH_mobility.json` — per-mover-count `{ticks,
//!   update_ns_per_move, reinsert_ns_per_move, speedup,
//!   moved_in_place, rekeyed, update_compactions,
//!   reinsert_compactions}` samples and the headline
//!   `update_vs_reinsert_at_100k`.
//! * `BENCH_federate.json` — per-broker-count `{recovery_rounds,
//!   budget, crashes/rejoins, post_exact, fault/post p50/p99/p999,
//!   forward amplification, populate throughput}` samples over the
//!   broker-churn schedule at one million subscriptions, and the
//!   headlines `min_budget_headroom` and `all_exact`.
//!
//! # `--check` (regression gates)
//!
//! With `--check <t>` the binary still prints and writes everything,
//! then **exits nonzero** if the mode's headline ratio falls below
//! `t`:
//!
//! * `rtree --check t` — packed must beat the STR pointer build by ≥
//!   `t`× on *both* build and query at the largest size.
//! * `shard --check t` — batched publish matching on 4 shards must be
//!   ≥ `t`× the single-probe single-shard rate at 100k subscriptions.
//! * `faults --check t` — every schedule must re-reach a legal
//!   configuration with ≥ `t`× budget headroom, and post-recovery
//!   delivery (both engines) must stay exact. `t = 1.0` means "within
//!   budget"; CI uses a higher floor since steady-state recoveries
//!   finish in tens of rounds.
//! * `multipub --check t` — 16 concurrent publishers must sustain ≥
//!   `t`× the closed-loop commit throughput of a single publisher
//!   (the batching amortization claim).
//! * `mobility --check t` — the `move_entry` update path must apply
//!   motion ticks ≥ `t`× faster per move than remove + reinsert at
//!   100k movers (the in-place fast-path claim), with the exactness
//!   prelude and counter accounting asserted unconditionally.
//! * `federate --check t` — every broker count must reconverge from
//!   broker churn with ≥ `t`× budget headroom, with every publication
//!   resolved and post-recovery delivery equal to the single-broker
//!   reference (zero false negatives) asserted unconditionally.
//!
//! CI runs all six gates with thresholds *below* the steady state
//! (see `.github/workflows/ci.yml`) so shared-runner noise cannot
//! flake a merge while a structural regression still fails the build.

use std::time::Instant;

use drtree_bench::json::Json;
use drtree_core::{
    run_convergence, AsyncDrTreeCluster, ConvergenceConfig, ConvergenceReport, DrTreeCluster,
    DrTreeConfig, FaultProfile, FaultSchedule, LatencyDistribution, ProcessId,
};
use drtree_pubsub::{
    run_federated_convergence, BatchMatches, Broker, FedConfig, FedConvergenceConfig, FedEngine,
    FederatedFabric, IngressConfig, LatencySummary, MultiBroker, ShardedOracle,
};
use drtree_rtree::{PackedRTree, RTree, RTreeConfig, SplitMethod};
use drtree_sim::{LatencyModel, NetConfig};
use drtree_spatial::{Point, Rect, Schema};
use drtree_workloads::{ArrivalSchedule, MotionField, MotionModel, SubscriptionWorkload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `[out.json] [--check <t>]` tail shared by the `rtree` and `shard`
/// modes.
fn parse_out_and_check(args: &[String], default_out: &str) -> (String, Option<f64>) {
    let mut out = default_out.to_string();
    let mut check = None;
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        if a == "--check" {
            check = Some(
                rest.next()
                    .and_then(|v| v.parse().ok())
                    .expect("--check requires a numeric threshold"),
            );
        } else {
            out = a.clone();
        }
    }
    (out, check)
}

/// Writes a mode's document to `out_path`, stamped with the host that
/// measured it: the timings are wall-clock, and the ratios built on
/// them mean nothing beside numbers from a machine with another core
/// count or CPU.
fn write_bench(out_path: &str, json: Json) {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let host = Json::object()
        .field(
            "logical_cores",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .field("cpu_model", cpu_model);
    std::fs::write(out_path, json.field("host", host).render())
        .unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("wrote {out_path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("rtree") => {
            let (out, check) = parse_out_and_check(&args[1..], "BENCH_rtree.json");
            rtree_backends(&out, check);
        }
        Some("shard") => {
            let (out, check) = parse_out_and_check(&args[1..], "BENCH_shard.json");
            shard_oracle(&out, check);
        }
        Some("faults") => {
            let (out, check) = parse_out_and_check(&args[1..], "BENCH_faults.json");
            fault_schedules(&out, check);
        }
        Some("multipub") => {
            let (out, check) = parse_out_and_check(&args[1..], "BENCH_multipub.json");
            multipub_ingress(&out, check);
        }
        Some("mobility") => {
            let (out, check) = parse_out_and_check(&args[1..], "BENCH_mobility.json");
            mobility_moves(&out, check);
        }
        Some("federate") => {
            let (out, check) = parse_out_and_check(&args[1..], "BENCH_federate.json");
            federated_fabric(&out, check);
        }
        other => {
            let max_n = other.and_then(|s| s.parse().ok()).unwrap_or(1024);
            overlay_scale(max_n);
        }
    }
}

/// The original overlay probe (Lemma 3.1 shape numbers).
fn overlay_scale(max_n: usize) {
    println!("| N | build (s) | height | ceil(log2 N) | max degree | mem max | mem mean |");
    println!("|---|-----------|--------|--------------|------------|---------|----------|");
    let mut n = 64usize;
    while n <= max_n {
        let mut rng = StdRng::seed_from_u64(9_000 + n as u64);
        let filters = SubscriptionWorkload::Uniform {
            min_extent: 2.0,
            max_extent: 20.0,
        }
        .generate::<2>(n, &mut rng);
        let start = Instant::now();
        let cluster = DrTreeCluster::build(DrTreeConfig::default(), 9_500, &filters);
        let elapsed = start.elapsed().as_secs_f64();
        assert!(cluster.check_legal().is_ok(), "N={n} not legal");
        let (mem_max, mem_mean) = cluster.memory_stats();
        println!(
            "| {n} | {elapsed:.2} | {} | {} | {} | {} | {:.1} |",
            cluster.height(),
            (n as f64).log2().ceil(),
            cluster.max_degree_observed(),
            mem_max,
            mem_mean,
        );
        n *= 2;
    }
}

/// One backend measurement at one size.
struct Sample {
    size: usize,
    build_ns: u64,
    query_ns: f64,
}

/// Constant-selectivity rectangle workload: extents 1–10 in a world
/// whose side grows with `sqrt(n)` so a point query matches ~10
/// entries at *every* size. Keeping the output constant isolates what
/// the backends differ in — traversal and layout — and mirrors the
/// serving regime the north star targets (an event at million-user
/// scale interests a bounded audience, not 0.3% of the planet).
fn scaled_rects(n: usize, seed: u64) -> Vec<Rect<2>> {
    const TARGET_MATCHES: f64 = 10.0;
    let avg_area = 5.5 * 5.5;
    let side = (n as f64 * avg_area / TARGET_MATCHES).sqrt();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let w = rng.gen_range(1.0..10.0);
            let h = rng.gen_range(1.0..10.0);
            let x = rng.gen_range(0.0..side - w);
            let y = rng.gen_range(0.0..side - h);
            Rect::new([x, y], [x + w, y + h])
        })
        .collect()
}

/// Pointer-vs-packed backend probe; writes `out_path`. With
/// `check = Some(t)`, exits nonzero unless the packed backend beats
/// the STR pointer build by at least `t`× on both build and query at
/// the largest size — the regression gate CI runs (with a threshold
/// below the ~2× steady state to absorb runner noise).
fn rtree_backends(out_path: &str, check: Option<f64>) {
    const SIZES: [usize; 4] = [1_000, 10_000, 100_000, 500_000];
    const QUERY_PROBES: usize = 20_000;
    let config = RTreeConfig::new(4, 16, SplitMethod::RStar).expect("valid");

    let mut incremental_samples = Vec::new();
    let mut pointer_samples = Vec::new();
    let mut packed_samples = Vec::new();
    // `(size, save_ns, load_ns, first_query_ns, restore_vs_build)` at
    // the 100k/500k points.
    let mut snapshot_samples: Vec<(usize, u64, u64, u64, f64)> = Vec::new();
    println!("| N | backend | build (ns) | point query (ns) |");
    println!("|---|---------|------------|------------------|");
    for size in SIZES {
        let rects = scaled_rects(size, 7_700 + size as u64);
        let entries: Vec<(usize, Rect<2>)> = rects.iter().copied().enumerate().collect();
        let probes: Vec<Point<2>> = rects
            .iter()
            .cycle()
            .take(QUERY_PROBES)
            .map(Rect::center)
            .collect();

        // Pointer backend built the way the seed's hot consumers did:
        // one insert per subscription.
        let (incremental, incremental_build_ns) = time_build(1, || {
            let mut tree: RTree<usize, 2> = RTree::new(config);
            for (k, r) in &entries {
                tree.insert(*k, *r);
            }
            tree
        });
        let incremental_query_ns = time_queries(&probes, |p| incremental.search_point(p).len());
        println!(
            "| {size} | pointer-incremental | {incremental_build_ns} | {incremental_query_ns:.1} |"
        );
        incremental_samples.push(Sample {
            size,
            build_ns: incremental_build_ns,
            query_ns: incremental_query_ns,
        });
        drop(incremental);

        // Pointer backend at its best: STR bulk load.
        let (pointer, pointer_build_ns) =
            time_build_with(3, || entries.clone(), |e| RTree::bulk_load(config, e));
        let pointer_query_ns = time_queries(&probes, |p| pointer.search_point(p).len());
        println!("| {size} | pointer-str | {pointer_build_ns} | {pointer_query_ns:.1} |");
        pointer_samples.push(Sample {
            size,
            build_ns: pointer_build_ns,
            query_ns: pointer_query_ns,
        });

        // Packed backend: Hilbert bulk load, visitor queries.
        let (packed, packed_build_ns) =
            time_build_with(3, || entries.clone(), PackedRTree::bulk_load);
        let packed_query_ns = time_queries(&probes, |p| {
            let mut count = 0usize;
            packed.for_each_containing(p, |_, _| count += 1);
            count
        });
        println!("| {size} | packed | {packed_build_ns} | {packed_query_ns:.1} |");
        packed_samples.push(Sample {
            size,
            build_ns: packed_build_ns,
            query_ns: packed_query_ns,
        });

        // Flat-buffer snapshot columns: serialize, zero-copy restore,
        // and the first query on the restored tree (which pays the
        // lazy key materialization the load deferred). Restore skips
        // the bulk checksum — that is `verify_snapshot`, off the
        // cold-start path — so the gate below compares it against the
        // full Hilbert bulk build.
        if size >= 100_000 {
            let (snapshot, save_ns) = time_build(3, || packed.save());
            let snapshot_len = snapshot.len();
            let (restored, load_ns) = time_build_with(
                5,
                || snapshot.clone(),
                |b| PackedRTree::<usize, 2>::load(b).expect("snapshot loads"),
            );
            assert_eq!(restored.len(), packed.len(), "restore is lossless");
            let t0 = Instant::now();
            let mut count = 0usize;
            restored.for_each_containing(&probes[0], |_, _| count += 1);
            let first_query_ns = t0.elapsed().as_nanos() as u64;
            assert!(count > 0, "probe center hits its own entry");
            let restore_vs_build = packed_build_ns as f64 / load_ns.max(1) as f64;
            println!(
                "| {size} | packed-snapshot | save {save_ns} ns ({snapshot_len} B) | \
                 load {load_ns} ns, first query {first_query_ns} ns, \
                 restore {restore_vs_build:.0}x faster than build |"
            );
            snapshot_samples.push((size, save_ns, load_ns, first_query_ns, restore_vs_build));
        }
    }

    let last_incr = incremental_samples.last().expect("sizes non-empty");
    let last_pointer = pointer_samples.last().expect("sizes non-empty");
    let last_packed = packed_samples.last().expect("sizes non-empty");
    let vs_incr_build = last_incr.build_ns as f64 / last_packed.build_ns as f64;
    let vs_incr_query = last_incr.query_ns / last_packed.query_ns;
    let vs_str_build = last_pointer.build_ns as f64 / last_packed.build_ns as f64;
    let vs_str_query = last_pointer.query_ns / last_packed.query_ns;
    println!(
        "packed speedup at {}: {vs_incr_build:.1}x build / {vs_incr_query:.1}x query vs incremental, \
         {vs_str_build:.1}x build / {vs_str_query:.1}x query vs STR",
        last_packed.size
    );

    let backends = [
        ("pointer_incremental", &incremental_samples),
        ("pointer_str", &pointer_samples),
        ("packed", &packed_samples),
    ]
    .into_iter()
    .fold(Json::object(), |obj, (name, samples)| {
        obj.field(
            name,
            Json::Array(
                samples
                    .iter()
                    .map(|s| {
                        Json::object()
                            .field("size", s.size)
                            .field("build_ns", s.build_ns)
                            .field("query_ns", Json::fixed(s.query_ns, 1))
                    })
                    .collect(),
            ),
        )
    });
    let json = Json::object()
        .field("bench", "rtree-backends")
        .field(
            "workload",
            "uniform 2d, extents 1-10, world scaled to ~10 matches per point query",
        )
        .field(
            "query",
            "point search at entry centers, mean ns over 20000 probes",
        )
        .field("backends", backends)
        .field(
            "snapshot",
            Json::Array(
                snapshot_samples
                    .iter()
                    .map(|&(size, save_ns, load_ns, first_query_ns, ratio)| {
                        Json::object()
                            .field("size", size)
                            .field("save_ns", save_ns)
                            .field("load_ns", load_ns)
                            .field("first_query_ns", first_query_ns)
                            .field("restore_vs_build", Json::fixed(ratio, 1))
                    })
                    .collect(),
            ),
        )
        .field(
            format!("packed_speedup_at_{}k", last_packed.size / 1000).as_str(),
            Json::object()
                .field("build_vs_incremental", Json::fixed(vs_incr_build, 2))
                .field("query_vs_incremental", Json::fixed(vs_incr_query, 2))
                .field("build_vs_str", Json::fixed(vs_str_build, 2))
                .field("query_vs_str", Json::fixed(vs_str_query, 2)),
        );
    write_bench(out_path, json);

    if let Some(threshold) = check {
        if vs_str_build < threshold || vs_str_query < threshold {
            eprintln!(
                "REGRESSION: packed speedup vs STR fell below {threshold}x \
                 (build {vs_str_build:.2}x, query {vs_str_query:.2}x)"
            );
            std::process::exit(1);
        }
        println!("check passed: packed >= {threshold}x vs STR on build and query");
        // Zero-copy restore must stay in a different complexity class
        // than the bulk build it replaces — the cold-start promise of
        // the flat-buffer snapshot format.
        const RESTORE_GATE: f64 = 50.0;
        let &(size, _, _, _, ratio) = snapshot_samples
            .last()
            .expect("snapshot measured at the largest size");
        if ratio < RESTORE_GATE {
            eprintln!(
                "REGRESSION: snapshot restore at {size} is only {ratio:.1}x \
                 faster than bulk build (gate {RESTORE_GATE}x)"
            );
            std::process::exit(1);
        }
        println!("check passed: restore >= {RESTORE_GATE}x faster than bulk build at {size}");
    }
}

/// One sharded-oracle measurement at one (size, shard-count) point.
struct ShardSample {
    shards: usize,
    flush_ns: u64,
    single_ns: f64,
    batch_ns: f64,
}

/// Sharded-oracle probe (see the module docs): single vs batched
/// publish matching per shard count, `BENCH_shard.json`, and the
/// `batch4_vs_single1_at_100k` gate.
fn shard_oracle(out_path: &str, check: Option<f64>) {
    const SIZES: [usize; 4] = [10_000, 100_000, 250_000, 500_000];
    const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
    const QUERY_PROBES: usize = 32_768;
    const BATCH: usize = 16_384;
    const REPS: usize = 5;
    const GATE_SIZE: usize = 100_000;
    const GATE_SHARDS: usize = 4;

    let mut per_size: Vec<(usize, Vec<ShardSample>)> = Vec::new();
    let mut single_at_gate = None;
    let mut batch_at_gate = None;
    println!(
        "| N | shards | flush (ns) | single publish (ns/event) | batched publish (ns/event) |"
    );
    println!(
        "|---|--------|------------|---------------------------|----------------------------|"
    );
    for size in SIZES {
        let rects = scaled_rects(size, 7_700 + size as u64);
        let probes: Vec<Point<2>> = rects
            .iter()
            .cycle()
            .take(QUERY_PROBES)
            .map(Rect::center)
            .collect();
        let mut samples = Vec::new();
        for shards in SHARD_COUNTS {
            let mut oracle: ShardedOracle<2> = ShardedOracle::new(shards);
            for (i, r) in rects.iter().enumerate() {
                oracle.insert(ProcessId::from_raw(i as u64), *r);
            }
            // Eager flush outside the timed matching loops — the
            // `Broker::flush_oracle` discipline — so single/batched
            // columns measure matching only.
            let flush_ns = oracle.flush().elapsed.as_nanos() as u64;

            // Best-of-`REPS`, single and batched passes interleaved
            // so clock drift and neighbor noise hit both columns the
            // same way; the first round doubles as buffer warm-up.
            let mut hits = Vec::new();
            let mut batch = BatchMatches::new();
            let mut sink = 0usize;
            let mut single_ns = f64::INFINITY;
            let mut batch_ns = f64::INFINITY;
            for _ in 0..REPS {
                let t0 = Instant::now();
                for p in &probes {
                    oracle.match_point_into(p, &mut hits);
                    sink += hits.len();
                }
                single_ns = single_ns.min(t0.elapsed().as_nanos() as f64 / probes.len() as f64);

                let t0 = Instant::now();
                for chunk in probes.chunks(BATCH) {
                    oracle.match_batch_into(chunk, &mut batch);
                    sink += batch.total_hits();
                }
                batch_ns = batch_ns.min(t0.elapsed().as_nanos() as f64 / probes.len() as f64);
            }
            std::hint::black_box(sink);

            println!("| {size} | {shards} | {flush_ns} | {single_ns:.1} | {batch_ns:.1} |");
            if size == GATE_SIZE && shards == 1 {
                single_at_gate = Some(single_ns);
            }
            if size == GATE_SIZE && shards == GATE_SHARDS {
                batch_at_gate = Some(batch_ns);
            }
            samples.push(ShardSample {
                shards,
                flush_ns,
                single_ns,
                batch_ns,
            });
        }
        per_size.push((size, samples));
    }

    let single1 = single_at_gate.expect("gate size measured");
    let batch4 = batch_at_gate.expect("gate size measured");
    let speedup = single1 / batch4;
    println!(
        "batched publish on {GATE_SHARDS} shards vs single publish on 1 shard at {GATE_SIZE}: \
         {speedup:.2}x ({single1:.1} -> {batch4:.1} ns/event)"
    );

    let sizes = per_size
        .iter()
        .fold(Json::object(), |obj, (size, samples)| {
            obj.field(
                size.to_string().as_str(),
                Json::Array(
                    samples
                        .iter()
                        .map(|s| {
                            Json::object()
                                .field("shards", s.shards)
                                .field("flush_ns", s.flush_ns)
                                .field("single_ns", Json::fixed(s.single_ns, 1))
                                .field("batch_ns", Json::fixed(s.batch_ns, 1))
                        })
                        .collect(),
                ),
            )
        });
    let json = Json::object()
        .field("bench", "sharded-oracle")
        .field(
            "workload",
            "uniform 2d, extents 1-10, world scaled to ~10 matches per point query",
        )
        .field(
            "query",
            "publish matching at entry centers, best-of-5 mean ns per event over 32768 probes; \
             batches of 16384; flush excluded (paid eagerly)",
        )
        .field("sizes", sizes)
        .field("batch4_vs_single1_at_100k", Json::fixed(speedup, 2));
    write_bench(out_path, json);

    if let Some(threshold) = check {
        if speedup < threshold {
            eprintln!(
                "REGRESSION: batched publish speedup fell below {threshold}x \
                 (measured {speedup:.2}x)"
            );
            std::process::exit(1);
        }
        println!("check passed: batched >= {threshold}x vs single-shard single publish");
    }
}

/// One multipub measurement: a fresh bulk-built broker wrapped in a
/// [`MultiBroker`], `publishers` threads running `body`, then drain +
/// teardown. Returns (wall-clock seconds, committed events, latency
/// summary, batches committed).
fn multipub_run(
    rects: &[Rect<2>],
    publishers: usize,
    seed: u64,
    body: impl Fn(usize, &drtree_pubsub::PublisherHandle<2>, u64) + Sync,
) -> (f64, u64, LatencySummary, f64) {
    const QUEUE_CAPACITY: usize = 32;
    const MAX_BATCH: usize = 512;
    let schema = Schema::new(["x", "y"]);
    // The broker disseminates every batch at full pipeline depth, so
    // the committed batch depth (queue backlog aggregated across
    // publishers) is the only thing that varies with the publisher
    // count.
    let (broker, _ids) =
        Broker::build_bulk(schema, DrTreeConfig::default(), seed, rects).expect("2d schema");
    let multi = MultiBroker::new(
        broker,
        IngressConfig {
            queue_capacity: QUEUE_CAPACITY,
            fair_budget: QUEUE_CAPACITY,
            max_batch: MAX_BATCH,
            audit_log: false,
            refresh_snapshots: false,
            auto_drain: true,
        },
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0xff);
    let handles: Vec<_> = (0..publishers)
        .map(|_| {
            let r = rects[rng.gen_range(0..rects.len())];
            multi.add_publisher(r)
        })
        .collect();
    // The ingress clock has been running since `MultiBroker::new`,
    // through every publisher's join: schedules start from here, or
    // the set-up is billed to the first events as latency.
    let start_ns = multi.now_ns();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for (i, handle) in handles.iter().enumerate() {
            let body = &body;
            s.spawn(move || body(i, handle, start_ns));
        }
    });
    multi.drain();
    let elapsed = t0.elapsed().as_secs_f64();
    let rate = multi.rate();
    assert_eq!(rate.committed, rate.submitted, "ingress lost publications");
    let latency = multi.latency();
    let stats = multi.stats();
    assert_eq!(stats.ingress_committed(), rate.committed);
    let batches = multi.batches().max(1);
    multi.finish();
    (
        elapsed,
        rate.committed,
        latency,
        rate.committed as f64 / batches as f64,
    )
}

/// The concurrent ingress probe (see the module docs): closed-loop
/// saturation throughput plus open-loop latency quantiles at 1/4/16
/// publishers over one 2048-subscriber broker configuration. Writes
/// `BENCH_multipub.json` and gates `throughput_16pub_vs_1pub`.
fn multipub_ingress(out_path: &str, check: Option<f64>) {
    const SUBS: usize = 2_048;
    const PUBLISHERS: [usize; 3] = [1, 4, 16];
    const TOTAL_EVENTS: usize = 512;
    const OPEN_EVENTS: usize = 256;

    let rects = scaled_rects(SUBS, 8_800);
    // Pre-generated per-publisher event scripts: points at
    // subscription centers (traffic that interests somebody).
    let script = |publisher: usize, n: usize, seed: u64| -> Vec<Point<2>> {
        let mut rng = StdRng::seed_from_u64(seed + publisher as u64);
        (0..n)
            .map(|_| rects[rng.gen_range(0..rects.len())].center())
            .collect()
    };

    println!("| publishers | mode | events/s | mean batch | p50 | p99 | p999 |");
    println!("|------------|------|----------|------------|-----|-----|------|");
    let mut closed_tput: Vec<(usize, f64)> = Vec::new();
    let mut samples: Vec<(usize, f64, f64, LatencySummary, f64, LatencySummary)> = Vec::new();
    for &publishers in &PUBLISHERS {
        // Closed loop: every publisher saturates its bounded queue;
        // backpressure is the pacing. Latency is billed from the
        // moment each publish was issued (blocking wait included).
        let per_pub = TOTAL_EVENTS / publishers;
        let (elapsed, committed, closed_lat, mean_batch) =
            multipub_run(&rects, publishers, 8_900, |i, handle, _| {
                for point in script(i, per_pub, 8_950) {
                    handle.publish(point).expect("ingress open");
                }
            });
        assert_eq!(committed as usize, per_pub * publishers);
        let tput = committed as f64 / elapsed;
        println!(
            "| {publishers} | closed | {tput:.0} | {mean_batch:.0} | {:.2}ms | {:.2}ms | {:.2}ms |",
            closed_lat.p50_ns as f64 / 1e6,
            closed_lat.p99_ns as f64 / 1e6,
            closed_lat.p999_ns as f64 / 1e6,
        );
        closed_tput.push((publishers, tput));

        // Open loop: a fixed offered rate well under single-publisher
        // capacity, identical for every publisher count, latency
        // billed from each event's scheduled arrival time. The
        // schedule is split round-robin across publishers.
        let base_tput = closed_tput[0].1;
        let offered = base_tput * 0.5;
        let mean_gap_ns = (1e9 / offered) as u64;
        let arrivals = ArrivalSchedule::Poisson { mean_gap_ns }.generate(OPEN_EVENTS, 8_970);
        let run = |i: usize, handle: &drtree_pubsub::PublisherHandle<2>, start_ns: u64| {
            let points = script(i, OPEN_EVENTS, 9_050);
            // Round-robin split of the shared schedule: publisher i
            // serves events i, i+P, i+2P, …
            for (&at, point) in arrivals.iter().zip(points).skip(i).step_by(publishers) {
                let at = start_ns + at;
                // Pace to the schedule, then bill from it.
                loop {
                    let now = handle.now_ns();
                    if now >= at {
                        break;
                    }
                    let gap = at - now;
                    if gap > 1_000_000 {
                        std::thread::sleep(std::time::Duration::from_nanos(gap - 500_000));
                    } else {
                        std::thread::yield_now();
                    }
                }
                handle.publish_at(point, at).expect("ingress open");
            }
        };
        let (_, committed, open_lat, _) = multipub_run(&rects, publishers, 9_000, run);
        assert_eq!(committed as usize, OPEN_EVENTS);
        println!(
            "| {publishers} | open @{offered:.0}/s | - | - | {:.2}ms | {:.2}ms | {:.2}ms |",
            open_lat.p50_ns as f64 / 1e6,
            open_lat.p99_ns as f64 / 1e6,
            open_lat.p999_ns as f64 / 1e6,
        );
        samples.push((publishers, tput, mean_batch, closed_lat, offered, open_lat));
    }

    let one = closed_tput[0].1;
    let sixteen = closed_tput.last().unwrap().1;
    let scaling = sixteen / one;
    println!(
        "16-publisher vs single-publisher closed-loop throughput: {scaling:.2}x \
         ({one:.0} -> {sixteen:.0} events/s)"
    );

    let lat_json = |l: &LatencySummary| {
        Json::object()
            .field("p50_ns", l.p50_ns)
            .field("p99_ns", l.p99_ns)
            .field("p999_ns", l.p999_ns)
            .field("max_ns", l.max_ns)
    };
    let json = Json::object()
        .field("bench", "multipub-ingress")
        .field(
            "workload",
            "uniform 2d, extents 1-10, world scaled to ~10 matches per point query; \
             bulk-built 2048-subscriber broker, overlay at full pipeline depth (512); events at \
             subscription centers; bounded ingress queues (capacity 32, fair budget 32, \
             max batch 512) drained round-robin by the commit loop",
        )
        .field(
            "query",
            "closed = publishers saturate their queues, throughput over the whole \
             commit span, latency billed from publish issue time; open = Poisson \
             arrivals at half the single-publisher closed-loop rate, latency billed \
             from scheduled arrival (no coordinated omission)",
        )
        .field("subscribers", SUBS)
        .field(
            "samples",
            Json::Array(
                samples
                    .iter()
                    .map(|(publishers, tput, mean_batch, closed, offered, open)| {
                        Json::object()
                            .field("publishers", *publishers)
                            .field(
                                "closed",
                                lat_json(closed)
                                    .field("throughput_eps", Json::fixed(*tput, 0))
                                    .field("mean_batch", Json::fixed(*mean_batch, 1)),
                            )
                            .field(
                                "open",
                                lat_json(open).field("offered_eps", Json::fixed(*offered, 0)),
                            )
                    })
                    .collect(),
            ),
        )
        .field("throughput_16pub_vs_1pub", Json::fixed(scaling, 2));
    write_bench(out_path, json);

    if let Some(threshold) = check {
        if scaling < threshold {
            eprintln!(
                "REGRESSION: 16-publisher ingress scaling fell below {threshold}x \
                 (measured {scaling:.2}x)"
            );
            std::process::exit(1);
        }
        println!("check passed: 16-publisher ingress >= {threshold}x single-publisher");
    }
}

/// The adversarial robustness probe (see the module docs): drives the
/// six canonical [`FaultSchedule`]s against bulk-built overlays at
/// 64/256/1024 subscribers, measuring rounds-to-legal recovery,
/// post-recovery delivery exactness (pipelined vs sequential), and the
/// in-fault injection-to-quiescence latency tail; plus one
/// asynchronous-engine SLO probe under a duplication + reordering
/// window. Writes `BENCH_faults.json` and gates
/// `min_budget_headroom` (budget ÷ recovery rounds, worst case).
fn fault_schedules(out_path: &str, check: Option<f64>) {
    const SIZES: [usize; 3] = [64, 256, 1024];
    const ASYNC_SIZE: usize = 256;
    const ASYNC_EVENTS: usize = 64;

    let cfg = ConvergenceConfig::default();
    let mut per_size: Vec<(usize, Vec<(FaultSchedule<2>, ConvergenceReport)>)> = Vec::new();
    let mut min_headroom = f64::INFINITY;
    let mut all_converged = true;
    let mut all_exact = true;
    println!(
        "| N | schedule | recovery (rounds) | budget | survivors | exact | fault p99/p999 | post p999 |"
    );
    println!(
        "|---|----------|-------------------|--------|-----------|-------|----------------|-----------|"
    );
    for size in SIZES {
        let rects = scaled_rects(size, 7_700 + size as u64);
        let world = Rect::union_all(rects.iter()).expect("rect pool is non-empty");
        let mut runs = Vec::new();
        for mut schedule in FaultSchedule::canonical(&world, size) {
            // Recovery after a merge/crash repairs level by level, so
            // the budget grows with the scale (generously — steady
            // state is tens of rounds, see BENCH_faults.json).
            schedule.budget = 1_500 + 6 * size as u64;
            let mut cluster =
                DrTreeCluster::build_bulk(DrTreeConfig::default(), 9_800 + size as u64, &rects);
            let report = run_convergence(&mut cluster, &schedule, &cfg);
            let exact = report.post_pipeline_matches_sequential && report.post_false_negatives == 0;
            all_exact &= exact;
            match report.recovery_rounds {
                Some(r) => {
                    min_headroom = min_headroom.min(report.budget as f64 / r.max(1) as f64);
                }
                None => all_converged = false,
            }
            println!(
                "| {size} | {} | {} | {} | {} | {} | {}/{} | {} |",
                schedule.name,
                report
                    .recovery_rounds
                    .map_or("DNF".into(), |r| r.to_string()),
                report.budget,
                report.survivors,
                if exact { "yes" } else { "NO" },
                report.fault_latency.p99,
                report.fault_latency.p999,
                report.post_latency.p999,
            );
            runs.push((schedule, report));
        }
        per_size.push((size, runs));
    }

    // Asynchronous-engine SLO probe: pipelined publishes under a
    // duplication + reordering window (loss-free, so delivery stays
    // exact); the latency distribution is in simulated time units.
    let rects = scaled_rects(ASYNC_SIZE, 7_700 + ASYNC_SIZE as u64);
    let net = NetConfig {
        latency: LatencyModel::Uniform { min: 1, max: 4 },
        ..NetConfig::default()
    };
    let async_config = DrTreeConfig {
        tick_interval: 8,
        failure_timeout: 40,
        join_retry: 32,
        ..DrTreeConfig::default()
    };
    let mut async_cluster: AsyncDrTreeCluster<2> =
        AsyncDrTreeCluster::build_bulk(async_config, net, 9_900, &rects);
    async_cluster.set_faults(FaultProfile {
        duplicate_probability: 0.2,
        reorder_probability: 0.2,
        reorder_extra: 3,
        ..FaultProfile::default()
    });
    let ids = async_cluster.ids();
    let mut rng = StdRng::seed_from_u64(9_901);
    let events: Vec<(ProcessId, Point<2>)> = (0..ASYNC_EVENTS)
        .map(|_| {
            let publisher = ids[rng.gen_range(0..ids.len())];
            let point = rects[rng.gen_range(0..rects.len())].center();
            (publisher, point)
        })
        .collect();
    let reports = async_cluster.publish_pipeline_from(&events, 32);
    let async_fn: u64 = reports.iter().map(|r| r.false_negatives.len() as u64).sum();
    all_exact &= async_fn == 0;
    let mut spans: Vec<u64> = reports.iter().map(|r| r.rounds).collect();
    let async_latency = LatencyDistribution::from_samples(&mut spans);
    println!(
        "async engine (n={ASYNC_SIZE}, dup 0.2 / reorder 0.2x3): p50={} p99={} p999={} \
         time units, false negatives {async_fn}",
        async_latency.p50, async_latency.p99, async_latency.p999
    );
    println!(
        "worst budget headroom across schedules: {}",
        if all_converged {
            format!("{min_headroom:.1}x")
        } else {
            "DNF".into()
        }
    );

    let run_json = |schedule: &FaultSchedule<2>, r: &ConvergenceReport| {
        Json::object()
            .field("schedule", schedule.name.as_str())
            .field("script", r.schedule.as_str())
            .field("recovery_rounds", r.recovery_rounds.unwrap_or(u64::MAX))
            .field("converged", u64::from(r.recovery_rounds.is_some()))
            .field("budget", r.budget)
            .field("survivors", r.survivors)
            .field("crashed", r.crashed)
            .field(
                "post_exact",
                u64::from(r.post_pipeline_matches_sequential && r.post_false_negatives == 0),
            )
            .field("fault_p50", r.fault_latency.p50)
            .field("fault_p99", r.fault_latency.p99)
            .field("fault_p999", r.fault_latency.p999)
            .field("post_p50", r.post_latency.p50)
            .field("post_p99", r.post_latency.p99)
            .field("post_p999", r.post_latency.p999)
            .field("duplicated", r.duplicated)
            .field("reordered", r.reordered)
            .field("partitioned_drops", r.partitioned_drops)
            .field("dropped", r.dropped)
    };
    let sizes = per_size.iter().fold(Json::object(), |obj, (size, runs)| {
        obj.field(
            size.to_string().as_str(),
            Json::Array(runs.iter().map(|(s, r)| run_json(s, r)).collect()),
        )
    });
    let json = Json::object()
        .field("bench", "fault-schedules")
        .field(
            "workload",
            "uniform 2d, extents 1-10, world scaled to ~10 matches per point query; \
             bulk-built overlays; six canonical fault schedules (partition-heal, \
             regional-crash, lossy-burst, dup-reorder, corruption-volley, \
             broker-churn) with pipelined background publishes during the \
             faulty phase",
        )
        .field(
            "query",
            "recovery_rounds = rounds from forced heal to check_legal == Ok \
             (stride-quantized); fault/post percentiles are per-event \
             injection-to-quiescence spans in rounds; post_exact = pipelined \
             post-recovery delivery equals the sequential reference with zero \
             false negatives; async probe runs the event engine under a \
             duplication + reordering window (spans in time units)",
        )
        .field("sizes", sizes)
        .field(
            "async_probe",
            Json::object()
                .field("size", ASYNC_SIZE)
                .field("profile", "dup 0.2, reorder 0.2 extra 3, latency U(1,4)")
                .field("events", ASYNC_EVENTS)
                .field("p50", async_latency.p50)
                .field("p99", async_latency.p99)
                .field("p999", async_latency.p999)
                .field("false_negatives", async_fn),
        )
        .field(
            "min_budget_headroom",
            if all_converged {
                Json::fixed(min_headroom, 2)
            } else {
                Json::fixed(0.0, 2)
            },
        )
        .field("all_exact", u64::from(all_exact));
    write_bench(out_path, json);

    if let Some(threshold) = check {
        let mut failed = false;
        if !all_converged {
            eprintln!("REGRESSION: a fault schedule did not re-reach a legal configuration");
            failed = true;
        } else if min_headroom < threshold {
            eprintln!(
                "REGRESSION: budget headroom fell below {threshold}x \
                 (worst measured {min_headroom:.2}x)"
            );
            failed = true;
        }
        if !all_exact {
            eprintln!("REGRESSION: post-recovery delivery is no longer exact");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "check passed: every schedule converged with >= {threshold}x budget headroom \
             and exact post-recovery delivery"
        );
    }
}

/// Federation robustness probe: one million subscriptions spread
/// across a [`FederatedFabric`] of 4/8/16 brokers, each owning one
/// contiguous Hilbert range replicated to its curve neighbors, driven
/// through the canonical broker-churn [`FaultSchedule`] (crash → warm
/// rejoin from checkpoint → second crash → cold rejoin) with client
/// churn and publications flowing throughout. Writes
/// `BENCH_federate.json` and gates `min_budget_headroom` (budget ÷
/// reconvergence rounds, worst broker count); exactness — every
/// publication resolved, post-recovery delivery equal to the
/// single-broker reference, zero false negatives — is asserted
/// unconditionally.
fn federated_fabric(out_path: &str, check: Option<f64>) {
    const SUBS: usize = 1_000_000;
    const BROKERS: [usize; 3] = [4, 8, 16];

    let rects = scaled_rects(SUBS, 11_000);
    let world = Rect::union_all(rects.iter()).expect("rect pool is non-empty");
    let cfg = FedConvergenceConfig::default();
    let mut runs = Vec::new();
    let mut min_headroom = f64::INFINITY;
    let mut all_converged = true;
    let mut all_exact = true;
    println!(
        "| brokers | populate (M subs/s) | recovery (rounds) | budget | crashes | warm/cold | \
         exact | fault p99/p999 | post p999 | fwd/event |"
    );
    println!(
        "|---------|---------------------|-------------------|--------|---------|-----------|\
         -------|----------------|-----------|-----------|"
    );
    for k in BROKERS {
        let schedule = FaultSchedule::broker_churn();
        let mut fabric = FederatedFabric::new(
            k,
            &world,
            11_100 + k as u64,
            FedEngine::Rounds,
            FedConfig::default(),
        );
        let t0 = Instant::now();
        fabric.bulk_populate(&rects);
        assert!(
            fabric.settle(2_000),
            "populated fabric (k={k}) never reached legal: {:?}",
            fabric.check_legal()
        );
        let populate_ns = t0.elapsed().as_nanos() as u64;
        let report = run_federated_convergence(&mut fabric, &schedule, &cfg);

        let exact = report.post_matches_reference
            && report.post_false_negatives == 0
            && report.events_unresolved == 0;
        all_exact &= exact;
        match report.recovery_rounds {
            Some(r) => min_headroom = min_headroom.min(report.budget as f64 / r.max(1) as f64),
            None => all_converged = false,
        }
        let populate_rate = SUBS as f64 / (populate_ns as f64 / 1e9) / 1e6;
        let fwd_per_event = report.forwarded as f64 / report.events_completed.max(1) as f64;
        println!(
            "| {k} | {populate_rate:.2} | {} | {} | {} | {}/{} | {} | {}/{} | {} | {fwd_per_event:.2} |",
            report
                .recovery_rounds
                .map_or("DNF".into(), |r| r.to_string()),
            report.budget,
            report.broker_crashes,
            report.warm_rejoins,
            report.cold_rejoins + report.cold_fallbacks,
            if exact { "yes" } else { "NO" },
            report.fault_latency.p99,
            report.fault_latency.p999,
            report.post_latency.p999,
        );
        runs.push((k, populate_ns, report));
    }
    println!(
        "worst budget headroom across broker counts: {}",
        if all_converged {
            format!("{min_headroom:.1}x")
        } else {
            "DNF".into()
        }
    );

    let samples = Json::Array(
        runs.iter()
            .map(|(k, populate_ns, r)| {
                Json::object()
                    .field("brokers", *k as u64)
                    .field("subscriptions", SUBS as u64)
                    .field("populate_ns", *populate_ns)
                    .field("recovery_rounds", r.recovery_rounds.unwrap_or(u64::MAX))
                    .field("converged", u64::from(r.recovery_rounds.is_some()))
                    .field("budget", r.budget)
                    .field("broker_crashes", r.broker_crashes)
                    .field("warm_rejoins", r.warm_rejoins)
                    .field("cold_rejoins", r.cold_rejoins)
                    .field("cold_fallbacks", r.cold_fallbacks)
                    .field(
                        "post_exact",
                        u64::from(r.post_matches_reference && r.post_false_negatives == 0),
                    )
                    .field("post_false_negatives", r.post_false_negatives)
                    .field("events_completed", r.events_completed)
                    .field("events_unresolved", r.events_unresolved)
                    .field("forwarded", r.forwarded)
                    .field("delivered_matches", r.delivered_matches)
                    .field("fault_p50", r.fault_latency.p50)
                    .field("fault_p99", r.fault_latency.p99)
                    .field("fault_p999", r.fault_latency.p999)
                    .field("post_p50", r.post_latency.p50)
                    .field("post_p99", r.post_latency.p99)
                    .field("post_p999", r.post_latency.p999)
            })
            .collect(),
    );
    let json = Json::object()
        .field("bench", "federated-fabric")
        .field(
            "workload",
            "uniform 2d, extents 1-10, world scaled to ~10 matches per point query; \
             1M subscriptions bulk-populated across K brokers (contiguous Hilbert \
             ranges, curve-neighbor replication); canonical broker-churn schedule \
             (crash -> warm rejoin from checkpoint -> crash -> cold rejoin) with \
             client churn and publications flowing throughout",
        )
        .field(
            "query",
            "recovery_rounds = rounds from schedule end to check_legal == Ok with \
             no publication outstanding (stride-quantized); fault/post percentiles \
             are per-publication injection-to-resolution spans in rounds; \
             post_exact = every post-recovery probe's delivery set equals the \
             single-broker reference with zero false negatives",
        )
        .field("brokers", samples)
        .field(
            "min_budget_headroom",
            if all_converged {
                Json::fixed(min_headroom, 2)
            } else {
                Json::fixed(0.0, 2)
            },
        )
        .field("all_exact", u64::from(all_exact));
    write_bench(out_path, json);

    if let Some(threshold) = check {
        let mut failed = false;
        if !all_converged {
            eprintln!("REGRESSION: a broker count did not re-reach a legal configuration");
            failed = true;
        } else if min_headroom < threshold {
            eprintln!(
                "REGRESSION: broker-churn budget headroom fell below {threshold}x \
                 (worst measured {min_headroom:.2}x)"
            );
            failed = true;
        }
        if !all_exact {
            eprintln!("REGRESSION: federated post-recovery delivery is no longer exact");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "check passed: every broker count reconverged with >= {threshold}x budget \
             headroom and exact post-recovery delivery"
        );
    }
}

/// Best-of-`reps` wall-clock build time; returns the last tree built.
/// The per-repetition entry clone happens outside the timed region.
fn time_build<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, u64) {
    let mut best = u64::MAX;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let tree = build();
        best = best.min(t0.elapsed().as_nanos() as u64);
        out = Some(tree);
    }
    (out.expect("reps > 0"), best)
}

/// Like [`time_build`] but excludes input preparation from the timing.
fn time_build_with<I, T>(
    reps: usize,
    mut setup: impl FnMut() -> I,
    mut build: impl FnMut(I) -> T,
) -> (T, u64) {
    let mut best = u64::MAX;
    let mut out = None;
    for _ in 0..reps {
        let input = setup();
        let t0 = Instant::now();
        let tree = build(input);
        best = best.min(t0.elapsed().as_nanos() as u64);
        out = Some(tree);
    }
    (out.expect("reps > 0"), best)
}

/// Mean per-query nanoseconds over all probes.
fn time_queries<const D: usize>(
    probes: &[Point<D>],
    mut query: impl FnMut(&Point<D>) -> usize,
) -> f64 {
    // Warm-up pass, also forcing the work to be observable.
    let mut hits = 0usize;
    for p in probes.iter().take(100) {
        hits += query(p);
    }
    let t0 = Instant::now();
    for p in probes {
        hits += query(p);
    }
    let elapsed = t0.elapsed().as_nanos() as f64;
    std::hint::black_box(hits);
    elapsed / probes.len() as f64
}

/// One mobility measurement at one mover count.
struct MobilitySample {
    movers: usize,
    ticks: usize,
    update_ns_per_move: f64,
    reinsert_ns_per_move: f64,
    speedup: f64,
    moved_in_place: u64,
    rekeyed: u64,
    update_compactions: u64,
    reinsert_compactions: u64,
}

/// The moving-subscriptions probe (see the module docs): identical
/// seeded random-waypoint trajectories applied through
/// [`ShardedOracle::move_entry`] and through remove + reinsert, both
/// flushing (and compacting) inside the timed window, with an untimed
/// per-tick exactness prelude against a fresh-built reference oracle.
/// Writes `BENCH_mobility.json` and gates `update_vs_reinsert_at_100k`.
fn mobility_moves(out_path: &str, check: Option<f64>) {
    // (movers, timed ticks): fewer ticks at 500k keep the wall clock
    // bounded while still spanning several flush cycles.
    const SIZES: [(usize, usize); 2] = [(100_000, 6), (500_000, 3)];
    const SHARDS: usize = 4;
    const EXACT_TICKS: usize = 2;
    const PROBE_GRID: usize = 6;
    const GATE_SIZE: usize = 100_000;

    let mut samples: Vec<MobilitySample> = Vec::new();
    let mut headline = None;
    println!(
        "| movers | ticks | update (ns/move) | reinsert (ns/move) | speedup | in-place | rekeyed |"
    );
    println!(
        "|--------|-------|------------------|--------------------|---------|----------|---------|"
    );
    for (movers, ticks) in SIZES {
        let seed = 31_000 + movers as u64;
        let rects = scaled_rects(movers, seed);
        // Same world construction as `scaled_rects`: side scaled so a
        // point query matches ~10 movers at every size.
        let side = (movers as f64 * 5.5 * 5.5 / 10.0).sqrt();
        let world = Rect::new([0.0, 0.0], [side, side]);
        // Small per-tick deltas — the fast path's contract: movers
        // drift at most half a unit per tick under extents of 1-10, so
        // most moves stay inside their leaf subtree and the delta
        // layer grows only from genuine escapes and boundary
        // crossings. The baseline replays the *same* small deltas, it
        // just pays remove+reinsert (and the per-tick compactions that
        // forces) for them.
        let model = MotionModel::RandomWaypoint {
            min_speed: 0.05,
            max_speed: 0.5,
        };
        let ids: Vec<ProcessId> = (0..movers).map(|i| ProcessId::from_raw(i as u64)).collect();

        // Pre-generate the whole trajectory once so both paths replay
        // byte-identical deltas and neither pays motion-model cost
        // inside its timed window.
        let mut field = MotionField::new(model, world, rects.clone(), seed ^ 0x0b11e);
        let trajectory: Vec<Vec<(u32, Rect<2>)>> =
            (0..ticks + EXACT_TICKS).map(|_| field.step()).collect();

        // Untimed exactness prelude, on the same oracle the timed
        // window then measures: the first EXACT_TICKS ticks are
        // applied through `move_entry` and pinned per tick against an
        // oracle rebuilt from scratch over the same rect set. This
        // doubles as steady-state warm-up — the timed window measures
        // a mobility engine already tracking its movers, not the
        // one-off cost of meeting 100k ids for the first time.
        let mut update_oracle: ShardedOracle<2> = ShardedOracle::new(SHARDS);
        for (id, r) in ids.iter().zip(&rects) {
            update_oracle.insert(*id, *r);
        }
        update_oracle.flush();
        let mut current = rects.clone();
        for tick in &trajectory[..EXACT_TICKS] {
            for &(i, new) in tick {
                let i = i as usize;
                assert!(
                    update_oracle.move_entry(ids[i], &current[i], new),
                    "move_entry lost mover {i}"
                );
                current[i] = new;
            }
            update_oracle.flush();
            let mut reference: ShardedOracle<2> = ShardedOracle::new(SHARDS);
            for (id, r) in ids.iter().zip(&current) {
                reference.insert(*id, *r);
            }
            reference.flush();
            let mut got = Vec::new();
            let mut want = Vec::new();
            for gx in 0..PROBE_GRID {
                for gy in 0..PROBE_GRID {
                    let p = Point::new([
                        side * (gx as f64 + 0.5) / PROBE_GRID as f64,
                        side * (gy as f64 + 0.5) / PROBE_GRID as f64,
                    ]);
                    update_oracle.match_point_into(&p, &mut got);
                    reference.match_point_into(&p, &mut want);
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(got, want, "post-tick delivery set diverged from rebuild");
                }
            }
        }
        let moved_rects = current;

        // Timed update pass: move_entry per delta, flush per tick.
        let mut current = moved_rects.clone();
        let t0 = Instant::now();
        for tick in &trajectory[EXACT_TICKS..] {
            for &(i, new) in tick {
                let i = i as usize;
                update_oracle.move_entry(ids[i], &current[i], new);
                current[i] = new;
            }
            update_oracle.flush();
        }
        let update_ns = t0.elapsed().as_nanos() as f64;
        let moves = (ticks * movers) as u64;
        let all_moves = ((ticks + EXACT_TICKS) * movers) as u64;
        update_oracle.flush();
        assert_eq!(
            update_oracle.moved_in_place_total() + update_oracle.rekeyed_total(),
            all_moves,
            "move counters must account for every delta"
        );

        // Baseline pass: remove + reinsert per delta over the
        // identical trajectory, flush per tick (its compactions are
        // part of the price being measured). Same warm-up discipline:
        // the prelude ticks run untimed on the same oracle first.
        let mut reinsert_oracle: ShardedOracle<2> = ShardedOracle::new(SHARDS);
        for (id, r) in ids.iter().zip(&rects) {
            reinsert_oracle.insert(*id, *r);
        }
        reinsert_oracle.flush();
        let mut current = rects.clone();
        for tick in &trajectory[..EXACT_TICKS] {
            for &(i, new) in tick {
                let i = i as usize;
                assert!(reinsert_oracle.remove(ids[i], &current[i]));
                reinsert_oracle.insert(ids[i], new);
                current[i] = new;
            }
            reinsert_oracle.flush();
        }
        let t0 = Instant::now();
        for tick in &trajectory[EXACT_TICKS..] {
            for &(i, new) in tick {
                let i = i as usize;
                assert!(reinsert_oracle.remove(ids[i], &current[i]));
                reinsert_oracle.insert(ids[i], new);
                current[i] = new;
            }
            reinsert_oracle.flush();
        }
        let reinsert_ns = t0.elapsed().as_nanos() as f64;

        // Both paths must land on the same final index: probe the grid
        // once more against each other.
        let mut got = Vec::new();
        let mut want = Vec::new();
        for gx in 0..PROBE_GRID {
            for gy in 0..PROBE_GRID {
                let p = Point::new([
                    side * (gx as f64 + 0.5) / PROBE_GRID as f64,
                    side * (gy as f64 + 0.5) / PROBE_GRID as f64,
                ]);
                update_oracle.match_point_into(&p, &mut got);
                reinsert_oracle.match_point_into(&p, &mut want);
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "update and reinsert paths diverged");
            }
        }

        let update_ns_per_move = update_ns / moves as f64;
        let reinsert_ns_per_move = reinsert_ns / moves as f64;
        let speedup = reinsert_ns_per_move / update_ns_per_move;
        println!(
            "| {movers} | {ticks} | {update_ns_per_move:.1} | {reinsert_ns_per_move:.1} | \
             {speedup:.2}x | {} | {} |",
            update_oracle.moved_in_place_total(),
            update_oracle.rekeyed_total(),
        );
        if movers == GATE_SIZE {
            headline = Some(speedup);
        }
        samples.push(MobilitySample {
            movers,
            ticks,
            update_ns_per_move,
            reinsert_ns_per_move,
            speedup,
            moved_in_place: update_oracle.moved_in_place_total(),
            rekeyed: update_oracle.rekeyed_total(),
            update_compactions: update_oracle.compaction_count(),
            reinsert_compactions: reinsert_oracle.compaction_count(),
        });
    }

    let speedup = headline.expect("gate size measured");
    println!(
        "move_entry vs remove+reinsert at {GATE_SIZE} movers: {speedup:.2}x \
         ({:.1} -> {:.1} ns/move)",
        samples[0].reinsert_ns_per_move, samples[0].update_ns_per_move,
    );

    let sizes = samples.iter().fold(Json::object(), |obj, s| {
        obj.field(
            s.movers.to_string().as_str(),
            Json::object()
                .field("ticks", s.ticks)
                .field("update_ns_per_move", Json::fixed(s.update_ns_per_move, 1))
                .field(
                    "reinsert_ns_per_move",
                    Json::fixed(s.reinsert_ns_per_move, 1),
                )
                .field("speedup", Json::fixed(s.speedup, 2))
                .field("moved_in_place", s.moved_in_place)
                .field("rekeyed", s.rekeyed)
                .field("update_compactions", s.update_compactions)
                .field("reinsert_compactions", s.reinsert_compactions),
        )
    });
    let json = Json::object()
        .field("bench", "mobility-moves")
        .field(
            "workload",
            "uniform 2d movers, extents 1-10, world scaled to ~10 matches per point query",
        )
        .field(
            "motion",
            "seeded random waypoint, speed 0.05-0.5 per tick, 4 shards, flush per tick; \
             identical trajectories for both paths; exactness prelude of 2 pinned ticks",
        )
        .field("sizes", sizes)
        .field("update_vs_reinsert_at_100k", Json::fixed(speedup, 2));
    write_bench(out_path, json);

    if let Some(threshold) = check {
        if speedup < threshold {
            eprintln!(
                "REGRESSION: move_entry speedup over remove+reinsert fell below {threshold}x \
                 (measured {speedup:.2}x)"
            );
            std::process::exit(1);
        }
        println!("check passed: move_entry >= {threshold}x vs remove+reinsert at 100k movers");
    }
}
