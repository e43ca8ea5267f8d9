//! Stabilization gates: how fast the overlay and the federated fabric
//! re-reach a legal configuration after scripted faults, and whether
//! delivery stays exact once they have. Both gates are counted in
//! simulated rounds, so a run is deterministic and cannot flake on
//! runner noise. Performance is measured by the end-to-end benchmark
//! (`e2e/`), not here.
//!
//! # Modes
//!
//! * **Fault schedules** (`faults`): drives the six canonical
//!   adversarial [`FaultSchedule`]s (partition-then-heal, correlated
//!   regional crash, lossy burst, duplication + reordering window,
//!   corruption volleys, broker churn) against bulk-built overlays at
//!   64/256/1024 subscribers with pipelined background
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
//! * **Federated fabric** (`federate`): splits one million
//!   subscriptions across a [`drtree_pubsub::FederatedFabric`] of
//!   4/8/16 broker instances (each owning a contiguous Hilbert range,
//!   replicated to its curve neighbors) and drives the canonical
//!   broker-churn [`FaultSchedule`] through
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
//! With no mode or an unknown one, the binary prints its usage and
//! exits with status 2.
//!
//! # Emitted JSON
//!
//! The JSON files are committed at the repo root and refreshed
//! whenever the respective subsystem changes, so the recovery
//! trajectory is reviewable across changes (both emitted through
//! [`drtree_bench::json`]):
//!
//! * `BENCH_faults.json` — per-size, per-schedule `{recovery_rounds,
//!   budget, survivors, post_exact, fault/post p50/p99/p999, fault
//!   counter deltas}` samples, the asynchronous-engine probe, and the
//!   headlines `min_budget_headroom` (budget ÷ recovery rounds, worst
//!   schedule) and `all_exact`.
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
//! * `faults --check t` — every schedule must re-reach a legal
//!   configuration with ≥ `t`× budget headroom, and post-recovery
//!   delivery (both engines) must stay exact. `t = 1.0` means "within
//!   budget"; CI uses a higher floor since steady-state recoveries
//!   finish in tens of rounds.
//! * `federate --check t` — every broker count must reconverge from
//!   broker churn with ≥ `t`× budget headroom, with every publication
//!   resolved and post-recovery delivery equal to the single-broker
//!   reference (zero false negatives) asserted unconditionally.
//!
//! CI runs both gates at 2× headroom (see `.github/workflows/ci.yml`).

use std::time::Instant;

use drtree_bench::json::Json;
use drtree_core::{
    run_convergence, AsyncDrTreeCluster, ConvergenceConfig, ConvergenceReport, DrTreeCluster,
    DrTreeConfig, FaultProfile, FaultSchedule, LatencyDistribution, ProcessId,
};
use drtree_pubsub::{
    run_federated_convergence, FedConfig, FedConvergenceConfig, FedEngine, FederatedFabric,
};
use drtree_sim::{LatencyModel, NetConfig};
use drtree_spatial::{Point, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const USAGE: &str = "usage: scale <faults|federate> [out.json] [--check <t>]";

/// The `[out.json] [--check <t>]` tail both modes take.
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
/// measured it: the rounds are deterministic, but `federate`'s
/// populate time is wall-clock and means nothing beside a number from
/// a machine with another core count or CPU.
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
    let (run, default_out): (fn(&str, Option<f64>), &str) = match args.first().map(String::as_str) {
        Some("faults") => (fault_schedules, "BENCH_faults.json"),
        Some("federate") => (federated_fabric, "BENCH_federate.json"),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let (out, check) = parse_out_and_check(&args[1..], default_out);
    run(&out, check);
}

/// Constant-selectivity rectangle workload: extents 1–10 in a world
/// whose side grows with `sqrt(n)` so a point query matches ~10
/// entries at *every* size. Keeping the audience constant makes the
/// sizes comparable and mirrors the serving regime the north star
/// targets (an event at million-user scale interests a bounded
/// audience, not 0.3% of the planet).
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
