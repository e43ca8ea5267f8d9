//! `e2e`: the repository's end-to-end benchmark.
//!
//! One invocation runs one workload once: it generates inputs from the
//! seed, sets the system up, measures for `--seconds`, checks every
//! output against an independent reference, and prints one line per
//! metric, a record line and the result object. `--trace 1` runs the
//! same workload with spans recorded around every call into a layer
//! and reports the per-layer metrics instead. `compare` judges two
//! sets of run outputs against the bounds in `BENCHMARK.json`.
//! README.md beside this file defines every workload and metric.

mod cli;
mod compare;
mod host;
mod inputs;
mod json;
mod model;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use json::Json;

fn run(args: &cli::RunArgs) -> ExitCode {
    let workload = report::WORKLOADS[args.workload];
    let mut ctx = workloads::Ctx::new(args);
    workloads::run(args.workload, &mut ctx);

    if let Some(path) = &args.trace_out {
        if let Err(e) = ctx.tracer.write_jsonl(path) {
            eprintln!("e2e: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    let defs: &[report::MetricDef] = if args.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    let result = report::emit(workload, defs, &ctx.out);
    let share = stats::fail_share(ctx.out.checks.failed, ctx.out.checks.attempted);
    println!("{workload} fail_share {share} ratio");
    for note in &ctx.out.notes {
        println!("# {note}");
    }
    for failure in &ctx.out.checks.messages {
        println!("# FAILED: {failure}");
    }
    let record = Json::obj()
        .field("workload", workload)
        .field("seed", args.seed)
        .field("seconds", args.seconds)
        .field("traced", args.trace)
        .field("smoke", args.smoke)
        .field("fail_share", share)
        .field("host", host::fingerprint())
        .field(
            "threads",
            Json::obj()
                .field("load_generator", 1u64)
                .field("oracle_budget", drtree_rtree::parallel::available_threads()),
        )
        .field("config", Json::Obj(std::mem::take(&mut ctx.out.config)));
    println!("{}", Json::obj().field("record", record).render());
    println!("{}", result.render());
    if ctx.out.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse(&args) {
        Ok(cli::Command::Run(run_args)) => run(&run_args),
        Ok(cli::Command::Compare(compare_args)) => match compare::run(&compare_args) {
            Ok(clean) if clean => ExitCode::SUCCESS,
            Ok(_) => ExitCode::from(1),
            Err(e) => {
                eprintln!("e2e compare: {e}");
                ExitCode::from(2)
            }
        },
        Err(e) => {
            eprintln!("e2e: {e}\n{}", cli::USAGE);
            ExitCode::from(2)
        }
    }
}
