//! Command-line parsing into checked values.

use crate::report::WORKLOADS;

pub const USAGE: &str = "\
usage:
  e2e run --workload <name> --seed <u64> [--seconds <n=15>] [--trace <0|1>]
          [--trace-out <file.jsonl>] [--smoke]
  e2e compare <a.out>... -- <b.out>... [--benchmark <BENCHMARK.json>]

workloads: overlay-steady oracle-match oracle-churn overlay-recover fabric-churn";

#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Index into [`WORKLOADS`].
    pub workload: usize,
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<String>,
    pub smoke: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct CompareArgs {
    pub before: Vec<String>,
    pub after: Vec<String>,
    pub benchmark: String,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Run(RunArgs),
    Compare(CompareArgs),
}

pub fn parse(args: &[String]) -> Result<Command, String> {
    match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).map(Command::Run),
        Some("compare") => parse_compare(&args[1..]).map(Command::Compare),
        Some(other) => Err(format!("unknown subcommand `{other}`")),
        None => Err("missing subcommand".into()),
    }
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 15.0;
    let mut trace = false;
    let mut trace_out = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .position(|w| w == name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("bad seed `{v}`"))?);
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad seconds `{v}`"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                };
            }
            "--trace-out" => trace_out = Some(value()?.clone()),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        trace_out,
        smoke,
    })
}

fn parse_compare(args: &[String]) -> Result<CompareArgs, String> {
    let mut before = Vec::new();
    let mut after = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut second = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--" => second = true,
            "--benchmark" => {
                benchmark = it.next().ok_or("--benchmark requires a path")?.clone();
            }
            path if second => after.push(path.to_string()),
            path => before.push(path.to_string()),
        }
    }
    if before.is_empty() || after.is_empty() {
        return Err("compare needs two non-empty sets of run outputs separated by `--`".into());
    }
    Ok(CompareArgs {
        before,
        after,
        benchmark,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_invocation() {
        let cmd = parse(&args(
            "run --workload oracle-churn --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Run(RunArgs {
                workload: 2,
                seed: 42,
                seconds: 10.0,
                trace: true,
                trace_out: None,
                smoke: false,
            })
        );
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "",
            "run",
            "run --workload nope --seed 1",
            "run --workload oracle-match",
            "run --workload oracle-match --seed x",
            "run --workload oracle-match --seed 1 --seconds 0",
            "run --workload oracle-match --seed 1 --seconds nan",
            "run --workload oracle-match --seed 1 --trace 2",
            "run --workload oracle-match --seed 1 --frobnicate",
            "compare a b",
            "compare -- b",
            "frob",
        ] {
            assert!(parse(&args(bad)).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn splits_compare_sets_at_the_separator() {
        let cmd = parse(&args("compare a1 a2 -- b1 --benchmark X.json")).unwrap();
        assert_eq!(
            cmd,
            Command::Compare(CompareArgs {
                before: vec!["a1".into(), "a2".into()],
                after: vec!["b1".into()],
                benchmark: "X.json".into(),
            })
        );
    }
}
