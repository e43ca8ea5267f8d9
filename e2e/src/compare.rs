//! `e2e compare`: two sets of run outputs judged against the bounds in
//! `BENCHMARK.json`.
//!
//! Each input file is the captured standard output of one `e2e run`.
//! For every workload × end-to-end metric the command prints both sets'
//! medians and quartiles, the relative difference of the medians and
//! the metric's bound, and labels the row: `worse` or `better` when the
//! second set's median differs from the first's by more than the bound,
//! `unresolved` when either set's own spread (interquartile range over
//! median) is wider than the bound, so a difference of that size could
//! not have been seen, and `same` otherwise. This is how a commit's
//! repeatability is shown (two sets of the same commit: no `worse`, no
//! `better`) and how a later change presents parent against change.

use std::collections::BTreeMap;

use crate::cli::CompareArgs;
use crate::json::Json;
use crate::stats;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(String::from)
                    .ok_or(format!("end_to_end entry without `{k}`"))
            };
            Ok(Bound {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry without `bound`")?,
            })
        })
        .collect()
}

/// The untraced runs of one set: workload → metric → values. Returns the
/// runs that reported failures beside them.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_set(paths: &[String]) -> Result<(Samples, Vec<String>), String> {
    let mut samples = Samples::new();
    let mut failed = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let (record, result) = parse_run(&text).map_err(|e| format!("{path}: {e}"))?;
        if record.get("traced") == Some(&Json::Bool(true)) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{path}: record without workload"))?;
        if result.get("correct") != Some(&Json::Bool(true)) {
            failed.push(path.clone());
        }
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or(format!("{path}: result without metrics"))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("{path}: metric {name} without value"))?;
            samples
                .entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok((samples, failed))
}

/// The record and the result object of one run's captured output.
pub fn parse_run(text: &str) -> Result<(Json, Json), String> {
    let mut lines = text.lines().rev().filter(|l| l.starts_with('{'));
    let result = Json::parse(lines.next().ok_or("no result line")?)?;
    let record = lines
        .filter_map(|l| Json::parse(l).ok())
        .find_map(|j| j.get("record").cloned())
        .ok_or("no record line")?;
    Ok((record, result))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median, quartiles and spread of one side; a single run has no
/// spread to speak of.
fn summarize(values: &[f64]) -> ([f64; 3], f64) {
    let mut v = values.to_vec();
    match stats::quartiles(&mut v) {
        Some(q) => (q, stats::spread(&mut v).unwrap_or(0.0)),
        None => ([v[0]; 3], 0.0),
    }
}

/// Judges the second set against the first. `change` is the relative
/// difference of the medians, signed so that positive is worse.
pub fn judge(before: &[f64], after: &[f64], bound: &Bound) -> (Verdict, f64) {
    let ([_, a, _], spread_a) = summarize(before);
    let ([_, b, _], spread_b) = summarize(after);
    let raw = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    let change = if bound.higher_is_better { -raw } else { raw };
    let verdict = if spread_a > bound.bound || spread_b > bound.bound {
        Verdict::Unresolved
    } else if change > bound.bound {
        Verdict::Worse
    } else if change < -bound.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (verdict, change)
}

/// Prints the table; `Ok(true)` when no row is `worse` and no run
/// reported a failed operation.
pub fn run(args: &CompareArgs) -> Result<bool, String> {
    let benchmark = std::fs::read_to_string(&args.benchmark)
        .map_err(|e| format!("{}: {e}", args.benchmark))
        .and_then(|t| Json::parse(&t))?;
    let bounds = bounds(&benchmark)?;
    let (before, failed_before) = read_set(&args.before)?;
    let (after, failed_after) = read_set(&args.after)?;
    println!(
        "{:<16} {:<11} {:>4} {:>12} {:>12} {:>12} {:>7} | {:>4} {:>12} {:>12} {:>12} {:>7} | {:>8} {:>6}  verdict",
        "workload", "metric", "n", "q1", "median", "q3", "spread", "n", "q1", "median", "q3", "spread", "change", "bound"
    );
    let mut clean = true;
    for (workload, metrics) in &before {
        for bound in &bounds {
            let (Some(a), Some(b)) = (
                metrics.get(&bound.name),
                after.get(workload).and_then(|m| m.get(&bound.name)),
            ) else {
                continue;
            };
            let (qa, sa) = summarize(a);
            let (qb, sb) = summarize(b);
            let (verdict, change) = judge(a, b, bound);
            clean &= verdict != Verdict::Worse;
            println!(
                "{:<16} {:<11} {:>4} {:>12.6} {:>12.6} {:>12.6} {:>6.1}% | {:>4} {:>12.6} {:>12.6} {:>12.6} {:>6.1}% | {:>+7.1}% {:>5.0}%  {}",
                workload,
                format!("{} [{}]", bound.name, bound.unit),
                a.len(),
                qa[0], qa[1], qa[2],
                100.0 * sa,
                b.len(),
                qb[0], qb[1], qb[2],
                100.0 * sb,
                100.0 * change,
                100.0 * bound.bound,
                verdict.name()
            );
        }
    }
    println!(
        "change: relative difference of the medians, positive is worse; spread: (q3 - q1) / median"
    );
    for path in failed_before.iter().chain(&failed_after) {
        println!("FAILED operations reported by {path}");
        clean = false;
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher: bool) -> Bound {
        Bound {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better: higher,
            bound: 0.1,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let up20: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        let up5: Vec<f64> = base.iter().map(|v| v * 1.05).collect();
        assert_eq!(judge(&base, &up20, &bound(true)).0, Verdict::Better);
        assert_eq!(judge(&base, &up20, &bound(false)).0, Verdict::Worse);
        assert_eq!(judge(&up20, &base, &bound(true)).0, Verdict::Worse);
        assert_eq!(judge(&base, &up5, &bound(false)).0, Verdict::Same);
        let noisy = [100.0, 140.0, 70.0, 120.0, 90.0];
        assert_eq!(judge(&base, &noisy, &bound(false)).0, Verdict::Unresolved);
        let (_, change) = judge(&base, &up20, &bound(false));
        assert!((change - 0.2).abs() < 1e-9);
        // Single runs compare by value alone.
        assert_eq!(judge(&[10.0], &[12.0], &bound(false)).0, Verdict::Worse);
    }

    #[test]
    fn parses_a_captured_run() {
        let text = "w ops_per_s 5 1/s\n# note\n{\"record\": {\"workload\": \"w\", \"traced\": false}}\n{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"ops_per_s\": {\"value\": 5, \"unit\": \"1/s\"}}}\n";
        let (record, result) = parse_run(text).unwrap();
        assert_eq!(record.get("workload").and_then(Json::as_str), Some("w"));
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert!(parse_run("no json here").is_err());
    }

    #[test]
    fn reads_bounds_from_benchmark_json() {
        let doc = Json::parse(
            r#"{"end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}]}"#,
        )
        .unwrap();
        let b = bounds(&doc).unwrap();
        assert_eq!(b.len(), 1);
        assert!(b[0].higher_is_better && b[0].bound == 0.2);
        assert!(bounds(&Json::obj()).is_err());
    }
}
