//! The benchmark's metric registry and output.
//!
//! `BENCHMARK.json` names every metric; this file is the program-side
//! copy of that list (a unit test keeps the two identical). A run
//! prints one line per metric, `<workload> <metric> <value> <unit>`,
//! then a record line (host, configuration, sizes, notes) and, last,
//! the result object the benchmark contract prescribes.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::model::Checks;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Mirrors `BENCHMARK.json`; only the test that keeps the two
    /// identical reads it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

pub const WORKLOADS: [&str; 5] = [
    "overlay-steady",
    "oracle-match",
    "oracle-churn",
    "overlay-recover",
    "fabric-churn",
];

/// The canonical fault schedules, in `FaultSchedule::canonical` order.
pub const SCHEDULES: [&str; 6] = [
    "partition-heal",
    "regional-crash",
    "lossy-burst",
    "dup-reorder",
    "corruption-volley",
    "broker-churn",
];

/// What a user of the system sees. Every workload reports all three;
/// README.md defines each per workload.
pub const END_TO_END: [MetricDef; 3] = [
    hi("ops_per_s", "1/s"),
    lo("latency_ms", "ms"),
    lo("setup_s", "s"),
];

/// Single-layer metrics, measured from outside the layer. A workload
/// that does not exercise a metric's call reports it as 0.
pub const PER_LAYER: [MetricDef; 99] = [
    // Traced run: share of the traced wall that is each layer's self time.
    lo("trace_overhead_share", "ratio"),
    lo("bench.wall_share", "ratio"),
    lo("sim.wall_share", "ratio"),
    lo("core.wall_share", "ratio"),
    lo("shard.wall_share", "ratio"),
    lo("broker.wall_share", "ratio"),
    lo("ingress.wall_share", "ratio"),
    lo("fabric.wall_share", "ratio"),
    // sim
    lo("sim.idle_round_us", "us"),
    lo("sim.messages_per_round", "count"),
    // core
    lo("core.build_bulk_ms", "ms"),
    lo("core.pipeline_us_per_event", "us"),
    lo("core.rounds_per_event", "rounds"),
    lo("core.rounds_per_batch", "rounds"),
    lo("core.messages_per_event", "count"),
    hi("core.delivery_precision", "ratio"),
    lo("core.check_legal_ms", "ms"),
    lo("core.join_ms", "ms"),
    lo("core.join_rounds", "rounds"),
    lo("core.leave_ms", "ms"),
    lo("core.recover_s.partition-heal", "s"),
    lo("core.recover_s.regional-crash", "s"),
    lo("core.recover_s.lossy-burst", "s"),
    lo("core.recover_s.dup-reorder", "s"),
    lo("core.recover_s.corruption-volley", "s"),
    lo("core.recover_s.broker-churn", "s"),
    lo("core.recovery_rounds.partition-heal", "rounds"),
    lo("core.recovery_rounds.regional-crash", "rounds"),
    lo("core.recovery_rounds.lossy-burst", "rounds"),
    lo("core.recovery_rounds.dup-reorder", "rounds"),
    lo("core.recovery_rounds.corruption-volley", "rounds"),
    lo("core.recovery_rounds.broker-churn", "rounds"),
    lo("core.recovery_rounds_total", "rounds"),
    lo("core.unrecovered_calls", "count"),
    lo("core.pipeline_mismatch_calls", "count"),
    lo("core.fragile_unrecovered", "count"),
    // pubsub.broker
    lo("broker.publish_batch_us_per_event", "us"),
    lo("broker.self_share", "ratio"),
    lo("broker.flush_oracle_ms", "ms"),
    // pubsub.ingress
    lo("ingress.enqueue_ns", "ns"),
    lo("ingress.blocked_share", "ratio"),
    lo("ingress.batches", "count"),
    hi("ingress.mean_batch", "count"),
    lo("ingress.commit_p50_ms", "ms"),
    lo("ingress.commit_p99_ms", "ms"),
    lo("ingress.commit_p999_ms", "ms"),
    lo("ingress.commit_max_ms", "ms"),
    lo("ingress.generator_late_p99_ms", "ms"),
    lo("ingress.rejected", "count"),
    lo("ingress.predicted_p50_ms", "ms"),
    // pubsub.shard
    lo("shard.insert_ns", "ns"),
    lo("shard.remove_ns", "ns"),
    lo("shard.move_ns", "ns"),
    lo("shard.flush_total_ms", "ms"),
    lo("shard.flush_max_ms.sync", "ms"),
    lo("shard.flush_max_ms.concurrent", "ms"),
    lo("shard.tick_p99_ms.sync", "ms"),
    lo("shard.tick_p99_ms.concurrent", "ms"),
    hi("shard.ops_per_s.sync", "1/s"),
    hi("shard.ops_per_s.concurrent", "1/s"),
    lo("shard.match_batch_ns.following", "ns"),
    lo("shard.match_batch_ns.uniform", "ns"),
    lo("shard.match_batch_ns.hotspot", "ns"),
    lo("shard.match_batch16k_ns", "ns"),
    lo("shard.match_point_ns", "ns"),
    lo("shard.snapshot_match_ns", "ns"),
    lo("shard.hits_per_event", "count"),
    lo("shard.compactions", "count"),
    lo("shard.rebalances", "count"),
    hi("shard.moved_in_place", "count"),
    lo("shard.rekeyed", "count"),
    lo("shard.len_skew", "ratio"),
    lo("shard.snapshot_ms", "ms"),
    lo("shard.restore_us", "us"),
    // rtree
    lo("rtree.bulk_load_ms", "ms"),
    lo("rtree.query_ns", "ns"),
    lo("rtree.batch_query_ns", "ns"),
    lo("rtree.update_entry_ns", "ns"),
    lo("rtree.stage_insert_ns", "ns"),
    lo("rtree.compact_ms", "ms"),
    lo("rtree.save_ms", "ms"),
    lo("rtree.load_us", "us"),
    // spatial
    lo("spatial.hilbert_key_ns", "ns"),
    lo("spatial.shard_of_ns", "ns"),
    // pubsub.federation
    lo("fabric.populate_s", "s"),
    lo("fabric.settle_rounds", "rounds"),
    lo("fabric.step_us", "us"),
    lo("fabric.forwards_per_event", "count"),
    lo("fabric.resolve_rounds_p50", "rounds"),
    lo("fabric.resolve_rounds_p99", "rounds"),
    lo("fabric.checkpoint_ms", "ms"),
    lo("fabric.warm_rejoin_ms", "ms"),
    lo("fabric.cold_rejoin_ms", "ms"),
    lo("fabric.recovery_rounds", "rounds"),
    // workloads
    lo("workloads.gen_s", "s"),
    lo("workloads.input_digest", "hash"),
    // Work the traced run did, so ratios have a base.
    hi("bench.traced_ops", "count"),
    lo("bench.traced_wall_s", "s"),
    lo("bench.spans", "count"),
];

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Checks,
    /// Metric values by registry name. Names outside the registry are
    /// a bug (asserted on output); registry names left unset print 0.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Final sizes, counts and configuration, for the record line.
    pub config: Vec<(String, Json)>,
    /// Human-readable remarks: sample counts, suppressed percentiles,
    /// predictions checked.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    pub fn config(&mut self, name: &str, value: impl Into<Json>) {
        self.config.push((name.to_string(), value.into()));
    }

    /// Records a percentile with its sample count, or 0 plus a note when
    /// fewer than ten samples lie beyond it.
    pub fn set_percentile(&mut self, name: &'static str, value: Option<f64>, samples: usize) {
        match value {
            Some(v) => {
                self.set(name, v);
                self.note(format!("{name}: from {samples} samples"));
            }
            None => {
                self.set(name, 0.0);
                self.note(format!(
                    "{name}: suppressed, {samples} samples leave fewer than ten beyond it"
                ));
            }
        }
    }
}

/// Prints the metric lines and returns the contract's result object.
pub fn emit(workload: &str, defs: &[MetricDef], outcome: &Outcome) -> Json {
    for name in outcome.metrics.keys() {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|d| d.name == *name),
            "metric {name} is not in the registry"
        );
    }
    let mut metrics = Json::obj();
    for def in defs {
        let value = outcome.metrics.get(def.name).copied().unwrap_or(0.0);
        println!("{workload} {} {value} {}", def.name, def.unit);
        metrics = metrics.field(
            def.name,
            Json::obj().field("value", value).field("unit", def.unit),
        );
    }
    Json::obj()
        .field("correct", outcome.checks.failed == 0)
        .field("attempted", outcome.checks.attempted.max(1))
        .field("failed", outcome.checks.failed)
        .field("metrics", metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn registered(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.name().into()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_registry() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), registered(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), registered(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn benchmark_json_stays_inside_the_contract() {
        let doc = benchmark_json();
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for key in ["end_to_end", "per_layer"] {
            for (name, unit, better) in declared(&doc, key) {
                assert!(name_ok(&name), "{name}");
                assert!(unit_ok(&unit), "{name}: unit {unit}");
                assert!(better == "higher" || better == "lower");
                assert!(seen.insert(name.clone()), "{name} declared twice");
            }
        }
        for w in doc.get("workloads").and_then(Json::as_arr).unwrap() {
            let name = w.get("name").and_then(Json::as_str).unwrap();
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(name_ok(name) && seen.insert(name.to_string()), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
        }
        for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        assert!(declared(&doc, "per_layer").len() <= 128);
        let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }

    #[test]
    fn emit_prints_every_metric_and_clamps_attempted() {
        let mut outcome = Outcome::default();
        outcome.set("ops_per_s", 12.5);
        let result = emit("t", &END_TO_END, &outcome);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(result.get("attempted").and_then(Json::as_f64), Some(1.0));
        let metrics = result.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].1.get("value").and_then(Json::as_f64), Some(12.5));
    }
}
