//! Experiment harness for the DR-tree reproduction.
//!
//! One experiment per table/figure of the evaluation (see DESIGN.md §4
//! and EXPERIMENTS.md): each [`experiments`] module exposes
//! `run(fast) -> Vec<Table>` regenerating the corresponding rows. The
//! `experiments` binary prints them:
//!
//! ```text
//! cargo run -p drtree-bench --release --bin experiments -- all
//! cargo run -p drtree-bench --release --bin experiments -- height --fast
//! ```
//!
//! The `scale` binary runs the two stabilization gates, `faults` and
//! `federate`: rounds-to-legal recovery and exact delivery after
//! scripted faults, committed as `BENCH_faults.json` and
//! `BENCH_federate.json` and checked in CI with `--check` — see its
//! module docs. Performance is measured by the end-to-end benchmark
//! (`e2e/`) alone.
//!
//! # Example
//!
//! Experiments return [`Table`]s that render as Markdown:
//!
//! ```
//! use drtree_bench::Table;
//!
//! let mut table = Table::new("demo", &["N", "rounds"]);
//! table.push(vec!["64".into(), "6".into()]);
//! assert_eq!(table.len(), 1);
//! let rendered = table.to_string();
//! assert!(rendered.contains("### demo"));
//! assert!(rendered.contains("| N  | rounds |")); // cells pad to column width
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod json;
mod table;

pub use table::Table;
