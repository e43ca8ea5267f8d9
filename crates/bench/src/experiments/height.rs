//! T-HEIGHT (Lemma 3.1): "In a legitimate configuration the height of
//! the DR-tree is O(log_m(N)) while the memory complexity for the
//! structure maintenance is O(M log²(N)/log(m))."
//!
//! For a sweep of N and (m, M) the table reports the measured height
//! against ⌈log_m N⌉, the maximum observed degree against M, and the
//! per-process memory (children-table entries) against the lemma's
//! bound. Every row is checked, not only printed: height ≤
//! ⌈log_m N⌉ + 1, max degree ≤ M, and mem max ≤ M·log²N/log m. The
//! full sweep extends to N = 1,024.

use drtree_core::{DrTreeConfig, SplitMethod};

use crate::table::fmt_f;
use crate::Table;

use super::{build_uniform, n_sweep};

/// Runs the experiment; `fast` shrinks the sweep.
///
/// # Panics
///
/// If a row breaks one of Lemma 3.1's bounds.
pub fn run(fast: bool) -> Vec<Table> {
    let mut t = Table::new(
        "T-HEIGHT — height and memory vs N (Lemma 3.1)",
        &[
            "N",
            "m",
            "M",
            "height",
            "ceil(log_m N)",
            "max degree",
            "mem max",
            "mem mean",
            "M·log²N/log m",
        ],
    );
    let degree_settings: &[(usize, usize)] = if fast {
        &[(2, 4)]
    } else {
        &[(2, 4), (2, 6), (4, 8)]
    };
    let mut sizes = n_sweep(fast);
    if !fast {
        sizes.extend([512, 1_024]);
    }
    for n in sizes {
        for &(m, max) in degree_settings {
            let config =
                DrTreeConfig::with_degree(m, max, SplitMethod::Quadratic).expect("valid degree");
            let cluster = build_uniform(n, config, 1000 + n as u64 + m as u64);
            assert!(cluster.check_legal().is_ok());
            let (mem_max, mem_mean) = cluster.memory_stats();
            let logm = ((n as f64).ln() / (m as f64).ln()).ceil();
            let mem_bound = max as f64 * (n as f64).ln().powi(2) / (m as f64).ln();
            let height = cluster.height();
            let degree = cluster.max_degree_observed();
            let row = format!("N={n} (m, M)=({m}, {max})");
            assert!(
                height as f64 <= logm + 1.0,
                "{row}: height {height} > ceil(log_m N) + 1 = {}",
                logm + 1.0
            );
            assert!(degree <= max, "{row}: max degree {degree} > M");
            assert!(
                mem_max as f64 <= mem_bound,
                "{row}: mem max {mem_max} > M·log²N/log m = {mem_bound:.0}"
            );
            t.push(vec![
                n.to_string(),
                m.to_string(),
                max.to_string(),
                height.to_string(),
                fmt_f(logm, 0),
                degree.to_string(),
                mem_max.to_string(),
                fmt_f(mem_mean, 1),
                fmt_f(mem_bound, 0),
            ]);
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn fast_sweep_meets_lemma_3_1() {
        let tables = super::run(true);
        assert_eq!(tables[0].len(), 3, "one row per N of the fast sweep");
    }
}
