use std::fmt;
use std::time::Duration;

use drtree_core::PublishReport;

/// Routing-accuracy statistics aggregated over many publications.
///
/// This is the quantity behind the paper's headline experimental claim:
/// "the false positive rate is in the order of 2–3% with most
/// workloads" while false negatives are eradicated (§4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoutingStats {
    events: u64,
    deliveries: u64,
    matching: u64,
    false_positives: u64,
    false_negatives: u64,
    messages: u64,
    oracle_rebuilds: u64,
    oracle_rebuild_ns: u64,
    oracle_compactions: u64,
    oracle_staged_absorbed: u64,
    oracle_tombstones_reclaimed: u64,
    oracle_swap_ns_total: u64,
    oracle_swap_ns_max: u64,
    oracle_compact_ns_total: u64,
    oracle_compact_ns_max: u64,
    oracle_moved_in_place: u64,
    oracle_rekeyed: u64,
    oracle_leases_expired: u64,
    ingress_submitted: u64,
    ingress_committed: u64,
    ingress_rejected: u64,
    ingress_p50_ns: u64,
    ingress_p99_ns: u64,
    ingress_p999_ns: u64,
    ingress_max_ns: u64,
    unconverged: u64,
}

impl RoutingStats {
    /// Zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one publish outcome into the aggregate.
    pub fn absorb(&mut self, report: &PublishReport) {
        self.events += 1;
        self.deliveries += report.receivers.len() as u64;
        self.matching += report.matching.len() as u64;
        self.false_positives += report.false_positives.len() as u64;
        self.false_negatives += report.false_negatives.len() as u64;
        self.messages += report.messages;
    }

    /// One structural command (a join, a move, a departure) ran its
    /// overlay repair out of budget before a legitimate configuration.
    pub fn absorb_unconverged(&mut self) {
        self.unconverged += 1;
    }

    /// Structural commands whose overlay repair exhausted its budget:
    /// the overlay the next publish disseminates through may be
    /// illegitimate. Expected 0; tests assert it.
    pub fn unconverged(&self) -> u64 {
        self.unconverged
    }

    /// Number of published events.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Total deliveries (processes that received an event).
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Total subscribers that should have received events.
    pub fn matching(&self) -> u64 {
        self.matching
    }

    /// Total false positives.
    pub fn false_positives(&self) -> u64 {
        self.false_positives
    }

    /// Total false negatives.
    pub fn false_negatives(&self) -> u64 {
        self.false_negatives
    }

    /// Total `PubDown`/`PubUp` messages.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Folds one oracle maintenance pass into the aggregate:
    /// `shards` packed-tree rebuilds taking `elapsed` wall-clock time.
    /// Keeping this out of the publish columns is what lets benches
    /// separate matching cost from (re)build cost.
    pub fn absorb_oracle_rebuild(&mut self, shards: u64, elapsed: Duration) {
        self.oracle_rebuilds += shards;
        self.oracle_rebuild_ns += elapsed.as_nanos() as u64;
    }

    /// Total oracle shard rebuilds paid (lazily on publish, or eagerly
    /// via `Broker::flush_oracle`).
    pub fn oracle_rebuilds(&self) -> u64 {
        self.oracle_rebuilds
    }

    /// Total wall-clock nanoseconds spent rebuilding the oracle.
    pub fn oracle_rebuild_ns(&self) -> u64 {
        self.oracle_rebuild_ns
    }

    /// Folds one delta-layer maintenance pass into the aggregate:
    /// `merges` shard compactions absorbing `staged` staged entries
    /// and reclaiming `tombstones` dead slots. Kept separate from the
    /// publish columns for the same reason as the rebuild columns —
    /// publish timings must isolate matching.
    pub fn absorb_oracle_compaction(&mut self, merges: u64, staged: u64, tombstones: u64) {
        self.oracle_compactions += merges;
        self.oracle_staged_absorbed += staged;
        self.oracle_tombstones_reclaimed += tombstones;
    }

    /// Total delta-layer merges (shard compactions) performed.
    pub fn oracle_compactions(&self) -> u64 {
        self.oracle_compactions
    }

    /// Total staged entries absorbed into packed levels by compactions.
    pub fn oracle_staged_absorbed(&self) -> u64 {
        self.oracle_staged_absorbed
    }

    /// Total tombstoned slots reclaimed by compactions.
    pub fn oracle_tombstones_reclaimed(&self) -> u64 {
        self.oracle_tombstones_reclaimed
    }

    /// Folds one flush's pause profile into the aggregate: `swap_ns`
    /// is the publish-path stall (freezing, swapping, fixing up — for
    /// a concurrent flush, everything; for a synchronous flush,
    /// everything but the inline merge) and `compact_ns` the merge
    /// work wherever it ran. Tracking max alongside total is what
    /// exposes stop-the-world behavior: a synchronous compaction shows
    /// up as one giant `swap`-side pause, a concurrent one as many
    /// tiny swaps plus off-path compact time.
    pub fn absorb_oracle_pause(&mut self, swap_ns: u64, compact_ns: u64) {
        self.oracle_swap_ns_total += swap_ns;
        self.oracle_swap_ns_max = self.oracle_swap_ns_max.max(swap_ns);
        self.oracle_compact_ns_total += compact_ns;
        self.oracle_compact_ns_max = self.oracle_compact_ns_max.max(compact_ns);
    }

    /// Total publish-path nanoseconds spent swapping (non-merge flush
    /// work) across all flushes.
    pub fn oracle_swap_ns_total(&self) -> u64 {
        self.oracle_swap_ns_total
    }

    /// Largest single-flush publish-path swap pause, in nanoseconds.
    pub fn oracle_swap_ns_max(&self) -> u64 {
        self.oracle_swap_ns_max
    }

    /// Total nanoseconds spent merging delta layers (inline or on
    /// background workers) across all flushes.
    pub fn oracle_compact_ns_total(&self) -> u64 {
        self.oracle_compact_ns_total
    }

    /// Largest single-flush merge time, in nanoseconds.
    pub fn oracle_compact_ns_max(&self) -> u64 {
        self.oracle_compact_ns_max
    }

    /// Folds one flush's mobility counters into the aggregate:
    /// subscription moves absorbed as same-shard delta patches, moves
    /// re-keyed across a Hilbert shard boundary, and entries evicted
    /// by TTL lease expiry.
    pub fn absorb_oracle_moves(&mut self, moved_in_place: u64, rekeyed: u64, leases_expired: u64) {
        self.oracle_moved_in_place += moved_in_place;
        self.oracle_rekeyed += rekeyed;
        self.oracle_leases_expired += leases_expired;
    }

    /// Subscription moves absorbed without leaving their shard (an
    /// in-place packed-slot refit or a staged rewrite).
    pub fn oracle_moved_in_place(&self) -> u64 {
        self.oracle_moved_in_place
    }

    /// Subscription moves whose curve key crossed a shard boundary,
    /// forcing a remove/re-stage handoff.
    pub fn oracle_rekeyed(&self) -> u64 {
        self.oracle_rekeyed
    }

    /// Subscriptions evicted because their TTL lease expired.
    pub fn oracle_leases_expired(&self) -> u64 {
        self.oracle_leases_expired
    }

    /// Folds the concurrent-ingress counters into the aggregate:
    /// `submitted`/`committed`/`rejected` publication counts from the
    /// ingress rate meter, and the open-loop ingress latency quantiles
    /// (nanoseconds, billed from *scheduled arrival* so queue wait is
    /// never hidden — no coordinated omission). Quantiles are
    /// point-in-time values, so re-absorbing replaces rather than
    /// sums them (maxima still fold with `max`).
    #[allow(clippy::too_many_arguments)]
    pub fn absorb_ingress(
        &mut self,
        submitted: u64,
        committed: u64,
        rejected: u64,
        p50_ns: u64,
        p99_ns: u64,
        p999_ns: u64,
        max_ns: u64,
    ) {
        self.ingress_submitted += submitted;
        self.ingress_committed += committed;
        self.ingress_rejected += rejected;
        self.ingress_p50_ns = p50_ns;
        self.ingress_p99_ns = p99_ns;
        self.ingress_p999_ns = p999_ns;
        self.ingress_max_ns = self.ingress_max_ns.max(max_ns);
    }

    /// Publications accepted into an ingress queue.
    pub fn ingress_submitted(&self) -> u64 {
        self.ingress_submitted
    }

    /// Publications committed through the overlay by the ingress loop.
    pub fn ingress_committed(&self) -> u64 {
        self.ingress_committed
    }

    /// Publications rejected by admission control (queue full on a
    /// non-blocking submit, or a closed queue).
    pub fn ingress_rejected(&self) -> u64 {
        self.ingress_rejected
    }

    /// Median ingress latency in nanoseconds (scheduled arrival →
    /// commit).
    pub fn ingress_p50_ns(&self) -> u64 {
        self.ingress_p50_ns
    }

    /// 99th-percentile ingress latency in nanoseconds.
    pub fn ingress_p99_ns(&self) -> u64 {
        self.ingress_p99_ns
    }

    /// 99.9th-percentile ingress latency in nanoseconds.
    pub fn ingress_p999_ns(&self) -> u64 {
        self.ingress_p999_ns
    }

    /// Worst observed ingress latency in nanoseconds.
    pub fn ingress_max_ns(&self) -> u64 {
        self.ingress_max_ns
    }

    /// Share of deliveries that were false positives.
    pub fn false_positive_rate(&self) -> f64 {
        if self.deliveries == 0 {
            return 0.0;
        }
        self.false_positives as f64 / self.deliveries as f64
    }

    /// Share of interested subscribers that were missed.
    pub fn false_negative_rate(&self) -> f64 {
        if self.matching == 0 {
            return 0.0;
        }
        self.false_negatives as f64 / self.matching as f64
    }

    /// Mean messages spent per event.
    pub fn messages_per_event(&self) -> f64 {
        if self.events == 0 {
            return 0.0;
        }
        self.messages as f64 / self.events as f64
    }
}

impl fmt::Display for RoutingStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "events={} deliveries={} fp={} ({:.2}%) fn={} ({:.2}%) msgs/event={:.1} \
             oracle-rebuilds={} ({:.1}ms) compactions={} (staged={} tombstones={}) \
             pause: swap={:.2}ms (max {:.2}ms) compact={:.2}ms (max {:.2}ms)",
            self.events,
            self.deliveries,
            self.false_positives,
            100.0 * self.false_positive_rate(),
            self.false_negatives,
            100.0 * self.false_negative_rate(),
            self.messages_per_event(),
            self.oracle_rebuilds,
            self.oracle_rebuild_ns as f64 / 1e6,
            self.oracle_compactions,
            self.oracle_staged_absorbed,
            self.oracle_tombstones_reclaimed,
            self.oracle_swap_ns_total as f64 / 1e6,
            self.oracle_swap_ns_max as f64 / 1e6,
            self.oracle_compact_ns_total as f64 / 1e6,
            self.oracle_compact_ns_max as f64 / 1e6,
        )?;
        if self.oracle_moved_in_place + self.oracle_rekeyed + self.oracle_leases_expired > 0 {
            write!(
                f,
                " mobility: moved-in-place={} rekeyed={} leases-expired={}",
                self.oracle_moved_in_place, self.oracle_rekeyed, self.oracle_leases_expired,
            )?;
        }
        if self.ingress_submitted > 0 {
            write!(
                f,
                " ingress: submitted={} committed={} rejected={} \
                 lat p50={:.3}ms p99={:.3}ms p999={:.3}ms max={:.3}ms",
                self.ingress_submitted,
                self.ingress_committed,
                self.ingress_rejected,
                self.ingress_p50_ns as f64 / 1e6,
                self.ingress_p99_ns as f64 / 1e6,
                self.ingress_p999_ns as f64 / 1e6,
                self.ingress_max_ns as f64 / 1e6,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtree_core::ProcessId;

    fn report(receivers: u64, fps: u64, fns: u64, msgs: u64) -> PublishReport {
        let ids = |n: u64, base: u64| -> Vec<ProcessId> {
            (0..n).map(|i| ProcessId::from_raw(base + i)).collect()
        };
        PublishReport {
            event_id: 0,
            receivers: ids(receivers, 0),
            matching: ids(receivers - fps + fns, 100),
            false_positives: ids(fps, 200),
            false_negatives: ids(fns, 300),
            messages: msgs,
            rounds: 5,
        }
    }

    #[test]
    fn rates_accumulate() {
        let mut s = RoutingStats::new();
        s.absorb(&report(10, 1, 0, 12));
        s.absorb(&report(10, 0, 2, 8));
        assert_eq!(s.events(), 2);
        assert_eq!(s.deliveries(), 20);
        assert_eq!(s.false_positives(), 1);
        assert_eq!(s.false_negatives(), 2);
        assert!((s.false_positive_rate() - 0.05).abs() < 1e-12);
        assert!((s.messages_per_event() - 10.0).abs() < 1e-12);
        let shown = s.to_string();
        assert!(shown.contains("events=2"));
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = RoutingStats::new();
        assert_eq!(s.false_positive_rate(), 0.0);
        assert_eq!(s.false_negative_rate(), 0.0);
        assert_eq!(s.messages_per_event(), 0.0);
    }

    #[test]
    fn ingress_accounting_sums_counts_and_replaces_quantiles() {
        let mut s = RoutingStats::new();
        assert!(!s.to_string().contains("ingress:"), "hidden until used");
        s.absorb_ingress(100, 90, 10, 1_000, 5_000, 9_000, 12_000);
        s.absorb_ingress(50, 50, 0, 2_000, 4_000, 8_000, 9_000);
        assert_eq!(s.ingress_submitted(), 150);
        assert_eq!(s.ingress_committed(), 140);
        assert_eq!(s.ingress_rejected(), 10);
        assert_eq!(s.ingress_p50_ns(), 2_000, "quantiles are point-in-time");
        assert_eq!(s.ingress_p99_ns(), 4_000);
        assert_eq!(s.ingress_p999_ns(), 8_000);
        assert_eq!(s.ingress_max_ns(), 12_000, "max folds with max");
        assert!(s.to_string().contains("ingress: submitted=150"));
    }

    #[test]
    fn pause_accounting_tracks_totals_and_maxima() {
        let mut s = RoutingStats::new();
        s.absorb_oracle_pause(100, 5_000);
        s.absorb_oracle_pause(40, 9_000);
        s.absorb_oracle_pause(250, 0);
        assert_eq!(s.oracle_swap_ns_total(), 390);
        assert_eq!(s.oracle_swap_ns_max(), 250);
        assert_eq!(s.oracle_compact_ns_total(), 14_000);
        assert_eq!(s.oracle_compact_ns_max(), 9_000);
        assert!(s.to_string().contains("pause:"));
    }
}
