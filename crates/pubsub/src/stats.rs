use std::fmt;

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
            "events={} deliveries={} fp={} ({:.2}%) fn={} ({:.2}%) msgs/event={:.1}",
            self.events,
            self.deliveries,
            self.false_positives,
            100.0 * self.false_positive_rate(),
            self.false_negatives,
            100.0 * self.false_negative_rate(),
            self.messages_per_event(),
        )
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
}
