use std::collections::BTreeMap;
use std::fmt;

use crate::process::{MessageLabel, MsgTag, ProcessId};

/// Message-level counters collected by both engines.
///
/// Used by the experiments to report the paper's message-cost figures
/// (e.g. "necessitating only 2 messages" for the §3 dissemination
/// example) and to compare overlays.
///
/// Besides the label aggregates, tagged messages (see
/// [`MsgTag`](crate::MsgTag)) are accounted per tag: `tag_count` is the
/// tag's billed message total and `tag_inflight` the number of its
/// messages currently in the network — the quiescence signal the
/// pipelined publish harness polls instead of draining everything.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    sent: u64,
    delivered: u64,
    dropped: u64,
    to_dead: u64,
    duplicated: u64,
    reordered: u64,
    partitioned_drops: u64,
    /// Sent counts per label, first-seen order: a protocol has a handful
    /// of labels, and a scan by address beats a map keyed by string.
    per_label: Vec<(&'static str, u64)>,
    /// Billed sends per tag (the per-operation message bill).
    tag_sent: BTreeMap<u64, u64>,
    /// Tagged messages currently in the network, per tag.
    tag_inflight: BTreeMap<u64, u64>,
    /// Tags below this are retired (see [`Metrics::retire_tags_below`]):
    /// their counters are purged and late traffic is not re-tracked.
    tag_floor: u64,
    /// `(tag, process)` marks made through [`crate::Context::mark`] and
    /// not yet drained by the harness, in callback order.
    marks: Vec<(u64, ProcessId)>,
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total messages handed to the network.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Messages delivered to a live process.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Messages lost to simulated link loss or blocked links.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Messages addressed to a crashed/departed process.
    pub fn to_dead(&self) -> u64 {
        self.to_dead
    }

    /// Extra copies injected by the duplication fault knob. Each copy is
    /// tracked in flight (and settles) individually, but is never billed
    /// to its tag.
    pub fn duplicated(&self) -> u64 {
        self.duplicated
    }

    /// Messages delayed by the reordering fault knob. A reordered
    /// message stays in flight until its deferred delivery, so per-tag
    /// quiescence still waits for it.
    pub fn reordered(&self) -> u64 {
        self.reordered
    }

    /// Messages lost to a partition cut specifically (a subset of
    /// [`Metrics::dropped`]).
    pub fn partitioned_drops(&self) -> u64 {
        self.partitioned_drops
    }

    /// Sent-message counts per message label, sorted by label.
    pub fn per_label(&self) -> BTreeMap<&'static str, u64> {
        self.per_label.iter().copied().collect()
    }

    /// Count for one label (0 if never seen).
    pub fn label_count(&self, label: &str) -> u64 {
        let hit = self.per_label.iter().find(|(l, _)| *l == label);
        hit.map_or(0, |&(_, n)| n)
    }

    /// Billed messages charged to `tag` so far (0 for unknown tags).
    pub fn tag_count(&self, tag: u64) -> u64 {
        self.tag_sent.get(&tag).copied().unwrap_or(0)
    }

    /// Messages of `tag` currently in flight (0 = the tagged operation
    /// is quiescent).
    pub fn tag_inflight(&self, tag: u64) -> u64 {
        self.tag_inflight.get(&tag).copied().unwrap_or(0)
    }

    /// The `(tag, process)` marks processes made through
    /// [`crate::Context::mark`] since the harness last drained them
    /// (`drain_marks` on either engine), in callback order.
    pub fn marks(&self) -> &[(u64, ProcessId)] {
        &self.marks
    }

    /// Forgets a tag's counters once its report is finalized, so maps
    /// do not grow with the event history.
    pub fn clear_tag(&mut self, tag: u64) {
        self.tag_sent.remove(&tag);
        self.tag_inflight.remove(&tag);
    }

    /// Retires every tag below `floor` (tags are allocated
    /// monotonically): their counters are purged *and* their late
    /// traffic is ignored by future tagged sends. Without the floor,
    /// an operation finalized while its messages still circulate (a
    /// corrupted overlay outliving the pipeline's deadline guard)
    /// would keep re-creating counter entries that nobody clears.
    pub fn retire_tags_below(&mut self, floor: u64) {
        if floor <= self.tag_floor {
            return;
        }
        self.tag_floor = floor;
        self.tag_sent = self.tag_sent.split_off(&floor);
        self.tag_inflight = self.tag_inflight.split_off(&floor);
    }

    /// Resets all counters; used between experiment phases to isolate
    /// the cost of one operation. Also forgets tag counters — callers
    /// must not reset while tagged operations are still in flight.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Logs the tags `process` marked in one callback, emptying `tags`
    /// (almost always empty already: this runs after every callback).
    #[inline]
    pub(crate) fn record_marks(&mut self, process: ProcessId, tags: &mut Vec<u64>) {
        if !tags.is_empty() {
            self.marks.extend(tags.drain(..).map(|tag| (tag, process)));
        }
    }

    pub(crate) fn drain_marks(&mut self) -> std::vec::Drain<'_, (u64, ProcessId)> {
        self.marks.drain(..)
    }

    /// `msg` was handed to the network: counted under its label and,
    /// if tagged, billed to and in flight for its tag.
    pub(crate) fn record_send<M: MessageLabel>(&mut self, msg: &M) {
        self.record_sent(msg.label());
        if let Some(tag) = msg.tag() {
            self.record_tag_sent(tag);
        }
    }

    /// `msg` left the network, delivered or discarded.
    pub(crate) fn settle<M: MessageLabel>(&mut self, msg: &M) {
        if let Some(tag) = msg.tag() {
            self.record_tag_settled(tag);
        }
    }

    /// `msg` found nobody at its address — a crashed process, or an id
    /// that was never allocated.
    pub(crate) fn record_to_dead<M: MessageLabel>(&mut self, msg: &M) {
        self.settle(msg);
        self.to_dead += 1;
    }

    pub(crate) fn record_sent(&mut self, label: &'static str) {
        self.record_sent_n(label, 1);
    }

    /// `n` sends under `label` at once: a round's standing messages of
    /// the sleeping processes, billed without running them.
    pub(crate) fn record_sent_n(&mut self, label: &'static str, n: u64) {
        self.sent += n;
        // Same address, else same text: equal strings stay one counter.
        let same = |l: &str| std::ptr::eq(l, label) || l == label;
        match self.per_label.iter_mut().find(|(l, _)| same(l)) {
            Some((_, count)) => *count += n,
            None => self.per_label.push((label, n)),
        }
    }

    pub(crate) fn record_tag_sent(&mut self, tag: MsgTag) {
        if tag.id < self.tag_floor {
            return;
        }
        if tag.billed {
            *self.tag_sent.entry(tag.id).or_insert(0) += 1;
        }
        *self.tag_inflight.entry(tag.id).or_insert(0) += 1;
    }

    /// One tagged message left the network (delivered, dropped, lost,
    /// or discarded with a dead process). Saturates so a tag cleared
    /// mid-flight cannot underflow.
    pub(crate) fn record_tag_settled(&mut self, tag: MsgTag) {
        if let Some(n) = self.tag_inflight.get_mut(&tag.id) {
            *n -= 1;
            if *n == 0 {
                self.tag_inflight.remove(&tag.id);
            }
        }
    }

    pub(crate) fn record_delivered(&mut self) {
        self.record_delivered_n(1);
    }

    pub(crate) fn record_delivered_n(&mut self, n: u64) {
        self.delivered += n;
    }

    /// `n` untagged messages found nobody at their address.
    pub(crate) fn record_to_dead_n(&mut self, n: u64) {
        self.to_dead += n;
    }

    pub(crate) fn record_dropped(&mut self) {
        self.dropped += 1;
    }

    pub(crate) fn record_duplicated(&mut self) {
        self.duplicated += 1;
    }

    pub(crate) fn record_reordered(&mut self) {
        self.reordered += 1;
    }

    /// A partition cut lost this message. Callers also record the drop
    /// itself: `partitioned_drops` is a sub-count of `dropped`.
    pub(crate) fn record_partition_drop(&mut self) {
        self.partitioned_drops += 1;
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent={} delivered={} dropped={} to_dead={} duplicated={} reordered={} partitioned_drops={}",
            self.sent,
            self.delivered,
            self.dropped,
            self.to_dead,
            self.duplicated,
            self.reordered,
            self.partitioned_drops
        )?;
        for (label, count) in self.per_label() {
            write!(f, " {label}={count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.record_sent("join");
        m.record_sent("join");
        m.record_sent("leave");
        m.record_delivered();
        m.record_dropped();
        m.record_to_dead(&());
        assert_eq!(m.sent(), 3);
        assert_eq!(m.delivered(), 1);
        assert_eq!(m.dropped(), 1);
        assert_eq!(m.to_dead(), 1);
        assert_eq!(m.label_count("join"), 2);
        assert_eq!(m.label_count("leave"), 1);
        assert_eq!(m.label_count("nope"), 0);
        // The same label at another address is still the same counter.
        m.record_sent(String::from("leave").leak());
        assert_eq!(m.label_count("leave"), 2);
        assert_eq!(
            m.per_label().into_iter().collect::<Vec<_>>(),
            [("join", 2), ("leave", 2)]
        );
        assert_eq!(m.sent(), 4);
        let shown = m.to_string();
        assert!(shown.contains("join=2 leave=2"), "sorted by label: {shown}");
        m.reset();
        assert_eq!(m.sent(), 0);
    }

    #[test]
    fn fault_counters_accumulate_and_display() {
        let mut m = Metrics::new();
        m.record_duplicated();
        m.record_duplicated();
        m.record_reordered();
        m.record_dropped();
        m.record_partition_drop();
        assert_eq!(m.duplicated(), 2);
        assert_eq!(m.reordered(), 1);
        assert_eq!(m.partitioned_drops(), 1);
        assert_eq!(m.dropped(), 1, "partition drops are also plain drops");
        let shown = m.to_string();
        assert!(shown.contains("duplicated=2"));
        assert!(shown.contains("reordered=1"));
        assert!(shown.contains("partitioned_drops=1"));
        m.reset();
        assert_eq!(m.duplicated(), 0);
        assert_eq!(m.reordered(), 0);
        assert_eq!(m.partitioned_drops(), 0);
    }

    #[test]
    fn tag_counters_bill_and_settle_independently() {
        let mut m = Metrics::new();
        m.record_tag_sent(MsgTag::billed(7));
        m.record_tag_sent(MsgTag::billed(7));
        m.record_tag_sent(MsgTag::unbilled(7));
        m.record_tag_sent(MsgTag::billed(9));
        assert_eq!(m.tag_count(7), 2, "unbilled sends are not charged");
        assert_eq!(m.tag_inflight(7), 3, "unbilled sends are tracked");
        assert_eq!(m.tag_count(9), 1);
        for _ in 0..3 {
            m.record_tag_settled(MsgTag::billed(7));
        }
        assert_eq!(m.tag_inflight(7), 0);
        assert_eq!(m.tag_inflight(9), 1, "other tags unaffected");
        assert_eq!(m.tag_count(7), 2, "the bill survives settlement");
        m.clear_tag(7);
        assert_eq!(m.tag_count(7), 0);
        // Settling a cleared/unknown tag must not underflow or panic.
        m.record_tag_settled(MsgTag::billed(7));
        assert_eq!(m.tag_inflight(7), 0);
    }

    #[test]
    fn retired_tags_are_purged_and_ignore_late_traffic() {
        let mut m = Metrics::new();
        m.record_tag_sent(MsgTag::billed(3));
        m.record_tag_sent(MsgTag::billed(10));
        m.retire_tags_below(10);
        assert_eq!(m.tag_count(3), 0, "retired counters purged");
        assert_eq!(m.tag_inflight(3), 0);
        assert_eq!(m.tag_count(10), 1, "tags at the floor survive");
        // Late traffic of a retired tag re-creates nothing.
        m.record_tag_sent(MsgTag::billed(3));
        assert_eq!(m.tag_count(3), 0);
        assert_eq!(m.tag_inflight(3), 0);
        // The floor never moves backwards.
        m.retire_tags_below(5);
        assert_eq!(m.tag_count(10), 1);
    }
}
