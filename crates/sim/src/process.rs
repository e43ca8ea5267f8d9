use std::fmt;

use crate::Context;

/// Identifier of a simulated process.
///
/// Ids are assigned by the network engines in creation order and are
/// never reused, so a crashed process's id stays dangling — exactly the
/// situation the stabilization modules must cope with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(u64);

impl ProcessId {
    /// Creates an id from a raw value. Intended for tests and for
    /// adversarial corruption (forging references to nonexistent
    /// processes).
    pub fn from_raw(raw: u64) -> Self {
        ProcessId(raw)
    }

    /// The raw numeric value.
    pub fn raw(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A per-operation tag carried by a message, for exact per-operation
/// accounting while traffic of several operations interleaves in the
/// same inboxes (e.g. the pipelined publish path, where PubUp/PubDown
/// messages of consecutive events share dissemination rounds).
///
/// The engines use tags for two things:
///
/// * **In-flight tracking** — every tagged send increments the tag's
///   in-flight count; every settlement (delivery, drop, loss, crash
///   cleanup) decrements it. [`crate::Metrics::tag_inflight`] reaching
///   zero means the tagged operation has gone quiescent, *without*
///   draining the whole network.
/// * **Billing** — tagged sends with `billed == true` accumulate in
///   [`crate::Metrics::tag_count`], the per-operation message bill.
///   Harness plumbing (e.g. the external publish injection) sets
///   `billed: false`: it is tracked for quiescence but not charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgTag {
    /// The operation this message belongs to (e.g. an event id).
    pub id: u64,
    /// Whether this message counts toward the operation's message bill.
    pub billed: bool,
}

impl MsgTag {
    /// A billed tag (counts toward the operation's message bill).
    pub fn billed(id: u64) -> Self {
        Self { id, billed: true }
    }

    /// An unbilled tag (tracked for quiescence only).
    pub fn unbilled(id: u64) -> Self {
        Self { id, billed: false }
    }
}

/// Classifies messages for per-kind metrics.
///
/// Implementations return a small static set of labels (one per protocol
/// message type); [`crate::Metrics`] aggregates counts per label.
pub trait MessageLabel {
    /// A short static name for this message's kind.
    fn label(&self) -> &'static str;

    /// The per-operation tag of this message, if it belongs to a tagged
    /// operation (see [`MsgTag`]). Default: untagged.
    fn tag(&self) -> Option<MsgTag> {
        None
    }
}

impl MessageLabel for () {
    fn label(&self) -> &'static str {
        "unit"
    }
}

/// A simulated protocol participant.
///
/// Both engines ([`crate::EventNetwork`], [`crate::RoundNetwork`]) drive
/// implementations through these two callbacks. All interaction with the
/// outside world goes through the [`Context`]: sending messages, arming
/// timers, drawing deterministic randomness.
pub trait Process {
    /// Protocol message type.
    type Msg: Clone + MessageLabel;
    /// Timer token type (periodic or one-shot alarms).
    type Timer: Clone;

    /// Handles a message delivered from `from`.
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Timer>,
    );

    /// Handles an armed timer firing.
    fn on_timer(&mut self, timer: Self::Timer, ctx: &mut Context<'_, Self::Msg, Self::Timer>);

    /// Called once when the process is added to a network, with its
    /// assigned id. Default: no-op.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Timer>) {
        let _ = ctx;
    }

    /// The round engine's quiescence test: appends to `key` the
    /// process's whole state as of clock `now`, writing every clock that
    /// reads `now` as one fixed marker and every other clock as is.
    /// Returns `false` when some clock could still change what the
    /// process does as time passes on its own (a timeout not yet due, a
    /// cooldown not yet over): such a process must keep running.
    ///
    /// The engine compares the key written before a round (at `now - 1`)
    /// with the one written after it (at `now`). Equal keys mean the
    /// round only refreshed clocks; if the process's next inbox also
    /// equals this one, every later round would do the same, so the
    /// engine stops calling it (see [`crate::RoundSchedule`]) and moves
    /// its refreshed clocks with [`Process::catch_up`]. Default: never
    /// quiescent, so the process runs every round.
    fn quiescence_key(&self, now: u64, key: &mut Vec<u64>) -> bool {
        let _ = (now, key);
        false
    }

    /// Whether two messages are the same, for the quiescence test: a
    /// sleeping process is woken when a sender's message to it differs
    /// from last round's. Default: never the same.
    fn same_message(a: &Self::Msg, b: &Self::Msg) -> bool {
        let _ = (a, b);
        false
    }

    /// Moves every clock a steady round refreshes — exactly those that
    /// read `since`, the round the process went to sleep — to `now`, as
    /// the rounds it skipped would have. Default: no clocks.
    fn catch_up(&mut self, since: u64, now: u64) {
        let _ = (since, now);
    }
}

impl<M: Clone + MessageLabel> MessageLabel for Box<M> {
    fn label(&self) -> &'static str {
        (**self).label()
    }

    fn tag(&self) -> Option<MsgTag> {
        (**self).tag()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_roundtrip_and_order() {
        let a = ProcessId::from_raw(1);
        let b = ProcessId::from_raw(2);
        assert!(a < b);
        assert_eq!(a.raw(), 1);
        assert_eq!(a.to_string(), "p1");
    }

    #[test]
    fn unit_label() {
        assert_eq!(().label(), "unit");
    }
}
