//! The one fault plane under both engines: which links are down, which
//! message fault knobs are on, and what that makes of each message a
//! process sends.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::Rng;

use crate::network::{Network, Schedule, World};
use crate::{MessageLabel, MsgTag, Process, ProcessId};

/// Per-message fault knobs shared by both engines.
///
/// Every probability is an independent Bernoulli draw per *process*
/// send (external harness injections are never faulted). All knobs
/// default to zero — a default profile is a perfect network. The
/// profile can be swapped at runtime ([`Network::set_faults`]), which
/// is how scripted fault *windows* open and close.
///
/// Tag accounting stays exact on every fault path:
///
/// * a **dropped** message settles its tag at drop time;
/// * a **duplicated** message's extra copy is tracked in flight as an
///   *unbilled* tagged send, so both copies settle individually without
///   double-billing the operation;
/// * a **reordered** message merely arrives later — it stays in flight
///   until its deferred delivery, never leaking the count.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultProfile {
    /// Probability that a message is silently lost.
    pub drop_probability: f64,
    /// Probability that a message is delivered twice (the copy takes an
    /// independently sampled latency / extra round).
    pub duplicate_probability: f64,
    /// Probability that a message is delayed by extra latency, letting
    /// later traffic overtake it.
    pub reorder_probability: f64,
    /// Maximum extra delay of a reordered message, in time units
    /// (event engine) or rounds (round engine); the actual delay is
    /// uniform in `1..=reorder_extra` (minimum 1).
    pub reorder_extra: u64,
}

impl FaultProfile {
    /// A profile that only loses messages with probability `p`.
    pub fn lossy(p: f64) -> Self {
        Self {
            drop_probability: p,
            ..Self::default()
        }
    }

    /// A profile that only duplicates messages with probability `p`.
    pub fn duplicating(p: f64) -> Self {
        Self {
            duplicate_probability: p,
            ..Self::default()
        }
    }

    /// A profile that only reorders messages: with probability `p` a
    /// message is delayed by up to `extra` units.
    pub fn reordering(p: f64, extra: u64) -> Self {
        Self {
            reorder_probability: p,
            reorder_extra: extra,
            ..Self::default()
        }
    }

    /// `true` when no knob is active (the default perfect network).
    pub fn is_quiet(&self) -> bool {
        self.drop_probability <= 0.0
            && self.duplicate_probability <= 0.0
            && self.reorder_probability <= 0.0
    }
}

/// The state of the links: down by hand, down by partition, and the
/// knobs on those that are up.
#[derive(Debug, Clone, Default)]
pub(crate) struct Links {
    /// Manually blocked directed links ([`Network::block_link`]).
    blocked: BTreeSet<(ProcessId, ProcessId)>,
    /// Links cut by [`Network::partition`]; kept apart from `blocked`
    /// so [`Network::heal`] removes exactly the partition's cuts.
    partition_links: BTreeSet<(ProcessId, ProcessId)>,
    /// Active message fault knobs ([`Network::set_faults`]).
    faults: FaultProfile,
}

impl Links {
    /// `true` when no link is down and no knob is on: the only plane on
    /// which the round engine lets a process sleep, since a process
    /// that is not called draws nothing from the RNG.
    pub(crate) fn is_quiet(&self) -> bool {
        self.blocked.is_empty() && self.partition_links.is_empty() && self.faults.is_quiet()
    }
}

/// One fault-knob Bernoulli draw; never touches the RNG for an inactive
/// knob, so enabling a knob is the only thing that changes a seeded
/// trace. Not generic, so told to inline across crates: a quiet
/// network pays three compares per message, not three calls.
#[inline]
fn roll(rng: &mut StdRng, p: f64) -> bool {
    p > 0.0 && rng.gen_bool(p.min(1.0))
}

impl<P: Process> World<P> {
    /// Decides the fate of one process send, once, for both engines:
    /// bills it, then `None` if the link is down or the loss knob took
    /// it (counted and settled here), else `Some(duplicate)`. The
    /// duplicate is an extra in-flight copy — tracked as an unbilled
    /// tagged send, so both copies settle individually without
    /// double-billing the operation. Draws loss, then duplication;
    /// what the engine draws to place the copies comes after.
    pub(crate) fn admit(&mut self, from: ProcessId, to: ProcessId, msg: &P::Msg) -> Option<bool> {
        let Self {
            links,
            rng,
            metrics,
            ..
        } = self;
        metrics.record_send(msg);
        let blocked = links.blocked.contains(&(from, to));
        let cut = links.partition_links.contains(&(from, to));
        if blocked || cut || roll(rng, links.faults.drop_probability) {
            if cut && !blocked {
                metrics.record_partition_drop();
            }
            metrics.record_dropped();
            metrics.settle(msg);
            return None;
        }
        let duplicate = roll(rng, links.faults.duplicate_probability);
        if duplicate {
            metrics.record_duplicated();
            if let Some(tag) = msg.tag() {
                metrics.record_tag_sent(MsgTag::unbilled(tag.id));
            }
        }
        Some(duplicate)
    }

    /// The reorder knob's draw for one copy about to be placed: how
    /// much later than its own schedule it arrives (0: on time). The
    /// copy stays in flight the whole while.
    #[inline]
    pub(crate) fn reorder_delay(&mut self) -> u64 {
        let faults = self.links.faults;
        if !roll(&mut self.rng, faults.reorder_probability) {
            return 0;
        }
        self.metrics.record_reordered();
        self.rng.gen_range(1..=faults.reorder_extra.max(1))
    }
}

/// The link and fault controls, the same on either engine. Each is a
/// fault-plane change, so each first wakes every process
/// ([`Network::wake_all`]); while any link is down or any knob is on,
/// none goes back to sleep.
impl<P: Process, Q: Schedule<P> + ?Sized> Network<P, Q> {
    /// Blocks the directed link `from → to`: messages crossing it are
    /// dropped (settling their tags) until [`Network::unblock_link`] or
    /// [`Network::unblock_all`].
    pub fn block_link(&mut self, from: ProcessId, to: ProcessId) {
        self.wake_all();
        self.world.links.blocked.insert((from, to));
    }

    /// Unblocks the directed link `from → to` — the single-link inverse
    /// of [`Network::block_link`]. Also removes any partition cut on
    /// that link, so a manual repair overrides an installed partition.
    pub fn unblock_link(&mut self, from: ProcessId, to: ProcessId) {
        self.wake_all();
        self.world.links.blocked.remove(&(from, to));
        self.world.links.partition_links.remove(&(from, to));
    }

    /// Removes all link blocks, manual and partition-installed.
    pub fn unblock_all(&mut self) {
        self.wake_all();
        self.world.links.blocked.clear();
        self.world.links.partition_links.clear();
    }

    /// Installs a network partition: every link between processes of
    /// different `groups` is cut in both directions. Messages crossing
    /// a cut are dropped (counted as [`crate::Metrics::partitioned_drops`])
    /// and settle their tags at drop time. Successive calls accumulate,
    /// so overlapping partitions compose; [`Network::heal`] removes
    /// every partition cut while manual [`Network::block_link`] blocks
    /// survive.
    pub fn partition(&mut self, groups: &[Vec<ProcessId>]) {
        self.wake_all();
        let cuts = &mut self.world.links.partition_links;
        for (i, a) in groups.iter().enumerate() {
            for b in groups.iter().skip(i + 1) {
                for &x in a {
                    for &y in b {
                        cuts.insert((x, y));
                        cuts.insert((y, x));
                    }
                }
            }
        }
    }

    /// Heals every partition cut. Manual link blocks survive, even on
    /// links that were also partition-cut.
    pub fn heal(&mut self) {
        self.wake_all();
        self.world.links.partition_links.clear();
    }

    /// Replaces the message fault profile at runtime — how scripted
    /// fault windows (loss bursts, duplication/reorder windows) open
    /// and close mid-run.
    pub fn set_faults(&mut self, faults: FaultProfile) {
        self.wake_all();
        self.world.links.faults = faults;
    }

    /// The active message fault profile.
    pub fn faults(&self) -> &FaultProfile {
        &self.world.links.faults
    }
}
