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

/// The group label of an id a partition does not list: such an id is
/// cut from nobody by that partition.
const UNLISTED: u32 = u32::MAX;

/// One installed partition, stored at the cost of its members: a group
/// label per process, never the set of links it cuts.
#[derive(Debug, Clone)]
struct Partition {
    /// `group[raw id]`: the index of the group that lists the id, or
    /// [`UNLISTED`]. Ids past the end are unlisted too, so processes
    /// added later stay uncut.
    group: Vec<u32>,
    /// How many directed links it separates: Σ |g|·(listed − |g|) over
    /// its groups `g`.
    separated: u64,
}

impl Partition {
    /// Labels the members of each of `groups`, which must be disjoint;
    /// `None` when fewer than two of them are non-empty, since such a
    /// call separates nobody. Linear in the largest listed raw id.
    fn new(groups: &[Vec<ProcessId>]) -> Option<Self> {
        let len = groups.iter().flatten().map(|id| id.raw() as usize).max()? + 1;
        let mut group = vec![UNLISTED; len];
        for (label, members) in groups.iter().enumerate() {
            let label = u32::try_from(label).expect("fewer than u32::MAX groups");
            for &id in members {
                let slot = &mut group[id.raw() as usize];
                debug_assert!(
                    *slot == UNLISTED || *slot == label,
                    "{id} listed in two partition groups"
                );
                *slot = label;
            }
        }
        let mut sizes = vec![0u64; groups.len()];
        for &label in group.iter().filter(|&&label| label != UNLISTED) {
            sizes[label as usize] += 1;
        }
        let listed: u64 = sizes.iter().sum();
        let separated = sizes.iter().map(|&size| size * (listed - size)).sum();
        (separated > 0).then_some(Self { group, separated })
    }

    /// `true` when this partition puts `from` and `to` in different
    /// groups: two array loads.
    #[inline]
    fn separates(&self, from: ProcessId, to: ProcessId) -> bool {
        let label = |id: ProcessId| {
            self.group
                .get(id.raw() as usize)
                .copied()
                .unwrap_or(UNLISTED)
        };
        let (a, b) = (label(from), label(to));
        a != b && a != UNLISTED && b != UNLISTED
    }
}

/// What a directed link is to a message about to cross it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Link {
    /// Neither blocked nor cut.
    Up,
    /// Down by [`Network::block_link`], whether or not a partition also
    /// cuts it.
    Blocked,
    /// Down by a partition alone: a drop here is a partition drop.
    Cut,
}

/// The state of the links: down by hand, down by partition, and the
/// knobs on those that are up.
///
/// A partition costs its members, not the links it cuts: installing
/// one labels each listed process with its group (O(N)), [`Network::heal`]
/// clears two collections (O(1)), and while one stands a send costs two
/// array loads per partition. Only the cuts that [`Network::unblock_link`]
/// lifted are held link by link.
#[derive(Debug, Clone, Default)]
pub(crate) struct Links {
    /// Manually blocked directed links ([`Network::block_link`]).
    blocked: BTreeSet<(ProcessId, ProcessId)>,
    /// Installed partitions, oldest first: a link is cut while one of
    /// them separates its ends, unless it is in `repaired`. Kept apart
    /// from `blocked` so [`Network::heal`] removes exactly the
    /// partitions' cuts, and empty whenever no link is cut.
    partitions: Vec<Partition>,
    /// Cut links lifted by [`Network::unblock_link`]; a later partition
    /// that separates one cuts it again.
    repaired: BTreeSet<(ProcessId, ProcessId)>,
    /// Active message fault knobs ([`Network::set_faults`]).
    faults: FaultProfile,
}

impl Links {
    /// `true` when no link is down and no knob is on: the only plane on
    /// which the round engine lets a process sleep, since a process
    /// that is not called draws nothing from the RNG.
    pub(crate) fn is_quiet(&self) -> bool {
        self.blocked.is_empty() && self.partitions.is_empty() && self.faults.is_quiet()
    }

    /// The state of `from → to`. A manual block wins over a partition
    /// cut; while no partition stands the cut test is one length check.
    #[inline]
    fn link(&self, from: ProcessId, to: ProcessId) -> Link {
        if self.blocked.contains(&(from, to)) {
            Link::Blocked
        } else if self.is_cut(from, to) {
            Link::Cut
        } else {
            Link::Up
        }
    }

    #[inline]
    fn is_cut(&self, from: ProcessId, to: ProcessId) -> bool {
        self.partitions.iter().any(|p| p.separates(from, to))
            && !self.repaired.contains(&(from, to))
    }

    // `#[inline]` on the controls keeps them in their callers' codegen
    // units: compiled once in this crate instead, they changed how the
    // protocol handlers were inlined and slowed the publish path ≈ 10 %.
    #[inline]
    fn block(&mut self, from: ProcessId, to: ProcessId) {
        self.blocked.insert((from, to));
    }

    /// Lifts the manual block and the partition cut on `from → to`.
    /// Lifting the last cut drops the partitions, so `partitions` stays
    /// empty whenever no link is cut and [`Links::is_quiet`] stays exact.
    #[inline]
    fn unblock(&mut self, from: ProcessId, to: ProcessId) {
        self.blocked.remove(&(from, to));
        if self.is_cut(from, to) {
            self.repaired.insert((from, to));
            if !self.cuts_remain() {
                self.heal();
            }
        }
    }

    /// Whether some link is still cut. A partition separates
    /// `separated` distinct links, so one of them is still cut unless
    /// `repaired` holds that many of them. O(partitions × repaired).
    fn cuts_remain(&self) -> bool {
        self.partitions.iter().any(|p| {
            let lifted = self
                .repaired
                .iter()
                .filter(|&&(from, to)| p.separates(from, to))
                .count();
            (lifted as u64) < p.separated
        })
    }

    #[inline]
    fn partition(&mut self, groups: &[Vec<ProcessId>]) {
        if let Some(p) = Partition::new(groups) {
            self.repaired.retain(|&(from, to)| !p.separates(from, to));
            self.partitions.push(p);
        }
    }

    #[inline]
    fn heal(&mut self) {
        self.partitions.clear();
        self.repaired.clear();
    }

    #[inline]
    fn unblock_all(&mut self) {
        self.blocked.clear();
        self.heal();
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
        let link = links.link(from, to);
        if link != Link::Up || roll(rng, links.faults.drop_probability) {
            if link == Link::Cut {
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
        self.world.links.block(from, to);
    }

    /// Unblocks the directed link `from → to` — the single-link inverse
    /// of [`Network::block_link`]. Also removes any partition cut on
    /// that link, so a manual repair overrides an installed partition
    /// until a later [`Network::partition`] separates its ends again.
    pub fn unblock_link(&mut self, from: ProcessId, to: ProcessId) {
        self.wake_all();
        self.world.links.unblock(from, to);
    }

    /// Removes all link blocks, manual and partition-installed.
    pub fn unblock_all(&mut self) {
        self.wake_all();
        self.world.links.unblock_all();
    }

    /// Installs a network partition: every link between processes of
    /// different `groups` is cut in both directions. Messages crossing
    /// a cut are dropped (counted as [`crate::Metrics::partitioned_drops`])
    /// and settle their tags at drop time. Successive calls accumulate,
    /// so overlapping partitions compose; [`Network::heal`] removes
    /// every partition cut while manual [`Network::block_link`] blocks
    /// survive. Ids no group lists, processes added later among them,
    /// stay uncut, and a call with fewer than two non-empty groups cuts
    /// nothing.
    ///
    /// The groups must be disjoint: no process may be listed in two of
    /// them (checked in debug builds). The partition is stored as one
    /// group label per process, so installing it costs O(N) in the
    /// largest listed raw id and a send crossing it two array loads,
    /// whatever the number of links it cuts.
    pub fn partition(&mut self, groups: &[Vec<ProcessId>]) {
        self.wake_all();
        self.world.links.partition(groups);
    }

    /// Heals every partition cut by dropping the partitions' labels.
    /// Manual link blocks survive, even on links that were also
    /// partition-cut.
    pub fn heal(&mut self) {
        self.wake_all();
        self.world.links.heal();
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::strategy::Just;

    /// The fault plane as it was stored before group labels: every cut
    /// directed link in a set. The reference the labels are pinned to.
    #[derive(Default)]
    struct PairPlane {
        blocked: BTreeSet<(ProcessId, ProcessId)>,
        cuts: BTreeSet<(ProcessId, ProcessId)>,
    }

    impl PairPlane {
        fn partition(&mut self, groups: &[Vec<ProcessId>]) {
            for (i, a) in groups.iter().enumerate() {
                for b in groups.iter().skip(i + 1) {
                    for &x in a {
                        for &y in b {
                            self.cuts.insert((x, y));
                            self.cuts.insert((y, x));
                        }
                    }
                }
            }
        }

        fn link(&self, from: ProcessId, to: ProcessId) -> Link {
            if self.blocked.contains(&(from, to)) {
                Link::Blocked
            } else if self.cuts.contains(&(from, to)) {
                Link::Cut
            } else {
                Link::Up
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// `(labels, count)`: id `i` joins group `labels[i]` when that
        /// is below `count`; the other groups stay empty.
        Partition(Vec<Option<usize>>, usize),
        Heal,
        Block(u64, u64),
        Unblock(u64, u64),
        /// `unblock_link` on every link, one at a time: lifts the last
        /// cut by hand.
        UnblockEach,
        UnblockAll,
    }

    const IDS: u64 = 12;

    fn arb_op() -> impl Strategy<Value = Op> {
        let id = || 0..IDS;
        let labels = prop::collection::vec(
            prop::sample::select(vec![None, Some(0), Some(1), Some(2)]),
            IDS as usize,
        );
        prop_oneof![
            4 => (labels, 0usize..4).prop_map(|(labels, count)| Op::Partition(labels, count)),
            1 => Just(Op::Heal),
            2 => (id(), id()).prop_map(|(a, b)| Op::Block(a, b)),
            4 => (id(), id()).prop_map(|(a, b)| Op::Unblock(a, b)),
            1 => Just(Op::UnblockEach),
            1 => Just(Op::UnblockAll),
        ]
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "listed in two partition groups")]
    fn a_process_in_two_groups_is_refused() {
        let [a, b] = [0, 1].map(ProcessId::from_raw);
        Links::default().partition(&[vec![a], vec![a, b]]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Group labels cut, lift, heal and count exactly the links the
        /// pair set did, and leave the plane quiet exactly when it did,
        /// after every op of a random script over `n ≤ 12` ids (and one
        /// id past them that no call lists).
        #[test]
        fn labels_match_the_pair_set(
            n in 1..=IDS,
            ops in prop::collection::vec(arb_op(), 1..40),
        ) {
            let id = |raw: u64| ProcessId::from_raw(raw % n);
            let mut links = Links::default();
            let mut reference = PairPlane::default();
            for op in &ops {
                match op {
                    Op::Partition(labels, count) => {
                        let mut groups = vec![Vec::new(); *count];
                        for (raw, label) in labels.iter().take(n as usize).enumerate() {
                            if let Some(group) = label.and_then(|g| groups.get_mut(g)) {
                                group.push(ProcessId::from_raw(raw as u64));
                            }
                        }
                        links.partition(&groups);
                        reference.partition(&groups);
                    }
                    Op::Heal => {
                        links.heal();
                        reference.cuts.clear();
                    }
                    &Op::Block(a, b) => {
                        links.block(id(a), id(b));
                        reference.blocked.insert((id(a), id(b)));
                    }
                    &Op::Unblock(a, b) => {
                        links.unblock(id(a), id(b));
                        reference.blocked.remove(&(id(a), id(b)));
                        reference.cuts.remove(&(id(a), id(b)));
                    }
                    Op::UnblockEach => {
                        for from in (0..n).map(ProcessId::from_raw) {
                            for to in (0..n).map(ProcessId::from_raw) {
                                links.unblock(from, to);
                            }
                        }
                        reference = PairPlane::default();
                    }
                    Op::UnblockAll => {
                        links.unblock_all();
                        reference.blocked.clear();
                        reference.cuts.clear();
                    }
                }
                for from in (0..=n).map(ProcessId::from_raw) {
                    for to in (0..=n).map(ProcessId::from_raw) {
                        prop_assert_eq!(
                            links.link(from, to),
                            reference.link(from, to),
                            "{} -> {} after {:?}",
                            from,
                            to,
                            op
                        );
                    }
                }
                prop_assert_eq!(
                    links.is_quiet(),
                    reference.blocked.is_empty() && reference.cuts.is_empty(),
                    "after {:?}",
                    op
                );
            }
        }
    }
}
