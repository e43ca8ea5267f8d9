use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::context::Effects;
use crate::process::MessageLabel;
use crate::{Context, FaultProfile, Metrics, MsgTag, Process, ProcessId};

/// Synchronous round-based engine.
///
/// Each round, in process-id order, every live process first handles the
/// messages sent to it during the *previous* round, then any due one-shot
/// timers, then the periodic *tick* (if configured). The paper's
/// stabilization lemmas bound convergence in "steps"; a round here is the
/// usual synchronous-daemon step of the self-stabilization literature,
/// in which every periodic check module fires once.
///
/// Ids are assigned densely from 0, so processes and inboxes live in
/// flat `Vec`s indexed by raw id (a crashed process leaves a `None`
/// slot). Inbox buffers are double-buffered and the callbacks' effect
/// buffers are lent by the engine, all reused round over round:
/// steady-state rounds allocate nothing for message plumbing.
/// Messages addressed outside the allocated id range (the protocol
/// under corruption forges references to nonexistent processes) are
/// parked in a side map with the same one-round lifetime they had
/// before.
///
/// # Example
///
/// ```
/// use drtree_sim::{Context, Process, ProcessId, RoundNetwork};
///
/// /// Counts ticks.
/// struct Clock { ticks: u64 }
/// impl Process for Clock {
///     type Msg = ();
///     type Timer = ();
///     fn on_message(&mut self, _: ProcessId, _: (), _: &mut Context<'_, (), ()>) {}
///     fn on_timer(&mut self, _: (), _: &mut Context<'_, (), ()>) { self.ticks += 1; }
/// }
///
/// let mut net = RoundNetwork::with_tick(7, ());
/// let id = net.add_process(Clock { ticks: 0 });
/// net.run_rounds(5);
/// assert_eq!(net.process(id).unwrap().ticks, 5);
/// ```
#[derive(Clone)]
pub struct RoundNetwork<P: Process> {
    /// `procs[raw_id]`; `None` after a crash (ids are never reused).
    procs: Vec<Option<P>>,
    /// Live-process count (`procs` slots that are `Some`).
    live: usize,
    /// `inboxes[raw_id]`: messages accumulated for delivery next round.
    inboxes: Vec<Vec<(ProcessId, P::Msg)>>,
    /// Last round's buffers, drained this round and then reused as the
    /// next `inboxes` (capacity retained).
    scratch: Vec<Vec<(ProcessId, P::Msg)>>,
    /// Messages to ids outside the allocated range (forged references);
    /// dropped after one round exactly like map-backed inboxes were.
    overflow: BTreeMap<ProcessId, Vec<(ProcessId, P::Msg)>>,
    timers: BTreeMap<u64, Vec<(ProcessId, P::Timer)>>,
    tick: Option<P::Timer>,
    round: u64,
    rng: StdRng,
    metrics: Metrics,
    /// Manually blocked directed links ([`RoundNetwork::block_link`]).
    blocked: BTreeSet<(ProcessId, ProcessId)>,
    /// Links cut by [`RoundNetwork::partition`]; kept apart from
    /// `blocked` so [`RoundNetwork::heal`] removes exactly the
    /// partition's cuts.
    partition_links: BTreeSet<(ProcessId, ProcessId)>,
    /// Active message fault knobs ([`RoundNetwork::set_faults`]).
    faults: FaultProfile,
    /// Reordered messages parked until their (later) delivery round.
    delayed: BTreeMap<u64, Vec<(ProcessId, ProcessId, P::Msg)>>,
    /// The effect buffers lent to every callback's [`Context`]; empty
    /// between callbacks.
    effects: Effects<P::Msg, P::Timer>,
}

impl<P: Process> RoundNetwork<P> {
    /// Creates an engine with no periodic tick.
    pub fn new(seed: u64) -> Self {
        Self {
            procs: Vec::new(),
            live: 0,
            inboxes: Vec::new(),
            scratch: Vec::new(),
            overflow: BTreeMap::new(),
            timers: BTreeMap::new(),
            tick: None,
            round: 0,
            rng: StdRng::seed_from_u64(seed),
            metrics: Metrics::new(),
            blocked: BTreeSet::new(),
            partition_links: BTreeSet::new(),
            faults: FaultProfile::default(),
            delayed: BTreeMap::new(),
            effects: Effects::default(),
        }
    }

    /// Creates an engine that fires `tick` on every process each round —
    /// the synchronous daemon driving the periodic CHECK_* modules.
    pub fn with_tick(seed: u64, tick: P::Timer) -> Self {
        let mut net = Self::new(seed);
        net.tick = Some(tick);
        net
    }

    /// Adds a process, assigns a fresh id, and calls
    /// [`Process::on_start`].
    pub fn add_process(&mut self, mut process: P) -> ProcessId {
        let id = ProcessId::from_raw(self.procs.len() as u64);
        let mut ctx = Context::new(id, self.round, &mut self.rng, &mut self.effects);
        process.on_start(&mut ctx);
        self.procs.push(Some(process));
        self.live += 1;
        self.inboxes.push(Vec::new());
        self.scratch.push(Vec::new());
        // Messages sent to this id before it existed now have a home.
        if let Some(pending) = self.overflow.remove(&id) {
            self.inboxes[id.raw() as usize] = pending;
        }
        self.apply_effects(id);
        id
    }

    /// Replaces (or removes) the periodic tick. Used by experiments
    /// that must suspend stabilization for a window (Lemma 3.7's ∆).
    pub fn set_tick(&mut self, tick: Option<P::Timer>) {
        self.tick = tick;
    }

    /// Rounds completed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Ids of live processes, in id order.
    pub fn ids(&self) -> Vec<ProcessId> {
        self.procs
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().map(|_| ProcessId::from_raw(i as u64)))
            .collect()
    }

    /// Number of live processes.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no process is alive.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// `true` if `id` refers to a live process.
    pub fn is_alive(&self, id: ProcessId) -> bool {
        self.slot(id).is_some()
    }

    /// Shared view of a live process.
    pub fn process(&self, id: ProcessId) -> Option<&P> {
        self.slot(id)
    }

    /// Mutable access to a live process (harness bookkeeping).
    pub fn process_mut(&mut self, id: ProcessId) -> Option<&mut P> {
        self.procs
            .get_mut(id.raw() as usize)
            .and_then(Option::as_mut)
    }

    /// Iterates over `(id, process)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &P)> {
        self.procs
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().map(|p| (ProcessId::from_raw(i as u64), p)))
    }

    /// Mutable [`RoundNetwork::iter`] (harness bookkeeping over every
    /// live process without collecting [`RoundNetwork::ids`]).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (ProcessId, &mut P)> {
        self.procs
            .iter_mut()
            .enumerate()
            .filter_map(|(i, p)| p.as_mut().map(|p| (ProcessId::from_raw(i as u64), p)))
    }

    /// Message metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Resets metrics between experiment phases.
    pub fn reset_metrics(&mut self) {
        self.metrics.reset();
    }

    /// Deterministic randomness for harness decisions.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Crashes `id` (uncontrolled departure): the process and its queued
    /// messages vanish.
    pub fn crash(&mut self, id: ProcessId) -> Option<P> {
        let slot = self.procs.get_mut(id.raw() as usize)?;
        let departed = slot.take();
        if departed.is_some() {
            self.live -= 1;
            for (_, msg) in self.inboxes[id.raw() as usize].drain(..) {
                Self::settle_tag(&mut self.metrics, &msg);
            }
        }
        departed
    }

    /// Reinstalls a process at a previously crashed id slot — the
    /// rejoin half of the broker crash/rejoin fault pair. The caller
    /// supplies the restarted state (warm: restored from a checkpoint;
    /// cold: fresh and empty — the engine does not keep crashed
    /// state). [`Process::on_start`] runs again, messages queued for
    /// the id since the crash stay queued (the id was dangling, not
    /// retired), and the id keeps its place in [`RoundNetwork::ids`].
    /// Returns `false` if the slot is still alive or was never
    /// allocated.
    pub fn revive(&mut self, id: ProcessId, mut process: P) -> bool {
        match self.procs.get_mut(id.raw() as usize) {
            Some(slot @ None) => {
                let mut ctx = Context::new(id, self.round, &mut self.rng, &mut self.effects);
                process.on_start(&mut ctx);
                *slot = Some(process);
                self.live += 1;
                self.apply_effects(id);
                true
            }
            _ => false,
        }
    }

    /// Blocks the directed link `from → to`: messages crossing it are
    /// dropped (settling their tags) until
    /// [`RoundNetwork::unblock_link`] or [`RoundNetwork::unblock_all`].
    pub fn block_link(&mut self, from: ProcessId, to: ProcessId) {
        self.blocked.insert((from, to));
    }

    /// Unblocks the directed link `from → to` — the single-link inverse
    /// of [`RoundNetwork::block_link`]. Also removes any partition cut
    /// on that link.
    pub fn unblock_link(&mut self, from: ProcessId, to: ProcessId) {
        self.blocked.remove(&(from, to));
        self.partition_links.remove(&(from, to));
    }

    /// Removes all link blocks, manual and partition-installed.
    pub fn unblock_all(&mut self) {
        self.blocked.clear();
        self.partition_links.clear();
    }

    /// Installs a network partition: every link between processes of
    /// different `groups` is cut in both directions. Messages crossing
    /// a cut are dropped (counted as [`Metrics::partitioned_drops`])
    /// and settle their tags at drop time. Successive calls accumulate;
    /// [`RoundNetwork::heal`] removes every partition cut while manual
    /// [`RoundNetwork::block_link`] blocks survive.
    pub fn partition(&mut self, groups: &[Vec<ProcessId>]) {
        for (i, a) in groups.iter().enumerate() {
            for b in groups.iter().skip(i + 1) {
                for &x in a {
                    for &y in b {
                        self.partition_links.insert((x, y));
                        self.partition_links.insert((y, x));
                    }
                }
            }
        }
    }

    /// Heals every partition cut. Manual link blocks survive, even on
    /// links that were also partition-cut.
    pub fn heal(&mut self) {
        self.partition_links.clear();
    }

    /// Replaces the message fault profile ([`FaultProfile`]) at
    /// runtime — how scripted fault windows open and close between
    /// rounds.
    pub fn set_faults(&mut self, faults: FaultProfile) {
        self.faults = faults;
    }

    /// The active message fault profile.
    pub fn faults(&self) -> &FaultProfile {
        &self.faults
    }

    /// Applies an adversarial mutation to a live process's memory.
    pub fn corrupt(&mut self, id: ProcessId, mutate: impl FnOnce(&mut P, &mut StdRng)) -> bool {
        match self
            .procs
            .get_mut(id.raw() as usize)
            .and_then(Option::as_mut)
        {
            Some(p) => {
                mutate(p, &mut self.rng);
                true
            }
            None => false,
        }
    }

    /// Queues a message for delivery at the start of the next round.
    pub fn send_external(&mut self, to: ProcessId, msg: P::Msg) {
        self.metrics.record_sent(msg.label());
        if let Some(tag) = msg.tag() {
            self.metrics.record_tag_sent(tag);
        }
        self.enqueue(to, to, msg);
    }

    /// Hands the harness every mark made since the last drain (see
    /// [`Metrics::marks`]) and empties the log, capacity kept.
    pub fn drain_marks(&mut self) -> std::vec::Drain<'_, (u64, ProcessId)> {
        self.metrics.drain_marks()
    }

    /// Forgets a tag's message counters (see [`Metrics::clear_tag`]).
    pub fn clear_tag(&mut self, tag: u64) {
        self.metrics.clear_tag(tag);
    }

    /// Retires every tag below `floor` (see
    /// [`Metrics::retire_tags_below`]).
    pub fn retire_tags_below(&mut self, floor: u64) {
        self.metrics.retire_tags_below(floor);
    }

    /// Executes one synchronous round.
    pub fn run_round(&mut self) {
        self.round += 1;
        // The accumulating buffers become this round's deliveries; the
        // drained buffers from last round (already empty, capacity
        // intact) start accumulating the next round's messages.
        std::mem::swap(&mut self.inboxes, &mut self.scratch);
        // Forged-destination messages never find a process: drop them
        // with this round, as the map-backed engine did.
        for msgs in std::mem::take(&mut self.overflow).into_values() {
            for (_, msg) in msgs {
                Self::settle_tag(&mut self.metrics, &msg);
            }
        }
        // Reordered messages due this round join the delivery buffers;
        // later traffic already overtook them in earlier rounds. Ones
        // addressed outside the allocated range settle like overflow.
        if let Some(due) = self.delayed.remove(&self.round) {
            for (from, to, msg) in due {
                match self.scratch.get_mut(to.raw() as usize) {
                    Some(buf) => buf.push((from, msg)),
                    None => Self::settle_tag(&mut self.metrics, &msg),
                }
            }
        }
        let due_timers = self.timers.remove(&self.round).unwrap_or_default();
        // Callbacks cannot add or crash processes, so the live slots
        // are fixed for the round: walk them directly, in id order.
        for slot in 0..self.procs.len() {
            if self.procs[slot].is_none() {
                continue;
            }
            let id = ProcessId::from_raw(slot as u64);
            // Deliver last round's messages. The buffer is swapped out
            // locally so effects can enqueue into `self` while
            // delivery walks it; it returns cleared, capacity intact.
            if !self.scratch[slot].is_empty() {
                let mut deliveries = std::mem::take(&mut self.scratch[slot]);
                for (from, msg) in deliveries.drain(..) {
                    Self::settle_tag(&mut self.metrics, &msg);
                    self.metrics.record_delivered();
                    self.call(slot, |proc, ctx| proc.on_message(from, msg, ctx));
                }
                self.scratch[slot] = deliveries;
            }
            // One-shot timers due this round (in most rounds none are,
            // and the scan is over an empty list).
            for (_, timer) in due_timers.iter().filter(|(at, _)| *at == id) {
                self.call(slot, |proc, ctx| proc.on_timer(timer.clone(), ctx));
            }
            // Periodic tick (the synchronous daemon).
            if let Some(tick) = self.tick.clone() {
                self.call(slot, |proc, ctx| proc.on_timer(tick, ctx));
            }
        }
        // Anything still sitting in the delivery buffers was addressed
        // to a dead process; drop it but keep the buffer capacity.
        for buf in &mut self.scratch {
            for (_, msg) in buf.drain(..) {
                Self::settle_tag(&mut self.metrics, &msg);
            }
        }
    }

    /// Runs `n` rounds.
    pub fn run_rounds(&mut self, n: u64) {
        for _ in 0..n {
            self.run_round();
        }
    }

    /// Runs rounds until `predicate(self)` holds, up to `max_rounds`.
    /// Returns the number of rounds executed if the predicate held, or
    /// `None` on timeout.
    pub fn run_until(
        &mut self,
        max_rounds: u64,
        mut predicate: impl FnMut(&Self) -> bool,
    ) -> Option<u64> {
        for executed in 0..=max_rounds {
            if predicate(self) {
                return Some(executed);
            }
            if executed == max_rounds {
                break;
            }
            self.run_round();
        }
        None
    }

    fn slot(&self, id: ProcessId) -> Option<&P> {
        self.procs.get(id.raw() as usize).and_then(Option::as_ref)
    }

    /// Runs one callback of the live process in `slot` on the engine's
    /// effect buffers, then applies what it sent and armed.
    fn call(&mut self, slot: usize, f: impl FnOnce(&mut P, &mut Context<'_, P::Msg, P::Timer>)) {
        let id = ProcessId::from_raw(slot as u64);
        let proc = self.procs[slot].as_mut().expect("live slot");
        let mut ctx = Context::new(id, self.round, &mut self.rng, &mut self.effects);
        f(proc, &mut ctx);
        self.apply_effects(id);
    }

    /// A tagged message left the network (delivered or discarded).
    fn settle_tag(metrics: &mut Metrics, msg: &P::Msg) {
        if let Some(tag) = msg.tag() {
            metrics.record_tag_settled(tag);
        }
    }

    fn enqueue(&mut self, from: ProcessId, to: ProcessId, msg: P::Msg) {
        match self.inboxes.get_mut(to.raw() as usize) {
            Some(inbox) => inbox.push((from, msg)),
            None => self.overflow.entry(to).or_default().push((from, msg)),
        }
    }

    /// Routes a surviving message: normally into next round's inbox,
    /// or — under the reorder knob — parked for a later round while the
    /// tag stays in flight.
    fn route(&mut self, from: ProcessId, to: ProcessId, msg: P::Msg) {
        if self.roll(self.faults.reorder_probability) {
            self.metrics.record_reordered();
            let extra = self.rng.gen_range(1..=self.faults.reorder_extra.max(1));
            self.delayed
                .entry(self.round + 1 + extra)
                .or_default()
                .push((from, to, msg));
        } else {
            self.enqueue(from, to, msg);
        }
    }

    /// One fault-knob Bernoulli draw; never touches the RNG for an
    /// inactive knob, so enabling a knob is the only thing that changes
    /// a seeded trace.
    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.gen_bool(p.min(1.0))
    }

    /// Applies and empties the effect buffers `from`'s callback filled.
    fn apply_effects(&mut self, from: ProcessId) {
        self.metrics.record_marks(from, &mut self.effects.2);
        let mut outbox = std::mem::take(&mut self.effects.0);
        let mut timer_requests = std::mem::take(&mut self.effects.1);
        for (to, msg) in outbox.drain(..) {
            self.metrics.record_sent(msg.label());
            if let Some(tag) = msg.tag() {
                self.metrics.record_tag_sent(tag);
            }
            let blocked = self.blocked.contains(&(from, to));
            let cut = self.partition_links.contains(&(from, to));
            if blocked || cut || self.roll(self.faults.drop_probability) {
                if cut && !blocked {
                    self.metrics.record_partition_drop();
                }
                self.metrics.record_dropped();
                Self::settle_tag(&mut self.metrics, &msg);
                continue;
            }
            // The duplicate is an extra in-flight copy: tracked as an
            // unbilled tagged send so both copies settle individually
            // without double-billing the operation.
            if self.roll(self.faults.duplicate_probability) {
                self.metrics.record_duplicated();
                if let Some(tag) = msg.tag() {
                    self.metrics.record_tag_sent(MsgTag::unbilled(tag.id));
                }
                let copy = msg.clone();
                self.route(from, to, copy);
            }
            self.route(from, to, msg);
        }
        for (delay, timer) in timer_requests.drain(..) {
            self.timers
                .entry(self.round + delay)
                .or_default()
                .push((from, timer));
        }
        (self.effects.0, self.effects.1) = (outbox, timer_requests);
    }
}

impl<P: Process> std::fmt::Debug for RoundNetwork<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundNetwork")
            .field("round", &self.round)
            .field("processes", &self.live)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Gossip(u64);

    impl MessageLabel for Gossip {
        fn label(&self) -> &'static str {
            "gossip"
        }
    }

    /// Floods the max value seen to the next process in a ring.
    struct RingNode {
        next: Option<ProcessId>,
        best: u64,
    }

    impl Process for RingNode {
        type Msg = Gossip;
        type Timer = ();

        fn on_message(
            &mut self,
            _from: ProcessId,
            msg: Gossip,
            _ctx: &mut Context<'_, Gossip, ()>,
        ) {
            self.best = self.best.max(msg.0);
        }

        fn on_timer(&mut self, _t: (), ctx: &mut Context<'_, Gossip, ()>) {
            if let Some(next) = self.next {
                ctx.send(next, Gossip(self.best));
            }
        }
    }

    fn ring(n: u64) -> (RoundNetwork<RingNode>, Vec<ProcessId>) {
        let mut net = RoundNetwork::with_tick(9, ());
        let ids: Vec<ProcessId> = (0..n)
            .map(|i| {
                net.add_process(RingNode {
                    next: None,
                    best: i,
                })
            })
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            let next = ids[(i + 1) % ids.len()];
            net.process_mut(id).unwrap().next = Some(next);
        }
        (net, ids)
    }

    #[test]
    fn max_propagates_one_hop_per_round() {
        let (mut net, ids) = ring(5);
        // After k rounds the max has traveled k hops (tick sends, next
        // round delivers).
        net.run_rounds(1);
        // value 4 sent by p4 during round 1 arrives at p0 in round 2
        assert_eq!(net.process(ids[0]).unwrap().best, 0);
        net.run_rounds(1);
        assert_eq!(net.process(ids[0]).unwrap().best, 4);
        net.run_rounds(4);
        for &id in &ids {
            assert_eq!(net.process(id).unwrap().best, 4);
        }
    }

    #[test]
    fn run_until_counts_rounds() {
        let (mut net, ids) = ring(8);
        let last = ids[3];
        let converged = net.run_until(100, |n| n.iter().all(|(_, p)| p.best == 7));
        assert!(converged.is_some());
        assert!(converged.unwrap() <= 9, "rounds: {converged:?}");
        let _ = last;
    }

    #[test]
    fn run_until_times_out() {
        let mut net: RoundNetwork<RingNode> = RoundNetwork::new(0);
        let id = net.add_process(RingNode {
            next: None,
            best: 0,
        });
        let r = net.run_until(3, |n| n.process(id).unwrap().best == 99);
        assert_eq!(r, None);
        assert_eq!(net.round(), 3);
    }

    #[test]
    fn crash_removes_pending_inbox() {
        let (mut net, ids) = ring(3);
        net.run_rounds(1); // messages in flight
        net.crash(ids[1]);
        net.run_rounds(2); // must not panic; p1's inbox discarded
        assert!(!net.is_alive(ids[1]));
        assert_eq!(net.len(), 2);
    }

    #[test]
    fn crash_is_idempotent_and_keeps_count() {
        let (mut net, ids) = ring(4);
        assert!(net.crash(ids[2]).is_some());
        assert!(net.crash(ids[2]).is_none());
        assert!(net.crash(ProcessId::from_raw(999)).is_none());
        assert_eq!(net.len(), 3);
        assert_eq!(net.ids(), vec![ids[0], ids[1], ids[3]]);
    }

    #[test]
    fn messages_to_forged_ids_are_dropped_after_one_round() {
        let (mut net, _ids) = ring(2);
        // Far outside the allocated range (corruption forges these).
        net.send_external(ProcessId::from_raw(1_000_000), Gossip(7));
        net.send_external(ProcessId::from_raw(u64::MAX), Gossip(8));
        net.run_rounds(3); // must neither panic nor leak
        assert_eq!(net.len(), 2);
    }

    #[test]
    fn message_to_future_id_is_delivered_once_it_joins() {
        let mut net: RoundNetwork<RingNode> = RoundNetwork::new(5);
        let a = net.add_process(RingNode {
            next: None,
            best: 1,
        });
        // Address the process that will be created next (id 1).
        net.send_external(ProcessId::from_raw(1), Gossip(42));
        let b = net.add_process(RingNode {
            next: None,
            best: 0,
        });
        net.run_rounds(1);
        assert_eq!(net.process(b).unwrap().best, 42);
        let _ = a;
    }

    #[derive(Clone, Debug)]
    struct Hop {
        tag: u64,
        hops: u32,
    }

    impl MessageLabel for Hop {
        fn label(&self) -> &'static str {
            "hop"
        }
        fn tag(&self) -> Option<crate::MsgTag> {
            Some(crate::MsgTag::billed(self.tag))
        }
    }

    /// Forwards a message `hops` more times along a ring.
    struct Relay {
        next: Option<ProcessId>,
    }

    impl Process for Relay {
        type Msg = Hop;
        type Timer = ();

        fn on_message(&mut self, _from: ProcessId, msg: Hop, ctx: &mut Context<'_, Hop, ()>) {
            ctx.mark(msg.tag);
            if msg.hops > 0 {
                if let Some(next) = self.next {
                    ctx.send(
                        next,
                        Hop {
                            tag: msg.tag,
                            hops: msg.hops - 1,
                        },
                    );
                }
            }
        }

        fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Hop, ()>) {}
    }

    fn relay_pair() -> (RoundNetwork<Relay>, ProcessId, ProcessId) {
        let mut net: RoundNetwork<Relay> = RoundNetwork::new(3);
        let a = net.add_process(Relay { next: None });
        let b = net.add_process(Relay { next: None });
        net.process_mut(a).unwrap().next = Some(b);
        net.process_mut(b).unwrap().next = Some(a);
        (net, a, b)
    }

    #[test]
    fn tags_are_billed_and_reach_quiescence_independently() {
        let (mut net, a, _b) = relay_pair();
        net.send_external(a, Hop { tag: 1, hops: 3 });
        net.send_external(a, Hop { tag: 2, hops: 1 });
        // Both tags in flight from the moment of injection.
        assert_eq!(net.metrics().tag_inflight(1), 1);
        assert_eq!(net.metrics().tag_inflight(2), 1);
        net.run_rounds(2);
        // Tag 2 finished (injection + one relay); tag 1 still hopping.
        assert_eq!(net.metrics().tag_inflight(2), 0);
        assert_eq!(net.metrics().tag_count(2), 2);
        assert_eq!(net.metrics().tag_inflight(1), 1);
        net.run_rounds(2);
        assert_eq!(net.metrics().tag_inflight(1), 0);
        assert_eq!(net.metrics().tag_count(1), 4, "injection + 3 relays");
        net.clear_tag(1);
        assert_eq!(net.metrics().tag_count(1), 0);
    }

    #[test]
    fn marks_log_who_reached_which_tag_until_drained() {
        let (mut net, a, b) = relay_pair();
        net.send_external(a, Hop { tag: 7, hops: 2 });
        net.send_external(b, Hop { tag: 8, hops: 0 });
        net.run_rounds(2);
        // Callback order: round 1 in id order, then round 2.
        assert_eq!(net.metrics().marks(), [(7, a), (8, b), (7, b)]);
        assert_eq!(net.drain_marks().count(), 3);
        net.run_rounds(1);
        assert_eq!(net.metrics().marks(), [(7, a)], "drained marks are gone");
    }

    #[test]
    fn crash_settles_queued_tagged_messages() {
        let (mut net, a, b) = relay_pair();
        net.send_external(b, Hop { tag: 5, hops: 9 });
        assert_eq!(net.metrics().tag_inflight(5), 1);
        net.crash(b); // inbox discarded before delivery
        assert_eq!(net.metrics().tag_inflight(5), 0);
        // Messages addressed to the dead process later also settle.
        net.send_external(b, Hop { tag: 6, hops: 9 });
        net.run_rounds(1);
        assert_eq!(net.metrics().tag_inflight(6), 0);
        let _ = a;
    }

    #[test]
    fn forged_destination_settles_after_one_round() {
        let (mut net, _a, _b) = relay_pair();
        net.send_external(ProcessId::from_raw(77_000), Hop { tag: 9, hops: 2 });
        assert_eq!(net.metrics().tag_inflight(9), 1);
        net.run_rounds(1);
        assert_eq!(net.metrics().tag_inflight(9), 0);
        assert_eq!(net.metrics().tag_count(9), 1, "the send is still billed");
    }

    #[test]
    fn duplicated_hops_track_unbilled_and_settle() {
        let (mut net, a, _b) = relay_pair();
        net.set_faults(FaultProfile::duplicating(1.0));
        net.send_external(a, Hop { tag: 4, hops: 1 });
        net.run_rounds(4);
        assert_eq!(net.metrics().duplicated(), 1, "a's relay was duplicated");
        assert_eq!(
            net.metrics().tag_count(4),
            2,
            "injection + relay; copy unbilled"
        );
        assert_eq!(net.metrics().tag_inflight(4), 0, "both copies settled");
        assert_eq!(net.metrics().delivered(), 3, "b received the relay twice");
    }

    #[test]
    fn reordered_hops_defer_delivery_without_leaking_inflight() {
        let (mut net, a, _b) = relay_pair();
        net.set_faults(FaultProfile::reordering(1.0, 3));
        net.send_external(a, Hop { tag: 7, hops: 1 });
        // The external injection is never faulted: a handles it in
        // round 1 and relays; the relay is parked for 1..=3 extra
        // rounds and stays in flight the whole time.
        net.run_rounds(2);
        assert_eq!(net.metrics().reordered(), 1);
        assert_eq!(
            net.metrics().tag_inflight(7),
            1,
            "parked relay still in flight"
        );
        net.run_rounds(4);
        assert_eq!(net.metrics().tag_inflight(7), 0, "settled at late delivery");
        assert_eq!(net.metrics().delivered(), 2);
        assert_eq!(net.metrics().tag_count(7), 2);
    }

    #[test]
    fn reordered_message_to_crashed_process_still_settles() {
        let (mut net, a, b) = relay_pair();
        net.set_faults(FaultProfile::reordering(1.0, 2));
        net.send_external(a, Hop { tag: 5, hops: 1 });
        net.run_rounds(1); // relay to b now parked
        net.crash(b);
        net.run_rounds(5); // due delivery finds b dead; must settle
        assert_eq!(net.metrics().tag_inflight(5), 0);
    }

    #[test]
    fn partition_and_heal_compose_with_manual_blocks() {
        let (mut net, a, b) = relay_pair();
        net.partition(&[vec![a], vec![b]]);
        net.send_external(a, Hop { tag: 1, hops: 1 });
        net.run_rounds(3);
        assert_eq!(net.metrics().partitioned_drops(), 1);
        assert_eq!(net.metrics().dropped(), 1);
        assert_eq!(net.metrics().tag_inflight(1), 0, "cut relay settled");
        // A manual block on the same link survives healing.
        net.block_link(a, b);
        net.heal();
        net.send_external(a, Hop { tag: 2, hops: 1 });
        net.run_rounds(3);
        assert_eq!(net.metrics().dropped(), 2, "manual block still active");
        assert_eq!(
            net.metrics().partitioned_drops(),
            1,
            "but not a partition drop"
        );
        net.unblock_link(a, b);
        net.send_external(a, Hop { tag: 3, hops: 1 });
        net.run_rounds(3);
        assert_eq!(net.metrics().dropped(), 2, "link repaired");
        assert_eq!(net.metrics().tag_count(3), 2, "relay went through");
    }

    #[test]
    fn lossy_profile_drops_and_settles_round_traffic() {
        let (mut net, a, _b) = relay_pair();
        net.set_faults(FaultProfile::lossy(1.0));
        net.send_external(a, Hop { tag: 9, hops: 5 });
        net.run_rounds(3);
        assert_eq!(net.metrics().dropped(), 1, "first relay lost");
        assert_eq!(net.metrics().tag_inflight(9), 0);
        assert_eq!(
            net.metrics().tag_count(9),
            2,
            "the lost relay is still billed"
        );
    }

    #[test]
    fn one_shot_timers() {
        struct OneShot {
            fired_at: Option<u64>,
        }
        impl Process for OneShot {
            type Msg = ();
            type Timer = &'static str;
            fn on_message(&mut self, _: ProcessId, _: (), _: &mut Context<'_, (), &'static str>) {}
            fn on_timer(&mut self, t: &'static str, ctx: &mut Context<'_, (), &'static str>) {
                if t == "later" {
                    self.fired_at = Some(ctx.now());
                }
            }
            fn on_start(&mut self, ctx: &mut Context<'_, (), &'static str>) {
                ctx.set_timer(5, "later");
            }
        }
        let mut net: RoundNetwork<OneShot> = RoundNetwork::new(1);
        let id = net.add_process(OneShot { fired_at: None });
        net.run_rounds(4);
        assert_eq!(net.process(id).unwrap().fired_at, None);
        net.run_rounds(1);
        assert_eq!(net.process(id).unwrap().fired_at, Some(5));
    }
}
