use std::collections::BTreeMap;

use crate::network::{Network, Schedule, World};
use crate::{Process, ProcessId};

/// Synchronous round-based engine.
///
/// Each round, in process-id order, every live process first handles the
/// messages sent to it during the *previous* round, then any due one-shot
/// timers, then the periodic *tick* (if configured). The paper's
/// stabilization lemmas bound convergence in "steps"; a round here is the
/// usual synchronous-daemon step of the self-stabilization literature,
/// in which every periodic check module fires once.
///
/// Everything but the running of rounds is [`Network`]'s, shared with
/// the event engine. What is the round engine's own ([`RoundSchedule`]):
/// inboxes in flat `Vec`s indexed by raw id, double-buffered and reused
/// round over round like the callbacks' effect buffers, so steady-state
/// rounds allocate nothing for message plumbing. Messages addressed
/// outside the allocated id range (the protocol under corruption forges
/// references to nonexistent processes) are parked in a side map with
/// the same one-round lifetime.
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
pub type RoundNetwork<P> = Network<P, RoundSchedule<P>>;

/// A message waiting in an inbox, with its sender.
type Queued<P> = (ProcessId, <P as Process>::Msg);

/// The round engine's in-flight state: what was sent last round and is
/// delivered in this one.
#[derive(Clone)]
pub struct RoundSchedule<P: Process> {
    /// `inboxes[raw_id]`: messages accumulated for delivery next round.
    inboxes: Vec<Vec<Queued<P>>>,
    /// Last round's buffers, drained this round and then reused as the
    /// next `inboxes` (capacity retained).
    scratch: Vec<Vec<Queued<P>>>,
    /// Messages to ids outside the allocated range (forged references);
    /// dropped after one round unless the id is allocated meanwhile.
    overflow: BTreeMap<ProcessId, Vec<Queued<P>>>,
    /// Reordered messages parked until their (later) delivery round.
    delayed: BTreeMap<u64, Vec<(ProcessId, ProcessId, P::Msg)>>,
    timers: BTreeMap<u64, Vec<(ProcessId, P::Timer)>>,
    tick: Option<P::Timer>,
    round: u64,
}

impl<P: Process> RoundNetwork<P> {
    /// Creates an engine with no periodic tick.
    pub fn new(seed: u64) -> Self {
        let schedule = RoundSchedule {
            inboxes: Vec::new(),
            scratch: Vec::new(),
            overflow: BTreeMap::new(),
            delayed: BTreeMap::new(),
            timers: BTreeMap::new(),
            tick: None,
            round: 0,
        };
        Self::with_schedule(seed, schedule)
    }

    /// Creates an engine that fires `tick` on every process each round —
    /// the synchronous daemon driving the periodic CHECK_* modules.
    pub fn with_tick(seed: u64, tick: P::Timer) -> Self {
        let mut net = Self::new(seed);
        net.queue.tick = Some(tick);
        net
    }

    /// Replaces (or removes) the periodic tick. Used by experiments
    /// that must suspend stabilization for a window (Lemma 3.7's ∆).
    pub fn set_tick(&mut self, tick: Option<P::Timer>) {
        self.queue.tick = tick;
    }

    /// Rounds completed so far.
    pub fn round(&self) -> u64 {
        self.queue.round
    }

    /// Executes one synchronous round.
    pub fn run_round(&mut self) {
        self.advance(1);
    }

    /// Runs `n` rounds.
    pub fn run_rounds(&mut self, n: u64) {
        self.advance(n);
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
}

impl<P: Process> RoundSchedule<P> {
    fn enqueue(&mut self, from: ProcessId, to: ProcessId, msg: P::Msg) {
        match self.inboxes.get_mut(to.raw() as usize) {
            Some(inbox) => inbox.push((from, msg)),
            None => self.overflow.entry(to).or_default().push((from, msg)),
        }
    }

    fn run_round(&mut self, world: &mut World<P>) {
        self.round += 1;
        // The accumulating buffers become this round's deliveries; the
        // drained buffers from last round (already empty, capacity
        // intact) start accumulating the next round's messages.
        std::mem::swap(&mut self.inboxes, &mut self.scratch);
        // Forged-destination messages never find a process: drop them
        // with this round.
        for (_, msg) in std::mem::take(&mut self.overflow).into_values().flatten() {
            world.metrics.record_to_dead(&msg);
        }
        // Reordered messages due this round join the delivery buffers;
        // later traffic already overtook them in earlier rounds. Ones
        // addressed outside the allocated range end like overflow.
        for (from, to, msg) in self.delayed.remove(&self.round).unwrap_or_default() {
            match self.scratch.get_mut(to.raw() as usize) {
                Some(buf) => buf.push((from, msg)),
                None => world.metrics.record_to_dead(&msg),
            }
        }
        let due_timers = self.timers.remove(&self.round).unwrap_or_default();
        // Callbacks cannot add or crash processes, so the live slots
        // are fixed for the round: walk them directly, in id order.
        for slot in 0..world.procs.len() {
            if world.procs[slot].is_none() {
                continue;
            }
            let id = ProcessId::from_raw(slot as u64);
            // Deliver last round's messages. The buffer is swapped out
            // locally so effects can enqueue into `self` while
            // delivery walks it; it returns cleared, capacity intact.
            if !self.scratch[slot].is_empty() {
                let mut deliveries = std::mem::take(&mut self.scratch[slot]);
                for (from, msg) in deliveries.drain(..) {
                    world.metrics.settle(&msg);
                    world.metrics.record_delivered();
                    world.call(self, id, |proc, ctx| proc.on_message(from, msg, ctx));
                }
                self.scratch[slot] = deliveries;
            }
            // One-shot timers due this round (in most rounds none are,
            // and the scan is over an empty list).
            for (_, timer) in due_timers.iter().filter(|(at, _)| *at == id) {
                world.call(self, id, |proc, ctx| proc.on_timer(timer.clone(), ctx));
            }
            // Periodic tick (the synchronous daemon).
            if let Some(tick) = self.tick.clone() {
                world.call(self, id, |proc, ctx| proc.on_timer(tick, ctx));
            }
        }
        // Anything still sitting in the delivery buffers was addressed
        // to a dead process; drop it but keep the buffer capacity.
        for buf in &mut self.scratch {
            for (_, msg) in buf.drain(..) {
                world.metrics.record_to_dead(&msg);
            }
        }
    }
}

impl<P: Process> Schedule<P> for RoundSchedule<P> {
    fn now(&self) -> u64 {
        self.round
    }

    fn period(&self, _interval: u64) -> u64 {
        1
    }

    fn allocate(&mut self, id: ProcessId) {
        // Messages sent to this id before it existed now have a home.
        self.inboxes
            .push(self.overflow.remove(&id).unwrap_or_default());
        self.scratch.push(Vec::new());
    }

    /// The process and its queued messages vanish.
    fn crashed(&mut self, world: &mut World<P>, id: ProcessId) {
        for (_, msg) in self.inboxes[id.raw() as usize].drain(..) {
            world.metrics.record_to_dead(&msg);
        }
    }

    /// Normally into next round's inbox, or — under the reorder knob,
    /// drawn for either copy alike — parked for a later round while
    /// its tag stays in flight.
    fn place(
        &mut self,
        world: &mut World<P>,
        from: ProcessId,
        to: ProcessId,
        msg: P::Msg,
        _extra: bool,
    ) {
        match world.reorder_delay() {
            0 => self.enqueue(from, to, msg),
            delay => self
                .delayed
                .entry(self.round + 1 + delay)
                .or_default()
                .push((from, to, msg)),
        }
    }

    /// Queued for delivery at the start of the next round.
    fn inject(&mut self, _world: &mut World<P>, to: ProcessId, msg: P::Msg) {
        self.enqueue(to, to, msg);
    }

    fn arm(&mut self, at: ProcessId, delay: u64, timer: P::Timer) {
        self.timers
            .entry(self.round + delay)
            .or_default()
            .push((at, timer));
    }

    fn advance(&mut self, world: &mut World<P>, span: u64) {
        for _ in 0..span {
            self.run_round(world);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Context, FaultProfile, MessageLabel};

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
