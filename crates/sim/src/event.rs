use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::context::Effects;
use crate::process::MessageLabel;
use crate::{Context, Metrics, Process, ProcessId};

/// Link latency model for the event-driven engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyModel {
    /// Every message takes exactly this many time units.
    Fixed(u64),
    /// Uniformly random latency in `[min, max]` (inclusive).
    Uniform {
        /// Minimum latency (promoted to at least 1).
        min: u64,
        /// Maximum latency.
        max: u64,
    },
}

impl LatencyModel {
    fn sample(&self, rng: &mut StdRng) -> u64 {
        match *self {
            LatencyModel::Fixed(l) => l.max(1),
            LatencyModel::Uniform { min, max } => rng.gen_range(min.max(1)..=max.max(min).max(1)),
        }
    }
}

/// Per-message fault knobs shared by both engines.
///
/// Every probability is an independent Bernoulli draw per *process*
/// send (external harness injections are never faulted). All knobs
/// default to zero — a default profile is a perfect network. The
/// profile can be swapped at runtime ([`EventNetwork::set_faults`],
/// [`crate::RoundNetwork::set_faults`]), which is how scripted fault
/// *windows* open and close.
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

/// Configuration of the asynchronous network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// Link latency model (default: `Fixed(1)`).
    pub latency: LatencyModel,
    /// Message fault knobs (default: none — see [`FaultProfile`]).
    pub faults: FaultProfile,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            latency: LatencyModel::Fixed(1),
            faults: FaultProfile::default(),
        }
    }
}

impl NetConfig {
    /// A config with the given latency model and loss probability — the
    /// common shape of the asynchronous robustness tests.
    pub fn lossy(latency: LatencyModel, drop_probability: f64) -> Self {
        Self {
            latency,
            faults: FaultProfile::lossy(drop_probability),
        }
    }
}

enum EventKind<M, T> {
    Deliver {
        from: ProcessId,
        to: ProcessId,
        msg: M,
    },
    Fire {
        at: ProcessId,
        timer: T,
    },
}

struct Scheduled<M, T> {
    at: u64,
    seq: u64,
    kind: EventKind<M, T>,
}

impl<M, T> PartialEq for Scheduled<M, T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M, T> Eq for Scheduled<M, T> {}
impl<M, T> PartialOrd for Scheduled<M, T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M, T> Ord for Scheduled<M, T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Asynchronous discrete-event network engine.
///
/// Deterministic for a given seed: events are ordered by `(time, seq)`
/// where `seq` is allocation order. See the [crate docs](crate) for an
/// end-to-end example.
pub struct EventNetwork<P: Process> {
    config: NetConfig,
    procs: BTreeMap<ProcessId, P>,
    queue: BinaryHeap<Reverse<Scheduled<P::Msg, P::Timer>>>,
    blocked: BTreeSet<(ProcessId, ProcessId)>,
    /// Links cut by [`EventNetwork::partition`], kept apart from the
    /// manual `blocked` set so [`EventNetwork::heal`] removes exactly
    /// the partition's cuts and composes with manual blocks.
    partition_links: BTreeSet<(ProcessId, ProcessId)>,
    time: u64,
    seq: u64,
    next_id: u64,
    rng: StdRng,
    metrics: Metrics,
    /// The effect buffers lent to every callback's [`Context`]; empty
    /// between callbacks.
    effects: Effects<P::Msg, P::Timer>,
}

impl<P: Process> EventNetwork<P> {
    /// Creates an empty network with the given config and RNG seed.
    pub fn new(config: NetConfig, seed: u64) -> Self {
        Self {
            config,
            procs: BTreeMap::new(),
            queue: BinaryHeap::new(),
            blocked: BTreeSet::new(),
            partition_links: BTreeSet::new(),
            time: 0,
            seq: 0,
            next_id: 0,
            rng: StdRng::seed_from_u64(seed),
            metrics: Metrics::new(),
            effects: Effects::default(),
        }
    }

    /// Adds a process, assigns it a fresh id, and invokes
    /// [`Process::on_start`].
    pub fn add_process(&mut self, mut process: P) -> ProcessId {
        let id = ProcessId::from_raw(self.next_id);
        self.next_id += 1;
        let mut ctx = Context::new(id, self.time, &mut self.rng, &mut self.effects);
        process.on_start(&mut ctx);
        self.procs.insert(id, process);
        self.apply_effects(id);
        id
    }

    /// Current simulation time.
    pub fn now(&self) -> u64 {
        self.time
    }

    /// Ids of all live processes, in id order.
    pub fn ids(&self) -> Vec<ProcessId> {
        self.procs.keys().copied().collect()
    }

    /// Number of live processes.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// `true` if no process is alive.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// `true` if `id` refers to a live process.
    pub fn is_alive(&self, id: ProcessId) -> bool {
        self.procs.contains_key(&id)
    }

    /// Shared view of a live process's state.
    pub fn process(&self, id: ProcessId) -> Option<&P> {
        self.procs.get(&id)
    }

    /// Mutable access to a live process's state. Intended for harness
    /// bookkeeping; for *adversarial* state mutation use
    /// [`EventNetwork::corrupt`], which also records the fault.
    pub fn process_mut(&mut self, id: ProcessId) -> Option<&mut P> {
        self.procs.get_mut(&id)
    }

    /// Iterates over `(id, process)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &P)> {
        self.procs.iter().map(|(&id, p)| (id, p))
    }

    /// Mutable [`EventNetwork::iter`] (harness bookkeeping).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (ProcessId, &mut P)> {
        self.procs.iter_mut().map(|(&id, p)| (id, p))
    }

    /// Message metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Resets message metrics (e.g. between experiment phases).
    pub fn reset_metrics(&mut self) {
        self.metrics.reset();
    }

    /// Deterministic per-network randomness for harness decisions.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Crashes `id`: the process vanishes silently (the paper's
    /// *uncontrolled departure*). In-flight messages to it are counted
    /// as [`Metrics::to_dead`] on delivery. Returns the final state, if
    /// the process was alive.
    pub fn crash(&mut self, id: ProcessId) -> Option<P> {
        self.procs.remove(&id)
    }

    /// Reinstalls a process at a previously crashed id — the rejoin
    /// half of the broker crash/rejoin fault pair. The caller supplies
    /// the restarted state (warm: restored from a checkpoint; cold:
    /// fresh and empty). [`Process::on_start`] runs again at the
    /// current simulation time; in-flight messages addressed to the id
    /// deliver normally once it is alive again. Returns `false` if the
    /// id is still alive or was never allocated.
    pub fn revive(&mut self, id: ProcessId, mut process: P) -> bool {
        if id.raw() >= self.next_id || self.procs.contains_key(&id) {
            return false;
        }
        let mut ctx = Context::new(id, self.time, &mut self.rng, &mut self.effects);
        process.on_start(&mut ctx);
        self.procs.insert(id, process);
        self.apply_effects(id);
        true
    }

    /// Applies an adversarial mutation to a live process's memory (the
    /// paper's *transient fault* / memory corruption). Returns `false`
    /// if the process is not alive.
    pub fn corrupt(&mut self, id: ProcessId, mutate: impl FnOnce(&mut P, &mut StdRng)) -> bool {
        match self.procs.get_mut(&id) {
            Some(p) => {
                mutate(p, &mut self.rng);
                true
            }
            None => false,
        }
    }

    /// Blocks the directed link `from → to` (messages silently dropped).
    pub fn block_link(&mut self, from: ProcessId, to: ProcessId) {
        self.blocked.insert((from, to));
    }

    /// Unblocks the directed link `from → to` — the inverse of a single
    /// [`EventNetwork::block_link`]. Also removes any partition cut on
    /// that link, so a manual repair overrides an installed partition.
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
    /// different `groups` is cut (both directions). Messages crossing a
    /// cut are dropped, counted as [`Metrics::partitioned_drops`], and
    /// settle their tags at drop time. Successive calls accumulate, so
    /// overlapping partitions compose; [`EventNetwork::heal`] removes
    /// every partition cut while manual [`EventNetwork::block_link`]
    /// blocks survive.
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

    /// Heals every partition cut (the inverse of all
    /// [`EventNetwork::partition`] calls so far). Manual link blocks
    /// are untouched — even on links that were *also* partition-cut —
    /// so partitions compose with [`EventNetwork::block_link`] /
    /// [`EventNetwork::unblock_link`] experiments.
    pub fn heal(&mut self) {
        self.partition_links.clear();
    }

    /// Replaces the message fault profile at runtime — how scripted
    /// fault windows (loss bursts, duplication/reorder windows) open
    /// and close mid-run.
    pub fn set_faults(&mut self, faults: FaultProfile) {
        self.config.faults = faults;
    }

    /// The active message fault profile.
    pub fn faults(&self) -> &FaultProfile {
        &self.config.faults
    }

    /// Injects a message from outside the system (delivered with normal
    /// latency; `from` is the destination itself, which protocols treat
    /// as an external stimulus).
    pub fn send_external(&mut self, to: ProcessId, msg: P::Msg) {
        self.metrics.record_sent(msg.label());
        if let Some(tag) = msg.tag() {
            self.metrics.record_tag_sent(tag);
        }
        let latency = self.config.latency.sample(&mut self.rng);
        self.push(
            self.time + latency,
            EventKind::Deliver { from: to, to, msg },
        );
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

    /// Arms a timer on `id` from outside (e.g. kicking off periodic
    /// stabilization on a fresh process).
    pub fn set_timer_external(&mut self, id: ProcessId, delay: u64, timer: P::Timer) {
        self.push(self.time + delay.max(1), EventKind::Fire { at: id, timer });
    }

    /// Executes the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(event)) = self.queue.pop() else {
            return false;
        };
        self.time = self.time.max(event.at);
        match event.kind {
            EventKind::Deliver { from, to, msg } => {
                if let Some(tag) = msg.tag() {
                    self.metrics.record_tag_settled(tag);
                }
                let Some(proc) = self.procs.get_mut(&to) else {
                    self.metrics.record_to_dead();
                    return true;
                };
                self.metrics.record_delivered();
                let mut ctx = Context::new(to, self.time, &mut self.rng, &mut self.effects);
                proc.on_message(from, msg, &mut ctx);
                self.apply_effects(to);
            }
            EventKind::Fire { at, timer } => {
                if let Some(proc) = self.procs.get_mut(&at) {
                    let mut ctx = Context::new(at, self.time, &mut self.rng, &mut self.effects);
                    proc.on_timer(timer, &mut ctx);
                    self.apply_effects(at);
                }
            }
        }
        true
    }

    /// Runs until simulated time reaches `deadline` or the queue drains.
    pub fn run_until(&mut self, deadline: u64) {
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.at > deadline {
                break;
            }
            self.step();
        }
        self.time = self.time.max(deadline);
    }

    /// Runs until no events remain, up to `max_events` steps. Returns
    /// the number of events executed.
    ///
    /// Protocols with periodic timers never go quiescent; use
    /// [`EventNetwork::run_until`] for those.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        let mut executed = 0;
        while executed < max_events && self.step() {
            executed += 1;
        }
        executed
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
            if blocked || cut || self.roll(self.config.faults.drop_probability) {
                if cut && !blocked {
                    self.metrics.record_partition_drop();
                }
                self.metrics.record_dropped();
                if let Some(tag) = msg.tag() {
                    self.metrics.record_tag_settled(tag);
                }
                continue;
            }
            // The duplicate is an extra in-flight copy of the same
            // message: tracked (unbilled) so both copies settle on
            // their own deliveries without double-billing the tag.
            if self.roll(self.config.faults.duplicate_probability) {
                self.metrics.record_duplicated();
                if let Some(tag) = msg.tag() {
                    self.metrics
                        .record_tag_sent(crate::MsgTag::unbilled(tag.id));
                }
                let latency = self.config.latency.sample(&mut self.rng);
                self.push(
                    self.time + latency,
                    EventKind::Deliver {
                        from,
                        to,
                        msg: msg.clone(),
                    },
                );
            }
            let mut latency = self.config.latency.sample(&mut self.rng);
            if self.roll(self.config.faults.reorder_probability) {
                self.metrics.record_reordered();
                latency += self
                    .rng
                    .gen_range(1..=self.config.faults.reorder_extra.max(1));
            }
            self.push(self.time + latency, EventKind::Deliver { from, to, msg });
        }
        for (delay, timer) in timer_requests.drain(..) {
            self.push(self.time + delay, EventKind::Fire { at: from, timer });
        }
        (self.effects.0, self.effects.1) = (outbox, timer_requests);
    }

    /// One fault-knob Bernoulli draw; never touches the RNG for an
    /// inactive knob, so enabling a knob is the only thing that changes
    /// a seeded trace.
    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.gen_bool(p.min(1.0))
    }

    fn push(&mut self, at: u64, kind: EventKind<P::Msg, P::Timer>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Scheduled { at, seq, kind }));
    }
}

impl<P: Process> std::fmt::Debug for EventNetwork<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventNetwork")
            .field("time", &self.time)
            .field("processes", &self.procs.len())
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    enum Ping {
        Ping(u32),
        Pong(#[allow(dead_code)] u32),
    }

    impl MessageLabel for Ping {
        fn label(&self) -> &'static str {
            match self {
                Ping::Ping(_) => "ping",
                Ping::Pong(_) => "pong",
            }
        }
    }

    #[derive(Default)]
    struct Node {
        pings: u32,
        pongs: u32,
        timer_fired: bool,
    }

    impl Process for Node {
        type Msg = Ping;
        type Timer = &'static str;

        fn on_message(
            &mut self,
            from: ProcessId,
            msg: Ping,
            ctx: &mut Context<'_, Ping, &'static str>,
        ) {
            match msg {
                Ping::Ping(n) => {
                    self.pings += 1;
                    ctx.send(from, Ping::Pong(n));
                }
                Ping::Pong(_) => self.pongs += 1,
            }
        }

        fn on_timer(&mut self, _t: &'static str, _ctx: &mut Context<'_, Ping, &'static str>) {
            self.timer_fired = true;
        }
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut net: EventNetwork<Node> = EventNetwork::new(NetConfig::default(), 1);
        let a = net.add_process(Node::default());
        let b = net.add_process(Node::default());
        // external "ping" to b appears to come from b itself; have b ping a
        net.send_external(b, Ping::Ping(7)); // b replies Pong to itself
        net.send_external(a, Ping::Ping(1));
        net.run_to_quiescence(100);
        assert_eq!(net.process(a).unwrap().pings, 1);
        assert!(net.metrics().delivered() >= 4);
        assert_eq!(net.metrics().label_count("ping"), 2);
        assert_eq!(net.metrics().label_count("pong"), 2);
    }

    #[test]
    fn timers_fire_in_order() {
        let mut net: EventNetwork<Node> = EventNetwork::new(NetConfig::default(), 1);
        let a = net.add_process(Node::default());
        net.set_timer_external(a, 10, "t");
        net.run_until(5);
        assert!(!net.process(a).unwrap().timer_fired);
        net.run_until(10);
        assert!(net.process(a).unwrap().timer_fired);
        assert_eq!(net.now(), 10);
    }

    #[test]
    fn crash_swallows_messages() {
        let mut net: EventNetwork<Node> = EventNetwork::new(NetConfig::default(), 1);
        let a = net.add_process(Node::default());
        let _ = net.crash(a);
        assert!(!net.is_alive(a));
        net.send_external(a, Ping::Ping(0));
        net.run_to_quiescence(10);
        assert_eq!(net.metrics().to_dead(), 1);
    }

    #[test]
    fn blocked_links_drop() {
        let mut net: EventNetwork<Node> = EventNetwork::new(NetConfig::default(), 1);
        let a = net.add_process(Node::default());
        let b = net.add_process(Node::default());
        net.block_link(a, b);
        // a receives an external ping "from b"; its pong to b is blocked.
        net.send_external(a, Ping::Ping(0));
        // external messages carry from == to, so craft via a's handler:
        net.run_to_quiescence(10);
        let _ = b;
        assert!(net.metrics().dropped() <= 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut net: EventNetwork<Node> = EventNetwork::new(
                NetConfig::lossy(LatencyModel::Uniform { min: 1, max: 9 }, 0.2),
                seed,
            );
            let a = net.add_process(Node::default());
            for _ in 0..50 {
                net.send_external(a, Ping::Ping(1));
            }
            net.run_to_quiescence(1_000);
            (
                net.metrics().delivered(),
                net.metrics().dropped(),
                net.now(),
            )
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43)); // different seed, different trace
    }

    #[derive(Clone, Debug)]
    struct Tagged(u64);

    impl MessageLabel for Tagged {
        fn label(&self) -> &'static str {
            "tagged"
        }
        fn tag(&self) -> Option<crate::MsgTag> {
            Some(crate::MsgTag::billed(self.0))
        }
    }

    /// Echoes every message back to its sender once.
    struct Echo;

    impl Process for Echo {
        type Msg = Tagged;
        type Timer = ();

        fn on_message(&mut self, from: ProcessId, msg: Tagged, ctx: &mut Context<'_, Tagged, ()>) {
            ctx.send(from, msg);
        }

        fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Tagged, ()>) {}
    }

    #[test]
    fn lost_tagged_messages_settle_at_drop_time() {
        // Every *process* send is lost.
        let mut net: EventNetwork<Echo> =
            EventNetwork::new(NetConfig::lossy(LatencyModel::Fixed(1), 1.0), 9);
        let a = net.add_process(Echo);
        net.send_external(a, Tagged(4)); // external sends are never dropped
        assert_eq!(net.metrics().tag_inflight(4), 1);
        net.run_to_quiescence(100);
        // Delivered to `a`, whose echo was dropped — and settled.
        assert_eq!(net.metrics().tag_inflight(4), 0);
        assert_eq!(net.metrics().tag_count(4), 2, "the lost echo is billed");
        assert_eq!(net.metrics().dropped(), 1);
    }

    #[test]
    fn tagged_messages_to_dead_processes_settle() {
        let mut net: EventNetwork<Echo> = EventNetwork::new(NetConfig::default(), 9);
        let a = net.add_process(Echo);
        net.crash(a);
        net.send_external(a, Tagged(8));
        assert_eq!(net.metrics().tag_inflight(8), 1);
        net.run_to_quiescence(100);
        assert_eq!(net.metrics().tag_inflight(8), 0);
        assert_eq!(net.metrics().to_dead(), 1);
    }

    /// Forwards one incoming message to a fixed target, once.
    struct Forwarder {
        target: Option<ProcessId>,
    }

    impl Process for Forwarder {
        type Msg = Tagged;
        type Timer = ();

        fn on_message(&mut self, _from: ProcessId, msg: Tagged, ctx: &mut Context<'_, Tagged, ()>) {
            if let Some(target) = self.target.take() {
                ctx.send(target, msg);
            }
        }

        fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Tagged, ()>) {}
    }

    #[test]
    fn duplicated_tagged_messages_track_but_never_double_bill() {
        let mut net: EventNetwork<Forwarder> = EventNetwork::new(NetConfig::default(), 5);
        net.set_faults(FaultProfile::duplicating(1.0));
        let b = ProcessId::from_raw(1);
        let a = net.add_process(Forwarder { target: Some(b) });
        let _b = net.add_process(Forwarder { target: None });
        net.send_external(a, Tagged(4)); // external sends are never faulted
        net.run_to_quiescence(100);
        // Injection + a's forward are billed; the duplicate copy is not.
        assert_eq!(net.metrics().tag_count(4), 2, "duplicate is unbilled");
        assert_eq!(net.metrics().tag_inflight(4), 0, "all copies settled");
        assert_eq!(net.metrics().duplicated(), 1);
        assert_eq!(net.metrics().delivered(), 3, "b received both copies");
    }

    #[test]
    fn reordered_tagged_messages_stay_in_flight_until_late_delivery() {
        let mut net: EventNetwork<Forwarder> = EventNetwork::new(NetConfig::default(), 5);
        net.set_faults(FaultProfile::reordering(1.0, 5));
        let b = ProcessId::from_raw(1);
        let a = net.add_process(Forwarder { target: Some(b) });
        let _b = net.add_process(Forwarder { target: None });
        net.send_external(a, Tagged(6));
        net.run_to_quiescence(100);
        assert_eq!(net.metrics().reordered(), 1, "a's forward was delayed");
        assert_eq!(net.metrics().tag_inflight(6), 0, "settled at late delivery");
        assert_eq!(net.metrics().delivered(), 2);
        assert!(net.now() >= 3, "extra delay beyond the two fixed hops");
    }

    #[test]
    fn partition_drops_settle_and_heal_restores_links() {
        let mut net: EventNetwork<Forwarder> = EventNetwork::new(NetConfig::default(), 5);
        let b = ProcessId::from_raw(1);
        let a = net.add_process(Forwarder { target: Some(b) });
        let _b = net.add_process(Forwarder { target: None });
        net.partition(&[vec![a], vec![b]]);
        net.send_external(a, Tagged(1));
        net.run_to_quiescence(100);
        assert_eq!(net.metrics().partitioned_drops(), 1);
        assert_eq!(net.metrics().dropped(), 1, "partition drops count as drops");
        assert_eq!(net.metrics().tag_inflight(1), 0, "cut message settled");
        net.heal();
        net.process_mut(a).unwrap().target = Some(b);
        net.send_external(a, Tagged(2));
        net.run_to_quiescence(100);
        assert_eq!(net.metrics().partitioned_drops(), 1, "no drop after heal");
        assert_eq!(net.metrics().delivered(), 3, "both externals + the forward");
    }

    #[test]
    fn heal_preserves_manual_blocks_and_unblock_link_repairs() {
        let mut net: EventNetwork<Forwarder> = EventNetwork::new(NetConfig::default(), 5);
        let b = ProcessId::from_raw(1);
        let a = net.add_process(Forwarder { target: Some(b) });
        let _b = net.add_process(Forwarder { target: None });
        // Overlapping faults: a manual block plus a partition cut on
        // the same link. Healing removes only the partition.
        net.block_link(a, b);
        net.partition(&[vec![a], vec![b]]);
        net.heal();
        net.send_external(a, Tagged(1));
        net.run_to_quiescence(100);
        assert_eq!(net.metrics().dropped(), 1, "manual block survives heal");
        assert_eq!(net.metrics().partitioned_drops(), 0);
        // unblock_link is the single-link inverse of block_link.
        net.unblock_link(a, b);
        net.process_mut(a).unwrap().target = Some(b);
        net.send_external(a, Tagged(2));
        net.run_to_quiescence(100);
        assert_eq!(net.metrics().dropped(), 1, "link repaired");
        assert_eq!(net.metrics().delivered(), 3, "both externals + the forward");
    }

    #[test]
    fn corrupt_mutates_state() {
        let mut net: EventNetwork<Node> = EventNetwork::new(NetConfig::default(), 1);
        let a = net.add_process(Node::default());
        assert!(net.corrupt(a, |p, _| p.pings = 999));
        assert_eq!(net.process(a).unwrap().pings, 999);
        assert!(!net.corrupt(ProcessId::from_raw(404), |_, _| {}));
    }
}
