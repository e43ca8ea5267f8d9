use std::collections::BTreeMap;

use crate::network::{Network, Schedule, World};
use crate::{MessageLabel, Process, ProcessId};

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
/// # Quiescent processes sleep
///
/// A round costs what changed in it, not the number of processes. After
/// a round in which a process's state changed only in the clocks the
/// round refreshed (its [`Process::quiescence_key`] reads the same
/// before and after) and its next inbox equals this one, every later
/// round would repeat it. The engine then stops calling the process:
/// it *sleeps*.
///
/// * **Standing messages.** What a sleeper sent in its last round it
///   sends every round. Those sends are billed to [`crate::Metrics`]
///   per label, arithmetically, and delivered for real only to
///   recipients that are awake (merged into their inboxes in sender
///   order, as if the sleeper had run).
/// * **Lazy clocks.** A sleeper's refreshed clocks are moved on
///   ([`Process::catch_up`]) when it wakes and on
///   [`Network::materialize_clocks`]; until then [`Network::process`]
///   shows them as of its last catch-up.
/// * **What wakes a process.** A sender whose messages to it differ from
///   last round's (including a sender that crashed), a timer or an
///   injection ([`Network::send_external`]) addressed to it,
///   [`Network::process_mut`], [`Network::corrupt`],
///   [`Network::revive`], and [`Network::iter_mut`] or
///   [`Network::wake_all`] for everyone. Every fault-plane change wakes
///   everyone, and while a link is down, a knob is on, a reordered
///   message is parked or the periodic tick is off, nobody sleeps: no
///   RNG draw is ever skipped.
///
/// Between calls on the network, every counter, RNG draw and (after
/// [`Network::materialize_clocks`]) every process state therefore
/// equals a run in which every process is called every round — which is
/// what calling [`Network::wake_all`] before every round produces.
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

/// A message as sent: sender, recipient, message.
type Sent<P> = (ProcessId, ProcessId, <P as Process>::Msg);

/// The round engine's in-flight state: what was sent last round and is
/// delivered in this one.
#[derive(Clone)]
pub struct RoundSchedule<P: Process> {
    /// `inboxes[raw_id]`: messages accumulated for delivery next round.
    inboxes: Vec<Vec<Queued<P>>>,
    /// Last round's buffers, drained this round and then reused as the
    /// next `inboxes` (capacity retained).
    scratch: Vec<Vec<Queued<P>>>,
    /// Per slot, how many messages at the tail of its `inboxes` buffer
    /// arrived between rounds (injections, a revived process's start)
    /// rather than from the round's senders; `late_due` is the same for
    /// `scratch`.
    late: Vec<u32>,
    late_due: Vec<u32>,
    /// Slots whose `inboxes` (`filled_due`: `scratch`) buffer received
    /// a message, so that what nobody drained is found without a scan.
    filled: Vec<usize>,
    filled_due: Vec<usize>,
    /// Messages to ids outside the allocated range (forged references);
    /// dropped after one round unless the id is allocated meanwhile.
    overflow: BTreeMap<ProcessId, Vec<Queued<P>>>,
    /// Reordered messages parked until their (later) delivery round.
    delayed: BTreeMap<u64, Vec<(ProcessId, ProcessId, P::Msg)>>,
    timers: BTreeMap<u64, Vec<(ProcessId, P::Timer)>>,
    tick: Option<P::Timer>,
    round: u64,
    /// `true` while a round runs its callbacks.
    in_round: bool,
    sleep: Sleep<P>,
}

/// Who sleeps, and what the sleepers send: see [`RoundSchedule`].
#[derive(Clone)]
struct Sleep<P: Process> {
    /// Live slots called in the coming round.
    awake: Bits,
    /// Live slots not called in the coming round.
    asleep: Bits,
    /// Slots that slept last round: what they sent then is in flight as
    /// their standing messages, not in any inbox.
    fed: Bits,
    /// Slots whose next inbox differs from their last one, or that must
    /// run next round for another reason.
    disturbed: Bits,
    /// Per slot, the round its clocks were last caught up to.
    since: Vec<u64>,
    /// Per slot, the messages a sleeper sends every round (its last
    /// round's sends), kept while it is asleep or fed.
    standing: Vec<Vec<Sent<P>>>,
    /// Per slot, the fed slots with standing messages to it, ascending.
    feeders: Vec<Vec<u32>>,
    /// Standing sends per round of the sleepers, per label and in all.
    bill: Vec<(&'static str, u64)>,
    billed: u64,
    /// Standing messages sent last round, delivered (or counted
    /// delivered) this round.
    in_flight: u64,
    /// `true` while this round's sends are recorded in `out` (and, until
    /// the next round starts, whether last round's were).
    capturing: bool,
    /// Whether some process ended this round with a quiescence key
    /// while sends were not yet recorded.
    keyed: bool,
    /// This round's sends, by sender, and last round's.
    out: Vec<Sent<P>>,
    out_prev: Vec<Sent<P>>,
    /// Processes whose last round was steady: `(slot, its sends in out)`.
    candidates: Vec<(usize, usize, usize)>,
    key: Vec<u64>,
    key_before: Vec<u64>,
    /// An awake inbox merged with its feeders' standing messages
    /// (`true`: standing, already counted delivered).
    merged: Vec<(ProcessId, P::Msg, bool)>,
}

/// A fixed-width bit set over process slots.
#[derive(Clone, Debug, Default)]
struct Bits(Vec<u64>);

impl Bits {
    fn grow(&mut self, len: usize) {
        let words = len.div_ceil(64);
        if self.0.len() < words {
            self.0.resize(words, 0);
        }
    }

    fn get(&self, i: usize) -> bool {
        self.0.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    fn set(&mut self, i: usize) {
        if let Some(w) = self.0.get_mut(i / 64) {
            *w |= 1 << (i % 64);
        }
    }

    fn unset(&mut self, i: usize) {
        if let Some(w) = self.0.get_mut(i / 64) {
            *w &= !(1 << (i % 64));
        }
    }

    /// The first set bit at or after `from`.
    fn next(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut word = *self.0.get(w)? & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            word = *self.0.get(w)?;
        }
    }
}

impl<P: Process> Sleep<P> {
    fn new() -> Self {
        Self {
            awake: Bits::default(),
            asleep: Bits::default(),
            fed: Bits::default(),
            disturbed: Bits::default(),
            since: Vec::new(),
            standing: Vec::new(),
            feeders: Vec::new(),
            bill: Vec::new(),
            billed: 0,
            in_flight: 0,
            capturing: false,
            keyed: false,
            out: Vec::new(),
            out_prev: Vec::new(),
            candidates: Vec::new(),
            key: Vec::new(),
            key_before: Vec::new(),
            merged: Vec::new(),
        }
    }

    /// Adds (`add`) or removes a sleeper's standing sends from
    /// the per-round bill.
    fn rebill(&mut self, slot: usize, add: bool) {
        for (_, _, msg) in &self.standing[slot] {
            let label = msg.label();
            let same = |l: &str| std::ptr::eq(l, label) || l == label;
            match self.bill.iter_mut().find(|(l, _)| same(l)) {
                Some((_, n)) if add => *n += 1,
                Some((_, n)) => *n -= 1,
                None => self.bill.push((label, 1)),
            }
        }
        let n = self.standing[slot].len() as u64;
        if add {
            self.billed += n;
        } else {
            self.billed -= n;
        }
    }

    /// Wakes `slot` (if asleep) for the round after `now`, catching its
    /// clocks up to `now` first.
    fn wake(&mut self, world: &mut World<P>, slot: usize, now: u64) {
        if !self.asleep.get(slot) {
            return;
        }
        if let Some(proc) = world.procs[slot].as_mut() {
            if self.since[slot] < now {
                proc.catch_up(self.since[slot], now);
            }
        }
        self.since[slot] = now;
        self.asleep.unset(slot);
        self.awake.set(slot);
        self.rebill(slot, false);
    }

    /// The sleepers' standing sends of one round: last round's arrive,
    /// this round's leave.
    fn bill_round(&mut self, world: &mut World<P>) {
        world.metrics.record_delivered_n(self.in_flight);
        self.in_flight = self.billed;
        for &(label, n) in &self.bill {
            if n > 0 {
                world.metrics.record_sent_n(label, n);
            }
        }
    }

    /// Marks the recipients whose messages from one sender differ
    /// between `prev` and `cur` (over-marking when there are many).
    fn disturb_changed(disturbed: &mut Bits, cur: &[Sent<P>], prev: &[Sent<P>]) {
        let same = |a: &Sent<P>, b: &Sent<P>| a.1 == b.1 && P::same_message(&a.2, &b.2);
        if cur.len() == prev.len() && cur.iter().zip(prev).all(|(a, b)| same(a, b)) {
            return;
        }
        let many = cur.len() + prev.len() > 32;
        for &(_, to, _) in cur.iter().chain(prev) {
            let differs = many || {
                let mut a = cur.iter().filter(|s| s.1 == to);
                let mut b = prev.iter().filter(|s| s.1 == to);
                loop {
                    match (a.next(), b.next()) {
                        (None, None) => break false,
                        (Some(x), Some(y)) if same(x, y) => {}
                        _ => break true,
                    }
                }
            };
            if differs {
                disturbed.set(to.raw() as usize);
            }
        }
    }

    /// `fed` becomes the set of this round's sleepers, with the feeder
    /// lists following it.
    fn refeed(&mut self) {
        for w in 0..self.fed.0.len() {
            let (fed, asleep) = (self.fed.0[w], self.asleep.0[w]);
            let mut left = fed & !asleep;
            while left != 0 {
                let slot = w * 64 + left.trailing_zeros() as usize;
                left &= left - 1;
                let standing = std::mem::take(&mut self.standing[slot]);
                for &(_, to, _) in &standing {
                    self.feeders[to.raw() as usize].retain(|&f| f as usize != slot);
                }
                self.standing[slot] = standing;
                self.standing[slot].clear();
            }
            let mut entered = asleep & !fed;
            while entered != 0 {
                let slot = w * 64 + entered.trailing_zeros() as usize;
                entered &= entered - 1;
                for &(_, to, _) in &self.standing[slot] {
                    let list = &mut self.feeders[to.raw() as usize];
                    if let Err(at) = list.binary_search(&(slot as u32)) {
                        list.insert(at, slot as u32);
                    }
                }
            }
            self.fed.0[w] = asleep;
        }
    }
}

impl<P: Process> RoundNetwork<P> {
    /// Creates an engine with no periodic tick.
    pub fn new(seed: u64) -> Self {
        let schedule = RoundSchedule {
            inboxes: Vec::new(),
            scratch: Vec::new(),
            late: Vec::new(),
            late_due: Vec::new(),
            filled: Vec::new(),
            filled_due: Vec::new(),
            overflow: BTreeMap::new(),
            delayed: BTreeMap::new(),
            timers: BTreeMap::new(),
            tick: None,
            round: 0,
            in_round: false,
            sleep: Sleep::new(),
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
        self.wake_all();
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
    /// Queues a message for next round; `false` if `to` is outside the
    /// allocated range (it waits in `overflow`).
    fn enqueue(&mut self, from: ProcessId, to: ProcessId, msg: P::Msg) -> bool {
        match self.inboxes.get_mut(to.raw() as usize) {
            Some(inbox) => {
                if inbox.is_empty() {
                    self.filled.push(to.raw() as usize);
                }
                inbox.push((from, msg));
                true
            }
            None => {
                self.overflow.entry(to).or_default().push((from, msg));
                false
            }
        }
    }

    /// A message arriving between rounds: after the round's senders in
    /// `to`'s inbox, and `to` runs next round.
    fn enqueue_late(&mut self, world: &mut World<P>, from: ProcessId, to: ProcessId, msg: P::Msg) {
        let slot = to.raw() as usize;
        if self.enqueue(from, to, msg) {
            self.late[slot] += 1;
            self.sleep.wake(world, slot, self.round);
        }
    }

    fn run_round(&mut self, world: &mut World<P>) {
        self.round += 1;
        let before = self.round - 1;
        // The accumulating buffers become this round's deliveries; the
        // drained buffers from last round (already empty, capacity
        // intact) start accumulating the next round's messages.
        std::mem::swap(&mut self.inboxes, &mut self.scratch);
        std::mem::swap(&mut self.late, &mut self.late_due);
        std::mem::swap(&mut self.filled, &mut self.filled_due);
        // Forged-destination messages never find a process: drop them
        // with this round.
        for (_, msg) in std::mem::take(&mut self.overflow).into_values().flatten() {
            world.metrics.record_to_dead(&msg);
        }
        // Reordered messages due this round join the delivery buffers;
        // later traffic already overtook them in earlier rounds. Ones
        // addressed outside the allocated range end like overflow.
        for (from, to, msg) in self.delayed.remove(&self.round).unwrap_or_default() {
            let slot = to.raw() as usize;
            match self.scratch.get_mut(slot) {
                Some(buf) => {
                    if buf.is_empty() {
                        self.filled_due.push(slot);
                    }
                    buf.push((from, msg));
                    self.late_due[slot] += 1;
                    self.sleep.wake(world, slot, before);
                }
                None => world.metrics.record_to_dead(&msg),
            }
        }
        let due_timers = self.timers.remove(&self.round).unwrap_or_default();
        for &(at, _) in &due_timers {
            let slot = at.raw() as usize;
            self.sleep.wake(world, slot, before);
            self.sleep.disturbed.set(slot);
        }
        self.sleep.bill_round(world);
        // Nobody sleeps while the RNG could be drawn for a message, a
        // parked message could land, or ticks are off (a process with
        // nothing to do is then not called at all).
        let quiet = self.tick.is_some() && world.links.is_quiet() && self.delayed.is_empty();
        // Whose inbox changes is told by comparing each sender's sends
        // with last round's, so a round may put processes to sleep (or
        // leave them asleep) only if last round's sends were recorded
        // too. Sends are recorded from the round after some process
        // first ended a round with a quiescence key until the plane
        // turns noisy (which wakes everyone): processes that never
        // report one pay nothing, and neither does a round in which
        // nobody can sleep yet, beyond looking for the first key.
        let captured_last = self.sleep.capturing;
        self.sleep.capturing = quiet && (captured_last || self.sleep.keyed);
        let sleepy = captured_last && self.sleep.capturing;
        let mut detecting = quiet && !self.sleep.capturing;
        self.sleep.keyed = false;
        self.in_round = true;
        let mut prev_cursor = 0;
        let mut next = 0;
        // Callbacks cannot add, crash or wake processes, so the awake
        // slots are fixed for the round: walk them in id order.
        while let Some(slot) = self.sleep.awake.next(next) {
            next = slot + 1;
            let id = ProcessId::from_raw(slot as u64);
            let steady_before = sleepy
                && !self.sleep.disturbed.get(slot)
                && world.process(id).is_some_and(|proc| {
                    self.sleep.key_before.clear();
                    proc.quiescence_key(before, &mut self.sleep.key_before)
                });
            let out_start = self.sleep.out.len();
            self.deliver(world, slot);
            // One-shot timers due this round (in most rounds none are,
            // and the scan is over an empty list).
            for (_, timer) in due_timers.iter().filter(|(at, _)| *at == id) {
                world.call(self, id, |proc, ctx| proc.on_timer(timer.clone(), ctx));
            }
            // Periodic tick (the synchronous daemon).
            if let Some(tick) = self.tick.clone() {
                world.call(self, id, |proc, ctx| proc.on_timer(tick, ctx));
            }
            if sleepy {
                self.after_callbacks(world, slot, out_start, &mut prev_cursor, steady_before);
            } else if detecting
                && world.process(id).is_some_and(|proc| {
                    self.sleep.key.clear();
                    proc.quiescence_key(self.round, &mut self.sleep.key)
                })
            {
                self.sleep.keyed = true;
                detecting = false;
            }
        }
        self.in_round = false;
        // What is left in the delivery buffers was addressed to a
        // sleeper (delivered: it expected exactly this) or to a dead
        // process; drop it but keep the buffer capacity.
        for slot in std::mem::take(&mut self.filled_due) {
            let alive = world.procs[slot].is_some();
            for (_, msg) in self.scratch[slot].drain(..) {
                if alive {
                    world.metrics.settle(&msg);
                    world.metrics.record_delivered();
                } else {
                    world.metrics.record_to_dead(&msg);
                }
            }
            self.late_due[slot] = 0;
        }
        self.end_round(world);
    }

    /// Delivers `slot`'s inbox: last round's messages from the awake
    /// senders merged, in sender order, with the standing messages of
    /// last round's sleepers; then what arrived between rounds.
    fn deliver(&mut self, world: &mut World<P>, slot: usize) {
        let id = ProcessId::from_raw(slot as u64);
        let late = std::mem::take(&mut self.late_due[slot]) as usize;
        if late > 0 {
            self.sleep.disturbed.set(slot);
        }
        if self.scratch[slot].is_empty() && self.sleep.feeders[slot].is_empty() {
            return;
        }
        // The buffer is swapped out locally so effects can enqueue into
        // `self` while delivery walks it; it returns cleared, capacity
        // intact.
        let mut deliveries = std::mem::take(&mut self.scratch[slot]);
        if self.sleep.feeders[slot].is_empty() {
            for (from, msg) in deliveries.drain(..) {
                world.metrics.settle(&msg);
                world.metrics.record_delivered();
                world.call(self, id, |proc, ctx| proc.on_message(from, msg, ctx));
            }
        } else {
            let mut merged = std::mem::take(&mut self.sleep.merged);
            let mut round_left = deliveries.len() - late;
            let mut real = deliveries.drain(..).peekable();
            for &feeder in &self.sleep.feeders[slot] {
                while round_left > 0 && real.peek().is_some_and(|m| m.0.raw() < u64::from(feeder)) {
                    let (from, msg) = real.next().expect("peeked");
                    merged.push((from, msg, false));
                    round_left -= 1;
                }
                let standing = &self.sleep.standing[feeder as usize];
                for (from, _, msg) in standing.iter().filter(|s| s.1 == id) {
                    merged.push((*from, msg.clone(), true));
                }
            }
            merged.extend(real.map(|(from, msg)| (from, msg, false)));
            for (from, msg, standing) in merged.drain(..) {
                if !standing {
                    world.metrics.settle(&msg);
                    world.metrics.record_delivered();
                }
                world.call(self, id, |proc, ctx| proc.on_message(from, msg, ctx));
            }
            self.sleep.merged = merged;
        }
        self.scratch[slot] = deliveries;
    }

    /// Bookkeeping after `slot`'s callbacks in a round where sleeping is
    /// possible: whose next inbox its sends changed, and whether it may
    /// sleep.
    fn after_callbacks(
        &mut self,
        world: &World<P>,
        slot: usize,
        out_start: usize,
        prev_cursor: &mut usize,
        steady_before: bool,
    ) {
        let id = ProcessId::from_raw(slot as u64);
        let s = &mut self.sleep;
        // What it sent last round: as a sleeper, its standing messages;
        // else its entries in last round's log.
        let prev: &[Sent<P>] = if s.fed.get(slot) {
            &s.standing[slot]
        } else {
            while s.out_prev.get(*prev_cursor).is_some_and(|m| m.0 < id) {
                *prev_cursor += 1;
            }
            let start = *prev_cursor;
            while s.out_prev.get(*prev_cursor).is_some_and(|m| m.0 == id) {
                *prev_cursor += 1;
            }
            &s.out_prev[start..*prev_cursor]
        };
        Sleep::<P>::disturb_changed(&mut s.disturbed, &s.out[out_start..], prev);
        if !steady_before || s.disturbed.get(slot) {
            return;
        }
        let Some(proc) = world.process(id) else {
            return;
        };
        s.key.clear();
        if !proc.quiescence_key(self.round, &mut s.key) || s.key != s.key_before {
            return;
        }
        // Standing messages go to other live processes and carry no
        // tag: they are billed and delivered without per-tag books.
        let deliverable = s.out[out_start..]
            .iter()
            .all(|(_, to, msg)| *to != id && world.process(*to).is_some() && msg.tag().is_none());
        if deliverable {
            s.candidates.push((slot, out_start, s.out.len()));
        }
    }

    /// The round is over: the feeder lists follow this round's sleepers,
    /// steady processes with an unchanged next inbox fall asleep, and
    /// sleepers whose next inbox changed wake.
    fn end_round(&mut self, world: &mut World<P>) {
        let now = self.round;
        let s = &mut self.sleep;
        s.refeed();
        for (slot, start, end) in std::mem::take(&mut s.candidates) {
            if s.disturbed.get(slot) {
                continue;
            }
            s.standing[slot].clear();
            s.standing[slot].extend_from_slice(&s.out[start..end]);
            s.rebill(slot, true);
            s.asleep.set(slot);
            s.awake.unset(slot);
            s.since[slot] = now;
        }
        let mut next = 0;
        while let Some(slot) = s.disturbed.next(next) {
            next = slot + 1;
            s.wake(world, slot, now);
        }
        s.disturbed.0.fill(0);
        std::mem::swap(&mut s.out, &mut s.out_prev);
        s.out.clear();
    }

    /// Wakes every sleeper that sends to or hears from `id`, which just
    /// crashed, and settles its standing messages in flight to `id`.
    fn crash_wakes(&mut self, world: &mut World<P>, id: ProcessId) {
        let slot = id.raw() as usize;
        let now = self.round;
        let s = &mut self.sleep;
        // Last round's sleepers sent to it: those copies find nobody.
        let feeders = std::mem::take(&mut s.feeders[slot]);
        for &feeder in &feeders {
            let lost = s.standing[feeder as usize]
                .iter()
                .filter(|m| m.1 == id)
                .count() as u64;
            world.metrics.record_to_dead_n(lost);
            s.in_flight -= lost;
        }
        let mut woken: Vec<usize> = feeders.iter().map(|&f| f as usize).collect();
        s.feeders[slot] = feeders;
        s.feeders[slot].clear();
        // This round's new sleepers would send to it next round.
        let mut next = 0;
        while let Some(x) = s.asleep.next(next) {
            next = x + 1;
            if !s.fed.get(x) && s.standing[x].iter().any(|m| m.1 == id) {
                woken.push(x);
            }
        }
        // Whoever it sent to last will miss it.
        let last: &[Sent<P>] = if s.asleep.get(slot) || s.fed.get(slot) {
            &s.standing[slot]
        } else {
            let start = s.out_prev.partition_point(|m| m.0 < id);
            let end = s.out_prev.partition_point(|m| m.0 <= id);
            &s.out_prev[start..end]
        };
        woken.extend(last.iter().map(|m| m.1.raw() as usize));
        if s.asleep.get(slot) {
            s.asleep.unset(slot);
            s.rebill(slot, false);
        }
        s.awake.unset(slot);
        for x in woken {
            if x < s.since.len() {
                s.wake(world, x, now);
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
        let inbox = self.overflow.remove(&id).unwrap_or_default();
        let slot = self.inboxes.len();
        if !inbox.is_empty() {
            self.filled.push(slot);
        }
        self.late.push(inbox.len() as u32);
        self.inboxes.push(inbox);
        self.scratch.push(Vec::new());
        self.late_due.push(0);
        let s = &mut self.sleep;
        for bits in [&mut s.awake, &mut s.asleep, &mut s.fed, &mut s.disturbed] {
            bits.grow(slot + 1);
        }
        s.since.push(self.round);
        s.standing.push(Vec::new());
        s.feeders.push(Vec::new());
        s.awake.set(slot);
    }

    /// The process and its queued messages vanish; whoever sleeps and
    /// talks to it wakes.
    fn crashed(&mut self, world: &mut World<P>, id: ProcessId) {
        for (_, msg) in self.inboxes[id.raw() as usize].drain(..) {
            world.metrics.record_to_dead(&msg);
        }
        self.crash_wakes(world, id);
    }

    /// Normally into next round's inbox, or — under the reorder knob,
    /// drawn for either copy alike — parked for a later round while
    /// its tag stays in flight. Sent outside a round (by a starting
    /// process), it arrives like an injection.
    fn place(
        &mut self,
        world: &mut World<P>,
        from: ProcessId,
        to: ProcessId,
        msg: P::Msg,
        _extra: bool,
    ) {
        if self.in_round && self.sleep.capturing {
            self.sleep.out.push((from, to, msg.clone()));
        }
        match world.reorder_delay() {
            0 if self.in_round => {
                self.enqueue(from, to, msg);
            }
            0 => self.enqueue_late(world, from, to, msg),
            delay => self
                .delayed
                .entry(self.round + 1 + delay)
                .or_default()
                .push((from, to, msg)),
        }
    }

    /// Queued for delivery at the start of the next round, waking `to`.
    fn inject(&mut self, world: &mut World<P>, to: ProcessId, msg: P::Msg) {
        self.enqueue_late(world, to, to, msg);
    }

    fn revived(&mut self, id: ProcessId) {
        let slot = id.raw() as usize;
        self.sleep.awake.set(slot);
        self.sleep.since[slot] = self.round;
    }

    fn wake(&mut self, world: &mut World<P>, id: ProcessId) {
        if (id.raw() as usize) < self.sleep.since.len() {
            self.sleep.wake(world, id.raw() as usize, self.round);
        }
    }

    fn wake_all(&mut self, world: &mut World<P>) {
        let mut next = 0;
        while let Some(slot) = self.sleep.asleep.next(next) {
            next = slot + 1;
            self.sleep.wake(world, slot, self.round);
        }
    }

    fn materialize_clocks(&mut self, world: &mut World<P>) {
        let s = &mut self.sleep;
        let mut next = 0;
        while let Some(slot) = s.asleep.next(next) {
            next = slot + 1;
            if s.since[slot] < self.round {
                if let Some(proc) = world.procs[slot].as_mut() {
                    proc.catch_up(s.since[slot], self.round);
                }
                s.since[slot] = self.round;
            }
        }
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

    /// Beat of a heartbeating tree: up to the parent, ack back down, and
    /// a poke from outside.
    #[derive(Clone, Debug, PartialEq)]
    enum Beat {
        Up,
        Ack,
        Poke,
    }

    impl MessageLabel for Beat {
        fn label(&self) -> &'static str {
            match self {
                Beat::Up => "up",
                Beat::Ack => "ack",
                Beat::Poke => "poke",
            }
        }
    }

    /// Heartbeats its parent every tick, acks every heartbeat, and
    /// counts its callbacks (`calls`, left out of its quiescence key).
    /// A poke arms a one-shot alarm three rounds out.
    #[derive(Clone, Debug)]
    struct Beater {
        parent: Option<ProcessId>,
        now: u64,
        last_ack: u64,
        pokes: u64,
        alarms: u64,
        calls: u64,
    }

    fn beater(parent: Option<ProcessId>) -> Beater {
        Beater {
            parent,
            now: 0,
            last_ack: 0,
            pokes: 0,
            alarms: 0,
            calls: 0,
        }
    }

    impl Process for Beater {
        type Msg = Beat;
        /// `true`: the periodic tick; `false`: a poke's alarm.
        type Timer = bool;

        fn on_message(&mut self, from: ProcessId, msg: Beat, ctx: &mut Context<'_, Beat, bool>) {
            self.calls += 1;
            self.now = ctx.now();
            match msg {
                Beat::Up => ctx.send(from, Beat::Ack),
                Beat::Ack => self.last_ack = self.now,
                Beat::Poke => {
                    self.pokes += 1;
                    ctx.set_timer(3, false);
                }
            }
        }

        fn on_timer(&mut self, tick: bool, ctx: &mut Context<'_, Beat, bool>) {
            self.calls += 1;
            self.now = ctx.now();
            match (tick, self.parent) {
                (true, Some(parent)) => ctx.send(parent, Beat::Up),
                (true, None) => {}
                (false, _) => self.alarms += 1,
            }
        }

        fn quiescence_key(&self, now: u64, key: &mut Vec<u64>) -> bool {
            // A child whose parent went silent would time out: awake.
            if self.parent.is_some() && self.last_ack != now {
                return false;
            }
            key.extend([
                self.pokes,
                self.alarms,
                self.parent.map_or(u64::MAX, |p| p.raw()),
            ]);
            true
        }

        fn same_message(a: &Beat, b: &Beat) -> bool {
            a == b
        }

        fn catch_up(&mut self, since: u64, now: u64) {
            self.now = now;
            if self.last_ack == since {
                self.last_ack = now;
            }
        }
    }

    /// A binary tree of `n` beaters (parent of `i` is `(i - 1) / 2`).
    fn beat_tree(n: u64) -> RoundNetwork<Beater> {
        let mut net = RoundNetwork::with_tick(3, true);
        for i in 0..n {
            let parent = (i > 0).then(|| ProcessId::from_raw((i - 1) / 2));
            net.add_process(beater(parent));
        }
        net
    }

    fn calls(net: &RoundNetwork<Beater>) -> Vec<u64> {
        net.iter().map(|(_, p)| p.calls).collect()
    }

    /// The raw ids of the processes that ran a callback in the next
    /// round.
    fn ran_next_round(net: &mut RoundNetwork<Beater>) -> Vec<u64> {
        let before: Vec<(ProcessId, u64)> = net.iter().map(|(id, p)| (id, p.calls)).collect();
        net.run_round();
        before
            .into_iter()
            .filter(|&(id, n)| net.process(id).is_some_and(|p| p.calls != n))
            .map(|(id, _)| id.raw())
            .collect()
    }

    #[test]
    fn an_idle_round_calls_nobody_and_bills_the_standing_messages() {
        let mut net = beat_tree(15);
        net.run_rounds(6);
        let sent = net.metrics().sent();
        let (up, ack) = (
            net.metrics().label_count("up"),
            net.metrics().label_count("ack"),
        );
        let delivered = net.metrics().delivered();
        assert!(
            ran_next_round(&mut net).is_empty(),
            "an idle round called someone"
        );
        assert!(ran_next_round(&mut net).is_empty());
        let m = net.metrics();
        assert_eq!(
            m.sent(),
            sent + 2 * 2 * 14,
            "two rounds of 14 ups and 14 acks"
        );
        assert_eq!(m.label_count("up"), up + 2 * 14);
        assert_eq!(m.label_count("ack"), ack + 2 * 14);
        assert_eq!(m.delivered(), delivered + 2 * 2 * 14);
    }

    #[test]
    fn a_sleeping_network_equals_one_woken_before_every_round() {
        let mut elided = beat_tree(15);
        let mut eager = beat_tree(15);
        for round in 0..40u64 {
            if round % 9 == 4 {
                for net in [&mut elided, &mut eager] {
                    net.send_external(ProcessId::from_raw(round % 15), Beat::Poke);
                }
            }
            eager.wake_all();
            eager.run_round();
            elided.run_round();
        }
        elided.materialize_clocks();
        let state = |net: &RoundNetwork<Beater>| -> Vec<(u64, u64, u64, u64)> {
            net.iter()
                .map(|(_, p)| (p.now, p.last_ack, p.pokes, p.alarms))
                .collect()
        };
        assert_eq!(state(&elided), state(&eager));
        let (a, b) = (elided.metrics(), eager.metrics());
        assert_eq!(
            (a.sent(), a.delivered(), a.to_dead(), a.per_label()),
            (b.sent(), b.delivered(), b.to_dead(), b.per_label())
        );
        assert!(
            calls(&elided).iter().sum::<u64>() < calls(&eager).iter().sum::<u64>() / 2,
            "the elided network slept"
        );
    }

    #[test]
    fn each_wake_trigger_wakes_exactly_whom_it_names() {
        let mut net = beat_tree(15);
        let settle = |net: &mut RoundNetwork<Beater>| {
            net.run_rounds(4);
            assert!(ran_next_round(net).is_empty(), "settled");
        };
        settle(&mut net);
        let id = ProcessId::from_raw;

        net.process_mut(id(5));
        assert_eq!(ran_next_round(&mut net), [5], "process_mut");
        settle(&mut net);

        net.corrupt(id(6), |p, _| p.pokes += 10);
        assert_eq!(ran_next_round(&mut net), [6], "corrupt");
        settle(&mut net);

        // The poke runs 9 at once; its alarm wakes 9 alone three rounds
        // on, after 9 slept again.
        net.send_external(id(9), Beat::Poke);
        assert_eq!(ran_next_round(&mut net), [9], "send_external");
        assert_eq!(ran_next_round(&mut net), [9], "the inbox without the poke");
        assert!(ran_next_round(&mut net).is_empty());
        assert_eq!(ran_next_round(&mut net), [9], "the timer coming due");
        settle(&mut net);

        // 4 heartbeats 1 and acks 9 and 10: they miss it from the round
        // after next (its last sends still land next round), and 9 and
        // 10, unacked, stay awake until it is back.
        let crashed = net.crash(id(4)).expect("alive");
        assert_eq!(ran_next_round(&mut net), [1, 9, 10], "crash");
        net.revive(id(4), crashed);
        assert_eq!(ran_next_round(&mut net), [1, 4, 9, 10], "revive");
        settle(&mut net);

        let _ = net.iter_mut().count();
        assert_eq!(ran_next_round(&mut net).len(), 15, "iter_mut");
        settle(&mut net);
        net.wake_all();
        assert_eq!(ran_next_round(&mut net).len(), 15, "wake_all");
        settle(&mut net);
        net.set_faults(FaultProfile::default());
        assert_eq!(ran_next_round(&mut net).len(), 15, "a fault-plane change");
        settle(&mut net);

        // While a link is down, nobody sleeps.
        net.block_link(id(14), id(6));
        for _ in 0..5 {
            assert_eq!(ran_next_round(&mut net).len(), 15, "under a blocked link");
        }
    }
}
