//! What the two engines are made of: one process table, one RNG, one
//! [`Metrics`], one fault plane ([`crate::fault`]) — and, apart, the
//! [`Schedule`] that holds what is in flight and decides when it lands.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::context::Effects;
use crate::fault::Links;
use crate::{Context, Metrics, Process, ProcessId};

/// A simulated network of processes `P` whose messages and timers are
/// released by the schedule `Q`.
///
/// Everything a harness does to a network — add, crash, revive and
/// corrupt processes, inject messages, cut links, turn fault knobs,
/// read [`Metrics`] — is defined here once. The two engines are its two
/// instantiations, [`crate::RoundNetwork`] and [`crate::EventNetwork`],
/// which add only their constructors and their own ways of running.
/// Code that drives either engine is generic over `Q: `[`Schedule`]`<P>`
/// and moves the clock with [`Network::advance`]; a network whose
/// engine is picked at runtime is a [`DynNetwork`].
///
/// Ids are assigned densely from 0 and never reused, so processes live
/// in a flat `Vec` indexed by raw id (a crashed process leaves a `None`
/// slot).
#[derive(Clone)]
pub struct Network<P: Process, Q: ?Sized> {
    pub(crate) world: World<P>,
    pub(crate) queue: Q,
}

/// A [`Network`] behind a pointer, its engine chosen at runtime:
/// `Box<RoundNetwork<P>>` and `Box<EventNetwork<P>>` both coerce to
/// `Box<DynNetwork<P>>`, and every method of this module works on it.
pub type DynNetwork<P> = Network<P, dyn Schedule<P>>;

/// Everything of a [`Network`] but its schedule: what a [`Schedule`]
/// is lent while it runs callbacks. Opaque outside this crate — only
/// the two engines here can run a callback on it, which is what keeps
/// [`Schedule`] to two implementations.
#[derive(Clone)]
pub struct World<P: Process> {
    /// `procs[raw_id]`; `None` after a crash (ids are never reused).
    pub(crate) procs: Vec<Option<P>>,
    /// Live-process count (`procs` slots that are `Some`).
    live: usize,
    pub(crate) rng: StdRng,
    pub(crate) metrics: Metrics,
    pub(crate) links: Links,
    /// The effect buffers lent to every callback's [`Context`]; empty
    /// between callbacks, reused callback over callback.
    effects: Effects<P::Msg, P::Timer>,
}

/// What an engine owns alone: the messages and timers in flight, and
/// the clock that releases them. Implemented by
/// [`crate::RoundSchedule`] and [`crate::EventSchedule`]; the hooks are
/// called by [`Network`], never by a harness.
pub trait Schedule<P: Process> {
    /// The clock: rounds completed, or simulated time.
    fn now(&self) -> u64;

    /// Clock units in which every live process runs its periodic timer
    /// once, for processes that would re-arm themselves every
    /// `interval` units: one round under the synchronous daemon, which
    /// ticks everybody itself; `interval` in event time.
    fn period(&self, interval: u64) -> u64;

    /// A process slot was allocated for `id`.
    fn allocate(&mut self, _id: ProcessId) {}

    /// `id` crashed. What is queued for it leaves the books as
    /// [`Metrics::to_dead`] — now, or when it would have arrived.
    fn crashed(&mut self, _world: &mut World<P>, _id: ProcessId) {}

    /// Puts one copy of a message the fault plane admitted in flight,
    /// drawing what the engine draws to place it (latency, the reorder
    /// knob) in the engine's own order. `extra` marks the duplication
    /// knob's second copy, placed before the original.
    fn place(
        &mut self,
        world: &mut World<P>,
        from: ProcessId,
        to: ProcessId,
        msg: P::Msg,
        extra: bool,
    );

    /// Puts an external injection in flight (never faulted; `from` is
    /// the destination itself, which protocols treat as a stimulus).
    fn inject(&mut self, world: &mut World<P>, to: ProcessId, msg: P::Msg);

    /// Arms a one-shot timer on `at`, `delay` clock units from now.
    fn arm(&mut self, at: ProcessId, delay: u64, timer: P::Timer);

    /// Moves the clock `span` units on, running every callback that
    /// falls due.
    fn advance(&mut self, world: &mut World<P>, span: u64);
}

/// The live process at `id`, if any. Over the table alone, so a caller
/// can hold the process beside the RNG or the effect buffers.
fn live_mut<P>(procs: &mut [Option<P>], id: ProcessId) -> Option<&mut P> {
    procs.get_mut(id.raw() as usize).and_then(Option::as_mut)
}

impl<P: Process> World<P> {
    pub(crate) fn process(&self, id: ProcessId) -> Option<&P> {
        self.procs.get(id.raw() as usize).and_then(Option::as_ref)
    }

    /// Runs one callback of `id` — nothing if it is not alive — on the
    /// lent effect buffers, then applies what it sent and armed.
    pub(crate) fn call<Q: Schedule<P> + ?Sized>(
        &mut self,
        queue: &mut Q,
        id: ProcessId,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Msg, P::Timer>),
    ) {
        let Some(proc) = live_mut(&mut self.procs, id) else {
            return;
        };
        let mut ctx = Context::new(id, queue.now(), &mut self.rng, &mut self.effects);
        f(proc, &mut ctx);
        self.apply_effects(queue, id);
    }

    /// Applies and empties the effect buffers `from`'s callback filled:
    /// decides the fate of every message it sent (once, in
    /// [`World::admit`]) and hands `queue` the survivors and the timers
    /// it armed. One body for every kind of callback.
    fn apply_effects<Q: Schedule<P> + ?Sized>(&mut self, queue: &mut Q, from: ProcessId) {
        self.metrics.record_marks(from, &mut self.effects.2);
        let mut outbox = std::mem::take(&mut self.effects.0);
        let mut timer_requests = std::mem::take(&mut self.effects.1);
        for (to, msg) in outbox.drain(..) {
            if let Some(duplicate) = self.admit(from, to, &msg) {
                if duplicate {
                    queue.place(self, from, to, msg.clone(), true);
                }
                queue.place(self, from, to, msg, false);
            }
        }
        for (delay, timer) in timer_requests.drain(..) {
            queue.arm(from, delay, timer);
        }
        (self.effects.0, self.effects.1) = (outbox, timer_requests);
    }
}

impl<P: Process, Q: Schedule<P>> Network<P, Q> {
    pub(crate) fn with_schedule(seed: u64, queue: Q) -> Self {
        let world = World {
            procs: Vec::new(),
            live: 0,
            rng: StdRng::seed_from_u64(seed),
            metrics: Metrics::new(),
            links: Links::default(),
            effects: Effects::default(),
        };
        Self { world, queue }
    }
}

impl<P: Process, Q: Schedule<P> + ?Sized> Network<P, Q> {
    /// Adds a process, assigns it a fresh id, and calls
    /// [`Process::on_start`].
    pub fn add_process(&mut self, process: P) -> ProcessId {
        let id = ProcessId::from_raw(self.world.procs.len() as u64);
        self.world.procs.push(Some(process));
        self.world.live += 1;
        self.queue.allocate(id);
        self.world
            .call(&mut self.queue, id, |proc, ctx| proc.on_start(ctx));
        id
    }

    /// The engine's clock: rounds completed so far, or simulated time.
    pub fn now(&self) -> u64 {
        self.queue.now()
    }

    /// See [`Schedule::period`].
    pub fn period(&self, interval: u64) -> u64 {
        self.queue.period(interval)
    }

    /// Moves the clock `span` units on: `span` rounds, or every event
    /// up to `now + span`.
    pub fn advance(&mut self, span: u64) {
        self.queue.advance(&mut self.world, span);
    }

    /// Ids of live processes, in id order.
    pub fn ids(&self) -> Vec<ProcessId> {
        self.iter().map(|(id, _)| id).collect()
    }

    /// Number of live processes.
    pub fn len(&self) -> usize {
        self.world.live
    }

    /// `true` if no process is alive.
    pub fn is_empty(&self) -> bool {
        self.world.live == 0
    }

    /// `true` if `id` refers to a live process.
    pub fn is_alive(&self, id: ProcessId) -> bool {
        self.process(id).is_some()
    }

    /// Shared view of a live process.
    pub fn process(&self, id: ProcessId) -> Option<&P> {
        self.world.process(id)
    }

    /// Mutable access to a live process. Intended for harness
    /// bookkeeping; for *adversarial* state mutation use
    /// [`Network::corrupt`].
    pub fn process_mut(&mut self, id: ProcessId) -> Option<&mut P> {
        live_mut(&mut self.world.procs, id)
    }

    /// Iterates over `(id, process)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &P)> {
        self.world
            .procs
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().map(|p| (ProcessId::from_raw(i as u64), p)))
    }

    /// Mutable [`Network::iter`] (harness bookkeeping over every live
    /// process without collecting [`Network::ids`]).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (ProcessId, &mut P)> {
        self.world
            .procs
            .iter_mut()
            .enumerate()
            .filter_map(|(i, p)| p.as_mut().map(|p| (ProcessId::from_raw(i as u64), p)))
    }

    /// Message metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.world.metrics
    }

    /// Resets metrics between experiment phases.
    pub fn reset_metrics(&mut self) {
        self.world.metrics.reset();
    }

    /// Deterministic per-network randomness for harness decisions.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.world.rng
    }

    /// Crashes `id` (the paper's *uncontrolled departure*): the process
    /// vanishes silently, and messages addressed to it count as
    /// [`Metrics::to_dead`]. Returns the final state, if the process
    /// was alive.
    pub fn crash(&mut self, id: ProcessId) -> Option<P> {
        let departed = self.world.procs.get_mut(id.raw() as usize)?.take();
        if departed.is_some() {
            self.world.live -= 1;
            self.queue.crashed(&mut self.world, id);
        }
        departed
    }

    /// Reinstalls a process at a previously crashed id — the rejoin
    /// half of the broker crash/rejoin fault pair. The caller supplies
    /// the restarted state (warm: restored from a checkpoint; cold:
    /// fresh and empty — the engine does not keep crashed state).
    /// [`Process::on_start`] runs again, messages still in flight for
    /// the id deliver normally once it is alive again (the id was
    /// dangling, not retired), and the id keeps its place in
    /// [`Network::ids`]. Returns `false` if the id is still alive or
    /// was never allocated.
    pub fn revive(&mut self, id: ProcessId, process: P) -> bool {
        match self.world.procs.get_mut(id.raw() as usize) {
            Some(slot @ None) => {
                *slot = Some(process);
                self.world.live += 1;
                self.world
                    .call(&mut self.queue, id, |proc, ctx| proc.on_start(ctx));
                true
            }
            _ => false,
        }
    }

    /// Applies an adversarial mutation to a live process's memory (the
    /// paper's *transient fault*). Returns `false` if the process is
    /// not alive.
    pub fn corrupt(&mut self, id: ProcessId, mutate: impl FnOnce(&mut P, &mut StdRng)) -> bool {
        let World { procs, rng, .. } = &mut self.world;
        let Some(p) = live_mut(procs, id) else {
            return false;
        };
        mutate(p, rng);
        true
    }

    /// Injects a message from outside the system: billed like any
    /// send, never faulted, delivered on the engine's normal schedule.
    pub fn send_external(&mut self, to: ProcessId, msg: P::Msg) {
        self.world.metrics.record_send(&msg);
        self.queue.inject(&mut self.world, to, msg);
    }

    /// Hands the harness every mark made since the last drain (see
    /// [`Metrics::marks`]) and empties the log, capacity kept.
    pub fn drain_marks(&mut self) -> std::vec::Drain<'_, (u64, ProcessId)> {
        self.world.metrics.drain_marks()
    }

    /// Forgets a tag's message counters (see [`Metrics::clear_tag`]).
    pub fn clear_tag(&mut self, tag: u64) {
        self.world.metrics.clear_tag(tag);
    }

    /// Retires every tag below `floor` (see
    /// [`Metrics::retire_tags_below`]).
    pub fn retire_tags_below(&mut self, floor: u64) {
        self.world.metrics.retire_tags_below(floor);
    }
}

impl<P: Process, Q: Schedule<P> + ?Sized> std::fmt::Debug for Network<P, Q> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("now", &self.now())
            .field("processes", &self.len())
            .finish()
    }
}
