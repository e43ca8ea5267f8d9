//! High-level harness: a whole DR-tree overlay in one value.
//!
//! [`Overlay`] wraps a simulation engine with everything an experiment
//! needs: subscribing (the join protocol, Fig. 8), controlled
//! departures (Fig. 9) and crashes, publishing events with delivery
//! accounting (§2.3 dissemination), the contact oracle (§3.2), the
//! Definition-3.1/3.2 legality check driven by the CHECK_\*
//! stabilization modules (Figs. 10–14), the fault and link controls,
//! and structural statistics (height, degrees, memory — Lemma 3.1). It
//! is written once, generic over the engine's [`Schedule`], and runs in
//! *steps*: the span of the engine's clock in which every node runs
//! its periodic checks once — the one thing the driver asks its engine
//! ([`drtree_sim::Network::period`]).
//!
//! [`DrTreeCluster`] is the driver on the synchronous round engine: a
//! step is one round, the paper's "step", and messages take one round
//! per hop — the right ruler for the stabilization lemmas.
//! [`AsyncDrTreeCluster`](crate::AsyncDrTreeCluster) is the same driver
//! on the event engine, where a step is one
//! [`DrTreeConfig::tick_interval`] of simulated time.
//!
//! Publishing comes in two shapes:
//!
//! * [`Overlay::publish_from`] — the paper's measurement unit: one
//!   event, drained to quiescence before the next may enter.
//! * [`Overlay::publish_pipeline`] — the scaling path: a sliding window
//!   of events disseminates concurrently, sharing steps, while tagged
//!   message accounting keeps every per-event figure exact (see
//!   [`drtree_sim::MsgTag`]).

use rand::rngs::StdRng;

use drtree_sim::{Metrics, Network, ProcessId, RoundNetwork, RoundSchedule, Schedule};
use drtree_spatial::{Point, Rect};

use crate::config::DrTreeConfig;
use crate::contact::ContactOracle;
use crate::corruption::CorruptionKind;
use crate::legal::{self, Snapshot, Violation};
use crate::message::{DrtMessage, DrtTimer, PubEvent};
use crate::protocol::node::{DrtNode, TOPOLOGY_MARK};

/// Outcome of a single published event (the measurement unit of the
/// false-positive/false-negative experiments).
#[derive(Debug, Clone)]
pub struct PublishReport {
    /// The event id assigned by the cluster.
    pub event_id: u64,
    /// Every process that received the event (publisher excluded).
    pub receivers: Vec<ProcessId>,
    /// Subscribers whose filter matches the event (publisher excluded).
    pub matching: Vec<ProcessId>,
    /// Receivers whose filter does not match (§2.3 false positives).
    pub false_positives: Vec<ProcessId>,
    /// Matching subscribers that did not receive the event (§2.3 false
    /// negatives — zero in legitimate configurations).
    pub false_negatives: Vec<ProcessId>,
    /// `PubDown`/`PubUp` messages spent on this event. Tag-scoped:
    /// exact for this event even when dissemination of several events
    /// overlaps in the network ([`Overlay::publish_pipeline`]).
    pub messages: u64,
    /// What the dissemination took on the engine's clock (rounds, or
    /// simulated time): the fixed drain budget for
    /// [`Overlay::publish_from`], the measured injection-to-quiescence
    /// span for [`Overlay::publish_pipeline`].
    pub rounds: u64,
}

impl PublishReport {
    /// The report of an event whose dissemination is still running.
    fn pending(event_id: u64) -> Self {
        Self {
            event_id,
            receivers: Vec::new(),
            matching: Vec::new(),
            false_positives: Vec::new(),
            false_negatives: Vec::new(),
            messages: 0,
            rounds: 0,
        }
    }

    /// False-positive rate among receivers (0 when nobody received).
    pub fn false_positive_rate(&self) -> f64 {
        if self.receivers.is_empty() {
            return 0.0;
        }
        self.false_positives.len() as f64 / self.receivers.len() as f64
    }
}

/// Delivery accounting of the publish call in progress — the one
/// routine behind `publish_from` and `publish_pipeline_from`. What an
/// event costs here is its receivers: deliveries are
/// booked from the engine's mark log as they happen
/// ([`drtree_sim::Context::mark`]), never by probing every node.
#[derive(Debug, Clone, Default)]
struct Accounting {
    /// One report per event of the call, in input order. A call's event
    /// ids are consecutive, so `reports[i]` belongs to event
    /// `first_event + i`. Empty between calls.
    reports: Vec<PublishReport>,
    first_event: u64,
}

impl Accounting {
    /// Opens the accounts of a call about to inject `events` events
    /// under the ids `first_event..`.
    fn open(&mut self, first_event: u64, events: usize) {
        self.first_event = first_event;
        self.reports = (first_event..)
            .take(events)
            .map(PublishReport::pending)
            .collect();
    }

    /// Books the deliveries the engine logged since the last call.
    /// Marks of events outside the open call — background traffic
    /// nobody accounts, stragglers of a force-finalized event — are
    /// dropped, so nothing accumulates. Returns whether some node moved
    /// its topmost parent pointer ([`TOPOLOGY_MARK`]).
    fn absorb(&mut self, marks: impl Iterator<Item = (u64, ProcessId)>) -> bool {
        let mut reparented = false;
        for (event_id, receiver) in marks {
            if event_id == TOPOLOGY_MARK {
                reparented = true;
                continue;
            }
            let index = usize::try_from(event_id.wrapping_sub(self.first_event));
            if let Some(report) = index.ok().and_then(|i| self.reports.get_mut(i)) {
                report.receivers.push(receiver);
            }
        }
        reparented
    }

    /// Event `index` of the call went quiescent (or was force-
    /// finalized): records its message bill and dissemination span.
    fn settle(&mut self, index: usize, messages: u64, rounds: u64) {
        let report = &mut self.reports[index];
        report.messages = messages;
        report.rounds = rounds;
    }

    /// Closes the call over the live `nodes` (ascending ids) and
    /// `events`, the call's input: who should have received each event
    /// — one pass over the nodes, each filter read once and tested
    /// against the call's points — and, against the booked receivers,
    /// who wrongly did or did not. Every list ascends by id.
    fn close<'a, const D: usize>(
        &mut self,
        nodes: impl Iterator<Item = (ProcessId, &'a DrtNode<D>)>,
        events: &[(ProcessId, Point<D>)],
    ) -> Vec<PublishReport> {
        let mut reports = std::mem::take(&mut self.reports);
        // The call's events by their first coordinate: a filter is
        // tested against the run of events its extent on that axis
        // admits, not against every point of the call.
        let mut by_x: Vec<(f64, usize)> = events
            .iter()
            .enumerate()
            .map(|(i, (_, point))| (point.coord(0), i))
            .collect();
        by_x.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        for (id, node) in nodes {
            let filter = node.filter();
            let from = by_x.partition_point(|&(x, _)| x < filter.lo(0));
            for &(_, i) in by_x[from..].iter().take_while(|&&(x, _)| x <= filter.hi(0)) {
                let (publisher, point) = events[i];
                if filter.contains_point(&point) && id != publisher {
                    reports[i].matching.push(id);
                }
            }
        }
        for report in &mut reports {
            // A corrupted overlay can route an event back to a node
            // whose ring already forgot it: one delivery all the same.
            report.receivers.sort_unstable();
            report.receivers.dedup();
            report.false_positives = difference(&report.receivers, &report.matching);
            report.false_negatives = difference(&report.matching, &report.receivers);
        }
        reports
    }
}

/// `a \ b`; all three ascend by id.
fn difference(a: &[ProcessId], b: &[ProcessId]) -> Vec<ProcessId> {
    let mut b = b.iter().peekable();
    a.iter()
        .copied()
        .filter(|&id| {
            while b.next_if(|&&other| other < id).is_some() {}
            b.peek() != Some(&&id)
        })
        .collect()
}

/// A complete simulated DR-tree overlay, on whichever engine holds the
/// schedule `Q`. Use it through its two names: [`DrTreeCluster`] (round
/// engine) and [`AsyncDrTreeCluster`](crate::AsyncDrTreeCluster) (event
/// engine). Every operation is defined here once; the names add their
/// constructors and, for rounds, the round vocabulary.
#[derive(Clone)]
pub struct Overlay<const D: usize, Q> {
    pub(crate) net: Network<DrtNode<D>, Q>,
    config: DrTreeConfig,
    pub(crate) next_event_id: u64,
    /// Every id ever allocated (for adversarial corruption universes).
    all_ids: Vec<ProcessId>,
    /// Scratch of the per-step contact computation.
    oracle: ContactOracle,
    /// The oracle's last answer, while no input of it changed: no node
    /// moved its topmost parent ([`TOPOLOGY_MARK`]), none was added,
    /// crashed or corrupted.
    contact: Option<Option<ProcessId>>,
    /// The answer every live node's contact hint reflects, if one does.
    hinted: Option<Option<ProcessId>>,
    accounting: Accounting,
}

/// A complete simulated DR-tree overlay on the round-based engine.
///
/// See the [crate documentation](crate) for a quick-start example.
///
/// # Example: sequential vs pipelined publish
///
/// ```
/// use drtree_core::{DrTreeCluster, DrTreeConfig};
/// use drtree_spatial::{Point, Rect};
///
/// let filters: Vec<Rect<2>> = (0..12)
///     .map(|i| {
///         let x = f64::from(i % 4) * 10.0;
///         let y = f64::from(i / 4) * 10.0;
///         Rect::new([x, y], [x + 12.0, y + 12.0])
///     })
///     .collect();
/// // `build_bulk` materializes a legal overlay without protocol joins.
/// let mut sequential: DrTreeCluster<2> =
///     DrTreeCluster::build_bulk(DrTreeConfig::default(), 7, &filters);
/// let mut pipelined = sequential.clone();
/// let ids = sequential.ids();
/// let events: Vec<_> = (0..6)
///     .map(|i| (ids[i], Point::new([3.0 * i as f64 + 1.0, 11.0])))
///     .collect();
///
/// // The paper's measurement mode: one event at a time, each drained
/// // to quiescence before the next enters the network.
/// let before = sequential.round();
/// let seq: Vec<_> = events
///     .iter()
///     .map(|&(publisher, point)| sequential.publish_from(publisher, point))
///     .collect();
/// let seq_rounds = sequential.round() - before;
///
/// // The scaling mode: a window of events shares dissemination rounds.
/// let before = pipelined.round();
/// let pipe = pipelined.publish_pipeline_from(&events, 4);
/// let pipe_rounds = pipelined.round() - before;
///
/// // Same deliveries and per-event message bills, fewer total rounds.
/// for (a, b) in seq.iter().zip(&pipe) {
///     assert_eq!(a.receivers, b.receivers);
///     assert_eq!(a.messages, b.messages);
/// }
/// assert!(pipe_rounds < seq_rounds);
/// ```
pub type DrTreeCluster<const D: usize> = Overlay<D, RoundSchedule<DrtNode<D>>>;

impl<const D: usize> DrTreeCluster<D> {
    /// Creates an empty overlay with deterministic seed.
    pub fn new(config: DrTreeConfig, seed: u64) -> Self {
        Self::over(RoundNetwork::with_tick(seed, DrtTimer::Tick), config)
    }

    /// Builds an overlay over `filters`, one stable join at a time, and
    /// stabilizes it. Panics if the overlay cannot reach a legal
    /// configuration — construction from a quiescent state always can.
    pub fn build(config: DrTreeConfig, seed: u64, filters: &[Rect<D>]) -> Self {
        let mut cluster = Self::new(config, seed);
        for f in filters {
            cluster.add_subscriber_stable(*f);
        }
        cluster
            .stabilize(10_000 + 50 * filters.len() as u64)
            .expect("freshly built overlay stabilizes");
        cluster
    }

    /// Builds an overlay over `filters` by materializing a legitimate
    /// configuration directly (Hilbert-ordered grouping, largest-MBR
    /// owners — see [`crate::bulk`]) instead of running one join
    /// protocol instance per subscriber.
    ///
    /// Protocol-equivalent from the outside: the result passes
    /// [`Overlay::check_legal`] (asserted), so every subsequent
    /// operation — publishes, churn, corruption, stabilization — runs
    /// the unmodified protocol on it. [`DrTreeCluster::build`] costs
    /// `O(N²)` simulation work and dominates large experiments; this
    /// path is `O(N log N)` and makes 10k+-subscriber benches
    /// practical.
    ///
    /// # Panics
    ///
    /// Panics if the materialized configuration is not legal (a bug,
    /// not an input condition: any finite filter set has one).
    pub fn build_bulk(config: DrTreeConfig, seed: u64, filters: &[Rect<D>]) -> Self {
        Self::new(config, seed).materialize(filters)
    }

    /// Suspends or resumes the periodic stabilization tick (the ∆
    /// windows of Lemma 3.7 are simulated by suspending it).
    pub fn set_stabilization_enabled(&mut self, enabled: bool) {
        self.net.set_tick(enabled.then_some(DrtTimer::Tick));
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.now()
    }

    /// Executes one round (refreshing the contact oracle first).
    pub fn run_round(&mut self) {
        self.run_for(1);
    }

    /// Executes `n` rounds.
    pub fn run_rounds(&mut self, n: u64) {
        self.run_for(n);
    }
}

impl<const D: usize, Q: Schedule<DrtNode<D>>> Overlay<D, Q> {
    /// Upper bound on the [`Overlay::publish_pipeline`] window: half
    /// the capacity of a node's recently-seen ring.
    ///
    /// Deliveries are accounted from the engine's mark log, so the ring
    /// no longer has to remember an event until its report is written;
    /// what is left is its job as the routing-loop guard of a corrupted
    /// overlay. A node on a forged cycle sees every event in flight, at
    /// most one window of them at a time; with the window at half the
    /// ring it still recognises a circulating event after a whole
    /// second window has passed through it. Termination never rests on
    /// the ring — the call's deadline force-finalizes what still
    /// circulates — and the default ingress sweep (8 queues × 64) fits
    /// in one fill.
    pub const MAX_PUBLISH_WINDOW: usize = crate::protocol::node::RECENT_EVENTS / 2;

    /// An empty overlay on `net`.
    pub(crate) fn over(net: Network<DrtNode<D>, Q>, config: DrTreeConfig) -> Self {
        Self {
            net,
            config,
            next_event_id: 0,
            all_ids: Vec::new(),
            oracle: ContactOracle::default(),
            contact: None,
            hinted: None,
            accounting: Accounting::default(),
        }
    }

    /// Fills an empty overlay with the legitimate configuration
    /// [`crate::bulk`] computes over `filters` — the body of both
    /// `build_bulk` constructors.
    pub(crate) fn materialize(mut self, filters: &[Rect<D>]) -> Self {
        let config = self.config;
        let ids: Vec<ProcessId> = filters
            .iter()
            .map(|&f| {
                let id = self.net.add_process(DrtNode::new(config, f));
                self.all_ids.push(id);
                id
            })
            .collect();
        for (id, state) in crate::bulk::bulk_states(&config, &ids, filters) {
            if let Some(node) = self.net.process_mut(id) {
                *node.state_mut() = state;
            }
        }
        self.contact = None;
        // Two steps warm the heartbeat caches; on a legal state the
        // CHECK_* modules are no-ops.
        self.run_for(2 * self.step());
        if let Err(v) = self.check_legal() {
            panic!("bulk-built overlay is not legal: {v:?}");
        }
        self
    }

    /// The overlay configuration.
    pub fn config(&self) -> &DrTreeConfig {
        &self.config
    }

    /// Number of live subscribers.
    pub fn len(&self) -> usize {
        self.net.len()
    }

    /// `true` when no subscriber is live.
    pub fn is_empty(&self) -> bool {
        self.net.is_empty()
    }

    /// Ids of live subscribers.
    pub fn ids(&self) -> Vec<ProcessId> {
        self.net.ids()
    }

    /// The engine's clock: rounds executed, or simulated time.
    pub fn now(&self) -> u64 {
        self.net.now()
    }

    /// Message metrics of the underlying network.
    pub fn metrics(&self) -> &Metrics {
        self.net.metrics()
    }

    /// Resets message metrics (between experiment phases).
    pub fn reset_metrics(&mut self) {
        self.net.reset_metrics();
    }

    /// Deterministic randomness for harness decisions.
    pub fn rng(&mut self) -> &mut StdRng {
        self.net.rng()
    }

    /// Shared view of one subscriber process.
    pub fn node(&self, id: ProcessId) -> Option<&DrtNode<D>> {
        self.net.process(id)
    }

    /// Adds a subscriber with `filter`. It joins the overlay through the
    /// contact oracle during the following steps.
    pub fn add_subscriber(&mut self, filter: Rect<D>) -> ProcessId {
        let node = DrtNode::new(self.config, filter);
        let id = self.net.add_process(node);
        self.all_ids.push(id);
        self.contact = None;
        let contact = self.fresh_contact();
        if let Some(n) = self.net.process_mut(id) {
            n.set_contact_hint(contact.or(Some(id)));
        }
        if self.hinted != Some(contact) {
            self.hinted = None;
        }
        id
    }

    /// Adds a subscriber and runs steps until it is attached to the
    /// main tree (or the join budget elapses). Returns the id.
    pub fn add_subscriber_stable(&mut self, filter: Rect<D>) -> ProcessId {
        let id = self.add_subscriber(filter);
        // One oracle call per state: the answer that sizes the budget
        // and tests attachment also steers the step that follows.
        let mut contact = self.fresh_contact();
        let max_steps =
            40 + 4 * (u64::from(self.height_under(contact)) + 2) + self.config.join_retry;
        for _ in 0..max_steps {
            let joined = self
                .node(id)
                .is_some_and(|n| !n.believes_root() || contact == Some(id));
            if joined {
                break;
            }
            self.advance_with(contact, self.step());
            contact = self.fresh_contact();
        }
        self.net.materialize_clocks();
        id
    }

    /// One step of the driver on its engine's clock: the span in which
    /// every node runs its periodic CHECK_* modules once (a round, or
    /// one tick interval of simulated time).
    fn step(&self) -> u64 {
        self.net.period(self.config.tick_interval)
    }

    /// Advances the clock by `span`, refreshing the contact oracle at
    /// step granularity.
    pub fn run_for(&mut self, span: u64) {
        self.run_span(span);
        self.net.materialize_clocks();
    }

    /// [`Overlay::run_for`], leaving sleeping nodes' clocks behind: the
    /// body of every public call that runs steps, each of which
    /// materializes the clocks once before it returns.
    pub(crate) fn run_span(&mut self, span: u64) {
        let step = self.step();
        let deadline = self.now() + span;
        while self.now() < deadline {
            let contact = self.fresh_contact();
            self.advance_with(contact, step.min(deadline - self.now()));
        }
    }

    /// Wakes every node (see [`drtree_sim::RoundSchedule`]): each runs
    /// in the next round however quiescent it is. Calling this before
    /// every round gives the run in which no node ever sleeps, which an
    /// elided run equals.
    pub fn wake_all(&mut self) {
        self.net.wake_all();
    }

    /// Advances by `span` (at most a step) under `contact`, the
    /// oracle's answer on this state. Hints are rewritten (which wakes
    /// every node) only when the answer changed.
    fn advance_with(&mut self, contact: Option<ProcessId>, span: u64) {
        if self.hinted != Some(contact) {
            for (id, n) in self.net.iter_mut() {
                n.set_contact_hint(contact.or(Some(id)));
            }
            self.hinted = Some(contact);
        }
        self.net.advance(span);
        if self.accounting.absorb(self.net.drain_marks()) {
            self.contact = None;
        }
    }

    /// [`Overlay::contact`] on the cluster's reused scratch, rerun only
    /// when one of its inputs changed since the last answer.
    fn fresh_contact(&mut self) -> Option<ProcessId> {
        if let Some(contact) = self.contact {
            return contact;
        }
        let tops = self.net.iter().map(|(id, n)| (id, n.parent_of(n.top())));
        let contact = self.oracle.root(self.all_ids.len(), tops);
        self.contact = Some(contact);
        contact
    }

    fn height_under(&self, contact: Option<ProcessId>) -> u32 {
        contact.and_then(|r| self.node(r)).map_or(0, |n| n.top())
    }

    /// Steps a dissemination is given to cross the tree twice over (up
    /// and down) in a steady state of the height under `contact`.
    fn drain_steps(&self, contact: Option<ProcessId>) -> u64 {
        2 * (u64::from(self.height_under(contact)) + 2) + 2
    }

    /// Runs until the configuration is legitimate (Definition 3.2),
    /// checking every step. Returns what it took on the engine's clock
    /// (rounds, or simulated time), or `None` once `max` has elapsed.
    pub fn stabilize(&mut self, max: u64) -> Option<u64> {
        let start = self.now();
        let took = loop {
            // Legality reads no clock, so the clocks wait for the end.
            if self.check_legal().is_ok() {
                break Some(self.now() - start);
            }
            if self.now() - start >= max {
                break None;
            }
            self.run_span(self.step());
        };
        self.net.materialize_clocks();
        took
    }

    /// Checks Definition 3.1/3.2 on the current global state.
    ///
    /// # Errors
    ///
    /// Returns every violated condition.
    pub fn check_legal(&self) -> Result<(), Vec<Violation>> {
        let v = legal::check_legal(&self.snapshot(), &self.config);
        if v.is_empty() {
            Ok(())
        } else {
            Err(v)
        }
    }

    /// Clones the state of every live process.
    pub fn snapshot(&self) -> Snapshot<D> {
        self.net
            .iter()
            .map(|(id, n)| (id, n.state().clone()))
            .collect()
    }

    /// FNV-1a over every live node's [timestamp-free
    /// projection](DrtNode) in id order: parent pointers, instance MBRs
    /// and cached children, no clocks. Two equal digests a check stride
    /// apart mean no reorganization is still playing out in the message
    /// queues. Reads the nodes in place.
    pub fn structure_digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for (_, node) in self.net.iter() {
            node.structure_words(|word| {
                for b in word.to_le_bytes() {
                    hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            });
        }
        hash
    }

    /// The contact oracle (§3.2): the root of the largest tree
    /// component — "a subscriber already in the structure".
    pub fn contact(&self) -> Option<ProcessId> {
        let tops = self.net.iter().map(|(id, n)| (id, n.parent_of(n.top())));
        ContactOracle::default().root(self.all_ids.len(), tops)
    }

    /// The overlay root (the contact, in a legal configuration).
    pub fn root(&self) -> Option<ProcessId> {
        self.contact()
    }

    /// Height of the main tree: the root's topmost level (leaf-only
    /// root = 0). Lemma 3.1 bounds this by `O(log_m N)`.
    pub fn height(&self) -> u32 {
        self.height_under(self.root())
    }

    /// Controlled departure (Fig. 9): the subscriber announces `LEAVE`
    /// to its parent, then disconnects.
    pub fn controlled_leave(&mut self, id: ProcessId) {
        if !self.net.is_alive(id) {
            return;
        }
        self.net.send_external(id, DrtMessage::DepartRequest);
        // One step for the request to arrive and the LEAVE to be sent,
        // one for it to propagate; then the process is gone.
        self.run_for(2 * self.step());
        self.crash(id);
    }

    /// Uncontrolled departure (crash failure): the subscriber vanishes
    /// silently.
    pub fn crash(&mut self, id: ProcessId) {
        self.contact = None;
        self.net.crash(id);
    }

    /// Applies an adversarial corruption to one subscriber's memory
    /// (Lemma 3.6's transient faults). Returns `false` if it is dead.
    pub fn corrupt(&mut self, id: ProcessId, kind: CorruptionKind) -> bool {
        self.contact = None;
        let universe = &self.all_ids;
        self.net
            .corrupt(id, |node, rng| kind.apply(node.state_mut(), universe, rng))
    }

    /// Replaces the network fault profile (message loss, duplication,
    /// reordering) at runtime — see [`drtree_sim::FaultProfile`]. The
    /// scripted fault windows of [`crate::adversary`] open and close
    /// through this.
    pub fn set_faults(&mut self, faults: drtree_sim::FaultProfile) {
        self.net.set_faults(faults);
    }

    /// Installs a network partition between the given groups (both
    /// directions of every cross-group link are cut; successive calls
    /// compose). The groups must be disjoint: no process may be listed
    /// in two of them (checked in debug builds). See
    /// [`Network::partition`].
    pub fn partition(&mut self, groups: &[Vec<ProcessId>]) {
        self.net.partition(groups);
    }

    /// Heals every partition cut. Manual [`Overlay::block_link`] blocks
    /// survive.
    pub fn heal(&mut self) {
        self.net.heal();
    }

    /// Blocks the directed link `from → to`.
    pub fn block_link(&mut self, from: ProcessId, to: ProcessId) {
        self.net.block_link(from, to);
    }

    /// Unblocks the directed link `from → to` (inverse of a single
    /// [`Overlay::block_link`]; also removes a partition cut on that
    /// link).
    pub fn unblock_link(&mut self, from: ProcessId, to: ProcessId) {
        self.net.unblock_link(from, to);
    }

    /// Removes all link blocks, manual and partition-installed.
    pub fn unblock_all(&mut self) {
        self.net.unblock_all();
    }

    /// Replaces a live subscriber's filter in place — the mobility
    /// command of the moving-subscription experiments. The filter is
    /// "constant non-corruptible data" in the paper's model (§3.2), so
    /// a move is modeled as atomically swapping that constant: the
    /// leaf instance's MBR is re-pinned to the new filter, and the
    /// stale ancestor MBR/filter caches repair through the regular
    /// heartbeat + `Compute_MBR` stabilization — exactly the machinery
    /// that absorbs a transient corruption (Lemma 3.6), which is why
    /// no new protocol is needed. Run [`Overlay::stabilize`]
    /// afterwards to let the repair converge before the next publish.
    /// Returns `false` if the subscriber is dead.
    pub fn move_subscriber(&mut self, id: ProcessId, filter: Rect<D>) -> bool {
        self.net.corrupt(id, |node, _| {
            let state = node.state_mut();
            state.filter = filter;
            if let Some(leaf) = state.level_mut(0) {
                leaf.mbr = filter;
            }
        })
    }

    /// Publishes `point` from `publisher` and accounts the outcome.
    ///
    /// Runs enough steps for the event to traverse the tree twice over
    /// (up and down) in a steady state. The message bill is tag-scoped
    /// (exactly this event's `PubUp`/`PubDown` sends), so it stays
    /// correct even if traffic of an earlier event is still in flight.
    pub fn publish_from(&mut self, publisher: ProcessId, point: Point<D>) -> PublishReport {
        self.accounting.open(self.next_event_id, 1);
        let event_id = self.inject(publisher, point);
        // Injection leaves node state alone: step one reuses the answer.
        let contact = self.fresh_contact();
        let step = self.step();
        let span = self.drain_steps(contact) * step;
        self.advance_with(contact, step);
        self.run_span(span - step);
        self.net.materialize_clocks();
        self.settle(0, event_id, span);
        // If the drain budget did not suffice (loss, corrupted
        // overlays), retire the id so late traffic cannot re-create
        // counters.
        self.net.retire_tags_below(self.next_event_id);
        self.accounting
            .close(self.net.iter(), &[(publisher, point)])
            .pop()
            .expect("one event, one report")
    }

    /// Publishes a stream of events through a sliding window of
    /// `window` concurrently disseminating events — the pipelined
    /// counterpart of calling [`Overlay::publish_from`] in a loop. All
    /// events are published by `publisher`; see
    /// [`Overlay::publish_pipeline_from`] for per-event publishers.
    pub fn publish_pipeline(
        &mut self,
        publisher: ProcessId,
        points: &[Point<D>],
        window: usize,
    ) -> Vec<PublishReport> {
        let events: Vec<(ProcessId, Point<D>)> = points.iter().map(|&p| (publisher, p)).collect();
        self.publish_pipeline_from(&events, window)
    }

    /// Publishes `events` (publisher, point pairs) through a sliding
    /// window: up to `window` events disseminate concurrently, sharing
    /// steps, their `PubUp`/`PubDown` traffic interleaved in the same
    /// inboxes. Per-event accounting stays exact: every message is
    /// tagged with its event id ([`drtree_sim::MsgTag`]), each event
    /// completes when its own tag has no messages in flight (per-tag
    /// quiescence instead of a whole-network drain; the injected
    /// `PublishRequest` is tracked too, so an event is never finalized
    /// before its injection was even delivered), and its report charges
    /// only its own messages and its own injection-to-quiescence span,
    /// quantized to the step the network advances by.
    ///
    /// Reports are returned in input order. In a legitimate
    /// configuration the delivery sets equal a sequential
    /// [`Overlay::publish_from`] reference for every window size
    /// (property-tested on both engines); total steps shrink by up to
    /// `min(window, steps-per-event)` since the per-step simulation
    /// work is shared by every in-flight event.
    ///
    /// `window` is clamped to `1..=`[`Overlay::MAX_PUBLISH_WINDOW`].
    pub fn publish_pipeline_from(
        &mut self,
        events: &[(ProcessId, Point<D>)],
        window: usize,
    ) -> Vec<PublishReport> {
        let window = window.clamp(1, Self::MAX_PUBLISH_WINDOW);
        self.accounting.open(self.next_event_id, events.len());
        // (input index, event id, injection time) per in-flight event.
        let mut live: Vec<(usize, u64, u64)> = Vec::with_capacity(window);
        let mut next = 0usize;
        // Dissemination is self-limiting (per-node dedup), so every tag
        // drains (lost messages settle at drop time); the deadline only
        // guards adversarially corrupted configurations, force-
        // finalizing whatever is still in flight.
        let contact = self.fresh_contact();
        let mut first_step = true;
        let step = self.step();
        let budget = (events.len() as u64 + 1) * (self.drain_steps(contact) + 4) + 64;
        let deadline = self.now() + budget * step;
        while next < events.len() || !live.is_empty() {
            while live.len() < window && next < events.len() {
                let (publisher, point) = events[next];
                let event_id = self.inject(publisher, point);
                live.push((next, event_id, self.now()));
                next += 1;
            }
            // Injections leave node state alone: step one reuses the
            // answer that sized the deadline.
            if std::mem::take(&mut first_step) {
                self.advance_with(contact, step);
            } else {
                self.run_span(step);
            }
            let expired = self.now() >= deadline;
            let mut i = 0;
            while i < live.len() {
                let (idx, event_id, injected) = live[i];
                if !expired && self.net.metrics().tag_inflight(event_id) > 0 {
                    i += 1;
                    continue;
                }
                self.settle(idx, event_id, self.now() - injected);
                live.swap_remove(i);
            }
        }
        // Every tag this call allocated is finalized; retiring the id
        // range keeps traffic of force-finalized events that still
        // circulates in a corrupted overlay from re-creating per-tag
        // counter entries nobody would ever clear.
        self.net.retire_tags_below(self.next_event_id);
        self.net.materialize_clocks();
        self.accounting.close(self.net.iter(), events)
    }

    /// Allocates an event id and injects the publish request. Crate-
    /// visible so the adversary harness ([`crate::adversary`]) can
    /// drive its own pipeline loop interleaved with fault injection.
    pub(crate) fn inject(&mut self, publisher: ProcessId, point: Point<D>) -> u64 {
        let event_id = self.next_event_id;
        self.next_event_id += 1;
        let event = PubEvent {
            id: event_id,
            point,
            publisher,
        };
        self.net
            .send_external(publisher, DrtMessage::PublishRequest { event });
        event_id
    }

    /// Event `index` of the open call is done: books its tag-scoped
    /// message bill (the tag is then forgotten) and its span.
    fn settle(&mut self, index: usize, event_id: u64, span: u64) {
        let messages = self.net.metrics().tag_count(event_id);
        self.net.clear_tag(event_id);
        self.accounting.settle(index, messages, span);
    }

    /// Maximum and mean per-process memory entries (Lemma 3.1's
    /// `O(M log² N / log m)` quantity).
    pub fn memory_stats(&self) -> (usize, f64) {
        let mut max = 0usize;
        let mut total = 0usize;
        let mut count = 0usize;
        for (_, n) in self.net.iter() {
            let entries = n.state().memory_entries();
            max = max.max(entries);
            total += entries;
            count += 1;
        }
        let mean = if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        };
        (max, mean)
    }

    /// Maximum instance degree across the overlay.
    pub fn max_degree_observed(&self) -> usize {
        self.net
            .iter()
            .flat_map(|(_, n)| n.state().levels.values().map(|l| l.degree()))
            .max()
            .unwrap_or(0)
    }
}

impl<const D: usize, Q: Schedule<DrtNode<D>>> std::fmt::Debug for Overlay<D, Q> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Overlay")
            .field("processes", &self.len())
            .field("now", &self.now())
            .field("height", &self.height())
            .finish()
    }
}
