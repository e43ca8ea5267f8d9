//! The asynchronous harness: the same overlay on the event-driven
//! engine.
//!
//! [`DrTreeCluster`](crate::DrTreeCluster) counts synchronous rounds —
//! the right ruler for the stabilization lemmas (Figs. 10–14 repair in
//! "steps"). [`AsyncDrTreeCluster`] runs the *identical* protocol code
//! — join (Fig. 8), leave (Fig. 9), dissemination (§2.3) — on
//! [`drtree_sim::EventNetwork`]: message latencies are drawn from a
//! latency model, messages can be lost, and every node paces its own
//! stabilization tick ([`DrTreeConfig::tick_interval`]) — the paper's
//! actual asynchronous system model (§2.1). The asynchronous
//! integration tests show that legality, recovery and zero false
//! negatives survive latency jitter and message loss.
//!
//! Publishing mirrors the round harness: one drained event at a time
//! ([`AsyncDrTreeCluster::publish_from`]) or a sliding window of
//! concurrently disseminating events with tag-scoped per-event
//! accounting ([`AsyncDrTreeCluster::publish_pipeline`]).

use rand::rngs::StdRng;

use drtree_sim::{EventNetwork, Metrics, NetConfig, ProcessId};
use drtree_spatial::{Point, Rect};

use crate::cluster::{Accounting, PublishReport};
use crate::config::DrTreeConfig;
use crate::contact::ContactOracle;
use crate::corruption::CorruptionKind;
use crate::legal::{self, Snapshot, Violation};
use crate::message::{DrtMessage, PubEvent};
use crate::protocol::node::DrtNode;

/// A DR-tree overlay on the asynchronous discrete-event engine.
///
/// # Example
///
/// ```
/// use drtree_core::{AsyncDrTreeCluster, DrTreeConfig};
/// use drtree_sim::{LatencyModel, NetConfig};
/// use drtree_spatial::Rect;
///
/// let net = NetConfig {
///     latency: LatencyModel::Uniform { min: 1, max: 4 },
///     ..NetConfig::default()
/// };
/// let mut config = DrTreeConfig::default();
/// config.tick_interval = 8; // nodes pace their own stabilization
/// config.failure_timeout = 6; // in ticks, scaled for jitter
/// let mut cluster: AsyncDrTreeCluster<2> = AsyncDrTreeCluster::new(config, net, 7);
/// for i in 0..12u32 {
///     let x = f64::from(i % 4) * 20.0;
///     let y = f64::from(i / 4) * 20.0;
///     cluster.add_subscriber(Rect::new([x, y], [x + 25.0, y + 25.0]));
/// }
/// cluster.stabilize(200_000).expect("legal under asynchrony");
/// ```
pub struct AsyncDrTreeCluster<const D: usize> {
    net: EventNetwork<DrtNode<D>>,
    config: DrTreeConfig,
    next_event_id: u64,
    all_ids: Vec<ProcessId>,
    accounting: Accounting,
}

impl<const D: usize> AsyncDrTreeCluster<D> {
    /// Creates an empty asynchronous overlay.
    ///
    /// # Panics
    ///
    /// Panics if `config.tick_interval == 0` — asynchronous nodes must
    /// pace their own ticks.
    pub fn new(config: DrTreeConfig, net_config: NetConfig, seed: u64) -> Self {
        assert!(
            config.tick_interval > 0,
            "asynchronous operation requires a self-arming tick_interval"
        );
        Self {
            net: EventNetwork::new(net_config, seed),
            config,
            next_event_id: 0,
            all_ids: Vec::new(),
            accounting: Accounting::default(),
        }
    }

    /// Builds an overlay over `filters` by materializing a legitimate
    /// configuration directly (see [`crate::bulk`]) instead of joining
    /// one subscriber at a time — the asynchronous counterpart of
    /// [`crate::DrTreeCluster::build_bulk`], making larger asynchronous
    /// fault experiments practical.
    ///
    /// # Panics
    ///
    /// Panics if `config.tick_interval == 0` or if the materialized
    /// configuration is not legal (a bug, not an input condition).
    pub fn build_bulk(
        config: DrTreeConfig,
        net_config: NetConfig,
        seed: u64,
        filters: &[Rect<D>],
    ) -> Self {
        let mut cluster = Self::new(config, net_config, seed);
        let ids: Vec<ProcessId> = filters
            .iter()
            .map(|&f| {
                let id = cluster.net.add_process(DrtNode::new(config, f));
                cluster.all_ids.push(id);
                id
            })
            .collect();
        for (id, state) in crate::bulk::bulk_states(&config, &ids, filters) {
            if let Some(node) = cluster.net.process_mut(id) {
                *node.state_mut() = state;
            }
        }
        // Two tick intervals warm the heartbeat caches; on a legal
        // state the CHECK_* modules are no-ops.
        cluster.run_for(2 * config.tick_interval.max(1));
        if let Err(v) = cluster.check_legal() {
            panic!("bulk-built async overlay is not legal: {v:?}");
        }
        cluster
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

    /// Current simulation time.
    pub fn now(&self) -> u64 {
        self.net.now()
    }

    /// Message metrics.
    pub fn metrics(&self) -> &Metrics {
        self.net.metrics()
    }

    /// Deterministic harness randomness.
    pub fn rng(&mut self) -> &mut StdRng {
        self.net.rng()
    }

    /// Shared view of one subscriber.
    pub fn node(&self, id: ProcessId) -> Option<&DrtNode<D>> {
        self.net.process(id)
    }

    /// Adds a subscriber; it joins through the oracle as its ticks run.
    pub fn add_subscriber(&mut self, filter: Rect<D>) -> ProcessId {
        let node = DrtNode::new(self.config, filter);
        let id = self.net.add_process(node);
        self.all_ids.push(id);
        self.refresh_hints();
        id
    }

    /// Advances simulated time by `duration`, refreshing the contact
    /// oracle at tick granularity.
    pub fn run_for(&mut self, duration: u64) {
        let step = self.config.tick_interval.max(1);
        let deadline = self.net.now() + duration;
        while self.net.now() < deadline {
            let next = (self.net.now() + step).min(deadline);
            self.refresh_hints();
            self.net.run_until(next);
            self.accounting.absorb(self.net.drain_marks());
        }
    }

    /// Runs until the configuration is legitimate, checking every tick
    /// interval. Returns the simulated time consumed, or `None` if
    /// `max_duration` elapses first.
    pub fn stabilize(&mut self, max_duration: u64) -> Option<u64> {
        let start = self.net.now();
        let step = self.config.tick_interval.max(1);
        loop {
            if self.check_legal().is_ok() {
                return Some(self.net.now() - start);
            }
            if self.net.now() - start >= max_duration {
                return None;
            }
            self.run_for(step);
        }
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

    /// Clones every live process's state.
    pub fn snapshot(&self) -> Snapshot<D> {
        self.net
            .iter()
            .map(|(id, n)| (id, n.state().clone()))
            .collect()
    }

    /// The contact oracle: root of the largest component.
    pub fn contact(&self) -> Option<ProcessId> {
        let tops = self.net.iter().map(|(id, n)| (id, n.parent_of(n.top())));
        ContactOracle::default().root(self.all_ids.len(), tops)
    }

    /// The overlay root.
    pub fn root(&self) -> Option<ProcessId> {
        self.contact()
    }

    /// Height of the main tree.
    pub fn height(&self) -> u32 {
        self.root()
            .and_then(|r| self.node(r))
            .map_or(0, |n| n.top())
    }

    /// Uncontrolled departure.
    pub fn crash(&mut self, id: ProcessId) {
        self.net.crash(id);
    }

    /// Controlled departure (Fig. 9): deliver the depart request, give
    /// the LEAVE a tick to propagate, then disconnect.
    pub fn controlled_leave(&mut self, id: ProcessId) {
        if !self.net.is_alive(id) {
            return;
        }
        self.net.send_external(id, DrtMessage::DepartRequest);
        self.run_for(2 * self.config.tick_interval);
        self.net.crash(id);
    }

    /// Replaces the network fault profile (loss, duplication,
    /// reordering) at runtime — see [`drtree_sim::FaultProfile`].
    pub fn set_faults(&mut self, faults: drtree_sim::FaultProfile) {
        self.net.set_faults(faults);
    }

    /// Installs a network partition between the given groups; see
    /// [`drtree_sim::EventNetwork::partition`].
    pub fn partition(&mut self, groups: &[Vec<ProcessId>]) {
        self.net.partition(groups);
    }

    /// Heals every partition cut.
    pub fn heal(&mut self) {
        self.net.heal();
    }

    /// Adversarial memory corruption (Lemma 3.6).
    pub fn corrupt(&mut self, id: ProcessId, kind: CorruptionKind) -> bool {
        let universe = &self.all_ids;
        self.net
            .corrupt(id, |node, rng| kind.apply(node.state_mut(), universe, rng))
    }

    /// Publishes `point` from `publisher` and accounts the delivery
    /// after letting the event propagate for `2·(height+2)` tick
    /// intervals. The message bill is tag-scoped (exactly this event's
    /// `PubUp`/`PubDown` sends), like the round harness's.
    pub fn publish_from(&mut self, publisher: ProcessId, point: Point<D>) -> PublishReport {
        self.accounting.open(self.next_event_id, 1);
        let event_id = self.inject(publisher, point);
        let duration = 2 * (u64::from(self.height()) + 2) * self.config.tick_interval;
        self.run_for(duration);
        self.settle(0, event_id, duration);
        // If the drain budget did not suffice (loss, corruption),
        // retire the id so late traffic cannot re-create counters.
        self.net.retire_tags_below(self.next_event_id);
        self.accounting
            .close(self.net.iter(), &[(publisher, point)])
            .pop()
            .expect("one event, one report")
    }

    /// Publishes a stream of events from one publisher through a
    /// sliding window of concurrently disseminating events — the
    /// asynchronous counterpart of
    /// [`crate::DrTreeCluster::publish_pipeline`].
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
    /// window of up to `window` concurrently disseminating events.
    ///
    /// Each event completes when its tag has no messages in flight
    /// (the injected `PublishRequest` is tracked too, so an event is
    /// never finalized before its injection was even delivered); the
    /// report's `rounds` field carries the simulated time from
    /// injection to observed quiescence, quantized to the tick
    /// interval the network advances by. Reports are in input order.
    /// `window` is clamped to
    /// `1..=`[`crate::DrTreeCluster::MAX_PUBLISH_WINDOW`].
    pub fn publish_pipeline_from(
        &mut self,
        events: &[(ProcessId, Point<D>)],
        window: usize,
    ) -> Vec<PublishReport> {
        let window = window.clamp(1, crate::DrTreeCluster::<D>::MAX_PUBLISH_WINDOW);
        self.accounting.open(self.next_event_id, events.len());
        let mut live: Vec<(usize, u64, u64)> = Vec::with_capacity(window);
        let mut next = 0usize;
        let step = self.config.tick_interval.max(1);
        // Guards adversarial states only; dissemination is self-
        // limiting, so tags drain (lost messages settle at drop time).
        let per_event = 2 * (u64::from(self.height()) + 2) * step;
        let deadline = self.now() + (events.len() as u64 + 1) * (per_event + 4 * step);
        while next < events.len() || !live.is_empty() {
            while live.len() < window && next < events.len() {
                let (publisher, point) = events[next];
                let event_id = self.inject(publisher, point);
                live.push((next, event_id, self.now()));
                next += 1;
            }
            self.run_for(step);
            let expired = self.now() >= deadline;
            let mut i = 0;
            while i < live.len() {
                let (idx, event_id, injected) = live[i];
                if !expired && self.metrics().tag_inflight(event_id) > 0 {
                    i += 1;
                    continue;
                }
                self.settle(idx, event_id, self.now() - injected);
                live.swap_remove(i);
            }
        }
        // Every tag this call allocated is finalized; retiring the id
        // range keeps traffic of force-finalized events that still
        // circulates from re-creating per-tag counter entries.
        self.net.retire_tags_below(self.next_event_id);
        self.accounting.close(self.net.iter(), events)
    }

    /// Allocates an event id and injects the publish request.
    fn inject(&mut self, publisher: ProcessId, point: Point<D>) -> u64 {
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

    /// Event `index` of the open call is done: books its message bill
    /// and span, and forgets its tag.
    fn settle(&mut self, index: usize, event_id: u64, elapsed: u64) {
        let messages = self.metrics().tag_count(event_id);
        self.net.clear_tag(event_id);
        self.accounting.settle(index, messages, elapsed);
    }

    fn refresh_hints(&mut self) {
        let contact = self.contact();
        for (id, n) in self.net.iter_mut() {
            n.set_contact_hint(contact.or(Some(id)));
        }
    }
}

impl<const D: usize> std::fmt::Debug for AsyncDrTreeCluster<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncDrTreeCluster")
            .field("processes", &self.len())
            .field("time", &self.now())
            .field("height", &self.height())
            .finish()
    }
}
