use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

use drtree_core::{DrTreeCluster, DrTreeConfig, ProcessId, PublishReport};
use drtree_rtree::parallel;
use drtree_spatial::filter::FilterError;
use drtree_spatial::{Event, FilterExpr, Point, Rect, Schema};

use crate::shard::{BatchMatches, CompactionMode, OracleSnapshot, ShardedOracle};
use crate::stats::RoutingStats;

/// Errors surfaced by the [`Broker`].
#[derive(Debug, Clone, PartialEq)]
pub enum BrokerError {
    /// A filter or event did not compile against the broker's schema.
    Filter(FilterError),
    /// The named subscriber does not exist (or already left).
    UnknownSubscriber(ProcessId),
    /// The schema's dimensionality does not match the const generic `D`.
    SchemaDimensionMismatch {
        /// Dimensions of the broker (`D`).
        expected: usize,
        /// Dimensions declared by the schema.
        schema: usize,
    },
    /// The subscriber holds a subscription *set*; a set has no single
    /// rectangle to move, so mobility applies to singleton
    /// subscriptions only (resubscribe the set instead).
    SetSubscriberImmobile(ProcessId),
}

impl fmt::Display for BrokerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrokerError::Filter(e) => write!(f, "filter error: {e}"),
            BrokerError::UnknownSubscriber(id) => write!(f, "unknown subscriber {id}"),
            BrokerError::SchemaDimensionMismatch { expected, schema } => write!(
                f,
                "schema declares {schema} attributes but the broker is {expected}-dimensional"
            ),
            BrokerError::SetSubscriberImmobile(id) => write!(
                f,
                "subscriber {id} holds a subscription set, which cannot be moved as one rectangle"
            ),
        }
    }
}

impl std::error::Error for BrokerError {}

impl From<FilterError> for BrokerError {
    fn from(e: FilterError) -> Self {
        BrokerError::Filter(e)
    }
}

/// A content-based publish/subscribe broker backed by a DR-tree overlay.
///
/// Every subscription becomes a DR-tree subscriber process; every
/// publication is disseminated through the overlay. A sharded packed
/// R-tree mirror ([`ShardedOracle`]) serves as the exact-matching
/// oracle so each delivery can be audited for false
/// positives/negatives, and doubles as the matching engine of the
/// batched publish pipeline ([`Broker::publish_batch`]). See the
/// [crate documentation](crate) for an example.
pub struct Broker<const D: usize> {
    schema: Schema,
    cluster: DrTreeCluster<D>,
    oracle: ShardedOracle<D>,
    subscriptions: BTreeMap<ProcessId, Rect<D>>,
    /// Exact member filters of subscription *sets* (§2.1); subscribers
    /// registered via `subscribe`/`subscribe_rect` are singleton sets
    /// and are not listed here.
    sets: BTreeMap<ProcessId, Vec<Rect<D>>>,
    stats: RoutingStats,
    /// Reused single-publish matching buffer (sorted, deduplicated,
    /// publisher still included).
    match_buf: Vec<ProcessId>,
    /// Reused batched-publish matching arena.
    batch_buf: BatchMatches,
    /// Reused point scratch of [`Broker::publish_batch_multi`] (the
    /// oracle's batched pass takes a plain point slice).
    multi_points: Vec<Point<D>>,
}

impl<const D: usize> Broker<D> {
    /// Creates a broker for `schema` over a fresh overlay, sharding
    /// the oracle across (up to 8) hardware threads.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::SchemaDimensionMismatch`] when
    /// `schema.dims() != D`.
    pub fn new(schema: Schema, config: DrTreeConfig, seed: u64) -> Result<Self, BrokerError> {
        Self::with_shards(
            schema,
            config,
            seed,
            parallel::available_threads().clamp(1, 8),
        )
    }

    /// Creates a broker whose oracle is partitioned across `shards`
    /// shards (clamped to ≥ 1). Shard count never changes *what* is
    /// matched — property tests pin every shard count to identical
    /// hit-sets — only how the matching work is laid out and fanned.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::SchemaDimensionMismatch`] when
    /// `schema.dims() != D`.
    pub fn with_shards(
        schema: Schema,
        config: DrTreeConfig,
        seed: u64,
        shards: usize,
    ) -> Result<Self, BrokerError> {
        if schema.dims() != D {
            return Err(BrokerError::SchemaDimensionMismatch {
                expected: D,
                schema: schema.dims(),
            });
        }
        Ok(Self {
            schema,
            cluster: DrTreeCluster::new(config, seed),
            oracle: ShardedOracle::new(shards),
            subscriptions: BTreeMap::new(),
            sets: BTreeMap::new(),
            stats: RoutingStats::default(),
            match_buf: Vec::new(),
            batch_buf: BatchMatches::new(),
            multi_points: Vec::new(),
        })
    }

    /// Builds a broker over an already-populated overlay in one shot:
    /// the subscribers in `rects` are materialized through
    /// [`DrTreeCluster::build_bulk`] (state injection validated
    /// against the legality checker — seconds instead of the better
    /// part of an hour at benchmark sizes) and mirrored into the
    /// oracle. Returns the broker plus the assigned subscriber ids, in
    /// `rects` order.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::SchemaDimensionMismatch`] when
    /// `schema.dims() != D`.
    ///
    /// # Panics
    ///
    /// Panics if the bulk-built overlay fails the legality check
    /// (a bug, not an input condition).
    pub fn build_bulk(
        schema: Schema,
        config: DrTreeConfig,
        seed: u64,
        rects: &[Rect<D>],
    ) -> Result<(Self, Vec<ProcessId>), BrokerError> {
        let mut broker = Self::new(schema, config, seed)?;
        broker.cluster = DrTreeCluster::build_bulk(config, seed, rects);
        let ids = broker.cluster.ids();
        for (&id, &rect) in ids.iter().zip(rects) {
            broker.subscriptions.insert(id, rect);
            broker.oracle.insert(id, rect);
        }
        Ok((broker, ids))
    }

    /// How many events of a [`Broker::publish_batch`] call disseminate
    /// through the overlay concurrently: as many as the overlay can
    /// account exactly ([`DrTreeCluster::MAX_PUBLISH_WINDOW`]), so a
    /// committed batch costs one pipeline fill — the rounds of one
    /// dissemination, shared by every event of the batch.
    pub const DEFAULT_PUBLISH_WINDOW: usize = DrTreeCluster::<D>::MAX_PUBLISH_WINDOW;

    /// The overlay dissemination window
    /// ([`Broker::DEFAULT_PUBLISH_WINDOW`]; not configurable).
    pub fn publish_window(&self) -> usize {
        Self::DEFAULT_PUBLISH_WINDOW
    }

    /// Number of shards the oracle fans publishes across.
    pub fn shard_count(&self) -> usize {
        self.oracle.shard_count()
    }

    /// The attribute schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live subscriptions.
    pub fn len(&self) -> usize {
        self.subscriptions.len()
    }

    /// `true` when nobody is subscribed.
    pub fn is_empty(&self) -> bool {
        self.subscriptions.is_empty()
    }

    /// Registers a subscription written in the predicate language of
    /// §2.1 and waits for the subscriber to join the overlay.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::Filter`] when the conjunction does not
    /// compile against the schema.
    pub fn subscribe(&mut self, filter: &FilterExpr) -> Result<ProcessId, BrokerError> {
        let rect: Rect<D> = filter.compile(&self.schema)?;
        Ok(self.subscribe_rect(rect))
    }

    /// Registers a subscription directly as a rectangle. Returns once
    /// the overlay is back in a legitimate configuration, not merely
    /// once the joiner is attached.
    pub fn subscribe_rect(&mut self, rect: Rect<D>) -> ProcessId {
        let id = self.join(rect);
        self.subscriptions.insert(id, rect);
        self.oracle.insert(id, rect);
        id
    }

    /// Registers one subscriber with a *set* of filters (§2.1: "each
    /// node in the system has associated a set of subscriptions").
    ///
    /// The overlay sees the set's minimum bounding rectangle — the
    /// natural generalization of the paper's single-filter model: no
    /// member event can be missed (the MBR contains every member), and
    /// the subscriber filters locally against the exact set. Delivery
    /// reports from [`Broker::publish`] account matching/false
    /// positives against the *set*, not the MBR.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::Filter`] if the set is empty (reported as
    /// an unsatisfiable filter) or any member does not compile.
    pub fn subscribe_set(&mut self, filters: &[FilterExpr]) -> Result<ProcessId, BrokerError> {
        let members: Vec<Rect<D>> = filters
            .iter()
            .map(|f| f.compile(&self.schema))
            .collect::<Result<_, _>>()?;
        let Some(mbr) = Rect::union_all(members.iter()) else {
            return Err(BrokerError::Filter(FilterError::Unsatisfiable(
                "empty subscription set".into(),
            )));
        };
        let id = self.join(mbr);
        self.subscriptions.insert(id, mbr);
        for r in &members {
            self.oracle.insert(id, *r);
        }
        self.sets.insert(id, members);
        Ok(id)
    }

    /// Removes a subscription via a controlled departure (Fig. 9).
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::UnknownSubscriber`] when `id` is not live.
    pub fn unsubscribe(&mut self, id: ProcessId) -> Result<(), BrokerError> {
        let rect = self
            .subscriptions
            .remove(&id)
            .ok_or(BrokerError::UnknownSubscriber(id))?;
        match self.sets.remove(&id) {
            Some(members) => {
                for r in members {
                    self.oracle.remove(id, &r);
                }
            }
            None => {
                self.oracle.remove(id, &rect);
            }
        }
        self.cluster.controlled_leave(id);
        Ok(())
    }

    /// Replaces an existing subscription with a new filter expression.
    ///
    /// Filters are constant per process in the paper's model (§3.2), so
    /// an update is realized faithfully as a controlled departure
    /// followed by a fresh join; the subscriber receives a **new id**,
    /// which is returned.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::UnknownSubscriber`] for dead subscribers
    /// and [`BrokerError::Filter`] for filters that do not compile.
    pub fn resubscribe(
        &mut self,
        id: ProcessId,
        filter: &FilterExpr,
    ) -> Result<ProcessId, BrokerError> {
        let rect: Rect<D> = filter.compile(&self.schema)?;
        self.unsubscribe(id)?;
        Ok(self.subscribe_rect(rect))
    }

    /// Moves an existing subscription to the rectangle a new filter
    /// expression compiles to, **keeping the subscriber's identity** —
    /// the continuous-query counterpart of [`Broker::resubscribe`]
    /// (which models the paper's constant-filter semantics as
    /// leave + rejoin under a fresh id).
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::Filter`] for filters that do not
    /// compile, plus everything
    /// [`Broker::move_subscription_rect`] returns.
    pub fn move_subscription(
        &mut self,
        id: ProcessId,
        filter: &FilterExpr,
    ) -> Result<(), BrokerError> {
        let rect: Rect<D> = filter.compile(&self.schema)?;
        self.move_subscription_rect(id, rect)
    }

    /// Moves an existing subscription to `rect` in place: same
    /// subscriber id, no departure, no rejoin. The oracle absorbs the
    /// move as a delta patch (or a shard re-key when the Hilbert key
    /// crosses a boundary), the overlay swaps the leaf filter and
    /// repairs its ancestor caches through stabilization — so the move
    /// serializes with publishes exactly like any other command in the
    /// commit loop.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::UnknownSubscriber`] for dead subscribers
    /// and [`BrokerError::SetSubscriberImmobile`] for subscription
    /// sets (a set has no single rectangle to move).
    pub fn move_subscription_rect(
        &mut self,
        id: ProcessId,
        rect: Rect<D>,
    ) -> Result<(), BrokerError> {
        if self.sets.contains_key(&id) {
            return Err(BrokerError::SetSubscriberImmobile(id));
        }
        let Some(&old) = self.subscriptions.get(&id) else {
            return Err(BrokerError::UnknownSubscriber(id));
        };
        if old == rect {
            return Ok(());
        }
        let moved = self.oracle.move_entry(id, &old, rect);
        debug_assert!(moved, "subscription map and oracle disagree on {id}");
        self.subscriptions.insert(id, rect);
        let alive = self.cluster.move_subscriber(id, rect);
        debug_assert!(alive, "subscription map lists a dead subscriber {id}");
        // The move invalidates ancestor MBR/filter caches up the leaf's
        // root path.
        self.converge();
        Ok(())
    }

    /// Joins a subscriber with overlay filter `rect`.
    fn join(&mut self, rect: Rect<D>) -> ProcessId {
        let id = self.cluster.add_subscriber_stable(rect);
        // The joiner is attached, not settled: the splits its arrival
        // set off may still be running up the root path.
        self.converge();
        id
    }

    /// Runs the overlay back to a legitimate configuration after a
    /// structural command, so the next publish — a whole batch deep in
    /// the pipeline under [`crate::MultiBroker`] — never disseminates
    /// through a half-repaired overlay, which costs false negatives
    /// (the per-publish oracle audit enforces this in debug builds).
    /// The budget is a few root-path traversals.
    fn converge(&mut self) {
        let rounds = 8 * (u64::from(self.cluster.height()) + 2);
        self.repair(rounds);
    }

    /// [`Broker::stabilize`] on the serving path: a repair that runs out
    /// of `max_rounds` is counted ([`RoutingStats::unconverged`]), never
    /// dropped.
    pub(crate) fn repair(&mut self, max_rounds: u64) -> Option<u64> {
        let took = self.cluster.stabilize(max_rounds);
        if took.is_none() {
            self.stats.absorb_unconverged();
        }
        took
    }

    /// Publishes `event` from subscriber `publisher`, auditing the
    /// delivery against the oracle.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::Filter`] for events that do not compile
    /// and [`BrokerError::UnknownSubscriber`] for dead publishers.
    pub fn publish(
        &mut self,
        publisher: ProcessId,
        event: &Event,
    ) -> Result<PublishReport, BrokerError> {
        let point: Point<D> = event.compile(&self.schema)?;
        self.publish_point(publisher, point)
    }

    /// Publishes a pre-compiled point.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::UnknownSubscriber`] for dead publishers.
    pub fn publish_point(
        &mut self,
        publisher: ProcessId,
        point: Point<D>,
    ) -> Result<PublishReport, BrokerError> {
        if !self.subscriptions.contains_key(&publisher) {
            return Err(BrokerError::UnknownSubscriber(publisher));
        }
        self.flush_oracle();
        // The oracle's answer is consumed by set reclassification and
        // by the debug audit; with neither active (release build, no
        // subscription sets) the probe would be computed and thrown
        // away, so skip it.
        let needs_oracle = !self.sets.is_empty() || cfg!(debug_assertions);
        let mut match_buf = std::mem::take(&mut self.match_buf);
        if needs_oracle {
            // One sharded-oracle probe instead of a scan over every
            // subscriber (reused buffer; sorted and deduplicated, so
            // set-subscribers appear once however many members match).
            self.oracle.match_point_into(&point, &mut match_buf);
        }
        let mut report = self.cluster.publish_from(publisher, point);
        if needs_oracle {
            self.classify(publisher, &point, &match_buf, &mut report);
        }
        self.stats.absorb(&report);
        self.match_buf = match_buf;
        Ok(report)
    }

    /// Publishes a batch of pre-compiled points from one publisher,
    /// batched end-to-end: the *oracle* side amortizes a single
    /// matching pass — shard fan-out, joint packed descents, one
    /// counting-sort merge — over the whole batch, and the *overlay*
    /// side disseminates the batch through a sliding window of
    /// [`Broker::publish_window`] concurrent events
    /// ([`DrTreeCluster::publish_pipeline`]) instead of draining the
    /// network once per event. Reports are returned in input order,
    /// each reconciled against the oracle and folded into
    /// [`Broker::stats`], exactly as if published one at a time.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::UnknownSubscriber`] for dead publishers.
    pub fn publish_batch(
        &mut self,
        publisher: ProcessId,
        points: &[Point<D>],
    ) -> Result<Vec<PublishReport>, BrokerError> {
        if !self.subscriptions.contains_key(&publisher) {
            return Err(BrokerError::UnknownSubscriber(publisher));
        }
        self.flush_oracle();
        // Same guard as `publish_point`: the batched oracle pass only
        // runs when something consumes its answer.
        let needs_oracle = !self.sets.is_empty() || cfg!(debug_assertions);
        let mut batch_buf = std::mem::take(&mut self.batch_buf);
        if needs_oracle {
            self.oracle.match_batch_into(points, &mut batch_buf);
        }
        let mut reports =
            self.cluster
                .publish_pipeline(publisher, points, Self::DEFAULT_PUBLISH_WINDOW);
        for (i, (point, report)) in points.iter().zip(&mut reports).enumerate() {
            if needs_oracle {
                self.classify(publisher, point, batch_buf.matches(i), report);
            }
            self.stats.absorb(report);
        }
        self.batch_buf = batch_buf;
        Ok(reports)
    }

    /// Publishes a batch of pre-compiled points with **per-event
    /// publishers** — the commit primitive of the concurrent
    /// multi-publisher ingress path ([`crate::MultiBroker`]), where one
    /// drained batch interleaves events from many publishers.
    ///
    /// Semantically identical to grouping `events` by publisher and
    /// calling [`Broker::publish_point`] per event in input order:
    /// same delivery sets, same oracle audit, same statistics. The
    /// batching exists for cost, not meaning — one oracle pass and one
    /// windowed overlay dissemination
    /// ([`DrTreeCluster::publish_pipeline_from`]) amortize over the
    /// whole batch, and a deeper aggregated batch means a deeper
    /// effective window, which is where multi-publisher throughput
    /// scaling comes from.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::UnknownSubscriber`] if **any** event
    /// names a dead publisher; the batch is then rejected whole, with
    /// nothing published (validation happens before the first
    /// injection).
    pub fn publish_batch_multi(
        &mut self,
        events: &[(ProcessId, Point<D>)],
    ) -> Result<Vec<PublishReport>, BrokerError> {
        for &(publisher, _) in events {
            if !self.subscriptions.contains_key(&publisher) {
                return Err(BrokerError::UnknownSubscriber(publisher));
            }
        }
        if events.is_empty() {
            return Ok(Vec::new());
        }
        self.flush_oracle();
        // Same guard as `publish_point`: the batched oracle pass only
        // runs when something consumes its answer.
        let needs_oracle = !self.sets.is_empty() || cfg!(debug_assertions);
        let mut batch_buf = std::mem::take(&mut self.batch_buf);
        let mut points = std::mem::take(&mut self.multi_points);
        if needs_oracle {
            points.clear();
            points.extend(events.iter().map(|&(_, point)| point));
            self.oracle.match_batch_into(&points, &mut batch_buf);
        }
        let mut reports = self
            .cluster
            .publish_pipeline_from(events, Self::DEFAULT_PUBLISH_WINDOW);
        for (i, (&(publisher, point), report)) in events.iter().zip(&mut reports).enumerate() {
            if needs_oracle {
                self.classify(publisher, &point, batch_buf.matches(i), report);
            }
            self.stats.absorb(report);
        }
        self.batch_buf = batch_buf;
        self.multi_points = points;
        Ok(reports)
    }

    /// Compacts any oracle shard whose delta layer outgrew its budget
    /// **now**, charging the cost to the rebuild/compaction columns of
    /// [`Broker::stats`] instead of the next publish. Publishing pays
    /// this lazily anyway; benches call it eagerly so publish timings
    /// measure matching, not maintenance. Returns the wall-clock time
    /// spent (zero when every delta was within budget).
    pub fn flush_oracle(&mut self) -> Duration {
        let flush = self.oracle.flush();
        if flush.rebuilt_shards > 0 {
            self.stats
                .absorb_oracle_rebuild(flush.rebuilt_shards as u64, flush.elapsed);
        }
        if flush.compacted_shards > 0 {
            self.stats.absorb_oracle_compaction(
                flush.compacted_shards as u64,
                flush.staged_absorbed as u64,
                flush.tombstones_reclaimed as u64,
            );
        }
        if flush.rebuilt_shards > 0 || flush.begun_compactions > 0 {
            self.stats
                .absorb_oracle_pause(flush.swap_ns, flush.compact_ns);
        }
        if flush.moved_in_place + flush.rekeyed + flush.leases_expired > 0 {
            self.stats.absorb_oracle_moves(
                flush.moved_in_place as u64,
                flush.rekeyed as u64,
                flush.leases_expired as u64,
            );
        }
        flush.elapsed
    }

    /// A point-in-time [`OracleSnapshot`] of the live subscription
    /// set — the lock-free read side of concurrent ingress. Readers
    /// holding an `Arc` of it answer exact containment queries as of
    /// snapshot time and never block on (or are blocked by) publishes;
    /// see [`ShardedOracle::snapshot`].
    pub fn oracle_snapshot(&self) -> OracleSnapshot<D> {
        self.oracle.snapshot()
    }

    /// Serializes the live subscription oracle into one flat,
    /// versioned, checksummed buffer — the durable counterpart of
    /// [`Broker::oracle_snapshot`]. A serving replica restores it with
    /// [`ShardedOracle::restore_bytes`] (zero-copy, millisecond
    /// cold-start) and answers exact matching queries as of snapshot
    /// time without carrying any of the broker's overlay state. Safe
    /// mid-churn: staged entries and tombstones travel with their
    /// shards.
    pub fn oracle_snapshot_bytes(&self) -> Vec<u8> {
        self.oracle.snapshot_bytes()
    }

    /// Chooses where the oracle runs its one compaction routine and
    /// when the result is installed: inline inside the flush
    /// ([`CompactionMode::Synchronous`], deterministic) or on
    /// background workers, swapped in pause-free by a later flush
    /// ([`CompactionMode::Concurrent`]). See
    /// [`ShardedOracle::set_compaction_mode`].
    pub fn set_compaction_mode(&mut self, mode: CompactionMode) {
        self.oracle.set_compaction_mode(mode);
    }

    /// `true` iff subscriber `id` exactly matches `point` (any member of
    /// its set; the plain filter for singleton subscribers).
    fn matches_exactly(&self, id: ProcessId, point: &Point<D>) -> bool {
        match self.sets.get(&id) {
            Some(members) => members.iter().any(|r| r.contains_point(point)),
            None => self
                .subscriptions
                .get(&id)
                .is_some_and(|r| r.contains_point(point)),
        }
    }

    /// Reconciles one report with the oracle's exact matching set
    /// (`oracle_matching`: sorted, deduplicated, publisher possibly
    /// included). With subscription sets live, the overlay classified
    /// deliveries by each node's MBR filter, so matching and false
    /// positives/negatives are re-accounted against the exact sets;
    /// otherwise the overlay's own answer is only audited.
    fn classify(
        &self,
        publisher: ProcessId,
        point: &Point<D>,
        oracle_matching: &[ProcessId],
        report: &mut PublishReport,
    ) {
        if !self.sets.is_empty() {
            report.matching.clear();
            report.matching.extend(
                oracle_matching
                    .iter()
                    .copied()
                    .filter(|&id| id != publisher),
            );
            report.false_positives = report
                .receivers
                .iter()
                .copied()
                .filter(|&id| !self.matches_exactly(id, point))
                .collect();
            report.false_negatives = report
                .matching
                .iter()
                .copied()
                .filter(|id| !report.receivers.contains(id))
                .collect();
        }
        debug_assert!(
            {
                // The overlay's notion of "who should get this event"
                // must equal the oracle's exact answer (publisher
                // excluded).
                let mut got = report.matching.clone();
                got.sort_unstable();
                let want: Vec<ProcessId> = oracle_matching
                    .iter()
                    .copied()
                    .filter(|&id| id != publisher)
                    .collect();
                got == want
            },
            "oracle disagrees with report"
        );
    }

    /// Accumulated routing statistics over all publishes.
    pub fn stats(&self) -> &RoutingStats {
        &self.stats
    }

    /// Resets the accumulated statistics.
    pub fn reset_stats(&mut self) {
        self.stats = RoutingStats::default();
    }

    /// The underlying overlay (escape hatch for experiments).
    pub fn cluster(&self) -> &DrTreeCluster<D> {
        &self.cluster
    }

    /// Mutable access to the underlying overlay.
    pub fn cluster_mut(&mut self) -> &mut DrTreeCluster<D> {
        &mut self.cluster
    }

    /// Runs the overlay until it reaches a legitimate configuration.
    pub fn stabilize(&mut self, max_rounds: u64) -> Option<u64> {
        self.cluster.stabilize(max_rounds)
    }

    /// Subscription rectangles by subscriber id.
    pub fn subscriptions(&self) -> &BTreeMap<ProcessId, Rect<D>> {
        &self.subscriptions
    }
}

impl<const D: usize> fmt::Debug for Broker<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Broker")
            .field("subscriptions", &self.subscriptions.len())
            .field("stats", &self.stats)
            .finish()
    }
}
