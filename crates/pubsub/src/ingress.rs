//! Concurrent multi-publisher broker ingress.
//!
//! The paper's broker is one logical process, and the rest of this
//! crate keeps that shape: a [`Broker`] is `&mut`-owned by exactly one
//! caller. This module is the front-end that lets *many* publisher
//! threads feed that single owner without giving up its determinism:
//!
//! ```text
//!  publisher threads                commit loop (parallel::Worker)
//!  ─────────────────                ──────────────────────────────
//!  PublisherHandle ──┐
//!    bounded queue   ├─ round-robin ─▶ Broker::publish_batch_multi
//!  PublisherHandle ──┤  fair drain      ├─ ShardedOracle (batched)
//!    bounded queue   │                  └─ publish_pipeline_from
//!  PublisherHandle ──┘                        (windowed overlay)
//!                                        │
//!  reader threads ◀── Arc<OracleSnapshot> (refreshed per commit)
//! ```
//!
//! * **Sharded MPSC ingress** — every publisher gets a bounded
//!   [`PublisherHandle`] queue; a full queue blocks (`publish`) or
//!   rejects (`try_publish`) — admission control, not silent
//!   unboundedness.
//! * **Batching commit loop** — a single long-lived
//!   [`drtree_rtree::parallel::Worker`] owns the [`Broker`] and drains
//!   the queues round-robin, at most a fair budget per publisher per
//!   sweep, committing each swept batch through
//!   [`Broker::publish_batch_multi`]. Aggregating many publishers'
//!   events into one batch deepens the overlay pipeline window — that
//!   amortization, not thread parallelism, is where multi-publisher
//!   throughput scaling comes from.
//! * **Lock-free readers** — after each commit the loop republishes an
//!   `Arc<`[`OracleSnapshot`]`>` built from epoch-free frozen shard
//!   cores; queries never block on (or are blocked by) writers.
//! * **Observability** — an atomic [`RateMeter`] and a lock-free
//!   log-bucketed [`LatencyHistogram`] billing every publication from
//!   its *scheduled arrival time* (open-loop; queue wait is never
//!   hidden — no coordinated omission), read through
//!   [`MultiBroker::rate`] and [`MultiBroker::latency`].
//!
//! Everything the commit loop does — subscribes, unsubscribes, drains,
//! publisher joins and leaves — is serialized through the worker's
//! FIFO command queue, so the committed operation order is a total
//! order, recorded verbatim in the optional audit log
//! ([`IngressConfig::audit_log`]) and replayable op-for-op on a plain
//! sequential [`Broker`] — that replay is exactly how the stress suite
//! pins concurrent delivery sets to the sequential reference.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

use drtree_core::ProcessId;
use drtree_rtree::parallel::{Worker, WorkerHandle};
use drtree_spatial::{Point, Rect};

use crate::broker::{Broker, BrokerError};
use crate::shard::OracleSnapshot;
use crate::stats::RoutingStats;

/// Round budget for the overlay repair that completes every departure
/// ([`MultiBroker::unsubscribe`] / [`PublisherHandle::leave`]). A
/// controlled leave takes O(tree height) repair rounds; this bound is
/// orders of magnitude above what any realistic overlay needs.
const LEAVE_STABILIZE_BUDGET: u64 = 100_000;

/// Errors surfaced by the publish side of the ingress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngressError {
    /// The bounded queue is full (only from
    /// [`PublisherHandle::try_publish`]; the blocking paths wait).
    Full,
    /// The queue was closed — the publisher left, was unsubscribed, or
    /// the whole ingress was shut down.
    Closed,
}

impl fmt::Display for IngressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngressError::Full => write!(f, "ingress queue full"),
            IngressError::Closed => write!(f, "ingress queue closed"),
        }
    }
}

impl std::error::Error for IngressError {}

/// Tuning knobs of a [`MultiBroker`].
#[derive(Debug, Clone, Copy)]
pub struct IngressConfig {
    /// Bounded capacity of each publisher's ingress queue; a full
    /// queue blocks `publish` and rejects `try_publish`.
    pub queue_capacity: usize,
    /// Per-publisher fairness budget: at most this many publications
    /// are taken from one queue per drain sweep, so one firehose
    /// publisher cannot starve the others.
    pub fair_budget: usize,
    /// Upper bound on one committed batch (across all publishers).
    pub max_batch: usize,
    /// Record every committed operation (in commit order) for
    /// exactness audits; see [`MultiBroker::take_audit`].
    pub audit_log: bool,
    /// Republish a fresh [`OracleSnapshot`] after every commit (see
    /// [`MultiBroker::snapshot`]). Costs one delta-layer copy per
    /// commit; turn off when no readers consume snapshots.
    pub refresh_snapshots: bool,
    /// Self-pump: enqueue a drain command with each accepted
    /// publication. On (the default) the loop commits as fast as it
    /// can; off, publications sit queued until an explicit
    /// [`MultiBroker::drain`] — the fully deterministic mode the
    /// stress suite uses to pin commit order.
    pub auto_drain: bool,
}

impl Default for IngressConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            fair_budget: 64,
            max_batch: 1024,
            audit_log: false,
            refresh_snapshots: true,
            auto_drain: true,
        }
    }
}

/// Atomic submitted/committed/rejected counters shared by every
/// [`PublisherHandle`] of a [`MultiBroker`] — the ingress rate meter.
///
/// `submitted` counts publications accepted into a queue, `committed`
/// those the commit loop pushed through the overlay, `rejected` those
/// refused by admission control (full on `try_publish`, or closed).
/// At quiescence `submitted == committed`; the gap in between is the
/// queued backlog.
#[derive(Debug, Default)]
pub struct RateMeter {
    submitted: AtomicU64,
    committed: AtomicU64,
    rejected: AtomicU64,
}

/// A point-in-time copy of a [`RateMeter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateSnapshot {
    /// Publications accepted into an ingress queue.
    pub submitted: u64,
    /// Publications committed through the overlay.
    pub committed: u64,
    /// Publications refused by admission control.
    pub rejected: u64,
}

impl RateMeter {
    /// A consistent-enough copy of the three counters (each is read
    /// atomically; the triple is not a single snapshot).
    pub fn snapshot(&self) -> RateSnapshot {
        RateSnapshot {
            submitted: self.submitted.load(Ordering::Acquire),
            committed: self.committed.load(Ordering::Acquire),
            rejected: self.rejected.load(Ordering::Acquire),
        }
    }
}

/// Leading linear buckets of the histogram (exact below this value).
const HIST_LINEAR: usize = 16;
/// Sub-buckets per power of two above the linear range.
const HIST_MINORS: usize = 16;
/// Total buckets: 16 exact + 16 minors for each major 4..=63.
const HIST_BUCKETS: usize = HIST_LINEAR + (64 - 4) * HIST_MINORS;

/// A lock-free log-bucketed latency histogram (nanoseconds).
///
/// HdrHistogram-style layout: values below 16 ns are exact, larger
/// ones land in one of 16 linear sub-buckets per power of two, so the
/// quantile error is bounded by 1/16 ≈ 6 % — plenty for p50/p99/p999
/// reporting. Recording is two relaxed atomic adds plus a `fetch_max`;
/// reads walk the bucket array. Both sides are `&self`, so one
/// `Arc<LatencyHistogram>` serves the commit loop (writer) and any
/// number of monitors.
///
/// The ingress bills every publication from its **scheduled arrival
/// time** ([`PublisherHandle::publish_at`]) — not from dequeue — so
/// queue wait shows up in these quantiles instead of being coordinated
/// away.
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64; HIST_BUCKETS]>,
    count: AtomicU64,
    max: AtomicU64,
}

/// A point-in-time quantile summary of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Recorded samples.
    pub count: u64,
    /// Median latency in nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile latency in nanoseconds.
    pub p99_ns: u64,
    /// 99.9th percentile latency in nanoseconds.
    pub p999_ns: u64,
    /// Exact worst observed latency in nanoseconds.
    pub max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        // `AtomicU64` is not `Copy`; build the boxed array from a vec.
        let buckets: Box<[AtomicU64]> = (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Self {
            buckets: buckets.try_into().expect("length matches"),
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn index(ns: u64) -> usize {
        if ns < HIST_LINEAR as u64 {
            return ns as usize;
        }
        let major = 63 - ns.leading_zeros() as usize;
        let minor = ((ns >> (major - 4)) & 15) as usize;
        HIST_LINEAR + (major - 4) * HIST_MINORS + minor
    }

    /// Inclusive upper bound of bucket `index` — what quantiles report.
    fn upper_bound(index: usize) -> u64 {
        if index < HIST_LINEAR {
            return index as u64;
        }
        let major = (index - HIST_LINEAR) / HIST_MINORS + 4;
        let minor = ((index - HIST_LINEAR) % HIST_MINORS) as u64;
        ((16 + minor + 1) << (major - 4)) - 1
    }

    /// Records one latency sample.
    pub fn record(&self, ns: u64) {
        self.buckets[Self::index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Release);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Acquire)
    }

    /// The latency at quantile `q ∈ [0, 1]` (bucket upper bound — an
    /// overestimate of at most ~6 %), or 0 with no samples.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return Self::upper_bound(i);
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    /// The exact worst observed latency in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The p50/p99/p999/max summary in one pass-per-quantile.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count(),
            p50_ns: self.quantile_ns(0.50),
            p99_ns: self.quantile_ns(0.99),
            p999_ns: self.quantile_ns(0.999),
            max_ns: self.max_ns(),
        }
    }
}

impl fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("summary", &self.summary())
            .finish()
    }
}

/// One committed operation, in commit order — the replayable record of
/// what the concurrent ingress actually did. Collected when
/// [`IngressConfig::audit_log`] is on; see [`MultiBroker::take_audit`].
#[derive(Debug, Clone, PartialEq)]
pub enum AuditRecord<const D: usize> {
    /// One publication committed through the overlay.
    Commit {
        /// Index of the batch this event was committed in.
        batch: u64,
        /// The publishing subscriber.
        publisher: ProcessId,
        /// Per-publisher FIFO sequence number (queue order).
        seq: u64,
        /// The published point.
        point: Point<D>,
        /// The delivery set, sorted.
        receivers: Vec<ProcessId>,
        /// Overlay rounds this event was in flight.
        rounds: u64,
    },
    /// A subscriber joined (and its filter).
    Subscribe {
        /// The assigned subscriber id.
        id: ProcessId,
        /// The subscription rectangle.
        rect: Rect<D>,
    },
    /// A subscriber left.
    Unsubscribe {
        /// The departed subscriber.
        id: ProcessId,
    },
    /// A subscription moved to a new rectangle in place (same id) —
    /// [`MultiBroker::move_subscription`].
    Move {
        /// The moved subscriber.
        id: ProcessId,
        /// The new subscription rectangle.
        rect: Rect<D>,
    },
    /// The overlay was driven to a legitimate configuration
    /// ([`MultiBroker::stabilize`]) — replayed with the same budget so
    /// a replaying broker walks through the same stable states.
    Stabilize {
        /// The round budget the stabilization was called with.
        max_rounds: u64,
    },
}

/// One queued publication.
#[derive(Debug, Clone, Copy)]
struct Submission<const D: usize> {
    point: Point<D>,
    /// Scheduled arrival on the ingress clock ([`Shared::epoch`]) —
    /// what latency is billed from.
    scheduled_ns: u64,
    /// Per-publisher FIFO sequence number.
    seq: u64,
}

#[derive(Debug)]
struct QueueInner<const D: usize> {
    items: VecDeque<Submission<D>>,
    closed: bool,
    next_seq: u64,
}

/// A bounded blocking ingress queue (one per publisher).
#[derive(Debug)]
struct PubQueue<const D: usize> {
    inner: Mutex<QueueInner<D>>,
    not_full: Condvar,
    capacity: usize,
}

impl<const D: usize> PubQueue<D> {
    fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(QueueInner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                next_seq: 0,
            }),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Blocking push: waits while full, errors once closed. Returns
    /// the assigned per-publisher sequence number.
    fn push(&self, point: Point<D>, scheduled_ns: u64) -> Result<u64, IngressError> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if inner.closed {
                return Err(IngressError::Closed);
            }
            if inner.items.len() < self.capacity {
                break;
            }
            inner = self.not_full.wait(inner).expect("queue lock");
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.items.push_back(Submission {
            point,
            scheduled_ns,
            seq,
        });
        Ok(seq)
    }

    /// Non-blocking push: `Full` instead of waiting.
    fn try_push(&self, point: Point<D>, scheduled_ns: u64) -> Result<u64, IngressError> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.closed {
            return Err(IngressError::Closed);
        }
        if inner.items.len() >= self.capacity {
            return Err(IngressError::Full);
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.items.push_back(Submission {
            point,
            scheduled_ns,
            seq,
        });
        Ok(seq)
    }

    /// Pops up to `budget` submissions into `out`; wakes blocked
    /// producers when anything was taken.
    fn pop_into(&self, budget: usize, out: &mut Vec<Submission<D>>) -> usize {
        let mut inner = self.inner.lock().expect("queue lock");
        let take = inner.items.len().min(budget);
        for _ in 0..take {
            out.push(inner.items.pop_front().expect("len checked"));
        }
        drop(inner);
        if take > 0 {
            self.not_full.notify_all();
        }
        take
    }

    fn is_empty(&self) -> bool {
        self.inner.lock().expect("queue lock").items.is_empty()
    }

    /// Closes the queue: subsequent pushes fail, blocked producers
    /// wake with [`IngressError::Closed`]. Queued items stay for the
    /// final drain.
    fn close(&self) {
        self.inner.lock().expect("queue lock").closed = true;
        self.not_full.notify_all();
    }
}

/// State shared between publisher handles, monitors, and the commit
/// loop.
#[derive(Debug)]
struct Shared<const D: usize> {
    rate: RateMeter,
    latency: LatencyHistogram,
    /// The ingress clock's zero; all `scheduled_ns` values are offsets
    /// from it.
    epoch: Instant,
    /// Collapses redundant drain commands: set when a drain is queued,
    /// cleared when one starts.
    drain_scheduled: AtomicBool,
    /// The latest published oracle snapshot (refreshed per commit).
    snapshot: Mutex<Arc<OracleSnapshot<D>>>,
}

impl<const D: usize> Shared<D> {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// One registered publisher inside the commit loop.
#[derive(Debug)]
struct Slot<const D: usize> {
    id: ProcessId,
    queue: Arc<PubQueue<D>>,
}

/// The commit loop's owned state: the broker plus the ingress
/// registry. Lives inside a [`Worker`]; every mutation of it is a
/// serialized command.
struct CommitState<const D: usize> {
    broker: Broker<D>,
    slots: Vec<Slot<D>>,
    /// Round-robin start position of the next drain sweep.
    rr: usize,
    shared: Arc<Shared<D>>,
    config: IngressConfig,
    /// Self-handle for re-scheduling drains; set by the first command.
    handle: Option<WorkerHandle<CommitState<D>>>,
    /// Reused batch scratch, parallel: the committed events and their
    /// (slot, seq, scheduled_ns) metadata.
    events: Vec<(ProcessId, Point<D>)>,
    meta: Vec<(usize, u64, u64)>,
    /// Reused pop buffer.
    popped: Vec<Submission<D>>,
    audit: Vec<AuditRecord<D>>,
    batches: u64,
}

impl<const D: usize> CommitState<D> {
    fn schedule_drain(&self) {
        if let Some(handle) = &self.handle {
            if !self.shared.drain_scheduled.swap(true, Ordering::AcqRel) {
                handle.submit(|state: &mut CommitState<D>| state.drain_pass());
            }
        }
    }

    /// One fair sweep: up to `fair_budget` per publisher, round-robin
    /// from a rotating start, capped at `max_batch` total, then one
    /// commit. Reschedules itself while backlog remains.
    fn drain_pass(&mut self) {
        self.shared.drain_scheduled.store(false, Ordering::Release);
        self.sweep_once();
        if self.slots.iter().any(|s| !s.queue.is_empty()) {
            self.schedule_drain();
        }
    }

    /// The sweep + commit kernel shared by the self-pumping drain and
    /// the synchronous [`MultiBroker::drain`]. Returns how many
    /// publications were committed.
    fn sweep_once(&mut self) -> usize {
        self.events.clear();
        self.meta.clear();
        let n = self.slots.len();
        if n == 0 {
            return 0;
        }
        let start = self.rr;
        self.rr = (self.rr + 1) % n;
        for k in 0..n {
            let s = (start + k) % n;
            let budget = self
                .config
                .fair_budget
                .min(self.config.max_batch - self.events.len());
            if budget == 0 {
                break;
            }
            self.popped.clear();
            let slot = &self.slots[s];
            slot.queue.pop_into(budget, &mut self.popped);
            for sub in &self.popped {
                self.events.push((slot.id, sub.point));
                self.meta.push((s, sub.seq, sub.scheduled_ns));
            }
        }
        if self.events.is_empty() {
            return 0;
        }
        self.commit()
    }

    /// Commits the swept batch through the broker and does the
    /// post-commit bookkeeping: latency billing from scheduled
    /// arrival, rate metering, audit, snapshot republication.
    fn commit(&mut self) -> usize {
        let events = std::mem::take(&mut self.events);
        let reports = self
            .broker
            .publish_batch_multi(&events)
            .expect("registered publishers stay subscribed while queued");
        let now_ns = self.shared.now_ns();
        for &(_, _, scheduled_ns) in &self.meta {
            self.shared
                .latency
                .record(now_ns.saturating_sub(scheduled_ns));
        }
        if self.config.audit_log {
            for (i, report) in reports.iter().enumerate() {
                let (_, seq, _) = self.meta[i];
                let mut receivers = report.receivers.clone();
                receivers.sort_unstable();
                self.audit.push(AuditRecord::Commit {
                    batch: self.batches,
                    publisher: events[i].0,
                    seq,
                    point: events[i].1,
                    receivers,
                    rounds: report.rounds,
                });
            }
        }
        let committed = events.len();
        self.shared
            .rate
            .committed
            .fetch_add(committed as u64, Ordering::AcqRel);
        self.batches += 1;
        if self.config.refresh_snapshots {
            let snap = Arc::new(self.broker.oracle_snapshot());
            *self.shared.snapshot.lock().expect("snapshot lock") = snap;
        }
        self.events = events;
        committed
    }

    /// Drains until every registered queue is empty (producers may
    /// refill concurrently; this drains what it sees).
    fn drain_all(&mut self) {
        loop {
            self.sweep_once();
            if self.slots.iter().all(|s| s.queue.is_empty()) {
                return;
            }
        }
    }

    /// Post-departure bookkeeping shared by unsubscribe and leave:
    /// repairs the overlay back to a legitimate configuration *inside
    /// the same serialized command*, so no commit ever publishes into
    /// the transiently illegal post-leave overlay (which would cost
    /// false negatives), and records both steps for replay.
    fn depart_repair(&mut self, id: ProcessId) {
        self.broker.repair(LEAVE_STABILIZE_BUDGET);
        if self.config.audit_log {
            self.audit.push(AuditRecord::Unsubscribe { id });
            self.audit.push(AuditRecord::Stabilize {
                max_rounds: LEAVE_STABILIZE_BUDGET,
            });
        }
        if self.config.refresh_snapshots {
            let snap = Arc::new(self.broker.oracle_snapshot());
            *self.shared.snapshot.lock().expect("snapshot lock") = snap;
        }
    }

    /// Closes and fully drains the queues of publisher `id`, then
    /// forgets them. Every accepted publication commits before the
    /// close is acknowledged — leaving never loses publications.
    fn retire_publisher(&mut self, id: ProcessId) {
        for slot in self.slots.iter().filter(|s| s.id == id) {
            slot.queue.close();
        }
        while self.slots.iter().any(|s| s.id == id && !s.queue.is_empty()) {
            self.sweep_once();
        }
        self.slots.retain(|s| s.id != id);
        if !self.slots.is_empty() {
            self.rr %= self.slots.len();
        } else {
            self.rr = 0;
        }
    }
}

/// The concurrent multi-publisher front-end of a [`Broker`].
///
/// Owns the broker on a dedicated commit-loop thread and exposes:
/// thread-safe control operations (subscribe / unsubscribe / publisher
/// join & leave), per-publisher [`PublisherHandle`]s with bounded
/// blocking queues, lock-free [`OracleSnapshot`] reads, and the
/// ingress meters. The module source documents the full data flow.
///
/// Every control operation and every committed batch is one FIFO
/// command on the loop, so the system has a single total commit order
/// — auditable via [`IngressConfig::audit_log`] and replayable on a
/// sequential [`Broker`].
///
/// [`MultiBroker::finish`] shuts down: closes every queue, commits
/// everything accepted, and hands the broker back.
///
/// # Example
///
/// ```
/// use drtree_core::DrTreeConfig;
/// use drtree_pubsub::{Broker, MultiBroker};
/// use drtree_spatial::{Point, Rect, Schema};
///
/// let broker: Broker<2> =
///     Broker::new(Schema::new(["x", "y"]), DrTreeConfig::default(), 7)?;
/// let multi = MultiBroker::with_defaults(broker);
/// let sub = multi.subscribe_rect(Rect::new([0.0, 0.0], [10.0, 10.0]));
///
/// // Publishers live on their own threads, one bounded queue each.
/// let publisher = multi.add_publisher(Rect::new([40.0, 40.0], [50.0, 50.0]));
/// std::thread::scope(|s| {
///     s.spawn(|| publisher.publish(Point::new([5.0, 5.0])).unwrap());
/// });
/// multi.drain(); // quiescence barrier
///
/// // Readers match lock-free against the latest published snapshot;
/// // the rate meter accounts for every accepted publication.
/// assert_eq!(multi.snapshot().match_point(&Point::new([5.0, 5.0])), vec![sub]);
/// assert_eq!(multi.rate().committed, 1);
///
/// let broker = multi.finish(); // hand the broker back
/// assert_eq!(broker.stats().events(), 1);
/// # Ok::<(), drtree_pubsub::BrokerError>(())
/// ```
#[derive(Debug)]
pub struct MultiBroker<const D: usize> {
    worker: Worker<CommitState<D>>,
    shared: Arc<Shared<D>>,
    config: IngressConfig,
}

/// A publisher's handle into a [`MultiBroker`]: a bounded ingress
/// queue plus the subscriber id it publishes as.
///
/// Clonable — clones share the same queue (and publisher id), making
/// each ingress shard multi-producer. Dropping handles does not leave
/// the publisher; call [`PublisherHandle::leave`] (or keep publishing
/// until [`MultiBroker::finish`]).
#[derive(Debug, Clone)]
pub struct PublisherHandle<const D: usize> {
    id: ProcessId,
    queue: Arc<PubQueue<D>>,
    shared: Arc<Shared<D>>,
    worker: WorkerHandle<CommitState<D>>,
    auto_drain: bool,
}

impl<const D: usize> PublisherHandle<D> {
    /// The subscriber id this handle publishes as.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Nanoseconds since the ingress epoch — the clock
    /// [`PublisherHandle::publish_at`] schedules against.
    pub fn now_ns(&self) -> u64 {
        self.shared.now_ns()
    }

    fn pump(&self) {
        if self.auto_drain && !self.shared.drain_scheduled.swap(true, Ordering::AcqRel) {
            self.worker
                .submit(|state: &mut CommitState<D>| state.drain_pass());
        }
    }

    fn accepted(&self) {
        self.shared.rate.submitted.fetch_add(1, Ordering::AcqRel);
        self.pump();
    }

    /// Publishes `point`, blocking while the queue is full
    /// (backpressure). Latency is billed from *now* — the moment the
    /// caller wanted the event published.
    ///
    /// # Errors
    ///
    /// [`IngressError::Closed`] once the publisher left or the ingress
    /// shut down.
    pub fn publish(&self, point: Point<D>) -> Result<(), IngressError> {
        self.publish_at(point, self.shared.now_ns())
    }

    /// Publishes `point` with an explicit scheduled arrival time on
    /// the ingress clock ([`PublisherHandle::now_ns`]) — the open-loop
    /// primitive. Blocks while the queue is full; however long the
    /// publication then waits (backpressure included), its latency is
    /// billed from `scheduled_ns`, so a stalled commit loop shows up
    /// in the quantiles instead of being coordinated away.
    ///
    /// # Errors
    ///
    /// [`IngressError::Closed`] once the publisher left or the ingress
    /// shut down.
    pub fn publish_at(&self, point: Point<D>, scheduled_ns: u64) -> Result<(), IngressError> {
        match self.queue.push(point, scheduled_ns) {
            Ok(_) => {
                self.accepted();
                Ok(())
            }
            Err(e) => {
                self.shared.rate.rejected.fetch_add(1, Ordering::AcqRel);
                Err(e)
            }
        }
    }

    /// Non-blocking publish: [`IngressError::Full`] instead of
    /// waiting (counted as rejected — admission control).
    ///
    /// # Errors
    ///
    /// [`IngressError::Full`] when the queue is at capacity,
    /// [`IngressError::Closed`] once closed.
    pub fn try_publish(&self, point: Point<D>) -> Result<(), IngressError> {
        match self.queue.try_push(point, self.shared.now_ns()) {
            Ok(_) => {
                self.accepted();
                Ok(())
            }
            Err(e) => {
                self.shared.rate.rejected.fetch_add(1, Ordering::AcqRel);
                Err(e)
            }
        }
    }

    /// Leaves the system: closes the queue, commits every already
    /// accepted publication, unsubscribes the publisher from the
    /// overlay (a controlled departure), and repairs the overlay back
    /// to a legitimate configuration — all as one serialized command,
    /// so concurrent publishers' commits never see the transiently
    /// illegal post-leave overlay. Queued publications are never lost;
    /// publishes racing with the close get [`IngressError::Closed`].
    pub fn leave(self) {
        let id = self.id;
        // Close eagerly so racing producers stop before the command
        // runs; the command closes again idempotently.
        self.queue.close();
        let (tx, rx) = mpsc::channel::<()>();
        let submitted = self.worker.submit(move |state: &mut CommitState<D>| {
            state.retire_publisher(id);
            if state.broker.unsubscribe(id).is_ok() {
                state.depart_repair(id);
            }
            let _ = tx.send(());
        });
        if submitted {
            // Wait so "left" means left — callers sequence joins and
            // leaves against commits through this barrier.
            let _ = rx.recv();
        }
    }
}

impl<const D: usize> MultiBroker<D> {
    /// Wraps `broker` in a concurrent ingress with the given config,
    /// moving it onto a dedicated commit-loop thread.
    pub fn new(broker: Broker<D>, config: IngressConfig) -> Self {
        let shared = Arc::new(Shared {
            rate: RateMeter::default(),
            latency: LatencyHistogram::new(),
            epoch: Instant::now(),
            drain_scheduled: AtomicBool::new(false),
            snapshot: Mutex::new(Arc::new(broker.oracle_snapshot())),
        });
        let state = CommitState {
            broker,
            slots: Vec::new(),
            rr: 0,
            shared: Arc::clone(&shared),
            config,
            handle: None,
            events: Vec::new(),
            meta: Vec::new(),
            popped: Vec::new(),
            audit: Vec::new(),
            batches: 0,
        };
        let worker = Worker::spawn(state);
        let handle = worker.handle();
        worker.submit(move |state| state.handle = Some(handle));
        Self {
            worker,
            shared,
            config,
        }
    }

    /// [`MultiBroker::new`] with the default [`IngressConfig`].
    pub fn with_defaults(broker: Broker<D>) -> Self {
        Self::new(broker, IngressConfig::default())
    }

    /// Runs `f` on the commit loop and waits for its result — the
    /// synchronous control primitive every public operation builds on.
    fn call<R, F>(&self, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut CommitState<D>) -> R + Send + 'static,
    {
        let (tx, rx) = mpsc::channel::<R>();
        self.worker.submit(move |state| {
            let _ = tx.send(f(state));
        });
        rx.recv().expect("commit loop alive")
    }

    /// Registers a subscription rectangle (joins the overlay), in FIFO
    /// order with every other control operation and commit. The command
    /// completes in a legitimate configuration
    /// ([`Broker::subscribe_rect`]), so the batch committed right after
    /// a racing join misses nobody.
    pub fn subscribe_rect(&self, rect: Rect<D>) -> ProcessId {
        self.call(move |state| {
            let id = state.broker.subscribe_rect(rect);
            if state.config.audit_log {
                state.audit.push(AuditRecord::Subscribe { id, rect });
            }
            if state.config.refresh_snapshots {
                let snap = Arc::new(state.broker.oracle_snapshot());
                *state.shared.snapshot.lock().expect("snapshot lock") = snap;
            }
            id
        })
    }

    /// Removes a subscription via controlled departure. When `id` is a
    /// registered publisher, its queue is closed and fully committed
    /// first — an unsubscribe never loses accepted publications. The
    /// overlay is repaired back to a legitimate configuration before
    /// the command completes, so commits racing a departure stay
    /// false-negative-free.
    ///
    /// # Errors
    ///
    /// [`BrokerError::UnknownSubscriber`] when `id` is not live.
    pub fn unsubscribe(&self, id: ProcessId) -> Result<(), BrokerError> {
        self.call(move |state| {
            state.retire_publisher(id);
            state.broker.unsubscribe(id)?;
            state.depart_repair(id);
            Ok(())
        })
    }

    /// Moves a live subscription to `rect` in place (same id),
    /// serialized with every other control operation and commit —
    /// motion and publishes interleave in one FIFO order, so each
    /// committed event's delivery set reflects every subscription's
    /// position as of its commit, exactly.
    ///
    /// # Errors
    ///
    /// [`BrokerError::UnknownSubscriber`] when `id` is not live and
    /// [`BrokerError::SetSubscriberImmobile`] for subscription sets.
    pub fn move_subscription(&self, id: ProcessId, rect: Rect<D>) -> Result<(), BrokerError> {
        self.call(move |state| {
            state.broker.move_subscription_rect(id, rect)?;
            if state.config.audit_log {
                state.audit.push(AuditRecord::Move { id, rect });
            }
            if state.config.refresh_snapshots {
                let snap = Arc::new(state.broker.oracle_snapshot());
                *state.shared.snapshot.lock().expect("snapshot lock") = snap;
            }
            Ok(())
        })
    }

    /// Subscribes a new publisher and returns its ingress handle —
    /// mid-stream joins are just this call racing the commit stream.
    pub fn add_publisher(&self, rect: Rect<D>) -> PublisherHandle<D> {
        let id = self.subscribe_rect(rect);
        self.publisher(id).expect("just subscribed")
    }

    /// An ingress handle for existing subscriber `id`. Each call
    /// creates a fresh bounded queue (one more ingress shard); clone
    /// the handle to share one queue between threads instead.
    ///
    /// # Errors
    ///
    /// [`BrokerError::UnknownSubscriber`] when `id` is not live.
    pub fn publisher(&self, id: ProcessId) -> Result<PublisherHandle<D>, BrokerError> {
        let queue = Arc::new(PubQueue::new(self.config.queue_capacity));
        let slot_queue = Arc::clone(&queue);
        self.call(move |state| {
            if !state.broker.subscriptions().contains_key(&id) {
                return Err(BrokerError::UnknownSubscriber(id));
            }
            state.slots.push(Slot {
                id,
                queue: slot_queue,
            });
            Ok(())
        })?;
        Ok(PublisherHandle {
            id,
            queue,
            shared: Arc::clone(&self.shared),
            worker: self.worker.handle(),
            auto_drain: self.config.auto_drain,
        })
    }

    /// Runs overlay rounds until the configuration is legitimate
    /// again (at most `max_rounds`; see [`Broker::stabilize`]) —
    /// serialized with commits, so callers sequence it after an
    /// [`MultiBroker::unsubscribe`] or [`PublisherHandle::leave`]
    /// before further publications must be false-negative-free.
    pub fn stabilize(&self, max_rounds: u64) -> Option<u64> {
        self.call(move |state| {
            let rounds = state.broker.stabilize(max_rounds);
            if state.config.audit_log {
                state.audit.push(AuditRecord::Stabilize { max_rounds });
            }
            rounds
        })
    }

    /// Synchronously drains every queue: commits until all registered
    /// queues are empty (concurrent producers may refill; this drains
    /// what it sees). The explicit pump of `auto_drain: false` mode,
    /// and a quiescence barrier in either mode.
    pub fn drain(&self) {
        self.call(|state| state.drain_all());
    }

    /// The latest published [`OracleSnapshot`] — refreshed after every
    /// commit (and subscription change) while
    /// [`IngressConfig::refresh_snapshots`] is on. Readers query the
    /// returned `Arc` without ever touching the commit loop.
    pub fn snapshot(&self) -> Arc<OracleSnapshot<D>> {
        Arc::clone(&self.shared.snapshot.lock().expect("snapshot lock"))
    }

    /// The atomic ingress rate meter (shared with every handle).
    pub fn rate(&self) -> RateSnapshot {
        self.shared.rate.snapshot()
    }

    /// The open-loop ingress latency quantiles.
    pub fn latency(&self) -> LatencySummary {
        self.shared.latency.summary()
    }

    /// Nanoseconds since the ingress epoch — the scheduling clock of
    /// [`PublisherHandle::publish_at`].
    pub fn now_ns(&self) -> u64 {
        self.shared.now_ns()
    }

    /// How many batches the commit loop has committed so far —
    /// `committed / batches` is the achieved aggregation depth.
    pub fn batches(&self) -> u64 {
        self.call(|state| state.batches)
    }

    /// The broker's accumulated [`RoutingStats`] — a synchronous
    /// control round-trip. Ingress counts and latencies are on
    /// [`MultiBroker::rate`] and [`MultiBroker::latency`].
    pub fn stats(&self) -> RoutingStats {
        self.call(|state| *state.broker.stats())
    }

    /// Takes (and clears) the audit log: every committed operation in
    /// commit order. Empty unless [`IngressConfig::audit_log`] is on.
    pub fn take_audit(&self) -> Vec<AuditRecord<D>> {
        self.call(|state| std::mem::take(&mut state.audit))
    }

    /// Shuts the ingress down: closes every queue (racing publishes
    /// get [`IngressError::Closed`]), commits everything accepted,
    /// stops the commit loop, and returns the broker. No accepted
    /// publication is ever dropped.
    pub fn finish(self) -> Broker<D> {
        self.call(|state| {
            for slot in &state.slots {
                slot.queue.close();
            }
            state.drain_all();
            state.slots.clear();
        });
        self.worker.join().broker
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_monotone_and_tight() {
        for ns in [0u64, 1, 15, 16, 31, 32, 100, 1_000, 123_456, u64::MAX / 2] {
            let i = LatencyHistogram::index(ns);
            let ub = LatencyHistogram::upper_bound(i);
            assert!(ub >= ns, "upper bound below value at {ns}");
            // ≤ 1/16 relative error above the linear range.
            if ns >= 16 {
                assert!(ub - ns <= ns / 16 + 1, "bucket too wide at {ns}: ub={ub}");
            }
            if i > 0 {
                assert!(LatencyHistogram::upper_bound(i - 1) < ub);
            }
        }
    }

    #[test]
    fn histogram_quantiles_bracket_the_samples() {
        let h = LatencyHistogram::new();
        for ns in 1..=1000u64 {
            h.record(ns * 1000);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile_ns(0.50);
        let p99 = h.quantile_ns(0.99);
        let p999 = h.quantile_ns(0.999);
        assert!((500_000..=540_000).contains(&p50), "p50={p50}");
        assert!((990_000..=1_055_000).contains(&p99), "p99={p99}");
        assert!(p999 >= p99, "quantiles must be monotone");
        assert_eq!(h.max_ns(), 1_000_000, "max is exact");
    }

    #[test]
    fn rate_meter_counts_are_independent() {
        let m = RateMeter::default();
        m.submitted.fetch_add(5, Ordering::AcqRel);
        m.committed.fetch_add(3, Ordering::AcqRel);
        m.rejected.fetch_add(1, Ordering::AcqRel);
        assert_eq!(
            m.snapshot(),
            RateSnapshot {
                submitted: 5,
                committed: 3,
                rejected: 1
            }
        );
    }

    #[test]
    fn queue_blocks_then_rejects_after_close() {
        let q: Arc<PubQueue<2>> = Arc::new(PubQueue::new(2));
        assert!(q.try_push(Point::new([0.0, 0.0]), 0).is_ok());
        assert!(q.try_push(Point::new([0.0, 0.0]), 0).is_ok());
        assert_eq!(
            q.try_push(Point::new([0.0, 0.0]), 0),
            Err(IngressError::Full)
        );
        // A blocked producer wakes with `Closed` when the queue closes.
        let blocked = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(Point::new([1.0, 1.0]), 0))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(blocked.join().unwrap(), Err(IngressError::Closed));
        // Items accepted before the close are still drainable.
        let mut out = Vec::new();
        assert_eq!(q.pop_into(16, &mut out), 2);
    }
}
