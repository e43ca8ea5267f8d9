//! The federated broker fabric: crash/rejoin-tolerant pub/sub across
//! `K` broker instances.
//!
//! One level above the per-broker sharding of [`crate::ShardedOracle`],
//! a [`FederatedFabric`] splits the subscription space across `K`
//! broker processes ([`FedNode`]), each *owning* one contiguous Hilbert
//! range of a [`ShardMap`] and *holding* (replicating) its curve
//! neighbors' ranges. Brokers exchange [`drtree_core::FedMessage`]s over
//! the ordinary simulation engines — [`RoundNetwork`] or
//! [`EventNetwork`], selected by [`FedEngine`] — so the same
//! [`FaultProfile`] knobs, partitions and crash primitives the
//! adversary schedules drive against a DR-tree overlay apply unchanged
//! to inter-broker links.
//!
//! # Replication and exactness
//!
//! The *client layer* (the fabric handle itself) owns the sequencer:
//! every subscribe/unsubscribe/move gets a per-range sequence number
//! and is retained in an issued-op ledger. Holders apply ops in
//! contiguous order, gossip per-range [`drtree_core::RangeSummary`]s in
//! heartbeats, push applied ops eagerly to co-holders, and close gaps
//! by pulling (answered from a bounded op log, or with a full snapshot
//! when the pull reaches below the log floor or fingerprints diverge at
//! equal versions). The client ledger re-offers unacknowledged ops to
//! the freshest live holder, so an op survives even if the only broker
//! that had applied it crashes immediately afterwards.
//!
//! Publications pin exactness by version: a [`FedMessage::Publish`]
//! records, per range, the highest sequence issued before the event.
//! The origin broker answers a range locally or forwards to a live
//! holder, and a holder only answers once it has applied at least the
//! pinned version; pruning a range entirely is allowed only against a
//! summary MBR at least that fresh (the MBR is grow-only, so exclusion
//! is conclusive — false positives cost extra forwards, false
//! negatives cannot happen). A crashed origin's in-flight events are
//! re-injected at a surviving broker with the same id and pins.
//! Delivery-set equality against a single-broker reference is asserted
//! at op-quiesced points — mirroring [`drtree_core::run_convergence`]'s
//! contract of latency-under-faults, exactness-after.
//!
//! # Crash, takeover, rejoin
//!
//! [`FederatedFabric::crash_broker`] removes a broker outright (its
//! queued messages settle as losses); the crashed broker's ranges keep
//! at least one live holder by construction, and summary-MBR routing
//! steers forwards there. Rejoin is warm or cold:
//! [`FederatedFabric::rejoin_broker`] with `warm` restores each range
//! from the last [`FederatedFabric::checkpoint_broker`] buffer —
//! validated against the boundaries recorded at checkpoint time via
//! [`ShardedOracle::restore_bytes_checked`], falling back to a cold
//! start when stale — and catches up the missing suffix by pulling;
//! cold rejoin starts empty and is rebuilt by peer re-replication
//! (snapshot push) through the same anti-entropy path. Either way the
//! fabric re-reaches its legal predicate ([`FederatedFabric::check_legal`]:
//! every live holder of every range at the issued version with the
//! expected entry count and fingerprint) within the schedule budget,
//! measured by [`run_federated_convergence`].

use std::collections::BTreeMap;
use std::mem;

use drtree_core::{
    entry_fingerprint, FaultEvent, FaultSchedule, FedMessage, FedOp, LatencyDistribution,
    ProcessId, RangeSummary,
};
use drtree_sim::{
    Context, DynNetwork, EventNetwork, FaultProfile, Metrics, NetConfig, Process, RoundNetwork,
};
use drtree_spatial::hilbert::ShardMap;
use drtree_spatial::{Point, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::shard::ShardedOracle;

/// Tuning knobs of a federated fabric.
#[derive(Debug, Clone)]
pub struct FedConfig {
    /// A peer is presumed dead after this many ticks without a
    /// heartbeat.
    pub heartbeat_miss: u64,
    /// Shard count of each per-range [`ShardedOracle`].
    pub oracle_shards: usize,
    /// Maximum ops answered per [`FedMessage::PullRequest`].
    pub pull_chunk: usize,
    /// Replicas per range beyond the owner: `1` adds the curve
    /// successor, `2` adds the predecessor too (clamped to `1..=2`).
    pub replicas: usize,
    /// Ticks between retries of an unresolved publication.
    pub retry_interval: u64,
    /// Retained ops per range; pulls reaching below the trimmed floor
    /// are answered with a full snapshot.
    pub log_cap: usize,
}

impl Default for FedConfig {
    fn default() -> Self {
        Self {
            heartbeat_miss: 3,
            oracle_shards: 4,
            pull_chunk: 512,
            replicas: 1,
            retry_interval: 2,
            log_cap: 1024,
        }
    }
}

/// The broker slots holding range `range`: the owner first, then its
/// curve successor, then (with two replicas) its predecessor —
/// deduplicated preserving order, so the first live entry is the
/// range's authority.
fn holder_slots<const D: usize>(map: &ShardMap<D>, range: usize, replicas: usize) -> Vec<usize> {
    let (pred, succ) = map.neighbors(range);
    let mut out = Vec::with_capacity(3);
    for slot in [range, succ, pred] {
        if out.len() > replicas.clamp(1, 2) {
            break;
        }
        if !out.contains(&slot) {
            out.push(slot);
        }
    }
    out
}

/// The smallest rectangle containing both arguments.
fn rect_union<const D: usize>(a: &Rect<D>, b: &Rect<D>) -> Rect<D> {
    let mut lo = [0.0; D];
    let mut hi = [0.0; D];
    for d in 0..D {
        lo[d] = a.lo(d).min(b.lo(d));
        hi[d] = a.hi(d).max(b.hi(d));
    }
    Rect::new(lo, hi)
}

/// Folds one applied op into a range's `(len, fingerprint)` summary:
/// a subscribe or unsubscribe XORs its entry's [`entry_fingerprint`]
/// in or out, a move swaps the old entry's for the new one's.
fn fold_summary<const D: usize>(len: &mut u64, fingerprint: &mut u64, op: &FedOp<D>) {
    match *op {
        FedOp::Subscribe { sub, rect } => {
            *len += 1;
            *fingerprint ^= entry_fingerprint(sub, &rect);
        }
        FedOp::Unsubscribe { sub, rect } => {
            *len -= 1;
            *fingerprint ^= entry_fingerprint(sub, &rect);
        }
        FedOp::Move { sub, old, new } => {
            *fingerprint ^= entry_fingerprint(sub, &old) ^ entry_fingerprint(sub, &new);
        }
    }
}

/// One held range's replica state: the entry store, the replication
/// cursor, and the summary the holder advertises.
#[derive(Debug)]
struct RangeState<const D: usize> {
    /// The live `(sub, rect)` set, indexed for matching.
    oracle: ShardedOracle<D>,
    /// Highest contiguous op sequence applied.
    version: u64,
    /// Out-of-order ops buffered until the gap below them closes.
    pending: BTreeMap<u64, FedOp<D>>,
    /// Applied ops by sequence, trimmed to [`FedConfig::log_cap`].
    log: BTreeMap<u64, FedOp<D>>,
    /// Pulls from below this sequence need a snapshot, not the log.
    log_floor: u64,
    /// Grow-only union of every filter ever held — the conservative
    /// pruning summary (removes do not shrink it).
    mbr: Option<Rect<D>>,
    /// XOR of [`entry_fingerprint`] over the live entry set.
    fingerprint: u64,
    /// Live entry count.
    len: u64,
}

impl<const D: usize> RangeState<D> {
    fn new(oracle_shards: usize) -> Self {
        Self {
            oracle: ShardedOracle::new(oracle_shards),
            version: 0,
            pending: BTreeMap::new(),
            log: BTreeMap::new(),
            log_floor: 0,
            mbr: None,
            fingerprint: 0,
            len: 0,
        }
    }

    fn grow_mbr(&mut self, rect: &Rect<D>) {
        self.mbr = Some(match &self.mbr {
            Some(m) => rect_union(m, rect),
            None => *rect,
        });
    }

    /// Applies one op to the entry store, keeping the fingerprint and
    /// count honest (no-op removes and moves leave both untouched).
    fn apply(&mut self, op: &FedOp<D>) {
        let applied = match *op {
            FedOp::Subscribe { sub, rect } => {
                self.oracle.insert(ProcessId::from_raw(sub), rect);
                self.grow_mbr(&rect);
                true
            }
            FedOp::Unsubscribe { sub, rect } => self.oracle.remove(ProcessId::from_raw(sub), &rect),
            FedOp::Move { sub, old, new } => {
                let moved = self.oracle.move_entry(ProcessId::from_raw(sub), &old, new);
                if moved {
                    self.grow_mbr(&new);
                }
                moved
            }
        };
        if applied {
            fold_summary(&mut self.len, &mut self.fingerprint, op);
        }
    }

    fn summary(&self, range: usize) -> RangeSummary<D> {
        RangeSummary {
            range,
            version: self.version,
            len: self.len,
            mbr: self.mbr,
            fingerprint: self.fingerprint,
        }
    }
}

/// A publication an origin broker is still resolving: which ranges
/// have not answered, at what pinned versions, and the matches
/// collected so far.
#[derive(Debug)]
struct PendingEvent<const D: usize> {
    point: Point<D>,
    /// Unanswered `range → pinned minimum version`.
    remaining: BTreeMap<usize, u64>,
    subs: Vec<u64>,
    last_try: u64,
}

/// A holder's externally visible state for one range — what
/// [`FederatedFabric::check_legal`] audits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeView {
    /// Highest contiguous op sequence applied.
    pub version: u64,
    /// Ops buffered out of order (nonzero means a gap is open).
    pub pending: usize,
    /// Live entries held.
    pub len: u64,
    /// XOR fingerprint of the live entry set.
    pub fingerprint: u64,
}

/// One federated broker instance: a [`Process`] driven by either
/// simulation engine, owning one Hilbert range and holding replicas of
/// its curve neighbors' ranges.
#[derive(Debug)]
pub struct FedNode<const D: usize> {
    /// This broker's slot (== the range it owns).
    me: usize,
    /// Slot → process id, fixed for the fabric's lifetime.
    peers: Vec<ProcessId>,
    map: ShardMap<D>,
    cfg: FedConfig,
    /// The ranges this broker holds (owner or replica).
    ranges: BTreeMap<usize, RangeState<D>>,
    /// Last tick a heartbeat arrived from each slot.
    last_heard: Vec<u64>,
    /// Latest advertised summary per `(slot, range)` — overwritten
    /// wholesale by each heartbeat, so a cold rejoiner's version
    /// regression is observed, not masked by a stale maximum.
    advertised: BTreeMap<(usize, usize), RangeSummary<D>>,
    now: u64,
    pending_events: BTreeMap<u64, PendingEvent<D>>,
    /// Resolved publications, drained by the fabric.
    completed: Vec<(u64, Vec<u64>)>,
}

impl<const D: usize> FedNode<D> {
    /// A fresh broker for slot `me`, holding the ranges the holder
    /// placement (own range plus curve neighbors) assigns it, all
    /// empty.
    pub fn new(me: usize, peers: Vec<ProcessId>, map: ShardMap<D>, cfg: FedConfig) -> Self {
        let k = peers.len();
        let ranges = (0..k)
            .filter(|&r| holder_slots(&map, r, cfg.replicas).contains(&me))
            .map(|r| (r, RangeState::new(cfg.oracle_shards)))
            .collect();
        Self {
            me,
            peers,
            map,
            cfg,
            ranges,
            last_heard: vec![0; k],
            advertised: BTreeMap::new(),
            now: 0,
            pending_events: BTreeMap::new(),
            completed: Vec::new(),
        }
    }

    /// This broker's slot index.
    pub fn slot(&self) -> usize {
        self.me
    }

    /// The ranges this broker currently holds.
    pub fn held_ranges(&self) -> Vec<usize> {
        self.ranges.keys().copied().collect()
    }

    /// The auditable state of a held range.
    pub fn range_view(&self, range: usize) -> Option<RangeView> {
        self.ranges.get(&range).map(|st| RangeView {
            version: st.version,
            pending: st.pending.len(),
            len: st.len,
            fingerprint: st.fingerprint,
        })
    }

    /// Drains the resolved publications accumulated since the last
    /// drain: `(event, sorted deduplicated matching subs)`.
    pub fn take_completed(&mut self) -> Vec<(u64, Vec<u64>)> {
        mem::take(&mut self.completed)
    }

    /// Installs `oracle` as the replica of `range` at `version` — the
    /// warm-rejoin and bulk-population entry point. The op log starts
    /// empty with its floor at `version`, so a peer pulling from below
    /// is answered with a snapshot rather than a hole.
    pub fn install_range(&mut self, range: usize, mut oracle: ShardedOracle<D>, version: u64) {
        let mut fingerprint = 0u64;
        let mut len = 0u64;
        let mut mbr: Option<Rect<D>> = None;
        for (id, rect) in oracle.entries() {
            fingerprint ^= entry_fingerprint(id.raw(), &rect);
            len += 1;
            mbr = Some(match &mbr {
                Some(m) => rect_union(m, &rect),
                None => rect,
            });
        }
        self.ranges.insert(
            range,
            RangeState {
                oracle,
                version,
                pending: BTreeMap::new(),
                log: BTreeMap::new(),
                log_floor: version,
                mbr,
                fingerprint,
                len,
            },
        );
    }

    /// Serializes every held range for a warm-rejoin checkpoint:
    /// `(range, snapshot buffer, version, boundaries recorded at
    /// snapshot time)`. Flushes each oracle first so the buffer carries
    /// a shard map to validate against on restore.
    pub fn checkpoint_ranges(&mut self) -> Vec<(usize, Vec<u8>, u64, Option<ShardMap<D>>)> {
        self.ranges
            .iter_mut()
            .map(|(&r, st)| {
                st.oracle.flush();
                (
                    r,
                    st.oracle.snapshot_bytes(),
                    st.version,
                    st.oracle.shard_map().cloned(),
                )
            })
            .collect()
    }

    /// Silently drops one live entry of `range` from this replica,
    /// keeping the fingerprint honest — an adversarial divergence that
    /// anti-entropy must detect (equal version, unequal fingerprint)
    /// and repair by full resync. Only sensible against a
    /// non-authoritative holder.
    pub fn drop_one_entry(&mut self, range: usize) -> bool {
        let Some(st) = self.ranges.get_mut(&range) else {
            return false;
        };
        let Some((id, rect)) = st.oracle.entries().into_iter().next() else {
            return false;
        };
        if st.oracle.remove(id, &rect) {
            st.fingerprint ^= entry_fingerprint(id.raw(), &rect);
            st.len -= 1;
            true
        } else {
            false
        }
    }

    /// `slot` is live by this broker's view: itself, or heard from
    /// within the heartbeat-miss window.
    fn is_live(&self, slot: usize) -> bool {
        slot == self.me || self.now.saturating_sub(self.last_heard[slot]) <= self.cfg.heartbeat_miss
    }

    /// The live authority of `range`: the first live holder in owner →
    /// successor → predecessor order (falling back to the owner when
    /// nobody looks live).
    fn authority(&self, range: usize) -> usize {
        holder_slots(&self.map, range, self.cfg.replicas)
            .into_iter()
            .find(|&s| self.is_live(s))
            .unwrap_or(range)
    }
}

impl<const D: usize> FedNode<D> {
    /// Applies the contiguous prefix of `st.pending`, logging each op,
    /// and returns the `(seq, op)` pairs applied. Trims the log to
    /// `log_cap`, advancing the floor.
    fn drain_range(st: &mut RangeState<D>, log_cap: usize) -> Vec<(u64, FedOp<D>)> {
        let mut applied = Vec::new();
        while let Some(op) = st.pending.remove(&(st.version + 1)) {
            st.apply(&op);
            st.version += 1;
            st.log.insert(st.version, op.clone());
            applied.push((st.version, op));
        }
        while st.log.len() > log_cap {
            let oldest = *st.log.keys().next().expect("log non-empty");
            st.log.remove(&oldest);
            st.log_floor = oldest;
        }
        applied
    }

    /// Buffers `ops` for `range`, applies the contiguous prefix, and —
    /// when `eager` (a fresh client op, not replication traffic) —
    /// pushes what was applied to every co-holder. Ops at or below the
    /// applied version are duplicates and vanish; idempotence by
    /// sequence number is what makes loss, duplication and reordering
    /// harmless.
    fn apply_ops(
        &mut self,
        range: usize,
        ops: Vec<(u64, FedOp<D>)>,
        eager: bool,
        ctx: &mut Context<'_, FedMessage<D>, ()>,
    ) {
        let Some(st) = self.ranges.get_mut(&range) else {
            return;
        };
        for (seq, op) in ops {
            if seq > st.version {
                st.pending.entry(seq).or_insert(op);
            }
        }
        let applied = Self::drain_range(st, self.cfg.log_cap);
        if eager && !applied.is_empty() {
            for slot in holder_slots(&self.map, range, self.cfg.replicas) {
                if slot != self.me {
                    ctx.send(
                        self.peers[slot],
                        FedMessage::PushOps {
                            range,
                            ops: applied.clone(),
                        },
                    );
                }
            }
        }
    }

    /// One anti-entropy step for held range `range`: detect silent
    /// divergence from the authority (equal version, unequal
    /// fingerprint → reset and pull from zero, which the authority
    /// answers with a snapshot when its log does not reach that far),
    /// otherwise pull the missing suffix from the freshest live
    /// co-holder.
    fn anti_entropy(&mut self, range: usize, ctx: &mut Context<'_, FedMessage<D>, ()>) {
        let (my_version, my_fp) = {
            let st = self.ranges.get(&range).expect("held range");
            (st.version, st.fingerprint)
        };
        let auth = self.authority(range);
        if auth != self.me {
            if let Some(adv) = self.advertised.get(&(auth, range)) {
                if adv.version == my_version && adv.fingerprint != my_fp {
                    *self.ranges.get_mut(&range).expect("held range") =
                        RangeState::new(self.cfg.oracle_shards);
                    ctx.send(
                        self.peers[auth],
                        FedMessage::PullRequest { range, from_seq: 0 },
                    );
                    return;
                }
            }
        }
        let mut best: Option<(u64, usize)> = None;
        for slot in holder_slots(&self.map, range, self.cfg.replicas) {
            if slot == self.me || !self.is_live(slot) {
                continue;
            }
            if let Some(adv) = self.advertised.get(&(slot, range)) {
                if adv.version > my_version && best.is_none_or(|(v, _)| adv.version > v) {
                    best = Some((adv.version, slot));
                }
            }
        }
        if let Some((_, slot)) = best {
            ctx.send(
                self.peers[slot],
                FedMessage::PullRequest {
                    range,
                    from_seq: my_version,
                },
            );
        }
    }

    /// Drives one pending publication forward: answer held ranges that
    /// have reached their pin locally, prune ranges whose
    /// fresh-enough summary MBR excludes the point, forward the rest to
    /// the freshest live holder. Finalizes when no range remains.
    fn drive_event(&mut self, event: u64, ctx: &mut Context<'_, FedMessage<D>, ()>) {
        let Some(mut pe) = self.pending_events.remove(&event) else {
            return;
        };
        pe.last_try = self.now;
        let targets: Vec<(usize, u64)> = pe.remaining.iter().map(|(&r, &v)| (r, v)).collect();
        for (range, min_version) in targets {
            if let Some(st) = self.ranges.get_mut(&range) {
                if st.version >= min_version {
                    let mut hits = Vec::new();
                    st.oracle.match_point_into(&pe.point, &mut hits);
                    pe.subs.extend(hits.iter().map(|id| id.raw()));
                    pe.remaining.remove(&range);
                    continue;
                }
            }
            // Summary-MBR pruning, gated on freshness: only a summary
            // at version ≥ the pin may rule the range out — a stale
            // view can cost an extra forward, never a false negative.
            let mut pruned = false;
            let mut best: Option<(u64, usize)> = None;
            for slot in holder_slots(&self.map, range, self.cfg.replicas) {
                if slot == self.me || !self.is_live(slot) {
                    continue;
                }
                let adv = self.advertised.get(&(slot, range));
                if let Some(adv) = adv {
                    if adv.version >= min_version
                        && adv.mbr.is_none_or(|m| !m.contains_point(&pe.point))
                    {
                        pruned = true;
                        break;
                    }
                }
                let v = adv.map_or(0, |a| a.version);
                if best.is_none_or(|(bv, _)| v > bv) {
                    best = Some((v, slot));
                }
            }
            if pruned {
                pe.remaining.remove(&range);
                continue;
            }
            if let Some((_, slot)) = best {
                ctx.send(
                    self.peers[slot],
                    FedMessage::Forward {
                        event,
                        point: pe.point,
                        range,
                        min_version,
                    },
                );
            }
            // Nobody live holds the range right now: keep it pending;
            // the retry timer re-drives once a holder rejoins.
        }
        if pe.remaining.is_empty() {
            pe.subs.sort_unstable();
            pe.subs.dedup();
            self.completed.push((event, pe.subs));
        } else {
            self.pending_events.insert(event, pe);
        }
    }

    fn finalize_if_done(&mut self, event: u64) {
        let done = self
            .pending_events
            .get(&event)
            .is_some_and(|pe| pe.remaining.is_empty());
        if done {
            let mut pe = self.pending_events.remove(&event).expect("checked");
            pe.subs.sort_unstable();
            pe.subs.dedup();
            self.completed.push((event, pe.subs));
        }
    }
}

impl<const D: usize> Process for FedNode<D> {
    type Msg = FedMessage<D>;
    type Timer = ();

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Timer>) {
        self.now = ctx.now();
        // Presume everyone live at (re)start — a rejoiner must not
        // declare the whole fabric dead before its first heartbeats.
        self.last_heard = vec![ctx.now(); self.peers.len()];
        ctx.set_timer(1, ());
    }

    fn on_timer(&mut self, _timer: (), ctx: &mut Context<'_, Self::Msg, Self::Timer>) {
        self.now = ctx.now();
        ctx.set_timer(1, ());
        let summaries: Vec<RangeSummary<D>> =
            self.ranges.iter().map(|(&r, st)| st.summary(r)).collect();
        for (slot, &pid) in self.peers.iter().enumerate() {
            if slot != self.me {
                ctx.send(
                    pid,
                    FedMessage::Heartbeat {
                        summaries: summaries.clone(),
                    },
                );
            }
        }
        for range in self.held_ranges() {
            self.anti_entropy(range, ctx);
        }
        let due: Vec<u64> = self
            .pending_events
            .iter()
            .filter(|(_, pe)| self.now.saturating_sub(pe.last_try) >= self.cfg.retry_interval)
            .map(|(&e, _)| e)
            .collect();
        for event in due {
            self.drive_event(event, ctx);
        }
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Timer>,
    ) {
        self.now = ctx.now();
        match msg {
            FedMessage::Heartbeat { summaries } => {
                if let Some(slot) = self.peers.iter().position(|&p| p == from) {
                    self.last_heard[slot] = self.now;
                    for summary in summaries {
                        self.advertised.insert((slot, summary.range), summary);
                    }
                }
            }
            FedMessage::ClientOp { range, seq, op } => {
                self.apply_ops(range, vec![(seq, op)], true, ctx);
            }
            FedMessage::PushOps { range, ops } => {
                self.apply_ops(range, ops, false, ctx);
            }
            FedMessage::PullRequest { range, from_seq } => {
                let Some(st) = self.ranges.get_mut(&range) else {
                    return;
                };
                if st.version <= from_seq {
                    return;
                }
                if from_seq >= st.log_floor {
                    let hi = st.version.min(from_seq + self.cfg.pull_chunk as u64);
                    let ops: Vec<(u64, FedOp<D>)> = st
                        .log
                        .range(from_seq + 1..=hi)
                        .map(|(&s, op)| (s, op.clone()))
                        .collect();
                    ctx.send(from, FedMessage::PushOps { range, ops });
                } else {
                    let entries: Vec<(u64, Rect<D>)> = st
                        .oracle
                        .entries()
                        .into_iter()
                        .map(|(id, rect)| (id.raw(), rect))
                        .collect();
                    ctx.send(
                        from,
                        FedMessage::PushSnapshot {
                            range,
                            version: st.version,
                            entries,
                        },
                    );
                }
            }
            FedMessage::PushSnapshot {
                range,
                version,
                entries,
            } => {
                let Some(st) = self.ranges.get_mut(&range) else {
                    return;
                };
                if version <= st.version {
                    return;
                }
                let mut fresh = RangeState::new(self.cfg.oracle_shards);
                for &(sub, rect) in &entries {
                    fresh.oracle.insert(ProcessId::from_raw(sub), rect);
                    fresh.fingerprint ^= entry_fingerprint(sub, &rect);
                    fresh.len += 1;
                    fresh.grow_mbr(&rect);
                }
                fresh.version = version;
                fresh.log_floor = version;
                fresh.pending = mem::take(&mut st.pending);
                fresh.pending.retain(|&s, _| s > version);
                *st = fresh;
                Self::drain_range(st, self.cfg.log_cap);
            }
            FedMessage::Forward {
                event,
                point,
                range,
                min_version,
            } => {
                // Answer only from state at least as fresh as the pin;
                // a stale rejoiner stays silent and the origin retries.
                let Some(st) = self.ranges.get_mut(&range) else {
                    return;
                };
                if st.version < min_version {
                    return;
                }
                let mut hits = Vec::new();
                st.oracle.match_point_into(&point, &mut hits);
                let subs: Vec<u64> = hits.iter().map(|id| id.raw()).collect();
                ctx.send(from, FedMessage::Matches { event, range, subs });
            }
            FedMessage::Matches { event, range, subs } => {
                if let Some(pe) = self.pending_events.get_mut(&event) {
                    if pe.remaining.remove(&range).is_some() {
                        pe.subs.extend(subs);
                        self.finalize_if_done(event);
                    }
                }
            }
            FedMessage::Publish {
                event,
                point,
                min_versions,
            } => {
                self.pending_events.insert(
                    event,
                    PendingEvent {
                        point,
                        remaining: min_versions.into_iter().collect(),
                        subs: Vec::new(),
                        last_try: 0,
                    },
                );
                self.drive_event(event, ctx);
            }
        }
    }
}

/// Which simulation engine drives the fabric's brokers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FedEngine {
    /// Synchronous lock-step rounds ([`RoundNetwork`]).
    Rounds,
    /// Discrete-event time with per-message latency ([`EventNetwork`]),
    /// stepped one time unit per fabric step.
    Event,
}

/// A warm-rejoin checkpoint of one broker: every held range's snapshot
/// buffer plus the fabric geometry it was taken under (rejoin refuses
/// the buffers when the geometry has since changed).
#[derive(Debug)]
pub struct FedCheckpoint<const D: usize> {
    ranges: Vec<(usize, Vec<u8>, u64, Option<ShardMap<D>>)>,
    boundaries: Vec<u128>,
    world: Rect<D>,
}

/// How a [`FederatedFabric::rejoin_broker`] call brought the broker
/// back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejoinOutcome {
    /// Warm: every range restored from the checkpoint (staleness
    /// validated) and caught up by delta pull.
    Warm,
    /// Warm was requested but the checkpoint was missing, stale or
    /// rejected — started cold instead.
    ColdFallback,
    /// Cold start: empty ranges, rebuilt by peer re-replication.
    Cold,
    /// The broker was not down; nothing happened.
    NotDown,
}

/// A publication still in flight, tracked by the fabric for
/// re-injection (origin crash) and span measurement.
#[derive(Debug)]
struct Outstanding<const D: usize> {
    point: Point<D>,
    min_versions: Vec<(usize, u64)>,
    injected_at: u64,
    origin: usize,
}

/// A resolved publication with its delivery set and latency span.
#[derive(Debug, Clone)]
pub struct CompletedEvent {
    /// Fabric-global event id.
    pub event: u64,
    /// Sorted, deduplicated matching subscription ids.
    pub subs: Vec<u64>,
    /// Fabric clock when the event was injected.
    pub injected_at: u64,
    /// Fabric clock when the origin finalized it.
    pub completed_at: u64,
}

/// A federation of `K` broker instances plus the client layer driving
/// them: the op sequencer and issued-op ledger, the publication
/// tracker, checkpoints, and the crash/rejoin controls. See the module
/// docs for the protocol.
#[derive(Debug)]
pub struct FederatedFabric<const D: usize> {
    /// Either engine behind one pointer: [`FedEngine`] is a runtime
    /// choice, so the schedule is the network's unsized tail.
    net: Box<DynNetwork<FedNode<D>>>,
    peers: Vec<ProcessId>,
    map: ShardMap<D>,
    cfg: FedConfig,
    clock: u64,
    /// Highest sequence issued per range.
    seq: Vec<u64>,
    /// Every op ever issued, per range by sequence — the client-side
    /// retry ledger (never pruned; this is the harness, not a broker).
    issued: Vec<BTreeMap<u64, FedOp<D>>>,
    /// Live subscriptions: `sub → (range, rect)`.
    subs: BTreeMap<u64, (usize, Rect<D>)>,
    /// What each range must converge to, folded from the issued ops:
    /// `(live entry count, XOR of [`entry_fingerprint`])`, the summary
    /// [`FederatedFabric::check_legal`] compares every holder against.
    ledger: Vec<(u64, u64)>,
    next_sub: u64,
    next_event: u64,
    outstanding: BTreeMap<u64, Outstanding<D>>,
    completed: Vec<CompletedEvent>,
    checkpoints: Vec<Option<FedCheckpoint<D>>>,
    down: Vec<bool>,
    origin_cursor: usize,
}

impl<const D: usize> FederatedFabric<D> {
    /// A fabric of `k` brokers over `world`, ranges split uniformly.
    pub fn new(k: usize, world: &Rect<D>, seed: u64, engine: FedEngine, cfg: FedConfig) -> Self {
        Self::with_map(ShardMap::new(k, world), seed, engine, cfg)
    }

    /// A fabric over an explicit range map (e.g. quantile boundaries
    /// from [`ShardMap::from_sorted_keys`] for a known workload).
    pub fn with_map(map: ShardMap<D>, seed: u64, engine: FedEngine, cfg: FedConfig) -> Self {
        let k = map.shards();
        let peers: Vec<ProcessId> = (0..k as u64).map(ProcessId::from_raw).collect();
        let mut net: Box<DynNetwork<FedNode<D>>> = match engine {
            FedEngine::Rounds => Box::new(RoundNetwork::new(seed)),
            FedEngine::Event => Box::new(EventNetwork::new(NetConfig::default(), seed)),
        };
        for (slot, &pid) in peers.iter().enumerate() {
            let node = FedNode::new(slot, peers.clone(), map.clone(), cfg.clone());
            let id = net.add_process(node);
            assert_eq!(id, pid, "broker ids must be slot-sequential");
        }
        Self {
            net,
            peers,
            map,
            cfg,
            clock: 0,
            seq: vec![0; k],
            issued: vec![BTreeMap::new(); k],
            subs: BTreeMap::new(),
            ledger: vec![(0, 0); k],
            next_sub: 0,
            next_event: 0,
            outstanding: BTreeMap::new(),
            completed: Vec::new(),
            checkpoints: (0..k).map(|_| None).collect(),
            down: vec![false; k],
            origin_cursor: 0,
        }
    }

    /// Number of broker instances.
    pub fn brokers(&self) -> usize {
        self.peers.len()
    }

    /// The fabric clock (rounds stepped so far).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The fabric's range map.
    pub fn map(&self) -> &ShardMap<D> {
        &self.map
    }

    /// Whether broker `b` is currently crashed.
    pub fn is_down(&self, b: usize) -> bool {
        self.down[b]
    }

    /// Live subscription count (client-side view).
    pub fn subscriptions(&self) -> usize {
        self.subs.len()
    }

    /// Publications injected but not yet resolved.
    pub fn outstanding_events(&self) -> usize {
        self.outstanding.len()
    }

    /// Every resolved publication so far, in completion order.
    pub fn completed(&self) -> &[CompletedEvent] {
        &self.completed
    }

    /// Aggregate network metrics (message labels, fault counters).
    pub fn metrics(&self) -> &Metrics {
        self.net.metrics()
    }

    /// Sets the inter-broker link fault profile.
    pub fn set_faults(&mut self, faults: FaultProfile) {
        self.net.set_faults(faults);
    }

    /// Partitions the brokers into isolated groups (by slot); no slot
    /// may be listed in two groups.
    pub fn partition_slots(&mut self, groups: &[Vec<usize>]) {
        let groups: Vec<Vec<ProcessId>> = groups
            .iter()
            .map(|g| g.iter().map(|&s| self.peers[s]).collect())
            .collect();
        self.net.partition(&groups);
    }

    /// Removes every partition and blocked link.
    pub fn heal(&mut self) {
        self.net.unblock_all();
    }

    /// Read access to broker `b` (None while crashed).
    pub fn node(&self, b: usize) -> Option<&FedNode<D>> {
        self.net.process(self.peers[b])
    }

    /// The first non-crashed holder of `range`, owner preferred.
    fn preferred_holder(&self, range: usize) -> usize {
        holder_slots(&self.map, range, self.cfg.replicas)
            .into_iter()
            .find(|&s| !self.down[s])
            .unwrap_or(range)
    }

    /// Issues one sequenced op: ledger first, then an external
    /// (reliable, unfaulted) send to a live holder. Loss past that
    /// point is repaired by the per-step retry sweep.
    fn issue_op(&mut self, range: usize, op: FedOp<D>) {
        self.seq[range] += 1;
        let seq = self.seq[range];
        self.issued[range].insert(seq, op.clone());
        let (len, fingerprint) = &mut self.ledger[range];
        fold_summary(len, fingerprint, &op);
        let target = self.preferred_holder(range);
        self.net
            .send_external(self.peers[target], FedMessage::ClientOp { range, seq, op });
    }

    /// Registers a new subscription; returns its fabric-global id.
    pub fn subscribe(&mut self, rect: Rect<D>) -> u64 {
        let sub = self.next_sub;
        self.next_sub += 1;
        let range = self.map.shard_of(&rect);
        self.subs.insert(sub, (range, rect));
        self.issue_op(range, FedOp::Subscribe { sub, rect });
        sub
    }

    /// Removes subscription `sub`; `false` if unknown.
    pub fn unsubscribe(&mut self, sub: u64) -> bool {
        let Some((range, rect)) = self.subs.remove(&sub) else {
            return false;
        };
        self.issue_op(range, FedOp::Unsubscribe { sub, rect });
        true
    }

    /// Moves subscription `sub` to filter `new`; `false` if unknown.
    /// A move across a range boundary is scripted as unsubscribe +
    /// subscribe (the two ranges replicate independently).
    pub fn relocate(&mut self, sub: u64, new: Rect<D>) -> bool {
        let Some(&(range, old)) = self.subs.get(&sub) else {
            return false;
        };
        let new_range = self.map.shard_of(&new);
        self.subs.insert(sub, (new_range, new));
        if new_range == range {
            self.issue_op(range, FedOp::Move { sub, old, new });
        } else {
            self.issue_op(range, FedOp::Unsubscribe { sub, rect: old });
            self.issue_op(new_range, FedOp::Subscribe { sub, rect: new });
        }
        true
    }

    /// The next live broker in round-robin order — publication origins
    /// rotate so no single broker becomes the fabric's choke point.
    fn next_origin(&mut self) -> usize {
        let k = self.peers.len();
        for _ in 0..k {
            self.origin_cursor = (self.origin_cursor + 1) % k;
            if !self.down[self.origin_cursor] {
                return self.origin_cursor;
            }
        }
        0
    }

    /// Publishes `point`: pins each range at its current issued
    /// sequence (exactness — see module docs) and injects the event at
    /// a live origin broker. Returns the event id; resolution arrives
    /// through [`FederatedFabric::completed`] after enough steps.
    pub fn publish(&mut self, point: Point<D>) -> u64 {
        let event = self.next_event;
        self.next_event += 1;
        let min_versions: Vec<(usize, u64)> =
            (0..self.peers.len()).map(|r| (r, self.seq[r])).collect();
        let origin = self.next_origin();
        self.outstanding.insert(
            event,
            Outstanding {
                point,
                min_versions: min_versions.clone(),
                injected_at: self.clock,
                origin,
            },
        );
        self.net.send_external(
            self.peers[origin],
            FedMessage::Publish {
                event,
                point,
                min_versions,
            },
        );
        event
    }

    /// Advances the fabric one round: network step, client-ledger
    /// retry sweep, and completion collection.
    pub fn step(&mut self) {
        self.clock += 1;
        // One round, or one unit of event time: the fabric clock and
        // the engine's stay equal.
        self.net.advance(1);
        if self.clock.is_multiple_of(self.cfg.retry_interval) {
            self.retry_ops();
        }
        self.collect_completed();
    }

    /// Re-offers issued ops nobody live has applied yet to the
    /// freshest live holder of each range — the client-side guarantee
    /// that an op survives even if the only broker that had applied it
    /// crashed before replicating it.
    fn retry_ops(&mut self) {
        for range in 0..self.peers.len() {
            if self.seq[range] == 0 {
                continue;
            }
            let mut best: Option<(u64, usize)> = None;
            for slot in holder_slots(&self.map, range, self.cfg.replicas) {
                if self.down[slot] {
                    continue;
                }
                let v = self
                    .net
                    .process(self.peers[slot])
                    .and_then(|n| n.range_view(range))
                    .map_or(0, |rv| rv.version);
                if best.is_none_or(|(bv, _)| v > bv) {
                    best = Some((v, slot));
                }
            }
            let Some((vmax, slot)) = best else {
                continue;
            };
            if vmax >= self.seq[range] {
                continue;
            }
            let hi = self.seq[range].min(vmax + 64);
            let ops: Vec<(u64, FedOp<D>)> = self.issued[range]
                .range(vmax + 1..=hi)
                .map(|(&s, op)| (s, op.clone()))
                .collect();
            if !ops.is_empty() {
                self.net
                    .send_external(self.peers[slot], FedMessage::PushOps { range, ops });
            }
        }
    }

    /// Drains resolved publications from every live origin.
    fn collect_completed(&mut self) {
        for slot in 0..self.peers.len() {
            if self.down[slot] {
                continue;
            }
            let done = match self.net.process_mut(self.peers[slot]) {
                Some(node) => node.take_completed(),
                None => continue,
            };
            for (event, subs) in done {
                if let Some(out) = self.outstanding.remove(&event) {
                    self.completed.push(CompletedEvent {
                        event,
                        subs,
                        injected_at: out.injected_at,
                        completed_at: self.clock,
                    });
                }
            }
        }
    }

    /// Whether broker `b` may crash without leaving any of its ranges
    /// holderless — the same "at least one survivor" cap the overlay
    /// schedules apply.
    pub fn can_crash(&self, b: usize) -> bool {
        if self.down[b] {
            return false;
        }
        (0..self.peers.len()).all(|r| {
            let slots = holder_slots(&self.map, r, self.cfg.replicas);
            !slots.contains(&b) || slots.iter().any(|&s| s != b && !self.down[s])
        })
    }

    /// Crashes broker `b` uncontrolled: its process and queued traffic
    /// vanish, and any in-flight publication it originated is
    /// re-injected (same id, same version pins) at a surviving origin.
    /// Refused (`false`) when a range would lose its last holder.
    pub fn crash_broker(&mut self, b: usize) -> bool {
        if !self.can_crash(b) {
            return false;
        }
        self.net.crash(self.peers[b]);
        self.down[b] = true;
        let orphans: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(_, o)| o.origin == b)
            .map(|(&e, _)| e)
            .collect();
        for event in orphans {
            let origin = self.next_origin();
            let out = self.outstanding.get_mut(&event).expect("tracked");
            out.origin = origin;
            let msg = FedMessage::Publish {
                event,
                point: out.point,
                min_versions: out.min_versions.clone(),
            };
            self.net.send_external(self.peers[origin], msg);
        }
        true
    }

    /// Checkpoints broker `b` for a later warm rejoin: every held
    /// range's snapshot buffer plus the current fabric geometry.
    pub fn checkpoint_broker(&mut self, b: usize) -> bool {
        if self.down[b] {
            return false;
        }
        let Some(node) = self.net.process_mut(self.peers[b]) else {
            return false;
        };
        let ranges = node.checkpoint_ranges();
        self.checkpoints[b] = Some(FedCheckpoint {
            ranges,
            boundaries: self.map.boundaries().to_vec(),
            world: *self.map.world(),
        });
        true
    }

    /// Checkpoints every live broker.
    pub fn checkpoint_all(&mut self) {
        for b in 0..self.peers.len() {
            if !self.down[b] {
                self.checkpoint_broker(b);
            }
        }
    }

    /// Rejoins crashed broker `b`. `warm` restores from its last
    /// checkpoint — each range validated against the boundaries
    /// recorded at checkpoint time ([`ShardedOracle::restore_bytes_checked`])
    /// and refused wholesale if the fabric geometry changed since —
    /// then catches up by pulling the missing suffix; any validation
    /// failure degrades to [`RejoinOutcome::ColdFallback`]. Cold
    /// rejoin starts empty and is rebuilt by peer re-replication.
    pub fn rejoin_broker(&mut self, b: usize, warm: bool) -> RejoinOutcome {
        if !self.down[b] {
            return RejoinOutcome::NotDown;
        }
        let mut node = FedNode::new(b, self.peers.clone(), self.map.clone(), self.cfg.clone());
        let mut outcome = RejoinOutcome::Cold;
        if warm {
            outcome = RejoinOutcome::ColdFallback;
            if let Some(cp) = self.checkpoints[b].take() {
                if cp.boundaries.as_slice() == self.map.boundaries()
                    && cp.world == *self.map.world()
                {
                    let mut restored = Vec::new();
                    let mut ok = true;
                    for (range, raw, version, recorded_map) in cp.ranges {
                        let result = match &recorded_map {
                            Some(m) => ShardedOracle::restore_bytes_checked(raw, m),
                            None => ShardedOracle::restore_bytes(raw),
                        };
                        match result {
                            Ok(oracle) => restored.push((range, oracle, version)),
                            Err(_) => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    if ok {
                        for (range, oracle, version) in restored {
                            node.install_range(range, oracle, version);
                        }
                        outcome = RejoinOutcome::Warm;
                    }
                }
            }
            if outcome != RejoinOutcome::Warm {
                node = FedNode::new(b, self.peers.clone(), self.map.clone(), self.cfg.clone());
            }
        }
        let revived = self.net.revive(self.peers[b], node);
        assert!(revived, "broker {b} failed to revive");
        self.down[b] = false;
        outcome
    }

    /// The fabric's legal predicate: every range has at least one live
    /// holder, and every live holder sits exactly at the issued
    /// version with no buffered gap, the expected entry count, and the
    /// expected XOR fingerprint.
    pub fn check_legal(&self) -> Result<(), String> {
        for range in 0..self.peers.len() {
            let mut live = 0usize;
            for slot in holder_slots(&self.map, range, self.cfg.replicas) {
                if self.down[slot] {
                    continue;
                }
                live += 1;
                let Some(view) = self
                    .net
                    .process(self.peers[slot])
                    .and_then(|n| n.range_view(range))
                else {
                    return Err(format!("broker {slot} lost range {range}"));
                };
                if view.version != self.seq[range] {
                    return Err(format!(
                        "range {range} at broker {slot}: version {} != issued {}",
                        view.version, self.seq[range]
                    ));
                }
                if view.pending != 0 {
                    return Err(format!(
                        "range {range} at broker {slot}: {} ops buffered out of order",
                        view.pending
                    ));
                }
                let (want_len, want_fp) = self.ledger[range];
                if view.len != want_len {
                    return Err(format!(
                        "range {range} at broker {slot}: {} entries != expected {want_len}",
                        view.len
                    ));
                }
                if view.fingerprint != want_fp {
                    return Err(format!(
                        "range {range} at broker {slot}: fingerprint diverged"
                    ));
                }
            }
            if live == 0 {
                return Err(format!("range {range} has no live holder"));
            }
        }
        Ok(())
    }

    /// Steps until every publication resolved and the legal predicate
    /// holds, up to `max_steps`; `true` on success.
    pub fn settle(&mut self, max_steps: u64) -> bool {
        for _ in 0..max_steps {
            if self.outstanding.is_empty() && self.check_legal().is_ok() {
                return true;
            }
            self.step();
        }
        self.outstanding.is_empty() && self.check_legal().is_ok()
    }

    /// Bulk-registers `rects` through the ledger (each gets a sequence
    /// and an issued [`FedOp::Subscribe`], exactly as if subscribed one
    /// by one) and installs the resulting range states directly on
    /// every live holder — the fast fabric bootstrap for large
    /// workloads. Installing at `version == seq` with the log floor
    /// there means a later puller from below is answered with a
    /// snapshot, never a hole.
    pub fn bulk_populate(&mut self, rects: &[Rect<D>]) {
        for &rect in rects {
            let sub = self.next_sub;
            self.next_sub += 1;
            let range = self.map.shard_of(&rect);
            self.subs.insert(sub, (range, rect));
            self.seq[range] += 1;
            let op = FedOp::Subscribe { sub, rect };
            let (len, fingerprint) = &mut self.ledger[range];
            fold_summary(len, fingerprint, &op);
            self.issued[range].insert(self.seq[range], op);
        }
        let k = self.peers.len();
        let mut by_range: Vec<Vec<(u64, Rect<D>)>> = vec![Vec::new(); k];
        for (&sub, &(range, rect)) in &self.subs {
            by_range[range].push((sub, rect));
        }
        for slot in 0..k {
            if self.down[slot] {
                continue;
            }
            for (range, entries) in by_range.iter().enumerate() {
                if !holder_slots(&self.map, range, self.cfg.replicas).contains(&slot) {
                    continue;
                }
                let mut oracle = ShardedOracle::new(self.cfg.oracle_shards);
                for &(sub, rect) in entries {
                    oracle.insert(ProcessId::from_raw(sub), rect);
                }
                oracle.flush();
                let version = self.seq[range];
                if let Some(node) = self.net.process_mut(self.peers[slot]) {
                    node.install_range(range, oracle, version);
                }
            }
        }
    }

    /// The union of each range's live filters (`None` for a range
    /// holding none).
    fn range_unions(&self) -> Vec<Option<Rect<D>>> {
        let mut unions = vec![None; self.peers.len()];
        for &(range, rect) in self.subs.values() {
            let union: &mut Option<Rect<D>> = &mut unions[range];
            *union = Some(union.map_or(rect, |u| rect_union(&u, &rect)));
        }
        unions
    }

    /// The reference delivery set: every live subscription whose
    /// filter contains `point`, sorted — what a single-broker oracle
    /// over the same ledger would deliver.
    pub fn expected_matches(&self, point: &Point<D>) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .subs
            .iter()
            .filter(|(_, (_, rect))| rect.contains_point(point))
            .map(|(&sub, _)| sub)
            .collect();
        out.sort_unstable();
        out
    }
}

/// Knobs of [`run_federated_convergence`].
#[derive(Debug, Clone)]
pub struct FedConvergenceConfig {
    /// Maximum publications in flight during the faulty phase.
    pub window: usize,
    /// Background subscription ops injected per round.
    pub ops_per_round: usize,
    /// Publications injected per round (window permitting).
    pub events_per_round: usize,
    /// Post-heal rounds granted to drain in-flight publications before
    /// the recovery clock starts.
    pub drain_margin: u64,
    /// Post-recovery probe publications compared against the reference.
    pub probe_events: usize,
    /// Recovery-phase legality checks run every this many rounds.
    pub check_stride: u64,
    /// Live brokers are checkpointed every this many rounds, so a
    /// warm rejoin genuinely restores stale state and must catch up.
    pub checkpoint_stride: u64,
    /// Seed of the harness's own workload RNG.
    pub seed: u64,
}

impl Default for FedConvergenceConfig {
    fn default() -> Self {
        Self {
            window: 8,
            ops_per_round: 2,
            events_per_round: 1,
            drain_margin: 64,
            probe_events: 32,
            check_stride: 4,
            checkpoint_stride: 8,
            seed: 0xfed,
        }
    }
}

/// What [`run_federated_convergence`] measured.
#[derive(Debug, Clone)]
pub struct FedConvergenceReport {
    /// Display name of the schedule driven.
    pub schedule: String,
    /// Fabric size.
    pub brokers: usize,
    /// Broker crashes actually applied.
    pub broker_crashes: u64,
    /// Rejoins restored from a validated checkpoint.
    pub warm_rejoins: u64,
    /// Rejoins started cold by request.
    pub cold_rejoins: u64,
    /// Warm rejoins degraded to cold (missing/stale checkpoint).
    pub cold_fallbacks: u64,
    /// Rounds after heal+drain until the legal predicate held with no
    /// event outstanding; `None` if the budget ran out.
    pub recovery_rounds: Option<u64>,
    /// The schedule's convergence budget.
    pub budget: u64,
    /// Publication spans measured while faults were active.
    pub fault_latency: LatencyDistribution,
    /// Publication spans of the post-recovery probes.
    pub post_latency: LatencyDistribution,
    /// Every post-recovery probe's delivery set equalled the
    /// single-broker reference exactly.
    pub post_matches_reference: bool,
    /// Subscriptions the reference matched but a probe missed.
    pub post_false_negatives: u64,
    /// Inter-broker [`FedMessage::Forward`] messages over the run.
    pub forwarded: u64,
    /// Total subscription deliveries across resolved publications.
    pub delivered_matches: u64,
    /// Publications resolved over the whole run (probes included).
    pub events_completed: u64,
    /// Publications never resolved (should be zero).
    pub events_unresolved: u64,
}

impl FedConvergenceReport {
    /// The schedule's pass criterion: reconverged within budget, every
    /// event resolved, and post-recovery delivery exactly matches the
    /// single-broker reference with zero false negatives.
    pub fn passed(&self) -> bool {
        self.recovery_rounds.is_some()
            && self.post_matches_reference
            && self.post_false_negatives == 0
            && self.events_unresolved == 0
    }
}

/// A random filter rectangle covering ~2–10% of the world per axis.
fn random_rect<const D: usize>(rng: &mut StdRng, world: &Rect<D>) -> Rect<D> {
    let mut lo = [0.0; D];
    let mut hi = [0.0; D];
    for d in 0..D {
        let extent = (world.hi(d) - world.lo(d)).max(1e-9);
        let w = extent * rng.gen_range(0.02..0.10);
        let x = world.lo(d) + rng.gen_range(0.0..(extent - w).max(1e-9));
        lo[d] = x;
        hi[d] = x + w;
    }
    Rect::new(lo, hi)
}

/// A probe point: the center of a random live subscription when one
/// can be found (so probes actually hit), a random world point else.
fn probe_point<const D: usize>(
    rng: &mut StdRng,
    fabric: &FederatedFabric<D>,
    world: &Rect<D>,
) -> Point<D> {
    for _ in 0..8 {
        if fabric.next_sub == 0 {
            break;
        }
        let sub = rng.gen_range(0..fabric.next_sub);
        if let Some((_, rect)) = fabric.subs.get(&sub) {
            return rect.center();
        }
    }
    let mut coords = [0.0; D];
    for (d, c) in coords.iter_mut().enumerate() {
        *c = rng.gen_range(world.lo(d)..=world.hi(d));
    }
    Point::new(coords)
}

/// Maps a schedule's `broker` index (relative to its own `brokers`
/// fabric size) onto this fabric's `k` slots.
fn victim_slot(broker: usize, brokers: usize, k: usize) -> usize {
    let brokers = brokers.max(1);
    ((broker % brokers) * k / brokers).min(k.saturating_sub(1))
}

/// Drives one [`FaultSchedule`] against a federated fabric — the
/// federation-level counterpart of [`drtree_core::run_convergence`].
///
/// Faulty phase: scheduled events are applied under their federated
/// interpretation (broker crash/rejoin directly; partitions and
/// regional crashes resolved through the union of each broker's
/// primary-range live filters; fault windows verbatim on the inter-broker
/// links; corruption as a silent entry drop on a non-authoritative
/// replica), while background subscribe/move/unsubscribe churn and a
/// windowed publication stream keep the fabric busy. Live brokers are
/// checkpointed periodically so warm rejoins restore genuinely stale
/// state. Recovery phase: heal, clear faults, rejoin stragglers cold,
/// drain, then step until [`FederatedFabric::check_legal`] holds —
/// counted against the schedule budget. Finally, probe publications
/// are compared op-for-op against the client-side reference.
pub fn run_federated_convergence<const D: usize>(
    fabric: &mut FederatedFabric<D>,
    schedule: &FaultSchedule<D>,
    cfg: &FedConvergenceConfig,
) -> FedConvergenceReport {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let world = *fabric.map.world();
    let k = fabric.brokers();
    let mut broker_crashes = 0u64;
    let mut warm_rejoins = 0u64;
    let mut cold_rejoins = 0u64;
    let mut cold_fallbacks = 0u64;
    let mut fault_samples: Vec<u64> = Vec::new();
    let mut seen_completed = fabric.completed.len();

    let drain_new = |fabric: &FederatedFabric<D>, seen: &mut usize, samples: &mut Vec<u64>| {
        for ev in &fabric.completed[*seen..] {
            samples.push(ev.completed_at.saturating_sub(ev.injected_at));
        }
        *seen = fabric.completed.len();
    };

    let mut event_idx = 0usize;
    for round in 0..schedule.duration {
        if round % cfg.checkpoint_stride == 0 {
            fabric.checkpoint_all();
        }
        while event_idx < schedule.events.len() && schedule.events[event_idx].at <= round {
            match &schedule.events[event_idx].event {
                FaultEvent::BrokerCrash { broker, brokers } => {
                    let victim = victim_slot(*broker, *brokers, k);
                    if fabric.crash_broker(victim) {
                        broker_crashes += 1;
                    }
                }
                FaultEvent::BrokerRejoin {
                    broker,
                    brokers,
                    warm,
                } => {
                    let victim = victim_slot(*broker, *brokers, k);
                    match fabric.rejoin_broker(victim, *warm) {
                        RejoinOutcome::Warm => warm_rejoins += 1,
                        RejoinOutcome::Cold => cold_rejoins += 1,
                        RejoinOutcome::ColdFallback => cold_fallbacks += 1,
                        RejoinOutcome::NotDown => {}
                    }
                }
                FaultEvent::Partition { region } => {
                    // A broker sides with the center of its owned
                    // range's live union (brokers with an empty range stay
                    // outside the cut).
                    let unions = fabric.range_unions();
                    let (inside, outside): (Vec<usize>, Vec<usize>) = (0..k).partition(|&b| {
                        unions[b].is_some_and(|u| region.contains_point(&u.center()))
                    });
                    if !inside.is_empty() && !outside.is_empty() {
                        fabric.partition_slots(&[inside, outside]);
                    }
                }
                FaultEvent::Heal => fabric.heal(),
                FaultEvent::RegionalCrash { region, max } => {
                    let unions = fabric.range_unions();
                    let mut crashed = 0usize;
                    for (b, union) in unions.iter().enumerate() {
                        if crashed >= *max {
                            break;
                        }
                        let in_region = union.is_some_and(|u| region.contains_point(&u.center()));
                        if in_region && fabric.crash_broker(b) {
                            broker_crashes += 1;
                            crashed += 1;
                        }
                    }
                }
                FaultEvent::Faults { profile } => fabric.set_faults(*profile),
                FaultEvent::ClearFaults => fabric.set_faults(FaultProfile::default()),
                FaultEvent::Corruption { count, .. } => {
                    // Silent entry drops on non-authoritative live
                    // replicas; anti-entropy must detect and repair.
                    for _ in 0..*count {
                        let range = rng.gen_range(0..k);
                        let slots = holder_slots(&fabric.map, range, fabric.cfg.replicas);
                        let authority = slots.iter().copied().find(|&s| !fabric.down[s]);
                        let victim = slots
                            .iter()
                            .copied()
                            .find(|&s| Some(s) != authority && !fabric.down[s]);
                        if let Some(victim) = victim {
                            if let Some(node) = fabric.net.process_mut(fabric.peers[victim]) {
                                node.drop_one_entry(range);
                            }
                        }
                    }
                }
            }
            event_idx += 1;
        }
        for _ in 0..cfg.ops_per_round {
            let roll: f64 = rng.gen();
            if roll < 0.5 || fabric.subs.is_empty() {
                let rect = random_rect(&mut rng, &world);
                fabric.subscribe(rect);
            } else {
                let sub = rng.gen_range(0..fabric.next_sub);
                if roll < 0.8 {
                    let rect = random_rect(&mut rng, &world);
                    fabric.relocate(sub, rect);
                } else {
                    fabric.unsubscribe(sub);
                }
            }
        }
        if fabric.outstanding.len() < cfg.window {
            for _ in 0..cfg.events_per_round {
                let point = probe_point(&mut rng, fabric, &world);
                fabric.publish(point);
            }
        }
        fabric.step();
        drain_new(fabric, &mut seen_completed, &mut fault_samples);
    }

    // Recovery phase: perfect network, everyone back (stragglers cold).
    fabric.heal();
    fabric.set_faults(FaultProfile::default());
    for b in 0..k {
        if fabric.down[b] {
            match fabric.rejoin_broker(b, false) {
                RejoinOutcome::Cold => cold_rejoins += 1,
                RejoinOutcome::Warm => warm_rejoins += 1,
                RejoinOutcome::ColdFallback => cold_fallbacks += 1,
                RejoinOutcome::NotDown => {}
            }
        }
    }
    let mut drained = 0u64;
    while !fabric.outstanding.is_empty() && drained < cfg.drain_margin {
        fabric.step();
        drained += 1;
    }
    drain_new(fabric, &mut seen_completed, &mut fault_samples);

    let mut recovery_rounds = None;
    let mut spent = 0u64;
    loop {
        if fabric.outstanding.is_empty() && fabric.check_legal().is_ok() {
            recovery_rounds = Some(spent);
            break;
        }
        if spent >= schedule.budget {
            break;
        }
        let chunk = cfg.check_stride.min(schedule.budget - spent);
        for _ in 0..chunk {
            fabric.step();
        }
        spent += chunk;
        drain_new(fabric, &mut seen_completed, &mut fault_samples);
    }
    let events_unresolved = fabric.outstanding.len() as u64;

    // Post-recovery probes: delivery-set equality, op for op.
    let mut post_samples: Vec<u64> = Vec::new();
    let mut post_matches_reference = recovery_rounds.is_some();
    let mut post_false_negatives = 0u64;
    if recovery_rounds.is_some() {
        for _ in 0..cfg.probe_events {
            let point = probe_point(&mut rng, fabric, &world);
            let want = fabric.expected_matches(&point);
            let event = fabric.publish(point);
            let mut resolved = false;
            for _ in 0..cfg.drain_margin.max(16) * 4 {
                fabric.step();
                if let Some(ev) = fabric.completed.iter().rev().find(|e| e.event == event) {
                    post_samples.push(ev.completed_at.saturating_sub(ev.injected_at));
                    post_false_negatives +=
                        want.iter().filter(|s| !ev.subs.contains(s)).count() as u64;
                    if ev.subs != want {
                        post_matches_reference = false;
                    }
                    resolved = true;
                    break;
                }
            }
            if !resolved {
                post_matches_reference = false;
            }
        }
        seen_completed = fabric.completed.len();
        let _ = seen_completed;
    }

    FedConvergenceReport {
        schedule: schedule.to_string(),
        brokers: k,
        broker_crashes,
        warm_rejoins,
        cold_rejoins,
        cold_fallbacks,
        recovery_rounds,
        budget: schedule.budget,
        fault_latency: LatencyDistribution::from_samples(&mut fault_samples),
        post_latency: LatencyDistribution::from_samples(&mut post_samples),
        post_matches_reference,
        post_false_negatives,
        forwarded: fabric.metrics().label_count("fed-forward"),
        delivered_matches: fabric.completed.iter().map(|e| e.subs.len() as u64).sum(),
        events_completed: fabric.completed.len() as u64,
        events_unresolved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> Rect<2> {
        Rect::new([0.0, 0.0], [100.0, 100.0])
    }

    fn fabric(k: usize, engine: FedEngine) -> FederatedFabric<2> {
        FederatedFabric::new(k, &world(), 7, engine, FedConfig::default())
    }

    /// `(len, fingerprint)` per range, folded from the live
    /// subscriptions: what the running ledger must equal.
    fn folded_ledger(fab: &FederatedFabric<2>) -> Vec<(u64, u64)> {
        let mut want = vec![(0u64, 0u64); fab.brokers()];
        for (&sub, &(range, rect)) in &fab.subs {
            want[range].0 += 1;
            want[range].1 ^= entry_fingerprint(sub, &rect);
        }
        want
    }

    #[test]
    fn running_ledger_equals_a_fold_over_the_live_subscriptions() {
        let mut rng = StdRng::seed_from_u64(39);
        let mut fab = fabric(4, FedEngine::Rounds);
        let (mut same_range, mut cross_range) = (0u32, 0u32);
        for _ in 0..400 {
            let roll: f64 = rng.gen();
            if roll < 0.4 || fab.subs.is_empty() {
                fab.subscribe(random_rect(&mut rng, &world()));
            } else {
                let sub = rng.gen_range(0..fab.next_sub);
                if roll < 0.8 {
                    let new = random_rect(&mut rng, &world());
                    if let Some(&(range, _)) = fab.subs.get(&sub) {
                        if fab.map.shard_of(&new) == range {
                            same_range += 1;
                        } else {
                            cross_range += 1;
                        }
                    }
                    fab.relocate(sub, new);
                } else {
                    fab.unsubscribe(sub);
                }
            }
            assert_eq!(fab.ledger, folded_ledger(&fab));
        }
        assert!(
            same_range > 0 && cross_range > 0,
            "both kinds of relocate ran"
        );
        let rects: Vec<Rect<2>> = (0..200).map(|_| random_rect(&mut rng, &world())).collect();
        fab.bulk_populate(&rects);
        assert_eq!(fab.ledger, folded_ledger(&fab));
        assert!(
            fab.settle(500),
            "fabric never settled: {:?}",
            fab.check_legal()
        );
    }

    #[test]
    fn quiet_fabric_reaches_legal_and_answers_exactly() {
        for engine in [FedEngine::Rounds, FedEngine::Event] {
            let mut fab = fabric(4, engine);
            let mut subs = Vec::new();
            for i in 0..40u64 {
                let x = (i % 8) as f64 * 12.0;
                let y = (i / 8) as f64 * 18.0;
                subs.push(fab.subscribe(Rect::new([x, y], [x + 10.0, y + 10.0])));
            }
            assert!(
                fab.settle(200),
                "fabric never settled: {:?}",
                fab.check_legal()
            );
            let point = Point::new([5.0, 5.0]);
            let want = fab.expected_matches(&point);
            assert!(!want.is_empty());
            let event = fab.publish(point);
            for _ in 0..50 {
                fab.step();
            }
            let got = fab
                .completed()
                .iter()
                .find(|e| e.event == event)
                .expect("publication resolved");
            assert_eq!(got.subs, want);
        }
    }

    #[test]
    fn crash_takeover_then_cold_rejoin_reconverges() {
        let mut fab = fabric(4, FedEngine::Rounds);
        for i in 0..60u64 {
            let x = (i % 10) as f64 * 9.0;
            let y = (i / 10) as f64 * 15.0;
            fab.subscribe(Rect::new([x, y], [x + 8.0, y + 8.0]));
        }
        assert!(fab.settle(300));
        assert!(fab.crash_broker(1));
        // Matching stays exact while the broker is down: the
        // surviving holder of its range answers.
        let point = Point::new([50.0, 50.0]);
        let want = fab.expected_matches(&point);
        let event = fab.publish(point);
        for _ in 0..60 {
            fab.step();
        }
        let got = fab
            .completed()
            .iter()
            .find(|e| e.event == event)
            .expect("resolved while broker down");
        assert_eq!(got.subs, want, "takeover changed the delivery set");
        assert_eq!(fab.rejoin_broker(1, false), RejoinOutcome::Cold);
        assert!(
            fab.settle(400),
            "cold rejoin never converged: {:?}",
            fab.check_legal()
        );
    }

    #[test]
    fn warm_rejoin_restores_checkpoint_and_catches_up() {
        let mut fab = fabric(4, FedEngine::Rounds);
        for i in 0..50u64 {
            let x = (i % 10) as f64 * 9.0;
            let y = (i / 10) as f64 * 18.0;
            fab.subscribe(Rect::new([x, y], [x + 8.0, y + 8.0]));
        }
        assert!(fab.settle(300));
        fab.checkpoint_all();
        // Ops past the checkpoint: the warm rejoiner must catch these
        // up by delta pull, not just restore the buffer.
        for i in 0..10u64 {
            let x = 3.0 + i as f64 * 9.0;
            fab.subscribe(Rect::new([x, 40.0], [x + 5.0, 46.0]));
        }
        for _ in 0..20 {
            fab.step();
        }
        assert!(fab.crash_broker(2));
        assert_eq!(fab.rejoin_broker(2, true), RejoinOutcome::Warm);
        assert!(
            fab.settle(400),
            "warm rejoin never converged: {:?}",
            fab.check_legal()
        );
    }

    #[test]
    fn warm_rejoin_without_checkpoint_falls_back_cold() {
        let mut fab = fabric(3, FedEngine::Event);
        for i in 0..30u64 {
            let x = (i % 6) as f64 * 16.0;
            let y = (i / 6) as f64 * 19.0;
            fab.subscribe(Rect::new([x, y], [x + 9.0, y + 9.0]));
        }
        assert!(fab.settle(300));
        assert!(fab.crash_broker(0));
        assert_eq!(fab.rejoin_broker(0, true), RejoinOutcome::ColdFallback);
        assert!(fab.settle(400));
    }

    #[test]
    fn broker_churn_schedule_passes_end_to_end() {
        let schedule = FaultSchedule::broker_churn();
        let mut fab = fabric(4, FedEngine::Rounds);
        let mut rng = StdRng::seed_from_u64(99);
        let rects: Vec<Rect<2>> = (0..200).map(|_| random_rect(&mut rng, &world())).collect();
        fab.bulk_populate(&rects);
        let report =
            run_federated_convergence(&mut fab, &schedule, &FedConvergenceConfig::default());
        assert!(report.passed(), "broker-churn failed: {report:?}");
        assert!(report.broker_crashes >= 2, "schedule crashed nobody");
        assert!(
            report.warm_rejoins + report.cold_rejoins + report.cold_fallbacks >= 2,
            "schedule rejoined nobody"
        );
    }
}
