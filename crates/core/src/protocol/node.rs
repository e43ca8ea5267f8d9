//! The DR-tree subscriber process: state, dispatch, and the periodic
//! tick pipeline.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use drtree_sim::{Context, Process, ProcessId};
use drtree_spatial::{Point, Rect};

use crate::config::DrTreeConfig;
use crate::message::{ChildSummary, DrtMessage, DrtTimer, PubEvent};
use crate::state::{ChildInfo, Level, LevelState, NodeState};

/// Shorthand for the context type every handler receives.
pub(crate) type Ctx<'a, const D: usize> = Context<'a, DrtMessage<D>, DrtTimer>;

/// Capacity of the recently-seen event ring: the routing-loop guard
/// while the overlay is corrupted (deliveries are accounted from the
/// engine's mark log, not from this ring). It bounds the pipeline
/// depth — see [`crate::DrTreeCluster::MAX_PUBLISH_WINDOW`].
pub(crate) const RECENT_EVENTS: usize = 1024;

/// Hasher of the seen-event set. Event ids are sequential `u64`s the
/// harness allocates (never outside input, so no collision attack to
/// resist): one odd multiply spreads them over the table's low (bucket)
/// and high (control byte) bits alike, at a fraction of SipHash's cost.
#[derive(Debug, Clone, Copy, Default)]
struct EventIdHasher(u64);

impl Hasher for EventIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = (self.0 ^ id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Publish/subscribe bookkeeping of one subscriber.
#[derive(Debug, Clone, Default)]
pub struct PubSubState {
    /// Recently received event ids, in receipt order (eviction queue).
    recent: VecDeque<u64>,
    /// Same ids, for O(1) membership — `has_seen` sits on the hot
    /// dissemination path, once per `PubUp`/`PubDown` received.
    recent_set: HashSet<u64, BuildHasherDefault<EventIdHasher>>,
    /// Events received (any instance), excluding self-published ones.
    pub received_total: u64,
    /// Received events not matching the local filter (§2.3 "false
    /// positives").
    pub false_positive_total: u64,
    /// Reorg counters (§3.2): false positives observed by this node at
    /// its topmost instance …
    pub(crate) fp_self: u64,
    /// … and the false positives each child *would have* seen in its
    /// place.
    pub(crate) hyp_fp: BTreeMap<ProcessId, u64>,
    /// Events sampled since the counters were last reset.
    pub(crate) samples: u64,
}

impl PubSubState {
    /// `true` if this subscriber has received event `id` recently.
    pub fn has_seen(&self, id: u64) -> bool {
        self.recent_set.contains(&id)
    }

    pub(crate) fn mark_seen(&mut self, id: u64) {
        if !self.recent_set.insert(id) {
            return;
        }
        if self.recent.len() == RECENT_EVENTS {
            if let Some(evicted) = self.recent.pop_front() {
                self.recent_set.remove(&evicted);
            }
        }
        self.recent.push_back(id);
    }

    pub(crate) fn reset_reorg(&mut self) {
        self.fp_self = 0;
        self.hyp_fp.clear();
        self.samples = 0;
    }
}

/// A DR-tree subscriber process.
///
/// Owns the paper's per-level variables ([`NodeState`]), reacts to
/// protocol messages, and runs the periodic stabilization pipeline on
/// every [`DrtTimer::Tick`]. Constructed with a filter and handed to a
/// simulation engine; the id is assigned by the engine at
/// [`Process::on_start`].
#[derive(Debug, Clone)]
pub struct DrtNode<const D: usize> {
    pub(crate) id: ProcessId,
    pub(crate) config: DrTreeConfig,
    pub(crate) state: NodeState<D>,
    /// The contact oracle's current answer (§3.2 "we assume that, at
    /// connection time, a subscriber invokes an oracle that accurately
    /// provides a subscriber already in the structure"). Maintained by
    /// the harness.
    pub(crate) contact_hint: Option<ProcessId>,
    /// Tick of the last join attempt (retry throttling).
    pub(crate) join_sent_at: Option<u64>,
    /// CHECK_COVER suspended until this tick (set by FP promotions).
    pub(crate) cover_suspended_until: u64,
    pub(crate) pubsub: PubSubState,
    pub(crate) now: u64,
}

impl<const D: usize> DrtNode<D> {
    /// Creates a subscriber with the given filter. The node starts as a
    /// single leaf believing itself root; it joins the overlay on its
    /// first tick once a contact hint is set.
    pub fn new(config: DrTreeConfig, filter: Rect<D>) -> Self {
        let placeholder = ProcessId::from_raw(u64::MAX);
        Self {
            id: placeholder,
            config,
            state: NodeState::new_leaf(placeholder, filter),
            contact_hint: None,
            join_sent_at: None,
            cover_suspended_until: 0,
            pubsub: PubSubState::default(),
            now: 0,
        }
    }

    /// This process's id (valid after it was added to a network).
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The subscription filter.
    pub fn filter(&self) -> Rect<D> {
        self.state.filter
    }

    /// The node's configuration.
    pub fn config(&self) -> &DrTreeConfig {
        &self.config
    }

    /// The (corruptible) protocol state.
    pub fn state(&self) -> &NodeState<D> {
        &self.state
    }

    /// Mutable protocol state — exposed for fault injection
    /// (the paper's transient memory corruption) and for tests.
    pub fn state_mut(&mut self) -> &mut NodeState<D> {
        &mut self.state
    }

    /// Publish/subscribe statistics.
    pub fn pubsub(&self) -> &PubSubState {
        &self.pubsub
    }

    /// Updates the contact oracle's answer for this node.
    pub fn set_contact_hint(&mut self, contact: Option<ProcessId>) {
        self.contact_hint = contact;
    }

    /// `true` if the node believes it is the overlay root.
    pub fn believes_root(&self) -> bool {
        self.state.believes_root(self.id)
    }

    /// The topmost instance level.
    pub fn top(&self) -> Level {
        self.state.top()
    }

    // ------------------------------------------------------------------
    // Shared helpers used by the protocol impl blocks.
    // ------------------------------------------------------------------

    /// Minimum degree `m`.
    pub(crate) fn m(&self) -> usize {
        self.config.min_degree()
    }

    /// Maximum degree `M`.
    pub(crate) fn max_degree(&self) -> usize {
        self.config.max_degree()
    }

    /// Fresh summary of the own instance at `level` (panics if absent —
    /// callers check existence first).
    pub(crate) fn own_summary(&self, level: Level) -> ChildSummary<D> {
        self.state
            .summary_at(self.id, level)
            .expect("own instance exists")
    }

    /// MBR of the own instance at `level` (filter for level 0).
    pub(crate) fn own_mbr(&self, level: Level) -> Option<Rect<D>> {
        if level == 0 {
            return Some(self.state.filter);
        }
        self.state.level(level).map(|l| l.mbr)
    }

    /// Inserts/refreshes the child entry for `summary` at instance
    /// `level` (no structural checks).
    pub(crate) fn cache_child(&mut self, level: Level, summary: &ChildSummary<D>) {
        let now = self.now;
        if let Some(inst) = self.state.level_mut(level) {
            inst.children
                .insert(summary.id, ChildInfo::from_summary(summary, now));
        }
    }

    /// The parent of the own instance at `level`: the same process one
    /// level up for non-topmost instances, the stored pointer at the
    /// top.
    pub(crate) fn parent_of(&self, level: Level) -> ProcessId {
        if level < self.top() {
            self.id
        } else {
            self.state.level(level).map_or(self.id, |l| l.parent)
        }
    }

    /// Becomes (believes itself) root: points the topmost parent at
    /// itself. The next tick merges into the main tree via the oracle.
    pub(crate) fn become_root(&mut self) {
        let top = self.top();
        let now = self.now;
        if let Some(inst) = self.state.level_mut(top) {
            inst.parent = self.id;
            inst.last_parent_ack = now;
        }
        self.join_sent_at = None;
    }

    /// Resets to a bare leaf (used by INITIATE_NEW_CONNECTION): all
    /// internal instances dissolve; the node rejoins via the oracle on
    /// the next tick.
    pub(crate) fn reset_to_leaf(&mut self) {
        let filter = self.state.filter;
        self.state = NodeState::new_leaf(self.id, filter);
        if let Some(inst) = self.state.level_mut(0) {
            inst.last_parent_ack = self.now;
        }
        self.join_sent_at = None;
        self.pubsub.reset_reorg();
    }
}

impl<const D: usize> Process for DrtNode<D> {
    type Msg = DrtMessage<D>;
    type Timer = DrtTimer;

    fn on_start(&mut self, ctx: &mut Ctx<'_, D>) {
        self.id = ctx.id();
        self.now = ctx.now();
        let filter = self.state.filter;
        self.state = NodeState::new_leaf(self.id, filter);
        if self.config.tick_interval > 0 {
            ctx.set_timer(self.config.tick_interval, DrtTimer::Tick);
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: DrtMessage<D>, ctx: &mut Ctx<'_, D>) {
        self.now = ctx.now();
        match msg {
            DrtMessage::Join {
                joiner,
                top_level,
                mbr,
                filter,
                count,
                descend,
            } => {
                let summary = ChildSummary {
                    id: joiner,
                    mbr,
                    filter,
                    count,
                    underloaded: false,
                };
                self.handle_join(summary, top_level, descend, ctx);
            }
            DrtMessage::JoinTooTall { level } => self.handle_join_too_tall(level, ctx),
            DrtMessage::AddChild { level, summary } => self.handle_add_child(level, summary, ctx),
            DrtMessage::Adopted { level } => self.handle_adopted(from, level),
            DrtMessage::AssumeRole {
                transfers,
                parent,
                fp_promotion,
            } => self.handle_assume_role(transfers, parent, fp_promotion),
            DrtMessage::ReparentTo { level, new_parent } => {
                self.handle_reparent_to(level, new_parent)
            }
            DrtMessage::ReplaceChild {
                level,
                old,
                summary,
            } => self.handle_replace_child(level, old, summary),
            DrtMessage::Heartbeat { level, summary } => {
                self.handle_heartbeat(from, level, summary, ctx)
            }
            DrtMessage::HeartbeatAck { level, still_child } => {
                self.handle_heartbeat_ack(from, level, still_child)
            }
            DrtMessage::Leave { level } => self.handle_leave(from, level, ctx),
            DrtMessage::CheckStructure { level } => self.check_structure(level, ctx),
            DrtMessage::MergeInto { level, into } => self.handle_merge_into(level, into, ctx),
            DrtMessage::AdoptChildren { level, children } => {
                self.handle_adopt_children(level, children, ctx)
            }
            DrtMessage::InitiateNewConnection { level } => {
                self.handle_initiate_new_connection(level, ctx)
            }
            DrtMessage::RejoinSubtree { level } => self.handle_rejoin_subtree(level),
            DrtMessage::DepartRequest => self.announce_departure(ctx),
            DrtMessage::PublishRequest { event } => self.handle_publish_request(event, ctx),
            DrtMessage::PubDown { event, level } => self.handle_pub_down(event, level, ctx),
            DrtMessage::PubUp { event, level } => self.handle_pub_up(from, event, level, ctx),
        }
    }

    fn on_timer(&mut self, timer: DrtTimer, ctx: &mut Ctx<'_, D>) {
        self.now = ctx.now();
        match timer {
            DrtTimer::Tick => {
                self.tick(ctx);
                // In the asynchronous engine the tick re-arms itself;
                // the round engine drives ticks externally instead.
                if self.config.tick_interval > 0 {
                    ctx.set_timer(self.config.tick_interval, DrtTimer::Tick);
                }
            }
        }
    }
}

impl<const D: usize> DrtNode<D> {
    /// The periodic stabilization pipeline (§3.3): every check event the
    /// paper triggers "periodically … for each level where the
    /// subscriber is active", in a fixed deterministic order.
    pub(crate) fn tick(&mut self, ctx: &mut Ctx<'_, D>) {
        // Local self-stabilization: contiguity, self-children, leaf MBR,
        // CHECK_MBR (Fig. 10), CHECK_CHILDREN staleness (Fig. 12).
        self.local_repair();
        // CHECK_PARENT (Fig. 11) + heartbeat + tree merge via oracle.
        self.check_parent(ctx);
        // CHECK_COVER (Fig. 13) — suspended during the cooldown after a
        // false-positive-driven promotion (§3.2).
        if self.config.cover_swap && self.now >= self.cover_suspended_until {
            self.check_cover(ctx);
        }
        // Overfull instances (possible only through corrupted state or
        // message races) split like any other overflow.
        let max = self.max_degree();
        let overfull: Vec<Level> = self
            .state
            .levels
            .iter()
            .filter(|(&l, inst)| l >= 1 && inst.degree() > max)
            .map(|(&l, _)| l)
            .collect();
        for l in overfull {
            self.split_level(l, ctx);
        }
        // CHECK_STRUCTURE (Fig. 14) at every internal instance. It only
        // reads the state, so a cursor visits what a key snapshot would.
        let mut next: Level = 1;
        while let Some((&l, _)) = self.state.levels.range(next..).next() {
            self.check_structure(l, ctx);
            next = l + 1;
        }
        // §3.2 dynamic reorganization under biased event workloads.
        if self.config.fp_reorg.enabled {
            self.check_fp_reorg(ctx);
        }
    }

    /// Repairs every locally-checkable invariant, unconditionally. This
    /// is what makes the node *self*-stabilizing: no matter how the
    /// state was corrupted, after one call the local structure is
    /// consistent again (remote inconsistencies are healed by the
    /// message-driven checks).
    pub(crate) fn local_repair(&mut self) {
        let now = self.now;
        let id = self.id;
        let filter = self.state.filter;
        let timeout = self.config.failure_timeout;
        let m = self.m();

        // Leaf instance exists, and is a proper leaf (Fig. 10 leaf case).
        let leaf = self
            .state
            .levels
            .entry(0)
            .or_insert_with(|| LevelState::leaf(id, filter, now));
        leaf.children.clear();
        leaf.mbr = filter;
        leaf.underloaded = false;

        // Contiguity: instances must occupy 0..=top without gaps; an
        // instance above a gap is unreachable garbage and is dropped
        // (its children re-attach via CHECK_PARENT timeouts).
        let mut expected: Level = 0;
        let mut to_drop: Vec<Level> = Vec::new();
        for &l in self.state.levels.keys() {
            if l != expected {
                to_drop.push(l);
            } else {
                expected += 1;
            }
        }
        for l in to_drop {
            self.state.levels.remove(&l);
        }

        // Per internal instance: stale-child eviction (CHECK_CHILDREN),
        // fresh self-entry, parent pointer coherence, CHECK_MBR,
        // underloaded flag (Fig. 12).
        let top = self.state.top();
        for l in 1..=top {
            let own_child_summary = self
                .state
                .summary_at(id, l - 1)
                .expect("contiguous instances");
            let inst = self.state.level_mut(l).expect("contiguous instances");
            // Corrupted clocks (timestamps from the future) must not
            // pin entries alive forever: clamp, then age out normally.
            for info in inst.children.values_mut() {
                if info.last_seen > now {
                    info.last_seen = now;
                }
            }
            if inst.last_parent_ack > now {
                inst.last_parent_ack = now;
            }
            inst.children
                .retain(|&c, info| c == id || now.saturating_sub(info.last_seen) <= timeout);
            inst.children
                .insert(id, ChildInfo::from_summary(&own_child_summary, now));
            if l < top {
                inst.parent = id;
            }
            inst.recompute_mbr();
            inst.underloaded = inst.degree() < m;
        }

        // Root shrink: a root instance whose only child is the node's
        // own chain carries no information; drop it. (Mirrors the R-tree
        // rule that a root has at least two children.)
        loop {
            let top = self.state.top();
            if top == 0 {
                break;
            }
            let inst = self.state.level(top).expect("top exists");
            let is_root = inst.parent == id;
            if is_root && inst.degree() == 1 && inst.children.contains_key(&id) {
                self.state.levels.remove(&top);
                let new_top = self.state.top();
                if let Some(below) = self.state.level_mut(new_top) {
                    below.parent = id;
                    below.last_parent_ack = now;
                }
            } else {
                break;
            }
        }
    }

    /// Mark receipt of `event`, updating delivery and false-positive
    /// accounting. Returns `false` if the event was already seen (the
    /// caller must stop routing it). A first receipt anywhere but at
    /// the publisher is a delivery: it is marked on the engine's log,
    /// which is what the harness accounts the event from.
    pub(crate) fn receive_event(&mut self, event: &PubEvent<D>, ctx: &mut Ctx<'_, D>) -> bool {
        if self.pubsub.has_seen(event.id) {
            return false;
        }
        self.pubsub.mark_seen(event.id);
        if event.publisher == self.id {
            return true;
        }
        ctx.mark(event.id);
        self.pubsub.received_total += 1;
        let matched = self.state.filter.contains_point(&event.point);
        if !matched {
            self.pubsub.false_positive_total += 1;
        }
        if self.config.fp_reorg.enabled {
            self.note_fp_sample(matched, &event.point);
        }
        true
    }

    /// Record a reorg sample: own false positive, plus the hypothetical
    /// false positive of every child at every level where this node is
    /// active (§3.2 — any of them may exchange positions with it).
    fn note_fp_sample(&mut self, matched: bool, point: &Point<D>) {
        self.pubsub.samples += 1;
        if !matched {
            self.pubsub.fp_self += 1;
        }
        let top = self.state.top();
        let id = self.id;
        for k in 1..=top {
            let Some(inst) = self.state.level(k) else {
                continue;
            };
            for (&c, info) in &inst.children {
                if c == id {
                    continue;
                }
                // Explicit zero entries distinguish "matched every
                // sampled event" from "never sampled" — only sampled
                // children are eligible for promotion.
                let miss = u64::from(!info.filter.contains_point(point));
                *self.pubsub.hyp_fp.entry(c).or_insert(0) += miss;
            }
        }
    }
}
