//! Event dissemination over the DR-tree (paper §2.3 and §3).
//!
//! "An event produced by a node n is disseminated along all subtrees for
//! which n is a root; further, it is propagated upwards the root of the
//! DR-tree and down every sibling subtree encountered on the path to the
//! root." Downward, "an interior node forwards the event to each of its
//! children whose MBR contains the event."
//!
//! Because children receive the event only when their MBR contains it,
//! and a leaf's MBR *is* its filter, pure leaves never see events they
//! did not subscribe to; false positives arise only at interior
//! instances (and on the upward path), which is what keeps the paper's
//! false-positive rate in the low percent range.
//!
//! Dissemination is stateless per event and deduplicated per node
//! (`receive_event`), so `PubUp`/`PubDown` traffic of *different*
//! events can interleave freely in the same inboxes — the property the
//! pipelined publish path ([`crate::DrTreeCluster::publish_pipeline`])
//! exploits, with per-event message tags ([`drtree_sim::MsgTag`])
//! keeping the accounting exact.

use drtree_sim::ProcessId;

use crate::message::{DrtMessage, PubEvent};
use crate::state::Level;

use super::node::{Ctx, DrtNode};

impl<const D: usize> DrtNode<D> {
    /// The harness asks this node to publish `event` (the paper's
    /// "event produced by a node n").
    pub(crate) fn handle_publish_request(&mut self, event: PubEvent<D>, ctx: &mut Ctx<'_, D>) {
        // The publisher trivially has the event; it is not a delivery.
        self.pubsub.mark_seen(event.id);
        // Down all own subtrees …
        self.route_up_chain(1, None, &event, ctx);
    }

    /// Event descending into the own instance at `level`.
    pub(crate) fn handle_pub_down(
        &mut self,
        event: PubEvent<D>,
        level: Level,
        ctx: &mut Ctx<'_, D>,
    ) {
        if !self.receive_event(&event, ctx) {
            return;
        }
        let level = level.min(self.top());
        self.descend_from(level, &event, ctx);
    }

    /// Event climbing from child `from` (at `child_level`) toward the
    /// root; handled at the own instance one level up.
    pub(crate) fn handle_pub_up(
        &mut self,
        from: ProcessId,
        event: PubEvent<D>,
        child_level: Level,
        ctx: &mut Ctx<'_, D>,
    ) {
        if !self.receive_event(&event, ctx) {
            return;
        }
        let at = child_level + 1;
        if self.state.level(at).is_none() {
            // Stale routing (structure changed); the event may be lost
            // here — exactly the transient false negatives the
            // stabilization experiments measure under churn.
            return;
        }
        // Sibling subtrees of the arriving child at this instance …
        self.forward_to_matching_children(at, &[from], &event, ctx);
        // … including the own chain one level below (it is a sibling of
        // `from`, reachable locally).
        if let Some(own_below) = self.own_mbr(at - 1) {
            if own_below.contains_point(&event.point) {
                self.descend_from(at - 1, &event, ctx);
            }
        }
        // Continue toward the root through the own upper instances.
        self.route_up_chain(at + 1, None, &event, ctx);
    }

    /// Walks the own instances from `start` up to the top, forwarding
    /// the event into every matching sibling subtree, then hands it to
    /// the parent (unless this node is the root).
    fn route_up_chain(
        &mut self,
        start: Level,
        exclude: Option<ProcessId>,
        event: &PubEvent<D>,
        ctx: &mut Ctx<'_, D>,
    ) {
        let top = self.top();
        let mut k = start;
        while k <= top {
            let excludes: &[ProcessId] = match exclude {
                Some(e) if k == start => &[e],
                _ => &[],
            };
            self.forward_to_matching_children(k, excludes, event, ctx);
            k += 1;
        }
        let parent = self.parent_of(top);
        if parent != self.id {
            ctx.send(
                parent,
                DrtMessage::PubUp {
                    event: *event,
                    level: top,
                },
            );
        }
    }

    /// §2.3's interior-node rule at one instance: forward to every
    /// child whose MBR contains the event (never to the own chain,
    /// which is handled locally, nor to `exclude`).
    fn forward_to_matching_children(
        &self,
        level: Level,
        exclude: &[ProcessId],
        event: &PubEvent<D>,
        ctx: &mut Ctx<'_, D>,
    ) {
        let Some(inst) = self.state.level(level) else {
            return;
        };
        for (&c, info) in &inst.children {
            if c != self.id && !exclude.contains(&c) && info.mbr.contains_point(&event.point) {
                ctx.send(
                    c,
                    DrtMessage::PubDown {
                        event: *event,
                        level: level - 1,
                    },
                );
            }
        }
    }

    /// Downward dissemination from the own instance at `level`: forward
    /// to matching children at every own level on the way down, gated by
    /// the own chain's MBRs.
    fn descend_from(&mut self, level: Level, event: &PubEvent<D>, ctx: &mut Ctx<'_, D>) {
        let mut k = level;
        while k >= 1 {
            self.forward_to_matching_children(k, &[], event, ctx);
            let below = self.own_mbr(k - 1).expect("contiguous instances");
            if !below.contains_point(&event.point) {
                break;
            }
            k -= 1;
        }
    }
}
