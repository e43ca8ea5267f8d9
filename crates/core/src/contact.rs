//! The contact oracle (§3.2: "a subscriber invokes an oracle that
//! accurately provides a subscriber already in the structure"): the
//! root of the largest tree component. Both cluster harnesses ask it
//! every round, so it works on id-indexed arrays and climbs every
//! parent link of a forest once.
//!
//! Defined on every state: a node whose topmost parent pointer names
//! itself, a dead process or a never-allocated id is a root; each live
//! node climbs parents up to a root or for `live + 1` hops and counts
//! for where it ends — in a forged parent cycle, the member the hop
//! budget runs out on (such a node pays the whole climb: nothing it
//! passes can be shared). Largest count wins, ties to the smallest id.

use drtree_sim::ProcessId;

const UNSET: u32 = u32::MAX;

/// The oracle's scratch: a harness that asks every round keeps one, so
/// asking allocates nothing once warm.
#[derive(Debug, Clone, Default)]
pub struct ContactOracle {
    /// Per slot, the topmost parent's slot; `UNSET` for a dead process.
    parent: Vec<u32>,
    /// Per slot, the root its climb ends at, once known.
    root: Vec<u32>,
    /// Per slot, the live nodes whose climb ends there.
    size: Vec<u32>,
    path: Vec<u32>,
}

impl ContactOracle {
    /// The answer for `live`, the `(id, parent of the topmost instance)`
    /// pairs of the live processes, every id below `slots` (engines
    /// allocate ids densely from 0). `None` when nothing is live.
    pub fn root(
        &mut self,
        slots: usize,
        live: impl Iterator<Item = (ProcessId, ProcessId)>,
    ) -> Option<ProcessId> {
        for (v, fill) in [
            (&mut self.parent, UNSET),
            (&mut self.root, UNSET),
            (&mut self.size, 0),
        ] {
            v.clear();
            v.resize(slots, fill);
        }
        let (parent, root, size) = (&mut self.parent, &mut self.root, &mut self.size);
        let mut hops = 1;
        for (id, p) in live {
            let allocated = p.raw() < slots as u64;
            parent[id.raw() as usize] = if allocated { p } else { id }.raw() as u32;
            hops += 1;
        }
        for start in (0..slots).filter(|&i| parent[i] != UNSET) {
            self.path.clear();
            let mut cur = start;
            while root[cur] == UNSET && self.path.len() < hops {
                let up = parent[cur] as usize;
                if up == cur || parent[up] == UNSET {
                    root[cur] = cur as u32;
                } else {
                    self.path.push(cur as u32);
                    cur = up;
                }
            }
            if self.path.len() < hops {
                // Everything passed shares the root that was reached.
                cur = root[cur] as usize;
                self.path
                    .iter()
                    .for_each(|&x| root[x as usize] = cur as u32);
            }
            size[cur] += 1;
        }
        // `max_by_key` keeps the last maximum: reversed, the smallest id.
        let best = (0..slots).rev().max_by_key(|&i| size[i])?;
        (size[best] > 0).then(|| ProcessId::from_raw(best as u64))
    }
}
