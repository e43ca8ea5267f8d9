//! Global-state inspection: tree views, statistics, and DOT export.
//!
//! Built on the same [`Snapshot`] the legality
//! checker consumes, [`TreeView`] reconstructs the logical DR-tree
//! (Fig. 4) and the physical communication graph (Fig. 5) for
//! debugging, examples and experiment reporting.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use drtree_sim::ProcessId;

use crate::legal::Snapshot;
use crate::state::Level;

/// One reconstructed instance of the logical tree.
#[derive(Debug, Clone)]
pub struct InstanceView<const D: usize> {
    /// Owning process.
    pub owner: ProcessId,
    /// Instance level (leaves at 0).
    pub level: Level,
    /// The instance's MBR.
    pub mbr: drtree_spatial::Rect<D>,
    /// Children instances (owner ids), in id order.
    pub children: Vec<ProcessId>,
}

/// A reconstructed view of the overlay from a snapshot.
#[derive(Debug, Clone)]
pub struct TreeView<const D: usize> {
    root: Option<ProcessId>,
    instances: BTreeMap<(ProcessId, Level), InstanceView<D>>,
    orphans: Vec<ProcessId>,
}

impl<const D: usize> TreeView<D> {
    /// Builds a view from a snapshot. The root is the believed root of
    /// the largest component (matching the contact oracle).
    pub fn build(snapshot: &Snapshot<D>) -> Self {
        let mut instances = BTreeMap::new();
        for (&owner, st) in snapshot {
            for (&level, inst) in &st.levels {
                instances.insert(
                    (owner, level),
                    InstanceView {
                        owner,
                        level,
                        mbr: if level == 0 { st.filter } else { inst.mbr },
                        children: inst.children.keys().copied().collect(),
                    },
                );
            }
        }
        // Root: follow topmost parents, largest component wins.
        let tops: BTreeMap<ProcessId, ProcessId> = snapshot
            .iter()
            .map(|(&id, st)| {
                let top = st.top();
                (id, st.level(top).map_or(id, |l| l.parent))
            })
            .collect();
        let mut sizes: BTreeMap<ProcessId, usize> = BTreeMap::new();
        let mut component_root: BTreeMap<ProcessId, ProcessId> = BTreeMap::new();
        for &start in tops.keys() {
            let mut cur = start;
            let mut hops = 0;
            while let Some(&p) = tops.get(&cur) {
                if p == cur || !tops.contains_key(&p) || hops > tops.len() {
                    break;
                }
                cur = p;
                hops += 1;
            }
            component_root.insert(start, cur);
            *sizes.entry(cur).or_insert(0) += 1;
        }
        let root = sizes
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&r, _)| r);
        let orphans = component_root
            .iter()
            .filter(|(_, &r)| Some(r) != root)
            .map(|(&id, _)| id)
            .collect();
        Self {
            root,
            instances,
            orphans,
        }
    }

    /// The main root, if any process is alive.
    pub fn root(&self) -> Option<ProcessId> {
        self.root
    }

    /// Processes not currently attached to the main tree.
    pub fn orphans(&self) -> &[ProcessId] {
        &self.orphans
    }

    /// Looks up one instance.
    pub fn instance(&self, owner: ProcessId, level: Level) -> Option<&InstanceView<D>> {
        self.instances.get(&(owner, level))
    }

    /// Degree distribution over internal instances: map degree → count.
    pub fn degree_histogram(&self) -> BTreeMap<usize, usize> {
        let mut hist = BTreeMap::new();
        for inst in self.instances.values() {
            if inst.level > 0 {
                *hist.entry(inst.children.len()).or_insert(0) += 1;
            }
        }
        hist
    }

    /// ASCII rendering of the logical tree (Fig. 4 style), labeling each
    /// instance `owner@level`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let Some(root) = self.root else {
            out.push_str("(empty overlay)\n");
            return out;
        };
        let top = self
            .instances
            .keys()
            .filter(|(o, _)| *o == root)
            .map(|(_, l)| *l)
            .max()
            .unwrap_or(0);
        self.render_rec(root, top, 0, &mut out);
        if !self.orphans.is_empty() {
            let _ = writeln!(out, "orphans: {:?}", self.orphans);
        }
        out
    }

    fn render_rec(&self, owner: ProcessId, level: Level, indent: usize, out: &mut String) {
        let Some(inst) = self.instance(owner, level) else {
            let _ = writeln!(out, "{}{owner}@{level} (missing!)", "  ".repeat(indent));
            return;
        };
        let _ = writeln!(
            out,
            "{}{owner}@{level}  {}  [{} children]",
            "  ".repeat(indent),
            inst.mbr,
            inst.children.len()
        );
        if level == 0 {
            return;
        }
        for &c in &inst.children {
            self.render_rec(c, level - 1, indent + 1, out);
        }
    }

    /// Graphviz DOT rendering of the *logical* tree: one node per
    /// instance, one edge per parent/child link (the communication
    /// graph of Fig. 5 is this graph with instances of the same owner
    /// collapsed).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph drtree {\n  rankdir=TB;\n  node [shape=box];\n");
        for ((owner, level), inst) in &self.instances {
            let _ = writeln!(
                out,
                "  \"{owner}@{level}\" [label=\"{owner}@{level}\\n{}\"];",
                inst.mbr
            );
            if *level > 0 {
                for c in &inst.children {
                    let _ = writeln!(out, "  \"{owner}@{level}\" -> \"{c}@{}\";", level - 1);
                }
            }
        }
        out.push_str("}\n");
        out
    }

    /// The physical communication graph (Fig. 5): undirected edges
    /// between distinct processes that share a parent/child link at any
    /// level, deduplicated.
    pub fn communication_edges(&self) -> Vec<(ProcessId, ProcessId)> {
        let mut edges = std::collections::BTreeSet::new();
        for ((owner, level), inst) in &self.instances {
            if *level == 0 {
                continue;
            }
            for &c in &inst.children {
                if c != *owner {
                    let (a, b) = if c < *owner { (c, *owner) } else { (*owner, c) };
                    edges.insert((a, b));
                }
            }
        }
        edges.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DrTreeCluster, DrTreeConfig};
    use drtree_spatial::Rect;

    fn sample_cluster() -> DrTreeCluster<2> {
        let filters: Vec<Rect<2>> = (0..10)
            .map(|i| {
                let x = f64::from(i % 5) * 15.0;
                let y = f64::from(i / 5) * 15.0;
                Rect::new([x, y], [x + 20.0, y + 20.0])
            })
            .collect();
        DrTreeCluster::build(DrTreeConfig::default(), 555, &filters)
    }

    #[test]
    fn view_matches_cluster() {
        let cluster = sample_cluster();
        let view = TreeView::build(&cluster.snapshot());
        assert_eq!(view.root(), cluster.root());
        assert!(view.orphans().is_empty());
        // every process has a leaf instance in the view
        for id in cluster.ids() {
            assert!(view.instance(id, 0).is_some(), "{id} has no leaf");
        }
    }

    #[test]
    fn render_contains_root_and_leaves() {
        let cluster = sample_cluster();
        let view = TreeView::build(&cluster.snapshot());
        let text = view.render();
        let root = cluster.root().unwrap();
        assert!(text.contains(&format!("{root}@")));
        assert!(text.lines().count() >= cluster.len());
    }

    #[test]
    fn dot_is_well_formed() {
        let cluster = sample_cluster();
        let view = TreeView::build(&cluster.snapshot());
        let dot = view.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("->"));
    }

    #[test]
    fn communication_graph_is_connected_sized() {
        let cluster = sample_cluster();
        let view = TreeView::build(&cluster.snapshot());
        let edges = view.communication_edges();
        // a connected overlay over n processes needs ≥ n−1 distinct links
        assert!(edges.len() >= cluster.len() - 1);
        for (a, b) in edges {
            assert!(a < b, "edges deduplicated and ordered");
        }
    }

    #[test]
    fn degree_histogram_respects_bounds() {
        let cluster = sample_cluster();
        let view = TreeView::build(&cluster.snapshot());
        for (degree, _) in view.degree_histogram() {
            assert!(degree <= cluster.config().max_degree());
        }
    }
}
