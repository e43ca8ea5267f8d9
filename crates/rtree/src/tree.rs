use drtree_spatial::{Point, Rect};

use crate::index::SpatialIndex;
use crate::validate::{self, ValidationError};
use crate::RTreeConfig;

/// A centralized R-tree (Guttman 1984), height-balanced, with entries
/// only in the leaves (paper §2.2).
///
/// `K` is the caller's key type (e.g. a subscriber id); each key is
/// tagged with the rectangle it subscribes to. The tree serves as the
/// exact-matching oracle for the distributed experiments and as a
/// baseline index; duplicates keys are permitted (the tree does not
/// index by key).
///
/// # Example
///
/// ```
/// use drtree_rtree::{RTree, RTreeConfig, SplitMethod};
/// use drtree_spatial::{Point, Rect};
///
/// let mut tree: RTree<u32, 2> =
///     RTree::new(RTreeConfig::new(2, 4, SplitMethod::Linear)?);
/// for i in 0..100u32 {
///     let x = f64::from(i % 10) * 10.0;
///     let y = f64::from(i / 10) * 10.0;
///     tree.insert(i, Rect::new([x, y], [x + 5.0, y + 5.0]));
/// }
/// assert_eq!(tree.len(), 100);
/// assert!(tree.height() >= 2);
/// let hits = tree.search_point(&Point::new([2.0, 2.0]));
/// assert_eq!(hits, vec![&0]);
/// tree.validate()?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct RTree<K, const D: usize> {
    config: RTreeConfig,
    root: Node<K, D>,
    len: usize,
    reinsertion: bool,
}

#[derive(Debug, Clone)]
pub(crate) enum Node<K, const D: usize> {
    Leaf(Vec<(K, Rect<D>)>),
    Internal(Vec<Child<K, D>>),
}

#[derive(Debug, Clone)]
pub(crate) struct Child<K, const D: usize> {
    pub(crate) mbr: Rect<D>,
    pub(crate) node: Box<Node<K, D>>,
}

/// Fraction of a leaf's entries removed by R\*-tree forced reinsertion.
const REINSERT_FRACTION: f64 = 0.3;

enum Outcome<K, const D: usize> {
    Fit,
    Split(Child<K, D>),
    Reinsert(Vec<(K, Rect<D>)>),
}

impl<K, const D: usize> Node<K, D> {
    pub(crate) fn mbr(&self) -> Option<Rect<D>> {
        match self {
            Node::Leaf(entries) => Rect::union_all(entries.iter().map(|(_, r)| r)),
            Node::Internal(children) => Rect::union_all(children.iter().map(|c| &c.mbr)),
        }
    }

    pub(crate) fn entry_count(&self) -> usize {
        match self {
            Node::Leaf(entries) => entries.len(),
            Node::Internal(children) => children.len(),
        }
    }
}

impl<K, const D: usize> RTree<K, D> {
    /// Creates an empty tree with the given degree bounds and split
    /// method.
    pub fn new(config: RTreeConfig) -> Self {
        Self {
            config,
            root: Node::Leaf(Vec::new()),
            len: 0,
            reinsertion: false,
        }
    }

    /// Enables or disables R\*-tree forced reinsertion on leaf overflow
    /// (Beckmann et al.: "it also tries to allocate some entries to a
    /// better suited node through reinsertion"). Takes effect for
    /// subsequent insertions; typically paired with
    /// [`SplitMethod::RStar`](crate::SplitMethod::RStar).
    pub fn set_reinsertion(&mut self, enabled: bool) {
        self.reinsertion = enabled;
    }

    /// The configuration the tree was built with.
    pub fn config(&self) -> RTreeConfig {
        self.config
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the tree stores no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of levels, counting the leaf level as 1 (an empty tree has
    /// height 1: the empty leaf root). The paper's Lemma 3.1 bounds this
    /// by `O(log_m N)`.
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = &self.root;
        while let Node::Internal(children) = node {
            h += 1;
            node = &children[0].node;
        }
        h
    }

    /// The MBR of the whole tree (`None` when empty).
    pub fn mbr(&self) -> Option<Rect<D>> {
        self.root.mbr()
    }

    /// Inserts an entry.
    pub fn insert(&mut self, key: K, rect: Rect<D>) {
        self.len += 1;
        let mut allow_reinsert = self.reinsertion;
        let mut queue = vec![(key, rect)];
        while let Some((k, r)) = queue.pop() {
            if let Some(mut evicted) = self.insert_root(k, r, allow_reinsert) {
                // Reinsert evicted entries; only one forced
                // reinsertion pass per logical insert.
                allow_reinsert = false;
                queue.append(&mut evicted);
            }
        }
    }

    fn insert_root(
        &mut self,
        key: K,
        rect: Rect<D>,
        allow_reinsert: bool,
    ) -> Option<Vec<(K, Rect<D>)>> {
        match Self::insert_rec(&self.config, &mut self.root, key, rect, allow_reinsert) {
            Outcome::Fit => None,
            Outcome::Split(sibling) => {
                let old_root = std::mem::replace(&mut self.root, Node::Internal(Vec::new()));
                let old_mbr = old_root.mbr().expect("split node is non-empty");
                self.root = Node::Internal(vec![
                    Child {
                        mbr: old_mbr,
                        node: Box::new(old_root),
                    },
                    sibling,
                ]);
                None
            }
            Outcome::Reinsert(entries) => Some(entries),
        }
    }

    fn insert_rec(
        config: &RTreeConfig,
        node: &mut Node<K, D>,
        key: K,
        rect: Rect<D>,
        allow_reinsert: bool,
    ) -> Outcome<K, D> {
        match node {
            Node::Leaf(entries) => {
                entries.push((key, rect));
                if entries.len() <= config.max_entries() {
                    return Outcome::Fit;
                }
                if allow_reinsert {
                    return Outcome::Reinsert(evict_farthest(entries));
                }
                let rects: Vec<Rect<D>> = entries.iter().map(|(_, r)| *r).collect();
                let (left_idx, right_idx) =
                    config.split_method().split(&rects, config.min_entries());
                let taken = std::mem::take(entries);
                let (left, right) = partition_owned(taken, &left_idx, &right_idx);
                let right_node = Node::Leaf(right);
                let right_mbr = right_node.mbr().expect("right split non-empty");
                *entries = left;
                Outcome::Split(Child {
                    mbr: right_mbr,
                    node: Box::new(right_node),
                })
            }
            Node::Internal(children) => {
                let idx = choose_subtree(children, &rect);
                children[idx].mbr.enlarge_to_cover(&rect);
                let outcome =
                    Self::insert_rec(config, &mut children[idx].node, key, rect, allow_reinsert);
                match outcome {
                    Outcome::Fit => Outcome::Fit,
                    Outcome::Reinsert(entries) => {
                        // The child shrank; refresh its cached MBR.
                        children[idx].mbr =
                            children[idx].node.mbr().expect("child retains entries");
                        Outcome::Reinsert(entries)
                    }
                    Outcome::Split(sibling) => {
                        children[idx].mbr =
                            children[idx].node.mbr().expect("split child non-empty");
                        children.push(sibling);
                        if children.len() <= config.max_entries() {
                            return Outcome::Fit;
                        }
                        let rects: Vec<Rect<D>> = children.iter().map(|c| c.mbr).collect();
                        let (left_idx, right_idx) =
                            config.split_method().split(&rects, config.min_entries());
                        let taken = std::mem::take(children);
                        let (left, right) = partition_owned(taken, &left_idx, &right_idx);
                        let right_node = Node::Internal(right);
                        let right_mbr = right_node.mbr().expect("right split non-empty");
                        *children = left;
                        Outcome::Split(Child {
                            mbr: right_mbr,
                            node: Box::new(right_node),
                        })
                    }
                }
            }
        }
    }

    /// Removes one entry equal to `(key, rect)`; returns `true` if found.
    ///
    /// Underflowing nodes are condensed: their surviving entries are
    /// reinserted, exactly as in Guttman's `CondenseTree`.
    pub fn remove(&mut self, key: &K, rect: &Rect<D>) -> bool
    where
        K: PartialEq,
    {
        let mut orphans = Vec::new();
        let found = Self::remove_rec(&self.config, &mut self.root, key, rect, &mut orphans);
        if !found {
            debug_assert!(orphans.is_empty());
            return false;
        }
        self.len -= 1;
        // Shrink the root while it is an internal node with one child.
        loop {
            let replace = match &mut self.root {
                Node::Internal(children) if children.len() == 1 => *children.remove(0).node,
                _ => break,
            };
            self.root = replace;
        }
        for (k, r) in orphans {
            self.insert(k, r);
            self.len -= 1; // orphans were already counted before condensing
        }
        true
    }

    fn remove_rec(
        config: &RTreeConfig,
        node: &mut Node<K, D>,
        key: &K,
        rect: &Rect<D>,
        orphans: &mut Vec<(K, Rect<D>)>,
    ) -> bool
    where
        K: PartialEq,
    {
        match node {
            Node::Leaf(entries) => {
                if let Some(pos) = entries.iter().position(|(k, r)| k == key && r == rect) {
                    entries.remove(pos);
                    true
                } else {
                    false
                }
            }
            Node::Internal(children) => {
                let mut found_at = None;
                for (i, child) in children.iter_mut().enumerate() {
                    if child.mbr.contains_rect(rect)
                        && Self::remove_rec(config, &mut child.node, key, rect, orphans)
                    {
                        found_at = Some(i);
                        break;
                    }
                }
                let Some(i) = found_at else { return false };
                if children[i].node.entry_count() < config.min_entries() {
                    // Condense: dissolve the underflowing child and
                    // reinsert everything it still carried.
                    let child = children.remove(i);
                    collect_entries(*child.node, orphans);
                } else {
                    children[i].mbr = children[i].node.mbr().expect("non-empty after remove");
                }
                true
            }
        }
    }

    /// Visits every entry whose rectangle contains `point` — the exact
    /// matching set of an event (zero false positives/negatives by
    /// construction). Hits are delivered through the callback, so
    /// counting or testing allocates no result vector.
    pub fn for_each_containing<'a, F>(&'a self, point: &Point<D>, mut visit: F)
    where
        F: FnMut(&'a K, &'a Rect<D>),
    {
        self.traverse(
            |mbr| mbr.contains_point(point),
            |entries| {
                for (k, r) in entries {
                    if r.contains_point(point) {
                        visit(k, r);
                    }
                }
            },
        );
    }

    /// Visits every entry whose rectangle intersects `window`.
    pub fn for_each_intersecting<'a, F>(&'a self, window: &Rect<D>, mut visit: F)
    where
        F: FnMut(&'a K, &'a Rect<D>),
    {
        self.traverse(
            |mbr| mbr.intersects(window),
            |entries| {
                for (k, r) in entries {
                    if r.intersects(window) {
                        visit(k, r);
                    }
                }
            },
        );
    }

    /// Iterative pruned traversal: descends into children whose MBR
    /// passes `enter`, handing surviving leaves' entry slices to `leaf`.
    fn traverse<'a>(
        &'a self,
        enter: impl Fn(&Rect<D>) -> bool,
        mut leaf: impl FnMut(&'a [(K, Rect<D>)]),
    ) {
        let mut stack: Vec<&Node<K, D>> =
            Vec::with_capacity(self.config.max_entries() * self.height());
        stack.push(&self.root);
        while let Some(node) = stack.pop() {
            match node {
                Node::Leaf(entries) => leaf(entries),
                Node::Internal(children) => {
                    stack.extend(
                        children
                            .iter()
                            .filter(|c| enter(&c.mbr))
                            .map(|c| c.node.as_ref()),
                    );
                }
            }
        }
    }

    /// Keys whose rectangle contains `point`. Prefer
    /// [`RTree::for_each_containing`] on hot paths; this convenience
    /// form allocates the result vector.
    pub fn search_point(&self, point: &Point<D>) -> Vec<&K> {
        let mut out = Vec::new();
        self.for_each_containing(point, |k, _| out.push(k));
        out
    }

    /// Keys whose rectangle intersects `window`.
    pub fn search_intersecting(&self, window: &Rect<D>) -> Vec<&K> {
        let mut out = Vec::new();
        self.for_each_intersecting(window, |k, _| out.push(k));
        out
    }

    /// Iterates over all `(key, rect)` entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &Rect<D>)> {
        let mut entries = Vec::with_capacity(self.len);
        self.traverse(
            |_| true,
            |leaf| entries.extend(leaf.iter().map(|(k, r)| (k, r))),
        );
        entries.into_iter()
    }

    /// Checks every structural invariant of §2.2 (degree bounds, exact
    /// MBRs, uniform leaf depth).
    ///
    /// # Errors
    ///
    /// Returns a [`ValidationError`] listing each violation found.
    pub fn validate(&self) -> Result<(), ValidationError> {
        validate::validate_tree(self)
    }

    pub(crate) fn root(&self) -> &Node<K, D> {
        &self.root
    }
}

impl<K, const D: usize> SpatialIndex<K, D> for RTree<K, D> {
    fn len(&self) -> usize {
        self.len
    }

    fn for_each_containing<'a, F>(&'a self, point: &Point<D>, visit: F)
    where
        F: FnMut(&'a K, &'a Rect<D>),
        K: 'a,
    {
        RTree::for_each_containing(self, point, visit);
    }

    fn for_each_intersecting<'a, F>(&'a self, window: &Rect<D>, visit: F)
    where
        F: FnMut(&'a K, &'a Rect<D>),
        K: 'a,
    {
        RTree::for_each_intersecting(self, window, visit);
    }
}

/// Least-enlargement child choice (`Choose_Best_Child` of Figure 8's
/// machinery): minimal enlargement, ties by smaller area, then by fewer
/// entries.
fn choose_subtree<K, const D: usize>(children: &[Child<K, D>], rect: &Rect<D>) -> usize {
    let mut best = 0usize;
    let mut best_grow = f64::INFINITY;
    let mut best_area = f64::INFINITY;
    for (i, c) in children.iter().enumerate() {
        let grow = c.mbr.enlargement(rect);
        let area = c.mbr.area();
        if grow < best_grow
            || (grow == best_grow && area < best_area)
            || (grow == best_grow
                && area == best_area
                && c.node.entry_count() < children[best].node.entry_count())
        {
            best = i;
            best_grow = grow;
            best_area = area;
        }
    }
    best
}

/// Removes the ~30% of `entries` whose centers lie farthest from the
/// node's MBR center (R\*-tree forced reinsertion candidates).
fn evict_farthest<K, const D: usize>(entries: &mut Vec<(K, Rect<D>)>) -> Vec<(K, Rect<D>)> {
    let count = (((entries.len() as f64) * REINSERT_FRACTION).floor() as usize).max(1);
    let center = Rect::union_all(entries.iter().map(|(_, r)| r))
        .expect("non-empty leaf")
        .center();
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_by(|&a, &b| {
        let da = entries[a].1.center().distance2(&center);
        let db = entries[b].1.center().distance2(&center);
        db.partial_cmp(&da).expect("finite distances")
    });
    let mut evict_idx: Vec<usize> = order[..count].to_vec();
    evict_idx.sort_unstable_by(|a, b| b.cmp(a)); // remove from the back
    let mut evicted = Vec::with_capacity(count);
    for i in evict_idx {
        evicted.push(entries.remove(i));
    }
    evicted
}

fn partition_owned<T>(
    mut items: Vec<T>,
    left_idx: &[usize],
    right_idx: &[usize],
) -> (Vec<T>, Vec<T>) {
    debug_assert_eq!(left_idx.len() + right_idx.len(), items.len());
    let mut slots: Vec<Option<T>> = items.drain(..).map(Some).collect();
    let take = |slots: &mut Vec<Option<T>>, idx: &[usize]| {
        idx.iter()
            .map(|&i| slots[i].take().expect("index used once"))
            .collect::<Vec<T>>()
    };
    let left = take(&mut slots, left_idx);
    let right = take(&mut slots, right_idx);
    (left, right)
}

fn collect_entries<K, const D: usize>(node: Node<K, D>, out: &mut Vec<(K, Rect<D>)>) {
    match node {
        Node::Leaf(mut entries) => out.append(&mut entries),
        Node::Internal(children) => {
            for c in children {
                collect_entries(*c.node, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMethod;

    fn config(m: usize, max: usize, s: SplitMethod) -> RTreeConfig {
        RTreeConfig::new(m, max, s).unwrap()
    }

    fn grid_rect(i: usize) -> Rect<2> {
        let x = (i % 16) as f64 * 4.0;
        let y = (i / 16) as f64 * 4.0;
        Rect::new([x, y], [x + 2.0, y + 2.0])
    }

    #[test]
    fn empty_tree() {
        let tree: RTree<u32, 2> = RTree::new(RTreeConfig::default());
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.mbr(), None);
        assert!(tree.search_point(&Point::new([0.0, 0.0])).is_empty());
        tree.validate().unwrap();
    }

    #[test]
    fn insert_and_search_all_methods() {
        for method in SplitMethod::ALL {
            let mut tree: RTree<usize, 2> = RTree::new(config(2, 5, method));
            for i in 0..200 {
                tree.insert(i, grid_rect(i));
            }
            assert_eq!(tree.len(), 200);
            tree.validate().unwrap_or_else(|e| panic!("{method}: {e}"));
            // every entry findable by its own center
            for i in 0..200 {
                let c = grid_rect(i).center();
                let hits = tree.search_point(&c);
                assert!(hits.contains(&&i), "{method}: entry {i} lost");
            }
        }
    }

    #[test]
    fn height_grows_logarithmically() {
        let mut tree: RTree<usize, 2> = RTree::new(config(4, 10, SplitMethod::Quadratic));
        for i in 0..1000 {
            tree.insert(i, grid_rect(i));
        }
        // ceil(log_4(1000)) + slack
        assert!(tree.height() <= 6, "height {} too large", tree.height());
        tree.validate().unwrap();
    }

    #[test]
    fn remove_entries() {
        let mut tree: RTree<usize, 2> = RTree::new(config(2, 4, SplitMethod::Quadratic));
        for i in 0..50 {
            tree.insert(i, grid_rect(i));
        }
        for i in (0..50).step_by(2) {
            assert!(tree.remove(&i, &grid_rect(i)), "remove {i}");
        }
        assert_eq!(tree.len(), 25);
        tree.validate().unwrap();
        for i in 0..50 {
            let c = grid_rect(i).center();
            let hits = tree.search_point(&c);
            assert_eq!(hits.contains(&&i), i % 2 == 1, "entry {i}");
        }
        assert!(!tree.remove(&1000, &grid_rect(0)));
    }

    #[test]
    fn remove_down_to_empty() {
        let mut tree: RTree<usize, 2> = RTree::new(config(2, 4, SplitMethod::Linear));
        for i in 0..20 {
            tree.insert(i, grid_rect(i));
        }
        for i in 0..20 {
            assert!(tree.remove(&i, &grid_rect(i)));
        }
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1);
        tree.validate().unwrap();
    }

    #[test]
    fn window_search() {
        let mut tree: RTree<usize, 2> = RTree::new(RTreeConfig::default());
        for i in 0..100 {
            tree.insert(i, grid_rect(i));
        }
        let window = Rect::new([0.0, 0.0], [10.0, 10.0]);
        let mut hits: Vec<usize> = tree
            .search_intersecting(&window)
            .into_iter()
            .copied()
            .collect();
        hits.sort_unstable();
        let mut expected: Vec<usize> = (0..100)
            .filter(|&i| grid_rect(i).intersects(&window))
            .collect();
        expected.sort_unstable();
        assert_eq!(hits, expected);
    }

    #[test]
    fn reinsertion_keeps_tree_valid() {
        let mut tree: RTree<usize, 2> = RTree::new(config(2, 5, SplitMethod::RStar));
        tree.set_reinsertion(true);
        for i in 0..300 {
            tree.insert(i, grid_rect(i));
        }
        assert_eq!(tree.len(), 300);
        tree.validate().unwrap();
        for i in 0..300 {
            let hits = tree.search_point(&grid_rect(i).center());
            assert!(hits.contains(&&i), "entry {i} lost after reinsertion");
        }
    }

    #[test]
    fn duplicate_rects_supported() {
        let mut tree: RTree<usize, 2> = RTree::new(RTreeConfig::default());
        let r = Rect::new([0.0, 0.0], [1.0, 1.0]);
        for i in 0..30 {
            tree.insert(i, r);
        }
        assert_eq!(tree.search_point(&Point::new([0.5, 0.5])).len(), 30);
        tree.validate().unwrap();
        assert!(tree.remove(&7, &r));
        assert_eq!(tree.len(), 29);
    }

    #[test]
    fn iter_yields_everything() {
        let mut tree: RTree<usize, 2> = RTree::new(RTreeConfig::default());
        for i in 0..64 {
            tree.insert(i, grid_rect(i));
        }
        let mut keys: Vec<usize> = tree.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..64).collect::<Vec<_>>());
    }
}
