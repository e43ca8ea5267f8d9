//! A linear-scan model of a spatial index: the expected answer of every
//! matching test.
//!
//! [`Reference`] answers each query by testing every stored rectangle,
//! so its correctness rests on [`Rect::contains_point`] and
//! [`Rect::intersects`] alone, and it shares no code with the indexes it
//! checks. Entries keep insertion order; [`Reference::remove_nth`] and
//! [`Reference::move_nth`] address them by position, as an op script
//! drawing "the n-th live entry" does.
//!
//! ```
//! use drtree_spatial::reference::Reference;
//! use drtree_spatial::{Point, Rect};
//!
//! let mut model = Reference::new();
//! model.insert(7u32, Rect::new([0.0, 0.0], [10.0, 10.0]));
//! model.insert(3, Rect::new([5.0, 5.0], [6.0, 6.0]));
//! model.insert(7, Rect::new([4.0, 4.0], [8.0, 8.0]));
//! assert_eq!(model.matching(&Point::new([5.5, 5.5])), vec![3, 7]);
//! assert_eq!(model.remove_nth(1).map(|(key, _)| key), Some(3));
//! assert_eq!(model.matching(&Point::new([5.5, 5.5])), vec![7]);
//! ```

use crate::{Point, Rect};

/// `(key, rectangle)` entries in a `Vec`; a key may repeat.
#[derive(Debug, Clone)]
pub struct Reference<K, const D: usize> {
    entries: Vec<(K, Rect<D>)>,
}

impl<K, const D: usize> Default for Reference<K, D> {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
        }
    }
}

impl<K, const D: usize> FromIterator<(K, Rect<D>)> for Reference<K, D> {
    fn from_iter<I: IntoIterator<Item = (K, Rect<D>)>>(iter: I) -> Self {
        Self {
            entries: iter.into_iter().collect(),
        }
    }
}

impl<K: Copy + Ord, const D: usize> Reference<K, D> {
    /// An empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The stored entries, in insertion order.
    pub fn entries(&self) -> &[(K, Rect<D>)] {
        &self.entries
    }

    /// Appends an entry.
    pub fn insert(&mut self, key: K, rect: Rect<D>) {
        self.entries.push((key, rect));
    }

    /// Removes the first entry equal to `(key, rect)`; `false` if none.
    pub fn remove(&mut self, key: K, rect: &Rect<D>) -> bool {
        let found = self.entries.iter().position(|e| *e == (key, *rect));
        found.map(|i| self.entries.remove(i)).is_some()
    }

    /// Removes and returns the entry at position `n % len`, keeping the
    /// order of the rest; `None` when empty.
    pub fn remove_nth(&mut self, n: usize) -> Option<(K, Rect<D>)> {
        let len = self.entries.len();
        (len > 0).then(|| self.entries.remove(n % len))
    }

    /// Moves the entry at position `n % len` to `rect`, returning its key
    /// and old rectangle; `None` when empty.
    pub fn move_nth(&mut self, n: usize, rect: Rect<D>) -> Option<(K, Rect<D>)> {
        let len = self.entries.len();
        (len > 0).then(|| {
            let entry = &mut self.entries[n % len];
            (entry.0, std::mem::replace(&mut entry.1, rect))
        })
    }

    /// Keys of the entries whose rectangle contains `point`, sorted and
    /// deduplicated — the exact matching set of an event.
    pub fn matching(&self, point: &Point<D>) -> Vec<K> {
        self.keys_where(|r| r.contains_point(point))
    }

    /// Keys of the entries whose rectangle intersects `window`, sorted
    /// and deduplicated.
    pub fn intersecting(&self, window: &Rect<D>) -> Vec<K> {
        self.keys_where(|r| r.intersects(window))
    }

    fn keys_where(&self, hit: impl Fn(&Rect<D>) -> bool) -> Vec<K> {
        let mut keys: Vec<K> = self
            .entries
            .iter()
            .filter(|(_, r)| hit(r))
            .map(|&(k, _)| k)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removal_by_position_and_by_value_keep_order() {
        let rect = |x: f64| Rect::new([x, 0.0], [x + 1.0, 1.0]);
        let mut model: Reference<u8, 2> = (0..4).map(|k| (k, rect(f64::from(k)))).collect();
        assert_eq!(model.remove_nth(5), Some((1, rect(1.0))));
        assert!(
            !model.remove(2, &rect(9.0)),
            "a wrong rectangle is no match"
        );
        assert!(model.remove(2, &rect(2.0)));
        let keys: Vec<u8> = model.entries().iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![0, 3]);
        assert_eq!(model.move_nth(1, rect(0.5)), Some((3, rect(3.0))));
        assert_eq!(model.intersecting(&rect(0.9)), vec![0, 3]);
        assert_eq!(Reference::<u8, 2>::new().remove_nth(0), None);
    }
}
