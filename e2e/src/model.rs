//! The independent reference every workload's outputs are checked
//! against: a plain vector of `(id, rect)` scanned linearly. It shares
//! no code with the layers it audits (an id index only makes
//! mirrored removals O(1); matching is always the full scan).

use std::collections::HashMap;

use drtree_spatial::{Point, Rect};

#[derive(Debug, Default, Clone)]
pub struct ScanModel {
    entries: Vec<(u64, Rect<2>)>,
    index: HashMap<u64, usize>,
}

impl ScanModel {
    pub fn from_rects(rects: &[Rect<2>]) -> Self {
        let mut model = Self::default();
        for (i, r) in rects.iter().enumerate() {
            model.insert(i as u64, *r);
        }
        model
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn insert(&mut self, id: u64, rect: Rect<2>) {
        let prev = self.index.insert(id, self.entries.len());
        assert!(prev.is_none(), "model ids are unique");
        self.entries.push((id, rect));
    }

    pub fn remove(&mut self, id: u64) -> Option<Rect<2>> {
        let at = self.index.remove(&id)?;
        let (_, rect) = self.entries.swap_remove(at);
        if let Some(&(moved, _)) = self.entries.get(at) {
            self.index.insert(moved, at);
        }
        Some(rect)
    }

    pub fn get(&self, id: u64) -> Option<Rect<2>> {
        self.index.get(&id).map(|&at| self.entries[at].1)
    }

    pub fn relocate(&mut self, id: u64, rect: Rect<2>) -> bool {
        match self.index.get(&id) {
            Some(&at) => {
                self.entries[at].1 = rect;
                true
            }
            None => false,
        }
    }

    /// Ids whose rectangle contains `point`, ascending.
    pub fn matches(&self, point: &Point<2>) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, r)| r.contains_point(point))
            .map(|&(id, _)| id)
            .collect();
        out.sort_unstable();
        out
    }
}

/// Tallies attempted and failed operations and keeps the first few
/// failure descriptions for the report.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    const KEEP: usize = 8;

    /// Counts `n` operations that succeeded.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one checked operation; `describe` runs only on failure.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, describe);
        }
    }

    /// Counts `n` failures among operations already attempted.
    pub fn fail(&mut self, n: u64, describe: impl FnOnce() -> String) {
        if n == 0 {
            return;
        }
        self.failed += n;
        if self.messages.len() < Self::KEEP {
            self.messages.push(describe());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_mirrors_insert_remove_relocate() {
        let mut m = ScanModel::from_rects(&[
            Rect::new([0.0, 0.0], [10.0, 10.0]),
            Rect::new([5.0, 5.0], [15.0, 15.0]),
            Rect::new([20.0, 20.0], [30.0, 30.0]),
        ]);
        let p = Point::new([7.0, 7.0]);
        assert_eq!(m.matches(&p), vec![0, 1]);
        assert_eq!(m.get(2), Some(Rect::new([20.0, 20.0], [30.0, 30.0])));
        assert!(m.remove(0).is_some());
        assert!(m.remove(0).is_none());
        assert_eq!(m.matches(&p), vec![1]);
        assert!(m.relocate(2, Rect::new([6.0, 6.0], [8.0, 8.0])));
        assert!(!m.relocate(9, Rect::new([6.0, 6.0], [8.0, 8.0])));
        assert_eq!(m.matches(&p), vec![1, 2]);
        m.insert(7, Rect::new([0.0, 0.0], [100.0, 100.0]));
        assert_eq!(m.matches(&p), vec![1, 2, 7]);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut c = Checks::default();
        c.passed(10);
        c.check(true, || unreachable!());
        c.check(false, || "boom".into());
        c.fail(3, || "three".into());
        c.fail(0, || unreachable!());
        assert_eq!((c.attempted, c.failed), (12, 4));
        assert_eq!(c.messages, vec!["boom", "three"]);
    }
}
