//! Exact counterparts of the sketches, used as ground truth.
//!
//! Fig. 14 measures accuracy and false-positive rate of the sketch-backed
//! pipeline against the true answer. These hash-map structures compute that
//! true answer from the same key stream.

use std::collections::{HashMap, HashSet};

/// Exact per-key counter (ground truth for `reduce(f=sum)`).
#[derive(Debug, Clone, Default)]
pub struct ExactCounter {
    counts: HashMap<u128, u64>,
}

impl ExactCounter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `count` to `key`; returns the new total.
    pub fn update(&mut self, key: u128, count: u64) -> u64 {
        let e = self.counts.entry(key).or_insert(0);
        *e += count;
        *e
    }

    pub fn query(&self, key: u128) -> u64 {
        self.counts.get(&key).copied().unwrap_or(0)
    }

    /// Keys whose count is ≥ `threshold` (the true heavy-hitter set).
    pub fn keys_at_least(&self, threshold: u64) -> HashSet<u128> {
        self.counts.iter().filter(|&(_, &c)| c >= threshold).map(|(&k, _)| k).collect()
    }

    pub fn len(&self) -> usize {
        self.counts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    pub fn clear(&mut self) {
        self.counts.clear();
    }

    /// Iterate over `(key, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u128, u64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }
}

/// Exact distinct-set tracker (ground truth for `distinct`).
#[derive(Debug, Clone, Default)]
pub struct ExactDistinct {
    seen: HashSet<u128>,
}

impl ExactDistinct {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a key; returns `true` iff it was new.
    pub fn insert(&mut self, key: u128) -> bool {
        self.seen.insert(key)
    }

    pub fn contains(&self, key: u128) -> bool {
        self.seen.contains(&key)
    }

    pub fn len(&self) -> usize {
        self.seen.len()
    }

    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    pub fn clear(&mut self) {
        self.seen.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = ExactCounter::new();
        assert_eq!(c.update(1, 2), 2);
        assert_eq!(c.update(1, 3), 5);
        assert_eq!(c.query(1), 5);
        assert_eq!(c.query(2), 0);
    }

    #[test]
    fn threshold_set() {
        let mut c = ExactCounter::new();
        c.update(1, 10);
        c.update(2, 3);
        c.update(3, 10);
        let hh = c.keys_at_least(10);
        assert_eq!(hh.len(), 2);
        assert!(hh.contains(&1) && hh.contains(&3));
    }

    #[test]
    fn distinct_insert_semantics() {
        let mut d = ExactDistinct::new();
        assert!(d.insert(7));
        assert!(!d.insert(7));
        assert_eq!(d.len(), 1);
        d.clear();
        assert!(d.is_empty());
    }
}
