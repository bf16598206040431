//! Count-Min sketch backing the `reduce(f=sum)` primitive.
//!
//! On the data plane, "reduce could leverage several module suites to
//! implement a multi-array CM" (Fig. 3): each row is one 𝕊 register array
//! updated with the `+` SALU at an independent hash index, and ℝ takes the
//! running minimum across rows via the global result. This struct is the
//! reference implementation.

use crate::hash::HashFn;

/// A Count-Min sketch with `depth` rows of `width` counters.
///
/// ```
/// use newton_sketch::CountMinSketch;
/// let mut cm = CountMinSketch::new(2, 1024, 7);
/// cm.update(0xBEEF, 3);
/// cm.update(0xBEEF, 2);
/// assert!(cm.query(0xBEEF) >= 5, "never underestimates");
/// ```
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    rows: Vec<Vec<u32>>,
    hashes: Vec<HashFn>,
    width: u32,
    updates: u64,
}

impl CountMinSketch {
    /// Create a sketch with `depth` rows × `width` counters, seeded from
    /// `seed`.
    ///
    /// # Panics
    /// Panics if `depth == 0` or `width == 0`.
    pub fn new(depth: usize, width: u32, seed: u64) -> Self {
        assert!(depth > 0, "CM sketch needs at least one row");
        assert!(width > 0, "CM sketch needs at least one counter per row");
        CountMinSketch {
            rows: vec![vec![0u32; width as usize]; depth],
            hashes: (0..depth)
                .map(|i| HashFn::new(seed.wrapping_add(0x5151 * i as u64), width))
                .collect(),
            width,
            updates: 0,
        }
    }

    pub fn depth(&self) -> usize {
        self.rows.len()
    }

    pub fn width(&self) -> u32 {
        self.width
    }

    /// Add `count` to a key and return the *post-update estimate* — the
    /// minimum across rows, which is what the query's ℝ threshold check
    /// sees after the packet's update.
    pub fn update(&mut self, key: u128, count: u32) -> u32 {
        self.updates += 1;
        let mut est = u32::MAX;
        for (row, h) in self.rows.iter_mut().zip(&self.hashes) {
            let idx = h.hash(key) as usize;
            row[idx] = row[idx].saturating_add(count);
            est = est.min(row[idx]);
        }
        est
    }

    /// Point query: the count-min estimate for a key.
    pub fn query(&self, key: u128) -> u32 {
        self.rows
            .iter()
            .zip(&self.hashes)
            .map(|(row, h)| row[h.hash(key) as usize])
            .min()
            .unwrap_or(0)
    }

    /// Reset all counters (100 ms epoch reset).
    pub fn clear(&mut self) {
        for row in &mut self.rows {
            row.fill(0);
        }
        self.updates = 0;
    }

    /// Number of updates since the last clear.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Total stateful memory in 32-bit register words.
    pub fn register_words(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_underestimates() {
        let mut cm = CountMinSketch::new(3, 128, 77);
        let keys: Vec<(u128, u32)> =
            (0..300).map(|i| (i as u128 * 131 + 7, (i % 5) as u32 + 1)).collect();
        let mut truth = std::collections::HashMap::new();
        for &(k, c) in &keys {
            cm.update(k, c);
            *truth.entry(k).or_insert(0u32) += c;
        }
        for (&k, &t) in &truth {
            assert!(cm.query(k) >= t, "CM underestimated key {k}: {} < {t}", cm.query(k));
        }
    }

    #[test]
    fn exact_when_not_loaded() {
        let mut cm = CountMinSketch::new(4, 1 << 16, 5);
        for i in 0..50u128 {
            cm.update(i + 1, 2);
        }
        for i in 0..50u128 {
            assert_eq!(cm.query(i + 1), 2);
        }
        assert_eq!(cm.query(0xDEAD), 0);
    }

    #[test]
    fn update_returns_post_update_estimate() {
        let mut cm = CountMinSketch::new(2, 1024, 9);
        assert_eq!(cm.update(99, 1), 1);
        assert_eq!(cm.update(99, 1), 2);
        assert_eq!(cm.update(99, 3), 5);
    }

    #[test]
    fn saturating_counters_do_not_wrap() {
        let mut cm = CountMinSketch::new(1, 4, 0);
        cm.update(1, u32::MAX);
        assert_eq!(cm.update(1, 10), u32::MAX);
    }

    #[test]
    fn clear_resets() {
        let mut cm = CountMinSketch::new(2, 64, 1);
        cm.update(5, 9);
        cm.clear();
        assert_eq!(cm.query(5), 0);
        assert_eq!(cm.updates(), 0);
    }

    #[test]
    fn narrower_sketch_overestimates_more() {
        // With the same workload, a 32-counter sketch must show at least as
        // much total error as a 4096-counter sketch — the memory/accuracy
        // trade-off behind Fig. 14.
        let mut narrow = CountMinSketch::new(2, 32, 3);
        let mut wide = CountMinSketch::new(2, 4096, 3);
        let keys: Vec<u128> = (0..500).map(|i| i as u128 * 977 + 13).collect();
        for &k in &keys {
            narrow.update(k, 1);
            wide.update(k, 1);
        }
        let err_narrow: u64 = keys.iter().map(|&k| (narrow.query(k) - 1) as u64).sum();
        let err_wide: u64 = keys.iter().map(|&k| (wide.query(k) - 1) as u64).sum();
        assert!(err_narrow > err_wide, "narrow {err_narrow} <= wide {err_wide}");
    }

    #[test]
    fn register_word_accounting() {
        assert_eq!(CountMinSketch::new(3, 256, 0).register_words(), 768);
    }
}
