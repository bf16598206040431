//! Bloom filter backing the `distinct` primitive.
//!
//! The data plane realizes a Bloom filter as `k` register arrays (one 𝕊
//! suite each), each updated with the `|` SALU at an independent hash index.
//! This struct is the reference implementation the pipeline's register-level
//! execution is tested against, and the structure used by accuracy
//! experiments when a query runs "on CPU".

use crate::hash::HashFn;

/// A Bloom filter over `k` arrays of `m` bits each.
///
/// ```
/// use newton_sketch::BloomFilter;
/// let mut bf = BloomFilter::new(3, 1024, 42);
/// assert!(bf.insert(0xDEAD), "first insert is fresh");
/// assert!(!bf.insert(0xDEAD), "re-insert is not");
/// assert!(bf.contains(0xDEAD));
/// ```
///
/// Using one array per hash function (rather than one shared array) matches
/// the data-plane layout: each hash function owns a register array touched
/// once per packet, which is the transactional-ALU constraint on Tofino.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    arrays: Vec<Vec<u32>>,
    hashes: Vec<HashFn>,
    bits_per_array: u32,
    inserted: u64,
}

impl BloomFilter {
    /// Create a filter with `k` hash functions over `bits_per_array` bits
    /// each, seeded from `seed`.
    ///
    /// # Panics
    /// Panics if `k == 0` or `bits_per_array == 0`.
    pub fn new(k: usize, bits_per_array: u32, seed: u64) -> Self {
        assert!(k > 0, "Bloom filter needs at least one hash function");
        assert!(bits_per_array > 0, "Bloom filter needs at least one bit");
        let words = bits_per_array.div_ceil(32) as usize;
        BloomFilter {
            arrays: vec![vec![0u32; words]; k],
            hashes: (0..k)
                .map(|i| HashFn::new(seed.wrapping_add(i as u64), bits_per_array))
                .collect(),
            bits_per_array,
            inserted: 0,
        }
    }

    /// Number of hash functions.
    pub fn k(&self) -> usize {
        self.hashes.len()
    }

    /// Bits per array.
    pub fn bits_per_array(&self) -> u32 {
        self.bits_per_array
    }

    /// Insert a key. Returns `true` if the key was (possibly) new — i.e. at
    /// least one bit flipped — and `false` if it was definitely already
    /// present-or-colliding. This return value is exactly the state result
    /// the data-plane `distinct` uses to decide whether to continue a query.
    pub fn insert(&mut self, key: u128) -> bool {
        let mut fresh = false;
        for (arr, h) in self.arrays.iter_mut().zip(&self.hashes) {
            let bit = h.hash(key);
            let (w, b) = (bit / 32, bit % 32);
            let word = &mut arr[w as usize];
            if *word & (1 << b) == 0 {
                fresh = true;
                *word |= 1 << b;
            }
        }
        self.inserted += 1;
        fresh
    }

    /// Query membership without inserting.
    pub fn contains(&self, key: u128) -> bool {
        self.arrays.iter().zip(&self.hashes).all(|(arr, h)| {
            let bit = h.hash(key);
            arr[(bit / 32) as usize] & (1 << (bit % 32)) != 0
        })
    }

    /// Reset all bits (the 100 ms epoch reset in §6 "values ... are
    /// evaluated and reset every 100ms").
    pub fn clear(&mut self) {
        for arr in &mut self.arrays {
            arr.fill(0);
        }
        self.inserted = 0;
    }

    /// Total inserts since the last clear.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// The theoretical false-positive probability given `n` distinct
    /// inserted keys: `(1 - e^{-n/m})^k` with per-array occupancy.
    pub fn theoretical_fpr(&self, n: u64) -> f64 {
        let m = self.bits_per_array as f64;
        (1.0 - (-(n as f64) / m).exp()).powi(self.k() as i32)
    }

    /// Total stateful memory in 32-bit register words (for resource
    /// accounting).
    pub fn register_words(&self) -> usize {
        self.arrays.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut bf = BloomFilter::new(3, 1024, 11);
        let keys: Vec<u128> = (0..200).map(|i| (i as u128) * 0x9E37 + 5).collect();
        for &k in &keys {
            bf.insert(k);
        }
        for &k in &keys {
            assert!(bf.contains(k), "false negative for {k}");
        }
    }

    #[test]
    fn first_insert_reports_fresh() {
        let mut bf = BloomFilter::new(2, 4096, 1);
        assert!(bf.insert(42));
        assert!(!bf.insert(42), "re-insert must not report fresh");
    }

    #[test]
    fn clear_resets_state() {
        let mut bf = BloomFilter::new(2, 256, 1);
        bf.insert(7);
        bf.clear();
        assert!(!bf.contains(7));
        assert_eq!(bf.inserted(), 0);
        assert!(bf.insert(7));
    }

    #[test]
    fn fpr_grows_with_load_and_tracks_theory() {
        let mut bf = BloomFilter::new(2, 1024, 3);
        for i in 0..600u128 {
            bf.insert(i.wrapping_mul(0xABCDEF) + 1);
        }
        // Probe keys never inserted.
        let probes = 4000;
        let fp = (0..probes).filter(|i| bf.contains(0xF000_0000_0000 + *i as u128)).count();
        let measured = fp as f64 / probes as f64;
        let theory = bf.theoretical_fpr(600);
        assert!(
            (measured - theory).abs() < 0.12,
            "measured FPR {measured:.3} far from theoretical {theory:.3}"
        );
    }

    #[test]
    fn small_filter_saturates_to_all_positive() {
        let mut bf = BloomFilter::new(1, 8, 0);
        for i in 0..1000u128 {
            bf.insert(i * 31 + 7);
        }
        let positives = (0..100).filter(|i| bf.contains(0xBEEF + *i as u128)).count();
        assert!(positives > 90, "saturated filter should answer mostly-positive");
    }

    #[test]
    fn register_word_accounting() {
        let bf = BloomFilter::new(3, 1024, 0);
        assert_eq!(bf.register_words(), 3 * 32);
    }
}
