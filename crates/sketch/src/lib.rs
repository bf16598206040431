//! Probabilistic data structures used by Newton's state bank (𝕊).
//!
//! The paper adopts "the sketch-based implementation of stateful primitives,
//! e.g. using Bloom Filter for `distinct` and Count-Min Sketch for the sum
//! function of `reduce`" (§4.1). This crate provides:
//!
//! * [`hash`] — the seeded hash family ℍ draws from: deterministic 64-bit
//!   mixers usable as independent hash functions with a configurable output
//!   range (the "reconfigurable elements of ℍ").
//! * [`bloom`] — a Bloom filter over `u32` register words (one register
//!   array per hash function, matching how the data plane builds a BF from
//!   𝕊 suites with the `|` SALU).
//! * [`cms`] — a Count-Min sketch, again expressed as rows of register
//!   arrays updated with the `+` SALU.
//! * [`exact`] — exact (hash-map) counterparts used as ground truth by the
//!   accuracy experiments (Fig. 14).
//!
//! All structures are deterministic given their seeds.

pub mod bloom;
pub mod cms;
pub mod exact;
pub mod hash;

pub use bloom::BloomFilter;
pub use cms::CountMinSketch;
pub use exact::{ExactCounter, ExactDistinct};
pub use hash::{BuildMix64, FastMap, FastSet, HashFn, Mix64Hasher};
