//! ℓ0-sampling sketches (Theorem 3.4 of the paper, after Cormode–Firmani).
//!
//! An [`L0Sampler`] summarises a turnstile stream in `polylog` space and, on
//! query, returns a (near-)uniformly random element among those with non-zero
//! net frequency.  Sketches created from the same [`SketchRandomness`] can be
//! merged, which is what lets every node compute a local sketch of its own
//! sent/received messages and the tree aggregate them bottom-up into a sketch
//! of the *global* mismatch multiset.

use crate::one_sparse::{OneSparseCell, OneSparseResult};
use coding::hashing::KWiseHash;
use rand::Rng;

/// Shared randomness for a family of mergeable sketches.
///
/// In the compiler this is the `O(log^4 n)`-bit string the tree root broadcasts
/// before the aggregation; every node then builds its local sketch from the
/// same randomness so that the merge operation is well defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchRandomness {
    seed: u64,
}

impl SketchRandomness {
    /// Wrap a seed value (e.g. broadcast by the tree root).
    pub fn from_seed(seed: u64) -> Self {
        SketchRandomness { seed }
    }

    /// Draw fresh randomness from an RNG.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        SketchRandomness { seed: rng.gen() }
    }

    /// The underlying seed (what actually travels in a message).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn derive(&self, purpose: u64) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(purpose.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
            .rotate_left(23)
            .wrapping_mul(0xD6E8_FEB8_6659_FD93)
    }
}

/// Number of geometric sub-sampling levels (supports universes up to 2^64).
const LEVELS: usize = 64;
/// One-sparse cells per level; more cells lower the per-level failure probability.
const CELLS_PER_LEVEL: usize = 3;

/// A mergeable ℓ0-sampling sketch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L0Sampler {
    randomness: SketchRandomness,
    level_hash: KWiseHash,
    cell_hash: KWiseHash,
    /// `cells[level][slot]`
    cells: Vec<Vec<OneSparseCell>>,
}

impl L0Sampler {
    /// Create an empty sketch from shared randomness.
    pub fn new(randomness: SketchRandomness) -> Self {
        let level_hash = KWiseHash::from_seed(randomness.derive(1), 2, u64::MAX);
        let cell_hash = KWiseHash::from_seed(randomness.derive(2), 2, CELLS_PER_LEVEL as u64);
        let cells = (0..LEVELS)
            .map(|lvl| {
                (0..CELLS_PER_LEVEL)
                    .map(|slot| {
                        OneSparseCell::new(randomness.derive(1000 + (lvl * 10 + slot) as u64))
                    })
                    .collect()
            })
            .collect();
        L0Sampler {
            randomness,
            level_hash,
            cell_hash,
            cells,
        }
    }

    /// The shared randomness this sketch was built from.
    pub fn randomness(&self) -> SketchRandomness {
        self.randomness
    }

    /// The level an element is sub-sampled into: geometric in the number of
    /// trailing zero bits of its hash.
    fn level_of(&self, element: u64) -> usize {
        let h = self.level_hash.hash(element);
        (h.trailing_zeros() as usize).min(LEVELS - 1)
    }

    /// Add `delta` to the net frequency of `element`.
    pub fn update(&mut self, element: u64, delta: i64) {
        if delta == 0 {
            return;
        }
        let max_level = self.level_of(element);
        let slot = self.cell_hash.hash(element) as usize;
        // The element participates in every level up to its sampled level.
        for lvl in 0..=max_level {
            self.cells[lvl][slot].update(element, delta);
        }
    }

    /// Merge another sketch built from the same randomness.
    ///
    /// # Panics
    ///
    /// Panics if the randomness differs.
    pub fn merge(&mut self, other: &L0Sampler) {
        assert_eq!(
            self.randomness, other.randomness,
            "cannot merge sketches with different randomness"
        );
        for (ours, theirs) in self.cells.iter_mut().zip(&other.cells) {
            for (a, b) in ours.iter_mut().zip(theirs) {
                a.merge(b);
            }
        }
    }

    /// Query the sketch: a (near-)uniform element with non-zero net frequency,
    /// or `None` if the summarised multiset appears empty / recovery failed.
    pub fn query(&self) -> Option<u64> {
        // Scan from the sparsest (deepest) level downward: the first level at
        // which some cell recovers a single element yields the sample.
        for lvl in (0..LEVELS).rev() {
            for cell in &self.cells[lvl] {
                if let OneSparseResult::Single { element, .. } = cell.decode() {
                    return Some(element);
                }
            }
        }
        None
    }

    /// Whether every cell summarises the empty multiset (no non-zero element
    /// *and* no undetected collision residue — exact emptiness).
    pub fn is_empty_sketch(&self) -> bool {
        self.cells
            .iter()
            .flat_map(|lvl| lvl.iter())
            .all(|c| c.is_zero())
    }
}

/// A bank of `t` independent ℓ0-samplers sharing a base seed, as used by the
/// compiler (each tree runs `t = Θ(log n)` independent samplers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L0SamplerBank {
    samplers: Vec<L0Sampler>,
}

impl L0SamplerBank {
    /// Create `t` independent samplers derived from one base randomness.
    pub fn new(randomness: SketchRandomness, t: usize) -> Self {
        let samplers = (0..t)
            .map(|i| {
                L0Sampler::new(SketchRandomness::from_seed(
                    randomness.derive(7_000 + i as u64),
                ))
            })
            .collect();
        L0SamplerBank { samplers }
    }

    /// Number of samplers in the bank.
    pub fn len(&self) -> usize {
        self.samplers.len()
    }

    /// Whether the bank is empty.
    pub fn is_empty(&self) -> bool {
        self.samplers.is_empty()
    }

    /// Update every sampler.
    pub fn update(&mut self, element: u64, delta: i64) {
        for s in &mut self.samplers {
            s.update(element, delta);
        }
    }

    /// Merge another bank (same base randomness and size).
    ///
    /// # Panics
    ///
    /// Panics if the banks are incompatible.
    pub fn merge(&mut self, other: &L0SamplerBank) {
        assert_eq!(self.samplers.len(), other.samplers.len());
        for (a, b) in self.samplers.iter_mut().zip(&other.samplers) {
            a.merge(b);
        }
    }

    /// Query every sampler, returning one (possibly duplicated) sample per sampler.
    pub fn query_all(&self) -> Vec<u64> {
        self.samplers.iter().filter_map(|s| s.query()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashMap;

    /// The sampling distribution of an ℓ0 sampler over a fixed support,
    /// from repeated independent sketches.
    fn empirical_sample_counts(support: &[u64], trials: usize, seed: u64) -> HashMap<u64, usize> {
        let mut counts = HashMap::new();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..trials {
            let mut sk = L0Sampler::new(SketchRandomness::random(&mut rng));
            for &e in support {
                sk.update(e, 1);
            }
            if let Some(s) = sk.query() {
                *counts.entry(s).or_insert(0) += 1;
            }
        }
        counts
    }

    #[test]
    fn empty_sketch_returns_none() {
        let sk = L0Sampler::new(SketchRandomness::from_seed(1));
        assert_eq!(sk.query(), None);
        assert!(sk.is_empty_sketch());
    }

    #[test]
    fn singleton_always_recovered() {
        for seed in 0..20 {
            let mut sk = L0Sampler::new(SketchRandomness::from_seed(seed));
            sk.update(777, 2);
            assert_eq!(sk.query(), Some(777));
        }
    }

    #[test]
    fn cancelled_elements_are_never_sampled() {
        let mut sk = L0Sampler::new(SketchRandomness::from_seed(3));
        sk.update(1, 1);
        sk.update(2, 1);
        sk.update(1, -1);
        // Element 1 net frequency is 0, so any successful query must return 2.
        for _ in 0..3 {
            if let Some(s) = sk.query() {
                assert_eq!(s, 2);
            }
        }
    }

    #[test]
    fn query_returns_a_true_support_element() {
        let support: Vec<u64> = (100..140).collect();
        let mut successes = 0;
        for seed in 0..50u64 {
            let mut sk = L0Sampler::new(SketchRandomness::from_seed(seed));
            for &e in &support {
                sk.update(e, 1);
            }
            if let Some(s) = sk.query() {
                successes += 1;
                assert!(support.contains(&s), "sampled element {s} not in support");
            }
        }
        assert!(successes >= 40, "too many query failures: {successes}/50");
    }

    #[test]
    fn merge_equals_union_stream() {
        let r = SketchRandomness::from_seed(11);
        let mut a = L0Sampler::new(r);
        let mut b = L0Sampler::new(r);
        let mut combined = L0Sampler::new(r);
        for e in 0..30u64 {
            if e % 2 == 0 {
                a.update(e, 1);
            } else {
                b.update(e, 1);
            }
            combined.update(e, 1);
        }
        a.merge(&b);
        assert_eq!(a, combined);
    }

    #[test]
    #[should_panic]
    fn merge_requires_matching_randomness() {
        let mut a = L0Sampler::new(SketchRandomness::from_seed(1));
        let b = L0Sampler::new(SketchRandomness::from_seed(2));
        a.merge(&b);
    }

    /// Theorem 3.4: a query fails with small constant probability (here
    /// under 1/8) and returns a near-uniform element of the support.
    #[test]
    fn sampling_is_roughly_uniform() {
        for (size, trials, seed) in [(8u64, 4000usize, 42u64), (10, 3000, 9)] {
            let support: Vec<u64> = (1..=size).collect();
            let counts = empirical_sample_counts(&support, trials, seed);
            assert!(counts.keys().all(|e| support.contains(e)));
            let total: usize = counts.values().sum();
            assert!(8 * total > 7 * trials, "too many failed queries: {total}");
            for &e in &support {
                let c = *counts.get(&e).unwrap_or(&0);
                let expect = total as f64 / support.len() as f64;
                assert!(
                    (c as f64) > expect * 0.5 && (c as f64) < expect * 1.7,
                    "element {e} sampled {c} times, expected ≈ {expect}"
                );
            }
        }
    }

    #[test]
    fn bank_updates_and_merges() {
        let r = SketchRandomness::from_seed(9);
        let mut a = L0SamplerBank::new(r, 8);
        let mut b = L0SamplerBank::new(r, 8);
        a.update(5, 1);
        b.update(6, 1);
        a.merge(&b);
        let samples = a.query_all();
        // Individual samplers may occasionally fail to recover; most must succeed.
        assert!(
            samples.len() >= 6,
            "too many failed samplers: {}",
            samples.len()
        );
        assert!(samples.iter().all(|&s| s == 5 || s == 6));
        assert!(samples.contains(&5) || samples.contains(&6));
    }

    #[test]
    fn bank_len() {
        let bank = L0SamplerBank::new(SketchRandomness::from_seed(1), 3);
        assert_eq!(bank.len(), 3);
        assert!(!bank.is_empty());
    }
}
