//! `s`-sparse recovery sketches.
//!
//! The `Õ(D_TP + f)` variant of the byzantine compiler (Section 1.2.2,
//! "Compilation with a Round Overhead of Õ(D_TP + f)") aggregates a *sparse
//! recovery* sketch with sparsity `s = Θ(f)` over each tree: when the global
//! mismatch multiset has at most `s` non-zero elements, the root recovers all
//! of them exactly.  The sketch is the classical hash-into-buckets-of-one-sparse
//! -cells construction with `O(log)` independent rows.

use crate::l0::SketchRandomness;
use crate::one_sparse::{OneSparseCell, OneSparseResult};
use coding::hashing::KWiseHash;
use std::collections::BTreeMap;

/// Number of independent rows (each a hash table of one-sparse cells).
const ROWS: usize = 6;

/// A mergeable `s`-sparse recovery sketch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseRecovery {
    randomness: SketchRandomness,
    sparsity: usize,
    cols: usize,
    hashes: Vec<KWiseHash>,
    /// `cells[row][col]`
    cells: Vec<Vec<OneSparseCell>>,
}

impl SparseRecovery {
    /// Create an empty sketch able to recover up to `sparsity` non-zero elements.
    ///
    /// # Panics
    ///
    /// Panics if `sparsity == 0`.
    pub fn new(randomness: SketchRandomness, sparsity: usize) -> Self {
        assert!(sparsity > 0, "sparsity must be positive");
        let cols = (2 * sparsity).next_power_of_two();
        let hashes: Vec<KWiseHash> = (0..ROWS)
            .map(|r| {
                KWiseHash::from_seed(randomness.seed() ^ (0xABCD_0000 + r as u64), 2, cols as u64)
            })
            .collect();
        let cells = (0..ROWS)
            .map(|r| {
                (0..cols)
                    .map(|c| {
                        OneSparseCell::new(randomness.seed() ^ (((r * cols + c) as u64) << 17) | 1)
                    })
                    .collect()
            })
            .collect();
        SparseRecovery {
            randomness,
            sparsity,
            cols,
            hashes,
            cells,
        }
    }

    /// The sparsity parameter `s`.
    pub fn sparsity(&self) -> usize {
        self.sparsity
    }

    /// Add `delta` to the net frequency of `element`.
    pub fn update(&mut self, element: u64, delta: i64) {
        if delta == 0 {
            return;
        }
        for row in 0..ROWS {
            let col = self.hashes[row].hash(element) as usize;
            self.cells[row][col].update(element, delta);
        }
    }

    /// Merge another sketch built from the same randomness and sparsity.
    ///
    /// # Panics
    ///
    /// Panics if the sketches are incompatible.
    pub fn merge(&mut self, other: &SparseRecovery) {
        assert_eq!(self.randomness, other.randomness, "randomness mismatch");
        assert_eq!(self.sparsity, other.sparsity, "sparsity mismatch");
        for (ours, theirs) in self.cells.iter_mut().zip(&other.cells) {
            for (a, b) in ours.iter_mut().zip(theirs) {
                a.merge(b);
            }
        }
    }

    /// Recover the full multiset of non-zero-frequency elements, provided there
    /// are at most `s` of them.  Uses iterative peeling: recover singleton
    /// buckets, subtract them everywhere, repeat.  Returns `None` when the
    /// residual is non-empty but nothing more can be peeled (i.e. the true
    /// support was larger than `s` or hashing was unlucky).
    pub fn decode(&self) -> Option<Vec<(u64, i64)>> {
        let mut work = self.clone();
        let mut recovered: BTreeMap<u64, i64> = BTreeMap::new();
        loop {
            // Find any singleton bucket.
            let mut found: Option<(u64, i64)> = None;
            'scan: for row in &work.cells {
                for cell in row {
                    if let OneSparseResult::Single { element, frequency } = cell.decode() {
                        found = Some((element, frequency));
                        break 'scan;
                    }
                }
            }
            match found {
                Some((element, frequency)) => {
                    *recovered.entry(element).or_insert(0) += frequency;
                    work.update(element, -frequency);
                }
                None => break,
            }
        }
        let residual_empty = work
            .cells
            .iter()
            .flat_map(|r| r.iter())
            .all(|c| c.is_zero());
        if residual_empty {
            Some(recovered.into_iter().filter(|&(_, f)| f != 0).collect())
        } else {
            None
        }
    }

    /// Whether the sketch currently summarises the empty multiset.
    pub fn is_empty_sketch(&self) -> bool {
        self.cells
            .iter()
            .flat_map(|r| r.iter())
            .all(|c| c.is_zero())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::one_sparse::tests::EagerCell;
    use proptest::prelude::*;

    /// [`SparseRecovery::decode`]'s peeling over always-materialised cells
    /// with the points and hashes of `sk`, fed `updates`: the oracle of the
    /// implicit fingerprint at sketch level.
    fn decode_over_eager_cells(
        sk: &SparseRecovery,
        updates: &[(u64, i64)],
    ) -> Option<Vec<(u64, i64)>> {
        let mut cells: Vec<Vec<EagerCell>> = sk
            .cells
            .iter()
            .map(|row| row.iter().map(EagerCell::like).collect())
            .collect();
        let update = |cells: &mut Vec<Vec<EagerCell>>, element: u64, delta: i64| {
            for (row, hash) in cells.iter_mut().zip(&sk.hashes) {
                row[hash.hash(element) as usize].update(element, delta);
            }
        };
        for &(element, delta) in updates {
            update(&mut cells, element, delta);
        }
        let mut recovered: BTreeMap<u64, i64> = BTreeMap::new();
        while let Some((element, frequency)) =
            cells.iter().flatten().find_map(|cell| match cell.decode() {
                OneSparseResult::Single { element, frequency } => Some((element, frequency)),
                _ => None,
            })
        {
            *recovered.entry(element).or_insert(0) += frequency;
            update(&mut cells, element, -frequency);
        }
        cells
            .iter()
            .flatten()
            .all(EagerCell::is_zero)
            .then(|| recovered.into_iter().filter(|&(_, f)| f != 0).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // Supports of up to 3·s elements, so peeling fails too, over noise
        // that comes and cancels (its cells materialise, then return to
        // zero); fed to one sketch, and split over two that are merged.
        #[test]
        fn decode_over_implicit_cells_equals_decode_over_eager_cells(
            seed in any::<u64>(),
            sparsity in 1usize..=4,
            support in prop::collection::vec((0..8u8, 0u64..64, -3i64..=3), 0..=12),
            noise in prop::collection::vec((0u64..64, 1i64..=3), 0..6),
        ) {
            let support = support
                .into_iter()
                .take(3 * sparsity)
                .map(|(kind, element, delta)| (if kind == 0 { u64::MAX } else { element }, delta));
            let updates: Vec<(u64, i64)> = noise
                .iter()
                .copied()
                .chain(support)
                .chain(noise.iter().map(|&(element, delta)| (element, -delta)))
                .collect();
            let r = randomness(seed);
            let [mut whole, mut left, mut right] = [(); 3].map(|_| SparseRecovery::new(r, sparsity));
            for (i, &(element, delta)) in updates.iter().enumerate() {
                whole.update(element, delta);
                if i % 2 == 0 { &mut left } else { &mut right }.update(element, delta);
            }
            left.merge(&right);
            let want = decode_over_eager_cells(&whole, &updates);
            prop_assert_eq!(whole.decode(), want.clone(), "decode differs from the eager cells");
            prop_assert_eq!(left.decode(), want.clone(), "merged decode differs from the eager cells");
            prop_assert_eq!(&left, &whole);
        }
    }

    fn randomness(seed: u64) -> SketchRandomness {
        SketchRandomness::from_seed(seed)
    }

    #[test]
    #[should_panic]
    fn zero_sparsity_rejected() {
        let _ = SparseRecovery::new(randomness(1), 0);
    }

    #[test]
    fn empty_decodes_to_empty() {
        let sk = SparseRecovery::new(randomness(1), 4);
        assert_eq!(sk.decode(), Some(vec![]));
        assert!(sk.is_empty_sketch());
    }

    #[test]
    fn recovers_exact_multiset_within_sparsity() {
        for seed in 0..10u64 {
            let mut sk = SparseRecovery::new(randomness(seed), 8);
            let truth: Vec<(u64, i64)> = vec![(3, 1), (900, -2), (17, 5), (44, 1), (1_000_000, 7)];
            for &(e, f) in &truth {
                sk.update(e, f);
            }
            let mut decoded = sk.decode().expect("decode within sparsity must succeed");
            decoded.sort_unstable();
            let mut expect = truth.clone();
            expect.sort_unstable();
            assert_eq!(decoded, expect, "seed {seed}");
        }
    }

    #[test]
    fn cancelled_elements_do_not_appear() {
        let mut sk = SparseRecovery::new(randomness(5), 4);
        sk.update(10, 3);
        sk.update(10, -3);
        sk.update(20, 1);
        assert_eq!(sk.decode(), Some(vec![(20, 1)]));
    }

    #[test]
    fn oversubscribed_sketch_reports_failure() {
        let mut sk = SparseRecovery::new(randomness(2), 2);
        for e in 0..200u64 {
            sk.update(e, 1);
        }
        // With 200 non-zero elements in a sparsity-2 sketch peeling cannot
        // complete; decode must not hallucinate a small support.
        match sk.decode() {
            None => {}
            Some(list) => {
                assert!(
                    list.len() >= 150,
                    "decode claimed a tiny support for a dense stream"
                );
            }
        }
    }

    #[test]
    fn merge_matches_union() {
        let r = randomness(9);
        let mut a = SparseRecovery::new(r, 6);
        let mut b = SparseRecovery::new(r, 6);
        let mut c = SparseRecovery::new(r, 6);
        for e in 0..6u64 {
            if e % 2 == 0 {
                a.update(e, (e + 1) as i64);
            } else {
                b.update(e, -(e as i64));
            }
            c.update(
                e,
                if e % 2 == 0 {
                    (e + 1) as i64
                } else {
                    -(e as i64)
                },
            );
        }
        a.merge(&b);
        assert_eq!(a.decode(), c.decode());
    }

    #[test]
    #[should_panic]
    fn merge_rejects_mismatched_sparsity() {
        let r = randomness(1);
        let mut a = SparseRecovery::new(r, 2);
        let b = SparseRecovery::new(r, 4);
        a.merge(&b);
    }
}
