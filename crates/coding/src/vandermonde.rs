//! Vandermonde matrices and the Chor et al. bit-extraction procedure.
//!
//! This implements Theorem 2.1 of the paper (originally due to Chor, Goldreich,
//! Håstad, Friedman, Rudich and Smolensky): given `n` field elements of which at
//! most `t` are known to (or chosen by) an adversary and the remaining `n - t`
//! are uniformly random and hidden, multiplying the vector by an `n × (n - t)`
//! Vandermonde matrix yields `n - t` elements that are *independent and
//! uniformly random* from the adversary's point of view.
//!
//! The mobile-secure compilers use this to convert a multi-round exchange of
//! random pads — of which the mobile eavesdropper saw a bounded number of rounds
//! per edge — into a pool of perfectly hidden one-time-pad keys (the
//! `K_i(u, v)` keys of Theorem 1.2 and Lemma A.1).

use crate::field::Field;
use crate::{CodingError, Result};

/// An `rows × cols` Vandermonde matrix over the field `F`, with entry
/// `M[i][j] = alpha_i^j` for distinct non-zero evaluation points `alpha_i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vandermonde<F: Field> {
    rows: usize,
    cols: usize,
    points: Vec<F>,
}

impl<F: Field> Vandermonde<F> {
    /// Build an `rows × cols` Vandermonde matrix using the canonical evaluation
    /// points `1, 2, …, rows` (as field elements).
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::InvalidParameters`] if `rows` (plus one) exceeds
    /// the field order — the evaluation points must be distinct and non-zero —
    /// or if `cols > rows`.
    pub fn new(rows: usize, cols: usize) -> Result<Self> {
        if rows as u64 >= F::order() {
            return Err(CodingError::InvalidParameters(format!(
                "{rows} rows do not fit in a field of order {}",
                F::order()
            )));
        }
        if cols > rows {
            return Err(CodingError::InvalidParameters(format!(
                "cols ({cols}) may not exceed rows ({rows})"
            )));
        }
        let points = (1..=rows as u64).map(F::from_u64).collect();
        Ok(Vandermonde { rows, cols, points })
    }

    /// Number of rows (input length).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (output length).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entry `M[i][j] = alpha_i^j`.
    pub fn entry(&self, i: usize, j: usize) -> F {
        self.points[i].pow(j as u64)
    }

    /// Compute `y = x^T · M`, i.e. `y_j = Σ_i x_i · alpha_i^j`.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::LengthMismatch`] if `x.len() != rows`.
    pub fn apply(&self, x: &[F]) -> Result<Vec<F>> {
        if x.len() != self.rows {
            return Err(CodingError::LengthMismatch {
                expected: self.rows,
                got: x.len(),
            });
        }
        let mut out = vec![F::ZERO; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            if xi.is_zero() {
                continue;
            }
            // alpha_i^j computed incrementally.
            let alpha = self.points[i];
            let mut p = F::ONE;
            for slot in out.iter_mut() {
                *slot = *slot + xi * p;
                p = p * alpha;
            }
        }
        Ok(out)
    }

    /// The streaming, batched form of [`Vandermonde::apply`]: fold input rows
    /// `i` (each `w` independent columns wide) into their outputs at once.
    ///
    /// `acc` holds the `cols × w` outputs row-major by output index
    /// (`acc[j·w + k]` is output `j` of column `k`) and gains
    /// `alpha_i^j · row[k]` there for every `(i, row)` of `rows`, as one
    /// [`Field::addmul_rows`] call with the powers of each `alpha_i` (GF(2^16)
    /// folds two rows per pass over `acc`).  Starting from zeros and
    /// absorbing rows `0..rows` (in any order and grouping) leaves
    /// `acc[j·w + k] == apply(column k)[j]` without ever holding a whole
    /// column.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::InvalidParameters`] if some `i >= rows` and
    /// [`CodingError::LengthMismatch`] if some row is not `w` wide, with
    /// `acc.len() == cols · w` for the first row's `w`.
    pub fn absorb_rows(&self, rows: &[(usize, &[F])], acc: &mut [F]) -> Result<()> {
        let Some(&(_, first)) = rows.first() else {
            return Ok(());
        };
        for &(i, row) in rows {
            if i >= self.rows {
                return Err(CodingError::InvalidParameters(format!(
                    "row {i} out of range for {} rows",
                    self.rows
                )));
            }
            if row.len() != first.len() {
                return Err(CodingError::LengthMismatch {
                    expected: first.len(),
                    got: row.len(),
                });
            }
        }
        if acc.len() != self.cols * first.len() {
            return Err(CodingError::LengthMismatch {
                expected: self.cols * first.len(),
                got: acc.len(),
            });
        }
        if first.is_empty() {
            return Ok(());
        }
        let powers: Vec<Vec<F>> = rows
            .iter()
            .map(|&(i, _)| {
                let alpha = self.points[i];
                std::iter::successors(Some(F::ONE), |&p| Some(p * alpha))
                    .take(self.cols)
                    .collect()
            })
            .collect();
        let sources: Vec<(&[F], &[F])> = rows
            .iter()
            .zip(&powers)
            .map(|(&(_, row), powers)| (row, &powers[..]))
            .collect();
        F::addmul_rows(acc, &sources);
        Ok(())
    }
}

/// The bit-extraction procedure of Theorem 2.1, specialised to the way the
/// compilers use it: `n` rounds of pad exchange over an edge are condensed into
/// `m = n - t` one-time-pad keys that remain uniform provided the adversary
/// observed at most `t` of the rounds.
#[derive(Debug, Clone)]
pub struct BitExtractor<F: Field> {
    matrix: Vandermonde<F>,
}

impl<F: Field> BitExtractor<F> {
    /// Create an extractor that condenses `n` exchanged pads into `n - t` keys,
    /// resilient to an adversary that observed any `t` of the pads.
    ///
    /// # Errors
    ///
    /// Returns an error when `t >= n` or the parameters exceed the field size.
    pub fn new(n: usize, t: usize) -> Result<Self> {
        if t >= n {
            return Err(CodingError::InvalidParameters(format!(
                "t ({t}) must be smaller than n ({n})"
            )));
        }
        Ok(BitExtractor {
            matrix: Vandermonde::new(n, n - t)?,
        })
    }

    /// Number of input pads.
    pub fn input_len(&self) -> usize {
        self.matrix.rows()
    }

    /// Number of extracted keys.
    pub fn output_len(&self) -> usize {
        self.matrix.cols()
    }

    /// Extract `n - t` keys from the `n` exchanged pads.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::LengthMismatch`] if `pads.len()` differs from the
    /// configured input length.
    pub fn extract(&self, pads: &[F]) -> Result<Vec<F>> {
        self.matrix.apply(pads)
    }

    /// Streamed extraction over many pad lanes at once: fold each
    /// `(round, pads)` given — the pads of exchange round `round`, one per
    /// lane, `w` lanes — into `keys`, the `output_len() × w` key block laid
    /// out key-index-major.  The key schedule passes two rounds per call.
    /// After rounds `0..input_len()` have been absorbed into a zeroed block,
    /// `keys[j·w + k]` is `extract(lane k)[j]` — see
    /// [`Vandermonde::absorb_rows`].
    ///
    /// # Errors
    ///
    /// Returns an error when some `round >= input_len()`, the rounds' pads
    /// differ in width, or `keys` is not `output_len() · w` long.
    pub fn absorb(&self, rounds: &[(usize, &[F])], keys: &mut [F]) -> Result<()> {
        self.matrix.absorb_rows(rounds, keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf2_16::Gf2_16;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashMap;

    type F = Gf2_16;

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Vandermonde::<F>::new(1 << 17, 4).is_err());
        assert!(Vandermonde::<F>::new(4, 5).is_err());
        assert!(BitExtractor::<F>::new(4, 4).is_err());
        assert!(BitExtractor::<F>::new(4, 7).is_err());
    }

    #[test]
    fn apply_checks_length() {
        let m = Vandermonde::<F>::new(5, 3).unwrap();
        assert!(matches!(
            m.apply(&[F::ZERO; 4]),
            Err(CodingError::LengthMismatch {
                expected: 5,
                got: 4
            })
        ));
    }

    /// The streamed form against the per-column oracle: random shapes of up
    /// to 40 rows, widths on both sides of the 16- and 32-lane kernel steps
    /// and up to three 512-element kernel tiles plus a 32-lane step and a
    /// tail, rows absorbed out of order in groups of one to three.
    #[test]
    fn absorbing_every_row_equals_per_column_apply() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for case in 0..48 {
            let n = rng.gen_range(1..=40usize);
            let t = rng.gen_range(0..n);
            let width = match case % 3 {
                0 => rng.gen_range(0..40usize),
                1 => rng.gen_range(40..600usize),
                _ => rng.gen_range(3 * 512 + 32..3 * 512 + 64),
            };
            let ex = BitExtractor::<F>::new(n, t).unwrap();
            let rows: Vec<Vec<F>> = (0..n)
                .map(|_| (0..width).map(|_| F::from_u64(rng.gen())).collect())
                .collect();
            let mut keys = vec![F::ZERO; (n - t) * width];
            let order: Vec<(usize, &[F])> = (0..n).rev().map(|i| (i, &rows[i][..])).collect();
            let mut rest = &order[..];
            while !rest.is_empty() {
                let (group, tail) = rest.split_at(rng.gen_range(1..=3usize).min(rest.len()));
                ex.absorb(group, &mut keys).unwrap();
                rest = tail;
            }
            for k in 0..width {
                let column: Vec<F> = rows.iter().map(|r| r[k]).collect();
                let expect = ex.extract(&column).unwrap();
                for (j, &key) in expect.iter().enumerate() {
                    assert_eq!(keys[j * width + k], key, "n={n} t={t} lane {k} key {j}");
                }
            }
        }
    }

    #[test]
    fn absorb_checks_row_index_and_block_size() {
        let ex = BitExtractor::<F>::new(5, 2).unwrap();
        let row = [F::ONE; 4];
        assert!(matches!(
            ex.absorb(&[(0, &row), (5, &row)], &mut [F::ZERO; 12]),
            Err(CodingError::InvalidParameters(_))
        ));
        assert!(matches!(
            ex.absorb(&[(0, &row)], &mut [F::ZERO; 11]),
            Err(CodingError::LengthMismatch {
                expected: 12,
                got: 11
            })
        ));
        assert!(matches!(
            ex.absorb(&[(0, &row), (1, &row[..3])], &mut [F::ZERO; 12]),
            Err(CodingError::LengthMismatch {
                expected: 4,
                got: 3
            })
        ));
        assert_eq!(ex.absorb(&[], &mut []), Ok(()));
    }

    #[test]
    fn entry_matches_apply() {
        let m = Vandermonde::<F>::new(6, 4).unwrap();
        // Applying a standard basis vector e_i reads out row i.
        for i in 0..6 {
            let mut x = vec![F::ZERO; 6];
            x[i] = F::ONE;
            let row = m.apply(&x).unwrap();
            for j in 0..4 {
                assert_eq!(row[j], m.entry(i, j));
            }
        }
    }

    /// The heart of Theorem 2.1: with `t` coordinates fixed (adversary-known)
    /// and `n - t` uniform, every output key is uniform.  We verify this on a
    /// small field statistically and, more importantly, verify the exact
    /// *bijection* property the theorem rests on: for fixed adversarial
    /// coordinates, the map from the hidden coordinates to the output is a
    /// bijection (so uniform inputs give uniform outputs).
    #[test]
    fn extraction_is_bijective_in_hidden_coordinates() {
        // n = 3, t = 1 over GF(2^8) would still be 2^16 combinations; use GF(2^16)
        // with a handful of random hidden values instead and check injectivity.
        let n = 4;
        let t = 2;
        let ex = BitExtractor::<F>::new(n, t).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        // Adversary-known coordinates: positions 1 and 3 fixed.
        let fixed = [F::from_u64(111), F::from_u64(9999)];
        let mut seen: HashMap<(u64, u64), (u64, u64)> = HashMap::new();
        for _ in 0..20_000 {
            let h0 = F::from_u64(rng.gen());
            let h2 = F::from_u64(rng.gen());
            let pads = vec![h0, fixed[0], h2, fixed[1]];
            let keys = ex.extract(&pads).unwrap();
            assert_eq!(keys.len(), 2);
            let out = (keys[0].to_u64(), keys[1].to_u64());
            let inp = (h0.to_u64(), h2.to_u64());
            if let Some(prev) = seen.insert(out, inp) {
                assert_eq!(
                    prev, inp,
                    "two distinct hidden inputs collided on the same keys"
                );
            }
        }
    }

    #[test]
    fn extraction_output_marginals_look_uniform() {
        // Chi-square style sanity check on the low byte of the first key.
        let n = 8;
        let t = 3;
        let ex = BitExtractor::<F>::new(n, t).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let fixed: Vec<F> = (0..t as u64).map(|i| F::from_u64(i * 37 + 5)).collect();
        let mut counts = [0u32; 256];
        let trials = 64_000;
        for _ in 0..trials {
            let mut pads: Vec<F> = Vec::with_capacity(n);
            for i in 0..n {
                if i < t {
                    pads.push(fixed[i]);
                } else {
                    pads.push(F::from_u64(rng.gen()));
                }
            }
            let keys = ex.extract(&pads).unwrap();
            counts[(keys[0].to_u64() & 0xFF) as usize] += 1;
        }
        let expected = trials as f64 / 256.0;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // 255 degrees of freedom; mean 255, stddev ~22.6.  Allow a generous band.
        assert!(chi2 < 400.0, "chi-square too large: {chi2}");
    }
}
