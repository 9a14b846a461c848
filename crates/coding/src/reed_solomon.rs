//! Reed–Solomon codes with syndrome (Berlekamp–Massey) error decoding.
//!
//! Theorem 1.8 of the paper uses an `[ℓ, k, δ]_q` Reed–Solomon code with
//! relative distance `δ = (k - ℓ + 1)/k`.  The `ECCSafeBroadcast` procedure
//! (Lemma 3.6) encodes the root's message into `k` shares, ships one share per
//! tree of the packing, and lets every node decode the *closest codeword* from
//! the shares it received — a bounded fraction of which were corrupted by the
//! mobile adversary.  The decoder recovers the message as long as at most
//! `⌊(k - ℓ)/2⌋` shares are wrong, which is exactly the guarantee the lemma
//! needs, and refuses every word farther than that from all codewords.
//!
//! # Precomputation
//!
//! Construction is the expensive step: [`ReedSolomon::new`] precomputes the
//! generator, interpolation and parity-check matrices so that encoding, the
//! [`ReedSolomon::syndromes`] codeword check and the clean-word fast path of
//! [`ReedSolomon::decode`] are all plain matrix–vector products over
//! [`Field::addmul_slice`] — which the per-field kernels in
//! [`crate::kernels`] vectorize.  It also precomputes what error decoding
//! needs of the dual code (see [`ReedSolomon::decode`]).  Callers encoding or
//! decoding many words with the same `(ℓ, k)` should build the code once and
//! reuse it.

use crate::field::{lagrange_interpolate, poly_eval, Field};
use crate::{CodingError, Result};

/// `y = A·v` with `A` stored column-major: `y = Σ_j v_j · col_j`, each term a
/// fused [`Field::addmul_slice`] so the per-field kernels carry the hot loop.
fn matvec<F: Field>(cols: &[Vec<F>], v: &[F]) -> Vec<F> {
    let rows = cols.first().map_or(0, Vec::len);
    let mut y = vec![F::ZERO; rows];
    for (col, &vj) in cols.iter().zip(v.iter()) {
        F::addmul_slice(&mut y, col, vj);
    }
    y
}

/// A Reed–Solomon code with message length `ell` and block length `k` over `F`.
///
/// Codewords are evaluations of the degree-`< ell` message polynomial at the
/// canonical points `1, 2, …, k`.
#[derive(Debug, Clone)]
pub struct ReedSolomon<F: Field> {
    ell: usize,
    k: usize,
    points: Vec<F>,
    /// Generator matrix, column-major: `gen_cols[j][i] = x_i^j`, so a
    /// codeword is `Σ_j m_j · gen_cols[j]`.
    gen_cols: Vec<Vec<F>>,
    /// Interpolation matrix, column-major: the coefficients of the `j`-th
    /// Lagrange basis polynomial over the first `ℓ` points, so the message
    /// behind a clean word is `Σ_j head_j · interp_cols[j]`.
    interp_cols: Vec<Vec<F>>,
    /// Parity-check matrix, column-major: the `j`-th basis polynomial
    /// evaluated at the `k − ℓ` tail points, so the tail a clean word must
    /// carry given its head is `Σ_j head_j · parity_cols[j]`.
    parity_cols: Vec<Vec<F>>,
    /// Dual-code syndrome map, column-major over the tail: with the dual
    /// multipliers `v_i = 1/Π_{j≠i}(x_i − x_j)`, `tail_check_cols[t][j] =
    /// −v_{ℓ+t} · x_{ℓ+t}^j`, so the dual syndromes of a word are
    /// `Σ_t s_t · tail_check_cols[t]` for its parity syndromes `s`.
    tail_check_cols: Vec<Vec<F>>,
    /// `1/v_i` for the head positions: an error's dual-code value divided by
    /// `v_i` is the error itself.
    head_inv_multipliers: Vec<F>,
}

impl<F: Field> ReedSolomon<F> {
    /// Create a code with message length `ell` and block length `k`.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::InvalidParameters`] when `ell == 0`, `ell > k`, or
    /// `k` exceeds the number of non-zero field elements.
    pub fn new(ell: usize, k: usize) -> Result<Self> {
        if ell == 0 {
            return Err(CodingError::InvalidParameters(
                "message length must be positive".into(),
            ));
        }
        if ell > k {
            return Err(CodingError::InvalidParameters(format!(
                "message length {ell} exceeds block length {k}"
            )));
        }
        if k as u64 >= F::order() {
            return Err(CodingError::InvalidParameters(format!(
                "block length {k} does not fit in field of order {}",
                F::order()
            )));
        }
        let points: Vec<F> = (1..=k as u64).map(F::from_u64).collect();
        // Generator matrix, column-major: gen_cols[j][i] = x_i^j.
        let mut gen_cols = vec![vec![F::ZERO; k]; ell];
        for (i, &x) in points.iter().enumerate() {
            let mut p = F::ONE;
            for col in gen_cols.iter_mut() {
                col[i] = p;
                p = p * x;
            }
        }
        // The Lagrange basis polynomials over the head points feed both the
        // interpolation matrix (their coefficients) and the parity-check
        // matrix (their evaluations at the tail points).
        let mut interp_cols = Vec::with_capacity(ell);
        let mut parity_cols = Vec::with_capacity(ell);
        for j in 0..ell {
            let unit: Vec<(F, F)> = (0..ell)
                .map(|i| (points[i], if i == j { F::ONE } else { F::ZERO }))
                .collect();
            let mut basis = lagrange_interpolate(&unit);
            basis.resize(ell, F::ZERO);
            parity_cols.push(
                points[ell..]
                    .iter()
                    .map(|&x| poly_eval(&basis, x))
                    .collect(),
            );
            interp_cols.push(basis);
        }
        // `1/v_i = Π_{j≠i} (x_i − x_j)`: the codewords are orthogonal to
        // `(v_i x_i^j)_i` for every `j < k − ℓ`.
        let inv_multiplier = |i: usize| {
            (0..k)
                .filter(|&j| j != i)
                .fold(F::ONE, |acc, j| acc * (points[i] - points[j]))
        };
        let head_inv_multipliers = (0..ell).map(inv_multiplier).collect();
        let tail_check_cols = (ell..k)
            .map(|i| {
                let mut p = -inv_multiplier(i).inv();
                (0..k - ell)
                    .map(|_| {
                        let entry = p;
                        p = p * points[i];
                        entry
                    })
                    .collect()
            })
            .collect();
        Ok(ReedSolomon {
            ell,
            k,
            points,
            gen_cols,
            interp_cols,
            parity_cols,
            tail_check_cols,
            head_inv_multipliers,
        })
    }

    /// Number of symbol errors the decoder is guaranteed to correct:
    /// `⌊(k - ℓ)/2⌋`.
    pub fn error_capacity(&self) -> usize {
        (self.k - self.ell) / 2
    }

    /// Encode a message of `ℓ` symbols into a codeword of `k` symbols.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::LengthMismatch`] if the message length is wrong.
    pub fn encode(&self, message: &[F]) -> Result<Vec<F>> {
        if message.len() != self.ell {
            return Err(CodingError::LengthMismatch {
                expected: self.ell,
                got: message.len(),
            });
        }
        Ok(matvec(&self.gen_cols, message))
    }

    /// The `k − ℓ` parity syndromes of a received word: the tail symbols the
    /// word's head predicts (via the precomputed parity-check matrix) minus
    /// the tail symbols actually received.  All-zero iff `received` is a
    /// codeword.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::LengthMismatch`] for wrong input length.
    pub fn syndromes(&self, received: &[F]) -> Result<Vec<F>> {
        if received.len() != self.k {
            return Err(CodingError::LengthMismatch {
                expected: self.k,
                got: received.len(),
            });
        }
        let mut s = matvec(&self.parity_cols, &received[..self.ell]);
        for (sr, &r) in s.iter_mut().zip(received[self.ell..].iter()) {
            *sr = *sr - r;
        }
        Ok(s)
    }

    /// Decode a (possibly corrupted) word of `k` symbols back to the `ℓ`-symbol
    /// message: `Ok` exactly when some codeword lies within
    /// [`Self::error_capacity`] symbols of `received` (there is at most one),
    /// with that codeword's message.
    ///
    /// A codeword (all-zero [`Self::syndromes`]) is read off its head.
    /// Otherwise the decoder works on the dual code, a generalized
    /// Reed–Solomon code: the word's dual syndromes `S_j = Σ_i r_i v_i x_i^j`
    /// (`j < k − ℓ`, computed from the parity syndromes), Berlekamp–Massey
    /// for the shortest error locator `Λ`, a root search over the `k` points
    /// and Forney's formula for the errors on the head.  A locator of length
    /// `L ≤` [`Self::error_capacity`] with `L` distinct roots among the points
    /// makes the corrected word a codeword `L` symbols from `received`; the
    /// message is read off its head.  Anything else is refused — the
    /// bounded-distance contract that Berlekamp–Welch also meets (kept as
    /// this module's test oracle).
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::DecodingFailure`] if more errors occurred than the
    /// code can correct, and [`CodingError::LengthMismatch`] for wrong input length.
    pub fn decode(&self, received: &[F]) -> Result<Vec<F>> {
        let parity = self.syndromes(received)?;
        if parity.iter().all(|s| s.is_zero()) {
            return Ok(matvec(&self.interp_cols, &received[..self.ell]));
        }
        self.correct(received, &parity).ok_or_else(|| {
            CodingError::DecodingFailure(format!(
                "no codeword within distance {}",
                self.error_capacity()
            ))
        })
    }

    /// The message of the codeword within [`Self::error_capacity`] of
    /// `received`, a non-codeword with parity syndromes `parity`, if there
    /// is one.
    fn correct(&self, received: &[F], parity: &[F]) -> Option<Vec<F>> {
        let capacity = self.error_capacity();
        if capacity == 0 {
            return None;
        }
        // `received` minus the codeword through its head is `−parity` on the
        // tail and zero on the head, and has the same dual syndromes.
        let syndromes = matvec(&self.tail_check_cols, parity);
        let (locator, errors) = berlekamp_massey(&syndromes);
        if errors > capacity {
            return None;
        }
        // Position `i` is in error iff `Λ(1/x_i) = 0`, i.e. `x_i^L Λ(1/x_i) = 0`.
        let locator = &locator[..=errors];
        let positions: Vec<usize> = (0..self.k)
            .filter(|&i| eval_reversed(locator, self.points[i]).is_zero())
            .collect();
        if positions.len() != errors {
            return None;
        }
        // Forney: Ω = S·Λ mod z^L, and the dual-code error value at position
        // `i` is `Y_i = Ω(1/x_i) / Π_{l≠i} (1 − x_l/x_i)`, which is
        // `x_i^(L−1) Ω(1/x_i) / Π_{l≠i} (x_i − x_l)`.  With `L ≤ capacity`
        // distinct roots, `Σ_i Y_i x_i^j` agrees with the syndromes on `j < L`
        // (`Ω` is fixed by its values at the roots) and both follow the
        // recurrence `Λ` up to `k − ℓ`: so `received` minus these errors has
        // all-zero dual syndromes — it is the codeword within `L` symbols, and
        // only its head is needed.
        let omega: Vec<F> = (0..errors)
            .map(|d| (0..=d).fold(F::ZERO, |acc, l| acc + locator[l] * syndromes[d - l]))
            .collect();
        let mut head = received[..self.ell].to_vec();
        for &i in positions.iter().filter(|&&i| i < self.ell) {
            let x = self.points[i];
            let denom = positions
                .iter()
                .filter(|&&l| l != i)
                .fold(F::ONE, |acc, &l| acc * (x - self.points[l]));
            let value = eval_reversed(&omega, x).div(denom);
            head[i] = head[i] - value * self.head_inv_multipliers[i];
        }
        Some(matvec(&self.interp_cols, &head))
    }
}

/// `x^(n−1) · p(1/x)` for the `n` coefficients `p` (low-order first): Horner
/// from the constant term.
fn eval_reversed<F: Field>(p: &[F], x: F) -> F {
    p.iter().fold(F::ZERO, |acc, &c| acc * x + c)
}

/// Berlekamp–Massey: the shortest linear recurrence `Λ` (low-order first,
/// `Λ_0 = 1`, at least `L + 1` coefficients) that generates `s`, and its
/// length `L`.  For `s_j = Σ_i y_i X_i^j` with `ν ≤ s.len()/2` non-zero terms
/// at distinct `X_i`, `Λ(z) = Π_i (1 − X_i z)` and `L = ν`.
fn berlekamp_massey<F: Field>(s: &[F]) -> (Vec<F>, usize) {
    let mut lambda = vec![F::ONE];
    let mut prev = vec![F::ONE];
    let (mut len, mut shift, mut prev_discrepancy) = (0usize, 1usize, F::ONE);
    for n in 0..s.len() {
        let discrepancy = (1..=len).fold(s[n], |acc, i| acc + lambda[i] * s[n - i]);
        if discrepancy.is_zero() {
            shift += 1;
            continue;
        }
        // The recurrence grows iff 2L ≤ n; then the old one becomes Λ_prev.
        let before = (2 * len <= n).then(|| lambda.clone());
        // Λ −= (d / d_prev) · z^shift · Λ_prev
        let coef = discrepancy.div(prev_discrepancy);
        if lambda.len() < prev.len() + shift {
            lambda.resize(prev.len() + shift, F::ZERO);
        }
        for (i, &p) in prev.iter().enumerate() {
            lambda[i + shift] = lambda[i + shift] - coef * p;
        }
        if let Some(before) = before {
            len = n + 1 - len;
            lambda.resize(lambda.len().max(len + 1), F::ZERO);
            prev = before;
            prev_discrepancy = discrepancy;
            shift = 1;
        } else {
            shift += 1;
        }
    }
    (lambda, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{poly_degree, poly_divmod};
    use crate::gf256::Gf256;
    use crate::gf2_16::Gf2_16;
    use rand::{seq::SliceRandom, Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    type F = Gf2_16;
    type Rs = ReedSolomon<F>;

    /// The pre-syndrome `decode`, kept as the oracle: the codeword fast path,
    /// then Berlekamp–Welch for `e = capacity, …, 1`.
    fn decode_by_berlekamp_welch<Q: Field>(rs: &ReedSolomon<Q>, received: &[Q]) -> Result<Vec<Q>> {
        if rs.syndromes(received)?.iter().all(|s| s.is_zero()) {
            return Ok(matvec(&rs.interp_cols, &received[..rs.ell]));
        }
        let max_e = rs.error_capacity();
        for e in (1..=max_e).rev() {
            if let Some(msg) = berlekamp_welch(rs, received, e) {
                return Ok(msg);
            }
        }
        Err(CodingError::DecodingFailure(format!(
            "no codeword within distance {max_e}"
        )))
    }

    /// One round of Berlekamp–Welch assuming exactly at most `e` errors.
    fn berlekamp_welch<Q: Field>(rs: &ReedSolomon<Q>, received: &[Q], e: usize) -> Option<Vec<Q>> {
        let k = rs.k;
        let ell = rs.ell;
        // Unknowns: E(x) monic of degree e  (e unknown coefficients),
        //           Q(x) of degree <= e + ell - 1 (e + ell unknowns).
        // Equations: Q(x_i) = r_i * E(x_i) for all i in [k].
        let num_unknowns = e + (e + ell);
        if num_unknowns > k {
            return None;
        }
        // Build the linear system: for each i,
        //   sum_{j<e+ell} Q_j x_i^j - r_i * sum_{j<e} E_j x_i^j = r_i * x_i^e
        let rows = k;
        let cols = num_unknowns;
        let mut a = vec![vec![Q::ZERO; cols + 1]; rows];
        for i in 0..rows {
            let xi = rs.points[i];
            let ri = received[i];
            let mut p = Q::ONE;
            for j in 0..(e + ell) {
                a[i][j] = p;
                p = p * xi;
            }
            let mut p = Q::ONE;
            for j in 0..e {
                a[i][e + ell + j] = -(ri * p);
                p = p * xi;
            }
            // rhs: r_i * x_i^e
            a[i][cols] = ri * xi.pow(e as u64);
        }
        let solution = solve_linear_system(&mut a, cols)?;
        let q_coeffs: Vec<Q> = solution[..e + ell].to_vec();
        let mut e_coeffs: Vec<Q> = solution[e + ell..].to_vec();
        e_coeffs.push(Q::ONE); // monic of degree e
        let (quot, rem) = poly_divmod(&q_coeffs, &e_coeffs);
        if poly_degree(&rem).is_some() {
            return None;
        }
        let mut msg = quot;
        msg.resize(ell, Q::ZERO);
        if poly_degree(&msg).unwrap_or(0) >= ell {
            return None;
        }
        // Verify: the decoded codeword must be within distance e of `received`.
        let cw = rs.encode(&msg).ok()?;
        let dist = cw
            .iter()
            .zip(received.iter())
            .filter(|(a, b)| a != b)
            .count();
        if dist <= e {
            Some(msg)
        } else {
            None
        }
    }

    /// Solve the linear system given by an augmented matrix (`cols` unknowns, last
    /// column is the RHS) by Gaussian elimination; returns any solution if the
    /// system is consistent (free variables are set to zero).
    fn solve_linear_system<Q: Field>(a: &mut [Vec<Q>], cols: usize) -> Option<Vec<Q>> {
        let rows = a.len();
        let mut pivot_of_col: Vec<Option<usize>> = vec![None; cols];
        let mut row = 0usize;
        for col in 0..cols {
            // Find a pivot.
            let pivot = (row..rows).find(|&r| !a[r][col].is_zero());
            let Some(p) = pivot else { continue };
            a.swap(row, p);
            let inv = a[row][col].inv();
            for c in col..=cols {
                a[row][c] = a[row][c] * inv;
            }
            for r in 0..rows {
                if r != row && !a[r][col].is_zero() {
                    let factor = a[r][col];
                    for c in col..=cols {
                        a[r][c] = a[r][c] - factor * a[row][c];
                    }
                }
            }
            pivot_of_col[col] = Some(row);
            row += 1;
            if row == rows {
                break;
            }
        }
        // Inconsistency check: a zero row with non-zero RHS.
        for r in row..rows {
            if a[r][..cols].iter().all(|c| c.is_zero()) && !a[r][cols].is_zero() {
                return None;
            }
        }
        let mut solution = vec![Q::ZERO; cols];
        for col in 0..cols {
            if let Some(r) = pivot_of_col[col] {
                solution[col] = a[r][cols];
            }
        }
        Some(solution)
    }

    fn random_message(rng: &mut impl Rng, ell: usize) -> Vec<F> {
        (0..ell).map(|_| F::from_u64(rng.gen())).collect()
    }

    /// The syndrome decoder against the Berlekamp–Welch oracle on every code
    /// `ℓ ≤ k < 32` over `Q`: a codeword with `e` errors at random positions
    /// for every `e ∈ 0..=k` — for odd `e` over the alphabet `{0, 1, 2, 3}`
    /// (message and error values), so words land near the all-zero codeword
    /// and its low-weight neighbours — and two words of pure `{0, 1}`
    /// garbage.  Both must return the same `Ok` message or both `Err`.
    /// Returns the `(accepted, refused)` counts of corrupted words.
    fn syndrome_decoder_agrees_with_berlekamp_welch<Q: Field>(seed: u64) -> (usize, usize) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (mut accepted, mut refused) = (0, 0);
        for k in 1..32 {
            for ell in 1..=k {
                let rs = ReedSolomon::<Q>::new(ell, k).unwrap();
                let mut words = Vec::new();
                for errors in 0..=k {
                    let symbol = |rng: &mut ChaCha8Rng| match errors % 2 {
                        0 => Q::random(rng),
                        _ => Q::from_u64(rng.gen_range(0..4)),
                    };
                    let msg: Vec<Q> = (0..ell).map(|_| symbol(&mut rng)).collect();
                    let mut word = rs.encode(&msg).unwrap();
                    let mut at: Vec<usize> = (0..k).collect();
                    at.shuffle(&mut rng);
                    for &i in &at[..errors] {
                        let offset = loop {
                            let x = symbol(&mut rng);
                            if !x.is_zero() {
                                break x;
                            }
                        };
                        word[i] = word[i] + offset;
                    }
                    words.push((errors, word));
                }
                for _ in 0..2 {
                    let garbage = (0..k).map(|_| Q::from_u64(rng.gen_range(0..2))).collect();
                    words.push((k, garbage));
                }
                for (errors, word) in words {
                    let got = rs.decode(&word);
                    assert_eq!(
                        got,
                        decode_by_berlekamp_welch(&rs, &word),
                        "ell={ell} k={k} errors={errors} word={word:?}"
                    );
                    if errors > 0 {
                        *(if got.is_ok() {
                            &mut accepted
                        } else {
                            &mut refused
                        }) += 1;
                    }
                }
            }
        }
        (accepted, refused)
    }

    #[test]
    fn syndrome_decoder_agrees_with_berlekamp_welch_over_gf256() {
        let (accepted, refused) = syndrome_decoder_agrees_with_berlekamp_welch::<Gf256>(21);
        assert!(accepted > 1000 && refused > 1000, "{accepted} / {refused}");
    }

    #[test]
    fn syndrome_decoder_agrees_with_berlekamp_welch_over_gf2_16() {
        let (accepted, refused) = syndrome_decoder_agrees_with_berlekamp_welch::<Gf2_16>(22);
        assert!(accepted > 1000 && refused > 1000, "{accepted} / {refused}");
    }

    #[test]
    fn parameter_validation() {
        assert!(Rs::new(0, 5).is_err());
        assert!(Rs::new(6, 5).is_err());
        assert!(Rs::new(3, 1 << 17).is_err());
        assert!(Rs::new(3, 7).is_ok());
    }

    #[test]
    fn encode_rejects_wrong_length() {
        let rs = Rs::new(3, 7).unwrap();
        assert!(rs.encode(&[F::ONE; 2]).is_err());
        assert!(rs.decode(&[F::ONE; 6]).is_err());
    }

    #[test]
    fn clean_roundtrip() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for (ell, k) in [(1, 3), (2, 8), (5, 15), (10, 31)] {
            let rs = Rs::new(ell, k).unwrap();
            let msg = random_message(&mut rng, ell);
            let cw = rs.encode(&msg).unwrap();
            assert_eq!(rs.decode(&cw).unwrap(), msg);
        }
    }

    #[test]
    fn encode_matches_polynomial_evaluation() {
        // The precomputed generator matrix must agree with the definition:
        // codeword_i = p(x_i) for the message polynomial p.
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for (ell, k) in [(1, 1), (3, 7), (6, 20)] {
            let rs = Rs::new(ell, k).unwrap();
            let msg = random_message(&mut rng, ell);
            let cw = rs.encode(&msg).unwrap();
            for (i, &c) in cw.iter().enumerate() {
                let x = F::from_u64(i as u64 + 1);
                assert_eq!(c, crate::field::poly_eval(&msg, x), "ell={ell} k={k} i={i}");
            }
        }
    }

    #[test]
    fn syndromes_are_zero_exactly_on_codewords() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let rs = Rs::new(4, 11).unwrap();
        let msg = random_message(&mut rng, 4);
        let mut cw = rs.encode(&msg).unwrap();
        let s = rs.syndromes(&cw).unwrap();
        assert_eq!(s.len(), 11 - 4);
        assert!(s.iter().all(|x| x.is_zero()));
        // Corrupting any single position (head or tail) trips the check.
        for i in [0usize, 3, 4, 10] {
            cw[i] = cw[i] + F::ONE;
            assert!(
                rs.syndromes(&cw).unwrap().iter().any(|x| !x.is_zero()),
                "corruption at {i} went unnoticed"
            );
            cw[i] = cw[i] + F::ONE;
        }
        assert!(rs.syndromes(&cw[..10]).is_err());
    }

    #[test]
    fn corrects_up_to_capacity() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for (ell, k) in [(2, 10), (4, 16), (8, 33)] {
            let rs = Rs::new(ell, k).unwrap();
            let cap = rs.error_capacity();
            for trial in 0..10 {
                let msg = random_message(&mut rng, ell);
                let mut cw = rs.encode(&msg).unwrap();
                let mut idx: Vec<usize> = (0..k).collect();
                idx.shuffle(&mut rng);
                let errs = if trial % 2 == 0 {
                    cap
                } else {
                    rng.gen_range(0..=cap)
                };
                for &i in idx.iter().take(errs) {
                    // Flip to a guaranteed-different symbol.
                    cw[i] = cw[i] + F::from_u64(rng.gen_range(1..u64::from(u16::MAX)));
                }
                assert_eq!(rs.decode(&cw).unwrap(), msg, "ell={ell} k={k} errs={errs}");
            }
        }
    }

    #[test]
    fn too_many_errors_fails_or_misdecodes_gracefully() {
        let rs = Rs::new(4, 8).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let msg = random_message(&mut rng, 4);
        let mut cw = rs.encode(&msg).unwrap();
        // Corrupt more than capacity (capacity = 2): 5 symbols.
        for slot in cw.iter_mut().take(5) {
            *slot = F::from_u64(rng.gen());
        }
        // The decoder may fail or return some other message, but it must not panic,
        // and it must not claim the original message decoded from 5 errors is "close".
        match rs.decode(&cw) {
            Ok(decoded) => {
                let recw = rs.encode(&decoded).unwrap();
                let dist = recw.iter().zip(cw.iter()).filter(|(a, b)| a != b).count();
                assert!(dist <= rs.error_capacity());
            }
            Err(CodingError::DecodingFailure(_)) => {}
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn relative_distance_matches_theorem() {
        // delta = (k - ell + 1) / k: two distinct codewords differ in >= k - ell + 1 positions.
        let rs = Rs::new(3, 9).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..50 {
            let m1 = random_message(&mut rng, 3);
            let mut m2 = random_message(&mut rng, 3);
            if m1 == m2 {
                m2[0] = m2[0] + F::ONE;
            }
            let c1 = rs.encode(&m1).unwrap();
            let c2 = rs.encode(&m2).unwrap();
            let dist = c1.iter().zip(c2.iter()).filter(|(a, b)| a != b).count();
            assert!(dist > 9 - 3, "distance {dist} too small");
        }
    }
}
