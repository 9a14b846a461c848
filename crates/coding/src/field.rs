//! Abstract finite-field interface shared by the coding primitives.
//!
//! All algebraic tools in this crate (Reed–Solomon codes, Vandermonde bit
//! extraction, polynomial hashing) are generic over a [`Field`].  The trait is
//! intentionally small: it captures exactly the operations the paper's
//! constructions need — field arithmetic, inversion, and a canonical mapping
//! to/from machine integers so that protocol messages can carry field elements.

use std::fmt::Debug;
use std::ops::{Add, Mul, Neg, Sub};

/// A finite field element.
///
/// Implementors must provide exact field arithmetic.  Elements are `Copy` and
/// cheap to move around; protocols store them inside message payloads via
/// [`Field::to_u64`] / [`Field::from_u64`].
pub trait Field:
    Copy
    + Clone
    + Debug
    + PartialEq
    + Eq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + Send
    + Sync
    + 'static
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;

    /// Number of elements in the field (`q`).  Returns `u64::MAX` if the order
    /// does not fit in a `u64` (never the case for the fields in this crate).
    fn order() -> u64;

    /// Canonical conversion from an integer; reduces modulo the field order /
    /// truncates to the field's bit width.
    fn from_u64(x: u64) -> Self;

    /// Canonical integer representation of the element, in `[0, order)`.
    fn to_u64(self) -> u64;

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics when called on the zero element.
    fn inv(self) -> Self;

    /// `self / rhs`.
    ///
    /// # Panics
    ///
    /// Panics when `rhs` is zero.
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }

    /// Exponentiation by squaring.
    fn pow(self, mut e: u64) -> Self {
        let mut base = self;
        let mut acc = Self::ONE;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc * base;
            }
            base = base * base;
            e >>= 1;
        }
        acc
    }

    /// `true` if this is the additive identity.
    fn is_zero(self) -> bool {
        self == Self::ZERO
    }

    /// Fused multiply–accumulate over slices: `acc[i] += c · src[i]`.
    ///
    /// This is the primitive behind every matrix–vector product in the crate
    /// (Reed–Solomon encode, syndrome checks, interpolation).  The default is
    /// the scalar loop; fields with vectorized kernels override it — see
    /// [`crate::kernels`].  Every implementation computes identical field
    /// arithmetic, so overriding never changes results.
    ///
    /// # Panics
    ///
    /// Panics when the slices have different lengths.
    fn addmul_slice(acc: &mut [Self], src: &[Self], c: Self) {
        assert_eq!(acc.len(), src.len(), "addmul_slice length mismatch");
        if c.is_zero() {
            return;
        }
        for (a, &s) in acc.iter_mut().zip(src.iter()) {
            *a = *a + c * s;
        }
    }

    /// Multi-row fused multiply–accumulate over one or more sources: row
    /// `j` of the block `acc` (row-major, rows as wide as the sources) gains
    /// `Σ_s consts_s[j] · src_s` for the sources `(src_s, consts_s)`.
    ///
    /// This is the streamed Vandermonde extraction's step
    /// ([`crate::vandermonde::Vandermonde::absorb_rows`]).  The default is one
    /// [`Field::addmul_slice`] per row and source; a field whose kernel can
    /// share work across rows and sources overrides it (GF(2^16) splits each
    /// source once for all rows and folds two sources per pass over `acc` —
    /// see [`crate::kernels`]).  Overriding never changes results.
    ///
    /// # Panics
    ///
    /// Panics when a source is wider or narrower than the first, or
    /// `acc.len() != consts.len() · width` for a source.
    fn addmul_rows(acc: &mut [Self], sources: &[(&[Self], &[Self])]) {
        let Some(&(first, _)) = sources.first() else {
            return;
        };
        for &(src, consts) in sources {
            assert_eq!(src.len(), first.len(), "addmul_rows source width mismatch");
            assert_eq!(
                consts.len().checked_mul(src.len()),
                Some(acc.len()),
                "addmul_rows block size mismatch"
            );
            if src.is_empty() {
                continue;
            }
            for (row, &c) in acc.chunks_exact_mut(src.len()).zip(consts) {
                Self::addmul_slice(row, src, c);
            }
        }
    }

    /// Sample a uniformly random field element.
    fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        // Rejection-free for power-of-two orders; for prime orders the modulo
        // bias is at most 2^-63 and irrelevant for simulation purposes.
        Self::from_u64(rng.gen::<u64>())
    }
}

/// Evaluate the polynomial with coefficients `coeffs` (low-order first) at `x`
/// using Horner's rule.
pub fn poly_eval<F: Field>(coeffs: &[F], x: F) -> F {
    let mut acc = F::ZERO;
    for &c in coeffs.iter().rev() {
        acc = acc * x + c;
    }
    acc
}

/// Lagrange interpolation: return the coefficients (low-order first) of the
/// unique polynomial of degree `< points.len()` passing through all `points`.
///
/// # Panics
///
/// Panics if two points share an x-coordinate.
pub fn lagrange_interpolate<F: Field>(points: &[(F, F)]) -> Vec<F> {
    let n = points.len();
    let mut coeffs = vec![F::ZERO; n];
    for (i, &(xi, yi)) in points.iter().enumerate() {
        // Build the i-th Lagrange basis polynomial incrementally.
        let mut basis = vec![F::ZERO; n];
        basis[0] = F::ONE;
        let mut deg = 0usize;
        let mut denom = F::ONE;
        for (j, &(xj, _)) in points.iter().enumerate() {
            if i == j {
                continue;
            }
            assert!(xi != xj, "lagrange_interpolate: duplicate x-coordinate");
            // basis *= (x - xj)
            let mut next = vec![F::ZERO; n];
            for d in 0..=deg {
                next[d + 1] = next[d + 1] + basis[d];
                next[d] = next[d] - xj * basis[d];
            }
            basis = next;
            deg += 1;
            denom = denom * (xi - xj);
        }
        let scale = yi.div(denom);
        for d in 0..n {
            coeffs[d] = coeffs[d] + basis[d] * scale;
        }
    }
    coeffs
}

/// Multiply two polynomials given by their coefficient vectors (low-order first).
pub fn poly_mul<F: Field>(a: &[F], b: &[F]) -> Vec<F> {
    if a.is_empty() || b.is_empty() {
        return vec![];
    }
    let mut out = vec![F::ZERO; a.len() + b.len() - 1];
    for (i, &ai) in a.iter().enumerate() {
        if ai.is_zero() {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            out[i + j] = out[i + j] + ai * bj;
        }
    }
    out
}

/// Divide polynomial `num` by `den`, returning `(quotient, remainder)`
/// with coefficient vectors low-order first.
///
/// # Panics
///
/// Panics if `den` is the zero polynomial.
pub fn poly_divmod<F: Field>(num: &[F], den: &[F]) -> (Vec<F>, Vec<F>) {
    let den_deg = den
        .iter()
        .rposition(|c| !c.is_zero())
        .expect("poly_divmod: division by zero polynomial");
    let mut rem: Vec<F> = num.to_vec();
    let num_deg = rem.iter().rposition(|c| !c.is_zero()).unwrap_or(0);
    if num_deg < den_deg || rem.iter().all(|c| c.is_zero()) {
        return (vec![F::ZERO], rem);
    }
    let mut quot = vec![F::ZERO; num_deg - den_deg + 1];
    let lead_inv = den[den_deg].inv();
    for d in (den_deg..=num_deg).rev() {
        let coef = rem[d] * lead_inv;
        quot[d - den_deg] = coef;
        if coef.is_zero() {
            continue;
        }
        for j in 0..=den_deg {
            rem[d - den_deg + j] = rem[d - den_deg + j] - coef * den[j];
        }
    }
    (quot, rem)
}

/// Degree of a polynomial (position of the highest non-zero coefficient), or
/// `None` for the zero polynomial.
pub fn poly_degree<F: Field>(p: &[F]) -> Option<usize> {
    p.iter().rposition(|c| !c.is_zero())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf2_16::Gf2_16;

    fn f(x: u64) -> Gf2_16 {
        Gf2_16::from_u64(x)
    }

    #[test]
    fn poly_eval_constant() {
        assert_eq!(poly_eval(&[f(7)], f(123)), f(7));
    }

    #[test]
    fn poly_eval_linear() {
        // p(x) = 3 + 2x over GF(2^16): p(5) = 3 + 2*5 (carryless) = 3 ^ 10 = 9.
        let p = [f(3), f(2)];
        assert_eq!(poly_eval(&p, f(5)), f(3) + f(2) * f(5));
    }

    #[test]
    fn interpolation_roundtrip() {
        let coeffs = vec![f(1), f(2), f(3), f(4)];
        let points: Vec<_> = (1u64..=4)
            .map(|x| (f(x), poly_eval(&coeffs, f(x))))
            .collect();
        let rec = lagrange_interpolate(&points);
        for x in 0u64..20 {
            assert_eq!(poly_eval(&rec, f(x)), poly_eval(&coeffs, f(x)));
        }
    }

    #[test]
    fn divmod_roundtrip() {
        let a = vec![f(3), f(0), f(7), f(1), f(9)];
        let b = vec![f(2), f(5), f(1)];
        let (q, r) = poly_divmod(&a, &b);
        let mut recomposed = poly_mul(&q, &b);
        recomposed.resize(a.len().max(r.len()), Gf2_16::ZERO);
        for (i, c) in r.iter().enumerate() {
            recomposed[i] = recomposed[i] + *c;
        }
        recomposed.truncate(a.len());
        assert_eq!(recomposed, a);
        assert!(poly_degree(&r).unwrap_or(0) < poly_degree(&b).unwrap());
    }

    #[test]
    #[should_panic]
    fn divmod_by_zero_panics() {
        let a = vec![f(1), f(2)];
        let z = vec![Gf2_16::ZERO];
        let _ = poly_divmod(&a, &z);
    }
}
