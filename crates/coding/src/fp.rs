//! The prime field `F_p` for the Mersenne prime `p = 2^61 - 1`.
//!
//! Used for bounded-independence hashing (Lemma 1.11), transcript fingerprints
//! in the rewind-if-error compiler (Section 4), and sketch fingerprints: these
//! all need a field whose order comfortably exceeds any polynomial in the
//! network size so that random collisions happen with probability `1/poly(n)`.

use crate::field::Field;
use std::ops::{Add, Mul, Neg, Sub};

/// The Mersenne prime 2^61 - 1.
pub const P61: u64 = (1u64 << 61) - 1;

/// An element of the prime field `F_{2^61 - 1}`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Fp61(u64);

impl std::fmt::Debug for Fp61 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Fp61({})", self.0)
    }
}

impl std::fmt::Display for Fp61 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[inline]
fn reduce(x: u64) -> u64 {
    // x < 2^64; fold the top bits down twice (Mersenne reduction).
    let mut r = (x & P61) + (x >> 61);
    if r >= P61 {
        r -= P61;
    }
    r
}

#[inline]
fn mul_mod(a: u64, b: u64) -> u64 {
    let prod = (a as u128) * (b as u128);
    let lo = (prod & P61 as u128) as u64;
    let hi = (prod >> 61) as u64;
    reduce(lo + reduce(hi))
}

impl Fp61 {
    /// Construct an element, reducing modulo `p`.
    pub fn new(x: u64) -> Self {
        Fp61(x % P61)
    }

    /// Raw canonical value in `[0, p)`.
    pub fn value(self) -> u64 {
        self.0
    }

    /// One Horner step `acc·x + c` on a *lazily reduced* accumulator: a raw
    /// word congruent to the field element, below `2^62` but not canonical.
    ///
    /// With `acc < 2^62` and canonical `x, c < 2^61` the product is below
    /// `2^123`, so its low 61 bits `lo < 2^61` and the rest `hi < 2^62` sum
    /// with `c` to `s < 2^63`; one Mersenne fold `(s & p) + (s >> 61)` is
    /// then below `2^61 + 4`, back inside the invariant.  That is one fold
    /// per step where `acc * x + c` on [`Fp61`] canonicalises four times.
    /// Start a chain from `0` and finish it with [`Fp61::from_lazy`].
    #[inline(always)]
    pub(crate) fn mul_add_lazy(acc: u64, x: Fp61, c: Fp61) -> u64 {
        debug_assert!(acc < 1 << 62);
        let prod = (acc as u128) * (x.0 as u128);
        let s = (prod as u64 & P61) + ((prod >> 61) as u64) + c.0;
        (s & P61) + (s >> 61)
    }

    /// Canonicalise the accumulator of a [`Fp61::mul_add_lazy`] chain.
    #[inline]
    pub(crate) fn from_lazy(acc: u64) -> Self {
        Fp61(reduce(acc))
    }
}

impl Add for Fp61 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        let mut s = self.0 + rhs.0;
        if s >= P61 {
            s -= P61;
        }
        Fp61(s)
    }
}

impl Sub for Fp61 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        let s = if self.0 >= rhs.0 {
            self.0 - rhs.0
        } else {
            self.0 + P61 - rhs.0
        };
        Fp61(s)
    }
}

impl Neg for Fp61 {
    type Output = Self;
    fn neg(self) -> Self {
        if self.0 == 0 {
            self
        } else {
            Fp61(P61 - self.0)
        }
    }
}

impl Mul for Fp61 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        Fp61(mul_mod(self.0, rhs.0))
    }
}

impl Field for Fp61 {
    const ZERO: Self = Fp61(0);
    const ONE: Self = Fp61(1);

    fn order() -> u64 {
        P61
    }

    fn from_u64(x: u64) -> Self {
        Fp61(x % P61)
    }

    fn to_u64(self) -> u64 {
        self.0
    }

    fn inv(self) -> Self {
        assert!(self.0 != 0, "inverse of zero in Fp61");
        // Fermat: x^(p-2).
        self.pow(P61 - 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn add_sub_roundtrip() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..1000 {
            let a = Fp61::new(rng.gen());
            let b = Fp61::new(rng.gen());
            assert_eq!(a + b - b, a);
            assert_eq!(a - b + b, a);
        }
    }

    #[test]
    fn mul_inverse() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..200 {
            let a = Fp61::new(rng.gen_range(1..P61));
            assert_eq!(a * a.inv(), Fp61::ONE);
        }
    }

    #[test]
    fn reduction_edge_cases() {
        assert_eq!(Fp61::new(P61), Fp61::ZERO);
        assert_eq!(Fp61::new(P61 + 5), Fp61::new(5));
        assert_eq!(Fp61::new(P61 - 1) + Fp61::ONE, Fp61::ZERO);
        assert_eq!(-Fp61::ZERO, Fp61::ZERO);
        assert_eq!(-(Fp61::ONE), Fp61::new(P61 - 1));
    }

    #[test]
    fn mul_matches_u128_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..1000 {
            let a = rng.gen_range(0..P61);
            let b = rng.gen_range(0..P61);
            let expect = ((a as u128 * b as u128) % P61 as u128) as u64;
            assert_eq!((Fp61::new(a) * Fp61::new(b)).value(), expect);
        }
    }

    #[test]
    fn distributive_law_random() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..500 {
            let a = Fp61::new(rng.gen());
            let b = Fp61::new(rng.gen());
            let c = Fp61::new(rng.gen());
            assert_eq!(a * (b + c), a * b + a * c);
        }
    }
}
