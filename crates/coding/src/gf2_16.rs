//! The binary field GF(2^16).
//!
//! This is the workhorse field of the crate: the paper's constructions operate
//! over a field `F_q` with `q = 2^{O(log n)}`, and 2^16 comfortably exceeds every
//! network size used in simulation while keeping elements word-sized.
//!
//! Multiplication uses log/antilog tables built over the primitive polynomial
//! `x^16 + x^12 + x^3 + x + 1` (0x1100B), generated lazily on first use.

use crate::field::Field;
use std::ops::{Add, Mul, Neg, Sub};
use std::sync::OnceLock;

/// Primitive polynomial for GF(2^16): x^16 + x^12 + x^3 + x + 1.
/// Crate-visible so [`crate::kernels::NibbleMul`] reduces with the same modulus.
pub(crate) const PRIM_POLY: u32 = 0x1100B;
/// Multiplicative group order.
const GROUP_ORDER: usize = (1 << 16) - 1;

struct Tables {
    log: Vec<u16>,
    exp: Vec<u16>,
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut log = vec![0u16; 1 << 16];
        let mut exp = vec![0u16; 2 * GROUP_ORDER];
        let mut x: u32 = 1;
        for i in 0..GROUP_ORDER {
            exp[i] = x as u16;
            log[x as usize] = i as u16;
            x <<= 1;
            if x & (1 << 16) != 0 {
                x ^= PRIM_POLY;
            }
        }
        for i in GROUP_ORDER..2 * GROUP_ORDER {
            exp[i] = exp[i - GROUP_ORDER];
        }
        Tables { log, exp }
    })
}

/// An element of GF(2^16).
///
/// `repr(transparent)` is load-bearing: the SIMD kernels in
/// [`crate::kernels`] read and write `[Gf2_16]` slices as plain `u16`s.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
#[repr(transparent)]
pub struct Gf2_16(pub u16);

impl std::fmt::Debug for Gf2_16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gf2_16({:#06x})", self.0)
    }
}

impl std::fmt::Display for Gf2_16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[allow(clippy::suspicious_arithmetic_impl)]
impl Add for Gf2_16 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Gf2_16(self.0 ^ rhs.0)
    }
}

#[allow(clippy::suspicious_arithmetic_impl)]
impl Sub for Gf2_16 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        // Characteristic 2: subtraction equals addition.
        Gf2_16(self.0 ^ rhs.0)
    }
}

impl Neg for Gf2_16 {
    type Output = Self;
    fn neg(self) -> Self {
        self
    }
}

impl Mul for Gf2_16 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf2_16(0);
        }
        let t = tables();
        let l = t.log[self.0 as usize] as usize + t.log[rhs.0 as usize] as usize;
        Gf2_16(t.exp[l])
    }
}

impl Field for Gf2_16 {
    const ZERO: Self = Gf2_16(0);
    const ONE: Self = Gf2_16(1);

    fn order() -> u64 {
        1 << 16
    }

    fn from_u64(x: u64) -> Self {
        Gf2_16((x & 0xFFFF) as u16)
    }

    fn to_u64(self) -> u64 {
        self.0 as u64
    }

    fn inv(self) -> Self {
        assert!(self.0 != 0, "inverse of zero in GF(2^16)");
        let t = tables();
        let l = t.log[self.0 as usize] as usize;
        Gf2_16(t.exp[GROUP_ORDER - l])
    }

    fn addmul_slice(acc: &mut [Self], src: &[Self], c: Self) {
        assert_eq!(acc.len(), src.len(), "addmul_slice length mismatch");
        if c.0 == 0 {
            return;
        }
        if acc.len() >= 16 {
            // Long slices amortize a 128-byte split-table multiplier for the
            // constant: no log/antilog traffic, sixteen elements per step
            // where a SIMD backend exists.
            crate::kernels::gf2_16_addmul(acc, src, c);
        } else {
            // Short slices: log/antilog walk with the constant's log hoisted.
            let t = tables();
            let lc = t.log[c.0 as usize] as usize;
            for (a, &s) in acc.iter_mut().zip(src.iter()) {
                if s.0 != 0 {
                    a.0 ^= t.exp[lc + t.log[s.0 as usize] as usize];
                }
            }
        }
    }

    fn addmul_rows(acc: &mut [Self], sources: &[(&[Self], &[Self])]) {
        // One split-table multiplier per row and source; the multi-row
        // kernel splits each source once for all rows.
        let muls: Vec<Vec<_>> = sources
            .iter()
            .map(|&(_, consts)| {
                consts
                    .iter()
                    .map(|&c| crate::kernels::NibbleMul::new(c))
                    .collect()
            })
            .collect();
        let sources: Vec<crate::kernels::RowsSource<'_>> = sources
            .iter()
            .zip(&muls)
            .map(|(&(src, _), muls)| (src, &muls[..]))
            .collect();
        crate::kernels::gf2_16_addmul_rows(acc, &sources);
    }
}

impl From<u16> for Gf2_16 {
    fn from(x: u16) -> Self {
        Gf2_16(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn additive_identity_and_inverse() {
        let a = Gf2_16(0x1234);
        assert_eq!(a + Gf2_16::ZERO, a);
        assert_eq!(a + a, Gf2_16::ZERO);
        assert_eq!(-a, a);
    }

    #[test]
    fn multiplicative_identity() {
        let a = Gf2_16(0xBEEF);
        assert_eq!(a * Gf2_16::ONE, a);
        assert_eq!(Gf2_16::ONE * a, a);
        assert_eq!(a * Gf2_16::ZERO, Gf2_16::ZERO);
    }

    #[test]
    fn inverse_correct_for_sample() {
        for x in [1u16, 2, 3, 7, 255, 256, 0xFFFF, 0x8000, 12345] {
            let a = Gf2_16(x);
            assert_eq!(a * a.inv(), Gf2_16::ONE, "x = {x}");
        }
    }

    #[test]
    #[should_panic]
    fn zero_has_no_inverse() {
        let _ = Gf2_16::ZERO.inv();
    }

    #[test]
    fn mul_is_commutative_and_associative_samples() {
        let vals = [1u16, 2, 3, 5, 9, 100, 4096, 0xABCD, 0xFFFF];
        for &a in &vals {
            for &b in &vals {
                let (a, b) = (Gf2_16(a), Gf2_16(b));
                assert_eq!(a * b, b * a);
                for &c in &vals {
                    let c = Gf2_16(c);
                    assert_eq!((a * b) * c, a * (b * c));
                    // Distributivity.
                    assert_eq!(a * (b + c), a * b + a * c);
                }
            }
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let a = Gf2_16(0x1357);
        let mut acc = Gf2_16::ONE;
        for e in 0..20u64 {
            assert_eq!(a.pow(e), acc);
            acc = acc * a;
        }
    }

    #[test]
    fn fermat_little_theorem() {
        // x^(q-1) = 1 for nonzero x.
        for x in [1u16, 17, 300, 0xFFFE] {
            assert_eq!(Gf2_16(x).pow((1 << 16) - 1), Gf2_16::ONE);
        }
    }

    #[test]
    fn from_u64_truncates() {
        assert_eq!(Gf2_16::from_u64(0x1_0005), Gf2_16(5));
    }
}
