//! The binary field GF(2^8) (Rijndael polynomial).
//!
//! A small field used when codeword symbols must fit in a byte — e.g. when the
//! safe-broadcast procedure shards a message into many single-byte shares — and
//! in tests where exhaustively sweeping the field is convenient.

use crate::field::Field;
use std::ops::{Add, Mul, Neg, Sub};
use std::sync::OnceLock;

/// The AES field polynomial x^8 + x^4 + x^3 + x + 1.
const PRIM_POLY: u16 = 0x11B;
const GROUP_ORDER: usize = 255;

struct Tables {
    log: [u8; 256],
    exp: [u8; 512],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut log = [0u8; 256];
        let mut exp = [0u8; 512];
        let mut x: u16 = 1;
        for i in 0..GROUP_ORDER {
            exp[i] = x as u8;
            log[x as usize] = i as u8;
            // Multiply by the generator 0x03 = x + 1 (a primitive element of the AES field).
            x = (x << 1) ^ x;
            if x & 0x100 != 0 {
                x ^= PRIM_POLY;
            }
            x &= 0xFF;
        }
        for i in GROUP_ORDER..512 {
            exp[i] = exp[i - GROUP_ORDER];
        }
        Tables { log, exp }
    })
}

/// An element of GF(2^8).
///
/// `repr(transparent)` over the raw byte, so the SSSE3 kernel in
/// [`crate::kernels`] loads sixteen elements as one vector.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
#[repr(transparent)]
pub struct Gf256(pub u8);

impl std::fmt::Debug for Gf256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gf256({:#04x})", self.0)
    }
}

impl std::fmt::Display for Gf256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[allow(clippy::suspicious_arithmetic_impl)]
impl Add for Gf256 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Gf256(self.0 ^ rhs.0)
    }
}

#[allow(clippy::suspicious_arithmetic_impl)]
impl Sub for Gf256 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Gf256(self.0 ^ rhs.0)
    }
}

impl Neg for Gf256 {
    type Output = Self;
    fn neg(self) -> Self {
        self
    }
}

impl Mul for Gf256 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf256(0);
        }
        let t = tables();
        let l = t.log[self.0 as usize] as usize + t.log[rhs.0 as usize] as usize;
        Gf256(t.exp[l])
    }
}

impl Field for Gf256 {
    const ZERO: Self = Gf256(0);
    const ONE: Self = Gf256(1);

    fn order() -> u64 {
        256
    }

    fn from_u64(x: u64) -> Self {
        Gf256((x & 0xFF) as u8)
    }

    fn to_u64(self) -> u64 {
        self.0 as u64
    }

    fn inv(self) -> Self {
        assert!(self.0 != 0, "inverse of zero in GF(2^8)");
        let t = tables();
        let l = t.log[self.0 as usize] as usize;
        Gf256(t.exp[GROUP_ORDER - l])
    }

    fn addmul_slice(acc: &mut [Self], src: &[Self], c: Self) {
        crate::kernels::gf256_addmul(acc, src, c);
    }
}

impl From<u8> for Gf256 {
    fn from(x: u8) -> Self {
        Gf256(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_nonzero_element_has_inverse() {
        for x in 1..=255u8 {
            assert_eq!(Gf256(x) * Gf256(x).inv(), Gf256::ONE);
        }
    }

    #[test]
    fn exhaustive_distributivity() {
        // Small enough to sweep a meaningful sample exhaustively.
        for a in (0..=255u8).step_by(17) {
            for b in (0..=255u8).step_by(13) {
                for c in (0..=255u8).step_by(11) {
                    let (a, b, c) = (Gf256(a), Gf256(b), Gf256(c));
                    assert_eq!(a * (b + c), a * b + a * c);
                }
            }
        }
    }

    #[test]
    fn known_aes_product() {
        // 0x57 * 0x83 = 0xC1 in the AES field (FIPS-197 example).
        assert_eq!(Gf256(0x57) * Gf256(0x83), Gf256(0xC1));
    }

    #[test]
    fn characteristic_two() {
        for x in 0..=255u8 {
            assert_eq!(Gf256(x) + Gf256(x), Gf256::ZERO);
        }
    }
}
