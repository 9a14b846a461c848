//! Coding-theoretic building blocks used by the mobile-adversary compilers.
//!
//! This crate collects the algebraic tools from the "Useful Tools" and
//! "Preliminaries" sections of Fischer & Parter (PODC 2023):
//!
//! * finite fields: [`gf256::Gf256`], [`gf2_16::Gf2_16`] (characteristic-2 fields used for
//!   Reed–Solomon codes and Vandermonde extraction) and [`fp::Fp61`] (a Mersenne prime
//!   field used for fingerprints and bounded-independence hashing),
//! * [`vandermonde`]: Vandermonde matrices and the Chor et al. bit-extraction
//!   procedure (Theorem 2.1 of the paper) that turns partially-observed random
//!   exchanges into perfectly hidden one-time-pad keys,
//! * [`reed_solomon`]: Reed–Solomon encoding with syndrome (Berlekamp–Massey)
//!   error decoding (Theorem 1.8), used by the `ECCSafeBroadcast` procedure,
//! * [`hashing`]: `c`-wise independent hash families (Lemma 1.11), the tagger
//!   of the congestion-sensitive compiler,
//! * [`kernels`]: bit-sliced/SWAR and SIMD multiply–accumulate kernels behind
//!   the Reed–Solomon encode/syndrome hot loops and the key schedule's bit
//!   extraction, the GF(2^16) split-table constant multiplier, and the
//!   vector Fp61 Horner chains behind [`KWiseHash::hash_many`].
//!
//! # Example
//!
//! ```
//! use coding::field::Field;
//! use coding::gf2_16::Gf2_16;
//! use coding::reed_solomon::ReedSolomon;
//!
//! // Encode a 3-symbol message into a length-7 codeword and recover it after 2 errors.
//! let rs = ReedSolomon::<Gf2_16>::new(3, 7).unwrap();
//! let msg = vec![Gf2_16::from_u64(5), Gf2_16::from_u64(17), Gf2_16::from_u64(255)];
//! let mut cw = rs.encode(&msg).unwrap();
//! cw[0] = cw[0] + Gf2_16::ONE;
//! cw[4] = Gf2_16::from_u64(9999);
//! let decoded = rs.decode(&cw).unwrap();
//! assert_eq!(decoded, msg);
//! ```

// Index-based loops mirror the matrix/polynomial notation of the paper.
#![allow(clippy::needless_range_loop)]

pub mod field;
pub mod fp;
pub mod gf256;
pub mod gf2_16;
pub mod hashing;
pub mod kernels;
pub mod reed_solomon;
pub mod vandermonde;

pub use field::Field;
pub use fp::Fp61;
pub use gf256::Gf256;
pub use gf2_16::Gf2_16;
pub use hashing::KWiseHash;
pub use kernels::NibbleMul;
pub use reed_solomon::ReedSolomon;
pub use vandermonde::{BitExtractor, Vandermonde};

/// Errors produced by the coding primitives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodingError {
    /// The requested code parameters are invalid (e.g. message longer than block,
    /// or block length exceeding the field size).
    InvalidParameters(String),
    /// Decoding failed: the received word is too far from any codeword.
    DecodingFailure(String),
    /// An input had the wrong length.
    LengthMismatch { expected: usize, got: usize },
}

impl std::fmt::Display for CodingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodingError::InvalidParameters(s) => write!(f, "invalid code parameters: {s}"),
            CodingError::DecodingFailure(s) => write!(f, "decoding failure: {s}"),
            CodingError::LengthMismatch { expected, got } => {
                write!(f, "length mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for CodingError {}

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, CodingError>;
