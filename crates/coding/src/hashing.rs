//! Bounded-independence hash families and transcript fingerprints.
//!
//! Two constructions from the paper's toolbox:
//!
//! * [`KWiseHash`] — a `c`-wise independent family `H = {h : [N] → [L]}`
//!   (Lemma 1.11), realised as random polynomials of degree `c - 1` over the
//!   prime field `F_{2^61-1}`.  The congestion-sensitive compiler of
//!   Theorem 1.3 draws one such function from a shared random seed and uses it
//!   to make non-empty and empty payload messages indistinguishable.
//! * [`TranscriptHash`] — a pairwise-independent polynomial fingerprint of a
//!   whole message transcript, used by the rewind-if-error compiler
//!   (Section 4.1) so neighbours can cheaply compare their view of the joint
//!   transcript and detect divergence w.h.p.

use crate::field::Field;
use crate::fp::Fp61;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A hash function drawn from a `c`-wise independent family, mapping `u64`
/// inputs to values in `[0, range)`.
///
/// Internally `h(x) = (Σ_i a_i x^i mod p) mod range` with uniformly random
/// coefficients `a_0 … a_{c-1}` over the Mersenne prime `p = 2^61 - 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KWiseHash {
    coeffs: Vec<Fp61>,
    range: u64,
}

impl KWiseHash {
    /// Draw a function from the `c`-wise independent family with outputs in
    /// `[0, range)`, using the given seed as the family's shared randomness.
    ///
    /// # Panics
    ///
    /// Panics if `c == 0` or `range == 0`.
    pub fn from_seed(seed: u64, c: usize, range: u64) -> Self {
        assert!(c > 0, "independence parameter must be positive");
        assert!(range > 0, "range must be positive");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Self::from_rng(&mut rng, c, range)
    }

    /// Draw a function using an externally supplied RNG (e.g. a node's private
    /// randomness or a securely shared seed).
    ///
    /// # Panics
    ///
    /// Panics if `c == 0` or `range == 0`.
    pub fn from_rng<R: Rng + ?Sized>(rng: &mut R, c: usize, range: u64) -> Self {
        assert!(c > 0, "independence parameter must be positive");
        assert!(range > 0, "range must be positive");
        let coeffs = (0..c).map(|_| Fp61::random(rng)).collect();
        KWiseHash { coeffs, range }
    }

    /// The independence parameter `c` of the family this function was drawn from.
    pub fn independence(&self) -> usize {
        self.coeffs.len()
    }

    /// The output range `L`.
    pub fn range(&self) -> u64 {
        self.range
    }

    /// Evaluate the hash on `x`: Horner's rule on a lazily reduced
    /// accumulator (one Mersenne fold per step), canonical only at the end.
    pub fn hash(&self, x: u64) -> u64 {
        let x = Fp61::from_u64(x);
        let mut acc = 0u64;
        for &c in self.coeffs.iter().rev() {
            acc = Fp61::mul_add_lazy(acc, x, c);
        }
        Fp61::from_lazy(acc).to_u64() % self.range
    }

    /// Evaluate the hash on every input in place: `xs[i]` becomes
    /// `hash(xs[i])`, bit for bit.
    ///
    /// One evaluation is a chain of `c` dependent multiply–adds, so a single
    /// [`KWiseHash::hash`] call is bound by multiplier latency; this walks
    /// four inputs' lazily reduced Horner chains in lockstep so the
    /// multiplies overlap.
    /// Callers that tag a whole round of messages (Theorem 1.3) batch them
    /// through here.
    pub fn hash_many(&self, xs: &mut [u64]) {
        let mut quads = xs.chunks_exact_mut(4);
        for quad in &mut quads {
            let x: [Fp61; 4] = std::array::from_fn(|lane| Fp61::from_u64(quad[lane]));
            let mut acc = [0u64; 4];
            for &c in self.coeffs.iter().rev() {
                for lane in 0..4 {
                    acc[lane] = Fp61::mul_add_lazy(acc[lane], x[lane], c);
                }
            }
            for lane in 0..4 {
                quad[lane] = Fp61::from_lazy(acc[lane]).to_u64() % self.range;
            }
        }
        for x in quads.into_remainder() {
            *x = self.hash(*x);
        }
    }

    /// Evaluate the hash on an arbitrary byte string by first collapsing it with
    /// a fixed injective-enough packing (length-prefixed 8-byte chunks combined
    /// with a Horner pass using a fixed base point).
    pub fn hash_bytes(&self, bytes: &[u8]) -> u64 {
        self.hash(pack_bytes(bytes))
    }
}

/// Collapse a byte string into a single `u64` deterministically.  This is a
/// *fixed* (not keyed) compression: collision resistance comes from the keyed
/// polynomial applied afterwards on word sequences — see [`TranscriptHash`] for
/// the keyed variant over long inputs.
fn pack_bytes(bytes: &[u8]) -> u64 {
    // Simple FNV-1a 64-bit; adequate as a canonical packing for test payloads.
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h ^ (bytes.len() as u64).wrapping_mul(0x9E3779B97F4A7C15)
}

/// A keyed polynomial fingerprint over a sequence of `u64` words.
///
/// For a random evaluation point `r` and random offset `s`, the fingerprint of
/// `w_1 … w_m` is `s + Σ_i w_i · r^i` over `F_{2^61-1}`.  Two distinct
/// sequences of length ≤ m collide with probability at most `m / (2^61 - 1)`
/// over the choice of `r` — the property Lemma 4.9 needs ("`h_R(π) ≠ h_R(π̃)`
/// w.h.p. when `π ≠ π̃`").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranscriptHash {
    point: Fp61,
    offset: Fp61,
}

impl TranscriptHash {
    /// Derive a fingerprint key from a compact seed (as exchanged in the
    /// round-initialisation phase of the rewind compiler).
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        TranscriptHash {
            point: Fp61::random(&mut rng),
            offset: Fp61::random(&mut rng),
        }
    }

    /// Draw a fresh random fingerprint key.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        TranscriptHash {
            point: Fp61::random(rng),
            offset: Fp61::random(rng),
        }
    }

    /// Fingerprint a word sequence.
    pub fn fingerprint(&self, words: &[u64]) -> u64 {
        let mut acc = self.offset;
        let mut power = self.point;
        for &w in words {
            acc = acc + Fp61::from_u64(w) * power;
            power = power * self.point;
        }
        // Mix in the length so prefixes do not trivially collide when the
        // remaining words are zero.
        acc = acc + Fp61::from_u64(words.len() as u64) * power;
        acc.to_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::P61;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The textbook evaluation the lazy chain replaced: Horner's rule on
    /// canonical [`Fp61`] elements, every step fully reduced.
    fn hash_oracle(h: &KWiseHash, x: u64) -> u64 {
        let x = Fp61::from_u64(x);
        let mut acc = Fp61::ZERO;
        for &c in h.coeffs.iter().rev() {
            acc = acc * x + c;
        }
        acc.to_u64() % h.range
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // Coefficients mix random field elements with the extremes `0` and
        // `p - 1`; inputs mix random words with the ones around the modulus;
        // every length `0..=9` runs so both the quad body and the remainder
        // do.
        #[test]
        fn lazy_horner_chain_matches_the_canonical_oracle(
            coeffs in prop::collection::vec((any::<u64>(), 0..4u8), 1..=1024usize),
            random in prop::collection::vec(any::<u64>(), 9),
            edge_mask in any::<u16>(),
        ) {
            let coeffs: Vec<Fp61> = coeffs
                .iter()
                .map(|&(word, kind)| match kind {
                    0 => Fp61::ZERO,
                    1 => Fp61::new(P61 - 1),
                    _ => Fp61::from_u64(word),
                })
                .collect();
            const EDGES: [u64; 6] = [0, 1, P61 - 1, P61, P61 + 1, u64::MAX];
            let inputs: Vec<u64> = random
                .iter()
                .enumerate()
                .map(|(i, &word)| match (edge_mask >> i) & 1 {
                    1 => EDGES[word as usize % EDGES.len()],
                    _ => word,
                })
                .collect();
            for range in [1, 2, 1000, u64::MAX] {
                let h = KWiseHash { coeffs: coeffs.clone(), range };
                let expect: Vec<u64> = inputs.iter().map(|&x| hash_oracle(&h, x)).collect();
                for (&x, &want) in inputs.iter().zip(&expect) {
                    prop_assert_eq!(h.hash(x), want, "hash({}) c={} range={}", x, coeffs.len(), range);
                }
                for len in 0..=inputs.len() {
                    let mut out = inputs[..len].to_vec();
                    h.hash_many(&mut out);
                    prop_assert_eq!(&out[..], &expect[..len], "hash_many len={} range={}", len, range);
                }
            }
        }
    }

    #[test]
    fn lazy_horner_chain_at_the_extremes_of_every_operand() {
        // Every coefficient `p - 1` or `0`, every edge input, long and short.
        for fill in [Fp61::new(P61 - 1), Fp61::ZERO] {
            for c in [1usize, 2, 3, 384, 1024] {
                let h = KWiseHash {
                    coeffs: vec![fill; c],
                    range: u64::MAX,
                };
                let mut xs = vec![0, 1, P61 - 1, P61, P61 + 1, u64::MAX, 2, P61 - 2, 7];
                let expect: Vec<u64> = xs.iter().map(|&x| hash_oracle(&h, x)).collect();
                for (&x, &want) in xs.iter().zip(&expect) {
                    assert_eq!(h.hash(x), want, "c={c} x={x}");
                }
                h.hash_many(&mut xs);
                assert_eq!(xs, expect, "c={c}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn zero_independence_rejected() {
        let _ = KWiseHash::from_seed(0, 0, 10);
    }

    #[test]
    #[should_panic]
    fn zero_range_rejected() {
        let _ = KWiseHash::from_seed(0, 2, 0);
    }

    #[test]
    fn outputs_in_range() {
        let h = KWiseHash::from_seed(42, 4, 1000);
        for x in 0..10_000u64 {
            assert!(h.hash(x) < 1000);
        }
    }

    #[test]
    fn hash_many_is_hash_mapped_over_the_inputs() {
        for (c, range) in [(1, u64::MAX), (2, 1000), (384, u64::MAX)] {
            let h = KWiseHash::from_seed(0x917E + c as u64, c, range);
            for len in 0..=9u64 {
                // Input 3 is the largest word, which `Fp61::from_u64` must wrap.
                let xs: Vec<u64> = (0..len)
                    .map(|i| match i {
                        3 => u64::MAX,
                        _ => (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ len,
                    })
                    .collect();
                let expect: Vec<u64> = xs.iter().map(|&x| h.hash(x)).collect();
                let mut out = xs;
                h.hash_many(&mut out);
                assert_eq!(out, expect, "c={c} len={len}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let h1 = KWiseHash::from_seed(7, 3, 1 << 20);
        let h2 = KWiseHash::from_seed(7, 3, 1 << 20);
        for x in [0u64, 1, 99, 12345, u64::MAX] {
            assert_eq!(h1.hash(x), h2.hash(x));
        }
        let h3 = KWiseHash::from_seed(8, 3, 1 << 20);
        assert!((0..100u64).any(|x| h1.hash(x) != h3.hash(x)));
    }

    #[test]
    fn pairwise_collision_probability_small() {
        // Over many independently drawn functions, distinct inputs collide with
        // probability ≈ 1/range.
        let range = 1 << 12;
        let mut collisions = 0u32;
        let trials = 4000;
        for seed in 0..trials {
            let h = KWiseHash::from_seed(seed, 2, range);
            if h.hash(17) == h.hash(94321) {
                collisions += 1;
            }
        }
        // Expected ≈ trials / range ≈ 1; allow generous slack.
        assert!(collisions < 12, "too many collisions: {collisions}");
    }

    #[test]
    fn marginal_distribution_near_uniform() {
        // For a fixed input x, over random h the value h(x) is uniform.
        let range = 16u64;
        let mut counts: HashMap<u64, u32> = HashMap::new();
        let trials = 16_000u64;
        for seed in 0..trials {
            let h = KWiseHash::from_seed(seed, 3, range);
            *counts.entry(h.hash(123456789)).or_default() += 1;
        }
        let expected = trials as f64 / range as f64;
        for v in 0..range {
            let c = *counts.get(&v).unwrap_or(&0) as f64;
            assert!(
                (c - expected).abs() < expected * 0.2,
                "bucket {v} count {c} far from {expected}"
            );
        }
    }

    #[test]
    fn hash_bytes_distinguishes_lengths() {
        let h = KWiseHash::from_seed(3, 2, u64::MAX);
        assert_ne!(h.hash_bytes(b""), h.hash_bytes(b"\0"));
        assert_ne!(h.hash_bytes(b"ab"), h.hash_bytes(b"ba"));
    }

    #[test]
    fn transcript_fingerprint_detects_divergence() {
        let mut detected = 0;
        let trials = 2000;
        for seed in 0..trials {
            let th = TranscriptHash::from_seed(seed);
            let a: Vec<u64> = (0..50).collect();
            let mut b = a.clone();
            b[37] ^= 1;
            if th.fingerprint(&a) != th.fingerprint(&b) {
                detected += 1;
            }
        }
        assert_eq!(detected, trials, "fingerprint missed a divergence");
    }

    #[test]
    fn transcript_fingerprint_prefix_sensitivity() {
        let th = TranscriptHash::from_seed(99);
        let a: Vec<u64> = vec![1, 2, 3];
        let b: Vec<u64> = vec![1, 2, 3, 0];
        assert_ne!(th.fingerprint(&a), th.fingerprint(&b));
        assert_eq!(th.fingerprint(&a), th.fingerprint(&[1, 2, 3]));
    }
}
