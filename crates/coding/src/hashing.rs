//! Bounded-independence hash families.
//!
//! [`KWiseHash`] is a `c`-wise independent family `H = {h : [N] → [L]}`
//! (Lemma 1.11), realised as random polynomials of degree `c - 1` over the
//! prime field `F_{2^61-1}`.  The congestion-sensitive compiler of
//! Theorem 1.3 draws one such function from a shared random seed and uses it
//! to make non-empty and empty payload messages indistinguishable, tagging a
//! whole round of arcs at once through [`KWiseHash::hash_many`].

use crate::field::Field;
use crate::fp::{Fp61, P61};
use crate::kernels;
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
        kernels::fp61_horner_one(&self.coeffs, x) % self.range
    }

    /// Evaluate the hash on every input in place: `xs[i]` becomes
    /// `hash(xs[i])`, bit for bit.
    ///
    /// One evaluation is a chain of `c` dependent multiply–adds, so a single
    /// [`KWiseHash::hash`] call is bound by multiplier latency; this runs
    /// many inputs' lazily reduced Horner chains side by side so the
    /// multiplies overlap — 4 × 8 vector lanes under AVX-512F, 4 × 4 under
    /// AVX2, four scalar chains elsewhere and for the last inputs — through
    /// the kernel backend the process dispatched to
    /// ([`crate::kernels::fp61_horner_form`]).  Callers that tag a whole
    /// round of messages (Theorem 1.3) batch them through here.
    pub fn hash_many(&self, xs: &mut [u64]) {
        kernels::fp61_horner(&self.coeffs, xs);
        // Field values are below `p`, so a wider range leaves them as is.
        if self.range < P61 {
            for x in xs {
                *x %= self.range;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // every length `0..=9` runs so both the scalar quad body and its
        // remainder do, then lengths past one and two blocks of the AVX2
        // (16) and AVX-512 (32) forms, up to two blocks plus an 11-input
        // tail (the forced-form test below runs every length).
        #[test]
        fn lazy_horner_chain_matches_the_canonical_oracle(
            coeffs in prop::collection::vec((any::<u64>(), 0..4u8), 1..=1024usize),
            random in prop::collection::vec(any::<u64>(), 75),
            edge_mask in any::<u64>(),
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
                .map(|(i, &word)| match (edge_mask >> (i % 64)) & 1 {
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
                for len in (0..=9).chain([17, 33, 64, 75]) {
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

    /// The forced-form test: every Fp61 Horner form in the kernel backend
    /// table — the dispatcher's first, and every other one this CPU could
    /// run — against the canonical oracle, at every length from empty to
    /// two blocks of the widest form plus a tail (so every block and tail
    /// shape runs), for random and extreme coefficients and inputs.
    #[test]
    fn every_horner_form_this_cpu_runs_matches_the_canonical_oracle() {
        // Backends sharing a form are adjacent in the table.
        let mut forms = kernels::available_backends();
        forms.dedup_by_key(|backend| backend.horner);
        let names: Vec<&str> = forms.iter().map(|backend| backend.horner).collect();
        assert_eq!(
            names[0],
            kernels::fp61_horner_form(),
            "the dispatcher runs the first entry"
        );
        assert_eq!(names.last(), Some(&"scalar"));
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 = is_x86_feature_detected!("ssse3") && is_x86_feature_detected!("avx2");
            let avx512 = avx2 && is_x86_feature_detected!("avx512f");
            assert_eq!(names.contains(&"avx2"), avx2, "{names:?}");
            assert_eq!(names.contains(&"avx512"), avx512, "{names:?}");
        }
        println!("fp61 horner forms run: {names:?}");

        let mut rng = ChaCha8Rng::seed_from_u64(0x4082);
        const EDGES: [u64; 6] = [0, 1, P61 - 1, P61, P61 + 1, u64::MAX];
        let inputs: Vec<u64> = (0..2 * 32 + 11)
            .map(|i| match i % 5 {
                0 => EDGES[(i / 5) % EDGES.len()],
                _ => rng.gen(),
            })
            .collect();
        for c in [1usize, 2, 3, 48, 192] {
            for fill in [None, Some(Fp61::ZERO), Some(Fp61::new(P61 - 1))] {
                let coeffs: Vec<Fp61> = (0..c)
                    .map(|_| fill.unwrap_or_else(|| Fp61::random(&mut rng)))
                    .collect();
                let h = KWiseHash {
                    coeffs,
                    range: u64::MAX,
                };
                let expect: Vec<u64> = inputs.iter().map(|&x| hash_oracle(&h, x)).collect();
                for backend in &forms {
                    for len in 0..=inputs.len() {
                        let mut out = inputs[..len].to_vec();
                        (backend.fp61_horner)(&h.coeffs, &mut out);
                        let form = backend.horner;
                        assert_eq!(out, expect[..len], "{form} form, c={c} {fill:?}, len {len}");
                    }
                }
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
}
