//! Property-based tests for the coding crate: field axioms, Reed-Solomon
//! round-trips under bounded errors, Vandermonde extraction bijectivity and
//! hashing determinism.

use coding::field::{lagrange_interpolate, poly_eval, Field};
use coding::{BitExtractor, Fp61, Gf256, Gf2_16, KWiseHash, ReedSolomon};
use proptest::prelude::*;

fn gf16(x: u64) -> Gf2_16 {
    Gf2_16::from_u64(x)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn gf2_16_field_axioms(a in any::<u16>(), b in any::<u16>(), c in any::<u16>()) {
        let (a, b, c) = (Gf2_16(a), Gf2_16(b), Gf2_16(c));
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a * b) * c, a * (b * c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!(a + Gf2_16::ZERO, a);
        prop_assert_eq!(a * Gf2_16::ONE, a);
        if !a.is_zero() {
            prop_assert_eq!(a * a.inv(), Gf2_16::ONE);
        }
    }

    #[test]
    fn gf256_field_axioms(a in any::<u8>(), b in any::<u8>(), c in any::<u8>()) {
        let (a, b, c) = (Gf256(a), Gf256(b), Gf256(c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!((a * b) * c, a * (b * c));
        if !a.is_zero() {
            prop_assert_eq!(a * a.inv(), Gf256::ONE);
        }
    }

    #[test]
    fn fp61_axioms(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (a, b, c) = (Fp61::from_u64(a), Fp61::from_u64(b), Fp61::from_u64(c));
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!(a - a, Fp61::ZERO);
        if !a.is_zero() {
            prop_assert_eq!(a * a.inv(), Fp61::ONE);
        }
    }

    #[test]
    fn interpolation_recovers_polynomial(coeffs in prop::collection::vec(any::<u16>(), 1..8)) {
        let coeffs: Vec<Gf2_16> = coeffs.into_iter().map(Gf2_16).collect();
        let points: Vec<(Gf2_16, Gf2_16)> = (1..=coeffs.len() as u64)
            .map(|x| (gf16(x), poly_eval(&coeffs, gf16(x))))
            .collect();
        let rec = lagrange_interpolate(&points);
        for x in 0..30u64 {
            prop_assert_eq!(poly_eval(&rec, gf16(x)), poly_eval(&coeffs, gf16(x)));
        }
    }

    #[test]
    fn rs_roundtrip_with_errors(
        msg in prop::collection::vec(any::<u16>(), 1..8),
        extra in 1usize..12,
        err_seed in any::<u64>(),
    ) {
        let ell = msg.len();
        let k = ell + extra;
        let rs = ReedSolomon::<Gf2_16>::new(ell, k).unwrap();
        let msg: Vec<Gf2_16> = msg.into_iter().map(Gf2_16).collect();
        let mut cw = rs.encode(&msg).unwrap();
        // Inject up to error_capacity errors at pseudo-random positions.
        let cap = rs.error_capacity();
        let mut s = err_seed;
        let nerr = if cap == 0 { 0 } else { (err_seed as usize) % (cap + 1) };
        let mut positions = std::collections::HashSet::new();
        while positions.len() < nerr {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            positions.insert((s >> 33) as usize % k);
        }
        for &p in &positions {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            cw[p] = cw[p] + Gf2_16::from_u64(1 + (s >> 40));
        }
        prop_assert_eq!(rs.decode(&cw).unwrap(), msg);
    }

    #[test]
    fn bit_extraction_depends_only_on_hidden_inputs_linearly(
        n in 3usize..10,
        t_frac in 0usize..100,
        pads_a in prop::collection::vec(any::<u16>(), 10),
        pads_b in prop::collection::vec(any::<u16>(), 10),
    ) {
        let t = (t_frac * (n - 1)) / 100;
        let ex = BitExtractor::<Gf2_16>::new(n, t).unwrap();
        let a: Vec<Gf2_16> = pads_a[..n].iter().map(|&x| Gf2_16(x)).collect();
        let b: Vec<Gf2_16> = pads_b[..n].iter().map(|&x| Gf2_16(x)).collect();
        let sum: Vec<Gf2_16> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        // Linearity: extract(a + b) = extract(a) + extract(b) — the structural
        // property underlying the bijectivity argument of Theorem 2.1.
        let ea = ex.extract(&a).unwrap();
        let eb = ex.extract(&b).unwrap();
        let es = ex.extract(&sum).unwrap();
        for i in 0..ea.len() {
            prop_assert_eq!(es[i], ea[i] + eb[i]);
        }
        prop_assert_eq!(ea.len(), n - t);
    }

    #[test]
    fn kwise_hash_in_range(seed in any::<u64>(), c in 1usize..6, range in 1u64..1_000_000, x in any::<u64>()) {
        let h = KWiseHash::from_seed(seed, c, range);
        prop_assert!(h.hash(x) < range);
    }
}
