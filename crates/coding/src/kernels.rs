//! Vectorized finite-field kernels behind the Reed–Solomon and key-schedule
//! hot loops.
//!
//! The coding crate's encode/syndrome/interpolation paths reduce to fused
//! multiply–accumulate over slices: `dst[i] += c · src[i]` for one constant
//! `c` and long `src`/`dst`.  The streamed Vandermonde bit extraction of the
//! key schedule is the multi-row form of the same thing: source rows (the
//! exchange rounds' pads, two per call) with `r` constants each (the powers
//! `α_i^j`), row `j` of an `r × w` block gaining `c1_j · src1 ⊕ c2_j · src2`
//! ([`gf2_16_addmul_rows`]).  The Theorem 1.3 tagger's polynomial
//! evaluation, a batch of Fp61 Horner chains, dispatches through the same
//! table (see *Fp61 Horner forms* below).
//!
//! Backends, resolved once per process into function pointers:
//!
//! * **scalar** — for GF(2^8) the log/antilog table walk, for GF(2^16) the
//!   [`NibbleMul`] split-table walk; both are kept as the property-test
//!   oracles every other path is checked against, and the GF(2^16) one is
//!   also the fallback on hosts without a SIMD backend;
//! * **SWAR** (GF(2^8) only) — bit-sliced over `u64` lanes: the constant is
//!   decomposed into its bits and the source lane is repeatedly doubled with
//!   a branch-free eight-byte-wide `xtime` (shift plus masked reduction by
//!   the field polynomial), processing eight field elements per iteration on
//!   any architecture;
//! * **SSSE3** (x86-64, runtime-detected) — nibble-table products through
//!   `pshufb`, sixteen elements per shuffle.  GF(2^8) needs two shuffles per
//!   sixteen elements; GF(2^16) splits each element into four nibbles and
//!   each table entry into its low and high byte, so eight;
//! * **GFNI** (x86-64, runtime-detected: AVX-512F/BW and GFNI) — the
//!   GF(2^16) kernel at 64 lanes with no tables at all: multiplication by
//!   `c` is GF(2)-linear, so each product byte is two 8 × 8 bit matrices of
//!   `c` applied to the source's low and high byte, one `vgf2p8affineqb`
//!   each, four per step; one AVX2 and one SSSE3 step and the scalar walk
//!   finish the tail.  GF(2^8) keeps the SSSE3 bodies;
//! * **AVX-512** (x86-64, runtime-detected: AVX-512F without GFNI or
//!   AVX-512BW) — the AVX2 kernels with the AVX-512 Horner form;
//! * **AVX2** (x86-64, runtime-detected) — the GF(2^16) kernel at 32 lanes
//!   per `vpshufb`, one SSSE3 step and the scalar walk finishing the tail;
//!   GF(2^8) keeps the SSSE3 bodies;
//! * **NEON** (AArch64 baseline) — the SSSE3 scheme through `vqtbl1q_u8`,
//!   with `vld2q_u8` / `vst2q_u8` doing the GF(2^16) byte (de-)interleave.
//!
//! **One GF(2^16) kernel per backend: the rows kernel.**  Absorbing a pad
//! row into `r` key rows as `r` one-row calls repeats the byte de-interleave
//! and nibble split of the same source `r` times, and the split is a third
//! of a one-row step.  The x86 kernels split `src` once per tile of 512
//! elements — the four nibble planes, 2 KiB, stay on the stack —
//! and then walk every row over the tile: eight shuffles, the re-interleave
//! and a load–XOR–store per step (GFNI: the two byte planes, 1 KiB, and four
//! affine maps).  Each body is generic over its source count `S` (one or
//! two, both registered): with two, both sources are split per tile and
//! their products XOR together before the one load–XOR–store, so the `r × w`
//! block is walked once for two pad rows.  [`gf2_16_addmul`] (and so
//! [`crate::field::Field::addmul_slice`]) is the same kernel with one
//! constant and one source.  NEON loops its one-row body per row and
//! source.
//!
//! **Fp61 Horner forms.**  [`crate::KWiseHash::hash_many`] evaluates one
//! polynomial of degree `c − 1` over `F_{2^61−1}` at a batch of points: a
//! chain of `c` dependent multiply–adds per point, each on a lazily reduced
//! accumulator below `2^62`.  The backend's form runs many chains side by
//! side: **avx512** keeps 4 × 8 chains in 512-bit lanes (then single 8-lane
//! chains), **avx2** 4 × 4 in 256-bit lanes, both multiplying in radix
//! 2³² with `vpmuludq` (the bound argument is at `x86::horner_512`); the
//! **scalar** form walks four chains in lockstep through
//! `Fp61::mul_add_lazy` and is the vector forms' tail and every other
//! backend's form.  Inputs are canonicalised on the way in and accumulators
//! once on the way out, so every form's outputs are the canonical field
//! values, bit for bit.  At `c = 192` over 640 points, one multiply–add
//! costs ≈ 0.45 ns (avx512), ≈ 0.65 ns (avx2) and ≈ 1.5 ns (scalar), best
//! of 30 on the two-vCPU Xeon described below.
//!
//! All paths compute the exact same field arithmetic, so results are
//! bit-identical regardless of which backend runs — the determinism contract
//! of the campaign layer does not depend on the host CPU.  The backend table
//! the dispatcher picks from is also what the forced-backend test runs: every
//! backend the CPU supports, against the scalar oracles, on one machine.
//!
//! For GF(2^16) a 65536-entry table per constant would blow the cache, so
//! [`NibbleMul`] splits the operand into four 4-bit nibbles and XORs four
//! 16-entry table lookups — 128 bytes of table per constant, built with
//! sixteen carryless doublings; the GFNI kernel reads the same constant as
//! four bit matrices, derived from the same sixteen powers.  Measured per
//! backend on one 4 KiB cache-resident slice (the one-row call, best of
//! nine, on a shared two-vCPU Xeon with AVX-512 and GFNI; ranges are that
//! host's load): scalar ≈ 1.0 GB/s, SSSE3 ≈ 5–7 GB/s, AVX2 ≈ 8–13 GB/s,
//! GFNI ≈ 24 GB/s.  On the key schedule's shape — 20 rows over 23 808
//! elements — a multiply–accumulate costs ≈ 0.18 ns through the SSSE3 rows
//! kernel, 0.11–0.15 ns through the AVX2 one and ≈ 0.05 ns through the GFNI
//! one.

use crate::field::Field;
use crate::fp::Fp61;
use crate::gf256::Gf256;
use crate::gf2_16::Gf2_16;
use std::sync::OnceLock;

/// Per-byte `xtime` (multiply by `x`) over a `u64` lane of eight GF(2^8)
/// elements: shift every byte left one bit, then reduce the bytes that
/// overflowed by the low byte of the field polynomial (`0x1B`, from
/// `x^8 + x^4 + x^3 + x + 1`).
#[inline]
fn xtime64(x: u64) -> u64 {
    let carries = (x >> 7) & 0x0101_0101_0101_0101;
    ((x & 0x7F7F_7F7F_7F7F_7F7F) << 1) ^ (carries * 0x1B)
}

/// Scalar GF(2^8) product via the field's log/antilog tables.
#[inline]
fn mul8(a: u8, b: u8) -> u8 {
    (Gf256(a) * Gf256(b)).0
}

/// `dst[i] ^= c · src[i]` over GF(2^8), scalar path.
///
/// This is the oracle the SWAR and SIMD backends are property-tested
/// against; it is public so external tests and benches can call it directly.
///
/// # Panics
///
/// Panics when the slices have different lengths.
pub fn gf256_addmul_scalar(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "gf256_addmul length mismatch");
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d ^= mul8(c, s);
    }
}

/// Bit-sliced SWAR `dst[i] ^= c · src[i]`: eight bytes per `u64` lane, one
/// `xtime64` doubling per set bit of `c`.
fn gf256_addmul_swar(dst: &mut [u8], src: &[u8], c: u8) {
    let mut dst_lanes = dst.chunks_exact_mut(8);
    let mut src_lanes = src.chunks_exact(8);
    for (d8, s8) in (&mut dst_lanes).zip(&mut src_lanes) {
        let mut lane = u64::from_le_bytes(s8.try_into().expect("8-byte chunk"));
        let mut acc = 0u64;
        let mut bits = c;
        loop {
            if bits & 1 != 0 {
                acc ^= lane;
            }
            bits >>= 1;
            if bits == 0 {
                break;
            }
            lane = xtime64(lane);
        }
        let merged = u64::from_le_bytes(d8[..].try_into().expect("8-byte chunk")) ^ acc;
        d8.copy_from_slice(&merged.to_le_bytes());
    }
    gf256_addmul_scalar(dst_lanes.into_remainder(), src_lanes.remainder(), c);
}

/// The 16-entry low/high nibble product tables for one GF(2^8) constant:
/// `lo[d] = c·d`, `hi[d] = c·(d << 4)`, so `c·b = lo[b & 0xF] ^ hi[b >> 4]`.
/// Both SIMD backends shuffle these with their byte-table instruction.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
fn nibble_tables8(c: u8) -> ([u8; 16], [u8; 16]) {
    let mut lo = [0u8; 16];
    let mut hi = [0u8; 16];
    for d in 0..16u8 {
        lo[d as usize] = mul8(c, d);
        hi[d as usize] = mul8(c, d << 4);
    }
    (lo, hi)
}

/// Source elements the x86 GF(2^16) rows kernels split per tile: sixteen
/// 32-lane or thirty-two 16-lane steps, whose four nibble planes per source
/// (2 KiB each) stay on the stack while every row walks the tile.
#[cfg(target_arch = "x86_64")]
const TILE: usize = 512;

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{assert_rows_block, gf256_addmul_scalar, nibble_tables8};
    use super::{fp61_horner_scalar, gf2_16_addmul_rows_tables, Gf2_16, RowsSource, TILE};
    use crate::field::Field;
    use crate::fp::{Fp61, P61};
    use std::arch::x86_64::*;

    /// 16-lane nibble-table product: `lo⊔hi` shuffled by the low/high
    /// nibbles of `s`.  Caller guarantees SSSE3 (for `pshufb`).
    #[inline]
    unsafe fn product16(vlo: __m128i, vhi: __m128i, mask: __m128i, s: __m128i) -> __m128i {
        let lo_nib = _mm_and_si128(s, mask);
        let hi_nib = _mm_and_si128(_mm_srli_epi64(s, 4), mask);
        _mm_xor_si128(_mm_shuffle_epi8(vlo, lo_nib), _mm_shuffle_epi8(vhi, hi_nib))
    }

    #[target_feature(enable = "ssse3")]
    unsafe fn addmul(dst: &mut [u8], src: &[u8], c: u8) {
        let (lo, hi) = nibble_tables8(c);
        let vlo = _mm_loadu_si128(lo.as_ptr() as *const __m128i);
        let vhi = _mm_loadu_si128(hi.as_ptr() as *const __m128i);
        let mask = _mm_set1_epi8(0x0F);
        let whole = dst.len() / 16 * 16;
        for i in (0..whole).step_by(16) {
            let s = _mm_loadu_si128(src.as_ptr().add(i) as *const __m128i);
            let d = _mm_loadu_si128(dst.as_ptr().add(i) as *const __m128i);
            let p = product16(vlo, vhi, mask, s);
            _mm_storeu_si128(dst.as_mut_ptr().add(i) as *mut __m128i, _mm_xor_si128(d, p));
        }
        gf256_addmul_scalar(&mut dst[whole..], &src[whole..], c);
    }

    /// Safe entry point, registered by the dispatcher only after
    /// `is_x86_feature_detected!("ssse3")` succeeded.
    pub fn addmul_entry(dst: &mut [u8], src: &[u8], c: u8) {
        unsafe { addmul(dst, src, c) }
    }

    /// Columns `from..` of the GF(2^16) rows block `acc` (`rows` rows of the
    /// sources' common width `w`, row-major), in whole 16-element steps;
    /// returns the first column it left to the caller.
    ///
    /// Per tile, each element of every source is split into its low and
    /// high byte (`packus`) and each byte into two nibbles, once.  Every row
    /// `j` then walks the tile: the product's low byte is the XOR of four
    /// shuffles of the low-byte tables of source `s`'s `consts[j]`, summed
    /// over the `S` sources, its high byte likewise, and `unpack` — the
    /// inverse of `packus` — re-interleaves them for one load–XOR–store.
    ///
    /// # Safety
    ///
    /// The CPU must support SSSE3, every source must be `w` wide with
    /// `acc.len() == consts.len() · w` ([`assert_rows_block`]) and
    /// `from <= w`.
    #[target_feature(enable = "ssse3")]
    unsafe fn addmul16_rows_128<const S: usize>(
        acc: &mut [Gf2_16],
        sources: &[RowsSource<'_>; S],
        from: usize,
    ) -> usize {
        const LANES: usize = 16;
        let w = sources[0].0.len();
        let rows = sources[0].1.len();
        let end = from + (w - from) / LANES * LANES;
        let nibble = _mm_set1_epi8(0x0F);
        let low_byte = _mm_set1_epi16(0x00FF);
        // `Gf2_16` is `repr(transparent)` over `u16`, so every slice is
        // plain bytes, two per element.
        let ap = acc.as_mut_ptr().cast::<u8>();
        let mut planes = [[[_mm_setzero_si128(); 4]; S]; TILE / LANES];
        let mut start = from;
        while start < end {
            let steps = ((end - start) / LANES).min(TILE / LANES);
            for (k, splits) in planes[..steps].iter_mut().enumerate() {
                let i = start + k * LANES;
                for (plane, (src, _)) in splits.iter_mut().zip(sources) {
                    let sp = src.as_ptr().cast::<u8>();
                    // SAFETY: `i + LANES <= end <= w`, so the 16-byte loads
                    // at byte offsets `2i` and `2i + 16` end at byte
                    // `2(i + 16) <= 2w`; unaligned loads are what `loadu` is
                    // for.
                    let (a, b) = unsafe {
                        (
                            _mm_loadu_si128(sp.add(2 * i).cast()),
                            _mm_loadu_si128(sp.add(2 * i + 16).cast()),
                        )
                    };
                    let lo =
                        _mm_packus_epi16(_mm_and_si128(a, low_byte), _mm_and_si128(b, low_byte));
                    let hi = _mm_packus_epi16(_mm_srli_epi16::<8>(a), _mm_srli_epi16::<8>(b));
                    *plane = [
                        _mm_and_si128(lo, nibble),
                        _mm_and_si128(_mm_srli_epi16::<4>(lo), nibble),
                        _mm_and_si128(hi, nibble),
                        _mm_and_si128(_mm_srli_epi16::<4>(hi), nibble),
                    ];
                }
            }
            for j in 0..rows {
                let mut t = [[_mm_setzero_si128(); 8]; S];
                for (tables, (_, consts)) in t.iter_mut().zip(sources) {
                    for (table, bytes) in tables.iter_mut().zip(&consts[j].bytes) {
                        // SAFETY: every table is a 16-byte array.
                        *table = unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) };
                    }
                }
                for (k, splits) in planes[..steps].iter().enumerate() {
                    let mut product_lo = _mm_setzero_si128();
                    let mut product_hi = _mm_setzero_si128();
                    for (t, &[n0, n1, n2, n3]) in t.iter().zip(splits) {
                        product_lo = _mm_xor_si128(
                            product_lo,
                            _mm_xor_si128(
                                _mm_xor_si128(
                                    _mm_shuffle_epi8(t[0], n0),
                                    _mm_shuffle_epi8(t[1], n1),
                                ),
                                _mm_xor_si128(
                                    _mm_shuffle_epi8(t[2], n2),
                                    _mm_shuffle_epi8(t[3], n3),
                                ),
                            ),
                        );
                        product_hi = _mm_xor_si128(
                            product_hi,
                            _mm_xor_si128(
                                _mm_xor_si128(
                                    _mm_shuffle_epi8(t[4], n0),
                                    _mm_shuffle_epi8(t[5], n1),
                                ),
                                _mm_xor_si128(
                                    _mm_shuffle_epi8(t[6], n2),
                                    _mm_shuffle_epi8(t[7], n3),
                                ),
                            ),
                        );
                    }
                    let at = 2 * (j * w + start + k * LANES);
                    // SAFETY: row `j` is bytes `2jw .. 2(j + 1)w` of `acc`
                    // (`j < rows` and the block-size contract), and
                    // `start + k·LANES + LANES <= end <= w`, so both 16-byte
                    // accesses stay inside the row; `acc` is exclusively
                    // borrowed.
                    unsafe {
                        let da = ap.add(at).cast::<__m128i>();
                        let db = ap.add(at + 16).cast::<__m128i>();
                        let pa = _mm_unpacklo_epi8(product_lo, product_hi);
                        let pb = _mm_unpackhi_epi8(product_lo, product_hi);
                        _mm_storeu_si128(da, _mm_xor_si128(_mm_loadu_si128(da), pa));
                        _mm_storeu_si128(db, _mm_xor_si128(_mm_loadu_si128(db), pb));
                    }
                }
            }
            start += steps * LANES;
        }
        end
    }

    /// [`addmul16_rows_128`] at 32 lanes.  `vpshufb`, `vpackuswb` and
    /// `vpunpck*bw` all work within 128-bit halves, so the pack/unpack pair
    /// still cancels and each half of a register is one 16-element group.
    ///
    /// # Safety
    ///
    /// As [`addmul16_rows_128`], with AVX2 for SSSE3.
    #[target_feature(enable = "avx2")]
    unsafe fn addmul16_rows_256<const S: usize>(
        acc: &mut [Gf2_16],
        sources: &[RowsSource<'_>; S],
        from: usize,
    ) -> usize {
        const LANES: usize = 32;
        let w = sources[0].0.len();
        let rows = sources[0].1.len();
        let end = from + (w - from) / LANES * LANES;
        let nibble = _mm256_set1_epi8(0x0F);
        let low_byte = _mm256_set1_epi16(0x00FF);
        let ap = acc.as_mut_ptr().cast::<u8>();
        let mut planes = [[[_mm256_setzero_si256(); 4]; S]; TILE / LANES];
        let mut start = from;
        while start < end {
            let steps = ((end - start) / LANES).min(TILE / LANES);
            for (k, splits) in planes[..steps].iter_mut().enumerate() {
                let i = start + k * LANES;
                for (plane, (src, _)) in splits.iter_mut().zip(sources) {
                    let sp = src.as_ptr().cast::<u8>();
                    // SAFETY: `i + LANES <= end <= w`, so the 32-byte loads
                    // at byte offsets `2i` and `2i + 32` end at byte
                    // `2(i + 32) <= 2w`; unaligned loads are what `loadu` is
                    // for.
                    let (a, b) = unsafe {
                        (
                            _mm256_loadu_si256(sp.add(2 * i).cast()),
                            _mm256_loadu_si256(sp.add(2 * i + 32).cast()),
                        )
                    };
                    let lo = _mm256_packus_epi16(
                        _mm256_and_si256(a, low_byte),
                        _mm256_and_si256(b, low_byte),
                    );
                    let hi =
                        _mm256_packus_epi16(_mm256_srli_epi16::<8>(a), _mm256_srli_epi16::<8>(b));
                    *plane = [
                        _mm256_and_si256(lo, nibble),
                        _mm256_and_si256(_mm256_srli_epi16::<4>(lo), nibble),
                        _mm256_and_si256(hi, nibble),
                        _mm256_and_si256(_mm256_srli_epi16::<4>(hi), nibble),
                    ];
                }
            }
            for j in 0..rows {
                let mut t = [[_mm256_setzero_si256(); 8]; S];
                for (tables, (_, consts)) in t.iter_mut().zip(sources) {
                    for (table, bytes) in tables.iter_mut().zip(&consts[j].bytes) {
                        // SAFETY: every table is a 16-byte array, broadcast
                        // to both halves.
                        *table = _mm256_broadcastsi128_si256(unsafe {
                            _mm_loadu_si128(bytes.as_ptr().cast())
                        });
                    }
                }
                for (k, splits) in planes[..steps].iter().enumerate() {
                    let mut product_lo = _mm256_setzero_si256();
                    let mut product_hi = _mm256_setzero_si256();
                    for (t, &[n0, n1, n2, n3]) in t.iter().zip(splits) {
                        product_lo = _mm256_xor_si256(
                            product_lo,
                            _mm256_xor_si256(
                                _mm256_xor_si256(
                                    _mm256_shuffle_epi8(t[0], n0),
                                    _mm256_shuffle_epi8(t[1], n1),
                                ),
                                _mm256_xor_si256(
                                    _mm256_shuffle_epi8(t[2], n2),
                                    _mm256_shuffle_epi8(t[3], n3),
                                ),
                            ),
                        );
                        product_hi = _mm256_xor_si256(
                            product_hi,
                            _mm256_xor_si256(
                                _mm256_xor_si256(
                                    _mm256_shuffle_epi8(t[4], n0),
                                    _mm256_shuffle_epi8(t[5], n1),
                                ),
                                _mm256_xor_si256(
                                    _mm256_shuffle_epi8(t[6], n2),
                                    _mm256_shuffle_epi8(t[7], n3),
                                ),
                            ),
                        );
                    }
                    let at = 2 * (j * w + start + k * LANES);
                    // SAFETY: as in `addmul16_rows_128`, with 32-byte
                    // accesses at `2(start + k·LANES)` and 32 bytes on, both
                    // inside row `j` because `start + k·LANES + LANES <= w`.
                    unsafe {
                        let da = ap.add(at).cast::<__m256i>();
                        let db = ap.add(at + 32).cast::<__m256i>();
                        let pa = _mm256_unpacklo_epi8(product_lo, product_hi);
                        let pb = _mm256_unpackhi_epi8(product_lo, product_hi);
                        _mm256_storeu_si256(da, _mm256_xor_si256(_mm256_loadu_si256(da), pa));
                        _mm256_storeu_si256(db, _mm256_xor_si256(_mm256_loadu_si256(db), pb));
                    }
                }
            }
            start += steps * LANES;
        }
        end
    }

    /// [`addmul16_rows_128`] at 64 lanes, with GFNI affine maps in place of
    /// the nibble tables.  Per tile each element of every source is split
    /// into its low and high byte (`vpackuswb`) once; every row `j` then
    /// takes the four matrices of each source's `consts[j]` — product low
    /// byte = `A_ll·lo ⊕ A_hl·hi`, high byte = `A_lh·lo ⊕ A_hh·hi`, one
    /// `vgf2p8affineqb` each, summed over the sources — and `vpunpck*bw`
    /// re-interleaves, within 128-bit lanes as `packus` split.
    ///
    /// # Safety
    ///
    /// As [`addmul16_rows_128`], with AVX-512F, AVX-512BW and GFNI for
    /// SSSE3.
    #[target_feature(enable = "avx512f,avx512bw,gfni")]
    unsafe fn addmul16_rows_512<const S: usize>(
        acc: &mut [Gf2_16],
        sources: &[RowsSource<'_>; S],
        from: usize,
    ) -> usize {
        const LANES: usize = 64;
        let w = sources[0].0.len();
        let rows = sources[0].1.len();
        let end = from + (w - from) / LANES * LANES;
        let low_byte = _mm512_set1_epi16(0x00FF);
        let ap = acc.as_mut_ptr().cast::<u8>();
        let mut planes = [[[_mm512_setzero_si512(); 2]; S]; TILE / LANES];
        let mut start = from;
        while start < end {
            let steps = ((end - start) / LANES).min(TILE / LANES);
            for (k, splits) in planes[..steps].iter_mut().enumerate() {
                let i = start + k * LANES;
                for (plane, (src, _)) in splits.iter_mut().zip(sources) {
                    let sp = src.as_ptr().cast::<u8>();
                    // SAFETY: `i + LANES <= end <= w`, so the 64-byte loads
                    // at byte offsets `2i` and `2i + 64` end at byte
                    // `2(i + 64) <= 2w`; unaligned loads are what `loadu` is
                    // for.
                    let (a, b) = unsafe {
                        (
                            _mm512_loadu_si512(sp.add(2 * i).cast()),
                            _mm512_loadu_si512(sp.add(2 * i + 64).cast()),
                        )
                    };
                    *plane = [
                        _mm512_packus_epi16(
                            _mm512_and_si512(a, low_byte),
                            _mm512_and_si512(b, low_byte),
                        ),
                        _mm512_packus_epi16(_mm512_srli_epi16::<8>(a), _mm512_srli_epi16::<8>(b)),
                    ];
                }
            }
            for j in 0..rows {
                let mut maps = [[_mm512_setzero_si512(); 4]; S];
                for (map, (_, consts)) in maps.iter_mut().zip(sources) {
                    for (matrix, &q) in map.iter_mut().zip(&consts[j].affine) {
                        *matrix = _mm512_set1_epi64(q as i64);
                    }
                }
                for (k, splits) in planes[..steps].iter().enumerate() {
                    let mut product_lo = _mm512_setzero_si512();
                    let mut product_hi = _mm512_setzero_si512();
                    for (&[ll, hl, lh, hh], &[lo, hi]) in maps.iter().zip(splits) {
                        product_lo = _mm512_xor_si512(
                            product_lo,
                            _mm512_xor_si512(
                                _mm512_gf2p8affine_epi64_epi8::<0>(lo, ll),
                                _mm512_gf2p8affine_epi64_epi8::<0>(hi, hl),
                            ),
                        );
                        product_hi = _mm512_xor_si512(
                            product_hi,
                            _mm512_xor_si512(
                                _mm512_gf2p8affine_epi64_epi8::<0>(lo, lh),
                                _mm512_gf2p8affine_epi64_epi8::<0>(hi, hh),
                            ),
                        );
                    }
                    let at = 2 * (j * w + start + k * LANES);
                    // SAFETY: as in `addmul16_rows_128`, with 64-byte
                    // accesses at `2(start + k·LANES)` and 64 bytes on, both
                    // inside row `j` because `start + k·LANES + LANES <= w`.
                    unsafe {
                        let da = ap.add(at).cast::<__m512i>();
                        let db = ap.add(at + 64).cast::<__m512i>();
                        let pa = _mm512_unpacklo_epi8(product_lo, product_hi);
                        let pb = _mm512_unpackhi_epi8(product_lo, product_hi);
                        _mm512_storeu_si512(da, _mm512_xor_si512(_mm512_loadu_si512(da), pa));
                        _mm512_storeu_si512(db, _mm512_xor_si512(_mm512_loadu_si512(db), pb));
                    }
                }
            }
            start += steps * LANES;
        }
        end
    }

    /// The SSSE3 backend's GF(2^16) kernel: 16-lane steps, then the scalar
    /// walk.  Registered by the dispatcher only after
    /// `is_x86_feature_detected!("ssse3")` succeeded.
    pub fn addmul16_rows_ssse3<const S: usize>(acc: &mut [Gf2_16], sources: [RowsSource<'_>; S]) {
        assert_rows_block(acc, &sources);
        // SAFETY: the block shape was just checked, `0 <= w`, and the
        // dispatcher hands this function out only on CPUs that reported
        // SSSE3.
        let done = unsafe { addmul16_rows_128(acc, &sources, 0) };
        gf2_16_addmul_rows_tables(acc, &sources, done);
    }

    /// The AVX2 backend's GF(2^16) kernel: 32-lane steps, one 16-lane step,
    /// then the scalar walk.  Registered by the dispatcher only after both
    /// `is_x86_feature_detected!("ssse3")` and `("avx2")` succeeded.
    pub fn addmul16_rows_avx2<const S: usize>(acc: &mut [Gf2_16], sources: [RowsSource<'_>; S]) {
        assert_rows_block(acc, &sources);
        // SAFETY: the block shape was just checked, each call returns a
        // column `<= w` for the next, and the dispatcher hands this function
        // out only on CPUs that reported AVX2 and SSSE3.
        let done = unsafe { addmul16_rows_256(acc, &sources, 0) };
        let done = unsafe { addmul16_rows_128(acc, &sources, done) };
        gf2_16_addmul_rows_tables(acc, &sources, done);
    }

    /// The GFNI backend's GF(2^16) kernel: 64-lane steps, then one 32- and
    /// one 16-lane step and the scalar walk.  Registered by the dispatcher
    /// only after `ssse3`, `avx2`, `avx512f`, `avx512bw` and `gfni` were all
    /// detected.
    pub fn addmul16_rows_gfni<const S: usize>(acc: &mut [Gf2_16], sources: [RowsSource<'_>; S]) {
        assert_rows_block(acc, &sources);
        // SAFETY: the block shape was just checked, each call returns a
        // column `<= w` for the next, and the dispatcher hands this function
        // out only on CPUs that reported every feature they need.
        let done = unsafe { addmul16_rows_512(acc, &sources, 0) };
        let done = unsafe { addmul16_rows_256(acc, &sources, done) };
        let done = unsafe { addmul16_rows_128(acc, &sources, done) };
        gf2_16_addmul_rows_tables(acc, &sources, done);
    }

    /// `CHAINS` independent lazy Horner chains of eight lanes each, at 512
    /// bits: `Σ_i coeffs[i]·x^i` for the canonical inputs `x`, as lazily
    /// reduced accumulators (below `2^62`, congruent to the value).
    ///
    /// `vpmuludq` multiplies the low 32 bits of each 64-bit lane, so the
    /// product is taken in radix 2³².  With `acc = ah·2^32 + al` below
    /// `2^62` (`ah < 2^30`) and canonical `x = xh·2^32 + xl` (`xh < 2^29`),
    /// `acc·x = hh·2^64 + mid·2^32 + ll` where `hh = ah·xh < 2^59`,
    /// `ll = al·xl < 2^64` and `mid = ah·xl + al·xh < 2^62 + 2^61 < 2^63`.
    /// Since `2^61 ≡ 1 (mod p)`: `hh·2^64 ≡ hh << 3` (below `2^62`);
    /// `mid·2^32 ≡ (mid >> 29) + ((mid & (2^29 − 1)) << 32)`, below `2^34`
    /// and `2^61`; `ll ≡ (ll & p) + (ll >> 61)`, below `2^61` and `8`.  With
    /// the coefficient `c < 2^61` the sum `s` of those six terms is below
    /// `5·2^61 + 2^35 < 2^64`, so nothing wraps, and one fold
    /// `(s & p) + (s >> 61) < 2^61 + 6` keeps the accumulator below `2^62`
    /// for the next step — the scalar chain's invariant
    /// (`Fp61::mul_add_lazy`), one lane at a time.  The bound needs every
    /// `x` lane canonical.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn horner_512<const CHAINS: usize>(
        coeffs: &[Fp61],
        x: &[[u64; 8]; CHAINS],
    ) -> [[u64; 8]; CHAINS] {
        let p = _mm512_set1_epi64(P61 as i64);
        let mid_low = _mm512_set1_epi64((((1u64 << 29) - 1) << 32) as i64);
        let mut xl = [_mm512_setzero_si512(); CHAINS];
        let mut xh = [_mm512_setzero_si512(); CHAINS];
        for ((xl, xh), lanes) in xl.iter_mut().zip(&mut xh).zip(x) {
            // SAFETY: `lanes` is eight `u64`s, 64 bytes.
            *xl = unsafe { _mm512_loadu_si512(lanes.as_ptr().cast()) };
            *xh = _mm512_srli_epi64::<32>(*xl);
        }
        let mut acc = [_mm512_setzero_si512(); CHAINS];
        for c in coeffs.iter().rev() {
            let c = _mm512_set1_epi64(c.value() as i64);
            for ((acc, &xl), &xh) in acc.iter_mut().zip(&xl).zip(&xh) {
                let ah = _mm512_srli_epi64::<32>(*acc);
                let ll = _mm512_mul_epu32(*acc, xl);
                let hh = _mm512_mul_epu32(ah, xh);
                let mid = _mm512_add_epi64(_mm512_mul_epu32(ah, xl), _mm512_mul_epu32(*acc, xh));
                let s = _mm512_add_epi64(
                    _mm512_add_epi64(
                        _mm512_add_epi64(_mm512_slli_epi64::<3>(hh), _mm512_srli_epi64::<29>(mid)),
                        _mm512_and_si512(_mm512_slli_epi64::<32>(mid), mid_low),
                    ),
                    _mm512_add_epi64(
                        _mm512_add_epi64(_mm512_and_si512(ll, p), _mm512_srli_epi64::<61>(ll)),
                        c,
                    ),
                );
                *acc = _mm512_add_epi64(_mm512_and_si512(s, p), _mm512_srli_epi64::<61>(s));
            }
        }
        let mut out = [[0u64; 8]; CHAINS];
        for (lanes, &acc) in out.iter_mut().zip(&acc) {
            // SAFETY: `lanes` is eight `u64`s, 64 bytes, exclusively
            // borrowed.
            unsafe { _mm512_storeu_si512(lanes.as_mut_ptr().cast(), acc) };
        }
        out
    }

    /// [`horner_512`] at 256 bits: the same radix-2³² step on four lanes
    /// per chain, for canonical `x` lanes.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn horner_256<const CHAINS: usize>(
        coeffs: &[Fp61],
        x: &[[u64; 4]; CHAINS],
    ) -> [[u64; 4]; CHAINS] {
        let p = _mm256_set1_epi64x(P61 as i64);
        let mid_low = _mm256_set1_epi64x((((1u64 << 29) - 1) << 32) as i64);
        let mut xl = [_mm256_setzero_si256(); CHAINS];
        let mut xh = [_mm256_setzero_si256(); CHAINS];
        for ((xl, xh), lanes) in xl.iter_mut().zip(&mut xh).zip(x) {
            // SAFETY: `lanes` is four `u64`s, 32 bytes.
            *xl = unsafe { _mm256_loadu_si256(lanes.as_ptr().cast()) };
            *xh = _mm256_srli_epi64::<32>(*xl);
        }
        let mut acc = [_mm256_setzero_si256(); CHAINS];
        for c in coeffs.iter().rev() {
            let c = _mm256_set1_epi64x(c.value() as i64);
            for ((acc, &xl), &xh) in acc.iter_mut().zip(&xl).zip(&xh) {
                let ah = _mm256_srli_epi64::<32>(*acc);
                let ll = _mm256_mul_epu32(*acc, xl);
                let hh = _mm256_mul_epu32(ah, xh);
                let mid = _mm256_add_epi64(_mm256_mul_epu32(ah, xl), _mm256_mul_epu32(*acc, xh));
                let s = _mm256_add_epi64(
                    _mm256_add_epi64(
                        _mm256_add_epi64(_mm256_slli_epi64::<3>(hh), _mm256_srli_epi64::<29>(mid)),
                        _mm256_and_si256(_mm256_slli_epi64::<32>(mid), mid_low),
                    ),
                    _mm256_add_epi64(
                        _mm256_add_epi64(_mm256_and_si256(ll, p), _mm256_srli_epi64::<61>(ll)),
                        c,
                    ),
                );
                *acc = _mm256_add_epi64(_mm256_and_si256(s, p), _mm256_srli_epi64::<61>(s));
            }
        }
        let mut out = [[0u64; 4]; CHAINS];
        for (lanes, &acc) in out.iter_mut().zip(&acc) {
            // SAFETY: `lanes` is four `u64`s, 32 bytes, exclusively
            // borrowed.
            unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc) };
        }
        out
    }

    /// The AVX-512 Horner form: blocks of 4 × 8 chains, then single 8-lane
    /// chains, then the scalar 4-chain form for the last `< 8` inputs.
    /// Inputs are canonicalised on the way in and the accumulators once on
    /// the way out.  Registered by the dispatcher only after
    /// `is_x86_feature_detected!("avx512f")` succeeded.
    pub fn fp61_horner_avx512(coeffs: &[Fp61], xs: &mut [u64]) {
        for block in xs.as_chunks_mut::<32>().0 {
            let x: [[u64; 8]; 4] = std::array::from_fn(|chain| {
                std::array::from_fn(|lane| Fp61::from_u64(block[8 * chain + lane]).value())
            });
            // SAFETY: the dispatcher hands this function out only on CPUs
            // that reported AVX-512F.
            let acc = unsafe { horner_512(coeffs, &x) };
            for (out, &acc) in block.iter_mut().zip(acc.as_flattened()) {
                *out = Fp61::from_lazy(acc).value();
            }
        }
        let done = xs.len() / 32 * 32;
        for block in xs[done..].as_chunks_mut::<8>().0 {
            let x = [block.map(|x| Fp61::from_u64(x).value())];
            // SAFETY: as for the blocks.
            let [acc] = unsafe { horner_512(coeffs, &x) };
            *block = acc.map(|acc| Fp61::from_lazy(acc).value());
        }
        let done = xs.len() / 8 * 8;
        fp61_horner_scalar(coeffs, &mut xs[done..]);
    }

    /// The AVX2 Horner form: blocks of 4 × 4 chains, the scalar 4-chain
    /// form for the rest.  Registered by the dispatcher only after
    /// `is_x86_feature_detected!("avx2")` succeeded.
    pub fn fp61_horner_avx2(coeffs: &[Fp61], xs: &mut [u64]) {
        for block in xs.as_chunks_mut::<16>().0 {
            let x: [[u64; 4]; 4] = std::array::from_fn(|chain| {
                std::array::from_fn(|lane| Fp61::from_u64(block[4 * chain + lane]).value())
            });
            // SAFETY: the dispatcher hands this function out only on CPUs
            // that reported AVX2.
            let acc = unsafe { horner_256(coeffs, &x) };
            for (out, &acc) in block.iter_mut().zip(acc.as_flattened()) {
                *out = Fp61::from_lazy(acc).value();
            }
        }
        let done = xs.len() / 16 * 16;
        fp61_horner_scalar(coeffs, &mut xs[done..]);
    }
}

#[cfg(target_arch = "aarch64")]
mod aarch64 {
    use super::{assert_rows_block, gf256_addmul_scalar, nibble_tables8};
    use super::{gf2_16_addmul_rows_tables, Gf2_16, NibbleMul, RowsSource};
    use std::arch::aarch64::*;

    /// 16-lane nibble-table product via `vqtbl1q_u8`.  NEON is part of the
    /// AArch64 baseline, so no runtime detection is needed.
    #[inline]
    unsafe fn product16(vlo: uint8x16_t, vhi: uint8x16_t, s: uint8x16_t) -> uint8x16_t {
        let lo_nib = vandq_u8(s, vdupq_n_u8(0x0F));
        let hi_nib = vshrq_n_u8(s, 4);
        veorq_u8(vqtbl1q_u8(vlo, lo_nib), vqtbl1q_u8(vhi, hi_nib))
    }

    pub fn addmul_entry(dst: &mut [u8], src: &[u8], c: u8) {
        let (lo, hi) = nibble_tables8(c);
        unsafe {
            let vlo = vld1q_u8(lo.as_ptr());
            let vhi = vld1q_u8(hi.as_ptr());
            let whole = dst.len() / 16 * 16;
            for i in (0..whole).step_by(16) {
                let s = vld1q_u8(src.as_ptr().add(i));
                let d = vld1q_u8(dst.as_ptr().add(i));
                vst1q_u8(dst.as_mut_ptr().add(i), veorq_u8(d, product16(vlo, vhi, s)));
            }
            gf256_addmul_scalar(&mut dst[whole..], &src[whole..], c);
        }
    }

    /// `dst[i] ^= c · src[i]` over GF(2^16) for the constant `m` was built
    /// for, on the first `whole` elements (a multiple of sixteen), sixteen
    /// per iteration: `vld2q_u8` de-interleaves the low and high bytes of
    /// sixteen elements, four `vqtbl1q_u8` lookups per product byte do the
    /// multiplication, `vst2q_u8` re-interleaves.
    fn addmul16_row(dst: &mut [Gf2_16], src: &[Gf2_16], m: &NibbleMul, whole: usize) {
        assert!(whole.is_multiple_of(16) && whole <= dst.len() && whole <= src.len());
        let tables = &m.bytes;
        // `Gf2_16` is `repr(transparent)` over `u16`, so both slices are
        // `2 · len` plain bytes.
        let sp = src.as_ptr().cast::<u8>();
        let dp = dst.as_mut_ptr().cast::<u8>();
        // SAFETY: NEON is part of the AArch64 baseline.  Every table is a
        // 16-byte array.  `i + 16 <= whole <= len` of both slices (checked
        // above), so each 32-byte `vld2q_u8`/`vst2q_u8` at byte offset `2i`
        // ends at byte `2(i + 16)` at most; `dst` is exclusively borrowed and
        // the instructions take unaligned addresses.
        unsafe {
            let t: [uint8x16_t; 8] = std::array::from_fn(|n| vld1q_u8(tables[n].as_ptr()));
            let nibble = vdupq_n_u8(0x0F);
            for i in (0..whole).step_by(16) {
                let s = vld2q_u8(sp.add(2 * i));
                let n0 = vandq_u8(s.0, nibble);
                let n1 = vshrq_n_u8(s.0, 4);
                let n2 = vandq_u8(s.1, nibble);
                let n3 = vshrq_n_u8(s.1, 4);
                let product_lo = veorq_u8(
                    veorq_u8(vqtbl1q_u8(t[0], n0), vqtbl1q_u8(t[1], n1)),
                    veorq_u8(vqtbl1q_u8(t[2], n2), vqtbl1q_u8(t[3], n3)),
                );
                let product_hi = veorq_u8(
                    veorq_u8(vqtbl1q_u8(t[4], n0), vqtbl1q_u8(t[5], n1)),
                    veorq_u8(vqtbl1q_u8(t[6], n2), vqtbl1q_u8(t[7], n3)),
                );
                let d = vld2q_u8(dp.add(2 * i));
                let merged = uint8x16x2_t(veorq_u8(d.0, product_lo), veorq_u8(d.1, product_hi));
                vst2q_u8(dp.add(2 * i), merged);
            }
        }
    }

    /// The NEON backend's GF(2^16) kernel: the one-row body per row of each
    /// source, then the scalar walk for the columns past the last whole
    /// 16-element step.
    pub fn addmul16_rows_entry<const S: usize>(acc: &mut [Gf2_16], sources: [RowsSource<'_>; S]) {
        let w = assert_rows_block(acc, &sources);
        // The byte de-interleave assumes the low byte comes first.
        let whole = if cfg!(target_endian = "big") {
            0
        } else {
            w / 16 * 16
        };
        if whole > 0 {
            for (src, consts) in sources {
                for (row, m) in acc.chunks_exact_mut(w).zip(consts) {
                    addmul16_row(row, src, m, whole);
                }
            }
        }
        gf2_16_addmul_rows_tables(acc, &sources, whole);
    }
}

type AddmulFn = fn(&mut [u8], &[u8], u8);
type Addmul16RowsFn<const S: usize> = fn(&mut [Gf2_16], [RowsSource<'_>; S]);
type Fp61HornerFn = fn(&[Fp61], &mut [u64]);

/// A kernel backend: name plus the kernel entry points.  The GF(2^16) rows
/// kernel is one generic body per backend, registered at one and at two
/// sources; the Fp61 Horner form is named on its own because backends share
/// forms.
#[derive(Clone, Copy)]
pub(crate) struct Backend {
    name: &'static str,
    addmul: AddmulFn,
    addmul16_rows: Addmul16RowsFn<1>,
    addmul16_rows2: Addmul16RowsFn<2>,
    pub(crate) horner: &'static str,
    pub(crate) fp61_horner: Fp61HornerFn,
}

/// Every backend this CPU can run, fastest first: the dispatcher takes the
/// first, the forced-backend tests run them all.
pub(crate) fn available_backends() -> Vec<Backend> {
    let mut backends = Vec::new();
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("ssse3") {
        let avx2 = is_x86_feature_detected!("avx2");
        let avx512 = avx2 && is_x86_feature_detected!("avx512f");
        // GFNI's kernel also needs 512-bit byte and word lanes.
        if avx512 && is_x86_feature_detected!("avx512bw") && is_x86_feature_detected!("gfni") {
            backends.push(Backend {
                name: "gfni",
                addmul: x86::addmul_entry,
                addmul16_rows: x86::addmul16_rows_gfni,
                addmul16_rows2: x86::addmul16_rows_gfni,
                horner: "avx512",
                fp61_horner: x86::fp61_horner_avx512,
            });
        } else if avx512 {
            // AVX-512F without GFNI: the AVX2 GF kernels, the AVX-512 Horner
            // form.
            backends.push(Backend {
                name: "avx512",
                addmul: x86::addmul_entry,
                addmul16_rows: x86::addmul16_rows_avx2,
                addmul16_rows2: x86::addmul16_rows_avx2,
                horner: "avx512",
                fp61_horner: x86::fp61_horner_avx512,
            });
        }
        if avx2 {
            backends.push(Backend {
                name: "avx2",
                addmul: x86::addmul_entry,
                addmul16_rows: x86::addmul16_rows_avx2,
                addmul16_rows2: x86::addmul16_rows_avx2,
                horner: "avx2",
                fp61_horner: x86::fp61_horner_avx2,
            });
        }
        backends.push(Backend {
            name: "ssse3",
            addmul: x86::addmul_entry,
            addmul16_rows: x86::addmul16_rows_ssse3,
            addmul16_rows2: x86::addmul16_rows_ssse3,
            horner: "scalar",
            fp61_horner: fp61_horner_scalar,
        });
    }
    #[cfg(target_arch = "aarch64")]
    backends.push(Backend {
        name: "neon",
        addmul: aarch64::addmul_entry,
        addmul16_rows: aarch64::addmul16_rows_entry,
        addmul16_rows2: aarch64::addmul16_rows_entry,
        horner: "scalar",
        fp61_horner: fp61_horner_scalar,
    });
    backends.push(Backend {
        name: "swar",
        addmul: gf256_addmul_swar,
        addmul16_rows: gf2_16_addmul_rows_scalar,
        addmul16_rows2: gf2_16_addmul_rows_scalar,
        horner: "scalar",
        fp61_horner: fp61_horner_scalar,
    });
    backends
}

fn backend() -> Backend {
    static CHOSEN: OnceLock<Backend> = OnceLock::new();
    *CHOSEN.get_or_init(|| available_backends()[0])
}

/// The name of the kernel backend this process dispatched to: `"gfni"`,
/// `"avx512"` or `"avx2"` (all three keep the SSSE3 GF(2^8) kernels;
/// `"avx512"` is AVX-512F without GFNI, so the AVX2 GF(2^16) kernel),
/// `"ssse3"`, `"neon"`, or `"swar"` (which pairs the GF(2^8) SWAR kernel
/// with the scalar GF(2^16) one).
pub fn gf256_backend() -> &'static str {
    backend().name
}

/// The Fp61 Horner form of the backend this process dispatched to — the
/// one [`crate::KWiseHash::hash_many`] runs: `"avx512"`, `"avx2"` or
/// `"scalar"`.
pub fn fp61_horner_form() -> &'static str {
    backend().horner
}

/// `dst[i] ^= c · src[i]` over GF(2^8), via the fastest available backend.
///
/// All backends compute identical field arithmetic; see the module docs.
///
/// # Panics
///
/// Panics when the slices have different lengths.
pub fn gf256_addmul(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "gf256_addmul length mismatch");
    if c == 0 {
        return;
    }
    (backend().addmul)(dst, src, c)
}

/// A split-table constant multiplier over GF(2^16): multiplication by one
/// fixed constant `c` as four 4-bit nibble lookups,
/// `c·x = T₀[x₀] ⊕ T₁[x₁] ⊕ T₂[x₂] ⊕ T₃[x₃]` where `xₙ` is the `n`-th nibble
/// of `x`.  128 bytes of table per constant — built with sixteen carryless
/// doublings, no log/antilog traffic — so a matrix row prepared once serves
/// every subsequent row–vector product from L1.
#[derive(Debug, Clone)]
pub struct NibbleMul {
    /// The tables split by product byte, as the SIMD backends shuffle them:
    /// entry `n` holds the low bytes of `Tₙ`, entry `4 + n` its high bytes.
    bytes: [[u8; 16]; 8],
    /// The same multiplication as four 8 × 8 bit matrices over GF(2), in the
    /// `vgf2p8affineqb` layout (see [`affine_matrix`]): low byte → low byte,
    /// high → low, low → high, high → high.  Only the x86 GFNI kernel reads
    /// them.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    affine: [u64; 4],
}

/// The `vgf2p8affineqb` matrix of the GF(2)-linear byte map sending bit `j`
/// to `columns[j]`: output bit `i` is the parity of the input AND byte
/// `7 − i`, so byte `7 − i` holds bit `i` of every column.  Packing the
/// columns one per byte and transposing the 8 × 8 bit block gives row `i` in
/// byte `i`; the byte swap puts it in byte `7 − i`.
fn affine_matrix(columns: [u8; 8]) -> u64 {
    let mut m = u64::from_le_bytes(columns);
    for (shift, mask) in [
        (7, 0x00AA_00AA_00AA_00AA),
        (14, 0x0000_CCCC_0000_CCCC),
        (28, 0x0000_0000_F0F0_F0F0),
    ] {
        let t = (m ^ (m >> shift)) & mask;
        m ^= t ^ (t << shift);
    }
    m.swap_bytes()
}

impl NibbleMul {
    /// Build the four nibble tables for the constant `c`.
    pub fn new(c: Gf2_16) -> Self {
        // powers[i] = c · x^i, by repeated doubling modulo the field polynomial.
        let mut powers = [0u16; 16];
        let mut p = c.0 as u32;
        for slot in powers.iter_mut() {
            *slot = p as u16;
            p <<= 1;
            if p & 0x1_0000 != 0 {
                p ^= crate::gf2_16::PRIM_POLY;
            }
        }
        // Entry `d` extends the entry without `d`'s lowest set bit by that
        // bit's power, so each table costs fifteen XORs.
        let mut bytes = [[0u8; 16]; 8];
        for n in 0..4 {
            let mut table = [0u16; 16];
            for d in 1..16usize {
                table[d] = table[d & (d - 1)] ^ powers[4 * n + d.trailing_zeros() as usize];
            }
            for (d, [lo, hi]) in table.iter().map(|entry| entry.to_le_bytes()).enumerate() {
                bytes[n][d] = lo;
                bytes[4 + n][d] = hi;
            }
        }
        // Bit `j` of the low (high) input byte is `x^j` (`x^{8 + j}`), whose
        // product is `powers[j]` (`powers[8 + j]`); split by product byte.
        let columns = |from: usize, byte: usize| -> [u8; 8] {
            core::array::from_fn(|j| powers[from + j].to_le_bytes()[byte])
        };
        let affine = [
            affine_matrix(columns(0, 0)),
            affine_matrix(columns(8, 0)),
            affine_matrix(columns(0, 1)),
            affine_matrix(columns(8, 1)),
        ];
        NibbleMul { bytes, affine }
    }

    /// `c · x` for the constant this table was built for.
    #[inline]
    pub fn mul(&self, x: Gf2_16) -> Gf2_16 {
        let x = x.0 as usize;
        let nibbles = [x & 0xF, (x >> 4) & 0xF, (x >> 8) & 0xF, x >> 12];
        let mut product = [0u8; 2];
        for (n, &nibble) in nibbles.iter().enumerate() {
            product[0] ^= self.bytes[n][nibble];
            product[1] ^= self.bytes[4 + n][nibble];
        }
        Gf2_16(u16::from_le_bytes(product))
    }
}

/// One source of a GF(2^16) rows kernel call: a source row and one
/// split-table constant per row of the block it is folded into.
pub type RowsSource<'a> = (&'a [Gf2_16], &'a [NibbleMul]);

/// The block-shape contract of every GF(2^16) rows kernel — every source is
/// `w` wide and `acc` is `consts.len()` rows of `w` — which the SIMD
/// kernels' memory accesses rely on, so it is checked without overflow.
/// Returns `w`.
fn assert_rows_block(acc: &[Gf2_16], sources: &[RowsSource<'_>]) -> usize {
    let w = sources[0].0.len();
    for &(src, consts) in sources {
        assert_eq!(src.len(), w, "gf2_16_addmul_rows source width mismatch");
        assert_eq!(
            consts.len().checked_mul(w),
            Some(acc.len()),
            "gf2_16_addmul_rows block size mismatch"
        );
    }
    w
}

/// Columns `from..` of the rows block through the split tables, one element
/// at a time and one source after the other: the scalar GF(2^16) kernel,
/// and the tail of the SIMD ones.
fn gf2_16_addmul_rows_tables(acc: &mut [Gf2_16], sources: &[RowsSource<'_>], from: usize) {
    for &(src, consts) in sources {
        if from == src.len() {
            continue;
        }
        for (row, m) in acc.chunks_exact_mut(src.len()).zip(consts) {
            for (d, &s) in row[from..].iter_mut().zip(&src[from..]) {
                d.0 ^= m.mul(s).0;
            }
        }
    }
}

/// The scalar backend's GF(2^16) kernel.
fn gf2_16_addmul_rows_scalar<const S: usize>(acc: &mut [Gf2_16], sources: [RowsSource<'_>; S]) {
    assert_rows_block(acc, &sources);
    gf2_16_addmul_rows_tables(acc, &sources, 0);
}

/// `dst[i] ^= c · src[i]` over GF(2^16), scalar path.
///
/// This is the oracle the SIMD backends are property-tested against and the
/// kernel that runs on hosts without one; it is public so external tests and
/// benches can call it directly.
///
/// # Panics
///
/// Panics when the slices have different lengths.
pub fn gf2_16_addmul_scalar(dst: &mut [Gf2_16], src: &[Gf2_16], c: Gf2_16) {
    assert_eq!(dst.len(), src.len(), "gf2_16_addmul length mismatch");
    gf2_16_addmul_rows_tables(dst, &[(src, std::slice::from_ref(&NibbleMul::new(c)))], 0);
}

/// `dst[i] ^= c · src[i]` over GF(2^16), via the fastest available backend:
/// the one-row, one-source call of [`gf2_16_addmul_rows`].
///
/// All backends compute identical field arithmetic; see the module docs.
///
/// # Panics
///
/// Panics when the slices have different lengths.
pub fn gf2_16_addmul(dst: &mut [Gf2_16], src: &[Gf2_16], c: Gf2_16) {
    assert_eq!(dst.len(), src.len(), "gf2_16_addmul length mismatch");
    if c.0 == 0 {
        return;
    }
    (backend().addmul16_rows)(dst, [(src, std::slice::from_ref(&NibbleMul::new(c)))])
}

/// Row `j` of the block `acc` (row-major, rows as wide as the sources)
/// gains `Σ_s consts_s[j] · src_s` over GF(2^16), via the fastest available
/// backend: the fused multi-row kernel of the module docs, which splits each
/// source once for all rows and folds two sources per load–XOR–store of
/// `acc` (a last odd source goes alone).
///
/// All backends compute identical field arithmetic; see the module docs.
///
/// # Panics
///
/// Panics when a source's width differs from the first's, or
/// `acc.len() != consts.len() · width` for a source.
pub fn gf2_16_addmul_rows(acc: &mut [Gf2_16], sources: &[RowsSource<'_>]) {
    let kernels = backend();
    let (pairs, last) = sources.as_chunks::<2>();
    for &pair in pairs {
        (kernels.addmul16_rows2)(acc, pair);
    }
    if let [one] = *last {
        (kernels.addmul16_rows)(acc, [one]);
    }
}

/// One lazily reduced Horner chain ([`Fp61::mul_add_lazy`], one Mersenne
/// fold per step): `Σ_j coeffs[j]·x^j`, canonical only at the end.
/// [`crate::KWiseHash::hash`], and the scalar form's last `< 4` inputs.
#[inline]
pub(crate) fn fp61_horner_one(coeffs: &[Fp61], x: u64) -> u64 {
    let x = Fp61::from_u64(x);
    let acc = coeffs
        .iter()
        .rev()
        .fold(0, |acc, &c| Fp61::mul_add_lazy(acc, x, c));
    Fp61::from_lazy(acc).value()
}

/// The scalar Fp61 Horner form: `xs[i]` becomes `Σ_j coeffs[j]·xs[i]^j`,
/// canonical, with four inputs' lazily reduced chains walked in lockstep so
/// the multiplies overlap, and the last `< 4` one chain at a time.  The
/// non-x86 form and the tail of the vector ones.
pub(crate) fn fp61_horner_scalar(coeffs: &[Fp61], xs: &mut [u64]) {
    let (quads, rest) = xs.as_chunks_mut::<4>();
    for quad in quads {
        let x = quad.map(Fp61::from_u64);
        let mut acc = [0u64; 4];
        for &c in coeffs.iter().rev() {
            for lane in 0..4 {
                acc[lane] = Fp61::mul_add_lazy(acc[lane], x[lane], c);
            }
        }
        *quad = acc.map(|acc| Fp61::from_lazy(acc).value());
    }
    for x in rest {
        *x = fp61_horner_one(coeffs, *x);
    }
}

/// `xs[i]` becomes `Σ_j coeffs[j]·xs[i]^j` over Fp61, canonical, through
/// the dispatched backend's Horner form ([`fp61_horner_form`]).  Every form
/// computes the same field values.
pub(crate) fn fp61_horner(coeffs: &[Fp61], xs: &mut [u64]) {
    (backend().fp61_horner)(coeffs, xs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn xtime64_doubles_every_byte_independently() {
        for b in 0..=255u8 {
            let lane = u64::from_le_bytes([b, 0, b, 0xFF, 1, b.wrapping_add(3), 0, b]);
            let doubled = xtime64(lane);
            for (i, &src) in lane.to_le_bytes().iter().enumerate() {
                assert_eq!(doubled.to_le_bytes()[i], mul8(2, src), "byte {i} of {b:#x}");
            }
        }
    }

    #[test]
    fn addmul_identity_and_zero_constants() {
        let src: Vec<u8> = (0..50).map(|i| (i * 7 + 3) as u8).collect();
        let mut dst = vec![0u8; 50];
        gf256_addmul(&mut dst, &src, 1);
        assert_eq!(dst, src, "c = 1 accumulates src verbatim");
        let before = dst.clone();
        gf256_addmul(&mut dst, &src, 0);
        assert_eq!(dst, before, "c = 0 is a no-op");
        gf256_addmul(&mut dst, &src, 1);
        assert_eq!(dst, vec![0u8; 50], "xor-ing src twice cancels");
    }

    #[test]
    fn known_aes_product_through_every_backend() {
        // 0x57 · 0x83 = 0xC1 (FIPS-197): long enough to hit the vector body.
        let src = [0x57u8; 24];
        for backend in available_backends() {
            let mut dst = [0u8; 24];
            (backend.addmul)(&mut dst, &src, 0x83);
            assert_eq!(dst, [0xC1; 24], "{}", backend.name);
        }
    }

    /// The affine matrices against the field, bit by bit: applying each as
    /// `vgf2p8affineqb` defines it (output bit `i` = parity of the input AND
    /// byte `7 − i`) to every byte reproduces the split product.
    #[test]
    fn affine_matrices_are_the_byte_split_product() {
        let apply = |matrix: u64, x: u8| -> u8 {
            (0..8).fold(0, |out, i| {
                let row = matrix.to_le_bytes()[7 - i];
                out | (((row & x).count_ones() & 1) as u8) << i
            })
        };
        for c in (0..=0xFFFFu32).step_by(97).chain([1, 0xFFFF]) {
            let c = Gf2_16(c as u16);
            let [ll, hl, lh, hh] = NibbleMul::new(c).affine;
            for x in 0..=255u8 {
                let [lo, hi] = (c * Gf2_16(x as u16)).0.to_le_bytes();
                assert_eq!(
                    [apply(ll, x), apply(lh, x)],
                    [lo, hi],
                    "c={c:?} low byte {x:#x}"
                );
                let [lo, hi] = (c * Gf2_16((x as u16) << 8)).0.to_le_bytes();
                assert_eq!(
                    [apply(hl, x), apply(hh, x)],
                    [lo, hi],
                    "c={c:?} high byte {x:#x}"
                );
            }
        }
    }

    #[test]
    fn nibble_mul_matches_field_mul_on_a_grid() {
        for c in (0..=0xFFFFu32).step_by(251) {
            let m = NibbleMul::new(Gf2_16(c as u16));
            for x in (0..=0xFFFFu32).step_by(509) {
                let x = Gf2_16(x as u16);
                assert_eq!(m.mul(x), Gf2_16(c as u16) * x, "c={c:#x} x={x:?}");
            }
        }
    }

    /// Every length that exercises zero to four vector bodies plus every
    /// tail, on sub-slices starting one and two elements into their
    /// allocation (so neither 16- nor 4-byte aligned), for the constants the
    /// kernels special-case and random ones: the dispatched kernel, the
    /// `Field::addmul_slice` front door (which routes short slices through
    /// log/antilog) and the scalar fallback all equal plain field arithmetic.
    #[test]
    fn gf2_16_addmul_matches_the_scalar_oracle_at_every_length() {
        use crate::field::Field;
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x6F16);
        for len in 0..=70usize {
            for offset in 0..3usize {
                for c in [0u16, 1, rng.gen(), rng.gen()] {
                    let c = Gf2_16(c);
                    let src: Vec<Gf2_16> = (0..len + offset).map(|_| Gf2_16(rng.gen())).collect();
                    let dst: Vec<Gf2_16> = (0..len + offset).map(|_| Gf2_16(rng.gen())).collect();
                    let mut expect = dst.clone();
                    for (d, &s) in expect[offset..].iter_mut().zip(&src[offset..]) {
                        *d = *d + c * s;
                    }
                    let mut dispatched = dst.clone();
                    gf2_16_addmul(&mut dispatched[offset..], &src[offset..], c);
                    let mut front_door = dst.clone();
                    Gf2_16::addmul_slice(&mut front_door[offset..], &src[offset..], c);
                    let mut scalar = dst.clone();
                    gf2_16_addmul_scalar(&mut scalar[offset..], &src[offset..], c);
                    let case = format!("len {len} offset {offset} c {c:?}");
                    assert_eq!(dispatched, expect, "{} kernel, {case}", gf256_backend());
                    assert_eq!(front_door, expect, "addmul_slice, {case}");
                    assert_eq!(scalar, expect, "scalar kernel, {case}");
                }
            }
        }
    }

    /// The forced-backend test.  The table is the dispatcher's own, so a
    /// backend this CPU offers cannot go unchecked: every entry runs against
    /// plain field arithmetic (GF(2^16)) or the scalar kernels (GF(2^8)).
    /// GF(2^16) rows: 1..=40 rows, one and two sources, widths on both sides
    /// of the 16-, 32- and 64-lane steps, and one past three tiles plus a
    /// tail in every row count; GF(2^8) `addmul` from empty to
    /// several vector bodies.  Each on sub-slices 0, 1 and 2 elements into
    /// their allocation, with the constants 0 and 1 among random ones.
    #[test]
    fn every_backend_this_cpu_supports_matches_the_scalar_oracles() {
        use rand::{Rng, SeedableRng};
        let backends = available_backends();
        let names: Vec<&str> = backends.iter().map(|b| b.name).collect();
        assert_eq!(
            names[0],
            gf256_backend(),
            "the dispatcher runs the first entry"
        );
        assert_eq!(names.last(), Some(&"swar"));
        #[cfg(target_arch = "x86_64")]
        {
            let ssse3 = is_x86_feature_detected!("ssse3");
            let avx2 = ssse3 && is_x86_feature_detected!("avx2");
            let avx512 = avx2 && is_x86_feature_detected!("avx512f");
            let gfni =
                avx512 && is_x86_feature_detected!("avx512bw") && is_x86_feature_detected!("gfni");
            assert_eq!(names.contains(&"ssse3"), ssse3, "{names:?}");
            assert_eq!(names.contains(&"avx2"), avx2, "{names:?}");
            assert_eq!(names.contains(&"avx512"), avx512 && !gfni, "{names:?}");
            assert_eq!(names.contains(&"gfni"), gfni, "{names:?}");
        }
        #[cfg(target_arch = "aarch64")]
        assert_eq!(names[0], "neon");
        println!("kernel backends run: {names:?}");

        const WIDTHS: [usize; 17] = [
            0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 97, 127, 129, 511, 513, 1060,
        ];
        // Past three 512-element tiles, with a 32-lane step and a tail left.
        let long = 3 * 512 + 47;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xBAC6);
        for backend in &backends {
            for rows in 1..=40usize {
                let picks = [
                    WIDTHS[rows % WIDTHS.len()],
                    WIDTHS[(5 * rows + 2) % WIDTHS.len()],
                    WIDTHS[(3 * rows + 7) % WIDTHS.len()],
                    long,
                ];
                for (pick, width) in picks.into_iter().enumerate() {
                    for sources in 1..=2usize {
                        let offset = (rows + pick + sources) % 3;
                        let consts: Vec<Vec<Gf2_16>> = (0..sources)
                            .map(|s| {
                                (0..rows)
                                    .map(|j| {
                                        Gf2_16(match (s + j) % 7 {
                                            0 => 1,
                                            1 => 0,
                                            _ => rng.gen(),
                                        })
                                    })
                                    .collect()
                            })
                            .collect();
                        let srcs: Vec<Vec<Gf2_16>> = (0..sources)
                            .map(|_| (0..offset + width).map(|_| Gf2_16(rng.gen())).collect())
                            .collect();
                        let acc: Vec<Gf2_16> = (0..offset + rows * width)
                            .map(|_| Gf2_16(rng.gen()))
                            .collect();
                        let mut expect = acc.clone();
                        for (src, consts) in srcs.iter().zip(&consts) {
                            for (row, &c) in
                                expect[offset..].chunks_exact_mut(width.max(1)).zip(consts)
                            {
                                for (d, &s) in row.iter_mut().zip(&src[offset..]) {
                                    *d = *d + c * s;
                                }
                            }
                        }
                        let muls: Vec<Vec<NibbleMul>> = consts
                            .iter()
                            .map(|consts| consts.iter().map(|&c| NibbleMul::new(c)).collect())
                            .collect();
                        let source = |s: usize| (&srcs[s][offset..], &muls[s][..]);
                        let mut got = acc;
                        match sources {
                            1 => (backend.addmul16_rows)(&mut got[offset..], [source(0)]),
                            _ => {
                                (backend.addmul16_rows2)(&mut got[offset..], [source(0), source(1)])
                            }
                        }
                        assert_eq!(
                            got, expect,
                            "{} GF(2^16) rows: {rows} × {width}, {sources} sources, offset {offset}",
                            backend.name
                        );
                    }
                }
            }
            for len in (0..=70usize).chain([255, 256, 257, 1000]) {
                for offset in 0..3usize {
                    for c in [0u8, 1, rng.gen(), rng.gen()] {
                        let src: Vec<u8> = (0..offset + len).map(|_| rng.gen()).collect();
                        let dst: Vec<u8> = (0..offset + len).map(|_| rng.gen()).collect();
                        let case =
                            format!("{} GF(2^8), len {len} offset {offset} c {c}", backend.name);
                        let mut expect = dst.clone();
                        gf256_addmul_scalar(&mut expect[offset..], &src[offset..], c);
                        let mut got = dst;
                        (backend.addmul)(&mut got[offset..], &src[offset..], c);
                        assert_eq!(got, expect, "addmul, {case}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn gf2_16_addmul_rejects_unequal_lengths() {
        let src = [Gf2_16(1); 32];
        let mut dst = [Gf2_16(0); 33];
        gf2_16_addmul(&mut dst, &src, Gf2_16(7));
    }

    #[test]
    #[should_panic(expected = "block size mismatch")]
    fn gf2_16_addmul_rows_rejects_a_misshapen_block() {
        let src = [Gf2_16(1); 32];
        let mut acc = [Gf2_16(0); 63];
        gf2_16_addmul_rows(
            &mut acc,
            &[(
                &src,
                &[NibbleMul::new(Gf2_16(3)), NibbleMul::new(Gf2_16(5))],
            )],
        );
    }

    #[test]
    #[should_panic(expected = "source width mismatch")]
    fn gf2_16_addmul_rows_rejects_sources_of_unequal_width() {
        let muls = [NibbleMul::new(Gf2_16(3))];
        let mut acc = [Gf2_16(0); 32];
        gf2_16_addmul_rows(
            &mut acc,
            &[(&[Gf2_16(1); 32], &muls), (&[Gf2_16(1); 31], &muls)],
        );
    }

    /// The front door folds sources two at a time and a last odd one alone:
    /// one to five sources at a width with a vector body and a tail, against
    /// plain field arithmetic.
    #[test]
    fn dispatched_rows_fold_any_number_of_sources() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x2050);
        let (rows, width) = (3, 150);
        for sources in 1..=5usize {
            let srcs: Vec<Vec<Gf2_16>> = (0..sources)
                .map(|_| (0..width).map(|_| Gf2_16(rng.gen())).collect())
                .collect();
            let consts: Vec<Vec<Gf2_16>> = (0..sources)
                .map(|_| (0..rows).map(|_| Gf2_16(rng.gen())).collect())
                .collect();
            let mut expect = vec![Gf2_16(0); rows * width];
            for (src, consts) in srcs.iter().zip(&consts) {
                for (row, &c) in expect.chunks_exact_mut(width).zip(consts) {
                    for (d, &s) in row.iter_mut().zip(src) {
                        *d = *d + c * s;
                    }
                }
            }
            let muls: Vec<Vec<NibbleMul>> = consts
                .iter()
                .map(|consts| consts.iter().map(|&c| NibbleMul::new(c)).collect())
                .collect();
            let all: Vec<RowsSource<'_>> = srcs
                .iter()
                .zip(&muls)
                .map(|(src, muls)| (&src[..], &muls[..]))
                .collect();
            let mut got = vec![Gf2_16(0); rows * width];
            gf2_16_addmul_rows(&mut got, &all);
            assert_eq!(got, expect, "{sources} sources");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn dispatched_gf2_16_addmul_matches_the_scalar_oracle(
            pairs in prop::collection::vec((any::<u16>(), any::<u16>()), 0..400),
            c in any::<u16>(),
        ) {
            let src: Vec<Gf2_16> = pairs.iter().map(|&(s, _)| Gf2_16(s)).collect();
            let mut fast: Vec<Gf2_16> = pairs.iter().map(|&(_, d)| Gf2_16(d)).collect();
            let mut oracle = fast.clone();
            gf2_16_addmul(&mut fast, &src, Gf2_16(c));
            gf2_16_addmul_scalar(&mut oracle, &src, Gf2_16(c));
            prop_assert_eq!(fast, oracle, "backend {}", gf256_backend());
        }

        #[test]
        fn swar_addmul_matches_the_scalar_oracle(
            pairs in prop::collection::vec((any::<u8>(), any::<u8>()), 0..131),
            c in any::<u8>(),
        ) {
            let src: Vec<u8> = pairs.iter().map(|&(s, _)| s).collect();
            let mut swar: Vec<u8> = pairs.iter().map(|&(_, d)| d).collect();
            let mut oracle = swar.clone();
            gf256_addmul_swar(&mut swar, &src, c);
            gf256_addmul_scalar(&mut oracle, &src, c);
            prop_assert_eq!(swar, oracle);
        }

        #[test]
        fn dispatched_addmul_matches_the_scalar_oracle(
            pairs in prop::collection::vec((any::<u8>(), any::<u8>()), 0..131),
            c in any::<u8>(),
        ) {
            let src: Vec<u8> = pairs.iter().map(|&(s, _)| s).collect();
            let mut fast: Vec<u8> = pairs.iter().map(|&(_, d)| d).collect();
            let mut oracle = fast.clone();
            gf256_addmul(&mut fast, &src, c);
            gf256_addmul_scalar(&mut oracle, &src, c);
            prop_assert_eq!(fast, oracle, "backend {}", gf256_backend());
        }

        #[test]
        fn nibble_mul_matches_field_mul(c in any::<u16>(), x in any::<u16>()) {
            let m = NibbleMul::new(Gf2_16(c));
            prop_assert_eq!(m.mul(Gf2_16(x)), Gf2_16(c) * Gf2_16(x));
        }
    }
}
