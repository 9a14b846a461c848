//! Vectorized finite-field kernels behind the Reed–Solomon and key-schedule
//! hot loops.
//!
//! The coding crate's encode/syndrome/interpolation paths and the streamed
//! Vandermonde bit extraction all reduce to fused multiply–accumulate over
//! slices: `dst[i] += c · src[i]` for one constant `c` and long `src`/`dst`.
//! This module provides that kernel at three speeds for GF(2^8) and two for
//! GF(2^16):
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
//! * **SIMD** — nibble-table products through the byte-shuffle instruction:
//!   `pshufb` on x86-64 (SSSE3, runtime-detected) and `vqtbl1q_u8` on AArch64
//!   (NEON is baseline there), sixteen elements per iteration.  GF(2^8) needs
//!   two shuffles per sixteen elements; GF(2^16) splits each element into
//!   four nibbles and each table entry into its low and high byte, so eight
//!   shuffles per sixteen elements.
//!
//! Dispatch is resolved once per process into function pointers; all paths
//! compute the exact same field arithmetic, so results are bit-identical
//! regardless of which backend runs — the determinism contract of the
//! campaign layer does not depend on the host CPU.
//!
//! For GF(2^16) a 65536-entry table per constant would blow the cache, so
//! [`NibbleMul`] splits the operand into four 4-bit nibbles and XORs four
//! 16-entry table lookups — 128 bytes of table per constant, built with
//! sixteen carryless doublings.  [`crate::field::Field::addmul_slice`] uses
//! it whenever a constant is reused across a long enough slice.  Measured on
//! one 4 KiB cache-resident slice (`bench` probe `coding.gf2_16_addmul_mb_s`,
//! 2.1 GHz Xeon): scalar ≈ 2.0 GB/s, SSSE3 ≈ 9.0 GB/s.

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

/// `dst[i] = c · dst[i]` over GF(2^8), scalar path (the oracle).
pub fn gf256_mul_slice_scalar(dst: &mut [u8], c: u8) {
    for d in dst.iter_mut() {
        *d = mul8(c, *d);
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

/// Bit-sliced SWAR `dst[i] = c · dst[i]`.
fn gf256_mul_slice_swar(dst: &mut [u8], c: u8) {
    let mut lanes = dst.chunks_exact_mut(8);
    for d8 in &mut lanes {
        let mut lane = u64::from_le_bytes(d8[..].try_into().expect("8-byte chunk"));
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
        d8.copy_from_slice(&acc.to_le_bytes());
    }
    gf256_mul_slice_scalar(lanes.into_remainder(), c);
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

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{gf256_addmul_scalar, gf256_mul_slice_scalar, nibble_tables8};
    use super::{gf2_16_addmul_tables, Gf2_16, NibbleMul};
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

    #[target_feature(enable = "ssse3")]
    unsafe fn mul_slice(dst: &mut [u8], c: u8) {
        let (lo, hi) = nibble_tables8(c);
        let vlo = _mm_loadu_si128(lo.as_ptr() as *const __m128i);
        let vhi = _mm_loadu_si128(hi.as_ptr() as *const __m128i);
        let mask = _mm_set1_epi8(0x0F);
        let whole = dst.len() / 16 * 16;
        for i in (0..whole).step_by(16) {
            let d = _mm_loadu_si128(dst.as_ptr().add(i) as *const __m128i);
            let p = product16(vlo, vhi, mask, d);
            _mm_storeu_si128(dst.as_mut_ptr().add(i) as *mut __m128i, p);
        }
        gf256_mul_slice_scalar(&mut dst[whole..], c);
    }

    /// Safe entry point, registered by the dispatcher only after
    /// `is_x86_feature_detected!("ssse3")` succeeded.
    pub fn addmul_entry(dst: &mut [u8], src: &[u8], c: u8) {
        unsafe { addmul(dst, src, c) }
    }

    /// Safe entry point; see [`addmul_entry`].
    pub fn mul_slice_entry(dst: &mut [u8], c: u8) {
        unsafe { mul_slice(dst, c) }
    }

    /// `dst[i] ^= c · src[i]` over GF(2^16) for the constant `m` was built
    /// for, sixteen elements per iteration.  Each element is split into its
    /// low and high byte (`packus`), each byte into two nibbles; the product's
    /// low byte is the XOR of four shuffles of the low-byte tables, its high
    /// byte likewise, and `unpack` re-interleaves them.
    ///
    /// # Safety
    ///
    /// The CPU must support SSSE3 and the slices must have equal lengths.
    #[target_feature(enable = "ssse3")]
    unsafe fn addmul16(dst: &mut [Gf2_16], src: &[Gf2_16], m: &NibbleMul) {
        let tables = m.byte_tables();
        // SAFETY: every table is a 16-byte array; unaligned loads are allowed.
        let t: [__m128i; 8] =
            std::array::from_fn(|n| unsafe { _mm_loadu_si128(tables[n].as_ptr().cast()) });
        let nibble = _mm_set1_epi8(0x0F);
        let low_byte = _mm_set1_epi16(0x00FF);
        let whole = dst.len() / 16 * 16;
        // `Gf2_16` is `repr(transparent)` over `u16`, so both slices are
        // `2 · len` plain bytes.
        let sp = src.as_ptr().cast::<u8>();
        let dp = dst.as_mut_ptr().cast::<u8>();
        for i in (0..whole).step_by(16) {
            // SAFETY: `i + 16 <= whole <= len` of both slices (equal lengths
            // are the caller's contract), so the two 16-byte loads per slice
            // at byte offsets `2i` and `2i + 16` end at byte `2(i + 16)` at
            // most; `dst` is exclusively borrowed, and unaligned access is
            // what `loadu`/`storeu` are for.
            unsafe {
                let a = _mm_loadu_si128(sp.add(2 * i).cast());
                let b = _mm_loadu_si128(sp.add(2 * i + 16).cast());
                let lo = _mm_packus_epi16(_mm_and_si128(a, low_byte), _mm_and_si128(b, low_byte));
                let hi = _mm_packus_epi16(_mm_srli_epi16(a, 8), _mm_srli_epi16(b, 8));
                let n0 = _mm_and_si128(lo, nibble);
                let n1 = _mm_and_si128(_mm_srli_epi64(lo, 4), nibble);
                let n2 = _mm_and_si128(hi, nibble);
                let n3 = _mm_and_si128(_mm_srli_epi64(hi, 4), nibble);
                let product_lo = _mm_xor_si128(
                    _mm_xor_si128(_mm_shuffle_epi8(t[0], n0), _mm_shuffle_epi8(t[1], n1)),
                    _mm_xor_si128(_mm_shuffle_epi8(t[2], n2), _mm_shuffle_epi8(t[3], n3)),
                );
                let product_hi = _mm_xor_si128(
                    _mm_xor_si128(_mm_shuffle_epi8(t[4], n0), _mm_shuffle_epi8(t[5], n1)),
                    _mm_xor_si128(_mm_shuffle_epi8(t[6], n2), _mm_shuffle_epi8(t[7], n3)),
                );
                let da = dp.add(2 * i).cast::<__m128i>();
                let db = dp.add(2 * i + 16).cast::<__m128i>();
                let pa = _mm_unpacklo_epi8(product_lo, product_hi);
                let pb = _mm_unpackhi_epi8(product_lo, product_hi);
                _mm_storeu_si128(da, _mm_xor_si128(_mm_loadu_si128(da), pa));
                _mm_storeu_si128(db, _mm_xor_si128(_mm_loadu_si128(db), pb));
            }
        }
        gf2_16_addmul_tables(&mut dst[whole..], &src[whole..], m);
    }

    /// Safe entry point, registered by the dispatcher only after
    /// `is_x86_feature_detected!("ssse3")` succeeded.
    pub fn addmul16_entry(dst: &mut [Gf2_16], src: &[Gf2_16], m: &NibbleMul) {
        assert_eq!(dst.len(), src.len(), "gf2_16_addmul length mismatch");
        // SAFETY: lengths were just checked, and the dispatcher hands this
        // function out only on CPUs that reported SSSE3.
        unsafe { addmul16(dst, src, m) }
    }
}

#[cfg(target_arch = "aarch64")]
mod aarch64 {
    use super::{gf256_addmul_scalar, gf256_mul_slice_scalar, nibble_tables8};
    use super::{gf2_16_addmul_tables, Gf2_16, NibbleMul};
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

    pub fn mul_slice_entry(dst: &mut [u8], c: u8) {
        let (lo, hi) = nibble_tables8(c);
        unsafe {
            let vlo = vld1q_u8(lo.as_ptr());
            let vhi = vld1q_u8(hi.as_ptr());
            let whole = dst.len() / 16 * 16;
            for i in (0..whole).step_by(16) {
                let d = vld1q_u8(dst.as_ptr().add(i));
                vst1q_u8(dst.as_mut_ptr().add(i), product16(vlo, vhi, d));
            }
            gf256_mul_slice_scalar(&mut dst[whole..], c);
        }
    }

    /// `dst[i] ^= c · src[i]` over GF(2^16) for the constant `m` was built
    /// for, sixteen elements per iteration: `vld2q_u8` de-interleaves the low
    /// and high bytes of sixteen elements, four `vqtbl1q_u8` lookups per
    /// product byte do the multiplication, `vst2q_u8` re-interleaves.
    pub fn addmul16_entry(dst: &mut [Gf2_16], src: &[Gf2_16], m: &NibbleMul) {
        assert_eq!(dst.len(), src.len(), "gf2_16_addmul length mismatch");
        if cfg!(target_endian = "big") {
            // The byte de-interleave below assumes the low byte comes first.
            return gf2_16_addmul_tables(dst, src, m);
        }
        let tables = m.byte_tables();
        let whole = dst.len() / 16 * 16;
        // `Gf2_16` is `repr(transparent)` over `u16`, so both slices are
        // `2 · len` plain bytes.
        let sp = src.as_ptr().cast::<u8>();
        let dp = dst.as_mut_ptr().cast::<u8>();
        // SAFETY: NEON is part of the AArch64 baseline.  Every table is a
        // 16-byte array.  `i + 16 <= whole <= len` of both slices (lengths
        // checked above), so each 32-byte `vld2q_u8`/`vst2q_u8` at byte
        // offset `2i` ends at byte `2(i + 16)` at most; `dst` is exclusively
        // borrowed and the instructions take unaligned addresses.
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
        gf2_16_addmul_tables(&mut dst[whole..], &src[whole..], m);
    }
}

type AddmulFn = fn(&mut [u8], &[u8], u8);
type MulSliceFn = fn(&mut [u8], u8);
type Addmul16Fn = fn(&mut [Gf2_16], &[Gf2_16], &NibbleMul);

/// The resolved backend: name plus the kernel entry points.
#[derive(Clone, Copy)]
struct Backend {
    name: &'static str,
    addmul: AddmulFn,
    mul_slice: MulSliceFn,
    addmul16: Addmul16Fn,
}

fn backend() -> Backend {
    static CHOSEN: OnceLock<Backend> = OnceLock::new();
    *CHOSEN.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("ssse3") {
            return Backend {
                name: "ssse3",
                addmul: x86::addmul_entry,
                mul_slice: x86::mul_slice_entry,
                addmul16: x86::addmul16_entry,
            };
        }
        #[cfg(target_arch = "aarch64")]
        return Backend {
            name: "neon",
            addmul: aarch64::addmul_entry,
            mul_slice: aarch64::mul_slice_entry,
            addmul16: aarch64::addmul16_entry,
        };
        #[allow(unreachable_code)]
        Backend {
            name: "swar",
            addmul: gf256_addmul_swar,
            mul_slice: gf256_mul_slice_swar,
            addmul16: gf2_16_addmul_tables,
        }
    })
}

/// The name of the kernel backend this process dispatched to: `"ssse3"`,
/// `"neon"`, or `"swar"` (which pairs the GF(2^8) SWAR kernel with the scalar
/// GF(2^16) one).
pub fn gf256_backend() -> &'static str {
    backend().name
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

/// `dst[i] = c · dst[i]` over GF(2^8), via the fastest available backend.
pub fn gf256_mul_slice(dst: &mut [u8], c: u8) {
    match c {
        0 => dst.fill(0),
        1 => {}
        _ => (backend().mul_slice)(dst, c),
    }
}

/// A split-table constant multiplier over GF(2^16): multiplication by one
/// fixed constant `c` as four 4-bit nibble lookups,
/// `c·x = T₀[x₀] ⊕ T₁[x₁] ⊕ T₂[x₂] ⊕ T₃[x₃]` where `xₙ` is the `n`-th nibble
/// of `x`.  128 bytes of table per constant — built with sixteen carryless
/// doublings, no log/antilog traffic — so a matrix row prepared once serves
/// every subsequent row–vector product from L1.
#[derive(Debug, Clone)]
pub struct NibbleMul {
    tables: [[u16; 16]; 4],
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
        let mut tables = [[0u16; 16]; 4];
        for (n, table) in tables.iter_mut().enumerate() {
            for d in 1..16usize {
                table[d] = table[d & (d - 1)] ^ powers[4 * n + d.trailing_zeros() as usize];
            }
        }
        NibbleMul { tables }
    }

    /// `c · x` for the constant this table was built for.
    #[inline]
    pub fn mul(&self, x: Gf2_16) -> Gf2_16 {
        let x = x.0 as usize;
        Gf2_16(
            self.tables[0][x & 0xF]
                ^ self.tables[1][(x >> 4) & 0xF]
                ^ self.tables[2][(x >> 8) & 0xF]
                ^ self.tables[3][x >> 12],
        )
    }

    /// The tables split by product byte, as the SIMD backends shuffle them:
    /// entry `n` holds the low bytes of nibble table `n`, entry `4 + n` its
    /// high bytes.
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    fn byte_tables(&self) -> [[u8; 16]; 8] {
        let mut out = [[0u8; 16]; 8];
        for (n, table) in self.tables.iter().enumerate() {
            for (d, entry) in table.iter().enumerate() {
                out[n][d] = *entry as u8;
                out[4 + n][d] = (*entry >> 8) as u8;
            }
        }
        out
    }
}

/// `dst[i] ^= m · src[i]` through the split tables, one element at a time:
/// the scalar GF(2^16) kernel, and the tail of the SIMD ones.
fn gf2_16_addmul_tables(dst: &mut [Gf2_16], src: &[Gf2_16], m: &NibbleMul) {
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        d.0 ^= m.mul(s).0;
    }
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
    gf2_16_addmul_tables(dst, src, &NibbleMul::new(c));
}

/// `dst[i] ^= c · src[i]` over GF(2^16), via the fastest available backend.
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
    (backend().addmul16)(dst, src, &NibbleMul::new(c))
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
    fn mul_slice_special_constants() {
        let mut dst: Vec<u8> = (0..37).map(|i| (i * 11 + 1) as u8).collect();
        let orig = dst.clone();
        gf256_mul_slice(&mut dst, 1);
        assert_eq!(dst, orig);
        gf256_mul_slice(&mut dst, 0);
        assert_eq!(dst, vec![0u8; 37]);
    }

    #[test]
    fn known_aes_product_through_every_backend() {
        // 0x57 · 0x83 = 0xC1 (FIPS-197): long enough to hit the vector body.
        let src = [0x57u8; 24];
        let mut dispatched = [0u8; 24];
        gf256_addmul(&mut dispatched, &src, 0x83);
        assert_eq!(dispatched, [0xC1; 24]);
        let mut swar = [0u8; 24];
        gf256_addmul_swar(&mut swar, &src, 0x83);
        assert_eq!(swar, [0xC1; 24]);
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

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn gf2_16_addmul_rejects_unequal_lengths() {
        let src = [Gf2_16(1); 32];
        let mut dst = [Gf2_16(0); 33];
        gf2_16_addmul(&mut dst, &src, Gf2_16(7));
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
        fn dispatched_mul_slice_matches_the_scalar_oracle(
            data in prop::collection::vec(any::<u8>(), 0..131),
            c in any::<u8>(),
        ) {
            let mut fast = data.clone();
            let mut swar = data.clone();
            let mut oracle = data;
            gf256_mul_slice(&mut fast, c);
            gf256_mul_slice_swar(&mut swar, c);
            gf256_mul_slice_scalar(&mut oracle, c);
            prop_assert_eq!(&fast, &oracle, "backend {}", gf256_backend());
            prop_assert_eq!(&swar, &oracle);
        }

        #[test]
        fn nibble_mul_matches_field_mul(c in any::<u16>(), x in any::<u16>()) {
            let m = NibbleMul::new(Gf2_16(c));
            prop_assert_eq!(m.mul(Gf2_16(x)), Gf2_16(c) * Gf2_16(x));
        }
    }
}
