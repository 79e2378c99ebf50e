//! Eight butterfly lanes in software: lazy Harvey NTT kernels on the
//! AVX-512 IFMA 52-bit multiplier.
//!
//! HEAX's NTT core multiplies on a 54-bit word built from 27-bit DSPs and
//! retires `n_c` butterflies per cycle (`heax_hw::wordsize` is the model of
//! that choice). `vpmadd52{lo,hi}uq` is the same bargain on a CPU: a word
//! narrower than the 64-bit register buys a multiplier eight lanes wide.
//! With `p < 2^50` every value of the `[0, 4p)` lazy domain fits the 52
//! bits the instruction reads, so Algorithm 2 (`MulRed`) runs on `w = 52`.
//!
//! No second twiddle table is kept. The 52-bit Shoup quotient is the stored
//! 64-bit one shifted right by 12 — `⌊⌊y·2^64/p⌋ / 2^12⌋ = ⌊y·2^52/p⌋` —
//! read straight out of the table's `[MulRedConstant]` (which is `repr(C)`
//! for that reason). Stages with a butterfly gap `t ≥ 8` broadcast one
//! twiddle per block; the stages `t = 4, 2, 1` run on sixteen coefficients
//! held in two registers, regrouped between stages by `permutex2var`
//! shuffles (the software twin of the paper's inter-stage multiplexers).
//!
//! The same word carries the element-wise half of the evaluator (the MULT
//! module and the DyadMult / MS end of Figure 5): a product of two 52-bit
//! words is the `(hi, lo)` pair the two instructions return, so a sum of
//! products is accumulated **double-width** in two registers and reduced
//! once ([`reduce_wide_lazy`]) instead of once per term.
//!
//! Key words arrive packed at their prime's width (`crate::packed`); the
//! accumulate widens eight of them with one `avx512vbmi` byte permute.
//!
//! The kernels are reachable only through a [`Lanes`] value, which exists
//! only if the host reported `avx512f`, `avx512ifma` and `avx512vbmi`;
//! the scalar kernels in [`crate::ntt`] and [`crate::word`] serve every
//! other host and wider moduli, and the strict Algorithms 3/4 and
//! `Modulus::{mul_mod, add_mod, sub_mod}` stay the oracle for both.

use core::arch::x86_64::{
    __m512i, __mmask64, _mm256_loadu_si256, _mm512_add_epi64, _mm512_and_si512,
    _mm512_cmpgt_epu64_mask, _mm512_cmplt_epu64_mask, _mm512_cvtepu32_epi64,
    _mm512_i32gather_epi64, _mm512_loadu_si512, _mm512_madd52hi_epu64, _mm512_madd52lo_epu64,
    _mm512_mask_set1_epi64, _mm512_maskz_permutexvar_epi8, _mm512_min_epu64, _mm512_or_si512,
    _mm512_permutex2var_epi64, _mm512_reduce_or_epi64, _mm512_set1_epi64, _mm512_setr_epi64,
    _mm512_setzero_si512, _mm512_shuffle_i64x2, _mm512_srli_epi64, _mm512_storeu_si512,
    _mm512_sub_epi64, _mm512_unpackhi_epi64, _mm512_unpacklo_epi64,
};

use crate::packed::{padding, PackedRow};
use crate::word::{Modulus, MulRedConstant};

/// Width of the IFMA multiplier's operands.
const WORD_BITS: u32 = 52;

/// Proof that this host runs `avx512f` + `avx512ifma` + `avx512vbmi` and
/// that the modulus it was detected for satisfies `p < 2^50`. The kernels
/// are methods on it, so safe code cannot reach them on a host without
/// the instructions.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Lanes(());

impl Lanes {
    /// The dispatch rule: host feature and `p < 2^50` (so `4p < 2^52`).
    /// The transforms further need `n ≥ 16` (one two-register chunk); the
    /// element-wise kernels take any length and leave the tail.
    pub(crate) fn detect(modulus: &Modulus) -> Option<Self> {
        (modulus.bits() <= WORD_BITS - 2 && Self::host()).then_some(Self(()))
    }

    /// The host half of the rule, which is all the bulk word loops of
    /// [`crate::word`] need: they multiply nothing, so any modulus rides.
    pub(crate) fn host() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512ifma")
            && std::arch::is_x86_feature_detected!("avx512vbmi")
    }

    /// In-place forward transform, natural order in, bit-reversed out.
    /// Input in `[0, 4p)`; output in `[0, 4p)`, or canonical `[0, p)` when
    /// `normalize` is set.
    ///
    /// # Panics
    ///
    /// Panics unless `a` and `fwd` both have the same length `n`, a power
    /// of two ≥ 16.
    // DOMAIN: [0,4p)
    pub(crate) fn forward_lazy(
        self,
        p: &Modulus,
        fwd: &[MulRedConstant],
        a: &mut [u64],
        normalize: bool,
    ) {
        check_lengths(fwd.len(), a.len());
        // SAFETY: a `Lanes` exists only after `detect` saw avx512f and
        // avx512ifma on this host (at table construction); the slice
        // lengths were just asserted equal to n, a power of two >= 16
        // (so n % 16 == 0).
        unsafe { forward_stages(&Consts::new(p), fwd, a, 1, normalize) }
    }

    /// Forward transform of `src` reduced on load into `dst` (output in
    /// `[0, 4p)`, not normalized). Reports `false` — with `dst` holding
    /// garbage — for an input the lanes cannot take, and the caller reruns
    /// the scalar kernel: a word of `src` that does not fit the 52 bits
    /// the multiplier reads, or `n = 16`, too short for the two-stage
    /// first pass.
    ///
    /// # Panics
    ///
    /// Panics unless `src`, `dst` and `fwd` all have the same length `n`, a
    /// power of two ≥ 16.
    // DOMAIN: [0,4p)
    #[must_use]
    pub(crate) fn forward_reduced(
        self,
        p: &Modulus,
        fwd: &[MulRedConstant],
        src: &[u64],
        dst: &mut [u64],
    ) -> bool {
        check_lengths(fwd.len(), src.len());
        check_lengths(fwd.len(), dst.len());
        if src.len() < 32 {
            return false;
        }
        // SAFETY: a `Lanes` exists only after `detect` saw avx512f and
        // avx512ifma on this host (at table construction); the slice
        // lengths were just asserted equal to n, a power of two >= 16
        // (so n % 16 == 0).
        unsafe {
            let c = Consts::new(p);
            let seen = first_stages_reduced(&c, fwd, src, dst);
            if seen >> WORD_BITS != 0 {
                return false;
            }
            forward_stages(&c, fwd, dst, 4, false);
        }
        true
    }

    /// In-place inverse transform, bit-reversed in, natural order out,
    /// scaled by `n⁻¹`. Input in `[0, 2p)`, butterflies in `[0, 2p)`,
    /// output canonical `[0, p)`.
    ///
    /// # Panics
    ///
    /// Panics unless `a` and `inv` both have the same length `n`, a power
    /// of two ≥ 16.
    // DOMAIN: [0,2p)
    pub(crate) fn inverse_lazy(
        self,
        p: &Modulus,
        inv: &[MulRedConstant],
        inv_n: &MulRedConstant,
        a: &mut [u64],
    ) {
        check_lengths(inv.len(), a.len());
        // SAFETY: a `Lanes` exists only after `detect` saw avx512f and
        // avx512ifma on this host (at table construction); the slice
        // lengths were just asserted equal to n, a power of two >= 16
        // (so n % 16 == 0).
        unsafe { inverse_stages(&Consts::new(p), inv, inv_n, a) }
    }

    // The element-wise kernels below work on whole chunks of eight
    // coefficients and return how many leading coefficients they wrote: all
    // but a tail shorter than eight, or fewer when a chunk held a word wider
    // than the 52 bits the multiplier reads (that chunk is left untouched).
    // The caller's scalar loop finishes from there.

    /// DyadMult, double-width: `d0[t] ← Σ_i x_i[τ(t)]·keys[i].0[t]` and
    /// `d1` likewise over `keys[i].1`, where `x_i` is row `i` of `xs` (rows
    /// of `d0.len()` words, any 52-bit words) and `τ` is `perm` or the
    /// identity. With `carry` the words already in `d0`/`d1` enter the
    /// sums. Key words must be below `p`, packed in rows of `d0.len()`
    /// words of one width. Handles nothing when
    /// `keys.len()·(p + 1) ≥ 2^52`, where the high accumulator could
    /// outgrow the word.
    ///
    /// # Panics
    ///
    /// Panics if a key row is not `d0.len()` words of the first row's
    /// width, or a permutation entry is out of range.
    // DOMAIN: [0,4p)
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn dyad_acc_lazy(
        self,
        p: &Modulus,
        xs: &[u64],
        perm: Option<&[u32]>,
        keys: &[(PackedRow<'_>, PackedRow<'_>)],
        carry: bool,
        d0: &mut [u64],
        d1: &mut [u64],
    ) -> usize {
        let Some(width) = keys.first().map(|(k0, _)| k0.width()) else {
            return 0;
        };
        // Every whole chunk's 64-byte load stays inside its row's bytes.
        let readable = d0.len() * width + padding(width);
        for (k0, k1) in keys {
            assert!(
                [k0, k1].iter().all(|k| k.len() == d0.len()
                    && k.width() == width
                    && k.bytes().len() >= readable),
                "key rows must be n words of one width"
            );
        }
        // Each product's high half is below p and each low half carries at
        // most one, so rows·p + rows < 2^52 keeps the high sum in the word.
        if keys.len() as u128 * (p.value() as u128 + 1) >= 1 << WORD_BITS {
            return 0;
        }
        // SAFETY: a `Lanes` exists only after `detect` saw avx512f,
        // avx512ifma and avx512vbmi on this host; every key row was just
        // checked to hold `d0.len()` words of `width` bytes and
        // `padding(width)` readable bytes past them.
        unsafe {
            dyad_acc_lazy(
                &Wide::new(p),
                &Widen::new(width),
                xs,
                perm,
                keys,
                carry,
                d0,
                d1,
            )
        }
    }

    /// `a[t] ← a[t] mod p` for any 52-bit words.
    #[must_use]
    pub(crate) fn reduce(self, p: &Modulus, a: &mut [u64]) -> usize {
        // SAFETY: a `Lanes` exists only after `detect` saw avx512f and
        // avx512ifma on this host.
        unsafe { reduce(&Consts::new(p), a) }
    }

    /// The MS step of Algorithm 6: `dst[t] ← (src[t] − r[t])·inv mod p`,
    /// plus `add.0[add.1[t]]` when given. `src` holds any 52-bit words,
    /// `r` words in `[0, 4p)`, the addend words below `p`; `dst` is
    /// canonical.
    ///
    /// # Panics
    ///
    /// Panics if a permutation entry is out of range.
    #[must_use]
    pub(crate) fn mod_switch(
        self,
        p: &Modulus,
        inv: &MulRedConstant,
        src: &[u64],
        r: &[u64],
        add: Option<(&[u64], &[u32])>,
        dst: &mut [u64],
    ) -> usize {
        // SAFETY: a `Lanes` exists only after `detect` saw avx512f and
        // avx512ifma on this host.
        unsafe { mod_switch(&Consts::new(p), Twiddle::broadcast(inv), src, r, add, dst) }
    }

    /// The MULT module's product: `dst[t] ← a[t]·b[t] mod p`, or
    /// `dst[t] + a[t]·b[t] mod p` with `acc`, for any 52-bit words;
    /// canonical output.
    #[must_use]
    pub(crate) fn dyad_mul(
        self,
        p: &Modulus,
        a: &[u64],
        b: &[u64],
        acc: bool,
        dst: &mut [u64],
    ) -> usize {
        // SAFETY: a `Lanes` exists only after `detect` saw avx512f and
        // avx512ifma on this host.
        unsafe { dyad_mul(&Wide::new(p), a, b, acc, dst) }
    }
}

fn check_lengths(n: usize, len: usize) {
    assert_eq!(len, n, "polynomial length must equal n");
    assert!(
        n >= 16 && n.is_power_of_two(),
        "lanes need a power-of-two n >= 16"
    );
}

/// Loads eight coefficients.
#[inline]
#[target_feature(enable = "avx512f")]
fn load(s: &[u64; 8]) -> __m512i {
    // SAFETY: `s` is a reference to exactly 64 readable bytes and the
    // unaligned load has no alignment requirement.
    unsafe { _mm512_loadu_si512(s.as_ptr().cast()) }
}

/// Stores eight coefficients.
#[inline]
#[target_feature(enable = "avx512f")]
fn store(d: &mut [u64; 8], v: __m512i) {
    // SAFETY: `d` is an exclusive reference to exactly 64 writable bytes
    // and the unaligned store has no alignment requirement.
    unsafe { _mm512_storeu_si512(d.as_mut_ptr().cast(), v) }
}

/// Loads four consecutive table entries as
/// `[y0, y0', y1, y1', y2, y2', y3, y3']`.
#[inline]
#[target_feature(enable = "avx512f")]
fn load_twiddles(w: &[MulRedConstant; 4]) -> __m512i {
    // SAFETY: `MulRedConstant` is `repr(C)` over two `u64`s (operand, then
    // quotient, no padding), so four of them are exactly 64 readable bytes;
    // the unaligned load has no alignment requirement.
    unsafe { _mm512_loadu_si512(w.as_ptr().cast()) }
}

/// Per-transform constants, broadcast to all lanes.
struct Consts {
    p: __m512i,
    /// `2^52 − p`: adding `q·(2^52 − p)` subtracts `q·p` modulo `2^52`.
    neg_p: __m512i,
    two_p: __m512i,
    mask: __m512i,
    /// `⌊2^52/p⌋`, the Shoup quotient of the constant 1 (reduce on load).
    one_quotient: __m512i,
}

/// [`Consts`] plus the radix of a double-width value, `2^52 mod p`.
struct Wide {
    c: Consts,
    radix: Twiddle,
}

impl Wide {
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn new(p: &Modulus) -> Self {
        let radix = MulRedConstant::new((1 << WORD_BITS) % p.value(), p);
        Self {
            c: Consts::new(p),
            radix: Twiddle::broadcast(&radix),
        }
    }
}

impl Consts {
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn new(p: &Modulus) -> Self {
        let word = 1u64 << WORD_BITS;
        Self {
            p: splat(p.value()),
            neg_p: splat(word - p.value()),
            two_p: splat(2 * p.value()),
            mask: splat(word - 1),
            // ⌊2^128/p⌋'s high word is ⌊2^64/p⌋.
            one_quotient: splat(p.barrett_ratio().1 >> (64 - WORD_BITS)),
        }
    }
}

#[inline]
#[target_feature(enable = "avx512f")]
fn splat(x: u64) -> __m512i {
    _mm512_set1_epi64(x as i64)
}

/// A twiddle and its 52-bit Shoup quotient, one per lane.
#[derive(Clone, Copy)]
struct Twiddle {
    y: __m512i,
    quotient: __m512i,
}

impl Twiddle {
    /// One table entry in every lane (stages with `t ≥ 8`).
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn broadcast(w: &MulRedConstant) -> Self {
        Self {
            y: splat(w.operand()),
            quotient: splat(w.quotient() >> (64 - WORD_BITS)),
        }
    }

    /// Two entries, four lanes each (`t = 4`).
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn quads(w: &[MulRedConstant; 2]) -> Self {
        let shift = 64 - WORD_BITS;
        Self {
            y: _mm512_mask_set1_epi64(splat(w[0].operand()), 0xf0, w[1].operand() as i64),
            quotient: _mm512_mask_set1_epi64(
                splat(w[0].quotient() >> shift),
                0xf0,
                (w[1].quotient() >> shift) as i64,
            ),
        }
    }

    /// Four entries, two lanes each (`t = 2`).
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn pairs(w: &[MulRedConstant; 4]) -> Self {
        let t = load_twiddles(w);
        Self {
            y: _mm512_unpacklo_epi64(t, t),
            quotient: _mm512_srli_epi64::<{ 64 - WORD_BITS }>(_mm512_unpackhi_epi64(t, t)),
        }
    }

    /// Eight entries, one lane each (`t = 1`): the two extra permutes that
    /// reading the interleaved table costs.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn singles([lo, hi]: &[[MulRedConstant; 4]; 2]) -> Self {
        let (lo, hi) = (load_twiddles(lo), load_twiddles(hi));
        Self {
            y: select(lo, EVENS, hi),
            quotient: _mm512_srli_epi64::<{ 64 - WORD_BITS }>(select(lo, ODDS, hi)),
        }
    }
}

// Selections of eight of the sixteen words of `(a, b)` for [`select`]:
// 0..8 name words of `a`, 8..16 words of `b`.

/// Even words.
const EVENS: [i64; 8] = [0, 2, 4, 6, 8, 10, 12, 14];
/// Odd words.
const ODDS: [i64; 8] = [1, 3, 5, 7, 9, 11, 13, 15];
/// `[a0, a1, b0, b1, a4, a5, b4, b5]`.
const EVEN_PAIRS: [i64; 8] = [0, 1, 8, 9, 4, 5, 12, 13];
/// `[a2, a3, b2, b3, a6, a7, b6, b7]`.
const ODD_PAIRS: [i64; 8] = [2, 3, 10, 11, 6, 7, 14, 15];
/// `[a0, b0, a1, b1, a2, b2, a3, b3]`.
const ZIP_LOW: [i64; 8] = [0, 8, 1, 9, 2, 10, 3, 11];
/// `[a4, b4, a5, b5, a6, b6, a7, b7]`.
const ZIP_HIGH: [i64; 8] = [4, 12, 5, 13, 6, 14, 7, 15];

/// The words of `(a, b)` that `index` names.
#[inline]
#[target_feature(enable = "avx512f")]
fn select(a: __m512i, [i0, i1, i2, i3, i4, i5, i6, i7]: [i64; 8], b: __m512i) -> __m512i {
    let index = _mm512_setr_epi64(i0, i1, i2, i3, i4, i5, i6, i7);
    _mm512_permutex2var_epi64(a, index, b)
}

/// Low 256 bits of `a` then low 256 bits of `b`.
const LOW_HALVES: i32 = 0b01_00_01_00;
/// High 256 bits of `a` then high 256 bits of `b`.
const HIGH_HALVES: i32 = 0b11_10_11_10;

/// Algorithm 2 on the 52-bit word without the final correction:
/// `x·y − ⌊x·y'/2^52⌋·p` for any `x < 2^52`.
// DOMAIN: [0,2p)
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn mul_lazy(c: &Consts, x: __m512i, w: Twiddle) -> __m512i {
    let zero = _mm512_setzero_si512();
    let q = _mm512_madd52hi_epu64(zero, x, w.quotient);
    let xy = _mm512_madd52lo_epu64(zero, x, w.y);
    _mm512_and_si512(_mm512_madd52lo_epu64(xy, q, c.neg_p), c.mask)
}

/// Any 52-bit word modulo `p`, as a `MulRed` by the constant 1 without
/// the final correction.
// DOMAIN: [0,2p)
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn reduce_lazy(c: &Consts, x: __m512i) -> __m512i {
    let q = _mm512_madd52hi_epu64(_mm512_setzero_si512(), x, c.one_quotient);
    _mm512_and_si512(_mm512_madd52lo_epu64(x, q, c.neg_p), c.mask)
}

/// `x − bound` when that does not wrap, else `x`: one conditional
/// subtraction (`[0, 4p)` to `[0, 2p)` with `2p`, `[0, 2p)` to `[0, p)`
/// with `p`).
#[inline]
#[target_feature(enable = "avx512f")]
fn cond_sub(x: __m512i, bound: __m512i) -> __m512i {
    _mm512_min_epu64(x, _mm512_sub_epi64(x, bound))
}

/// Cooley–Tukey butterfly: `(x + w·y, x − w·y)` for `x, y` in `[0, 4p)`.
/// With `REDUCE`, `x` and `y` are instead any 52-bit words: `x` comes below
/// `2p` through a `MulRed` by the constant 1 (`y` enters the twiddle
/// multiply as it is either way).
// DOMAIN: [0,4p)
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn forward_butterfly_lazy<const REDUCE: bool>(
    c: &Consts,
    x: __m512i,
    y: __m512i,
    w: Twiddle,
) -> (__m512i, __m512i) {
    let x = if REDUCE {
        reduce_lazy(c, x) // DOMAIN: [0,2p)
    } else {
        cond_sub(x, c.two_p) // DOMAIN: [0,2p)
    };
    let v = mul_lazy(c, y, w); // DOMAIN: [0,2p)
    (
        _mm512_add_epi64(x, v),
        _mm512_add_epi64(x, _mm512_sub_epi64(c.two_p, v)),
    )
}

/// Gentleman–Sande butterfly: `(x + y, (x − y)·w)` for `x, y` in
/// `[0, 2p)`.
// DOMAIN: [0,2p)
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn inverse_butterfly_lazy(c: &Consts, x: __m512i, y: __m512i, w: Twiddle) -> (__m512i, __m512i) {
    let sum = cond_sub(_mm512_add_epi64(x, y), c.two_p); // DOMAIN: [0,2p)
    let diff = _mm512_sub_epi64(_mm512_add_epi64(x, c.two_p), y);
    (sum, mul_lazy(c, diff, w)) // DOMAIN: [0,2p)
}

/// Two forward stages on four vectors a quarter block apart, so a pass
/// over memory retires two stages: the block's stage with `w[0]`, then
/// its halves' stages with `w[1]` and `w[2]`.
// DOMAIN: [0,4p)
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn forward_radix4_lazy<const REDUCE: bool>(
    c: &Consts,
    [x0, x1, x2, x3]: [__m512i; 4],
    w: [Twiddle; 3],
) -> [__m512i; 4] {
    let (x0, x2) = forward_butterfly_lazy::<REDUCE>(c, x0, x2, w[0]);
    let (x1, x3) = forward_butterfly_lazy::<REDUCE>(c, x1, x3, w[0]);
    let (x0, x1) = forward_butterfly_lazy::<false>(c, x0, x1, w[1]);
    let (x2, x3) = forward_butterfly_lazy::<false>(c, x2, x3, w[2]);
    [x0, x1, x2, x3]
}

/// Two inverse stages on four vectors a quarter block apart: the halves'
/// stages with `w[1]` and `w[2]`, then the block's stage with `w[0]`.
// DOMAIN: [0,2p)
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn inverse_radix4_lazy(
    c: &Consts,
    [x0, x1, x2, x3]: [__m512i; 4],
    w: [Twiddle; 3],
) -> [__m512i; 4] {
    let (x0, x1) = inverse_butterfly_lazy(c, x0, x1, w[1]);
    let (x2, x3) = inverse_butterfly_lazy(c, x2, x3, w[2]);
    let (x0, x2) = inverse_butterfly_lazy(c, x0, x2, w[0]);
    let (x1, x3) = inverse_butterfly_lazy(c, x1, x3, w[0]);
    [x0, x1, x2, x3]
}

/// Twiddles of a two-stage pass whose whole-block stage sits at level
/// `m`: for block `i`, `table[m + i]` and its halves' `table[2m + 2i]`,
/// `table[2m + 2i + 1]`.
#[inline]
#[target_feature(enable = "avx512f")]
fn radix4_twiddles(table: &[MulRedConstant], m: usize) -> impl Iterator<Item = [Twiddle; 3]> + '_ {
    let halves = table[2 * m..4 * m].as_chunks::<2>().0;
    table[m..2 * m].iter().zip(halves).map(|(w, [w_lo, w_hi])| {
        [
            Twiddle::broadcast(w),
            Twiddle::broadcast(w_lo),
            Twiddle::broadcast(w_hi),
        ]
    })
}

/// The two halves of `block`, eight coefficients at a time.
#[inline]
fn halves_mut(block: &mut [u64]) -> impl Iterator<Item = [&mut [u64; 8]; 2]> {
    let (lo, hi) = block.split_at_mut(block.len() / 2);
    let (lo, hi) = (lo.as_chunks_mut::<8>().0, hi.as_chunks_mut::<8>().0);
    lo.iter_mut().zip(hi).map(|(x, y)| [x, y])
}

/// The four quarters of `block`, eight coefficients at a time.
#[inline]
fn quarters_mut(block: &mut [u64]) -> impl Iterator<Item = [&mut [u64; 8]; 4]> {
    let (lo, hi) = block.split_at_mut(block.len() / 2);
    let (q0, q1) = lo.split_at_mut(lo.len() / 2);
    let (q2, q3) = hi.split_at_mut(hi.len() / 2);
    let (q0, q1) = (q0.as_chunks_mut::<8>().0, q1.as_chunks_mut::<8>().0);
    let (q2, q3) = (q2.as_chunks_mut::<8>().0, q3.as_chunks_mut::<8>().0);
    let pairs = q0.iter_mut().zip(q1).zip(q2.iter_mut().zip(q3));
    pairs.map(|((a, b), (c, d))| [a, b, c, d])
}

/// [`quarters_mut`] for a source that is only read.
#[inline]
fn quarters(block: &[u64]) -> impl Iterator<Item = [&[u64; 8]; 4]> {
    let (lo, hi) = block.split_at(block.len() / 2);
    let (q0, q1) = lo.split_at(lo.len() / 2);
    let (q2, q3) = hi.split_at(hi.len() / 2);
    let (q0, q1) = (q0.as_chunks::<8>().0, q1.as_chunks::<8>().0);
    let (q2, q3) = (q2.as_chunks::<8>().0, q3.as_chunks::<8>().0);
    let pairs = q0.iter().zip(q1).zip(q2.iter().zip(q3));
    pairs.map(|((a, b), (c, d))| [a, b, c, d])
}

/// The first two forward stages (`t = n/2`, `n/4`) reading `src` through
/// the reduction. Returns the OR of every source word so the caller can
/// tell whether all of them fit 52 bits.
// DOMAIN: [0,4p)
#[target_feature(enable = "avx512f,avx512ifma")]
fn first_stages_reduced(c: &Consts, fwd: &[MulRedConstant], src: &[u64], dst: &mut [u64]) -> u64 {
    let w = [1, 2, 3].map(|i| Twiddle::broadcast(&fwd[i]));
    let mut seen = _mm512_setzero_si512();
    for (s, d) in quarters(src).zip(quarters_mut(dst)) {
        let x = s.map(|s| load(s));
        seen = _mm512_or_si512(
            _mm512_or_si512(seen, _mm512_or_si512(x[0], x[1])),
            _mm512_or_si512(x[2], x[3]),
        );
        let x = forward_radix4_lazy::<true>(c, x, w);
        for (d, x) in d.into_iter().zip(x) {
            store(d, x);
        }
    }
    _mm512_reduce_or_epi64(seen) as u64
}

/// Forward stages from `m = first_m` to `m = n/2` over `a` (values in
/// `[0, 4p)`), optionally normalizing to `[0, p)` on the way out.
// DOMAIN: [0,4p)
#[target_feature(enable = "avx512f,avx512ifma")]
fn forward_stages(
    c: &Consts,
    fwd: &[MulRedConstant],
    a: &mut [u64],
    first_m: usize,
    normalize: bool,
) {
    let n = a.len();
    // Gaps t ≥ 8, one twiddle per block: two stages per pass while two
    // are left, then the odd one.
    let mut m = first_m;
    while n / (2 * m) >= 16 {
        for (block, w) in a.chunks_exact_mut(n / m).zip(radix4_twiddles(fwd, m)) {
            for s in quarters_mut(block) {
                let x = forward_radix4_lazy::<false>(c, [0, 1, 2, 3].map(|i| load(s[i])), w);
                for (s, x) in s.into_iter().zip(x) {
                    store(s, x);
                }
            }
        }
        m *= 4;
    }
    if n / (2 * m) >= 8 {
        for (block, w) in a.chunks_exact_mut(n / m).zip(&fwd[m..2 * m]) {
            let w = Twiddle::broadcast(w);
            for [sx, sy] in halves_mut(block) {
                let (x, y) = forward_butterfly_lazy::<false>(c, load(sx), load(sy), w);
                store(sx, x);
                store(sy, y);
            }
        }
    }
    // Stages t = 4, 2, 1 on sixteen coefficients in two registers.
    let chunks = a.as_chunks_mut::<8>().0.as_chunks_mut::<2>().0;
    let quads = fwd[n / 8..n / 4].as_chunks::<2>().0;
    let pairs = fwd[n / 4..n / 2].as_chunks::<4>().0;
    let singles = fwd[n / 2..].as_chunks::<4>().0.as_chunks::<2>().0;
    for ((([s0, s1], w4), w2), w1) in chunks.iter_mut().zip(quads).zip(pairs).zip(singles) {
        let (v0, v1) = (load(s0), load(s1));
        // t = 4: x = [v0[0..4], v1[0..4]], y = [v0[4..8], v1[4..8]].
        let x = _mm512_shuffle_i64x2::<LOW_HALVES>(v0, v1);
        let y = _mm512_shuffle_i64x2::<HIGH_HALVES>(v0, v1);
        let (x, y) = forward_butterfly_lazy::<false>(c, x, y, Twiddle::quads(w4));
        // t = 2: x = positions {0,1, 4,5, 8,9, 12,13}, y = the rest.
        let (x, y) = (select(x, EVEN_PAIRS, y), select(x, ODD_PAIRS, y));
        let (x, y) = forward_butterfly_lazy::<false>(c, x, y, Twiddle::pairs(w2));
        // t = 1: x = even positions, y = odd positions.
        let (x, y) = (_mm512_unpacklo_epi64(x, y), _mm512_unpackhi_epi64(x, y));
        let (x, y) = forward_butterfly_lazy::<false>(c, x, y, Twiddle::singles(w1));
        let (mut v0, mut v1) = (select(x, ZIP_LOW, y), select(x, ZIP_HIGH, y));
        if normalize {
            v0 = cond_sub(cond_sub(v0, c.two_p), c.p); // DOMAIN: [0,p)
            v1 = cond_sub(cond_sub(v1, c.two_p), c.p); // DOMAIN: [0,p)
        }
        store(s0, v0);
        store(s1, v1);
    }
}

/// All inverse stages over `a` (values in `[0, 2p)`), then the `n⁻¹`
/// pass that also normalizes to `[0, p)`.
// DOMAIN: [0,2p)
#[target_feature(enable = "avx512f,avx512ifma")]
fn inverse_stages(c: &Consts, inv: &[MulRedConstant], inv_n: &MulRedConstant, a: &mut [u64]) {
    let n = a.len();
    // Stages t = 1, 2, 4 on sixteen coefficients in two registers.
    let chunks = a.as_chunks_mut::<8>().0.as_chunks_mut::<2>().0;
    let singles = inv[n / 2..].as_chunks::<4>().0.as_chunks::<2>().0;
    let pairs = inv[n / 4..n / 2].as_chunks::<4>().0;
    let quads = inv[n / 8..n / 4].as_chunks::<2>().0;
    for ((([s0, s1], w1), w2), w4) in chunks.iter_mut().zip(singles).zip(pairs).zip(quads) {
        let (v0, v1) = (load(s0), load(s1));
        // t = 1: x = even positions, y = odd positions.
        let (x, y) = (select(v0, EVENS, v1), select(v0, ODDS, v1));
        let (x, y) = inverse_butterfly_lazy(c, x, y, Twiddle::singles(w1));
        // t = 2: x = positions {0,1, 4,5, 8,9, 12,13}, y = the rest.
        let (x, y) = (_mm512_unpacklo_epi64(x, y), _mm512_unpackhi_epi64(x, y));
        let (x, y) = inverse_butterfly_lazy(c, x, y, Twiddle::pairs(w2));
        // t = 4: x = [v0[0..4], v1[0..4]], y = [v0[4..8], v1[4..8]].
        let (x, y) = (select(x, EVEN_PAIRS, y), select(x, ODD_PAIRS, y));
        let (x, y) = inverse_butterfly_lazy(c, x, y, Twiddle::quads(w4));
        store(s0, _mm512_shuffle_i64x2::<LOW_HALVES>(x, y));
        store(s1, _mm512_shuffle_i64x2::<HIGH_HALVES>(x, y));
    }
    // Gaps t ≥ 8, one twiddle per block: two stages per pass while two
    // are left, then the odd one.
    let mut t = 8;
    while 2 * t < n {
        let m = n / (4 * t);
        for (block, w) in a.chunks_exact_mut(4 * t).zip(radix4_twiddles(inv, m)) {
            for s in quarters_mut(block) {
                let x = inverse_radix4_lazy(c, [0, 1, 2, 3].map(|i| load(s[i])), w);
                for (s, x) in s.into_iter().zip(x) {
                    store(s, x);
                }
            }
        }
        t *= 4;
    }
    if t < n {
        let m = n / (2 * t);
        for (block, w) in a.chunks_exact_mut(2 * t).zip(&inv[m..2 * m]) {
            let w = Twiddle::broadcast(w);
            for [sx, sy] in halves_mut(block) {
                let (x, y) = inverse_butterfly_lazy(c, load(sx), load(sy), w);
                store(sx, x);
                store(sy, y);
            }
        }
    }
    let scale = Twiddle::broadcast(inv_n);
    for s in a.as_chunks_mut::<8>().0 {
        let scaled = mul_lazy(c, load(s), scale); // DOMAIN: [0,2p)
        store(s, cond_sub(scaled, c.p)); // DOMAIN: [0,p)
    }
}

/// Whether any of the eight words needs more than the 52 bits the
/// multiplier reads.
#[inline]
#[target_feature(enable = "avx512f")]
fn too_wide(c: &Consts, x: __m512i) -> bool {
    _mm512_cmpgt_epu64_mask(x, c.mask) != 0
}

/// The eight words of `row` at the positions `index` names.
#[inline]
#[target_feature(enable = "avx512f")]
fn gather(row: &[u64], index: &[u32; 8]) -> __m512i {
    // SAFETY: `index` is a reference to exactly 32 readable bytes; the
    // unaligned load has no alignment requirement.
    let index = unsafe { _mm256_loadu_si256(index.as_ptr().cast()) };
    // Below 2^31 too, so the gather's signed 32-bit offsets are the
    // entries themselves.
    let bound = splat(row.len().min(1 << 31) as u64);
    let in_range = _mm512_cmplt_epu64_mask(_mm512_cvtepu32_epi64(index), bound);
    assert_eq!(in_range, 0xff, "permutation entry out of range");
    // SAFETY: every index was just checked to be below `row.len()` and
    // below 2^31, so each lane reads the eight bytes of one element of
    // `row`.
    unsafe { _mm512_i32gather_epi64::<8>(index, row.as_ptr().cast()) }
}

/// Widens eight packed `width`-byte words to eight 64-bit lanes: byte `j`
/// of lane `l` is byte `l·width + j` of the load for `j < width`, zero
/// above.
struct Widen {
    width: usize,
    index: __m512i,
    keep: __mmask64,
}

impl Widen {
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn new(width: usize) -> Self {
        let mut index = [0u8; 64];
        for (b, i) in index.iter_mut().enumerate() {
            *i = ((b / 8) * width + b % 8) as u8;
        }
        Self {
            width,
            // SAFETY: `index` is exactly 64 readable bytes; the unaligned
            // load has no alignment requirement.
            index: unsafe { _mm512_loadu_si512(index.as_ptr().cast()) },
            keep: ((1u64 << width) - 1) * 0x0101_0101_0101_0101,
        }
    }

    /// Words `8c..8c + 8` of `row`.
    ///
    /// # Safety
    ///
    /// `row` holds at least `8c + 8` words of `self.width` bytes and
    /// `padding(self.width)` readable bytes past its last word.
    #[inline]
    #[target_feature(enable = "avx512f,avx512vbmi")]
    unsafe fn load(&self, row: PackedRow<'_>, c: usize) -> __m512i {
        let at = 8 * self.width * c;
        debug_assert!(at + 64 <= row.bytes().len());
        // SAFETY: the 64 bytes from `at` are chunk `c`'s `8·width` bytes
        // and `64 − 8·width = padding(width)` more, all readable by the
        // caller's contract; the unaligned load has no alignment
        // requirement.
        let v = unsafe { _mm512_loadu_si512(row.bytes().as_ptr().add(at).cast()) };
        _mm512_maskz_permutexvar_epi8(self.keep, self.index, v)
    }
}

/// `hi·2^52 + lo` modulo `p`, for lane sums with `hi + (lo >> 52) < 2^52`:
/// the carry moves up, `hi` goes through a `MulRed` by `2^52 mod p` and
/// `lo` through one by 1, sharing the subtraction of `q·p`.
// DOMAIN: [0,4p)
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn reduce_wide_lazy(w: &Wide, hi: __m512i, lo: __m512i) -> __m512i {
    let c = &w.c;
    let zero = _mm512_setzero_si512();
    let hi = _mm512_add_epi64(hi, _mm512_srli_epi64::<WORD_BITS>(lo));
    let lo = _mm512_and_si512(lo, c.mask);
    let q = _mm512_madd52hi_epu64(zero, hi, w.radix.quotient);
    let q = _mm512_madd52hi_epu64(q, lo, c.one_quotient);
    let r = _mm512_madd52lo_epu64(lo, hi, w.radix.y);
    _mm512_and_si512(_mm512_madd52lo_epu64(r, q, c.neg_p), c.mask)
}

/// # Safety
///
/// Every key row holds `d0.len()` words of `widen.width` bytes and
/// `padding(widen.width)` readable bytes past them.
// DOMAIN: [0,4p)
#[target_feature(enable = "avx512f,avx512ifma,avx512vbmi")]
#[allow(clippy::too_many_arguments)]
unsafe fn dyad_acc_lazy(
    w: &Wide,
    widen: &Widen,
    xs: &[u64],
    perm: Option<&[u32]>,
    keys: &[(PackedRow<'_>, PackedRow<'_>)],
    carry: bool,
    d0: &mut [u64],
    d1: &mut [u64],
) -> usize {
    let n = d0.len();
    let zero = _mm512_setzero_si512();
    let perm = perm.map(|p| p.as_chunks::<8>().0);
    let chunks = d0.as_chunks_mut::<8>().0.iter_mut();
    let mut done = 0;
    for (t, (s0, s1)) in chunks.zip(d1.as_chunks_mut::<8>().0).enumerate() {
        let (mut lo0, mut lo1) = if carry {
            (load(s0), load(s1))
        } else {
            (zero, zero)
        };
        let (mut hi0, mut hi1) = (zero, zero);
        let mut seen = _mm512_or_si512(lo0, lo1);
        for (i, &(k0, k1)) in keys.iter().enumerate() {
            let row = &xs[i * n..][..n];
            let x = match perm {
                Some(perm) => gather(row, &perm[t]),
                None => load(&row.as_chunks::<8>().0[t]),
            };
            seen = _mm512_or_si512(seen, x);
            // SAFETY: chunk `t` is a whole chunk of `d0`, and every key
            // row holds `d0.len()` words and the padding past them (the
            // caller's contract).
            let (k0, k1) = unsafe { (widen.load(k0, t), widen.load(k1, t)) };
            lo0 = _mm512_madd52lo_epu64(lo0, x, k0);
            hi0 = _mm512_madd52hi_epu64(hi0, x, k0);
            lo1 = _mm512_madd52lo_epu64(lo1, x, k1);
            hi1 = _mm512_madd52hi_epu64(hi1, x, k1);
        }
        if too_wide(&w.c, seen) {
            break;
        }
        store(s0, reduce_wide_lazy(w, hi0, lo0)); // DOMAIN: [0,4p)
        store(s1, reduce_wide_lazy(w, hi1, lo1)); // DOMAIN: [0,4p)
        done += 8;
    }
    done
}

#[target_feature(enable = "avx512f,avx512ifma")]
fn reduce(c: &Consts, a: &mut [u64]) -> usize {
    let mut done = 0;
    for s in a.as_chunks_mut::<8>().0 {
        let x = load(s);
        if too_wide(c, x) {
            break;
        }
        store(s, cond_sub(reduce_lazy(c, x), c.p)); // DOMAIN: [0,2p)
        done += 8;
    }
    done
}

#[target_feature(enable = "avx512f,avx512ifma")]
fn mod_switch(
    c: &Consts,
    inv: Twiddle,
    src: &[u64],
    r: &[u64],
    add: Option<(&[u64], &[u32])>,
    dst: &mut [u64],
) -> usize {
    let add = add.map(|(a, perm)| (a, perm.as_chunks::<8>().0));
    let chunks = dst.as_chunks_mut::<8>().0.iter_mut();
    let sources = src.as_chunks::<8>().0.iter().zip(r.as_chunks::<8>().0);
    let mut done = 0;
    for (t, (d, (s, r))) in chunks.zip(sources).enumerate() {
        let (s, r) = (load(s), load(r));
        if too_wide(c, _mm512_or_si512(s, r)) {
            break;
        }
        let s = reduce_lazy(c, s); // DOMAIN: [0,2p)
        let r = cond_sub(r, c.two_p);
        let diff = _mm512_add_epi64(s, _mm512_sub_epi64(c.two_p, r));
        let mut v = cond_sub(mul_lazy(c, diff, inv), c.p); // DOMAIN: [0,2p)
        if let Some((a, perm)) = add {
            v = cond_sub(_mm512_add_epi64(v, gather(a, &perm[t])), c.p);
        }
        store(d, v);
        done += 8;
    }
    done
}

#[target_feature(enable = "avx512f,avx512ifma")]
fn dyad_mul(w: &Wide, a: &[u64], b: &[u64], acc: bool, dst: &mut [u64]) -> usize {
    let c = &w.c;
    let zero = _mm512_setzero_si512();
    let chunks = dst.as_chunks_mut::<8>().0.iter_mut();
    let operands = a.as_chunks::<8>().0.iter().zip(b.as_chunks::<8>().0);
    let mut done = 0;
    for (d, (a, b)) in chunks.zip(operands) {
        let (a, b) = (load(a), load(b));
        let addend = if acc { load(d) } else { zero };
        if too_wide(c, _mm512_or_si512(_mm512_or_si512(a, b), addend)) {
            break;
        }
        let lo = _mm512_madd52lo_epu64(addend, a, b);
        let hi = _mm512_madd52hi_epu64(zero, a, b);
        let v = reduce_wide_lazy(w, hi, lo); // DOMAIN: [0,4p)
        store(d, cond_sub(cond_sub(v, c.two_p), c.p));
        done += 8;
    }
    done
}
