//! Word-level modular arithmetic.
//!
//! This module implements the two reduction algorithms the HEAX paper builds
//! every datapath on:
//!
//! * **Algorithm 1 (standard Barrett reduction)** — [`Modulus::reduce_u128`]
//!   reduces a double-word value `x ∈ [0, (p-1)²]` using the precomputed
//!   constant `u = ⌊2^{2w}/p⌋`.
//! * **Algorithm 2 (optimized modular multiplication)** — [`MulRedConstant`]
//!   precomputes `y' = ⌊y·2^w/p⌋` for a fixed operand `y` (e.g. a twiddle
//!   factor) so that `x·y mod p` needs only two single-word multiplications
//!   and one subtraction. The paper calls this `MulRed`.
//!
//! The HEAX hardware uses `w = 54`-bit native words (two 27-bit DSPs); the
//! software baseline (Microsoft SEAL) uses `w = 64`. We store residues in
//! `u64` and parameterize the correctness bound the way SEAL does: Algorithm 2
//! requires `p < 2^{w-2} = 2^62`. The hardware models in `heax-hw` separately
//! enforce the 52-bit bound of the 54-bit datapath.

use core::fmt;

use crate::MathError;

/// Maximum bit size of a modulus accepted by [`Modulus::new`].
///
/// Algorithm 2 requires `p < 2^{w-2}`; with `w = 64` words that is 62 bits.
pub const MAX_MODULUS_BITS: u32 = 62;

/// A word-sized prime (or odd) modulus with precomputed Barrett constants.
///
/// The precomputed ratio is `⌊2^128 / p⌋`, stored as two 64-bit words. This
/// is the `u = ⌊2^{2w}/p⌋` of Algorithm 1 with `w = 64`.
///
/// # Examples
///
/// ```
/// use heax_math::word::Modulus;
///
/// # fn main() -> Result<(), heax_math::MathError> {
/// let p = Modulus::new(1152921504606830593)?; // 60-bit NTT-friendly prime
/// assert_eq!(p.mul_mod(p.value() - 1, p.value() - 1), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modulus {
    value: u64,
    bits: u32,
    /// `⌊2^128 / value⌋`, low word.
    ratio_lo: u64,
    /// `⌊2^128 / value⌋`, high word.
    ratio_hi: u64,
    /// `(value + 1) / 2`, the inverse of 2 modulo `value` (value is odd).
    inv_two: u64,
}

impl fmt::Debug for Modulus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Modulus")
            .field("value", &self.value)
            .field("bits", &self.bits)
            .finish()
    }
}

impl fmt::Display for Modulus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.value)
    }
}

impl Modulus {
    /// Creates a modulus with precomputed Barrett constants.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidModulus`] if `value < 2`, `value` is even,
    /// or `value` needs more than [`MAX_MODULUS_BITS`] bits (the Algorithm 2
    /// correctness bound `p < 2^{w-2}`).
    pub fn new(value: u64) -> Result<Self, MathError> {
        if value < 3 || value.is_multiple_of(2) {
            return Err(MathError::InvalidModulus { value });
        }
        let bits = 64 - value.leading_zeros();
        if bits > MAX_MODULUS_BITS {
            return Err(MathError::InvalidModulus { value });
        }
        // floor(2^128 / p) == floor((2^128 - 1) / p) because p (odd, > 1)
        // never divides 2^128.
        let ratio = u128::MAX / value as u128;
        Ok(Self {
            value,
            bits,
            ratio_lo: ratio as u64,
            ratio_hi: (ratio >> 64) as u64,
            inv_two: (value + 1) >> 1,
        })
    }

    /// The modulus value `p`.
    #[inline]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Number of significant bits in `p`.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The Barrett ratio `⌊2^128/p⌋` as `(lo, hi)` words.
    #[inline]
    pub fn barrett_ratio(&self) -> (u64, u64) {
        (self.ratio_lo, self.ratio_hi)
    }

    /// Reduces a single word `x < 2^64` modulo `p` (Algorithm 1, single-word
    /// input). Uses only the high ratio word, exactly like SEAL's
    /// `barrett_reduce_64`.
    #[inline]
    pub fn reduce_u64(&self, x: u64) -> u64 {
        // q = floor(x * floor(2^128/p) / 2^128) approximated by the high
        // ratio word; error is at most one subtraction.
        let q = ((x as u128 * self.ratio_hi as u128) >> 64) as u64;
        let r = x.wrapping_sub(q.wrapping_mul(self.value));
        if r >= self.value {
            r - self.value
        } else {
            r
        }
    }

    /// Reduces a double word `x < 2^128` modulo `p` (Algorithm 1,
    /// double-word input; SEAL's `barrett_reduce_128`).
    #[inline]
    pub fn reduce_u128(&self, x: u128) -> u64 {
        let x_lo = x as u64;
        let x_hi = (x >> 64) as u64;

        // Compute floor(x * ratio / 2^128): we need the 128..192 bit window
        // of the 256-bit product; only its low word matters for Barrett.
        // Round 1: x_lo * ratio.
        let carry = ((x_lo as u128 * self.ratio_lo as u128) >> 64) as u64;
        let tmp2 = x_lo as u128 * self.ratio_hi as u128;
        let tmp1 = (tmp2 as u64).overflowing_add(carry);
        let tmp3 = ((tmp2 >> 64) as u64).wrapping_add(tmp1.1 as u64);
        // Round 2: x_hi * ratio.
        let tmp2 = x_hi as u128 * self.ratio_lo as u128;
        let sum = (tmp2 as u64).overflowing_add(tmp1.0);
        let carry2 = ((tmp2 >> 64) as u64).wrapping_add(sum.1 as u64);
        // Low word of floor(x*ratio/2^128):
        let q = x_hi
            .wrapping_mul(self.ratio_hi)
            .wrapping_add(tmp3)
            .wrapping_add(carry2);

        let r = x_lo.wrapping_sub(q.wrapping_mul(self.value));
        if r >= self.value {
            r - self.value
        } else {
            r
        }
    }

    /// `x + y mod p` for `x, y < p`.
    #[inline]
    pub fn add_mod(&self, x: u64, y: u64) -> u64 {
        debug_assert!(x < self.value && y < self.value);
        let s = x + y;
        if s >= self.value {
            s - self.value
        } else {
            s
        }
    }

    /// `x - y mod p` for `x, y < p`.
    #[inline]
    pub fn sub_mod(&self, x: u64, y: u64) -> u64 {
        debug_assert!(x < self.value && y < self.value);
        if x >= y {
            x - y
        } else {
            x + self.value - y
        }
    }

    /// `-x mod p` for `x < p`.
    #[inline]
    pub fn neg_mod(&self, x: u64) -> u64 {
        debug_assert!(x < self.value);
        if x == 0 {
            0
        } else {
            self.value - x
        }
    }

    /// `x · y mod p` for `x, y < p`, via double-word Barrett reduction.
    #[inline]
    pub fn mul_mod(&self, x: u64, y: u64) -> u64 {
        self.reduce_u128(x as u128 * y as u128)
    }

    /// `x / 2 mod p` for `x < p` (`p` odd). This is the halving step of the
    /// paper's INTT butterfly (Algorithm 4, line 5).
    #[inline]
    pub fn div2_mod(&self, x: u64) -> u64 {
        debug_assert!(x < self.value);
        if x & 1 == 0 {
            x >> 1
        } else {
            (x >> 1) + self.inv_two
        }
    }

    /// `2^{-1} mod p`.
    #[inline]
    pub fn inv_two(&self) -> u64 {
        self.inv_two
    }

    /// `x^e mod p` by square-and-multiply.
    pub fn pow_mod(&self, x: u64, mut e: u64) -> u64 {
        let mut base = self.reduce_u64(x);
        let mut acc = 1u64;
        while e > 0 {
            if e & 1 == 1 {
                acc = self.mul_mod(acc, base);
            }
            base = self.mul_mod(base, base);
            e >>= 1;
        }
        acc
    }

    /// `x^{-1} mod p` for prime `p`, via Fermat's little theorem.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NotInvertible`] if `x ≡ 0 (mod p)`.
    pub fn inv_mod(&self, x: u64) -> Result<u64, MathError> {
        let x = self.reduce_u64(x);
        if x == 0 {
            return Err(MathError::NotInvertible {
                value: x,
                modulus: self.value,
            });
        }
        let inv = self.pow_mod(x, self.value - 2);
        // Guard against a composite modulus sneaking in: verify.
        if self.mul_mod(inv, x) != 1 {
            return Err(MathError::NotInvertible {
                value: x,
                modulus: self.value,
            });
        }
        Ok(inv)
    }

    /// Reduces a signed value into `[0, p)`.
    #[inline]
    pub fn reduce_i64(&self, x: i64) -> u64 {
        if x >= 0 {
            self.reduce_u64(x as u64)
        } else {
            // -x may overflow for i64::MIN; widen first.
            let r = self.reduce_u128((-(x as i128)) as u128);
            self.neg_mod(r)
        }
    }

    /// Reduces a signed double word into `[0, p)`.
    #[inline]
    pub fn reduce_i128(&self, x: i128) -> u64 {
        if x >= 0 {
            self.reduce_u128(x as u128)
        } else {
            let r = self.reduce_u128(x.unsigned_abs());
            self.neg_mod(r)
        }
    }
}

/// A fixed multiplicand `y` with the precomputed quotient `y' = ⌊y·2^64/p⌋`
/// of Algorithm 2 (the paper's `MulRed`).
///
/// Used for all constants known ahead of time: twiddle factors, `p^{-1}`
/// factors in rescaling, gadget factors in key switching.
///
/// # Examples
///
/// ```
/// use heax_math::word::{Modulus, MulRedConstant};
///
/// # fn main() -> Result<(), heax_math::MathError> {
/// let p = Modulus::new(4611686018326724609)?;
/// let y = MulRedConstant::new(12345, &p);
/// assert_eq!(y.mul_red(678, &p), p.mul_mod(12345, 678));
/// # Ok(())
/// # }
/// ```
// `repr(C)`: the 8-lane NTT kernels load table entries as raw
// (operand, quotient) word pairs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C)]
pub struct MulRedConstant {
    operand: u64,
    quotient: u64,
}

impl MulRedConstant {
    /// Precomputes `y' = ⌊y·2^64/p⌋` for operand `y < p`.
    ///
    /// # Panics
    ///
    /// Debug-asserts `y < p`.
    #[inline]
    pub fn new(y: u64, modulus: &Modulus) -> Self {
        debug_assert!(y < modulus.value());
        let quotient = (((y as u128) << 64) / modulus.value() as u128) as u64;
        Self {
            operand: y,
            quotient,
        }
    }

    /// The operand `y`.
    #[inline]
    pub fn operand(&self) -> u64 {
        self.operand
    }

    /// The precomputed quotient `⌊y·2^64/p⌋`.
    #[inline]
    pub fn quotient(&self) -> u64 {
        self.quotient
    }

    /// Algorithm 2: `x·y mod p` with one high-word and two low-word
    /// multiplications.
    #[inline]
    pub fn mul_red(&self, x: u64, modulus: &Modulus) -> u64 {
        let r = self.mul_red_lazy(x, modulus); // DOMAIN: [0,2p)
        if r >= modulus.value() {
            r - modulus.value()
        } else {
            r
        }
    }

    /// Algorithm 2 without the final conditional subtraction; the result is
    /// in `[0, 2p)`. Useful for lazy-reduction pipelines (the hardware NTT
    /// core defers the correction to a later pipeline stage).
    #[inline]
    // DOMAIN: [0,2p)
    pub fn mul_red_lazy(&self, x: u64, modulus: &Modulus) -> u64 {
        // t <- floor(x*y'/2^64): the upper word of the product (Alg. 2 l.2).
        let t = ((x as u128 * self.quotient as u128) >> 64) as u64;
        // z <- x*y - t*p (mod 2^64): two lower-word products (l.1, l.3, l.4).
        x.wrapping_mul(self.operand)
            .wrapping_sub(t.wrapping_mul(modulus.value()))
    }
}

/// Precomputes a [`MulRedConstant`] table for a slice of fixed operands —
/// the software analogue of loading Shoup-form key material into the
/// MulRed units' constant banks. All values must be `< p`.
pub fn precompute_shoup(values: &[u64], modulus: &Modulus) -> Vec<MulRedConstant> {
    values
        .iter()
        .map(|&y| MulRedConstant::new(y, modulus))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p60() -> Modulus {
        Modulus::new(1152921504606830593).unwrap()
    }

    #[test]
    fn new_rejects_bad_moduli() {
        assert!(Modulus::new(0).is_err());
        assert!(Modulus::new(1).is_err());
        assert!(Modulus::new(2).is_err());
        assert!(Modulus::new(4).is_err());
        // 63-bit value exceeds MAX_MODULUS_BITS.
        assert!(Modulus::new((1u64 << 62) + 1).is_err());
        assert!(Modulus::new((1u64 << 61) + 1).is_ok());
    }

    #[test]
    fn reduce_u64_matches_rem() {
        let p = p60();
        for &x in &[0u64, 1, p.value() - 1, p.value(), p.value() + 1, u64::MAX] {
            assert_eq!(p.reduce_u64(x), x % p.value());
        }
    }

    #[test]
    fn reduce_u128_matches_rem() {
        let p = p60();
        let cases: [u128; 6] = [
            0,
            1,
            p.value() as u128 * p.value() as u128,
            (p.value() as u128 - 1) * (p.value() as u128 - 1),
            u128::from(u64::MAX) * 3 + 7,
            u128::MAX % (p.value() as u128 * p.value() as u128),
        ];
        for &x in &cases {
            assert_eq!(p.reduce_u128(x) as u128, x % p.value() as u128);
        }
    }

    #[test]
    fn add_sub_neg_roundtrip() {
        let p = p60();
        let a = 987654321987654321 % p.value();
        let b = 123456789123456789 % p.value();
        assert_eq!(p.sub_mod(p.add_mod(a, b), b), a);
        assert_eq!(p.add_mod(a, p.neg_mod(a)), 0);
        assert_eq!(p.neg_mod(0), 0);
    }

    #[test]
    fn mul_red_agrees_with_barrett() {
        let p = p60();
        let ys = [1u64, 2, 3, p.value() - 1, 0x1234_5678_9abc];
        let xs = [0u64, 1, 7, p.value() - 1, 0xdead_beef_1234];
        for &y in &ys {
            let c = MulRedConstant::new(y, &p);
            for &x in &xs {
                assert_eq!(c.mul_red(x, &p), p.mul_mod(x, y), "x={x} y={y}");
            }
        }
    }

    #[test]
    fn mul_red_lazy_is_within_2p() {
        let p = p60();
        let c = MulRedConstant::new(p.value() - 1, &p);
        for x in (0..1000u64).map(|i| i.wrapping_mul(0x9e3779b97f4a7c15) % p.value()) {
            let lazy = c.mul_red_lazy(x, &p);
            assert!(lazy < 2 * p.value());
            let exact = if lazy >= p.value() {
                lazy - p.value()
            } else {
                lazy
            };
            assert_eq!(exact, p.mul_mod(x, p.value() - 1));
        }
    }

    #[test]
    fn precompute_shoup_matches_scalar_constants() {
        let p = p60();
        let ys = [0u64, 1, 7, p.value() - 1];
        let table = precompute_shoup(&ys, &p);
        for (c, &y) in table.iter().zip(&ys) {
            assert_eq!(*c, MulRedConstant::new(y, &p));
            assert_eq!(c.mul_red(12345, &p), p.mul_mod(12345, y));
        }
    }

    #[test]
    fn div2_halves() {
        let p = p60();
        for &x in &[0u64, 1, 2, 3, p.value() - 1, p.value() - 2] {
            let h = p.div2_mod(x);
            assert_eq!(p.add_mod(h, h), x);
        }
    }

    #[test]
    fn pow_and_inv() {
        let p = p60();
        assert_eq!(p.pow_mod(2, 10), 1024);
        assert_eq!(p.pow_mod(0, 0), 1);
        let x = 0x0123_4567_89ab_cdef % p.value();
        let inv = p.inv_mod(x).unwrap();
        assert_eq!(p.mul_mod(x, inv), 1);
        assert!(p.inv_mod(0).is_err());
    }

    #[test]
    fn reduce_signed() {
        let p = p60();
        assert_eq!(p.reduce_i64(-1), p.value() - 1);
        assert_eq!(p.reduce_i64(5), 5);
        assert_eq!(p.reduce_i128(-(p.value() as i128) - 3), p.value() - 3);
        assert_eq!(p.reduce_i64(i64::MIN), {
            let m = (i64::MIN as i128).unsigned_abs() % p.value() as u128;
            p.neg_mod(m as u64)
        });
    }
}
