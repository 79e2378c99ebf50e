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
use core::mem::MaybeUninit;

#[cfg(target_arch = "x86_64")]
use crate::ifma::Lanes;
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

/// Rows [`Modulus::dyad_acc_lazy`] folds into one double-width
/// accumulation (and so reduces once); longer sums go batch by batch.
const ROW_BATCH: usize = 8;

/// A key row of [`Modulus::dyad_acc_lazy`]: what multiplies into `d0`, `d1`.
type KeyRow<'k> = (&'k [u64], &'k [u64]);

/// Element-wise kernels over residue slices: the arithmetic between the
/// transforms (the MULT module and the DyadMult / MS end of Figure 5).
///
/// Each picks its path per call from what it can observe: on an `x86_64`
/// host with `avx512ifma` and `p < 2^50`, the eight 52-bit lanes of
/// `ifma.rs` take the leading whole chunks of eight coefficients whose
/// words fit the multiplier, and the scalar loop finishes what they leave
/// (a short tail, anything after a wider word; everything on other hosts
/// and moduli). The `*_scalar` twins run that loop alone, for tests and
/// timings; the paths agree modulo `p`, and word for word where the
/// output is canonical.
impl Modulus {
    /// DyadMult (Algorithm 7, lines 11–12) as a **double-width
    /// accumulation with one reduction**: for every `t`,
    /// `d0[t] ← Σ_i x_i[τ(t)]·keys[i].0[t]` and `d1[t]` likewise over
    /// `keys[i].1`, where `x_i` is row `i` of `xs` (row-major rows of
    /// `n = d0.len()` arbitrary words), `τ` is `perm` or the identity, and
    /// the key words are canonical. The products are summed unreduced — a
    /// `(hi, lo)` pair of 52-bit-radix registers on the lanes, a `u128`
    /// in scalar — and reduced once per batch of rows: as many as a `u128`
    /// provably holds (`rows·p < 2^64`), at most eight. A batch the lane
    /// accumulator cannot hold (`rows·p + rows ≥ 2^52`) takes the scalar
    /// loop. Every output word is congruent to the sum and below `4p`.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree or a permutation entry is out
    /// of range.
    // DOMAIN: [0,4p)
    pub fn dyad_acc_lazy<'k>(
        &self,
        xs: &[u64],
        perm: Option<&[usize]>,
        keys: impl IntoIterator<Item = (&'k [u64], &'k [u64])>,
        d0: &mut [u64],
        d1: &mut [u64],
    ) {
        self.dyad_acc_batches(xs, keys, d0, d1, |xs, batch, carry, d0, d1| {
            let done = 0;
            #[cfg(target_arch = "x86_64")]
            let done = Lanes::detect(self).map_or(done, |l| {
                l.dyad_acc_lazy(self, xs, perm, batch, carry, d0, d1) // DOMAIN: [0,4p)
            });
            self.dyad_acc_from(done, xs, perm, batch, carry, d0, d1);
        });
    }

    /// [`Modulus::dyad_acc_lazy`] on the scalar loop alone.
    // DOMAIN: [0,4p)
    pub fn dyad_acc_lazy_scalar<'k>(
        &self,
        xs: &[u64],
        perm: Option<&[usize]>,
        keys: impl IntoIterator<Item = (&'k [u64], &'k [u64])>,
        d0: &mut [u64],
        d1: &mut [u64],
    ) {
        self.dyad_acc_batches(xs, keys, d0, d1, |xs, batch, carry, d0, d1| {
            self.dyad_acc_from(0, xs, perm, batch, carry, d0, d1);
        });
    }

    /// Cuts the rows into batches one accumulation holds and runs
    /// `fold(rows of xs, key rows, carry, d0, d1)` on each; a batch after
    /// the first carries the words already in `d0`/`d1` into its sums.
    fn dyad_acc_batches<'k>(
        &self,
        xs: &[u64],
        keys: impl IntoIterator<Item = KeyRow<'k>>,
        d0: &mut [u64],
        d1: &mut [u64],
        mut fold: impl FnMut(&[u64], &[KeyRow<'k>], bool, &mut [u64], &mut [u64]),
    ) {
        let n = d0.len();
        assert_eq!(d1.len(), n, "accumulators must have one length");
        // A u128 holds `rows` products below 2^64·p plus a carried word
        // while rows·p < 2^64.
        let fit = ROW_BATCH.min((u64::MAX / self.value) as usize);
        let mut keys = keys.into_iter();
        let mut batch: [KeyRow<'k>; ROW_BATCH] = [(&[], &[]); ROW_BATCH];
        let mut rows = 0;
        loop {
            let mut len = 0;
            for k in keys.by_ref().take(fit) {
                batch[len] = k;
                len += 1;
            }
            if len == 0 {
                break;
            }
            let xs = &xs[rows * n..][..len * n];
            fold(xs, &batch[..len], rows > 0, d0, d1);
            rows += len;
        }
        assert_eq!(xs.len(), rows * n, "one row of `xs` per key row");
        if rows == 0 {
            d0.fill(0);
            d1.fill(0);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn dyad_acc_from(
        &self,
        start: usize,
        xs: &[u64],
        perm: Option<&[usize]>,
        keys: &[KeyRow<'_>],
        carry: bool,
        d0: &mut [u64],
        d1: &mut [u64],
    ) {
        // Row by row over a block of coefficients, so every row is a pass
        // over contiguous words and the sums stay in L1. A sum leaves as
        // hi·2^64 + lo the way the lanes' does on their word: hi through a
        // MulRed by the radix 2^64 mod p, lo through Barrett.
        const BLOCK: usize = 16;
        let n = d0.len();
        let radix = MulRedConstant::new(((1u128 << 64) % self.value as u128) as u64, self);
        // DOMAIN: [0,2p)
        let fold = |a: u128| radix.mul_red_lazy((a >> 64) as u64, self) + self.reduce_u64(a as u64);
        for from in (start..n).step_by(BLOCK) {
            let len = BLOCK.min(n - from);
            let (o0, o1) = (&mut d0[from..][..len], &mut d1[from..][..len]);
            let (mut a0, mut a1) = ([0u128; BLOCK], [0u128; BLOCK]);
            if carry {
                for j in 0..len {
                    (a0[j], a1[j]) = (o0[j] as u128, o1[j] as u128);
                }
            }
            for (i, (k0, k1)) in keys.iter().enumerate() {
                let (row, k0, k1) = (&xs[i * n..][..n], &k0[from..][..len], &k1[from..][..len]);
                for j in 0..len {
                    let x = row[perm.map_or(from + j, |p| p[from + j])] as u128;
                    a0[j] += x * k0[j] as u128;
                    a1[j] += x * k1[j] as u128;
                }
            }
            for j in 0..len {
                (o0[j], o1[j]) = (fold(a0[j]), fold(a1[j]));
            }
        }
    }

    /// `a[t] ← a[t] mod p` for arbitrary words.
    pub fn reduce_words(&self, a: &mut [u64]) {
        let done = 0;
        #[cfg(target_arch = "x86_64")]
        let done = Lanes::detect(self).map_or(done, |l| l.reduce(self, a));
        for x in &mut a[done..] {
            *x = self.reduce_u64(*x);
        }
    }

    /// The MS step of `Floor` (Algorithm 6, line 6), optionally with an
    /// addend read through a permutation (the `τ(c₀)` of a rotation):
    /// `dst[t] ← (src[t] − r[t])·inv + add.0[add.1[t]]  mod p`.
    ///
    /// `src` holds arbitrary words; `r` words below `4p` — canonical if
    /// `p ≥ 2^60`, where `4p` need not fit a word; the addend canonical
    /// words. `dst` is canonical.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree or a permutation entry is out
    /// of range.
    pub fn mod_switch(
        &self,
        inv: &MulRedConstant,
        src: &[u64],
        r: &[u64],
        add: Option<(&[u64], &[usize])>,
        dst: &mut [u64],
    ) {
        let done = 0;
        #[cfg(target_arch = "x86_64")]
        let done = Lanes::detect(self).map_or(done, |l| l.mod_switch(self, inv, src, r, add, dst));
        self.mod_switch_from(done, inv, src, r, add, dst);
    }

    /// [`Modulus::mod_switch`] on the scalar loop alone.
    pub fn mod_switch_scalar(
        &self,
        inv: &MulRedConstant,
        src: &[u64],
        r: &[u64],
        add: Option<(&[u64], &[usize])>,
        dst: &mut [u64],
    ) {
        self.mod_switch_from(0, inv, src, r, add, dst);
    }

    fn mod_switch_from(
        &self,
        start: usize,
        inv: &MulRedConstant,
        src: &[u64],
        r: &[u64],
        add: Option<(&[u64], &[usize])>,
        dst: &mut [u64],
    ) {
        let n = dst.len();
        assert!(src.len() == n && r.len() == n, "slice lengths must agree");
        // Keeps `src − r` non-negative for either representative of `r`.
        let off = if self.bits <= 60 {
            4 * self.value
        } else {
            self.value
        };
        for t in start..n {
            let v = inv.mul_red(self.reduce_u64(src[t]) + off - r[t], self);
            dst[t] = match add {
                Some((a, perm)) => self.add_mod(v, a[perm[t]]),
                None => v,
            };
        }
    }

    /// The MULT module's dyadic product (Algorithm 5):
    /// `dst[t] ← a[t]·b[t] mod p`, or `dst[t] + a[t]·b[t] mod p` with
    /// `acc` — the product and the addend summed double-width and reduced
    /// once. Canonical output for arbitrary words.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree.
    pub fn dyad_mul(&self, a: &[u64], b: &[u64], acc: bool, dst: &mut [u64]) {
        let done = 0;
        #[cfg(target_arch = "x86_64")]
        let done = Lanes::detect(self).map_or(done, |l| l.dyad_mul(self, a, b, acc, dst));
        self.dyad_mul_from(done, a, b, acc, dst);
    }

    /// [`Modulus::dyad_mul`] on the scalar loop alone.
    pub fn dyad_mul_scalar(&self, a: &[u64], b: &[u64], acc: bool, dst: &mut [u64]) {
        self.dyad_mul_from(0, a, b, acc, dst);
    }

    fn dyad_mul_from(&self, start: usize, a: &[u64], b: &[u64], acc: bool, dst: &mut [u64]) {
        let n = dst.len();
        assert!(a.len() == n && b.len() == n, "slice lengths must agree");
        for t in start..n {
            let addend = if acc { dst[t] } else { 0 };
            dst[t] = self.reduce_u128(addend as u128 + a[t] as u128 * b[t] as u128);
        }
    }
}

/// Bulk passes over a limb that multiply nothing: the wire codec's and
/// `CKKS.Add`'s. Each is one safe, branch-free loop over whole words that
/// the compiler turns into vector code. The two here hang on an unsigned
/// 64-bit compare or minimum, which the baseline `x86_64` target has no
/// vector form of, so the same loop is compiled a second time for 512-bit
/// lanes and picked per call by the host half of the rule above, whatever
/// the modulus. The `*_scalar` twins run the baseline build alone, for
/// tests and timings; one source, so the builds agree word for word.
impl Modulus {
    /// `dst[t] ←` little-endian word `t` of `src`, and whether every one
    /// of them is canonical (`< p`). All of `dst` is written either way.
    ///
    /// # Panics
    ///
    /// Panics unless `src` holds exactly eight bytes per word of `dst`.
    #[must_use]
    pub fn decode_le_words(&self, src: &[u8], dst: &mut [u64]) -> bool {
        #[cfg(target_arch = "x86_64")]
        if Lanes::host() {
            // SAFETY: `Lanes::host` just saw avx512f on this host.
            return unsafe { decode_le_words_wide(self.value, src, dst) };
        }
        decode_le_words_loop(self.value, src, dst)
    }

    /// [`Modulus::decode_le_words`] on the baseline build alone.
    #[must_use]
    pub fn decode_le_words_scalar(&self, src: &[u8], dst: &mut [u64]) -> bool {
        decode_le_words_loop(self.value, src, dst)
    }

    /// `a[t] ← a[t] + b[t] mod p` for canonical words.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree.
    pub fn add_assign_words(&self, a: &mut [u64], b: &[u64]) {
        #[cfg(target_arch = "x86_64")]
        if Lanes::host() {
            // SAFETY: `Lanes::host` just saw avx512f on this host.
            return unsafe { add_assign_words_wide(self.value, a, b) };
        }
        add_assign_words_loop(self.value, a, b);
    }

    /// [`Modulus::add_assign_words`] on the baseline build alone.
    pub fn add_assign_words_scalar(&self, a: &mut [u64], b: &[u64]) {
        add_assign_words_loop(self.value, a, b);
    }
}

#[inline(always)]
fn decode_le_words_loop(p: u64, src: &[u8], dst: &mut [u64]) -> bool {
    let (words, rest) = src.as_chunks::<8>();
    assert!(
        rest.is_empty() && words.len() == dst.len(),
        "eight bytes per word"
    );
    let mut stray = false;
    for (d, s) in dst.iter_mut().zip(words) {
        *d = u64::from_le_bytes(*s);
        stray |= *d >= p;
    }
    !stray
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn decode_le_words_wide(p: u64, src: &[u8], dst: &mut [u64]) -> bool {
    decode_le_words_loop(p, src, dst)
}

#[inline(always)]
fn add_assign_words_loop(p: u64, a: &mut [u64], b: &[u64]) {
    assert_eq!(a.len(), b.len(), "slice lengths must agree");
    for (x, &y) in a.iter_mut().zip(b) {
        // The difference wraps above the sum exactly when the sum is
        // already below p.
        let sum = x.wrapping_add(y);
        *x = sum.min(sum.wrapping_sub(p));
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn add_assign_words_wide(p: u64, a: &mut [u64], b: &[u64]) {
    add_assign_words_loop(p, a, b);
}

/// Appends `words` to `out` as little-endian bytes, after one `reserve`.
pub fn encode_le_words(words: &[u64], out: &mut Vec<u8>) {
    let len = 8 * words.len();
    out.reserve(len);
    let (chunks, _) = out.spare_capacity_mut()[..len].as_chunks_mut::<8>();
    for (d, w) in chunks.iter_mut().zip(words) {
        *d = w.to_le_bytes().map(MaybeUninit::new);
    }
    // SAFETY: `reserve` made room for `len` more bytes, and the loop wrote
    // every one of them: `len` is a whole number of 8-byte chunks, one per
    // word.
    unsafe { out.set_len(out.len() + len) }
}

/// Whether `bytes` is exactly the little-endian encoding of `words`.
pub fn le_words_eq(bytes: &[u8], words: &[u64]) -> bool {
    let (chunks, rest) = bytes.as_chunks::<8>();
    if !rest.is_empty() || chunks.len() != words.len() {
        return false;
    }
    let mut diff = 0;
    for (c, &w) in chunks.iter().zip(words) {
        diff |= u64::from_le_bytes(*c) ^ w;
    }
    diff == 0
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
