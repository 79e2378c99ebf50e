//! Negacyclic Number-Theoretic Transform (Algorithms 3 and 4).
//!
//! The forward transform is the decimation-in-time Cooley–Tukey network of
//! Algorithm 3 (natural input order, bit-reversed output order); the inverse
//! is the Gentleman–Sande network of Algorithm 4 (bit-reversed input,
//! natural output) with the `1/n` scaling folded into the butterflies as the
//! paper does: the inverse twiddle table stores `ψ^{-brv(t)}/2` and the sum
//! path halves explicitly, so each of the `log n` stages contributes a
//! factor `1/2`.
//!
//! All twiddle factors are stored as [`MulRedConstant`]s so every butterfly
//! uses Algorithm 2 (`MulRed`), exactly as in the hardware NTT core
//! (Figure 3 of the paper).
//!
//! [`NttTable::forward`] / [`NttTable::inverse`] are the strict algorithms
//! and the oracle for everything else. The `*_auto` entry points run the
//! fastest kernel family the table qualifies for, chosen once at
//! construction ([`AutoKernel`]): eight butterfly lanes on the AVX-512
//! IFMA 52-bit multiplier when the host has it, `p < 2^50` and `n ≥ 16`;
//! the scalar lazy Harvey kernels for any other `p < 2^60`; the strict
//! algorithms beyond that.
//!
//! Every kernel transforms one residue. Parallelism comes from running
//! residues side by side ([`forward_limbs`], the key switch's limb lanes),
//! the way HEAX replicates one NTT core rather than keeping variant ones.

use core::fmt;

use crate::exec::{self, Executor};
#[cfg(target_arch = "x86_64")]
use crate::ifma::Lanes;
use crate::primes::primitive_root_2n;
use crate::word::{Modulus, MulRedConstant};
use crate::MathError;

/// Reverses the lowest `bits` bits of `x`.
#[inline]
pub fn bit_reverse(x: usize, bits: u32) -> usize {
    if bits == 0 {
        return 0;
    }
    x.reverse_bits() >> (usize::BITS - bits)
}

/// Permutes a slice into bit-reversed order in place.
pub fn bit_reverse_permute<T>(data: &mut [T]) {
    let n = data.len();
    debug_assert!(n.is_power_of_two());
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = bit_reverse(i, bits);
        if i < j {
            data.swap(i, j);
        }
    }
}

/// The kernel family behind [`NttTable::forward_auto`],
/// [`NttTable::inverse_auto`] and [`NttTable::forward_reduced_auto`],
/// decided when the table is built from what the code can observe (the
/// host's instruction set, the modulus width, the degree).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AutoKernel {
    /// Algorithms 3/4 with a full reduction per butterfly (`p ≥ 2^60`).
    Strict,
    /// Scalar lazy Harvey butterflies on the 64-bit word
    /// ([`NttTable::forward_lazy`], [`NttTable::inverse_lazy`]).
    ScalarLazy,
    /// Eight lazy Harvey butterflies per instruction on the AVX-512 IFMA
    /// 52-bit word: `x86_64` hosts with `avx512ifma`, `p < 2^50`,
    /// `n ≥ 16`.
    Lanes8,
}

impl fmt::Display for AutoKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Strict => "strict Algorithm 3/4",
            Self::ScalarLazy => "scalar Harvey lazy (64-bit word)",
            Self::Lanes8 => "8-lane Harvey lazy (AVX-512 IFMA, 52-bit word)",
        })
    }
}

/// [`AutoKernel`] plus, for the lanes, the proof that the host has them.
#[derive(Clone, Copy, Debug)]
enum Kernel {
    Strict,
    ScalarLazy,
    #[cfg(target_arch = "x86_64")]
    Lanes8(Lanes),
}

impl Kernel {
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
    fn select(n: usize, modulus: &Modulus) -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(lanes) = Lanes::detect(modulus).filter(|_| n >= 16) {
            return Self::Lanes8(lanes);
        }
        Self::scalar(modulus)
    }

    fn scalar(modulus: &Modulus) -> Self {
        if modulus.bits() <= 60 {
            Self::ScalarLazy
        } else {
            Self::Strict
        }
    }
}

/// Precomputed twiddle tables for one `(n, p)` pair.
///
/// # Examples
///
/// ```
/// use heax_math::{ntt::NttTable, word::Modulus};
///
/// # fn main() -> Result<(), heax_math::MathError> {
/// // A 36-bit prime ≡ 1 (mod 2·4096).
/// let p = Modulus::new(heax_math::primes::generate_ntt_primes(36, 1, 4096)?[0])?;
/// let table = NttTable::new(4096, p)?;
/// let mut a: Vec<u64> = (0..4096u64).collect();
/// let orig = a.clone();
/// table.forward(&mut a);
/// table.inverse(&mut a);
/// assert_eq!(a, orig);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct NttTable {
    n: usize,
    modulus: Modulus,
    /// Forward table: `fwd[t] = ψ^{brv(t)}` for `t ∈ [0, n)`.
    fwd: Vec<MulRedConstant>,
    /// Inverse table: `inv[t] = ψ^{-brv(t)} · 2^{-1}` (the paper's
    /// "powers of ψ⁻¹ divided by 2 in bit-reverse order").
    inv: Vec<MulRedConstant>,
    /// Unscaled inverse table `ψ^{-brv(t)}` for the lazy kernel (which
    /// merges the `1/n` into a final pass instead of halving per stage).
    inv_plain: Vec<MulRedConstant>,
    /// `n^{-1}` as a MulRed constant for the lazy kernel's final pass.
    inv_n_const: MulRedConstant,
    /// What the `*_auto` entry points run.
    kernel: Kernel,
}

impl NttTable {
    /// Builds twiddle tables for ring degree `n` (a power of two ≥ 2) and
    /// modulus `p ≡ 1 (mod 2n)`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidDegree`] for a non-power-of-two `n` and
    /// [`MathError::NoPrimitiveRoot`] when `p ≢ 1 (mod 2n)`.
    pub fn new(n: usize, modulus: Modulus) -> Result<Self, MathError> {
        if !n.is_power_of_two() || n < 2 {
            return Err(MathError::InvalidDegree { n });
        }
        let root = primitive_root_2n(&modulus, n)?;
        Self::with_root(n, modulus, root)
    }

    /// Builds tables with an explicit primitive `2n`-th root `ψ`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NoPrimitiveRoot`] if `ψ^n ≠ -1 (mod p)`.
    pub fn with_root(n: usize, modulus: Modulus, root: u64) -> Result<Self, MathError> {
        if !n.is_power_of_two() || n < 2 {
            return Err(MathError::InvalidDegree { n });
        }
        if modulus.pow_mod(root, n as u64) != modulus.value() - 1 {
            return Err(MathError::NoPrimitiveRoot {
                modulus: modulus.value(),
                n,
            });
        }
        let log_n = n.trailing_zeros();
        let inv_root = modulus.inv_mod(root).expect("root invertible");
        let inv_two = modulus.inv_two();

        // Powers in natural order first, then scatter bit-reversed.
        let mut fwd = vec![MulRedConstant::new(1, &modulus); n];
        let mut inv = vec![MulRedConstant::new(inv_two, &modulus); n];
        let mut inv_plain = vec![MulRedConstant::new(1, &modulus); n];
        let mut power = 1u64;
        let mut inv_power = 1u64;
        for t in 0..n {
            let r = bit_reverse(t, log_n);
            fwd[r] = MulRedConstant::new(power, &modulus);
            inv[r] = MulRedConstant::new(modulus.mul_mod(inv_power, inv_two), &modulus);
            inv_plain[r] = MulRedConstant::new(inv_power, &modulus);
            power = modulus.mul_mod(power, root);
            inv_power = modulus.mul_mod(inv_power, inv_root);
        }
        let inv_n = modulus
            .inv_mod(modulus.reduce_u64(n as u64))
            .expect("n invertible");
        Ok(Self {
            n,
            modulus,
            fwd,
            inv,
            inv_plain,
            inv_n_const: MulRedConstant::new(inv_n, &modulus),
            kernel: Kernel::select(n, &modulus),
        })
    }

    /// A table whose `*_auto` entry points never take the lanes, so the
    /// scalar kernels stay covered on hosts that have them.
    #[cfg(test)]
    pub(crate) fn new_scalar(n: usize, modulus: Modulus) -> Result<Self, MathError> {
        let mut table = Self::new(n, modulus)?;
        table.kernel = Kernel::scalar(&modulus);
        Ok(table)
    }

    /// The kernel family the `*_auto` entry points run for this table on
    /// this host.
    #[inline]
    pub fn auto_kernel(&self) -> AutoKernel {
        match self.kernel {
            Kernel::Strict => AutoKernel::Strict,
            Kernel::ScalarLazy => AutoKernel::ScalarLazy,
            #[cfg(target_arch = "x86_64")]
            Kernel::Lanes8(_) => AutoKernel::Lanes8,
        }
    }

    /// Ring degree `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The modulus.
    #[inline]
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// Forward twiddle `ψ^{brv(t)}` as a [`MulRedConstant`].
    #[inline]
    pub fn forward_twiddle(&self, t: usize) -> &MulRedConstant {
        &self.fwd[t]
    }

    /// Inverse twiddle `ψ^{-brv(t)}·2^{-1}` as a [`MulRedConstant`].
    #[inline]
    pub fn inverse_twiddle(&self, t: usize) -> &MulRedConstant {
        &self.inv[t]
    }

    /// Algorithm 3: in-place forward negacyclic NTT.
    ///
    /// Input in natural coefficient order; output in bit-reversed
    /// "NTT form" (the form SEAL and the paper keep ciphertexts in).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "polynomial length must equal n");
        let p = &self.modulus;
        let n = self.n;
        let mut m = 1usize;
        while m < n {
            let t = n / (2 * m); // butterfly half-gap at this stage
            for i in 0..m {
                let w = &self.fwd[m + i];
                let base = 2 * i * t;
                for j in base..base + t {
                    // v = MulRed(a[j+t], y_{m+i})       (Alg. 3, line 4)
                    let v = w.mul_red(a[j + t], p);
                    // a[j+t] = a[j] - v; a[j] = a[j] + v (lines 5-6)
                    a[j + t] = p.sub_mod(a[j], v);
                    a[j] = p.add_mod(a[j], v);
                }
            }
            m *= 2;
        }
    }

    /// Algorithm 4: in-place inverse negacyclic NTT.
    ///
    /// Input in bit-reversed NTT form; output in natural coefficient order,
    /// already scaled by `n^{-1}` (the scaling is folded into the twiddles).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "polynomial length must equal n");
        let p = &self.modulus;
        let n = self.n;
        let mut m = n / 2;
        while m >= 1 {
            let t = n / (2 * m);
            for i in 0..m {
                let w = &self.inv[m + i]; // ψ^{-brv(m+i)}/2
                let base = 2 * i * t;
                for j in base..base + t {
                    // v = a[j] - a[j+t]                  (Alg. 4, line 4)
                    let v = p.sub_mod(a[j], a[j + t]);
                    // a[j] = (a[j] + a[j+t]) / 2         (line 5)
                    a[j] = p.div2_mod(p.add_mod(a[j], a[j + t]));
                    // a[j+t] = MulRed(v, y_{m+i})        (line 6)
                    a[j + t] = w.mul_red(v, p);
                }
            }
            m /= 2;
        }
    }

    /// Inverse NTT on the table's [`AutoKernel`]. Input canonical;
    /// output is bit-identical to [`NttTable::inverse`].
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    #[inline]
    pub fn inverse_auto(&self, a: &mut [u64]) {
        match self.kernel {
            #[cfg(target_arch = "x86_64")]
            Kernel::Lanes8(lanes) => {
                // DOMAIN: [0,2p)
                lanes.inverse_lazy(&self.modulus, &self.inv_plain, &self.inv_n_const, a);
            }
            Kernel::ScalarLazy => self.inverse_lazy(a), // DOMAIN: [0,2p)
            Kernel::Strict => self.inverse(a),
        }
    }

    /// Lazy-reduction inverse NTT: plain Gentleman–Sande butterflies in
    /// the `[0, 2p)` domain with the `1/n` scaling merged into a final
    /// normalization pass (the SEAL kernel structure), instead of the
    /// per-stage halving of Algorithm 4. Bit-identical output.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n` or the modulus exceeds 60 bits.
    // DOMAIN: [0,2p)
    pub fn inverse_lazy(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "polynomial length must equal n");
        assert!(self.modulus.bits() <= 60, "lazy NTT requires p < 2^60");
        let p = &self.modulus;
        let two_p = 2 * p.value();
        let n = self.n;
        let mut m = n / 2;
        while m >= 1 {
            let t = n / (2 * m);
            for i in 0..m {
                let w = &self.inv_plain[m + i];
                let base = 2 * i * t;
                for j in base..base + t {
                    let x = a[j]; // < 2p
                    let y = a[j + t]; // < 2p
                    let mut u = x + y;
                    if u >= two_p {
                        u -= two_p;
                    }
                    a[j] = u;
                    // (x − y)·w, computed lazily from x − y + 2p < 4p.
                    a[j + t] = w.mul_red_lazy(x + two_p - y, p); // DOMAIN: [0,2p)
                }
            }
            m /= 2;
        }
        // Merge the n^{-1} scaling with full normalization.
        for c in a.iter_mut() {
            *c = self.inv_n_const.mul_red(*c, p);
        }
    }

    /// Forward NTT on the table's [`AutoKernel`]. Input canonical;
    /// output is bit-identical to [`NttTable::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    #[inline]
    pub fn forward_auto(&self, a: &mut [u64]) {
        match self.kernel {
            #[cfg(target_arch = "x86_64")]
            Kernel::Lanes8(lanes) => {
                // DOMAIN: [0,4p)
                lanes.forward_lazy(&self.modulus, &self.fwd, a, true);
            }
            Kernel::ScalarLazy => self.forward_lazy(a), // DOMAIN: [0,4p)
            Kernel::Strict => self.forward(a),
        }
    }

    /// Lazy-reduction forward NTT (Harvey-style, as in SEAL's CPU
    /// kernels): intermediate values stay in `[0, 4p)` and only the final
    /// pass normalizes to `[0, p)`, trading two conditional subtractions
    /// per butterfly for one lazy comparison. Bit-identical output to
    /// [`NttTable::forward`]; used by the CPU-baseline ablation bench.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n` or the modulus exceeds 60 bits (the lazy
    /// domain needs `4p < 2^64` with headroom for the additions).
    // DOMAIN: [0,4p)
    pub fn forward_lazy(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "polynomial length must equal n");
        assert!(self.modulus.bits() <= 60, "lazy NTT requires p < 2^60");
        self.forward_stages(a, 1, true);
    }

    /// Forward-transforms a residue **read through a Barrett reduction**:
    /// the first butterfly stage loads `src` (arbitrary `u64` values),
    /// reduces each word modulo this table's modulus on the fly, and the
    /// remaining stages run in place over `dst`. Unless the
    /// [`AutoKernel`] is [`AutoKernel::Strict`] the final normalization is
    /// skipped: the output stays in the `[0, 4p)` lazy domain (every value
    /// ≡ the normalized result mod `p`; which representative depends on
    /// the kernel family). The strict kernels produce canonical `[0, p)`
    /// output. The key-switch flooring and decomposition consume either
    /// domain.
    ///
    /// # Panics
    ///
    /// Panics if either slice length differs from `n`.
    // DOMAIN: [0,4p)
    pub fn forward_reduced_auto(&self, src: &[u64], dst: &mut [u64]) {
        assert_eq!(src.len(), self.n, "polynomial length must equal n");
        assert_eq!(dst.len(), self.n, "polynomial length must equal n");
        let p = &self.modulus;
        match self.kernel {
            Kernel::Strict => {
                for (d, &x) in dst.iter_mut().zip(src) {
                    *d = p.reduce_u64(x);
                }
                self.forward(dst);
            }
            // The lanes read 52 bits of a source word; wider words (none in
            // the key switch, whose sources are residues under another
            // `p < 2^50`) take the scalar kernel below.
            #[cfg(target_arch = "x86_64")]
            // DOMAIN: [0,4p)
            Kernel::Lanes8(lanes) if lanes.forward_reduced(p, &self.fwd, src, dst) => {}
            _ => {
                let two_p = 2 * p.value();
                // Stage m = 1 touches every element once: fuse the
                // reduction in.
                let t = self.n / 2;
                let w = &self.fwd[1];
                for j in 0..t {
                    let x = p.reduce_u64(src[j]);
                    let v = w.mul_red_lazy(p.reduce_u64(src[j + t]), p); // DOMAIN: [0,2p)
                    dst[j] = x + v;
                    dst[j + t] = x + two_p - v;
                }
                self.forward_stages(dst, 2, false);
            }
        }
    }

    /// The scalar lazy forward stages from `m = first_m` to `m = n/2` over
    /// `a` (values in `[0, 4p)`), normalizing to `[0, p)` on the way out
    /// when `normalize` is set: the one stage loop behind
    /// [`NttTable::forward_lazy`] and the scalar path of
    /// [`NttTable::forward_reduced_auto`].
    // DOMAIN: [0,4p)
    fn forward_stages(&self, a: &mut [u64], first_m: usize, normalize: bool) {
        let p = &self.modulus;
        let two_p = 2 * p.value();
        let n = self.n;
        let mut m = first_m;
        while m < n {
            let t = n / (2 * m);
            for i in 0..m {
                let w = &self.fwd[m + i];
                let base = 2 * i * t;
                for j in base..base + t {
                    // Inputs in [0, 4p): bring x below 2p, keep y lazy.
                    let mut x = a[j];
                    if x >= two_p {
                        x -= two_p;
                    }
                    // v = w·y in [0, 2p) without the final correction.
                    let v = w.mul_red_lazy(a[j + t], p); // DOMAIN: [0,2p)
                    a[j] = x + v; // < 4p
                    a[j + t] = x + two_p - v; // < 4p
                }
            }
            m *= 2;
        }
        if normalize {
            let pv = p.value();
            for c in a.iter_mut() {
                if *c >= two_p {
                    *c -= two_p;
                }
                if *c >= pv {
                    *c -= pv;
                }
            }
        }
    }

    /// Evaluates the polynomial at `ψ^{2·brv(j)+1}` directly — the defining
    /// equation `ã_j = Σ_i a_i ψ^{(2i+1)·e}` of Section 3.1, used as the
    /// O(n²) reference in tests.
    #[cfg(test)]
    pub fn forward_reference(&self, a: &[u64]) -> Vec<u64> {
        assert_eq!(a.len(), self.n);
        let p = &self.modulus;
        let log_n = self.n.trailing_zeros();
        // ψ itself is the forward twiddle at brv(t) = 1.
        let root = self.fwd[bit_reverse(1, log_n)].operand();
        let mut out = vec![0u64; self.n];
        for (j, slot) in out.iter_mut().enumerate() {
            let e = (2 * bit_reverse(j, log_n) + 1) as u64;
            let base = p.pow_mod(root, e);
            let mut x = 1u64;
            let mut acc = 0u64;
            for &coeff in a {
                acc = p.add_mod(acc, p.mul_mod(coeff, x));
                x = p.mul_mod(x, base);
            }
            *slot = acc;
        }
        out
    }
}

/// Forward-transforms `tables.len()` contiguous limbs of `data` (limb `i`
/// spans `data[i·n..(i+1)·n]` and uses `tables[i]`), dispatching limbs
/// across the executor's lanes — the software analogue of streaming RNS
/// residues through parallel NTT cores. Each limb uses the fastest
/// applicable kernel, so output is bit-identical to calling
/// [`NttTable::forward_auto`] per limb sequentially.
///
/// # Panics
///
/// Panics if `data.len() != tables.len() * n` or a table's degree is not
/// `n`.
pub fn forward_limbs(exec: &dyn Executor, tables: &[NttTable], data: &mut [u64], n: usize) {
    assert_eq!(data.len(), tables.len() * n, "limb data/table mismatch");
    exec::for_each_limb(exec, data, n, |i, limb| tables[i].forward_auto(limb));
}

/// Inverse-transforms contiguous limbs of `data` through the executor;
/// the counterpart of [`forward_limbs`]. Bit-identical to calling
/// [`NttTable::inverse_auto`] per limb sequentially.
///
/// # Panics
///
/// Panics if `data.len() != tables.len() * n` or a table's degree is not
/// `n`.
pub fn inverse_limbs(exec: &dyn Executor, tables: &[NttTable], data: &mut [u64], n: usize) {
    assert_eq!(data.len(), tables.len() * n, "limb data/table mismatch");
    exec::for_each_limb(exec, data, n, |i, limb| tables[i].inverse_auto(limb));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::generate_ntt_primes;

    fn table(n: usize, bits: u32) -> NttTable {
        let p = generate_ntt_primes(bits, 1, n).unwrap()[0];
        NttTable::new(n, Modulus::new(p).unwrap()).unwrap()
    }

    #[test]
    fn bit_reverse_basics() {
        assert_eq!(bit_reverse(0b001, 3), 0b100);
        assert_eq!(bit_reverse(0b110, 3), 0b011);
        assert_eq!(bit_reverse(5, 0), 0);
        for i in 0..64usize {
            assert_eq!(bit_reverse(bit_reverse(i, 6), 6), i);
        }
    }

    #[test]
    fn reduced_forward_congruent_to_plain_forward() {
        for bits in [40u32, 59, 61] {
            for n in [4usize, 64] {
                let t = table(n, bits.max(n.trailing_zeros() + 2));
                let p = t.modulus();
                let bound = if t.auto_kernel() == AutoKernel::Strict {
                    p.value()
                } else {
                    4 * p.value()
                };
                // Arbitrary u64 inputs (beyond p) are legal.
                for mul in [0x9e37_79b9u64, 0x85eb_ca6b] {
                    let src: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(mul)).collect();
                    let mut want: Vec<u64> = src.iter().map(|&x| p.reduce_u64(x)).collect();
                    t.forward_auto(&mut want);
                    let mut got = vec![0u64; n];
                    t.forward_reduced_auto(&src, &mut got);
                    for (g, w) in got.iter().zip(&want) {
                        assert!(*g < bound, "output out of domain");
                        assert_eq!(p.reduce_u64(*g), *w, "bits={bits} n={n}");
                    }
                }
            }
        }
    }

    /// On a host with the lanes the `*_auto` entry points never reach the
    /// scalar kernels for `p < 2^50` (and `tests/proptests.rs` sees only
    /// what the host selects), so a forced-scalar table checks every one
    /// of them against the strict oracle here.
    #[test]
    fn scalar_auto_kernels_match_strict_on_any_host() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for log_n in 1..=12u32 {
            let n = 1usize << log_n;
            for bits in [30u32, 44, 50, 51, 60, 61] {
                let p = generate_ntt_primes(bits, 1, n).unwrap()[0];
                let modulus = Modulus::new(p).unwrap();
                let t = NttTable::new_scalar(n, modulus).unwrap();
                assert_ne!(t.auto_kernel(), AutoKernel::Lanes8);
                let tag = format!("n={n} p={p} kernel={}", t.auto_kernel());
                let input: Vec<u64> = (0..n).map(|_| next() % p).collect();
                // Source words of every width up to 64 bits.
                let src: Vec<u64> = (0..n).map(|i| next() >> (i % 40)).collect();
                let mut want_fwd = input.clone();
                t.forward(&mut want_fwd);
                let mut want_inv = input.clone();
                t.inverse(&mut want_inv);
                let mut want_src: Vec<u64> = src.iter().map(|&x| modulus.reduce_u64(x)).collect();
                t.forward(&mut want_src);

                let mut a = input.clone();
                t.forward_auto(&mut a);
                assert_eq!(a, want_fwd, "forward_auto {tag}");
                let mut a = input.clone();
                t.inverse_auto(&mut a);
                assert_eq!(a, want_inv, "inverse_auto {tag}");

                let bound = if t.auto_kernel() == AutoKernel::Strict {
                    p
                } else {
                    4 * p
                };
                let mut d = vec![0u64; n];
                for (src, want) in [(&input, &want_fwd), (&src, &want_src)] {
                    t.forward_reduced_auto(src, &mut d);
                    for (g, w) in d.iter().zip(want) {
                        assert!(*g < bound, "forward_reduced_auto out of domain {tag}");
                        assert_eq!(modulus.reduce_u64(*g), *w, "forward_reduced_auto {tag}");
                    }
                }
            }
        }
    }

    #[test]
    fn roundtrip_small_sizes() {
        for log_n in [1u32, 2, 3, 4, 8] {
            let n = 1usize << log_n;
            let t = table(n, 30.max(log_n + 2));
            let p = t.modulus().value();
            let mut a: Vec<u64> = (0..n as u64).map(|i| (i * 0x9e37) % p).collect();
            let orig = a.clone();
            t.forward(&mut a);
            assert_ne!(a, orig, "transform must not be identity");
            t.inverse(&mut a);
            assert_eq!(a, orig, "n={n}");
        }
    }

    #[test]
    fn matches_reference_dft() {
        let n = 16usize;
        let t = table(n, 30);
        let p = t.modulus().value();
        let a: Vec<u64> = (0..n as u64).map(|i| (i * i + 3) % p).collect();
        let mut fast = a.clone();
        t.forward(&mut fast);
        assert_eq!(fast, t.forward_reference(&a));
    }

    #[test]
    fn negacyclic_convolution_theorem() {
        // NTT(a) ⊙ NTT(b) == NTT(a *neg b)
        let n = 32usize;
        let t = table(n, 40);
        let p = t.modulus();
        let a: Vec<u64> = (0..n as u64).map(|i| (7 * i + 1) % p.value()).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (i * i) % p.value()).collect();

        // Schoolbook negacyclic product.
        let mut c = vec![0u64; n];
        for (i, &ai) in a.iter().enumerate() {
            for (j, &bj) in b.iter().enumerate() {
                let prod = p.mul_mod(ai, bj);
                let k = i + j;
                if k < n {
                    c[k] = p.add_mod(c[k], prod);
                } else {
                    c[k - n] = p.sub_mod(c[k - n], prod);
                }
            }
        }

        let mut ta = a.clone();
        let mut tb = b.clone();
        t.forward(&mut ta);
        t.forward(&mut tb);
        let mut tc: Vec<u64> = ta.iter().zip(&tb).map(|(&x, &y)| p.mul_mod(x, y)).collect();
        t.inverse(&mut tc);
        assert_eq!(tc, c);
    }

    #[test]
    fn linearity() {
        let n = 64usize;
        let t = table(n, 40);
        let p = t.modulus();
        let a: Vec<u64> = (0..n as u64).map(|i| i % p.value()).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (i * 31 + 5) % p.value()).collect();
        let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| p.add_mod(x, y)).collect();
        let mut ta = a.clone();
        let mut tb = b.clone();
        let mut tsum = sum.clone();
        t.forward(&mut ta);
        t.forward(&mut tb);
        t.forward(&mut tsum);
        let recombined: Vec<u64> = ta.iter().zip(&tb).map(|(&x, &y)| p.add_mod(x, y)).collect();
        assert_eq!(tsum, recombined);
    }

    #[test]
    fn production_sizes_roundtrip() {
        for n in [4096usize, 8192] {
            let t = table(n, 36);
            let p = t.modulus().value();
            let mut a: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15) % p)
                .collect();
            let orig = a.clone();
            t.forward(&mut a);
            t.inverse(&mut a);
            assert_eq!(a, orig);
        }
    }

    #[test]
    fn lazy_forward_is_bit_identical() {
        for (n, bits) in [(64usize, 30u32), (256, 45), (4096, 50), (4096, 60)] {
            let t = table(n, bits);
            let p = t.modulus().value();
            let input: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15) % p)
                .collect();
            let mut standard = input.clone();
            t.forward(&mut standard);
            let mut lazy = input.clone();
            t.forward_lazy(&mut lazy);
            assert_eq!(standard, lazy, "n={n} bits={bits}");
        }
    }

    #[test]
    fn lazy_inverse_is_bit_identical() {
        for (n, bits) in [(64usize, 30u32), (256, 45), (4096, 50), (4096, 60)] {
            let t = table(n, bits);
            let p = t.modulus().value();
            let input: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x2545F4914F6CDD1D) % p)
                .collect();
            let mut standard = input.clone();
            t.inverse(&mut standard);
            let mut lazy = input.clone();
            t.inverse_lazy(&mut lazy);
            assert_eq!(standard, lazy, "n={n} bits={bits}");
            // And auto dispatch matches.
            let mut auto = input.clone();
            t.inverse_auto(&mut auto);
            assert_eq!(auto, standard);
        }
    }

    #[test]
    fn lazy_roundtrip() {
        let n = 512;
        let t = table(n, 45);
        let p = t.modulus().value();
        let input: Vec<u64> = (0..n as u64).map(|i| (i * 13 + 1) % p).collect();
        let mut a = input.clone();
        t.forward_lazy(&mut a);
        t.inverse_lazy(&mut a);
        assert_eq!(a, input);
    }

    #[test]
    fn lazy_then_inverse_roundtrips() {
        let n = 1024;
        let t = table(n, 45);
        let p = t.modulus().value();
        let input: Vec<u64> = (0..n as u64).map(|i| (i * 7 + 5) % p).collect();
        let mut a = input.clone();
        t.forward_lazy(&mut a);
        t.inverse(&mut a);
        assert_eq!(a, input);
    }

    #[test]
    #[should_panic(expected = "lazy NTT requires")]
    fn lazy_rejects_wide_modulus() {
        // 61-bit modulus exceeds the 60-bit lazy bound.
        let p = generate_ntt_primes(61, 1, 64).unwrap()[0];
        let t = NttTable::new(64, Modulus::new(p).unwrap()).unwrap();
        let mut a = vec![0u64; 64];
        t.forward_lazy(&mut a);
    }

    #[test]
    fn rejects_bad_parameters() {
        let p = Modulus::new(97).unwrap();
        assert!(NttTable::new(3, p).is_err());
        // 97 ≡ 1 mod 32 (96 = 3*32): n=16 works; n=64 doesn't (128 ∤ 96).
        assert!(NttTable::new(16, p).is_ok());
        assert!(NttTable::new(64, p).is_err());
        // Wrong explicit root: 1 is never a primitive 2n-th root.
        assert!(NttTable::with_root(16, p, 1).is_err());
    }

    #[test]
    #[should_panic(expected = "length")]
    fn forward_panics_on_wrong_length() {
        let t = table(16, 20);
        let mut a = vec![0u64; 8];
        t.forward(&mut a);
    }
}
