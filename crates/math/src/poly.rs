//! RNS polynomials: elements of `R_q = Z_q[X]/(X^n+1)` stored as one
//! residue polynomial per modulus.
//!
//! Each residue polynomial is a length-`n` `u64` vector; the whole element
//! is stored modulus-major (residue 0 first), matching the paper's
//! observation that all evaluation arithmetic is independent per RNS
//! component (Section 2). A [`Representation`] tag tracks whether the
//! element is in coefficient or NTT form, and every operation validates the
//! forms of its operands — mixing forms is a programming error that this
//! library surfaces as [`MathError::RepresentationMismatch`].
//!
//! A dropped polynomial's buffers go to its thread's free list, which
//! [`RnsPoly::for_overwrite`] takes the best fit from instead of
//! zero-filling a fresh allocation, as HEAX reuses its BRAM banks.
//! [`Words::for_overwrite`] takes from the same list for working memory
//! that is not a polynomial (a key switch's accumulators and digits).

use std::cell::RefCell;
use std::mem::take;
use std::ops::{Deref, DerefMut};

use crate::exec::{self, Executor};
use crate::ntt::NttTable;
use crate::word::Modulus;
use crate::MathError;

/// Whether a polynomial is in coefficient (time) or NTT (evaluation) form.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Representation {
    /// Natural coefficient order.
    Coefficient,
    /// Bit-reversed evaluation order (the "NTT form" ciphertexts default to).
    Ntt,
}

/// A polynomial in RNS representation: `k` residue polynomials of degree
/// `< n`.
///
/// # Examples
///
/// ```
/// use heax_math::poly::{RnsPoly, Representation};
/// use heax_math::word::Modulus;
///
/// # fn main() -> Result<(), heax_math::MathError> {
/// let mods = vec![Modulus::new(97)?, Modulus::new(193)?];
/// let mut a = RnsPoly::zero(8, &mods, Representation::Coefficient);
/// a.residue_mut(0)[0] = 5;
/// a.residue_mut(1)[0] = 5;
/// let b = a.clone();
/// let sum = a.add(&b)?;
/// assert_eq!(sum.residue(0)[0], 10);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RnsPoly {
    n: usize,
    moduli: Vec<Modulus>,
    data: Vec<u64>,
    repr: Representation,
}

/// What a debug build fills every buffer [`RnsPoly::for_overwrite`] hands
/// out with: above every modulus, so a word left unwritten shows.
const POISON: u64 = 0xDEAD_BEEF_DEAD_BEEF;

thread_local! {
    static RECYCLER: RefCell<Recycler> = const {
        RefCell::new(Recycler { free: Vec::new(), out: 0, peak: 0, kept: 0, largest: 0 })
    };
}

/// A dropped polynomial's two buffers: residue words and basis.
type Husk = (Vec<u64>, Vec<Modulus>);

/// One thread's free polynomial buffers, sized by demand: `out` counts
/// buffers taken and not given back (never below zero: any dropped
/// buffer counts as given), and the list holds at most the most `out` has
/// been since the last settle or up to it, whichever is more.
struct Recycler {
    /// Free buffers by ascending word capacity.
    free: Vec<Husk>,
    out: usize,
    /// Most `out` since the last settle.
    peak: usize,
    /// `peak` when the last settle ended its window.
    kept: usize,
    /// Most words a take has asked for: a larger buffer is of no use.
    largest: usize,
}

impl Recycler {
    /// The smallest free buffers that hold `len` words, if any do.
    fn take(&mut self, len: usize) -> Option<Husk> {
        self.out += 1;
        self.peak = self.peak.max(self.out);
        self.largest = self.largest.max(len);
        let fit = self.free.partition_point(|(b, _)| b.capacity() < len);
        (fit < self.free.len()).then(|| self.free.remove(fit))
    }

    /// Keeps `husk` while the list is below its bound; a full list keeps
    /// the larger of `husk` and its smallest entry.
    fn give(&mut self, husk: Husk) {
        self.out = self.out.saturating_sub(1);
        let words = husk.0.capacity();
        if !(1..=self.largest).contains(&words) {
            return;
        }
        let at = self.free.partition_point(|(b, _)| b.capacity() < words);
        if self.free.len() < self.peak.max(self.kept) {
            self.free.insert(at, husk);
        } else if at > 0 {
            self.free.remove(0);
            self.free.insert(at - 1, husk);
        }
    }

    fn settle(&mut self) {
        self.kept = self.peak;
        self.peak = self.out;
        let excess = self.free.len().saturating_sub(self.kept);
        self.free.drain(..excess);
    }
}

/// Ends the calling thread's recycler window: the free list drops to the
/// most buffers the thread had out at once in it, smallest first. Work
/// that comes in cycles (a server's flush) settles after each, so the
/// list follows demand down; without settles it keeps the high-water.
pub fn settle_recycler() {
    let _ = RECYCLER.try_with(|r| r.borrow_mut().settle());
}

/// Buffers waiting in the calling thread's recycler (introspection/tests).
pub fn recycled_buffers() -> usize {
    RECYCLER.try_with(|r| r.borrow().free.len()).unwrap_or(0)
}

/// The best fit for `len` words from the calling thread's recycler, or a
/// fresh allocation; the words are unspecified (in a debug build,
/// `POISON`).
fn take_husk(len: usize) -> Husk {
    let husk = RECYCLER.try_with(|r| r.borrow_mut().take(len)).ok();
    let (mut data, moduli) = husk.flatten().unwrap_or_else(|| (vec![0; len], Vec::new()));
    data.resize(len, 0);
    if cfg!(debug_assertions) {
        data.fill(POISON);
    }
    (data, moduli)
}

/// Gives `husk` back to the calling thread's recycler.
fn give_husk(husk: Husk) {
    let _ = RECYCLER.try_with(|r| r.try_borrow_mut().map(|mut r| r.give(husk)));
}

impl Drop for RnsPoly {
    fn drop(&mut self) {
        give_husk((take(&mut self.data), take(&mut self.moduli)));
    }
}

/// Working words from the thread's recycler, for scratch that is not a
/// polynomial: taken like [`RnsPoly::for_overwrite`]'s buffers (best fit,
/// unspecified words) and given back, with the basis list of the
/// polynomial they came from, when dropped.
#[derive(Debug)]
pub struct Words(Husk);

impl Words {
    /// `len` words the caller is about to overwrite (in a debug build,
    /// `POISON`).
    pub fn for_overwrite(len: usize) -> Self {
        Self(take_husk(len))
    }
}

impl Deref for Words {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.0 .0
    }
}

impl DerefMut for Words {
    fn deref_mut(&mut self) -> &mut [u64] {
        &mut self.0 .0
    }
}

impl Drop for Words {
    fn drop(&mut self) {
        give_husk(take(&mut self.0));
    }
}

impl RnsPoly {
    /// The all-zero polynomial over the given moduli.
    pub fn zero(n: usize, moduli: &[Modulus], repr: Representation) -> Self {
        Self {
            n,
            moduli: moduli.to_vec(),
            data: vec![0u64; n * moduli.len()],
            repr,
        }
    }

    /// A polynomial whose every word the caller is about to overwrite, in
    /// buffers from the thread's recycler (see the module docs): steady
    /// state neither allocates nor zero-fills. The words are unspecified
    /// (in a debug build, `POISON`).
    pub fn for_overwrite(n: usize, basis: &[Modulus], repr: Representation) -> Self {
        let (data, mut moduli) = take_husk(n * basis.len());
        moduli.clear();
        moduli.extend_from_slice(basis);
        Self {
            n,
            moduli,
            data,
            repr,
        }
    }

    /// Ring degree.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of RNS components.
    #[inline]
    pub fn num_residues(&self) -> usize {
        self.moduli.len()
    }

    /// The moduli.
    #[inline]
    pub fn moduli(&self) -> &[Modulus] {
        &self.moduli
    }

    /// Current representation.
    #[inline]
    pub fn representation(&self) -> Representation {
        self.repr
    }

    /// Overrides the representation tag without touching data. Used by the
    /// hardware simulators, which perform the transforms themselves.
    #[inline]
    pub fn set_representation(&mut self, repr: Representation) {
        self.repr = repr;
    }

    /// Residue polynomial `i` (length `n`).
    #[inline]
    pub fn residue(&self, i: usize) -> &[u64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Mutable residue polynomial `i`.
    #[inline]
    pub fn residue_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.data[i * self.n..(i + 1) * self.n]
    }

    /// All residue data, modulus-major.
    #[inline]
    pub fn data(&self) -> &[u64] {
        &self.data
    }

    /// All residue data, mutable. Limb `i` occupies `data[i·n..(i+1)·n]`;
    /// used by the parallel backends to hand disjoint limbs to lanes.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [u64] {
        &mut self.data
    }

    /// Iterator over `(modulus, residue)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Modulus, &[u64])> {
        self.moduli.iter().zip(self.data.chunks_exact(self.n))
    }

    fn check_compatible(&self, other: &Self) -> Result<(), MathError> {
        if self.n != other.n || self.moduli.len() != other.moduli.len() {
            return Err(MathError::LengthMismatch {
                expected: self.n * self.moduli.len(),
                got: other.n * other.moduli.len(),
            });
        }
        for (a, b) in self.moduli.iter().zip(&other.moduli) {
            if a.value() != b.value() {
                return Err(MathError::BasisMismatch {
                    a: a.value(),
                    b: b.value(),
                });
            }
        }
        if self.repr != other.repr {
            return Err(MathError::RepresentationMismatch);
        }
        Ok(())
    }

    /// Coefficient-wise sum.
    ///
    /// # Errors
    ///
    /// Returns an error if degrees, moduli, or representations differ.
    pub fn add(&self, other: &Self) -> Result<Self, MathError> {
        self.check_compatible(other)?;
        let mut out = self.clone();
        out.add_assign(other)?;
        Ok(out)
    }

    /// In-place coefficient-wise sum, limbs dispatched through the
    /// global executor (see [`crate::exec`]).
    ///
    /// # Errors
    ///
    /// Same as [`RnsPoly::add`].
    pub fn add_assign(&mut self, other: &Self) -> Result<(), MathError> {
        self.add_assign_with(other, exec::global().as_ref())
    }

    /// In-place coefficient-wise sum through an explicit executor.
    ///
    /// # Errors
    ///
    /// Same as [`RnsPoly::add`].
    pub fn add_assign_with(&mut self, other: &Self, exec: &dyn Executor) -> Result<(), MathError> {
        self.check_compatible(other)?;
        let n = self.n;
        exec::for_each_limb(exec, &mut self.data, n, |i, dst| {
            self.moduli[i].add_assign_words(dst, other.residue(i));
        });
        Ok(())
    }

    /// Coefficient-wise difference.
    ///
    /// # Errors
    ///
    /// Same as [`RnsPoly::add`].
    pub fn sub(&self, other: &Self) -> Result<Self, MathError> {
        self.sub_with(other, exec::global().as_ref())
    }

    /// Coefficient-wise difference through an explicit executor.
    ///
    /// # Errors
    ///
    /// Same as [`RnsPoly::add`].
    pub fn sub_with(&self, other: &Self, exec: &dyn Executor) -> Result<Self, MathError> {
        self.check_compatible(other)?;
        let mut out = self.clone();
        let n = out.n;
        exec::for_each_limb(exec, &mut out.data, n, |i, dst| {
            let p = &self.moduli[i];
            for (d, &s) in dst.iter_mut().zip(other.residue(i)) {
                *d = p.sub_mod(*d, s);
            }
        });
        Ok(out)
    }

    /// Negation, limbs dispatched through `exec`.
    pub fn neg(&self, exec: &dyn Executor) -> Self {
        let mut out = self.clone();
        let n = out.n;
        exec::for_each_limb(exec, &mut out.data, n, |i, dst| {
            let p = &self.moduli[i];
            for d in dst.iter_mut() {
                *d = p.neg_mod(*d);
            }
        });
        out
    }

    /// Dyadic (coefficient-wise) product — the core operation of the MULT
    /// module. Both operands must be in NTT form for this to realize ring
    /// multiplication.
    ///
    /// # Errors
    ///
    /// Returns an error on degree/modulus/representation mismatch.
    pub fn dyadic_mul(&self, other: &Self) -> Result<Self, MathError> {
        self.check_compatible(other)?;
        let mut out = self.clone();
        out.dyadic_mul_assign(other)?;
        Ok(out)
    }

    /// In-place dyadic product.
    ///
    /// # Errors
    ///
    /// Same as [`RnsPoly::dyadic_mul`].
    pub fn dyadic_mul_assign(&mut self, other: &Self) -> Result<(), MathError> {
        self.dyadic_mul_assign_with(other, exec::global().as_ref())
    }

    /// In-place dyadic product through an explicit executor.
    ///
    /// # Errors
    ///
    /// Same as [`RnsPoly::dyadic_mul`].
    pub fn dyadic_mul_assign_with(
        &mut self,
        other: &Self,
        exec: &dyn Executor,
    ) -> Result<(), MathError> {
        self.check_compatible(other)?;
        let n = self.n;
        exec::for_each_limb(exec, &mut self.data, n, |i, dst| {
            let p = &self.moduli[i];
            for (d, &s) in dst.iter_mut().zip(other.residue(i)) {
                *d = p.mul_mod(*d, s);
            }
        });
        Ok(())
    }

    /// Writes the dyadic product `a ⊙ b` into `self`, overwriting previous
    /// contents — the workspace variant that spares callers a
    /// `clone()`-then-multiply memcpy.
    ///
    /// # Errors
    ///
    /// Returns an error on degree/modulus/representation mismatch.
    pub fn dyadic_mul_set_with(
        &mut self,
        a: &Self,
        b: &Self,
        exec: &dyn Executor,
    ) -> Result<(), MathError> {
        self.check_compatible(a)?;
        self.check_compatible(b)?;
        let n = self.n;
        exec::for_each_limb(exec, &mut self.data, n, |i, dst| {
            self.moduli[i].dyad_mul(a.residue(i), b.residue(i), false, dst);
        });
        Ok(())
    }

    /// Fused multiply-accumulate `self += a ⊙ b` (dyadic), the DyadMult +
    /// accumulate step of the KeySwitch datapath (Algorithm 7, lines 11-12).
    ///
    /// # Errors
    ///
    /// Returns an error on degree/modulus/representation mismatch.
    pub fn dyadic_mul_acc(&mut self, a: &Self, b: &Self) -> Result<(), MathError> {
        self.dyadic_mul_acc_with(a, b, exec::global().as_ref())
    }

    /// Fused dyadic multiply-accumulate through an explicit executor.
    ///
    /// # Errors
    ///
    /// Returns an error on degree/modulus/representation mismatch.
    pub fn dyadic_mul_acc_with(
        &mut self,
        a: &Self,
        b: &Self,
        exec: &dyn Executor,
    ) -> Result<(), MathError> {
        self.check_compatible(a)?;
        self.check_compatible(b)?;
        let n = self.n;
        exec::for_each_limb(exec, &mut self.data, n, |i, dst| {
            self.moduli[i].dyad_mul(a.residue(i), b.residue(i), true, dst);
        });
        Ok(())
    }

    /// Multiplies every residue `i` by scalar `scalars[i]`, limbs
    /// dispatched through `exec`.
    ///
    /// # Panics
    ///
    /// Panics if `scalars.len() != self.num_residues()`.
    pub fn scale_per_residue(&mut self, scalars: &[u64], exec: &dyn Executor) {
        assert_eq!(scalars.len(), self.moduli.len());
        let n = self.n;
        exec::for_each_limb(exec, &mut self.data, n, |i, dst| {
            let p = &self.moduli[i];
            let s = p.reduce_u64(scalars[i]);
            for d in dst.iter_mut() {
                *d = p.mul_mod(*d, s);
            }
        });
    }

    /// Applies the forward NTT to every residue using the matching tables.
    ///
    /// Uses the lazy-reduction kernel (bit-identical output, ~4× faster)
    /// whenever the modulus permits it, as SEAL's production kernels do.
    /// Limbs are dispatched through the global executor.
    ///
    /// # Errors
    ///
    /// [`MathError::RepresentationMismatch`] if already in NTT form;
    /// [`MathError::BasisMismatch`] if `tables` do not match the moduli.
    pub fn ntt_forward(&mut self, tables: &[NttTable]) -> Result<(), MathError> {
        self.ntt_forward_with(tables, exec::global().as_ref())
    }

    /// Forward NTT of every residue through an explicit executor.
    ///
    /// # Errors
    ///
    /// Same as [`RnsPoly::ntt_forward`].
    pub fn ntt_forward_with(
        &mut self,
        tables: &[NttTable],
        exec: &dyn Executor,
    ) -> Result<(), MathError> {
        if self.repr == Representation::Ntt {
            return Err(MathError::RepresentationMismatch);
        }
        self.check_tables(tables)?;
        crate::ntt::forward_limbs(exec, &tables[..self.moduli.len()], &mut self.data, self.n);
        self.repr = Representation::Ntt;
        Ok(())
    }

    /// Applies the inverse NTT to every residue.
    ///
    /// # Errors
    ///
    /// [`MathError::RepresentationMismatch`] if already in coefficient form;
    /// [`MathError::BasisMismatch`] on table/modulus mismatch.
    pub fn ntt_inverse(&mut self, tables: &[NttTable]) -> Result<(), MathError> {
        self.ntt_inverse_with(tables, exec::global().as_ref())
    }

    /// Inverse NTT of every residue through an explicit executor.
    ///
    /// # Errors
    ///
    /// Same as [`RnsPoly::ntt_inverse`].
    pub fn ntt_inverse_with(
        &mut self,
        tables: &[NttTable],
        exec: &dyn Executor,
    ) -> Result<(), MathError> {
        if self.repr == Representation::Coefficient {
            return Err(MathError::RepresentationMismatch);
        }
        self.check_tables(tables)?;
        crate::ntt::inverse_limbs(exec, &tables[..self.moduli.len()], &mut self.data, self.n);
        self.repr = Representation::Coefficient;
        Ok(())
    }

    fn check_tables(&self, tables: &[NttTable]) -> Result<(), MathError> {
        if tables.len() < self.moduli.len() {
            return Err(MathError::LengthMismatch {
                expected: self.moduli.len(),
                got: tables.len(),
            });
        }
        for (p, t) in self.moduli.iter().zip(tables) {
            if t.modulus().value() != p.value() || t.n() != self.n {
                return Err(MathError::BasisMismatch {
                    a: p.value(),
                    b: t.modulus().value(),
                });
            }
        }
        Ok(())
    }

    /// Drops the last residue polynomial, returning it. Used by rescaling.
    ///
    /// # Panics
    ///
    /// Panics if only one residue remains.
    pub fn pop_residue(&mut self) -> (Modulus, Vec<u64>) {
        assert!(self.moduli.len() > 1, "cannot drop the last residue");
        let p = self.moduli.pop().expect("non-empty");
        let tail = self.data.split_off(self.moduli.len() * self.n);
        (p, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::generate_ntt_primes;

    fn mods() -> Vec<Modulus> {
        generate_ntt_primes(30, 2, 16)
            .unwrap()
            .into_iter()
            .map(|p| Modulus::new(p).unwrap())
            .collect()
    }

    fn tables(mods: &[Modulus]) -> Vec<NttTable> {
        mods.iter()
            .map(|&m| NttTable::new(16, m).unwrap())
            .collect()
    }

    #[test]
    fn zero_is_zero() {
        let m = mods();
        let z = RnsPoly::zero(16, &m, Representation::Coefficient);
        assert!(z.data().iter().all(|&x| x == 0));
        assert_eq!(z.num_residues(), 2);
        assert_eq!(z.n(), 16);
    }

    #[test]
    fn add_sub_roundtrip() {
        let m = mods();
        let mut a = RnsPoly::zero(16, &m, Representation::Coefficient);
        let mut b = RnsPoly::zero(16, &m, Representation::Coefficient);
        for (i, p) in m.iter().enumerate() {
            for j in 0..16 {
                a.residue_mut(i)[j] = (j as u64 * 31 + i as u64) % p.value();
                b.residue_mut(i)[j] = (j as u64 * 17 + 3) % p.value();
            }
        }
        let s = a.add(&b).unwrap();
        let back = s.sub(&b).unwrap();
        assert_eq!(back, a);
        let z = a.sub(&a).unwrap();
        assert!(z.data().iter().all(|&x| x == 0));
        assert_eq!(a.add(&a.neg(&exec::Sequential)).unwrap().data(), z.data());
    }

    #[test]
    fn representation_mismatch_rejected() {
        let m = mods();
        let a = RnsPoly::zero(16, &m, Representation::Coefficient);
        let b = RnsPoly::zero(16, &m, Representation::Ntt);
        assert!(matches!(a.add(&b), Err(MathError::RepresentationMismatch)));
    }

    #[test]
    fn basis_mismatch_rejected() {
        let m = mods();
        let other = generate_ntt_primes(31, 2, 16)
            .unwrap()
            .into_iter()
            .map(|p| Modulus::new(p).unwrap())
            .collect::<Vec<_>>();
        let a = RnsPoly::zero(16, &m, Representation::Coefficient);
        let b = RnsPoly::zero(16, &other, Representation::Coefficient);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn ntt_mul_matches_schoolbook() {
        let m = mods();
        let ts = tables(&m);
        let n = 16usize;
        let mut a = RnsPoly::zero(n, &m, Representation::Coefficient);
        let mut b = RnsPoly::zero(n, &m, Representation::Coefficient);
        for (i, p) in m.iter().enumerate() {
            for j in 0..n {
                a.residue_mut(i)[j] = (j as u64 + 1) % p.value();
                b.residue_mut(i)[j] = (j as u64 * j as u64 + 2) % p.value();
            }
        }
        // Schoolbook negacyclic per residue.
        let mut expect = RnsPoly::zero(n, &m, Representation::Coefficient);
        for (i, p) in m.iter().enumerate() {
            for x in 0..n {
                for y in 0..n {
                    let prod = p.mul_mod(a.residue(i)[x], b.residue(i)[y]);
                    let k = x + y;
                    if k < n {
                        expect.residue_mut(i)[k] = p.add_mod(expect.residue(i)[k], prod);
                    } else {
                        expect.residue_mut(i)[k - n] = p.sub_mod(expect.residue(i)[k - n], prod);
                    }
                }
            }
        }
        let mut ta = a.clone();
        let mut tb = b.clone();
        ta.ntt_forward(&ts).unwrap();
        tb.ntt_forward(&ts).unwrap();
        let mut prod = ta.dyadic_mul(&tb).unwrap();
        prod.ntt_inverse(&ts).unwrap();
        assert_eq!(prod, expect);
    }

    #[test]
    fn dyadic_mul_set_overwrites() {
        let m = mods();
        let mut out = RnsPoly::zero(16, &m, Representation::Ntt);
        out.residue_mut(0)[0] = 999; // stale contents must be overwritten
        let mut a = RnsPoly::zero(16, &m, Representation::Ntt);
        let mut b = RnsPoly::zero(16, &m, Representation::Ntt);
        a.residue_mut(0)[3] = 7;
        b.residue_mut(0)[3] = 9;
        out.dyadic_mul_set_with(&a, &b, &crate::exec::Sequential)
            .unwrap();
        assert_eq!(out, a.dyadic_mul(&b).unwrap());
    }

    #[test]
    fn dyadic_mul_acc_accumulates() {
        let m = mods();
        let mut acc = RnsPoly::zero(16, &m, Representation::Ntt);
        let mut a = RnsPoly::zero(16, &m, Representation::Ntt);
        let mut b = RnsPoly::zero(16, &m, Representation::Ntt);
        a.residue_mut(0)[3] = 7;
        b.residue_mut(0)[3] = 9;
        acc.dyadic_mul_acc(&a, &b).unwrap();
        acc.dyadic_mul_acc(&a, &b).unwrap();
        assert_eq!(acc.residue(0)[3], 2 * 63 % m[0].value());
    }

    #[test]
    fn double_forward_rejected() {
        let m = mods();
        let ts = tables(&m);
        let mut a = RnsPoly::zero(16, &m, Representation::Coefficient);
        a.ntt_forward(&ts).unwrap();
        assert!(a.ntt_forward(&ts).is_err());
        a.ntt_inverse(&ts).unwrap();
        assert!(a.ntt_inverse(&ts).is_err());
    }

    /// `count` polynomials from the calling thread's recycler.
    fn take(count: usize) -> Vec<RnsPoly> {
        (0..count)
            .map(|_| RnsPoly::for_overwrite(16, &mods(), Representation::Ntt))
            .collect()
    }

    /// Runs `f` on a fresh thread, whose recycler starts empty.
    fn on_fresh_thread(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(f).join().unwrap();
    }

    #[test]
    fn a_dropped_buffer_is_taken_back() {
        on_fresh_thread(|| {
            let buffer = take(1)[0].data().as_ptr();
            assert_eq!(recycled_buffers(), 1);
            // A smaller shape fits the same buffer, poisoned in debug.
            let b = RnsPoly::for_overwrite(16, &mods()[..1], Representation::Coefficient);
            assert_eq!((b.data().as_ptr(), b.data().len()), (buffer, 16));
            assert_eq!(recycled_buffers(), 0);
            assert!(b.data().iter().all(|&w| w == POISON) || !cfg!(debug_assertions));
        });
    }

    #[test]
    fn a_dropped_word_buffer_is_taken_back() {
        on_fresh_thread(|| {
            let words = Words::for_overwrite(32);
            let buffer = words.as_ptr();
            assert!(words.iter().all(|&w| w == POISON) || !cfg!(debug_assertions));
            drop(words);
            assert_eq!(recycled_buffers(), 1);
            let again = Words::for_overwrite(20);
            assert_eq!((again.as_ptr(), again.len()), (buffer, 20));
            assert_eq!(recycled_buffers(), 0);
        });
    }

    #[test]
    fn a_residue_sized_take_leaves_the_digit_matrix_free() {
        on_fresh_thread(|| {
            let (digits, residue) = (Words::for_overwrite(16 * 9), Words::for_overwrite(16));
            let (big, small) = (digits.as_ptr(), residue.as_ptr());
            drop((digits, residue));
            assert_eq!(recycled_buffers(), 2);
            let lane = Words::for_overwrite(16);
            assert_eq!(lane.as_ptr(), small);
            let matrix = Words::for_overwrite(16 * 9);
            assert_eq!(matrix.as_ptr(), big);
        });
    }

    #[test]
    fn a_polynomial_in_a_word_buffer_has_its_own_basis() {
        on_fresh_thread(|| {
            let words = Words::for_overwrite(32);
            let buffer = words.as_ptr();
            drop(words);
            let p = RnsPoly::for_overwrite(16, &mods(), Representation::Ntt);
            assert_eq!(p.data().as_ptr(), buffer);
            assert_eq!((p.num_residues(), p.data().len()), (2, 32));
            assert_eq!(p.moduli(), &mods()[..]);
        });
    }

    #[test]
    fn the_list_holds_no_more_than_the_high_water_and_settles_down() {
        on_fresh_thread(|| {
            let foreign = || vec![RnsPoly::zero(16, &mods(), Representation::Ntt); 4];
            drop(foreign());
            assert_eq!(recycled_buffers(), 0, "nothing has been out yet");
            drop(take(8));
            drop((take(2), foreign()));
            assert_eq!(recycled_buffers(), 8);
            settle_recycler();
            assert_eq!(recycled_buffers(), 8);
            drop(take(2));
            assert_eq!(recycled_buffers(), 8, "mid-window, the bound stands");
            settle_recycler();
            assert_eq!(recycled_buffers(), 2);
            drop(take(5));
            assert_eq!(recycled_buffers(), 5, "demand raises it again");
        });
    }

    #[test]
    fn another_threads_list_is_untouched() {
        on_fresh_thread(|| {
            drop(take(2));
            let mine = take(1);
            on_fresh_thread(move || {
                drop((take(3), mine));
                assert_eq!(recycled_buffers(), 3);
            });
            assert_eq!(recycled_buffers(), 1);
        });
    }

    #[test]
    fn pop_residue_shrinks() {
        let m = mods();
        let mut a = RnsPoly::zero(16, &m, Representation::Coefficient);
        a.residue_mut(1)[5] = 42;
        let (p, tail) = a.pop_residue();
        assert_eq!(p.value(), m[1].value());
        assert_eq!(tail[5], 42);
        assert_eq!(a.num_residues(), 1);
    }
}
