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

    /// Builds from raw residue data (modulus-major, `k*n` words).
    ///
    /// # Errors
    ///
    /// Returns [`MathError::LengthMismatch`] if `data.len() != n·k`.
    pub fn from_data(
        n: usize,
        moduli: &[Modulus],
        data: Vec<u64>,
        repr: Representation,
    ) -> Result<Self, MathError> {
        if data.len() != n * moduli.len() {
            return Err(MathError::LengthMismatch {
                expected: n * moduli.len(),
                got: data.len(),
            });
        }
        Ok(Self {
            n,
            moduli: moduli.to_vec(),
            data,
            repr,
        })
    }

    /// Reshapes the polynomial in place, keeping its allocations: a
    /// recycled polynomial takes a new degree, basis and representation
    /// without touching the heap when it is as large as it was. The residue
    /// words are whatever was there (zeros where it grew), for the caller
    /// to overwrite.
    pub fn reshape(&mut self, n: usize, moduli: &[Modulus], repr: Representation) {
        self.n = n;
        self.moduli.clear();
        self.moduli.extend_from_slice(moduli);
        self.data.resize(n * moduli.len(), 0);
        self.repr = repr;
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

    /// Negation.
    pub fn neg(&self) -> Self {
        let mut out = self.clone();
        let n = out.n;
        exec::for_each_limb(exec::global().as_ref(), &mut out.data, n, |i, dst| {
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

    /// Multiplies every residue `i` by scalar `scalars[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `scalars.len() != self.num_residues()`.
    pub fn scale_per_residue(&mut self, scalars: &[u64]) {
        assert_eq!(scalars.len(), self.moduli.len());
        let n = self.n;
        exec::for_each_limb(exec::global().as_ref(), &mut self.data, n, |i, dst| {
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
        assert_eq!(a.add(&a.neg()).unwrap().data(), z.data());
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
