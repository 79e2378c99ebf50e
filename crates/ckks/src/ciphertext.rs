//! Plaintext and ciphertext containers.

use heax_math::poly::{Representation, RnsPoly};
use heax_math::sampling::{expand_uniform, EXPAND_SEED_LEN};

use crate::context::CkksContext;
use crate::CkksError;

/// An encoded (but not encrypted) CKKS message: one RNS polynomial in NTT
/// form, a scale, and a level.
#[derive(Clone, Debug, PartialEq)]
pub struct Plaintext {
    pub(crate) poly: RnsPoly,
    pub(crate) level: usize,
    pub(crate) scale: f64,
}

impl Plaintext {
    /// Creates a plaintext from parts. Intended for the encoder and for the
    /// hardware simulators; most users obtain plaintexts from
    /// [`CkksEncoder`](crate::encoder::CkksEncoder).
    pub fn from_parts(poly: RnsPoly, level: usize, scale: f64) -> Self {
        Self { poly, level, scale }
    }

    /// The underlying polynomial (NTT form).
    #[inline]
    pub fn poly(&self) -> &RnsPoly {
        &self.poly
    }

    /// Level in the modulus chain.
    #[inline]
    pub fn level(&self) -> usize {
        self.level
    }

    /// Encoding scale Δ.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

/// A CKKS ciphertext: `size` RNS polynomials in NTT form over the moduli of
/// its level. Fresh ciphertexts have two components; an un-relinearized
/// product has three.
///
/// Decryption computes `Σ_i c_i·s^i`.
#[derive(Clone, Debug, PartialEq)]
pub struct Ciphertext {
    pub(crate) polys: Vec<RnsPoly>,
    pub(crate) level: usize,
    pub(crate) scale: f64,
}

impl Ciphertext {
    /// Assembles a ciphertext from components; all must be in NTT form over
    /// the same basis.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::InvalidCiphertext`] for fewer than two
    /// components and [`CkksError::Math`] on representation mismatches.
    pub fn from_parts(polys: Vec<RnsPoly>, level: usize, scale: f64) -> Result<Self, CkksError> {
        if polys.len() < 2 {
            return Err(CkksError::InvalidCiphertext {
                components: polys.len(),
                expected: "at least 2",
            });
        }
        for p in &polys {
            if p.representation() != Representation::Ntt {
                return Err(CkksError::Math(
                    heax_math::MathError::RepresentationMismatch,
                ));
            }
            if p.num_residues() != level + 1 {
                return Err(CkksError::LevelMismatch {
                    a: level,
                    b: p.num_residues().saturating_sub(1),
                });
            }
        }
        Ok(Self {
            polys,
            level,
            scale,
        })
    }

    /// Number of polynomial components (2 for fresh, 3 after multiply).
    #[inline]
    pub fn size(&self) -> usize {
        self.polys.len()
    }

    /// Component `i`.
    #[inline]
    pub fn component(&self, i: usize) -> &RnsPoly {
        &self.polys[i]
    }

    /// All components.
    #[inline]
    pub fn components(&self) -> &[RnsPoly] {
        &self.polys
    }

    /// The components, for a caller that recycles their polynomials.
    #[inline]
    pub fn into_components(self) -> Vec<RnsPoly> {
        self.polys
    }

    /// Level in the modulus chain (number of active primes minus one).
    #[inline]
    pub fn level(&self) -> usize {
        self.level
    }

    /// Current scale Δ.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Overrides the scale. Exposed for scale-management techniques the
    /// evaluator does not automate (e.g. exact rescale bookkeeping in
    /// application code).
    #[inline]
    pub fn set_scale(&mut self, scale: f64) {
        self.scale = scale;
    }

    /// Ring degree.
    #[inline]
    pub fn n(&self) -> usize {
        self.polys[0].n()
    }

    /// Validates level/size invariants against a context. Used by tests and
    /// by the accelerator front-end before dispatching to hardware.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self, ctx: &CkksContext) -> Result<(), CkksError> {
        if self.level > ctx.max_level() {
            return Err(CkksError::LevelMismatch {
                a: self.level,
                b: ctx.max_level(),
            });
        }
        for p in &self.polys {
            if p.n() != ctx.n() {
                return Err(CkksError::InvalidParameters {
                    reason: format!("degree {} != context degree {}", p.n(), ctx.n()),
                });
            }
            if p.num_residues() != self.level + 1 {
                return Err(CkksError::LevelMismatch {
                    a: self.level,
                    b: p.num_residues().saturating_sub(1),
                });
            }
            for (a, b) in p.moduli().iter().zip(ctx.level_moduli(self.level)) {
                if a.value() != b.value() {
                    return Err(CkksError::Math(heax_math::MathError::BasisMismatch {
                        a: a.value(),
                        b: b.value(),
                    }));
                }
            }
        }
        Ok(())
    }
}

/// A fresh symmetric encryption in seeded form: the `b` component plus the
/// 32-byte seed that deterministically regenerates the uniform `a`
/// component (`a = expand(seed)`), in place of `a` itself.
///
/// This is SEAL's seeded-ciphertext idiom: a fresh encryption's second
/// component is uniform, so the sender can ship the PRNG seed instead and
/// roughly **halve** the upload bytes. The receiver calls
/// [`SeededCiphertext::expand`] to recover the ordinary two-component
/// [`Ciphertext`]; expansion is deterministic, so both sides agree
/// bit-exactly. Only *fresh* encryptions can be seeded — evaluation results
/// are not uniform in any component.
#[derive(Clone, Debug, PartialEq)]
pub struct SeededCiphertext {
    pub(crate) b: RnsPoly,
    pub(crate) seed: [u8; EXPAND_SEED_LEN],
    pub(crate) level: usize,
    pub(crate) scale: f64,
}

impl SeededCiphertext {
    /// Assembles a seeded ciphertext from parts; `b` must be in NTT form
    /// with `level + 1` residues.
    ///
    /// # Errors
    ///
    /// [`CkksError::Math`] on a representation mismatch,
    /// [`CkksError::LevelMismatch`] when `b`'s residue count disagrees
    /// with `level`.
    pub fn from_parts(
        b: RnsPoly,
        seed: [u8; EXPAND_SEED_LEN],
        level: usize,
        scale: f64,
    ) -> Result<Self, CkksError> {
        if b.representation() != Representation::Ntt {
            return Err(CkksError::Math(
                heax_math::MathError::RepresentationMismatch,
            ));
        }
        if b.num_residues() != level + 1 {
            return Err(CkksError::LevelMismatch {
                a: level,
                b: b.num_residues().saturating_sub(1),
            });
        }
        Ok(Self {
            b,
            seed,
            level,
            scale,
        })
    }

    /// The `b` component.
    #[inline]
    pub fn b(&self) -> &RnsPoly {
        &self.b
    }

    /// The 32-byte expansion seed standing in for the `a` component.
    #[inline]
    pub fn seed(&self) -> &[u8; EXPAND_SEED_LEN] {
        &self.seed
    }

    /// Level in the modulus chain.
    #[inline]
    pub fn level(&self) -> usize {
        self.level
    }

    /// Encoding scale Δ.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Re-expands the seed into the uniform `a` component and returns the
    /// ordinary two-component ciphertext. Deterministic: every receiver of
    /// the same seeded ciphertext obtains a bit-identical [`Ciphertext`].
    ///
    /// # Errors
    ///
    /// Propagates validation failures against `ctx` (degree or modulus
    /// chain mismatch).
    pub fn expand(&self, ctx: &CkksContext) -> Result<Ciphertext, CkksError> {
        let a = expand_uniform(&self.seed, self.b.n(), self.b.moduli(), Representation::Ntt);
        let ct = Ciphertext::from_parts(vec![self.b.clone(), a], self.level, self.scale)?;
        ct.validate(ctx)?;
        Ok(ct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heax_math::word::Modulus;

    fn mods() -> Vec<Modulus> {
        heax_math::primes::generate_ntt_primes(30, 2, 16)
            .unwrap()
            .into_iter()
            .map(|p| Modulus::new(p).unwrap())
            .collect()
    }

    #[test]
    fn from_parts_validates() {
        let m = mods();
        let p = RnsPoly::zero(16, &m, Representation::Ntt);
        let ct = Ciphertext::from_parts(vec![p.clone(), p.clone()], 1, 16.0).unwrap();
        assert_eq!(ct.size(), 2);
        assert_eq!(ct.level(), 1);
        assert_eq!(ct.n(), 16);

        // One component: rejected.
        assert!(Ciphertext::from_parts(vec![p.clone()], 1, 16.0).is_err());
        // Wrong representation: rejected.
        let coeff = RnsPoly::zero(16, &m, Representation::Coefficient);
        assert!(Ciphertext::from_parts(vec![coeff.clone(), coeff], 1, 16.0).is_err());
        // Wrong level: rejected.
        let p1 = RnsPoly::zero(16, &m[..1], Representation::Ntt);
        assert!(Ciphertext::from_parts(vec![p1.clone(), p1], 1, 16.0).is_err());
    }

    #[test]
    fn scale_override() {
        let m = mods();
        let p = RnsPoly::zero(16, &m, Representation::Ntt);
        let mut ct = Ciphertext::from_parts(vec![p.clone(), p], 1, 16.0).unwrap();
        ct.set_scale(32.0);
        assert_eq!(ct.scale(), 32.0);
    }
}
