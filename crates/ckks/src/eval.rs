//! Homomorphic evaluation: the server-side operations HEAX accelerates.
//!
//! * [`Evaluator::add`] / [`Evaluator::sub`] — `CKKS.Add` (Section 3.2);
//! * [`Evaluator::multiply`] — `CKKS.Mul`, Algorithm 5 (dyadic products of
//!   all component pairs; the MULT module in hardware);
//! * [`Evaluator::rescale`] — `CKKS.Rescale`, Algorithm 6;
//! * [`Evaluator::key_switch`] — `KeySwitch`, Algorithm 7 (the KeySwitch
//!   module in hardware);
//! * [`Evaluator::relinearize`] — `CKKS.Relin` (key switch on `c₂`);
//! * [`Evaluator::rotate`] / [`Evaluator::conjugate`] — Galois automorphism
//!   plus key switch.
//!
//! One deliberate deviation from the paper's pseudo-code: Algorithm 7 ends
//! with `ct' ← CKKS.Add(ct, ct')`, which as written would add the *old*
//! `c₁` into the key-switched `c₁` component. As in SEAL (which the
//! algorithm transcribes), the key-switched pair must replace the
//! component being switched: relinearization computes
//! `(c₀ + f₀, c₁ + f₁)` where `(f₀, f₁) = KeySwitchInner(c₂)`, and rotation
//! computes `(τ(c₀) + f₀, f₁)` where `(f₀, f₁) = KeySwitchInner(τ(c₁))`.
//! [`Evaluator::key_switch`] exposes the inner primitive directly.

use std::sync::{Arc, Mutex};

use heax_math::exec::{self, Executor};
use heax_math::poly::{Representation, RnsPoly};

use crate::ciphertext::{Ciphertext, Plaintext};
use crate::context::CkksContext;
use crate::flooring::floor_last_into;
use crate::galois::{apply_galois_ntt_into, galois_elt_conjugate, galois_elt_from_step};
use crate::keys::{GaloisKeys, KeySwitchKey, RelinKey};
use crate::keyswitch::{KeySwitcher, KsBuffers, TableNtt};
use crate::scratch::KeySwitchScratch;
use crate::CkksError;

/// Relative tolerance when comparing scales of operands.
const SCALE_RTOL: f64 = 1e-9;

/// Evaluator borrowing a context, plus an internal reusable workspace.
///
/// By default limb-level work (dyadic products, per-limb NTTs, the
/// key-switch inner loop) is dispatched through the global executor
/// selected by `HEAX_THREADS` (see [`heax_math::exec`]); use
/// [`Evaluator::with_executor`] to pin an explicit backend. All backends
/// are bit-identical.
///
/// The evaluator owns a `KeySwitchScratch` buffer pool (behind a mutex,
/// so the type stays `Sync`): key switching, rescaling, and rotation
/// reuse the same accumulators and per-limb lanes instead of allocating
/// on every call — [`Evaluator::key_switch_into`] is allocation-free
/// after warm-up. Cloning an evaluator starts a fresh (cold) workspace.
#[derive(Debug)]
pub struct Evaluator<'a> {
    ctx: &'a CkksContext,
    exec: Arc<dyn Executor>,
    scratch: Mutex<KeySwitchScratch>,
}

impl Clone for Evaluator<'_> {
    fn clone(&self) -> Self {
        Self {
            ctx: self.ctx,
            exec: self.exec.clone(),
            scratch: Mutex::new(KeySwitchScratch::new()),
        }
    }
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator using the global (`HEAX_THREADS`-selected)
    /// execution backend.
    pub fn new(ctx: &'a CkksContext) -> Self {
        Self::with_executor(ctx, exec::global().clone())
    }

    /// Creates an evaluator with an explicit execution backend.
    pub fn with_executor(ctx: &'a CkksContext, exec: Arc<dyn Executor>) -> Self {
        Self {
            ctx,
            exec,
            scratch: Mutex::new(KeySwitchScratch::new()),
        }
    }

    /// Locks the scratch workspace (recovering from a poisoned lock — the
    /// buffers hold no invariants a panic could break mid-update that the
    /// per-call `fill(0)` / `ensure` reshaping does not restore).
    fn scratch(&self) -> std::sync::MutexGuard<'_, KeySwitchScratch> {
        self.scratch.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The context.
    #[inline]
    pub fn context(&self) -> &CkksContext {
        self.ctx
    }

    /// The execution backend in use.
    #[inline]
    pub fn executor(&self) -> &Arc<dyn Executor> {
        &self.exec
    }

    fn check_pair(&self, a: &Ciphertext, b: &Ciphertext) -> Result<(), CkksError> {
        if a.level != b.level {
            return Err(CkksError::LevelMismatch {
                a: a.level,
                b: b.level,
            });
        }
        if !scales_match(a.scale, b.scale) {
            return Err(CkksError::ScaleMismatch {
                a: a.scale,
                b: b.scale,
            });
        }
        Ok(())
    }

    /// `CKKS.Add`: component-wise sum. Operands may have different sizes
    /// (e.g. a 3-component product plus a fresh ciphertext).
    ///
    /// # Errors
    ///
    /// [`CkksError::LevelMismatch`] / [`CkksError::ScaleMismatch`] when the
    /// operands disagree.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, CkksError> {
        self.check_pair(a, b)?;
        let (longer, shorter) = if a.size() >= b.size() { (a, b) } else { (b, a) };
        let mut sum = longer.clone();
        sum.scale = a.scale;
        self.add_assign(&mut sum, shorter)?;
        Ok(sum)
    }

    /// [`Evaluator::add`] into `a`, which keeps its scale: the sum of a
    /// ciphertext the caller owns costs no copy of it. A `b` with more
    /// components than `a` has lends it copies of the extra ones.
    ///
    /// # Errors
    ///
    /// Same as [`Evaluator::add`]; a level or scale mismatch leaves `a` as
    /// it was.
    pub fn add_assign(&self, a: &mut Ciphertext, b: &Ciphertext) -> Result<(), CkksError> {
        self.check_pair(a, b)?;
        for (dst, src) in a.polys.iter_mut().zip(&b.polys) {
            dst.add_assign_with(src, self.exec.as_ref())?;
        }
        let shared = a.size().min(b.size());
        a.polys.extend_from_slice(&b.polys[shared..]);
        Ok(())
    }

    /// Component-wise difference (`a - b`).
    ///
    /// # Errors
    ///
    /// Same as [`Evaluator::add`].
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, CkksError> {
        self.check_pair(a, b)?;
        let size = a.size().max(b.size());
        let mut polys = Vec::with_capacity(size);
        // The zero stand-in is only needed when the operands differ in
        // component count (e.g. 3-component product minus fresh pair).
        let zero = if a.size() != b.size() {
            Some(RnsPoly::zero(
                self.ctx.n(),
                self.ctx.level_moduli(a.level),
                Representation::Ntt,
            ))
        } else {
            None
        };
        for i in 0..size {
            let ai = a.polys.get(i).or(zero.as_ref()).expect("zero present");
            let bi = b.polys.get(i).or(zero.as_ref()).expect("zero present");
            polys.push(ai.sub_with(bi, self.exec.as_ref())?);
        }
        Ciphertext::from_parts(polys, a.level, a.scale)
    }

    /// Negation.
    pub fn negate(&self, a: &Ciphertext) -> Ciphertext {
        Ciphertext {
            polys: a.polys.iter().map(RnsPoly::neg).collect(),
            level: a.level,
            scale: a.scale,
        }
    }

    /// Adds a plaintext into the `c₀` component.
    ///
    /// # Errors
    ///
    /// Level/scale mismatches as in [`Evaluator::add`].
    pub fn add_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, CkksError> {
        if a.level != pt.level {
            return Err(CkksError::LevelMismatch {
                a: a.level,
                b: pt.level,
            });
        }
        if !scales_match(a.scale, pt.scale) {
            return Err(CkksError::ScaleMismatch {
                a: a.scale,
                b: pt.scale,
            });
        }
        let mut out = a.clone();
        out.polys[0].add_assign(&pt.poly)?;
        Ok(out)
    }

    /// Subtracts a plaintext from the `c₀` component.
    ///
    /// # Errors
    ///
    /// Level/scale mismatches as in [`Evaluator::add`].
    pub fn sub_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, CkksError> {
        if a.level != pt.level {
            return Err(CkksError::LevelMismatch {
                a: a.level,
                b: pt.level,
            });
        }
        if !scales_match(a.scale, pt.scale) {
            return Err(CkksError::ScaleMismatch {
                a: a.scale,
                b: pt.scale,
            });
        }
        let mut out = a.clone();
        out.polys[0] = out.polys[0].sub(&pt.poly)?;
        Ok(out)
    }

    /// Ciphertext-plaintext multiplication (the C-P mode of the MULT
    /// module): every component is multiplied dyadically by the plaintext.
    /// The output scale is the product of scales.
    ///
    /// # Errors
    ///
    /// [`CkksError::LevelMismatch`] when levels disagree.
    pub fn multiply_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, CkksError> {
        if a.level != pt.level {
            return Err(CkksError::LevelMismatch {
                a: a.level,
                b: pt.level,
            });
        }
        let mut polys = Vec::with_capacity(a.size());
        for c in &a.polys {
            // Write the product straight into the fresh output instead of
            // cloning `c` first (clone-then-overwrite is a wasted memcpy).
            let mut prod = RnsPoly::zero(self.ctx.n(), c.moduli(), c.representation());
            prod.dyadic_mul_set_with(c, &pt.poly, self.exec.as_ref())?;
            polys.push(prod);
        }
        Ciphertext::from_parts(polys, a.level, a.scale * pt.scale)
    }

    /// `CKKS.Mul`, Algorithm 5, generalized to α- and β-component inputs
    /// as the MULT module is (Section 4.1): the output has `α + β - 1`
    /// components `c_t = Σ_{i+j=t} a_i ⊙ b_j`.
    ///
    /// # Errors
    ///
    /// Level/scale mismatches as in [`Evaluator::add`].
    pub fn multiply(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, CkksError> {
        self.check_pair(a, b)?;
        let alpha = a.size();
        let beta = b.size();
        let out_size = alpha + beta - 1;
        let moduli = self.ctx.level_moduli(a.level);
        let mut polys = Vec::with_capacity(out_size);
        for t in 0..out_size {
            // First contributing pair writes the product directly; the
            // rest accumulate — no add-onto-zero pass, bit-identical sums.
            let mut ct = RnsPoly::zero(self.ctx.n(), moduli, Representation::Ntt);
            let i_lo = (t + 1).saturating_sub(beta);
            for i in i_lo..=t.min(alpha - 1) {
                let j = t - i;
                if i == i_lo {
                    ct.dyadic_mul_set_with(&a.polys[i], &b.polys[j], self.exec.as_ref())?;
                } else {
                    ct.dyadic_mul_acc_with(&a.polys[i], &b.polys[j], self.exec.as_ref())?;
                }
            }
            polys.push(ct);
        }
        Ciphertext::from_parts(polys, a.level, a.scale * b.scale)
    }

    /// Squares a ciphertext (multiply with itself).
    ///
    /// # Errors
    ///
    /// Same as [`Evaluator::multiply`].
    pub fn square(&self, a: &Ciphertext) -> Result<Ciphertext, CkksError> {
        self.multiply(a, a)
    }

    /// Multiplies by a small signed integer constant *without* touching
    /// the scale or consuming a level: every residue is scaled by
    /// `[v]_{p_i}`. Noise grows by `|v|`.
    pub fn multiply_integer(&self, a: &Ciphertext, v: i64) -> Ciphertext {
        let moduli = self.ctx.level_moduli(a.level);
        let scalars: Vec<u64> = moduli.iter().map(|m| m.reduce_i64(v)).collect();
        let mut out = a.clone();
        for p in &mut out.polys {
            p.scale_per_residue(&scalars);
        }
        out
    }

    /// Sums many ciphertexts (tree-free left fold; noise grows linearly).
    ///
    /// # Errors
    ///
    /// [`CkksError::InvalidCiphertext`] on an empty list; level/scale
    /// mismatches as in [`Evaluator::add`].
    pub fn add_many(&self, cts: &[Ciphertext]) -> Result<Ciphertext, CkksError> {
        let (first, rest) = cts.split_first().ok_or(CkksError::InvalidCiphertext {
            components: 0,
            expected: "at least one ciphertext",
        })?;
        let mut acc = first.clone();
        for ct in rest {
            self.add_assign(&mut acc, ct)?;
        }
        Ok(acc)
    }

    /// `CKKS.Rescale`, Algorithm 6: floors every component by the last
    /// active prime, dropping one level and dividing the scale by that
    /// prime.
    ///
    /// # Errors
    ///
    /// [`CkksError::LevelExhausted`] at level 0.
    pub fn rescale(&self, a: &Ciphertext) -> Result<Ciphertext, CkksError> {
        if a.level == 0 {
            return Err(CkksError::LevelExhausted);
        }
        let dropped = self.ctx.moduli()[a.level].value() as f64;
        let n = self.ctx.n();
        let out_moduli = self.ctx.level_moduli(a.level - 1);
        let mut polys = Vec::with_capacity(a.size());
        let mut guard = self.scratch();
        let bufs = &mut guard.ks;
        bufs.ensure(self.ctx, a.level);
        let KsBuffers {
            lane, drop_coeff, ..
        } = bufs;
        for c in &a.polys {
            let mut out = RnsPoly::zero(n, out_moduli, Representation::Ntt);
            floor_last_into(
                c,
                self.ctx,
                a.level,
                self.exec.as_ref(),
                drop_coeff,
                lane,
                &mut out,
            )?;
            polys.push(out);
        }
        drop(guard);
        Ciphertext::from_parts(polys, a.level - 1, a.scale / dropped)
    }

    /// Drops to the next level *without* scaling (modulus switching of the
    /// ciphertext basis only): simply forgets the last residue. Used to
    /// align levels of operands.
    ///
    /// # Errors
    ///
    /// [`CkksError::LevelExhausted`] at level 0.
    pub fn mod_switch_to_next(&self, a: &Ciphertext) -> Result<Ciphertext, CkksError> {
        if a.level == 0 {
            return Err(CkksError::LevelExhausted);
        }
        let mut polys = Vec::with_capacity(a.size());
        for c in &a.polys {
            let mut p = c.clone();
            p.pop_residue();
            polys.push(p);
        }
        Ciphertext::from_parts(polys, a.level - 1, a.scale)
    }

    /// Modulus-switches down to an arbitrary `target` level (repeated
    /// [`Evaluator::mod_switch_to_next`]). The wire path uses this to
    /// compress replies: a client that will only *decrypt* the result
    /// needs a single residue, so the server drops every higher limb
    /// before serializing and shrinks the PCIe-out transfer by `k×`.
    ///
    /// # Errors
    ///
    /// [`CkksError::LevelMismatch`] when `target` is above the
    /// ciphertext's current level.
    pub fn mod_switch_to_level(
        &self,
        a: &Ciphertext,
        target: usize,
    ) -> Result<Ciphertext, CkksError> {
        if target > a.level {
            return Err(CkksError::LevelMismatch {
                a: target,
                b: a.level,
            });
        }
        if target == a.level {
            return Ok(a.clone());
        }
        let mut polys = Vec::with_capacity(a.size());
        for c in &a.polys {
            let mut p = c.clone();
            for _ in target..a.level {
                p.pop_residue();
            }
            polys.push(p);
        }
        Ciphertext::from_parts(polys, target, a.scale)
    }

    /// The inner key-switching primitive (Algorithm 7, lines 1–19): given a
    /// single NTT-form polynomial `target` over the basis of `level` and a
    /// key-switching key, produces the pair `(f₀, f₁)` over the same basis
    /// such that `f₀ + f₁·s ≈ target·s'`.
    ///
    /// This is the one-key, identity-permutation case of the shared
    /// skeleton ([`crate::keyswitch`]) over the software NTT kernels: the
    /// accumulation multiplies the digits into the key's plain residues,
    /// sums each coefficient's products double-width and reduces once —
    /// bit-identical to a strict Barrett evaluation of Algorithm 7 (the
    /// property suite keeps one as its oracle).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::Math`] on representation/shape mismatches.
    pub fn key_switch(
        &self,
        target: &RnsPoly,
        ksk: &KeySwitchKey,
        level: usize,
    ) -> Result<(RnsPoly, RnsPoly), CkksError> {
        let n = self.ctx.n();
        let moduli = self.ctx.level_moduli(level);
        let mut f0 = RnsPoly::zero(n, moduli, Representation::Ntt);
        let mut f1 = RnsPoly::zero(n, moduli, Representation::Ntt);
        self.key_switch_into(target, ksk, level, &mut f0, &mut f1)?;
        Ok((f0, f1))
    }

    /// [`Evaluator::key_switch`] into caller-provided output buffers:
    /// `f0`/`f1` must be NTT-form polynomials over the basis of `level`.
    /// Together with the evaluator's internal workspace this makes the
    /// call **allocation-free after warm-up** (the first call at a level
    /// higher than any before grows the buffers; see the `alloc`
    /// integration test).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::Math`] on representation/shape mismatches of
    /// the target or the output buffers.
    pub fn key_switch_into(
        &self,
        target: &RnsPoly,
        ksk: &KeySwitchKey,
        level: usize,
        f0: &mut RnsPoly,
        f1: &mut RnsPoly,
    ) -> Result<(), CkksError> {
        let mut guard = self.scratch();
        self.switcher()
            .key_switch_into(&mut guard.ks, target, ksk, level, f0, f1)
    }

    /// The shared key-switch skeleton over the software NTT kernels.
    fn switcher(&self) -> KeySwitcher<'_, TableNtt> {
        KeySwitcher::new(self.ctx, self.exec.as_ref(), &TableNtt)
    }

    /// `CKKS.Relin`: key-switches the `c₂` component of a 3-component
    /// ciphertext back onto `(c₀, c₁)`.
    ///
    /// # Errors
    ///
    /// [`CkksError::InvalidCiphertext`] unless the input has exactly three
    /// components.
    pub fn relinearize(&self, a: &Ciphertext, rlk: &RelinKey) -> Result<Ciphertext, CkksError> {
        if a.size() != 3 {
            return Err(CkksError::InvalidCiphertext {
                components: a.size(),
                expected: "exactly 3",
            });
        }
        let (mut f0, mut f1) = self.key_switch(&a.polys[2], &rlk.ksk, a.level)?;
        // Accumulate (c₀, c₁) into the key-switch outputs in place.
        f0.add_assign_with(&a.polys[0], self.exec.as_ref())?;
        f1.add_assign_with(&a.polys[1], self.exec.as_ref())?;
        Ciphertext::from_parts(vec![f0, f1], a.level, a.scale)
    }

    /// Multiply then relinearize — the paper's "MULT+ReLin" composite
    /// operation (Table 8).
    ///
    /// # Errors
    ///
    /// Union of [`Evaluator::multiply`] and [`Evaluator::relinearize`].
    pub fn multiply_relin(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
        rlk: &RelinKey,
    ) -> Result<Ciphertext, CkksError> {
        let prod = self.multiply(a, b)?;
        self.relinearize(&prod, rlk)
    }

    /// Rotates slots left by `step` (negative = right): applies the Galois
    /// automorphism to both components, then key-switches the `c₁`
    /// component back to the original key.
    ///
    /// # Errors
    ///
    /// [`CkksError::MissingGaloisKey`] if no key was generated for the
    /// step; [`CkksError::InvalidCiphertext`] for non-2-component inputs
    /// (relinearize first).
    pub fn rotate(
        &self,
        a: &Ciphertext,
        step: i64,
        gks: &GaloisKeys,
    ) -> Result<Ciphertext, CkksError> {
        self.apply_galois(a, galois_elt_from_step(step, self.ctx.n()), gks)
    }

    /// Complex conjugation of all slots.
    ///
    /// # Errors
    ///
    /// Same as [`Evaluator::rotate`].
    pub fn conjugate(&self, a: &Ciphertext, gks: &GaloisKeys) -> Result<Ciphertext, CkksError> {
        self.apply_galois(a, galois_elt_conjugate(self.ctx.n()), gks)
    }

    /// Applies an arbitrary Galois element (rotation generalization).
    ///
    /// The rotated `c₁` lands in the evaluator's scratch buffer (no fresh
    /// polynomial per call), and `τ(c₀)` is never materialized: the
    /// permuted add is fused into the floor's store of `f₀`.
    ///
    /// # Errors
    ///
    /// Same as [`Evaluator::rotate`].
    pub fn apply_galois(
        &self,
        a: &Ciphertext,
        elt: usize,
        gks: &GaloisKeys,
    ) -> Result<Ciphertext, CkksError> {
        if a.size() != 2 {
            return Err(CkksError::InvalidCiphertext {
                components: a.size(),
                expected: "exactly 2 (relinearize first)",
            });
        }
        let ksk = gks.key(elt)?;
        let table = gks.permutation(elt)?;
        let ctx = self.ctx;
        let n = ctx.n();
        let level = a.level;
        let moduli = ctx.level_moduli(level);
        let mut f0 = RnsPoly::zero(n, moduli, Representation::Ntt);
        let mut f1 = RnsPoly::zero(n, moduli, Representation::Ntt);
        {
            let switcher = self.switcher();
            let mut guard = self.scratch();
            let scratch = &mut *guard;
            scratch.ensure_rotated(ctx, level);
            let KeySwitchScratch { ks, rotated, .. } = scratch;
            apply_galois_ntt_into(&a.polys[1], table, rotated)?;
            switcher.decompose(ks, rotated, level)?;
            switcher.accumulate(ks, ksk, None, level);
            // c₀' = τ(c₀) + f₀, added as the floor stores f₀.
            switcher.floor(ks, level, Some((&a.polys[0], table)), &mut f0, &mut f1)?;
        }
        Ciphertext::from_parts(vec![f0, f1], level, a.scale)
    }

    /// Hoisted multi-rotation: rotates `a` by every step in `steps`,
    /// decomposing/INTT-ing the `c₁` component **once** and applying each
    /// requested Galois element against the shared decomposition — `t`
    /// rotations cost one decomposition plus `t` cheap accumulation
    /// passes instead of `t` full key switches (the batched-rotation
    /// pattern of the paper's matrix-vector and convolution workloads).
    ///
    /// The outputs decrypt to the same values as sequential
    /// [`Evaluator::rotate`] calls; the ciphertext bits differ by a
    /// rounding-level noise term because the automorphism is applied to
    /// the shared NTT-form digits rather than re-decomposing the rotated
    /// polynomial (the standard hoisting trade, noise-equivalent).
    ///
    /// # Errors
    ///
    /// [`CkksError::MissingGaloisKey`] if any step lacks a key;
    /// [`CkksError::InvalidCiphertext`] for non-2-component inputs.
    pub fn rotate_many(
        &self,
        a: &Ciphertext,
        steps: &[i64],
        gks: &GaloisKeys,
    ) -> Result<Vec<Ciphertext>, CkksError> {
        let mut guard = self.scratch();
        self.switcher().rotate_many(&mut guard.ks, a, steps, gks)
    }
}

/// Whether two scales are equal within the evaluator's tolerance.
pub fn scales_match(a: f64, b: f64) -> bool {
    (a - b).abs() <= SCALE_RTOL * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::tests::small;
    use crate::encoder::CkksEncoder;
    use crate::encrypt::{Decryptor, Encryptor};
    use crate::keys::{PublicKey, SecretKey};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Harness {
        ctx: CkksContext,
        sk: SecretKey,
        pk: PublicKey,
        rlk: RelinKey,
        rng: StdRng,
    }

    fn harness(seed: u64) -> Harness {
        let ctx = CkksContext::new(small()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng);
        let rlk = RelinKey::generate(&ctx, &sk, &mut rng);
        Harness {
            ctx,
            sk,
            pk,
            rlk,
            rng,
        }
    }

    impl Harness {
        fn encrypt(&mut self, vals: &[f64]) -> Ciphertext {
            let enc = CkksEncoder::new(&self.ctx);
            let pt = enc
                .encode_real(vals, self.ctx.params().scale(), self.ctx.max_level())
                .unwrap();
            Encryptor::new(&self.ctx, &self.pk)
                .encrypt(&pt, &mut self.rng)
                .unwrap()
        }

        fn decrypt(&self, ct: &Ciphertext) -> Vec<f64> {
            let enc = CkksEncoder::new(&self.ctx);
            let pt = Decryptor::new(&self.ctx, &self.sk).decrypt(ct).unwrap();
            enc.decode_real(&pt).unwrap()
        }
    }

    #[test]
    fn homomorphic_addition() {
        let mut h = harness(31);
        let a = h.encrypt(&[1.0, 2.0, -3.0]);
        let b = h.encrypt(&[0.5, -1.0, 10.0]);
        let ev = Evaluator::new(&h.ctx);
        let sum = ev.add(&a, &b).unwrap();
        let got = h.decrypt(&sum);
        for (g, w) in got.iter().zip([1.5, 1.0, 7.0]) {
            assert!((g - w).abs() < 1e-2, "{g} vs {w}");
        }
        let diff = ev.sub(&a, &b).unwrap();
        let got = h.decrypt(&diff);
        for (g, w) in got.iter().zip([0.5, 3.0, -13.0]) {
            assert!((g - w).abs() < 1e-2, "{g} vs {w}");
        }
    }

    #[test]
    fn homomorphic_multiplication_and_relin() {
        let mut h = harness(32);
        let a = h.encrypt(&[1.5, 2.0, -3.0]);
        let b = h.encrypt(&[2.0, -0.5, 4.0]);
        let ev = Evaluator::new(&h.ctx);
        let prod = ev.multiply(&a, &b).unwrap();
        assert_eq!(prod.size(), 3);
        // 3-component ciphertext decrypts correctly (Σ c_i s^i).
        let got = h.decrypt(&prod);
        for (g, w) in got.iter().zip([3.0, -1.0, -12.0]) {
            assert!((g - w).abs() < 1e-1, "{g} vs {w} (pre-relin)");
        }
        // Relinearized back to 2 components, same values.
        let lin = ev.relinearize(&prod, &h.rlk).unwrap();
        assert_eq!(lin.size(), 2);
        let got = h.decrypt(&lin);
        for (g, w) in got.iter().zip([3.0, -1.0, -12.0]) {
            assert!((g - w).abs() < 1e-1, "{g} vs {w} (post-relin)");
        }
    }

    #[test]
    fn rescale_drops_level_and_scale() {
        let mut h = harness(33);
        let a = h.encrypt(&[2.0]);
        let b = h.encrypt(&[3.0]);
        let ev = Evaluator::new(&h.ctx);
        let prod = ev.multiply_relin(&a, &b, &h.rlk).unwrap();
        let scale_before = prod.scale();
        let rs = ev.rescale(&prod).unwrap();
        assert_eq!(rs.level(), h.ctx.max_level() - 1);
        let p_dropped = h.ctx.moduli()[h.ctx.max_level()].value() as f64;
        assert!((rs.scale() - scale_before / p_dropped).abs() < 1.0);
        let got = h.decrypt(&rs);
        assert!((got[0] - 6.0).abs() < 1e-1, "{}", got[0]);
    }

    #[test]
    fn multiply_plain_and_add_plain() {
        let mut h = harness(34);
        let a = h.encrypt(&[1.0, -2.0]);
        let enc = CkksEncoder::new(&h.ctx);
        let scale = h.ctx.params().scale();
        let pt = enc
            .encode_real(&[3.0, 3.0], scale, h.ctx.max_level())
            .unwrap();
        let ev = Evaluator::new(&h.ctx);
        let prod = ev.multiply_plain(&a, &pt).unwrap();
        let got = h.decrypt(&prod);
        assert!((got[0] - 3.0).abs() < 1e-1);
        assert!((got[1] + 6.0).abs() < 1e-1);

        let sum = ev.add_plain(&a, &pt).unwrap();
        let got = h.decrypt(&sum);
        assert!((got[0] - 4.0).abs() < 1e-2);
        assert!((got[1] - 1.0).abs() < 1e-2);

        let diff = ev.sub_plain(&a, &pt).unwrap();
        let got = h.decrypt(&diff);
        assert!((got[0] + 2.0).abs() < 1e-2);
    }

    #[test]
    fn level_and_scale_mismatches_rejected() {
        let mut h = harness(35);
        let a = h.encrypt(&[1.0]);
        let b = h.encrypt(&[1.0]);
        let ev = Evaluator::new(&h.ctx);
        let dropped = ev.mod_switch_to_next(&b).unwrap();
        assert!(matches!(
            ev.add(&a, &dropped),
            Err(CkksError::LevelMismatch { .. })
        ));
        let mut rescaled = a.clone();
        rescaled.set_scale(a.scale() * 3.0);
        assert!(matches!(
            ev.add(&a, &rescaled),
            Err(CkksError::ScaleMismatch { .. })
        ));
    }

    #[test]
    fn relinearize_requires_three_components() {
        let mut h = harness(36);
        let a = h.encrypt(&[1.0]);
        let ev = Evaluator::new(&h.ctx);
        assert!(matches!(
            ev.relinearize(&a, &h.rlk),
            Err(CkksError::InvalidCiphertext { .. })
        ));
    }

    #[test]
    fn rotation_moves_slots() {
        let mut h = harness(37);
        let slots = h.ctx.n() / 2;
        let vals: Vec<f64> = (0..slots).map(|i| i as f64).collect();
        let a = h.encrypt(&vals);
        let mut rng = StdRng::seed_from_u64(99);
        let gks = GaloisKeys::generate(&h.ctx, &h.sk, &[1, -1, 3], &mut rng);
        let ev = Evaluator::new(&h.ctx);
        for step in [1i64, -1, 3] {
            let rot = ev.rotate(&a, step, &gks).unwrap();
            let got = h.decrypt(&rot);
            for (j, g) in got.iter().enumerate() {
                let src = (j as i64 + step).rem_euclid(slots as i64) as usize;
                assert!(
                    (g - vals[src]).abs() < 1e-1,
                    "step {step}: slot {j} got {g}, want {}",
                    vals[src]
                );
            }
        }
    }

    #[test]
    fn key_switch_matches_barrett_reference() {
        let mut h = harness(60);
        let a = h.encrypt(&[1.5, -2.0]);
        let b = h.encrypt(&[0.25, 3.0]);
        let ev = Evaluator::new(&h.ctx);
        let prod = ev.multiply(&a, &b).unwrap();
        let (f0, f1) = ev
            .key_switch(prod.component(2), h.rlk.ksk(), prod.level())
            .unwrap();
        let (g0, g1) = crate::test_support::barrett_key_switch(
            &h.ctx,
            prod.component(2),
            h.rlk.ksk(),
            prod.level(),
        );
        assert_eq!(f0, g0, "f0 must equal the seed Barrett path");
        assert_eq!(f1, g1, "f1 must equal the seed Barrett path");
    }

    #[test]
    fn key_switch_into_reuses_buffers_and_matches() {
        let mut h = harness(61);
        let a = h.encrypt(&[2.0, 1.0]);
        let ev = Evaluator::new(&h.ctx);
        let prod = ev.multiply(&a, &a).unwrap();
        let (f0, f1) = ev
            .key_switch(prod.component(2), h.rlk.ksk(), prod.level())
            .unwrap();
        let moduli = h.ctx.level_moduli(prod.level());
        let mut g0 = RnsPoly::zero(h.ctx.n(), moduli, Representation::Ntt);
        let mut g1 = RnsPoly::zero(h.ctx.n(), moduli, Representation::Ntt);
        // Two calls into the same buffers: both must land on the same
        // values (stale contents fully overwritten).
        for _ in 0..2 {
            ev.key_switch_into(
                prod.component(2),
                h.rlk.ksk(),
                prod.level(),
                &mut g0,
                &mut g1,
            )
            .unwrap();
            assert_eq!(f0, g0);
            assert_eq!(f1, g1);
        }
        // Mis-shaped outputs rejected.
        let mut bad = RnsPoly::zero(h.ctx.n(), &moduli[..1], Representation::Ntt);
        assert!(ev
            .key_switch_into(
                prod.component(2),
                h.rlk.ksk(),
                prod.level(),
                &mut bad,
                &mut g1
            )
            .is_err());
    }

    #[test]
    fn rotate_many_decrypts_like_sequential_rotations() {
        let mut h = harness(62);
        let slots = h.ctx.n() / 2;
        let vals: Vec<f64> = (0..slots).map(|i| i as f64 * 0.5 - 3.0).collect();
        let a = h.encrypt(&vals);
        let steps = [1i64, -1, 2, 5];
        let mut rng = StdRng::seed_from_u64(102);
        let gks = GaloisKeys::generate(&h.ctx, &h.sk, &steps, &mut rng);
        let ev = Evaluator::new(&h.ctx);
        let hoisted = ev.rotate_many(&a, &steps, &gks).unwrap();
        assert_eq!(hoisted.len(), steps.len());
        for (ct, &step) in hoisted.iter().zip(&steps) {
            let seq = ev.rotate(&a, step, &gks).unwrap();
            assert_eq!(ct.level(), seq.level());
            assert_eq!(ct.scale(), seq.scale());
            let got = h.decrypt(ct);
            let want = h.decrypt(&seq);
            for (j, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (g - w).abs() < 1e-2,
                    "step {step}: slot {j} hoisted {g} vs sequential {w}"
                );
            }
        }
        // Empty step list is a no-op.
        assert!(ev.rotate_many(&a, &[], &gks).unwrap().is_empty());
        // Missing key surfaces before any work.
        assert!(matches!(
            ev.rotate_many(&a, &[7], &gks),
            Err(CkksError::MissingGaloisKey { .. })
        ));
    }

    #[test]
    fn conjugate_negates_imaginary() {
        let mut h = harness(38);
        let enc = CkksEncoder::new(&h.ctx);
        let vals = vec![
            heax_math::fft::Complex64::new(1.0, 2.0),
            heax_math::fft::Complex64::new(-3.0, 0.5),
        ];
        let pt = enc
            .encode(&vals, h.ctx.params().scale(), h.ctx.max_level())
            .unwrap();
        let ct = Encryptor::new(&h.ctx, &h.pk)
            .encrypt(&pt, &mut h.rng)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(100);
        let gks = GaloisKeys::generate_with_conjugate(&h.ctx, &h.sk, &[], &mut rng);
        let ev = Evaluator::new(&h.ctx);
        let conj = ev.conjugate(&ct, &gks).unwrap();
        let dec = Decryptor::new(&h.ctx, &h.sk).decrypt(&conj).unwrap();
        let got = enc.decode(&dec).unwrap();
        assert!((got[0].re - 1.0).abs() < 1e-1);
        assert!((got[0].im + 2.0).abs() < 1e-1);
        assert!((got[1].re + 3.0).abs() < 1e-1);
        assert!((got[1].im + 0.5).abs() < 1e-1);
    }

    #[test]
    fn missing_galois_key_rejected() {
        let mut h = harness(39);
        let a = h.encrypt(&[1.0]);
        let mut rng = StdRng::seed_from_u64(101);
        let gks = GaloisKeys::generate(&h.ctx, &h.sk, &[1], &mut rng);
        let ev = Evaluator::new(&h.ctx);
        assert!(matches!(
            ev.rotate(&a, 5, &gks),
            Err(CkksError::MissingGaloisKey { .. })
        ));
    }

    #[test]
    fn depth_two_circuit() {
        // ((a*b rescaled) * c rescaled) uses both levels of the chain.
        let mut h = harness(40);
        let a = h.encrypt(&[1.5]);
        let b = h.encrypt(&[2.0]);
        let ev = Evaluator::new(&h.ctx);
        let ab = ev
            .rescale(&ev.multiply_relin(&a, &b, &h.rlk).unwrap())
            .unwrap();
        // Encrypt c directly at the lower level with the matching scale.
        let enc = CkksEncoder::new(&h.ctx);
        let pt_c = enc.encode_real(&[4.0], ab.scale(), ab.level()).unwrap();
        let c = Encryptor::new(&h.ctx, &h.pk)
            .encrypt(&pt_c, &mut h.rng)
            .unwrap();
        let abc = ev
            .rescale(&ev.multiply_relin(&ab, &c, &h.rlk).unwrap())
            .unwrap();
        assert_eq!(abc.level(), 0);
        let got = h.decrypt(&abc);
        assert!((got[0] - 12.0).abs() < 0.5, "{}", got[0]);
    }

    #[test]
    fn multiply_integer_preserves_scale_and_level() {
        let mut h = harness(42);
        let a = h.encrypt(&[1.5, -2.0]);
        let ev = Evaluator::new(&h.ctx);
        for v in [3i64, -4, 0, 1] {
            let scaled = ev.multiply_integer(&a, v);
            assert_eq!(scaled.level(), a.level());
            assert_eq!(scaled.scale(), a.scale());
            let got = h.decrypt(&scaled);
            assert!((got[0] - 1.5 * v as f64).abs() < 1e-2, "v={v}: {}", got[0]);
            assert!((got[1] + 2.0 * v as f64).abs() < 1e-2, "v={v}: {}", got[1]);
        }
    }

    #[test]
    fn add_many_sums() {
        let mut h = harness(43);
        let cts: Vec<Ciphertext> = (1..=4).map(|i| h.encrypt(&[i as f64])).collect();
        let ev = Evaluator::new(&h.ctx);
        let total = ev.add_many(&cts).unwrap();
        let got = h.decrypt(&total);
        assert!((got[0] - 10.0).abs() < 1e-2);
        assert!(matches!(
            ev.add_many(&[]),
            Err(CkksError::InvalidCiphertext { .. })
        ));
    }

    #[test]
    fn negate_and_mod_switch() {
        let mut h = harness(41);
        let a = h.encrypt(&[2.5]);
        let ev = Evaluator::new(&h.ctx);
        let neg = ev.negate(&a);
        let got = h.decrypt(&neg);
        assert!((got[0] + 2.5).abs() < 1e-2);
        let dropped = ev.mod_switch_to_next(&a).unwrap();
        assert_eq!(dropped.level(), a.level() - 1);
        let got = h.decrypt(&dropped);
        assert!((got[0] - 2.5).abs() < 1e-2);
    }

    #[test]
    fn mod_switch_to_level_compresses_to_one_residue() {
        let mut h = harness(42);
        let a = h.encrypt(&[4.75]);
        let ev = Evaluator::new(&h.ctx);
        // Dropping to level 0 leaves one residue and the same scale, and
        // still decrypts: decrypt-only precision survives the compression.
        let compressed = ev.mod_switch_to_level(&a, 0).unwrap();
        assert_eq!(compressed.level(), 0);
        assert_eq!(compressed.component(0).num_residues(), 1);
        assert_eq!(compressed.scale(), a.scale());
        let got = h.decrypt(&compressed);
        assert!((got[0] - 4.75).abs() < 1e-2);
        // Identity at the current level; error above it.
        assert_eq!(ev.mod_switch_to_level(&a, a.level()).unwrap(), a);
        assert!(ev.mod_switch_to_level(&a, a.level() + 1).is_err());
    }
}
