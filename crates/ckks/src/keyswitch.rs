//! `KeySwitch` (Algorithm 7 / Figure 5) as one skeleton of three steps,
//! generic over who executes the transforms.
//!
//! 1. **decompose** — `c₁` is brought to coefficient form residue by
//!    residue (INTT0) and re-expanded over the extended basis (NTT0) into
//!    the NTT-form digits `b̃_{i,j}`. This is the part hoisting shares.
//! 2. **accumulate** — per key, `Σ_i τ(b̃_{i,j}) ⊙ d̃_{i,·,j}` against the
//!    key's plain residues (DyadMult). The sum is kept **double-width** —
//!    unreduced products in a `(hi, lo)` register pair on the 52-bit
//!    lanes, in a `u128` otherwise — and reduced once per coefficient, not
//!    once per term (`Modulus::dyad_acc_lazy`); what reaches memory is one
//!    word in `[0, 4p)`. `τ` is the identity for relinearization and a
//!    Galois permutation — pure addressing — for hoisted rotation.
//! 3. **floor** — both accumulators are divided by the special prime
//!    (INTT1 → NTT1 → MS); the MS step reduces the lazy accumulator words
//!    as it reads them, and for a rotation adds `τ(c₀)` as it stores.
//!
//! Every transform goes through an [`NttBackend`]: [`TableNtt`] runs the
//! software kernels of [`NttTable`], and `heax-core` supplies a backend
//! that streams each residue through the banked hardware dataflow
//! simulator. The arithmetic between transforms is written once, here,
//! so the evaluator and the accelerator agree bit for bit by
//! construction, and relinearization (one key, identity permutation) and
//! hoisted rotation (`t` keys over one decomposition) are the same code.

use heax_math::exec::{self, Executor};
use heax_math::ntt::NttTable;
use heax_math::poly::{Representation, RnsPoly};
use heax_math::word::Modulus;
use heax_math::MathError;

use crate::ciphertext::Ciphertext;
use crate::context::CkksContext;
use crate::galois::galois_elt_from_step;
use crate::keys::{GaloisKeys, KeySwitchKey};
pub use crate::scratch::KsBuffers;
use crate::CkksError;

/// Which module of the KeySwitch datapath (Figure 5) a transform belongs
/// to; a hardware backend sizes each one separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Inverse transform of one input residue (decompose).
    Intt0,
    /// Forward transform of one digit under one extended-basis prime
    /// (decompose).
    Ntt0,
    /// Inverse transform of an accumulator's special-prime residue
    /// (floor).
    Intt1,
    /// Forward transform of that residue under one remaining prime
    /// (floor).
    Ntt1,
}

/// Executes the transforms of the key-switch skeleton.
///
/// Implementations must agree with [`NttTable::inverse`] and
/// [`NttTable::forward`] modulo the table's prime; only the
/// representative within the stated domain is theirs to choose.
pub trait NttBackend: Sync {
    /// In-place inverse NTT of one canonical `[0, p)` residue; canonical
    /// output.
    fn inverse(&self, stage: Stage, table: &NttTable, a: &mut [u64]);

    /// Forward NTT of `src` **reduced on load**: `src` holds arbitrary
    /// words (coefficients under another prime), each taken modulo the
    /// table's prime `p` before the transform. Every word of `dst` is
    /// congruent to the strict transform and lies in `[0, 4p)` — in
    /// `[0, p)` when `!table.reduced_kernel_is_lazy()`, where `4p` need
    /// not fit a word. The skeleton consumes either representative.
    // DOMAIN: [0,4p)
    fn forward_reduced(&self, stage: Stage, table: &NttTable, src: &[u64], dst: &mut [u64]);

    /// Two [`NttBackend::inverse`] transforms under one table.
    fn inverse2(&self, stage: Stage, table: &NttTable, a: &mut [u64], b: &mut [u64]) {
        self.inverse(stage, table, a);
        self.inverse(stage, table, b);
    }

    /// Two [`NttBackend::forward_reduced`] transforms under one table
    /// (same output contract).
    // DOMAIN: [0,4p)
    fn forward_reduced2(
        &self,
        stage: Stage,
        table: &NttTable,
        src0: &[u64],
        src1: &[u64],
        dst0: &mut [u64],
        dst1: &mut [u64],
    ) {
        self.forward_reduced(stage, table, src0, dst0); // DOMAIN: [0,4p)
        self.forward_reduced(stage, table, src1, dst1); // DOMAIN: [0,4p)
    }
}

/// The software backend: [`NttTable`]'s fastest kernels, with the paired
/// variants mapped onto the interleaved-butterfly kernels (two
/// independent multiply chains for the core to overlap).
#[derive(Clone, Copy, Debug)]
pub struct TableNtt;

impl NttBackend for TableNtt {
    #[inline]
    fn inverse(&self, _: Stage, table: &NttTable, a: &mut [u64]) {
        table.inverse_auto(a);
    }

    #[inline]
    // DOMAIN: [0,4p)
    fn forward_reduced(&self, _: Stage, table: &NttTable, src: &[u64], dst: &mut [u64]) {
        table.forward_reduced_auto(src, dst); // DOMAIN: [0,4p)
    }

    #[inline]
    fn inverse2(&self, _: Stage, table: &NttTable, a: &mut [u64], b: &mut [u64]) {
        table.inverse_auto2(a, b);
    }

    #[inline]
    // DOMAIN: [0,4p)
    fn forward_reduced2(
        &self,
        _: Stage,
        table: &NttTable,
        src0: &[u64],
        src1: &[u64],
        dst0: &mut [u64],
        dst1: &mut [u64],
    ) {
        table.forward_reduced_auto2(src0, src1, dst0, dst1); // DOMAIN: [0,4p)
    }
}

/// The key-switch skeleton bound to a context, a limb executor and an
/// NTT backend. Working memory is a caller-owned [`KsBuffers`], grown on
/// the first use at each new highest level; after that
/// [`KeySwitcher::key_switch_into`] allocates nothing.
#[derive(Debug)]
pub struct KeySwitcher<'a, B> {
    ctx: &'a CkksContext,
    exec: &'a dyn Executor,
    backend: &'a B,
}

impl<'a, B: NttBackend> KeySwitcher<'a, B> {
    /// Binds the skeleton to its collaborators.
    pub fn new(ctx: &'a CkksContext, exec: &'a dyn Executor, backend: &'a B) -> Self {
        Self { ctx, exec, backend }
    }

    /// The inner key-switching primitive (Algorithm 7, lines 1–19): given
    /// one NTT-form polynomial `target` over the basis of `level`, writes
    /// `(f₀, f₁)` over the same basis with `f₀ + f₁·s ≈ target·s'`.
    ///
    /// # Errors
    ///
    /// [`CkksError::Math`] when `target` is not in NTT form or does not
    /// have exactly `level + 1` residues, or when `f0`/`f1` are not
    /// shaped over the basis of `level`.
    pub fn key_switch_into(
        &self,
        bufs: &mut KsBuffers,
        target: &RnsPoly,
        ksk: &KeySwitchKey,
        level: usize,
        f0: &mut RnsPoly,
        f1: &mut RnsPoly,
    ) -> Result<(), CkksError> {
        self.decompose(bufs, target, level)?;
        self.accumulate(bufs, ksk, None, level);
        self.floor(bufs, level, None, f0, f1)
    }

    /// Hoisted multi-rotation: decomposes `c₁` once, then per step runs
    /// only accumulate (with the step's Galois permutation applied to the
    /// shared digits) and floor, which adds `τ(c₀)` into `f₀`.
    ///
    /// # Errors
    ///
    /// [`CkksError::InvalidCiphertext`] for non-2-component inputs;
    /// [`CkksError::MissingGaloisKey`] if any step lacks a key (before
    /// any work is done).
    pub fn rotate_many(
        &self,
        bufs: &mut KsBuffers,
        a: &Ciphertext,
        steps: &[i64],
        gks: &GaloisKeys,
    ) -> Result<Vec<Ciphertext>, CkksError> {
        if a.size() != 2 {
            return Err(CkksError::InvalidCiphertext {
                components: a.size(),
                expected: "exactly 2 (relinearize first)",
            });
        }
        let n = self.ctx.n();
        let level = a.level;
        let moduli = self.ctx.level_moduli(level);
        let keys: Vec<(&KeySwitchKey, &[usize])> = steps
            .iter()
            .map(|&s| {
                let elt = galois_elt_from_step(s, n);
                Ok((gks.key(elt)?, gks.permutation(elt)?))
            })
            .collect::<Result<_, CkksError>>()?;
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        self.decompose(bufs, &a.polys[1], level)?;
        let mut out = Vec::with_capacity(keys.len());
        for (ksk, perm) in keys {
            self.accumulate(bufs, ksk, Some(perm), level);
            let mut f0 = RnsPoly::zero(n, moduli, Representation::Ntt);
            let mut f1 = RnsPoly::zero(n, moduli, Representation::Ntt);
            self.floor(bufs, level, Some((&a.polys[0], perm)), &mut f0, &mut f1)?;
            out.push(Ciphertext::from_parts(vec![f0, f1], level, a.scale)?);
        }
        Ok(out)
    }

    /// Chain index of extended-basis position `j` at `level` (the special
    /// prime sits last in the extended basis, at index `k` of the chain,
    /// as it does in [`CkksContext::moduli`]).
    #[inline]
    fn chain_index(&self, j: usize, level: usize) -> usize {
        if j <= level {
            j
        } else {
            self.ctx.params().k()
        }
    }

    /// Step 1 (lines 3, 6–9, 14–15): fills `bufs.digits` with `b̃_{i,j}`.
    pub(crate) fn decompose(
        &self,
        bufs: &mut KsBuffers,
        c1: &RnsPoly,
        level: usize,
    ) -> Result<(), CkksError> {
        if c1.representation() != Representation::Ntt {
            return Err(MathError::RepresentationMismatch.into());
        }
        if c1.num_residues() != level + 1 {
            return Err(MathError::LengthMismatch {
                expected: level + 1,
                got: c1.num_residues(),
            }
            .into());
        }
        let (ctx, backend) = (self.ctx, self.backend);
        let n = ctx.n();
        let rows = level + 1;
        bufs.ensure(ctx, level);
        let KsBuffers { lane, digits, .. } = bufs;

        // INTT0: every residue of c₁ to coefficient form, one lane each.
        let coeff = &mut lane[..rows * n];
        exec::for_each_limb(self.exec, coeff, n, |i, dst| {
            dst.copy_from_slice(c1.residue(i));
            backend.inverse(Stage::Intt0, ctx.ntt_table(i), dst);
        });
        let coeff = &*coeff;

        // NTT0: one digit column per extended prime. The diagonal digit is
        // c₁'s own residue (line 9); the others share the column's table,
        // so they go through the backend in pairs.
        let digits = &mut digits[..(level + 2) * rows * n];
        exec::for_each_limb(self.exec, digits, rows * n, |j, col| {
            let chain_idx = self.chain_index(j, level);
            let table = ctx.ntt_table(chain_idx);
            if chain_idx <= level {
                col[chain_idx * n..][..n].copy_from_slice(c1.residue(chain_idx));
            }
            let mut off_diagonal = (0..rows).filter(|&i| i != chain_idx);
            while let Some(i1) = off_diagonal.next() {
                let src1 = &coeff[i1 * n..][..n];
                match off_diagonal.next() {
                    Some(i2) => {
                        let src2 = &coeff[i2 * n..][..n];
                        let (lo, hi) = col.split_at_mut(i2 * n);
                        let (dst1, dst2) = (&mut lo[i1 * n..][..n], &mut hi[..n]);
                        // DOMAIN: [0,4p)
                        backend.forward_reduced2(Stage::Ntt0, table, src1, src2, dst1, dst2);
                    }
                    None => {
                        let dst1 = &mut col[i1 * n..][..n];
                        // DOMAIN: [0,4p)
                        backend.forward_reduced(Stage::Ntt0, table, src1, dst1);
                    }
                }
            }
        });
        Ok(())
    }

    /// Step 2 (lines 11–12, 16–17): overwrites both accumulators with
    /// `Σ_i τ(b̃_{i,j}) ⊙ d̃_{i,·,j}`, each coefficient's products summed
    /// double-width and reduced once into `[0, 4p)`. The digits are
    /// whatever words NTT0 left, the key residues canonical.
    pub(crate) fn accumulate(
        &self,
        bufs: &mut KsBuffers,
        ksk: &KeySwitchKey,
        perm: Option<&[usize]>,
        level: usize,
    ) {
        let n = self.ctx.n();
        let rows = level + 1;
        let ext = (level + 2) * n;
        let KsBuffers {
            acc0, acc1, digits, ..
        } = bufs;
        let digits = &*digits;
        let (acc0, acc1) = (&mut acc0[..ext], &mut acc1[..ext]);
        exec::for_each_limb2(self.exec, acc0, acc1, n, |j, d0, d1| {
            let chain_idx = self.chain_index(j, level);
            let keys = (0..rows).map(|i| {
                let (b, a) = ksk.component(i);
                (b.residue(chain_idx), a.residue(chain_idx))
            });
            let column = &digits[j * rows * n..][..rows * n];
            // DOMAIN: [0,4p)
            self.ctx.moduli()[chain_idx].dyad_acc_lazy(column, perm, keys, d0, d1);
        });
    }

    /// Step 3 (line 19): floors both accumulators by the special prime
    /// into `out0`/`out1`, adding `add.0` read through the permutation
    /// `add.1` into `out0` when given. The accumulators are lazy (any
    /// word below `4p` congruent to the residue); the final `MulRed`
    /// canonicalizes, so the outputs are the strict floor's.
    pub(crate) fn floor(
        &self,
        bufs: &mut KsBuffers,
        level: usize,
        add: Option<(&RnsPoly, &[usize])>,
        out0: &mut RnsPoly,
        out1: &mut RnsPoly,
    ) -> Result<(), CkksError> {
        let (ctx, backend) = (self.ctx, self.backend);
        let n = ctx.n();
        let keep = level + 1;
        let out_moduli = ctx.level_moduli(level);
        check_switch_output(out0, n, out_moduli)?;
        check_switch_output(out1, n, out_moduli)?;
        let KsBuffers {
            acc0, acc1, lane, ..
        } = bufs;
        let consts = ctx.modswitch_constants(level);

        // INTT1 ×2: the special-prime residues, reduced where they lie.
        let (c0, a0) = acc0[..(keep + 1) * n].split_at_mut(keep * n);
        let (c1, a1) = acc1[..(keep + 1) * n].split_at_mut(keep * n);
        ctx.special_modulus().reduce_words(a0);
        ctx.special_modulus().reduce_words(a1);
        backend.inverse2(Stage::Intt1, ctx.special_ntt_table(), a0, a1);

        // NTT1 ×2 + MS per remaining prime, each in its own lane pair.
        let (c0, c1, a0, a1) = (&*c0, &*c1, &*a0, &*a1);
        let (lane0, rest) = lane.split_at_mut(keep * n);
        let lane1 = &mut rest[..keep * n];
        out0.set_representation(Representation::Ntt);
        out1.set_representation(Representation::Ntt);
        exec::for_each_limb4(
            self.exec,
            out0.data_mut(),
            out1.data_mut(),
            lane0,
            lane1,
            n,
            |i, dst0, dst1, buf0, buf1| {
                let pi = &out_moduli[i];
                // DOMAIN: [0,4p)
                backend.forward_reduced2(Stage::Ntt1, ctx.ntt_table(i), a0, a1, buf0, buf1);
                let inv = consts.inv(i);
                let add = add.map(|(c, perm)| (c.residue(i), perm));
                pi.mod_switch(inv, &c0[i * n..][..n], buf0, add, dst0);
                pi.mod_switch(inv, &c1[i * n..][..n], buf1, None, dst1);
            },
        );
        Ok(())
    }
}

/// Validates a caller-provided key-switch output buffer: NTT-form shape
/// over exactly the given basis.
fn check_switch_output(out: &RnsPoly, n: usize, moduli: &[Modulus]) -> Result<(), CkksError> {
    if out.n() != n || out.num_residues() != moduli.len() {
        return Err(MathError::LengthMismatch {
            expected: moduli.len() * n,
            got: out.num_residues() * out.n(),
        }
        .into());
    }
    for (a, b) in out.moduli().iter().zip(moduli) {
        if a.value() != b.value() {
            return Err(MathError::BasisMismatch {
                a: a.value(),
                b: b.value(),
            }
            .into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::tests::small;
    use crate::encoder::CkksEncoder;
    use crate::encrypt::Encryptor;
    use crate::keys::{PublicKey, RelinKey, SecretKey};
    use crate::Evaluator;
    use heax_math::exec::Sequential;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Counts transforms per stage, implementing only the required
    /// methods so the provided pair variants are exercised too.
    #[derive(Default)]
    struct Counting([AtomicUsize; 4]);

    impl Counting {
        fn take(&self) -> [usize; 4] {
            [Stage::Intt0, Stage::Ntt0, Stage::Intt1, Stage::Ntt1]
                .map(|s| self.0[s as usize].swap(0, Ordering::Relaxed))
        }
    }

    impl NttBackend for Counting {
        fn inverse(&self, stage: Stage, table: &NttTable, a: &mut [u64]) {
            self.0[stage as usize].fetch_add(1, Ordering::Relaxed);
            table.inverse(a);
        }

        // DOMAIN: [0,p)
        fn forward_reduced(&self, stage: Stage, table: &NttTable, src: &[u64], dst: &mut [u64]) {
            self.0[stage as usize].fetch_add(1, Ordering::Relaxed);
            for (d, &x) in dst.iter_mut().zip(src) {
                *d = table.modulus().reduce_u64(x);
            }
            table.forward(dst);
        }
    }

    /// Hoisting as structure, not as a timing ratio: at level ℓ one key
    /// switch is ℓ+1 INTT0, (ℓ+1)² NTT0, 2 INTT1 and 2(ℓ+1) NTT1
    /// transforms; `t` hoisted rotations pay the first two once and the
    /// floor `t` times — and a backend of strict kernels lands on the
    /// evaluator's bits.
    #[test]
    fn transform_counts_show_hoisting() {
        let ctx = CkksContext::new(small()).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng);
        let rlk = RelinKey::generate(&ctx, &sk, &mut rng);
        let steps = [1i64, -2, 3];
        let gks = GaloisKeys::generate(&ctx, &sk, &steps, &mut rng);
        let pt = CkksEncoder::new(&ctx)
            .encode_real(&[1.0, -2.5], ctx.params().scale(), ctx.max_level())
            .unwrap();
        let top = Encryptor::new(&ctx, &pk).encrypt(&pt, &mut rng).unwrap();

        let ev = Evaluator::new(&ctx);
        let backend = Counting::default();
        let ks = KeySwitcher::new(&ctx, &Sequential, &backend);
        let mut bufs = KsBuffers::default();
        for level in (0..=ctx.max_level()).rev() {
            let ct = ev.mod_switch_to_level(&top, level).unwrap();
            let l1 = level + 1;
            let moduli = ctx.level_moduli(level);
            let mut f0 = RnsPoly::zero(ctx.n(), moduli, Representation::Ntt);
            let mut f1 = f0.clone();

            ks.key_switch_into(
                &mut bufs,
                ct.component(1),
                rlk.ksk(),
                level,
                &mut f0,
                &mut f1,
            )
            .unwrap();
            assert_eq!(backend.take(), [l1, l1 * l1, 2, 2 * l1], "level {level}");
            let want = ev.key_switch(ct.component(1), rlk.ksk(), level).unwrap();
            assert_eq!((f0, f1), want);

            let t = steps.len();
            let rotated = ks.rotate_many(&mut bufs, &ct, &steps, &gks).unwrap();
            assert_eq!(
                backend.take(),
                [l1, l1 * l1, 2 * t, 2 * l1 * t],
                "level {level}, {t} hoisted rotations"
            );
            assert_eq!(rotated, ev.rotate_many(&ct, &steps, &gks).unwrap());
        }
    }
}
