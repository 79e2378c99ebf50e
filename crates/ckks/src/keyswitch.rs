//! `KeySwitch` (Algorithm 7 / Figure 5) as one skeleton of three steps,
//! generic over who executes the transforms.
//!
//! 1. **decompose** — `c₁` is brought to coefficient form residue by
//!    residue (INTT0) and re-expanded over the extended basis (NTT0) into
//!    the NTT-form digits `b̃_{i,j}`. This is the part hoisting shares.
//! 2. **accumulate** — per key, `Σ_i τ(b̃_{i,j}) ⊙ d̃_{i,·,j}` against the
//!    key's residues (DyadMult), packed at their primes' width and
//!    widened in registers as they load. The sum is kept **double-width** —
//!    unreduced products in a `(hi, lo)` register pair on the 52-bit
//!    lanes, in a `u128` otherwise — and reduced once per coefficient, not
//!    once per term (`Modulus::dyad_acc_lazy`); what reaches memory is one
//!    word in `[0, 4p)`.
//! 3. **floor** — both accumulators are divided by the special prime
//!    (INTT1 → NTT1 → MS); the MS step reduces the lazy accumulator words
//!    as it reads them, and for a rotation adds `τ(c₀)` as it stores.
//!
//! A **one-key** switch (relinearization, a single rotation) streams steps
//! 1 and 2 one extended column at a time, as Figure 5 streams each limb
//! from NTT0 through DyadMult: a column's digits are filled into one
//! column of working words and accumulated at once, so the digit matrix
//! is never built. `τ` is **applied on load** there — INTT0 and the
//! diagonal digit read `c₁` through the Galois permutation — so no rotated
//! polynomial is built either. Hoisted rotation alone keeps the matrix,
//! since its `t` keys share the digits; it applies each key's `τ` to them
//! as pure addressing.
//!
//! Output residue `i` depends only on digit column `i` and the special
//! column, as each limb streams through its own lane in Figure 5. So a
//! switch can stop at an **output level** `L ≤ level`: NTT0, DyadMult and
//! MS run for columns `0..=L` and the special column only, and the result
//! is the full-level one with the residues above `L` dropped, bit for bit.
//! The server computes a rotation whose every reply ships one residue
//! this way.
//!
//! Every transform goes through an [`NttBackend`], one residue per call:
//! [`TableNtt`] runs the software kernels of [`NttTable`], and `heax-core`
//! supplies a backend that streams each residue through the banked
//! hardware dataflow simulator. Residues run side by side on the
//! executor's lanes, as HEAX replicates one NTT core; a lane's per-column
//! working words come from the recycler of the thread that runs it. The
//! arithmetic between transforms is written once, here, so the evaluator
//! and the accelerator agree bit for bit by construction, and
//! relinearization, single rotation and hoisted rotation share it.

use heax_math::exec::{self, Executor};
use heax_math::ntt::NttTable;
use heax_math::poly::{Representation, RnsPoly, Words};
use heax_math::word::Modulus;
use heax_math::MathError;

use crate::ciphertext::Ciphertext;
use crate::context::CkksContext;
use crate::galois::{galois_elt_from_step, permute};
use crate::keys::{GaloisKeys, KeySwitchKey};
use crate::CkksError;

/// Working memory that lives for a whole key switch, taken from the
/// thread's recycler and given back when the call ends, as HEAX wires the
/// same BRAM banks into the pipeline for every switch (Figure 5). A
/// column's digits and a limb's floor lanes are taken per column and per
/// limb; only hoisting takes the digit matrix. Once the recycler is warm,
/// [`KeySwitcher::key_switch_into`] allocates nothing.
pub(crate) struct KsBuffers {
    /// Accumulator `f₀` over the extended basis (active primes, then the
    /// special prime): limb `j` spans `[j·n, (j+1)·n)`.
    pub(crate) acc0: Words,
    /// Accumulator `f₁` over the extended basis.
    pub(crate) acc1: Words,
    /// `c₁` in coefficient form (INTT0's output): row `i` spans
    /// `[i·n, (i+1)·n)`.
    coeff: Words,
}

impl KsBuffers {
    /// Buffers for one switch of a `level` input, separate takes so each
    /// is the best fit of its own size.
    pub(crate) fn new(ctx: &CkksContext, level: usize) -> Self {
        let n = ctx.n();
        Self {
            acc0: Words::for_overwrite((level + 2) * n),
            acc1: Words::for_overwrite((level + 2) * n),
            coeff: Words::for_overwrite((level + 1) * n),
        }
    }
}

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

/// Executes the transforms of the key-switch skeleton, one residue per
/// call.
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
    /// `[0, p)` when `table.auto_kernel()` is
    /// [`AutoKernel::Strict`](heax_math::ntt::AutoKernel::Strict), where
    /// `4p` need not fit a word. The skeleton consumes either
    /// representative.
    // DOMAIN: [0,4p)
    fn forward_reduced(&self, stage: Stage, table: &NttTable, src: &[u64], dst: &mut [u64]);
}

/// The software backend: [`NttTable`]'s `*_auto` kernels, in whichever
/// family the table selected for this host.
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
}

/// The key-switch skeleton bound to a context, a limb executor and an
/// NTT backend. It holds no working memory: each call, and each column or
/// limb it runs on a lane, takes its buffers from the running thread's
/// recycler ([`Words`]) and gives them back, so once the recyclers are
/// warm [`KeySwitcher::key_switch_into`] allocates nothing, and one
/// switcher serves any number of threads.
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
        target: &RnsPoly,
        ksk: &KeySwitchKey,
        level: usize,
        f0: &mut RnsPoly,
        f1: &mut RnsPoly,
    ) -> Result<(), CkksError> {
        if target.representation() != Representation::Ntt {
            return Err(MathError::RepresentationMismatch.into());
        }
        if target.num_residues() != level + 1 {
            return Err(MathError::LengthMismatch {
                expected: level + 1,
                got: target.num_residues(),
            }
            .into());
        }
        self.switch_into(target, ksk, None, level, f0, f1)
    }

    /// The one-key switch of `c₁` — NTT form, at level `ℓ` = its residue
    /// count less one — into `out0`/`out1` at output level `to ≤ ℓ`,
    /// the one routine behind relinearization and single rotation. Steps
    /// 1 and 2 stream one extended column at a time, so no digit matrix
    /// is built.
    ///
    /// With `galois = None` the outputs are `(f₀, f₁)` of
    /// [`KeySwitcher::key_switch_into`] with the residues above `to`
    /// dropped. With `galois = Some((c₀, τ))`, `τ` a Galois permutation
    /// of the NTT slots and `c₀` at `c₁`'s level, the switch is a
    /// rotation's: `c₁` is read through `τ` on load and the floor adds
    /// `τ(c₀)` into `out0`, so `(out0, out1)` is the rotated ciphertext
    /// and no rotated polynomial is built.
    ///
    /// # Errors
    ///
    /// [`CkksError::Math`] when `c₁` or `c₀` is not in NTT form, when
    /// `c₁` has no residue or more than the chain's top level holds, when
    /// `c₀` or `τ` does not match `c₁`'s shape, or when the outputs are
    /// not shaped over the basis of `to`; [`CkksError::LevelMismatch`] when `to` is above
    /// `c₁`'s level.
    pub fn switch_into(
        &self,
        c1: &RnsPoly,
        ksk: &KeySwitchKey,
        galois: Option<(&RnsPoly, &[u32])>,
        to: usize,
        out0: &mut RnsPoly,
        out1: &mut RnsPoly,
    ) -> Result<(), CkksError> {
        let n = self.ctx.n();
        if c1.representation() != Representation::Ntt {
            return Err(MathError::RepresentationMismatch.into());
        }
        let residues = c1.num_residues();
        if residues == 0 || residues > self.ctx.max_level() + 1 {
            return Err(MathError::LengthMismatch {
                expected: self.ctx.max_level() + 1,
                got: residues,
            }
            .into());
        }
        let level = residues - 1;
        check_output_level(to, level)?;
        if let Some((c0, tau)) = galois {
            if c0.representation() != Representation::Ntt {
                return Err(MathError::RepresentationMismatch.into());
            }
            for (expected, got) in [(residues * n, c0.num_residues() * c0.n()), (n, tau.len())] {
                if got != expected {
                    return Err(MathError::LengthMismatch { expected, got }.into());
                }
            }
        }
        let tau = galois.map(|(_, tau)| tau);
        let mut bufs = KsBuffers::new(self.ctx, level);
        self.intt0(c1, tau, &mut bufs.coeff);
        let KsBuffers { acc0, acc1, coeff } = &mut bufs;
        let coeff = &**coeff;
        exec::for_each_limb2(self.exec, acc0, acc1, n, |j, d0, d1| {
            if !computes(j, level, to) {
                return;
            }
            let chain_idx = self.chain_index(j, level);
            let mut column = Words::for_overwrite((level + 1) * n);
            self.fill_column(chain_idx, c1, tau, coeff, &mut column);
            self.accumulate(ksk, None, chain_idx, &column, d0, d1);
        });
        self.floor(&mut bufs, level, to, galois, out0, out1)
    }

    /// Hoisted multi-rotation: decomposes `c₁` once into a digit matrix,
    /// then per step runs only accumulate (with the step's Galois
    /// permutation applied to the shared digits) and floor, which adds
    /// `τ(c₀)` into `f₀`. The outputs are at level `to`: the full-level
    /// rotations with every residue above `to` dropped, computed over the
    /// kept residues only, so the matrix holds only the `to + 2` columns
    /// they read — `(to+2)(ℓ+1)·n` words.
    ///
    /// # Errors
    ///
    /// [`CkksError::InvalidCiphertext`] for non-2-component inputs;
    /// [`CkksError::LevelMismatch`] when `to` is above the input's level;
    /// [`CkksError::MissingGaloisKey`] if any step lacks a key (before
    /// any work is done).
    pub fn rotate_many(
        &self,
        a: &Ciphertext,
        steps: &[i64],
        gks: &GaloisKeys,
        to: usize,
    ) -> Result<Vec<Ciphertext>, CkksError> {
        if a.size() != 2 {
            return Err(CkksError::InvalidCiphertext {
                components: a.size(),
                expected: "exactly 2 (relinearize first)",
            });
        }
        let n = self.ctx.n();
        let level = a.level;
        check_output_level(to, level)?;
        let moduli = self.ctx.level_moduli(to);
        let keys: Vec<(&KeySwitchKey, &[u32])> = steps
            .iter()
            .map(|&s| {
                let elt = galois_elt_from_step(s, n);
                Ok((gks.key(elt)?, gks.permutation(elt)?))
            })
            .collect::<Result<_, CkksError>>()?;
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        let (c1, rows) = (&a.polys[1], level + 1);
        let mut bufs = KsBuffers::new(self.ctx, level);
        self.intt0(c1, None, &mut bufs.coeff);
        let coeff = &*bufs.coeff;
        // Only the `to + 2` columns the outputs read are filled: column
        // `j ≤ to` in slot `j`, the special column in slot `to + 1`, and
        // digit `(i, j)` at row `i` of its slot's `rows·n` words.
        let slot = |j: usize| j.min(to + 1);
        let mut digits = Words::for_overwrite((to + 2) * rows * n);
        exec::for_each_limb(self.exec, &mut digits, rows * n, |s, col| {
            let j = if s <= to { s } else { level + 1 };
            self.fill_column(self.chain_index(j, level), c1, None, coeff, col);
        });
        let mut out = Vec::with_capacity(keys.len());
        for (ksk, perm) in keys {
            exec::for_each_limb2(self.exec, &mut bufs.acc0, &mut bufs.acc1, n, |j, d0, d1| {
                if computes(j, level, to) {
                    let column = &digits[slot(j) * rows * n..][..rows * n];
                    self.accumulate(ksk, Some(perm), self.chain_index(j, level), column, d0, d1);
                }
            });
            let mut f0 = RnsPoly::for_overwrite(n, moduli, Representation::Ntt);
            let mut f1 = RnsPoly::for_overwrite(n, moduli, Representation::Ntt);
            let add = Some((&a.polys[0], perm));
            self.floor(&mut bufs, level, to, add, &mut f0, &mut f1)?;
            out.push(Ciphertext::from_parts(vec![f0, f1], to, a.scale)?);
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

    /// INTT0 (lines 3, 6–8): every residue of `c₁`, read through `τ` when
    /// given, to coefficient form in `coeff`, one lane each.
    fn intt0(&self, c1: &RnsPoly, tau: Option<&[u32]>, coeff: &mut [u64]) {
        let (ctx, backend) = (self.ctx, self.backend);
        exec::for_each_limb(self.exec, coeff, ctx.n(), |i, dst| {
            load(c1.residue(i), tau, dst);
            backend.inverse(Stage::Intt0, ctx.ntt_table(i), dst);
        });
    }

    /// Step 1 for one extended column, the chain's prime `chain_idx`
    /// (lines 9, 14–15): fills `col` with the digits `b̃_{i,j}`. The
    /// diagonal digit is `c₁`'s own residue read through `τ` (line 9);
    /// every other row is NTT0 of coefficient row `i` reduced into the
    /// column's prime on load.
    fn fill_column(
        &self,
        chain_idx: usize,
        c1: &RnsPoly,
        tau: Option<&[u32]>,
        coeff: &[u64],
        col: &mut [u64],
    ) {
        let n = self.ctx.n();
        let table = self.ctx.ntt_table(chain_idx);
        for (i, dst) in col.chunks_exact_mut(n).enumerate() {
            if i == chain_idx {
                load(c1.residue(i), tau, dst);
            } else {
                // DOMAIN: [0,4p)
                self.backend
                    .forward_reduced(Stage::Ntt0, table, &coeff[i * n..][..n], dst);
            }
        }
    }

    /// Step 2 for one extended column (lines 11–12, 16–17): overwrites
    /// `d0`/`d1` with `Σ_i τ(b̃_{i,j}) ⊙ d̃_{i,·,j}` over the column's
    /// digit rows, each coefficient's products summed double-width and
    /// reduced once into `[0, 4p)`. The digits are whatever words NTT0
    /// left, the key residues canonical and packed.
    fn accumulate(
        &self,
        ksk: &KeySwitchKey,
        perm: Option<&[u32]>,
        chain_idx: usize,
        column: &[u64],
        d0: &mut [u64],
        d1: &mut [u64],
    ) {
        let keys = (0..column.len() / self.ctx.n()).map(|i| {
            let (b, a) = ksk.component(i);
            (b.residue(chain_idx), a.residue(chain_idx))
        });
        // DOMAIN: [0,4p)
        self.ctx.moduli()[chain_idx].dyad_acc_lazy(column, perm, keys, d0, d1);
    }

    /// Step 3 (line 19): floors both accumulators by the special prime
    /// into `out0`/`out1`, adding `add.0` read through the permutation
    /// `add.1` into `out0` when given. Only the residues of level `to`
    /// are floored, and the outputs must be shaped over exactly those.
    /// The accumulators are lazy (any word below `4p` congruent to the
    /// residue); the final `MulRed` canonicalizes, so the outputs are the
    /// strict floor's.
    pub(crate) fn floor(
        &self,
        bufs: &mut KsBuffers,
        level: usize,
        to: usize,
        add: Option<(&RnsPoly, &[u32])>,
        out0: &mut RnsPoly,
        out1: &mut RnsPoly,
    ) -> Result<(), CkksError> {
        let (ctx, backend) = (self.ctx, self.backend);
        let n = ctx.n();
        debug_assert!(to <= level, "output level {to} above {level}");
        let out_moduli = ctx.level_moduli(to);
        check_switch_output(out0, n, out_moduli)?;
        check_switch_output(out1, n, out_moduli)?;
        let KsBuffers { acc0, acc1, .. } = bufs;
        let consts = ctx.modswitch_constants(level);

        // INTT1 per accumulator: its special-prime residue, reduced where
        // it lies (column `level + 1`).
        let special = (level + 1) * n;
        let (c0, a0) = acc0[..special + n].split_at_mut(special);
        let (c1, a1) = acc1[..special + n].split_at_mut(special);
        for a in [&mut *a0, &mut *a1] {
            ctx.special_modulus().reduce_words(a);
            backend.inverse(Stage::Intt1, ctx.special_ntt_table(), a);
        }

        // NTT1 per accumulator + MS per remaining prime, each limb in its
        // own lane pair.
        let (c0, c1, a0, a1) = (&*c0, &*c1, &*a0, &*a1);
        out0.set_representation(Representation::Ntt);
        out1.set_representation(Representation::Ntt);
        exec::for_each_limb2(
            self.exec,
            out0.data_mut(),
            out1.data_mut(),
            n,
            |i, dst0, dst1| {
                let (pi, table) = (&out_moduli[i], ctx.ntt_table(i));
                let mut lanes = Words::for_overwrite(2 * n);
                let (buf0, buf1) = lanes.split_at_mut(n);
                backend.forward_reduced(Stage::Ntt1, table, a0, buf0); // DOMAIN: [0,4p)
                backend.forward_reduced(Stage::Ntt1, table, a1, buf1); // DOMAIN: [0,4p)
                let inv = consts.inv(i);
                let add = add.map(|(c, perm)| (c.residue(i), perm));
                pi.mod_switch(inv, &c0[i * n..][..n], buf0, add, dst0);
                pi.mod_switch(inv, &c1[i * n..][..n], buf1, None, dst1);
            },
        );
        Ok(())
    }
}

/// Copies `src` into `dst`, read through the Galois permutation `tau`
/// when given.
#[inline]
fn load(src: &[u64], tau: Option<&[u32]>, dst: &mut [u64]) {
    match tau {
        Some(tau) => permute(src, tau, dst),
        None => dst.copy_from_slice(src),
    }
}

/// Whether extended-basis column `j` at `level` feeds an output at level
/// `to`: one of the kept primes, or the special prime.
#[inline]
fn computes(j: usize, level: usize, to: usize) -> bool {
    j <= to || j == level + 1
}

/// Validates an output level against the input's.
pub(crate) fn check_output_level(to: usize, level: usize) -> Result<(), CkksError> {
    if to > level {
        return Err(CkksError::LevelMismatch { a: to, b: level });
    }
    Ok(())
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
    use crate::galois::apply_galois_ntt;
    use crate::keys::{PublicKey, RelinKey, SecretKey};
    use crate::Evaluator;
    use heax_math::exec::Sequential;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Counts transforms per stage, one per backend call, over the
    /// strict kernels; clones share the counts.
    #[derive(Clone, Default)]
    struct Counting(Arc<[AtomicUsize; 4]>);

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
        for level in (0..=ctx.max_level()).rev() {
            let ct = ev.mod_switch_to_level(&top, level).unwrap();
            let l1 = level + 1;
            let moduli = ctx.level_moduli(level);
            let mut f0 = RnsPoly::zero(ctx.n(), moduli, Representation::Ntt);
            let mut f1 = f0.clone();

            ks.key_switch_into(ct.component(1), rlk.ksk(), level, &mut f0, &mut f1)
                .unwrap();
            assert_eq!(backend.take(), [l1, l1 * l1, 2, 2 * l1], "level {level}");
            let want = ev.key_switch(ct.component(1), rlk.ksk(), level).unwrap();
            assert_eq!((f0, f1), want);

            let t = steps.len();
            let rotated = ks.rotate_many(&ct, &steps, &gks, level).unwrap();
            assert_eq!(
                backend.take(),
                [l1, l1 * l1, 2 * t, 2 * l1 * t],
                "level {level}, {t} hoisted rotations"
            );
            assert_eq!(rotated, ev.rotate_many(&ct, &steps, &gks).unwrap());
        }
    }

    /// An output level `L ≤ ℓ` as structure: INTT0 still reads every
    /// input residue, but NTT0 fills only columns `0..=L` and the special
    /// one — `(L+1)·ℓ + ℓ+1` transforms, the diagonal digits copied — and
    /// the floor transforms `L+1` residues per accumulator. The outputs
    /// are the full-level ones with the residues above `L` dropped, on the
    /// hoisted path and the lone one alike.
    #[test]
    fn transform_counts_follow_the_output_level() {
        let ctx = CkksContext::new(small()).unwrap();
        let mut rng = StdRng::seed_from_u64(78);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng);
        let steps = [2i64, -1, 5, 1];
        let gks = GaloisKeys::generate(&ctx, &sk, &steps, &mut rng);
        let pt = CkksEncoder::new(&ctx)
            .encode_real(&[0.75, 3.0, -1.25], ctx.params().scale(), ctx.max_level())
            .unwrap();
        let top = Encryptor::new(&ctx, &pk).encrypt(&pt, &mut rng).unwrap();

        let ev = Evaluator::new(&ctx);
        let backend = Counting::default();
        let ks = KeySwitcher::new(&ctx, &Sequential, &backend);
        for level in 0..=ctx.max_level() {
            let ct = ev.mod_switch_to_level(&top, level).unwrap();
            let full = ev.rotate_many(&ct, &steps, &gks).unwrap();
            for to in 0..=level {
                let dropped: Vec<_> = full
                    .iter()
                    .map(|c| ev.mod_switch_to_level(c, to).unwrap())
                    .collect();
                for t in 1..=steps.len() {
                    let rotated = ks.rotate_many(&ct, &steps[..t], &gks, to).unwrap();
                    assert_eq!(
                        backend.take(),
                        [level + 1, (to + 2) * level + 1, 2 * t, 2 * (to + 1) * t],
                        "level {level}, output level {to}, {t} rotations"
                    );
                    assert_eq!(rotated, dropped[..t]);
                }
                let hoisted = ev.rotate_many_to_level(&ct, &steps, &gks, to).unwrap();
                assert_eq!(hoisted, dropped);
                for &step in &steps {
                    let want = ev.rotate(&ct, step, &gks).unwrap();
                    assert_eq!(
                        ev.rotate_to_level(&ct, step, &gks, to).unwrap(),
                        ev.mod_switch_to_level(&want, to).unwrap(),
                        "level {level}, output level {to}, step {step}"
                    );
                }
            }
            assert!(matches!(
                ev.rotate_many_to_level(&ct, &steps, &gks, level + 1),
                Err(CkksError::LevelMismatch { .. })
            ));
            assert!(matches!(
                ev.rotate_to_level(&ct, 1, &gks, level + 1),
                Err(CkksError::LevelMismatch { .. })
            ));
        }
    }

    /// A rescale's floor as structure: at level ℓ each of the two
    /// components takes one INTT1 of its dropped residue and ℓ NTT1s, all
    /// on the evaluator's backend and none on the decomposition's stages,
    /// and the output is the default evaluator's.
    #[test]
    fn rescale_transforms_run_on_the_evaluator_backend() {
        let ctx = CkksContext::new(small()).unwrap();
        let mut rng = StdRng::seed_from_u64(80);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng);
        let pt = CkksEncoder::new(&ctx)
            .encode_real(&[1.5, -0.25], ctx.params().scale(), ctx.max_level())
            .unwrap();
        let top = Encryptor::new(&ctx, &pk).encrypt(&pt, &mut rng).unwrap();

        let ev = Evaluator::new(&ctx);
        let backend = Counting::default();
        let counted = Evaluator::with_backend(&ctx, Arc::new(Sequential), backend.clone());
        for level in 1..=ctx.max_level() {
            let ct = ev.mod_switch_to_level(&top, level).unwrap();
            let rescaled = counted.rescale(&ct).unwrap();
            assert_eq!(backend.take(), [0, 0, 2, 2 * level], "level {level}");
            assert_eq!(rescaled, ev.rescale(&ct).unwrap(), "level {level}");
        }
    }

    /// `τ` applied on load is the rotation it replaced, bit for bit: at
    /// every level and output level, [`Evaluator::rotate_to_level`]
    /// equals permuting `c₁` into a polynomial, key-switching that,
    /// adding the permuted `c₀` and dropping the residues above the
    /// output level.
    #[test]
    fn tau_on_load_matches_rotating_first() {
        let ctx = CkksContext::new(small()).unwrap();
        let mut rng = StdRng::seed_from_u64(79);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng);
        let steps = [1i64, -3, 4, 7];
        let gks = GaloisKeys::generate(&ctx, &sk, &steps, &mut rng);
        let pt = CkksEncoder::new(&ctx)
            .encode_real(&[-0.5, 2.0, 1.25], ctx.params().scale(), ctx.max_level())
            .unwrap();
        let top = Encryptor::new(&ctx, &pk).encrypt(&pt, &mut rng).unwrap();

        let ev = Evaluator::new(&ctx);
        for level in 0..=ctx.max_level() {
            let ct = ev.mod_switch_to_level(&top, level).unwrap();
            for &step in &steps {
                let elt = galois_elt_from_step(step, ctx.n());
                let perm = gks.permutation(elt).unwrap();
                let c1 = apply_galois_ntt(ct.component(1), perm).unwrap();
                let (f0, f1) = ev.key_switch(&c1, gks.key(elt).unwrap(), level).unwrap();
                let c0 = apply_galois_ntt(ct.component(0), perm).unwrap();
                let c0 = c0.add(&f0).unwrap();
                let want = Ciphertext::from_parts(vec![c0, f1], level, ct.scale()).unwrap();
                for to in 0..=level {
                    assert_eq!(
                        ev.rotate_to_level(&ct, step, &gks, to).unwrap(),
                        ev.mod_switch_to_level(&want, to).unwrap(),
                        "level {level}, output level {to}, step {step}"
                    );
                }
            }
        }
    }
}
