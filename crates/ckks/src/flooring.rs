//! RNS flooring (Algorithm 6): divide-and-floor by one modulus of the
//! basis, entirely in RNS/NTT form.
//!
//! `Floor(C̃, p)` takes the RNS+NTT form of `c ∈ R_{q·p}` and produces the
//! RNS+NTT form of `⌊c/p⌋ ∈ R_q`:
//!
//! 1. `a ← INTT_p(c̃_p)` — bring the dropped residue to coefficient form;
//! 2. for every remaining modulus `p_i`: `r ← Mod(a, p_i)`,
//!    `r̃ ← NTT_{p_i}(r)`, `c̃'_i ← (c̃_i − r̃)·[p^{-1}]_{p_i}`.
//!
//! Both rescaling (dropping the last ciphertext prime) and modulus
//! switching at the end of key switching (dropping the special prime) are
//! instances of this routine — in the hardware they are the `INTT1 → NTT1 →
//! MS` tail of the KeySwitch module (Figure 5).

use heax_math::exec::{self, Executor};
use heax_math::poly::{Representation, RnsPoly};

use crate::context::CkksContext;
use crate::CkksError;

/// Floors away the **special prime** into a caller-provided output: input
/// spans `p_0..p_level` plus the special prime (as its last residue);
/// `out` must be pre-shaped over `p_0..p_level` in NTT form. `drop_coeff`
/// and `lane` are scratch buffers (see [`crate::scratch`]); the call is
/// allocation-free once they have capacity.
///
/// # Errors
///
/// Returns [`CkksError::Math`] if the input is not in NTT form, its
/// residue count is not `level + 2`, or `out` has the wrong shape.
pub(crate) fn floor_special_into(
    c: &RnsPoly,
    ctx: &CkksContext,
    level: usize,
    exec: &dyn Executor,
    drop_coeff: &mut Vec<u64>,
    lane: &mut [u64],
    out: &mut RnsPoly,
) -> Result<(), CkksError> {
    floor_impl_into(c, ctx, level, true, exec, drop_coeff, lane, out)
}

/// Floors away the **last ciphertext prime** `p_level` (rescaling) into a
/// caller-provided output: input spans `p_0..p_level`; `out` must be
/// pre-shaped over `p_0..p_{level-1}` in NTT form.
///
/// # Errors
///
/// Returns [`CkksError::LevelExhausted`] at level 0 and [`CkksError::Math`]
/// on representation/shape mismatches.
pub(crate) fn floor_last_into(
    c: &RnsPoly,
    ctx: &CkksContext,
    level: usize,
    exec: &dyn Executor,
    drop_coeff: &mut Vec<u64>,
    lane: &mut [u64],
    out: &mut RnsPoly,
) -> Result<(), CkksError> {
    if level == 0 {
        return Err(CkksError::LevelExhausted);
    }
    floor_impl_into(c, ctx, level, false, exec, drop_coeff, lane, out)
}

/// Allocating convenience wrapper over [`floor_special_into`] for cold
/// paths (encryption); hot paths go through the evaluator's scratch.
///
/// # Errors
///
/// Same as [`floor_special_into`].
pub(crate) fn floor_special(
    c: &RnsPoly,
    ctx: &CkksContext,
    level: usize,
    exec: &dyn Executor,
) -> Result<RnsPoly, CkksError> {
    let mut drop_coeff = Vec::new();
    let mut lane = vec![0u64; (level + 1) * ctx.n()];
    let mut out = RnsPoly::zero(ctx.n(), ctx.level_moduli(level), Representation::Ntt);
    floor_special_into(c, ctx, level, exec, &mut drop_coeff, &mut lane, &mut out)?;
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn floor_impl_into(
    c: &RnsPoly,
    ctx: &CkksContext,
    level: usize,
    special: bool,
    exec: &dyn Executor,
    drop_coeff: &mut Vec<u64>,
    lane: &mut [u64],
    out: &mut RnsPoly,
) -> Result<(), CkksError> {
    if c.representation() != Representation::Ntt {
        return Err(CkksError::Math(
            heax_math::MathError::RepresentationMismatch,
        ));
    }
    let keep = if special { level + 1 } else { level };
    if c.num_residues() != keep + 1 {
        return Err(CkksError::Math(heax_math::MathError::LengthMismatch {
            expected: keep + 1,
            got: c.num_residues(),
        }));
    }
    let n = ctx.n();
    let out_moduli = ctx.level_moduli(if special { level } else { level - 1 });
    if out.n() != n || out.num_residues() != out_moduli.len() {
        return Err(CkksError::Math(heax_math::MathError::LengthMismatch {
            expected: out_moduli.len() * n,
            got: out.num_residues() * out.n(),
        }));
    }
    let drop_table = if special {
        ctx.special_ntt_table()
    } else {
        ctx.ntt_table(level)
    };
    let consts = if special {
        ctx.modswitch_constants(level)
    } else {
        ctx.rescale_constants(level)
    };

    // Step 1: INTT the dropped residue (Algorithm 6, line 1). Inputs to
    // this single-residue floor are always canonical [0, p) residues
    // (rescaling, encryption); only the key-switch skeleton's paired
    // floor (`crate::keyswitch`) accepts lazy accumulators.
    drop_coeff.clear();
    drop_coeff.extend_from_slice(c.residue(keep));
    drop_table.inverse_auto(drop_coeff);

    // Step 2: fold into every remaining modulus (lines 2-7) — one
    // independent limb per modulus, dispatched across the executor; each
    // limb re-NTTs, reducing on load, inside its own scratch lane.
    let a = &*drop_coeff;
    let lane = &mut lane[..out_moduli.len() * n];
    out.set_representation(Representation::Ntt);
    exec::for_each_limb2(exec, out.data_mut(), lane, n, |i, dst, buf| {
        // DOMAIN: [0,4p)
        ctx.ntt_table(i).forward_reduced_auto(a, buf);
        out_moduli[i].mod_switch(consts.inv(i), c.residue(i), buf, None, dst);
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::tests::small;
    use crate::keyswitch::{KeySwitcher, KsBuffers, TableNtt};
    use heax_math::exec::Sequential;

    /// Allocating convenience wrapper over the rescale into-variant.
    fn floor_last(
        c: &RnsPoly,
        ctx: &CkksContext,
        level: usize,
        exec: &dyn Executor,
    ) -> Result<RnsPoly, CkksError> {
        if level == 0 {
            return Err(CkksError::LevelExhausted);
        }
        let mut drop = Vec::new();
        let mut lane = vec![0u64; level * ctx.n()];
        let mut out = RnsPoly::zero(ctx.n(), ctx.level_moduli(level - 1), Representation::Ntt);
        floor_last_into(c, ctx, level, exec, &mut drop, &mut lane, &mut out)?;
        Ok(out)
    }

    /// Flooring an exact multiple of the dropped prime divides exactly.
    #[test]
    fn floor_exact_multiple() {
        let ctx = CkksContext::new(small()).unwrap();
        let n = ctx.n();
        let level = ctx.max_level();
        let k = ctx.params().k();
        let p_sp = ctx.special_modulus().value();

        // c = p_sp * v for a small v: floor(c / p_sp) == v.
        let mut chain: Vec<_> = ctx.level_moduli(level).to_vec();
        chain.push(*ctx.special_modulus());
        let mut c = RnsPoly::zero(n, &chain, Representation::Coefficient);
        let v: Vec<u64> = (0..n as u64).map(|j| j % 50).collect();
        for (i, m) in chain.iter().enumerate() {
            for (j, dst) in c.residue_mut(i).iter_mut().enumerate() {
                *dst = m.mul_mod(m.reduce_u64(p_sp), m.reduce_u64(v[j]));
            }
        }
        let mut tables: Vec<_> = (0..k).map(|i| ctx.ntt_table(i).clone()).collect();
        tables.push(ctx.special_ntt_table().clone());
        c.ntt_forward(&tables).unwrap();

        let mut floored = floor_special(&c, &ctx, level, &Sequential).unwrap();
        floored.ntt_inverse(ctx.ntt_tables()).unwrap();
        for (i, _m) in ctx.level_moduli(level).iter().enumerate() {
            for (j, &got) in floored.residue(i).iter().enumerate() {
                assert_eq!(got, v[j] % ctx.moduli()[i].value(), "res {i} coeff {j}");
            }
        }
    }

    /// Flooring a general value is off by at most 1 from true division
    /// (the floor of the centered representative differs by the fractional
    /// part only).
    #[test]
    fn floor_general_value_close() {
        let ctx = CkksContext::new(small()).unwrap();
        let n = ctx.n();
        let level = 1usize; // basis p0, p1; drop p1 via rescale path
        let p0 = ctx.moduli()[0];
        let p1 = ctx.moduli()[1];

        // Known integer x in [0, p0*p1): floor path vs integer division.
        let x: u128 = 0x1234_5678_9abc_def0;
        let moduli = ctx.level_moduli(level).to_vec();
        let mut c = RnsPoly::zero(n, &moduli, Representation::Coefficient);
        c.residue_mut(0)[0] = (x % p0.value() as u128) as u64;
        c.residue_mut(1)[0] = (x % p1.value() as u128) as u64;
        let tables: Vec<_> = (0..2).map(|i| ctx.ntt_table(i).clone()).collect();
        c.ntt_forward(&tables).unwrap();

        let mut floored = floor_last(&c, &ctx, level, &Sequential).unwrap();
        assert_eq!(floored.num_residues(), 1);
        floored.ntt_inverse(&tables[..1]).unwrap();
        let got = floored.residue(0)[0];
        let expect = (x / p1.value() as u128) % p0.value() as u128;
        let diff = (got as i128 - expect as i128).rem_euclid(p0.value() as i128);
        assert!(
            diff <= 1 || diff >= p0.value() as i128 - 1,
            "floor deviates by more than 1: got {got}, expect {expect}"
        );
    }

    #[test]
    fn paired_floor_matches_two_singles() {
        let ctx = CkksContext::new(small()).unwrap();
        let n = ctx.n();
        let level = ctx.max_level();
        let mut chain: Vec<_> = ctx.level_moduli(level).to_vec();
        chain.push(*ctx.special_modulus());
        let mut c0 = RnsPoly::zero(n, &chain, Representation::Ntt);
        let mut c1 = RnsPoly::zero(n, &chain, Representation::Ntt);
        // Canonical inputs for the single-residue oracle…
        for (i, m) in chain.iter().enumerate() {
            for j in 0..n {
                c0.residue_mut(i)[j] = (j as u64 * 131 + i as u64).wrapping_mul(3) % m.value();
                c1.residue_mut(i)[j] = (j as u64 * 31 + 7).wrapping_mul(5) % m.value();
            }
        }
        let s0 = floor_special(&c0, &ctx, level, &Sequential).unwrap();
        let s1 = floor_special(&c1, &ctx, level, &Sequential).unwrap();
        // …and lazy representatives of the same values for the paired
        // variant, which must reduce them itself.
        for (i, m) in chain.iter().enumerate() {
            for j in 0..n {
                if j % 3 == 0 {
                    c0.residue_mut(i)[j] += m.value();
                }
                if j % 2 == 0 {
                    c1.residue_mut(i)[j] += 2 * m.value();
                }
            }
        }
        let mut bufs = KsBuffers::default();
        bufs.ensure(&ctx, level);
        bufs.acc0.copy_from_slice(c0.data());
        bufs.acc1.copy_from_slice(c1.data());
        let mut p0 = RnsPoly::zero(n, ctx.level_moduli(level), Representation::Ntt);
        let mut p1 = RnsPoly::zero(n, ctx.level_moduli(level), Representation::Ntt);
        KeySwitcher::new(&ctx, &Sequential, &TableNtt)
            .floor(&mut bufs, level, None, &mut p0, &mut p1)
            .unwrap();
        assert_eq!(p0, s0);
        assert_eq!(p1, s1);
    }

    #[test]
    fn floor_at_level_zero_is_exhausted() {
        let ctx = CkksContext::new(small()).unwrap();
        let c = RnsPoly::zero(ctx.n(), ctx.level_moduli(0), Representation::Ntt);
        assert!(matches!(
            floor_last(&c, &ctx, 0, &Sequential),
            Err(CkksError::LevelExhausted)
        ));
    }

    #[test]
    fn floor_checks_shape() {
        let ctx = CkksContext::new(small()).unwrap();
        // Wrong representation.
        let mut chain: Vec<_> = ctx.level_moduli(ctx.max_level()).to_vec();
        chain.push(*ctx.special_modulus());
        let c = RnsPoly::zero(ctx.n(), &chain, Representation::Coefficient);
        assert!(floor_special(&c, &ctx, ctx.max_level(), &Sequential).is_err());
        // Wrong residue count.
        let c = RnsPoly::zero(ctx.n(), &chain[..2], Representation::Ntt);
        assert!(floor_special(&c, &ctx, ctx.max_level(), &Sequential).is_err());
    }
}
