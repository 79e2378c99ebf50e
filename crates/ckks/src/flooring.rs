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
//! In the hardware this is the `INTT1 → NTT1 → MS` tail of the KeySwitch
//! module (Figure 5), and here it is one body, [`floor_into`]: rescaling
//! drops the last ciphertext prime through it, encryption and the end of
//! a key switch the special prime. It reduces the dropped residue before
//! its INTT and every kept word as MS reads it, so the key switch's lazy
//! accumulators and canonical polynomials take the same path.

use heax_math::exec::{self, Executor};
use heax_math::poly::{Representation, RnsPoly, Words};
use heax_math::word::Modulus;
use heax_math::MathError;

use crate::context::CkksContext;
use crate::keyswitch::{NttBackend, Stage};
use crate::CkksError;

/// Floors one NTT-form polynomial by chain prime `drop_prime` — the prime
/// right above the kept ones (rescaling) or the special prime
/// (encryption, key switching) — into `out`, which must be shaped over the
/// kept primes `ctx.level_moduli(to)`.
///
/// `kept` holds residues `0..=to`, limb after limb, and `dropped` the
/// residue under `drop_prime`; any word below `4p` is accepted in either,
/// and the output is canonical. `dropped` is the caller's loan: it is
/// reduced and INTT'd in place on `backend` as [`Stage::Intt1`]. Each kept limb
/// then re-NTTs it with reduce-on-load as [`Stage::Ntt1`] in a lane of
/// its thread's recycler, and MS finishes the limb, adding `add.0` read
/// through the permutation `add.1` (a rotation's `τ(c₀)`) as it stores.
/// Limbs run side by side on `exec`.
///
/// # Errors
///
/// [`CkksError::LevelExhausted`] when `kept` is empty; [`CkksError::Math`]
/// when `out` is not shaped over `ctx.level_moduli(to)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn floor_into(
    ctx: &CkksContext,
    exec: &dyn Executor,
    backend: &impl NttBackend,
    drop_prime: usize,
    kept: &[u64],
    dropped: &mut [u64],
    add: Option<(&RnsPoly, &[u32])>,
    out: &mut RnsPoly,
) -> Result<(), CkksError> {
    let n = ctx.n();
    debug_assert_eq!(dropped.len(), n, "the dropped residue is one residue");
    let to = (kept.len() / n)
        .checked_sub(1)
        .ok_or(CkksError::LevelExhausted)?;
    let special = drop_prime == ctx.params().k();
    debug_assert!(special || drop_prime == to + 1, "not the prime above");
    let out_moduli = ctx.level_moduli(to);
    check_output(out, n, out_moduli)?;
    let consts = if special {
        ctx.modswitch_constants(to)
    } else {
        ctx.rescale_constants(drop_prime)
    };

    // INTT1 (line 1).
    ctx.moduli()[drop_prime].reduce_words(dropped);
    backend.inverse(Stage::Intt1, ctx.ntt_table(drop_prime), dropped);

    // NTT1 + MS per kept prime (lines 2-7), each limb in its own lane.
    let a = &*dropped;
    out.set_representation(Representation::Ntt);
    exec::for_each_limb(exec, out.data_mut(), n, |i, dst| {
        let mut lane = Words::for_overwrite(n);
        // DOMAIN: [0,4p)
        backend.forward_reduced(Stage::Ntt1, ctx.ntt_table(i), a, &mut lane);
        let add = add.map(|(c, perm)| (c.residue(i), perm));
        out_moduli[i].mod_switch(consts.inv(i), &kept[i * n..][..n], &lane, add, dst);
    });
    Ok(())
}

/// Validates a caller-provided floor output: NTT-form shape over exactly
/// the given basis, compared by modulus value.
fn check_output(out: &RnsPoly, n: usize, moduli: &[Modulus]) -> Result<(), CkksError> {
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
    use crate::galois::galois_permutation;
    use crate::keyswitch::TableNtt;
    use heax_math::exec::Sequential;

    /// Floors `c` — the kept residues, then the dropped one — by chain
    /// prime `drop_prime` on the software kernels.
    fn floor(
        ctx: &CkksContext,
        drop_prime: usize,
        c: &RnsPoly,
        add: Option<(&RnsPoly, &[u32])>,
    ) -> Result<RnsPoly, CkksError> {
        let (n, keep) = (ctx.n(), c.num_residues() - 1);
        let mut out = RnsPoly::zero(n, ctx.level_moduli(keep - 1), Representation::Ntt);
        let mut dropped = c.residue(keep).to_vec();
        let kept = &c.data()[..keep * n];
        floor_into(
            ctx,
            &Sequential,
            &TableNtt,
            drop_prime,
            kept,
            &mut dropped,
            add,
            &mut out,
        )?;
        Ok(out)
    }

    /// The chain at `level` followed by the special prime.
    fn extended(ctx: &CkksContext, level: usize) -> Vec<Modulus> {
        let mut chain = ctx.level_moduli(level).to_vec();
        chain.push(*ctx.special_modulus());
        chain
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
        let chain = extended(&ctx, level);
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

        let mut floored = floor(&ctx, k, &c, None).unwrap();
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
        let level = 1usize; // basis p0, p1; drop p1 as a rescale does
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

        let mut floored = floor(&ctx, level, &c, None).unwrap();
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

    /// The one floor takes lazy words: for either dropped prime (the last
    /// ciphertext prime, the special prime), with and without the added
    /// permuted polynomial, representatives `+p`, `+2p` and `+3p` in every
    /// residue, the dropped one included, floor to the canonical input's
    /// bits; and the add is `τ(add)` added to the plain floor.
    #[test]
    fn lazy_words_floor_like_canonical_ones() {
        let ctx = CkksContext::new(small()).unwrap();
        let n = ctx.n();
        let level = ctx.max_level();
        let perm = galois_permutation(5, n);
        for (drop_prime, chain) in [
            (level, ctx.level_moduli(level).to_vec()),
            (ctx.params().k(), extended(&ctx, level)),
        ] {
            let keep = chain.len() - 1;
            let mut canonical = RnsPoly::zero(n, &chain, Representation::Ntt);
            let mut addend = RnsPoly::zero(n, &chain[..keep], Representation::Ntt);
            for (i, m) in chain.iter().enumerate() {
                for j in 0..n {
                    let x = (j as u64 * 131 + i as u64).wrapping_mul(0x9e37_79b9) % m.value();
                    canonical.residue_mut(i)[j] = x;
                    if i < keep {
                        addend.residue_mut(i)[j] = (x * 7 + 3) % m.value();
                    }
                }
            }
            let mut lazy = canonical.clone();
            for (i, m) in chain.iter().enumerate() {
                for (j, w) in lazy.residue_mut(i).iter_mut().enumerate() {
                    *w += m.value() * (u64::from(j % 3 == 0) + 2 * u64::from(j % 2 == 0));
                }
            }
            assert_ne!(lazy, canonical);
            let plain = floor(&ctx, drop_prime, &canonical, None).unwrap();
            assert_eq!(floor(&ctx, drop_prime, &lazy, None).unwrap(), plain);
            let add = Some((&addend, &perm[..]));
            let added = floor(&ctx, drop_prime, &canonical, add).unwrap();
            assert_eq!(floor(&ctx, drop_prime, &lazy, add).unwrap(), added);
            for (i, m) in chain[..keep].iter().enumerate() {
                for (j, &t) in perm.iter().enumerate() {
                    let want = m.add_mod(plain.residue(i)[j], addend.residue(i)[t as usize]);
                    assert_eq!(
                        added.residue(i)[j],
                        want,
                        "prime {drop_prime} res {i} coeff {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn floor_at_level_zero_is_exhausted() {
        let ctx = CkksContext::new(small()).unwrap();
        let mut dropped = vec![0; ctx.n()];
        let mut out = RnsPoly::zero(ctx.n(), ctx.level_moduli(0), Representation::Ntt);
        assert!(matches!(
            floor_into(
                &ctx,
                &Sequential,
                &TableNtt,
                0,
                &[],
                &mut dropped,
                None,
                &mut out
            ),
            Err(CkksError::LevelExhausted)
        ));
    }

    /// The output must be shaped over the kept primes, by count and by
    /// modulus value.
    #[test]
    fn floor_checks_shape() {
        let ctx = CkksContext::new(small()).unwrap();
        let (n, level, k) = (ctx.n(), ctx.max_level(), ctx.params().k());
        let c = RnsPoly::zero(n, &extended(&ctx, level), Representation::Ntt);
        let kept = &c.data()[..(level + 1) * n];
        let mut dropped = vec![0; n];
        let mut short = RnsPoly::zero(n, ctx.level_moduli(level - 1), Representation::Ntt);
        assert!(matches!(
            floor_into(
                &ctx,
                &Sequential,
                &TableNtt,
                k,
                kept,
                &mut dropped,
                None,
                &mut short
            ),
            Err(CkksError::Math(MathError::LengthMismatch { .. }))
        ));
        let foreign = extended(&ctx, level - 1);
        let mut wrong = RnsPoly::zero(n, &foreign, Representation::Ntt);
        assert!(matches!(
            floor_into(
                &ctx,
                &Sequential,
                &TableNtt,
                k,
                kept,
                &mut dropped,
                None,
                &mut wrong
            ),
            Err(CkksError::Math(MathError::BasisMismatch { .. }))
        ));
    }
}
