//! Independent oracle for `KeySwitch` (Algorithm 7) and hoisted rotation.
//!
//! A deliberately naive transcription that shares **no kernel** with the
//! code under test: every transform is the strict
//! [`NttTable::forward`](heax_math::ntt::NttTable::forward) /
//! [`NttTable::inverse`](heax_math::ntt::NttTable::inverse), every
//! product and sum a Barrett `Modulus::{mul_mod, add_mod, sub_mod}`
//! reduced term by term, and base conversion is `%`. It allocates freely
//! and runs on one thread. The production skeleton
//! (`heax_ckks::keyswitch`) must match it bit for bit on every backend.

#![allow(dead_code)]

use heax_ckks::galois::{galois_elt_from_step, galois_permutation};
use heax_ckks::{Ciphertext, CkksContext, GaloisKeys, KeySwitchKey};
use heax_math::poly::{Representation, RnsPoly};

/// Chain indices of the extended basis at `level`: `p_0..p_level`, then
/// the special prime.
fn extended_chain(ctx: &CkksContext, level: usize) -> Vec<usize> {
    let mut chain: Vec<usize> = (0..=level).collect();
    chain.push(ctx.params().k());
    chain
}

/// `digits[i][j] = b̃_{i,j}`: residue `i` of `c1` taken to coefficient
/// form, reduced into extended prime `j`, and transformed back (lines
/// 3–9, 14–15). The diagonal reuses the NTT-form residue as the
/// algorithm does.
fn decompose(ctx: &CkksContext, c1: &RnsPoly, level: usize) -> Vec<Vec<Vec<u64>>> {
    assert_eq!(c1.representation(), Representation::Ntt);
    assert_eq!(c1.num_residues(), level + 1);
    (0..=level)
        .map(|i| {
            let mut a = c1.residue(i).to_vec();
            ctx.ntt_table(i).inverse(&mut a);
            extended_chain(ctx, level)
                .into_iter()
                .map(|c| {
                    if c == i {
                        return c1.residue(i).to_vec();
                    }
                    let p = ctx.moduli()[c].value();
                    let mut b: Vec<u64> = a.iter().map(|&x| x % p).collect();
                    ctx.ntt_table(c).forward(&mut b);
                    b
                })
                .collect()
        })
        .collect()
}

/// Accumulates `Σ_i τ(b̃_{i,j}) ⊙ d̃_{i,·,j}` over the extended basis and
/// floors both sums by the special prime (lines 11–12, 16–19).
fn switch_digits(
    ctx: &CkksContext,
    digits: &[Vec<Vec<u64>>],
    ksk: &KeySwitchKey,
    perm: Option<&[u32]>,
    level: usize,
) -> (RnsPoly, RnsPoly) {
    let n = ctx.n();
    let chain = extended_chain(ctx, level);
    let mut acc = [
        vec![vec![0u64; n]; chain.len()],
        vec![vec![0u64; n]; chain.len()],
    ];
    for (i, row) in digits.iter().enumerate() {
        let (kb, ka) = ksk.component(i);
        for (j, &c) in chain.iter().enumerate() {
            let m = &ctx.moduli()[c];
            for t in 0..n {
                let x = row[j][perm.map_or(t, |p| p[t] as usize)];
                acc[0][j][t] = m.add_mod(acc[0][j][t], m.mul_mod(x, kb.residue(c).get(t)));
                acc[1][j][t] = m.add_mod(acc[1][j][t], m.mul_mod(x, ka.residue(c).get(t)));
            }
        }
    }

    let p_sp = ctx.special_modulus().value();
    let floor = |acc: &[Vec<u64>]| {
        let mut a = acc[level + 1].clone();
        ctx.special_ntt_table().inverse(&mut a);
        let mut out = RnsPoly::zero(n, ctx.level_moduli(level), Representation::Ntt);
        for (i, m) in ctx.level_moduli(level).iter().enumerate() {
            let mut r: Vec<u64> = a.iter().map(|&x| x % m.value()).collect();
            ctx.ntt_table(i).forward(&mut r);
            let inv = m.inv_mod(p_sp % m.value()).unwrap();
            for (t, d) in out.residue_mut(i).iter_mut().enumerate() {
                *d = m.mul_mod(m.sub_mod(acc[i][t], r[t]), inv);
            }
        }
        out
    };
    (floor(&acc[0]), floor(&acc[1]))
}

/// Algorithm 7, lines 1–19, by the book.
pub fn barrett_key_switch(
    ctx: &CkksContext,
    target: &RnsPoly,
    ksk: &KeySwitchKey,
    level: usize,
) -> (RnsPoly, RnsPoly) {
    switch_digits(ctx, &decompose(ctx, target, level), ksk, None, level)
}

/// Hoisted rotation by the book: one decomposition of `c₁`, then per
/// step the Galois permutation applied to the digits, a full accumulate
/// and floor, and `c₀' = τ(c₀) + f₀`.
pub fn barrett_rotate_many(
    ctx: &CkksContext,
    ct: &Ciphertext,
    steps: &[i64],
    gks: &GaloisKeys,
) -> Vec<Ciphertext> {
    assert_eq!(ct.size(), 2);
    let n = ctx.n();
    let level = ct.level();
    let digits = decompose(ctx, ct.component(1), level);
    steps
        .iter()
        .map(|&step| {
            let elt = galois_elt_from_step(step, n);
            let perm = galois_permutation(elt, n);
            let ksk = gks.key(elt).unwrap();
            let (mut f0, f1) = switch_digits(ctx, &digits, ksk, Some(&perm), level);
            for (i, m) in ctx.level_moduli(level).iter().enumerate() {
                let src = ct.component(0).residue(i);
                for (t, d) in f0.residue_mut(i).iter_mut().enumerate() {
                    *d = m.add_mod(*d, src[perm[t] as usize]);
                }
            }
            Ciphertext::from_parts(vec![f0, f1], level, ct.scale()).unwrap()
        })
        .collect()
}
