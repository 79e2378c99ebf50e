//! Galois automorphisms `X ↦ X^g` on ring elements, applied directly in
//! NTT (evaluation) form.
//!
//! Rotation of CKKS slots corresponds to the automorphism with
//! `g = 5^step mod 2n` (the encoder orders slots by powers of 5);
//! complex conjugation corresponds to `g = 2n - 1`.
//!
//! In our bit-reversed NTT form, position `j` holds the evaluation at
//! `ψ^{e_j}` with `e_j = 2·brv(j)+1`. Since `(a∘g)(ψ^e) = a(ψ^{e·g})`, the
//! automorphism is a pure index permutation — exactly why rotation on the
//! accelerator costs only a KeySwitch (Section 3.4).

use heax_math::ntt::bit_reverse;
use heax_math::poly::{Representation, RnsPoly};
use heax_math::MathError;

/// Galois element for a slot rotation by `step` (positive = left), for ring
/// degree `n`. Returns `5^step mod 2n` with negative steps mapped through
/// the group order (`5` has order `n/2` in `Z_{2n}^*`).
pub fn galois_elt_from_step(step: i64, n: usize) -> usize {
    let m = 2 * n;
    let order = (n / 2) as i64;
    let exp = step.rem_euclid(order) as u64;
    let mut elt = 1usize;
    let mut base = 5usize;
    let mut e = exp;
    while e > 0 {
        if e & 1 == 1 {
            elt = (elt * base) % m;
        }
        base = (base * base) % m;
        e >>= 1;
    }
    elt
}

/// Galois element for complex conjugation: `2n - 1` (i.e. `X ↦ X^{-1}`).
pub fn galois_elt_conjugate(n: usize) -> usize {
    2 * n - 1
}

/// Permutation table realizing `X ↦ X^g` on an NTT-form polynomial:
/// `result[j] = operand[table[j]]`. Entries are `u32`, four bytes a slot:
/// a ring has far fewer than 2^32 coefficients.
///
/// # Panics
///
/// Panics if `g` is even (not a valid Galois element) or `n` is not a
/// power of two of at most 2^32.
pub fn galois_permutation(g: usize, n: usize) -> Vec<u32> {
    assert!(n.is_power_of_two() && n >= 2, "n must be a power of two");
    assert!(n.ilog2() <= 32, "entries must fit u32");
    assert!(g % 2 == 1, "Galois element must be odd");
    let log_n = n.trailing_zeros();
    let m = 2 * n;
    (0..n)
        .map(|j| {
            let e = 2 * bit_reverse(j, log_n) + 1;
            let src_e = (e * g) % m;
            bit_reverse((src_e - 1) / 2, log_n) as u32
        })
        .collect()
}

/// Applies a Galois permutation to every residue of an NTT-form polynomial.
///
/// # Errors
///
/// Returns [`MathError::RepresentationMismatch`] if the polynomial is in
/// coefficient form.
pub fn apply_galois_ntt(poly: &RnsPoly, table: &[u32]) -> Result<RnsPoly, MathError> {
    let mut out = RnsPoly::zero(poly.n(), poly.moduli(), Representation::Ntt);
    apply_galois_ntt_into(poly, table, &mut out)?;
    Ok(out)
}

/// Applies a Galois permutation into a caller-provided buffer of the same
/// shape.
///
/// # Errors
///
/// Returns [`MathError::RepresentationMismatch`] if the polynomial is in
/// coefficient form, [`MathError::LengthMismatch`] if `out` has a
/// different shape.
pub fn apply_galois_ntt_into(
    poly: &RnsPoly,
    table: &[u32],
    out: &mut RnsPoly,
) -> Result<(), MathError> {
    if poly.representation() != Representation::Ntt {
        return Err(MathError::RepresentationMismatch);
    }
    let n = poly.n();
    assert_eq!(table.len(), n, "permutation table length mismatch");
    if out.n() != n || out.num_residues() != poly.num_residues() {
        return Err(MathError::LengthMismatch {
            expected: poly.num_residues() * n,
            got: out.num_residues() * out.n(),
        });
    }
    out.set_representation(Representation::Ntt);
    for i in 0..poly.num_residues() {
        permute(poly.residue(i), table, out.residue_mut(i));
    }
    Ok(())
}

/// One residue through a permutation table: `dst[j] = src[table[j]]`.
#[inline]
pub(crate) fn permute(src: &[u64], table: &[u32], dst: &mut [u64]) {
    for (d, &t) in dst.iter_mut().zip(table) {
        *d = src[t as usize];
    }
}

/// Applies `X ↦ X^g` in coefficient form: `a_i·X^i ↦ ±a_i·X^{(i·g) mod n}`
/// with the sign from negacyclic wraparound. O(n) reference used by tests
/// to validate the NTT-domain permutation.
pub fn apply_galois_coeff(poly: &RnsPoly, g: usize) -> Result<RnsPoly, MathError> {
    if poly.representation() != Representation::Coefficient {
        return Err(MathError::RepresentationMismatch);
    }
    let n = poly.n();
    let m = 2 * n;
    let mut out = RnsPoly::zero(n, poly.moduli(), Representation::Coefficient);
    for (r, p) in poly.moduli().iter().enumerate() {
        for i in 0..n {
            let target = (i * g) % m;
            let c = poly.residue(r)[i];
            if target < n {
                out.residue_mut(r)[target] = c;
            } else {
                out.residue_mut(r)[target - n] = p.neg_mod(c);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use heax_math::ntt::NttTable;
    use heax_math::primes::generate_ntt_primes;
    use heax_math::word::Modulus;

    fn setup(n: usize) -> (Vec<Modulus>, Vec<NttTable>) {
        let mods: Vec<Modulus> = generate_ntt_primes(30, 2, n)
            .unwrap()
            .into_iter()
            .map(|p| Modulus::new(p).unwrap())
            .collect();
        let tables = mods.iter().map(|&m| NttTable::new(n, m).unwrap()).collect();
        (mods, tables)
    }

    #[test]
    fn elt_from_step_basics() {
        let n = 16;
        assert_eq!(galois_elt_from_step(0, n), 1);
        assert_eq!(galois_elt_from_step(1, n), 5);
        assert_eq!(galois_elt_from_step(2, n), 25);
        // Negative steps invert: 5^(order-1) * 5 == 1 (mod 2n).
        let neg = galois_elt_from_step(-1, n);
        assert_eq!((neg * 5) % (2 * n), 1);
        // Full-cycle rotation is the identity.
        assert_eq!(galois_elt_from_step((n / 2) as i64, n), 1);
    }

    #[test]
    fn conjugate_elt() {
        assert_eq!(galois_elt_conjugate(16), 31);
    }

    #[test]
    fn ntt_permutation_matches_coefficient_automorphism() {
        let n = 64usize;
        let (mods, tables) = setup(n);
        let mut poly = RnsPoly::zero(n, &mods, Representation::Coefficient);
        for (r, m) in mods.iter().enumerate() {
            for (j, c) in poly.residue_mut(r).iter_mut().enumerate() {
                *c = ((j as u64 * 31 + r as u64 * 7 + 1) * 13) % m.value();
            }
        }
        for g in [5usize, 25, 2 * n - 1, galois_elt_from_step(3, n)] {
            // Path A: automorphism in coefficient domain, then NTT.
            let mut a = apply_galois_coeff(&poly, g).unwrap();
            a.ntt_forward(&tables).unwrap();
            // Path B: NTT, then permutation in evaluation domain.
            let mut b_in = poly.clone();
            b_in.ntt_forward(&tables).unwrap();
            let table = galois_permutation(g, n);
            let b = apply_galois_ntt(&b_in, &table).unwrap();
            assert_eq!(a, b, "g={g}");
        }
    }

    #[test]
    fn into_variant_matches_allocating_variant() {
        let n = 64usize;
        let (mods, tables) = setup(n);
        let mut poly = RnsPoly::zero(n, &mods, Representation::Coefficient);
        for (r, m) in mods.iter().enumerate() {
            for (j, c) in poly.residue_mut(r).iter_mut().enumerate() {
                *c = ((j as u64 * 7 + r as u64) * 29 + 5) % m.value();
            }
        }
        poly.ntt_forward(&tables).unwrap();
        let table = galois_permutation(5, n);
        let fresh = apply_galois_ntt(&poly, &table).unwrap();
        let mut reused = RnsPoly::zero(n, &mods, Representation::Coefficient);
        apply_galois_ntt_into(&poly, &table, &mut reused).unwrap();
        assert_eq!(fresh, reused);
        // Shape mismatch rejected.
        let mut wrong = RnsPoly::zero(n, &mods[..1], Representation::Ntt);
        assert!(apply_galois_ntt_into(&poly, &table, &mut wrong).is_err());
    }

    #[test]
    fn permutation_is_bijective() {
        let n = 128;
        for g in [5usize, 2 * n - 1] {
            let table = galois_permutation(g, n);
            let mut seen = vec![false; n];
            for &t in &table {
                assert!(!seen[t as usize]);
                seen[t as usize] = true;
            }
        }
    }

    #[test]
    fn identity_element_is_identity() {
        let table = galois_permutation(1, 32);
        for (j, &t) in table.iter().enumerate() {
            assert_eq!(j, t as usize);
        }
    }

    #[test]
    fn representation_checked() {
        let (mods, _) = setup(16);
        let coeff = RnsPoly::zero(16, &mods, Representation::Coefficient);
        let table = galois_permutation(5, 16);
        assert!(apply_galois_ntt(&coeff, &table).is_err());
        let ntt = RnsPoly::zero(16, &mods, Representation::Ntt);
        assert!(apply_galois_coeff(&ntt, 5).is_err());
    }
}
