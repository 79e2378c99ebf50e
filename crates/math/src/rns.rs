//! Residue Number System (RNS) tools.
//!
//! HEAX targets the *full-RNS* variant of CKKS: every polynomial lives as a
//! vector of residue polynomials modulo word-sized primes, and no
//! multi-precision arithmetic ever happens on the evaluation path. The only
//! places the composed integer is needed are decryption/decoding and tests;
//! for those we use Garner's mixed-radix conversion, which stays entirely in
//! word arithmetic (Section 2, "Residue Number System").
//!
//! The gadget decomposition `g⁻¹` and gadget vector
//! `g = (π_i·[π_i⁻¹]_{p_i})_i` of Section 2 / Section 3.4 are also
//! precomputed here; they drive `KskGen` in `heax-ckks` and the KeySwitch
//! dataflow in `heax-hw`.

use crate::word::{Modulus, MulRedConstant};
use crate::MathError;

/// An ordered RNS basis `(p_0, …, p_{k-1})` of pairwise-coprime word-sized
/// moduli, with precomputed Garner constants.
///
/// # Examples
///
/// ```
/// use heax_math::rns::RnsBasis;
///
/// # fn main() -> Result<(), heax_math::MathError> {
/// let basis = RnsBasis::new(&[97, 193])?;
/// let x = 5000u64;
/// let residues = [x % 97, x % 193];
/// assert_eq!(basis.compose_u128(&residues), x as u128);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct RnsBasis {
    moduli: Vec<Modulus>,
    /// `inv_prod[j][i] = (p_i)^{-1} mod p_j` for `i < j` (Garner constants).
    garner_inv: Vec<Vec<u64>>,
    /// Mixed-radix digits of `(Q-1)/2`, for exact centering.
    half_q_digits: Vec<u64>,
}

impl RnsBasis {
    /// Builds a basis from raw moduli values.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidModulus`] for invalid words,
    /// [`MathError::NotCoprime`] if two moduli share a factor, and
    /// [`MathError::EmptyBasis`] for an empty list.
    pub fn new(moduli: &[u64]) -> Result<Self, MathError> {
        let mods: Result<Vec<Modulus>, MathError> =
            moduli.iter().map(|&p| Modulus::new(p)).collect();
        Self::from_moduli(mods?)
    }

    /// Builds a basis from prepared [`Modulus`] values.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RnsBasis::new`].
    pub fn from_moduli(moduli: Vec<Modulus>) -> Result<Self, MathError> {
        if moduli.is_empty() {
            return Err(MathError::EmptyBasis);
        }
        let k = moduli.len();
        let mut garner_inv = vec![Vec::new(); k];
        for j in 0..k {
            let pj = &moduli[j];
            let mut row = Vec::with_capacity(j);
            for pi in moduli.iter().take(j) {
                let r = pj.reduce_u64(pi.value());
                let inv = pj.inv_mod(r).map_err(|_| MathError::NotCoprime {
                    a: pi.value(),
                    b: pj.value(),
                })?;
                row.push(inv);
            }
            garner_inv[j] = row;
        }
        let mut basis = Self {
            moduli,
            garner_inv,
            half_q_digits: Vec::new(),
        };
        // Residues of (Q-1)/2: Q ≡ 0, so (Q-1) ≡ -1, and dividing by 2 means
        // multiplying by 2^{-1} (all moduli odd).
        let half_residues: Vec<u64> = basis
            .moduli
            .iter()
            .map(|p| p.mul_mod(p.value() - 1, p.inv_two()))
            .collect();
        basis.half_q_digits = basis.mixed_radix_digits(&half_residues);
        Ok(basis)
    }

    /// Number of moduli in the basis.
    #[inline]
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    /// Whether the basis is empty (never true for a constructed basis).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    /// The moduli, in order.
    #[inline]
    pub fn moduli(&self) -> &[Modulus] {
        &self.moduli
    }

    /// The `i`-th modulus.
    #[inline]
    pub fn modulus(&self, i: usize) -> &Modulus {
        &self.moduli[i]
    }

    /// A sub-basis over the first `k` moduli.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::EmptyBasis`] if `k == 0`.
    pub fn truncate(&self, k: usize) -> Result<Self, MathError> {
        Self::from_moduli(self.moduli[..k.min(self.len())].to_vec())
    }

    /// Decomposes residues into Garner mixed-radix digits
    /// `x = d_0 + d_1·p_0 + d_2·p_0·p_1 + …` with `d_i ∈ [0, p_i)`.
    ///
    /// # Panics
    ///
    /// Panics if `residues.len() != self.len()`.
    pub fn mixed_radix_digits(&self, residues: &[u64]) -> Vec<u64> {
        assert_eq!(residues.len(), self.len(), "residue count mismatch");
        let k = self.len();
        let mut digits = vec![0u64; k];
        for j in 0..k {
            let pj = &self.moduli[j];
            let mut t = pj.reduce_u64(residues[j]);
            for (di, inv) in digits[..j].iter().zip(&self.garner_inv[j]) {
                t = pj.mul_mod(pj.sub_mod(t, pj.reduce_u64(*di)), *inv);
            }
            digits[j] = t;
        }
        digits
    }

    /// Composes residues into the unique `x ∈ [0, Q)` as a `u128`.
    ///
    /// # Panics
    ///
    /// Panics if the composed value (or Q itself) does not fit in 128 bits —
    /// intended for bases of at most two ~60-bit moduli or tests with small
    /// moduli.
    pub fn compose_u128(&self, residues: &[u64]) -> u128 {
        let digits = self.mixed_radix_digits(residues);
        let mut acc: u128 = 0;
        let mut radix: u128 = 1;
        for (d, p) in digits.iter().zip(&self.moduli) {
            let term = radix.checked_mul(*d as u128).expect("compose overflow");
            acc = acc.checked_add(term).expect("compose overflow");
            radix = radix.checked_mul(p.value() as u128).unwrap_or({
                // The final radix update may overflow harmlessly when the
                // last digit was already folded in; only fail if digits
                // remain.
                u128::MAX
            });
        }
        acc
    }

    /// Composes residues into the centered representative in `(-Q/2, Q/2]`,
    /// returned as an `f64`.
    ///
    /// The comparison against `Q/2` is done exactly on mixed-radix digits;
    /// only the final fold to `f64` rounds (53-bit mantissa), which is the
    /// inherent precision of CKKS decoding anyway.
    pub fn compose_centered_f64(&self, residues: &[u64]) -> f64 {
        let digits = self.mixed_radix_digits(residues);
        if self.digits_gt_half(&digits) {
            // x > (Q-1)/2  =>  return -(Q - x).
            let neg: Vec<u64> = residues
                .iter()
                .zip(&self.moduli)
                .map(|(&r, p)| p.neg_mod(p.reduce_u64(r)))
                .collect();
            -self.fold_digits_f64(&self.mixed_radix_digits(&neg))
        } else {
            self.fold_digits_f64(&digits)
        }
    }

    /// Composes residues into the centered representative as `i128`.
    ///
    /// # Panics
    ///
    /// Panics if the centered magnitude does not fit in an `i128`.
    pub fn compose_centered_i128(&self, residues: &[u64]) -> i128 {
        let digits = self.mixed_radix_digits(residues);
        if self.digits_gt_half(&digits) {
            let neg: Vec<u64> = residues
                .iter()
                .zip(&self.moduli)
                .map(|(&r, p)| p.neg_mod(p.reduce_u64(r)))
                .collect();
            -self.fold_digits_i128(&self.mixed_radix_digits(&neg))
        } else {
            self.fold_digits_i128(&digits)
        }
    }

    fn digits_gt_half(&self, digits: &[u64]) -> bool {
        // Mixed-radix comparison, most-significant digit first.
        for (d, h) in digits.iter().zip(&self.half_q_digits).rev() {
            if d != h {
                return d > h;
            }
        }
        false
    }

    fn fold_digits_f64(&self, digits: &[u64]) -> f64 {
        let mut acc = 0.0f64;
        for (d, p) in digits.iter().zip(&self.moduli).rev() {
            acc = acc * p.value() as f64 + *d as f64;
        }
        acc
    }

    fn fold_digits_i128(&self, digits: &[u64]) -> i128 {
        let mut acc: i128 = 0;
        for (d, p) in digits.iter().zip(&self.moduli).rev() {
            acc = acc
                .checked_mul(p.value() as i128)
                .and_then(|a| a.checked_add(*d as i128))
                .expect("centered value exceeds i128");
        }
        acc
    }

    /// `log2(Q)`.
    pub fn log2_product(&self) -> f64 {
        self.moduli.iter().map(|p| (p.value() as f64).log2()).sum()
    }
}

/// Precomputed RNS gadget for key switching over basis
/// `q_ℓ = p_0⋯p_ℓ` extended by the special modulus `p_sp`.
///
/// Section 3.4 of the paper: with `π_i = q/p_i`, the gadget vector is
/// `g = (π_i·[π_i^{-1}]_{p_i})_i` and the decomposition is
/// `g^{-1}(a) = ([a]_{p_i})_i`, so that `a = ⟨g, g^{-1}(a)⟩ (mod q)`.
///
/// This struct stores, for each decomposition index `i`, the residues of
/// `p_sp · g_i` modulo every modulus of the extended basis `q·p_sp` — i.e.
/// exactly the constants `KskGen` multiplies into the encrypted key.
#[derive(Clone, Debug)]
pub struct RnsGadget {
    /// `factor[i][j] = [p_sp · g_i]_{m_j}` where `m_j` ranges over the
    /// moduli of `q` followed by the special modulus.
    factors: Vec<Vec<u64>>,
    decomp_len: usize,
}

impl RnsGadget {
    /// Builds the gadget for ciphertext moduli `q_basis` and special modulus
    /// `special`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NotCoprime`] if moduli are not pairwise coprime.
    pub fn new(q_basis: &RnsBasis, special: &Modulus) -> Result<Self, MathError> {
        let k = q_basis.len();
        let mut factors = vec![vec![0u64; k + 1]; k];
        for (i, factors_i) in factors.iter_mut().enumerate() {
            let pi = q_basis.modulus(i);
            // w_i = [ (q/p_i)^{-1} ]_{p_i}  as an integer in [0, p_i).
            let mut prod_mod_pi = 1u64;
            for (t, pt) in q_basis.moduli().iter().enumerate() {
                if t != i {
                    prod_mod_pi = pi.mul_mod(prod_mod_pi, pi.reduce_u64(pt.value()));
                }
            }
            let w_i = pi.inv_mod(prod_mod_pi).map_err(|_| MathError::NotCoprime {
                a: pi.value(),
                b: prod_mod_pi,
            })?;

            // g_i mod m_j for each target modulus m_j:
            //   g_i = (q/p_i) * w_i, so mod p_j (j≠i) it vanishes; mod p_i it
            //   is 1; mod the special prime compute both factors explicitly.
            for (j, mj) in q_basis
                .moduli()
                .iter()
                .chain(core::iter::once(special))
                .enumerate()
            {
                let g_i_mod = if j < k {
                    if j == i {
                        1u64
                    } else {
                        0u64
                    }
                } else {
                    // [q/p_i]_{p_sp} * [w_i]_{p_sp}
                    let mut pi_tilde = 1u64;
                    for (t, pt) in q_basis.moduli().iter().enumerate() {
                        if t != i {
                            pi_tilde = mj.mul_mod(pi_tilde, mj.reduce_u64(pt.value()));
                        }
                    }
                    mj.mul_mod(pi_tilde, mj.reduce_u64(w_i))
                };
                // Multiply by the special modulus p_sp (the "P·" factor of
                // hybrid key switching). Mod p_sp this is 0 — consistent with
                // P·g_i ≡ 0 (mod p_sp).
                factors_i[j] = mj.mul_mod(g_i_mod, mj.reduce_u64(special.value()));
            }
        }
        Ok(Self {
            factors,
            decomp_len: k,
        })
    }

    /// Number of decomposition components `d` (= number of `q` moduli).
    #[inline]
    pub fn decomp_len(&self) -> usize {
        self.decomp_len
    }

    /// `[p_sp·g_i]_{m_j}` — `j` indexes the moduli of `q` then the special
    /// modulus (index `decomp_len`).
    #[inline]
    pub fn factor(&self, i: usize, j: usize) -> u64 {
        self.factors[i][j]
    }
}

/// Constants for dividing by (flooring) a dropped modulus: used by RNS
/// flooring (Algorithm 6) and modulus switching. For target modulus `p_j`
/// and dropped modulus `p_drop`, stores `[p_drop^{-1}]_{p_j}` as a
/// [`MulRedConstant`].
#[derive(Clone, Debug)]
pub struct RnsFloorConstants {
    inv_dropped: Vec<MulRedConstant>,
}

impl RnsFloorConstants {
    /// Precomputes `[p_drop^{-1}]_{p_j}` for every remaining modulus.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NotCoprime`] if `p_drop` is not invertible
    /// modulo one of the remaining moduli.
    pub fn new(remaining: &[Modulus], dropped: &Modulus) -> Result<Self, MathError> {
        let mut inv_dropped = Vec::with_capacity(remaining.len());
        for pj in remaining {
            let inv =
                pj.inv_mod(pj.reduce_u64(dropped.value()))
                    .map_err(|_| MathError::NotCoprime {
                        a: dropped.value(),
                        b: pj.value(),
                    })?;
            inv_dropped.push(MulRedConstant::new(inv, pj));
        }
        Ok(Self { inv_dropped })
    }

    /// `[p_drop^{-1}]_{p_j}` for remaining modulus index `j`.
    #[inline]
    pub fn inv(&self, j: usize) -> &MulRedConstant {
        &self.inv_dropped[j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::generate_ntt_primes;

    #[test]
    fn rejects_degenerate_bases() {
        assert!(RnsBasis::new(&[]).is_err());
        assert!(RnsBasis::new(&[15, 35]).is_err()); // share factor 5
        assert!(RnsBasis::new(&[97, 97]).is_err());
        assert!(RnsBasis::new(&[4]).is_err()); // even
    }

    #[test]
    fn compose_small() {
        let basis = RnsBasis::new(&[97, 193, 257]).unwrap();
        let q: u128 = 97 * 193 * 257;
        for x in [0u128, 1, 12345, q - 1, q / 2, q / 2 + 1] {
            let residues: Vec<u64> = [97u64, 193, 257]
                .iter()
                .map(|&p| (x % p as u128) as u64)
                .collect();
            assert_eq!(basis.compose_u128(&residues), x, "x={x}");
        }
    }

    #[test]
    fn centered_compose() {
        let basis = RnsBasis::new(&[97, 193]).unwrap();
        let q: i128 = 97 * 193;
        for v in [-q / 2, -1i128, 0, 1, 42, q / 2] {
            let residues: Vec<u64> = [97i128, 193]
                .iter()
                .map(|&p| (v.rem_euclid(p)) as u64)
                .collect();
            assert_eq!(basis.compose_centered_i128(&residues), v, "v={v}");
            assert_eq!(basis.compose_centered_f64(&residues), v as f64);
        }
    }

    #[test]
    fn centered_compose_large_basis() {
        // 5 real NTT primes of 43-44 bits: centered small values survive.
        let mut primes = generate_ntt_primes(43, 2, 8192).unwrap();
        primes.extend(generate_ntt_primes(44, 3, 8192).unwrap());
        let basis = RnsBasis::new(&primes).unwrap();
        for v in [-123456789i128, -1, 0, 7, 1 << 40] {
            let residues: Vec<u64> = primes
                .iter()
                .map(|&p| (v.rem_euclid(p as i128)) as u64)
                .collect();
            assert_eq!(basis.compose_centered_i128(&residues), v);
        }
    }

    #[test]
    fn mixed_radix_digits_reconstruct() {
        let basis = RnsBasis::new(&[7, 11, 13]).unwrap();
        let x = 700u64;
        let residues = [x % 7, x % 11, x % 13];
        let d = basis.mixed_radix_digits(&residues);
        assert_eq!(d[0] + 7 * d[1] + 77 * d[2], x);
    }

    #[test]
    fn truncate_keeps_prefix() {
        let basis = RnsBasis::new(&[97, 193, 257]).unwrap();
        let t = basis.truncate(2).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.modulus(0).value(), 97);
        assert!(basis.truncate(0).is_err());
    }

    #[test]
    fn gadget_reconstructs_identity() {
        // Σ_i [a]_{p_i} · g_i ≡ a (mod q); with the P factor:
        // Σ_i [a]_{p_i} · (P·g_i) ≡ P·a (mod q·P).
        let q_primes = generate_ntt_primes(30, 3, 64).unwrap();
        let sp = generate_ntt_primes(31, 1, 64).unwrap()[0];
        let q_basis = RnsBasis::new(&q_primes).unwrap();
        let special = Modulus::new(sp).unwrap();
        let gadget = RnsGadget::new(&q_basis, &special).unwrap();

        let full = RnsBasis::new(
            &q_primes
                .iter()
                .copied()
                .chain(core::iter::once(sp))
                .collect::<Vec<_>>(),
        )
        .unwrap();

        let a: u128 = 0x1234_5678_9abc;
        // decomposition digits of a
        let decomp: Vec<u64> = q_primes.iter().map(|&p| (a % p as u128) as u64).collect();
        // accumulate Σ decomp_i * P·g_i in the full basis
        let mut acc = vec![0u64; full.len()];
        for (i, &d) in decomp.iter().enumerate() {
            for (j, m) in full.moduli().iter().enumerate() {
                let term = m.mul_mod(m.reduce_u64(d), gadget.factor(i, j));
                acc[j] = m.add_mod(acc[j], term);
            }
        }
        let got = full.compose_u128(&acc);
        let q: u128 = q_primes.iter().map(|&p| p as u128).product();
        let expected = (a * sp as u128) % (q * sp as u128);
        assert_eq!(got, expected);
    }

    #[test]
    fn floor_constants_invert() {
        let primes = generate_ntt_primes(30, 3, 64).unwrap();
        let mods: Vec<Modulus> = primes.iter().map(|&p| Modulus::new(p).unwrap()).collect();
        let (rest, drop) = mods.split_at(2);
        let fc = RnsFloorConstants::new(rest, &drop[0]).unwrap();
        for (j, pj) in rest.iter().enumerate() {
            let prod = fc.inv(j).mul_red(pj.reduce_u64(drop[0].value()), pj);
            assert_eq!(prod, 1);
        }
    }
}
