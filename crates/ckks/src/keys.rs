//! Key material: secret key, public key, and key-switching keys
//! (relinearization and Galois/rotation keys).
//!
//! `KskGen` follows Section 3 of the paper: a key-switching key from `s'`
//! to `s` is `ksk = (D_0 | D_1)` where `(d_{0,i}, d_{1,i}) =
//! SymEnc(P·g_i·s', s)` over the extended modulus `q·P` — `P` being the
//! special prime and `g` the RNS gadget vector. `RlkGen` instantiates it
//! with `s' = s²`; `GlkGen` with `s' = τ_g(s)` for the rotation
//! automorphism `τ_g`.

use std::collections::HashMap;

use heax_math::poly::{Representation, RnsPoly};
use heax_math::sampling::{sample_error, sample_ternary, sample_uniform};
use rand::Rng;

use crate::context::CkksContext;
use crate::galois::{
    apply_galois_ntt, galois_elt_conjugate, galois_elt_from_step, galois_permutation,
};
use crate::CkksError;

/// The secret key `s` (ternary), stored in NTT form over the full modulus
/// chain including the special prime.
#[derive(Clone, Debug, PartialEq)]
pub struct SecretKey {
    pub(crate) poly: RnsPoly,
}

impl SecretKey {
    /// Samples a fresh ternary secret key.
    pub fn generate<R: Rng + ?Sized>(ctx: &CkksContext, rng: &mut R) -> Self {
        let mut poly = sample_ternary(rng, ctx.n(), ctx.moduli());
        poly.ntt_forward(ctx.ntt_tables())
            .expect("fresh key in coeff form");
        Self { poly }
    }

    /// The key polynomial (NTT form, full chain).
    #[inline]
    pub fn poly(&self) -> &RnsPoly {
        &self.poly
    }

    /// The key restricted to the first `count` moduli of the chain.
    pub(crate) fn restricted(&self, indices: &[usize]) -> RnsPoly {
        restrict_poly(&self.poly, indices)
    }
}

/// The public key: `SymEnc(0, sk)` over the full chain.
#[derive(Clone, Debug, PartialEq)]
pub struct PublicKey {
    /// `b = -a·s + e` (NTT form, full chain).
    pub(crate) b: RnsPoly,
    /// `a` (uniform, NTT form, full chain).
    pub(crate) a: RnsPoly,
}

impl PublicKey {
    /// Generates a public key for `sk`.
    pub fn generate<R: Rng + ?Sized>(ctx: &CkksContext, sk: &SecretKey, rng: &mut R) -> Self {
        let (b, a) = sym_enc_zero(ctx, sk, rng);
        Self { b, a }
    }

    /// The `b = -a·s + e` component.
    #[inline]
    pub fn b(&self) -> &RnsPoly {
        &self.b
    }

    /// The uniform `a` component.
    #[inline]
    pub fn a(&self) -> &RnsPoly {
        &self.a
    }
}

/// A key-switching key from some `s'` to `s`: `d` component pairs over the
/// full chain (`q` primes + special prime), one per decomposition index.
///
/// Every residue is stored once, as the plain word keygen (or the wire)
/// produced — the evaluator's DyadMult multiplies the digits straight into
/// it — so [`KeySwitchKey::size_words`] is the whole footprint.
#[derive(Clone, Debug, PartialEq)]
pub struct KeySwitchKey {
    /// `components[i] = (d_{0,i}, d_{1,i})`, NTT form over the full chain.
    pub(crate) components: Vec<(RnsPoly, RnsPoly)>,
}

impl KeySwitchKey {
    /// Builds the key from raw component pairs. Used by keygen and
    /// deserialization.
    pub(crate) fn from_components(components: Vec<(RnsPoly, RnsPoly)>) -> Self {
        Self { components }
    }

    /// `KskGen(s', s)` — encrypts `P·g_i·s'` under `s` for every
    /// decomposition index `i` (Section 3, `KskGen`).
    ///
    /// `s_prime` must be in NTT form over the full chain.
    pub fn generate<R: Rng + ?Sized>(
        ctx: &CkksContext,
        s_prime: &RnsPoly,
        sk: &SecretKey,
        rng: &mut R,
    ) -> Self {
        let d = ctx.params().k();
        let gadget = ctx.gadget();
        let mut components = Vec::with_capacity(d);
        for i in 0..d {
            // (b_i, a_i) = SymEnc(0, s) over the full chain…
            let (mut b_i, a_i) = sym_enc_zero(ctx, sk, rng);
            // …then add P·g_i·s' to b_i. factor(i, j) is already in RNS per
            // chain modulus (special prime at index k).
            let k = ctx.params().k();
            for (j, m) in ctx.moduli().iter().enumerate() {
                let gadget_j = gadget.factor(i, j.min(k));
                let s_res = s_prime.residue(j);
                let dst = b_i.residue_mut(j);
                for (dstc, &sc) in dst.iter_mut().zip(s_res) {
                    *dstc = m.add_mod(*dstc, m.mul_mod(m.reduce_u64(gadget_j), sc));
                }
            }
            components.push((b_i, a_i));
        }
        Self::from_components(components)
    }

    /// Number of decomposition components (`d = k`).
    #[inline]
    pub fn decomp_len(&self) -> usize {
        self.components.len()
    }

    /// Component `i` as `(d_{0,i}, d_{1,i})`.
    #[inline]
    pub fn component(&self, i: usize) -> (&RnsPoly, &RnsPoly) {
        let (b, a) = &self.components[i];
        (b, a)
    }

    /// Extracts component `i` restricted to the moduli active at `level`
    /// plus the special prime — the exact operand set the KeySwitch module
    /// streams from DRAM (Section 5.1).
    pub fn component_at_level(
        &self,
        i: usize,
        ctx: &CkksContext,
        level: usize,
    ) -> (RnsPoly, RnsPoly) {
        let mut indices: Vec<usize> = (0..=level).collect();
        indices.push(ctx.params().k());
        let (b, a) = &self.components[i];
        (restrict_poly(b, &indices), restrict_poly(a, &indices))
    }

    /// Total size in 64-bit words (for the DRAM-bandwidth model of §5.1).
    pub fn size_words(&self) -> usize {
        self.components
            .iter()
            .map(|(b, a)| b.data().len() + a.data().len())
            .sum()
    }
}

/// Relinearization key: a key-switching key from `s²` to `s`.
#[derive(Clone, Debug, PartialEq)]
pub struct RelinKey {
    pub(crate) ksk: KeySwitchKey,
}

impl RelinKey {
    /// `CKKS.RlkGen(sk)`.
    pub fn generate<R: Rng + ?Sized>(ctx: &CkksContext, sk: &SecretKey, rng: &mut R) -> Self {
        let s_squared = sk.poly.dyadic_mul(&sk.poly).expect("same basis");
        Self {
            ksk: KeySwitchKey::generate(ctx, &s_squared, sk, rng),
        }
    }

    /// The underlying key-switching key.
    #[inline]
    pub fn ksk(&self) -> &KeySwitchKey {
        &self.ksk
    }
}

/// Galois (rotation/conjugation) keys: one key-switching key per Galois
/// element, from `τ_g(s)` to `s`.
#[derive(Clone, Debug)]
pub struct GaloisKeys {
    pub(crate) keys: HashMap<usize, KeySwitchKey>,
    pub(crate) permutations: HashMap<usize, Vec<usize>>,
}

impl GaloisKeys {
    /// `CKKS.GlkGen(sk, steps)` — generates keys for the given rotation
    /// steps (and nothing else).
    pub fn generate<R: Rng + ?Sized>(
        ctx: &CkksContext,
        sk: &SecretKey,
        steps: &[i64],
        rng: &mut R,
    ) -> Self {
        let mut gk = Self {
            keys: HashMap::new(),
            permutations: HashMap::new(),
        };
        for &s in steps {
            gk.add_step(ctx, sk, s, rng);
        }
        gk
    }

    /// Generates rotation keys plus the conjugation key.
    pub fn generate_with_conjugate<R: Rng + ?Sized>(
        ctx: &CkksContext,
        sk: &SecretKey,
        steps: &[i64],
        rng: &mut R,
    ) -> Self {
        let mut gk = Self::generate(ctx, sk, steps, rng);
        gk.add_element(ctx, sk, galois_elt_conjugate(ctx.n()), rng);
        gk
    }

    /// Adds a key for one rotation step.
    pub fn add_step<R: Rng + ?Sized>(
        &mut self,
        ctx: &CkksContext,
        sk: &SecretKey,
        step: i64,
        rng: &mut R,
    ) {
        let elt = galois_elt_from_step(step, ctx.n());
        self.add_element(ctx, sk, elt, rng);
    }

    /// Adds a key for a raw Galois element.
    pub fn add_element<R: Rng + ?Sized>(
        &mut self,
        ctx: &CkksContext,
        sk: &SecretKey,
        elt: usize,
        rng: &mut R,
    ) {
        if self.keys.contains_key(&elt) {
            return;
        }
        let table = galois_permutation(elt, ctx.n());
        let s_rotated = apply_galois_ntt(&sk.poly, &table).expect("sk is NTT form");
        let ksk = KeySwitchKey::generate(ctx, &s_rotated, sk, rng);
        self.keys.insert(elt, ksk);
        self.permutations.insert(elt, table);
    }

    /// Looks up the key for a Galois element.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::MissingGaloisKey`] if no key was generated for
    /// the element.
    pub fn key(&self, elt: usize) -> Result<&KeySwitchKey, CkksError> {
        self.keys
            .get(&elt)
            .ok_or(CkksError::MissingGaloisKey { galois_elt: elt })
    }

    /// Looks up the permutation table for a Galois element.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::MissingGaloisKey`] if no key was generated.
    pub fn permutation(&self, elt: usize) -> Result<&[usize], CkksError> {
        self.permutations
            .get(&elt)
            .map(Vec::as_slice)
            .ok_or(CkksError::MissingGaloisKey { galois_elt: elt })
    }

    /// Galois elements with generated keys.
    pub fn elements(&self) -> impl Iterator<Item = usize> + '_ {
        self.keys.keys().copied()
    }
}

/// `SymEnc(0, sk)`: returns `(b, a)` with `a ← U(R)` and `b = -a·s + e`,
/// in NTT form over the full chain.
pub(crate) fn sym_enc_zero<R: Rng + ?Sized>(
    ctx: &CkksContext,
    sk: &SecretKey,
    rng: &mut R,
) -> (RnsPoly, RnsPoly) {
    let a = sample_uniform(rng, ctx.n(), ctx.moduli(), Representation::Ntt);
    let mut e = sample_error(rng, ctx.n(), ctx.moduli());
    e.ntt_forward(ctx.ntt_tables())
        .expect("error in coeff form");
    // b = -(a·s) + e
    let mut b = a.dyadic_mul(&sk.poly).expect("same basis").neg();
    b.add_assign(&e).expect("same basis");
    (b, a)
}

/// Restricts a full-chain polynomial to the given modulus indices.
pub(crate) fn restrict_poly(poly: &RnsPoly, indices: &[usize]) -> RnsPoly {
    let n = poly.n();
    let moduli: Vec<_> = indices.iter().map(|&i| poly.moduli()[i]).collect();
    let mut out = RnsPoly::zero(n, &moduli, poly.representation());
    for (dst, &src) in indices.iter().enumerate() {
        out.residue_mut(dst).copy_from_slice(poly.residue(src));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::tests::small;
    use crate::context::CkksContext;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> CkksContext {
        CkksContext::new(small()).unwrap()
    }

    #[test]
    fn secret_key_is_ntt_over_full_chain() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(7);
        let sk = SecretKey::generate(&ctx, &mut rng);
        assert_eq!(sk.poly().num_residues(), ctx.moduli().len());
        assert_eq!(sk.poly().representation(), Representation::Ntt);
    }

    #[test]
    fn public_key_decrypts_to_small_error() {
        // b + a·s = e must be small after INTT.
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(8);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng);
        let mut e = pk.b().add(&pk.a().dyadic_mul(sk.poly()).unwrap()).unwrap();
        e.ntt_inverse(ctx.ntt_tables()).unwrap();
        let p0 = ctx.moduli()[0];
        for &c in e.residue(0) {
            let centered = if c > p0.value() / 2 {
                c as i64 - p0.value() as i64
            } else {
                c as i64
            };
            assert!(
                centered.abs() <= 21,
                "error coefficient too large: {centered}"
            );
        }
    }

    #[test]
    fn ksk_components_count_and_size() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(9);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let rlk = RelinKey::generate(&ctx, &sk, &mut rng);
        assert_eq!(rlk.ksk().decomp_len(), ctx.params().k());
        // Each component pair spans the full chain.
        let (b, a) = rlk.ksk().component(0);
        assert_eq!(b.num_residues(), ctx.moduli().len());
        assert_eq!(a.num_residues(), ctx.moduli().len());
        // Size: d * 2 * (k+1) * n words.
        let k = ctx.params().k();
        assert_eq!(rlk.ksk().size_words(), k * 2 * (k + 1) * ctx.n());
    }

    #[test]
    fn ksk_encrypts_gadget_multiple_of_target() {
        // d_{0,i} + d_{1,i}·s  ==  P·g_i·s' + e_i  (small error) — check the
        // identity holds modulo p_i where g_i ≡ 1: value ≈ P·s'.
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(10);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let s_prime = sk.poly().dyadic_mul(sk.poly()).unwrap(); // s²
        let ksk = KeySwitchKey::generate(&ctx, &s_prime, &sk, &mut rng);
        let k = ctx.params().k();
        let p_sp = ctx.special_modulus().value();
        for i in 0..k {
            let (b, a) = ksk.component(i);
            let lhs = b.add(&a.dyadic_mul(sk.poly()).unwrap()).unwrap();
            // In residue i: lhs ≈ P·s' (mod p_i) up to small error.
            let m = ctx.moduli()[i];
            let mut diff = RnsPoly::zero(ctx.n(), &[m], Representation::Ntt);
            let s_res = s_prime.residue(i);
            for (j, d) in diff.residue_mut(0).iter_mut().enumerate() {
                let expect = m.mul_mod(m.reduce_u64(p_sp), s_res[j]);
                *d = m.sub_mod(lhs.residue(i)[j], expect);
            }
            let table = [ctx.ntt_table(i).clone()];
            diff.ntt_inverse(&table).unwrap();
            for &c in diff.residue(0) {
                let centered = if c > m.value() / 2 {
                    c as i64 - m.value() as i64
                } else {
                    c as i64
                };
                assert!(centered.abs() <= 21, "ksk error too large: {centered}");
            }
        }
    }

    #[test]
    fn galois_keys_lookup() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(11);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let gk = GaloisKeys::generate_with_conjugate(&ctx, &sk, &[1, -2], &mut rng);
        let e1 = galois_elt_from_step(1, ctx.n());
        assert!(gk.key(e1).is_ok());
        assert!(gk.permutation(e1).is_ok());
        assert!(gk.key(galois_elt_conjugate(ctx.n())).is_ok());
        assert!(matches!(
            gk.key(999_999),
            Err(CkksError::MissingGaloisKey { .. })
        ));
        assert!(gk.elements().count() >= 3);
    }

    #[test]
    fn restrict_poly_picks_indices() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(12);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let r = sk.restricted(&[0, 2]);
        assert_eq!(r.num_residues(), 2);
        assert_eq!(r.residue(0), sk.poly().residue(0));
        assert_eq!(r.residue(1), sk.poly().residue(2));
    }
}
