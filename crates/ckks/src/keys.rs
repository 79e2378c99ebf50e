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

use heax_math::packed::{width_for, PackedRow, PackedRows};
use heax_math::poly::{Representation, RnsPoly};
use heax_math::sampling::{sample_error, sample_ternary, sample_uniform};
use heax_math::word::Modulus;
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
/// Every residue is stored once, **packed at the chain's width** —
/// `w = ⌈bits(p_max)/8⌉` bytes a word, `p_max` the widest prime (5 at
/// Set-A, 6 at Set-B, 7 at Set-C) — in one padded buffer, as HEAX sizes
/// its key memories to the moduli. The evaluator's DyadMult widens the
/// words in registers as it multiplies the digits into them, so
/// [`KeySwitchKey::resident_bytes`] is the whole footprint:
/// `d·2·(k+1)·n·w` bytes plus [`padding`](heax_math::packed::padding)`(w)`.
#[derive(Clone, Debug, PartialEq)]
pub struct KeySwitchKey {
    /// Row `(2i + c)·(k+1) + j` is residue `j` of component `c` of pair
    /// `i` (`c = 0` for `d_{0,i}`, 1 for `d_{1,i}`), NTT form.
    rows: PackedRows,
    /// The chain's modulus values, which the wire format repeats per
    /// component.
    chain: Box<[u64]>,
}

/// One component polynomial of a [`KeySwitchKey`], borrowed packed.
#[derive(Clone, Copy, Debug)]
pub struct KeyPoly<'a> {
    rows: &'a PackedRows,
    first: usize,
    chain: &'a [u64],
}

impl<'a> KeyPoly<'a> {
    /// Residue `j` (chain index; the special prime is last).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[inline]
    pub fn residue(&self, j: usize) -> PackedRow<'a> {
        assert!(j < self.chain.len(), "residue out of range");
        self.rows.row(self.first + j)
    }

    /// Number of residues: the whole chain.
    #[inline]
    pub fn num_residues(&self) -> usize {
        self.chain.len()
    }

    /// The chain's modulus values.
    #[inline]
    pub fn moduli(&self) -> &'a [u64] {
        self.chain
    }
}

impl KeySwitchKey {
    /// A zero key of `d` component pairs over `ctx`'s chain, packed at the
    /// chain's width.
    pub(crate) fn zeroed(ctx: &CkksContext, d: usize) -> Self {
        let chain: Box<[u64]> = ctx.moduli().iter().map(Modulus::value).collect();
        let bits = ctx.moduli().iter().map(Modulus::bits).max().unwrap_or(1);
        Self {
            rows: PackedRows::zeroed(width_for(bits), 2 * d * chain.len(), ctx.n()),
            chain,
        }
    }

    /// The packed rows behind the key, for the codec.
    pub(crate) fn rows_mut(&mut self) -> &mut PackedRows {
        &mut self.rows
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
        let residues = ctx.moduli().len();
        let mut key = Self::zeroed(ctx, d);
        for i in 0..d {
            // (b_i, a_i) = SymEnc(0, s) over the full chain…
            let (mut b_i, a_i) = sym_enc_zero(ctx, sk, rng);
            // …then add P·g_i·s' to b_i. factor(i, j) is already in RNS per
            // chain modulus (special prime at index k).
            for (j, m) in ctx.moduli().iter().enumerate() {
                let gadget_j = gadget.factor(i, j.min(d));
                let s_res = s_prime.residue(j);
                let dst = b_i.residue_mut(j);
                for (dstc, &sc) in dst.iter_mut().zip(s_res) {
                    *dstc = m.add_mod(*dstc, m.mul_mod(m.reduce_u64(gadget_j), sc));
                }
            }
            for (c, poly) in [b_i, a_i].iter().enumerate() {
                for j in 0..residues {
                    key.rows
                        .set_row((2 * i + c) * residues + j, poly.residue(j));
                }
            }
        }
        key
    }

    /// Number of decomposition components (`d = k`).
    #[inline]
    pub fn decomp_len(&self) -> usize {
        self.rows.rows() / (2 * self.chain.len())
    }

    /// Component `i` as `(d_{0,i}, d_{1,i})`, borrowed packed.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn component(&self, i: usize) -> (KeyPoly<'_>, KeyPoly<'_>) {
        assert!(i < self.decomp_len(), "component out of range");
        let poly = |c: usize| KeyPoly {
            rows: &self.rows,
            first: (2 * i + c) * self.chain.len(),
            chain: &self.chain,
        };
        (poly(0), poly(1))
    }

    /// Bytes of key material held: `d·2·(k+1)·n·w + padding(w)`, `w` the
    /// chain's packed width (the DRAM-bandwidth model of §5.1 streams the
    /// same words).
    pub fn resident_bytes(&self) -> usize {
        self.rows.resident_bytes()
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
    pub(crate) permutations: HashMap<usize, Vec<u32>>,
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
    pub fn permutation(&self, elt: usize) -> Result<&[u32], CkksError> {
        self.permutations
            .get(&elt)
            .map(Vec::as_slice)
            .ok_or(CkksError::MissingGaloisKey { galois_elt: elt })
    }

    /// Galois elements with generated keys.
    pub fn elements(&self) -> impl Iterator<Item = usize> + '_ {
        self.keys.keys().copied()
    }

    /// Bytes of keys and permutation tables held: per element, the key's
    /// [`KeySwitchKey::resident_bytes`] plus `4n` for its table.
    pub fn resident_bytes(&self) -> usize {
        let keys: usize = self.keys.values().map(KeySwitchKey::resident_bytes).sum();
        let tables: usize = self.permutations.values().map(|t| 4 * t.len()).sum();
        keys + tables
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
    use crate::params::{CkksParams, ParamSet};
    use heax_math::packed::{padding, width_for};
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

    /// A packed key polynomial as the plain polynomial it encodes.
    fn unpack(ctx: &CkksContext, poly: KeyPoly<'_>) -> RnsPoly {
        let mut out = RnsPoly::zero(ctx.n(), ctx.moduli(), Representation::Ntt);
        for j in 0..poly.num_residues() {
            poly.residue(j).unpack_into(0, out.residue_mut(j));
        }
        out
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
        assert_eq!(b.residue(0).len(), ctx.n());
        // Size: d * 2 * (k+1) * n words at the chain's width, then the
        // padding.
        let k = ctx.params().k();
        let w = width_for(ctx.moduli().iter().map(|m| m.bits()).max().unwrap());
        let words = k * 2 * (k + 1) * ctx.n();
        assert_eq!(rlk.ksk().resident_bytes(), words * w + padding(w));
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
            let (b, a) = (unpack(&ctx, b), unpack(&ctx, a));
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

    /// Resident key memory as a formula: at every paper set a
    /// key-switching key holds `k·2·(k+1)·n·w` bytes plus the padding, `w`
    /// the chain's width (5, 6 and 7 bytes at Set-A, B and C), and a
    /// Galois key set of `t` steps holds `t` keys and `t` permutation
    /// tables of four bytes a slot.
    #[test]
    fn resident_bytes_is_the_formula_at_every_paper_set() {
        for (set, w) in ParamSet::ALL.into_iter().zip([5, 6, 7]) {
            let ctx = CkksContext::new(CkksParams::from_set(set).unwrap()).unwrap();
            let (n, k) = (ctx.n(), ctx.params().k());
            let mut rng = StdRng::seed_from_u64(0x2E5 + n as u64);
            let sk = SecretKey::generate(&ctx, &mut rng);
            let rlk = RelinKey::generate(&ctx, &sk, &mut rng);
            let key = k * 2 * (k + 1) * n * w + padding(w);
            assert_eq!(rlk.ksk().resident_bytes(), key, "{set}");
            let steps = [1, -1];
            let gks = GaloisKeys::generate(&ctx, &sk, &steps, &mut rng);
            assert_eq!(gks.resident_bytes(), steps.len() * (key + 4 * n), "{set}");
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
