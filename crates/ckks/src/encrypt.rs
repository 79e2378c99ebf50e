//! Encryption and decryption (client-side operations).
//!
//! Public-key encryption follows `CKKS.Enc` of the paper exactly: compute
//! `(c'_0, c'_1) = u·(b, a) + (e_0, e_1) (mod qp)` over the chain extended
//! by the special prime, then floor by the special prime and add the
//! message — the flooring shrinks the fresh encryption noise by a factor
//! `p`.

use heax_math::exec;
use heax_math::poly::{Representation, RnsPoly};
use heax_math::sampling::{
    expand_uniform, sample_error, sample_ternary, sample_uniform, EXPAND_SEED_LEN,
};
use rand::Rng;

use crate::ciphertext::{Ciphertext, Plaintext, SeededCiphertext};
use crate::context::CkksContext;
use crate::flooring::floor_into;
use crate::keys::{restrict_poly, PublicKey, SecretKey};
use crate::keyswitch::TableNtt;
use crate::CkksError;

/// Public-key encryptor.
#[derive(Clone, Debug)]
pub struct Encryptor<'a> {
    ctx: &'a CkksContext,
    pk: &'a PublicKey,
}

impl<'a> Encryptor<'a> {
    /// Creates an encryptor.
    pub fn new(ctx: &'a CkksContext, pk: &'a PublicKey) -> Self {
        Self { ctx, pk }
    }

    /// `CKKS.Enc(m, pk)` at the plaintext's level.
    ///
    /// # Errors
    ///
    /// Propagates arithmetic failures (none for well-formed inputs).
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        pt: &Plaintext,
        rng: &mut R,
    ) -> Result<Ciphertext, CkksError> {
        let ctx = self.ctx;
        let level = pt.level;
        let k = ctx.params().k();
        // Extended modulus indices: active primes + special prime.
        let mut ext: Vec<usize> = (0..=level).collect();
        ext.push(k);
        let ext_moduli: Vec<_> = ext.iter().map(|&i| ctx.moduli()[i]).collect();
        let ext_tables: Vec<_> = ext.iter().map(|&i| ctx.ntt_tables()[i].clone()).collect();

        // u ← χ (ternary), e_0, e_1 ← Ω, all lifted to NTT form.
        let mut u = sample_ternary(rng, ctx.n(), &ext_moduli);
        u.ntt_forward(&ext_tables)?;
        let mut e0 = sample_error(rng, ctx.n(), &ext_moduli);
        e0.ntt_forward(&ext_tables)?;
        let mut e1 = sample_error(rng, ctx.n(), &ext_moduli);
        e1.ntt_forward(&ext_tables)?;

        // (c'_0, c'_1) = u·(b, a) + (e_0, e_1) over qp.
        let pk_b = restrict_poly(&self.pk.b, &ext);
        let pk_a = restrict_poly(&self.pk.a, &ext);
        let mut c0 = u.dyadic_mul(&pk_b)?;
        c0.add_assign(&e0)?;
        let mut c1 = u.dyadic_mul(&pk_a)?;
        c1.add_assign(&e1)?;

        // ct = (m, 0) + ⌊(c'_0, c'_1)/p⌋ ∈ R_q², each special residue the
        // floor's scratch. The outputs are fresh allocations: a fresh
        // ciphertext often lives long, and the recycler's best fit would
        // hand it one of the larger extended-basis buffers to pin.
        let (n, exec) = (ctx.n(), exec::global().as_ref());
        let mut polys = Vec::with_capacity(2);
        for mut c in [c0, c1] {
            let mut out = RnsPoly::zero(n, ctx.level_moduli(level), Representation::Ntt);
            let (kept, dropped) = c.data_mut().split_at_mut((level + 1) * n);
            floor_into(ctx, exec, &TableNtt, k, kept, dropped, None, &mut out)?;
            polys.push(out);
        }
        polys[0].add_assign(&pt.poly)?;
        Ciphertext::from_parts(polys, level, pt.scale)
    }

    /// Encrypts the zero plaintext at a level and scale (useful for tests
    /// and for randomizing ciphertexts).
    ///
    /// # Errors
    ///
    /// Same as [`Encryptor::encrypt`].
    pub fn encrypt_zero<R: Rng + ?Sized>(
        &self,
        level: usize,
        scale: f64,
        rng: &mut R,
    ) -> Result<Ciphertext, CkksError> {
        let zero = Plaintext::from_parts(
            RnsPoly::zero(
                self.ctx.n(),
                self.ctx.level_moduli(level),
                Representation::Ntt,
            ),
            level,
            scale,
        );
        self.encrypt(&zero, rng)
    }
}

/// Symmetric-key encryption (`SymEnc` of the paper): `b = -a·s + e + m`
/// directly over the active basis. No special-prime flooring is involved.
///
/// # Errors
///
/// Propagates arithmetic failures (none for well-formed inputs).
pub fn encrypt_symmetric<R: Rng + ?Sized>(
    ctx: &CkksContext,
    sk: &SecretKey,
    pt: &Plaintext,
    rng: &mut R,
) -> Result<Ciphertext, CkksError> {
    let level = pt.level;
    let moduli = ctx.level_moduli(level);
    let indices: Vec<usize> = (0..=level).collect();
    let s = sk.restricted(&indices);

    let a = sample_uniform(rng, ctx.n(), moduli, Representation::Ntt);
    let mut e = sample_error(rng, ctx.n(), moduli);
    e.ntt_forward(ctx.ntt_tables())?;

    let mut b = a.dyadic_mul(&s)?.neg(exec::global().as_ref());
    b.add_assign(&e)?;
    b.add_assign(&pt.poly)?;
    Ciphertext::from_parts(vec![b, a], level, pt.scale)
}

/// Symmetric-key encryption in seeded form: ships a 32-byte seed in place
/// of the uniform `a` component, roughly halving the bytes of a fresh
/// encryption on the wire.
///
/// `a = expand(seed)` is derived deterministically
/// ([`heax_math::sampling::expand_uniform`]), then `b = -a·s + e + m`
/// exactly as in [`encrypt_symmetric`] — so
/// [`SeededCiphertext::expand`] on the receiver reconstructs a ciphertext
/// that decrypts identically to the unseeded path. The caller's `rng`
/// supplies both the seed and the (non-transmitted) error polynomial.
///
/// # Errors
///
/// Propagates arithmetic failures (none for well-formed inputs).
pub fn encrypt_symmetric_seeded<R: Rng + ?Sized>(
    ctx: &CkksContext,
    sk: &SecretKey,
    pt: &Plaintext,
    rng: &mut R,
) -> Result<SeededCiphertext, CkksError> {
    let level = pt.level;
    let moduli = ctx.level_moduli(level);
    let indices: Vec<usize> = (0..=level).collect();
    let s = sk.restricted(&indices);

    let mut seed = [0u8; EXPAND_SEED_LEN];
    rng.fill_bytes(&mut seed);
    let a = expand_uniform(&seed, ctx.n(), moduli, Representation::Ntt);
    let mut e = sample_error(rng, ctx.n(), moduli);
    e.ntt_forward(ctx.ntt_tables())?;

    let mut b = a.dyadic_mul(&s)?.neg(exec::global().as_ref());
    b.add_assign(&e)?;
    b.add_assign(&pt.poly)?;
    SeededCiphertext::from_parts(b, seed, level, pt.scale)
}

/// Decryptor holding the secret key.
#[derive(Clone, Debug)]
pub struct Decryptor<'a> {
    ctx: &'a CkksContext,
    sk: &'a SecretKey,
}

impl<'a> Decryptor<'a> {
    /// Creates a decryptor.
    pub fn new(ctx: &'a CkksContext, sk: &'a SecretKey) -> Self {
        Self { ctx, sk }
    }

    /// `CKKS.Dec(ct, sk)`: computes `Σ_i c_i·s^i` over the active basis.
    /// Handles two- and three-component ciphertexts (and beyond).
    ///
    /// # Errors
    ///
    /// Propagates arithmetic failures (none for well-formed inputs).
    pub fn decrypt(&self, ct: &Ciphertext) -> Result<Plaintext, CkksError> {
        ct.validate(self.ctx)?;
        let indices: Vec<usize> = (0..=ct.level).collect();
        let s = self.sk.restricted(&indices);

        let mut acc = ct.polys[0].clone();
        let mut s_power = s.clone();
        for (i, c) in ct.polys.iter().enumerate().skip(1) {
            if i > 1 {
                s_power.dyadic_mul_assign(&s)?;
            }
            acc.dyadic_mul_acc(c, &s_power)?;
        }
        Ok(Plaintext::from_parts(acc, ct.level, ct.scale))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::tests::small;
    use crate::encoder::CkksEncoder;
    use crate::keys::PublicKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Setup {
        ctx: CkksContext,
        sk: SecretKey,
        pk: PublicKey,
    }

    fn setup(seed: u64) -> Setup {
        let ctx = CkksContext::new(small()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng);
        Setup { ctx, sk, pk }
    }

    #[test]
    fn public_key_encrypt_decrypt_roundtrip() {
        let s = setup(21);
        let mut rng = StdRng::seed_from_u64(22);
        let enc = CkksEncoder::new(&s.ctx);
        let vals = vec![1.0, -2.0, 3.25, 0.0, 100.0];
        let pt = enc
            .encode_real(&vals, s.ctx.params().scale(), s.ctx.max_level())
            .unwrap();
        let ct = Encryptor::new(&s.ctx, &s.pk)
            .encrypt(&pt, &mut rng)
            .unwrap();
        assert_eq!(ct.size(), 2);
        let dec = Decryptor::new(&s.ctx, &s.sk).decrypt(&ct).unwrap();
        let back = enc.decode_real(&dec).unwrap();
        for (got, want) in back.iter().zip(&vals) {
            assert!((got - want).abs() < 1e-2, "{got} vs {want}");
        }
    }

    #[test]
    fn symmetric_encrypt_decrypt_roundtrip() {
        let s = setup(23);
        let mut rng = StdRng::seed_from_u64(24);
        let enc = CkksEncoder::new(&s.ctx);
        let pt = enc
            .encode_real(&[7.5, -0.125], s.ctx.params().scale(), s.ctx.max_level())
            .unwrap();
        let ct = encrypt_symmetric(&s.ctx, &s.sk, &pt, &mut rng).unwrap();
        let dec = Decryptor::new(&s.ctx, &s.sk).decrypt(&ct).unwrap();
        let back = enc.decode_real(&dec).unwrap();
        assert!((back[0] - 7.5).abs() < 1e-2);
        assert!((back[1] + 0.125).abs() < 1e-2);
    }

    #[test]
    fn seeded_encrypt_expands_and_decrypts() {
        let s = setup(31);
        let mut rng = StdRng::seed_from_u64(32);
        let enc = CkksEncoder::new(&s.ctx);
        let pt = enc
            .encode_real(&[3.5, -1.25], s.ctx.params().scale(), s.ctx.max_level())
            .unwrap();
        let seeded = encrypt_symmetric_seeded(&s.ctx, &s.sk, &pt, &mut rng).unwrap();
        let ct = seeded.expand(&s.ctx).unwrap();
        assert_eq!(ct.size(), 2);
        // Expansion is deterministic.
        assert_eq!(ct, seeded.expand(&s.ctx).unwrap());
        let dec = Decryptor::new(&s.ctx, &s.sk).decrypt(&ct).unwrap();
        let back = enc.decode_real(&dec).unwrap();
        assert!((back[0] - 3.5).abs() < 1e-2);
        assert!((back[1] + 1.25).abs() < 1e-2);
    }

    #[test]
    fn encrypt_at_lower_level() {
        let s = setup(25);
        let mut rng = StdRng::seed_from_u64(26);
        let enc = CkksEncoder::new(&s.ctx);
        let pt = enc.encode_real(&[2.0], s.ctx.params().scale(), 0).unwrap();
        let ct = Encryptor::new(&s.ctx, &s.pk)
            .encrypt(&pt, &mut rng)
            .unwrap();
        assert_eq!(ct.level(), 0);
        assert_eq!(ct.component(0).num_residues(), 1);
        let dec = Decryptor::new(&s.ctx, &s.sk).decrypt(&ct).unwrap();
        let back = enc.decode_real(&dec).unwrap();
        assert!((back[0] - 2.0).abs() < 1e-2);
    }

    #[test]
    fn encrypt_zero_is_zero() {
        let s = setup(27);
        let mut rng = StdRng::seed_from_u64(28);
        let enc = CkksEncoder::new(&s.ctx);
        let ct = Encryptor::new(&s.ctx, &s.pk)
            .encrypt_zero(s.ctx.max_level(), s.ctx.params().scale(), &mut rng)
            .unwrap();
        let dec = Decryptor::new(&s.ctx, &s.sk).decrypt(&ct).unwrap();
        for v in enc.decode_real(&dec).unwrap() {
            assert!(v.abs() < 1e-2);
        }
    }

    #[test]
    fn ciphertexts_are_randomized() {
        let s = setup(29);
        let mut rng = StdRng::seed_from_u64(30);
        let enc = CkksEncoder::new(&s.ctx);
        let pt = enc
            .encode_real(&[1.0], s.ctx.params().scale(), s.ctx.max_level())
            .unwrap();
        let e = Encryptor::new(&s.ctx, &s.pk);
        let c1 = e.encrypt(&pt, &mut rng).unwrap();
        let c2 = e.encrypt(&pt, &mut rng).unwrap();
        assert_ne!(c1.component(1), c2.component(1));
    }
}
