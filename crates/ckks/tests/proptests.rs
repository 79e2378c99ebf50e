//! Property tests for the CKKS scheme: homomorphism laws, rotation
//! composition, serialization robustness.

use heax_ckks::serialize::{deserialize_ciphertext, serialize_ciphertext};
use heax_ckks::{
    CkksContext, CkksEncoder, CkksParams, Decryptor, Encryptor, Evaluator, GaloisKeys, PublicKey,
    RelinKey, SecretKey,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod support;

fn ctx() -> CkksContext {
    let chain = heax_math::primes::generate_prime_chain(&[40, 40, 40, 41], 64).unwrap();
    CkksContext::new(CkksParams::new(64, chain, (1u64 << 32) as f64).unwrap()).unwrap()
}

struct Rig {
    ctx: CkksContext,
    sk: SecretKey,
    pk: PublicKey,
    rng: StdRng,
}

fn rig(seed: u64) -> Rig {
    let ctx = ctx();
    let mut rng = StdRng::seed_from_u64(seed);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let pk = PublicKey::generate(&ctx, &sk, &mut rng);
    Rig { ctx, sk, pk, rng }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Homomorphism: Dec(Enc(x) + Enc(y)·Enc(z) relinearized) ≈ x + y·z.
    #[test]
    fn fused_add_mul_homomorphism(
        x in -5.0f64..5.0,
        y in -5.0f64..5.0,
        z in -5.0f64..5.0,
        seed in any::<u64>(),
    ) {
        let mut r = rig(seed);
        let rlk = RelinKey::generate(&r.ctx, &r.sk, &mut r.rng);
        let enc = CkksEncoder::new(&r.ctx);
        let eval = Evaluator::new(&r.ctx);
        let scale = r.ctx.params().scale();
        let top = r.ctx.max_level();
        let e = Encryptor::new(&r.ctx, &r.pk);
        let cy = e.encrypt(&enc.encode_real(&[y], scale, top).unwrap(), &mut r.rng).unwrap();
        let cz = e.encrypt(&enc.encode_real(&[z], scale, top).unwrap(), &mut r.rng).unwrap();
        let yz = eval.multiply_relin(&cy, &cz, &rlk).unwrap();
        // Match x's scale to the (unrescaled) product scale by re-encoding.
        let cx2 = e.encrypt(&enc.encode_real(&[x], yz.scale(), top).unwrap(), &mut r.rng).unwrap();
        let total = eval.add(&cx2, &yz).unwrap();
        let dec = Decryptor::new(&r.ctx, &r.sk);
        let got = enc.decode_real(&dec.decrypt(&total).unwrap()).unwrap()[0];
        prop_assert!((got - (x + y * z)).abs() < 0.05, "{got} vs {}", x + y * z);
    }

    /// Rotation composition: rotate(rotate(x, a), b) == rotate(x, a+b).
    #[test]
    fn rotation_composes(
        a in 1i64..8,
        b in 1i64..8,
        seed in any::<u64>(),
    ) {
        let mut r = rig(seed);
        let gks = GaloisKeys::generate(&r.ctx, &r.sk, &[a, b, a + b], &mut r.rng);
        let enc = CkksEncoder::new(&r.ctx);
        let eval = Evaluator::new(&r.ctx);
        let slots = r.ctx.n() / 2;
        let vals: Vec<f64> = (0..slots).map(|i| i as f64 * 0.25).collect();
        let ct = Encryptor::new(&r.ctx, &r.pk)
            .encrypt(
                &enc.encode_real(&vals, r.ctx.params().scale(), r.ctx.max_level()).unwrap(),
                &mut r.rng,
            )
            .unwrap();
        let two_step = eval.rotate(&eval.rotate(&ct, a, &gks).unwrap(), b, &gks).unwrap();
        let one_step = eval.rotate(&ct, a + b, &gks).unwrap();
        let dec = Decryptor::new(&r.ctx, &r.sk);
        let va = enc.decode_real(&dec.decrypt(&two_step).unwrap()).unwrap();
        let vb = enc.decode_real(&dec.decrypt(&one_step).unwrap()).unwrap();
        for j in 0..slots {
            prop_assert!((va[j] - vb[j]).abs() < 0.05, "slot {j}");
            let src = (j as i64 + a + b).rem_euclid(slots as i64) as usize;
            prop_assert!((vb[j] - vals[src]).abs() < 0.05, "slot {j} value");
        }
    }

    /// Serialization round-trips arbitrary encrypted vectors exactly.
    #[test]
    fn serialization_roundtrip(
        vals in prop::collection::vec(-100.0f64..100.0, 1..16),
        seed in any::<u64>(),
    ) {
        let mut r = rig(seed);
        let enc = CkksEncoder::new(&r.ctx);
        let ct = Encryptor::new(&r.ctx, &r.pk)
            .encrypt(
                &enc.encode_real(&vals, r.ctx.params().scale(), r.ctx.max_level()).unwrap(),
                &mut r.rng,
            )
            .unwrap();
        let bytes = serialize_ciphertext(&ct);
        let back = deserialize_ciphertext(&bytes, &r.ctx).unwrap();
        prop_assert_eq!(&back, &ct);
    }

    /// Random byte mutations never panic and are (almost always) rejected;
    /// when accepted they still deserialize into a structurally valid
    /// ciphertext.
    #[test]
    fn serialization_fuzz_no_panic(
        flip_at in 0usize..5000,
        flip_val in 1u8..=255,
        seed in any::<u64>(),
    ) {
        let mut r = rig(seed);
        let enc = CkksEncoder::new(&r.ctx);
        let ct = Encryptor::new(&r.ctx, &r.pk)
            .encrypt(
                &enc.encode_real(&[1.0], r.ctx.params().scale(), r.ctx.max_level()).unwrap(),
                &mut r.rng,
            )
            .unwrap();
        let mut bytes = serialize_ciphertext(&ct);
        let idx = flip_at % bytes.len();
        bytes[idx] ^= flip_val;
        if let Ok(parsed) = deserialize_ciphertext(&bytes, &r.ctx) {
            // Accepted mutations must still satisfy every invariant.
            parsed.validate(&r.ctx).unwrap();
        }
    }
}

/// Key-switch fast-path properties: the production skeleton (lazy
/// transforms, double-width DyadMult, lane or scalar) must be
/// bit-identical to the Barrett oracle (`support`) on every backend, and
/// hoisted multi-rotation must match its own oracle bit for bit and
/// decrypt to the same slot values as sequential rotations.
mod keyswitch_overhaul {
    use super::*;
    use heax_math::exec::with_threads;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The key switch is bit-identical to the seed Barrett reference
        /// at every level, under both the sequential backend and a
        /// 4-lane pool (the two `HEAX_THREADS` configurations CI
        /// smoke-tests).
        #[test]
        fn key_switch_bit_identical_to_barrett(
            seed in any::<u64>(),
            threads in prop::sample::select(vec![1usize, 4]),
        ) {
            let mut r = rig(seed);
            let rlk = RelinKey::generate(&r.ctx, &r.sk, &mut r.rng);
            let enc = CkksEncoder::new(&r.ctx);
            let scale = r.ctx.params().scale();
            let e = Encryptor::new(&r.ctx, &r.pk);
            let ca = e
                .encrypt(&enc.encode_real(&[1.25, -0.75], scale, r.ctx.max_level()).unwrap(), &mut r.rng)
                .unwrap();
            let eval = Evaluator::with_executor(&r.ctx, with_threads(threads));
            let prod = eval.multiply(&ca, &ca).unwrap();
            for level in [prod.level(), 1, 0] {
                let target = if level == prod.level() {
                    prod.component(2).clone()
                } else {
                    // Restrict the target to a lower level to cover the
                    // non-top bases too.
                    let mut t = prod.component(2).clone();
                    while t.num_residues() > level + 1 {
                        t.pop_residue();
                    }
                    t
                };
                let (f0, f1) = eval.key_switch(&target, rlk.ksk(), level).unwrap();
                let (g0, g1) = support::barrett_key_switch(&r.ctx, &target, rlk.ksk(), level);
                prop_assert_eq!(&f0, &g0, "f0 diverged at level={} threads={}", level, threads);
                prop_assert_eq!(&f1, &g1, "f1 diverged at level={} threads={}", level, threads);
            }
        }

        /// `rotate_many(steps)` decrypts identically (slot-wise, within
        /// encoder tolerance) to sequential `rotate` per step, and is
        /// bit-identical across the sequential and 4-lane backends and
        /// to the naive per-step hoisted oracle.
        #[test]
        fn rotate_many_matches_sequential_rotations(
            steps in prop::collection::vec(-7i64..8, 1..5),
            seed in any::<u64>(),
        ) {
            let mut r = rig(seed);
            let gks = GaloisKeys::generate(&r.ctx, &r.sk, &steps, &mut r.rng);
            let enc = CkksEncoder::new(&r.ctx);
            let slots = r.ctx.n() / 2;
            let vals: Vec<f64> = (0..slots).map(|i| i as f64 * 0.125 - 2.0).collect();
            let ct = Encryptor::new(&r.ctx, &r.pk)
                .encrypt(
                    &enc.encode_real(&vals, r.ctx.params().scale(), r.ctx.max_level()).unwrap(),
                    &mut r.rng,
                )
                .unwrap();
            let seq_eval = Evaluator::with_executor(&r.ctx, with_threads(1));
            let par_eval = Evaluator::with_executor(&r.ctx, with_threads(4));
            let hoisted = seq_eval.rotate_many(&ct, &steps, &gks).unwrap();
            let hoisted_par = par_eval.rotate_many(&ct, &steps, &gks).unwrap();
            prop_assert_eq!(hoisted.len(), steps.len());
            // Bit-identical to the naive Barrett hoisting oracle, at the
            // top level and one below it.
            prop_assert_eq!(&hoisted, &support::barrett_rotate_many(&r.ctx, &ct, &steps, &gks));
            let lower = seq_eval.mod_switch_to_next(&ct).unwrap();
            prop_assert_eq!(
                &seq_eval.rotate_many(&lower, &steps, &gks).unwrap(),
                &support::barrett_rotate_many(&r.ctx, &lower, &steps, &gks)
            );
            let dec = Decryptor::new(&r.ctx, &r.sk);
            for ((h, hp), &step) in hoisted.iter().zip(&hoisted_par).zip(&steps) {
                prop_assert_eq!(h, hp, "hoisted rotation diverged across backends");
                let sequential = seq_eval.rotate(&ct, step, &gks).unwrap();
                let vh = enc.decode_real(&dec.decrypt(h).unwrap()).unwrap();
                let vs = enc.decode_real(&dec.decrypt(&sequential).unwrap()).unwrap();
                for j in 0..slots {
                    prop_assert!(
                        (vh[j] - vs[j]).abs() < 0.05,
                        "step {} slot {}: hoisted {} vs sequential {}", step, j, vh[j], vs[j]
                    );
                    let src = (j as i64 + step).rem_euclid(slots as i64) as usize;
                    prop_assert!(
                        (vh[j] - vals[src]).abs() < 0.05,
                        "step {} slot {} wrong value", step, j
                    );
                }
            }
        }
    }
}

/// PR 7 seeded wire path (PROTOCOL.md §4.4): a seeded fresh encryption
/// must survive the wire byte-for-byte, expand identically on both
/// ends, travel through the tag-dispatching operand decoder, and
/// decrypt to the same values as its unseeded symmetric twin.
mod seeded_wire_path {
    use super::*;
    use heax_ckks::encrypt_symmetric_seeded;
    use heax_ckks::serialize::{deserialize_operand, serialize_seeded_ciphertext};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn seeded_roundtrip_expands_and_decrypts_identically(
            vals in prop::collection::vec(-50.0f64..50.0, 1..16),
            seed in any::<u64>(),
        ) {
            let mut r = rig(seed);
            let enc = CkksEncoder::new(&r.ctx);
            let pt = enc
                .encode_real(&vals, r.ctx.params().scale(), r.ctx.max_level())
                .unwrap();
            let seeded = encrypt_symmetric_seeded(&r.ctx, &r.sk, &pt, &mut r.rng).unwrap();
            let sender_side = seeded.expand(&r.ctx).unwrap();

            // Wire trip through the operand decoder: the receiver's
            // expansion must be bit-identical to the sender's.
            let bytes = serialize_seeded_ciphertext(&seeded);
            let (receiver_side, was_seeded) = deserialize_operand(&bytes, &r.ctx).unwrap();
            prop_assert!(was_seeded);
            prop_assert_eq!(&receiver_side, &sender_side);

            // And it decrypts to the encoded values, like an unseeded
            // symmetric encryption of the same plaintext does.
            let dec = Decryptor::new(&r.ctx, &r.sk);
            let got = enc.decode_real(&dec.decrypt(&receiver_side).unwrap()).unwrap();
            let unseeded = heax_ckks::encrypt_symmetric(&r.ctx, &r.sk, &pt, &mut r.rng).unwrap();
            let via_unseeded = enc.decode_real(&dec.decrypt(&unseeded).unwrap()).unwrap();
            for (j, &v) in vals.iter().enumerate() {
                prop_assert!((got[j] - v).abs() < 0.05, "slot {} seeded: {} vs {}", j, got[j], v);
                prop_assert!(
                    (got[j] - via_unseeded[j]).abs() < 0.1,
                    "slot {} seeded vs unseeded drifted", j
                );
            }
        }

        /// The operand decoder's zero-copy full-ciphertext path agrees
        /// with the classic owned decoder on arbitrary encrypted data.
        #[test]
        fn operand_view_path_matches_owned_decoder(
            vals in prop::collection::vec(-50.0f64..50.0, 1..16),
            seed in any::<u64>(),
        ) {
            let mut r = rig(seed);
            let enc = CkksEncoder::new(&r.ctx);
            let ct = Encryptor::new(&r.ctx, &r.pk)
                .encrypt(
                    &enc.encode_real(&vals, r.ctx.params().scale(), r.ctx.max_level()).unwrap(),
                    &mut r.rng,
                )
                .unwrap();
            let bytes = serialize_ciphertext(&ct);
            let (via_view, was_seeded) = deserialize_operand(&bytes, &r.ctx).unwrap();
            prop_assert!(!was_seeded);
            prop_assert_eq!(&via_view, &deserialize_ciphertext(&bytes, &r.ctx).unwrap());
            prop_assert_eq!(&via_view, &ct);
        }
    }
}

/// Backend equivalence at the scheme layer: an evaluator pinned to
/// `ThreadPool(k)` must produce bit-identical ciphertexts to the
/// `Sequential` backend for the full multiply / key-switch / relinearize
/// / rescale pipeline, for k ∈ {1, 2, 4}.
mod backend_equivalence {
    use super::*;
    use heax_math::exec::{with_threads, Sequential};
    use std::sync::Arc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn key_switch_pipeline_pool_matches_sequential(
            seed in any::<u64>(),
            k in prop::sample::select(vec![1usize, 2, 4]),
        ) {
            let mut r = rig(seed);
            let rlk = RelinKey::generate(&r.ctx, &r.sk, &mut r.rng);
            let enc = CkksEncoder::new(&r.ctx);
            let scale = r.ctx.params().scale();
            let encryptor = Encryptor::new(&r.ctx, &r.pk);
            let ca = encryptor
                .encrypt(&enc.encode_real(&[1.5, -2.25], scale, r.ctx.max_level()).unwrap(), &mut r.rng)
                .unwrap();
            let cb = encryptor
                .encrypt(&enc.encode_real(&[0.5, 3.0], scale, r.ctx.max_level()).unwrap(), &mut r.rng)
                .unwrap();

            let seq = Evaluator::with_executor(&r.ctx, Arc::new(Sequential));
            let par = Evaluator::with_executor(&r.ctx, with_threads(k));

            // Multiply (dyadic accumulate over limbs).
            let prod_seq = seq.multiply(&ca, &cb).unwrap();
            let prod_par = par.multiply(&ca, &cb).unwrap();
            prop_assert_eq!(&prod_seq, &prod_par, "multiply diverged at k={}", k);

            // The inner key-switch primitive.
            let (f0s, f1s) = seq
                .key_switch(prod_seq.component(2), rlk.ksk(), prod_seq.level())
                .unwrap();
            let (f0p, f1p) = par
                .key_switch(prod_par.component(2), rlk.ksk(), prod_par.level())
                .unwrap();
            prop_assert_eq!(&f0s, &f0p, "key_switch f0 diverged at k={}", k);
            prop_assert_eq!(&f1s, &f1p, "key_switch f1 diverged at k={}", k);

            // Relinearize + rescale (exercises flooring through the pool).
            let lin_seq = seq.rescale(&seq.relinearize(&prod_seq, &rlk).unwrap()).unwrap();
            let lin_par = par.rescale(&par.relinearize(&prod_par, &rlk).unwrap()).unwrap();
            prop_assert_eq!(&lin_seq, &lin_par, "relin+rescale diverged at k={}", k);
        }
    }
}
