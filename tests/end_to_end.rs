//! End-to-end integration: the full client/server workflow on the paper's
//! real parameter sets, spanning heax-math → heax-ckks → heax-hw →
//! heax-core.

use heax::ckks::{
    CkksContext, CkksEncoder, CkksParams, Decryptor, Encryptor, Evaluator, GaloisKeys, ParamSet,
    PublicKey, RelinKey, SecretKey,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Session {
    ctx: CkksContext,
    sk: SecretKey,
    pk: PublicKey,
    rlk: RelinKey,
    rng: StdRng,
}

fn session(set: ParamSet, seed: u64) -> Session {
    let ctx = CkksContext::new(CkksParams::from_set(set).unwrap()).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let pk = PublicKey::generate(&ctx, &sk, &mut rng);
    let rlk = RelinKey::generate(&ctx, &sk, &mut rng);
    Session {
        ctx,
        sk,
        pk,
        rlk,
        rng,
    }
}

fn roundtrip_tolerance(set: ParamSet) -> f64 {
    match set {
        ParamSet::SetA => 1e-2, // scale 2^30
        _ => 1e-4,              // scale 2^40
    }
}

#[test]
fn set_a_full_workflow() {
    full_workflow(ParamSet::SetA, 1);
}

#[test]
fn set_b_full_workflow() {
    full_workflow(ParamSet::SetB, 2);
}

#[test]
fn set_c_full_workflow() {
    full_workflow(ParamSet::SetC, 3);
}

fn full_workflow(set: ParamSet, seed: u64) {
    let mut s = session(set, seed);
    let tol = roundtrip_tolerance(set);
    let enc = CkksEncoder::new(&s.ctx);
    let eval = Evaluator::new(&s.ctx);
    let scale = s.ctx.params().scale();
    let top = s.ctx.max_level();

    let xs = [1.25, -0.5, 3.0, 0.0, 2.5];
    let ys = [2.0, 4.0, -1.0, 7.0, 0.5];
    let ct_x = Encryptor::new(&s.ctx, &s.pk)
        .encrypt(&enc.encode_real(&xs, scale, top).unwrap(), &mut s.rng)
        .unwrap();
    let ct_y = Encryptor::new(&s.ctx, &s.pk)
        .encrypt(&enc.encode_real(&ys, scale, top).unwrap(), &mut s.rng)
        .unwrap();

    // Add.
    let dec = Decryptor::new(&s.ctx, &s.sk);
    let sum = eval.add(&ct_x, &ct_y).unwrap();
    let got = enc.decode_real(&dec.decrypt(&sum).unwrap()).unwrap();
    for (i, (&x, &y)) in xs.iter().zip(&ys).enumerate() {
        assert!((got[i] - (x + y)).abs() < tol, "add slot {i}: {}", got[i]);
    }

    // Multiply + relinearize + rescale.
    let prod = eval
        .rescale(&eval.multiply_relin(&ct_x, &ct_y, &s.rlk).unwrap())
        .unwrap();
    assert_eq!(prod.level(), top - 1);
    let got = enc.decode_real(&dec.decrypt(&prod).unwrap()).unwrap();
    for (i, (&x, &y)) in xs.iter().zip(&ys).enumerate() {
        let want = x * y;
        assert!(
            (got[i] - want).abs() < tol * 10.0,
            "mul slot {i}: {} vs {want}",
            got[i]
        );
    }
}

#[test]
fn set_a_rotation_and_conjugation() {
    let mut s = session(ParamSet::SetA, 4);
    let enc = CkksEncoder::new(&s.ctx);
    let eval = Evaluator::new(&s.ctx);
    let scale = s.ctx.params().scale();
    let slots = s.ctx.n() / 2;
    let vals: Vec<f64> = (0..slots).map(|i| (i % 97) as f64).collect();
    let ct = Encryptor::new(&s.ctx, &s.pk)
        .encrypt(
            &enc.encode_real(&vals, scale, s.ctx.max_level()).unwrap(),
            &mut s.rng,
        )
        .unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let gks = GaloisKeys::generate_with_conjugate(&s.ctx, &s.sk, &[1, 16, -3], &mut rng);
    let dec = Decryptor::new(&s.ctx, &s.sk);
    for step in [1i64, 16, -3] {
        let rot = eval.rotate(&ct, step, &gks).unwrap();
        let got = enc.decode_real(&dec.decrypt(&rot).unwrap()).unwrap();
        for j in (0..slots).step_by(997) {
            let src = (j as i64 + step).rem_euclid(slots as i64) as usize;
            assert!(
                (got[j] - vals[src]).abs() < 1e-1,
                "step {step} slot {j}: {} vs {}",
                got[j],
                vals[src]
            );
        }
    }
    let conj = eval.conjugate(&ct, &gks).unwrap();
    let got = enc.decode(&dec.decrypt(&conj).unwrap()).unwrap();
    assert!((got[1].re - vals[1]).abs() < 1e-1);
    assert!(got[1].im.abs() < 1e-1);
}

#[test]
fn set_a_depth_exhaustion_is_an_error() {
    let mut s = session(ParamSet::SetA, 6);
    let enc = CkksEncoder::new(&s.ctx);
    let eval = Evaluator::new(&s.ctx);
    let scale = s.ctx.params().scale();
    let ct = Encryptor::new(&s.ctx, &s.pk)
        .encrypt(
            &enc.encode_real(&[2.0], scale, s.ctx.max_level()).unwrap(),
            &mut s.rng,
        )
        .unwrap();
    // Set-A has k = 2 → exactly one rescale available.
    let m1 = eval
        .rescale(&eval.multiply_relin(&ct, &ct, &s.rlk).unwrap())
        .unwrap();
    assert_eq!(m1.level(), 0);
    let m2 = eval.multiply_relin(&m1, &m1, &s.rlk).unwrap();
    assert!(matches!(
        eval.rescale(&m2),
        Err(heax::ckks::CkksError::LevelExhausted)
    ));
}

#[test]
fn symmetric_and_public_encryption_agree() {
    let mut s = session(ParamSet::SetA, 7);
    let enc = CkksEncoder::new(&s.ctx);
    let scale = s.ctx.params().scale();
    let pt = enc
        .encode_real(&[5.5, -1.5], scale, s.ctx.max_level())
        .unwrap();
    let dec = Decryptor::new(&s.ctx, &s.sk);
    let ct_pub = Encryptor::new(&s.ctx, &s.pk)
        .encrypt(&pt, &mut s.rng)
        .unwrap();
    let ct_sym = heax::ckks::encrypt_symmetric(&s.ctx, &s.sk, &pt, &mut s.rng).unwrap();
    let a = enc.decode_real(&dec.decrypt(&ct_pub).unwrap()).unwrap();
    let b = enc.decode_real(&dec.decrypt(&ct_sym).unwrap()).unwrap();
    assert!((a[0] - 5.5).abs() < 1e-2 && (b[0] - 5.5).abs() < 1e-2);
    assert!((a[1] + 1.5).abs() < 1e-2 && (b[1] + 1.5).abs() < 1e-2);
}
