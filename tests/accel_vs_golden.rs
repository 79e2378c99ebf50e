//! Hardware-vs-golden-model integration: the accelerator's dataflow
//! simulators must produce bit-exact results against the software CKKS
//! library on the paper's real Set-A parameters.

use heax::accel::accel::HeaxAccelerator;
use heax::accel::perf::HeaxOp;
use heax::ckks::{
    CkksContext, CkksEncoder, CkksParams, Decryptor, Encryptor, Evaluator, GaloisKeys, ParamSet,
    PublicKey, RelinKey, SecretKey,
};
use heax::hw::board::Board;
use heax::hw::ntt_dataflow::{NttModuleConfig, NttModuleSim};
use heax::math::poly::{Representation, RnsPoly};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Rig {
    ctx: CkksContext,
    sk: SecretKey,
    pk: PublicKey,
    rlk: RelinKey,
    rng: StdRng,
}

fn rig() -> Rig {
    let ctx = CkksContext::new(CkksParams::from_set(ParamSet::SetA).unwrap()).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let pk = PublicKey::generate(&ctx, &sk, &mut rng);
    let rlk = RelinKey::generate(&ctx, &sk, &mut rng);
    Rig {
        ctx,
        sk,
        pk,
        rlk,
        rng,
    }
}

#[test]
fn hardware_ntt_bit_exact_on_paper_sizes() {
    // Every (n, nc) combination the paper instantiates.
    for (n, nc) in [
        (4096usize, 8usize),
        (4096, 16),
        (8192, 16),
        (16384, 16),
        (16384, 8),
    ] {
        let p = heax::math::primes::generate_ntt_primes(45, 1, n).unwrap()[0];
        let table =
            heax::math::ntt::NttTable::new(n, heax::math::word::Modulus::new(p).unwrap()).unwrap();
        let sim = NttModuleSim::new(NttModuleConfig::new(n, nc).unwrap(), &table).unwrap();
        let input: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x2545F4914F6CDD1D) % p)
            .collect();
        let mut expect = input.clone();
        table.forward(&mut expect);
        let (got, stats) = sim.forward(&input);
        assert_eq!(got, expect, "n={n} nc={nc}");
        assert_eq!(
            stats.cycles,
            (n as u64 * n.trailing_zeros() as u64) / (2 * nc as u64)
        );
    }
}

#[test]
fn accelerator_full_op_suite_bit_exact_set_a() {
    let mut r = rig();
    let enc = CkksEncoder::new(&r.ctx);
    let eval = Evaluator::new(&r.ctx);
    let scale = r.ctx.params().scale();
    let top = r.ctx.max_level();
    let e = Encryptor::new(&r.ctx, &r.pk);
    let ct_a = e
        .encrypt(
            &enc.encode_real(&[1.0, -2.0, 3.0], scale, top).unwrap(),
            &mut r.rng,
        )
        .unwrap();
    let ct_b = e
        .encrypt(
            &enc.encode_real(&[0.5, 4.0, -1.0], scale, top).unwrap(),
            &mut r.rng,
        )
        .unwrap();

    let accel = HeaxAccelerator::new(&r.ctx, Board::stratix10()).unwrap();

    // NTT/INTT round trip through the banked hardware.
    let moduli = r.ctx.level_moduli(top).to_vec();
    let mut poly = RnsPoly::zero(r.ctx.n(), &moduli, Representation::Coefficient);
    for (i, m) in moduli.iter().enumerate() {
        for (j, c) in poly.residue_mut(i).iter_mut().enumerate() {
            *c = (j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) % m.value();
        }
    }
    let (ntt_out, _) = accel.ntt(&poly).unwrap();
    let mut sw = poly.clone();
    sw.ntt_forward(r.ctx.ntt_tables()).unwrap();
    assert_eq!(ntt_out, sw);
    let (back, _) = accel.intt(&ntt_out).unwrap();
    assert_eq!(back, poly);

    // MULT module vs evaluator.
    let (hw_prod, _) = accel.dyadic_mult(&ct_a, &ct_b).unwrap();
    let sw_prod = eval.multiply(&ct_a, &ct_b).unwrap();
    assert_eq!(hw_prod, sw_prod);

    // KeySwitch module vs evaluator.
    let ((f0, f1), rep) = accel
        .key_switch(sw_prod.component(2), r.rlk.ksk(), sw_prod.level())
        .unwrap();
    let (g0, g1) = eval
        .key_switch(sw_prod.component(2), r.rlk.ksk(), sw_prod.level())
        .unwrap();
    assert_eq!(f0, g0);
    assert_eq!(f1, g1);
    // Table 8: Set-A on Stratix 10 = 3072-cycle interval.
    assert_eq!(rep.interval_cycles, 3072);

    // Full multiply+relinearize, then decrypt through the normal path.
    let hw_mr = accel
        .evaluator()
        .multiply_relin(&ct_a, &ct_b, &r.rlk)
        .unwrap();
    let sw_mr = eval.relinearize(&sw_prod, &r.rlk).unwrap();
    assert_eq!(hw_mr, sw_mr);
    let mr = accel.report(HeaxOp::MultRelin, top, 1).unwrap();
    assert_eq!(mr.interval_cycles, 3072);
    let dec = Decryptor::new(&r.ctx, &r.sk);
    let got = enc.decode_real(&dec.decrypt(&hw_mr).unwrap()).unwrap();
    for (i, want) in [0.5, -8.0, -3.0].iter().enumerate() {
        assert!(
            (got[i] - want).abs() < 0.1,
            "slot {i}: {} vs {want}",
            got[i]
        );
    }
}

#[test]
fn accelerator_rotation_bit_exact_set_a() {
    let mut r = rig();
    let enc = CkksEncoder::new(&r.ctx);
    let eval = Evaluator::new(&r.ctx);
    let scale = r.ctx.params().scale();
    let vals: Vec<f64> = (0..16).map(|i| i as f64).collect();
    let ct = Encryptor::new(&r.ctx, &r.pk)
        .encrypt(
            &enc.encode_real(&vals, scale, r.ctx.max_level()).unwrap(),
            &mut r.rng,
        )
        .unwrap();
    let gks = GaloisKeys::generate(&r.ctx, &r.sk, &[2], &mut r.rng);
    let accel = HeaxAccelerator::new(&r.ctx, Board::stratix10()).unwrap();
    let hw = accel.evaluator().rotate(&ct, 2, &gks).unwrap();
    let sw = eval.rotate(&ct, 2, &gks).unwrap();
    assert_eq!(hw, sw);
}

#[test]
fn arria_and_stratix_accelerators_agree_functionally() {
    // Different architectures (8- vs 16-core modules) must compute the
    // same function — only cycle counts differ.
    let mut r = rig();
    let enc = CkksEncoder::new(&r.ctx);
    let scale = r.ctx.params().scale();
    let ct = Encryptor::new(&r.ctx, &r.pk)
        .encrypt(
            &enc.encode_real(&[7.0], scale, r.ctx.max_level()).unwrap(),
            &mut r.rng,
        )
        .unwrap();
    let prod = Evaluator::new(&r.ctx).multiply(&ct, &ct).unwrap();

    let a10 = HeaxAccelerator::new(&r.ctx, Board::arria10()).unwrap();
    let s10 = HeaxAccelerator::new(&r.ctx, Board::stratix10()).unwrap();
    let ((a0, a1), rep_a) = a10
        .key_switch(prod.component(2), r.rlk.ksk(), prod.level())
        .unwrap();
    let ((s0, s1), rep_s) = s10
        .key_switch(prod.component(2), r.rlk.ksk(), prod.level())
        .unwrap();
    assert_eq!((a0, a1), (s0, s1));
    // Arria takes 2× the cycles (half the cores) — Table 8: 6144 vs 3072.
    assert_eq!(rep_a.interval_cycles, 6144);
    assert_eq!(rep_s.interval_cycles, 3072);
}
