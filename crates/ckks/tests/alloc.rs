//! Asserts the key-switch hot path is allocation-free after warm-up
//! (PR 3 acceptance criterion): a counting global allocator tracks
//! allocations made by *this thread* while `key_switch_into` runs against
//! pre-shaped outputs and the evaluator's warmed scratch workspace. The
//! same allocator weighs a key-switching key: its residues and nothing
//! else.
//!
//! The counter is thread-local so concurrently running tests in this
//! binary cannot pollute the measurement; the assertion therefore covers
//! the sequential backend (the pooled backend allocates its limb
//! work-lists on the submitting thread by design and is exercised for
//! correctness elsewhere).

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use std::sync::Arc;

use counting_alloc::measure;
use heax_ckks::{
    Ciphertext, CkksContext, CkksEncoder, CkksParams, Encryptor, Evaluator, GaloisKeys, PublicKey,
    RelinKey, SecretKey,
};
use heax_math::exec::Sequential;
use heax_math::poly::{Representation, RnsPoly};
use heax_math::word::Modulus;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Rig {
    ctx: CkksContext,
    rlk: RelinKey,
    gks: GaloisKeys,
    prod: Ciphertext,
    fresh: Ciphertext,
}

fn rig() -> Rig {
    let chain = heax_math::primes::generate_prime_chain(&[40, 40, 40, 41], 64).unwrap();
    let ctx = CkksContext::new(CkksParams::new(64, chain, (1u64 << 32) as f64).unwrap()).unwrap();
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let pk = PublicKey::generate(&ctx, &sk, &mut rng);
    let rlk = RelinKey::generate(&ctx, &sk, &mut rng);
    let gks = GaloisKeys::generate(&ctx, &sk, &[1, 2], &mut rng);
    let enc = CkksEncoder::new(&ctx);
    let scale = ctx.params().scale();
    let pt = enc
        .encode_real(&[1.5, -2.0, 0.25], scale, ctx.max_level())
        .unwrap();
    let e = Encryptor::new(&ctx, &pk);
    let fresh = e.encrypt(&pt, &mut rng).unwrap();
    let eval = Evaluator::with_executor(&ctx, Arc::new(Sequential));
    let prod = eval.multiply(&fresh, &fresh).unwrap();
    Rig {
        ctx,
        rlk,
        gks,
        prod,
        fresh,
    }
}

#[test]
fn key_switch_into_is_allocation_free_after_warmup() {
    let r = rig();
    let eval = Evaluator::with_executor(&r.ctx, Arc::new(Sequential));
    let level = r.prod.level();
    let moduli = r.ctx.level_moduli(level);
    let mut f0 = RnsPoly::zero(r.ctx.n(), moduli, Representation::Ntt);
    let mut f1 = RnsPoly::zero(r.ctx.n(), moduli, Representation::Ntt);
    let target = r.prod.component(2);

    // Warm-up: the first call shapes the evaluator's scratch for `level`.
    for _ in 0..2 {
        eval.key_switch_into(target, r.rlk.ksk(), level, &mut f0, &mut f1)
            .unwrap();
    }
    let expected = eval.key_switch(target, r.rlk.ksk(), level).unwrap();

    let allocs = measure(|| {
        for _ in 0..5 {
            eval.key_switch_into(target, r.rlk.ksk(), level, &mut f0, &mut f1)
                .unwrap();
        }
    })
    .count;
    assert_eq!(
        allocs, 0,
        "key_switch_into allocated {allocs} times after warm-up"
    );
    assert_eq!((f0, f1), expected, "warm path result drifted");
}

#[test]
fn key_switch_into_is_allocation_free_across_levels_after_warmup() {
    // A circuit that mixes levels (multiply at the top, rotate one below,
    // multiply at the top again) must not reshape the scratch on every
    // level change: it is shaped once for the highest level seen.
    let r = rig();
    let eval = Evaluator::with_executor(&r.ctx, Arc::new(Sequential));
    let top = r.prod.level();
    let mut cases: Vec<_> = [top, top - 1]
        .into_iter()
        .map(|level| {
            let lowered = eval.mod_switch_to_level(&r.prod, level).unwrap();
            let target = lowered.component(2).clone();
            let expected = eval.key_switch(&target, r.rlk.ksk(), level).unwrap();
            let zero = RnsPoly::zero(r.ctx.n(), r.ctx.level_moduli(level), Representation::Ntt);
            (level, target, zero.clone(), zero, expected)
        })
        .collect();
    // Building the cases warmed both levels, the lower one last, so the
    // counted passes start on a level change.
    let allocs = measure(|| {
        for _ in 0..3 {
            for (level, target, f0, f1, _) in &mut cases {
                eval.key_switch_into(target, r.rlk.ksk(), *level, f0, f1)
                    .unwrap();
            }
        }
    })
    .count;
    assert_eq!(
        allocs,
        0,
        "alternating between levels {top} and {} allocated {allocs} times after warm-up",
        top - 1
    );
    for (level, _, f0, f1, expected) in cases {
        assert_eq!((f0, f1), expected, "level {level} result drifted");
    }
}

#[test]
fn key_switch_key_owns_its_residues_and_nothing_else() {
    // A deep clone allocates exactly what a key holds: `size_words()`
    // 8-byte residue words, each polynomial's modulus list and the
    // component vector — every residue resident once, no per-word table
    // beside it.
    let r = rig();
    let ksk = r.rlk.ksk();
    let held = measure(|| {
        std::hint::black_box(ksk.clone());
    })
    .bytes;
    let residues = 8 * ksk.size_words();
    let polys = 2 * ksk.decomp_len();
    let moduli_lists = polys * r.ctx.moduli().len() * size_of::<Modulus>();
    let components = ksk.decomp_len() * size_of::<(RnsPoly, RnsPoly)>();
    assert_eq!(held as usize, residues + moduli_lists + components);
}

#[test]
fn rotation_hot_path_allocates_only_outputs() {
    // apply_galois must not allocate scratch beyond its two output
    // polynomials (f0/f1 backing vecs + their moduli vecs + the component
    // vec + the Ciphertext is a small constant; the seed allocated
    // O(k²) temporaries on top).
    let r = rig();
    let eval = Evaluator::with_executor(&r.ctx, Arc::new(Sequential));
    for _ in 0..2 {
        eval.rotate(&r.fresh, 1, &r.gks).unwrap();
    }
    let allocs = measure(|| {
        let _ = eval.rotate(&r.fresh, 1, &r.gks).unwrap();
    })
    .count;
    // 2 output polys × (data vec + moduli vec) + polys vec + slack for the
    // Ciphertext container — anything near the seed's O(k²) per-call
    // buffer churn (dozens) fails.
    assert!(
        allocs <= 10,
        "rotate allocated {allocs} times; expected only output buffers"
    );
}
