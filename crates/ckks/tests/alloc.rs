//! Asserts the key-switch hot path is allocation-free after warm-up
//! (PR 3 acceptance criterion): a counting global allocator tracks
//! allocations made by *this thread* while `key_switch_into` runs against
//! pre-shaped outputs and the thread's warmed polynomial recycler, which
//! holds the key switch's working buffers between calls. The
//! same allocator weighs a key-switching key — its residues and nothing
//! else — and shows a warm circuit taking every polynomial it returns
//! from the buffers its previous outputs left in the recycler.
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
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Steps of the hoisted group that ends a `circuit_setb`-shaped circuit.
const FAN: [i64; 4] = [2, 4, 8, 16];

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
    let gks = GaloisKeys::generate(&ctx, &sk, &[1, 2, 4, 8, 16], &mut rng);
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

    // Warm-up: the first call leaves its working buffers in the recycler.
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
    // multiply at the top again) must not allocate on a level change:
    // each switch's buffers are the recycler's best fits for its level.
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
fn a_cold_one_key_switch_takes_no_digit_matrix() {
    // On a freshly spawned thread the recycler is empty, so the counter
    // sees every buffer an op takes. A one-key switch streams its digits
    // one extended column at a time and takes its floor lanes per limb:
    // nothing it takes is larger than one accumulator, (ℓ+2)·n words,
    // where the whole digit matrix would be (ℓ+1) times that.
    let r = rig();
    let level = r.prod.level();
    let accumulator = 8 * ((level + 2) * r.ctx.n()) as u64;
    let cold = |name: &str, op: &(dyn Fn(&Evaluator) + Sync)| {
        let seen = std::thread::scope(|s| {
            s.spawn(|| {
                let eval = Evaluator::with_executor(&r.ctx, Arc::new(Sequential));
                measure(|| op(&eval))
            })
            .join()
            .unwrap()
        });
        assert!(
            seen.largest <= accumulator,
            "a cold {name} took {} B, more than one {accumulator}-byte accumulator: {seen:?}",
            seen.largest
        );
    };
    let moduli = r.ctx.level_moduli(level);
    cold("key_switch_into", &|eval| {
        let mut f0 = RnsPoly::zero(r.ctx.n(), moduli, Representation::Ntt);
        let mut f1 = RnsPoly::zero(r.ctx.n(), moduli, Representation::Ntt);
        eval.key_switch_into(r.prod.component(2), r.rlk.ksk(), level, &mut f0, &mut f1)
            .unwrap();
    });
    cold("rotate", &|eval| {
        eval.rotate(&r.fresh, 1, &r.gks).unwrap();
    });
    cold("multiply_relin", &|eval| {
        eval.multiply_relin(&r.fresh, &r.fresh, &r.rlk).unwrap();
    });
}

#[test]
fn a_cold_compressed_fan_out_takes_only_the_columns_it_fills() {
    // A hoisted group at output level `to` fills `to + 2` extended
    // columns — the kept primes and the special one — so its digit
    // matrix is (to+2)(ℓ+1)·n words, and nothing else it takes on a
    // freshly spawned thread is larger; the whole matrix would be
    // (ℓ+2)(ℓ+1)·n.
    let r = rig();
    let (level, to) = (r.fresh.level(), 0);
    let matrix = 8 * ((to + 2) * (level + 1) * r.ctx.n()) as u64;
    let seen = std::thread::scope(|s| {
        s.spawn(|| {
            let eval = Evaluator::with_executor(&r.ctx, Arc::new(Sequential));
            measure(|| {
                eval.rotate_many_to_level(&r.fresh, &FAN, &r.gks, to)
                    .unwrap();
            })
        })
        .join()
        .unwrap()
    });
    assert!(
        seen.largest <= matrix,
        "a cold rotate_many_to_level(…, {to}) at level {level} took {} B, more than the \
         {matrix}-byte matrix of the columns it fills: {seen:?}",
        seen.largest
    );
}

#[test]
fn key_switch_key_owns_its_residues_and_nothing_else() {
    // A deep clone allocates exactly what a key holds: its
    // `resident_bytes()` of packed residues and the chain's modulus
    // values — every residue resident once, at its primes' width, with no
    // 64-bit copy or per-word table beside it.
    let r = rig();
    let ksk = r.rlk.ksk();
    let held = measure(|| {
        std::hint::black_box(ksk.clone());
    })
    .bytes;
    let chain = r.ctx.moduli().len() * size_of::<u64>();
    assert_eq!(held as usize, ksk.resident_bytes() + chain);
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

#[test]
fn a_warm_circuit_allocates_no_polynomial() {
    // The `circuit_setb` circuit on the test ring — multiply_relin →
    // rescale → rotate(1) → add → rotate_many(FAN) — with each circuit's
    // outputs dropped as the next one's arrive: once warm, every
    // polynomial an op returns is a buffer the recycler took back, so
    // nothing as large as one residue is allocated.
    let r = rig();
    let eval = Evaluator::with_executor(&r.ctx, Arc::new(Sequential));
    let circuit = || {
        let m = eval.multiply_relin(&r.fresh, &r.fresh, &r.rlk).unwrap();
        let s = eval.rescale(&m).unwrap();
        let rot = eval.rotate(&s, 1, &r.gks).unwrap();
        let a = eval.add(&rot, &s).unwrap();
        eval.rotate_many(&a, &FAN, &r.gks).unwrap()
    };
    let first = circuit();
    // A few circuits settle which buffers carry which level's shapes.
    let mut last = circuit();
    for _ in 0..4 {
        last = circuit();
    }
    let seen = measure(|| {
        for _ in 0..3 {
            last = circuit();
        }
    });
    let residue = 8 * r.ctx.n() as u64;
    assert!(
        seen.largest < residue,
        "a warm circuit allocated {} B, more than one {residue}-byte residue: {seen:?}",
        seen.largest
    );
    assert_eq!(last, first);
}
