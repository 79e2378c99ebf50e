//! Layer probes: `math`, the `ckks` codec and key switch, and `core`,
//! each timed from outside through public functions. Each runs in the
//! traced run of the one workload that exercises its layer.

use std::hint::black_box;
use std::time::Instant;

use heax_ckks::serialize::{
    deserialize_ciphertext, deserialize_operand, serialize_ciphertext, CiphertextView,
};
use heax_ckks::{Ciphertext, CkksContext, CkksParams, Evaluator, ParamSet};
use heax_core::{HeaxAccelerator, HeaxSystem};
use heax_hw::board::Board;
use heax_hw::ir::{IrOp, OpKind};
use heax_math::exec::{self, Executor};
use heax_math::ntt;
use heax_math::word::MulRedConstant;
use rand::Rng;

use crate::catalogue::Metrics;
use crate::gen::{self, Stream, STEPS};
use crate::harness::{sequential, time_ns, ClientKeys};
use crate::model::{self, CORES};
use crate::traffic::Inputs;

/// Time budget of one probe, ms.
const BUDGET_MS: f64 = 120.0;

/// `math.*` (`circuit_setb`): word arithmetic and NTT kernels at the
/// two ring degrees the workloads use. `b` is the Set-B context.
pub fn math(b: &CkksContext, seed: u64, m: &mut Metrics) {
    let a = CkksContext::new(CkksParams::from_set(ParamSet::SetA).expect("built-in set"))
        .expect("built-in set");
    let modulus = a.moduli()[0];
    let mut rng = gen::rng(seed, Stream::Inputs);
    let words: Vec<u64> = (0..1024)
        .map(|_| rng.gen_range(0..modulus.value()))
        .collect();
    let constant = MulRedConstant::new(words[0], &modulus);
    let per_word = |f: &dyn Fn(u64) -> u64| {
        time_ns(BUDGET_MS, || {
            for &w in &words {
                black_box(f(black_box(w)));
            }
        }) / words.len() as f64
    };
    m.set(
        "math.mulred_ns",
        per_word(&|w| constant.mul_red(w, &modulus)),
    );
    m.set(
        "math.mulred_lazy_ns",
        // DOMAIN: [0,2p) — timed and discarded, never reduced or reused.
        per_word(&|w| constant.mul_red_lazy(w, &modulus)),
    );
    m.set(
        "math.barrett_mul_ns",
        per_word(&|w| modulus.mul_mod(w, words[1])),
    );

    for (ctx, fwd, inv) in [
        (
            &a,
            "math.ntt_fwd_ns_per_coeff.n4096",
            "math.ntt_inv_ns_per_coeff.n4096",
        ),
        (
            b,
            "math.ntt_fwd_ns_per_coeff.n8192",
            "math.ntt_inv_ns_per_coeff.n8192",
        ),
    ] {
        let table = ctx.ntt_table(0);
        let n = table.n();
        let mut data: Vec<u64> = (0..n)
            .map(|_| rng.gen_range(0..table.modulus().value()))
            .collect();
        m.set(
            fwd,
            time_ns(BUDGET_MS, || table.forward(&mut data)) / n as f64,
        );
        m.set(
            inv,
            time_ns(BUDGET_MS, || table.inverse(&mut data)) / n as f64,
        );
    }

    let tables = b.ntt_tables();
    let n = b.n();
    let mut limbs: Vec<u64> = tables
        .iter()
        .flat_map(|t| {
            let q = t.modulus().value();
            (0..n).map(move |i| i as u64 % q)
        })
        .collect();
    for (name, exec) in [
        ("math.ntt_limbs_us.n8192.t1", sequential()),
        ("math.ntt_limbs_us.n8192.t2", exec::with_threads(2)),
    ] {
        let exec: &dyn Executor = exec.as_ref();
        m.set(
            name,
            time_ns(BUDGET_MS, || {
                ntt::forward_limbs(exec, tables, &mut limbs, n)
            }) / 1e3,
        );
    }
}

/// `ckks.key_switch_us` (`circuit_setb`): the key switch alone, under
/// one and two lanes, on one of the circuit's Set-B inputs.
pub fn key_switch(b: &ClientKeys, ct: &Ciphertext, m: &mut Metrics) {
    for (name, exec) in [
        ("ckks.key_switch_us", sequential()),
        ("ckks.key_switch_us.t2", exec::with_threads(2)),
    ] {
        let eval = Evaluator::with_executor(&b.ctx, exec);
        m.set(
            name,
            time_ns(BUDGET_MS, || {
                black_box(
                    eval.key_switch(ct.component(1), b.rlk.ksk(), ct.level())
                        .expect("key switch"),
                );
            }) / 1e3,
        );
    }
}

/// The Set-A wire codec (`serve_add_seta`, whose requests are all
/// codec).
pub fn codec(inputs: &Inputs, m: &mut Metrics) {
    let ctx = &inputs.keys.ctx;
    let (full, seeded) = (&inputs.full[0], &inputs.seeded[0]);
    let ct = deserialize_ciphertext(full, ctx).expect("own bytes");
    let us = |f: &mut dyn FnMut()| time_ns(BUDGET_MS, f) / 1e3;
    m.set(
        "ckks.serialize_ct_us",
        us(&mut || {
            black_box(serialize_ciphertext(&ct));
        }),
    );
    m.set(
        "ckks.deserialize_ct_us",
        us(&mut || {
            black_box(deserialize_ciphertext(full, ctx).expect("own bytes"));
        }),
    );
    m.set(
        "ckks.deserialize_operand_view_us",
        us(&mut || {
            let view = CiphertextView::parse(full).expect("own bytes");
            black_box(view.to_ciphertext(ctx).expect("own bytes"));
        }),
    );
    m.set(
        "ckks.deserialize_seeded_us",
        us(&mut || {
            black_box(deserialize_operand(seeded, ctx).expect("own bytes"));
        }),
    );
    m.set("ckks.ct_bytes", full.len() as f64);
    m.set("ckks.seeded_ct_bytes", seeded.len() as f64);
}

/// `ckks.keygen_s` (`serve_mix_seta`, whose set-up generates them): one
/// client's Set-A secret, public, relin and 8 Galois keys.
pub fn keygen(seed: u64, m: &mut Metrics) {
    let t0 = Instant::now();
    black_box(ClientKeys::generate(ParamSet::SetA, seed, &STEPS));
    m.set("ckks.keygen_s", t0.elapsed().as_secs_f64());
}

/// `core.accel_*`, `core.park_*` (`serve_mix_seta`, whose chains park):
/// the accelerator simulator's host cost against the evaluator's for
/// the same Set-A key switch, and parking.
pub fn accel_and_parking(inputs: &Inputs, m: &mut Metrics) {
    let keys = &inputs.keys;
    let ct = deserialize_ciphertext(&inputs.full[0], &keys.ctx).expect("own bytes");
    let accel = HeaxAccelerator::new(&keys.ctx, Board::stratix10())
        .expect("paper set")
        .with_executor(sequential());
    let mut cycles = 0;
    let accel_us = time_ns(BUDGET_MS, || {
        let (_, report) = accel
            .key_switch(ct.component(1), keys.rlk.ksk(), ct.level())
            .expect("key switch");
        cycles = report.interval_cycles;
    }) / 1e3;
    let eval = Evaluator::with_executor(&keys.ctx, sequential());
    let eval_us = time_ns(BUDGET_MS, || {
        black_box(
            eval.key_switch(ct.component(1), keys.rlk.ksk(), ct.level())
                .expect("key switch"),
        );
    }) / 1e3;
    m.set("core.accel_key_switch_us", accel_us);
    m.set("core.accel_key_switch_cycles", cycles as f64);
    m.set("core.accel_host_slowdown", accel_us / eval_us);

    let mut system = HeaxSystem::new(accel);
    m.set(
        "core.park_store_us",
        time_ns(BUDGET_MS, || {
            system.store("probe", ct.clone()).expect("fits")
        }) / 1e3,
    );
    m.set(
        "core.park_load_us",
        time_ns(BUDGET_MS, || {
            black_box(system.load("probe"));
        }) / 1e3,
    );
}

/// `core.relcost.*` (`circuit_setb`): whether the board model's op costs
/// relative to `rotate` match the measured ones. Needs the circuit's
/// `ckks.*` op times in `m`.
pub fn relative_costs(m: &mut Metrics) {
    let board = model::design_point(ParamSet::SetB)
        .pipeline_config(CORES)
        .expect("paper design point");
    let modeled = |kind| {
        board
            .op_compute_cycles(&IrOp::new(kind))
            .expect("well-formed") as f64
    };
    let rotate_cycles = modeled(OpKind::Rotate);
    for (name, measured, kind) in [
        (
            "core.relcost.rotate_many4",
            "ckks.rotate_many4_us",
            OpKind::RotateMany {
                count: 4,
                parked_outputs: 0,
            },
        ),
        (
            "core.relcost.multiply_relin",
            "ckks.multiply_relin_us",
            OpKind::Multiply,
        ),
    ] {
        let (Some(op_us), Some(rotate_us)) = (m.get(measured), m.get("ckks.rotate_us")) else {
            continue;
        };
        if rotate_us > 0.0 {
            m.set(name, (op_us / rotate_us) / (modeled(kind) / rotate_cycles));
        }
    }
}
