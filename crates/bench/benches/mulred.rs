//! Criterion micro-bench of the word-level reduction kernels: Barrett
//! `mul_mod` (Algorithm 1) vs Shoup `mul_red` / `mul_red_lazy`
//! (Algorithm 2, the MulRed unit behind every twiddle and `p⁻¹`
//! constant). Sweeps a ring-sized array so the numbers reflect a
//! streaming access pattern.
//!
//! CI runs this in quick mode by setting `HEAX_BENCH_QUICK=1`.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use heax_math::word::{Modulus, MulRedConstant};

fn configure(group: &mut criterion::BenchmarkGroup<'_>) {
    if std::env::var_os("HEAX_BENCH_QUICK").is_some() {
        group
            .sample_size(3)
            .warm_up_time(Duration::from_millis(50))
            .measurement_time(Duration::from_millis(200));
    } else {
        group
            .sample_size(10)
            .warm_up_time(Duration::from_millis(300))
            .measurement_time(Duration::from_secs(1));
    }
}

fn bench_mulred(c: &mut Criterion) {
    let mut group = c.benchmark_group("word_mulred");
    configure(&mut group);
    // 60-bit NTT-friendly prime (the software word size of Section 2).
    let p = Modulus::new(1152921504606830593).unwrap();
    let n = 4096usize;
    let xs: Vec<u64> = (0..n as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % p.value())
        .collect();
    let ys: Vec<u64> = (0..n as u64)
        .map(|i| i.wrapping_mul(0xbf58_476d_1ce4_e5b9) % p.value())
        .collect();
    let shoup: Vec<MulRedConstant> = ys.iter().map(|&y| MulRedConstant::new(y, &p)).collect();

    group.bench_function("barrett_mul_mod", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for (&x, &y) in xs.iter().zip(&ys) {
                acc = acc.wrapping_add(p.mul_mod(x, y));
            }
            black_box(acc)
        })
    });
    group.bench_function("shoup_mul_red", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for (&x, c) in xs.iter().zip(&shoup) {
                acc = acc.wrapping_add(c.mul_red(x, &p));
            }
            black_box(acc)
        })
    });
    group.bench_function("shoup_mul_red_lazy", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for (&x, c) in xs.iter().zip(&shoup) {
                acc = acc.wrapping_add(c.mul_red_lazy(x, &p));
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_mulred);
criterion_main!(benches);
