//! Ablation — CPU NTT kernel styles: the paper-faithful Algorithms 3/4
//! (full reduction per butterfly), the scalar Harvey lazy-reduction
//! variant SEAL's production kernels use, and what `forward_auto` /
//! `inverse_auto` dispatch to on this host — eight lazy butterflies per
//! instruction on the AVX-512 IFMA 52-bit word where the host has it (the
//! software twin of the paper's narrow-word, many-butterfly NTT core).
//! Quantifies how much of the CPU baseline's headroom is kernel
//! engineering rather than algorithm. A second table does the same for
//! the element-wise kernels between the transforms (DyadMult accumulate,
//! MS, the dyadic product): the scalar loop vs what the host dispatches
//! to.

use heax_bench::{measure_ops_per_sec, render_table};
use heax_math::ntt::NttTable;
use heax_math::primes::generate_ntt_primes;
use heax_math::word::{Modulus, MulRedConstant};

fn main() {
    let budget_ms = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300u64);
    let mut rows = Vec::new();
    let mut elementwise = Vec::new();
    let mut detected = None;
    // Ring degree and key-switch rows (k) of Sets A, B, C.
    for (n, k) in [(4096usize, 2usize), (8192, 4), (16384, 8)] {
        let p = generate_ntt_primes(48, 1, n).expect("primes")[0];
        let modulus = Modulus::new(p).expect("modulus");
        let table = NttTable::new(n, modulus).expect("table");
        detected = Some(table.auto_kernel());
        let input: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15) % p)
            .collect();
        elementwise.extend(elementwise_rows(&modulus, &input, k, budget_ms));
        // Microseconds per transform. Every kernel maps canonical input
        // to canonical output, so re-transforming the buffer is fair.
        let us = |f: &dyn Fn(&mut [u64])| {
            let mut buf = input.clone();
            1e6 / measure_ops_per_sec(|| f(&mut buf), budget_ms)
        };
        let mut row = |direction: &str, strict: f64, lazy: f64, auto: f64| {
            rows.push(vec![
                n.to_string(),
                direction.to_string(),
                format!("{strict:.1}"),
                format!("{lazy:.1}"),
                format!("{auto:.1}"),
                format!("{:.2}x", strict / lazy),
                format!("{:.2}x", lazy / auto),
            ]);
        };
        row(
            "NTT",
            us(&|a| table.forward(a)),
            us(&|a| table.forward_lazy(a)),
            us(&|a| table.forward_auto(a)),
        );
        row(
            "INTT",
            us(&|a| table.inverse(a)),
            us(&|a| table.inverse_lazy(a)),
            us(&|a| table.inverse_auto(a)),
        );
    }
    print!(
        "{}",
        render_table(
            "Ablation: CPU NTT kernels (us per transform, single 48-bit residue)",
            &[
                "n",
                "transform",
                "Algorithm 3/4 (strict)",
                "Harvey lazy (scalar)",
                "*_auto (dispatched)",
                "lazy vs strict",
                "auto vs lazy",
            ],
            &rows,
        )
    );
    println!();
    print!(
        "{}",
        render_table(
            "Ablation: element-wise kernels (us per residue limb, 48-bit prime)",
            &[
                "n",
                "kernel",
                "scalar",
                "dispatched",
                "scalar vs dispatched"
            ],
            &elementwise,
        )
    );
    println!();
    if let Some(kernel) = detected {
        println!("`*_auto` dispatches to: {kernel}.");
    }
    println!("All three kernels produce bit-identical output (tested). The lazy variants");
    println!("defer modular correction across stages, approximating SEAL's production");
    println!("kernel; the lanes run them eight at a time on a 52-bit word when the host has");
    println!("AVX-512 IFMA, p < 2^50 and n >= 16. The Table 7 CPU baseline uses `*_auto`.");
    println!("The element-wise kernels take the same lanes under the same rule; on a host");
    println!("without them both columns time the scalar loop.");
}

/// One limb of DyadMult accumulate (`k` rows into both accumulators), MS
/// and the dyadic product: the scalar loop against the dispatched kernel.
fn elementwise_rows(p: &Modulus, input: &[u64], k: usize, budget_ms: u64) -> Vec<Vec<String>> {
    let n = input.len();
    let digits: Vec<u64> = (0..k).flat_map(|_| input.iter().copied()).collect();
    let keys = || (0..k).map(|_| (input, input));
    let inv = MulRedConstant::new(p.inv_mod(12345).expect("invertible"), p);
    let (mut d0, mut d1) = (vec![0u64; n], vec![0u64; n]);
    let mut us = |f: &mut dyn FnMut(&mut [u64], &mut [u64])| {
        1e6 / measure_ops_per_sec(|| f(&mut d0, &mut d1), budget_ms)
    };
    let timings = [
        (
            format!("DyadMult accumulate, {k} rows x 2"),
            us(&mut |d0, d1| p.dyad_acc_lazy_scalar(&digits, None, keys(), d0, d1)),
            us(&mut |d0, d1| p.dyad_acc_lazy(&digits, None, keys(), d0, d1)),
        ),
        (
            "MS (src - r) * inv".to_string(),
            us(&mut |d0, _| p.mod_switch_scalar(&inv, input, input, None, d0)),
            us(&mut |d0, _| p.mod_switch(&inv, input, input, None, d0)),
        ),
        (
            "dyadic product".to_string(),
            us(&mut |d0, _| p.dyad_mul_scalar(input, input, false, d0)),
            us(&mut |d0, _| p.dyad_mul(input, input, false, d0)),
        ),
    ];
    timings
        .into_iter()
        .map(|(kernel, scalar, dispatched)| {
            vec![
                n.to_string(),
                kernel,
                format!("{scalar:.1}"),
                format!("{dispatched:.1}"),
                format!("{:.2}x", scalar / dispatched),
            ]
        })
        .collect()
}
