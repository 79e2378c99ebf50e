//! Ablation — CPU NTT kernel styles: the paper-faithful Algorithms 3/4
//! (full reduction per butterfly), the scalar Harvey lazy-reduction
//! variant SEAL's production kernels use, and what `forward_auto` /
//! `inverse_auto` dispatch to on this host — eight lazy butterflies per
//! instruction on the AVX-512 IFMA 52-bit word where the host has it (the
//! software twin of the paper's narrow-word, many-butterfly NTT core).
//! Quantifies how much of the CPU baseline's headroom is kernel
//! engineering rather than algorithm.

use heax_bench::{measure_ops_per_sec, render_table};
use heax_math::ntt::NttTable;
use heax_math::primes::generate_ntt_primes;
use heax_math::word::Modulus;

fn main() {
    let budget_ms = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300u64);
    let mut rows = Vec::new();
    let mut detected = None;
    for n in [4096usize, 8192, 16384] {
        let p = generate_ntt_primes(48, 1, n).expect("primes")[0];
        let table = NttTable::new(n, Modulus::new(p).expect("modulus")).expect("table");
        detected = Some(table.auto_kernel());
        let input: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15) % p)
            .collect();
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
    if let Some(kernel) = detected {
        println!("`*_auto` dispatches to: {kernel}.");
    }
    println!("All three kernels produce bit-identical output (tested). The lazy variants");
    println!("defer modular correction across stages, approximating SEAL's production");
    println!("kernel; the lanes run them eight at a time on a 52-bit word when the host has");
    println!("AVX-512 IFMA, p < 2^50 and n >= 16. The Table 7 CPU baseline uses `*_auto`.");
}
