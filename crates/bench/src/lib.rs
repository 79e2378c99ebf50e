//! # heax-bench
//!
//! Harness regenerating every table and figure of the HEAX paper's
//! evaluation (Section 6). Each `table*`/`figure*` binary prints the
//! paper's artifact next to this reproduction's model/measurement:
//!
//! ```text
//! cargo run -p heax-bench --release --bin table5
//! cargo run -p heax-bench --release --bin table7   # CPU-side of Table 7
//! ```
//!
//! The library part holds shared table formatting and the CPU-side
//! measurement loop the binaries share. Performance of the system itself
//! is measured by the standalone `benchmark/` ruler (`BENCHMARK.json`).

#![forbid(unsafe_code)]

use std::time::Instant;

/// Renders an ASCII table with a title.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            // A cell past the last header gets a column of its own.
            match widths.get_mut(i) {
                Some(w) => *w = (*w).max(cell.len()),
                None => widths.push(cell.len()),
            }
        }
    }
    let sep: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!(" {:>w$} ", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("|")
    };
    let mut out = format!("\n== {title} ==\n");
    let headers: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&headers));
    out.push('\n');
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Formats an ops/second figure compactly.
pub fn fmt_ops(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

/// Formats a ratio as `N.N×`.
pub fn fmt_speedup(v: f64) -> String {
    format!("{v:.1}x")
}

/// Measures the steady-state rate of `f` in operations/second: warms up,
/// then runs batches until `budget_ms` elapses.
pub fn measure_ops_per_sec<F: FnMut()>(mut f: F, budget_ms: u64) -> f64 {
    // Warm-up.
    f();
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed().as_millis() < budget_ms as u128 {
        f();
        iters += 1;
    }
    iters as f64 / start.elapsed().as_secs_f64()
}

/// Relative delta of `got` against `reference`, as a signed percent string.
pub fn fmt_delta(got: f64, reference: f64) -> String {
    format!("{:+.1}%", 100.0 * (got - reference) / reference)
}

/// Shared CPU-baseline workloads for the Table 7/8 binaries.
pub mod workloads {
    use heax_ckks::{
        Ciphertext, CkksContext, CkksEncoder, CkksParams, Encryptor, ParamSet, PublicKey, RelinKey,
        SecretKey,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Everything needed to measure the CPU baseline for one set.
    pub struct SetWorkload {
        /// Context for the set.
        pub ctx: CkksContext,
        /// Relinearization key.
        pub rlk: RelinKey,
        /// Two fresh sample ciphertexts at top level.
        pub ct_a: Ciphertext,
        /// Second operand.
        pub ct_b: Ciphertext,
        /// An un-relinearized product (3 components).
        pub ct_prod: Ciphertext,
        /// A sample single-residue polynomial (coefficient form).
        pub residue: Vec<u64>,
        /// The same residue in NTT form.
        pub residue_ntt: Vec<u64>,
    }

    /// Builds keys, ciphertexts, and sample polynomials for `set`.
    ///
    /// # Panics
    ///
    /// Panics on internal errors (cannot happen for the built-in sets).
    pub fn prepare(set: ParamSet) -> SetWorkload {
        let ctx = CkksContext::new(CkksParams::from_set(set).expect("params")).expect("ctx");
        let mut rng = StdRng::seed_from_u64(0x4845_4158); // "HEAX"
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng);
        let rlk = RelinKey::generate(&ctx, &sk, &mut rng);
        let enc = CkksEncoder::new(&ctx);
        let scale = ctx.params().scale();
        let vals_a: Vec<f64> = (0..8).map(|i| i as f64 * 0.5 + 1.0).collect();
        let vals_b: Vec<f64> = (0..8).map(|i| 2.0 - i as f64 * 0.25).collect();
        let pt_a = enc
            .encode_real(&vals_a, scale, ctx.max_level())
            .expect("encode");
        let pt_b = enc
            .encode_real(&vals_b, scale, ctx.max_level())
            .expect("encode");
        let encryptor = Encryptor::new(&ctx, &pk);
        let ct_a = encryptor.encrypt(&pt_a, &mut rng).expect("encrypt");
        let ct_b = encryptor.encrypt(&pt_b, &mut rng).expect("encrypt");
        let ct_prod = heax_ckks::Evaluator::new(&ctx)
            .multiply(&ct_a, &ct_b)
            .expect("multiply");

        let p0 = ctx.moduli()[0].value();
        let residue: Vec<u64> = (0..ctx.n() as u64)
            .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15) % p0)
            .collect();
        let mut residue_ntt = residue.clone();
        ctx.ntt_table(0).forward(&mut residue_ntt);
        SetWorkload {
            ctx,
            rlk,
            ct_a,
            ct_b,
            ct_prod,
            residue,
            residue_ntt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders() {
        let t = render_table(
            "Demo",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["30".into(), "4".into()]],
        );
        assert!(t.contains("Demo"));
        assert!(t.contains("30"));
        // A row wider than the header sizes its extra cell instead of
        // indexing past the header widths.
        let wide = render_table("t", &["a"], &[vec!["1".into(), "22".into()]]);
        assert!(wide.contains(" 1 | 22 "));
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_ops(1_500_000.0), "1.50M");
        assert_eq!(fmt_ops(22_536.0), "22.5k");
        assert_eq!(fmt_ops(488.0), "488.0");
        assert_eq!(fmt_speedup(232.3), "232.3x");
        assert_eq!(fmt_delta(110.0, 100.0), "+10.0%");
    }

    #[test]
    fn measure_runs() {
        let mut x = 0u64;
        let rate = measure_ops_per_sec(
            || {
                x = x.wrapping_add(1);
            },
            5,
        );
        assert!(rate > 0.0);
    }
}
