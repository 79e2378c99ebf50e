//! Ablations of the paper's design choices, and extensions beyond its
//! parameter range.

use std::io::{self, Write};

use crate::{measure_ops_per_sec, write_table};
use heax_ckks::noise::measure_noise_real;
use heax_ckks::{
    Ciphertext, CkksContext, CkksEncoder, CkksParams, Encryptor, Evaluator, ParamSet, PublicKey,
    RelinKey, SecretKey,
};
use heax_core::arch::arch_for_intt0;
use heax_core::resources::{
    base_design_resources, design_resources, ksk_bram, module_cost, KskPlacement, ModuleKind,
};
use heax_hw::board::Board;
use heax_hw::ntt_dataflow::NttModuleConfig;
use heax_hw::wordsize::{
    datapath_dsp_cost, dsps_per_multiplier, moduli_needed, reduction_factor, MultiplierStyle,
};
use heax_hw::xfer::DramModel;
use heax_math::ntt::NttTable;
use heax_math::primes::generate_ntt_primes;
use heax_math::word::{Modulus, MulRedConstant};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's range for the DSP reduction of 54-bit over 64-bit words
/// (Section 4): "between 1.4x to 2.25x".
pub const PAPER_DSP_REDUCTION: (f64, f64) = (1.4, 2.25);

/// Ablation — 54-bit vs 64-bit native word size (Section 4).
///
/// Reproduces the paper's claim that switching from 64- to 54-bit native
/// operations saves 1.4×–2.25× DSPs across the HE parameter sets, after
/// accounting for the possible increase in RNS modulus count.
pub fn ablation_wordsize(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "single multiplier cost (27-bit DSP tiles):")?;
    writeln!(
        out,
        "  54x54 naive: {} DSPs | 64x64 naive: {} DSPs | 64x64 Toom-Cook: {} DSPs",
        dsps_per_multiplier(54, MultiplierStyle::Naive),
        dsps_per_multiplier(64, MultiplierStyle::Naive),
        dsps_per_multiplier(64, MultiplierStyle::ToomCook),
    )?;

    let mut rows = Vec::new();
    for set in ParamSet::ALL {
        let bits = set.total_modulus_bits();
        rows.push(vec![
            set.name().to_string(),
            bits.to_string(),
            moduli_needed(bits, 54).to_string(),
            moduli_needed(bits, 64).to_string(),
            datapath_dsp_cost(bits, 54, MultiplierStyle::Naive).to_string(),
            datapath_dsp_cost(bits, 64, MultiplierStyle::Naive).to_string(),
            datapath_dsp_cost(bits, 64, MultiplierStyle::ToomCook).to_string(),
            format!("{:.2}x", reduction_factor(bits, MultiplierStyle::Naive)),
            format!("{:.2}x", reduction_factor(bits, MultiplierStyle::ToomCook)),
        ]);
    }
    write_table(
        out,
        "Ablation: word size — DSPs per modular-multiplier array",
        "Set|mod bits|k@54|k@64|DSP@54|DSP@64 naive|DSP@64 TC|red. naive|red. TC",
        &rows,
    )?;
    let (lo, hi) = PAPER_DSP_REDUCTION;
    writeln!(
        out,
        "\nPaper: \"by switching from 64-bit native operations to 54-bit, we\n\
         observe between {lo}x to {hi}x reduction in the number of DSP units\"."
    )
}

/// Ablation — one big NTT0 module vs several smaller ones (Section 4.3,
/// "Number of Cores vs. Number of Modules").
///
/// Balancing INTT0 against the first NTT layer needs `k·ncINTT0` NTT-core
/// throughput. The paper argues for splitting it into `m0` modules:
/// fewer ALMs (the MUX trees grow as `O(nc·log nc)`) and more reliable
/// place-and-route, at the cost of extra BRAM (each module owns its data
/// and output memories). This quantifies that trade-off with the
/// Table 4-calibrated module model, plus the throughput of each option.
pub fn ablation_modules(out: &mut dyn Write) -> io::Result<()> {
    for set in [ParamSet::SetB, ParamSet::SetC] {
        let (n, k) = (set.n(), set.k());
        let nc_intt0 = if set == ParamSet::SetC { 8 } else { 16 };
        let total_cores = k * nc_intt0;
        let mut rows = Vec::new();
        for m0 in [1usize, 2, 4, 8] {
            let per_module = total_cores / m0;
            let r = module_cost(ModuleKind::Ntt, per_module, n) * m0 as u64;
            let feasible = per_module <= 32; // >32 cores fails P&R (paper)
            let cycles = NttModuleConfig::new(n, per_module)
                .map(|c| c.transform_cycles())
                .unwrap_or(0);
            rows.push(vec![
                m0.to_string(),
                per_module.to_string(),
                r.alm.to_string(),
                r.reg.to_string(),
                r.m20k.to_string(),
                cycles.to_string(),
                if feasible { "yes" } else { "no (P&R)" }.to_string(),
            ]);
        }
        write_table(
            out,
            &format!(
                "Ablation: splitting {total_cores} NTT0 cores into m0 modules ({} n={n})",
                set.name()
            ),
            "m0|cores/mod|ALM|REG|M20K|cyc/NTT|routable",
            &rows,
        )?;
    }
    writeln!(
        out,
        "\nReading: as m0 grows, ALM/REG drop (smaller MUX trees) while M20K\n\
         rises (replicated data/output memories) — the paper picks m0 = min(k, 4).\n\
         A single 64-core module is not routable (>32-core synthesis fails)."
    )
}

/// Ablation — CPU NTT kernel styles, timed for `budget_ms` per cell: the
/// paper-faithful Algorithms 3/4 (full reduction per butterfly), the
/// scalar Harvey lazy-reduction variant SEAL's production kernels use,
/// and what `forward_auto` / `inverse_auto` dispatch to on this host —
/// eight lazy butterflies per instruction on the AVX-512 IFMA 52-bit word
/// where the host has it (the software twin of the paper's narrow-word,
/// many-butterfly NTT core). Quantifies how much of the CPU baseline's
/// headroom is kernel engineering rather than algorithm. A second table
/// does the same for the element-wise kernels between the transforms
/// (DyadMult accumulate, MS, the dyadic product): the scalar loop vs what
/// the host dispatches to.
pub fn ablation_ntt(out: &mut dyn Write, budget_ms: u64) -> io::Result<()> {
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
    write_table(
        out,
        "Ablation: CPU NTT kernels (us per transform, single 48-bit residue)",
        "n|transform|Algorithm 3/4 (strict)|Harvey lazy (scalar)|\
             *_auto (dispatched)|lazy vs strict|auto vs lazy",
        &rows,
    )?;
    writeln!(out)?;
    write_table(
        out,
        "Ablation: element-wise kernels (us per residue limb, 48-bit prime)",
        "n|kernel|scalar|dispatched|scalar vs dispatched",
        &elementwise,
    )?;
    writeln!(out)?;
    if let Some(kernel) = detected {
        writeln!(out, "`*_auto` dispatches to: {kernel}.")?;
    }
    writeln!(
        out,
        "All three kernels produce bit-identical output (tested). The lazy variants\n\
         defer modular correction across stages, approximating SEAL's production\n\
         kernel; the lanes run them eight at a time on a 52-bit word when the host has\n\
         AVX-512 IFMA, p < 2^50 and n >= 16. The Table 7 CPU baseline uses `*_auto`.\n\
         The element-wise kernels take the same lanes under the same rule; on a host\n\
         without them both columns time the scalar loop."
    )
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

/// Extension — projecting HEAX beyond the paper's parameter range.
///
/// The paper stops at `n = 2^14` ("choosing 2^15 (or higher) results in
/// enormous computation blow-up and are also rarely used in practice").
/// The architecture derivation and resource/performance models are fully
/// parametric, so this answers: what *would* a Set-D (`n = 2^15`,
/// bootstrapping-class modulus) instantiation look like on the Stratix 10?
pub fn extension_scaling(out: &mut dyn Write) -> io::Result<()> {
    // Sweep (n, k) from the paper's sets up to Set-D: n = 2^15, k = 16
    // (a ~880-bit modulus, the bootstrapping-capable regime).
    let s10 = Board::stratix10();
    let mut rows = Vec::new();
    for (name, n, k) in [
        ("Set-A", 1usize << 12, 2usize),
        ("Set-B", 1 << 13, 4),
        ("Set-C", 1 << 14, 8),
        ("Set-D*", 1 << 15, 16),
    ] {
        // Re-run the automatic derivation loop at this scale.
        let chosen = (0..=5u32).rev().find_map(|log_nc| {
            let arch = arch_for_intt0(n, k, 1 << log_nc);
            arch.validate().ok()?;
            let placement = KskPlacement::choose(&s10, &arch);
            let total = design_resources(&s10, &arch, placement);
            total
                .fits_within(s10.budget())
                .then_some((arch, placement, total))
        });
        let mut row = vec![
            name.to_string(),
            format!("2^{}", n.trailing_zeros()),
            k.to_string(),
        ];
        match chosen {
            Some((arch, placement, total)) => {
                let interval = arch.steady_interval_cycles();
                let ops = s10.cycles_to_ops_per_sec(interval);
                let interval_us = interval as f64 / s10.freq_hz() * 1e6;
                let dram_ok = DramModel::for_board(&s10).sustains_ksk(n, k, interval_us);
                row.extend([
                    arch.summary(),
                    format!("{:?}", placement),
                    format!("{:.0}%", 100.0 * total.alm as f64 / s10.budget().alm as f64),
                    format!("{ops:.0}"),
                    if dram_ok { "ok" } else { "INSUFFICIENT" }.to_string(),
                ]);
            }
            None => row.extend(["does not fit", "-", "-", "-", "-"].map(String::from)),
        }
        rows.push(row);
    }
    write_table(
        out,
        "Extension: scaling the derivation beyond the paper (Stratix 10)",
        "Set|n|k|derived architecture|ksk|ALM|KeySwitch/s|DRAM BW",
        &rows,
    )?;

    // The DRAM feasibility cliff for Set-D.
    let n = 1usize << 15;
    let k = 16usize;
    let arch = arch_for_intt0(n, k, 8);
    let interval_us = arch.steady_interval_cycles() as f64 / s10.freq_hz() * 1e6;
    writeln!(out)?;
    writeln!(
        out,
        "Set-D* ksk = {:.0} Mb per op; at a {:.0} us interval the stream needs {:.1} GBps \
         (Stratix 10 has {:.0}).",
        DramModel::ksk_bits(n, k) as f64 / 1e6,
        interval_us,
        DramModel::required_ksk_gbps(n, k, interval_us),
        s10.dram_bandwidth_gbps(),
    )?;
    let base = base_design_resources(&s10, &arch);
    let with_keys = base + ksk_bram(n, k);
    writeln!(
        out,
        "on-chip keys would need {} M20K of the chip's {} — off-chip is forced.",
        with_keys.m20k,
        s10.budget().m20k
    )?;
    writeln!(
        out,
        "\n(*) Set-D is this reproduction's extrapolation, not a paper configuration."
    )
}

/// Extension — empirical noise growth across the modulus chain.
///
/// CKKS correctness (and therefore everything Tables 7/8 measure) rests on
/// noise staying far below the scale. This measures slot error after each
/// operation of a multiply-rescale ladder on every parameter set,
/// demonstrating that the reproduction's noise behaviour is sane: error
/// grows roughly linearly in the number of relinearizations and the
/// budget shrinks by ~log2(p) per rescale.
pub fn noise_growth(out: &mut dyn Write) -> io::Result<()> {
    for set in ParamSet::ALL {
        eprintln!("preparing {set} ...");
        let ctx = CkksContext::new(CkksParams::from_set(set).expect("params")).expect("ctx");
        let mut rng = StdRng::seed_from_u64(7);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng);
        let rlk = RelinKey::generate(&ctx, &sk, &mut rng);
        let enc = CkksEncoder::new(&ctx);
        let eval = Evaluator::new(&ctx);
        let scale = ctx.params().scale();

        // Square repeatedly with full scale management: after each
        // square+rescale the scale has drifted from Δ (the rescaling prime
        // is not exactly Δ), so we renormalize by multiplying with 1.0
        // encoded at a compensating scale — the standard production
        // technique (costs one extra level per step). Without this, the
        // scale collapses below 1 after ~3 levels and quantization error
        // explodes; with it, error grows gently.
        let x = 1.1f64;
        let pt = enc
            .encode_real(&[x], scale, ctx.max_level())
            .expect("encode");
        let mut ct = Encryptor::new(&ctx, &pk)
            .encrypt(&pt, &mut rng)
            .expect("encrypt");
        let mut expect = x;
        let noise_row = |label: String, ct: &Ciphertext, expect: f64| {
            let rep = measure_noise_real(&ctx, &sk, ct, &[expect]).expect("noise");
            let [err, budget] = [rep.log2_max_error, rep.budget_bits].map(|v| format!("{v:.1}"));
            vec![label, ct.level().to_string(), err, budget]
        };
        let mut rows = vec![noise_row("fresh".into(), &ct, expect)];
        let mut power = 1u32;
        while ct.level() > 0 {
            ct = eval
                .rescale(&eval.multiply_relin(&ct, &ct, &rlk).expect("mult"))
                .expect("rescale");
            expect *= expect;
            power *= 2;
            // Renormalize the scale to Δ if a level remains for it.
            if ct.level() > 0 && !heax_ckks::eval::scales_match(ct.scale(), scale) {
                let p_l = ctx.moduli()[ct.level()].value() as f64;
                let one = enc
                    .encode_scalar(1.0, p_l * scale / ct.scale(), ct.level())
                    .expect("encode one");
                ct = eval
                    .rescale(&eval.multiply_plain(&ct, &one).expect("align"))
                    .expect("rescale align");
            }
            rows.push(noise_row(
                format!("square -> x^{power} (+renorm)"),
                &ct,
                expect,
            ));
        }
        write_table(
            out,
            &format!(
                "Noise growth ladder — {set} (scale 2^{})",
                scale.log2() as u32
            ),
            "operation|level|log2 max err|budget bits",
            &rows,
        )?;
    }
    writeln!(
        out,
        "\nBudget bits = log2(q_l) - 1 - log2(scale) - log2(max err): the headroom\n\
         left before decryption fails. Each level trades ~one prime's bits of\n\
         modulus; with per-step scale renormalization the error stays small\n\
         until the chain is exhausted."
    )
}
