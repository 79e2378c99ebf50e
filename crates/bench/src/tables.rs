//! Tables 1–8 of the paper's evaluation.

use std::io::{self, Write};

use crate::{fmt_delta, fmt_ops, fmt_speedup, measure_ops_per_sec, write_table};
use heax_ckks::{
    Ciphertext, CkksContext, CkksEncoder, CkksParams, Encryptor, Evaluator, ParamSet, PublicKey,
    RelinKey, SecretKey,
};
use heax_core::arch::DesignPoint;
use heax_core::perf::{estimate, paper_cpu_ops_per_sec, paper_heax_ops_per_sec, HeaxOp};
use heax_core::resources::{module_cost, ModuleKind};
use heax_hw::board::Board;
use heax_hw::cores::CoreKind;
use heax_hw::mult_dataflow::MultModuleConfig;
use heax_hw::ntt_dataflow::NttModuleConfig;
use heax_hw::xfer::DramModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Table 1 as published, per board: the chip family, then the DSP, REG,
/// ALM, BRAM, #M20K, #chnl and BW cells in the table's column order.
pub const TABLE1_PAPER: [(&str, [&str; 7]); 2] = [
    (
        "Arria 10",
        ["1518", "1.71M", "427K", "53Mb", "2.7K", "2", "34"],
    ),
    (
        "Stratix 10",
        ["5760", "3.73M", "933K", "229Mb", "11.7K", "4", "64"],
    ),
];

/// Table 1 — Summary of FPGA boards' specifications.
pub fn table1(out: &mut dyn Write) -> io::Result<()> {
    let rows: Vec<Vec<String>> = [Board::arria10(), Board::stratix10()]
        .iter()
        .map(|b| {
            vec![
                b.name().to_string(),
                b.chip().to_string(),
                b.budget().dsp.to_string(),
                format!("{:.2}M", b.budget().reg as f64 / 1e6),
                format!("{}K", b.budget().alm / 1000),
                format!("{:.0}Mb", b.budget().bram_bits as f64 / f64::from(1 << 20)),
                format!("{:.1}K", b.budget().m20k as f64 / 1000.0),
                b.dram_channels().to_string(),
                format!("{:.0}", b.dram_bandwidth_gbps()),
            ]
        })
        .collect();
    write_table(
        out,
        "Table 1: FPGA board specifications",
        "Board|Chip|DSP|REG|ALM|BRAM bits|#M20K|#chnl|BW (GBps)",
        &rows,
    )?;
    for (i, (chip, [dsp, reg, alm, bram, m20k, chnl, bw])) in TABLE1_PAPER.iter().enumerate() {
        let lead = ["\nPaper values:", "             "][i];
        writeln!(
            out,
            "{lead} {chip} — {dsp} DSP, {reg} REG, {alm} ALM, {bram}, {m20k} M20K, {chnl} ch, {bw} GBps"
        )?;
    }
    Ok(())
}

/// Table 2 — HE parameter sets, with the concrete generated prime chains.
pub fn table2(out: &mut dyn Write) -> io::Result<()> {
    let mut rows = Vec::new();
    for set in ParamSet::ALL {
        let p = CkksParams::from_set(set).expect("built-in set");
        rows.push(vec![
            set.name().to_string(),
            format!("2^{}", p.n().trailing_zeros()),
            p.total_modulus_bits().to_string(),
            p.k().to_string(),
            format!("2^{}", (p.scale()).log2() as u32),
            p.moduli()
                .iter()
                .map(|&q| format!("{}b", 64 - q.leading_zeros()))
                .collect::<Vec<_>>()
                .join("+"),
        ]);
    }
    write_table(
        out,
        "Table 2: HE parameter sets (plus generated chains)",
        "Set|n|log qp +1|k|scale|prime chain (last = special)",
        &rows,
    )?;
    writeln!(
        out,
        "\nPaper: Set-A (2^12, 109, 2), Set-B (2^13, 218, 4), Set-C (2^14, 438, 8).\n\
         All primes satisfy p = 1 mod 2n and p < 2^52 (54-bit datapath bound)."
    )
}

/// Table 3 — Resource consumption of each computation core.
pub fn table3(out: &mut dyn Write) -> io::Result<()> {
    let rows: Vec<Vec<String>> = CoreKind::ALL
        .iter()
        .map(|k| {
            let c = k.cost();
            vec![
                k.name().to_string(),
                c.dsp.to_string(),
                c.reg.to_string(),
                c.alm.to_string(),
                k.pipeline_stages().to_string(),
            ]
        })
        .collect();
    write_table(
        out,
        "Table 3: per-core resources (model = paper's measured values)",
        "Core|DSP|REG|ALM|#Stages",
        &rows,
    )?;
    writeln!(
        out,
        "\nThese are the paper's measured per-core costs, used as the unit\n\
         costs of the resource model (DSP counts follow from the 54-bit\n\
         datapath: a 54x54 product uses four 27-bit DSPs)."
    )
}

/// Table 4 — Resource consumption and cycle counts of the basic modules
/// at 4/8/16/32 cores.
///
/// Two sources are printed side by side:
/// * the calibrated model of `heax_core::resources::module_cost` (exact at
///   the calibration points, by construction);
/// * the dataflow simulators' cycle counts, next to the paper's "Cycles"
///   column — which, as documented in EXPERIMENTS.md, matches `n = 2^12`
///   for NTT/INTT even though the BRAM figures are quoted for Set-B
///   (`n = 2^13`), and is a further 2× lower for the 16/32-core MULT rows.
pub fn table4(out: &mut dyn Write) -> io::Result<()> {
    let n_bram = 8192; // BRAM figures quoted for Set-B
    let n_cycles = 4096; // cycle figures consistent with n = 2^12

    let paper_cycles_mult = [1024u64, 512, 128, 64];
    let paper_cycles_ntt = [6144u64, 3072, 1536, 768];

    for (kind, label, paper_cycles) in [
        (ModuleKind::Mult, "MULT", &paper_cycles_mult),
        (ModuleKind::Ntt, "NTT", &paper_cycles_ntt),
        (ModuleKind::Intt, "INTT", &paper_cycles_ntt),
    ] {
        let mut rows = Vec::new();
        for (i, cores) in [4usize, 8, 16, 32].into_iter().enumerate() {
            let r = module_cost(kind, cores, n_bram);
            let model_cycles = match kind {
                ModuleKind::Mult => MultModuleConfig::new(n_cycles, cores)
                    .expect("valid")
                    .pair_cycles(),
                _ => NttModuleConfig::new(n_cycles, cores)
                    .expect("valid")
                    .transform_cycles(),
            };
            rows.push(vec![
                cores.to_string(),
                r.dsp.to_string(),
                r.reg.to_string(),
                r.alm.to_string(),
                r.bram_bits.to_string(),
                r.m20k.to_string(),
                model_cycles.to_string(),
                paper_cycles[i].to_string(),
            ]);
        }
        write_table(
            out,
            &format!("Table 4: {label} module (BRAM @ n=2^13; cycles @ n=2^12)"),
            "#Cores|DSP|REG|ALM|BRAM bits|#M20K|model cyc|paper cyc",
            &rows,
        )?;
    }
    writeln!(
        out,
        "\nFormulas: NTT/INTT n*log n/(2*nc); MULT pair n/nc. The paper's\n\
         16/32-core MULT cycle entries are 2x below the formula (its 4/8-core\n\
         entries match); Tables 7-8 confirm the formulas — see EXPERIMENTS.md."
    )
}

/// Table 5 — KeySwitch architecture parameters, derived automatically.
pub fn table5(out: &mut dyn Write) -> io::Result<()> {
    let mut rows = Vec::new();
    for (dp, paper_row) in DesignPoint::paper_rows()
        .iter()
        .zip(DesignPoint::PAPER_ARCHS)
    {
        let derived = dp.arch.summary();
        rows.push(vec![
            dp.board.chip().split(' ').next().unwrap_or("").to_string(),
            dp.set.to_string(),
            derived.clone(),
            if derived == paper_row {
                "exact"
            } else {
                "DIFFERS"
            }
            .to_string(),
        ]);
    }
    write_table(
        out,
        "Table 5: derived KeySwitch architectures (vs paper)",
        "FPGA|Set|derived architecture|vs paper",
        &rows,
    )?;
    writeln!(out)?;
    for dp in DesignPoint::paper_rows() {
        writeln!(
            out,
            "{:10} {}: f1 = {}, f2 = {}, steady interval = {} cycles, ksk in {:?}",
            dp.board.name(),
            dp.set,
            dp.arch.f1(),
            dp.arch.f2(),
            dp.arch.steady_interval_cycles(),
            dp.ksk_placement,
        )?;
    }
    Ok(())
}

/// Table 6 as published, in [`DesignPoint::paper_rows`] order
/// (Arria/Set-A, Stratix/Set-A, Set-B, Set-C): DSP, REG, ALM, BRAM bits,
/// M20K and frequency in MHz.
pub const TABLE6_PAPER: [[u64; 6]; 4] = [
    [1185, 723_188, 246_323, 26_596_320, 1731, 275],
    [2018, 1_554_005, 582_148, 26_907_592, 3986, 300],
    [2610, 1_976_162, 698_884, 201_332_624, 10_340, 300],
    [2370, 1_746_384, 599_715, 182_847_524, 9329, 300],
];

/// Table 6 — Resource consumption of the complete design per parameter
/// set, model vs paper.
pub fn table6(out: &mut dyn Write) -> io::Result<()> {
    let mut rows = Vec::new();
    for (dp, [dsp, reg, alm, _, m20k, freq]) in DesignPoint::paper_rows().iter().zip(TABLE6_PAPER) {
        let r = dp.resources();
        let budget = dp.board.budget();
        let u = r.utilization_pct(budget);
        rows.push(vec![
            format!("{}/{}", dp.board.name(), dp.set),
            format!("{} ({:.0}%)", r.dsp, u.dsp),
            fmt_delta(r.dsp as f64, dsp as f64),
            format!("{} ({:.0}%)", r.reg, u.reg),
            fmt_delta(r.reg as f64, reg as f64),
            format!("{} ({:.0}%)", r.alm, u.alm),
            fmt_delta(r.alm as f64, alm as f64),
            format!("{} ({:.0}%)", r.m20k, u.m20k),
            fmt_delta(r.m20k as f64, m20k as f64),
            freq.to_string(),
        ]);
    }
    write_table(
        out,
        "Table 6: complete-design resources — model (vs paper delta)",
        "Design|DSP|dDSP|REG|dREG|ALM|dALM|M20K|dM20K|Freq MHz",
        &rows,
    )?;
    writeln!(out)?;
    for (dp, paper) in DesignPoint::paper_rows().iter().zip(TABLE6_PAPER) {
        let (r, bram_bits) = (dp.resources(), paper[3]);
        writeln!(
            out,
            "{}/{}: BRAM bits model {} vs paper {} ({})",
            dp.board.name(),
            dp.set,
            r.bram_bits,
            bram_bits,
            fmt_delta(r.bram_bits as f64, bram_bits as f64)
        )?;
    }
    writeln!(
        out,
        "\nDSP is derived purely from core counts and matches the paper exactly for\n\
         three of four rows (Set-C differs by 60 DSP = six 10-DSP cores; the\n\
         paper's Table 5 INTT(1) row and Table 6 DSP count disagree internally).\n\
         REG/ALM use Table 4 module calibration; BRAM is modeled from the bank\n\
         inventory and is the least certain column (ksk bank replication for\n\
         parallel DyadMult reads is not specified in the paper)."
    )
}

/// One Table 7/8 row: the CPU rate measured here next to the HEAX model
/// and the paper's two columns.
fn ops_row(dp: &DesignPoint, op: HeaxOp, cpu: f64) -> Vec<String> {
    let heax = estimate(dp, op);
    let paper_cpu = paper_cpu_ops_per_sec(dp.set, op);
    let paper_heax = paper_heax_ops_per_sec(&dp.board, dp.set, op).expect("row");
    vec![
        format!("{}/{}", dp.board.name(), dp.set),
        op.name().to_string(),
        fmt_ops(cpu),
        fmt_ops(heax.ops_per_sec),
        fmt_speedup(heax.ops_per_sec / cpu),
        fmt_ops(paper_cpu),
        fmt_ops(paper_heax),
        fmt_speedup(paper_heax / paper_cpu),
    ]
}

const OPS_HEADERS: &str = "Design|Op|our CPU|HEAX model|speedup|paper CPU|paper HEAX|paper spd";

/// Table 7 — low-level operations per second: CPU (measured here for
/// `budget_ms` per row) vs HEAX (deterministic model), next to the
/// paper's published figures.
///
/// Absolute CPU numbers differ from the paper's Xeon Silver 4108 — what
/// must reproduce is the *shape*: HEAX beats the CPU by an order of
/// magnitude on every low-level op, with ratios growing slightly with the
/// parameter set.
pub fn table7(out: &mut dyn Write, budget_ms: u64) -> io::Result<()> {
    let mut rows = Vec::new();
    for dp in DesignPoint::paper_rows() {
        let ctx = CkksContext::new(CkksParams::from_set(dp.set).expect("params")).expect("ctx");
        let (table, m) = (ctx.ntt_table(0), ctx.moduli()[0]);
        let residue: Vec<u64> = (0..ctx.n() as u64)
            .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15) % m.value())
            .collect();
        let mut residue_ntt = residue.clone();
        table.forward(&mut residue_ntt);
        // SEAL-style lazy kernels — what the library itself uses.
        let mut buf = residue.clone();
        let ntt = measure_ops_per_sec(|| table.forward_auto(&mut buf), budget_ms);
        let mut buf = residue_ntt.clone();
        let intt = measure_ops_per_sec(|| table.inverse_auto(&mut buf), budget_ms);
        let mut b = residue;
        let dyadic = measure_ops_per_sec(
            || {
                for (x, y) in b.iter_mut().zip(&residue_ntt) {
                    *x = m.mul_mod(*x, *y);
                }
            },
            budget_ms,
        );
        rows.push(ops_row(&dp, HeaxOp::Ntt, ntt));
        rows.push(ops_row(&dp, HeaxOp::Intt, intt));
        rows.push(ops_row(&dp, HeaxOp::Dyadic, dyadic));
    }
    write_table(
        out,
        "Table 7: low-level ops/second — this repro vs paper",
        OPS_HEADERS,
        &rows,
    )?;
    writeln!(
        out,
        "\nHEAX-model column is deterministic (cycles/frequency) and matches the\n\
         paper's HEAX column to <0.1% on all rows. CPU columns differ by host."
    )
}

/// Table 8 — high-level operations per second (KeySwitch, MULT+ReLin):
/// CPU (measured for `budget_ms` per row) vs HEAX (model), plus the §5.1
/// DRAM bandwidth check.
pub fn table8(out: &mut dyn Write, budget_ms: u64) -> io::Result<()> {
    let mut rows = Vec::new();
    for dp in DesignPoint::paper_rows() {
        eprintln!("preparing {} / {} ...", dp.board.name(), dp.set);
        let ctx = CkksContext::new(CkksParams::from_set(dp.set).expect("params")).expect("ctx");
        let (rlk, ct_a, ct_b) = sample_operands(&ctx);
        let eval = Evaluator::new(&ctx);
        let ct_prod = eval.multiply(&ct_a, &ct_b).expect("multiply");
        let (c2, level) = (ct_prod.component(2), ct_prod.level());
        let switch = || eval.key_switch(c2, rlk.ksk(), level).expect("keyswitch");
        let key_switch = measure_ops_per_sec(|| drop(switch()), budget_ms);
        let relin = || eval.multiply_relin(&ct_a, &ct_b, &rlk).expect("relin");
        let mult_relin = measure_ops_per_sec(|| drop(relin()), budget_ms);
        rows.push(ops_row(&dp, HeaxOp::KeySwitch, key_switch));
        rows.push(ops_row(&dp, HeaxOp::MultRelin, mult_relin));
    }
    write_table(
        out,
        "Table 8: high-level ops/second — this repro vs paper",
        OPS_HEADERS,
        &rows,
    )?;

    // §5.1 footer: ksk streaming feasibility for Set-C.
    let dp = DesignPoint::paper_rows().into_iter().last().expect("set-c");
    let interval_us = estimate(&dp, HeaxOp::KeySwitch).op_us;
    let required = DramModel::required_ksk_gbps(dp.set.n(), dp.set.k(), interval_us);
    let dram = DramModel::for_board(&dp.board);
    writeln!(
        out,
        "\n-- Section 5.1 DRAM check (Set-C keys streamed from DRAM) --\n\
         ksk size = {:.1} Mb, KeySwitch interval = {:.0} us -> required BW = {:.2} GBps; \
         available = {:.0} GBps over {} channels -> {}",
        DramModel::ksk_bits(dp.set.n(), dp.set.k()) as f64 / 1e6,
        interval_us,
        required,
        dram.bandwidth_gbps,
        dram.channels,
        if dram.sustains_ksk(dp.set.n(), dp.set.k(), interval_us) {
            "SUSTAINED (paper: 49.28 GBps < 64 GBps)"
        } else {
            "NOT SUSTAINED"
        }
    )
}

/// A relinearization key and two fresh top-level ciphertexts under a
/// fixed seed: the operands of Table 8's CPU baseline.
fn sample_operands(ctx: &CkksContext) -> (RelinKey, Ciphertext, Ciphertext) {
    let mut rng = StdRng::seed_from_u64(0x4845_4158); // "HEAX"
    let sk = SecretKey::generate(ctx, &mut rng);
    let pk = PublicKey::generate(ctx, &sk, &mut rng);
    let rlk = RelinKey::generate(ctx, &sk, &mut rng);
    let enc = CkksEncoder::new(ctx);
    let encryptor = Encryptor::new(ctx, &pk);
    let mut encrypt = |vals: Vec<f64>| {
        let pt = enc.encode_real(&vals, ctx.params().scale(), ctx.max_level());
        encryptor
            .encrypt(&pt.expect("encode"), &mut rng)
            .expect("encrypt")
    };
    let ct_a = encrypt((0..8).map(|i| i as f64 * 0.5 + 1.0).collect());
    let ct_b = encrypt((0..8).map(|i| 2.0 - i as f64 * 0.25).collect());
    (rlk, ct_a, ct_b)
}
