//! Accelerator deep-dive: derive the HEAX design for every board/set,
//! run a real KeySwitch through the cycle-accurate hardware model with
//! bit-exact verification (exits nonzero on any model/evaluator
//! mismatch), and schedule a served workload on the board-level
//! pipeline, printing its full `PipelineReport` (Figure 7).
//!
//! ```text
//! cargo run --release --example accelerator_sim
//! ```

use heax::accel::accel::HeaxAccelerator;
use heax::accel::arch::DesignPoint;
use heax::accel::perf::{estimate, estimate_stream, HeaxOp};
use heax::accel::system::{HeaxSystem, OperandLocation};
use heax::ckks::{
    CkksContext, CkksEncoder, CkksParams, Encryptor, Evaluator, ParamSet, PublicKey, RelinKey,
    SecretKey,
};
use heax::hw::board::Board;
use heax::hw::ir::IrOp;
use heax::hw::keyswitch_pipeline::schedule;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Architecture derivation for all paper design points.
    println!("== derived HEAX design points (Table 5) ==");
    for dp in DesignPoint::paper_rows() {
        let r = dp.resources();
        let u = r.utilization_pct(dp.board.budget());
        println!(
            "{} / {}: {}\n    DSP {:.0}%  ALM {:.0}%  M20K {:.0}%  | ksk in {:?}",
            dp.board.name(),
            dp.set,
            dp.arch.summary(),
            u.dsp,
            u.alm,
            u.m20k,
            dp.ksk_placement
        );
    }

    // 2. Functional KeySwitch through the hardware, verified bit-exactly.
    println!("\n== functional hardware KeySwitch on Set-A (Stratix 10) ==");
    let ctx = CkksContext::new(CkksParams::from_set(ParamSet::SetA)?)?;
    let mut rng = StdRng::seed_from_u64(7);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let pk = PublicKey::generate(&ctx, &sk, &mut rng);
    let rlk = RelinKey::generate(&ctx, &sk, &mut rng);
    let encoder = CkksEncoder::new(&ctx);
    let scale = ctx.params().scale();
    let ct = Encryptor::new(&ctx, &pk).encrypt(
        &encoder.encode_real(&[1.0, 2.0], scale, ctx.max_level())?,
        &mut rng,
    )?;
    let eval = Evaluator::new(&ctx);
    let prod = eval.multiply(&ct, &ct)?;

    let accel = HeaxAccelerator::new(&ctx, Board::stratix10())?;
    let ((f0, f1), _) = accel.key_switch(prod.component(2), rlk.ksk(), prod.level())?;
    let (g0, g1) = eval.key_switch(prod.component(2), rlk.ksk(), prod.level())?;
    if (&f0, &f1) != (&g0, &g1) {
        eprintln!("error: hardware KeySwitch disagrees with the golden model");
        std::process::exit(1);
    }
    println!("hardware == golden model ✓");

    // 3. Pipeline schedule (Figure 6 for this configuration).
    let sched = schedule(accel.arch(), 3)?;
    println!("\npipeline ({}):", accel.arch().summary());
    print!("{}", sched.gantt(sched.op_completion[2], 100));

    // 4. Board-level pipeline: the 8-client x 8-rotation serving
    // workload scheduled across 1 and 4 HEAX cores with overlapped
    // PCIe transfers (Figure 7).
    println!("\n== board-level pipeline (8 clients x 8 hoisted rotations) ==");
    let dp = DesignPoint::derive(Board::stratix10(), ParamSet::SetA)?;
    let workload = vec![IrOp::rotate_many(8); 8];
    for cores in [1usize, 4] {
        print!("\n{}", estimate_stream(&dp, &workload, cores)?.render());
    }

    // 5. System view: batched throughput with PCIe overlap (Figure 7).
    println!("\n== system batch model (1024 MULT+ReLin ops) ==");
    let op_rep = accel.report(HeaxOp::MultRelin, ct.level(), 1)?;
    let sys = HeaxSystem::new(HeaxAccelerator::new(&ctx, Board::stratix10())?);
    for (label, loc) in [
        ("operands from host (PCIe)", OperandLocation::Host),
        ("operands in board DRAM   ", OperandLocation::BoardDram),
    ] {
        let r = sys.batch(&op_rep, 1024, loc);
        println!(
            "{label}: compute {:.1} ms, pcie {:.1} ms, wall {:.1} ms -> {:.0} ops/s",
            r.compute_us / 1e3,
            r.pcie_us / 1e3,
            r.total_us / 1e3,
            r.ops_per_sec
        );
    }

    // 6. Table 8 summary for this set.
    let dp = DesignPoint::derive(Board::stratix10(), ParamSet::SetA)?;
    let e = estimate(&dp, HeaxOp::KeySwitch);
    println!(
        "\nmodel KeySwitch rate: {:.0} ops/s (paper: 97656 ops/s; 200.5x over its Xeon baseline)",
        e.ops_per_sec
    );
    Ok(())
}
