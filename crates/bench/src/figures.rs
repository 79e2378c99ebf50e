//! Figures 2, 4 and 6 of the paper, as text.

use std::io::{self, Write};

use crate::write_table;
use heax_core::arch::DesignPoint;
use heax_hw::board::Board;
use heax_hw::keyswitch_pipeline::schedule;
use heax_hw::ntt_dataflow::{access, NttModuleConfig, StageKind};

/// Figure 2 — Type-1 / Type-2 access patterns of the NTT module, plus a
/// verification sweep of the (corrected) address-generation formula.
pub fn figure2(out: &mut dyn Write) -> io::Result<()> {
    // Visualize the Figure 2 example shape: a small NTT with 4 MEs.
    let (n, nc) = (64usize, 4usize);
    let cfg = NttModuleConfig::new(n, nc).expect("valid");
    writeln!(
        out,
        "NTT access pattern, n = {n}, ncNTT = {nc} (ME = {} coeffs):\n",
        cfg.me_words()
    )?;
    for stage in 0..cfg.log_n() {
        let t = n >> (stage + 1);
        let kind = cfg.stage_kind(stage);
        let pairing = if t >= cfg.me_words() {
            format!("partner ME stride {}", t / cfg.me_words())
        } else {
            format!("within-ME pairs, distance {t}")
        };
        writeln!(
            out,
            "  stage {stage:2}: distance {t:4} -> {:?} ({pairing})",
            kind
        )?;
    }

    // Verify the corrected Addr{ME_coeff} formula against ground truth on
    // the paper's own configuration (n = 2^12, nc = 8, pre-doubling MEs).
    let (log_n, log_nc) = (12u32, 3u32);
    let (mut checked, mut wrong) = (0u64, 0u64);
    for i in 0..(log_n - log_nc - 1) {
        let steps = (1u64 << (log_n - log_nc)) / 2;
        for h in 0..steps {
            let (lo, hi) = access::ground_truth_pair(i, h, log_n, log_nc);
            wrong += u64::from(access::addr_me_coeff(i, 2 * h, log_n, log_nc) != lo);
            wrong += u64::from(access::addr_me_coeff(i, 2 * h + 1, log_n, log_nc) != hi);
            checked += 2;
        }
    }
    let verdict = match wrong {
        0 => "all match the ground-truth pairing".to_string(),
        _ => format!("{wrong} DIFFER from the ground-truth pairing"),
    };
    writeln!(
        out,
        "\nAddress formula check (n=2^12, nc=8): {checked} generated addresses, {verdict}."
    )?;
    writeln!(
        out,
        "Paper's worked example: stage 0 step 0 pairs ME0 with ME256 -> formula gives ({}, {}).",
        access::addr_me_coeff(0, 0, log_n, log_nc),
        access::addr_me_coeff(0, 1, log_n, log_nc)
    )?;
    writeln!(
        out,
        "(The published formula's last term reads 's*(j mod 2)'; the working"
    )?;
    writeln!(
        out,
        " form is '(j mod 2)*2^(s+1)' — see heax_hw::ntt_dataflow::access::addr_me_coeff.)"
    )?;

    // Count stage types across the paper's configurations.
    writeln!(
        out,
        "\nStage-type split (Type-1 = first log n - log nc - 1 stages):"
    )?;
    for (n, nc) in [(4096usize, 8usize), (8192, 16), (16384, 16)] {
        let cfg = NttModuleConfig::new(n, nc).expect("valid");
        let t1 = (0..cfg.log_n())
            .filter(|&s| cfg.stage_kind(s) == StageKind::Type1)
            .count();
        writeln!(
            out,
            "  n = {n:6}, nc = {nc:2}: {t1} Type-1 + {} Type-2 stages",
            cfg.log_n() as usize - t1
        )?;
    }
    Ok(())
}

/// Figure 4 — basic vs optimized (two-stage read/compute/write) NTT
/// pipeline: core utilization and cycle counts.
pub fn figure4(out: &mut dyn Write) -> io::Result<()> {
    let mut rows = Vec::new();
    for (n, nc) in [
        (4096usize, 8usize),
        (4096, 16),
        (8192, 16),
        (16384, 8),
        (16384, 16),
    ] {
        let cfg = NttModuleConfig::new(n, nc).expect("valid");
        rows.push(vec![
            n.to_string(),
            nc.to_string(),
            cfg.transform_cycles_basic().to_string(),
            cfg.transform_cycles().to_string(),
            format!("{:.0}%", 100.0 * cfg.basic_pipeline_utilization()),
            "100%".to_string(),
        ]);
    }
    write_table(
        out,
        "Figure 4: NTT pipeline — basic (50% Type-1 bubble) vs optimized",
        "n|ncNTT|basic cyc|opt cyc|basic util|opt util",
        &rows,
    )?;
    writeln!(
        out,
        "\nThe optimized pipeline doubles ME width (2*nc coefficients) so two\n\
         reads feed two computes and two writes back-to-back, removing the\n\
         50% bubble of Type-1 stages (first log n - log nc - 1 stages)."
    )
}

/// Figure 6 — the KeySwitch pipeline schedule: an ASCII Gantt chart of
/// several overlapped KeySwitch operations on the Stratix 10 / Set-B
/// architecture, plus station utilization.
pub fn figure6(out: &mut dyn Write) -> io::Result<()> {
    let dp = DesignPoint::derive(Board::stratix10(), heax_ckks::ParamSet::SetB).expect("fits");
    let arch = dp.arch;
    let ops = 4;
    let sched = schedule(&arch, ops).expect("valid arch");

    writeln!(out, "KeySwitch pipeline, {} ({})", dp.set, arch.summary())?;
    writeln!(
        out,
        "steady interval = {} cycles ({:.1} us at {} MHz) -> {:.0} KeySwitch/s\n",
        sched.steady_interval,
        sched.steady_interval as f64 / dp.board.freq_hz() * 1e6,
        dp.board.freq_mhz(),
        dp.board.cycles_to_ops_per_sec(sched.steady_interval),
    )?;
    let horizon = sched.op_completion[ops - 1];
    writeln!(
        out,
        "Gantt ({} cycles, digits = op index; k = {} iterations per op):",
        horizon, arch.k
    )?;
    write!(out, "{}", sched.gantt(horizon, 110))?;

    writeln!(out, "\nStation busy cycles over {horizon} total:")?;
    let mut busy = sched.station_busy();
    busy.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
    for (station, cycles) in busy {
        writeln!(
            out,
            "  {:10} {:>8} cycles ({:.0}%)",
            station.to_string(),
            cycles,
            100.0 * cycles as f64 / horizon as f64
        )?;
    }
    writeln!(
        out,
        "\nBuffering: f1 = {} input-poly buffers (quadruple buffering of §5.2), \
         f2 = {} accumulator buffers.",
        arch.f1(),
        arch.f2()
    )?;
    writeln!(
        out,
        "measured demand from the schedule: input buffers {} (+1 PCIe write-ahead), \
         accumulator buffers {} — both within the f1/f2 provisioning.",
        sched.input_buffers_needed(),
        sched.accumulator_buffers_needed()
    )?;
    writeln!(
        out,
        "first-op latency = {} cycles (pipeline fill + drain)",
        sched.first_op_latency
    )
}
