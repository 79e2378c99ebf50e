//! Regression tests pinning this reproduction to the paper's published
//! evaluation artifacts (the deterministic HEAX-side numbers).

use heax::accel::arch::DesignPoint;
use heax::accel::perf::{estimate, paper_heax_ops_per_sec, HeaxOp};
use heax::ckks::{CkksParams, ParamSet};
use heax::hw::board::Board;
use heax::hw::keyswitch_pipeline::schedule;
use heax::hw::xfer::DramModel;

#[test]
fn table2_parameter_sets() {
    for (set, n, bits, k) in [
        (ParamSet::SetA, 4096usize, 109u32, 2usize),
        (ParamSet::SetB, 8192, 218, 4),
        (ParamSet::SetC, 16384, 438, 8),
    ] {
        let p = CkksParams::from_set(set).unwrap();
        assert_eq!(p.n(), n);
        assert_eq!(p.total_modulus_bits(), bits);
        assert_eq!(p.k(), k);
        // Every modulus is NTT-friendly and within the 54-bit datapath.
        for &q in p.moduli() {
            assert_eq!(q % (2 * n as u64), 1);
            assert!(64 - q.leading_zeros() <= 52);
        }
    }
}

#[test]
fn table5_architectures_exact() {
    for (dp, want) in DesignPoint::paper_rows()
        .iter()
        .zip(DesignPoint::PAPER_ARCHS)
    {
        assert_eq!(dp.arch.summary(), want, "{} {}", dp.board.name(), dp.set);
    }
}

#[test]
fn tables7_and_8_heax_columns() {
    // All 20 published HEAX ops/s figures, within rounding.
    let mut checked = 0;
    for dp in DesignPoint::paper_rows() {
        for op in HeaxOp::ALL {
            let model = estimate(&dp, op).ops_per_sec;
            let paper = paper_heax_ops_per_sec(&dp.board, dp.set, op).unwrap();
            assert!(
                (model - paper).abs() / paper < 1e-3,
                "{} {} {}: {model} vs {paper}",
                dp.board.name(),
                dp.set,
                op.name()
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 20);
}

#[test]
fn scalability_claim_stratix_doubles_arria() {
    // Section 6.3: the Stratix Set-A instantiation provides 2× the Arria
    // throughput at ~2× the resources.
    let a = DesignPoint::derive(Board::arria10(), ParamSet::SetA).unwrap();
    let s = DesignPoint::derive(Board::stratix10(), ParamSet::SetA).unwrap();
    let ka = estimate(&a, HeaxOp::KeySwitch).cycles;
    let ks = estimate(&s, HeaxOp::KeySwitch).cycles;
    assert_eq!(ka, 2 * ks);
}

#[test]
fn pipeline_schedule_matches_closed_form_for_all_rows() {
    for dp in DesignPoint::paper_rows() {
        let sched = schedule(&dp.arch, 6).unwrap();
        assert_eq!(
            sched.steady_interval,
            dp.arch.steady_interval_cycles(),
            "{}",
            dp.arch.summary()
        );
    }
}

#[test]
fn section_5_1_dram_argument() {
    // 151 Mb of keys per Set-C KeySwitch, streamed in 383 µs, needs
    // 49.28 GBps < the Stratix 10's 64 GBps.
    let dp = DesignPoint::derive(Board::stratix10(), ParamSet::SetC).unwrap();
    let interval_us = estimate(&dp, HeaxOp::KeySwitch).op_us;
    assert!((interval_us - 382.3).abs() < 1.0, "{interval_us}");
    let req = DramModel::required_ksk_gbps(16384, 8, interval_us);
    assert!((req - 49.37).abs() < 0.2, "{req}"); // paper rounds to 49.28
    assert!(DramModel::for_board(&dp.board).sustains_ksk(16384, 8, interval_us));
}

#[test]
fn resource_budgets_never_exceeded() {
    for dp in DesignPoint::paper_rows() {
        let r = dp.resources();
        assert!(
            r.fits_within(dp.board.budget()),
            "{} {} overflows: {r}",
            dp.board.name(),
            dp.set
        );
    }
}
