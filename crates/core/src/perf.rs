//! Closed-form performance model — the HEAX columns of Tables 7 and 8.
//!
//! All HEAX datapaths are statically scheduled, so throughput is exactly
//! `clock frequency / initiation-interval cycles`. The cycle counts come
//! from the dataflow simulators / Section 4 formulas:
//!
//! * NTT/INTT: `n·log n / (2·nc)` with the standalone module size of
//!   Section 6.3 (16 cores on Stratix 10, 8 on Arria 10);
//! * Dyadic: `n / ncDYD` with the 16-core MULT module;
//! * KeySwitch: the pipeline's steady interval, `k · cycles(INTT0)`;
//! * MULT+Relin: the MULT module runs concurrently with KeySwitch, so the
//!   composite rate equals the KeySwitch rate.

use heax_ckks::params::ParamSet;
use heax_hw::board::Board;
use heax_hw::ir::IrOp;
use heax_hw::scheduler::PipelineReport;
use heax_hw::HwError;

use crate::arch::DesignPoint;

/// The operations measured in Tables 7 and 8.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HeaxOp {
    /// Forward NTT of one polynomial (Table 7).
    Ntt,
    /// Inverse NTT of one polynomial (Table 7).
    Intt,
    /// Dyadic multiplication of one polynomial pair (Table 7).
    Dyadic,
    /// Full key switching of one ciphertext (Table 8).
    KeySwitch,
    /// Homomorphic multiply + relinearize (Table 8).
    MultRelin,
}

impl HeaxOp {
    /// All ops, table order.
    pub const ALL: [HeaxOp; 5] = [
        HeaxOp::Ntt,
        HeaxOp::Intt,
        HeaxOp::Dyadic,
        HeaxOp::KeySwitch,
        HeaxOp::MultRelin,
    ];

    /// Table row label.
    pub fn name(self) -> &'static str {
        match self {
            HeaxOp::Ntt => "NTT",
            HeaxOp::Intt => "INTT",
            HeaxOp::Dyadic => "Dyadic",
            HeaxOp::KeySwitch => "KeySwitch",
            HeaxOp::MultRelin => "MULT+ReLin",
        }
    }
}

/// Performance estimate for one operation at one design point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PerfEstimate {
    /// Initiation-interval cycles.
    pub cycles: u64,
    /// Steady-state throughput in operations/second.
    pub ops_per_sec: f64,
    /// Time per operation in microseconds.
    pub op_us: f64,
}

/// Computes the HEAX-side estimate for an operation at a design point.
pub fn estimate(dp: &DesignPoint, op: HeaxOp) -> PerfEstimate {
    let cycles = match op {
        HeaxOp::Ntt | HeaxOp::Intt => dp.ntt_config().transform_cycles(),
        HeaxOp::Dyadic => dp.mult_config().pair_cycles(),
        HeaxOp::KeySwitch | HeaxOp::MultRelin => dp.arch.steady_interval_cycles(),
    };
    let ops_per_sec = dp.board.cycles_to_ops_per_sec(cycles);
    PerfEstimate {
        cycles,
        ops_per_sec,
        op_us: 1e6 / ops_per_sec,
    }
}

/// Schedules a high-level op stream on the board-level pipeline of a
/// design point with `num_cores` HEAX cores — the whole-machine
/// counterpart of the per-op [`estimate`]: where `estimate` reads off
/// one module's initiation interval, this plays a mixed stream through
/// the [`heax_hw::scheduler`] with overlapped PCIe/DRAM transfers and
/// returns the full [`PipelineReport`] (utilization, FIFO high-water,
/// stall breakdown).
///
/// # Errors
///
/// Propagates configuration/stream validation from the scheduler.
pub fn estimate_stream(
    dp: &DesignPoint,
    ops: &[IrOp],
    num_cores: usize,
) -> Result<PipelineReport, HwError> {
    dp.pipeline_config(num_cores)?.schedule_stream(ops)
}

/// The paper's published numbers for cross-checking (ops/second).
/// Indexed by `(board, set, op)`; `None` where the paper has no row
/// (Arria 10 was only evaluated on Set-A).
pub fn paper_heax_ops_per_sec(board: &Board, set: ParamSet, op: HeaxOp) -> Option<f64> {
    use heax_hw::board::BoardKind::*;
    use HeaxOp::*;
    use ParamSet::*;
    let v = match (board.kind(), set, op) {
        (ArriaA10, SetA, Ntt) => 89_518.0,
        (ArriaA10, SetA, Intt) => 89_518.0,
        (ArriaA10, SetA, Dyadic) => 1_074_219.0,
        (ArriaA10, SetA, KeySwitch) => 44_759.0,
        (ArriaA10, SetA, MultRelin) => 44_759.0,
        (StratixS10, SetA, Ntt) => 195_313.0,
        (StratixS10, SetA, Intt) => 195_313.0,
        (StratixS10, SetA, Dyadic) => 1_171_875.0,
        (StratixS10, SetA, KeySwitch) => 97_656.0,
        (StratixS10, SetA, MultRelin) => 97_656.0,
        (StratixS10, SetB, Ntt) => 90_144.0,
        (StratixS10, SetB, Intt) => 90_144.0,
        (StratixS10, SetB, Dyadic) => 585_938.0,
        (StratixS10, SetB, KeySwitch) => 22_536.0,
        (StratixS10, SetB, MultRelin) => 22_536.0,
        (StratixS10, SetC, Ntt) => 41_853.0,
        (StratixS10, SetC, Intt) => 41_853.0,
        (StratixS10, SetC, Dyadic) => 292_969.0,
        (StratixS10, SetC, KeySwitch) => 2_616.0,
        (StratixS10, SetC, MultRelin) => 2_616.0,
        _ => return None,
    };
    Some(v)
}

/// The paper's CPU baseline numbers (ops/second, SEAL 3.3 on a Xeon
/// Silver 4108 @ 1.8 GHz, single thread) — the "CPU" columns of Tables 7
/// and 8, used to report the paper's speed-ups next to ours.
pub fn paper_cpu_ops_per_sec(set: ParamSet, op: HeaxOp) -> f64 {
    use HeaxOp::*;
    use ParamSet::*;
    match (set, op) {
        (SetA, Ntt) => 7222.0,
        (SetA, Intt) => 7568.0,
        (SetA, Dyadic) => 36_931.0,
        (SetA, KeySwitch) => 488.0,
        (SetA, MultRelin) => 420.0,
        (SetB, Ntt) => 3437.0,
        (SetB, Intt) => 3539.0,
        (SetB, Dyadic) => 18_362.0,
        (SetB, KeySwitch) => 97.0,
        (SetB, MultRelin) => 84.0,
        (SetC, Ntt) => 1631.0,
        (SetC, Intt) => 1659.0,
        (SetC, Dyadic) => 9117.0,
        (SetC, KeySwitch) => 16.0,
        (SetC, MultRelin) => 15.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heax_ckks::params::ParamSet;
    use heax_hw::cluster::RoutingPolicy;
    use heax_hw::faults::{FaultKind, FaultPlan};
    use heax_hw::ir::OpKind;
    use heax_hw::scheduler::PipelineConfig;

    /// The fleet stream: `sessions` sessions submitting four wire-return
    /// rotations each, round-robin — the order a front-end router sees.
    fn fleet(sessions: u64) -> Vec<IrOp> {
        (0..4 * sessions)
            .map(|i| IrOp::new(OpKind::Rotate).with_session(1 + i % sessions))
            .collect()
    }

    #[test]
    fn model_matches_every_published_heax_number() {
        // The HEAX columns of Tables 7 and 8 are deterministic; the model
        // must land within rounding distance (<0.1 %) of all 20 figures.
        for dp in DesignPoint::paper_rows() {
            for op in HeaxOp::ALL {
                let got = estimate(&dp, op).ops_per_sec;
                let paper =
                    paper_heax_ops_per_sec(&dp.board, dp.set, op).expect("paper covers all rows");
                let rel = (got - paper).abs() / paper;
                assert!(
                    rel < 1e-3,
                    "{} {} {}: model {got:.1} vs paper {paper}",
                    dp.board.name(),
                    dp.set,
                    op.name()
                );
            }
        }
    }

    #[test]
    fn paper_speedups_reproduced() {
        // Headline claim: 164–268× on Stratix 10 for high-level ops.
        for set in ParamSet::ALL {
            let dp = DesignPoint::derive(heax_hw::board::Board::stratix10(), set).unwrap();
            for op in [HeaxOp::KeySwitch, HeaxOp::MultRelin] {
                let heax = estimate(&dp, op).ops_per_sec;
                let cpu = paper_cpu_ops_per_sec(set, op);
                let speedup = heax / cpu;
                assert!(
                    (160.0..275.0).contains(&speedup),
                    "{set} {}: speed-up {speedup:.1}",
                    op.name()
                );
            }
        }
    }

    #[test]
    fn arria_speedup_near_100x() {
        let dp = DesignPoint::derive(heax_hw::board::Board::arria10(), ParamSet::SetA).unwrap();
        let ks = estimate(&dp, HeaxOp::KeySwitch).ops_per_sec
            / paper_cpu_ops_per_sec(ParamSet::SetA, HeaxOp::KeySwitch);
        assert!((85.0..100.0).contains(&ks), "{ks:.1}");
        let mr = estimate(&dp, HeaxOp::MultRelin).ops_per_sec
            / paper_cpu_ops_per_sec(ParamSet::SetA, HeaxOp::MultRelin);
        assert!((100.0..115.0).contains(&mr), "{mr:.1}");
    }

    #[test]
    fn stream_estimate_consistent_with_per_op_interval() {
        // One rotation's modeled compute occupancy is exactly the
        // KeySwitch initiation interval the Table 8 estimate uses.
        let dp = DesignPoint::derive(heax_hw::board::Board::stratix10(), ParamSet::SetB).unwrap();
        let r = estimate_stream(&dp, &[IrOp::new(OpKind::Rotate)], 1).unwrap();
        let t = &r.ops[0];
        assert_eq!(
            t.compute.1 - t.compute.0,
            estimate(&dp, HeaxOp::KeySwitch).cycles
        );
    }

    #[test]
    fn set_c_streams_keys_from_dram_and_scales_across_cores() {
        // §5.1: only Set-C parks its keys off-chip; the derived pipeline
        // config must reflect the placement, and the modeled 4-core
        // board must clear 2x the 1-core rate on the 8-client workload.
        let board = heax_hw::board::Board::stratix10();
        for (set, in_dram) in [(ParamSet::SetA, false), (ParamSet::SetC, true)] {
            let dp = DesignPoint::derive(board.clone(), set).unwrap();
            let plain = PipelineConfig::new(&board, dp.arch, dp.mult_config(), 1).unwrap();
            assert_eq!(
                dp.pipeline_config(1).unwrap(),
                plain.with_ksk_in_dram(in_dram),
                "{set}"
            );
        }
        let dp = DesignPoint::derive(board, ParamSet::SetC).unwrap();
        let ops = vec![IrOp::rotate_many(8); 8];
        let one = estimate_stream(&dp, &ops, 1).unwrap();
        let four = estimate_stream(&dp, &ops, 4).unwrap();
        assert!(four.requests_per_sec() / one.requests_per_sec() >= 2.0);
    }

    #[test]
    fn pipeline_model_suite_meets_the_acceptance_bar() {
        // The 8-client x 8-rotation workload at every paper set on 1/2/4
        // cores: parking results in board DRAM scales at least as well
        // as returning them over the wire and is never bound by the
        // return leg it does not have. (The wire-return bar itself, 2x
        // on four Set-C cores, is the test above.)
        let wire = vec![IrOp::rotate_many(8); 8];
        let parked = vec![IrOp::rotate_many(8).with_parked_output(); 8];
        for set in ParamSet::ALL {
            let dp = DesignPoint::derive(heax_hw::board::Board::stratix10(), set).unwrap();
            let wire_1 = estimate_stream(&dp, &wire, 1).unwrap();
            let parked_1 = estimate_stream(&dp, &parked, 1).unwrap();
            for cores in [1, 2, 4] {
                let w = estimate_stream(&dp, &wire, cores).unwrap();
                let p = estimate_stream(&dp, &parked, cores).unwrap();
                let wire_scaling = w.requests_per_sec() / wire_1.requests_per_sec();
                let parked_scaling = p.requests_per_sec() / parked_1.requests_per_sec();
                assert!(
                    parked_scaling >= wire_scaling - 1e-9,
                    "{set} x{cores}: parked {parked_scaling:.3} < wire {wire_scaling:.3}"
                );
                assert_ne!(p.bound(), "pcie-out", "{set} x{cores}");
            }
        }
    }

    #[test]
    fn wire_v2_flips_pcie_bound_rows_to_compute() {
        // Seeded uploads plus one-limb replies are never slower than v1
        // wire return, and rescue at least two (set, cores) points that
        // v1 left bound by the PCIe return leg.
        let wire = vec![IrOp::rotate_many(8); 8];
        let wire_v2 = vec![IrOp::rotate_many(8).with_seeded_input().with_reply_limbs(1); 8];
        let mut flips = 0;
        for set in ParamSet::ALL {
            let dp = DesignPoint::derive(heax_hw::board::Board::stratix10(), set).unwrap();
            for cores in [1, 2, 4] {
                let v1 = estimate_stream(&dp, &wire, cores).unwrap();
                let v2 = estimate_stream(&dp, &wire_v2, cores).unwrap();
                assert!(
                    v2.requests_per_sec() >= v1.requests_per_sec() - 1e-9,
                    "wire-v2 slower than wire at {set} x{cores}"
                );
                if v1.bound() == "pcie-out" && v2.bound() == "compute" {
                    flips += 1;
                }
            }
        }
        assert!(flips >= 2, "only {flips} pcie-out points flipped");
    }

    #[test]
    fn cluster_estimate_scales_and_prices_replication() {
        let dp = DesignPoint::derive(heax_hw::board::Board::stratix10(), ParamSet::SetB).unwrap();
        // Eight sessions, four hoisted groups each.
        let ops: Vec<IrOp> = (0..32)
            .map(|i| IrOp::rotate_many(8).with_session(1 + i % 8))
            .collect();
        let affinity = RoutingPolicy::Affinity { steal: false };
        let one_board = dp.cluster_config(1, 1).unwrap();
        let four_boards = dp.cluster_config(4, 1).unwrap();
        let one = one_board.schedule_stream(&ops, affinity).unwrap();
        let four = four_boards.schedule_stream(&ops, affinity).unwrap();
        assert!(four.requests_per_sec() > 2.0 * one.requests_per_sec());
        // One board, affinity: every session's key replicates exactly once.
        assert_eq!(one.routing_misses, 8);
        let random = four_boards
            .schedule_stream(&ops, RoutingPolicy::Random { seed: 1 })
            .unwrap();
        assert!(random.replication_bytes > four.replication_bytes);
    }

    #[test]
    fn faulted_cluster_estimate_degrades_gracefully() {
        let dp = DesignPoint::derive(heax_hw::board::Board::stratix10(), ParamSet::SetB).unwrap();
        let ops: Vec<IrOp> = (0..32)
            .map(|i| IrOp::rotate_many(8).with_session(1 + i % 8))
            .collect();
        let affinity = RoutingPolicy::Affinity { steal: true };
        let cluster = dp.cluster_config(4, 1).unwrap();
        let healthy = cluster.schedule_stream(&ops, affinity).unwrap();
        // Board 0 is gone from the start: the fleet serves everything
        // on the surviving three at better than half throughput.
        let plan = FaultPlan::none().with_event(0, 0, FaultKind::BoardCrash);
        let faulted = cluster
            .schedule_stream_faulted(&ops, affinity, &plan)
            .unwrap();
        assert_eq!(faulted.requests(), healthy.requests());
        assert_eq!(faulted.boards_alive(), 3);
        assert!(faulted.requests_per_sec() >= 0.55 * healthy.requests_per_sec());
        // An empty plan is the fault-free schedule, bit for bit.
        let same = cluster
            .schedule_stream_faulted(&ops, affinity, &FaultPlan::none())
            .unwrap();
        assert_eq!(same.total_cycles, healthy.total_cycles);
        assert_eq!(same.assignment, healthy.assignment);
    }

    #[test]
    fn cluster_affinity_beats_random_at_a_small_fleet_point() {
        // 200 sessions on 4 boards x 4 cores at Set-B, where one ksk is
        // five ciphertexts of PCIe traffic: affinity replicates each
        // session's key once and clears 1.5x random spraying.
        let dp = DesignPoint::derive(heax_hw::board::Board::stratix10(), ParamSet::SetB).unwrap();
        let cluster = dp.cluster_config(4, 4).unwrap();
        let ops = fleet(200);
        let random = cluster
            .schedule_stream(&ops, RoutingPolicy::Random { seed: 0x464C_4545 })
            .unwrap();
        let affinity = cluster
            .schedule_stream(&ops, RoutingPolicy::Affinity { steal: true })
            .unwrap();
        assert_eq!(affinity.routing_misses, 200, "one replication per session");
        assert!(random.routing_misses > affinity.routing_misses);
        assert!(random.replication_bytes > affinity.replication_bytes);
        let speedup = affinity.requests_per_sec() / random.requests_per_sec();
        assert!(speedup >= 1.5, "affinity only {speedup:.2}x over random");
    }

    #[test]
    fn losing_one_of_four_boards_mid_run_retains_most_throughput() {
        // Board 0 crashes at half the compute it accrued in the healthy
        // run (the crash trigger compares routed compute load, not the
        // makespan): three survive, warm sessions fail over, and the
        // fleet keeps at least 55% of healthy throughput.
        let dp = DesignPoint::derive(heax_hw::board::Board::stratix10(), ParamSet::SetB).unwrap();
        let cluster = dp.cluster_config(4, 4).unwrap();
        let ops = fleet(200);
        let policy = RoutingPolicy::Affinity { steal: true };
        let healthy = cluster.schedule_stream(&ops, policy).unwrap();
        let board0_compute: u64 = healthy.boards[0]
            .ops
            .iter()
            .map(|t| t.compute.1 - t.compute.0)
            .sum();
        let plan = FaultPlan::none().with_event(0, board0_compute / 2, FaultKind::BoardCrash);
        let faulted = cluster
            .schedule_stream_faulted(&ops, policy, &plan)
            .unwrap();
        assert_eq!(faulted.boards_alive(), 3);
        assert!(faulted.failovers > 0, "crash must displace warm sessions");
        assert!(faulted.recovery_cycles > 0);
        let retention = faulted.requests_per_sec() / healthy.requests_per_sec();
        assert!(retention >= 0.55, "retained only {retention:.2}");
    }

    #[test]
    fn op_us_consistent() {
        let dp = DesignPoint::derive(heax_hw::board::Board::stratix10(), ParamSet::SetC).unwrap();
        let e = estimate(&dp, HeaxOp::KeySwitch);
        // §5.1 quotes ≈383 µs per Set-C KeySwitch.
        assert!((e.op_us - 382.0).abs() < 2.0, "{}", e.op_us);
    }
}
