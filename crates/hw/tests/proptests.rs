//! Property tests for the hardware models: scheduler invariants under
//! randomized architectures, BRAM packing laws, and word-size-model
//! monotonicity.

use heax_hw::bram::BankLayout;
use heax_hw::keyswitch_pipeline::{schedule, KeySwitchArch, Station};
use heax_hw::ntt_dataflow::NttModuleConfig;
use heax_hw::wordsize::{dsps_per_multiplier, moduli_needed, MultiplierStyle};
use proptest::prelude::*;

fn arb_arch() -> impl Strategy<Value = KeySwitchArch> {
    (
        prop::sample::select(vec![4096usize, 8192, 16384]),
        1usize..=8,                                // k
        prop::sample::select(vec![4usize, 8, 16]), // nc_intt0
        prop::sample::select(vec![1usize, 2, 4]),  // m0
    )
        .prop_map(|(n, k, nc_intt0, m0)| {
            // The paper's rule m0 = min(k, 4): more modules than RNS
            // components would idle (k NTT0 jobs round-robin over m0
            // modules), unbalancing the pipeline the f1/f2 formulas assume.
            let m0 = m0.min(k);
            let log_n = n.trailing_zeros() as u64;
            let nc_ntt0 = (k * nc_intt0 / m0).max(1).next_power_of_two();
            let nc_dyad = ((4 * nc_ntt0 as u64).div_ceil(log_n) as usize)
                .next_power_of_two()
                .max(1);
            KeySwitchArch {
                n,
                k,
                nc_intt0,
                m0,
                nc_ntt0,
                num_dyad: m0 + 1,
                nc_dyad,
                nc_intt1: (nc_intt0 / k).max(1).next_power_of_two(),
                nc_ntt1: nc_intt0,
                nc_ms: 2,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No station ever runs two jobs at once, completions are monotone,
    /// and the job counts per op are exactly k INTT0 / k² NTT0 /
    /// k·(m0+1) Dyad jobs.
    #[test]
    fn schedule_invariants(arch in arb_arch()) {
        prop_assume!(arch.validate().is_ok());
        let ops = 5usize;
        let sched = schedule(&arch, ops).unwrap();
        // Monotone completions.
        for w in sched.op_completion.windows(2) {
            prop_assert!(w[1] > w[0]);
        }
        // Exclusivity per station.
        let stations: Vec<Station> =
            sched.station_busy().iter().map(|(s, _)| *s).collect();
        for s in stations {
            let mut evs: Vec<_> =
                sched.events.iter().filter(|e| e.station == s).collect();
            evs.sort_by_key(|e| e.start);
            for w in evs.windows(2) {
                prop_assert!(w[1].start >= w[0].end);
            }
        }
        // Job counts for a middle op.
        let op = 2usize;
        let count =
            |pred: &dyn Fn(&Station) -> bool| sched.events.iter()
                .filter(|e| e.op == op && pred(&e.station)).count();
        prop_assert_eq!(count(&|s| *s == Station::Intt0), arch.k);
        prop_assert_eq!(count(&|s| matches!(s, Station::Ntt0(_))), arch.k * arch.k);
        prop_assert_eq!(count(&|s| matches!(s, Station::Dyad(_))), arch.k * arch.num_dyad);
        // Steady interval is at least the bottleneck closed form.
        prop_assert!(sched.steady_interval >= arch.k as u64 * arch.intt0_cycles()
            || sched.steady_interval >= arch.steady_interval_cycles());
    }

    /// Buffer demand never exceeds the provisioning formulas.
    #[test]
    fn buffer_formulas_are_upper_bounds(arch in arb_arch()) {
        prop_assume!(arch.validate().is_ok());
        let sched = schedule(&arch, 8).unwrap();
        prop_assert!(sched.input_buffers_needed() <= arch.f1());
        prop_assert!(sched.accumulator_buffers_needed() <= arch.f2());
    }

    /// BRAM packing: provisioned bits always cover the payload; packed
    /// layout never uses more M20Ks than the naive one; utilization in
    /// (0, 1].
    #[test]
    fn bank_packing_laws(
        log_n in 9u32..15,
        beta in prop::sample::select(vec![2u64, 4, 8, 16, 32]),
    ) {
        let n = 1u64 << log_n;
        let bank = BankLayout::polynomial(n, beta);
        prop_assert!(bank.payload_bits() <= bank.resources().bram_bits);
        prop_assert!(bank.m20k_units() <= bank.naive_m20k_units());
        let u = bank.utilization();
        prop_assert!(u > 0.0 && u <= 1.0);
        prop_assert!(bank.width_utilization() >= bank.naive_width_utilization());
    }

    /// NTT module cycle formula scales linearly in 1/cores and the stage
    /// split always sums to log n.
    #[test]
    fn ntt_config_laws(
        log_n in 8u32..15,
        log_nc in 2u32..5,
    ) {
        prop_assume!(log_nc + 2 <= log_n);
        let n = 1usize << log_n;
        let nc = 1usize << log_nc;
        let cfg = NttModuleConfig::new(n, nc).unwrap();
        let dbl = NttModuleConfig::new(n, nc * 2);
        if let Ok(dbl) = dbl {
            prop_assert_eq!(cfg.transform_cycles(), 2 * dbl.transform_cycles());
        }
        let t1 = (0..cfg.log_n()).filter(|&s| {
            cfg.stage_kind(s) == heax_hw::ntt_dataflow::StageKind::Type1
        }).count() as u32;
        prop_assert_eq!(t1, cfg.log_n() - cfg.log_nc() - 1);
        prop_assert!(cfg.transform_cycles_basic() >= cfg.transform_cycles());
    }

    /// Word-size model: DSPs per multiplier grow with width; Toom-Cook
    /// never exceeds naive; modulus count shrinks with wider words.
    #[test]
    fn wordsize_monotonicity(w1 in 27u32..80, w2 in 27u32..80, bits in 50u32..500) {
        let (lo, hi) = if w1 <= w2 { (w1, w2) } else { (w2, w1) };
        prop_assert!(
            dsps_per_multiplier(lo, MultiplierStyle::Naive)
                <= dsps_per_multiplier(hi, MultiplierStyle::Naive)
        );
        prop_assert!(
            dsps_per_multiplier(hi, MultiplierStyle::ToomCook)
                <= dsps_per_multiplier(hi, MultiplierStyle::Naive)
        );
        prop_assert!(moduli_needed(bits, hi) <= moduli_needed(bits, lo));
    }

    /// Board-level pipeline scheduler invariants under random op
    /// streams, architectures, and core counts: per-core compute
    /// exclusivity, DMA-channel exclusivity, stall/busy accounting
    /// consistency, FIFO backpressure respected, and monotone
    /// improvement when cores are added.
    #[test]
    fn board_scheduler_invariants(
        arch in arb_arch(),
        cores in 1usize..=4,
        picks in prop::collection::vec(0usize..7, 1..12),
    ) {
        prop_assume!(arch.validate().is_ok());
        use heax_hw::ir::{IrOp, OpKind};
        use heax_hw::scheduler::PipelineConfig;
        let mult = heax_hw::mult_dataflow::MultModuleConfig::new(arch.n, 16).unwrap();
        let board = heax_hw::board::Board::stratix10();
        let ops: Vec<IrOp> = picks.iter().map(|&p| match p {
            0 => IrOp::new(OpKind::Multiply),
            1 => IrOp::new(OpKind::Relinearize),
            2 => IrOp::new(OpKind::Rotate),
            3 => IrOp::rotate_many(3),
            4 => IrOp::new(OpKind::Rescale),
            5 => IrOp::new(OpKind::Add),
            _ => IrOp::new(OpKind::Fetch).with_parked_input(),
        }).collect();
        let cfg = PipelineConfig::new(&board, arch, mult, cores).unwrap();
        let r = cfg.schedule_stream(&ops).unwrap();

        // Every op scheduled, on a valid core, with sane spans.
        prop_assert_eq!(r.ops.len(), ops.len());
        for t in &r.ops {
            prop_assert!(t.core < cores);
            prop_assert!(t.xfer_in.1 >= t.xfer_in.0);
            prop_assert!(t.compute.0 >= t.xfer_in.1);
            prop_assert!(t.compute.1 >= t.compute.0);
            prop_assert!(t.xfer_out.0 >= t.compute.1);
            prop_assert!(t.xfer_out.1 >= t.xfer_out.0);
        }
        // Compute exclusivity per core.
        for core in 0..cores {
            let mut evs: Vec<_> = r.ops.iter().filter(|t| t.core == core).collect();
            evs.sort_by_key(|t| t.compute.0);
            for w in evs.windows(2) {
                prop_assert!(w[1].compute.0 >= w[0].compute.1);
            }
        }
        // DMA-channel exclusivity (nonzero transfers only).
        for get in [
            |t: &heax_hw::scheduler::OpTiming| t.xfer_in,
            |t: &heax_hw::scheduler::OpTiming| t.xfer_out,
        ] {
            let mut evs: Vec<(u64, u64)> = r.ops.iter()
                .map(get).filter(|&(s, e)| e > s).collect();
            evs.sort();
            for w in evs.windows(2) {
                prop_assert!(w[1].0 >= w[0].1, "DMA channel overlap");
            }
        }
        // Accounting: core busy equals the compute spans; makespan
        // bounds every resource; FIFO within the configured depth.
        let span: u64 = r.ops.iter().map(|t| t.compute.1 - t.compute.0).sum();
        prop_assert_eq!(r.core_busy(), span);
        prop_assert!(r.core_busy() <= cores as u64 * r.total_cycles);
        // `PipelineConfig::new` double-buffers each core's inputs.
        prop_assert!(r.fifo_high_water <= 2);
        prop_assert!((0.0..=1.0).contains(&r.core_utilization()));

        // More cores never hurt the makespan.
        if cores > 1 {
            let one = PipelineConfig::new(&board, arch, mult, 1)
                .unwrap().schedule_stream(&ops).unwrap();
            prop_assert!(r.total_cycles <= one.total_cycles);
        }
    }
}

/// A random served-shaped IR stream over `sessions` sessions, fused the
/// way a server flush fuses it: each session opens by parking its
/// input under one handle, then `picks` mixes parked-chain steps
/// (rotate, multiply, add, each re-parking the handle and depending on
/// its last writer) with inline rotations of one of two inputs (which
/// fuse into hoisted groups).
fn served_stream(sessions: u64, picks: &[(u64, u8, bool)]) -> Vec<heax_hw::ir::IrOp> {
    use heax_hw::ir::{IrOp, OpKind, OpStream};
    let mut stream = OpStream::new();
    let mut last_writer: Vec<u32> = Vec::new();
    for s in 1..=sessions {
        last_writer.push(stream.len() as u32);
        stream.push(
            IrOp::new(OpKind::Fetch)
                .with_session(s)
                .with_parked_output()
                .with_output_id(s),
        );
    }
    for &(s, kind, other_input) in picks {
        let s = 1 + s % sessions;
        let op = match kind % 4 {
            0 => OpKind::Rotate,
            1 => OpKind::Multiply,
            2 => OpKind::Add,
            _ => {
                // An inline rotation: ids past every handle's.
                let input = 100 * s + u64::from(other_input);
                stream.push(
                    IrOp::new(OpKind::Rotate)
                        .with_session(s)
                        .with_input_id(input),
                );
                continue;
            }
        };
        let writer = &mut last_writer[(s - 1) as usize];
        let step = IrOp::new(op)
            .with_session(s)
            .with_parked_input()
            .with_input_id(s)
            .with_parked_output()
            .with_output_id(s)
            .with_dep(*writer);
        *writer = stream.len() as u32;
        stream.push(step);
    }
    stream.fuse_rotations().ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fault invariants, where the faults live: a seeded
    /// [`FaultPlan`](heax_hw::faults::FaultPlan) over a served-shaped
    /// stream reshapes placement and timing only. Every request is still
    /// answered, survivors never outnumber boards, an empty plan loses
    /// nothing, and recovery work only appears beside the faults that
    /// caused it — at boards {2, 4} × cores {1, 4}.
    #[test]
    fn faulted_cluster_accounting_is_coherent(
        sessions in 2u64..=3,
        picks in prop::collection::vec((0u64..3, 0u8..4, any::<bool>()), 1..16),
        fault_seed in 0u64..1000,
        crash_level in 0u32..=2,
    ) {
        use heax_hw::cluster::{ClusterConfig, RoutingPolicy};
        use heax_hw::faults::{FaultPlan, FaultRates};
        use heax_hw::keyswitch_pipeline::KeySwitchArch;
        use heax_hw::scheduler::PipelineConfig;
        let arch = KeySwitchArch {
            n: 8192,
            k: 4,
            nc_intt0: 16,
            m0: 4,
            nc_ntt0: 16,
            num_dyad: 5,
            nc_dyad: 8,
            nc_intt1: 4,
            nc_ntt1: 16,
            nc_ms: 4,
        };
        let mult = heax_hw::mult_dataflow::MultModuleConfig::new(arch.n, 16).unwrap();
        let ops = served_stream(sessions, &picks);
        let ids: Vec<u64> = (1..=sessions).collect();
        let policy = RoutingPolicy::Affinity { steal: true };
        let rates = FaultRates {
            crash: f64::from(crash_level) * 0.25,
            slowdown: 0.4,
            link: 0.4,
            dma: 0.4,
            ksk_corruption: 0.4,
        };
        for (boards, cores) in [(2usize, 1usize), (2, 4), (4, 1), (4, 4)] {
            let board = PipelineConfig::new(&heax_hw::board::Board::stratix10(), arch, mult, cores)
                .unwrap();
            let c = ClusterConfig::new(board, boards).unwrap();
            // An empty plan (the healthy entry point delegates to the
            // faulted one with `FaultPlan::none()`) loses nothing.
            let healthy = c.schedule_stream(&ops, policy).unwrap();
            prop_assert_eq!(healthy.boards_alive(), boards);
            prop_assert_eq!(healthy.failovers, 0);
            prop_assert_eq!(healthy.re_replications, 0);
            prop_assert_eq!(healthy.recovery_cycles, 0);

            let plan = FaultPlan::generate(fault_seed, boards, healthy.total_cycles, &ids, &rates);
            let s = match c.schedule_stream_faulted(&ops, policy, &plan) {
                Ok(s) => s,
                // The one refusal: a plan that crashes every board.
                Err(_) => {
                    let crashed = (0..boards).filter(|&b| plan.crash_cycle(b).is_some()).count();
                    prop_assert_eq!(crashed, boards);
                    continue;
                }
            };
            prop_assert_eq!(s.requests(), healthy.requests());
            prop_assert!(s.boards_alive() <= boards);
            prop_assert!(s.re_replications >= s.failovers);
            prop_assert!(s.re_replications >= s.corrupt_ksk_evictions);
        }
    }
}

/// Builds a stream from drawn `(kind, group size, flag bits, reply
/// limbs, dependency, session)` tuples: every kind, parked and inline
/// operands, seeded inputs, compressed replies, preset key uploads, and
/// up to two dependency edges on random earlier ops.
fn drawn_stream(picks: &[(usize, usize, u8, u8, usize, u64)]) -> Vec<heax_hw::ir::IrOp> {
    use heax_hw::ir::{IrOp, OpKind};
    picks
        .iter()
        .enumerate()
        .map(|(index, &(kind, count, flags, limbs, dep, session))| {
            let kind = match kind {
                0 => OpKind::Multiply,
                1 => OpKind::Relinearize,
                2 => OpKind::Rotate,
                3 => OpKind::RotateMany {
                    count,
                    parked_outputs: count / 2,
                },
                4 => OpKind::Rescale,
                5 => OpKind::Add,
                _ => OpKind::Fetch,
            };
            let mut op = IrOp::new(kind)
                .with_session(session)
                .with_reply_limbs(limbs);
            if flags & 1 != 0 {
                op = op.with_parked_input();
            }
            if flags & 2 != 0 {
                op = op.with_parked_output().with_output_id(index as u64 + 1);
            }
            if flags & 4 != 0 {
                op = op.with_seeded_input();
            }
            if flags & 8 != 0 {
                op = op.with_ksk_upload();
            }
            if flags & 16 != 0 && index > 0 {
                op = op.with_dep((dep % index) as u32);
            }
            if flags & 32 != 0 && index > 1 {
                op = op.with_dep((dep / 7 % index) as u32);
            }
            op
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The router, against an oracle it does not share code with: a
    /// one-board affinity cluster with no faults hands its board the
    /// stream unchanged except for one key upload per residency miss —
    /// the first key-consuming op of each session, and every anonymous
    /// one — so its board report is the board model's on that stream:
    /// every `OpTiming`, the makespan, the stage busy cycles and the
    /// FIFO high-water.
    #[test]
    fn a_one_board_cluster_is_the_board_model(
        picks in prop::collection::vec(
            (0usize..7, 1usize..6, 0u8..64, 0u8..6, 0usize..512, 0u64..4),
            0..48,
        ),
        cores in 1usize..=4,
        depth in 1usize..=4,
        steal in any::<bool>(),
    ) {
        use heax_hw::cluster::{ClusterConfig, RoutingPolicy};
        use heax_hw::faults::FaultPlan;
        use heax_hw::keyswitch_pipeline::KeySwitchArch;
        use heax_hw::scheduler::PipelineConfig;
        let arch = KeySwitchArch {
            n: 8192,
            k: 4,
            nc_intt0: 16,
            m0: 4,
            nc_ntt0: 16,
            num_dyad: 5,
            nc_dyad: 8,
            nc_intt1: 4,
            nc_ntt1: 16,
            nc_ms: 4,
        };
        let mult = heax_hw::mult_dataflow::MultModuleConfig::new(arch.n, 16).unwrap();
        let board = PipelineConfig::new(&heax_hw::board::Board::stratix10(), arch, mult, cores)
            .unwrap()
            .with_input_fifo_depth(depth);
        let ops = drawn_stream(&picks);

        let mut warm = std::collections::HashSet::new();
        let mut misses = 0u64;
        let expected: Vec<_> = ops
            .iter()
            .map(|op| {
                let miss = op.needs_ksk() && (op.session == 0 || warm.insert(op.session));
                misses += u64::from(miss);
                if miss { op.with_ksk_upload() } else { *op }
            })
            .collect();
        let want = board.schedule_stream(&expected).unwrap();

        let cluster = ClusterConfig::new(board, 1).unwrap();
        let policy = RoutingPolicy::Affinity { steal };
        let got = cluster.schedule_stream_faulted(&ops, policy, &FaultPlan::none()).unwrap();
        prop_assert_eq!(got.boards.len(), 1);
        let b = &got.boards[0];
        prop_assert_eq!(&b.ops, &want.ops);
        prop_assert_eq!(b.total_cycles, want.total_cycles);
        prop_assert_eq!(got.total_cycles, want.total_cycles);
        prop_assert_eq!(&b.stage_busy, &want.stage_busy);
        prop_assert_eq!(b.fifo_high_water, want.fifo_high_water);
        prop_assert!(got.assignment.iter().all(|&a| a == 0));
        prop_assert_eq!(got.cross_board_deps, 0);
        prop_assert_eq!(got.steals, 0);
        prop_assert_eq!(got.routing_misses, misses);
    }
}

/// The board by brute force. Ops are placed in stream order; each of an
/// op's decisions is found by stepping a clock from cycle 0, one cycle
/// at a time, until the resources it needs are free at that cycle, read
/// off the ops placed so far. Each op's input transfer, compute and
/// output transfer lengths, label and request count come from a
/// schedule of that op alone, so what is checked is the placement, not
/// the lowering (the transfer-table proptest checks that).
///
/// The rules: an op takes the core that frees first (lowest index on a
/// tie); its input transfer waits for the host→board channel and for a
/// FIFO position on that core (fewer than `depth` of the core's earlier
/// ops still unfinished, buffer holders or not); its compute waits for
/// the core, its producers and its input; its output transfer waits
/// for the board→host channel. A parked leg takes no channel time.
/// Returns the timings, the makespan and the FIFO high-water (the most
/// input buffers one core holds at an acquisition).
fn stepped_board(
    cfg: &heax_hw::scheduler::PipelineConfig,
    ops: &[heax_hw::ir::IrOp],
    cores: usize,
    depth: usize,
) -> (Vec<heax_hw::scheduler::OpTiming>, u64, u64) {
    use heax_hw::ir::{IrOp, NO_DEP};
    use heax_hw::scheduler::OpTiming;
    let mut placed: Vec<OpTiming> = Vec::with_capacity(ops.len());
    let mut high_water = 0u64;
    for (index, op) in ops.iter().enumerate() {
        let alone = cfg
            .schedule_stream(&[IrOp {
                deps: [NO_DEP; 2],
                ..*op
            }])
            .unwrap()
            .ops[0];
        let length = |(start, end): (u64, u64)| end - start;
        let (input, compute, output) = (
            length(alone.xfer_in),
            length(alone.compute),
            length(alone.xfer_out),
        );
        let core_free =
            |core: usize, t: u64| placed.iter().all(|p| p.core != core || p.compute.1 <= t);

        let mut t = 0;
        let core = loop {
            if let Some(core) = (0..cores).find(|&c| core_free(c, t)) {
                break core;
            }
            t += 1;
        };

        let (mut xfer_in, mut fifo_stall) = ((0, 0), 0);
        if input > 0 {
            let channel_free = |t: u64| placed.iter().all(|p| p.xfer_in.1 <= t);
            let fifo_open = |t: u64| {
                placed
                    .iter()
                    .filter(|p| p.core == core && p.compute.1 > t)
                    .count()
                    < depth
            };
            let mut t = 0;
            while !(channel_free(t) && fifo_open(t)) {
                fifo_stall += u64::from(channel_free(t));
                t += 1;
            }
            xfer_in = (t, t + input);
            let held = placed
                .iter()
                .filter(|p| {
                    p.core == core
                        && p.xfer_in.1 > p.xfer_in.0
                        && p.xfer_in.0 <= t
                        && t < p.compute.1
                })
                .count() as u64;
            high_water = high_water.max(held + 1);
        }

        let deps_done = |t: u64| op.dep_indices().all(|d| placed[d].compute.1 <= t);
        let (mut t, mut input_stall) = (0, 0);
        loop {
            let ready = core_free(core, t) && deps_done(t);
            if ready && t >= xfer_in.1 {
                break;
            }
            input_stall += u64::from(ready);
            t += 1;
        }
        let compute = (t, t + compute);

        let (mut t, mut output_stall) = (compute.1, 0);
        if output > 0 {
            while !placed
                .iter()
                .all(|p| p.xfer_out.1 == p.xfer_out.0 || p.xfer_out.1 <= t)
            {
                t += 1;
                output_stall += 1;
            }
        }

        placed.push(OpTiming {
            index,
            label: alone.label,
            core,
            requests: alone.requests,
            xfer_in,
            compute,
            xfer_out: (t, t + output),
            input_stall,
            output_stall,
            fifo_stall,
        });
    }
    let makespan = placed.iter().map(|p| p.xfer_out.1).max().unwrap_or(0);
    (placed, makespan, high_water)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The board scheduler against [`stepped_board`], which shares no
    /// scheduling code with it: up to 8 ops of every kind with parked,
    /// seeded, compressed and key-upload flags and up to two backward
    /// dependency edges, on a Set-A board of 1–4 cores with FIFO depth
    /// 1–4. Every `OpTiming`, the makespan and the FIFO high-water agree.
    #[test]
    fn the_board_model_is_the_stepped_reference(
        picks in prop::collection::vec(
            (0usize..7, 1usize..6, 0u8..64, 0u8..3, 0usize..512, 0u64..4),
            0..=8,
        ),
        cores in 1usize..=4,
        depth in 1usize..=4,
    ) {
        use heax_hw::keyswitch_pipeline::KeySwitchArch;
        use heax_hw::scheduler::PipelineConfig;
        let arch = KeySwitchArch {
            n: 4096,
            k: 2,
            nc_intt0: 16,
            m0: 2,
            nc_ntt0: 16,
            num_dyad: 3,
            nc_dyad: 8,
            nc_intt1: 8,
            nc_ntt1: 16,
            nc_ms: 4,
        };
        let mult = heax_hw::mult_dataflow::MultModuleConfig::new(arch.n, 16).unwrap();
        let cfg = PipelineConfig::new(&heax_hw::board::Board::stratix10(), arch, mult, cores)
            .unwrap()
            .with_input_fifo_depth(depth);
        let ops = drawn_stream(&picks);
        let got = cfg.schedule_stream(&ops).unwrap();
        let (ops_want, makespan, high_water) = stepped_board(&cfg, &ops, cores, depth);
        prop_assert_eq!(&got.ops, &ops_want);
        prop_assert_eq!(got.total_cycles, makespan);
        prop_assert_eq!(got.fifo_high_water, high_water);
    }
}
