//! The simulated figures, pinned: FNV-1a over every [`OpTiming`] field
//! and every report counter of one seeded served-shaped stream,
//! scheduled three ways — on one 4-core board, on a 4-board cluster,
//! and on that cluster under a fixed [`FaultPlan`] that crashes a board,
//! slows one, stalls a link, degrades a DMA channel and corrupts a
//! resident key.
//!
//! The hashes were committed from the schedulers as they stood before
//! their per-op lowering and FIFO sweep were rewritten; any change to a
//! cycle, a placement or a counter moves one. A failure prints every
//! hash, so a change that is *meant* to move the model can update the
//! table below (and must say why).

use heax_hw::board::Board;
use heax_hw::cluster::{ClusterConfig, ClusterReport, RoutingPolicy};
use heax_hw::faults::{FaultKind, FaultPlan};
use heax_hw::ir::{IrOp, OpKind, OpStream};
use heax_hw::keyswitch_pipeline::KeySwitchArch;
use heax_hw::mult_dataflow::MultModuleConfig;
use heax_hw::scheduler::{PipelineConfig, PipelineReport};

/// `(name, hash)` of each schedule, from the parent's schedulers.
const GOLDEN: [(&str, u64); 3] = [
    ("board", 0x9e70_ff5b_2f6e_1764),
    ("cluster", 0x89fd_0a43_35f7_22fc),
    ("faulted", 0xb955_68c8_c52c_b63a),
];

/// FNV-1a, 64-bit, over a sequence of words (little-endian bytes).
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// SplitMix64: a seeded generator that needs no crate.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// Table 5 row: Stratix 10, Set-B (n = 2^13, k = 4).
fn set_b() -> KeySwitchArch {
    KeySwitchArch {
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
    }
}

fn board() -> PipelineConfig {
    let arch = set_b();
    let mult = MultModuleConfig::new(arch.n, 16).unwrap();
    PipelineConfig::new(&Board::stratix10(), arch, mult, 4).unwrap()
}

/// A served-shaped stream, lowered the way the server lowers wire
/// requests: `sessions` sessions each submit `rounds` jobs in a seeded
/// order — a fan-out of compressed rotations of one seeded input, single
/// rotations of fresh inputs, an inline add, or a parked chain
/// (multiply → rescale → rotate → add, each reading its predecessor's
/// parked result) — and the stream is fused as a flush fuses it.
fn served_stream(seed: u64, sessions: u64, rounds: usize) -> Vec<IrOp> {
    let mut rng = SplitMix(seed);
    let mut stream = OpStream::new();
    let mut next_id = 0u64;
    let mut fresh = || {
        next_id += 1;
        next_id
    };
    for _ in 0..rounds {
        let mut order: Vec<u64> = (1..=sessions).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for session in order {
            match rng.below(4) {
                0 => {
                    let input = fresh();
                    for _ in 0..1 + rng.below(8) {
                        stream.push(
                            IrOp::new(OpKind::Rotate)
                                .with_session(session)
                                .with_input_id(input)
                                .with_seeded_input()
                                .with_reply_limbs(1),
                        );
                    }
                }
                1 => {
                    for _ in 0..1 + rng.below(4) {
                        stream.push(
                            IrOp::new(OpKind::Rotate)
                                .with_session(session)
                                .with_input_id(fresh()),
                        );
                    }
                }
                2 => stream.push(IrOp::new(OpKind::Add).with_session(session)),
                _ => {
                    let (m, r, t) = (fresh(), fresh(), fresh());
                    let at = stream.len() as u32;
                    stream.push(
                        IrOp::new(OpKind::Multiply)
                            .with_session(session)
                            .with_parked_output()
                            .with_output_id(m),
                    );
                    stream.push(
                        IrOp::new(OpKind::Rescale)
                            .with_session(session)
                            .with_parked_input()
                            .with_input_id(m)
                            .with_dep(at)
                            .with_parked_output()
                            .with_output_id(r),
                    );
                    stream.push(
                        IrOp::new(OpKind::Rotate)
                            .with_session(session)
                            .with_parked_input()
                            .with_input_id(r)
                            .with_dep(at + 1)
                            .with_parked_output()
                            .with_output_id(t),
                    );
                    stream.push(
                        IrOp::new(OpKind::Add)
                            .with_session(session)
                            .with_parked_input()
                            .with_input_id(t)
                            .with_dep(at + 2),
                    );
                }
            }
        }
    }
    stream.fuse_rotations().ops
}

fn hash_board(h: &mut Fnv, r: &PipelineReport) {
    h.word(r.num_cores as u64);
    h.word(r.total_cycles);
    h.word(r.fifo_high_water);
    for &(class, busy) in &r.stage_busy {
        h.bytes(class.name().as_bytes());
        h.word(busy);
    }
    h.word(r.ops.len() as u64);
    for t in &r.ops {
        h.word(t.index as u64);
        h.bytes(t.label.as_bytes());
        for w in [
            t.core as u64,
            t.requests,
            t.xfer_in.0,
            t.xfer_in.1,
            t.compute.0,
            t.compute.1,
            t.xfer_out.0,
            t.xfer_out.1,
            t.input_stall,
            t.output_stall,
            t.fifo_stall,
        ] {
            h.word(w);
        }
    }
}

fn hash_cluster(r: &ClusterReport) -> u64 {
    let mut h = Fnv::new();
    for w in [
        r.num_boards as u64,
        r.total_cycles,
        r.routing_hits,
        r.routing_misses,
        r.steals,
        r.replication_bytes,
        r.cross_board_deps,
        r.failovers,
        r.re_replications,
        r.corrupt_ksk_evictions,
        r.parked_rematerializations,
        r.recovery_cycles,
    ] {
        h.word(w);
    }
    for &b in &r.assignment {
        h.word(b as u64);
    }
    for &alive in &r.board_alive {
        h.word(u64::from(alive));
    }
    for b in &r.boards {
        hash_board(&mut h, b);
    }
    h.0
}

/// The fixed plan: board 0 crashes a third of the way through its
/// healthy load, board 1 runs 40 % slow, board 2's link stalls and its
/// DMA degrades, and board 3 corrupts a session's resident key early.
fn fault_plan(healthy: &ClusterReport, victim_session: u64) -> FaultPlan {
    let board0_load: u64 = healthy.boards[0]
        .ops
        .iter()
        .map(|t| t.compute.1 - t.compute.0)
        .sum();
    FaultPlan::none()
        .with_event(0, board0_load / 3, FaultKind::BoardCrash)
        .with_event(1, 0, FaultKind::BoardSlowdown { pct: 40 })
        .with_event(2, 0, FaultKind::LinkStall { stall_cycles: 700 })
        .with_event(
            2,
            0,
            FaultKind::DmaDegrade {
                in_pct: 30,
                out_pct: 15,
            },
        )
        .with_event(
            3,
            1_000,
            FaultKind::KskCorruption {
                session: victim_session,
            },
        )
}

#[test]
fn schedules_match_the_committed_hashes() {
    let ops = served_stream(0x4845_4158, 300, 2);
    let policy = RoutingPolicy::Affinity { steal: true };
    let board = board();
    let cluster = ClusterConfig::new(board.clone(), 4).unwrap();

    let one = board.schedule_stream(&ops).unwrap();
    let mut h = Fnv::new();
    hash_board(&mut h, &one);
    let board_hash = h.0;

    let healthy = cluster.schedule_stream(&ops, policy).unwrap();
    // The corrupted key belongs to the first session routed to board 3
    // that consumes a key there again later.
    let victim = ops
        .iter()
        .zip(&healthy.assignment)
        .filter(|&(op, &b)| b == 3 && op.session != 0 && op.needs_ksk())
        .map(|(op, _)| op.session)
        .next()
        .expect("board 3 serves a keyed session");
    let plan = fault_plan(&healthy, victim);
    let faulted = cluster
        .schedule_stream_faulted(&ops, policy, &plan)
        .unwrap();
    // The plan exercises every recovery path the hashes cover.
    assert!(!faulted.board_alive[0]);
    assert!(faulted.failovers > 0);
    assert!(faulted.parked_rematerializations > 0);
    assert!(faulted.corrupt_ksk_evictions > 0);
    assert!(healthy.steals > 0);
    assert!(one.stalls().fifo_backpressure > 0 || one.fifo_high_water > 1);

    let got = [
        ("board", board_hash),
        ("cluster", hash_cluster(&healthy)),
        ("faulted", hash_cluster(&faulted)),
    ];
    let table: Vec<String> = got
        .iter()
        .map(|(name, h)| format!("    (\"{name}\", {h:#018x}),"))
        .collect();
    assert_eq!(
        got,
        GOLDEN,
        "a simulated figure moved; the schedules now hash to\n{}",
        table.join("\n")
    );
}
