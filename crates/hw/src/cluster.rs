//! Multi-board cluster scheduler: a front-end router over N modeled
//! HEAX boards, each with its own cores, PCIe DMA channels, DRAM and
//! key-switching-key residency.
//!
//! The paper evaluates one board; a rack serving millions of sessions
//! is N of them behind a router, and the resource that decides where a
//! request should run is not compute — every board has the same cores —
//! but *state*: a session's ksk (2.6 MB at Set-B, 9.4 MB at Set-C,
//! versus a 0.5 MB ciphertext) and its DRAM-parked intermediates. The
//! router therefore models exactly that:
//!
//! * **Session→board affinity** ([`RoutingPolicy::Affinity`]): a
//!   key-consuming op routes to a board that already holds the
//!   session's ksk (a *routing hit*); a cold session lands on the
//!   least-loaded board and pays one key replication (a *miss*,
//!   [`ClusterReport::replication_bytes`], plus the PCIe upload charged
//!   in that board's schedule via [`IrOp::ksk_upload`]).
//! * **Work stealing**: when the session's resident board has run far
//!   enough ahead of the least-loaded board (beyond
//!   [`ClusterConfig::steal_threshold_cycles`]), the op is stolen to
//!   the idle board anyway — replicating the key there — trading
//!   replication bandwidth for tail latency.
//! * **Parked-state pinning**: DRAM is per-board, so every op that
//!   reads or writes a session's parked handles is pinned to the board
//!   that holds them, regardless of policy.
//! * **[`RoutingPolicy::Random`]** is the control: hash-spraying ops
//!   across boards maximizes replication and is what the affinity
//!   policy is measured against (`heax_core::perf`'s cluster tests).
//!
//! Each board's assigned sub-stream is then scheduled by the
//! single-board [`PipelineConfig::schedule_stream`]; boards run in
//! parallel, so the cluster makespan is the slowest board's. The
//! answer is a [`ClusterReport`]: per-board pipeline reports and
//! utilization, routing hit/miss counts, steal counts, replication
//! bytes, and dropped cross-board dependency edges.
//!
//! ```
//! use heax_hw::board::Board;
//! use heax_hw::cluster::{ClusterConfig, RoutingPolicy};
//! use heax_hw::ir::IrOp;
//! use heax_hw::keyswitch_pipeline::KeySwitchArch;
//! use heax_hw::mult_dataflow::MultModuleConfig;
//! use heax_hw::scheduler::PipelineConfig;
//!
//! # fn main() -> Result<(), heax_hw::HwError> {
//! let arch = KeySwitchArch {
//!     n: 8192, k: 4, nc_intt0: 16, m0: 4, nc_ntt0: 16,
//!     num_dyad: 5, nc_dyad: 8, nc_intt1: 4, nc_ntt1: 16, nc_ms: 4,
//! };
//! let board = PipelineConfig::new(
//!     &Board::stratix10(), arch, MultModuleConfig::new(8192, 16)?, 2)?;
//! let cluster = ClusterConfig::new(board, 2)?;
//! // Two sessions, four hoisted groups each: affinity keeps each
//! // session's key on one board.
//! let ops: Vec<IrOp> = (0..8)
//!     .map(|i| IrOp::rotate_many(4).with_session(1 + i % 2))
//!     .collect();
//! let report = cluster.schedule_stream(&ops, RoutingPolicy::Affinity { steal: false })?;
//! assert_eq!(report.routing_misses, 2); // one cold miss per session
//! assert_eq!(report.routing_hits, 6);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;

use crate::faults::{BoardFaultProfile, FaultKind, FaultPlan};
use crate::ir::IrOp;
use crate::scheduler::{PipelineConfig, PipelineReport};
use crate::xfer::DramModel;
use crate::HwError;

/// How the front-end router picks a board for each op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Route key-consuming ops to a board already holding the session's
    /// ksk (least-loaded such board); cold sessions land on the
    /// least-loaded board overall.
    Affinity {
        /// Allow stealing a warm session's op to the least-loaded
        /// board (replicating its key) when the resident board is
        /// ahead by more than the configured threshold.
        steal: bool,
    },
    /// Spray ops across boards with a seeded LCG — the no-affinity
    /// control that pays replication on nearly every routing decision.
    Random {
        /// Deterministic seed.
        seed: u64,
    },
}

impl RoutingPolicy {
    /// Stable policy label (reports render it).
    pub fn name(&self) -> &'static str {
        match self {
            RoutingPolicy::Affinity { .. } => "affinity",
            RoutingPolicy::Random { .. } => "random",
        }
    }
}

/// Static configuration of a modeled board cluster: N identical boards,
/// each scheduled by its own [`PipelineConfig`].
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterConfig {
    /// Boards in the cluster (1 ..= 64).
    pub num_boards: usize,
    /// The per-board pipeline configuration (cores, PCIe, DRAM, arch).
    pub board: PipelineConfig,
    /// Load imbalance (in compute cycles) beyond which
    /// [`RoutingPolicy::Affinity`] with stealing moves a warm session's
    /// op to the least-loaded board.
    pub steal_threshold_cycles: u64,
}

impl ClusterConfig {
    /// Builds a cluster of `num_boards` replicas of `board`, with the
    /// steal threshold defaulting to four KeySwitch intervals (one
    /// board must be a few heavy ops ahead before replication pays).
    ///
    /// # Errors
    ///
    /// [`HwError::InvalidConfig`] unless `1 <= num_boards <= 64` (ksk
    /// residency is tracked in a 64-bit board mask).
    pub fn new(board: PipelineConfig, num_boards: usize) -> Result<Self, HwError> {
        if num_boards == 0 || num_boards > 64 {
            return Err(HwError::InvalidConfig {
                reason: format!("cluster needs 1..=64 boards, got {num_boards}"),
            });
        }
        let steal_threshold_cycles = 4 * board.arch.steady_interval_cycles();
        Ok(Self {
            num_boards,
            board,
            steal_threshold_cycles,
        })
    }

    /// Builder option: the work-stealing imbalance threshold, cycles.
    #[must_use]
    pub fn with_steal_threshold(mut self, cycles: u64) -> Self {
        self.steal_threshold_cycles = cycles;
        self
    }

    /// Bytes of one session's key-switching key at this configuration —
    /// the unit of [`ClusterReport::replication_bytes`].
    pub fn ksk_bytes(&self) -> u64 {
        DramModel::ksk_bits(self.board.arch.n, self.board.arch.k) / 8
    }

    /// Routes an op stream across the boards and schedules each board's
    /// sub-stream on its own pipeline.
    ///
    /// Routing walks the stream in order, maintaining per-session ksk
    /// residency (a board mask), per-session parked-state pinning, and
    /// per-board load estimates; see the module docs for the policy
    /// semantics. A dependency edge whose producer landed on another
    /// board cannot be expressed inside a single board's schedule — it
    /// is dropped and counted in [`ClusterReport::cross_board_deps`]
    /// (the modeled makespan is optimistic by exactly those edges).
    ///
    /// # Errors
    ///
    /// [`HwError::InvalidConfig`] for malformed ops (propagated from
    /// the board scheduler).
    pub fn schedule_stream(
        &self,
        ops: &[IrOp],
        policy: RoutingPolicy,
    ) -> Result<ClusterReport, HwError> {
        self.schedule_stream_faulted(ops, policy, &FaultPlan::none())
    }

    /// [`ClusterConfig::schedule_stream`] replaying an injected
    /// [`FaultPlan`] with graceful degradation:
    ///
    /// * a **crashed** board is drained from the routing table once its
    ///   modeled load reaches the event cycle — resident sessions fail
    ///   over to a healthy board (the ksk re-replication is billed
    ///   through the normal byte accounting), and parked state is
    ///   re-materialized from the host (the session re-pins to its new
    ///   board and the first parked read pays the upload again);
    /// * a **corrupted** resident ksk is detected by checksum mismatch
    ///   on the session's next key-consuming op on that board, evicted,
    ///   and re-uploaded;
    /// * **slow-down, link-stall and DMA faults** fold into a per-board
    ///   [`BoardFaultProfile`] that dilates the board's schedule (and
    ///   its load accounting, so degraded boards naturally receive less
    ///   new work) instead of wedging it.
    ///
    /// Faults reshape placement and timing only — every op is still
    /// scheduled exactly once, so a faulted schedule answers the same
    /// requests as the fault-free one. An empty plan is bit-identical
    /// to [`ClusterConfig::schedule_stream`] (which delegates here).
    ///
    /// # Errors
    ///
    /// [`HwError::InvalidConfig`] for malformed ops, a fault event
    /// naming a board outside the cluster, or a plan that crashes
    /// *every* board before the stream completes.
    pub fn schedule_stream_faulted(
        &self,
        ops: &[IrOp],
        policy: RoutingPolicy,
        plan: &FaultPlan,
    ) -> Result<ClusterReport, HwError> {
        let n = self.num_boards;
        if let Some(e) = plan.events.iter().find(|e| e.board >= n) {
            return Err(HwError::InvalidConfig {
                reason: format!(
                    "fault event names board {} but the cluster has {n}",
                    e.board
                ),
            });
        }
        let crash_at: Vec<Option<u64>> = (0..n).map(|b| plan.crash_cycle(b)).collect();
        let profiles: Vec<BoardFaultProfile> = (0..n).map(|b| plan.board_profile(b)).collect();
        // Pending corruption events: (board, session, trigger cycle).
        let mut corruptions: Vec<(usize, u64, u64)> = plan
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::KskCorruption { session } => Some((e.board, session, e.at_cycle)),
                _ => None,
            })
            .collect();

        let mut alive = vec![true; n];
        let mut residency: HashMap<u64, u64> = HashMap::new();
        let mut parked_home: HashMap<u64, usize> = HashMap::new();
        // Sessions that lost ksk residency / parked state to a crash
        // and have not yet recovered.
        let mut failover_pending: std::collections::HashSet<u64> = Default::default();
        let mut rehome_pending: std::collections::HashSet<u64> = Default::default();
        let mut load = vec![0u64; n];
        let mut streams: Vec<Vec<IrOp>> = vec![Vec::new(); n];
        // Global stream index -> (board, position in its sub-stream).
        let mut placed: Vec<(usize, u32)> = Vec::with_capacity(ops.len());
        let mut assignment = Vec::with_capacity(ops.len());
        let mut rng = match policy {
            RoutingPolicy::Random { seed } => seed ^ 0x9E37_79B9_7F4A_7C15,
            _ => 0,
        };
        let (mut hits, mut misses, mut steals, mut cross_deps) = (0u64, 0u64, 0u64, 0u64);
        let mut replication_bytes = 0u64;
        let (mut failovers, mut re_replications, mut corrupt_evictions) = (0u64, 0u64, 0u64);
        let (mut parked_remats, mut recovery_cycles) = (0u64, 0u64);
        let ksk_upload = self.board.ksk_upload_cycles();

        for op in ops {
            let compute = self.board.op_compute_cycles(op)?;

            // Liveness sweep: a board whose accumulated load reached its
            // crash cycle is drained from the routing table — resident
            // sessions fail over, parked state must re-materialize.
            for b in 0..n {
                if alive[b] && crash_at[b].is_some_and(|c| load[b] >= c) {
                    alive[b] = false;
                    for (&session, bits) in residency.iter_mut() {
                        if *bits >> b & 1 == 1 {
                            *bits &= !(1u64 << b);
                            failover_pending.insert(session);
                        }
                    }
                    let orphaned: Vec<u64> = parked_home
                        .iter()
                        .filter(|&(_, &home)| home == b)
                        .map(|(&s, _)| s)
                        .collect();
                    for session in orphaned {
                        parked_home.remove(&session);
                        rehome_pending.insert(session);
                    }
                }
            }
            if alive.iter().all(|&a| !a) {
                return Err(HwError::InvalidConfig {
                    reason: "fault plan crashes every board before the stream completes".into(),
                });
            }

            let least_loaded = |load: &[u64], alive: &[bool]| {
                (0..n)
                    .filter(|&b| alive[b])
                    .min_by_key(|&b| (load[b], b))
                    .expect("at least one board alive")
            };
            // Parked state is per-board DRAM: once a session parks
            // anything, every op touching its parked handles is pinned
            // to that board, whatever the policy says.
            let touches = op.session != 0 && touches_parked(op);
            let pinned = if touches {
                parked_home.get(&op.session).copied()
            } else {
                None
            };
            let board = if let Some(b) = pinned {
                b
            } else {
                match policy {
                    RoutingPolicy::Affinity { steal } => {
                        let bits = if op.session == 0 {
                            0
                        } else {
                            residency.get(&op.session).copied().unwrap_or(0)
                        };
                        if op.needs_ksk() && bits != 0 {
                            let resident = (0..n)
                                .filter(|&b| alive[b] && bits >> b & 1 == 1)
                                .min_by_key(|&b| (load[b], b));
                            match resident {
                                Some(resident) => {
                                    let idle = least_loaded(&load, &alive);
                                    if steal
                                        && load[resident].saturating_sub(load[idle])
                                            > self.steal_threshold_cycles
                                    {
                                        steals += 1;
                                        idle
                                    } else {
                                        resident
                                    }
                                }
                                None => least_loaded(&load, &alive),
                            }
                        } else {
                            least_loaded(&load, &alive)
                        }
                    }
                    RoutingPolicy::Random { .. } => {
                        rng = rng
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        let living: Vec<usize> = (0..n).filter(|&b| alive[b]).collect();
                        living[((rng >> 33) as usize) % living.len()]
                    }
                }
            };
            let mut routed = *op;
            if touches {
                parked_home.entry(op.session).or_insert(board);
                // Parked inputs lost to a crash re-materialize from the
                // host: the first parked read after the failover ships
                // the operand over PCIe again.
                if rehome_pending.remove(&op.session) {
                    parked_remats += 1;
                    routed.input_parked = false;
                }
            }

            // Key residency: a key-consuming op either finds its ksk on
            // the chosen board (hit) or replicates it there first
            // (miss: bytes over the host link + an upload charged in
            // the board's own schedule). A resident copy whose checksum
            // no longer matches is evicted and re-uploaded on the spot.
            if op.needs_ksk() {
                let mut resident = op.session != 0
                    && residency.get(&op.session).copied().unwrap_or(0) >> board & 1 == 1;
                let mut evicted_here = false;
                if resident {
                    if let Some(pos) = corruptions
                        .iter()
                        .position(|&(b, s, at)| b == board && s == op.session && load[board] >= at)
                    {
                        // Checksum mismatch: evict and re-upload.
                        corruptions.swap_remove(pos);
                        corrupt_evictions += 1;
                        re_replications += 1;
                        recovery_cycles = recovery_cycles.saturating_add(ksk_upload);
                        replication_bytes = replication_bytes.saturating_add(self.ksk_bytes());
                        routed = routed.with_ksk_upload();
                        resident = false;
                        evicted_here = true;
                        // The re-uploaded copy is resident again.
                        if let Some(bits) = residency.get_mut(&op.session) {
                            *bits |= 1 << board;
                        }
                    }
                }
                if resident {
                    hits += 1;
                } else if !evicted_here {
                    misses += 1;
                    replication_bytes = replication_bytes.saturating_add(self.ksk_bytes());
                    routed = routed.with_ksk_upload();
                    if op.session != 0 {
                        *residency.entry(op.session).or_insert(0) |= 1 << board;
                    }
                    // A miss for a session that lost its resident copy
                    // to a crash is a failover recovery.
                    if failover_pending.remove(&op.session) {
                        failovers += 1;
                        re_replications += 1;
                        recovery_cycles = recovery_cycles.saturating_add(ksk_upload);
                    }
                }
            }

            // Remap dependency edges into the board-local sub-stream;
            // a producer on another board cannot be expressed there.
            let mut local = IrOp {
                deps: [crate::ir::NO_DEP; 2],
                ..routed
            };
            for d in routed.dep_indices() {
                let (dep_board, dep_pos) = placed[d];
                if dep_board == board {
                    local = local.with_dep(dep_pos);
                } else {
                    cross_deps += 1;
                }
            }

            placed.push((board, streams[board].len() as u32));
            assignment.push(board);
            streams[board].push(local);
            // Degraded boards accrue dilated load, so the router's
            // balancing naturally steers new work away from them.
            load[board] += BoardFaultProfile::dilate(compute, profiles[board].compute_slowdown_pct);
        }

        let boards = streams
            .iter()
            .zip(&profiles)
            .map(|(s, profile)| self.board.schedule_stream_degraded(s, profile))
            .collect::<Result<Vec<_>, _>>()?;
        let total_cycles = boards.iter().map(|r| r.total_cycles).max().unwrap_or(0);
        Ok(ClusterReport {
            num_boards: n,
            cores_per_board: self.board.num_cores,
            freq_mhz: self.board.freq_mhz,
            policy: policy.name(),
            boards,
            assignment,
            routing_hits: hits,
            routing_misses: misses,
            steals,
            replication_bytes,
            cross_board_deps: cross_deps,
            total_cycles,
            board_alive: alive,
            failovers,
            re_replications,
            corrupt_ksk_evictions: corrupt_evictions,
            parked_rematerializations: parked_remats,
            recovery_cycles,
        })
    }
}

/// Whether an op reads or writes per-board parked DRAM state.
fn touches_parked(op: &IrOp) -> bool {
    op.input_parked
        || op.park_output
        || op.output_id != 0
        || matches!(op.kind, crate::ir::OpKind::RotateMany { parked_outputs, .. } if parked_outputs > 0)
}

/// The cluster scheduler's answer: per-board pipeline reports plus the
/// routing outcome (hits, misses, steals, replication, dropped edges).
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Boards in the cluster.
    pub num_boards: usize,
    /// HEAX cores per board.
    pub cores_per_board: usize,
    /// Board clock in MHz.
    pub freq_mhz: f64,
    /// Routing policy label (`"affinity"` / `"random"`).
    pub policy: &'static str,
    /// Per-board pipeline reports (some may be empty).
    pub boards: Vec<PipelineReport>,
    /// Board each stream op was routed to, stream order.
    pub assignment: Vec<usize>,
    /// Key-consuming ops that found their ksk resident.
    pub routing_hits: u64,
    /// Key-consuming ops that had to replicate their ksk first.
    pub routing_misses: u64,
    /// Warm-session ops stolen to a less-loaded board.
    pub steals: u64,
    /// Total key bytes replicated across the host link.
    pub replication_bytes: u64,
    /// Dependency edges dropped because producer and consumer landed on
    /// different boards.
    pub cross_board_deps: u64,
    /// Cluster makespan: the slowest board's, in cycles (boards run in
    /// parallel).
    pub total_cycles: u64,
    /// Per-board health at the end of the run (`false` = crashed and
    /// drained from the routing table).
    pub board_alive: Vec<bool>,
    /// Sessions that lost their resident ksk to a board crash and
    /// recovered on a healthy board.
    pub failovers: u64,
    /// Key re-replications forced by faults (failover recoveries plus
    /// corruption re-uploads).
    pub re_replications: u64,
    /// Resident ksk copies evicted after a checksum mismatch.
    pub corrupt_ksk_evictions: u64,
    /// Parked operands re-materialized from the host after their home
    /// board crashed.
    pub parked_rematerializations: u64,
    /// Modeled cycles spent on fault recovery (the PCIe uploads of all
    /// fault-forced key re-replications).
    pub recovery_cycles: u64,
}

impl ClusterReport {
    /// Total client requests answered across all boards.
    pub fn requests(&self) -> u64 {
        self.boards.iter().map(PipelineReport::requests).sum()
    }

    /// Cluster makespan in microseconds at the board clock.
    pub fn total_us(&self) -> f64 {
        self.total_cycles as f64 / self.freq_mhz
    }

    /// Sustained client requests per second across the cluster.
    pub fn requests_per_sec(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.requests() as f64 / (self.total_us() / 1e6)
    }

    /// Fraction of key-consuming ops that hit resident keys.
    pub fn hit_rate(&self) -> f64 {
        let total = self.routing_hits + self.routing_misses;
        if total == 0 {
            return 0.0;
        }
        self.routing_hits as f64 / total as f64
    }

    /// One board's compute utilization against the *cluster* makespan
    /// (1.0 = that board's cores busy for the whole cluster run).
    /// Out-of-range board indices and zero-capacity reports answer 0.0
    /// rather than panicking.
    pub fn board_utilization(&self, board: usize) -> f64 {
        let capacity = (self.cores_per_board as u64).saturating_mul(self.total_cycles);
        match self.boards.get(board) {
            Some(b) if capacity > 0 => b.core_busy() as f64 / capacity as f64,
            _ => 0.0,
        }
    }

    /// Boards still alive (not crashed) at the end of the run.
    pub fn boards_alive(&self) -> usize {
        self.board_alive.iter().filter(|&&a| a).count()
    }

    /// Recovery latency in microseconds: the modeled time spent
    /// re-replicating key material after crashes and corruption.
    pub fn recovery_us(&self) -> f64 {
        self.recovery_cycles as f64 / self.freq_mhz
    }

    /// Renders the report as a human-readable summary block.
    pub fn render(&self) -> String {
        let mut out = format!(
            "cluster: {} board(s) x {} core(s) @ {:.0} MHz [{} routing] — {} op(s) / {} request(s)\n\
             makespan {} cycles ({:.1} us) -> {:.0} requests/s\n\
             routing: {} hit(s) / {} miss(es) ({:.1}% hit), {} steal(s), {} cross-board dep(s)\n\
             key replication: {} byte(s)\n",
            self.num_boards,
            self.cores_per_board,
            self.freq_mhz,
            self.policy,
            self.assignment.len(),
            self.requests(),
            self.total_cycles,
            self.total_us(),
            self.requests_per_sec(),
            self.routing_hits,
            self.routing_misses,
            100.0 * self.hit_rate(),
            self.steals,
            self.cross_board_deps,
            self.replication_bytes,
        );
        if self.failovers + self.re_replications + self.parked_rematerializations > 0
            || self.boards_alive() < self.num_boards
        {
            out.push_str(&format!(
                "faults: {}/{} board(s) alive, {} failover(s), {} re-replication(s) \
                 ({} corrupt ksk evicted), {} parked re-materialization(s), \
                 recovery {:.1} us\n",
                self.boards_alive(),
                self.num_boards,
                self.failovers,
                self.re_replications,
                self.corrupt_ksk_evictions,
                self.parked_rematerializations,
                self.recovery_us(),
            ));
        }
        for (b, r) in self.boards.iter().enumerate() {
            out.push_str(&format!(
                "board {b}: {} op(s), {} cycles, utilization {:.1}%, bound {}{}\n",
                r.ops.len(),
                r.total_cycles,
                100.0 * self.board_utilization(b),
                r.bound(),
                if self.board_alive.get(b).copied().unwrap_or(true) {
                    ""
                } else {
                    " [CRASHED]"
                },
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::Board;
    use crate::ir::{IrOp, OpKind, NO_DEP};
    use crate::keyswitch_pipeline::KeySwitchArch;
    use crate::mult_dataflow::MultModuleConfig;

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

    fn cluster(boards: usize, cores: usize) -> ClusterConfig {
        let arch = set_b();
        let mult = MultModuleConfig::new(arch.n, 16).unwrap();
        let board = PipelineConfig::new(&Board::stratix10(), arch, mult, cores).unwrap();
        ClusterConfig::new(board, boards).unwrap()
    }

    fn session_rotations(sessions: u64, per_session: usize) -> Vec<IrOp> {
        let mut ops = Vec::new();
        for i in 0..per_session {
            for s in 1..=sessions {
                ops.push(
                    IrOp::rotate_many(4)
                        .with_session(s)
                        .with_input_id(i as u64 + 1),
                );
            }
        }
        ops
    }

    #[test]
    fn board_count_is_validated() {
        let arch = set_b();
        let mult = MultModuleConfig::new(arch.n, 16).unwrap();
        let board = PipelineConfig::new(&Board::stratix10(), arch, mult, 1).unwrap();
        assert!(ClusterConfig::new(board.clone(), 0).is_err());
        assert!(ClusterConfig::new(board.clone(), 65).is_err());
        assert!(ClusterConfig::new(board, 64).is_ok());
    }

    #[test]
    fn affinity_pays_one_miss_per_session_then_hits() {
        let c = cluster(4, 1);
        let ops = session_rotations(8, 6);
        let r = c
            .schedule_stream(&ops, RoutingPolicy::Affinity { steal: false })
            .unwrap();
        assert_eq!(r.routing_misses, 8);
        assert_eq!(r.routing_hits, 8 * 6 - 8);
        assert_eq!(r.replication_bytes, 8 * c.ksk_bytes());
        assert_eq!(r.steals, 0);
        // Every session stays on exactly one board.
        for s in 0..8 {
            let boards: Vec<usize> = ops
                .iter()
                .zip(&r.assignment)
                .filter(|(op, _)| op.session == s + 1)
                .map(|(_, &b)| b)
                .collect();
            assert!(boards.windows(2).all(|w| w[0] == w[1]), "session split");
        }
        assert_eq!(r.requests(), 8 * 6 * 4);
        assert!(r.hit_rate() > 0.8);
    }

    #[test]
    fn random_routing_replicates_far_more_than_affinity() {
        let c = cluster(4, 1);
        let ops = session_rotations(8, 6);
        let affinity = c
            .schedule_stream(&ops, RoutingPolicy::Affinity { steal: false })
            .unwrap();
        let random = c
            .schedule_stream(&ops, RoutingPolicy::Random { seed: 7 })
            .unwrap();
        assert!(random.replication_bytes > 2 * affinity.replication_bytes);
        assert!(random.hit_rate() < affinity.hit_rate());
        // Functional coverage is identical either way.
        assert_eq!(random.requests(), affinity.requests());
    }

    #[test]
    fn stealing_rebalances_a_hot_session() {
        // One chatty session next to one quiet one: without stealing
        // the chatty session serializes on its home board; with it,
        // overflow ops move to the idle board at a replication cost.
        let mut ops = vec![IrOp::rotate_many(4).with_session(2).with_input_id(1)];
        for i in 0..12 {
            ops.push(IrOp::rotate_many(4).with_session(1).with_input_id(i + 1));
        }
        let c = cluster(2, 1).with_steal_threshold(1);
        let stolen = c
            .schedule_stream(&ops, RoutingPolicy::Affinity { steal: true })
            .unwrap();
        let pinned = c
            .schedule_stream(&ops, RoutingPolicy::Affinity { steal: false })
            .unwrap();
        assert!(stolen.steals > 0);
        assert_eq!(pinned.steals, 0);
        assert!(stolen.replication_bytes > pinned.replication_bytes);
        assert!(stolen.total_cycles < pinned.total_cycles);
    }

    #[test]
    fn parked_state_pins_a_session_to_its_board() {
        let c = cluster(4, 1);
        let mut ops = vec![IrOp::new(OpKind::Fetch)
            .with_session(1)
            .with_output_id(1)
            .with_parked_output()];
        // Random routing would spray these; pinning must override it.
        for _ in 0..6 {
            ops.push(
                IrOp::new(OpKind::Rotate)
                    .with_session(1)
                    .with_parked_input()
                    .with_input_id(1),
            );
        }
        let r = c
            .schedule_stream(&ops, RoutingPolicy::Random { seed: 3 })
            .unwrap();
        let home = r.assignment[0];
        assert!(r.assignment.iter().all(|&b| b == home));
    }

    #[test]
    fn cross_board_deps_are_dropped_and_counted() {
        let c = cluster(2, 1);
        let ops = vec![
            IrOp::rotate_many(2).with_session(1).with_input_id(1),
            // Session 2 lands on the other (least-loaded) board but
            // claims to read op 0's result.
            IrOp::new(OpKind::Add).with_session(2).with_dep(0),
        ];
        let r = c
            .schedule_stream(&ops, RoutingPolicy::Affinity { steal: false })
            .unwrap();
        assert_ne!(r.assignment[0], r.assignment[1]);
        assert_eq!(r.cross_board_deps, 1);
        // Same-board dep survives the remap.
        let ops2 = vec![
            IrOp::rotate_many(2).with_session(1).with_input_id(1),
            IrOp::new(OpKind::Add).with_session(1).with_dep(0),
        ];
        let one = cluster(1, 2)
            .schedule_stream(&ops2, RoutingPolicy::Affinity { steal: false })
            .unwrap();
        assert_eq!(one.cross_board_deps, 0);
        // The consumer waits for the producer despite the free core.
        let b = &one.boards[0];
        assert!(b.ops[1].compute.0 >= b.ops[0].compute.1);
        assert_eq!(b.ops[1].index, 1);
        assert_ne!(NO_DEP, 0); // sentinel sanity
    }

    #[test]
    fn more_boards_raise_throughput_on_many_sessions() {
        let ops = session_rotations(16, 4);
        let one = cluster(1, 1)
            .schedule_stream(&ops, RoutingPolicy::Affinity { steal: false })
            .unwrap();
        let four = cluster(4, 1)
            .schedule_stream(&ops, RoutingPolicy::Affinity { steal: false })
            .unwrap();
        assert!(four.requests_per_sec() > 2.0 * one.requests_per_sec());
        assert_eq!(four.requests(), one.requests());
        assert!(four.total_cycles < one.total_cycles);
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_fault_free() {
        use crate::faults::FaultPlan;
        let c = cluster(4, 2);
        let ops = session_rotations(8, 4);
        let plain = c
            .schedule_stream(&ops, RoutingPolicy::Affinity { steal: true })
            .unwrap();
        let faulted = c
            .schedule_stream_faulted(
                &ops,
                RoutingPolicy::Affinity { steal: true },
                &FaultPlan::none(),
            )
            .unwrap();
        assert_eq!(plain.assignment, faulted.assignment);
        assert_eq!(plain.total_cycles, faulted.total_cycles);
        assert_eq!(plain.replication_bytes, faulted.replication_bytes);
        assert_eq!(plain.failovers, 0);
        assert_eq!(plain.boards_alive(), 4);
        assert_eq!(plain.recovery_cycles, 0);
    }

    #[test]
    fn crashed_board_drains_and_sessions_fail_over() {
        use crate::faults::{FaultKind, FaultPlan};
        let c = cluster(4, 1);
        let ops = session_rotations(8, 6);
        let healthy = c
            .schedule_stream(&ops, RoutingPolicy::Affinity { steal: false })
            .unwrap();
        // Board 0 dies after roughly three ops' worth of load.
        let op_cycles = c.board.op_compute_cycles(&ops[0]).unwrap();
        let plan = FaultPlan::new().with_event(0, 3 * op_cycles, FaultKind::BoardCrash);
        let faulted = c
            .schedule_stream_faulted(&ops, RoutingPolicy::Affinity { steal: false }, &plan)
            .unwrap();
        assert_eq!(faulted.board_alive, vec![false, true, true, true]);
        assert_eq!(faulted.boards_alive(), 3);
        // The two sessions resident on board 0 recovered elsewhere.
        assert_eq!(faulted.failovers, 2);
        assert!(faulted.re_replications >= 2);
        assert!(faulted.recovery_cycles > 0);
        assert!(faulted.recovery_us() > 0.0);
        // Every op still runs exactly once — coverage is unchanged.
        assert_eq!(faulted.requests(), healthy.requests());
        // Once drained, the dead board receives nothing further: its
        // assignments form a strict prefix of the stream.
        let last_dead = ops.len()
            - 1
            - faulted
                .assignment
                .iter()
                .rev()
                .position(|&b| b == 0)
                .unwrap();
        let first_after = faulted.assignment[last_dead + 1..].iter();
        assert!(first_after.clone().all(|&b| b != 0));
        assert!(
            faulted.assignment.iter().filter(|&&b| b == 0).count()
                < healthy.assignment.iter().filter(|&&b| b == 0).count()
        );
        // Graceful degradation: losing 1 of 4 boards mid-run keeps the
        // cluster above half the healthy throughput.
        let ratio = faulted.requests_per_sec() / healthy.requests_per_sec();
        assert!(ratio >= 0.55, "degraded to {ratio:.2} of healthy");
        assert!(faulted.render().contains("[CRASHED]"));
        assert!(faulted.render().contains("failover"));
    }

    #[test]
    fn corrupted_ksk_is_evicted_and_reuploaded() {
        use crate::faults::{FaultKind, FaultPlan};
        let c = cluster(1, 1);
        let ops = session_rotations(1, 4);
        // The resident copy goes bad immediately; the session's second
        // key op detects the mismatch and re-uploads.
        let plan = FaultPlan::new().with_event(0, 0, FaultKind::KskCorruption { session: 1 });
        let r = c
            .schedule_stream_faulted(&ops, RoutingPolicy::Affinity { steal: false }, &plan)
            .unwrap();
        assert_eq!(r.corrupt_ksk_evictions, 1);
        assert_eq!(r.re_replications, 1);
        assert_eq!(r.failovers, 0);
        // One cold miss + one corruption re-upload, then hits again.
        assert_eq!(r.routing_misses, 1);
        assert_eq!(r.routing_hits, 2);
        assert_eq!(r.replication_bytes, 2 * c.ksk_bytes());
        assert!(r.recovery_cycles > 0);
        // A corruption for an unknown session never fires.
        let miss_plan = FaultPlan::new().with_event(0, 0, FaultKind::KskCorruption { session: 99 });
        let clean = c
            .schedule_stream_faulted(&ops, RoutingPolicy::Affinity { steal: false }, &miss_plan)
            .unwrap();
        assert_eq!(clean.corrupt_ksk_evictions, 0);
    }

    #[test]
    fn slow_board_receives_less_work_and_stalled_links_dilate() {
        use crate::faults::{FaultKind, FaultPlan};
        let c = cluster(2, 1);
        // Anonymous ops: pure least-loaded balancing.
        let ops = vec![IrOp::rotate_many(4); 16];
        let healthy = c
            .schedule_stream(&ops, RoutingPolicy::Affinity { steal: false })
            .unwrap();
        let plan = FaultPlan::new().with_event(0, 0, FaultKind::BoardSlowdown { pct: 100 });
        let slow = c
            .schedule_stream_faulted(&ops, RoutingPolicy::Affinity { steal: false }, &plan)
            .unwrap();
        // The router sees the dilated load and steers work away.
        let on_slow = slow.assignment.iter().filter(|&&b| b == 0).count();
        let on_fast = slow.assignment.iter().filter(|&&b| b == 1).count();
        assert!(on_slow < on_fast, "{on_slow} vs {on_fast}");
        assert_eq!(slow.requests(), healthy.requests());
        assert_eq!(slow.boards_alive(), 2); // degraded, not dead
                                            // A stalled link dilates transfers instead of wedging: the
                                            // schedule still completes, just later.
        let stall = FaultPlan::new().with_event(
            0,
            0,
            FaultKind::LinkStall {
                stall_cycles: 10_000,
            },
        );
        let stalled = c
            .schedule_stream_faulted(&ops, RoutingPolicy::Affinity { steal: false }, &stall)
            .unwrap();
        assert_eq!(stalled.requests(), healthy.requests());
        assert!(stalled.total_cycles > healthy.total_cycles);
    }

    #[test]
    fn parked_state_rematerializes_after_its_home_board_crashes() {
        use crate::faults::{FaultKind, FaultPlan};
        let c = cluster(2, 1);
        let mut ops = vec![IrOp::new(OpKind::Fetch)
            .with_session(1)
            .with_output_id(1)
            .with_parked_output()];
        for _ in 0..6 {
            ops.push(
                IrOp::new(OpKind::Rotate)
                    .with_session(1)
                    .with_parked_input()
                    .with_input_id(1),
            );
        }
        let pinned = c
            .schedule_stream(&ops, RoutingPolicy::Affinity { steal: false })
            .unwrap();
        let home = pinned.assignment[0];
        let op_cycles = c.board.op_compute_cycles(&ops[1]).unwrap();
        let plan = FaultPlan::new().with_event(home, 2 * op_cycles, FaultKind::BoardCrash);
        let r = c
            .schedule_stream_faulted(&ops, RoutingPolicy::Affinity { steal: false }, &plan)
            .unwrap();
        assert_eq!(r.parked_rematerializations, 1);
        assert!(!r.board_alive[home]);
        // The session re-pins: every op after the crash runs on the
        // survivor.
        let survivor = 1 - home;
        assert_eq!(*r.assignment.last().unwrap(), survivor);
        assert_eq!(r.requests(), pinned.requests());
    }

    #[test]
    fn fault_plan_validation() {
        use crate::faults::{FaultKind, FaultPlan};
        let c = cluster(2, 1);
        let ops = session_rotations(2, 2);
        // Naming a board outside the cluster is rejected.
        let bad = FaultPlan::new().with_event(5, 0, FaultKind::BoardCrash);
        assert!(c
            .schedule_stream_faulted(&ops, RoutingPolicy::Affinity { steal: false }, &bad)
            .is_err());
        // Crashing every board wedges nothing — it errors out.
        let total = FaultPlan::new()
            .with_event(0, 0, FaultKind::BoardCrash)
            .with_event(1, 0, FaultKind::BoardCrash);
        assert!(c
            .schedule_stream_faulted(&ops, RoutingPolicy::Affinity { steal: false }, &total)
            .is_err());
        // Random routing also avoids drained boards.
        let half = FaultPlan::new().with_event(0, 0, FaultKind::BoardCrash);
        let r = c
            .schedule_stream_faulted(&ops, RoutingPolicy::Random { seed: 3 }, &half)
            .unwrap();
        assert!(r.assignment.iter().all(|&b| b == 1));
    }

    #[test]
    fn report_accounting_is_consistent() {
        let c = cluster(3, 2);
        let ops = session_rotations(6, 3);
        let r = c
            .schedule_stream(&ops, RoutingPolicy::Affinity { steal: false })
            .unwrap();
        assert_eq!(r.assignment.len(), ops.len());
        let board_ops: usize = r.boards.iter().map(|b| b.ops.len()).sum();
        assert_eq!(board_ops, ops.len());
        assert!((0..3).all(|b| (0.0..=1.0).contains(&r.board_utilization(b))));
        let s = r.render();
        assert!(s.contains("3 board(s)"));
        assert!(s.contains("affinity"));
        assert!(s.contains("board 2:"));
        // Empty stream renders and divides by nothing.
        let empty = c
            .schedule_stream(&[], RoutingPolicy::Random { seed: 1 })
            .unwrap();
        assert_eq!(empty.requests_per_sec(), 0.0);
        assert_eq!(empty.hit_rate(), 0.0);
        // Ratio accessors are total: out-of-range boards answer 0.0.
        assert_eq!(empty.board_utilization(0), 0.0);
        assert_eq!(empty.board_utilization(99), 0.0);
        assert_eq!(r.board_utilization(99), 0.0);
        assert_eq!(empty.recovery_us(), 0.0);
    }
}
