//! Server observability: per-op and per-session counters, queue and
//! batching gauges, exposed as a cloneable [`ServerStats`] snapshot.
//!
//! Counters are plain fields updated inline on the serving path (the
//! server is driven single-threaded per instance; parallelism lives
//! *below* it, in the executor's limb lanes), so a snapshot is just a
//! clone — no atomics, no sampling error within one snapshot.

use crate::wire::OpCode;

/// Counters for one operation kind.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpStats {
    /// Requests executed (including failed ones).
    pub requests: u64,
    /// Requests answered with an error frame.
    pub errors: u64,
    /// Wall-clock µs spent executing this op (shared batch work is
    /// attributed to the op that triggered it).
    pub busy_us: f64,
    /// Modeled board compute cycles this op occupied a HEAX core for
    /// (0 unless the board model is enabled; hoisted-group cost is
    /// attributed to the rotation op).
    pub modeled_cycles: u64,
}

impl OpStats {
    /// Throughput over the server's lifetime so far.
    pub fn ops_per_sec(&self) -> f64 {
        if self.busy_us <= 0.0 {
            0.0
        } else {
            self.requests as f64 / (self.busy_us / 1e6)
        }
    }
}

/// Per-session traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SessionStats {
    /// Requests this session submitted.
    pub requests: u64,
    /// Error frames this session received.
    pub errors: u64,
    /// Frame bytes received from this session.
    pub bytes_in: u64,
    /// Frame bytes sent to this session.
    pub bytes_out: u64,
    /// Modeled board compute cycles this session's requests occupied,
    /// accumulated across **every** flush (0 without a board or
    /// cluster model) — the attribution figure for long-running
    /// sessions; a hoisted group's cost is billed to the group's
    /// owning session.
    pub modeled_cycles: u64,
}

/// Aggregated board-model figures for a server with the modeled
/// backend enabled (see `HeaxServer::with_board_model`): every flush's
/// op stream is scheduled on the board-level pipeline of
/// [`heax_hw::scheduler`], and its cycle/occupancy outcome accumulates
/// here.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ModeledBoardStats {
    /// HEAX cores the model schedules across.
    pub cores: usize,
    /// Board clock in MHz (for converting cycles to time).
    pub freq_mhz: f64,
    /// Flushes that were modeled.
    pub flushes: u64,
    /// Board-level ops scheduled (a hoisted group is one op).
    pub modeled_ops: u64,
    /// Client requests those ops answered.
    pub modeled_requests: u64,
    /// Sum of per-flush makespans, in cycles.
    pub modeled_cycles: u64,
    /// Core compute busy cycles across all flushes.
    pub core_busy_cycles: u64,
    /// Deepest any core's input FIFO got, across all flushes.
    pub fifo_high_water: u64,
    /// Core idle cycles spent waiting on input transfers.
    pub input_wait_cycles: u64,
    /// Result cycles spent waiting on the board→host channel.
    pub output_wait_cycles: u64,
    /// Input-DMA cycles spent waiting on FIFO backpressure.
    pub fifo_backpressure_cycles: u64,
    /// What bound the most recent modeled flush
    /// (`"compute"` / `"pcie-in"` / `"pcie-out"`; empty before any).
    pub last_bound: &'static str,
}

impl ModeledBoardStats {
    /// Fraction of core-cycles spent computing across all flushes.
    pub fn core_utilization(&self) -> f64 {
        let capacity = (self.cores as u64).saturating_mul(self.modeled_cycles);
        if capacity == 0 {
            0.0
        } else {
            self.core_busy_cycles as f64 / capacity as f64
        }
    }
}

/// Aggregated cluster-model figures for a server with the multi-board
/// model enabled (see `HeaxServer::with_cluster_model`): every flush's
/// fused IR stream is routed across the modeled board cluster of
/// [`heax_hw::cluster`], and the routing/throughput outcome accumulates
/// here.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ModeledClusterStats {
    /// Boards the cluster model routes across.
    pub boards: usize,
    /// HEAX cores per modeled board.
    pub cores_per_board: usize,
    /// Board clock in MHz (for converting cycles to time).
    pub freq_mhz: f64,
    /// Flushes that were modeled.
    pub flushes: u64,
    /// Cluster-level ops routed (a hoisted group is one op).
    pub modeled_ops: u64,
    /// Client requests those ops answered.
    pub modeled_requests: u64,
    /// Sum of per-flush cluster makespans, in cycles.
    pub modeled_cycles: u64,
    /// Key-consuming ops routed to a board already holding their ksk.
    pub routing_hits: u64,
    /// Key-consuming ops that had to replicate their ksk first.
    pub routing_misses: u64,
    /// Warm-session ops stolen to a less-loaded board.
    pub steals: u64,
    /// Total key bytes replicated across the host link.
    pub replication_bytes: u64,
    /// Dependency edges dropped across board boundaries.
    pub cross_board_deps: u64,
    /// Boards still alive after the most recent modeled flush (equals
    /// `boards` unless a fault plan crashed some).
    pub boards_alive: usize,
    /// Sessions that lost their resident ksk to a board crash and
    /// recovered on a healthy board.
    pub failovers: u64,
    /// Key re-replications forced by faults (failovers plus corruption
    /// re-uploads).
    pub re_replications: u64,
    /// Resident ksk copies evicted after a checksum mismatch.
    pub corrupt_ksk_evictions: u64,
    /// Parked operands re-materialized from the host after a crash.
    pub parked_rematerializations: u64,
    /// Modeled cycles spent re-replicating key material after faults.
    pub recovery_cycles: u64,
}

impl ModeledClusterStats {
    /// Fraction of key-consuming ops that hit resident keys.
    pub fn hit_rate(&self) -> f64 {
        let total = self.routing_hits.saturating_add(self.routing_misses);
        if total == 0 {
            0.0
        } else {
            self.routing_hits as f64 / total as f64
        }
    }

    /// Modeled fault-recovery time across all flushes, microseconds.
    pub fn recovery_us(&self) -> f64 {
        if self.freq_mhz <= 0.0 {
            0.0
        } else {
            self.recovery_cycles as f64 / self.freq_mhz
        }
    }
}

/// A point-in-time snapshot of every server gauge and counter.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServerStats {
    /// Live sessions.
    pub sessions_open: usize,
    /// Sessions ever opened.
    pub sessions_total: u64,
    /// Frames received (all kinds).
    pub frames_in: u64,
    /// Frames sent (all kinds).
    pub frames_out: u64,
    /// Bytes received.
    pub bytes_in: u64,
    /// Bytes sent.
    pub bytes_out: u64,
    /// Frames that failed to decode at the frame or body layer.
    pub decode_errors: u64,
    /// Requests currently queued (waiting for the next flush).
    pub queue_depth: usize,
    /// Deepest the queue has ever been.
    pub queue_high_water: usize,
    /// Flushes that executed at least one request.
    pub batches: u64,
    /// Requests executed through batched flushes.
    pub batched_requests: u64,
    /// Rotation groups executed through one hoisted decomposition.
    pub hoisted_groups: u64,
    /// Rotations served by those hoisted groups.
    pub hoisted_rotations: u64,
    /// Inline operands that arrived as seeded ciphertexts (v2 upload
    /// compression: a 32-byte PRNG seed replaces the uniform
    /// polynomial and is re-expanded server-side).
    pub seeded_operands: u64,
    /// Wire-returned results modulus-switched down to one RNS limb
    /// because the request set the v2 compress-reply flag.
    pub compressed_replies: u64,
    /// Requests answered with a load-shed error because their deadline
    /// budget ran out before they could be served.
    pub shed_requests: u64,
    /// Requests answered with a degraded error after the bounded retry
    /// policy was exhausted.
    pub degraded_replies: u64,
    /// Execution retries attempted under the flush retry policy.
    pub retries: u64,
    /// Sessions whose cached keys were evicted from the
    /// modeled DRAM key cache under budget pressure (see
    /// `HeaxServer::evict_session_keys` and `heax_server::net`'s LRU).
    pub key_evictions: u64,
    /// Key registrations that re-uploaded a previously evicted
    /// session's keys (the evict + re-register-on-miss cycle of the
    /// transport-layer key cache).
    pub key_reregistrations: u64,
    /// Results currently parked in board DRAM.
    pub parked_entries: usize,
    /// Modeled DRAM bytes used by parked results.
    pub parked_bytes: u64,
    /// Per-op counters, in [`OpCode::ALL`] order as `(name, stats)`.
    pub per_op: Vec<(&'static str, OpStats)>,
    /// Per-session counters as `(session_id, stats)`, sorted by id.
    pub per_session: Vec<(u64, SessionStats)>,
    /// Board-model aggregates (`None` unless the server was built with
    /// `with_board_model`).
    pub modeled: Option<ModeledBoardStats>,
    /// Cluster-model aggregates (`None` unless the server was built
    /// with `with_cluster_model`).
    pub cluster: Option<ModeledClusterStats>,
}

impl ServerStats {
    /// Mean requests per non-empty flush — the batch-occupancy figure
    /// the scheduler's amortization depends on.
    pub fn batch_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }

    /// Looks up one op's counters by code.
    pub fn op(&self, op: OpCode) -> OpStats {
        self.per_op
            .iter()
            .find(|(name, _)| *name == op.name())
            .map(|&(_, s)| s)
            .unwrap_or_default()
    }
}

/// Internal mutable counters behind [`ServerStats`].
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    pub(crate) frames_in: u64,
    pub(crate) frames_out: u64,
    pub(crate) bytes_in: u64,
    pub(crate) bytes_out: u64,
    pub(crate) decode_errors: u64,
    pub(crate) queue_high_water: usize,
    pub(crate) batches: u64,
    pub(crate) batched_requests: u64,
    pub(crate) hoisted_groups: u64,
    pub(crate) hoisted_rotations: u64,
    pub(crate) seeded_operands: u64,
    pub(crate) compressed_replies: u64,
    pub(crate) shed_requests: u64,
    pub(crate) degraded_replies: u64,
    pub(crate) retries: u64,
    pub(crate) key_evictions: u64,
    pub(crate) key_reregistrations: u64,
    pub(crate) per_op: [OpStats; OpCode::ALL.len()],
}

impl Metrics {
    pub(crate) fn op_mut(&mut self, op: OpCode) -> &mut OpStats {
        // `OpCode::ALL` is ordered by discriminant starting at 1.
        &mut self.per_op[op as usize - 1]
    }

    pub(crate) fn per_op_snapshot(&self) -> Vec<(&'static str, OpStats)> {
        OpCode::ALL
            .iter()
            .map(|&op| (op.name(), self.per_op[op as usize - 1]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modeled_board_stats_helpers() {
        let m = ModeledBoardStats {
            cores: 4,
            freq_mhz: 300.0,
            flushes: 2,
            modeled_ops: 8,
            modeled_requests: 64,
            modeled_cycles: 300_000,
            core_busy_cycles: 600_000,
            ..Default::default()
        };
        assert!((m.core_utilization() - 0.5).abs() < 1e-12);
        let zero = ModeledBoardStats::default();
        assert_eq!(zero.core_utilization(), 0.0);
    }

    #[test]
    fn modeled_cluster_stats_helpers() {
        let c = ModeledClusterStats {
            boards: 4,
            cores_per_board: 2,
            freq_mhz: 300.0,
            modeled_requests: 600,
            modeled_cycles: 300_000,
            routing_hits: 9,
            routing_misses: 1,
            ..Default::default()
        };
        assert!((c.hit_rate() - 0.9).abs() < 1e-12);
        let zero = ModeledClusterStats::default();
        assert_eq!(zero.hit_rate(), 0.0);
    }

    #[test]
    fn empty_snapshots_never_divide_by_zero() {
        // The satellite audit: every ratio accessor on a default
        // (never-served) snapshot answers a finite 0.0, not NaN/inf.
        let board = ModeledBoardStats::default();
        assert_eq!(board.core_utilization(), 0.0);
        let cluster = ModeledClusterStats::default();
        assert_eq!(cluster.recovery_us(), 0.0);
        assert_eq!(cluster.hit_rate(), 0.0);
        // Cycles without a clock (freq 0) still answer finitely.
        let odd = ModeledClusterStats {
            modeled_cycles: 100,
            recovery_cycles: 50,
            ..Default::default()
        };
        assert_eq!(odd.recovery_us(), 0.0);
        let busy_no_cores = ModeledBoardStats {
            modeled_cycles: 100,
            core_busy_cycles: 10,
            ..Default::default()
        };
        assert_eq!(busy_no_cores.core_utilization(), 0.0);
        // Saturated hit counters must not wrap the ratio's denominator.
        let saturated = ModeledClusterStats {
            routing_hits: u64::MAX,
            routing_misses: 1,
            ..Default::default()
        };
        assert!((0.0..=1.0).contains(&saturated.hit_rate()));
        assert_eq!(ServerStats::default().batch_occupancy(), 0.0);
    }

    #[test]
    fn occupancy_and_lookup() {
        let mut m = Metrics::default();
        m.op_mut(OpCode::Rotate).requests = 10;
        m.op_mut(OpCode::Rotate).busy_us = 2e6;
        let stats = ServerStats {
            batches: 4,
            batched_requests: 14,
            per_op: m.per_op_snapshot(),
            ..ServerStats::default()
        };
        assert_eq!(stats.batch_occupancy(), 3.5);
        assert_eq!(stats.op(OpCode::Rotate).requests, 10);
        assert_eq!(stats.op(OpCode::Rotate).ops_per_sec(), 5.0);
        assert_eq!(stats.op(OpCode::Add), OpStats::default());
        assert_eq!(ServerStats::default().batch_occupancy(), 0.0);
        assert_eq!(OpStats::default().ops_per_sec(), 0.0);
    }
}
