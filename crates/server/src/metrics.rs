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
    /// Inline operands decoded at intake: each upload but a fan-out
    /// member that shares its neighbour's decoding.
    pub decoded_operands: u64,
    /// Wire-returned results modulus-switched down to one RNS limb
    /// because the request set the v2 compress-reply flag.
    pub compressed_replies: u64,
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
    pub(crate) decoded_operands: u64,
    pub(crate) compressed_replies: u64,
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
    fn empty_snapshots_never_divide_by_zero() {
        // Every ratio accessor on a default (never-served) snapshot
        // answers a finite 0.0, not NaN/inf.
        assert_eq!(ServerStats::default().batch_occupancy(), 0.0);
        assert_eq!(OpStats::default().ops_per_sec(), 0.0);
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
    }
}
