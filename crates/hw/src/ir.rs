//! The shared op-stream IR: the one vocabulary both the server's batch
//! scheduler and the board/cluster pipeline schedulers consume.
//!
//! A serving layer lowers its queued requests into a flat [`OpStream`]
//! of [`IrOp`]s — each op carrying *what* to execute ([`OpKind`]),
//! *where* its operands live (host memory vs board DRAM), *whose* key
//! material it needs (the session id doubles as the key identity), and
//! *which* earlier ops it depends on (handle write→read edges). The
//! stream is then transformed by IR passes — today,
//! [`OpStream::fuse_rotations`], which merges same-session rotations of
//! one input into hoisted [`OpKind::RotateMany`] groups exactly the way
//! the paper's hoisting shares one RNS decomposition — and the *same*
//! fused stream drives both the functional executor and the modeled
//! schedulers ([`PipelineConfig::schedule_stream`](crate::scheduler::PipelineConfig::schedule_stream),
//! [`ClusterConfig::schedule_stream_faulted`](crate::cluster::ClusterConfig::schedule_stream_faulted)).
//! There is no second, model-only stream
//! reconstruction anywhere: what the machine model prices is exactly
//! what the server runs.
//!
//! ```
//! use heax_hw::ir::{IrOp, OpKind, OpStream};
//!
//! // Three rotations of one parked input by session 7, then a write
//! // that overwrites the input: the first three fuse, the write stays.
//! let mut stream = OpStream::new();
//! for _ in 0..3 {
//!     stream.push(IrOp::new(OpKind::Rotate).with_session(7).with_parked_input().with_input_id(1));
//! }
//! stream.push(IrOp::new(OpKind::Fetch).with_session(7).with_output_id(1));
//! let fused = stream.fuse_rotations();
//! assert_eq!(fused.ops.len(), 2);
//! assert!(matches!(fused.ops[0].kind, OpKind::RotateMany { count: 3, .. }));
//! assert_eq!(fused.members[0], vec![0, 1, 2]);
//! ```

use std::collections::HashMap;

/// Sentinel for "no dependency" in [`IrOp::deps`].
pub const NO_DEP: u32 = u32::MAX;

/// The high-level operation kinds an op stream is made of — the
/// server-side CKKS vocabulary, one entry per distinct machine cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Homomorphic multiply: MULT module pass plus the relinearization
    /// KeySwitch (the Table 8 composite).
    Multiply,
    /// Relinearize a 3-component ciphertext: one KeySwitch.
    Relinearize,
    /// Single slot rotation: the Galois permutation is free addressing;
    /// one KeySwitch.
    Rotate,
    /// Hoisted multi-rotation group: the input is decomposed once (one
    /// full KeySwitch interval), each further rotation pays only the
    /// DyadMult-accumulate + modulus-switch tail.
    RotateMany {
        /// Rotations in the group (≥ 1).
        count: usize,
        /// How many of the group's outputs stay parked in board DRAM;
        /// the remaining `count − parked_outputs` return over PCIe.
        /// Must not exceed `count`.
        parked_outputs: usize,
    },
    /// Rescale by the last active prime: the modulus-switch tail
    /// (INTT1 → NTT1 → MS) without the decomposition stages.
    Rescale,
    /// Ciphertext movement with no compute: an inline operand uploads
    /// host→board (optionally parking there); a parked operand ships
    /// board→host.
    Fetch,
    /// Component-wise ciphertext addition on the dyadic cores.
    Add,
}

/// One operation of an op stream: a kind plus where its operands live,
/// where its result goes, whose key material it uses, and what it
/// depends on.
///
/// The identity fields are what the batch and cluster schedulers key
/// on; a bare executor is free to ignore them:
///
/// * `session` — key/tenant identity (`0` = anonymous). Two ops with
///   the same session share ksk residency on a board.
/// * `input_id` — identity of the first operand (`0` = anonymous). Two
///   same-session rotations with equal non-zero `input_id` are
///   fusion candidates.
/// * `output_id` — handle the result is parked under (`0` = none).
///   A write to a handle an open rotation group reads closes that
///   group (in-order semantics across handle reuse).
/// * `deps` — up to two indices of earlier stream ops whose results
///   this op consumes ([`NO_DEP`] = unused slot). The board scheduler
///   will not start this op's compute before its deps' compute ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IrOp {
    /// What to execute.
    pub kind: OpKind,
    /// Owning session / key identity (`0` = anonymous).
    pub session: u64,
    /// Operands are already board-resident (no host→board transfer).
    pub input_parked: bool,
    /// The result stays in board DRAM (no board→host transfer).
    pub park_output: bool,
    /// The op's key-switching key must first be uploaded host→board
    /// (set by the cluster router on a residency miss; charged as
    /// extra host→board DMA by the board scheduler).
    pub ksk_upload: bool,
    /// Identity of the first operand (`0` = anonymous).
    pub input_id: u64,
    /// Handle id the result parks under (`0` = none).
    pub output_id: u64,
    /// The inline input arrived as a **seeded** fresh encryption (wire
    /// v2): a 32-byte seed replaced the uniform `a` component, so the
    /// host→board transfer carries one polynomial instead of two. The
    /// board scheduler halves the ciphertext-shaped input volume.
    pub input_seeded: bool,
    /// Residue limbs of a wire-returned reply after compression (`0` =
    /// full chain). A client that only decrypts needs a single limb;
    /// the server modulus-switches before serializing and the board
    /// scheduler scales the board→host volume by `reply_limbs / k`.
    pub reply_limbs: u8,
    /// Indices of earlier ops this op reads results of ([`NO_DEP`] =
    /// unused slot).
    pub deps: [u32; 2],
}

impl IrOp {
    /// An anonymous op with host-resident operands and a host-returned
    /// result.
    pub fn new(kind: OpKind) -> Self {
        Self {
            kind,
            session: 0,
            input_parked: false,
            park_output: false,
            ksk_upload: false,
            input_id: 0,
            output_id: 0,
            input_seeded: false,
            reply_limbs: 0,
            deps: [NO_DEP; 2],
        }
    }

    /// Shorthand for a hoisted group of `count` rotations, all results
    /// returning over PCIe.
    pub fn rotate_many(count: usize) -> Self {
        Self::new(OpKind::RotateMany {
            count,
            parked_outputs: 0,
        })
    }

    /// Marks the operands as already board-resident.
    #[must_use]
    pub fn with_parked_input(mut self) -> Self {
        self.input_parked = true;
        self
    }

    /// Marks the result as staying in board DRAM.
    #[must_use]
    pub fn with_parked_output(mut self) -> Self {
        self.park_output = true;
        self
    }

    /// Tags the op with its owning session / key identity.
    #[must_use]
    pub fn with_session(mut self, session: u64) -> Self {
        self.session = session;
        self
    }

    /// Tags the op's first operand identity (for fusion).
    #[must_use]
    pub fn with_input_id(mut self, id: u64) -> Self {
        self.input_id = id;
        self
    }

    /// Tags the handle id the result parks under.
    #[must_use]
    pub fn with_output_id(mut self, id: u64) -> Self {
        self.output_id = id;
        self
    }

    /// Marks the op as needing its ksk uploaded first.
    #[must_use]
    pub fn with_ksk_upload(mut self) -> Self {
        self.ksk_upload = true;
        self
    }

    /// Marks the inline input as a seeded fresh encryption (half the
    /// host→board bytes).
    #[must_use]
    pub fn with_seeded_input(mut self) -> Self {
        self.input_seeded = true;
        self
    }

    /// Sets the compressed reply width in residue limbs (`0` = full
    /// chain).
    #[must_use]
    pub fn with_reply_limbs(mut self, limbs: u8) -> Self {
        self.reply_limbs = limbs;
        self
    }

    /// Records a dependency on the stream op at `index` (first free
    /// slot; silently dropped when both slots are taken or the edge is
    /// already recorded).
    #[must_use]
    pub fn with_dep(mut self, index: u32) -> Self {
        if self.deps.contains(&index) {
            return self;
        }
        if let Some(slot) = self.deps.iter_mut().find(|d| **d == NO_DEP) {
            *slot = index;
        }
        self
    }

    /// Client-visible requests this op answers (a hoisted group answers
    /// one per rotation).
    pub fn requests(&self) -> u64 {
        match self.kind {
            OpKind::RotateMany { count, .. } => count as u64,
            _ => 1,
        }
    }

    /// Whether executing this op consumes a key-switching key (and thus
    /// cares about ksk residency when routed across a cluster).
    pub fn needs_ksk(&self) -> bool {
        matches!(
            self.kind,
            OpKind::Multiply | OpKind::Relinearize | OpKind::Rotate | OpKind::RotateMany { .. }
        )
    }

    /// The recorded dependency indices (0–2 of them).
    pub fn dep_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.deps
            .iter()
            .filter(|&&d| d != NO_DEP)
            .map(|&d| d as usize)
    }
}

/// A flat, submission-ordered op stream — the IR a serving layer lowers
/// its queued requests into, one [`IrOp`] per request.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpStream {
    /// The ops, submission order.
    pub ops: Vec<IrOp>,
}

impl OpStream {
    /// An empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one op.
    pub fn push(&mut self, op: IrOp) {
        self.ops.push(op);
    }

    /// Ops in the stream.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The distinct non-anonymous session ids in the stream, ascending —
    /// the population a fault-schedule generator draws ksk-corruption
    /// targets from ([`crate::faults::FaultPlan::generate`]).
    pub fn session_ids(&self) -> Vec<u64> {
        session_ids(&self.ops)
    }

    /// The rotation-fusion IR pass.
    ///
    /// Same-session [`OpKind::Rotate`] ops reading the same non-anonymous
    /// input (equal `input_id`, equal placement) merge into one hoisted
    /// [`OpKind::RotateMany`] op at the *first* member's stream position:
    /// one RNS decomposition, one cheap tail per extra rotation —
    /// the paper's hoisting, applied batch-wide. A group closes when a
    /// later same-session op parks its result over the handle the group
    /// reads (`output_id` equals the group's parked `input_id`):
    /// rotations submitted after the overwrite start a fresh group and
    /// observe the new value, so in-order semantics hold across handle
    /// reuse. Anonymous rotations (`input_id == 0`) never fuse.
    ///
    /// Dependency edges are remapped onto the fused indices; a parked
    /// group output is counted in `parked_outputs` so the scheduler
    /// charges PCIe only for wire-returned results.
    pub fn fuse_rotations(&self) -> FusedStream {
        // Member lists in creation order, which is ascending first member.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        // The one group still open for `(session, input_parked, input_id)`.
        let mut open: HashMap<(u64, bool, u64), usize> = HashMap::new();
        for (idx, op) in self.ops.iter().enumerate() {
            if op.kind == OpKind::Rotate {
                let key = (op.session, op.input_parked, op.input_id);
                match open.get(&key) {
                    Some(&g) => groups[g].push(idx),
                    None => {
                        if op.input_id != 0 {
                            open.insert(key, groups.len());
                        }
                        groups.push(vec![idx]);
                    }
                }
            }
            if op.output_id != 0 {
                open.remove(&(op.session, true, op.output_id));
            }
        }

        // Emit in first-member order; every original index maps to one
        // fused index so dependency edges can be rewritten.
        let mut ops = Vec::with_capacity(self.ops.len());
        let mut members = Vec::with_capacity(self.ops.len());
        let mut fused_index = vec![0usize; self.ops.len()];
        let mut groups = groups.into_iter().peekable();
        for (idx, op) in self.ops.iter().enumerate() {
            if op.kind == OpKind::Rotate {
                let Some(group) = groups.next_if(|g| g[0] == idx) else {
                    continue; // non-first member, emitted with its group
                };
                let fused = if group.len() == 1 {
                    *op
                } else {
                    let parked_outputs = group.iter().filter(|&&i| self.ops[i].park_output).count();
                    let mut merged = IrOp {
                        kind: OpKind::RotateMany {
                            count: group.len(),
                            parked_outputs,
                        },
                        park_output: false,
                        output_id: 0,
                        ..*op
                    };
                    for &m in &group {
                        for d in self.ops[m].dep_indices() {
                            merged = merged.with_dep(d as u32);
                        }
                    }
                    merged
                };
                for &m in &group {
                    fused_index[m] = ops.len();
                }
                ops.push(fused);
                members.push(group);
            } else {
                fused_index[idx] = ops.len();
                ops.push(*op);
                members.push(vec![idx]);
            }
        }
        for (i, op) in ops.iter_mut().enumerate() {
            let mut deps = [NO_DEP; 2];
            let mut n = 0;
            for d in 0..2 {
                let old = op.deps[d];
                if old == NO_DEP {
                    continue;
                }
                let new = fused_index[old as usize] as u32;
                // A member's dep can land inside its own group after
                // remapping; the group's shared input covers it.
                if new as usize == i || deps.contains(&new) {
                    continue;
                }
                deps[n] = new;
                n += 1;
            }
            op.deps = deps;
        }
        FusedStream { ops, members }
    }
}

/// The result of [`OpStream::fuse_rotations`]: the fused stream plus,
/// for each fused op, the original stream indices it answers —
/// the executor's map from fused ops back to queued requests.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FusedStream {
    /// The fused ops, original-first-member order.
    pub ops: Vec<IrOp>,
    /// For each fused op, the original stream indices it covers (a
    /// non-fused op covers exactly its own index).
    pub members: Vec<Vec<usize>>,
}

impl FusedStream {
    /// Total client-visible requests across the stream.
    pub fn requests(&self) -> u64 {
        self.ops.iter().map(IrOp::requests).sum()
    }
}

/// The distinct non-anonymous session ids in an op slice, ascending.
pub fn session_ids(ops: &[IrOp]) -> Vec<u64> {
    let mut ids: Vec<u64> = ops
        .iter()
        .map(|op| op.session)
        .filter(|&s| s != 0)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// [`OpStream::fuse_rotations`] as it was before its groups were keyed:
    /// every open group scanned per rotation, every group scanned per
    /// overwrite and per emitted op. Quadratic, obviously right, and what
    /// the keyed pass must equal on every stream.
    fn fuse_rotations_oracle(stream: &OpStream) -> FusedStream {
        struct Group {
            session: u64,
            parked: bool,
            input_id: u64,
            first: usize,
            members: Vec<usize>,
            open: bool,
        }
        let mut groups: Vec<Group> = Vec::new();
        for (idx, op) in stream.ops.iter().enumerate() {
            if op.kind == OpKind::Rotate {
                let found = op.input_id != 0 && {
                    if let Some(g) = groups.iter_mut().find(|g| {
                        g.open
                            && g.session == op.session
                            && g.parked == op.input_parked
                            && g.input_id == op.input_id
                    }) {
                        g.members.push(idx);
                        true
                    } else {
                        false
                    }
                };
                if !found {
                    groups.push(Group {
                        session: op.session,
                        parked: op.input_parked,
                        input_id: op.input_id,
                        first: idx,
                        members: vec![idx],
                        open: op.input_id != 0,
                    });
                }
            }
            if op.output_id != 0 {
                for g in groups
                    .iter_mut()
                    .filter(|g| g.session == op.session && g.parked && g.input_id == op.output_id)
                {
                    g.open = false;
                }
            }
        }

        // Emit in first-member order; every original index maps to one
        // fused index so dependency edges can be rewritten.
        let mut ops = Vec::with_capacity(stream.ops.len());
        let mut members = Vec::with_capacity(stream.ops.len());
        let mut fused_index = vec![0usize; stream.ops.len()];
        for (idx, op) in stream.ops.iter().enumerate() {
            if op.kind == OpKind::Rotate {
                let Some(g) = groups.iter().find(|g| g.first == idx) else {
                    continue; // non-first member, emitted with its group
                };
                let fused = if g.members.len() == 1 {
                    *op
                } else {
                    let parked_outputs = g
                        .members
                        .iter()
                        .filter(|&&i| stream.ops[i].park_output)
                        .count();
                    let mut merged = IrOp {
                        kind: OpKind::RotateMany {
                            count: g.members.len(),
                            parked_outputs,
                        },
                        park_output: false,
                        output_id: 0,
                        ..*op
                    };
                    for &m in &g.members {
                        for d in stream.ops[m].dep_indices() {
                            merged = merged.with_dep(d as u32);
                        }
                    }
                    merged
                };
                for &m in &g.members {
                    fused_index[m] = ops.len();
                }
                ops.push(fused);
                members.push(g.members.clone());
            } else {
                fused_index[idx] = ops.len();
                ops.push(*op);
                members.push(vec![idx]);
            }
        }
        for (i, op) in ops.iter_mut().enumerate() {
            let mut deps = [NO_DEP; 2];
            let mut n = 0;
            for d in 0..2 {
                let old = op.deps[d];
                if old == NO_DEP {
                    continue;
                }
                let new = fused_index[old as usize] as u32;
                // A member's dep can land inside its own group after
                // remapping; the group's shared input covers it.
                if new as usize == i || deps.contains(&new) {
                    continue;
                }
                deps[n] = new;
                n += 1;
            }
            op.deps = deps;
        }
        FusedStream { ops, members }
    }

    fn rot(session: u64, input_id: u64) -> IrOp {
        IrOp::new(OpKind::Rotate)
            .with_session(session)
            .with_parked_input()
            .with_input_id(input_id)
    }

    /// Random streams over a few sessions and handle ids, so rotations
    /// collide on their keys, parked inputs get overwritten under open
    /// groups (by plain ops and by rotations, their own group's members
    /// included), and dependency edges point into and out of groups.
    fn arb_stream() -> impl Strategy<Value = OpStream> {
        let kinds = vec![
            OpKind::Rotate,
            OpKind::Rotate,
            OpKind::Rotate,
            OpKind::Fetch,
            OpKind::Add,
            OpKind::Multiply,
        ];
        let op = (
            prop::sample::select(kinds),
            0u64..3,
            any::<bool>(),
            0u64..4,
            0u64..6,
            (any::<u32>(), any::<u32>()),
        );
        prop::collection::vec(op, 0..48usize).prop_map(|raw| {
            let mut stream = OpStream::new();
            for (idx, (kind, session, parked, input_id, output, deps)) in
                raw.into_iter().enumerate()
            {
                let mut op = IrOp::new(kind)
                    .with_session(session)
                    .with_input_id(input_id);
                op.input_parked = parked;
                if (1..4).contains(&output) {
                    op = op.with_parked_output().with_output_id(output);
                }
                for dep in [deps.0, deps.1] {
                    if idx > 0 && dep % 3 == 0 {
                        op = op.with_dep((dep / 3) % idx as u32);
                    }
                }
                stream.push(op);
            }
            stream
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The keyed pass is the scanning one: same fused ops (kinds,
        /// counts, rewritten dependency edges), same member lists.
        #[test]
        fn keyed_fusion_equals_the_scanning_oracle(stream in arb_stream()) {
            prop_assert_eq!(stream.fuse_rotations(), fuse_rotations_oracle(&stream));
        }
    }

    #[test]
    fn builders_compose() {
        let op = IrOp::new(OpKind::Rotate)
            .with_session(9)
            .with_parked_input()
            .with_parked_output()
            .with_input_id(3)
            .with_output_id(4)
            .with_ksk_upload()
            .with_dep(0)
            .with_dep(0) // duplicate: dropped
            .with_dep(5);
        assert_eq!(op.session, 9);
        assert!(op.input_parked && op.park_output && op.ksk_upload);
        assert!(!op.input_seeded);
        assert_eq!(op.reply_limbs, 0);
        let v2 = IrOp::new(OpKind::Rotate)
            .with_seeded_input()
            .with_reply_limbs(1);
        assert!(v2.input_seeded);
        assert_eq!(v2.reply_limbs, 1);
        assert_eq!((op.input_id, op.output_id), (3, 4));
        assert_eq!(op.deps, [0, 5]);
        assert_eq!(op.dep_indices().collect::<Vec<_>>(), vec![0, 5]);
        // A third distinct dep has nowhere to go.
        assert_eq!(op.with_dep(7).deps, [0, 5]);
        assert!(op.needs_ksk());
        assert!(!IrOp::new(OpKind::Rescale).needs_ksk());
        assert_eq!(IrOp::rotate_many(4).requests(), 4);
        assert_eq!(IrOp::new(OpKind::Add).requests(), 1);
    }

    #[test]
    fn same_input_rotations_fuse_per_session() {
        let mut s = OpStream::new();
        s.push(rot(1, 10));
        s.push(rot(2, 10)); // same input id, other session: no fusion
        s.push(rot(1, 10));
        s.push(rot(1, 11)); // other input: own group
        let f = s.fuse_rotations();
        assert_eq!(f.ops.len(), 3);
        assert!(matches!(
            f.ops[0].kind,
            OpKind::RotateMany {
                count: 2,
                parked_outputs: 0
            }
        ));
        assert_eq!(f.ops[0].session, 1);
        assert_eq!(f.members[0], vec![0, 2]);
        assert_eq!(f.ops[1].kind, OpKind::Rotate);
        assert_eq!(f.requests(), 4);
    }

    #[test]
    fn anonymous_rotations_never_fuse() {
        let mut s = OpStream::new();
        s.push(IrOp::new(OpKind::Rotate).with_session(1));
        s.push(IrOp::new(OpKind::Rotate).with_session(1));
        let f = s.fuse_rotations();
        assert_eq!(f.ops.len(), 2);
        assert!(f.ops.iter().all(|op| op.kind == OpKind::Rotate));
    }

    #[test]
    fn handle_overwrite_closes_the_group() {
        let mut s = OpStream::new();
        s.push(rot(1, 5));
        s.push(rot(1, 5));
        // Same session parks over handle 5: the open group closes.
        s.push(IrOp::new(OpKind::Fetch).with_session(1).with_output_id(5));
        s.push(rot(1, 5)); // fresh group, observes the new value
        s.push(rot(1, 5));
        let f = s.fuse_rotations();
        assert_eq!(f.ops.len(), 3);
        assert!(matches!(f.ops[0].kind, OpKind::RotateMany { count: 2, .. }));
        assert_eq!(f.ops[1].kind, OpKind::Fetch);
        assert!(matches!(f.ops[2].kind, OpKind::RotateMany { count: 2, .. }));
        assert_eq!(f.members[2], vec![3, 4]);
        // An overwrite by *another* session closes nothing.
        let mut s2 = OpStream::new();
        s2.push(rot(1, 5));
        s2.push(IrOp::new(OpKind::Fetch).with_session(2).with_output_id(5));
        s2.push(rot(1, 5));
        assert_eq!(s2.fuse_rotations().ops.len(), 2);
    }

    #[test]
    fn rotation_parking_counts_into_the_group() {
        let mut s = OpStream::new();
        s.push(rot(1, 5));
        s.push(rot(1, 5).with_parked_output().with_output_id(6));
        s.push(rot(1, 5).with_parked_output().with_output_id(7));
        let f = s.fuse_rotations();
        assert_eq!(f.ops.len(), 1);
        assert!(matches!(
            f.ops[0].kind,
            OpKind::RotateMany {
                count: 3,
                parked_outputs: 2
            }
        ));
        // A lone parked rotation keeps its flags (no group wrapper).
        let mut s1 = OpStream::new();
        s1.push(rot(1, 5).with_parked_output().with_output_id(6));
        let f1 = s1.fuse_rotations();
        assert_eq!(f1.ops[0].kind, OpKind::Rotate);
        assert!(f1.ops[0].park_output);
    }

    #[test]
    fn deps_are_remapped_onto_fused_indices() {
        let mut s = OpStream::new();
        // 0: upload-and-park handle 5.
        s.push(IrOp::new(OpKind::Fetch).with_session(1).with_output_id(5));
        // 1+2: rotations reading it (fuse; dep on op 0).
        s.push(rot(1, 5).with_dep(0));
        s.push(rot(1, 5).with_dep(0));
        // 3: add reading a rotation's parked result — dep on op 2.
        s.push(
            IrOp::new(OpKind::Add)
                .with_session(1)
                .with_parked_input()
                .with_dep(2),
        );
        let f = s.fuse_rotations();
        assert_eq!(f.ops.len(), 3);
        assert_eq!(f.ops[1].deps, [0, NO_DEP]); // merged group deps deduplicated
        assert_eq!(f.ops[2].deps, [1, NO_DEP]); // old index 2 → fused index 1
    }
}
