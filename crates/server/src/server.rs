//! The multi-session server: frame intake, work queue, and the batch
//! scheduler that amortizes shared work across a flush.
//!
//! ## Serving model
//!
//! [`HeaxServer`] is a synchronous byte-in/byte-out engine, deliberately
//! free of I/O so any transport (TCP, RPC, a test harness, a bench
//! loop) can drive it:
//!
//! * [`HeaxServer::handle_frame`] ingests one client frame. Control
//!   frames (session open/close, key registration) are answered
//!   immediately; request frames are validated, decoded, and queued.
//! * [`HeaxServer::flush`] drains the queue as **one batch**, returning
//!   a response frame per queued request in submission order.
//!
//! ## Batching semantics
//!
//! A flush is a compiler pipeline: **lower → fuse → execute.**
//! Queued requests lower into the shared op-stream IR of
//! [`heax_hw::ir`] — one [`IrOp`] per request carrying session/key
//! identity, operand placement, handle identity and dependency edges —
//! and the rotation-fusion IR pass ([`OpStream::fuse_rotations`])
//! merges same-session rotations of one input into hoisted groups:
//! the input's RNS decomposition is computed once and every requested
//! step reuses it, so `t` rotations cost one decomposition plus `t`
//! cheap accumulation passes ([`Evaluator::rotate_many`]). A fused
//! group executes at the queue position of its *first* member and
//! resolves its input there; a `park_as` that overwrites a handle the
//! group reads closes the group, so rotations submitted after the
//! write start a fresh group and observe the new value — in-order
//! semantics hold even across handle reuse. Results decrypt to the
//! same values as sequential rotations (hoisting is decrypt-equal,
//! not bit-equal). A group (or lone rotation) whose every reply is
//! compressed is computed only over the one residue those replies keep
//! ([`Evaluator::rotate_many_to_level`]); its reply bytes are unchanged.
//! All other requests execute individually, in order, against the
//! server's shared evaluator — whose recycled key-switch buffers and
//! the sessions' cached (parsed, validated) keys are themselves
//! cross-request amortizations.
//!
//! The fused stream is the single source of truth: the executor walks
//! its member lists. The server serves; it does not model.
//! [`HeaxServer::queued_plan`] returns, without draining anything,
//! exactly the stream the next flush executes, and pricing it is an
//! offline call on [`heax_hw`] —
//! [`PipelineConfig::schedule_stream`](heax_hw::scheduler::PipelineConfig::schedule_stream)
//! for one board,
//! [`ClusterConfig::schedule_stream_faulted`](heax_hw::cluster::ClusterConfig::schedule_stream_faulted)
//! for a cluster under a fault plan — the same calls the ruler's
//! `model_fleet_setb` workload makes.
//!
//! Results can be **parked** in board DRAM instead of shipping back: a
//! request with `park_as` stores its output under a handle of its
//! session that later requests of that session reference as an operand,
//! avoiding the serialize → ship → deserialize round trip between
//! dependent steps. Figure 7's memory map is plain server state: each
//! session holds its parked results by name, and the server bills them,
//! byte for byte, against the board's DRAM ([`Board::dram_gib`]); a park
//! that would not fit is answered with
//! [`ErrorCode::Capacity`](crate::error::ErrorCode::Capacity). A parked
//! result is the very ciphertext the request produced and a `Fetch`
//! returns it as it lies: neither copies it. Parked results are released
//! when their session closes.
//!
//! ## Failure containment
//!
//! Every failure is answered with a structured error frame carrying an
//! [`ErrorCode`](crate::error::ErrorCode); neither the session nor the
//! server is ever torn down by hostile or malformed input.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use heax_ckks::galois::galois_elt_from_step;
use heax_ckks::serialize::{
    deserialize_operand_with_seed, seeded_operand_matches, serialize_galois_keys,
    serialize_relin_key, Object,
};
use heax_ckks::{Ciphertext, CkksContext, Evaluator, GaloisKeys, RelinKey};
use heax_hw::board::Board;
use heax_hw::ir::{FusedStream, IrOp, OpKind, OpStream};
use heax_hw::xfer::WORD_BYTES;
use heax_math::exec::Executor;
use heax_math::poly::settle_recycler;
use heax_math::sampling::EXPAND_SEED_LEN;

use crate::error::ServerError;
use crate::metrics::{Metrics, ServerStats, SessionStats};
use crate::session::{KeyKind, SessionRegistry};
use crate::wire::{self, Frame, MessageKind, OpCode, WireOperand, FRAME_HEADER_LEN};

/// A decoded, validated request waiting for the next flush.
#[derive(Debug)]
struct Pending {
    session: u64,
    request: u64,
    /// Wire version of the request frame — echoed in the reply.
    version: u8,
    op: OpCode,
    step: i64,
    /// v2 compress-reply flag: modulus-switch a wire-returned result
    /// down to one RNS limb before serializing.
    compress_reply: bool,
    park_as: Option<String>,
    operands: Vec<Operand>,
}

impl Pending {
    /// Whether any inline operand arrived seeded (halved upload) —
    /// carried into the IR so an offline board model prices the smaller
    /// host→board transfer.
    fn seeded_input(&self) -> bool {
        self.operands
            .iter()
            .any(|o| matches!(o, Operand::Inline { seed: Some(_), .. }))
    }
}

/// A resolved-at-submit operand: inline ciphertexts are deserialized
/// (and validated against the context) when the request frame arrives,
/// parked handles are looked up lazily at execution time.
#[derive(Debug)]
enum Operand {
    /// Decoded into recycled polynomials. The members of
    /// a fan-out share the one decoding of their common input; `seed` is
    /// the expansion seed of an operand that arrived seeded, which is
    /// what the next member is recognized by.
    Inline {
        ct: Arc<Ciphertext>,
        seed: Option<[u8; EXPAND_SEED_LEN]>,
    },
    Parked(String),
}

/// Where [`HeaxServer::flush_into`] puts each reply.
pub trait ReplySink {
    /// The buffer the reply to the request at queue `position` (submission
    /// order, from 0) is appended to, told the reply frame's exact `len`
    /// before a byte of it is produced. `None` discards the reply; the
    /// request has executed all the same (parking is a side effect). A
    /// frame [`Engine::handle`](crate::Engine::handle) answers at once has
    /// the position of the next request queued.
    fn buffer_for(&mut self, position: usize, len: usize) -> Option<&mut Vec<u8>>;
}

/// A request's result: a ciphertext the evaluator made, or — an `Add`
/// sums into the inline operand it owns — the request's own first operand,
/// whose polynomials go back to the recycler with it.
type Outcome = Result<Arc<Ciphertext>, ServerError>;

/// What answers one flushed request, before it is framed.
enum Reply<'p> {
    Parked(&'p str),
    Ciphertext(Arc<Ciphertext>),
    /// An error payload.
    Error(Vec<u8>),
}

/// The multi-session HEAX server (see the module docs for the serving
/// model).
#[derive(Debug)]
pub struct HeaxServer<'a> {
    ctx: &'a CkksContext,
    eval: Evaluator<'a>,
    sessions: SessionRegistry,
    /// Bytes of every session's parked results.
    dram_used: u64,
    /// The board DRAM budget parked results are billed against.
    dram_capacity: u64,
    queue: VecDeque<Pending>,
    metrics: Metrics,
    /// One slot per request of the batch being flushed; empty between
    /// flushes and kept, like the queue, for its allocation.
    results: Vec<Option<Outcome>>,
}

impl<'a> HeaxServer<'a> {
    /// Builds a server for any context, parking results against the
    /// board's DRAM.
    ///
    /// # Errors
    ///
    /// None: every context is served. The `Result` is kept for source
    /// compatibility with callers written when construction could fail.
    pub fn new(ctx: &'a CkksContext, board: Board) -> Result<Self, ServerError> {
        Ok(Self {
            ctx,
            eval: Evaluator::new(ctx),
            sessions: SessionRegistry::default(),
            dram_used: 0,
            dram_capacity: u64::from(board.dram_gib()) << 30,
            queue: VecDeque::new(),
            metrics: Metrics::default(),
            results: Vec::new(),
        })
    }

    /// Builder option: pins the evaluation backend (default: the global
    /// `HEAX_THREADS`-selected executor).
    #[must_use]
    pub fn with_executor(mut self, exec: Arc<dyn Executor>) -> Self {
        self.eval = Evaluator::with_executor(self.ctx, exec);
        self
    }

    /// The server's context.
    pub fn context(&self) -> &CkksContext {
        self.ctx
    }

    /// A parked result, if present (introspection/tests).
    pub fn parked(&self, session: u64, name: &str) -> Option<&Ciphertext> {
        let sess = self.sessions.get(session).ok()?;
        sess.parked.get(name).map(|ct| &**ct)
    }

    /// Board DRAM bytes not held by parked results: what a transport
    /// sizes its session-key cache from.
    pub(crate) fn dram_available_bytes(&self) -> u64 {
        self.dram_capacity - self.dram_used
    }

    /// Ingests one client frame.
    ///
    /// Control frames are answered immediately (`Some(reply)`); request
    /// frames are queued for the next [`HeaxServer::flush`] and return
    /// `None`. Any failure — including bytes that don't decode as a
    /// frame at all — is answered with an error frame rather than by
    /// dropping state.
    pub fn handle_frame(&mut self, bytes: &[u8]) -> Option<Vec<u8>> {
        self.metrics.frames_in = self.metrics.frames_in.saturating_add(1);
        self.metrics.bytes_in = self.metrics.bytes_in.saturating_add(bytes.len() as u64);
        let (version, session, request, outcome) = match wire::decode_frame(bytes) {
            Ok(frame) => {
                if let Ok(sess) = self.sessions.get_mut(frame.session) {
                    sess.stats.bytes_in = sess.stats.bytes_in.saturating_add(bytes.len() as u64);
                }
                let (v, s, r) = (frame.version, frame.session, frame.request);
                (v, s, r, self.dispatch_control(frame))
            }
            // An undecodable frame has no trustworthy version field;
            // answer at v1, which every client can parse.
            Err(e) => (wire::WIRE_V1, 0, 0, Err(e)),
        };
        match outcome {
            Ok(reply) => reply.inspect(|frame| self.note_out(session, frame.len())),
            Err(e) => {
                if matches!(e, ServerError::Malformed { .. }) {
                    self.metrics.decode_errors = self.metrics.decode_errors.saturating_add(1);
                }
                if let Ok(sess) = self.sessions.get_mut(session) {
                    sess.stats.errors = sess.stats.errors.saturating_add(1);
                }
                Some(self.error_frame(version, session, request, &e))
            }
        }
    }

    /// Routes one decoded frame; `Ok(None)` means "queued".
    fn dispatch_control(&mut self, frame: Frame<'_>) -> Result<Option<Vec<u8>>, ServerError> {
        match frame.kind {
            MessageKind::OpenSession => {
                let id = self.sessions.open();
                Ok(Some(wire::encode_frame(
                    frame.version,
                    MessageKind::SessionOpened,
                    id,
                    frame.request,
                    &[],
                )))
            }
            MessageKind::RegisterRelinKey | MessageKind::RegisterGaloisKeys => {
                let kind = if frame.kind == MessageKind::RegisterRelinKey {
                    KeyKind::Relin
                } else {
                    KeyKind::Galois
                };
                self.install_key(frame.session, kind, frame.payload)?;
                Ok(Some(wire::encode_frame(
                    frame.version,
                    MessageKind::KeyRegistered,
                    frame.session,
                    frame.request,
                    &[],
                )))
            }
            MessageKind::Request => {
                self.enqueue(frame)?;
                Ok(None)
            }
            MessageKind::CloseSession => {
                let closed = self.sessions.close(frame.session)?;
                self.dram_used -= closed.parked.values().map(|ct| dram_bytes(ct)).sum::<u64>();
                Ok(Some(wire::encode_frame(
                    frame.version,
                    MessageKind::SessionClosed,
                    frame.session,
                    frame.request,
                    &[],
                )))
            }
            // Server→client kinds bounced back at us.
            _ => Err(ServerError::Unsupported {
                reason: format!("{:?} is not a client message", frame.kind),
            }),
        }
    }

    /// Validates and queues one request frame.
    fn enqueue(&mut self, frame: Frame<'_>) -> Result<(), ServerError> {
        // The session must exist before any payload work.
        self.sessions.get(frame.session)?;
        let req = wire::decode_request(frame.payload, frame.version)?;
        let mut operands = Vec::with_capacity(req.operands.len());
        for operand in &req.operands {
            // Inline ciphertexts are decoded (and validated against the
            // context) at intake, so a malformed operand fails here with
            // a structured error instead of poisoning the batch.
            operands.push(match operand {
                WireOperand::Inline(bytes) => self.intake_inline(frame.session, req.op, bytes)?,
                WireOperand::Parked(name) => Operand::Parked((*name).to_string()),
            });
        }
        let sess = self.sessions.get_mut(frame.session)?;
        sess.stats.requests = sess.stats.requests.saturating_add(1);
        self.queue.push_back(Pending {
            session: frame.session,
            request: frame.request,
            version: frame.version,
            op: req.op,
            step: req.step,
            compress_reply: req.compress_reply,
            park_as: req.park_as.map(str::to_string),
            operands,
        });
        self.metrics.queue_high_water = self.metrics.queue_high_water.max(self.queue.len());
        Ok(())
    }

    /// Decodes one inline operand into recycled polynomials: the
    /// zero-copy view path for full ciphertexts, the uniform polynomial
    /// re-expanded for seeded ones.
    fn intake_inline(
        &mut self,
        session: u64,
        op: OpCode,
        bytes: &[u8],
    ) -> Result<Operand, ServerError> {
        // A fan-out sends its one seeded input under every `Rotate`: when
        // the session's previous request is a rotation of these very
        // bytes, share its decoding instead of expanding the seed again.
        if op == OpCode::Rotate {
            let previous = self.queue.iter().rev().find(|p| p.session == session);
            if let Some(Operand::Inline {
                ct,
                seed: Some(seed),
            }) = previous
                .filter(|p| p.op == OpCode::Rotate)
                .and_then(|p| p.operands.first())
            {
                if seeded_operand_matches(bytes, seed, ct) {
                    self.metrics.seeded_operands = self.metrics.seeded_operands.saturating_add(1);
                    return Ok(Operand::Inline {
                        ct: Arc::clone(ct),
                        seed: Some(*seed),
                    });
                }
            }
        }
        let (ct, seed) = deserialize_operand_with_seed(bytes, self.ctx)?;
        self.metrics.decoded_operands = self.metrics.decoded_operands.saturating_add(1);
        if seed.is_some() {
            self.metrics.seeded_operands = self.metrics.seeded_operands.saturating_add(1);
        }
        Ok(Operand::Inline {
            ct: Arc::new(ct),
            seed,
        })
    }

    /// Requests currently waiting for a flush.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The sessions with requests queued: the in-flight work whose keys
    /// must not be evicted before the flush that answers it.
    pub(crate) fn queued_sessions(&self) -> HashSet<u64> {
        self.queue.iter().map(|p| p.session).collect()
    }

    /// Whether the session is open.
    pub(crate) fn has_session(&self, session: u64) -> bool {
        self.sessions.get(session).is_ok()
    }

    /// Serializes a session's cached evaluation keys, relin first, and
    /// drops the decoded ones to free modeled DRAM, leaving the session
    /// itself open. The bytes are the keys' uploads exactly, since each
    /// key has one encoding; the caller holds them until the session
    /// comes back (an [`Engine`](crate::Engine) restores them on its next
    /// request). An empty list means the session held no keys.
    ///
    /// The next key registration for this session is billed as a
    /// re-registration ([`ServerStats::key_reregistrations`]); the
    /// eviction itself increments [`ServerStats::key_evictions`] only
    /// when there was key material to drop.
    ///
    /// Callers must not evict a session with queued requests, which would
    /// fail in their batch; this method does not second-guess the cache
    /// policy.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownSession`] for ids never opened or already
    /// closed.
    pub fn evict_session_keys(
        &mut self,
        session: u64,
    ) -> Result<Vec<(KeyKind, Vec<u8>)>, ServerError> {
        let sess = self.sessions.get_mut(session)?;
        let mut keys = Vec::new();
        if let Some(rlk) = sess.rlk.take() {
            keys.push((KeyKind::Relin, serialize_relin_key(&rlk)));
        }
        if let Some(gks) = sess.gks.take() {
            keys.push((KeyKind::Galois, serialize_galois_keys(&gks)));
        }
        if !keys.is_empty() {
            sess.keys_evicted = true;
            self.metrics.key_evictions = self.metrics.key_evictions.saturating_add(1);
        }
        Ok(keys)
    }

    /// Decodes `payload` into the session's key of that kind. A
    /// registration frame lands here, and so does a transport restoring
    /// the bytes [`HeaxServer::evict_session_keys`] returned. A key
    /// installed after an eviction is billed as a re-registration.
    pub(crate) fn install_key(
        &mut self,
        session: u64,
        kind: KeyKind,
        payload: &[u8],
    ) -> Result<(), ServerError> {
        // Session first: key parsing (megabytes of residues to validate)
        // is exactly the cost a bogus session id must not be able to bill
        // the server for.
        let sess = self.sessions.get_mut(session)?;
        // On failure the key held before stays.
        match kind {
            KeyKind::Relin => sess.rlk = Some(RelinKey::decode(payload, self.ctx)?),
            KeyKind::Galois => sess.gks = Some(GaloisKeys::decode(payload, self.ctx)?),
        }
        if std::mem::take(&mut sess.keys_evicted) {
            self.metrics.key_reregistrations = self.metrics.key_reregistrations.saturating_add(1);
        }
        Ok(())
    }

    /// Lowers the currently queued requests into the shared op-stream
    /// IR, *without* executing or draining anything — the stream the
    /// next [`HeaxServer::flush`] will fuse and execute. One
    /// [`IrOp`] per request, submission order; parked handles and
    /// inline inputs carry identity ids, handle write→read edges become
    /// dependency edges.
    pub fn queued_stream(&self) -> OpStream {
        lower_ops(self.queue.iter())
    }

    /// The fused IR plan of the currently queued requests:
    /// [`HeaxServer::queued_stream`] after the
    /// [`OpStream::fuse_rotations`] pass — exactly what the next flush
    /// executes, and what an offline board or cluster model prices.
    /// Pure inspection: nothing is drained.
    pub fn queued_plan(&self) -> FusedStream {
        self.queued_stream().fuse_rotations()
    }

    /// Executes every queued request as one batch and returns a response
    /// frame per request, in submission order:
    /// [`HeaxServer::flush_into`] with a fresh buffer per reply.
    pub fn flush(&mut self) -> Vec<Vec<u8>> {
        struct Fresh(Vec<Vec<u8>>);
        impl ReplySink for Fresh {
            fn buffer_for(&mut self, _: usize, len: usize) -> Option<&mut Vec<u8>> {
                self.0.push(Vec::with_capacity(len));
                self.0.last_mut()
            }
        }
        let mut replies = Fresh(Vec::with_capacity(self.queue.len()));
        self.flush_into(&mut replies);
        replies.0
    }

    /// Executes every queued request as one batch and appends a response
    /// frame per request, in submission order, to the buffer `sink` names
    /// for it — a result ciphertext is serialized once, behind its frame
    /// header, into the bytes that leave the process. Returns how many
    /// requests were answered.
    ///
    /// The pipeline is lower → fuse → execute: requests lower into the
    /// shared IR ([`heax_hw::ir`]), the rotation-fusion pass merges
    /// same-session same-input rotations into hoisted groups, and the
    /// executor walks the fused stream's member lists (a fused group runs
    /// as one hoisted [`Evaluator::rotate_many`] at its first member's
    /// queue position).
    pub fn flush_into(&mut self, sink: &mut impl ReplySink) -> usize {
        if self.queue.is_empty() {
            return 0;
        }
        // The queue's own allocation holds the batch and goes back, empty,
        // when the batch is done.
        let mut queue = std::mem::take(&mut self.queue);
        let items = queue.make_contiguous();
        self.metrics.batches = self.metrics.batches.saturating_add(1);
        self.metrics.batched_requests = self
            .metrics
            .batched_requests
            .saturating_add(items.len() as u64);

        let plan = lower_ops(items.iter()).fuse_rotations();
        // A fused group executes at its first member's queue position, so
        // in-order reply semantics and handle visibility hold. The IR pass
        // emits groups in first-member order and first members are group
        // minima: the next group to run is always the next one in the plan.
        let mut groups = plan.members.iter();

        let mut results = std::mem::take(&mut self.results);
        results.resize_with(items.len(), || None);
        for idx in 0..items.len() {
            // Execute (a fused group executes when its first member is
            // reached and pre-fills every member's slot).
            if results[idx].is_none() {
                let members = groups.next().expect("a group per unfilled slot");
                debug_assert_eq!(members[0], idx);
                let start = Instant::now();
                if items[idx].op == OpCode::Rotate {
                    self.exec_rotate_group(items, members, &mut results);
                    let stats = self.metrics.op_mut(OpCode::Rotate);
                    stats.requests = stats.requests.saturating_add(members.len() as u64);
                    stats.busy_us += start.elapsed().as_secs_f64() * 1e6;
                } else {
                    let outcome = self.exec_single(&mut items[idx]);
                    let stats = self.metrics.op_mut(items[idx].op);
                    stats.requests = stats.requests.saturating_add(1);
                    stats.busy_us += start.elapsed().as_secs_f64() * 1e6;
                    results[idx] = Some(outcome);
                }
            }
            // Park or serialize, framing the reply. Parking happens
            // here — at the request's queue position — so a handle is
            // visible to every later request in the same flush.
            let outcome = results[idx].take().expect("slot filled by executor");
            self.finish_request(&items[idx], idx, outcome, sink);
        }
        let answered = items.len();
        // The batch's polynomials go back: a flush is a cycle of demand.
        queue.clear();
        settle_recycler();
        self.queue = queue;
        results.clear();
        self.results = results;
        answered
    }

    /// Answers one executed request: accounts the reply, then writes it —
    /// header, tag and body, a result ciphertext serialized in place — into
    /// the buffer the sink names for it, if it names one.
    fn finish_request(
        &mut self,
        it: &Pending,
        position: usize,
        outcome: Outcome,
        sink: &mut impl ReplySink,
    ) {
        let reply = self.settle(it, outcome).unwrap_or_else(|e| {
            let op = self.metrics.op_mut(it.op);
            op.errors = op.errors.saturating_add(1);
            if let Ok(sess) = self.sessions.get_mut(it.session) {
                sess.stats.errors = sess.stats.errors.saturating_add(1);
            }
            Reply::Error(wire::encode_error(e.code(), &e.to_string()))
        });
        let body = match &reply {
            Reply::Parked(name) => name.len(),
            Reply::Ciphertext(ct) => ct.encoded_len(),
            Reply::Error(payload) => payload.len(),
        };
        let len = match &reply {
            Reply::Error(_) => FRAME_HEADER_LEN + body,
            _ => wire::response_frame_len(body),
        };
        self.note_out(it.session, len);
        let (version, session, request) = (it.version, it.session, it.request);
        if let Some(out) = sink.buffer_for(position, len) {
            match &reply {
                Reply::Parked(name) => {
                    wire::append_response_head(version, session, request, false, body, out);
                    out.extend_from_slice(name.as_bytes());
                }
                Reply::Ciphertext(ct) => {
                    wire::append_response_head(version, session, request, true, body, out);
                    ct.encode_append(out);
                }
                Reply::Error(payload) => {
                    wire::append_frame(version, MessageKind::Error, session, request, payload, out);
                }
            }
        }
    }

    /// Parks one successful result, or readies it for the wire.
    fn settle<'p>(&mut self, it: &'p Pending, outcome: Outcome) -> Result<Reply<'p>, ServerError> {
        let mut ct = outcome?;
        match &it.park_as {
            Some(name) => {
                // A request can outlive its session (closed between submit
                // and flush); its result is then refused, not parked where
                // nothing could ever release it.
                let sess = self.sessions.get_mut(it.session)?;
                // Overwriting a handle releases the old entry's bytes first.
                let bytes = dram_bytes(&ct);
                let replaced = sess
                    .parked
                    .get(name.as_str())
                    .map_or(0, |old| dram_bytes(old));
                let used = self.dram_used - replaced;
                if used + bytes > self.dram_capacity {
                    return Err(ServerError::Capacity {
                        requested: bytes,
                        available: self.dram_capacity - used,
                    });
                }
                self.dram_used = used + bytes;
                sess.parked.insert(name.clone(), ct);
                Ok(Reply::Parked(name))
            }
            None => {
                // v2 compress-reply: the client only needs decrypt-level
                // precision, so drop every limb above the last before
                // serializing — the board→host leg shrinks by ~k×.
                if it.compress_reply && ct.level() > 0 {
                    ct = Arc::new(self.eval.mod_switch_to_level(&ct, 0)?);
                }
                if it.compress_reply {
                    self.metrics.compressed_replies =
                        self.metrics.compressed_replies.saturating_add(1);
                }
                Ok(Reply::Ciphertext(ct))
            }
        }
    }

    /// Resolves an operand to the ciphertext it names: the inline one, or
    /// the one its session parked under that name.
    fn resolve<'s>(
        &'s self,
        session: u64,
        operand: &'s Operand,
    ) -> Result<&'s Arc<Ciphertext>, ServerError> {
        match operand {
            Operand::Inline { ct, .. } => Ok(ct),
            Operand::Parked(name) => self
                .sessions
                .get(session)?
                .parked
                .get(name.as_str())
                .ok_or_else(|| ServerError::UnknownHandle { name: name.clone() }),
        }
    }

    /// Executes one non-fused request.
    fn exec_single(&self, it: &mut Pending) -> Outcome {
        let made = match it.op {
            OpCode::Add => {
                let session = it.session;
                let [a, b] = &mut it.operands[..] else {
                    unreachable!("decode_request admits an Add of two operands only");
                };
                let b = self.resolve(session, b);
                // The sum of a ciphertext this request owns goes into it,
                // not into a copy of it.
                if let Operand::Inline { ct, .. } = a {
                    self.eval.add_assign(Arc::make_mut(ct), b?)?;
                    return Ok(Arc::clone(ct));
                }
                self.eval.add(self.resolve(session, a)?, b?)?
            }
            OpCode::MultiplyRelin => {
                let a = self.first_operand(it)?;
                let b = self.resolve(it.session, &it.operands[1])?;
                let rlk = self.sessions.get(it.session)?.relin_key()?;
                self.eval.multiply_relin(a, b, rlk)?
            }
            OpCode::SquareRelin => {
                let a = self.first_operand(it)?;
                let rlk = self.sessions.get(it.session)?.relin_key()?;
                self.eval.multiply_relin(a, a, rlk)?
            }
            OpCode::Rescale => self.eval.rescale(self.first_operand(it)?)?,
            OpCode::Rotate => {
                let a = self.first_operand(it)?;
                let gks = self.sessions.get(it.session)?.galois_keys(it.step)?;
                self.eval.rotate(a, it.step, gks)?
            }
            OpCode::Fetch => return self.first_operand(it).map(Arc::clone),
        };
        Ok(Arc::new(made))
    }

    /// Resolves the operand at the front of a request's list.
    fn first_operand<'s>(&'s self, it: &'s Pending) -> Result<&'s Arc<Ciphertext>, ServerError> {
        self.resolve(it.session, &it.operands[0])
    }

    /// Executes a fused rotation group: one hoisted decomposition, one
    /// accumulation pass per member with a key. Members lacking a key
    /// fail individually; the rest still share the hoisting. When every
    /// member with a key ships a compressed reply, the group is computed
    /// at level 0, over the one residue the replies keep — the same bits
    /// `settle`'s modulus switch would leave.
    fn exec_rotate_group(
        &mut self,
        items: &[Pending],
        members: &[usize],
        results: &mut [Option<Outcome>],
    ) {
        let fail_all = |results: &mut [Option<Outcome>], e: &ServerError| {
            for &i in members {
                results[i] = Some(Err(e.clone()));
            }
        };
        let first = &items[members[0]];
        let sess = match self.sessions.get(first.session) {
            Ok(s) => s,
            Err(e) => return fail_all(results, &e),
        };
        let gks = match sess.galois_keys(first.step) {
            Ok(g) => g,
            Err(e) => return fail_all(results, &e),
        };
        let input = match self.resolve(first.session, &first.operands[0]) {
            Ok(ct) => ct,
            Err(e) => return fail_all(results, &e),
        };
        // Partition members by key availability so one uncovered step
        // doesn't sink its siblings.
        let mut covered: Vec<usize> = Vec::with_capacity(members.len());
        let mut steps: Vec<i64> = Vec::with_capacity(members.len());
        for &i in members {
            let step = items[i].step;
            if gks.key(galois_elt_from_step(step, self.ctx.n())).is_ok() {
                covered.push(i);
                steps.push(step);
            } else {
                results[i] = Some(Err(ServerError::MissingGaloisKey { step }));
            }
        }
        let to = if covered
            .iter()
            .all(|&i| items[i].compress_reply && items[i].park_as.is_none())
        {
            0
        } else {
            input.level()
        };
        match covered.len() {
            0 => {}
            // A lone rotation takes the plain path (bit-identical to the
            // unbatched server; hoisting would only add noise headroom).
            1 => {
                let rotated = self.eval.rotate_to_level(input, steps[0], gks, to);
                results[covered[0]] = Some(rotated.map(Arc::new).map_err(Into::into));
            }
            _ => match self.eval.rotate_many_to_level(input, &steps, gks, to) {
                Ok(outputs) => {
                    self.metrics.hoisted_groups = self.metrics.hoisted_groups.saturating_add(1);
                    self.metrics.hoisted_rotations = self
                        .metrics
                        .hoisted_rotations
                        .saturating_add(covered.len() as u64);
                    for (&i, ct) in covered.iter().zip(outputs) {
                        results[i] = Some(Ok(Arc::new(ct)));
                    }
                }
                Err(e) => {
                    let e = ServerError::from(e);
                    for &i in &covered {
                        results[i] = Some(Err(e.clone()));
                    }
                }
            },
        }
    }

    /// Builds (and accounts) an error frame at the peer's wire version.
    fn error_frame(&mut self, version: u8, session: u64, request: u64, e: &ServerError) -> Vec<u8> {
        let payload = wire::encode_error(e.code(), &e.to_string());
        let frame = wire::encode_frame(version, MessageKind::Error, session, request, &payload);
        self.note_out(session, frame.len());
        frame
    }

    /// Outbound frame accounting.
    fn note_out(&mut self, session: u64, len: usize) {
        self.metrics.frames_out = self.metrics.frames_out.saturating_add(1);
        self.metrics.bytes_out = self.metrics.bytes_out.saturating_add(len as u64);
        if let Ok(sess) = self.sessions.get_mut(session) {
            sess.stats.bytes_out = sess.stats.bytes_out.saturating_add(len as u64);
        }
    }

    /// A point-in-time snapshot of every server metric.
    pub fn stats(&self) -> ServerStats {
        let mut per_session: Vec<(u64, SessionStats)> =
            self.sessions.iter().map(|(id, s)| (id, s.stats)).collect();
        per_session.sort_unstable_by_key(|&(id, _)| id);
        ServerStats {
            sessions_open: self.sessions.len(),
            sessions_total: self.sessions.opened_total(),
            frames_in: self.metrics.frames_in,
            frames_out: self.metrics.frames_out,
            bytes_in: self.metrics.bytes_in,
            bytes_out: self.metrics.bytes_out,
            decode_errors: self.metrics.decode_errors,
            queue_depth: self.queue.len(),
            queue_high_water: self.metrics.queue_high_water,
            batches: self.metrics.batches,
            batched_requests: self.metrics.batched_requests,
            hoisted_groups: self.metrics.hoisted_groups,
            hoisted_rotations: self.metrics.hoisted_rotations,
            seeded_operands: self.metrics.seeded_operands,
            decoded_operands: self.metrics.decoded_operands,
            compressed_replies: self.metrics.compressed_replies,
            key_evictions: self.metrics.key_evictions,
            key_reregistrations: self.metrics.key_reregistrations,
            parked_entries: self.sessions.iter().map(|(_, s)| s.parked.len()).sum(),
            parked_bytes: self.dram_used,
            per_op: self.metrics.per_op_snapshot(),
            per_session,
        }
    }
}

/// Lowers a batch of pending requests into the shared op-stream IR —
/// one [`IrOp`] per request, submission order. Pure: no evaluator, no
/// side effects, so the lowering is unit-testable on
/// its own and `flush` and [`HeaxServer::queued_stream`] share it.
///
/// Identity assignment:
/// * every distinct `(session, handle)` parked name gets a handle id —
///   used both as operand identity (`input_id`) and park target
///   (`output_id`), so the IR fusion pass sees handle overwrites;
/// * the *first* operand of a rotation, when inline, gets an id by
///   full ciphertext equality against earlier inline rotation inputs —
///   equal inline inputs fuse exactly as the wire-level batching
///   semantics promise;
/// * parked reads gain dependency edges on the request that last
///   parked the handle within this batch.
fn lower_ops<'a>(items: impl Iterator<Item = &'a Pending>) -> OpStream {
    let mut stream = OpStream::new();
    let mut next_id: u64 = 1;
    let mut handle_ids: HashMap<(u64, &str), u64> = HashMap::new();
    let mut last_writer: HashMap<u64, usize> = HashMap::new();
    // Inline rotation inputs seen so far, each with its assigned id.
    let mut inline_reps: Vec<(&Arc<Ciphertext>, u64)> = Vec::new();
    for (idx, it) in items.enumerate() {
        let kind = match it.op {
            OpCode::Add => OpKind::Add,
            OpCode::MultiplyRelin | OpCode::SquareRelin => OpKind::Multiply,
            OpCode::Rescale => OpKind::Rescale,
            OpCode::Rotate => OpKind::Rotate,
            OpCode::Fetch => OpKind::Fetch,
        };
        let mut op = IrOp::new(kind).with_session(it.session);
        if !it.operands.is_empty() && it.operands.iter().all(|o| matches!(o, Operand::Parked(_))) {
            op = op.with_parked_input();
        }
        // v2 transfer shaping: seeded uploads halve the host→board leg;
        // a compressed wire-returned reply ships one limb of k. Both
        // are priced by an offline board/cluster model through these
        // flags.
        if it.seeded_input() {
            op = op.with_seeded_input();
        }
        if it.compress_reply && it.park_as.is_none() {
            op = op.with_reply_limbs(1);
        }
        match it.operands.first() {
            Some(Operand::Parked(name)) => {
                let id = *handle_ids
                    .entry((it.session, name.as_str()))
                    .or_insert_with(|| {
                        let id = next_id;
                        next_id += 1;
                        id
                    });
                op = op.with_input_id(id);
            }
            Some(Operand::Inline { ct, .. }) if it.op == OpCode::Rotate => {
                // Intake hands the members of a fan-out one decoding, so
                // identity usually settles it; equality is the rule.
                let found = inline_reps
                    .iter()
                    .find(|(rep, _)| Arc::ptr_eq(rep, ct) || rep == &ct);
                let id = match found {
                    Some(&(_, id)) => id,
                    None => {
                        let id = next_id;
                        next_id += 1;
                        inline_reps.push((ct, id));
                        id
                    }
                };
                op = op.with_input_id(id);
            }
            _ => {}
        }
        for operand in it.operands.iter().take(2) {
            if let Operand::Parked(name) = operand {
                if let Some(&id) = handle_ids.get(&(it.session, name.as_str())) {
                    if let Some(&writer) = last_writer.get(&id) {
                        op = op.with_dep(writer as u32);
                    }
                }
            }
        }
        if let Some(name) = &it.park_as {
            let id = *handle_ids
                .entry((it.session, name.as_str()))
                .or_insert_with(|| {
                    let id = next_id;
                    next_id += 1;
                    id
                });
            op = op.with_parked_output().with_output_id(id);
            last_writer.insert(id, idx);
        }
        stream.push(op);
    }
    stream
}

/// Board DRAM a parked ciphertext occupies: its residue words.
fn dram_bytes(ct: &Ciphertext) -> u64 {
    ct.components()
        .iter()
        .map(|p| p.data().len() as u64 * WORD_BYTES)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorCode;
    use crate::wire::client::{self, Reply};
    use crate::wire::{Request, WireOperand};
    use heax_ckks::serialize::serialize_ciphertext;
    use heax_ckks::{encrypt_symmetric, CkksEncoder, CkksParams, SecretKey};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn parking_is_billed_against_the_dram_budget() {
        let chain = heax_math::primes::generate_prime_chain(&[40, 40, 40, 41], 64).unwrap();
        let ctx = CkksContext::new(CkksParams::new(64, chain, 2f64.powi(32)).unwrap()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pt = CkksEncoder::new(&ctx).encode_real(&[0.5], ctx.params().scale(), 2);
        let ct = encrypt_symmetric(&ctx, &sk, &pt.unwrap(), &mut rng).unwrap();
        let (bytes, one) = (serialize_ciphertext(&ct), dram_bytes(&ct));

        let mut server = HeaxServer::new(&ctx, Board::stratix10()).unwrap();
        server.dram_capacity = 2 * one;
        let opened = server.handle_frame(&client::open_session()).unwrap();
        let session = client::parse_reply(&opened).unwrap().0;
        // Parks the ciphertext under `name` through a `Fetch`.
        let mut park = |name| {
            let req = Request {
                op: OpCode::Fetch,
                step: 0,
                compress_reply: false,
                park_as: Some(name),
                operands: vec![WireOperand::Inline(&bytes)],
            };
            assert!(server
                .handle_frame(&client::request(session, 1, &req))
                .is_none());
            let reply = client::parse_reply(&server.flush()[0]).unwrap().2;
            let stats = server.stats();
            (reply, stats.parked_entries, stats.parked_bytes)
        };
        assert_eq!(park("a"), (Reply::Parked("a".into()), 1, one));
        assert_eq!(park("b"), (Reply::Parked("b".into()), 2, 2 * one));
        // Past the budget: refused with a Capacity frame, nothing moved.
        let (refused, entries, bytes) = park("c");
        assert!(matches!(
            refused,
            Reply::Error {
                code: ErrorCode::Capacity,
                ..
            }
        ));
        assert_eq!((entries, bytes), (2, 2 * one));
        // At exactly the budget, re-parking a handle fits: the old entry
        // is released first.
        assert_eq!(park("b"), (Reply::Parked("b".into()), 2, 2 * one));
        assert!(server.parked(session, "a").is_some() && server.parked(session, "c").is_none());
        server
            .handle_frame(&client::close_session(session))
            .unwrap();
        assert_eq!(server.stats().parked_bytes, 0);
    }
}
