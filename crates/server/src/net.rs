//! Real-socket nonblocking server runtime: a hand-rolled epoll event
//! loop multiplexing many concurrent TCP connections — each carrying
//! any number of sessions — onto the batch scheduler of
//! [`HeaxServer`].
//!
//! ## Runtime model
//!
//! [`NetServer`] owns a nonblocking [`TcpListener`], a level-triggered
//! readiness poller (the vendored `epoll` shim: raw Linux syscalls, no
//! `libc`, no tokio/mio — the same own-your-substrate policy as
//! `heax_math::exec`), and one `Conn` state machine per accepted
//! connection. A connection is a byte pipe, nothing more: frames may
//! arrive fragmented at any byte boundary and replies are written in
//! whatever chunks the socket accepts, with the remainder parked in a
//! per-connection write buffer until the peer drains it.
//!
//! Each [`NetServer::poll`] turn is one event-loop iteration: accept
//! pending connections, read every readable connection into its
//! [`FrameAssembler`], dispatch completed frames into the inner
//! [`HeaxServer`], decide whether to flush the batch queue, and write
//! pending reply bytes back out.
//!
//! The loop is **work-conserving**: it never sleeps while a request is
//! queued. A flush happens when the queue reaches
//! [`NetConfig::flush_threshold`] or — with [`NetConfig::flush_on_idle`],
//! the default — on the first turn that ingests no frame; and while
//! anything is queued a turn asks the poller only for what is ready
//! *now*, so that turn comes as soon as the sockets run dry. A batch is
//! therefore "everything that had arrived": under load still a full
//! batch (a client's fan-out leaves it in one `write` and is read in one
//! turn), under light load the request alone. The `timeout_ms` a caller
//! passes means one thing, how long a turn may sleep when there is
//! nothing to do; it is not a batching window and no queued request
//! waits it out. A peer whose frame is half arrived and stale holds up
//! nobody: the flush waits for the sockets, not for frames to complete.
//!
//! A turn that is about to sleep yields its CPU first
//! (`std::thread::yield_now`, a no-op when nothing else is runnable
//! there). It matters when a peer shares the loop's CPU, which is where
//! a kernel's sync wake-ups put a loopback client: a loop that blocks
//! the moment its queue is empty is woken by the peer's next segment,
//! pre-empts the peer mid-`write`, serves the fragment and blocks again,
//! so the two alternate in slivers and — never runnable together for
//! long — look like one CPU's worth of work that the load balancer has
//! no reason to spread. Yielding instead lets the peer finish its
//! stretch; the loop then finds a batch waiting rather than a sleep, and
//! while it waits it is runnable, so a second CPU is used if there is
//! one. Without it `serve_add_seta`'s saturation throughput read 2.9k or
//! 6.1k req/s by which way the kernel had placed the two threads; with
//! it, 5.9k–6.4k over ten runs, and 3.7k–4.2k with both pinned to one CPU
//! (2.8k–3.1k there without it, where it costs a lone request 0.3 ms: a
//! loop that has yielded is not woken by an arrival, it waits its turn).
//!
//! Replies leave in the turn that produced them. Every path that queues
//! reply bytes ends in a write pass, `WRITABLE` is armed only for a
//! connection whose socket came up short, and accepted streams have
//! `TCP_NODELAY` set — a reply is one loopback segment plus a short tail,
//! which Nagle would hold for the peer's delayed ACK.
//!
//! ## One touch per stage
//!
//! A payload byte of a served request moves once per stage, and no
//! stage allocates anything the size of a polynomial or a frame once
//! the connection is warm. The kernel writes it into the connection's
//! read buffer ([`FrameAssembler::read_from`]: the buffer is what
//! `read` is handed, and a large frame is read to its exact end, so
//! the next starts the drained buffer over and the same memory stays
//! in cache). The frame is dispatched from where it lies
//! ([`FrameAssembler::peek_frame`]); the engine validates and copies
//! each limb, in one bulk pass, into a polynomial from its pool. A
//! flush serializes each result ciphertext, behind its frame header,
//! straight onto the submitting connection's write buffer
//! ([`HeaxServer::flush_into`] with the event loop as the
//! [`ReplySink`]), and the kernel reads it from there. The loop is single-threaded by
//! design — parallelism lives *below* the server, in the executor's
//! limb lanes — so driving it from a test, a binary, or a bench loop
//! is the same `while … { poll() }`.
//!
//! ## Admission control and backpressure
//!
//! Request frames are admitted against [`NetConfig::max_queue_depth`]:
//! past the bound the request is answered immediately with a
//! structured [`ErrorCode::LoadShed`] frame, as is a key registration
//! or restore the [`SessionKeyLru`] budget cannot hold. Admission is
//! the only place this server sheds: a request that is queued is
//! executed. A connection whose peer stops reading
//! (its write buffer exceeding [`NetConfig::max_write_buffer`]) is
//! dropped rather than allowed to wedge the loop.
//!
//! ## The session-key LRU
//!
//! Cached, deserialized session keys live in modeled board DRAM, and
//! DRAM is finite ([`heax_core::HeaxSystem::dram_capacity_bytes`]).
//! [`SessionKeyLru`] bounds the resident key bytes, and each key is held
//! in exactly one form at a time:
//!
//! * **Registration.** The cache admits a key by its payload length
//!   *before* the engine decodes it, evicting the least-recently-used
//!   idle session when space runs out. A registration it cannot admit is
//!   shed and never reaches the decoder, so the session keeps the key it
//!   had. A session that was evicted is restored first, so the key the
//!   upload does not replace comes back with it.
//! * **Resident.** The engine holds the decoded keys. The cache holds
//!   only their lengths, for billing; the upload was dropped once decoded.
//! * **Evicted.** [`HeaxServer::evict_session_keys`] serializes the keys
//!   (the upload byte for byte, since each key has one encoding) and
//!   drops the decoded ones, and the cache holds the bytes
//!   ([`SessionKeyLru::held_bytes`]).
//! * **Restored.** On the session's next request the bytes move out of
//!   the cache and are decoded straight back into the session; no
//!   registration frame is rebuilt around them. Then they are dropped.
//!
//! Sessions with in-flight (queued) requests are never evicted.
//! Evictions and restores are billed through
//! [`ServerStats`](crate::ServerStats) (`key_evictions`,
//! `key_reregistrations`) and [`NetStats`] (`key_evictions`,
//! `key_restores`).
//!
//! ## Failure containment
//!
//! A hostile connection (bad frame magic, oversized frame) is answered
//! with a structured [`ErrorCode::Malformed`] error frame and dropped;
//! a dying or stalled connection is reaped; replies whose connection
//! is gone are discarded. None of it disturbs co-scheduled sessions:
//! the batch still flushes and every other connection's replies still
//! route. The loopback suites (`tests/net_loopback.rs`) pin this
//! behavior against the in-process server byte-for-byte.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;

use crate::error::ErrorCode;
use crate::server::{HeaxServer, ReplySink};
use crate::wire::{self, MessageKind, FRAME_HEADER_LEN, FRAME_MAGIC};

/// Hard cap on a single frame's payload length accepted by the
/// transport (64 MiB). A header announcing more is a framing attack
/// (or a corrupt stream), not a request — the connection is dropped
/// with a structured error before any allocation of that size.
/// Pinned by PROTOCOL.md §7 and the heax-lint L6 rule.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 26;

/// Poller token reserved for the listening socket.
const LISTENER_TOKEN: u64 = 0;

/// The capacity a connection's buffer starts at and comes back to, and
/// the least room a read is offered. Control frames fit many times over;
/// a buffer grows past it only while a peer has that much in flight.
const BUFFER_FLOOR: usize = 64 * 1024;

/// How many times in a row a buffer must drain having used under a quarter
/// of itself before it shrinks.
const SETTLE_AFTER: u32 = 64;

/// When a connection's buffer sheds capacity it has stopped using: every
/// [`SETTLE_AFTER`] drains, a buffer more than four times what any of
/// them filled comes down to twice that, or to [`BUFFER_FLOOR`]. Traffic
/// that mixes frame sizes — a 256 KiB request, then three 50-byte ones —
/// keeps the buffer its largest frames need and never reallocates; one
/// 64 MiB key upload does not leave 64 MiB pinned on the connection.
#[derive(Debug, Default)]
struct Settling {
    /// Most bytes the buffer has held since the window began.
    peak: usize,
    /// Drains since the window began.
    drains: u32,
}

impl Settling {
    /// Notes that the buffer holds `bytes`.
    fn holds(&mut self, bytes: usize) {
        self.peak = self.peak.max(bytes);
    }

    /// Notes that the buffer, of `capacity` bytes, just drained; at the
    /// end of a window, what it should shrink to, if to anything.
    fn drained(&mut self, capacity: usize) -> Option<usize> {
        self.drains += 1;
        if self.drains < SETTLE_AFTER {
            return None;
        }
        let peak = std::mem::take(self).peak;
        (capacity > BUFFER_FLOOR && capacity / 4 > peak).then(|| (2 * peak).max(BUFFER_FLOOR))
    }
}

// ---------------------------------------------------------------------
// Frame assembly
// ---------------------------------------------------------------------

/// A framing-layer violation: the stream can no longer be trusted to
/// contain frames, so the connection must be dropped (after a
/// best-effort structured error frame).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameIntakeError {
    /// The next 4 buffered bytes are not the `"HEAW"` frame magic —
    /// either garbage or a desynchronized stream.
    BadMagic,
    /// The header announces a payload larger than the transport accepts.
    Oversized {
        /// Announced payload length.
        len: u32,
        /// The transport's cap ([`MAX_FRAME_PAYLOAD`] by default).
        max: u32,
    },
}

impl std::fmt::Display for FrameIntakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameIntakeError::BadMagic => write!(f, "bad frame magic"),
            FrameIntakeError::Oversized { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
        }
    }
}

impl std::error::Error for FrameIntakeError {}

/// Incremental frame assembly over an arbitrarily fragmented byte
/// stream: one linear buffer the socket reads straight into
/// ([`FrameAssembler::read_from`]) and complete frames are lent out of
/// ([`FrameAssembler::peek_frame`] / [`FrameAssembler::consume_frame`]),
/// so a payload byte is written once, by the kernel, and decoded from
/// where it landed. [`FrameAssembler::push`] and
/// [`FrameAssembler::next_frame`] are the copy-in and copy-out forms of
/// the same two steps.
///
/// Buffered bytes sit at `buf[head..tail]`. Consuming a frame advances
/// `head`; room for more is found behind `tail`, by moving a partial
/// frame back to the front when that frees enough and by growing
/// otherwise — never by more than has already arrived (or the 64 KiB
/// floor), so a header announcing 64 MiB reserves nothing its
/// sender has not backed with bytes. A buffer that keeps draining far
/// below its capacity shrinks (see `Settling`).
///
/// The assembler validates only what framing needs — the magic and the
/// payload-length bound. Version, kind, and body validation stay with
/// [`wire::decode_frame`] / the server, so a well-framed-but-invalid
/// message is answered with an error frame while the connection lives
/// on; only unframeable bytes kill the connection.
///
/// Standalone (no socket) by design: the fragmentation proptests in
/// `tests/net_props.rs` drive it byte-at-a-time, in random chunks and
/// through `read_from`, and require the frames lent out to be identical
/// to the ones copied out and to whole-buffer decoding.
#[derive(Debug)]
pub struct FrameAssembler {
    /// Initialized to its whole length, which is the capacity in use.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
    settling: Settling,
    max_payload: u32,
}

impl Default for FrameAssembler {
    fn default() -> Self {
        FrameAssembler::new()
    }
}

impl FrameAssembler {
    /// An assembler with the default [`MAX_FRAME_PAYLOAD`] cap.
    pub fn new() -> Self {
        FrameAssembler::with_max_payload(MAX_FRAME_PAYLOAD)
    }

    /// An assembler with an explicit payload cap (tests use tiny caps
    /// to exercise the oversize path cheaply).
    pub fn with_max_payload(max_payload: u32) -> Self {
        FrameAssembler {
            buf: Vec::new(),
            head: 0,
            tail: 0,
            settling: Settling::default(),
            max_payload,
        }
    }

    /// Bytes buffered but not yet returned as a complete frame.
    pub fn buffered(&self) -> usize {
        self.tail - self.head
    }

    /// Bytes the buffer occupies, buffered or free.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// `want` writable bytes behind the buffered ones — fewer when that
    /// would more than double the buffer (a header's promise is not bytes
    /// yet), though never fewer than [`BUFFER_FLOOR`].
    fn spare(&mut self, want: usize) -> &mut [u8] {
        let want = want.min(self.buf.len().max(BUFFER_FLOOR));
        if self.buf.len() - self.tail < want {
            let live = self.head..self.tail;
            if self.buf.len() - live.len() >= want {
                self.buf.copy_within(live.clone(), 0);
            } else {
                // A fresh zeroed allocation, not `resize`: pages nothing
                // is ever read into stay untouched.
                let room = (live.len() + want).max(2 * self.buf.len());
                let mut grown = vec![0u8; room.max(BUFFER_FLOOR)];
                grown[..live.len()].copy_from_slice(&self.buf[live.clone()]);
                self.buf = grown;
            }
            (self.head, self.tail) = (0, live.len());
        }
        &mut self.buf[self.tail..][..want]
    }

    /// Counts the first `n` bytes of the last [`FrameAssembler::spare`]
    /// as buffered.
    fn commit(&mut self, n: usize) {
        self.tail = (self.tail + n).min(self.buf.len());
        self.settling.holds(self.tail);
    }

    /// Feeds bytes received from the stream, in any fragmentation.
    pub fn push(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let spare = self.spare(bytes.len());
            let (now, later) = bytes.split_at(spare.len());
            spare.copy_from_slice(now);
            self.commit(now.len());
            bytes = later;
        }
    }

    /// One `read` of `stream` straight into the buffer, offered exactly
    /// the rest of the frame in progress when that is known and large, so
    /// that the frame ends where the read does and the next one starts a
    /// drained buffer over — the same few hundred KiB, still in cache,
    /// whatever the peer has in flight — and 64 KiB otherwise:
    /// a 256 KiB request costs two calls. Returns the bytes read; `Ok(0)`
    /// is the stream's end.
    ///
    /// # Errors
    ///
    /// Whatever `stream.read` reports, `WouldBlock` included.
    pub fn read_from(&mut self, stream: &mut impl Read) -> io::Result<usize> {
        let missing = match self.frame_len() {
            Ok(Some(total)) => total.saturating_sub(self.buffered()),
            _ => 0,
        };
        let n = stream.read(self.spare(missing.max(BUFFER_FLOOR)))?;
        self.commit(n);
        Ok(n)
    }

    /// The length of the frame at the head of the buffer, header
    /// included, once its header is all there.
    fn frame_len(&self) -> Result<Option<usize>, FrameIntakeError> {
        let Some(header) = self.buf[self.head..self.tail].first_chunk::<FRAME_HEADER_LEN>() else {
            return Ok(None);
        };
        if header[..4] != FRAME_MAGIC {
            return Err(FrameIntakeError::BadMagic);
        }
        // Payload length: the little-endian u32 closing the header
        // (after magic, version, kind, session, request).
        let len = u32::from_le_bytes([header[22], header[23], header[24], header[25]]);
        if len > self.max_payload {
            return Err(FrameIntakeError::Oversized {
                len,
                max: self.max_payload,
            });
        }
        Ok(Some(FRAME_HEADER_LEN + len as usize))
    }

    /// Lends the next complete frame, header and payload as one slice
    /// (exactly what [`HeaxServer::handle_frame`] expects), where it lies
    /// in the buffer; it stays there until
    /// [`FrameAssembler::consume_frame`]. `Ok(None)` means "need more
    /// bytes".
    ///
    /// # Errors
    ///
    /// [`FrameIntakeError`] when the buffered bytes cannot be the start
    /// of a frame; the stream is beyond recovery and the connection
    /// must be dropped.
    pub fn peek_frame(&self) -> Result<Option<&[u8]>, FrameIntakeError> {
        Ok(self
            .frame_len()?
            .and_then(|total| self.buf[self.head..self.tail].get(..total)))
    }

    /// Drops the frame [`FrameAssembler::peek_frame`] lends (nothing, if
    /// it lends none). Consuming the last buffered byte drains the
    /// buffer, which is when it may shrink.
    pub fn consume_frame(&mut self) {
        let Ok(Some(frame)) = self.peek_frame() else {
            return;
        };
        self.head += frame.len();
        if self.head == self.tail {
            (self.head, self.tail) = (0, 0);
            if let Some(capacity) = self.settling.drained(self.buf.len()) {
                self.buf.truncate(capacity);
                self.buf.shrink_to_fit();
            }
        }
    }

    /// Pops the next complete frame, if one is fully buffered, as an
    /// owned copy: [`FrameAssembler::peek_frame`] then
    /// [`FrameAssembler::consume_frame`].
    ///
    /// # Errors
    ///
    /// As [`FrameAssembler::peek_frame`].
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameIntakeError> {
        let frame = self.peek_frame()?.map(<[u8]>::to_vec);
        self.consume_frame();
        Ok(frame)
    }
}

// ---------------------------------------------------------------------
// Session-key LRU
// ---------------------------------------------------------------------

pub use crate::session::KeyKind;

/// Why the key cache could not make a session resident.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KeyCacheError {
    /// This session's keys alone exceed the whole budget; no eviction
    /// schedule can ever admit them.
    EntryExceedsBudget {
        /// Bytes the session's keys need.
        need: u64,
        /// The cache's total budget.
        budget: u64,
    },
    /// Every resident session is protected by in-flight requests;
    /// nothing can be evicted right now. The caller sheds the request
    /// and the client retries after the batch drains.
    CachePressure {
        /// Bytes the session's keys need.
        need: u64,
        /// Bytes currently free under the budget.
        free: u64,
    },
}

impl std::fmt::Display for KeyCacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyCacheError::EntryExceedsBudget { need, budget } => {
                write!(
                    f,
                    "session keys need {need} B, over the {budget} B DRAM budget"
                )
            }
            KeyCacheError::CachePressure { need, free } => write!(
                f,
                "key cache under pressure: {need} B needed, {free} B free, all residents in flight"
            ),
        }
    }
}

impl std::error::Error for KeyCacheError {}

/// A restore's outcome: the sessions evicted to make room, and the keys
/// handed back, relin first.
type Restored = (Vec<u64>, Vec<(KeyKind, Vec<u8>)>);

/// One of a session's keys, as the cache knows it.
#[derive(Debug)]
struct Slot {
    /// The key's serialized length: what its residency is billed.
    len: u64,
    /// The serialized key, while the cache is what holds it.
    payload: Option<Vec<u8>>,
}

/// One session's cached key material. Under [`NetServer`] a key is held
/// in one form at a time: by the engine, decoded, while the session is
/// resident (every `payload` is `None`), and by the cache, serialized,
/// once it is evicted (every `payload` is `Some`).
#[derive(Debug, Default)]
struct KeyEntry {
    /// The relinearization key and the Galois keys, by [`KeyKind`].
    keys: [Option<Slot>; 2],
    /// Whether the session is billed against the budget, its keys
    /// decoded in the inner server.
    resident: bool,
    /// LRU clock stamp of the last touch.
    last_touch: u64,
    /// Requests queued (submitted, not yet flushed) for this session.
    inflight: u64,
}

impl KeyEntry {
    fn slot(&mut self, kind: KeyKind) -> &mut Option<Slot> {
        &mut self.keys[kind as usize]
    }

    /// The session's keys, relin first.
    fn slots_mut(&mut self) -> impl Iterator<Item = (KeyKind, &mut Slot)> {
        let kinds = [KeyKind::Relin, KeyKind::Galois].into_iter();
        kinds
            .zip(&mut self.keys)
            .filter_map(|(kind, s)| Some((kind, s.as_mut()?)))
    }

    fn is_empty(&self) -> bool {
        self.keys.iter().all(Option::is_none)
    }

    fn bytes(&self) -> u64 {
        self.keys.iter().flatten().map(|s| s.len).sum()
    }

    fn held(&self) -> u64 {
        let payloads = self.keys.iter().flatten().flat_map(|s| &s.payload);
        payloads.map(|p| p.len() as u64).sum()
    }
}

/// An LRU cache bounding the modeled DRAM bytes held by resident
/// session keys.
///
/// A key's serialized length is the bill for its decoded DRAM footprint,
/// and an exact one up to the codec's headers: a key holds each residue
/// once, as the word the payload carries, and nothing derived beside it.
/// *Residency* is what is budgeted, and no key is held twice: under
/// [`NetServer`] the cache keeps only the lengths of a resident session's
/// keys, whose decoded form lives in the inner server, and holds the
/// bytes of an evicted one ([`SessionKeyLru::held_bytes`]). Used on its
/// own, through [`SessionKeyLru::store`] and [`SessionKeyLru::restore`],
/// the cache is the only holder there is and keeps what it was handed.
/// Invariants, pinned by the `net_props` proptests:
///
/// * resident bytes never exceed the budget;
/// * a session with in-flight requests is never evicted;
/// * a re-registered (evicted, then restored) session serves from
///   byte-identical key material.
#[derive(Debug)]
pub struct SessionKeyLru {
    budget: u64,
    resident_bytes: u64,
    clock: u64,
    entries: HashMap<u64, KeyEntry>,
}

impl SessionKeyLru {
    /// A cache with the given byte budget.
    pub fn new(budget: u64) -> Self {
        SessionKeyLru {
            budget,
            resident_bytes: 0,
            clock: 0,
            entries: HashMap::new(),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently billed as resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Serialized key bytes the cache itself holds. Under [`NetServer`]
    /// these are the evicted sessions' keys, and the figure is 0 while
    /// every session is resident.
    pub fn held_bytes(&self) -> u64 {
        self.entries.values().map(KeyEntry::held).sum()
    }

    /// Number of sessions currently resident.
    pub fn resident_sessions(&self) -> usize {
        self.entries.values().filter(|e| e.resident).count()
    }

    /// Whether the session has any cached key material.
    pub fn has_entry(&self, session: u64) -> bool {
        self.entries.contains_key(&session)
    }

    /// Whether the session's keys are resident.
    pub fn is_resident(&self, session: u64) -> bool {
        self.entries.get(&session).is_some_and(|e| e.resident)
    }

    /// Bumps the session's LRU stamp.
    pub fn touch(&mut self, session: u64) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(e) = self.entries.get_mut(&session) {
            e.last_touch = clock;
        }
    }

    /// Marks one request of this session queued (eviction-protected).
    pub fn begin_request(&mut self, session: u64) {
        if let Some(e) = self.entries.get_mut(&session) {
            e.inflight = e.inflight.saturating_add(1);
        }
    }

    /// Marks one request of this session answered.
    pub fn end_request(&mut self, session: u64) {
        if let Some(e) = self.entries.get_mut(&session) {
            e.inflight = e.inflight.saturating_sub(1);
        }
    }

    /// Stores (or replaces) one serialized key payload for a session
    /// and makes the session resident, evicting idle sessions as
    /// needed: the key is admitted by its length and the cache holds its
    /// bytes, which [`SessionKeyLru::restore`] hands back after an
    /// eviction. Returns the evicted session ids — a caller that holds
    /// their keys elsewhere must drop them there.
    ///
    /// # Errors
    ///
    /// [`KeyCacheError`] when residency is impossible; the payload is
    /// **not** kept (registration failed from the client's view) and a
    /// previously-resident session is left *evicted*, its earlier
    /// payloads held for [`SessionKeyLru::restore`].
    pub fn store(
        &mut self,
        session: u64,
        kind: KeyKind,
        payload: &[u8],
    ) -> Result<Vec<u64>, KeyCacheError> {
        // Take the entry off-budget while its contents change.
        if let Some(e) = self.entries.get_mut(&session).filter(|e| e.resident) {
            self.resident_bytes -= e.bytes();
            e.resident = false;
        }
        let (evicted, _) = self.admit(session, kind, payload.len() as u64)?;
        if let Some(slot) = self
            .entries
            .get_mut(&session)
            .and_then(|e| e.slot(kind).as_mut())
        {
            slot.payload = Some(payload.to_vec());
        }
        Ok(evicted)
    }

    /// Bills `session`'s `kind` key at `len` bytes, in place of the key
    /// it replaces, and makes the session resident, evicting idle
    /// sessions as needed. This is admission by length: [`NetServer`]
    /// asks it before a registration is decoded, so a key the budget
    /// cannot hold is shed without touching the one it would have
    /// replaced. The session is resident or new; an evicted one is
    /// reseated first. Returns the evicted sessions and the replaced
    /// key's length, for [`SessionKeyLru::retract`].
    ///
    /// # Errors
    ///
    /// [`KeyCacheError`] when residency is impossible; nothing changes.
    pub(crate) fn admit(
        &mut self,
        session: u64,
        kind: KeyKind,
        len: u64,
    ) -> Result<(Vec<u64>, Option<u64>), KeyCacheError> {
        let entry = self.entries.get(&session);
        let previous = entry
            .and_then(|e| e.keys[kind as usize].as_ref())
            .map(|s| s.len);
        let need = entry.map_or(0, KeyEntry::bytes) - previous.unwrap_or(0) + len;
        let evicted = self.charge(session, need)?;
        *self.entries.entry(session).or_default().slot(kind) = Some(Slot { len, payload: None });
        Ok((evicted, previous))
    }

    /// Takes back an admission whose key then failed to decode: the key
    /// the engine kept is billed again at its `previous` length, or no
    /// longer billed if there was none.
    pub(crate) fn retract(&mut self, session: u64, kind: KeyKind, previous: Option<u64>) {
        let Some(e) = self.entries.get_mut(&session) else {
            return;
        };
        let billed = e.bytes();
        *e.slot(kind) = previous.map(|len| Slot { len, payload: None });
        if e.resident {
            self.resident_bytes = self.resident_bytes - billed + e.bytes();
        }
        if e.is_empty() {
            self.entries.remove(&session);
        }
    }

    /// Makes an evicted session resident again, returning the sessions
    /// evicted to make room and copies of the payloads held for it (in
    /// registration order: relin first, then Galois). The cache keeps
    /// holding them, as [`SessionKeyLru::store`] left them. A resident
    /// session, or one with no cached keys, restores trivially (empty
    /// lists).
    ///
    /// # Errors
    ///
    /// [`KeyCacheError`] when residency is impossible right now; the
    /// caller sheds the triggering request.
    #[allow(clippy::type_complexity)]
    pub fn restore(
        &mut self,
        session: u64,
    ) -> Result<(Vec<u64>, Vec<(KeyKind, Vec<u8>)>), KeyCacheError> {
        Ok(self.readmit(session, |p| p.clone())?.unwrap_or_default())
    }

    /// [`SessionKeyLru::restore`] for a caller that decodes the keys
    /// back into an engine: the payloads are moved out, not copied, and
    /// the cache holds nothing for the session until its next eviction.
    /// `None` when there is nothing to restore.
    pub(crate) fn reseat(&mut self, session: u64) -> Result<Option<Restored>, KeyCacheError> {
        self.readmit(session, Option::take)
    }

    /// Hands the cache an evicted session's keys to hold: the engine's
    /// serialization of what it held, which is what the session is billed
    /// from now on.
    pub(crate) fn stash(&mut self, session: u64, keys: Vec<(KeyKind, Vec<u8>)>) {
        let Some(e) = self.entries.get_mut(&session).filter(|e| !e.resident) else {
            return;
        };
        e.keys = [None, None];
        for (kind, payload) in keys {
            let len = payload.len() as u64;
            *e.slot(kind) = Some(Slot {
                len,
                payload: Some(payload),
            });
        }
        if e.is_empty() {
            self.entries.remove(&session);
        }
    }

    /// Drops a session's cached keys entirely (session closed),
    /// releasing its resident bytes.
    pub fn remove(&mut self, session: u64) {
        if let Some(e) = self.entries.remove(&session) {
            if e.resident {
                self.resident_bytes -= e.bytes();
            }
        }
    }

    /// Makes `session` resident again if it was evicted and hands back
    /// what is held for it, each payload through `hand`; `None` when
    /// there is nothing to restore — no entry, or resident already (then
    /// it is only touched).
    fn readmit(
        &mut self,
        session: u64,
        hand: impl Fn(&mut Option<Vec<u8>>) -> Option<Vec<u8>>,
    ) -> Result<Option<Restored>, KeyCacheError> {
        let need = match self.entries.get(&session) {
            None => return Ok(None),
            Some(e) if e.resident => {
                self.touch(session);
                return Ok(None);
            }
            Some(e) => e.bytes(),
        };
        let evicted = self.charge(session, need)?;
        let mut payloads = Vec::new();
        if let Some(e) = self.entries.get_mut(&session) {
            for (kind, slot) in e.slots_mut() {
                payloads.extend(hand(&mut slot.payload).map(|p| (kind, p)));
            }
        }
        Ok(Some((evicted, payloads)))
    }

    /// Bills `session` `need` bytes in place of what it is billed now and
    /// makes it resident, evicting least-recently-touched idle sessions
    /// first. Eviction is all-or-nothing: the victim schedule is computed
    /// before anything is evicted, so a failure leaves the cache
    /// untouched.
    fn charge(&mut self, session: u64, need: u64) -> Result<Vec<u64>, KeyCacheError> {
        if need > self.budget {
            return Err(KeyCacheError::EntryExceedsBudget {
                need,
                budget: self.budget,
            });
        }
        let billed = (self.entries.get(&session))
            .filter(|e| e.resident)
            .map_or(0, KeyEntry::bytes);
        let base = self.resident_bytes - billed;
        // Victims: resident, idle, not the session itself, oldest first.
        let mut candidates: Vec<(u64, u64, u64)> = self
            .entries
            .iter()
            .filter(|&(&id, e)| id != session && e.resident && e.inflight == 0)
            .map(|(&id, e)| (e.last_touch, id, e.bytes()))
            .collect();
        candidates.sort_unstable();
        let mut freed = 0u64;
        let mut victims = Vec::new();
        for &(_, id, bytes) in &candidates {
            if base - freed + need <= self.budget {
                break;
            }
            freed += bytes;
            victims.push(id);
        }
        if base - freed + need > self.budget {
            return Err(KeyCacheError::CachePressure {
                need,
                free: self.budget - base,
            });
        }
        for &id in &victims {
            if let Some(e) = self.entries.get_mut(&id) {
                e.resident = false;
            }
        }
        self.resident_bytes = base - freed + need;
        self.entries.entry(session).or_default().resident = true;
        self.touch(session);
        Ok(victims)
    }
}

// ---------------------------------------------------------------------
// Configuration and counters
// ---------------------------------------------------------------------

/// Tunables of the socket runtime.
///
/// The admission bound (`max_queue_depth`) and the key-cache budget
/// (`key_cache_budget`) are where the runtime sheds load: a request
/// past either is answered at the door with [`ErrorCode::LoadShed`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetConfig {
    /// Accepted-connection cap; connections past it are refused at
    /// accept time.
    pub max_conns: usize,
    /// Queue-depth bound for request admission; requests arriving at a
    /// deeper queue are answered with a load-shed error frame.
    pub max_queue_depth: usize,
    /// Per-connection write-buffer cap: a peer that stops reading until
    /// this many reply bytes pile up is dropped (stalled-reader
    /// containment).
    pub max_write_buffer: usize,
    /// Per-frame payload cap fed to each connection's
    /// [`FrameAssembler`].
    pub max_frame_payload: u32,
    /// Byte budget of the [`SessionKeyLru`]; `0` derives one eighth of
    /// the modeled board's free DRAM at bind time.
    pub key_cache_budget: u64,
    /// Flush the batch queue as soon as this many requests are pending.
    pub flush_threshold: usize,
    /// Flush on the first poll turn that ingests no new frame while
    /// requests are pending, and take such turns without sleeping: with
    /// anything queued, [`NetServer::poll`] waits for readiness with a
    /// zero timeout whatever the caller passed, so a batch is what had
    /// arrived when the sockets ran dry. Tests that script exact batch
    /// boundaries turn this off and call [`NetServer::flush_now`]
    /// themselves; a queued request then waits for them, or for
    /// `flush_threshold`.
    pub flush_on_idle: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_conns: 4096,
            max_queue_depth: 1024,
            max_write_buffer: 8 * 1024 * 1024,
            max_frame_payload: MAX_FRAME_PAYLOAD,
            key_cache_budget: 0,
            flush_threshold: 64,
            flush_on_idle: true,
        }
    }
}

/// Counters of the socket runtime (all saturating), one layer above
/// the inner server's [`ServerStats`](crate::ServerStats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections refused at the `max_conns` cap.
    pub refused: u64,
    /// Connections that closed or errored from the peer side.
    pub disconnects: u64,
    /// Connections dropped for framing violations (bad magic, oversized
    /// frame), each answered first with a structured error frame.
    pub hostile_drops: u64,
    /// Connections dropped because their write buffer exceeded the cap
    /// (peer stopped reading).
    pub overflow_drops: u64,
    /// Complete frames assembled and dispatched.
    pub frames_in: u64,
    /// Reads that ended with a partial frame still buffered — the
    /// fragmentation reality the assembler exists for.
    pub partial_frame_reads: u64,
    /// Writes that could not take the whole pending reply in one call.
    pub short_writes: u64,
    /// Bytes read off sockets.
    pub bytes_in: u64,
    /// Bytes written to sockets.
    pub bytes_out: u64,
    /// Requests answered with a load-shed error at admission (queue
    /// bound or key-cache pressure).
    pub admission_sheds: u64,
    /// Flushes the runtime triggered.
    pub flushes: u64,
    /// Replies routed back to their submitting connection.
    pub replies_routed: u64,
    /// Replies whose connection died before the batch finished.
    pub orphaned_replies: u64,
    /// Sessions evicted from the key LRU (billed in the inner server's
    /// `key_evictions` too).
    pub key_evictions: u64,
    /// Evicted sessions transparently re-registered on their next
    /// request.
    pub key_restores: u64,
    /// Most connections ever open at once.
    pub conns_high_water: u64,
}

/// What one [`NetServer::poll`] turn did — handy for driving tests and
/// closed-loop benches without peeking at internals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetTick {
    /// Connections accepted this turn.
    pub accepted: usize,
    /// Complete frames ingested this turn.
    pub frames: usize,
    /// Replies routed (flush output) this turn.
    pub replies: usize,
    /// Connections dropped this turn (any cause).
    pub dropped: usize,
    /// Whether this turn flushed the batch queue.
    pub flushed: bool,
}

// ---------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------

/// Routing record for one queued request: which connection gets the
/// reply that [`HeaxServer::flush`] will emit at this queue position.
#[derive(Clone, Copy, Debug)]
struct Route {
    token: u64,
    session: u64,
}

/// Per-connection state machine.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    assembler: FrameAssembler,
    /// Reply bytes: `out[out_at..]` is still owed to the socket. Replies
    /// are serialized onto its end; it empties when the socket catches
    /// up, and sheds capacity by the assembler's rule.
    out: Vec<u8>,
    out_at: usize,
    out_settling: Settling,
    /// Interest bits currently registered with the poller.
    interest: u32,
    /// Marked for reaping at the end of the poll turn.
    dying: bool,
}

impl Conn {
    /// Reply bytes not yet written to the socket.
    fn owed(&self) -> usize {
        self.out.len() - self.out_at
    }

    /// Whether a reply of `len` more bytes may queue: the connection is
    /// alive and the peer is not `max_write_buffer` behind on reading. A
    /// stalled reader is marked for the axe here — containment is
    /// dropping it, not buffering without bound. Refusals are counted as
    /// orphaned replies.
    fn admit_reply(&mut self, len: usize, max_write_buffer: usize, stats: &mut NetStats) -> bool {
        if !self.dying && self.owed() + len > max_write_buffer {
            self.dying = true;
            stats.overflow_drops = stats.overflow_drops.saturating_add(1);
        }
        if self.dying {
            stats.orphaned_replies = stats.orphaned_replies.saturating_add(1);
            return false;
        }
        if self.out_at > 0 && self.out.len() + len > self.out.capacity() {
            // Make room out of what was already written before growing.
            self.out.drain(..self.out_at);
            self.out_at = 0;
        }
        true
    }

    /// Writes as much pending output as the socket takes, then re-arms the
    /// poller (skipping the syscall when nothing changed): `WRITABLE` is
    /// wanted only while some output stays owed, so a reply the socket
    /// takes whole costs no `epoll_ctl`.
    fn write_ready(&mut self, poller: &epoll::Poller, token: u64, stats: &mut NetStats) {
        while self.owed() > 0 {
            let want = self.owed();
            match self.stream.write(&self.out[self.out_at..]) {
                Ok(0) => {
                    self.dying = true;
                    stats.disconnects = stats.disconnects.saturating_add(1);
                    break;
                }
                Ok(n) => {
                    stats.bytes_out = stats.bytes_out.saturating_add(n as u64);
                    self.out_at += n;
                    if n < want {
                        stats.short_writes = stats.short_writes.saturating_add(1);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    stats.short_writes = stats.short_writes.saturating_add(1);
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dying = true;
                    stats.disconnects = stats.disconnects.saturating_add(1);
                    break;
                }
            }
        }
        if self.owed() == 0 && !self.out.is_empty() {
            // Caught up: what queued since the buffer was last empty is
            // how much of it was in use.
            self.out_settling.holds(self.out.len());
            self.out.clear();
            self.out_at = 0;
            if let Some(capacity) = self.out_settling.drained(self.out.capacity()) {
                self.out.shrink_to(capacity);
            }
        }
        let want = if self.owed() > 0 {
            epoll::READABLE | epoll::WRITABLE
        } else {
            epoll::READABLE
        };
        if want != self.interest && poller.modify(self.stream.as_raw_fd(), token, want).is_ok() {
            self.interest = want;
        }
    }
}

/// Routes the replies of one flush to the connections that submitted the
/// requests, in queue order: [`HeaxServer::flush_into`] serializes each
/// straight onto its connection's write buffer.
struct Router<'r> {
    conns: &'r mut HashMap<u64, Conn>,
    pending: &'r mut VecDeque<Route>,
    keys: &'r mut SessionKeyLru,
    stats: &'r mut NetStats,
    max_write_buffer: usize,
    routed: usize,
}

impl ReplySink for Router<'_> {
    fn buffer_for(&mut self, _: usize, len: usize) -> Option<&mut Vec<u8>> {
        // One route per queued request, submission order — the flush
        // contract.
        let route = self.pending.pop_front()?;
        self.keys.end_request(route.session);
        let Some(conn) = self.conns.get_mut(&route.token) else {
            self.stats.orphaned_replies = self.stats.orphaned_replies.saturating_add(1);
            return None;
        };
        if !conn.admit_reply(len, self.max_write_buffer, self.stats) {
            return None;
        }
        self.routed += 1;
        self.stats.replies_routed = self.stats.replies_routed.saturating_add(1);
        Some(&mut conn.out)
    }
}

/// The nonblocking TCP runtime around a [`HeaxServer`] (see the module
/// docs for the serving model).
#[derive(Debug)]
pub struct NetServer<'a> {
    listener: TcpListener,
    poller: epoll::Poller,
    events: Vec<epoll::Event>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    pending: VecDeque<Route>,
    keys: SessionKeyLru,
    config: NetConfig,
    stats: NetStats,
    inner: HeaxServer<'a>,
}

impl<'a> NetServer<'a> {
    /// Binds a listener and wraps the given engine in the socket
    /// runtime. Bind to port 0 for an ephemeral port
    /// ([`NetServer::local_addr`] reports it).
    ///
    /// # Errors
    ///
    /// Socket or poller creation failure.
    pub fn bind(addr: &str, inner: HeaxServer<'a>, config: NetConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let poller = epoll::Poller::new()?;
        poller.add(listener.as_raw_fd(), LISTENER_TOKEN, epoll::READABLE)?;
        let budget = if config.key_cache_budget == 0 {
            inner.system().dram_available_bytes() / 8
        } else {
            config.key_cache_budget
        };
        Ok(NetServer {
            listener,
            poller,
            events: Vec::new(),
            conns: HashMap::new(),
            next_token: LISTENER_TOKEN + 1,
            pending: VecDeque::new(),
            keys: SessionKeyLru::new(budget),
            config,
            stats: NetStats::default(),
            inner,
        })
    }

    /// The bound listening address.
    ///
    /// # Errors
    ///
    /// The raw `getsockname` failure, if any.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The inner engine (stats, queue inspection).
    pub fn server(&self) -> &HeaxServer<'a> {
        &self.inner
    }

    /// Mutable access to the inner engine (tests attach models and
    /// policies through the builder before `bind`; this is for
    /// inspection-with-side-effects like `stats()`).
    pub fn server_mut(&mut self) -> &mut HeaxServer<'a> {
        &mut self.inner
    }

    /// The session-key LRU (inspection).
    pub fn key_cache(&self) -> &SessionKeyLru {
        &self.keys
    }

    /// The tunables the runtime was bound with.
    pub fn config(&self) -> NetConfig {
        self.config
    }

    /// A snapshot of the runtime counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Connections currently open.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// Requests queued in the batch whose replies are still owed to
    /// connections.
    pub fn pending_replies(&self) -> usize {
        self.pending.len()
    }

    /// Runs one event-loop turn: wait for readiness, accept/read/dispatch,
    /// auto-flush per config, write, reap.
    ///
    /// `timeout_ms` is how long the turn may sleep **when there is nothing
    /// to do** (`0` = never). It is not a batching window: with
    /// [`NetConfig::flush_on_idle`] set and requests queued, the turn asks
    /// the poller only for what is ready *now*, so the queue is flushed
    /// the moment the sockets run dry — a queued request never waits out
    /// the caller's timeout. A turn that does sleep yields its CPU first,
    /// so a peer that shares it finishes what it was sending (module docs,
    /// "Runtime model").
    ///
    /// # Errors
    ///
    /// Only poller-level failures; per-connection socket errors are
    /// contained (the connection is dropped, the loop lives).
    pub fn poll(&mut self, timeout_ms: i32) -> io::Result<NetTick> {
        let mut tick = NetTick::default();
        let wait_ms = if self.config.flush_on_idle && self.inner.queue_depth() > 0 {
            0
        } else {
            timeout_ms
        };
        let mut events = std::mem::take(&mut self.events);
        if wait_ms != 0 {
            // About to sleep: whoever is runnable on this CPU — on loopback,
            // the client just answered — goes first. See "Runtime model".
            std::thread::yield_now();
        }
        self.poller.wait(&mut events, wait_ms)?;
        for ev in &events {
            if ev.token == LISTENER_TOKEN {
                tick.accepted = tick.accepted.saturating_add(self.accept_ready());
            } else if self.conns.contains_key(&ev.token) {
                if ev.is_readable() {
                    tick.frames = tick.frames.saturating_add(self.read_ready(ev.token));
                }
                if ev.is_writable() {
                    if let Some(conn) = self.conns.get_mut(&ev.token) {
                        conn.write_ready(&self.poller, ev.token, &mut self.stats);
                    }
                }
            }
        }
        self.events = events;
        let depth = self.inner.queue_depth();
        if depth > 0
            && (depth >= self.config.flush_threshold
                || (self.config.flush_on_idle && tick.frames == 0))
        {
            tick.replies = tick.replies.saturating_add(self.flush_queue());
            tick.flushed = true;
        }
        self.write_pass();
        tick.dropped = tick.dropped.saturating_add(self.reap());
        Ok(tick)
    }

    /// Drains the batch queue now, routes every reply to its connection
    /// and writes out what the sockets take at once, so a reply never
    /// waits for a later turn's readiness event; returns the number of
    /// replies routed (orphans included in the count's complement, see
    /// [`NetStats::orphaned_replies`]).
    pub fn flush_now(&mut self) -> usize {
        let routed = self.flush_queue();
        self.write_pass();
        routed
    }

    /// Executes the queued batch, each reply serialized onto its
    /// connection's write buffer; returns the number routed.
    fn flush_queue(&mut self) -> usize {
        let mut router = Router {
            conns: &mut self.conns,
            pending: &mut self.pending,
            keys: &mut self.keys,
            stats: &mut self.stats,
            max_write_buffer: self.config.max_write_buffer,
            routed: 0,
        };
        let answered = self.inner.flush_into(&mut router);
        let routed = router.routed;
        if answered > 0 {
            self.stats.flushes = self.stats.flushes.saturating_add(1);
        }
        routed
    }

    /// Pushes out whatever reply bytes the sockets will take now. Every
    /// path that queues reply bytes ends here, which is why queueing never
    /// arms `WRITABLE` itself.
    fn write_pass(&mut self) {
        for (&token, conn) in &mut self.conns {
            if conn.owed() > 0 && !conn.dying {
                conn.write_ready(&self.poller, token, &mut self.stats);
            }
        }
    }

    /// Accepts every pending connection; returns how many.
    fn accept_ready(&mut self) -> usize {
        let mut accepted = 0;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.conns.len() >= self.config.max_conns {
                        self.stats.refused = self.stats.refused.saturating_add(1);
                        drop(stream);
                        continue;
                    }
                    // Replies are one loopback MSS plus a short tail; Nagle
                    // would hold the tail for the peer's delayed ACK.
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        self.stats.refused = self.stats.refused.saturating_add(1);
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .add(stream.as_raw_fd(), token, epoll::READABLE)
                        .is_err()
                    {
                        self.stats.refused = self.stats.refused.saturating_add(1);
                        continue;
                    }
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            assembler: FrameAssembler::with_max_payload(
                                self.config.max_frame_payload,
                            ),
                            out: Vec::new(),
                            out_at: 0,
                            out_settling: Settling::default(),
                            interest: epoll::READABLE,
                            dying: false,
                        },
                    );
                    accepted += 1;
                    self.stats.accepted = self.stats.accepted.saturating_add(1);
                    self.stats.conns_high_water =
                        self.stats.conns_high_water.max(self.conns.len() as u64);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        accepted
    }

    /// Reads a readable connection to `WouldBlock`, straight into its
    /// assembler, dispatching after every read the frames it completed
    /// from where they lie there — before the next read lands on top of
    /// them; returns the number of frames ingested.
    fn read_ready(&mut self, token: u64) -> usize {
        let mut count = 0;
        let mut hostile = None;
        while hostile.is_none() {
            let Some(conn) = self.conns.get_mut(&token) else {
                return count;
            };
            match conn.assembler.read_from(&mut conn.stream) {
                Ok(0) => {
                    conn.dying = true;
                    self.stats.disconnects = self.stats.disconnects.saturating_add(1);
                    break;
                }
                Ok(n) => self.stats.bytes_in = self.stats.bytes_in.saturating_add(n as u64),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dying = true;
                    self.stats.disconnects = self.stats.disconnects.saturating_add(1);
                    break;
                }
            }
            // The assembler leaves the connection while its frames are
            // lent to the dispatcher, which needs the rest of `self`.
            let mut assembler = std::mem::take(&mut conn.assembler);
            hostile = loop {
                match assembler.peek_frame() {
                    Ok(Some(frame)) => self.dispatch(token, frame),
                    Ok(None) => break None,
                    Err(e) => break Some(e),
                }
                assembler.consume_frame();
                count += 1;
            };
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.assembler = assembler;
            }
        }
        self.stats.frames_in = self.stats.frames_in.saturating_add(count as u64);
        let partial = (self.conns.get(&token)).is_some_and(|c| c.assembler.buffered() > 0);
        if hostile.is_none() && partial {
            self.stats.partial_frame_reads = self.stats.partial_frame_reads.saturating_add(1);
        }
        if let Some(e) = hostile {
            // Structured error frame, then the axe: the stream is
            // unframeable, so this is the last thing the peer hears.
            let payload = wire::encode_error(ErrorCode::Malformed, &e.to_string());
            let reply = wire::encode_frame(wire::WIRE_V1, MessageKind::Error, 0, 0, &payload);
            self.enqueue_reply(token, &reply);
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.write_ready(&self.poller, token, &mut self.stats);
                conn.dying = true;
            }
            self.stats.hostile_drops = self.stats.hostile_drops.saturating_add(1);
        }
        count
    }

    /// Routes one complete frame: key registrations pass through the
    /// LRU, requests pass admission control, everything else goes
    /// straight to the engine.
    fn dispatch(&mut self, token: u64, frame: &[u8]) {
        let Ok(decoded) = wire::decode_frame(frame) else {
            // Well-framed but undecodable (bad version/kind): the
            // engine answers a structured error; the connection lives.
            if let Some(reply) = self.inner.handle_frame(frame) {
                self.enqueue_reply(token, &reply);
            }
            return;
        };
        let (version, kind, session, request) = (
            decoded.version,
            decoded.kind,
            decoded.session,
            decoded.request,
        );
        match kind {
            MessageKind::RegisterRelinKey => {
                self.register_key(token, frame, &decoded, KeyKind::Relin);
            }
            MessageKind::RegisterGaloisKeys => {
                self.register_key(token, frame, &decoded, KeyKind::Galois);
            }
            MessageKind::Request => {
                if self.inner.queue_depth() >= self.config.max_queue_depth {
                    let msg = format!(
                        "queue depth {} at the {}-request admission bound",
                        self.inner.queue_depth(),
                        self.config.max_queue_depth
                    );
                    self.shed(token, version, session, request, &msg);
                    return;
                }
                if let Err(e) = self.restore_session_keys(session) {
                    self.shed(token, version, session, request, &e.to_string());
                    return;
                }
                match self.inner.handle_frame(frame) {
                    None => {
                        self.pending.push_back(Route { token, session });
                        self.keys.begin_request(session);
                        self.keys.touch(session);
                    }
                    Some(reply) => {
                        self.enqueue_reply(token, &reply);
                    }
                }
            }
            MessageKind::CloseSession => {
                if let Some(reply) = self.inner.handle_frame(frame) {
                    let closed = wire::decode_frame(&reply)
                        .map(|f| f.kind == MessageKind::SessionClosed)
                        .unwrap_or(false);
                    if closed {
                        self.keys.remove(session);
                    }
                    self.enqueue_reply(token, &reply);
                }
            }
            _ => {
                if let Some(reply) = self.inner.handle_frame(frame) {
                    self.enqueue_reply(token, &reply);
                }
            }
        }
    }

    /// Registers one key, budget first: the LRU admits it by its length
    /// before the engine decodes it, so a registration the budget sheds
    /// never replaces the key the session already had. An evicted session
    /// is restored before anything else, so the key the upload does not
    /// replace comes back with it.
    fn register_key(&mut self, token: u64, frame: &[u8], head: &wire::Frame<'_>, kind: KeyKind) {
        let (version, session, request) = (head.version, head.session, head.request);
        if !self.inner.has_session(session) {
            // Nothing to bill: the engine answers for a session it does
            // not know.
            if let Some(reply) = self.inner.handle_frame(frame) {
                self.enqueue_reply(token, &reply);
            }
            return;
        }
        let len = head.payload.len() as u64;
        let admission = self
            .restore_session_keys(session)
            .and_then(|()| self.keys.admit(session, kind, len));
        let previous = match admission {
            Ok((evicted, previous)) => {
                self.apply_evictions(&evicted);
                previous
            }
            Err(e) => return self.shed(token, version, session, request, &e.to_string()),
        };
        let Some(reply) = self.inner.handle_frame(frame) else {
            return;
        };
        if !wire::decode_frame(&reply).is_ok_and(|f| f.kind == MessageKind::KeyRegistered) {
            self.keys.retract(session, kind, previous);
        }
        self.enqueue_reply(token, &reply);
    }

    /// Restores an evicted session's keys into the engine: makes the
    /// session resident (evicting idle victims) and decodes the bytes the
    /// cache held for it, which are then dropped. A no-op for a resident
    /// session or one with no keys.
    fn restore_session_keys(&mut self, session: u64) -> Result<(), KeyCacheError> {
        let Some((evicted, keys)) = self.keys.reseat(session)? else {
            return Ok(());
        };
        self.apply_evictions(&evicted);
        for (kind, payload) in keys {
            // The engine's own serialization of a key it held: it decodes.
            let _ = self.inner.install_key(session, kind, &payload);
        }
        self.stats.key_restores = self.stats.key_restores.saturating_add(1);
        Ok(())
    }

    /// Moves the named sessions' keys from the engine, serialized, into
    /// the cache, and bills the evictions.
    fn apply_evictions(&mut self, evicted: &[u64]) {
        for &victim in evicted {
            match self.inner.evict_session_keys(victim) {
                Ok(keys) => self.keys.stash(victim, keys),
                // Closed since: there is nothing left to hold.
                Err(_) => self.keys.remove(victim),
            }
            self.stats.key_evictions = self.stats.key_evictions.saturating_add(1);
        }
    }

    /// Answers a request at the door with a load-shed error frame at the
    /// peer's wire version, and bills the shed.
    fn shed(&mut self, token: u64, version: u8, session: u64, request: u64, msg: &str) {
        self.stats.admission_sheds = self.stats.admission_sheds.saturating_add(1);
        let payload = wire::encode_error(ErrorCode::LoadShed, msg);
        let frame = wire::encode_frame(version, MessageKind::Error, session, request, &payload);
        self.enqueue_reply(token, &frame);
    }

    /// Queues reply bytes on a connection's write buffer; `false` when
    /// the connection is gone or was dropped for overflow.
    fn enqueue_reply(&mut self, token: u64, bytes: &[u8]) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            self.stats.orphaned_replies = self.stats.orphaned_replies.saturating_add(1);
            return false;
        };
        if !conn.admit_reply(bytes.len(), self.config.max_write_buffer, &mut self.stats) {
            return false;
        }
        conn.out.extend_from_slice(bytes);
        true
    }

    /// Removes every connection marked dying; returns how many.
    fn reap(&mut self) -> usize {
        let before = self.conns.len();
        self.conns.retain(|_, conn| {
            if conn.dying {
                let _ = self.poller.delete(conn.stream.as_raw_fd());
            }
            !conn.dying
        });
        before - self.conns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // ----- The linear buffer under FrameAssembler -----

    /// A request frame around `payload`, its id telling frames apart.
    fn frame(id: u64, payload: &[u8]) -> Vec<u8> {
        wire::encode_frame(wire::WIRE_V2, MessageKind::Request, 1, id, payload)
    }

    #[test]
    fn assembler_compaction_keeps_a_straddling_frame_whole() {
        // Fill the buffer to the brim with frames, the last one cut short
        // at the buffer's end; consuming the whole ones leaves it at the
        // tail with no room behind it.
        let whole = frame(1, &[7; 1000]);
        let mut asm = FrameAssembler::new();
        let mut sent = 0;
        while asm.capacity() == 0 || sent + whole.len() <= asm.capacity() {
            asm.push(&whole);
            sent += whole.len();
        }
        let capacity = asm.capacity();
        let straddler = frame(2, &[9; 1000]);
        let cut = capacity - sent;
        assert!(0 < cut && cut < straddler.len());
        asm.push(&straddler[..cut]);
        assert_eq!(asm.buffered(), capacity);
        while let Some(f) = asm.peek_frame().unwrap() {
            assert_eq!(f, whole);
            asm.consume_frame();
        }
        assert_eq!(asm.buffered(), cut);
        // The rest arrives: the partial frame moves to the front, the
        // buffer does not grow, and the frame comes out whole.
        asm.push(&straddler[cut..]);
        assert_eq!(asm.capacity(), capacity);
        assert_eq!(asm.next_frame().unwrap(), Some(straddler));
        assert_eq!(asm.buffered(), 0);
        // Totality: consuming with nothing lent is a no-op.
        asm.consume_frame();
        assert_eq!(asm.next_frame().unwrap(), None);
    }

    #[test]
    fn assembler_empty_push_is_a_no_op_even_before_first_allocation() {
        let mut asm = FrameAssembler::new();
        asm.push(&[]);
        assert_eq!((asm.buffered(), asm.capacity()), (0, 0));
        let f = frame(3, b"abc");
        asm.push(&f);
        asm.push(&[]);
        assert_eq!(asm.capacity(), BUFFER_FLOOR);
        assert_eq!(asm.next_frame().unwrap(), Some(f));
    }

    #[test]
    fn assembler_growth_preserves_order() {
        // Nothing is consumed until everything is in, so the buffer must
        // grow, several times, around what it already holds.
        let mut asm = FrameAssembler::new();
        for i in 0..4000u64 {
            asm.push(&frame(i, &i.to_le_bytes()));
        }
        assert!(asm.capacity() > 2 * BUFFER_FLOOR);
        for i in 0..4000u64 {
            assert_eq!(asm.next_frame().unwrap(), Some(frame(i, &i.to_le_bytes())));
        }
        assert_eq!(asm.buffered(), 0);
    }

    #[test]
    fn a_buffer_sheds_capacity_it_has_stopped_using() {
        // A 4 MiB upload grows the buffer; mixed traffic that keeps using
        // it — large frames among small ones — keeps it, through any
        // number of windows; small frames alone bring it home within two.
        let mut asm = FrameAssembler::new();
        let (upload, small) = (frame(1, &vec![1; 4 << 20]), frame(2, b"small"));
        let serve = |asm: &mut FrameAssembler, f: &Vec<u8>| {
            asm.push(f);
            assert_eq!(asm.next_frame().unwrap().as_ref(), Some(f));
            asm.capacity()
        };
        let grown = serve(&mut asm, &upload);
        assert!(grown >= upload.len());
        for i in 0..4 * SETTLE_AFTER {
            let f = if i % 50 == 0 { &upload } else { &small };
            assert_eq!(serve(&mut asm, f), grown, "in use: kept");
        }
        let after: Vec<usize> = (0..2 * SETTLE_AFTER)
            .map(|_| serve(&mut asm, &small))
            .collect();
        assert_eq!(after.last(), Some(&BUFFER_FLOOR));
        assert!(after.iter().all(|&c| c == grown || c == BUFFER_FLOOR));

        // The rule itself, at the end of a window: keep up to 4x the use,
        // else come down to 2x, never below the floor.
        let settle = |capacity, peak| {
            let mut settling = Settling {
                peak,
                drains: SETTLE_AFTER - 1,
            };
            settling.drained(capacity)
        };
        assert_eq!(settle(4 << 20, 1 << 20), None);
        assert_eq!(settle(4 << 20, (1 << 20) - 1), Some((2 << 20) - 2));
        assert_eq!(settle(4 << 20, 5), Some(BUFFER_FLOOR));
        assert_eq!(settle(BUFFER_FLOOR, 0), None);
        assert_eq!(Settling::default().drained(4 << 20), None, "mid-window");
    }

    // ----- FrameAssembler -----

    fn sample_frames() -> Vec<Vec<u8>> {
        vec![
            wire::client::open_session(),
            wire::encode_frame(wire::WIRE_V2, MessageKind::CloseSession, 3, 9, &[]),
            wire::encode_frame(wire::WIRE_V1, MessageKind::Request, 1, 2, &[1, 2, 3, 4]),
        ]
    }

    #[test]
    fn assembler_reassembles_byte_at_a_time() {
        let frames = sample_frames();
        let stream: Vec<u8> = frames.iter().flatten().copied().collect();
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for &b in &stream {
            asm.push(&[b]);
            while let Some(f) = asm.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(asm.buffered(), 0);
    }

    #[test]
    fn assembler_rejects_bad_magic_and_oversize() {
        let mut asm = FrameAssembler::new();
        asm.push(b"GARBAGE-GARBAGE-GARBAGE-GARBAGE");
        assert_eq!(asm.next_frame(), Err(FrameIntakeError::BadMagic));

        let mut tiny = FrameAssembler::with_max_payload(8);
        let frame = wire::encode_frame(wire::WIRE_V1, MessageKind::Request, 1, 1, &[0u8; 9]);
        tiny.push(&frame);
        assert_eq!(
            tiny.next_frame(),
            Err(FrameIntakeError::Oversized { len: 9, max: 8 })
        );
    }

    #[test]
    fn assembler_needs_full_header_and_payload() {
        let frame = wire::client::open_session();
        let mut asm = FrameAssembler::new();
        asm.push(&frame[..FRAME_HEADER_LEN - 1]);
        assert_eq!(asm.next_frame().unwrap(), None);
        asm.push(&frame[FRAME_HEADER_LEN - 1..]);
        assert_eq!(asm.next_frame().unwrap(), Some(frame));
    }

    // ----- SessionKeyLru -----

    #[test]
    fn lru_budget_is_a_hard_bound() {
        let mut lru = SessionKeyLru::new(100);
        assert_eq!(lru.store(1, KeyKind::Galois, &[0; 60]).unwrap(), vec![]);
        assert_eq!(lru.resident_bytes(), 60);
        // Session 2 fits only by evicting session 1 (LRU victim).
        assert_eq!(lru.store(2, KeyKind::Galois, &[0; 60]).unwrap(), vec![1]);
        assert_eq!(lru.resident_bytes(), 60);
        assert!(!lru.is_resident(1));
        assert!(lru.is_resident(2));
        // A single entry over the whole budget is refused outright.
        assert_eq!(
            lru.store(3, KeyKind::Galois, &[0; 101]),
            Err(KeyCacheError::EntryExceedsBudget {
                need: 101,
                budget: 100
            })
        );
        assert!(!lru.has_entry(3), "rejected upload leaves no state");
        assert_eq!(lru.resident_bytes(), 60);
    }

    #[test]
    fn lru_never_evicts_inflight_sessions() {
        let mut lru = SessionKeyLru::new(100);
        lru.store(1, KeyKind::Galois, &[0; 60]).unwrap();
        lru.begin_request(1);
        // Session 2 cannot fit without evicting 1, and 1 is protected.
        assert!(matches!(
            lru.store(2, KeyKind::Galois, &[0; 60]),
            Err(KeyCacheError::CachePressure { .. })
        ));
        assert!(lru.is_resident(1));
        lru.end_request(1);
        assert_eq!(lru.store(2, KeyKind::Galois, &[0; 60]).unwrap(), vec![1]);
    }

    #[test]
    fn lru_failed_store_leaves_prior_session_evicted_but_restorable() {
        let mut lru = SessionKeyLru::new(100);
        lru.store(1, KeyKind::Relin, &[7; 40]).unwrap();
        assert!(lru.is_resident(1));
        // Replacing the key with one that can never fit fails the
        // store...
        assert!(matches!(
            lru.store(1, KeyKind::Relin, &[0; 101]),
            Err(KeyCacheError::EntryExceedsBudget { .. })
        ));
        // ...keeps the pre-upload payload but leaves the session
        // evicted...
        assert!(lru.has_entry(1));
        assert!(!lru.is_resident(1));
        assert_eq!(lru.resident_bytes(), 0);
        // ...and a restore re-seats exactly the pre-upload payload.
        let (evicted, payloads) = lru.restore(1).unwrap();
        assert!(evicted.is_empty());
        assert_eq!(payloads, vec![(KeyKind::Relin, vec![7; 40])]);
        assert!(lru.is_resident(1));
        assert_eq!(lru.resident_bytes(), 40);
    }

    #[test]
    fn lru_restore_returns_stored_payloads_in_registration_order() {
        let mut lru = SessionKeyLru::new(100);
        lru.store(1, KeyKind::Relin, &[1, 2, 3]).unwrap();
        lru.store(1, KeyKind::Galois, &[4, 5]).unwrap();
        lru.store(2, KeyKind::Galois, &[0; 97]).unwrap(); // evicts 1
        assert!(!lru.is_resident(1));
        let (evicted, payloads) = lru.restore(1).unwrap();
        assert_eq!(evicted, vec![2]);
        assert_eq!(
            payloads,
            vec![
                (KeyKind::Relin, vec![1, 2, 3]),
                (KeyKind::Galois, vec![4, 5])
            ]
        );
        assert!(lru.is_resident(1));
        // Restoring a resident session (or one with no entry) is a
        // cheap no-op.
        assert_eq!(lru.restore(1).unwrap(), (vec![], vec![]));
        assert_eq!(lru.restore(777).unwrap(), (vec![], vec![]));
    }

    #[test]
    fn lru_remove_releases_bytes() {
        let mut lru = SessionKeyLru::new(100);
        lru.store(1, KeyKind::Galois, &[0; 80]).unwrap();
        lru.remove(1);
        assert_eq!(lru.resident_bytes(), 0);
        assert_eq!(lru.resident_sessions(), 0);
        lru.store(2, KeyKind::Galois, &[0; 100]).unwrap();
        assert_eq!(lru.resident_bytes(), 100);
    }

    #[test]
    fn lru_admits_by_length_and_holds_only_what_is_evicted() {
        let mut lru = SessionKeyLru::new(100);
        // Admitted by length: billed, nothing held.
        assert_eq!(lru.admit(1, KeyKind::Galois, 60), Ok((vec![], None)));
        assert_eq!((lru.resident_bytes(), lru.held_bytes()), (60, 0));
        // A replacement the budget cannot hold changes nothing.
        assert!(lru.admit(1, KeyKind::Galois, 101).is_err());
        assert!(lru.is_resident(1));
        assert_eq!(lru.resident_bytes(), 60);
        // One it can, whose key then fails to decode, is taken back.
        assert_eq!(lru.admit(1, KeyKind::Galois, 90), Ok((vec![], Some(60))));
        lru.retract(1, KeyKind::Galois, Some(60));
        assert_eq!(lru.resident_bytes(), 60);
        // Evicted, a session's keys are held as the engine hands them
        // over; reseated, they are handed back and not kept.
        assert_eq!(lru.admit(2, KeyKind::Relin, 50), Ok((vec![1], None)));
        lru.stash(1, vec![(KeyKind::Galois, vec![7; 60])]);
        assert_eq!(lru.held_bytes(), 60);
        let restored = (vec![2], vec![(KeyKind::Galois, vec![7; 60])]);
        assert_eq!(lru.reseat(1), Ok(Some(restored)));
        assert_eq!((lru.resident_bytes(), lru.held_bytes()), (60, 0));
        assert_eq!(lru.reseat(1), Ok(None), "resident: nothing to restore");
        // A new session's failed key leaves no entry behind.
        lru.retract(2, KeyKind::Relin, None);
        assert!(!lru.has_entry(2));
    }

    #[test]
    fn lru_eviction_order_is_least_recently_touched() {
        let mut lru = SessionKeyLru::new(100);
        lru.store(1, KeyKind::Galois, &[0; 40]).unwrap();
        lru.store(2, KeyKind::Galois, &[0; 40]).unwrap();
        lru.touch(1); // 2 is now the LRU victim
        assert_eq!(lru.store(3, KeyKind::Galois, &[0; 40]).unwrap(), vec![2]);
    }

    // ----- The event loop's sockets -----

    #[test]
    fn accepted_streams_have_nagle_off() {
        // A reply is one loopback segment and a tail of a hundred bytes;
        // with Nagle on, the tail waits for the peer's delayed ACK.
        let params = heax_ckks::CkksParams::from_set(heax_ckks::ParamSet::SetA).unwrap();
        let ctx = heax_ckks::CkksContext::new(params).unwrap();
        let inner = HeaxServer::new(&ctx, heax_hw::board::Board::stratix10()).unwrap();
        let mut net = NetServer::bind("127.0.0.1:0", inner, NetConfig::default()).unwrap();
        let _peer = TcpStream::connect(net.local_addr().unwrap()).unwrap();
        for _ in 0..100 {
            if net.connections() == 1 {
                break;
            }
            net.poll(10).unwrap();
        }
        assert_eq!(net.connections(), 1);
        assert!(net.conns.values().all(|c| c.stream.nodelay().unwrap()));
    }

    #[test]
    fn config_defaults_are_sane() {
        let c = NetConfig::default();
        assert!(c.max_conns > 0 && c.max_queue_depth > 0);
        assert_eq!(c.max_frame_payload, MAX_FRAME_PAYLOAD);
        assert!(c.flush_on_idle);
    }
}
