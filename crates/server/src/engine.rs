//! The session lifecycle, with no socket. An [`Engine`] is the one place
//! that decides whether a frame is admitted and which session keys are
//! resident for it; [`NetServer`](crate::NetServer) only moves its
//! frames and replies, and `tests/lifecycle.rs` drives it in process,
//! every sequence up to depth 4, against a reference model.
//!
//! It sheds at the door, with a structured [`ErrorCode::LoadShed`]
//! frame: a request that finds [`NetConfig::max_queue_depth`] requests
//! queued, and a key registration, or the restore a request needs, that
//! the [`SessionKeyLru`] budget cannot hold. A request that is queued is
//! executed.
//!
//! ## The session-key LRU
//!
//! Cached, deserialized session keys live in modeled board DRAM, and
//! DRAM is finite ([`Board::dram_gib`](heax_hw::board::Board::dram_gib)).
//! Unless [`NetConfig::key_cache_budget`] says otherwise,
//! [`SessionKeyLru`] may hold an eighth of what the server's parked
//! results leave free of it when the engine is built. It bounds the
//! resident key bytes, and each key is held in exactly one form at a time:
//!
//! * **Registration.** The cache admits a key by its payload length
//!   *before* the server decodes it, evicting the least-recently-used
//!   idle session when space runs out. A registration it cannot admit is
//!   shed and never reaches the decoder, so the session keeps the key it
//!   had. A session that was evicted is restored first, so the key the
//!   upload does not replace comes back with it.
//! * **Resident.** The server holds the decoded keys. The cache holds
//!   only their lengths, for billing; the upload was dropped once decoded.
//! * **Evicted.** [`HeaxServer::evict_session_keys`] serializes the keys
//!   (the upload byte for byte, since each key has one encoding) and
//!   drops the decoded ones, and the cache holds the bytes
//!   ([`SessionKeyLru::held_bytes`]).
//! * **Restored.** On the session's next request the bytes move out of
//!   the cache and are decoded straight back into the session; no
//!   registration frame is rebuilt around them. Then they are dropped.
//!
//! A session with a request in the server's queue is never evicted. The
//! queue is the one count of in-flight work, read only when a charge has
//! to pick victims. Evictions and restores are billed through
//! [`ServerStats`](crate::ServerStats) (`key_evictions`,
//! `key_reregistrations`) and [`NetStats`] (`key_evictions`,
//! `key_restores`).

use std::collections::{HashMap, HashSet};

use crate::error::ErrorCode;
use crate::net::{NetConfig, NetStats};
use crate::server::{HeaxServer, ReplySink};
use crate::session::KeyKind;
use crate::wire::{self, Frame, MessageKind};

/// The session lifecycle around a [`HeaxServer`]: admission, key
/// residency, eviction and restore, with no socket (see the module docs).
#[derive(Debug)]
pub struct Engine<'a> {
    pub(crate) server: HeaxServer<'a>,
    keys: SessionKeyLru,
    max_queue_depth: usize,
    /// The runtime counters decided here: `admission_sheds`,
    /// `key_evictions` and `key_restores`.
    pub(crate) stats: NetStats,
}

impl<'a> Engine<'a> {
    /// Wraps `server` with `config`'s admission bound and key-cache budget.
    pub fn new(server: HeaxServer<'a>, config: &NetConfig) -> Self {
        let budget = match config.key_cache_budget {
            0 => server.dram_available_bytes() / 8,
            budget => budget,
        };
        Engine {
            server,
            keys: SessionKeyLru::new(budget),
            max_queue_depth: config.max_queue_depth,
            stats: NetStats::default(),
        }
    }

    /// The inner server (stats, queue inspection).
    pub fn server(&self) -> &HeaxServer<'a> {
        &self.server
    }

    /// The session-key LRU (inspection).
    pub fn key_cache(&self) -> &SessionKeyLru {
        &self.keys
    }

    /// Handles one client frame. An answer (a control frame's reply, an
    /// error, a shed) is appended to the buffer `sink` names for it; a
    /// request that is queued is answered by a later
    /// [`Engine::flush_into`], and `true` says so.
    pub fn handle(&mut self, frame: &[u8], sink: &mut impl ReplySink) -> bool {
        let Ok(head) = wire::decode_frame(frame) else {
            // Well-framed but undecodable (bad version or kind): the
            // server answers a structured error.
            return self.pass(frame, sink);
        };
        match head.kind {
            MessageKind::RegisterRelinKey => self.register_key(frame, &head, KeyKind::Relin, sink),
            MessageKind::RegisterGaloisKeys => {
                self.register_key(frame, &head, KeyKind::Galois, sink)
            }
            MessageKind::Request => {
                let depth = self.server.queue_depth();
                let admission = if depth >= self.max_queue_depth {
                    let bound = self.max_queue_depth;
                    Err(format!(
                        "queue depth {depth} at the {bound}-request admission bound"
                    ))
                } else {
                    self.restore_session_keys(head.session)
                        .map_err(|e| e.to_string())
                };
                if let Err(msg) = admission {
                    self.shed(&head, &msg, sink);
                    return false;
                }
                // Restoring touched the session's keys, if it has any.
                self.pass(frame, sink)
            }
            MessageKind::CloseSession => {
                // Closed now or never open, the session has no keys to hold.
                self.keys.remove(head.session);
                self.pass(frame, sink)
            }
            _ => self.pass(frame, sink),
        }
    }

    /// Executes the queued batch: [`HeaxServer::flush_into`]. Answering a
    /// session's queued requests is what lets its keys be evicted again.
    pub fn flush_into(&mut self, sink: &mut impl ReplySink) -> usize {
        self.server.flush_into(sink)
    }

    /// Hands a frame to the server and its answer to `sink`; `true` when
    /// the server queued it instead.
    fn pass(&mut self, frame: &[u8], sink: &mut impl ReplySink) -> bool {
        let Some(reply) = self.server.handle_frame(frame) else {
            return true;
        };
        self.answer(&reply, sink);
        false
    }

    /// Appends an answer to the buffer `sink` names for it.
    fn answer(&self, reply: &[u8], sink: &mut impl ReplySink) {
        if let Some(out) = sink.buffer_for(self.server.queue_depth(), reply.len()) {
            out.extend_from_slice(reply);
        }
    }

    /// Registers one key, budget first: the LRU admits it by its length
    /// before the server decodes it, so a registration the budget sheds
    /// never replaces the key the session already had. An evicted session
    /// is restored before anything else, so the key the upload does not
    /// replace comes back with it.
    fn register_key(
        &mut self,
        frame: &[u8],
        head: &Frame<'_>,
        kind: KeyKind,
        sink: &mut impl ReplySink,
    ) -> bool {
        let session = head.session;
        if !self.server.has_session(session) {
            // Nothing to bill: the server answers for a session it does
            // not know.
            return self.pass(frame, sink);
        }
        let len = head.payload.len() as u64;
        let admission = self.restore_session_keys(session).and_then(|()| {
            self.keys
                .admit(session, kind, len, || self.server.queued_sessions())
        });
        let previous = match admission {
            Ok((evicted, previous)) => {
                self.apply_evictions(&evicted);
                previous
            }
            Err(e) => {
                self.shed(head, &e.to_string(), sink);
                return false;
            }
        };
        if let Some(reply) = self.server.handle_frame(frame) {
            if !wire::decode_frame(&reply).is_ok_and(|f| f.kind == MessageKind::KeyRegistered) {
                self.keys.retract(session, kind, previous);
            }
            self.answer(&reply, sink);
        }
        false
    }

    /// Restores an evicted session's keys into the server: makes the
    /// session resident (evicting idle victims) and decodes the bytes the
    /// cache held for it, which are then dropped. A no-op for a resident
    /// session or one with no keys.
    fn restore_session_keys(&mut self, session: u64) -> Result<(), KeyCacheError> {
        let busy = || self.server.queued_sessions();
        let Some((evicted, keys)) = self.keys.reseat(session, busy)? else {
            return Ok(());
        };
        self.apply_evictions(&evicted);
        for (kind, payload) in keys {
            // The server's own serialization of a key it held: it decodes.
            let _ = self.server.install_key(session, kind, &payload);
        }
        self.stats.key_restores = self.stats.key_restores.saturating_add(1);
        Ok(())
    }

    /// Moves the named sessions' keys from the server, serialized, into
    /// the cache, and bills the evictions.
    fn apply_evictions(&mut self, evicted: &[u64]) {
        for &victim in evicted {
            match self.server.evict_session_keys(victim) {
                Ok(keys) => self.keys.stash(victim, keys),
                // Closed since: there is nothing left to hold.
                Err(_) => self.keys.remove(victim),
            }
            self.stats.key_evictions = self.stats.key_evictions.saturating_add(1);
        }
    }

    /// Answers a frame at the door with a load-shed error frame at the
    /// peer's wire version, and bills the shed.
    fn shed(&mut self, head: &Frame<'_>, msg: &str, sink: &mut impl ReplySink) {
        self.stats.admission_sheds = self.stats.admission_sheds.saturating_add(1);
        let payload = wire::encode_error(ErrorCode::LoadShed, msg);
        let (version, session, request) = (head.version, head.session, head.request);
        let frame = wire::encode_frame(version, MessageKind::Error, session, request, &payload);
        self.answer(&frame, sink);
    }
}

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

/// One session's cached key material. Under an [`Engine`] a key is held
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
/// and an upper bound on it: a key holds each residue once, packed at its
/// chain's byte width (`w` of the payload's 8 bytes a word), and nothing
/// derived beside it.
/// *Residency* is what is budgeted, and no key is held twice: under
/// an [`Engine`] the cache keeps only the lengths of a resident session's
/// keys, whose decoded form lives in the inner server, and holds the
/// bytes of an evicted one ([`SessionKeyLru::held_bytes`]). Used on its
/// own, through [`SessionKeyLru::store`] and [`SessionKeyLru::restore`],
/// the cache is the only holder there is and keeps what it was handed.
/// Invariants, pinned by the `net_props` proptests and, under an
/// [`Engine`], by `tests/lifecycle.rs`:
///
/// * resident bytes never exceed the budget;
/// * a session with requests in an [`Engine`]'s queue is never evicted;
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

    /// Serialized key bytes the cache itself holds. Under an [`Engine`]
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
        let (evicted, _) = self.admit(session, kind, payload.len() as u64, HashSet::new)?;
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
    /// sessions `busy` does not name as needed. This is admission by
    /// length: the [`Engine`] asks it before a registration is decoded,
    /// so a key the budget cannot hold is shed without touching the one
    /// it would have replaced. The session is resident or new; an evicted one is
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
        busy: impl FnOnce() -> HashSet<u64>,
    ) -> Result<(Vec<u64>, Option<u64>), KeyCacheError> {
        let entry = self.entries.get(&session);
        let previous = entry
            .and_then(|e| e.keys[kind as usize].as_ref())
            .map(|s| s.len);
        let need = entry.map_or(0, KeyEntry::bytes) - previous.unwrap_or(0) + len;
        let evicted = self.charge(session, need, busy)?;
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
        Ok(self
            .readmit(session, |p| p.clone(), HashSet::new)?
            .unwrap_or_default())
    }

    /// [`SessionKeyLru::restore`] for a caller that decodes the keys
    /// back into an engine: the payloads are moved out, not copied, and
    /// the cache holds nothing for the session until its next eviction.
    /// `None` when there is nothing to restore. Sessions `busy` names are
    /// not evicted to make room.
    pub(crate) fn reseat(
        &mut self,
        session: u64,
        busy: impl FnOnce() -> HashSet<u64>,
    ) -> Result<Option<Restored>, KeyCacheError> {
        self.readmit(session, Option::take, busy)
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
        busy: impl FnOnce() -> HashSet<u64>,
    ) -> Result<Option<Restored>, KeyCacheError> {
        let need = match self.entries.get(&session) {
            None => return Ok(None),
            Some(e) if e.resident => {
                self.touch(session);
                return Ok(None);
            }
            Some(e) => e.bytes(),
        };
        let evicted = self.charge(session, need, busy)?;
        let mut payloads = Vec::new();
        if let Some(e) = self.entries.get_mut(&session) {
            for (kind, slot) in e.slots_mut() {
                payloads.extend(hand(&mut slot.payload).map(|p| (kind, p)));
            }
        }
        Ok(Some((evicted, payloads)))
    }

    /// Bills `session` `need` bytes in place of what it is billed now and
    /// makes it resident, evicting least-recently-touched sessions first,
    /// never one that `busy` names: what the caller has in flight, asked
    /// for only when something has to go. Eviction is all-or-nothing: the
    /// victim schedule is computed before anything is evicted, so a
    /// failure leaves the cache untouched.
    fn charge(
        &mut self,
        session: u64,
        need: u64,
        busy: impl FnOnce() -> HashSet<u64>,
    ) -> Result<Vec<u64>, KeyCacheError> {
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
        let mut freed = 0u64;
        let mut victims = Vec::new();
        if base + need > self.budget {
            let busy = busy();
            // Victims: resident, idle, not the session itself, oldest first.
            let mut candidates: Vec<(u64, u64, u64)> = (self.entries.iter())
                .filter(|&(id, e)| *id != session && e.resident && !busy.contains(id))
                .map(|(&id, e)| (e.last_touch, id, e.bytes()))
                .collect();
            candidates.sort_unstable();
            for (_, id, bytes) in candidates {
                if base - freed + need <= self.budget {
                    break;
                }
                freed += bytes;
                victims.push(id);
            }
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
