//! Session registry: per-client key material cached server-side.
//!
//! Deserializing an evaluation key is not free — megabytes of residues
//! are copied out of the frame and every word is checked against its
//! modulus ([`KeySwitchKey::decode`](heax_ckks::serialize::Object::decode));
//! nothing is derived from them, the evaluator multiplies into the plain
//! words. The registry makes that a **once-per-session** cost: clients
//! upload keys when they connect, and every later request hits the cached
//! keys. The seed deployment example paid that cost per request batch; the
//! benchmark's `server.register_keys_us` row is what one upload costs.
//!
//! A key is held in **one form at a time**. The registry holds it
//! decoded, and the upload is dropped once it is decoded. When the
//! transport's key cache evicts a session
//! ([`HeaxServer::evict_session_keys`](crate::HeaxServer::evict_session_keys)),
//! the keys are serialized again, handed over, and dropped here. The
//! serialization is the upload byte for byte, since each key has exactly
//! one encoding. A restore decodes those bytes back in.
//!
//! A session also owns the results it **parked** (Figure 7's memory map):
//! a name → ciphertext table that later requests of the same session
//! resolve operands against. Names are per session, so sessions can never
//! read or clobber each other's parked results, and closing a session
//! drops its table.

use std::collections::HashMap;
use std::sync::Arc;

use heax_ckks::{Ciphertext, GaloisKeys, RelinKey};

use crate::error::ServerError;
use crate::metrics::SessionStats;

/// Which evaluation key a payload is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyKind {
    /// A relinearization key (`RegisterRelinKey` payload).
    Relin,
    /// A Galois key set (`RegisterGaloisKeys` payload).
    Galois,
}

/// Per-session server state: cached keys, parked results, and traffic
/// counters.
#[derive(Debug, Default)]
pub struct Session {
    /// Cached relinearization key (deserialized at registration).
    pub(crate) rlk: Option<RelinKey>,
    /// Cached Galois keys (permutation tables rebuilt at registration).
    pub(crate) gks: Option<GaloisKeys>,
    /// Results this session parked, by the name it parked them under.
    pub(crate) parked: HashMap<String, Arc<Ciphertext>>,
    /// Whether this session's cached keys were evicted under DRAM
    /// pressure (see `HeaxServer::evict_session_keys`): the next key
    /// registration is billed as a re-registration, not a first upload.
    pub(crate) keys_evicted: bool,
    /// Per-session traffic counters.
    pub(crate) stats: SessionStats,
}

impl Session {
    /// The session's Galois keys.
    ///
    /// # Errors
    ///
    /// [`ServerError::MissingGaloisKey`] (with the offending step) when
    /// none were registered.
    pub(crate) fn galois_keys(&self, step: i64) -> Result<&GaloisKeys, ServerError> {
        self.gks
            .as_ref()
            .ok_or(ServerError::MissingGaloisKey { step })
    }

    /// The session's relinearization key.
    ///
    /// # Errors
    ///
    /// [`ServerError::MissingRelinKey`] when none was registered.
    pub(crate) fn relin_key(&self) -> Result<&RelinKey, ServerError> {
        self.rlk.as_ref().ok_or(ServerError::MissingRelinKey)
    }
}

/// The registry of live sessions.
#[derive(Debug, Default)]
pub struct SessionRegistry {
    next_id: u64,
    sessions: HashMap<u64, Session>,
    opened_total: u64,
}

impl SessionRegistry {
    /// Opens a fresh session and returns its id (ids start at 1; `0` is
    /// the wire's "no session" sentinel).
    pub fn open(&mut self) -> u64 {
        self.next_id += 1;
        self.opened_total += 1;
        self.sessions.insert(self.next_id, Session::default());
        self.next_id
    }

    /// Looks up a session.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownSession`] for ids never opened or already
    /// closed.
    pub(crate) fn get(&self, id: u64) -> Result<&Session, ServerError> {
        self.sessions
            .get(&id)
            .ok_or(ServerError::UnknownSession { session: id })
    }

    /// Mutable session lookup.
    ///
    /// # Errors
    ///
    /// Same as [`SessionRegistry::get`].
    pub(crate) fn get_mut(&mut self, id: u64) -> Result<&mut Session, ServerError> {
        self.sessions
            .get_mut(&id)
            .ok_or(ServerError::UnknownSession { session: id })
    }

    /// Closes a session, returning its final state (its parked results
    /// are released with it).
    pub(crate) fn close(&mut self, id: u64) -> Result<Session, ServerError> {
        self.sessions
            .remove(&id)
            .ok_or(ServerError::UnknownSession { session: id })
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether no session is live.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Sessions ever opened (monotonic).
    pub fn opened_total(&self) -> u64 {
        self.opened_total
    }

    /// Iterates live sessions as `(id, session)`.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &Session)> {
        self.sessions.iter().map(|(&id, s)| (id, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_close_lifecycle() {
        let mut reg = SessionRegistry::default();
        assert!(reg.is_empty());
        let a = reg.open();
        let b = reg.open();
        assert_ne!(a, 0, "0 is the no-session sentinel");
        assert_ne!(a, b);
        assert_eq!(reg.len(), 2);
        assert!(reg.get(a).is_ok());
        assert!(matches!(
            reg.get(999),
            Err(ServerError::UnknownSession { session: 999 })
        ));
        reg.close(a).unwrap();
        assert!(reg.get(a).is_err());
        assert!(reg.close(a).is_err());
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.opened_total(), 2);
    }

    #[test]
    fn missing_keys_are_structured_errors() {
        let s = Session::default();
        assert!(matches!(
            s.galois_keys(4),
            Err(ServerError::MissingGaloisKey { step: 4 })
        ));
        assert!(matches!(s.relin_key(), Err(ServerError::MissingRelinKey)));
    }
}
