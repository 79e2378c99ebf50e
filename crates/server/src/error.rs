//! Error type for the serving layer, and its mapping onto wire error
//! codes.
//!
//! Every failure a client can trigger — malformed frames, unknown
//! sessions, missing keys, crypto-level mismatches, modeled-DRAM
//! exhaustion — maps to a structured [`ErrorCode`] that travels back
//! over the wire in an error frame. A misbehaving client can never take
//! its session (let alone the server) down; it just receives errors.

use core::fmt;

use heax_ckks::CkksError;
use heax_core::CoreError;

/// Numeric error codes carried by wire error frames.
///
/// Codes are part of the wire contract (version 1) and must not be
/// renumbered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The frame or request body could not be decoded.
    Malformed = 1,
    /// The frame referenced a session id the server does not know.
    UnknownSession = 2,
    /// A parked-operand handle did not resolve.
    UnknownHandle = 3,
    /// The session has not registered the key the operation needs.
    MissingKey = 4,
    /// The CKKS layer rejected the operation (level/scale/shape).
    Crypto = 5,
    /// Board DRAM capacity would be exceeded by parking the result.
    Capacity = 6,
    /// The request is structurally valid but not supported.
    Unsupported = 7,
    /// Shed at admission: the server's queue depth or key-cache budget
    /// was full, so the request was refused rather than queued.
    LoadShed = 8,
    /// Reserved: never sent by this server. Decoders must still accept
    /// it, so the reply decoder stays total across server versions.
    Degraded = 9,
}

impl ErrorCode {
    /// Decodes a wire code; unknown values collapse to `Unsupported`
    /// (decoding replies is total, like everything else on this wire).
    pub fn from_u16(v: u16) -> ErrorCode {
        match v {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::UnknownSession,
            3 => ErrorCode::UnknownHandle,
            4 => ErrorCode::MissingKey,
            5 => ErrorCode::Crypto,
            6 => ErrorCode::Capacity,
            8 => ErrorCode::LoadShed,
            9 => ErrorCode::Degraded,
            _ => ErrorCode::Unsupported,
        }
    }

    /// Every code, numeric order — the round-trip tests sweep this.
    pub const ALL: [ErrorCode; 9] = [
        ErrorCode::Malformed,
        ErrorCode::UnknownSession,
        ErrorCode::UnknownHandle,
        ErrorCode::MissingKey,
        ErrorCode::Crypto,
        ErrorCode::Capacity,
        ErrorCode::Unsupported,
        ErrorCode::LoadShed,
        ErrorCode::Degraded,
    ];
}

/// Errors produced by the serving layer.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ServerError {
    /// A frame or request body failed to decode.
    Malformed {
        /// Human-readable reason.
        reason: String,
    },
    /// A frame referenced an unknown session.
    UnknownSession {
        /// The session id the client sent.
        session: u64,
    },
    /// A parked-operand handle did not resolve in this session.
    UnknownHandle {
        /// The handle the request named.
        name: String,
    },
    /// The session has not registered a relinearization key.
    MissingRelinKey,
    /// The session's Galois keys do not cover the requested step.
    MissingGaloisKey {
        /// The rotation step that lacked a key.
        step: i64,
    },
    /// The underlying CKKS operation failed.
    Ckks(CkksError),
    /// The accelerator system rejected the operation (e.g. DRAM full).
    Core(CoreError),
    /// Structurally valid but unsupported request.
    Unsupported {
        /// Human-readable reason.
        reason: String,
    },
}

impl ServerError {
    /// Shorthand for a malformed-input error.
    pub(crate) fn malformed(reason: impl Into<String>) -> Self {
        ServerError::Malformed {
            reason: reason.into(),
        }
    }

    /// The wire error code this error travels as.
    pub fn code(&self) -> ErrorCode {
        match self {
            ServerError::Malformed { .. } => ErrorCode::Malformed,
            ServerError::UnknownSession { .. } => ErrorCode::UnknownSession,
            ServerError::UnknownHandle { .. } => ErrorCode::UnknownHandle,
            ServerError::MissingRelinKey | ServerError::MissingGaloisKey { .. } => {
                ErrorCode::MissingKey
            }
            // Key lookups that surface from inside the evaluator keep
            // their own code so clients can tell "generate more keys"
            // from "your ciphertext is malformed".
            ServerError::Ckks(CkksError::MissingGaloisKey { .. }) => ErrorCode::MissingKey,
            ServerError::Ckks(_) => ErrorCode::Crypto,
            ServerError::Core(CoreError::DramFull { .. }) => ErrorCode::Capacity,
            ServerError::Core(_) => ErrorCode::Unsupported,
            ServerError::Unsupported { .. } => ErrorCode::Unsupported,
        }
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Malformed { reason } => write!(f, "malformed message: {reason}"),
            ServerError::UnknownSession { session } => write!(f, "unknown session {session}"),
            ServerError::UnknownHandle { name } => write!(f, "unknown parked handle {name:?}"),
            ServerError::MissingRelinKey => {
                write!(f, "session has no relinearization key registered")
            }
            ServerError::MissingGaloisKey { step } => {
                write!(f, "session has no Galois key for rotation step {step}")
            }
            ServerError::Ckks(e) => write!(f, "ckks error: {e}"),
            ServerError::Core(e) => write!(f, "system error: {e}"),
            ServerError::Unsupported { reason } => write!(f, "unsupported: {reason}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Ckks(e) => Some(e),
            ServerError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CkksError> for ServerError {
    fn from(e: CkksError) -> Self {
        ServerError::Ckks(e)
    }
}

impl From<CoreError> for ServerError {
    fn from(e: CoreError) -> Self {
        ServerError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_total() {
        assert_eq!(ErrorCode::Malformed as u16, 1);
        assert_eq!(ErrorCode::from_u16(2), ErrorCode::UnknownSession);
        assert_eq!(ErrorCode::from_u16(999), ErrorCode::Unsupported);
        assert_eq!(ErrorCode::LoadShed as u16, 8);
        assert_eq!(ErrorCode::Degraded as u16, 9);
        assert_eq!(
            ServerError::MissingGaloisKey { step: 3 }.code(),
            ErrorCode::MissingKey
        );
        assert_eq!(ServerError::malformed("x").code(), ErrorCode::Malformed);
        // Every code survives the numeric round trip, and ALL is in
        // numeric order with no gaps after the legacy block.
        for (i, code) in ErrorCode::ALL.iter().enumerate() {
            assert_eq!(ErrorCode::from_u16(*code as u16), *code);
            if i > 0 {
                assert!((*code as u16) > (ErrorCode::ALL[i - 1] as u16));
            }
        }
    }

    #[test]
    fn display_and_source() {
        let e: ServerError = CkksError::LevelExhausted.into();
        assert!(e.to_string().contains("ckks"));
        assert!(std::error::Error::source(&e).is_some());
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<ServerError>();
    }
}
