//! The framed wire protocol between clients and [`HeaxServer`].
//!
//! Object payloads (ciphertexts, keys) reuse the versioned
//! [`heax_ckks::serialize`] codecs; this module adds the *transport*
//! layer around them: a length-prefixed frame with a versioned header
//! that carries routing (session id), correlation (request id), and a
//! message kind, plus the encoding of request and reply bodies.
//!
//! ## Frame layout (little-endian)
//!
//! | field     | size | meaning                                    |
//! |-----------|------|--------------------------------------------|
//! | magic     | 4    | `"HEAW"`                                   |
//! | version   | 1    | `1` or `2`                                 |
//! | kind      | 1    | [`MessageKind`]                            |
//! | session   | 8    | session id (`0` before a session exists)   |
//! | request   | 8    | client-chosen request id, echoed in replies|
//! | length    | 4    | payload byte count                         |
//! | payload   | n    | kind-specific body                         |
//!
//! The normative byte-level specification of every header and body —
//! including the v1/v2 differences — lives in `PROTOCOL.md` at the
//! repository root; this module is its implementation.
//!
//! ## Versioning
//!
//! Two wire versions are live. [`WIRE_V1`] is the original protocol;
//! [`WIRE_V2`] adds a request **flags** byte (bit 0 = *compress
//! reply*: the server modulus-switches a wire-returned result down to
//! one RNS limb before serializing) and, at the object layer
//! underneath, seeded fresh ciphertexts
//! ([`heax_ckks::serialize::deserialize_operand`]). Version
//! negotiation is implicit and per-frame: the server accepts both
//! versions and **echoes the request frame's version** in every reply,
//! so a v1 client never sees a v2 byte. The [`client`] builders emit
//! the current version ([`WIRE_VERSION`] = v2).
//!
//! ## Totality
//!
//! Like the object codecs underneath, frame and body decoding is
//! **total on untrusted input**: every length field is bounded by the
//! bytes actually present before any allocation, and every failure is a
//! structured [`ServerError`] — never a panic. Both layers read through
//! the one bounds-checked [`Reader`], and the lints denied below hold
//! this module to totality at compile time. The server answers a frame
//! it cannot decode with an error frame instead of dropping the
//! connection state.
//!
//! [`HeaxServer`]: crate::server::HeaxServer

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::panic_in_result_fn
)]

use heax_ckks::reader::{Malformed, Reader};

use crate::error::{ErrorCode, ServerError};

/// Frame magic: "HEAW" (HEAX wire) — distinct from the object-level
/// `"HEAX"` magic so a frame can never be confused with a bare object.
pub const FRAME_MAGIC: [u8; 4] = *b"HEAW";
/// Wire protocol version 1: the original frame and body layouts.
pub const WIRE_V1: u8 = 1;
/// Wire protocol version 2: request bodies carry a flags byte
/// (bit 0 = compress reply) and operands may be seeded ciphertexts.
pub const WIRE_V2: u8 = 2;
/// The current (preferred) wire protocol version, emitted by the
/// [`client`] builders. The server accepts every version in
/// `WIRE_V1..=WIRE_VERSION` and echoes the request's version back.
pub const WIRE_VERSION: u8 = WIRE_V2;
/// Request flags byte (v2 bodies only), bit 0: the client only needs
/// decrypt-level precision, so the server modulus-switches a
/// wire-returned result down to one RNS limb before serializing.
pub const REQUEST_FLAG_COMPRESS_REPLY: u8 = 0b0000_0001;
/// All request flag bits a v2 body may carry; unknown bits are
/// rejected as malformed rather than ignored.
pub const REQUEST_FLAGS_ALL: u8 = REQUEST_FLAG_COMPRESS_REPLY;
/// Frame header size in bytes (everything before the payload).
pub const FRAME_HEADER_LEN: usize = 4 + 1 + 1 + 8 + 8 + 4;

/// Message kinds. Values `< 16` flow client → server; values `>= 16`
/// flow server → client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum MessageKind {
    /// Client asks for a fresh session.
    OpenSession = 1,
    /// Payload: a serialized relinearization key for this session.
    RegisterRelinKey = 2,
    /// Payload: serialized Galois keys for this session.
    RegisterGaloisKeys = 3,
    /// Payload: a [`Request`] body; enqueued for the next batch.
    Request = 4,
    /// Client closes the session; parked operands are released.
    CloseSession = 5,
    /// Reply to `OpenSession`; the new id is in the session field.
    SessionOpened = 16,
    /// Reply to a key registration.
    KeyRegistered = 17,
    /// Successful reply to a request; payload is a [`ReplyBody`].
    Response = 18,
    /// Structured failure; payload is an [`ErrorCode`] plus message.
    Error = 19,
    /// Reply to `CloseSession`.
    SessionClosed = 20,
}

impl MessageKind {
    fn from_u8(v: u8) -> Option<MessageKind> {
        MessageKind::ALL.into_iter().find(|&k| k as u8 == v)
    }

    /// Every kind, numeric order — PROTOCOL.md's kind table lists exactly
    /// these.
    pub const ALL: [MessageKind; 10] = [
        MessageKind::OpenSession,
        MessageKind::RegisterRelinKey,
        MessageKind::RegisterGaloisKeys,
        MessageKind::Request,
        MessageKind::CloseSession,
        MessageKind::SessionOpened,
        MessageKind::KeyRegistered,
        MessageKind::Response,
        MessageKind::Error,
        MessageKind::SessionClosed,
    ];
}

/// Operation selector inside a request body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum OpCode {
    /// Component-wise sum of two ciphertexts.
    Add = 1,
    /// Multiply then relinearize (needs a registered relin key).
    MultiplyRelin = 2,
    /// Square then relinearize (needs a registered relin key).
    SquareRelin = 3,
    /// Rescale by the last active prime.
    Rescale = 4,
    /// Slot rotation (needs a registered Galois key for the step).
    Rotate = 5,
    /// Return the operand unchanged (fetch a parked result).
    Fetch = 6,
}

impl OpCode {
    fn from_u8(v: u8) -> Option<OpCode> {
        OpCode::ALL.into_iter().find(|&op| op as u8 == v)
    }

    /// Stable metric/table label for the op.
    pub fn name(self) -> &'static str {
        match self {
            OpCode::Add => "add",
            OpCode::MultiplyRelin => "multiply_relin",
            OpCode::SquareRelin => "square_relin",
            OpCode::Rescale => "rescale",
            OpCode::Rotate => "rotate",
            OpCode::Fetch => "fetch",
        }
    }

    /// All op codes, numeric order — PROTOCOL.md's op table and the
    /// metric tables list exactly these.
    pub const ALL: [OpCode; 6] = [
        OpCode::Add,
        OpCode::MultiplyRelin,
        OpCode::SquareRelin,
        OpCode::Rescale,
        OpCode::Rotate,
        OpCode::Fetch,
    ];
}

/// One operand of a request: either serialized ciphertext bytes carried
/// inline, or the name of a result parked in board DRAM by an earlier
/// request of the same session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireOperand<'a> {
    /// `serialize_ciphertext` bytes.
    Inline(&'a [u8]),
    /// Handle of a parked result (session-scoped).
    Parked(&'a str),
}

/// A decoded request body.
#[derive(Clone, Debug, PartialEq)]
pub struct Request<'a> {
    /// The operation to perform.
    pub op: OpCode,
    /// Rotation step (only meaningful for [`OpCode::Rotate`]).
    pub step: i64,
    /// v2 only: ask the server to modulus-switch a wire-returned
    /// result down to one RNS limb before serializing (the reply still
    /// decrypts, at decrypt-only precision). Ignored for parked
    /// results; a v1 body cannot express it.
    pub compress_reply: bool,
    /// Park the result in board DRAM under this session-scoped name
    /// instead of returning ciphertext bytes.
    pub park_as: Option<&'a str>,
    /// Operands, in op order (1 or 2 depending on the op).
    pub operands: Vec<WireOperand<'a>>,
}

/// A decoded reply body (payload of a [`MessageKind::Response`] frame).
#[derive(Clone, Debug, PartialEq)]
pub enum ReplyBody<'a> {
    /// Serialized result ciphertext.
    Ciphertext(&'a [u8]),
    /// The result was parked under this name.
    Parked(&'a str),
}

/// A decoded frame borrowing the input buffer.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame<'a> {
    /// Wire version this frame was encoded with ([`WIRE_V1`] or
    /// [`WIRE_V2`]); replies must echo it.
    pub version: u8,
    /// Message kind.
    pub kind: MessageKind,
    /// Session id (`0` when no session applies yet).
    pub session: u64,
    /// Request correlation id (echoed by replies).
    pub request: u64,
    /// Kind-specific body.
    pub payload: &'a [u8],
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Appends a frame header announcing `payload_len` payload bytes, which
/// the caller appends next.
///
/// # Panics
///
/// If `version` is not a known wire version — emitting undecodable
/// frames is a caller bug, not an input condition.
fn put_header(
    out: &mut Vec<u8>,
    version: u8,
    kind: MessageKind,
    session: u64,
    request: u64,
    payload_len: usize,
) {
    assert!(
        (WIRE_V1..=WIRE_VERSION).contains(&version),
        "unknown wire version {version}"
    );
    out.reserve(FRAME_HEADER_LEN + payload_len);
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(version);
    out.push(kind as u8);
    out.extend_from_slice(&session.to_le_bytes());
    out.extend_from_slice(&request.to_le_bytes());
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
}

/// Appends a frame to what `out` already holds.
///
/// # Panics
///
/// If `version` is not a known wire version — emitting undecodable
/// frames is a caller bug, not an input condition.
pub(crate) fn append_frame(
    version: u8,
    kind: MessageKind,
    session: u64,
    request: u64,
    payload: &[u8],
    out: &mut Vec<u8>,
) {
    put_header(out, version, kind, session, request, payload.len());
    out.extend_from_slice(payload);
}

/// Encodes a frame at the given wire version.
pub fn encode_frame(
    version: u8,
    kind: MessageKind,
    session: u64,
    request: u64,
    payload: &[u8],
) -> Vec<u8> {
    let mut out = Vec::new();
    append_frame(version, kind, session, request, payload, &mut out);
    out
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_operand(out: &mut Vec<u8>, operand: &WireOperand<'_>) {
    match operand {
        WireOperand::Inline(bytes) => {
            out.push(0);
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        WireOperand::Parked(name) => {
            out.push(1);
            put_str(out, name);
        }
    }
}

/// Encodes a request body (the payload of a [`MessageKind::Request`]
/// frame) at the given wire version. The v2 layout inserts a flags
/// byte after the step; v1 has no flags byte at all.
///
/// # Panics
///
/// If `req.compress_reply` is set at [`WIRE_V1`] — the v1 body cannot
/// carry the flag, and silently dropping it would corrupt intent.
pub fn encode_request(version: u8, req: &Request<'_>) -> Vec<u8> {
    assert!(
        version >= WIRE_V2 || !req.compress_reply,
        "compress_reply requires wire v2"
    );
    let mut out = Vec::new();
    out.push(req.op as u8);
    out.extend_from_slice(&req.step.to_le_bytes());
    if version >= WIRE_V2 {
        let flags = if req.compress_reply {
            REQUEST_FLAG_COMPRESS_REPLY
        } else {
            0
        };
        out.push(flags);
    }
    match req.park_as {
        Some(name) => {
            out.push(1);
            put_str(&mut out, name);
        }
        None => out.push(0),
    }
    out.push(req.operands.len() as u8);
    for operand in &req.operands {
        put_operand(&mut out, operand);
    }
    out
}

/// Encodes a reply body (the payload of a [`MessageKind::Response`]
/// frame).
pub fn encode_reply(body: &ReplyBody<'_>) -> Vec<u8> {
    let mut out = Vec::new();
    match body {
        ReplyBody::Ciphertext(bytes) => {
            out.push(0);
            out.extend_from_slice(bytes);
        }
        ReplyBody::Parked(name) => {
            out.push(1);
            out.extend_from_slice(name.as_bytes());
        }
    }
    out
}

/// Bytes of a complete [`MessageKind::Response`] frame around a reply body
/// of `body_len` bytes: header, reply tag, body.
pub const fn response_frame_len(body_len: usize) -> usize {
    FRAME_HEADER_LEN + 1 + body_len
}

/// Appends the head of a [`MessageKind::Response`] frame — header and
/// reply tag — for a reply body of `body_len` bytes, which the caller
/// appends next: a ciphertext result is serialized straight behind it,
/// into the buffer it is written to the socket from, with no intermediate
/// payload buffer. `ciphertext` picks the tag ([`ReplyBody::Ciphertext`] or
/// [`ReplyBody::Parked`]); `version` is echoed from the request frame.
///
/// # Panics
///
/// If `version` is not a known wire version — emitting undecodable
/// frames is a caller bug, not an input condition.
pub(crate) fn append_response_head(
    version: u8,
    session: u64,
    request: u64,
    ciphertext: bool,
    body_len: usize,
    out: &mut Vec<u8>,
) {
    let kind = MessageKind::Response;
    put_header(out, version, kind, session, request, 1 + body_len);
    out.push(if ciphertext { 0 } else { 1 });
}

/// Encodes an error payload: code + UTF-8 message.
pub fn encode_error(code: ErrorCode, message: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + message.len());
    out.extend_from_slice(&(code as u16).to_le_bytes());
    out.extend_from_slice(message.as_bytes());
    out
}

// ---------------------------------------------------------------------
// Decoding (total on untrusted input)
// ---------------------------------------------------------------------

/// A `u32`-length-prefixed UTF-8 name.
fn name<'a>(r: &mut Reader<'a>) -> Result<&'a str, ServerError> {
    core::str::from_utf8(r.bytes()?).map_err(|_| ServerError::malformed("name is not UTF-8"))
}

/// The fixed-size head of every frame, fields in wire order: the one
/// place the header layout is read. Only the magic is checked here; the
/// version and kind bytes are [`decode_frame`]'s to judge, so the
/// transport still lends a frame carrying bad ones to the server, which
/// answers it with an error frame.
pub(crate) struct FrameHeader {
    version: u8,
    kind: u8,
    session: u64,
    request: u64,
    /// Payload byte count.
    pub(crate) payload_len: u32,
}

impl FrameHeader {
    /// Reads the header at the front of `r`.
    fn read(r: &mut Reader<'_>) -> Result<Self, Malformed> {
        if r.take(4)? != FRAME_MAGIC {
            return Err(Malformed("bad frame magic"));
        }
        Ok(Self {
            version: r.u8()?,
            kind: r.u8()?,
            session: r.u64()?,
            request: r.u64()?,
            payload_len: r.u32()?,
        })
    }

    /// The header at the front of `buf`, once all [`FRAME_HEADER_LEN`]
    /// bytes of it have arrived; `"bad frame magic"` if it is not one.
    pub(crate) fn peek(buf: &[u8]) -> Result<Option<Self>, Malformed> {
        if buf.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        Self::read(&mut Reader::new(buf)).map(Some)
    }
}

/// Decodes one frame; the buffer must contain exactly one frame.
///
/// # Errors
///
/// [`ServerError::Malformed`] on any structural problem — never panics,
/// regardless of input.
pub fn decode_frame(buf: &[u8]) -> Result<Frame<'_>, ServerError> {
    let mut r = Reader::new(buf);
    let header = FrameHeader::read(&mut r)?;
    let version = header.version;
    if !(WIRE_V1..=WIRE_VERSION).contains(&version) {
        return Err(ServerError::malformed(format!(
            "unsupported wire version {version}"
        )));
    }
    let kind = MessageKind::from_u8(header.kind)
        .ok_or_else(|| ServerError::malformed("unknown message kind"))?;
    let payload = r.take(header.payload_len as usize)?;
    r.finish()?;
    Ok(Frame {
        version,
        kind,
        session: header.session,
        request: header.request,
        payload,
    })
}

/// Decodes a request body laid out per the given wire version (the
/// enclosing frame's): v1 bodies have no flags byte, v2 bodies carry
/// one right after the step.
///
/// # Errors
///
/// [`ServerError::Malformed`] on any structural problem, including an
/// operand count that disagrees with the op's arity or a v2 flags
/// byte with unknown bits set.
pub fn decode_request(buf: &[u8], version: u8) -> Result<Request<'_>, ServerError> {
    let mut r = Reader::new(buf);
    let op = OpCode::from_u8(r.u8()?).ok_or_else(|| ServerError::malformed("unknown op code"))?;
    let step = r.i64()?;
    let compress_reply = if version >= WIRE_V2 {
        let flags = r.u8()?;
        if flags & !REQUEST_FLAGS_ALL != 0 {
            return Err(ServerError::malformed(format!(
                "unknown request flags {flags:#04x}"
            )));
        }
        flags & REQUEST_FLAG_COMPRESS_REPLY != 0
    } else {
        false
    };
    let park_as = match r.u8()? {
        0 => None,
        1 => {
            let name = name(&mut r)?;
            if name.is_empty() || name.len() > 256 {
                return Err(ServerError::malformed("park name must be 1..=256 bytes"));
            }
            Some(name)
        }
        _ => return Err(ServerError::malformed("unknown park tag")),
    };
    let count = r.u8()? as usize;
    let arity = match op {
        OpCode::Add | OpCode::MultiplyRelin => 2,
        OpCode::SquareRelin | OpCode::Rescale | OpCode::Rotate | OpCode::Fetch => 1,
    };
    if count != arity {
        return Err(ServerError::malformed(format!(
            "op {} takes {arity} operand(s), got {count}",
            op.name()
        )));
    }
    let mut operands = Vec::with_capacity(count);
    for _ in 0..count {
        operands.push(match r.u8()? {
            0 => WireOperand::Inline(r.bytes()?),
            1 => WireOperand::Parked(name(&mut r)?),
            _ => return Err(ServerError::malformed("unknown operand tag")),
        });
    }
    r.finish()?;
    Ok(Request {
        op,
        step,
        compress_reply,
        park_as,
        operands,
    })
}

/// Decodes a reply body.
///
/// # Errors
///
/// [`ServerError::Malformed`] on an unknown tag or non-UTF-8 park name.
pub fn decode_reply(buf: &[u8]) -> Result<ReplyBody<'_>, ServerError> {
    let (&tag, body) = buf
        .split_first()
        .ok_or_else(|| ServerError::malformed("empty reply"))?;
    match tag {
        0 => Ok(ReplyBody::Ciphertext(body)),
        1 => core::str::from_utf8(body)
            .map(ReplyBody::Parked)
            .map_err(|_| ServerError::malformed("park name is not UTF-8")),
        _ => Err(ServerError::malformed("unknown reply tag")),
    }
}

/// Decodes an error payload into `(code, message)`. Total: short
/// payloads decode to an empty message, invalid UTF-8 is replaced.
pub fn decode_error(buf: &[u8]) -> (ErrorCode, String) {
    let code = match buf {
        &[a, b, ..] => u16::from_le_bytes([a, b]),
        _ => 0,
    };
    let message = String::from_utf8_lossy(buf.get(2..).unwrap_or_default()).into_owned();
    (ErrorCode::from_u16(code), message)
}

/// Client-side frame builders and reply parsing, so examples, benches,
/// and tests can speak the protocol without hand-rolling byte layouts.
///
/// All builders emit the current wire version ([`WIRE_VERSION`], i.e.
/// v2). A v1 peer can still be spoken to by calling [`encode_frame`] /
/// [`encode_request`] with [`WIRE_V1`] directly; the server keeps
/// accepting both.
pub mod client {
    use super::*;

    /// Builds an `OpenSession` frame.
    pub fn open_session() -> Vec<u8> {
        encode_frame(WIRE_VERSION, MessageKind::OpenSession, 0, 0, &[])
    }

    /// Builds a `RegisterRelinKey` frame around serialized key bytes.
    pub fn register_relin_key(session: u64, key_bytes: &[u8]) -> Vec<u8> {
        encode_frame(
            WIRE_VERSION,
            MessageKind::RegisterRelinKey,
            session,
            0,
            key_bytes,
        )
    }

    /// Builds a `RegisterGaloisKeys` frame around serialized key bytes.
    pub fn register_galois_keys(session: u64, key_bytes: &[u8]) -> Vec<u8> {
        encode_frame(
            WIRE_VERSION,
            MessageKind::RegisterGaloisKeys,
            session,
            0,
            key_bytes,
        )
    }

    /// Builds a `CloseSession` frame.
    pub fn close_session(session: u64) -> Vec<u8> {
        encode_frame(WIRE_VERSION, MessageKind::CloseSession, session, 0, &[])
    }

    /// Builds a request frame from a structured [`Request`] at the
    /// current wire version.
    pub fn request(session: u64, request_id: u64, req: &Request<'_>) -> Vec<u8> {
        encode_frame(
            WIRE_VERSION,
            MessageKind::Request,
            session,
            request_id,
            &encode_request(WIRE_VERSION, req),
        )
    }

    /// Shorthand: a rotation request on inline ciphertext bytes.
    pub fn rotate(session: u64, request_id: u64, ct_bytes: &[u8], step: i64) -> Vec<u8> {
        request(
            session,
            request_id,
            &Request {
                op: OpCode::Rotate,
                step,
                compress_reply: false,
                park_as: None,
                operands: vec![WireOperand::Inline(ct_bytes)],
            },
        )
    }

    /// A parsed server reply.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Reply {
        /// Session granted; the id is the frame's session field.
        SessionOpened,
        /// Key registration acknowledged.
        KeyRegistered,
        /// Result ciphertext bytes.
        Ciphertext(Vec<u8>),
        /// Result parked under this name.
        Parked(String),
        /// Structured failure.
        Error {
            /// Wire error code.
            code: ErrorCode,
            /// Human-readable message.
            message: String,
        },
        /// Session closed.
        SessionClosed,
    }

    /// Parses one server→client frame into `(session, request, reply)`.
    ///
    /// # Errors
    ///
    /// [`ServerError::Malformed`] if the frame is not a well-formed
    /// server→client message.
    pub fn parse_reply(bytes: &[u8]) -> Result<(u64, u64, Reply), ServerError> {
        let frame = decode_frame(bytes)?;
        let reply = match frame.kind {
            MessageKind::SessionOpened => Reply::SessionOpened,
            MessageKind::KeyRegistered => Reply::KeyRegistered,
            MessageKind::Response => match decode_reply(frame.payload)? {
                ReplyBody::Ciphertext(b) => Reply::Ciphertext(b.to_vec()),
                ReplyBody::Parked(n) => Reply::Parked(n.to_string()),
            },
            MessageKind::Error => {
                let (code, message) = decode_error(frame.payload);
                Reply::Error { code, message }
            }
            MessageKind::SessionClosed => Reply::SessionClosed,
            other => {
                return Err(ServerError::malformed(format!(
                    "not a server reply: {other:?}"
                )))
            }
        };
        Ok((frame.session, frame.request, reply))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Error frames carry this text to clients: the shared reader keeps it.
    #[test]
    fn truncated_and_trailing_input_text_is_pinned() {
        let frame = client::rotate(1, 2, b"ct", 1);
        let body = &frame[FRAME_HEADER_LEN..];
        let short = |b: &[u8]| b[..b.len() - 1].to_vec();
        let long = |b: &[u8]| [b, &[0]].concat();
        let truncated = "malformed message: truncated";
        let trailing = "malformed message: trailing bytes";
        let frame_text = |b: &[u8]| decode_frame(b).unwrap_err().to_string();
        let body_text = |b: &[u8]| decode_request(b, WIRE_V2).unwrap_err().to_string();
        assert_eq!(frame_text(&short(&frame)), truncated);
        assert_eq!(frame_text(&long(&frame)), trailing);
        assert_eq!(body_text(&short(body)), truncated);
        assert_eq!(body_text(&long(body)), trailing);
    }

    #[test]
    fn frame_roundtrip() {
        for version in [WIRE_V1, WIRE_V2] {
            let bytes = encode_frame(version, MessageKind::Request, 7, 42, b"payload");
            let frame = decode_frame(&bytes).unwrap();
            assert_eq!(frame.version, version);
            assert_eq!(frame.kind, MessageKind::Request);
            assert_eq!(frame.session, 7);
            assert_eq!(frame.request, 42);
            assert_eq!(frame.payload, b"payload");
            assert_eq!(bytes.len(), FRAME_HEADER_LEN + 7);
        }
    }

    #[test]
    fn request_roundtrip_all_shapes() {
        let reqs = [
            Request {
                op: OpCode::Add,
                step: 0,
                compress_reply: false,
                park_as: None,
                operands: vec![WireOperand::Inline(b"aaaa"), WireOperand::Parked("x2")],
            },
            Request {
                op: OpCode::Rotate,
                step: -3,
                compress_reply: true,
                park_as: Some("out"),
                operands: vec![WireOperand::Parked("x2")],
            },
            Request {
                op: OpCode::Fetch,
                step: 0,
                compress_reply: false,
                park_as: None,
                operands: vec![WireOperand::Parked("out")],
            },
        ];
        for req in &reqs {
            let bytes = encode_request(WIRE_V2, req);
            assert_eq!(&decode_request(&bytes, WIRE_V2).unwrap(), req);
        }
    }

    #[test]
    fn v1_request_bodies_still_decode() {
        // A v1 body has no flags byte; it must decode byte-for-byte as
        // before, with `compress_reply` defaulting to off.
        let req = Request {
            op: OpCode::Add,
            step: 0,
            compress_reply: false,
            park_as: Some("sum"),
            operands: vec![WireOperand::Inline(b"aa"), WireOperand::Inline(b"bb")],
        };
        let v1 = encode_request(WIRE_V1, &req);
        let v2 = encode_request(WIRE_V2, &req);
        assert_eq!(v2.len(), v1.len() + 1, "v2 adds exactly one flags byte");
        assert_eq!(decode_request(&v1, WIRE_V1).unwrap(), req);
        // Cross-version confusion is caught: a v1 body parsed as v2
        // (or vice versa) fails structurally rather than silently
        // misreading the park tag as flags.
        assert!(
            decode_request(&v1, WIRE_V2).is_err() || decode_request(&v1, WIRE_V2).unwrap() != req
        );
    }

    #[test]
    fn v2_unknown_flag_bits_rejected() {
        let req = Request {
            op: OpCode::Fetch,
            step: 0,
            compress_reply: true,
            park_as: None,
            operands: vec![WireOperand::Parked("x")],
        };
        let mut bytes = encode_request(WIRE_V2, &req);
        assert_eq!(decode_request(&bytes, WIRE_V2).unwrap(), req);
        let flags_off = 1 + 8; // op + step
        assert_eq!(bytes[flags_off], REQUEST_FLAG_COMPRESS_REPLY);
        bytes[flags_off] |= 0b1000_0000;
        let err = decode_request(&bytes, WIRE_V2).unwrap_err();
        assert!(err.to_string().contains("unknown request flags"), "{err}");
    }

    #[test]
    #[should_panic(expected = "compress_reply requires wire v2")]
    fn v1_cannot_express_compression() {
        let _ = encode_request(
            WIRE_V1,
            &Request {
                op: OpCode::Fetch,
                step: 0,
                compress_reply: true,
                park_as: None,
                operands: vec![WireOperand::Parked("x")],
            },
        );
    }

    #[test]
    fn response_frame_fast_path_matches_two_step_encoding() {
        for version in [WIRE_V1, WIRE_V2] {
            for body in [
                ReplyBody::Ciphertext(b"some ciphertext bytes".as_slice()),
                ReplyBody::Parked("handle"),
            ] {
                let (ciphertext, bytes) = match body {
                    ReplyBody::Ciphertext(b) => (true, b),
                    ReplyBody::Parked(name) => (false, name.as_bytes()),
                };
                let mut fast = b"earlier replies".to_vec();
                append_response_head(version, 9, 77, ciphertext, bytes.len(), &mut fast);
                fast.extend_from_slice(bytes);
                assert_eq!(fast.len(), 15 + response_frame_len(bytes.len()));
                let fast = fast.split_off(15);
                let slow =
                    encode_frame(version, MessageKind::Response, 9, 77, &encode_reply(&body));
                assert_eq!(fast, slow);
                let frame = decode_frame(&fast).unwrap();
                assert_eq!(frame.version, version);
                assert_eq!(decode_reply(frame.payload).unwrap(), body);
            }
        }
    }

    #[test]
    fn reply_and_error_roundtrip() {
        let bytes = encode_reply(&ReplyBody::Ciphertext(b"ct"));
        assert_eq!(
            decode_reply(&bytes).unwrap(),
            ReplyBody::Ciphertext(b"ct".as_slice())
        );
        let bytes = encode_reply(&ReplyBody::Parked("name"));
        assert_eq!(decode_reply(&bytes).unwrap(), ReplyBody::Parked("name"));
        let bytes = encode_error(ErrorCode::MissingKey, "no key for step 9");
        let (code, message) = decode_error(&bytes);
        assert_eq!(code, ErrorCode::MissingKey);
        assert_eq!(message, "no key for step 9");
        // decode_error is total even on an empty payload.
        assert_eq!(decode_error(&[]).0, ErrorCode::Unsupported);
    }

    #[test]
    fn every_error_code_roundtrips_through_both_wire_versions() {
        use super::client;
        // Exhaustive: each of the nine codes (including admission's
        // LoadShed and the reserved Degraded) survives encode → frame →
        // parse at v1 and v2, through both the raw decoder and the
        // client parser.
        for version in [WIRE_V1, WIRE_V2] {
            for &code in &ErrorCode::ALL {
                let frame = encode_frame(
                    version,
                    MessageKind::Error,
                    5,
                    9,
                    &encode_error(code, "why"),
                );
                let decoded = decode_frame(&frame).unwrap();
                assert_eq!(decoded.version, version);
                assert_eq!(decode_error(decoded.payload), (code, "why".to_string()));
                let (session, request, reply) = client::parse_reply(&frame).unwrap();
                assert_eq!((session, request), (5, 9));
                assert_eq!(
                    reply,
                    client::Reply::Error {
                        code,
                        message: "why".into()
                    }
                );
            }
        }
    }

    #[test]
    fn unknown_and_hostile_error_payloads_decode_without_panic() {
        use super::client;
        // A peer speaking a future protocol revision may send codes we
        // do not know; they must decode (to Unsupported), never panic.
        for raw in [0u16, 10, 999, u16::MAX] {
            let mut payload = raw.to_le_bytes().to_vec();
            payload.extend_from_slice(b"m");
            for version in [WIRE_V1, WIRE_V2] {
                let frame = encode_frame(version, MessageKind::Error, 1, 1, &payload);
                let (_, _, reply) = client::parse_reply(&frame).unwrap();
                assert_eq!(
                    reply,
                    client::Reply::Error {
                        code: ErrorCode::Unsupported,
                        message: "m".into()
                    }
                );
            }
        }
        // One stray byte: too short for a code, still total.
        assert_eq!(
            decode_error(&[0x07]),
            (ErrorCode::Unsupported, String::new())
        );
        // Non-UTF-8 message bytes are replaced, not rejected.
        let mut payload = (ErrorCode::Crypto as u16).to_le_bytes().to_vec();
        payload.extend_from_slice(&[0xFF, 0xFE, b'!']);
        let (code, message) = decode_error(&payload);
        assert_eq!(code, ErrorCode::Crypto);
        assert!(message.ends_with('!'));
    }

    #[test]
    fn hostile_frames_rejected_not_panicking() {
        let good = encode_frame(WIRE_V2, MessageKind::Request, 1, 1, b"abc");
        // Truncations at every length.
        for cut in 0..good.len() {
            assert!(decode_frame(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Oversized length field.
        let mut bad = good.clone();
        bad[FRAME_HEADER_LEN - 4..FRAME_HEADER_LEN].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_frame(&bad).is_err());
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        assert!(decode_frame(&long).is_err());
        // Unknown kind / bad version / bad magic.
        let mut bad = good.clone();
        bad[5] = 99;
        assert!(decode_frame(&bad).is_err());
        let mut bad = good.clone();
        bad[4] = 77;
        assert!(decode_frame(&bad).is_err());
        let mut bad = good;
        bad[0] ^= 0xff;
        assert!(decode_frame(&bad).is_err());
    }

    #[test]
    fn request_arity_and_tags_checked() {
        // Add with one operand.
        let bytes = encode_request(
            WIRE_V2,
            &Request {
                op: OpCode::Add,
                step: 0,
                compress_reply: false,
                park_as: None,
                operands: vec![WireOperand::Inline(b"a"), WireOperand::Inline(b"b")],
            },
        );
        // Truncate away the second operand *and* patch the count.
        let mut short = decode_request(&bytes, WIRE_V2)
            .map(|_| bytes.clone())
            .unwrap();
        let count_off = 1 + 8 + 1 + 1; // op + step + flags + park flag
        short[count_off] = 1;
        assert!(decode_request(&short, WIRE_V2).is_err());
        // Unknown op.
        let mut bad = short.clone();
        bad[0] = 200;
        assert!(decode_request(&bad, WIRE_V2).is_err());
        // Park name must be valid UTF-8 and bounded.
        let req = Request {
            op: OpCode::Fetch,
            step: 0,
            compress_reply: false,
            park_as: Some("ok"),
            operands: vec![WireOperand::Parked("x")],
        };
        let bytes = encode_request(WIRE_V2, &req);
        assert_eq!(decode_request(&bytes, WIRE_V2).unwrap(), req);
    }

    #[test]
    fn client_reply_parsing() {
        use super::client;
        let frame = encode_frame(
            WIRE_V1,
            MessageKind::Error,
            3,
            9,
            &encode_error(ErrorCode::Crypto, "scale"),
        );
        let (session, request, reply) = client::parse_reply(&frame).unwrap();
        assert_eq!((session, request), (3, 9));
        assert!(matches!(
            reply,
            client::Reply::Error {
                code: ErrorCode::Crypto,
                ..
            }
        ));
        // A client→server frame is not a reply.
        assert!(client::parse_reply(&client::open_session()).is_err());
    }
}
