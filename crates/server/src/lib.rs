//! # heax-server
//!
//! The serving layer of the HEAX reproduction — the paper's Figure 7
//! deployment promoted from an example into a subsystem. A host
//! receives serialized ciphertexts and evaluation keys from many
//! clients over a framed, versioned wire protocol
//! ([`wire`]), deserializes each session's keys **once** and caches
//! them ([`session`]), batches queued requests so shared
//! work is amortized — one hoisted decomposition per rotated
//! ciphertext, key-switch buffers recycled per thread, limbs dispatched
//! through the `HEAX_THREADS` executor — and answers every failure
//! with a structured error frame instead of dropping the session
//! ([`server`]). Per-op and per-session counters surface as a
//! [`ServerStats`] snapshot ([`metrics`]).
//!
//! The server is transport-agnostic: frames in, frames out. Drive it
//! inline as the tests and examples do, or through an [`Engine`]
//! ([`engine`]), which adds the session lifecycle a long-running server
//! needs — admission-control backpressure and a DRAM-budgeted
//! session-key LRU — still with no socket. [`net`] serves an engine over
//! real sockets: a hand-rolled epoll-based nonblocking TCP event loop
//! (no tokio/mio; raw Linux syscalls behind the vendored `epoll` shim)
//! that multiplexes thousands of concurrent sessions onto the batch
//! scheduler, with per-connection failure containment.
//!
//! Every flush lowers its requests into the shared op-stream IR of
//! `heax_hw::ir` (rotation fusion is an IR pass) and executes from the
//! fused stream: lower → fuse → execute. The server serves; it does not
//! model, and it has no fault input, so its replies cannot depend on
//! one. [`HeaxServer::queued_plan`] returns the exact stream the next
//! flush executes; pricing that on a modeled HEAX board or a faulted
//! multi-board cluster is an offline `heax_hw` call, kept apart from
//! the measured wall time [`ServerStats`] reports.
//!
//! ```
//! use heax_ckks::serialize::{
//!     deserialize_ciphertext, serialize_ciphertext, serialize_galois_keys,
//! };
//! use heax_ckks::{
//!     CkksContext, CkksEncoder, CkksParams, Decryptor, Encryptor, GaloisKeys, ParamSet,
//!     PublicKey, SecretKey,
//! };
//! use heax_hw::board::Board;
//! use heax_server::wire::client::{self, Reply};
//! use heax_server::HeaxServer;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Client: keys, one encrypted vector, all serialized for the wire.
//! let ctx = CkksContext::new(CkksParams::from_set(ParamSet::SetA)?)?;
//! let mut rng = StdRng::seed_from_u64(7);
//! let sk = SecretKey::generate(&ctx, &mut rng);
//! let pk = PublicKey::generate(&ctx, &sk, &mut rng);
//! let gks = GaloisKeys::generate(&ctx, &sk, &[1], &mut rng);
//! let enc = CkksEncoder::new(&ctx);
//! let ct = Encryptor::new(&ctx, &pk).encrypt(
//!     &enc.encode_real(&[1.0, 2.0, 3.0], ctx.params().scale(), ctx.max_level())?,
//!     &mut rng,
//! )?;
//!
//! // Server: open a session, register keys once, rotate over the wire.
//! let mut server = HeaxServer::new(&ctx, Board::stratix10())?;
//! let reply = server.handle_frame(&client::open_session()).unwrap();
//! let (session, _, _) = client::parse_reply(&reply)?;
//! server.handle_frame(&client::register_galois_keys(
//!     session,
//!     &serialize_galois_keys(&gks),
//! ));
//! assert!(server
//!     .handle_frame(&client::rotate(session, 1, &serialize_ciphertext(&ct), 1))
//!     .is_none()); // queued for the batch
//! let replies = server.flush();
//! let (_, _, reply) = client::parse_reply(&replies[0])?;
//! let Reply::Ciphertext(bytes) = reply else { panic!("expected a result") };
//! let rotated = deserialize_ciphertext(&bytes, &ctx)?;
//! let vals = enc.decode_real(&Decryptor::new(&ctx, &sk).decrypt(&rotated)?)?;
//! assert!((vals[0] - 2.0).abs() < 0.05); // slot 0 now holds old slot 1
//! # Ok(())
//! # }
//! ```
//!
//! ## The v2 wire path: seeded uploads, compressed replies
//!
//! Wire v2 (the byte-level spec is `PROTOCOL.md` at the repo root)
//! attacks the transfer-bound serving points from both directions: a
//! fresh symmetric encryption uploads *seeded* — a 32-byte seed stands
//! in for the uniform polynomial, roughly halving ingress — and the
//! `compress_reply` request flag asks the server to modulus-switch a
//! wire-returned result down to one RNS limb (decrypt-only precision):
//!
//! ```
//! use heax_ckks::serialize::{deserialize_ciphertext, serialize_seeded_ciphertext};
//! use heax_ckks::{
//!     encrypt_symmetric_seeded, CkksContext, CkksEncoder, CkksParams, Decryptor, ParamSet,
//!     SecretKey,
//! };
//! use heax_hw::board::Board;
//! use heax_server::wire::client::{self, Reply};
//! use heax_server::wire::{OpCode, Request, WireOperand};
//! use heax_server::HeaxServer;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ctx = CkksContext::new(CkksParams::from_set(ParamSet::SetA)?)?;
//! let mut rng = StdRng::seed_from_u64(9);
//! let sk = SecretKey::generate(&ctx, &mut rng);
//! let enc = CkksEncoder::new(&ctx);
//! let pt = enc.encode_real(&[4.0], ctx.params().scale(), ctx.max_level())?;
//! // Seeded upload: one polynomial + 32 bytes instead of two polynomials.
//! let seeded = encrypt_symmetric_seeded(&ctx, &sk, &pt, &mut rng)?;
//! let upload = serialize_seeded_ciphertext(&seeded);
//!
//! let mut server = HeaxServer::new(&ctx, Board::stratix10())?;
//! let opened = server.handle_frame(&client::open_session()).unwrap();
//! let (session, _, _) = client::parse_reply(&opened)?;
//! let frame = client::request(session, 1, &Request {
//!     op: OpCode::Add,
//!     step: 0,
//!     compress_reply: true, // one-limb reply, please
//!     park_as: None,
//!     operands: vec![WireOperand::Inline(&upload), WireOperand::Inline(&upload)],
//! });
//! server.handle_frame(&frame);
//! let replies = server.flush();
//! let (_, _, reply) = client::parse_reply(&replies[0])?;
//! let Reply::Ciphertext(bytes) = reply else { panic!("expected a result") };
//! let result = deserialize_ciphertext(&bytes, &ctx)?;
//! assert_eq!(result.level(), 0); // exactly one limb crossed the wire back
//! let vals = enc.decode_real(&Decryptor::new(&ctx, &sk).decrypt(&result)?)?;
//! assert!((vals[0] - 8.0).abs() < 0.05); // the seeded vector added to itself
//! assert_eq!(server.stats().seeded_operands, 2);
//! assert_eq!(server.stats().compressed_replies, 1);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod error;
pub mod metrics;
pub mod net;
pub mod server;
pub mod session;
pub mod wire;

pub use engine::{Engine, SessionKeyLru};
pub use error::{ErrorCode, ServerError};
pub use metrics::{OpStats, ServerStats, SessionStats};
pub use net::{NetConfig, NetServer, NetStats};
pub use server::HeaxServer;
pub use session::SessionRegistry;
pub use wire::{MessageKind, OpCode};
