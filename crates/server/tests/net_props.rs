//! Property tests for the socket runtime's two pure state machines:
//!
//! * **Frame assembly** — every valid v1/v2 frame shape from the wire
//!   fuzz corpus, concatenated and delivered byte-at-a-time and in
//!   random chunks, must come out of [`FrameAssembler`] byte-identical
//!   to the input frames, with decoded requests identical to
//!   whole-buffer decoding — whether the bytes are pushed or read
//!   straight into the assembler's buffer, and whether frames are copied
//!   out or lent where they lie; frames sized around the buffer's
//!   starting capacity take the same schedules across its compactions
//!   and growth.
//! * **The session-key LRU** — under random interleavings of store /
//!   restore / remove, the DRAM budget is never exceeded, billing never
//!   drifts, and a restored session always yields its original key
//!   bytes — which is what makes re-registration bit-transparent (pinned
//!   end-to-end by the server-level test at the bottom). That a queued
//!   request protects its session's keys is the engine's to keep, and
//!   `tests/lifecycle.rs` checks it.
//!
//! CI runs this suite under both `HEAX_THREADS=1` and
//! `HEAX_THREADS=4`.

use std::collections::HashMap;

use heax_ckks::serialize::{serialize_ciphertext, serialize_galois_keys};
use heax_ckks::{CkksEncoder, Encryptor, GaloisKeys, PublicKey, SecretKey};
use heax_hw::board::Board;
use heax_server::net::{FrameAssembler, KeyKind};
use heax_server::wire::client::{self, Reply};
use heax_server::wire::{self, MessageKind, OpCode, Request, WireOperand, WIRE_V1, WIRE_V2};
use heax_server::{HeaxServer, SessionKeyLru};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::ctx;

/// One valid frame from the wire corpus: every client-side message
/// kind, both wire versions, arbitrary session/request ids and
/// payload blobs (the assembler must not care whether a payload is a
/// real ciphertext).
fn corpus_frame(version: u8, variant: usize, session: u64, request: u64, blob: &[u8]) -> Vec<u8> {
    match variant % 6 {
        0 => wire::encode_frame(version, MessageKind::OpenSession, session, request, &[]),
        1 => wire::encode_frame(
            version,
            MessageKind::RegisterRelinKey,
            session,
            request,
            blob,
        ),
        2 => wire::encode_frame(
            version,
            MessageKind::RegisterGaloisKeys,
            session,
            request,
            blob,
        ),
        3 => {
            let body = wire::encode_request(
                version,
                &Request {
                    op: OpCode::Add,
                    step: 0,
                    compress_reply: false,
                    park_as: None,
                    operands: vec![WireOperand::Inline(blob), WireOperand::Inline(blob)],
                },
            );
            wire::encode_frame(version, MessageKind::Request, session, request, &body)
        }
        4 => wire::encode_frame(version, MessageKind::CloseSession, session, request, &[]),
        _ => {
            let body = wire::encode_request(
                version,
                &Request {
                    op: OpCode::Rotate,
                    step: -3,
                    compress_reply: version == WIRE_V2,
                    park_as: Some("parked-name"),
                    operands: vec![WireOperand::Parked("x")],
                },
            );
            wire::encode_frame(version, MessageKind::Request, session, request, &body)
        }
    }
}

/// Strategy: a batch of corpus frames as `(version, variant, session,
/// request, blob)` tuples.
fn arb_corpus() -> impl Strategy<Value = Vec<(u8, usize, u64, u64, Vec<u8>)>> {
    prop::collection::vec(
        (
            prop::sample::select(vec![WIRE_V1, WIRE_V2]),
            0usize..6,
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(any::<u8>(), 0..48),
        ),
        1..8,
    )
}

/// A stream that yields at most the scheduled number of bytes per `read`,
/// straight into whatever buffer it is offered.
struct Trickle<'a> {
    stream: &'a [u8],
    chunks: &'a mut dyn Iterator<Item = usize>,
}

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunks.next().unwrap_or(1).clamp(1, buf.len());
        self.stream.read(&mut buf[..n])
    }
}

/// Runs a fragmentation schedule over the concatenated corpus, three
/// ways at once — pushed and copied out (`push` / `next_frame`), pushed
/// and lent (`peek_frame` / `consume_frame`), and read straight into the
/// assembler's spare room (`read_from`) and lent — and checks each
/// assembler's output against the original frames and whole-buffer
/// decoding. Returns the largest capacity the lending assembler reached.
fn check_reassembly(frames: &[Vec<u8>], chunks: &mut dyn Iterator<Item = usize>) -> usize {
    let stream: Vec<u8> = frames.iter().flatten().copied().collect();
    let schedule: Vec<usize> = {
        let mut left = stream.len();
        let mut schedule = Vec::new();
        while left > 0 {
            let n = chunks.next().unwrap_or(1).clamp(1, left);
            schedule.push(n);
            left -= n;
        }
        schedule
    };
    let lend = |asm: &mut FrameAssembler, got: &mut Vec<Vec<u8>>| {
        while let Some(f) = asm.peek_frame().expect("valid streams never error") {
            got.push(f.to_vec());
            asm.consume_frame();
        }
    };

    let (mut copied, mut lent, mut read) = (Vec::new(), Vec::new(), Vec::new());
    let (mut copying, mut lending, mut reading) = (
        FrameAssembler::new(),
        FrameAssembler::new(),
        FrameAssembler::new(),
    );
    let (mut off, mut capacity) = (0, 0);
    for &n in &schedule {
        copying.push(&stream[off..off + n]);
        lending.push(&stream[off..off + n]);
        off += n;
        capacity = capacity.max(lending.capacity());
        while let Some(f) = copying.next_frame().expect("valid streams never error") {
            copied.push(f);
        }
        lend(&mut lending, &mut lent);
    }
    let mut trickle = Trickle {
        stream: &stream,
        chunks: &mut schedule.iter().copied(),
    };
    while reading.read_from(&mut trickle).expect("slices never fail") > 0 {
        lend(&mut reading, &mut read);
    }

    assert_eq!(copied, frames, "reassembled frames must be byte-identical");
    assert_eq!(lent, copied, "lending must yield what copying out yields");
    assert_eq!(read, copied, "reading into the spare room must, too");
    for asm in [&copying, &lending, &reading] {
        assert_eq!(asm.buffered(), 0, "no residue after the last frame");
    }
    let got = copied;
    // Decoded views are identical to whole-buffer decoding, request
    // bodies included.
    for (reassembled, original) in got.iter().zip(frames) {
        let a = wire::decode_frame(reassembled).expect("corpus frames decode");
        let b = wire::decode_frame(original).expect("corpus frames decode");
        assert_eq!(
            (a.version, a.kind, a.session, a.request, a.payload),
            (b.version, b.kind, b.session, b.request, b.payload)
        );
        if a.kind == MessageKind::Request {
            let ra = wire::decode_request(a.payload, a.version).expect("corpus bodies decode");
            let rb = wire::decode_request(b.payload, b.version).expect("corpus bodies decode");
            assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
        }
    }
    capacity
}

/// Frames sized around the assembler's 64 KiB starting capacity: the
/// second and third cannot end where the buffer does, so each straddles a
/// compaction once the frames before it are consumed; the fourth is larger
/// than the buffer has ever been and forces it to grow around the partial
/// frame it holds; small ones ride behind.
fn large_corpus() -> Vec<Vec<u8>> {
    [40_000usize, 40_000, 50_000, 300_000, 10, 70_000, 0, 40_000]
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            let blob: Vec<u8> = (0..len).map(|j| (i * 31 + j * 7) as u8).collect();
            corpus_frame(WIRE_V2, 1 + i % 2, i as u64, !(i as u64), &blob)
        })
        .collect()
}

#[test]
fn assembler_is_exact_across_compaction_and_growth() {
    let frames = large_corpus();
    let largest = frames.iter().map(Vec::len).max().unwrap();
    assert!(check_reassembly(&frames, &mut std::iter::repeat(1)) >= largest);
    for seed in 0..8 {
        let mut rng = StdRng::seed_from_u64(seed);
        let max = [97usize, 4096, 50_000, 400_000][seed as usize % 4];
        let mut chunks = std::iter::from_fn(move || Some(rng.gen_range(1..=max)));
        assert!(check_reassembly(&frames, &mut chunks) >= largest);
    }
}

proptest! {
    /// Byte-at-a-time delivery of every corpus frame shape.
    #[test]
    fn assembler_is_exact_under_byte_at_a_time_delivery(specs in arb_corpus()) {
        let frames: Vec<Vec<u8>> = specs
            .iter()
            .map(|(v, k, s, r, blob)| corpus_frame(*v, *k, *s, *r, blob))
            .collect();
        check_reassembly(&frames, &mut std::iter::repeat(1));
    }

    /// Random chunk schedules (1..=max bytes per delivery, seeded).
    #[test]
    fn assembler_is_exact_under_random_chunk_delivery(
        specs in arb_corpus(),
        seed in 0u64..1000,
    ) {
        let frames: Vec<Vec<u8>> = specs
            .iter()
            .map(|(v, k, s, r, blob)| corpus_frame(*v, *k, *s, *r, blob))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut chunks = std::iter::from_fn(move || Some(rng.gen_range(1usize..=64)));
        check_reassembly(&frames, &mut chunks);
    }

    /// Random interleavings of the LRU's public API hold the three
    /// invariants: hard budget, exact billing, and byte-exact restores.
    #[test]
    fn key_lru_invariants_hold_under_random_interleavings(
        budget in 20u64..200,
        ops in prop::collection::vec(
            (0usize..4, 0u64..6, 0usize..50),
            1..40,
        ),
    ) {
        // Host-side truth: per session, the relin and galois payloads
        // stored.
        type KeySlots = (Option<Vec<u8>>, Option<Vec<u8>>);
        let mut lru = SessionKeyLru::new(budget);
        let mut mirror: HashMap<u64, KeySlots> = HashMap::new();

        for (op, session, size) in ops {
            let payload = vec![(session as u8) ^ (size as u8); size];
            match op {
                0 | 1 => {
                    let kind = if op == 0 { KeyKind::Relin } else { KeyKind::Galois };
                    match lru.store(session, kind, &payload) {
                        Ok(_) => {
                            let entry = mirror.entry(session).or_default();
                            let slot = if op == 0 { &mut entry.0 } else { &mut entry.1 };
                            *slot = Some(payload.clone());
                            prop_assert!(lru.is_resident(session));
                        }
                        Err(_) => {
                            // Rejected uploads leave the prior payloads
                            // untouched but the target session evicted
                            // (the caller drops its engine-side keys on
                            // this path and re-seats them via restore).
                            prop_assert!(!lru.is_resident(session));
                        }
                    }
                }
                2 => {
                    if let Ok((_, payloads)) = lru.restore(session) {
                        if let Some((rlk, gks)) = mirror.get(&session) {
                            if !lru.is_resident(session) {
                                // Entry-less session: nothing restored.
                                prop_assert!(payloads.is_empty());
                            } else if !payloads.is_empty() {
                                let mut expect = Vec::new();
                                if let Some(b) = rlk {
                                    expect.push((KeyKind::Relin, b.clone()));
                                }
                                if let Some(b) = gks {
                                    expect.push((KeyKind::Galois, b.clone()));
                                }
                                prop_assert_eq!(
                                    payloads, expect,
                                    "restores must be byte-exact"
                                );
                            }
                        }
                    }
                }
                _ => {
                    lru.remove(session);
                    mirror.remove(&session);
                }
            }
            // Invariant 1: the budget is a hard bound, always.
            prop_assert!(
                lru.resident_bytes() <= lru.budget(),
                "resident {} over budget {}",
                lru.resident_bytes(),
                lru.budget()
            );
            // Invariant 2: billed bytes equal the sum over resident
            // sessions of their mirrored payload sizes.
            let billed: u64 = mirror
                .iter()
                .filter(|&(&s, _)| lru.is_resident(s))
                .map(|(_, (r, g))| {
                    r.as_ref().map_or(0, |b| b.len() as u64)
                        + g.as_ref().map_or(0, |b| b.len() as u64)
                })
                .sum();
            prop_assert_eq!(billed, lru.resident_bytes(), "billing drift");
        }
    }
}

// ---------------------------------------------------------------------
// Server-level bit-identity of an evict/re-register cycle.
// ---------------------------------------------------------------------

/// Evicting a session's deserialized keys and re-registering them from
/// the same serialized bytes must reproduce the same reply bytes for
/// the same request — the restored keys are the same words, so
/// nothing downstream can tell an evict/re-register cycle happened.
#[test]
fn evict_and_reregister_reproduces_replies_bit_identically() {
    let c = ctx();
    let mut server = HeaxServer::new(&c, Board::stratix10()).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let sk = SecretKey::generate(&c, &mut rng);
    let pk = PublicKey::generate(&c, &sk, &mut rng);
    let gks = GaloisKeys::generate(&c, &sk, &[1], &mut rng);
    let enc = CkksEncoder::new(&c);
    let ct = Encryptor::new(&c, &pk)
        .encrypt(
            &enc.encode_real(&[1.0, 2.0], c.params().scale(), c.max_level())
                .unwrap(),
            &mut rng,
        )
        .unwrap();
    let gks_bytes = serialize_galois_keys(&gks);
    let ct_bytes = serialize_ciphertext(&ct);

    let opened = server.handle_frame(&client::open_session()).unwrap();
    let (session, _, _) = client::parse_reply(&opened).unwrap();
    server.handle_frame(&client::register_galois_keys(session, &gks_bytes));

    assert!(server
        .handle_frame(&client::rotate(session, 7, &ct_bytes, 1))
        .is_none());
    let first = server.flush().remove(0);

    // Evict, prove the keys are really gone, then re-register the same
    // bytes.
    server.evict_session_keys(session).unwrap();
    assert!(server
        .handle_frame(&client::rotate(session, 7, &ct_bytes, 1))
        .is_none());
    let while_evicted = server.flush().remove(0);
    let (_, _, reply) = client::parse_reply(&while_evicted).unwrap();
    assert!(
        matches!(reply, Reply::Error { .. }),
        "rotation without keys must fail structurally"
    );
    server.handle_frame(&client::register_galois_keys(session, &gks_bytes));

    assert!(server
        .handle_frame(&client::rotate(session, 7, &ct_bytes, 1))
        .is_none());
    let second = server.flush().remove(0);
    assert_eq!(first, second, "evict + re-register must be bit-transparent");

    let stats = server.stats();
    assert_eq!(stats.key_evictions, 1);
    assert_eq!(stats.key_reregistrations, 1);
}
