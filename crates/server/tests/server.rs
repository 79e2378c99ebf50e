//! End-to-end tests of the serving layer on a small ring: full wire
//! round trips, batch-vs-sequential equivalence, parked intermediates,
//! session isolation, and failure containment.

use heax_ckks::serialize::{
    deserialize_ciphertext, serialize_ciphertext, serialize_galois_keys, serialize_relin_key,
    serialize_seeded_ciphertext,
};
use heax_ckks::{
    encrypt_symmetric_seeded, Ciphertext, CkksContext, CkksEncoder, Decryptor, Encryptor,
    Evaluator, GaloisKeys, PublicKey, RelinKey, SecretKey,
};
use heax_hw::board::Board;
use heax_server::wire::client::{self, Reply};
use heax_server::wire::{self, MessageKind, OpCode, Request, WireOperand, WIRE_V1, WIRE_V2};
use heax_server::{ErrorCode, HeaxServer};
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::ctx;

/// One simulated client: its own keys and a sample ciphertext.
struct Client {
    sk: SecretKey,
    rlk: RelinKey,
    gks: GaloisKeys,
    ct: Ciphertext,
    vals: Vec<f64>,
}

fn client(ctx: &CkksContext, seed: u64, steps: &[i64]) -> Client {
    let mut rng = StdRng::seed_from_u64(seed);
    let sk = SecretKey::generate(ctx, &mut rng);
    let pk = PublicKey::generate(ctx, &sk, &mut rng);
    let rlk = RelinKey::generate(ctx, &sk, &mut rng);
    let gks = GaloisKeys::generate(ctx, &sk, steps, &mut rng);
    let enc = CkksEncoder::new(ctx);
    let vals: Vec<f64> = (0..ctx.n() / 2)
        .map(|i| (i as f64) * 0.25 - 2.0 + seed as f64 * 0.125)
        .collect();
    let ct = Encryptor::new(ctx, &pk)
        .encrypt(
            &enc.encode_real(&vals, ctx.params().scale(), ctx.max_level())
                .unwrap(),
            &mut rng,
        )
        .unwrap();
    Client {
        sk,
        rlk,
        gks,
        ct,
        vals,
    }
}

fn decrypt(ctx: &CkksContext, sk: &SecretKey, ct: &Ciphertext) -> Vec<f64> {
    let enc = CkksEncoder::new(ctx);
    enc.decode_real(&Decryptor::new(ctx, sk).decrypt(ct).unwrap())
        .unwrap()
}

/// Opens a session and returns its id.
fn open(server: &mut HeaxServer<'_>) -> u64 {
    let reply = server.handle_frame(&client::open_session()).unwrap();
    let (session, _, reply) = client::parse_reply(&reply).unwrap();
    assert_eq!(reply, Reply::SessionOpened);
    assert_ne!(session, 0);
    session
}

/// Registers both keys, asserting acks.
fn register_keys(server: &mut HeaxServer<'_>, session: u64, c: &Client) {
    for frame in [
        client::register_relin_key(session, &serialize_relin_key(&c.rlk)),
        client::register_galois_keys(session, &serialize_galois_keys(&c.gks)),
    ] {
        let reply = server.handle_frame(&frame).unwrap();
        let (_, _, reply) = client::parse_reply(&reply).unwrap();
        assert_eq!(reply, Reply::KeyRegistered);
    }
}

/// Submits a request frame, asserting it was queued (no immediate
/// reply).
fn submit(server: &mut HeaxServer<'_>, session: u64, request_id: u64, req: &Request<'_>) {
    assert!(
        server
            .handle_frame(&client::request(session, request_id, req))
            .is_none(),
        "request must queue, not answer immediately"
    );
}

fn expect_ciphertext(ctx: &CkksContext, frame: &[u8]) -> Ciphertext {
    let (_, _, reply) = client::parse_reply(frame).unwrap();
    match reply {
        Reply::Ciphertext(bytes) => deserialize_ciphertext(&bytes, ctx).unwrap(),
        other => panic!("expected a ciphertext reply, got {other:?}"),
    }
}

fn expect_error(frame: &[u8]) -> (ErrorCode, String) {
    let (_, _, reply) = client::parse_reply(frame).unwrap();
    match reply {
        Reply::Error { code, message } => (code, message),
        other => panic!("expected an error reply, got {other:?}"),
    }
}

#[test]
fn parked_pipeline_computes_x2_plus_rotated_x2() {
    let ctx = ctx();
    let c = client(&ctx, 1, &[1]);
    let mut server = HeaxServer::new(&ctx, Board::stratix10()).unwrap();
    let session = open(&mut server);
    register_keys(&mut server, session, &c);

    let wire_ct = serialize_ciphertext(&c.ct);
    // x² parked, rot(x², 1) parked, then x² + rot(x², 1) shipped back —
    // the seed example's pipeline, now through the wire protocol.
    submit(
        &mut server,
        session,
        1,
        &Request {
            op: OpCode::SquareRelin,
            step: 0,
            compress_reply: false,
            park_as: Some("x2"),
            operands: vec![WireOperand::Inline(&wire_ct)],
        },
    );
    submit(
        &mut server,
        session,
        2,
        &Request {
            op: OpCode::Rotate,
            step: 1,
            compress_reply: false,
            park_as: Some("x2r"),
            operands: vec![WireOperand::Parked("x2")],
        },
    );
    submit(
        &mut server,
        session,
        3,
        &Request {
            op: OpCode::Add,
            step: 0,
            compress_reply: false,
            park_as: None,
            operands: vec![WireOperand::Parked("x2"), WireOperand::Parked("x2r")],
        },
    );
    assert_eq!(server.queue_depth(), 3);
    let replies = server.flush();
    assert_eq!(replies.len(), 3);
    let (_, _, r1) = client::parse_reply(&replies[0]).unwrap();
    assert_eq!(r1, Reply::Parked("x2".into()));
    let (_, _, r2) = client::parse_reply(&replies[1]).unwrap();
    assert_eq!(r2, Reply::Parked("x2r".into()));
    let result = expect_ciphertext(&ctx, &replies[2]);

    let got = decrypt(&ctx, &c.sk, &result);
    let slots = ctx.n() / 2;
    for (i, g) in got.iter().enumerate().take(4) {
        let want = c.vals[i] * c.vals[i] + c.vals[(i + 1) % slots] * c.vals[(i + 1) % slots];
        assert!((g - want).abs() < 0.05, "slot {i}: {g} vs {want}");
    }

    // Parked intermediates live in modeled board DRAM until close.
    assert!(server.parked(session, "x2").is_some());
    let stats = server.stats();
    assert_eq!(stats.parked_entries, 2);
    assert!(stats.parked_bytes > 0);
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.batched_requests, 3);

    // Closing the session releases its parked operands.
    let reply = server
        .handle_frame(&client::close_session(session))
        .unwrap();
    let (_, _, reply) = client::parse_reply(&reply).unwrap();
    assert_eq!(reply, Reply::SessionClosed);
    assert_eq!(server.stats().parked_entries, 0);
    assert_eq!(server.stats().parked_bytes, 0);

    // The session is gone; later frames get a structured error.
    let reply = server
        .handle_frame(&client::rotate(session, 9, &wire_ct, 1))
        .unwrap();
    assert_eq!(expect_error(&reply).0, ErrorCode::UnknownSession);
}

#[test]
fn batched_rotations_decrypt_like_sequential_and_hoist() {
    let ctx = ctx();
    let steps = [1i64, -1, 2, 5];
    let clients: Vec<Client> = (0..2).map(|i| client(&ctx, 10 + i, &steps)).collect();
    let mut server = HeaxServer::new(&ctx, Board::stratix10()).unwrap();
    let eval = Evaluator::new(&ctx);

    let mut sessions = Vec::new();
    for c in &clients {
        let session = open(&mut server);
        register_keys(&mut server, session, c);
        sessions.push(session);
    }
    // Interleave the two clients' rotation requests so grouping has to
    // untangle them.
    let wires: Vec<Vec<u8>> = clients
        .iter()
        .map(|c| serialize_ciphertext(&c.ct))
        .collect();
    let mut req_id = 0u64;
    for &step in &steps {
        for (session, wire) in sessions.iter().zip(&wires) {
            req_id += 1;
            submit(
                &mut server,
                *session,
                req_id,
                &Request {
                    op: OpCode::Rotate,
                    step,
                    compress_reply: false,
                    park_as: None,
                    operands: vec![WireOperand::Inline(wire)],
                },
            );
        }
    }
    let replies = server.flush();
    assert_eq!(replies.len(), steps.len() * clients.len());

    // Every batched output decrypts to the same values as a sequential
    // rotate of the same input (hoisting is decrypt-equal).
    for (i, reply) in replies.iter().enumerate() {
        let which = i % clients.len();
        let step = steps[i / clients.len()];
        let c = &clients[which];
        let got = decrypt(&ctx, &c.sk, &expect_ciphertext(&ctx, reply));
        let seq = eval.rotate(&c.ct, step, &c.gks).unwrap();
        let want = decrypt(&ctx, &c.sk, &seq);
        for (slot, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                (g - w).abs() < 1e-2,
                "client {which} step {step} slot {slot}: {g} vs {w}"
            );
        }
    }

    let stats = server.stats();
    assert_eq!(stats.hoisted_groups, clients.len() as u64);
    assert_eq!(
        stats.hoisted_rotations,
        (steps.len() * clients.len()) as u64
    );
    assert_eq!(
        stats.batch_occupancy(),
        (steps.len() * clients.len()) as f64
    );
    assert_eq!(stats.op(OpCode::Rotate).requests, 8);
    assert_eq!(stats.op(OpCode::Rotate).errors, 0);
    assert_eq!(stats.queue_high_water, 8);
    assert_eq!(stats.queue_depth, 0);
}

#[test]
fn hostile_input_gets_structured_errors_session_survives() {
    let ctx = ctx();
    let c = client(&ctx, 20, &[1]);
    let mut server = HeaxServer::new(&ctx, Board::stratix10()).unwrap();
    let session = open(&mut server);
    register_keys(&mut server, session, &c);
    let wire_ct = serialize_ciphertext(&c.ct);

    // Raw garbage is answered, not dropped.
    let reply = server.handle_frame(b"not a frame at all").unwrap();
    assert_eq!(expect_error(&reply).0, ErrorCode::Malformed);

    // A ciphertext with a NaN scale is rejected at intake with a
    // structured error (the serialize-layer hardening, surfaced over
    // the wire).
    let mut nan_ct = wire_ct.clone();
    let scale_off = 4 + 1 + 1 + 8;
    nan_ct[scale_off..scale_off + 8].copy_from_slice(&f64::NAN.to_le_bytes());
    let reply = server
        .handle_frame(&client::rotate(session, 2, &nan_ct, 1))
        .unwrap();
    assert_eq!(expect_error(&reply).0, ErrorCode::Crypto);

    // A request for an unknown parked handle fails structurally too.
    submit(
        &mut server,
        session,
        3,
        &Request {
            op: OpCode::Fetch,
            step: 0,
            compress_reply: false,
            park_as: None,
            operands: vec![WireOperand::Parked("never-parked")],
        },
    );
    let replies = server.flush();
    assert_eq!(expect_error(&replies[0]).0, ErrorCode::UnknownHandle);

    // The session still serves correct work afterwards.
    submit(
        &mut server,
        session,
        4,
        &Request {
            op: OpCode::Rotate,
            step: 1,
            compress_reply: false,
            park_as: None,
            operands: vec![WireOperand::Inline(&wire_ct)],
        },
    );
    let replies = server.flush();
    let got = decrypt(&ctx, &c.sk, &expect_ciphertext(&ctx, &replies[0]));
    assert!((got[0] - c.vals[1]).abs() < 1e-2);

    let stats = server.stats();
    assert_eq!(stats.decode_errors, 1);
    assert!(stats.per_session[0].1.errors >= 2);
}

#[test]
fn uncovered_steps_fail_individually_inside_a_fused_group() {
    let ctx = ctx();
    // Keys for steps 1 and 2 only; step 3 is requested but uncovered.
    let c = client(&ctx, 30, &[1, 2]);
    let mut server = HeaxServer::new(&ctx, Board::stratix10()).unwrap();
    let session = open(&mut server);
    register_keys(&mut server, session, &c);
    let wire_ct = serialize_ciphertext(&c.ct);
    for (id, step) in [(1u64, 1i64), (2, 3), (3, 2)] {
        submit(
            &mut server,
            session,
            id,
            &Request {
                op: OpCode::Rotate,
                step,
                compress_reply: false,
                park_as: None,
                operands: vec![WireOperand::Inline(&wire_ct)],
            },
        );
    }
    let replies = server.flush();
    let r1 = decrypt(&ctx, &c.sk, &expect_ciphertext(&ctx, &replies[0]));
    assert!((r1[0] - c.vals[1]).abs() < 1e-2);
    let (code, message) = expect_error(&replies[1]);
    assert_eq!(code, ErrorCode::MissingKey);
    assert!(
        message.contains('3'),
        "message should name the step: {message}"
    );
    let r3 = decrypt(&ctx, &c.sk, &expect_ciphertext(&ctx, &replies[2]));
    assert!((r3[0] - c.vals[2]).abs() < 1e-2);

    // The two covered steps still shared one hoisted decomposition.
    let stats = server.stats();
    assert_eq!(stats.hoisted_groups, 1);
    assert_eq!(stats.hoisted_rotations, 2);
    assert_eq!(stats.op(OpCode::Rotate).errors, 1);
}

#[test]
fn parked_handles_are_session_scoped() {
    let ctx = ctx();
    let a = client(&ctx, 40, &[1]);
    let b = client(&ctx, 41, &[1]);
    let mut server = HeaxServer::new(&ctx, Board::stratix10()).unwrap();
    let sess_a = open(&mut server);
    register_keys(&mut server, sess_a, &a);
    let sess_b = open(&mut server);
    register_keys(&mut server, sess_b, &b);

    let wire_a = serialize_ciphertext(&a.ct);
    submit(
        &mut server,
        sess_a,
        1,
        &Request {
            op: OpCode::Fetch,
            step: 0,
            compress_reply: false,
            park_as: Some("shared-name"),
            operands: vec![WireOperand::Inline(&wire_a)],
        },
    );
    server.flush();

    // Session B cannot see A's handle, even by the same name.
    submit(
        &mut server,
        sess_b,
        2,
        &Request {
            op: OpCode::Fetch,
            step: 0,
            compress_reply: false,
            park_as: None,
            operands: vec![WireOperand::Parked("shared-name")],
        },
    );
    let replies = server.flush();
    assert_eq!(expect_error(&replies[0]).0, ErrorCode::UnknownHandle);

    // Session A can.
    submit(
        &mut server,
        sess_a,
        3,
        &Request {
            op: OpCode::Fetch,
            step: 0,
            compress_reply: false,
            park_as: None,
            operands: vec![WireOperand::Parked("shared-name")],
        },
    );
    let replies = server.flush();
    let fetched = expect_ciphertext(&ctx, &replies[0]);
    assert_eq!(fetched, a.ct);
}

#[test]
fn park_after_session_close_cannot_orphan_dram() {
    let ctx = ctx();
    let c = client(&ctx, 60, &[1]);
    let mut server = HeaxServer::new(&ctx, Board::stratix10()).unwrap();
    let session = open(&mut server);
    register_keys(&mut server, session, &c);
    let wire_ct = serialize_ciphertext(&c.ct);
    // Queue a parking request, then close the session BEFORE flushing.
    submit(
        &mut server,
        session,
        1,
        &Request {
            op: OpCode::Fetch,
            step: 0,
            compress_reply: false,
            park_as: Some("orphan"),
            operands: vec![WireOperand::Inline(&wire_ct)],
        },
    );
    let reply = server
        .handle_frame(&client::close_session(session))
        .unwrap();
    let (_, _, reply) = client::parse_reply(&reply).unwrap();
    assert_eq!(reply, Reply::SessionClosed);
    // The flush must answer with a structured error and must NOT leave
    // an unreleasable entry in modeled DRAM (session ids are never
    // reused, so nothing could ever free it).
    let replies = server.flush();
    assert_eq!(expect_error(&replies[0]).0, ErrorCode::UnknownSession);
    assert_eq!(server.stats().parked_entries, 0);
    assert_eq!(server.stats().parked_bytes, 0);
}

#[test]
fn reparking_a_handle_splits_the_rotation_group() {
    let ctx = ctx();
    let c = client(&ctx, 61, &[1]);
    let mut server = HeaxServer::new(&ctx, Board::stratix10()).unwrap();
    let session = open(&mut server);
    register_keys(&mut server, session, &c);
    let eval = Evaluator::new(&ctx);

    // Park the original ciphertext as "x", and prepare a distinct
    // second ciphertext (x + x) to repark under the same name.
    let wire_ct = serialize_ciphertext(&c.ct);
    submit(
        &mut server,
        session,
        1,
        &Request {
            op: OpCode::Fetch,
            step: 0,
            compress_reply: false,
            park_as: Some("x"),
            operands: vec![WireOperand::Inline(&wire_ct)],
        },
    );
    server.flush();

    // One flush: rotate old "x", overwrite "x" with x+x, rotate "x"
    // again. In-order semantics demand the second rotation see x+x.
    submit(
        &mut server,
        session,
        2,
        &Request {
            op: OpCode::Rotate,
            step: 1,
            compress_reply: false,
            park_as: None,
            operands: vec![WireOperand::Parked("x")],
        },
    );
    submit(
        &mut server,
        session,
        3,
        &Request {
            op: OpCode::Add,
            step: 0,
            compress_reply: false,
            park_as: Some("x"),
            operands: vec![WireOperand::Parked("x"), WireOperand::Parked("x")],
        },
    );
    submit(
        &mut server,
        session,
        4,
        &Request {
            op: OpCode::Rotate,
            step: 1,
            compress_reply: false,
            park_as: None,
            operands: vec![WireOperand::Parked("x")],
        },
    );
    let replies = server.flush();
    assert_eq!(replies.len(), 3);

    let rot_old = expect_ciphertext(&ctx, &replies[0]);
    let rot_new = expect_ciphertext(&ctx, &replies[2]);
    let want_old = decrypt(&ctx, &c.sk, &eval.rotate(&c.ct, 1, &c.gks).unwrap());
    let doubled = eval.add(&c.ct, &c.ct).unwrap();
    let want_new = decrypt(&ctx, &c.sk, &eval.rotate(&doubled, 1, &c.gks).unwrap());
    let got_old = decrypt(&ctx, &c.sk, &rot_old);
    let got_new = decrypt(&ctx, &c.sk, &rot_new);
    for slot in 0..4 {
        assert!(
            (got_old[slot] - want_old[slot]).abs() < 1e-2,
            "pre-write rotation must see the old value"
        );
        assert!(
            (got_new[slot] - want_new[slot]).abs() < 1e-2,
            "post-write rotation must see the REPARKED value, got {} want {}",
            got_new[slot],
            want_new[slot]
        );
    }
    // The write split the would-be group: no fusion happened.
    assert_eq!(server.stats().hoisted_groups, 0);
}

#[test]
fn missing_relin_key_is_a_structured_error() {
    let ctx = ctx();
    let c = client(&ctx, 50, &[1]);
    let mut server = HeaxServer::new(&ctx, Board::stratix10()).unwrap();
    let session = open(&mut server);
    // Only Galois keys registered — square must fail with MissingKey.
    let reply = server
        .handle_frame(&client::register_galois_keys(
            session,
            &serialize_galois_keys(&c.gks),
        ))
        .unwrap();
    let (_, _, reply) = client::parse_reply(&reply).unwrap();
    assert_eq!(reply, Reply::KeyRegistered);

    let wire_ct = serialize_ciphertext(&c.ct);
    submit(
        &mut server,
        session,
        1,
        &Request {
            op: OpCode::SquareRelin,
            step: 0,
            compress_reply: false,
            park_as: None,
            operands: vec![WireOperand::Inline(&wire_ct)],
        },
    );
    let replies = server.flush();
    assert_eq!(expect_error(&replies[0]).0, ErrorCode::MissingKey);
}

#[test]
fn v2_seeded_upload_and_compressed_reply() {
    let ctx = ctx();
    let c = client(&ctx, 9, &[1]);
    let mut server = HeaxServer::new(&ctx, Board::stratix10()).unwrap();
    let session = open(&mut server);

    // A fresh symmetric encryption shipped seeded: 32 bytes of seed
    // stand in for the whole uniform polynomial.
    let mut rng = StdRng::seed_from_u64(99);
    let enc = CkksEncoder::new(&ctx);
    let vals: Vec<f64> = (0..ctx.n() / 2).map(|i| i as f64 * 0.5 - 3.0).collect();
    let pt = enc
        .encode_real(&vals, ctx.params().scale(), ctx.max_level())
        .unwrap();
    let seeded = encrypt_symmetric_seeded(&ctx, &c.sk, &pt, &mut rng).unwrap();
    let seeded_bytes = serialize_seeded_ciphertext(&seeded);
    let full_bytes = serialize_ciphertext(&c.ct);
    assert!(
        seeded_bytes.len() * 2 < full_bytes.len() + 1024,
        "seeded upload should be about half the full encoding"
    );

    submit(
        &mut server,
        session,
        1,
        &Request {
            op: OpCode::Add,
            step: 0,
            compress_reply: true,
            park_as: None,
            operands: vec![
                WireOperand::Inline(&seeded_bytes),
                WireOperand::Inline(&full_bytes),
            ],
        },
    );
    let replies = server.flush();
    assert_eq!(replies.len(), 1);
    assert_eq!(
        wire::decode_frame(&replies[0]).unwrap().version,
        WIRE_V2,
        "reply echoes the request's wire version"
    );
    let out = expect_ciphertext(&ctx, &replies[0]);
    assert_eq!(out.level(), 0, "compressed reply ships one RNS limb");
    assert!(
        replies[0].len() * 2 < full_bytes.len(),
        "compressed reply should be a small fraction of a full ciphertext"
    );
    let got = decrypt(&ctx, &c.sk, &out);
    for (i, g) in got.iter().enumerate().take(8) {
        let want = vals[i] + c.vals[i];
        assert!((g - want).abs() < 0.05, "slot {i}: {g} vs {want}");
    }
    let stats = server.stats();
    assert_eq!(stats.seeded_operands, 1);
    assert_eq!(stats.compressed_replies, 1);
}

/// A rotation of inline ciphertext bytes, its reply shaped as asked.
fn rotation<'a>(
    input: &'a [u8],
    step: i64,
    compress_reply: bool,
    park_as: Option<&'a str>,
) -> Request<'a> {
    Request {
        op: OpCode::Rotate,
        step,
        compress_reply,
        park_as,
        operands: vec![WireOperand::Inline(input)],
    }
}

/// The ciphertext bytes a reply frame carries.
fn reply_bytes(frame: &[u8]) -> Vec<u8> {
    match client::parse_reply(frame).unwrap().2 {
        Reply::Ciphertext(bytes) => bytes,
        other => panic!("expected a ciphertext reply, got {other:?}"),
    }
}

#[test]
fn compressed_rotations_reply_the_full_level_result_cut_to_one_residue() {
    let ctx = ctx();
    let steps = [1i64, -1, 2, 5];
    let c = client(&ctx, 21, &steps);
    let eval = Evaluator::new(&ctx);
    let mut server = HeaxServer::new(&ctx, Board::stratix10()).unwrap();
    let session = open(&mut server);
    register_keys(&mut server, session, &c);
    let cut = |ct: &Ciphertext| serialize_ciphertext(&eval.mod_switch_to_level(ct, 0).unwrap());

    let mut id = 0;
    for level in (0..=ctx.max_level()).rev() {
        let input = eval.mod_switch_to_level(&c.ct, level).unwrap();
        let bytes = serialize_ciphertext(&input);

        // A fused fan-out, every member compressed.
        for &step in &steps {
            id += 1;
            submit(
                &mut server,
                session,
                id,
                &rotation(&bytes, step, true, None),
            );
        }
        let replies = server.flush();
        let want = eval.rotate_many(&input, &steps, &c.gks).unwrap();
        assert_eq!(replies.len(), steps.len());
        for ((reply, want), step) in replies.iter().zip(&want).zip(steps) {
            assert_eq!(reply_bytes(reply), cut(want), "level {level}, step {step}");
        }

        // A lone compressed rotation: the plain path, cut the same way.
        id += 1;
        submit(&mut server, session, id, &rotation(&bytes, 5, true, None));
        let replies = server.flush();
        let want = eval.rotate(&input, 5, &c.gks).unwrap();
        assert_eq!(reply_bytes(&replies[0]), cut(&want), "level {level}, lone");
    }
    let stats = server.stats();
    let levels = ctx.max_level() as u64 + 1;
    assert_eq!(stats.hoisted_groups, levels);
    assert_eq!(stats.compressed_replies, levels * (steps.len() as u64 + 1));
    assert_eq!(stats.op(OpCode::Rotate).errors, 0);
}

#[test]
fn a_mixed_rotation_group_gives_each_member_the_reply_it_asked_for() {
    let ctx = ctx();
    let steps = [1i64, -1, 2, 5];
    let c = client(&ctx, 22, &steps);
    let eval = Evaluator::new(&ctx);
    let mut server = HeaxServer::new(&ctx, Board::stratix10()).unwrap();
    let session = open(&mut server);
    register_keys(&mut server, session, &c);
    let bytes = serialize_ciphertext(&c.ct);
    let full = eval.rotate_many(&c.ct, &steps, &c.gks).unwrap();
    let cut = |ct: &Ciphertext| serialize_ciphertext(&eval.mod_switch_to_level(ct, 0).unwrap());

    // One group: compressed, parked, uncompressed, compressed.
    let asks = [
        (true, None),
        (false, Some("r")),
        (false, None),
        (true, None),
    ];
    for (id, (&step, (compress, park))) in (1..).zip(steps.iter().zip(asks)) {
        submit(
            &mut server,
            session,
            id,
            &rotation(&bytes, step, compress, park),
        );
    }
    let replies = server.flush();
    assert_eq!(replies.len(), 4);
    assert_eq!(server.stats().hoisted_groups, 1);
    assert_eq!(reply_bytes(&replies[0]), cut(&full[0]));
    let (_, _, parked) = client::parse_reply(&replies[1]).unwrap();
    assert_eq!(parked, Reply::Parked("r".into()));
    assert_eq!(server.parked(session, "r"), Some(&full[1]));
    assert_eq!(reply_bytes(&replies[2]), serialize_ciphertext(&full[2]));
    assert_eq!(reply_bytes(&replies[3]), cut(&full[3]));

    // No park at all, but one member wants the full result.
    submit(
        &mut server,
        session,
        5,
        &rotation(&bytes, steps[0], false, None),
    );
    submit(
        &mut server,
        session,
        6,
        &rotation(&bytes, steps[2], true, None),
    );
    let replies = server.flush();
    let full = eval
        .rotate_many(&c.ct, &[steps[0], steps[2]], &c.gks)
        .unwrap();
    assert_eq!(server.stats().hoisted_groups, 2);
    assert_eq!(reply_bytes(&replies[0]), serialize_ciphertext(&full[0]));
    assert_eq!(reply_bytes(&replies[1]), cut(&full[1]));
}

#[test]
fn v1_clients_still_served_with_version_echoed() {
    let ctx = ctx();
    let c = client(&ctx, 3, &[1]);
    let mut server = HeaxServer::new(&ctx, Board::stratix10()).unwrap();

    // Hand-rolled v1 frames throughout: the upgraded server must keep
    // speaking v1 to a v1 peer, byte-compatibly.
    let reply = server
        .handle_frame(&wire::encode_frame(
            WIRE_V1,
            MessageKind::OpenSession,
            0,
            0,
            &[],
        ))
        .unwrap();
    assert_eq!(wire::decode_frame(&reply).unwrap().version, WIRE_V1);
    let (session, _, r) = client::parse_reply(&reply).unwrap();
    assert_eq!(r, Reply::SessionOpened);

    let reply = server
        .handle_frame(&wire::encode_frame(
            WIRE_V1,
            MessageKind::RegisterGaloisKeys,
            session,
            0,
            &serialize_galois_keys(&c.gks),
        ))
        .unwrap();
    assert_eq!(wire::decode_frame(&reply).unwrap().version, WIRE_V1);

    // A v1 request body has no flags byte.
    let wire_ct = serialize_ciphertext(&c.ct);
    let req = Request {
        op: OpCode::Rotate,
        step: 1,
        compress_reply: false,
        park_as: None,
        operands: vec![WireOperand::Inline(&wire_ct)],
    };
    let frame = wire::encode_frame(
        WIRE_V1,
        MessageKind::Request,
        session,
        7,
        &wire::encode_request(WIRE_V1, &req),
    );
    assert!(server.handle_frame(&frame).is_none());
    let replies = server.flush();
    assert_eq!(replies.len(), 1);
    assert_eq!(
        wire::decode_frame(&replies[0]).unwrap().version,
        WIRE_V1,
        "v1 request answered with a v1 frame"
    );
    let out = expect_ciphertext(&ctx, &replies[0]);
    let got = decrypt(&ctx, &c.sk, &out);
    assert!((got[0] - c.vals[1]).abs() < 0.01, "rotation by 1");

    // Undecodable bytes (no trustworthy version) are answered at v1.
    let err = server.handle_frame(b"not a frame at all").unwrap();
    assert_eq!(wire::decode_frame(&err).unwrap().version, WIRE_V1);
    assert_eq!(expect_error(&err).0, ErrorCode::Malformed);
}

#[test]
fn v2_flags_reach_the_lowered_stream() {
    // The same request submitted plainly vs. seeded+compressed must
    // lower into IR ops that carry the flags an offline board model
    // shrinks the transfer legs by.
    let ctx = ctx();
    let c = client(&ctx, 5, &[1]);
    let mut server = HeaxServer::new(&ctx, Board::stratix10()).unwrap();
    let session = open(&mut server);

    let mut rng = StdRng::seed_from_u64(77);
    let enc = CkksEncoder::new(&ctx);
    let pt = enc
        .encode_real(&[1.0, 2.0], ctx.params().scale(), ctx.max_level())
        .unwrap();
    let seeded = encrypt_symmetric_seeded(&ctx, &c.sk, &pt, &mut rng).unwrap();
    let seeded_bytes = serialize_seeded_ciphertext(&seeded);
    let full_bytes = serialize_ciphertext(&c.ct);

    submit(
        &mut server,
        session,
        1,
        &Request {
            op: OpCode::Rescale,
            step: 0,
            compress_reply: false,
            park_as: None,
            operands: vec![WireOperand::Inline(&full_bytes)],
        },
    );
    let plain_stream = server.queued_stream();
    server.flush();
    submit(
        &mut server,
        session,
        2,
        &Request {
            op: OpCode::Rescale,
            step: 0,
            compress_reply: true,
            park_as: None,
            operands: vec![WireOperand::Inline(&seeded_bytes)],
        },
    );
    let v2_stream = server.queued_stream();
    server.flush();

    assert!(!plain_stream.ops[0].input_seeded);
    assert_eq!(plain_stream.ops[0].reply_limbs, 0);
    assert!(v2_stream.ops[0].input_seeded);
    assert_eq!(v2_stream.ops[0].reply_limbs, 1);
}

/// Adversarial decoding of v1/v2 request bodies: `decode_request` must
/// be total on untrusted input at both wire versions, and a hostile
/// frame fed to a live server must come back as an error frame (at
/// wire v1, since an undecodable frame has no trustworthy version),
/// never take the session down.
mod wire_body_fuzz {
    use super::*;
    use proptest::prelude::*;

    fn sample_body(version: u8) -> Vec<u8> {
        wire::encode_request(
            version,
            &Request {
                op: OpCode::Add,
                step: -5,
                compress_reply: false,
                park_as: Some("sum"),
                operands: vec![
                    WireOperand::Inline(b"not a ciphertext"),
                    WireOperand::Parked("x"),
                ],
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Truncations, bit flips, and injected garbage never panic the
        /// body decoder at either version; raw garbage never decodes.
        #[test]
        fn decode_request_is_total_at_both_versions(
            version in prop::sample::select(vec![WIRE_V1, WIRE_V2]),
            kind in 0usize..3,
            pos in any::<u64>(),
            bit in 0u8..8,
        ) {
            let mut bytes = sample_body(version);
            let len = bytes.len() as u64;
            match kind {
                0 => bytes.truncate((pos % (len + 1)) as usize),
                1 => bytes[(pos % len) as usize] ^= 1 << bit,
                _ => bytes.extend_from_slice(&pos.to_le_bytes()),
            }
            // Decode under both version interpretations — a hostile
            // peer controls the frame header too.
            for decode_as in [WIRE_V1, WIRE_V2] {
                let _ = wire::decode_request(&bytes, decode_as);
            }
        }

        /// Random garbage bodies are rejected, not accepted or panicked
        /// on, at both versions.
        #[test]
        fn garbage_bodies_rejected(
            bytes in prop::collection::vec(any::<u8>(), 0..64),
            version in prop::sample::select(vec![WIRE_V1, WIRE_V2]),
        ) {
            // Byte 0 is the op code; valid ops are 1..=6, so force an
            // invalid one to guarantee rejection regardless of the rest.
            let mut bytes = bytes;
            if !bytes.is_empty() {
                bytes[0] = 0xEE;
            }
            prop_assert!(wire::decode_request(&bytes, version).is_err());
        }

        /// Corrupted error frames never panic the client-side reply
        /// parser: truncations, bit flips, and appended garbage either
        /// parse to *some* structured error or are rejected cleanly.
        #[test]
        fn error_frames_survive_corruption(
            version in prop::sample::select(vec![WIRE_V1, WIRE_V2]),
            code_index in 0usize..9,
            kind in 0usize..3,
            pos in any::<u64>(),
            bit in 0u8..8,
        ) {
            let code = heax_server::ErrorCode::ALL[code_index];
            let mut frame = wire::encode_frame(
                version,
                wire::MessageKind::Error,
                3,
                7,
                &wire::encode_error(code, "request shed: budget blown"),
            );
            let len = frame.len() as u64;
            match kind {
                0 => frame.truncate((pos % (len + 1)) as usize),
                1 => frame[(pos % len) as usize] ^= 1 << bit,
                _ => frame.extend_from_slice(&pos.to_le_bytes()),
            }
            let _ = wire::client::parse_reply(&frame);
        }

        /// An error *payload* with a random code and arbitrary message
        /// bytes always decodes — unknown codes land on `Unsupported`,
        /// never a panic or a rejected frame.
        #[test]
        fn random_error_payloads_decode_total(
            raw_code in any::<u16>(),
            message in prop::collection::vec(any::<u8>(), 0..48),
            version in prop::sample::select(vec![WIRE_V1, WIRE_V2]),
        ) {
            let mut payload = raw_code.to_le_bytes().to_vec();
            payload.extend_from_slice(&message);
            let frame = wire::encode_frame(version, wire::MessageKind::Error, 1, 2, &payload);
            let (_, _, reply) = wire::client::parse_reply(&frame).expect("error frames parse");
            let Reply::Error { code, .. } = reply else {
                panic!("expected an error reply");
            };
            let known = heax_server::ErrorCode::ALL.iter().any(|&c| c as u16 == raw_code);
            if !known {
                prop_assert_eq!(code, heax_server::ErrorCode::Unsupported);
            } else {
                prop_assert_eq!(code as u16, raw_code);
            }
        }
    }
}
