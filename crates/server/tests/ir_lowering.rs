//! IR-layer tests for the server's lower → fuse pipeline: lowering
//! queued requests into the shared `heax_hw::ir` op stream is a pure
//! inspection ([`HeaxServer::queued_stream`] / `queued_plan`), so its
//! shape — kinds, operand placement, identity ids, dependency edges,
//! hoisted groups — is unit-testable on its own. Also pins that
//! rotation fusion is order-insensitive across session interleavings.

use heax_ckks::serialize::{
    serialize_ciphertext, serialize_galois_keys, serialize_seeded_ciphertext,
};
use heax_ckks::{
    encrypt_symmetric_seeded, Ciphertext, CkksContext, CkksEncoder, Encryptor, GaloisKeys,
    PublicKey, SecretKey,
};
use heax_hw::board::Board;
use heax_hw::ir::{FusedStream, OpKind};
use heax_server::wire::client::{self};
use heax_server::wire::{OpCode, Request, WireOperand};
use heax_server::HeaxServer;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::ctx;

/// A keyed client: Galois keys (covering ±1, ±2) plus one fresh
/// ciphertext, both ready for the wire.
struct Client {
    gks: GaloisKeys,
    ct: Ciphertext,
}

fn client_rig(ctx: &CkksContext, seed: u64) -> Client {
    let mut rng = StdRng::seed_from_u64(seed);
    let sk = SecretKey::generate(ctx, &mut rng);
    let pk = PublicKey::generate(ctx, &sk, &mut rng);
    let gks = GaloisKeys::generate(ctx, &sk, &[1, 2, -1, -2], &mut rng);
    let enc = CkksEncoder::new(ctx);
    let vals: Vec<f64> = (0..ctx.n() / 2)
        .map(|i| (i as f64) * 0.04 + seed as f64 * 0.03)
        .collect();
    let ct = Encryptor::new(ctx, &pk)
        .encrypt(
            &enc.encode_real(&vals, ctx.params().scale(), ctx.max_level())
                .unwrap(),
            &mut rng,
        )
        .unwrap();
    Client { gks, ct }
}

/// Opens one session and registers its Galois keys.
fn open_keyed(server: &mut HeaxServer<'_>, c: &Client) -> u64 {
    let reply = server.handle_frame(&client::open_session()).unwrap();
    let (session, _, _) = client::parse_reply(&reply).unwrap();
    let frame = client::register_galois_keys(session, &serialize_galois_keys(&c.gks));
    server.handle_frame(&frame).unwrap();
    session
}

fn submit(server: &mut HeaxServer<'_>, session: u64, id: u64, req: &Request<'_>) {
    assert!(server
        .handle_frame(&client::request(session, id, req))
        .is_none());
}

/// The multiset of hoisted rotation groups in a fused plan, as
/// `(session, fanout)` pairs sorted for comparison — the shape the
/// order-insensitivity property compares across submission orders.
fn group_shape(plan: &FusedStream) -> Vec<(u64, usize)> {
    let mut shape: Vec<(u64, usize)> = plan
        .ops
        .iter()
        .zip(&plan.members)
        .filter(|(op, _)| matches!(op.kind, OpKind::Rotate | OpKind::RotateMany { .. }))
        .map(|(op, members)| (op.session, members.len()))
        .collect();
    shape.sort_unstable();
    shape
}

#[test]
fn lowering_is_pure_and_captures_placement_ids_and_deps() {
    let c = ctx();
    let rig = client_rig(&c, 11);
    let mut server = HeaxServer::new(&c, Board::stratix10()).unwrap();
    let session = open_keyed(&mut server, &rig);
    let ct_bytes = serialize_ciphertext(&rig.ct);

    // fetch(inline) → "a"; rotate("a") → "b"; add("a","b") → "c";
    // fetch("c") out.
    submit(
        &mut server,
        session,
        1,
        &Request {
            op: OpCode::Fetch,
            step: 0,
            compress_reply: false,
            park_as: Some("a"),
            operands: vec![WireOperand::Inline(&ct_bytes)],
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
            park_as: Some("b"),
            operands: vec![WireOperand::Parked("a")],
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
            park_as: Some("c"),
            operands: vec![WireOperand::Parked("a"), WireOperand::Parked("b")],
        },
    );
    submit(
        &mut server,
        session,
        4,
        &Request {
            op: OpCode::Fetch,
            step: 0,
            compress_reply: false,
            park_as: None,
            operands: vec![WireOperand::Parked("c")],
        },
    );

    let stream = server.queued_stream();
    assert_eq!(stream.len(), 4);
    let ops = &stream.ops;

    // fetch(inline) → "a": inline input, parked output with an id.
    assert_eq!(ops[0].kind, OpKind::Fetch);
    assert!(!ops[0].input_parked);
    assert!(ops[0].park_output);
    let a = ops[0].output_id;
    assert_ne!(a, 0);
    assert_eq!(ops[0].dep_indices().count(), 0);

    // rotate("a") → "b": parked input carries "a"'s id and a dep edge
    // on its writer.
    assert_eq!(ops[1].kind, OpKind::Rotate);
    assert!(ops[1].input_parked);
    assert_eq!(ops[1].input_id, a);
    assert_eq!(ops[1].dep_indices().collect::<Vec<_>>(), vec![0]);
    let b = ops[1].output_id;
    assert!(b != 0 && b != a);

    // add("a","b") → "c": depends on both writers.
    assert_eq!(ops[2].kind, OpKind::Add);
    assert!(ops[2].input_parked);
    let mut deps: Vec<usize> = ops[2].dep_indices().collect();
    deps.sort_unstable();
    assert_eq!(deps, vec![0, 1]);

    // fetch("c"): read-only tail, no parked output.
    assert_eq!(ops[3].kind, OpKind::Fetch);
    assert!(ops[3].input_parked);
    assert!(!ops[3].park_output);
    assert_eq!(ops[3].output_id, 0);
    assert_eq!(ops[3].dep_indices().collect::<Vec<_>>(), vec![2]);

    assert!(ops.iter().all(|op| op.session == session));

    // Inspection drained nothing; the same queue still flushes fully.
    assert_eq!(server.queue_depth(), 4);
    let plan = server.queued_plan();
    assert_eq!(plan.requests(), 4);
    assert_eq!(server.flush().len(), 4);
    assert_eq!(server.queue_depth(), 0);
}

#[test]
fn fanout_plan_fuses_same_input_rotations_only() {
    let c = ctx();
    let rig = client_rig(&c, 12);
    let other = client_rig(&c, 13);
    let mut server = HeaxServer::new(&c, Board::stratix10()).unwrap();
    let session = open_keyed(&mut server, &rig);
    let ct_bytes = serialize_ciphertext(&rig.ct);
    let other_bytes = serialize_ciphertext(&other.ct);

    // Three rotations of one ciphertext, then one of a different one.
    for (id, step) in [(1u64, 1i64), (2, 2), (3, -1)] {
        let frame = client::rotate(session, id, &ct_bytes, step);
        assert!(server.handle_frame(&frame).is_none());
    }
    let frame = client::rotate(session, 4, &other_bytes, 1);
    assert!(server.handle_frame(&frame).is_none());

    let plan = server.queued_plan();
    assert_eq!(plan.ops.len(), 2, "one hoisted group plus one singleton");
    assert_eq!(
        plan.ops[0].kind,
        OpKind::RotateMany {
            count: 3,
            parked_outputs: 0
        }
    );
    assert_eq!(plan.members[0], vec![0, 1, 2]);
    assert_eq!(plan.ops[1].kind, OpKind::Rotate);
    assert_eq!(plan.members[1], vec![3]);
    assert_eq!(plan.requests(), 4);
}

/// A fan-out's seeded input is decoded once at intake and recognized in
/// the lowering by identity; an equal input that intake did not see next
/// to its twin still fuses, by equality. Either way the plan and the
/// served bytes are those of the same requests carrying the full
/// encodings, which only ever fuse by equality.
#[test]
fn a_shared_seeded_fanout_plans_and_serves_as_equal_full_inputs_do() {
    let c = ctx();
    let rig = client_rig(&c, 14);
    let mut rng = StdRng::seed_from_u64(15);
    let sk = SecretKey::generate(&c, &mut rng);
    let enc = CkksEncoder::new(&c);
    let [fan, other] = [1.25, -0.5].map(|v| {
        let pt = enc
            .encode_real(&[v, 2.0 * v], c.params().scale(), c.max_level())
            .unwrap();
        encrypt_symmetric_seeded(&c, &sk, &pt, &mut rng).unwrap()
    });
    // Four rotations of one input, one of another, then the first again.
    let schedule = [
        (&fan, 1i64),
        (&fan, 2),
        (&fan, -1),
        (&fan, -2),
        (&other, 1),
        (&fan, 2),
    ];

    let mut served = Vec::new();
    for seeded in [true, false] {
        let mut server = HeaxServer::new(&c, Board::stratix10()).unwrap();
        let session = open_keyed(&mut server, &rig);
        for (id, (ct, step)) in schedule.iter().enumerate() {
            let bytes = if seeded {
                serialize_seeded_ciphertext(ct)
            } else {
                serialize_ciphertext(&ct.expand(&c).unwrap())
            };
            let frame = client::rotate(session, id as u64, &bytes, *step);
            assert!(server.handle_frame(&frame).is_none());
        }
        let plan = server.queued_plan();
        assert_eq!(plan.members, vec![vec![0, 1, 2, 3, 5], vec![4]]);
        assert!(plan.ops.iter().all(|op| op.input_seeded == seeded));
        let replies = server.flush();
        // Every upload is counted, but the four adjacent members of the
        // fan-out were decoded once: three decodings, against six.
        let decodings = if seeded { 3 } else { 6 };
        assert_eq!(server.stats().decoded_operands, decodings);
        assert_eq!(
            server.stats().seeded_operands,
            if seeded { schedule.len() as u64 } else { 0 }
        );
        served.push(replies);
    }
    assert_eq!(served[0], served[1]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Rotation fusion is order-insensitive: interleaving requests
    /// from different sessions within a flush yields the same hoisted
    /// groups (same per-session fan-outs) as submitting them sorted by
    /// session.
    #[test]
    fn fusion_is_order_insensitive_across_sessions(
        fanouts in prop::collection::vec(1usize..5, 2..4),
        seed in 0u64..1000,
    ) {
        let c = ctx();
        let rigs: Vec<Client> = (0..fanouts.len())
            .map(|i| client_rig(&c, seed.wrapping_add(i as u64)))
            .collect();

        // Two servers, sessions opened in the same order so ids match.
        let mut interleaved = HeaxServer::new(&c, Board::stratix10()).unwrap();
        let mut sorted = HeaxServer::new(&c, Board::stratix10()).unwrap();
        let mut sessions = Vec::new();
        for rig in &rigs {
            let a = open_keyed(&mut interleaved, rig);
            let b = open_keyed(&mut sorted, rig);
            prop_assert_eq!(a, b);
            sessions.push(a);
        }
        let cts: Vec<Vec<u8>> = rigs.iter().map(|r| serialize_ciphertext(&r.ct)).collect();

        // Round-robin interleaving across sessions...
        let mut id = 0u64;
        let mut left: Vec<usize> = fanouts.clone();
        while left.iter().any(|&n| n > 0) {
            for (i, n) in left.iter_mut().enumerate() {
                if *n > 0 {
                    *n -= 1;
                    id += 1;
                    let frame = client::rotate(sessions[i], id, &cts[i], 1);
                    prop_assert!(interleaved.handle_frame(&frame).is_none());
                }
            }
        }
        // ...versus strictly session-sorted submission.
        let mut id = 0u64;
        for (i, &n) in fanouts.iter().enumerate() {
            for _ in 0..n {
                id += 1;
                let frame = client::rotate(sessions[i], id, &cts[i], 1);
                prop_assert!(sorted.handle_frame(&frame).is_none());
            }
        }

        let shape_a = group_shape(&interleaved.queued_plan());
        let shape_b = group_shape(&sorted.queued_plan());
        prop_assert_eq!(&shape_a, &shape_b);
        // Every session contributes exactly one group of its fan-out.
        let mut want: Vec<(u64, usize)> = sessions
            .iter()
            .zip(&fanouts)
            .map(|(&s, &n)| (s, n))
            .collect();
        want.sort_unstable();
        prop_assert_eq!(shape_a, want);
    }
}
