//! Property tests for the served path: random chained and fan-out op
//! streams served by an unmodeled [`HeaxServer`] must produce results
//! identical (chains) or decrypt-identical (hoisted fan-outs) to direct
//! [`Evaluator`] execution. The server has no model and no fault input,
//! so these are its whole correctness contract.
//!
//! `a_served_flush_prices_offline_as_the_in_server_model_did` pins the
//! other half of taking the models out of the server: the plan a flush
//! executes, priced offline on `heax_hw`, reports what the in-server
//! board and cluster models did before they were deleted.

use heax_ckks::serialize::{
    deserialize_ciphertext, serialize_ciphertext, serialize_galois_keys, serialize_relin_key,
    serialize_seeded_ciphertext,
};
use heax_ckks::{
    encrypt_symmetric_seeded, Ciphertext, CkksContext, CkksEncoder, Decryptor, Encryptor,
    Evaluator, GaloisKeys, PublicKey, RelinKey, SecretKey,
};
use heax_hw::cluster::RoutingPolicy;
use heax_hw::faults::FaultPlan;
use heax_hw::ir::FusedStream;
use heax_server::wire::client::{self, Reply};
use heax_server::wire::{OpCode, Request, WireOperand};
use heax_server::HeaxServer;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::{ctx, system};

/// Board core counts a served plan is priced at.
const CORES: [usize; 3] = [1, 2, 4];

/// Cluster shapes (boards × cores per board) a served plan is priced at.
const CLUSTERS: [(usize, usize); 4] = [(1, 1), (1, 4), (2, 1), (2, 4)];

/// Rotation steps the test Galois keys cover.
const STEPS: [i64; 4] = [1, 2, -1, -2];

struct Rig {
    sk: SecretKey,
    rlk: RelinKey,
    gks: GaloisKeys,
    ct: Ciphertext,
}

fn rig(ctx: &CkksContext, seed: u64) -> Rig {
    let mut rng = StdRng::seed_from_u64(seed);
    let sk = SecretKey::generate(ctx, &mut rng);
    let pk = PublicKey::generate(ctx, &sk, &mut rng);
    let rlk = RelinKey::generate(ctx, &sk, &mut rng);
    let gks = GaloisKeys::generate(ctx, &sk, &STEPS, &mut rng);
    let enc = CkksEncoder::new(ctx);
    let vals: Vec<f64> = (0..ctx.n() / 2)
        .map(|i| (i as f64) * 0.05 - 0.6 + seed as f64 * 0.01)
        .collect();
    let ct = Encryptor::new(ctx, &pk)
        .encrypt(
            &enc.encode_real(&vals, ctx.params().scale(), ctx.max_level())
                .unwrap(),
            &mut rng,
        )
        .unwrap();
    Rig { sk, rlk, gks, ct }
}

fn decrypt(ctx: &CkksContext, sk: &SecretKey, ct: &Ciphertext) -> Vec<f64> {
    let enc = CkksEncoder::new(ctx);
    enc.decode_real(&Decryptor::new(ctx, sk).decrypt(ct).unwrap())
        .unwrap()
}

/// Opens a session on `server` and registers the rig's keys into it.
fn register_session(server: &mut HeaxServer<'_>, r: &Rig) -> u64 {
    let reply = server.handle_frame(&client::open_session()).unwrap();
    let (session, _, _) = client::parse_reply(&reply).unwrap();
    for frame in [
        client::register_relin_key(session, &serialize_relin_key(&r.rlk)),
        client::register_galois_keys(session, &serialize_galois_keys(&r.gks)),
    ] {
        let (_, _, reply) = client::parse_reply(&server.handle_frame(&frame).unwrap()).unwrap();
        assert_eq!(reply, Reply::KeyRegistered);
    }
    session
}

/// Submits one chained stream (each op reads the parked intermediate
/// and re-parks it, closed by a wire-returned fetch) to `server`,
/// returning the number of requests queued.
fn submit_chain(
    server: &mut HeaxServer<'_>,
    session: u64,
    ct_bytes: &[u8],
    ops: &[StreamOp],
) -> u64 {
    let acc = |op, step| Request {
        op,
        step,
        compress_reply: false,
        park_as: Some("acc"),
        operands: vec![WireOperand::Parked("acc")],
    };
    let mut reqs = vec![Request {
        operands: vec![WireOperand::Inline(ct_bytes)],
        ..acc(OpCode::Fetch, 0)
    }];
    for op in ops {
        match *op {
            StreamOp::Rotate(step) => reqs.push(acc(OpCode::Rotate, step)),
            StreamOp::Add => reqs.push(Request {
                operands: vec![WireOperand::Parked("acc"); 2],
                ..acc(OpCode::Add, 0)
            }),
            StreamOp::SquareRescale => {
                reqs.extend([acc(OpCode::SquareRelin, 0), acc(OpCode::Rescale, 0)]);
            }
        }
    }
    reqs.push(Request {
        park_as: None,
        ..acc(OpCode::Fetch, 0)
    });
    for (i, req) in reqs.iter().enumerate() {
        let frame = client::request(session, (session << 32) + i as u64 + 1, req);
        assert!(server.handle_frame(&frame).is_none());
    }
    reqs.len() as u64
}

/// One step of a random chained op stream.
#[derive(Clone, Copy, Debug)]
enum StreamOp {
    Rotate(i64),
    Add,
    /// Square-relinearize then rescale (burns one level; capped at the
    /// chain depth by the generator).
    SquareRescale,
}

fn arb_stream() -> impl Strategy<Value = Vec<StreamOp>> {
    let choices = vec![
        StreamOp::Rotate(1),
        StreamOp::Rotate(2),
        StreamOp::Rotate(-1),
        StreamOp::Rotate(-2),
        StreamOp::Add,
        StreamOp::SquareRescale,
    ];
    prop::collection::vec(prop::sample::select(choices), 1..7).prop_map(|mut ops| {
        // The 4-prime chain affords two rescales; demote extras.
        let mut budget = 2;
        for op in ops.iter_mut() {
            if matches!(op, StreamOp::SquareRescale) {
                if budget == 0 {
                    *op = StreamOp::Rotate(1);
                } else {
                    budget -= 1;
                }
            }
        }
        ops
    })
}

/// The three fixed workloads whose served plans
/// `a_served_flush_prices_offline_as_the_in_server_model_did` prices.
#[derive(Clone, Copy, Debug)]
enum Workload {
    /// One session's parked chain: `Rotate 1, Add, SquareRescale,
    /// Rotate -2`, between an inline park and a wire-returned fetch.
    Chain,
    /// Four rotations of one inline ciphertext: one hoisted group.
    Fanout,
    /// Two sessions mixing seeded operands, `compress_reply`, a parked
    /// product and a fused seeded fan-out.
    Mix,
}

/// Four figures of one board or cluster schedule.
type Price = [u64; 4];

/// Board `[total_cycles, core_busy, requests, fifo_high_water]` at
/// [`CORES`] and cluster `[total_cycles, routing_hits, routing_misses,
/// replication_bytes]` at [`CLUSTERS`] (affinity with stealing, no
/// faults): what the in-server board and cluster models reported in
/// the server's stats for these very flushes, captured at the commit
/// before they were deleted.
const IN_SERVER_PRICES: [(Workload, [Price; 3], [Price; 4]); 3] = [
    (
        Workload::Chain,
        [[4054, 936, 7, 1]; 3],
        [[8789, 2, 1, 12288]; 4],
    ),
    (
        Workload::Fanout,
        [[6942, 648, 4, 1]; 3],
        [[11677, 0, 1, 12288]; 4],
    ),
    (
        Workload::Mix,
        [[11205, 960, 7, 2], [10893, 960, 7, 2], [10893, 960, 7, 1]],
        [
            [20675, 0, 2, 24576],
            [20363, 0, 2, 24576],
            [12510, 0, 2, 24576],
            [12510, 0, 2, 24576],
        ],
    ),
];

/// A request over inline operands.
fn inline<'a>(
    op: OpCode,
    step: i64,
    compress_reply: bool,
    park_as: Option<&'a str>,
    cts: &[&'a [u8]],
) -> Request<'a> {
    Request {
        op,
        step,
        compress_reply,
        park_as,
        operands: cts.iter().map(|&ct| WireOperand::Inline(ct)).collect(),
    }
}

/// Opens two keyed sessions, submits `w`, and flushes it. Returns the
/// plan `queued_plan()` showed just before the flush; every reply must
/// be a result, not an error.
fn serve_workload(
    server: &mut HeaxServer<'_>,
    c: &CkksContext,
    r: &Rig,
    w: Workload,
) -> FusedStream {
    let sa = register_session(server, r);
    let sb = register_session(server, r);
    let full = serialize_ciphertext(&r.ct);
    let mut rng = StdRng::seed_from_u64(41);
    let enc = CkksEncoder::new(c);
    let [seeded_a, seeded_b] = [0.75, -1.5].map(|v| {
        let pt = enc
            .encode_real(&[v, 2.0 * v], c.params().scale(), c.max_level())
            .unwrap();
        serialize_seeded_ciphertext(&encrypt_symmetric_seeded(c, &r.sk, &pt, &mut rng).unwrap())
    });
    let (a, b, f) = (&seeded_a[..], &seeded_b[..], &full[..]);
    let requests: Vec<(u64, Request<'_>)> = match w {
        Workload::Chain => {
            use StreamOp::{Add, Rotate, SquareRescale};
            let ops = [Rotate(1), Add, SquareRescale, Rotate(-2)];
            submit_chain(server, sa, f, &ops);
            Vec::new()
        }
        Workload::Fanout => [1, 2, -1, -2]
            .map(|step| (sa, inline(OpCode::Rotate, step, false, None, &[f])))
            .into(),
        Workload::Mix => vec![
            (sa, inline(OpCode::Add, 0, true, None, &[a, f])),
            (sb, inline(OpCode::Rotate, 1, true, None, &[b])),
            (sb, inline(OpCode::Rotate, 2, true, None, &[b])),
            (
                sa,
                inline(OpCode::MultiplyRelin, 0, false, Some("p"), &[f, a]),
            ),
            (
                sa,
                Request {
                    operands: vec![WireOperand::Parked("p")],
                    ..inline(OpCode::Rescale, 0, true, None, &[])
                },
            ),
            (sb, inline(OpCode::Add, 0, false, None, &[f, f])),
            (sa, inline(OpCode::Add, 0, true, None, &[a, a])),
        ],
    };
    for (id, (session, req)) in requests.iter().enumerate() {
        let frame = client::request(*session, id as u64 + 1, req);
        assert!(server.handle_frame(&frame).is_none());
    }
    let plan = server.queued_plan();
    for reply in server.flush() {
        let (_, _, body) = client::parse_reply(&reply).unwrap();
        assert!(!matches!(body, Reply::Error { .. }), "{w:?}: {body:?}");
    }
    plan
}

/// The in-server board and cluster models are gone, and nothing they
/// priced is lost: the plan `queued_plan()` returns before a flush,
/// priced offline on `heax_hw`, equals what those models reported for
/// the same flush.
#[test]
fn a_served_flush_prices_offline_as_the_in_server_model_did() {
    let c = ctx();
    let r = rig(&c, 5);
    for (w, board, cluster) in IN_SERVER_PRICES {
        let mut server = HeaxServer::with_system(&c, system(&c));
        let plan = serve_workload(&mut server, &c, &r, w);
        let accel = server.system().accelerator();
        for (k, want) in CORES.into_iter().zip(board) {
            let rep = accel
                .pipeline_config(k)
                .unwrap()
                .schedule_stream(&plan.ops)
                .unwrap();
            let got = [
                rep.total_cycles,
                rep.core_busy(),
                rep.requests(),
                rep.fifo_high_water,
            ];
            assert_eq!(got, want, "{w:?} on one board of {k} core(s)");
        }
        for ((b, k), want) in CLUSTERS.into_iter().zip(cluster) {
            let rep = accel
                .cluster_config(b, k)
                .unwrap()
                .schedule_stream_faulted(
                    &plan.ops,
                    RoutingPolicy::Affinity { steal: true },
                    &FaultPlan::none(),
                )
                .unwrap();
            let got = [
                rep.total_cycles,
                rep.routing_hits,
                rep.routing_misses,
                rep.replication_bytes,
            ];
            assert_eq!(got, want, "{w:?} on {b} board(s) x {k} core(s)");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A chained stream (each op reads the parked intermediate and
    /// re-parks it) served in one flush is bit-identical to the
    /// evaluator applying the same ops.
    #[test]
    fn modeled_chain_matches_evaluator(ops in arb_stream(), seed in 0u64..1000) {
        let c = ctx();
        let r = rig(&c, seed);
        let eval = Evaluator::new(&c);

        // Golden chain through the evaluator.
        let mut want = deserialize_ciphertext(&serialize_ciphertext(&r.ct), &c).unwrap();
        for op in &ops {
            want = match op {
                StreamOp::Rotate(step) => eval.rotate(&want, *step, &r.gks).unwrap(),
                StreamOp::Add => eval.add(&want, &want).unwrap(),
                StreamOp::SquareRescale => {
                    let sq = eval.multiply_relin(&want, &want, &r.rlk).unwrap();
                    eval.rescale(&sq).unwrap()
                }
            };
        }

        let mut server = HeaxServer::with_system(&c, system(&c));
        let session = register_session(&mut server, &r);
        let requests = submit_chain(&mut server, session, &serialize_ciphertext(&r.ct), &ops);
        prop_assert_eq!(server.queued_plan().requests(), requests);
        let replies = server.flush();
        let (_, _, last) = client::parse_reply(replies.last().unwrap()).unwrap();
        let Reply::Ciphertext(bytes) = last else {
            panic!("chain must end in a ciphertext reply, got {last:?}");
        };
        prop_assert_eq!(&deserialize_ciphertext(&bytes, &c).unwrap(), &want);
    }

    /// A fan-out stream (every rotation reads the same input, so the
    /// batch fuses them into one hoisted group) decrypts to the same
    /// values as sequential evaluator rotations (hoisting is
    /// decrypt-equal, not bit-equal).
    #[test]
    fn modeled_fanout_matches_evaluator(
        steps in prop::collection::vec(prop::sample::select(STEPS.to_vec()), 2..6),
        seed in 0u64..1000,
    ) {
        let c = ctx();
        let r = rig(&c, seed);
        let eval = Evaluator::new(&c);
        let want: Vec<Vec<f64>> = steps
            .iter()
            .map(|&s| decrypt(&c, &r.sk, &eval.rotate(&r.ct, s, &r.gks).unwrap()))
            .collect();

        let mut server = HeaxServer::with_system(&c, system(&c));
        let session = register_session(&mut server, &r);
        let ct_bytes = serialize_ciphertext(&r.ct);
        for (i, &step) in steps.iter().enumerate() {
            let frame = client::rotate(session, i as u64 + 1, &ct_bytes, step);
            assert!(server.handle_frame(&frame).is_none());
        }
        // Identical inputs fuse into one hoisted group: one rotate-many op.
        prop_assert_eq!(server.queued_plan().ops.len(), 1);
        let replies = server.flush();
        prop_assert_eq!(replies.len(), steps.len());
        for (reply, want_vals) in replies.iter().zip(&want) {
            let (_, _, body) = client::parse_reply(reply).unwrap();
            let Reply::Ciphertext(bytes) = body else {
                panic!("expected ciphertext reply, got {body:?}");
            };
            let got = decrypt(&c, &r.sk, &deserialize_ciphertext(&bytes, &c).unwrap());
            for (g, w) in got.iter().zip(want_vals).take(16) {
                prop_assert!((g - w).abs() < 2e-2, "{} vs {}", g, w);
            }
        }
        prop_assert_eq!(server.stats().hoisted_groups, 1);
    }
}
