//! The staged replay: a served workload's own requests pushed through
//! the server's public calls one stage at a time, in-process, so each
//! stage of the request path gets a number the live socket run can be
//! reconciled against. One span per stage per request, sharing the
//! request id.

use std::collections::BTreeMap;
use std::time::Instant;

use heax_hw::board::Board;
use heax_server::net::{FrameAssembler, KeyKind};
use heax_server::wire::{self, client, MessageKind};
use heax_server::{HeaxServer, SessionKeyLru};

use crate::gen::{self, Job, JobKind, Stream};
use crate::harness::{sequential, Outcome, Phase};
use crate::serve::Kind;
use crate::stats;
use crate::trace::Tracer;
use crate::traffic::{requests_of, Inputs};

/// Times each request class is replayed; stage times are medians.
const REPS: usize = 15;
/// Sessions the replay spreads its requests over.
const SESSIONS: usize = 4;
/// The live server reads its sockets in chunks of this size.
const READ_CHUNK: usize = 16 * 1024;

/// The request classes with distinct stage costs: `serve_add_seta`'s
/// Add, the fused and single rotations, and the chain's four steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Add,
    RotateFused,
    RotateSingle,
    ChainMultiply,
    ChainRescale,
    ChainRotate,
    ChainAdd,
}

const CHAIN: [Class; 4] = [
    Class::ChainMultiply,
    Class::ChainRescale,
    Class::ChainRotate,
    Class::ChainAdd,
];

/// Per-request stage times of one class, µs, one sample per request.
#[derive(Default)]
struct Samples {
    encode: Vec<f64>,
    assemble: Vec<f64>,
    decode: Vec<f64>,
    intake: Vec<f64>,
    flush: Vec<f64>,
    parse: Vec<f64>,
}

/// Median stage times of one class, µs per request.
#[derive(Clone, Copy, Debug, Default)]
struct Stages {
    encode: f64,
    assemble: f64,
    decode: f64,
    intake: f64,
    flush: f64,
    parse: f64,
}

/// Median stage times per request class.
pub struct StageTable(BTreeMap<Class, Stages>);

impl StageTable {
    fn of(&self, class: Class) -> Stages {
        self.0.get(&class).copied().unwrap_or_default()
    }

    /// Server-thread time per request the replay accounts for — frame
    /// assembly, intake (decode, deserialize, queue) and the request's
    /// share of its flush — for one request of a job of this kind.
    pub fn server_side_us(&self, kind: JobKind) -> f64 {
        let one = |c| {
            let s = self.of(c);
            s.assemble + s.intake + s.flush
        };
        match kind {
            JobKind::Add => one(Class::Add),
            JobKind::Fanout => one(Class::RotateFused),
            JobKind::Single => one(Class::RotateSingle),
            JobKind::Chain => CHAIN.into_iter().map(one).sum::<f64>() / CHAIN.len() as f64,
        }
    }
}

/// Runs `f` under a span; returns its result and duration in µs.
fn staged<T>(tr: &mut Tracer, name: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, f64) {
    tr.open(name, id);
    let t0 = Instant::now();
    let value = f();
    let us = t0.elapsed().as_secs_f64() * 1e6;
    tr.close();
    (value, us)
}

/// Replays each of the workload's job classes [`REPS`] times and
/// reports the `server.*` metrics of the request classes it serves;
/// returns the stage table for reconciling the live run.
pub fn run(
    kind: Kind,
    inputs: &Inputs,
    seed: u64,
    origin: Instant,
    out: &mut Outcome,
) -> StageTable {
    let mut tr = Tracer::new(true, origin);
    let mut server = HeaxServer::new(&inputs.keys.ctx, Board::stratix10())
        .expect("paper set")
        .with_executor(sequential());

    // Sessions, and (keyed workload) what registering one session's
    // keys costs.
    let mut sessions = Vec::with_capacity(SESSIONS);
    let mut register_us = Vec::with_capacity(SESSIONS);
    for _ in 0..SESSIONS {
        let opened = server
            .handle_frame(&client::open_session())
            .expect("open answers at once");
        let session = wire::decode_frame(&opened).expect("reply").session;
        sessions.push(session);
        if kind == Kind::Add {
            continue;
        }
        let relin = client::register_relin_key(session, &inputs.relin_bytes);
        let galois = client::register_galois_keys(session, &inputs.galois_bytes);
        let (_, us) = staged(&mut tr, "server.register_keys", session, || {
            for frame in [&relin, &galois] {
                let reply = server.handle_frame(frame).expect("registration answers");
                assert_eq!(
                    wire::decode_frame(&reply).map(|f| f.kind),
                    Ok(MessageKind::KeyRegistered)
                );
            }
        });
        register_us.push(us);
    }
    let job_kinds: &[JobKind] = match kind {
        Kind::Add => &[JobKind::Add],
        Kind::Mix => &[JobKind::Fanout, JobKind::Single, JobKind::Chain],
    };

    let mut samples: BTreeMap<Class, Samples> = BTreeMap::new();
    let mut sample_rng = gen::rng(seed, Stream::Sample);
    let mut next_id = 1u64;
    let mut phase = Phase {
        name: "replay",
        ..Phase::default()
    };
    let mut kept = Vec::new();
    // One assembler for the whole replay, as a connection keeps one.
    let mut asm = FrameAssembler::new();
    let (mut flush_wall_us, busy_before) = (0.0, busy_us(&server));
    for rep in 0..REPS {
        for &kind in job_kinds {
            let job = Job {
                kind,
                session: rep % SESSIONS,
                input: rep % gen::POOL,
                steps: gen::STEPS[rep % 5..rep % 5 + 4]
                    .try_into()
                    .expect("4 steps"),
            };
            // An Add "job" is one request; replay a batch of the live
            // run's pipeline depth so the flush is shared as it is there.
            let copies = if kind == JobKind::Add { 8 } else { 1 };
            let requests: Vec<_> = (0..copies)
                .flat_map(|_| requests_of(&job, inputs, &mut sample_rng))
                .collect();
            // A chain's steps flush one by one (each reads the parked
            // result of the one before); the other jobs flush as a batch.
            let group = if kind == JobKind::Chain {
                1
            } else {
                requests.len()
            };
            for (g, batch) in requests.chunks(group).enumerate() {
                let class = match kind {
                    JobKind::Add => Class::Add,
                    JobKind::Fanout => Class::RotateFused,
                    JobKind::Single => Class::RotateSingle,
                    JobKind::Chain => CHAIN[g],
                };
                let s = samples.entry(class).or_default();
                let first_id = next_id;
                for (request, _) in batch {
                    let id = next_id;
                    next_id += 1;
                    let session = sessions[job.session];
                    let (frame, us) = staged(&mut tr, "server.encode_request", id, || {
                        client::request(session, id, request)
                    });
                    s.encode.push(us);
                    let (assembled, us) = staged(&mut tr, "server.assemble", id, || {
                        for chunk in frame.chunks(READ_CHUNK) {
                            asm.push(chunk);
                        }
                        asm.next_frame()
                    });
                    s.assemble.push(us);
                    let assembled = assembled.expect("clean frame").expect("whole frame");
                    let (_, us) = staged(&mut tr, "server.decode", id, || {
                        let f = wire::decode_frame(&assembled).expect("frame");
                        std::hint::black_box(
                            wire::decode_request(f.payload, f.version).expect("body"),
                        );
                    });
                    s.decode.push(us);
                    let (queued, us) = staged(&mut tr, "server.intake", id, || {
                        server.handle_frame(&assembled)
                    });
                    s.intake.push(us);
                    assert!(queued.is_none(), "requests queue for the flush");
                }
                let (replies, us) = staged(&mut tr, "server.flush", first_id, || server.flush());
                flush_wall_us += us;
                s.flush
                    .extend(std::iter::repeat_n(us / batch.len() as f64, batch.len()));
                phase.sent += batch.len() as u64;
                for (reply, (_, expect)) in replies.iter().zip(batch) {
                    let (ok, us) = staged(&mut tr, "server.parse_reply", first_id, || {
                        let f = wire::decode_frame(reply).ok()?;
                        let body = wire::decode_reply(f.payload).ok()?;
                        expect.check(&body, inputs).ok()
                    });
                    s.parse.push(us);
                    match ok {
                        Some(sampled) => kept.extend(sampled),
                        None => phase.failed += 1,
                    }
                }
                phase.failed += (batch.len() - replies.len().min(batch.len())) as u64;
            }
        }
    }
    phase.failed += kept.iter().filter(|s| !s.verify(inputs)).count() as u64;
    phase.failed = phase.failed.min(phase.sent);
    phase.succeeded = phase.sent - phase.failed;
    let busy = busy_us(&server) - busy_before;

    let table = StageTable(
        samples
            .iter()
            .map(|(&class, s)| {
                (
                    class,
                    Stages {
                        encode: stats::median(&s.encode),
                        assemble: stats::median(&s.assemble),
                        decode: stats::median(&s.decode),
                        intake: stats::median(&s.intake),
                        flush: stats::median(&s.flush),
                        parse: stats::median(&s.parse),
                    },
                )
            })
            .collect(),
    );
    let m = &mut out.metrics;
    // The codec-bound stages are reported for the workload's largest
    // request frame (two full inline ciphertexts either way); intake and
    // flush per op.
    let largest = table.of(match kind {
        Kind::Add => Class::Add,
        Kind::Mix => Class::ChainMultiply,
    });
    m.set("server.encode_request_us", largest.encode);
    m.set("server.assemble_us", largest.assemble);
    m.set("server.decode_us", largest.decode);
    m.set("server.parse_reply_us", largest.parse);
    for (intake, flush, class) in [
        (
            Some("server.intake_us.add"),
            "server.flush_us_per_req.add",
            Class::Add,
        ),
        (
            None,
            "server.flush_us_per_req.rotate_fused",
            Class::RotateFused,
        ),
        (
            Some("server.intake_us.rotate"),
            "server.flush_us_per_req.rotate_single",
            Class::RotateSingle,
        ),
        (
            Some("server.intake_us.multiply_relin"),
            "server.flush_us_per_req.multiply_relin",
            Class::ChainMultiply,
        ),
        (None, "server.flush_us_per_req.rescale", Class::ChainRescale),
    ] {
        let Some(stages) = table.0.get(&class) else {
            continue;
        };
        if let Some(intake) = intake {
            m.set(intake, stages.intake);
        }
        m.set(flush, stages.flush);
    }
    if busy > 0.0 {
        m.set("server.flush_overhead_ratio", flush_wall_us / busy);
    }
    // (`server.op_busy_us_per_req`, `.batch_occupancy`, `.hoisted_groups`
    // and `.fused_ratio` come from the live server's `ServerStats`.)
    if kind == Kind::Mix {
        m.set("server.register_keys_us", stats::median(&register_us));
        key_cache(inputs, m);
    }
    out.phases.push(phase);
    out.spans.extend(tr.into_spans());
    table
}

/// Σ of the per-op `busy_us` counters.
fn busy_us(server: &HeaxServer<'_>) -> f64 {
    server.stats().per_op.iter().map(|(_, s)| s.busy_us).sum()
}

/// `SessionKeyLru` called directly: a budget of one session's keys, two
/// sessions taking turns, so every store and restore evicts the other.
fn key_cache(inputs: &Inputs, m: &mut crate::catalogue::Metrics) {
    let payload = &inputs.galois_bytes;
    let mut lru = SessionKeyLru::new(payload.len() as u64);
    let (mut store_us, mut restore_us) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        for session in [1u64, 2] {
            lru.remove(session);
            let t0 = Instant::now();
            lru.store(session, KeyKind::Galois, payload).expect("fits");
            store_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        // Storing 2 evicted 1; restoring 1 evicts 2, and so on.
        for session in [1u64, 2] {
            let t0 = Instant::now();
            let (_, payloads) = lru.restore(session).expect("fits");
            restore_us.push(t0.elapsed().as_secs_f64() * 1e6);
            assert_eq!(payloads.len(), 1, "an evicted session hands its keys back");
        }
    }
    m.set("server.lru_store_us", stats::median(&store_us));
    m.set("server.lru_restore_us", stats::median(&restore_us));
}
