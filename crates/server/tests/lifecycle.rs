//! The session lifecycle, checked exhaustively at small scope.
//!
//! An [`Engine`] decides admission and key residency with no socket, so
//! every sequence of frames can be run in process. This suite runs all
//! of them up to depth 4 over two sessions, on the 64-coefficient test
//! ring, with a key cache that holds one session's keys: the small-scope
//! hypothesis (Jackson, *Software Abstractions*) is that most
//! state-machine bugs show at small depth. After every step it compares
//! the engine with two oracles:
//!
//! * a reference model of a few dozen lines (`Model`): per session, the
//!   keys registered, the name parked, open or closed, and the budget
//!   arithmetic, which predicts each reply's kind and error code, each
//!   session's residency, and the evictions the server bills;
//! * an unbudgeted [`HeaxServer`] fed the same frames, less the ones the
//!   engine shed, whose replies must be the engine's byte for byte —
//!   residency must be invisible to a client.
//!
//! A failure prints the shortest failing sequence.

use heax_ckks::serialize::{serialize_ciphertext, serialize_galois_keys, serialize_relin_key};
use heax_ckks::{encrypt_symmetric, CkksContext, CkksEncoder, GaloisKeys, RelinKey, SecretKey};
use heax_hw::board::Board;
use heax_server::server::ReplySink;
use heax_server::wire::client::{self, Reply};
use heax_server::wire::{
    self, MessageKind, OpCode, Request, WireOperand, FRAME_HEADER_LEN, WIRE_VERSION,
};
use heax_server::{Engine, ErrorCode, HeaxServer, NetConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;

/// Steps per sequence; each sequence ends with one more, implicit, flush.
const DEPTH: usize = 4;

/// Requests the engine admits into its queue: small enough that a
/// sequence of this depth meets the bound.
const MAX_QUEUE_DEPTH: usize = 2;

/// What a client does to one of its sessions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Act {
    RegisterRelin,
    RegisterGalois,
    /// Rotate its ciphertext by one slot (needs the Galois key).
    Rotate,
    /// Square its ciphertext (needs the relinearization key).
    Multiply,
    /// Park its ciphertext under the session's one name.
    Park,
    /// Fetch what the session parked.
    UseParked,
    Close,
}

const ACTS: [Act; 7] = [
    Act::RegisterRelin,
    Act::RegisterGalois,
    Act::Rotate,
    Act::Multiply,
    Act::Park,
    Act::UseParked,
    Act::Close,
];

/// One step of a sequence: an act on session 0 or 1, or a flush.
#[derive(Clone, Copy, Debug)]
enum Step {
    On(usize, Act),
    Flush,
}

/// The 15 steps: 2 sessions × 7 acts, and a flush.
fn alphabet() -> Vec<Step> {
    let acts = (0..2).flat_map(|s| ACTS.map(|a| Step::On(s, a)));
    acts.chain([Step::Flush]).collect()
}

/// What a reply is, as the model predicts it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Registered,
    Closed,
    Ciphertext,
    Parked,
    Error(ErrorCode),
}

fn kind(reply: &[u8]) -> Kind {
    match client::parse_reply(reply)
        .expect("the engine frames its replies")
        .2
    {
        Reply::KeyRegistered => Kind::Registered,
        Reply::SessionClosed => Kind::Closed,
        Reply::Ciphertext(_) => Kind::Ciphertext,
        Reply::Parked(_) => Kind::Parked,
        Reply::Error { code, .. } => Kind::Error(code),
        Reply::SessionOpened => unreachable!("no step opens a session"),
    }
}

/// One session, as the model sees it.
#[derive(Clone, Copy, Debug, Default)]
struct Sess {
    open: bool,
    /// Keys registered, relin then Galois — resident or evicted.
    keys: [bool; 2],
    parked: bool,
    resident: bool,
}

/// The reference model of the lifecycle.
struct Model {
    s: [Sess; 2],
    queue: Vec<(usize, Act)>,
    /// Serialized bytes of a relin key and of a Galois key set.
    sizes: [u64; 2],
    budget: u64,
    evictions: u64,
}

impl Model {
    /// What a session holding `keys` is billed.
    fn bill(&self, keys: [bool; 2]) -> u64 {
        (0..2).filter(|&k| keys[k]).map(|k| self.sizes[k]).sum()
    }

    /// Makes session `i` resident at `need` bytes, evicting the other
    /// session if it must and may: only while nothing of it is queued.
    fn charge(&mut self, i: usize, need: u64) -> bool {
        let o = 1 - i;
        let other = if self.s[o].resident {
            self.bill(self.s[o].keys)
        } else {
            0
        };
        if need > self.budget {
            return false;
        }
        if other + need > self.budget {
            if self.queue.iter().any(|&(j, _)| j == o) {
                return false;
            }
            self.s[o].resident = false;
            self.evictions += 1;
        }
        self.s[i].resident = true;
        true
    }

    /// Brings an evicted session's keys back, if it has any.
    fn restore(&mut self, i: usize) -> bool {
        let s = self.s[i];
        !s.open || s.resident || s.keys == [false; 2] || self.charge(i, self.bill(s.keys))
    }

    /// The replies a step gets, in order.
    fn step(&mut self, step: Step) -> Vec<Kind> {
        let Step::On(i, act) = step else {
            let queue = std::mem::take(&mut self.queue);
            return queue.into_iter().map(|(i, a)| self.execute(i, a)).collect();
        };
        let shed = Kind::Error(ErrorCode::LoadShed);
        let unknown = Kind::Error(ErrorCode::UnknownSession);
        let reply = match act {
            Act::Close if !self.s[i].open => unknown,
            Act::Close => {
                self.s[i] = Sess::default();
                Kind::Closed
            }
            Act::RegisterRelin | Act::RegisterGalois => {
                let k = usize::from(act == Act::RegisterGalois);
                let mut keys = self.s[i].keys;
                keys[k] = true;
                if !self.s[i].open {
                    unknown
                } else if !self.restore(i) || !self.charge(i, self.bill(keys)) {
                    shed
                } else {
                    self.s[i].keys[k] = true;
                    Kind::Registered
                }
            }
            _ if self.queue.len() >= MAX_QUEUE_DEPTH => shed,
            _ if !self.s[i].open => unknown,
            _ if !self.restore(i) => shed,
            _ => {
                self.queue.push((i, act));
                return vec![];
            }
        };
        vec![reply]
    }

    /// A queued request's reply, at its turn in the flush.
    fn execute(&mut self, i: usize, act: Act) -> Kind {
        let s = &mut self.s[i];
        let missing = Kind::Error(ErrorCode::MissingKey);
        match act {
            _ if !s.open => Kind::Error(ErrorCode::UnknownSession),
            Act::Rotate if !s.keys[1] => missing,
            Act::Multiply if !s.keys[0] => missing,
            Act::UseParked if !s.parked => Kind::Error(ErrorCode::UnknownHandle),
            Act::Park => {
                s.parked = true;
                Kind::Parked
            }
            _ => Kind::Ciphertext,
        }
    }
}

/// Every reply into a buffer of its own.
#[derive(Default)]
struct Replies(Vec<Vec<u8>>);

impl ReplySink for Replies {
    fn buffer_for(&mut self, _: usize, len: usize) -> Option<&mut Vec<u8>> {
        self.0.push(Vec::with_capacity(len));
        self.0.last_mut()
    }
}

/// Two clients' keys and ciphertexts, serialized, and the frames of
/// every act on sessions 1 and 2 (the ids a fresh server hands out).
struct Fixture {
    ctx: CkksContext,
    sizes: [u64; 2],
    frames: [[Vec<u8>; 7]; 2],
}

impl Fixture {
    fn new() -> Self {
        let ctx = common::ctx();
        let frames = [0usize, 1].map(|i| {
            let mut rng = StdRng::seed_from_u64(40 + i as u64);
            let sk = SecretKey::generate(&ctx, &mut rng);
            let rlk = serialize_relin_key(&RelinKey::generate(&ctx, &sk, &mut rng));
            let gks = serialize_galois_keys(&GaloisKeys::generate(&ctx, &sk, &[1], &mut rng));
            let pt = CkksEncoder::new(&ctx).encode_real(&[1.0, 2.0], ctx.params().scale(), 2);
            let ct = encrypt_symmetric(&ctx, &sk, &pt.unwrap(), &mut rng).unwrap();
            let ct = serialize_ciphertext(&ct);
            let session = i as u64 + 1;
            let request = |op, park_as, operands| {
                let req = Request {
                    op,
                    step: 0,
                    compress_reply: false,
                    park_as,
                    operands,
                };
                client::request(session, 0, &req)
            };
            let inline = || WireOperand::Inline(&ct);
            ACTS.map(|act| match act {
                Act::RegisterRelin => client::register_relin_key(session, &rlk),
                Act::RegisterGalois => client::register_galois_keys(session, &gks),
                Act::Rotate => client::rotate(session, 0, &ct, 1),
                Act::Multiply => request(OpCode::MultiplyRelin, None, vec![inline(), inline()]),
                Act::Park => request(OpCode::Fetch, Some("p"), vec![inline()]),
                Act::UseParked => request(OpCode::Fetch, None, vec![WireOperand::Parked("p")]),
                Act::Close => client::close_session(session),
            })
        });
        let payload = |i: usize, act: Act| frames[i][act as usize].len() - FRAME_HEADER_LEN;
        let sizes = [Act::RegisterRelin, Act::RegisterGalois].map(|a| payload(0, a) as u64);
        assert_eq!(
            sizes,
            [Act::RegisterRelin, Act::RegisterGalois].map(|a| payload(1, a) as u64)
        );
        Fixture { ctx, sizes, frames }
    }

    /// A fresh engine (cache budget: one session's keys) and mirror, each
    /// with sessions 1 and 2 open.
    fn start(&self) -> (Engine<'_>, HeaxServer<'_>, Model) {
        let budget = self.sizes.iter().sum();
        let config = NetConfig {
            key_cache_budget: budget,
            max_queue_depth: MAX_QUEUE_DEPTH,
            ..NetConfig::default()
        };
        let server = || HeaxServer::new(&self.ctx, Board::stratix10()).unwrap();
        let mut engine = Engine::new(server(), &config);
        let mut mirror = server();
        for session in [1, 2] {
            let mut opened = Replies::default();
            assert!(!engine.handle(&client::open_session(), &mut opened));
            let mirrored = mirror.handle_frame(&client::open_session()).unwrap();
            assert_eq!(client::parse_reply(&opened.0[0]).unwrap().0, session);
            assert_eq!(client::parse_reply(&mirrored).unwrap().0, session);
        }
        let model = Model {
            s: [Sess {
                open: true,
                ..Sess::default()
            }; 2],
            queue: Vec::new(),
            sizes: self.sizes,
            budget,
            evictions: 0,
        };
        (engine, mirror, model)
    }

    /// Runs `steps` and then a flush; on the first divergence, its step
    /// index and what diverged.
    fn run(&self, steps: &[Step]) -> Result<(), (usize, String)> {
        let (mut engine, mut mirror, mut model) = self.start();
        let flush = [Step::Flush];
        for (at, &step) in steps.iter().chain(&flush).enumerate() {
            let fail = |what: String| Err((at, what));
            let expect = model.step(step);
            // What the engine sheds never reaches the mirror.
            let shed = expect == [Kind::Error(ErrorCode::LoadShed)];
            let mut got = Replies::default();
            let mirrored = match step {
                Step::On(i, act) => {
                    let frame = &self.frames[i][act as usize];
                    let queued = engine.handle(frame, &mut got);
                    if queued != expect.is_empty() {
                        return fail(format!("queued: {queued}, model: {expect:?}"));
                    }
                    let mirrored = (!shed).then(|| mirror.handle_frame(frame));
                    mirrored.flatten().into_iter().collect()
                }
                Step::Flush => {
                    engine.flush_into(&mut got);
                    mirror.flush()
                }
            };
            let kinds: Vec<Kind> = got.0.iter().map(|r| kind(r)).collect();
            if kinds != expect {
                return fail(format!("replies {kinds:?}, model {expect:?}"));
            }
            if !shed && got.0 != mirrored {
                return fail("replies differ from the unbudgeted server's".into());
            }
            let resident = [1, 2].map(|s| engine.key_cache().is_resident(s));
            let modeled = model.s.map(|s| s.resident);
            if resident != modeled {
                return fail(format!("resident {resident:?}, model {modeled:?}"));
            }
            let evictions = engine.server().stats().key_evictions;
            if evictions != model.evictions {
                let modeled = model.evictions;
                return fail(format!("{evictions} key evictions, model {modeled}"));
            }
        }
        Ok(())
    }
}

fn describe(step: Step) -> String {
    match step {
        Step::On(i, act) => format!("session {}: {act:?}", ["A", "B"][i]),
        Step::Flush => "flush".into(),
    }
}

/// Every sequence of up to [`DEPTH`] steps over the 15-step alphabet —
/// each shorter one is a prefix of a longer one, and every prefix is
/// checked — agrees with the model and the mirror.
#[test]
fn every_lifecycle_sequence_to_depth_4_matches_the_model() {
    let fixture = Fixture::new();
    let alphabet = alphabet();
    // The shortest failing prefix so far: (its last step's index, its
    // steps, what diverged there).
    let mut shortest: Option<(usize, Vec<Step>, String)> = None;
    let mut seq = vec![Step::Flush; DEPTH];
    for index in 0..alphabet.len().pow(DEPTH as u32) {
        let mut rest = index;
        for step in seq.iter_mut().rev() {
            *step = alphabet[rest % alphabet.len()];
            rest /= alphabet.len();
        }
        if let Err((at, what)) = fixture.run(&seq) {
            if shortest.as_ref().is_none_or(|&(first, ..)| at < first) {
                shortest = Some((at, seq.iter().copied().take(at + 1).collect(), what));
            }
        }
    }
    if let Some((at, steps, what)) = shortest {
        let listed: Vec<String> = steps.iter().map(|&s| describe(s)).collect();
        let then = if at == DEPTH {
            ", then the implicit flush"
        } else {
            ""
        };
        panic!(
            "shortest failing sequence, depth {}: {}{then}\n  at its last step: {what}",
            steps.len(),
            listed.join(", ")
        );
    }
}

/// Error frames carry the decoders' text to clients: the engine answers a
/// truncated and an over-long request body in the shared reader's words.
#[test]
fn malformed_bodies_are_answered_in_the_readers_words() {
    let fixture = Fixture::new();
    let (mut engine, _, _) = fixture.start();
    let mut replies = Replies::default();
    let body = &fixture.frames[0][Act::UseParked as usize][FRAME_HEADER_LEN..];
    let long = [body, &[0]].concat();
    for (body, text) in [
        (&body[..body.len() - 1], "malformed message: truncated"),
        (&long[..], "malformed message: trailing bytes"),
    ] {
        let frame = wire::encode_frame(WIRE_VERSION, MessageKind::Request, 1, 0, body);
        assert!(!engine.handle(&frame, &mut replies), "answered, not queued");
        let (_, _, reply) = client::parse_reply(&replies.0.pop().unwrap()).unwrap();
        let (code, message) = (ErrorCode::Malformed, text.to_string());
        assert_eq!(reply, Reply::Error { code, message });
    }
}

/// A request in the queue protects its session's keys: another session
/// that needs the room is shed until the flush answers the request.
#[test]
fn a_queued_request_protects_its_sessions_keys() {
    let fixture = Fixture::new();
    let (mut engine, _, _) = fixture.start();
    let mut replies = Replies::default();
    let steps = [
        (0, Act::RegisterGalois),
        (0, Act::Rotate),
        (1, Act::RegisterGalois),
    ];
    for (i, act) in steps {
        let queued = engine.handle(&fixture.frames[i][act as usize], &mut replies);
        assert_eq!(queued, act == Act::Rotate);
    }
    let shed = replies.0.pop().unwrap();
    assert_eq!(
        kind(&shed),
        Kind::Error(ErrorCode::LoadShed),
        "B's key would evict A's"
    );
    assert!(engine.key_cache().is_resident(1) && !engine.key_cache().is_resident(2));
    engine.flush_into(&mut replies);
    assert_eq!(kind(&replies.0.pop().unwrap()), Kind::Ciphertext);
    // Answered, A is idle: B's registration now evicts it.
    engine.handle(
        &fixture.frames[1][Act::RegisterGalois as usize],
        &mut replies,
    );
    assert_eq!(kind(&replies.0.pop().unwrap()), Kind::Registered);
    assert!(!engine.key_cache().is_resident(1) && engine.key_cache().is_resident(2));
}
