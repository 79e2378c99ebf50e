//! Committed hashes of seeded ciphertext bytes, so "same behaviour" holds
//! across versions and not only between two paths of one build.
//!
//! Every other byte-identity suite compares two paths of the same build:
//! served vs in-process, accelerator vs evaluator, lanes vs scalar. A
//! change that alters the evaluator's bits but still decrypts (rounding
//! instead of flooring, say) moves both sides and passes them all. Here
//! the bits are compared with a committed list, `golden_bytes.txt`: the
//! FNV-1a hash of every serialized key, input and output of
//!
//! * the `circuit_setb` circuit — `multiply_relin` → `rescale` →
//!   `rotate(1)` → `add` → `rotate_many([2, 4, 8, 16])` — and
//! * one 16-request block shaped like `serve_mix_seta`'s mix, through
//!   `Engine::handle`/`flush_into`: a fan-out of 8 compressed rotations,
//!   4 single rotations and one parked chain (multiply, rescale, rotate,
//!   add), every reply frame hashed,
//!
//! both on the 64-coefficient test ring with a seeded `StdRng` (vendored,
//! so the stream is the tree's own). The circuit runs on the default
//! executor and the server on its default one, so a run under
//! `HEAX_THREADS` pins the limb pool to the same bits. The circuit runs a
//! second time on the accelerator's evaluator, every transform (the
//! rescale's floor included) through the simulated NTT modules, against
//! the same committed `circuit.*` hashes.
//!
//! A failure lists each changed hash. If the change is meant, regenerate
//! the list with
//! `cargo test -q --test golden_bytes -- --ignored regenerate_golden_bytes`
//! and say in the change why the bits moved.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Barrier};

use heax::accel::HeaxAccelerator;
use heax::ckks::keyswitch::NttBackend;
use heax::ckks::serialize::{
    serialize_ciphertext, serialize_galois_keys, serialize_relin_key, serialize_seeded_ciphertext,
};
use heax::ckks::{
    encrypt_symmetric_seeded, Ciphertext, CkksContext, CkksEncoder, CkksParams, Encryptor,
    Evaluator, GaloisKeys, PublicKey, RelinKey, SecretKey,
};
use heax::exec::Sequential;
use heax::hw::board::Board;
use heax::hw::keyswitch_pipeline::KeySwitchArch;
use heax::hw::mult_dataflow::MultModuleConfig;
use heax::hw::ntt_dataflow::NttModuleConfig;
use heax::server::server::ReplySink;
use heax::server::wire::client::{self, Reply};
use heax::server::wire::{OpCode, Request, WireOperand};
use heax::server::{Engine, HeaxServer, NetConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The committed list: one `name hash` line per hashed byte string.
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_bytes.txt");

/// The one command that rewrites [`GOLDEN`] from this build.
const REGENERATE: &str = "cargo test -q --test golden_bytes -- --ignored regenerate_golden_bytes";

/// Steps of the hoisted group that ends the circuit.
const FAN: [i64; 4] = [2, 4, 8, 16];

/// Steps of the served fan-out, one compressed rotation each.
const FANOUT: [i64; 8] = [1, 2, 4, 8, 16, -1, -2, -4];

/// Steps of the four single rotations, of inputs 0..4 in turn.
const SINGLES: [i64; 4] = [2, 8, -1, 16];

/// Step of the parked chain's rotation.
const CHAIN_STEP: i64 = 4;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The server suites' ring: 64 coefficients over a 4-prime chain.
fn ring() -> CkksContext {
    let chain = heax::math::primes::generate_prime_chain(&[40, 40, 40, 41], 64).unwrap();
    CkksContext::new(CkksParams::new(64, chain, (1u64 << 32) as f64).unwrap()).unwrap()
}

/// Keys and inputs, all drawn from one seeded stream.
struct Rig {
    ctx: CkksContext,
    rlk: RelinKey,
    gks: GaloisKeys,
    /// The circuit's operands, public-key encryptions.
    a: Ciphertext,
    b: Ciphertext,
    /// The served block's inputs, symmetric seeded encryptions: whole…
    full: Vec<Vec<u8>>,
    /// …and seeded (the uniform half as its 32-byte seed).
    seeded: Vec<Vec<u8>>,
}

impl Rig {
    fn new() -> Self {
        let ctx = ring();
        let mut rng = StdRng::seed_from_u64(0x601D_B17E);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng);
        let rlk = RelinKey::generate(&ctx, &sk, &mut rng);
        let mut steps = vec![1];
        steps.extend(FAN.iter().chain(&FANOUT).chain(&SINGLES));
        steps.sort_unstable();
        steps.dedup();
        let gks = GaloisKeys::generate(&ctx, &sk, &steps, &mut rng);
        let enc = CkksEncoder::new(&ctx);
        let (scale, top) = (ctx.params().scale(), ctx.max_level());
        let slots = |seed: f64| -> Vec<f64> {
            (0..enc.slots())
                .map(|i| ((i as f64 + seed) * 0.37).sin() * 2.0)
                .collect()
        };
        let public = Encryptor::new(&ctx, &pk);
        let mut encrypt = |seed| {
            let pt = enc.encode_real(&slots(seed), scale, top).unwrap();
            public.encrypt(&pt, &mut rng).unwrap()
        };
        let (a, b) = (encrypt(1.0), encrypt(2.0));
        let (mut full, mut seeded) = (Vec::new(), Vec::new());
        for i in 0..4 {
            let pt = enc.encode_real(&slots(3.0 + i as f64), scale, top).unwrap();
            let s = encrypt_symmetric_seeded(&ctx, &sk, &pt, &mut rng).unwrap();
            full.push(serialize_ciphertext(&s.expand(&ctx).unwrap()));
            seeded.push(serialize_seeded_ciphertext(&s));
        }
        Rig {
            ctx,
            rlk,
            gks,
            a,
            b,
            full,
            seeded,
        }
    }

    /// The `circuit_setb` circuit on `ev`: every output, serialized.
    fn circuit<B: NttBackend>(&self, ev: &Evaluator<'_, B>) -> Vec<(String, Vec<u8>)> {
        let m = ev.multiply_relin(&self.a, &self.b, &self.rlk).unwrap();
        let s = ev.rescale(&m).unwrap();
        let r = ev.rotate(&s, 1, &self.gks).unwrap();
        let t = ev.add(&r, &s).unwrap();
        let fan = ev.rotate_many(&t, &FAN, &self.gks).unwrap();
        let mut out = vec![
            ("circuit.multiply_relin".to_string(), &m),
            ("circuit.rescale".to_string(), &s),
            ("circuit.rotate_1".to_string(), &r),
            ("circuit.add".to_string(), &t),
        ];
        out.extend(
            FAN.iter()
                .zip(&fan)
                .map(|(step, ct)| (format!("circuit.rotate_many_{step}"), ct)),
        );
        out.into_iter()
            .map(|(name, ct)| (name, serialize_ciphertext(ct)))
            .collect()
    }

    /// The 16 requests of the served block, named, in queue order.
    fn block(&self, session: u64) -> Vec<(String, Vec<u8>)> {
        let request = |op, step, compress_reply, park_as, operands| Request {
            op,
            step,
            compress_reply,
            park_as,
            operands,
        };
        let parked = |name| WireOperand::Parked(name);
        let mut reqs = Vec::new();
        for step in FANOUT {
            let r = request(
                OpCode::Rotate,
                step,
                true,
                None,
                vec![WireOperand::Inline(&self.seeded[0])],
            );
            reqs.push((format!("fanout_{step}"), r));
        }
        for (i, step) in SINGLES.into_iter().enumerate() {
            let operands = vec![WireOperand::Inline(&self.full[i][..])];
            let r = request(OpCode::Rotate, step, false, None, operands);
            reqs.push((format!("single_{step}"), r));
        }
        let (a, b) = (&self.full[2][..], &self.full[3][..]);
        let both = vec![WireOperand::Inline(a), WireOperand::Inline(b)];
        reqs.extend([
            (
                "chain_multiply_relin".to_string(),
                request(OpCode::MultiplyRelin, 0, false, Some("m"), both),
            ),
            (
                "chain_rescale".to_string(),
                request(OpCode::Rescale, 0, false, Some("r"), vec![parked("m")]),
            ),
            (
                "chain_rotate".to_string(),
                request(
                    OpCode::Rotate,
                    CHAIN_STEP,
                    false,
                    Some("t"),
                    vec![parked("r")],
                ),
            ),
            (
                "chain_add".to_string(),
                request(OpCode::Add, 0, false, None, vec![parked("t"), parked("t")]),
            ),
        ]);
        reqs.into_iter()
            .enumerate()
            .map(|(i, (name, r))| (name, client::request(session, i as u64, &r)))
            .collect()
    }

    /// Every reply frame of the served block, named by its request.
    fn served(&self) -> Vec<(String, Vec<u8>)> {
        let server = HeaxServer::new(&self.ctx, Board::stratix10()).unwrap();
        let mut engine = Engine::new(server, &NetConfig::default());
        let mut control = Frames::default();
        assert!(!engine.handle(&client::open_session(), &mut control));
        let session = client::parse_reply(&control.0[0]).unwrap().0;
        let relin = serialize_relin_key(&self.rlk);
        let galois = serialize_galois_keys(&self.gks);
        for frame in [
            client::register_relin_key(session, &relin),
            client::register_galois_keys(session, &galois),
        ] {
            control.0.clear();
            assert!(!engine.handle(&frame, &mut control));
            let reply = client::parse_reply(&control.0[0]).unwrap().2;
            assert_eq!(reply, Reply::KeyRegistered);
        }
        let block = self.block(session);
        for (_, frame) in &block {
            assert!(engine.handle(frame, &mut Frames::default()), "queued");
        }
        let mut replies = Frames::default();
        assert_eq!(engine.flush_into(&mut replies), block.len());
        assert_eq!(replies.0.len(), block.len());
        block
            .into_iter()
            .zip(replies.0)
            .enumerate()
            .map(|(i, ((name, _), frame))| {
                let reply = client::parse_reply(&frame).unwrap().2;
                assert!(
                    matches!(reply, Reply::Ciphertext(_) | Reply::Parked(_)),
                    "{name}: {reply:?}"
                );
                (format!("served.{i:02}.{name}"), frame)
            })
            .collect()
    }

    /// The hash of every byte string this suite pins, by name.
    fn hashes(&self) -> BTreeMap<String, u64> {
        let ev = Evaluator::new(&self.ctx);
        let mut named = vec![
            ("keys.relin".to_string(), serialize_relin_key(&self.rlk)),
            ("keys.galois".to_string(), serialize_galois_keys(&self.gks)),
            ("input.a".to_string(), serialize_ciphertext(&self.a)),
            ("input.b".to_string(), serialize_ciphertext(&self.b)),
        ];
        for (i, (full, seeded)) in self.full.iter().zip(&self.seeded).enumerate() {
            named.push((format!("input.full_{i}"), full.clone()));
            named.push((format!("input.seeded_{i}"), seeded.clone()));
        }
        named.extend(self.circuit(&ev));
        named.extend(self.served());
        named
            .into_iter()
            .map(|(name, bytes)| (name, fnv1a(&bytes)))
            .collect()
    }
}

/// Replies by queue position; control answers land at the position of
/// the next request to be queued.
#[derive(Default)]
struct Frames(Vec<Vec<u8>>);

impl ReplySink for Frames {
    fn buffer_for(&mut self, position: usize, _: usize) -> Option<&mut Vec<u8>> {
        if self.0.len() <= position {
            self.0.resize(position + 1, Vec::new());
        }
        self.0.get_mut(position)
    }
}

fn render(hashes: &BTreeMap<String, u64>) -> String {
    hashes
        .iter()
        .map(|(name, h)| format!("{name} {h:016x}\n"))
        .collect()
}

/// The committed hashes whose names start with `prefix`, by name.
fn committed(prefix: &str) -> BTreeMap<String, u64> {
    let text = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    text.lines()
        .filter_map(|line| {
            let (name, hash) = line.split_once(' ')?;
            let hash = u64::from_str_radix(hash, 16).ok()?;
            name.starts_with(prefix).then(|| (name.to_string(), hash))
        })
        .collect()
}

/// Fails listing every hash of `now` that differs from `committed`.
fn assert_unchanged(committed: &BTreeMap<String, u64>, now: &BTreeMap<String, u64>) {
    let names: BTreeSet<&String> = committed.keys().chain(now.keys()).collect();
    let changed: Vec<_> = names
        .into_iter()
        .map(|name| (name, committed.get(name), now.get(name)))
        .filter(|(_, was, is)| was != is)
        .collect();
    let show = |h: Option<&u64>| h.map_or("(none)".to_string(), |h| format!("{h:016x}"));
    let report: String = changed
        .iter()
        .map(|(name, was, is)| format!("  {name}: committed {}, now {}\n", show(*was), show(*is)))
        .collect();
    assert!(
        changed.is_empty(),
        "{} of {} hashes differ from {GOLDEN}:\n{report}If the change is meant, regenerate \
         the list with `{REGENERATE}` and say why the bits moved.",
        changed.len(),
        committed.len().max(now.len()),
    );
}

#[test]
fn ciphertext_bytes_match_the_committed_hashes() {
    assert_unchanged(&committed(""), &Rig::new().hashes());
}

/// The accelerator's evaluator, every transform through the simulated
/// modules (rescale's floor included), lands on the committed circuit
/// hashes too.
#[test]
fn the_accelerator_circuit_matches_the_committed_hashes() {
    let rig = Rig::new();
    let arch = KeySwitchArch {
        n: 64,
        k: 3,
        nc_intt0: 4,
        m0: 2,
        nc_ntt0: 4,
        num_dyad: 3,
        nc_dyad: 4,
        nc_intt1: 2,
        nc_ntt1: 4,
        nc_ms: 2,
    };
    let accel = HeaxAccelerator::with_arch(
        &rig.ctx,
        Board::stratix10(),
        arch,
        NttModuleConfig::new(64, 4).unwrap(),
        MultModuleConfig::new(64, 8).unwrap(),
    )
    .unwrap();
    let now = rig.circuit(accel.evaluator());
    let now = now.into_iter().map(|(name, bytes)| (name, fnv1a(&bytes)));
    let committed = committed("circuit.");
    assert_eq!(committed.len(), 4 + FAN.len());
    assert_unchanged(&committed, &now.collect());
}

#[test]
fn one_evaluator_runs_two_circuits_at_once() {
    // The evaluator holds no workspace: two threads share it by `&` and
    // each key switch takes its buffers from its own thread's recycler.
    // Both threads start every circuit together, at a barrier.
    let rig = Rig::new();
    let ev = Evaluator::with_executor(&rig.ctx, Arc::new(Sequential));
    let alone = rig.circuit(&ev);
    let start = Barrier::new(2);
    let run = || {
        (0..4)
            .map(|_| {
                start.wait();
                rig.circuit(&ev)
            })
            .collect::<Vec<_>>()
    };
    let (x, y) = std::thread::scope(|s| {
        let x = s.spawn(run);
        let y = s.spawn(run);
        (x.join().unwrap(), y.join().unwrap())
    });
    for outputs in x.iter().chain(&y) {
        assert_eq!(outputs, &alone);
    }
}

#[test]
#[ignore = "rewrites tests/golden_bytes.txt from this build"]
fn regenerate_golden_bytes() {
    std::fs::write(GOLDEN, render(&Rig::new().hashes())).unwrap();
}
