//! The served workloads' inputs and requests: the encrypted input pool,
//! the wire requests each job class makes, and what a correct reply to
//! each looks like. Shared by the live socket run and the staged replay
//! so both send byte-identical requests.

use heax_ckks::serialize::{
    deserialize_ciphertext, serialize_ciphertext, serialize_galois_keys, serialize_relin_key,
    serialize_seeded_ciphertext, serialized_ciphertext_bytes,
};
use heax_ckks::{encrypt_symmetric_seeded, CkksEncoder, Evaluator, ParamSet};
use heax_server::wire::{OpCode, ReplyBody, Request, WireOperand};
use rand::rngs::StdRng;
use rand::Rng;

use crate::gen::{self, Job, JobKind, JobMix, Stream, POOL, STEPS};
use crate::harness::{sequential, ClientKeys};

/// One in this many ciphertext replies is kept and decrypt-checked.
const SAMPLE_ONE_IN: u32 = 16;

/// Encoding scale of the pool inputs. Above Set-A's default 2^30 so the
/// chain's result — rescaled to level 0 by a 36-bit prime — keeps 2^30
/// of scale and decrypts well inside the oracle's tolerance; small
/// enough that a doubled product still fits that one prime.
const SCALE: f64 = (1u64 << 33) as f64;

/// Handles a chain job parks its intermediates under.
const PARK_PRODUCT: &str = "m";
const PARK_RESCALED: &str = "r";
const PARK_ROTATED: &str = "t";

/// The client side of a Set-A serving run: keys and the input pool.
pub struct Inputs {
    pub keys: ClientKeys,
    /// Serialized key registrations, the same for every session.
    pub relin_bytes: Vec<u8>,
    pub galois_bytes: Vec<u8>,
    /// Slot values of each pool input.
    vectors: Vec<Vec<f64>>,
    /// Each pool input as a full serialized ciphertext…
    pub full: Vec<Vec<u8>>,
    /// …and as a seeded one (same encryption, about half the bytes).
    pub seeded: Vec<Vec<u8>>,
    /// The one correct reply body to `full[0] + full[0]`.
    add_body: Vec<u8>,
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        let keys = ClientKeys::generate(ParamSet::SetA, seed, &STEPS);
        let enc = CkksEncoder::new(&keys.ctx);
        let mut rng = gen::rng(seed, Stream::Inputs);
        let mut vectors = Vec::with_capacity(POOL);
        let mut full = Vec::with_capacity(POOL);
        let mut seeded = Vec::with_capacity(POOL);
        let mut first = None;
        for i in 0..POOL {
            let v = gen::input_vector(seed, i, enc.slots());
            let pt = enc
                .encode_real(&v, SCALE, keys.ctx.max_level())
                .expect("encode");
            let s = encrypt_symmetric_seeded(&keys.ctx, &keys.sk, &pt, &mut rng).expect("encrypt");
            let ct = s.expand(&keys.ctx).expect("expand");
            seeded.push(serialize_seeded_ciphertext(&s));
            full.push(serialize_ciphertext(&ct));
            vectors.push(v);
            first.get_or_insert(ct);
        }
        let first = first.expect("pool is not empty");
        let sum = Evaluator::with_executor(&keys.ctx, sequential())
            .add(&first, &first)
            .expect("add");
        Inputs {
            relin_bytes: serialize_relin_key(&keys.rlk),
            galois_bytes: serialize_galois_keys(&keys.gks),
            keys,
            vectors,
            full,
            seeded,
            add_body: serialize_ciphertext(&sum),
        }
    }

    fn ct_len(&self, limbs: usize) -> usize {
        serialized_ciphertext_bytes(self.keys.ctx.n(), limbs, 2)
    }
}

/// The plaintext a sampled reply must decrypt to:
/// `factor · rot(a [· b], step)`.
#[derive(Clone, Debug)]
pub struct Model {
    a: usize,
    b: Option<usize>,
    step: i64,
    factor: f64,
}

/// What a correct reply to one request is.
#[derive(Clone, Debug)]
pub enum Expect {
    /// The result was parked under this name.
    Parked(&'static str),
    /// Byte-equal to the precomputed `ct + ct` body.
    AddBody,
    /// A ciphertext of exactly this many bytes; sampled replies are
    /// also decrypted against the model.
    Ciphertext {
        len: usize,
        model: Model,
        sampled: bool,
    },
}

/// A reply kept for the decrypt check after the phase.
pub struct Sampled {
    bytes: Vec<u8>,
    model: Model,
}

impl Expect {
    /// Checks a decoded reply body. `Ok(Some(_))` hands back a sampled
    /// reply to decrypt-check once the phase is over.
    pub fn check(&self, reply: &ReplyBody<'_>, inputs: &Inputs) -> Result<Option<Sampled>, ()> {
        match (self, reply) {
            (Expect::Parked(want), ReplyBody::Parked(got)) if want == got => Ok(None),
            (Expect::AddBody, ReplyBody::Ciphertext(b)) if *b == &inputs.add_body[..] => Ok(None),
            (
                Expect::Ciphertext {
                    len,
                    model,
                    sampled,
                },
                ReplyBody::Ciphertext(b),
            ) if b.len() == *len => Ok(sampled.then(|| Sampled {
                bytes: b.to_vec(),
                model: model.clone(),
            })),
            _ => Err(()),
        }
    }
}

impl Sampled {
    /// Whether the kept reply decrypts to its model.
    pub fn verify(&self, inputs: &Inputs) -> bool {
        let Ok(ct) = deserialize_ciphertext(&self.bytes, &inputs.keys.ctx) else {
            return false;
        };
        let m = &self.model;
        let base = match m.b {
            Some(b) => gen::product(&inputs.vectors[m.a], &inputs.vectors[b]),
            None => inputs.vectors[m.a].clone(),
        };
        let want: Vec<f64> = gen::rotated(&base, m.step)
            .iter()
            .map(|v| v * m.factor)
            .collect();
        inputs.keys.decrypts_to(&ct, &want)
    }
}

fn rotate<'a>(bytes: &'a [u8], step: i64, compress_reply: bool) -> Request<'a> {
    Request {
        op: OpCode::Rotate,
        step,
        compress_reply,
        park_as: None,
        operands: vec![WireOperand::Inline(bytes)],
    }
}

fn parked<'a>(
    op: OpCode,
    step: i64,
    operands: Vec<WireOperand<'a>>,
    park_as: Option<&'a str>,
) -> Request<'a> {
    Request {
        op,
        step,
        compress_reply: false,
        park_as,
        operands,
    }
}

/// The wire requests of one job, in send order, each with what its
/// reply must be. `sample` draws which ciphertext replies get the
/// decrypt check.
pub fn requests_of<'a>(
    job: &Job,
    inputs: &'a Inputs,
    sample: &mut StdRng,
) -> Vec<(Request<'a>, Expect)> {
    let mut ciphertext = |limbs, a, b, step, factor| Expect::Ciphertext {
        len: inputs.ct_len(limbs),
        model: Model { a, b, step, factor },
        sampled: sample.gen_range(0..SAMPLE_ONE_IN) == 0,
    };
    match job.kind {
        JobKind::Fanout => STEPS
            .iter()
            .map(|&step| {
                (
                    rotate(&inputs.seeded[job.input], step, true),
                    ciphertext(1, job.input, None, step, 1.0),
                )
            })
            .collect(),
        JobKind::Single => job
            .steps
            .iter()
            .enumerate()
            .map(|(i, &step)| {
                let input = (job.input + i) % POOL;
                (
                    rotate(&inputs.full[input], step, false),
                    ciphertext(2, input, None, step, 1.0),
                )
            })
            .collect(),
        JobKind::Chain => {
            let (a, b) = (job.input, (job.input + 1) % POOL);
            let step = job.steps[0];
            vec![
                (
                    parked(
                        OpCode::MultiplyRelin,
                        0,
                        vec![
                            WireOperand::Inline(&inputs.full[a]),
                            WireOperand::Inline(&inputs.full[b]),
                        ],
                        Some(PARK_PRODUCT),
                    ),
                    Expect::Parked(PARK_PRODUCT),
                ),
                (
                    parked(
                        OpCode::Rescale,
                        0,
                        vec![WireOperand::Parked(PARK_PRODUCT)],
                        Some(PARK_RESCALED),
                    ),
                    Expect::Parked(PARK_RESCALED),
                ),
                (
                    parked(
                        OpCode::Rotate,
                        step,
                        vec![WireOperand::Parked(PARK_RESCALED)],
                        Some(PARK_ROTATED),
                    ),
                    Expect::Parked(PARK_ROTATED),
                ),
                (
                    parked(
                        OpCode::Add,
                        0,
                        vec![
                            WireOperand::Parked(PARK_ROTATED),
                            WireOperand::Parked(PARK_ROTATED),
                        ],
                        None,
                    ),
                    ciphertext(1, a, Some(b), step, 2.0),
                ),
            ]
        }
        JobKind::Add => vec![(
            parked(
                OpCode::Add,
                0,
                vec![
                    WireOperand::Inline(&inputs.full[0]),
                    WireOperand::Inline(&inputs.full[0]),
                ],
                None,
            ),
            Expect::AddBody,
        )],
    }
}

/// The seeded job source of a serving workload.
pub enum Traffic {
    /// `serve_mix_seta`: the 50/25/25 fan-out/single/chain mix.
    Mix(JobMix),
    /// `serve_add_seta`: every job one Add, sessions taken in turn.
    Add { sessions: usize, next: usize },
}

impl Traffic {
    pub fn next_job(&mut self) -> Job {
        match self {
            Traffic::Mix(mix) => mix.next_job(),
            Traffic::Add { sessions, next } => {
                *next += 1;
                Job {
                    kind: JobKind::Add,
                    session: (*next - 1) % *sessions,
                    input: 0,
                    steps: [0; 4],
                }
            }
        }
    }
}
