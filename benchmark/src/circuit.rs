//! `circuit_setb`: a Set-B evaluator circuit in-process, one thread —
//! the library user's view. No codec, no transport: at least 95% of the
//! wall time is key switching and NTTs.

use std::time::Instant;

use heax_ckks::{Ciphertext, CkksEncoder, Encryptor, Evaluator, ParamSet};

use crate::gen::{self, Stream};
use crate::harness::{
    self, ciphertext_hash, fnv1a, repeat_setup, sequential, ClientKeys, Opts, Outcome, Phase,
    Timings,
};
use crate::probes;
use crate::stats;
use crate::trace::{self, Span, Tracer};

/// Steps of the hoisted group that ends the circuit.
const FAN: [i64; 4] = [2, 4, 8, 16];
/// Unmeasured circuits run before the window opens.
const WARM_UP: usize = 20;

/// Keys, inputs and the evaluator of one run.
pub struct Bench {
    keys: ClientKeys,
    x: Ciphertext,
    y: Ciphertext,
    /// Plaintext model of each of the circuit's four outputs.
    want: Vec<Vec<f64>>,
}

impl Bench {
    pub fn new(seed: u64) -> Self {
        let steps: Vec<i64> = std::iter::once(1).chain(FAN).collect();
        let keys = ClientKeys::generate(ParamSet::SetB, seed, &steps);
        let enc = CkksEncoder::new(&keys.ctx);
        let vx = gen::input_vector(seed, 0, enc.slots());
        let vy = gen::input_vector(seed, 1, enc.slots());
        let mut rng = gen::rng(seed, Stream::Inputs);
        let mut encrypt = |v: &[f64]| {
            let pt = enc
                .encode_real(v, keys.ctx.params().scale(), keys.ctx.max_level())
                .expect("encode");
            Encryptor::new(&keys.ctx, &keys.pk)
                .encrypt(&pt, &mut rng)
                .expect("encrypt")
        };
        let (x, y) = (encrypt(&vx), encrypt(&vy));
        let r = gen::product(&vx, &vy);
        let a: Vec<f64> = gen::rotated(&r, 1)
            .iter()
            .zip(&r)
            .map(|(p, q)| p + q)
            .collect();
        let want = FAN.iter().map(|&s| gen::rotated(&a, s)).collect();
        Bench { keys, x, y, want }
    }

    fn evaluator(&self) -> Evaluator<'_> {
        Evaluator::with_executor(&self.keys.ctx, sequential())
    }

    /// One circuit: multiply_relin → rescale → rotate(1) → add →
    /// rotate_many(FAN), each evaluator call under its own span.
    fn circuit(&self, eval: &Evaluator<'_>, tr: &mut Tracer, id: u64) -> Vec<Ciphertext> {
        let k = &self.keys;
        tr.open("circuit", id);
        tr.open("ckks.multiply_relin", id);
        let m = eval
            .multiply_relin(&self.x, &self.y, &k.rlk)
            .expect("multiply_relin");
        tr.close();
        tr.open("ckks.rescale", id);
        let r = eval.rescale(&m).expect("rescale");
        tr.close();
        tr.open("ckks.rotate", id);
        let rot = eval.rotate(&r, 1, &k.gks).expect("rotate");
        tr.close();
        tr.open("ckks.add", id);
        let a = eval.add(&rot, &r).expect("add");
        tr.close();
        tr.open("ckks.rotate_many4", id);
        let out = eval.rotate_many(&a, &FAN, &k.gks).expect("rotate_many");
        tr.close();
        tr.close();
        out
    }

    fn matches_model(&self, outputs: &[Ciphertext]) -> bool {
        outputs.len() == self.want.len()
            && outputs
                .iter()
                .zip(&self.want)
                .all(|(ct, want)| self.keys.decrypts_to(ct, want))
    }

    /// Runs circuits for `seconds`; every output set must hash equal to
    /// the first, and the first and last are decrypt-checked.
    fn run(&self, seconds: f64, tr: &mut Tracer) -> (Timings, Phase) {
        let eval = self.evaluator();
        let mut first_hash = None;
        let mut mismatches = 0u64;
        let mut edge_outputs: Vec<Vec<Ciphertext>> = Vec::new();
        let mut last = Vec::new();
        let timings = harness::measure(seconds, 1, |i| {
            let outputs = self.circuit(&eval, tr, i + 1);
            let hash = fnv1a(outputs.iter().map(ciphertext_hash));
            if *first_hash.get_or_insert(hash) != hash {
                mismatches += 1;
            }
            if i == 0 {
                edge_outputs.push(outputs.clone());
            }
            last = outputs;
        });
        edge_outputs.push(last);
        mismatches += edge_outputs
            .iter()
            .filter(|o| !self.matches_model(o))
            .count() as u64;
        let sent = timings.samples() as u64;
        let failed = mismatches.min(sent);
        let phase = Phase {
            name: "circuits",
            sent,
            succeeded: sent - failed,
            failed,
        };
        (timings, phase)
    }
}

fn set_up(seed: u64) -> Bench {
    let bench = Bench::new(seed);
    let eval = bench.evaluator();
    let mut off = Tracer::new(false, Instant::now());
    for i in 0..WARM_UP {
        std::hint::black_box(bench.circuit(&eval, &mut off, i as u64));
    }
    bench
}

/// Median duration in µs of the spans with this name.
fn span_us(spans: &[Span], name: &str) -> f64 {
    stats::median(&trace::durations_ns(spans, name)) / 1e3
}

/// The `ckks.*` evaluator-op metrics from traced circuits.
fn op_metrics(spans: &[Span], out: &mut Outcome) {
    for (metric, span) in [
        ("ckks.multiply_relin_us", "ckks.multiply_relin"),
        ("ckks.rescale_us", "ckks.rescale"),
        ("ckks.rotate_us", "ckks.rotate"),
        ("ckks.rotate_many4_us", "ckks.rotate_many4"),
        ("ckks.add_us", "ckks.add"),
    ] {
        out.metrics.set(metric, span_us(spans, span));
    }
    let circuit_ns: f64 = trace::durations_ns(spans, "circuit").iter().sum();
    let self_ns = trace::self_total_ns(spans, "circuit") as f64;
    if circuit_ns > 0.0 {
        out.metrics
            .set("ckks.ops_share", 1.0 - self_ns / circuit_ns);
    }
    let many = span_us(spans, "ckks.rotate_many4");
    if many > 0.0 {
        out.metrics.set(
            "ckks.hoist_gain",
            4.0 * span_us(spans, "ckks.rotate") / many,
        );
    }
}

pub fn run(opts: &Opts, origin: Instant) -> Outcome {
    let mut out = Outcome::default();
    let (bench, setups) = repeat_setup(opts.setup_reps(3), || set_up(opts.seed));
    if opts.trace {
        let mut off = Tracer::new(false, origin);
        let (plain, _) = bench.run(opts.seconds / 8.0, &mut off);
        let mut tr = Tracer::new(true, origin);
        let (traced, phase) = bench.run(opts.seconds / 4.0, &mut tr);
        traced.report(&mut out);
        op_metrics(tr.spans(), &mut out);
        out.metrics
            .set("trace.overhead_ratio", traced.rate() / plain.rate());
        out.metrics.set(
            "trace.coverage",
            out.metrics.get("ckks.ops_share").unwrap_or(0.0),
        );
        // The layers under the circuit: the kernels it spends its time
        // in, and how the board model prices the same ops.
        probes::math(&bench.keys.ctx, opts.seed, &mut out.metrics);
        probes::key_switch(&bench.keys, &bench.x, &mut out.metrics);
        probes::relative_costs(&mut out.metrics);
        out.phases.push(phase);
        out.spans = tr.into_spans();
    } else {
        let mut off = Tracer::new(false, origin);
        let (timings, phase) = bench.run(opts.seconds, &mut off);
        timings.report(&mut out);
        out.phases.push(phase);
        out.report_setup(&setups);
    }
    out
}
