//! What the four workloads share: run options, the outcome record, key
//! material, the decrypt oracle and the in-process measuring loop.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use heax_ckks::{
    Ciphertext, CkksContext, CkksEncoder, CkksParams, Decryptor, GaloisKeys, ParamSet, PublicKey,
    RelinKey, SecretKey,
};
use heax_math::exec::{Executor, Sequential};

use crate::catalogue::Metrics;
use crate::gen::{self, Stream};
use crate::json::Value;
use crate::proc;
use crate::stats;
use crate::trace::Span;

/// Largest slot error a decrypted served or evaluated result may show
/// against the plaintext model.
pub const TOLERANCE: f64 = 2e-2;

/// Options of one run.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    pub trace: bool,
    /// `--quick`: one set-up instead of the median of several.
    pub quick: bool,
}

impl Opts {
    /// How often set-up is repeated for the `setup_s` median.
    pub fn setup_reps(&self, full: usize) -> usize {
        if self.quick {
            1
        } else {
            full
        }
    }
}

/// Requests sent, verified and failed in one phase of a run.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    pub name: &'static str,
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
}

impl Phase {
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("name", Value::from(self.name)),
            ("sent", Value::from(self.sent as f64)),
            ("succeeded", Value::from(self.succeeded as f64)),
            ("failed", Value::from(self.failed as f64)),
        ])
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Per timing metric, the interquartile range of the same figure
    /// taken per epoch (or per set-up), as a share of its median.
    pub spreads: BTreeMap<&'static str, f64>,
    /// The per-epoch series behind each spread, for the result file.
    pub epochs: BTreeMap<&'static str, Vec<f64>>,
    pub phases: Vec<Phase>,
    /// Sample counts and similar facts for the human-readable report.
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.sent).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// `setup_s`: the median of the run's repeated set-ups.
    pub fn report_setup(&mut self, seconds: &[f64]) {
        self.metrics.set("setup_s", stats::median(seconds));
        self.spreads.insert("setup_s", stats::spread(seconds));
        self.epochs.insert("setup_s", seconds.to_vec());
    }
}

/// The single-threaded executor every end-to-end number is taken under,
/// whatever `HEAX_THREADS` says.
pub fn sequential() -> Arc<dyn Executor> {
    Arc::new(Sequential)
}

/// One client's context and keys.
#[derive(Debug)]
pub struct ClientKeys {
    pub ctx: CkksContext,
    pub sk: SecretKey,
    pub pk: PublicKey,
    pub rlk: RelinKey,
    pub gks: GaloisKeys,
}

impl ClientKeys {
    pub fn generate(set: ParamSet, seed: u64, steps: &[i64]) -> Self {
        let ctx = CkksContext::new(CkksParams::from_set(set).expect("built-in set"))
            .expect("built-in set");
        let mut rng = gen::rng(seed, Stream::Keys);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng);
        let rlk = RelinKey::generate(&ctx, &sk, &mut rng);
        let gks = GaloisKeys::generate(&ctx, &sk, steps, &mut rng);
        ClientKeys {
            ctx,
            sk,
            pk,
            rlk,
            gks,
        }
    }

    /// Whether `ct` decrypts to `want` within [`TOLERANCE`] on every slot.
    pub fn decrypts_to(&self, ct: &Ciphertext, want: &[f64]) -> bool {
        let Ok(pt) = Decryptor::new(&self.ctx, &self.sk).decrypt(ct) else {
            return false;
        };
        let Ok(got) = CkksEncoder::new(&self.ctx).decode_real(&pt) else {
            return false;
        };
        got.len() >= want.len() && got.iter().zip(want).all(|(g, w)| (g - w).abs() < TOLERANCE)
    }
}

/// Runs `setup` `reps` times; returns the last product and every
/// set-up's seconds.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Drop the previous product first, as a fresh process would not
        // hold it while setting up.
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one repetition"), times)
}

/// What one epoch of a measured window did.
#[derive(Clone, Copy, Debug)]
pub struct Epoch {
    /// Requests completed and verified in it.
    pub done: usize,
    pub wall_s: f64,
    /// CPU seconds of the thread that serves the requests.
    pub cpu_s: f64,
}

impl Epoch {
    fn rate(&self) -> f64 {
        self.done as f64 / self.wall_s.max(1e-9)
    }
}

/// The rate a window sustained: the median of its epochs' requests per
/// second.
pub fn sustained_rate(epochs: &[Epoch]) -> f64 {
    stats::median(&epochs.iter().map(Epoch::rate).collect::<Vec<_>>())
}

/// What the four timing metrics of an untraced run are computed from.
#[derive(Debug, Default)]
pub struct Timings {
    pub epochs: Vec<Epoch>,
    /// Latency of every verified request, ms, grouped by epoch.
    pub latencies_ms: Vec<Vec<f64>>,
}

impl Timings {
    pub fn rate(&self) -> f64 {
        sustained_rate(&self.epochs)
    }

    /// Latency samples, which in-process is calls made.
    pub fn samples(&self) -> usize {
        self.latencies_ms.iter().map(Vec::len).sum()
    }

    /// Sets the four metrics, each the median of the epochs' figures —
    /// except a percentile that a single epoch's samples do not support
    /// ([`stats::supports`]), which is taken over every sample of the
    /// window. Each metric's spread is the interquartile range of its
    /// per-epoch series.
    pub fn report(&self, out: &mut Outcome) {
        let all = self.latencies_ms.concat();
        let percentile = |p: f64| -> (f64, Vec<f64>) {
            let epochs: Vec<&Vec<f64>> =
                self.latencies_ms.iter().filter(|e| !e.is_empty()).collect();
            let series: Vec<f64> = epochs.iter().map(|e| stats::percentile(e, p)).collect();
            if epochs.iter().all(|e| stats::supports(e.len(), p)) {
                (stats::median(&series), series)
            } else {
                (stats::percentile(&all, p), series)
            }
        };
        let rates: Vec<f64> = self.epochs.iter().map(Epoch::rate).collect();
        let cpu: Vec<f64> = self
            .epochs
            .iter()
            .map(|e| e.cpu_s * 1e3 / e.done.max(1) as f64)
            .collect();
        let ((p50, p50s), (p99, p99s)) = (percentile(50.0), percentile(99.0));
        for (name, value, series) in [
            ("throughput_rps", stats::median(&rates), rates),
            ("cpu_ms_per_req", stats::median(&cpu), cpu),
            ("latency_p50_ms", p50, p50s),
            ("latency_p99_ms", p99, p99s),
        ] {
            out.metrics.set(name, value);
            out.spreads.insert(name, stats::spread(&series));
            out.epochs.insert(name, series);
        }
        let per_epoch = self.latencies_ms.iter().map(Vec::len).min().unwrap_or(0);
        out.notes.push(format!(
            "timings: median of {} epochs; {} latency samples, at least {per_epoch} per epoch; \
             p99 of all samples {:.3} ms with {} beyond it ({})",
            self.epochs.len(),
            all.len(),
            stats::percentile(&all, 99.0),
            stats::beyond(all.len(), 99.0),
            if stats::supports(per_epoch, 99.0) {
                "latency_p99_ms is the median of the epochs' p99s"
            } else if stats::supports(all.len(), 99.0) {
                "an epoch alone does not support a p99: latency_p99_ms is this one"
            } else {
                "fewer than 10 beyond: unsupported"
            }
        ));
    }
}

/// Calls `step` until `seconds` have passed (at least once), each call
/// answering `requests_per_call` requests, in [`stats::EPOCHS`] epochs.
pub fn measure(seconds: f64, requests_per_call: usize, mut step: impl FnMut(u64)) -> Timings {
    let clock = proc::ThreadClock::current();
    let epoch_s = seconds / stats::EPOCHS as f64;
    let t0 = Instant::now();
    let mut t = Timings::default();
    let (mut calls, mut from_s, mut from_cpu_s) = (0, 0.0, clock.cpu_s());
    let mut latencies_ms = Vec::new();
    loop {
        let start = t0.elapsed().as_secs_f64();
        step(calls);
        calls += 1;
        let end = t0.elapsed().as_secs_f64();
        latencies_ms.push((end - start) * 1e3);
        // An epoch ends with the first call to finish past its boundary.
        if end >= epoch_s * (t.epochs.len() + 1) as f64 || end >= seconds {
            let cpu_s = clock.cpu_s();
            t.epochs.push(Epoch {
                done: latencies_ms.len() * requests_per_call,
                wall_s: end - from_s,
                cpu_s: cpu_s - from_cpu_s,
            });
            t.latencies_ms.push(std::mem::take(&mut latencies_ms));
            (from_s, from_cpu_s) = (end, cpu_s);
            if end >= seconds {
                return t;
            }
        }
    }
}

/// FNV-1a over 64-bit words.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Hash of a ciphertext's level, scale and every residue word.
pub fn ciphertext_hash(ct: &Ciphertext) -> u64 {
    fnv1a(
        [ct.level() as u64, ct.scale().to_bits()].into_iter().chain(
            ct.components()
                .iter()
                .flat_map(|p| p.data().iter().copied()),
        ),
    )
}

/// Median duration of `f` in nanoseconds: 5 batches, each sized to take
/// about `budget_ms / 5`.
pub fn time_ns(budget_ms: f64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let per_batch = ((budget_ms / 5.0 / 1e3 / once) as usize).clamp(1, 1 << 24);
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t0.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    stats::median(&batches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_runs_at_least_one_call_and_counts_all() {
        let mut calls = 0;
        let t = measure(0.0, 1, |_| calls += 1);
        assert_eq!((calls, t.latencies_ms.concat().len()), (1, 1));
        let t = measure(0.05, 2, |_| {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let calls = t.latencies_ms.concat().len();
        assert!(calls >= 2);
        // Every call lies in exactly one epoch, and no epoch is empty.
        assert_eq!(t.epochs.iter().map(|e| e.done).sum::<usize>(), calls * 2);
        assert!(t.epochs.iter().all(|e| e.done > 0 && e.wall_s > 0.0));
        assert_eq!(t.epochs.len(), t.latencies_ms.len());
        assert!(t.epochs.len() <= stats::EPOCHS);
        // ~1 ms per call answering 2 requests: under 2000 requests/s.
        assert!(t.rate() > 0.0 && t.rate() < 2000.0);
        let mut out = Outcome::default();
        t.report(&mut out);
        let get = |name| out.metrics.get(name).unwrap();
        assert!(get("latency_p50_ms") >= 1.0 && get("latency_p99_ms") >= get("latency_p50_ms"));
        assert!(out.spreads.contains_key("cpu_ms_per_req"));
    }

    #[test]
    fn a_percentile_is_the_median_of_the_epochs_that_support_it() {
        // Five epochs of `n` samples 1..=n ms; the third also holds a
        // stall of 20 samples at 500 ms, which a median over epochs
        // forgives and a percentile over everything does not.
        let timings = |n: usize| Timings {
            epochs: vec![
                Epoch {
                    done: n,
                    wall_s: 1.0,
                    cpu_s: 0.5
                };
                5
            ],
            latencies_ms: (0..5)
                .map(|k| {
                    let stall = if k == 2 { 20 } else { 0 };
                    (1..=n)
                        .map(|i| i as f64)
                        .chain(std::iter::repeat_n(500.0, stall))
                        .collect()
                })
                .collect(),
        };
        let p99 = |n| {
            let mut out = Outcome::default();
            timings(n).report(&mut out);
            out.metrics.get("latency_p99_ms").unwrap()
        };
        // 2 000 samples an epoch leave 20 beyond its p99: per epoch.
        assert_eq!(p99(2000), 1980.0);
        // 100 an epoch leave 1: one p99 over all 520, stall included.
        assert_eq!(p99(100), 500.0);
    }

    #[test]
    fn repeat_setup_returns_the_last_product() {
        let mut n = 0;
        let (last, secs) = repeat_setup(3, || {
            n += 1;
            n
        });
        assert_eq!((last, secs.len()), (3, 3));
    }
}
