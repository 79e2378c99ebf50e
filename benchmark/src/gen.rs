//! Seeded input generation: the job mix, arrival schedules and the
//! plaintext model the served results are checked against. Everything
//! here is a pure function of `--seed`; the product code only ever sees
//! the generated frames and op streams.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rotation steps every session holds Galois keys for.
pub const STEPS: [i64; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// Distinct input vectors (and so distinct ciphertexts) in the pool.
pub const POOL: usize = 8;

/// Independent random streams drawn from one `--seed`.
#[derive(Clone, Copy, Debug)]
pub enum Stream {
    Keys = 1,
    Inputs = 2,
    Mix = 3,
    Arrivals = 4,
    Faults = 5,
    Sample = 6,
}

pub fn rng(seed: u64, stream: Stream) -> StdRng {
    StdRng::seed_from_u64(seed ^ (stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The job classes of the serving workloads: the three of the mix, and
/// `serve_add_seta`'s one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum JobKind {
    /// 8 rotations of one seeded inline input, one per step in
    /// [`STEPS`], compressed replies: fusable into one hoisted group.
    Fanout,
    /// 4 rotations of 4 different full inline inputs: unfusable.
    Single,
    /// multiply_relin(park) → rescale(park) → rotate(park) → add, each
    /// step reading the previous one's parked result.
    Chain,
    /// One Add of two full inline ciphertexts, full reply.
    Add,
}

impl JobKind {
    /// Wire requests (and replies) one job of this class makes.
    pub fn requests(self) -> usize {
        match self {
            JobKind::Fanout => 8,
            JobKind::Single | JobKind::Chain => 4,
            JobKind::Add => 1,
        }
    }
}

/// One generated job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Job {
    pub kind: JobKind,
    /// Index into the session table.
    pub session: usize,
    /// Pool index of the first input; `Single` uses `input..input+4`,
    /// `Chain` multiplies `input` by `input+1` (both modulo [`POOL`]).
    pub input: usize,
    /// `Single`: the step of each rotation; `Chain`: `steps[0]`.
    pub steps: [i64; 4],
}

/// The seeded job source: 50% fan-out, 25% single, 25% chain — exactly,
/// per block of 16 jobs, in seeded order, so two seeds do the same work
/// in a different order.
#[derive(Debug)]
pub struct JobMix {
    rng: StdRng,
    sessions: usize,
    block: Vec<JobKind>,
}

impl JobMix {
    pub fn new(seed: u64, sessions: usize) -> Self {
        JobMix {
            rng: rng(seed, Stream::Mix),
            sessions,
            block: Vec::new(),
        }
    }

    pub fn next_job(&mut self) -> Job {
        if self.block.is_empty() {
            self.block.extend([JobKind::Fanout; 8]);
            self.block.extend([JobKind::Single; 4]);
            self.block.extend([JobKind::Chain; 4]);
            for i in (1..self.block.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                self.block.swap(i, j);
            }
        }
        let kind = self.block.pop().expect("block refilled above");
        let mut steps = [0i64; 4];
        for s in &mut steps {
            *s = STEPS[self.rng.gen_range(0..STEPS.len())];
        }
        Job {
            kind,
            session: self.rng.gen_range(0..self.sessions),
            input: self.rng.gen_range(0..POOL),
            steps,
        }
    }
}

/// Poisson arrival offsets (seconds from the window start) at `rate`
/// per second over `duration` seconds.
pub fn poisson_offsets(seed: u64, rate: f64, duration: f64) -> Vec<f64> {
    let mut rng = rng(seed, Stream::Arrivals);
    let mut out = Vec::with_capacity((rate * duration * 1.1) as usize + 8);
    let mut t = 0.0;
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate;
        if t >= duration {
            return out;
        }
        out.push(t);
    }
}

/// Slot values of pool input `index`: uniform in `[-1, 1)`.
pub fn input_vector(seed: u64, index: usize, slots: usize) -> Vec<f64> {
    let mut rng = rng(seed ^ ((index as u64 + 1) << 32), Stream::Inputs);
    (0..slots).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// The plaintext model of a left rotation by `step` slots.
pub fn rotated(v: &[f64], step: i64) -> Vec<f64> {
    let n = v.len();
    (0..n)
        .map(|j| v[(j + step.rem_euclid(n as i64) as usize) % n])
        .collect()
}

/// The plaintext model of a slot-wise product.
pub fn product(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(x, y)| x * y).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_a_function_of_the_seed() {
        let a = poisson_offsets(7, 300.0, 4.0);
        assert_eq!(a, poisson_offsets(7, 300.0, 4.0));
        assert_ne!(a, poisson_offsets(8, 300.0, 4.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..4.0).contains(&t)));
        // 1200 expected arrivals; 5 sigma is ~173.
        assert!((a.len() as f64 - 1200.0).abs() < 175.0, "{}", a.len());
    }

    #[test]
    fn job_mix_is_seeded_and_exactly_proportioned() {
        let draw = |seed| {
            let mut mix = JobMix::new(seed, 32);
            (0..64).map(|_| mix.next_job()).collect::<Vec<_>>()
        };
        let jobs = draw(3);
        assert_eq!(jobs, draw(3));
        assert_ne!(jobs, draw(4));
        let count = |k| jobs.iter().filter(|j| j.kind == k).count();
        assert_eq!(
            (
                count(JobKind::Fanout),
                count(JobKind::Single),
                count(JobKind::Chain)
            ),
            (32, 16, 16)
        );
        assert!(jobs.iter().all(|j| j.session < 32 && j.input < POOL));
    }

    #[test]
    fn plaintext_model_rotates_left() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(rotated(&v, 1), vec![2.0, 3.0, 4.0, 1.0]);
        assert_eq!(rotated(&v, 6), vec![3.0, 4.0, 1.0, 2.0]);
        assert_eq!(product(&v, &v), vec![1.0, 4.0, 9.0, 16.0]);
        assert_eq!(input_vector(1, 2, 8), input_vector(1, 2, 8));
        assert_ne!(input_vector(1, 2, 8), input_vector(1, 3, 8));
    }
}
