//! Randomness for RLWE: uniform, ternary, and centered-binomial sampling.
//!
//! The paper's `CKKS.Setup` fixes a key distribution `χ` (ternary, as in
//! SEAL) and an error distribution `Ω`. SEAL samples errors from a clipped
//! discrete Gaussian with `σ = 3.2`; we use the centered binomial
//! distribution `CBD(21)` whose standard deviation `√(21/2) ≈ 3.24` matches,
//! is constant-time-friendly, and is standard in lattice practice (Kyber et
//! al.). The difference is irrelevant to both functionality and the
//! performance study.

use rand::Rng;

use crate::poly::{Representation, RnsPoly};
use crate::word::Modulus;

/// Standard deviation of the error distribution (`CBD(21)`).
pub const ERROR_STDDEV: f64 = 3.240_370_349; // sqrt(10.5)

/// Byte length of the seed carried by seeded ciphertexts.
pub const EXPAND_SEED_LEN: usize = 32;

/// Deterministic expander for 32-byte wire seeds.
///
/// Seeded ciphertexts ship a 32-byte seed in place of their uniform `a`
/// component; sender and receiver both re-derive `a` by running this
/// generator through [`sample_uniform`]. The construction is xoshiro256++
/// with its four state words loaded little-endian from the seed and chained
/// through a SplitMix64 finalizer, so even degenerate seeds (all zero, one
/// bit set) yield a well-distributed state. Like the rest of the vendored
/// `rand` stand-in it is **not** cryptographically secure — a production
/// deployment would use SEAL's Blake2 expansion — but the byte-level
/// expansion is pinned by the wire protocol (`PROTOCOL.md`) and must not
/// change across versions.
#[derive(Clone, Debug)]
pub struct ExpandRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl ExpandRng {
    /// Constructs the expander from a 32-byte seed.
    pub fn from_seed(seed: &[u8; EXPAND_SEED_LEN]) -> Self {
        let mut acc = 0x243f_6a88_85a3_08d3u64; // π fraction: fixed chain IV
        let mut s = [0u64; 4];
        for (i, word) in s.iter_mut().enumerate() {
            let mut w = [0u8; 8];
            w.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
            acc ^= u64::from_le_bytes(w);
            *word = splitmix64(&mut acc);
        }
        Self { s }
    }
}

impl rand::RngCore for ExpandRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Expands a 32-byte seed into the uniform polynomial it stands for.
///
/// This is *the* normative seed→polynomial map of the wire format: both the
/// seeded encryptor and every receiver of a seeded ciphertext call it with
/// the same `(n, moduli)` and must obtain bit-identical output.
pub fn expand_uniform(
    seed: &[u8; EXPAND_SEED_LEN],
    n: usize,
    moduli: &[Modulus],
    repr: Representation,
) -> RnsPoly {
    let mut out = RnsPoly::zero(n, moduli, repr);
    expand_uniform_into(seed, &mut out);
    out
}

/// [`expand_uniform`] over the degree and basis of `out`, whose words it
/// overwrites — for a receiver that recycles its polynomials.
pub fn expand_uniform_into(seed: &[u8; EXPAND_SEED_LEN], out: &mut RnsPoly) {
    sample_uniform_into(&mut ExpandRng::from_seed(seed), out);
}

/// Number of bit pairs in the centered binomial error sampler.
const CBD_BITS: u32 = 21;

/// Samples a uniform element of `R_q` in the given representation.
///
/// Uniformity is representation-independent, so the caller may directly tag
/// the output as NTT form (as `SymEnc` does for the `a` component).
pub fn sample_uniform<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    moduli: &[Modulus],
    repr: Representation,
) -> RnsPoly {
    let mut out = RnsPoly::zero(n, moduli, repr);
    sample_uniform_into(rng, &mut out);
    out
}

fn sample_uniform_into<R: Rng + ?Sized>(rng: &mut R, out: &mut RnsPoly) {
    for i in 0..out.num_residues() {
        let bound = out.moduli()[i].value();
        // Rejection sampling on the top range to avoid modulo bias.
        let zone = u64::MAX - u64::MAX % bound;
        for c in out.residue_mut(i) {
            let mut v = rng.gen::<u64>();
            while v >= zone {
                v = rng.gen::<u64>();
            }
            *c = v % bound;
        }
    }
}

/// Samples a ternary secret with coefficients in `{-1, 0, 1}`, replicated
/// into every RNS component (coefficient representation).
pub fn sample_ternary<R: Rng + ?Sized>(rng: &mut R, n: usize, moduli: &[Modulus]) -> RnsPoly {
    let signs: Vec<i8> = (0..n).map(|_| rng.gen_range(-1i8..=1)).collect();
    signed_to_rns(&signs_to_i64(&signs), n, moduli)
}

/// Samples an error polynomial from `CBD(21)` (σ ≈ 3.24), replicated into
/// every RNS component (coefficient representation).
pub fn sample_error<R: Rng + ?Sized>(rng: &mut R, n: usize, moduli: &[Modulus]) -> RnsPoly {
    let coeffs: Vec<i64> = (0..n)
        .map(|_| {
            let a = rng.gen::<u32>() & ((1u32 << CBD_BITS) - 1);
            let b = rng.gen::<u32>() & ((1u32 << CBD_BITS) - 1);
            a.count_ones() as i64 - b.count_ones() as i64
        })
        .collect();
    signed_to_rns(&coeffs, n, moduli)
}

/// Lifts signed coefficients into an [`RnsPoly`] (coefficient form).
pub fn signed_to_rns(coeffs: &[i64], n: usize, moduli: &[Modulus]) -> RnsPoly {
    assert_eq!(coeffs.len(), n, "coefficient count mismatch");
    let mut out = RnsPoly::zero(n, moduli, Representation::Coefficient);
    for (i, p) in moduli.iter().enumerate() {
        for (dst, &c) in out.residue_mut(i).iter_mut().zip(coeffs) {
            *dst = p.reduce_i64(c);
        }
    }
    out
}

fn signs_to_i64(signs: &[i8]) -> Vec<i64> {
    signs.iter().map(|&s| s as i64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::generate_ntt_primes;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mods() -> Vec<Modulus> {
        generate_ntt_primes(30, 2, 64)
            .unwrap()
            .into_iter()
            .map(|p| Modulus::new(p).unwrap())
            .collect()
    }

    #[test]
    fn uniform_in_range_and_nontrivial() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = mods();
        let u = sample_uniform(&mut rng, 1024, &m, Representation::Ntt);
        for (p, res) in u.iter() {
            assert!(res.iter().all(|&c| c < p.value()));
            // Statistically certain: 1024 uniform draws aren't all < p/2.
            assert!(res.iter().any(|&c| c >= p.value() / 2));
        }
        assert_eq!(u.representation(), Representation::Ntt);
    }

    #[test]
    fn ternary_values_consistent_across_residues() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = mods();
        let s = sample_ternary(&mut rng, 256, &m);
        for j in 0..256 {
            let v0 = s.residue(0)[j];
            let v1 = s.residue(1)[j];
            let p0 = m[0].value();
            let p1 = m[1].value();
            let c0: i64 = if v0 == 0 {
                0
            } else if v0 == 1 {
                1
            } else {
                assert_eq!(v0, p0 - 1);
                -1
            };
            let c1: i64 = if v1 == 0 {
                0
            } else if v1 == 1 {
                1
            } else {
                assert_eq!(v1, p1 - 1);
                -1
            };
            assert_eq!(c0, c1);
        }
    }

    #[test]
    fn error_is_small_and_centered() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = mods();
        let n = 8192;
        let e = sample_error(&mut rng, n, &m);
        let p0 = m[0].value();
        let mut sum = 0i64;
        let mut sum_sq = 0f64;
        for &c in e.residue(0) {
            let v: i64 = if c > p0 / 2 {
                c as i64 - p0 as i64
            } else {
                c as i64
            };
            assert!(v.abs() <= CBD_BITS as i64, "CBD(21) bounded by ±21");
            sum += v;
            sum_sq += (v * v) as f64;
        }
        let mean = sum as f64 / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.3, "mean {mean} should be near 0");
        assert!(
            (var - 10.5).abs() < 1.5,
            "variance {var} should be near 10.5"
        );
    }

    #[test]
    fn signed_lift_roundtrip() {
        let m = mods();
        let coeffs: Vec<i64> = vec![-3, -1, 0, 1, 2, 5, -7, 9];
        let poly = signed_to_rns(&coeffs, 8, &m);
        for (j, &c) in coeffs.iter().enumerate() {
            assert_eq!(poly.residue(0)[j], m[0].reduce_i64(c));
        }
    }

    #[test]
    fn expand_uniform_is_deterministic_and_canonical() {
        let m = mods();
        let seed = [0xA5u8; EXPAND_SEED_LEN];
        let a = expand_uniform(&seed, 256, &m, Representation::Ntt);
        let b = expand_uniform(&seed, 256, &m, Representation::Ntt);
        assert_eq!(a, b);
        for (p, res) in a.iter() {
            assert!(res.iter().all(|&c| c < p.value()));
        }
        // A different seed must diverge.
        let mut other = seed;
        other[31] ^= 1;
        assert_ne!(a, expand_uniform(&other, 256, &m, Representation::Ntt));
    }

    #[test]
    fn expand_rng_survives_degenerate_seeds() {
        use rand::RngCore;
        let mut zero = ExpandRng::from_seed(&[0u8; EXPAND_SEED_LEN]);
        let words: Vec<u64> = (0..64).map(|_| zero.next_u64()).collect();
        assert!(words.iter().any(|&w| w != 0));
        // One-bit seeds land on distinct streams.
        let mut one = [0u8; EXPAND_SEED_LEN];
        one[0] = 1;
        let mut rng_one = ExpandRng::from_seed(&one);
        assert_ne!(words[0], rng_one.next_u64());
    }

    #[test]
    fn deterministic_with_seed() {
        let m = mods();
        let a = sample_uniform(
            &mut StdRng::seed_from_u64(42),
            64,
            &m,
            Representation::Coefficient,
        );
        let b = sample_uniform(
            &mut StdRng::seed_from_u64(42),
            64,
            &m,
            Representation::Coefficient,
        );
        assert_eq!(a, b);
    }
}
