//! # heax-math
//!
//! Word-level and polynomial-level arithmetic substrate for the HEAX
//! (ASPLOS 2020) reproduction: Barrett reduction (Algorithm 1), the
//! `MulRed` optimized modular multiplication (Algorithm 2), negacyclic
//! NTT/INTT (Algorithms 3–4), NTT-friendly prime generation, RNS tools
//! (Garner composition, key-switching gadget, flooring constants), the
//! complex "special FFT" backing the CKKS encoder, and RLWE samplers.
//!
//! Everything here is deliberately dependency-light (`rand` only) and
//! mirrors, in software, exactly the primitives the HEAX datapaths consume;
//! `heax-hw` re-uses these tables to drive cycle-accurate simulations whose
//! outputs are checked bit-exactly against this crate.
//!
//! ## Example
//!
//! ```
//! use heax_math::{ntt::NttTable, primes, word::Modulus};
//!
//! # fn main() -> Result<(), heax_math::MathError> {
//! let p = primes::generate_ntt_primes(36, 1, 4096)?[0];
//! let table = NttTable::new(4096, Modulus::new(p)?)?;
//! let mut poly = vec![1u64; 4096];
//! table.forward(&mut poly);
//! table.inverse(&mut poly);
//! assert!(poly.iter().all(|&c| c == 1)); // round-trip is the identity
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod exec;
pub mod fft;
#[cfg(target_arch = "x86_64")]
mod ifma;
pub mod ntt;
pub mod packed;
pub mod poly;
pub mod primes;
pub mod rns;
pub mod sampling;
pub mod word;

use core::fmt;

/// Errors produced by the math substrate.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum MathError {
    /// The modulus is zero, one, even, or too wide for Algorithm 2.
    InvalidModulus {
        /// Offending value.
        value: u64,
    },
    /// The ring degree is not a supported power of two.
    InvalidDegree {
        /// Offending degree.
        n: usize,
    },
    /// The prime search ran out of candidates below `2^bits`.
    PrimeSearchExhausted {
        /// Requested bit size.
        bits: u32,
        /// Requested count.
        count: usize,
        /// Ring degree constraining the congruence.
        n: usize,
    },
    /// No primitive `2n`-th root of unity exists modulo the given modulus.
    NoPrimitiveRoot {
        /// The modulus.
        modulus: u64,
        /// Ring degree.
        n: usize,
    },
    /// Attempted to invert a non-invertible element.
    NotInvertible {
        /// The element.
        value: u64,
        /// The modulus.
        modulus: u64,
    },
    /// Two moduli that must be coprime are not.
    NotCoprime {
        /// First value.
        a: u64,
        /// Second value.
        b: u64,
    },
    /// An RNS basis must contain at least one modulus.
    EmptyBasis,
    /// Operand sizes disagree.
    LengthMismatch {
        /// Expected length.
        expected: usize,
        /// Actual length.
        got: usize,
    },
    /// Operands live in different RNS bases.
    BasisMismatch {
        /// Modulus from the left operand.
        a: u64,
        /// Modulus from the right operand.
        b: u64,
    },
    /// Operands are in different (or unexpected) representations.
    RepresentationMismatch,
}

impl fmt::Display for MathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidModulus { value } => {
                write!(
                    f,
                    "invalid modulus {value}: must be odd, >2, and at most 62 bits"
                )
            }
            Self::InvalidDegree { n } => {
                write!(f, "invalid ring degree {n}: must be a power of two")
            }
            Self::PrimeSearchExhausted { bits, count, n } => write!(
                f,
                "could not find {count} primes of {bits} bits congruent to 1 mod {}",
                2 * n
            ),
            Self::NoPrimitiveRoot { modulus, n } => write!(
                f,
                "no primitive {}-th root of unity modulo {modulus}",
                2 * n
            ),
            Self::NotInvertible { value, modulus } => {
                write!(f, "{value} is not invertible modulo {modulus}")
            }
            Self::NotCoprime { a, b } => write!(f, "moduli {a} and {b} are not coprime"),
            Self::EmptyBasis => write!(f, "RNS basis must be non-empty"),
            Self::LengthMismatch { expected, got } => {
                write!(f, "length mismatch: expected {expected}, got {got}")
            }
            Self::BasisMismatch { a, b } => {
                write!(f, "RNS basis mismatch: {a} vs {b}")
            }
            Self::RepresentationMismatch => {
                write!(f, "operands are in incompatible representations")
            }
        }
    }
}

impl std::error::Error for MathError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_are_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<MathError>();
        let e = MathError::NotCoprime { a: 6, b: 9 };
        assert!(e.to_string().contains("not coprime"));
        assert!(!format!("{e:?}").is_empty());
    }
}
