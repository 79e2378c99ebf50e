//! # heax-ckks
//!
//! A complete, self-contained **full-RNS CKKS** homomorphic-encryption
//! library — the algorithmic substrate of the HEAX (ASPLOS 2020)
//! reproduction. It implements exactly the algorithms the paper specifies
//! (Section 3, Algorithms 1–7) in the style of Microsoft SEAL 3.3:
//! ciphertexts stay in RNS + NTT form throughout evaluation, and no
//! multi-precision arithmetic appears on the evaluation path.
//!
//! In the reproduction this crate plays two roles:
//!
//! 1. the **CPU baseline** measured by the `table7`/`table8` binaries in
//!    `heax-bench` and the `benchmark/` ledger's `ckks.*` rows (standing
//!    in for SEAL on the Xeon Silver 4108), and
//! 2. the **golden model** against which the cycle-accurate hardware
//!    simulators in `heax-hw`/`heax-core` are checked bit-exactly.
//!
//! ## Quick start
//!
//! ```
//! use heax_ckks::{
//!     CkksContext, CkksEncoder, CkksParams, Decryptor, Encryptor, Evaluator,
//!     ParamSet, PublicKey, RelinKey, SecretKey,
//! };
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), heax_ckks::CkksError> {
//! let ctx = CkksContext::new(CkksParams::from_set(ParamSet::SetA)?)?;
//! let mut rng = StdRng::seed_from_u64(7);
//! let sk = SecretKey::generate(&ctx, &mut rng);
//! let pk = PublicKey::generate(&ctx, &sk, &mut rng);
//! let rlk = RelinKey::generate(&ctx, &sk, &mut rng);
//!
//! let encoder = CkksEncoder::new(&ctx);
//! let scale = ctx.params().scale();
//! let pt_a = encoder.encode_real(&[1.5, 2.0], scale, ctx.max_level())?;
//! let pt_b = encoder.encode_real(&[4.0, -1.0], scale, ctx.max_level())?;
//!
//! let encryptor = Encryptor::new(&ctx, &pk);
//! let ct_a = encryptor.encrypt(&pt_a, &mut rng)?;
//! let ct_b = encryptor.encrypt(&pt_b, &mut rng)?;
//!
//! let eval = Evaluator::new(&ctx);
//! let prod = eval.rescale(&eval.multiply_relin(&ct_a, &ct_b, &rlk)?)?;
//!
//! let dec = Decryptor::new(&ctx, &sk).decrypt(&prod)?;
//! let vals = encoder.decode_real(&dec)?;
//! assert!((vals[0] - 6.0).abs() < 0.01);
//! assert!((vals[1] + 2.0).abs() < 0.01);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ciphertext;
pub mod context;
pub mod encoder;
pub mod encrypt;
mod error;
pub mod eval;
mod flooring;
pub mod galois;
pub mod keys;
pub mod keyswitch;
pub mod noise;
pub mod params;
mod scratch;
pub mod serialize;

/// The integration suite's independent Barrett oracle for Algorithm 7,
/// shared with the unit tests (it is written against the public API, so
/// the crate is made visible under its own name).
#[cfg(test)]
extern crate self as heax_ckks;
#[cfg(test)]
#[path = "../tests/support/mod.rs"]
mod test_support;

pub use ciphertext::{Ciphertext, Plaintext, SeededCiphertext};
pub use context::CkksContext;
pub use encoder::CkksEncoder;
pub use encrypt::{encrypt_symmetric, encrypt_symmetric_seeded, Decryptor, Encryptor};
pub use error::CkksError;
pub use eval::Evaluator;
pub use keys::{GaloisKeys, KeySwitchKey, PublicKey, RelinKey, SecretKey};
pub use params::{CkksParams, ParamSet};
