//! The small ring every server suite runs on.

use heax_ckks::{CkksContext, CkksParams};

/// A 64-coefficient ring over a 4-prime chain: two rescales deep.
pub fn ctx() -> CkksContext {
    let chain = heax_math::primes::generate_prime_chain(&[40, 40, 40, 41], 64).unwrap();
    CkksContext::new(CkksParams::new(64, chain, (1u64 << 32) as f64).unwrap()).unwrap()
}
