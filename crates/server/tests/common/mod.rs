//! The small ring and hand-sized accelerator every server suite runs on.

use heax_ckks::{CkksContext, CkksParams};
use heax_core::{HeaxAccelerator, HeaxSystem};
use heax_hw::board::Board;
use heax_hw::keyswitch_pipeline::KeySwitchArch;
use heax_hw::mult_dataflow::MultModuleConfig;
use heax_hw::ntt_dataflow::NttModuleConfig;

/// A 64-coefficient ring over a 4-prime chain: two rescales deep.
pub fn ctx() -> CkksContext {
    let chain = heax_math::primes::generate_prime_chain(&[40, 40, 40, 41], 64).unwrap();
    CkksContext::new(CkksParams::new(64, chain, (1u64 << 32) as f64).unwrap()).unwrap()
}

/// A host+board system with an accelerator sized for [`ctx`]'s ring.
pub fn system(ctx: &CkksContext) -> HeaxSystem<'_> {
    let accel = HeaxAccelerator::with_arch(
        ctx,
        Board::stratix10(),
        KeySwitchArch {
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
        },
        NttModuleConfig::new(64, 4).unwrap(),
        MultModuleConfig::new(64, 8).unwrap(),
    )
    .unwrap();
    HeaxSystem::new(accel)
}
