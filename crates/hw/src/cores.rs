//! Computation cores — Table 3 of the paper.
//!
//! Three core types exist in HEAX: the Dyadic core (modular
//! multiply-accumulate datapath of the MULT module, Figure 1), and the
//! NTT/INTT butterfly cores (Figure 3). Each core is modeled with:
//!
//! * its **resource cost** (Table 3),
//! * its **pipeline depth** in stages (Table 3, "#Stages"),
//! * a **functional datapath** operating on real 54-bit-domain residues, so
//!   the dataflow simulators compute genuine results.
//!
//! The paper's cores use `w = 54`-bit native words built from 27-bit DSP
//! slices: a modular multiplication needs one 54×54 product (4 DSPs) plus
//! the Barrett/MulRed correction multiplies. The Table 3 DSP counts (22 per
//! Dyadic core, 10 per NTT core) reflect that arithmetic.

use heax_math::word::{Modulus, MulRedConstant};

use crate::resources::Resources;
use crate::HwError;

/// Maximum modulus width supported by the 54-bit datapath (Section 4):
/// moduli must be < 2^52 for Algorithm 2 to be correct with w = 54.
pub const HW_MAX_MODULUS_BITS: u32 = 52;

/// The kinds of computation core.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CoreKind {
    /// Dyadic (coefficient-wise modular multiplier) core.
    Dyadic,
    /// Forward-NTT butterfly core.
    Ntt,
    /// Inverse-NTT butterfly core.
    Intt,
}

impl CoreKind {
    /// All kinds, Table 3 order.
    pub const ALL: [CoreKind; 3] = [CoreKind::Dyadic, CoreKind::Ntt, CoreKind::Intt];

    /// Resource cost of one core (Table 3).
    pub fn cost(self) -> Resources {
        match self {
            CoreKind::Dyadic => Resources::logic(22, 4526, 1663),
            CoreKind::Ntt => Resources::logic(10, 6297, 2066),
            CoreKind::Intt => Resources::logic(10, 5449, 2119),
        }
    }

    /// Pipeline depth in stages (Table 3, "#Stages").
    pub fn pipeline_stages(self) -> u64 {
        match self {
            CoreKind::Dyadic => 23,
            CoreKind::Ntt => 50,
            CoreKind::Intt => 49,
        }
    }

    /// Table 3 row label.
    pub fn name(self) -> &'static str {
        match self {
            CoreKind::Dyadic => "Dyadic",
            CoreKind::Ntt => "NTT",
            CoreKind::Intt => "INTT",
        }
    }
}

/// Validates that a modulus fits the hardware's 54-bit datapath.
///
/// # Errors
///
/// Returns [`HwError::ModulusTooWide`] for moduli of 53+ bits.
pub fn check_hw_modulus(modulus: &Modulus) -> Result<(), HwError> {
    if modulus.bits() > HW_MAX_MODULUS_BITS {
        return Err(HwError::ModulusTooWide {
            modulus: modulus.value(),
            bits: modulus.bits(),
            max_bits: HW_MAX_MODULUS_BITS,
        });
    }
    Ok(())
}

/// Functional model of the Dyadic core (Figure 1): one modular product per
/// clock, `Res = Op1 · Op2 mod p`, using the precomputed Barrett constants
/// (`R1`, `R2` in the figure).
#[derive(Clone, Copy, Debug, Default)]
pub struct DyadicCore {
    ops: u64,
}

impl DyadicCore {
    /// Fresh core with a zero op counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// One dyadic multiplication. Counts the operation.
    #[inline]
    pub fn compute(&mut self, op1: u64, op2: u64, modulus: &Modulus) -> u64 {
        self.ops = self.ops.saturating_add(1);
        modulus.mul_mod(op1, op2)
    }

    /// Fused multiply-accumulate, as used in the KeySwitch DyadMult stage.
    #[inline]
    pub fn compute_acc(&mut self, acc: u64, op1: u64, op2: u64, modulus: &Modulus) -> u64 {
        self.ops = self.ops.saturating_add(1);
        modulus.add_mod(acc, modulus.mul_mod(op1, op2))
    }

    /// Operations performed so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }
}

/// Functional model of the NTT butterfly core (Figure 3): consumes a
/// coefficient pair, one twiddle factor (with its MulRed precompute), and
/// produces the transformed pair — the Cooley–Tukey butterfly of
/// Algorithm 3.
#[derive(Clone, Copy, Debug, Default)]
pub struct NttCore {
    butterflies: u64,
}

impl NttCore {
    /// Fresh core.
    pub fn new() -> Self {
        Self::default()
    }

    /// CT butterfly: `(a, b) ↦ (a + w·b, a − w·b)`.
    #[inline]
    pub fn butterfly(
        &mut self,
        a: u64,
        b: u64,
        w: &MulRedConstant,
        modulus: &Modulus,
    ) -> (u64, u64) {
        self.butterflies = self.butterflies.saturating_add(1);
        let v = w.mul_red(b, modulus);
        (modulus.add_mod(a, v), modulus.sub_mod(a, v))
    }

    /// Butterflies performed so far.
    pub fn butterflies(&self) -> u64 {
        self.butterflies
    }
}

/// Functional model of the INTT butterfly core: the Gentleman–Sande
/// butterfly of Algorithm 4 with the `/2` folded in:
/// `(a, b) ↦ ((a+b)/2, (a−b)·w)` where `w` already includes the `1/2`.
#[derive(Clone, Copy, Debug, Default)]
pub struct InttCore {
    butterflies: u64,
}

impl InttCore {
    /// Fresh core.
    pub fn new() -> Self {
        Self::default()
    }

    /// GS butterfly with folded halving.
    #[inline]
    pub fn butterfly(
        &mut self,
        a: u64,
        b: u64,
        w_half: &MulRedConstant,
        modulus: &Modulus,
    ) -> (u64, u64) {
        self.butterflies = self.butterflies.saturating_add(1);
        let v = modulus.sub_mod(a, b);
        (
            modulus.div2_mod(modulus.add_mod(a, b)),
            w_half.mul_red(v, modulus),
        )
    }

    /// Butterflies performed so far.
    pub fn butterflies(&self) -> u64 {
        self.butterflies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heax_math::ntt::NttTable;
    use heax_math::primes::generate_ntt_primes;

    #[test]
    fn table3_costs() {
        let d = CoreKind::Dyadic.cost();
        assert_eq!((d.dsp, d.reg, d.alm), (22, 4526, 1663));
        let n = CoreKind::Ntt.cost();
        assert_eq!((n.dsp, n.reg, n.alm), (10, 6297, 2066));
        let i = CoreKind::Intt.cost();
        assert_eq!((i.dsp, i.reg, i.alm), (10, 5449, 2119));
        assert_eq!(CoreKind::Dyadic.pipeline_stages(), 23);
        assert_eq!(CoreKind::Ntt.pipeline_stages(), 50);
        assert_eq!(CoreKind::Intt.pipeline_stages(), 49);
        // Cores consume no BRAM themselves.
        assert_eq!(d.bram_bits, 0);
    }

    #[test]
    fn hw_modulus_bound() {
        let ok = Modulus::new(generate_ntt_primes(50, 1, 64).unwrap()[0]).unwrap();
        assert!(check_hw_modulus(&ok).is_ok());
        let wide = Modulus::new(generate_ntt_primes(60, 1, 64).unwrap()[0]).unwrap();
        assert!(matches!(
            check_hw_modulus(&wide),
            Err(HwError::ModulusTooWide { .. })
        ));
    }

    #[test]
    fn dyadic_core_computes_and_counts() {
        let p = Modulus::new(generate_ntt_primes(40, 1, 64).unwrap()[0]).unwrap();
        let mut core = DyadicCore::new();
        let r = core.compute(12345, 6789, &p);
        assert_eq!(r, p.mul_mod(12345, 6789));
        let acc = core.compute_acc(r, 2, 3, &p);
        assert_eq!(acc, p.add_mod(r, 6));
        assert_eq!(core.ops(), 2);
    }

    #[test]
    fn ntt_intt_cores_invert_each_other() {
        let n = 16usize;
        let p = Modulus::new(generate_ntt_primes(40, 1, n).unwrap()[0]).unwrap();
        let table = NttTable::new(n, p).unwrap();
        // Use the stage-1 twiddle pair: fwd[1] and inv[1].
        let w_fwd = table.forward_twiddle(1);
        let w_inv = table.inverse_twiddle(1);
        let (a, b) = (1234u64, 5678u64);
        let mut ntt = NttCore::new();
        let mut intt = InttCore::new();
        let (x, y) = ntt.butterfly(a, b, w_fwd, &p);
        let (a2, b2) = intt.butterfly(x, y, w_inv, &p);
        assert_eq!((a2, b2), (a, b));
        assert_eq!(ntt.butterflies(), 1);
        assert_eq!(intt.butterflies(), 1);
    }
}
