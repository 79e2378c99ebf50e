//! Reusable workspaces for the key-switch hot path.
//!
//! The seed implementation allocated O(k²) fresh `Vec<u64>`s per
//! key-switch call: two extended-basis accumulators, a per-iteration
//! coefficient copy, and a reduction buffer for every `(i, j)` pair. The
//! hardware has none of that — every buffer is a BRAM bank wired into the
//! pipeline (Figure 5). [`KeySwitchScratch`] is the software analogue: a
//! buffer pool owned by the evaluator, shaped once per level and reused
//! across calls, so `key_switch_into` performs **zero heap allocations**
//! after warm-up (asserted by the `alloc_free` integration test). The
//! per-limb lane buffers are threaded through the executor dispatch, so
//! the parallel backend reuses them too (limb `j` owns lane slot `j`).

use heax_math::poly::{Representation, RnsPoly};
use heax_math::word::Modulus;

use crate::context::CkksContext;

/// An empty placeholder polynomial (reshaped by `ensure` before use).
fn empty_poly() -> RnsPoly {
    RnsPoly::zero(0, &[], Representation::Ntt)
}

/// Buffers for one key-switch (or flooring) invocation, cached by level.
/// Starts empty ([`Default`]); the first use at a level shapes it.
#[derive(Debug)]
pub struct KsBuffers {
    /// Level the buffers are currently shaped for.
    level: Option<usize>,
    /// Extended basis (active primes + special prime) at that level.
    pub(crate) ext_moduli: Vec<Modulus>,
    /// Accumulator `f₀` over the extended basis.
    pub(crate) acc0: RnsPoly,
    /// Accumulator `f₁` over the extended basis.
    pub(crate) acc1: RnsPoly,
    /// Decomposition digits `b̃_{i,j}` of Algorithm 7:
    /// `(level+2) · (level+1)` limbs of `n` words, **column-major in the
    /// extended-basis index `j`** — digit `(i, j)` lives at
    /// `[(j·(level+1) + i)·n, (j·(level+1) + i + 1)·n)`.
    pub(crate) digits: Vec<u64>,
    /// Per-limb reduction/NTT lanes: limb `j` owns `[j·n, (j+1)·n)`;
    /// sized for the paired floor (two lanes per output limb).
    pub(crate) lane: Vec<u64>,
    /// Coefficient form of the dropped residue during flooring.
    pub(crate) drop_coeff: Vec<u64>,
    /// Second dropped-residue buffer for the paired accumulator floor.
    pub(crate) drop_coeff2: Vec<u64>,
}

impl Default for KsBuffers {
    fn default() -> Self {
        Self {
            level: None,
            ext_moduli: Vec::new(),
            acc0: empty_poly(),
            acc1: empty_poly(),
            digits: Vec::new(),
            lane: Vec::new(),
            drop_coeff: Vec::new(),
            drop_coeff2: Vec::new(),
        }
    }
}

impl KsBuffers {
    /// Shapes every buffer for `level` (no-op when already shaped — the
    /// steady-state, allocation-free path).
    pub(crate) fn ensure(&mut self, ctx: &CkksContext, level: usize) {
        let n = ctx.n();
        if self.level == Some(level) && self.acc0.n() == n {
            return;
        }
        let mut ext: Vec<Modulus> = ctx.level_moduli(level).to_vec();
        ext.push(*ctx.special_modulus());
        self.acc0 = RnsPoly::zero(n, &ext, Representation::Ntt);
        self.acc1 = RnsPoly::zero(n, &ext, Representation::Ntt);
        self.digits.resize(ext.len() * (level + 1) * n, 0);
        self.lane.resize(2 * ext.len() * n, 0);
        self.drop_coeff.clear();
        self.drop_coeff.reserve(n);
        self.drop_coeff2.clear();
        self.drop_coeff2.reserve(n);
        self.ext_moduli = ext;
        self.level = Some(level);
    }
}

/// The evaluator-owned workspace: key-switch buffers plus the rotation
/// scratch reused by `apply_galois`.
#[derive(Debug)]
pub(crate) struct KeySwitchScratch {
    /// Key-switch / flooring buffers.
    pub(crate) ks: KsBuffers,
    /// Rotated `c₁` for `apply_galois` (level basis, NTT form).
    pub(crate) rotated: RnsPoly,
    /// Level `rotated` is shaped for.
    rotated_level: Option<usize>,
}

impl Default for KeySwitchScratch {
    fn default() -> Self {
        Self {
            ks: KsBuffers::default(),
            rotated: empty_poly(),
            rotated_level: None,
        }
    }
}

impl KeySwitchScratch {
    /// Fresh, empty scratch (warm-up happens on first use).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Shapes the rotation buffer for `level`.
    pub(crate) fn ensure_rotated(&mut self, ctx: &CkksContext, level: usize) {
        let n = ctx.n();
        if self.rotated_level == Some(level) && self.rotated.n() == n {
            return;
        }
        self.rotated = RnsPoly::zero(n, ctx.level_moduli(level), Representation::Ntt);
        self.rotated_level = Some(level);
    }
}
