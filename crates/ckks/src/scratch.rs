//! Reusable workspaces for the key-switch hot path.
//!
//! The seed implementation allocated O(k²) fresh `Vec<u64>`s per
//! key-switch call: two extended-basis accumulators, a per-iteration
//! coefficient copy, and a reduction buffer for every `(i, j)` pair. The
//! hardware has none of that — every buffer is a BRAM bank wired into the
//! pipeline (Figure 5). [`KeySwitchScratch`] is the software analogue: a
//! buffer pool owned by the evaluator, shaped for the highest level it
//! has seen and sliced down for lower ones, so `key_switch_into` performs
//! **zero heap allocations** after warm-up at any mix of levels (asserted
//! by the `alloc` integration test). The per-limb lane buffers are
//! threaded through the executor dispatch, so the parallel backend reuses
//! them too (limb `j` owns lane slot `j`).

use heax_math::poly::{Representation, RnsPoly};

use crate::context::CkksContext;

/// An empty placeholder polynomial (reshaped by `ensure` before use).
fn empty_poly() -> RnsPoly {
    RnsPoly::zero(0, &[], Representation::Ntt)
}

/// Buffers for one key-switch (or flooring) invocation. Starts empty; the
/// first use at a level higher than any before grows it, others slice.
#[derive(Debug, Default)]
pub struct KsBuffers {
    /// Ring degree and highest level the buffers are shaped for.
    shape: Option<(usize, usize)>,
    /// Accumulator `f₀` over the extended basis (active primes, then the
    /// special prime): limb `j` of a level spans `[j·n, (j+1)·n)`.
    pub(crate) acc0: Vec<u64>,
    /// Accumulator `f₁` over the extended basis.
    pub(crate) acc1: Vec<u64>,
    /// Decomposition digits `b̃_{i,j}` of Algorithm 7:
    /// `(level+2) · (level+1)` limbs of `n` words, **column-major in the
    /// extended-basis index `j`** — digit `(i, j)` lives at
    /// `[(j·(level+1) + i)·n, (j·(level+1) + i + 1)·n)`.
    pub(crate) digits: Vec<u64>,
    /// Per-limb reduction/NTT lanes: limb `j` owns `[j·n, (j+1)·n)`;
    /// sized for the paired floor (two lanes per output limb).
    pub(crate) lane: Vec<u64>,
    /// Coefficient form of the dropped residue during rescaling.
    pub(crate) drop_coeff: Vec<u64>,
}

impl KsBuffers {
    /// Makes every buffer large enough for `level` (no-op when a level at
    /// least as high has been seen — the steady-state, allocation-free
    /// path). Users slice the prefix their level needs.
    pub(crate) fn ensure(&mut self, ctx: &CkksContext, level: usize) {
        let n = ctx.n();
        if self.shape.is_some_and(|(m, top)| m == n && top >= level) {
            return;
        }
        let ext = level + 2;
        self.acc0.resize(ext * n, 0);
        self.acc1.resize(ext * n, 0);
        self.digits.resize(ext * (level + 1) * n, 0);
        self.lane.resize(2 * ext * n, 0);
        self.drop_coeff.clear();
        self.drop_coeff.reserve(n);
        self.shape = Some((n, level));
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
