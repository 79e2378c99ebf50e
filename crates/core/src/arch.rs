//! Automatic derivation of the KeySwitch architecture parameters
//! (Section 4.3, "Balancing Throughput"; Table 5).
//!
//! HEAX's selling point is that the same design instantiates at different
//! scales "with no manual tuning": given a board and an HE parameter set,
//! the module mix is fixed by throughput-balancing equations plus a
//! fit-to-budget search. This module reproduces all four Table 5 rows from
//! those rules alone:
//!
//! 1. `ncINTT0` — the largest power of two such that the complete design
//!    (KeySwitch + MULT + shell) fits the board's resource budget;
//! 2. `m0 = min(k, 4)` first-layer NTT modules (more than 32 cores per
//!    module fails place-and-route; more than ~4 modules stops paying off
//!    in BRAM), `ncNTT0 = k·ncINTT0/m0`;
//! 3. `ncDYD = next_pow2(⌈4·ncNTT0/log n⌉)`, one DyadMult module per NTT0
//!    module plus one for the input polynomial;
//! 4. `ncINTT1 = ncINTT0/k`, `ncNTT1 = ncINTT0`;
//! 5. `ncMS = next_pow2(⌈2·ncNTT0/log n⌉)` — note: the paper's prose says
//!    `2·ncNTT1/log n`, but only the `ncNTT0` variant reproduces *all four*
//!    Table 5 rows (the prose formula gives `Mult(2)` for Set-C where the
//!    table has `Mult(4)`); we use the variant consistent with the table.

use heax_ckks::params::ParamSet;
use heax_hw::board::{Board, BoardKind};
use heax_hw::cores::CoreKind;
use heax_hw::keyswitch_pipeline::KeySwitchArch;
use heax_hw::mult_dataflow::MultModuleConfig;
use heax_hw::ntt_dataflow::NttModuleConfig;
use heax_hw::resources::Resources;
use heax_hw::scheduler::PipelineConfig;
use heax_hw::HwError;

use crate::resources::{design_resources, KskPlacement};

/// Rounds up to the next power of two.
pub(crate) fn next_pow2(x: u64) -> u64 {
    x.next_power_of_two()
}

/// Derives the full KeySwitch architecture for `(board, set)` by the
/// balancing equations, trying `ncINTT0 ∈ {32, 16, 8, 4, 2, 1}` in
/// descending order and returning the first complete design that fits the
/// board (the "automatic instantiation" of Section 6.3).
///
/// # Errors
///
/// Returns [`HwError::ResourceOverflow`] if no size fits (cannot happen
/// for the paper's boards and sets).
pub fn derive_arch(board: &Board, set: ParamSet) -> Result<KeySwitchArch, HwError> {
    let n = set.n();
    let k = set.k();
    for log_nc in (0..=5u32).rev() {
        let nc_intt0 = 1usize << log_nc;
        if nc_intt0 > k * 16 {
            // NTT0 modules would exceed 32 cores even at m0 = min(k,4).
        }
        let arch = arch_for_intt0(n, k, nc_intt0);
        if arch.validate().is_err() {
            continue;
        }
        // Fit check: full design = shell + KeySwitch + standalone MULT.
        let placement = KskPlacement::choose(board, &arch);
        let total = design_resources(board, &arch, placement);
        if total.fits_within(board.budget()) {
            return Ok(arch);
        }
    }
    Err(HwError::ResourceOverflow {
        resource: "ALM",
        required: 0,
        available: board.budget().alm,
    })
}

/// The balancing equations for a given `ncINTT0` (no fit check).
pub fn arch_for_intt0(n: usize, k: usize, nc_intt0: usize) -> KeySwitchArch {
    let log_n = n.trailing_zeros() as u64;
    let m0 = k.min(4);
    let nc_ntt0 = (k * nc_intt0 / m0).max(1);
    let nc_dyad = next_pow2((4 * nc_ntt0 as u64).div_ceil(log_n)) as usize;
    let nc_intt1 = (nc_intt0 / k).max(1);
    let nc_ntt1 = nc_intt0;
    let nc_ms = next_pow2((2 * nc_ntt0 as u64).div_ceil(log_n)) as usize;
    KeySwitchArch {
        n,
        k,
        nc_intt0,
        m0,
        nc_ntt0,
        num_dyad: m0 + 1,
        nc_dyad,
        nc_intt1,
        nc_ntt1,
        nc_ms,
    }
}

/// Core count of the standalone MULT module instantiated next to
/// KeySwitch (Section 6.3: 16-core MULT on both boards).
pub fn standalone_mult_cores(_board: &Board) -> usize {
    16
}

/// Core count of the NTT/INTT modules used for standalone NTT requests
/// (Section 6.3: the KeySwitch-internal modules serve them — 16-core on
/// Stratix 10, 8-core on Arria 10).
pub fn standalone_ntt_cores(board: &Board) -> usize {
    match board.kind() {
        BoardKind::ArriaA10 => 8,
        BoardKind::StratixS10 => 16,
    }
}

/// A fully instantiated design point: board + parameter set + derived
/// architecture (one Table 5/6/7/8 row).
#[derive(Clone, Debug)]
pub struct DesignPoint {
    /// Target board.
    pub board: Board,
    /// HE parameter set.
    pub set: ParamSet,
    /// Derived KeySwitch architecture.
    pub arch: KeySwitchArch,
    /// Where key-switching keys live.
    pub ksk_placement: KskPlacement,
}

impl DesignPoint {
    /// Derives the design point for `(board, set)`.
    ///
    /// # Errors
    ///
    /// Propagates [`derive_arch`] failures.
    pub fn derive(board: Board, set: ParamSet) -> Result<Self, HwError> {
        let arch = derive_arch(&board, set)?;
        let ksk_placement = KskPlacement::choose(&board, &arch);
        Ok(Self {
            board,
            set,
            arch,
            ksk_placement,
        })
    }

    /// Table 5 as published: the architecture of each
    /// [`DesignPoint::paper_rows`] entry, in the same order, in
    /// [`KeySwitchArch::summary`] form.
    pub const PAPER_ARCHS: [&'static str; 4] = [
        "1xINTT(8) -> 2xNTT(8) -> 3xDyad(4) -> 2xINTT(4) -> 2xNTT(8) -> 2xMult(2)",
        "1xINTT(16) -> 2xNTT(16) -> 3xDyad(8) -> 2xINTT(8) -> 2xNTT(16) -> 2xMult(4)",
        "1xINTT(16) -> 4xNTT(16) -> 5xDyad(8) -> 2xINTT(4) -> 2xNTT(16) -> 2xMult(4)",
        "1xINTT(8) -> 4xNTT(16) -> 5xDyad(8) -> 2xINTT(1) -> 2xNTT(8) -> 2xMult(4)",
    ];

    /// The four design points evaluated in the paper (Table 5 rows).
    ///
    /// # Panics
    ///
    /// Panics if derivation fails (cannot happen for these points).
    pub fn paper_rows() -> Vec<DesignPoint> {
        vec![
            DesignPoint::derive(Board::arria10(), ParamSet::SetA).expect("fits"),
            DesignPoint::derive(Board::stratix10(), ParamSet::SetA).expect("fits"),
            DesignPoint::derive(Board::stratix10(), ParamSet::SetB).expect("fits"),
            DesignPoint::derive(Board::stratix10(), ParamSet::SetC).expect("fits"),
        ]
    }

    /// Total resource usage of the design.
    pub fn resources(&self) -> Resources {
        design_resources(&self.board, &self.arch, self.ksk_placement)
    }

    /// Standalone-NTT module configuration (for Table 7).
    ///
    /// # Panics
    ///
    /// Never panics for valid design points.
    pub fn ntt_config(&self) -> NttModuleConfig {
        NttModuleConfig::new(self.set.n(), standalone_ntt_cores(&self.board))
            .expect("valid by construction")
    }

    /// Standalone-MULT module configuration (for Table 7).
    ///
    /// # Panics
    ///
    /// Never panics for valid design points.
    pub fn mult_config(&self) -> MultModuleConfig {
        MultModuleConfig::new(self.set.n(), standalone_mult_cores(&self.board))
            .expect("valid by construction")
    }

    /// Board-level pipeline configuration for this design point with
    /// `num_cores` HEAX cores: key-switching keys stream from DRAM
    /// exactly when [`KskPlacement::choose`] placed them off-chip
    /// (Set-C), mirroring §5.1.
    ///
    /// # Errors
    ///
    /// Propagates [`PipelineConfig::new`] validation.
    pub fn pipeline_config(&self, num_cores: usize) -> Result<PipelineConfig, HwError> {
        Ok(
            PipelineConfig::new(&self.board, self.arch, self.mult_config(), num_cores)?
                .with_ksk_in_dram(matches!(self.ksk_placement, KskPlacement::OffChipDram)),
        )
    }

    /// Cluster configuration for this design point: `num_boards`
    /// replicas of the [`DesignPoint::pipeline_config`] board, behind
    /// the [`heax_hw::cluster`] session-affinity router.
    ///
    /// # Errors
    ///
    /// Propagates [`PipelineConfig::new`] and
    /// [`heax_hw::cluster::ClusterConfig::new`] validation.
    pub fn cluster_config(
        &self,
        num_boards: usize,
        num_cores: usize,
    ) -> Result<heax_hw::cluster::ClusterConfig, HwError> {
        heax_hw::cluster::ClusterConfig::new(self.pipeline_config(num_cores)?, num_boards)
    }

    /// Logic resources of one core type across the whole KeySwitch module
    /// (diagnostic).
    pub fn core_count(&self, kind: CoreKind) -> usize {
        let a = &self.arch;
        match kind {
            CoreKind::Intt => a.nc_intt0 + 2 * a.nc_intt1,
            CoreKind::Ntt => a.m0 * a.nc_ntt0 + 2 * a.nc_ntt1,
            CoreKind::Dyadic => a.num_dyad * a.nc_dyad + 2 * a.nc_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_row_arria_set_a() {
        let a = derive_arch(&Board::arria10(), ParamSet::SetA).unwrap();
        assert_eq!(a.summary(), DesignPoint::PAPER_ARCHS[0]);
    }

    #[test]
    fn table5_row_stratix_set_a() {
        let a = derive_arch(&Board::stratix10(), ParamSet::SetA).unwrap();
        assert_eq!(a.summary(), DesignPoint::PAPER_ARCHS[1]);
    }

    #[test]
    fn table5_row_stratix_set_b() {
        let a = derive_arch(&Board::stratix10(), ParamSet::SetB).unwrap();
        assert_eq!(a.summary(), DesignPoint::PAPER_ARCHS[2]);
    }

    #[test]
    fn table5_row_stratix_set_c() {
        let a = derive_arch(&Board::stratix10(), ParamSet::SetC).unwrap();
        assert_eq!(a.summary(), DesignPoint::PAPER_ARCHS[3]);
    }

    #[test]
    fn all_paper_rows_fit_their_boards() {
        for dp in DesignPoint::paper_rows() {
            let r = dp.resources();
            assert!(
                r.fits_within(dp.board.budget()),
                "{} {} does not fit: {r}",
                dp.board.name(),
                dp.set
            );
        }
    }

    #[test]
    fn stratix_set_a_doubles_arria_throughput_cores() {
        // Section 6.3 "Scalability": the Stratix instantiation has ~2× the
        // cores of the Arria one for the same parameter set.
        let a = derive_arch(&Board::arria10(), ParamSet::SetA).unwrap();
        let s = derive_arch(&Board::stratix10(), ParamSet::SetA).unwrap();
        assert_eq!(s.nc_intt0, 2 * a.nc_intt0);
        assert_eq!(s.nc_ntt0, 2 * a.nc_ntt0);
        assert_eq!(s.nc_dyad, 2 * a.nc_dyad);
    }

    #[test]
    fn dyad_throughput_inequality_holds() {
        // 2n/ncDYD ≤ n·log n/(2·ncNTT0) for every derived row.
        for dp in DesignPoint::paper_rows() {
            let a = &dp.arch;
            assert!(
                a.dyad_cycles() <= a.ntt0_cycles(),
                "{}: dyad {} > ntt0 {}",
                a.summary(),
                a.dyad_cycles(),
                a.ntt0_cycles()
            );
        }
    }

    #[test]
    fn core_counts_positive() {
        let dp = DesignPoint::derive(Board::stratix10(), ParamSet::SetB).unwrap();
        for kind in CoreKind::ALL {
            assert!(dp.core_count(kind) > 0);
        }
        assert!(dp.ntt_config().num_cores == 16);
        assert!(dp.mult_config().num_cores == 16);
    }
}
