//! # heax-hw
//!
//! Hardware component models and cycle-accurate dataflow simulators for
//! the HEAX FPGA architecture (ASPLOS 2020):
//!
//! * [`board`] — the two evaluation boards (Table 1);
//! * [`resources`] — DSP/REG/ALM/BRAM accounting;
//! * [`cores`] — Dyadic/NTT/INTT core cost and functional models (Table 3);
//! * [`bram`] — M20K block-RAM and word-packing model (Section 4.2);
//! * [`ntt_dataflow`] — the banked-memory NTT/INTT module simulator
//!   (Figures 2–4), bit-exact against the software NTT;
//! * [`mult_dataflow`] — the MULT module simulator (Figure 1);
//! * [`keyswitch_pipeline`] — the KeySwitch module pipeline scheduler
//!   (Figures 5–6), reproducing the Table 8 initiation intervals;
//! * [`xfer`] — PCIe and DRAM transfer models (Section 5);
//! * [`ir`] — the shared op-stream IR (ops, operand placement,
//!   session/key identity, dependency edges) that serving layers lower
//!   requests into and every scheduler consumes;
//! * [`scheduler`] — the board-level pipeline scheduler composing the
//!   module models into multi-core schedules with overlapped PCIe/DRAM
//!   transfers (Figure 7), reporting per-stage utilization and stalls;
//!   one door, [`PipelineConfig::schedule_stream`](scheduler::PipelineConfig::schedule_stream);
//! * [`cluster`] — the multi-board cluster scheduler: a front-end
//!   router with session→board key affinity, work stealing and
//!   key-replication cost modeling over N single-board pipelines; one
//!   door, [`ClusterConfig::schedule_stream_faulted`](cluster::ClusterConfig::schedule_stream_faulted),
//!   of which `schedule_stream` is the fault-free default;
//! * [`faults`] — seeded, deterministic fault schedules (board crash,
//!   slow-down, link flap, DMA degradation, ksk corruption) that the
//!   cluster scheduler replays with graceful degradation.
//!
//! This crate is deliberately independent of the CKKS scheme: it moves raw
//! residue polynomials. `heax-core` composes these models into a full
//! accelerator and checks them against `heax-ckks`.
//!
//! ## Example: from one module's cycle count to a board schedule
//!
//! ```
//! use heax_hw::board::Board;
//! use heax_hw::keyswitch_pipeline::KeySwitchArch;
//! use heax_hw::mult_dataflow::MultModuleConfig;
//! use heax_hw::ir::IrOp;
//! use heax_hw::ntt_dataflow::NttModuleConfig;
//! use heax_hw::scheduler::PipelineConfig;
//!
//! # fn main() -> Result<(), heax_hw::HwError> {
//! // A 16-core NTT module at n = 4096 sustains one transform per
//! // n·log n / (2·nc) = 1536 cycles (Table 7).
//! assert_eq!(NttModuleConfig::new(4096, 16)?.transform_cycles(), 1536);
//!
//! // The same formulas drive the board-level schedule: Set-A on
//! // Stratix 10, two HEAX cores, four rotations.
//! let arch = KeySwitchArch {
//!     n: 4096, k: 2, nc_intt0: 16, m0: 2, nc_ntt0: 16,
//!     num_dyad: 3, nc_dyad: 8, nc_intt1: 8, nc_ntt1: 16, nc_ms: 4,
//! };
//! let config = PipelineConfig::new(
//!     &Board::stratix10(), arch, MultModuleConfig::new(4096, 16)?, 2)?;
//! let report = config.schedule_stream(&[IrOp::rotate_many(4)])?;
//! assert_eq!(report.requests(), 4);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod board;
pub mod bram;
pub mod cluster;
pub mod cores;
pub mod faults;
pub mod ir;
pub mod keyswitch_pipeline;
pub mod mult_dataflow;
pub mod ntt_dataflow;
pub mod resources;
pub mod scheduler;
pub mod wordsize;
pub mod xfer;

use core::fmt;

/// Errors produced by the hardware models.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum HwError {
    /// A module configuration is structurally invalid.
    InvalidConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// A modulus exceeds the 54-bit datapath's 52-bit bound (Section 4).
    ModulusTooWide {
        /// The modulus value.
        modulus: u64,
        /// Its width in bits.
        bits: u32,
        /// The datapath bound.
        max_bits: u32,
    },
    /// A design does not fit the board's resource budget.
    ResourceOverflow {
        /// Which resource overflowed.
        resource: &'static str,
        /// Amount required.
        required: u64,
        /// Amount available.
        available: u64,
    },
}

impl fmt::Display for HwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidConfig { reason } => write!(f, "invalid hardware config: {reason}"),
            Self::ModulusTooWide {
                modulus,
                bits,
                max_bits,
            } => write!(
                f,
                "modulus {modulus} is {bits} bits; the 54-bit datapath supports at most {max_bits}"
            ),
            Self::ResourceOverflow {
                resource,
                required,
                available,
            } => write!(
                f,
                "design needs {required} {resource} but the chip has {available}"
            ),
        }
    }
}

impl std::error::Error for HwError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = HwError::ResourceOverflow {
            resource: "DSP",
            required: 2000,
            available: 1518,
        };
        assert!(e.to_string().contains("DSP"));
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<HwError>();
    }
}
