//! Board-level pipeline scheduler: composes the per-module dataflow
//! models into the machine the paper actually evaluates (Section 5,
//! Figure 7).
//!
//! The per-module simulators answer "how many cycles does one NTT /
//! MULT / KeySwitch take"; this module answers "what does the *board*
//! sustain": an [`ir`](crate::ir) op stream (multiply, relinearize,
//! rotate — including hoisted multi-rotation groups, rescale) is
//! lowered onto a configurable number of fully-pipelined HEAX cores,
//! with host↔board PCIe transfers running on their own DMA channels so
//! data movement overlaps compute, double-buffered per-core input
//! FIFOs (Section 5.2), and key-switching keys optionally streamed
//! from board DRAM per operation (Section 5.1).
//!
//! The model is deliberately *not* another functional simulator: stage
//! durations come from the closed-form cycle counts that the
//! cycle-accurate simulators of [`ntt_dataflow`](crate::ntt_dataflow),
//! [`mult_dataflow`](crate::mult_dataflow) and
//! [`keyswitch_pipeline`](crate::keyswitch_pipeline) validate, and the
//! scheduler plays them forward as a discrete-event simulation over
//! three contended resources — the cores, the host→board DMA channel,
//! and the board→host DMA channel. The output is a [`PipelineReport`]:
//! per-op timings, per-stage utilization, input-FIFO high-water, and a
//! stall breakdown that says *why* the machine is not faster
//! (compute-bound vs PCIe-bound).
//!
//! ```
//! use heax_hw::scheduler::{BoardOp, PipelineConfig};
//! use heax_hw::board::Board;
//! use heax_hw::keyswitch_pipeline::KeySwitchArch;
//! use heax_hw::mult_dataflow::MultModuleConfig;
//!
//! # fn main() -> Result<(), heax_hw::HwError> {
//! // Stratix 10 / Set-B KeySwitch architecture (a Table 5 row).
//! let arch = KeySwitchArch {
//!     n: 8192, k: 4, nc_intt0: 16, m0: 4, nc_ntt0: 16,
//!     num_dyad: 5, nc_dyad: 8, nc_intt1: 4, nc_ntt1: 16, nc_ms: 4,
//! };
//! let mult = MultModuleConfig::new(8192, 16)?;
//! let config = PipelineConfig::new(&Board::stratix10(), arch, mult, 2)?;
//! // Two hoisted 4-rotation groups over two cores.
//! let ops = vec![BoardOp::rotate_many(4), BoardOp::rotate_many(4)];
//! let report = config.schedule_stream(&ops)?;
//! assert_eq!(report.requests(), 8);
//! assert!(report.requests_per_sec() > 0.0);
//! # Ok(())
//! # }
//! ```

use crate::board::Board;
use crate::faults::BoardFaultProfile;
use crate::keyswitch_pipeline::KeySwitchArch;
use crate::mult_dataflow::MultModuleConfig;
use crate::xfer::{DramModel, PcieModel};
use crate::HwError;

pub use crate::ir::{IrOp as BoardOp, OpKind as BoardOpKind};

/// Compute/transfer stage classes, for utilization attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageClass {
    /// Host→board PCIe DMA.
    XferIn,
    /// MULT module pass (all residues).
    Mult,
    /// Full KeySwitch interval (decompose + accumulate + tail).
    KeySwitch,
    /// Hoisted-rotation tail (accumulate + modulus switch only).
    HoistedTail,
    /// Rescale / modulus-switch tail.
    Rescale,
    /// Dyadic element-wise pass (addition).
    Dyadic,
    /// Board→host PCIe DMA.
    XferOut,
}

impl StageClass {
    /// All classes, display order.
    pub const ALL: [StageClass; 7] = [
        StageClass::XferIn,
        StageClass::Mult,
        StageClass::KeySwitch,
        StageClass::HoistedTail,
        StageClass::Rescale,
        StageClass::Dyadic,
        StageClass::XferOut,
    ];

    /// Stable label.
    pub fn name(self) -> &'static str {
        match self {
            StageClass::XferIn => "xfer-in",
            StageClass::Mult => "mult",
            StageClass::KeySwitch => "keyswitch",
            StageClass::HoistedTail => "hoisted-tail",
            StageClass::Rescale => "rescale",
            StageClass::Dyadic => "dyadic",
            StageClass::XferOut => "xfer-out",
        }
    }
}

/// Static configuration of the board pipeline: how many HEAX cores the
/// design instantiates, the per-core module architecture, and the
/// board's transfer characteristics.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineConfig {
    /// Number of replicated HEAX cores (KeySwitch + MULT datapath each).
    pub num_cores: usize,
    /// The KeySwitch architecture of each core (a Table 5 row).
    pub arch: KeySwitchArch,
    /// The MULT module of each core.
    pub mult: MultModuleConfig,
    /// Board clock in MHz (converts transfer times into cycles).
    pub freq_mhz: f64,
    /// Host↔board PCIe link model (one DMA channel per direction).
    pub pcie: PcieModel,
    /// Board DRAM model (key streaming, Section 5.1).
    pub dram: DramModel,
    /// Whether key-switching keys are streamed from DRAM per operation
    /// (Set-C) instead of living in on-chip BRAM (Set-A/B). When the
    /// stream cannot keep up with the compute interval, the KeySwitch
    /// stages dilate to the DRAM-limited rate.
    pub ksk_in_dram: bool,
    /// Per-core input-FIFO depth in operation buffers (Section 5.2
    /// prescribes double buffering; the scheduler enforces the
    /// backpressure this depth implies).
    pub input_fifo_depth: usize,
}

impl PipelineConfig {
    /// Builds a validated configuration from a board and the per-core
    /// module architecture, with the paper's double-buffered inputs and
    /// on-chip keys.
    ///
    /// # Errors
    ///
    /// [`HwError::InvalidConfig`] if `num_cores` is zero, the
    /// architecture is invalid, or the MULT module's ring degree
    /// disagrees with the KeySwitch architecture's.
    pub fn new(
        board: &Board,
        arch: KeySwitchArch,
        mult: MultModuleConfig,
        num_cores: usize,
    ) -> Result<Self, HwError> {
        if num_cores == 0 {
            return Err(HwError::InvalidConfig {
                reason: "board pipeline needs at least one core".into(),
            });
        }
        arch.validate()?;
        if mult.n != arch.n {
            return Err(HwError::InvalidConfig {
                reason: format!(
                    "MULT ring degree {} disagrees with KeySwitch ring degree {}",
                    mult.n, arch.n
                ),
            });
        }
        Ok(Self {
            num_cores,
            arch,
            mult,
            freq_mhz: board.freq_mhz(),
            pcie: PcieModel::for_board(board),
            dram: DramModel::for_board(board),
            ksk_in_dram: false,
            input_fifo_depth: 2,
        })
    }

    /// Builder option: stream key-switching keys from DRAM (Set-C).
    #[must_use]
    pub fn with_ksk_in_dram(mut self, in_dram: bool) -> Self {
        self.ksk_in_dram = in_dram;
        self
    }

    /// Builder option: per-core input-FIFO depth (≥ 1).
    #[must_use]
    pub fn with_input_fifo_depth(mut self, depth: usize) -> Self {
        self.input_fifo_depth = depth.max(1);
        self
    }

    fn us_to_cycles(&self, us: f64) -> u64 {
        (us * self.freq_mhz).ceil() as u64
    }

    /// PCIe transfer duration in cycles for `words` 64-bit words, split
    /// into polynomial-sized DMA requests.
    fn xfer_cycles(&self, words: u64) -> u64 {
        if words == 0 {
            return 0;
        }
        let requests = (words / self.arch.n as u64).max(1);
        self.us_to_cycles(self.pcie.transfer_us(words, requests))
    }

    /// Cycles to stream one key-switching key from DRAM (0 when keys
    /// are on-chip).
    fn ksk_stream_cycles(&self) -> u64 {
        if !self.ksk_in_dram {
            return 0;
        }
        let bytes = DramModel::ksk_bits(self.arch.n, self.arch.k) as f64 / 8.0;
        self.us_to_cycles(bytes / (self.dram.bandwidth_gbps * 1e3))
    }

    /// Occupancy of the rescale / modulus-switch tail: INTT1, then `k`
    /// NTT1 and MS jobs per output polynomial, bounded by the slowest
    /// of the three module layers (they pipeline against each other).
    fn rescale_cycles(&self) -> u64 {
        let k = self.arch.k as u64;
        self.arch
            .intt1_cycles()
            .max(k * self.arch.ntt1_cycles())
            .max(k * self.arch.ms_cycles())
    }

    /// Cycles to move one key-switching key host→board over PCIe (the
    /// replication cost a cluster router charges on a residency miss,
    /// and the recovery latency of a failover re-replication).
    pub fn ksk_upload_cycles(&self) -> u64 {
        let words = DramModel::ksk_bits(self.arch.n, self.arch.k) / 64;
        self.xfer_cycles(words)
    }

    /// Compute cycles one op occupies a core for (no transfers) — the
    /// load estimate the cluster router balances boards by.
    ///
    /// # Errors
    ///
    /// [`HwError::InvalidConfig`] for malformed ops (empty hoisted
    /// groups).
    pub fn op_compute_cycles(&self, op: &BoardOp) -> Result<u64, HwError> {
        Ok(self.lower(op)?.compute.iter().map(|&(_, c)| c).sum())
    }

    /// Lowers one high-level op into transfer volumes and compute
    /// stages. All volumes are modeled at the top of the modulus chain
    /// (`k` residue limbs per polynomial) — the level the paper
    /// evaluates throughput at.
    fn lower(&self, op: &BoardOp) -> Result<LoweredOp, HwError> {
        let n = self.arch.n as u64;
        let k = self.arch.k as u64;
        let ct = 2 * k * n; // 2-component ciphertext, k limbs each
        let ks = self
            .arch
            .steady_interval_cycles()
            .max(self.ksk_stream_cycles());
        let tail = self
            .arch
            .hoisted_interval_cycles()
            .max(self.ksk_stream_cycles());
        let (label, in_words, out_words, compute) = match op.kind {
            BoardOpKind::Multiply => (
                "multiply",
                2 * ct,
                ct,
                vec![
                    (StageClass::Mult, k * self.mult.ciphertext_mult_cycles(2, 2)),
                    (StageClass::KeySwitch, ks),
                ],
            ),
            BoardOpKind::Relinearize => (
                "relinearize",
                3 * k * n,
                ct,
                vec![(StageClass::KeySwitch, ks)],
            ),
            BoardOpKind::Rotate => ("rotate", ct, ct, vec![(StageClass::KeySwitch, ks)]),
            BoardOpKind::RotateMany {
                count,
                parked_outputs,
            } => {
                if count == 0 {
                    return Err(HwError::InvalidConfig {
                        reason: "hoisted rotation group must contain at least one rotation".into(),
                    });
                }
                if parked_outputs > count {
                    return Err(HwError::InvalidConfig {
                        reason: format!(
                            "hoisted group parks {parked_outputs} outputs but only has {count}"
                        ),
                    });
                }
                (
                    "rotate-many",
                    ct,
                    (count - parked_outputs) as u64 * ct,
                    vec![
                        (StageClass::KeySwitch, ks),
                        (StageClass::HoistedTail, (count as u64 - 1) * tail),
                    ],
                )
            }
            BoardOpKind::Rescale => (
                "rescale",
                ct,
                2 * k.saturating_sub(1).max(1) * n,
                vec![(StageClass::Rescale, self.rescale_cycles())],
            ),
            BoardOpKind::Add => (
                "add",
                2 * ct,
                ct,
                vec![(StageClass::Dyadic, 2 * k * self.mult.pair_cycles())],
            ),
            // Pure movement: an inline operand pays the upload (the
            // upload-and-park serving pattern), a parked one doesn't;
            // park_output below cancels the return leg.
            BoardOpKind::Fetch => ("fetch", ct, ct, Vec::new()),
        };
        // Wire-v2 byte economics. A seeded fresh operand ships one
        // polynomial plus a 32-byte seed instead of two polynomials, so
        // the host→board ciphertext volume halves (the seed itself is 4
        // words — noise at these sizes). A compressed reply returns only
        // `reply_limbs` of the `k` residue limbs after the server's
        // modulus switch (limb-dropping is free of compute: it never
        // touches the remaining residues), scaling the board→host volume
        // proportionally.
        let in_words = if op.input_seeded {
            in_words / 2
        } else {
            in_words
        };
        let out_words = match op.reply_limbs as u64 {
            limbs if limbs > 0 && limbs < k => out_words * limbs / k,
            _ => out_words,
        };
        // A ksk upload (cluster residency miss) rides the host→board
        // channel ahead of the op's data, even when the ciphertext
        // operands themselves are already parked on the board.
        let ksk_cycles = if op.ksk_upload {
            self.ksk_upload_cycles()
        } else {
            0
        };
        Ok(LoweredOp {
            label,
            requests: op.requests(),
            in_cycles: ksk_cycles
                + if op.input_parked {
                    0
                } else {
                    self.xfer_cycles(in_words)
                },
            out_cycles: if op.park_output {
                0
            } else {
                self.xfer_cycles(out_words)
            },
            compute,
        })
    }

    /// Schedules an op stream across the board: greedy in stream order,
    /// each op placed on the earliest-available core, host→board and
    /// board→host DMA serialized on their own channels, per-core input
    /// FIFOs `input_fifo_depth` deep (an op's input transfer cannot
    /// start until a buffer slot frees). Dependency edges
    /// ([`BoardOp::deps`]) delay an op's compute until every
    /// producer's compute has finished.
    ///
    /// # Errors
    ///
    /// [`HwError::InvalidConfig`] for malformed ops (empty hoisted
    /// groups, or a dependency edge that does not point strictly
    /// backwards in the stream).
    pub fn schedule_stream(&self, ops: &[BoardOp]) -> Result<PipelineReport, HwError> {
        self.schedule_stream_degraded(ops, &BoardFaultProfile::default())
    }

    /// [`PipelineConfig::schedule_stream`] under an injected
    /// degradation profile: every compute stage dilates by the
    /// profile's compute slow-down, each DMA transfer dilates by its
    /// channel's slow-down and pays the flat link-stall on top.
    /// Degradation reshapes *timing only* — op order, placement rules
    /// and data volumes are untouched, so a degraded schedule answers
    /// exactly the same requests as a healthy one, later. A healthy
    /// (default) profile is bit-identical to
    /// [`PipelineConfig::schedule_stream`]
    /// (which delegates here).
    ///
    /// # Errors
    ///
    /// [`HwError::InvalidConfig`] for malformed ops, as
    /// [`PipelineConfig::schedule_stream`].
    pub fn schedule_stream_degraded(
        &self,
        ops: &[BoardOp],
        profile: &BoardFaultProfile,
    ) -> Result<PipelineReport, HwError> {
        for (index, op) in ops.iter().enumerate() {
            for dep in op.dep_indices() {
                if dep >= index {
                    return Err(HwError::InvalidConfig {
                        reason: format!("op {index} depends on non-earlier op {dep}"),
                    });
                }
            }
        }
        let mut lowered: Vec<LoweredOp> = ops
            .iter()
            .map(|op| self.lower(op))
            .collect::<Result<_, _>>()?;
        if !profile.is_healthy() {
            for op in &mut lowered {
                if op.in_cycles > 0 {
                    op.in_cycles =
                        BoardFaultProfile::dilate(op.in_cycles, profile.dma_in_slowdown_pct)
                            .saturating_add(profile.link_stall_cycles);
                }
                if op.out_cycles > 0 {
                    op.out_cycles =
                        BoardFaultProfile::dilate(op.out_cycles, profile.dma_out_slowdown_pct)
                            .saturating_add(profile.link_stall_cycles);
                }
                for (_, cycles) in &mut op.compute {
                    *cycles = BoardFaultProfile::dilate(*cycles, profile.compute_slowdown_pct);
                }
            }
        }

        let mut xfer_in_free = 0u64;
        let mut xfer_out_free = 0u64;
        let mut core_free = vec![0u64; self.num_cores];
        // Per-core compute-end history, for FIFO backpressure: the
        // transfer for a core's j-th op may start only once its buffer
        // slot is free, i.e. when the (j-depth)-th op on that core has
        // finished consuming its own slot.
        let mut core_history: Vec<Vec<u64>> = vec![Vec::new(); self.num_cores];
        let mut timings: Vec<OpTiming> = Vec::with_capacity(lowered.len());
        let mut stage_busy: Vec<(StageClass, u64)> =
            StageClass::ALL.iter().map(|&s| (s, 0)).collect();
        let add_busy = |class: StageClass, cycles: u64, busy: &mut Vec<(StageClass, u64)>| {
            if let Some((_, b)) = busy.iter_mut().find(|(s, _)| *s == class) {
                *b += cycles;
            }
        };

        for (index, op) in lowered.iter().enumerate() {
            // Earliest-available core (ties: lowest index).
            let core = core_free
                .iter()
                .enumerate()
                .min_by_key(|&(i, &t)| (t, i))
                .map(|(i, _)| i)
                .expect("num_cores >= 1");
            let slot = core_history[core]
                .len()
                .checked_sub(self.input_fifo_depth)
                .map(|j| core_history[core][j])
                .unwrap_or(0);

            // Parked inputs need no DMA slot and cannot be delayed by
            // the host→board channel.
            let (in_start, in_end, fifo_stall) = if op.in_cycles > 0 {
                let fifo_stall = slot.saturating_sub(xfer_in_free);
                let s = xfer_in_free.max(slot);
                let e = s + op.in_cycles;
                xfer_in_free = e;
                add_busy(StageClass::XferIn, op.in_cycles, &mut stage_busy);
                (s, e, fifo_stall)
            } else {
                (0, 0, 0)
            };

            let compute_cycles: u64 = op.compute.iter().map(|&(_, c)| c).sum();
            // A dependency edge means this op reads an earlier op's
            // board-resident result: compute cannot start before every
            // producer's compute has finished.
            let deps_ready = ops[index]
                .dep_indices()
                .map(|d| timings[d].compute.1)
                .max()
                .unwrap_or(0);
            let ready = core_free[core].max(deps_ready);
            let compute_start = ready.max(in_end);
            let input_stall = in_end.saturating_sub(ready);
            let compute_end = compute_start + compute_cycles;
            core_free[core] = compute_end;
            core_history[core].push(compute_end);
            for &(class, cycles) in &op.compute {
                add_busy(class, cycles, &mut stage_busy);
            }

            let out_start = if op.out_cycles > 0 {
                xfer_out_free.max(compute_end)
            } else {
                compute_end
            };
            let output_stall = out_start - compute_end;
            let out_end = out_start + op.out_cycles;
            if op.out_cycles > 0 {
                xfer_out_free = out_end;
                add_busy(StageClass::XferOut, op.out_cycles, &mut stage_busy);
            }

            timings.push(OpTiming {
                index,
                label: op.label,
                core,
                requests: op.requests,
                xfer_in: (in_start, in_end),
                compute: (compute_start, compute_end),
                xfer_out: (out_start, out_end),
                input_stall,
                output_stall,
                fifo_stall,
            });
        }

        // Input-FIFO high-water per core: buffers are live from the
        // start of the input transfer until compute releases them.
        // Event sweep (O(n log n)) — cluster-scale streams run to tens
        // of thousands of ops, where the naive pairwise overlap count
        // would dominate the schedule itself. Releases sort before
        // acquisitions at equal time (half-open [start, end) spans).
        let mut fifo_high_water = 0u64;
        for core in 0..self.num_cores {
            let mut events: Vec<(u64, i64)> = Vec::new();
            for t in timings.iter().filter(|t| t.core == core) {
                if t.xfer_in.1 > t.xfer_in.0 && t.compute.1 > t.xfer_in.0 {
                    events.push((t.xfer_in.0, 1));
                    events.push((t.compute.1, -1));
                }
            }
            events.sort_unstable_by_key(|&(time, delta)| (time, delta));
            let mut live = 0i64;
            for (_, delta) in events {
                live += delta;
                fifo_high_water = fifo_high_water.max(live.max(0) as u64);
            }
        }

        let total_cycles = timings
            .iter()
            .map(|t| t.compute.1.max(t.xfer_out.1))
            .max()
            .unwrap_or(0);
        Ok(PipelineReport {
            num_cores: self.num_cores,
            freq_mhz: self.freq_mhz,
            total_cycles,
            ops: timings,
            stage_busy,
            fifo_high_water,
        })
    }
}

/// One lowered op: transfer durations plus compute stages.
#[derive(Clone, Debug)]
struct LoweredOp {
    label: &'static str,
    requests: u64,
    in_cycles: u64,
    out_cycles: u64,
    compute: Vec<(StageClass, u64)>,
}

/// Timing of one scheduled op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpTiming {
    /// Position in the op stream.
    pub index: usize,
    /// Op label (`"rotate-many"`, …).
    pub label: &'static str,
    /// Core the compute ran on.
    pub core: usize,
    /// Client requests answered by this op.
    pub requests: u64,
    /// Host→board transfer `[start, end)` in cycles (empty if parked).
    pub xfer_in: (u64, u64),
    /// Compute occupancy `[start, end)` on the core.
    pub compute: (u64, u64),
    /// Board→host transfer `[start, end)` (empty if parked).
    pub xfer_out: (u64, u64),
    /// Cycles the core sat idle waiting for this op's input data.
    pub input_stall: u64,
    /// Cycles the finished result waited for the board→host channel.
    pub output_stall: u64,
    /// Cycles the input DMA waited for a free FIFO buffer slot.
    pub fifo_stall: u64,
}

/// Aggregate stall breakdown of a schedule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Core idle cycles waiting on input transfers.
    pub input_wait: u64,
    /// Result cycles waiting on the board→host channel.
    pub output_wait: u64,
    /// Input-DMA cycles waiting on FIFO backpressure.
    pub fifo_backpressure: u64,
}

/// The scheduler's answer: per-op timings plus aggregate occupancy,
/// utilization, FIFO, and stall figures.
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// Cores the stream was scheduled across.
    pub num_cores: usize,
    /// Board clock in MHz.
    pub freq_mhz: f64,
    /// Makespan: cycle at which the last result lands.
    pub total_cycles: u64,
    /// Per-op timings, stream order.
    pub ops: Vec<OpTiming>,
    /// Busy cycles per stage class (summed across cores/channels).
    pub stage_busy: Vec<(StageClass, u64)>,
    /// Deepest any core's input FIFO ever got (operation buffers).
    pub fifo_high_water: u64,
}

impl PipelineReport {
    /// Total client requests answered.
    pub fn requests(&self) -> u64 {
        self.ops.iter().map(|t| t.requests).sum()
    }

    /// Makespan in microseconds at the board clock.
    pub fn total_us(&self) -> f64 {
        self.total_cycles as f64 / self.freq_mhz
    }

    /// Sustained high-level operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.ops.len() as f64 / (self.total_us() / 1e6)
    }

    /// Sustained client requests per second (hoisted groups answer one
    /// request per rotation).
    pub fn requests_per_sec(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.requests() as f64 / (self.total_us() / 1e6)
    }

    /// Busy cycles of one stage class.
    pub fn busy(&self, class: StageClass) -> u64 {
        self.stage_busy
            .iter()
            .find(|(s, _)| *s == class)
            .map(|&(_, b)| b)
            .unwrap_or(0)
    }

    /// Aggregate core compute busy cycles (all compute classes).
    pub fn core_busy(&self) -> u64 {
        self.stage_busy
            .iter()
            .filter(|(s, _)| !matches!(s, StageClass::XferIn | StageClass::XferOut))
            .map(|&(_, b)| b)
            .sum()
    }

    /// Fraction of core-cycles spent computing (1.0 = every core busy
    /// for the whole makespan).
    pub fn core_utilization(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.core_busy() as f64 / (self.num_cores as u64 * self.total_cycles) as f64
    }

    /// Utilization of one stage class against the makespan (transfer
    /// classes have one channel; compute classes are normalized by the
    /// core count).
    pub fn stage_utilization(&self, class: StageClass) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        let units = match class {
            StageClass::XferIn | StageClass::XferOut => 1,
            _ => self.num_cores as u64,
        };
        self.busy(class) as f64 / (units * self.total_cycles) as f64
    }

    /// Aggregate stall breakdown.
    pub fn stalls(&self) -> StallBreakdown {
        let mut s = StallBreakdown::default();
        for t in &self.ops {
            s.input_wait += t.input_stall;
            s.output_wait += t.output_stall;
            s.fifo_backpressure += t.fifo_stall;
        }
        s
    }

    /// What binds the makespan: `"compute"`, `"pcie-in"`, or
    /// `"pcie-out"` — whichever resource is busiest relative to its
    /// capacity.
    pub fn bound(&self) -> &'static str {
        let compute = self.core_utilization();
        let xin = self.stage_utilization(StageClass::XferIn);
        let xout = self.stage_utilization(StageClass::XferOut);
        if compute >= xin && compute >= xout {
            "compute"
        } else if xout >= xin {
            "pcie-out"
        } else {
            "pcie-in"
        }
    }

    /// Renders the report as a human-readable summary block (the
    /// artifact `accelerator_sim` prints).
    pub fn render(&self) -> String {
        let mut out = format!(
            "board pipeline: {} core(s) @ {:.0} MHz — {} op(s) / {} request(s)\n\
             makespan {} cycles ({:.1} us) -> {:.0} requests/s  [{}-bound]\n\
             core utilization {:.1}%  input-FIFO high-water {}\n",
            self.num_cores,
            self.freq_mhz,
            self.ops.len(),
            self.requests(),
            self.total_cycles,
            self.total_us(),
            self.requests_per_sec(),
            self.bound(),
            100.0 * self.core_utilization(),
            self.fifo_high_water,
        );
        let stalls = self.stalls();
        out.push_str(&format!(
            "stalls: input-wait {}  output-wait {}  fifo-backpressure {}\n",
            stalls.input_wait, stalls.output_wait, stalls.fifo_backpressure
        ));
        out.push_str("stage        busy-cycles  utilization\n");
        for &(class, busy) in &self.stage_busy {
            if busy == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<12} {:>11}  {:>10.1}%\n",
                class.name(),
                busy,
                100.0 * self.stage_utilization(class)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xfer::WORD_BYTES;

    /// Table 5 row: Stratix 10, Set-B (n = 2^13, k = 4).
    fn set_b() -> KeySwitchArch {
        KeySwitchArch {
            n: 8192,
            k: 4,
            nc_intt0: 16,
            m0: 4,
            nc_ntt0: 16,
            num_dyad: 5,
            nc_dyad: 8,
            nc_intt1: 4,
            nc_ntt1: 16,
            nc_ms: 4,
        }
    }

    /// Table 5 row: Stratix 10, Set-C (n = 2^14, k = 8) — the
    /// DRAM-streamed-keys configuration.
    fn set_c() -> KeySwitchArch {
        KeySwitchArch {
            n: 16384,
            k: 8,
            nc_intt0: 8,
            m0: 4,
            nc_ntt0: 16,
            num_dyad: 5,
            nc_dyad: 8,
            nc_intt1: 1,
            nc_ntt1: 8,
            nc_ms: 4,
        }
    }

    fn config(arch: KeySwitchArch, cores: usize) -> PipelineConfig {
        let mult = MultModuleConfig::new(arch.n, 16).unwrap();
        PipelineConfig::new(&Board::stratix10(), arch, mult, cores).unwrap()
    }

    /// The 8-client × 8-rotation server workload as a board op stream:
    /// one hoisted group per client.
    fn eight_client_workload() -> Vec<BoardOp> {
        vec![BoardOp::rotate_many(8); 8]
    }

    #[test]
    fn config_validation() {
        let arch = set_b();
        let mult = MultModuleConfig::new(8192, 16).unwrap();
        assert!(PipelineConfig::new(&Board::stratix10(), arch, mult, 0).is_err());
        let wrong_n = MultModuleConfig::new(4096, 16).unwrap();
        assert!(PipelineConfig::new(&Board::stratix10(), arch, wrong_n, 1).is_err());
        assert!(config(arch, 1)
            .schedule_stream(&[BoardOp::rotate_many(0)])
            .is_err());
    }

    #[test]
    fn single_op_timeline() {
        let cfg = config(set_b(), 1);
        let r = cfg
            .schedule_stream(&[BoardOp::new(BoardOpKind::Rotate)])
            .unwrap();
        assert_eq!(r.ops.len(), 1);
        let t = &r.ops[0];
        // Transfer in, then compute, then transfer out, no overlap
        // possible for a lone op.
        assert!(t.xfer_in.1 > t.xfer_in.0);
        assert_eq!(t.compute.0, t.xfer_in.1);
        assert_eq!(t.compute.1 - t.compute.0, cfg.arch.steady_interval_cycles());
        assert_eq!(t.xfer_out.0, t.compute.1);
        assert_eq!(r.total_cycles, t.xfer_out.1);
        assert_eq!(r.requests(), 1);
        assert_eq!(r.fifo_high_water, 1);
    }

    #[test]
    fn v2_flags_shrink_the_transfer_legs() {
        let cfg = config(set_b(), 1);
        let rot = BoardOp::new(BoardOpKind::Rotate);
        let full = cfg.schedule_stream(&[rot]).unwrap();
        let full_in = full.ops[0].xfer_in.1 - full.ops[0].xfer_in.0;
        let full_out = full.ops[0].xfer_out.1 - full.ops[0].xfer_out.0;

        // Seeded input: roughly half the host→board leg.
        let seeded = cfg.schedule_stream(&[rot.with_seeded_input()]).unwrap();
        let seeded_in = seeded.ops[0].xfer_in.1 - seeded.ops[0].xfer_in.0;
        assert!(seeded_in < full_in);
        assert!(seeded_in <= full_in / 2 + full_in / 8, "expected ~half");

        // Compressed reply: the board→host leg scales by limbs/k.
        let compressed = cfg.schedule_stream(&[rot.with_reply_limbs(1)]).unwrap();
        let comp_out = compressed.ops[0].xfer_out.1 - compressed.ops[0].xfer_out.0;
        assert!(comp_out < full_out / 2);

        // Full-width replies (0 or >= k) change nothing.
        for limbs in [0u8, cfg.arch.k as u8, u8::MAX] {
            let r = cfg.schedule_stream(&[rot.with_reply_limbs(limbs)]).unwrap();
            assert_eq!(
                r.ops[0].xfer_out.1 - r.ops[0].xfer_out.0,
                full_out,
                "limbs {limbs}"
            );
        }
    }

    #[test]
    fn double_buffering_overlaps_transfer_with_compute() {
        let cfg = config(set_b(), 1);
        let ops = vec![BoardOp::new(BoardOpKind::Rotate); 4];
        let r = cfg.schedule_stream(&ops).unwrap();
        // Op 1's input transfer starts while op 0 is still computing.
        assert!(r.ops[1].xfer_in.0 < r.ops[0].compute.1);
        // Steady state: back-to-back rotations on one core are spaced
        // by the KeySwitch interval (transfers hidden).
        let interval = cfg.arch.steady_interval_cycles();
        assert_eq!(r.ops[3].compute.0 - r.ops[2].compute.0, interval);
        // FIFO never exceeds the configured double buffering.
        assert!(r.fifo_high_water <= cfg.input_fifo_depth as u64);
    }

    #[test]
    fn fifo_depth_one_serializes_transfers() {
        let cfg = config(set_b(), 1).with_input_fifo_depth(1);
        let ops = vec![BoardOp::new(BoardOpKind::Rotate); 3];
        let r = cfg.schedule_stream(&ops).unwrap();
        // With a single buffer, op 1's transfer must wait for op 0's
        // compute to release it.
        assert!(r.ops[1].xfer_in.0 >= r.ops[0].compute.1);
        assert!(r.stalls().fifo_backpressure > 0);
        // Double buffering strictly beats it.
        let r2 = config(set_b(), 1).schedule_stream(&ops).unwrap();
        assert!(r2.total_cycles < r.total_cycles);
    }

    #[test]
    fn multi_core_overlaps_compute() {
        let ops = eight_client_workload();
        let one = config(set_c(), 1).schedule_stream(&ops).unwrap();
        let two = config(set_c(), 2).schedule_stream(&ops).unwrap();
        assert!(two.total_cycles < one.total_cycles);
        // Ops actually land on both cores.
        assert!(two.ops.iter().any(|t| t.core == 1));
        // No core runs two ops at once.
        for core in 0..2 {
            let mut evs: Vec<_> = two.ops.iter().filter(|t| t.core == core).collect();
            evs.sort_by_key(|t| t.compute.0);
            for w in evs.windows(2) {
                assert!(w[1].compute.0 >= w[0].compute.1);
            }
        }
    }

    #[test]
    fn four_cores_at_least_double_one_core_on_the_server_workload() {
        // The acceptance bar: 4-core modeled throughput >= 2x 1-core on
        // the 8-client x 8-rotation workload (Set-C, the paper's
        // DRAM-streamed flagship set).
        let ops = eight_client_workload();
        let one = config(set_c(), 1)
            .with_ksk_in_dram(true)
            .schedule_stream(&ops)
            .unwrap();
        let four = config(set_c(), 4)
            .with_ksk_in_dram(true)
            .schedule_stream(&ops)
            .unwrap();
        let speedup = four.requests_per_sec() / one.requests_per_sec();
        assert!(speedup >= 2.0, "4-core speedup only {speedup:.2}x");
        assert_eq!(one.requests(), 64);
        assert_eq!(four.requests(), 64);
    }

    #[test]
    fn parked_io_removes_transfers() {
        let cfg = config(set_b(), 2);
        let wire = vec![BoardOp::rotate_many(8); 4];
        let parked: Vec<BoardOp> = wire
            .iter()
            .map(|op| op.with_parked_input().with_parked_output())
            .collect();
        let rw = cfg.schedule_stream(&wire).unwrap();
        let rp = cfg.schedule_stream(&parked).unwrap();
        assert_eq!(rp.busy(StageClass::XferIn), 0);
        assert_eq!(rp.busy(StageClass::XferOut), 0);
        assert!(rp.total_cycles <= rw.total_cycles);
        assert_eq!(rp.bound(), "compute");
        assert!(rp.core_utilization() > 0.9);
    }

    #[test]
    fn ksk_streaming_dilates_keyswitch_when_dram_is_too_slow() {
        let mut slow = config(set_c(), 1).with_ksk_in_dram(true);
        slow.dram.bandwidth_gbps = 8.0; // Far below the §5.1 requirement.
        let fast = config(set_c(), 1).with_ksk_in_dram(true);
        let ops = [BoardOp::rotate_many(4)];
        let rs = slow.schedule_stream(&ops).unwrap();
        let rf = fast.schedule_stream(&ops).unwrap();
        assert!(
            rs.busy(StageClass::KeySwitch) > rf.busy(StageClass::KeySwitch),
            "slow DRAM must dilate the KeySwitch interval"
        );
        // Stratix 10's four channels sustain the Set-C stream: no
        // dilation against the on-chip model's compute interval.
        assert_eq!(
            rf.busy(StageClass::KeySwitch),
            fast.arch.steady_interval_cycles()
        );
    }

    #[test]
    fn mixed_park_groups_and_fetch_uploads_charge_partial_transfers() {
        let cfg = config(set_b(), 1);
        // A group parking half its outputs pays strictly between zero
        // and the all-wire return cost.
        let all_wire = cfg.schedule_stream(&[BoardOp::rotate_many(8)]).unwrap();
        let half = BoardOp::new(BoardOpKind::RotateMany {
            count: 8,
            parked_outputs: 4,
        });
        let half_r = cfg.schedule_stream(&[half]).unwrap();
        assert!(half_r.busy(StageClass::XferOut) > 0);
        assert!(half_r.busy(StageClass::XferOut) < all_wire.busy(StageClass::XferOut));
        // Parking more outputs than the group has is rejected.
        assert!(cfg
            .schedule_stream(&[BoardOp::new(BoardOpKind::RotateMany {
                count: 2,
                parked_outputs: 3,
            })])
            .is_err());
        // Upload-and-park (inline Fetch, parked result) pays the
        // host→board leg and nothing else.
        let upload = BoardOp::new(BoardOpKind::Fetch).with_parked_output();
        let r = cfg.schedule_stream(&[upload]).unwrap();
        assert!(r.busy(StageClass::XferIn) > 0);
        assert_eq!(r.busy(StageClass::XferOut), 0);
        assert_eq!(r.core_busy(), 0);
    }

    #[test]
    fn stage_accounting_is_consistent() {
        let cfg = config(set_b(), 2);
        let ops = vec![
            BoardOp::new(BoardOpKind::Multiply),
            BoardOp::new(BoardOpKind::Add),
            BoardOp::rotate_many(4),
            BoardOp::new(BoardOpKind::Rescale),
            BoardOp::new(BoardOpKind::Relinearize),
            BoardOp::new(BoardOpKind::Fetch).with_parked_input(),
        ];
        let r = cfg.schedule_stream(&ops).unwrap();
        // Core busy equals the sum of compute spans.
        let span_sum: u64 = r.ops.iter().map(|t| t.compute.1 - t.compute.0).sum();
        assert_eq!(r.core_busy(), span_sum);
        // Makespan bounds every per-resource busy figure.
        assert!(r.busy(StageClass::XferIn) <= r.total_cycles);
        assert!(r.busy(StageClass::XferOut) <= r.total_cycles);
        assert!(r.core_busy() <= r.num_cores as u64 * r.total_cycles);
        // Fetch computes nothing but ships a result.
        let fetch = &r.ops[5];
        assert_eq!(fetch.compute.0, fetch.compute.1);
        assert!(fetch.xfer_out.1 > fetch.xfer_out.0);
        // Requests: 1 each except the hoisted group.
        assert_eq!(r.requests(), 9);
        assert!((0.0..=1.0).contains(&r.core_utilization()));
    }

    #[test]
    fn dependency_edges_serialize_across_cores() {
        // Producer parks its result; the consumer on the other core
        // must wait for it even though its own core is free.
        let cfg = config(set_b(), 2);
        let ops = vec![
            BoardOp::new(BoardOpKind::Rotate).with_parked_output(),
            BoardOp::new(BoardOpKind::Add)
                .with_parked_input()
                .with_dep(0),
        ];
        let r = cfg.schedule_stream(&ops).unwrap();
        assert!(r.ops[1].compute.0 >= r.ops[0].compute.1);
        // Without the edge the add starts immediately.
        let free = cfg
            .schedule_stream(&[
                BoardOp::new(BoardOpKind::Rotate).with_parked_output(),
                BoardOp::new(BoardOpKind::Add).with_parked_input(),
            ])
            .unwrap();
        assert_eq!(free.ops[1].compute.0, 0);
        // Forward or self edges are structurally invalid.
        assert!(cfg
            .schedule_stream(&[BoardOp::new(BoardOpKind::Rotate).with_dep(0)])
            .is_err());
    }

    #[test]
    fn ksk_upload_charges_the_input_channel() {
        let cfg = config(set_b(), 1);
        let plain = cfg
            .schedule_stream(&[BoardOp::new(BoardOpKind::Rotate)])
            .unwrap();
        let uploaded = cfg
            .schedule_stream(&[BoardOp::new(BoardOpKind::Rotate).with_ksk_upload()])
            .unwrap();
        // Set-B: the ksk (2·k·(k+1)·n words) is 2.5x a ciphertext
        // (2·k·n) — the upload must dominate the input leg.
        assert!(uploaded.busy(StageClass::XferIn) > 2 * plain.busy(StageClass::XferIn));
        // Parked operands still pay the key upload (keys travel even
        // when ciphertexts don't).
        let parked = cfg
            .schedule_stream(&[BoardOp::new(BoardOpKind::Rotate)
                .with_parked_input()
                .with_ksk_upload()])
            .unwrap();
        assert!(parked.busy(StageClass::XferIn) > 0);
        assert!(parked.busy(StageClass::XferIn) < uploaded.busy(StageClass::XferIn));
    }

    #[test]
    fn degradation_dilates_timing_without_changing_coverage() {
        let cfg = config(set_b(), 2);
        let ops = eight_client_workload();
        let healthy = cfg.schedule_stream(&ops).unwrap();
        let profile = BoardFaultProfile {
            compute_slowdown_pct: 50,
            dma_in_slowdown_pct: 25,
            dma_out_slowdown_pct: 25,
            link_stall_cycles: 1000,
        };
        let degraded = cfg.schedule_stream_degraded(&ops, &profile).unwrap();
        // Slower, but the same work lands: the link stalls and
        // dilations never drop or reorder an op.
        assert!(degraded.total_cycles > healthy.total_cycles);
        assert_eq!(degraded.requests(), healthy.requests());
        assert_eq!(degraded.ops.len(), healthy.ops.len());
        for (d, h) in degraded.ops.iter().zip(&healthy.ops) {
            assert_eq!(d.label, h.label);
            assert!(d.compute.1 - d.compute.0 >= h.compute.1 - h.compute.0);
        }
        // A healthy profile is bit-identical to the plain entry point.
        let same = cfg
            .schedule_stream_degraded(&ops, &BoardFaultProfile::default())
            .unwrap();
        assert_eq!(same.total_cycles, healthy.total_cycles);
        assert_eq!(same.ops, healthy.ops);
    }

    #[test]
    fn report_renders() {
        let r = config(set_b(), 2)
            .schedule_stream(&eight_client_workload())
            .unwrap();
        let s = r.render();
        assert!(s.contains("2 core(s)"));
        assert!(s.contains("keyswitch"));
        assert!(s.contains("hoisted-tail"));
        assert!(s.contains("requests/s"));
        // Empty stream renders without dividing by zero.
        let empty = config(set_b(), 1).schedule_stream(&[]).unwrap();
        assert_eq!(empty.requests_per_sec(), 0.0);
        assert_eq!(empty.ops_per_sec(), 0.0);
        assert!(empty.render().contains("0 op(s)"));
    }

    #[test]
    fn word_volume_uses_word_bytes() {
        // Guard the unit bridge: one ciphertext at Set-B is 2·k·n words
        // = 512 KiB; its transfer must take longer than 30 us on the
        // 15.75 GB/s link.
        let cfg = config(set_b(), 1);
        let words = 2 * 4 * 8192u64;
        assert_eq!(words * WORD_BYTES, 512 * 1024);
        let cycles = cfg.xfer_cycles(words);
        assert!(cycles > cfg.us_to_cycles(30.0));
    }
}
