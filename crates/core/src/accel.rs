//! The functional HEAX accelerator: executes the server-side CKKS
//! operations through the cycle-accurate hardware models.
//!
//! What is hardware-executed: **every polynomial transform**, through
//! [`NttModuleSim`] (banked BRAM, real butterflies, the stage's own core
//! count), and every MULT-module dyadic product, through
//! [`MultModuleSim`]. KeySwitch is not a second implementation of
//! Algorithm 7: it is the evaluator's skeleton
//! ([`heax_ckks::keyswitch`]: decompose → accumulate → floor) with an
//! [`NttBackend`] that routes INTT0/NTT0/INTT1/NTT1 through the
//! simulated modules, so the word arithmetic between transforms
//! (DyadMult accumulate, MS) is the golden model's own and bit-exact
//! agreement with `heax-ckks` holds by construction — the test suite and
//! the `tests/` integration tests still check it. Cycle counts attached
//! to each result come from the same module configurations via the
//! KeySwitch pipeline schedule, so functional results and Table 7/8
//! performance claims are produced by one artifact.

use std::sync::Arc;

use heax_ckks::ciphertext::Ciphertext;
use heax_ckks::context::CkksContext;
use heax_ckks::eval::scales_match;
use heax_ckks::keys::{GaloisKeys, KeySwitchKey, RelinKey};
use heax_ckks::keyswitch::{KeySwitcher, KsBuffers, NttBackend, Stage};
use heax_ckks::CkksError;
use heax_hw::board::Board;
use heax_hw::keyswitch_pipeline::{schedule, KeySwitchArch};
use heax_hw::mult_dataflow::{MultModuleConfig, MultModuleSim, MultRunStats};
use heax_hw::ntt_dataflow::{NttModuleConfig, NttModuleSim, NttRunStats};
use heax_math::ntt::NttTable;
use heax_math::poly::{Representation, RnsPoly};

use crate::arch::DesignPoint;
use crate::exec::{self, Executor};
use crate::perf::HeaxOp;
use crate::CoreError;

/// Cycle/time accounting attached to every accelerator result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpReport {
    /// Which high-level operation ran.
    pub op: HeaxOp,
    /// Steady-state initiation-interval cycles (throughput figure).
    pub interval_cycles: u64,
    /// Latency of a single isolated operation in cycles.
    pub latency_cycles: u64,
    /// Time per operation at the board clock, microseconds.
    pub interval_us: f64,
    /// Host→FPGA words moved (per op).
    pub input_words: u64,
    /// FPGA→host words moved (per op).
    pub output_words: u64,
}

/// The KeySwitch module's four transform stages (Figure 5) on the banked
/// dataflow simulator, each with its own core count from the
/// architecture.
#[derive(Debug)]
struct DataflowNtt {
    intt0: NttModuleConfig,
    ntt0: NttModuleConfig,
    intt1: NttModuleConfig,
    ntt1: NttModuleConfig,
}

impl DataflowNtt {
    fn new(arch: &KeySwitchArch) -> Result<Self, CoreError> {
        Ok(Self {
            intt0: NttModuleConfig::new(arch.n, arch.nc_intt0)?,
            ntt0: NttModuleConfig::new(arch.n, arch.nc_ntt0)?,
            intt1: NttModuleConfig::new(arch.n, arch.nc_intt1)?,
            ntt1: NttModuleConfig::new(arch.n, arch.nc_ntt1)?,
        })
    }

    fn module<'t>(&self, stage: Stage, table: &'t NttTable) -> NttModuleSim<'t> {
        let config = match stage {
            Stage::Intt0 => self.intt0,
            Stage::Ntt0 => self.ntt0,
            Stage::Intt1 => self.intt1,
            Stage::Ntt1 => self.ntt1,
        };
        NttModuleSim::new(config, table)
            .expect("with_arch checked the ring degree and every context modulus")
    }
}

impl NttBackend for DataflowNtt {
    fn inverse(&self, stage: Stage, table: &NttTable, a: &mut [u64]) {
        let (out, _) = self.module(stage, table).inverse(a);
        a.copy_from_slice(&out);
    }

    // DOMAIN: [0,p)
    fn forward_reduced(&self, stage: Stage, table: &NttTable, src: &[u64], dst: &mut [u64]) {
        let (out, _) = self.module(stage, table).forward_reduced(src); // DOMAIN: [0,p)
        dst.copy_from_slice(&out);
    }
}

/// The HEAX accelerator bound to a CKKS context and a board.
///
/// RNS limbs stream through the simulated modules concurrently when a
/// parallel execution backend is selected — the software counterpart of
/// the replicated NTT cores and key-switch lanes of the real design. The
/// backend defaults to the global (`HEAX_THREADS`-selected) executor;
/// [`HeaxAccelerator::with_executor`] pins an explicit one. All backends
/// are bit-identical.
#[derive(Clone, Debug)]
pub struct HeaxAccelerator<'a> {
    ctx: &'a CkksContext,
    board: Board,
    arch: KeySwitchArch,
    ntt_config: NttModuleConfig,
    mult_config: MultModuleConfig,
    exec: Arc<dyn Executor>,
}

impl<'a> HeaxAccelerator<'a> {
    /// Builds the accelerator for one of the paper's parameter sets,
    /// deriving the architecture automatically (Table 5).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedParameters`] if the context's ring degree is
    /// not one of the paper's sets; hardware errors if moduli exceed the
    /// 52-bit datapath bound.
    pub fn new(ctx: &'a CkksContext, board: Board) -> Result<Self, CoreError> {
        let set = match ctx.n() {
            4096 => heax_ckks::ParamSet::SetA,
            8192 => heax_ckks::ParamSet::SetB,
            16384 => heax_ckks::ParamSet::SetC,
            other => {
                return Err(CoreError::UnsupportedParameters {
                    reason: format!("ring degree {other} is not a paper parameter set"),
                })
            }
        };
        let dp = DesignPoint::derive(board, set)?;
        let (ntt_cfg, mult_cfg) = (dp.ntt_config(), dp.mult_config());
        Self::with_arch(ctx, dp.board, dp.arch, ntt_cfg, mult_cfg)
    }

    /// Builds the accelerator with explicit module configurations (used
    /// for custom parameter sets and small test rings).
    ///
    /// # Errors
    ///
    /// Propagates hardware configuration errors; checks every context
    /// modulus against the 52-bit datapath bound.
    pub fn with_arch(
        ctx: &'a CkksContext,
        board: Board,
        arch: KeySwitchArch,
        ntt_config: NttModuleConfig,
        mult_config: MultModuleConfig,
    ) -> Result<Self, CoreError> {
        arch.validate()?;
        for m in ctx.moduli() {
            heax_hw::cores::check_hw_modulus(m)?;
        }
        if arch.n != ctx.n() || ntt_config.n != ctx.n() || mult_config.n != ctx.n() {
            return Err(CoreError::UnsupportedParameters {
                reason: "architecture ring degree disagrees with context".into(),
            });
        }
        Ok(Self {
            ctx,
            board,
            arch,
            ntt_config,
            mult_config,
            exec: exec::global().clone(),
        })
    }

    /// Builder option: replaces the execution backend used for per-limb
    /// dispatch (default: the global `HEAX_THREADS`-selected executor).
    #[must_use]
    pub fn with_executor(mut self, exec: Arc<dyn Executor>) -> Self {
        self.exec = exec;
        self
    }

    /// The execution backend in use.
    pub fn executor(&self) -> &Arc<dyn Executor> {
        &self.exec
    }

    /// The CKKS context.
    pub fn context(&self) -> &CkksContext {
        self.ctx
    }

    /// The board.
    pub fn board(&self) -> &Board {
        &self.board
    }

    /// The KeySwitch architecture in use.
    pub fn arch(&self) -> &KeySwitchArch {
        &self.arch
    }

    /// The NTT/INTT module configuration in use.
    pub fn ntt_config(&self) -> &NttModuleConfig {
        &self.ntt_config
    }

    /// The MULT module configuration in use.
    pub fn mult_config(&self) -> &MultModuleConfig {
        &self.mult_config
    }

    /// Board-level pipeline configuration for scheduling op streams
    /// across `num_cores` replicas of this accelerator's architecture
    /// (see [`heax_hw::scheduler`]).
    ///
    /// # Errors
    ///
    /// Propagates [`heax_hw::scheduler::PipelineConfig::new`] validation.
    pub fn pipeline_config(
        &self,
        num_cores: usize,
    ) -> Result<heax_hw::scheduler::PipelineConfig, CoreError> {
        heax_hw::scheduler::PipelineConfig::new(&self.board, self.arch, self.mult_config, num_cores)
            .map_err(CoreError::Hw)
    }

    /// Cluster configuration for routing op streams across `num_boards`
    /// modeled boards of `num_cores` cores each (see
    /// [`heax_hw::cluster`]).
    ///
    /// # Errors
    ///
    /// Propagates pipeline and cluster configuration validation.
    pub fn cluster_config(
        &self,
        num_boards: usize,
        num_cores: usize,
    ) -> Result<heax_hw::cluster::ClusterConfig, CoreError> {
        heax_hw::cluster::ClusterConfig::new(self.pipeline_config(num_cores)?, num_boards)
            .map_err(CoreError::Hw)
    }

    fn report(&self, op: HeaxOp, interval: u64, latency: u64, inw: u64, outw: u64) -> OpReport {
        OpReport {
            op,
            interval_cycles: interval,
            latency_cycles: latency,
            interval_us: interval as f64 / self.board.freq_hz() * 1e6,
            input_words: inw,
            output_words: outw,
        }
    }

    /// Builds one module simulator per residue of `poly` (validation is
    /// sequential; the heavy transform work is then fanned out).
    fn limb_sims(&self, poly: &RnsPoly) -> Result<Vec<NttModuleSim<'a>>, CoreError> {
        poly.moduli()
            .iter()
            .map(|m| {
                let table = self.find_table(m.value())?;
                NttModuleSim::new(self.ntt_config, table).map_err(CoreError::Hw)
            })
            .collect()
    }

    /// Forward NTT of all residues of a coefficient-form polynomial
    /// through the banked dataflow (Table 7 "NTT" operation processes one
    /// polynomial = one residue; `k` residues stream through the module).
    /// Residues are dispatched across the executor's lanes, one simulated
    /// module instance per limb.
    ///
    /// # Errors
    ///
    /// Representation errors if the input is already in NTT form.
    pub fn ntt(&self, poly: &RnsPoly) -> Result<(RnsPoly, OpReport), CoreError> {
        self.transform(poly, HeaxOp::Ntt, Representation::Ntt)
    }

    /// Inverse NTT through the INTT module.
    ///
    /// # Errors
    ///
    /// Representation errors if the input is already in coefficient form.
    pub fn intt(&self, poly: &RnsPoly) -> Result<(RnsPoly, OpReport), CoreError> {
        self.transform(poly, HeaxOp::Intt, Representation::Coefficient)
    }

    /// Streams every residue of `poly` through the NTT/INTT module into
    /// the representation `to`.
    fn transform(
        &self,
        poly: &RnsPoly,
        op: HeaxOp,
        to: Representation,
    ) -> Result<(RnsPoly, OpReport), CoreError> {
        if poly.representation() == to {
            return Err(CoreError::Ckks(CkksError::Math(
                heax_math::MathError::RepresentationMismatch,
            )));
        }
        let sims = self.limb_sims(poly)?;
        let mut out = poly.clone();
        let mut stats: Vec<NttRunStats> = vec![NttRunStats::default(); poly.num_residues()];
        let n = self.ctx.n();
        {
            // Each lane transforms one limb and fills that limb's stats
            // slot; zip the two so a lane owns both exclusively.
            let mut slots: Vec<(&mut [u64], &mut NttRunStats)> =
                out.data_mut().chunks_mut(n).zip(stats.iter_mut()).collect();
            exec::for_each_mut(self.exec.as_ref(), &mut slots, |i, (dst, slot)| {
                let (data, s) = match to {
                    Representation::Ntt => sims[i].forward(poly.residue(i)),
                    Representation::Coefficient => sims[i].inverse(poly.residue(i)),
                };
                dst.copy_from_slice(&data);
                **slot = s;
            });
        }
        out.set_representation(to);
        let (per, latency) = stats.last().map_or((0, 0), |s| (s.cycles, s.latency));
        let n = n as u64;
        Ok((out, self.report(op, per, latency, n, n)))
    }

    /// Homomorphic multiplication through the MULT module (Algorithm 5 /
    /// Figure 1): processes one RNS residue at a time, producing the
    /// `α+β−1`-component product ciphertext.
    ///
    /// # Errors
    ///
    /// Level/scale mismatches as in the software evaluator.
    pub fn dyadic_mult(
        &self,
        ct1: &Ciphertext,
        ct2: &Ciphertext,
    ) -> Result<(Ciphertext, OpReport), CoreError> {
        if ct1.level() != ct2.level() {
            return Err(CoreError::Ckks(CkksError::LevelMismatch {
                a: ct1.level(),
                b: ct2.level(),
            }));
        }
        if !scales_match(ct1.scale(), ct2.scale()) {
            return Err(CoreError::Ckks(CkksError::ScaleMismatch {
                a: ct1.scale(),
                b: ct2.scale(),
            }));
        }
        let scale = ct1.scale() * ct2.scale();
        let (ct, mut report, latency) =
            self.mult_module(ct1.components(), ct2.components(), ct1.level(), scale)?;
        report.latency_cycles = report.latency_cycles.saturating_add(latency);
        Ok((ct, report))
    }

    /// Ciphertext-plaintext multiplication — the C-P mode of the MULT
    /// module (Section 4.1): the plaintext plays the β = 1 operand.
    ///
    /// # Errors
    ///
    /// Level mismatches as in the software evaluator.
    pub fn multiply_plain(
        &self,
        ct: &Ciphertext,
        pt: &heax_ckks::Plaintext,
    ) -> Result<(Ciphertext, OpReport), CoreError> {
        if ct.level() != pt.level() {
            return Err(CoreError::Ckks(CkksError::LevelMismatch {
                a: ct.level(),
                b: pt.level(),
            }));
        }
        let b = std::slice::from_ref(pt.poly());
        let scale = ct.scale() * pt.scale();
        let (out, report, _) = self.mult_module(ct.components(), b, ct.level(), scale)?;
        Ok((out, report))
    }

    /// One MULT-module pass per residue over the α components of `a` and
    /// the β of `b`. Returns the `α+β−1`-component product, a report whose
    /// interval and latency are both the summed module cycles, and the
    /// last residue's pipeline latency.
    fn mult_module(
        &self,
        a: &[RnsPoly],
        b: &[RnsPoly],
        level: usize,
        scale: f64,
    ) -> Result<(Ciphertext, OpReport, u64), CoreError> {
        let n = self.ctx.n();
        let (alpha, beta) = (a.len(), b.len());
        let moduli = self.ctx.level_moduli(level);
        let mut out_polys = vec![RnsPoly::zero(n, moduli, Representation::Ntt); alpha + beta - 1];
        let sims: Vec<MultModuleSim> = moduli
            .iter()
            .map(|m| MultModuleSim::new(self.mult_config, *m))
            .collect::<Result<_, _>>()?;
        // Residues fan across lanes; results land in per-limb slots and
        // are scattered into the output components afterwards (a limb's
        // outputs span every component, so they cannot be written
        // disjointly in place).
        let mut slots: Vec<(Vec<Vec<u64>>, MultRunStats)> = vec![Default::default(); moduli.len()];
        exec::for_each_mut(self.exec.as_ref(), &mut slots, |i, slot| {
            let limb = |polys: &[RnsPoly]| -> Vec<Vec<u64>> {
                polys.iter().map(|c| c.residue(i).to_vec()).collect()
            };
            *slot = sims[i].multiply(&limb(a), &limb(b));
        });
        let mut cycles = 0u64;
        let mut latency = 0u64;
        for (i, (outs, stats)) in slots.into_iter().enumerate() {
            for (t, res) in outs.into_iter().enumerate() {
                out_polys[t].residue_mut(i).copy_from_slice(&res);
            }
            cycles += stats.cycles;
            latency = stats.latency;
        }
        let ct = Ciphertext::from_parts(out_polys, level, scale).map_err(CoreError::Ckks)?;
        let inw = self.mult_config.input_transfer_words(alpha, beta) * moduli.len() as u64;
        let outw = self.mult_config.output_transfer_words(alpha, beta) * moduli.len() as u64;
        let report = self.report(HeaxOp::Dyadic, cycles, cycles, inw, outw);
        Ok((ct, report, latency))
    }

    /// The inner key-switching primitive through the KeySwitch module
    /// datapath (Algorithm 7 / Figure 5): INTT0 → NTT0 → DyadMult
    /// accumulate over `k` iterations, then the INTT1 → NTT1 → MS modulus
    /// switch — the evaluator's skeleton ([`heax_ckks::keyswitch`]) with
    /// every transform executed by the stage's simulated module. Returns
    /// `(f₀, f₁)` plus the pipeline's cycle report.
    ///
    /// # Errors
    ///
    /// Exactly the software evaluator's: [`CkksError::Math`] when `target`
    /// is not in NTT form or does not have `level + 1` residues.
    pub fn key_switch(
        &self,
        target: &RnsPoly,
        ksk: &KeySwitchKey,
        level: usize,
    ) -> Result<((RnsPoly, RnsPoly), OpReport), CoreError> {
        let moduli = self.ctx.level_moduli(level);
        let mut f0 = RnsPoly::zero(self.ctx.n(), moduli, Representation::Ntt);
        let mut f1 = f0.clone();
        let backend = DataflowNtt::new(&self.arch)?;
        self.switcher(&backend).key_switch_into(
            &mut KsBuffers::default(),
            target,
            ksk,
            level,
            &mut f0,
            &mut f1,
        )?;
        Ok(((f0, f1), self.key_switch_report(level, 1)?))
    }

    /// Cycle accounting, from the pipeline schedule, for `t ≥ 1` key
    /// switches over one decomposition at `level`: the first pays the
    /// full KeySwitch interval, each further one only the hoisted tail.
    fn key_switch_report(&self, level: usize, t: u64) -> Result<OpReport, CoreError> {
        let sched = schedule(&self.arch, 1)?;
        let tail = (t - 1) * self.arch.hoisted_interval_cycles();
        let n = self.ctx.n() as u64;
        let rows = level as u64 + 1;
        Ok(self.report(
            HeaxOp::KeySwitch,
            self.arch.steady_interval_cycles() + tail,
            sched.first_op_latency + tail,
            (rows + 1) * n, // input residues + the special-prime lane
            t * 2 * rows * n,
        ))
    }

    /// The shared key-switch skeleton over the dataflow simulator.
    fn switcher<'s>(&'s self, backend: &'s DataflowNtt) -> KeySwitcher<'s, DataflowNtt> {
        KeySwitcher::new(self.ctx, self.exec.as_ref(), backend)
    }

    /// Relinearization on the accelerator: KeySwitch on `c₂`, then the
    /// additions (performed by the accumulator banks).
    ///
    /// # Errors
    ///
    /// [`CkksError::InvalidCiphertext`] unless the input has three
    /// components.
    pub fn relinearize(
        &self,
        ct: &Ciphertext,
        rlk: &RelinKey,
    ) -> Result<(Ciphertext, OpReport), CoreError> {
        if ct.size() != 3 {
            return Err(CoreError::Ckks(CkksError::InvalidCiphertext {
                components: ct.size(),
                expected: "exactly 3",
            }));
        }
        let ((f0, f1), report) = self.key_switch(ct.component(2), rlk.ksk(), ct.level())?;
        let c0 = ct.component(0).add(&f0).map_err(CkksError::Math)?;
        let c1 = ct.component(1).add(&f1).map_err(CkksError::Math)?;
        let out = Ciphertext::from_parts(vec![c0, c1], ct.level(), ct.scale())
            .map_err(CoreError::Ckks)?;
        Ok((out, report))
    }

    /// Rotation on the accelerator: the Galois permutation is pure
    /// addressing (free in hardware); the KeySwitch dominates.
    ///
    /// # Errors
    ///
    /// Missing-key and shape errors as in the software evaluator.
    pub fn rotate(
        &self,
        ct: &Ciphertext,
        step: i64,
        gks: &GaloisKeys,
    ) -> Result<(Ciphertext, OpReport), CoreError> {
        if ct.size() != 2 {
            return Err(CoreError::Ckks(CkksError::InvalidCiphertext {
                components: ct.size(),
                expected: "exactly 2 (relinearize first)",
            }));
        }
        let elt = heax_ckks::galois::galois_elt_from_step(step, self.ctx.n());
        let ksk = gks.key(elt).map_err(CoreError::Ckks)?;
        let table = gks.permutation(elt).map_err(CoreError::Ckks)?;
        let c0 =
            heax_ckks::galois::apply_galois_ntt(ct.component(0), table).map_err(CkksError::Math)?;
        let c1 =
            heax_ckks::galois::apply_galois_ntt(ct.component(1), table).map_err(CkksError::Math)?;
        let ((f0, f1), report) = self.key_switch(&c1, ksk, ct.level())?;
        let c0 = c0.add(&f0).map_err(CkksError::Math)?;
        let out = Ciphertext::from_parts(vec![c0, f1], ct.level(), ct.scale())
            .map_err(CoreError::Ckks)?;
        Ok((out, report))
    }

    /// Hoisted multi-rotation on the accelerator (the batched-rotation
    /// pattern of the paper's matrix-vector and convolution workloads):
    /// the `c₁` component is decomposed through INTT0/NTT0 **once**, then
    /// every requested Galois element runs only the DyadMult accumulate
    /// (permutation is pure addressing) and the modulus-switch tail.
    ///
    /// The returned report covers the whole batch: the first rotation
    /// pays the full KeySwitch interval, each subsequent one only the
    /// hoisted tail ([`KeySwitchArch::hoisted_interval_cycles`]).
    ///
    /// Outputs are bit-exact against
    /// [`heax_ckks::Evaluator::rotate_many`]: both are the hoisted case of
    /// one skeleton.
    ///
    /// # Errors
    ///
    /// Missing-key and shape errors as in the software evaluator.
    pub fn rotate_many(
        &self,
        ct: &Ciphertext,
        steps: &[i64],
        gks: &GaloisKeys,
    ) -> Result<(Vec<Ciphertext>, OpReport), CoreError> {
        let backend = DataflowNtt::new(&self.arch)?;
        let outs =
            self.switcher(&backend)
                .rotate_many(&mut KsBuffers::default(), ct, steps, gks)?;
        let report = match outs.len() as u64 {
            0 => self.report(HeaxOp::KeySwitch, 0, 0, 0, 0),
            t => self.key_switch_report(ct.level(), t)?,
        };
        Ok((outs, report))
    }

    /// The Table 8 composite: homomorphic multiply (MULT module) plus
    /// relinearization (KeySwitch module). In steady state the two modules
    /// overlap, so the composite initiation interval is the KeySwitch
    /// interval.
    ///
    /// # Errors
    ///
    /// Union of [`HeaxAccelerator::dyadic_mult`] and
    /// [`HeaxAccelerator::relinearize`] errors.
    pub fn multiply_relin(
        &self,
        ct1: &Ciphertext,
        ct2: &Ciphertext,
        rlk: &RelinKey,
    ) -> Result<(Ciphertext, OpReport), CoreError> {
        let (prod, mult_rep) = self.dyadic_mult(ct1, ct2)?;
        let (out, ks_rep) = self.relinearize(&prod, rlk)?;
        let interval = mult_rep.interval_cycles.max(ks_rep.interval_cycles);
        let report = self.report(
            HeaxOp::MultRelin,
            interval,
            mult_rep.latency_cycles + ks_rep.latency_cycles,
            mult_rep.input_words,
            ks_rep.output_words,
        );
        Ok((out, report))
    }

    fn find_table(&self, modulus: u64) -> Result<&'a heax_math::ntt::NttTable, CoreError> {
        self.ctx
            .ntt_tables()
            .iter()
            .find(|t| t.modulus().value() == modulus)
            .ok_or_else(|| CoreError::UnsupportedParameters {
                reason: format!("no NTT table for modulus {modulus}"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heax_ckks::{
        CkksContext, CkksEncoder, CkksParams, Decryptor, Encryptor, Evaluator, PublicKey, SecretKey,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Small hardware-compatible context: n = 64, 40/41-bit primes.
    fn small_ctx() -> CkksContext {
        let chain = heax_math::primes::generate_prime_chain(&[40, 40, 40, 41], 64).unwrap();
        CkksContext::new(CkksParams::new(64, chain, (1u64 << 32) as f64).unwrap()).unwrap()
    }

    fn small_arch() -> KeySwitchArch {
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
        }
    }

    struct H {
        ctx: CkksContext,
        sk: SecretKey,
        pk: PublicKey,
        rlk: RelinKey,
        rng: StdRng,
    }

    fn harness(seed: u64) -> H {
        let ctx = small_ctx();
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng);
        let rlk = RelinKey::generate(&ctx, &sk, &mut rng);
        H {
            ctx,
            sk,
            pk,
            rlk,
            rng,
        }
    }

    impl H {
        /// Encodes `vals` at the top level and the context's scale.
        fn encode(&self, vals: &[f64]) -> heax_ckks::Plaintext {
            let top = self.ctx.max_level();
            CkksEncoder::new(&self.ctx)
                .encode_real(vals, self.ctx.params().scale(), top)
                .unwrap()
        }

        fn encrypt(&mut self, vals: &[f64]) -> Ciphertext {
            let pt = self.encode(vals);
            let e = Encryptor::new(&self.ctx, &self.pk);
            e.encrypt(&pt, &mut self.rng).unwrap()
        }
    }

    /// Coefficient-form top-level polynomial `c[i][j] = (a·j + b·i) mod p_i`.
    fn pattern_poly(ctx: &CkksContext, a: u64, b: u64) -> RnsPoly {
        let moduli = ctx.level_moduli(ctx.max_level());
        let mut poly = RnsPoly::zero(64, moduli, Representation::Coefficient);
        for (i, m) in moduli.iter().enumerate() {
            for (j, c) in poly.residue_mut(i).iter_mut().enumerate() {
                *c = (j as u64 * a + i as u64 * b) % m.value();
            }
        }
        poly
    }

    fn accel(ctx: &CkksContext) -> HeaxAccelerator<'_> {
        HeaxAccelerator::with_arch(
            ctx,
            Board::stratix10(),
            small_arch(),
            NttModuleConfig::new(64, 4).unwrap(),
            MultModuleConfig::new(64, 8).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn hw_ntt_matches_software() {
        let h = harness(50);
        let acc = accel(&h.ctx);
        let poly = pattern_poly(&h.ctx, 37, 1);
        let (hw_out, report) = acc.ntt(&poly).unwrap();
        let mut sw = poly.clone();
        sw.ntt_forward(h.ctx.ntt_tables()).unwrap();
        assert_eq!(hw_out, sw);
        assert!(report.interval_cycles > 0);
        // And back.
        let (hw_back, _) = acc.intt(&hw_out).unwrap();
        assert_eq!(hw_back, poly);
    }

    #[test]
    fn hw_multiply_matches_evaluator() {
        let mut h = harness(51);
        let c1 = h.encrypt(&[1.5, -2.0]);
        let c2 = h.encrypt(&[3.0, 4.0]);
        let acc = accel(&h.ctx);
        let (hw_prod, report) = acc.dyadic_mult(&c1, &c2).unwrap();
        let sw_prod = Evaluator::new(&h.ctx).multiply(&c1, &c2).unwrap();
        assert_eq!(hw_prod, sw_prod);
        assert_eq!(report.op, HeaxOp::Dyadic);
    }

    #[test]
    fn hw_keyswitch_bit_exact_vs_evaluator() {
        let mut h = harness(52);
        let c1 = h.encrypt(&[2.0]);
        let prod = Evaluator::new(&h.ctx).multiply(&c1, &c1).unwrap();

        let acc = accel(&h.ctx);
        let ((f0, f1), report) = acc
            .key_switch(prod.component(2), h.rlk.ksk(), prod.level())
            .unwrap();
        let (g0, g1) = Evaluator::new(&h.ctx)
            .key_switch(prod.component(2), h.rlk.ksk(), prod.level())
            .unwrap();
        assert_eq!(f0, g0, "hardware f0 must equal golden model");
        assert_eq!(f1, g1, "hardware f1 must equal golden model");
        assert_eq!(report.interval_cycles, acc.arch().steady_interval_cycles());
    }

    #[test]
    fn hw_keyswitch_rejects_wrong_shapes_like_the_evaluator() {
        let mut h = harness(59);
        let ct = h.encrypt(&[1.0]);
        let acc = accel(&h.ctx);
        let ev = Evaluator::new(&h.ctx);
        let target = ct.component(1);
        let level = ct.level();
        // One residue too few for the level, then one too many.
        for claimed in [level + 1, level - 1] {
            let want = ev.key_switch(target, h.rlk.ksk(), claimed).unwrap_err();
            assert!(matches!(
                want,
                CkksError::Math(heax_math::MathError::LengthMismatch { .. })
            ));
            match acc.key_switch(target, h.rlk.ksk(), claimed) {
                Err(CoreError::Ckks(got)) => assert_eq!(got, want),
                other => panic!("level {claimed}: expected {want:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn hw_relinearize_decrypts_correctly() {
        let mut h = harness(53);
        let c1 = h.encrypt(&[1.5, 2.0]);
        let c2 = h.encrypt(&[-3.0, 0.5]);
        let acc = accel(&h.ctx);
        let (out, report) = acc.multiply_relin(&c1, &c2, &h.rlk).unwrap();
        assert_eq!(out.size(), 2);
        assert_eq!(report.op, HeaxOp::MultRelin);
        let dec = Decryptor::new(&h.ctx, &h.sk).decrypt(&out).unwrap();
        let vals = CkksEncoder::new(&h.ctx).decode_real(&dec).unwrap();
        assert!((vals[0] + 4.5).abs() < 1e-1, "{}", vals[0]);
        assert!((vals[1] - 1.0).abs() < 1e-1, "{}", vals[1]);
    }

    #[test]
    fn hw_rotation_matches_software() {
        let mut h = harness(54);
        let vals: Vec<f64> = (0..h.ctx.n() / 2).map(|i| i as f64).collect();
        let ct = h.encrypt(&vals);
        let gks = GaloisKeys::generate(&h.ctx, &h.sk, &[1], &mut h.rng);
        let acc = accel(&h.ctx);
        let (hw_rot, _) = acc.rotate(&ct, 1, &gks).unwrap();
        let sw_rot = Evaluator::new(&h.ctx).rotate(&ct, 1, &gks).unwrap();
        assert_eq!(hw_rot, sw_rot, "hardware rotation must match software");
    }

    #[test]
    fn hw_rotate_many_matches_software_hoisted_path() {
        let mut h = harness(58);
        let vals: Vec<f64> = (0..h.ctx.n() / 2).map(|i| i as f64 * 0.25).collect();
        let ct = h.encrypt(&vals);
        let steps = [1i64, -1, 3];
        let gks = GaloisKeys::generate(&h.ctx, &h.sk, &steps, &mut h.rng);
        let acc = accel(&h.ctx);
        let (hw, report) = acc.rotate_many(&ct, &steps, &gks).unwrap();
        let sw = Evaluator::new(&h.ctx)
            .rotate_many(&ct, &steps, &gks)
            .unwrap();
        assert_eq!(hw.len(), steps.len());
        for (hwc, swc) in hw.iter().zip(&sw) {
            assert_eq!(
                hwc, swc,
                "hardware hoisted rotation must match golden model"
            );
        }
        // The batched interval must beat t sequential key switches.
        let full = acc.arch().steady_interval_cycles();
        assert!(report.interval_cycles < steps.len() as u64 * full);
        assert!(report.interval_cycles >= full);
        // Empty batch is a no-op report.
        let (none, rep0) = acc.rotate_many(&ct, &[], &gks).unwrap();
        assert!(none.is_empty());
        assert_eq!(rep0.interval_cycles, 0);
    }

    #[test]
    fn hw_multiply_plain_matches_evaluator() {
        let mut h = harness(56);
        let ct = h.encrypt(&[2.0, 3.0]);
        let pt_w = h.encode(&[4.0, -1.0]);
        let acc = accel(&h.ctx);
        let (hw, rep) = acc.multiply_plain(&ct, &pt_w).unwrap();
        let sw = Evaluator::new(&h.ctx).multiply_plain(&ct, &pt_w).unwrap();
        assert_eq!(hw, sw);
        assert!(rep.interval_cycles > 0);
        // C-P transfers (α+1)·n words in and α·n out, per active residue
        // (3 residues at the top level of the k = 3 test chain).
        assert_eq!(rep.input_words, 3 * 64 * 3);
        assert_eq!(rep.output_words, 2 * 64 * 3);
    }

    #[test]
    fn rejects_wide_moduli() {
        // 60-bit primes exceed the 52-bit datapath bound.
        let chain = heax_math::primes::generate_prime_chain(&[60, 60, 61], 64).unwrap();
        let ctx =
            CkksContext::new(CkksParams::new(64, chain, (1u64 << 40) as f64).unwrap()).unwrap();
        let err = HeaxAccelerator::with_arch(
            &ctx,
            Board::stratix10(),
            small_arch(),
            NttModuleConfig::new(64, 4).unwrap(),
            MultModuleConfig::new(64, 8).unwrap(),
        );
        assert!(matches!(err, Err(CoreError::Hw(_))));
    }

    #[test]
    fn parallel_backend_bit_identical_to_sequential() {
        let mut h = harness(57);
        let c1 = h.encrypt(&[1.25, -0.5]);
        let c2 = h.encrypt(&[2.0, 3.5]);
        let seq = accel(&h.ctx).with_executor(std::sync::Arc::new(crate::exec::Sequential));
        let par = accel(&h.ctx).with_executor(crate::exec::with_threads(4));
        assert_eq!(par.executor().threads(), 4);

        // NTT/INTT.
        let poly = pattern_poly(&h.ctx, 101, 7);
        let (ntt_seq, rep_seq) = seq.ntt(&poly).unwrap();
        let (ntt_par, rep_par) = par.ntt(&poly).unwrap();
        assert_eq!(ntt_seq, ntt_par);
        assert_eq!(rep_seq, rep_par);
        assert_eq!(seq.intt(&ntt_seq).unwrap().0, par.intt(&ntt_par).unwrap().0);

        // Dyadic multiply and the full key-switch datapath.
        let (prod_seq, _) = seq.dyadic_mult(&c1, &c2).unwrap();
        let (prod_par, _) = par.dyadic_mult(&c1, &c2).unwrap();
        assert_eq!(prod_seq, prod_par);
        let ((f0s, f1s), _) = seq
            .key_switch(prod_seq.component(2), h.rlk.ksk(), prod_seq.level())
            .unwrap();
        let ((f0p, f1p), _) = par
            .key_switch(prod_par.component(2), h.rlk.ksk(), prod_par.level())
            .unwrap();
        assert_eq!(f0s, f0p);
        assert_eq!(f1s, f1p);
    }

    #[test]
    fn mismatched_levels_rejected() {
        let mut h = harness(55);
        let c1 = h.encrypt(&[1.0]);
        let dropped = Evaluator::new(&h.ctx).mod_switch_to_next(&c1).unwrap();
        let acc = accel(&h.ctx);
        assert!(acc.dyadic_mult(&c1, &dropped).is_err());
    }
}
