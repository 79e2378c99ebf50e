//! The functional HEAX accelerator: the CKKS evaluator with its
//! transforms run through the cycle-accurate hardware models, plus the
//! architecture's closed-form cycle reports.
//!
//! [`HeaxAccelerator::evaluator`] is a [`heax_ckks::Evaluator`] over
//! [`DataflowNtt`]: every transform the evaluator issues — INTT0, NTT0,
//! INTT1 and NTT1 of each key switch (relinearization, rotation, hoisted
//! and reply-level rotation) and the INTT1/NTT1 of each rescale's floor —
//! streams one residue through the [`NttModuleSim`] of its stage (banked
//! BRAM, real butterflies, the stage's own core count). Algorithm 7 is
//! not implemented twice: the word arithmetic between transforms
//! (DyadMult accumulate, MS) is the golden model's own, so bit-exact
//! agreement with `heax-ckks` holds by construction — the test suite and
//! the `tests/` integration tests still check it. The evaluator's
//! `multiply` and additions are software.
//!
//! The standalone modules run through their own methods:
//! [`HeaxAccelerator::ntt`] / [`HeaxAccelerator::intt`] stream residues
//! through the NTT module, [`HeaxAccelerator::dyadic_mult`] /
//! [`HeaxAccelerator::multiply_plain`] through the MULT module
//! ([`MultModuleSim`]), and each reports its module run.
//! [`HeaxAccelerator::report`] prices key switching and MULT+ReLin from
//! the same module configurations' closed forms (the KeySwitch pipeline
//! schedule, the MULT cycle formula) without running a module, so
//! functional results and Table 7/8 performance claims come from one
//! artifact.

use std::sync::Arc;

use heax_ckks::ciphertext::Ciphertext;
use heax_ckks::context::CkksContext;
use heax_ckks::eval::scales_match;
use heax_ckks::keys::KeySwitchKey;
use heax_ckks::keyswitch::{NttBackend, Stage};
use heax_ckks::{CkksError, Evaluator};
use heax_hw::board::Board;
use heax_hw::cores::CoreKind;
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
/// architecture: the transform backend of
/// [`HeaxAccelerator::evaluator`].
#[derive(Clone, Copy, Debug)]
pub struct DataflowNtt {
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
    eval: Evaluator<'a, DataflowNtt>,
    board: Board,
    arch: KeySwitchArch,
    ntt_config: NttModuleConfig,
    mult_config: MultModuleConfig,
}

/// Worker threads share one accelerator, and its evaluator, by `&`.
const _: () = {
    const fn shareable<T: Send + Sync>() {}
    shareable::<HeaxAccelerator<'static>>();
};

impl<'a> HeaxAccelerator<'a> {
    /// Builds the accelerator for one of the paper's parameter sets,
    /// deriving the architecture automatically (Table 5).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedParameters`] if the context's ring degree is
    /// not one of the paper's sets or its chain is not that set's;
    /// hardware errors if moduli exceed the 52-bit datapath bound.
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
    /// modulus against the 52-bit datapath bound;
    /// [`CoreError::UnsupportedParameters`] unless the architecture's ring
    /// degree and `k` are the context's.
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
        let (n, k) = (ctx.n(), ctx.params().k());
        if arch.n != n || ntt_config.n != n || mult_config.n != n || arch.k != k {
            return Err(CoreError::UnsupportedParameters {
                reason: format!(
                    "architecture (n = {}, k = {}) disagrees with the context (n = {n}, k = {k})",
                    arch.n, arch.k
                ),
            });
        }
        let eval = Evaluator::with_backend(ctx, exec::global().clone(), DataflowNtt::new(&arch)?);
        Ok(Self {
            ctx,
            eval,
            board,
            arch,
            ntt_config,
            mult_config,
        })
    }

    /// Builder option: replaces the execution backend used for per-limb
    /// dispatch (default: the global `HEAX_THREADS`-selected executor).
    #[must_use]
    pub fn with_executor(mut self, exec: Arc<dyn Executor>) -> Self {
        let backend = DataflowNtt::new(&self.arch).expect("with_arch built it from this arch");
        self.eval = Evaluator::with_backend(self.ctx, exec, backend);
        self
    }

    /// The evaluator over the simulated modules: call its ops for
    /// results and [`HeaxAccelerator::report`] for their cycles.
    pub fn evaluator(&self) -> &Evaluator<'a, DataflowNtt> {
        &self.eval
    }

    /// The execution backend in use.
    pub fn executor(&self) -> &Arc<dyn Executor> {
        self.eval.executor()
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

    fn priced(&self, op: HeaxOp, interval: u64, latency: u64, inw: u64, outw: u64) -> OpReport {
        OpReport {
            op,
            interval_cycles: interval,
            latency_cycles: latency,
            interval_us: interval as f64 / self.board.freq_hz() * 1e6,
            input_words: inw,
            output_words: outw,
        }
    }

    /// The cycle report of `op` on an input at `level`, from the
    /// architecture's closed forms; no module runs.
    ///
    /// `t` key switches share one decomposition (a hoisted batch): the
    /// first pays the full KeySwitch interval, each further one only the
    /// hoisted tail ([`KeySwitchArch::hoisted_interval_cycles`]), and
    /// `t = 0`, the empty batch, is the all-zero report. MULT+ReLin is the
    /// MULT module's 2×2 product
    /// ([`MultModuleConfig::ciphertext_mult_cycles`] per residue, latency
    /// as [`HeaxAccelerator::dyadic_mult`] reports it, with the Dyadic
    /// pipeline depth) feeding that key switch: the modules overlap in
    /// steady state, so the interval is the larger of theirs and the
    /// latency their sum.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedParameters`] for NTT, INTT and Dyadic,
    /// which their module runs report ([`HeaxAccelerator::ntt`],
    /// [`HeaxAccelerator::intt`], [`HeaxAccelerator::dyadic_mult`]);
    /// [`CkksError::LevelMismatch`] for a `level` above the context's top.
    pub fn report(&self, op: HeaxOp, level: usize, t: u64) -> Result<OpReport, CoreError> {
        if !matches!(op, HeaxOp::KeySwitch | HeaxOp::MultRelin) {
            return Err(CoreError::UnsupportedParameters {
                reason: format!("{} is reported by its module run", op.name()),
            });
        }
        let top = self.ctx.max_level();
        if level > top {
            return Err(CkksError::LevelMismatch { a: level, b: top }.into());
        }
        if t == 0 {
            return Ok(self.priced(op, 0, 0, 0, 0));
        }
        let (n, rows) = (self.ctx.n() as u64, level as u64 + 1);
        let tail = (t - 1) * self.arch.hoisted_interval_cycles();
        let interval = self.arch.steady_interval_cycles() + tail;
        let latency = schedule(&self.arch, 1)?.first_op_latency + tail;
        let output = t * 2 * rows * n;
        if op == HeaxOp::KeySwitch {
            // Input residues plus the special-prime lane.
            return Ok(self.priced(op, interval, latency, (rows + 1) * n, output));
        }
        let mult = rows * self.mult_config.ciphertext_mult_cycles(2, 2);
        let mult_latency = mult + CoreKind::Dyadic.pipeline_stages();
        let input = rows * self.mult_config.input_transfer_words(2, 2);
        let (interval, latency) = (mult.max(interval), mult_latency + latency);
        Ok(self.priced(op, interval, latency, input, output))
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
            exec::for_each_mut(
                self.eval.executor().as_ref(),
                &mut slots,
                |i, (dst, slot)| {
                    let (data, s) = match to {
                        Representation::Ntt => sims[i].forward(poly.residue(i)),
                        Representation::Coefficient => sims[i].inverse(poly.residue(i)),
                    };
                    dst.copy_from_slice(&data);
                    **slot = s;
                },
            );
        }
        out.set_representation(to);
        let (per, latency) = stats.last().map_or((0, 0), |s| (s.cycles, s.latency));
        let n = n as u64;
        Ok((out, self.priced(op, per, latency, n, n)))
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
        self.mult_module(ct1.components(), ct2.components(), ct1.level(), scale)
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
        self.mult_module(ct.components(), b, ct.level(), scale)
    }

    /// One MULT-module pass per residue over the α components of `a` and
    /// the β of `b`. Returns the `α+β−1`-component product and its
    /// report: the interval is the summed module cycles; the residues
    /// stream through the module back to back, so the last result lands
    /// one pipeline depth (the last residue's latency past its cycles)
    /// after that.
    fn mult_module(
        &self,
        a: &[RnsPoly],
        b: &[RnsPoly],
        level: usize,
        scale: f64,
    ) -> Result<(Ciphertext, OpReport), CoreError> {
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
        exec::for_each_mut(self.eval.executor().as_ref(), &mut slots, |i, slot| {
            let limb = |polys: &[RnsPoly]| -> Vec<Vec<u64>> {
                polys.iter().map(|c| c.residue(i).to_vec()).collect()
            };
            *slot = sims[i].multiply(&limb(a), &limb(b));
        });
        let mut cycles = 0u64;
        let mut depth = 0u64;
        for (i, (outs, stats)) in slots.into_iter().enumerate() {
            for (t, res) in outs.into_iter().enumerate() {
                out_polys[t].residue_mut(i).copy_from_slice(&res);
            }
            cycles += stats.cycles;
            depth = stats.latency - stats.cycles;
        }
        let ct = Ciphertext::from_parts(out_polys, level, scale).map_err(CoreError::Ckks)?;
        let inw = self.mult_config.input_transfer_words(alpha, beta) * moduli.len() as u64;
        let outw = self.mult_config.output_transfer_words(alpha, beta) * moduli.len() as u64;
        let report = self.priced(HeaxOp::Dyadic, cycles, cycles + depth, inw, outw);
        Ok((ct, report))
    }

    /// The inner key-switching primitive through the KeySwitch module
    /// datapath (Algorithm 7 / Figure 5): the evaluator's
    /// [`Evaluator::key_switch`] with every transform executed by its
    /// stage's simulated module, plus the one-switch
    /// [`HeaxAccelerator::report`].
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
        let pair = self.eval.key_switch(target, ksk, level)?;
        Ok((pair, self.report(HeaxOp::KeySwitch, level, 1)?))
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
        CkksContext, CkksEncoder, CkksParams, Decryptor, Encryptor, Evaluator, GaloisKeys,
        PublicKey, RelinKey, SecretKey,
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

    /// Residues stream through the MULT module back to back, so a
    /// product's latency is the summed residue cycles plus one Dyadic
    /// pipeline depth: Set-A on Stratix 10 is 2 × 1 024 + 23 cycles, not
    /// the last residue counted twice. MULT+ReLin's latency is that plus
    /// the key switch's, and a ciphertext-plaintext product pays the same
    /// depth once past its own interval.
    #[test]
    fn dyadic_mult_latency_counts_each_residue_once() {
        use heax_ckks::ParamSet;
        let ctx = CkksContext::new(CkksParams::from_set(ParamSet::SetA).unwrap()).unwrap();
        let acc = HeaxAccelerator::new(&ctx, Board::stratix10()).unwrap();
        let top = ctx.max_level();
        let zero = RnsPoly::zero(ctx.n(), ctx.level_moduli(top), Representation::Ntt);
        let ct = Ciphertext::from_parts(vec![zero.clone(), zero], top, 1.0).unwrap();
        let (_, report) = acc.dyadic_mult(&ct, &ct).unwrap();
        assert_eq!(report.interval_cycles, 2 * 1024);
        assert_eq!(report.latency_cycles, 2 * 1024 + 23);
        let switch = acc.report(HeaxOp::KeySwitch, top, 1).unwrap();
        let mult_relin = acc.report(HeaxOp::MultRelin, top, 1).unwrap();
        assert_eq!(
            mult_relin.latency_cycles,
            report.latency_cycles + switch.latency_cycles
        );
        let pt = heax_ckks::Plaintext::from_parts(ct.component(0).clone(), top, 1.0);
        let (_, plain) = acc.multiply_plain(&ct, &pt).unwrap();
        assert_eq!(plain.latency_cycles, plain.interval_cycles + 23);
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
        let out = acc.evaluator().multiply_relin(&c1, &c2, &h.rlk).unwrap();
        let report = acc.report(HeaxOp::MultRelin, c1.level(), 1).unwrap();
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
        let hw_rot = acc.evaluator().rotate(&ct, 1, &gks).unwrap();
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
        let hw = acc.evaluator().rotate_many(&ct, &steps, &gks).unwrap();
        let report = acc
            .report(HeaxOp::KeySwitch, ct.level(), steps.len() as u64)
            .unwrap();
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
        let none = acc.evaluator().rotate_many(&ct, &[], &gks).unwrap();
        let rep0 = acc.report(HeaxOp::KeySwitch, ct.level(), 0).unwrap();
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

    /// The reports of relinearization, one rotation, hoisted rotation
    /// (t = 0, 1, 3) and MULT+ReLin at the top level, as literals: on the
    /// test ring and on Set-A, each on Stratix 10 and Arria 10.
    #[test]
    fn op_reports_are_pinned() {
        use heax_ckks::ParamSet;
        // (interval, latency, µs, input words, output words) of one key
        // switch, of three hoisted ones and of MULT+ReLin.
        type Row = (u64, u64, f64, u64, u64);
        let pinned = |one: Row, three: Row, mult: Row| {
            let report = |op,
                          (
                interval_cycles,
                latency_cycles,
                interval_us,
                input_words,
                output_words,
            ): Row| OpReport {
                op,
                interval_cycles,
                latency_cycles,
                interval_us,
                input_words,
                output_words,
            };
            let ks = |row| report(HeaxOp::KeySwitch, row);
            let zero = ks((0, 0, 0.0, 0, 0));
            [
                ks(one),
                ks(one),
                zero,
                ks(one),
                ks(three),
                report(HeaxOp::MultRelin, mult),
            ]
        };
        let set_a = CkksContext::new(CkksParams::from_set(ParamSet::SetA).unwrap()).unwrap();
        let ring = small_ctx();
        let cases: [(&CkksContext, Board, [OpReport; 6]); 4] = [
            (
                &ring,
                Board::stratix10(),
                pinned(
                    (216, 640, 0.72, 256, 384),
                    (504, 928, 1.68, 256, 1152),
                    (216, 759, 0.72, 768, 384),
                ),
            ),
            (
                &ring,
                Board::arria10(),
                pinned(
                    (216, 640, 0.7854545454545454, 256, 384),
                    (504, 928, 1.8327272727272728, 256, 1152),
                    (216, 759, 0.7854545454545454, 768, 384),
                ),
            ),
            (
                &set_a,
                Board::stratix10(),
                pinned(
                    (3072, 12800, 10.24, 12288, 16384),
                    (9216, 18944, 30.72, 12288, 49152),
                    (3072, 14871, 10.24, 32768, 16384),
                ),
            ),
            (
                &set_a,
                Board::arria10(),
                pinned(
                    (6144, 25600, 22.341818181818184, 12288, 16384),
                    (18432, 37888, 67.02545454545454, 12288, 49152),
                    (6144, 27671, 22.341818181818184, 32768, 16384),
                ),
            ),
        ];
        for (ctx, board, want) in cases {
            let acc = if ctx.n() == 64 {
                HeaxAccelerator::with_arch(
                    ctx,
                    board.clone(),
                    small_arch(),
                    NttModuleConfig::new(64, 4).unwrap(),
                    MultModuleConfig::new(64, 8).unwrap(),
                )
                .unwrap()
            } else {
                HeaxAccelerator::new(ctx, board.clone()).unwrap()
            };
            let top = ctx.max_level();
            let report = |op, t| acc.report(op, top, t).unwrap();
            let switch = report(HeaxOp::KeySwitch, 1);
            let got = [
                switch, // relinearize
                switch, // rotate
                report(HeaxOp::KeySwitch, 0),
                report(HeaxOp::KeySwitch, 1),
                report(HeaxOp::KeySwitch, 3),
                report(HeaxOp::MultRelin, 1),
            ];
            assert_eq!(got, want, "n = {}, {}", ctx.n(), board.name());
        }
        // The module ops are reported by their module runs, and a level
        // the chain does not have is no level.
        let acc = accel(&ring);
        for op in [HeaxOp::Ntt, HeaxOp::Intt, HeaxOp::Dyadic] {
            assert!(matches!(
                acc.report(op, 0, 1),
                Err(CoreError::UnsupportedParameters { .. })
            ));
        }
        assert_eq!(
            acc.report(HeaxOp::KeySwitch, ring.max_level() + 1, 1),
            Err(CoreError::Ckks(CkksError::LevelMismatch { a: 3, b: 2 }))
        );
    }

    /// The level-aware ops reach the simulated modules too: a rescale's
    /// floor and the reply-level rotations equal the software evaluator's.
    #[test]
    fn hw_rescale_and_reply_level_rotations_match_software() {
        let mut h = harness(60);
        let vals: Vec<f64> = (0..h.ctx.n() / 2).map(|i| i as f64 * 0.5).collect();
        let ct = h.encrypt(&vals);
        let steps = [1i64, -2];
        let gks = GaloisKeys::generate(&h.ctx, &h.sk, &steps, &mut h.rng);
        let (hw, sw) = (accel(&h.ctx), Evaluator::new(&h.ctx));
        let hw = hw.evaluator();
        assert_eq!(hw.rescale(&ct).unwrap(), sw.rescale(&ct).unwrap());
        for to in 0..=ct.level() {
            assert_eq!(
                hw.rotate_to_level(&ct, 1, &gks, to).unwrap(),
                sw.rotate_to_level(&ct, 1, &gks, to).unwrap()
            );
            assert_eq!(
                hw.rotate_many_to_level(&ct, &steps, &gks, to).unwrap(),
                sw.rotate_many_to_level(&ct, &steps, &gks, to).unwrap()
            );
        }
    }

    /// A chain that is not the architecture's `k` would be priced as
    /// another parameter set: n = 4096 with three ciphertext primes is not
    /// Set-A (k = 2).
    #[test]
    fn a_chain_other_than_the_arch_k_is_rejected() {
        let chain = heax_math::primes::generate_prime_chain(&[36, 36, 36, 37], 4096).unwrap();
        let ctx =
            CkksContext::new(CkksParams::new(4096, chain, (1u64 << 30) as f64).unwrap()).unwrap();
        assert_eq!(ctx.params().k(), 3);
        for board in [Board::stratix10(), Board::arria10()] {
            assert!(matches!(
                HeaxAccelerator::new(&ctx, board),
                Err(CoreError::UnsupportedParameters { .. })
            ));
        }
        let mut arch = small_arch();
        arch.k = 2;
        let ring = small_ctx();
        let err = HeaxAccelerator::with_arch(
            &ring,
            Board::stratix10(),
            arch,
            NttModuleConfig::new(64, 4).unwrap(),
            MultModuleConfig::new(64, 8).unwrap(),
        );
        assert!(matches!(err, Err(CoreError::UnsupportedParameters { .. })));
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
