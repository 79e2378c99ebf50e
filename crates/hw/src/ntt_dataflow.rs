//! Cycle-accurate, functionally exact simulation of the HEAX NTT/INTT
//! module (Section 4.2, Figures 2–4).
//!
//! The module stores the polynomial across `ncNTT` parallel BRAM groups;
//! one *memory element* (ME) — a row across the groups — is fetched per
//! cycle. After the "Two-Stage Read, Compute, and Write" optimization
//! (Figure 4) each ME holds `2·ncNTT` consecutive coefficients, so the
//! `ncNTT` butterfly cores are fully utilized in every stage:
//!
//! * **Type-1 stages** (butterfly distance ≥ ME size): coefficient pairs
//!   straddle two MEs. The module reads two MEs in two cycles, computes
//!   two MEs worth of butterflies in the next two, and writes both back —
//!   pipelined, sustaining one ME per cycle.
//! * **Type-2 stages** (distance < ME size): pairs live inside a single
//!   ME; the customized multiplexers (Figure 3) route coefficients to
//!   cores. One ME per cycle.
//!
//! Every stage is processed **in place** (`n/(2·ncNTT)` MEs per stage,
//! `log n` stages), giving the paper's cycle count
//! `n·log n / (2·ncNTT)` with no intermediate BRAM. The simulator moves
//! real residues through modeled [`MemoryBank`]s and butterfly cores and
//! is checked bit-exactly against the software NTT of `heax-math`.

use heax_math::ntt::NttTable;

use crate::bram::{BankLayout, MemoryBank};
use crate::cores::{check_hw_modulus, CoreKind, InttCore, NttCore};
use crate::resources::Resources;
use crate::HwError;

/// Access-pattern classification of a stage (Figure 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageKind {
    /// Butterfly partners live in different MEs.
    Type1,
    /// Butterfly partners live within one ME.
    Type2,
}

/// Static configuration of an NTT/INTT module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NttModuleConfig {
    /// Ring degree `n`.
    pub n: usize,
    /// Number of butterfly cores (`ncNTT`).
    pub num_cores: usize,
}

impl NttModuleConfig {
    /// Validated configuration.
    ///
    /// # Errors
    ///
    /// [`HwError::InvalidConfig`] unless `n` and `num_cores` are powers of
    /// two with `4·num_cores ≤ n` (each ME of `2·nc` words must cover at
    /// most half the polynomial so that at least one Type-1 stage exists).
    pub fn new(n: usize, num_cores: usize) -> Result<Self, HwError> {
        if !n.is_power_of_two() || !num_cores.is_power_of_two() || num_cores == 0 {
            return Err(HwError::InvalidConfig {
                reason: format!("n={n} and num_cores={num_cores} must be powers of two"),
            });
        }
        if 4 * num_cores > n {
            return Err(HwError::InvalidConfig {
                reason: format!("num_cores={num_cores} too large for n={n} (need 4·nc ≤ n)"),
            });
        }
        Ok(Self { n, num_cores })
    }

    /// Coefficients per memory element (`2·ncNTT`, the doubled MEs of the
    /// optimized pipeline).
    pub fn me_words(&self) -> usize {
        2 * self.num_cores
    }

    /// Number of data MEs (`n / (2·ncNTT)`).
    pub fn num_mes(&self) -> usize {
        self.n / self.me_words()
    }

    /// `log₂ n`.
    pub fn log_n(&self) -> u32 {
        self.n.trailing_zeros()
    }

    /// `log₂ ncNTT`.
    pub fn log_nc(&self) -> u32 {
        self.num_cores.trailing_zeros()
    }

    /// Stage classification for forward-NTT stage `i` (0-based, blocks
    /// `m = 2^i`): Type 1 for the first `log n − log nc − 1` stages.
    pub fn stage_kind(&self, stage: u32) -> StageKind {
        if stage < self.log_n() - self.log_nc() - 1 {
            StageKind::Type1
        } else {
            StageKind::Type2
        }
    }

    /// Steady-state cycles for one transform: `n·log n / (2·ncNTT)`
    /// (Section 4.2, "Performance").
    pub fn transform_cycles(&self) -> u64 {
        (self.n as u64 * self.log_n() as u64) / (2 * self.num_cores as u64)
    }

    /// Cycles for one transform under the **basic** (pre-optimization)
    /// pipeline of Figure 4: Type-1 stages insert a 50 % bubble, doubling
    /// their compute slots.
    pub fn transform_cycles_basic(&self) -> u64 {
        let per_stage = (self.n as u64) / (2 * self.num_cores as u64);
        let t1 = (self.log_n() - self.log_nc() - 1) as u64;
        let t2 = self.log_n() as u64 - t1;
        t1 * 2 * per_stage + t2 * per_stage
    }

    /// Core utilization of the basic pipeline (optimized is 1.0) — the
    /// Figure 4 comparison.
    pub fn basic_pipeline_utilization(&self) -> f64 {
        self.transform_cycles() as f64 / self.transform_cycles_basic() as f64
    }

    /// Logic resources of the module: `nc` cores plus the super-linear
    /// multiplexer overhead `O(nc·log nc)` the paper attributes to the
    /// customized MUX trees (Section 4.3).
    pub fn module_resources(&self, kind: CoreKind) -> Resources {
        let cores = kind.cost() * self.num_cores as u64;
        // Customized MUXes: 4·nc muxes of log(2nc) inputs on each side of
        // the cores, ~54-bit wide; modeled as ALM/REG cost per selectable
        // input (one 6-LUT handles ~2 bits of a 2:1 mux).
        let mux_inputs = 4 * self.num_cores as u64 * (self.log_nc() as u64 + 1);
        let mux = Resources::logic(0, mux_inputs * 54, mux_inputs * 27);
        // Data memory: nc parallel groups of doubled MEs + output memory +
        // twiddle memories (n twiddles of 54 bits packed nc-wide).
        let data = BankLayout::polynomial(self.n as u64, self.me_words() as u64);
        let out = data;
        let twiddle = BankLayout::polynomial(self.n as u64, self.num_cores as u64);
        let twiddle_prec = twiddle; // MulRed precomputed quotients
        cores
            + mux
            + data.resources()
            + out.resources()
            + twiddle.resources()
            + twiddle_prec.resources()
    }
}

/// Run statistics from a simulated transform.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NttRunStats {
    /// Initiation-interval cycles (steady-state occupancy of the module).
    pub cycles: u64,
    /// Total latency including core pipeline fill.
    pub latency: u64,
    /// Data-memory ME reads.
    pub me_reads: u64,
    /// Data-memory ME writes.
    pub me_writes: u64,
    /// Twiddle-memory ME reads.
    pub twiddle_me_reads: u64,
    /// Butterflies executed (must equal `n/2·log n`).
    pub butterflies: u64,
    /// Stage classification sequence.
    pub stage_kinds: Vec<StageKind>,
}

/// Cycle-accurate NTT/INTT module simulator bound to one twiddle table.
#[derive(Clone, Debug)]
pub struct NttModuleSim<'a> {
    config: NttModuleConfig,
    table: &'a NttTable,
}

impl<'a> NttModuleSim<'a> {
    /// Binds a module configuration to a twiddle table.
    ///
    /// # Errors
    ///
    /// [`HwError::InvalidConfig`] on degree mismatch;
    /// [`HwError::ModulusTooWide`] if the modulus exceeds the 52-bit
    /// datapath bound.
    pub fn new(config: NttModuleConfig, table: &'a NttTable) -> Result<Self, HwError> {
        if table.n() != config.n {
            return Err(HwError::InvalidConfig {
                reason: format!("table degree {} != module degree {}", table.n(), config.n),
            });
        }
        check_hw_modulus(table.modulus())?;
        Ok(Self { config, table })
    }

    /// The configuration.
    pub fn config(&self) -> &NttModuleConfig {
        &self.config
    }

    /// Simulates a forward NTT through the banked-memory dataflow,
    /// returning the transformed polynomial and run statistics.
    ///
    /// # Panics
    ///
    /// Panics if `poly.len() != n`.
    pub fn forward(&self, poly: &[u64]) -> (Vec<u64>, NttRunStats) {
        assert_eq!(poly.len(), self.config.n, "polynomial length mismatch");
        let n = self.config.n;
        let log_n = self.config.log_n();
        let mut bank = MemoryBank::new(BankLayout::polynomial(
            n as u64,
            self.config.me_words() as u64,
        ));
        bank.load(poly);
        let mut core = NttCore::new();
        let mut stats = NttRunStats::default();

        for stage in 0..log_n {
            let m = 1usize << stage; // number of butterfly blocks
            stats.stage_kinds.push(self.config.stage_kind(stage));
            self.run_forward_stage(stage, m, &mut bank, &mut core, &mut stats);
            stats.cycles = stats
                .cycles
                .saturating_add((n / self.config.me_words()) as u64);
        }
        stats.me_reads = bank.reads();
        stats.me_writes = bank.writes();
        stats.butterflies = core.butterflies();
        stats.latency = stats.cycles + CoreKind::Ntt.pipeline_stages() + 4;
        (bank.dump(n).to_vec(), stats)
    }

    fn run_forward_stage(
        &self,
        stage: u32,
        m: usize,
        bank: &mut MemoryBank,
        core: &mut NttCore,
        stats: &mut NttRunStats,
    ) {
        let n = self.config.n;
        let me_words = self.config.me_words();
        let t = n >> (stage + 1); // butterfly distance
        let p = self.table.modulus();
        let mut last_twiddle_me = u64::MAX;
        if t >= me_words {
            // Type 1: partner coefficients in a different ME.
            let stride = t / me_words;
            let total_mes = n / me_words;
            for group in 0..total_mes / (2 * stride) {
                for off in 0..stride {
                    let ra = (group * 2 * stride + off) as u64;
                    let rb = ra + stride as u64;
                    let mut ea = bank.read_me(ra);
                    let mut eb = bank.read_me(rb);
                    // All of ea lies in one block (block size 2t ≥ 2·ME):
                    // one twiddle is broadcast to every core.
                    let block = (ra as usize * me_words) / (2 * t);
                    let w = self.table.forward_twiddle(m + block);
                    self.count_twiddle_read(m + block, &mut last_twiddle_me, stats);
                    for l in 0..me_words {
                        let (x, y) = core.butterfly(ea[l], eb[l], w, p);
                        ea[l] = x;
                        eb[l] = y;
                    }
                    bank.write_me(ra, &ea);
                    bank.write_me(rb, &eb);
                }
            }
        } else {
            // Type 2: pairs within a single ME.
            for r in 0..self.config.num_mes() {
                let mut e = bank.read_me(r as u64);
                let blocks_per_me = me_words / (2 * t);
                for lb in 0..blocks_per_me {
                    let block = (r * me_words) / (2 * t) + lb;
                    let w = self.table.forward_twiddle(m + block);
                    self.count_twiddle_read(m + block, &mut last_twiddle_me, stats);
                    for j in 0..t {
                        let ia = lb * 2 * t + j;
                        let ib = ia + t;
                        let (x, y) = core.butterfly(e[ia], e[ib], w, p);
                        e[ia] = x;
                        e[ib] = y;
                    }
                }
                bank.write_me(r as u64, &e);
            }
        }
    }

    /// [`NttModuleSim::forward`] of a residue loaded through the `Mod`
    /// unit that feeds NTT0/NTT1 in the KeySwitch datapath (Algorithm 7,
    /// lines 6 and 14): `poly` holds coefficients under another prime,
    /// each reduced modulo this module's prime as it enters the banks.
    ///
    /// # Panics
    ///
    /// Panics if `poly.len() != n`.
    // DOMAIN: [0,p)
    pub fn forward_reduced(&self, poly: &[u64]) -> (Vec<u64>, NttRunStats) {
        let p = self.table.modulus();
        let reduced: Vec<u64> = poly.iter().map(|&x| p.reduce_u64(x)).collect();
        self.forward(&reduced)
    }

    /// Simulates an inverse NTT (INTT module: same architecture, INTT
    /// cores, stages in reverse order — Section 4.2, "INTT Module").
    ///
    /// # Panics
    ///
    /// Panics if `poly.len() != n`.
    pub fn inverse(&self, poly: &[u64]) -> (Vec<u64>, NttRunStats) {
        assert_eq!(poly.len(), self.config.n, "polynomial length mismatch");
        let n = self.config.n;
        let log_n = self.config.log_n();
        let mut bank = MemoryBank::new(BankLayout::polynomial(
            n as u64,
            self.config.me_words() as u64,
        ));
        bank.load(poly);
        let mut core = InttCore::new();
        let mut stats = NttRunStats::default();

        // Stages run in reverse: m = n/2 down to 1.
        for rev in 0..log_n {
            let stage = log_n - 1 - rev; // forward-stage index being undone
            let m = 1usize << stage;
            stats.stage_kinds.push(self.config.stage_kind(stage));
            self.run_inverse_stage(stage, m, &mut bank, &mut core, &mut stats);
            stats.cycles = stats
                .cycles
                .saturating_add((n / self.config.me_words()) as u64);
        }
        stats.me_reads = bank.reads();
        stats.me_writes = bank.writes();
        stats.butterflies = core.butterflies();
        stats.latency = stats.cycles + CoreKind::Intt.pipeline_stages() + 4;
        (bank.dump(n).to_vec(), stats)
    }

    fn run_inverse_stage(
        &self,
        stage: u32,
        m: usize,
        bank: &mut MemoryBank,
        core: &mut InttCore,
        stats: &mut NttRunStats,
    ) {
        let n = self.config.n;
        let me_words = self.config.me_words();
        let t = n >> (stage + 1);
        let p = self.table.modulus();
        let mut last_twiddle_me = u64::MAX;
        if t >= me_words {
            let stride = t / me_words;
            let total_mes = n / me_words;
            for group in 0..total_mes / (2 * stride) {
                for off in 0..stride {
                    let ra = (group * 2 * stride + off) as u64;
                    let rb = ra + stride as u64;
                    let mut ea = bank.read_me(ra);
                    let mut eb = bank.read_me(rb);
                    let block = (ra as usize * me_words) / (2 * t);
                    let w = self.table.inverse_twiddle(m + block);
                    self.count_twiddle_read(m + block, &mut last_twiddle_me, stats);
                    for l in 0..me_words {
                        let (x, y) = core.butterfly(ea[l], eb[l], w, p);
                        ea[l] = x;
                        eb[l] = y;
                    }
                    bank.write_me(ra, &ea);
                    bank.write_me(rb, &eb);
                }
            }
        } else {
            for r in 0..self.config.num_mes() {
                let mut e = bank.read_me(r as u64);
                let blocks_per_me = me_words / (2 * t);
                for lb in 0..blocks_per_me {
                    let block = (r * me_words) / (2 * t) + lb;
                    let w = self.table.inverse_twiddle(m + block);
                    self.count_twiddle_read(m + block, &mut last_twiddle_me, stats);
                    for j in 0..t {
                        let ia = lb * 2 * t + j;
                        let ib = ia + t;
                        let (x, y) = core.butterfly(e[ia], e[ib], w, p);
                        e[ia] = x;
                        e[ib] = y;
                    }
                }
                bank.write_me(r as u64, &e);
            }
        }
    }

    fn count_twiddle_read(&self, twiddle_index: usize, last: &mut u64, stats: &mut NttRunStats) {
        // Twiddle factors are stored nc-wide; a new ME read happens only
        // when the index crosses into a new twiddle ME (group i-iv access
        // behavior of Section 4.2).
        let me = (twiddle_index / self.config.num_cores) as u64;
        if me != *last {
            stats.twiddle_me_reads = stats.twiddle_me_reads.saturating_add(1);
            *last = me;
        }
    }
}

/// Access-pattern address generation (Figure 2 and the Address Logic of
/// Section 4.2). These formulas describe the *pre-optimization* layout
/// with `ncNTT` coefficients per ME.
pub mod access {
    /// ME address of the coefficient group fetched at stage `i`, read
    /// cycle `j` of a Type-1 stage (paper's `Addr{ME_coeff}` formula).
    ///
    /// Note: the published formula ends in "`s·(j mod 2)`", which cannot
    /// reach the partner ME (it adds at most `s`). Deriving from the
    /// layout — ME stride between partners is `2^{s+1}` with
    /// `s = log n − log nc − 2 − i` — and checking the paper's own example
    /// (`n = 4096`, `ncNTT = 8`: `x[0]` in `ME0` pairs with `x[2048]` in
    /// `ME256`) gives the corrected formula implemented here:
    ///
    /// `addr = ((j≫1) mod 2^{s+1}) + (j ≫ (s+2)) · 2^{s+2} + (j mod 2) · 2^{s+1}`
    ///
    /// (even read cycles fetch the low ME of a pair, odd cycles its
    /// partner). Verified against the ground-truth pairing in tests.
    pub fn addr_me_coeff(i: u32, j: u64, log_n: u32, log_nc: u32) -> u64 {
        let s = (log_n - log_nc - 2 - i) as u64;
        let within = (j >> 1) & ((1u64 << (s + 1)) - 1);
        let group_base = (j >> (s + 2)) << (s + 2);
        let partner = (j & 1) << (s + 1);
        within + group_base + partner
    }

    /// Ground-truth ME pair for step `h` of Type-1 stage `i` (ME size
    /// `nc`): the `h`-th butterfly group reads MEs `(lo, lo + t/nc)`.
    pub fn ground_truth_pair(i: u32, h: u64, log_n: u32, log_nc: u32) -> (u64, u64) {
        let n = 1u64 << log_n;
        let nc = 1u64 << log_nc;
        let t = n >> (i + 1); // butterfly distance in coefficients
        let stride = t / nc; // distance in MEs
        let group = h / stride;
        let off = h % stride;
        let lo = group * 2 * stride + off;
        (lo, lo + stride)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heax_math::primes::generate_ntt_primes;
    use heax_math::word::Modulus;

    fn table(n: usize) -> NttTable {
        let p = generate_ntt_primes(45, 1, n).unwrap()[0];
        NttTable::new(n, Modulus::new(p).unwrap()).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(NttModuleConfig::new(4096, 8).is_ok());
        assert!(NttModuleConfig::new(4095, 8).is_err());
        assert!(NttModuleConfig::new(4096, 3).is_err());
        assert!(NttModuleConfig::new(16, 8).is_err()); // 4·8 > 16
        assert!(NttModuleConfig::new(64, 16).is_ok());
    }

    #[test]
    fn cycle_formula_matches_paper() {
        // Table 7 back-solves: n=4096, nc=16 → 1536 cycles; n=8192, nc=16
        // → 3328; n=16384, nc=16 → 7168.
        assert_eq!(
            NttModuleConfig::new(4096, 16).unwrap().transform_cycles(),
            1536
        );
        assert_eq!(
            NttModuleConfig::new(8192, 16).unwrap().transform_cycles(),
            3328
        );
        assert_eq!(
            NttModuleConfig::new(16384, 16).unwrap().transform_cycles(),
            7168
        );
        assert_eq!(
            NttModuleConfig::new(4096, 8).unwrap().transform_cycles(),
            3072
        );
    }

    #[test]
    fn forward_matches_software_ntt() {
        for (n, nc) in [(64usize, 4usize), (256, 8), (1024, 4), (4096, 16)] {
            let t = table(n);
            let sim = NttModuleSim::new(NttModuleConfig::new(n, nc).unwrap(), &t).unwrap();
            let p = t.modulus().value();
            let input: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15) % p)
                .collect();
            let mut expect = input.clone();
            t.forward(&mut expect);
            let (got, stats) = sim.forward(&input);
            assert_eq!(got, expect, "n={n} nc={nc}");
            assert_eq!(stats.cycles, sim.config().transform_cycles());
            assert_eq!(
                stats.butterflies,
                (n as u64 / 2) * n.trailing_zeros() as u64
            );
        }
    }

    #[test]
    fn inverse_matches_software_intt() {
        for (n, nc) in [(64usize, 4usize), (1024, 8), (4096, 16)] {
            let t = table(n);
            let sim = NttModuleSim::new(NttModuleConfig::new(n, nc).unwrap(), &t).unwrap();
            let p = t.modulus().value();
            let input: Vec<u64> = (0..n as u64).map(|i| (i * 31 + 7) % p).collect();
            let mut expect = input.clone();
            t.inverse(&mut expect);
            let (got, stats) = sim.inverse(&input);
            assert_eq!(got, expect, "n={n} nc={nc}");
            assert_eq!(stats.cycles, sim.config().transform_cycles());
        }
    }

    #[test]
    fn roundtrip_through_hardware() {
        let n = 512;
        let t = table(n);
        let sim = NttModuleSim::new(NttModuleConfig::new(n, 8).unwrap(), &t).unwrap();
        let p = t.modulus().value();
        let input: Vec<u64> = (0..n as u64).map(|i| (i * i) % p).collect();
        let (fwd, _) = sim.forward(&input);
        let (back, _) = sim.inverse(&fwd);
        assert_eq!(back, input);
    }

    #[test]
    fn stage_type_counts_match_paper() {
        // "first log n − log nc − 1 stages" are Type 1.
        let cfg = NttModuleConfig::new(4096, 8).unwrap();
        let t1_expected = (cfg.log_n() - cfg.log_nc() - 1) as usize;
        let t = table(4096);
        let sim = NttModuleSim::new(cfg, &t).unwrap();
        let input = vec![1u64; 4096];
        let (_, stats) = sim.forward(&input);
        let t1 = stats
            .stage_kinds
            .iter()
            .filter(|&&k| k == StageKind::Type1)
            .count();
        assert_eq!(t1, t1_expected);
        assert_eq!(stats.stage_kinds.len(), cfg.log_n() as usize);
        // INTT visits the same stage kinds in reverse.
        let (_, istats) = sim.inverse(&input);
        let mut rev = istats.stage_kinds.clone();
        rev.reverse();
        assert_eq!(rev, stats.stage_kinds);
    }

    #[test]
    fn in_place_memory_budget() {
        // All reads/writes are in place: exactly one read + one write per
        // ME per stage (Type 1 counts pairs, same total).
        let n = 1024;
        let cfg = NttModuleConfig::new(n, 8).unwrap();
        let t = table(n);
        let sim = NttModuleSim::new(cfg, &t).unwrap();
        let (_, stats) = sim.forward(&vec![0u64; n]);
        let per_stage = (n / cfg.me_words()) as u64;
        assert_eq!(stats.me_reads, per_stage * cfg.log_n() as u64);
        assert_eq!(stats.me_writes, per_stage * cfg.log_n() as u64);
    }

    #[test]
    fn basic_pipeline_is_slower() {
        // Figure 4: the optimized pipeline removes the 50 % bubble of
        // Type-1 stages.
        let cfg = NttModuleConfig::new(4096, 8).unwrap();
        assert!(cfg.transform_cycles_basic() > cfg.transform_cycles());
        let util = cfg.basic_pipeline_utilization();
        // log n = 12, T1 = 8 stages doubled: 12/(12+8) = 0.6.
        assert!((util - 0.6).abs() < 1e-9);
    }

    #[test]
    fn corrected_address_formula_matches_ground_truth() {
        // Figure 2 / Address Logic: for every Type-1 stage and step, the
        // (corrected) formula generates exactly the ground-truth ME pair.
        for (log_n, log_nc) in [(12u32, 3u32), (10, 2), (8, 3)] {
            let n = 1u64 << log_n;
            let nc = 1u64 << log_nc;
            let type1_stages = log_n - log_nc - 1;
            for i in 0..type1_stages {
                let t = n >> (i + 1);
                let steps = n / nc / 2; // butterfly groups per stage
                for h in 0..steps.min(512) {
                    let (lo, hi) = access::ground_truth_pair(i, h, log_n, log_nc);
                    let a_even = access::addr_me_coeff(i, 2 * h, log_n, log_nc);
                    let a_odd = access::addr_me_coeff(i, 2 * h + 1, log_n, log_nc);
                    assert_eq!(
                        (a_even, a_odd),
                        (lo, hi),
                        "log_n={log_n} nc={nc} stage={i} step={h} t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn papers_worked_example() {
        // n = 4096, nc = 8: first step of first stage pairs ME0 and ME256
        // (x[0] with x[2048]).
        assert_eq!(access::addr_me_coeff(0, 0, 12, 3), 0);
        assert_eq!(access::addr_me_coeff(0, 1, 12, 3), 256);
    }

    #[test]
    fn module_resources_scale_superlinearly() {
        let small = NttModuleConfig::new(8192, 8)
            .unwrap()
            .module_resources(CoreKind::Ntt);
        let large = NttModuleConfig::new(8192, 16)
            .unwrap()
            .module_resources(CoreKind::Ntt);
        // Cores double exactly; ALM grows more than 2× due to MUX trees
        // (the O(nc·log nc) term of Section 4.3).
        assert_eq!(large.dsp, 2 * small.dsp);
        assert!(large.alm > 2 * small.alm);
        // BRAM bits are per-polynomial, not per-core.
        assert!(large.bram_bits <= small.bram_bits * 2);
    }

    #[test]
    fn rejects_wide_modulus() {
        let p = generate_ntt_primes(60, 1, 64).unwrap()[0];
        let t = NttTable::new(64, Modulus::new(p).unwrap()).unwrap();
        assert!(matches!(
            NttModuleSim::new(NttModuleConfig::new(64, 4).unwrap(), &t),
            Err(HwError::ModulusTooWide { .. })
        ));
    }
}
