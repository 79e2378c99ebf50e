//! # heax-bench
//!
//! Harness regenerating every table and figure of the HEAX paper's
//! evaluation (Section 6). Each `table*`/`figure*` binary prints the
//! paper's artifact next to this reproduction's model/measurement:
//!
//! ```text
//! cargo run -p heax-bench --release --bin table5
//! cargo run -p heax-bench --release --bin table7
//! cargo bench -p heax-bench --bench cpu_highlevel   # CPU-side of Tables 7/8
//! ```
//!
//! The library part holds shared table formatting and the CPU-side
//! measurement loop reused by both the binaries and the Criterion benches.

#![forbid(unsafe_code)]

use std::time::Instant;

/// Renders an ASCII table with a title.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let sep: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!(" {:>w$} ", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("|")
    };
    let mut out = format!("\n== {title} ==\n");
    let headers: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&headers));
    out.push('\n');
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Formats an ops/second figure compactly.
pub fn fmt_ops(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

/// Formats a ratio as `N.N×`.
pub fn fmt_speedup(v: f64) -> String {
    format!("{v:.1}x")
}

/// Measures the steady-state rate of `f` in operations/second: warms up,
/// then runs batches until `budget_ms` elapses.
pub fn measure_ops_per_sec<F: FnMut()>(mut f: F, budget_ms: u64) -> f64 {
    // Warm-up.
    f();
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed().as_millis() < budget_ms as u128 {
        f();
        iters += 1;
    }
    iters as f64 / start.elapsed().as_secs_f64()
}

/// Relative delta of `got` against `reference`, as a signed percent string.
pub fn fmt_delta(got: f64, reference: f64) -> String {
    format!("{:+.1}%", 100.0 * (got - reference) / reference)
}

/// Shared CPU-baseline workloads for the Table 7/8 binaries and the
/// Criterion benches.
pub mod workloads {
    use heax_ckks::{
        Ciphertext, CkksContext, CkksEncoder, CkksParams, Encryptor, ParamSet, PublicKey, RelinKey,
        SecretKey,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Everything needed to measure the CPU baseline for one set.
    pub struct SetWorkload {
        /// Context for the set.
        pub ctx: CkksContext,
        /// Secret key.
        pub sk: SecretKey,
        /// Relinearization key.
        pub rlk: RelinKey,
        /// Two fresh sample ciphertexts at top level.
        pub ct_a: Ciphertext,
        /// Second operand.
        pub ct_b: Ciphertext,
        /// An un-relinearized product (3 components).
        pub ct_prod: Ciphertext,
        /// A sample single-residue polynomial (coefficient form).
        pub residue: Vec<u64>,
        /// The same residue in NTT form.
        pub residue_ntt: Vec<u64>,
    }

    /// Builds keys, ciphertexts, and sample polynomials for `set`.
    ///
    /// # Panics
    ///
    /// Panics on internal errors (cannot happen for the built-in sets).
    pub fn prepare(set: ParamSet) -> SetWorkload {
        let ctx = CkksContext::new(CkksParams::from_set(set).expect("params")).expect("ctx");
        let mut rng = StdRng::seed_from_u64(0x4845_4158); // "HEAX"
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng);
        let rlk = RelinKey::generate(&ctx, &sk, &mut rng);
        let enc = CkksEncoder::new(&ctx);
        let scale = ctx.params().scale();
        let vals_a: Vec<f64> = (0..8).map(|i| i as f64 * 0.5 + 1.0).collect();
        let vals_b: Vec<f64> = (0..8).map(|i| 2.0 - i as f64 * 0.25).collect();
        let pt_a = enc
            .encode_real(&vals_a, scale, ctx.max_level())
            .expect("encode");
        let pt_b = enc
            .encode_real(&vals_b, scale, ctx.max_level())
            .expect("encode");
        let encryptor = Encryptor::new(&ctx, &pk);
        let ct_a = encryptor.encrypt(&pt_a, &mut rng).expect("encrypt");
        let ct_b = encryptor.encrypt(&pt_b, &mut rng).expect("encrypt");
        let ct_prod = heax_ckks::Evaluator::new(&ctx)
            .multiply(&ct_a, &ct_b)
            .expect("multiply");

        let p0 = ctx.moduli()[0].value();
        let residue: Vec<u64> = (0..ctx.n() as u64)
            .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15) % p0)
            .collect();
        let mut residue_ntt = residue.clone();
        ctx.ntt_table(0).forward(&mut residue_ntt);
        SetWorkload {
            ctx,
            sk,
            rlk,
            ct_a,
            ct_b,
            ct_prod,
            residue,
            residue_ntt,
        }
    }
}

/// Workloads and measurement helpers for the parallel execution backend
/// (`heax_math::exec`): sequential vs thread-pool NTT round-trips and key
/// switching, shared by the `parallel_backend` Criterion bench and the
/// `bench_parallel` snapshot binary.
pub mod parallel {
    use std::sync::Arc;

    use heax_ckks::{Evaluator, ParamSet};
    use heax_math::exec::{self, Executor};
    use heax_math::poly::{Representation, RnsPoly};

    use crate::workloads::{self, SetWorkload};

    /// Ring degrees the backend is benchmarked at (the paper's Set-A/B/C).
    pub const SIZES: [usize; 3] = [4096, 8192, 16384];

    /// Lane counts compared against [`exec::Sequential`].
    pub const THREADS: [usize; 3] = [2, 4, 8];

    /// The paper parameter set with ring degree `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not 4096, 8192, or 16384.
    pub fn set_for_n(n: usize) -> ParamSet {
        match n {
            4096 => ParamSet::SetA,
            8192 => ParamSet::SetB,
            16384 => ParamSet::SetC,
            other => panic!("no paper parameter set with n = {other}"),
        }
    }

    /// A prepared parameter set plus a full-width coefficient-form
    /// polynomial for NTT round-trips.
    pub struct ParallelWorkload {
        /// Keys, ciphertexts, and context for the set.
        pub w: SetWorkload,
        /// All-limb polynomial in coefficient form (top level).
        pub poly: RnsPoly,
    }

    /// Builds the workload for ring degree `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a paper ring degree.
    pub fn prepare(n: usize) -> ParallelWorkload {
        let w = workloads::prepare(set_for_n(n));
        let moduli = w.ctx.level_moduli(w.ctx.max_level()).to_vec();
        let mut poly = RnsPoly::zero(n, &moduli, Representation::Coefficient);
        for (i, m) in moduli.iter().enumerate() {
            for (j, c) in poly.residue_mut(i).iter_mut().enumerate() {
                *c = (j as u64).wrapping_mul(0x9e3779b97f4a7c15 + i as u64) % m.value();
            }
        }
        ParallelWorkload { w, poly }
    }

    /// One benchmark operation: forward + inverse NTT of every limb
    /// through `exec` (returns the polynomial to its original state, so
    /// it can be iterated in place).
    ///
    /// # Panics
    ///
    /// Panics on representation errors (cannot happen from [`prepare`]).
    pub fn ntt_roundtrip(wl: &mut ParallelWorkload, exec: &dyn Executor) {
        let tables = wl.w.ctx.ntt_tables();
        wl.poly.ntt_forward_with(tables, exec).expect("forward");
        wl.poly.ntt_inverse_with(tables, exec).expect("inverse");
    }

    /// One benchmark operation: the full key-switch inner primitive on
    /// the workload's 3-component product, through an evaluator pinned to
    /// `exec`.
    ///
    /// # Panics
    ///
    /// Panics on evaluation errors (cannot happen from [`prepare`]).
    pub fn key_switch_once(wl: &ParallelWorkload, eval: &Evaluator<'_>) {
        let _ = eval
            .key_switch(
                wl.w.ct_prod.component(2),
                wl.w.rlk.ksk(),
                wl.w.ct_prod.level(),
            )
            .expect("key_switch");
    }

    /// Measures ops/second of the NTT round-trip and key switch for one
    /// executor, using the shared wall-clock loop.
    pub fn measure_one(
        wl: &mut ParallelWorkload,
        exec: &Arc<dyn Executor>,
        budget_ms: u64,
    ) -> (f64, f64) {
        let ntt = crate::measure_ops_per_sec(|| ntt_roundtrip(wl, exec.as_ref()), budget_ms);
        let eval = Evaluator::with_executor(&wl.w.ctx, exec.clone());
        let ks = crate::measure_ops_per_sec(|| key_switch_once(wl, &eval), budget_ms);
        (ntt, ks)
    }

    /// Runs the full sequential-vs-parallel sweep, returning one record
    /// per `(op, n, threads)` point with speedups relative to the
    /// sequential backend at the same `n`.
    pub fn measure_suite(budget_ms: u64) -> Vec<crate::bench_json::BenchRecord> {
        use crate::bench_json::BenchRecord;
        let mut records = Vec::new();
        for n in SIZES {
            eprintln!("preparing n = {n} ...");
            let mut wl = prepare(n);
            let seq: Arc<dyn Executor> = Arc::new(exec::Sequential);
            let (ntt_seq, ks_seq) = measure_one(&mut wl, &seq, budget_ms);
            records.push(BenchRecord::new("ntt_roundtrip", n, 1, ntt_seq, 1.0));
            records.push(BenchRecord::new("key_switch", n, 1, ks_seq, 1.0));
            for k in THREADS {
                let pool = exec::with_threads(k);
                let (ntt_k, ks_k) = measure_one(&mut wl, &pool, budget_ms);
                records.push(BenchRecord::new(
                    "ntt_roundtrip",
                    n,
                    k,
                    ntt_k,
                    ntt_k / ntt_seq,
                ));
                records.push(BenchRecord::new("key_switch", n, k, ks_k, ks_k / ks_seq));
            }
        }
        records
    }
}

/// Workloads and measurement helpers for the `heax-server` subsystem
/// (`bench_server`): an 8-client rotation-heavy workload served by the
/// batch-scheduled multi-session server versus the seed's
/// one-request-at-a-time loop (keys deserialized per work unit, no
/// hoisting). Results are verified decrypt-identical before timing.
pub mod server {
    use heax_ckks::serialize::{
        deserialize_ciphertext, deserialize_galois_keys, serialize_ciphertext,
        serialize_galois_keys,
    };
    use heax_ckks::{
        Ciphertext, CkksContext, CkksEncoder, CkksParams, Decryptor, Encryptor, Evaluator,
        GaloisKeys, PublicKey, SecretKey,
    };
    use heax_hw::board::Board;
    use heax_server::wire::client::{self, Reply};
    use heax_server::HeaxServer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::bench_json::SrvRecord;
    use crate::parallel::set_for_n;

    /// Concurrent client sessions in the workload (the acceptance
    /// criterion's 8-client scenario).
    pub const CLIENTS: usize = 8;
    /// Rotations each client requests of its own ciphertext per pass.
    pub const ROTATIONS_PER_CLIENT: usize = 8;

    /// Ring degrees measured: Set-A and Set-B, or Set-A only under
    /// `HEAX_BENCH_QUICK` (CI smoke budget).
    pub fn sizes() -> Vec<usize> {
        if std::env::var_os("HEAX_BENCH_QUICK").is_some() {
            vec![4096]
        } else {
            vec![4096, 8192]
        }
    }

    /// One simulated client: its keys and sample ciphertext, plus the
    /// serialized forms that cross the wire.
    pub struct ClientRig {
        /// Secret key (for result verification only).
        pub sk: SecretKey,
        /// Serialized rotation keys, as shipped to the server.
        pub gks_bytes: Vec<u8>,
        /// Serialized sample ciphertext.
        pub ct_bytes: Vec<u8>,
    }

    /// The prepared multi-client workload for one ring degree.
    pub struct ServerWorkload {
        /// Shared context (client and server agree on parameters).
        pub ctx: CkksContext,
        /// The simulated clients.
        pub clients: Vec<ClientRig>,
        /// Rotation steps each client requests.
        pub steps: Vec<i64>,
    }

    impl ServerWorkload {
        /// Requests per pass (`CLIENTS × ROTATIONS_PER_CLIENT`).
        pub fn requests_per_pass(&self) -> usize {
            self.clients.len() * self.steps.len()
        }
    }

    /// Builds the workload for ring degree `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a paper ring degree.
    pub fn prepare(n: usize) -> ServerWorkload {
        let ctx =
            CkksContext::new(CkksParams::from_set(set_for_n(n)).expect("params")).expect("ctx");
        let steps: Vec<i64> = (1..=ROTATIONS_PER_CLIENT as i64).collect();
        let enc = CkksEncoder::new(&ctx);
        let scale = ctx.params().scale();
        let clients = (0..CLIENTS)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(0x5345_5256 + i as u64); // "SERV"
                let sk = SecretKey::generate(&ctx, &mut rng);
                let pk = PublicKey::generate(&ctx, &sk, &mut rng);
                let gks = GaloisKeys::generate(&ctx, &sk, &steps, &mut rng);
                let vals: Vec<f64> = (0..16).map(|j| j as f64 * 0.5 - 3.0 + i as f64).collect();
                let ct = Encryptor::new(&ctx, &pk)
                    .encrypt(
                        &enc.encode_real(&vals, scale, ctx.max_level())
                            .expect("encode"),
                        &mut rng,
                    )
                    .expect("encrypt");
                ClientRig {
                    sk,
                    gks_bytes: serialize_galois_keys(&gks),
                    ct_bytes: serialize_ciphertext(&ct),
                }
            })
            .collect();
        ServerWorkload {
            ctx,
            clients,
            steps,
        }
    }

    /// The baseline pass: one request at a time, no session registry —
    /// each client's evaluation keys are deserialized anew for its
    /// work unit, and every rotation is a full
    /// deserialize → rotate → serialize round trip, exactly the shape of
    /// the seed's `batched_server` example. Returns the serialized
    /// results in request order.
    pub fn sequential_pass(w: &ServerWorkload, eval: &Evaluator<'_>) -> Vec<Vec<u8>> {
        let mut out = Vec::with_capacity(w.requests_per_pass());
        for c in &w.clients {
            let gks = deserialize_galois_keys(&c.gks_bytes, &w.ctx).expect("keys");
            for &step in &w.steps {
                let ct = deserialize_ciphertext(&c.ct_bytes, &w.ctx).expect("ct");
                let rotated = eval.rotate(&ct, step, &gks).expect("rotate");
                out.push(serialize_ciphertext(&rotated));
            }
        }
        out
    }

    /// Builds a server with one registered session per client
    /// (key deserialization paid once, not per pass).
    pub fn build_server<'w>(w: &'w ServerWorkload) -> (HeaxServer<'w>, Vec<u64>) {
        let mut server = HeaxServer::new(&w.ctx, Board::stratix10()).expect("paper set");
        let sessions = w
            .clients
            .iter()
            .map(|c| {
                let reply = server
                    .handle_frame(&client::open_session())
                    .expect("session reply");
                let (session, _, _) = client::parse_reply(&reply).expect("parse");
                server
                    .handle_frame(&client::register_galois_keys(session, &c.gks_bytes))
                    .expect("registered");
                session
            })
            .collect();
        (server, sessions)
    }

    /// The batched pass: every client's rotation requests are submitted
    /// as frames and executed in one flush (per-ciphertext hoisted
    /// groups, cached keys). Returns the response frames in request
    /// order.
    pub fn batched_pass(
        server: &mut HeaxServer<'_>,
        sessions: &[u64],
        w: &ServerWorkload,
    ) -> Vec<Vec<u8>> {
        let mut request_id = 0u64;
        for (session, c) in sessions.iter().zip(&w.clients) {
            for &step in &w.steps {
                request_id += 1;
                let frame = client::rotate(*session, request_id, &c.ct_bytes, step);
                assert!(server.handle_frame(&frame).is_none(), "must queue");
            }
        }
        server.flush()
    }

    /// Decrypts both paths' results and asserts slot-wise agreement
    /// (hoisted rotation is decrypt-equal, not bit-equal).
    ///
    /// # Panics
    ///
    /// Panics on any disagreement beyond CKKS noise tolerance.
    pub fn verify_equivalent(w: &ServerWorkload, seq: &[Vec<u8>], batched: &[Vec<u8>]) {
        assert_eq!(seq.len(), batched.len());
        let enc = CkksEncoder::new(&w.ctx);
        let decrypt = |sk: &SecretKey, ct: &Ciphertext| -> Vec<f64> {
            enc.decode_real(&Decryptor::new(&w.ctx, sk).decrypt(ct).expect("decrypt"))
                .expect("decode")
        };
        for (i, (s, b)) in seq.iter().zip(batched).enumerate() {
            let c = &w.clients[i / w.steps.len()];
            let seq_ct = deserialize_ciphertext(s, &w.ctx).expect("seq ct");
            let (_, _, reply) = client::parse_reply(b).expect("reply frame");
            let Reply::Ciphertext(bytes) = reply else {
                panic!("request {i}: expected ciphertext reply, got {reply:?}");
            };
            let bat_ct = deserialize_ciphertext(&bytes, &w.ctx).expect("batched ct");
            let want = decrypt(&c.sk, &seq_ct);
            let got = decrypt(&c.sk, &bat_ct);
            for (slot, (g, ww)) in got.iter().zip(&want).enumerate().take(16) {
                assert!(
                    (g - ww).abs() < 2e-2,
                    "request {i} slot {slot}: batched {g} vs sequential {ww}"
                );
            }
        }
    }

    /// Measures the suite: for each ring degree, verifies batch ≡
    /// sequential, then times both paths and reports requests/second
    /// with the batched speedup. The returned occupancy is the server's
    /// measured batch occupancy.
    pub fn measure_suite(budget_ms: u64) -> (Vec<SrvRecord>, f64) {
        let threads = heax_math::exec::env_threads();
        let mut records = Vec::new();
        let mut occupancy = 0.0;
        for n in sizes() {
            eprintln!("preparing n = {n} ({CLIENTS} clients) ...");
            let w = prepare(n);
            let eval = Evaluator::new(&w.ctx);
            let (mut server, sessions) = build_server(&w);
            let requests = w.requests_per_pass() as f64;

            // Correctness first: the batch scheduler must be
            // decrypt-identical to the one-at-a-time loop.
            let seq = sequential_pass(&w, &eval);
            let batched = batched_pass(&mut server, &sessions, &w);
            verify_equivalent(&w, &seq, &batched);

            let seq_passes =
                crate::measure_ops_per_sec(|| drop(sequential_pass(&w, &eval)), budget_ms);
            records.push(SrvRecord::new(
                "sequential_loop",
                n,
                CLIENTS,
                threads,
                seq_passes * requests,
                1.0,
            ));
            let bat_passes = crate::measure_ops_per_sec(
                || drop(batched_pass(&mut server, &sessions, &w)),
                budget_ms,
            );
            records.push(SrvRecord::new(
                "batched_server",
                n,
                CLIENTS,
                threads,
                bat_passes * requests,
                bat_passes / seq_passes,
            ));
            occupancy = server.stats().batch_occupancy();
        }
        (records, occupancy)
    }
}

/// Workloads and helpers for the board-level pipeline scheduler
/// (`bench_pipeline`): the 8-client × 8-rotation server workload
/// modeled on 1/2/4 HEAX cores at every paper design point (wire
/// return and DRAM-parked variants), plus a functional leg that serves
/// the same workload through a modeled-backend [`heax_server::HeaxServer`]
/// and verifies it decrypt-identical to the one-request-at-a-time loop
/// before reporting any model figure.
pub mod pipeline {
    use heax_ckks::{Evaluator, ParamSet};
    use heax_core::arch::DesignPoint;
    use heax_core::perf::estimate_stream;
    use heax_hw::board::Board;
    use heax_hw::scheduler::BoardOp;
    use heax_server::ModeledBoardStats;

    use crate::bench_json::PipeRecord;
    use crate::server as srv;

    /// Modeled HEAX core counts swept by the suite.
    pub const CORES: [usize; 3] = [1, 2, 4];

    /// Transfer/return modes swept by the suite:
    /// * `"wire"` — v1 serving: full ciphertexts up, full ciphertexts
    ///   back over PCIe;
    /// * `"dram"` — results parked in board DRAM (`park_as`), no PCIe
    ///   return leg;
    /// * `"wire-v2"` — the v2 wire path: seeded uploads (a 32-byte
    ///   seed replaces the uniform polynomial, halving host→board) and
    ///   compressed replies (one RNS limb of `k` ships back).
    pub const MODES: [&str; 3] = ["wire", "dram", "wire-v2"];

    /// Ring degree of the decrypt-verified functional leg.
    pub const FUNCTIONAL_N: usize = 4096;

    /// The 8-client × 8-rotation server workload as a board op stream:
    /// one hoisted rotation group per client, shaped per [`MODES`]
    /// entry.
    ///
    /// # Panics
    ///
    /// Panics on a mode label outside [`MODES`].
    pub fn workload(mode: &str) -> Vec<BoardOp> {
        let group = BoardOp::rotate_many(srv::ROTATIONS_PER_CLIENT);
        let group = match mode {
            "wire" => group,
            "dram" => group.with_parked_output(),
            "wire-v2" => group.with_seeded_input().with_reply_limbs(1),
            other => panic!("unknown pipeline mode {other:?}"),
        };
        vec![group; srv::CLIENTS]
    }

    /// Functional leg: serves the 8-client workload
    /// (n = [`FUNCTIONAL_N`]) through a `HeaxServer` with the board
    /// model attached at `cores` modeled cores, asserts the batched
    /// results decrypt-identical to the sequential loop, and returns
    /// the server's accumulated model stats.
    ///
    /// # Panics
    ///
    /// Panics if the batched results disagree with the sequential loop
    /// or the model observed a different request count.
    pub fn functional_pass(cores: usize) -> ModeledBoardStats {
        let w = srv::prepare(FUNCTIONAL_N);
        let eval = Evaluator::new(&w.ctx);
        let (server, sessions) = srv::build_server(&w);
        let mut server = server.with_board_model(cores).expect("board model");
        let seq = srv::sequential_pass(&w, &eval);
        let batched = srv::batched_pass(&mut server, &sessions, &w);
        srv::verify_equivalent(&w, &seq, &batched);
        let modeled = server.stats().modeled.expect("model enabled");
        assert_eq!(
            modeled.modeled_requests,
            w.requests_per_pass() as u64,
            "the board model must observe every served request"
        );
        modeled
    }

    /// The deterministic model sweep: every paper design point × core
    /// count × return mode, with speedups relative to the 1-core model
    /// of the same (set, mode).
    ///
    /// # Panics
    ///
    /// Panics on scheduler configuration errors (cannot happen for the
    /// paper design points).
    pub fn model_suite() -> Vec<PipeRecord> {
        let mut records = Vec::new();
        for set in ParamSet::ALL {
            let dp = DesignPoint::derive(Board::stratix10(), set).expect("paper row");
            for mode in MODES {
                let ops = workload(mode);
                let base = estimate_stream(&dp, &ops, 1)
                    .expect("schedule")
                    .requests_per_sec();
                for cores in CORES {
                    let r = estimate_stream(&dp, &ops, cores).expect("schedule");
                    records.push(PipeRecord {
                        set: set.to_string(),
                        n: set.n(),
                        cores,
                        mode: mode.to_string(),
                        parked: mode == "dram",
                        requests_per_sec: r.requests_per_sec(),
                        speedup_vs_1core: r.requests_per_sec() / base,
                        bound: r.bound().to_string(),
                        core_utilization: r.core_utilization(),
                        fifo_high_water: r.fifo_high_water,
                    });
                }
            }
        }
        records
    }

    /// The acceptance figure: modeled 4-core over 1-core speedup on the
    /// wire-return workload at the paper's DRAM-streamed flagship set
    /// (Set-C).
    pub fn acceptance_speedup(records: &[PipeRecord]) -> f64 {
        records
            .iter()
            .find(|r| r.n == 16384 && r.cores == 4 && r.mode == "wire")
            .map(|r| r.speedup_vs_1core)
            .unwrap_or(0.0)
    }

    /// The v2 acceptance figure: how many `(set, cores)` points the v2
    /// wire path rescued from the PCIe return bottleneck. A point
    /// counts when its v1 `wire` row was `pcie-out`-bound and the
    /// `wire-v2` twin either became compute-bound or, where the v1
    /// speedup had collapsed to ≤ 1.12×, recovered at least 1.5× the
    /// v1 figure.
    pub fn v2_flip_count(records: &[PipeRecord]) -> usize {
        records
            .iter()
            .filter(|v1| v1.mode == "wire" && v1.bound == "pcie-out")
            .filter(|v1| {
                records
                    .iter()
                    .find(|v2| v2.mode == "wire-v2" && v2.n == v1.n && v2.cores == v1.cores)
                    .is_some_and(|v2| {
                        v2.bound == "compute"
                            || (v1.speedup_vs_1core <= 1.12
                                && v2.speedup_vs_1core >= 1.5 * v1.speedup_vs_1core)
                    })
            })
            .count()
    }
}

/// Workloads and helpers for the fleet-scale multi-board cluster model
/// (`bench_cluster`): a many-session rotation-serving stream routed
/// across 1/2/4 modeled HEAX boards under session→board key affinity
/// versus random spraying. The sweep runs at Set-B, where one
/// key-switching key (≈ 2.6 MB) is five ciphertexts' worth of PCIe
/// traffic, so every routing miss — a ksk replication — is the
/// dominant cost the router exists to avoid.
pub mod cluster {
    use heax_ckks::ParamSet;
    use heax_core::arch::DesignPoint;
    use heax_core::perf::estimate_cluster;
    use heax_hw::board::Board;
    use heax_hw::cluster::RoutingPolicy;
    use heax_hw::ir::OpKind;
    use heax_hw::scheduler::BoardOp;

    use crate::bench_json::ClusterRecord;

    /// Parameter set of the sweep (ksk ≈ 5× a ciphertext over PCIe).
    pub const SET: ParamSet = ParamSet::SetB;
    /// Wire-return rotations each session submits across the stream —
    /// enough repeat traffic that key residency, not cold misses,
    /// decides throughput.
    pub const ROUNDS: usize = 4;
    /// Board counts swept.
    pub const BOARDS: [usize; 3] = [1, 2, 4];
    /// Cores-per-board counts swept.
    pub const CORES: [usize; 2] = [1, 4];
    /// Seed of the random-routing control.
    pub const RANDOM_SEED: u64 = 0x464C_4545; // "FLEE"

    /// Session counts swept: fleet scale, or a small count under
    /// `HEAX_BENCH_QUICK` (CI smoke budget).
    pub fn session_counts() -> Vec<usize> {
        if std::env::var_os("HEAX_BENCH_QUICK").is_some() {
            vec![200]
        } else {
            vec![1_000, 10_000]
        }
    }

    /// The fleet workload: `sessions` sessions each submitting
    /// [`ROUNDS`] wire-return rotations, round-robin interleaved across
    /// sessions — the arrival order a front-end router actually sees.
    /// No op touches parked state, so the policies differ purely in
    /// where keys end up resident.
    pub fn workload(sessions: usize) -> Vec<BoardOp> {
        let mut ops = Vec::with_capacity(sessions * ROUNDS);
        for _ in 0..ROUNDS {
            for s in 0..sessions {
                ops.push(BoardOp::new(OpKind::Rotate).with_session(s as u64 + 1));
            }
        }
        ops
    }

    /// The deterministic routing sweep: sessions × boards × cores, each
    /// point routed under both policies, with affinity's speedup taken
    /// against random routing at the same point.
    ///
    /// # Panics
    ///
    /// Panics on scheduler configuration errors (cannot happen for the
    /// paper design point and the fixed sweep shapes).
    pub fn measure_suite() -> Vec<ClusterRecord> {
        let dp = DesignPoint::derive(Board::stratix10(), SET).expect("paper row");
        let mut records = Vec::new();
        for sessions in session_counts() {
            eprintln!("routing {sessions} sessions x {ROUNDS} rotations ...");
            let ops = workload(sessions);
            for boards in BOARDS {
                for cores in CORES {
                    let random = estimate_cluster(
                        &dp,
                        &ops,
                        boards,
                        cores,
                        RoutingPolicy::Random { seed: RANDOM_SEED },
                    )
                    .expect("schedule");
                    let affinity = estimate_cluster(
                        &dp,
                        &ops,
                        boards,
                        cores,
                        RoutingPolicy::Affinity { steal: true },
                    )
                    .expect("schedule");
                    let base = random.requests_per_sec();
                    for report in [&random, &affinity] {
                        records.push(ClusterRecord {
                            policy: report.policy.to_string(),
                            sessions,
                            boards,
                            cores,
                            requests_per_sec: report.requests_per_sec(),
                            speedup_vs_random: report.requests_per_sec() / base,
                            routing_hits: report.routing_hits,
                            routing_misses: report.routing_misses,
                            steals: report.steals,
                            replication_bytes: report.replication_bytes,
                            mean_utilization: report.mean_utilization(),
                        });
                    }
                }
            }
        }
        records
    }

    /// The acceptance figure: affinity over random requests/sec at the
    /// largest swept session count on the 4-board, 4-core point.
    pub fn acceptance_speedup(records: &[ClusterRecord]) -> f64 {
        let fleet = records.iter().map(|r| r.sessions).max().unwrap_or(0);
        records
            .iter()
            .find(|r| {
                r.sessions == fleet && r.boards == 4 && r.cores == 4 && r.policy == "affinity"
            })
            .map(|r| r.speedup_vs_random)
            .unwrap_or(0.0)
    }
}

/// Workloads and helpers for the fault-injection sweep (`bench_faults`):
/// the fleet rotation-serving stream of [`cluster`] routed across
/// modeled boards while a seeded [`heax_hw::faults::FaultPlan`] crashes
/// boards, slows them down, stalls links, degrades DMA channels and
/// corrupts resident keys — measuring how much throughput graceful
/// degradation retains versus the healthy baseline. The headline
/// scenario loses 1 of 4 boards mid-run; a functional leg serves the
/// 8-client workload through a fault-planned cluster-modeled
/// [`heax_server::HeaxServer`] and verifies it decrypt-identical before
/// any figure is reported.
pub mod faults {
    use heax_ckks::Evaluator;
    use heax_core::arch::DesignPoint;
    use heax_core::perf::{estimate_cluster, estimate_cluster_faulted};
    use heax_hw::board::Board;
    use heax_hw::cluster::RoutingPolicy;
    use heax_hw::faults::{FaultKind, FaultPlan, FaultRates};
    use heax_hw::scheduler::BoardOp;
    use heax_server::ModeledClusterStats;

    use crate::bench_json::FaultRecord;
    use crate::cluster;
    use crate::server as srv;

    /// Modeled HEAX cores per board in the sweep.
    pub const CORES: usize = 4;
    /// Board counts swept (graceful degradation needs a survivor, so
    /// the sweep starts at 2).
    pub const BOARDS: [usize; 2] = [2, 4];
    /// Seeded fault-rate levels swept per board count: each level is
    /// the per-board draw probability for the degradation fault
    /// classes (crash draws at 0.3× the level).
    pub const RATES: [f64; 3] = [0.1, 0.3, 0.5];
    /// Seed of every generated fault schedule (xored with the board
    /// count so each sweep point gets an independent schedule).
    pub const FAULT_SEED: u64 = 0x4641_554C; // "FAUL"
    /// Ring degree of the decrypt-verified functional leg.
    pub const FUNCTIONAL_N: usize = 4096;
    /// Label of the headline scenario: board 0 of 4 crashes at half the
    /// healthy makespan.
    pub const HEADLINE: &str = "lose-1-of-4-mid-run";

    /// Sessions in the sweep workload: fleet scale, or a small count
    /// under `HEAX_BENCH_QUICK` (CI smoke budget).
    pub fn sessions() -> usize {
        if std::env::var_os("HEAX_BENCH_QUICK").is_some() {
            200
        } else {
            1_000
        }
    }

    /// The deterministic fault sweep: for each board count, the healthy
    /// affinity-routed baseline, the seeded [`RATES`] levels, and (at 4
    /// boards) the pinned headline crash — every row carrying its
    /// throughput retention against the healthy baseline of the same
    /// shape.
    ///
    /// # Panics
    ///
    /// Panics on scheduler configuration errors (cannot happen for the
    /// paper design point and the fixed sweep shapes).
    pub fn measure_suite() -> Vec<FaultRecord> {
        let dp = DesignPoint::derive(Board::stratix10(), cluster::SET).expect("paper row");
        let sessions = sessions();
        let ops = cluster::workload(sessions);
        let session_ids: Vec<u64> = (1..=sessions as u64).collect();
        let policy = RoutingPolicy::Affinity { steal: true };
        let mut records = Vec::new();
        for boards in BOARDS {
            eprintln!("fault sweep: {sessions} sessions on {boards} boards x {CORES} cores ...");
            let healthy = estimate_cluster(&dp, &ops, boards, CORES, policy).expect("schedule");
            let base = healthy.requests_per_sec();
            records.push(FaultRecord {
                scenario: "healthy".to_string(),
                rate: 0.0,
                boards,
                cores: CORES,
                boards_alive: boards,
                requests_per_sec: base,
                retention_vs_healthy: 1.0,
                failovers: 0,
                re_replications: 0,
                corrupt_ksk_evictions: 0,
                recovery_cycles: 0,
            });
            for rate in RATES {
                // Corruption draws at 2x the level: an event only fires
                // if its (board, session) pair matches where the key is
                // actually resident (~1/boards odds), so an undersampled
                // draw would leave the eviction column structurally zero.
                let rates = FaultRates {
                    crash: 0.3 * rate,
                    slowdown: rate,
                    link: rate,
                    dma: rate,
                    ksk_corruption: (2.0 * rate).min(1.0),
                };
                let plan = FaultPlan::generate(
                    FAULT_SEED ^ boards as u64,
                    boards,
                    healthy.total_cycles,
                    &session_ids,
                    &rates,
                );
                records.push(faulted_record(
                    &dp,
                    &ops,
                    boards,
                    policy,
                    &plan,
                    format!("seeded-rate-{rate}"),
                    rate,
                    base,
                ));
            }
            if boards == 4 {
                let plan = FaultPlan::new().with_event(
                    0,
                    mid_run_crash_cycle(&healthy),
                    FaultKind::BoardCrash,
                );
                records.push(faulted_record(
                    &dp,
                    &ops,
                    boards,
                    policy,
                    &plan,
                    HEADLINE.to_string(),
                    0.0,
                    base,
                ));
            }
        }
        records
    }

    /// Half of board 0's accrued compute in the healthy run — the
    /// crash trigger compares against per-board routed *compute* load,
    /// so anchoring on the makespan (which includes transfer cycles)
    /// would push the "mid-run" crash to the tail of the stream.
    pub fn mid_run_crash_cycle(healthy: &heax_hw::cluster::ClusterReport) -> u64 {
        healthy.boards[0]
            .ops
            .iter()
            .map(|t| t.compute.1 - t.compute.0)
            .sum::<u64>()
            / 2
    }

    /// Routes `ops` under `plan` and folds the outcome into one record;
    /// a plan that crashes every board is reported honestly as a total
    /// outage (zero throughput, zero survivors) rather than skipped.
    #[allow(clippy::too_many_arguments)]
    fn faulted_record(
        dp: &DesignPoint,
        ops: &[BoardOp],
        boards: usize,
        policy: RoutingPolicy,
        plan: &FaultPlan,
        scenario: String,
        rate: f64,
        base: f64,
    ) -> FaultRecord {
        match estimate_cluster_faulted(dp, ops, boards, CORES, policy, plan) {
            Ok(r) => FaultRecord {
                scenario,
                rate,
                boards,
                cores: CORES,
                boards_alive: r.boards_alive(),
                requests_per_sec: r.requests_per_sec(),
                retention_vs_healthy: if base > 0.0 {
                    r.requests_per_sec() / base
                } else {
                    0.0
                },
                failovers: r.failovers,
                re_replications: r.re_replications,
                corrupt_ksk_evictions: r.corrupt_ksk_evictions,
                recovery_cycles: r.recovery_cycles,
            },
            Err(_) => FaultRecord {
                scenario,
                rate,
                boards,
                cores: CORES,
                boards_alive: 0,
                requests_per_sec: 0.0,
                retention_vs_healthy: 0.0,
                failovers: 0,
                re_replications: 0,
                corrupt_ksk_evictions: 0,
                recovery_cycles: 0,
            },
        }
    }

    /// The functional leg's fault plan: board 0 crashes as soon as it
    /// has accrued any load, so the remaining boards absorb the flush
    /// mid-stream. (The 8 rotations per client fuse into one hoisted
    /// group per session, so a single flush never revisits a session —
    /// crash drainage is the fault class observable here; failover and
    /// checksum-eviction *recovery* are exercised by the hw/server unit
    /// tests and the fault proptest.)
    pub fn functional_plan() -> FaultPlan {
        FaultPlan::new().with_event(0, 1, FaultKind::BoardCrash)
    }

    /// Functional leg: serves the 8-client workload
    /// (n = [`FUNCTIONAL_N`]) through a `HeaxServer` with the cluster
    /// model attached at `boards` × `cores` and `plan` injected, asserts
    /// the batched results decrypt-identical to the sequential loop, and
    /// returns the server's accumulated cluster stats.
    ///
    /// # Panics
    ///
    /// Panics if the batched results disagree with the sequential loop
    /// or the model observed a different request count.
    pub fn functional_pass(boards: usize, cores: usize, plan: FaultPlan) -> ModeledClusterStats {
        let w = srv::prepare(FUNCTIONAL_N);
        let eval = Evaluator::new(&w.ctx);
        let (server, sessions) = srv::build_server(&w);
        let mut server = server
            .with_cluster_model(boards, cores)
            .expect("cluster model")
            .with_fault_plan(plan);
        let seq = srv::sequential_pass(&w, &eval);
        let batched = srv::batched_pass(&mut server, &sessions, &w);
        srv::verify_equivalent(&w, &seq, &batched);
        let stats = server.stats().cluster.expect("model enabled");
        assert_eq!(
            stats.modeled_requests,
            w.requests_per_pass() as u64,
            "the cluster model must observe every served request"
        );
        stats
    }

    /// The acceptance figure: throughput retention of the headline
    /// lose-1-of-4-boards-mid-run scenario against its healthy
    /// baseline.
    pub fn acceptance_retention(records: &[FaultRecord]) -> f64 {
        records
            .iter()
            .find(|r| r.scenario == HEADLINE && r.boards == 4)
            .map(|r| r.retention_vs_healthy)
            .unwrap_or(0.0)
    }
}

/// Workloads and measurement helpers for the real-socket serving path
/// (`bench_sockets`): a fleet of virtual sessions multiplexed over a
/// pool of loopback TCP connections into the epoll-driven
/// [`heax_server::net::NetServer`], measuring closed-loop and
/// Poisson-arrival request latency (p50/p99) plus the saturation
/// throughput of the event loop. A functional leg first serves
/// fragmented frames over a real socket and verifies every reply
/// byte-identical to the same frames driven through an in-process
/// [`heax_server::HeaxServer`], then decrypt-checks the result —
/// transport must be invisible to the protocol before any figure is
/// reported.
pub mod sockets {
    use std::io::{self, Read, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    use heax_ckks::serialize::{deserialize_ciphertext, serialize_ciphertext};
    use heax_ckks::{
        CkksContext, CkksEncoder, CkksParams, Decryptor, Encryptor, ParamSet, PublicKey, SecretKey,
    };
    use heax_hw::board::Board;
    use heax_server::net::{FrameAssembler, NetConfig, NetServer};
    use heax_server::wire::client::{self, Reply};
    use heax_server::wire::{Request, WireOperand};
    use heax_server::{HeaxServer, OpCode};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Parameter set of the socket workload. `Add` requests carry two
    /// inline Set-A ciphertexts (~200 KB each), so every request really
    /// exercises the read path, the assembler, and the reply writer —
    /// without needing per-session evaluation keys, which is what lets
    /// the rig open a thousand sessions in one setup pass.
    pub const SET: ParamSet = ParamSet::SetA;
    /// Requests verified byte-identical in the functional leg.
    pub const FUNCTIONAL_REQUESTS: usize = 4;

    /// Virtual sessions in the fleet: the acceptance scale, or a small
    /// fleet under `HEAX_BENCH_QUICK` (CI smoke budget).
    pub fn sessions() -> usize {
        if std::env::var_os("HEAX_BENCH_QUICK").is_some() {
            128
        } else {
            1_024
        }
    }

    /// Loopback connections the fleet is multiplexed over.
    pub fn conns() -> usize {
        if std::env::var_os("HEAX_BENCH_QUICK").is_some() {
            8
        } else {
            64
        }
    }

    /// Requests in the saturation (zero-think closed-loop) scenario.
    pub fn saturation_requests() -> usize {
        if std::env::var_os("HEAX_BENCH_QUICK").is_some() {
            96
        } else {
            4_096
        }
    }

    /// Requests in each latency-oriented scenario.
    pub fn latency_requests() -> usize {
        if std::env::var_os("HEAX_BENCH_QUICK").is_some() {
            48
        } else {
            1_024
        }
    }

    /// The prepared socket workload: one client key set and one
    /// serialized ciphertext every virtual session's `Add` requests
    /// reuse (the op needs no session keys, so the fleet shares it).
    pub struct SocketWorkload {
        /// Shared context (client and server agree on parameters).
        pub ctx: CkksContext,
        /// Secret key, for the functional leg's decrypt check.
        pub sk: SecretKey,
        /// Serialized sample ciphertext, the inline operand of every
        /// request.
        pub ct_bytes: Vec<u8>,
        /// Slot values the functional leg expects from `ct + ct`.
        pub expected: Vec<f64>,
    }

    /// Builds the shared workload.
    ///
    /// # Panics
    ///
    /// Panics on internal errors (cannot happen for the built-in set).
    pub fn prepare() -> SocketWorkload {
        let ctx = CkksContext::new(CkksParams::from_set(SET).expect("params")).expect("ctx");
        let mut rng = StdRng::seed_from_u64(0x534F_434B); // "SOCK"
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng);
        let enc = CkksEncoder::new(&ctx);
        let vals: Vec<f64> = (0..8).map(|i| i as f64 * 0.25 - 1.0).collect();
        let ct = Encryptor::new(&ctx, &pk)
            .encrypt(
                &enc.encode_real(&vals, ctx.params().scale(), ctx.max_level())
                    .expect("encode"),
                &mut rng,
            )
            .expect("encrypt");
        SocketWorkload {
            ctx,
            sk,
            ct_bytes: serialize_ciphertext(&ct),
            expected: vals.iter().map(|v| 2.0 * v).collect(),
        }
    }

    /// One `Add` request frame for `session`/`request` over the shared
    /// operand.
    pub fn add_frame(w: &SocketWorkload, session: u64, request: u64) -> Vec<u8> {
        client::request(
            session,
            request,
            &Request {
                op: OpCode::Add,
                step: 0,
                compress_reply: false,
                park_as: None,
                operands: vec![
                    WireOperand::Inline(&w.ct_bytes),
                    WireOperand::Inline(&w.ct_bytes),
                ],
            },
        )
    }

    /// One driver-side connection: its share of the virtual sessions,
    /// a partial-write outbox, and the single in-flight request slot.
    struct BenchConn {
        stream: TcpStream,
        asm: FrameAssembler,
        out: Vec<u8>,
        out_at: usize,
        sessions: Vec<u64>,
        next_session: usize,
        in_flight: Option<Instant>,
        next_send_at: Instant,
        sent: usize,
        quota: usize,
    }

    impl BenchConn {
        /// Drains the outbox as far as the socket accepts.
        fn pump_out(&mut self) -> io::Result<()> {
            while self.out_at < self.out.len() {
                match self.stream.write(&self.out[self.out_at..]) {
                    Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                    Ok(n) => self.out_at += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e),
                }
            }
            if self.out_at == self.out.len() {
                self.out.clear();
                self.out_at = 0;
            }
            Ok(())
        }

        /// Reads everything available and returns the completed frames.
        fn drain_in(&mut self) -> io::Result<Vec<Vec<u8>>> {
            let mut buf = [0u8; 16 * 1024];
            loop {
                match self.stream.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => self.asm.push(&buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e),
                }
            }
            let mut frames = Vec::new();
            while let Some(f) = self.asm.next_frame().expect("server frames are clean") {
                frames.push(f);
            }
            Ok(frames)
        }
    }

    /// The bound server plus its pool of driver connections, sessions
    /// already opened.
    pub struct Rig<'w> {
        /// The epoll-driven server under measurement.
        pub net: NetServer<'w>,
        conns: Vec<BenchConn>,
    }

    /// Binds a `NetServer`, connects `conn_count` loopback connections,
    /// and opens `session_count` sessions round-robin across them.
    ///
    /// # Errors
    ///
    /// Propagates socket/poller failures.
    ///
    /// # Panics
    ///
    /// Panics if the server answers a session-open with anything but
    /// `SessionOpened`.
    pub fn rig(w: &SocketWorkload, session_count: usize, conn_count: usize) -> io::Result<Rig<'_>> {
        let inner = HeaxServer::new(&w.ctx, Board::stratix10()).expect("paper set");
        let mut net = NetServer::bind("127.0.0.1:0", inner, NetConfig::default())?;
        let addr = net.local_addr()?;
        let mut conns = Vec::with_capacity(conn_count);
        for c in 0..conn_count {
            let stream = TcpStream::connect(addr)?;
            stream.set_nonblocking(true)?;
            while net.connections() < c + 1 {
                net.poll(1)?;
            }
            let share = session_count / conn_count + usize::from(c < session_count % conn_count);
            let mut out = Vec::with_capacity(share * 32);
            for _ in 0..share {
                out.extend_from_slice(&client::open_session());
            }
            conns.push(BenchConn {
                stream,
                asm: FrameAssembler::new(),
                out,
                out_at: 0,
                sessions: Vec::with_capacity(share),
                next_session: 0,
                in_flight: None,
                next_send_at: Instant::now(),
                sent: 0,
                quota: 0,
            });
        }
        let mut opened = 0;
        while opened < session_count {
            for conn in &mut conns {
                conn.pump_out()?;
            }
            net.poll(1)?;
            for conn in &mut conns {
                for frame in conn.drain_in()? {
                    let (sid, _, reply) = client::parse_reply(&frame).expect("reply");
                    assert!(
                        matches!(reply, Reply::SessionOpened),
                        "expected SessionOpened, got {reply:?}"
                    );
                    conn.sessions.push(sid);
                    opened += 1;
                }
            }
        }
        Ok(Rig { net, conns })
    }

    /// Outcome of one scenario run.
    pub struct ScenarioOutcome {
        /// Per-request latency samples in milliseconds, completion
        /// order.
        pub latencies_ms: Vec<f64>,
        /// Wall time from first send to last reply.
        pub elapsed: Duration,
        /// Error replies observed (load sheds surface here).
        pub errors: u64,
        /// Virtual sessions the run actually touched.
        pub sessions_touched: usize,
    }

    impl ScenarioOutcome {
        /// Completed requests per second of wall time.
        pub fn requests_per_sec(&self) -> f64 {
            self.latencies_ms.len() as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// Runs one scenario: `total` `Add` requests over the first
    /// `active_conns` connections, each connection keeping at most one
    /// request in flight and cycling through its sessions round-robin.
    /// `think` is `None` for a zero-think closed loop, or
    /// `Some((seed, mean_ms))` for Poisson arrivals — after each reply
    /// the connection waits an exponentially distributed think time
    /// before its next send.
    ///
    /// # Errors
    ///
    /// Propagates socket/poller failures.
    ///
    /// # Panics
    ///
    /// Panics if `active_conns` exceeds the rig's pool or a reply frame
    /// fails to parse.
    pub fn run_scenario(
        rig: &mut Rig<'_>,
        w: &SocketWorkload,
        total: usize,
        active_conns: usize,
        think: Option<(u64, f64)>,
    ) -> io::Result<ScenarioOutcome> {
        assert!(active_conns <= rig.conns.len());
        let conns = &mut rig.conns[..active_conns];
        let mut rng = think.map(|(seed, _)| StdRng::seed_from_u64(seed));
        let mean_ms = think.map_or(0.0, |(_, m)| m);
        let start = Instant::now();
        for (c, conn) in conns.iter_mut().enumerate() {
            conn.in_flight = None;
            conn.next_send_at = start;
            conn.sent = 0;
            conn.quota = total / active_conns + usize::from(c < total % active_conns);
        }
        let mut request_id = 1u64;
        let mut latencies_ms = Vec::with_capacity(total);
        let mut errors = 0u64;
        let mut done = 0usize;
        while done < total {
            let now = Instant::now();
            for conn in conns.iter_mut() {
                if conn.in_flight.is_none()
                    && conn.sent < conn.quota
                    && conn.out.is_empty()
                    && now >= conn.next_send_at
                {
                    let session = conn.sessions[conn.next_session];
                    conn.next_session = (conn.next_session + 1) % conn.sessions.len();
                    conn.out = add_frame(w, session, request_id);
                    conn.out_at = 0;
                    request_id += 1;
                    conn.sent += 1;
                    conn.in_flight = Some(Instant::now());
                }
                conn.pump_out()?;
            }
            rig.net.poll(0)?;
            for conn in conns.iter_mut() {
                for frame in conn.drain_in()? {
                    let (_, _, reply) = client::parse_reply(&frame).expect("reply");
                    if matches!(reply, Reply::Error { .. }) {
                        errors += 1;
                    }
                    let sent_at = conn.in_flight.take().expect("reply matches an in-flight");
                    latencies_ms.push(sent_at.elapsed().as_secs_f64() * 1e3);
                    done += 1;
                    if let Some(rng) = rng.as_mut() {
                        let u: f64 = rng.gen_range(0.0..1.0);
                        let wait_ms = -mean_ms * (1.0 - u).ln();
                        conn.next_send_at = Instant::now() + Duration::from_secs_f64(wait_ms / 1e3);
                    }
                }
            }
        }
        let sessions_touched = conns
            .iter()
            .map(|c| c.sessions.len().min(c.sent))
            .sum::<usize>();
        Ok(ScenarioOutcome {
            latencies_ms,
            elapsed: start.elapsed(),
            errors,
            sessions_touched,
        })
    }

    /// Nearest-rank percentile of a latency sample (`p` in `0..=100`).
    pub fn percentile(samples: &[f64], p: f64) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Functional leg: serves [`FUNCTIONAL_REQUESTS`] `Add` requests
    /// over a real loopback socket — the first request's bytes
    /// delivered in deliberately misaligned 3 791-byte chunks with a
    /// server poll between each, so frames straddle reads — and asserts
    /// every reply **byte-identical** to the same frames driven through
    /// an in-process [`HeaxServer`], then decrypt-checks the sum.
    /// Returns the number of verified replies.
    ///
    /// # Panics
    ///
    /// Panics on any byte or slot disagreement.
    pub fn functional_pass(w: &SocketWorkload) -> usize {
        let inner = HeaxServer::new(&w.ctx, Board::stratix10()).expect("paper set");
        let mut net = NetServer::bind("127.0.0.1:0", inner, NetConfig::default()).expect("bind");
        let mut mirror = HeaxServer::new(&w.ctx, Board::stratix10()).expect("paper set");
        let mut stream = TcpStream::connect(net.local_addr().expect("addr")).expect("connect");
        while net.connections() < 1 {
            net.poll(1).expect("poll");
        }

        // Sends `bytes` in `chunk`-sized pieces, polling the server
        // until the whole buffer is ingested before returning.
        let mut send = |net: &mut NetServer<'_>, bytes: &[u8], chunk: usize| {
            let target = net.stats().bytes_in + bytes.len() as u64;
            for piece in bytes.chunks(chunk) {
                stream.write_all(piece).expect("write");
                net.poll(0).expect("poll");
            }
            let mut settles = 0;
            while net.stats().bytes_in < target {
                net.poll(1).expect("poll");
                settles += 1;
                assert!(settles < 5_000, "server never ingested the frame");
            }
        };

        let open = client::open_session();
        send(&mut net, &open, open.len());
        let mirror_open = mirror.handle_frame(&open).expect("mirror opens");
        let (sid, _, _) = client::parse_reply(&mirror_open).expect("reply");

        let mut mirror_replies = vec![mirror_open];
        for r in 1..=FUNCTIONAL_REQUESTS as u64 {
            let frame = add_frame(w, sid, r);
            let chunk = if r == 1 { 3_791 } else { frame.len() };
            send(&mut net, &frame, chunk);
            assert!(mirror.handle_frame(&frame).is_none(), "mirror queues");
        }
        mirror_replies.extend(mirror.flush());

        let mut asm = FrameAssembler::new();
        let mut socket_replies = Vec::new();
        stream.set_nonblocking(true).expect("nonblocking");
        let mut settles = 0;
        while socket_replies.len() < mirror_replies.len() {
            net.poll(1).expect("poll");
            let mut buf = [0u8; 16 * 1024];
            loop {
                match stream.read(&mut buf) {
                    Ok(0) => panic!("server hung up mid-verification"),
                    Ok(n) => asm.push(&buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => panic!("read: {e}"),
                }
            }
            while let Some(f) = asm.next_frame().expect("clean frames") {
                socket_replies.push(f);
            }
            settles += 1;
            assert!(settles < 10_000, "replies never arrived");
        }
        assert_eq!(
            socket_replies, mirror_replies,
            "socket replies must be byte-identical to the in-process server"
        );

        let (_, _, reply) = client::parse_reply(&socket_replies[1]).expect("reply");
        let Reply::Ciphertext(bytes) = reply else {
            panic!("expected a ciphertext reply, got {reply:?}");
        };
        let ct = deserialize_ciphertext(&bytes, &w.ctx).expect("ct");
        let enc = CkksEncoder::new(&w.ctx);
        let got = enc
            .decode_real(&Decryptor::new(&w.ctx, &w.sk).decrypt(&ct).expect("decrypt"))
            .expect("decode");
        for (slot, want) in w.expected.iter().enumerate() {
            assert!(
                (got[slot] - want).abs() < 2e-2,
                "slot {slot}: {} vs {want}",
                got[slot]
            );
        }
        assert!(
            net.stats().partial_frame_reads > 0,
            "the chunked send must actually fragment frames"
        );
        FUNCTIONAL_REQUESTS
    }
}

/// Shared machinery for the `BENCH_*.json` snapshot binaries: CLI
/// budget parsing, per-binary snapshot paths, a tiny hand-rolled JSON
/// document builder (the workspace is offline; no serde), and the
/// write-or-exit tail every bin ends with. The per-suite record types
/// and their row formats live in [`crate::bench_json`]; this module
/// owns everything they have in common.
pub mod snapshot {
    use std::path::PathBuf;

    /// Measurement budget in milliseconds: `argv[1]` when parseable,
    /// `default_ms` otherwise — the argument convention every snapshot
    /// binary shares.
    pub fn budget_from_args(default_ms: u64) -> u64 {
        std::env::args()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(default_ms)
    }

    /// Snapshot path from an environment-variable override with a
    /// per-binary default (each snapshot binary gets its own variable
    /// so concurrent smoke tests never race on one file).
    pub fn path_from_env(var: &str, default: &str) -> PathBuf {
        std::env::var_os(var)
            .map(Into::into)
            .unwrap_or_else(|| default.into())
    }

    /// Escapes a string for embedding inside a JSON string literal.
    pub fn esc(s: &str) -> String {
        s.chars()
            .flat_map(|c| match c {
                '"' | '\\' => vec!['\\', c],
                '\n' => vec!['\\', 'n'],
                c => vec![c],
            })
            .collect()
    }

    /// Writes a rendered snapshot document, printing the destination on
    /// success; on I/O failure prints the error and exits the process
    /// with status 1 (the shared tail of every snapshot binary).
    pub fn write_or_exit(path: &std::path::Path, json: &str) {
        match std::fs::write(path, json) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: could not write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    /// Runs a decrypt-verification leg and turns any assertion failure
    /// into a uniform diagnostic plus **exit status 1** — the shared
    /// gate every snapshot binary with a functional leg funnels
    /// through, so "verification failed" is one consistent, scriptable
    /// outcome across `bench_*` bins instead of a raw panic's status
    /// 101 in some and a clean exit in others.
    pub fn checked_functional<T>(label: &str, leg: impl FnOnce() -> T) -> T {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(leg)) {
            Ok(value) => value,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("verification panicked");
                eprintln!("error: {label}: decrypt-verification failed: {msg}");
                std::process::exit(1);
            }
        }
    }

    /// Builder for one snapshot document: a `schema` line, header
    /// fields, then a `results` array of pre-rendered row objects —
    /// with the indentation and trailing-comma discipline handled in
    /// one place instead of per emitter.
    #[derive(Debug)]
    pub struct Doc {
        head: String,
        rows: Vec<String>,
    }

    impl Doc {
        /// Starts a document with its schema identifier.
        pub fn new(schema: &str) -> Self {
            Doc {
                head: format!("  \"schema\": \"{}\",\n", esc(schema)),
                rows: Vec::new(),
            }
        }

        /// Adds a header field; `value` is embedded verbatim, so pass
        /// numbers, pre-formatted floats, or rendered JSON objects.
        #[must_use]
        pub fn field(mut self, key: &str, value: impl std::fmt::Display) -> Self {
            self.head
                .push_str(&format!("  \"{}\": {},\n", esc(key), value));
            self
        }

        /// Adds the standard `host_parallelism` header field.
        #[must_use]
        pub fn host_parallelism(self) -> Self {
            let lanes = std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1);
            self.field("host_parallelism", lanes)
        }

        /// Appends one pre-rendered `{...}` result row.
        pub fn push_row(&mut self, row: String) {
            self.rows.push(row);
        }

        /// Renders the complete document.
        pub fn render(self) -> String {
            let mut out = String::from("{\n");
            out.push_str(&self.head);
            out.push_str("  \"results\": [\n");
            for (i, row) in self.rows.iter().enumerate() {
                out.push_str("    ");
                out.push_str(row);
                out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
            }
            out.push_str("  ]\n}\n");
            out
        }
    }
}

/// Machine-readable perf snapshots (`BENCH_parallel.json`): a tiny
/// hand-rolled JSON emitter (the workspace is offline; no serde) so the
/// BENCH trajectory can be diffed and plotted across PRs and archived
/// from CI.
pub mod bench_json {
    use crate::snapshot::{esc, Doc};
    /// One measured `(op, n, threads)` point.
    #[derive(Clone, Debug, PartialEq)]
    pub struct BenchRecord {
        /// Operation name (`ntt_roundtrip`, `key_switch`).
        pub op: String,
        /// Ring degree.
        pub n: usize,
        /// Executor lanes (1 = sequential backend).
        pub threads: usize,
        /// Measured throughput.
        pub ops_per_sec: f64,
        /// Throughput relative to the sequential backend at the same `n`.
        pub speedup_vs_sequential: f64,
    }

    impl BenchRecord {
        /// Convenience constructor.
        pub fn new(op: &str, n: usize, threads: usize, ops_per_sec: f64, speedup: f64) -> Self {
            Self {
                op: op.to_string(),
                n,
                threads,
                ops_per_sec,
                speedup_vs_sequential: speedup,
            }
        }
    }

    /// Renders the snapshot document for a set of records.
    pub fn render(records: &[BenchRecord], budget_ms: u64) -> String {
        let mut doc = Doc::new("heax-bench-parallel/1")
            .host_parallelism()
            .field("budget_ms", budget_ms);
        for r in records {
            doc.push_row(format!(
                "{{\"op\": \"{}\", \"n\": {}, \"threads\": {}, \
                 \"ops_per_sec\": {:.3}, \"speedup_vs_sequential\": {:.3}}}",
                esc(&r.op),
                r.n,
                r.threads,
                r.ops_per_sec,
                r.speedup_vs_sequential,
            ));
        }
        doc.render()
    }

    /// Snapshot path: the `HEAX_BENCH_JSON` environment variable when
    /// set, `BENCH_parallel.json` in the working directory otherwise.
    pub fn default_path() -> std::path::PathBuf {
        path_from_env("HEAX_BENCH_JSON", "BENCH_parallel.json")
    }

    /// Re-export of [`crate::snapshot::path_from_env`] (historic home).
    pub use crate::snapshot::path_from_env;

    /// One measured serving-path point (`BENCH_server.json`).
    #[derive(Clone, Debug, PartialEq)]
    pub struct SrvRecord {
        /// Operation name (`sequential_loop`, `batched_server`).
        pub op: String,
        /// Ring degree.
        pub n: usize,
        /// Concurrent client sessions in the workload.
        pub clients: usize,
        /// Executor lanes of the global backend (`HEAX_THREADS`).
        pub threads: usize,
        /// Measured request throughput.
        pub requests_per_sec: f64,
        /// Throughput relative to the one-request-at-a-time loop at the
        /// same `n` (`1.0` for the baseline itself).
        pub speedup_vs_sequential: f64,
    }

    impl SrvRecord {
        /// Convenience constructor.
        pub fn new(
            op: &str,
            n: usize,
            clients: usize,
            threads: usize,
            requests_per_sec: f64,
            speedup: f64,
        ) -> Self {
            Self {
                op: op.to_string(),
                n,
                clients,
                threads,
                requests_per_sec,
                speedup_vs_sequential: speedup,
            }
        }
    }

    /// One modeled board-pipeline point (`BENCH_pipeline.json`).
    #[derive(Clone, Debug, PartialEq)]
    pub struct PipeRecord {
        /// Paper parameter set label (`Set-A` …).
        pub set: String,
        /// Ring degree.
        pub n: usize,
        /// Modeled HEAX cores.
        pub cores: usize,
        /// Transfer/return mode (`wire`, `dram`, `wire-v2` — see
        /// `pipeline::MODES`).
        pub mode: String,
        /// Whether results stay parked in board DRAM (no PCIe return);
        /// redundant with `mode == "dram"`, kept for `/1` consumers.
        pub parked: bool,
        /// Modeled sustained request throughput.
        pub requests_per_sec: f64,
        /// Throughput relative to the 1-core model of the same
        /// (set, mode).
        pub speedup_vs_1core: f64,
        /// What binds the makespan (`compute` / `pcie-in` / `pcie-out`).
        pub bound: String,
        /// Fraction of core-cycles spent computing.
        pub core_utilization: f64,
        /// Deepest any core's input FIFO got (operation buffers).
        pub fifo_high_water: u64,
    }

    /// Renders the pipeline snapshot document (schema
    /// `heax-bench-pipeline/2` — `/2` added the `mode` field and the
    /// `wire-v2` rows). `functional` carries the modeled stats of the
    /// decrypt-verified serving pass, which ran at ring degree
    /// `functional_n`.
    pub fn render_pipeline(
        records: &[PipeRecord],
        clients: usize,
        rotations_per_client: usize,
        functional_n: usize,
        functional: &heax_server::ModeledBoardStats,
    ) -> String {
        let mut doc = Doc::new("heax-bench-pipeline/2")
            .field("clients", clients)
            .field("rotations_per_client", rotations_per_client)
            .field(
                "functional",
                format!(
                    "{{\"n\": {functional_n}, \"cores\": {}, \
                     \"verified_decrypt_identical\": true, \"modeled_requests\": {}, \
                     \"modeled_requests_per_sec\": {:.3}}}",
                    functional.cores,
                    functional.modeled_requests,
                    functional.modeled_requests_per_sec(),
                ),
            );
        for r in records {
            doc.push_row(format!(
                "{{\"set\": \"{}\", \"n\": {}, \"cores\": {}, \"mode\": \"{}\", \
                 \"parked\": {}, \
                 \"requests_per_sec\": {:.3}, \"speedup_vs_1core\": {:.3}, \
                 \"bound\": \"{}\", \"core_utilization\": {:.3}, \
                 \"fifo_high_water\": {}}}",
                esc(&r.set),
                r.n,
                r.cores,
                esc(&r.mode),
                r.parked,
                r.requests_per_sec,
                r.speedup_vs_1core,
                esc(&r.bound),
                r.core_utilization,
                r.fifo_high_water,
            ));
        }
        doc.render()
    }

    /// Renders the server snapshot document (schema
    /// `heax-bench-server/1`).
    pub fn render_server(
        records: &[SrvRecord],
        budget_ms: u64,
        rotations_per_client: usize,
        batch_occupancy: f64,
    ) -> String {
        let mut doc = Doc::new("heax-bench-server/1")
            .host_parallelism()
            .field("budget_ms", budget_ms)
            .field("rotations_per_client", rotations_per_client)
            .field("batch_occupancy", format!("{batch_occupancy:.3}"));
        for r in records {
            doc.push_row(format!(
                "{{\"op\": \"{}\", \"n\": {}, \"clients\": {}, \"threads\": {}, \
                 \"requests_per_sec\": {:.3}, \"speedup_vs_sequential\": {:.3}}}",
                esc(&r.op),
                r.n,
                r.clients,
                r.threads,
                r.requests_per_sec,
                r.speedup_vs_sequential,
            ));
        }
        doc.render()
    }

    /// One modeled cluster routing point (`BENCH_cluster.json`).
    #[derive(Clone, Debug, PartialEq)]
    pub struct ClusterRecord {
        /// Routing policy label (`affinity`, `random`).
        pub policy: String,
        /// Sessions in the workload.
        pub sessions: usize,
        /// Boards in the modeled cluster.
        pub boards: usize,
        /// Modeled HEAX cores per board.
        pub cores: usize,
        /// Modeled sustained request throughput.
        pub requests_per_sec: f64,
        /// Throughput relative to random routing at the same
        /// (sessions, boards, cores) point (`1.0` for random itself).
        pub speedup_vs_random: f64,
        /// Key-consuming ops that found their ksk resident.
        pub routing_hits: u64,
        /// Key-consuming ops that had to replicate their ksk first.
        pub routing_misses: u64,
        /// Warm-session ops stolen to a less-loaded board.
        pub steals: u64,
        /// Total key bytes replicated across the host link.
        pub replication_bytes: u64,
        /// Mean per-board core utilization against the cluster makespan.
        pub mean_utilization: f64,
    }

    /// Renders the cluster snapshot document (schema
    /// `heax-bench-cluster/1`). The model is deterministic; `set` and
    /// `rounds_per_session` record the workload shape.
    pub fn render_cluster(
        records: &[ClusterRecord],
        set: &str,
        rounds_per_session: usize,
    ) -> String {
        let mut doc = Doc::new("heax-bench-cluster/1")
            .field("set", format!("\"{}\"", esc(set)))
            .field("rounds_per_session", rounds_per_session);
        for r in records {
            doc.push_row(format!(
                "{{\"policy\": \"{}\", \"sessions\": {}, \"boards\": {}, \"cores\": {}, \
                 \"requests_per_sec\": {:.3}, \"speedup_vs_random\": {:.3}, \
                 \"routing_hits\": {}, \"routing_misses\": {}, \"steals\": {}, \
                 \"replication_bytes\": {}, \"mean_utilization\": {:.3}}}",
                esc(&r.policy),
                r.sessions,
                r.boards,
                r.cores,
                r.requests_per_sec,
                r.speedup_vs_random,
                r.routing_hits,
                r.routing_misses,
                r.steals,
                r.replication_bytes,
                r.mean_utilization,
            ));
        }
        doc.render()
    }

    /// One fault-injection sweep point (`BENCH_faults.json`).
    #[derive(Clone, Debug, PartialEq)]
    pub struct FaultRecord {
        /// Scenario label (`healthy`, `seeded-rate-0.3`,
        /// `lose-1-of-4-mid-run`).
        pub scenario: String,
        /// Seeded per-board fault-draw level (0.0 for pinned scenarios).
        pub rate: f64,
        /// Boards in the modeled cluster.
        pub boards: usize,
        /// Modeled HEAX cores per board.
        pub cores: usize,
        /// Boards still alive at the end of the run.
        pub boards_alive: usize,
        /// Modeled sustained request throughput under the plan.
        pub requests_per_sec: f64,
        /// Throughput relative to the healthy baseline at the same
        /// (boards, cores) shape (`1.0` for the baseline itself).
        pub retention_vs_healthy: f64,
        /// Sessions that recovered their ksk on a healthy board after a
        /// crash.
        pub failovers: u64,
        /// Key re-replications forced by faults.
        pub re_replications: u64,
        /// Resident ksk copies evicted on checksum mismatch.
        pub corrupt_ksk_evictions: u64,
        /// Modeled cycles spent re-replicating key material.
        pub recovery_cycles: u64,
    }

    /// Renders the fault-injection snapshot document (schema
    /// `heax-bench-faults/1`). `functional` is the cluster stats of the
    /// decrypt-verified serving leg — the snapshot carries the proof
    /// that faults were injected into a run whose results still
    /// decrypted identically.
    pub fn render_faults(
        records: &[FaultRecord],
        set: &str,
        sessions: usize,
        rounds_per_session: usize,
        functional_n: usize,
        functional: &heax_server::ModeledClusterStats,
    ) -> String {
        let mut doc = Doc::new("heax-bench-faults/1")
            .field("set", format!("\"{}\"", esc(set)))
            .field("sessions", sessions)
            .field("rounds_per_session", rounds_per_session)
            .field(
                "functional",
                format!(
                    "{{\"n\": {}, \"boards\": {}, \"cores\": {}, \
                     \"verified_decrypt_identical\": true, \"modeled_requests\": {}, \
                     \"boards_alive\": {}}}",
                    functional_n,
                    functional.boards,
                    functional.cores_per_board,
                    functional.modeled_requests,
                    functional.boards_alive,
                ),
            );
        for r in records {
            doc.push_row(format!(
                "{{\"scenario\": \"{}\", \"rate\": {:.2}, \"boards\": {}, \"cores\": {}, \
                 \"boards_alive\": {}, \"requests_per_sec\": {:.3}, \
                 \"retention_vs_healthy\": {:.3}, \"failovers\": {}, \"re_replications\": {}, \
                 \"corrupt_ksk_evictions\": {}, \"recovery_cycles\": {}}}",
                esc(&r.scenario),
                r.rate,
                r.boards,
                r.cores,
                r.boards_alive,
                r.requests_per_sec,
                r.retention_vs_healthy,
                r.failovers,
                r.re_replications,
                r.corrupt_ksk_evictions,
                r.recovery_cycles,
            ));
        }
        doc.render()
    }

    /// One measured real-socket serving point (`BENCH_sockets.json`).
    #[derive(Clone, Debug, PartialEq)]
    pub struct SockRecord {
        /// Scenario label (`closed-loop-8`, `saturation`,
        /// `poisson-half-load`).
        pub scenario: String,
        /// Virtual sessions live on the server during the run.
        pub sessions: usize,
        /// Loopback connections driving the scenario.
        pub conns: usize,
        /// Executor lanes of the global backend (`HEAX_THREADS`).
        pub threads: usize,
        /// Requests completed in the run.
        pub requests: usize,
        /// Completed requests per second of wall time.
        pub requests_per_sec: f64,
        /// Median request latency, send to reply, in milliseconds.
        pub p50_ms: f64,
        /// 99th-percentile request latency in milliseconds.
        pub p99_ms: f64,
        /// Admission-control load sheds during the run.
        pub sheds: u64,
        /// Connections dropped during the run (overflow + hostile).
        pub drops: u64,
    }

    /// Renders the socket snapshot document (schema
    /// `heax-bench-sockets/1`). `functional_requests` is the size of
    /// the byte-identity leg that gated the run.
    pub fn render_sockets(
        records: &[SockRecord],
        set: &str,
        sessions: usize,
        functional_requests: usize,
    ) -> String {
        let mut doc = Doc::new("heax-bench-sockets/1")
            .host_parallelism()
            .field("set", format!("\"{}\"", esc(set)))
            .field("sessions", sessions)
            .field(
                "functional",
                format!(
                    "{{\"requests\": {functional_requests}, \
                     \"verified_byte_identical\": true}}"
                ),
            );
        for r in records {
            doc.push_row(format!(
                "{{\"scenario\": \"{}\", \"sessions\": {}, \"conns\": {}, \"threads\": {}, \
                 \"requests\": {}, \"requests_per_sec\": {:.3}, \
                 \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"sheds\": {}, \"drops\": {}}}",
                esc(&r.scenario),
                r.sessions,
                r.conns,
                r.threads,
                r.requests,
                r.requests_per_sec,
                r.p50_ms,
                r.p99_ms,
                r.sheds,
                r.drops,
            ));
        }
        doc.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_renders_valid_shape() {
        use bench_json::BenchRecord;
        let records = vec![
            BenchRecord::new("ntt_roundtrip", 4096, 1, 1234.5, 1.0),
            BenchRecord::new("key_switch", 4096, 4, 99.25, 1.75),
        ];
        let json = bench_json::render(&records, 100);
        assert!(json.contains("\"schema\": \"heax-bench-parallel/1\""));
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"speedup_vs_sequential\": 1.750"));
        // Balanced braces/brackets, no trailing comma before the closer.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",\n  ]"));
    }

    #[test]
    fn server_json_renders_valid_shape() {
        use bench_json::SrvRecord;
        let records = vec![
            SrvRecord::new("sequential_loop", 4096, 8, 1, 120.0, 1.0),
            SrvRecord::new("batched_server", 4096, 8, 1, 260.0, 2.167),
        ];
        let json = bench_json::render_server(&records, 100, 8, 64.0);
        assert!(json.contains("\"schema\": \"heax-bench-server/1\""));
        assert!(json.contains("\"clients\": 8"));
        assert!(json.contains("\"batch_occupancy\": 64.000"));
        assert!(json.contains("\"speedup_vs_sequential\": 2.167"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",\n  ]"));
    }

    #[test]
    fn pipeline_json_renders_valid_shape() {
        use bench_json::PipeRecord;
        let records = vec![
            PipeRecord {
                set: "Set-C".into(),
                n: 16384,
                cores: 1,
                mode: "wire".into(),
                parked: false,
                requests_per_sec: 2500.0,
                speedup_vs_1core: 1.0,
                bound: "compute".into(),
                core_utilization: 0.97,
                fifo_high_water: 2,
            },
            PipeRecord {
                set: "Set-C".into(),
                n: 16384,
                cores: 4,
                mode: "wire-v2".into(),
                parked: false,
                requests_per_sec: 7200.0,
                speedup_vs_1core: 2.88,
                bound: "pcie-out".into(),
                core_utilization: 0.72,
                fifo_high_water: 2,
            },
        ];
        let functional = heax_server::ModeledBoardStats {
            cores: 4,
            freq_mhz: 300.0,
            modeled_requests: 64,
            modeled_cycles: 100_000,
            ..Default::default()
        };
        let json = bench_json::render_pipeline(&records, 8, 8, 16384, &functional);
        assert!(json.contains("\"n\": 16384,"));
        assert!(json.contains("\"schema\": \"heax-bench-pipeline/2\""));
        assert!(json.contains("\"mode\": \"wire-v2\""));
        assert!(json.contains("\"verified_decrypt_identical\": true"));
        assert!(json.contains("\"speedup_vs_1core\": 2.880"));
        assert!(json.contains("\"bound\": \"pcie-out\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",\n  ]"));
    }

    #[test]
    fn cluster_json_renders_valid_shape() {
        use bench_json::ClusterRecord;
        let records = vec![
            ClusterRecord {
                policy: "random".into(),
                sessions: 10_000,
                boards: 4,
                cores: 4,
                requests_per_sec: 40_000.0,
                speedup_vs_random: 1.0,
                routing_hits: 12_000,
                routing_misses: 28_000,
                steals: 0,
                replication_bytes: 73_000_000_000,
                mean_utilization: 0.41,
            },
            ClusterRecord {
                policy: "affinity".into(),
                sessions: 10_000,
                boards: 4,
                cores: 4,
                requests_per_sec: 75_000.0,
                speedup_vs_random: 1.875,
                routing_hits: 30_000,
                routing_misses: 10_000,
                steals: 3,
                replication_bytes: 26_000_000_000,
                mean_utilization: 0.77,
            },
        ];
        let json = bench_json::render_cluster(&records, "Set-B", 4);
        assert!(json.contains("\"schema\": \"heax-bench-cluster/1\""));
        assert!(json.contains("\"set\": \"Set-B\""));
        assert!(json.contains("\"policy\": \"affinity\""));
        assert!(json.contains("\"speedup_vs_random\": 1.875"));
        assert!(json.contains("\"routing_misses\": 10000"));
        assert!(json.contains("\"replication_bytes\": 26000000000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",\n  ]"));
    }

    #[test]
    fn cluster_affinity_beats_random_at_a_small_fleet_point() {
        // Deterministic model at a scaled-down fleet point: affinity
        // routing must clear the same >= 1.5x bar the committed
        // snapshot pins at 10k sessions.
        use heax_core::arch::DesignPoint;
        use heax_core::perf::estimate_cluster;
        use heax_hw::board::Board;
        use heax_hw::cluster::RoutingPolicy;

        let dp = DesignPoint::derive(Board::stratix10(), cluster::SET).expect("paper row");
        let ops = cluster::workload(200);
        let random = estimate_cluster(
            &dp,
            &ops,
            4,
            4,
            RoutingPolicy::Random {
                seed: cluster::RANDOM_SEED,
            },
        )
        .expect("schedule");
        let affinity = estimate_cluster(&dp, &ops, 4, 4, RoutingPolicy::Affinity { steal: true })
            .expect("schedule");
        assert_eq!(affinity.routing_misses, 200, "one replication per session");
        assert!(random.routing_misses > affinity.routing_misses);
        assert!(random.replication_bytes > affinity.replication_bytes);
        let speedup = affinity.requests_per_sec() / random.requests_per_sec();
        assert!(speedup >= 1.5, "affinity only {speedup:.2}x over random");
    }

    #[test]
    fn faults_json_renders_valid_shape() {
        use bench_json::FaultRecord;
        let records = vec![
            FaultRecord {
                scenario: "healthy".into(),
                rate: 0.0,
                boards: 4,
                cores: 4,
                boards_alive: 4,
                requests_per_sec: 75_000.0,
                retention_vs_healthy: 1.0,
                failovers: 0,
                re_replications: 0,
                corrupt_ksk_evictions: 0,
                recovery_cycles: 0,
            },
            FaultRecord {
                scenario: faults::HEADLINE.into(),
                rate: 0.0,
                boards: 4,
                cores: 4,
                boards_alive: 3,
                requests_per_sec: 52_000.0,
                retention_vs_healthy: 0.693,
                failovers: 48,
                re_replications: 51,
                corrupt_ksk_evictions: 3,
                recovery_cycles: 1_200_000,
            },
        ];
        let functional = heax_server::ModeledClusterStats {
            boards: 4,
            cores_per_board: 4,
            modeled_requests: 64,
            boards_alive: 3,
            failovers: 8,
            corrupt_ksk_evictions: 1,
            ..Default::default()
        };
        let json = bench_json::render_faults(&records, "Set-B", 1000, 4, 4096, &functional);
        assert!(json.contains("\"schema\": \"heax-bench-faults/1\""));
        assert!(json.contains("\"set\": \"Set-B\""));
        assert!(json.contains("\"verified_decrypt_identical\": true"));
        assert!(json.contains("\"scenario\": \"lose-1-of-4-mid-run\""));
        assert!(json.contains("\"retention_vs_healthy\": 0.693"));
        assert!(json.contains("\"recovery_cycles\": 1200000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",\n  ]"));
        // The acceptance picker finds the headline row.
        assert!((faults::acceptance_retention(&records) - 0.693).abs() < 1e-9);
        assert_eq!(faults::acceptance_retention(&records[..1]), 0.0);
    }

    #[test]
    fn sockets_json_renders_valid_shape() {
        use bench_json::SockRecord;
        let records = vec![
            SockRecord {
                scenario: "closed-loop-8".into(),
                sessions: 1_024,
                conns: 8,
                threads: 1,
                requests: 1_024,
                requests_per_sec: 850.0,
                p50_ms: 8.4,
                p99_ms: 21.7,
                sheds: 0,
                drops: 0,
            },
            SockRecord {
                scenario: "saturation".into(),
                sessions: 1_024,
                conns: 64,
                threads: 1,
                requests: 4_096,
                requests_per_sec: 1_900.0,
                p50_ms: 31.0,
                p99_ms: 74.5,
                sheds: 2,
                drops: 0,
            },
        ];
        let json = bench_json::render_sockets(&records, "Set-A", 1_024, 4);
        assert!(json.contains("\"schema\": \"heax-bench-sockets/1\""));
        assert!(json.contains("\"set\": \"Set-A\""));
        assert!(json.contains("\"verified_byte_identical\": true"));
        assert!(json.contains("\"scenario\": \"saturation\""));
        assert!(json.contains("\"p99_ms\": 74.500"));
        assert!(json.contains("\"sheds\": 2"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",\n  ]"));
    }

    #[test]
    fn socket_percentiles_use_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(sockets::percentile(&samples, 50.0), 50.0);
        assert_eq!(sockets::percentile(&samples, 99.0), 99.0);
        assert_eq!(sockets::percentile(&samples, 100.0), 100.0);
        assert_eq!(sockets::percentile(&[7.5], 50.0), 7.5);
        assert_eq!(sockets::percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn losing_one_of_four_boards_mid_run_retains_most_throughput() {
        // Deterministic model at a scaled-down fleet point: the same
        // headline scenario the committed snapshot pins — one of four
        // boards crashes at half the healthy makespan — must keep at
        // least 55% of healthy throughput after failover.
        use heax_core::arch::DesignPoint;
        use heax_core::perf::{estimate_cluster, estimate_cluster_faulted};
        use heax_hw::board::Board;
        use heax_hw::cluster::RoutingPolicy;
        use heax_hw::faults::{FaultKind, FaultPlan};

        let dp = DesignPoint::derive(Board::stratix10(), cluster::SET).expect("paper row");
        let ops = cluster::workload(200);
        let policy = RoutingPolicy::Affinity { steal: true };
        let healthy = estimate_cluster(&dp, &ops, 4, 4, policy).expect("schedule");
        let plan = FaultPlan::new().with_event(
            0,
            faults::mid_run_crash_cycle(&healthy),
            FaultKind::BoardCrash,
        );
        let faulted = estimate_cluster_faulted(&dp, &ops, 4, 4, policy, &plan).expect("schedule");
        assert_eq!(faulted.boards_alive(), 3);
        assert!(faulted.failovers > 0, "crash must displace warm sessions");
        assert!(faulted.recovery_cycles > 0);
        let retention = faulted.requests_per_sec() / healthy.requests_per_sec();
        assert!(
            retention >= 0.55,
            "1-of-4 crash retained only {retention:.2} of healthy throughput"
        );
    }

    #[test]
    fn checked_functional_passes_values_through() {
        // The happy path of the shared verification gate is a plain
        // pass-through (the failure path exits the process, so only
        // the bin-level contract covers it).
        let value = snapshot::checked_functional("unit", || 41 + 1);
        assert_eq!(value, 42);
    }

    #[test]
    fn pipeline_model_suite_meets_the_acceptance_bar() {
        // Deterministic model: the full sweep must show 4-core >= 2x
        // 1-core on the wire-return 8-client workload at Set-C, and the
        // parked variants must scale at least as well as wire return.
        let records = pipeline::model_suite();
        assert_eq!(
            records.len(),
            3 * pipeline::MODES.len() * pipeline::CORES.len()
        );
        let bar = pipeline::acceptance_speedup(&records);
        assert!(bar >= 2.0, "modeled 4-core speedup only {bar:.2}x");
        for r in records.iter().filter(|r| r.cores == 1) {
            assert!((r.speedup_vs_1core - 1.0).abs() < 1e-9);
        }
        for wire in records.iter().filter(|r| r.mode == "wire") {
            let parked = records
                .iter()
                .find(|p| p.parked && p.n == wire.n && p.cores == wire.cores)
                .expect("parked twin");
            assert!(parked.speedup_vs_1core >= wire.speedup_vs_1core - 1e-9);
        }
    }

    #[test]
    fn wire_v2_flips_pcie_bound_rows_to_compute() {
        // The v2 acceptance bar: at least two (set, cores) points that
        // were pcie-out-bound under v1 wire return must be rescued by
        // seeded uploads + compressed replies.
        let records = pipeline::model_suite();
        let flips = pipeline::v2_flip_count(&records);
        assert!(
            flips >= 2,
            "only {flips} pcie-out rows flipped under wire-v2"
        );
        // The v2 path can never be slower than v1 at the same point.
        for v1 in records.iter().filter(|r| r.mode == "wire") {
            let v2 = records
                .iter()
                .find(|v| v.mode == "wire-v2" && v.n == v1.n && v.cores == v1.cores)
                .expect("wire-v2 twin");
            assert!(
                v2.requests_per_sec >= v1.requests_per_sec - 1e-9,
                "wire-v2 slower than wire at n={} cores={}",
                v1.n,
                v1.cores
            );
        }
    }

    #[test]
    fn v2_flip_count_judges_synthetic_records() {
        use bench_json::PipeRecord;
        let row = |mode: &str, cores: usize, bound: &str, speedup: f64| PipeRecord {
            set: "Set-X".into(),
            n: 8192,
            cores,
            mode: mode.into(),
            parked: false,
            requests_per_sec: 1000.0 * speedup,
            speedup_vs_1core: speedup,
            bound: bound.into(),
            core_utilization: 0.5,
            fifo_high_water: 2,
        };
        // pcie-out -> compute: counts.
        let flipped = vec![
            row("wire", 2, "pcie-out", 1.12),
            row("wire-v2", 2, "compute", 1.9),
        ];
        assert_eq!(pipeline::v2_flip_count(&flipped), 1);
        // Still pcie-out but speedup recovered >= 1.5x from <= 1.12x: counts.
        let recovered = vec![
            row("wire", 4, "pcie-out", 1.0),
            row("wire-v2", 4, "pcie-out", 1.6),
        ];
        assert_eq!(pipeline::v2_flip_count(&recovered), 1);
        // Compute-bound v1 rows never count, nor do unimproved twins.
        let unmoved = vec![
            row("wire", 1, "compute", 1.0),
            row("wire-v2", 1, "compute", 1.0),
            row("wire", 2, "pcie-out", 1.12),
            row("wire-v2", 2, "pcie-out", 1.2),
        ];
        assert_eq!(pipeline::v2_flip_count(&unmoved), 0);
    }

    #[test]
    fn table_renders() {
        let t = render_table(
            "Demo",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["30".into(), "4".into()]],
        );
        assert!(t.contains("Demo"));
        assert!(t.contains("30"));
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_ops(1_500_000.0), "1.50M");
        assert_eq!(fmt_ops(22_536.0), "22.5k");
        assert_eq!(fmt_ops(488.0), "488.0");
        assert_eq!(fmt_speedup(232.3), "232.3x");
        assert_eq!(fmt_delta(110.0, 100.0), "+10.0%");
    }

    #[test]
    fn measure_runs() {
        let mut x = 0u64;
        let rate = measure_ops_per_sec(
            || {
                x = x.wrapping_add(1);
            },
            5,
        );
        assert!(rate > 0.0);
    }
}
