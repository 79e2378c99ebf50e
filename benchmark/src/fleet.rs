//! `model_fleet_setb`: a seeded fleet's op stream scheduled on the
//! simulated Stratix-10 cluster — the architect's view, and the only
//! workload where `hw::{ir,scheduler,cluster,faults}` do the work.
//! Simulated figures must repeat exactly; only host time may move.

use std::time::Instant;

use heax_ckks::ParamSet;
use heax_hw::cluster::{ClusterConfig, ClusterReport, RoutingPolicy};
use heax_hw::faults::{FaultKind, FaultPlan, FaultRates};
use heax_hw::ir::{self, FusedStream, OpStream};
use heax_hw::scheduler::{PipelineConfig, PipelineReport};

use crate::gen::{self, Job, JobMix, Stream};
use crate::harness::{self, fnv1a, repeat_setup, Opts, Outcome, Phase, Timings};
use crate::model::{self, CORES};
use crate::stats;
use crate::trace::{self, Tracer};
use rand::Rng;

/// Sessions in the fleet; each submits [`ROUNDS`] jobs.
const SESSIONS: usize = 2_000;
const ROUNDS: usize = 2;
const BOARDS: usize = 4;
const POLICY: RoutingPolicy = RoutingPolicy::Affinity { steal: true };
/// Per-board fault probability of the seeded plan.
const FAULT_RATE: f64 = 0.1;

/// The generated stream and the simulated machines it runs on.
pub struct Fleet {
    stream: OpStream,
    fused: FusedStream,
    board: PipelineConfig,
    cluster: ClusterConfig,
}

/// The simulated figures that must be identical on every repetition.
#[derive(Clone, Debug, PartialEq)]
struct SimStats {
    total_cycles: u64,
    board_cycles: Vec<u64>,
    requests: u64,
    routing_hits: u64,
    routing_misses: u64,
    steals: u64,
    replication_bytes: u64,
    cross_board_deps: u64,
    failovers: u64,
    recovery_cycles: u64,
    assignment_hash: u64,
}

impl SimStats {
    fn of(r: &ClusterReport) -> Self {
        SimStats {
            total_cycles: r.total_cycles,
            board_cycles: r.boards.iter().map(|b| b.total_cycles).collect(),
            requests: r.requests(),
            routing_hits: r.routing_hits,
            routing_misses: r.routing_misses,
            steals: r.steals,
            replication_bytes: r.replication_bytes,
            cross_board_deps: r.cross_board_deps,
            failovers: r.failovers,
            recovery_cycles: r.recovery_cycles,
            assignment_hash: fnv1a(r.assignment.iter().map(|&b| b as u64)),
        }
    }
}

impl Fleet {
    /// Every session submits one job per round, in a seeded order each
    /// round — the interleaving a front-end router sees.
    pub fn new(seed: u64) -> Self {
        let mut mix = JobMix::new(seed, SESSIONS);
        let mut order_rng = gen::rng(seed, Stream::Arrivals);
        let mut jobs: Vec<Job> = Vec::with_capacity(SESSIONS * ROUNDS);
        for _ in 0..ROUNDS {
            let mut order: Vec<usize> = (0..SESSIONS).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, order_rng.gen_range(0..=i));
            }
            jobs.extend(order.into_iter().map(|session| Job {
                session,
                ..mix.next_job()
            }));
        }
        let stream = model::lower_jobs(&jobs);
        let fused = stream.fuse_rotations();
        let dp = model::design_point(ParamSet::SetB);
        Fleet {
            stream,
            fused,
            board: dp.pipeline_config(CORES).expect("paper design point"),
            cluster: dp
                .cluster_config(BOARDS, CORES)
                .expect("paper design point"),
        }
    }

    fn schedule(&self) -> ClusterReport {
        self.cluster
            .schedule_stream(&self.fused.ops, POLICY)
            .expect("generated stream is well-formed")
    }

    fn schedule_board(&self) -> PipelineReport {
        self.board
            .schedule_stream(&self.fused.ops)
            .expect("generated stream is well-formed")
    }

    /// The fixed seeded fault plan: every fault class at
    /// [`FAULT_RATE`] per board (no seeded crashes) plus board 0
    /// crashing at half its healthy compute load.
    fn fault_plan(&self, seed: u64, healthy: &ClusterReport) -> FaultPlan {
        let rates = FaultRates {
            crash: 0.0,
            slowdown: FAULT_RATE,
            link: FAULT_RATE,
            dma: FAULT_RATE,
            ksk_corruption: FAULT_RATE,
        };
        let mid_run: u64 = healthy.boards[0]
            .ops
            .iter()
            .map(|t| t.compute.1 - t.compute.0)
            .sum::<u64>()
            / 2;
        FaultPlan::generate(
            seed ^ Stream::Faults as u64,
            BOARDS,
            healthy.total_cycles,
            &ir::session_ids(&self.fused.ops),
            &rates,
        )
        .with_event(0, mid_run, FaultKind::BoardCrash)
    }

    fn schedule_faulted(&self, plan: &FaultPlan) -> ClusterReport {
        self.cluster
            .schedule_stream_faulted(&self.fused.ops, POLICY, plan)
            .expect("three boards survive the plan")
    }

    /// Schedules the stream for `seconds`, checking every repetition's
    /// simulated figures against the first, and that an empty fault plan
    /// is the plain path.
    fn run(&self, seconds: f64, tr: &mut Tracer) -> (Timings, Phase, ClusterReport) {
        let first = self.schedule();
        let want = SimStats::of(&first);
        let mut mismatches = 0u64;
        let per_call = self.fused.requests() as usize;
        let timings = harness::measure(seconds, per_call, |i| {
            tr.open("hw.sched_cluster", i + 1);
            let report = self.schedule();
            tr.close();
            if SimStats::of(&report) != want {
                mismatches += 1;
            }
        });
        if SimStats::of(&self.schedule_faulted(&FaultPlan::none())) != want {
            mismatches += 1;
        }
        // Every scheduled call, and the empty-plan one.
        let sent = timings.samples() as u64 + 1;
        let failed = mismatches.min(sent);
        let phase = Phase {
            name: "schedules",
            sent,
            succeeded: sent - failed,
            failed,
        };
        (timings, phase, first)
    }

    /// The `hw.*` metrics: host time per fused op of each simulator
    /// entry point, and the exact simulated counts.
    fn layer_metrics(&self, seed: u64, tr: &mut Tracer, out: &mut Outcome) {
        let ops = self.fused.ops.len() as f64;
        let (_, us) = timed(tr, "hw.fuse", || self.stream.fuse_rotations());
        out.metrics
            .set("hw.fuse_us_per_op", us / self.stream.len() as f64);
        let (board, us) = timed(tr, "hw.sched_board", || self.schedule_board());
        out.metrics.set("hw.sched_board_us_per_op", us / ops);
        let (healthy, us) = timed(tr, "hw.sched_cluster", || self.schedule());
        out.metrics.set("hw.sched_cluster_us_per_op", us / ops);
        let plan = self.fault_plan(seed, &healthy);
        let (faulted, us) = timed(tr, "hw.sched_faulted", || self.schedule_faulted(&plan));
        out.metrics.set("hw.sched_faulted_us_per_op", us / ops);

        let stalls = board.stalls();
        let m = &mut out.metrics;
        m.set("hw.sim.board_cycles", board.total_cycles as f64);
        m.set("hw.sim.cluster_cycles", healthy.total_cycles as f64);
        m.set("hw.sim.core_utilization", board.core_utilization());
        m.set("hw.sim.fifo_high_water", board.fifo_high_water as f64);
        m.set("hw.sim.stall_input_cycles", stalls.input_wait as f64);
        m.set("hw.sim.stall_output_cycles", stalls.output_wait as f64);
        m.set("hw.sim.stall_fifo_cycles", stalls.fifo_backpressure as f64);
        m.set("hw.sim.routing_hit_rate", healthy.hit_rate());
        m.set("hw.sim.steals", healthy.steals as f64);
        m.set("hw.sim.replication_bytes", healthy.replication_bytes as f64);
        m.set("hw.sim.failovers", faulted.failovers as f64);
        m.set("hw.sim.recovery_cycles", faulted.recovery_cycles as f64);
        m.set(
            "hw.sim.faulted_retention",
            faulted.requests_per_sec() / healthy.requests_per_sec(),
        );
    }
}

/// Runs `f` five times, each under a `name` span; returns the last result
/// and the median µs of every span so named.
fn timed<T>(tr: &mut Tracer, name: &'static str, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut last = None;
    for i in 0..5 {
        tr.open(name, i + 1);
        last = Some(f());
        tr.close();
    }
    (
        last.expect("ran five times"),
        stats::median(&trace::durations_ns(tr.spans(), name)) / 1e3,
    )
}

pub fn run(opts: &Opts, origin: Instant) -> Outcome {
    let mut out = Outcome::default();
    let (fleet, setups) = repeat_setup(opts.setup_reps(15), || {
        let fleet = Fleet::new(opts.seed);
        // Warm-up: one schedule of each machine.
        std::hint::black_box((fleet.schedule(), fleet.schedule_board()));
        fleet
    });
    let report = if opts.trace {
        let mut off = Tracer::new(false, origin);
        let (plain, _, _) = fleet.run(opts.seconds / 8.0, &mut off);
        let mut tr = Tracer::new(true, origin);
        tr.open("fleet", 0);
        let (traced, phase, report) = fleet.run(opts.seconds / 4.0, &mut tr);
        tr.close();
        let loop_ns: f64 = trace::durations_ns(tr.spans(), "fleet").iter().sum();
        let self_ns = trace::self_total_ns(tr.spans(), "fleet") as f64;
        traced.report(&mut out);
        out.metrics
            .set("trace.overhead_ratio", traced.rate() / plain.rate());
        out.metrics.set("trace.coverage", 1.0 - self_ns / loop_ns);
        fleet.layer_metrics(opts.seed, &mut tr, &mut out);
        out.phases.push(phase);
        out.spans = tr.into_spans();
        report
    } else {
        let mut off = Tracer::new(false, origin);
        let (timings, phase, report) = fleet.run(opts.seconds, &mut off);
        timings.report(&mut out);
        out.phases.push(phase);
        out.report_setup(&setups);
        report
    };
    // Simulated time, the same traced or not: neither depends on the host.
    out.metrics.set("modeled_rps", report.requests_per_sec());
    out.metrics.set("model_err_pct", model::model_err_pct());
    out
}
