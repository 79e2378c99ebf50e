//! Seeded, deterministic fault injection for the board and cluster
//! schedulers.
//!
//! The paper evaluates a perfect machine; production is N boards where
//! links flap, DMA engines degrade, boards slow down or disappear, and
//! resident key material goes bad. This module makes those failures a
//! *first-class, reproducible input*: a [`FaultPlan`] is an explicit
//! list of [`FaultEvent`]s — hand-built or drawn from a seeded
//! generator ([`FaultPlan::generate`]) — that
//! [`ClusterConfig::schedule_stream_faulted`](crate::cluster::ClusterConfig::schedule_stream_faulted)
//! replays, routing around crashes and dilating each degraded board's
//! schedule. Because every fault is expressed in modeled cycles and
//! every reaction (failover, re-replication, eviction, dilation) is
//! deterministic, a faulted run is exactly reproducible and — crucially
//! — never perturbs functional results: faults reshape *where and how
//! slowly* work runs, not *what* it computes.
//!
//! The five modeled fault classes:
//!
//! * **Board crash** ([`FaultKind::BoardCrash`]): the board is drained
//!   from the routing table once its modeled load reaches the event
//!   cycle; resident sessions fail over to healthy boards (ksk
//!   re-replication billed through the normal byte accounting, parked
//!   state re-materialized from the host).
//! * **Board slow-down** ([`FaultKind::BoardSlowdown`]): every compute
//!   stage on the board dilates by a percentage; the router's load
//!   accounting sees the dilation, so slow boards naturally receive
//!   less work.
//! * **PCIe link flap/stall** ([`FaultKind::LinkStall`]): every DMA
//!   transfer on the board pays a flat re-training stall instead of
//!   wedging the schedule.
//! * **DMA-channel degradation** ([`FaultKind::DmaDegrade`]): the
//!   host→board and/or board→host channels dilate by a percentage.
//! * **Resident-ksk corruption** ([`FaultKind::KskCorruption`]): an
//!   event, not data; the cluster evicts the resident copy and
//!   re-uploads it on the session's next key-consuming op.
//!
//! ```
//! use heax_hw::faults::{FaultKind, FaultPlan, FaultRates};
//!
//! // A hand-built plan: board 1 dies a quarter into the run.
//! let plan = FaultPlan::none().with_event(1, 250_000, FaultKind::BoardCrash);
//! assert!(!plan.is_empty());
//!
//! // A seeded plan is reproducible: same seed, same schedule.
//! let rates = FaultRates { crash: 0.25, ..FaultRates::default() };
//! let a = FaultPlan::generate(7, 4, 1_000_000, &[1, 2, 3], &rates);
//! let b = FaultPlan::generate(7, 4, 1_000_000, &[1, 2, 3], &rates);
//! assert_eq!(a.events, b.events);
//! ```

/// One class of injected hardware fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The board stops serving: it is drained from the routing table
    /// once its modeled load reaches the event cycle, and every
    /// resident session fails over to a healthy board.
    BoardCrash,
    /// Every compute stage on the board dilates by `pct` percent for
    /// the rest of the run.
    BoardSlowdown {
        /// Compute dilation in percent (25 = 1.25× slower).
        pct: u32,
    },
    /// The board's PCIe link flaps: every DMA transfer (either
    /// direction) pays a flat re-training stall.
    LinkStall {
        /// Stall added to each transfer, in cycles.
        stall_cycles: u64,
    },
    /// One or both DMA channels degrade by a percentage for the rest
    /// of the run.
    DmaDegrade {
        /// Host→board dilation in percent.
        in_pct: u32,
        /// Board→host dilation in percent.
        out_pct: u32,
    },
    /// The board's resident copy of a session's key-switching key goes
    /// bad; the session's next key-consuming op on that board finds it,
    /// evicts the copy and re-uploads it.
    KskCorruption {
        /// The session whose resident ksk is corrupted.
        session: u64,
    },
}

/// One scheduled fault: a kind, the board it strikes, and the modeled
/// cycle at which it takes effect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// The board the fault strikes.
    pub board: usize,
    /// Modeled cycle at which the fault takes effect. Crash and
    /// corruption events trigger once the board's accumulated load
    /// reaches this cycle; degradation events (slow-down, link, DMA)
    /// apply to the board's whole run — the model is conservative
    /// about partial-run degradation.
    pub at_cycle: u64,
    /// What breaks.
    pub kind: FaultKind,
}

/// A deterministic fault schedule: the list of events a faulted
/// scheduling run replays. Empty plans are free — the fault-free
/// entry points pass [`FaultPlan::none`] through the same code path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled events, in no particular order.
    pub events: Vec<FaultEvent>,
}

/// Per-class fault probabilities for the seeded generator, each the
/// chance that a given board suffers that fault during the horizon.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultRates {
    /// Probability a board crashes.
    pub crash: f64,
    /// Probability a board slows down (25–100 %).
    pub slowdown: f64,
    /// Probability a board's link flaps (a flat per-transfer stall).
    pub link: f64,
    /// Probability a board's DMA channels degrade.
    pub dma: f64,
    /// Probability a board's resident ksk for a random session goes bad.
    pub ksk_corruption: f64,
}

/// Splitmix-style seeded stream: the same LCG idiom the random routing
/// policy uses, so fault schedules are reproducible across platforms.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() & ((1 << 53) - 1)) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, bound)`; 0 when the bound is 0.
    fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next() % bound
        }
    }
}

impl FaultPlan {
    /// An empty plan: the fault-free schedule, and the start of a
    /// hand-built one ([`FaultPlan::with_event`]).
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Builder: append one event.
    #[must_use]
    pub fn with_event(mut self, board: usize, at_cycle: u64, kind: FaultKind) -> Self {
        self.events.push(FaultEvent {
            board,
            at_cycle,
            kind,
        });
        self
    }

    /// Draws a deterministic fault schedule from a seed: for each of
    /// `num_boards` boards and each fault class, one Bernoulli draw at
    /// the configured rate; struck boards get an event at a uniform
    /// cycle inside `horizon_cycles`. Corruption events target a
    /// uniformly drawn session from `sessions` (none are generated if
    /// the slice is empty). The same `(seed, num_boards,
    /// horizon_cycles, sessions, rates)` always yields the same plan.
    pub fn generate(
        seed: u64,
        num_boards: usize,
        horizon_cycles: u64,
        sessions: &[u64],
        rates: &FaultRates,
    ) -> Self {
        let mut rng = Lcg::new(seed);
        let mut plan = Self::none();
        for board in 0..num_boards {
            if rng.unit() < rates.crash {
                plan = plan.with_event(board, rng.below(horizon_cycles), FaultKind::BoardCrash);
            }
            if rng.unit() < rates.slowdown {
                let pct = 25 + rng.below(76) as u32; // 25–100 %
                plan = plan.with_event(
                    board,
                    rng.below(horizon_cycles),
                    FaultKind::BoardSlowdown { pct },
                );
            }
            if rng.unit() < rates.link {
                // Link re-training is tens of microseconds, not
                // workload-scale: bound the per-transfer stall so a
                // flapping link degrades throughput instead of
                // swallowing the whole schedule.
                let stall_cycles = 1 + rng.below((horizon_cycles.max(2) / 64).min(10_000));
                plan = plan.with_event(
                    board,
                    rng.below(horizon_cycles),
                    FaultKind::LinkStall { stall_cycles },
                );
            }
            if rng.unit() < rates.dma {
                let in_pct = rng.below(51) as u32;
                let out_pct = rng.below(51) as u32;
                plan = plan.with_event(
                    board,
                    rng.below(horizon_cycles),
                    FaultKind::DmaDegrade { in_pct, out_pct },
                );
            }
            if rng.unit() < rates.ksk_corruption && !sessions.is_empty() {
                let session = sessions[rng.below(sessions.len() as u64) as usize];
                plan = plan.with_event(
                    board,
                    rng.below(horizon_cycles),
                    FaultKind::KskCorruption { session },
                );
            }
        }
        plan
    }

    /// Folds the plan's degradation events for one board into the
    /// whole-run profile the board scheduler dilates its timings by.
    /// Crash and corruption events are routing-level and do not appear
    /// here.
    pub(crate) fn board_profile(&self, board: usize) -> BoardFaultProfile {
        let mut p = BoardFaultProfile::default();
        for e in self.events.iter().filter(|e| e.board == board) {
            match e.kind {
                FaultKind::BoardSlowdown { pct } => {
                    p.compute_slowdown_pct = p.compute_slowdown_pct.saturating_add(pct);
                }
                FaultKind::LinkStall { stall_cycles } => {
                    p.link_stall_cycles = p.link_stall_cycles.saturating_add(stall_cycles);
                }
                FaultKind::DmaDegrade { in_pct, out_pct } => {
                    p.dma_in_slowdown_pct = p.dma_in_slowdown_pct.saturating_add(in_pct);
                    p.dma_out_slowdown_pct = p.dma_out_slowdown_pct.saturating_add(out_pct);
                }
                FaultKind::BoardCrash | FaultKind::KskCorruption { .. } => {}
            }
        }
        p
    }

    /// The cycle at which `board` crashes, if the plan crashes it.
    /// Multiple crash events collapse to the earliest.
    pub fn crash_cycle(&self, board: usize) -> Option<u64> {
        self.events
            .iter()
            .filter(|e| e.board == board && e.kind == FaultKind::BoardCrash)
            .map(|e| e.at_cycle)
            .min()
    }
}

/// The whole-run degradation profile of one board, folded from a
/// [`FaultPlan`] by [`FaultPlan::board_profile`]: percentage dilations
/// on compute and the two DMA channels plus a flat per-transfer link
/// stall. The default profile is a healthy board.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct BoardFaultProfile {
    /// Percent dilation of every compute stage (25 = 1.25× slower).
    pub(crate) compute_slowdown_pct: u32,
    /// Percent dilation of host→board DMA transfers.
    pub(crate) dma_in_slowdown_pct: u32,
    /// Percent dilation of board→host DMA transfers.
    pub(crate) dma_out_slowdown_pct: u32,
    /// Flat stall added to every DMA transfer (link re-training).
    pub(crate) link_stall_cycles: u64,
}

impl BoardFaultProfile {
    /// Whether the profile degrades nothing (the fault-free fast path).
    pub(crate) fn is_healthy(&self) -> bool {
        *self == Self::default()
    }

    /// Dilates a cycle count by a percentage, saturating.
    pub(crate) fn dilate(cycles: u64, pct: u32) -> u64 {
        cycles.saturating_add(cycles.saturating_mul(pct as u64) / 100)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_and_rate_sensitive() {
        let rates = FaultRates {
            crash: 0.5,
            slowdown: 0.5,
            link: 0.5,
            dma: 0.5,
            ksk_corruption: 0.5,
        };
        let sessions = [1u64, 2, 3, 4];
        let a = FaultPlan::generate(42, 8, 1_000_000, &sessions, &rates);
        let b = FaultPlan::generate(42, 8, 1_000_000, &sessions, &rates);
        assert_eq!(a.events, b.events);
        let c = FaultPlan::generate(43, 8, 1_000_000, &sessions, &rates);
        assert_ne!(a.events, c.events, "different seeds, different plans");
        // Certain rates strike every board; zero rates strike none.
        let all = FaultPlan::generate(
            1,
            8,
            1_000_000,
            &sessions,
            &FaultRates {
                crash: 1.0,
                ..FaultRates::default()
            },
        );
        assert_eq!(all.events.len(), 8);
        assert!(all.events.iter().all(|e| e.kind == FaultKind::BoardCrash));
        let none = FaultPlan::generate(1, 8, 1_000_000, &sessions, &FaultRates::default());
        assert!(none.is_empty());
    }

    #[test]
    fn corruption_needs_sessions() {
        let rates = FaultRates {
            ksk_corruption: 1.0,
            ..FaultRates::default()
        };
        assert!(FaultPlan::generate(5, 4, 1000, &[], &rates).is_empty());
        let plan = FaultPlan::generate(5, 4, 1000, &[9], &rates);
        assert_eq!(plan.events.len(), 4);
        assert!(plan
            .events
            .iter()
            .all(|e| e.kind == FaultKind::KskCorruption { session: 9 }));
    }

    #[test]
    fn profiles_fold_per_board_and_crashes_resolve_earliest() {
        let plan = FaultPlan::none()
            .with_event(0, 100, FaultKind::BoardSlowdown { pct: 25 })
            .with_event(0, 200, FaultKind::LinkStall { stall_cycles: 50 })
            .with_event(
                0,
                300,
                FaultKind::DmaDegrade {
                    in_pct: 10,
                    out_pct: 20,
                },
            )
            .with_event(1, 500, FaultKind::BoardCrash)
            .with_event(1, 400, FaultKind::BoardCrash);
        let p0 = plan.board_profile(0);
        assert_eq!(p0.compute_slowdown_pct, 25);
        assert_eq!(p0.link_stall_cycles, 50);
        assert_eq!(p0.dma_in_slowdown_pct, 10);
        assert_eq!(p0.dma_out_slowdown_pct, 20);
        assert!(!p0.is_healthy());
        assert!(plan.board_profile(1).is_healthy()); // crash is routing-level
        assert_eq!(plan.crash_cycle(1), Some(400));
        assert_eq!(plan.crash_cycle(0), None);
    }

    #[test]
    fn dilation_saturates_and_is_exact() {
        assert_eq!(BoardFaultProfile::dilate(1000, 0), 1000);
        assert_eq!(BoardFaultProfile::dilate(1000, 25), 1250);
        assert_eq!(BoardFaultProfile::dilate(1000, 100), 2000);
        assert_eq!(BoardFaultProfile::dilate(u64::MAX, 100), u64::MAX);
    }
}
