//! The architect's view: lowering generated jobs to the op-stream IR the
//! way the server lowers wire requests, the paper's design points, and
//! the model's error against the paper's published figures. All of it
//! is simulated time: none of these numbers depends on the host.

use heax_ckks::ParamSet;
use heax_core::arch::DesignPoint;
use heax_core::perf::{self, HeaxOp};
use heax_hw::board::Board;
use heax_hw::ir::{IrOp, OpKind, OpStream};

use crate::gen::{Job, JobKind};

/// HEAX cores on each simulated board.
pub const CORES: usize = 4;

pub fn design_point(set: ParamSet) -> DesignPoint {
    DesignPoint::derive(Board::stratix10(), set).expect("the paper's design points derive")
}

/// Lowers jobs to one [`IrOp`] per wire request, mirroring the server's
/// own lowering (`heax_server::server`, `lower_ops`): session identity,
/// operand identity for fusion, parked handles and write→read
/// dependency edges. Session indices become ids `index + 1` (0 is the
/// IR's "anonymous").
pub fn lower_jobs(jobs: &[Job]) -> OpStream {
    let mut stream = OpStream::new();
    let mut next_id = 1u64;
    let mut fresh = || {
        next_id += 1;
        next_id - 1
    };
    for job in jobs {
        let session = job.session as u64 + 1;
        match job.kind {
            JobKind::Fanout => {
                let input = fresh();
                for _ in 0..job.kind.requests() {
                    stream.push(
                        IrOp::new(OpKind::Rotate)
                            .with_session(session)
                            .with_input_id(input)
                            .with_seeded_input()
                            .with_reply_limbs(1),
                    );
                }
            }
            JobKind::Single => {
                for _ in 0..job.kind.requests() {
                    stream.push(
                        IrOp::new(OpKind::Rotate)
                            .with_session(session)
                            .with_input_id(fresh()),
                    );
                }
            }
            JobKind::Add => stream.push(IrOp::new(OpKind::Add).with_session(session)),
            JobKind::Chain => {
                let (m, r, t) = (fresh(), fresh(), fresh());
                let at = stream.len() as u32;
                stream.push(
                    IrOp::new(OpKind::Multiply)
                        .with_session(session)
                        .with_parked_output()
                        .with_output_id(m),
                );
                stream.push(
                    IrOp::new(OpKind::Rescale)
                        .with_session(session)
                        .with_parked_input()
                        .with_input_id(m)
                        .with_dep(at)
                        .with_parked_output()
                        .with_output_id(r),
                );
                stream.push(
                    IrOp::new(OpKind::Rotate)
                        .with_session(session)
                        .with_parked_input()
                        .with_input_id(r)
                        .with_dep(at + 1)
                        .with_parked_output()
                        .with_output_id(t),
                );
                stream.push(
                    IrOp::new(OpKind::Add)
                        .with_session(session)
                        .with_parked_input()
                        .with_input_id(t)
                        .with_dep(at + 2),
                );
            }
        }
    }
    stream
}

/// Largest relative error, in percent, of `perf::estimate` against the
/// 20 HEAX throughput figures the paper publishes (Tables 7 and 8).
pub fn model_err_pct() -> f64 {
    DesignPoint::paper_rows()
        .iter()
        .flat_map(|dp| {
            HeaxOp::ALL.into_iter().filter_map(move |op| {
                let paper = perf::paper_heax_ops_per_sec(&dp.board, dp.set, op)?;
                Some((perf::estimate(dp, op).ops_per_sec - paper).abs() / paper * 100.0)
            })
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::JobMix;

    #[test]
    fn lowered_jobs_fuse_like_served_ones() {
        let mut mix = JobMix::new(5, 32);
        let jobs: Vec<Job> = (0..16).map(|_| mix.next_job()).collect();
        let stream = lower_jobs(&jobs);
        assert_eq!(stream.len(), 8 * 8 + 4 * 4 + 4 * 4);
        let fused = stream.fuse_rotations();
        // Each fan-out collapses to one hoisted group; nothing else fuses.
        assert_eq!(fused.ops.len(), 8 + 4 * 4 + 4 * 4);
        assert_eq!(fused.requests(), stream.len() as u64);
    }

    #[test]
    fn model_error_covers_all_twenty_published_figures() {
        let err = model_err_pct();
        assert!(err > 0.0 && err < 0.1, "{err}");
    }
}
