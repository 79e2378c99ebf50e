//! Workspace smoke test: every `heax-bench` table/figure binary must run
//! to completion (exit 0) and print something, under a fast measurement
//! budget so the whole suite stays test-friendly.
//!
//! Each binary runs twice — once with `HEAX_THREADS=1` (sequential
//! backend) and once with `HEAX_THREADS=4` (thread-pool backend) — so a
//! racy parallel backend can never land green.
//!
//! Cargo builds each `src/bin/` target for integration tests of this
//! package and exposes its path as `CARGO_BIN_EXE_<name>`, so this runs
//! the real binaries, not in-process approximations.

use std::process::Command;

/// Milliseconds of CPU-measurement budget handed to the binaries that
/// accept one (`table7`, `table8`, `ablation_ntt`, `repro`); the rest are
/// pure model evaluations and ignore the argument.
const FAST_BUDGET_MS: &str = "25";

/// Backend lane counts every binary is exercised under.
const THREAD_CONFIGS: [&str; 2] = ["1", "4"];

fn run_binary(name: &str, path: &str) {
    for threads in THREAD_CONFIGS {
        let out = Command::new(path)
            .arg(FAST_BUDGET_MS)
            .env("HEAX_THREADS", threads)
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {name} ({path}): {e}"));
        assert!(
            out.status.success(),
            "{name} (HEAX_THREADS={threads}) exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert!(
            !out.stdout.is_empty(),
            "{name} (HEAX_THREADS={threads}) succeeded but printed nothing on stdout"
        );
    }
}

macro_rules! smoke {
    ($($name:ident),+ $(,)?) => {$(
        #[test]
        fn $name() {
            run_binary(
                stringify!($name),
                env!(concat!("CARGO_BIN_EXE_", stringify!($name))),
            );
        }
    )+};
}

smoke!(
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
    figure2,
    figure4,
    figure6,
    ablation_modules,
    ablation_ntt,
    ablation_wordsize,
    extension_scaling,
    noise_growth,
);

/// `repro` drives every sibling binary in sequence; keep it separate so a
/// failure points here rather than at an individual table test.
#[test]
fn repro_runs_all_tables_and_figures() {
    run_binary("repro", env!("CARGO_BIN_EXE_repro"));
}
