//! `repro [artifact...] [budget_ms]`: prints the named paper artifacts,
//! every one when none is named. `budget_ms` is the CPU measurement budget
//! per data point of the measured ones (`table7`, `table8`,
//! `ablation_ntt`). A single artifact prints exactly its text, so
//! `repro table5 > crates/bench/golden/table5.txt` regenerates a golden.
//!
//! ```text
//! cargo run -p heax-bench --release --bin repro -- table8 100
//! ```

use heax_bench::Artifact;
use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (artifacts, budget_ms) = match heax_bench::parse_args(&args) {
        Ok(selection) => selection,
        Err(e) => {
            eprintln!("repro: {e}\n{}", heax_bench::usage());
            return ExitCode::from(2);
        }
    };
    match print(&artifacts, budget_ms) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints each artifact, under a banner when there is more than one.
fn print(artifacts: &[(&str, Artifact)], budget_ms: u64) -> io::Result<()> {
    let mut out = io::stdout().lock();
    for (name, artifact) in artifacts {
        if artifacts.len() > 1 {
            writeln!(out, "\n################ {name} ################")?;
        }
        artifact.render(&mut out, budget_ms)?;
    }
    out.flush()
}
