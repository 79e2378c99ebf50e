//! Convenience runner: regenerates every table and figure in sequence by
//! invoking the sibling binaries. `cargo run -p heax-bench --release --bin
//! repro [cpu_budget_ms]`.

use std::process::Command;

fn main() {
    let budget = std::env::args().nth(1).unwrap_or_else(|| "200".into());
    let bins = [
        "table1",
        "table2",
        "table3",
        "table4",
        "table5",
        "table6",
        "table7",
        "table8",
        "figure2",
        "figure4",
        "figure6",
        "ablation_wordsize",
        "ablation_modules",
        "ablation_ntt",
    ];
    let me = std::env::current_exe().expect("own path");
    let dir = me.parent().expect("bin dir");
    for bin in bins {
        println!("\n################ {bin} ################");
        let status = Command::new(dir.join(bin))
            .arg(&budget)
            .status()
            .unwrap_or_else(|e| panic!("failed to run {bin}: {e}"));
        assert!(status.success(), "{bin} failed");
    }
    println!("\nAll tables and figures regenerated.");
}
