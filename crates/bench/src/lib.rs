//! # heax-bench
//!
//! The HEAX paper's evaluation (Section 6) as library functions: each
//! table, figure, ablation and extension renders the paper's artifact
//! next to this reproduction's model or measurement into a
//! [`Write`]. [`ARTIFACTS`] lists them by name; the one
//! binary, `repro`, prints any of them (all when none is named):
//!
//! ```text
//! cargo run -p heax-bench --release --bin repro -- table5
//! cargo run -p heax-bench --release --bin repro -- table7 table8 100   # 100 ms CPU budget
//! ```
//!
//! The deterministic artifacts are pinned byte for byte by
//! `crates/bench/golden/<artifact>.txt` (`tests/smoke.rs`); regenerate one
//! with `repro <artifact> > crates/bench/golden/<artifact>.txt`.
//! Performance of the system itself is measured by the standalone
//! `benchmark/` ruler (`BENCHMARK.json`).

#![forbid(unsafe_code)]

use std::io::{self, Write};
use std::time::Instant;

pub mod ablations;
pub mod figures;
pub mod tables;

/// How an artifact renders: from the models alone, or with a CPU
/// measurement that runs for a budget in milliseconds per data point.
#[derive(Clone, Copy, Debug)]
pub enum Artifact {
    /// Deterministic: the same bytes on every run (pinned by a golden).
    Fixed(fn(&mut dyn Write) -> io::Result<()>),
    /// Measured on this host for `budget_ms` per data point.
    Measured(fn(&mut dyn Write, u64) -> io::Result<()>),
}

impl Artifact {
    /// Renders the artifact into `out`; `budget_ms` is ignored by
    /// [`Artifact::Fixed`].
    pub fn render(self, out: &mut dyn Write, budget_ms: u64) -> io::Result<()> {
        match self {
            Artifact::Fixed(f) => f(out),
            Artifact::Measured(f) => f(out, budget_ms),
        }
    }
}

/// Every artifact `repro` prints, in the order it prints them all.
pub const ARTIFACTS: &[(&str, Artifact)] = {
    use Artifact::{Fixed, Measured};
    &[
        ("table1", Fixed(tables::table1)),
        ("table2", Fixed(tables::table2)),
        ("table3", Fixed(tables::table3)),
        ("table4", Fixed(tables::table4)),
        ("table5", Fixed(tables::table5)),
        ("table6", Fixed(tables::table6)),
        ("table7", Measured(tables::table7)),
        ("table8", Measured(tables::table8)),
        ("figure2", Fixed(figures::figure2)),
        ("figure4", Fixed(figures::figure4)),
        ("figure6", Fixed(figures::figure6)),
        ("ablation_wordsize", Fixed(ablations::ablation_wordsize)),
        ("ablation_modules", Fixed(ablations::ablation_modules)),
        ("ablation_ntt", Measured(ablations::ablation_ntt)),
        ("extension_scaling", Fixed(ablations::extension_scaling)),
        ("noise_growth", Fixed(ablations::noise_growth)),
    ]
};

/// CPU budget per measured data point when `repro` is given none.
const DEFAULT_BUDGET_MS: u64 = 200;

/// An artifact selection and the CPU budget per measured data point.
pub type Selection = (Vec<(&'static str, Artifact)>, u64);

/// Parses `repro [artifact…] [budget_ms]`: artifact names in print order,
/// then optionally a positive budget in milliseconds as the last
/// argument. No names selects every artifact.
///
/// # Errors
///
/// Names the first argument that is neither an artifact nor a final
/// budget.
pub fn parse_args(args: &[String]) -> Result<Selection, String> {
    let budget = args
        .last()
        .and_then(|a| a.parse().ok())
        .filter(|&ms| ms > 0);
    let names = &args[..args.len() - usize::from(budget.is_some())];
    let artifacts = names
        .iter()
        .map(|arg| {
            ARTIFACTS
                .iter()
                .find(|(name, _)| name == arg)
                .copied()
                .ok_or_else(|| format!("`{arg}` is neither an artifact nor a final budget in ms"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let all = if artifacts.is_empty() {
        ARTIFACTS.to_vec()
    } else {
        artifacts
    };
    Ok((all, budget.unwrap_or(DEFAULT_BUDGET_MS)))
}

/// `repro`'s usage line and the artifact names it accepts.
pub fn usage() -> String {
    let names: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: repro [artifact...] [budget_ms]\nartifacts: {}",
        names.join(" ")
    )
}

/// Writes an ASCII table under a title line; `headers` separates the
/// column names with `|`, as the rendered header row does.
pub fn write_table(
    out: &mut dyn Write,
    title: &str,
    headers: &str,
    rows: &[Vec<String>],
) -> io::Result<()> {
    let headers: Vec<String> = headers.split('|').map(String::from).collect();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            // A cell past the last header gets a column of its own.
            match widths.get_mut(i) {
                Some(w) => *w = (*w).max(cell.len()),
                None => widths.push(cell.len()),
            }
        }
    }
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(w + 2)).collect();
    let fmt_row = |cells: &[String]| -> String {
        let cells: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!(" {:>w$} ", c, w = widths[i]))
            .collect();
        cells.join("|")
    };
    writeln!(out, "\n== {title} ==")?;
    writeln!(out, "{}\n{}", fmt_row(&headers), sep.join("+"))?;
    rows.iter()
        .try_for_each(|row| writeln!(out, "{}", fmt_row(row)))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders() {
        let render = |headers: &str, rows: &[Vec<String>]| {
            let mut out = Vec::new();
            write_table(&mut out, "Demo", headers, rows).unwrap();
            String::from_utf8(out).unwrap()
        };
        let t = render(
            "a|b",
            &[vec!["1".into(), "2".into()], vec!["30".into(), "4".into()]],
        );
        assert_eq!(t, "\n== Demo ==\n  a | b \n----+---\n  1 | 2 \n 30 | 4 \n");
        // A row wider than the header sizes its extra cell instead of
        // indexing past the header widths.
        assert!(render("a", &[vec!["1".into(), "22".into()]]).contains(" 1 | 22 "));
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_ops(1_500_000.0), "1.50M");
        assert_eq!(fmt_ops(22_536.0), "22.5k");
        assert_eq!(fmt_ops(488.0), "488.0");
        assert_eq!(fmt_speedup(232.3), "232.3x");
        assert_eq!(fmt_delta(110.0, 100.0), "+10.0%");
    }

    fn parse(line: &str) -> Result<(Vec<&'static str>, u64), String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let (artifacts, budget_ms) = parse_args(&argv)?;
        Ok((artifacts.iter().map(|(name, _)| *name).collect(), budget_ms))
    }

    #[test]
    fn repro_args_select_artifacts_and_a_final_budget() {
        let all: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
        assert_eq!(parse("").unwrap(), (all.clone(), DEFAULT_BUDGET_MS));
        assert_eq!(parse("25").unwrap(), (all, 25));
        assert_eq!(
            parse("table8 figure2").unwrap(),
            (vec!["table8", "figure2"], DEFAULT_BUDGET_MS)
        );
        assert_eq!(parse("table8 25").unwrap(), (vec!["table8"], 25));
        // Unknown names, unparsable or zero budgets and a budget that is
        // not last are refused, naming the argument.
        for (line, culprit) in [
            ("table9", "table9"),
            ("table8 abc", "abc"),
            ("table8 0", "0"),
            ("25 table8", "25"),
            ("table8 25 25", "25"),
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.starts_with(&format!("`{culprit}`")), "{line}: {err}");
        }
        assert!(usage().contains("table1 table2"));
    }

    #[test]
    fn measure_runs() {
        let mut x = 0u64;
        assert!(measure_ops_per_sec(|| x += 1, 5) > 0.0);
    }
}
