//! The repo benchmark: four workloads, the end-to-end metrics with
//! their regression bounds, a per-layer ledger and an outside-in trace.
//! See `README.md` beside this crate's manifest for the catalogue.
//!
//! ```text
//! heax-benchmark run --workload <name|all> [--seed N] [--seconds S]
//!                    [--trace 0|1] [--quick] [--out FILE]
//! heax-benchmark compare <a.json> <b.json>
//! ```

mod catalogue;
mod circuit;
mod compare;
mod fleet;
mod gen;
mod harness;
mod json;
mod model;
mod probes;
mod proc;
mod replay;
mod serve;
mod stats;
mod trace;
mod traffic;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use catalogue::catalogue;
use harness::{Opts, Outcome};
use json::Value;

const USAGE: &str = "usage:
  heax-benchmark run --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
  heax-benchmark compare <a.json> <b.json>
workloads: circuit_setb serve_mix_seta serve_add_seta model_fleet_setb";

/// Files the benchmark writes (traces) live beside its manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

struct RunArgs {
    workloads: Vec<&'static str>,
    opts: Opts,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = None;
    let mut trace = false;
    let mut quick = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => quick = true,
            "--out" => out = Some(value("--out")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads: Vec<&'static str> = catalogue()
        .workloads
        .iter()
        .map(String::as_str)
        .filter(|w| workload == "all" || workload == *w)
        .collect();
    if workloads.is_empty() {
        return Err(format!("unknown workload {workload:?}"));
    }
    // `--quick` is every workload at 1/20 scale with a single set-up.
    let seconds = seconds.unwrap_or(catalogue().run_seconds) / if quick { 20.0 } else { 1.0 };
    Ok(RunArgs {
        workloads,
        opts: Opts {
            seed,
            seconds,
            trace,
            quick,
        },
        out,
    })
}

/// Runs one workload: untraced for the end-to-end metrics, or traced
/// for the per-layer ledger of the layers it exercises.
fn run_workload(name: &str, opts: &Opts) -> std::io::Result<Outcome> {
    let origin = Instant::now();
    let (cpu_user0, cpu_sys0) = proc::process_cpu_s();
    let mut out = match name {
        "circuit_setb" => circuit::run(opts, origin),
        "serve_mix_seta" => serve::run(serve::Kind::Mix, opts, origin)?,
        "serve_add_seta" => serve::run(serve::Kind::Add, opts, origin)?,
        "model_fleet_setb" => fleet::run(opts, origin),
        other => unreachable!("{other} is not in BENCHMARK.json"),
    };
    let attempted = out.attempted().max(1) as f64;
    out.metrics
        .set("fail_ratio", out.failed() as f64 / attempted);
    if opts.trace {
        let (user, sys) = proc::process_cpu_s();
        let (user, sys) = (user - cpu_user0, sys - cpu_sys0);
        out.metrics.set("proc.cpu_user_s", user);
        out.metrics.set("proc.cpu_sys_s", sys);
        if user + sys > 0.0 {
            out.metrics.set("proc.sys_share", sys / (user + sys));
        }
        std::fs::create_dir_all(out_dir())?;
        std::fs::write(
            out_dir().join(format!("trace-{name}.json")),
            trace::to_json(name, opts.seed, &out.spans).to_string(),
        )?;
    } else {
        out.metrics.set("peak_rss_mb", proc::peak_rss_mib());
    }
    Ok(out)
}

/// `{name: {value, unit}}` — the metrics member of the contract line;
/// with `out`, each metric's spread too.
fn metrics_json(rows: &[(&str, &str, f64)], out: Option<&Outcome>) -> Value {
    Value::obj(rows.iter().map(|&(name, unit, value)| {
        let mut members = vec![("value", Value::from(value)), ("unit", Value::from(unit))];
        if let Some(spread) = out.and_then(|o| o.spreads.get(name)) {
            members.push(("spread", Value::from(*spread)));
        }
        (name, Value::obj(members))
    }))
}

fn print_report(name: &str, opts: &Opts, out: &Outcome) {
    println!(
        "== {name}  seed={} seconds={} trace={} ==",
        opts.seed, opts.seconds, opts.trace as u8
    );
    for p in &out.phases {
        println!(
            "phase {:<14} sent={} succeeded={} failed={}",
            p.name, p.sent, p.succeeded, p.failed
        );
    }
    for note in &out.notes {
        println!("note  {note}");
    }
    for (metric, unit, value) in out.metrics.measured() {
        println!("{metric:<40} {value:>18.6} {unit}");
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let RunArgs {
        workloads,
        opts,
        out: out_path,
    } = parse_run(args)?;
    let env = proc::environment();
    println!("env {env}");
    let mut runs = Vec::new();
    let mut all_correct = true;
    let mut lines = Vec::new();
    for name in workloads {
        let out = run_workload(name, &opts).map_err(|e| format!("{name}: {e}"))?;
        print_report(name, &opts, &out);
        let correct = out.failed() == 0;
        all_correct &= correct;
        lines.push(Value::obj([
            ("correct", Value::from(correct)),
            ("attempted", Value::from(out.attempted().max(1) as f64)),
            ("failed", Value::from(out.failed() as f64)),
            ("metrics", metrics_json(&out.metrics.owed(opts.trace), None)),
        ]));
        runs.push(Value::obj([
            ("workload", Value::from(name)),
            ("trace", Value::from(opts.trace)),
            ("correct", Value::from(correct)),
            ("attempted", Value::from(out.attempted() as f64)),
            ("failed", Value::from(out.failed() as f64)),
            (
                "phases",
                Value::Arr(out.phases.iter().map(harness::Phase::to_json).collect()),
            ),
            ("metrics", metrics_json(&out.metrics.measured(), Some(&out))),
            (
                "epochs",
                Value::obj(out.epochs.iter().map(|(name, series)| {
                    (
                        *name,
                        Value::Arr(series.iter().map(|&v| Value::from(v)).collect()),
                    )
                })),
            ),
        ]));
    }
    if let Some(path) = out_path {
        let doc = Value::obj([
            ("schema", Value::from("heax-benchmark/1")),
            ("seed", Value::from(opts.seed.to_string())),
            ("seconds", Value::from(opts.seconds)),
            ("quick", Value::from(opts.quick)),
            ("env", env),
            ("runs", Value::Arr(runs)),
        ]);
        std::fs::write(&path, doc.to_string()).map_err(|e| format!("{path}: {e}"))?;
    }
    // The contract line of each workload, the last workload's last.
    for line in lines {
        println!("{line}");
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two result files".into());
    };
    let (table, clean) = compare::table(catalogue(), &compare::load(a)?, &compare::load(b)?);
    print!("{table}");
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare(rest),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("heax-benchmark: {e}");
        ExitCode::from(2)
    })
}
