//! Process and host accounting read from `/proc`, plus the environment
//! record every result file carries.

use std::fs;
use std::process::Command;

use crate::json::Value;

/// Kernel clock ticks per second of `utime`/`stime` in `/proc/*/stat`
/// (`USER_HZ`, 100 on every Linux ABI).
const TICKS_PER_SEC: f64 = 100.0;

/// `(user, sys)` CPU seconds from a `/proc/.../stat` file.
fn cpu_from_stat(path: &str) -> (f64, f64) {
    let text = fs::read_to_string(path).unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let (user, sys) = (tick(), tick());
    (user / TICKS_PER_SEC, sys / TICKS_PER_SEC)
}

/// Reads one thread's CPU time; any thread of the process may hold it,
/// so the generator can watch the server thread without asking it.
#[derive(Clone, Debug)]
pub struct ThreadClock {
    /// `/proc/self/task/<tid>` of the thread.
    task: String,
}

impl ThreadClock {
    /// The clock of the calling thread.
    pub fn current() -> Self {
        // `/proc/thread-self` links to `<pid>/task/<tid>`.
        let tid = fs::read_link("/proc/thread-self")
            .ok()
            .and_then(|l| Some(l.file_name()?.to_str()?.to_string()));
        ThreadClock {
            task: tid.map_or_else(
                || "/proc/thread-self".to_string(),
                |tid| format!("/proc/self/task/{tid}"),
            ),
        }
    }

    /// CPU seconds (user + sys) the thread has run for: the scheduler's
    /// nanosecond count, or the 10 ms ticks of `stat` on a kernel
    /// without schedstats.
    pub fn cpu_s(&self) -> f64 {
        fs::read_to_string(format!("{}/schedstat", self.task))
            .ok()
            .and_then(|t| t.split_whitespace().next()?.parse::<f64>().ok())
            .map_or_else(
                || {
                    let (u, s) = cpu_from_stat(&format!("{}/stat", self.task));
                    u + s
                },
                |ns| ns / 1e9,
            )
    }
}

/// `(user, sys)` CPU seconds of the whole process.
pub fn process_cpu_s() -> (f64, f64) {
    cpu_from_stat("/proc/self/stat")
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn load_avg_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0.0)
}

fn first_line(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The repo's commit, or `unknown` when the repo root is not a git
/// checkout (git is not asked then, so it cannot wander up into some
/// enclosing repository).
fn git_commit() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    if !std::path::Path::new(root).join(".git").exists() {
        return "unknown".to_string();
    }
    first_line(Command::new("git").args(["-C", root, "rev-parse", "HEAD"]))
}

/// Load above which a run is flagged `noisy`.
const NOISY_LOAD: f64 = 0.5;

/// The host facts a result is only comparable under.
pub fn environment() -> Value {
    let cpu_model = fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string());
    let load = load_avg_1m();
    Value::obj([
        (
            "nproc",
            Value::from(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("cpu_model", Value::from(cpu_model)),
        (
            "rustc",
            Value::from(first_line(Command::new("rustc").arg("-V"))),
        ),
        ("git_commit", Value::from(git_commit())),
        ("load_avg_1m", Value::from(load)),
        ("noisy", Value::from(load > NOISY_LOAD)),
    ])
}
