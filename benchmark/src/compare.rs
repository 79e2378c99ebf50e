//! `compare <a.json> <b.json>`: one row per workload × end-to-end
//! metric, judged by the bound and direction `BENCHMARK.json` fixes.

use crate::catalogue::Catalogue;
use crate::json::{self, Value};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Improved,
    /// Within either run the metric, taken per epoch, spread wider than
    /// the bound, so a difference within it cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges baseline `a` against candidate `b`. `spread` is the wider of
/// the two runs' own spreads (0 where the metric is a single reading).
pub fn verdict(a: f64, b: f64, higher_is_better: bool, bound: f64, spread: f64) -> Verdict {
    if spread > bound {
        return Verdict::Unresolved;
    }
    if a == 0.0 {
        // No relative change from zero: any move is beyond the bound.
        return match (b == 0.0, (b > 0.0) == higher_is_better) {
            (true, _) => Verdict::Ok,
            (false, true) => Verdict::Improved,
            (false, false) => Verdict::Regressed,
        };
    }
    let worse_by = if higher_is_better { a - b } else { b - a } / a.abs();
    if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// End-to-end metrics `BENCHMARK.json` cannot bound, as `(name,
/// higher is better, bound)`: the tail latency, whose run-to-run spread
/// on a shared host is wider than any bound the contract admits, and the
/// failure ratio, which is 0 and may not rise.
const UNBOUNDED: [(&str, bool, f64); 2] =
    [("latency_p99_ms", false, 0.25), ("fail_ratio", false, 0.0)];

/// Simulated figures: a pure function of the seed, so two runs on one
/// seed must agree exactly, whatever the host did.
fn is_exact(name: &str) -> bool {
    name == "modeled_rps" || name == "model_err_pct" || name.starts_with("hw.sim.")
}

/// `(value, spread)` of a metric in a run of `workload`, untraced runs
/// first.
fn metric(result: &Value, workload: &str, name: &str) -> Option<(f64, f64)> {
    let mut runs: Vec<&Value> = result
        .get("runs")?
        .as_arr()?
        .iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .collect();
    runs.sort_by_key(|r| r.get("trace") == Some(&Value::Bool(true)));
    let m = runs.iter().find_map(|r| r.get("metrics")?.get(name))?;
    Some((
        m.get("value")?.as_f64()?,
        m.get("spread").and_then(Value::as_f64).unwrap_or(0.0),
    ))
}

/// The comparison table and whether every row is `ok` or `improved`:
/// per workload, every end-to-end metric by its bound, the
/// [`UNBOUNDED`] two and, when both files ran one seed, the simulated
/// figures (must be equal).
pub fn table(catalogue: &Catalogue, a: &Value, b: &Value) -> (String, bool) {
    let mut out = format!(
        "{:<18} {:<26} {:>16} {:>16} {:>8} {:>6}  verdict\n",
        "workload", "metric", "a", "b", "delta", "bound"
    );
    let mut clean = true;
    let same_seed = a.get("seed").is_some() && a.get("seed") == b.get("seed");
    let bounded = catalogue
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), m.higher_is_better, m.bound));
    let exact = catalogue
        .per_layer
        .iter()
        .filter(|m| is_exact(&m.0) && same_seed)
        .map(|m| (m.0.as_str(), true, 0.0));
    let rows: Vec<(&str, bool, f64)> = bounded.chain(UNBOUNDED).chain(exact).collect();
    for workload in &catalogue.workloads {
        for &(name, higher_is_better, bound) in &rows {
            let (Some((va, sa)), Some((vb, sb))) =
                (metric(a, workload, name), metric(b, workload, name))
            else {
                continue;
            };
            let v = if is_exact(name) {
                // Any difference, either way, is a changed model.
                if va == vb {
                    Verdict::Ok
                } else {
                    Verdict::Regressed
                }
            } else {
                verdict(va, vb, higher_is_better, bound, sa.max(sb))
            };
            clean &= matches!(v, Verdict::Ok | Verdict::Improved);
            let delta = if va == 0.0 {
                0.0
            } else {
                (vb - va) / va.abs() * 100.0
            };
            out.push_str(&format!(
                "{:<18} {:<26} {:>16.4} {:>16.4} {:>+7.1}% {:>6.2}  {}\n",
                workload,
                name,
                va,
                vb,
                delta,
                bound,
                v.as_str()
            ));
        }
    }
    if !same_seed {
        out.push_str("(the files ran different seeds: simulated figures not compared)\n");
    }
    (out, clean)
}

pub fn load(path: &str) -> Result<Value, String> {
    json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
        .map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_table() {
        use Verdict::*;
        // (a, b, higher_is_better, bound, spread) -> verdict
        let cases = [
            (100.0, 100.0, true, 0.10, 0.0, Ok),
            (100.0, 91.0, true, 0.10, 0.0, Ok),
            (100.0, 89.0, true, 0.10, 0.0, Regressed),
            (100.0, 111.0, true, 0.10, 0.0, Improved),
            (10.0, 10.9, false, 0.10, 0.0, Ok),
            (10.0, 11.1, false, 0.10, 0.0, Regressed),
            (10.0, 8.9, false, 0.10, 0.0, Improved),
            // Noise wider than the bound hides any verdict.
            (100.0, 50.0, true, 0.10, 0.11, Unresolved),
            (100.0, 100.0, true, 0.10, 0.11, Unresolved),
            // A small bound makes an exact metric strict.
            (1000.0, 1000.0, true, 0.001, 0.0, Ok),
            (1000.0, 998.0, true, 0.001, 0.0, Regressed),
            // From a zero baseline (fail_ratio) any rise is a regression.
            (0.0, 0.0, false, 0.0, 0.0, Ok),
            (0.0, 0.001, false, 0.0, 0.0, Regressed),
            (0.001, 0.0, false, 0.0, 0.0, Improved),
        ];
        for (a, b, higher, bound, spread, want) in cases {
            assert_eq!(
                verdict(a, b, higher, bound, spread),
                want,
                "{a} -> {b}, higher={higher}, bound={bound}, spread={spread}"
            );
        }
    }

    fn result(seed: u64, rps: f64, failed: f64, cycles: f64) -> Value {
        json::parse(&format!(
            r#"{{"seed": "{seed}", "runs": [
                {{"workload": "model_fleet_setb", "trace": false, "metrics": {{
                    "throughput_rps": {{"value": {rps}, "unit": "req/s", "spread": 0.01}},
                    "fail_ratio": {{"value": {failed}, "unit": "ratio"}},
                    "setup_s": {{"value": 0.5, "unit": "s"}}}}}},
                {{"workload": "model_fleet_setb", "trace": true, "metrics": {{
                    "hw.sim.cluster_cycles": {{"value": {cycles}, "unit": "cycles"}}}}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn table_has_a_row_per_workload_and_metric_present_in_both() {
        let c = crate::catalogue::catalogue();
        let (text, clean) = table(c, &result(1, 40.0, 0.0, 9.0), &result(1, 41.0, 0.0, 9.0));
        assert!(clean, "{text}");
        // Header, throughput_rps, setup_s, fail_ratio, hw.sim.cluster_cycles.
        assert_eq!(text.lines().count(), 5, "{text}");
        let (text, clean) = table(c, &result(1, 40.0, 0.0, 9.0), &result(1, 20.0, 0.0, 9.0));
        assert!(!clean);
        assert!(text.contains("regressed"), "{text}");
    }

    #[test]
    fn failures_may_not_rise_and_simulated_figures_must_repeat() {
        let c = crate::catalogue::catalogue();
        let base = result(1, 40.0, 0.0, 9.0);
        assert!(!table(c, &base, &result(1, 40.0, 0.001, 9.0)).1);
        // One cycle fewer is still a changed model…
        assert!(!table(c, &base, &result(1, 40.0, 0.0, 8.0)).1);
        // …unless the other file ran another seed.
        let (text, clean) = table(c, &base, &result(2, 40.0, 0.0, 8.0));
        assert!(clean && !text.contains("hw.sim"), "{text}");
    }
}
