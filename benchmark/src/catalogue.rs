//! The normative names. `BENCHMARK.json` at the repo root is the one
//! table — workloads, end-to-end metrics with unit, direction and
//! regression bound, per-layer metrics with unit — and is compiled in,
//! so the binary, `compare` and the driver all read the same text.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug)]
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

#[derive(Debug)]
pub struct Catalogue {
    /// Measured seconds of one run when `--seconds` is not given.
    pub run_seconds: f64,
    /// Workload names, in run order.
    pub workloads: Vec<String>,
    pub end_to_end: Vec<EndToEnd>,
    /// `(name, unit)` of every per-layer metric.
    pub per_layer: Vec<(String, String)>,
}

impl Catalogue {
    pub fn parse(text: &str) -> Result<Catalogue, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_arr)
                .ok_or(format!("no {key} list"))
        };
        let text_of = |entry: &Value, key: &str| {
            entry
                .get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("an entry lacks {key}"))
        };
        Ok(Catalogue {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("no run_seconds")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: list("end_to_end")?
                .iter()
                .map(|m| {
                    Ok(EndToEnd {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: text_of(m, "better")? == "higher",
                        bound: m
                            .get("bound")
                            .and_then(Value::as_f64)
                            .ok_or("an end_to_end entry lacks bound")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            per_layer: list("per_layer")?
                .iter()
                .map(|m| Ok((text_of(m, "name")?, text_of(m, "unit")?)))
                .collect::<Result<_, String>>()?,
        })
    }

    /// `(name, unit)` of the metrics one kind of run owes the contract
    /// line: the end-to-end ones untraced, the per-layer ones traced.
    fn owed(&self, trace: bool) -> Vec<(&str, &str)> {
        if trace {
            self.per_layer
                .iter()
                .map(|(n, u)| (n.as_str(), u.as_str()))
                .collect()
        } else {
            self.end_to_end
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect()
        }
    }
}

/// The compiled-in `BENCHMARK.json`.
pub fn catalogue() -> &'static Catalogue {
    static CATALOGUE: OnceLock<Catalogue> = OnceLock::new();
    CATALOGUE
        .get_or_init(|| Catalogue::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed"))
}

/// Metric values of one run, keyed by catalogue name.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records one metric.
    ///
    /// # Panics
    ///
    /// If `name` is not in the catalogue: a misspelt metric would
    /// otherwise silently never be reported.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let c = catalogue();
        assert!(
            c.owed(false)
                .iter()
                .chain(&c.owed(true))
                .any(|m| m.0 == name),
            "metric {name:?} is not in BENCHMARK.json"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `(name, unit, value)` of every metric the contract line of this
    /// kind of run carries, catalogue order. A metric the workload does
    /// not exercise reads 0.
    pub fn owed(&self, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
        catalogue()
            .owed(trace)
            .into_iter()
            .map(|(name, unit)| (name, unit, self.get(name).unwrap_or(0.0)))
            .collect()
    }

    /// `(name, unit, value)` of every metric this run measured,
    /// catalogue order.
    pub fn measured(&self) -> Vec<(&'static str, &'static str, f64)> {
        let c = catalogue();
        c.owed(false)
            .into_iter()
            .chain(c.owed(true))
            .filter_map(|(name, unit)| Some((name, unit, self.get(name)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let c = catalogue();
        let mut all: Vec<&str> = c.owed(false).iter().map(|m| m.0).collect();
        all.extend(c.owed(true).iter().map(|m| m.0));
        all.extend(c.workloads.iter().map(String::as_str));
        let mut seen = std::collections::BTreeSet::new();
        for name in all {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(c.end_to_end.iter().all(|m| m.bound <= 0.25));
        assert!(c.end_to_end.iter().any(|m| m.name == "setup_s"));
    }

    #[test]
    fn a_run_owes_every_metric_of_its_kind_and_reports_what_it_measured() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5);
        m.set("modeled_rps", 7.0);
        let owed = m.owed(false);
        assert_eq!(owed.len(), catalogue().end_to_end.len());
        assert!(owed.contains(&("setup_s", "s", 0.5)));
        assert!(owed.iter().all(|r| r.0 == "setup_s" || r.2 == 0.0));
        assert_eq!(m.measured().len(), 2);
    }
}
