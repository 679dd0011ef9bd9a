//! What a run reports: named metrics with units, the exact-repeat
//! checks, and the declarations in `BENCHMARK.json` they must match.

use crate::stats::{summarize, Summary};
use serde::{DeError, Deserialize, Serialize, Value};

/// The benchmark's contract, compiled in so that the names a run emits
/// and the bounds `--selfcheck` applies cannot drift from it.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Deserialize)]
pub struct MetricDecl {
    pub name: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// The share of the reference median by which the metric may get
    /// worse.
    pub bound: f64,
}

/// What a run needs of `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct Contract {
    pub run_seconds: u64,
    pub end_to_end: Vec<MetricDecl>,
}

impl Contract {
    pub fn load() -> Result<Contract, String> {
        serde_json::from_str(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))
    }
}

/// One reported metric: the median over its samples, with the extremes
/// and the sample count alongside.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub summary: Summary,
}

impl Metric {
    pub fn of(name: &str, unit: &str, samples: &[f64]) -> Metric {
        Metric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            summary: summarize(samples),
        }
    }

    pub fn single(name: &str, unit: &str, value: f64) -> Metric {
        Metric::of(name, unit, &[value])
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Exact-repeat check: digest of every flow summary, campaign order.
    pub sim_digest: u64,
    /// Exact-repeat check: simulator events of one cold pass.
    pub events: u64,
    pub metrics: Vec<Metric>,
    pub errors: Vec<String>,
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Serializes a ready-made value tree.
struct Tree(Value);

impl Serialize for Tree {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

fn render(v: Value) -> String {
    serde_json::to_string(&Tree(v)).expect("value trees always serialize")
}

impl RunResult {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The one-line result the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj(vec![
                        ("value", Value::Float(m.summary.median)),
                        ("unit", Value::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect();
        render(obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("metrics", Value::Obj(metrics)),
        ]))
    }

    /// The full result, as kept in `out/result-<workload>-trace<n>.json`.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("results always serialize")
    }

    /// The human-readable report of the run.
    pub fn print_table(&self) {
        println!(
            "{:<40} {:>18} {:<6} {:>18} {:>18} {:>4}",
            "metric", "median", "unit", "min", "max", "n"
        );
        for m in &self.metrics {
            let s = &m.summary;
            print!("{:<40} {:>18.6} {:<6}", m.name, s.median, m.unit);
            if s.n > 1 {
                print!(" {:>18.6} {:>18.6} {:>4}", s.min, s.max, s.n);
            }
            println!();
        }
        println!(
            "{:<40} {:>18.6} share  ({} failed of {} flows attempted)",
            "failed_share",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        println!("check sim_digest = {:016x}", self.sim_digest);
        println!("check events     = {}", self.events);
        for e in &self.errors {
            println!("CHECK FAILED: {e}");
        }
    }
}

impl Serialize for RunResult {
    fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                obj(vec![
                    ("name", Value::Str(m.name.clone())),
                    ("unit", Value::Str(m.unit.clone())),
                    ("median", Value::Float(m.summary.median)),
                    ("min", Value::Float(m.summary.min)),
                    ("max", Value::Float(m.summary.max)),
                    ("n", Value::UInt(m.summary.n as u64)),
                ])
            })
            .collect();
        obj(vec![
            ("workload", Value::Str(self.workload.clone())),
            ("seed", Value::UInt(self.seed)),
            ("traced", Value::Bool(self.traced)),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("sim_digest", Value::UInt(self.sim_digest)),
            ("events", Value::UInt(self.events)),
            ("metrics", Value::Arr(metrics)),
            ("errors", self.errors.to_value()),
        ])
    }
}

impl Deserialize for RunResult {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let top = v
            .as_obj()
            .ok_or_else(|| DeError::expected("result object", v))?;
        fn field<T: Deserialize>(o: &[(String, Value)], name: &str) -> Result<T, DeError> {
            let v = serde::get_field(o, name)
                .ok_or_else(|| DeError::custom(format!("missing field `{name}`")))?;
            T::from_value(v)
        }
        let metrics = serde::get_field(top, "metrics")
            .and_then(Value::as_arr)
            .ok_or_else(|| DeError::custom("missing array `metrics`"))?
            .iter()
            .map(|m| {
                let m = m
                    .as_obj()
                    .ok_or_else(|| DeError::expected("metric object", m))?;
                Ok(Metric {
                    name: field(m, "name")?,
                    unit: field(m, "unit")?,
                    summary: Summary {
                        median: field(m, "median")?,
                        min: field(m, "min")?,
                        max: field(m, "max")?,
                        n: field(m, "n")?,
                    },
                })
            })
            .collect::<Result<_, DeError>>()?;
        Ok(RunResult {
            workload: field(top, "workload")?,
            seed: field(top, "seed")?,
            traced: field(top, "traced")?,
            correct: field(top, "correct")?,
            attempted: field(top, "attempted")?,
            failed: field(top, "failed")?,
            sim_digest: field(top, "sim_digest")?,
            events: field(top, "events")?,
            metrics,
            errors: field(top, "errors")?,
        })
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use crate::workload::Workload;

    /// A `name` of `BENCHMARK.json`: starts with a letter or digit, at
    /// most 64 of letters, digits, `_`, `.` and `-`.
    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[derive(Debug, Deserialize)]
    struct Named {
        name: String,
        unit: Option<String>,
    }

    /// `(name, unit)` of every entry of one section of `BENCHMARK.json`.
    pub fn declared(section: &str) -> Vec<(String, String)> {
        #[derive(Debug, Deserialize)]
        struct Sections {
            workloads: Vec<Named>,
            end_to_end: Vec<Named>,
            per_layer: Vec<Named>,
        }
        let all: Sections = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let entries = match section {
            "workloads" => all.workloads,
            "end_to_end" => all.end_to_end,
            "per_layer" => all.per_layer,
            other => panic!("no section `{other}`"),
        };
        entries
            .into_iter()
            .map(|e| (e.name, e.unit.unwrap_or_default()))
            .collect()
    }

    pub fn names_and_units(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.clone()))
            .collect()
    }

    #[test]
    fn declared_workloads_are_the_implemented_ones() {
        let names: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
        let implemented: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, implemented);
    }

    #[test]
    fn every_declared_name_is_well_formed_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for section in ["workloads", "end_to_end", "per_layer"] {
            for (name, unit) in declared(section) {
                assert!(is_name(&name), "{section}: bad name `{name}`");
                assert!(
                    seen.insert(name.clone()),
                    "{section}: `{name}` is used twice"
                );
                assert!(
                    unit.len() <= 16
                        && unit
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                    "{section}: bad unit `{unit}` of `{name}`"
                );
            }
        }
        assert!(!is_name("-x") && !is_name("a b") && !is_name("") && is_name("9.a_b-c"));
    }

    #[test]
    fn contract_loads_with_setup_s_carrying_the_largest_bound() {
        let c = Contract::load().expect("loads");
        assert!((1..=60).contains(&c.run_seconds));
        let setup = c
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s declared");
        assert_eq!(setup.better, "lower");
        for m in &c.end_to_end {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25 && m.bound <= setup.bound,
                "{}",
                m.name
            );
            assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
        }
    }

    fn sample() -> RunResult {
        RunResult {
            workload: "table1-cold".to_owned(),
            seed: 7,
            traced: false,
            correct: true,
            attempted: 765,
            failed: 0,
            sim_digest: u64::MAX - 1,
            events: 19_600_000,
            metrics: vec![
                Metric::of("events_per_s", "1/s", &[5.0e6, 5.5e6, 5.25e6]),
                Metric::single("peak_rss_mb", "MiB", 41.5),
            ],
            errors: vec![],
        }
    }

    #[test]
    fn result_file_round_trips() {
        let r = sample();
        let back: RunResult = serde_json::from_str(&r.to_json()).expect("parses");
        assert_eq!(back, r);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = sample().result_line();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":765,\"failed\":0,\"metrics\":{\
             \"events_per_s\":{\"value\":5250000.0,\"unit\":\"1/s\"},\
             \"peak_rss_mb\":{\"value\":41.5,\"unit\":\"MiB\"}}}"
        );
    }
}
