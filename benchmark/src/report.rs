//! What one run reports, and how it is printed.

use crate::json::Json;
use crate::spec::{END_TO_END, PER_LAYER};

/// Named measurements of one run.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Record `name = value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// Record several.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// Look one up.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured section.
    pub attempted: u64,
    /// Of those, operations without the expected typed success (errors,
    /// sheds, I/O failures and degraded answers all count).
    pub failed: u64,
    /// Correctness violations; empty means `correct`.
    pub violations: Vec<String>,
    /// The metrics the contract lists for this `--trace` mode.
    pub metrics: Metrics,
    /// Free-form lines printed above the result (sample counts, the
    /// percentile used, counters).
    pub notes: Vec<String>,
}

impl Report {
    /// True when no correctness check failed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The single result line the contract asks for: exactly the keys
    /// `correct`, `attempted`, `failed`, `metrics`, with exactly the
    /// end-to-end metrics (`trace == false`) or the per-layer metrics
    /// (`trace == true`), in `BENCHMARK.json` order.
    ///
    /// Panics if a listed metric was never measured or is not finite:
    /// a hole in the contract is a bug in the benchmark, not a result.
    pub fn result_line(&self, trace: bool) -> String {
        let listed: Vec<(&str, &str)> = if trace {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let metrics = listed.into_iter().map(|(name, unit)| {
            let value = self
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
            assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
            (
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .encode()
    }

    /// Print notes, violations and a name/value/unit table, then the
    /// result line (last, as the contract requires).
    pub fn print(&self, trace: bool) {
        for note in &self.notes {
            println!("# {note}");
        }
        for v in &self.violations {
            println!("# VIOLATION: {v}");
        }
        let units: Vec<(&str, &str)> = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .collect();
        for (name, unit) in units {
            if let Some(v) = self.metrics.get(name) {
                println!("{name:<36} {v:>18.6} {unit}");
            }
        }
        println!("{}", self.result_line(trace));
    }
}
