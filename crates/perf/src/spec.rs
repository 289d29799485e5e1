//! `BENCHMARK.json`, embedded at build time: the one list of workload
//! and metric names, units, directions and regression bounds that the
//! runner emits against and `compare` judges by.

use serde::{Deserialize, Serialize};

/// One workload and why it exists.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadDecl {
    pub name: String,
    pub why: String,
}

/// A metric a user of the system would see, with its regression bound.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the baseline's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// A metric of a single layer; informative, unbounded.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerLayer {
    pub name: String,
    pub unit: String,
    pub better: String,
}

/// The whole of `BENCHMARK.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Benchmark {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadDecl>,
    pub end_to_end: Vec<EndToEnd>,
    pub per_layer: Vec<PerLayer>,
}

impl Benchmark {
    /// The committed `BENCHMARK.json` of this source tree.
    pub fn embedded() -> Self {
        serde_json::from_str(include_str!("../../../BENCHMARK.json"))
            .expect("BENCHMARK.json matches the schema")
    }

    /// `(name, unit)` of every metric a pass must emit: the per-layer
    /// set for a traced pass, the end-to-end set otherwise.
    pub fn declared(&self, trace: bool) -> Vec<(&str, &str)> {
        if trace {
            self.per_layer
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect()
        } else {
            self.end_to_end
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect()
        }
    }
}
