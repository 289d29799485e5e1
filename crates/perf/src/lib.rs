//! `planetp-perf`: the live-community benchmark behind `BENCHMARK.json`.
//!
//! Four workloads drive real `LiveNode` communities over loopback TCP
//! through the node's public API, check every result against an
//! in-process oracle, and report end-to-end metrics (tracing off) or
//! per-layer metrics (a traced pass that also replays the workload's
//! first operations through each layer's public functions). See
//! `README.md` next to this crate for the tables.

pub mod community;
pub mod compare;
pub mod inputs;
pub mod measure;
pub mod oracle;
pub mod report;
pub mod shadow;
pub mod spec;
pub mod trace;
pub mod workloads;
