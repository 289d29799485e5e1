//! Serializable point-in-time views of a [`crate::Registry`].
//!
//! A [`MetricsSnapshot`] is the exchange format of the observability
//! layer: the `planetp stats` CLI prints one, the `GetStats` wire RPC
//! ships one, integration tests diff two of them. The schema is
//! deliberately simple JSON — a map from dotted metric name to a tagged
//! value — so it survives version skew and is trivially greppable.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

/// Frozen state of one histogram: `counts[i]` is the number of samples
/// `<= bounds[i]`, with `counts[bounds.len()]` the overflow bucket.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub bounds: Vec<u64>,
    pub counts: Vec<u64>,
    pub sum: u64,
    pub count: u64,
}

impl HistogramSnapshot {
    /// Mean of all recorded samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn diff(&self, earlier: &Self) -> Self {
        if self.bounds != earlier.bounds || self.counts.len() != earlier.counts.len() {
            return self.clone();
        }
        Self {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .zip(&earlier.counts)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            sum: self.sum.saturating_sub(earlier.sum),
            count: self.count.saturating_sub(earlier.count),
        }
    }

    fn merge(&self, other: &Self) -> Self {
        if self.bounds != other.bounds || self.counts.len() != other.counts.len() {
            return self.clone();
        }
        Self {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .zip(&other.counts)
                .map(|(a, b)| a + b)
                .collect(),
            sum: self.sum + other.sum,
            count: self.count + other.count,
        }
    }
}

/// One metric's frozen value, tagged with its kind.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum MetricValue {
    Counter { value: u64 },
    Gauge { value: i64 },
    Histogram { hist: HistogramSnapshot },
}

/// A point-in-time view of every metric in a registry.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub metrics: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Counter value, or 0 when absent or not a counter.
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(MetricValue::Counter { value }) => *value,
            _ => 0,
        }
    }

    /// Gauge value, or 0 when absent or not a gauge.
    pub fn gauge(&self, name: &str) -> i64 {
        match self.metrics.get(name) {
            Some(MetricValue::Gauge { value }) => *value,
            _ => 0,
        }
    }

    /// Histogram snapshot, or `None` when absent or not a histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.metrics.get(name) {
            Some(MetricValue::Histogram { hist }) => Some(hist),
            _ => None,
        }
    }

    /// Sum of every counter whose name starts with `prefix` — the
    /// natural way to total a [`crate::CounterFamily`] (use a prefix
    /// ending in `.`).
    pub fn sum_counters(&self, prefix: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, v)| match v {
                MetricValue::Counter { value } => *value,
                _ => 0,
            })
            .sum()
    }

    /// What happened between `earlier` and `self`: counters and
    /// histograms subtract (saturating, so restarts don't underflow);
    /// gauges keep their current value. Metrics present only in
    /// `earlier` are dropped; metrics new in `self` pass through.
    pub fn diff(&self, earlier: &Self) -> Self {
        let mut out = Self::default();
        for (name, value) in &self.metrics {
            let diffed = match (value, earlier.metrics.get(name)) {
                (
                    MetricValue::Counter { value: now },
                    Some(MetricValue::Counter { value: was }),
                ) => MetricValue::Counter {
                    value: now.saturating_sub(*was),
                },
                (
                    MetricValue::Histogram { hist: now },
                    Some(MetricValue::Histogram { hist: was }),
                ) => MetricValue::Histogram {
                    hist: now.diff(was),
                },
                _ => value.clone(),
            };
            out.metrics.insert(name.clone(), diffed);
        }
        out
    }

    /// Pointwise sum with `other` — used to aggregate per-node
    /// snapshots into one community-wide view. Counters and histograms
    /// add; gauges add (a merged gauge is a total, e.g. total directory
    /// entries across peers).
    pub fn merge(&self, other: &Self) -> Self {
        let mut out = self.clone();
        for (name, value) in &other.metrics {
            let merged = match (out.metrics.get(name), value) {
                (Some(MetricValue::Counter { value: a }), MetricValue::Counter { value: b }) => {
                    MetricValue::Counter { value: a + b }
                }
                (Some(MetricValue::Gauge { value: a }), MetricValue::Gauge { value: b }) => {
                    MetricValue::Gauge { value: a + b }
                }
                (Some(MetricValue::Histogram { hist: a }), MetricValue::Histogram { hist: b }) => {
                    MetricValue::Histogram { hist: a.merge(b) }
                }
                _ => value.clone(),
            };
            out.metrics.insert(name.clone(), merged);
        }
        out
    }

    /// Serialize to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }

    /// Parse a snapshot from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Compact single-metric-per-line rendering for humans.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            match value {
                MetricValue::Counter { value } => {
                    let _ = writeln!(out, "{name:<40} {value}");
                }
                MetricValue::Gauge { value } => {
                    let _ = writeln!(out, "{name:<40} {value} (gauge)");
                }
                MetricValue::Histogram { hist } => {
                    let _ = writeln!(
                        out,
                        "{name:<40} count={} sum={} mean={:.1}",
                        hist.count,
                        hist.sum,
                        hist.mean()
                    );
                }
            }
        }
        // Derived summary: how much probing the Bloofi tree saved, if
        // the node ran one.
        let lookups = self.counter(crate::names::BLOOMTREE_LOOKUPS);
        if lookups > 0 {
            let saved = self.counter(crate::names::BLOOMTREE_PROBES_SAVED);
            let kept = self.counter(crate::names::BLOOMTREE_CANDIDATES);
            let total = saved + kept;
            let pct = if total > 0 {
                100.0 * saved as f64 / total as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "bloom tree: pruned {pct:.1}% of per-peer filter probes \
                 ({lookups} lookups, height {})",
                self.gauge(crate::names::BLOOMTREE_HEIGHT)
            );
        }
        // Derived summary: what delta gossip saved versus shipping full
        // filters, if any bloom updates went out as diffs.
        let delta_sent = self.counter(crate::names::GOSSIP_DELTA_SENT);
        let full_fallbacks = self.counter(crate::names::GOSSIP_DELTA_FULL_FALLBACKS);
        if delta_sent + full_fallbacks > 0 {
            let saved = self.counter(crate::names::GOSSIP_DELTA_BYTES_SAVED);
            let _ = writeln!(
                out,
                "delta gossip: {delta_sent} delta rumors saved {:.1} KB \
                 ({} applied, {} chain breaks, {full_fallbacks} full fallbacks)",
                saved as f64 / 1024.0,
                self.counter(crate::names::GOSSIP_DELTA_APPLIED),
                self.counter(crate::names::GOSSIP_DELTA_CHAIN_BREAKS)
            );
        }
        // Derived summary: how often the connection pool avoided a TCP
        // connect, if the node ran one.
        let opened = self.counter(crate::names::CONN_OPENED);
        let reused = self.counter(crate::names::CONN_REUSED);
        if opened + reused > 0 {
            let pct = 100.0 * reused as f64 / (opened + reused) as f64;
            let _ = writeln!(
                out,
                "conn pool: reused {pct:.1}% of contacts ({opened} opened, \
                 {} stale reconnects)",
                self.counter(crate::names::CONN_STALE_RECONNECTS)
            );
        }
        // Derived summary: overload protection, if the admission gate
        // handled any traffic or Busy replies moved either way.
        let admitted = self.counter(crate::names::ADMISSION_ADMITTED);
        let shed = self.counter(crate::names::ADMISSION_SHED);
        let expired = self.counter(crate::names::ADMISSION_EXPIRED);
        if admitted + shed + expired > 0 {
            let total = admitted + shed + expired;
            let shed_pct = 100.0 * shed as f64 / total as f64;
            let wait = self
                .histogram(crate::names::ADMISSION_QUEUE_WAIT_MS)
                .map(HistogramSnapshot::mean)
                .unwrap_or(0.0);
            let _ = writeln!(
                out,
                "admission: shed {shed_pct:.1}% of {total} requests \
                 ({admitted} admitted, {expired} expired, mean queue wait \
                 {wait:.1} ms)"
            );
        }
        let busy_sent = self.counter(crate::names::BUSY_SENT);
        let busy_received = self.counter(crate::names::BUSY_RECEIVED);
        let throttled = self.counter(crate::names::BUSY_THROTTLED_PEERS);
        if busy_sent + busy_received + throttled > 0 {
            let _ = writeln!(
                out,
                "busy: sent {busy_sent}, received {busy_received}, \
                 {throttled} contacts skipped by the busy throttle"
            );
        }
        // Derived summary: replication activity, if the node pushed,
        // hosted, or recovered anything through replicas.
        let pushes = self.counter(crate::names::REPLICA_PUSHES);
        let accepts = self.counter(crate::names::REPLICA_ACCEPTS);
        let recovered = self.counter(crate::names::REPLICA_RECOVERED_HITS);
        if pushes + accepts + recovered > 0 {
            let _ = writeln!(
                out,
                "replication: hosting {} replicas ({:.1} KB; {accepts} \
                 accepted / {pushes} pushed, {} evicted, {recovered} hits \
                 recovered via replicas)",
                self.gauge(crate::names::REPLICA_HOSTED),
                self.counter(crate::names::REPLICA_BYTES) as f64 / 1024.0,
                self.counter(crate::names::REPLICA_EVICTIONS)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> Registry {
        let reg = Registry::new();
        reg.counter("a").add(10);
        reg.gauge("g").set(-2);
        reg.histogram("h", &[5, 50]).observe(3);
        reg
    }

    #[test]
    fn json_round_trip() {
        let snap = sample().snapshot();
        let json = snap.to_json();
        let back = MetricsSnapshot::from_json(&json).expect("parses");
        assert_eq!(snap, back);
    }

    #[test]
    fn diff_subtracts_counters_keeps_gauges() {
        let reg = sample();
        let before = reg.snapshot();
        reg.counter("a").add(5);
        reg.gauge("g").set(7);
        reg.histogram("h", &[5, 50]).observe(40);
        let after = reg.snapshot();
        let d = after.diff(&before);
        assert_eq!(d.counter("a"), 5);
        assert_eq!(d.gauge("g"), 7);
        let h = d.histogram("h").expect("present");
        assert_eq!(h.count, 1);
        assert_eq!(h.counts, vec![0, 1, 0]);
    }

    #[test]
    fn merge_sums_everything() {
        let a = sample().snapshot();
        let b = sample().snapshot();
        let m = a.merge(&b);
        assert_eq!(m.counter("a"), 20);
        assert_eq!(m.gauge("g"), -4);
        assert_eq!(m.histogram("h").expect("present").count, 2);
    }

    #[test]
    fn diff_is_saturating_after_restart() {
        let big = sample().snapshot();
        let reg = Registry::new();
        reg.counter("a").add(1); // fresh process, counter restarted
        let small = reg.snapshot();
        assert_eq!(small.diff(&big).counter("a"), 0);
    }

    #[test]
    fn human_rendering_names_every_metric() {
        let text = sample().snapshot().render_human();
        assert!(text.contains("a"));
        assert!(text.contains("(gauge)"));
        assert!(text.contains("count=1"));
        assert!(
            !text.contains("bloom tree:"),
            "no tree summary without tree lookups"
        );
        assert!(
            !text.contains("conn pool:"),
            "no pool summary without pooled contacts"
        );
        assert!(
            !text.contains("delta gossip:"),
            "no delta summary without delta activity"
        );
    }

    #[test]
    fn render_human_summarizes_delta_savings() {
        let reg = Registry::new();
        reg.counter(crate::names::GOSSIP_DELTA_SENT).add(40);
        reg.counter(crate::names::GOSSIP_DELTA_APPLIED).add(38);
        reg.counter(crate::names::GOSSIP_DELTA_CHAIN_BREAKS).add(2);
        reg.counter(crate::names::GOSSIP_DELTA_FULL_FALLBACKS)
            .add(3);
        reg.counter(crate::names::GOSSIP_DELTA_BYTES_SAVED)
            .add(10 * 1024);
        let text = reg.snapshot().render_human();
        assert!(
            text.contains("delta gossip: 40 delta rumors saved 10.0 KB"),
            "{text}"
        );
        assert!(
            text.contains("38 applied, 2 chain breaks, 3 full fallbacks"),
            "{text}"
        );
    }

    #[test]
    fn render_human_summarizes_conn_reuse() {
        let reg = Registry::new();
        reg.counter(crate::names::CONN_OPENED).add(5);
        reg.counter(crate::names::CONN_REUSED).add(15);
        reg.counter(crate::names::CONN_STALE_RECONNECTS).add(2);
        let text = reg.snapshot().render_human();
        assert!(text.contains("conn pool: reused 75.0%"), "{text}");
        assert!(text.contains("5 opened, 2 stale reconnects)"), "{text}");
    }

    #[test]
    fn render_human_summarizes_replication() {
        let reg = Registry::new();
        reg.counter(crate::names::REPLICA_PUSHES).add(9);
        reg.counter(crate::names::REPLICA_ACCEPTS).add(7);
        reg.counter(crate::names::REPLICA_EVICTIONS).add(2);
        reg.counter(crate::names::REPLICA_BYTES).add(2048);
        reg.counter(crate::names::REPLICA_RECOVERED_HITS).add(4);
        reg.gauge(crate::names::REPLICA_HOSTED).set(5);
        let text = reg.snapshot().render_human();
        assert!(text.contains("replication: hosting 5 replicas"), "{text}");
        assert!(text.contains("7 accepted / 9 pushed"), "{text}");
        assert!(text.contains("4 hits recovered via replicas"), "{text}");
        // Quiet nodes stay quiet.
        let quiet = Registry::new().snapshot().render_human();
        assert!(!quiet.contains("replication:"), "{quiet}");
    }

    #[test]
    fn render_human_summarizes_admission_shedding() {
        let reg = Registry::new();
        reg.counter(crate::names::ADMISSION_ADMITTED).add(75);
        reg.counter(crate::names::ADMISSION_SHED).add(20);
        reg.counter(crate::names::ADMISSION_EXPIRED).add(5);
        reg.histogram(crate::names::ADMISSION_QUEUE_WAIT_MS, &[5, 50])
            .observe(4);
        reg.counter(crate::names::BUSY_SENT).add(20);
        reg.counter(crate::names::BUSY_RECEIVED).add(3);
        reg.counter(crate::names::BUSY_THROTTLED_PEERS).add(2);
        let text = reg.snapshot().render_human();
        assert!(
            text.contains("admission: shed 20.0% of 100 requests"),
            "{text}"
        );
        assert!(text.contains("75 admitted, 5 expired"), "{text}");
        assert!(
            text.contains("busy: sent 20, received 3, 2 contacts skipped"),
            "{text}"
        );
        // Quiet nodes stay quiet.
        let quiet = Registry::new().snapshot().render_human();
        assert!(!quiet.contains("admission:"), "{quiet}");
        assert!(!quiet.contains("busy:"), "{quiet}");
    }

    #[test]
    fn render_human_summarizes_tree_pruning() {
        let reg = Registry::new();
        reg.counter(crate::names::BLOOMTREE_LOOKUPS).add(4);
        reg.counter(crate::names::BLOOMTREE_PROBES_SAVED).add(75);
        reg.counter(crate::names::BLOOMTREE_CANDIDATES).add(25);
        reg.gauge(crate::names::BLOOMTREE_HEIGHT).set(3);
        let text = reg.snapshot().render_human();
        assert!(text.contains("bloom tree: pruned 75.0%"), "{text}");
        assert!(text.contains("4 lookups, height 3"), "{text}");
    }
}
