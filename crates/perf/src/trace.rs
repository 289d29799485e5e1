//! In-memory span recorder.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each layer's public functions — nothing inside the program is
//! instrumented. They are kept in memory and written to `trace.json`
//! when the pass ends. A layer's number is the median *self* time of
//! its spans: a span's duration minus what its child spans cover.

use crate::measure::quantile;
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span this one ran inside, if any.
    pub parent: Option<u32>,
    /// The generated operation that caused it; spans of one operation
    /// share the id.
    pub op_id: u32,
}

/// Collects spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span inside the innermost open one.
    pub fn enter(&mut self, name: &'static str, op_id: u32) {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(id);
    }

    /// Close the innermost open span; `rename` replaces its name (for
    /// calls whose kind is only known afterwards, such as a plan that
    /// turned out cold).
    pub fn exit(&mut self, rename: Option<&'static str>) {
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without enter");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        if let Some(name) = rename {
            span.name = name;
        }
    }

    /// Time one call as a leaf span.
    pub fn time<R>(&mut self, name: &'static str, op_id: u32, call: impl FnOnce() -> R) -> R {
        self.enter(name, op_id);
        let out = call();
        self.exit(None);
        out
    }

    /// Self time of every span, in nanoseconds, grouped by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            by_name.entry(s.name).or_default().push(own as f64);
        }
        by_name
    }

    /// Median self time (ns) per span name.
    pub fn median_self_ns(&self) -> BTreeMap<&'static str, f64> {
        self.self_times()
            .into_iter()
            .map(|(name, mut own)| {
                own.sort_by(f64::total_cmp);
                (name, quantile(&own, 0.5))
            })
            .collect()
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another thread's spans, keeping parent links intact.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new(Instant::now());
        rec.enter("outer", 1);
        rec.time("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        rec.exit(None);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op_id, 1);
        let medians = rec.median_self_ns();
        let (inner, outer) = (medians["inner"], medians["outer"]);
        assert!(inner >= 5e6);
        assert!(
            outer < inner,
            "outer self time {outer} excludes inner {inner}"
        );
        assert!(!medians.contains_key("absent"));
    }
}
