//! Sample statistics and the process-level readings (`/proc/self`).

use planetp_obs::HistogramSnapshot;
use std::time::Duration;

/// Milliseconds of a duration, with its full resolution.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (`0 <= q <= 1`) of `sorted`, nearest-rank.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Latency samples of one operation type.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median, 0 when empty.
    pub fn p50(&self) -> f64 {
        quantile(&self.sorted(), 0.5)
    }

    /// The `pct`-th percentile, or 0 unless at least ten samples lie
    /// beyond it (p99 needs 1000 samples, p90 needs 100): a tail read
    /// off fewer is one outlier, not a percentile.
    pub fn tail(&self, pct: u32) -> f64 {
        let beyond = self.len() as f64 * f64::from(100 - pct) / 100.0;
        if beyond >= 10.0 {
            quantile(&self.sorted(), f64::from(pct) / 100.0)
        } else {
            0.0
        }
    }
}

/// Median of a handful of values (set-up repetitions, restarts, the
/// runs `compare` reads) as Python's `statistics.median` gives it: the
/// mean of the middle two for an even count. 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q`-quantile of a bucketed histogram, interpolated linearly
/// inside the bucket it falls in; 0 for an empty histogram. The
/// overflow bucket reports its lower bound.
pub fn hist_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let target = q * h.count as f64;
    let mut seen = 0.0;
    for (i, &c) in h.counts.iter().enumerate() {
        let c = c as f64;
        if c > 0.0 && seen + c >= target {
            let lo = if i == 0 { 0.0 } else { h.bounds[i - 1] as f64 };
            let Some(&hi) = h.bounds.get(i) else {
                return lo;
            };
            return lo + (hi as f64 - lo) * ((target - seen) / c);
        }
        seen += c;
    }
    h.bounds.last().map_or(0.0, |&b| b as f64)
}

/// `num / den`, 0 when the denominator is 0 (an idle layer).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn proc_status_field(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no `{field}` in /proc/self/status"))
}

/// CPU time (user + system) the process has used, in milliseconds.
/// `/proc/self/stat` counts in USER_HZ ticks, fixed at 100/s by the
/// Linux ABI.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // The command name may hold spaces; fields are counted after `)`.
    let after = &stat[stat.rfind(')').expect("comm field") + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("tick count");
    // utime and stime are fields 14 and 15; `after` starts at field 3.
    (ticks(11) + ticks(12)) as f64 * 10.0
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn rss_peak_mb() -> f64 {
    proc_status_field("VmHWM:") as f64 / 1024.0
}

/// Live threads of the process.
pub fn thread_count() -> u64 {
    proc_status_field("Threads:")
}

/// Open file descriptors of the process.
pub fn fd_count() -> u64 {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd")
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut s = Samples::default();
        for i in 0..999 {
            s.push(f64::from(i));
        }
        assert_eq!(s.tail(99), 0.0, "999 samples leave 9.99 beyond p99");
        assert!(s.tail(90) > 0.0);
        s.push(999.0);
        assert_eq!(s.tail(99), 989.0);
        assert_eq!(s.p50(), 499.0);
    }

    #[test]
    fn histogram_quantile_interpolates() {
        let h = HistogramSnapshot {
            bounds: vec![10, 20],
            counts: vec![0, 4, 0],
            sum: 60,
            count: 4,
        };
        assert_eq!(hist_quantile(&h, 0.5), 15.0);
        assert_eq!(hist_quantile(&HistogramSnapshot::default(), 0.5), 0.0);
    }

    #[test]
    fn proc_readings_are_sane() {
        assert!(rss_peak_mb() > 0.0);
        assert!(thread_count() >= 1);
        assert!(fd_count() >= 3);
        let _ = cpu_ms();
    }
}
