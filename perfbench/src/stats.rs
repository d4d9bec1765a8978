//! Sample summaries: quantiles of raw samples and of engine histograms.

use tgs_engine::{LatencyHistogram, HIST_BUCKETS};

/// A set of timing samples in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.values.push(ms);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        self.sum() / self.values.len().max(1) as f64
    }

    /// The `q` quantile, interpolated linearly between order statistics.
    /// 0 for an empty set.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.values, q)
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// The `q` quantile of `values`, interpolated linearly between order
/// statistics. 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The nanosecond range `[lo, hi)` that histogram bucket `i` covers.
fn bucket_range(i: usize) -> (f64, f64) {
    let lo = match i {
        0 => 0.0,
        _ => LatencyHistogram::bucket_ceiling(i - 1) as f64 + 1.0,
    };
    (lo, LatencyHistogram::bucket_ceiling(i) as f64 + 1.0)
}

/// The `q` quantile of an engine latency histogram in milliseconds,
/// interpolated linearly inside the bucket that holds it (the histogram's
/// own accessors report bucket ceilings, which move in 12.5 % steps).
pub fn hist_quantile_ms(h: &LatencyHistogram, q: f64) -> f64 {
    let total = h.count();
    if total == 0 {
        return 0.0;
    }
    let target = q.clamp(0.0, 1.0) * total as f64;
    let mut seen = 0.0;
    for (i, &b) in h.buckets().iter().enumerate() {
        if b == 0 {
            continue;
        }
        let next = seen + b as f64;
        if next >= target || i == HIST_BUCKETS - 1 {
            let (lo, hi) = bucket_range(i);
            let frac = ((target - seen) / b as f64).clamp(0.0, 1.0);
            return (lo + (hi - lo) * frac) / 1e6;
        }
        seen = next;
    }
    0.0
}

/// Mean of an engine latency histogram in milliseconds, taking each
/// bucket at its midpoint.
pub fn hist_mean_ms(h: &LatencyHistogram) -> f64 {
    let total = h.count();
    if total == 0 {
        return 0.0;
    }
    let mut sum = 0.0;
    for (i, &b) in h.buckets().iter().enumerate() {
        if b == 0 {
            continue;
        }
        let (lo, hi) = bucket_range(i);
        sum += b as f64 * (lo + hi) / 2.0;
    }
    sum / total as f64 / 1e6
}
