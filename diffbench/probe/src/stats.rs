//! Timing and metric plumbing for the traced runs: per-layer call
//! timers, nearest-rank percentiles, medians across passes, and a flat
//! JSON object writer.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Busy time and per-call samples of one layer's public entry point.
#[derive(Default)]
pub struct Layer {
    pub calls: u64,
    pub busy: Duration,
    samples_ns: Vec<u64>,
}

impl Layer {
    /// Times one call into the layer.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        self.add(start.elapsed());
        out
    }

    pub fn add(&mut self, elapsed: Duration) {
        self.calls += 1;
        self.busy += elapsed;
        self.samples_ns
            .push(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Nearest-rank quantile of the per-call samples, in microseconds
    /// (0 when the layer was never called).
    pub fn quantile_us(&self, q: f64) -> f64 {
        let mut sorted = self.samples_ns.clone();
        sorted.sort_unstable();
        quantile(&sorted, q) / 1e3
    }

    pub fn busy_s(&self) -> f64 {
        self.busy.as_secs_f64()
    }
}

/// Nearest-rank quantile of an ascending slice; 0 for an empty one.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of the values, 0 for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Wall-clock of `f`, in seconds, plus its result.
pub fn wall<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (start.elapsed().as_secs_f64(), out)
}

/// One pass's metrics; several passes fold into per-metric medians.
pub type Metrics = BTreeMap<String, f64>;

/// Per-metric medians over passes. Every pass reports the same keys.
pub fn median_of_passes(passes: &[Metrics]) -> Metrics {
    let mut out = Metrics::new();
    if let Some(first) = passes.first() {
        for key in first.keys() {
            let values: Vec<f64> = passes.iter().filter_map(|p| p.get(key).copied()).collect();
            out.insert(key.clone(), median(&values));
        }
    }
    out
}

/// Renders a flat `{"name": number, ...}` object. Non-finite values
/// (a ratio over an empty base) become 0.
pub fn to_json(metrics: &Metrics) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(k, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{k}\": {v}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn medians_fold_passes() {
        let pass = |x: f64| Metrics::from([("a".to_owned(), x)]);
        let m = median_of_passes(&[pass(3.0), pass(1.0), pass(2.0)]);
        assert_eq!(m["a"], 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn json_is_flat_and_finite() {
        let m = Metrics::from([("x.y".to_owned(), 1.5), ("z".to_owned(), f64::NAN)]);
        assert_eq!(to_json(&m), "{\"x.y\": 1.5, \"z\": 0}");
    }
}
