//! The metric registry: named counters, gauges and log₂ histograms.
//!
//! Everything is exact u64 arithmetic so that [`MetricRegistry::merge`]
//! is commutative and associative — per-job registries produced under the
//! parallel runner combine into the same bytes at any worker count,
//! regardless of which jobs ran on which thread.

use std::collections::BTreeMap;

use zombieland_simcore::report::Table;
use zombieland_trace::json::Value;

/// A sampled gauge: how many times it was set, the sum of the samples
/// and the high watermark. Means derive from `sum / samples`; keeping
/// sums instead of means is what makes merging exact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gauge {
    /// Number of `set` calls.
    pub samples: u64,
    /// Sum of all set values.
    pub sum: u64,
    /// Largest value ever set.
    pub max: u64,
}

impl Gauge {
    fn set(&mut self, v: u64) {
        self.samples += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }

    fn merge(&mut self, other: &Gauge) {
        self.samples += other.samples;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// Number of histogram buckets: one per possible u64 bit length, plus
/// bucket 0 for the value zero.
pub const HIST_BUCKETS: usize = 65;

/// A fixed-bucket log₂ histogram of u64 values.
///
/// Value `v` lands in the bucket of its bit length (`0` in bucket 0, `1`
/// in bucket 1, `2..=3` in bucket 2, ...), so the upper edge of bucket
/// `i > 0` is `2^i - 1`. Bucket counts are exact u64s; merging adds
/// bucket-wise and is therefore order-independent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket counts, index = bit length of the value.
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Exact sum of all samples (wrapping add: merges stay exact and
    /// order-independent even if a pathological stream overflows).
    pub sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    /// Records `n` samples of value `v` in O(1). Bit-identical to calling
    /// `record(v)` `n` times: one bucket gains `n`, the count gains `n`,
    /// and the wrapping sum gains `v * n` (multiplication modulo 2^64 is
    /// exactly n repeated wrapping adds). Batching layers use this to
    /// flush accumulated identical samples once per batch instead of once
    /// per event.
    fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_of(v)] += n;
        self.count += n;
        self.sum = self.sum.wrapping_add(v.wrapping_mul(n));
    }

    /// The `q`-quantile resolved to its bucket's upper edge (`None` when
    /// empty).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(((1u128 << i) - 1) as u64);
            }
        }
        None
    }

    fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

/// Named counters, gauges and histograms for one run (or a merge of
/// runs). `BTreeMap` keys make every iteration — rendering, JSON export —
/// deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, Gauge>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Removes every recorded metric, returning the registry to the
    /// freshly constructed state (used when recycling collector shells).
    pub fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.clear();
    }

    /// Adds `v` to a counter.
    pub fn counter_add(&mut self, name: &'static str, v: u64) {
        *self.counters.entry(name).or_insert(0) += v;
    }

    /// Records a gauge sample.
    pub fn gauge_set(&mut self, name: &'static str, v: u64) {
        self.gauges.entry(name).or_default().set(v);
    }

    /// Records a histogram sample.
    pub fn hist_record(&mut self, name: &'static str, v: u64) {
        self.histograms.entry(name).or_default().record(v);
    }

    /// Records `n` identical histogram samples in one registry lookup —
    /// bit-identical to `n` `hist_record` calls. `n == 0` is a no-op and
    /// does not create the histogram entry.
    pub fn hist_record_n(&mut self, name: &'static str, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.histograms.entry(name).or_default().record_n(v, n);
    }

    /// Merges a whole histogram of samples into the named one, as if
    /// each sample had been recorded there. An empty `h` is a no-op and
    /// does not create the entry.
    pub fn hist_merge(&mut self, name: &'static str, h: &Histogram) {
        if h.count == 0 {
            return;
        }
        self.histograms.entry(name).or_default().merge(h);
    }

    /// Reads a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// All gauges, in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, &Gauge)> + '_ {
        self.gauges.iter().map(|(&k, g)| (k, g))
    }

    /// All histograms, in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&k, h)| (k, h))
    }

    /// Reads a gauge.
    pub fn gauge(&self, name: &str) -> Option<&Gauge> {
        self.gauges.get(name)
    }

    /// Reads a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Merges another registry into this one. Exact u64 arithmetic
    /// throughout: the result is independent of merge order, which is what
    /// lets `simcore::runner` fan jobs out and combine per-job registries
    /// without changing a byte of the final export.
    pub fn merge(&mut self, other: &MetricRegistry) {
        for (name, v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, g) in &other.gauges {
            self.gauges.entry(name).or_default().merge(g);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name).or_default().merge(h);
        }
    }

    /// Renders the registry as one JSON document (pretty layout, parse it
    /// back with [`zombieland_trace::json::parse`]).
    pub fn to_json(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.to_string(), Value::UInt(*v)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(k, g)| {
                (
                    k.to_string(),
                    Value::Object(vec![
                        ("samples".into(), Value::UInt(g.samples)),
                        ("sum".into(), Value::UInt(g.sum)),
                        ("max".into(), Value::UInt(g.max)),
                    ]),
                )
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                // Trailing empty buckets carry no information; trimming
                // them keeps the export compact without affecting parsing.
                let top = HIST_BUCKETS - h.buckets.iter().rev().take_while(|&&c| c == 0).count();
                let buckets = h.buckets[..top].iter().map(|&c| Value::UInt(c)).collect();
                (
                    k.to_string(),
                    Value::Object(vec![
                        ("count".into(), Value::UInt(h.count)),
                        ("sum".into(), Value::UInt(h.sum)),
                        ("buckets".into(), Value::Array(buckets)),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("counters".into(), Value::Object(counters)),
            ("gauges".into(), Value::Object(gauges)),
            ("histograms".into(), Value::Object(histograms)),
        ])
    }

    /// Renders the registry as a human-readable table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Metrics",
            &["metric", "kind", "n", "total", "mean", "max/p99"],
        );
        for (name, v) in &self.counters {
            t.row(&[
                name.to_string(),
                "counter".into(),
                "-".into(),
                v.to_string(),
                "-".into(),
                "-".into(),
            ]);
        }
        for (name, g) in &self.gauges {
            t.row(&[
                name.to_string(),
                "gauge".into(),
                g.samples.to_string(),
                g.sum.to_string(),
                format!("{:.1}", g.mean()),
                g.max.to_string(),
            ]);
        }
        for (name, h) in &self.histograms {
            let mean = if h.count == 0 {
                0.0
            } else {
                h.sum as f64 / h.count as f64
            };
            t.row(&[
                name.to_string(),
                "histogram".into(),
                h.count.to_string(),
                h.sum.to_string(),
                format!("{mean:.1}"),
                h.quantile(0.99).map_or("-".into(), |v| v.to_string()),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry(values: &[u64]) -> MetricRegistry {
        let mut r = MetricRegistry::new();
        for &v in values {
            r.counter_add("ops", 1);
            r.gauge_set("depth", v);
            r.hist_record("lat", v);
        }
        r
    }

    #[test]
    fn records_and_reads() {
        let r = sample_registry(&[0, 1, 7, 1_000]);
        assert_eq!(r.counter("ops"), 4);
        assert_eq!(r.counter("missing"), 0);
        let g = r.gauge("depth").unwrap();
        assert_eq!((g.samples, g.sum, g.max), (4, 1_008, 1_000));
        let h = r.histogram("lat").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.buckets[0], 1); // The zero sample.
        assert_eq!(h.buckets[1], 1); // 1 lands in bucket 1 (bit length 1).
        assert_eq!(h.buckets[3], 1); // 7 lands in bucket 3 (bit length 3).
    }

    #[test]
    fn merge_is_order_independent() {
        let parts = [
            sample_registry(&[3, 9]),
            sample_registry(&[0]),
            sample_registry(&[1 << 40, 17, 17]),
        ];
        let mut forward = MetricRegistry::new();
        for p in &parts {
            forward.merge(p);
        }
        let mut backward = MetricRegistry::new();
        for p in parts.iter().rev() {
            backward.merge(p);
        }
        assert_eq!(forward, backward);
        assert_eq!(
            forward.to_json().pretty(),
            backward.to_json().pretty(),
            "export bytes must match too"
        );
        assert_eq!(forward.counter("ops"), 6);
    }

    #[test]
    fn record_n_matches_repeated_records() {
        let mut folded = MetricRegistry::new();
        let mut unrolled = MetricRegistry::new();
        for &(v, n) in &[(0u64, 3u64), (1_000, 97), (u64::MAX, 5), (7, 0)] {
            folded.hist_record_n("lat", v, n);
            for _ in 0..n {
                unrolled.hist_record("lat", v);
            }
        }
        assert_eq!(folded, unrolled);
        assert_eq!(folded.to_json().pretty(), unrolled.to_json().pretty());
    }

    #[test]
    fn histogram_quantiles_hit_bucket_edges() {
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.record(1_000); // Bucket 10, upper edge 1023.
        }
        for _ in 0..10 {
            h.record(1_000_000); // Bucket 20, upper edge 1048575.
        }
        assert_eq!(h.quantile(0.5), Some(1_023));
        assert_eq!(h.quantile(0.99), Some(1_048_575));
        assert_eq!(Histogram::default().quantile(0.5), None);
        let mut z = Histogram::default();
        z.record(0);
        assert_eq!(z.quantile(1.0), Some(0));
        z.record(u64::MAX);
        assert_eq!(z.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn json_round_trips_and_table_renders() {
        let r = sample_registry(&[5, 50_000]);
        let doc = r.to_json().pretty();
        let back = zombieland_trace::json::parse(&doc).unwrap();
        assert_eq!(
            back.get("counters")
                .and_then(|c| c.get("ops"))
                .and_then(|v| v.as_u64()),
            Some(2)
        );
        let rendered = r.table().render();
        assert!(rendered.contains("ops"));
        assert!(rendered.contains("counter"));
        assert!(rendered.contains("histogram"));
    }

    #[test]
    fn empty_registry_is_empty() {
        let r = MetricRegistry::new();
        assert!(r.is_empty());
        assert!(!sample_registry(&[1]).is_empty());
    }
}
