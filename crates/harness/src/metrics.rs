//! Named counters and latency histograms for run/service observability.
//!
//! Stages increment counters ("sim.block_build_us", "cache.race_lost", …)
//! through a shared [`MetricsRegistry`]; the artifact layer snapshots them
//! into the `meta` object of the `--json` artifact.  Counters are sorted
//! by name at snapshot time so the emitted JSON is deterministic regardless
//! of which worker thread incremented first.
//!
//! [`Histogram`] is a lock-light log-linear latency histogram: a fixed
//! 64-bucket layout (two buckets per power of two, so bucket upper bounds
//! grow by ≈√2), all-atomic recording, exact `sum`/`count`/`max`, and
//! bucket-wise merging.  Quantile estimates return the upper bound of the
//! bucket holding the requested rank, so an estimate is never below the
//! true order statistic and never more than ×[`HIST_MAX_RATIO`] ≈ 1.4145
//! above it (values below the 1 µs first bound report as 1 µs).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Thread-safe monotonic counters plus named histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add one to `name` (creating it at zero first if needed).
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Add `delta` to `name`.
    pub fn add(&self, name: &str, delta: u64) {
        let mut c = self.counters.lock().unwrap();
        *c.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Current value of `name` (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .unwrap()
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect()
    }

    /// Record a nanosecond duration sample into the histogram `name`
    /// (creating it on first use).  The registry lock covers only the map
    /// lookup; the record itself is lock-free atomics.
    pub fn time_ns(&self, name: &str, ns: u64) {
        self.histogram(name).record(ns);
    }

    /// The histogram named `name`, creating it if needed.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut h = self.histograms.lock().unwrap();
        h.entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// All histograms, sorted by name.
    pub fn histograms_snapshot(&self) -> Vec<(String, Arc<Histogram>)> {
        self.histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

/// Number of buckets ([`HIST_BOUNDS`] finite upper bounds + one overflow).
pub const HIST_BUCKETS: usize = 64;

/// Documented worst-case ratio of a quantile estimate over the true order
/// statistic (for samples ≥ 1 µs): one bucket's width, ≈√2 plus integer
/// flooring slack.
pub const HIST_MAX_RATIO: f64 = 1.4145;

/// Finite bucket upper bounds in nanoseconds: `b[2k] = 1000·2^k`,
/// `b[2k+1] = ⌊1000·2^k·181/128⌋` (181/128 ≈ √2), spanning 1 µs to ~36 min.
/// Bucket `i` holds samples in `(b[i-1], b[i]]`; bucket 0 also absorbs
/// everything below 1 µs; bucket 63 is the overflow (+Inf) bucket.
pub const HIST_BOUNDS: [u64; HIST_BUCKETS - 1] = hist_bounds();

const fn hist_bounds() -> [u64; HIST_BUCKETS - 1] {
    let mut b = [0u64; HIST_BUCKETS - 1];
    let mut i = 0;
    while i < HIST_BUCKETS - 1 {
        let base = 1000u64 << (i / 2);
        b[i] = if i % 2 == 0 { base } else { base * 181 / 128 };
        i += 1;
    }
    b
}

/// Index of the bucket a sample of `ns` nanoseconds falls in.
pub fn hist_bucket(ns: u64) -> usize {
    HIST_BOUNDS.partition_point(|&b| b < ns)
}

/// A fixed-layout log-linear histogram with all-atomic recording.
///
/// `sum`, `count`, and `max` are exact; bucket counts place each sample
/// within a ≈√2-wide bucket (layout in [`HIST_BOUNDS`]).  Two histograms
/// with the same layout merge bucket-wise, and merging is exactly
/// equivalent to having recorded every sample into one histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one nanosecond sample.
    pub fn record(&self, ns: u64) {
        self.buckets[hist_bucket(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Fold `other`'s samples into `self` (bucket-wise adds).
    pub fn merge(&self, other: &Histogram) {
        for (b, o) in self.buckets.iter().zip(other.buckets.iter()) {
            b.fetch_add(o.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.max.fetch_max(other.max(), Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of all recorded samples, in nanoseconds.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact maximum recorded sample, in nanoseconds.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Bucket counts (index `i` counts samples ≤ [`HIST_BOUNDS`]`[i]`,
    /// the last bucket counts overflow samples).
    pub fn bucket_counts(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) in nanoseconds: the upper
    /// bound of the bucket containing the rank-`⌈q·count⌉` sample, so the
    /// estimate is ≥ the true order statistic and ≤ ×[`HIST_MAX_RATIO`]
    /// above it (overflow-bucket ranks return the exact `max`).  `None`
    /// when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, b) in self.bucket_counts().iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Some(if i < HIST_BOUNDS.len() {
                    HIST_BOUNDS[i].min(self.max())
                } else {
                    self.max()
                });
            }
        }
        Some(self.max())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_sort() {
        let m = MetricsRegistry::new();
        m.incr("zebra");
        m.add("alpha", 5);
        m.incr("zebra");
        assert_eq!(m.get("zebra"), 2);
        assert_eq!(m.get("absent"), 0);
        assert_eq!(
            m.snapshot(),
            vec![("alpha".to_string(), 5), ("zebra".to_string(), 2)]
        );
    }

    #[test]
    fn shared_across_threads() {
        let m = std::sync::Arc::new(MetricsRegistry::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        m.incr("hits");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.get("hits"), 400);
    }

    #[test]
    fn bucket_layout_is_monotone_with_bounded_ratio() {
        for w in HIST_BOUNDS.windows(2) {
            assert!(w[1] > w[0], "bounds not strictly increasing: {w:?}");
            let ratio = w[1] as f64 / w[0] as f64;
            assert!(
                ratio <= HIST_MAX_RATIO,
                "bucket ratio {ratio} exceeds {HIST_MAX_RATIO} at {w:?}"
            );
        }
        assert_eq!(HIST_BOUNDS[0], 1000); // 1 µs
        assert_eq!(hist_bucket(0), 0);
        assert_eq!(hist_bucket(1000), 0);
        assert_eq!(hist_bucket(1001), 1);
        assert_eq!(hist_bucket(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn exact_sum_count_max_and_registry_histograms() {
        let m = MetricsRegistry::new();
        m.time_ns("lat", 1_500);
        m.time_ns("lat", 2_500_000);
        m.time_ns("lat", 900);
        let h = m.histogram("lat");
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 2_502_400);
        assert_eq!(h.max(), 2_500_000);
        let names: Vec<String> = m
            .histograms_snapshot()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["lat".to_string()]);
        assert!(m.histogram("lat").count() == 3, "same instance re-fetched");
    }

    #[test]
    fn quantile_of_empty_is_none() {
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn quantile_estimates_respect_documented_error_bound() {
        // Deterministic pseudo-random samples spanning many buckets.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut samples: Vec<u64> = (0..2000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                1_000 + x % 2_000_000_000 // 1 µs .. 2 s
            })
            .collect();
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for q in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let est = h.quantile(q).unwrap();
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let truth = samples[rank - 1];
            assert!(est >= truth, "q={q}: estimate {est} below true {truth}");
            assert!(
                est as f64 <= truth as f64 * HIST_MAX_RATIO,
                "q={q}: estimate {est} exceeds true {truth} by more than the bound"
            );
        }
        assert_eq!(h.quantile(1.0), Some(*samples.last().unwrap()));
    }

    #[test]
    fn merge_equals_record_all() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for i in 0..500u64 {
            let v = 1_000 + i * i * 7_919;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.bucket_counts(), all.bucket_counts());
        assert_eq!(a.sum(), all.sum());
        assert_eq!(a.count(), all.count());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn concurrent_recording_is_deterministic_in_aggregate() {
        let h = std::sync::Arc::new(Histogram::new());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(1_000 + (t * 1000 + i) * 997);
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        let serial = Histogram::new();
        for t in 0..4u64 {
            for i in 0..1000u64 {
                serial.record(1_000 + (t * 1000 + i) * 997);
            }
        }
        assert_eq!(h.count(), 4000);
        assert_eq!(h.bucket_counts(), serial.bucket_counts());
        assert_eq!(h.sum(), serial.sum());
        assert_eq!(h.max(), serial.max());
    }
}
