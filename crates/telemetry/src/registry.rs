//! Thread-safe metrics registry: counters, gauges, and fixed-bucket
//! histograms, addressed by `(name, sorted label set)`.
//!
//! Handles returned by the registry are cheap `Arc` clones — hot paths
//! acquire their handle once and then update lock-free (counters,
//! gauges) or under a short per-metric mutex (histograms). Call sites
//! that look a handle up per event instead pay a binary search over
//! borrowed strings and no allocation: an owned [`MetricKey`] is built
//! only when a metric is first created.

use crate::stats::Histogram;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Metric identity: name plus a sorted list of label pairs.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    pub name: String,
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    pub(crate) fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey { name: name.to_string(), labels }
    }

    /// `name{k="v",…}` rendering shared by exposition and debugging.
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
            .collect();
        format!("{}{{{}}}", self.name, labels.join(","))
    }
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// One kind's metrics, sorted by key (so a snapshot is an in-order
/// copy) and searched by *borrowed* `(name, labels)`.
#[derive(Debug)]
struct Table<V>(RwLock<Vec<(MetricKey, V)>>);

impl<V> Default for Table<V> {
    fn default() -> Self {
        Table(RwLock::new(Vec::new()))
    }
}

impl<V: Clone> Table<V> {
    /// Where `(name, sorted_labels)` is, or where it would be inserted:
    /// the order is `MetricKey`'s own (name, then sorted label pairs).
    fn search(entries: &[(MetricKey, V)], name: &str, sorted_labels: &[(&str, &str)]) -> Result<usize, usize> {
        entries.binary_search_by(|(key, _)| {
            key.name.as_str().cmp(name).then_with(|| {
                key.labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .cmp(sorted_labels.iter().copied())
            })
        })
    }

    fn get_or_create(&self, name: &str, labels: &[(&str, &str)], create: impl FnOnce() -> V) -> V {
        // Sort a copy of the borrowed pairs, on the stack for any label
        // count a metric really has.
        let (mut stack, mut heap) = ([("", ""); 8], Vec::new());
        let sorted = match stack.get_mut(..labels.len()) {
            Some(stack) => stack,
            None => {
                heap.resize(labels.len(), ("", ""));
                &mut heap[..]
            }
        };
        sorted.copy_from_slice(labels);
        sorted.sort_unstable();
        {
            let entries = self.0.read();
            if let Ok(at) = Self::search(&entries, name, sorted) {
                return entries[at].1.clone();
            }
        }
        let mut entries = self.0.write();
        match Self::search(&entries, name, sorted) {
            Ok(at) => entries[at].1.clone(),
            Err(at) => {
                let value = create();
                entries.insert(at, (MetricKey::new(name, labels), value.clone()));
                value
            }
        }
    }

    fn snapshot<T>(&self, read: impl Fn(&V) -> T) -> Vec<(MetricKey, T)> {
        self.0.read().iter().map(|(k, v)| (k.clone(), read(v))).collect()
    }
}

/// Monotonically increasing counter handle.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite with an absolute value — used by pull-style collectors
    /// that mirror an existing cumulative counter into the registry.
    pub fn store(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }
}

/// Instantaneous value handle (f64 stored as bits in an atomic).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }
}

/// Shared histogram handle.
#[derive(Clone, Debug)]
pub struct HistogramHandle(Arc<Mutex<Histogram>>);

impl HistogramHandle {
    pub fn record(&self, x: f64) {
        self.0.lock().record(x);
    }
}

/// Point-in-time copy of every registered metric, sorted by key.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(MetricKey, u64)>,
    pub gauges: Vec<(MetricKey, f64)>,
    pub histograms: Vec<(MetricKey, Histogram)>,
}

impl MetricsSnapshot {
    /// Sum of a counter across all label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// Exact counter lookup.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let key = MetricKey::new(name, labels);
        self.counters.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// Exact gauge lookup.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let key = MetricKey::new(name, labels);
        self.gauges.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// All gauges with the given metric name.
    pub fn gauges_named(&self, name: &str) -> Vec<(&MetricKey, f64)> {
        self.gauges
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(k, v)| (k, *v))
            .collect()
    }

    /// All histograms with the given metric name.
    pub fn histograms_named(&self, name: &str) -> Vec<(&MetricKey, &Histogram)> {
        self.histograms
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(k, h)| (k, h))
            .collect()
    }
}

/// The registry proper: one sorted table per metric kind. Looking up
/// an existing metric compares the caller's borrowed name and labels
/// (in any order) against the stored keys and allocates nothing.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Table<Arc<AtomicU64>>,
    gauges: Table<Arc<AtomicU64>>,
    histograms: Table<Arc<Mutex<Histogram>>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        Counter(self.counters.get_or_create(name, labels, || Arc::new(AtomicU64::new(0))))
    }

    /// Get or create a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        Gauge(
            self.gauges
                .get_or_create(name, labels, || Arc::new(AtomicU64::new(0.0f64.to_bits()))),
        )
    }

    /// Get or create a fixed-bucket histogram. The shape parameters
    /// apply only on first creation; later callers share the existing
    /// histogram regardless of the shape they pass.
    pub fn histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        origin: f64,
        bin_width: f64,
        nbins: usize,
    ) -> HistogramHandle {
        HistogramHandle(self.histograms.get_or_create(name, labels, || {
            Arc::new(Mutex::new(Histogram::new(origin, bin_width, nbins)))
        }))
    }

    /// Copy out every metric, sorted by key.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.snapshot(|v| v.load(Ordering::Relaxed)),
            gauges: self.gauges.snapshot(|v| f64::from_bits(v.load(Ordering::Relaxed))),
            histograms: self.histograms.snapshot(|h| h.lock().clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_state() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("jobs_total", &[("kind", "run")]);
        let b = reg.counter("jobs_total", &[("kind", "run")]);
        a.inc();
        b.add(4);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("jobs_total", &[("kind", "run")]), Some(5));
    }

    #[test]
    fn label_order_does_not_matter() {
        let reg = MetricsRegistry::new();
        reg.counter("m", &[("a", "1"), ("b", "2")]).inc();
        reg.counter("m", &[("b", "2"), ("a", "1")]).inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counter_total("m"), 2);
    }

    #[test]
    fn borrowed_search_orders_like_metric_key() {
        // Names that prefix each other, label sets that prefix each
        // other, repeated pairs, both orders of the lookup, and more
        // labels than the lookup sorts on the stack.
        let label_sets: [&[(&str, &str)]; 8] = [
            &[],
            &[("a", "1")],
            &[("a", "1"), ("b", "2")],
            &[("a", "1"), ("b", "2"), ("c", "0")],
            &[("a", "2")],
            &[("a", "1"), ("a", "1")],
            &[("b", "1"), ("a", "9"), ("a", "10")],
            &[("i", ""), ("h", ""), ("g", ""), ("f", ""), ("e", ""), ("d", ""), ("c", ""), ("b", ""), ("a", "")],
        ];
        let reg = MetricsRegistry::new();
        let mut expected = Vec::new();
        for name in ["m", "ma", "l"] {
            for labels in label_sets {
                reg.counter(name, labels).inc();
                let mut reversed = labels.to_vec();
                reversed.reverse();
                reg.counter(name, &reversed).inc();
                expected.push(MetricKey::new(name, labels));
            }
        }
        expected.sort();
        let snap = reg.snapshot();
        let keys: Vec<MetricKey> = snap.counters.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, expected);
        assert!(snap.counters.iter().all(|(_, n)| *n == 2));
    }

    #[test]
    fn gauge_set_shows_in_the_snapshot() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("pool_size", &[]);
        g.set(4.0);
        g.set(5.0);
        assert_eq!(reg.snapshot().gauge("pool_size", &[]), Some(5.0));
    }

    #[test]
    fn histogram_records_through_handle() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("latency", &[("stage", "run")], 0.0, 0.5, 10);
        h.record(0.7);
        h.record(1.2);
        let snap = reg.snapshot();
        let [(key, hist)] = snap.histograms_named("latency")[..] else { panic!("one histogram") };
        assert_eq!(*key, MetricKey::new("latency", &[("stage", "run")]));
        assert_eq!(hist.total(), 2);
        assert_eq!(hist.bin(1), 1);
        assert_eq!(hist.bin(2), 1);
    }

    #[test]
    fn key_render_is_prometheus_shaped() {
        let key = MetricKey::new("rai_jobs_total", &[("kind", "submit"), ("outcome", "ok")]);
        assert_eq!(key.render(), "rai_jobs_total{kind=\"submit\",outcome=\"ok\"}");
        assert_eq!(MetricKey::new("up", &[]).render(), "up");
    }

    #[test]
    fn concurrent_increments_sum() {
        let reg = Arc::new(MetricsRegistry::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                let c = reg.counter("contended", &[]);
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().expect("thread finished");
        }
        assert_eq!(reg.snapshot().counter_total("contended"), 80_000);
    }
}
