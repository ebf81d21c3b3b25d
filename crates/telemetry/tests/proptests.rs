//! Property tests for the metrics registry, the statistics toolkit,
//! the deterministic log-bucketed latency histogram, and the causal
//! span-tree trace store.

use proptest::prelude::*;
use rai_sim::{SimDuration, SimTime};
use rai_telemetry::{
    component, render_chrome_trace, stage, Histogram, LogHistogram, MetricsRegistry, OnlineStats,
    TimeSeries, TraceStore,
};
use std::sync::Arc;

/// The worker-side stages a random attempt can record, with the
/// component that owns each one.
const ATTEMPT_STAGES: [(&str, &str); 8] = [
    (stage::DEQUEUED, component::BROKER),
    (stage::PULLED, component::SANDBOX),
    (stage::FETCHED, component::STORE),
    (stage::BUILT, component::SANDBOX),
    (stage::RAN, component::SANDBOX),
    (stage::UPLOADED, component::STORE),
    (stage::RECORDED, component::DB),
    (stage::CRASHED, component::FAULT),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// TimeSeries conserves events: total == number of in-range records.
    #[test]
    fn time_series_conserves(
        events in prop::collection::vec(0u64..1_000_000, 0..100),
        bucket_ms in 1u64..10_000,
        start in 0u64..500_000,
    ) {
        let mut ts = TimeSeries::new(SimTime::from_millis(start), SimDuration::from_millis(bucket_ms));
        let mut expected = 0u64;
        for &e in &events {
            ts.record(SimTime::from_millis(e));
            if e >= start {
                expected += 1;
            }
        }
        prop_assert_eq!(ts.total(), expected);
        prop_assert_eq!(ts.counts().iter().sum::<u64>(), expected);
    }

    /// Histogram conserves observations across bins + underflow + overflow.
    #[test]
    fn histogram_conserves(xs in prop::collection::vec(-50.0f64..500.0, 0..100)) {
        let mut h = Histogram::new(0.0, 0.1, 25);
        for &x in &xs {
            h.record(x);
        }
        let binned: u64 = (0..h.num_bins()).map(|i| h.bin(i)).sum();
        prop_assert_eq!(binned + h.underflow() + h.overflow(), xs.len() as u64);
        prop_assert_eq!(h.total(), xs.len() as u64);
        let expected_sum: f64 = xs.iter().sum();
        prop_assert!((h.sum() - expected_sum).abs() < 1e-6 * (1.0 + expected_sum.abs()));
    }

    /// OnlineStats matches a naive two-pass computation.
    #[test]
    fn online_stats_matches_naive(xs in prop::collection::vec(-1e3f64..1e3, 1..100)) {
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance() - var).abs() < 1e-5 * (1.0 + var.abs()));
    }

    /// Concurrent counter increments from several threads sum exactly.
    #[test]
    fn registry_concurrent_increments_sum(
        per_thread in prop::collection::vec(1u64..500, 1..8),
    ) {
        let registry = Arc::new(MetricsRegistry::new());
        let mut handles = Vec::new();
        for &n in &per_thread {
            let registry = Arc::clone(&registry);
            handles.push(std::thread::spawn(move || {
                let counter = registry.counter("rai_test_total", &[("case", "prop")]);
                for _ in 0..n {
                    counter.inc();
                }
            }));
        }
        for handle in handles {
            handle.join().expect("thread finished");
        }
        let expected: u64 = per_thread.iter().sum();
        prop_assert_eq!(
            registry.snapshot().counter("rai_test_total", &[("case", "prop")]),
            Some(expected)
        );
    }

    /// Any causal recording schedule (time advances within each job;
    /// attempts recorded in delivery order, as the worker loop does)
    /// yields a monotone trace with one root per attempt. The Chrome
    /// export writes every recorded span and one root per attempt.
    #[test]
    fn span_trees_have_one_root_per_attempt(
        jobs in prop::collection::vec(
            // Per job: 1..4 worker attempts, each 1..5 stages of
            // (stage index, duration ms).
            prop::collection::vec(
                prop::collection::vec((0usize..8, 0u64..5_000), 1..5),
                1..4,
            ),
            1..6,
        ),
        gap_ms in 1u64..10_000,
    ) {
        let store = TraceStore::new();
        for (job, attempts) in jobs.iter().enumerate() {
            let job_id = job as u64;
            let mut clock = 0u64;
            store.record_span(
                job_id, 0, stage::SUBMITTED, component::CLIENT,
                SimTime::from_millis(clock), SimTime::from_millis(clock),
            );
            store.record_span(
                job_id, 0, stage::ENQUEUED, component::BROKER,
                SimTime::from_millis(clock), SimTime::from_millis(clock),
            );
            for (i, stages) in attempts.iter().enumerate() {
                clock += gap_ms; // queue / redelivery wait
                let attempt = (i + 1) as u32;
                for &(stage_idx, dur_ms) in stages {
                    let (name, comp) = ATTEMPT_STAGES[stage_idx];
                    let start = clock;
                    clock += dur_ms;
                    store.record_span(
                        job_id, attempt, name, comp,
                        SimTime::from_millis(start), SimTime::from_millis(clock),
                    );
                }
            }
            let trace = store.get(job_id).expect("trace exists");
            prop_assert!(trace.is_monotone());
            prop_assert_eq!(trace.roots().len(), attempts.len() + 1);
            prop_assert_eq!(trace.final_attempt(), Some(attempts.len() as u32));
            let recorded: usize = attempts.iter().map(Vec::len).sum();
            let events = render_chrome_trace(&[trace]).matches("\"ph\":\"X\"").count();
            prop_assert_eq!(events, recorded + 2 + attempts.len() + 1);
        }
    }

    /// Quantiles are monotone in q, never undershoot the true
    /// nearest-rank sample, and overshoot by at most one sub-bucket
    /// (relative error ≤ 1/32); the count and the mean are exact.
    #[test]
    fn log_histogram_quantiles_are_sound(
        // Half the draws span the whole range, so the top octave (and
        // its last bucket, which ends at `u64::MAX`) is reached.
        xs in prop::collection::vec(prop_oneof![0u64..100_000_000, any::<u64>()], 1..200),
    ) {
        let mut h = LogHistogram::new();
        for &x in &xs {
            h.record_micros(x);
        }
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        prop_assert_eq!(h.count(), xs.len() as u64);
        let sum = xs.iter().fold(0u64, |sum, &x| sum.saturating_add(x));
        prop_assert_eq!(h.mean_micros(), sum / xs.len() as u64);
        prop_assert_eq!(h.count_le_micros(*sorted.last().unwrap()), h.count());
        let mut prev = 0u64;
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let got = h.quantile_micros(q);
            prop_assert!(got >= prev, "quantiles not monotone at q={}", q);
            prev = got;
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            prop_assert!(got >= truth, "q={} undershoots: {} < {}", q, got, truth);
            prop_assert!(
                got as f64 <= truth as f64 * (1.0 + 1.0 / 32.0) + 1.0,
                "q={} overshoots: {} vs true {}", q, got, truth
            );
        }
    }
}
