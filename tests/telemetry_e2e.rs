//! End-to-end telemetry: drive real submissions through a deployment
//! and check that the job traces, registry snapshot, and the
//! exposition format reflect what happened.

use rai::core::client::ProjectDir;
use rai::core::system::{RaiSystem, SystemConfig};
use rai::telemetry::{names, parse_prometheus, stage};

fn driven_system(jobs: usize) -> (RaiSystem, Vec<u64>) {
    let mut system = RaiSystem::new(SystemConfig {
        workers: 2,
        rate_limit: None,
        ..Default::default()
    });
    let creds = system.register_team("observed", &["ada"]);
    let mut job_ids = Vec::new();
    for _ in 0..jobs {
        let receipt = system
            .submit(&creds, &ProjectDir::sample_cuda_project())
            .expect("submission should succeed");
        assert!(receipt.success);
        job_ids.push(receipt.job_id);
    }
    (system, job_ids)
}

#[test]
fn job_traces_are_monotone_and_complete() {
    let (system, job_ids) = driven_system(3);
    for job_id in job_ids {
        let trace = system
            .telemetry()
            .job_trace(job_id)
            .expect("every job is traced");
        assert!(trace.is_monotone(), "stages out of order: {trace:?}");
        for name in [
            stage::SUBMITTED,
            stage::ENQUEUED,
            stage::DEQUEUED,
            stage::FETCHED,
            stage::BUILT,
            stage::RAN,
            stage::UPLOADED,
            stage::GRADED,
        ] {
            assert!(
                trace.stage_time(name).is_some(),
                "job {} missing stage {name}",
                trace.job_id
            );
        }
        assert!(trace.total_duration() > rai::sim::SimDuration::ZERO);
    }
}

#[test]
fn report_metrics_are_populated() {
    let (system, _) = driven_system(3);
    let metrics = system.report().metrics;

    assert_eq!(metrics.counter_total(names::JOBS_TOTAL), 3);
    assert!(!metrics.histograms_named(names::JOB_STAGE_SECONDS).is_empty());
    assert!(!metrics.histograms_named(names::JOB_TOTAL_SECONDS).is_empty());
    // Broker mirror: everything published was consumed, depth gauge at 0.
    assert_eq!(metrics.gauge(names::BROKER_QUEUE_DEPTH, &[]), Some(0.0));
    assert!(metrics.counter(names::BROKER_PUBLISHED_TOTAL, &[]).unwrap() >= 3);
    // Store and db mirrors counted traffic.
    assert!(metrics.counter(names::STORE_BYTES_UPLOADED_TOTAL, &[]).unwrap() > 0);
    assert!(metrics.counter(names::DB_INSERTS_TOTAL, &[]).unwrap() > 0);
}

#[test]
fn prometheus_exposition_parses_and_matches() {
    let (system, _) = driven_system(2);
    let metrics = system.report().metrics;
    let text = rai::telemetry::render_prometheus(&metrics);

    let samples = parse_prometheus(&text).expect("exposition must parse");
    assert!(!samples.is_empty());
    let jobs: f64 = samples
        .iter()
        .filter(|s| s.name == names::JOBS_TOTAL)
        .map(|s| s.value)
        .sum();
    assert_eq!(jobs, 2.0);
    // Histogram series carry cumulative buckets plus _sum/_count.
    assert!(samples.iter().any(|s| s.name == format!("{}_count", names::JOB_STAGE_SECONDS)));
    assert!(samples
        .iter()
        .any(|s| s.labels.iter().any(|(k, _)| k == "le")));
}

/// Metric names neither a default-config semester nor the acceptance
/// chaos run emits, each with the reason it is still a live name.
const NOT_EMITTED_BY_THE_CATALOGUE_RUNS: &[(&str, &str)] = &[
    (names::RATELIMIT_DENIED_TOTAL, "both drivers deploy with rate_limit: None"),
    (names::JOBS_MALFORMED_TOTAL, "only a task message that fails to decode moves it"),
    (
        names::SANDBOX_RUN_SECONDS,
        "never emitted: its samples were `rai_job_stage_seconds{stage=\"ran\"}`'s; the repo benchmark's replay names it",
    ),
    (
        names::WORKER_ACTIVE_JOBS,
        "never emitted: no worker holds a second claim, so it read 0 in every snapshot; the repo benchmark's replay names it",
    ),
    (names::WAL_APPENDS_TOTAL, "durable deployments only"),
    (names::WAL_BYTES_TOTAL, "durable deployments only"),
    (names::WAL_FSYNC_BATCHES_TOTAL, "durable deployments only"),
    (names::WAL_REPLAYED_RECORDS_TOTAL, "durable deployments only"),
];

/// Every `pub const` of `rai_telemetry::names`, read from its source.
fn catalogued_names() -> Vec<(String, String)> {
    let source = include_str!("../crates/telemetry/src/lib.rs");
    let module = source.split("pub mod names {").nth(1).expect("names module");
    let module = &module[..module.find("\n}").expect("names module closes")];
    module
        .lines()
        .filter_map(|line| line.trim().strip_prefix("pub const "))
        .map(|decl| {
            let (ident, rest) = decl.split_once(':').expect("typed const");
            let value = rest.split('"').nth(1).expect("string literal");
            (ident.to_string(), value.to_string())
        })
        .collect()
}

#[test]
fn every_metric_name_is_documented_and_emitted() {
    use rai::workload::chaos::{run_chaos, ChaosConfig};
    use rai::workload::semester::run_semester;
    use rai::workload::SemesterConfig;

    let catalogue = catalogued_names();
    assert_eq!(catalogue.len(), 39, "parsed {} names", catalogue.len());
    let design = include_str!("../DESIGN.md");
    let emitted: std::collections::BTreeSet<String> = [
        run_semester(&SemesterConfig::scaled(4, 3, 2016)).metrics,
        run_chaos(&ChaosConfig::acceptance(2016)).metrics,
    ]
    .iter()
    .flat_map(|m| {
        let counters = m.counters.iter().map(|(k, _)| k.name.clone());
        let gauges = m.gauges.iter().map(|(k, _)| k.name.clone());
        counters.chain(gauges).chain(m.histograms.iter().map(|(k, _)| k.name.clone()))
    })
    .collect();

    // Every mismatch in one report, not the first one.
    let mut problems = Vec::new();
    for (ident, name) in &catalogue {
        if !design.contains(&format!("`{name}`")) {
            problems.push(format!("{name} ({ident}) is not in DESIGN.md"));
        }
        let allowed = NOT_EMITTED_BY_THE_CATALOGUE_RUNS.iter().any(|(n, _)| n == name);
        match (emitted.contains(name), allowed) {
            (false, false) => problems.push(format!("{name} ({ident}) is never emitted")),
            (true, true) => problems.push(format!("{name} is emitted: drop it from the allow-list")),
            _ => {}
        }
    }
    for &(name, reason) in NOT_EMITTED_BY_THE_CATALOGUE_RUNS {
        if !catalogue.iter().any(|(_, n)| n == name) || reason.is_empty() {
            problems.push(format!("allow-list entry {name} names no live metric or gives no reason"));
        }
    }
    // Nothing is exported under a name the catalogue does not know.
    for name in &emitted {
        if !catalogue.iter().any(|(_, n)| n == name) {
            problems.push(format!("{name} is emitted but not catalogued"));
        }
    }
    assert!(problems.is_empty(), "{problems:#?}");
}

#[test]
fn every_exported_series_survives_the_prometheus_round_trip() {
    let (system, _) = driven_system(3);
    let metrics = system.report().metrics;
    // The contended-wait counter exists (zero is fine on an idle or
    // single-core host — it only counts waits that actually blocked).
    assert!(metrics.counter(names::LOCK_WAIT_MICROS_TOTAL, &[]).is_some());
    let text = rai::telemetry::render_prometheus(&metrics);
    let samples = parse_prometheus(&text).expect("exposition must parse");
    // The sample with this name (plus suffix) and exactly these labels.
    let exported = |key: &rai::telemetry::MetricKey, suffix: &str| -> f64 {
        let name = format!("{}{suffix}", key.name);
        samples
            .iter()
            .find(|s| s.name == name && s.labels == key.labels)
            .unwrap_or_else(|| panic!("{name} {:?} missing from exposition", key.labels))
            .value
    };
    assert!(metrics.counter_total(names::JOBS_TOTAL) > 0 && !metrics.histograms.is_empty());
    for (key, value) in &metrics.counters {
        assert_eq!(exported(key, ""), *value as f64, "counter {}", key.render());
    }
    for (key, value) in &metrics.gauges {
        assert_eq!(exported(key, ""), *value, "gauge {}", key.render());
    }
    for (key, hist) in &metrics.histograms {
        assert_eq!(exported(key, "_count"), hist.total() as f64, "{}_count", key.render());
        assert_eq!(exported(key, "_sum"), hist.sum(), "{}_sum", key.render());
    }
}

/// `system.report()`'s broker, store, db, WAL and fault series read
/// what each component's own stats read, and it carries no other
/// series of those components.
fn assert_report_is_the_components(system: &RaiSystem) {
    let report = system.report();
    let m = &report.metrics;
    let (b, u, d) = (system.broker().stats(), system.store().usage(), system.db().total_stats());
    assert_eq!(report.store, u);
    let injected = system.fault_injector().injected_counts().iter().map(|&(_, n)| n).sum();
    let counters = [
        (names::BROKER_PUBLISHED_TOTAL, b.published),
        (names::BROKER_ACKED_TOTAL, b.acked),
        (names::BROKER_REQUEUED_TOTAL, b.requeued),
        (names::DEAD_LETTERED_TOTAL, b.dead_lettered),
        (names::FAULTS_INJECTED_TOTAL, injected),
        (names::STORE_BYTES_UPLOADED_TOTAL, u.bytes_uploaded),
        (names::STORE_BYTES_DOWNLOADED_TOTAL, u.bytes_downloaded),
        (names::STORE_PUTS_TOTAL, u.puts),
        (names::STORE_GETS_TOTAL, u.gets),
        (names::STORE_CHUNKS_DEDUP_TOTAL, u.chunks_dedup_total),
        (names::STORE_BYTES_WIRE_TOTAL, u.bytes_wire),
        (names::DB_INSERTS_TOTAL, d.inserts),
        (names::DB_QUERIES_TOTAL, d.queries),
        (names::DB_UPDATES_TOTAL, d.updates),
    ];
    let gauges = [
        (names::BROKER_QUEUE_DEPTH, b.depth as u64),
        (names::BROKER_IN_FLIGHT, b.in_flight as u64),
        (names::BROKER_CHANNELS, b.channels as u64),
        (names::STORE_BYTES_STORED, u.bytes_stored),
        (names::STORE_BYTES_PHYSICAL, u.bytes_physical),
        (names::STORE_METADATA_BYTES, u.metadata_bytes),
        (names::STORE_CHUNKS, u.chunks),
    ];
    let mut checked = vec![names::LOCK_WAIT_MICROS_TOTAL];
    for (name, want) in counters {
        assert_eq!(m.counter(name, &[]), Some(want), "{name}");
        checked.push(name);
    }
    for (name, want) in gauges {
        assert_eq!(m.gauge(name, &[]), Some(want as f64), "{name}");
        checked.push(name);
    }
    let mut wal_series = 0;
    for (log, wal) in [("db", system.db().wal()), ("store", system.store().wal())] {
        let Some(wal) = wal else { continue };
        let w = wal.stats();
        for (name, want) in [
            (names::WAL_APPENDS_TOTAL, w.appends),
            (names::WAL_BYTES_TOTAL, w.bytes),
            (names::WAL_FSYNC_BATCHES_TOTAL, w.fsync_batches),
            (names::WAL_REPLAYED_RECORDS_TOTAL, w.replayed),
        ] {
            assert_eq!(m.counter(name, &[("log", log)]), Some(want), "{name}{{log={log:?}}}");
            checked.push(name);
            wal_series += 1;
        }
    }
    let components = ["rai_broker_", "rai_store_", "rai_db_", "rai_wal_", "rai_dead_", "rai_faults_", "rai_lock_"];
    let keys = m.counters.iter().map(|(k, _)| k).chain(m.gauges.iter().map(|(k, _)| k));
    let theirs: Vec<_> = keys.filter(|k| components.iter().any(|p| k.name.starts_with(p))).collect();
    for key in &theirs {
        assert!(checked.contains(&key.name.as_str()), "{} is not checked", key.render());
    }
    assert_eq!(theirs.len(), counters.len() + gauges.len() + 1 + wal_series);
}

#[test]
fn a_report_carries_the_component_series() {
    use rai::sim::VirtualClock;
    use rai_wal::MemDisk;
    use std::sync::Arc;

    // In memory: no WAL series.
    let (system, _) = driven_system(3);
    assert!(system.db().wal().is_none());
    assert_report_is_the_components(&system);

    // Durable, after a crash and a recovery: the WAL series carry what
    // replay recovered beside what the new process appended.
    let config = || SystemConfig { workers: 2, rate_limit: None, ..Default::default() };
    let (db_disk, store_disk) = (MemDisk::new(), MemDisk::new());
    let clock = VirtualClock::new();
    let mut system = RaiSystem::with_clock_durable(
        config(),
        clock.clone(),
        Arc::new(db_disk.clone()),
        Arc::new(store_disk.clone()),
    );
    let creds = system.register_team("observed", &["ada"]);
    for _ in 0..3 {
        assert!(system.submit(&creds, &ProjectDir::sample_cuda_project()).expect("accepted").success);
    }
    system.sync_wals();
    drop(system);
    let (mut system, _) = RaiSystem::recover_with_clock(
        config(),
        clock,
        Arc::new(db_disk.clone()),
        Arc::new(store_disk.clone()),
        None,
    );
    let creds = system.reregister_team("observed");
    system.republish_pending();
    system.drain();
    assert!(system.submit(&creds, &ProjectDir::sample_cuda_project()).expect("accepted").success);
    let replayed = system.db().wal().expect("durable").stats().replayed;
    assert!(replayed > 0, "the recovery replayed the db log");
    assert_report_is_the_components(&system);
}
