//! The traced run: phase trace, layer replay, exact counts and busy
//! shares, assembled into the per-layer metrics. Nothing here feeds an
//! end-to-end number; those come from the untraced run.

use crate::catalogue::PER_LAYER;
use crate::e2e::{self, Plan};
use crate::json::Json;
use crate::layers::{self, Shape};
use crate::reference::Reference;
use crate::report::{Metric, RunReport};
use crate::stats::median;
use crate::trace::{self, PhasePlan, Recorder, PHASES};
use crate::workloads::Counts;
use crate::MIB;
use std::path::Path;
use std::time::{Duration, Instant};

/// Share of `--seconds` spent on untraced iterations (for
/// `workload.driver_overhead_us` and the exact counts).
const UNTRACED_SHARE: f64 = 0.15;
/// Share of `--seconds` spent on phase passes, spans off and on.
const PHASE_SHARE: f64 = 0.5;
/// Each layer-replay measurement runs this long at the contract's
/// `run_seconds`, and proportionally less on shorter runs.
const LAYER_WINDOW_SECS: f64 = 0.1;

/// Fill `report` with the per-layer metrics; returns the spans of the
/// last traced pass.
fn measure(report: &mut RunReport, plan: &Plan) -> Result<Recorder, String> {
    // Per-layer timings are as measured, not normalised: they are read
    // against each other within this run, not against a bound.
    let reference = Reference::new();
    let prepared = e2e::prepare(report.workload, plan, 1, &reference)?;
    let timed = e2e::timed_iterations(&prepared, plan.seconds * UNTRACED_SHARE, &reference)?;
    let untraced_us = median(
        &timed
            .iter()
            .map(|t| t.iteration.wall_s * 1e6 / t.iteration.completed as f64)
            .collect::<Vec<_>>(),
    );
    let last = &timed.last().expect("at least one iteration").iteration;
    let (workload_counts, completed) = (last.counts, last.completed);

    // Phase passes, spans off then on, until the budget is spent.
    let phase_plan = PhasePlan::of(&prepared.workload);
    let mut walls_off = Vec::new();
    let mut walls_on = Vec::new();
    let mut recoveries = Vec::new();
    let mut phase_us: Vec<Vec<f64>> = vec![Vec::new(); PHASES.len()];
    let mut last_on = None;
    let start = Instant::now();
    while walls_on.is_empty() || start.elapsed().as_secs_f64() < plan.seconds * PHASE_SHARE {
        // Alternate which goes first, so neither side always inherits
        // the other's warm caches and allocator state.
        let first_on = walls_on.len() % 2 == 1;
        for spans_on in [first_on, !first_on] {
            let mut rec = Recorder::new(spans_on, phase_plan.jobs.len());
            let pass = trace::pass(&phase_plan, phase_plan.durable, &mut rec);
            report.attempted += pass.jobs;
            report.failed += pass.failed;
            recoveries.extend(pass.recovery);
            if spans_on {
                for (samples, (phase, _)) in phase_us.iter_mut().zip(PHASES) {
                    samples.extend(rec.micros_of(phase));
                }
                walls_on.push(pass.wall_s);
                last_on = Some((pass, rec));
            } else {
                walls_off.push(pass.wall_s);
            }
        }
    }
    if !phase_plan.durable {
        // This workload does not journal; one extra durable pass prices
        // recovery of its corpus all the same.
        recoveries.extend(trace::pass(&phase_plan, true, &mut Recorder::new(false, 0)).recovery);
    }
    let (pass, spans) = last_on.expect("at least one traced pass");
    let jobs = pass.jobs as f64;
    let traced_wall = median(&walls_on);
    let phase_total_us: f64 = phase_us.iter().flatten().sum();
    let phase_mean_us = phase_total_us / (walls_on.len() as f64 * jobs);

    let window = Duration::from_secs_f64(
        LAYER_WINDOW_SECS * (plan.seconds / f64::from(crate::catalogue::RUN_SECONDS)).min(1.0),
    );
    let shape = Shape {
        submissions: phase_plan.prelude.len() + phase_plan.jobs.len(),
        teams: phase_plan.team_names.len(),
        workers: phase_plan.workers,
    };
    let mut metrics = layers::replay(&phase_plan, &shape, window);

    // ---- phase trace ------------------------------------------------
    for (samples, (_, metric)) in phase_us.iter().zip(PHASES) {
        if let Some(name) = metric {
            metrics.push(Metric::median_of(name, "us", samples));
        }
    }
    let recover_us: Vec<f64> = recoveries.iter().map(|r| r.secs * 1e6).collect();
    let recover_rate: Vec<f64> = recoveries
        .iter()
        .map(|r| r.records as f64 / r.secs)
        .collect();
    metrics.push(Metric::median_of("core.recover_us", "us", &recover_us));
    metrics.push(Metric::median_of(
        "core.recover_records_per_s",
        "1/s",
        &recover_rate,
    ));
    metrics.push(Metric::exact(
        "core.phase_sum_share",
        "share",
        phase_total_us / 1e6 / walls_on.iter().sum::<f64>(),
    ));
    metrics.push(Metric::exact(
        "workload.driver_overhead_us",
        "us",
        untraced_us - phase_mean_us,
    ));
    // Each traced pass against the untraced pass run beside it, so slow
    // drift of the host cancels.
    let overheads: Vec<f64> = walls_on
        .iter()
        .zip(&walls_off)
        .map(|(on, off)| on / off - 1.0)
        .collect();
    metrics.push(Metric::median_of(
        "trace.overhead_share",
        "share",
        &overheads,
    ));

    // ---- exact counts of the workload itself ------------------------
    let w = &workload_counts;
    for (name, n) in [
        ("store.puts_n", w.store_puts),
        ("store.gets_n", w.store_gets),
        ("store.chunks_offered_n", w.store_chunks_offered),
        ("broker.published_n", w.broker_published),
        ("broker.acked_n", w.broker_acked),
        ("broker.requeued_n", w.broker_requeued),
        ("broker.dead_lettered_n", w.broker_dead_lettered),
        ("db.ops_n", w.db_ops()),
        ("wal.appends_n", w.wal_appends),
        ("wal.fsync_batches_n", w.wal_fsync_batches),
        ("wal.replayed_n", w.wal_replayed),
        ("faults.injected_n", w.faults_injected),
    ] {
        metrics.push(Metric::exact(name, "count", n as f64));
    }
    metrics.push(Metric::exact(
        "wal.bytes_per_submission",
        "B",
        w.wal_bytes as f64 / completed as f64,
    ));
    metrics.push(Metric::exact(
        "store.dedup_hit_share",
        "share",
        w.store_chunks_dedup as f64 / w.store_chunks_offered.max(1) as f64,
    ));

    // ---- busy shares: traced-pass counts x isolated per-op medians --
    let busy = busy_seconds(&pass.counts, jobs, &metrics);
    let coverage: f64 = busy.iter().map(|(_, secs)| secs).sum::<f64>() / traced_wall;
    for (name, secs) in busy {
        metrics.push(Metric::exact(name, "share", secs / traced_wall));
    }
    metrics.push(Metric::exact("layers.coverage_share", "share", coverage));
    metrics.push(Metric::exact(
        "layers.residual_share",
        "share",
        1.0 - coverage,
    ));

    // Report in catalogue order; a name the catalogue lacks, or one this
    // run failed to produce, is a bug in the benchmark.
    report.metrics = PER_LAYER
        .iter()
        .map(|spec| {
            metrics
                .iter()
                .find(|m| m.name == spec.name)
                .cloned()
                .ok_or_else(|| format!("per-layer metric '{}' was not measured", spec.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    report.warmups = plan.warmups(&prepared.workload);
    report.iterations = walls_on.len();
    Ok(spans)
}

/// Estimated seconds each layer was busy during one traced pass:
/// what the pass's own ledgers counted, priced at the layer replay's
/// isolated medians.
fn busy_seconds(c: &Counts, jobs: f64, replay: &[Metric]) -> Vec<(&'static str, f64)> {
    let value = |name: &str| {
        replay
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let us = |name: &str| value(name) / 1e6;
    let uploaded = c.bytes_uploaded as f64 / MIB;
    let downloaded = c.bytes_downloaded as f64 / MIB;
    let offered = c.store_chunks_offered as f64;
    let fresh = 1.0 - c.store_chunks_dedup as f64 / offered.max(1.0);
    let chunking = uploaded / value("archive.chunk_mib_per_s");
    let probing = offered / value("store.has_chunks_probes_per_s");
    let installing = uploaded
        * (fresh / value("store.put_delta_fresh_mib_per_s")
            + (1.0 - fresh) / value("store.put_delta_dedup_mib_per_s"));
    // An upload is chunking + probing + installing + the uploader's own
    // bookkeeping; only the last is the delta layer's.
    let uploading = uploaded
        * (fresh / value("delta.upload_cold_mib_per_s")
            + (1.0 - fresh) / value("delta.upload_warm_mib_per_s"));
    vec![
        (
            "archive.busy_share",
            uploaded / value("archive.write_container_mib_per_s")
                + chunking
                + downloaded / value("archive.restore_mib_per_s"),
        ),
        (
            "delta.busy_share",
            (uploading - chunking - probing - installing).max(0.0),
        ),
        (
            "store.busy_share",
            installing + probing + downloaded / value("store.get_mib_per_s"),
        ),
        (
            "db.busy_share",
            c.db_inserts as f64 * us("db.insert_us")
                + c.db_updates as f64 * us("db.upsert_us")
                + c.db_queries as f64 * us("db.find_point_us"),
        ),
        (
            "broker.busy_share",
            c.broker_published as f64 * us("broker.publish_us")
                + c.broker_acked as f64 * us("broker.recv_ack_us"),
        ),
        ("sandbox.busy_share", jobs * us("sandbox.job_us")),
        (
            "auth.busy_share",
            jobs * (us("auth.sign_us") + us("auth.verify_us")),
        ),
        // The build file is parsed by client and worker; the request is
        // emitted and parsed once each.
        (
            "yaml.busy_share",
            jobs * (2.0 * us("core.spec_parse_us") + us("core.request_codec_us")),
        ),
        (
            "wal.busy_share",
            c.wal_appends as f64 * us("wal.append_us")
                + c.wal_fsync_batches as f64 * us("wal.sync_us"),
        ),
        ("telemetry.busy_share", jobs * us("telemetry.job_events_us")),
    ]
}

/// Run `name` traced and report the per-layer metrics; the spans of the
/// last traced pass go to `<out_dir>/trace-<name>.json`.
pub fn run(name: &'static str, plan: &Plan, out_dir: &Path) -> RunReport {
    let mut report = RunReport::new(name, plan.seed, true);
    match measure(&mut report, plan) {
        Ok(spans) => {
            report.correct = true;
            let file = out_dir.join(format!("trace-{name}.json"));
            let doc = Json::obj([
                ("workload", Json::Str(name.to_string())),
                ("seed", Json::Num(plan.seed as f64)),
                ("spans", spans.to_json()),
            ]);
            // The spans are a by-product: failing to write them must
            // not fail the measurement.
            if let Err(e) =
                std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&file, doc.render()))
            {
                eprintln!("warning: could not write {}: {e}", file.display());
            }
        }
        Err(e) => report.error = Some(e),
    }
    report
}
