//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repo root is [`benchmark_json`] rendered; a test keeps them equal.

use crate::json::Json;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One set of inputs the benchmark runs.
pub struct WorkloadSpec {
    pub name: &'static str,
    /// Why this workload exists, in one line (≤ 200 characters).
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "semester",
        why: "12-team 21-day course of KiB-size resubmissions: per-job fixed costs (broker, db, sandbox, yaml, auth, telemetry, scheduling) do the work, byte-crunching almost none",
    },
    WorkloadSpec {
        name: "bulk_fresh",
        why: "pairwise-distinct 2.5 MiB trees, the paper's mean upload: container write, chunker, chunk install, fetch/restore and mount dominate; per-job fixed costs vanish",
    },
    WorkloadSpec {
        name: "bulk_resubmit",
        why: "the same trees resubmitted with ~3% of bytes changed: has_chunks probes, digest-cache hits and dedup refcounting do the work, chunk install little",
    },
    WorkloadSpec {
        name: "durable_chaos",
        why: "960-submission fault-plan course on a WAL-backed deployment, killed mid-run and recovered: the only workload where WAL, intents, faults, retries and replay run",
    },
];

/// A metric a user of the system would see, with the share of the
/// parent's median by which it may worsen before a change is rejected.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// A ratio of counts: bit-identical between runs of one commit on
    /// one seed.
    pub exact: bool,
}

pub const END_TO_END: [EndToEnd; 7] = [
    // Timed metrics: this class of host drifts by 10-20% for minutes at
    // a time (README, "Baseline observations"), so nothing tighter than
    // the contract's ceiling survives ten runs.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "submissions_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "payload_mib_per_s",
        unit: "MiB/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    // Count ratios: exact for a seed. `semester` varies between seeds
    // (quartile spread of ten seeds up to 4.1% and 10.7%; the other
    // workloads: under 0.5%): three times that, up to the 25% ceiling.
    EndToEnd {
        name: "wire_bytes_per_payload_byte",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.125,
        exact: true,
    },
    EndToEnd {
        name: "stored_bytes_per_payload_byte",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.25,
        exact: true,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        exact: false,
    },
    EndToEnd {
        name: "succeeded_share",
        unit: "share",
        better: Better::Higher,
        bound: 0.01,
        exact: true,
    },
];

/// A metric of a single layer (crate). No bound: these explain a move
/// in an end-to-end metric, they do not gate one.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count or a ratio of counts: bit-identical between runs of one
    /// commit on one seed.
    pub exact: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

const fn count(name: &'static str) -> PerLayer {
    exact(name, "count", Better::Lower)
}

pub const PER_LAYER: [PerLayer; 73] = [
    // Phase trace: the serial one-job driver, median per call.
    lower("core.begin_submit_us", "us"),
    lower("core.pop_task_us", "us"),
    lower("core.claim_popped_us", "us"),
    lower("core.execute_us", "us"),
    lower("core.commit_us", "us"),
    lower("core.wait_us", "us"),
    lower("core.recover_us", "us"),
    higher("core.recover_records_per_s", "1/s"),
    higher("core.phase_sum_share", "share"),
    lower("workload.driver_overhead_us", "us"),
    lower("trace.overhead_share", "share"),
    // Layer replay: isolated calls on the workload's own corpus.
    higher("archive.write_container_mib_per_s", "MiB/s"),
    higher("archive.chunk_mib_per_s", "MiB/s"),
    exact("archive.chunks_per_kib", "1/KiB", Better::Lower),
    higher("archive.assemble_mib_per_s", "MiB/s"),
    higher("archive.restore_mib_per_s", "MiB/s"),
    higher("delta.prepare_mib_per_s", "MiB/s"),
    higher("delta.upload_cold_mib_per_s", "MiB/s"),
    higher("delta.upload_warm_mib_per_s", "MiB/s"),
    higher("store.put_delta_fresh_mib_per_s", "MiB/s"),
    higher("store.put_delta_dedup_mib_per_s", "MiB/s"),
    higher("store.has_chunks_probes_per_s", "1/s"),
    higher("store.get_mib_per_s", "MiB/s"),
    exact("store.dedup_hit_share", "share", Better::Higher),
    lower("store.sweep_lifecycle_us", "us"),
    lower("db.upsert_us", "us"),
    lower("db.insert_us", "us"),
    lower("db.find_point_us", "us"),
    lower("db.ranking_query_us", "us"),
    exact("db.candidates_per_result", "ratio", Better::Lower),
    lower("broker.publish_us", "us"),
    lower("broker.recv_ack_us", "us"),
    lower("broker.log_topic_cycle_us", "us"),
    lower("broker.reclaim_expired_us", "us"),
    lower("sandbox.job_us", "us"),
    higher("sandbox.mount_mib_per_s", "MiB/s"),
    lower("yaml.parse_us", "us"),
    lower("core.spec_parse_us", "us"),
    lower("core.request_codec_us", "us"),
    lower("auth.sign_us", "us"),
    lower("auth.verify_us", "us"),
    lower("wal.append_us", "us"),
    lower("wal.sync_us", "us"),
    higher("wal.replay_records_per_s", "1/s"),
    exact("wal.bytes_per_submission", "B", Better::Lower),
    lower("telemetry.job_events_us", "us"),
    lower("telemetry.snapshot_us", "us"),
    lower("exec.run_jobs_inline_us", "us"),
    lower("exec.run_jobs_dispatch_us", "us"),
    // Exact counts of one untimed iteration of the workload.
    count("store.puts_n"),
    count("store.gets_n"),
    count("store.chunks_offered_n"),
    count("broker.published_n"),
    count("broker.acked_n"),
    count("broker.requeued_n"),
    count("broker.dead_lettered_n"),
    count("db.ops_n"),
    count("wal.appends_n"),
    count("wal.fsync_batches_n"),
    count("wal.replayed_n"),
    count("faults.injected_n"),
    // Count x per-op median, as a share of the traced wall.
    lower("archive.busy_share", "share"),
    lower("delta.busy_share", "share"),
    lower("store.busy_share", "share"),
    lower("db.busy_share", "share"),
    lower("broker.busy_share", "share"),
    lower("sandbox.busy_share", "share"),
    lower("auth.busy_share", "share"),
    lower("yaml.busy_share", "share"),
    lower("wal.busy_share", "share"),
    lower("telemetry.busy_share", "share"),
    higher("layers.coverage_share", "share"),
    lower("layers.residual_share", "share"),
];

/// How long one driver run measures, in seconds.
pub const RUN_SECONDS: u32 = 20;

/// The contents of the repo-root `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let str = |s: &str| Json::Str(s.to_string());
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--offline",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                    "run",
                ]
                .map(str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![str("benchmark")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", str(w.name)), ("why", str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", str(m.name)),
                            ("unit", str(m.unit)),
                            ("better", str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", str(m.name)),
                            ("unit", str(m.unit)),
                            ("better", str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_meets_the_contract_limits() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && names.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(benchmark_json().render_pretty().len() <= 64 << 10);
    }
}
