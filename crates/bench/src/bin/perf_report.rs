//! The **fingerprint baseline**: the pinned semester and chaos
//! workloads' fingerprints plus per-subsystem micro-timings, written to
//! `BENCH_perf.json`. Wall-clock and throughput of the pipeline itself
//! are the repo benchmark's job (`benchmark/`, `BENCHMARK.json`).
//!
//! Write mode (default) runs:
//!
//! 1. an indexed-query micro scenario: the same query batch against an
//!    indexed and an unindexed collection, asserting identical results
//!    and a >= 2x speedup from the planner;
//! 2. the semester workload (fingerprint recorded);
//! 3. the chaos acceptance scenario (audit must pass, fingerprint
//!    recorded);
//! 4. chunker and broker fan-out micro-timings.
//!
//! Check mode (`--check`, the CI job) re-runs the semester and chaos
//! scenarios, verifies the committed `BENCH_perf.json` schema, and
//! asserts both fingerprints still match the committed values exactly.
//! It writes nothing.
//!
//! ```text
//! cargo run --release -p rai-bench --bin perf_report [--check] [seed]
//! ```
//!
//! The JSON schema is documented in EXPERIMENTS.md. Fingerprints are
//! exact gates; the micro numbers are machine-dependent and recorded
//! only.

use rai_archive::chunk::{chunk_bytes, ChunkerParams};
use rai_bench::extract;
use rai_broker::Broker;
use rai_db::{doc, Collection};
use rai_workload::chaos::{run_chaos, ChaosConfig, ChaosResult};
use rai_workload::semester::{run_semester, SemesterConfig, SemesterResult};
use std::time::Instant;

/// Pinned scale, matching the store baseline (`store_report`).
const TEAMS: usize = 12;
const DAYS: u64 = 21;

const SCHEMA: &str = "rai-perf-bench/7";

/// Floor asserted in write mode: what the planner buys over a scan.
const MIN_MICRO_SPEEDUP: f64 = 2.0;

struct Timed<T> {
    result: T,
    wall: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let start = Instant::now();
    let result = f();
    Timed {
        result,
        wall: start.elapsed().as_secs_f64(),
    }
}

// ---------------------------------------------------------------- micro

/// Indexed-query micro scenario: a point-lookup + range batch against
/// two collections holding identical documents, one with secondary
/// indexes and one without. Returns (indexed_wall, scan_wall).
fn indexed_query_micro() -> (f64, f64) {
    const DOCS: usize = 8_000;
    const QUERIES: u64 = 400;

    let build = |indexed: bool| {
        let mut c = Collection::new();
        if indexed {
            c.create_index("job_id");
            c.create_index("kind");
        }
        let docs = (0..DOCS as u64)
            .map(|i| {
                doc! {
                    "job_id" => i,
                    "kind" => format!("kind-{}", i % 8),
                    "runtime_secs" => 0.25 + (i as f64 * 3.77) % 90.0,
                }
            })
            .collect::<Vec<_>>();
        c.insert_many(docs);
        c
    };
    let indexed = build(true);
    let scan = build(false);

    let run_batch = |c: &Collection| {
        let mut touched = 0usize;
        for q in 0..QUERIES {
            let id = (q * 19) % DOCS as u64;
            touched += c.find_one(&doc! { "job_id" => id }).is_some() as usize;
            let lo = (q * 13) % (DOCS as u64 - 64);
            touched += c
                .find(&doc! {
                    "kind" => format!("kind-{}", q % 8),
                    "job_id" => doc! { "$gte" => lo, "$lt" => lo + 64 },
                })
                .len();
        }
        touched
    };

    // Results must agree before the timings mean anything.
    assert_eq!(
        run_batch(&indexed),
        run_batch(&scan),
        "planner and full scan disagree on the micro batch"
    );
    let fast = timed(|| run_batch(&indexed));
    let slow = timed(|| run_batch(&scan));
    assert_eq!(fast.result, slow.result);
    (fast.wall, slow.wall)
}

fn chunker_micro() -> f64 {
    let buf = rai_bench::pseudorandom(8 << 20, &mut 0x5EED);
    let t = timed(|| chunk_bytes(&buf, ChunkerParams::DEFAULT));
    assert_eq!(t.result.0.total_len, buf.len() as u64);
    (buf.len() as f64 / (1 << 20) as f64) / t.wall
}

fn broker_fanout_micro() -> f64 {
    const CHANNELS: usize = 16;
    const MESSAGES: usize = 10_000;
    let broker = Broker::default();
    let subs: Vec<_> = (0..CHANNELS)
        .map(|i| broker.subscribe("perf", &format!("ch{i}")))
        .collect();
    let body = vec![0x42u8; 256];
    let t = timed(|| {
        for _ in 0..MESSAGES {
            broker.publish("perf", body.clone()).expect("publish");
        }
        let mut delivered = 0usize;
        for s in &subs {
            while let Some(m) = s.try_recv() {
                s.ack(m.id);
                delivered += 1;
            }
        }
        delivered
    });
    assert_eq!(t.result, CHANNELS * MESSAGES, "every copy delivered");
    (CHANNELS * MESSAGES) as f64 / t.wall
}

// ----------------------------------------------------------------- json

struct Report {
    seed: u64,
    semester: SemesterResult,
    chaos: ChaosResult,
    micro_indexed_wall: f64,
    micro_scan_wall: f64,
    chunker_mib_s: f64,
    fanout_msgs_s: f64,
}

fn render(r: &Report) -> String {
    format!(
        r#"{{
  "schema": "{SCHEMA}",
  "seed": {seed},
  "semester": {{
    "teams": {TEAMS},
    "days": {DAYS},
    "submissions": {submissions},
    "fingerprint": "{sem_fp:#018x}"
  }},
  "chaos": {{
    "accepted": {accepted},
    "audit": "pass",
    "fingerprint": "{chaos_fp:#018x}"
  }},
  "micro": {{
    "indexed_query_wall_secs": {indexed:.6},
    "full_scan_wall_secs": {scan:.6},
    "indexed_query_speedup": {speedup:.2},
    "chunker_mib_per_sec": {chunker:.0},
    "broker_fanout_msgs_per_sec": {fanout:.0}
  }}
}}
"#,
        seed = r.seed,
        submissions = r.semester.total_submissions,
        sem_fp = r.semester.fingerprint(),
        accepted = r.chaos.accepted.len(),
        chaos_fp = r.chaos.fingerprint,
        indexed = r.micro_indexed_wall,
        scan = r.micro_scan_wall,
        speedup = r.micro_scan_wall / r.micro_indexed_wall,
        chunker = r.chunker_mib_s,
        fanout = r.fanout_msgs_s,
    )
}

// ----------------------------------------------------------------- main

fn check(seed: u64) {
    let committed =
        std::fs::read_to_string("BENCH_perf.json").expect("read committed BENCH_perf.json");
    assert_eq!(extract(&committed, "schema", "schema"), SCHEMA, "unexpected schema");
    let committed_sem_fp = extract(&committed, "semester", "fingerprint");
    let committed_chaos_fp = extract(&committed, "chaos", "fingerprint");

    let semester = run_semester(&SemesterConfig::scaled(TEAMS, DAYS, seed));
    let sem_fp = format!("{:#018x}", semester.fingerprint());
    assert_eq!(
        sem_fp, committed_sem_fp,
        "semester fingerprint drifted from the committed baseline"
    );
    let chaos = run_chaos(&ChaosConfig::acceptance(seed));
    chaos.verify().expect("chaos audit");
    let chaos_fp = format!("{:#018x}", chaos.fingerprint);
    assert_eq!(
        chaos_fp, committed_chaos_fp,
        "chaos fingerprint drifted from the committed baseline"
    );
    println!("perf check: fingerprints match ({sem_fp} / {chaos_fp})");
}

fn main() {
    let args = rai_bench::ReportArgs::from_env();
    let seed = args.seed();
    if args.check {
        check(seed);
        return;
    }

    rai_bench::header(&format!("fingerprint baseline — seed {seed}"));

    let (micro_indexed_wall, micro_scan_wall) = indexed_query_micro();
    let micro_speedup = micro_scan_wall / micro_indexed_wall;
    println!(
        "  indexed-query micro         {micro_speedup:.1}x (indexed {:.2}ms vs scan {:.2}ms)",
        micro_indexed_wall * 1e3,
        micro_scan_wall * 1e3
    );
    assert!(
        micro_speedup >= MIN_MICRO_SPEEDUP,
        "indexed-query micro speedup {micro_speedup:.2}x below the {MIN_MICRO_SPEEDUP}x floor"
    );

    let semester = run_semester(&SemesterConfig::scaled(TEAMS, DAYS, seed));
    println!(
        "  semester ({TEAMS} teams x {DAYS} days, {} submissions)",
        semester.total_submissions
    );
    println!("    fingerprint               {:#018x}", semester.fingerprint());

    let chaos = run_chaos(&ChaosConfig::acceptance(seed));
    chaos.verify().expect("chaos audit");
    println!("  chaos ({} accepted, audit pass)", chaos.accepted.len());
    println!("    fingerprint               {:#018x}", chaos.fingerprint);

    let chunker_mib_s = chunker_micro();
    let fanout_msgs_s = broker_fanout_micro();
    println!("  chunker                     {chunker_mib_s:.0} MiB/s");
    println!("  broker fan-out (16ch)       {fanout_msgs_s:.0} msg/s");

    let report = Report {
        seed,
        semester,
        chaos,
        micro_indexed_wall,
        micro_scan_wall,
        chunker_mib_s,
        fanout_msgs_s,
    };
    std::fs::write("BENCH_perf.json", render(&report)).expect("write BENCH_perf.json");
    println!("\nwrote BENCH_perf.json (micro {micro_speedup:.1}x >= {MIN_MICRO_SPEEDUP}x)");
}
