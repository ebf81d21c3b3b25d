//! The **store dedup baseline**: measures what the content-addressed
//! store saves on the semester and chaos workloads — KiB-size
//! containers — and on one resubmitted 2.5 MiB tree, and writes the
//! numbers to `BENCH_store.json` as the perf-trajectory baseline.
//!
//! Per seed, this bin:
//!
//! 1. runs the pinned semester workload and reports logical vs
//!    physical resident bytes, wire bytes vs logical upload bytes,
//!    and chunk/dedup counts;
//! 2. runs the chaos acceptance scenario and asserts the
//!    no-lost/no-duplicated audit still holds with dedup enabled;
//! 3. asserts the dedup ratio floor (physical ≤ 1/3 of logical);
//! 4. re-runs the semester on the same seed and asserts the rendered
//!    JSON is byte-identical (determinism gate);
//! 5. uploads one 2.5 MiB tree (the paper's mean upload) fresh, then
//!    again with one of its 64 KiB files regenerated, and reports the
//!    exact chunk and byte counts of both — the large-payload regime,
//!    where chunk size follows the payload (DESIGN.md §10);
//! 6. measures chunker throughput on a synthetic buffer (printed to
//!    stdout only — wall-clock numbers never go into the JSON).
//!
//! ```text
//! cargo run --release -p rai-bench --bin store_report [seed]
//! ```
//!
//! The JSON schema is documented in EXPERIMENTS.md.

use rai_archive::chunk::{chunk_bytes, ChunkerParams};
use rai_archive::{write_container, FileTree};
use rai_bench::pseudorandom;
use rai_core::delta::{DeltaReceipt, DeltaUploader};
use rai_sim::VirtualClock;
use rai_store::{LifecycleRule, ObjectStore, StoreUsage};
use rai_workload::chaos::{run_chaos, ChaosConfig};
use rai_workload::semester::{run_semester, SemesterConfig};

/// Pinned semester scale for the baseline: big enough for the dedup
/// ratios to stabilize, small enough for a CI smoke job.
const TEAMS: usize = 12;
const DAYS: u64 = 21;

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn usage_json(u: &StoreUsage, indent: &str) -> String {
    format!(
        "{indent}\"bytes_logical_resident\": {},\n\
         {indent}\"bytes_physical_resident\": {},\n\
         {indent}\"bytes_uploaded\": {},\n\
         {indent}\"bytes_wire\": {},\n\
         {indent}\"chunks_resident\": {},\n\
         {indent}\"chunks_dedup_total\": {},\n\
         {indent}\"puts\": {},\n\
         {indent}\"delta_puts\": {},\n\
         {indent}\"dedup_ratio\": {:.4},\n\
         {indent}\"wire_savings_ratio\": {:.4}",
        u.bytes_stored,
        u.bytes_physical,
        u.bytes_uploaded,
        u.bytes_wire,
        u.chunks,
        u.chunks_dedup_total,
        u.puts,
        u.delta_puts,
        ratio(u.bytes_stored, u.bytes_physical),
        ratio(u.bytes_uploaded, u.bytes_wire),
    )
}

/// One upload of the bulk scenario: its receipt, and the arena's
/// physical bytes once it landed.
struct BulkUpload {
    receipt: DeltaReceipt,
    bytes_physical: u64,
}

/// The large-payload regime: a 2.5 MiB tree of forty incompressible
/// 64 KiB files, uploaded through the delta protocol into an empty
/// store, then resubmitted with one file regenerated.
fn run_bulk(seed: u64) -> [BulkUpload; 2] {
    const FILES: usize = 40;
    const FILE: usize = 64 * 1024;
    let mut state = seed;
    let mut tree = FileTree::new();
    for i in 0..FILES {
        tree.insert(&format!("data/part{i:02}.bin"), pseudorandom(FILE, &mut state))
            .expect("static path");
    }
    let store = ObjectStore::new(VirtualClock::new());
    store.create_bucket("uploads", LifecycleRule::Keep).expect("fresh store");
    let uploader = DeltaUploader::new();
    let upload = |tree: &FileTree, key: &str| {
        let receipt = uploader
            .upload(&store, "uploads", key, &write_container(tree), [])
            .expect("no faults injected");
        BulkUpload { receipt, bytes_physical: store.usage().bytes_physical }
    };
    let fresh = upload(&tree, "fresh");
    tree.insert("data/part17.bin", pseudorandom(FILE, &mut state)).expect("static path");
    [fresh, upload(&tree, "resubmit")]
}

fn bulk_json(b: &BulkUpload) -> String {
    format!(
        "{{ \"chunks_total\": {}, \"chunks_sent\": {}, \"bytes_wire\": {}, \"bytes_physical\": {} }}",
        b.receipt.chunks_total,
        b.receipt.chunks_sent,
        b.receipt.wire_bytes(),
        b.bytes_physical,
    )
}

fn render(
    seed: u64,
    semester: &StoreUsage,
    submissions: u64,
    chaos: &StoreUsage,
    accepted: usize,
    bulk: &[BulkUpload; 2],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"rai-store-bench/2\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str("  \"semester\": {\n");
    out.push_str(&format!("    \"teams\": {TEAMS},\n"));
    out.push_str(&format!("    \"days\": {DAYS},\n"));
    out.push_str(&format!("    \"submissions\": {submissions},\n"));
    out.push_str(&usage_json(semester, "    "));
    out.push_str("\n  },\n");
    out.push_str("  \"chaos\": {\n");
    out.push_str(&format!("    \"accepted\": {accepted},\n"));
    out.push_str("    \"audit\": \"pass\",\n");
    out.push_str(&usage_json(chaos, "    "));
    out.push_str("\n  },\n");
    out.push_str("  \"bulk\": {\n");
    out.push_str(&format!("    \"payload_bytes\": {},\n", bulk[0].receipt.bytes_logical));
    out.push_str(&format!("    \"fresh\": {},\n", bulk_json(&bulk[0])));
    out.push_str(&format!("    \"resubmit\": {}\n", bulk_json(&bulk[1])));
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

fn chunker_throughput() {
    // 8 MiB of pseudorandom bytes; wall-clock only, never in the JSON.
    let mut state = 0x5EEDu64;
    let buf = pseudorandom(8 << 20, &mut state);
    let start = std::time::Instant::now();
    let (manifest, _) = chunk_bytes(&buf, ChunkerParams::for_len(buf.len()));
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "  chunker throughput          {:.0} MiB/s ({} chunks, mean {} B)",
        (buf.len() as f64 / (1 << 20) as f64) / elapsed,
        manifest.chunks.len(),
        buf.len() / manifest.chunks.len().max(1),
    );
}

fn main() {
    let seed = rai_bench::ReportArgs::from_env().seed();

    let sem_config = SemesterConfig::scaled(TEAMS, DAYS, seed);
    let chaos_config = ChaosConfig::acceptance(seed);

    let semester = run_semester(&sem_config);
    let semester2 = run_semester(&sem_config);
    let chaos = run_chaos(&chaos_config);
    let bulk = run_bulk(seed);
    chaos
        .verify()
        .expect("chaos no-lost/no-duplicated audit must hold with dedup enabled");

    let render_with = |sem: &rai_workload::semester::SemesterResult| {
        render(
            seed,
            &sem.store,
            sem.total_submissions,
            &chaos.store,
            chaos.accepted.len(),
            &bulk,
        )
    };
    let json = render_with(&semester);

    // Determinism gate: a same-seed re-run must render byte-identical
    // JSON (the semester is the trajectory baseline; flapping numbers
    // would poison every future comparison).
    assert_eq!(json, render_with(&semester2), "same-seed semester must be byte-identical");

    rai_bench::header(&format!("store dedup baseline — seed {seed}"));
    let u = &semester.store;
    println!("  semester ({TEAMS} teams x {DAYS} days, {} submissions)", semester.total_submissions);
    println!("    logical resident bytes    {}", u.bytes_stored);
    println!("    physical resident bytes   {}", u.bytes_physical);
    println!("    dedup ratio               {:.2}x", ratio(u.bytes_stored, u.bytes_physical));
    println!("    uploaded (logical) bytes  {}", u.bytes_uploaded);
    println!("    wire bytes                {}", u.bytes_wire);
    println!("    wire savings              {:.2}x", ratio(u.bytes_uploaded, u.bytes_wire));
    println!("    chunks resident           {}", u.chunks);
    println!("    dedup hits                {}", u.chunks_dedup_total);
    println!("    puts / delta puts         {} / {}", u.puts, u.delta_puts);
    let c = &chaos.store;
    println!("  chaos ({} accepted, audit pass)", chaos.accepted.len());
    println!("    dedup ratio               {:.2}x", ratio(c.bytes_stored, c.bytes_physical));
    println!("    wire savings              {:.2}x", ratio(c.bytes_uploaded, c.bytes_wire));
    let [fresh, resubmit] = &bulk;
    println!("  bulk ({} B tree, then one 64 KiB file regenerated)", fresh.receipt.bytes_logical);
    for (label, b) in [("fresh", fresh), ("resubmit", resubmit)] {
        println!(
            "    {label:<9} {} of {} chunks sent, {} wire bytes, {} physical",
            b.receipt.chunks_sent,
            b.receipt.chunks_total,
            b.receipt.wire_bytes(),
            b.bytes_physical
        );
    }
    chunker_throughput();

    // The acceptance floor: dedup must collapse the semester's
    // resident bytes at least 3x.
    let dedup = ratio(u.bytes_stored, u.bytes_physical);
    assert!(
        dedup >= 3.0,
        "dedup ratio {dedup:.2}x below the 3x floor (physical {} vs logical {})",
        u.bytes_physical,
        u.bytes_stored
    );

    std::fs::write("BENCH_store.json", &json).expect("write BENCH_store.json");
    println!("\nwrote BENCH_store.json (dedup {dedup:.2}x >= 3x floor)");
}
