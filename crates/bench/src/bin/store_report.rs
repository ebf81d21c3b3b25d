//! The **store dedup baseline**: measures what the content-addressed
//! store saves on the semester and chaos workloads — KiB-size
//! containers — and on one resubmitted 2.5 MiB tree, and writes the
//! numbers to `BENCH_store.json` as the perf-trajectory baseline.
//!
//! `rai_bench::baselines::Store` runs and asserts what goes into the
//! file — logical vs physical resident bytes, wire bytes vs logical
//! upload bytes and chunk/dedup counts of both pinned courses (chaos
//! audit passing with dedup enabled, the 3× dedup floor, a same-seed
//! second semester rendering byte-identically), and the exact chunk and
//! byte counts of one 2.5 MiB tree (the paper's mean upload) uploaded
//! fresh, then again with one of its 64 KiB files regenerated;
//! `cargo test` holds the committed file to the same rendering. This
//! bin prints the report, writes the file, and measures chunker
//! throughput on a synthetic buffer (printed to stdout only —
//! wall-clock numbers never go into the JSON).
//!
//! ```text
//! cargo run --release -p rai-bench --bin store_report
//! ```
//!
//! The JSON schema is documented in EXPERIMENTS.md.

use rai_archive::chunk::{chunk_bytes, ChunkerParams};
use rai_bench::baselines::{ratio, Courses, Store, DAYS, SEED, TEAMS};
use rai_bench::pseudorandom;

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
    rai_bench::args_or_usage("store_report  (no arguments; writes BENCH_store.json to the working directory)", 0, &[]);
    let store = Store::measure(&Courses::run());

    rai_bench::header(&format!("store dedup baseline — seed {SEED}"));
    let u = &store.semester;
    let dedup = ratio(u.bytes_stored, u.bytes_physical);
    println!("  semester ({TEAMS} teams x {DAYS} days, {} submissions)", store.submissions);
    println!("    logical resident bytes    {}", u.bytes_stored);
    println!("    physical resident bytes   {}", u.bytes_physical);
    println!("    dedup ratio               {dedup:.2}x");
    println!("    uploaded (logical) bytes  {}", u.bytes_uploaded);
    println!("    wire bytes                {}", u.bytes_wire);
    println!("    wire savings              {:.2}x", ratio(u.bytes_uploaded, u.bytes_wire));
    println!("    chunks resident           {}", u.chunks);
    println!("    dedup hits                {}", u.chunks_dedup_total);
    println!("    puts / delta puts         {} / {}", u.puts, u.delta_puts);
    let c = &store.chaos;
    println!("  chaos ({} accepted, audit pass)", store.accepted);
    println!("    dedup ratio               {:.2}x", ratio(c.bytes_stored, c.bytes_physical));
    println!("    wire savings              {:.2}x", ratio(c.bytes_uploaded, c.bytes_wire));
    let [fresh, resubmit] = &store.bulk;
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

    std::fs::write("BENCH_store.json", store.render()).expect("write BENCH_store.json");
    println!("\nwrote BENCH_store.json (dedup {dedup:.2}x >= 3x floor)");
}
