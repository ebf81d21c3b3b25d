//! Ablation for the **ephemeral log-topic design** (§V): "both the
//! topic and channel are deleted if there are no producers and
//! consumers."
//!
//! Without that garbage collection every job leaks a `log_${job_id}`
//! topic (plus its undelivered backlog — the three blocks a worker
//! publishes per job: accepted, the output, url + end); over tens of
//! thousands of submissions the broker's topic table grows without
//! bound. This binary runs the same job stream with and without
//! subscribers draining the log topics and reports broker growth.
//!
//! It counts topic-table entries. That a collected topic also gives
//! its *bytes* back — nothing else holds its state — is the tier-1
//! claim of `tests/alloc_budget.rs`, which runs the same cycle under a
//! counting allocator.
//!
//! ```text
//! cargo run --release -p rai-bench --bin ablation_log_gc
//! ```

use rai_broker::Broker;
use rai_core::protocol::{push_output, routes, LogFrame};

const JOBS: u64 = 20_000;
const LOG_LINES: usize = 12;

fn run(drain: bool) -> (usize, usize) {
    let broker = Broker::default();
    for job_id in 0..JOBS {
        let topic = routes::log_topic(job_id);
        // The GC'd path subscribes first (as the real client does) and
        // drops the subscription after End; the leaky path never
        // subscribes, emulating a worker publishing logs for a client
        // that vanished, with no producer/consumer-based deletion.
        let sub = drain.then(|| broker.subscribe_ephemeral(&topic, routes::LOG_CHANNEL));
        let mut output = String::new();
        for line in 0..LOG_LINES {
            push_output(&mut output, false, &format!("line {line}"));
        }
        let mut closing = LogFrame::BuildUrl(format!("rai-builds/{job_id:08x}")).encode();
        LogFrame::End { success: true }.encode_into(&mut closing);
        for block in ["sts job accepted by worker-0".to_string(), output, closing] {
            broker.publish_ephemeral(&topic, block).expect("publish");
        }
        if let Some(sub) = sub {
            while let Some(m) = sub.try_recv() {
                sub.ack(m.id);
            }
            drop(sub); // ephemeral topic GC'd here
        }
    }
    let stats = broker.stats();
    (stats.topics, stats.depth)
}

fn main() {
    rai_bench::header("ephemeral log-topic GC vs unbounded topic table");
    let (gc_topics, gc_depth) = run(true);
    let (leak_topics, leak_depth) = run(false);
    println!("  {:<28} {:>10} {:>16}", "policy", "topics", "retained msgs");
    println!("  {:<28} {:>10} {:>16}", "GC on last unsubscribe", gc_topics, gc_depth);
    println!("  {:<28} {:>10} {:>16}", "no GC (leak)", leak_topics, leak_depth);

    rai_bench::header("paper vs measured");
    println!(
        "  after {JOBS} jobs the GC'd broker holds {gc_topics} topics; without deletion it holds {leak_topics} \
         topics and {leak_depth} undeliverable messages"
    );
    assert_eq!(gc_topics, 0, "all ephemeral topics must be collected");
    assert_eq!(leak_topics as u64, JOBS, "every job leaks one topic without GC");
}
