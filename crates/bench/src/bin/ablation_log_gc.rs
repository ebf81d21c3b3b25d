//! Ablation for the **ephemeral log-topic design** (§V): "both the
//! topic and channel are deleted if there are no producers and
//! consumers."
//!
//! A job's `log_${job_id}` topic lives exactly as long as its reader:
//! the client's subscription creates it and the subscription's drop
//! collects it, and a worker's publish to a topic nobody reads is
//! dropped. This binary runs the same job stream — three blocks a job
//! (accepted, the output, url + end) — against both kinds of client:
//! one that subscribes, drains and drops, and one that vanished and
//! never subscribes. Were publishing to create the topic, the second
//! would leave a topic and its three undeliverable blocks per job;
//! both must leave the topic table empty.
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
        // The draining client subscribes first (as the real client
        // does) and drops the subscription after End; the vanished
        // client never subscribes, so its topic is never created.
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
    rai_bench::header("ephemeral log topics: drained vs vanished clients");
    let (drained_topics, drained_depth) = run(true);
    let (vanished_topics, vanished_depth) = run(false);
    println!("  {:<34} {:>10} {:>16}", "client", "topics", "retained msgs");
    println!("  {:<34} {:>10} {:>16}", "subscribes, drains, drops", drained_topics, drained_depth);
    println!("  {:<34} {:>10} {:>16}", "vanished (never subscribes)", vanished_topics, vanished_depth);

    rai_bench::header("paper vs measured");
    println!(
        "  after {JOBS} jobs the broker holds {drained_topics} topics behind draining clients and \
         {vanished_topics} topics ({vanished_depth} undeliverable messages) behind vanished ones"
    );
    assert_eq!((drained_topics, drained_depth), (0, 0), "every drained log topic is collected");
    assert_eq!((vanished_topics, vanished_depth), (0, 0), "no reader, no topic");
}
