//! One job's log stream through the broker — the last criterion bench.
//!
//! Who reads it: ROADMAP item 1(c). The repo benchmark's row for this
//! call sequence, `broker.log_topic_cycle_us`, times 12 one-line
//! publishes where a job has published 3 blocks since PR 20, and only a
//! `benchmark`-labelled PR may reprice it; until then this is the one
//! timing of the stream as the product publishes it (EXPERIMENTS.md,
//! "Criterion census"). Every other layer timing is a per-layer row of
//! `BENCHMARK.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rai_broker::Broker;
use rai_core::client::{ProjectDir, SubmitMode};
use rai_core::protocol::routes;
use rai_core::{RaiSystem, SystemConfig};

/// Message for message as the product publishes it: the bodies are
/// captured from a real Listing 1 job on a warm worker (a second
/// channel on its log topic sees a copy of each), then replayed —
/// subscribe, publish, drain, drop — on a fresh topic per iteration.
/// How many messages that is is the product's choice, which is what
/// this prices.
fn bench_log_stream(c: &mut Criterion) {
    let mut system = RaiSystem::new(SystemConfig {
        rate_limit: None,
        ..Default::default()
    });
    let creds = system.register_team("bench", &[]);
    let project = ProjectDir::sample_cuda_project();
    system.submit(&creds, &project).expect("warm-up");
    let pending = system
        .begin_submit(&creds, &project, SubmitMode::Run)
        .expect("accepted");
    let audit = system
        .broker()
        .subscribe_ephemeral(&routes::log_topic(pending.job_id), "audit");
    system.drain();
    let stream: Vec<_> = std::iter::from_fn(|| audit.try_recv()).map(|m| m.body).collect();
    assert!(stream.last().is_some_and(|b| b.ends_with(b"end ok")), "captured up to End");

    let mut g = c.benchmark_group("broker/log_stream");
    g.throughput(Throughput::Elements(1));
    g.bench_function("job", |b| {
        let broker = Broker::default();
        let mut id = 0u64;
        b.iter(|| {
            id += 1;
            let topic = routes::log_topic(id);
            let sub = broker.subscribe_ephemeral(&topic, routes::LOG_CHANNEL);
            for body in &stream {
                broker.publish_ephemeral(&topic, body.clone()).expect("publish");
            }
            while let Some(m) = sub.try_recv() {
                sub.ack(m.id);
            }
        });
    });
    g.finish();
}

criterion_group!(benches, bench_log_stream);
criterion_main!(benches);
