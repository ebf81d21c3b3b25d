//! Broker micro-benchmarks: publish throughput, pub/sub round trips,
//! per-channel fan-out, one job's log stream — the data plane under
//! the Fig. 4 burst load.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rai_broker::Broker;
use rai_core::client::{ProjectDir, SubmitMode};
use rai_core::protocol::routes;
use rai_core::{RaiSystem, SystemConfig};

fn bench_publish(c: &mut Criterion) {
    let mut g = c.benchmark_group("broker/publish");
    g.throughput(Throughput::Elements(1));
    g.bench_function("single_channel", |b| {
        let broker = Broker::default();
        let sub = broker.subscribe("t", "ch");
        b.iter(|| {
            broker.publish("t", &b"job message"[..]).expect("publish");
            let m = sub.try_recv().expect("delivered");
            sub.ack(m.id);
        });
    });
    g.finish();
}

fn bench_round_trip(c: &mut Criterion) {
    c.bench_function("broker/pub_sub_ack_round_trip", |b| {
        let broker = Broker::default();
        let sub = broker.subscribe("rai", "tasks");
        b.iter(|| {
            broker.publish("rai", &b"x"[..]).expect("publish");
            let m = sub.try_recv().expect("message");
            assert!(sub.ack(m.id));
        });
    });
}

fn bench_fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("broker/fanout");
    for channels in [1usize, 4, 16] {
        g.throughput(Throughput::Elements(channels as u64));
        g.bench_with_input(BenchmarkId::from_parameter(channels), &channels, |b, &n| {
            let broker = Broker::default();
            let subs: Vec<_> = (0..n)
                .map(|i| broker.subscribe("t", &format!("ch{i}")))
                .collect();
            b.iter(|| {
                broker.publish("t", &b"fanout"[..]).expect("publish");
                for s in &subs {
                    let m = s.try_recv().expect("copy per channel");
                    s.ack(m.id);
                }
            });
        });
    }
    g.finish();
}

fn bench_ephemeral_lifecycle(c: &mut Criterion) {
    c.bench_function("broker/ephemeral_topic_create_drop", |b| {
        let broker = Broker::default();
        let mut id = 0u64;
        b.iter(|| {
            id += 1;
            let topic = format!("log_{id:08x}");
            let sub = broker.subscribe_ephemeral(&topic, "#ch");
            broker.publish_ephemeral(&topic, &b"end ok"[..]).expect("publish");
            let m = sub.try_recv().expect("message");
            sub.ack(m.id);
            drop(sub);
        });
    });
}

/// One job's log stream through the broker, message for message as
/// the product publishes it: the bodies are captured from a real
/// Listing 1 job on a warm worker (a second channel on its log topic
/// sees a copy of each), then replayed — subscribe, publish, drain,
/// drop — on a fresh topic per iteration. How many messages that is
/// is the product's choice, which is what this prices.
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

fn bench_reclaim(c: &mut Criterion) {
    c.bench_function("broker/reclaim_expired_scan_1k_in_flight", |b| {
        let broker = Broker::default();
        let sub = broker.subscribe("t", "ch");
        for i in 0..1000 {
            broker.publish("t", format!("{i}")).expect("publish");
        }
        while sub.try_recv().is_some() {}
        b.iter(|| {
            // Nothing is old enough: pure scan cost over 1k in-flight.
            assert_eq!(broker.reclaim_expired(rai_sim::SimDuration::from_hours(1)), 0);
        });
    });
}

criterion_group!(
    benches,
    bench_publish,
    bench_round_trip,
    bench_fanout,
    bench_ephemeral_lifecycle,
    bench_log_stream,
    bench_reclaim
);
criterion_main!(benches);
