//! Object-store micro-benchmarks: put/get at submission-archive sizes,
//! the chunk path at the paper's mean upload size against a filled
//! arena, and the lifecycle sweep over a semester's worth of objects.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rai_archive::chunk::{chunk_bytes, ChunkerParams};
use rai_sim::{SimDuration, VirtualClock};
use rai_store::{LifecycleRule, ObjectStore};

fn store() -> ObjectStore {
    let s = ObjectStore::new(VirtualClock::new());
    s.create_bucket("b", LifecycleRule::one_month_after_last_use())
        .expect("fresh store");
    s
}

fn bench_put_get(c: &mut Criterion) {
    let mut g = c.benchmark_group("store/put_get");
    for kb in [4usize, 64, 1024] {
        let payload = vec![0xA5u8; kb * 1024];
        g.throughput(Throughput::Bytes((kb * 1024) as u64));
        g.bench_with_input(BenchmarkId::new("put", kb), &payload, |b, p| {
            let s = store();
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                s.put("b", &format!("k{i}"), p.clone(), []).expect("put");
            });
        });
        g.bench_with_input(BenchmarkId::new("get", kb), &payload, |b, p| {
            let s = store();
            s.put("b", "k", p.clone(), []).expect("put");
            b.iter(|| s.get("b", "k").expect("get"));
        });
    }
    g.finish();
}

/// Incompressible bytes: every chunk of every tree is distinct.
fn tree(len: usize, mut seed: u64) -> Vec<u8> {
    rai_bench::pseudorandom(len, &mut seed)
}

/// The paper's mean upload (2.5 MiB, ≈1 700 chunks at the parameters
/// its length selects) against an arena eight such trees already fill.
/// The KiB-size cases above touch ~20 chunks of a near-empty arena;
/// these are the sizes `bulk_fresh` in `BENCHMARK.json` runs at,
/// chunked as `put` and `DeltaUploader` chunk them.
fn bench_bulk_tree(c: &mut Criterion) {
    const TREE: usize = 2560 * 1024;
    let s = store();
    for i in 0..8u64 {
        s.put("b", &format!("base{i}"), tree(TREE, i), []).expect("put");
    }
    assert!(s.usage().chunks >= 10_000, "arena must be filled: {}", s.usage().chunks);
    let (manifest, chunks) = chunk_bytes(&tree(TREE, 99), ChunkerParams::for_len(TREE));
    let digests = manifest.digests();

    let mut g = c.benchmark_group("store/bulk_tree");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(TREE as u64));
    g.bench_function("put_delta_fresh", |b| {
        b.iter_with_setup(
            // Untimed: free the previous round's chunks so every
            // timed upload installs all of its chunks anew.
            || drop(s.delete("b", "fresh")),
            |()| s.put_delta("b", "fresh", &manifest, &chunks, []).expect("put_delta"),
        );
    });
    g.bench_function("get", |b| b.iter(|| s.get("b", "fresh").expect("get")));
    g.throughput(Throughput::Elements(digests.len() as u64));
    g.bench_function("has_chunks", |b| b.iter(|| s.has_chunks(&digests).expect("has_chunks")));
    g.finish();
}

fn bench_lifecycle_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("store/lifecycle_sweep");
    for objects in [1_000usize, 10_000] {
        g.bench_with_input(BenchmarkId::from_parameter(objects), &objects, |b, &n| {
            b.iter_with_setup(
                || {
                    let s = store();
                    for i in 0..n {
                        s.put("b", &format!("team/{i}"), vec![0u8; 128], []).expect("put");
                    }
                    // Half the objects go stale.
                    s.clock().advance(SimDuration::from_days(31));
                    for i in 0..n / 2 {
                        s.get("b", &format!("team/{i}")).expect("refresh");
                    }
                    s
                },
                |s| {
                    let expired = s.sweep_lifecycle();
                    assert_eq!(expired as usize, n - n / 2);
                },
            );
        });
    }
    g.finish();
}

fn bench_list_prefix(c: &mut Criterion) {
    c.bench_function("store/list_prefix_10k", |b| {
        let s = store();
        for team in 0..100 {
            for j in 0..100 {
                s.put("b", &format!("team-{team:02}/{j}"), vec![0u8; 16], [])
                    .expect("put");
            }
        }
        b.iter(|| {
            let listed = s.list("b", "team-42/").expect("list");
            assert_eq!(listed.len(), 100);
        });
    });
}

fn bench_presign(c: &mut Criterion) {
    let s = store();
    s.put("b", "build.tar", vec![0u8; 1024], []).expect("put");
    let expires = rai_sim::SimTime::from_millis(u64::MAX / 2);
    c.bench_function("store/presign", |b| {
        b.iter(|| s.presign("b", "build.tar", expires));
    });
    let url = s.presign("b", "build.tar", expires);
    c.bench_function("store/get_presigned", |b| {
        b.iter(|| s.get_presigned(&url).expect("valid"));
    });
}

criterion_group!(
    benches,
    bench_put_get,
    bench_bulk_tree,
    bench_lifecycle_sweep,
    bench_list_prefix,
    bench_presign
);
criterion_main!(benches);
