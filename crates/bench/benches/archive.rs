//! Archive micro-benchmarks: the chunker and the container path every
//! submission takes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rai_archive::FileTree;
use rai_bench::pseudorandom;

fn bench_chunker(c: &mut Criterion) {
    use rai_archive::chunk::{chunk_bytes, ChunkerParams};
    let mut g = c.benchmark_group("archive/chunker");
    // Pseudorandom bytes (worst case: boundaries everywhere the mask
    // allows) and repetitive project text (long forced-max chunks).
    let random = pseudorandom(1 << 20, &mut 0x5EED);
    let text = "__global__ void conv(float* y, const float* x) { y[threadIdx.x] = x[threadIdx.x]; }\n"
        .repeat(12_000)
        .into_bytes();
    for (label, buf) in [("random_1mib", &random), ("text_1mib", &text)] {
        g.throughput(Throughput::Bytes(buf.len() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(label), buf, |b, buf| {
            b.iter(|| chunk_bytes(buf, ChunkerParams::DEFAULT));
        });
    }
    g.finish();
}

/// The paper's mean upload — 2.5 MiB of incompressible files, the
/// size `bulk_fresh` / `bulk_resubmit` in `BENCHMARK.json` run at —
/// through the three archive stages of a submission as the client and
/// worker call them: serialize, chunk, and read back in place. Each is
/// one pass over the payload (DESIGN.md §10); watch them here without
/// a full benchmark run. Companion of `store/bulk_tree/*`.
fn bench_bulk_tree(c: &mut Criterion) {
    use rai_archive::chunk::{chunk_shared, ChunkerParams};
    use rai_archive::{read_container_shared, write_container, Bytes};
    const FILES: usize = 16;
    const FILE: usize = 160 * 1024;
    let mut state = 0xB01C;
    let mut tree = FileTree::new();
    for i in 0..FILES {
        tree.insert(&format!("data/part{i:02}.bin"), pseudorandom(FILE, &mut state))
            .expect("static path");
    }
    let container = Bytes::from(write_container(&tree));

    let mut g = c.benchmark_group("archive/bulk_tree");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(container.len() as u64));
    g.bench_function("write_container", |b| b.iter(|| write_container(&tree)));
    g.bench_function("read_container", |b| {
        b.iter(|| read_container_shared(&container).expect("valid container"));
    });
    g.bench_function("chunk_bytes", |b| {
        b.iter(|| chunk_shared(&container, ChunkerParams::for_len(container.len())));
    });
    g.finish();
}

criterion_group!(benches, bench_chunker, bench_bulk_tree);
criterion_main!(benches);
