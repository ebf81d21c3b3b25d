//! Archive micro-benchmarks: the pack/unpack path every submission
//! takes, plus the compress-vs-store-raw ablation from DESIGN.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rai_archive::{lzss, pack, unpack, FileTree};
use rai_bench::pseudorandom;

/// A synthetic project tree of roughly `kb` KiB of source-like text.
fn project_tree(kb: usize) -> FileTree {
    let unit = "__global__ void conv(float* y, const float* x) { y[threadIdx.x] = x[threadIdx.x]; }\n";
    let per_file = unit.repeat(kb.max(1) * 1024 / unit.len() / 4 + 1);
    let mut t = FileTree::new();
    for i in 0..4 {
        t.insert(&format!("src/kernel{i}.cu"), per_file.clone().into_bytes())
            .expect("static path");
    }
    t.insert("rai-build.yml", &b"rai:\n  version: 0.1\n  image: webgpu/rai:root\ncommands:\n  build:\n    - make\n"[..])
        .expect("static path");
    t
}

fn bench_pack_unpack(c: &mut Criterion) {
    let mut g = c.benchmark_group("archive/pack_unpack");
    for kb in [16usize, 256, 2048] {
        let tree = project_tree(kb);
        g.throughput(Throughput::Bytes(tree.total_size()));
        g.bench_with_input(BenchmarkId::new("pack", kb), &tree, |b, t| {
            b.iter(|| pack(t));
        });
        let bundle = pack(&tree);
        g.bench_with_input(BenchmarkId::new("unpack", kb), &bundle.bytes, |b, bytes| {
            b.iter(|| unpack(bytes).expect("valid bundle"));
        });
    }
    g.finish();
}

fn bench_lzss(c: &mut Criterion) {
    let mut g = c.benchmark_group("archive/lzss");
    let source = project_tree(512);
    let container = {
        let b = pack(&source);
        lzss::decompress(&b.bytes).expect("round trip")
    };
    g.throughput(Throughput::Bytes(container.len() as u64));
    g.bench_function("compress", |b| {
        b.iter(|| lzss::compress(&container));
    });
    let compressed = lzss::compress(&container);
    g.bench_function("decompress", |b| {
        b.iter(|| lzss::decompress(&compressed).expect("valid"));
    });
    g.finish();
    println!(
        "lzss ratio on project trees: {:.3} ({} -> {} bytes)",
        lzss::ratio(&container, &compressed),
        container.len(),
        compressed.len()
    );
}

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

criterion_group!(benches, bench_pack_unpack, bench_lzss, bench_chunker, bench_bulk_tree);
criterion_main!(benches);
