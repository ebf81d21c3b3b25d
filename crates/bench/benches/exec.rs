//! `rai-exec` micro-benchmark: ordered `par_map` against the plain
//! sequential map — the per-job dispatch + ordered-join cost of the
//! pool (no product code uses it; see ROADMAP item 1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rai_exec::Executor;

fn bench_par_map_overhead(c: &mut Criterion) {
    // Many small pure tasks: the per-job dispatch + ordered-join cost.
    let mut g = c.benchmark_group("exec/par_map");
    let items: Vec<u64> = (0..256).collect();
    let work = |x: u64| {
        let mut acc = x;
        for i in 0..2_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        acc
    };
    g.bench_function("sequential_map", |b| {
        b.iter(|| items.iter().map(|&x| work(x)).collect::<Vec<_>>());
    });
    for width in [1usize, 4] {
        let exec = Executor::new(width);
        g.bench_function(BenchmarkId::new("pool", format!("w{width}")), |b| {
            b.iter(|| exec.par_map(items.clone(), work));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_par_map_overhead);
criterion_main!(benches);
