//! Minimal, API-compatible subset of `criterion`: enough surface for
//! the workspace's `harness = false` bench targets to build and run
//! offline. Statistical machinery (outlier rejection, regression
//! detection, plots) is intentionally absent — each benchmark is timed
//! with a short calibrated loop and reported as mean ns/iter.

#![forbid(unsafe_code)]

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How sample counts translate to work: per sample we run a batch of
/// iterations sized so one sample takes roughly `TARGET_SAMPLE_TIME`.
const TARGET_SAMPLE_TIME: Duration = Duration::from_millis(20);
const DEFAULT_SAMPLES: usize = 20;

pub struct Criterion {
    samples: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { samples: DEFAULT_SAMPLES }
    }
}

impl Criterion {
    pub fn configure_from_args(self) -> Self {
        self
    }

    pub fn sample_size(mut self, n: usize) -> Self {
        self.samples = n.max(2);
        self
    }

    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(id, self.samples, None, f);
        self
    }

    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.to_string(),
            samples: DEFAULT_SAMPLES,
            throughput: None,
        }
    }
}

pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    samples: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(2);
        self
    }

    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into_benchmark_id());
        run_benchmark(&full, self.samples, self.throughput.clone(), f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.into_benchmark_id());
        run_benchmark(&full, self.samples, self.throughput.clone(), |b| f(b, input));
        self
    }

    pub fn finish(self) {}
}

#[derive(Clone, Debug)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
    BytesDecimal(u64),
}

pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId { id: format!("{}/{}", function_name.into(), parameter) }
    }

    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

pub trait IntoBenchmarkId {
    fn into_benchmark_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> String {
        self
    }
}

pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    pub fn iter_with_large_drop<O, R: FnMut() -> O>(&mut self, routine: R) {
        self.iter(routine);
    }

    /// Run `setup` outside the timed region before each iteration.
    pub fn iter_with_setup<I, O, S, R>(&mut self, mut setup: S, mut routine: R)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut elapsed = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            elapsed += start.elapsed();
        }
        self.elapsed = elapsed;
    }
}

fn run_benchmark<F>(id: &str, samples: usize, throughput: Option<Throughput>, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    // Calibrate: run one iteration to estimate cost, then size batches
    // so one sample lands near TARGET_SAMPLE_TIME.
    let mut bencher = Bencher { iters: 1, elapsed: Duration::ZERO };
    f(&mut bencher);
    let per_iter = bencher.elapsed.max(Duration::from_nanos(1));
    let batch = (TARGET_SAMPLE_TIME.as_nanos() / per_iter.as_nanos()).clamp(1, 1_000_000) as u64;

    let mut total = Duration::ZERO;
    let mut total_iters = 0u64;
    for _ in 0..samples {
        let mut b = Bencher { iters: batch, elapsed: Duration::ZERO };
        f(&mut b);
        total += b.elapsed;
        total_iters += b.iters;
    }

    let ns_per_iter = total.as_nanos() as f64 / total_iters.max(1) as f64;
    let rate = match throughput {
        Some(Throughput::Bytes(bytes)) | Some(Throughput::BytesDecimal(bytes)) => {
            let gib_s = bytes as f64 / ns_per_iter * 1e9 / (1024.0 * 1024.0 * 1024.0);
            format!("  {gib_s:>10.3} GiB/s")
        }
        Some(Throughput::Elements(n)) => {
            let elem_s = n as f64 / ns_per_iter * 1e9;
            format!("  {elem_s:>10.0} elem/s")
        }
        None => String::new(),
    };
    println!("{id:<50} {:>12.1} ns/iter{rate}  ({total_iters} iters)", ns_per_iter);
}

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
    ($group:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_routine() {
        let mut c = Criterion::default();
        let mut count = 0u64;
        c.bench_function("smoke/add", |b| b.iter(|| count += 1));
        assert!(count > 0);
    }

    #[test]
    fn group_with_throughput_and_input() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("smoke");
        g.throughput(Throughput::Bytes(1024));
        g.sample_size(2);
        g.bench_with_input(BenchmarkId::new("sum", 4), &vec![1u64; 4], |b, v| {
            b.iter(|| v.iter().sum::<u64>())
        });
        g.finish();
    }
}
