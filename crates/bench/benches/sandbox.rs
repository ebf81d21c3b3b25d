//! Container-runtime benchmarks: full Listing 1/2 scripts per
//! container, the per-job cost floor of the worker.

use criterion::{criterion_group, criterion_main, Criterion};
use rai_core::client::ProjectDir;
use rai_core::spec::BuildSpec;
use rai_sandbox::{Container, ImageRegistry, ResourceLimits};

fn bench_container_scripts(c: &mut Criterion) {
    let registry = ImageRegistry::course_default();
    let image = registry.resolve("webgpu/rai:root").expect("whitelisted").clone();
    let project = ProjectDir::sample_cuda_project();

    let mut g = c.benchmark_group("sandbox/container");
    // One development job as `Worker::execute` and the repo benchmark's
    // `sandbox.job_us` run it: create + mount + run_script + destroy.
    g.bench_function("listing1_job", |b| {
        let spec = BuildSpec::default_spec();
        b.iter(|| {
            let mut container = Container::create(&image, ResourceLimits::default());
            container.mount("/src", &project.tree);
            container.run_script(spec.build.iter().map(String::as_str));
            let report = container.destroy();
            assert!(report.success());
        });
    });
    g.bench_function("listing2_final_submission", |b| {
        let spec = BuildSpec::final_submission_spec();
        let final_project = ProjectDir::sample_cuda_project().with_final_artifacts();
        b.iter(|| {
            let mut container = Container::create(&image, ResourceLimits::default());
            container.mount("/src", &final_project.tree);
            container.run_script(spec.build.iter().map(String::as_str));
            let report = container.destroy();
            assert!(report.success());
        });
    });
    g.bench_function("create_destroy_only", |b| {
        b.iter(|| {
            let container = Container::create(&image, ResourceLimits::default());
            container.destroy()
        });
    });
    g.finish();
}

criterion_group!(benches, bench_container_scripts);
criterion_main!(benches);
