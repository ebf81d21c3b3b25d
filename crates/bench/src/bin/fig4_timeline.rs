//! Regenerates **Figure 4**: submissions per hour over the last two
//! weeks of the course — "a total of 30,782 submissions", bursty, with
//! the students' circadian rhythm and a strong final-week ramp.
//!
//! The full five-week semester runs as a discrete-event simulation in
//! which every submission exercises the real pipeline.
//!
//! ```text
//! cargo run --release -p rai-bench --bin fig4_timeline
//! ```

use rai_workload::semester::run_semester;
use rai_workload::SemesterConfig;

fn main() {
    let config = SemesterConfig::paper();
    eprintln!(
        "simulating the semester: {} teams / {} students / {} days (seed {})",
        config.teams,
        config.students,
        config.duration_days,
        config.seed
    );
    let result = run_semester(&config);

    rai_bench::header("Figure 4 — submissions per hour, last 2 weeks");
    let counts = result.window_timeline.counts();
    println!("  sparkline ({} hourly buckets):", counts.len());
    println!("  {}", result.window_timeline.sparkline(112));
    // Daily totals make the ramp explicit.
    println!("\n  day-by-day totals:");
    for (day, chunk) in counts.chunks(24).enumerate() {
        let total: u64 = chunk.iter().sum();
        let bar = "#".repeat((total / 60).min(70) as usize);
        println!("  day {:>2}: {:>5}  {bar}", day + 22, total);
    }
    let (peak_idx, peak) = result.window_timeline.peak().expect("non-empty window");
    println!(
        "\n  peak hour: {} submissions at hour {} of the window",
        peak, peak_idx
    );

    rai_bench::header("circadian check (mean by hour of day, window)");
    let mut by_hour = [0u64; 24];
    for (i, &c) in counts.iter().enumerate() {
        by_hour[i % 24] += c;
    }
    for (h, c) in by_hour.iter().enumerate() {
        println!("  {h:02}:00  {:>6}  {}", c, "#".repeat((*c / 40) as usize));
    }

    rai_bench::header("paper vs measured");
    println!(
        "  window submissions   paper: 30,782    measured: {}",
        result.window_submissions
    );
    println!(
        "  total submissions    paper: >40,000   measured: {}",
        result.total_submissions
    );
    println!(
        "  queue wait p50/p90/p99 (s): {:.1} / {:.1} / {:.1}",
        result.queue_wait_secs.0, result.queue_wait_secs.1, result.queue_wait_secs.2
    );
    rai_bench::header("pipeline stage latency (telemetry histograms)");
    let mut stage_hists = result.metrics.histograms_named(rai_telemetry::names::JOB_STAGE_SECONDS);
    stage_hists.sort_by_key(|(key, _)| key.render());
    for (key, hist) in &stage_hists {
        let mean = if hist.total() > 0 { hist.sum() / hist.total() as f64 } else { 0.0 };
        println!("  {:<44} n={:>6}  mean {:>7.3} s", key.render(), hist.total(), mean);
    }
    assert!(!stage_hists.is_empty(), "stage histograms should be populated");

    let pre_dawn: u64 = (4..7).map(|h| by_hour[h]).sum();
    let evening: u64 = (20..23).map(|h| by_hour[h]).sum();
    println!("  pre-dawn (04-06) vs evening (20-22) volume: {pre_dawn} vs {evening}");
    assert!(
        (24_000..39_000).contains(&result.window_submissions),
        "window volume off: {}",
        result.window_submissions
    );
    assert!(evening > pre_dawn * 2, "circadian rhythm should be visible");
}
