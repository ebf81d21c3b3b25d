//! The untraced run: set-up, timed iterations, and the seven
//! end-to-end metrics. End-to-end numbers always come from here; the
//! traced run (`trace.rs`) is separate.
//!
//! Every timed region sits between two samples of the host-speed
//! reference (`reference.rs`), and the timed metrics are reported at
//! the nominal host speed: a time is multiplied by the speed the host
//! showed around it, a rate divided by it.

use crate::reference::{host_speed, Reference};
use crate::report::{Metric, RunReport};
use crate::workloads::{Iteration, Workload};
use crate::MIB;
use std::time::Instant;

/// How much of a run the caller wants.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seed: u64,
    /// Seconds the timed iterations may take.
    pub seconds: f64,
    /// Cut set-up repeats and warm-ups to the minimum (`--smoke`).
    pub smoke: bool,
}

impl Plan {
    /// Times the untraced run repeats set-up, so `setup_s` is a median.
    fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    pub fn warmups(&self, workload: &Workload) -> usize {
        if self.smoke {
            1
        } else {
            workload.warmups()
        }
    }
}

/// A prepared workload: its inputs, how long preparing took each time
/// (at the nominal host speed), and the fingerprint the warm-ups
/// produced.
pub struct Prepared {
    pub workload: Workload,
    pub setup_secs: Vec<f64>,
    pub fingerprint: u64,
}

/// One timed iteration and the host speed around it.
pub struct Timed {
    pub iteration: Iteration,
    pub host_speed: f64,
}

/// Set up `name`: generate inputs and run the warm-up iterations (each
/// stands up its own deployment), `setups` times over.
pub fn prepare(
    name: &str,
    plan: &Plan,
    setups: usize,
    reference: &Reference,
) -> Result<Prepared, String> {
    let mut prepared: Option<Prepared> = None;
    let mut setup_secs = Vec::new();
    let mut before = reference.sample();
    for _ in 0..setups {
        let start = Instant::now();
        let workload = Workload::generate(name, plan.seed)?;
        let mut fingerprint = None;
        for _ in 0..plan.warmups(&workload) {
            let it = workload.iterate()?;
            if *fingerprint.get_or_insert(it.fingerprint) != it.fingerprint {
                return Err("fingerprint changed between warm-up iterations".to_string());
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let after = reference.sample();
        setup_secs.push(elapsed * host_speed(before, after));
        before = after;
        let fingerprint = fingerprint.expect("every plan warms up at least once");
        if prepared
            .as_ref()
            .is_some_and(|p| p.fingerprint != fingerprint)
        {
            return Err("fingerprint changed between set-ups of the same seed".to_string());
        }
        prepared = Some(Prepared {
            workload,
            setup_secs: Vec::new(),
            fingerprint,
        });
    }
    let mut prepared = prepared.expect("at least one set-up");
    if let Some(expected) = prepared.workload.committed_fingerprint(plan.seed) {
        if prepared.fingerprint != expected {
            return Err(format!(
                "fingerprint {:#018x} differs from the committed {expected:#018x}",
                prepared.fingerprint
            ));
        }
    }
    prepared.setup_secs = setup_secs;
    Ok(prepared)
}

/// Run timed iterations of a prepared workload until `seconds` have
/// passed (at least one), checking each against the warm-up fingerprint.
/// A reference sample is taken between iterations, so each iteration
/// has one either side of it.
pub fn timed_iterations(
    prepared: &Prepared,
    seconds: f64,
    reference: &Reference,
) -> Result<Vec<Timed>, String> {
    let mut iterations = Vec::new();
    let start = Instant::now();
    let mut before = reference.sample();
    while iterations.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let it = prepared.workload.iterate()?;
        let after = reference.sample();
        if it.fingerprint != prepared.fingerprint {
            return Err(format!(
                "iteration {} fingerprint {:#018x} differs from the warm-up's {:#018x}",
                iterations.len(),
                it.fingerprint,
                prepared.fingerprint
            ));
        }
        iterations.push(Timed {
            iteration: it,
            host_speed: host_speed(before, after),
        });
        before = after;
    }
    Ok(iterations)
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn measure(report: &mut RunReport, plan: &Plan) -> Result<(), String> {
    let reference = Reference::new();
    let prepared = prepare(report.workload, plan, plan.setups(), &reference)?;
    let timed = timed_iterations(&prepared, plan.seconds, &reference)?;
    // A rate at the nominal host speed: what the iteration did per
    // second, over how fast the host was running while it did.
    let per_iteration = |f: &dyn Fn(&Iteration) -> f64| {
        timed
            .iter()
            .map(|t| f(&t.iteration) / t.host_speed)
            .collect::<Vec<f64>>()
    };
    let last = &timed.last().expect("at least one iteration").iteration;
    report.attempted = timed.iter().map(|t| t.iteration.attempted).sum();
    report.failed = timed.iter().map(|t| t.iteration.failed).sum();
    report.warmups = plan.warmups(&prepared.workload);
    report.iterations = timed.len();
    report.host_speed = Some(Metric::median_of(
        "host_speed",
        "share",
        &timed.iter().map(|t| t.host_speed).collect::<Vec<f64>>(),
    ));
    report.metrics = vec![
        Metric::median_of("setup_s", "s", &prepared.setup_secs),
        Metric::median_of(
            "submissions_per_s",
            "1/s",
            &per_iteration(&|i| i.completed as f64 / i.wall_s),
        ),
        Metric::median_of(
            "payload_mib_per_s",
            "MiB/s",
            &per_iteration(&|i| i.payload_bytes as f64 / MIB / i.wall_s),
        ),
        // Count ratios: identical on every iteration of a seed.
        Metric::exact(
            "wire_bytes_per_payload_byte",
            "ratio",
            last.wire_bytes as f64 / last.payload_bytes as f64,
        ),
        Metric::exact(
            "stored_bytes_per_payload_byte",
            "ratio",
            last.physical_bytes as f64 / last.uploaded_total as f64,
        ),
        Metric::exact("peak_rss_mib", "MiB", peak_rss_mib()?),
        Metric::exact(
            "succeeded_share",
            "share",
            1.0 - report.failed as f64 / report.attempted.max(1) as f64,
        ),
    ];
    Ok(())
}

/// Run `name` untraced and report the end-to-end metrics.
pub fn run(name: &'static str, plan: &Plan) -> RunReport {
    let mut report = RunReport::new(name, plan.seed, false);
    match measure(&mut report, plan) {
        Ok(()) => report.correct = true,
        Err(e) => report.error = Some(e),
    }
    report
}
