//! Command line of the repo benchmark.
//!
//! ```text
//! rai-benchmark run --workload <name|all> [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]
//! rai-benchmark check A.json B.json
//! rai-benchmark repeat [--seed N] [--seconds S] [--smoke]
//! rai-benchmark catalogue
//! ```

use rai_benchmark::catalogue::{benchmark_json, RUN_SECONDS, WORKLOADS};
use rai_benchmark::e2e::{self, Plan};
use rai_benchmark::json::Json;
use rai_benchmark::report::RunReport;
use rai_benchmark::workloads::DEFAULT_SEED;
use rai_benchmark::{check, per_layer};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  rai-benchmark run --workload <semester|bulk_fresh|bulk_resubmit|durable_chaos|all>
                    [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]
  rai-benchmark check A.json B.json
  rai-benchmark repeat [--seed N] [--seconds S] [--smoke]
  rai-benchmark catalogue";

/// Where span logs and intermediate result files go: `out/` beside the
/// benchmark's manifest, whatever the working directory.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The key a result file keeps its reports under.
fn section(trace: bool) -> &'static str {
    if trace {
        "traced"
    } else {
        "workloads"
    }
}

struct RunArgs {
    workload: String,
    plan: Plan,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String], need_workload: bool) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: String::new(),
        plan: Plan {
            seed: DEFAULT_SEED,
            seconds: f64::from(RUN_SECONDS),
            smoke: false,
        },
        trace: false,
        out: None,
    };
    let mut seconds_given = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = value("--workload")?,
            "--seed" => {
                parsed.plan.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.plan.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--smoke" => parsed.plan.smoke = true,
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if need_workload && parsed.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if !(parsed.plan.seconds > 0.0 && parsed.plan.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    if parsed.plan.smoke && !seconds_given {
        parsed.plan.seconds = 1.0;
    }
    Ok(parsed)
}

fn command_output(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// A result file: the host it ran on, what was asked, and each
/// workload's report under `workloads` (untraced) or `traced`.
fn result_file(args: &RunArgs, reports: &[Json]) -> Json {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    Json::obj([
        ("schema", Json::Str("rai-benchmark/1".to_string())),
        (
            "host",
            Json::obj([
                (
                    "nproc",
                    Json::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
                ),
                (
                    "rustc",
                    Json::Str(command_output("rustc", &["-V"], manifest_dir)),
                ),
                (
                    "commit",
                    Json::Str(command_output("git", &["rev-parse", "HEAD"], manifest_dir)),
                ),
            ]),
        ),
        ("seed", Json::Num(args.plan.seed as f64)),
        ("seconds", Json::Num(args.plan.seconds)),
        ("smoke", Json::Bool(args.plan.smoke)),
        (
            section(args.trace),
            Json::obj(reports.iter().map(|r| {
                let name = r
                    .get("workload")
                    .and_then(Json::as_str)
                    .expect("report names its workload")
                    .to_string();
                (name, r.clone())
            })),
        ),
    ])
}

fn write_file(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, doc.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_file(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run one workload in this process. The last line printed is the
/// contract's result object.
fn run_one(name: &'static str, args: &RunArgs) -> Result<bool, String> {
    let report: RunReport = if args.trace {
        per_layer::run(name, &args.plan, &out_dir())
    } else {
        e2e::run(name, &args.plan)
    };
    if let Some(path) = &args.out {
        write_file(path, &result_file(args, &[report.to_json()]))?;
    }
    if let Some(e) = &report.error {
        eprintln!("{name}: correctness check failed: {e}");
    }
    println!(
        "# {name} seed {} iterations {} (+{} warm-up)",
        report.seed, report.iterations, report.warmups
    );
    if let Some(speed) = &report.host_speed {
        println!(
            "# host speed {:.3} of nominal (quartiles {:.3}..{:.3}); timed metrics are normalised by it",
            speed.value, speed.q1, speed.q3
        );
    }
    report.print_table();
    println!("{}", report.contract_line());
    Ok(report.correct)
}

/// Run every workload, each in its own process, and merge their result
/// files into `args.out`.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut reports = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        let part = out_dir().join(format!(".part-{}-{}.json", w.name, u8::from(args.trace)));
        let mut child = Command::new(&exe);
        child
            .args(["run", "--workload", w.name])
            .args(["--seed", &args.plan.seed.to_string()])
            .args(["--seconds", &args.plan.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&part);
        if args.plan.smoke {
            child.arg("--smoke");
        }
        // `status` waits for the child; its output goes straight through.
        let status = child
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_correct &= status.success();
        let file = read_file(&part)?;
        let _ = std::fs::remove_file(&part);
        reports.push(
            file.get(section(args.trace))
                .and_then(|s| s.get(w.name))
                .cloned()
                .ok_or("child wrote no report")?,
        );
    }
    if let Some(path) = &args.out {
        write_file(path, &result_file(args, &reports))?;
    }
    Ok(all_correct)
}

fn run(args: &[String]) -> Result<bool, String> {
    let args = parse_run_args(args, true)?;
    if args.workload == "all" {
        return run_all(&args);
    }
    let name = WORKLOADS
        .iter()
        .map(|w| w.name)
        .find(|n| *n == args.workload)
        .ok_or_else(|| format!("unknown workload '{}'", args.workload))?;
    run_one(name, &args)
}

fn check_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("check takes two result files".to_string());
    };
    let rows = check::compare(&read_file(Path::new(a))?, &read_file(Path::new(b))?)?;
    check::print_rows(&rows);
    Ok(check::passes(&rows))
}

/// Merge an untraced and a traced result file into one.
fn merged(untraced: &Path, traced: &Path) -> Result<Json, String> {
    let Json::Obj(mut pairs) = read_file(untraced)? else {
        return Err(format!("{}: not an object", untraced.display()));
    };
    let traced = read_file(traced)?;
    pairs.push((
        "traced".to_string(),
        traced
            .get("traced")
            .cloned()
            .ok_or("traced file has no reports")?,
    ));
    Ok(Json::Obj(pairs))
}

/// Two complete sets of runs back to back, untraced and traced, then
/// `check` in both directions: two runs of one commit must agree.
fn repeat(args: &[String]) -> Result<bool, String> {
    let mut args = parse_run_args(args, false)?;
    let dir = out_dir();
    let mut sets = Vec::new();
    for label in ["a", "b"] {
        let mut parts = Vec::new();
        for trace in [false, true] {
            let part = dir.join(format!(".repeat-{label}-{}.json", u8::from(trace)));
            args.trace = trace;
            args.out = Some(part.clone());
            if !run_all(&args)? {
                return Err(format!(
                    "set {label}: a workload failed its correctness checks"
                ));
            }
            parts.push(part);
        }
        let set = merged(&parts[0], &parts[1])?;
        for part in &parts {
            let _ = std::fs::remove_file(part);
        }
        let path = dir.join(format!("repeat-{label}.json"));
        write_file(&path, &set)?;
        println!("# set {label} written to {}", path.display());
        sets.push(set);
    }
    let forward = check::compare(&sets[0], &sets[1])?;
    check::print_rows(&forward);
    let backward = check::compare(&sets[1], &sets[0])?;
    let agree = check::agrees(&forward) && check::agrees(&backward);
    println!(
        "# two sets of one commit {}",
        if agree {
            "agree within every bound"
        } else {
            "DISAGREE"
        }
    );
    Ok(agree)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "check" => check_files(rest),
        Some((cmd, rest)) if cmd == "repeat" => repeat(rest),
        Some((cmd, [])) if cmd == "catalogue" => {
            print!("{}", benchmark_json().render_pretty());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
