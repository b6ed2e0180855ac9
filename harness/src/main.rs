//! `harness` — the repository's one benchmark (see `README.md` beside this
//! package and `BENCHMARK.json` at the repository root).
//!
//! ```text
//! harness --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! harness --all [--seed <n>] [--seconds <s>] [--trace <0|1>] [--repeat <n>]
//! ```
//!
//! Run from the repository root. Without `--trace` both kinds of run are
//! made, untraced first; `--repeat <n>` makes `n` runs per workload on
//! seeds `seed, seed+1, …` and prints each metric's run-to-run spread. The
//! harness builds the real `certainty` binary, generates the workload's
//! inputs from `--seed`, and
//!
//! * with `--trace 0` measures the **end-to-end** metrics from outside the
//!   program: it spawns `certainty serve --listen`, drives it over the line
//!   protocol, and checks every response;
//! * with `--trace 1` measures the **per-layer** metrics: `/metrics`
//!   counter diffs over a shorter live window, then an in-process,
//!   single-threaded replay of the same op streams with a span around each
//!   call into a layer.
//!
//! The last line of standard output is the result object of the benchmark
//! contract; everything else (the named metrics with units and sample
//! counts, host facts, failed checks) goes to standard error. The exit
//! code is non-zero iff a check failed or the run could not be made.

mod gen;
mod reference;
mod report;
mod rng;
mod scrape;
mod server;
mod spans;
mod stats;
mod trace;
mod workloads;

use report::RunReport;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Workload, WORKLOADS};

/// Set-ups per run: `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    /// `None`: both kinds of run, untraced first.
    trace: Option<bool>,
    repeat: usize,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: harness (--workload <{}> | --all) [--seed <n>] [--seconds <s>] \
         [--trace <0|1>] [--repeat <n>]",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 18.0,
        trace: None,
        repeat: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--all" {
            parsed.workloads = WORKLOADS.to_vec();
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("{flag}: cannot read `{value}`\n{}", usage());
        match flag.as_str() {
            "--workload" => {
                let workload = WORKLOADS
                    .iter()
                    .find(|w| w.name == value)
                    .ok_or_else(|| format!("unknown workload `{value}`\n{}", usage()))?;
                parsed.workloads.push(*workload);
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => return Err(bad()),
                }
            }
            "--repeat" => {
                parsed.repeat = value.parse().map_err(|_| bad())?;
                if parsed.repeat == 0 {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown flag `{flag}`\n{}", usage())),
        }
    }
    if parsed.workloads.is_empty() {
        return Err(usage());
    }
    Ok(parsed)
}

/// Cargo's target directory as seen from the repository root.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Builds the program under test from source, exactly as a user would, and
/// returns the path of the binary. A no-op when it is already up to date.
fn build_certainty() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "cqa-cli", "--bin", "certainty"])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "`cargo build -p cqa-cli --bin certainty` failed ({status})"
        ));
    }
    let binary = target_dir().join("release").join("certainty");
    if !binary.is_file() {
        return Err(format!("{} was not built", binary.display()));
    }
    Ok(binary)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host facts recorded beside every result.
fn host_facts() -> String {
    format!(
        "nproc {} (clients and server threads: {}), commit {}, {}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        workloads::host_threads(),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["--version"]),
    )
}

/// One run of one workload: generate, write inputs, measure, clean up.
fn run_once(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    certainty: &Path,
) -> Result<RunReport, String> {
    let scratch = target_dir().join("harness-scratch").join(format!(
        "{}-{seed}-{}",
        workload.name,
        std::process::id()
    ));
    let result = run_in(workload, seed, seconds, trace, certainty, &scratch);
    // The run's directory holds only its inputs; span dumps go beside it.
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn run_in(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    certainty: &Path,
    scratch: &Path,
) -> Result<RunReport, String> {
    let started = std::time::Instant::now();
    let mut prepared = workloads::prepare(workload, seed)?;
    let files = workloads::write_inputs(&prepared, scratch)?;
    eprintln!(
        "{}: seed {seed}, {} facts in {} blocks, {} byte CQDB, inputs ready in {:.2} s",
        workload.name,
        prepared.instance.db.fact_count(),
        prepared.instance.db.block_count(),
        files.cqdb_bytes,
        started.elapsed().as_secs_f64()
    );
    if trace {
        return trace::run(&mut prepared, &files, certainty, seconds, scratch);
    }
    let live = workloads::run_live(&mut prepared, &files, certainty, seconds, SETUPS)?;
    let metrics = report::end_to_end(workload.kind, &live);
    Ok(RunReport {
        description: report::describe_live(workload.kind, &live, &metrics),
        metrics,
        attempted: live.tally.attempted,
        failed: live.tally.failed,
        gate_failures: Vec::new(),
    })
}

fn run(args: &Args) -> Result<bool, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: run with `cargo run --release`".into());
    }
    server::scrub_environment();
    let certainty = build_certainty()?;
    eprintln!("harness: {}", host_facts());
    let mut all_correct = true;
    let modes = match args.trace {
        Some(trace) => vec![trace],
        None => vec![false, true],
    };
    let mut spreads = String::new();
    for workload in &args.workloads {
        for &trace in &modes {
            // (name, unit, one value per repeat), for the spread table.
            let mut history: Vec<(&'static str, &'static str, Vec<f64>)> = Vec::new();
            for repeat in 0..args.repeat {
                let seed = args.seed + repeat as u64;
                let result = run_once(*workload, seed, args.seconds, trace, &certainty)?;
                eprint!("{}", result.description);
                for failure in &result.gate_failures {
                    eprintln!("  FAILED: {failure}");
                }
                all_correct &= result.correct();
                println!(
                    "{}",
                    report::result_line(
                        result.correct(),
                        result.attempted,
                        result.failed,
                        &result.metrics
                    )
                );
                for (m, metric) in result.metrics.iter().enumerate() {
                    if repeat == 0 {
                        history.push((metric.name, metric.unit, Vec::new()));
                    }
                    history[m].2.push(metric.value);
                }
            }
            if args.repeat >= 2 {
                spreads.push_str(&spread_rows(workload.name, &history));
            }
        }
    }
    if !spreads.is_empty() {
        println!(
            "{:<12} {:<38} {:>12} {:>12} {:>12} {:>8} {:>8}  unit",
            "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med"
        );
        print!("{spreads}");
    }
    Ok(all_correct)
}

/// Per metric of one workload: median, quartiles, and the two spreads —
/// the contract's `(q3 - q1) / median` and the stricter `(max - min) /
/// median`.
fn spread_rows(workload: &str, history: &[(&'static str, &'static str, Vec<f64>)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (name, unit, values) in history {
        let median = stats::median_of(values);
        let (q1, q3) = stats::quartiles(values);
        let max = values.iter().copied().fold(f64::MIN, f64::max);
        let min = values.iter().copied().fold(f64::MAX, f64::min);
        let share = |x: f64| if median != 0.0 { x / median } else { 0.0 };
        let _ = writeln!(
            out,
            "{workload:<12} {name:<38} {median:>12.4} {q1:>12.4} {q3:>12.4} {:>8.4} {:>8.4}  {unit}",
            share(q3 - q1),
            share(max - min)
        );
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|args| run(&args));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("harness: a check failed");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("harness: {message}");
            ExitCode::from(2)
        }
    }
}
