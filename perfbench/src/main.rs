//! End-to-end and per-layer benchmark of the Valois workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <svc_zipf_read|list_walk|hash_churn|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]
//! ```
//!
//! One process runs one workload. Inputs come from `--seed` only and are
//! generated before the timed window; the window lasts `--seconds`. With
//! `--trace 0` the run prints the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced quarters of the window (see [`window`]),
//! prints the per-layer metrics, and writes the kept spans to
//! `<spans-dir>/<workload>-seed<n>.tsv`. Every answer the program gave is
//! checked after the window; a wrong one makes the exit code non-zero.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//!
//! `--workload all` runs every workload untraced and traced, one child
//! process each, after printing the host facts.

mod check;
mod dictload;
mod inputs;
mod report;
mod stats;
mod svc;
mod trace;
mod window;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use report::{Report, END_TO_END, PER_LAYER};

/// Workload names, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["svc_zipf_read", "list_walk", "hash_churn"];

/// Longest window accepted; buffers sized from `--seconds` stay bounded.
const MAX_SECONDS: u64 = 240;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "perfbench/target".into());
    let mut spans_dir = PathBuf::from(target).join("perfbench-spans");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" || WORKLOADS.contains(&value.as_str()) => {
                workload = Some(value)
            }
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(num()?),
            "--seconds" => match num()? {
                s @ 1..=MAX_SECONDS => seconds = Some(s),
                s => return Err(format!("--seconds {s} is outside 1..={MAX_SECONDS}")),
            },
            "--trace" => match num()? {
                t @ 0..=1 => trace = Some(t == 1),
                t => return Err(format!("--trace {t} is neither 0 nor 1")),
            },
            "--spans-dir" => spans_dir = PathBuf::from(value),
            _ => return Err(format!("bad argument {flag} {value}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        spans_dir,
    })
}

/// Writes the kept spans where `--spans-dir` says.
pub fn write_spans(spans: &[&[trace::Span]], dropped: u64, args: &Args) {
    let path = args
        .spans_dir
        .join(format!("{}-seed{}.tsv", args.workload, args.seed));
    match trace::write_tsv(&path, spans) {
        Ok(()) => eprintln!(
            "spans: {} kept, {dropped} dropped (1 in {} operations) -> {}",
            spans.iter().map(|s| s.len()).sum::<usize>(),
            trace::SPAN_SAMPLE,
            path.display()
        ),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}

/// Host facts printed by `all`.
fn host_facts() {
    let run = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".into(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            )
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("host: nproc {nproc}");
    println!("host: {}", run("rustc", &["-V"]));
    println!(
        "host: commit {}",
        run("git", &["rev-parse", "--short", "HEAD"])
    );
}

/// `--workload all`: each workload untraced then traced, one child
/// process per run, all output passed through.
fn run_all(args: &Args) -> ExitCode {
    host_facts();
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            println!("== {workload} --trace {trace}");
            let status = Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .arg("--spans-dir")
                .arg(&args.spans_dir)
                .status();
            ok &= status.is_ok_and(|s| s.success());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report: Report = match args.workload.as_str() {
        "all" => return run_all(&args),
        "svc_zipf_read" => svc::run(&args),
        "list_walk" => dictload::list_walk(&args),
        "hash_churn" => dictload::hash_churn(&args),
        other => unreachable!("parse_args accepted workload {other}"),
    };
    report.print(if args.trace { PER_LAYER } else { END_TO_END });
    if report.error.is_none() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
