//! CLI for the experiment suite (`experiments::EXPERIMENTS`).
//!
//! ```text
//! experiments [e1|e2|...|e9|all] [--quick] [--point-ms N] [--max-threads N]
//! ```
//!
//! Run with `cargo run --release -p valois-bench --bin experiments -- all`.
//! An unknown id prints the valid ids and exits with status 2.

use std::time::Duration;

use valois_bench::experiments::{self, ExpConfig, RunExperiment, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut cfg = ExpConfig::standard();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => cfg.point = Duration::from_millis(60),
            "--point-ms" => {
                i += 1;
                let ms: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--point-ms needs a number");
                cfg.point = Duration::from_millis(ms);
            }
            "--max-threads" => {
                i += 1;
                cfg.max_threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--max-threads needs a number");
            }
            other => which.push(other.to_ascii_lowercase()),
        }
        i += 1;
    }
    let runs: Vec<RunExperiment> = if which.is_empty() || which.iter().any(|w| w == "all") {
        EXPERIMENTS.iter().map(|&(_, run)| run).collect()
    } else {
        let mut runs = Vec::new();
        let mut unknown = Vec::new();
        for w in &which {
            match experiments::lookup(w) {
                Some(run) => runs.push(run),
                None => unknown.push(w.as_str()),
            }
        }
        if !unknown.is_empty() {
            let valid: Vec<&str> = EXPERIMENTS.iter().map(|&(id, _)| id).collect();
            eprintln!(
                "unknown experiment: {}; valid ids: {} or all \
                 (E8 and E10 run as the traversal_hops and resize benches)",
                unknown.join(", "),
                valid.join(", ")
            );
            std::process::exit(2);
        }
        runs
    };

    println!(
        "Valois PODC'95 reproduction — experiment suite ({} cores, {:?}/point)\n",
        ExpConfig::cores(),
        cfg.point
    );
    for run in runs {
        drop(run(&cfg));
    }
}
