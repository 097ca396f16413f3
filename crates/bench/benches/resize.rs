//! Experiment E10 (DESIGN.md §4): fixed-size `HashDict::with_buckets(16)`
//! against the split-ordered `ResizableHashDict` under growing key
//! ranges.
//!
//! Two phases per size:
//!
//! 1. **fill** — `run_fill` inserts the keys `0..n` from disjoint strided
//!    shards. This is the workload a fixed bucket count cannot amortize
//!    (chains grow to n/16) and the one the resizable table absorbs by
//!    doubling its bucket count, never moving an item.
//! 2. **mix** — the balanced find/insert/delete mix over the filled
//!    table, where the fixed table pays O(n/16) per lookup and the
//!    resizable table keeps expected-O(1) buckets.
//!
//! Writes the measured rates to `BENCH_resize.json` at the repo root so
//! the fixed-vs-resizable ratio is machine-checkable.
//!
//! `--smoke` (CI): one tiny size, no JSON artifact — proves the harness
//! end to end without measuring anything.

use std::fs;
use std::path::Path;
use std::time::Duration;

use valois_bench::criterion::smoke_mode;
use valois_dict::{HashDict, ResizableHashDict};
use valois_harness::{run_fill, run_throughput, RunConfig, WorkloadSpec};

struct Row {
    n: u64,
    fixed_fill: f64,
    resz_fill: f64,
    fixed_mix: f64,
    resz_mix: f64,
    buckets: u64,
    doublings: u64,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    xs[xs.len() / 2]
}

fn main() {
    let smoke = smoke_mode();
    let sizes: &[u64] = if smoke {
        &[512]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let repeats = if smoke { 1 } else { 3 };
    let mix_window = Duration::from_millis(if smoke { 10 } else { 200 });
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);

    let mut rows: Vec<Row> = Vec::new();
    for &n in sizes {
        // Median fill rate over fresh tables (a fill is one-shot: it is
        // exactly the growth phase, so each repeat needs a new table).
        let mut fixed_fills = Vec::new();
        let mut resz_fills = Vec::new();
        let mut last_pair: Option<(HashDict<u64, u64>, ResizableHashDict<u64, u64>)> = None;
        for _ in 0..repeats {
            let fixed: HashDict<u64, u64> = HashDict::with_buckets(16);
            fixed_fills.push(run_fill(&fixed, n, threads).inserts_per_sec());
            let resz: ResizableHashDict<u64, u64> = ResizableHashDict::new();
            resz_fills.push(run_fill(&resz, n, threads).inserts_per_sec());
            last_pair = Some((fixed, resz));
        }
        let (fixed, resz) = last_pair.expect("repeats >= 1");

        let mut spec = WorkloadSpec::standard(n);
        spec.prefill = 0; // both tables already hold 0..n
        let run = RunConfig {
            threads,
            duration: mix_window,
            workload: spec,
            op_delay: None,
            measure_latency: false,
        };
        let fixed_mix = run_throughput(&fixed, &run).ops_per_sec();
        let resz_mix = run_throughput(&resz, &run).ops_per_sec();

        let row = Row {
            n,
            fixed_fill: median(fixed_fills),
            resz_fill: median(resz_fills),
            fixed_mix,
            resz_mix,
            buckets: resz.bucket_count(),
            doublings: resz.doublings(),
        };
        println!(
            "resize/{n}: fill {:.0}/s vs {:.0}/s ({:.2}x), mix {:.0}/s vs {:.0}/s ({:.2}x), \
             {} buckets after {} doublings",
            row.fixed_fill,
            row.resz_fill,
            row.resz_fill / row.fixed_fill.max(1.0),
            row.fixed_mix,
            row.resz_mix,
            row.resz_mix / row.fixed_mix.max(1.0),
            row.buckets,
            row.doublings,
        );
        rows.push(row);
    }

    if smoke {
        println!("resize: smoke run complete (no artifact written)");
        return;
    }

    let head = rows.last().expect("at least one size measured");
    let fill_speedup = head.resz_fill / head.fixed_fill.max(1.0);
    let mix_speedup = head.resz_mix / head.fixed_mix.max(1.0);
    println!(
        "\nresize: at {} keys the resizable table runs {fill_speedup:.2}x the fixed-16 fill \
         rate and {mix_speedup:.2}x its mixed-op throughput",
        head.n
    );

    let mut sizes_json = String::new();
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            sizes_json.push(',');
        }
        sizes_json.push_str(&format!(
            "\n    {{ \"n\": {}, \"fixed16_fill_per_sec\": {:.0}, \"resizable_fill_per_sec\": {:.0}, \
             \"fixed16_mix_ops_per_sec\": {:.0}, \"resizable_mix_ops_per_sec\": {:.0}, \
             \"resizable_buckets\": {}, \"doublings\": {}, \"fill_speedup\": {:.2}, \
             \"mix_speedup\": {:.2} }}",
            r.n,
            r.fixed_fill,
            r.resz_fill,
            r.fixed_mix,
            r.resz_mix,
            r.buckets,
            r.doublings,
            r.resz_fill / r.fixed_fill.max(1.0),
            r.resz_mix / r.fixed_mix.max(1.0),
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"resize\",\n  \"fixed_buckets\": 16,\n  \"threads\": {threads},\n  \
         \"sizes\": [{sizes_json}\n  ],\n  \
         \"headline\": {{\n    \"n\": {},\n    \"fill_speedup\": {fill_speedup:.2},\n    \
         \"mix_speedup\": {mix_speedup:.2}\n  }}\n}}\n",
        head.n
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_resize.json");
    match fs::write(&out, json) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
}
