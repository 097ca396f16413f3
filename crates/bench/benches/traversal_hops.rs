//! Experiment E8 (DESIGN.md §4), per-hop traversal cost: the cursor hop
//! loop against a raw pointer walk over the same nodes, across
//! reclamation backends and thread counts.
//!
//! This is the hot path the magazine/deferred-release work targets: each
//! `Cursor::next` used to pay six refcount RMWs plus four shared-counter
//! increments per hop; with count transfer, deferred release batching, and
//! cursor-resident tallies the counted backend pays two `SafeRead`
//! increments plus two amortized deferred decrements — and the epoch
//! backend pays none at all (one pin per traversal, plain loads per hop).
//! The bench reports ns per *hop* (node visited) and — unlike the other
//! benches — writes the measured costs to `BENCH_traversal.json` at the
//! repo root next to the recorded seed baseline, so the before/after ratio
//! is machine-checkable.
//!
//! Two sections:
//!
//! * `sizes` — the original single-threaded refcount-vs-raw pair at two
//!   list lengths, kept measuring exactly what the seed baseline recorded;
//! * `matrix` — backend (`refcount` / `epoch` / `raw`) × thread count
//!   (1, 2, 4, all cores, deduplicated). Shared list for the protected
//!   backends; the raw walk needs `&mut` exclusivity, so each thread
//!   walks a private identical list (the uncontended floor).
//!
//! `--smoke` (CI): run one short iteration of each case and skip the JSON
//! artifact — proves the harness end to end without measuring anything.

use std::fs;
use std::path::Path;

use valois_bench::criterion::{
    black_box, last_median_ns, smoke_mode, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};
use valois_core::{Epoch, List, Reclaimer, RefCount};

/// Seed-tree E8 measurements (EXPERIMENTS.md, single-core container):
/// protected traversal per-node cost before the batching layers existed,
/// and the raw-walk floor it is compared against.
const BASELINE_PROTECTED_NS_PER_HOP: f64 = 95.7;
const BASELINE_RAW_NS_PER_HOP: f64 = 3.5;

struct Row {
    n: u64,
    protected_ns: f64,
    raw_ns: f64,
}

struct MatrixRow {
    backend: &'static str,
    threads: usize,
    ns_per_hop: f64,
}

/// 1, 2, 4, and all cores — deduplicated and sorted (a 1-core container
/// yields `[1, 2, 4]`: the oversubscribed points still exercise
/// contention via preemption).
fn thread_points(smoke: bool) -> Vec<usize> {
    if smoke {
        return vec![1, 2];
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut pts = vec![1usize, 2, 4, cores];
    pts.sort_unstable();
    pts.dedup();
    pts
}

/// Measures one protected arm: `threads` walkers share one `List<_, R>`,
/// each doing `passes` full protected traversals per timed iteration.
fn bench_protected_arm<R: Reclaimer>(
    group: &mut BenchmarkGroup<'_>,
    backend: &'static str,
    threads: usize,
    n: u64,
    passes: u64,
) -> MatrixRow {
    let list: List<u64, R> = (0..n).collect();
    let hops = n * passes * threads as u64;
    group.throughput(Throughput::Elements(hops));
    let id = BenchmarkId::new(backend, format!("t{threads}"));
    group.bench_with_input(id, &threads, |b, &t| {
        b.iter(|| {
            if t == 1 {
                let mut sum = 0u64;
                for _ in 0..passes {
                    list.for_each(|v| sum += *v);
                }
                black_box(sum);
            } else {
                std::thread::scope(|s| {
                    for _ in 0..t {
                        s.spawn(|| {
                            let mut sum = 0u64;
                            for _ in 0..passes {
                                list.for_each(|v| sum += *v);
                            }
                            black_box(sum);
                        });
                    }
                });
            }
        });
    });
    MatrixRow {
        backend,
        threads,
        ns_per_hop: last_median_ns() / hops as f64,
    }
}

/// Measures the raw-walk floor: `for_each_unprotected` requires `&mut`
/// (no protection means no sharing), so each thread owns an identical
/// private list.
fn bench_raw_arm(group: &mut BenchmarkGroup<'_>, threads: usize, n: u64, passes: u64) -> MatrixRow {
    let mut lists: Vec<List<u64>> = (0..threads).map(|_| (0..n).collect()).collect();
    let hops = n * passes * threads as u64;
    group.throughput(Throughput::Elements(hops));
    let id = BenchmarkId::new("raw", format!("t{threads}"));
    group.bench_with_input(id, &threads, |b, &t| {
        b.iter(|| {
            if t == 1 {
                let list = &mut lists[0];
                let mut sum = 0u64;
                for _ in 0..passes {
                    list.for_each_unprotected(|v| sum += *v);
                }
                black_box(sum);
            } else {
                std::thread::scope(|s| {
                    for list in lists.iter_mut() {
                        s.spawn(move || {
                            let mut sum = 0u64;
                            for _ in 0..passes {
                                list.for_each_unprotected(|v| sum += *v);
                            }
                            black_box(sum);
                        });
                    }
                });
            }
        });
    });
    MatrixRow {
        backend: "raw",
        threads,
        ns_per_hop: last_median_ns() / hops as f64,
    }
}

fn main() {
    let smoke = smoke_mode();
    let sizes: &[u64] = if smoke { &[64] } else { &[1_000, 10_000] };
    let (matrix_n, passes) = if smoke { (64, 1) } else { (10_000, 4) };

    let mut c = Criterion::default();
    let mut rows: Vec<Row> = Vec::new();
    {
        let mut group = c.benchmark_group("traversal_hops");
        for &n in sizes {
            let mut list: List<u64> = (0..n).collect();
            group.throughput(Throughput::Elements(n));
            group.bench_with_input(BenchmarkId::new("protected_cursor", n), &n, |b, _| {
                b.iter(|| {
                    let mut sum = 0u64;
                    list.for_each(|v| sum += *v);
                    black_box(sum)
                });
            });
            let protected_ns = last_median_ns() / n as f64;
            group.bench_with_input(BenchmarkId::new("raw_walk", n), &n, |b, _| {
                b.iter(|| {
                    let mut sum = 0u64;
                    list.for_each_unprotected(|v| sum += *v);
                    black_box(sum)
                });
            });
            let raw_ns = last_median_ns() / n as f64;
            rows.push(Row {
                n,
                protected_ns,
                raw_ns,
            });
        }
        group.finish();
    }

    // Backend × thread-count matrix.
    let mut matrix: Vec<MatrixRow> = Vec::new();
    {
        let mut group = c.benchmark_group("traversal_backends");
        for &t in &thread_points(smoke) {
            matrix.push(bench_protected_arm::<RefCount>(
                &mut group, "refcount", t, matrix_n, passes,
            ));
            matrix.push(bench_protected_arm::<Epoch>(
                &mut group, "epoch", t, matrix_n, passes,
            ));
            matrix.push(bench_raw_arm(&mut group, t, matrix_n, passes));
        }
        group.finish();
    }

    if smoke {
        println!("traversal_hops: smoke run complete (no artifact written)");
        return;
    }

    // Summary + artifact. The headline number is the larger list (cold-ish
    // cache, amortized batch boundaries all exercised).
    let head = rows.last().expect("at least one size measured");
    let speedup = BASELINE_PROTECTED_NS_PER_HOP / head.protected_ns;
    println!(
        "\ntraversal_hops: protected {:.1} ns/hop (baseline {BASELINE_PROTECTED_NS_PER_HOP}) \
         — {speedup:.2}x vs seed, {:.2}x over raw walk",
        head.protected_ns,
        head.protected_ns / head.raw_ns,
    );
    let per_hop = |backend: &str, threads: usize| {
        matrix
            .iter()
            .find(|r| r.backend == backend && r.threads == threads)
            .map(|r| r.ns_per_hop)
            .unwrap_or(f64::NAN)
    };
    let epoch_vs_raw_t1 = per_hop("epoch", 1) / per_hop("raw", 1);
    let refcount_vs_raw_t1 = per_hop("refcount", 1) / per_hop("raw", 1);
    println!(
        "traversal_backends: single-thread epoch {:.2}x raw, refcount {:.2}x raw",
        epoch_vs_raw_t1, refcount_vs_raw_t1,
    );

    let mut sizes_json = String::new();
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            sizes_json.push(',');
        }
        sizes_json.push_str(&format!(
            "\n    {{ \"n\": {}, \"protected_ns_per_hop\": {:.2}, \"raw_ns_per_hop\": {:.2}, \
             \"protection_overhead_ratio\": {:.2} }}",
            r.n,
            r.protected_ns,
            r.raw_ns,
            r.protected_ns / r.raw_ns
        ));
    }
    let mut matrix_json = String::new();
    for (i, r) in matrix.iter().enumerate() {
        if i > 0 {
            matrix_json.push(',');
        }
        matrix_json.push_str(&format!(
            "\n    {{ \"backend\": \"{}\", \"threads\": {}, \"ns_per_hop\": {:.2} }}",
            r.backend, r.threads, r.ns_per_hop
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"traversal_hops\",\n  \"unit\": \"ns_per_hop\",\n  \"sizes\": [{sizes_json}\n  ],\n  \
         \"matrix\": [{matrix_json}\n  ],\n  \
         \"epoch_vs_raw_single_thread\": {epoch_vs_raw_t1:.2},\n  \
         \"refcount_vs_raw_single_thread\": {refcount_vs_raw_t1:.2},\n  \
         \"baseline\": {{\n    \"source\": \"EXPERIMENTS.md E8 (seed, pre-batching)\",\n    \
         \"protected_ns_per_hop\": {BASELINE_PROTECTED_NS_PER_HOP},\n    \
         \"raw_ns_per_hop\": {BASELINE_RAW_NS_PER_HOP}\n  }},\n  \
         \"speedup_vs_baseline\": {speedup:.2}\n}}\n"
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_traversal.json");
    match fs::write(&out, json) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
}
