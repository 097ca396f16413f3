//! Spin-lock algorithm comparison (the §1 baselines) and the exponential
//! backoff ablation (§2.1 cites backoff for contention management).

use std::sync::atomic::{AtomicU64, Ordering};
use valois_bench::criterion::{black_box, BenchmarkId, Criterion};
use valois_bench::{criterion_group, criterion_main};
use valois_sync::{Backoff, LockKind};

/// Per-thread iterations for contended runs. FIFO locks (ticket/CLH)
/// hand off to a specific waiter, which on a host with fewer
/// cores than threads costs a scheduler round per acquisition — keep the
/// counts small there so the benches stay tractable.
fn contended_iters() -> u64 {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores >= 4 {
        5_000
    } else {
        200
    }
}

fn bench_uncontended_locks(c: &mut Criterion) {
    let mut group = c.benchmark_group("lock_uncontended");
    for kind in LockKind::ALL {
        let lock = kind.build();
        group.bench_function(BenchmarkId::from_parameter(kind.name()), |b| {
            b.iter(|| {
                lock.acquire();
                lock.release();
            });
        });
    }
    group.finish();
}

fn bench_contended_locks(c: &mut Criterion) {
    let mut group = c.benchmark_group("lock_contended_4t");
    group.sample_size(10);
    for kind in LockKind::ALL {
        group.bench_function(BenchmarkId::from_parameter(kind.name()), |b| {
            let iters = contended_iters();
            b.iter(|| {
                let lock = kind.build();
                let counter = AtomicU64::new(0);
                std::thread::scope(|s| {
                    for _ in 0..4 {
                        let lock = &lock;
                        let counter = &counter;
                        s.spawn(move || {
                            for _ in 0..iters {
                                lock.acquire();
                                counter.fetch_add(1, Ordering::Relaxed);
                                lock.release();
                            }
                        });
                    }
                });
                black_box(counter.load(Ordering::Relaxed))
            });
        });
    }
    group.finish();
}

fn bench_backoff_ablation(c: &mut Criterion) {
    // CAS retry loops with and without §2.1 exponential backoff, 4 threads
    // incrementing one word.
    let mut group = c.benchmark_group("cas_backoff_ablation");
    group.sample_size(10);
    let run = |use_backoff: bool| {
        let word = AtomicU64::new(0);
        let iters = contended_iters() * 2;
        std::thread::scope(|s| {
            for _ in 0..4 {
                let word = &word;
                s.spawn(move || {
                    let mut backoff = Backoff::new();
                    for _ in 0..iters {
                        loop {
                            let v = word.load(Ordering::Acquire);
                            if word
                                .compare_exchange_weak(
                                    v,
                                    v + 1,
                                    Ordering::AcqRel,
                                    Ordering::Acquire,
                                )
                                .is_ok()
                            {
                                break;
                            }
                            if use_backoff {
                                backoff.spin();
                            }
                        }
                        backoff.reset();
                    }
                });
            }
        });
        word.load(Ordering::Relaxed)
    };
    group.bench_function("no_backoff", |b| b.iter(|| black_box(run(false))));
    group.bench_function("exponential_backoff", |b| b.iter(|| black_box(run(true))));
    group.finish();
}

criterion_group!(
    benches,
    bench_uncontended_locks,
    bench_contended_locks,
    bench_backoff_ablation
);
criterion_main!(benches);
