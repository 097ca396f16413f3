//! Building-block ADT benchmarks: the \[27\] FIFO queue, the stack, and
//! the priority queue, against `Mutex<VecDeque>`/`Mutex<BinaryHeap>`
//! references; plus the per-request cost of a queue-backed reply channel.

use std::collections::{BinaryHeap, VecDeque};
use std::sync::Mutex;

use valois_bench::criterion::{black_box, BenchmarkId, Criterion, Throughput};
use valois_bench::{criterion_group, criterion_main};
use valois_core::adt::{PriorityQueue, Stack};
use valois_core::channel::{channel, Sender};
use valois_core::queue::FifoQueue;

fn bench_queue_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("fifo_queue_enq_deq");
    let q: FifoQueue<u64> = FifoQueue::new();
    group.bench_function("lockfree", |b| {
        b.iter(|| {
            q.enqueue(7).unwrap();
            black_box(q.dequeue())
        });
    });
    let m: Mutex<VecDeque<u64>> = Mutex::new(VecDeque::new());
    group.bench_function("mutex_vecdeque", |b| {
        b.iter(|| {
            m.lock().unwrap().push_back(7);
            black_box(m.lock().unwrap().pop_front())
        });
    });
    group.finish();
}

fn bench_queue_contended(c: &mut Criterion) {
    let mut group = c.benchmark_group("fifo_queue_contended_4t");
    group.sample_size(10);
    group.bench_function("lockfree", |b| {
        b.iter(|| {
            let q: FifoQueue<u64> = FifoQueue::new();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        for i in 0..5_000u64 {
                            q.enqueue(i).unwrap();
                        }
                    });
                    s.spawn(|| {
                        for _ in 0..5_000 {
                            while q.dequeue().is_none() {
                                std::hint::spin_loop();
                            }
                        }
                    });
                }
            });
            black_box(q.len())
        });
    });
    group.finish();
}

/// Channels the cold arm keeps alive at once: more than a thread's
/// channel pool holds, so most of them are built and freed.
const COLD_CHANNELS: usize = 64;

/// What `valois-server` pays per request for its reply path: take a
/// channel (recycled from this thread's pool after the first), hand its
/// `Sender` to a long-lived worker thread (over a second channel, as a
/// shard's request queue does), receive the one reply, drop both halves.
/// `create_drop` isolates the take-and-recycle cost; the cold group keeps
/// [`COLD_CHANNELS`] alive at once, so all but a pool's worth pay full
/// construction and teardown.
fn bench_channel_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("channel_roundtrip");
    group.bench_function("create_drop", |b| b.iter(channel::<u64>));
    let (req_tx, req_rx) = channel::<Sender<u64>>();
    std::thread::scope(|s| {
        s.spawn(move || {
            for reply in req_rx.iter() {
                let _ = reply.send(7);
            }
        });
        group.bench_function("two_thread", |b| {
            b.iter(|| {
                let (tx, rx) = channel::<u64>();
                req_tx.send(tx).unwrap();
                rx.recv()
            });
        });
        drop(req_tx);
    });
    group.finish();

    let mut cold = c.benchmark_group("channel_create_drop_cold");
    cold.throughput(Throughput::Elements(COLD_CHANNELS as u64));
    let mut live = Vec::with_capacity(COLD_CHANNELS);
    cold.bench_function(BenchmarkId::from_parameter(COLD_CHANNELS), |b| {
        b.iter(|| {
            live.extend((0..COLD_CHANNELS).map(|_| channel::<u64>()));
            live.clear();
        });
    });
    cold.finish();
}

fn bench_stack_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("stack_push_pop");
    let s: Stack<u64> = Stack::new();
    group.bench_function("lockfree", |b| {
        b.iter(|| {
            s.push(7).unwrap();
            black_box(s.pop())
        });
    });
    let m: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    group.bench_function("mutex_vec", |b| {
        b.iter(|| {
            m.lock().unwrap().push(7);
            black_box(m.lock().unwrap().pop())
        });
    });
    group.finish();
}

fn bench_pqueue(c: &mut Criterion) {
    let mut group = c.benchmark_group("priority_queue_64");
    let q: PriorityQueue<u64> = PriorityQueue::new();
    for i in 0..64 {
        q.insert(i * 2).unwrap();
    }
    let mut k = 0u64;
    group.bench_function("lockfree_sorted_list", |b| {
        b.iter(|| {
            k = (k + 17) % 128;
            q.insert(k | 1).unwrap();
            black_box(q.pop_min())
        });
    });
    let heap: Mutex<BinaryHeap<std::cmp::Reverse<u64>>> =
        Mutex::new((0..64).map(|i| std::cmp::Reverse(i * 2)).collect());
    group.bench_function("mutex_binaryheap", |b| {
        b.iter(|| {
            k = (k + 17) % 128;
            heap.lock().unwrap().push(std::cmp::Reverse(k | 1));
            black_box(heap.lock().unwrap().pop())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_queue_cycle,
    bench_queue_contended,
    bench_channel_roundtrip,
    bench_stack_cycle,
    bench_pqueue
);
criterion_main!(benches);
