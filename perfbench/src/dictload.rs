//! The dictionary workloads (`list_walk`, `hash_churn`): two threads run a
//! pre-generated find/insert/remove stream against one dictionary, calling
//! it directly through the `Dictionary` trait.

use std::sync::Barrier;
use std::time::Instant;

use valois_core::{Epoch, ListStats, MemStats, RefCount};
use valois_dict::{Dictionary, ResizableHashDict, SortedListDict};

use crate::check;
use crate::inputs::{self, key, kind, value_of, FixedState, Keys, Kind};
use crate::report::{self, ratio, Gauges, Metrics, Report};
use crate::stats::{self, Samples};
use crate::trace::{self, Name, Recorder, Span, SPAN_SAMPLE};
use crate::window::{self, Phase, Slices, Window};
use crate::Args;

/// Load-generating threads.
pub const THREADS: usize = 2;
/// Latency samples kept per thread.
const SAMPLES_PER_THREAD: usize = 1 << 22;
/// Spans kept per thread in a traced run.
const SPANS_PER_THREAD: usize = 1 << 19;
/// Thread 0 samples the memory gauges every this many operations of a
/// traced step.
const GAUGE_EVERY: usize = 4096;

/// One dictionary workload's shape.
#[derive(Debug)]
pub struct Spec {
    /// Keys are drawn uniformly from `0..keys`.
    pub keys: u64,
    /// Distinct keys inserted before the window.
    pub prefill: usize,
    /// find/insert/remove percentages.
    pub mix: [u32; 3],
    /// Operations per thread stream (a power of two; the window cycles it).
    pub stream_len: usize,
    /// Set-ups timed, counting one per measured instance; `setup_s` is
    /// their median.
    pub setup_reps: usize,
}

/// `list_walk`: a sorted list of ~1024 keys, so every operation walks
/// hundreds of cells under per-hop protection.
pub const LIST_WALK: Spec = Spec {
    keys: 2048,
    prefill: 1024,
    mix: [90, 5, 5],
    stream_len: 1 << 16,
    setup_reps: 31,
};

/// `hash_churn`: a split-ordered hash table of ~500k keys, half the
/// operations allocating and half retiring nodes.
pub const HASH_CHURN: Spec = Spec {
    keys: 1 << 20,
    prefill: 1 << 19,
    mix: [20, 40, 40],
    stream_len: 1 << 21,
    setup_reps: 3,
};

/// What the benchmark needs from a dictionary beyond `Dictionary`.
pub trait Target: Dictionary<u64, u64> {
    /// List-layer counters.
    fn list_stats(&self) -> ListStats;
    /// Memory-layer counters.
    fn mem_stats(&self) -> MemStats;
    /// Nodes owned by the arena.
    fn node_capacity(&self) -> u64;
    /// Bucket count, doublings, initialised buckets (0 for a plain list).
    fn resize_counters(&self) -> [u64; 3];
    /// Structural checks at quiescence.
    fn verify(&mut self) -> Result<(), String>;
}

impl Target for SortedListDict<u64, u64, RefCount> {
    fn list_stats(&self) -> ListStats {
        self.list_stats()
    }
    fn mem_stats(&self) -> MemStats {
        self.mem_stats()
    }
    fn node_capacity(&self) -> u64 {
        self.as_list().node_capacity() as u64
    }
    fn resize_counters(&self) -> [u64; 3] {
        [0; 3]
    }
    fn verify(&mut self) -> Result<(), String> {
        self.check_invariants()?;
        self.audit_refcounts()
    }
}

impl Target for ResizableHashDict<u64, u64, FixedState, Epoch> {
    fn list_stats(&self) -> ListStats {
        self.list_stats()
    }
    fn mem_stats(&self) -> MemStats {
        self.mem_stats()
    }
    fn node_capacity(&self) -> u64 {
        self.as_list().node_capacity() as u64
    }
    fn resize_counters(&self) -> [u64; 3] {
        [
            self.bucket_count(),
            self.doublings(),
            self.initialized_buckets(),
        ]
    }
    fn verify(&mut self) -> Result<(), String> {
        self.check_invariants()
    }
}

/// One load thread's buffers, all allocated before the window.
struct Worker {
    samples: Samples,
    /// Net successful inserts per key.
    tally: Vec<i32>,
    spans: Recorder,
    /// Operations started, by window step.
    ops: Vec<u64>,
    inserts: u64,
    inserted: u64,
    wrong_values: u64,
    gauges: Gauges,
}

impl Worker {
    fn new(keys: u64, window: &Window, traced: bool, epoch: Instant) -> Self {
        let mut tally = vec![0i32; keys as usize];
        // Touch every page now, not inside the window.
        std::hint::black_box(&mut tally[..]).fill(0);
        Self {
            samples: Samples::with_capacity(SAMPLES_PER_THREAD),
            tally,
            spans: Recorder::new(epoch, if traced { SPANS_PER_THREAD } else { 0 }),
            ops: vec![0; window.len()],
            inserts: 0,
            inserted: 0,
            wrong_values: 0,
            gauges: Gauges::default(),
        }
    }

    fn run<D: Target>(&mut self, d: &D, stream: &[u32], window: &Window, id: usize) {
        let mask = stream.len() - 1;
        let mut i = 0usize;
        while let Some((step, phase)) = window.current() {
            let op = stream[i & mask];
            let (k, kd) = (key(op), kind(op));
            let t0 = Instant::now();
            let (ok, value) = match kd {
                Kind::Find => d.find(&k).map_or((false, 0), |v| (true, v)),
                Kind::Insert => (d.insert(k, value_of(k)), 0),
                Kind::Remove => (d.remove(&k), 0),
                Kind::Scan => unreachable!("dictionary streams carry no scans"),
            };
            let t1 = Instant::now();
            self.samples.record(t1 - t0);
            self.ops[step] += 1;
            if kd == Kind::Insert {
                self.inserts += 1;
                self.inserted += u64::from(ok);
            }
            if ok {
                match kd {
                    Kind::Find if value != value_of(k) => self.wrong_values += 1,
                    Kind::Insert => self.tally[k as usize] += 1,
                    Kind::Remove => self.tally[k as usize] -= 1,
                    _ => {}
                }
            }
            if phase == Phase::Traced {
                if (i as u64).is_multiple_of(SPAN_SAMPLE) {
                    let span = Span {
                        trace: (i * THREADS + id) as u64,
                        span: 0,
                        parent: None,
                        name: Name::Dict(kd),
                        op: kd,
                        start: self.spans.ns(t0),
                        end: self.spans.ns(t1),
                    };
                    self.spans.push(span);
                }
                if id == 0 && i.is_multiple_of(GAUGE_EVERY) {
                    self.gauges.sample(&d.mem_stats());
                }
            }
            i += 1;
        }
    }
}

/// Runs one dictionary workload; `make` builds an empty dictionary.
pub fn run<D: Target>(spec: &Spec, args: &Args, make: impl Fn() -> D) -> Report {
    let epoch = Instant::now();
    let prefill = inputs::sample_keys(args.seed, spec.keys, spec.prefill);
    let mut prefilled = vec![false; spec.keys as usize];
    for &k in &prefill {
        prefilled[k as usize] = true;
    }
    let [f, i, r] = spec.mix;
    let dist = Keys::Uniform(spec.keys);
    let streams: Vec<Vec<u32>> = (0..THREADS)
        .map(|t| inputs::stream(args.seed, t as u64, spec.stream_len, [f, i, r, 0], &dist))
        .collect();
    let setup = || {
        let t0 = Instant::now();
        let d = make();
        match prefill.iter().find(|&&k| !d.insert(k, value_of(k))) {
            None => Ok((t0.elapsed().as_secs_f64(), d)),
            Some(k) => Err(format!("prefill insert of distinct key {k} refused")),
        }
    };

    let mut m = Metrics::new();
    let mut slices = Slices::default();
    let mut setups = Vec::with_capacity(spec.setup_reps);
    let mut attempted = 0;
    let mut peak_kib = 0;
    for (instance, seconds) in window::shares(args.seconds, args.trace)
        .into_iter()
        .enumerate()
    {
        let window = Window::new(seconds, args.trace);
        let mut workers: Vec<Worker> = (0..THREADS)
            .map(|_| Worker::new(spec.keys, &window, args.trace, epoch))
            .collect();
        let (setup_s, mut dict) = match setup() {
            Ok(kept) => kept,
            Err(e) => return Report::wrong(e),
        };
        setups.push(setup_s);

        let list_before = dict.list_stats();
        let mem_before = dict.mem_stats();
        let barrier = Barrier::new(THREADS + 1);
        let secs = std::thread::scope(|s| {
            for (id, (w, stream)) in workers.iter_mut().zip(&streams).enumerate() {
                let (d, window, barrier) = (&dict, &window, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    w.run(d, stream, window, id);
                });
            }
            barrier.wait();
            window.drive()
        });
        if instance == 0 {
            peak_kib = report::peak_kib();
        }
        let list_delta = dict.list_stats().since(&list_before);
        let mem_end = dict.mem_stats();
        let mem_delta = mem_end.since(&mem_before);

        let wrong_values: u64 = workers.iter().map(|w| w.wrong_values).sum();
        if wrong_values > 0 {
            return Report::wrong(format!(
                "{wrong_values} finds returned a value not stored under their key"
            ));
        }
        let tallies: Vec<&[i32]> = workers.iter().map(|w| &w.tally[..]).collect();
        let checked = check::conservation(
            spec.keys,
            |k| prefilled[k as usize],
            &tallies,
            |k| dict.find(&k),
        );
        if let Err(e) = checked.and_then(|()| dict.verify()) {
            return Report::wrong(e);
        }

        let ops: Vec<&[u64]> = workers.iter().map(|w| &w.ops[..]).collect();
        let done: u64 = ops.iter().flat_map(|o| o.iter()).sum();
        attempted += done;
        if !args.trace {
            let samples: Vec<&Samples> = workers.iter().map(|w| &w.samples).collect();
            slices.add(&secs, &ops, &samples);
            continue;
        }
        let spans: Vec<&[Span]> = workers.iter().map(|w| w.spans.spans()).collect();
        for (name, kd) in [
            ("dict.find_ns_p50", Kind::Find),
            ("dict.insert_ns_p50", Kind::Insert),
            ("dict.remove_ns_p50", Kind::Remove),
        ] {
            let d = trace::durations(&spans, Name::Dict(kd), None);
            m.insert(name, stats::nearest_rank(&d, 5000).unwrap_or(0) as f64);
        }
        let sum = |f: fn(&Worker) -> u64| workers.iter().map(f).sum::<u64>();
        m.insert(
            "dict.insert_success_ratio",
            ratio(sum(|w| w.inserted), sum(|w| w.inserts)),
        );
        let [buckets, doublings, inits] = dict.resize_counters();
        m.insert("dict.bucket_count", buckets as f64);
        m.insert("dict.doublings", doublings as f64);
        m.insert("dict.initialized_buckets", inits as f64);
        report::list_metrics(&mut m, &list_delta, done);
        report::mem_metrics(
            &mut m,
            &mem_delta,
            &mem_end,
            dict.node_capacity(),
            workers[0].gauges,
            done,
        );
        m.insert("trace.overhead_frac", window.overhead(&secs, &ops));
        let dropped = workers.iter().map(|w| w.spans.dropped).sum();
        crate::write_spans(&spans, dropped, args);
    }
    if !args.trace {
        while setups.len() < spec.setup_reps {
            match setup() {
                Ok((t, d)) => {
                    setups.push(t);
                    drop(d);
                }
                Err(e) => return Report::wrong(e),
            }
        }
        let (rate, p50, p99) = slices.medians();
        m.insert("throughput_ops_s", rate);
        m.insert("latency_p50_us", p50 / 1e3);
        m.insert("latency_p99_us", p99 / 1e3);
        m.insert("setup_s", stats::median(&setups));
        m.insert("peak_rss_mib", peak_kib as f64 / 1024.0);
        m.insert("completed_frac", ratio(attempted, attempted));
    }
    m.insert("failed_frac", 0.0);
    Report {
        error: None,
        attempted,
        failed: 0,
        metrics: m,
    }
}

/// Runs `list_walk`.
pub fn list_walk(args: &Args) -> Report {
    run(&LIST_WALK, args, SortedListDict::<u64, u64, RefCount>::new)
}

/// Runs `hash_churn`.
pub fn hash_churn(args: &Args) -> Report {
    run(&HASH_CHURN, args, || {
        ResizableHashDict::<u64, u64, FixedState, Epoch>::with_hasher(64, FixedState::default())
    })
}
