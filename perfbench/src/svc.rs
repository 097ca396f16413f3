//! The service workload (`svc_zipf_read`): one client thread keeps two
//! connections busy against a 2-shard `Server<RefCount>`, each connection
//! sending its next request only after its reply arrived (closed loop).

use std::sync::atomic::Ordering;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use valois_core::channel::{channel, Receiver, TryRecvError};
use valois_core::{ArenaConfig, ListStats, RefCount};
use valois_server::{Op, Outcome, Request, Response, Server, ServiceConfig};

use crate::check::{self, MISSING, OVERLOADED, REFUSED, SCAN_LEN};
use crate::inputs::{self, key, kind, value_of, Keys, Kind};
use crate::report::{self, ratio, Gauges, Metrics, Report};
use crate::stats::{self, Samples};
use crate::trace::{self, Name, Recorder, Span, SPAN_SAMPLE};
use crate::window::{self, Phase, Slices, Window};
use crate::Args;

/// Key space; the even half is prefilled.
pub const KEYS: u64 = 1 << 20;
/// Zipf exponent of the key distribution.
pub const ZIPF_THETA: f64 = 0.99;
/// get/put/del/scan percentages.
pub const MIX: [u32; 4] = [70, 15, 10, 5];
/// Connections kept busy by the client thread (requests in flight).
pub const CONNS: usize = 2;
const STREAM_LEN: usize = 1 << 20;
/// Prefill requests in flight at once.
const PREFILL_WINDOW: usize = 64;
const SAMPLES: usize = 1 << 22;
/// Reply-log bytes reserved per second of window (far above any rate a
/// closed loop of two connections reaches).
const LOG_PER_SEC: usize = 500_000;
const SPANS: usize = 1 << 18;
/// The client samples the memory gauges every this many traced replies.
const GAUGE_EVERY: u64 = 4096;

/// The server under test: 2 shards, batch 64, no commit stall.
pub fn config() -> ServiceConfig {
    ServiceConfig {
        shards: 2,
        batch: 64,
        commit_group: 0,
        commit_stall: Duration::ZERO,
        initial_buckets: 64,
        arena: ArenaConfig::default(),
    }
}

fn to_op(op: u32) -> Op {
    let k = key(op);
    match kind(op) {
        Kind::Find => Op::Get(k),
        Kind::Insert => Op::Put(k, value_of(k)),
        Kind::Remove => Op::Del(k),
        Kind::Scan => Op::Scan {
            start: k,
            len: SCAN_LEN,
        },
    }
}

/// Starts a server and puts every even key through `submit`, with up to
/// [`PREFILL_WINDOW`] requests in flight sharing one reply channel (set-up
/// is not what the per-request channel metrics measure).
fn start_and_prefill() -> Result<Server<RefCount>, String> {
    let server = Server::start(&config());
    let conn = server.new_conn();
    let (tx, rx) = channel();
    let mut in_flight = 0;
    let settle = |rx: &Receiver<Response>| match rx.recv() {
        Some(Response {
            outcome: Outcome::Inserted(true),
            ..
        }) => Ok(()),
        other => Err(format!("prefill put answered {other:?}")),
    };
    for k in (0..KEYS).step_by(2) {
        if in_flight == PREFILL_WINDOW {
            settle(&rx)?;
            in_flight -= 1;
        }
        let req = Request {
            conn,
            seq: k,
            op: Op::Put(k, value_of(k)),
            issued: Instant::now(),
            reply: tx.clone(),
        };
        server
            .submit(req)
            .map_err(|_| format!("prefill put of key {k} refused"))?;
        in_flight += 1;
    }
    (0..in_flight).try_for_each(|_| settle(&rx))?;
    Ok(server)
}

/// One request awaiting its reply.
struct InFlight {
    idx: u64,
    rx: Receiver<Response>,
    /// Before the reply channel is created.
    start: Instant,
    /// Around `Server::submit`, when this request is traced.
    submit: Option<(Instant, Instant)>,
}

/// The client thread's state; every buffer is allocated before the window.
struct Client<'a> {
    server: &'a Server<RefCount>,
    conns: [u64; CONNS],
    stream: &'a [u32],
    /// One reply code per submitted request, by submit index.
    log: Vec<u8>,
    next: u64,
    samples: Samples,
    spans: Recorder,
    /// Replies timed, by window step.
    ops: Vec<u64>,
    traced_replies: u64,
    failed: u64,
    puts: u64,
    puts_inserted: u64,
    gauges: Gauges,
    error: Option<String>,
}

impl Client<'_> {
    /// Submits the next stream operation on connection `c`; a refused
    /// request is logged and the one after it tried. `None` once the reply
    /// log is full.
    fn submit(&mut self, c: usize, traced: bool) -> Option<InFlight> {
        loop {
            let idx = self.next;
            if idx as usize == self.log.len() {
                return None;
            }
            self.next += 1;
            let op = self.stream[idx as usize & (self.stream.len() - 1)];
            let start = Instant::now();
            let (tx, rx) = channel();
            let req = Request {
                conn: self.conns[c],
                seq: idx,
                op: to_op(op),
                issued: start,
                reply: tx,
            };
            let sampled = traced && idx.is_multiple_of(SPAN_SAMPLE);
            let before = sampled.then(Instant::now);
            match self.server.submit(req) {
                Ok(()) => {
                    let submit = before.map(|b| (b, Instant::now()));
                    return Some(InFlight {
                        idx,
                        rx,
                        start,
                        submit,
                    });
                }
                Err(_) => {
                    self.log[idx as usize] = REFUSED;
                    self.failed += 1;
                }
            }
        }
    }

    /// Logs one reply; times it when it arrived inside the window, at
    /// step `step` in phase `phase`.
    fn complete(&mut self, f: &InFlight, resp: Response, at: Option<(Instant, usize, Phase)>) {
        let op = self.stream[f.idx as usize & (self.stream.len() - 1)];
        let code = if resp.seq == f.idx {
            check::encode(op, resp.outcome)
        } else {
            MISSING
        };
        self.log[f.idx as usize] = code;
        if kind(op) == Kind::Insert {
            self.puts += 1;
            self.puts_inserted += u64::from(code == 1);
        }
        if code == OVERLOADED {
            self.failed += 1;
        }
        let Some((end, step, phase)) = at else { return };
        self.samples.record(end - f.start);
        self.ops[step] += 1;
        if let Some((b, a)) = f.submit {
            let s = |t| self.spans.ns(t);
            let (t0, t1, t2, t3) = (s(f.start), s(b), s(a), s(end));
            let span = |span, parent, name, start, end| Span {
                trace: f.idx,
                span,
                parent,
                name,
                op: kind(op),
                start,
                end,
            };
            self.spans.push(span(0, None, Name::Request, t0, t3));
            self.spans
                .push(span(1, Some(0), Name::ServerSubmit, t1, t2));
            self.spans
                .push(span(2, Some(0), Name::ServerReplyWait, t2, t3));
        }
        if phase == Phase::Traced {
            self.traced_replies += 1;
            if self.traced_replies.is_multiple_of(GAUGE_EVERY) {
                self.gauges.sample(&self.server.mem_stats());
            }
        }
    }

    /// The closed loop: until the window ends, poll both connections and
    /// resubmit on each reply; then collect the replies still in flight
    /// (logged, not timed).
    fn run(&mut self, window: &Window) {
        let traced = window.current() == Some((0, Phase::Traced));
        let mut inflight: [Option<InFlight>; CONNS] =
            std::array::from_fn(|c| self.submit(c, traced));
        while let Some((step, phase)) = window.current() {
            if inflight.iter().all(Option::is_none) {
                break;
            }
            let mut progressed = false;
            for (c, slot) in inflight.iter_mut().enumerate() {
                let Some(f) = slot else { continue };
                match f.rx.try_recv() {
                    Ok(resp) => {
                        let end = Instant::now();
                        let f = slot.take().expect("slot holds a request");
                        self.complete(&f, resp, Some((end, step, phase)));
                        *slot = self.submit(c, phase == Phase::Traced);
                        progressed = true;
                    }
                    Err(TryRecvError::Empty) => {}
                    Err(TryRecvError::Disconnected) => {
                        self.error = Some(format!("request {} lost its reply channel", f.idx));
                        *slot = None;
                    }
                }
            }
            if !progressed {
                std::thread::yield_now();
            }
        }
        for f in inflight.into_iter().flatten() {
            if let Some(resp) = f.rx.recv() {
                self.complete(&f, resp, None);
            }
        }
        self.log.truncate(self.next as usize);
    }
}

fn list_sum(stats: impl Iterator<Item = ListStats>) -> ListStats {
    stats.fold(ListStats::default(), |a, b| ListStats {
        updates: a.updates + b.updates,
        aux_unlinked: a.aux_unlinked + b.aux_unlinked,
        aux_skipped: a.aux_skipped + b.aux_skipped,
        next_steps: a.next_steps + b.next_steps,
        insert_attempts: a.insert_attempts + b.insert_attempts,
        insert_successes: a.insert_successes + b.insert_successes,
        delete_attempts: a.delete_attempts + b.delete_attempts,
        delete_successes: a.delete_successes + b.delete_successes,
        backlink_hops: a.backlink_hops + b.backlink_hops,
        chain_cleanup_retries: a.chain_cleanup_retries + b.chain_cleanup_retries,
        resumes: a.resumes + b.resumes,
        resume_hops: a.resume_hops + b.resume_hops,
    })
}

/// Per-shard `(completed, batches)`.
fn shard_counters(server: &Server<RefCount>) -> Vec<(u64, u64)> {
    server
        .shards()
        .iter()
        .map(|s| {
            (
                s.stats.completed.load(Ordering::Relaxed),
                s.stats.batches.load(Ordering::Relaxed),
            )
        })
        .collect()
}

/// Runs `svc_zipf_read`.
pub fn run(args: &Args) -> Report {
    let epoch = Instant::now();
    let stream = inputs::stream(args.seed, 0, STREAM_LEN, MIX, &Keys::zipf(KEYS, ZIPF_THETA));
    let setup = || {
        let t0 = Instant::now();
        start_and_prefill().map(|s| (t0.elapsed().as_secs_f64(), s))
    };

    let mut m = Metrics::new();
    let mut slices = Slices::default();
    let mut setups = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut peak_kib = 0;
    for (instance, seconds) in window::shares(args.seconds, args.trace)
        .into_iter()
        .enumerate()
    {
        let window = Window::new(seconds, args.trace);
        let log = vec![MISSING; seconds as usize * LOG_PER_SEC];
        let samples = Samples::with_capacity(SAMPLES);
        let spans = Recorder::new(epoch, if args.trace { SPANS } else { 0 });
        let (setup_s, server) = match setup() {
            Ok(kept) => kept,
            Err(e) => return Report::wrong(e),
        };
        setups.push(setup_s);

        let shards_before = shard_counters(&server);
        let list_before = list_sum(server.shards().iter().map(|s| s.dict.list_stats()));
        let mem_before = server.mem_stats();
        let mut client = Client {
            server: &server,
            conns: [0; CONNS].map(|_| server.new_conn()),
            stream: &stream,
            log,
            next: 0,
            samples,
            spans,
            ops: vec![0; window.len()],
            traced_replies: 0,
            failed: 0,
            puts: 0,
            puts_inserted: 0,
            gauges: Gauges::default(),
            error: None,
        };
        let barrier = Barrier::new(2);
        let secs = std::thread::scope(|s| {
            let (client, window, barrier) = (&mut client, &window, &barrier);
            s.spawn(move || {
                barrier.wait();
                client.run(window);
            });
            barrier.wait();
            window.drive()
        });
        if instance == 0 {
            peak_kib = report::peak_kib();
        }
        let shards_after = shard_counters(&server);
        let list_delta =
            list_sum(server.shards().iter().map(|s| s.dict.list_stats())).since(&list_before);
        let mem_end = server.mem_stats();
        let mem_delta = mem_end.since(&mem_before);
        let resize: [u64; 3] = server.shards().iter().fold([0; 3], |a, s| {
            [
                a[0] + s.dict.bucket_count(),
                a[1] + s.dict.doublings(),
                a[2] + s.dict.initialized_buckets(),
            ]
        });
        let capacity: u64 = server
            .shards()
            .iter()
            .map(|s| s.dict.as_list().node_capacity() as u64)
            .sum();

        // Release the client's borrow of the server before shutting it down.
        let Client {
            log,
            next,
            samples,
            spans,
            ops,
            failed: refused_or_overloaded,
            puts,
            puts_inserted,
            gauges,
            error,
            ..
        } = client;
        if let Some(e) = error {
            return Report::wrong(e);
        }
        let even = |k: u64| k.is_multiple_of(2) && k < KEYS;
        match check::replay(&stream, &log, KEYS, config().shards, even) {
            Ok(f) if f == refused_or_overloaded => {}
            Ok(f) => {
                return Report::wrong(format!(
                    "replay counts {f} failed requests, client {refused_or_overloaded}"
                ))
            }
            Err(e) => return Report::wrong(e),
        }
        for mut d in server.shutdown() {
            if let Err(e) = d.check_invariants().and_then(|()| d.audit_refcounts()) {
                return Report::wrong(e);
            }
        }
        attempted += next;
        failed += refused_or_overloaded;
        if !args.trace {
            slices.add(&secs, &[&ops], &[&samples]);
            continue;
        }
        let spans_dropped = spans.dropped;
        let spans = [spans.spans()];
        let p50 = |v: Vec<u64>| stats::nearest_rank(&v, 5000).unwrap_or(0) as f64;
        m.insert(
            "server.submit_ns_p50",
            p50(trace::durations(&spans, Name::ServerSubmit, None)),
        );
        m.insert(
            "server.reply_wait_us_p50",
            p50(trace::durations(&spans, Name::ServerReplyWait, None)) / 1e3,
        );
        m.insert(
            "server.request_self_ns_p50",
            p50(trace::self_times(&spans, Name::Request)),
        );
        for (name, kd) in [
            ("server.get_us_p50", Kind::Find),
            ("server.put_us_p50", Kind::Insert),
            ("server.del_us_p50", Kind::Remove),
            ("server.scan_us_p50", Kind::Scan),
        ] {
            m.insert(
                name,
                p50(trace::durations(&spans, Name::Request, Some(kd))) / 1e3,
            );
        }
        let done: Vec<u64> = shards_after
            .iter()
            .zip(&shards_before)
            .map(|(a, b)| a.0 - b.0)
            .collect();
        let batches: u64 = shards_after
            .iter()
            .zip(&shards_before)
            .map(|(a, b)| a.1 - b.1)
            .sum();
        let total: u64 = done.iter().sum();
        m.insert("server.batch_mean", ratio(total, batches));
        let max = done.iter().copied().max().unwrap_or(0);
        m.insert("server.shard_skew", ratio(max * done.len() as u64, total));
        m.insert("dict.insert_success_ratio", ratio(puts_inserted, puts));
        m.insert("dict.bucket_count", resize[0] as f64);
        m.insert("dict.doublings", resize[1] as f64);
        m.insert("dict.initialized_buckets", resize[2] as f64);
        report::list_metrics(&mut m, &list_delta, next);
        report::mem_metrics(&mut m, &mem_delta, &mem_end, capacity, gauges, next);
        m.insert("trace.overhead_frac", window.overhead(&secs, &[&ops]));
        crate::write_spans(&spans, spans_dropped, args);
    }
    if !args.trace {
        let (rate, p50, p99) = slices.medians();
        m.insert("throughput_ops_s", rate);
        m.insert("latency_p50_us", p50 / 1e3);
        m.insert("latency_p99_us", p99 / 1e3);
        m.insert("setup_s", stats::median(&setups));
        m.insert("peak_rss_mib", peak_kib as f64 / 1024.0);
        m.insert("completed_frac", ratio(attempted - failed, attempted));
    }
    m.insert("failed_frac", ratio(failed, attempted));
    Report {
        error: None,
        attempted,
        failed,
        metrics: m,
    }
}
