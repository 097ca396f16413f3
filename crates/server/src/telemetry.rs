//! The live stats feed: a sampler thread turning the service's always-on
//! counters into per-interval [`Tick`]s.
//!
//! Two layers feed one tick, neither added for monitoring's sake:
//!
//! 1. **Shard counters** — completed/batches/commits, plus the latency
//!    histogram (racy snapshot reads, as all live monitoring is).
//! 2. **Structure + protocol counters** — [`ListStats`]/[`MemStats`]
//!    from the shard dictionaries. These advance *mid-operation* because
//!    cursors flush their batched tallies periodically, not only on
//!    drop; without that flush a long-lived cursor froze the feed (the
//!    stale-live-stats bug this PR fixes, pinned by
//!    `crates/core/tests/live_stats.rs`).
//!
//! See `docs/OBSERVABILITY.md` for the workflow.

use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use valois_core::ListStats;
use valois_harness::LatencySummary;
use valois_mem::{MemStats, Reclaimer};
use valois_sync::shim::atomic::{AtomicBool, Ordering};

use crate::shard::Shard;

/// One interval's worth of service statistics.
#[derive(Debug, Clone, Copy)]
pub struct Tick {
    /// Tick index (0-based).
    pub index: u64,
    /// Requests served, cumulative.
    pub completed: u64,
    /// Requests served during this interval.
    pub delta_completed: u64,
    /// Serving rate over this interval.
    pub ops_per_sec: f64,
    /// Cumulative latency quantiles (`None` before the first sample).
    pub latency: Option<LatencySummary>,
    /// List traversal steps during this interval (all shards).
    pub next_steps: u64,
    /// Successful inserts during this interval.
    pub inserts: u64,
    /// Successful deletes during this interval.
    pub deletes: u64,
    /// `SafeRead`s during this interval (0 under the epoch backend).
    pub safe_reads: u64,
    /// Epoch-backend gauge: nodes currently parked in limbo, all shards.
    pub epoch_limbo_depth: u64,
}

impl std::fmt::Display for Tick {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "t={:>4}  {:>9.0} ops/s  served {:>8}",
            self.index, self.ops_per_sec, self.delta_completed,
        )?;
        if let Some(l) = self.latency {
            write!(
                f,
                "  p50 {:>7.1?}  p99 {:>7.1?}  p999 {:>7.1?}",
                l.p50, l.p99, l.p999
            )?;
        }
        write!(
            f,
            "  steps {:>8}  ins {:>6}  del {:>6}  limbo {:>5}",
            self.next_steps, self.inserts, self.deletes, self.epoch_limbo_depth
        )
    }
}

/// A running sampler: reads every shard's counters at a fixed interval
/// and appends a [`Tick`]. Stop it (and collect the ticks) with
/// [`StatsFeed::stop`] *before* shutting the server down.
pub struct StatsFeed {
    ticks: Arc<Mutex<Vec<Tick>>>,
    stop: Arc<AtomicBool>,
    sampler: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for StatsFeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsFeed").finish_non_exhaustive()
    }
}

/// Every shard's list and memory counters, summed.
fn sum_stats<R: Reclaimer>(shards: &[Arc<Shard<R>>]) -> (ListStats, MemStats) {
    (
        shards.iter().map(|s| s.dict.list_stats()).sum(),
        shards.iter().map(|s| s.mem_stats()).sum(),
    )
}

impl StatsFeed {
    /// Starts sampling `shards` every `interval`. `print` additionally
    /// writes each tick to stdout (the live per-second feed).
    pub fn start<R: Reclaimer + 'static>(
        shards: &[Arc<Shard<R>>],
        interval: Duration,
        print: bool,
    ) -> Self {
        let shards: Vec<Arc<Shard<R>>> = shards.to_vec();
        let ticks = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let ticks_in = Arc::clone(&ticks);
        let stop_in = Arc::clone(&stop);
        let sampler = std::thread::Builder::new()
            .name("valois-stats-feed".into())
            .spawn(move || {
                let stop = stop_in;
                let mut index = 0u64;
                let mut prev_completed = 0u64;
                let (mut prev_list, mut prev_mem) = sum_stats(&shards);
                // ORDER: Acquire pairs with the Release store in
                // `StatsFeed::stop`/`Drop` — the plain stop-flag
                // handshake before the join.
                while !stop.load(Ordering::Acquire) {
                    std::thread::sleep(interval);
                    let completed: u64 = shards
                        .iter()
                        .map(|s| s.stats.completed.load(Ordering::Relaxed))
                        .sum();
                    let (list, mem) = sum_stats(&shards);
                    let list_delta = list.since(&prev_list);
                    let mem_delta = mem.since(&prev_mem);
                    let latency = {
                        let merged = valois_harness::LatencyHistogram::new();
                        for s in &shards {
                            merged.merge(&s.latency);
                        }
                        merged.summary()
                    };
                    let tick = Tick {
                        index,
                        completed,
                        delta_completed: completed.saturating_sub(prev_completed),
                        ops_per_sec: completed.saturating_sub(prev_completed) as f64
                            / interval.as_secs_f64().max(f64::EPSILON),
                        latency,
                        next_steps: list_delta.next_steps,
                        inserts: list_delta.insert_successes,
                        deletes: list_delta.delete_successes,
                        safe_reads: mem_delta.safe_reads,
                        epoch_limbo_depth: mem_delta.epoch_limbo_depth,
                    };
                    if print {
                        println!("{tick}");
                    }
                    ticks_in.lock().expect("feed mutex").push(tick);
                    prev_completed = completed;
                    prev_list = list;
                    prev_mem = mem;
                    index += 1;
                }
            })
            .expect("spawn stats feed");
        Self {
            ticks,
            stop,
            sampler: Some(sampler),
        }
    }

    /// Ticks collected so far (the feed keeps running).
    pub fn ticks(&self) -> Vec<Tick> {
        self.ticks.lock().expect("feed mutex").clone()
    }

    /// Stops the sampler and returns every tick collected.
    pub fn stop(mut self) -> Vec<Tick> {
        // ORDER: Release store / Acquire load — the sampler must observe
        // the flag before we join it; the pairing is the plain
        // stop-flag handshake.
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.sampler.take() {
            handle.join().expect("stats feed panicked");
        }
        Arc::try_unwrap(std::mem::take(&mut self.ticks))
            .map(|m| m.into_inner().expect("feed mutex"))
            .unwrap_or_else(|arc| arc.lock().expect("feed mutex").clone())
    }
}

impl Drop for StatsFeed {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.sampler.take() {
            let _ = handle.join();
        }
    }
}
