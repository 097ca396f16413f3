//! Memory-manager statistics.
//!
//! §6 of the paper singles out `SafeRead` as "the most time consuming
//! operation"; experiment E8 quantifies that, and E3 needs CAS retry
//! counts. E8 also showed the *instrumentation itself* used to be part of
//! the problem: a single set of relaxed atomics meant every `safe_read`
//! from every thread bumped the same cache line. The counters are now
//! [`Sharded`](valois_sync::Sharded) — cache-line-padded per-shard atomics
//! with a summing read side — and the hot paths batch their events in a
//! thread-private [`MemTally`] that is folded into the shards in one
//! `fetch_add` per counter per batch. The field table below is the only
//! place the counter names are listed; `valois_sync::counter_set!`
//! generates the snapshot, shard, tally and their arithmetic from it.

use valois_sync::shim::atomic::{AtomicU64, Ordering};

valois_sync::counter_set! {
    /// Point-in-time snapshot of an arena's activity counters.
    ///
    /// Obtain via [`Arena::stats`](crate::Arena::stats). Differences between two
    /// snapshots measure a workload's memory-protocol traffic (experiments
    /// E3/E8).
    pub struct MemStats;
    /// Sharded live counters owned by an [`Arena`](crate::Arena).
    pub(crate) struct StatCounters(Sharded<StatShard>);
    /// A thread-private batch of hot-path protocol events.
    ///
    /// `Arena::safe_read_tallied` and the deferred-release drain record their
    /// traffic here with plain integer adds — no shared-memory RMW per event —
    /// and the owner folds the batch into the arena's sharded counters via
    /// `Arena::flush_tally` (or implicitly: `release`/`safe_read` absorb their
    /// own single-shot tallies). Until a tally is flushed its events are
    /// invisible to [`Arena::stats`](crate::Arena::stats); cursors flush on
    /// drop.
    pub struct MemTally;
    tallied {
        /// Completed `SafeRead` operations (Fig. 15).
        safe_reads,
        /// `SafeRead` retries (pointer changed between read and increment).
        safe_read_retries,
        /// `Release` operations (Fig. 16), including link releases at reclaim.
        releases,
        /// Reclamations (Fig. 18 pushes back onto the free list).
        reclaims,
    }
    sharded {
        /// Successful `Alloc` operations (Fig. 17).
        allocs,
        /// `Alloc` CAS retries (free-list head contention).
        alloc_retries,
        /// Counted-link CAS swings attempted via `Arena::swing`.
        swings,
        /// Swings whose CAS failed (contention/invalid cursor — the paper's
        /// retry signal).
        swing_failures,
        /// Arena segment growth events.
        grows,
        /// Epoch backend: outermost pins taken (one per protected operation).
        /// Zero under the refcount backend (likewise for every field below).
        epoch_pins,
    }
    external {
        /// Epoch backend: successful global-epoch advances.
        epoch_advances,
        /// Epoch backend: nodes retired into limbo (link in-degree hit zero).
        epoch_retires,
        /// Epoch backend: limbo nodes whose grace period elapsed and were
        /// recycled.
        epoch_frees,
    }
    gauges {
        /// Epoch backend **gauge** (point-in-time, not cumulative): nodes
        /// currently in limbo. A large value alongside `AllocError` means
        /// reclamation is blocked — check `epoch_pin_lag`. Sums across
        /// arenas: the total garbage parked.
        epoch_limbo_depth: saturating_add,
        /// Epoch backend **gauge**: how many epochs the oldest pinned thread
        /// lags the global epoch (0 = nobody stalled). A persistently large
        /// lag identifies a stalled reader pinning an old epoch. Across
        /// arenas the worst lag is kept.
        epoch_pin_lag: max,
    }
}

impl StatCounters {
    /// Adds 1 to one counter on the current thread's shard.
    #[inline]
    pub(crate) fn bump(&self, pick: impl FnOnce(&StatShard) -> &AtomicU64) {
        pick(self.shards.get()).fetch_add(1, Ordering::Relaxed);
    }
}

impl MemStats {
    /// Nodes currently checked out (allocated and not yet reclaimed).
    pub fn live_nodes(&self) -> u64 {
        self.allocs.saturating_sub(self.reclaims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every field distinct, so a field dropped from the table, or filed
    /// under the wrong section, changes one of the results.
    #[test]
    fn table_pins_since_and_sum_for_every_field() {
        let later = MemStats {
            safe_reads: 1100,
            safe_read_retries: 1200,
            releases: 1300,
            reclaims: 1400,
            allocs: 1500,
            alloc_retries: 1600,
            swings: 1700,
            swing_failures: 1800,
            grows: 1900,
            epoch_pins: 2000,
            epoch_advances: 2100,
            epoch_retires: 2200,
            epoch_frees: 2300,
            epoch_limbo_depth: 2400,
            epoch_pin_lag: 2500,
        };
        let earlier = MemStats {
            safe_reads: 1,
            safe_read_retries: 2,
            releases: 3,
            reclaims: 4,
            allocs: 5,
            alloc_retries: 6,
            swings: 7,
            swing_failures: 8,
            grows: 9,
            epoch_pins: 10,
            epoch_advances: 11,
            epoch_retires: 12,
            epoch_frees: 13,
            epoch_limbo_depth: 14,
            epoch_pin_lag: 15,
        };
        assert_eq!(
            later.since(&earlier),
            MemStats {
                safe_reads: 1099,
                safe_read_retries: 1198,
                releases: 1297,
                reclaims: 1396,
                allocs: 1495,
                alloc_retries: 1594,
                swings: 1693,
                swing_failures: 1792,
                grows: 1891,
                epoch_pins: 1990,
                epoch_advances: 2089,
                epoch_retires: 2188,
                epoch_frees: 2287,
                // Gauges carry the later reading.
                epoch_limbo_depth: 2400,
                epoch_pin_lag: 2500,
            }
        );
        assert_eq!(
            [later, earlier].into_iter().sum::<MemStats>(),
            MemStats {
                safe_reads: 1101,
                safe_read_retries: 1202,
                releases: 1303,
                reclaims: 1404,
                allocs: 1505,
                alloc_retries: 1606,
                swings: 1707,
                swing_failures: 1808,
                grows: 1909,
                epoch_pins: 2010,
                epoch_advances: 2111,
                epoch_retires: 2212,
                epoch_frees: 2313,
                // Limbo depth totals; pin lag keeps the worst reading.
                epoch_limbo_depth: 2414,
                epoch_pin_lag: 2500,
            }
        );
    }

    #[test]
    fn snapshot_reflects_bumps() {
        let c = StatCounters::default();
        c.bump(|s| &s.safe_reads);
        c.bump(|s| &s.safe_reads);
        c.bump(|s| &s.allocs);
        let s = c.snapshot();
        assert_eq!(s.safe_reads, 2);
        assert_eq!(s.allocs, 1);
        assert_eq!(s.reclaims, 0);
    }

    #[test]
    fn absorb_folds_and_clears_a_tally() {
        let c = StatCounters::default();
        let mut t = MemTally::new();
        t.safe_reads = 5;
        t.releases = 3;
        t.reclaims = 1;
        assert!(!t.is_empty());
        c.absorb(&mut t);
        assert!(t.is_empty(), "absorb must clear the tally");
        let s = c.snapshot();
        assert_eq!(s.safe_reads, 5);
        assert_eq!(s.releases, 3);
        assert_eq!(s.reclaims, 1);
        // Absorbing an empty tally is a no-op.
        c.absorb(&mut t);
        assert_eq!(c.snapshot(), s);
    }

    #[test]
    fn snapshot_sums_across_threads() {
        let c = std::sync::Arc::new(StatCounters::default());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..500 {
                        c.bump(|s| &s.releases);
                    }
                });
            }
        });
        assert_eq!(c.snapshot().releases, 2000);
    }

    #[test]
    fn since_subtracts_componentwise() {
        let a = MemStats {
            safe_reads: 10,
            allocs: 5,
            reclaims: 2,
            ..MemStats::default()
        };
        let b = MemStats {
            safe_reads: 4,
            allocs: 5,
            reclaims: 1,
            ..MemStats::default()
        };
        let d = a.since(&b);
        assert_eq!(d.safe_reads, 6);
        assert_eq!(d.allocs, 0);
        assert_eq!(d.reclaims, 1);
    }

    #[test]
    fn live_nodes_is_allocs_minus_reclaims() {
        let s = MemStats {
            allocs: 7,
            reclaims: 3,
            ..MemStats::default()
        };
        assert_eq!(s.live_nodes(), 4);
    }
}
