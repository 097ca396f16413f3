//! List-level operation statistics (experiments E3 and E7).
//!
//! Like the memory-protocol counters in `valois-mem`, the list counters
//! used to be a single set of relaxed atomics — one shared cache line that
//! every `Update`/`Next` on every thread bumped, a measurable fraction of
//! the per-hop cost in experiment E8. They are now [`Sharded`](valois_sync::Sharded)
//! (cache-line-padded per-shard atomics, summed at snapshot time), and the
//! cursor batches its events in a plain-integer [`ListTally`] folded into
//! the shards when the cursor drops. The field table below is the only
//! place the counter names are listed; `valois_sync::counter_set!`
//! generates the snapshot, shard, tally and their arithmetic from it.

valois_sync::counter_set! {
    /// Point-in-time snapshot of a list's operation counters.
    ///
    /// The "extra work" quantities of the §4.1 amortized analysis are directly
    /// observable here: failed `TryInsert`/`TryDelete` attempts
    /// ([`ListStats::insert_retries`], [`ListStats::delete_retries`]) and
    /// auxiliary-node traversal overhead ([`ListStats::aux_skipped`]).
    ///
    /// Cursors batch their events thread-locally and fold them in when dropped,
    /// so a still-live cursor's recent operations may not be visible yet (call
    /// `Cursor::flush_stats` to force them out).
    pub struct ListStats;
    /// Sharded live counters owned by a [`List`](crate::List).
    pub(crate) struct ListCounters(Sharded<ListShard>);
    /// A cursor-private batch of list-operation events: plain integer adds on
    /// the hot path, folded into the sharded counters when the cursor drops
    /// (or via `Cursor::flush_stats`). Until then the events are invisible to
    /// [`List::stats`](crate::List::stats).
    pub(crate) struct ListTally;
    tallied {
        /// Cursor `Update` calls (Fig. 5).
        updates,
        /// Adjacent auxiliary nodes removed by `Update` line 7.
        aux_unlinked,
        /// Auxiliary nodes stepped over during `Update`.
        aux_skipped,
        /// Successful `Next` steps (Fig. 7).
        next_steps,
        /// `TryInsert` attempts (Fig. 9).
        insert_attempts,
        /// `TryInsert` successes.
        insert_successes,
        /// `TryDelete` attempts (Fig. 10).
        delete_attempts,
        /// `TryDelete` successes.
        delete_successes,
        /// Back-link hops performed during `TryDelete` recovery (Fig. 10
        /// lines 8–11).
        backlink_hops,
        /// CAS retries in `TryDelete`'s auxiliary-chain cleanup loop
        /// (Fig. 10 lines 17–21).
        chain_cleanup_retries,
        /// [`Cursor::resume`](crate::Cursor::resume) calls that actually
        /// found a deleted predecessor and back-walked (cheap revalidations
        /// that fell through to `Update` are not counted).
        resumes,
        /// Back-link hops performed by [`Cursor::resume`](crate::Cursor::resume)
        /// — the "resume distance". `resume_hops / resumes` is the mean
        /// distance-to-conflict, the quantity that replaces O(n)
        /// restart-from-head walks.
        resume_hops,
    }
}

impl ListStats {
    /// Failed `TryInsert` attempts (the §4.1 retry count).
    pub fn insert_retries(&self) -> u64 {
        self.insert_attempts.saturating_sub(self.insert_successes)
    }

    /// Failed `TryDelete` attempts.
    pub fn delete_retries(&self) -> u64 {
        self.delete_attempts.saturating_sub(self.delete_successes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use valois_sync::shim::atomic::{AtomicU64, Ordering};

    impl ListCounters {
        /// Adds 1 to one counter on the current thread's shard. Production
        /// paths batch through [`ListTally`] + [`ListCounters::absorb`].
        fn bump(&self, pick: impl FnOnce(&ListShard) -> &AtomicU64) {
            pick(self.shards.get()).fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Every field distinct, so a field dropped from the table, or filed
    /// under the wrong section, changes one of the results.
    #[test]
    fn table_pins_since_and_sum_for_every_field() {
        let later = ListStats {
            updates: 1100,
            aux_unlinked: 1200,
            aux_skipped: 1300,
            next_steps: 1400,
            insert_attempts: 1500,
            insert_successes: 1600,
            delete_attempts: 1700,
            delete_successes: 1800,
            backlink_hops: 1900,
            chain_cleanup_retries: 2000,
            resumes: 2100,
            resume_hops: 2200,
        };
        let earlier = ListStats {
            updates: 1,
            aux_unlinked: 2,
            aux_skipped: 3,
            next_steps: 4,
            insert_attempts: 5,
            insert_successes: 6,
            delete_attempts: 7,
            delete_successes: 8,
            backlink_hops: 9,
            chain_cleanup_retries: 10,
            resumes: 11,
            resume_hops: 12,
        };
        assert_eq!(
            later.since(&earlier),
            ListStats {
                updates: 1099,
                aux_unlinked: 1198,
                aux_skipped: 1297,
                next_steps: 1396,
                insert_attempts: 1495,
                insert_successes: 1594,
                delete_attempts: 1693,
                delete_successes: 1792,
                backlink_hops: 1891,
                chain_cleanup_retries: 1990,
                resumes: 2089,
                resume_hops: 2188,
            }
        );
        assert_eq!(
            [later, earlier].into_iter().sum::<ListStats>(),
            ListStats {
                updates: 1101,
                aux_unlinked: 1202,
                aux_skipped: 1303,
                next_steps: 1404,
                insert_attempts: 1505,
                insert_successes: 1606,
                delete_attempts: 1707,
                delete_successes: 1808,
                backlink_hops: 1909,
                chain_cleanup_retries: 2010,
                resumes: 2111,
                resume_hops: 2212,
            }
        );
    }

    #[test]
    fn retries_are_attempts_minus_successes() {
        let s = ListStats {
            insert_attempts: 10,
            insert_successes: 7,
            delete_attempts: 5,
            delete_successes: 5,
            ..ListStats::default()
        };
        assert_eq!(s.insert_retries(), 3);
        assert_eq!(s.delete_retries(), 0);
    }

    #[test]
    fn since_subtracts() {
        let a = ListStats {
            updates: 10,
            aux_skipped: 4,
            ..ListStats::default()
        };
        let b = ListStats {
            updates: 6,
            aux_skipped: 4,
            ..ListStats::default()
        };
        let d = a.since(&b);
        assert_eq!(d.updates, 4);
        assert_eq!(d.aux_skipped, 0);
    }

    #[test]
    fn counters_snapshot() {
        let c = ListCounters::default();
        c.bump(|s| &s.updates);
        c.bump(|s| &s.insert_attempts);
        c.bump(|s| &s.insert_successes);
        let s = c.snapshot();
        assert_eq!(s.updates, 1);
        assert_eq!(s.insert_retries(), 0);
    }

    #[test]
    fn absorb_folds_and_clears_a_tally() {
        let c = ListCounters::default();
        let mut t = ListTally {
            updates: 4,
            next_steps: 3,
            backlink_hops: 1,
            ..ListTally::default()
        };
        assert!(!t.is_empty());
        c.absorb(&mut t);
        assert!(t.is_empty(), "absorb must clear the tally");
        let s = c.snapshot();
        assert_eq!(s.updates, 4);
        assert_eq!(s.next_steps, 3);
        assert_eq!(s.backlink_hops, 1);
    }

    #[test]
    fn snapshot_sums_across_threads() {
        let c = std::sync::Arc::new(ListCounters::default());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..500 {
                        c.bump(|s| &s.next_steps);
                    }
                });
            }
        });
        assert_eq!(c.snapshot().next_steps, 2000);
    }
}
