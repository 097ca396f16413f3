//! Sharded per-thread state for de-contended statistics.
//!
//! Experiment E8 showed that the unconditional relaxed `fetch_add` inside
//! `Arena::safe_read` lands on the *same* cache line for every thread, so
//! the instrumentation itself contends exactly like the protocol words it
//! is supposed to measure. [`Sharded`] spreads such state over a small,
//! fixed set of [`CachePadded`] shards indexed by a cheap per-thread id
//! ([`thread_index`]): writers touch (mostly) private lines, readers sum
//! over all shards.
//!
//! The shard count is a power of two so selection is a mask, and it is
//! fixed at 1 under `--cfg loom` — the model checker's scheduler has no
//! thread-id notion, and a single shard keeps every interleaving
//! deterministic while still exercising the summing read side.
//!
//! # Example
//!
//! ```
//! use valois_sync::sharded::Sharded;
//! use valois_sync::shim::atomic::{AtomicU64, Ordering};
//!
//! let hits: Sharded<AtomicU64> = Sharded::new();
//! hits.get().fetch_add(3, Ordering::Relaxed);
//! let total: u64 = hits.shards().map(|s| s.load(Ordering::Relaxed)).sum();
//! assert_eq!(total, 3);
//! ```
//!
//! [`counter_set!`](crate::counter_set) builds a whole statistics set on
//! top of [`Sharded`] from one table of field names: the public snapshot,
//! the live shard, the thread-private tally, and the read-side arithmetic.

use std::fmt;

use crate::pad::CachePadded;

/// Default shard count (power of two). Sixteen covers typical core counts
/// without making the summing read side expensive.
#[cfg(not(loom))]
const DEFAULT_SHARDS: usize = 16;
/// Under the model checker a single shard keeps schedules deterministic
/// (no thread-id dependence) and the state space small.
#[cfg(loom)]
const DEFAULT_SHARDS: usize = 1;

/// A small, dense, process-wide thread index for shard selection.
///
/// Indices are handed out in thread-creation order starting at 0 and are
/// stable for the thread's lifetime. They are *not* bounded by the shard
/// count — callers mask/modulo into their shard array — so two threads can
/// collide on a shard; sharded state must therefore remain safe (atomic or
/// try-locked) under collisions, merely faster without them.
#[cfg(not(loom))]
pub fn thread_index() -> usize {
    use crate::shim::atomic::{AtomicUsize, Ordering};
    use std::cell::Cell;
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static INDEX: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    INDEX.with(|slot| {
        let mut idx = slot.get();
        if idx == usize::MAX {
            idx = NEXT.fetch_add(1, Ordering::Relaxed);
            slot.set(idx);
        }
        idx
    })
}

/// Under `--cfg loom` every model thread maps to index 0: the scheduler
/// exposes no thread identity, and a constant keeps replay deterministic.
#[cfg(loom)]
pub fn thread_index() -> usize {
    0
}

/// `T` replicated across cache-padded shards, selected by [`thread_index`].
pub struct Sharded<T> {
    shards: Box<[CachePadded<T>]>,
}

impl<T: Default> Sharded<T> {
    /// Creates [`DEFAULT_SHARDS`] default-constructed shards.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// Creates at least `n` shards (rounded up to a power of two, min 1).
    pub fn with_shards(n: usize) -> Self {
        let n = n.max(1).next_power_of_two();
        Self {
            shards: (0..n).map(|_| CachePadded::new(T::default())).collect(),
        }
    }
}

impl<T: Default> Default for Sharded<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Sharded<T> {
    /// The current thread's shard. Two threads may map to the same shard
    /// (the index space is unbounded, the shard set is not), so the shard
    /// type must tolerate concurrent access.
    #[inline]
    pub fn get(&self) -> &T {
        &self.shards[thread_index() & (self.shards.len() - 1)]
    }

    /// Iterates over every shard (the summing read side).
    pub fn shards(&self) -> impl Iterator<Item = &T> {
        self.shards.iter().map(|s| &**s)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

impl<T> fmt::Debug for Sharded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sharded")
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// Declares a statistics set from one table of `u64` fields.
///
/// Each field is written once, in the section that says where its value
/// comes from:
///
/// * `tallied` — batched in the thread-private tally with plain adds and
///   folded into the current thread's shard by `absorb`;
/// * `sharded` — bumped straight on the current thread's shard;
/// * `external` — cumulative counts the owner keeps elsewhere and copies
///   into the snapshot;
/// * `gauges` — point-in-time readings the owner copies into the
///   snapshot, each naming the `u64` method that merges two readings
///   (`saturating_add` for a total, `max` for a worst case).
///
/// Only `tallied` is required. From the table the macro emits:
///
/// * the snapshot struct, one `pub` field per entry, with `since` (counters
///   subtract, gauges carry over from the later snapshot) and a field-wise
///   sum (`Sum`: counters add, gauges merge by their named method);
/// * the shard, one `AtomicU64` per `tallied` and `sharded` entry;
/// * the live counters, a [`Sharded`] of shards with `absorb` and
///   `snapshot` (which leaves `external` and gauge fields at zero);
/// * the tally, one `u64` per `tallied` entry, with `new` and `is_empty`.
///
/// # Example
///
/// ```
/// valois_sync::counter_set! {
///     /// A cache's activity.
///     pub struct CacheStats;
///     /// Live counters.
///     pub struct CacheCounters(Sharded<CacheShard>);
///     /// One thread's batched lookups.
///     pub struct CacheTally;
///     tallied {
///         /// Lookups that hit.
///         hits,
///     }
///     sharded {
///         /// Lookups that missed.
///         misses,
///     }
///     gauges {
///         /// Entries resident now.
///         resident: saturating_add,
///     }
/// }
///
/// let live = CacheCounters::default();
/// let mut tally = CacheTally::new();
/// tally.hits += 3;
/// live.absorb(&mut tally);
/// assert!(tally.is_empty());
/// let mut now = live.snapshot();
/// now.resident = 10;
/// let earlier = CacheStats { hits: 1, ..CacheStats::default() };
/// assert_eq!(now.since(&earlier), CacheStats { hits: 2, misses: 0, resident: 10 });
/// assert_eq!([now, earlier].into_iter().sum::<CacheStats>().hits, 4);
/// ```
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$stats_meta:meta])*
        $stats_vis:vis struct $Stats:ident;
        $(#[$live_meta:meta])*
        $live_vis:vis struct $Live:ident(Sharded<$Shard:ident>);
        $(#[$tally_meta:meta])*
        $tally_vis:vis struct $Tally:ident;
        tallied { $( $(#[$t_meta:meta])* $t:ident, )* }
        $( sharded { $( $(#[$s_meta:meta])* $s:ident, )* } )?
        $( external { $( $(#[$e_meta:meta])* $e:ident, )* } )?
        $( gauges { $( $(#[$g_meta:meta])* $g:ident: $merge:ident, )* } )?
    ) => {
        $(#[$stats_meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $stats_vis struct $Stats {
            $( $(#[$t_meta])* pub $t: u64, )*
            $( $( $(#[$s_meta])* pub $s: u64, )* )?
            $( $( $(#[$e_meta])* pub $e: u64, )* )?
            $( $( $(#[$g_meta])* pub $g: u64, )* )?
        }

        impl $Stats {
            /// Field-wise difference (`self - earlier`), saturating at
            /// zero. Gauges are carried over from `self`: differencing a
            /// point-in-time reading means nothing.
            pub fn since(&self, earlier: &Self) -> Self {
                Self {
                    $( $t: self.$t.saturating_sub(earlier.$t), )*
                    $( $( $s: self.$s.saturating_sub(earlier.$s), )* )?
                    $( $( $e: self.$e.saturating_sub(earlier.$e), )* )?
                    $( $( $g: self.$g, )* )?
                }
            }
        }

        /// Field-wise sum: counters add, each gauge merges by the method
        /// its table entry names.
        impl ::core::iter::Sum for $Stats {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::default(), |a, b| Self {
                    $( $t: a.$t + b.$t, )*
                    $( $( $s: a.$s + b.$s, )* )?
                    $( $( $e: a.$e + b.$e, )* )?
                    $( $( $g: a.$g.$merge(b.$g), )* )?
                })
            }
        }

        /// One shard of the live counters (cache-padded by `Sharded`).
        #[derive(Default)]
        pub(crate) struct $Shard {
            $( pub(crate) $t: $crate::shim::atomic::AtomicU64, )*
            $( $( pub(crate) $s: $crate::shim::atomic::AtomicU64, )* )?
        }

        $(#[$live_meta])*
        #[derive(Default)]
        $live_vis struct $Live {
            shards: $crate::sharded::Sharded<$Shard>,
        }

        impl $Live {
            /// Folds a tally into the current thread's shard and clears
            /// it. One `fetch_add` per non-zero field, however many
            /// events the tally batched.
            pub fn absorb(&self, tally: &mut $Tally) {
                let shard = self.shards.get();
                for (count, counter) in [$( (tally.$t, &shard.$t) ),*] {
                    if count != 0 {
                        counter.fetch_add(count, $crate::shim::atomic::Ordering::Relaxed);
                    }
                }
                *tally = $Tally::new();
            }

            /// Takes a point-in-time snapshot (sums every shard).
            /// `external` and gauge fields are left at zero for the
            /// owner to fill in.
            pub fn snapshot(&self) -> $Stats {
                let mut s = $Stats::default();
                for shard in self.shards.shards() {
                    $( s.$t += shard.$t.load($crate::shim::atomic::Ordering::Relaxed); )*
                    $( $( s.$s += shard.$s.load($crate::shim::atomic::Ordering::Relaxed); )* )?
                }
                s
            }
        }

        impl ::core::fmt::Debug for $Live {
            fn fmt(&self, f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {
                self.snapshot().fmt(f)
            }
        }

        $(#[$tally_meta])*
        #[derive(Debug, Clone, Copy, Default)]
        $tally_vis struct $Tally {
            $( pub(crate) $t: u64, )*
        }

        impl $Tally {
            /// An empty tally.
            pub const fn new() -> Self {
                Self { $( $t: 0, )* }
            }

            /// Whether any events are batched.
            pub fn is_empty(&self) -> bool {
                0 $( | self.$t )* == 0
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shim::atomic::{AtomicU64, Ordering};

    #[test]
    fn shard_count_is_power_of_two_min_one() {
        assert_eq!(Sharded::<AtomicU64>::with_shards(0).shard_count(), 1);
        assert_eq!(Sharded::<AtomicU64>::with_shards(3).shard_count(), 4);
        assert_eq!(Sharded::<AtomicU64>::with_shards(16).shard_count(), 16);
    }

    #[test]
    fn thread_index_is_stable_within_a_thread() {
        assert_eq!(thread_index(), thread_index());
    }

    #[cfg(not(loom))]
    #[test]
    fn thread_indices_differ_across_threads() {
        let mine = thread_index();
        let theirs = std::thread::spawn(thread_index).join().unwrap();
        assert_ne!(mine, theirs);
    }

    #[test]
    fn sum_over_shards_sees_every_add() {
        let counters: Sharded<AtomicU64> = Sharded::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        counters.get().fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        let total: u64 = counters.shards().map(|c| c.load(Ordering::Relaxed)).sum();
        assert_eq!(total, 4000);
    }
}
