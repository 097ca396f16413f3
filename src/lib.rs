//! # valois — lock-free linked lists using compare-and-swap
//!
//! Facade crate re-exporting the full public API of the reproduction of
//! John D. Valois, *"Lock-Free Linked Lists Using Compare-and-Swap"*
//! (PODC 1995). See `README.md` and `DESIGN.md` at the repository root.
//!
//! # What's here
//!
//! * [`List`] and its [`core::Cursor`] — the paper's §3 singly-linked
//!   list: concurrent traversal, insertion, and deletion at any position,
//!   non-blocking, using only single-word CAS plus the §5 reference-
//!   counting memory manager (no GC, no epochs, no hazard pointers).
//! * The §4 dictionaries — [`SortedListDict`], [`HashDict`],
//!   [`SkipListDict`], [`BstDict`] — all behind the [`Dictionary`] trait.
//! * Building blocks: [`Stack`], [`PriorityQueue`], and the companion
//!   [`FifoQueue`] (the paper's reference \[27\]).
//! * The competition: spin locks ([`TasLock`], [`TtasLock`],
//!   [`TicketLock`], [`ClhLock`]) and the lock-based
//!   dictionaries in [`baseline`], plus the intentionally broken naive CAS
//!   list whose Fig. 2/3 anomalies motivate the whole design.
//! * Measurement: [`harness`] (workloads, throughput, latency histograms,
//!   a linearizability checker) driving the E1–E10 experiment suite in
//!   `valois-bench`.
//!
//! # Quickstart
//!
//! ```
//! use valois::SortedListDict;
//! use valois::Dictionary;
//!
//! let dict: SortedListDict<u64, &str> = SortedListDict::new();
//! dict.insert(1, "one");
//! assert_eq!(dict.find(&1), Some("one"));
//! assert!(dict.remove(&1));
//! assert_eq!(dict.find(&1), None);
//! ```
//!
//! # Concurrency model
//!
//! Every structure is `Send + Sync` and every operation is linearizable
//! (§2.1); the list/dictionary/queue/stack operations are non-blocking: a
//! thread suspended at any point cannot prevent others from completing
//! (the BST's two-child deletion is obstruction-free; see its module
//! docs). Memory is recycled through type-stable arenas under the §5
//! SafeRead/Release protocol, which also provides *cell persistence* — a
//! deleted cell stays readable through cursors still visiting it — and
//! ABA freedom without tagged pointers.

#![warn(missing_docs)]

pub use valois_baseline as baseline;
pub use valois_core as core;
pub use valois_dict as dict;
pub use valois_harness as harness;
pub use valois_mem as mem;
pub use valois_server as server;
pub use valois_sync as sync;

pub use valois_core::channel::{channel, Receiver, Sender};
pub use valois_core::{FifoQueue, List, ListStats, PriorityQueue, Stack};
pub use valois_dict::{
    BstDict, Dictionary, HashDict, ResizableHashDict, SkipListDict, SortedListDict,
};
pub use valois_mem::{ArenaConfig, MemStats};
pub use valois_server::{Server, ServiceConfig};
pub use valois_sync::{Backoff, ClhLock, Lock, LockKind, TasLock, TicketLock, TtasLock};
