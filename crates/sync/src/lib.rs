//! Synchronization primitives for the Valois lock-free linked-list
//! reproduction (PODC 1995).
//!
//! The paper builds everything from three single-word atomic primitives:
//!
//! * **Compare&Swap** (Fig. 1 of the paper) — the universal primitive used to
//!   *swing* pointers ([`CasPtr`]),
//! * **Test&Set** — used by the `claim` bit of the memory manager (§5.1),
//! * **Fetch&Add** — used by the reference counts (§5.1); with the claim
//!   bit it lives in one word, [`RefClaim`].
//!
//! This crate provides those paper-faithful wrappers over
//! [`std::sync::atomic`] ([`primitives`]), the exponential [`Backoff`] the
//! paper recommends for contention management (§2.1), the spin locks used
//! as baselines ([`spinlock`]), a [`CachePadded`] helper to keep hot
//! shared words on separate cache lines, and [`Sharded`] with
//! [`counter_set!`] for the always-on statistics.
//!
//! # Example
//!
//! ```
//! use valois_sync::primitives::CasPtr;
//!
//! let (mut a, mut b) = (7u32, 8u32);
//! let (a, b) = (&mut a as *mut u32, &mut b as *mut u32);
//! let cell = CasPtr::new(a);
//! assert!(cell.compare_and_swap(a, b));
//! assert!(!cell.compare_and_swap(a, std::ptr::null_mut()));
//! assert_eq!(cell.read(), b);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backoff;
pub mod pad;
pub mod primitives;
pub mod rng;
pub mod sharded;
pub mod shim;
pub mod spinlock;

pub use backoff::Backoff;
pub use pad::CachePadded;
pub use primitives::{CasPtr, RefClaim};
pub use sharded::Sharded;
pub use spinlock::{ClhLock, Lock, LockGuard, LockKind, TasLock, TicketLock, TtasLock};
