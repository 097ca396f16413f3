//! An MPMC channel composed from the lock-free FIFO queue — the kind of
//! higher-level object §1 positions the list as a building block for
//! (Massalin & Pu's lock-free kernel built its message passing the same
//! way).
//!
//! Any number of [`Sender`]s and [`Receiver`]s; values flow FIFO; when
//! either side fully disconnects the other observes it. All data-path
//! operations are non-blocking ([`Receiver::recv`] *waits* by
//! spinning/yielding, but on a lock-free queue: a stalled peer can delay
//! it only by not producing, never by corrupting or blocking the
//! structure).

use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;
use valois_mem::ArenaConfig;
use valois_sync::shim::atomic::{AtomicUsize, Ordering};

use crate::queue::{FifoQueue, MIN_INITIAL_CAPACITY};

/// Most recycled channels one thread keeps, of all payload types together.
const POOL_CAP: usize = 8;

thread_local! {
    /// This thread's recycled channels, type-erased: each entry is an
    /// `Arc<Shared<T>>` for some `T`, found again by its `TypeId`.
    static POOL: RefCell<Vec<Arc<dyn Any + Send + Sync>>> = const { RefCell::new(Vec::new()) };
}

/// Creates an unbounded MPMC channel.
///
/// The queue's node pool starts at the smallest segment a [`FifoQueue`]
/// allows (8 nodes, not the 1024 of [`ArenaConfig::default`]) and doubles
/// on demand, so a one-reply channel costs about one reply while a
/// long-lived channel still grows to its backlog.
///
/// Channels are recycled per thread. When the last handle of a channel
/// drops while its queue is empty and its node pool is still the first
/// segment, the dropping thread keeps it (at most 8 per thread), and
/// the next `channel` call of the same payload type on that thread takes
/// it back instead of building a queue and arena. A recycled channel is
/// empty and connected, exactly like a fresh one; channels that grew or
/// still hold values are freed as usual.
///
/// # Example
///
/// ```
/// let (tx, rx) = valois_core::channel::channel::<u32>();
/// tx.send(1).unwrap();
/// tx.send(2).unwrap();
/// assert_eq!(rx.try_recv(), Ok(1));
/// assert_eq!(rx.try_recv(), Ok(2));
/// drop(tx);
/// assert_eq!(rx.try_recv(), Err(valois_core::channel::TryRecvError::Disconnected));
/// ```
pub fn channel<T: Send + Sync + 'static>() -> (Sender<T>, Receiver<T>) {
    let shared = pooled::<T>().unwrap_or_else(|| {
        Arc::new(Shared {
            queue: FifoQueue::with_config(
                ArenaConfig::new().initial_capacity(MIN_INITIAL_CAPACITY),
            ),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
            recycle: recycle::<T>,
        })
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

struct Shared<T: Send + Sync> {
    queue: FifoQueue<T>,
    senders: AtomicUsize,
    receivers: AtomicUsize,
    /// [`recycle`] for this `T`. Held here because only [`channel`] knows
    /// `T: 'static`, which the type-erased pool needs, while the handles'
    /// `Drop` impls cannot ask for more bounds than their types have.
    recycle: fn(&mut Arc<Shared<T>>),
}

/// Takes a recycled channel of payload `T` from this thread's pool.
fn pooled<T: Send + Sync + 'static>() -> Option<Arc<Shared<T>>> {
    POOL.try_with(|pool| {
        let mut pool = pool.borrow_mut();
        let i = pool.iter().rposition(|c| c.is::<Shared<T>>())?;
        pool.swap_remove(i).downcast().ok()
    })
    .ok()
    .flatten()
}

/// Called by each handle as it drops: if it was the channel's last handle,
/// and the channel is empty and still on its first segment, resets it to
/// the state [`channel`] hands out and parks it in this thread's pool.
fn recycle<T: Send + Sync + 'static>(shared: &mut Arc<Shared<T>>) {
    // Fails while another handle lives (or drops concurrently: then
    // neither dropper recycles and the channel is freed as usual).
    let Some(s) = Arc::get_mut(shared) else {
        return;
    };
    if s.queue.node_capacity() > MIN_INITIAL_CAPACITY || !s.queue.is_empty() {
        return;
    }
    // Nodes the handles freed sit in their threads' magazines; without
    // the flush they would pile up in one magazine across reuses and a
    // later channel would have to grow.
    s.queue.flush_thread_caches();
    // ORDER: Relaxed — exclusive access; the next user receives the
    // channel through this thread's pool (program order) or, for a handle
    // sent on, through whatever hands it to another thread.
    s.senders.store(1, Ordering::Relaxed);
    s.receivers.store(1, Ordering::Relaxed);
    let parked: Arc<dyn Any + Send + Sync> = shared.clone();
    // A full pool, or a thread already tearing its pool down, drops
    // `parked`; the handle's own `Arc` then frees the channel.
    let _ = POOL.try_with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < POOL_CAP {
            pool.push(parked);
        }
    });
}

/// Error returned by [`Sender::send`] when every receiver is gone;
/// hands the value back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a channel with no receivers")
    }
}

impl<T: fmt::Debug> std::error::Error for SendError<T> {}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No value currently queued (senders still connected).
    Empty,
    /// No value queued and every sender is gone.
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => f.write_str("channel empty"),
            Self::Disconnected => f.write_str("channel empty and senders disconnected"),
        }
    }
}

impl std::error::Error for TryRecvError {}

/// The sending half; clonable (multi-producer).
pub struct Sender<T: Send + Sync> {
    shared: Arc<Shared<T>>,
}

impl<T: Send + Sync> Sender<T> {
    /// Enqueues `value`, failing (and returning it) if every receiver has
    /// been dropped.
    ///
    /// # Errors
    ///
    /// [`SendError`] carrying the value back when no receivers remain.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        if self.shared.receivers.load(Ordering::Acquire) == 0 {
            return Err(SendError(value));
        }
        self.shared
            .queue
            .enqueue(value)
            .expect("channel queue arena grows on demand");
        Ok(())
    }

    /// Number of values currently queued (O(n) snapshot).
    pub fn queued(&self) -> usize {
        self.shared.queue.len()
    }
}

impl<T: Send + Sync> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::AcqRel);
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T: Send + Sync> Drop for Sender<T> {
    fn drop(&mut self) {
        self.shared.senders.fetch_sub(1, Ordering::AcqRel);
        (self.shared.recycle)(&mut self.shared);
    }
}

impl<T: Send + Sync> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

/// The receiving half; clonable (multi-consumer — each value is delivered
/// to exactly one receiver).
pub struct Receiver<T: Send + Sync> {
    shared: Arc<Shared<T>>,
}

impl<T: Send + Sync> Receiver<T> {
    /// Dequeues the oldest value if one is ready.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] when nothing is queued yet;
    /// [`TryRecvError::Disconnected`] when nothing is queued and every
    /// sender has been dropped.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        // Read the sender count *before* the dequeue attempt: if a racing
        // sender enqueues then disconnects between our dequeue miss and a
        // later count read, the next try_recv still sees the value.
        let senders = self.shared.senders.load(Ordering::Acquire);
        match self.shared.queue.dequeue() {
            Some(v) => Ok(v),
            None if senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Waits (spin + yield) for the next value; `None` when the channel is
    /// drained and every sender is gone.
    pub fn recv(&self) -> Option<T> {
        loop {
            match self.try_recv() {
                Ok(v) => return Some(v),
                Err(TryRecvError::Disconnected) => return None,
                Err(TryRecvError::Empty) => std::thread::yield_now(),
            }
        }
    }

    /// Iterates until the channel is drained and disconnected.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(move || self.recv())
    }
}

impl<T: Send + Sync> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.receivers.fetch_add(1, Ordering::AcqRel);
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T: Send + Sync> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.receivers.fetch_sub(1, Ordering::AcqRel);
        (self.shared.recycle)(&mut self.shared);
    }
}

impl<T: Send + Sync> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_fifo() {
        // Enough backlog to grow the 8-node first segment many times.
        let (tx, rx) = channel::<u32>();
        for i in 0..10_000 {
            tx.send(i).unwrap();
        }
        assert!(rx.shared.queue.node_capacity() > 10_000);
        for i in 0..10_000 {
            assert_eq!(rx.try_recv(), Ok(i));
        }
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn sender_disconnect_observed_after_drain() {
        let (tx, rx) = channel::<u32>();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.try_recv(), Ok(1), "queued value survives disconnect");
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn receiver_disconnect_fails_send_with_value_back() {
        let (tx, rx) = channel::<String>();
        drop(rx);
        let err = tx.send("hello".into()).unwrap_err();
        assert_eq!(err.0, "hello");
    }

    #[test]
    fn clones_keep_channel_alive() {
        let (tx, rx) = channel::<u32>();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(5).unwrap();
        let rx2 = rx.clone();
        drop(rx);
        assert_eq!(rx2.recv(), Some(5));
        drop(tx2);
        assert_eq!(rx2.recv(), None);
    }

    #[test]
    fn mpmc_each_value_delivered_once() {
        let (tx, rx) = channel::<u64>();
        let total: u64 = 4 * 5_000;
        let received = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for p in 0..4u64 {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..5_000 {
                        tx.send(p * 5_000 + i).unwrap();
                    }
                });
            }
            drop(tx); // workers hold their clones
            for _ in 0..3 {
                let rx = rx.clone();
                let received = &received;
                s.spawn(move || {
                    let mut local = Vec::new();
                    let mut last = [None; 4];
                    while let Some(v) = rx.recv() {
                        // FIFO: one receiver sees each producer in order.
                        let p = (v / 5_000) as usize;
                        assert!(last[p] < Some(v), "producer {p} reordered");
                        last[p] = Some(v);
                        local.push(v);
                    }
                    received.lock().unwrap().extend(local);
                });
            }
            drop(rx);
        });
        let mut all = received.into_inner().unwrap();
        assert_eq!(all.len() as u64, total);
        all.sort_unstable();
        assert_eq!(all, (0..total).collect::<Vec<_>>());
    }

    #[test]
    fn one_reply_channel_fits_its_first_segment() {
        // The service's reply pattern: the receiver's thread builds the
        // channel (allocating the queue's dummy), a long-lived worker
        // sends once and drops its sender, the receiver's thread drops the
        // receiver. Whichever thread drops last recycles the channel, and
        // no cycle may grow the 8-node pool of a fresh or recycled one.
        let (req_tx, req_rx) = channel::<Sender<u64>>();
        std::thread::scope(|s| {
            s.spawn(move || {
                for (i, reply) in (0u64..).zip(req_rx.iter()) {
                    reply.send(i).unwrap();
                }
            });
            for i in 0..1_000u64 {
                let (tx, rx) = channel::<u64>();
                req_tx.send(tx).unwrap();
                assert_eq!(rx.recv(), Some(i));
                let queue = &rx.shared.queue;
                assert_eq!(queue.node_capacity(), 8, "cycle {i}");
                assert_eq!(
                    queue.mem_stats().grows,
                    1,
                    "cycle {i}: only the first segment"
                );
            }
            drop(req_tx);
        });
    }

    /// Channels of payload `T` parked in this thread's pool.
    fn pooled_count<T: Send + Sync + 'static>() -> usize {
        POOL.with(|pool| pool.borrow().iter().filter(|c| c.is::<Shared<T>>()).count())
    }

    #[test]
    fn recycled_channel_is_empty_and_connected() {
        #[derive(Debug)]
        struct Reply(u32);
        let (tx, rx) = channel::<Reply>();
        let first = Arc::as_ptr(&rx.shared);
        tx.send(Reply(1)).unwrap();
        assert_eq!(rx.try_recv().map(|r| r.0), Ok(1));
        drop(tx);
        assert_eq!(pooled_count::<Reply>(), 0, "a live receiver keeps it");
        drop(rx);
        assert_eq!(pooled_count::<Reply>(), 1);

        let (tx, rx) = channel::<Reply>();
        assert_eq!(Arc::as_ptr(&rx.shared), first, "the pooled channel");
        assert_eq!(pooled_count::<Reply>(), 0);
        assert_eq!(rx.try_recv().err(), Some(TryRecvError::Empty));
        assert_eq!(tx.queued(), 0);
        tx.send(Reply(2)).unwrap();
        assert_eq!(rx.recv().map(|r| r.0), Some(2));
        // Receiver gone: send still fails, as on a fresh channel.
        drop(rx);
        assert_eq!(tx.send(Reply(3)).unwrap_err().0 .0, 3);
        drop(tx);

        // Sender gone: the receiver sees the disconnect.
        let (tx, rx) = channel::<Reply>();
        assert_eq!(Arc::as_ptr(&rx.shared), first);
        drop(tx);
        assert_eq!(rx.try_recv().err(), Some(TryRecvError::Disconnected));
    }

    #[test]
    fn channel_left_with_values_is_not_recycled() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct Probe;
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (tx, rx) = channel::<Probe>();
        tx.send(Probe).unwrap();
        drop(tx);
        drop(rx);
        assert_eq!(pooled_count::<Probe>(), 0);
        assert_eq!(DROPS.load(Ordering::Relaxed), 1, "the queued value dropped");
    }

    #[test]
    fn grown_channel_is_not_recycled() {
        #[derive(Debug)]
        struct Backlog;
        let (tx, rx) = channel::<Backlog>();
        for _ in 0..100 {
            tx.send(Backlog).unwrap();
        }
        assert!(rx.shared.queue.node_capacity() > 8);
        while rx.try_recv().is_ok() {}
        drop(tx);
        drop(rx);
        assert_eq!(
            pooled_count::<Backlog>(),
            0,
            "empty, but past its first segment"
        );
    }

    #[test]
    fn pool_keeps_at_most_its_cap() {
        struct Reply;
        let held: Vec<_> = (0..2 * POOL_CAP).map(|_| channel::<Reply>()).collect();
        drop(held);
        assert_eq!(pooled_count::<Reply>(), POOL_CAP);
    }

    #[test]
    fn pools_of_different_payloads_never_cross() {
        struct A;
        struct B;
        let (tx, rx) = channel::<A>();
        let a = Arc::as_ptr(&rx.shared) as *const ();
        drop((tx, rx));
        assert_eq!(pooled_count::<A>(), 1);
        let (_tx, rx) = channel::<B>();
        assert_ne!(Arc::as_ptr(&rx.shared) as *const (), a);
        assert_eq!(pooled_count::<A>(), 1, "a B channel never takes an A");
        assert_eq!(pooled_count::<B>(), 0);
    }

    /// Miri-sized: the type-erased pool round trip (erase into
    /// `Arc<dyn Any>`, downcast back) on one thread, then a second thread
    /// that exits with a channel in its pool, whose entry the thread-local
    /// destructor must free (Miri reports the leak otherwise).
    #[test]
    fn smoke_channel_pool_round_trip() {
        for i in 0..3u32 {
            let (tx, rx) = channel::<u32>();
            tx.send(i).unwrap();
            assert_eq!(rx.try_recv(), Ok(i));
        }
        std::thread::scope(|s| {
            s.spawn(|| {
                let (tx, rx) = channel::<String>();
                tx.send("reply".into()).unwrap();
                assert_eq!(rx.recv().as_deref(), Some("reply"));
                drop((tx, rx));
                assert_eq!(pooled_count::<String>(), 1);
            });
        });
    }

    #[test]
    fn iter_drains_until_disconnect() {
        let (tx, rx) = channel::<u32>();
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            let got: Vec<u32> = rx.iter().collect();
            assert_eq!(got.len(), 100);
        });
    }
}
