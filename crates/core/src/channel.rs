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

use std::fmt;
use std::sync::Arc;
use valois_mem::ArenaConfig;
use valois_sync::shim::atomic::{AtomicUsize, Ordering};

use crate::queue::{FifoQueue, MIN_INITIAL_CAPACITY};

/// Creates an unbounded MPMC channel.
///
/// The queue's node pool starts at the smallest segment a [`FifoQueue`]
/// allows (8 nodes, not the 1024 of [`ArenaConfig::default`]) and doubles
/// on demand, so a one-reply channel costs about one reply while a
/// long-lived channel still grows to its backlog.
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
pub fn channel<T: Send + Sync>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: FifoQueue::with_config(ArenaConfig::new().initial_capacity(MIN_INITIAL_CAPACITY)),
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
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
        // channel (allocating the queue's dummy), another thread sends
        // once. Neither side may grow the 8-node pool.
        let (tx, rx) = channel::<u64>();
        std::thread::scope(|s| {
            s.spawn(move || tx.send(7).unwrap());
        });
        assert_eq!(rx.recv(), Some(7));
        let queue = &rx.shared.queue;
        assert!(
            queue.node_capacity() <= 8,
            "{} nodes",
            queue.node_capacity()
        );
        assert_eq!(queue.mem_stats().grows, 1, "only the first segment");
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
