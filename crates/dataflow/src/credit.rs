//! Bounded, credit-based channels for backpressure between threads.
//!
//! A [`credit_channel`] bounds a queue with *credits*. Every sender clone
//! is an independent **edge** with a fixed pool of `credits`: enqueueing an
//! item acquires one credit from the sending edge's pool, and the credit
//! returns to the pool when the receiver dequeues the item. A sender whose
//! pool is exhausted blocks with a bounded deadline ([`CreditSender::send`])
//! so that a true deadlock surfaces as a typed [`SendError::Timeout`]
//! instead of a hang — the same discipline the transport layer uses for
//! `CommError::Timeout`.  (The engine's own exchanges bound their memory in
//! sealed pages per writer instead, and spill what exceeds it; see
//! `crate::spill::SpillManager::with_page_credits`.)
//!
//! Because credits are released at *dequeue* time, a consumer that panics
//! while processing an item it already received leaks no credits: the act of
//! receiving returned the credit, and dropping the receiver wakes all blocked
//! senders with [`SendError::Disconnected`].
//!
//! The queue high-water mark ([`CreditReceiver::high_water`]) records the
//! maximum number of credits any single edge ever had in flight; by
//! construction it never exceeds the channel's credit count, which is what
//! the channel's property tests assert.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

pub use comm::positive_from_env;

/// One sender→receiver edge: the number of credits currently held by items
/// this edge has enqueued but the receiver has not yet dequeued.
///
/// The counter is only ever mutated while holding the channel mutex; the
/// atomic exists so the per-edge state can live behind an `Arc` shared by the
/// sender and the queued items without its own lock.
#[derive(Debug, Default)]
struct Edge {
    in_use: AtomicUsize,
}

struct ChannelState<T> {
    /// FIFO of `(owning edge, item)`; popping returns the credit to the edge.
    queue: VecDeque<(Arc<Edge>, T)>,
    /// Maximum credits any single edge ever had in flight.
    high_water: usize,
    /// Live `CreditSender` clones.
    senders: usize,
    /// Cleared when the receiver drops; blocked senders then fail fast.
    receiver_alive: bool,
}

struct ChannelCore<T> {
    credits: usize,
    state: Mutex<ChannelState<T>>,
    recv_cv: Condvar,
    send_cv: Condvar,
}

/// Error returned by the blocking [`CreditSender::send`]; carries the item
/// back so callers can retry or account for it.
#[derive(Debug, PartialEq, Eq)]
pub enum SendError<T> {
    /// The bounded wait for a credit expired — the deadlock detector
    /// tripping instead of hanging forever.
    Timeout(T),
    /// The receiver was dropped; no item will ever be consumed again.
    Disconnected(T),
}

/// Error returned by [`CreditReceiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// Nothing arrived before the deadline.
    Timeout,
    /// Every sender was dropped and the queue is empty.
    Disconnected,
}

/// Error returned by [`CreditReceiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The queue is currently empty.
    Empty,
    /// Every sender was dropped and the queue is empty.
    Disconnected,
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::Timeout(_) => write!(f, "timed out waiting for a channel credit"),
            SendError::Disconnected(_) => write!(f, "credit channel receiver disconnected"),
        }
    }
}

/// Sending half of a credit channel.
///
/// Cloning creates a **new edge with its own full credit pool** — the bound
/// is per sender→receiver edge, matching the per-channel transport windows.
pub struct CreditSender<T> {
    core: Arc<ChannelCore<T>>,
    edge: Arc<Edge>,
    timeout: Duration,
}

/// Receiving half of a credit channel. Single consumer; dropping it wakes
/// every blocked sender with [`SendError::Disconnected`].
pub struct CreditReceiver<T> {
    core: Arc<ChannelCore<T>>,
}

/// Creates a bounded channel where each sender edge may have at most
/// `credits` items in flight (enqueued but not yet dequeued).
///
/// `credits` is clamped to at least 1. `timeout` bounds the blocking
/// [`CreditSender::send`]: a sender that cannot acquire a credit within it
/// gets a typed [`SendError::Timeout`] instead of hanging.
pub fn credit_channel<T>(
    credits: usize,
    timeout: Duration,
) -> (CreditSender<T>, CreditReceiver<T>) {
    let core = Arc::new(ChannelCore {
        credits: credits.max(1),
        state: Mutex::new(ChannelState {
            queue: VecDeque::new(),
            high_water: 0,
            senders: 1,
            receiver_alive: true,
        }),
        recv_cv: Condvar::new(),
        send_cv: Condvar::new(),
    });
    (
        CreditSender {
            core: Arc::clone(&core),
            edge: Arc::new(Edge::default()),
            timeout,
        },
        CreditReceiver { core },
    )
}

impl<T> CreditSender<T> {
    /// The per-edge credit bound this channel was created with.
    pub fn credits(&self) -> usize {
        self.core.credits
    }

    fn push_locked(&self, state: &mut ChannelState<T>, item: T) {
        // Only mutated under the channel mutex, so load+store is race-free.
        let used = self.edge.in_use.load(Ordering::Relaxed) + 1;
        self.edge.in_use.store(used, Ordering::Relaxed);
        state.high_water = state.high_water.max(used);
        state.queue.push_back((Arc::clone(&self.edge), item));
        self.core.recv_cv.notify_one();
    }

    /// Enqueues `item`, blocking until a credit frees up, bounded by the
    /// channel timeout.
    pub fn send(&self, item: T) -> Result<(), SendError<T>> {
        self.send_deadline(item, self.timeout)
    }

    /// Like [`CreditSender::send`] but with an explicit bound on the wait.
    fn send_deadline(&self, item: T, wait: Duration) -> Result<(), SendError<T>> {
        let deadline = Instant::now() + wait;
        let mut state = self.core.state.lock().unwrap();
        loop {
            if !state.receiver_alive {
                return Err(SendError::Disconnected(item));
            }
            if self.edge.in_use.load(Ordering::Relaxed) < self.core.credits {
                self.push_locked(&mut state, item);
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(SendError::Timeout(item));
            }
            let (guard, _) = self
                .core
                .send_cv
                .wait_timeout(state, deadline - now)
                .unwrap();
            state = guard;
        }
    }
}

impl<T> Clone for CreditSender<T> {
    fn clone(&self) -> CreditSender<T> {
        let mut state = self.core.state.lock().unwrap();
        state.senders += 1;
        drop(state);
        CreditSender {
            core: Arc::clone(&self.core),
            edge: Arc::new(Edge::default()),
            timeout: self.timeout,
        }
    }
}

impl<T> Drop for CreditSender<T> {
    fn drop(&mut self) {
        let mut state = self.core.state.lock().unwrap();
        state.senders -= 1;
        if state.senders == 0 {
            // The receiver may be waiting for "a record or every sender gone".
            self.core.recv_cv.notify_all();
        }
    }
}

impl<T> CreditReceiver<T> {
    fn pop_locked(&self, state: &mut ChannelState<T>) -> Option<T> {
        state.queue.pop_front().map(|(edge, item)| {
            let used = edge.in_use.load(Ordering::Relaxed);
            edge.in_use.store(used.saturating_sub(1), Ordering::Relaxed);
            // Any edge may be blocked; the freed credit belongs to exactly
            // one of them, so wake them all and let each re-check its pool.
            self.core.send_cv.notify_all();
            item
        })
    }

    /// Dequeues an item if one is ready, returning its credit to the sending
    /// edge.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = self.core.state.lock().unwrap();
        match self.pop_locked(&mut state) {
            Some(item) => Ok(item),
            None if state.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Dequeues an item, waiting up to `timeout` for one to arrive.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.core.state.lock().unwrap();
        loop {
            if let Some(item) = self.pop_locked(&mut state) {
                return Ok(item);
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (guard, _) = self
                .core
                .recv_cv
                .wait_timeout(state, deadline - now)
                .unwrap();
            state = guard;
        }
    }

    /// Maximum credits any single sending edge ever had in flight — the queue
    /// high-water mark. Never exceeds the configured credit count.
    pub fn high_water(&self) -> usize {
        self.core.state.lock().unwrap().high_water
    }

    /// The per-edge credit bound this channel was created with.
    pub fn credits(&self) -> usize {
        self.core.credits
    }
}

impl<T> Drop for CreditReceiver<T> {
    fn drop(&mut self) {
        let mut state = self.core.state.lock().unwrap();
        state.receiver_alive = false;
        state.queue.clear();
        self.core.send_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    const SHORT: Duration = Duration::from_millis(20);
    const LONG: Duration = Duration::from_secs(5);

    #[test]
    fn roundtrip_preserves_fifo_order() {
        let (tx, rx) = credit_channel(8, LONG);
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(rx.recv_timeout(LONG).unwrap(), i);
        }
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn exhausted_edge_reports_full_then_timeout() {
        let (tx, rx) = credit_channel(2, SHORT);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(
            tx.send_deadline(3, Duration::ZERO),
            Err(SendError::Timeout(3))
        );
        assert_eq!(tx.send(3), Err(SendError::Timeout(3)));
        // Draining one item returns a credit.
        assert_eq!(rx.recv_timeout(LONG).unwrap(), 1);
        tx.send(3).unwrap();
        assert_eq!(rx.high_water(), 2);
    }

    #[test]
    fn each_sender_clone_gets_its_own_pool() {
        let (tx_a, rx) = credit_channel(1, SHORT);
        let tx_b = tx_a.clone();
        tx_a.send("a").unwrap();
        // Edge A is full but edge B still has its credit.
        assert_eq!(
            tx_a.send_deadline("a2", Duration::ZERO),
            Err(SendError::Timeout("a2"))
        );
        tx_b.send("b").unwrap();
        assert_eq!(rx.recv_timeout(LONG).unwrap(), "a");
        assert_eq!(rx.recv_timeout(LONG).unwrap(), "b");
        assert_eq!(rx.high_water(), 1);
    }

    #[test]
    fn blocked_sender_wakes_when_consumer_drains() {
        let (tx, rx) = credit_channel(1, LONG);
        tx.send(0u64).unwrap();
        let handle = thread::spawn(move || tx.send(1u64));
        thread::sleep(Duration::from_millis(30));
        assert_eq!(rx.recv_timeout(LONG).unwrap(), 0);
        handle.join().unwrap().unwrap();
        assert_eq!(rx.recv_timeout(LONG).unwrap(), 1);
    }

    #[test]
    fn receiver_drop_disconnects_blocked_sender() {
        let (tx, rx) = credit_channel(1, LONG);
        tx.send(0u64).unwrap();
        let handle = thread::spawn(move || tx.send(1u64));
        thread::sleep(Duration::from_millis(30));
        drop(rx);
        assert_eq!(handle.join().unwrap(), Err(SendError::Disconnected(1)));
    }

    #[test]
    fn sender_drop_disconnects_waiting_receiver() {
        let (tx, rx) = credit_channel::<u64>(1, LONG);
        let handle = thread::spawn(move || rx.recv_timeout(LONG));
        thread::sleep(Duration::from_millis(30));
        drop(tx);
        assert_eq!(handle.join().unwrap(), Err(RecvTimeoutError::Disconnected));
    }

    #[test]
    fn credits_are_released_on_dequeue_not_on_processing() {
        // A consumer that takes an item and then dies does not strand the
        // item's credit: receiving it already returned the credit.
        let (tx, rx) = credit_channel(1, LONG);
        tx.send(1u64).unwrap();
        let _ = rx.recv_timeout(LONG).unwrap();
        // Pretend the consumer panicked while processing; the edge can still
        // send because the dequeue freed its credit.
        tx.send_deadline(2, Duration::ZERO).unwrap();
    }

    #[test]
    fn high_water_never_exceeds_credits() {
        let (tx, rx) = credit_channel(2, LONG);
        for i in 0..10u64 {
            if let Err(SendError::Timeout(i)) = tx.send_deadline(i, Duration::ZERO) {
                rx.try_recv().unwrap();
                tx.send_deadline(i, Duration::ZERO).unwrap();
            }
        }
        assert_eq!(rx.high_water(), 2);
    }
}
